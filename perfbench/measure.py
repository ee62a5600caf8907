"""Run one workload in this single process and print its figures as JSON.

Started by ``run.py`` with ``PYTHONPATH`` at the checkout's ``src`` and the
BLAS/OpenMP thread counts pinned to 1. Untraced runs first time fresh
interpreters importing ``zeroleak.cli`` (set-up). For each instance it then
drives the documented CLI entry point, ``zeroleak.cli.main``, in-process:
``code --format structured``, save the document, ``audit`` the saved
document and, for workloads that ask for it, ``analyze``. Each instance is
checked independently (``verify.py``). End-to-end times are scaled to a
reference machine speed (``SpeedScale``); the raw ones go in the details.

The timed loop makes whole passes over the workload's instance pool: it
starts a new pass while fewer than ``--seconds`` have gone by and always
finishes the pass it started, so every run measures the same mix of
instances. With ``--trace 1`` untraced passes alternate with passes during
which the package is wrapped (``tracer.py``); the traced passes give the
per-layer figures, and the difference in pass time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import tracer as tracing
import verify
import workloads

ROOT = Path(__file__).resolve().parent.parent
MAX_REPORTED_FAILURES = 5
SETUP_RUNS = 11
CAL_ROUND_S = 1e-3  # one calibration round on the reference machine
CAL_EVERY_S = 0.1  # recalibrate before an instance once the last round is this old
_CAL_A = np.arange(36.0).reshape(6, 6) + 50.0 * np.eye(6)
_CAL_PERM = [0, 2, 4, 1, 3, 5]


def calibration_round() -> float:
    """Wall time of a fixed mix of the work the program does: small numpy
    calls, dict stores and float formatting."""
    t0 = perf_counter()
    acc, scratch = 0.0, {}
    for i in range(100):
        acc += np.linalg.det(_CAL_A)
        acc += float(np.abs(_CAL_A[:, _CAL_PERM] - _CAL_A).max())
        scratch[f"k{i}"] = repr(acc)
    return perf_counter() - t0


class SpeedScale:
    """Rescales wall time measured now to a machine on which one calibration
    round takes CAL_ROUND_S (this benchmark's 2-core Xeon host takes about
    0.9 ms when quiet).

    On a shared host the speed of the same code swings by a factor of 1.5
    or more for seconds to minutes at a time, so raw medians of runs a few
    minutes apart differ by 20-30%. The calibration round slows down with
    the program, so times scaled by it stay within a few percent. The raw
    figures are kept in the run's details.
    """

    def __init__(self):
        self.at = -math.inf
        self.factor = 1.0
        self.rounds: list[float] = []

    def current(self) -> float:
        if perf_counter() - self.at >= CAL_EVERY_S:
            seconds = min(calibration_round(), calibration_round())
            self.rounds.append(seconds)
            self.factor = CAL_ROUND_S / seconds
            self.at = perf_counter()
        return self.factor


def measure_setup(scale: SpeedScale) -> tuple[float, float]:
    """Median (scaled, raw) wall time of a fresh interpreter importing zeroleak.cli."""
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        factor = scale.current()
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import zeroleak.cli"], cwd=ROOT, check=True,
                       capture_output=True, timeout=60)
        raw.append(perf_counter() - t0)
        scaled.append(raw[-1] * factor)
    return statistics.median(scaled), statistics.median(raw)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Runner:
    """Runs the code/audit(/analyze) flow on instances and keeps the tallies."""

    def __init__(self, cli, workload: workloads.Workload, pool: list[workloads.Instance], out: Path,
                 scale: SpeedScale):
        self.cli = cli
        self.scale = scale
        self.factor = 1.0  # the scale's factor when the current instance started
        self.workload = workload
        self.pool = pool
        self.out = out
        for sub in ("inputs", "docs"):
            (out / sub).mkdir(parents=True, exist_ok=True)
        self.inputs = []
        for inst in pool:
            path = out / "inputs" / f"{inst.name}.txt"
            path.write_text(inst.text, encoding="utf-8")
            self.inputs.append(str(path))
        self.tracer: tracing.Tracer | None = None
        self.calls: list[tuple[int, str]] = []  # (instance number, command), for spans
        self.digest: dict[str, str] = {}
        self.len_bits: dict[str, float] = {}
        self.u_size: dict[str, int] = {}
        self.code_s: dict[str, list[float]] = {}  # instance -> raw latencies
        self.code_scaled: list[float] = []
        self.audit_s: list[float] = []
        self.audit_scaled: list[float] = []
        self.busy_scaled = 0.0  # scaled wall time spent in instances
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []

    def _cli(self, command: str, argv: list[str]) -> tuple[int, str, str, float]:
        if self.tracer is not None:
            self.tracer.call = len(self.calls)
            self.calls.append((self.attempted, command))
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = self.cli.main(["--cmd", command, *argv])
            except SystemExit as exc:  # argparse rejected the arguments
                status = exc.code
        elapsed = perf_counter() - t0
        return status, out.getvalue(), err.getvalue(), elapsed

    def _flow(self, i: int) -> list[str]:
        inst, path = self.pool[i], self.inputs[i]
        status, doc, err, t = self._cli("code", ["--input", path, "--format", "structured"])
        self.code_s.setdefault(inst.name, []).append(t)
        self.code_scaled.append(t * self.factor)
        if status != 0:
            return [f"code exited {status}: {err.strip()[-300:]}"]
        doc_path = self.out / "docs" / f"{inst.name}.code.txt"
        doc_path.write_text(doc, encoding="utf-8")
        problems, bits, u_size = verify.check_code_document(doc, inst.joint)
        digest = hashlib.sha256(doc.encode()).hexdigest()
        if self.digest.setdefault(inst.name, digest) != digest:
            problems.append("structured code output changed between passes")
        if bits is not None:
            self.len_bits.setdefault(inst.name, bits)
        if u_size is not None:
            self.u_size.setdefault(inst.name, u_size)
        status, _, err, t = self._cli("audit", ["--input", str(doc_path)])
        self.audit_s.append(t)
        self.audit_scaled.append(t * self.factor)
        if status != 0:
            problems.append(f"audit of the saved document exited {status}: {err.strip()[-300:]}")
        if self.workload.analyze:
            status, text, err, _ = self._cli("analyze", ["--input", path])
            if status != 0:
                problems.append(f"analyze exited {status}: {err.strip()[-300:]}")
            else:
                problems += verify.check_analysis(text, verify.parse_document(doc).get("schemes", "").split())
        return problems

    def attempt(self, i: int) -> None:
        self.attempted += 1
        self.factor = self.scale.current()
        start = perf_counter()
        try:
            problems = self._flow(i)
        except Exception:  # a traceback fails this instance, not the run
            problems = [traceback.format_exc(limit=8)]
        self.busy_scaled += (perf_counter() - start) * self.factor
        if problems:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append({"instance": self.pool[i].name, "problems": problems})

    def run_pass(self) -> tuple[float, float, int]:
        """One pass over the pool: its wall time, the scaled time spent in
        its instances, and how many of them passed verification."""
        start, failed, busy = perf_counter(), self.failed, self.busy_scaled
        for i in range(len(self.pool)):
            self.attempt(i)
        return perf_counter() - start, self.busy_scaled - busy, len(self.pool) - (self.failed - failed)


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples above it, but never
    below the median: (value, percentile, sample count)."""
    v = sorted(values)
    i = max(len(v) - 11, len(v) // 2)
    return v[i], 100.0 * (i + 1) / len(v), len(v)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    from zeroleak import cli

    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"error: imported zeroleak from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    out = Path(args.out)
    workload = workloads.WORKLOADS[args.workload]
    pool = workload.build(np.random.default_rng(args.seed))

    scale = SpeedScale()
    # Lazy imports and first-call costs are paid here, untimed.
    Runner(cli, workload, [workloads.example1()], out / "warmup", scale).attempt(0)

    runner = Runner(cli, workload, pool, out, scale)
    details = {"workload": workload.name, "why": workload.why, "seed": args.seed,
               "pool": len(pool), "environment": environment()}
    if args.trace:
        # Untraced and traced passes alternate, so both see the same mix of
        # machine states and their difference is the tracing overhead.
        tracer = tracing.Tracer()
        details["traced_functions"] = tracer.find()
        untraced, traced = [], []  # scaled pass times
        t0 = perf_counter()
        while not traced or perf_counter() - t0 < args.seconds:
            untraced.append(runner.run_pass()[1])
            tracer.install()
            runner.tracer = tracer
            traced.append(runner.run_pass()[1])
            tracer.uninstall()
            runner.tracer = None
        loop_s, passes = perf_counter() - t0, len(traced)
        metrics, shares = tracing.summarize(tracer, runner.calls, passes * len(pool))
        overhead = statistics.median(traced) - statistics.median(untraced)
        metrics["trace.overhead_s"] = overhead / len(pool)
        metrics["trace.overhead_ratio"] = overhead / statistics.median(untraced)
        details.update(shares, untraced_pass_s=untraced, traced_pass_s=traced)
        tracer.save(out / "spans.npz", runner.calls)
    else:
        setup_scaled, setup_raw = measure_setup(scale)
        rates, rates_scaled = [], []  # per pass: instances that passed per (scaled) second
        t0 = perf_counter()
        while not rates or perf_counter() - t0 < args.seconds:
            wall, scaled, passed_in_pass = runner.run_pass()
            rates.append(passed_in_pass / wall)
            rates_scaled.append(passed_in_pass / scaled)
        loop_s, passes = perf_counter() - t0, len(rates)
        passed = runner.attempted - runner.failed
        code_raw = [t for ts in runner.code_s.values() for t in ts]
        code_tail, pct, n = tail(runner.code_scaled)
        metrics = {
            "setup_s": setup_scaled,
            "throughput_ips": statistics.median(rates_scaled),
            "code_s.p50": statistics.median(runner.code_scaled),
            "code_s.tail": code_tail,
            "audit_s.p50": statistics.median(runner.audit_scaled) if runner.audit_s else math.nan,
            "pass_ratio": passed / runner.attempted,
            "len_bits.mean": statistics.fmean(runner.len_bits.values()) if runner.len_bits else math.nan,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        details.update(
            raw={"setup_s": setup_raw, "throughput_ips": statistics.median(rates),
                 "code_s.p50": statistics.median(code_raw), "code_s.tail": tail(code_raw)[0],
                 "audit_s.p50": statistics.median(runner.audit_s) if runner.audit_s else math.nan},
            code_s_p50_by_instance={k: statistics.median(v) for k, v in runner.code_s.items()},
            code_tail_percentile=pct, code_samples=n, audit_samples=len(runner.audit_s),
            fail_ratio=runner.failed / runner.attempted)
    details["calibration"] = {"rounds": len(scale.rounds), "round_s_median": statistics.median(scale.rounds),
                              "round_s_min": min(scale.rounds), "round_s_max": max(scale.rounds)}
    details.update(loop_s=loop_s, passes=passes, failures=runner.failures,
                   len_bits=runner.len_bits, u_size=runner.u_size, code_sha256=runner.digest)
    result = {"attempted": runner.attempted, "failed": runner.failed, "metrics": metrics, "details": details}
    (out / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
