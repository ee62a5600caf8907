"""zeroleak benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Runs the workload in one separate process
(``measure.py``) with ``PYTHONPATH`` at ``src`` and the BLAS/OpenMP thread
counts pinned to 1, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. Inputs, code documents, per-run details (environment, code
output digests, failures) and the recorded spans go to
``perfbench/out/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import monotonic

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DEADLINE_S = 170  # the whole run must end well within 180 s


class BenchError(Exception):
    pass


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def main() -> int:
    deadline = monotonic() + DEADLINE_S
    ap = argparse.ArgumentParser(description="zeroleak benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "zeroleak" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'zeroleak'} is missing")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(ROOT / "perfbench" / "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out)]
    done = subprocess.run(cmd, cwd=ROOT, env=program_env(), capture_output=True, text=True,
                          timeout=max(deadline - monotonic(), 1))
    if done.returncode != 0:
        raise BenchError(f"workload process exited {done.returncode}:\n{done.stderr.strip()[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {}
    for m in declared:
        value = result["metrics"].get(m["name"])
        if value is None or not math.isfinite(value):
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    details = result["details"]
    bulky = ("code_sha256", "len_bits", "u_size", "code_s_p50_by_instance", "traced_functions")
    print(json.dumps({k: v for k, v in details.items() if k not in bulky}))
    correct = result["failed"] == 0 and result["attempted"] > 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(2)
