"""Span tracing of the zeroleak package from outside it.

``Tracer.find`` wraps every public function defined in a layer module and
finds, by object identity, every ``zeroleak`` module namespace that binds
it; ``install`` puts the wrappers in all those places and ``uninstall``
puts the originals back. ``rank_and_nullity`` is bound in ``linalg``,
``mechanism``, ``report`` and ``cli``; replacing each binding means calls
made through ``from .linalg import ...`` are traced too. Nothing under
``src/`` changes.

Each span records its name, start, end, the span that caused it, and the
CLI call (and through it the instance) it belongs to. Spans stay in memory,
in flat arrays, until ``save`` writes them out after the run.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "dist", "linalg", "mechanism", "codec", "report")

# Called several times per (x, y, u, w) event of an audit, and only from
# other codec functions. Wrapped, they put the tracing overhead on
# audit-heavy near 80%; unwrapped, their time stays in their caller's self
# time, in the same module.
UNWRAPPED = ("codec.ceil_log2", "codec.to_bits", "codec.message_bits")

# Functions the per-layer metrics name. One that a refactor removed is
# reported as absent (its metrics read 0) instead of failing the run.
NAMED = (
    "cli.parse_distribution_text",
    "cli.parse_code_document",
    "cli.analyze_distribution",
    "cli.render_code_document",
    "cli.rebuild_and_audit",
    "dist.validate_and_normalize",
    "linalg.enumerate_vertices",
    "linalg.solve_lp",
    "linalg.rank_and_nullity",
    "mechanism.solve_g0",
    "mechanism.membership_in_phat",
    "mechanism.theorem1_bounds",
    "mechanism.build_decode_table",
    "codec.audit",
    "codec.decode",
    "codec.build_huffman",
    "codec.build_two_part",
    "report.build_report",
)


def _count_enumeration(counters, args, kwargs, result):
    a = np.array(args[0] if args else kwargs["eq_lhs"], dtype=float, ndmin=2)
    counters["linalg.subsets_tried"] += math.comb(a.shape[1], int(np.linalg.matrix_rank(a)))
    counters["linalg.vertices_kept"] += len(result)


def _count_lp(counters, args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    counters["linalg.lp_cols"] += np.asarray(lp.objective).size


def _count_audit(counters, args, kwargs, result):
    code, d = args[:2]
    pos = (d.p > 0.0).sum(axis=0)  # positive-mass x per y
    if code.p_u_given_y is None:
        per_y = np.ones_like(pos)
    else:
        per_y = (code.p_u_given_y > 0.0).sum(axis=0)  # u with P(u|y) > 0
    counters["codec.audit.events"] += int(code.key_size * (pos * per_y).sum())


def _count_decode_table(counters, args, kwargs, result):
    counters["mechanism.u_size"] += result.u_size


# Work counters computed from a call's arguments and result, outside its span.
COUNTED = ("linalg.subsets_tried", "linalg.vertices_kept", "linalg.lp_cols",
           "codec.audit.events", "mechanism.u_size")
COUNTERS = {
    "linalg.enumerate_vertices": _count_enumeration,
    "linalg.solve_lp": _count_lp,
    "codec.audit": _count_audit,
    "mechanism.build_decode_table": _count_decode_table,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_call = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.call = -1  # index into the benchmark's table of CLI calls
        self.counters = dict.fromkeys(COUNTED, 0)
        self.counter_errors: dict[str, str] = {}
        self.absent: list[str] = []
        self.bindings: list[tuple] = []  # (module, attribute, original, wrapper)

    def find(self) -> list[str]:
        """Wrap the public functions of every layer and find every namespace
        binding each one; return the traced names. Nothing is replaced yet."""
        modules = {n: m for n, m in sys.modules.items() if n == "zeroleak" or n.startswith("zeroleak.")}
        targets = {}
        for layer in LAYERS:
            mod = modules.get(f"zeroleak.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    targets[id(obj)] = (obj, self._wrap(name, obj))
        self.bindings = [
            (mod, attr, *targets[id(obj)])
            for mod in modules.values()
            for attr, obj in vars(mod).items()
            if id(obj) in targets and targets[id(obj)][0] is obj
        ]
        self.absent = [n for n in NAMED if n not in self.name_ids]
        return sorted(self.names)

    def install(self) -> None:
        for mod, attr, _, wrapper in self.bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self.bindings:
            setattr(mod, attr, original)

    def _wrap(self, name: str, fn):
        nid = self.name_ids[name] = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        names, parents, calls = self.span_name, self.span_parent, self.span_call
        starts, ends, stack = self.span_start, self.span_end, self.stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            calls.append(tracer.call)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if count is not None:
                try:
                    count(tracer.counters, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                    tracer.counter_errors[name] = f"{type(exc).__name__}: {exc}"
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "call": np.frombuffer(self.span_call, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
        }

    def save(self, path, calls: list[tuple[int, str]]) -> None:
        """Write every span, plus the name and CLI-call tables, as .npz."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            call_instance=np.array([c[0] for c in calls], dtype=np.int32),
            call_command=np.array([c[1] for c in calls]),
            **self.arrays(),
        )


def summarize(tracer: Tracer, calls: list[tuple[int, str]], instances: int) -> tuple[dict, dict]:
    """Per-layer metrics and shares from the recorded spans.

    For every named function: inclusive seconds (``.s``), self seconds
    (``.self_s``) and calls (``.calls``), each per traced instance; the work
    counters; and each layer's self seconds per instance.
    """
    s = tracer.arrays()
    n = s["name"].size
    dur = s["end"] - s["start"]
    has_parent = s["parent"] >= 0
    child = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child
    command = np.array([c[1] for c in calls] + [""])[s["call"]]  # call -1 maps to ""
    per = 1.0 / max(instances, 1)

    def pick(name, mask=None):
        nid = tracer.name_ids.get(name)
        sel = s["name"] == (-2 if nid is None else nid)
        return sel if mask is None else sel & mask

    def total(name, values, mask=None):
        return float(values[pick(name, mask)].sum())

    def calls_of(name, mask=None):
        return int(pick(name, mask).sum())

    metrics = {}
    for name in NAMED:
        metrics[f"{name}.s"] = total(name, dur) * per
        metrics[f"{name}.self_s"] = total(name, self_time) * per
        metrics[f"{name}.calls"] = calls_of(name) * per
    c = tracer.counters
    tried = c["linalg.subsets_tried"]
    code_calls = sum(1 for cl in calls if cl[1] == "code")
    metrics.update({
        "linalg.subsets_tried": tried * per,
        "linalg.vertices_kept": c["linalg.vertices_kept"] * per,
        "linalg.vertex_yield": c["linalg.vertices_kept"] / tried if tried else 0.0,
        "linalg.lp_cols.mean": c["linalg.lp_cols"] / max(calls_of("linalg.solve_lp"), 1),
        "mechanism.solve_g0.calls_per_instance": calls_of("mechanism.solve_g0", command == "code")
        / max(code_calls, 1),
        "mechanism.u_size.mean": c["mechanism.u_size"] / max(calls_of("mechanism.build_decode_table"), 1),
        "codec.audit.events": c["codec.audit.events"] / max(calls_of("codec.audit"), 1),
    })
    layer_of = np.array([name.split(".")[0] for name in tracer.names] + [""])
    layer_self = {layer: float(self_time[layer_of[s["name"]] == layer].sum()) for layer in LAYERS}
    metrics.update({f"{layer}.self_s": t * per for layer, t in layer_self.items()})

    program = float(dur[~has_parent].sum())  # root spans: one per CLI call
    is_code, is_audit = command == "code", command == "audit"
    code_time = float(dur[~has_parent & is_code].sum())
    audit_time = float(dur[~has_parent & is_audit].sum())

    def share(name, mask, whole):
        return total(name, dur, mask) / whole if whole else 0.0

    shares = {
        "program_s": program,
        "module_share_of_program": {layer: t / program if program else 0.0 for layer, t in layer_self.items()},
        "enumerate_vertices_share_of_code": share("linalg.enumerate_vertices", is_code, code_time),
        "membership_in_phat_share_of_code": share("mechanism.membership_in_phat", is_code, code_time),
        "audit_share_of_code": share("codec.audit", is_code, code_time),
        "audit_share_of_audit": share("codec.audit", is_audit, audit_time),
        "spans": int(n),
        "absent": tracer.absent,
        "counter_errors": tracer.counter_errors,
    }
    return metrics, shares
