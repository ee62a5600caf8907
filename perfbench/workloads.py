"""Seeded input generators and the four benchmark workloads.

The benchmark owns its generators (it does not import ``zeroleak.families``)
so that changes to the package's own sweep families cannot reshape the
workloads. Every generator draws only from the ``numpy`` generator it is
given, so one seed always yields the same inputs. The program sees only the
text files written from these instances, in the README's input format.

Each workload fixes the *shapes* of its instances (alphabet sizes, class
sizes, component sizes); the seed only chooses probabilities and symbol
order. The work per instance therefore barely depends on the seed, which is
what keeps the end-to-end figures steady from one seed to the next.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

# Example 1 of the paper, as shipped in data/example1.txt: X says which half
# of the Y alphabet occurred. Embedded so the benchmark stands alone.
EXAMPLE1_TEXT = """\
# Example 1: X indicates which half of the Y alphabet occurred.
p_x_given_y:
1 1 1 0 0 0
0 0 0 1 1 1
p_y:
1/8 2/8 3/8 1/8 1/16 1/16
"""
EXAMPLE1_JOINT = np.array(
    [[1 / 8, 2 / 8, 3 / 8, 0, 0, 0], [0, 0, 0, 1 / 8, 1 / 16, 1 / 16]]
)


@dataclass(frozen=True)
class Instance:
    name: str
    family: str
    text: str  # the input file, in the README's format
    joint: np.ndarray  # the normalized P_XY the text describes


def _row(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _simplex(rng: np.random.Generator, n: int, floor: float = 0.02) -> np.ndarray:
    """Full-support probability vector with entries bounded away from zero."""
    v = rng.dirichlet(np.full(n, 6.0)) + floor
    return v / v.sum()


def _from_kernel(name: str, family: str, kernel: np.ndarray, p_y: np.ndarray) -> Instance:
    text = "p_x_given_y:\n" + "\n".join(_row(r) for r in kernel) + "\np_y:\n" + _row(p_y) + "\n"
    return Instance(name, family, text, kernel * p_y[None, :])


def _from_joint(name: str, family: str, joint: np.ndarray) -> Instance:
    joint = joint / joint.sum()
    text = "joint:\n" + "\n".join(_row(r) for r in joint) + "\n"
    return Instance(name, family, text, joint)


def det_f(rng: np.random.Generator, name: str, class_sizes) -> Instance:
    """X = f(Y): class x of f holds class_sizes[x] symbols of Y, in random order."""
    f = rng.permutation(np.repeat(np.arange(len(class_sizes)), class_sizes))
    kernel = np.zeros((len(class_sizes), f.size))
    kernel[f, np.arange(f.size)] = 1.0
    return _from_kernel(name, "det-f", kernel, _simplex(rng, f.size))


def common_info(rng: np.random.Generator, name: str, nv: int, n1: int, n2: int) -> Instance:
    """X = (V, N1), Y = (V, N2) with V, N1, N2 independent and full support."""
    p_v, p_1, p_2 = _simplex(rng, nv), _simplex(rng, n1), _simplex(rng, n2)
    joint = np.zeros((nv * n1, nv * n2))
    for v in range(nv):
        joint[v * n1 : (v + 1) * n1, v * n2 : (v + 1) * n2] = p_v[v] * np.outer(p_1, p_2)
    return _from_joint(name, "common-info", joint)


def invertible(rng: np.random.Generator, name: str, n: int) -> Instance:
    """Square, diagonally dominant P(X|Y): nothing can be disclosed (non-member)."""
    kernel = 0.6 * np.eye(n) + 0.4 * rng.dirichlet(np.ones(n), size=n).T
    kernel = kernel / kernel.sum(axis=0)[None, :]
    return _from_kernel(name, "invertible", kernel, _simplex(rng, n))


def small_y(rng: np.random.Generator, name: str, y_size: int, x_size: int) -> Instance:
    """Arbitrary full-support joint with |Y| <= |X| (the direct-pad regime)."""
    joint = rng.dirichlet(np.ones(x_size * y_size)).reshape(x_size, y_size) + 1e-3
    return _from_joint(name, "small-y", joint)


def example1() -> Instance:
    return Instance("example1", "example1", EXAMPLE1_TEXT, EXAMPLE1_JOINT)


# ---------------------------------------------------------------------------
# workloads

# |X| = 6 and |Y| = 18..22, the ROADMAP's det ladder. The class sizes fix the
# vertex count (their product); they are chosen so every rung costs about
# the same, because a ladder of unequal rungs makes the order statistics of
# a time-limited run jump with the number of passes completed.
DET_LADDER = (
    (4, 4, 3, 3, 2, 2),  # |Y| = 18, 576 vertices of C(18, 6) = 18,564 subsets
    (7, 3, 3, 2, 2, 2),  # |Y| = 19, 504 of 27,132
    (8, 4, 3, 2, 2, 1),  # |Y| = 20, 384 of 38,760
    (10, 3, 3, 2, 2, 1),  # |Y| = 21, 360 of 54,264
    (15, 2, 2, 1, 1, 1),  # |Y| = 22, 60 of 74,613
)

# (|V|, |N1|, |N2|), each drawn three times: |V| in 4..5, |N1| >= 2, 243 or
# 256 vertex columns. |N1| < |N2| keeps |Y| > |X|, so only the two-part code
# applies and len_bits.mean reflects the mechanism, not the fixed-width pad.
# Three equal groups put the median inside the middle group and the tail
# inside the top one, whatever the number of passes.
CI_DEEP = ((4, 2, 4), (5, 2, 3), (4, 3, 4)) * 3

# (|V|, |N1|, |N2|), each drawn twice: |V| in 2..3 with wide noise, so |X|
# and |Y| reach 15..33, U is large and the polytope has few vertices. The
# shapes cost about the same to code and to audit.
AUDIT_HEAVY = ((2, 16, 8), (2, 14, 9), (3, 11, 5)) * 2

# batch-small cycles through these shapes; the seed picks probabilities and
# symbol order only.
SMALL_DET = tuple((x, y) for y in range(3, 11) for x in (2, 3, 4) if x < y)  # (|X|, |Y|)
SMALL_CI = tuple((v, a, b) for v in (2, 3) for a in (1, 2, 3) for b in (1, 2, 3))
SMALL_Y = tuple((y, x) for y in range(2, 7) for x in range(y, 9))  # (|Y|, |X|)
SMALL_INVERTIBLE = (2, 3, 4)
BATCH_PER_FAMILY = 60


def _det_wide(rng):
    return [det_f(rng, f"det-6x{sum(s)}", s) for s in DET_LADDER]


def _ci_deep(rng):
    return [common_info(rng, f"ci-{v}x{a}x{b}-{i}", v, a, b) for i, (v, a, b) in enumerate(CI_DEEP)]


def _audit_heavy(rng):
    return [common_info(rng, f"ci-{v}x{a}x{b}-{i}", v, a, b) for i, (v, a, b) in enumerate(AUDIT_HEAVY)]


def _pick(shapes, i):
    return shapes[i % len(shapes)]


def _batch_small(rng):
    pool = [example1()]
    for i in range(BATCH_PER_FAMILY):
        x, y = _pick(SMALL_DET, i)
        pool.append(det_f(rng, f"det-{i}", [len(c) for c in np.array_split(np.arange(y), x)]))
        pool.append(common_info(rng, f"ci-{i}", *_pick(SMALL_CI, i)))
        pool.append(small_y(rng, f"small-y-{i}", *_pick(SMALL_Y, i)))
        pool.append(invertible(rng, f"inv-{i}", _pick(SMALL_INVERTIBLE, i)))
    order = rng.permutation(len(pool) - 1) + 1
    return [pool[0]] + [pool[i] for i in order]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[np.random.Generator], list[Instance]]
    analyze: bool = False  # also run `analyze` (and so `report`) per instance


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "det-wide",
            "X = f(Y), |X| = 6, |Y| = 18..22: vertex enumeration over C(|Y|,6) column subsets "
            "is over 90% of code time, the audit under 1%. Enumeration gains show; audit ones must not.",
            _det_wide,
        ),
        Workload(
            "ci-deep",
            "common-info X = (V,N1), Y = (V,N2), |V| = 4..5: the general LP path, g0 solved twice "
            "per code call over 243..256 vertex columns. A single-g0 change shows here, not on det-wide.",
            _ci_deep,
        ),
        Workload(
            "audit-heavy",
            "common-info, |V| = 2..3, wide N1/N2 (|X|,|Y| up to 33): cheap enumeration, large U, "
            "~10k (x,y,u,w) events per audit, so codec.audit dominates code and audit.",
            _audit_heavy,
        ),
        Workload(
            "batch-small",
            "240 small det-f, common-info, small-|Y| and invertible instances plus Example 1: "
            "fixed per-instance costs (parse, bound LPs, render, report) dominate; also runs analyze.",
            _batch_small,
            analyze=True,
        ),
    )
}
