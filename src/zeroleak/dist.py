"""Finite discrete joint distributions and their exact information measures.

All probabilities are doubles, all logarithms base 2, all entropies in bits.
A symbol of no mass is an input error, so every x and y has positive mass
and every index a report prints is the input's own. Entropies
of many rows are taken in one batch (``entropy_rows``) that equals the
one-row ``entropy`` of each row bit for bit, and weighted sums of them add
left to right (``sum_in_order``), as a Python loop would. Conditionals
are plain arrays; ``stochastic_columns`` checks one read from outside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadShape, EmptySupport, NegativeMass, NonFiniteMass, StochasticityError

TAU_PROB = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class JointDistribution:
    """A normalized |X| x |Y| joint probability matrix with full-support marginals."""

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _readonly(self.p))

    @property
    def x_size(self) -> int:
        return self.p.shape[0]

    @property
    def y_size(self) -> int:
        return self.p.shape[1]


def validate_and_normalize(raw) -> JointDistribution:
    """Build a JointDistribution from a raw matrix.

    Clamps entries in [-TAU_PROB, 0) to zero and renormalizes to total mass
    1; a total that overflows is taken after dividing by the largest entry.
    Raises BadShape for ragged/empty input, NonFiniteMass for NaN or infinite
    entries, NegativeMass for entries below -TAU_PROB, and EmptySupport when
    the total is then exactly 0 (any positive total normalizes, however
    small) or a row or column is then all zero, naming the first such x,
    else y, by its index in ``raw``.
    """
    try:
        m = np.array(raw, dtype=float)
    except ValueError as exc:
        raise BadShape(f"ragged or non-numeric matrix: {exc}") from None
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise BadShape(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteMass(f"entry {m[~np.isfinite(m)][0]} is not finite")
    if m.min() < -TAU_PROB:
        raise NegativeMass(f"entry {m.min():.6g} is below -{TAU_PROB:g}")
    m = np.clip(m, 0.0, None)
    with np.errstate(over="ignore"):
        total = m.sum()
    if np.isinf(total):
        m = m / m.max()
        total = m.sum()
    if total == 0.0:
        raise EmptySupport("all probability mass is zero")
    m = m / total
    for symbol, line, live in (("x", "row", m.any(axis=1)), ("y", "column", m.any(axis=0))):
        if not live.all():
            i = live.argmin()
            raise EmptySupport(f"{symbol} = {i} has no probability mass: joint {line} {i} is all zero")
    return JointDistribution(m)


def from_conditional(p_x_given_y, p_y) -> JointDistribution:
    """Compose a joint from a column-stochastic kernel P(x|y) and a marginal P(y)."""
    k = np.asarray(p_x_given_y, dtype=float)
    v = np.asarray(p_y, dtype=float)
    if k.ndim != 2 or v.ndim != 1 or k.shape[1] != v.size:
        raise BadShape(f"kernel shape {k.shape} does not match marginal length {v.size}")
    col_sums = k.sum(axis=0)
    bad = np.nonzero(np.abs(col_sums - 1.0) > 1e-6)[0]
    if bad.size:
        raise StochasticityError(
            f"conditional column {bad[0]} sums to {col_sums[bad[0]]:.12g}, expected 1"
        )
    if abs(v.sum() - 1.0) > 1e-6:
        raise StochasticityError(f"marginal sums to {v.sum():.12g}, expected 1")
    return validate_and_normalize(k * v[None, :])


def marginal_x(d: JointDistribution) -> np.ndarray:
    return d.p.sum(axis=1)


def marginal_y(d: JointDistribution) -> np.ndarray:
    return d.p.sum(axis=0)


def kernel_x_given_y(d: JointDistribution) -> np.ndarray:
    """P(x | y) as an [x][y] array; column-stochastic by construction."""
    return d.p / marginal_y(d)[None, :]


def stochastic_columns(k) -> np.ndarray:
    """``k`` as a read-only C-contiguous array, checked to be a nonempty 2-d
    matrix whose columns each sum to 1 within TAU_PROB, with every entry
    finite and none below -TAU_PROB."""
    k = _readonly(k)
    if k.ndim != 2 or k.size == 0:
        raise BadShape("kernel must be a nonempty 2-d matrix")
    sums = k.sum(axis=0)
    # a NaN or infinite entry leaves its column sum NaN or infinite, so
    # only a column that fails this test needs its entries checked
    bad = np.nonzero(~(np.abs(sums - 1.0) <= TAU_PROB))[0]
    if bad.size:
        nonfinite = k[~np.isfinite(k)]
        if nonfinite.size:
            raise NonFiniteMass(f"kernel entry {nonfinite[0]} is not finite")
        raise StochasticityError(f"kernel column {bad[0]} sums to {sums[bad[0]]:.12g}, expected 1")
    if k.min() < -TAU_PROB:
        raise NegativeMass(f"kernel has negative entry {k.min():.3g}")
    return k


def support_components(d: JointDistribution) -> tuple[int, np.ndarray, np.ndarray]:
    """Connected components of the bipartite support graph: the x and y
    symbols are the nodes, and (x, y) is an edge wherever P(x, y) > 0.

    Returns (count, x_part, y_part), the component of every x and every y,
    numbered in the order of each component's lowest x. A row with no zero
    meets every y, so then there is one component. Otherwise every symbol
    starts labelled by its own x index (a y by the least x it meets) and
    takes the least label among its neighbours, one pass over the whole
    support at a time, until nothing changes; each component then carries
    the index of its lowest x.
    """
    pos = d.p > 0.0
    if pos.all(axis=1).any():
        return 1, np.zeros(d.x_size, dtype=int), np.zeros(d.y_size, dtype=int)
    label = np.arange(d.x_size)
    while True:
        y_label = np.where(pos, label[:, None], d.x_size).min(axis=0)
        x_label = np.where(pos, y_label, d.x_size).min(axis=1)
        if (x_label == label).all():
            break
        label = x_label
    roots = np.flatnonzero(label == np.arange(d.x_size))
    return roots.size, np.searchsorted(roots, label), np.searchsorted(roots, y_label)


def entropy(v) -> float:
    """Shannon entropy of a probability vector in bits, with 0*log(0) = 0."""
    a = np.asarray(v, dtype=float)
    nz = a[a > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def entropy_rows(m) -> np.ndarray:
    """``entropy(row)`` for every row of the 2-d array ``m``, bit for bit.

    The positive entries are compacted in row order and their p log p terms
    taken in one pass. Rows are grouped by how many positive entries they
    have, and each group is reduced by one 2-d ``sum(axis=1)``, which pairs
    each row's additions as the one-row ``sum`` does.
    """
    a = np.asarray(m, dtype=float)
    pos = a > 0.0
    nz = a[pos]
    terms = nz * np.log2(nz)
    counts = pos.sum(axis=1)
    ends = counts.cumsum()
    out = np.empty(a.shape[0])
    for c in set(counts.tolist()):
        rows = np.nonzero(counts == c)[0]
        out[rows] = -terms[(ends[rows] - c)[:, None] + np.arange(c)].sum(axis=1)
    return out


def sum_in_order(v: np.ndarray, times: int = 1) -> float:
    """0.0 + each entry of ``v``, ``times`` times over, added left to right.

    Exact zeros are dropped first, which moves no bit: a rounded sum is 0
    only when the exact one is (tiny sums are exact), and an exact zero sum
    is -0 only when both operands are (IEEE 754 §6.3), so a sum started at
    +0 is never -0, and s + 0 of either sign is s. NaN stays. The first term
    t left gives 0.0 + t == t, and an empty fold is +0.0."""
    t = v[v != 0.0]
    return float(t.repeat(times).cumsum()[-1]) if t.size else 0.0


def conditional_entropies(d: JointDistribution) -> np.ndarray:
    """H(Y | X = x) in bits for every x."""
    return entropy_rows(d.p / marginal_x(d)[:, None])


def conditional_entropy_y_given_x(d: JointDistribution) -> float:
    """H(Y | X) = sum_x P(x) H(Y | X = x) in bits."""
    return sum_in_order(marginal_x(d) * conditional_entropies(d))


def mutual_information(d: JointDistribution) -> float:
    """I(X; Y) in bits, computed from the joint/product log-ratio."""
    px = marginal_x(d)
    py = marginal_y(d)
    prod = np.outer(px, py)
    mask = d.p > 0.0
    i = float((d.p[mask] * np.log2(d.p[mask] / prod[mask])).sum())
    return 0.0 if -1e-12 < i < 0.0 else i
