"""Finite discrete joint distributions and their exact information measures.

All probabilities are doubles, all logarithms base 2, all entropies in bits.
Zero rows/columns are stripped at construction so every marginal has full
support; the original indices are kept in ``x_map`` / ``y_map``. Entropies
of many rows are taken in one batch (``entropy_rows``) that equals the
one-row ``entropy`` of each row bit for bit, and weighted sums of them add
left to right (``sum_in_order``), as a Python loop would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    x_map: tuple[int, ...] = field(default=())
    y_map: tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "p", _readonly(self.p))
        if not self.x_map:
            object.__setattr__(self, "x_map", tuple(range(self.p.shape[0])))
        if not self.y_map:
            object.__setattr__(self, "y_map", tuple(range(self.p.shape[1])))

    @property
    def x_size(self) -> int:
        return self.p.shape[0]

    @property
    def y_size(self) -> int:
        return self.p.shape[1]


@dataclass(frozen=True)
class Kernel:
    """A column-stochastic conditional distribution, indexed [out][cond]."""

    k: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k", _readonly(self.k))
        if self.k.ndim != 2 or self.k.size == 0:
            raise BadShape("kernel must be a nonempty 2-d matrix")
        sums = self.k.sum(axis=0)
        # a NaN or infinite entry leaves its column sum NaN or infinite, so
        # only a column that fails this test needs its entries checked
        bad = np.nonzero(~(np.abs(sums - 1.0) <= TAU_PROB))[0]
        if bad.size:
            nonfinite = self.k[~np.isfinite(self.k)]
            if nonfinite.size:
                raise NonFiniteMass(f"kernel entry {nonfinite[0]} is not finite")
            raise StochasticityError(
                f"kernel column {bad[0]} sums to {sums[bad[0]]:.12g}, expected 1"
            )
        if self.k.min() < -TAU_PROB:
            raise NegativeMass(f"kernel has negative entry {self.k.min():.3g}")


def validate_and_normalize(raw, tol: float = TAU_PROB) -> JointDistribution:
    """Build a JointDistribution from a raw matrix.

    Clamps entries in [-tol, 0) to zero, renormalizes to total mass 1, and
    deletes all-zero rows and columns, recording which original indices
    survive; a total that overflows is taken after dividing by the largest
    entry. Raises BadShape for ragged/empty input, NonFiniteMass for NaN or
    infinite entries, NegativeMass for entries below -tol, EmptySupport
    when nothing remains.
    """
    try:
        m = np.array(raw, dtype=float)
    except ValueError as exc:
        raise BadShape(f"ragged or non-numeric matrix: {exc}") from None
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise BadShape(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteMass(f"entry {m[~np.isfinite(m)][0]} is not finite")
    if m.min() < -tol:
        raise NegativeMass(f"entry {m.min():.6g} is below -{tol:g}")
    m = np.clip(m, 0.0, None)
    with np.errstate(over="ignore"):
        total = m.sum()
    if np.isinf(total):
        m = m / m.max()
        total = m.sum()
    if total <= tol:
        raise EmptySupport("all probability mass is zero")
    m = m / total
    keep_x = np.nonzero(m.sum(axis=1) > 0.0)[0]
    keep_y = np.nonzero(m.sum(axis=0) > 0.0)[0]
    m = m[np.ix_(keep_x, keep_y)]
    return JointDistribution(m, tuple(int(i) for i in keep_x), tuple(int(j) for j in keep_y))


def from_conditional(p_x_given_y, p_y, tol: float = TAU_PROB) -> JointDistribution:
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
    return validate_and_normalize(k * v[None, :], tol)


def marginal_x(d: JointDistribution) -> np.ndarray:
    return d.p.sum(axis=1)


def marginal_y(d: JointDistribution) -> np.ndarray:
    return d.p.sum(axis=0)


def kernel_x_given_y(d: JointDistribution) -> Kernel:
    return Kernel(d.p / marginal_y(d)[None, :])


def kernel_y_given_x(d: JointDistribution) -> Kernel:
    return Kernel(d.p.T / marginal_x(d)[None, :])


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


def sum_in_order(v: np.ndarray) -> float:
    """0.0 + v[0] + v[1] + ..., added left to right."""
    return float(np.concatenate(([0.0], v)).cumsum()[-1])


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
