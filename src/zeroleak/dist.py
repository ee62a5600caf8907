"""Finite discrete joint distributions and their exact information measures.

All probabilities are doubles, all logarithms base 2, all entropies in bits.
Zero rows/columns are stripped at construction so every marginal has full
support; the original indices are kept in ``x_map`` / ``y_map``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadShape, EmptySupport, NegativeMass, StochasticityError

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
        bad = np.nonzero(np.abs(sums - 1.0) > TAU_PROB)[0]
        if bad.size:
            raise StochasticityError(
                f"kernel column {bad[0]} sums to {sums[bad[0]]:.12g}, expected 1"
            )
        if self.k.min() < -TAU_PROB:
            raise NegativeMass(f"kernel has negative entry {self.k.min():.3g}")


def validate_and_normalize(raw, tol: float = TAU_PROB) -> JointDistribution:
    """Build a JointDistribution from a raw matrix.

    Clamps entries in [-tol, 0) to zero, renormalizes to total mass 1, and
    deletes all-zero rows and columns, recording which original indices
    survive. Raises BadShape for ragged/empty input, NegativeMass for
    entries below -tol, EmptySupport when nothing remains.
    """
    try:
        m = np.array(raw, dtype=float)
    except ValueError as exc:
        raise BadShape(f"ragged or non-numeric matrix: {exc}") from None
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise BadShape(f"expected a 2-d matrix, got shape {m.shape}")
    if m.min() < -tol:
        raise NegativeMass(f"entry {m.min():.6g} is below -{tol:g}")
    m = np.clip(m, 0.0, None)
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


def entropy(v) -> float:
    """Shannon entropy of a probability vector in bits, with 0*log(0) = 0."""
    a = np.asarray(v, dtype=float)
    nz = a[a > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def conditional_entropy_per_x(d: JointDistribution, x: int) -> float:
    """H(Y | X = x) in bits."""
    row = d.p[x]
    return entropy(row / row.sum())


def conditional_entropy_y_given_x(d: JointDistribution) -> float:
    """H(Y | X) = sum_x P(x) H(Y | X = x) in bits."""
    px = marginal_x(d)
    return float(sum(px[x] * conditional_entropy_per_x(d, x) for x in range(d.x_size)))


def mutual_information(d: JointDistribution) -> float:
    """I(X; Y) in bits, computed from the joint/product log-ratio."""
    px = marginal_x(d)
    py = marginal_y(d)
    prod = np.outer(px, py)
    mask = d.p > 0.0
    i = float((d.p[mask] * np.log2(d.p[mask] / prod[mask])).sum())
    return 0.0 if -1e-12 < i < 0.0 else i
