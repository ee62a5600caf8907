"""Zero-leakage disclosure mechanisms for a joint (X, Y).

A mechanism is a variable U produced from Y alone (Markov X - Y - U) whose
encoded view reveals nothing about X: every conditional column P(Y|U=u)
must satisfy P_{X|Y} @ P(Y|u) = P_X. The set of such columns is a polytope;
an entropy-maximizing disclosure is a mixture of its vertices found by a
linear program over vertex weights. The polytope is a product of one
polytope per connected component of the support of P_XY (the Gacs-Korner
common part), so ``solve_g0`` solves each component alone, with no LP at
all where X and Y are independent on it, and joins the components' optima
by a greedy minimum-entropy coupling, which keeps the optimum and shortens
the code. This module synthesizes that optimizer, tests whether the
synthesis is information-lossless (the funnel value equals H(Y|X)), and
computes LP sandwich bounds on the minimum achievable H(U). ``analyze``
runs these steps once for a joint; every command starts there.
The vertex entropies, the decode table and H(Y|X,U) are taken as array
operations over all vertices or (x, u) pairs at once; each figure equals
that of a loop over them with the one-row ``dist.entropy``, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import dist
from .dist import JointDistribution, Kernel
from .errors import InfeasibleBoundLP, InternalError, NotDecodable
from .linalg import RANK_TOL, LinearProgram, enumerate_vertices, rank_and_nullity, solve_lp

TAU_ENT = 1e-7
WEIGHT_FLOOR = 1e-12  # a vertex weight at or below this counts as zero


@dataclass(frozen=True)
class Mechanism:
    """A zero-leakage disclosure variable U.

    ``p_y_given_u`` holds one polytope point per column; ``decode`` maps each
    positive-mass (x, u) pair to the unique y it implies (filled by
    build_decode_table, None until then).
    """

    p_u: np.ndarray
    p_y_given_u: Kernel
    decode: dict[tuple[int, int], int] | None = None

    @property
    def u_size(self) -> int:
        return self.p_u.size


@dataclass(frozen=True)
class MechanismBounds:
    """The H(U) sandwich of ``theorem1_bounds``: ``k_upper_strengthened`` is
    min(k_upper, log_nullity_bound)."""

    k_lower: float
    k_upper: float
    k_upper_strengthened: float
    log_nullity_bound: float
    unique: bool


@dataclass(frozen=True)
class Analysis:
    """What the reports and codes of one joint are built from: H(Y|X=x) for
    every x (``h_given_x``) and H(Y|X) (``h_cond``), the rank and nullity of
    P_{X|Y}, whether X = f(Y), membership, and for a member the g0 optimizer
    ``mech`` (with a decode table when ``mech_decodable``), its H(U)
    sandwich ``bounds`` and its entropy ``achieved_hu`` (else None)."""

    d: JointDistribution
    h_given_x: np.ndarray
    h_cond: float
    rank: int
    nullity: int
    x_det: bool
    member: bool
    boundary: bool
    g0: float
    mech: Mechanism | None
    mech_decodable: bool
    bounds: MechanismBounds | None
    achieved_hu: float | None


def x_is_function_of_y(d: JointDistribution, tol: float = 1e-9) -> bool:
    """True when every column of P(X|Y) is a point mass."""
    k = dist.kernel_x_given_y(d).k
    return bool((k.max(axis=0) >= 1.0 - tol).all())


def build_bound_matrices(
    d: JointDistribution, h_given_x: np.ndarray, h_cond: float
) -> tuple[np.ndarray, np.ndarray]:
    """Equality system (a, b) whose nonnegative solutions are the admissible
    per-symbol conditional entropies a_j = H(U | Y = y_j):
    a[i][j] = P(y_j) - P(y_j | x_i),  b[i] = H(Y|X=x_i) - H(Y|X), where
    ``h_given_x`` holds H(Y|X=x) for every x and ``h_cond`` is H(Y|X)."""
    py = dist.marginal_y(d)
    pyx = dist.kernel_y_given_x(d).k  # [y][x]
    return py[None, :] - pyx.T, h_given_x - h_cond


def feasible_columns(d: JointDistribution) -> np.ndarray:
    """Vertices of the zero-leakage polytope {p >= 0 : P_{X|Y} p = P_X}.

    The normalization row is implied because the kernel columns each sum
    to 1, so any solution automatically has total mass 1.
    """
    k = dist.kernel_x_given_y(d).k
    return enumerate_vertices(k, dist.marginal_x(d))


def _lp_mixture(d: JointDistribution) -> tuple[np.ndarray, np.ndarray, float]:
    """The g0 mixture LP over every vertex of ``d``'s polytope: the vertices
    given weight above WEIGHT_FLOOR, those weights scaled to sum 1, and the
    LP's value sum_v w_v H(v)."""
    verts = feasible_columns(d)
    lp = LinearProgram(dist.entropy_rows(verts), verts.T, dist.marginal_y(d), sense="min")
    out = solve_lp(lp)
    if out.status != "optimal":
        raise InternalError(f"mixture weight LP came back {out.status}")
    support = np.nonzero(out.point > WEIGHT_FLOOR)[0]
    w = out.point[support]
    return verts[support], w / w.sum(), float(out.value)


def _component_mixture(d: JointDistribution, xs: np.ndarray, ys: np.ndarray):
    """(P_k, vertices, weights, value) of the component on rows ``xs`` and
    columns ``ys``: its mass P_k, then ``_lp_mixture`` of its normalised
    sub-joint. Where X and Y are independent on the component (its columns
    of P(X|Y) agree within RANK_TOL, the tolerance at which the vertex
    walk's elimination would find rank 1) its polytope is the simplex on
    ``ys``: the vertices are the unit vectors, the weights are P(Y|k) and
    the value is 0, with no enumeration and no LP. That holds exactly for
    a component of one row, so for every component of X = f(Y), and for
    every component of a common-information joint."""
    sub = d.p[np.ix_(xs, ys)]
    mass = sub.sum()
    p_y = sub.sum(axis=0)
    if np.ptp(sub / p_y, axis=1).max() <= RANK_TOL:
        return mass, np.eye(ys.size), p_y / mass, 0.0
    return (mass, *_lp_mixture(JointDistribution(sub / mass)))


def _couple(parts: list, y_parts: list[np.ndarray], y_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy minimum-entropy coupling of the components' weight vectors
    (Kocaoglu et al., AAAI 2017); returns (p_u, P(Y|U) columns).

    Each step takes every component's largest remaining weight, the lowest
    index on ties, emits an atom of the smallest of them and subtracts it
    from each. The atom's column is sum_k P_k v_k over the vertices v_k
    taken. A remaining weight at or below WEIGHT_FLOOR counts as spent: it
    is set to exactly 0, and the coupling stops once some component has
    nothing left. So every atom outweighs WEIGHT_FLOOR, and the round-off
    by which the weight vectors' sums differ leaves no atom of its own.
    p_u holds the atoms as emitted, not rescaled: their sum misses 1 only
    by that spent round-off. Atoms are ordered by their columns,
    lexicographically, as ``enumerate_vertices`` orders vertices.
    """
    rest = np.zeros((len(parts), max(w.size for _, _, w, _ in parts)))
    for k, (_, _, w, _) in enumerate(parts):
        rest[k, : w.size] = np.where(w > WEIGHT_FLOOR, w, 0.0)
    rows = np.arange(len(parts))
    atoms, picks = [], []
    while True:
        pick = rest.argmax(axis=1)
        top = rest[rows, pick]
        atom = top.min()
        if atom <= WEIGHT_FLOOR:
            break
        left = top - atom
        rest[rows, pick] = np.where(left > WEIGHT_FLOOR, left, 0.0)
        atoms.append(atom)
        picks.append(pick)
    picks = np.array(picks)
    cols = np.zeros((y_size, len(atoms)))
    for k, ((mass, verts, _, _), ys) in enumerate(zip(parts, y_parts)):
        cols[ys] = mass * verts[picks[:, k]].T
    cols = cols / cols.sum(axis=0)[None, :]
    order = np.lexsort(cols[::-1])
    return np.array(atoms)[order], cols[:, order]


def solve_g0(d: JointDistribution) -> tuple[float, Mechanism]:
    """Maximize I(Y;U) over zero-leakage mechanisms; return (value, optimizer).

    Solves min sum_v w_v H(v) over vertex weights w >= 0 with mixture
    constraint V w = P_Y. P_{X|Y} is block-diagonal over the connected
    components of the support of P_XY (its Gacs-Korner common part), so the
    polytope is the product of one polytope per component, each scaled by
    the component's mass P_k, and H(v) = H(P_1..P_K) + sum_k P_k H(v_k).
    A joint of one component solves the LP over all its vertices. Otherwise
    each component is solved alone (``_component_mixture``) and the optima
    are joined by ``_couple``, which any coupling would leave g0-optimal;
    the value is H(Y) - [H(P_1..P_K) + sum_k P_k value_k]. A basic solution
    keeps at most nullity_k + 1 weights per component and the coupling at
    most sum_k |U_k| - K + 1 atoms, so the surviving alphabet has at most
    nullity(P_{X|Y}) + 1 symbols.
    """
    py = dist.marginal_y(d)
    count, x_part, y_part = dist.support_components(d)
    if count == 1:
        verts, p_u, cost = _lp_mixture(d)
        cols = verts.T / verts.T.sum(axis=0)[None, :]
    else:
        xs = [np.nonzero(x_part == k)[0] for k in range(count)]
        ys = [np.nonzero(y_part == k)[0] for k in range(count)]
        parts = [_component_mixture(d, xs[k], ys[k]) for k in range(count)]
        p_u, cols = _couple(parts, ys, d.y_size)
        masses = np.array([mass for mass, *_ in parts])
        values = np.array([value for *_, value in parts])
        cost = dist.entropy(masses) + dist.sum_in_order(masses * values)
    mech = Mechanism(p_u=p_u, p_y_given_u=Kernel(cols))
    value = dist.entropy(py) - cost
    if -1e-12 < value < 0.0:
        value = 0.0
    return value, mech


def theorem1_bounds(
    d: JointDistribution, nullity: int, h_given_x: np.ndarray, h_cond: float
) -> MechanismBounds:
    """LP sandwich on the minimum entropy over zero-leakage optimizers.

    k_lower / k_upper are H(Y|X) plus the min / max of sum_j P(y_j) a_j over
    the bound polytope. The strengthened upper bound caps k_upper at
    log2(nullity + 1), where ``nullity`` is that of P_{X|Y}: the capped LP
    max sum_j P(y_j) a_j subject to that sum <= log2(nullity + 1) - H(Y|X)
    caps its own objective, so its optimum is the min of the two. ``h_given_x``
    and ``h_cond`` are as in ``build_bound_matrices``. The bounds are claimed
    only for members, so only ``analyze`` calls this.
    """
    a_xy, b_xy = build_bound_matrices(d, h_given_x, h_cond)
    py = dist.marginal_y(d)
    log_nullity = float(np.log2(nullity + 1))

    lo = solve_lp(LinearProgram(py, a_xy, b_xy, sense="min"))
    if lo.status != "optimal":
        raise InfeasibleBoundLP(f"lower bound LP came back {lo.status}")
    k_lower = h_cond + lo.value

    hi = solve_lp(LinearProgram(py, a_xy, b_xy, sense="max"))
    if hi.status == "infeasible":
        raise InfeasibleBoundLP("upper bound LP infeasible despite membership")
    k_upper = float("inf") if hi.status == "unbounded" else h_cond + hi.value

    rank_a, _ = rank_and_nullity(a_xy)
    unique = bool(rank_a == d.y_size and not h_cond <= TAU_ENT)  # Y is not a function of X
    return MechanismBounds(
        k_lower=float(k_lower),
        k_upper=float(k_upper),
        k_upper_strengthened=min(float(k_upper), log_nullity),
        log_nullity_bound=log_nullity,
        unique=unique,
    )


def mechanism_joint(d: JointDistribution, mech: Mechanism) -> np.ndarray:
    """Exact joint tensor P(x, y, u) = P_XY(x,y) P(u|y)."""
    p_u_given_y = conditional_u_given_y(d, mech)
    return d.p[:, :, None] * p_u_given_y.T[None, :, :]


def conditional_u_given_y(d: JointDistribution, mech: Mechanism) -> np.ndarray:
    """P(u | y) as a [u][y] array, from Bayes on the mechanism columns."""
    py = dist.marginal_y(d)
    joint_uy = mech.p_u[:, None] * mech.p_y_given_u.k.T  # [u][y]
    return joint_uy / py[None, :]


def build_decode_table(d: JointDistribution, mech: Mechanism) -> Mechanism:
    """Fill decode(x, u) with the unique y compatible with both.

    Verifies H(Y | X, U) <= 1e-7 bits on the exact joint. Raises
    NotDecodable for the first (x, u) pair, in (x, u) order, that leaves
    two candidate y symbols (possible when the membership equality fails).
    The table is filled in (x, u) order.
    """
    joint = mechanism_joint(d, mech)
    live = joint > 1e-12  # [x][y][u]
    n_live = live.sum(axis=1)
    ambiguous = np.argwhere(n_live > 1)
    if len(ambiguous):
        x, u = ambiguous[0].tolist()
        ys = np.nonzero(live[x, :, u])[0].tolist()
        raise NotDecodable(f"pair (x={x}, u={u}) is consistent with y in {ys}")
    xs, us = np.nonzero(n_live)
    ys = live.argmax(axis=1)[xs, us]
    table = dict(zip(zip(xs.tolist(), us.tolist()), ys.tolist()))
    h_y_given_xu = _entropy_y_given_xu(joint)
    if h_y_given_xu > TAU_ENT:
        raise NotDecodable(f"H(Y|X,U) = {h_y_given_xu:.3g} bits exceeds tolerance")
    return replace(mech, decode=table)


def _entropy_y_given_xu(joint: np.ndarray) -> float:
    """sum over (x, u) with P(x, u) > 0 of P(x, u) H(Y | x, u), added in (x, u) order."""
    p_xu = joint.sum(axis=1)
    live = p_xu > 0.0
    w = p_xu[live]
    return dist.sum_in_order(w * dist.entropy_rows(joint.transpose(0, 2, 1)[live] / w[:, None]))


def analyze(d: JointDistribution) -> Analysis:
    """Rank and nullity of P_{X|Y}, whether X = f(Y), the funnel optimum g0
    and its optimizer (solved once), membership, then for a member the
    optimizer's entropy bounds and, when one exists, its decode table.
    Commands and the length report read these from the Analysis instead of
    computing them again.

    A joint is a member when g0 equals H(Y|X) within TAU_ENT; X = f(Y)
    is a known sufficient condition, so there g0 is reported as H(Y|X).
    Gaps within a decade of the tolerance either side are flagged
    ``boundary`` instead of being silently classified."""
    h_given_x = dist.conditional_entropies(d)
    h_cond = dist.sum_in_order(dist.marginal_x(d) * h_given_x)
    rank, nullity = rank_and_nullity(dist.kernel_x_given_y(d).k)
    x_det = x_is_function_of_y(d)
    g0, mech = solve_g0(d)
    if x_det:
        g0 = h_cond
    gap = abs(g0 - h_cond)
    member = gap <= TAU_ENT
    bounds = achieved = None
    decodable = False
    if member:
        achieved = dist.entropy(mech.p_u)
        bounds = theorem1_bounds(d, nullity, h_given_x, h_cond)
        try:
            mech = build_decode_table(d, mech)
            decodable = True
        except NotDecodable:
            pass
    else:
        mech = None
    return Analysis(
        d, h_given_x, h_cond, rank, nullity, x_det, member,
        TAU_ENT / 10.0 <= gap <= 10.0 * TAU_ENT, g0, mech, decodable, bounds, achieved,
    )


def information_identity_terms(d: JointDistribution, mech: Mechanism) -> dict[str, float]:
    """The five terms of I(U;Y) = I(X;U) + H(Y|X) - I(X;U|Y) - H(Y|X,U),
    each computed from the exact (x, y, u) joint."""
    joint = mechanism_joint(d, mech)
    p_xu = joint.sum(axis=1)
    p_yu = joint.sum(axis=0)
    i_xu_given_y = 0.0
    for y in range(d.y_size):
        slab = joint[:, y, :]
        m = slab.sum()
        if m > 0.0:
            i_xu_given_y += m * dist.mutual_information(JointDistribution(slab / m))
    return {
        "i_uy": dist.mutual_information(JointDistribution(p_yu)),
        "i_xu": dist.mutual_information(JointDistribution(p_xu)),
        "h_y_given_x": dist.conditional_entropy_y_given_x(d),
        "i_xu_given_y": i_xu_given_y,
        "h_y_given_xu": _entropy_y_given_xu(joint),
    }


def information_identity_residual(d: JointDistribution, mech: Mechanism) -> float:
    t = information_identity_terms(d, mech)
    return abs(
        t["i_uy"] - t["i_xu"] - t["h_y_given_x"] + t["i_xu_given_y"] + t["h_y_given_xu"]
    )
