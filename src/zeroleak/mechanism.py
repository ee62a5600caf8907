"""Zero-leakage disclosure mechanisms for a joint (X, Y).

A mechanism is a variable U produced from Y alone (Markov X - Y - U) whose
encoded view reveals nothing about X: every conditional column P(Y|U=u)
must satisfy P_{X|Y} @ P(Y|u) = P_X. The set of such columns is a polytope;
an entropy-maximizing disclosure is a mixture of its vertices found by a
linear program over vertex weights. This module synthesizes that optimizer,
tests whether the synthesis is information-lossless (the funnel value equals
H(Y|X)), and computes LP sandwich bounds on the minimum achievable H(U).
``analyze`` runs these steps once for a joint; every command starts there.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import dist
from .dist import JointDistribution, Kernel
from .errors import InfeasibleBoundLP, InternalError, NotDecodable
from .linalg import LinearProgram, enumerate_vertices, rank_and_nullity, solve_lp

TAU_ENT = 1e-7


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
    k_lower: float
    k_upper: float
    k_upper_strengthened: float
    log_nullity_bound: float
    unique: bool


@dataclass(frozen=True)
class Analysis:
    """What the reports and codes of one joint are built from: the rank and
    nullity of P_{X|Y}, whether X = f(Y), membership, and for a member the g0
    optimizer ``mech`` (with a decode table when ``mech_decodable``), its
    H(U) sandwich ``bounds`` and its entropy ``achieved_hu`` (else None)."""

    d: JointDistribution
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


def y_is_function_of_x(d: JointDistribution, tol: float = TAU_ENT) -> bool:
    return dist.conditional_entropy_y_given_x(d) <= tol


def build_bound_matrices(d: JointDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Equality system (a, b) whose nonnegative solutions are the admissible
    per-symbol conditional entropies a_j = H(U | Y = y_j):
    a[i][j] = P(y_j) - P(y_j | x_i),  b[i] = H(Y|X=x_i) - H(Y|X)."""
    py = dist.marginal_y(d)
    pyx = dist.kernel_y_given_x(d).k  # [y][x]
    h_cond = dist.conditional_entropy_y_given_x(d)
    a = py[None, :] - pyx.T
    b = np.array(
        [dist.conditional_entropy_per_x(d, x) - h_cond for x in range(d.x_size)]
    )
    return a, b


def feasible_columns(d: JointDistribution, tol_lp: float = 1e-9) -> np.ndarray:
    """Vertices of the zero-leakage polytope {p >= 0 : P_{X|Y} p = P_X}.

    The normalization row is implied because the kernel columns each sum
    to 1, so any solution automatically has total mass 1.
    """
    k = dist.kernel_x_given_y(d).k
    return enumerate_vertices(k, dist.marginal_x(d), tol=tol_lp)


def solve_g0(d: JointDistribution, tol_lp: float = 1e-9) -> tuple[float, Mechanism]:
    """Maximize I(Y;U) over zero-leakage mechanisms; return (value, optimizer).

    Solves min sum_v w_v H(v) over vertex weights w >= 0 with mixture
    constraint V w = P_Y; the simplex returns a basic solution, so the
    surviving alphabet has at most nullity(P_{X|Y}) + 1 symbols.
    """
    py = dist.marginal_y(d)
    verts = feasible_columns(d, tol_lp)
    ent = np.array([dist.entropy(v) for v in verts])
    out = solve_lp(LinearProgram(ent, verts.T, py, sense="min"), tol=tol_lp)
    if out.status != "optimal":
        raise InternalError(f"mixture weight LP came back {out.status}")
    w = out.point
    support = np.nonzero(w > 1e-12)[0]
    p_u = w[support]
    p_u = p_u / p_u.sum()
    cols = verts[support].T
    cols = cols / cols.sum(axis=0)[None, :]
    mech = Mechanism(p_u=p_u, p_y_given_u=Kernel(cols))
    value = dist.entropy(py) - float(out.value)
    if -1e-12 < value < 0.0:
        value = 0.0
    return value, mech


def theorem1_bounds(
    d: JointDistribution, nullity: int, tol_ent: float = TAU_ENT, tol_lp: float = 1e-9
) -> MechanismBounds:
    """LP sandwich on the minimum entropy over zero-leakage optimizers.

    k_lower / k_upper are H(Y|X) plus the min / max of sum_j P(y_j) a_j over
    the bound polytope; the strengthened upper bound caps that sum at
    log2(nullity + 1) - H(Y|X), where ``nullity`` is that of P_{X|Y}. The
    bounds are claimed only for members, so only ``analyze`` calls this.
    """
    a_xy, b_xy = build_bound_matrices(d)
    py = dist.marginal_y(d)
    h_cond = dist.conditional_entropy_y_given_x(d)
    log_nullity = float(np.log2(nullity + 1))

    lo = solve_lp(LinearProgram(py, a_xy, b_xy, sense="min"), tol=tol_lp)
    if lo.status != "optimal":
        raise InfeasibleBoundLP(f"lower bound LP came back {lo.status}")
    k_lower = h_cond + lo.value

    hi = solve_lp(LinearProgram(py, a_xy, b_xy, sense="max"), tol=tol_lp)
    if hi.status == "infeasible":
        raise InfeasibleBoundLP("upper bound LP infeasible despite membership")
    k_upper = float("inf") if hi.status == "unbounded" else h_cond + hi.value

    cap = log_nullity - h_cond
    hi_s = solve_lp(
        LinearProgram(py, a_xy, b_xy, extra_ineq=(py, cap), sense="max"), tol=tol_lp
    )
    if hi_s.status == "optimal":
        k_upper_s = h_cond + hi_s.value
    else:
        # Exact arithmetic guarantees a feasible point; floating point can
        # miss it, so fall back to the weaker of the two valid caps.
        warnings.warn(
            "strengthened bound LP infeasible in floating point; "
            "falling back to min(k_upper, log2(nullity + 1))",
            RuntimeWarning,
        )
        k_upper_s = min(k_upper, log_nullity)

    rank_a, _ = rank_and_nullity(a_xy)
    unique = bool(rank_a == d.y_size and not y_is_function_of_x(d, tol_ent))
    return MechanismBounds(
        k_lower=float(k_lower),
        k_upper=float(k_upper),
        k_upper_strengthened=float(k_upper_s),
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
    NotDecodable when some positive-mass (x, u) pair leaves two candidate
    y symbols (possible when the membership equality fails).
    """
    joint = mechanism_joint(d, mech)
    table: dict[tuple[int, int], int] = {}
    for x in range(d.x_size):
        for u in range(mech.u_size):
            mass = joint[x, :, u]
            ys = np.nonzero(mass > 1e-12)[0]
            if ys.size == 0:
                continue
            if ys.size > 1:
                raise NotDecodable(
                    f"pair (x={x}, u={u}) is consistent with y in {ys.tolist()}"
                )
            table[(x, u)] = int(ys[0])
    h_y_given_xu = _entropy_y_given_xu(joint)
    if h_y_given_xu > TAU_ENT:
        raise NotDecodable(f"H(Y|X,U) = {h_y_given_xu:.3g} bits exceeds tolerance")
    return replace(mech, decode=table)


def _entropy_y_given_xu(joint: np.ndarray) -> float:
    p_xu = joint.sum(axis=1)
    h = 0.0
    for x in range(joint.shape[0]):
        for u in range(joint.shape[2]):
            if p_xu[x, u] > 0.0:
                h += p_xu[x, u] * dist.entropy(joint[x, :, u] / p_xu[x, u])
    return h


def analyze(d: JointDistribution, tol_ent: float = TAU_ENT, tol_lp: float = 1e-9) -> Analysis:
    """Rank and nullity of P_{X|Y}, whether X = f(Y), the funnel optimum g0
    and its optimizer (solved once), membership, then for a member the
    optimizer's entropy bounds and, when one exists, its decode table.
    Commands and the length report read these from the Analysis instead of
    computing them again.

    A joint is a member when g0 equals H(Y|X) within ``tol_ent``; X = f(Y)
    is a known sufficient condition, so there g0 is reported as H(Y|X).
    Gaps within a decade of the tolerance either side are flagged
    ``boundary`` instead of being silently classified."""
    rank, nullity = rank_and_nullity(dist.kernel_x_given_y(d).k)
    x_det = x_is_function_of_y(d)
    h_cond = dist.conditional_entropy_y_given_x(d)
    g0, mech = solve_g0(d, tol_lp)
    if x_det:
        g0 = h_cond
    gap = abs(g0 - h_cond)
    member = gap <= tol_ent
    bounds = achieved = None
    decodable = False
    if member:
        achieved = dist.entropy(mech.p_u)
        bounds = theorem1_bounds(d, nullity, tol_ent, tol_lp)
        try:
            mech = build_decode_table(d, mech)
            decodable = True
        except NotDecodable:
            pass
    else:
        mech = None
    return Analysis(
        d, rank, nullity, x_det, member, tol_ent / 10.0 <= gap <= 10.0 * tol_ent,
        g0, mech, decodable, bounds, achieved,
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
