"""Zero-leakage disclosure mechanisms for a joint (X, Y).

A mechanism is a variable U produced from Y alone (Markov X - Y - U) whose
encoded view reveals nothing about X: every conditional column P(Y|U=u)
must satisfy P_{X|Y} @ P(Y|u) = P_X. The set of such columns is a polytope;
an entropy-maximizing disclosure is a mixture of its vertices found by a
linear program over vertex weights. The polytope is a product of one
polytope per connected component of the support of P_XY (the Gacs-Korner
common part), so ``solve_g0`` solves each component alone, with no LP at
all where X and Y are independent on it, and joins the components' optima
by a greedy minimum-entropy coupling on per-component heaps, which keeps
the optimum and shortens the code. This module synthesizes that
optimizer, tests whether the
synthesis is information-lossless (the funnel value equals H(Y|X)), and
computes LP sandwich bounds on the minimum achievable H(U). Every
command starts from ``analyze``, which takes only H(Y|X=x), H(Y|X),
whether X = f(Y) and the exact test ``excludes_two_part``; the synthesis,
the membership verdict, the kernel's rank and nullity and the H(U) bounds
are computed on their first read from the ``Analysis`` and kept there.
``analyze`` and ``mechanism`` print them all; ``code`` reads the test
first, so on a full-support joint that no two-part code can serve it
walks no vertex and solves no LP.
The vertex entropies and the decode table are taken as array operations
over all vertices or (x, u) pairs at once; each figure equals that of a
loop over them with the one-row ``dist.entropy``, bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import dist
from .dist import JointDistribution
from .errors import Infeasible, InfeasibleBoundLP, InternalError, NotDecodable
from .linalg import RANK_TOL, TAU_LP, LinearProgram, enumerate_vertices, rank_and_nullity, solve_lp

TAU_ENT = 1e-7
WEIGHT_FLOOR = 1e-12  # a vertex weight at or below this counts as zero
TAU_DET = 1e-9  # a P(X|Y) column within this of a point mass counts as one
# a P(X|Y) column farther than this from P_X (max-abs over x) differs from
# it; closer, the LP path decides (see ``excludes_two_part``)
TAU_COLUMN = 1e-6


@dataclass(frozen=True)
class Mechanism:
    """A zero-leakage disclosure variable U.

    ``p_y_given_u`` holds one polytope point per column; ``decode`` is the
    (|X|, |U|) int array of the unique y each positive-mass (x, u) pair
    implies, or -1 for none (filled by build_decode_table, None until then).
    """

    p_u: np.ndarray
    p_y_given_u: np.ndarray  # [y][u]
    decode: np.ndarray | None = None

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
    """What the reports and codes of one joint are built from.

    Taken up front: H(Y|X=x) for every x (``h_given_x``), H(Y|X)
    (``h_cond``), whether X = f(Y) (``x_det``) and ``two_part_excluded``,
    the exact test ``excludes_two_part``. The rest is computed on first
    read and cached. The g0 synthesis comes from one ``solve_g0``: ``g0``,
    ``member``, ``boundary``, a member's optimizer ``mech`` (with a decode
    table when ``mech_decodable``) and its entropy ``achieved_hu`` (else
    None). The rank and nullity of P_{X|Y} and a member's H(U) sandwich
    ``bounds`` come from their own solves. So a caller that never reads a
    figure, such as ``code`` on an excluded joint, never pays for it."""

    d: JointDistribution
    h_given_x: np.ndarray
    h_cond: float
    x_det: bool
    two_part_excluded: bool

    @cached_property
    def _g0_solve(self) -> tuple[float, Mechanism | None]:
        """``solve_g0``'s (value, optimizer). X = f(Y) is a known sufficient
        condition for membership, so there g0 is reported as H(Y|X). A
        vertex walk or mixture LP that finds P_Y outside the polytope at
        TAU_LP, which happens only where P(X|Y) is near-singular, gives
        (nan, None): no verdict of the LP, see ``boundary_note``."""
        try:
            g0, mech = solve_g0(self.d)
        except Infeasible:
            return float("nan"), None
        return (self.h_cond if self.x_det else g0), mech

    @property
    def g0(self) -> float:
        return self._g0_solve[0]

    @cached_property
    def member(self) -> bool:
        """g0 equals H(Y|X) within TAU_ENT (false when g0 is nan)."""
        return abs(self.g0 - self.h_cond) <= TAU_ENT

    @cached_property
    def boundary(self) -> bool:
        """The verdict rests on a tolerance: the gap |g0 - H(Y|X)| lies within
        a decade of TAU_ENT either side, or an LP failed at TAU_LP
        (``boundary_note``). For a member this reads ``bounds``."""
        gap = abs(self.g0 - self.h_cond)
        return TAU_ENT / 10.0 <= gap <= 10.0 * TAU_ENT or self.boundary_note is not None

    @property
    def boundary_note(self) -> str | None:
        """Which LP failed at TAU_LP, and the verdict given, or None. Both
        failures arise where P(X|Y) is near-singular, as on near-independent
        joints."""
        if np.isnan(self.g0):
            return f"g0 vertex walk or mixture LP infeasible at TAU_LP = {TAU_LP:g}; not a member"
        if self.member and self.bounds is None:
            return f"H(U) bound LPs infeasible at TAU_LP = {TAU_LP:g}; a member at TAU_ENT = {TAU_ENT:g}"
        return None

    @cached_property
    def mech(self) -> Mechanism | None:
        """A member's g0 optimizer, with its decode table when it has one;
        None for a non-member."""
        if not self.member:
            return None
        mech = self._g0_solve[1]
        try:
            return build_decode_table(self.d, mech)
        except NotDecodable:
            return mech

    @property
    def mech_decodable(self) -> bool:
        return self.mech is not None and self.mech.decode is not None

    @cached_property
    def achieved_hu(self) -> float | None:
        """H(U) of a member's optimizer, None for a non-member."""
        return None if self.mech is None else dist.entropy(self.mech.p_u)

    @cached_property
    def rank(self) -> int:
        """Rank of P_{X|Y}, taken on first read."""
        return rank_and_nullity(dist.kernel_x_given_y(self.d))[0]

    @property
    def nullity(self) -> int:
        # P_{X|Y} is |X| x |Y|, so this is rank_and_nullity's nullity
        return self.d.y_size - self.rank

    @cached_property
    def bounds(self) -> MechanismBounds | None:
        """``theorem1_bounds`` for a member, None (no LP solved) otherwise,
        and None for a member whose bound LPs fail (``boundary_note``)."""
        if not self.member:
            return None
        try:
            return theorem1_bounds(self.d, self.nullity, self.h_given_x, self.h_cond)
        except InfeasibleBoundLP:
            return None


def x_is_function_of_y(d: JointDistribution) -> bool:
    """True when every column of P(X|Y) is a point mass (within TAU_DET)."""
    k = dist.kernel_x_given_y(d)
    return bool((k.max(axis=0) >= 1.0 - TAU_DET).all())


def excludes_two_part(d: JointDistribution) -> bool:
    """True when no two-part code can serve ``d``: ``d.p`` has no zero entry
    and some y with P_Y(y) > WEIGHT_FLOOR has a P(X|Y) column farther than
    TAU_COLUMN from P_X, in max-abs over x.

    Proof. A two-part code needs a decodable U: U independent of X, X - Y - U,
    and at most one live y for every (x, u). On a full-support joint every
    (x, y) is live, so an atom u whose column P(Y|u) puts mass on two y's
    leaves every pair (x, u) two candidates; a decodable U has only unit
    columns e_y. The column e_y lies in the zero-leakage polytope
    {p >= 0 : P_{X|Y} p = P_X} only when column y of P(X|Y) equals P_X. So
    a y whose column does not equal P_X is carried only by atoms with two
    or more y's, and ``build_decode_table`` raises NotDecodable on such an
    atom. Closer to P_X than TAU_COLUMN, and on joints with a zero entry,
    the LP path decides: its tolerances (RANK_TOL in the vertex walk) may
    read a column near P_X as equal to it.
    """
    if not d.p.all():
        return False
    heavy = dist.marginal_y(d) > WEIGHT_FLOOR
    k = dist.kernel_x_given_y(d)[:, heavy]
    return bool((np.abs(k - dist.marginal_x(d)[:, None]) > TAU_COLUMN).any())


def build_bound_matrices(
    d: JointDistribution, h_given_x: np.ndarray, h_cond: float
) -> tuple[np.ndarray, np.ndarray]:
    """Equality system (a, b) whose nonnegative solutions are the admissible
    per-symbol conditional entropies a_j = H(U | Y = y_j):
    a[i][j] = P(y_j) - P(y_j | x_i),  b[i] = H(Y|X=x_i) - H(Y|X), where
    ``h_given_x`` holds H(Y|X=x) for every x and ``h_cond`` is H(Y|X)."""
    py = dist.marginal_y(d)
    return py[None, :] - d.p / dist.marginal_x(d)[:, None], h_given_x - h_cond


def feasible_columns(d: JointDistribution) -> np.ndarray:
    """Vertices of the zero-leakage polytope {p >= 0 : P_{X|Y} p = P_X}.

    The normalization row is implied because the kernel columns each sum
    to 1, so any solution automatically has total mass 1.
    """
    k = dist.kernel_x_given_y(d)
    return enumerate_vertices(k, dist.marginal_x(d))


def _lp_mixture(d: JointDistribution) -> tuple[np.ndarray, np.ndarray, float]:
    """The g0 mixture LP over every vertex of ``d``'s polytope: the vertices
    given weight above WEIGHT_FLOOR, those weights scaled to sum 1, and the
    LP's value sum_v w_v H(v)."""
    verts = feasible_columns(d)
    lp = LinearProgram(dist.entropy_rows(verts), verts.T, dist.marginal_y(d), sense="min")
    out = solve_lp(lp)
    if out.status == "infeasible":
        raise Infeasible(f"mixture weight LP: P_Y is not a mixture of the vertices at TAU_LP = {TAU_LP:g}")
    if out.status != "optimal":
        raise InternalError(f"mixture weight LP came back {out.status}")
    support = np.nonzero(out.point > WEIGHT_FLOOR)[0]
    w = out.point[support]
    return verts[support], w / w.sum(), float(out.value)


def _component_mixture(d: JointDistribution, xs: np.ndarray, ys: np.ndarray):
    """(ys, P_k, vertices, weights, value) of the component on rows ``xs``
    and columns ``ys``: its mass P_k, then ``_lp_mixture`` of its normalised
    sub-joint. Where X and Y are independent on the component its polytope
    is the simplex on ``ys``: the vertices are the unit vectors (None here),
    the weights are P(Y|k) and the value is 0, with no enumeration and no
    LP. That holds exactly on one row, as in every component of X = f(Y),
    whose weights are then read off the row. On more rows it is taken to
    hold where the columns of P(X|Y) agree within RANK_TOL, the tolerance at
    which the vertex walk's elimination would find rank 1, as they do in
    every component of a common-information joint."""
    if xs.size == 1:
        row = d.p[xs[0], ys]
        mass = row.sum()
        return ys, mass, None, row / mass, 0.0
    sub = d.p[np.ix_(xs, ys)]
    mass = sub.sum()
    p_y = sub.sum(axis=0)
    if np.ptp(sub / p_y, axis=1).max() <= RANK_TOL:
        return ys, mass, None, p_y / mass, 0.0
    return (ys, mass, *_lp_mixture(JointDistribution(sub / mass)))


def _couple(parts: list, y_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy minimum-entropy coupling (Kocaoglu et al., AAAI 2017) of the
    weight vectors of ``_component_mixture``'s ``parts``; returns (p_u,
    P(Y|U) columns).

    Each component's weights above WEIGHT_FLOOR go on a heap of (-weight,
    key), keyed by y on a simplex and by vertex row otherwise. Each step
    takes every heap's top (the lowest key on ties), emits an atom of the
    smallest and subtracts it from each; a weight left at or below
    WEIGHT_FLOOR counts as spent and leaves its heap, and the coupling stops
    once a heap is empty. So every atom outweighs WEIGHT_FLOOR, and the
    round-off by which the weight vectors' sums differ leaves no atom of
    its own: p_u, the atoms as emitted, misses sum 1 only by it. The atom's
    column is sum_k P_k v_k over the vertices v_k taken, so a simplex
    component puts P_k on its y. Atoms are ordered by their columns,
    lexicographically, as ``enumerate_vertices`` orders vertices.
    """
    heaps = []
    for ys, _, verts, w, _ in parts:
        keys = ys.tolist() if verts is None else range(w.size)
        heaps.append([(-v, key) for key, v in zip(keys, w.tolist()) if v > WEIGHT_FLOOR])
        heapq.heapify(heaps[-1])
    atoms, picks = [], []
    while all(heaps):
        tops = [heap[0] for heap in heaps]
        atom = -max(tops)[0]
        for heap, (top, key) in zip(heaps, tops):
            left = -top - atom
            if left > WEIGHT_FLOOR:
                heapq.heapreplace(heap, (-left, key))
            else:
                heapq.heappop(heap)
        atoms.append(atom)
        picks.append([key for _, key in tops])
    picks = np.array(picks)
    n = np.arange(len(atoms))
    cols = np.zeros((y_size, n.size))
    simplex = [k for k, part in enumerate(parts) if part[2] is None]
    cols[picks[:, simplex], n[:, None]] = [parts[k][1] for k in simplex]
    for (ys, mass, verts, _, _), pick in zip(parts, picks.T):
        if verts is not None:
            cols[ys] = mass * verts[pick].T
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
    are joined by ``_couple``'s greedy coupling on per-component heaps,
    though any coupling would leave them g0-optimal; the value is
    H(Y) - [H(P_1..P_K) + sum_k P_k value_k]. A basic solution
    keeps at most nullity_k + 1 weights per component and the coupling at
    most sum_k |U_k| - K + 1 atoms, so the surviving alphabet has at most
    nullity(P_{X|Y}) + 1 symbols. Raises Infeasible where the vertex walk
    or the mixture LP finds P_Y outside the polytope at TAU_LP, which a
    near-singular P(X|Y) can cause.
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
        p_u, cols = _couple(parts, d.y_size)
        masses = np.array([mass for _, mass, *_ in parts])
        values = np.array([value for *_, value in parts])
        cost = dist.entropy(masses) + dist.sum_in_order(masses * values)
    mech = Mechanism(p_u=p_u, p_y_given_u=cols)
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
    only for members, so only ``Analysis.bounds`` calls this, on its first
    read.
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
    joint_uy = mech.p_u[:, None] * mech.p_y_given_u.T  # [u][y]
    return joint_uy / py[None, :]


def build_decode_table(d: JointDistribution, mech: Mechanism) -> Mechanism:
    """Fill decode[x, u] with the unique y compatible with both, or -1.

    Raises NotDecodable for the first (x, u) pair, in (x, u) order, that
    leaves two candidate y symbols (possible when the membership equality
    fails), then for the first y that no live (x, u) carries (encode has no
    u to draw for it). Otherwise H(Y | X, U) = 0 exactly on the exact joint:
    each live (x, u) has one positive entry a, and a / a = 1.
    """
    joint = mechanism_joint(d, mech)
    live = joint > 0.0  # [x][y][u], as the audit counts a triple
    n_live = live.sum(axis=1)
    ambiguous = np.argwhere(n_live > 1)
    if len(ambiguous):
        x, u = ambiguous[0].tolist()
        ys = np.nonzero(live[x, :, u])[0].tolist()
        raise NotDecodable(f"pair (x={x}, u={u}) is consistent with y in {ys}")
    carried = live.any(axis=(0, 2))
    if not carried.all():
        raise NotDecodable(f"no live (x, u) pair carries y = {carried.argmin()}")
    return replace(mech, decode=np.where(n_live > 0, live.argmax(axis=1), -1))


def analyze(d: JointDistribution) -> Analysis:
    """H(Y|X=x) for every x, H(Y|X), whether X = f(Y) and
    ``excludes_two_part``; the g0 synthesis and membership, the kernel's
    rank and the H(U) bounds wait in the Analysis until first read.
    Commands and the length report read these from the Analysis instead of
    computing them again.

    A joint is a member when g0 equals H(Y|X) within TAU_ENT; X = f(Y)
    is a known sufficient condition, so there g0 is reported as H(Y|X).
    Gaps within a decade of the tolerance either side, and LPs that fail
    at their tolerance, are flagged ``boundary`` instead of being silently
    classified."""
    h_given_x = dist.conditional_entropies(d)
    h_cond = dist.sum_in_order(dist.marginal_x(d) * h_given_x)
    return Analysis(d, h_given_x, h_cond, x_is_function_of_y(d), excludes_two_part(d))
