"""Rank/nullity, the simplex solver, and basic-feasible-solution enumeration."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import bound_matrices, random_small_y_pair

from zeroleak import dist, families, linalg
from zeroleak import mechanism as mm
from zeroleak.errors import Infeasible, NumericalFailure
from zeroleak.linalg import (
    TAU_LP,
    LinearProgram,
    _rref,
    enumerate_vertices,
    rank_and_nullity,
    solve_lp,
)

EX1_KERNEL = np.array([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]], dtype=float)
EX1_PY = np.array([1 / 8, 2 / 8, 3 / 8, 1 / 8, 1 / 16, 1 / 16])
ROUND_OFF_JOINT = np.array([
    [0.4775918702971727, 0.32600148648573934, 0],
    [0.03272398568080093, 0, 0.02233720596843733],
    [0.06325205534542142, 0, 0.04317549218971223],
    [0.02075242030447381, 0, 0.01416548372824208],
])


def test_rank_example1_kernel():
    assert rank_and_nullity(EX1_KERNEL) == (2, 4)


def test_rank_identity():
    assert rank_and_nullity(np.eye(3)) == (3, 0)


def test_rank_one_repeated_columns():
    m = np.tile(np.array([[0.3], [0.7]]), (1, 5))
    assert rank_and_nullity(m) == (1, 4)


def test_rank_agrees_with_transpose():
    rng = np.random.default_rng(5)
    for _ in range(30):
        r = int(rng.integers(1, 4))
        m = rng.normal(size=(int(rng.integers(1, 6)), r)) @ rng.normal(size=(r, int(rng.integers(1, 6))))
        assert rank_and_nullity(m)[0] == rank_and_nullity(m.T)[0]


def test_lp_single_variable():
    out = solve_lp(LinearProgram(np.array([1.0]), np.array([[1.0]]), np.array([1.0])))
    assert out.status == "optimal"
    assert out.value == pytest.approx(1.0, abs=1e-9)


def test_lp_objective_parallel_to_constraint():
    lp = LinearProgram(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), np.array([1.0]))
    out = solve_lp(lp)
    assert out.status == "optimal"
    assert out.value == pytest.approx(1.0, abs=1e-9)
    assert np.all(out.point >= -1e-12)


def test_lp_infeasible():
    lp = LinearProgram(np.array([1.0]), np.array([[1.0]]), np.array([-1.0]))
    assert solve_lp(lp).status == "infeasible"


def test_lp_unbounded():
    lp = LinearProgram(np.array([1.0]), np.array([[0.0]]), np.array([0.0]), sense="max")
    out = solve_lp(lp)
    assert out.status == "unbounded"
    assert out.value == float("inf")


def test_example1_bound_system_is_feasible():
    d = dist.from_conditional(EX1_KERNEL, EX1_PY)
    a_xy, b_xy = bound_matrices(d)
    py = dist.marginal_y(d)
    out = solve_lp(LinearProgram(py, a_xy, b_xy, sense="max"))
    assert out.status != "infeasible"
    lo = solve_lp(LinearProgram(py, a_xy, b_xy, sense="min"))
    assert lo.status == "optimal" and lo.value >= -1e-12


def test_vertices_of_standard_simplex():
    v = enumerate_vertices(np.ones((1, 3)), np.array([1.0]))
    assert v.shape == (3, 3)
    rows = {tuple(np.round(r, 12)) for r in v}
    assert rows == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}


def test_vertices_example1_polytope():
    v = enumerate_vertices(EX1_KERNEL, np.array([0.75, 0.25]))
    assert len(v) == 9
    as_set = {tuple(np.round(row, 10)) for row in v}
    assert tuple(np.round([0.75, 0, 0, 0.25, 0, 0], 10)) in as_set
    assert tuple(np.round([0, 0.75, 0, 0.25, 0, 0], 10)) in as_set
    rank, _ = rank_and_nullity(EX1_KERNEL)
    for row in v:
        assert np.count_nonzero(row > 1e-10) <= rank


def test_vertices_inconsistent_system():
    with pytest.raises(Infeasible):
        enumerate_vertices(np.array([[1.0], [1.0]]), np.array([2.0, 0.0]))


def test_vertices_deterministic_order():
    a = enumerate_vertices(EX1_KERNEL, np.array([0.75, 0.25]))
    b = enumerate_vertices(EX1_KERNEL, np.array([0.75, 0.25]))
    assert np.array_equal(a, b)


def _random_bounded_polytope(rng):
    """A nonempty bounded feasible region: a sliced probability simplex."""
    n = int(rng.integers(2, 7))
    p0 = rng.dirichlet(np.ones(n))
    r = rng.normal(size=n)
    a = np.vstack([np.ones(n), r])
    b = np.array([1.0, float(r @ p0)])
    return a, b


def test_lp_value_matches_vertex_scan():
    rng = np.random.default_rng(17)
    for _ in range(40):
        a, b = _random_bounded_polytope(rng)
        c = rng.normal(size=a.shape[1])
        verts = enumerate_vertices(a, b)
        for sense, pick in (("min", min), ("max", max)):
            out = solve_lp(LinearProgram(c, a, b, sense=sense))
            assert out.status == "optimal"
            scan = pick(float(c @ v) for v in verts)
            assert out.value == pytest.approx(scan, abs=1e-8)


def test_vertex_support_bounded_by_rank():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a, b = _random_bounded_polytope(rng)
        rank, _ = rank_and_nullity(a)
        for v in enumerate_vertices(a, b):
            assert np.count_nonzero(v > 1e-9) <= rank


def test_lp_feasibility_residuals():
    rng = np.random.default_rng(29)
    for _ in range(20):
        a, b = _random_bounded_polytope(rng)
        c = rng.normal(size=a.shape[1])
        out = solve_lp(LinearProgram(c, a, b, sense="min"))
        assert out.status == "optimal"
        assert np.abs(a @ out.point - b).max() <= 1e-9 * (1 + np.abs(b).max())
        assert out.point.min() >= -1e-9


def test_solvers_leave_their_inputs_unchanged():
    # the simplex and the walk update their own tableaux in place; negative
    # right-hand sides make solve_lp flip rows and the walk run phase 1
    rng = np.random.default_rng(31)
    a = rng.integers(-3, 4, size=(3, 6)).astype(float)
    b = a @ rng.dirichlet(np.ones(6))
    b[0] = -abs(b[0]) - 0.5
    a[0] = -np.abs(a[0]) - 1.0
    c = rng.normal(size=6)
    arrays = [c, a, b]
    before = [x.copy() for x in arrays]
    for sense in ("min", "max"):
        solve_lp(LinearProgram(c, a, b, sense=sense))
    assert all(np.array_equal(x, y) for x, y in zip(arrays, before))

    a, b = _phase1_example()
    before = a.copy(), b.copy()
    enumerate_vertices(a, b)
    assert np.array_equal(a, before[0]) and np.array_equal(b, before[1])


# ---------------------------------------------------------------------------
# the column-subset scan, kept as the oracle for the pivoting enumerator

SCAN_RANK_TOL = 1e-10


def _scan_independent_rows(a, b, tol):
    aug = np.hstack([a, b[:, None]]).astype(float)
    scale = max(np.abs(aug).max(), 1.0)
    rows, cols = a.shape
    rank = 0
    work = aug.copy()
    for c in range(cols):
        if rank == rows:
            break
        piv = rank + int(np.argmax(np.abs(work[rank:, c])))
        if abs(work[piv, c]) <= tol * scale:
            continue
        work[[rank, piv]] = work[[piv, rank]]
        work[rank] /= work[rank, c]
        others = np.arange(rows) != rank
        work[others] -= np.outer(work[others, c], work[rank])
        rank += 1
    for i in range(rank, rows):
        if abs(work[i, -1]) > 1e-7 * scale:
            raise Infeasible("equality system is inconsistent")
    return work[:rank, :cols], work[:rank, -1]


def scan_vertices(eq_lhs, eq_rhs, tol=1e-9, dedup_tol=1e-8):
    """Every column subset of size rank(A), solved, checked and deduplicated."""
    a = np.array(eq_lhs, dtype=float, ndmin=2)
    b = np.asarray(eq_rhs, dtype=float)
    if a.shape[0] != b.size:
        raise ValueError(f"shape mismatch: A {a.shape}, b {b.size}")
    red_a, red_b = _scan_independent_rows(a, b, SCAN_RANK_TOL)
    r = red_a.shape[0]
    ncols = a.shape[1]
    found = []
    for cols in itertools.combinations(range(ncols), r):
        sub = red_a[:, cols]
        if r:
            if abs(np.linalg.det(sub)) <= SCAN_RANK_TOL:
                continue
            try:
                sol = np.linalg.solve(sub, red_b)
            except np.linalg.LinAlgError:
                continue
        else:
            sol = np.zeros(0)
        x = np.zeros(ncols)
        x[list(cols)] = sol
        if x.min() < -tol:
            continue
        x = np.clip(x, 0.0, None)
        if np.abs(a @ x - b).max() > max(tol, 1e-9):
            continue
        x[x <= tol] = 0.0
        if any(np.abs(x - v).max() <= dedup_tol for v in found):
            continue
        found.append(x)
    if not found:
        raise Infeasible("polytope has no basic feasible solution")
    found.sort(key=lambda v: tuple(v))
    return np.array(found)


def assert_matches_scan(a, b):
    """Same vertex array, bit for bit, or Infeasible from both."""
    try:
        want = scan_vertices(a, b)
    except Infeasible:
        with pytest.raises(Infeasible):
            enumerate_vertices(a, b)
        return None
    got = enumerate_vertices(a, b)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    return got


seeds = st.integers(0, 2**32 - 1)


@given(seeds, st.integers(2, 8), st.integers(0, 3))
def test_vertices_match_scan_on_sliced_simplices(seed, n, cuts):
    rng = np.random.default_rng(seed)
    p0 = rng.dirichlet(np.ones(n))
    a = np.vstack([np.ones(n), rng.normal(size=(min(cuts, n - 1), n))])
    assert_matches_scan(a, a @ p0)


@given(seeds, st.integers(4, 9), st.integers(2, 4))
@example(seed=2, n=6, cuts=2)  # solving on another basis of the degenerate vertex changes its bits
def test_vertices_match_scan_on_degenerate_rational_polytopes(seed, n, cuts):
    # b comes from a point with fewer nonzeros than rows, so that point is a
    # degenerate vertex whenever its columns are independent; its weights
    # are small integers over their sum, which different bases mostly round
    # differently
    rng = np.random.default_rng(seed)
    a = np.vstack([np.ones(n), rng.integers(-2, 4, size=(cuts, n))]).astype(float)
    support = rng.choice(n, size=int(rng.integers(2, cuts + 1)), replace=False)
    p = np.zeros(n)
    p[support] = rng.integers(1, 7, size=support.size)
    assert_matches_scan(a, a @ (p / p.sum()))


@given(seeds, st.sampled_from(list(families.FAMILIES.values())))
def test_vertices_match_scan_on_families(seed, family):
    d = family(np.random.default_rng(seed))
    assert_matches_scan(dist.kernel_x_given_y(d), dist.marginal_x(d))


def test_vertices_match_scan_example1():
    assert len(assert_matches_scan(EX1_KERNEL, np.array([0.75, 0.25]))) == 9


def test_degenerate_vertex_found_once():
    # x0 + x1 + x2 = 1, x0 = x1: (0, 0, 1) has one nonzero for two rows
    a = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
    v = assert_matches_scan(a, np.array([1.0, 0.0]))
    assert np.array_equal(v, [[0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])


def test_vertices_have_exact_zeros_off_their_support():
    # P(X|Y) and P_X of a one-component member joint whose vertex solve
    # leaves 1.05e-16 where a vertex is 0; that entry used to reach P(u|y)
    # and fail the exact audit (see test_cli)
    d = dist.validate_and_normalize(ROUND_OFF_JOINT)
    v = assert_matches_scan(dist.kernel_x_given_y(d), dist.marginal_x(d))
    assert ((v == 0.0) | (v > TAU_LP)).all()


def test_vertices_consistent_but_infeasible():
    # the reduced basis solves to -1, so the phase-1 LP decides
    with pytest.raises(Infeasible):
        enumerate_vertices(np.array([[1.0, 1.0]]), np.array([-1.0]))


def test_vertices_square_full_rank_single_basis():
    a = np.array([[2.0, 1.0, 0.0], [0.5, 3.0, 1.0], [0.0, 1.0, 4.0]])
    v = assert_matches_scan(a, a @ np.array([0.2, 0.3, 0.5]))
    assert v.shape == (1, 3)


def test_vertices_rank_zero():
    v = assert_matches_scan(np.zeros((2, 3)), np.zeros(2))
    assert np.array_equal(v, np.zeros((1, 3)))


# ---------------------------------------------------------------------------
# benchmark-ladder shapes, the exact vertices of the det ladder, a phase-1
# start and full-rank kernels

# benchmark-ladder shapes, larger than the families draw by default:
# det-f (|X|, |Y|) and common-info (|V|, |N1|, |N2|)
LADDER_SHAPES = {
    "det-6x18": lambda rng: families.random_deterministic_pair(rng, x_size=6, y_size=18),
    "det-6x20": lambda rng: families.random_deterministic_pair(rng, x_size=6, y_size=20),
    "ci-4x2x4": lambda rng: families.random_common_info_pair(rng, 4, 2, 4),
    "ci-5x2x3": lambda rng: families.random_common_info_pair(rng, 5, 2, 3),
    "ci-2x16x8": lambda rng: families.random_common_info_pair(rng, 2, 16, 8),
}


def _phase1_example():
    """A degenerate rational polytope whose reduced right-hand side has a
    negative entry, so the walk starts at a basis around a phase-1 point."""
    rng = np.random.default_rng(0)
    n, cuts = int(rng.integers(4, 10)), int(rng.integers(2, 5))
    a = np.vstack([np.ones(n), rng.integers(-2, 4, size=(cuts, n))]).astype(float)
    p = np.zeros(n)
    support = rng.choice(n, size=int(rng.integers(2, cuts + 1)), replace=False)
    p[support] = rng.integers(1, 7, size=support.size)
    return a, a @ (p / p.sum())


# the det ladder's class sizes: X = f(Y) with |X| = 6 and |Y| = 18..22
DET_LADDER = (
    (4, 4, 3, 3, 2, 2),
    (7, 3, 3, 2, 2, 2),
    (8, 4, 3, 2, 2, 1),
    (10, 3, 3, 2, 2, 1),
    (15, 2, 2, 1, 1, 1),
)


@pytest.mark.parametrize("class_sizes", DET_LADDER, ids=[f"det-6x{sum(s)}" for s in DET_LADDER])
def test_det_ladder_vertices_are_one_y_per_class(class_sizes):
    # for X = f(Y) the polytope's vertices are exactly the points that put
    # P_X(x) on one y of each class x: the walk finds each of them, bit for
    # bit, and nothing else
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        f = rng.permutation(np.repeat(np.arange(len(class_sizes)), class_sizes))
        joint = np.zeros((len(class_sizes), f.size))
        joint[f, np.arange(f.size)] = rng.dirichlet(np.ones(f.size))
        d = dist.validate_and_normalize(joint)
        px = dist.marginal_x(d)
        classes = [np.nonzero(f == x)[0] for x in range(len(class_sizes))]
        want = np.zeros((int(np.prod(class_sizes)), f.size))
        for v, ys in zip(want, itertools.product(*classes)):
            v[list(ys)] = px
        want = want[np.lexsort(want.T[::-1])]
        assert np.array_equal(mm.feasible_columns(d), want)


def _full_rank_input(kind, seed):
    """A kernel whose rank is its column count: a square invertible one, a
    full-support |Y| <= |X| one, or a small degenerate or infeasible system."""
    rng = np.random.default_rng(seed)
    if kind == "invertible":
        d = families.random_invertible_pair(rng)
    elif kind == "small-y":
        d = random_small_y_pair(rng)
    elif kind == "degenerate":
        return np.array([[1.0, 1.0], [1.0, -1.0], [2.0, 0.0]]), np.array([1.0, 1.0, 2.0])
    else:
        return np.eye(3), np.array([0.5, -0.25, 0.75])
    return dist.kernel_x_given_y(d), dist.marginal_x(d)


@given(st.sampled_from(["invertible", "small-y", "degenerate", "infeasible"]), seeds)
def test_full_rank_kernel_skips_the_walk(kind, seed):
    # the start basis is the only basis: the scan's vertices or Infeasible,
    # with no walk made
    a, b = _full_rank_input(kind, seed)
    assert rank_and_nullity(a)[0] == a.shape[1]
    with mock.patch.object(linalg, "_walk_bases", side_effect=AssertionError):
        assert_matches_scan(a, b)


def test_phase1_example_starts_off_the_pivot_basis():
    a, b = _phase1_example()
    assert _rref(a, b)[1].min() < -TAU_LP
    assert_matches_scan(a, b)


# ---------------------------------------------------------------------------
# the in-place simplex with separate tableau and right-hand side, kept as the
# oracle for solve_lp on one augmented tableau


def _oracle_pivot(t, b, basis, row, col):
    piv = t[row, col]
    t[row] /= piv
    b[row] /= piv
    for i in range(t.shape[0]):
        if i != row and t[i, col] != 0.0:
            f = t[i, col]
            t[i] -= f * t[row]
            b[i] -= f * b[row]
    basis[row] = col


def _oracle_bland_iterate(t, b, basis, costs, n_allowed, tol):
    m = t.shape[0]
    cap = 10_000 + 100 * (m + t.shape[1])
    for _ in range(cap):
        red = costs - costs[basis] @ t
        enter = -1
        for j in range(n_allowed):
            if red[j] < -tol:
                enter = j
                break
        if enter < 0:
            return "optimal"
        col = t[:, enter]
        best = np.inf
        leave = -1
        for i in range(m):
            if col[i] > tol:
                r = b[i] / col[i]
                if r < best - 1e-12:
                    best, leave = r, i
                elif r <= best + 1e-12 and leave >= 0 and basis[i] < basis[leave]:
                    leave = i
        if leave < 0:
            return "unbounded"
        _oracle_pivot(t, b, basis, leave, enter)
    raise NumericalFailure(f"simplex exceeded {cap} pivots without certifying a status")


def oracle_solve_lp(lp, tol=1e-9):
    c = np.asarray(lp.objective, dtype=float).copy()
    a = np.array(lp.eq_lhs, dtype=float, ndmin=2)
    b = np.asarray(lp.eq_rhs, dtype=float).copy()
    n = c.size
    sign = 1.0 if lp.sense == "min" else -1.0
    c = sign * c
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0
    m = a.shape[0]
    t = np.hstack([a, np.eye(m)])
    rhs = b.copy()
    basis = list(range(n, n + m))
    phase1 = np.concatenate([np.zeros(n), np.ones(m)])
    _oracle_bland_iterate(t, rhs, basis, phase1, n + m, tol)
    scale = 1.0 + float(np.abs(b).sum())
    if phase1[basis] @ rhs > tol * scale:
        return "infeasible", float("nan"), None
    keep = []
    for i in range(m):
        if basis[i] < n:
            keep.append(i)
            continue
        row = t[i, :n]
        j = int(np.argmax(np.abs(row)))
        if abs(row[j]) > tol:
            _oracle_pivot(t, rhs, basis, i, j)
            keep.append(i)
    t = t[keep][:, :n]
    rhs = rhs[keep]
    basis = [basis[i] for i in keep]
    if _oracle_bland_iterate(t, rhs, basis, c, n, tol) == "unbounded":
        return "unbounded", sign * float("-inf"), None
    x = np.zeros(n)
    x[basis] = rhs
    resid = float(np.abs(a @ x - b).max()) if m else 0.0
    if resid > 100 * tol * scale or x.min() < -100 * tol:
        raise NumericalFailure("simplex finished off the constraints")
    x = np.clip(x, 0.0, None)
    return "optimal", float(np.asarray(lp.objective, dtype=float) @ x), x


def assert_matches_oracle(lp):
    """Same status, value and point as the oracle, bit for bit (NaN equal)."""
    try:
        status, value, point = oracle_solve_lp(lp)
    except NumericalFailure:
        with pytest.raises(NumericalFailure):
            solve_lp(lp)
        return
    out = solve_lp(lp)
    assert out.status == status
    assert np.array_equal(out.value, value, equal_nan=True)
    assert (out.point is None) == (point is None)
    if point is not None:
        assert np.array_equal(out.point, point)


@given(seeds, st.sampled_from(list(families.FAMILIES.values())))
def test_lp_matches_oracle_on_family_lps(seed, family):
    assert_family_lps_match_oracle(family(np.random.default_rng(seed)))


@given(seeds, st.sampled_from(sorted(LADDER_SHAPES)))
def test_lp_matches_oracle_on_ladder_shapes(seed, shape):
    assert_family_lps_match_oracle(LADDER_SHAPES[shape](np.random.default_rng(seed)))


def assert_family_lps_match_oracle(d):
    """The two bound LPs of theorem1_bounds and the g0 mixture LP of ``d``."""
    a_xy, b_xy = bound_matrices(d)
    py = dist.marginal_y(d)
    assert_matches_oracle(LinearProgram(py, a_xy, b_xy, sense="min"))
    assert_matches_oracle(LinearProgram(py, a_xy, b_xy, sense="max"))
    verts = mm.feasible_columns(d)
    ent = np.array([dist.entropy(v) for v in verts])
    assert_matches_oracle(LinearProgram(ent, verts.T, py, sense="min"))


@given(seeds, st.integers(1, 4), st.integers(1, 7), st.sampled_from(["min", "max"]))
def test_lp_matches_oracle_on_random_lps(seed, rows, n, sense):
    # random feasible, infeasible and unbounded LPs
    rng = np.random.default_rng(seed)
    a = rng.integers(-3, 4, size=(rows, n)).astype(float)
    b = a @ rng.dirichlet(np.ones(n)) if rng.random() < 0.7 else rng.normal(size=rows)
    c = rng.normal(size=n)
    assert_matches_oracle(LinearProgram(c, a, b, sense=sense))


BOUND_JOINTS = families.FAMILIES | LADDER_SHAPES | {
    "example1": lambda rng: dist.from_conditional(EX1_KERNEL, EX1_PY),
}


@given(seeds, st.sampled_from(sorted(BOUND_JOINTS)))
def test_strengthened_bound_matches_capped_lp_oracle(seed, kind):
    # the strengthened bound is min(k_upper, log2(nullity + 1)); the capped
    # LP max P_Y . a subject to the bound system and P_Y . a <= cap, in
    # standard form with its slack column spelled out, lands on that min
    a = mm.analyze(BOUND_JOINTS[kind](np.random.default_rng(seed)))
    if a.bounds is None:
        return
    b = a.bounds
    assert b.k_upper_strengthened == min(b.k_upper, b.log_nullity_bound)
    a_xy, b_xy = mm.build_bound_matrices(a.d, a.h_given_x, a.h_cond)
    py = dist.marginal_y(a.d)
    cap = b.log_nullity_bound - a.h_cond
    lhs = np.block([[a_xy, np.zeros((a_xy.shape[0], 1))], [py, 1.0]])
    out = solve_lp(LinearProgram(np.append(py, 0.0), lhs, np.append(b_xy, cap), sense="max"))
    assert out.status == "optimal"
    assert abs(a.h_cond + out.value - b.k_upper_strengthened) <= 1e-12
