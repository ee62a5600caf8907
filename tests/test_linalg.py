"""Rank/nullity, the simplex solver, and basic-feasible-solution enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zeroleak import dist, families
from zeroleak.errors import Infeasible
from zeroleak.linalg import (
    LinearProgram,
    enumerate_vertices,
    rank_and_nullity,
    solve_lp,
)

EX1_KERNEL = np.array([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]], dtype=float)


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


def test_lp_extra_inequality():
    # max x subject to x = x (vacuous row), x <= 2
    lp = LinearProgram(
        np.array([1.0]),
        np.array([[0.0]]),
        np.array([0.0]),
        extra_ineq=(np.array([1.0]), 2.0),
        sense="max",
    )
    out = solve_lp(lp)
    assert out.status == "optimal"
    assert out.value == pytest.approx(2.0, abs=1e-9)


def test_example1_bound_system_is_feasible():
    from zeroleak.mechanism import build_bound_matrices

    d = dist.from_conditional(EX1_KERNEL, np.array([1 / 8, 2 / 8, 3 / 8, 1 / 8, 1 / 16, 1 / 16]))
    bm = build_bound_matrices(d)
    py = dist.marginal_y(d)
    out = solve_lp(LinearProgram(py, bm.a_xy, bm.b_xy, sense="max"))
    assert out.status != "infeasible"
    lo = solve_lp(LinearProgram(py, bm.a_xy, bm.b_xy, sense="min"))
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


@given(
    seeds,
    st.sampled_from(
        [
            families.random_deterministic_pair,
            families.random_common_info_pair,
            families.random_invertible_pair,
        ]
    ),
)
def test_vertices_match_scan_on_families(seed, family):
    d = family(np.random.default_rng(seed))
    assert_matches_scan(dist.kernel_x_given_y(d).k, dist.marginal_x(d))


def test_vertices_match_scan_example1():
    assert len(assert_matches_scan(EX1_KERNEL, np.array([0.75, 0.25]))) == 9


def test_degenerate_vertex_found_once():
    # x0 + x1 + x2 = 1, x0 = x1: (0, 0, 1) has one nonzero for two rows
    a = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
    v = assert_matches_scan(a, np.array([1.0, 0.0]))
    assert np.array_equal(v, [[0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])


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
