"""Mechanism synthesis, membership, bound LPs, and decode tables."""

import math

import numpy as np
import pytest

from conftest import entropy_profile

from zeroleak import dist, families, mechanism as mm, report
from zeroleak.dist import Kernel
from zeroleak.errors import NotDecodable
from zeroleak.linalg import rank_and_nullity

EX1_KERNEL = np.array([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]], dtype=float)
EX1_PY = np.array([1 / 8, 2 / 8, 3 / 8, 1 / 8, 1 / 16, 1 / 16])
EX1_H_COND = 1.4693609377704335  # 3/4 H([1/6,1/3,1/2]) + 1/4 H([1/2,1/4,1/4])


def example1():
    return dist.from_conditional(EX1_KERNEL, EX1_PY)


def noisy_2x4():
    kern = np.array([[0.9, 0.6, 0.3, 0.1], [0.1, 0.4, 0.7, 0.9]])
    return dist.from_conditional(kern, np.full(4, 0.25))


# ---------------------------------------------------------------------------
# bound matrices


def test_bound_matrices_example1_first_row():
    a_xy, b_xy = mm.build_bound_matrices(example1())
    expected = [1 / 8 - 1 / 6, 2 / 8 - 2 / 6, 3 / 8 - 3 / 6, 1 / 8, 1 / 16, 1 / 16]
    assert np.allclose(a_xy[0], expected, atol=1e-12)
    assert b_xy[0] == pytest.approx(
        (1 / 6 * math.log2(6) + 1 / 3 * math.log2(3) + 0.5) - EX1_H_COND, abs=1e-12
    )


def test_bound_matrices_independent_pair_all_zero():
    d = dist.validate_and_normalize(np.outer([0.4, 0.6], [0.1, 0.2, 0.7]))
    a_xy, b_xy = mm.build_bound_matrices(d)
    assert np.abs(a_xy).max() <= 1e-12
    assert np.abs(b_xy).max() <= 1e-12


def test_bound_matrices_single_x_all_zero():
    d = dist.validate_and_normalize(np.array([[0.2, 0.3, 0.5]]))
    a_xy, b_xy = mm.build_bound_matrices(d)
    assert np.abs(a_xy).max() <= 1e-12
    assert np.abs(b_xy).max() <= 1e-12


def test_bound_matrices_weighted_identities_random():
    rng = np.random.default_rng(31)
    for _ in range(25):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 6)))
        d = dist.validate_and_normalize(
            rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape) + 1e-4
        )
        a_xy, b_xy = mm.build_bound_matrices(d)
        px = dist.marginal_x(d)
        assert np.abs(a_xy.sum(axis=1)).max() <= 1e-10
        assert np.abs(px @ a_xy).max() <= 1e-10
        assert abs(px @ b_xy) <= 1e-10


# ---------------------------------------------------------------------------
# membership


def test_membership_example1_fast_path():
    a = mm.analyze(example1())
    assert a.member
    assert a.g0 == pytest.approx(EX1_H_COND, abs=1e-9)


def test_membership_y_function_of_x():
    # X uniform on 4 symbols, Y = X mod 2: both sides of the test are zero
    joint = np.zeros((4, 2))
    for x in range(4):
        joint[x, x % 2] = 0.25
    d = dist.validate_and_normalize(joint)
    a = mm.analyze(d)
    assert a.member
    assert abs(a.g0) <= 1e-9
    assert dist.conditional_entropy_y_given_x(d) <= 1e-12


def test_membership_binary_symmetric_negative():
    # invertible kernel forces the disclosure polytope to the single point
    # P_Y, so the funnel value is 0 while H(Y|X) = h2(0.1) > 0
    d = dist.from_conditional(np.array([[0.9, 0.1], [0.1, 0.9]]), np.array([0.5, 0.5]))
    a = mm.analyze(d)
    assert not a.member
    assert abs(a.g0) <= 1e-9
    h2 = -(0.1 * math.log2(0.1) + 0.9 * math.log2(0.9))
    assert dist.conditional_entropy_y_given_x(d) == pytest.approx(h2, abs=1e-12)
    assert h2 == pytest.approx(0.4689955935892812, abs=1e-12)


# ---------------------------------------------------------------------------
# mechanism synthesis


def test_solve_g0_example1():
    d = example1()
    value, mech = mm.solve_g0(d)
    assert value == pytest.approx(EX1_H_COND, abs=1e-9)
    # one optimal disclosure reported for this instance has H(U) = 1.9591
    # bits; any basic optimal solution must do at least as well
    assert dist.entropy(mech.p_u) <= 1.9591 + 1e-3
    _, nullity = rank_and_nullity(EX1_KERNEL)
    assert mech.u_size <= nullity + 1
    assert mech.p_u.sum() == pytest.approx(1.0, abs=1e-12)
    # every column is leakage-free: P_{X|Y} col = P_X
    kern = dist.kernel_x_given_y(d).k
    px = dist.marginal_x(d)
    assert np.abs(kern @ mech.p_y_given_u.k - px[:, None]).max() <= 1e-9
    # mixture reproduces P_Y
    assert np.abs(mech.p_y_given_u.k @ mech.p_u - EX1_PY).max() <= 1e-9


def test_solve_g0_independent_pair_discloses_y():
    d = dist.validate_and_normalize(np.outer([0.3, 0.7], [0.2, 0.5, 0.3]))
    value, mech = mm.solve_g0(d)
    assert value == pytest.approx(dist.entropy(dist.marginal_y(d)), abs=1e-9)
    assert mech.u_size == 3
    assert np.allclose(np.sort(mech.p_y_given_u.k, axis=0)[-1], 1.0, atol=1e-12)


def test_solve_g0_invertible_kernel_discloses_nothing():
    d = dist.from_conditional(np.array([[0.8, 0.3], [0.2, 0.7]]), np.array([0.4, 0.6]))
    value, mech = mm.solve_g0(d)
    assert value == pytest.approx(0.0, abs=1e-9)
    assert mech.u_size == 1
    assert np.abs(mech.p_y_given_u.k[:, 0] - dist.marginal_y(d)).max() <= 1e-9


# ---------------------------------------------------------------------------
# entropy bounds


def test_theorem1_bounds_example1():
    a = mm.analyze(example1())
    hu, b = a.achieved_hu, a.bounds
    assert b.log_nullity_bound == pytest.approx(math.log2(5), abs=1e-12)
    assert b.k_lower >= EX1_H_COND - 1e-9
    assert b.k_lower - 1e-6 <= hu <= b.k_upper_strengthened + 1e-6
    assert b.k_upper_strengthened <= b.log_nullity_bound + 1e-9
    # the disclosure the reference solution reports also sits in the sandwich
    assert b.k_lower - 1e-6 <= 1.9591 <= b.k_upper_strengthened + 1e-3
    assert not b.unique


def test_theorem1_bounds_independent_pair():
    d = dist.validate_and_normalize(np.outer([0.3, 0.7], [0.2, 0.5, 0.3]))
    b = mm.analyze(d).bounds
    hy = dist.entropy(dist.marginal_y(d))
    assert b.k_lower == pytest.approx(hy, abs=1e-9)
    assert b.k_upper == float("inf")
    assert b.k_upper_strengthened == pytest.approx(math.log2(3), abs=1e-9)


def test_theorem1_requires_membership():
    # the binary symmetric pair is not a member: no bracket, no LP converse
    d = dist.from_conditional(np.array([[0.9, 0.1], [0.1, 0.9]]), np.array([0.5, 0.5]))
    a = mm.analyze(d)
    assert a.bounds is None
    assert all(e.name != "lp_conditional_converse" for e in report.build_report(a).lower)


def test_theorem1_constant_y_all_zero():
    d = dist.validate_and_normalize(np.array([[0.4], [0.6]]))
    b = mm.analyze(d).bounds
    assert b.k_lower == pytest.approx(0.0, abs=1e-12)
    assert b.k_upper_strengthened == pytest.approx(0.0, abs=1e-9)
    assert b.log_nullity_bound == 0.0


def test_theorem1_y_function_of_x_degenerate():
    # Y = X mod 2, X uniform on four symbols: H(Y|X) = 0 and the kernel has
    # zero nullity, so both ends of the bracket collapse to zero
    joint = np.zeros((4, 2))
    for x in range(4):
        joint[x, x % 2] = 0.25
    d = dist.validate_and_normalize(joint)
    value, _ = mm.solve_g0(d)
    assert value == pytest.approx(0.0, abs=1e-12)
    b = mm.analyze(d).bounds
    assert b.k_lower == pytest.approx(0.0, abs=1e-9)
    assert b.k_upper_strengthened == pytest.approx(0.0, abs=1e-9)


def test_membership_boundary_band():
    # the binary symmetric pair has gap = H(Y|X) - g0 = 0.469 bits; widen
    # the tolerance so the gap lands inside the reported-boundary decade
    d = dist.from_conditional(np.array([[0.9, 0.1], [0.1, 0.9]]), np.array([0.5, 0.5]))
    a = mm.analyze(d, tol_ent=0.1)
    assert not a.member and a.boundary
    # counted a member, the pair gets the bound LPs; its strengthened cap
    # log2(nullity + 1) - H(Y|X) is negative, so that LP falls back
    with pytest.warns(RuntimeWarning, match="strengthened bound LP"):
        a = mm.analyze(d, tol_ent=1.0)
    assert a.member and a.boundary
    a = mm.analyze(d, tol_ent=1e-7)
    assert not a.member and not a.boundary


# ---------------------------------------------------------------------------
# decode tables


def test_decode_table_paper_vertex_split():
    """The [0.75,0,0,0.25,0,0] column splits across the two X groups."""
    d = example1()
    cols = np.array([
        [0.75, 0, 0, 0.25, 0, 0],
        [0, 0.75, 0, 0.25, 0, 0],
        [0, 0, 0.75, 0, 0.25, 0],
        [0, 0, 0.75, 0, 0, 0.25],
    ]).T
    mech = mm.Mechanism(p_u=np.array([1 / 6, 1 / 3, 1 / 4, 1 / 4]), p_y_given_u=Kernel(cols))
    assert dist.entropy(mech.p_u) == pytest.approx(1.9591, abs=1e-4)
    filled = mm.build_decode_table(d, mech)
    assert filled.decode[(0, 0)] == 0
    assert filled.decode[(1, 0)] == 3
    assert filled.decode[(0, 1)] == 1
    assert filled.decode[(1, 3)] == 5


def test_decode_table_u_equals_y():
    d = dist.validate_and_normalize(np.outer([0.3, 0.7], [0.2, 0.5, 0.3]))
    _, mech = mm.solve_g0(d)  # independent pair: U = Y
    filled = mm.build_decode_table(d, mech)
    for (x, u), y in filled.decode.items():
        assert mech.p_y_given_u.k[y, u] > 0.99


def test_decode_table_ambiguous_raises():
    d = noisy_2x4()
    _, mech = mm.solve_g0(d)
    with pytest.raises(NotDecodable):
        mm.build_decode_table(d, mech)


# ---------------------------------------------------------------------------
# identities and properties on random member instances


def test_information_identity_on_synthesized_mechanisms():
    rng = np.random.default_rng(41)
    for _ in range(40):
        d = families.random_deterministic_pair(rng)
        _, mech = mm.solve_g0(d)
        assert mm.information_identity_residual(d, mech) <= 1e-9


def test_identity_holds_even_for_non_member_mechanisms():
    d = noisy_2x4()
    _, mech = mm.solve_g0(d)
    assert mm.information_identity_residual(d, mech) <= 1e-9


def test_zero_leakage_of_synthesized_mechanisms():
    rng = np.random.default_rng(43)
    for _ in range(30):
        d = families.random_deterministic_pair(rng)
        _, mech = mm.solve_g0(d)
        terms = mm.information_identity_terms(d, mech)
        assert terms["i_xu"] <= 1e-9
        assert terms["i_xu_given_y"] <= 1e-9


def test_entropy_profile_solves_bound_system():
    rng = np.random.default_rng(47)
    for _ in range(30):
        d = families.random_deterministic_pair(rng)
        _, mech = mm.solve_g0(d)
        a_xy, b_xy = mm.build_bound_matrices(d)
        prof = entropy_profile(d, mech)
        assert np.abs(a_xy @ prof - b_xy).max() <= 1e-8


def test_sandwich_on_random_members():
    rng = np.random.default_rng(53)
    for _ in range(40):
        d = families.random_deterministic_pair(rng)
        a = mm.analyze(d)
        mech, hu, b = a.mech, a.achieved_hu, a.bounds
        assert b.k_lower - 1e-6 <= hu <= b.k_upper_strengthened + 1e-6
        assert b.k_upper_strengthened <= b.log_nullity_bound + 1e-6
        _, nullity = rank_and_nullity(dist.kernel_x_given_y(d).k)
        assert mech.u_size <= nullity + 1


def _random_feasible_mechanism(d, verts, rng):
    """A random zero-leakage disclosure: peel random vertex mass off P_Y,
    completing with the (feasible) normalized remainder."""
    py = dist.marginal_y(d).copy()
    remaining = 1.0
    parts = []
    for _ in range(max(len(verts[0]) - 2, 1)):
        v = verts[int(rng.integers(len(verts)))]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.min(np.where(v > 1e-12, py / np.maximum(v, 1e-300), np.inf))
        step = min(step, remaining) * float(rng.uniform(0.1, 0.9))
        if step <= 1e-9:
            continue
        parts.append((step, v))
        py = py - step * v
        remaining -= step
    if remaining > 1e-9:
        parts.append((remaining, py / remaining))
    return parts


def test_g0_is_not_beaten_by_random_mechanisms():
    """One-sided brute-force check: no sampled zero-leakage disclosure
    achieves more than the LP value (instances with |Y| <= 5)."""
    from zeroleak.mechanism import feasible_columns

    rng = np.random.default_rng(59)
    for _ in range(10):
        d = families.random_deterministic_pair(rng, max_x=3, max_y=5)
        value, _ = mm.solve_g0(d)
        verts = feasible_columns(d)
        hy = dist.entropy(dist.marginal_y(d))
        for _ in range(30):
            parts = _random_feasible_mechanism(d, verts, rng)
            attained = hy - sum(w * dist.entropy(col) for w, col in parts)
            assert attained <= value + 1e-6
