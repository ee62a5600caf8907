"""Mechanism synthesis, membership, bound LPs, and decode tables."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    array_coupled_g0,
    bits,
    bound_matrices,
    entropy_profile,
    loop_build_decode_table,
    loop_entropy_y_given_xu,
    whole_joint_g0,
)

from zeroleak import cli, codec, dist, families, mechanism as mm, report
from zeroleak.errors import Infeasible, NotDecodable
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
    a_xy, b_xy = bound_matrices(example1())
    expected = [1 / 8 - 1 / 6, 2 / 8 - 2 / 6, 3 / 8 - 3 / 6, 1 / 8, 1 / 16, 1 / 16]
    assert np.allclose(a_xy[0], expected, atol=1e-12)
    assert b_xy[0] == pytest.approx(
        (1 / 6 * math.log2(6) + 1 / 3 * math.log2(3) + 0.5) - EX1_H_COND, abs=1e-12
    )


def test_bound_matrices_independent_pair_all_zero():
    d = dist.validate_and_normalize(np.outer([0.4, 0.6], [0.1, 0.2, 0.7]))
    a_xy, b_xy = bound_matrices(d)
    assert np.abs(a_xy).max() <= 1e-12
    assert np.abs(b_xy).max() <= 1e-12


def test_bound_matrices_single_x_all_zero():
    d = dist.validate_and_normalize(np.array([[0.2, 0.3, 0.5]]))
    a_xy, b_xy = bound_matrices(d)
    assert np.abs(a_xy).max() <= 1e-12
    assert np.abs(b_xy).max() <= 1e-12


def test_bound_matrices_weighted_identities_random():
    rng = np.random.default_rng(31)
    for _ in range(25):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 6)))
        d = dist.validate_and_normalize(
            rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape) + 1e-4
        )
        a_xy, b_xy = bound_matrices(d)
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
    kern = dist.kernel_x_given_y(d)
    px = dist.marginal_x(d)
    assert np.abs(kern @ mech.p_y_given_u - px[:, None]).max() <= 1e-9
    # mixture reproduces P_Y
    assert np.abs(mech.p_y_given_u @ mech.p_u - EX1_PY).max() <= 1e-9


def test_solve_g0_example1_couples_its_two_rows():
    # two one-row components, P(Y|x=0) = (1/6, 1/3, 1/2) on y 0..2 and
    # P(Y|x=1) = (1/2, 1/4, 1/4) on y 3..5: greedy coupling emits 1/2, 1/4,
    # 1/6, 1/12, and the columns' lexicographic order puts them as below
    _, mech = mm.solve_g0(example1())
    assert np.abs(mech.p_u - [1 / 2, 1 / 12, 1 / 4, 1 / 6]).max() <= 1e-15
    cols = [[0, 0, 3, 1, 0, 0], [0, 3, 0, 0, 0, 1], [0, 3, 0, 0, 1, 0], [3, 0, 0, 0, 0, 1]]
    assert np.array_equal(mech.p_y_given_u.T, np.array(cols) / 4)


def test_coupling_counts_weight_at_or_below_the_floor_as_spent():
    # two simplex components of mass 1/2 on y {0, 1} and {2, 3}, whose
    # weights sum to 1 + 4e-13 and 1 + 3e-13: after the 0.75 + 2e-13 and
    # 0.25 atoms they have 2e-13 and 1e-13 left, which are spent, not a
    # third atom
    ys = [np.array([0, 1]), np.array([2, 3])]
    parts = [
        (ys[0], 0.5, None, np.array([0.25, 0.75 + 4e-13]), 0.0),
        (ys[1], 0.5, None, np.array([0.75 + 2e-13, 0.25 + 1e-13]), 0.0),
    ]
    p_u, cols = mm._couple(parts, 4)
    assert p_u.tolist() == [0.75 + 2e-13, 0.25]
    assert cols.T.tolist() == [[0.0, 0.5, 0.5, 0.0], [0.5, 0.0, 0.0, 0.5]]
    # a weight at or below the floor never enters an atom
    parts = [
        (ys[0], 0.5, None, np.array([0.25, 0.75]), 0.0),
        (ys[1], 0.5, None, np.array([1.0, mm.WEIGHT_FLOOR]), 0.0),
    ]
    p_u, cols = mm._couple(parts, 4)
    assert p_u.tolist() == [0.75, 0.25]
    assert cols.T.tolist() == [[0.0, 0.5, 0.5, 0.0], [0.5, 0.0, 0.5, 0.0]]


def test_solve_g0_independent_pair_discloses_y():
    d = dist.validate_and_normalize(np.outer([0.3, 0.7], [0.2, 0.5, 0.3]))
    value, mech = mm.solve_g0(d)
    assert value == pytest.approx(dist.entropy(dist.marginal_y(d)), abs=1e-9)
    assert mech.u_size == 3
    assert np.allclose(np.sort(mech.p_y_given_u, axis=0)[-1], 1.0, atol=1e-12)


def test_solve_g0_invertible_kernel_discloses_nothing():
    d = dist.from_conditional(np.array([[0.8, 0.3], [0.2, 0.7]]), np.array([0.4, 0.6]))
    value, mech = mm.solve_g0(d)
    assert value == pytest.approx(0.0, abs=1e-9)
    assert mech.u_size == 1
    assert np.abs(mech.p_y_given_u[:, 0] - dist.marginal_y(d)).max() <= 1e-9


# ---------------------------------------------------------------------------
# entropy bounds


def test_theorem1_bounds_example1():
    a = mm.analyze(example1())
    hu, b = a.achieved_hu, a.bounds
    assert b.log_nullity_bound == pytest.approx(math.log2(5), abs=1e-12)
    assert b.k_lower >= EX1_H_COND - 1e-9
    assert b.k_lower - 1e-6 <= hu <= b.k_upper_strengthened + 1e-6
    assert b.k_upper_strengthened == min(b.k_upper, b.log_nullity_bound)
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


def test_bounds_and_rank_are_computed_on_first_read(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("computed a figure that was not read")

    # a non-member's bounds are None without any LP or rank once its
    # membership (the g0 solve) is known
    bsc = mm.analyze(dist.from_conditional(np.array([[0.9, 0.1], [0.1, 0.9]]), [0.5, 0.5]))
    member = mm.analyze(dist.from_conditional(EX1_KERNEL, EX1_PY))
    assert not bsc.member and member.member
    for name in ("theorem1_bounds", "solve_lp", "rank_and_nullity"):
        monkeypatch.setattr(mm, name, forbidden)
    assert bsc.bounds is None
    # a member solves its bound LPs on the first read of ``bounds`` only
    monkeypatch.undo()
    calls = []
    monkeypatch.setattr(mm, "theorem1_bounds", lambda *args: calls.append(args) or "bracket")
    assert member.bounds == "bracket" and member.bounds == "bracket" and len(calls) == 1
    assert calls[0][1] == member.nullity == 4 and member.rank == 2


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
    # [[0.5, e], [0, 0.5 - e]] is one mass e away from the X = f(Y) joint
    # diag(0.5, 0.5); its gap H(Y|X) - g0 grows with e through the decade
    # either side of TAU_ENT
    def joint(e):
        return dist.validate_and_normalize(np.array([[0.5, e], [0.0, 0.5 - e]]))

    a = mm.analyze(joint(1e-9))  # gap 3.0e-8
    assert a.member and a.boundary
    # counted a member, the joint gets the bound LPs; log2(nullity + 1) = 0
    # lies below H(Y|X), and the strengthened bound is still the min
    b = a.bounds
    assert b.k_upper_strengthened == min(b.k_upper, b.log_nullity_bound) == 0.0
    a = mm.analyze(joint(5e-9))  # gap 1.4e-7
    assert not a.member and a.boundary
    # the binary symmetric pair has gap 0.469 bits, far outside the band
    a = mm.analyze(dist.from_conditional(np.array([[0.9, 0.1], [0.1, 0.9]]), np.array([0.5, 0.5])))
    assert not a.member and not a.boundary


def test_excludes_two_part_only_on_full_support_dependent_joints():
    # every (x, y) is live and column 0 of P(X|Y) is off P_X: no decodable U
    dependent = dist.validate_and_normalize(np.array([[0.2, 0.1], [0.1, 0.2], [0.2, 0.2]]))
    a = mm.analyze(dependent)
    assert a.two_part_excluded and not a.member and not a.mech_decodable
    # every column is P_X: U = Y decodes
    independent = dist.validate_and_normalize(np.outer([0.3, 0.7], [0.2, 0.5, 0.3]))
    a = mm.analyze(independent)
    assert not a.two_part_excluded and a.mech_decodable
    # a zero entry: the LP path decides, and Example 1 is a decodable member
    a = mm.analyze(example1())
    assert not a.two_part_excluded and a.mech_decodable
    # columns off P_X by 2.5e-8, under TAU_COLUMN: the LP path decides
    near = dist.validate_and_normalize(np.array([[0.3, 0.1 + 1e-7], [0.3, 0.1]]))
    assert not mm.excludes_two_part(near)
    # a column off P_X counts only when its y outweighs WEIGHT_FLOOR
    light = dist.validate_and_normalize(np.array([[0.5, 1e-13], [0.5, 2e-13]]))
    assert not mm.excludes_two_part(light)


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
    mech = mm.Mechanism(p_u=np.array([1 / 6, 1 / 3, 1 / 4, 1 / 4]), p_y_given_u=cols)
    assert dist.entropy(mech.p_u) == pytest.approx(1.9591, abs=1e-4)
    filled = mm.build_decode_table(d, mech)
    assert filled.decode.tolist() == [[0, 1, 2, 2], [3, 3, 4, 5]]


def test_decode_table_u_equals_y():
    d = dist.validate_and_normalize(np.outer([0.3, 0.7], [0.2, 0.5, 0.3]))
    _, mech = mm.solve_g0(d)  # independent pair: U = Y
    filled = mm.build_decode_table(d, mech)
    assert (filled.decode >= 0).all()
    for (_, u), y in np.ndenumerate(filled.decode):
        assert mech.p_y_given_u[y, u] > 0.99


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
        assert families.information_identity_residual(d, mech) <= 1e-9


def test_identity_holds_even_for_non_member_mechanisms():
    d = noisy_2x4()
    _, mech = mm.solve_g0(d)
    assert families.information_identity_residual(d, mech) <= 1e-9


def test_zero_leakage_of_synthesized_mechanisms():
    rng = np.random.default_rng(43)
    for _ in range(30):
        d = families.random_deterministic_pair(rng)
        _, mech = mm.solve_g0(d)
        terms = families.information_identity_terms(d, mech)
        assert terms["i_xu"] <= 1e-9
        assert terms["i_xu_given_y"] <= 1e-9


def test_entropy_profile_solves_bound_system():
    rng = np.random.default_rng(47)
    for _ in range(30):
        d = families.random_deterministic_pair(rng)
        _, mech = mm.solve_g0(d)
        a_xy, b_xy = bound_matrices(d)
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
        _, nullity = rank_and_nullity(dist.kernel_x_given_y(d))
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
    achieves more than the LP value (det-f instances with |Y| <= 5, where
    every vertex has entropy H(X), and rectangle members, where vertex
    entropies differ)."""
    from zeroleak.mechanism import feasible_columns

    rng = np.random.default_rng(59)
    draws = [lambda: families.random_deterministic_pair(rng, max_x=3, max_y=5)] * 10
    draws += [lambda: families.random_rectangle_member(rng)] * 10
    for draw in draws:
        d = draw()
        value, _ = mm.solve_g0(d)
        verts = feasible_columns(d)
        hy = dist.entropy(dist.marginal_y(d))
        for _ in range(30):
            parts = _random_feasible_mechanism(d, verts, rng)
            attained = hy - sum(w * dist.entropy(col) for w, col in parts)
            assert attained <= value + 1e-6


# ---------------------------------------------------------------------------
# the batched decode table and H(Y|X,U) against their (x, u) loops


def _hostile_mechanisms(mech):
    """The mechanism itself, then a NaN P(u), a column spread over every y
    (so one (x, u) slab has two live y), a u of zero mass, and every column
    spread (so every slab has every y of its x live)."""
    yield "as-solved", mech
    p_u = mech.p_u.copy()
    p_u[0] = np.nan
    yield "nan-p-u", replace(mech, p_u=p_u)
    cols = mech.p_y_given_u.copy()
    cols[:, 0] = 1.0 / cols.shape[0]
    yield "two-live-y", replace(mech, p_y_given_u=cols)
    p_u = mech.p_u.copy()
    p_u[-1] = 0.0
    yield "zero-mass-u", replace(mech, p_u=p_u)
    yield "all-spread", replace(mech, p_y_given_u=np.full_like(cols, 1.0 / cols.shape[0]))


def _decode_outcome(build, d, mech):
    """The table with its shape and dtype, or the NotDecodable message."""
    try:
        table = build(d, mech).decode
        return table.shape, table.dtype, table.tolist()
    except NotDecodable as exc:
        return f"NotDecodable: {exc}"


@given(st.sampled_from(["example1", *families.FAMILIES]), st.integers(0, 2**32 - 1))
def test_decode_table_and_h_y_given_xu_match_loops(family, seed):
    d = example1() if family == "example1" else families.FAMILIES[family](np.random.default_rng(seed))
    try:
        _, solved = mm.solve_g0(d)
    except Infeasible:
        return assert_boundary_verdict(d)
    for name, mech in _hostile_mechanisms(solved):
        want = _decode_outcome(loop_build_decode_table, d, mech)
        assert _decode_outcome(mm.build_decode_table, d, mech) == want, name
        joint = mm.mechanism_joint(d, mech)
        h = families._entropy_y_given_xu(joint)
        assert bits(h) == bits(loop_entropy_y_given_xu(joint)), name
        # once every live (x, u) has one live y, H(Y|X,U) is not positive
        # (a NaN, from a NaN P(u), compares false), so build_decode_table
        # needs no entropy check
        if not isinstance(want, str):
            assert not h > 0.0, name
        if name == "two-live-y" and (d.p > 0.0).sum(axis=1).max() > 1:
            assert want.startswith("NotDecodable: pair ("), want


# ---------------------------------------------------------------------------
# the factored g0 against the whole-joint LP


GOLDEN = Path(__file__).parent / "golden"
NAMED_JOINTS = {
    "example1": example1,
    **{
        path.stem: lambda path=path: cli.parse_distribution(str(path))
        for path in sorted(GOLDEN.glob("*.txt"))
        if "." not in path.stem  # the golden inputs, not the outputs
    },
}


def assert_boundary_verdict(d):
    """Where the walk or the mixture LP finds P_Y outside the polytope at
    TAU_LP (a near-singular P(X|Y)), ``analyze`` gives a non-member verdict
    flagged boundary that names the tolerance."""
    a = mm.analyze(d)
    assert not a.member and a.boundary and "TAU_LP = 1e-09" in a.boundary_note


def assert_factored_g0_matches_whole_joint(d):
    """solve_g0's value equals the whole-joint LP's within 1e-9, one
    component gives the whole-joint optimizer bit for bit, |U| <= nullity + 1,
    no atom at or below 1e-12, and every code built passes its exact audit.
    A joint whose walk or mixture LP fails gets a boundary verdict."""
    try:
        value, mech = mm.solve_g0(d)
    except Infeasible:
        return assert_boundary_verdict(d)
    want, whole = whole_joint_g0(d)
    assert abs(value - want) <= 1e-9
    if dist.support_components(d)[0] == 1:
        assert bits(mech.p_u) == bits(whole.p_u)
        assert bits(mech.p_y_given_u) == bits(whole.p_y_given_u)
    _, nullity = rank_and_nullity(dist.kernel_x_given_y(d))
    assert mech.u_size <= nullity + 1
    assert mech.p_u.min() > 1e-12
    a = mm.analyze(d)
    for code in codec.build_codes(a):
        assert codec.check_audit(code, codec.audit(code, d), a.h_given_x.max()) == []


@given(st.sampled_from(sorted(families.FAMILIES)), st.integers(0, 2**32 - 1))
def test_factored_g0_matches_whole_joint_oracle(family, seed):
    assert_factored_g0_matches_whole_joint(families.FAMILIES[family](np.random.default_rng(seed)))


@pytest.mark.parametrize("name", sorted(NAMED_JOINTS))
def test_factored_g0_matches_whole_joint_oracle_on_named_joints(name):
    assert_factored_g0_matches_whole_joint(NAMED_JOINTS[name]())


def assert_g0_matches_array_coupling(d):
    """solve_g0's value, p_u and P(Y|U) equal the array coupling's bit for
    bit, or both raise Infeasible."""
    try:
        want = array_coupled_g0(d)
    except Infeasible:
        with pytest.raises(Infeasible):
            mm.solve_g0(d)
        return
    value, mech = mm.solve_g0(d)
    assert bits(value) == bits(want[0])
    assert mech.p_u.shape == want[1].p_u.shape and bits(mech.p_u) == bits(want[1].p_u)
    assert mech.p_y_given_u.shape == want[1].p_y_given_u.shape
    assert bits(mech.p_y_given_u) == bits(want[1].p_y_given_u)


@given(st.sampled_from([*sorted(families.FAMILIES), "det-f-64"]), st.integers(0, 2**32 - 1))
def test_g0_heap_coupling_matches_array_coupling_oracle(source, seed):
    rng = np.random.default_rng(seed)
    if source == "det-f-64":
        d = families.random_deterministic_pair(rng, x_size=64, y_size=int(rng.integers(64, 193)))
    else:
        d = families.FAMILIES[source](rng)
    assert_g0_matches_array_coupling(d)


@pytest.mark.parametrize("name", sorted(NAMED_JOINTS))
def test_g0_heap_coupling_matches_array_coupling_oracle_on_named_joints(name):
    assert_g0_matches_array_coupling(NAMED_JOINTS[name]())
