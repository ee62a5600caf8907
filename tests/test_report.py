"""Assembled length bounds: values, applicability tags, and consistency."""

import math

import numpy as np
import pytest

from zeroleak import codec, dist, families, mechanism as mm, report
from zeroleak.linalg import rank_and_nullity

EX1_KERNEL = np.array([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]], dtype=float)
EX1_PY = np.array([1 / 8, 2 / 8, 3 / 8, 1 / 8, 1 / 16, 1 / 16])


def example1():
    return dist.from_conditional(EX1_KERNEL, EX1_PY)


def analyzed(d):
    ms = mm.membership_in_phat(d)
    if not ms.member:
        return None, None, ms
    _, mech = mm.solve_g0(d)
    hu = dist.entropy(mech.p_u)
    return mm.theorem1_bounds(d, hu, member=True), hu, ms


def test_upper_bounds_example1():
    d = example1()
    b, hu, _ = analyzed(d)
    uppers = {e.name: e for e in report.upper_bounds(d, b, hu)}
    assert uppers["two_part_achieved_surrogate"].bits == pytest.approx(hu + 2.0, abs=1e-12)
    assert uppers["two_part_achieved_surrogate"].bits <= 1.9591 + 2.0 + 1e-3
    assert uppers["deterministic_prior"].bits == 4.0  # ceil(log2 5) + ceil(log2 2)
    assert uppers["deterministic_prior"].applicability == report.REQ_DET
    assert uppers["nullity_log"].bits == pytest.approx(math.log2(5) + 2.0, abs=1e-9)
    assert "pad_y_direct" not in uppers  # |Y| > |X| here


def test_improvement_flag_example1():
    d = example1()
    b, hu, _ = analyzed(d)
    rep = report.build_report(d, b, hu, member=True)
    assert rep.improvement_flags["member_improves"]
    assert not rep.improvement_flags["small_y_improves"]
    assert ("deterministic_prior", 4.0) in rep.prior_upper


def test_direct_pad_dominates_small_y():
    # |Y| = 3, |X| = 4: padding Y costs 2 bits and beats the closed form
    d = dist.validate_and_normalize(np.full((4, 3), 1 / 12))
    uppers = {e.name: e for e in report.upper_bounds(d, None, None)}
    assert uppers["pad_y_direct"].bits == 2.0
    assert uppers["pad_y_direct"].key_size == 3
    assert uppers["pad_y_direct"].bits <= uppers["sum_conditional_entropy"].bits + 1e-9
    rep = report.build_report(d, member=False)
    assert rep.improvement_flags["small_y_improves"]


def test_single_private_symbol_upper():
    d = dist.validate_and_normalize(np.array([[0.2, 0.3, 0.5]]))
    b, hu, _ = analyzed(d)
    uppers = {e.name: e for e in report.upper_bounds(d, b, hu)}
    # no pad bits when |X| = 1
    assert uppers["two_part_achieved_surrogate"].bits == pytest.approx(hu + 1.0, abs=1e-12)


def test_lower_bounds_example1():
    d = example1()
    lowers, nonexistence = report.lower_bounds(d, key_size=2)
    by_name = {e.name: e for e in lowers}
    assert by_name["max_conditional_entropy"].bits == pytest.approx(1.5, abs=1e-12)
    assert by_name["log_x_size"].bits == pytest.approx(1.0, abs=1e-12)
    assert not nonexistence


def test_nonexistence_flag_small_key():
    d = example1()
    lowers, nonexistence = report.lower_bounds(d, key_size=1)
    assert nonexistence
    assert all(e.name != "log_x_size" for e in lowers)


def test_lower_bounds_independent_pair():
    d = dist.validate_and_normalize(np.outer([0.3, 0.7], [0.2, 0.5, 0.3]))
    lowers, _ = report.lower_bounds(d, key_size=2)
    by_name = {e.name: e for e in lowers}
    hy = dist.entropy(dist.marginal_y(d))
    assert by_name["max_conditional_entropy"].bits == pytest.approx(hy, abs=1e-9)
    b, hu, _ = analyzed(d)
    lowers, _ = report.lower_bounds(d, key_size=2, member=True, k_lower=b.k_lower)
    by_name = {e.name: e for e in lowers}
    assert by_name["lp_conditional_converse"].bits == pytest.approx(hy, abs=1e-9)


def test_case2_nullity_identity():
    rng = np.random.default_rng(79)
    for _ in range(50):
        d = families.random_deterministic_pair(rng)
        _, nullity = rank_and_nullity(dist.kernel_x_given_y(d).k)
        assert nullity == d.y_size - d.x_size


def test_surrogate_below_nullity_bound_when_member():
    rng = np.random.default_rng(83)
    for _ in range(25):
        d = families.random_deterministic_pair(rng)
        b, hu, _ = analyzed(d)
        uppers = {e.name: e.bits for e in report.upper_bounds(d, b, hu)}
        assert uppers["two_part_achieved_surrogate"] <= uppers["nullity_log"] + 1e-9


def test_consistency_lower_below_upper():
    rng = np.random.default_rng(89)
    for _ in range(40):
        d = families.random_deterministic_pair(rng)
        b, hu, ms = analyzed(d)
        rep = report.build_report(d, b, hu, member=ms.member)
        for low in rep.lower:
            for up in rep.upper:
                if low.key_size == up.key_size or low.applicability == report.ALWAYS:
                    assert low.bits <= up.bits + 1e-9, (low, up)


def test_achieved_lengths_inside_bracket():
    rng = np.random.default_rng(97)
    for _ in range(15):
        d = families.random_deterministic_pair(rng)
        b, hu, ms = analyzed(d)
        _, mech = mm.solve_g0(d)
        mech = mm.build_decode_table(d, mech)
        audit = codec.audit(codec.build_two_part(d, mech), d)
        achieved = float(audit.per_key_expected_length.max())
        rep = report.build_report(d, b, hu, member=True)
        key = d.x_size
        applicable_low = [e.bits for e in rep.lower if e.key_size == key]
        assert max(applicable_low) <= achieved + 1e-9
        # the achieved length is guaranteed below the bound for its own
        # construction; other uppers bound the (possibly lower) optimum
        own = {e.name: e.bits for e in rep.upper}["two_part_achieved_surrogate"]
        assert achieved <= own + 1e-9
