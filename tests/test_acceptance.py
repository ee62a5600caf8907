"""Acceptance suite: every criterion checked at its stated tolerance.

Each test prints exactly one `criterion N ...: PASS/FAIL` line; shared
instance sets are generated once from fixed seeds so criteria that refer to
"the same instances" really do see the same instances.
"""

import math
import time

import numpy as np

from conftest import bound_matrices, random_small_y_pair, unpadded_reference_leakage

from zeroleak import codec, dist, families, mechanism as mm, report
from zeroleak.linalg import rank_and_nullity

EX1_KERNEL = np.array([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]], dtype=float)
EX1_PY = np.array([1 / 8, 2 / 8, 3 / 8, 1 / 8, 1 / 16, 1 / 16])

_cache: dict = {}


def _verdict(label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def det_instances():
    """200 random X = f(Y) instances shared by criteria 2-4."""
    if "det" not in _cache:
        rng = np.random.default_rng(2401)
        _cache["det"] = [families.random_deterministic_pair(rng) for _ in range(200)]
    return _cache["det"]


def synthesized(d):
    key = ("mech", d.p.shape, d.p.tobytes())
    if key not in _cache:
        _cache[key] = mm.solve_g0(d)
    return _cache[key]


def member_codes():
    """Example 1 plus 50 random member instances with their two-part audits."""
    if "codes" not in _cache:
        rng = np.random.default_rng(2402)
        ds = [dist.from_conditional(EX1_KERNEL, EX1_PY)]
        ds += [families.random_deterministic_pair(rng) for _ in range(50)]
        rows = []
        for d in ds:
            _, mech = mm.solve_g0(d)
            mech = mm.build_decode_table(d, mech)
            code = codec.build_two_part(d, mech, codec.build_huffman(mech.p_u))
            rows.append((d, mech, code, codec.audit(code, d)))
        _cache["codes"] = rows
    return _cache["codes"]


def direct_pad_codes():
    """50 random |Y| <= |X| instances with their direct-pad audits."""
    if "pads" not in _cache:
        rng = np.random.default_rng(2403)
        rows = []
        for _ in range(50):
            d = random_small_y_pair(rng, max_y=8)
            code = codec.build_direct_pad(d)
            rows.append((d, code, codec.audit(code, d)))
        _cache["pads"] = rows
    return _cache["pads"]


def test_criterion_1_example_reproduction():
    t0 = time.perf_counter()
    d = dist.from_conditional(EX1_KERNEL, EX1_PY)
    a = mm.analyze(d)
    value, mech = synthesized(d)
    terms = families.information_identity_terms(d, mech)
    hu = dist.entropy(mech.p_u)
    elapsed = time.perf_counter() - t0
    h_cond = dist.conditional_entropy_y_given_x(d)
    problems = []
    if not a.member:
        problems.append("membership false")
    if abs(value - h_cond) > 1e-6:
        problems.append(f"g0 {value} != H(Y|X) {h_cond}")
    if terms["i_xu"] > 1e-9:
        problems.append(f"I(X;U) = {terms['i_xu']:.3g}")
    if terms["h_y_given_xu"] > 1e-9:
        problems.append(f"H(Y|X,U) = {terms['h_y_given_xu']:.3g}")
    if hu > 1.9591 + 1e-3:
        problems.append(f"H(U*) = {hu:.6f} above 1.9591")
    if not (hu + 1.0 <= 2.9591 + 1e-3 and hu + 1.0 < 3.0):
        problems.append(f"H(U*)+1 = {hu + 1:.6f} not below ceil(log2 5) = 3")
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s")
    _verdict(
        "1 (worked-example reproduction)",
        not problems,
        "; ".join(problems) or f"H(U*)={hu:.4f}, {elapsed * 1000:.0f} ms",
    )


def test_criterion_2_nullity_identity():
    t0 = time.perf_counter()
    bad = 0
    for d in det_instances():
        _, nullity = rank_and_nullity(dist.kernel_x_given_y(d))
        if nullity != d.y_size - d.x_size:
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 5.0
    _verdict(
        "2 (nullity = |Y| - |X| on 200 deterministic instances)",
        ok,
        f"{bad} mismatches, {elapsed:.2f}s",
    )


def test_criterion_3_entropy_sandwich():
    bad = []
    for i, d in enumerate(det_instances()):
        a = mm.analyze(d)
        hu, b = a.achieved_hu, a.bounds
        if not (b.k_lower - 1e-6 <= hu <= b.k_upper_strengthened + 1e-6):
            bad.append(i)
        elif b.k_upper_strengthened > b.log_nullity_bound + 1e-6:
            bad.append(i)
    _verdict(
        "3 (LP sandwich on 200 deterministic instances)",
        not bad,
        f"{len(bad)} failures" if bad else "200/200 inside bracket",
    )


def test_criterion_4_information_identity():
    worst = 0.0
    count = 0
    ds = [dist.from_conditional(EX1_KERNEL, EX1_PY)] + det_instances()
    for d in ds:
        _, mech = synthesized(d)
        worst = max(worst, families.information_identity_residual(d, mech))
        count += 1
    _verdict(
        "4 (information identity on every synthesized mechanism)",
        worst <= 1e-9,
        f"max residual {worst:.2e} over {count} mechanisms",
    )


def test_criterion_5_two_part_privacy_and_losslessness():
    problems = []
    for i, (d, mech, code, a) in enumerate(member_codes()):
        hu = dist.entropy(mech.p_u)
        cap = hu + 1.0 + codec.ceil_log2(d.x_size) + 1e-9
        if a.mi_c_x > 1e-9:
            problems.append(f"#{i} leakage {a.mi_c_x:.2e}")
        if a.lossless_prob != 1.0:
            problems.append(f"#{i} lossy")
        if a.expected_length > cap:
            problems.append(f"#{i} exceeds H(U)+1+ceil(log|X|)")
    control = unpadded_reference_leakage(dist.from_conditional(EX1_KERNEL, EX1_PY))
    if control <= 0.01:
        problems.append(f"negative control leaked only {control:.4f}")
    _verdict(
        "5 (two-part: zero leakage, lossless, length cap; negative control)",
        not problems,
        "; ".join(problems[:3]) or f"51 instances, control leak {control:.3f} bits",
    )


def test_criterion_6_direct_pad_regime():
    problems = []
    for i, (d, code, a) in enumerate(direct_pad_codes()):
        want = codec.ceil_log2(d.y_size)
        rng = np.random.default_rng(0)
        lengths = {
            len(codec.encode(code, y, w, rng))
            for y in range(d.y_size)
            for w in range(code.key_size)
        }
        if lengths != {want}:
            problems.append(f"#{i} lengths {lengths} != {want}")
        if a.mi_c_x > 1e-12:
            problems.append(f"#{i} leakage {a.mi_c_x:.2e}")
        if codec.ceil_log2(d.y_size) <= codec.ceil_log2(d.x_size):
            ups = report.upper_bounds(mm.analyze(d))
            uppers = {e.name: e.bits for e in ups}
            if uppers["pad_y_direct"] > uppers["sum_conditional_entropy"] + 1e-9:
                problems.append(f"#{i} pad bound above closed-form bound")
            if not report.improvement_flags(ups)["small_y_improves"]:
                problems.append(f"#{i} improvement flag not set")
    _verdict(
        "6 (direct-pad: exact widths, zero leakage, improvement flag)",
        not problems,
        "; ".join(problems[:3]) or "50 instances",
    )


def test_criterion_7_converse_soundness():
    problems = []
    achieved_rows = [
        (d, a.expected_length, code.key_size)
        for d, _, code, a in member_codes()
    ] + [(d, a.expected_length, code.key_size) for d, code, a in direct_pad_codes()]
    for i, (d, achieved, m) in enumerate(achieved_rows):
        lowers, nonexistence = report.lower_bounds(mm.analyze(d), key_size=m)
        bound = max(e.bits for e in lowers)
        if achieved < bound - 1e-9:
            problems.append(f"#{i} achieved {achieved:.4f} below converse {bound:.4f}")
        det = mm.x_is_function_of_y(d)
        if nonexistence != (det and m < d.x_size):
            problems.append(f"#{i} nonexistence flag wrong")
    # flag must fire exactly when the key alphabet is too small
    a = mm.analyze(dist.from_conditional(EX1_KERNEL, EX1_PY))
    _, flag_small = report.lower_bounds(a, key_size=1)
    _, flag_ok = report.lower_bounds(a, key_size=2)
    if not flag_small or flag_ok:
        problems.append("nonexistence flag logic")
    _verdict(
        "7 (achieved lengths above every applicable converse)",
        not problems,
        "; ".join(problems[:3]) or f"{len(achieved_rows)} audited codes",
    )


def test_criterion_8_unique_optimizer_sweep():
    rng = np.random.default_rng(2404)
    n_total = 500
    n_size = n_rank = n_notf = n_member = 0
    checked = 0
    failures = []
    for _ in range(n_total):
        v = int(rng.integers(2, 4))
        n2 = int(rng.integers(1, 3))
        n1 = n2 + int(rng.integers(1, 3))
        d = families.random_common_info_pair(rng, v_size=v, n1_size=n1, n2_size=n2)
        if d.x_size < d.y_size + 1:
            continue
        n_size += 1
        a_xy, _ = bound_matrices(d)
        if rank_and_nullity(a_xy)[0] != d.y_size:
            continue
        n_rank += 1
        if dist.conditional_entropy_y_given_x(d) <= mm.TAU_ENT:  # Y = f(X)
            continue
        n_notf += 1
        a = mm.analyze(d)
        if not a.member:
            continue
        n_member += 1
        hu, b = a.achieved_hu, a.bounds
        checked += 1
        if not (abs(b.k_lower - b.k_upper_strengthened) <= 1e-6 and abs(hu - b.k_lower) <= 1e-6):
            failures.append((b.k_lower, b.k_upper_strengthened, hu))
    counts = (
        f"{n_total} drawn, {n_size} with |X|>=|Y|+1, {n_rank} full-rank, "
        f"{n_notf} with Y!=f(X), {n_member} members, {checked} checked"
    )
    if checked == 0:
        _verdict("8 (unique-optimizer clause)", True, "vacuous: " + counts)
    else:
        _verdict("8 (unique-optimizer clause)", not failures, counts)
