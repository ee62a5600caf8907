"""Prefix codes, the two keyed schemes, and the exact-enumeration audits."""

import functools
import importlib.util
import math
import struct
import sys
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    bits,
    encode_pair,
    loop_audit,
    random_small_y_pair,
    unique_first_seen,
    unpadded_reference_leakage,
)

from zeroleak import cli, codec, dist, families, mechanism as mm
from zeroleak.errors import EmptySupport, IncompleteMechanism, MalformedBits, WrongRegime

EX1_KERNEL = np.array([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]], dtype=float)
EX1_PY = np.array([1 / 8, 2 / 8, 3 / 8, 1 / 8, 1 / 16, 1 / 16])


def example1():
    return dist.from_conditional(EX1_KERNEL, EX1_PY)


def example1_code():
    d = example1()
    _, mech = mm.solve_g0(d)
    mech = mm.build_decode_table(d, mech)
    return d, mech, codec.build_two_part(d, mech, codec.build_huffman(mech.p_u))


def uniform_pair(x_size, y_size):
    return dist.validate_and_normalize(np.full((x_size, y_size), 1.0 / (x_size * y_size)))


# ---------------------------------------------------------------------------
# prefix codes


def mean_length(code, p):
    """The expected codeword length of ``code`` under the distribution ``p``."""
    return sum(p[s] * len(c) for s, c in code.codewords.items())


def test_huffman_dyadic():
    code = codec.build_huffman([0.5, 0.25, 0.25])
    lengths = sorted(len(w) for w in code.codewords.values())
    assert lengths == [1, 2, 2]
    assert mean_length(code, [0.5, 0.25, 0.25]) == pytest.approx(1.5, abs=1e-12)
    assert sum(2.0 ** -len(c) for c in code.codewords.values()) == pytest.approx(1.0, abs=1e-12)


def test_huffman_single_symbol_one_bit():
    code = codec.build_huffman([1.0])
    assert code.codewords == {0: "0"}
    assert mean_length(code, [1.0]) == 1.0


def test_huffman_reported_disclosure_distribution():
    p_u = [1 / 6, 1 / 3, 1 / 4, 1 / 4]
    code = codec.build_huffman(p_u)
    h = dist.entropy(p_u)
    assert h == pytest.approx(1.9591, abs=1e-4)
    assert mean_length(code, p_u) <= h + 1.0
    assert mean_length(code, p_u) == pytest.approx(2.0, abs=1e-12)


def test_huffman_random_kraft_and_redundancy():
    rng = np.random.default_rng(61)
    for _ in range(30):
        n = int(rng.integers(1, 12))
        p = rng.dirichlet(np.ones(n))
        code = codec.build_huffman(p)
        assert sum(2.0 ** -len(c) for c in code.codewords.values()) <= 1.0 + 1e-12
        words = sorted(code.codewords.values())
        for a, b in zip(words, words[1:]):
            assert not b.startswith(a), "codewords must be prefix-free"
        if n > 1:
            assert mean_length(code, p) <= dist.entropy(p) + 1.0 + 1e-12


def test_huffman_deterministic():
    p = [0.25, 0.25, 0.25, 0.25]
    assert codec.build_huffman(p).codewords == codec.build_huffman(p).codewords


# ---------------------------------------------------------------------------
# two-part scheme


def test_two_part_example1_shape_and_bound():
    d, mech, code = example1_code()
    assert code.field_bits == 1
    assert code.key_size == 2
    hu = dist.entropy(mech.p_u)
    a = codec.audit(code, d)
    assert a.expected_length <= 1.0 + hu + 1.0 + 1e-9
    # the reference numbers: H(U) <= 1.9591 so total <= 3.9591, beating
    # ceil(log2 5) + ceil(log2 2) = 4
    assert a.expected_length <= 3.9591 + 1e-3
    assert a.expected_length < 4.0


def test_two_part_requires_decode_table():
    d = example1()
    _, mech = mm.solve_g0(d)
    with pytest.raises(IncompleteMechanism):
        codec.build_two_part(d, mech, codec.build_huffman(mech.p_u))


def test_two_part_pad_arithmetic():
    d, mech, code = example1_code()
    rng = np.random.default_rng(0)
    bits = encode_pair(code, 0, 0, 1, rng)
    assert bits[0] == "1"  # (x=0 + w=1) mod 2


def test_two_part_exhaustive_roundtrip_example1():
    d, mech, code = example1_code()
    a = codec.audit(code, d)
    assert a.lossless_prob == 1.0
    assert a.mi_c_x <= 1e-9


def test_two_part_per_key_constant():
    # every key's length, summed over that key's events alone, is the
    # audit's one expected length, bit for bit
    d, mech, code = example1_code()
    _, per_key = loop_audit(code, d)
    assert bits(per_key) == bits([codec.audit(code, d).expected_length] * code.key_size)


def test_two_part_sampled_roundtrip():
    d, mech, code = example1_code()
    rng = np.random.default_rng(5)
    py = dist.marginal_y(d)
    for _ in range(200):
        y = int(rng.choice(d.y_size, p=py))
        w = int(rng.integers(code.key_size))
        assert codec.decode(code, codec.encode(code, y, w, rng), w) == y


def test_padded_private_symbol_uniform_and_independent():
    d, mech, code = example1_code()
    px = dist.marginal_x(d)
    m = code.key_size
    joint = np.zeros((d.x_size, m))  # P(x, padded)
    for x in range(d.x_size):
        for w in range(m):
            joint[x, (x + w) % m] += px[x] / m
    padded = joint.sum(axis=0)
    assert np.abs(padded - 1.0 / m).max() <= 1e-12
    mi = sum(
        joint[x, t] * math.log2(joint[x, t] / (px[x] * padded[t]))
        for x in range(d.x_size)
        for t in range(m)
        if joint[x, t] > 0
    )
    assert abs(mi) <= 1e-12


def test_single_private_symbol_empty_pad_field():
    d = uniform_pair(1, 4)
    _, mech = mm.solve_g0(d)
    mech = mm.build_decode_table(d, mech)
    code = codec.build_two_part(d, mech, codec.build_huffman(mech.p_u))
    assert code.field_bits == 0
    assert code.key_size == 1
    a = codec.audit(code, d)
    assert a.lossless_prob == 1.0
    assert a.mi_c_x <= 1e-12


def test_identity_joint_all_weight_on_pad():
    d = dist.validate_and_normalize(np.diag([0.5, 0.3, 0.2]))
    _, mech = mm.solve_g0(d)
    assert mech.u_size == 1
    mech = mm.build_decode_table(d, mech)
    code = codec.build_two_part(d, mech, codec.build_huffman(mech.p_u))
    a = codec.audit(code, d)
    # 2 pad bits plus the 1-bit single-symbol codeword, every message
    assert a.expected_length == pytest.approx(3.0, abs=1e-12)
    assert a.mi_c_x <= 1e-12 and a.lossless_prob == 1.0


# ---------------------------------------------------------------------------
# direct-pad scheme


def test_direct_pad_fixed_lengths():
    for y_size, want in ((4, 2), (3, 2)):
        d = uniform_pair(y_size, y_size)
        code = codec.build_direct_pad(d)
        assert code.field_bits == want
        a = codec.audit(code, d)
        assert a.expected_length == pytest.approx(want, abs=1e-12)


def test_direct_pad_modular_example():
    d = uniform_pair(5, 4)
    code = codec.build_direct_pad(d)
    rng = np.random.default_rng(0)
    assert codec.encode(code, 2, 3, rng) == "01"  # (2+3) mod 4 = 1
    assert codec.decode(code, "01", 3) == 2


def test_direct_pad_zero_leakage_random():
    rng = np.random.default_rng(67)
    for _ in range(20):
        d = random_small_y_pair(rng)
        code = codec.build_direct_pad(d)
        a = codec.audit(code, d)
        assert a.mi_c_x <= 1e-12
        assert a.lossless_prob == 1.0


def test_direct_pad_wrong_regime():
    with pytest.raises(WrongRegime):
        codec.build_direct_pad(uniform_pair(2, 3))


# ---------------------------------------------------------------------------
# audits across random member instances


def test_two_part_properties_random_members():
    rng = np.random.default_rng(71)
    for _ in range(20):
        d = families.random_deterministic_pair(rng)
        _, mech = mm.solve_g0(d)
        mech = mm.build_decode_table(d, mech)
        code = codec.build_two_part(d, mech, codec.build_huffman(mech.p_u))
        a = codec.audit(code, d)
        hu = dist.entropy(mech.p_u)
        cap = hu + 1.0 + codec.ceil_log2(d.x_size) + 1e-9
        assert a.mi_c_x <= 1e-9
        assert a.lossless_prob == 1.0
        assert a.expected_length <= cap
        assert sum(2.0 ** -len(c) for c in code.u_code.codewords.values()) <= 1.0 + 1e-12


def test_achieved_length_above_converse():
    rng = np.random.default_rng(73)
    for _ in range(20):
        d = families.random_deterministic_pair(rng)
        _, mech = mm.solve_g0(d)
        mech = mm.build_decode_table(d, mech)
        a = codec.audit(codec.build_two_part(d, mech, codec.build_huffman(mech.p_u)), d)
        conv = dist.conditional_entropies(d).max()
        assert a.expected_length >= conv - 1e-9


def test_negative_control_unpadded_code_leaks():
    d = example1()
    leak = unpadded_reference_leakage(d)
    assert leak > 0.01
    assert leak == pytest.approx(dist.mutual_information(d), abs=1e-9)


# ---------------------------------------------------------------------------
# scheme selection and the shared audit verdict


def test_build_codes_selects_schemes_in_document_order():
    noisy = dist.from_conditional([[0.9, 0.6, 0.3, 0.1], [0.1, 0.4, 0.7, 0.9]], [0.25] * 4)
    invertible = dist.from_conditional([[0.9, 0.2], [0.1, 0.8]], [0.5, 0.5])
    cases = [
        (example1(), [codec.TWO_PART]),
        (uniform_pair(4, 3), [codec.TWO_PART, codec.DIRECT_PAD]),
        (invertible, [codec.DIRECT_PAD]),
        (noisy, []),
    ]
    for d, schemes in cases:
        assert [c.scheme for c in codec.build_codes(mm.analyze(d))] == schemes


def _leakage_audit(mi_c_x=0.0, lossless_prob=1.0, length=2.75):
    return codec.LeakageAudit(mi_c_x, lossless_prob, length, 0.0, 0.0)


@pytest.mark.parametrize(
    "scheme, fields, named",
    [
        (codec.TWO_PART, {}, None),
        (codec.TWO_PART, {"mi_c_x": 1e-6}, "leakage"),
        (codec.TWO_PART, {"lossless_prob": 0.5}, "lossless_prob"),
        # the cap is H(U) + 1 + field_bits = 3.7296, and holds up to it
        (codec.TWO_PART, {"length": 3.7295}, None),
        (codec.TWO_PART, {"length": 1.25}, "converse"),
        (codec.TWO_PART, {"length": 3.75}, "exceeds H(U)+1+ceil(log|X|)"),
        (codec.DIRECT_PAD, {"length": 2.0}, None),
        (codec.DIRECT_PAD, {"mi_c_x": 1e-10, "length": 2.0}, "leakage"),
        # direct-pad has no cap: its length is its field's, up to round-off
        (codec.DIRECT_PAD, {"length": 3.0}, None),
        # the audit's numpy float is printed as a plain float
        (codec.TWO_PART, {"lossless_prob": np.float64(0.5)}, "lossless_prob = 0.5"),
        (codec.TWO_PART, {"lossless_prob": np.float64(math.nan)}, "lossless_prob = nan"),
    ],
)
def test_check_audit_names_each_invariant(scheme, fields, named):
    if scheme == codec.TWO_PART:
        d, _, code = example1_code()  # H(U) = 1.7296, converse 1.5, cap 3.7296
    else:
        d = uniform_pair(4, 3)
        code = codec.build_direct_pad(d)
    converse = dist.conditional_entropies(d).max()
    violations = codec.check_audit(code, _leakage_audit(**fields), converse)
    if named is None:
        assert violations == []
    else:
        assert len(violations) == 1 and named in violations[0], violations


# ---------------------------------------------------------------------------
# malformed messages


def test_decode_malformed_bits():
    d, mech, code = example1_code()
    with pytest.raises(MalformedBits):
        codec.decode(code, "2x", 0)
    with pytest.raises(MalformedBits):
        codec.decode(code, "", 0)  # shorter than the fixed field
    with pytest.raises(MalformedBits):
        codec.decode(code, "1", 0)  # missing prefix codeword
    rng = np.random.default_rng(9)
    good = codec.encode(code, 0, 0, rng)
    with pytest.raises(MalformedBits):
        codec.decode(code, good + "0", 0)  # trailing bits


def test_prefix_code_reverse_map_built_once():
    code = codec.PrefixCode({0: "0", 1: "10", 2: "10"})
    assert code.by_word == {"0": 0, "10": 2}  # a repeated codeword maps to its last symbol
    assert code.by_word is code.by_word
    assert code.parse("10") == 2
    with pytest.raises(MalformedBits, match="trailing bits"):
        code.parse("01")


def test_prefix_code_empty_codeword_matches_first():
    # direct-pad's one-symbol U: the empty prefix is tried before any other
    code = codec.PrefixCode({0: ""})
    assert code.parse("") == 0
    with pytest.raises(MalformedBits, match="trailing bits"):
        code.parse("0")


@pytest.mark.parametrize("y_size", [1, 3, 4])
def test_direct_pad_messages_on_the_shared_path(y_size):
    # message_bits and decode take the two-part steps (field, codeword of U,
    # decode table) with U = 0, its empty codeword and decode[y, 0] = y
    code = codec.build_direct_pad(uniform_pair(4, y_size))
    width = codec.ceil_log2(y_size)
    for y in range(y_size):
        for w in range(y_size):
            bits = codec.message_bits(code, 0, 0, y, w)
            assert bits == codec.to_bits((y + w) % y_size, width)
            assert codec.decode(code, bits, w) == y
            with pytest.raises(MalformedBits):
                codec.decode(code, bits + "0", w)
    if y_size == 1:
        assert codec.message_bits(code, 0, 0, 0, 0) == ""


def test_direct_pad_malformed_field():
    d = uniform_pair(3, 3)
    code = codec.build_direct_pad(d)
    with pytest.raises(MalformedBits):
        codec.decode(code, "11", 0)  # value 3 >= modulus 3
    with pytest.raises(MalformedBits):
        codec.decode(code, "011", 0)  # trailing bits


def test_encode_pair_rejected_for_direct_pad():
    d = uniform_pair(3, 3)
    code = codec.build_direct_pad(d)
    with pytest.raises(WrongRegime):
        encode_pair(code, 0, 0, 0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the vectorised audit against the loop oracle


def _mutations(code, rng):
    """The code itself, then hostile edits of it: codewords and decode
    entries, for direct-pad's one-symbol U too."""
    yield "as built", code
    words = code.u_code.codewords
    u = int(rng.integers(len(words)))

    def with_word(word, at=u):
        edited = {**words, at: word}
        return replace(code, u_code=codec.PrefixCode(edited))

    if len(words) > 1:
        yield "duplicated codeword", with_word(words[(u + 1) % len(words)])
        yield "codeword behind another's", with_word(words[(u + 1) % len(words)] + words[u])
    yield "extended codeword", with_word(words[u] + "0")
    yield "non-binary codeword", with_word(words[u][:-1] + "2")
    yield "empty codeword", with_word("")
    table = code.mech.decode
    entries = np.argwhere(table >= 0)
    key = tuple(entries[int(rng.integers(len(entries)))])

    def with_entry(y):
        edited = table.copy()
        edited[key] = y
        return replace(code, mech=replace(code.mech, decode=edited))

    yield "wrong decode entry", with_entry((table[key] + 1) % code.y_size)
    yield "missing decode entry", with_entry(-1)
    # a code document stores a y outside 0..|Y|-1 as |Y|
    yield "out-of-range decode value", with_entry(code.y_size)


def _outcome(audit_fn, code, d):
    """Every audit field as exact bytes (the sign of zero included), with the
    type of ``lossless_prob`` and the expected length under each key (the
    loop oracle's own per-key figures), or the exception's type and message."""
    try:
        a = audit_fn(code, d)
    except (MalformedBits, ValueError) as exc:
        return type(exc).__name__, str(exc)
    a, per_key = a if audit_fn is loop_audit else (a, [a.expected_length] * code.key_size)
    scalars = (a.mi_c_x, a.lossless_prob, a.mi_c_x_given_y, a.h_y_given_x_c)
    return bits(scalars), type(a.lossless_prob), bits(per_key)


def _audits_match_loop(d, rng):
    """Assert that each code of ``d`` and each of its mutations audits as the
    loop oracle does; return the schemes checked."""
    codes = codec.build_codes(mm.analyze(d))
    for code in codes:
        for name, mutant in _mutations(code, rng):
            assert _outcome(codec.audit, mutant, d) == _outcome(loop_audit, mutant, d), (
                code.scheme,
                name,
            )
    return [code.scheme for code in codes]


@given(st.sampled_from(["example1", *families.FAMILIES]), st.integers(0, 2**32 - 1))
def test_audit_matches_loop_oracle(family, seed):
    rng = np.random.default_rng(seed)
    _audits_match_loop(example1() if family == "example1" else families.FAMILIES[family](rng), rng)


@pytest.mark.parametrize("scale", [0.0, 5e-324], ids=["zero", "underflowing"])
def test_audit_without_positive_mass_is_empty_support(scale):
    # every P(u|y), or every event mass p(x, y) P(u|y) / m, is 0
    d, _, code = example1_code()
    code = replace(code, p_u_given_y=code.p_u_given_y * scale)
    for audit_fn in (codec.audit, loop_audit):
        with pytest.raises(EmptySupport, match="no .* event has positive mass"):
            audit_fn(code, d)


def _ints(values):
    return np.array(values, dtype=np.int64)


# key arrays >= 0: empty, one key, all equal, all distinct, a few keys far
# above their count, and many keys over a small alphabet; the longer ones
# pass 256 keys, where the first-index table widens from 8 to 16 bits
KEY_ARRAYS = st.one_of(
    st.just(_ints([])),
    st.integers(0, 10**5).map(lambda k: _ints([k])),
    st.builds(lambda k, n: _ints([k] * n), st.integers(0, 10**5), st.integers(2, 300)),
    st.integers(2, 300).flatmap(lambda n: st.permutations(range(n))).map(_ints),
    st.lists(st.integers(0, 10**5), max_size=20).map(_ints),
    st.integers(1, 5).flatmap(lambda k: st.lists(st.integers(0, k), max_size=200)).map(_ints),
)


def _same_groups(keys):
    got, want = codec._first_seen(keys), unique_first_seen(keys)
    return all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, want))


@given(KEY_ARRAYS)
def test_first_seen_matches_unique_oracle(keys):
    assert _same_groups(keys)


@given(st.sampled_from(["example1", *families.FAMILIES]), st.integers(0, 2**32 - 1))
def test_first_seen_matches_unique_oracle_on_audit_keys(family, seed):
    # every key array the audit groups, for the code and each of its mutations
    rng = np.random.default_rng(seed)
    d = example1() if family == "example1" else families.FAMILIES[family](rng)
    seen = []

    def recording(keys):
        seen.append(keys.copy())
        return first_seen(keys)

    first_seen = codec._first_seen
    codes = codec.build_codes(mm.analyze(d))
    with patch.object(codec, "_first_seen", recording):
        for code in codes:
            for _, mutant in _mutations(code, rng):
                _outcome(codec.audit, mutant, d)
    # a full-support joint with |Y| > |X| may get no code, so no keys
    assert bool(seen) == bool(codes) and all(_same_groups(keys) for keys in seen)


def test_audit_zero_conditional_entropy_is_positive_zero():
    d, mech, code = example1_code()
    assert struct.pack("<d", codec.audit(code, d).h_y_given_x_c) == struct.pack("<d", 0.0)


def test_log_ratio_terms_of_underflowing_masses_are_finite():
    # p log2(a b / (c e)) entry by entry: with normal products it is that
    # expression bit for bit; where a product underflows the factors' logs
    # are added instead; a p of 0 gives 0
    p = np.array([0.25, 1e-320, 1e-200, 0.0])
    a = np.array([0.5, 1e-320, 1e-200, 0.0])
    b = np.array([0.125, 0.5, 1e-200, 0.0])
    c = np.array([0.75, 1e-320, 0.5, 0.0])
    e = np.array([0.1, 0.5, 1e-200, 0.0])
    got = codec._p_log2_ratio(p, (a, b), (c, e))
    assert bits(got[0]) == bits(p[0] * np.log2(a[0] * b[0] / (c[0] * e[0])))
    assert got[1] == 0.0 and got[3] == 0.0
    assert got[2] == pytest.approx(1e-200 * (math.log2(1e-200) + 1.0), rel=1e-12)


@pytest.mark.parametrize("q", [5e-324, 0.5], ids=["underflowing-mass", "normal-mass"])
def test_audit_total_shortcut_matches_loop_oracle(q):
    # one wrong decode entry on the triple (x, y, u) = (1, 5, 1), with
    # p(x, y) = 1/16 and P(u|y) = q > 0: when its event mass p q / m
    # underflows to 0 no mass fails, lossless_prob is 1.0 with the total
    # never summed; otherwise the failed mass is positive
    d, _, code = example1_code()
    p_u_given_y = code.p_u_given_y.copy()
    p_u_given_y[1, 5] = q
    decode = code.mech.decode.copy()
    decode[1, 1] = 4
    code = replace(code, p_u_given_y=p_u_given_y, mech=replace(code.mech, decode=decode))
    x, y, u, mass = codec._events(code, d)
    wrong = codec._messages(code, x, y, u)[2] != y
    assert [a[wrong].tolist() for a in (x, y, u)] == [[1], [5], [1]]
    assert (mass[wrong][0] == 0.0) == (q < 1e-300)
    assert _outcome(codec.audit, code, d) == _outcome(loop_audit, code, d)
    assert (codec.audit(code, d).lossless_prob == 1.0) == (q < 1e-300)


@functools.cache
def _benchmark_workloads():
    """``perfbench/workloads.py``'s table of workloads, loaded once by path
    (its dataclasses need the module registered while it runs)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["det-wide", "ci-deep", "audit-heavy", "batch-small"])
def test_audit_matches_loop_on_benchmark_ladder(workload, seed):
    # every code built on a benchmark pool's inputs, read as the benchmark
    # reads them, audits as the loop oracle does, bit for bit
    pool = _benchmark_workloads()[workload].build(np.random.default_rng(seed))
    checked = 0
    for instance in pool:
        d = cli.parse_distribution_text(instance.text)
        for code in codec.build_codes(mm.analyze(d)):
            assert _outcome(codec.audit, code, d) == _outcome(loop_audit, code, d), (instance.name, code.scheme)
            checked += 1
    assert checked >= len(pool)


@pytest.mark.parametrize("shape", [(2, 16, 8), (2, 14, 9), (3, 11, 5)], ids=str)
def test_audit_matches_loop_oracle_on_audit_heavy_shapes(shape):
    # common-info (|V|, |N1|, |N2|) with |X| up to 33, the audit-heavy
    # benchmark's widest shapes, which the families never draw
    rng = np.random.default_rng(1)
    d = families.random_common_info_pair(rng, *shape)
    assert _audits_match_loop(d, rng) == [codec.TWO_PART, codec.DIRECT_PAD]


@given(st.sampled_from(sorted(families.FAMILIES)), st.integers(0, 2**32 - 1))
def test_each_scheme_reads_back_the_code_it_writes(family, seed):
    # a scheme's reader, given the written lines and the joint, rebuilds
    # the code its writer wrote, bit for bit, and names no violation
    d = families.FAMILIES[family](np.random.default_rng(seed))
    for code in codec.build_codes(mm.analyze(d)):
        lines = codec.write_head(d, [code.scheme]) + codec.write_code(code)
        doc, _, schemes = codec.parse_code_document("".join(line + "\n" for line in lines))
        rebuilt, violations = codec.read_code(doc, code.scheme, d)
        assert schemes == [code.scheme] and violations == []
        assert (rebuilt.scheme, rebuilt.key_size) == (code.scheme, code.key_size)
        assert rebuilt.u_code.codewords == code.u_code.codewords
        for name in ("p_u", "p_y_given_u", "decode"):
            want, got = getattr(code.mech, name), getattr(rebuilt.mech, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
