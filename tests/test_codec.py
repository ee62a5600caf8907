"""Prefix codes, the two keyed schemes, and the exact-enumeration audits."""

import math
import struct
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import loop_audit, random_small_y_pair, unique_first_seen, unpadded_reference_leakage

from zeroleak import codec, dist, families, mechanism as mm
from zeroleak.errors import EmptySupport, IncompleteMechanism, MalformedBits, WrongRegime

EX1_KERNEL = np.array([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]], dtype=float)
EX1_PY = np.array([1 / 8, 2 / 8, 3 / 8, 1 / 8, 1 / 16, 1 / 16])


def example1():
    return dist.from_conditional(EX1_KERNEL, EX1_PY)


def example1_code():
    d = example1()
    _, mech = mm.solve_g0(d)
    mech = mm.build_decode_table(d, mech)
    return d, mech, codec.build_two_part(d, mech)


def uniform_pair(x_size, y_size):
    return dist.validate_and_normalize(np.full((x_size, y_size), 1.0 / (x_size * y_size)))


# ---------------------------------------------------------------------------
# prefix codes


def test_huffman_dyadic():
    code = codec.build_huffman([0.5, 0.25, 0.25])
    lengths = sorted(len(w) for w in code.codewords.values())
    assert lengths == [1, 2, 2]
    assert code.expected_length == pytest.approx(1.5, abs=1e-12)
    assert code.kraft_sum() == pytest.approx(1.0, abs=1e-12)


def test_huffman_single_symbol_one_bit():
    code = codec.build_huffman([1.0])
    assert code.codewords == {0: "0"}
    assert code.expected_length == 1.0


def test_huffman_reported_disclosure_distribution():
    p_u = [1 / 6, 1 / 3, 1 / 4, 1 / 4]
    code = codec.build_huffman(p_u)
    h = dist.entropy(p_u)
    assert h == pytest.approx(1.9591, abs=1e-4)
    assert code.expected_length <= h + 1.0
    assert code.expected_length == pytest.approx(2.0, abs=1e-12)


def test_huffman_random_kraft_and_redundancy():
    rng = np.random.default_rng(61)
    for _ in range(30):
        n = int(rng.integers(1, 12))
        p = rng.dirichlet(np.ones(n))
        code = codec.build_huffman(p)
        assert code.kraft_sum() <= 1.0 + 1e-12
        words = sorted(code.codewords.values())
        for a, b in zip(words, words[1:]):
            assert not b.startswith(a), "codewords must be prefix-free"
        if n > 1:
            assert code.expected_length <= dist.entropy(p) + 1.0 + 1e-12


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
    assert a.per_key_expected_length.max() <= 1.0 + hu + 1.0 + 1e-9
    # the reference numbers: H(U) <= 1.9591 so total <= 3.9591, beating
    # ceil(log2 5) + ceil(log2 2) = 4
    assert a.per_key_expected_length.max() <= 3.9591 + 1e-3
    assert a.per_key_expected_length.max() < 4.0


def test_two_part_requires_decode_table():
    d = example1()
    _, mech = mm.solve_g0(d)
    with pytest.raises(IncompleteMechanism):
        codec.build_two_part(d, mech)


def test_two_part_pad_arithmetic():
    d, mech, code = example1_code()
    rng = np.random.default_rng(0)
    bits = codec.encode_pair(code, 0, 0, 1, rng)
    assert bits[0] == "1"  # (x=0 + w=1) mod 2


def test_two_part_exhaustive_roundtrip_example1():
    d, mech, code = example1_code()
    a = codec.audit(code, d)
    assert a.lossless_prob == 1.0
    assert a.mi_c_x <= 1e-9


def test_two_part_per_key_constant():
    d, mech, code = example1_code()
    a = codec.audit(code, d)
    assert float(np.ptp(a.per_key_expected_length)) <= 1e-12


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
    code = codec.build_two_part(d, mech)
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
    code = codec.build_two_part(d, mech)
    a = codec.audit(code, d)
    # 2 pad bits plus the 1-bit single-symbol codeword, every message
    assert np.allclose(a.per_key_expected_length, 3.0, atol=1e-12)
    assert a.mi_c_x <= 1e-12 and a.lossless_prob == 1.0


# ---------------------------------------------------------------------------
# direct-pad scheme


def test_direct_pad_fixed_lengths():
    for y_size, want in ((4, 2), (3, 2)):
        d = uniform_pair(y_size, y_size)
        code = codec.build_direct_pad(d)
        assert code.field_bits == want
        a = codec.audit(code, d)
        assert np.allclose(a.per_key_expected_length, want, atol=1e-12)


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
        code = codec.build_two_part(d, mech)
        a = codec.audit(code, d)
        hu = dist.entropy(mech.p_u)
        cap = hu + 1.0 + codec.ceil_log2(d.x_size) + 1e-9
        assert a.mi_c_x <= 1e-9
        assert a.lossless_prob == 1.0
        assert float(np.ptp(a.per_key_expected_length)) <= 1e-12
        assert a.per_key_expected_length.max() <= cap
        assert code.u_code.kraft_sum() <= 1.0 + 1e-12


def test_achieved_length_above_converse():
    rng = np.random.default_rng(73)
    for _ in range(20):
        d = families.random_deterministic_pair(rng)
        _, mech = mm.solve_g0(d)
        mech = mm.build_decode_table(d, mech)
        a = codec.audit(codec.build_two_part(d, mech), d)
        conv = dist.conditional_entropies(d).max()
        assert a.per_key_expected_length.max() >= conv - 1e-9


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


def _leakage_audit(mi_c_x=0.0, lossless_prob=1.0, lengths=(2.75, 2.75)):
    return codec.LeakageAudit(mi_c_x, lossless_prob, np.array(lengths, dtype=float), 0.0, 0.0)


@pytest.mark.parametrize(
    "scheme, fields, named",
    [
        (codec.TWO_PART, {}, None),
        (codec.TWO_PART, {"mi_c_x": 1e-6}, "leakage"),
        (codec.TWO_PART, {"lossless_prob": 0.5}, "lossless_prob"),
        (codec.TWO_PART, {"lengths": (2.75, 2.5)}, "per-key length varies"),
        (codec.TWO_PART, {"lengths": (1.25, 1.25)}, "converse"),
        (codec.TWO_PART, {"lengths": (3.75, 3.75)}, "exceeds H(U)+1+ceil(log|X|)"),
        (codec.DIRECT_PAD, {"lengths": (2.0, 2.0, 2.0)}, None),
        (codec.DIRECT_PAD, {"mi_c_x": 1e-10, "lengths": (2.0, 2.0, 2.0)}, "leakage"),
        (codec.DIRECT_PAD, {"lengths": (3.0, 3.0, 3.0)}, "not exactly 2"),
        # the audit's numpy float is printed as a plain float
        (codec.TWO_PART, {"lossless_prob": np.float64(0.5)}, "lossless_prob = 0.5"),
        (codec.TWO_PART, {"lossless_prob": np.float64(math.nan)}, "lossless_prob = nan"),
        # exact within 1e-12 absolute, with no relative slack
        (codec.DIRECT_PAD, {"lengths": (2.000001, 2.000001, 2.000001)}, "not exactly 2"),
    ],
)
def test_check_audit_names_each_invariant(scheme, fields, named):
    if scheme == codec.TWO_PART:
        d, mech, code = example1_code()  # H(U) = 1.7296, converse 1.5, cap 3.7296
        hu = dist.entropy(mech.p_u)
    else:
        d = uniform_pair(4, 3)
        code, hu = codec.build_direct_pad(d), None
    converse = dist.conditional_entropies(d).max()
    violations = codec.check_audit(code, _leakage_audit(**fields), d, hu, converse)
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
    code = codec.PrefixCode({0: "0", 1: "10", 2: "10"}, 1.5)
    assert code.by_word == {"0": 0, "10": 2}  # a repeated codeword maps to its last symbol
    assert code.by_word is code.by_word
    assert code.parse("10") == 2
    with pytest.raises(MalformedBits, match="trailing bits"):
        code.parse("01")


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
        codec.encode_pair(code, 0, 0, 0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the vectorised audit against the loop oracle


def _mutations(code, rng):
    """The code itself, then hostile edits of it: key sizes, field widths,
    codewords and decode entries."""
    yield "as built", code
    yield "key_size = 1", replace(code, key_size=1)
    yield "key_size + 2", replace(code, key_size=code.key_size + 2)
    yield "key_size x 2", replace(code, key_size=code.key_size * 2)
    yield "field_bits + 1", replace(code, field_bits=code.field_bits + 1)
    yield "field_bits = 0", replace(code, field_bits=0)
    if code.field_bits > 1:
        yield "field_bits - 1", replace(code, field_bits=code.field_bits - 1)
    if code.scheme != codec.TWO_PART:
        return
    words = code.u_code.codewords
    u = int(rng.integers(len(words)))

    def with_word(word, at=u):
        edited = {**words, at: word}
        return replace(code, u_code=codec.PrefixCode(edited, code.u_code.expected_length))

    if len(words) > 1:
        yield "duplicated codeword", with_word(words[(u + 1) % len(words)])
        yield "codeword behind another's", with_word(words[(u + 1) % len(words)] + words[u])
    yield "extended codeword", with_word(words[u] + "0")
    yield "non-binary codeword", with_word(words[u][:-1] + "2")
    yield "empty codeword", with_word("")
    table = code.mech.decode
    key = sorted(table)[int(rng.integers(len(table)))]

    def with_table(edited):
        return replace(code, mech=replace(code.mech, decode=edited))

    yield "wrong decode entry", with_table({**table, key: (table[key] + 1) % code.y_size})
    yield "missing decode entry", with_table({k: v for k, v in table.items() if k != key})
    yield "out-of-range decode value", with_table({**table, key: code.y_size})
    # a code document may hold integers of any size
    yield "decode entries beyond 64 bits", with_table({**table, key: 1 << 64, (-1 << 64, 0): 0})


def _outcome(audit_fn, code, d):
    """Every audit field as exact bytes (the sign of zero included), with the
    type of ``lossless_prob``, or the exception's type and message."""
    try:
        a = audit_fn(code, d)
    except (MalformedBits, ValueError) as exc:
        return type(exc).__name__, str(exc)
    scalars = (a.mi_c_x, a.lossless_prob, a.mi_c_x_given_y, a.h_y_given_x_c)
    per_key = a.per_key_expected_length
    return (
        [struct.pack("<d", v) for v in scalars],
        type(a.lossless_prob),
        per_key.shape,
        [struct.pack("<d", v) for v in per_key],
    )


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
    with patch.object(codec, "_first_seen", recording):
        for code in codec.build_codes(mm.analyze(d)):
            for _, mutant in _mutations(code, rng):
                _outcome(codec.audit, mutant, d)
    assert seen and all(_same_groups(keys) for keys in seen)


def test_audit_zero_conditional_entropy_is_positive_zero():
    d, mech, code = example1_code()
    assert struct.pack("<d", codec.audit(code, d).h_y_given_x_c) == struct.pack("<d", 0.0)


@pytest.mark.parametrize("shape", [(2, 16, 8), (2, 14, 9), (3, 11, 5)], ids=str)
def test_audit_matches_loop_oracle_on_audit_heavy_shapes(shape):
    # common-info (|V|, |N1|, |N2|) with |X| up to 33, the audit-heavy
    # benchmark's widest shapes, which the families never draw
    rng = np.random.default_rng(1)
    d = families.random_common_info_pair(rng, *shape)
    assert _audits_match_loop(d, rng) == [codec.TWO_PART, codec.DIRECT_PAD]
