"""Prefix codes, the two keyed schemes, and the exact-enumeration audits."""

import math

import numpy as np
import pytest

from conftest import random_small_y_pair, unpadded_reference_leakage

from zeroleak import codec, dist, families, mechanism as mm
from zeroleak.errors import IncompleteMechanism, MalformedBits, WrongRegime

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
        conv = max(dist.conditional_entropy_per_x(d, x) for x in range(d.x_size))
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
    ],
)
def test_check_audit_names_each_invariant(scheme, fields, named):
    if scheme == codec.TWO_PART:
        d, mech, code = example1_code()  # H(U) = 1.7296, converse 1.5, cap 3.7296
        hu = dist.entropy(mech.p_u)
    else:
        d = uniform_pair(4, 3)
        code, hu = codec.build_direct_pad(d), None
    violations = codec.check_audit(code, _leakage_audit(**fields), d, hu)
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
