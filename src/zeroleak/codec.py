"""Executable private compression with a shared uniform key.

Two schemes:

* two-part: the private symbol is one-time-padded into a fixed-width field,
  followed by a prefix-free codeword for the zero-leakage disclosure U; the
  receiver strips the pad, recovers X, and looks Y up from (X, U).
* direct-pad: when |Y| <= |X|, pad Y itself and send it in a fixed
  ceil(log2 |Y|)-bit field.

Audits never sample: they enumerate the exact joint over (x, y, u, w) and
account for every message bit and every unit of probability mass.
``build_codes`` picks the schemes that apply to an analysis, and
``check_audit`` names the invariants an audit shows broken.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from . import dist
from .dist import JointDistribution
from .errors import (
    IncompleteMechanism,
    InternalError,
    MalformedBits,
    WrongRegime,
)
from .mechanism import Analysis, Mechanism, conditional_u_given_y

TWO_PART = "two-part"
DIRECT_PAD = "direct-pad"


def ceil_log2(n: int) -> int:
    if n < 1:
        raise ValueError("ceil_log2 needs n >= 1")
    return (n - 1).bit_length()


def to_bits(value: int, width: int) -> str:
    """Big-endian fixed-width rendering; width 0 gives the empty string."""
    if width == 0:
        return ""
    if not 0 <= value < (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return format(value, f"0{width}b")


@dataclass(frozen=True)
class PrefixCode:
    """A prefix-free binary code over symbols 0..n-1."""

    codewords: dict[int, str]
    expected_length: float

    def kraft_sum(self) -> float:
        return sum(2.0 ** -len(c) for c in self.codewords.values())


def build_huffman(p) -> PrefixCode:
    """Optimal prefix code for the distribution p.

    Merge ties break on (probability, symbol index) so the table is
    deterministic. A single-symbol alphabet gets the 1-bit codeword "0" so
    the message stays parseable.
    """
    probs = np.asarray(p, dtype=float)
    n = probs.size
    if n < 1:
        raise ValueError("empty distribution")
    if n == 1:
        return PrefixCode(codewords={0: "0"}, expected_length=1.0)
    # heap entries: (probability, tie rank, node id); leaves rank by symbol.
    heap = [(float(probs[i]), i, i) for i in range(n)]
    heapq.heapify(heap)
    children: dict[int, tuple[int, int]] = {}
    next_id = n
    while len(heap) > 1:
        p0, _, a = heapq.heappop(heap)
        p1, _, b = heapq.heappop(heap)
        children[next_id] = (a, b)
        heapq.heappush(heap, (p0 + p1, next_id, next_id))
        next_id += 1
    root = heap[0][2]
    codewords: dict[int, str] = {}

    def assign(node: int, prefix: str) -> None:
        if node < n:
            codewords[node] = prefix or "0"
            return
        lo, hi = children[node]
        assign(lo, prefix + "0")
        assign(hi, prefix + "1")

    assign(root, "")
    expected = float(sum(probs[s] * len(c) for s, c in codewords.items()))
    return PrefixCode(codewords=codewords, expected_length=expected)


@dataclass(frozen=True)
class PrivateCode:
    """An executable keyed code for one joint distribution.

    two-part: key_size = |X|, message = pad field + prefix codeword of U.
    direct-pad: key_size = |Y|, message = fixed ceil(log2 |Y|)-bit padded Y.
    """

    scheme: str
    key_size: int
    pad_modulus: int
    y_size: int
    x_field_bits: int | None = None
    u_code: PrefixCode | None = None
    mech: Mechanism | None = None
    p_u_given_y: np.ndarray | None = None  # [u][y]
    p_x_given_y: np.ndarray | None = None  # [x][y]

    @property
    def fixed_field_bits(self) -> int:
        if self.scheme == TWO_PART:
            return self.x_field_bits or 0
        return ceil_log2(self.pad_modulus)


def build_two_part(d: JointDistribution, mech: Mechanism) -> PrivateCode:
    """Pad X, Huffman-code U; requires a complete decode table on the mechanism."""
    if mech.decode is None:
        raise IncompleteMechanism("mechanism has no decode table; fill it first")
    return PrivateCode(
        scheme=TWO_PART,
        key_size=d.x_size,
        pad_modulus=d.x_size,
        y_size=d.y_size,
        x_field_bits=ceil_log2(d.x_size),
        u_code=build_huffman(mech.p_u),
        mech=mech,
        p_u_given_y=conditional_u_given_y(d, mech),
        p_x_given_y=dist.kernel_x_given_y(d).k,
    )


def build_direct_pad(d: JointDistribution) -> PrivateCode:
    """Pad Y itself; only presented as a scheme in the |Y| <= |X| regime."""
    if d.y_size > d.x_size:
        raise WrongRegime(f"|Y| = {d.y_size} exceeds |X| = {d.x_size}")
    return PrivateCode(
        scheme=DIRECT_PAD,
        key_size=d.y_size,
        pad_modulus=d.y_size,
        y_size=d.y_size,
    )


def build_codes(a: Analysis) -> list[PrivateCode]:
    """The applicable schemes in document order: two-part when the g0
    mechanism is a decodable member, then direct-pad when |Y| <= |X|."""
    codes = []
    if a.member and a.mech_decodable:
        codes.append(build_two_part(a.d, a.mech))
    if a.d.y_size <= a.d.x_size:
        codes.append(build_direct_pad(a.d))
    return codes


def _sample(rng: np.random.Generator, probs: np.ndarray) -> int:
    return int(rng.choice(probs.size, p=probs / probs.sum()))


def message_bits(code: PrivateCode, x: int, u: int, y: int, w: int) -> str:
    """The deterministic bitstring for fully specified realizations."""
    if code.scheme == TWO_PART:
        padded = (x + w) % code.pad_modulus
        assert code.u_code is not None
        return to_bits(padded, code.fixed_field_bits) + code.u_code.codewords[u]
    padded = (y + w) % code.pad_modulus
    return to_bits(padded, code.fixed_field_bits)


def encode(code: PrivateCode, y: int, w: int, rng: np.random.Generator) -> str:
    """Encode observing only y; private symbol and disclosure are sampled."""
    _check_key(code, w)
    if not 0 <= y < code.y_size:
        raise ValueError(f"y = {y} outside alphabet of size {code.y_size}")
    if code.scheme == DIRECT_PAD:
        return message_bits(code, 0, 0, y, w)
    assert code.p_x_given_y is not None and code.p_u_given_y is not None
    x = _sample(rng, code.p_x_given_y[:, y])
    u = _sample(rng, code.p_u_given_y[:, y])
    return message_bits(code, x, u, y, w)


def encode_pair(code: PrivateCode, x: int, y: int, w: int, rng: np.random.Generator) -> str:
    """Two-part encoding when the encoder observes (x, y) jointly."""
    if code.scheme != TWO_PART:
        raise WrongRegime("encode_pair only applies to the two-part scheme")
    _check_key(code, w)
    assert code.p_u_given_y is not None
    u = _sample(rng, code.p_u_given_y[:, y])
    return message_bits(code, x, u, y, w)


def _check_key(code: PrivateCode, w: int) -> None:
    if not 0 <= w < code.key_size:
        raise ValueError(f"key w = {w} outside 0..{code.key_size - 1}")


def decode(code: PrivateCode, bits: str, w: int) -> int:
    """Recover y from a message and the shared key. Raises MalformedBits."""
    _check_key(code, w)
    if bits.strip("01"):
        raise MalformedBits(f"non-binary characters in {bits!r}")
    field = code.fixed_field_bits
    if len(bits) < field:
        raise MalformedBits(f"message shorter than the {field}-bit fixed field")
    padded = int(bits[:field], 2) if field else 0
    if padded >= code.pad_modulus:
        raise MalformedBits(f"fixed field value {padded} out of range")
    if code.scheme == DIRECT_PAD:
        if len(bits) != field:
            raise MalformedBits("trailing bits after the fixed field")
        return (padded - w) % code.pad_modulus
    x = (padded - w) % code.pad_modulus
    assert code.u_code is not None and code.mech is not None
    rest = bits[field:]
    by_word = {c: s for s, c in code.u_code.codewords.items()}
    u = None
    for end in range(1, len(rest) + 1):
        if rest[:end] in by_word:
            u = by_word[rest[:end]]
            if end != len(rest):
                raise MalformedBits("trailing bits after the prefix codeword")
            break
    if u is None:
        raise MalformedBits(f"no prefix codeword matches {rest!r}")
    assert code.mech.decode is not None
    if (x, u) not in code.mech.decode:
        raise MalformedBits(f"pair (x={x}, u={u}) has no decodable y")
    return code.mech.decode[(x, u)]


@dataclass(frozen=True)
class LeakageAudit:
    """Exact-enumeration audit of one code against one joint distribution."""

    mi_c_x: float
    lossless_prob: float
    per_key_expected_length: np.ndarray
    mi_c_x_given_y: float
    h_y_given_x_c: float


def _events(code: PrivateCode, d: JointDistribution):
    """Yield (x, y, u, w, mass) over the exact joint; u = 0 for direct-pad."""
    m = code.key_size
    if code.scheme == DIRECT_PAD:
        for x in range(d.x_size):
            for y in range(d.y_size):
                if d.p[x, y] <= 0.0:
                    continue
                for w in range(m):
                    yield x, y, 0, w, d.p[x, y] / m
        return
    assert code.p_u_given_y is not None
    for x in range(d.x_size):
        for y in range(d.y_size):
            if d.p[x, y] <= 0.0:
                continue
            for u in range(code.p_u_given_y.shape[0]):
                pu = code.p_u_given_y[u, y]
                if pu <= 0.0:
                    continue
                for w in range(m):
                    yield x, y, u, w, d.p[x, y] * pu / m


def audit(code: PrivateCode, d: JointDistribution) -> LeakageAudit:
    """Enumerate every (x, y, u, w) event and account for it exactly.

    Computes I(C; X), the probability of correct decoding, the expected
    message length conditioned on each key value, and the two received-code
    diagnostics I(C; X | Y) and H(Y | X, C).
    """
    if code.y_size != d.y_size:
        raise InternalError("code and distribution disagree on |Y|")
    m = code.key_size
    p_cx: dict[tuple[str, int], float] = {}
    p_xyc: dict[tuple[int, int, str], float] = {}
    len_w = np.zeros(m)
    failed = 0.0
    total = 0.0
    for x, y, u, w, mass in _events(code, d):
        c = message_bits(code, x, u, y, w)
        total += mass
        len_w[w] += mass * len(c)
        p_cx[(c, x)] = p_cx.get((c, x), 0.0) + mass
        p_xyc[(x, y, c)] = p_xyc.get((x, y, c), 0.0) + mass
        if decode(code, c, w) != y:
            failed += mass
    per_key = len_w * m  # divide out P(w) = 1/m per conditional expectation

    p_c: dict[str, float] = {}
    p_x: dict[int, float] = {}
    for (c, x), mass in p_cx.items():
        p_c[c] = p_c.get(c, 0.0) + mass
        p_x[x] = p_x.get(x, 0.0) + mass
    mi = sum(
        mass * np.log2(mass / (p_c[c] * p_x[x])) for (c, x), mass in p_cx.items()
    )

    p_yc: dict[tuple[int, str], float] = {}
    p_xc: dict[tuple[int, str], float] = {}
    for (x, y, c), mass in p_xyc.items():
        p_yc[(y, c)] = p_yc.get((y, c), 0.0) + mass
        p_xc[(x, c)] = p_xc.get((x, c), 0.0) + mass
    p_y = dist.marginal_y(d)
    # I(X;C|Y) = sum p(x,y,c) log [ p(x,y,c) p(y) / (p(x,y) p(y,c)) ]
    mi_cond = 0.0
    for (x, y, c), mass in p_xyc.items():
        mi_cond += mass * np.log2(mass * p_y[y] / (d.p[x, y] * p_yc[(y, c)]))
    h_y_given_xc = 0.0
    for (x, y, c), mass in p_xyc.items():
        h_y_given_xc -= mass * np.log2(mass / p_xc[(x, c)])

    return LeakageAudit(
        mi_c_x=float(max(mi, 0.0)),
        lossless_prob=1.0 - failed / total,
        per_key_expected_length=per_key,
        mi_c_x_given_y=float(max(mi_cond, 0.0)),
        h_y_given_x_c=float(max(h_y_given_xc, 0.0)),
    )


def check_audit(
    code: PrivateCode, audit: LeakageAudit, d: JointDistribution, achieved_hu: float | None
) -> list[str]:
    """Name every invariant the audit shows broken: zero leakage, lossless,
    one length for every key, the converse max_x H(Y|X=x), and at most
    H(U) + 1 + ceil(log2 |X|) bits (two-part, when ``achieved_hu`` is given)
    or exactly ceil(log2 |Y|) bits (direct-pad)."""
    scheme = code.scheme
    lengths = audit.per_key_expected_length
    violations = []
    tol_leak = 1e-9 if scheme == TWO_PART else 1e-12
    if audit.mi_c_x > tol_leak:
        violations.append(f"{scheme}: leakage mi_c_x = {audit.mi_c_x:.3g}")
    if audit.lossless_prob != 1.0:
        violations.append(f"{scheme}: lossless_prob = {audit.lossless_prob!r}")
    spread = float(np.ptp(lengths))
    if spread > 1e-12:
        violations.append(f"{scheme}: per-key length varies by {spread:.3g}")
    converse = max(dist.conditional_entropy_per_x(d, x) for x in range(d.x_size))
    if lengths.max() < converse - 1e-9:
        violations.append(f"{scheme}: per-key length below the converse max_x H(Y|X=x)")
    if scheme == TWO_PART and achieved_hu is not None:
        cap = achieved_hu + 1.0 + ceil_log2(d.x_size) + 1e-9
        if lengths.max() > cap:
            violations.append(f"{scheme}: per-key length exceeds H(U)+1+ceil(log|X|)")
    if scheme == DIRECT_PAD:
        want = ceil_log2(d.y_size)
        if not np.allclose(lengths, want, atol=1e-12):
            violations.append(f"{scheme}: message length is not exactly {want}")
    return violations
