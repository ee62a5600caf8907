"""Executable private compression with a shared uniform key.

Two schemes:

* two-part: the private symbol is one-time-padded into a fixed-width field,
  followed by a prefix-free codeword for the zero-leakage disclosure U; the
  receiver strips the pad, recovers X, and looks Y up from (X, U).
* direct-pad: when |Y| <= |X|, pad Y itself and send it in a fixed
  ceil(log2 |Y|)-bit field.

Audits never sample: they account exactly for every (x, y, u, w) event,
every message bit and every unit of probability mass, in one vectorised
pass that sums in the order of a one-at-a-time loop over the events. For
every code ``build_codes`` makes, the uniform key spreads each padded
symbol evenly over the fields (the one-time pad), so the pass enumerates
only the (x, y, u) triples and expands them to events inside the ordered
sums (see ``audit``). The (c, x) and (x, y, c) groups are numbered by first
occurrence from a key-indexed table of first entries, with no sort.
``build_codes`` picks the schemes that apply to an analysis, and
``check_audit`` names the invariants an audit shows broken.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import dist
from .dist import JointDistribution
from .errors import (
    EmptySupport,
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

    @cached_property
    def by_word(self) -> dict[str, int]:
        """{codeword: symbol}, built once; a repeated codeword maps to its last symbol."""
        return {c: s for s, c in self.codewords.items()}

    def kraft_sum(self) -> float:
        return sum(2.0 ** -len(c) for c in self.codewords.values())

    def parse(self, bits: str) -> int:
        """The symbol whose codeword is the whole of ``bits``. Raises MalformedBits."""
        for end in range(1, len(bits) + 1):
            if bits[:end] in self.by_word:
                if end != len(bits):
                    raise MalformedBits("trailing bits after the prefix codeword")
                return self.by_word[bits[:end]]
        raise MalformedBits(f"no prefix codeword matches {bits!r}")


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
    ``field_bits`` is the width of the padded fixed field in either scheme.
    """

    scheme: str
    key_size: int
    pad_modulus: int
    y_size: int
    field_bits: int
    u_code: PrefixCode | None = None
    mech: Mechanism | None = None
    p_u_given_y: np.ndarray | None = None  # [u][y]
    p_x_given_y: np.ndarray | None = None  # [x][y]


def build_two_part(d: JointDistribution, mech: Mechanism) -> PrivateCode:
    """Pad X, Huffman-code U; requires a complete decode table on the mechanism."""
    if mech.decode is None:
        raise IncompleteMechanism("mechanism has no decode table; fill it first")
    return PrivateCode(
        scheme=TWO_PART,
        key_size=d.x_size,
        pad_modulus=d.x_size,
        y_size=d.y_size,
        field_bits=ceil_log2(d.x_size),
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
        field_bits=ceil_log2(d.y_size),
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
        return to_bits(padded, code.field_bits) + code.u_code.codewords[u]
    padded = (y + w) % code.pad_modulus
    return to_bits(padded, code.field_bits)


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
    field = code.field_bits
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
    assert code.u_code is not None and code.mech is not None and code.mech.decode is not None
    u = code.u_code.parse(bits[field:])
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


def _folds(code: PrivateCode) -> bool:
    """Whether the key runs over whole pad cycles into a field that holds
    every padded value. Then each source symbol (x for two-part, y for
    direct-pad) reaches each of the pad_modulus fields key_size //
    pad_modulus times, and decoding does not depend on the key."""
    n, width = code.pad_modulus, code.field_bits
    whole_cycles = code.key_size > 0 and code.key_size % n == 0
    return whole_cycles and (n == 1 or (width > 0 and n <= 1 << min(width, 62)))


def _events(code: PrivateCode, d: JointDistribution, keys: int):
    """Arrays x, y, u, w, mass over the positive-mass events with w < ``keys``,
    in (x, y, u, w) order."""
    m = code.key_size
    # direct-pad has the one symbol u = 0, and p * 1.0 / m is exactly p / m
    q = np.ones((1, d.y_size)) if code.scheme == DIRECT_PAD else code.p_u_given_y
    x, y, u = np.argwhere(~(d.p <= 0.0)[:, :, None] & ~(q.T <= 0.0)[None]).T
    mass = d.p[x, y] * q[u, y] / m
    if keys > 1:  # each (x, y, u) once per w
        x, y, u, mass = (a.repeat(keys) for a in (x, y, u, mass))
    return x, y, u, np.arange(x.size) % keys, mass


def _first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group ids numbered by first occurrence, and each group's first index.

    ``keys`` are ints >= 0. A table indexed by key holds each key's first
    index, in the narrowest dtype that holds len(keys); an entry leads
    its group when its index is that first index, and counting the leaders
    numbers the groups. Nothing is sorted: the cost is O(len(keys) + max key).
    """
    at = np.arange(keys.size, dtype=np.min_scalar_type(keys.size))
    first = np.full(keys.max(initial=-1) + 1, keys.size, dtype=at.dtype)
    np.minimum.at(first, keys, at)
    first_of = first[keys]
    lead = first_of == at
    ids = lead.cumsum()
    ids -= 1
    return ids[first_of], np.flatnonzero(lead)


def _sums(ids: np.ndarray, values: np.ndarray, reps: int) -> np.ndarray:
    """Each id's total (ids are small ints >= 0), added in array order with
    every value ``reps`` times in a row."""
    if reps > 1:
        ids, values = ids.repeat(reps), values.repeat(reps)
    return np.bincount(ids, weights=values)


def _totals(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each element's key total (keys are small ints >= 0), added in array order."""
    return np.bincount(keys, weights=values)[keys]


def _decoded_u(u_code: PrefixCode, word: str, u_size: int) -> int:
    """The symbol decode reads off a message ending in ``word``; -1 where it raises."""
    try:
        u_hat = -1 if word.strip("01") else u_code.parse(word)
    except MalformedBits:
        return -1
    return u_hat if 0 <= u_hat < u_size else -1


def _messages(code: PrivateCode, d: JointDistribution, x, y, u, w):
    """Each event's message as the int u_hat * pad_modulus + padded field
    (u_hat = 0 for direct-pad), its length in bits and the y decode reads
    off it. Raises decode's MalformedBits for the first event that does not
    decode."""
    n, width = code.pad_modulus, min(code.field_bits, 62)
    padded = (y if code.scheme == DIRECT_PAD else x) + w
    padded %= n
    # to_bits cannot render a value too wide for a nonempty field; an empty
    # field holds any value and reads back as 0
    bad = (padded >> width != 0) & (width > 0)
    padded %= 1 << width
    if code.scheme == DIRECT_PAD:
        msg, length, y_hat = padded, code.field_bits, (padded - w) % n
    else:
        assert code.u_code is not None and code.mech is not None and code.mech.decode is not None
        u_size = code.p_u_given_y.shape[0]
        words = [code.u_code.codewords[s] for s in range(u_size)]
        length = (code.field_bits + np.array([len(c) for c in words]))[u]
        # symbols that share a codeword decode to the same one, so once every
        # event decodes, the message C is the pair (u_hat, padded field)
        u_hat = np.array([_decoded_u(code.u_code, c, u_size) for c in words])[u]
        msg = u_hat * n
        msg += padded
        # decode's y: -2 if absent, -1 if not in 0..|Y|-1; the last column,
        # which u_hat = -1 reads, stays -2. The dict's ints may be of any
        # size, and converting it to arrays costs as much per entry as this
        # loop, which fills a list and converts that once.
        cols, y_size = u_size + 1, d.y_size
        flat = [-2] * (n * cols)
        for (x_key, u_key), y_val in code.mech.decode.items():
            if 0 <= x_key < n and 0 <= u_key < u_size:
                flat[x_key * cols + u_key] = y_val if 0 <= y_val < y_size else -1
        table = np.array(flat, dtype=np.min_scalar_type(-y_size)).reshape(n, cols)
        padded -= w
        padded %= n
        y_hat = table[padded, u_hat]
        bad |= y_hat == -2
    if bad.any():
        ev = tuple(int(a[bad.argmax()]) for a in (x, u, y, w))
        decode(code, message_bits(code, *ev), ev[3])
        raise InternalError(f"audit finds event (x, u, y, w) = {ev} undecodable, decode does not")
    return msg, length, y_hat


def audit(code: PrivateCode, d: JointDistribution) -> LeakageAudit:
    """Account exactly for every (x, y, u, w) event.

    Computes I(C; X), the probability of correct decoding, the expected
    message length conditioned on each key value, and the two received-code
    diagnostics I(C; X | Y) and H(Y | X, C). Every sum runs in event order,
    so each figure is, bit for bit, that of adding the events one at a time.
    Raises decode's MalformedBits for the first event that does not decode.

    When the key folds (``_folds``; every code ``build_codes`` makes), the
    (x, y, u) triples at w = 0 stand for all their events: a (c, x) or
    (x, y, c) group is a class of triples, (x, u_hat) and (x, u_hat, y) for
    two-part, (x) and (x, y) for direct-pad, at one field, with the same
    mass at every field. Masses are expanded only inside the ordered sums:
    key_size times for the total and the failed mass, key_size //
    pad_modulus times in each group's sum, and pad_modulus times, class
    first, for each group term. Other codes are enumerated event by event.
    """
    if code.y_size != d.y_size:
        raise InternalError("code and distribution disagree on |Y|")
    m = code.key_size
    keys, fields = (1, code.pad_modulus) if _folds(code) else (m, 1)
    x, y, u, w, mass = _events(code, d, keys)
    msg, length, y_hat = _messages(code, d, x, y, u, w)
    if not (mass > 0.0).any():
        raise EmptySupport("no (x, y, u, w) event has positive mass")
    each = m // keys  # events per enumerated one: the keys it stands for
    total = dist.sum_in_order(mass.repeat(each))
    failed = dist.sum_in_order(mass[y_hat != y].repeat(each))
    # divide out P(w) = 1/m
    per_key = np.bincount(w, weights=mass * length, minlength=keys).repeat(each) * m
    del u, w, length, y_hat  # the groups need only x, y, msg and mass; this lowers the peak
    msg //= fields  # the message class: the field is dropped under the fold
    k = each // fields  # times each enumerated event enters its group at one field

    # p(c, x) and p(x, y, c), each group numbered and summed in event order
    cx = msg * d.x_size
    cx += x
    g, first = _first_seen(cx)
    p_cx = _sums(g, mass, k)
    p_c_p_x = _totals(msg[first], p_cx) * _sums(x[first], p_cx, fields)[x[first]]
    mi = dist.sum_in_order((p_cx * np.log2(p_cx / p_c_p_x)).repeat(fields))
    # the (x, y, c) key is built on the compact (c, x) ids, so its table has
    # |Y| entries per (c, x) group however sparse the message numbers are
    g *= d.y_size
    g += y
    g, first = _first_seen(g)
    p_xyc = _sums(g, mass, k)
    x_g, y_g, c_g = x[first], y[first], msg[first]
    p_yc = _totals(c_g * d.y_size + y_g, p_xyc)
    p_xc = _totals(cx[first], p_xyc)
    p_y = dist.marginal_y(d)
    # I(X;C|Y) = sum p(x,y,c) log [ p(x,y,c) p(y) / (p(x,y) p(y,c)) ]
    mi_cond = p_xyc * np.log2(p_xyc * p_y[y_g] / (d.p[x_g, y_g] * p_yc))
    h_y_given_xc = -(p_xyc * np.log2(p_xyc / p_xc))

    return LeakageAudit(
        mi_c_x=float(max(mi, 0.0)),
        lossless_prob=np.float64(1.0 - failed / total),  # a numpy float, as the loop audit returned
        per_key_expected_length=per_key,
        mi_c_x_given_y=float(max(dist.sum_in_order(mi_cond.repeat(fields)), 0.0)),
        h_y_given_x_c=float(max(dist.sum_in_order(h_y_given_xc.repeat(fields)), 0.0)),
    )


def check_audit(
    code: PrivateCode,
    audit: LeakageAudit,
    d: JointDistribution,
    achieved_hu: float | None,
    converse: float,
) -> list[str]:
    """Name every invariant the audit shows broken: zero leakage, lossless,
    one length for every key, at least the ``converse`` max_x H(Y|X=x), and
    at most H(U) + 1 + ceil(log2 |X|) bits (two-part, when ``achieved_hu`` is
    given) or exactly ceil(log2 |Y|) bits, within 1e-12 (direct-pad)."""
    scheme = code.scheme
    lengths = audit.per_key_expected_length
    violations = []
    tol_leak = 1e-9 if scheme == TWO_PART else 1e-12
    if audit.mi_c_x > tol_leak:
        violations.append(f"{scheme}: leakage mi_c_x = {audit.mi_c_x:.3g}")
    if audit.lossless_prob != 1.0:
        violations.append(f"{scheme}: lossless_prob = {float(audit.lossless_prob)}")
    spread = float(np.ptp(lengths))
    if spread > 1e-12:
        violations.append(f"{scheme}: per-key length varies by {spread:.3g}")
    if lengths.max() < converse - 1e-9:
        violations.append(f"{scheme}: per-key length below the converse max_x H(Y|X=x)")
    if scheme == TWO_PART and achieved_hu is not None:
        cap = achieved_hu + 1.0 + ceil_log2(d.x_size) + 1e-9
        if lengths.max() > cap:
            violations.append(f"{scheme}: per-key length exceeds H(U)+1+ceil(log|X|)")
    if scheme == DIRECT_PAD:
        want = ceil_log2(d.y_size)
        if not (np.abs(lengths - want) <= 1e-12).all():
            violations.append(f"{scheme}: message length is not exactly {want}")
    return violations
