"""Executable private compression with a shared uniform key.

Every message is a one-time-padded fixed-width field followed by a
prefix-free codeword for a zero-leakage disclosure U. The receiver strips
the pad from the field and reads Y off ``Mechanism.decode`` at the padded
symbol and U. Two schemes:

* two-part: the field pads X, and U is the g0 mechanism's disclosure.
* direct-pad: when |Y| <= |X|, the field pads Y itself in ceil(log2 |Y|)
  bits; U has one symbol, its codeword is empty and decode[y, 0] = y.

Audits never sample: they account exactly for every (x, y, u, w) event,
every message bit and every unit of probability mass, in one vectorised
pass that sums in the order of a one-at-a-time loop over the events. The
uniform key runs over the padded symbol's alphabet and spreads each symbol
evenly over the fields (the one-time pad), so the pass enumerates only the
(x, y, u) triples and expands them to events inside the ordered sums, which
skip exact zeros, and sums the total mass only when some mass fails (see
``audit``). The (c, x) and (x, y, c) groups are numbered by first
occurrence from a key-indexed table of first entries, with no sort.
``build_codes`` picks the schemes that apply to an analysis, and
``check_audit`` names the invariants an audit shows broken.

A code document (format ``zeroleak-code-v3``) is flat ``key = value``
lines, each key given once: the head (format, sizes, joint rows and
``schemes``, each scheme named once), then per scheme the header
``<scheme>.key_size`` and ``<scheme>.field_bits`` and the body of the
scheme's one writer and reader in ``_DOCUMENT``. The key is the pad, so the
header must give the scheme's own values: |X| and ceil(log2 |X|) for
two-part, |Y| and ceil(log2 |Y|) for direct-pad. Matrices are rows
``key.i``, floats at ``%.17g``: the joint, two-part's P(Y|U=u) and its
decode table, ``two-part.decode.x`` holding the y of each (x, u), -1 where
the pair has no mass. A reader re-derives zero leakage and decodability,
and a scheme's verdict is its reader's violations and its audit's. The
reader's decode-table and prefix checks also see what no event reaches, so
a document must be canonical. Each block of rows is read with one numpy
conversion, and any miss reads it row by row, which names the first
missing, short or malformed row.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import dist
from .dist import JointDistribution
from .errors import (
    EmptySupport,
    IncompleteMechanism,
    InternalError,
    MalformedBits,
    NegativeMass,
    NonFiniteMass,
    NotDecodable,
    ParseError,
    WrongRegime,
)
from .mechanism import Analysis, Mechanism, build_decode_table, conditional_u_given_y

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

    @cached_property
    def by_word(self) -> dict[str, int]:
        """{codeword: symbol}, built once; a repeated codeword maps to its last symbol."""
        return {c: s for s, c in self.codewords.items()}

    def parse(self, bits: str) -> int:
        """The symbol whose codeword is the whole of ``bits``, trying the
        empty prefix first. Raises MalformedBits."""
        for end in range(len(bits) + 1):
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
        return PrefixCode(codewords={0: "0"})
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
    return PrefixCode(codewords=codewords)


@dataclass(frozen=True)
class PrivateCode:
    """An executable keyed code for one joint distribution.

    message = ``field_bits``-bit padded symbol + ``u_code`` codeword of U,
    and y = ``mech.decode[symbol, u]``. The padded symbol is X for
    two-part (key_size = |X|) and Y for direct-pad (key_size = |Y|, one U
    symbol with the empty codeword). The key is the pad: it runs over the
    padded symbol's alphabet, the modulus of the pad.
    """

    scheme: str
    key_size: int
    y_size: int
    u_code: PrefixCode
    mech: Mechanism
    p_u_given_y: np.ndarray  # [u][y]
    p_x_given_y: np.ndarray | None = None  # [x][y]; two-part only

    @property
    def field_bits(self) -> int:
        """The width of the fixed field, which holds every padded value."""
        return ceil_log2(self.key_size)


def build_two_part(d: JointDistribution, mech: Mechanism, u_code: PrefixCode) -> PrivateCode:
    """Pad X, prefix-code U with ``u_code``; requires a complete decode table
    on the mechanism."""
    if mech.decode is None:
        raise IncompleteMechanism("mechanism has no decode table; fill it first")
    return PrivateCode(
        scheme=TWO_PART,
        key_size=d.x_size,
        y_size=d.y_size,
        u_code=u_code,
        mech=mech,
        p_u_given_y=conditional_u_given_y(d, mech),
        p_x_given_y=dist.kernel_x_given_y(d),
    )


def build_direct_pad(d: JointDistribution) -> PrivateCode:
    """Pad Y itself, with a constant U whose codeword is empty; only
    presented as a scheme in the |Y| <= |X| regime."""
    n = d.y_size
    if n > d.x_size:
        raise WrongRegime(f"|Y| = {n} exceeds |X| = {d.x_size}")
    mech = Mechanism(np.ones(1), dist.marginal_y(d)[:, None], decode=np.arange(n)[:, None])
    return PrivateCode(
        scheme=DIRECT_PAD,
        key_size=n,
        y_size=n,
        u_code=PrefixCode({0: ""}),
        mech=mech,
        p_u_given_y=np.ones((1, n)),
    )


def build_codes(a: Analysis) -> list[PrivateCode]:
    """The applicable schemes in document order: two-part when the g0
    mechanism is a decodable member, then direct-pad when |Y| <= |X|. The
    exact test ``a.two_part_excluded`` is read first, so a joint it rules
    out never starts the g0 synthesis."""
    codes = []
    if not a.two_part_excluded and a.mech_decodable:
        codes.append(build_two_part(a.d, a.mech, build_huffman(a.mech.p_u)))
    if a.d.y_size <= a.d.x_size:
        codes.append(build_direct_pad(a.d))
    return codes


def _sample(rng: np.random.Generator, probs: np.ndarray) -> int:
    return int(rng.choice(probs.size, p=probs / probs.sum()))


def message_bits(code: PrivateCode, x: int, u: int, y: int, w: int) -> str:
    """The deterministic bitstring for fully specified realizations."""
    padded = ((x if code.scheme == TWO_PART else y) + w) % code.key_size
    return to_bits(padded, code.field_bits) + code.u_code.codewords[u]


def encode(code: PrivateCode, y: int, w: int, rng: np.random.Generator) -> str:
    """Encode observing only y; private symbol and disclosure are sampled."""
    _check_key(code, w)
    if not 0 <= y < code.y_size:
        raise ValueError(f"y = {y} outside alphabet of size {code.y_size}")
    if code.scheme == DIRECT_PAD:
        return message_bits(code, 0, 0, y, w)
    assert code.p_x_given_y is not None
    x = _sample(rng, code.p_x_given_y[:, y])
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
    if padded >= code.key_size:
        raise MalformedBits(f"fixed field value {padded} out of range")
    x = (padded - w) % code.key_size  # the padded symbol: y for direct-pad
    u = code.u_code.parse(bits[field:])
    if not 0 <= u < code.mech.u_size or code.mech.decode[x, u] < 0:
        raise MalformedBits(f"pair (x={x}, u={u}) has no decodable y")
    return int(code.mech.decode[x, u])


@dataclass(frozen=True)
class LeakageAudit:
    """Exact-enumeration audit of one code against one joint distribution."""

    mi_c_x: float
    lossless_prob: float
    expected_length: float  # the same under every key
    mi_c_x_given_y: float
    h_y_given_x_c: float


def _events(code: PrivateCode, d: JointDistribution):
    """Arrays x, y, u over the positive-mass (x, y, u) triples in order, and
    the mass of each of a triple's key_size events."""
    q = code.p_u_given_y
    x, y, u = np.argwhere(~(d.p <= 0.0)[:, :, None] & ~(q.T <= 0.0)[None]).T
    mass = d.p[x, y] * q[u, y] / code.key_size  # direct-pad's p * 1.0 / m is exactly p / m
    return x, y, u, mass


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


def _totals(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each element's key total (keys are small ints >= 0), added in array order."""
    return np.bincount(keys, weights=values)[keys]


def _p_log2_ratio(p: np.ndarray, top: tuple, bottom: tuple) -> np.ndarray:
    """p * log2(prod(top) / prod(bottom)) per entry, each product taken left
    to right. Where that is not finite, as when a mass or a product of masses
    underflows to 0, the term is p times the sum of the factors' logs, and 0
    where p is 0 (0 log 0 = 0). Every finite term stands, bit for bit."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = p * np.log2(reduce(np.multiply, top) / reduce(np.multiply, bottom))
        bad = ~np.isfinite(out)
        if bad.any():
            logs = sum(np.log2(f[bad]) for f in top) - sum(np.log2(f[bad]) for f in bottom)
            out[bad] = np.where(p[bad] > 0.0, p[bad] * logs, 0.0)
    return out


def _decoded_u(u_code: PrefixCode, word: str, u_size: int) -> int:
    """The symbol decode reads off a message ending in ``word``; -1 where it raises."""
    try:
        u_hat = -1 if word.strip("01") else u_code.parse(word)
    except MalformedBits:
        return -1
    return u_hat if 0 <= u_hat < u_size else -1


def _messages(code: PrivateCode, x, y, u):
    """Each triple's message class, its message length in bits and the y
    decode reads off it. Raises decode's MalformedBits for the first event
    that does not decode."""
    field = x if code.scheme == TWO_PART else y  # the padded symbol, at w = 0
    u_size = code.p_u_given_y.shape[0]
    words = [code.u_code.codewords[s] for s in range(u_size)]
    length = (code.field_bits + np.array([len(c) for c in words]))[u]
    # symbols that share a codeword decode to the same one, so once every
    # event decodes, the message C is the pair (u_hat, padded field), and
    # its class, the message with the field dropped, is u_hat
    u_hat = np.array([_decoded_u(code.u_code, c, u_size) for c in words])[u]
    # decode's y, -1 where it raises: the decode table and one more column
    # of -1, which u_hat = -1 reads
    table = np.full((code.key_size, u_size + 1), -1, dtype=code.mech.decode.dtype)
    table[:, :-1] = code.mech.decode
    y_hat = table[field, u_hat]
    bad = y_hat < 0
    if bad.any():
        ev = tuple(int(a[bad.argmax()]) for a in (x, u, y)) + (0,)
        decode(code, message_bits(code, *ev), 0)
        raise InternalError(f"audit finds event (x, u, y, w) = {ev} undecodable, decode does not")
    return u_hat, length, y_hat


def audit(code: PrivateCode, d: JointDistribution) -> LeakageAudit:
    """Account exactly for every (x, y, u, w) event.

    Computes I(C; X), the probability of correct decoding, the expected
    message length, the same under each key value, and the two received-code
    diagnostics I(C; X | Y) and H(Y | X, C). Every sum runs in event order,
    so each figure is, bit for bit, that of adding the events one at a time.
    Raises decode's MalformedBits for the first event that does not decode.

    The key runs over the padded symbol's alphabet, so each padded symbol
    (x for two-part, y for direct-pad) reaches each of the key_size fields
    once, and decoding does not depend on the key. The (x, y, u) triples at
    w = 0 thus stand for all their events: a (c, x) or (x, y, c) group is a
    class of triples, (x, u_hat) or (x, u_hat, y), at one field, with the
    same mass at every field (direct-pad's u_hat is always 0). Masses are
    expanded key_size times, and only inside the ordered sums: in the failed
    mass, the total, each x's mass and, class first, each group term, less
    the exact zeros, which move no bit. The total is summed only when the
    failed mass is not 0: 1 - 0 / total is 1.0 for every positive total.
    """
    if code.y_size != d.y_size:
        raise InternalError("code and distribution disagree on |Y|")
    m = code.key_size
    x, y, u, mass = _events(code, d)
    c, length, y_hat = _messages(code, x, y, u)
    if not (mass > 0.0).any():
        raise EmptySupport("no (x, y, u, w) event has positive mass")
    failed = dist.sum_in_order(mass[y_hat != y], m)
    lossless = np.float64(1.0 - failed / dist.sum_in_order(mass, m) if failed else 1.0)
    # every key sees the same lengths; divide out P(w) = 1/m
    expected_length = dist.sum_in_order(mass * length) * m
    del u, length, y_hat  # the groups need only x, y, c and mass; this lowers the peak

    # p(c, x) and p(x, y, c), each group numbered and summed in event order
    cx = c * d.x_size
    cx += x
    g, first = _first_seen(cx)
    p_cx = np.bincount(g, weights=mass)
    x_g = x[first]
    p_c, p_x = _totals(c[first], p_cx), np.bincount(x_g.repeat(m), weights=p_cx.repeat(m))[x_g]
    mi = dist.sum_in_order(_p_log2_ratio(p_cx, (p_cx,), (p_c, p_x)), m)
    # the (x, y, c) key is built on the compact (c, x) ids, so its table has
    # |Y| entries per (c, x) group however sparse the message numbers are
    g *= d.y_size
    g += y
    g, first = _first_seen(g)
    p_xyc = np.bincount(g, weights=mass)
    x_g, y_g, c_g = x[first], y[first], c[first]
    p_yc = _totals(c_g * d.y_size + y_g, p_xyc)
    p_xc = _totals(cx[first], p_xyc)
    p_y = dist.marginal_y(d)
    # I(X;C|Y) = sum p(x,y,c) log [ p(x,y,c) p(y) / (p(x,y) p(y,c)) ]
    mi_cond = _p_log2_ratio(p_xyc, (p_xyc, p_y[y_g]), (d.p[x_g, y_g], p_yc))
    h_y_given_xc = -_p_log2_ratio(p_xyc, (p_xyc,), (p_xc,))

    return LeakageAudit(
        mi_c_x=float(max(mi, 0.0)),
        lossless_prob=lossless,  # a numpy float, as the loop audit returned
        expected_length=expected_length,
        mi_c_x_given_y=float(max(dist.sum_in_order(mi_cond, m), 0.0)),
        h_y_given_x_c=float(max(dist.sum_in_order(h_y_given_xc, m), 0.0)),
    )


def check_audit(code: PrivateCode, audit: LeakageAudit, converse: float) -> list[str]:
    """Name every invariant the audit shows broken: zero leakage, lossless,
    an expected length of at least the ``converse`` max_x H(Y|X=x) and, for
    two-part, at most H(U) + 1 + ``field_bits``, with H(U) from
    ``code.mech.p_u``. A read document's reader names the rest (see
    ``read_code``)."""
    scheme = code.scheme
    length = audit.expected_length
    violations = []
    tol_leak = 1e-9 if scheme == TWO_PART else 1e-12
    if audit.mi_c_x > tol_leak:
        violations.append(f"{scheme}: leakage mi_c_x = {audit.mi_c_x:.3g}")
    if audit.lossless_prob != 1.0:
        violations.append(f"{scheme}: lossless_prob = {float(audit.lossless_prob)}")
    if length < converse - 1e-9:
        violations.append(f"{scheme}: per-key length below the converse max_x H(Y|X=x)")
    if scheme == TWO_PART and length > dist.entropy(code.mech.p_u) + 1.0 + code.field_bits + 1e-9:
        violations.append(f"{scheme}: per-key length exceeds H(U)+1+ceil(log|X|)")
    return violations


# ---------------------------------------------------------------------------
# the code document

CODE_FORMAT = "zeroleak-code-v3"
# The most (x, y, u, w) events (key_size per positive-mass triple; the
# audit's time and memory grow with them) a code document may ask ``audit``
# to account for; past it, ``read_code`` raises ParseError. At the limit an
# audit peaked at 0.13 GB resident. A code has |X| or |Y| keys, so a
# 128 x 128 joint of positive entries with one U symbol per y fits.
MAX_AUDIT_EVENTS = 1 << 22
FLOAT = "%.17g"  # every float a document holds; "%.17g" % v is format(v, ".17g")


def format_row(v, spec: str = FLOAT) -> str:
    """Each entry of ``v`` as a float in ``spec``, space separated, in one format op."""
    vals = np.asarray(v, dtype=float).tolist()
    return " ".join([spec] * len(vals)) % tuple(vals)


def format_rows(key: str, m: np.ndarray, spec: str = FLOAT) -> list[str]:
    """The lines ``key.i = <row i of m>``, every entry in the ``%`` format
    ``spec`` (``"%d"`` for a decode table), one format op per row."""
    line = f"{key}.%d = " + " ".join([spec] * m.shape[1])
    return [line % (i, *row) for i, row in enumerate(m.tolist())]


def write_head(d: JointDistribution, schemes: list[str]) -> list[str]:
    """The document's head: format marker, sizes, joint rows and ``schemes``."""
    head = [f"format = {CODE_FORMAT}", f"x_size = {d.x_size}", f"y_size = {d.y_size}"]
    return head + format_rows("joint", d.p) + [f"schemes = {' '.join(schemes)}"]


def write_code(code: PrivateCode) -> list[str]:
    """The lines of one scheme: its header, then its writer's body."""
    header = [f"{code.scheme}.key_size = {code.key_size}", f"{code.scheme}.field_bits = {code.field_bits}"]
    return header + _DOCUMENT[code.scheme][0](code)


def parse_code_document(text: str) -> tuple[dict[str, str], JointDistribution, list[str]]:
    """A document's ``key = value`` lines as a dict, with the joint and the
    scheme names of its head; ``#`` starts a comment and a ``[`` line, a
    text report's section title, is skipped."""
    doc: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("["):
            continue
        if "=" not in line:
            raise ParseError("expected `key = value`", line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        if key in doc:
            raise ParseError(f"duplicate key {key!r}", line_no)
        doc[key] = value.strip()
    if doc.get("format") != CODE_FORMAT:
        raise ParseError(f"missing or unknown format marker (want {CODE_FORMAT})")
    x_size, y_size = _doc_size(doc, "x_size"), _doc_size(doc, "y_size")
    d = dist.validate_and_normalize(_doc_block(doc, "joint", x_size, y_size))
    schemes = _doc_field(doc, "schemes", str.split)
    if not schemes:
        raise ParseError("code document's schemes entry is empty")
    if len(set(schemes)) != len(schemes):
        raise ParseError(f"code document's schemes entry names a scheme twice: {' '.join(schemes)}")
    return doc, d, schemes


def read_code(doc: dict[str, str], scheme: str, d: JointDistribution) -> tuple[PrivateCode, list[str]]:
    """The ``scheme`` code of ``d`` rebuilt by the scheme's reader, and the
    invariants it re-derives broken. ParseError unless the header gives the
    code's own key size and field width, and the audit's events fit."""
    if scheme not in _DOCUMENT:
        raise ParseError(f"unknown scheme {scheme!r} in code document")
    code, violations = _DOCUMENT[scheme][1](doc, d)
    for name in ("key_size", "field_bits"):
        key = f"{scheme}.{name}"
        value, want = _doc_field(doc, key, int), getattr(code, name)
        if value != want:
            raise ParseError(f"{key} = {value}, but the {scheme} code of this joint has {want}")
    events = code.key_size * int((~(d.p <= 0.0)).sum(axis=0) @ (~(code.p_u_given_y <= 0.0)).sum(axis=0))
    if events > MAX_AUDIT_EVENTS:
        raise ParseError(
            f"{scheme}.key_size = {code.key_size} asks the audit for {events} events,"
            f" past the limit of {MAX_AUDIT_EVENTS}"
        )
    return code, violations


def _floats(tokens: list[str]) -> np.ndarray:
    """Each token read by ``float`` (numpy's conversion of a string is ``float``'s)."""
    return np.array(tokens, dtype=float)


def _ints(tokens: list[str]) -> np.ndarray:
    """Each token read by ``int`` (numpy's conversion of a string is
    ``int``'s) into int64; an integer past int64 reads as -2, which is no
    decode table's entry either."""
    try:
        return np.array(tokens, dtype=np.int64)
    except OverflowError:
        return np.array([v if -(1 << 63) <= v < 1 << 63 else -2 for v in map(int, tokens)], dtype=np.int64)


def _doc_field(doc: dict[str, str], key: str, parse):
    """``parse(doc[key])``; ParseError when the key is missing or malformed."""
    if key not in doc:
        raise ParseError(f"code document has no {key!r} entry")
    try:
        return parse(doc[key])
    except ValueError:
        raise ParseError(f"cannot parse {key} = {doc[key]!r}") from None


def _doc_size(doc: dict[str, str], key: str) -> int:
    """``int(doc[key])``; ParseError unless it is at least 1."""
    size = _doc_field(doc, key, int)
    if size < 1:
        raise ParseError(f"{key} = {size}, expected at least 1")
    return size


def _doc_vector(doc: dict[str, str], key: str, size: int, convert=_floats) -> np.ndarray:
    """``convert`` of the entries at ``key``; ParseError unless it has ``size`` entries."""
    v = _doc_field(doc, key, lambda text: convert(text.split()))
    if v.size != size:
        raise ParseError(f"{key} has {v.size} entries, expected {size}")
    return v


def _doc_block(doc: dict[str, str], key: str, n: int, width: int, convert=_floats) -> np.ndarray:
    """The rows ``key.0`` .. ``key.{n-1}`` of ``width`` entries each, as one
    (n, width) array from one ``convert`` of the whole block.

    Rows are gathered up to the first missing one, so a hostile ``n`` builds
    nothing larger than the document. Any miss reads the block row by row
    with ``_doc_vector``, which raises ParseError at the first missing, short
    or malformed row (and, for n = 0, gives the empty vector)."""
    rows = []
    for i in range(n):
        row = doc.get(f"{key}.{i}")
        if row is None:
            break
        rows.append(row.split())
    if 0 < len(rows) == n and all(len(row) == width for row in rows):
        try:
            return convert(list(itertools.chain.from_iterable(rows))).reshape(n, width)
        except ValueError:
            pass
    return np.array([_doc_vector(doc, f"{key}.{i}", width, convert) for i in range(n)])


def _write_two_part(code: PrivateCode) -> list[str]:
    m = code.mech
    return [
        f"two-part.u_size = {m.u_size}",
        f"two-part.p_u = {format_row(m.p_u)}",
        *format_rows("two-part.p_y_given_u", m.p_y_given_u.T),
        *[f"two-part.codeword.{u} = {w}" for u, w in sorted(code.u_code.codewords.items())],
        *format_rows("two-part.decode", m.decode, "%d"),
    ]


def _read_two_part(doc: dict[str, str], d: JointDistribution) -> tuple[PrivateCode, list[str]]:
    u_size = _doc_size(doc, "two-part.u_size")
    p_u = _doc_vector(doc, "two-part.p_u", u_size)
    if not np.isfinite(p_u).all():
        raise NonFiniteMass(f"two-part.p_u entry {p_u[~np.isfinite(p_u)][0]} is not finite")
    if (p_u < 0.0).any():
        raise NegativeMass(f"two-part.p_u entry {p_u[p_u < 0.0][0]} is negative")
    if not (p_u > 0.0).any():
        raise ParseError("two-part.p_u has no positive mass")
    cols = _doc_block(doc, "two-part.p_y_given_u", u_size, d.y_size).T
    # a y outside -1..|Y|-1 is stored as |Y|, which no event decodes to; a
    # decode key other than the x_size rows is flagged
    table = _doc_block(doc, "two-part.decode", d.x_size, u_size, _ints)
    table[(table < -1) | (table >= d.y_size)] = d.y_size
    stray = sum(key.startswith("two-part.decode.") for key in doc) != d.x_size
    words = {u: doc.get(f"two-part.codeword.{u}") for u in range(u_size)}
    if None in words.values() or sum(key.startswith("two-part.codeword.") for key in doc) != u_size:
        raise ParseError(f"two-part.codeword.* must be numbered 0..{u_size - 1}")
    mech = Mechanism(p_u=p_u, p_y_given_u=dist.stochastic_columns(cols), decode=table)
    code = build_two_part(d, mech, PrefixCode(words))
    violations = []
    resid = float(np.abs(code.p_x_given_y @ cols - dist.marginal_x(d)[:, None]).max())
    if resid > 1e-7:
        violations.append(f"two-part: column leakage residual {resid:.3g}")
    mix = float(np.abs(cols @ p_u - dist.marginal_y(d)).max())
    if mix > 1e-7:
        violations.append(f"two-part: mixture does not reproduce P_Y ({mix:.3g})")
    try:
        if stray or not np.array_equal(build_decode_table(d, mech).decode, table):
            violations.append("two-part: serialized decode table mismatch")
    except NotDecodable as exc:
        violations.append(f"two-part: not decodable ({exc})")
    # sorted, a word that prefixes any other prefixes the next one; a
    # prefix-free set satisfies Kraft, so no Kraft check is made
    sorted_words = sorted(words.values())
    if any(b.startswith(a) for a, b in zip(sorted_words, sorted_words[1:])):
        violations.append("two-part: codewords are not prefix-free")
    return code, violations


def _read_direct_pad(doc: dict[str, str], d: JointDistribution) -> tuple[PrivateCode, list[str]]:
    if d.y_size > d.x_size:
        raise ParseError(f"direct-pad entry for a joint with |Y| = {d.y_size} > |X| = {d.x_size}")
    return build_direct_pad(d), []


# each scheme's (writer, reader): the writer gives the lines after the
# scheme's header, and the reader rebuilds the code and names the
# invariants it re-derives broken; direct-pad writes no lines of its own
_DOCUMENT = {
    TWO_PART: (_write_two_part, _read_two_part),
    DIRECT_PAD: (lambda code: [], _read_direct_pad),
}
