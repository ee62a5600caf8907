"""Shared test settings and test-only helpers.

Property tests run under a derandomized hypothesis profile: every run draws
the same examples, no example database is kept, and the example count is
bounded so the suite stays fast. The ``ci`` profile is the same with ten
times the examples; ``--hypothesis-profile=ci`` selects it, as CI does for
the oracle properties and the mutated code document property
(``-k "oracle or mutated_code_document"``); every property whose name
holds ``oracle``, such as ``test_doc_block_reader_oracle``, runs there.

The helpers below serve only the tests: a negative-control leakage figure,
a |Y| <= |X| instance generator, the whole-joint g0 LP that is the oracle
for the factored ``mechanism.solve_g0``, the array coupling that is the
bit-for-bit oracle for its per-component heaps, the per-symbol entropy
profile of a mechanism, the loop audit that is the oracle for
``codec.audit``, the sorting group numbering that is the oracle for its
grouping, the one-row-at-a-time entropy and decode-table loops that are
the oracles for the batched forms in ``dist``, ``mechanism`` and
``families``, the token-at-a-time distribution parser that is the oracle
for the section-at-a-time ``cli.parse_distribution_text``, the
row-at-a-time code document reader that is the oracle for the
block-at-a-time ``codec._doc_block``, and the two-part encoder for a
sender who sees (x, y).
"""

import struct
from dataclasses import replace

import numpy as np
from hypothesis import settings

from zeroleak import cli, codec, dist, mechanism
from zeroleak.dist import JointDistribution
from zeroleak.errors import EmptySupport, InternalError, NotDecodable, ParseError, WrongRegime
from zeroleak.linalg import RANK_TOL, LinearProgram, solve_lp
from zeroleak.mechanism import (
    WEIGHT_FLOOR,
    Mechanism,
    build_bound_matrices,
    conditional_u_given_y,
    mechanism_joint,
)

settings.register_profile(
    "zeroleak", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.register_profile("ci", settings.get_profile("zeroleak"), max_examples=400)
settings.load_profile("zeroleak")


def unpadded_reference_leakage(d: JointDistribution) -> float:
    """I(C; X) for a keyless Huffman code on Y (negative control)."""
    huff = codec.build_huffman(dist.marginal_y(d))
    p_cx: dict[tuple[str, int], float] = {}
    for x in range(d.x_size):
        for y in range(d.y_size):
            if d.p[x, y] <= 0.0:
                continue
            c = huff.codewords[y]
            p_cx[(c, x)] = p_cx.get((c, x), 0.0) + d.p[x, y]
    p_c: dict[str, float] = {}
    p_x: dict[int, float] = {}
    for (c, x), mass in p_cx.items():
        p_c[c] = p_c.get(c, 0.0) + mass
        p_x[x] = p_x.get(x, 0.0) + mass
    return float(
        sum(mass * np.log2(mass / (p_c[c] * p_x[x])) for (c, x), mass in p_cx.items())
    )


def random_small_y_pair(
    rng: np.random.Generator, max_y: int = 8, max_x: int = 10
) -> JointDistribution:
    """Arbitrary full-support joint in the |Y| <= |X| regime."""
    y_size = int(rng.integers(2, max_y + 1))
    x_size = int(rng.integers(y_size, max_x + 1))
    joint = rng.dirichlet(np.ones(x_size * y_size)).reshape(x_size, y_size) + 1e-3
    return dist.validate_and_normalize(joint / joint.sum())


def bound_matrices(d: JointDistribution) -> tuple[np.ndarray, np.ndarray]:
    """``mechanism.build_bound_matrices`` with H(Y|X=x) and H(Y|X) from ``dist``."""
    return build_bound_matrices(
        d, dist.conditional_entropies(d), dist.conditional_entropy_y_given_x(d)
    )


def whole_joint_g0(d: JointDistribution) -> tuple[float, Mechanism]:
    """g0 and its optimizer from one mixture LP over every vertex of the
    whole joint's polytope (``feasible_columns`` + ``solve_lp``), with no
    factoring by components: the oracle for ``mechanism.solve_g0``."""
    py = dist.marginal_y(d)
    verts = mechanism.feasible_columns(d)
    out = solve_lp(LinearProgram(dist.entropy_rows(verts), verts.T, py, sense="min"))
    assert out.status == "optimal"
    support = np.nonzero(out.point > 1e-12)[0]
    p_u = out.point[support]
    cols = verts[support].T
    mech = Mechanism(p_u=p_u / p_u.sum(), p_y_given_u=cols / cols.sum(axis=0)[None, :])
    return dist.entropy(py) - float(out.value), mech


def array_coupled_g0(d: JointDistribution) -> tuple[float, Mechanism]:
    """``mechanism.solve_g0`` with its multi-component synthesis done on
    arrays: every component goes through the ``np.ix_`` copy and the
    RANK_TOL independence test, one row or many, and the greedy coupling
    takes every component's largest remaining weight by ``argmax`` over a
    K x max|w| array, lowest index on ties, a weight at or below
    WEIGHT_FLOOR counting as spent. The oracle, bit for bit, for the
    per-component heaps of ``mechanism._couple``."""
    count, x_part, y_part = dist.support_components(d)
    if count == 1:
        verts, p_u, cost = mechanism._lp_mixture(d)
        cols = verts.T / verts.T.sum(axis=0)[None, :]
        return _g0_value(d, cost), Mechanism(p_u=p_u, p_y_given_u=cols)
    parts, y_parts = [], []
    for k in range(count):
        xs, ys = np.nonzero(x_part == k)[0], np.nonzero(y_part == k)[0]
        sub = d.p[np.ix_(xs, ys)]
        mass, p_y = sub.sum(), sub.sum(axis=0)
        if np.ptp(sub / p_y, axis=1).max() <= RANK_TOL:
            parts.append((mass, np.eye(ys.size), p_y / mass, 0.0))
        else:
            parts.append((mass, *mechanism._lp_mixture(JointDistribution(sub / mass))))
        y_parts.append(ys)
    rest = np.zeros((count, max(w.size for _, _, w, _ in parts)))
    for k, (_, _, w, _) in enumerate(parts):
        rest[k, : w.size] = np.where(w > WEIGHT_FLOOR, w, 0.0)
    rows = np.arange(count)
    atoms, picks = [], []
    while True:
        pick = rest.argmax(axis=1)
        top = rest[rows, pick]
        atom = top.min()
        if atom <= WEIGHT_FLOOR:
            break
        left = top - atom
        rest[rows, pick] = np.where(left > WEIGHT_FLOOR, left, 0.0)
        atoms.append(atom)
        picks.append(pick)
    picks = np.array(picks)
    cols = np.zeros((d.y_size, len(atoms)))
    for k, ((mass, verts, _, _), ys) in enumerate(zip(parts, y_parts)):
        cols[ys] = mass * verts[picks[:, k]].T
    cols = cols / cols.sum(axis=0)[None, :]
    order = np.lexsort(cols[::-1])
    masses = np.array([mass for mass, *_ in parts])
    values = np.array([value for *_, value in parts])
    cost = dist.entropy(masses) + dist.sum_in_order(masses * values)
    return _g0_value(d, cost), Mechanism(p_u=np.array(atoms)[order], p_y_given_u=cols[:, order])


def _g0_value(d: JointDistribution, cost: float) -> float:
    value = dist.entropy(dist.marginal_y(d)) - cost
    return 0.0 if -1e-12 < value < 0.0 else value


def entropy_profile(d: JointDistribution, mech: Mechanism) -> np.ndarray:
    """Per-symbol conditional entropies a_j = H(U | Y = y_j) in bits."""
    p_u_given_y = conditional_u_given_y(d, mech)
    return np.array([dist.entropy(p_u_given_y[:, y]) for y in range(d.y_size)])


def loop_events(code: codec.PrivateCode, d: JointDistribution):
    """Yield (x, y, u, w, mass) over the exact joint; u = 0 for direct-pad."""
    m = code.key_size
    if code.scheme == codec.DIRECT_PAD:
        for x in range(d.x_size):
            for y in range(d.y_size):
                if d.p[x, y] <= 0.0:
                    continue
                for w in range(m):
                    yield x, y, 0, w, d.p[x, y] / m
        return
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


def loop_audit(code: codec.PrivateCode, d: JointDistribution) -> tuple[codec.LeakageAudit, np.ndarray]:
    """The event-at-a-time audit that ``codec.audit`` must match bit for bit.

    Enumerate every (x, y, u, w) event and account for it exactly.

    Computes I(C; X), the probability of correct decoding, the expected
    message length conditioned on each key value, and the two received-code
    diagnostics I(C; X | Y) and H(Y | X, C). Returns the audit, with key
    0's length as its ``expected_length``, and every key's length, each of
    which must equal ``codec.audit``'s ``expected_length``.
    """
    if code.y_size != d.y_size:
        raise InternalError("code and distribution disagree on |Y|")
    m = code.key_size
    p_cx: dict[tuple[str, int], float] = {}
    p_xyc: dict[tuple[int, int, str], float] = {}
    len_w = np.zeros(m)
    failed = 0.0
    total = 0.0
    for x, y, u, w, mass in loop_events(code, d):
        c = codec.message_bits(code, x, u, y, w)
        total += mass
        len_w[w] += mass * len(c)
        p_cx[(c, x)] = p_cx.get((c, x), 0.0) + mass
        p_xyc[(x, y, c)] = p_xyc.get((x, y, c), 0.0) + mass
        if codec.decode(code, c, w) != y:
            failed += mass
    if total == 0.0:
        raise EmptySupport("no (x, y, u, w) event has positive mass")
    per_key = len_w * m  # divide out P(w) = 1/m per conditional expectation

    p_c: dict[str, float] = {}
    p_x: dict[int, float] = {}
    for (c, x), mass in p_cx.items():
        p_c[c] = p_c.get(c, 0.0) + mass
        p_x[x] = p_x.get(x, 0.0) + mass
    # a group of no mass, as when every event mass in it underflows to 0,
    # adds 0 to each log sum (0 log 0 = 0)
    mi = sum(
        mass * np.log2(mass / (p_c[c] * p_x[x])) if mass else 0.0 for (c, x), mass in p_cx.items()
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
        if mass:
            mi_cond += mass * np.log2(mass * p_y[y] / (d.p[x, y] * p_yc[(y, c)]))
    h_y_given_xc = 0.0
    for (x, y, c), mass in p_xyc.items():
        if mass:
            h_y_given_xc -= mass * np.log2(mass / p_xc[(x, c)])

    return codec.LeakageAudit(
        mi_c_x=float(max(mi, 0.0)),
        lossless_prob=1.0 - failed / total,
        expected_length=float(per_key[0]),
        mi_c_x_given_y=float(max(mi_cond, 0.0)),
        h_y_given_x_c=float(max(h_y_given_xc, 0.0)),
    ), per_key


def unique_first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group ids numbered by first occurrence, and each group's first index,
    by sorting: the oracle for ``codec._first_seen``."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = first.argsort()
    return order.argsort()[inverse], first[order]


def bits(values) -> list[bytes]:
    """The IEEE 754 bytes of each value, so that comparing them is bit for bit."""
    return [struct.pack("<d", float(v)) for v in np.ravel(values)]


def loop_entropy_rows(m) -> list[float]:
    """``dist.entropy`` of each row, one call per row (the per-vertex loop)."""
    return [dist.entropy(row) for row in m]


def loop_conditional_entropies(d: JointDistribution) -> list[float]:
    """H(Y | X = x) for each x, one row at a time."""
    return [dist.entropy(d.p[x] / d.p[x].sum()) for x in range(d.x_size)]


def loop_conditional_entropy_y_given_x(d: JointDistribution) -> float:
    """H(Y | X) = sum_x P(x) H(Y | X = x), added by a Python ``sum``."""
    px = dist.marginal_x(d)
    h = loop_conditional_entropies(d)
    return float(sum(px[x] * h[x] for x in range(d.x_size)))


def loop_entropy_y_given_xu(joint: np.ndarray) -> float:
    """H(Y | X, U) of an (x, y, u) joint, one (x, u) pair at a time."""
    p_xu = joint.sum(axis=1)
    h = 0.0
    for x in range(joint.shape[0]):
        for u in range(joint.shape[2]):
            if p_xu[x, u] > 0.0:
                h += p_xu[x, u] * dist.entropy(joint[x, :, u] / p_xu[x, u])
    return h


def loop_build_decode_table(d: JointDistribution, mech: Mechanism) -> Mechanism:
    """``mechanism.build_decode_table`` one (x, u) pair at a time."""
    joint = mechanism_joint(d, mech)
    table = np.full((d.x_size, mech.u_size), -1)
    for x in range(d.x_size):
        for u in range(mech.u_size):
            mass = joint[x, :, u]
            ys = np.nonzero(mass > 0.0)[0]
            if ys.size == 0:
                continue
            if ys.size > 1:
                raise NotDecodable(
                    f"pair (x={x}, u={u}) is consistent with y in {ys.tolist()}"
                )
            table[x, u] = ys[0]
    for y in range(d.y_size):
        if not (table == y).any():
            raise NotDecodable(f"no live (x, u) pair carries y = {y}")
    return replace(mech, decode=table)


def loop_parse_distribution_text(text: str) -> JointDistribution:
    """``cli.parse_distribution_text`` one token at a time: each token read
    by ``cli._parse_token`` as its line is reached."""
    sections: dict[str, list[list[float]]] = {}
    current: str | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" in line:
            name, _, rest = line.partition(":")
            name = name.strip().lower()
            if name not in ("joint", "p_x_given_y", "p_y"):
                raise ParseError(f"unknown section {name!r}", line_no)
            if name in sections:
                raise ParseError(f"duplicate section {name!r}", line_no)
            sections[name] = []
            current = name
            line = rest.strip()
            if not line:
                continue
        if current is None:
            raise ParseError("values before any section header", line_no)
        row = []
        col = 1
        for tok in line.split():
            row.append(cli._parse_token(tok, line_no, col))
            col += 1
        sections[current].append(row)

    if "joint" in sections:
        if "p_x_given_y" in sections or "p_y" in sections:
            raise ParseError("give either joint: or the kernel/marginal pair, not both")
        rows = sections["joint"]
        if not rows:
            raise ParseError("joint: section has no rows")
        width = len(rows[0])
        for i, r in enumerate(rows):
            if len(r) != width:
                raise ParseError(f"joint row {i} has {len(r)} entries, expected {width}")
        return dist.validate_and_normalize(np.array(rows))
    if "p_x_given_y" in sections and "p_y" in sections:
        kern = sections["p_x_given_y"]
        if not kern:
            raise ParseError("p_x_given_y: section has no rows")
        width = len(kern[0])
        for i, r in enumerate(kern):
            if len(r) != width:
                raise ParseError(f"kernel row {i} has {len(r)} entries, expected {width}")
        pv = sections["p_y"]
        flat = [v for row in pv for v in row]
        if len(flat) != width:
            raise ParseError(f"p_y has {len(flat)} entries, kernel has {width} columns")
        return dist.from_conditional(np.array(kern), np.array(flat))
    raise ParseError("need a joint: section or both p_x_given_y: and p_y:")


def loop_doc_block(doc: dict[str, str], key: str, n: int, width: int, convert=codec._floats) -> np.ndarray:
    """``codec._doc_block`` one row at a time: each row read by
    ``codec._doc_vector`` in turn."""
    return np.array([codec._doc_vector(doc, f"{key}.{i}", width, convert) for i in range(n)])


def encode_pair(code: codec.PrivateCode, x: int, y: int, w: int, rng: np.random.Generator) -> str:
    """Two-part encoding when the encoder observes (x, y) jointly."""
    if code.scheme != codec.TWO_PART:
        raise WrongRegime("encode_pair only applies to the two-part scheme")
    codec._check_key(code, w)
    u = codec._sample(rng, code.p_u_given_y[:, y])
    return codec.message_bits(code, x, u, y, w)
