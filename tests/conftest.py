"""Shared test settings and test-only helpers.

Property tests run under a derandomized hypothesis profile: every run draws
the same examples, no example database is kept, and the example count is
bounded so the suite stays fast. The ``ci`` profile is the same with ten
times the examples; ``--hypothesis-profile=ci`` selects it, as CI does for
the oracle properties (``-k oracle``).

The helpers below serve only the tests: a negative-control leakage figure,
a |Y| <= |X| instance generator, the whole-joint g0 LP that is the oracle
for the factored ``mechanism.solve_g0``, the per-symbol entropy profile of
a mechanism, the loop audit that is the oracle for ``codec.audit``, the
sorting group numbering that is the oracle for its grouping, and the
one-row-at-a-time entropy and decode-table loops that are the oracles for
the batched forms in ``dist`` and ``mechanism``.
"""

import struct
from dataclasses import replace

import numpy as np
from hypothesis import settings

from zeroleak import codec, dist, mechanism
from zeroleak.dist import JointDistribution, Kernel
from zeroleak.errors import EmptySupport, InternalError, NotDecodable
from zeroleak.linalg import LinearProgram, solve_lp
from zeroleak.mechanism import (
    TAU_ENT,
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
    mech = Mechanism(p_u=p_u / p_u.sum(), p_y_given_u=Kernel(cols / cols.sum(axis=0)[None, :]))
    return dist.entropy(py) - float(out.value), mech


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


def loop_audit(code: codec.PrivateCode, d: JointDistribution) -> codec.LeakageAudit:
    """The event-at-a-time audit that ``codec.audit`` must match bit for bit.

    Enumerate every (x, y, u, w) event and account for it exactly.

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

    return codec.LeakageAudit(
        mi_c_x=float(max(mi, 0.0)),
        lossless_prob=1.0 - failed / total,
        per_key_expected_length=per_key,
        mi_c_x_given_y=float(max(mi_cond, 0.0)),
        h_y_given_x_c=float(max(h_y_given_xc, 0.0)),
    )


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
    table: dict[tuple[int, int], int] = {}
    for x in range(d.x_size):
        for u in range(mech.u_size):
            mass = joint[x, :, u]
            ys = np.nonzero(mass > 1e-12)[0]
            if ys.size == 0:
                continue
            if ys.size > 1:
                raise NotDecodable(
                    f"pair (x={x}, u={u}) is consistent with y in {ys.tolist()}"
                )
            table[(x, u)] = int(ys[0])
    h_y_given_xu = loop_entropy_y_given_xu(joint)
    if h_y_given_xu > TAU_ENT:
        raise NotDecodable(f"H(Y|X,U) = {h_y_given_xu:.3g} bits exceeds tolerance")
    return replace(mech, decode=table)
