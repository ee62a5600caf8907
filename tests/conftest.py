"""Shared test settings and test-only helpers.

Property tests run under a derandomized hypothesis profile: every run draws
the same examples, no example database is kept, and the example count is
bounded so the suite stays fast.

The helpers below serve only the tests: a negative-control leakage figure,
a |Y| <= |X| instance generator and the per-symbol entropy profile of a
mechanism.
"""

import numpy as np
from hypothesis import settings

from zeroleak import codec, dist
from zeroleak.dist import JointDistribution
from zeroleak.mechanism import Mechanism, conditional_u_given_y

settings.register_profile(
    "zeroleak", derandomize=True, deadline=None, max_examples=40, database=None
)
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


def entropy_profile(d: JointDistribution, mech: Mechanism) -> np.ndarray:
    """Per-symbol conditional entropies a_j = H(U | Y = y_j) in bits."""
    p_u_given_y = conditional_u_given_y(d, mech)
    return np.array([dist.entropy(p_u_given_y[:, y]) for y in range(d.y_size)])
