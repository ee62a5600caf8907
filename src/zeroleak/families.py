"""Seeded random instance generators used by the sweep command and the tests.

Three families cover the three membership branches: deterministic X = f(Y)
(member by construction), common-structure pairs X = (V, N1), Y = (V, N2)
(member by the shared-component condition), and invertible square kernels
(the disclosure polytope collapses to a point, so nothing can be revealed).
A fourth, rectangle partitions, builds members from a hidden decodable U;
its vertices differ in entropy, so the g0 LP has a live objective there.
"""

from __future__ import annotations

import numpy as np

from . import dist
from .dist import JointDistribution


def _random_simplex(rng: np.random.Generator, n: int, floor: float = 0.02) -> np.ndarray:
    """Full-support probability vector; entries bounded away from zero."""
    v = rng.dirichlet(np.ones(n))
    v = v + floor
    return v / v.sum()


def random_deterministic_pair(
    rng: np.random.Generator,
    max_x: int = 4,
    max_y: int = 10,
    x_size: int | None = None,
    y_size: int | None = None,
) -> JointDistribution:
    """X = f(Y) with a uniformly random surjective f and full-support P_Y;
    sizes not given are drawn up to ``max_x`` and ``max_y``."""
    y_size = y_size or int(rng.integers(2, max_y + 1))
    x_size = x_size or int(rng.integers(1, min(max_x, y_size) + 1))
    f = np.concatenate([np.arange(x_size), rng.integers(0, x_size, y_size - x_size)])
    rng.shuffle(f)
    p_y = _random_simplex(rng, y_size)
    kernel = np.zeros((x_size, y_size))
    kernel[f, np.arange(y_size)] = 1.0
    return dist.from_conditional(kernel, p_y)


def random_common_info_pair(
    rng: np.random.Generator,
    v_size: int | None = None,
    n1_size: int | None = None,
    n2_size: int | None = None,
) -> JointDistribution:
    """X = (V, N1), Y = (V, N2) with V, N1, N2 independent and full support."""
    nv = v_size or int(rng.integers(2, 4))
    n1 = n1_size or int(rng.integers(1, 4))
    n2 = n2_size or int(rng.integers(1, 4))
    p_v = _random_simplex(rng, nv)
    p_n1 = _random_simplex(rng, n1)
    p_n2 = _random_simplex(rng, n2)
    joint = np.zeros((nv * n1, nv * n2))
    for v in range(nv):
        for a in range(n1):
            for b in range(n2):
                joint[v * n1 + a, v * n2 + b] = p_v[v] * p_n1[a] * p_n2[b]
    return dist.validate_and_normalize(joint)


def random_invertible_pair(rng: np.random.Generator, max_n: int = 4) -> JointDistribution:
    """Square diagonally dominant kernel P(X|Y); membership should fail
    unless the pair degenerates to independence-like corner cases."""
    n = int(rng.integers(2, max_n + 1))
    kernel = 0.6 * np.eye(n) + 0.4 * rng.dirichlet(np.ones(n), size=n).T
    kernel = kernel / kernel.sum(axis=0)[None, :]
    p_y = _random_simplex(rng, n)
    return dist.from_conditional(kernel, p_y)


def random_rectangle_member(rng: np.random.Generator, max_x: int = 4, max_u: int = 5) -> JointDistribution:
    """A member built from a hidden U: draw P_X and P_U (each 0.9 Dirichlet(1)
    plus 0.1 uniform, |X| in 2..max_x, |U| in 2..max_u) and cut the |X| x |U|
    grid into rectangles A_y x B_y by guillotine cuts, each y one rectangle,
    so P(x, y) = P_X(x) P_U(B_y) on A_y. Then U is independent of X, Y is a
    function of (X, U) and P(u | x, y) = P_U(u) / P_U(B_y) on B_y depends on
    y alone, so U is a zero-leakage decodable disclosure and the joint a
    member. The whole grid is always cut; each piece after that stays whole
    with probability 0.35, and a piece of one cell is never cut. Columns
    are in depth-first order of the cuts."""
    nx, nu = int(rng.integers(2, max_x + 1)), int(rng.integers(2, max_u + 1))
    p_x = 0.9 * rng.dirichlet(np.ones(nx)) + 0.1 / nx
    p_u = 0.9 * rng.dirichlet(np.ones(nu)) + 0.1 / nu
    cols = []

    def cut(x0: int, x1: int, u0: int, u1: int, first: bool) -> None:
        axes = [axis for axis, n in enumerate((x1 - x0, u1 - u0)) if n > 1]
        if not axes or (not first and rng.random() < 0.35):
            col = np.zeros(nx)
            col[x0:x1] = p_x[x0:x1] * p_u[u0:u1].sum()
            cols.append(col)
        elif axes[int(rng.integers(len(axes)))] == 0:
            at = int(rng.integers(x0 + 1, x1))
            cut(x0, at, u0, u1, False)
            cut(at, x1, u0, u1, False)
        else:
            at = int(rng.integers(u0 + 1, u1))
            cut(x0, x1, u0, at, False)
            cut(x0, x1, at, u1, False)

    cut(0, nx, 0, nu, True)
    return dist.validate_and_normalize(np.array(cols).T)


FAMILIES = {
    "det-f": random_deterministic_pair,
    "common-info": random_common_info_pair,
    "invertible": random_invertible_pair,
    "rect": random_rectangle_member,
}
