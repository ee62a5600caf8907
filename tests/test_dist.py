"""Distribution construction, marginals, kernels, and information measures."""

import math

import numpy as np
import pytest

from zeroleak import dist
from zeroleak.errors import (
    BadShape,
    EmptySupport,
    NegativeMass,
    NonFiniteMass,
    StochasticityError,
)

EX1_KERNEL = np.array([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]], dtype=float)
EX1_PY = np.array([1 / 8, 2 / 8, 3 / 8, 1 / 8, 1 / 16, 1 / 16])


def example1():
    return dist.from_conditional(EX1_KERNEL, EX1_PY)


def h_bits(*probs):
    """Independent scalar-math entropy oracle."""
    return -sum(p * math.log2(p) for p in probs if p > 0)


def test_zero_row_is_stripped():
    d = dist.validate_and_normalize([[0.5, 0.5], [0.0, 0.0]])
    assert d.x_size == 1 and d.y_size == 2
    assert np.allclose(d.p, [[0.5, 0.5]])
    assert d.x_map == (0,) and d.y_map == (0, 1)


def test_valid_distribution_is_fixed_point():
    raw = np.array([[0.1, 0.4], [0.3, 0.2]])
    d = dist.validate_and_normalize(raw)
    assert np.array_equal(d.p, raw)
    assert d.x_map == (0, 1) and d.y_map == (0, 1)


def test_example1_composition_and_marginals():
    d = example1()
    # oracle: multiply kernel columns by P_Y entries and sum the rows
    expected = EX1_KERNEL * EX1_PY[None, :]
    assert np.allclose(d.p, expected, atol=1e-15)
    assert np.allclose(dist.marginal_x(d), [3 / 4, 1 / 4], atol=1e-12)
    assert np.allclose(dist.marginal_y(d), EX1_PY, atol=1e-15)


def test_uniform_marginals():
    d = dist.validate_and_normalize(np.full((2, 2), 0.25))
    assert np.allclose(dist.marginal_x(d), [0.5, 0.5])
    assert np.allclose(dist.marginal_y(d), [0.5, 0.5])


def test_validate_errors():
    with pytest.raises(BadShape):
        dist.validate_and_normalize([[0.5, 0.5], [0.5]])
    with pytest.raises(EmptySupport):
        dist.validate_and_normalize([[0.0, 0.0]])
    with pytest.raises(NegativeMass):
        dist.validate_and_normalize([[0.5, -0.1], [0.3, 0.3]])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFiniteMass):
            dist.validate_and_normalize([[0.5, bad], [0.3, 0.3]])


def test_overflowing_total_is_scaled_first():
    # the sum of these entries is inf; normalizing must neither warn nor zero them
    d = dist.validate_and_normalize([[1e308, 1e308], [1e308, 1e308]])
    assert np.array_equal(d.p, np.full((2, 2), 0.25))
    d = dist.validate_and_normalize([[1.5e308, 0.0], [1.5e308, 1e307]])
    assert np.allclose(d.p, np.array([[15, 0], [15, 1]]) / 31, rtol=1e-15, atol=0)


def test_from_conditional_rejects_bad_column():
    with pytest.raises(StochasticityError):
        dist.from_conditional([[0.5, 1.0], [0.4, 0.0]], [0.5, 0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kernel_rejects_non_finite_entries(bad):
    # NaN compares False against every tolerance, so the column-sum and
    # minimum checks alone would let it through
    k = EX1_KERNEL.copy()
    k[0, 0] = bad
    with pytest.raises(NonFiniteMass, match="not finite"):
        dist.Kernel(k)


def test_kernel_example1():
    d = example1()
    assert np.allclose(dist.kernel_x_given_y(d).k, EX1_KERNEL, atol=1e-12)


def test_kernel_independent_pair():
    px = np.array([0.3, 0.7])
    py = np.array([0.2, 0.5, 0.3])
    d = dist.validate_and_normalize(np.outer(px, py))
    k = dist.kernel_x_given_y(d).k
    for j in range(3):
        assert np.allclose(k[:, j], px, atol=1e-12)


def test_kernel_identity_joint():
    d = dist.validate_and_normalize(np.eye(3) / 3)
    assert np.allclose(dist.kernel_x_given_y(d).k, np.eye(3), atol=1e-12)


def test_entropy_basics():
    assert dist.entropy([0.25, 0.25, 0.25, 0.25]) == pytest.approx(2.0, abs=1e-12)
    assert dist.entropy([1.0, 0.0]) == 0.0
    assert dist.entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5, abs=1e-12)


def test_example1_conditional_entropy():
    # oracle: H(Y|X) = 3/4 H([1/6,2/6,3/6]) + 1/4 H([1/2,1/4,1/4])
    oracle = 0.75 * h_bits(1 / 6, 2 / 6, 3 / 6) + 0.25 * h_bits(1 / 2, 1 / 4, 1 / 4)
    assert oracle == pytest.approx(1.4693609377704335, abs=1e-12)
    d = example1()
    assert dist.conditional_entropy_y_given_x(d) == pytest.approx(oracle, abs=1e-12)
    assert dist.conditional_entropy_per_x(d, 0) == pytest.approx(
        h_bits(1 / 6, 2 / 6, 3 / 6), abs=1e-12
    )
    assert dist.conditional_entropy_per_x(d, 1) == pytest.approx(1.5, abs=1e-12)


def test_deterministic_y_of_x_has_zero_conditional_entropy():
    d = dist.validate_and_normalize(np.diag([0.2, 0.3, 0.5]))
    assert dist.conditional_entropy_y_given_x(d) == 0.0


def test_chain_rule_and_nonnegativity_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 6)))
        d = dist.validate_and_normalize(rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape))
        hy = dist.entropy(dist.marginal_y(d))
        hyx = dist.conditional_entropy_y_given_x(d)
        mi = dist.mutual_information(d)
        assert mi >= 0.0
        assert abs(hy - hyx - mi) <= 1e-10


def test_entropy_permutation_invariant_and_uniform_max():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        v = rng.dirichlet(np.ones(n))
        shuffled = v[rng.permutation(n)]
        assert dist.entropy(v) == pytest.approx(dist.entropy(shuffled), abs=1e-12)
        assert dist.entropy(v) <= math.log2(n) + 1e-12
    assert dist.entropy(np.full(8, 1 / 8)) == pytest.approx(3.0, abs=1e-12)


def test_kernel_recomposition_reproduces_joint():
    rng = np.random.default_rng(3)
    for _ in range(20):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 6)))
        d = dist.validate_and_normalize(
            rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape) + 1e-4
        )
        k = dist.kernel_x_given_y(d).k
        recomposed = k * dist.marginal_y(d)[None, :]
        assert np.abs(recomposed - d.p).max() <= 1e-12
