"""Distribution construction, marginals, kernels, and information measures."""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    bits,
    bound_matrices,
    loop_conditional_entropies,
    loop_conditional_entropy_y_given_x,
    loop_entropy_rows,
    random_small_y_pair,
)

from zeroleak import dist, families, mechanism as mm
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


@pytest.mark.parametrize(
    "raw, named",
    [
        ([[0.5, 0.5], [0.0, 0.0]], "x = 1 has no probability mass: joint row 1"),
        ([[0.5, 0.0, 0.25], [0.0, 0.0, 0.25]], "y = 1 has no probability mass: joint column 1"),
        # x = 2 and y = 0 are both empty; the first x is named
        ([[0.0, 0.5], [0.0, 0.5], [0.0, 0.0]], "x = 2 "),
        # the clamp of [-TAU_PROB, 0) empties the row
        ([[0.5, 0.5], [-1e-10, -5e-10]], "x = 1 "),
        # dividing an overflowing total by the largest entry empties the column
        ([[1.5e308, 1e-300], [1.5e308, 0.0]], "y = 1 "),
    ],
    ids=["row", "column", "row-first", "clamped-row", "underflowed-column"],
)
def test_zero_mass_symbol_is_rejected(raw, named):
    with pytest.raises(EmptySupport, match=re.escape(named)):
        dist.validate_and_normalize(raw)


def test_tiny_positive_total_normalizes():
    # a total at or below TAU_PROB is still a total; only exactly 0 is empty
    d = dist.validate_and_normalize(np.full((2, 2), 1e-10))
    assert d.p.tolist() == [[0.25, 0.25], [0.25, 0.25]]
    with pytest.raises(EmptySupport, match="all probability mass is zero"):
        dist.validate_and_normalize([[0.0, 0.0], [0.0, -1e-10]])


def test_valid_distribution_is_fixed_point():
    raw = np.array([[0.1, 0.4], [0.3, 0.2]])
    d = dist.validate_and_normalize(raw)
    assert np.array_equal(d.p, raw)


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
        dist.stochastic_columns(k)


@pytest.mark.parametrize(
    "k, error, message",
    [
        ([[0.5, 1.0], [0.4, 0.0]], StochasticityError, "kernel column 0 sums to 0.9, expected 1"),
        ([[1.5, 1.0], [-0.5, 0.0]], NegativeMass, "kernel has negative entry -0.5"),
        ([1.0, 0.0], BadShape, "nonempty 2-d"),
        (np.zeros((2, 0)), BadShape, "nonempty 2-d"),
    ],
    ids=["column-sum", "negative", "1-d", "empty"],
)
def test_stochastic_columns_names_the_first_broken_check(k, error, message):
    with pytest.raises(error, match=re.escape(message)):
        dist.stochastic_columns(k)


def test_stochastic_columns_returns_a_read_only_c_contiguous_copy():
    k = EX1_KERNEL.T.copy().T  # Fortran order
    out = dist.stochastic_columns(k)
    assert np.array_equal(out, EX1_KERNEL) and out.flags.c_contiguous and not out.flags.writeable
    assert not np.shares_memory(out, k)


def test_kernel_example1():
    d = example1()
    assert np.allclose(dist.kernel_x_given_y(d), EX1_KERNEL, atol=1e-12)


def test_kernel_independent_pair():
    px = np.array([0.3, 0.7])
    py = np.array([0.2, 0.5, 0.3])
    d = dist.validate_and_normalize(np.outer(px, py))
    k = dist.kernel_x_given_y(d)
    for j in range(3):
        assert np.allclose(k[:, j], px, atol=1e-12)


def test_kernel_identity_joint():
    d = dist.validate_and_normalize(np.eye(3) / 3)
    assert np.allclose(dist.kernel_x_given_y(d), np.eye(3), atol=1e-12)


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
    h = dist.conditional_entropies(d)
    assert h[0] == pytest.approx(h_bits(1 / 6, 2 / 6, 3 / 6), abs=1e-12)
    assert h[1] == pytest.approx(1.5, abs=1e-12)


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
        k = dist.kernel_x_given_y(d)
        recomposed = k * dist.marginal_y(d)[None, :]
        assert np.abs(recomposed - d.p).max() <= 1e-12


# ---------------------------------------------------------------------------
# batched row entropies against one ``entropy`` call per row, bit for bit


@given(st.integers(0, 2**32 - 1), st.integers(0, 12), st.integers(0, 300))
@example(seed=0, rows=6, width=300)
def test_entropy_rows_matches_row_entropy(seed, rows, width):
    # every row keeps a share of its entries positive, from none to all of
    # them, so that sums of fewer than 8, up to 128 (numpy's 8-way unrolled
    # block) and more than 128 terms (its recursive halving) all occur; the
    # rest are zero, negative or NaN, which entropy skips
    rng = np.random.default_rng(seed)
    share = rng.choice([0.0, 0.03, 0.3, 0.6, 0.95, 1.0], size=(rows, 1))
    m = rng.random((rows, width)) ** 4
    m[rng.random(rows) < 0.5] *= 1e-300  # tiny and subnormal entries
    skipped = rng.choice([0.0, -0.0, -0.5, np.nan], size=(rows, width))
    m = np.where(rng.random((rows, width)) < share, m, skipped)
    normal = rng.random(rows) < 0.5
    m[normal] /= np.maximum(np.nansum(np.clip(m[normal], 0.0, None), axis=1), 1e-300)[:, None]
    got = dist.entropy_rows(m)
    assert got.shape == (rows,)
    assert bits(got) == bits(loop_entropy_rows(m))
    if seed == 0 and width == 300:  # the explicit example reaches the recursive halving
        assert (m > 0.0).sum(axis=1).max() > 130


@given(st.integers(0, 2**32 - 1), st.integers(0, 300))
def test_sum_in_order_adds_left_to_right(seed, n):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
    h = 0.0
    for t in v:
        h += t
    assert bits(dist.sum_in_order(v)) == bits(h)


# both zeros, the smallest subnormals, NaN, the infinities and any finite
# double of either sign
FOLD_TERMS = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf]),
        st.floats(allow_nan=False),
    ),
    max_size=30,
)


@given(FOLD_TERMS, st.integers(1, 40))
@example([], 1)
@example([-0.0, -0.0], 3)
@example([0.0, -0.0, 5e-324, -5e-324, -0.0], 2)
@example([1e308, 1e308, -math.inf, 0.0, math.nan], 1)
def test_sum_in_order_matches_loop_oracle(terms, times):
    # the fold that drops exact zeros adds what the loop over every term,
    # each repeated ``times`` times, adds, byte for byte (the sign of 0 too);
    # numpy warns where the loop silently overflows or meets inf - inf
    s = 0.0
    for t in terms:
        for _ in range(times):
            s += t
    with np.errstate(over="ignore", invalid="ignore"):
        got = dist.sum_in_order(np.array(terms, dtype=float), times)
    assert struct.pack("<d", got) == struct.pack("<d", s)


@given(st.sampled_from(["example1", "wide", *families.FAMILIES]), st.integers(0, 2**32 - 1))
def test_conditional_entropies_match_row_loops(family, seed):
    # H(Y|X=x), H(Y|X), the report's sum and max over x, the bound system's
    # right-hand side and the g0 vertex entropies, against their loops
    rng = np.random.default_rng(seed)
    if family == "example1":
        d = example1()
    elif family == "wide":  # enough x that the sums over x pair differently
        d = random_small_y_pair(rng, max_y=6, max_x=40)
    else:
        d = families.FAMILIES[family](rng)
    h = dist.conditional_entropies(d)
    want = loop_conditional_entropies(d)
    assert bits(h) == bits(want)
    assert bits(dist.conditional_entropy_y_given_x(d)) == bits(loop_conditional_entropy_y_given_x(d))
    assert bits(dist.sum_in_order(h)) == bits(float(sum(want)))
    assert bits(h.max()) == bits(float(max(want)))
    h_cond = loop_conditional_entropy_y_given_x(d)
    assert bits(bound_matrices(d)[1]) == bits([hx - h_cond for hx in want])
    verts = mm.feasible_columns(d)
    assert bits(dist.entropy_rows(verts)) == bits(loop_entropy_rows(verts))


def search_components(d):
    """Components of the support graph by depth-first search from each
    unvisited x in index order: the oracle for ``dist.support_components``."""
    x_part, y_part = [-1] * d.x_size, [-1] * d.y_size
    count = 0
    for root in range(d.x_size):
        if x_part[root] >= 0:
            continue
        stack = [root]
        x_part[root] = count
        while stack:
            x = stack.pop()
            for y in np.nonzero(d.p[x] > 0.0)[0].tolist():
                if y_part[y] < 0:
                    y_part[y] = count
                    for x2 in np.nonzero(d.p[:, y] > 0.0)[0].tolist():
                        if x_part[x2] < 0:
                            x_part[x2] = count
                            stack.append(x2)
        count += 1
    return count, x_part, y_part


@given(st.sampled_from(["sparse", "chain", *families.FAMILIES]), st.integers(0, 2**32 - 1))
@example("chain", 0)
def test_support_components_match_search_oracle(family, seed):
    rng = np.random.default_rng(seed)
    if family == "sparse":  # random zeros, then a wrapped diagonal keeps every row and column
        shape = tuple(rng.integers(1, 9, size=2))
        m = rng.random(shape) * (rng.random(shape) < rng.uniform(0.05, 0.6))
        diagonal = np.arange(max(shape))
        m[diagonal % shape[0], diagonal % shape[1]] += 1e-3
        d = dist.validate_and_normalize(m)
    elif family == "chain":  # a staircase in shuffled order: one component, many passes
        n = int(rng.integers(2, 12))
        m = np.eye(n) + np.eye(n, k=1)
        d = dist.validate_and_normalize(m[rng.permutation(n)][:, rng.permutation(n)])
    else:
        d = families.FAMILIES[family](rng)
    count, x_part, y_part = dist.support_components(d)
    assert (count, x_part.tolist(), y_part.tolist()) == search_components(d)
