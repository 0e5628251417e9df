import math

import numpy as np
import pytest

from apcg.core import (BlockPartition, CompositeProblem, L1Regularizer,
                       SmoothOracle, ZeroRegularizer, block_prox, weighted_norm)
from apcg.erm import ConjugatePenalty

import oracles
from oracles import BoxIndicator


def test_partition_offsets_and_sizes():
    p = BlockPartition((2, 3, 1))
    assert p.offsets == (0, 2, 5)
    assert p.total == 6
    assert p.n == 3
    assert p.slice(1) == slice(2, 5)
    x = np.arange(6.0)
    assert np.array_equal(x[p.slice(1)], [2.0, 3.0, 4.0])
    assert all(a < b for a, b in zip(p.offsets, p.offsets[1:]))
    assert sum(p.sizes) == p.total
    # the scalar partition every AFG cell builds over n dual coordinates
    q = BlockPartition.scalar(10**4)
    assert q.sizes == (1,) * 10**4
    assert q.offsets == tuple(range(10**4))
    assert all(type(v) is int for v in q.sizes + q.offsets)
    assert (q.n, q.total) == (10**4, 10**4)
    assert q.slice(9_999) == slice(9_999, 10_000)


def test_partition_rejects_bad_sizes():
    with pytest.raises(ValueError):
        BlockPartition((2, 0, 1))
    with pytest.raises(ValueError):
        BlockPartition(())


def test_weighted_norm_euclidean_case():
    p = BlockPartition.scalar(3)
    assert weighted_norm(np.array([3.0, 4.0, 0.0]), [1, 1, 1], p) == pytest.approx(5.0)


def test_weighted_norm_zero_vector():
    p = BlockPartition((2, 2))
    assert weighted_norm(np.zeros(4), [7.0, 0.3], p) == 0.0


def test_weighted_norm_two_weights():
    p = BlockPartition.scalar(2)
    got = weighted_norm(np.array([1.0, -1.0]), [4.0, 9.0], p)
    assert got == pytest.approx(math.sqrt(13.0), abs=1e-12)


def test_weighted_norm_matches_euclidean_with_unit_weights():
    rng = np.random.Generator(np.random.PCG64(0))
    p = BlockPartition((3, 1, 4))
    for _ in range(20):
        x = rng.standard_normal(8)
        got = weighted_norm(x, np.ones(3), p)
        assert abs(got - np.linalg.norm(x)) <= 1e-14 * max(1.0, np.linalg.norm(x))


def test_weighted_norm_properties():
    rng = np.random.Generator(np.random.PCG64(1))
    p = BlockPartition((2, 3))
    w = np.array([0.5, 4.0])

    def norm(v):
        return weighted_norm(v, w, p)

    for _ in range(50):
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        c = rng.standard_normal()
        assert norm(x) >= 0.0
        assert norm(c * x) == pytest.approx(abs(c) * norm(x), rel=1e-12)
        assert norm(x + y) <= norm(x) + norm(y) + 1e-12
    assert norm(np.zeros(5)) == 0.0
    assert norm(x - x) == 0.0


def test_weighted_norm_dimension_errors():
    p = BlockPartition.scalar(3)
    with pytest.raises(ValueError):
        weighted_norm(np.zeros(4), [1, 1, 1], p)
    with pytest.raises(ValueError):
        weighted_norm(np.zeros(3), [1, 1], p)
    with pytest.raises(ValueError):
        weighted_norm(np.zeros(3), [1, -1, 1], p)


def test_block_prox_identity_for_zero_regularizer():
    reg = ZeroRegularizer()
    c = np.array([1.5, -2.0])
    assert np.array_equal(block_prox(reg, 0, c, 3.0), c)


def test_block_prox_l1_scalar_example():
    reg = L1Regularizer(1.0)
    got = block_prox(reg, 0, np.array([2.0]), 1.0)
    assert got[0] == pytest.approx(1.0, abs=1e-15)


def test_block_prox_box_projection():
    reg = BoxIndicator(0.0, 1.0)
    assert block_prox(reg, 0, np.array([1.7]), 2.0)[0] == 1.0
    assert block_prox(reg, 0, np.array([-0.2]), 2.0)[0] == 0.0
    assert block_prox(reg, 0, np.array([0.4]), 2.0)[0] == 0.4


def test_block_prox_rejects_bad_inputs():
    reg = L1Regularizer(1.0)
    with pytest.raises(ValueError):
        block_prox(reg, 0, np.array([np.nan]), 1.0)
    with pytest.raises(ValueError):
        block_prox(reg, 0, np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        block_prox(reg, 0, np.array([1.0]), -2.0)


# regularizer name -> constructor from per-coordinate anchors
PROX_FORMS = {
    "zero": lambda a: ZeroRegularizer(),
    "l1": lambda a: L1Regularizer(0.7),
    "box": lambda a: BoxIndicator(-0.5, 0.8),
    "conjugate-linear-boxed": lambda a: ConjugatePenalty(a, 0.0, a.size, (0.0, 1.0)),
    "conjugate-linear-free": lambda a: ConjugatePenalty(a, 0.0, a.size, None),
    "conjugate-quadratic-boxed": lambda a: ConjugatePenalty(a, 1.3, a.size, (0.0, 1.0)),
    "conjugate-quadratic-free": lambda a: ConjugatePenalty(a, 1.3, a.size, None),
}


@pytest.mark.parametrize("name", PROX_FORMS)
def test_prox_full_is_prox_block_at_every_coordinate(name):
    rng = np.random.default_rng(13)
    n = 40
    reg = PROX_FORMS[name](rng.standard_normal(n))
    for weight in (0.03, 1.0, 17.0):
        c = rng.uniform(-3.0, 3.0, n)
        full = reg.prox_full(c, weight)
        per_block = np.concatenate([reg.prox_block(i, c[i:i + 1], weight)
                                    for i in range(n)])
        assert full.dtype == per_block.dtype and full.shape == (n,)
        assert full.tobytes() == per_block.tobytes()  # bitwise, signed zeros too


def test_prox_subgradient_optimality_l1():
    # weight*(center - s) must be a subgradient of strength*|.| at s
    reg = L1Regularizer(0.7)
    rng = np.random.Generator(np.random.PCG64(2))
    for _ in range(100):
        c = rng.standard_normal() * 3
        w = rng.uniform(0.1, 5.0)
        s = block_prox(reg, 0, np.array([c]), w)[0]
        g = w * (c - s)
        if s > 0:
            assert g == pytest.approx(0.7, abs=1e-12)
        elif s < 0:
            assert g == pytest.approx(-0.7, abs=1e-12)
        else:
            assert abs(g) <= 0.7 + 1e-12


def test_prox_firm_nonexpansiveness():
    rng = np.random.Generator(np.random.PCG64(3))
    for reg in (L1Regularizer(0.5), BoxIndicator(-1.0, 2.0)):
        for _ in range(100):
            c1 = rng.standard_normal(4) * 2
            c2 = rng.standard_normal(4) * 2
            w = rng.uniform(0.2, 4.0)
            p1 = block_prox(reg, 0, c1, w)
            p2 = block_prox(reg, 0, c2, w)
            assert np.linalg.norm(p1 - p2) <= np.linalg.norm(c1 - c2) + 1e-12


def test_l1_prox_matches_grid_oracle():
    reg = L1Regularizer(0.9)
    rng = np.random.Generator(np.random.PCG64(4))
    for _ in range(50):
        c = rng.standard_normal() * 2
        w = rng.uniform(0.3, 3.0)
        want = oracles.grid_prox(lambda s: 0.9 * abs(s), c, w, -6.0, 6.0)
        got = block_prox(reg, 0, np.array([c]), w)[0]
        assert got == pytest.approx(want, abs=1e-6)


def test_smooth_oracle_validation():
    ok = dict(value=lambda x: 0.0, full_gradient=lambda x: x,
              partial_gradient=lambda x, i: x[i:i + 1])
    with pytest.raises(ValueError):
        SmoothOracle(lipschitz=np.array([1.0, -1.0]), mu=0.0, **ok)
    with pytest.raises(ValueError):
        SmoothOracle(lipschitz=np.array([1.0, 1.0]), mu=1.5, **ok)
    with pytest.raises(ValueError):
        SmoothOracle(lipschitz=np.array([np.inf, 1.0]), mu=0.0, **ok)


def test_partial_gradient_matches_full_gradient_slices(lasso20):
    problem = lasso20.problem
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(10):
        x = rng.standard_normal(problem.dim)
        g = problem.smooth.full_gradient(x)
        for i in range(problem.n):
            gi = problem.smooth.partial_gradient(x, i)
            assert np.allclose(gi, g[problem.partition.slice(i)], atol=1e-13)


def test_block_lipschitz_inequality_sampled(lasso20):
    # 100 random (x, h) pairs per block, relative tolerance 1e-10
    problem = lasso20.problem
    L = problem.smooth.lipschitz
    rng = np.random.Generator(np.random.PCG64(6))
    for i in range(problem.n):
        sl = problem.partition.slice(i)
        for _ in range(100):
            x = rng.standard_normal(problem.dim)
            h = rng.standard_normal() * rng.uniform(0.01, 10.0)
            xh = x.copy()
            xh[sl] += h
            lhs = np.linalg.norm(problem.smooth.partial_gradient(xh, i)
                                 - problem.smooth.partial_gradient(x, i))
            assert lhs <= L[i] * abs(h) * (1 + 1e-10)


def test_sampled_lipschitz_estimator_is_conservative(lasso20):
    # the sampling estimator upper-bounds fresh probe ratios and stays
    # within its inflation factor of the exact constants
    problem = lasso20.problem
    est = oracles.sampled_block_lipschitz(problem.smooth, problem.partition,
                                          samples=50, seed=1)
    true = problem.smooth.lipschitz
    assert np.all(est >= true * (1 - 1e-9))  # quadratic: ratio is exactly L_i
    assert np.all(est <= 1.6 * true)
    rng = np.random.Generator(np.random.PCG64(9))
    for i in range(problem.n):
        sl = problem.partition.slice(i)
        for _ in range(20):
            x = rng.standard_normal(problem.dim)
            h = rng.standard_normal() * rng.uniform(0.01, 5.0)
            xh = x.copy()
            xh[sl] += h
            ratio = np.linalg.norm(problem.smooth.partial_gradient(xh, i)
                                   - problem.smooth.partial_gradient(x, i)) / abs(h)
            assert ratio <= est[i]


def test_composite_problem_objective(lasso20):
    problem = lasso20.problem
    x = np.ones(problem.dim)
    want = (0.5 * x @ (lasso20.hessian @ x) - lasso20.linear @ x
            + 0.1 * np.sum(np.abs(x)))
    assert problem.objective(x) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        CompositeProblem(partition=BlockPartition.scalar(3),
                         smooth=problem.smooth, reg=problem.reg)
