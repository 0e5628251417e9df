import math
import tracemalloc

import numpy as np
import pytest

from apcg.core import BlockPartition, CompositeProblem, SmoothOracle
from apcg.errors import ConfigurationError
from apcg.instances import diag_dominant_quadratic
from apcg.schedule import ApcgSchedule, theta_rows
from apcg.solvers import (ApcgEfficientState, ApcgExplicitState, BlockSampler,
                          apcg_step_efficient, apcg_step_general, solve)

import oracles
from oracles import ZeroRegularizer, block_quadratic


def shifted_quadratic(target):
    """f(x) = 0.5 ||x - target||^2 over scalar blocks; minimizer = target."""
    target = np.asarray(target, dtype=float)
    n = target.size
    smooth = SmoothOracle(
        value=lambda x: 0.5 * float((x - target) @ (x - target)),
        full_gradient=lambda x: x - target,
        partial_gradient=lambda x, i: x[i:i + 1] - target[i:i + 1],
        lipschitz=np.ones(n), mu=1.0)
    return CompositeProblem(partition=BlockPartition.scalar(n), smooth=smooth,
                            reg=ZeroRegularizer())


class FixedBlock:
    """A stand-in for a state's sampler that always draws block ``i``."""

    def __init__(self, i: int):
        self.i = i

    def draw(self) -> int:
        return self.i


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------

def test_sampler_deterministic_and_in_range():
    a = BlockSampler(7, seed=42)
    b = BlockSampler(7, seed=42)
    draws = [a.draw() for _ in range(10_000)]
    assert draws == [b.draw() for _ in range(10_000)]
    assert min(draws) == 0 and max(draws) == 6
    counts = np.bincount(draws, minlength=7)
    assert counts.min() > 10_000 / 7 * 0.8  # roughly uniform


def test_sampler_different_seeds_differ():
    a = [BlockSampler(5, seed=0).draw() for _ in range(20)]
    b = [BlockSampler(5, seed=1).draw() for _ in range(20)]
    assert a != b


@pytest.mark.parametrize("n", [1, 7, 1000, 5000])
def test_sampler_take_continues_the_draw_stream(n):
    # chunks straddle the 4096-index refill at several offsets, and draw()
    # and take() interleave, so any lost or repeated index would show
    chunks = [1, 0, 3, None, 4090, 4096, None, 5000, 1, 8193, None, 2]
    mixed = BlockSampler(n, seed=9)
    got = []
    for k in chunks:
        if k is None:
            got.append(mixed.draw())
            continue
        chunk = mixed.take(k)
        assert chunk.dtype == np.int64 and chunk.shape == (k,)
        got.extend(chunk.tolist())
    pure = BlockSampler(n, seed=9)
    assert got == [pure.draw() for _ in range(len(got))]
    assert all(type(i) is int for i in got)


def test_sampler_take_rejects_negative_count():
    with pytest.raises(ValueError):
        BlockSampler(3, seed=0).take(-1)


# ---------------------------------------------------------------------------
# single-step behavior
# ---------------------------------------------------------------------------

def test_y_equals_x_when_z_equals_x():
    problem = shifted_quadratic(np.array([0.3, -0.7]))
    sched = ApcgSchedule(2, 1.0, 1.0)
    state = ApcgExplicitState.start(np.array([1.0, 2.0]), seed=0, n_blocks=2)
    state.sampler = FixedBlock(0)
    apcg_step_general(problem, state, sched)
    assert np.allclose(state.y, [1.0, 2.0], atol=1e-15)


@pytest.mark.parametrize("block", [0, 1, 2])
def test_stationary_point_is_fixed_for_all_steppers(block):
    target = np.array([0.5, -1.0, 2.0])
    problem = shifted_quadratic(target)
    # gamma0 = mu = 1 (also the strongly convex preset), a general start,
    # and the mu = 0 preset
    for sched in (ApcgSchedule(3, 1.0, 1.0), ApcgSchedule(3, 0.25, 0.5),
                  ApcgSchedule(3, 0.0, 1.0)):
        st = ApcgExplicitState.start(target, seed=0, n_blocks=3)
        st.sampler = FixedBlock(block)
        apcg_step_general(problem, st, sched)
        assert np.allclose(st.x, target, atol=1e-14)
        assert np.allclose(st.z, target, atol=1e-14)

    eff = ApcgEfficientState(target, problem, 1.0, seed=0)
    eff.sampler = FixedBlock(block)
    apcg_step_efficient(problem, eff)
    assert np.allclose(eff.x_full(), target, atol=1e-14)


def test_general_step_two_block_golden():
    # f = 0.5||x||^2, Psi = 0, L = [1,1], mu = 1, gamma0 = 1, start (1,1),
    # first block forced: worked by hand from the update formulas
    problem = shifted_quadratic(np.zeros(2))
    sched = ApcgSchedule(2, 1.0, 1.0)
    state = ApcgExplicitState.start(np.array([1.0, 1.0]), seed=0, n_blocks=2)
    state.sampler = FixedBlock(0)
    apcg_step_general(problem, state, sched)
    assert sched.history(1)[0][0] == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(state.y, [1.0, 1.0], atol=1e-15)
    assert np.allclose(state.z, [0.0, 1.0], atol=1e-14)
    assert np.allclose(state.x, [0.0, 1.0], atol=1e-14)


def test_efficient_step_matches_z_increment_golden():
    # same instance: the efficient step's increment h equals the explicit
    # z-move on the chosen block, here -1
    problem = shifted_quadratic(np.zeros(2))
    eff = ApcgEfficientState(np.array([1.0, 1.0]), problem, 1.0, seed=0)
    assert np.allclose(eff.y_full(), [1.0, 1.0], atol=1e-15)  # u=0, v=x0
    eff.sampler = FixedBlock(0)
    apcg_step_efficient(problem, eff)
    # h = -1: v_0 moves by (1 + n alpha)/2 h, which is h at n alpha = 1
    assert eff.v == pytest.approx(np.array([0.0, 1.0]), abs=1e-14)
    assert np.allclose(eff.x_full(), [0.0, 1.0], atol=1e-14)


def test_nsc_alpha_recursion_values():
    # mu = 0, one block, gamma0 = 1: alpha_0^2 = 1 - alpha_0
    alpha0 = ApcgSchedule(1, 0.0, 1.0).step()[0]
    assert alpha0 == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-15)
    # with mu = 0 the schedule follows alpha_k^2 = (1 - alpha_k) alpha_{k-1}^2
    for n in (2, 3, 10, 100):
        alphas = ApcgSchedule(n, 0.0, 1.0).history(50)[0].tolist()
        for prev, a in zip(alphas, alphas[1:]):
            a2 = prev * prev
            assert a == pytest.approx(0.5 * (math.sqrt(a2 * a2 + 4.0 * a2) - a2), rel=1e-13)


def test_nsc_alpha_decreasing_to_zero():
    sched = ApcgSchedule(4, 0.0, 1.0)  # alpha_{-1} = 1/4
    prev = 1.0 / 4
    for k in range(10_000):
        a = sched.step()[0]
        assert a < prev
        prev = a
    assert a < 1e-3


@pytest.mark.parametrize("preset", ["general", "strongly_convex", "non_strongly_convex"])
def test_general_step_is_bitwise_the_history_indexed_step(lasso20, preset):
    problem = lasso20.problem
    n, mu = problem.n, problem.smooth.mu
    sched = {"general": ApcgSchedule(n, mu, 1.0),
             "strongly_convex": ApcgSchedule(n, mu, mu),
             "non_strongly_convex": ApcgSchedule(n, 0.0, 1.0)}[preset]
    alphas, gammas, betas, _ = (h.tolist() for h in sched.history(500))
    history = (alphas, gammas, betas, sched.mu)
    got = ApcgExplicitState.start(np.zeros(problem.dim), seed=7, n_blocks=n)
    want = ApcgExplicitState.start(np.zeros(problem.dim), seed=7, n_blocks=n)
    for _ in range(500):
        apcg_step_general(problem, got, sched)
        oracles.apcg_step_general_reference(problem, want, history)
        assert np.array_equal(got.x, want.x) and np.array_equal(got.z, want.z)
        assert np.array_equal(got.y, want.y)
    assert sched.k == got.k == 500


def test_schedule_serves_exactly_one_run():
    problem = shifted_quadratic(np.array([0.5, -1.0]))
    sched = ApcgSchedule(2, 0.25, 1.0)
    first = ApcgExplicitState.start(np.zeros(2), seed=0, n_blocks=2)
    apcg_step_general(problem, first, sched)
    # a second state would start at iteration 0 on a schedule at 1
    second = ApcgExplicitState.start(np.zeros(2), seed=1, n_blocks=2)
    with pytest.raises(ConfigurationError):
        apcg_step_general(problem, second, sched)
    # a schedule stepped ahead of its state
    sched.step()
    with pytest.raises(ConfigurationError):
        apcg_step_general(problem, first, sched)
    assert (first.k, second.k, sched.k) == (1, 0, 2)


def test_long_schedule_runs_in_bounded_memory(lasso20):
    # the schedule keeps O(1) state, so 5 x 10^4 steps need no more memory
    # than a few iterate vectors
    problem = lasso20.problem
    tracemalloc.start()
    try:
        sched = ApcgSchedule(problem.n, problem.smooth.mu, problem.smooth.mu)
        state = ApcgExplicitState.start(np.zeros(problem.dim), seed=0, n_blocks=problem.n)
        for _ in range(50_000):
            apcg_step_general(problem, state, sched)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.1e6


# ---------------------------------------------------------------------------
# cross-variant equivalences
# ---------------------------------------------------------------------------

def test_sc_equals_general_with_gamma0_mu(lasso20):
    problem = lasso20.problem
    mu = problem.smooth.mu
    alpha = math.sqrt(mu) / problem.n
    s_sc = ApcgExplicitState.start(np.zeros(problem.dim), seed=9, n_blocks=problem.n)
    s_gen = ApcgExplicitState.start(np.zeros(problem.dim), seed=9, n_blocks=problem.n)
    sched = ApcgSchedule(problem.n, mu, mu)
    dev = 0.0
    for _ in range(300):
        oracles.apcg_step_sc_reference(problem, s_sc, alpha)
        apcg_step_general(problem, s_gen, sched)
        dev = max(dev, float(np.max(np.abs(s_sc.x - s_gen.x))),
                  float(np.max(np.abs(s_sc.z - s_gen.z))))
    assert dev <= 1e-10


def test_nsc_equals_general_with_mu_zero(lasso20):
    # the mu = 0 form started at alpha_{-1} is the schedule with
    # gamma0 = (n alpha_{-1})^2; the problem's own mu > 0 is ignored
    problem = lasso20.problem
    n = problem.n
    for alpha_prev in (1.0 / n, 0.5 / n):
        s_nsc = ApcgExplicitState.start(np.zeros(problem.dim), seed=9, n_blocks=n)
        s_gen = ApcgExplicitState.start(np.zeros(problem.dim), seed=9, n_blocks=n)
        sched = ApcgSchedule(n, 0.0, (n * alpha_prev) ** 2)
        alphas = sched.history(300)[0]
        dev = 0.0
        for k in range(300):
            _, alpha_prev = oracles.apcg_step_nsc_reference(problem, s_nsc, alpha_prev)
            apcg_step_general(problem, s_gen, sched)
            assert alphas[k] == pytest.approx(alpha_prev, rel=1e-12)
            dev = max(dev, float(np.max(np.abs(s_nsc.x - s_gen.x))),
                      float(np.max(np.abs(s_nsc.z - s_gen.z))))
        assert dev <= 1e-10


def test_efficient_reconstructions_match_explicit(lasso20):
    problem = lasso20.problem
    mu = problem.smooth.mu
    alpha = math.sqrt(mu) / problem.n
    for seed in (0, 1, 2):
        sched = ApcgSchedule(problem.n, mu, mu)
        exp = ApcgExplicitState.start(np.zeros(problem.dim), seed=seed,
                                      n_blocks=problem.n)
        eff = ApcgEfficientState(np.zeros(problem.dim), problem, mu, seed=seed)
        for k in range(500):
            apcg_step_general(problem, exp, sched)
            apcg_step_efficient(problem, eff)
            assert np.max(np.abs(eff.x_full() - exp.x)) <= 1e-8
            z_full = -eff.ubar_base * eff.scale / eff.rho + eff.v
            assert np.max(np.abs(z_full - exp.z)) <= 1e-8
            y_next = (exp.x + alpha * exp.z) / (1 + alpha)
            assert np.max(np.abs(eff.y_full() - y_next)) <= 1e-8


def test_efficient_requires_strong_convexity():
    problem = shifted_quadratic(np.zeros(2))
    with pytest.raises(ConfigurationError):
        ApcgEfficientState(np.zeros(2), problem, 0.0, seed=0)


def test_efficient_rejects_degenerate_rho():
    # mu = 1 with a single block makes rho = 0
    problem = shifted_quadratic(np.zeros(1))
    with pytest.raises(ConfigurationError):
        ApcgEfficientState(np.zeros(1), problem, 1.0, seed=0)


def test_efficient_matches_explicit_across_scale_folds():
    # mu ~ 0.96 at n = 2 gives rho ~ 1/3, so scale falls below 1e-120 and is
    # folded into ubar_base within about 250 steps
    problem = diag_dominant_quadratic(2, seed=1, dominance=10.0).problem
    mu = problem.smooth.mu
    sched = ApcgSchedule(2, mu, mu)
    exp = ApcgExplicitState.start(np.zeros(2), seed=3, n_blocks=2)
    eff = ApcgEfficientState(np.zeros(2), problem, mu, seed=3)
    assert eff.rho < 0.35
    folds = 0
    for _ in range(600):
        scale = eff.scale
        apcg_step_general(problem, exp, sched)
        apcg_step_efficient(problem, eff)
        folds += eff.scale > scale  # the scale only grows at a fold
        assert np.max(np.abs(eff.x_full() - exp.x)) <= 1e-8
    assert folds >= 1


def test_mixed_block_sizes_equivalence_and_lipschitz():
    # blocks of sizes (2, 3, 1) through both solver forms
    inst = block_quadratic((2, 3, 1), seed=6, l1=0.05)
    problem = inst.problem
    mu = problem.smooth.mu
    assert 0.0 < mu <= 1.0
    sched = ApcgSchedule(problem.n, mu, mu)
    exp = ApcgExplicitState.start(np.zeros(problem.dim), seed=4,
                                  n_blocks=problem.n)
    eff = ApcgEfficientState(np.zeros(problem.dim), problem, mu, seed=4)
    for _ in range(300):
        apcg_step_general(problem, exp, sched)
        apcg_step_efficient(problem, eff)
        assert np.max(np.abs(eff.x_full() - exp.x)) <= 1e-9
    # the run made progress
    assert problem.objective(exp.x) < problem.objective(np.zeros(problem.dim))
    # block Lipschitz constants are honest on random probes
    rng = np.random.Generator(np.random.PCG64(0))
    for i in range(problem.n):
        sl = problem.partition.slice(i)
        for _ in range(100):
            x = rng.standard_normal(problem.dim)
            h = rng.standard_normal(problem.partition.sizes[i])
            xh = x.copy()
            xh[sl] += h
            lhs = np.linalg.norm(problem.smooth.partial_gradient(xh, i)
                                 - problem.smooth.partial_gradient(x, i))
            assert lhs <= problem.smooth.lipschitz[i] * np.linalg.norm(h) * (1 + 1e-10)


def test_z_update_matches_full_argmin_small():
    # single-block resolution vs brute-force full-dimensional argmin
    inst = diag_dominant_quadratic(2, seed=8, l1=0.3)
    problem = inst.problem
    mu = problem.smooth.mu
    sched = ApcgSchedule(2, mu, 1.0)
    state = ApcgExplicitState.start(np.array([0.7, -0.4]), seed=3, n_blocks=2)
    for _ in range(3):
        apcg_step_general(problem, state, sched)
    k = state.k
    alphas, gammas, betas, _ = sched.history(k + 1)
    alpha, gamma_k, gamma_next = alphas[k], gammas[k], gammas[k + 1]
    beta = betas[k]
    y = (alpha * gamma_k * state.z + gamma_next * state.x) / (alpha * gamma_k + gamma_next)
    center = (1 - beta) * state.z + beta * y
    grad = problem.smooth.full_gradient(y)
    L = problem.smooth.lipschitz

    def full_objective(v):
        quad = sum(0.5 * 2 * alpha * L[i] * (v[i] - center[i]) ** 2 for i in range(2))
        return quad + float(grad @ (v - y)) + 0.3 * np.sum(np.abs(v))

    zt = oracles.grid_minimize_2d(full_objective, box=8.0, points=241, rounds=4)
    assert np.max(np.abs(zt)) < 7.0  # argmin interior to the search box
    for i in range(2):
        weight = 2 * alpha * L[i]
        s = problem.reg.prox_block(i, np.array([center[i] - grad[i] / weight]), weight)
        assert abs(s[0] - zt[i]) <= 1e-4


def test_theta_combination_identity_and_psi_hat():
    inst = diag_dominant_quadratic(8, seed=3, l1=0.05)
    problem = inst.problem
    sched = ApcgSchedule(problem.n, problem.smooth.mu, 1.0)
    state = ApcgExplicitState.start(np.zeros(problem.dim), seed=11,
                                    n_blocks=problem.n)
    zs = [state.z.copy()]
    psis = [problem.reg.eval_full(zs[0])]
    rows = theta_rows(sched, 150)
    next(rows)
    for theta in rows:
        apcg_step_general(problem, state, sched)
        zs.append(state.z.copy())
        psis.append(problem.reg.eval_full(zs[-1]))
        combo = np.zeros(problem.dim)
        for t, z in zip(theta, zs):
            combo += t * z
        assert np.max(np.abs(combo - state.x)) <= 1e-8
        psi_hat = sum(t * psi for t, psi in zip(theta, psis))
        psi_x = problem.reg.eval_full(state.x)
        assert psi_x <= psi_hat + 1e-10


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def general_schedule(problem):
    return ApcgSchedule(problem.n, problem.smooth.mu, 1.0)


def constant_schedule(problem):
    mu = problem.smooth.mu
    return ApcgSchedule(problem.n, mu, mu)


def efficient_trace(problem, max_iters, seed):
    """The (iteration, F(x)) pairs that ``solve`` traces, for the
    change-of-variables form."""
    state = ApcgEfficientState(np.zeros(problem.dim), problem, problem.smooth.mu, seed)
    trace = [(0, problem.objective(state.x_full()))]
    for k in range(1, max_iters + 1):
        apcg_step_efficient(problem, state)
        if k % problem.n == 0 or k == max_iters:
            trace.append((k, problem.objective(state.x_full())))
    return trace


def test_solve_zero_iterations_returns_x0(lasso20):
    x0 = np.zeros(lasso20.problem.dim)
    res = solve(lasso20.problem, general_schedule(lasso20.problem), max_iters=0, seed=0)
    assert np.array_equal(res.x, x0)
    assert len(res.trace) == 1 and res.trace[0][0] == 0


def test_solve_same_seed_identical_traces(lasso20):
    problem = lasso20.problem
    a = solve(problem, general_schedule(problem), max_iters=200, seed=5)
    b = solve(problem, general_schedule(problem), max_iters=200, seed=5)
    assert a.trace == b.trace
    assert np.array_equal(a.x, b.x)
    c = solve(problem, general_schedule(problem), max_iters=200, seed=6)
    assert c.trace != a.trace


def test_solve_variants_agree_on_strongly_convex_problem(lasso20):
    sc = solve(lasso20.problem, constant_schedule(lasso20.problem), max_iters=300, seed=2)
    eff = efficient_trace(lasso20.problem, max_iters=300, seed=2)
    assert len(sc.trace) == len(eff)
    for (k1, f1), (k2, f2) in zip(sc.trace, eff):
        assert k1 == k2 and f1 == pytest.approx(f2, abs=1e-9)


def test_solve_objective_decreases_on_average(lasso20, lasso20_optimum):
    _, fstar = lasso20_optimum
    res = solve(lasso20.problem, constant_schedule(lasso20.problem), max_iters=3000, seed=0)
    assert res.trace[-1][1] - fstar <= 1e-6 * (res.trace[0][1] - fstar)


def test_solve_validates_options():
    problem = shifted_quadratic(np.zeros(3))
    # a schedule over another block count, or one already stepped
    with pytest.raises(ConfigurationError):
        solve(problem, ApcgSchedule(4, 0.5, 1.0))
    stepped = ApcgSchedule(3, 0.5, 1.0)
    stepped.step()
    with pytest.raises(ConfigurationError):
        solve(problem, stepped)
    # mu = 0 problem cannot run the strongly convex forms
    zero_mu = CompositeProblem(
        partition=problem.partition,
        smooth=SmoothOracle(value=problem.smooth.value,
                            full_gradient=problem.smooth.full_gradient,
                            partial_gradient=problem.smooth.partial_gradient,
                            lipschitz=problem.smooth.lipschitz, mu=0.0),
        reg=problem.reg)
    with pytest.raises(ConfigurationError):
        solve(zero_mu, constant_schedule(zero_mu))
    with pytest.raises(ConfigurationError):
        ApcgEfficientState(np.zeros(3), zero_mu, zero_mu.smooth.mu, seed=0)


def test_nsc_variant_converges_on_lasso(lasso20, lasso20_optimum):
    _, fstar = lasso20_optimum
    res = solve(lasso20.problem, ApcgSchedule(lasso20.problem.n, 0.0, 1.0),
                max_iters=6000, seed=0)
    assert res.trace[-1][1] - fstar <= 1e-4 * (res.trace[0][1] - fstar)


def test_nsc_variant_rejects_gamma0_above_one(lasso20):
    with pytest.raises(ConfigurationError):
        ApcgSchedule(lasso20.problem.n, 0.0, 1.2)


def test_single_block_matches_deterministic_accelerated_gradient_quick():
    inst = block_quadratic((5,), seed=4)
    problem = inst.problem
    res = solve(problem, constant_schedule(problem), max_iters=50, seed=0)
    want = oracles.momentum_accelerated_gradient(inst.hessian, inst.linear,
                                                 np.zeros(5), 50)
    state = ApcgExplicitState.start(np.zeros(5), seed=0, n_blocks=1)
    sched = ApcgSchedule(1, problem.smooth.mu, problem.smooth.mu)
    for k in range(1, 51):
        apcg_step_general(problem, state, sched)
        assert np.max(np.abs(state.x - want[k])) <= 1e-10
    assert np.array_equal(res.x, state.x)
