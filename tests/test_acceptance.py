"""End-to-end acceptance suite.

Each test exercises one release criterion at its stated tolerance and prints
a PASS line with the worst observed margin (visible with ``pytest -s``).
"""

import math
import time

import numpy as np
import pytest

from apcg.cli import run_solver_trace
from apcg.core import L1Regularizer, block_prox
from apcg.data import synth_binary
from apcg.erm import (ConjugatePenalty, ErmDualState, ErmProblem,
                      SmoothedHingeLoss, SquareLoss, apcg_erm_steps,
                      relocated_dual_composite, solve_erm)
from apcg.instances import diag_dominant_quadratic
from apcg.schedule import ApcgSchedule
from apcg.solvers import ApcgExplicitState, apcg_step_general, solve

import oracles
from oracles import (ApcgEfficientState, BoxIndicator, apcg_step_efficient,
                     block_quadratic, dual_objective, primal_from_dual, primal_objective)
from conftest import report_pass


@pytest.fixture(scope="module")
def bench1000():
    A, labels = synth_binary(1000, 100, 0.1, seed=0, min_nnz=1)
    return A, labels


def test_schedule_invariants_full_grid():
    """n x mu x gamma0 grid, 10^4 steps: coefficient bounds, monotonicity,
    gamma_{k+1} = (n alpha_k)^2 to 1e-12 relative, and the contraction
    product under its closed-form envelope."""
    start = time.perf_counter()
    steps = 10_000
    worst_resid = 0.0
    worst_lambda_slack = 0.0
    for n in (1, 2, 10, 1000):
        for mu in (0.0, 1e-6, 0.01, 1.0):
            for gamma0 in (max(mu, 0.1), 1.0):
                sched = ApcgSchedule(n, mu, gamma0)
                lo = math.sqrt(mu) / n
                prev_alpha = prev_gamma = math.inf
                lams = [sched.lam]
                for _ in range(steps):
                    alpha, gamma_next, _ = sched.step()
                    lams.append(sched.lam)
                    assert lo * (1 - 1e-12) <= alpha <= (1.0 / n) * (1 + 1e-12)
                    assert mu * (1 - 1e-12) <= gamma_next <= 1.0 + 1e-12
                    assert alpha <= prev_alpha * (1 + 1e-12)
                    assert gamma_next <= prev_gamma * (1 + 1e-12)
                    resid = abs(gamma_next - (n * alpha) ** 2) / gamma_next
                    worst_resid = max(worst_resid, resid)
                    assert resid <= 1e-12
                    prev_alpha, prev_gamma = alpha, gamma_next
                lams = np.asarray(lams)
                bounds = sched.rate_bound(np.arange(steps + 1))
                # compare where the bound is representable in doubles; past
                # that point both sides have underflowed.  The 1e-12 slack
                # matches the criterion's relative-tolerance regime.
                representable = bounds >= 1e-300
                slack = np.max(lams[representable] / bounds[representable]) - 1.0
                worst_lambda_slack = max(worst_lambda_slack, slack)
                assert np.all(lams[representable] <= bounds[representable] * (1 + 1e-12))
                assert np.all(lams[~representable] <= 1e-300)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report_pass("schedule invariants",
                f"worst gamma residual {worst_resid:.2e}, "
                f"worst lambda slack {worst_lambda_slack:.2e}, {elapsed:.2f}s")


def test_explicit_and_uv_forms_are_equivalent(lasso20):
    """Strongly convex explicit stepper vs the u/v change of variables:
    reconstructed x agrees to 1e-8 over 500 iterations, 5 seeds."""
    start = time.perf_counter()
    problem = lasso20.problem
    mu = problem.smooth.mu
    worst = 0.0
    for seed in range(5):
        sched = ApcgSchedule(problem.n, mu, mu)
        exp = ApcgExplicitState.start(np.zeros(problem.dim), seed=seed,
                                      n_blocks=problem.n)
        eff = ApcgEfficientState(np.zeros(problem.dim), problem, mu, seed=seed)
        for _ in range(500):
            apcg_step_general(problem, exp, sched)
            apcg_step_efficient(problem, eff)
            worst = max(worst, float(np.max(np.abs(eff.x_full() - exp.x))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 2.0
    report_pass("u/v equivalence", f"max |x_uv - x_explicit| = {worst:.2e}, "
                f"{elapsed:.2f}s")


def test_erm_solver_equals_generic_uv_solver(hinge200):
    """Aggregate-maintaining dual stepper vs the generic u/v solver on the
    relocated splitting: 3 seeds, 500 iterations, 1e-8; aggregate
    recomputation drift also within 1e-8 relative."""
    start = time.perf_counter()
    comp = relocated_dual_composite(hinge200)
    worst = 0.0
    worst_drift = 0.0
    for seed in range(3):
        st5 = ErmDualState(hinge200, seed=seed)
        st4 = ApcgEfficientState(np.zeros(hinge200.n), comp, comp.smooth.mu,
                                 seed=seed)
        for _ in range(500):
            apcg_erm_steps(hinge200, st5, st5.sampler.take(1))
            apcg_step_efficient(comp, st4)
            worst = max(worst, float(np.max(np.abs(st5.x() - st4.x_full()))))
        (pbar, q), (p_ref, q_ref) = oracles.erm_aggregates(st5)
        worst_drift = max(
            worst_drift,
            float(np.linalg.norm(pbar - p_ref)) / max(1.0, float(np.linalg.norm(p_ref))),
            float(np.linalg.norm(q - q_ref)) / max(1.0, float(np.linalg.norm(q_ref))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert worst_drift <= 1e-8
    assert elapsed < 5.0
    report_pass("erm solver equivalence",
                f"max x dev {worst:.2e}, aggregate drift {worst_drift:.2e}, "
                f"{elapsed:.2f}s")


def test_rate_envelope_over_seeds(lasso20, lasso20_optimum):
    """20-seed mean of F(x_k) - F* under 1.2x the contraction envelope at
    every traced epoch (skipping epochs whose bound is below double
    precision)."""
    xstar, fstar = lasso20_optimum
    start = time.perf_counter()
    problem = lasso20.problem
    gamma0 = 1.0
    r0 = problem.weighted_norm(-xstar)  # x0 = 0
    f0 = problem.objective(np.zeros(problem.dim))
    budget = f0 - fstar + 0.5 * gamma0 * r0 * r0
    epochs = 30
    traces = []
    for seed in range(20):
        res = solve(problem, ApcgSchedule(problem.n, problem.smooth.mu, gamma0),
                    max_iters=epochs * problem.n, seed=seed)
        traces.append([f for _, f in res.trace])
    mean_gap = np.mean(traces, axis=0) - fstar
    sched = ApcgSchedule(problem.n, problem.smooth.mu, gamma0)
    floor = 1e-12 * max(1.0, abs(fstar))
    worst_ratio = 0.0
    checked = 0
    for j, gap in enumerate(mean_gap):
        bound = sched.rate_bound(j * problem.n) * budget
        if bound >= floor:
            worst_ratio = max(worst_ratio, gap / bound)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 20
    assert worst_ratio <= 1.2
    assert elapsed < 30.0
    report_pass("rate envelope",
                f"max mean(F-F*)/bound = {worst_ratio:.3f} over {checked} epochs, "
                f"{elapsed:.2f}s")


def test_single_block_reduces_to_deterministic_accelerated_gradient():
    """With one block the randomized solver is the deterministic accelerated
    gradient method: iterate-for-iterate agreement to 1e-10 over 200 steps."""
    inst = block_quadratic((6,), seed=4)
    problem = inst.problem
    want = oracles.momentum_accelerated_gradient(inst.hessian, inst.linear,
                                                 np.zeros(6), 200)
    state = ApcgExplicitState.start(np.zeros(6), seed=0, n_blocks=1)
    sched = ApcgSchedule(1, problem.smooth.mu, problem.smooth.mu)
    worst = 0.0
    for k in range(1, 201):
        apcg_step_general(problem, state, sched)
        worst = max(worst, float(np.max(np.abs(state.x - want[k]))))
    assert worst <= 1e-10
    report_pass("single-block degeneracy", f"max iterate dev = {worst:.2e}")


def test_weak_duality_and_subgradient_gap_bound(hinge200):
    """Every reported epoch satisfies 0 <= P - D <= n/(2 gamma) ||D'||^2."""
    runs = [solve_erm(hinge200, epochs=60, seed=s) for s in (0, 1)]
    A, labels = synth_binary(80, 20, 0.4, seed=5, min_nnz=1)
    ridge = ErmProblem.ridge(A, labels, lam=1e-2, gamma=1.0)
    runs.append(solve_erm(ridge, epochs=60, seed=0))
    worst_neg = 0.0
    worst_slack = -math.inf
    for run in runs:
        for rep in run.reports:
            worst_neg = min(worst_neg, rep.gap)
            worst_slack = max(worst_slack, rep.gap - rep.subgradient_gap_bound)
            assert rep.gap >= -1e-10
            assert rep.gap <= rep.subgradient_gap_bound + 1e-10
    report_pass("weak duality + subgradient bound",
                f"min gap {worst_neg:.2e}, max bound slack {worst_slack:.2e}")


def test_full_prox_certificate_on_random_instances():
    """On 50 random desk instances, the gap after one full prox step is
    bounded by (4 ||A||^2 / (lam gamma n)) (D* - D(x)) along trajectories."""
    rng = np.random.Generator(np.random.PCG64(0))
    worst_margin = -math.inf
    for trial in range(50):
        n, d = 30, 10
        A, labels = synth_binary(n, d, 0.4, seed=100 + trial, min_nnz=1)
        lam = float(rng.choice([1e-2, 1e-3, 3e-3]))
        gamma = float(rng.choice([0.5, 1.0]))
        prob = ErmProblem.smoothed_hinge(A, labels, lam=lam, gamma=gamma)
        _, dstar = oracles.hinge_dual_optimum(prob)
        state = ErmDualState(prob, seed=trial)
        for _ in range(4):
            apcg_erm_steps(prob, state, state.sampler.take(n))
            x = state.x()
            t = oracles.full_prox_step(prob, x)
            gap_t = (primal_objective(prob, primal_from_dual(prob, t))
                     - dual_objective(prob, t))
            bound = oracles.full_prox_gap_bound(prob, x, dstar)
            worst_margin = max(worst_margin, gap_t - bound)
            assert gap_t <= bound + 1e-10
    report_pass("full-prox certificate", f"max gap-bound = {worst_margin:.2e}")


def test_dual_gap_epochs_within_complexity_bound(hinge200):
    """Measured epochs to a 1e-6 relative dual gap stay within twice
    (1 + sqrt(R^2/(lam gamma n))) log(C/eps)."""
    start = time.perf_counter()
    A = hinge200.matrix  # columns already carry the labels
    margins = []
    for lam in (1e-3, 1e-5):
        prob = ErmProblem(matrix=A, loss=SmoothedHingeLoss(1.0), lam=lam)
        n = prob.n
        xstar, dstar = oracles.hinge_dual_optimum(prob)
        C = (dstar - dual_objective(prob, np.zeros(n))
             + prob.gamma / (2 * n) * float(xstar @ xstar))
        eps = 1e-6 * C
        R_sq = float(prob.col_norms_sq.max())
        budget = 2.0 * (1.0 + math.sqrt(R_sq / (lam * prob.gamma * n))) \
            * math.log(C / eps)
        state = ErmDualState(prob, seed=0)
        epochs = 0
        while dstar - dual_objective(prob, state.x()) > eps:
            assert epochs <= budget, f"lam={lam}: exceeded {budget:.0f} epochs"
            apcg_erm_steps(prob, state, state.sampler.take(n))
            epochs += 1
        margins.append((lam, epochs, budget))
        assert epochs <= budget
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    detail = ", ".join(f"lam={lam:g}: {ep} <= {b:.0f}" for lam, ep, b in margins)
    report_pass("complexity tracking", f"{detail}, {elapsed:.2f}s")


def test_solver_ordering_matches_conditioning(bench1000):
    """Ill-conditioned regime: accelerated coordinate solver certifies a
    1e-6 gap in strictly fewer epochs than SDCA and AFG; moderately
    conditioned regime: within a factor 2 of SDCA."""
    start = time.perf_counter()
    A, labels = bench1000
    tol = 1e-6

    def epochs_to_tol(prob, solver, cap):
        run = run_solver_trace(prob, solver, epochs=cap, seed=1, tol=tol)
        return math.inf if run.epochs_to_tol is None else run.epochs_to_tol

    prob_ill = ErmProblem.smoothed_hinge(A, labels, lam=1e-6, gamma=1.0)
    apcg_ill = epochs_to_tol(prob_ill, "apcg", cap=600)
    sdca_ill = epochs_to_tol(prob_ill, "sdca", cap=600)
    afg_ill = epochs_to_tol(prob_ill, "afg", cap=600)
    assert apcg_ill < sdca_ill
    assert apcg_ill < afg_ill

    prob_mod = ErmProblem.smoothed_hinge(A, labels, lam=1e-4, gamma=1.0)
    apcg_mod = epochs_to_tol(prob_mod, "apcg", cap=300)
    sdca_mod = epochs_to_tol(prob_mod, "sdca", cap=300)
    assert sdca_mod < math.inf
    assert apcg_mod <= 2 * sdca_mod

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report_pass("solver ordering",
                f"lam=1e-6: apcg {apcg_ill} vs sdca {sdca_ill} vs afg {afg_ill}; "
                f"lam=1e-4: apcg {apcg_mod} vs sdca {sdca_mod}; {elapsed:.1f}s")


def test_closed_forms_match_reference_oracles():
    """Every closed-form prox and conjugate agrees with a bisection or grid
    oracle to 1e-6 on 1000 random inputs per form."""
    rng = np.random.Generator(np.random.PCG64(7))
    n_dual = 10
    hinge = SmoothedHingeLoss(gamma=0.8)
    square = SquareLoss(targets=rng.standard_normal(n_dual), gamma=1.3)
    l1 = L1Regularizer(0.6)
    box = BoxIndicator(0.0, 1.0)
    reloc_h = ConjugatePenalty(np.ones(n_dual), gamma=0.0, n=n_dual, box=(0.0, 1.0))
    reloc_s = ConjugatePenalty(square.targets, gamma=0.0, n=n_dual, box=None)
    conj_h = ConjugatePenalty(np.ones(n_dual), gamma=hinge.gamma, n=n_dual,
                              box=(0.0, 1.0))
    conj_s = ConjugatePenalty(square.targets, gamma=square.gamma, n=n_dual,
                              box=None)
    worst = 0.0
    for trial in range(1000):
        c = float(rng.uniform(-4, 4))
        w = float(rng.uniform(0.05, 8.0))
        i = int(rng.integers(0, n_dual))

        def check(got, want):
            nonlocal worst
            worst = max(worst, abs(got - want))
            assert abs(got - want) <= 1e-6

        check(block_prox(l1, i, np.array([c]), w)[0],
              oracles.bisect_prox(lambda s: 0.6 * math.copysign(1.0, s) if s else 0.0,
                                  c, w, -10.0, 10.0))
        check(block_prox(box, i, np.array([c]), w)[0],
              oracles.bisect_prox(lambda s: 0.0, c, w, 0.0, 1.0))
        check(block_prox(reloc_h, i, np.array([c]), w)[0],
              oracles.bisect_prox(lambda s: -1.0 / n_dual, c, w, 0.0, 1.0))
        check(block_prox(reloc_s, i, np.array([c]), w)[0],
              oracles.bisect_prox(lambda s: -square.targets[i] / n_dual, c, w,
                                  -20.0, 20.0))
        check(block_prox(conj_h, i, np.array([c]), w)[0],
              oracles.bisect_prox(
                  lambda s: (-1.0 + hinge.gamma * s) / n_dual, c, w, 0.0, 1.0))
        check(block_prox(conj_s, i, np.array([c]), w)[0],
              oracles.bisect_prox(
                  lambda s: (-square.targets[i] + square.gamma * s) / n_dual,
                  c, w, -20.0, 20.0))

        b_h = float(rng.uniform(-1.0, 0.0))
        check(hinge.conj_neg(np.array([-b_h]))[0],
              oracles.grid_conjugate_vec(hinge.phi, b_h, lo=-30.0, hi=30.0))
        b_s = float(rng.uniform(-3.0, 3.0))
        check(square.conj_neg(np.full(n_dual, -b_s))[i], oracles.grid_conjugate_vec(
            lambda z: (z - square.targets[i]) ** 2 / (2 * square.gamma),
            b_s, lo=-30.0, hi=30.0))
    report_pass("closed forms vs oracles", f"max |closed - oracle| = {worst:.2e}")


def test_single_block_update_solves_full_argmin():
    """The one-block prox resolution coincides with the full-dimensional
    argmin of the coupling objective, verified by refined grid search on
    2-block instances for both block choices."""
    worst = 0.0
    for seed in (8, 21):
        inst = diag_dominant_quadratic(2, seed=seed, l1=0.3)
        problem = inst.problem
        mu = problem.smooth.mu
        sched = ApcgSchedule(2, mu, 1.0)
        state = ApcgExplicitState.start(np.array([0.7, -0.4]), seed=3, n_blocks=2)
        for _ in range(3):
            apcg_step_general(problem, state, sched)
        k = state.k
        alphas, gammas, betas, _ = sched.history(k + 1)
        alpha = alphas[k]
        gamma_k, gamma_next = gammas[k], gammas[k + 1]
        beta = betas[k]
        y = (alpha * gamma_k * state.z + gamma_next * state.x) \
            / (alpha * gamma_k + gamma_next)
        center = (1 - beta) * state.z + beta * y
        grad = problem.smooth.full_gradient(y)
        L = problem.smooth.lipschitz

        def full_objective(v):
            quad = sum(alpha * L[i] * (v[i] - center[i]) ** 2 for i in range(2))
            return quad + float(grad @ (v - y)) + 0.3 * float(np.sum(np.abs(v)))

        zt = oracles.grid_minimize_2d(full_objective, box=8.0, points=201, rounds=5)
        assert np.max(np.abs(zt)) < 7.0
        for i in range(2):
            weight = 2 * alpha * L[i]
            s = problem.reg.prox_block(
                i, np.array([center[i] - grad[i] / weight]), weight)[0]
            worst = max(worst, abs(s - zt[i]))
            assert abs(s - zt[i]) <= 1e-4
    report_pass("block resolution vs full argmin", f"max dev = {worst:.2e}")
