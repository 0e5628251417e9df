import hashlib
import math

import numpy as np
import pytest

from apcg import baselines
from apcg.baselines import afg_start, afg_step, sdca_epoch
from apcg.cli import run_solver_trace
from apcg.core import BlockPartition, CompositeProblem, SmoothOracle
from apcg.data import synth_binary
from apcg.erm import ErmProblem, solve_erm
from apcg.errors import StepSizeError
from apcg.schedule import ApcgSchedule
from apcg.solvers import BlockSampler, solve

import oracles
from oracles import ZeroRegularizer, dual_objective, primal_from_dual


def scalar_quadratic(lipschitz):
    smooth = SmoothOracle(value=lambda x: 0.5 * lipschitz * float(x @ x),
                          full_gradient=lambda x: lipschitz * x,
                          partial_gradient=lambda x, i: lipschitz * x[i:i + 1],
                          lipschitz=np.array([lipschitz]), mu=1.0)
    return CompositeProblem(partition=BlockPartition.scalar(1), smooth=smooth,
                            reg=ZeroRegularizer())


def afg_run(prob, iters):
    """``iters`` AFG iterations from zero; returns the state."""
    state = afg_start(prob)
    for _ in range(iters):
        afg_step(prob, state)
    return state


# ---------------------------------------------------------------------------
# RPCG
# ---------------------------------------------------------------------------

def test_rpcg_stationary_point_is_fixed(lasso20):
    problem = scalar_quadratic(2.0)
    x = np.zeros(1)
    oracles.rpcg_step(problem, x, BlockSampler(1, 0))
    assert x[0] == 0.0


def test_rpcg_scalar_quadratic_one_step_exact():
    # h = -grad / L lands exactly on the minimizer
    problem = scalar_quadratic(3.0)
    x = np.array([1.7])
    oracles.rpcg_step(problem, x, BlockSampler(1, 0))
    assert x[0] == pytest.approx(0.0, abs=1e-16)


def test_rpcg_slower_than_apcg_on_ill_conditioned_dual():
    A, labels = synth_binary(100, 25, 0.3, seed=6, min_nnz=1)
    prob = ErmProblem.smoothed_hinge(A, labels, lam=1e-5, gamma=1.0)
    comp = oracles.valued_dual_composite(prob)
    target = 1e-6
    xstar, dstar = oracles.hinge_dual_optimum(prob)
    fstar = -dstar  # composite minimizes -D

    mu = comp.smooth.mu
    res = solve(comp, ApcgSchedule(comp.n, mu, mu), max_iters=400 * comp.n, seed=0)
    apcg_epochs = next(k // comp.n for k, f in res.trace if f - fstar <= target)
    _, trace = oracles.rpcg_solve(comp, max_iters=400 * comp.n, seed=0)
    rpcg_epochs = next((k // comp.n for k, f in trace if f - fstar <= target),
                       math.inf)
    assert apcg_epochs < rpcg_epochs


# ---------------------------------------------------------------------------
# SDCA
# ---------------------------------------------------------------------------

def test_sdca_dual_monotone_per_epoch(hinge200):
    x = np.zeros(hinge200.n)
    w = np.zeros(hinge200.d)
    sampler = BlockSampler(hinge200.n, 3)
    prev = dual_objective(hinge200, x)
    for _ in range(50):  # 10^4 coordinate steps
        sdca_epoch(hinge200, x, w, sampler)
        d = dual_objective(hinge200, x)
        assert d >= prev - 1e-12
        prev = d
    assert np.allclose(w, primal_from_dual(hinge200, x), atol=1e-10)


def test_sdca_fixed_point_at_optimum(hinge200, hinge200_optimum):
    xstar, _ = hinge200_optimum
    x = xstar.copy()
    w = primal_from_dual(hinge200, x)
    sdca_epoch(hinge200, x, w, BlockSampler(hinge200.n, 0))
    assert np.max(np.abs(x - xstar)) <= 1e-10


def test_sdca_coordinate_update_matches_grid(hinge200):
    rng = np.random.Generator(np.random.PCG64(4))
    lam_n = hinge200.lam * hinge200.n
    for _ in range(40):
        i = int(rng.integers(0, hinge200.n))
        x = rng.uniform(0, 1, hinge200.n)
        w = primal_from_dual(hinge200, x)
        idx, val = hinge200.matrix.col(i)
        margin_rest = float(val @ w[idx]) - x[i] * float(hinge200.col_norms_sq[i]) / lam_n

        def coord_neg_dual(s):
            if not (0.0 <= s <= 1.0):
                return math.inf
            # D restricted to coordinate i, dropping s-independent terms
            quad = margin_rest * s + 0.5 * s * s * float(hinge200.col_norms_sq[i]) / lam_n
            return -(s - 0.5 * hinge200.gamma * s * s) / hinge200.n + quad / hinge200.n

        want = oracles.grid_minimize(coord_neg_dual, -0.2, 1.2)
        got = oracles.sdca_coordinate_update(hinge200, float(x[i]), float(val @ w[idx]), i)
        assert got == pytest.approx(np.clip(want, 0, 1), abs=1e-6)


# ---------------------------------------------------------------------------
# AFG
# ---------------------------------------------------------------------------

def test_afg_converges_on_smooth_quadratic(ridge150):
    # the square-loss dual is unconstrained: -D(x) = x'Hx/2 - b'x/n with
    # H = A'A/(lam n^2) + (gamma/n) I
    prob = ridge150
    n = prob.n
    dense = oracles.to_dense(prob.matrix)
    H = dense.T @ dense / (prob.lam * n * n) + (prob.gamma / n) * np.eye(n)
    dstar = dual_objective(prob, np.linalg.solve(H, prob.anchors / n))
    state = afg_run(prob, 300)
    assert dstar - dual_objective(prob, state.x) < 1e-10


def line_search_problems():
    """Both losses on one instance."""
    A, labels = synth_binary(150, 40, 0.2, seed=3)
    return (ErmProblem.smoothed_hinge(A, labels, lam=1e-3),
            ErmProblem.ridge(A, labels, lam=1e-3))


def test_afg_line_search_shrinks_oversized_steps():
    for prob in line_search_problems():
        state = afg_start(prob)
        afg_step(prob, state)
        before = state.backtracks
        state.step = 1e6
        afg_step(prob, state)
        shrunk = state.backtracks - before
        assert shrunk > 0
        assert state.step == 1e6 * baselines.BACKTRACK ** shrunk * baselines.EXPAND
        # the carried image is the accepted trial's fresh product
        assert np.array_equal(state.ax, prob.matrix.dot(state.x))


def test_afg_raises_when_backtracking_cannot_recover():
    for prob in line_search_problems():
        state = afg_start(prob)
        afg_step(prob, state)
        state.step = 1e200
        # 100 halvings leave 1e200 * 2^-100 ~ 8e169: no trial passes the bound
        with pytest.raises(StepSizeError):
            afg_step(prob, state)


def test_afg_on_dual_erm_reaches_optimum(hinge200, hinge200_optimum):
    _, dstar = hinge200_optimum
    state = afg_run(hinge200, 400)
    assert dual_objective(hinge200, state.x) == pytest.approx(dstar, abs=1e-8)


def test_simple_splitting_bounds_an_empty_column_by_the_largest_constant():
    """AFG's first step is 1 / sum L_i, L_i = ||A_i||^2/(lam n^2), where an
    empty column takes the largest constant, or 1 when A = 0."""
    A = oracles.from_dense(np.array([[0.5, 0.0, 0.0], [1.0, 0.0, -0.3]]))
    prob = ErmProblem.ridge(A, np.ones(3), lam=1e-2)
    L = prob.col_norms_sq / (prob.lam * 9)
    assert L[1] == 0.0 and L[0] > L[2] > 0.0
    assert afg_start(prob).step == pytest.approx(1.0 / (2.0 * L[0] + L[2]), rel=1e-14)
    zero = oracles.from_dense(np.zeros((2, 3)))
    assert afg_start(ErmProblem.ridge(zero, np.ones(3), lam=1e-2)).step == 1.0 / 3.0


# (first step, backtracks made by each of 60 iterations, sha256 of the final
# x); the same on both backends, since AFG makes full-vector products only
AFG_TRAJECTORIES = {
    "hinge200": (0.19999999999999996,
                 "000000003020201201120030120030030120030120030030120120030030",
                 "8ebddcb2a68afd5e597b38a6b87606af85cbf56b31c4dac9e1c1d69352f243a1"),
    "ridge150": (0.15000000000000002,
                 "000000004020201202100220030030120031100040120030120120022002",
                 "9cdb79063e5acee737be225c3d4b427825c64aff19053ed75595975b0785d669"),
}


@pytest.mark.parametrize("kernels", ["python_kernels", "c_kernels"])
@pytest.mark.parametrize("name", AFG_TRAJECTORIES)
def test_afg_trajectory_is_pinned(name, kernels, request):
    """Each iteration's backtracks and the step after it (the first step
    times 2 per iteration and 1/2 per backtrack), and the final iterate."""
    request.getfixturevalue(kernels)
    prob = request.getfixturevalue(name)
    first, backtracks, digest = AFG_TRAJECTORIES[name]
    state = afg_start(prob)
    assert state.step == first
    made = 0
    for k, expected in enumerate(backtracks, start=1):
        afg_step(prob, state)
        made += int(expected)
        assert state.backtracks == made
        assert state.step == first * 2.0 ** (k - made)
    assert hashlib.sha256(state.x.tobytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# cross-solver agreement
# ---------------------------------------------------------------------------

def test_all_solvers_agree_on_dual_optimum(hinge200, hinge200_optimum):
    _, dstar = hinge200_optimum
    run = solve_erm(hinge200, epochs=200, seed=0)
    assert run.reports[-1].dual == pytest.approx(dstar, abs=1e-6)

    x = np.zeros(hinge200.n)
    w = np.zeros(hinge200.d)
    sampler = BlockSampler(hinge200.n, 0)
    for _ in range(400):
        sdca_epoch(hinge200, x, w, sampler)
    assert dual_objective(hinge200, x) == pytest.approx(dstar, abs=1e-6)

    x2 = run_solver_trace(hinge200, "rpcg", epochs=400, seed=0, tol=None).x
    assert dual_objective(hinge200, x2) == pytest.approx(dstar, abs=1e-6)

    x3 = afg_run(hinge200, 400).x
    assert dual_objective(hinge200, x3) == pytest.approx(dstar, abs=1e-6)


def test_rpcg_erm_epoch_maintains_aggregate(hinge200, monkeypatch):
    seen = []

    def spy(prob, x, w_agg, sampler):
        seen.append((x, w_agg))
        return sdca_epoch(prob, x, w_agg, sampler)

    monkeypatch.setattr(baselines, "sdca_epoch", spy)
    run = run_solver_trace(hinge200, "rpcg", epochs=10, seed=5, tol=None)
    assert len(seen) == 10
    x, w_agg = seen[-1]
    # run.x is run_epochs' snapshot of the x the epochs write in place
    assert np.array_equal(x, run.x)
    ax = w_agg * (hinge200.lam * hinge200.n)
    assert np.allclose(ax, hinge200.matrix.dot(x), atol=1e-10)


@pytest.fixture(params=["hinge200", "ridge150"])
def erm_prob(request):
    return request.getfixturevalue(request.param)


def sdca_against_coordinate_updates(prob):
    """Four sdca_epoch calls and the per-step closed form side by side;
    returns ((x, w), (x_ref, w_ref))."""
    lam_n = prob.lam * prob.n
    x, w = np.zeros(prob.n), np.zeros(prob.d)
    x_ref, w_ref = x.copy(), w.copy()
    sampler, ref_sampler = BlockSampler(prob.n, 5), BlockSampler(prob.n, 5)
    for _ in range(4):
        sdca_epoch(prob, x, w, sampler)
        for _ in range(prob.n):
            i = ref_sampler.draw()
            idx, val = prob.matrix.col(i)
            margin = oracles.dot_left_to_right(val, w_ref[idx])
            s = oracles.sdca_coordinate_update(prob, float(x_ref[i]), margin, i)
            delta = s - float(x_ref[i])
            if delta != 0.0:
                x_ref[i] = s
                w_ref[idx] += (delta / lam_n) * val
    return (x, w), (x_ref, w_ref)


def test_sdca_epoch_matches_coordinate_updates(erm_prob, python_kernels):
    (x, w), (x_ref, w_ref) = sdca_against_coordinate_updates(erm_prob)
    assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)


def test_compiled_sdca_epoch_matches_coordinate_updates(erm_prob, c_kernels):
    (x, w), (x_ref, w_ref) = sdca_against_coordinate_updates(erm_prob)
    assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)


@pytest.mark.parametrize("kernels", ["python_kernels", "c_kernels"])
def test_sdca_epoch_rejects_a_sampler_over_more_coordinates(hinge200, kernels, request):
    request.getfixturevalue(kernels)
    x, w = np.zeros(hinge200.n), np.zeros(hinge200.d)
    with pytest.raises(IndexError):
        sdca_epoch(hinge200, x, w, BlockSampler(2 * hinge200.n, 0))
    assert not x.any() and not w.any()


def test_rpcg_erm_epoch_matches_reference_steps(erm_prob):
    """On the ERM dual, rpcg runs sdca_epoch: the plain prox step with weight
    L_i is SDCA's exact maximizer.  Equal algebraically, not bitwise."""
    prob = erm_prob
    x, w = np.zeros(prob.n), np.zeros(prob.d)
    x_ref, ax_ref = x.copy(), w.copy()
    sampler, ref_sampler = BlockSampler(prob.n, 6), BlockSampler(prob.n, 6)
    for _ in range(4):
        sdca_epoch(prob, x, w, sampler)
        for _ in range(prob.n):
            oracles.rpcg_erm_step_reference(prob, x_ref, ax_ref, ref_sampler.draw())
    assert np.max(np.abs(x - x_ref)) <= 1e-13
    assert np.max(np.abs(w * (prob.lam * prob.n) - ax_ref)) <= 1e-13
