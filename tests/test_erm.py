import ctypes
import dataclasses
import gc
import hashlib
import math
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apcg import baselines, erm, native
from apcg.baselines import sdca_epoch
from apcg.cli import KNOWN_SOLVERS, ExperimentConfig, run_experiment, run_solver_trace
from apcg.data import SparseColMatrix, synth_binary
from apcg.erm import (DUAL_DOMAIN_ATOL, ConjugatePenalty, ErmDualState, ErmProblem,
                      PrimalDualReport, SmoothedHingeLoss, SquareLoss,
                      apcg_erm_steps, complexity_estimate, erm_constants,
                      run_epochs, solve_erm)
from apcg.errors import ConfigurationError
from apcg.solvers import BlockSampler

import oracles
from oracles import (ApcgEfficientState, apcg_step_efficient, dual_objective,
                     primal_from_dual, primal_objective)


def single_column_problem(col, lam=1.0, gamma=1.0):
    A = oracles.from_dense(np.asarray(col, dtype=float).reshape(-1, 1))
    return ErmProblem.smoothed_hinge(A, np.array([1.0]), lam=lam, gamma=gamma)


# ---------------------------------------------------------------------------
# losses and conjugates
# ---------------------------------------------------------------------------

def test_hinge_branches():
    loss = SmoothedHingeLoss(gamma=1.0)
    assert loss.phi(np.array([2.0]))[0] == 0.0
    assert loss.phi(np.array([1.0]))[0] == 0.0
    assert loss.phi(np.array([0.0]))[0] == pytest.approx(0.5)
    assert loss.phi(np.array([-1.0]))[0] == pytest.approx(1.5)
    loss2 = SmoothedHingeLoss(gamma=0.5)
    assert loss2.phi(np.array([0.0]))[0] == pytest.approx(1.0 - 0.25)


def hinge_conj(loss, b):
    """phi*(b) on the conjugate domain [-1, 0], read off the run path's conj_neg."""
    return float(loss.conj_neg(np.array([-b]))[0])


def test_hinge_conjugate_domain():
    loss = SmoothedHingeLoss(gamma=0.7)
    assert hinge_conj(loss, -0.5) == pytest.approx(-0.5 + 0.35 * 0.25)
    assert hinge_conj(loss, 0.0) == 0.0
    # phi*(0.1) and phi*(-1.1) are +inf: x = -0.1 and x = 1.1 leave the box,
    # where the dual is -inf
    assert loss.dual_box == (0.0, 1.0)
    prob = single_column_problem([1.0], gamma=0.7)
    assert dual_objective(prob, np.array([-0.1])) == -math.inf
    assert dual_objective(prob, np.array([1.1])) == -math.inf


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_hinge_conjugate_matches_grid_oracle(gamma):
    loss = SmoothedHingeLoss(gamma=gamma)
    for b in np.linspace(-1.0, 0.0, 21):
        want = oracles.grid_conjugate(lambda z: float(loss.phi(np.array([z]))[0]), b)
        assert hinge_conj(loss, b) == pytest.approx(want, abs=1e-6)


def test_square_conjugate_matches_grid_oracle():
    loss = SquareLoss(targets=np.array([0.8, -1.3]), gamma=1.4)
    for i, b in [(0, -0.4), (0, 1.2), (1, 0.3), (1, -2.0)]:
        want = oracles.grid_conjugate(
            lambda z: float(loss.phi(np.array([z if i == 0 else loss.targets[0],
                                               z if i == 1 else loss.targets[1]]))[i]),
            b)
        assert loss.conj_neg(np.full(2, -b))[i] == pytest.approx(want, abs=1e-6)


def test_fenchel_young_inequality_and_equality():
    rng = np.random.Generator(np.random.PCG64(0))
    loss = SmoothedHingeLoss(gamma=0.8)

    def phi_prime(a):
        if a >= 1.0:
            return 0.0
        if a <= 1.0 - 0.8:
            return -1.0
        return (a - 1.0) / 0.8

    for _ in range(200):
        a = rng.uniform(-3, 3)
        b = rng.uniform(-1, 0)
        phi_a = float(loss.phi(np.array([a]))[0])
        assert phi_a + hinge_conj(loss, b) >= a * b - 1e-12
        bstar = phi_prime(a)
        assert phi_a + hinge_conj(loss, bstar) == pytest.approx(a * bstar, abs=1e-12)


# ---------------------------------------------------------------------------
# objectives and correspondences
# ---------------------------------------------------------------------------

def test_dual_objective_at_zero_is_zero(hinge200):
    assert dual_objective(hinge200, np.zeros(hinge200.n)) == 0.0


def test_dual_objective_single_column_example():
    prob = single_column_problem([1.0])  # A1 = e1, lam = gamma = 1, n = 1
    assert dual_objective(prob, np.array([1.0])) == pytest.approx(0.0, abs=1e-15)


def test_dual_objective_outside_domain_is_minus_inf(hinge200):
    x = np.zeros(hinge200.n)
    x[3] = 1.5
    assert dual_objective(hinge200, x) == -math.inf
    x[3] = -0.2
    assert dual_objective(hinge200, x) == -math.inf


def test_primal_objective_at_zero(hinge200):
    # phi(0) = 1 - gamma/2 for every example
    assert primal_objective(hinge200, np.zeros(hinge200.d)) == pytest.approx(0.5)


def test_primal_large_margin_leaves_only_regularizer():
    prob = single_column_problem([2.0, 0.0], lam=1e-3)
    w = np.array([10.0, 0.0])  # margin 20 >= 1
    assert primal_objective(prob, w) == pytest.approx(0.5 * 1e-3 * 100.0)


def test_weak_duality_random_pairs(hinge200):
    rng = np.random.Generator(np.random.PCG64(1))
    for _ in range(30):
        x = rng.uniform(0, 1, hinge200.n)
        w = rng.standard_normal(hinge200.d)
        assert primal_objective(hinge200, w) >= dual_objective(hinge200, x) - 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), loss=st.sampled_from(["smoothed_hinge", "square"]),
       log_lam=st.floats(-5, 0), gamma=st.floats(0.05, 5.0), scale=st.floats(0.0, 50.0))
def test_weak_duality_property(seed, loss, log_lam, gamma, scale):
    """P(w(x)) >= D(x) at random feasible x, with w(x) = A x / (lam n)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n, d = int(rng.integers(1, 40)), int(rng.integers(1, 20))
    A, labels = synth_binary(n, d, float(rng.uniform(0.05, 1.0)), seed=seed)
    if rng.integers(2):  # columns of other norms than 1
        A = A.scale_columns(rng.uniform(0.1, 10.0, n))
    lam = 10.0 ** log_lam
    if loss == "smoothed_hinge":
        prob = ErmProblem.smoothed_hinge(A, labels, lam=lam, gamma=gamma)
        x = rng.uniform(0.0, 1.0, n)
        x[rng.uniform(size=n) < 0.3] = rng.integers(0, 2)  # box edges
    else:
        prob = ErmProblem.ridge(A, labels, lam=lam, gamma=gamma)
        x = scale * rng.standard_normal(n)
    primal = primal_objective(prob, primal_from_dual(prob, x))
    dual = dual_objective(prob, x)
    assert primal >= dual - 1e-12 * max(1.0, abs(primal), abs(dual))


@settings(max_examples=80, deadline=None)
@given(anchor=st.floats(-2.0, 2.0), gamma=st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
       n=st.integers(1, 10), box=st.booleans(), center=st.floats(-3.0, 3.0),
       weight=st.floats(0.2, 5.0))
def test_prox_block_property_matches_brute_force(anchor, gamma, n, box, center, weight):
    """Each closed-form ConjugatePenalty prox against a grid search of
    weight/2 (s - center)^2 + (1/n)(-a s + gamma/2 s^2) over the domain."""
    reg = ConjugatePenalty(np.array([0.5, anchor]), gamma=gamma, n=n,
                           box=(0.0, 1.0) if box else None)

    def psi(s):
        if box and not 0.0 <= s <= 1.0:
            return math.inf
        return (-anchor * s + 0.5 * gamma * s * s) / n

    # the minimizer lies within 10 of center when gamma = 0 (|a/(n weight)|
    # <= 10), and between center and a/gamma otherwise
    want = oracles.grid_prox(psi, center, weight, -25.0, 25.0)
    got = reg.prox_block(1, np.array([center]), weight)
    assert got.shape == (1,)
    assert got[0] == pytest.approx(want, abs=1e-6)


def test_primal_from_dual_examples():
    prob = single_column_problem([2.0, 0.0])
    assert np.allclose(primal_from_dual(prob, np.zeros(1)), 0.0)
    assert np.allclose(primal_from_dual(prob, np.array([1.0])), [2.0, 0.0])


def test_primal_from_dual_attains_dual_value_at_optimum(hinge200, hinge200_optimum):
    xstar, dstar = hinge200_optimum
    w = primal_from_dual(hinge200, xstar)
    assert primal_objective(hinge200, w) == pytest.approx(dstar, abs=1e-9)


def test_erm_constants_formulas():
    # uniform columns: mu = lam*gamma*n/(R^2 + lam*gamma*n) exactly
    A = oracles.from_dense(np.eye(4))
    prob = ErmProblem.smoothed_hinge(A, np.ones(4), lam=0.1, gamma=2.0)
    L, mu = erm_constants(prob)
    n, R = 4, 1.0
    assert np.allclose(L, R**2 / (0.1 * n * n) + 2.0 / n)
    assert mu == pytest.approx(0.1 * 2.0 * n / (R**2 + 0.1 * 2.0 * n), rel=1e-14)
    assert mu <= 1.0


def test_erm_constants_derived_value():
    # lam=1e-4, gamma=1, n=100, R=1, uniform unit columns
    cols = np.zeros((100, 100))
    np.fill_diagonal(cols, 1.0)
    A = oracles.from_dense(cols)
    prob = ErmProblem.smoothed_hinge(A, np.ones(100), lam=1e-4, gamma=1.0)
    _, mu = erm_constants(prob)
    assert mu == pytest.approx(0.01 / 1.01, rel=1e-12)
    assert mu == pytest.approx(0.00990099, abs=1e-8)


def test_mu_caps_at_one_for_large_gamma():
    A = oracles.from_dense(np.eye(3))
    prob = ErmProblem.smoothed_hinge(A, np.ones(3), lam=1.0, gamma=1e9)
    _, mu = erm_constants(prob)
    assert mu <= 1.0
    assert mu == pytest.approx(1.0, rel=1e-6)


def test_zero_columns_keep_constants_positive():
    dense = np.zeros((3, 3))
    dense[0, 0] = 1.0
    dense[1, 2] = -2.0
    A = oracles.from_dense(dense)  # column 1 empty
    prob = ErmProblem.smoothed_hinge(A, np.array([1.0, -1.0, 1.0]), lam=0.5)
    L, mu = erm_constants(prob)
    assert np.all(L > 0)
    run = solve_erm(prob, epochs=5, seed=0)
    assert np.isfinite(run.reports[-1].gap)


# ---------------------------------------------------------------------------
# coordinate subproblem closed forms
# ---------------------------------------------------------------------------

def test_relocated_prox_closed_form_example():
    # quadratic weight c=2, base point t0=0.3, zero linear term, n=10:
    # s* = clip(t0 + (1/n)/c) = 0.35, increment 0.05
    reg = ConjugatePenalty(np.ones(10), gamma=0.0, n=10, box=(0.0, 1.0))
    s = reg.prox_block(0, np.array([0.3]), 2.0)
    assert s[0] == pytest.approx(0.35, abs=1e-15)
    assert s[0] - 0.3 == pytest.approx(0.05, abs=1e-15)


def test_relocated_prox_matches_grid_oracle():
    rng = np.random.Generator(np.random.PCG64(2))
    reg = ConjugatePenalty(np.ones(5), gamma=0.0, n=5, box=(0.0, 1.0))

    def psi(s):
        if not (0.0 <= s <= 1.0):
            return math.inf
        return -s / 5

    for _ in range(60):
        c = rng.uniform(-1.5, 2.5)
        w = rng.uniform(0.2, 5.0)
        want = oracles.grid_prox(psi, c, w, -0.5, 1.5)
        got = reg.prox_block(2, np.array([c]), w)[0]
        assert got == pytest.approx(want, abs=1e-6)


def test_conjugate_penalty_prox_matches_grid_oracle():
    rng = np.random.Generator(np.random.PCG64(3))
    anchors = np.array([1.0, -0.4])
    reg = ConjugatePenalty(anchors, gamma=1.3, n=2, box=None)

    def psi(s, i):
        return (-anchors[i] * s + 0.5 * 1.3 * s * s) / 2

    for _ in range(60):
        c = rng.uniform(-3, 3)
        w = rng.uniform(0.2, 5.0)
        i = int(rng.integers(0, 2))
        want = oracles.grid_prox(lambda s: psi(s, i), c, w, -8.0, 8.0)
        got = reg.prox_block(i, np.array([c]), w)[0]
        assert got == pytest.approx(want, abs=1e-6)


# ---------------------------------------------------------------------------
# specialized stepper vs generic efficient solver
# ---------------------------------------------------------------------------

def test_erm_step_equals_generic_efficient_on_relocated_splitting(hinge200):
    comp = erm.relocated_dual_composite(hinge200)
    for seed in (0, 1, 2):
        st5 = ErmDualState(hinge200, seed=seed)
        st4 = ApcgEfficientState(np.zeros(hinge200.n), comp, comp.smooth.mu,
                                 seed=seed)
        for _ in range(500):
            apcg_erm_steps(hinge200, st5, st5.sampler.take(1))
            apcg_step_efficient(comp, st4)
        assert np.max(np.abs(st5.x() - st4.x_full())) <= 1e-8


def test_erm_step_fixed_point_at_optimum(hinge200, hinge200_optimum):
    xstar, _ = hinge200_optimum
    state = ErmDualState(hinge200, x0=xstar, seed=0)
    for i in range(hinge200.n):
        v_i = state.v[i]
        apcg_erm_steps(hinge200, state, np.array([i]))
        assert abs(state.v[i] - v_i) <= state.half_plus * 1e-8  # |h| <= 1e-8
    assert np.max(np.abs(state.x() - xstar)) <= 1e-7


def test_erm_aggregate_consistency_over_many_steps(hinge200):
    state = ErmDualState(hinge200, seed=7)
    for chunk in range(10):
        apcg_erm_steps(hinge200, state, state.sampler.take(1000))
        (pbar, q), (p_ref, q_ref) = oracles.erm_aggregates(state)
        assert np.linalg.norm(pbar - p_ref) <= 1e-8 * max(1.0, np.linalg.norm(p_ref))
        assert np.linalg.norm(q - q_ref) <= 1e-8 * max(1.0, np.linalg.norm(q_ref))
    state.check_consistency(1e-8)


def fused_against_reference(prob, seed, epochs, exact=True, blocks=None):
    """Run ErmDualState.epoch and the per-step oracle side by side.

    With ``exact`` (the Python kernel) the two states must agree bitwise;
    otherwise (the compiled kernel) to ``oracles.assert_backends_agree``,
    with the same step count and scale.  ``blocks``, if given, replaces the
    n indices of every epoch (forced through ``sampler.take``).  Returns
    (clipped steps, scale renormalizations) seen by the oracle.
    """
    fused = ErmDualState(prob, seed=seed)
    ref = ErmDualState(prob, seed=seed)
    if blocks is not None:
        fused.sampler.take = lambda k: np.array(blocks)
    clipped = renorms = 0
    for _ in range(epochs):
        fused.epoch()
        steps = [ref.sampler.draw() for _ in range(prob.n)] if blocks is None else blocks
        for i in steps:
            scale = ref.scale
            clipped += oracles.apcg_erm_step_reference(prob, ref, int(i))
            renorms += ref.scale > scale  # the scale only grows at a renorm
    assert (fused.scale, fused.k) == (ref.scale, ref.k)
    if exact:
        for name in ("ubar_base", "v", "pbar_base", "q"):
            assert np.array_equal(getattr(fused, name), getattr(ref, name)), name
    else:
        oracles.assert_backends_agree(prob, fused.x(), ref.x())
    return clipped, renorms


def renormalizing_problem():
    # lam n >> R^2 makes mu ~ 1, so rho^n ~ e^-2 and the pbar multiplier
    # passes 1e-120 about every 140 epochs, inside a fused call
    A, labels = synth_binary(5, 4, 0.5, seed=3, min_nnz=1)
    return ErmProblem.ridge(A, labels, lam=10.0)


def test_fused_kernel_matches_reference_hinge(hinge200, python_kernels):
    clipped, _ = fused_against_reference(hinge200, seed=4, epochs=8)
    assert clipped > 0


def test_fused_kernel_matches_reference_square(ridge150, python_kernels):
    fused_against_reference(ridge150, seed=4, epochs=8)


def test_fused_kernel_matches_reference_across_renormalization(python_kernels):
    _, renorms = fused_against_reference(renormalizing_problem(), seed=1, epochs=300)
    assert renorms >= 1


def test_compiled_kernel_matches_reference_hinge(hinge200, c_kernels):
    clipped, _ = fused_against_reference(hinge200, seed=4, epochs=8, exact=False)
    assert clipped > 0


def test_compiled_kernel_matches_reference_square(ridge150, c_kernels):
    fused_against_reference(ridge150, seed=4, epochs=8, exact=False)


def test_compiled_kernel_matches_reference_across_renormalization(c_kernels):
    _, renorms = fused_against_reference(renormalizing_problem(), seed=1, epochs=300,
                                         exact=False)
    assert renorms >= 1


# sha256 of ubar_base, v, pbar_base and q, and the scale, after 5 compiled
# epochs of ErmDualState(prob, seed=4); then of x and w_agg after 5 compiled
# sdca_epoch calls on BlockSampler(n, 4).  The Python references match the
# compiled epochs only to rounding, so only these digests show that the
# kernels' arithmetic did not move.
COMPILED_EPOCHS = {
    "hinge200": (
        ("c38fb22954aeed5959aae940f05b73e2f9f2c8804171dbb47a250a9418f56495",
         "32c268da445640a25f8783ff03aba743e28d4575663fb3ad7350396acd81ba92",
         "4a312405019e27e81ff2cc9e97573f13f51a99656065d37cdb04a509a2382287",
         "c2f743131ba35ec6ecd5357a377ca73ec4fd6ff12ffc4b10d0072eef8e398448"),
        "0x1.1452caf615a53p-6",
        ("5dcb4b3c34da4e275d34c32c0e60c182bc851461ce80beb17e99693156dfa863",
         "f6c1f2b5c7de371d6c5cfb27746fe7c4afac13aef977cdfbb9be264d3d1efc7d")),
    "ridge150": (
        ("3eac2071749fd7dd780c75264fd2308f7b3c2e8d4437fd0203bc3cfcdca9be82",
         "29e5111cab709a24c28e9ddd4af3cf670110f205778586ae985489c28a7ee24a",
         "ef60fe5ab29073afe1b80b30718d7a890772d89279ee26468f824e7bc257c368",
         "3f87c96a2f6bc9c3e6eba679e1c18ce54c4f25b36101854fffdc7f19ce5b6539"),
        "0x1.ba843f460a5bap-6",
        ("658cc34077ab2be01bae23408b35d3d8296a13260d078daa54b8ae7e1ffd5caf",
         "e483de117781e755c01cfb78aad4b6b2d471e380d90862e045ce5907200bf9cf")),
    "renormalizing": (
        ("a216582697cd5f64e33326da94621070b0abf9aaaa537e3c17a2cdec6ce493ff",
         "43937d62b0899394d84ff082712284adc8a82b1583a50b20b6847cb3e6942161",
         "3c19c508e76bd1541520dcefa01ac41248e4b98955e5164663ef72dd2e8de230",
         "662372cac56abce157d6281c25866405d6f8d7d9ea3e49029cf9d87fcda97e39"),
        "0x1.7018b6d7b932ap-15",
        ("efc456dd0f31520512be0436794f551bac252ba991c82e9fc31936cb99d5531d",
         "bf50d4e9a4f541a981fba74e30fff38b7782158c5797fa71a51a7f1a12eb7403")),
}


@pytest.mark.parametrize("name", COMPILED_EPOCHS)
def test_compiled_epochs_are_pinned(name, c_kernels, request):
    prob = (renormalizing_problem() if name == "renormalizing"
            else request.getfixturevalue(name))
    apcg_digests, scale, sdca_digests = COMPILED_EPOCHS[name]
    digest = lambda a: hashlib.sha256(a.tobytes()).hexdigest()
    state = ErmDualState(prob, seed=4)
    for _ in range(5):
        state.epoch()
    assert tuple(digest(getattr(state, attr))
                 for attr in ("ubar_base", "v", "pbar_base", "q")) == apcg_digests
    assert state.scale.hex() == scale
    x, w = np.zeros(prob.n), np.zeros(prob.d)
    sampler = BlockSampler(prob.n, 4)
    for _ in range(5):
        sdca_epoch(prob, x, w, sampler)
    assert (digest(x), digest(w)) == sdca_digests


def edge_problems():
    """Both losses on n = 1, 2 and 3, fewer examples than the compiled
    epochs look ahead, and on a matrix with empty columns."""
    shapes = [(f"n{n}", synth_binary(n, 6, 0.5, seed=n, min_nnz=1)) for n in (1, 2, 3)]
    A, labels = synth_binary(40, 12, 0.05, seed=3, min_nnz=0)
    assert (np.diff(A.indptr) == 0).any() and A.nnz > 0
    shapes.append(("empty_columns", (A, labels)))
    for name, (A, labels) in shapes:
        yield pytest.param(ErmProblem.smoothed_hinge(A, labels, lam=1e-2), id=f"hinge-{name}")
        yield pytest.param(ErmProblem.ridge(A, labels, lam=1e-2), id=f"ridge-{name}")


def sdca_backends_agree(prob, epochs, monkeypatch, blocks=None):
    """``epochs`` sdca_epoch calls on the compiled kernel and on the Python
    one, from one seed (or on ``blocks`` every epoch), agree to rounding."""
    runs = []
    for lib in (native.library(), None):
        monkeypatch.setattr(native, "library", lambda lib=lib: lib)
        x, w = np.zeros(prob.n), np.zeros(prob.d)
        sampler = BlockSampler(prob.n, 2)
        if blocks is not None:
            sampler.take = lambda k: np.array(blocks)
        for _ in range(epochs):
            sdca_epoch(prob, x, w, sampler)
        runs.append((x, w))
    (x, w), (x_ref, w_ref) = runs
    oracles.assert_backends_agree(prob, x, x_ref)
    assert np.max(np.abs(w - w_ref)) <= oracles.BACKEND_RTOL * np.max(np.abs(w_ref))


@pytest.mark.parametrize("prob", list(edge_problems()))
def test_compiled_epochs_on_edge_shapes(prob, c_kernels, monkeypatch):
    fused_against_reference(prob, seed=2, epochs=20, exact=False)
    sdca_backends_agree(prob, 20, monkeypatch)


@pytest.mark.parametrize("name", ["hinge200", "ridge150"])
def test_compiled_epochs_on_a_column_repeated_back_to_back(name, c_kernels, monkeypatch,
                                                           request):
    """Runs of 5 equal indices, longer than either lookahead distance."""
    prob = request.getfixturevalue(name)
    blocks = np.repeat(BlockSampler(prob.n, 9).take(prob.n // 5), 5)
    assert blocks.size == prob.n
    fused_against_reference(prob, seed=4, epochs=4, exact=False, blocks=blocks)
    sdca_backends_agree(prob, 4, monkeypatch, blocks=blocks)


def test_out_of_range_forced_block_raises_before_any_step(hinge200, monkeypatch):
    """A sampler index outside [0, n) makes the epoch raise IndexError before
    any step, on the Python kernel and, where it loads, the compiled one."""
    compiled = native.library()
    names = ("ubar_base", "v", "pbar_base", "q")
    for lib in [None] + ([compiled] if compiled is not None else []):
        monkeypatch.setattr(native, "library", lambda lib=lib: lib)
        state = ErmDualState(hinge200, seed=0)
        state.epoch()
        before = [getattr(state, name).copy() for name in names]
        bad = iter(([hinge200.n], [-1]))
        monkeypatch.setattr(state.sampler, "take", lambda k: np.array(next(bad)))
        for _ in range(2):
            with pytest.raises(IndexError):
                state.epoch()
        after = [getattr(state, name) for name in names]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert state.k == hinge200.n


def test_compiled_aggregates_stay_consistent_over_long_runs(c_kernels):
    """300 compiled epochs, past at least one scale renormalization, with the
    maintained aggregates checked against recomputation every 50 epochs."""
    state = ErmDualState(renormalizing_problem(), seed=1)
    renorms = 0
    for epoch in range(1, 301):
        scale = state.scale
        state.epoch()
        renorms += state.scale > scale  # the scale only grows at a renorm
        if epoch % 50 == 0:
            state.check_consistency()
    assert renorms >= 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_problem_rejects_non_positive_or_non_finite_parameters(bad):
    A, labels = synth_binary(20, 5, 0.5, seed=1, min_nnz=1)
    with pytest.raises(ValueError):
        ErmProblem.smoothed_hinge(A, labels, lam=bad)
    with pytest.raises(ValueError):
        ErmProblem.ridge(A, labels, lam=1e-2, gamma=bad)
    with pytest.raises(ValueError):
        SmoothedHingeLoss(gamma=bad)
    with pytest.raises(ValueError):
        SquareLoss(labels, gamma=bad)
    if not math.isfinite(bad):
        with pytest.raises(ValueError):
            ErmProblem.ridge(A, np.where(labels > 0, bad, 1.0), lam=1e-2)


@pytest.mark.parametrize("col, lam, gamma", [
    ([1e150, 1e150], 1e-10, 1.0),  # ||A_i||^2 / (lam n^2) overflows: L_i = inf
    ([1e100], 1e-10, 1e-300),      # L_i finite, but (gamma/n) / max L_i underflows
    ([1.0], 1e308, 1.0),           # lam n overflows: the step weights would be inf/inf
])
def test_problem_rejects_coordinate_constants_out_of_range(col, lam, gamma):
    dense = np.zeros((2, 2))
    dense[:len(col), 0] = col
    dense[0, 1] = 1.0
    A = oracles.from_dense(dense)
    labels = np.array([1.0, -1.0])
    for build in (ErmProblem.smoothed_hinge, ErmProblem.ridge):
        with pytest.raises(ConfigurationError, match="overflow"):
            build(A, labels, lam=lam, gamma=gamma)


@pytest.mark.parametrize("solver", KNOWN_SOLVERS)
def test_overflowing_lam_n_squared_alone_runs_finite(solver):
    """lam n is finite but lam n^2 overflows: L_i = gamma/n, and the rows stay finite."""
    A, labels = synth_binary(40, 10, 0.5, seed=0, min_nnz=1)
    for build in (ErmProblem.smoothed_hinge, ErmProblem.ridge):
        prob = build(A, labels, lam=1e306)
        assert math.isinf(prob.lam * prob.n * prob.n)
        reports = run_solver_trace(prob, solver, epochs=3, seed=0, tol=None).reports
        assert all(math.isfinite(r.gap) for r in reports)


def test_erm_state_rejects_infeasible_start(hinge200):
    with pytest.raises(ConfigurationError):
        ErmDualState(hinge200, x0=np.full(hinge200.n, 2.0))


def test_erm_long_run_survives_scale_renormalization(hinge200):
    # 2e5 steps at rho ~ 0.996 folds the scale back into the base vectors
    # several times; aggregates must stay consistent throughout
    state = ErmDualState(hinge200, seed=13)
    renorms = 0
    last_scale = state.scale
    for _ in range(200_000):
        apcg_erm_steps(hinge200, state, state.sampler.take(1))
        if state.scale > last_scale:  # scale only grows at a renorm
            renorms += 1
        last_scale = state.scale
    assert renorms >= 2
    state.check_consistency(1e-8)
    rep = PrimalDualReport.evaluate(hinge200, state.x(), epoch=0)
    assert 0.0 <= rep.gap <= 1e-10


# ---------------------------------------------------------------------------
# dual subgradient and gap certificates
# ---------------------------------------------------------------------------

def test_dual_subgradient_interior_value():
    prob = single_column_problem([1.0], lam=1.0, gamma=1.0)
    a, w, _ = oracles.dual_subgradient(prob, np.array([0.5]))
    assert a[0] == pytest.approx(0.5)


def test_dual_subgradient_vanishes_at_optimum(hinge200, hinge200_optimum):
    xstar, _ = hinge200_optimum
    _, _, norm_sq = oracles.dual_subgradient(hinge200, xstar)
    assert norm_sq <= 1e-12


def test_dual_subgradient_rejects_outside_domain(hinge200):
    x = np.zeros(hinge200.n)
    x[0] = 1.2
    with pytest.raises(ValueError):
        oracles.dual_subgradient(hinge200, x)


def test_subgradient_gap_bound_along_run(hinge200):
    run = solve_erm(hinge200, epochs=40, seed=3)
    for rep in run.reports:
        assert rep.gap >= -1e-10
        assert rep.gap <= rep.subgradient_gap_bound + 1e-10


def report_consistency(hinge200, ridge150):
    """The report shares one A x and one A' w between its fields; each must
    equal the separately computed value exactly.  Returns the reports."""
    reports = []
    rng = np.random.default_rng(5)
    edge = rng.choice([0.0, 1.0, 0.5], size=hinge200.n)
    edge[:3] = (0.0, 1.0, 1.0 + 5e-10)  # within the rounding slack of the box
    cases = [(hinge200, np.full(hinge200.n, 0.25)), (hinge200, edge),
             (ridge150, rng.standard_normal(ridge150.n))]
    for prob, x in cases:
        rep = PrimalDualReport.evaluate(prob, x, epoch=3)
        _, w, norm_sq = oracles.dual_subgradient(prob, x)
        assert rep.primal == primal_objective(prob, w)
        assert rep.dual == dual_objective(prob, x)
        assert rep.dual_subgrad_norm_sq == norm_sq
        assert rep.gap == rep.primal - rep.dual
        assert rep.subgradient_gap_bound == prob.n / (2 * prob.gamma) * norm_sq
        assert rep.epoch == 3
        reports.append(rep)
    return reports


def test_report_evaluate_consistency(hinge200, ridge150, python_kernels):
    report_consistency(hinge200, ridge150)


def test_report_evaluate_consistency_compiled(hinge200, ridge150, c_kernels, monkeypatch):
    compiled = report_consistency(hinge200, ridge150)
    monkeypatch.setattr(native, "library", lambda: None)
    # the compiled products are bitwise the bincount ones, so reports are too
    assert compiled == report_consistency(hinge200, ridge150)


def test_report_evaluate_rejects_outside_domain(hinge200):
    x = np.zeros(hinge200.n)
    x[0] = 1.2
    with pytest.raises(ValueError):
        PrimalDualReport.evaluate(hinge200, x, epoch=0)


def report_edge_cases():
    """(problem, x) pairs on both losses that reach every branch of a
    report's per-example terms: the three hinge pieces, both box edges with
    the subgradient projection active and inactive, an empty column, n == 1."""
    rng = np.random.default_rng(2)
    dense = rng.standard_normal((6, 16)) * (rng.uniform(size=(6, 16)) < 0.6)
    dense[:, 4] = 0.0  # an empty column
    A = oracles.from_dense(dense)
    labels = np.where(rng.uniform(size=16) < 0.5, -1.0, 1.0)
    hinge = ErmProblem.smoothed_hinge(A, labels, lam=0.3, gamma=0.5)
    x = rng.uniform(size=16)
    x[::3], x[1::3] = 0.0, 1.0
    _, w, _ = oracles.dual_subgradient(hinge, x)
    m = hinge.matrix.tdot(w)
    assert np.any(m >= 1.0) and np.any(m <= 0.5) and np.any((0.5 < m) & (m < 1.0))
    zero, one = x == 0.0, x == 1.0
    assert np.any(zero & (m > 1.0)) and np.any(zero & (m <= 1.0))  # a_i = 1 there
    assert np.any(one & (m < 0.5)) and np.any(one & (m >= 0.5))  # a_i = 1 - gamma
    single = oracles.from_dense(np.array([[2.0], [-1.0]]))
    slack = x.copy()  # within the rounding slack of the box, clipped to it
    slack[:4] = (-0.0, -DUAL_DOMAIN_ATOL, 1.0 + DUAL_DOMAIN_ATOL, 1.0 + DUAL_DOMAIN_ATOL / 2)
    return [(hinge, x), (hinge, slack),
            (ErmProblem.ridge(A, labels, lam=0.3, gamma=2.0), rng.standard_normal(16)),
            (ErmProblem.smoothed_hinge(single, np.array([-1.0]), lam=1.0), np.array([0.5])),
            (ErmProblem.smoothed_hinge(single, np.array([1.0]), lam=0.1), np.array([1.0])),
            (ErmProblem.ridge(single, np.array([0.5]), lam=0.3), np.array([-1.5]))]


@pytest.mark.parametrize("kernels", ["python_kernels", "c_kernels"])
def test_report_terms_match_the_numpy_reference(kernels, request):
    """The column pass of a report (the compiled ``erm_report`` pass when
    the kernels load: box check, clip, w = A x / (lam n) and the
    per-example terms) and the report built on it equal the numpy
    reference, oracles.dual_subgradient plus the loss sums, bitwise: the
    kernel evaluates each numpy expression in the same order, and the sums
    stay in numpy."""
    request.getfixturevalue(kernels)
    for prob, x in report_edge_cases():
        a, w, norm_sq = oracles.dual_subgradient(prob, x)
        margins = prob.matrix.tdot(w)
        box = prob.loss.dual_box
        xc = x if box is None else np.clip(x, *box)
        row = erm._ReportPass(prob)
        row.post(x, prob.matrix.dot(xc))
        phi, conj, resid = row.terms
        assert np.array_equal(row.w, w)
        assert np.array_equal(phi, prob.loss.phi(margins))
        assert np.array_equal(conj, prob.loss.conj_neg(xc))
        assert np.array_equal(resid, margins - a)
        rep = PrimalDualReport.evaluate(prob, x, epoch=0)
        assert rep.primal == primal_objective(prob, w)
        assert rep.dual == dual_objective(prob, x)
        assert rep.dual_subgrad_norm_sq == norm_sq


@pytest.mark.parametrize("kernels", ["python_kernels", "c_kernels"])
def test_report_reads_strided_and_integer_duals_on_square_loss(ridge150, kernels,
                                                               request):
    """Square loss has no box, so the dual point reaches the report as given:
    a strided or integer x reports as its contiguous float copy does, and
    one of the wrong length is refused."""
    request.getfixturevalue(kernels)
    n = ridge150.n
    strided = np.random.default_rng(3).standard_normal(2 * n)[::2]
    for x in (strided, np.arange(n) % 5 - 2):
        want = PrimalDualReport.evaluate(ridge150, np.array(x, dtype=float), epoch=1)
        assert PrimalDualReport.evaluate(ridge150, x, epoch=1) == want
    with pytest.raises(ValueError):
        PrimalDualReport.evaluate(ridge150, np.zeros(n + 1), epoch=1,
                                  ax=np.zeros(ridge150.d))


# ---------------------------------------------------------------------------
# full prox step and certification bounds
# ---------------------------------------------------------------------------

def test_full_prox_fixed_point_at_optimum(hinge200, hinge200_optimum):
    xstar, _ = hinge200_optimum
    assert np.max(np.abs(oracles.full_prox_step(hinge200, xstar) - xstar)) <= 1e-9


def test_full_prox_matches_grid_on_tiny_instance():
    dense = np.array([[1.0, -0.5], [0.3, 0.8]])
    A = oracles.from_dense(dense)
    prob = ErmProblem.smoothed_hinge(A, np.array([1.0, -1.0]), lam=0.5, gamma=1.0)
    x = np.zeros(2)
    got = oracles.full_prox_step(prob, x)
    theta = oracles.spectral_norm(prob.matrix) ** 2 / (prob.lam * 4)
    grad = prob.matrix.tdot(prob.matrix.dot(x)) / (prob.lam * 4)

    def objective(v):
        psi = 0.0
        for i in range(2):
            if not (0.0 <= v[i] <= 1.0):
                return math.inf
            psi += (-v[i] + 0.5 * v[i] ** 2) / 2
        return float(grad @ v) + 0.5 * theta * float((v - x) @ (v - x)) + psi

    want = oracles.grid_minimize_2d(objective, box=1.0, points=201, rounds=4)
    assert np.max(np.abs(got - want)) <= 1e-6


def test_full_prox_gap_bound_along_trajectory(hinge200, hinge200_optimum):
    _, dstar = hinge200_optimum
    state = ErmDualState(hinge200, seed=5)
    for _ in range(12):
        apcg_erm_steps(hinge200, state, state.sampler.take(hinge200.n))
        x = state.x()
        t = oracles.full_prox_step(hinge200, x)
        rep = PrimalDualReport.evaluate(hinge200, t, epoch=0)
        assert rep.gap <= oracles.full_prox_gap_bound(hinge200, x, dstar) + 1e-10


def test_gap_by_dual_bound_requires_strongly_convex_loss(hinge200):
    with pytest.raises(ConfigurationError):
        oracles.gap_by_dual_bound(hinge200, np.zeros(hinge200.n), 0.0)


def test_gap_by_dual_bound_ridge_run():
    A, labels = synth_binary(20, 5, 0.6, seed=9, min_nnz=1)
    prob = ErmProblem.ridge(A, labels, lam=1e-2, gamma=1.0)
    xstar, dstar = oracles.ridge_dual_optimum(prob)
    # coefficient always exceeds 1 (eta = gamma for the square loss)
    coef = (prob.lam * prob.gamma * prob.n + oracles.spectral_norm(prob.matrix) ** 2) / (
        prob.lam * prob.gamma * prob.n)
    assert coef > 1.0
    assert oracles.gap_by_dual_bound(prob, xstar, dstar) <= 1e-10
    state = ErmDualState(prob, seed=1)
    for epoch in range(50):
        apcg_erm_steps(prob, state, state.sampler.take(prob.n))
        x = state.x()
        rep = PrimalDualReport.evaluate(prob, x, epoch=epoch)
        assert rep.gap <= oracles.gap_by_dual_bound(prob, x, dstar) + 1e-10


def test_ridge_solver_reaches_oracle_optimum():
    A, labels = synth_binary(30, 8, 0.5, seed=4, min_nnz=1)
    prob = ErmProblem.ridge(A, labels, lam=1e-2, gamma=1.0)
    xstar, dstar = oracles.ridge_dual_optimum(prob)
    run = solve_erm(prob, epochs=400, seed=0)
    assert dstar - run.reports[-1].dual <= 1e-10
    assert np.max(np.abs(run.x - xstar)) <= 1e-5


# ---------------------------------------------------------------------------
# complexity estimate
# ---------------------------------------------------------------------------

def test_complexity_estimate_zero_when_target_reached():
    assert complexity_estimate(10, 1.0, 1e-3, 1.0, epsilon=2.0, C=2.0) == 0
    assert complexity_estimate(10, 1.0, 1e-3, 1.0, epsilon=3.0, C=2.0) == 0


def test_complexity_estimate_formula_value():
    # n=1e4, R=1, lam=1e-6, gamma=1, log(C/eps)=10 -> 1.1e6
    C = math.exp(10.0)
    got = complexity_estimate(10_000, 1.0, 1e-6, 1.0, epsilon=1.0, C=C)
    assert got == pytest.approx(1.1e6, rel=1e-12)


def test_complexity_estimate_monotone_in_lambda():
    vals = [complexity_estimate(100, 1.0, lam, 1.0, epsilon=1e-6, C=1.0)
            for lam in (1e-6, 1e-4, 1e-2, 1.0)]
    assert vals == sorted(vals, reverse=True)


def test_complexity_estimate_rejects_nonpositive():
    with pytest.raises(ValueError):
        complexity_estimate(0, 1.0, 1.0, 1.0, 1.0, 2.0)


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------

def untimed(run):
    return [(r.epoch, r.primal, r.dual, r.gap, r.dual_subgrad_norm_sq,
             r.subgradient_gap_bound) for r in run.reports]


def test_solve_erm_epoch_zero_row(hinge200):
    runs = [solve_erm(hinge200, epochs=0, seed=0)]
    runs += [run_solver_trace(hinge200, solver, epochs=0, seed=0, tol=None)
             for solver in KNOWN_SOLVERS]
    for run in runs:
        assert len(run.reports) == 1
        assert run.reports[0].epoch == 0
        assert run.epochs_run == 0


def test_solve_erm_deterministic(hinge200):
    a = solve_erm(hinge200, epochs=5, seed=11)
    b = solve_erm(hinge200, epochs=5, seed=11)
    assert np.array_equal(a.x, b.x)
    assert [(r.epoch, r.primal, r.dual, r.gap) for r in a.reports] == \
           [(r.epoch, r.primal, r.dual, r.gap) for r in b.reports]
    runs = {}
    for solver in KNOWN_SOLVERS:
        a, b = (run_solver_trace(hinge200, solver, epochs=5, seed=11, tol=None)
                for _ in range(2))
        assert a is not b  # a direct call never takes another call's run
        assert np.array_equal(a.x, b.x)
        assert untimed(a) == untimed(b)
        runs[solver] = a
    # on the ERM dual rpcg runs the SDCA kernel
    assert np.array_equal(runs["rpcg"].x, runs["sdca"].x)
    assert untimed(runs["rpcg"]) == untimed(runs["sdca"])


def test_compiled_runs_are_deterministic_and_agree_with_python(hinge200, ridge150,
                                                               c_kernels, monkeypatch):
    for prob in (hinge200, ridge150):
        compiled = {}
        for solver in KNOWN_SOLVERS:
            a, b = (run_solver_trace(prob, solver, epochs=6, seed=3, tol=None)
                    for _ in range(2))
            assert np.array_equal(a.x, b.x)
            assert untimed(a) == untimed(b)
            compiled[solver] = a
        with monkeypatch.context() as m:
            m.setattr(native, "library", lambda: None)
            for solver, c in compiled.items():
                py = run_solver_trace(prob, solver, epochs=6, seed=3, tol=None)
                if solver == "afg":  # full-vector products only: bitwise
                    assert untimed(c) == untimed(py)
                else:
                    oracles.assert_backends_agree(prob, c.x, py.x)


def test_solve_erm_tolerance_stop(hinge200):
    runs = [solve_erm(hinge200, epochs=500, seed=0, tol=1e-5)]
    runs += [run_solver_trace(hinge200, solver, epochs=500, seed=0, tol=1e-5)
             for solver in KNOWN_SOLVERS]
    for run in runs:
        assert run.epochs_to_tol is not None
        assert run.reports[-1].gap <= 1e-5
        assert all(r.gap > 1e-5 for r in run.reports[:-1])
        assert run.epochs_run == run.epochs_to_tol < 500


def test_certification_ignores_a_maintained_gap_that_reads_tol_early(ridge150):
    """Negative control: a solver whose maintained A x is off by a relative
    2e-6 reports gaps <= tol epochs before the exact gap gets there.  The
    run must still stop on the exact gap, and the certifying and last rows
    must be the exact reports."""
    tol = 1e-9
    exact_state = ErmDualState(ridge150, seed=4)
    exact = run_epochs(ridge150, exact_state.epoch, exact_state.x, 500, tol,
                       ax=lambda: ridge150.matrix.dot(exact_state.x()))
    ax_star = ridge150.matrix.dot(exact.x)
    # d gap / d scale of the aggregate is about ||A x*||^2 / (lam n^2) near
    # the optimum, so this shrink lowers the reported gap by about 50 tol
    shrink = 50 * tol * ridge150.lam * ridge150.n ** 2 / float(ax_star @ ax_star)
    state = ErmDualState(ridge150, seed=4)
    seen = []  # (x, perturbed A x) per maintained report, one per epoch

    def perturbed():
        z = (1.0 - shrink) * state.ax()
        seen.append((state.x(), z))
        return z

    run = run_epochs(ridge150, state.epoch, state.x, 500, tol, ax=perturbed)
    reached = run.epochs_to_tol
    early = [e for e, (x, z) in enumerate(seen)
             if PrimalDualReport.evaluate(ridge150, x, e, ax=z).gap <= tol]
    assert reached == exact.epochs_to_tol
    assert early and early[0] <= reached - 3  # the control does read tol early
    assert all(r.gap > tol for r in run.reports[:reached])
    for e in early:  # every row whose maintained gap read tol was re-evaluated
        row = run.reports[e]
        assert row == PrimalDualReport.evaluate(ridge150, seen[e][0], e,
                                                wall_time_s=row.wall_time_s)
    last = run.reports[-1]
    assert last.epoch == reached
    assert last == PrimalDualReport.evaluate(ridge150, run.x, reached,
                                             wall_time_s=last.wall_time_s)
    assert np.array_equal(run.w, primal_from_dual(ridge150, run.x))

    # a run cut by its epoch budget before any gap reads tol still ends on
    # an exact row
    state = ErmDualState(ridge150, seed=4)
    budget = early[0] - 1
    cut = run_epochs(ridge150, state.epoch, state.x, budget, tol, ax=perturbed)
    assert cut.epochs_to_tol is None
    last = cut.reports[-1]
    assert last == PrimalDualReport.evaluate(ridge150, cut.x, budget,
                                             wall_time_s=last.wall_time_s)
    assert np.array_equal(cut.w, primal_from_dual(ridge150, cut.x))


def untimed_run(run):
    """A run's reports, x, w and counts, wall times aside."""
    return ([dataclasses.replace(r, wall_time_s=0.0) for r in run.reports],
            run.x.tobytes(), run.w.tobytes(), run.epochs_run, run.epochs_to_tol)


@pytest.mark.parametrize("kernels", ["python_kernels", "c_kernels"])
def test_pipelined_runs_equal_the_serial_reference(hinge200, ridge150, kernels, request,
                                                   monkeypatch):
    """Every cell run_epochs drives (the four solvers on both losses) gives
    bitwise the serial loop's rows, x, w and counts, whether the run ends at
    its budget without a tol, on tol mid-run, or at a budget that cuts it
    before tol; at tol 0.5 (the gap at x = 0) the first row stops it."""
    request.getfixturevalue(kernels)
    # (tol, epochs) -> whether the run reaches tol at row 0, mid-run or not
    ends = {(None, 8): "no", (1e-3, 100): "mid-run", (1e-6, 10): "no", (0.5, 10): "row 0"}
    for prob in (hinge200, ridge150):
        for solver in KNOWN_SOLVERS:
            for (tol, epochs), end in ends.items():
                got = run_solver_trace(prob, solver, epochs=epochs, seed=3, tol=tol)
                with monkeypatch.context() as m:
                    m.setattr(erm, "run_epochs", oracles.serial_run_epochs)
                    want = run_solver_trace(prob, solver, epochs=epochs, seed=3, tol=tol)
                assert untimed_run(got) == untimed_run(want), (solver, tol)
                reached = got.epochs_to_tol
                assert end == ("no" if reached is None else "row 0" if reached == 0
                               else "mid-run"), (solver, tol)


class EpochFails(Exception):
    pass


def failing_epochs(state, at):
    """``state.epoch``, raising EpochFails on its call number ``at`` (from 1)
    instead of stepping."""
    calls = [0]

    def epoch():
        calls[0] += 1
        if calls[0] == at:
            raise EpochFails(f"epoch {at} failed")
        state.epoch()
    return epoch


@pytest.mark.parametrize("kernels", ["python_kernels", "c_kernels"])
def test_speculative_epoch_errors_follow_the_serial_run(ridge150, kernels, request):
    """An epoch that raises on its call after the row that stops the run
    (the speculative one) is discarded with its error, and the run is the
    serial one; an epoch that raises before that propagates as serially,
    with its type and message."""
    request.getfixturevalue(kernels)
    tol = 1e-6
    state = ErmDualState(ridge150, seed=4)
    want = oracles.serial_run_epochs(ridge150, state.epoch, state.x, 500, tol, ax=state.ax)
    stop = want.epochs_to_tol
    assert stop is not None
    state = ErmDualState(ridge150, seed=4)
    got = run_epochs(ridge150, failing_epochs(state, stop + 1), state.x, 500, tol,
                     ax=state.ax)
    assert untimed_run(got) == untimed_run(want)
    for drive in (run_epochs, oracles.serial_run_epochs):
        state = ErmDualState(ridge150, seed=4)
        with pytest.raises(EpochFails, match=f"^epoch {stop} failed$"):
            drive(ridge150, failing_epochs(state, stop), state.x, 500, tol, ax=state.ax)


@pytest.mark.parametrize("kernels", ["python_kernels", "c_kernels"])
def test_a_failing_report_takes_precedence_over_the_speculative_epoch(hinge200, kernels,
                                                                      request):
    """A row at a point outside the conjugate domain raises its ValueError
    even though the epoch that followed it raised too, as the serial loop,
    which never runs that epoch, does."""
    request.getfixturevalue(kernels)
    for drive in (run_epochs, oracles.serial_run_epochs):
        state = ErmDualState(hinge200, seed=1)
        rows = [0]

        def x():
            rows[0] += 1
            point = state.x()
            if rows[0] == 3:
                point[0] = 1.5
            return point

        with pytest.raises(ValueError, match="outside the conjugate domain"):
            drive(hinge200, failing_epochs(state, 3), x, 10, None, ax=state.ax)


def test_a_report_job_holds_every_array_it_passes(hinge200, c_kernels, monkeypatch):
    """Each pointer a report pass passes to ``erm_report`` is the address
    of an array the pass holds, and the worker holds the pass, its job,
    until the call returns, so a pass dropped with its call in flight keeps
    its arrays alive until then."""
    prob, lib = hinge200, native.library()
    called, release = [], threading.Event()
    report = lib.erm_report

    def held_back(*args):  # on the worker thread
        called.append(args)
        assert release.wait(timeout=30.0)
        return report(*args)

    monkeypatch.setattr(lib, "erm_report", held_back)
    x = np.full(prob.n, 0.25)
    row = erm._ReportPass(prob)
    row.post(x, prob.matrix.dot(x), background=True)
    snapshot_ref = weakref.ref(row.x)  # the pass's copy of x, which the call reads
    m = row.matrix
    held = {a.ctypes.data for a in (m.indptr, m.indices, m.values, row.anchors,
                                    row.x, row.ax, row.w, *row.terms)}
    del row
    gc.collect()
    assert snapshot_ref() is not None
    release.set()
    deadline = time.monotonic() + 30.0
    while snapshot_ref() is not None and time.monotonic() < deadline:
        time.sleep(0.001)
        gc.collect()
    assert snapshot_ref() is None  # freed once the call returned
    (args,) = called
    pointers = [arg for arg, kind in zip(args, native.SIGNATURES["erm_report"])
                if kind is ctypes.c_void_p]
    assert len(pointers) == 10 and set(pointers) <= held


def test_run_epochs_never_leaves_with_a_job_in_flight(hinge200, c_kernels, monkeypatch):
    """KeyboardInterrupt from an epoch, and an epoch error after a row that
    does not stop the run, leave run_epochs only after it has waited for
    each call it posted to the worker (a settle returns once the call has
    run)."""
    posted, waited = [], [0]
    run, settle = erm._ReportPass.run, erm._ReportPass.settle

    def spied_run(row):  # on the worker thread
        posted.append(row)
        run(row)

    def spied_settle(row):
        settle(row)
        waited[0] = len(posted)  # every call posted so far has returned

    monkeypatch.setattr(erm._ReportPass, "run", spied_run)
    monkeypatch.setattr(erm._ReportPass, "settle", spied_settle)
    for error in (KeyboardInterrupt, EpochFails):
        state = ErmDualState(hinge200, seed=1)

        def epoch():
            if state.k:
                raise error("stop")
            state.epoch()

        with pytest.raises(error):
            run_epochs(hinge200, epoch, state.x, 10, None, ax=state.ax)
        assert len(posted) == 2 and waited[0] == len(posted)
        posted.clear()
        waited[0] = 0


@pytest.mark.parametrize("kernels", ["python_kernels", "c_kernels"])
def test_only_a_pass_on_the_worker_makes_an_epoch_speculative(hinge200, kernels, request,
                                                             monkeypatch):
    """With the kernels a run that stops on tol steps one epoch past its
    stopping row while the worker makes that row's pass.  Without them every
    report is made, in numpy, before the next epoch, nothing goes to the
    worker, and no epoch runs past the stopping row: the solver's state is
    the returned x."""
    request.getfixturevalue(kernels)
    compiled = kernels == "c_kernels"
    if not compiled:
        def submit(job):
            raise AssertionError("a pass went to the worker without the kernels")
        monkeypatch.setattr(native, "submit", submit)
    state = ErmDualState(hinge200, seed=0)
    calls = [0]

    def epoch():
        calls[0] += 1
        state.epoch()

    run = run_epochs(hinge200, epoch, state.x, 100, 1e-3, ax=state.ax)
    assert run.epochs_to_tol is not None
    assert calls[0] == run.epochs_run + compiled
    assert np.array_equal(state.x(), run.x) == (not compiled)


def test_snapshots_may_alias_what_the_next_epoch_writes(hinge200, c_kernels):
    """x() and ax() may return arrays that the epochs write in place (here
    SDCA's x and an in-place A x): each row reads its own copies, so the
    speculative epoch writing them while the worker makes the row's pass
    changes no row, and the run is the serial one."""
    prob = hinge200

    def cell():
        x, w_agg, ax = np.zeros(prob.n), np.zeros(prob.d), np.zeros(prob.d)
        sampler = BlockSampler(prob.n, 3)

        def epoch():
            sdca_epoch(prob, x, w_agg, sampler)
            np.multiply(w_agg, prob.lam * prob.n, out=ax)
        return epoch, (lambda: x), (lambda: ax)

    epoch, x, ax = cell()
    want = oracles.serial_run_epochs(prob, epoch, x, 60, 1e-3, ax=ax)
    assert want.epochs_to_tol is not None
    epoch, x, ax = cell()
    assert untimed_run(run_epochs(prob, epoch, x, 60, 1e-3, ax=ax)) == untimed_run(want)


@pytest.mark.parametrize("solver, kernels", [
    ("apcg", "python_kernels"), ("apcg", "c_kernels"),
    ("sdca", "python_kernels"), ("sdca", "c_kernels"),
    ("rpcg", None), ("afg", None)])
def test_rows_from_maintained_products_agree_with_evaluate(hinge200, ridge150, solver,
                                                          kernels, request, monkeypatch):
    """Every report a cell makes, from a maintained A x or a fresh one, is
    within 1e-12 of PrimalDualReport.evaluate at the same x (hinge200 has
    box edges active).  Each report is finished from a ``_ReportPass`` row,
    which the spy on its per-row post records with a copy of its point."""
    if kernels is not None:
        request.getfixturevalue(kernels)
    evaluate = PrimalDualReport.evaluate
    post, finish = erm._ReportPass.post, erm._ReportPass.finish
    for prob in (hinge200, ridge150):
        made = []

        def spy_post(self, x, *args, **kwargs):
            post(self, x, *args, **kwargs)
            self.spied_x = np.array(x, copy=True)

        def spy_finish(self, *args, **kwargs):
            rep = finish(self, *args, **kwargs)
            made.append((self.spied_x, rep))
            return rep

        with monkeypatch.context() as m:
            m.setattr(erm._ReportPass, "post", spy_post)
            m.setattr(erm._ReportPass, "finish", spy_finish)
            run = run_solver_trace(prob, solver, epochs=30, seed=2, tol=None)
        assert {id(r) for r in run.reports} <= {id(rep) for _, rep in made}
        for x, rep in made:
            want = evaluate(prob, x, rep.epoch, wall_time_s=rep.wall_time_s)
            assert abs(rep.primal - want.primal) <= 1e-12 * abs(want.primal)
            assert abs(rep.dual - want.dual) <= 1e-12 * abs(want.dual)
            assert abs(rep.gap - want.gap) <= 1e-12 * max(abs(want.primal), abs(want.dual))
            if solver == "afg":  # its carried A x is the accepted trial's fresh product
                assert rep == want


@pytest.mark.parametrize("solver", KNOWN_SOLVERS)
def test_cell_product_budget(hinge200, solver, monkeypatch):
    """Sparse products per cell: one A' w per report and no A x for the
    coordinate solvers; AFG adds one A' w per gradient and one A x per
    line-search trial.  On top: the start (APCG's q = A x0, AFG's image of
    x0) and the last row's fresh A x and A' w.  A cell that stops on tol
    (at 1e-3, within 40 epochs here) also re-evaluates its stopping row
    from a fresh A x, and with the kernels AFG makes exactly one iteration
    past that row: the speculative one that run_epochs discards.  A compiled report's
    ``_ReportPass.post`` counts as its A' w (it is made on the main thread;
    its kernel call may run on the worker).  Without the kernels no epoch is
    speculative."""
    counts = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(SparseColMatrix, "dot", counting("dot", SparseColMatrix.dot))
    monkeypatch.setattr(SparseColMatrix, "tdot", counting("tdot", SparseColMatrix.tdot))
    if native.library() is not None:
        monkeypatch.setattr(erm._ReportPass, "post", counting("tdot", erm._ReportPass.post))
    monkeypatch.setattr(ConjugatePenalty, "prox_full",
                        counting("trials", ConjugatePenalty.prox_full))
    monkeypatch.setattr(baselines, "afg_step", counting("iterations", baselines.afg_step))
    start = {"apcg": 1, "sdca": 0, "rpcg": 0, "afg": 1}[solver]
    compiled = native.library() is not None
    for tol, epochs in ((None, 12), (1e-3, 40)):
        counts.update(dot=0, tdot=0, trials=0, iterations=0)
        run = run_solver_trace(hinge200, solver, epochs=epochs, seed=1, tol=tol)
        stopped = run.epochs_to_tol is not None
        assert stopped == (tol is not None)
        reports = run.epochs_run + 1 + stopped
        if solver == "afg":
            assert counts["iterations"] == run.epochs_run + (stopped and compiled)
            assert counts["trials"] >= counts["iterations"]
            assert counts["dot"] == start + counts["trials"] + 1
            assert counts["tdot"] == counts["iterations"] + reports
        else:
            assert counts["trials"] == counts["iterations"] == 0
            assert counts["dot"] == start + 1
            assert counts["tdot"] == reports


@pytest.mark.parametrize("kernels", ["python_kernels", "c_kernels"])
def test_later_runs_leave_earlier_results_unchanged(hinge200, kernels, request, monkeypatch,
                                                    tmp_path):
    """A run's report pass and its buffers are its own: the x, w and reports
    a run returned stay bitwise as they were after the same problem runs
    again and after every cell of a run_experiment, whose runs are checked
    the same way once all of them are done."""
    request.getfixturevalue(kernels)

    def frozen(run):
        return list(run.reports), run.x.tobytes(), run.w.tobytes()

    first = solve_erm(hinge200, epochs=20, seed=0)
    want = frozen(first)
    again = solve_erm(hinge200, epochs=20, seed=0)
    for solver in KNOWN_SOLVERS:
        run_solver_trace(hinge200, solver, epochs=20, seed=1, tol=1e-3)
    assert frozen(first) == want
    assert untimed_run(again) == untimed_run(first)

    made, drive = [], erm.run_epochs

    def recorded(*args, **kwargs):
        run = drive(*args, **kwargs)
        made.append((run, frozen(run)))
        return run

    monkeypatch.setattr(erm, "run_epochs", recorded)
    run_experiment(ExperimentConfig(synthetic=(60, 20, 0.3, 4), loss="square",
                                    lambdas=[1e-2, 1e-3], solvers=list(KNOWN_SOLVERS),
                                    seeds=[0, 1], epochs=15, tol=1e-4, out=str(tmp_path)))
    assert len(made) == 2 * 3 * 2  # sdca and rpcg share their runs
    for run, at_return in made:
        assert frozen(run) == at_return
