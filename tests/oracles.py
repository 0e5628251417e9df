"""Independent reference computations used only by the tests.

Every closed form in the package is checked against one of these slow but
simple oracles: refined grid searches for 1-d proxes and conjugates, a
plain proximal-gradient loop for optimal objective values, dense SVD and
power iteration for spectral norms, an exact active-set QP solve for the
smoothed-hinge dual optimum, and a direct deterministic accelerated
gradient recursion.  The
plain per-step forms that the package's merged or fused steppers replaced
(the APCG-ERM and SDCA coordinate steps, generic RPCG, the dual
subgradient, the explicit step on recorded schedule lists, the per-step
schedule check, the per-k theta recursion and the combination check built
on it, the envelope check on one ``solve`` per seed, and an epoch driver
that makes each row through ``PrimalDualReport.evaluate``, which
``run_epochs`` is held to) are kept
here as references too, and so are the generic
change-of-variables stepper, which the ERM kernel specializes, and the
paper's gap certificates through a full prox step.  So are the fixtures
that only tests build: dense conversions of a ``SparseColMatrix``, the zero
regularizer and the box indicator, quadratics over blocks of mixed sizes,
the separate primal and dual objectives the fused report is checked
against, the relocated dual composite with its penalty's value, and the
aggregate pair of a drift check.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import scipy.optimize

from apcg import schedule
from apcg.cli import CheckResult
from apcg.core import (BlockPartition, CompositeProblem, SeparableRegularizer,
                       block_prox)
from apcg.data import SparseColMatrix
from apcg.erm import (DUAL_DOMAIN_ATOL, ConjugatePenalty, ErmDualState, ErmProblem,
                      ErmRunResult, PrimalDualReport, SquareLoss, _dual_feasible,
                      _dual_value, _primal_value, change_of_variables_rates, erm_constants,
                      relocated_dual_composite)
from apcg.errors import ConfigurationError
from apcg.instances import (QuadraticInstance, _quadratic_instance,
                            diag_dominant_quadratic)
from apcg.solvers import ApcgExplicitState, BlockSampler, apcg_step_general, solve


def col_ids(A: SparseColMatrix) -> np.ndarray:
    """The column of every stored entry of ``A``."""
    return np.repeat(np.arange(A.n, dtype=np.int64), np.diff(A.indptr))


def to_dense(A: SparseColMatrix) -> np.ndarray:
    out = np.zeros((A.d, A.n))
    out[A.indices, col_ids(A)] = A.values
    return out


def from_dense(dense: np.ndarray) -> SparseColMatrix:
    dense = np.asarray(dense, dtype=float)
    d, n = dense.shape
    indptr = [0]
    indices, values = [], []
    for j in range(n):
        rows = np.flatnonzero(dense[:, j])
        indices.append(rows)
        values.append(dense[rows, j])
        indptr.append(indptr[-1] + rows.size)
    return SparseColMatrix(d=d, n=n, indptr=np.asarray(indptr, dtype=np.int64),
                           indices=np.concatenate(indices) if n else np.empty(0, np.int64),
                           values=np.concatenate(values) if n else np.empty(0, float))


class ZeroRegularizer(SeparableRegularizer):
    """Psi identically zero; prox is the identity (bitwise: signed zeros
    stay, which ``L1Regularizer(0.0)`` turns into +0.0)."""

    def prox_block(self, i, center, weight):
        return np.array(center, dtype=float, copy=True)

    def eval_full(self, x):
        return 0.0


class BoxIndicator(SeparableRegularizer):
    """Indicator of the box [lo, hi] per coordinate; prox is projection.

    Membership is tested with absolute tolerance ``atol`` so that iterates
    reconstructed through floating-point change-of-variables do not get
    flagged infeasible by rounding in the last ulp.
    """

    def __init__(self, lo: float, hi: float, atol: float = 1e-9):
        if not lo <= hi:
            raise ValueError("need lo <= hi")
        self.lo, self.hi, self.atol = float(lo), float(hi), float(atol)

    def prox_block(self, i, center, weight):
        return np.clip(center, self.lo, self.hi)

    def eval_full(self, x):
        if np.any(x < self.lo - self.atol) or np.any(x > self.hi + self.atol):
            return math.inf
        return 0.0


def block_quadratic(sizes: tuple[int, ...], seed: int = 0,
                    l1: float = 0.0) -> QuadraticInstance:
    """Random SPD quadratic over blocks of mixed sizes.

    With a single block (``sizes = (dim,)``) the coordinate solvers lose all
    randomness and reduce to deterministic accelerated gradient descent.
    Without an l1 term the regularizer is :class:`ZeroRegularizer`.
    """
    partition = BlockPartition(sizes)
    dim = partition.total
    rng = np.random.Generator(np.random.PCG64(seed))
    M = rng.standard_normal((dim, dim))
    H = M @ M.T / dim + 0.5 * np.eye(dim)
    b = rng.standard_normal(dim)
    inst = _quadratic_instance(H, b, partition, l1)
    if l1 == 0.0:
        problem = dataclasses.replace(inst.problem, reg=ZeroRegularizer())
        inst = dataclasses.replace(inst, problem=problem)
    return inst


def dual_objective(prob: ErmProblem, x: np.ndarray) -> float:
    """D(x); returns -inf when x leaves the conjugate domain."""
    xc = _dual_feasible(prob.loss.dual_box, x)
    if xc is None:
        return -math.inf
    return _dual_value(prob, prob.loss.conj_neg(xc), prob.matrix.dot(xc))


def primal_objective(prob: ErmProblem, w: np.ndarray) -> float:
    """P(w) from its own A' w."""
    w = np.asarray(w, dtype=float)
    return _primal_value(prob, w, prob.loss.phi(prob.matrix.tdot(w)))


def erm_aggregates(state: ErmDualState):
    """((A ubar, A v) as ``state`` maintains them, the same pair recomputed
    from scratch), for drift checks."""
    m = state.prob.matrix
    return ((state.pbar_base * state.scale, state.q.copy()),
            (m.dot(state.ubar_base * state.scale), m.dot(state.v)))


def primal_from_dual(prob: ErmProblem, x: np.ndarray) -> np.ndarray:
    """w = A x / (lam n), the gradient of the conjugate regularizer."""
    return prob.matrix.dot(np.asarray(x, dtype=float)) / (prob.lam * prob.n)


def grid_minimize(fun, lo: float, hi: float, rounds: int = 4, points: int = 2001) -> float:
    """Argmin of a scalar function by repeated grid refinement.

    Final resolution is (hi - lo) * (2 / points)^rounds; with the defaults
    and a unit-width bracket that is far below 1e-9.
    """
    for _ in range(rounds):
        xs = np.linspace(lo, hi, points)
        vals = np.array([fun(x) for x in xs])
        j = int(np.argmin(vals))
        width = (hi - lo) / (points - 1)
        lo, hi = xs[j] - width, xs[j] + width
    return float(0.5 * (lo + hi))


def grid_prox(psi, center: float, weight: float, lo: float, hi: float) -> float:
    """Prox oracle: argmin over [lo, hi] of weight/2 (s-center)^2 + psi(s)."""
    def objective(s):
        v = psi(s)
        if v == math.inf:
            return math.inf
        return 0.5 * weight * (s - center) ** 2 + v
    return grid_minimize(objective, lo, hi)


def bisect_prox(psi_slope, center: float, weight: float, lo: float, hi: float,
                iters: int = 200) -> float:
    """Prox oracle via bisection on the derivative weight*(s-center)+psi'(s).

    Requires psi differentiable on (lo, hi); the minimizer of the strongly
    convex prox objective is where the derivative crosses zero, clipped to
    the bracket.
    """
    def deriv(s):
        return weight * (s - center) + psi_slope(s)
    if deriv(lo) >= 0:
        return lo
    if deriv(hi) <= 0:
        return hi
    a, b = lo, hi
    for _ in range(iters):
        m = 0.5 * (a + b)
        if deriv(m) > 0:
            b = m
        else:
            a = m
    return 0.5 * (a + b)


def grid_conjugate(phi, b: float, lo: float = -50.0, hi: float = 50.0) -> float:
    """phi*(b) = max_z { z b - phi(z) } by grid refinement."""
    zstar = grid_minimize(lambda z: -(z * b - phi(z)), lo, hi)
    return zstar * b - phi(zstar)


def grid_conjugate_vec(phi_vec, b: float, lo: float = -50.0, hi: float = 50.0,
                       rounds: int = 4, points: int = 2001) -> float:
    """Same as :func:`grid_conjugate` for a numpy-vectorized phi."""
    for _ in range(rounds):
        zs = np.linspace(lo, hi, points)
        vals = zs * b - phi_vec(zs)
        j = int(np.argmax(vals))
        width = (hi - lo) / (points - 1)
        lo, hi = zs[j] - width, zs[j] + width
    z = 0.5 * (lo + hi)
    return float(z * b - phi_vec(np.array([z]))[0])


def grid_minimize_2d(fun, box: float = 3.0, points: int = 301, rounds: int = 4
                     ) -> np.ndarray:
    """Argmin of a 2-d function over [-box, box]^2 by grid refinement."""
    lox = loy = -box
    hix = hiy = box
    for _ in range(rounds):
        xs = np.linspace(lox, hix, points)
        ys = np.linspace(loy, hiy, points)
        best = (math.inf, 0.0, 0.0)
        for x in xs:
            for y in ys:
                v = fun(np.array([x, y]))
                if v < best[0]:
                    best = (v, x, y)
        wx = (hix - lox) / (points - 1)
        wy = (hiy - loy) / (points - 1)
        lox, hix = best[1] - wx, best[1] + wx
        loy, hiy = best[2] - wy, best[2] + wy
    return np.array([0.5 * (lox + hix), 0.5 * (loy + hiy)])


def sampled_block_lipschitz(smooth, partition, samples: int = 200, seed: int = 0,
                            inflate: float = 1.5) -> np.ndarray:
    """Conservative per-block Lipschitz estimates for a black-box gradient.

    Takes the largest finite-difference ratio
    ||grad_i f(x + U_i h) - grad_i f(x)|| / ||h|| over random probes and
    inflates it; intended for assembling test problems only, the solvers
    require exact constants from the problem constructor.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    out = np.zeros(partition.n)
    for i in range(partition.n):
        sl = partition.slice(i)
        size = partition.sizes[i]
        worst = 0.0
        for _ in range(samples):
            x = rng.standard_normal(partition.total) * rng.uniform(0.1, 10.0)
            h = rng.standard_normal(size) * rng.uniform(1e-3, 10.0)
            xh = x.copy()
            xh[sl] += h
            num = np.linalg.norm(smooth.partial_gradient(xh, i)
                                 - smooth.partial_gradient(x, i))
            worst = max(worst, num / np.linalg.norm(h))
        out[i] = inflate * worst
    return out


def ista_minimize(problem, lipschitz_full: float, iters: int) -> np.ndarray:
    """Plain proximal-gradient descent; the reference for optimal values.

    Returns iterate ``iters``.  The step is a fixed map, so once an iterate
    equals the one two steps back the iterates repeat with period 2 (or
    stand still); the loop stops there and returns the iterate of the
    same parity as ``iters``, bitwise what the remaining steps would give.
    """
    x = prev = np.zeros(problem.dim)
    step = 1.0 / lipschitz_full
    grad = problem.smooth.full_gradient
    prox = problem.reg.prox_full
    for k in range(1, iters + 1):
        x_new = prox(x - step * grad(x), lipschitz_full)
        if np.array_equal(x_new, prev):
            return x_new if (iters - k) % 2 == 0 else x
        x, prev = x_new, x
    return x


def dense_spectral_norm(A) -> float:
    return float(np.linalg.svd(to_dense(A), compute_uv=False)[0])


def spectral_norm(A) -> float:
    """Largest singular value of a SparseColMatrix by power iteration on A A^T.

    Stops when the Rayleigh quotient stabilizes to 1e-7 relative, or after
    20000 iterations; near-tied top singular values stall the iteration but
    then the estimate is within the tie gap of the true value anyway.
    """
    if A.nnz == 0:
        return 0.0
    rng = np.random.Generator(np.random.PCG64(0))
    w = rng.standard_normal(A.d)
    w /= np.linalg.norm(w)
    est = 0.0
    for it in range(20000):
        bw = A.dot(A.tdot(w))
        norm = np.linalg.norm(bw)
        if norm == 0.0:
            return 0.0
        new_est = float(w @ bw)
        w = bw / norm
        if it >= 10 and abs(new_est - est) <= 1e-6 * 0.1 * max(new_est, 1e-300):
            est = new_est
            break
        est = new_est
    return math.sqrt(est)


def momentum_accelerated_gradient(H: np.ndarray, b: np.ndarray, x0: np.ndarray,
                                  iters: int) -> list[np.ndarray]:
    """Deterministic accelerated gradient on 0.5 x'Hx - b'x.

    Constant-momentum recursion for strongly convex objectives:
    x+ = y - grad(y)/L and y+ = x+ + (1-sqrt(q))/(1+sqrt(q)) (x+ - x) with
    q = lmin/lmax, started at y = x0.  Returns the x iterates.
    """
    eigs = np.linalg.eigvalsh(H)
    lip, q = float(eigs[-1]), float(eigs[0] / eigs[-1])
    beta = (1.0 - math.sqrt(q)) / (1.0 + math.sqrt(q))
    x = np.array(x0, dtype=float)
    y = x.copy()
    out = [x.copy()]
    for _ in range(iters):
        x_new = y - (H @ y - b) / lip
        y = x_new + beta * (x_new - x)
        x = x_new
        out.append(x.copy())
    return out


def hinge_dual_optimum(prob: ErmProblem, tol: float = 1e-12
                       ) -> tuple[np.ndarray, float]:
    """Exact maximizer of the smoothed-hinge dual over the box [0, 1]^n.

    The dual is a concave quadratic; L-BFGS-B supplies the active set, then
    the free coordinates are solved exactly from the stationarity system and
    the KKT signs are verified, swapping coordinates between sets until the
    split stabilizes.
    """
    n = prob.n
    lam, gamma = prob.lam, prob.gamma
    G = to_dense(prob.matrix)
    gram = G.T @ G

    def neg_d(x):
        return -dual_objective(prob, x)

    def neg_d_grad(x):
        return -((prob.anchors - gamma * x) / n - gram @ x / (lam * n * n))

    res = scipy.optimize.minimize(neg_d, np.zeros(n), jac=neg_d_grad,
                                  bounds=[(0.0, 1.0)] * n, method="L-BFGS-B",
                                  options={"maxiter": 5000, "ftol": 1e-16,
                                           "gtol": 1e-12})
    x = np.asarray(res.x, dtype=float)
    at_lo = x < 1e-7
    at_hi = x > 1.0 - 1e-7
    for _ in range(60):
        x = np.where(at_lo, 0.0, np.where(at_hi, 1.0, x))
        free = ~(at_lo | at_hi)
        idx = np.flatnonzero(free)
        if idx.size:
            # stationarity on the free set: (gamma I + gram/(lam n)) x_F = rhs
            bound_term = gram[np.ix_(idx, np.flatnonzero(at_hi))] @ np.ones(int(at_hi.sum()))
            rhs = prob.anchors[idx] - bound_term / (lam * n)
            M = gamma * np.eye(idx.size) + gram[np.ix_(idx, idx)] / (lam * n)
            x[idx] = np.linalg.solve(M, rhs)
        grad = (prob.anchors - gamma * x) / n - gram @ x / (lam * n * n)
        new_lo = (x <= 0.0) & (grad < 0.0) | (x < 0.0)
        new_hi = (x >= 1.0) & (grad > 0.0) | (x > 1.0)
        interior_ok = np.all(np.abs(grad[free]) <= tol) if idx.size else True
        lo_ok = np.all(grad[at_lo] <= tol) if at_lo.any() else True
        hi_ok = np.all(grad[at_hi] >= -tol) if at_hi.any() else True
        bounds_ok = np.all(x[free] > 0.0) and np.all(x[free] < 1.0) if idx.size else True
        if interior_ok and lo_ok and hi_ok and bounds_ok and \
                np.array_equal(new_lo | at_lo, at_lo) and np.array_equal(new_hi | at_hi, at_hi):
            break
        at_lo = new_lo | (at_lo & (grad <= 0.0))
        at_hi = new_hi | (at_hi & (grad >= 0.0))
        at_lo &= ~at_hi
    x = np.clip(x, 0.0, 1.0)
    return x, dual_objective(prob, x)


def ridge_dual_optimum(prob: ErmProblem) -> tuple[np.ndarray, float]:
    """Exact maximizer of the (unconstrained) square-loss dual."""
    n = prob.n
    G = to_dense(prob.matrix)
    gram = G.T @ G
    M = prob.gamma * np.eye(n) + gram / (prob.lam * n)
    x = np.linalg.solve(M, prob.anchors)
    return x, dual_objective(prob, x)


class ValuedConjugatePenalty(ConjugatePenalty):
    """``apcg.erm.ConjugatePenalty`` with its value, which a generic
    composite problem's objective needs: +inf off the box."""

    def eval_full(self, x):
        xc = _dual_feasible(self.box, x)
        if xc is None:
            return math.inf
        return float(-self.anchors @ xc + 0.5 * self.gamma * (xc @ xc)) / self.n


def valued_dual_composite(prob: ErmProblem) -> CompositeProblem:
    """``apcg.erm.relocated_dual_composite`` with the penalty's value, so
    that ``solve`` can trace its objective -D."""
    return dataclasses.replace(
        relocated_dual_composite(prob),
        reg=ValuedConjugatePenalty(prob.anchors, 0.0, prob.n, prob.loss.dual_box))


class ApcgEfficientState:
    """State of the generic change-of-variables form for ``mu > 0``, of
    which ``apcg.erm.ErmDualState`` is the ERM specialization.

    Stores ``v`` and the stabilized ``ubar^{(k)} = rho^{k+1} u^{(k)}`` as
    ``scale * ubar_base`` (u grows like rho^{-k}).  Every iteration
    multiplies ``scale`` by rho, which scales all of ubar at once; a step
    writes only its block of ``ubar_base``, and ``scale`` is folded into
    ``ubar_base`` when it falls below 1e-120.  Reconstructions:

        x = ubar / rho + v,   y = ubar + v,   z = -ubar / rho + v.
    """

    def __init__(self, x0: np.ndarray, problem: CompositeProblem, mu: float, seed: int):
        if not (mu > 0.0):
            raise ConfigurationError("the change-of-variables form requires mu > 0")
        self.alpha, self.rho = change_of_variables_rates(mu, problem.n)
        self.ubar_base = np.zeros(problem.dim)
        self.scale = 1.0
        self.v = np.array(x0, dtype=float, copy=True)
        self.sampler = BlockSampler(problem.n, seed)

    def x_full(self) -> np.ndarray:
        return self.ubar_base * self.scale / self.rho + self.v

    def y_full(self) -> np.ndarray:
        return self.ubar_base * self.scale + self.v


def apcg_step_efficient(problem: CompositeProblem,
                        state: ApcgEfficientState) -> ApcgEfficientState:
    """One iteration touching a single block of (ubar, v), the form with
    ``x = rho^k u + v``, ``y = rho^{k+1} u + v``, ``z = -rho^k u + v``.

    The prox argument is ``Psi_i(-ubar_i + v_i + h)``; afterwards
    ``ubar_i <- rho (ubar_i - (1 - n a)/2 h)`` and
    ``v_i <- v_i + (1 + n a)/2 h`` while every other block of ubar scales by
    rho through the shared ``scale``.
    """
    n = problem.n
    alpha, rho = state.alpha, state.rho
    i = state.sampler.draw()
    sl = problem.partition.slice(i)

    t0 = -state.ubar_base[sl] * state.scale + state.v[sl]
    grad_i = problem.smooth.partial_gradient(state.y_full(), i)
    weight = n * alpha * float(problem.smooth.lipschitz[i])
    s = block_prox(problem.reg, i, t0 - grad_i / weight, weight)
    h = s - t0

    state.ubar_base[sl] -= 0.5 * (1.0 - n * alpha) * h / state.scale
    state.v[sl] += 0.5 * (1.0 + n * alpha) * h
    state.scale *= rho
    if state.scale < 1e-120:
        state.ubar_base *= state.scale
        state.scale = 1.0
    return state


def full_prox_step(prob: ErmProblem, x: np.ndarray) -> np.ndarray:
    """One proximal full-gradient step T(x) under the simple splitting.

    T(x) = argmin { <grad f(x), y> + theta/2 ||y - x||^2 + Psi(y) } with
    theta = ||A||_2^2 / (lam n^2); separable, so each coordinate solves a
    1-d quadratic: y_i = (theta x_i + a_i/n - grad_i) / (theta + gamma/n),
    projected onto the conjugate domain.
    """
    x = np.asarray(x, dtype=float)
    n = prob.n
    theta = spectral_norm(prob.matrix) ** 2 / (prob.lam * n * n)
    grad = prob.matrix.tdot(prob.matrix.dot(x)) / (prob.lam * n * n)
    y = (theta * x + prob.anchors / n - grad) / (theta + prob.gamma / n)
    box = prob.loss.dual_box
    return y if box is None else np.clip(y, box[0], box[1])


def full_prox_gap_bound(prob: ErmProblem, x: np.ndarray, dstar: float) -> float:
    """Bound on P(omega(T(x))) - D(T(x)): (4 ||A||^2 / (lam gamma n)) (D* - D(x))."""
    coef = 4.0 * spectral_norm(prob.matrix) ** 2 / (prob.lam * prob.gamma * prob.n)
    return coef * (dstar - dual_objective(prob, x))


def gap_by_dual_bound(prob: ErmProblem, x: np.ndarray, dstar: float) -> float:
    """Strongly convex losses only: gap at (omega(x), x) is bounded by
    (lam eta n + ||A||^2) / (lam gamma n) * (D* - D(x)), where eta = gamma
    for the square loss."""
    if not isinstance(prob.loss, SquareLoss):
        raise ConfigurationError(
            "gap_by_dual_bound needs a strongly convex loss (square loss)")
    eta = prob.loss.gamma
    coef = (prob.lam * eta * prob.n + spectral_norm(prob.matrix) ** 2) / (
        prob.lam * prob.gamma * prob.n)
    return coef * (dstar - dual_objective(prob, x))


def dot_left_to_right(val: np.ndarray, vec: np.ndarray) -> float:
    """val' vec in a plain loop, added left to right from 0.0 like the
    compiled epochs.  Kept apart from ``apcg.erm``'s own ordered dot, so
    that a fault in that one cannot certify itself."""
    total = 0.0
    for a, b in zip(val.tolist(), vec.tolist()):
        total += a * b
    return total


def apcg_erm_step_reference(prob: ErmProblem, state, i: int) -> bool:
    """One coordinate step of the ERM dual solver on index i, written plainly.

    The per-step form that both backends of ``ErmDualState.epoch`` must
    match bitwise.  Returns whether the prox solution was clipped to the
    dual box.
    """
    m = prob.matrix
    lo, hi = m.indptr[i], m.indptr[i + 1]
    idx = m.indices[lo:hi]
    val = m.values[lo:hi]

    ub_i = float(state.ubar_base[i]) * state.scale
    v_i = float(state.v[i])
    a_dot = (dot_left_to_right(val, state.pbar_base[idx]) * state.scale
             + dot_left_to_right(val, state.q[idx]))
    grad = a_dot * state.grad_scale + state.gamma_over_n * (ub_i + v_i)

    t0 = -ub_i + v_i
    s = t0 + (float(state.anchor_over_n[i]) - grad) / float(state.quad_weight[i])
    clipped = False
    if state.is_box:
        clipped = s < 0.0 or s > 1.0
        s = 0.0 if s < 0.0 else (1.0 if s > 1.0 else s)
    h = s - t0

    state.v[i] = v_i + state.half_plus * h
    if h != 0.0:
        dp = state.half_minus * h / state.scale
        state.ubar_base[i] -= dp
        state.pbar_base[idx] -= dp * val
        state.q[idx] += (state.half_plus * h) * val
    state.scale *= state.rho
    if state.scale < 1e-120:
        state.ubar_base *= state.scale
        state.pbar_base *= state.scale
        state.scale = 1.0
    state.k += 1
    return clipped


def rpcg_erm_step_reference(prob: ErmProblem, x: np.ndarray, ax: np.ndarray,
                            i: int) -> None:
    """One plain prox coordinate step on the relocated dual splitting, in
    place on (x, ax = A x); ``apcg.baselines.sdca_epoch`` computes the same
    update in SDCA's closed form."""
    m = prob.matrix
    n = prob.n
    L, _ = erm_constants(prob)
    idx, val = m.col(i)
    scale = 1.0 / (prob.lam * n * n)
    grad = dot_left_to_right(val, ax[idx]) * scale + (prob.gamma / n) * float(x[i])
    s = float(x[i]) + (float(prob.anchors[i]) / n - grad) / float(L[i])
    if prob.loss.dual_box is not None:
        s = min(max(s, prob.loss.dual_box[0]), prob.loss.dual_box[1])
    delta = s - float(x[i])
    if delta != 0.0:
        x[i] = s
        ax[idx] += delta * val


def sdca_coordinate_update(prob: ErmProblem, x_i: float, margin: float, i: int) -> float:
    """Closed-form maximizer of D over coordinate i given A_i' w = margin;
    the per-step form of ``apcg.baselines.sdca_epoch``."""
    q_i = float(prob.col_norms_sq[i]) / (prob.lam * prob.n)
    s = (float(prob.anchors[i]) - margin + x_i * q_i) / (prob.gamma + q_i)
    if prob.loss.dual_box is not None:
        s = min(max(s, prob.loss.dual_box[0]), prob.loss.dual_box[1])
    return s


def rpcg_step(problem, x: np.ndarray, sampler: BlockSampler) -> np.ndarray:
    """One plain proximal coordinate step (no momentum) of generic RPCG, in
    place on x: block i moves to
    argmin_s { L_i/2 ||s - x_i||^2 + <grad_i f(x), s> + Psi_i(s) }."""
    i = sampler.draw()
    sl = problem.partition.slice(i)
    weight = float(problem.smooth.lipschitz[i])
    grad_i = problem.smooth.partial_gradient(x, i)
    x[sl] = block_prox(problem.reg, i, x[sl] - grad_i / weight, weight)
    return x


def rpcg_solve(problem, max_iters: int, seed: int = 0):
    """Generic RPCG from zero; returns (x, [(k, F(x_k))]) traced every n steps."""
    x = np.zeros(problem.dim)
    sampler = BlockSampler(problem.n, seed)
    trace = [(0, problem.objective(x))]
    for k in range(1, max_iters + 1):
        rpcg_step(problem, x, sampler)
        if k % problem.n == 0 or k == max_iters:
            trace.append((k, problem.objective(x)))
    return x, trace


def serial_run_epochs(prob: ErmProblem, epoch, x, epochs: int,
                      tol: float | None = None, *, ax) -> ErmRunResult:
    """The reference of ``erm.run_epochs``: each row is made by
    ``PrimalDualReport.evaluate`` (the stopping and last rows at the clipped
    point and its fresh A x) before the next epoch runs.  Every row, ``x``,
    ``w`` and count of ``run_epochs`` must equal this one's bitwise, wall
    times aside."""
    def row(done: int, elapsed: float):
        """The report after ``done`` epochs, and its fresh A x (None when
        the maintained one served)."""
        point = x()
        if done < epochs:
            rep = PrimalDualReport.evaluate(prob, point, epoch=done,
                                            wall_time_s=elapsed, ax=ax())
            if tol is None or not rep.gap <= tol:
                return rep, None
        xc = _dual_feasible(prob.loss.dual_box, point)
        if xc is None:
            raise ValueError("dual point outside the conjugate domain")
        fresh = prob.matrix.dot(xc)
        return PrimalDualReport.evaluate(prob, xc, epoch=done, wall_time_s=elapsed,
                                         ax=fresh), fresh

    rep, fresh = row(0, 0.0)
    reports = [rep]
    elapsed = 0.0
    done = 0
    while done < epochs and not (tol is not None and rep.gap <= tol):
        t0 = time.perf_counter()
        epoch()
        elapsed += time.perf_counter() - t0
        done += 1
        rep, fresh = row(done, elapsed)
        reports.append(rep)
    reached = done if (tol is not None and rep.gap <= tol) else None
    return ErmRunResult(x=x(), w=fresh / (prob.lam * prob.n), reports=reports,
                        epochs_run=done, epochs_to_tol=reached)


def dual_subgradient(prob: ErmProblem, x: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, float]:
    """(a, w, ||D'(x)||^2) with a_i in the conjugate subdifferential at -x_i,
    computed on its own; ``PrimalDualReport.evaluate`` must match it.

    In the interior of the domain a_i = anchor_i - gamma x_i; on a box edge
    the margin A_i' w is projected onto the half-line subdifferential.
    Raises ValueError outside the domain (beyond the rounding slack).
    """
    x = np.asarray(x, dtype=float)
    box = prob.loss.dual_box
    if box is not None:
        if np.any(x < box[0] - DUAL_DOMAIN_ATOL) or np.any(x > box[1] + DUAL_DOMAIN_ATOL):
            raise ValueError("dual point outside the conjugate domain")
        x = np.clip(x, box[0], box[1])
    w = primal_from_dual(prob, x)
    margins = prob.matrix.tdot(w)
    a = prob.anchors - prob.gamma * x
    if box is not None:
        a = np.where(x == box[0], np.maximum(a, margins), a)
        a = np.where(x == box[1], np.minimum(a, margins), a)
    diffs = margins - a
    return a, w, float(diffs @ diffs) / (prob.n * prob.n)


def _block_prox_update(problem, y, center, i, weight):
    """Block-i minimizer of weight/2 ||s - c_i||^2 + <grad_i f(y), s> + Psi_i(s)."""
    sl = problem.partition.slice(i)
    grad_i = problem.smooth.partial_gradient(y, i)
    return block_prox(problem.reg, i, center[sl] - grad_i / weight, weight)


def apcg_step_sc_reference(problem, state, alpha: float):
    """One APCG step of the paper's constant-coefficient form, ``alpha = sqrt(mu)/n``.

    ``y = (x + alpha z) / (1 + alpha)``, block prox with weight ``n alpha L_i``
    centered at ``(1-alpha) z + alpha y``, then
    ``x+ = y + n alpha (z+ - z) + n alpha^2 (z - y)`` on the chosen block.
    ``apcg.solvers.apcg_step_general`` on ``ApcgSchedule(n, mu, mu)`` must
    match it.
    """
    n = problem.n
    x, z = state.x, state.z
    y = (x + alpha * z) / (1.0 + alpha)
    i = state.sampler.draw()
    center = (1.0 - alpha) * z + alpha * y
    weight = n * alpha * float(problem.smooth.lipschitz[i])
    s = _block_prox_update(problem, y, center, i, weight)

    sl = problem.partition.slice(i)
    z_i_old = z[sl].copy()
    z_new = center
    z_new[sl] = s
    x_new = y.copy()
    x_new[sl] = y[sl] + n * alpha * (s - z_i_old) + n * alpha * alpha * (z_i_old - y[sl])

    state.x, state.z, state.y, state.k = x_new, z_new, y, state.k + 1
    return state


def apcg_step_nsc_reference(problem, state, alpha_prev: float):
    """One APCG step of the paper's mu = 0 form; returns (state, alpha_k).

    ``alpha_k = (sqrt(a^4 + 4 a^2) - a^2) / 2`` with ``a = alpha_prev``,
    ``y = (1-alpha_k) x + alpha_k z``; only the chosen block of z moves (prox
    centered at z_i), and ``x+ = y + n alpha_k (z+ - z)``.
    ``apcg.solvers.apcg_step_general`` on
    ``ApcgSchedule(n, 0, (n alpha_{-1})^2)`` must match it.
    """
    n = problem.n
    a2 = alpha_prev * alpha_prev
    alpha = 0.5 * (math.sqrt(a2 * a2 + 4.0 * a2) - a2)
    x, z = state.x, state.z
    y = (1.0 - alpha) * x + alpha * z
    i = state.sampler.draw()
    weight = n * alpha * float(problem.smooth.lipschitz[i])
    s = _block_prox_update(problem, y, z, i, weight)

    sl = problem.partition.slice(i)
    z_i_old = z[sl].copy()
    z_new = z.copy()
    z_new[sl] = s
    x_new = y.copy()
    x_new[sl] = y[sl] + n * alpha * (s - z_i_old)

    state.x, state.z, state.y, state.k = x_new, z_new, y, state.k + 1
    return state, alpha


def apcg_step_general_reference(problem, state, history):
    """``apcg.solvers.apcg_step_general`` reading its coefficients from the
    schedule lists ``history = (alphas, gammas, betas, mu)`` at ``state.k``,
    as the stepper did while the schedule kept its history."""
    alphas, gammas, betas, mu = history
    k = state.k
    alpha, gamma_k, gamma_next, beta = alphas[k], gammas[k], gammas[k + 1], betas[k]
    n = problem.n

    x, z = state.x, state.z
    y = (alpha * gamma_k * z + gamma_next * x) / (alpha * gamma_k + gamma_next)
    i = state.sampler.draw()
    center = (1.0 - beta) * z + beta * y if beta != 0.0 else z.copy()
    weight = n * alpha * float(problem.smooth.lipschitz[i])
    s = _block_prox_update(problem, y, center, i, weight)

    sl = problem.partition.slice(i)
    z_i_old = z[sl].copy()
    z_new = center
    z_new[sl] = s
    x_new = y.copy()
    x_new[sl] = y[sl] + n * alpha * (s - z_i_old) + (mu / n) * (z_i_old - y[sl])

    state.x, state.z, state.y, state.k = x_new, z_new, y, k + 1
    return state


def check_schedule_reference() -> CheckResult:
    """The per-step form of ``apcg.cli._check_schedule``: every step is
    checked as it is taken, and ``rate_bound`` is called once per k."""
    worst = 0.0
    steps = 10_000
    for n in (1, 2, 10, 1000):
        for mu in (0.0, 1e-6, 0.01, 1.0):
            for gamma0 in (max(mu, 0.1), 1.0):
                sched = schedule.ApcgSchedule(n, mu, gamma0)
                lo = math.sqrt(mu) / n
                lambdas = [sched.lam]
                for k in range(steps):
                    alpha, gamma_next, _ = sched.step()
                    lambdas.append(sched.lam)
                    if not (lo - 1e-15 <= alpha <= 1.0 / n + 1e-15):
                        return CheckResult("schedule", False,
                                           f"alpha escaped bounds at n={n} mu={mu} k={k}")
                    resid = abs(gamma_next - (n * alpha) ** 2) / max(gamma_next, 1e-300)
                    worst = max(worst, resid)
                    if resid > 1e-12:
                        return CheckResult("schedule", False,
                                           f"gamma != (n alpha)^2 at n={n} mu={mu} k={k}: {resid:.2e}")
                lam = np.asarray(lambdas)
                bound = np.array([sched.rate_bound(k) for k in range(steps + 1)])
                if np.any(lam > bound * (1.0 + 1e-12) + 1e-300):
                    return CheckResult("schedule", False,
                                       f"lambda_k exceeded its bound at n={n} mu={mu}")
    return CheckResult("schedule", True, f"worst |gamma-(n a)^2| rel err {worst:.2e}")


def theta_coefficients_reference(sched, k: int) -> np.ndarray:
    """theta^{(k)} from its own replay of ``history(k)`` and its own k-step
    recursion: ``apcg.schedule.theta_rows`` computed one row at a time."""
    if k < 0:
        raise ValueError("iteration index must be nonnegative")
    alphas, gammas, _, _ = (h.tolist() for h in sched.history(k))
    n, mu = sched.n, sched.mu
    theta = np.array([1.0])
    for j in range(k):
        a_j = alphas[j]
        if j == 0:
            theta = np.array([1.0 - n * a_j, n * a_j])
            continue
        a_prev = alphas[j - 1]
        g_j = gammas[j]
        g_next = gammas[j + 1]
        denom = a_j * g_j + g_next
        scale = (1.0 - mu / n) * g_next / denom
        mid = ((1.0 - mu / n) * (a_j * g_j + n * a_prev * g_next) / denom
               - (1.0 - a_j) * g_j / (n * a_j))
        theta = np.concatenate([scale * theta[:-1], [mid, n * a_j]])
    return theta


def combination_errors_reference() -> tuple[list[float], list[float]]:
    """The quadratic form of ``apcg.cli._combination_errors``: every step
    recomputes theta^{(k)} and Psi of every earlier iterate."""
    inst = diag_dominant_quadratic(8, seed=3, l1=0.05)
    problem = inst.problem
    sched = schedule.ApcgSchedule(problem.n, problem.smooth.mu, 1.0)
    state = ApcgExplicitState.start(np.zeros(problem.dim), seed=11, n_blocks=problem.n)
    zs = [state.z.copy()]
    comb_errs, psi_slacks = [], []
    for k in range(1, 121):
        apcg_step_general(problem, state, sched)
        zs.append(state.z.copy())
        theta = theta_coefficients_reference(sched, k)
        combo = sum(t * z for t, z in zip(theta, zs))
        comb_errs.append(float(np.max(np.abs(combo - state.x))))
        psi_hat = sum(t * problem.reg.eval_full(z) for t, z in zip(theta, zs))
        psi_slacks.append(problem.reg.eval_full(state.x) - psi_hat)
    return comb_errs, psi_slacks


def check_combination_reference() -> CheckResult:
    """``apcg.cli._check_combination_and_psihat`` on
    :func:`combination_errors_reference`."""
    comb_errs, psi_slacks = combination_errors_reference()
    worst_comb, worst_psi = max([0.0] + comb_errs), max([-math.inf] + psi_slacks)
    if worst_comb > 1e-8:
        return CheckResult("combination", False, f"x != sum theta z by {worst_comb:.2e}")
    if worst_psi > 1e-10:
        return CheckResult("combination", False, f"Psi(x) exceeded Psi-hat by {worst_psi:.2e}")
    return CheckResult("combination", True,
                       f"max combo err {worst_comb:.2e}, max Psi slack {worst_psi:.2e}")


def check_envelope_reference() -> CheckResult:
    """``apcg.cli._check_envelope`` with its 20 seeded runs as 20 separate
    ``solve`` calls instead of one stacked solve."""
    inst = diag_dominant_quadratic(20, seed=1, l1=0.1)
    problem = inst.problem
    x = prev = np.zeros(problem.dim)
    step = 1.0 / inst.lipschitz_full
    for _ in range(300_000):
        x_new = problem.reg.prox_full(x - step * problem.smooth.full_gradient(x),
                                      1.0 / step)
        if np.array_equal(x_new, x) or np.array_equal(x_new, prev):
            break
        x, prev = x_new, x
    fstar = problem.objective(x)
    gamma0 = 1.0
    r0 = problem.weighted_norm(-x)
    f0 = problem.objective(np.zeros(problem.dim))
    budget = f0 - fstar + 0.5 * gamma0 * r0 * r0
    epochs = 30
    traces = []
    for seed in range(20):
        run = solve(problem, schedule.ApcgSchedule(problem.n, problem.smooth.mu, gamma0),
                    max_iters=epochs * problem.n, seed=seed)
        traces.append([f for _, f in run.trace])
    mean_gap = np.mean(traces, axis=0) - fstar
    sched = schedule.ApcgSchedule(problem.n, problem.smooth.mu, gamma0)
    floor = 1e-12 * max(1.0, abs(fstar))
    bounds = sched.rate_bound(problem.n * np.arange(mean_gap.size)) * budget
    resolved = bounds >= floor
    ratio = float(np.max(mean_gap[resolved] / bounds[resolved], initial=0.0))
    return CheckResult("envelope", ratio <= 1.2, f"max (F-F*)/bound = {ratio:.3f}")
