"""Comparison solvers: plain randomized proximal coordinate gradient (RPCG),
stochastic dual coordinate ascent (SDCA), and accelerated full gradient (AFG)
with backtracking line search.

Cost accounting convention used by the benchmark harness: RPCG, SDCA and the
accelerated dual coordinate solver all do n coordinate steps per epoch; one
AFG iteration touches the full vector and is charged one epoch.  On the ERM
dual, RPCG's prox step with weight L_i is SDCA's exact coordinate maximizer,
so :func:`sdca_epoch` serves both there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import native
from .core import CompositeProblem, block_prox
from .erm import ErmProblem
from .errors import StepSizeError
from .solvers import BlockSampler


# ---------------------------------------------------------------------------
# RPCG on a generic composite problem
# ---------------------------------------------------------------------------

def rpcg_step(problem: CompositeProblem, x: np.ndarray, sampler: BlockSampler,
              forced_block: int | None = None) -> np.ndarray:
    """One plain proximal coordinate step (no momentum), in place on x.

    Block i moves to argmin_s { L_i/2 ||s - x_i||^2 + <grad_i f(x), s> + Psi_i(s) }.
    """
    i = sampler.draw() if forced_block is None else int(forced_block)
    sl = problem.partition.slice(i)
    weight = float(problem.smooth.lipschitz[i])
    grad_i = problem.smooth.partial_gradient(x, i)
    x[sl] = block_prox(problem.reg, i, x[sl] - grad_i / weight, weight)
    return x


def rpcg_solve(problem: CompositeProblem, max_iters: int, seed: int = 0,
               x0: np.ndarray | None = None, trace_every: int | None = None):
    """Driver mirroring the accelerated solver's trace format."""
    x = np.zeros(problem.dim) if x0 is None else np.array(x0, dtype=float, copy=True)
    sampler = BlockSampler(problem.n, seed)
    if trace_every is None:
        trace_every = problem.n
    trace = [(0, problem.objective(x))]
    for k in range(1, max_iters + 1):
        rpcg_step(problem, x, sampler)
        if k % trace_every == 0 or k == max_iters:
            trace.append((k, problem.objective(x)))
    return x, trace


# ---------------------------------------------------------------------------
# SDCA on the dual ERM problem
# ---------------------------------------------------------------------------

def sdca_epoch(prob: ErmProblem, x: np.ndarray, w_agg: np.ndarray,
               sampler: BlockSampler) -> tuple[np.ndarray, np.ndarray]:
    """n random coordinate steps of exact dual coordinate ascent, in place.

    ``w_agg`` must equal A x / (lam n) on entry and is kept consistent by
    rank-one column updates.  Each step maximizes D over one coordinate
    exactly (a 1-d quadratic, clipped to the conjugate domain), so the dual
    objective never decreases.  Every step is :func:`sdca_coordinate_update`
    at margin A_i' w_agg.  The steps run in the compiled kernel when it
    loads; the Python loop below, inlined over locals like the accelerated
    kernel ``erm.apcg_erm_steps``, is its reference and agrees to rounding.
    """
    n, d = prob.n, prob.d
    blocks = native.block_indices(sampler.take(n), n)
    m = prob.matrix
    lam_n = prob.lam * n
    gamma = prob.gamma
    is_box = prob.loss.dual_box is not None
    lib = native.library()
    if lib is not None:
        addr = native.address
        lib.sdca_epoch(m.indptr.ctypes.data, m.indices.ctypes.data, m.values.ctypes.data,
                       blocks.ctypes.data, blocks.size,
                       addr(x, np.float64, n, "x", writable=True),
                       addr(w_agg, np.float64, d, "w_agg", writable=True),
                       addr(prob.col_norms_sq, np.float64, n, "col_norms_sq"),
                       addr(prob.anchors, np.float64, n, "anchors"), lam_n, gamma, is_box)
        return x, w_agg
    indices, values, bound_at = m.indices, m.values, m.indptr.item
    col_norms_sq_at, anchor_at, x_at = prob.col_norms_sq.item, prob.anchors.item, x.item
    for i in blocks.tolist():
        lo, hi = bound_at(i), bound_at(i + 1)
        idx = indices[lo:hi]
        val = values[lo:hi]
        w_idx = w_agg[idx]
        q_i = col_norms_sq_at(i) / lam_n
        margin = float(val.dot(w_idx))
        x_i = x_at(i)
        s = (anchor_at(i) - margin + x_i * q_i) / (gamma + q_i)
        if is_box:
            s = 0.0 if s < 0.0 else (1.0 if s > 1.0 else s)
        delta = s - x_i
        if delta != 0.0:
            x[i] = s
            w_agg[idx] = w_idx + (delta / lam_n) * val
    return x, w_agg


def sdca_coordinate_update(prob: ErmProblem, x_i: float, margin: float, i: int) -> float:
    """Closed-form maximizer of D over coordinate i given A_i' w = margin."""
    q_i = float(prob.col_norms_sq[i]) / (prob.lam * prob.n)
    s = (float(prob.anchors[i]) - margin + x_i * q_i) / (prob.gamma + q_i)
    if prob.loss.dual_box is not None:
        s = min(max(s, prob.loss.dual_box[0]), prob.loss.dual_box[1])
    return s


# ---------------------------------------------------------------------------
# AFG (accelerated proximal full gradient with backtracking)
# ---------------------------------------------------------------------------

@dataclass
class AfgState:
    x: np.ndarray
    y: np.ndarray
    t: float
    step: float
    k: int
    backtracks: int = 0


def afg_start(problem: CompositeProblem, x0: np.ndarray | None = None,
              initial_step: float | None = None) -> AfgState:
    x0 = np.zeros(problem.dim) if x0 is None else np.array(x0, dtype=float, copy=True)
    if initial_step is None:
        # crude global Lipschitz estimate: sum of the block constants
        initial_step = 1.0 / float(np.sum(problem.smooth.lipschitz))
    return AfgState(x=x0, y=x0.copy(), t=1.0, step=float(initial_step), k=0)


def afg_step(problem: CompositeProblem, state: AfgState,
             backtrack: float = 0.5, expand: float = 2.0,
             max_backtracks: int = 100) -> AfgState:
    """One accelerated proximal gradient iteration with line search.

    Backtracks on the smooth-part upper bound
    f(x+) <= f(y) + <grad f(y), x+ - y> + ||x+ - y||^2 / (2 step)
    shrinking the step by ``backtrack`` on failure; the accepted step is
    expanded by ``expand`` for the next iteration.
    """
    y = state.y
    fy = float(problem.smooth.value(y))
    gy = problem.smooth.full_gradient(y)
    step = state.step
    for _ in range(max_backtracks):
        x_new = problem.reg.prox_full(y - step * gy, 1.0 / step, problem.partition)
        diff = x_new - y
        with np.errstate(over="ignore"):  # oversized trial steps may overflow
            quad = fy + float(gy @ diff) + float(diff @ diff) / (2.0 * step)
            f_new = float(problem.smooth.value(x_new))
        if math.isfinite(f_new) and math.isfinite(quad) \
                and f_new <= quad + 1e-12 * max(1.0, abs(quad)):
            break
        step *= backtrack
        state.backtracks += 1
    else:
        raise StepSizeError(f"no acceptable step after {max_backtracks} backtracks")

    t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * state.t * state.t))
    momentum = (state.t - 1.0) / t_next
    state.y = x_new + momentum * (x_new - state.x)
    state.x = x_new
    state.t = t_next
    state.step = step * expand
    state.k += 1
    return state


def afg_solve(problem: CompositeProblem, max_iters: int,
              x0: np.ndarray | None = None, initial_step: float | None = None,
              backtrack: float = 0.5, expand: float = 2.0, trace_every: int = 1):
    state = afg_start(problem, x0=x0, initial_step=initial_step)
    trace = [(0, problem.objective(state.x))]
    for k in range(1, max_iters + 1):
        afg_step(problem, state, backtrack=backtrack, expand=expand)
        if k % trace_every == 0 or k == max_iters:
            trace.append((k, problem.objective(state.x)))
    return state.x, trace
