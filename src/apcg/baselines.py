"""Comparison solvers: stochastic dual coordinate ascent (SDCA) and
accelerated full gradient (AFG) with backtracking line search.

Cost accounting convention used by the benchmark harness: SDCA, randomized
proximal coordinate gradient (RPCG) and the accelerated dual coordinate
solver all do n coordinate steps per epoch; one AFG iteration touches the
full vector and is charged one epoch.  On the ERM dual's relocated
splitting, RPCG's prox step with weight L_i is SDCA's exact coordinate
maximizer, so :func:`sdca_epoch` serves both there.  AFG runs the simple
splitting, which keeps the conjugates whole in the separable part.  Both
take the :class:`~apcg.erm.ErmProblem` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import native
from .erm import ConjugatePenalty, ErmProblem
from .errors import ConfigurationError, StepSizeError
from .solvers import BlockSampler

# AFG line search: shrink a rejected step by BACKTRACK, at most MAX_BACKTRACKS
# times per iteration, and try the accepted step times EXPAND next
BACKTRACK = 0.5
EXPAND = 2.0
MAX_BACKTRACKS = 100

# ---------------------------------------------------------------------------
# SDCA on the dual ERM problem
# ---------------------------------------------------------------------------

def sdca_epoch(prob: ErmProblem, x: np.ndarray, w_agg: np.ndarray,
               sampler: BlockSampler) -> tuple[np.ndarray, np.ndarray]:
    """n random coordinate steps of exact dual coordinate ascent, in place.

    ``w_agg`` must equal A x / (lam n) on entry and is kept consistent by
    rank-one column updates.  Each step maximizes D over one coordinate
    exactly (a 1-d quadratic, clipped to the conjugate domain), so the dual
    objective never decreases.  The steps run in the compiled kernel when it
    loads; the Python loop below, inlined over locals like the accelerated
    kernel ``erm.apcg_erm_steps``, is its reference and agrees to rounding.
    The compiled kernel's arrays, ``x``, ``w_agg`` and the problem's
    ``col_norms_sq`` and ``anchors``, are validated on every call; an
    invalid one raises ValueError before the epoch draws its indices.
    """
    n = prob.n
    m = prob.matrix
    lam_n = prob.lam * n
    gamma = prob.gamma
    is_box = prob.loss.dual_box is not None
    lib = native.library()
    if lib is not None:
        arrays = _sdca_arrays(prob, x, w_agg)
        blocks = native.block_indices(sampler.take(n), n)
        lib.sdca_epoch(*m.addresses, blocks.ctypes.data, blocks.size, *arrays,
                       lam_n, gamma, is_box)
        return x, w_agg
    blocks = native.block_indices(sampler.take(n), n)
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


def _sdca_arrays(prob: ErmProblem, x, w_agg) -> tuple:
    """The array arguments of the compiled ``sdca_epoch``, validated."""
    n, d, addr = prob.n, prob.d, native.address
    return (addr(x, np.float64, n, "x", writable=True),
            addr(w_agg, np.float64, d, "w_agg", writable=True),
            addr(prob.col_norms_sq, np.float64, n, "col_norms_sq"),
            addr(prob.anchors, np.float64, n, "anchors"))


# ---------------------------------------------------------------------------
# AFG (accelerated proximal full gradient with backtracking)
# ---------------------------------------------------------------------------

@dataclass
class AfgState:
    """AFG iterates x and y, with their images ax = A x and ay = A y."""

    x: np.ndarray
    y: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    t: float
    step: float
    k: int
    backtracks: int = 0


def afg_start(prob: ErmProblem) -> AfgState:
    """AFG at x = 0, with the inverse of a crude global Lipschitz estimate,
    the sum of the coordinate constants ||A_i||^2 / (lam n^2), as its first
    step.  f does not depend on the coordinate of an empty column, so any
    positive constant bounds it there: the largest nonzero one, or 1 when
    A = 0.  Raises ConfigurationError when the sum overflows."""
    n = prob.n
    L = prob.col_norms_sq * (1.0 / (prob.lam * n * n))
    top = float(L.max())
    L = np.where(L > 0.0, L, top if top > 0.0 else 1.0)
    with np.errstate(over="ignore"):  # reported below
        total = float(np.sum(L))
    if not math.isfinite(total):
        raise ConfigurationError(
            "the sum of the coordinate constants ||A_i||^2/(lam n^2) overflows, so "
            "AFG has no first step at this lambda; rescale the data or change lambda")
    x0 = np.zeros(n)
    ax0 = prob.matrix.dot(x0)
    return AfgState(x=x0, y=x0.copy(), ax=ax0, ay=ax0.copy(), t=1.0,
                    step=1.0 / total, k=0)


def afg_step(prob: ErmProblem, state: AfgState) -> AfgState:
    """One accelerated proximal gradient iteration with line search on the
    simple splitting of -D: f(x) = ||A x||^2 / (2 lam n^2), and Psi keeps
    the conjugates whole (``erm.ConjugatePenalty`` with the loss's gamma).

    Backtracks on the smooth-part upper bound
    f(x+) <= f(y) + <grad f(y), x+ - y> + ||x+ - y||^2 / (2 step)
    shrinking the step by BACKTRACK on failure; the accepted step is
    expanded by EXPAND for the next iteration.

    f and grad f = A' A y / (lam n^2) are read from the carried image
    ay = A y, so an iteration applies A once per trial (to the trial point)
    and A' once.  The accepted trial's fresh A x+ gives the next image,
    A y+ = A x+ + momentum (A x+ - A x), so no error accumulates.
    """
    n, A = prob.n, prob.matrix
    scale = 1.0 / (prob.lam * n * n)
    reg = ConjugatePenalty(prob.anchors, prob.gamma, n, prob.loss.dual_box)
    y = state.y
    fy = 0.5 * scale * float(state.ay @ state.ay)
    gy = A.tdot(state.ay) * scale
    step = state.step
    for _ in range(MAX_BACKTRACKS):
        x_new = reg.prox_full(y - step * gy, 1.0 / step)
        diff = x_new - y
        with np.errstate(over="ignore"):  # oversized trial steps may overflow
            quad = fy + float(gy @ diff) + float(diff @ diff) / (2.0 * step)
            ax_new = A.dot(x_new)
            f_new = 0.5 * scale * float(ax_new @ ax_new)
        if math.isfinite(f_new) and math.isfinite(quad) \
                and f_new <= quad + 1e-12 * max(1.0, abs(quad)):
            break
        step *= BACKTRACK
        state.backtracks += 1
    else:
        raise StepSizeError(f"no acceptable step after {MAX_BACKTRACKS} backtracks")

    t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * state.t * state.t))
    momentum = (state.t - 1.0) / t_next
    state.y = x_new + momentum * (x_new - state.x)
    state.ay = ax_new + momentum * (ax_new - state.ax)
    state.x, state.ax = x_new, ax_new
    state.t = t_next
    state.step = step * EXPAND
    state.k += 1
    return state
