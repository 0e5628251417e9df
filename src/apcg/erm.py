"""Regularized ERM: dual formulation, losses, specialized solver, gap reports.

The primal problem over weights w is

    P(w) = (1/n) sum_i phi_i(A_i' w) + (lam/2) ||w||^2,

with one column A_i per example.  Its dual over x in R^n is

    D(x) = (1/n) sum_i -phi*_i(-x_i) - ||A x||^2 / (2 lam n^2),

and the solvers minimize F = -D as a composite problem.  The coordinate
solver runs on the paper's relocated splitting of F, which moves the
conjugates' gamma-strong convexity into the smooth part,

    f(x)   = ||A x||^2 / (2 lam n^2) + (gamma / 2n) ||x||^2,
    Psi_i  = (1/n) (phi*_i(-x_i) - (gamma/2) x_i^2),

so that f is strongly convex and the accelerated coordinate solver attains
its linear rate.  The coordinate-wise constants are
``L_i = ||A_i||^2/(lam n^2) + gamma/n`` and
``mu = (gamma/n) / max_i L_i >= lam gamma n / (R^2 + lam gamma n)``.
:func:`relocated_dual_composite` is this splitting as a generic composite
problem.  The full-gradient baseline (``baselines.afg_step``) runs the
simple splitting instead, which keeps the conjugates whole in the separable
part, :class:`ConjugatePenalty`.

:class:`ErmDualState` and :func:`apcg_erm_steps` implement the relocated
iteration in the paper's change-of-variables form, ``x = rho^k u + v``,
``y = rho^{k+1} u + v``, ``z = -rho^k u + v``, which touches one coordinate
of (u, v) per step.  They maintain p = A u and q = A v alongside (u, v), so
each step costs O(nnz(A_i)): one column is read twice for the gradient and
updated twice for the aggregates.  u and p grow like rho^{-k}, so they are
stored in the stabilized form ubar = rho^{k+1} u, pbar = rho^{k+1} p, as
ubar = scale * ubar_base and pbar = scale * pbar_base under one shared
scalar, which each step multiplies by rho and which is folded into both
base vectors long before it can underflow.
:meth:`ErmDualState.epoch` runs the compiled form of the same loop
(``_kernels.c``, loaded by :mod:`apcg.native`) when it is available.
:func:`run_epochs`, the epoch driver of every solver, makes a run's
reports through one :class:`_ReportPass`, whose buffers and compiled call
are made once per run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import native
from .core import BlockPartition, CompositeProblem, SeparableRegularizer, SmoothOracle
from .data import SparseColMatrix
from .errors import ConfigurationError
from .solvers import BlockSampler

DUAL_DOMAIN_ATOL = 1e-9  # rounding slack when testing box membership


class SmoothedHingeLoss:
    """Piecewise-quadratic hinge, smoothness knob gamma; labels live in A.

    phi(a) = 0 for a >= 1, 1 - a - gamma/2 for a <= 1 - gamma, and
    (1 - a)^2 / (2 gamma) in between.  The conjugate is
    phi*(b) = b + (gamma/2) b^2 on [-1, 0] and +inf elsewhere, so the dual
    variables are confined to the box [0, 1].
    """

    dual_box = (0.0, 1.0)

    def __init__(self, gamma: float = 1.0):
        if not 0.0 < gamma < math.inf:
            raise ValueError("gamma must be positive and finite")
        self.gamma = float(gamma)

    def anchors(self, n: int) -> np.ndarray:
        return np.ones(n)

    def phi(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        g = self.gamma
        return np.where(a >= 1.0, 0.0,
                        np.where(a <= 1.0 - g, 1.0 - a - g / 2.0,
                                 (1.0 - a) ** 2 / (2.0 * g)))

    def conj_neg(self, x: np.ndarray) -> np.ndarray:
        """phi*(-x_i) for dual-feasible x (caller handles the domain)."""
        x = np.asarray(x, dtype=float)
        return -x + 0.5 * self.gamma * x * x


class SquareLoss:
    """phi_i(a) = (a - b_i)^2 / (2 gamma): 1/gamma-smooth, 1/gamma-strongly convex.

    The conjugate phi*_i(u) = b_i u + (gamma/2) u^2 is finite everywhere, so
    the dual is unconstrained.  This is ridge regression when gamma = 1.
    The loss keeps a read-only copy of the targets, so a later write to the
    caller's array leaves the problem as it was built.
    """

    dual_box = None

    def __init__(self, targets: np.ndarray, gamma: float = 1.0):
        if not 0.0 < gamma < math.inf:
            raise ValueError("gamma must be positive and finite")
        self.gamma = float(gamma)
        self.targets = np.array(targets, dtype=float)
        self.targets.flags.writeable = False
        if not np.all(np.isfinite(self.targets)):
            raise ValueError("targets must be finite")

    def anchors(self, n: int) -> np.ndarray:
        if self.targets.shape != (n,):
            raise ValueError(f"need {n} targets, have {self.targets.shape}")
        return self.targets

    def phi(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        return (a - self.targets) ** 2 / (2.0 * self.gamma)

    def conj_neg(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return -self.targets * x + 0.5 * self.gamma * x * x


@dataclass(eq=False)
class ErmProblem:
    """Data matrix plus loss and regularization strength.

    For the smoothed hinge the labels are already multiplied into the
    columns (use :meth:`smoothed_hinge`), so every margin is b_i A_i' w.
    """

    matrix: SparseColMatrix
    loss: SmoothedHingeLoss | SquareLoss
    lam: float
    col_norms_sq: np.ndarray = field(init=False, repr=False)
    anchors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise ValueError("lam must be positive and finite")
        # stored values are finite, so only an overflowing square makes a
        # norm inf; the constants below then overflow and are reported
        with np.errstate(over="ignore"):
            self.col_norms_sq = self.matrix.col_norms_sq()
        self.anchors = np.ascontiguousarray(self.loss.anchors(self.n), dtype=float)
        if self.n:
            with np.errstate(over="ignore", under="ignore"):
                L, mu = erm_constants(self)
            if not (np.all(np.isfinite(L)) and mu > 0.0 and math.isfinite(self.lam * self.n)):
                raise ConfigurationError(
                    "coordinate constants ||A_i||^2/(lam n^2) overflow (or mu underflows "
                    "to 0, or lam n overflows) at this lambda; rescale the data or "
                    "change lambda")

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def d(self) -> int:
        return self.matrix.d

    @property
    def gamma(self) -> float:
        return self.loss.gamma

    @classmethod
    def smoothed_hinge(cls, A: SparseColMatrix, labels: np.ndarray,
                       lam: float, gamma: float = 1.0) -> "ErmProblem":
        labels = np.asarray(labels, dtype=float)
        if labels.shape != (A.n,):
            raise ValueError("need one label per column")
        if not np.all(np.isin(labels, (1.0, -1.0))):
            raise ValueError("labels must be +1 or -1")
        return cls(matrix=A.scale_columns(labels), loss=SmoothedHingeLoss(gamma),
                   lam=lam)

    @classmethod
    def ridge(cls, A: SparseColMatrix, targets: np.ndarray, lam: float,
              gamma: float = 1.0) -> "ErmProblem":
        return cls(matrix=A, loss=SquareLoss(targets, gamma), lam=lam)


def erm_constants(prob: ErmProblem) -> tuple[np.ndarray, float]:
    """Per-coordinate Lipschitz constants and the weighted-norm convexity mu.

    L_i = ||A_i||^2 / (lam n^2) + gamma / n; mu = (gamma/n) / max L_i, which
    is at least lam*gamma*n / (R^2 + lam*gamma*n).
    """
    n = prob.n
    L = prob.col_norms_sq / (prob.lam * n * n) + prob.gamma / n
    mu = (prob.gamma / n) / float(L.max())
    return L, mu


def _clip(box, x):
    """x projected onto the dual box (unchanged when there is none)."""
    return x if box is None else np.clip(x, box[0], box[1])


def _dual_feasible(box, x) -> np.ndarray | None:
    """Clipped copy of x if within the box up to DUAL_DOMAIN_ATOL, else None."""
    x = np.asarray(x, dtype=float)
    if box is not None and (np.any(x < box[0] - DUAL_DOMAIN_ATOL)
                            or np.any(x > box[1] + DUAL_DOMAIN_ATOL)):
        return None
    return _clip(box, x)


def _dual_value(prob: ErmProblem, conj: np.ndarray, ax: np.ndarray) -> float:
    """D at a feasible point x, given conj = phi*_i(-x_i) and ax = A x."""
    n = prob.n
    return -float(np.sum(conj)) / n - float(ax @ ax) / (2.0 * prob.lam * n * n)


def _primal_value(prob: ErmProblem, w: np.ndarray, phi: np.ndarray) -> float:
    """P(w), given phi = phi_i(A_i' w)."""
    return float(np.sum(phi)) / prob.n + 0.5 * prob.lam * float(np.dot(w, w))


def _subgradient_residual(prob: ErmProblem, xc: np.ndarray, margins: np.ndarray
                          ) -> np.ndarray:
    """A_i' w - a_i at a feasible xc, given margins = A' w(xc); the squared
    norm of D'(xc) is the residual's squared norm over n^2.

    The selection a_i from the conjugate subdifferential at -x_i is
    anchor_i - gamma x_i in the interior of the domain (anchor 1 for the
    hinge, b_i for square loss).  Exactly on a box edge the subdifferential
    is a half-line, and the margin is projected onto it, which makes the
    selection vanish at constrained optima.
    """
    a = prob.anchors - prob.gamma * xc
    box = prob.loss.dual_box
    if box is not None:
        # at x_i = lo the set is [a_i, inf); at x_i = hi it is (-inf, a_i]
        a = np.where(xc == box[0], np.maximum(a, margins), a)
        a = np.where(xc == box[1], np.minimum(a, margins), a)
    return margins - a


def _copy_into(buffer: np.ndarray, a, name: str) -> None:
    """Copy the vector ``a`` into ``buffer``, which has its length."""
    a = np.asarray(a)
    if a.shape != buffer.shape:
        raise ValueError(f"{name} must be a vector of length {buffer.size}")
    np.copyto(buffer, a)


class _ReportPass:
    """The part of a report at the dual point x that reads every column,
    given ``ax`` = A x: the box check, w = A x / (lam n) and, per example,
    phi_i(A_i' w), phi*_i(-x_i) and the subgradient residual.

    A pass is bound to one problem and serves any number of rows.  It owns
    the snapshot buffers ``x`` and ``ax`` and the outputs ``w`` and
    ``terms`` (phi, conj, resid), holds the matrix and anchors, and with the
    kernels loaded it builds the compiled ``erm_report`` call on them once,
    so :meth:`post` costs two copies and the call, and overwrites the
    previous row's buffers.  The call is bitwise equal to the numpy form,
    which runs when the kernels do not load.  :meth:`finish` adds the sums.
    """

    def __init__(self, prob: ErmProblem):
        n, d = prob.n, prob.d
        self.prob, self.outside = prob, 0
        m, anchors = prob.matrix, prob.anchors
        self.matrix, self.anchors = m, anchors  # held: the call keeps their addresses
        self.x, self.ax, self.w = np.empty(n), np.empty(d), np.empty(d)
        self.terms = np.empty(n), np.empty(n), np.empty(n)
        self.lib = native.library()
        if self.lib is not None:
            self.args = (n, *m.addresses, d, self.ax.ctypes.data, prob.lam * n,
                         self.x.ctypes.data, native.address(anchors, np.float64, n, "anchors"),
                         prob.gamma, isinstance(prob.loss, SmoothedHingeLoss),
                         DUAL_DOMAIN_ATOL, self.w.ctypes.data,
                         *(t.ctypes.data for t in self.terms))

    def post(self, x, ax) -> None:
        """Make the pass at copies of ``x`` and of ``ax`` = A x; without the
        kernels, raise ValueError for a point outside the conjugate domain."""
        _copy_into(self.x, x, "x")
        _copy_into(self.ax, ax, "ax")
        if self.lib is None:
            prob = self.prob
            xc = _dual_feasible(prob.loss.dual_box, self.x)
            if xc is None:
                raise ValueError("dual point outside the conjugate domain")
            np.divide(self.ax, prob.lam * prob.n, out=self.w)
            margins = prob.matrix.tdot(self.w)
            self.terms = (prob.loss.phi(margins), prob.loss.conj_neg(xc),
                          _subgradient_residual(prob, xc, margins))
        else:
            self.outside = self.lib.erm_report(*self.args)

    def finish(self, epoch: int, wall_time_s: float = 0.0) -> "PrimalDualReport":
        """The report: the sums, w'w and (A x)'(A x), in numpy."""
        if self.outside:
            raise ValueError("dual point outside the conjugate domain")
        prob = self.prob
        phi, conj, resid = self.terms
        norm_sq = float(resid @ resid) / (prob.n * prob.n)
        primal = _primal_value(prob, self.w, phi)
        dual = _dual_value(prob, conj, self.ax)
        return PrimalDualReport(epoch=epoch, primal=primal, dual=dual, gap=primal - dual,
                                dual_subgrad_norm_sq=norm_sq,
                                subgradient_gap_bound=prob.n / (2.0 * prob.gamma) * norm_sq,
                                wall_time_s=wall_time_s)


@dataclass(frozen=True)
class PrimalDualReport:
    """One row of trace output, evaluated at an epoch boundary."""

    epoch: int
    primal: float
    dual: float
    gap: float
    dual_subgrad_norm_sq: float
    subgradient_gap_bound: float
    wall_time_s: float = 0.0

    @classmethod
    def evaluate(cls, prob: ErmProblem, x: np.ndarray, epoch: int,
                 wall_time_s: float = 0.0, ax: np.ndarray | None = None
                 ) -> "PrimalDualReport":
        """Primal, dual and subgradient at x from one A x and one A' w.

        The primal and dual equal P(A x / (lam n)) and D(x) evaluated
        separately, each from its own product, bitwise.  A solver that
        maintains ``ax = A x`` passes it, and the report then costs only the
        A' w; such a report is exact up to the aggregate's drift, so it is
        not a weak-duality certificate (see :func:`run_epochs`).  The A' w
        and every per-example term run as one compiled pass over the columns
        when the kernels load (:class:`_ReportPass`); the sums, w'w and
        (A x)'(A x) stay in numpy.
        """
        x = np.asarray(x, dtype=float)
        if ax is None:
            ax = prob.matrix.dot(_clip(prob.loss.dual_box, x))
        row = _ReportPass(prob)
        row.post(x, ax)
        return row.finish(epoch, wall_time_s)


# ---------------------------------------------------------------------------
# The conjugate penalty (the simple splitting's separable part)
# ---------------------------------------------------------------------------

class ConjugatePenalty(SeparableRegularizer):
    """Psi_i(s) = (1/n)(-a_i s + (gamma/2) s^2) on the domain, +inf off it.

    With the loss's gamma this is (1/n) phi*_i(-s), the penalty of the
    simple splitting that ``baselines.afg_step`` runs; with gamma = 0 it is
    the relocated splitting's linear penalty, (1/n) phi*_i(-s) less the
    loss's (gamma/2n) s^2, which :func:`apcg_erm_steps` solves inline.  The
    prox solves the 1-d quadratic and projects onto the box if there is one;
    the anchors are read at ``i``.  Only the prox is defined: its callers,
    AFG and the steppers that run on :func:`relocated_dual_composite`, never
    evaluate Psi.
    """

    def __init__(self, anchors: np.ndarray, gamma: float, n: int, box):
        self.anchors = np.asarray(anchors, dtype=float)
        self.gamma = float(gamma)
        self.n = int(n)
        self.box = box

    def prox_block(self, i, center, weight):
        s = (weight * center + self.anchors[i] / self.n) / (weight + self.gamma / self.n)
        return np.atleast_1d(_clip(self.box, s))


def relocated_dual_composite(prob: ErmProblem) -> CompositeProblem:
    """The ERM dual under the relocated splitting as a generic composite
    problem over scalar blocks: f(x) = ||A x||^2 / (2 lam n^2) +
    (gamma/2n) ||x||^2, with ``mu > 0``, and the linear penalty
    ``ConjugatePenalty(anchors, 0, n, box)``.  :class:`ErmDualState` runs
    this splitting in specialized form, so the explicit stepper on it is the
    reference that ``apcg-bench check`` holds the ERM kernel to.

    ``f(x) - anchors . x / n`` is F(x) = -D(x), and on a box-free dual its
    gradient is -D'(x)."""
    lam, n, gamma = prob.lam, prob.n, prob.gamma
    A = prob.matrix
    scale = 1.0 / (lam * n * n)

    def value(x):
        ax = A.dot(x)
        return 0.5 * scale * float(ax @ ax) + 0.5 * gamma / n * float(x @ x)

    def full_gradient(x):
        return A.tdot(A.dot(x)) * scale + (gamma / n) * x

    def partial_gradient(x, i):
        idx, val = A.col(i)
        return np.array([float(val @ A.dot(x)[idx]) * scale + (gamma / n) * x[i]])

    L, mu = erm_constants(prob)
    smooth = SmoothOracle(value=value, full_gradient=full_gradient,
                          partial_gradient=partial_gradient, lipschitz=L, mu=mu)
    return CompositeProblem(partition=BlockPartition.scalar(n), smooth=smooth,
                            reg=ConjugatePenalty(prob.anchors, 0.0, n, prob.loss.dual_box))


# ---------------------------------------------------------------------------
# Specialized solver state (one column of work per iteration)
# ---------------------------------------------------------------------------

def change_of_variables_rates(mu: float, n: int) -> tuple[float, float]:
    """``alpha = sqrt(mu)/n`` and ``rho = (1 - alpha)/(1 + alpha)`` of the
    change-of-variables form; raises ConfigurationError when rho <= 0.

    That happens only at n = 1 and mu = 1; on the ERM dual, for one example
    whose features are all zero, or too small to register beside gamma."""
    alpha = math.sqrt(mu) / n
    rho = (1.0 - alpha) / (1.0 + alpha)
    if rho <= 0.0:
        raise ConfigurationError(
            "apcg cannot run on a single example without features (or with "
            "features negligible beside gamma): mu = 1 at n = 1 makes its rate "
            "rho = (1-alpha)/(1+alpha) zero; add examples, or run sdca, rpcg or afg")
    return alpha, rho


class ErmDualState:
    """Iterate state of the structure-exploiting dual solver.

    Maintains (ubar, v) in R^n and the aggregates pbar = A ubar, q = A v in
    R^d, with ubar = scale * ubar_base and pbar = scale * pbar_base.  The
    once-per-iteration rho-scaling of both is one multiply of the shared
    ``scale``, folded back into the base vectors whenever it threatens to
    underflow; a step with a zero increment writes neither base vector.
    """

    def __init__(self, prob: ErmProblem, x0: np.ndarray | None = None, seed: int = 0):
        n = prob.n
        L, mu = erm_constants(prob)
        self.prob = prob
        self.mu = mu
        self.alpha, self.rho = change_of_variables_rates(mu, n)
        if x0 is None:
            x0 = np.zeros(n)
        x0 = np.asarray(x0, dtype=float)
        if _dual_feasible(prob.loss.dual_box, x0) is None:
            raise ConfigurationError("x0 must lie in the conjugate domain")
        self.v = x0.copy()
        self.ubar_base = np.zeros(n)
        self.pbar_base = np.zeros(prob.d)
        self.scale = 1.0
        self.q = prob.matrix.dot(x0)
        self.k = 0
        self.sampler = BlockSampler(n, seed)
        # per-step constants of the kernels
        self.quad_weight = (self.alpha * (prob.col_norms_sq + prob.lam * prob.gamma * n)
                            / (prob.lam * n))
        self.grad_scale = 1.0 / (prob.lam * n * n)
        self.anchor_over_n = prob.anchors / n
        self.is_box = prob.loss.dual_box is not None
        self.gamma_over_n = prob.gamma / n
        self.half_minus = 0.5 * (1.0 - n * self.alpha)
        self.half_plus = 0.5 * (1.0 + n * self.alpha)
        self._bound = None  # (arrays, arguments) of the compiled epoch, see epoch()

    def epoch(self) -> None:
        """n coordinate steps on the sampler's next n indices.

        Runs the compiled kernel when it loads, else :func:`apcg_erm_steps`;
        the two give the same bits.  The kernel's six state arrays are
        validated on the first call and again only after one of them has
        been replaced (``native.rebind``): one that is not a contiguous
        (writable, where the kernel writes it) float64 vector of its length
        raises ValueError before the epoch draws its indices.
        """
        n = self.prob.n
        lib = native.library()
        if lib is None:
            apcg_erm_steps(self.prob, self, native.block_indices(self.sampler.take(n), n))
            return
        self._bound = native.rebind(
            self._bound, (self.ubar_base, self.v, self.pbar_base, self.q,
                          self.quad_weight, self.anchor_over_n), self._kernel_arrays)
        blocks = native.block_indices(self.sampler.take(n), n)
        self.scale = lib.apcg_erm_epoch(
            *self.prob.matrix.addresses, blocks.ctypes.data, blocks.size, *self._bound[1],
            self.rho, self.grad_scale, self.gamma_over_n, self.half_minus,
            self.half_plus, self.is_box, self.scale)
        self.k += blocks.size

    def _kernel_arrays(self, ubar_base, v, pbar_base, q, quad_weight, anchor_over_n):
        """The array arguments of ``apcg_erm_epoch``, validated."""
        n, d, addr = self.prob.n, self.prob.d, native.address
        return (addr(ubar_base, np.float64, n, "ubar_base", writable=True),
                addr(v, np.float64, n, "v", writable=True), n,
                addr(pbar_base, np.float64, d, "pbar_base", writable=True),
                addr(q, np.float64, d, "q", writable=True), d,
                addr(quad_weight, np.float64, n, "quad_weight"),
                addr(anchor_over_n, np.float64, n, "anchor_over_n"))

    def x(self) -> np.ndarray:
        return self.ubar_base * (self.scale / self.rho) + self.v

    def ax(self) -> np.ndarray:
        """A x() from the maintained aggregates, without a product."""
        return self.pbar_base * (self.scale / self.rho) + self.q

    def check_consistency(self, tol: float = 1e-8) -> None:
        """Raise RuntimeError when the maintained aggregates pbar = A ubar and
        q = A v drift from fresh products by more than ``tol`` relative."""
        pbar, q = self.pbar_base * self.scale, self.q
        p_ref = self.prob.matrix.dot(self.ubar_base * self.scale)
        q_ref = self.prob.matrix.dot(self.v)
        p_err = np.linalg.norm(pbar - p_ref) / max(1.0, np.linalg.norm(p_ref))
        q_err = np.linalg.norm(q - q_ref) / max(1.0, np.linalg.norm(q_ref))
        if p_err > tol or q_err > tol:
            raise RuntimeError(f"aggregate drift p={p_err:.3e} q={q_err:.3e} exceeds {tol}")


def _dot_in_order(val: np.ndarray, vec: np.ndarray) -> float:
    """val' vec added left to right from 0.0, as the compiled epochs' loops add
    it, so both backends step on the same bits (ndarray.dot, np.sum and, from
    Python 3.12, the built-in sum add in other orders).  The running sum
    differs from the C loop's only in holding -0.0 where the loop holds 0.0,
    which the final + 0.0 undoes."""
    if not val.size:
        return 0.0
    return np.add.accumulate(val * vec).item(-1) + 0.0


def apcg_erm_steps(prob: ErmProblem, state: ErmDualState, blocks) -> ErmDualState:
    """One coordinate step of the dual solver per index in ``blocks`` (an
    int64 array), in order: the Python reference of the compiled epoch.

    Each step costs O(nnz(A_i)):
    grad_i = (A_i' pbar + A_i' q) / (lam n^2) + (gamma/n)(ubar_i + v_i);
    the 1-d subproblem min_h { c/2 h^2 + grad_i h + Psi_i(t0 + h) } with
    c = alpha (||A_i||^2 + lam gamma n) / (lam n) and t0 = -ubar_i + v_i is
    solved in closed form (a clipped affine expression), then (ubar, v) and
    (pbar, q) are updated on coordinate i and column A_i only.  The state is
    read into locals once per call, so a whole epoch runs as one loop, and
    each column's gathered aggregates are reused for its update.
    """
    m = prob.matrix
    indices, values, bound_at = m.indices, m.values, m.indptr.item
    ubar_base, v, pbar_base, q = state.ubar_base, state.v, state.pbar_base, state.q
    ubar_at, v_at = ubar_base.item, v.item
    quad_weight_at, anchor_over_n_at = state.quad_weight.item, state.anchor_over_n.item
    rho, grad_scale, gamma_over_n = state.rho, state.grad_scale, state.gamma_over_n
    half_minus, half_plus, is_box = state.half_minus, state.half_plus, state.is_box
    scale = state.scale
    for i in blocks.tolist():
        lo, hi = bound_at(i), bound_at(i + 1)
        idx = indices[lo:hi]
        val = values[lo:hi]
        pbar_idx = pbar_base[idx]
        q_idx = q[idx]

        ub_base_i = ubar_at(i)
        ub_i = ub_base_i * scale
        v_i = v_at(i)
        a_dot = _dot_in_order(val, pbar_idx) * scale + _dot_in_order(val, q_idx)
        grad = a_dot * grad_scale + gamma_over_n * (ub_i + v_i)

        t0 = -ub_i + v_i
        s = t0 + (anchor_over_n_at(i) - grad) / quad_weight_at(i)
        if is_box:
            s = 0.0 if s < 0.0 else (1.0 if s > 1.0 else s)
        h = s - t0

        v[i] = v_i + half_plus * h
        if h != 0.0:
            dp = half_minus * h / scale
            ubar_base[i] = ub_base_i - dp
            pbar_base[idx] = pbar_idx - dp * val
            q[idx] = q_idx + (half_plus * h) * val
        scale *= rho
        if scale < 1e-120:
            ubar_base *= scale
            pbar_base *= scale
            scale = 1.0
    state.scale = scale
    state.k += len(blocks)
    return state


@dataclass
class ErmRunResult:
    x: np.ndarray
    w: np.ndarray
    reports: list[PrimalDualReport]
    epochs_run: int
    epochs_to_tol: int | None


def run_epochs(prob: ErmProblem, epoch, x, epochs: int,
               tol: float | None = None, *, ax) -> ErmRunResult:
    """Drive any dual solver epoch by epoch, reporting at every boundary.

    ``epoch()`` advances the solver by one epoch, ``x()`` returns its dual
    iterate and ``ax()`` the A x that it maintains.  The trace starts with
    the epoch-0 row at the initial point and stops after ``epochs`` epochs
    or once the primal-dual gap reaches ``tol``.  Each row is reported
    before the next epoch runs, so no epoch runs past the row that stops
    the run, and wall time accumulates the ``epoch()`` calls alone.

    Each report costs one A' w.  A gap from a maintained aggregate is not a
    weak-duality certificate, so a row whose gap reaches ``tol`` and the
    last row are evaluated again from a fresh A x: the run stops only once
    that exact gap is <= ``tol``.  Every row copies ``x()`` and ``ax()``
    into the buffers of the run's one :class:`_ReportPass`, and the
    returned ``x`` and ``w`` are the last row's: the pass's buffers, which
    no other run shares.
    """
    box = prob.loss.dual_box

    def fresh_product(point):
        return prob.matrix.dot(_clip(box, point))

    def stops(rep) -> bool:
        return tol is not None and rep.gap <= tol

    reports = []
    done, elapsed = 0, 0.0
    row = _ReportPass(prob)
    while done < epochs:
        row.post(x(), ax())
        rep = row.finish(done, elapsed)
        if stops(rep):  # certify on the exact gap
            row.post(row.x, fresh_product(row.x))
            rep = row.finish(done, elapsed)
        reports.append(rep)
        if stops(rep):
            return ErmRunResult(x=row.x, w=row.w, reports=reports, epochs_run=done,
                                epochs_to_tol=done)
        t0 = time.perf_counter()
        epoch()
        elapsed += time.perf_counter() - t0
        done += 1
    point = x()
    row.post(point, fresh_product(point))
    rep = row.finish(done, elapsed)
    reports.append(rep)
    return ErmRunResult(x=row.x, w=row.w, reports=reports, epochs_run=done,
                        epochs_to_tol=done if stops(rep) else None)


def solve_erm(prob: ErmProblem, epochs: int, seed: int = 0,
              tol: float | None = None) -> ErmRunResult:
    """Run the dual coordinate solver from x = 0, n steps per epoch; see
    run_epochs."""
    state = ErmDualState(prob, seed=seed)
    return run_epochs(prob, state.epoch, state.x, epochs, tol, ax=state.ax)


def complexity_estimate(n: int, R: float, lam: float, gamma: float,
                        epsilon: float, C: float) -> int:
    """Iterations sufficient for an expected dual gap epsilon:
    ceil((n + sqrt(n R^2 / (lam gamma))) * log(C / epsilon))."""
    if min(n, R, lam, gamma, epsilon, C) <= 0:
        raise ValueError("all arguments must be positive")
    if epsilon >= C:
        return 0
    return math.ceil((n + math.sqrt(n * R * R / (lam * gamma))) * math.log(C / epsilon))
