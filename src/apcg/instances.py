"""Synthetic composite instances used by the diagnostics and tests.

These are desk-scale problems with exactly known structure: a strongly
convex quadratic smooth part with a random Hessian, an l1 term,
and block Lipschitz constants read off the Hessian's diagonal blocks.  The
convexity parameter in the L-weighted norm is computed exactly as the
smallest eigenvalue of D^{-1/2} H D^{-1/2} with D = diag(L) (each L_i
repeated over its block).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BlockPartition, CompositeProblem, L1Regularizer, SmoothOracle


@dataclass(frozen=True, eq=False)
class QuadraticInstance:
    """Composite problem ``0.5 x'Hx - b'x + l1 * ||x||_1`` plus metadata."""

    problem: CompositeProblem
    hessian: np.ndarray
    linear: np.ndarray
    lipschitz_full: float  # largest eigenvalue of H, for full-gradient methods


def _quadratic_instance(H: np.ndarray, b: np.ndarray, partition: BlockPartition,
                        l1: float) -> QuadraticInstance:
    lipschitz = np.empty(partition.n)
    for i in range(partition.n):
        sl = partition.slice(i)
        lipschitz[i] = float(np.linalg.eigvalsh(H[sl, sl])[-1])
    scale = 1.0 / np.sqrt(np.repeat(lipschitz, partition.sizes_array()))
    mu = float(np.linalg.eigvalsh(H * scale[:, None] * scale[None, :])[0])
    mu = min(max(mu, 0.0), 1.0)

    def value(x):
        return 0.5 * float(x @ (H @ x)) - float(b @ x)

    def full_gradient(x):
        return H @ x - b

    def partial_gradient(x, i):
        if x.ndim == 2:  # row r's derivative at its scalar block i[r]
            return np.matmul(H[i][:, None, :], x[:, :, None])[:, 0, 0] - b[i]
        sl = partition.slice(i)
        return H[sl] @ x - b[sl]

    smooth = SmoothOracle(value=value, full_gradient=full_gradient,
                          partial_gradient=partial_gradient,
                          lipschitz=lipschitz, mu=mu)
    problem = CompositeProblem(partition=partition, smooth=smooth, reg=L1Regularizer(l1))
    return QuadraticInstance(problem=problem, hessian=H, linear=b,
                             lipschitz_full=float(np.linalg.eigvalsh(H)[-1]))


def diag_dominant_quadratic(n: int, seed: int = 0, l1: float = 0.1,
                            dominance: float = 0.1) -> QuadraticInstance:
    """Random SPD quadratic with scalar blocks and an l1 term.

    The Hessian is a symmetric Gaussian matrix made diagonally dominant by
    setting each diagonal entry to its absolute row sum plus ``dominance``,
    which keeps the eigenvalues positive and the conditioning moderate.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    M = rng.standard_normal((n, n)) / np.sqrt(n)
    H = 0.5 * (M + M.T)
    np.fill_diagonal(H, 0.0)
    diag = np.abs(H).sum(axis=1) + dominance
    H = H + np.diag(diag)
    b = rng.standard_normal(n)
    return _quadratic_instance(H, b, BlockPartition.scalar(n), l1)

