"""Problem abstractions shared by all solvers.

A composite objective F(x) = f(x) + Psi(x) is described by three pieces:

* a :class:`BlockPartition` of the N coordinates into n blocks,
* a :class:`SmoothOracle` for the differentiable part f (gradients,
  per-block Lipschitz constants ``L_i``, convexity parameter ``mu``
  measured in the L-weighted norm),
* a :class:`SeparableRegularizer` for the block-separable part Psi with a
  per-block prox oracle.

Everything here is immutable after construction and safe to share between
concurrently running solver instances; all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class BlockPartition:
    """Partition of ``total`` coordinates into contiguous blocks.

    ``offsets[i]`` is the start of block ``i`` and ``sizes[i]`` its length,
    so block ``i`` of a vector ``x`` is ``x[offsets[i]:offsets[i]+sizes[i]]``.
    """

    sizes: tuple[int, ...]
    offsets: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        sizes = np.asarray(self.sizes, dtype=np.int64)
        if sizes.size == 0:
            raise ValueError("partition needs at least one block")
        if sizes.min() < 1:
            raise ValueError("block sizes must be >= 1")
        offsets = np.zeros_like(sizes)
        np.cumsum(sizes[:-1], out=offsets[1:])
        object.__setattr__(self, "sizes", tuple(sizes.tolist()))
        object.__setattr__(self, "offsets", tuple(offsets.tolist()))

    @classmethod
    def scalar(cls, n: int) -> "BlockPartition":
        """n blocks of one coordinate each."""
        return cls(sizes=np.ones(int(n), dtype=np.int64))

    @property
    def n(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return self.offsets[-1] + self.sizes[-1]

    def slice(self, i: int) -> slice:
        off = self.offsets[i]
        return slice(off, off + self.sizes[i])

    def sizes_array(self) -> np.ndarray:
        return np.asarray(self.sizes, dtype=np.int64)


def weighted_norm(x: np.ndarray, weights, partition: BlockPartition) -> float:
    """Block-weighted Euclidean norm ``sqrt(sum_i w_i * ||x_i||_2^2)``."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(weights, dtype=float)
    if x.shape != (partition.total,):
        raise ValueError(f"x has shape {x.shape}, expected ({partition.total},)")
    if w.shape != (partition.n,):
        raise ValueError(f"weights has shape {w.shape}, expected ({partition.n},)")
    if np.any(w <= 0):
        raise ValueError("norm weights must be positive")
    per_coord = np.repeat(w, partition.sizes_array())
    return math.sqrt(float(np.dot(per_coord * x, x)))


@dataclass(frozen=True, eq=False)
class SmoothOracle:
    """Oracle for the smooth part f.

    ``partial_gradient(x, i)`` must return the i-th block slice of
    ``full_gradient(x)``; ``lipschitz[i]`` bounds the block-i gradient
    variation ``||grad_i f(x + U_i h) - grad_i f(x)|| <= L_i ||h||``; ``mu``
    is the convexity parameter of f in the L-weighted norm (``mu <= 1``
    always holds for consistent constants).
    """

    value: Callable[[np.ndarray], float]
    full_gradient: Callable[[np.ndarray], np.ndarray]
    partial_gradient: Callable[[np.ndarray, int], np.ndarray]
    lipschitz: np.ndarray
    mu: float

    def __post_init__(self):
        lip = np.asarray(self.lipschitz, dtype=float)
        if lip.ndim != 1 or np.any(lip <= 0) or not np.all(np.isfinite(lip)):
            raise ValueError("lipschitz must be a 1-d array of positive finite constants")
        object.__setattr__(self, "lipschitz", lip)
        if not (0.0 <= self.mu <= 1.0):
            raise ValueError(f"mu must lie in [0, 1], got {self.mu}")


class SeparableRegularizer:
    """Base class for block-separable regularizers Psi(x) = sum_i Psi_i(x_i).

    Subclasses implement ``prox_block``, the minimizer of
    ``weight/2 * ||h - center||^2 + Psi_i(h)`` over block vectors ``h``,
    where ``i`` is a block index or ``slice(None)`` for every block at once,
    and ``eval_full`` (``math.inf`` off the domain of indicator-type terms).
    """

    def prox_block(self, i, center: np.ndarray, weight: float) -> np.ndarray:
        raise NotImplementedError

    def eval_full(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def prox_full(self, center: np.ndarray, weight: float) -> np.ndarray:
        """The block proxes applied to every block at once."""
        return self.prox_block(slice(None), center, weight)


def block_prox(reg: SeparableRegularizer, i: int, center: np.ndarray,
               weight: float) -> np.ndarray:
    """Prox of Psi_i: argmin_h { weight/2 * ||h - center||^2 + Psi_i(h) }."""
    center = np.asarray(center, dtype=float)
    if not np.isfinite(center).all():
        raise ValueError("prox center must be finite")
    if not (weight > 0 and math.isfinite(weight)):
        raise ValueError(f"prox weight must be positive and finite, got {weight}")
    return reg.prox_block(i, center, weight)


class L1Regularizer(SeparableRegularizer):
    """Psi(x) = strength * ||x||_1; prox is soft thresholding."""

    def __init__(self, strength: float):
        if strength < 0:
            raise ValueError("l1 strength must be nonnegative")
        self.strength = float(strength)

    def prox_block(self, i, center, weight):
        t = self.strength / weight
        return np.sign(center) * np.maximum(np.abs(center) - t, 0.0)

    def eval_full(self, x):
        return self.strength * float(np.sum(np.abs(x)))


@dataclass(frozen=True, eq=False)
class CompositeProblem:
    """Minimize F(x) = f(x) + Psi(x) over the partitioned coordinates."""

    partition: BlockPartition
    smooth: SmoothOracle
    reg: SeparableRegularizer

    def __post_init__(self):
        if self.smooth.lipschitz.shape != (self.partition.n,):
            raise ValueError("need one Lipschitz constant per block")

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def dim(self) -> int:
        return self.partition.total

    def objective(self, x: np.ndarray) -> float:
        return float(self.smooth.value(x)) + self.reg.eval_full(x)

    def weighted_norm(self, x: np.ndarray) -> float:
        return weighted_norm(x, self.smooth.lipschitz, self.partition)
