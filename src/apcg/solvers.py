"""Accelerated proximal coordinate gradient solvers.

One explicit stepper, :func:`apcg_step_general`, runs every coefficient
schedule: pick a block uniformly at random, solve a prox subproblem on that
block with weight ``n * alpha_k * L_i``, and combine the three iterate
vectors (x, y, z) with momentum coefficients from an :class:`ApcgSchedule`.
The paper's special forms are two of its schedules:

* ``ApcgSchedule(n, mu, gamma0)`` for any ``gamma0 in [mu, 1]`` is the
  general method;
* ``ApcgSchedule(n, mu, mu)`` is the strongly convex form, whose
  coefficients are the constants ``alpha_k = beta_k = sqrt(mu)/n`` (needs
  ``mu > 0``);
* ``ApcgSchedule(n, 0, gamma0)`` is the ``mu = 0`` form, where
  ``beta_k = 0`` and ``gamma_{k+1} = (n alpha_k)^2`` give the recursion
  ``alpha_k^2 = (1 - alpha_k) alpha_{k-1}^2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CompositeProblem, block_prox
from .errors import ConfigurationError
from .schedule import ApcgSchedule

SAMPLER_BATCH = 4096  # indices drawn per refill of BlockSampler's buffer


class BlockSampler:
    """Seeded uniform sampler over {0, ..., n-1}.

    Wraps a PCG64 generator and draws indices in batches of
    ``SAMPLER_BATCH``; numpy's bounded integer sampling uses rejection, so
    the draws are exactly uniform.  The stream is a pure function of
    (seed, n), which makes every solver run reproducible bit-for-bit.
    """

    def __init__(self, n: int, seed: int):
        if n < 1:
            raise ValueError("sampler needs n >= 1")
        self.n = int(n)
        self._gen = np.random.Generator(np.random.PCG64(seed))
        self._buf = np.empty(0, dtype=np.int64)
        self._pos = 0

    def _refill(self) -> None:
        self._buf = self._gen.integers(0, self.n, size=SAMPLER_BATCH, dtype=np.int64)
        self._pos = 0

    def draw(self) -> int:
        if self._pos >= self._buf.size:
            self._refill()
        i = self._buf[self._pos]
        self._pos += 1
        return int(i)

    def take(self, k: int) -> np.ndarray:
        """The next k indices of the stream, as k calls of draw() would
        return them, in a new int64 array."""
        if k < 0:
            raise ValueError("cannot take a negative number of indices")
        parts = []
        while k > 0:
            if self._pos >= self._buf.size:
                self._refill()
            end = min(self._buf.size, self._pos + k)
            parts.append(self._buf[self._pos:end])
            k -= end - self._pos
            self._pos = end
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


class StackedSampler:
    """Block draws of several seeded runs that step together: the k-th
    :meth:`draw` is the array of each seed's k-th ``BlockSampler(n, seed)``
    draw.

    The ``steps`` draws are taken up front, one seed after another (one
    sampler buffer alive at a time), in the smallest unsigned type that
    holds ``n - 1``; a draw past them raises IndexError.
    """

    def __init__(self, n: int, seeds, steps: int):
        seeds = list(seeds)
        self.n = int(n)
        self._blocks = np.empty((steps, len(seeds)), dtype=np.min_scalar_type(self.n - 1))
        for r, seed in enumerate(seeds):
            self._blocks[:, r] = BlockSampler(n, seed).take(steps)
        self._k = 0

    def draw(self) -> np.ndarray:
        i = self._blocks[self._k]
        self._k += 1
        return i


@dataclass
class ApcgExplicitState:
    """Full-vector iterate state (x, y, z) plus the iteration counter.

    A stacked state holds several runs that share one schedule: x, y and z
    have one row per run, and the sampler is a :class:`StackedSampler`.
    """

    x: np.ndarray
    z: np.ndarray
    k: int
    sampler: BlockSampler | StackedSampler
    y: np.ndarray | None = None

    @classmethod
    def start(cls, x0: np.ndarray, seed: int, n_blocks: int) -> "ApcgExplicitState":
        x0 = np.array(x0, dtype=float, copy=True)
        return cls(x=x0, z=x0.copy(), k=0, sampler=BlockSampler(n_blocks, seed))


def apcg_step_general(problem: CompositeProblem, state: ApcgExplicitState,
                      sched: ApcgSchedule) -> ApcgExplicitState:
    """One iteration with schedule coefficients (any gamma0 in [mu, 1]).

    y is formed from (x, z), the selected block of z is replaced by the prox
    solution while the other blocks move to ``(1-beta) z + beta y``, and x
    changes only on the selected block.  ``sched`` serves this run alone, or
    the rows of a stacked state together: each row then takes these steps
    on its own block, with the same operations as a run of its own, and
    one stacked ``partial_gradient`` call serves every row.
    """
    k = state.k
    n = problem.n
    if sched.n != n or state.sampler.n != n:
        raise ConfigurationError(f"schedule over {sched.n} blocks and sampler over "
                                 f"{state.sampler.n}, problem has {n}")
    if sched.k != k:
        raise ConfigurationError(f"schedule at iteration {sched.k}, state at {k}: one per run")
    if state.x.ndim == 2 and problem.dim != n:
        raise ConfigurationError("a stacked state needs blocks of one coordinate")
    gamma_k = sched.gamma
    alpha, gamma_next, beta = sched.step()
    mu = sched.mu

    x, z = state.x, state.z
    # y and center are built in place, with the same operations in the same
    # order as (alpha gamma_k z + gamma_next x) / (...) and (1-beta) z + beta y
    y = alpha * gamma_k * z
    y += gamma_next * x
    y /= alpha * gamma_k + gamma_next
    i = state.sampler.draw()
    if beta != 0.0:
        center = (1.0 - beta) * z
        center += beta * y
    else:
        center = z.copy()
    weight = n * alpha * problem.smooth.lipschitz[i]
    # stacked: row r's block is its coordinate i[r]
    sl = problem.partition.slice(i) if x.ndim == 1 else (np.arange(len(i)), i)
    grad_i = problem.smooth.partial_gradient(y, i)
    # block-i minimizer of weight/2 ||s - c_i||^2 + <grad_i f(y), s> + Psi_i(s)
    s = block_prox(problem.reg, i, center[sl] - grad_i / weight, weight)

    z_i_old = z[sl]  # z is never written, center is a new array
    x_new = y.copy()
    x_new[sl] = y[sl] + n * alpha * (s - z_i_old) + (mu / n) * (z_i_old - y[sl])
    center[sl] = s

    state.x, state.z, state.y, state.k = x_new, center, y, k + 1
    return state


@dataclass
class SolveResult:
    x: np.ndarray
    trace: list[tuple[int, float]]


def solve(problem: CompositeProblem, sched: ApcgSchedule, max_iters: int = 1000,
          seed=0) -> SolveResult | list[SolveResult]:
    """Run :func:`apcg_step_general` on a fresh ``sched`` from x = 0 and
    trace the objective.

    The trace holds (iteration, F(x)) pairs at iteration 0, after every n
    coordinate steps (one epoch) and at the end; objective evaluations
    happen only at trace points and are not part of the per-iteration cost.
    Runs with the same schedule and seed produce identical traces.

    Given a sequence of seeds instead of one, the runs step together as one
    stacked state (blocks of one coordinate and an oracle that takes stacks,
    see :class:`~apcg.core.SmoothOracle`) and a list of one result per seed
    is returned, each bitwise the result of its own call; an empty sequence
    returns an empty list.
    """
    n = problem.n
    if sched.n != n or sched.k != 0:
        raise ConfigurationError(f"need a fresh schedule over the problem's {n} blocks; "
                                 f"got n={sched.n} at iteration {sched.k}")
    if max_iters < 0:
        raise ValueError("cannot run a negative number of iterations")
    if np.ndim(seed) == 0:
        state = ApcgExplicitState.start(np.zeros(problem.dim), seed, n)
    else:
        x0 = np.zeros((len(seed), problem.dim))
        state = ApcgExplicitState(x=x0, z=x0.copy(), k=0,
                                  sampler=StackedSampler(n, seed, max_iters))
    traces = [[(0, problem.objective(row))] for row in np.atleast_2d(state.x)]
    for k in range(1, max_iters + 1):
        apcg_step_general(problem, state, sched)
        if k % n == 0 or k == max_iters:
            for trace, row in zip(traces, np.atleast_2d(state.x)):
                trace.append((k, problem.objective(row)))
    results = [SolveResult(x=row.copy(), trace=trace)
               for row, trace in zip(np.atleast_2d(state.x), traces)]
    return results if state.x.ndim == 2 else results[0]
