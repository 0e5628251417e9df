"""Momentum schedule for the accelerated coordinate solvers.

Each iteration k uses a step coefficient ``alpha_k``, the unique root in
``(0, 1/n]`` of

    n^2 * alpha^2 = (1 - alpha) * gamma_k + alpha * mu,

followed by ``gamma_{k+1} = (1 - alpha_k) * gamma_k + alpha_k * mu`` and the
coupling weight ``beta_k = alpha_k * mu / gamma_{k+1}``.  The running product
``lambda_k = prod_{j<k} (1 - alpha_j)`` is the worst-case contraction factor
of the method and is bounded by :meth:`ApcgSchedule.rate_bound`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from . import native
from .errors import ConfigurationError


def _alpha_root(gamma_k: float, mu: float, n: int) -> float:
    """Root in (0, 1/n] of ``n^2 a^2 = (1 - a) gamma_k + a mu``.

    Uses the rationalized closed form ``2 gamma / (b + sqrt(b^2 + 4 n^2 gamma))``
    with ``b = gamma_k - mu`` when ``b >= 0`` to avoid cancellation.  Its
    inputs are unchecked: :class:`ApcgSchedule` checks them once, and its
    recursion keeps gamma_k in [mu, gamma0].
    """
    b = gamma_k - mu
    disc = math.sqrt(b * b + 4.0 * n * n * gamma_k)
    if b >= 0.0:
        alpha = 2.0 * gamma_k / (b + disc)
    else:
        alpha = (-b + disc) / (2.0 * n * n)
    cap = 1.0 / n
    if alpha > cap:
        if alpha <= cap * (1.0 + 1e-12):
            alpha = cap
        else:
            raise RuntimeError(
                f"alpha root {alpha} escaped (0, 1/n]; inputs gamma={gamma_k}, mu={mu}, n={n}")
    if alpha <= 0.0:
        raise RuntimeError("alpha root collapsed to zero")
    return alpha


class ApcgSchedule:
    """Steps the (alpha_k, gamma_k, beta_k, lambda_k) recursion in O(1) memory:
    it holds ``k``, ``gamma`` (gamma_k) and ``lam`` (lambda_k) and serves one
    solver run; :meth:`history` records the sequence as arrays.

    Valid initializations require ``0 < gamma0 <= 1`` and ``gamma0 >= mu``.
    With ``gamma0 == mu > 0`` the schedule is constant:
    ``gamma_k = mu`` and ``alpha_k = beta_k = sqrt(mu)/n`` for all k.
    """

    __slots__ = ("n", "mu", "gamma0", "k", "gamma", "lam")

    def __init__(self, n: int, mu: float, gamma0: float):
        n = int(n)
        if not (n >= 1 and 0.0 <= mu <= gamma0 <= 1.0 and gamma0 > 0.0):
            raise ConfigurationError("need n >= 1 and 0 <= mu <= gamma0 <= 1 with gamma0 > 0; "
                                     f"got n={n}, mu={mu}, gamma0={gamma0}")
        self.n = n
        self.mu = float(mu)
        self.gamma0 = float(gamma0)
        self.k = 0
        self.gamma = self.gamma0
        self.lam = 1.0

    def step(self) -> tuple[float, float, float]:
        """Advance one iteration; returns (alpha_k, gamma_{k+1}, beta_k)."""
        gamma_k = self.gamma
        alpha = _alpha_root(gamma_k, self.mu, self.n)
        gamma_next = (1.0 - alpha) * gamma_k + alpha * self.mu
        beta = alpha * self.mu / gamma_next
        self.k += 1
        self.gamma = gamma_next
        self.lam *= 1.0 - alpha
        return alpha, gamma_next, beta

    def history(self, steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(alphas, gammas, betas, lambdas)`` of a fresh copy of this schedule
        for k < steps (gammas and lambdas also at k = steps); it does not move.

        The compiled ``schedule_history`` replays :meth:`step` with the same
        operations in the same order, so both backends give the same bits;
        where it stops at a failing root, the Python replay raises the error.
        """
        if steps < 0:
            raise ValueError("cannot replay a negative number of steps")
        lib = native.library()
        if lib is not None:
            alphas, betas = np.empty(steps), np.empty(steps)
            gammas, lams = np.empty(steps + 1), np.empty(steps + 1)
            if lib.schedule_history(float(self.n), self.mu, self.gamma0, steps,
                                    *(h.ctypes.data for h in (alphas, gammas, betas, lams))) < 0:
                return alphas, gammas, betas, lams
        fresh = ApcgSchedule(self.n, self.mu, self.gamma0)
        alphas, betas = [0.0] * steps, [0.0] * steps
        gammas, lams = [fresh.gamma] * (steps + 1), [fresh.lam] * (steps + 1)
        for k in range(steps):
            alphas[k], gammas[k + 1], betas[k] = fresh.step()
            lams[k + 1] = fresh.lam
        return np.array(alphas), np.array(gammas), np.array(betas), np.array(lams)

    def rate_bound(self, k):
        """min{(1 - sqrt(mu)/n)^k, (2n / (2n + k sqrt(gamma0)))^2}, k an int or an array."""
        linear = (1.0 - math.sqrt(self.mu) / self.n) ** k
        sub = (2.0 * self.n / (2.0 * self.n + k * math.sqrt(self.gamma0))) ** 2
        return np.minimum(linear, sub)


def theta_rows(sched: ApcgSchedule, steps: int) -> Iterator[np.ndarray]:
    """Yield theta^{(0)}, ..., theta^{(steps)}, the coefficients expressing
    x^{(k)} as a convex combination of z^{(0..k)}, from one replay of the
    schedule.

    The recursion starts from theta^{(0)} = (1,) and theta^{(1)} =
    (1 - n a_0, n a_0) and appends

        theta^{(k+1)}_{k+1} = n a_k,
        theta^{(k+1)}_k     = (1 - mu/n) (a_k g_k + n a_{k-1} g_{k+1}) /
                              (a_k g_k + g_{k+1}) - (1 - a_k) g_k / (n a_k),
        theta^{(k+1)}_l     = (1 - mu/n) g_{k+1} / (a_k g_k + g_{k+1}) *
                              theta^{(k)}_l              for l < k,

    writing a for alpha and g for gamma.  Each row is a new array.  The
    coefficients are nonnegative and sum to one; they are diagnostic only and
    never used by the solvers.  A negative ``steps`` raises ``ValueError``
    when the generator is first advanced.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    alphas, gammas, _, _ = (h.tolist() for h in sched.history(steps))
    n, mu = sched.n, sched.mu
    theta = np.array([1.0])
    yield theta
    for j in range(steps):
        a_j = alphas[j]
        if j == 0:
            theta = np.array([1.0 - n * a_j, n * a_j])
        else:
            a_prev = alphas[j - 1]
            g_j = gammas[j]
            g_next = gammas[j + 1]
            denom = a_j * g_j + g_next
            scale = (1.0 - mu / n) * g_next / denom
            mid = ((1.0 - mu / n) * (a_j * g_j + n * a_prev * g_next) / denom
                   - (1.0 - a_j) * g_j / (n * a_j))
            theta = np.concatenate([scale * theta[:-1], [mid, n * a_j]])
        yield theta
