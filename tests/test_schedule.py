import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apcg import native
from apcg.errors import ConfigurationError
from apcg.instances import diag_dominant_quadratic
from apcg.schedule import ApcgSchedule, theta_rows

import oracles

# the grid of `apcg-bench check`'s schedule line: (n, mu, gamma0)
CHECK_GRID = [(n, mu, gamma0) for n in (1, 2, 10, 1000) for mu in (0.0, 1e-6, 0.01, 1.0)
              for gamma0 in (max(mu, 0.1), 1.0)]


def first_alpha(gamma: float, mu: float, n: int) -> float:
    """The root of n^2 a^2 = (1 - a) gamma + a mu, as a schedule started at
    gamma0 = gamma takes its first step."""
    return ApcgSchedule(n, mu, gamma).step()[0]


def test_solve_alpha_constant_schedule_point():
    # gamma = mu makes the root exactly sqrt(mu)/n
    assert first_alpha(0.25, 0.25, 5) == pytest.approx(0.1, abs=1e-15)


def test_solve_alpha_golden_ratio_case():
    # gamma=1, mu=0, n=1: alpha^2 + alpha - 1 = 0
    want = (math.sqrt(5.0) - 1.0) / 2.0
    assert first_alpha(1.0, 0.0, 1) == pytest.approx(want, abs=1e-15)


def test_solve_alpha_hits_cap():
    # gamma=1, mu=1, n=2: 4 a^2 = 1
    assert first_alpha(1.0, 1.0, 2) == pytest.approx(0.5, abs=1e-16)
    # alpha = 1/n at mu = gamma = 1, the top of (0, 1/n]
    for n in (1, 2, 10, 1000):
        assert first_alpha(1.0, 1.0, n) == 1.0 / n


def test_solve_alpha_residual_small():
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(500):
        mu = rng.uniform(0.0, 1.0)
        gamma = rng.uniform(mu, 1.0)
        if gamma == 0.0:
            continue
        n = int(rng.integers(1, 2000))
        a = first_alpha(gamma, mu, n)
        resid = abs(n * n * a * a - (1 - a) * gamma - a * mu)
        assert resid <= 1e-14
        assert 0.0 < a <= 1.0 / n


def test_solve_alpha_input_validation():
    # (gamma, mu, n) outside 0 <= mu <= gamma <= 1, gamma > 0, n >= 1: the
    # schedule rejects them before any root is taken
    for gamma, mu, n in ((0.0, 0.0, 3), (1.1, 0.0, 3), (0.5, -0.1, 3), (0.5, 2.0, 3),
                         (0.5, 0.1, 0), (math.nan, 0.1, 3), (0.5, math.nan, 3),
                         (0.5, 0.1, -2)):
        with pytest.raises(ConfigurationError):
            ApcgSchedule(n, mu, gamma)


def test_history_is_the_step_sequence_and_leaves_the_schedule_alone():
    for n, mu, gamma0 in CHECK_GRID:
        sched = ApcgSchedule(n, mu, gamma0)
        sched.step()
        alphas, gammas, betas, lambdas = sched.history(300)
        assert sched.k == 1
        assert (alphas.size, gammas.size, betas.size, lambdas.size) == (300, 301, 300, 301)
        fresh = ApcgSchedule(n, mu, gamma0)
        assert (gammas[0], lambdas[0]) == (fresh.gamma, fresh.lam) == (gamma0, 1.0)
        for k in range(300):
            assert fresh.step() == (alphas[k], gammas[k + 1], betas[k])
            assert fresh.lam == lambdas[k + 1]
    assert [h.size for h in ApcgSchedule(3, 0.0, 1.0).history(0)] == [0, 1, 0, 1]


def replay(kernels, n, mu, gamma0, steps):
    """``history(steps)`` on the named backend, or the error it raised."""
    saved = native.library
    if kernels == "python":
        native.library = lambda: None
    try:
        return ApcgSchedule(n, mu, gamma0).history(steps)
    except RuntimeError as exc:
        return repr(exc)
    finally:
        native.library = saved


def same_bits(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(a, b))


def test_history_is_bitwise_the_same_on_both_backends_on_the_check_grid(c_kernels):
    for n, mu, gamma0 in CHECK_GRID:
        got = replay("c", n, mu, gamma0, 10_000)
        assert not isinstance(got, str), got
        assert same_bits(got, replay("python", n, mu, gamma0, 10_000)), (n, mu, gamma0)


@st.composite
def schedules(draw):
    n = draw(st.integers(1, 5000))
    mu = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    gamma0 = draw(st.one_of(st.just(mu), st.just(1.0), st.floats(mu, 1.0)))
    if gamma0 == 0.0:
        gamma0 = 1.0
    return n, mu, gamma0, draw(st.integers(0, 400))


@settings(max_examples=200, deadline=None)
@given(schedules())
@example((1, 0.0, 1.0, 0))
@example((1, 0.0, 1.0, 1))
@example((1, 0.36, 0.36, 50))     # gamma0 = mu: the constant schedule
@example((7, 0.36, 0.36, 1))
@example((1, 1.0, 1.0, 30))       # alpha = 1/n = 1 from the first step
@example((1000, 1.0, 1.0, 0))
@example((3, 1.0 - 3 * 2**-53, 1.0 - 2**-53, 5))  # the root rounds above 1/n: snapped
@example((10**200, 0.0, 1.0, 3))  # 4 n^2 overflows: the root collapses at k = 0
@example((2**70 + 1, 1e-300, 1e-300, 2))  # beta_k underflows to zero
def test_history_backends_agree(case):
    if native.library() is None:
        pytest.skip(f"compiled kernels unavailable: {native.backend()}")
    n, mu, gamma0, steps = case
    got = replay("c", n, mu, gamma0, steps)
    assert same_bits(got, replay("python", n, mu, gamma0, steps))
    if not isinstance(got, str):
        assert [h.size for h in got] == [steps, steps + 1, steps, steps + 1]


@pytest.mark.parametrize("kernels", ["c_kernels", "python_kernels"])
def test_history_failures_raise_the_python_error(request, kernels):
    request.getfixturevalue(kernels)
    # at n = 10^200, 4 n^2 overflows and the first root is 2 / inf = 0
    with pytest.raises(RuntimeError, match="^alpha root collapsed to zero$"):
        ApcgSchedule(10**200, 0.0, 1.0).history(3)
    assert [h.size for h in ApcgSchedule(10**200, 0.0, 1.0).history(0)] == [0, 1, 0, 1]


@pytest.mark.parametrize("kernels", ["c_kernels", "python_kernels"])
def test_history_rejects_negative_steps(request, kernels):
    request.getfixturevalue(kernels)
    with pytest.raises(ValueError):
        ApcgSchedule(3, 0.0, 1.0).history(-2)
    with pytest.raises(ValueError):
        ApcgSchedule(3, 0.0, 1.0).history(-1)


def test_rate_bound_array_form_drifts_at_most_one_ulp():
    # rate_bound evaluates numpy's power on an array of k; it may round
    # differently from Python's scalar ``**`` (measured <= 2.2e-16 relative
    # on this grid).  Below the smallest normal double an ulp is absolute,
    # so the drift is measured against max(|want|, tiny).
    tiny = np.finfo(float).tiny
    ks = np.arange(10_001)
    for n, mu, gamma0 in CHECK_GRID:
        sched = ApcgSchedule(n, mu, gamma0)
        got = sched.rate_bound(ks)
        want = np.array([min((1.0 - math.sqrt(mu) / n) ** k,
                             (2.0 * n / (2.0 * n + k * math.sqrt(gamma0))) ** 2)
                         for k in range(ks.size)])
        assert np.all(np.abs(got - want) <= 4.5e-16 * np.maximum(want, tiny))
        # an int k keeps Python's scalar arithmetic
        assert sched.rate_bound(17) == want[17]


def test_schedule_constant_when_gamma0_equals_mu():
    mu = 0.36
    n = 6
    sched = ApcgSchedule(n, mu, mu)
    for _ in range(50):
        alpha, gamma_next, beta = sched.step()
        assert alpha == pytest.approx(math.sqrt(mu) / n, abs=1e-15)
        assert beta == pytest.approx(alpha, abs=1e-15)
        assert gamma_next == pytest.approx(mu, abs=1e-15)


def test_schedule_beta_zero_when_mu_zero():
    sched = ApcgSchedule(4, 0.0, 1.0)
    for _ in range(30):
        _, _, beta = sched.step()
        assert beta == 0.0


def test_schedule_lambda4_bound_example():
    # mu=0, gamma0=1, n=2: lambda_4 <= (2n/(2n+4))^2 = 0.25
    sched = ApcgSchedule(2, 0.0, 1.0)
    lambdas = sched.history(4)[3]
    assert lambdas[4] <= 0.25
    assert sched.rate_bound(4) == pytest.approx(0.25)


def test_schedule_rejects_bad_gamma0():
    with pytest.raises(ConfigurationError):
        ApcgSchedule(3, 0.5, 0.4)  # gamma0 < mu
    with pytest.raises(ConfigurationError):
        ApcgSchedule(3, 0.0, 0.0)
    with pytest.raises(ConfigurationError):
        ApcgSchedule(3, 0.0, 1.2)


@pytest.mark.parametrize("n", [1, 2, 10, 1000])
@pytest.mark.parametrize("mu", [0.0, 1e-6, 0.01, 1.0])
def test_schedule_sequence_properties(n, mu):
    # 1000-step version of the acceptance grid; the full 10^4-step sweep
    # runs in the acceptance module
    for gamma0 in (max(mu, 0.1), 1.0):
        sched = ApcgSchedule(n, mu, gamma0)
        lo = math.sqrt(mu) / n
        prev_alpha, prev_gamma = math.inf, math.inf
        lambdas = [sched.lam]
        for k in range(1000):
            alpha, gamma_next, _ = sched.step()
            lambdas.append(sched.lam)
            assert lo * (1 - 1e-12) <= alpha <= (1.0 / n) * (1 + 1e-12)
            assert mu * (1 - 1e-12) <= gamma_next <= 1.0 + 1e-12
            assert alpha <= prev_alpha * (1 + 1e-12)
            assert gamma_next <= prev_gamma * (1 + 1e-12)
            resid = abs(gamma_next - (n * alpha) ** 2)
            assert resid <= 1e-12 * gamma_next
            prev_alpha, prev_gamma = alpha, gamma_next
        for k in range(0, 1001, 50):
            assert lambdas[k] <= sched.rate_bound(k) * (1 + 1e-12)


def test_theta_k1_is_two_point_combination():
    sched = ApcgSchedule(3, 0.2, 1.0)
    theta = list(theta_rows(sched, 1))[1]
    a0 = sched.history(1)[0][0]
    assert theta == pytest.approx([1 - 3 * a0, 3 * a0], abs=1e-15)


def test_theta_zeroth_is_one():
    sched = ApcgSchedule(3, 0.0, 1.0)
    (theta,) = theta_rows(sched, 0)
    assert theta == pytest.approx([1.0])


THETA_GRID = [(1, 0.0, 1.0), (2, 0.3, 1.0), (7, 0.0, 0.5), (11, 0.05, 0.1),
              (40, 1e-4, 1.0)]


@pytest.mark.parametrize("n,mu,gamma0", THETA_GRID)
def test_theta_nonnegative_and_sums_to_one(n, mu, gamma0):
    if gamma0 < mu:
        gamma0 = mu
    sched = ApcgSchedule(n, mu, gamma0)
    for k, theta in enumerate(theta_rows(sched, 200)):
        if k not in (1, 2, 5, 20, 100, 200):
            continue
        assert theta.shape == (k + 1,)
        assert theta.min() >= -1e-12
        assert abs(theta.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("kernels", ["c_kernels", "python_kernels"])
def test_theta_rows_are_bitwise_the_per_k_reference(request, kernels):
    request.getfixturevalue(kernels)
    # the grid of `apcg-bench check`'s theta line, its combination line's
    # schedule and THETA_GRID: n = 1, mu = 0 and gamma0 = mu are all in it
    grid = [(n, mu, gamma0) for n in (1, 3, 17)
            for mu, gamma0 in ((0.0, 1.0), (0.04, 0.5), (0.3, 0.3))]
    grid.append((8, diag_dominant_quadratic(8, seed=3, l1=0.05).problem.smooth.mu, 1.0))
    grid += [(n, mu, max(gamma0, mu)) for n, mu, gamma0 in THETA_GRID]
    for n, mu, gamma0 in grid:
        sched = ApcgSchedule(n, mu, gamma0)
        rows = list(theta_rows(sched, 200))
        assert len(rows) == 201
        for k, theta in enumerate(rows):
            want = oracles.theta_coefficients_reference(sched, k)
            assert theta.dtype == want.dtype and theta.tobytes() == want.tobytes(), (n, mu, k)


def test_theta_rows_reject_negative_steps():
    with pytest.raises(ValueError):
        next(theta_rows(ApcgSchedule(3, 0.0, 1.0), -1))
