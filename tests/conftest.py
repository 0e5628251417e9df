import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from apcg import native
from apcg.data import synth_binary
from apcg.erm import ErmProblem
from apcg.instances import diag_dominant_quadratic

import oracles


@pytest.fixture
def python_kernels(monkeypatch):
    """Run the test on the Python reference kernels."""
    monkeypatch.setattr(native, "library", lambda: None)


@pytest.fixture
def c_kernels():
    """Run the test on the compiled kernels; skip where they cannot load."""
    if native.library() is None:
        pytest.skip(f"compiled kernels unavailable: {native.backend()}")


@pytest.fixture(scope="session")
def lasso20():
    return diag_dominant_quadratic(20, seed=1, l1=0.1)


@pytest.fixture(scope="session")
def lasso20_optimum(lasso20):
    """(x*, F*) from a 10^6-iteration proximal-gradient reference run."""
    xstar = oracles.ista_minimize(lasso20.problem, lasso20.lipschitz_full, 1_000_000)
    return xstar, lasso20.problem.objective(xstar)


@pytest.fixture(scope="session")
def hinge200():
    A, labels = synth_binary(200, 50, 0.2, seed=1, min_nnz=1)
    return ErmProblem.smoothed_hinge(A, labels, lam=1e-3, gamma=1.0)


@pytest.fixture(scope="session")
def ridge150():
    A, labels = synth_binary(150, 40, 0.2, seed=2, min_nnz=1)
    return ErmProblem.ridge(A, labels, lam=1e-3)


@pytest.fixture(scope="session")
def hinge200_optimum(hinge200):
    return oracles.hinge_dual_optimum(hinge200)


def report_pass(name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"[PASS] {name}{suffix}")
