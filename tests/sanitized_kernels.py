"""Every compiled kernel on edge shapes, in a build with sanitizers.

Usage: ``python tests/sanitized_kernels.py WORK_DIR`` with ``apcg``
importable and the shared ASan and UBSan runtimes in ``LD_PRELOAD``, as
``tests/test_native.py`` runs it.  The kernels are built by ``apcg.native``
with SANITIZE for flags into ``$XDG_CACHE_HOME/apcg``; the sanitizers end
the process at the first invalid access or undefined operation.  It exits
0 when every kernel ran and every result checked here holds.
"""

import os
import sys
from pathlib import Path

import numpy as np

from apcg import native
from apcg.baselines import afg_start, afg_step, sdca_epoch
from apcg.cli import KNOWN_SOLVERS, check_invariants, run_solver_trace
from apcg.data import _parse_compiled, parse_libsvm, synth_binary, write_libsvm
from apcg.erm import DUAL_DOMAIN_ATOL, ErmDualState, ErmProblem, _ReportPass
from apcg.errors import ParseError
from apcg.schedule import ApcgSchedule
from apcg.solvers import BlockSampler

SANITIZE = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
            "-ffp-contract=off", "-fPIC", "-shared")


def problems():
    """Both losses on n = 1, 2 and 3, on a matrix with empty columns, and on
    one that renormalizes its scale every 140 epochs or so."""
    shapes = [synth_binary(n, 6, 0.5, seed=n, min_nnz=1) for n in (1, 2, 3)]
    shapes.append(synth_binary(40, 12, 0.05, seed=3, min_nnz=0))
    assert (np.diff(shapes[-1][0].indptr) == 0).any()
    for A, labels in shapes:
        yield ErmProblem.smoothed_hinge(A, labels, lam=1e-2)
        yield ErmProblem.ridge(A, labels, lam=1e-2)
    A, labels = synth_binary(5, 4, 0.5, seed=3, min_nnz=1)
    yield ErmProblem.ridge(A, labels, lam=10.0)


def solvers() -> None:
    """Every solver on every problem, and compiled epochs on state arrays
    replaced (and the old ones freed) between epochs, which must be bound
    again rather than written through their stale addresses."""
    for prob in problems():
        for solver in KNOWN_SOLVERS:
            run = run_solver_trace(prob, solver, epochs=300, seed=1, tol=None)
            assert np.isfinite(run.x).all(), solver
        state = ErmDualState(prob, seed=0)
        x, w = np.zeros(prob.n), np.zeros(prob.d)
        sampler = BlockSampler(prob.n, 0)
        for _ in range(3):
            state.epoch()
            state.v, state.q = state.v.copy(), state.q.copy()
            sdca_epoch(prob, x, w, sampler)
            x, w = x.copy(), w.copy()
        state.check_consistency()


def afg() -> None:
    """Compiled AFG trials on every problem, bitwise against the numpy ones:
    the first trial of each iteration, which computes the gradient, and,
    from a step made a million times too long, backtracks, which reuse it."""
    library = native.library
    lib = library()
    for prob in problems():
        runs = []
        for kernels in (lib, None):
            native.library = lambda kernels=kernels: kernels
            try:
                state = afg_start(prob)
                afg_step(prob, state)
                state.step *= 1e6
                for _ in range(4):
                    afg_step(prob, state)
            finally:
                native.library = library
            runs.append((state.x.tobytes(), state.ax.tobytes(), state.backtracks))
        assert runs[0] == runs[1]
        # on one example the first step lands on the optimum, where every
        # later trial passes
        assert runs[0][2] > 0 or prob.n == 1


def reports() -> None:
    """One report pass per problem across many rows, reusing its buffers: on
    points within the box's rounding slack, where it clips, and outside it,
    where it stops at the first or the last column, after which the pass
    serves the next row."""
    for prob in problems():
        row = _ReportPass(prob)
        x = np.full(prob.n, 1.0 + DUAL_DOMAIN_ATOL / 2)
        x[::2] = -DUAL_DOMAIN_ATOL / 2
        ax = prob.matrix.dot(np.clip(x, 0.0, 1.0))
        row.post(x, ax)
        want = row.finish(0)
        assert np.isfinite(want.gap)
        for _ in range(20):
            row.post(x.copy(), ax.copy())
        assert row.finish(0) == want
        if prob.loss.dual_box is None:
            continue
        for j in (0, -1):
            bad = x.copy()
            bad[j] = 1.5
            row.post(bad, prob.matrix.dot(np.clip(bad, 0.0, 1.0)))
            try:
                row.finish(0)
                raise AssertionError("a point outside the box was reported")
            except ValueError:
                pass
            row.post(x, ax)
            assert row.finish(0) == want


def repeated_column() -> None:
    """Epochs forced through sampler.take onto runs of one column."""
    A, labels = synth_binary(60, 20, 0.2, seed=4, min_nnz=1)
    blocks = np.repeat(np.arange(12), 5)
    for prob in (ErmProblem.smoothed_hinge(A, labels, lam=1e-3),
                 ErmProblem.ridge(A, labels, lam=1e-3)):
        state = ErmDualState(prob, seed=0)
        state.sampler.take = lambda k: blocks
        x, w = np.zeros(prob.n), np.zeros(prob.d)
        sampler = BlockSampler(prob.n, 0)
        sampler.take = lambda k: blocks
        for _ in range(4):
            state.epoch()
            sdca_epoch(prob, x, w, sampler)
        state.check_consistency()


# (value token, whether the tokenizer takes it): Clinger's path, ties, 19-
# and 20-digit mantissas, Eisel-Lemire's second product (1e126 and the two
# 19-digit ones), both ends of the table of powers (1e308, 1e-342), and
# each fallback to strtod: over 19 digits, an exponent below -342 or above
# 308, a subnormal and an overflow after rounding
VALUE_TOKENS = [(b"1.5", True), (b"-0.25e-3", True), (b"9007199254740992e-22", True),
                (b"9007199254740993", True), (b"9007199254740991.5", True),
                (b"1234567890123456789", True), (b"-9999999999999999999e-300", True),
                (b"9.999999999999999999", True), (b"1e126", True),
                (b"5686195766191664401e64", True), (b"7621798590907887004e-140", True),
                (b"12345678901234567890", True), (b"0.000000000000000000000000001e1", True),
                (b"1234567890123456789012e-300", True), (b"1e308", True), (b"1e-342", False),
                (b"1e-343", False), (b"1e309", False),
                (b"1e-310", False), (b"2.2250738585072013e-308", True),
                (b"1.7976931348623157e308", True), (b"1.7976931348623159e308", False),
                (b"0e999", True)]


def libsvm(work_dir: Path) -> None:
    """A round trip, input the tokenizer declines, malformed input, and
    values down each path of the tokenizer's reading."""
    for token, taken in VALUE_TOKENS:
        got = _parse_compiled(native.library(), b"+1 1:" + token + b"\n")
        assert (got is not None) == taken, token
        if taken:
            assert got[0].values.tolist() == [v for v in [float(token)] if v != 0.0], token
    A, labels = synth_binary(30, 9, 0.3, seed=5, min_nnz=0)
    path = work_dir / "round_trip.libsvm"
    write_libsvm(A, labels, path)
    B, got = parse_libsvm(path)
    assert np.array_equal(got, labels)
    for name in ("indptr", "indices", "values"):
        assert np.array_equal(getattr(B, name), getattr(A, name)), name
    declined = [b"1.0 1:1\n", b"+1 1:.5\r\n", b"-1 1:1e-320\n", b"1 1:" + b"1" * 80 + b"\n"]
    malformed = [b"1 2:1 1:1\n", b"+1 0:1\n", b"2 1:1\n", b"1 1:\n", b"1 1:1e999\n", b"\n",
                 b"1 1:1\n\n", b"1 " + b"9" * 40 + b":1\n", b"1 1:1\x00\n", b"1 1:1 1:2\n",
                 b"1 1:nan\n", b"1 1:1\xc3\xa9\n", b"1 1:1:2\n"]
    for k, text in enumerate(declined + malformed):
        path = work_dir / f"input{k}.libsvm"
        path.write_bytes(text)
        try:
            B, _ = parse_libsvm(path)
            assert k < len(declined) and B.n == 1, text
        except ParseError:
            assert k >= len(declined), text


def synthetic() -> None:
    """Edge shapes, the bitmap read at its word edges (d = 63, 64, 65 at
    k = d) and the rows sorted instead (d = 20000, where 313 words sort up
    to k = 30)."""
    for n, d, sparsity, min_nnz in ((0, 3, 0.5, 0), (1, 1, 1.0, 0), (3, 5, 0.01, 0),
                                    (4, 5, 1.0, 5), (3, 20000, 0.1, 0), (3, 20000, 0.001, 1),
                                    (2, 63, 1.0, 0), (2, 64, 1.0, 0), (2, 65, 1.0, 0),
                                    (3, 20000, 1e-6, 30), (3, 20000, 1e-6, 31)):
        A, labels = synth_binary(n, d, sparsity, seed=7, min_nnz=min_nnz)
        assert A.indptr.size == n + 1 and labels.size == n


def schedule() -> None:
    for n, mu, gamma0 in ((1, 0.0, 1.0), (7, 1e-3, 0.5), (100, 0.25, 0.25)):
        for steps in (0, 1, 500):
            alphas, gammas, betas, lams = ApcgSchedule(n, mu, gamma0).history(steps)
            assert alphas.size == steps and lams.size == steps + 1


def main() -> None:
    os.environ.pop("LD_PRELOAD", None)  # the compiler runs without the runtimes
    native.CFLAGS = SANITIZE
    assert native.library() is not None, native.backend()
    solvers()
    afg()
    reports()
    repeated_column()
    libsvm(Path(sys.argv[1]))
    synthetic()
    schedule()
    assert all(check.passed for check in check_invariants())


if __name__ == "__main__":
    main()
