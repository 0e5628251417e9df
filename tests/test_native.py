"""The compiled-kernel loader: build, cache, fallback and argument checks."""

import ctypes
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import apcg
from apcg import data, native
from apcg.baselines import sdca_epoch
from apcg.cli import main
from apcg.data import synth_binary
from apcg.erm import ErmDualState, ErmProblem
from apcg.solvers import BlockSampler

import oracles

SRC = str(Path(apcg.__file__).parent.parent)


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """An unloaded loader whose cache is an empty directory."""
    monkeypatch.setattr(native, "_lib", native._UNLOADED)
    monkeypatch.setattr(native, "_reason", "")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "apcg"


def test_build_failure_falls_back_to_python(fresh_loader, tmp_path, monkeypatch):
    broken = tmp_path / "broken.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(native, "SOURCE", broken)
    assert native.library() is None
    assert native.backend().startswith("python (")
    assert "exited" in native.backend()
    assert not list(fresh_loader.glob("*"))  # no library, no temporary left


def test_unwritable_cache_falls_back_to_python(fresh_loader, tmp_path, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))  # a file, not a directory
    assert native.library() is None
    assert native.backend().startswith("python (")


def test_library_is_built_once_then_loaded(fresh_loader, c_kernels):
    lib = native.library()
    built = list(fresh_loader.glob("kernels-*.so"))
    assert len(built) == 1 and native.backend() == "c"
    assert native.library() is lib
    mtime = built[0].stat().st_mtime_ns
    native._lib = native._UNLOADED
    assert native.library() is not None
    assert built[0].stat().st_mtime_ns == mtime


def test_without_numpys_random_archive_only_synth_columns_is_left_out(
        fresh_loader, c_kernels, monkeypatch, tmp_path):
    if not hasattr(native.library(), "synth_columns"):
        pytest.skip(f"numpy ships no {native.RANDOM_ARCHIVE.name}")
    want = synth_binary(200, 30, 0.2, seed=5, min_nnz=1)
    linked = set(fresh_loader.glob("kernels-*.so"))

    monkeypatch.setattr(native, "RANDOM_ARCHIVE", tmp_path / "missing.a")
    monkeypatch.setattr(native, "_lib", native._UNLOADED)
    lib = native.library()
    assert native.backend() == "c" and not hasattr(lib, "synth_columns")
    assert all(hasattr(lib, name) for name in native.SIGNATURES if name != "synth_columns")
    unlinked = set(fresh_loader.glob("kernels-*.so")) - linked
    assert len(unlinked) == 1 and len(linked) == 1

    calls = []
    python = data._synth_columns_python
    monkeypatch.setattr(data, "_synth_columns_python",
                        lambda *args: calls.append(1) or python(*args))
    A, labels = synth_binary(200, 30, 0.2, seed=5, min_nnz=1)
    assert calls == [1]
    for name in ("indptr", "indices", "values"):
        assert getattr(A, name).tobytes() == getattr(want[0], name).tobytes()
    assert labels.tobytes() == want[1].tobytes()
    x = np.linspace(-1, 1, A.n)
    want_ax = np.bincount(A.indices, weights=A.values * x[oracles.col_ids(A)],
                          minlength=A.d)
    assert A.dot(x).tobytes() == want_ax.tobytes()  # through the new library's csc_dot


def run_python(code, env):
    return subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def test_two_processes_building_into_one_empty_cache(tmp_path, c_kernels):
    code = (
        "import numpy as np\n"
        "from apcg import native\n"
        "from apcg.data import synth_binary\n"
        "A, _ = synth_binary(300, 40, 0.2, seed=1)\n"
        "x = np.linspace(-1, 1, A.n)\n"
        "cols = np.repeat(np.arange(A.n), np.diff(A.indptr))\n"
        "want = np.bincount(A.indices, weights=A.values * x[cols], minlength=A.d)\n"
        "assert np.array_equal(A.dot(x), want)\n"
        "print(native.backend())\n")
    env = dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(tmp_path))
    procs = [run_python(code, env) for _ in range(2)]
    for p in procs:
        out, err = p.communicate(timeout=120)
        assert p.returncode == 0, err
        assert out.strip() == "c"
    assert [f.suffix for f in (tmp_path / "apcg").iterdir()] == [".so"]


def test_missing_compiler_falls_back_and_says_why(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC, PATH="", XDG_CACHE_HOME=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-m", "apcg.cli", "run", "--synthetic", "40,10,0.5",
         "--solver", "apcg", "--solver", "sdca", "--epochs", "3",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "kernels: python (no C compiler (cc or gcc) on PATH)"


def test_run_reports_the_kernels_it_used(tmp_path, capsys, python_kernels):
    argv = ["run", "--synthetic", "40,10,0.5", "--epochs", "2", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("kernels: python (")


def test_run_reports_compiled_kernels(tmp_path, capsys, c_kernels):
    argv = ["run", "--synthetic", "40,10,0.5", "--epochs", "2", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "kernels: c"


def test_compiled_epoch_rejects_a_replaced_state_array(c_kernels):
    A, labels = synth_binary(30, 8, 0.4, seed=1, min_nnz=1)
    state = ErmDualState(ErmProblem.smoothed_hinge(A, labels, lam=1e-2), seed=0)
    state.v = state.v.astype(np.float32)
    with pytest.raises(ValueError):
        state.epoch()
    state.v = np.zeros(31)
    with pytest.raises(ValueError):
        state.epoch()


def check_arrays_replaced_after_binding() -> None:
    """Replace each array a compiled epoch reads (ErmDualState's six kernel
    arrays; sdca_epoch's x and w_agg and its problem's col_norms_sq and
    anchors) after an epoch by one of the wrong dtype or length, which must
    raise ValueError and leave the state and the sampler as they were, then
    by a valid copy while the replaced array is overwritten with NaN: the
    next epochs must read and write the copy, so the run stays bitwise the
    one that never replaced anything.  It raises AssertionError without
    ``assert`` statements, so it checks under ``python -O`` too."""
    def require(ok, what):
        if not ok:
            raise AssertionError(what)

    A, labels = synth_binary(30, 8, 0.4, seed=1, min_nnz=1)
    prob = ErmProblem.ridge(A, labels, lam=1e-2)
    names = ("ubar_base", "v", "pbar_base", "q", "quad_weight", "anchor_over_n")
    for name in names:
        state, ref = ErmDualState(prob, seed=0), ErmDualState(prob, seed=0)
        state.epoch()
        ref.epoch()
        kept = getattr(state, name)
        for bad in (kept.astype(np.float32), np.zeros(kept.size + 1)):
            setattr(state, name, bad)
            with pytest.raises(ValueError):
                state.epoch()
        copy = kept.copy()
        setattr(state, name, copy)
        kept.fill(np.nan)
        for _ in range(2):
            state.epoch()
            ref.epoch()
        require(getattr(state, name) is copy, name)
        for other in names:
            require(np.array_equal(getattr(state, other), getattr(ref, other)), f"{name}: {other}")
        require(state.scale == ref.scale and state.k == ref.k, name)
    for name in ("x", "w_agg", "col_norms_sq", "anchors"):
        own = ErmProblem.ridge(A, labels, lam=1e-2)  # prob's twin, whose arrays are replaced
        arrays = {"x": np.zeros(prob.n), "w_agg": np.zeros(prob.d)}
        ref = {"x": np.zeros(prob.n), "w_agg": np.zeros(prob.d)}
        sampler, ref_sampler = BlockSampler(prob.n, 3), BlockSampler(prob.n, 3)

        def read():  # the array sdca_epoch reads as name
            return arrays[name] if name in arrays else getattr(own, name)

        def place(a):
            if name in arrays:
                arrays[name] = a
            else:
                setattr(own, name, a)

        sdca_epoch(own, arrays["x"], arrays["w_agg"], sampler)
        sdca_epoch(prob, ref["x"], ref["w_agg"], ref_sampler)
        kept = read()
        for bad in (kept.astype(np.float32), np.zeros(kept.size + 1)):
            place(bad)
            with pytest.raises(ValueError):
                sdca_epoch(own, arrays["x"], arrays["w_agg"], sampler)
        copy = kept.copy()
        place(copy)
        kept.flags.writeable = True  # a ridge problem's anchors are its read-only targets
        kept.fill(np.nan)
        for _ in range(2):
            sdca_epoch(own, arrays["x"], arrays["w_agg"], sampler)
            sdca_epoch(prob, ref["x"], ref["w_agg"], ref_sampler)
        require(read() is copy, name)
        for other in ("x", "w_agg"):
            require(np.array_equal(arrays[other], ref[other]), f"{name}: {other}")


def test_compiled_epochs_rebind_an_array_replaced_after_binding(c_kernels):
    check_arrays_replaced_after_binding()


def test_replaced_arrays_are_rejected_under_python_O(c_kernels):
    # -O strips assert statements: the checks in the epochs must not be ones
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, str(Path(__file__).parent)]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "import sys, test_native; test_native.check_arrays_replaced_after_binding(); "
         "print(sys.flags.optimize)"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip() == "1"


def test_address_checks():
    a = np.zeros(4)
    assert native.address(a, np.float64, 4, "a", writable=True) == a.ctypes.data
    for bad in (np.zeros(3), np.zeros(4, np.float32), np.zeros(8)[::2], [0.0] * 4):
        with pytest.raises(ValueError):
            native.address(bad, np.float64, 4, "a")
    a.flags.writeable = False
    native.address(a, np.float64, 4, "a")
    with pytest.raises(ValueError):
        native.address(a, np.float64, 4, "a", writable=True)
    assert native.block_indices([0, 3], 4).dtype == np.int64
    assert native.block_indices([], 4).size == 0
    for bad in ([4], [-1], [0, 3, -2**63], [2**63 - 1]):
        with pytest.raises(IndexError):
            native.block_indices(bad, 4)
    with pytest.raises(ValueError):
        native.block_indices([[0]], 4)


@pytest.mark.parametrize("kernels", ["c_kernels", "python_kernels"])
def test_both_epochs_check_their_block_indices(request, kernels):
    """An index of -1 or n raises IndexError and a matrix of indices
    ValueError, in the APCG and the SDCA epoch, before any step."""
    request.getfixturevalue(kernels)
    A, labels = synth_binary(30, 8, 0.4, seed=1, min_nnz=1)
    prob = ErmProblem.ridge(A, labels, lam=1e-2)
    for blocks, error in (([-1], IndexError), ([prob.n], IndexError),
                          ([[0, 1]], ValueError)):
        state = ErmDualState(prob, seed=0)
        state.sampler.take = lambda k: np.array(blocks)
        with pytest.raises(error):
            state.epoch()
        assert state.k == 0 and not state.v.any() and not state.q.any()
        x, w = np.zeros(prob.n), np.zeros(prob.d)
        sampler = BlockSampler(prob.n, 0)
        sampler.take = lambda k: np.array(blocks)
        with pytest.raises(error):
            sdca_epoch(prob, x, w, sampler)
        assert not x.any() and not w.any()


def test_signatures_match_the_c_definitions():
    """Every ctypes signature agrees with its kernel's C definition, by arity
    and by type class: ctypes cannot see the C side, so a mismatch would
    pass the wrong bits or corrupt memory silently."""
    source = re.sub(r"/\*.*?\*/", "", native.SOURCE.read_text(), flags=re.S)
    scalar = {"int64_t": ctypes.c_int64, "double": ctypes.c_double, "int": ctypes.c_int}
    result = {"void": None, **scalar}
    for name, argtypes in native.SIGNATURES.items():
        found = re.findall(rf"^(\w+)\s+{name}\s*\(([^)]*)\)\s*\{{", source, flags=re.M)
        assert len(found) == 1, name
        restype, params = found[0]
        want = []
        for param in params.split(","):
            words = param.replace("*", " * ").split()
            want.append(ctypes.c_void_p if "*" in words else scalar[words[-2]])
        assert list(argtypes) == want, name
        assert native.RESTYPES.get(name) is result[restype], name
    assert set(native.RESTYPES) <= set(native.SIGNATURES)
    # every kernel the file exports (each non-static definition) is declared
    exported = re.findall(r"^\w+\s+(\w+)\s*\([^)]*\)\s*\{", source, flags=re.M)
    assert sorted(exported) == sorted(native.SIGNATURES)


@pytest.mark.parametrize("random_library", [False, True], ids=["plain", "npyrandom"])
def test_kernels_compile_clean_under_all_and_extra_warnings(tmp_path, random_library):
    """The kernel file compiles with -Wall -Wextra -Werror, as apcg.native
    builds it with and without numpy's random library, so a sign-compare
    or shift-count slip fails here rather than passing silently."""
    try:
        compiler = native._compiler()
    except native.BuildError as exc:
        pytest.skip(str(exc))
    inputs = [str(native.SOURCE)]
    if random_library:
        if not native.RANDOM_ARCHIVE.is_file():
            pytest.skip(f"numpy ships no {native.RANDOM_ARCHIVE.name}")
        inputs = ["-DAPCG_NPYRANDOM", *inputs, str(native.RANDOM_ARCHIVE)]
    proc = subprocess.run([compiler, *native.CFLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "kernels.so"), *inputs, "-lm"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def sanitizer_runtime(compiler: str, name: str):
    """The path of a sanitizer's shared runtime, or None where it is missing."""
    proc = subprocess.run([compiler, f"-print-file-name={name}"], capture_output=True, text=True)
    path = proc.stdout.strip()
    return path if proc.returncode == 0 and os.path.isabs(path) and os.path.exists(path) else None


def test_every_kernel_runs_clean_under_address_and_undefined_sanitizers(tmp_path):
    """tests/sanitized_kernels.py builds the kernels with ASan and UBSan and
    drives each of them on edge shapes; the sanitizers end the process at the
    first out-of-bounds access (a lookahead past the epoch's indices, say)
    or undefined operation."""
    try:
        compiler = native._compiler()
    except native.BuildError as exc:
        pytest.skip(str(exc))
    runtimes = [sanitizer_runtime(compiler, name) for name in ("libasan.so", "libubsan.so")]
    if None in runtimes:
        pytest.skip(f"{compiler} has no shared ASan or UBSan runtime")
    env = dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(tmp_path),
               LD_PRELOAD=" ".join(runtimes), ASAN_OPTIONS="detect_leaks=0")
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("sanitized_kernels.py")),
                           str(tmp_path)], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "Sanitizer" not in proc.stderr and "runtime error" not in proc.stderr, proc.stderr
    assert len(list((tmp_path / "apcg").glob("kernels-*.so"))) == 1


NO_THREAD_RUN = """
import sys, threading
from apcg import native
from apcg.cli import main

def refuse(thread):
    raise AssertionError(f"the run started the thread {thread.name}")

threading.Thread.start = refuse
assert native.library() is not None, native.backend()
sys.exit(main(["run", "--synthetic", "200,50,0.2", "--lambda", "1e-3", "--epochs", "30",
               "--tol", "1e-3", "--out", sys.argv[1]]))
"""


def test_a_compiled_run_starts_no_thread(tmp_path, c_kernels):
    """Every row of a compiled run is reported on the thread that runs it:
    the four solvers on a small hinge problem, each run to its tol or its
    budget, exit 0 with starting a thread made an error.  The run has a
    fresh process, so no thread that an earlier test started can serve it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", NO_THREAD_RUN, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.splitlines()[-1] == "kernels: c"
