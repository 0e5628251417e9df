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
from apcg.cli import main
from apcg.data import synth_binary
from apcg.erm import ErmDualState, ErmProblem

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
    with pytest.raises(IndexError):
        native.block_indices([4], 4)


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
