"""Every function and method in ``src/apcg`` runs on the program's surface.

``tests/test_callers.py`` matches names, so a method that shares its name
with a called one slips through it.  This guard runs the surface itself in
a fresh interpreter under a ``sys.settrace`` function that records ``call``
events only (it returns None, so no line is traced).  It is installed
with ``threading.settrace`` too, so Python code that runs only on a thread
the program starts would count as well.  The surface is:

* ``apcg-bench run`` with all four solvers, on synthetic, LIBSVM and ``.gz``
  input, on both losses, on the compiled kernels and on the Python ones
  (``native.library`` patched to return None);
* one malformed LIBSVM file, which exits 2 with an ``error:`` line;
* ``apcg-bench check``.

The LIBSVM inputs are written under the trace with ``data.write_libsvm``,
as the benchmark writes its own.  A definition that never ran fails the
test unless ``ALLOWED`` names it with the reason that keeps it.
"""

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from apcg import native

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "apcg"

# module.qualname -> why it may never run on the surface
ALLOWED = {
    "erm.complexity_estimate": "ROADMAP item 3: apcg-bench rates",
    "erm.ErmDualState.check_consistency": "ROADMAP item 9: --check-drift",
    "core.SeparableRegularizer.prox_block": "abstract",
    "core.SeparableRegularizer.eval_full": "abstract",
    "native._build": "runs only on a cold kernel cache",
    "data.SparseColMatrix.__reduce__": "refuses to pickle or copy a matrix",
}
COLD_CACHE_ONLY = {"native._build"}  # may run too, when the cache is cold

SURFACE = r"""
import contextlib, gzip, io, json, os, sys, threading

package = os.path.realpath(sys.argv[1]) + os.sep
codes = set()

def record(frame, event, arg):
    codes.add(frame.f_code)  # returns None: no line events in this frame

sys.settrace(record)
threading.settrace(record)  # code on threads the program starts counts too

from apcg import cli, native
from apcg.data import synth_binary, write_libsvm

def main(*argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(list(argv))
    return code, err.getvalue()

A, labels = synth_binary(40, 12, 0.4, seed=3, min_nnz=1)
write_libsvm(A, labels, "data.txt")
with open("data.txt", "rb") as fh, gzip.open("data.txt.gz", "wb") as gz:
    gz.write(fh.read())
with open("bad.txt", "w") as fh:
    fh.write("+1 1:0.5\n-1 2:abc\n")

runs = []
for backend in ("c", "python"):
    if backend == "python":
        native.library = lambda: None
    for loss in ("smoothed_hinge", "square"):
        for source in (["--synthetic", "40,12,0.4,3"], ["--data", "data.txt"],
                       ["--data", "data.txt.gz"]):
            runs.append(main(
                "run", *source, "--loss", loss, "--lambda", "1e-2", "--epochs", "4",
                "--tol", "1e-4", "--solver", "apcg", "--solver", "sdca",
                "--solver", "rpcg", "--solver", "afg", "--out", f"out-{backend}"))
    if backend == "c":
        bad = main("run", "--data", "bad.txt", "--out", "out-bad")
        check = main("check")
sys.settrace(None)
threading.settrace(None)

ran = sorted({(os.path.relpath(c.co_filename, package), c.co_firstlineno) for c in codes
              if os.path.realpath(c.co_filename).startswith(package)})
print(json.dumps({"runs": runs, "bad": bad, "check": check, "ran": ran}))
"""


def definitions(module: str, tree: ast.AST) -> dict[tuple[str, int], str]:
    """``module.qualname`` (``f.<locals>.g`` for a nested function) of every
    function and method, keyed by its code object's ``(module,
    co_firstlineno)``: the line of its first decorator, else of its def."""
    found = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[(module, first)] = f"{module}.{prefix}{child.name}"
                walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(tree, "")
    return found


def test_every_function_in_src_runs_on_the_cli_surface(tmp_path, c_kernels):
    if not hasattr(native.library(), "synth_columns"):
        pytest.skip("synth_columns is not built here, so its caller cannot run")
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        defined.update(definitions(path.stem, ast.parse(path.read_text())))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SURFACE, str(PACKAGE)], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=300)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["runs"] == [[0, ""]] * 12
    code, err = result["bad"]
    assert code == 2 and err.startswith("error: line 2: ") and err.count("\n") == 1
    assert result["check"] == [0, ""]
    ran = {(Path(file).stem, line) for file, line in result["ran"]}
    never_ran = {name for key, name in defined.items() if key not in ran}
    assert never_ran - ALLOWED.keys() == set(), "defined in src/apcg but never ran"
    assert ALLOWED.keys() - never_ran <= COLD_CACHE_ONLY, "allowed but ran"
    print(f"[PASS] run surface ({elapsed:.1f} s, {len(defined)} definitions)")
