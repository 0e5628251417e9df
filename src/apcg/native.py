"""Loader of the compiled kernels in ``_kernels.c``.

The C file is built on first use with the system C compiler (``cc``, else
``gcc``) and ``-O2 -ffp-contract=off -falign-loops=64 -fPIC -shared`` into
a per-user cache directory, ``$XDG_CACHE_HOME/apcg`` or ``~/.cache/apcg``.
When numpy ships its C distributions as ``numpy/random/lib/libnpyrandom.a``
(position-independent, needing only libm), the build links it and defines
``APCG_NPYRANDOM``, which adds ``synth_columns``; without it that one kernel
is left out, every other kernel loads, and ``data.synth_binary`` runs its
Python loop.  The library's file name is a hash of the source, the flags,
the compiler's identity and the archive's (each a resolved path, size and
modification time, which change with its version and cost no subprocess
to read), so a later process only loads it and a numpy upgrade rebuilds it.
A build writes to a temporary file and renames it into place, so processes
building at the same time cannot see each other's half-written output.

Nothing is loaded at import: :func:`library` loads on its first call.  When
there is no compiler, the build fails or the cache cannot be written, it
returns None, every caller runs its Python reference kernel instead, and
:func:`backend` says why.

A caller that calls a kernel on the same arrays many times validates them
once and keeps their addresses with :func:`rebind`, which builds the
arguments again only when one of the arrays has been replaced.

:func:`submit` hands a job to the report worker, a daemon thread started
by a process's first job, which calls the job's ``run()``.  The one job is
a run's report pass (``erm._ReportPass``), whose ``run`` makes its
``erm_report`` call; ctypes releases the GIL for the call, so the pass
overlaps whatever the posting thread does next.
"""

from __future__ import annotations

import ctypes
import operator
import os
import platform
import shutil
import threading
import zlib
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kernels.c")
# Every loop starts on a 64-byte boundary: otherwise where a kernel's inner
# loop falls depends on unrelated code before it, and csc_dot measured 15%
# slower when the tokenizer's libc imports moved its loop off such a line.
CFLAGS = ("-O2", "-ffp-contract=off", "-falign-loops=64", "-fPIC", "-shared")
RANDOM_ARCHIVE = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"

_P, _I, _D, _INT = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.c_int
SIGNATURES = {
    "csc_dot": (_I, _P, _P, _P, _P, _P),
    "csc_tdot": (_I, _P, _P, _P, _P, _P),
    "csc_col_norms_sq": (_I, _P, _P, _P),
    "erm_report": (_I, _P, _P, _P, _I, _P, _D, _P, _P, _D, _INT, _D, _P, _P, _P, _P),
    "apcg_erm_epoch": (_P, _P, _P, _P, _I, _P, _P, _I, _P, _P, _I, _P, _P,
                       _D, _D, _D, _D, _D, _INT, _D),
    "sdca_epoch": (_P, _P, _P, _P, _I, _P, _P, _P, _P, _D, _D, _INT),
    "schedule_history": (_D, _D, _D, _I, _P, _P, _P, _P),
    "libsvm_parse": (_P, _I, _P, _P, _P, _P, _P),
    "synth_columns": (_P, _I, _I, _D, _I, _P, _P, _P, _P, _P, _I),
}
RESTYPES = {"apcg_erm_epoch": _D, "schedule_history": _I, "libsvm_parse": _INT,
            "synth_columns": _INT, "erm_report": _INT}  # the others return nothing
RANDOM_KERNELS = ("synth_columns",)  # built only with RANDOM_ARCHIVE

_UNLOADED = object()
_lib = _UNLOADED
_reason = ""


class BuildError(Exception):
    """The kernels could not be built or loaded; the message says why."""


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(Path.home(), ".cache")
    return Path(base) / "apcg"


def _compiler() -> str:
    for name in ("cc", "gcc"):
        path = shutil.which(name)
        if path is not None:
            return path
    raise BuildError("no C compiler (cc or gcc) on PATH")


def _identity(path) -> str:
    real = os.path.realpath(path)
    st = os.stat(real)
    return f"{real} {st.st_size} {st.st_mtime_ns}"


def _library_path(compiler: str, archive: bool) -> Path:
    key = b"\0".join([SOURCE.read_bytes(), " ".join(CFLAGS).encode(),
                      f"{_identity(compiler)} {platform.machine()}".encode(),
                      (_identity(RANDOM_ARCHIVE) if archive else "no archive").encode()])
    return _cache_dir() / f"kernels-{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so"


def _build(compiler: str, archive: bool, target: Path) -> None:
    import subprocess
    import tempfile

    inputs = (["-DAPCG_NPYRANDOM", str(SOURCE), str(RANDOM_ARCHIVE)] if archive
              else [str(SOURCE)])
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.stem + "-", suffix=".tmp")
    os.close(fd)
    try:
        proc = subprocess.run([compiler, *CFLAGS, "-o", tmp, *inputs, "-lm"],
                              capture_output=True, text=True, errors="replace")
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or ["no message"])[-1]
            raise BuildError(f"{compiler} exited {proc.returncode}: {last}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load():
    compiler = _compiler()
    archive = RANDOM_ARCHIVE.is_file()
    target = _library_path(compiler, archive)
    if not target.exists():
        _build(compiler, archive, target)
    lib = ctypes.CDLL(str(target))
    for name, argtypes in SIGNATURES.items():
        if name in RANDOM_KERNELS and not hasattr(lib, name):
            continue
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, RESTYPES.get(name)
    return lib


def library():
    """The loaded kernels, or None when they are unavailable (see backend())."""
    global _lib, _reason
    if _lib is _UNLOADED:
        try:
            _lib = _load()
        except (BuildError, OSError, RuntimeError, KeyError) as exc:
            _lib, _reason = None, str(exc) or type(exc).__name__
    return _lib


def backend() -> str:
    """``c``, or ``python (<why the kernels are unavailable>)``."""
    return "c" if library() is not None else f"python ({_reason})"


def address(a: np.ndarray, dtype, size: int, name: str,
            writable: bool = False) -> int:
    """Address of array ``a`` for a kernel that accesses ``size`` elements.

    Raises ValueError unless ``a`` is a C-contiguous ``dtype`` vector of that
    size (and writable, if asked): a kernel trusts every pointer it is given.
    """
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.shape == (size,)
            and a.flags.c_contiguous and (a.flags.writeable or not writable)):
        raise ValueError(f"{name} must be a {'writable ' if writable else ''}contiguous "
                         f"{np.dtype(dtype)} vector of length {size}")
    return a.ctypes.data


def rebind(bound, arrays: tuple, build):
    """``bound`` if it is ``(arrays, args)`` for these very array objects,
    else ``(arrays, build(*arrays))``.

    ``build`` validates the arrays (with :func:`address`) and returns a
    kernel's arguments, so a caller that keeps the pair validates its arrays
    once and a replaced array is validated before any kernel sees its
    address.  The pair holds the arrays, so none of them is freed, or has
    its buffer reallocated by ``resize``, while its address is kept.  What
    changes on an array object in place (a cleared writeable flag, say) is
    not checked again.  Pass None to build."""
    if bound is not None and all(map(operator.is_, arrays, bound[0])):
        return bound
    return arrays, build(*arrays)


def block_indices(blocks, n: int) -> np.ndarray:
    """``blocks`` as an int64 array, raising IndexError outside [0, n)."""
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    if blocks.ndim != 1:
        raise ValueError("block indices must form a vector")
    if blocks.size and (int(blocks.min()) < 0 or int(blocks.max()) >= n):
        raise IndexError(f"block index out of range for {n} coordinates")
    return blocks


_worker = None  # (thread, job queue) of the report worker, once started
_starting = threading.Lock()  # held while a submit checks for the worker


def submit(job) -> None:
    """Have the report worker call ``job.run()``, starting the worker unless
    it runs (a forked child does not inherit it).  The worker holds the job
    until ``run`` returns, so a job dropped meanwhile frees nothing it uses."""
    global _worker
    with _starting:
        if _worker is None or not _worker[0].is_alive():
            import queue  # here, so importing apcg loads nothing for the worker
            jobs = queue.SimpleQueue()
            thread = threading.Thread(target=_serve, args=(jobs,),
                                      name="apcg-report-worker", daemon=True)
            thread.start()
            _worker = thread, jobs
        jobs = _worker[1]
    jobs.put(job)


def _serve(jobs) -> None:
    while True:
        jobs.get().run()  # drops the job, and the arrays it holds, once run
