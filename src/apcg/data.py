"""Dataset ingestion, sparse column-major storage, synthetic generation.

Examples are stored as the *columns* of a d x n matrix in compressed
sparse column layout, one column per training example, which matches the
per-coordinate access pattern of the dual solvers: the hot loop reads one
column's (indices, values) pair and nothing else.
"""

from __future__ import annotations

import functools
import gzip
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import native
from .errors import LabelError, ParseError


@dataclass(frozen=True, eq=False)
class SparseColMatrix:
    """d x n matrix in CSC layout: column j holds values[indptr[j]:indptr[j+1]].

    Row indices are strictly increasing within each column; stored values
    are finite and nonzero.  The matrix holds exactly three arrays, indptr,
    indices and values, each of its exact size and kept as a contiguous
    read-only view, validated here once, so the compiled kernels trust them
    without re-checking every row index.  A matrix from
    :meth:`scale_columns` shares indptr and indices with its source.
    ``addresses`` holds the three data pointers in that order, so a kernel
    call need not look them up.  A copy made elsewhere would carry dead
    pointers, so a matrix cannot be pickled or copied (``TypeError``).
    """

    d: int
    n: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    addresses: tuple[int, int, int] = field(init=False, repr=False)

    def __post_init__(self):
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        values = np.ascontiguousarray(self.values, dtype=float)
        if indptr.shape != (self.n + 1,) or indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("malformed indptr")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indices.size != values.size:
            raise ValueError("indices and values length mismatch")
        if indices.size:
            if indices.min() < 0 or indices.max() >= self.d:
                raise ValueError("row index out of range")
            # a row that does not exceed the one before it must start a
            # column: be found in the (sorted) indptr
            starts = np.flatnonzero(indices[1:] <= indices[:-1]) + 1
            if not np.array_equal(indptr[np.searchsorted(indptr, starts)], starts):
                raise ValueError("row indices must be strictly increasing per column")
            if not np.all(np.isfinite(values)) or np.any(values == 0.0):
                raise ValueError("stored values must be finite and nonzero")
        for name, arr in (("indptr", indptr), ("indices", indices), ("values", values)):
            arr = arr.view()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "addresses", (
            indptr.ctypes.data, indices.ctypes.data, values.ctypes.data))

    def __reduce__(self):
        raise TypeError("a SparseColMatrix holds raw data pointers for the compiled "
                        "kernels and cannot be pickled or copied")

    def _col_ids(self) -> np.ndarray:
        """The column of every stored entry, for the Python kernels only."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def col(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """(row indices, values) views of column j."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def col_norms_sq(self) -> np.ndarray:
        """Squared Euclidean norm of each column; compiled when the kernels
        load, bitwise equal to the np.add.at form."""
        out = np.zeros(self.n)
        lib = native.library()
        if lib is not None:
            indptr, _, values = self.addresses
            lib.csc_col_norms_sq(self.n, indptr, values, out.ctypes.data)
        else:
            np.add.at(out, self._col_ids(), self.values ** 2)
        return out

    def _product(self, kernel, vec, size: int, out_size: int) -> np.ndarray:
        """Run the compiled csc_dot or csc_tdot on ``vec``."""
        vec = np.ascontiguousarray(vec, dtype=float)
        out = np.zeros(out_size)
        kernel(self.n, *self.addresses,
               native.address(vec, np.float64, size, "operand"), out.ctypes.data)
        return out

    def dot(self, x: np.ndarray) -> np.ndarray:
        """A @ x for a length-n vector x; returns a length-d vector.

        Compiled when the kernels load, bitwise equal to the bincount form.
        """
        lib = native.library()
        if lib is not None:
            return self._product(lib.csc_dot, x, self.n, self.d)
        if self.nnz == 0:
            return np.zeros(self.d)
        weights = self.values * np.repeat(x, np.diff(self.indptr))
        return np.bincount(self.indices, weights=weights, minlength=self.d)

    def tdot(self, w: np.ndarray) -> np.ndarray:
        """A.T @ w for a length-d vector w; returns the n column dots.

        Compiled when the kernels load, bitwise equal to the bincount form.
        """
        lib = native.library()
        if lib is not None:
            return self._product(lib.csc_tdot, w, self.d, self.n)
        if self.nnz == 0:
            return np.zeros(self.n)
        return np.bincount(self._col_ids(), weights=self.values * w[self.indices],
                           minlength=self.n)

    def scale_columns(self, factors: np.ndarray) -> "SparseColMatrix":
        """New matrix with column j multiplied by factors[j] (all nonzero).

        It shares indptr and indices with this matrix; only its values are
        new: one rounded product values[k] * factors[j] per entry.
        """
        factors = np.asarray(factors, dtype=float)
        if factors.shape != (self.n,):
            raise ValueError("need one factor per column")
        if np.any(factors == 0.0) or not np.all(np.isfinite(factors)):
            raise ValueError("column factors must be finite and nonzero")
        values = np.repeat(factors, np.diff(self.indptr))
        values *= self.values
        return SparseColMatrix(d=self.d, n=self.n, indptr=self.indptr,
                               indices=self.indices, values=values)


# the largest feature index on disk: the most the compiled tokenizer reads
# (18 digits), and within int64
MAX_INDEX = 10**18 - 1


def _gunzip(path: Path) -> bytes:
    """The decompressed contents of a ``.gz`` file.  A truncated stream
    raises OSError, as a file that is not gzip at all does."""
    try:
        return gzip.decompress(path.read_bytes())
    except EOFError as exc:
        raise OSError(f"{path}: {exc}") from None


def parse_libsvm(path) -> tuple[SparseColMatrix, np.ndarray]:
    """Parse a LIBSVM file: one example per line, ``label idx:val idx:val ...``.

    Feature indices are 1-based on disk, at most MAX_INDEX and strictly
    increasing within a line (duplicates rejected); labels must be +1 or
    -1.  Examples become the columns of the returned matrix, whose row
    count d is the largest index seen.  Explicitly stored zero values are
    dropped, but still count for d.  A ``.gz`` path is decompressed first.

    The compiled tokenizer (``libsvm_parse`` in ``_kernels.c``) parses the
    common plain form of the format and declines anything else: other
    whitespace or line endings, other spellings of labels or numbers, a
    malformed line, a subnormal or out-of-range value.  Declined input,
    and all input when the kernels are unavailable, goes through the Python
    parser, which accepts it or raises a line-numbered ParseError.  The
    tokenizer rounds a value of at most 19 significant digits itself
    (Eisel-Lemire) and reads any other with ``strtod``; each rounds
    correctly, as ``float()`` does, so both parsers give bitwise-equal
    results on what the tokenizer accepts.
    """
    path = Path(path)
    lib = native.library()
    if lib is None:
        return _parse_python(path)
    data = _gunzip(path) if path.suffix == ".gz" else path.read_bytes()
    parsed = _parse_compiled(lib, data)
    return parsed if parsed is not None else _parse_python(path)


@functools.cache
def _powers_of_five() -> np.ndarray:
    """The table ``libsvm_parse`` rounds values with: for q = -342 ... 308,
    5^q normalised to 128 bits (its top bit set) and truncated, as (high,
    low) uint64 words; a negative power is the reciprocal's truncation plus
    one, the form Eisel-Lemire needs (fast_float's generator, from exact
    integers).  Built once, on the first compiled parse, and read-only."""
    table = np.empty((651, 2), dtype=np.uint64)
    for row, q in enumerate(range(-342, 309)):
        if q < 0:
            power = 5 ** -q
            bits = power.bit_length()  # 5^-q is no power of two: 2^(bits-1) < it
            c = (1 << (bits + 127 if q >= -27 else 2 * bits + 128)) // power + 1
        else:
            c = 5 ** q << 128  # shifted down to 128 bits below
        c >>= c.bit_length() - 128
        table[row] = c >> 64, c & (1 << 64) - 1
    table.flags.writeable = False
    return table.ravel()


def _parse_compiled(lib, data: bytes):
    """parse_libsvm's result from the compiled tokenizer, or None when
    ``data`` lies outside the subset it accepts."""
    # every line but the last ends in \n, and every feature has one ':'
    lines, features = data.count(b"\n") + 1, data.count(b":")
    shape = np.array([lines, features, 0], dtype=np.int64)
    labels, values = np.empty(lines), np.empty(features)
    indptr, indices = np.zeros(lines + 1, dtype=np.int64), np.empty(features, dtype=np.int64)
    if lib.libsvm_parse(data, len(data), _powers_of_five().ctypes.data, shape.ctypes.data,
                        labels.ctypes.data, indptr.ctypes.data, indices.ctypes.data,
                        values.ctypes.data):
        return None
    n, kept, max_index = shape.tolist()
    # shrink the buffers to their exact sizes in place: nothing views them yet
    for arr, size in ((labels, n), (indptr, n + 1), (indices, kept), (values, kept)):
        arr.resize(size, refcheck=False)
    A = SparseColMatrix(d=max_index, n=n, indptr=indptr, indices=indices, values=values)
    return A, labels


def _parse_python(path: Path) -> tuple[SparseColMatrix, np.ndarray]:
    """parse_libsvm in Python: the reference for every input, and the parser
    of whatever the compiled tokenizer declines."""
    # ASCII files; a byte above 0x7f decodes to a lone surrogate, which is
    # reported below with its line number
    binary = io.BytesIO(_gunzip(path)) if path.suffix == ".gz" else open(path, "rb")
    labels: list[float] = []
    indptr = [0]
    indices: list[int] = []
    values: list[float] = []
    max_index = 0
    with io.TextIOWrapper(binary, encoding="ascii", errors="surrogateescape") as stream:
        for line_no, raw in enumerate(stream, start=1):
            if not raw.isascii():
                raise ParseError(line_no, "non-ASCII byte")
            line = raw.strip()
            if not line:
                raise ParseError(line_no, "blank line")
            tokens = line.split()
            try:
                label = float(tokens[0])
            except ValueError:
                raise ParseError(line_no, f"bad label token {tokens[0]!r}") from None
            if label not in (1.0, -1.0):
                raise LabelError(line_no, f"label must be +1 or -1, got {tokens[0]}")
            labels.append(label)
            prev = 0
            for tok in tokens[1:]:
                idx_s, sep, val_s = tok.partition(":")
                if not sep:
                    raise ParseError(line_no, f"feature token {tok!r} lacks ':'")
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise ParseError(line_no, f"bad feature token {tok!r}") from None
                if not 1 <= idx <= MAX_INDEX:
                    raise ParseError(line_no, f"feature index {idx} outside [1, {MAX_INDEX}]")
                if idx == prev:
                    raise ParseError(line_no, f"duplicate feature index {idx}")
                if idx < prev:
                    raise ParseError(line_no, f"feature indices out of order at {idx}")
                if not math.isfinite(val):
                    raise ParseError(line_no, f"non-finite value in token {tok!r}")
                prev = idx
                if val != 0.0:
                    indices.append(idx - 1)
                    values.append(val)
                max_index = max(max_index, idx)
            indptr.append(len(indices))

    A = SparseColMatrix(d=max_index, n=len(labels),
                        indptr=np.asarray(indptr, dtype=np.int64),
                        indices=np.asarray(indices, dtype=np.int64),
                        values=np.asarray(values, dtype=float))
    return A, np.asarray(labels, dtype=float)


def write_libsvm(A: SparseColMatrix, labels: np.ndarray, path) -> None:
    """Inverse of :func:`parse_libsvm`; values written with round-trip repr."""
    if len(labels) != A.n:
        raise ValueError("one label per column required")
    with open(path, "w", encoding="ascii") as stream:
        for j in range(A.n):
            rows, vals = A.col(j)
            parts = ["+1" if labels[j] > 0 else "-1"]
            parts.extend(f"{int(r) + 1}:{float(v)!r}" for r, v in zip(rows, vals))
            stream.write(" ".join(parts) + "\n")


def synth_binary(n: int, d: int, sparsity: float, *, seed: int = 0,
                 min_nnz: int = 0) -> tuple[SparseColMatrix, np.ndarray]:
    """Reproducible sparse Gaussian columns with planted-hyperplane labels.

    Each column draws Binomial(d, sparsity) nonzero rows (at least
    ``min_nnz``) with standard normal values, divided by their computed
    Euclidean norm.  So every nonzero column has unit norm, and the
    column-norm bound R is 1, to rounding only: within 1e-12, as the tests
    check.  Labels are ``sign(column . w_true)`` for a hidden Gaussian
    w_true.

    The columns come from the compiled ``synth_columns`` when it is built
    (see apcg.native), else from the Python loop; both draw the same
    numbers from one Generator in the same order, so the result is bitwise
    the same either way.
    """
    if not (0.0 < sparsity <= 1.0):
        raise ValueError(f"sparsity must lie in (0, 1], got {sparsity}")
    for name, value in (("n", n), ("d", d), ("min_nnz", min_nnz)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    rng = np.random.Generator(np.random.PCG64(seed))
    args = (n, d, sparsity, min(min_nnz, d))
    columns = _synth_columns_compiled(rng, *args)
    if columns is None:
        rng = np.random.Generator(np.random.PCG64(seed))
        columns = _synth_columns_python(rng, *args)
    indptr, indices, values = columns
    A = SparseColMatrix(d=d, n=n, indptr=indptr, indices=indices, values=values)
    w_true = rng.standard_normal(d)
    labels = np.where(A.tdot(w_true) >= 0.0, 1.0, -1.0)
    return A, labels


def _synth_columns_python(rng, n, d, sparsity, min_k):
    """synth_binary's (indptr, indices, values), one column at a time: the
    reference for synth_columns, and the path where it is not built."""
    indptr = [0]
    indices: list[np.ndarray] = []
    values: list[np.ndarray] = []
    for _ in range(n):
        k = max(int(rng.binomial(d, sparsity)), min_k)
        if k == 0:
            indptr.append(indptr[-1])
            continue
        rows = np.sort(rng.choice(d, size=k, replace=False))
        vals = rng.standard_normal(k)
        vals[vals == 0.0] = 1e-12  # standard_normal never returns 0 in practice
        indices.append(rows)
        values.append(vals / np.linalg.norm(vals))
        indptr.append(indptr[-1] + k)
    return (np.asarray(indptr, dtype=np.int64),
            np.concatenate(indices) if indices else np.empty(0, np.int64),
            np.concatenate(values) if values else np.empty(0, float))


def _synth_capacity(n: int, d: int, sparsity: float, min_k: int) -> int:
    """Room for the values of n columns.  Their total is at most n min_k
    plus a Binomial(n d, sparsity), which exceeds its mean by 8 standard
    deviations plus 64 with probability below 1e-9 (Chernoff)."""
    mean = n * d * sparsity
    return min(n * d, int(mean + n * min_k + 8.0 * math.sqrt(mean) + 64.0))


def _synth_columns_compiled(rng, n, d, sparsity, min_k):
    """_synth_columns_python's result from the compiled synth_columns, or
    None, with ``rng`` spent, when the kernel is not built or the columns
    outgrow _synth_capacity."""
    kernel = getattr(native.library(), "synth_columns", None)
    if kernel is None:
        return None
    capacity = _synth_capacity(n, d, sparsity, min_k)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices, values = np.empty(capacity, dtype=np.int64), np.empty(capacity)
    bits, pool = np.zeros((d + 63) // 64, dtype=np.uint64), np.empty(d, dtype=np.int64)
    bitgen = rng.bit_generator
    with bitgen.lock:
        if kernel(bitgen.ctypes.bit_generator, n, d, sparsity, min_k,
                  bits.ctypes.data, pool.ctypes.data,
                  indptr.ctypes.data, indices.ctypes.data, values.ctypes.data, capacity):
            return None
    nnz = int(indptr[-1])
    # shrink the buffers to their exact size in place: nothing views them yet
    indices.resize(nnz, refcheck=False)
    values.resize(nnz, refcheck=False)
    # np.linalg.norm(vals) is sqrt(vals.dot(vals)), and a stacked matmul of
    # vectors makes the same BLAS ddot call per column, so scaling the
    # columns of each length at once is bitwise vals / np.linalg.norm(vals)
    lengths = np.diff(indptr)
    classes = np.flatnonzero(np.bincount(lengths))
    for k in classes[classes > 0]:
        at = indptr[:-1][lengths == k][:, None] + np.arange(k)  # (columns, k) positions
        cols = values[at]
        values[at] = cols / np.sqrt(np.matmul(cols[:, None, :], cols[:, :, None]))[:, 0]
    return indptr, indices, values
