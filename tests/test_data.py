import copy
import ctypes
import gzip
import math
import pickle
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from apcg import data, native
from apcg.data import (MAX_INDEX, SparseColMatrix, _parse_compiled, _parse_python,
                       parse_libsvm, synth_binary, write_libsvm)
from apcg.errors import LabelError, ParseError

import oracles


def random_sparse(d, n, seed, density=0.4):
    rng = np.random.Generator(np.random.PCG64(seed))
    dense = rng.standard_normal((d, n)) * (rng.uniform(size=(d, n)) < density)
    return oracles.from_dense(dense)


# ---------------------------------------------------------------------------
# matrix container
# ---------------------------------------------------------------------------

def test_dense_round_trip_and_products():
    A = random_sparse(7, 5, seed=0)
    dense = oracles.to_dense(A)
    rng = np.random.Generator(np.random.PCG64(1))
    x = rng.standard_normal(5)
    w = rng.standard_normal(7)
    assert np.allclose(A.dot(x), dense @ x, atol=1e-13)
    assert np.allclose(A.tdot(w), dense.T @ w, atol=1e-13)
    assert np.allclose(A.col_norms_sq(), (dense ** 2).sum(axis=0), atol=1e-13)
    again = oracles.from_dense(dense)
    assert np.array_equal(again.indices, A.indices)
    assert np.array_equal(again.values, A.values)


def bincount_dot(A, x):
    """SparseColMatrix.dot's Python form, which the compiled one must equal."""
    return np.bincount(A.indices, weights=A.values * x[oracles.col_ids(A)], minlength=A.d)


def bincount_tdot(A, w):
    return np.bincount(oracles.col_ids(A), weights=A.values * w[A.indices], minlength=A.n)


def product_cases():
    rng = np.random.Generator(np.random.PCG64(8))
    big, _ = synth_binary(1000, 2000, 0.05, seed=4)  # d = 2000, n = 1000
    holes = random_sparse(6, 9, seed=3, density=0.3)  # empty rows and columns
    return [big, holes, random_sparse(1, 7, seed=5), random_sparse(7, 1, seed=6),
            random_sparse(1, 1, seed=7, density=1.0),
            oracles.from_dense(np.zeros((3, 4))),
            oracles.from_dense(np.zeros((3, 0))),
            SparseColMatrix(d=4, n=3, indptr=np.array([0, 0, 2, 2]),
                            indices=np.array([1, 3]), values=rng.standard_normal(2))]


def test_compiled_products_equal_bincount_bitwise(c_kernels):
    rng = np.random.Generator(np.random.PCG64(2))
    cases = product_cases()
    assert cases[0].d == 2000 and cases[0].n == 1000
    assert np.any(np.diff(cases[1].indptr) == 0)  # an empty column
    for A in cases:
        x, w = rng.standard_normal(A.n), rng.standard_normal(A.d)
        if A.nnz:
            assert np.array_equal(A.dot(x), bincount_dot(A, x))
            assert np.array_equal(A.tdot(w), bincount_tdot(A, w))
        else:
            assert np.array_equal(A.dot(x), np.zeros(A.d))
            assert np.array_equal(A.tdot(w), np.zeros(A.n))
        assert A.dot(x).shape == (A.d,) and A.tdot(w).shape == (A.n,)


def test_compiled_products_check_their_operand(c_kernels):
    A = random_sparse(5, 4, seed=1)
    assert np.array_equal(A.dot([1, 2, 3, 4]), bincount_dot(A, np.arange(1.0, 5.0)))
    assert np.array_equal(A.tdot(np.ones(10)[::2]), bincount_tdot(A, np.ones(5)))
    with pytest.raises(ValueError):
        A.dot(np.ones(5))
    with pytest.raises(ValueError):
        A.tdot(np.ones(4))


def test_matrix_arrays_are_read_only():
    A = random_sparse(5, 4, seed=1)
    for arr in (A.indptr, A.indices, A.values):
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_matrix_cannot_be_pickled_or_copied():
    # a copy would carry the source's data pointers into the kernels
    A = random_sparse(5, 4, seed=1)
    assert A.addresses == (A.indptr.ctypes.data, A.indices.ctypes.data,
                           A.values.ctypes.data)
    for duplicate in (pickle.dumps, copy.copy, copy.deepcopy):
        with pytest.raises(TypeError, match="raw data pointers"):
            duplicate(A)


@st.composite
def sparse_and_vectors(draw):
    d, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entries = st.one_of(st.just(0.0), st.floats(-1e3, 1e3, allow_nan=False))
    dense = draw(hnp.arrays(np.float64, (d, n), elements=entries))
    vec = st.floats(-1e3, 1e3, allow_nan=False)
    x = draw(hnp.arrays(np.float64, n, elements=vec))
    w = draw(hnp.arrays(np.float64, d, elements=vec))
    return dense, x, w


@pytest.mark.parametrize("kernels", ["python", "c"])
@settings(max_examples=60, deadline=None)
@given(case=sparse_and_vectors())
def test_products_match_dense(kernels, case):
    if kernels == "c" and native.library() is None:
        pytest.skip(f"compiled kernels unavailable: {native.backend()}")
    dense, x, w = case
    A = oracles.from_dense(dense)
    saved = native.library
    if kernels == "python":
        native.library = lambda: None
    try:
        ax, atw = A.dot(x), A.tdot(w)
    finally:
        native.library = saved
    # rounding bound of a sum of at most max(d, n) products, plus underflow
    eps, tiny = 4 * np.finfo(float).eps * max(dense.shape), np.finfo(float).tiny
    assert np.all(np.abs(ax - dense @ x) <= eps * (np.abs(dense) @ np.abs(x)) + tiny)
    assert np.all(np.abs(atw - dense.T @ w) <= eps * (np.abs(dense).T @ np.abs(w)) + tiny)


def test_matrix_rejects_invalid_structure():
    with pytest.raises(ValueError):  # decreasing indices within a column
        SparseColMatrix(d=3, n=1, indptr=np.array([0, 2]),
                        indices=np.array([2, 1]), values=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):  # duplicate index
        SparseColMatrix(d=3, n=1, indptr=np.array([0, 2]),
                        indices=np.array([1, 1]), values=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):  # stored zero
        SparseColMatrix(d=3, n=1, indptr=np.array([0, 1]),
                        indices=np.array([0]), values=np.array([0.0]))
    with pytest.raises(ValueError):  # index out of range
        SparseColMatrix(d=3, n=1, indptr=np.array([0, 1]),
                        indices=np.array([3]), values=np.array([1.0]))
    with pytest.raises(ValueError):  # bad indptr
        SparseColMatrix(d=3, n=2, indptr=np.array([0, 1]),
                        indices=np.array([0]), values=np.array([1.0]))


def test_scale_columns():
    A = random_sparse(4, 3, seed=2)
    B = A.scale_columns(np.array([1.0, -1.0, 2.0]))
    assert np.allclose(oracles.to_dense(B), oracles.to_dense(A) * np.array([1.0, -1.0, 2.0]))
    with pytest.raises(ValueError):
        A.scale_columns(np.array([1.0, 0.0, 1.0]))


KERNELS = ["c_kernels", "python_kernels"]


def column_pass_cases():
    """product_cases plus an empty middle column."""
    middle = SparseColMatrix(d=4, n=3, indptr=np.array([0, 2, 2, 3]),
                             indices=np.array([0, 3, 1]), values=np.array([0.5, -2.0, 3.0]))
    return [*product_cases(), middle]


@pytest.mark.parametrize("kernels", KERNELS)
def test_column_norms_equal_add_at_bitwise(kernels, request):
    request.getfixturevalue(kernels)
    for A in column_pass_cases():
        want = np.zeros(A.n)
        np.add.at(want, oracles.col_ids(A), A.values ** 2)
        assert A.col_norms_sq().tobytes() == want.tobytes()


@pytest.mark.parametrize("kernels", KERNELS)
def test_scaled_columns_share_the_structure(kernels, request):
    request.getfixturevalue(kernels)
    rng = np.random.Generator(np.random.PCG64(9))
    for A in column_pass_cases():
        factors = np.where(rng.uniform(size=A.n) < 0.5, -1.0, 1.0) * rng.uniform(0.1, 10.0, A.n)
        B = A.scale_columns(np.repeat(factors, 2)[::2])  # a strided operand
        assert B.values.tobytes() == (A.values * factors[oracles.col_ids(A)]).tobytes()
        assert np.shares_memory(B.indptr, A.indptr)
        assert np.shares_memory(B.indices, A.indices) or A.nnz == 0
        assert not np.shares_memory(B.values, A.values)
        assert (B.d, B.n) == (A.d, A.n)
    big = SparseColMatrix(d=2, n=2, indptr=np.array([0, 1, 2]), indices=np.array([0, 1]),
                          values=np.array([1.0, 1e300]))
    with pytest.raises(ValueError, match="^stored values must be finite and nonzero$"), \
            np.errstate(over="ignore"):
        big.scale_columns(np.array([1.0, 1e10]))  # the product overflows


ROW_ORDER = "row indices must be strictly increasing per column"


@pytest.mark.parametrize("kernels", KERNELS)
def test_row_order_check_is_the_same_on_both_backends(kernels, request):
    request.getfixturevalue(kernels)

    def matrix(indptr, indices, d=4):
        return SparseColMatrix(d=d, n=len(indptr) - 1, indptr=np.array(indptr, dtype=np.int64),
                               indices=np.array(indices, dtype=np.int64),
                               values=np.ones(len(indices)))

    rejected = [([0, 1, 3], [2, 1, 1]),  # a duplicate row in the second column
                ([0, 2], [1, 1]),  # a duplicate row, n == 1
                ([0, 3, 4], [0, 2, 1, 3]),  # a decrease inside the first column
                ([0, 1, 1, 3], [0, 2, 2]),  # a duplicate after an empty column
                ([0, 2, 3], [1, 0, 2])]  # a decrease at the last entry of a column
    for indptr, indices in rejected:
        with pytest.raises(ValueError, match=f"^{ROW_ORDER}$"):
            matrix(indptr, indices)
    with pytest.raises(ValueError, match="^row index out of range$"):  # checked first
        matrix([0, 2], [5, 1])
    accepted = [([0, 2, 4], [1, 3, 0, 2]),  # a decrease across a column boundary
                ([0, 1, 2, 3], [3, 2, 1]),  # a decrease at every boundary
                ([0, 0, 2, 3], [0, 3, 1]),  # an empty first column
                ([0, 2, 2, 3], [0, 3, 1]),  # an empty middle column
                ([0, 2, 3, 3], [0, 3, 1]),  # an empty last column
                ([0, 0, 0], []),  # nnz == 0
                ([0, 0], []),  # n == 1, nnz == 0
                ([0, 3], [0, 1, 3])]  # n == 1
    for indptr, indices in accepted:
        assert matrix(indptr, indices).indices.tolist() == indices


# ---------------------------------------------------------------------------
# memory: the matrix is its three exact-size arrays
# ---------------------------------------------------------------------------

def assert_exact_size(A):
    """indices and values hold 8 bytes per stored entry, in buffers of
    exactly that size."""
    for arr in (A.indices, A.values):
        assert arr.nbytes == 8 * A.nnz
        owner = arr if arr.base is None else arr.base
        assert owner.nbytes == 8 * A.nnz


@pytest.fixture(scope="module")
def hinge_shape():
    """The hinge-synth benchmark's shape: 10000 x 1000 at 2%."""
    return synth_binary(10000, 1000, 0.02, seed=1003, min_nnz=1)


def test_generated_arrays_are_exact_size(hinge_shape):
    assert_exact_size(hinge_shape[0])


def test_hinge_problem_build_allocates_under_two_copies_of_the_values(hinge_shape, c_kernels):
    import tracemalloc

    from apcg.erm import ErmProblem

    A, labels = hinge_shape
    tracemalloc.start()
    try:
        prob = ErmProblem.smoothed_hinge(A, labels, lam=2e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * A.nnz
    assert np.shares_memory(prob.matrix.indices, A.indices)
    assert np.shares_memory(prob.matrix.indptr, A.indptr)


@pytest.mark.parametrize("kernels", KERNELS)
def test_parsed_arrays_are_exact_size_with_explicit_zeros(kernels, request, tmp_path):
    request.getfixturevalue(kernels)
    path = tmp_path / "zeros.txt"
    path.write_text("+1 1:0 2:1.5 3:0\n-1 1:2 4:0\n+1 2:0\n")
    A, labels = parse_libsvm(path)
    assert (A.nnz, A.d, A.n) == (2, 4, 3)
    assert_exact_size(A)
    assert labels.tolist() == [1.0, -1.0, 1.0]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def parse_text(tmp_path, text):
    """parse_libsvm of a file holding ``text``."""
    path = tmp_path / "in.libsvm"
    path.write_text(text, encoding="ascii")
    return parse_libsvm(path)


def test_parse_simple_line(tmp_path):
    A, labels = parse_text(tmp_path, "+1 1:2.0 3:-1.0\n")
    assert A.d == 3 and A.n == 1
    assert np.array_equal(oracles.to_dense(A)[:, 0], [2.0, 0.0, -1.0])
    assert labels.tolist() == [1.0]


def test_parse_empty_stream(tmp_path):
    A, labels = parse_text(tmp_path, "")
    assert A.d == 0 and A.n == 0 and labels.size == 0


def test_parse_multiple_lines_and_label_signs(tmp_path):
    text = "+1 1:1.5\n-1 2:0.25 4:-3.0\n+1 1:1.0 2:2.0 3:3.0\n"
    A, labels = parse_text(tmp_path, text)
    assert A.d == 4 and A.n == 3
    assert labels.tolist() == [1.0, -1.0, 1.0]
    dense = oracles.to_dense(A)
    assert dense[1, 1] == 0.25 and dense[3, 1] == -3.0


def test_parse_drops_explicit_zeros(tmp_path):
    A, _ = parse_text(tmp_path, "+1 1:0.0 2:5.0\n")
    assert A.nnz == 1
    assert A.d == 2  # the zero still advances the inferred dimension


@pytest.mark.parametrize("line,line_no", [
    ("+1 1:2.0\n*5 1:1.0\n", 2),       # unparseable label
    ("+2 1:1.0\n", 1),                  # label not +-1
    ("0 1:1.0\n", 1),
    ("+1 1:1.0 1:2.0\n", 1),            # duplicate index
    ("+1 3:1.0 2:2.0\n", 1),            # out of order
    ("+1 0:1.0\n", 1),                  # 1-based indices on disk
    ("+1 abc\n", 1),                    # token without colon
    ("+1 a:1.0\n", 1),                  # non-integer index
    ("+1 1:xyz\n", 1),                  # non-numeric value
    ("+1 1:inf\n", 1),                  # non-finite value
    ("+1 1:1.0\n\n+1 1:1.0\n", 2),      # blank line mid-file
])
def test_parse_rejects_malformed_lines_with_line_numbers(line, line_no, tmp_path):
    with pytest.raises(ParseError) as err:
        parse_text(tmp_path, line)
    assert err.value.line_no == line_no


def test_parse_label_error_is_specific(tmp_path):
    with pytest.raises(LabelError):
        parse_text(tmp_path, "3 1:1.0\n")


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.Generator(np.random.PCG64(3))
    for trial in range(5):
        A = random_sparse(10, 8, seed=trial, density=0.3)
        labels = np.where(rng.uniform(size=8) < 0.5, 1.0, -1.0)
        path = tmp_path / f"rt{trial}.txt"
        write_libsvm(A, labels, path)
        B, lab2 = parse_libsvm(path)
        assert np.array_equal(lab2, labels)
        # d is the largest index on disk: the last nonzero row
        assert B.d == A.indices.max() + 1 and B.n == A.n
        assert np.array_equal(B.indices, A.indices)
        assert np.array_equal(B.values, A.values)  # bit exact


@st.composite
def sparse_and_labels(draw):
    """A CSC matrix with some empty columns and nonzero finite values of any
    magnitude (subnormals included), plus +-1 labels."""
    d, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    nonzero = st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != 0.0)
    dense = draw(hnp.arrays(np.float64, (d, n), elements=st.one_of(st.just(0.0), nonzero)))
    dense[:, draw(hnp.arrays(np.bool_, n))] = 0.0
    labels = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([1.0, -1.0])))
    return oracles.from_dense(dense), labels


@settings(max_examples=100, deadline=None)
@given(case=sparse_and_labels())
def test_round_trip_property_bit_exact(case, tmp_path_factory):
    A, labels = case
    path = tmp_path_factory.getbasetemp() / "round_trip.libsvm"
    write_libsvm(A, labels, path)
    B, lab2 = parse_libsvm(path)
    assert np.array_equal(B.indptr, A.indptr)
    assert np.array_equal(B.indices, A.indices)
    assert np.array_equal(B.values.view(np.int64), A.values.view(np.int64))
    assert np.array_equal(lab2, labels)


def test_round_trip_gzip(tmp_path):
    A = random_sparse(6, 4, seed=9, density=0.5)
    labels = np.array([1.0, -1.0, 1.0, 1.0])
    plain = tmp_path / "data.txt"
    write_libsvm(A, labels, plain)
    path = tmp_path / "data.txt.gz"
    path.write_bytes(gzip.compress(plain.read_bytes()))
    B, lab2 = parse_libsvm(path)
    assert np.array_equal(B.values, A.values)
    assert np.array_equal(lab2, labels)


def parsed(parse, source):
    """A parse's result as bytes, or (error class, line number)."""
    try:
        A, labels = parse(source)
    except ParseError as exc:
        return type(exc), exc.line_no
    return (A.d, A.n, A.indptr.tobytes(), A.indices.tobytes(), A.values.tobytes(),
            labels.tobytes())


def test_compiled_parse_equals_python_on_written_files(tmp_path, c_kernels):
    # the last is the ridge-libsvm shape, 17-digit values from repr
    for n, d, seed in ((300, 200, 0), (300, 200, 1), (300, 200, 2), (2000, 1000, 1000)):
        A, labels = synth_binary(n, d, 0.05, seed=seed, min_nnz=1)
        path = tmp_path / f"w{seed}.libsvm"
        write_libsvm(A, labels, path)
        assert _parse_compiled(native.library(), path.read_bytes()) is not None
        want = parsed(_parse_python, path)
        assert parsed(parse_libsvm, path) == want
        assert parsed(parse_libsvm, str(path)) == want
        assert want[4] == A.values.tobytes()


# (input, whether the compiled tokenizer takes it rather than the Python parser)
TOKENIZER_CASES = [
    (b"", True),
    (b"+1 1:2.0 3:-1.0\n-1 2:0.25\n", True),
    (b"1 1:2\r\n-1\t 2:-3.5e-7 \t\r\n+1", True),   # CRLF, tabs, no last ending
    (b" +1 1:0 2:-0.0 5:1E+3\n", True),               # zeros dropped, still counted
    (b"-1\n", True),                                   # no features
    (b"+1 000000000000000001:1\n", True),              # 18 digits
    (b"+1 0000000000000000001:1\n", False),            # 19 digits
    (b"+1 999999999999999999:1\n", True),               # MAX_INDEX
    (b"+1 1000000000000000000:1\n", False),             # MAX_INDEX + 1
    (b"+1 1:1\r-1 2:1\n", False),                      # lone \r
    (b"+1 1:1\r", False),
    (b"+1 1:1\n\n", False),                            # blank line
    (b"+1 1:1\n  \n", False),
    (b"+1\x0b1:1\n", False),                           # other whitespace
    (b"+1 1:1\x00\n", False),
    (b"+1 1:\xc3\xa9\n", False),
    (b"1.0 1:1\n", False), (b"+10 1:1\n", False), (b"0 1:1\n", False),
    (b"+1 0:1\n", False), (b"+1 2:1 2:1\n", False), (b"+1 3:1 2:1\n", False),
    (b"+1 +1:1\n", False), (b"+1 1_0:1\n", False), (b"+1 1:1_0\n", False),
    (b"+1 1:.5\n", False), (b"+1 1:5.\n", False), (b"+1 1:1e\n", False),
    (b"+1 1:inf\n", False), (b"+1 1:nan\n", False), (b"+1 1:0x10\n", False),
    (b"+1 1:1e999\n", False), (b"+1 1:1e-400\n", False),
    (b"+1 1:4.9e-324\n", False),                        # subnormal: strtod's ERANGE
    (b"+1 1:" + b"1" * 63 + b"\n", True),
    (b"+1 1:" + b"1" * 64 + b"\n", False),               # token over 63 bytes
    (b"+1 1:1:2\n", False), (b"+1 1 :1\n", False), (b"+1 1:1x\n", False),
    (b"+11:1\n", False),
    # values at the edges of the exact fast path, each taken or declined as
    # when the tokenizer read every value with strtod: ties to even, 2^53 + 1
    # and 2^53 + 3
    (b"+1 1:9007199254740993\n", True), (b"+1 1:9007199254740995\n", True),
    (b"+1 1:9007199254740991.5\n", True),              # a tie rounding up to 2^53
    # 19 and 20 significant digits, and zeros beyond 19 digits
    (b"+1 1:1234567890123456789\n", True), (b"+1 1:12345678901234567890\n", True),
    (b"+1 1:-9999999999999999999\n", True), (b"+1 1:99999999999999999999\n", True),
    (b"+1 1:9.999999999999999999\n", True),
    (b"+1 1:0.00000000001234567890123456789\n", True),
    (b"+1 1:0000000000000000000000001\n", True),
    (b"+1 1:1234567890123456789000000\n", True),
    (b"+1 1:1.0000000000000000000000\n", True),
    # Clinger's edges: 10^22 is the last exact power of ten, 2^53 the last
    # exact mantissa
    (b"+1 1:1e22\n", True), (b"+1 1:1e23\n", True),
    (b"+1 1:9007199254740992e-22\n", True), (b"+1 1:9007199254740993e-22\n", True),
    # the smallest normal, 2^-1022 = 2.2250738585072014e-308, and below it
    (b"+1 1:2.2250738585072011e-308\n", False), (b"+1 1:2.2250738585072012e-308\n", False),
    (b"+1 1:2.2250738585072013e-308\n", True), (b"+1 1:2.2250738585072014e-308\n", True),
    (b"+1 1:1e-310\n", False), (b"+1 1:1e-342\n", False), (b"+1 1:1e-343\n", False),
    # the largest double, 1.7976931348623157e308, and past its rounding
    (b"+1 1:1.7976931348623157e308\n", True), (b"+1 1:1.7976931348623158e308\n", True),
    (b"+1 1:1.7976931348623159e308\n", False), (b"+1 1:1e308\n", True),
    (b"+1 1:1e309\n", False), (b"+1 1:0e999\n", True), (b"+1 1:-0.0e-999\n", True),
]


@pytest.mark.parametrize("data,taken", TOKENIZER_CASES)
def test_compiled_tokenizer_takes_exactly_its_subset(data, taken, tmp_path, c_kernels):
    assert (_parse_compiled(native.library(), data) is not None) == taken
    path = tmp_path / "in.libsvm"
    path.write_bytes(data)
    assert parsed(parse_libsvm, path) == parsed(_parse_python, path)


def exact_decimal(m: Fraction) -> str:
    """The exact decimal of ``m``, whose denominator is a power of two, as
    ``digits e-k``: all of its digits, however many."""
    k = m.denominator.bit_length() - 1
    return f"{m.numerator * 5 ** k}e-{k}"


def midpoint_above(a: float) -> str:
    """The exact decimal halfway between ``a`` and the next double up."""
    return exact_decimal((Fraction(a) + Fraction(math.nextafter(a, math.inf))) / 2)


def short_midpoint(odd: int, shift: int) -> str:
    """``odd * 2^shift`` for an odd 54-bit ``odd``: exactly halfway between
    two adjacent doubles, in 17 to 21 digits for shift in [-6, 12], so that
    most reach the fast path's tie rule."""
    return exact_decimal(Fraction(odd) * Fraction(2) ** shift)


LIBC = ctypes.CDLL(None, use_errno=True)
LIBC.strtod.argtypes = (ctypes.c_char_p, ctypes.POINTER(ctypes.c_char_p))
LIBC.strtod.restype = ctypes.c_double


def strtod_takes(token: str) -> bool:
    """Whether the tokenizer's rule takes a value token of its grammar: at
    most 63 bytes, read whole by the C library's strtod to a finite value
    without ERANGE."""
    raw, stop = token.encode(), ctypes.c_char_p()
    ctypes.set_errno(0)
    value = LIBC.strtod(raw, ctypes.byref(stop))
    return (len(raw) <= 63 and stop.value == b"" and ctypes.get_errno() == 0
            and math.isfinite(value))


def random_value_tokens(rng, count: int) -> list[str]:
    """``count`` value tokens: the repr of random bit patterns, random
    decimal strings (1 to 25 digits, the point anywhere or nowhere,
    exponents -350 to 320) and exact midpoints between adjacent doubles,
    short and at any magnitude."""
    doubles = rng.integers(0, 2 ** 64, size=count, dtype=np.uint64, endpoint=False).view(float)
    tokens = []
    for k in range(count):
        kind = k % 4
        if kind == 0 and math.isfinite(doubles[k]):
            tokens.append(repr(float(doubles[k])))
        elif kind == 1:
            digits = "".join(map(str, rng.integers(0, 10, size=int(rng.integers(1, 26)))))
            point = int(rng.integers(0, len(digits) + 1))
            body = (digits[:point] or "0") + ("." + digits[point:] if point < len(digits) else "")
            sign = ("", "+", "-")[k % 3]
            tokens.append(f"{sign}{body}e{int(rng.integers(-350, 321))}")
        elif kind == 2:
            odd = int(rng.integers(2 ** 52, 2 ** 53)) * 2 + 1
            tokens.append(("-" if k % 3 == 0 else "") + short_midpoint(odd, int(rng.integers(-6, 13))))
        elif math.isfinite(doubles[k]) and abs(doubles[k]) < sys.float_info.max:
            tokens.append(midpoint_above(float(doubles[k])))
    return tokens


def test_compiled_values_equal_float_bitwise(c_kernels):
    """Every value token the tokenizer's rule takes reads to float()'s bits,
    and it declines every other one: on over 10^5 tokens in one file, and
    each declined token on its own line."""
    taken, declined = [], []
    for t in random_value_tokens(np.random.Generator(np.random.PCG64(32)), 140_000):
        (taken if strtod_takes(t) else declined).append(t)
    assert len(taken) >= 100_000 and len(declined) >= 1000
    lines = (" ".join(f"{i + 1}:{t}" for i, t in enumerate(taken[j:j + 100]))
             for j in range(0, len(taken), 100))
    data = "".join(f"+1 {line}\n" for line in lines).encode()
    A, _ = _parse_compiled(native.library(), data)
    want = np.array([v for v in map(float, taken) if v != 0.0])
    assert A.values.view(np.int64).tobytes() == want.view(np.int64).tobytes()
    for t in declined:
        assert _parse_compiled(native.library(), f"+1 1:{t}\n".encode()) is None, t


# (the tokenizer's grammar, what leaves it); a file draws from the first
# pool alone or from both
SEPARATORS = ([" ", "\t", "  ", " \t"], ["\x0b", "\x0c", "\xa0", "\u3000"])
ENDINGS = (["\n", "\r\n"], ["\r", "\n\n", " \n", "\x85", "\n\x00"])
LABELS = (["+1", "-1", "1"], ["1.0", "+10", "0", "-1e0", "\xe9", "+ 1"])
ODD_VALUES = ["inf", "nan", "-Infinity", "1_0", ".5", "5.", "1e", "+-1", "1e-400", "1e400",
              "2.5e-320", "0x1p3", "\u0661", "1" * 70]
MUTATIONS = ["zero", "dup", "swap", "pad", "colon"]


def values(clean: bool):
    grammar = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False).map(repr),
        st.from_regex(r"\A[+-]?[0-9]{1,20}(\.[0-9]{1,20})?([eE][+-]?[0-9]{1,2})?\Z"),
        st.sampled_from(["0", "-0.0", "0e5", "1" * 63]),
        st.builds(short_midpoint, st.integers(2 ** 52, 2 ** 53 - 1).map(lambda k: 2 * k + 1),
                  st.integers(-6, 12)),
        st.floats(allow_nan=False, allow_infinity=False, max_value=sys.float_info.max,
                  exclude_max=True).map(midpoint_above))
    return grammar if clean else st.one_of(grammar, st.sampled_from(ODD_VALUES))


@st.composite
def libsvm_files(draw):
    """LIBSVM text from the tokenizer's grammar, or with things that leave it."""
    clean = draw(st.booleans())
    pools = [st.sampled_from(grammar if clean else grammar + odd)
             for grammar, odd in (SEPARATORS, ENDINGS, LABELS)]
    separators, endings, labels = pools
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        idx = sorted(draw(st.sets(st.integers(1, 30), max_size=6)))
        mutation = None if clean else draw(st.sampled_from([None] + MUTATIONS))
        if idx and mutation == "zero":
            idx[0] = 0
        elif idx and mutation == "dup":
            idx.append(idx[-1])
        elif len(idx) > 1 and mutation == "swap":
            idx[0], idx[1] = idx[1], idx[0]
        tokens = [draw(labels)]
        for i in idx:
            name = f"{i:019d}" if mutation == "pad" else str(i)
            colon = "::" if mutation == "colon" else ":"
            tokens.append(f"{name}{colon}{draw(values(clean))}")
        lines.append(draw(separators).join(tokens) + draw(endings))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


@settings(max_examples=300, deadline=None)
@given(text=libsvm_files())
def test_compiled_and_python_parsers_agree(text, tmp_path_factory):
    """The same arrays, bit for bit, or the same error class at the same
    line."""
    if native.library() is None:
        pytest.skip(f"compiled kernels unavailable: {native.backend()}")
    path = tmp_path_factory.getbasetemp() / "differential.libsvm"
    path.write_bytes(text.encode("utf-8"))
    got = parsed(parse_libsvm, path)
    saved = native.library
    native.library = lambda: None
    try:
        want = parsed(parse_libsvm, path)
    finally:
        native.library = saved
    assert got == want


@pytest.fixture(params=["python", "c"])
def kernels(request, monkeypatch):
    """Run the test on each backend; the compiled run skips where it cannot load."""
    if request.param == "python":
        monkeypatch.setattr(native, "library", lambda: None)
    elif native.library() is None:
        pytest.skip(f"compiled kernels unavailable: {native.backend()}")


def test_non_ascii_byte_is_a_parse_error_at_its_line(kernels, tmp_path):
    path = tmp_path / "f.libsvm"
    path.write_bytes(b"+1 1:0.5\n-1 2:\xc3\xa9\n")
    with pytest.raises(ParseError) as err:
        parse_libsvm(path)
    assert err.value.line_no == 2
    # a digit float() would read is refused too: the format is ASCII
    path.write_text("+1 1:\u0661.5\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        parse_libsvm(path)
    assert err.value.line_no == 1


@pytest.mark.parametrize("index", [MAX_INDEX, MAX_INDEX + 1, 10**20])
def test_feature_index_is_at_most_18_digits(kernels, index, tmp_path):
    path = tmp_path / "f.libsvm"
    path.write_text(f"+1 1:0.5\n-1 {index}:1\n")
    if index <= MAX_INDEX:
        A, _ = parse_libsvm(path)
        assert A.d == index and A.indices.tolist() == [0, index - 1]
    else:
        with pytest.raises(ParseError) as err:
            parse_libsvm(path)
        assert err.value.line_no == 2


def test_truncated_gzip_is_an_os_error(kernels, tmp_path):
    whole = gzip.compress(b"+1 1:0.5 2:1.5\n" * 200)
    path = tmp_path / "cut.libsvm.gz"
    path.write_bytes(whole[:len(whole) // 2])
    with pytest.raises(OSError, match="end-of-stream"):
        parse_libsvm(path)


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def test_synth_same_seed_identical():
    A1, l1 = synth_binary(50, 20, 0.2, seed=7)
    A2, l2 = synth_binary(50, 20, 0.2, seed=7)
    assert np.array_equal(A1.values, A2.values)
    assert np.array_equal(A1.indices, A2.indices)
    assert np.array_equal(l1, l2)
    A3, _ = synth_binary(50, 20, 0.2, seed=8)
    assert not np.array_equal(A1.values, A3.values)


def test_synth_normalization_gives_unit_R():
    A, _ = synth_binary(100, 30, 0.3, seed=1, min_nnz=1)
    norms = np.sqrt(A.col_norms_sq())
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    R, _ = column_stats(A)
    assert abs(R - 1.0) <= 1e-12


def test_synth_nnz_concentration():
    A, _ = synth_binary(1000, 100, 0.01, seed=2)
    expected = 0.01 * 1000 * 100
    assert abs(A.nnz - expected) <= 0.10 * expected


def test_synth_labels_are_signs():
    _, labels = synth_binary(40, 10, 0.5, seed=3)
    assert set(np.unique(labels)) <= {1.0, -1.0}


def test_synth_takes_seed_and_min_nnz_by_keyword_only():
    with pytest.raises(TypeError):
        synth_binary(10, 5, 0.5, 3)


def test_synth_rejects_bad_sparsity():
    with pytest.raises(ValueError):
        synth_binary(10, 5, 0.0)
    with pytest.raises(ValueError):
        synth_binary(10, 5, 1.5)


@pytest.mark.parametrize("kwargs, name", [
    (dict(n=-1), "n"),
    (dict(d=-1), "d"),
    (dict(min_nnz=-1), "min_nnz"),
])
def test_synth_rejects_bad_arguments_before_any_draw(kernels, monkeypatch, kwargs, name):
    def no_draws(seed):
        raise AssertionError("a generator was created")

    monkeypatch.setattr(np.random, "PCG64", no_draws)
    args = dict(n=10, d=5, sparsity=0.5) | kwargs
    with pytest.raises(ValueError, match=rf"^{name} must"):
        synth_binary(**args)


def require_synth_kernel():
    """Skip where the compiled synth_columns is not built."""
    if getattr(native.library(), "synth_columns", None) is None:
        pytest.skip(f"synth_columns unavailable (kernels: {native.backend()})")


def synth_on_both_backends(*args, **kwargs):
    """synth_binary through synth_columns, then through the Python loop."""
    saved_python = data._synth_columns_python
    data._synth_columns_python = None  # the compiled run must not fall back
    try:
        compiled = synth_binary(*args, **kwargs)
    finally:
        data._synth_columns_python = saved_python
    saved = native.library
    native.library = lambda: None
    try:
        reference = synth_binary(*args, **kwargs)
    finally:
        native.library = saved
    return compiled, reference


def assert_same_synth(got, want):
    (A, labels), (B, want_labels) = got, want
    assert (A.d, A.n) == (B.d, B.n)
    for name in ("indptr", "indices", "values"):
        a, b = getattr(A, name), getattr(B, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert labels.tobytes() == want_labels.tobytes()


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 30), d=st.integers(1, 400),
       sparsity=st.floats(0.001, 1.0), seed=st.integers(0, 2 ** 32),
       min_nnz=st.integers(0, 80))
def test_synth_compiled_is_bitwise_the_python_loop(n, d, sparsity, seed, min_nnz):
    require_synth_kernel()
    assert_same_synth(*synth_on_both_backends(n, d, sparsity, seed=seed, min_nnz=min_nnz))


@pytest.mark.parametrize("args, kwargs", [
    # d = 10001 > 10000: Floyd's algorithm up to k = d // 50 = 200, the tail
    # shuffle above it; min_nnz pins k on either side
    ((12, 10001, 0.0005), dict(min_nnz=200)),
    ((12, 10001, 0.0005), dict(min_nnz=201)),
    ((12, 10001, 0.02), dict()),
    ((3, 10001, 1.0), dict()),
    ((40, 10000, 0.05), dict()),  # d <= 10000: Floyd's whatever k is
    ((8, 3, 0.5), dict(min_nnz=7)),  # min_nnz > d
    ((60, 20, 0.01), dict()),  # mostly k = 0 columns
    ((30, 1, 0.5), dict()),
    ((0, 7, 0.5), dict()),
    ((200, 2000, 0.004), dict()),  # k * k about 3 * 32 words: rows sorted or scanned
    ((500, 40, 0.3), dict()),
    # rows sorted below k * k = 3 * ceil(d / 64) words, read off the bitmap
    # at and above it: 1563 words at d = 1e5, 157 at d = 1e4
    ((6, 100000, 1e-6), dict(min_nnz=68)),
    ((6, 100000, 1e-6), dict(min_nnz=69)),
    ((6, 10000, 1e-6), dict(min_nnz=21)),
    ((6, 10000, 1e-6), dict(min_nnz=22)),
    # the bitmap's word edges, at k = d (a full last word or one bit of it)
    # and at k = 1
    ((5, 63, 1.0), dict()),
    ((5, 64, 1.0), dict()),
    ((5, 65, 1.0), dict()),
    ((5, 128, 1.0), dict()),
    ((20, 63, 1e-6), dict(min_nnz=1)),
    ((20, 64, 1e-6), dict(min_nnz=1)),
    ((20, 65, 1e-6), dict(min_nnz=1)),
    ((20, 128, 1e-6), dict(min_nnz=1)),
    ((4, 70000, 0.05), dict()),  # the partial shuffle, read off 1094 words
    ((3, 1000, 0.5), dict()),  # three columns, each alone in its length class
    ((40, 100, 0.35), dict()),  # lengths from 32 up, past BLAS ddot's unrolled blocks
    ((8, 5000, 0.6), dict()),  # lengths near 3000
    ((50, 5, 0.05), dict(min_nnz=0)),  # empty columns among length classes
])
def test_synth_compiled_matches_on_edge_shapes(args, kwargs):
    require_synth_kernel()
    assert_same_synth(*synth_on_both_backends(*args, seed=11, **kwargs))


def test_synth_peak_allocation_is_no_higher_than_per_column_norms():
    """The hinge shape's synth_binary allocates no more at its peak than
    when each column was scaled by its own math.sqrt(v.dot(v)) in a Python
    loop, as the columns of each length are gathered and scaled at once.
    That loop peaked at 5,786,320 to 5,786,488 bytes, depending on the
    tests run before it (5,786,368 in a bare interpreter): the tracemalloc
    peak of this call after one identical call in the same process, which
    pays the first-use allocations, with numpy 2.4.6 on x86-64 Linux.  The
    bound is the highest of those readings."""
    require_synth_kernel()
    import tracemalloc

    synth_binary(10000, 1000, 0.02, seed=1003, min_nnz=1)
    tracemalloc.start()
    try:
        synth_binary(10000, 1000, 0.02, seed=1003, min_nnz=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5_786_488


def test_synth_restarts_in_python_when_capacity_is_short(monkeypatch):
    require_synth_kernel()
    want = synth_on_both_backends(300, 50, 0.2, seed=4)[1]
    monkeypatch.setattr(data, "_synth_capacity", lambda *args: 100)
    calls = []
    python = data._synth_columns_python
    monkeypatch.setattr(data, "_synth_columns_python",
                        lambda *args: calls.append(1) or python(*args))
    assert_same_synth(synth_binary(300, 50, 0.2, seed=4), want)
    assert calls == [1]


# ---------------------------------------------------------------------------
# column stats
# ---------------------------------------------------------------------------

def column_stats(A):
    """(max column norm R, spectral norm estimate)."""
    return math.sqrt(float(A.col_norms_sq().max())), oracles.spectral_norm(A)


def test_column_stats_identity():
    A = oracles.from_dense(np.eye(3))
    R, sigma = column_stats(A)
    assert R == pytest.approx(1.0)
    assert sigma == pytest.approx(1.0, rel=1e-6)


def test_column_stats_single_column():
    A = oracles.from_dense(np.array([[3.0], [4.0]]))
    R, sigma = column_stats(A)
    assert R == pytest.approx(5.0)
    assert sigma == pytest.approx(5.0, rel=1e-9)


def test_spectral_norm_matches_dense_svd():
    for seed in range(4):
        A = random_sparse(20, 50, seed=seed, density=0.3)
        want = oracles.dense_spectral_norm(A)
        assert oracles.spectral_norm(A) == pytest.approx(want, rel=1e-5)


def test_norm_chain_inequality():
    # ||A||_2 <= ||A||_F <= sqrt(n) R
    for seed in range(3):
        A, _ = synth_binary(60, 25, 0.4, seed=seed, min_nnz=1)
        R, sigma = column_stats(A)
        frob = math.sqrt(float(np.sum(A.values ** 2)))
        assert sigma <= frob * (1 + 1e-9)
        assert frob <= math.sqrt(A.n) * R * (1 + 1e-12)
