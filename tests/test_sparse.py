"""Sparse container, matvec kernels, centering, serialization."""

import hashlib
import multiprocessing
import os
import queue
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from sdakit import graph as sgraph
from sdakit import io as sio
from sdakit import sparse
from sdakit.sparse import (
    LabelError,
    LabelVector,
    SparseFormatError,
    SparseMatrix,
    binary_from_keys,
    build_sparse,
    centered_labeled_gram,
    centered_matvec_transpose,
    labeled_mean,
)
from conftest import (
    dense_of,
    force_split,
    labels_first,
    random_binary_matrix,
    random_matrix,
    random_triplets,
)


# A 2x3 matrix small enough to multiply by hand:
#   [[1, 0, 2],
#    [0, 3, 0]]
HAND = build_sparse(2, 3, [0, 0, 1], [0, 2, 1], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------- construction


def test_build_sorts_triplets():
    m = build_sparse(2, 3, [1, 0, 0], [1, 2, 0], [3.0, 2.0, 1.0])
    assert m.row_offsets.tolist() == [0, 2, 3]
    assert m.col_indices.tolist() == [0, 2, 1]
    assert m.values.tolist() == [1.0, 2.0, 3.0]


def test_build_sorted_and_shuffled_triplets_agree(rng):
    rows, cols, values, _ = random_triplets(rng, 30, 20, 0.3)
    order = np.lexsort((cols, rows))
    shuffle = rng.permutation(rows.size)
    sorted_rows, sorted_cols = rows[order], cols[order]
    m = build_sparse(30, 20, sorted_rows, sorted_cols, values[order])
    assert m == build_sparse(30, 20, rows[shuffle], cols[shuffle], values[shuffle])
    assert not np.shares_memory(m.col_indices, sorted_cols)
    assert sorted_cols.flags.writeable


def test_build_drops_explicit_zeros():
    m = build_sparse(2, 2, [0, 1], [0, 1], [1.0, 0.0])
    assert m.nnz == 1
    assert m.values.tolist() == [1.0]


def test_build_rejects_duplicates():
    with pytest.raises(SparseFormatError, match="duplicate"):
        build_sparse(2, 2, [0, 0], [1, 1], [1.0, 2.0])


def test_build_rejects_out_of_range():
    with pytest.raises(SparseFormatError):
        build_sparse(2, 2, [0], [2], [1.0])
    with pytest.raises(SparseFormatError):
        build_sparse(2, 2, [-1], [0], [1.0])


def test_container_rejects_unsorted_columns():
    with pytest.raises(SparseFormatError):
        SparseMatrix(1, 3, np.array([0, 2]), np.array([2, 0]), np.array([1.0, 1.0]))


# (row lengths, columns): each row's columns strictly increase.
ORDERED = [
    ([2, 2], [3, 5, 0, 1]),           # a decrease across a row boundary
    ([2, 0, 0, 2], [3, 5, 0, 1]),     # ... across empty rows
    ([0, 2, 1], [4, 5, 4]),           # an empty first row
    ([2, 1, 0], [4, 5, 0]),           # an empty last row
    ([1, 1, 1], [5, 5, 5]),           # one entry per row, repeated across rows
    ([0, 0, 0], []),
]
# One repeat or decrease inside a row.
UNORDERED = [
    ([2], [3, 3]),
    ([2, 2], [0, 4, 4, 2]),           # in the last row
    ([2, 0, 2], [0, 4, 5, 5]),        # the first pair after an empty row
    ([0, 3], [1, 4, 2]),
    ([3, 1], [1, 0, 2, 5]),
]


def _offsets_and_cols(lengths, cols, base, dtype):
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(dtype)
    return offsets, (np.array(cols, dtype=np.int64) + base).astype(dtype)


# The int32 path, and the int64 one on columns that straddle 2**31.
INDEX_PATHS = [(10, 0, np.int32), (2**31 + 10, 2**31 - 3, np.int64)]


@pytest.mark.parametrize("n_cols, base, dtype", INDEX_PATHS)
@pytest.mark.parametrize("lengths, cols", ORDERED)
def test_container_accepts_columns_ordered_within_rows(lengths, cols, n_cols, base, dtype):
    offsets, c = _offsets_and_cols(lengths, cols, base, dtype)
    m = SparseMatrix(len(lengths), n_cols, offsets, c, np.ones(c.size))
    assert m.col_indices.dtype == dtype
    np.testing.assert_array_equal(m.col_indices, c)


@pytest.mark.parametrize("n_cols, base, dtype", INDEX_PATHS)
@pytest.mark.parametrize("lengths, cols", UNORDERED)
def test_container_rejects_unordered_columns_within_a_row(lengths, cols, n_cols, base, dtype):
    offsets, c = _offsets_and_cols(lengths, cols, base, dtype)
    with pytest.raises(SparseFormatError, match="strictly increasing"):
        SparseMatrix(len(lengths), n_cols, offsets, c, np.ones(c.size))


def test_container_rejects_nonfinite():
    with pytest.raises(SparseFormatError):
        SparseMatrix(1, 2, np.array([0, 1]), np.array([0]), np.array([np.nan]))


def test_container_rejects_bad_offsets():
    with pytest.raises(SparseFormatError):
        SparseMatrix(2, 2, np.array([0, 2, 1]), np.array([0, 1]), np.array([1.0, 1.0]))


def test_container_checks_indices_before_narrowing():
    # Narrowed to int32 first, column 2**32 would wrap to column 0.
    with pytest.raises(SparseFormatError, match="out of range"):
        SparseMatrix(1, 2, np.array([0, 1]), np.array([2**32]), np.array([1.0]))


@pytest.mark.parametrize("n_cols, dtype", [(2**31 - 1, np.int32), (2**31, np.int64)])
def test_index_dtype_is_int32_while_it_fits(tmp_path, n_cols, dtype):
    """One entry in the last column. No product runs: X^T w alone would
    allocate n_cols float64s."""
    m = SparseMatrix(1, n_cols, np.array([0, 1]), np.array([n_cols - 1]), np.array([2.5]))
    assert m.row_offsets.dtype == m.col_indices.dtype == dtype
    assert np.shares_memory(m._csr.indices, m.col_indices)
    # The file and the checksum see int64 indices whatever the dtype in memory.
    wide = np.array([1, n_cols, 1, 0, 1, n_cols - 1], "<i8").tobytes() + np.array([2.5], "<f8").tobytes()
    assert sio.matrix_checksum(m) == hashlib.sha256(wide).hexdigest()
    sio.write_sparse_binary(tmp_path / "m.bin", m)
    assert (tmp_path / "m.bin").read_bytes() == sio.MAGIC_SPARSE + wide
    sio.write_sparse_text(tmp_path / "m.smx", m)
    assert (tmp_path / "m.smx").read_text() == f"1 {n_cols} 1\n0 {n_cols - 1} 2.5\n"
    for back in (sio.read_sparse_binary(tmp_path / "m.bin"), sio.read_sparse_text(tmp_path / "m.smx")[0]):
        assert back == m
        assert back.row_offsets.dtype == back.col_indices.dtype == dtype
        assert sio.matrix_checksum(back) == sio.matrix_checksum(m)


def test_matrix_holds_one_copy_of_each_array(tmp_path, rng):
    x, _ = random_matrix(rng, 40, 30, 0.2)
    csr = sp.random(30, 20, density=0.2, format="csr", random_state=1)
    sio.write_sparse_binary(tmp_path / "x.bin", x)
    binary = sio.read_sparse_binary(tmp_path / "x.bin")
    made = {
        "build_sparse": x,
        "SparseMatrix": SparseMatrix(*csr.shape, csr.indptr, csr.indices, csr.data),
        "read_sparse_binary": binary,
        "laplacian": sgraph.laplacian(sgraph.knn_graph(x, 3)).matrix,
    }
    for name, m in made.items():
        assert m.row_offsets.dtype == m.col_indices.dtype == np.int32, name
        assert np.shares_memory(m._csr.indptr, m.row_offsets), name
        assert np.shares_memory(m._csr.indices, m.col_indices), name
        assert np.shares_memory(m._csr.data, m.values), name
    for a in (binary.row_offsets, binary.col_indices, binary.values):
        while a is not None:
            assert not isinstance(a, bytes)
            a = a.base
    assert np.shares_memory(sgraph._Blocks(x).pattern.indices, x.col_indices)


def test_arrays_are_read_only():
    with pytest.raises(ValueError):
        HAND.values[0] = 9.0


def test_round_trip_matches_naive_dense_construction(rng):
    rows, cols, values, dense = random_triplets(rng, 50, 40, 0.15)
    m = build_sparse(50, 40, rows, cols, values)
    np.testing.assert_array_equal(dense_of(m), dense)


def test_binary_from_keys_stores_each_key_once(rng):
    keys = rng.integers(0, 12 * 7, 200)  # 200 draws over 84 cells: many repeats
    m = binary_from_keys(12, 7, keys.copy())
    unique = np.unique(keys)
    assert m == build_sparse(12, 7, unique // 7, unique % 7, np.ones(unique.size))
    assert binary_from_keys(3, 4, np.empty(0, np.int64)) == build_sparse(3, 4, [], [], [])


# -------------------------------------------------------------------- matvecs


def test_zero_matrix_matvec_is_zero():
    z = build_sparse(3, 4, [], [], [])
    np.testing.assert_array_equal(z.matvec(np.ones(4)), np.zeros(3))
    np.testing.assert_array_equal(z.matvec_transpose(np.ones(3)), np.zeros(4))


def test_hand_matvec():
    np.testing.assert_array_equal(HAND.matvec([1.0, 10.0, 100.0]), [201.0, 30.0])


def test_hand_matvec_transpose():
    np.testing.assert_array_equal(HAND.matvec_transpose([2.0, 5.0]), [2.0, 15.0, 4.0])


def test_identity_transpose_is_identity():
    eye = build_sparse(3, 3, [0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(eye.matvec_transpose([4.0, 5.0, 6.0]), [4.0, 5.0, 6.0])


def test_one_hot_transpose_extracts_row():
    for i in range(HAND.n_rows):
        e = np.zeros(HAND.n_rows)
        e[i] = 1.0
        np.testing.assert_array_equal(HAND.matvec_transpose(e), dense_of(HAND)[i])


def test_random_matvec_against_dense(rng):
    m, dense = random_matrix(rng, 30, 20)
    for _ in range(5):
        v = rng.standard_normal(20)
        got, want = m.matvec(v), dense @ v
        assert np.linalg.norm(got - want) <= 1e-13 * max(np.linalg.norm(want), 1.0)
        w = rng.standard_normal(30)
        got, want = m.matvec_transpose(w), dense.T @ w
        assert np.linalg.norm(got - want) <= 1e-13 * max(np.linalg.norm(want), 1.0)


def _csc_scatter_transpose(m: SparseMatrix, w: np.ndarray) -> np.ndarray:
    """X^T w from a CSC view of X's own arrays, built per call: the
    reference the cached transpose must match bit for bit."""
    return sp.csc_matrix(
        (m.values, m.col_indices, m.row_offsets), shape=(m.n_cols, m.n_rows)
    ).dot(w)


def _transpose_cases():
    r = np.random.default_rng(2024)
    # rows 3, 50 and 299 and columns 0 and 119 hold nothing; values span
    # sixteen decades with both signs
    rows, cols, vals, _ = random_triplets(r, 300, 120, 0.05)
    vals = vals * r.choice([-1.0, 1.0], size=vals.size) * 10.0 ** r.integers(-8, 8, vals.size)
    keep = ~(np.isin(rows, [3, 50, 299]) | np.isin(cols, [0, 119]))
    return {
        "random": random_matrix(r, 300, 120, 0.3)[0],
        "empty rows and columns": build_sparse(300, 120, rows[keep], cols[keep], vals[keep]),
        "nnz 0": build_sparse(7, 5, [], [], []),
        "no columns": build_sparse(4, 0, [], [], []),
        "hand": HAND,
    }


@pytest.mark.parametrize("name", sorted(_transpose_cases()))
def test_matvec_transpose_bit_equal_to_csc_scatter(name):
    m = _transpose_cases()[name]
    r = np.random.default_rng(7)
    for w in (r.standard_normal(m.n_rows), np.ones(m.n_rows), np.zeros(m.n_rows)):
        got = m.matvec_transpose(w)
        want = _csc_scatter_transpose(m, w)
        assert got.dtype == want.dtype and got.shape == want.shape == (m.n_cols,)
        assert got.tobytes() == want.tobytes()


def _count_sparse_constructions(monkeypatch) -> list[str]:
    """Names of the scipy sparse classes constructed from now on."""
    made = []
    for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix,
                sp.csr_array, sp.csc_array, sp.coo_array):
        def counting_init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            made.append(_name)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    sp.csc_matrix((2, 2))
    assert made == ["csc_matrix"]  # the counter sees a construction
    made.clear()
    return made


def test_matvec_transpose_builds_no_sparse_matrix_per_call(monkeypatch):
    """X^T is built once; later products construct no scipy sparse matrix."""
    m, _ = random_matrix(np.random.default_rng(3), 60, 40, 0.2)
    w = np.ones(m.n_rows)
    m.matvec_transpose(w)
    made = _count_sparse_constructions(monkeypatch)
    for _ in range(100):
        m.matvec_transpose(w)
    assert made == []


# ----------------------------------------------------------- row-range split


def _split_cases():
    r = np.random.default_rng(11)
    rows, cols, vals, _ = random_triplets(r, 200, 60, 0.15)
    vals = vals * r.choice([-1.0, 1.0], size=vals.size) * 10.0 ** r.integers(-8, 8, vals.size)
    odd = rows % 2 == 1
    # row 5 holds most entries, so some cuts fall on the same row
    tail = rows > 195
    heavy = (np.r_[np.full(60, 5), rows[tail]], np.r_[np.arange(60), cols[tail]])
    return {
        "random": build_sparse(200, 60, rows, cols, vals),
        # every cut has an empty row on one side of it
        "empty odd rows": build_sparse(200, 60, rows[~odd], cols[~odd], vals[~odd]),
        "one heavy row": build_sparse(200, 60, *heavy, np.ones(heavy[0].size)),
        "trailing empty rows": build_sparse(200, 60, rows[rows < 120], cols[rows < 120],
                                            vals[rows < 120]),
        "nnz 0": build_sparse(40, 10, [], [], []),
    }


@pytest.mark.parametrize("n", [2, 3, 7])
@pytest.mark.parametrize("name", sorted(_split_cases()))
def test_split_products_bit_equal_to_unsplit(monkeypatch, name, n):
    force_split(monkeypatch, n)
    m = _split_cases()[name]
    r = np.random.default_rng(5)
    v, w = r.standard_normal(m.n_cols), r.standard_normal(m.n_rows)
    assert m.product_threads == (n if m.nnz else 1)
    assert m.matvec(v).tobytes() == m._csr.dot(v).tobytes()
    assert m.matvec_transpose(w).tobytes() == m._csr_t.dot(w).tobytes()
    assert m.matvec_transpose(w).tobytes() == _csc_scatter_transpose(m, w).tobytes()
    for csr, x in ((m._csr, v), (m._csr_t, w)):
        ranges = sparse._row_ranges(csr, n)
        assert len(ranges) == n
        assert [r0 for r0, _, _ in ranges] + [csr.shape[0]] == [0] + [r1 for _, r1, _ in ranges]
        widest_row = int(np.diff(csr.indptr).max(initial=0))
        for _, _, part in ranges:
            assert part.nnz <= -(-csr.nnz // n) + widest_row
        assert sparse._dot(ranges, x).tobytes() == csr.dot(x).tobytes()


def _block_cases():
    return {**{f"split: {k}": m for k, m in _split_cases().items()},
            **{f"transpose: {k}": m for k, m in _transpose_cases().items()}}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(_block_cases()))
def test_block_products_equal_column_products(monkeypatch, name, n):
    """X V and X^T W for an n x k block, split into the forced row ranges:
    the whole equals scipy's own product, and each column the product
    with that column alone, bit for bit, for C- and Fortran-ordered
    blocks. A one-column block runs on the vector kernel, a wider one on
    the multi-vector kernel."""
    force_split(monkeypatch, n)
    m = _block_cases()[name]
    r = np.random.default_rng(9)
    for k in (1, 2, 6, 13):
        v = r.standard_normal((m.n_cols, k)) * 10.0 ** r.integers(-8, 8, (m.n_cols, k))
        w = r.standard_normal((m.n_rows, k))
        for product, csr, block, rows in ((m.matvec, m._csr, v, m.n_rows),
                                          (m.matvec, m._csr, np.asfortranarray(v), m.n_rows),
                                          (m.matvec_transpose, m._csr_t, w, m.n_cols)):
            out = product(block)
            assert out.shape == (rows, k)
            assert out.tobytes() == csr.dot(block).tobytes()
            for j in range(k):
                assert out[:, j].tobytes() == product(np.ascontiguousarray(block[:, j])).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_int64_index_ranges_bit_equal_to_csr_dot(n):
    """The kernels are called on the ranges' own arrays, so a CSR with
    int64 indices, as a matrix past 2**31 entries has, runs on int64."""
    m = _split_cases()["random"]
    csr = sparse._csr_of(m.shape, m.values, m.col_indices.astype(np.int64),
                         m.row_offsets.astype(np.int64))
    ranges = sparse._row_ranges(csr, n)
    assert all(part.indptr.dtype == part.indices.dtype == np.int64 for _, _, part in ranges)
    r = np.random.default_rng(17)
    for v in (r.standard_normal(m.n_cols), *(r.standard_normal((m.n_cols, k)) for k in (1, 2, 13))):
        assert sparse._dot(ranges, v).tobytes() == csr.dot(v).tobytes()


def test_split_vector_product_holds_only_its_output(monkeypatch):
    """Each range writes its rows of the one output: a split product
    allocates no temporary per range."""
    force_split(monkeypatch, 2)
    n = 50_000
    keys = np.random.default_rng(19).integers(0, n * n, 200_000)
    m = binary_from_keys(n, n, keys)
    v = np.ones(n)
    for product in (m.matvec, m.matvec_transpose):
        product(v)  # ranges and pool are built on the first product
        tracemalloc.start()
        try:
            out = product(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.product_threads == 2
        assert peak <= 1.1 * out.nbytes


def test_products_reject_blocks_of_the_wrong_shape():
    for bad in (np.ones((HAND.n_cols + 1, 2)), np.ones((HAND.n_cols, 2, 1)), np.ones(())):
        with pytest.raises(ValueError):
            HAND.matvec(bad)
    with pytest.raises(ValueError):
        HAND.matvec_transpose(np.ones((HAND.n_rows + 1, 2)))


def test_heavy_row_leaves_an_empty_range():
    m = _split_cases()["one heavy row"]
    assert any(r0 == r1 for r0, r1, _ in sparse._row_ranges(m._csr, 7))


def test_ranges_are_views_built_once(monkeypatch):
    force_split(monkeypatch, 3)
    m, _ = random_matrix(np.random.default_rng(3), 60, 40, 0.2)
    v, w = np.ones(m.n_cols), np.ones(m.n_rows)
    m.matvec(v), m.matvec_transpose(w)
    for ranges, csr in ((m._ranges, m._csr), (m._ranges_t, m._csr_t)):
        assert len(ranges) == 3
        for _, _, part in ranges:
            assert np.shares_memory(part.indices, csr.indices)
            assert np.shares_memory(part.data, csr.data)
    made = _count_sparse_constructions(monkeypatch)
    for _ in range(20):
        m.matvec(v), m.matvec_transpose(w)
    assert made == []


def test_product_threads_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(sparse, "_MIN_NNZ_PER_WORKER", 10)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    m, _ = random_matrix(np.random.default_rng(3), 60, 40, 0.2)  # about 480 entries
    assert m.product_threads == 3
    assert build_sparse(4, 4, [0, 1], [0, 1], [1.0, 1.0]).product_threads == 1


def _child_matvec(m, v, out):
    out.put(m.matvec(v).tobytes())


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_child_runs_split_product(monkeypatch):
    """A child forked after a split product has none of its parent's pool
    threads; its own product must not wait on them."""
    force_split(monkeypatch, 2)
    m, _ = random_matrix(np.random.default_rng(3), 60, 40, 0.2)
    v = np.random.default_rng(4).standard_normal(m.n_cols)
    want = m.matvec(v).tobytes()
    assert m.product_threads == 2
    ctx = multiprocessing.get_context("fork")
    out = ctx.Queue()
    child = ctx.Process(target=_child_matvec, args=(m, v, out))
    child.start()
    try:
        got = out.get(timeout=30)
    except queue.Empty:
        got = None
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
    assert got == want
    assert child.exitcode == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_adjoint_identity(seed):
    """<Xv, w> == <v, X^T w> for random X, v, w."""
    r = np.random.default_rng(seed)
    m, _ = random_matrix(r, int(r.integers(1, 25)), int(r.integers(1, 25)), 0.3)
    v = r.standard_normal(m.n_cols)
    w = r.standard_normal(m.n_rows)
    left = m.matvec(v) @ w
    right = v @ m.matvec_transpose(w)
    scale = max(abs(left), abs(right), 1.0)
    assert abs(left - right) <= 1e-12 * scale


def test_row_nnz():
    assert HAND.row_nnz().tolist() == [2, 1]


# ---------------------------------------------------------------- Gram matrix


def test_gram_of_binary_matrix_is_exact(rng):
    """Binary X: every entry of X^T X is a count, so G equals the dense
    product exactly."""
    m, dense = random_binary_matrix(rng, 50, 12, 0.4)
    g = m.gram
    np.testing.assert_array_equal(g, dense.T @ dense)
    assert not g.flags.writeable
    assert m.gram is g  # built once


def test_gram_of_real_matrix_matches_dense_to_rounding(rng):
    m, dense = random_matrix(rng, 60, 10, 0.5)
    g = m.gram
    want = dense.T @ dense
    np.testing.assert_allclose(g, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
    np.testing.assert_array_equal(g, g.T)  # each pair sums the same terms in one order


def test_gram_assembled_in_row_blocks_equals_one_product(rng, monkeypatch):
    """G is filled a few rows of X^T at a time; the blocks change no bit."""
    m, _ = random_matrix(rng, 80, 11, 0.5)
    whole = (m._csr_t @ m._csr).toarray()
    monkeypatch.setattr(sparse, "_GRAM_ROWS", 3)
    fresh = SparseMatrix(m.n_rows, m.n_cols, m.row_offsets, m.col_indices, m.values)
    assert fresh.gram.tobytes() == whole.tobytes()


@pytest.mark.parametrize("d", [6, 9])
def test_gram_rule_admits_up_to_the_size_of_x(rng, d):
    """G is kept while its 8 d^2 bytes are at most X's 12 bytes per stored
    entry: at nnz = 2 d^2 / 3, and not one entry below."""
    at = 2 * d * d // 3
    for nnz, kept in ((at, True), (at - 1, False)):
        keys = rng.choice(4 * at * d, size=nnz, replace=False)
        m = build_sparse(4 * at, d, keys // d, keys % d, np.ones(nnz))
        assert m.nnz == nnz and (8 * d * d <= 12 * nnz) == kept
        assert (m.gram is not None) == m.gram_fits == kept


def _integer_laplacian(rng, n: int) -> SparseMatrix:
    """L = D - S of a random symmetric 0/1 adjacency, from its triplets."""
    s = np.triu(rng.uniform(size=(n, n)) < 0.15, 1)
    s = (s | s.T).astype(float)
    lap = np.diag(s.sum(axis=1)) - s
    rows, cols = np.nonzero(lap)
    return build_sparse(n, n, rows, cols, lap[rows, cols])


def test_gram_through_is_exact_for_binary_x_and_an_integer_laplacian(rng, monkeypatch):
    """K = X^T L X: for binary X and an integer L every entry is an integer
    sum, so K equals the dense product exactly and is exactly symmetric,
    assembled in one block or 3 rows of X^T at a time."""
    m, dense = random_binary_matrix(rng, 70, 11, 0.3)
    lap = _integer_laplacian(rng, 70)
    want = dense.T @ dense_of(lap) @ dense
    whole = m.gram_through(lap)
    np.testing.assert_array_equal(whole, want)
    np.testing.assert_array_equal(whole, whole.T)
    assert not whole.flags.writeable
    monkeypatch.setattr(sparse, "_GRAM_ROWS", 3)
    np.testing.assert_array_equal(m.gram_through(lap), want)
    with pytest.raises(ValueError, match="70 x 70"):
        m.gram_through(m)


def test_centered_labeled_gram_matches_dense_to_rounding(rng):
    """(X_l - 1 mu^T)^T (X_l - 1 mu^T) over the labeled rows against the
    dense centered labeled rows."""
    m, dense = random_matrix(rng, 50, 11, 0.4)
    labels = LabelVector(rng.choice([1, -1, 0, 0], size=50))
    mu = labeled_mean(m, labels)
    xl = dense[labels.mask_labeled]
    centered = xl - xl.mean(axis=0)
    want = centered.T @ centered
    got = centered_labeled_gram(m, labels, mu)
    assert got.flags.writeable and got.shape == (11, 11)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


# ------------------------------------------------------------------ centering


def test_single_labeled_row_mean_is_that_row():
    labels = LabelVector([1, 0])
    np.testing.assert_array_equal(labeled_mean(HAND, labels), [1.0, 0.0, 2.0])


def test_hand_mean_of_two_labeled_rows():
    # 5x3 matrix; rows 0 and 1 labeled. Row 0 = [1,0,2], row 1 = [0,4,0],
    # so the labeled mean is [0.5, 2, 1].
    m = build_sparse(5, 3, [0, 0, 1, 2, 3, 4], [0, 2, 1, 0, 1, 2], [1.0, 2.0, 4.0, 7.0, 8.0, 9.0])
    mu = labeled_mean(m, labels_first(1, 1, 3))
    np.testing.assert_array_equal(mu, [0.5, 2.0, 1.0])
    assert not mu.flags.writeable


def test_labeled_mean_requires_labels():
    with pytest.raises(LabelError):
        labeled_mean(HAND, LabelVector([0, 0]))
    with pytest.raises(LabelError):
        labeled_mean(HAND, LabelVector([1, 0, -1]))


def test_centered_matvec_zero_vector():
    mu = labeled_mean(HAND, LabelVector([1, -1]))
    np.testing.assert_array_equal(centered_matvec_transpose(HAND, mu, np.zeros(2)), np.zeros(3))


def test_centered_matvec_against_dense(rng):
    m, dense = random_matrix(rng, 25, 15)
    labels = labels_first(4, 3, 18)
    mu = labeled_mean(m, labels)
    centered = dense - np.outer(np.ones(25), dense[:7].mean(axis=0))
    for _ in range(5):
        w = rng.standard_normal(25)
        assert np.linalg.norm(
            centered_matvec_transpose(m, mu, w) - centered.T @ w
        ) <= 1e-12 * max(1.0, np.linalg.norm(centered.T @ w))


def test_centering_annihilates_labeled_indicator(rng):
    """(X - 1 mu^T)^T applied to the labeled indicator vanishes."""
    for _ in range(20):
        n, d = int(rng.integers(2, 40)), int(rng.integers(1, 30))
        n_lab = int(rng.integers(1, n + 1))
        m, _ = random_matrix(rng, n, d, 0.3)
        labels = LabelVector([1] * n_lab + [0] * (n - n_lab))
        mu = labeled_mean(m, labels)
        ind = labels.mask_labeled.astype(float)
        out = centered_matvec_transpose(m, mu, ind)
        assert np.max(np.abs(out)) <= 1e-12 * max(np.linalg.norm(m.values), 1.0)


# --------------------------------------------------------------------- labels


def test_label_vector_counts():
    lv = LabelVector([1, -1, 0, 1, 0])
    assert (lv.n_class1, lv.n_class2, lv.n_labeled) == (2, 1, 3)
    assert lv.mask_labeled.tolist() == [True, True, False, True, False]


def test_label_vector_rejects_bad_values():
    with pytest.raises(LabelError):
        LabelVector([1, 2, 0])


# -------------------------------------------------------------- serialization


def test_text_round_trip_bit_exact(rng):
    m, _ = random_matrix(rng, 50, 40, 0.1)
    path = "/tmp/sdakit-test-roundtrip.smx"
    sio.write_sparse_text(path, m, comments=["provenance k=3"])
    back, comments = sio.read_sparse_text(path)
    assert back == m
    np.testing.assert_array_equal(back.values, m.values)  # bit-exact via %.17g
    assert comments == ["provenance k=3"]


def test_binary_round_trip(tmp_path, rng):
    m, _ = random_matrix(rng, 30, 25, 0.2)
    path = tmp_path / "m.bin"
    sio.write_sparse_binary(path, m)
    assert sio.read_sparse_binary(path) == m


def test_read_sparse_sniffs_format(tmp_path, rng):
    m, _ = random_matrix(rng, 9, 7)
    sio.write_sparse_text(tmp_path / "a.smx", m)
    sio.write_sparse_binary(tmp_path / "a.bin", m)
    assert sio.read_sparse(tmp_path / "a.smx") == m
    assert sio.read_sparse(tmp_path / "a.bin") == m


def test_text_reader_reports_line_numbers(tmp_path):
    bad = tmp_path / "bad.smx"
    bad.write_text("2 2 1\n0 0 1.0\n0 oops 2.0\n")
    with pytest.raises(SparseFormatError, match=r"bad\.smx:3"):
        sio.read_sparse_text(bad)


def test_text_reader_rejects_wrong_counts(tmp_path):
    bad = tmp_path / "bad.smx"
    bad.write_text("2 2 3\n0 0 1.0\n")
    with pytest.raises(SparseFormatError):
        sio.read_sparse_text(bad)


def test_binary_reader_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(SparseFormatError):
        sio.read_sparse_binary(p)


def test_binary_reader_rejects_truncation(tmp_path, rng):
    m, _ = random_matrix(rng, 10, 10)
    p = tmp_path / "m.bin"
    sio.write_sparse_binary(p, m)
    data = p.read_bytes()
    p.write_bytes(data[:-4])
    with pytest.raises(SparseFormatError):
        sio.read_sparse_binary(p)
    p.write_bytes(data[:20])  # cut inside the header
    with pytest.raises(SparseFormatError):
        sio.read_sparse_binary(p)


# ------------------------------------------------- bulk reader vs line scan


def outcomes(path, *readers):
    """Each reader's result on one file, or its error's type and message."""
    out = []
    for read in readers:
        try:
            out.append(read(path))
        except ValueError as e:
            out.append((type(e).__name__, str(e)))
    return out


SPARSE_ACCEPTED = {
    "comments between triplets": "# a=1\n2 3 2\n# b\n0 1 1.5\n#\n1 2 -2\n",
    "blank lines": "\n2 3 2\n\n0 1 1.5\n   \n1 2 -2\n\n",
    "crlf": "# a=1\r\n2 3 2\r\n0 1 1.5\r\n1 2 -2\r\n",
    "tabs": "2\t3\t2\n0\t1\t1.5\n\t1 2\t-2\n",
    "no trailing newline": "2 3 2\n0 1 1.5\n1 2 -2",
    "plus signs": "2 3 2\n+0 +1 +1.5\n1 2 -2\n",
    "underscores": "1_1 3 2\n0 1 1_5\n1_0 2 -2\n",
    "unsorted triplets": "2 3 2\n1 2 -2\n0 1 1.5\n",
    "explicit zero": "2 3 2\n0 1 0.0\n1 2 -2\n",
    "nnz zero": "3 4 0\n",
    "nnz zero, trailing blanks": "# c\n3 4 0\n\n  \n",
    "int64 max value": "2 3 2\n0 1 9223372036854775807\n1 2 -2\n",
    "int64 min value": "2 3 2\n0 1 -9223372036854775808\n1 2 -2\n",
    "value beyond int64": "2 3 2\n0 1 99999999999999999999\n1 2 -99999999999999999999\n",
    "2**53 + 1 value": "2 3 2\n0 1 9007199254740993\n1 2 -9007199254740993\n",
    "leading zeros": "2 3 2\n00 001 007\n01 2 -0002\n",
    "double space": "2 3 2\n0  1 1\n1 2 -2\n",
    "one float value halfway": "4 3 5\n0 0 1\n1 1 2\n2 2 0.5\n3 0 3\n3 2 4\n",
}

SPARSE_REJECTED = {
    "float index": ("2 3 1\n1.0 2 1\n", "bad.smx:2"),
    "short line": ("2 3 2\n0 1\n1 2 -2\n", "bad.smx:2"),
    "long line": ("2 3 2\n0 1 1\n1 2 -2 7\n", "bad.smx:3"),
    "short header": ("2 3\n0 1 1\n", "bad.smx:1"),
    "bad value": ("2 3 1\n0 1 x\n", "bad.smx:2"),
    "count mismatch": ("2 3 3\n0 1 1\n1 2 1\n", "promises 3 entries, found 2"),
    "missing header": ("# only a comment\n\n", "missing header"),
    "duplicate": ("2 3 2\n0 1 1\n0 1 2\n", "duplicate entry"),
    "out of range": ("2 3 1\n2 0 1\n", "row index out of range"),
    "non-finite": ("2 3 1\n0 0 nan\n", "finite"),
    "row index beyond int64": ("2 3 1\n99999999999999999999 0 1\n", "bad.smx:2"),
    "header beyond int64": ("99999999999999999999 3 1\n0 1 1\n", "bad.smx:1"),
    "token 1-2": ("2 3 1\n0 1-2 1\n", "bad.smx:2"),
    "sign alone": ("2 3 1\n0 - 1\n", "bad.smx:2"),
}


def write_raw(path, text):
    path.write_bytes(text.encode())
    return path


@pytest.mark.parametrize("name", sorted(SPARSE_ACCEPTED))
def test_bulk_reader_matches_line_scan_on_accepted_files(tmp_path, name):
    path = write_raw(tmp_path / "ok.smx", SPARSE_ACCEPTED[name])
    bulk, scan = outcomes(path, sio.read_sparse_text, sio._scan_sparse_text)
    assert isinstance(scan, tuple) and isinstance(scan[0], SparseMatrix)
    assert bulk[0] == scan[0]
    assert bulk[1] == scan[1]


@pytest.mark.parametrize("name", sorted(SPARSE_REJECTED))
def test_bulk_reader_matches_line_scan_on_rejected_files(tmp_path, name):
    text, message = SPARSE_REJECTED[name]
    path = write_raw(tmp_path / "bad.smx", text)
    bulk, scan = outcomes(path, sio.read_sparse_text, sio._scan_sparse_text)
    assert bulk == scan
    assert bulk[0] == "SparseFormatError" and message in bulk[1]


def test_text_round_trip_of_extreme_values_is_bit_exact(tmp_path):
    values = np.array([
        5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
        1e308, -1e308, np.finfo(np.float64).max, -np.finfo(np.float64).max,
        0.1, 1 / 3, -2 / 3, np.pi, 1.0000000000000002, 9007199254740993.0,
        123456789.12345678, -0.30000000000000004,
    ])
    m = build_sparse(4, 4, np.arange(16) // 4, np.arange(16) % 4, values)
    path = tmp_path / "extreme.smx"
    sio.write_sparse_text(path, m)
    back, _ = sio.read_sparse_text(path)
    assert back == m
    np.testing.assert_array_equal(back.values.view(np.int64), m.values.view(np.int64))


def _per_line_text(x: SparseMatrix, comments) -> str:
    """The text format written one %-formatted line per triplet."""
    lines = [f"# {c}\n" for c in comments] + [f"{x.n_rows} {x.n_cols} {x.nnz}\n"]
    rows = np.repeat(np.arange(x.n_rows), np.diff(x.row_offsets))
    for r, c, v in zip(rows, x.col_indices, x.values):
        lines.append("%d %d %.17g\n" % (r, c, v))
    return "".join(lines)


@pytest.mark.parametrize("comments", [(), ("metric=tanimoto k=5", "data-sha256=abc")])
def test_text_writer_bytes_match_per_line_formatting(tmp_path, comments):
    values = np.array([
        0.1, 1 / 3, -2 / 3, np.pi, 1.0000000000000002, -0.30000000000000004,
        123456789.12345678, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
        -1.7976931348623157e308, 1.0, -1.0, 7.0, 9007199254740993.0,
    ])
    cases = {
        "extremes": build_sparse(5, 7, [0, 0, 0, 1, 1, 1, 1, 1, 3, 3, 3, 3, 4, 4, 4, 4],
                                 [0, 3, 6, 0, 1, 2, 4, 5, 1, 2, 3, 6, 0, 2, 4, 6], values),
        "empty": build_sparse(3, 4, [], [], []),
        "no rows": build_sparse(0, 0, [], [], []),
    }
    for name, m in cases.items():
        path = tmp_path / f"{name}.smx"
        sio.write_sparse_text(path, m, comments)
        assert path.read_bytes() == _per_line_text(m, comments).encode(), name


def test_written_file_is_read_without_line_scan(tmp_path, rng, monkeypatch):
    m, _ = random_matrix(rng, 40, 30, 0.2)
    path = tmp_path / "m.smx"
    sio.write_sparse_text(path, m, comments=["metric=tanimoto k=5", "data-sha256=abc"])

    def no_scan(path):
        raise AssertionError("line scan entered")

    monkeypatch.setattr(sio, "_scan_sparse_text", no_scan)
    back, comments = sio.read_sparse_text(path)
    assert back == m
    assert comments == ["metric=tanimoto k=5", "data-sha256=abc"]


def test_integer_values_read_as_float_of_the_token(tmp_path):
    tokens = ["9223372036854775807", "-9223372036854775808", "99999999999999999999",
              "9007199254740993", "-0002", "123456789012345678"]
    body = "".join(f"{i} 0 {t}\n" for i, t in enumerate(tokens))
    path = write_raw(tmp_path / "ints.smx", f"{len(tokens)} 1 {len(tokens)}\n{body}")
    back, _ = sio.read_sparse_text(path)
    expected = np.array([float(t) for t in tokens])
    np.testing.assert_array_equal(back.values.view(np.int64), expected.view(np.int64))


def test_integer_files_are_read_without_loadtxt_or_line_scan(tmp_path, rng, monkeypatch):
    x, _ = random_binary_matrix(rng, 60, 40, 0.2)
    graph = sgraph.knn_graph(x, k=3)
    labels = LabelVector(rng.choice([-1, 0, 1], size=60))
    sio.write_sparse_text(tmp_path / "x.smx", x, comments=["source=test"])
    sgraph.save_graph(tmp_path / "g.txt", graph, {"k": 3})
    sio.write_labels(tmp_path / "l.txt", labels)

    def refuse(*args, **kwargs):
        raise AssertionError("left the integer path")

    for name in ("_scan_sparse_text", "_scan_labels"):
        monkeypatch.setattr(sio, name, refuse)
    monkeypatch.setattr(sio.np, "loadtxt", refuse)
    assert sio.read_sparse(tmp_path / "x.smx") == x
    assert sgraph.load_graph(tmp_path / "g.txt")[0].adjacency == graph.adjacency
    assert sio.read_labels(tmp_path / "l.txt") == labels


def test_multi_line_comment_is_refused_before_the_file_opens(tmp_path):
    for comment in ("a\n1 1 1", "a\rb"):
        with pytest.raises(ValueError, match="one line"):
            sio.write_sparse_text(tmp_path / "m.smx", HAND, comments=[comment])
        assert not (tmp_path / "m.smx").exists()


LABELS_ACCEPTED = {
    "plain": "1\n-1\n0\n0\n",
    "plus sign": "+1\n-1\n0\n",
    "comments and blanks": "# labels\n1\n\n-1\n  # c\n0\n",
    "crlf": "1\r\n-1\r\n0\r\n",
    "no trailing newline": "1\n-1\n0",
    "padding": "  1\n\t-1 \n0\n",
    "underscore": "0_0\n1\n-1\n",
    "single label": "1\n",
    "empty": "",
}

LABELS_REJECTED = {
    "float": ("1\n1.0\n-1\n", "SparseFormatError", "bad.txt:2"),
    "two columns": ("1 0\n-1 0\n", "SparseFormatError", "bad.txt:1"),
    "one line, two columns": ("1 -1\n", "SparseFormatError", "bad.txt:1"),
    "word": ("1\nyes\n", "SparseFormatError", "bad.txt:2"),
    "bad value": ("1\n2\n-1\n", "LabelError", "values in"),
    "beyond int64": ("1\n99999999999999999999\n-1\n", "SparseFormatError", "bad.txt:2"),
    "token 1-2": ("1\n1-2\n-1\n", "SparseFormatError", "bad.txt:2"),
}


@pytest.mark.parametrize("name", sorted(LABELS_ACCEPTED))
def test_bulk_labels_match_line_scan_on_accepted_files(tmp_path, name):
    path = write_raw(tmp_path / "ok.txt", LABELS_ACCEPTED[name])
    bulk, scan = outcomes(path, sio.read_labels, sio._scan_labels)
    assert isinstance(scan, LabelVector)
    assert bulk == scan


@pytest.mark.parametrize("name", sorted(LABELS_REJECTED))
def test_bulk_labels_match_line_scan_on_rejected_files(tmp_path, name):
    text, error, message = LABELS_REJECTED[name]
    path = write_raw(tmp_path / "bad.txt", text)
    bulk, scan = outcomes(path, sio.read_labels, sio._scan_labels)
    assert bulk == scan
    assert bulk[0] == error and message in bulk[1]


def test_written_labels_are_read_without_line_scan(tmp_path, monkeypatch):
    lv = LabelVector([1, -1, 0, 0, 1])
    sio.write_labels(tmp_path / "l.txt", lv)

    def no_scan(path):
        raise AssertionError("line scan entered")

    monkeypatch.setattr(sio, "_scan_labels", no_scan)
    assert sio.read_labels(tmp_path / "l.txt") == lv


def test_labels_round_trip(tmp_path):
    lv = LabelVector([1, -1, 0, 0, 1])
    sio.write_labels(tmp_path / "l.txt", lv)
    assert sio.read_labels(tmp_path / "l.txt") == lv


def test_checksum_is_content_addressed(tmp_path, rng):
    m, _ = random_matrix(rng, 15, 10)
    c1 = sio.matrix_checksum(m)
    sio.write_sparse_binary(tmp_path / "m.bin", m)
    assert sio.matrix_checksum(sio.read_sparse_binary(tmp_path / "m.bin")) == c1
    other = build_sparse(15, 10, [0], [0], [1.0])
    assert sio.matrix_checksum(other) != c1


def test_ratings_round_trip(tmp_path):
    betas = np.array([0.01, 1.0])
    scores = np.array([[0.5, -0.25, 1.5], [2.0, 0.0, 3.0]])  # one row per beta
    sio.write_ratings(tmp_path / "r.bin", betas, scores)
    b2, s2 = sio.read_ratings(tmp_path / "r.bin")
    np.testing.assert_array_equal(b2, betas)
    np.testing.assert_array_equal(s2, scores)


@pytest.mark.parametrize("cut", ["truncated", "oversized", "header only", "inside header"])
def test_ratings_reader_checks_size_against_header(tmp_path, cut):
    p = tmp_path / "r.bin"
    sio.write_ratings(p, np.array([0.01, 1.0]), np.arange(6.0).reshape(2, 3))
    data = p.read_bytes()
    p.write_bytes({"truncated": data[:-8], "oversized": data + bytes(8),
                   "header only": data[:24], "inside header": data[:20]}[cut])
    with pytest.raises(SparseFormatError, match="r.bin: truncated or oversized"):
        sio.read_ratings(p)


# ---------------------------------------------------------------- performance


def test_matvec_cost_scales_with_nnz():
    """Time per stored entry should be about flat as nnz grows 8x."""
    rng = np.random.default_rng(0)

    def best_time(m, v, reps=5):
        best = np.inf
        for _ in range(reps):
            t0 = time.perf_counter()
            m.matvec(v)
            best = min(best, time.perf_counter() - t0)
        return best

    small, _ = random_matrix(rng, 2000, 400, 0.05)   # ~40k nnz
    big, _ = random_matrix(rng, 16000, 400, 0.05)    # ~320k nnz
    v = rng.standard_normal(400)
    t_small = best_time(small, v) / small.nnz
    t_big = best_time(big, v) / big.nnz
    assert t_big <= 5.0 * t_small
