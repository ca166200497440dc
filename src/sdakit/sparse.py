"""Sparse CSR matrices, ternary label vectors, and labeled-mean centering.

The data model is deliberately small: a read-only CSR matrix over float64,
a label vector with values +1 / -1 (labeled classes) and 0 (unlabeled), and
a centering vector holding the mean of the labeled rows in feature space.

Centering is never applied to the stored matrix (that would densify it).
Instead `centered_matvec` and `centered_matvec_transpose` fold the rank-one
correction into the product:

    (X - 1 mu^T) v   = X v   - 1 <mu, v>
    (X - 1 mu^T)^T w = X^T w - mu * sum(w)

with mu = X^T 1_l / l the mean labeled row. Applied transposed to the
labeled indicator this correction vanishes identically, which is what keeps
the non-discriminative all-ones direction out of Krylov iterations.

X^T w runs on a second CSR, that of X^T, built on the first transposed
product and kept for the matrix's life. Its row for feature j lists the
samples holding j in increasing order, so each output sums its terms in
the same order as a CSC view of X's own arrays would: the products are
bit-identical, without rebuilding a scipy wrapper on every call. The cost
is one more copy of X's indices and values.

Both products also take a block of k vectors, an n x k array with one
vector per column. scipy's multi-vector CSR kernel walks each row's stored
entries in the same order as its one-vector kernel and keeps a running sum
per column, so column j of X V equals X V[:, j] bit for bit, while the
matrix's arrays are read once for all k columns.

Index arrays are int32 when n_rows, n_cols and nnz are all below 2**31,
else int64: scipy's own rule, decided only in `SparseMatrix.__post_init__`.
`_csr` and each row range below are assigned onto an empty `csr_matrix`,
so they run on the given arrays (the `(data, indices, indptr)` constructor
may convert them and copies a view under half its base): a matrix holds
one copy of each array.

A large product is split across CPUs by rows. The rows of `_csr` (for X v)
or `_csr_t` (for X^T w) are cut into contiguous ranges holding about equal
numbers of stored entries (Williams et al., "Optimization of sparse
matrix-vector multiplication on emerging multicore platforms", SC 2007),
one range per worker, and each range writes its slice of one output
array. A matrix gets min(available CPUs, nnz // 2**18) workers and at
least one, so small matrices stay serial. The split is bit-identical to
the serial product: every output entry is one row's sum, taken by one
worker over the same terms in the same order as without the split. scipy
releases the interpreter lock inside the kernel, so threads run the
ranges in parallel; the calling thread runs the first range itself.
A block of one column is split like a vector. A wider block runs whole:
scipy gives each range its own output before the copy into one array,
which doubles a wide block's memory, and at 200 000 x 1 000 with 2 M
stored entries a 13-column block took as long split as whole (medians
19.6 and 18.3 ms over 30 alternating calls on 2 CPUs).

Each range is a scipy CSR whose `indices` and `data` are views of the
full matrix's arrays (only its `indptr`, one int per row, is new), and
the ranges are built once and kept next to `_csr` and `_csr_t`. The
worker threads belong to one pool per process, made on the first product
that splits; a process forked after a split product makes its own,
because the parent's threads do not exist in the child.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .blas import available_cpus

# Stored entries per worker below which a product is not split further.
_MIN_NNZ_PER_WORKER = 1 << 18

# (first row, stop row, CSR of those rows) of one row range.
_Range = tuple[int, int, sp.csr_matrix]


class SparseFormatError(ValueError):
    """Structural problem in sparse data: bad indices, shapes, duplicates."""


class LabelError(ValueError):
    """Invalid label vector for binary discriminant analysis."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


_pools: dict[tuple[int, int], ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()


def _pool(n_workers: int) -> ThreadPoolExecutor:
    """The process's pool of n_workers threads, keyed by process id so that
    a forked child never waits on threads that only its parent has."""
    key = (os.getpid(), n_workers)
    with _pools_lock:
        if key not in _pools:
            _pools[key] = ThreadPoolExecutor(n_workers, thread_name_prefix="sdakit-spmv")
        return _pools[key]


def _csr_of(shape, data, indices, indptr) -> sp.csr_matrix:
    """A scipy CSR over these very arrays (see the module docstring)."""
    m = sp.csr_matrix(shape, dtype=data.dtype)
    m.data, m.indices, m.indptr = data, indices, indptr
    return m


def _row_ranges(csr: sp.csr_matrix, n: int) -> tuple[_Range, ...]:
    """n contiguous row ranges of csr with about nnz / n stored entries
    each; a range may be empty. One range is csr itself."""
    n_rows = csr.shape[0]
    if n == 1:
        return ((0, n_rows, csr),)
    indptr = csr.indptr
    targets = np.arange(1, n, dtype=np.int64) * int(indptr[-1]) // n
    bounds = [0, *np.searchsorted(indptr, targets).tolist(), n_rows]
    ranges = []
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        a, b = indptr[r0], indptr[r1]
        part = _csr_of((r1 - r0, csr.shape[1]), csr.data[a:b], csr.indices[a:b],
                       indptr[r0 : r1 + 1] - a)
        ranges.append((r0, r1, part))
    return tuple(ranges)


def _split_dot(ranges: tuple[_Range, ...], v: np.ndarray) -> np.ndarray:
    """The product of the matrix that ranges cut, with v: each range on its
    own thread, writing its rows of the output."""
    if len(ranges) == 1:
        return ranges[0][2].dot(v)
    out = np.empty(ranges[-1][1])

    def run(k: int) -> None:
        r0, r1, part = ranges[k]
        out[r0:r1] = part.dot(v)

    futures = [_pool(len(ranges) - 1).submit(run, k) for k in range(1, len(ranges))]
    try:
        run(0)
    finally:
        for f in futures:
            f.result()
    return out


def _dot(csr: sp.csr_matrix, ranges: tuple[_Range, ...], v: np.ndarray) -> np.ndarray:
    """csr times the vector or C-contiguous block v: a vector, or a block
    of one column taken as one, split over ranges; a wider block whole
    (see the module docstring)."""
    if v.ndim == 1:
        return _split_dot(ranges, v)
    if v.shape[1] == 1:
        return _split_dot(ranges, v[:, 0])[:, None]
    return csr.dot(v)


def _operand(v, n: int, name: str) -> np.ndarray:
    """v as a float64 vector of length n or a C-contiguous n x k block."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[0] != n:
        raise ValueError(f"{name} expects a vector of length {n} or a block of {n} rows, "
                         f"got {v.shape}")
    return np.ascontiguousarray(v)


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Immutable CSR matrix with float64 values.

    Invariants enforced at construction:
      * row_offsets has length n_rows + 1, starts at 0, ends at nnz,
        and is non-decreasing;
      * column indices are strictly increasing within each row (which also
        rules out duplicate entries);
      * no explicitly stored zero values;
      * values are finite float64;
      * index arrays are int32 while n_rows, n_cols, nnz < 2**31, else int64.
    """

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.row_offsets, other.row_offsets)
            and np.array_equal(self.col_indices, other.col_indices)
            and np.array_equal(self.values, other.values)
        )

    def __post_init__(self):
        if self.n_rows < 0 or self.n_cols < 0:
            raise SparseFormatError("matrix shape must be non-negative")
        # Validated as int32 or int64 and narrowed after, so no index wraps.
        offs, cols = (a if a.dtype == np.int32 else a.astype(np.int64, copy=False)
                      for a in map(np.asarray, (self.row_offsets, self.col_indices)))
        vals = np.asarray(self.values, dtype=np.float64)
        if offs.shape != (self.n_rows + 1,):
            raise SparseFormatError("row_offsets must have length n_rows + 1")
        if offs[0] != 0 or offs[-1] != vals.size or np.any(offs[1:] < offs[:-1]):
            raise SparseFormatError("row_offsets must be non-decreasing from 0 to nnz")
        if cols.shape != vals.shape or cols.ndim != 1:
            raise SparseFormatError("col_indices and values must be parallel 1-d arrays")
        if vals.size:
            if cols.min() < 0 or cols.max() >= self.n_cols:
                raise SparseFormatError("column index out of range")
            row_id = np.repeat(np.arange(self.n_rows), np.diff(offs))
            same_row = row_id[1:] == row_id[:-1]
            if np.any(same_row & (np.diff(cols) <= 0)):
                raise SparseFormatError(
                    "column indices must be strictly increasing within each row "
                    "(duplicate entries are rejected, not summed)"
                )
            if np.any(vals == 0.0):
                raise SparseFormatError("explicitly stored zero values are not allowed")
            if not np.all(np.isfinite(vals)):
                raise SparseFormatError("values must be finite")
        idx = np.int32 if max(self.n_rows, self.n_cols, vals.size) < 2**31 else np.int64
        object.__setattr__(self, "row_offsets", _readonly(offs.astype(idx, copy=False)))
        object.__setattr__(self, "col_indices", _readonly(cols.astype(idx, copy=False)))
        object.__setattr__(self, "values", _readonly(vals))

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @cached_property
    def _csr(self) -> sp.csr_matrix:
        # scipy handle used as the matvec kernel, over the matrix's own arrays.
        return _csr_of(self.shape, self.values, self.col_indices, self.row_offsets)

    @cached_property
    def _csr_t(self) -> sp.csr_matrix:
        # X^T as its own CSR, built once (see the module docstring).
        return self._csr.T.tocsr()

    @cached_property
    def product_threads(self) -> int:
        """Row ranges, one per thread, that X v and X^T w split into: the
        CPUs this process may use, at most one per 2**18 stored entries,
        and at least 1. Fixed at first use."""
        return max(1, min(available_cpus(), self.nnz // _MIN_NNZ_PER_WORKER))

    @cached_property
    def _ranges(self) -> tuple[_Range, ...]:
        return _row_ranges(self._csr, self.product_threads)

    @cached_property
    def _ranges_t(self) -> tuple[_Range, ...]:
        return _row_ranges(self._csr_t, self.product_threads)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Return X v, or X V for an n_cols x k block V (see the module
        docstring). Cost is linear in nnz."""
        return _dot(self._csr, self._ranges, _operand(v, self.n_cols, "matvec"))

    def matvec_transpose(self, w: np.ndarray) -> np.ndarray:
        """Return X^T w, or X^T W for an n_rows x k block W. Cost is linear
        in nnz."""
        return _dot(self._csr_t, self._ranges_t, _operand(w, self.n_rows, "matvec_transpose"))

    def row_support(self, i: int) -> np.ndarray:
        """Column indices with a stored entry in row i."""
        if not 0 <= i < self.n_rows:
            raise IndexError(f"row {i} out of range for {self.n_rows} rows")
        return self.col_indices[self.row_offsets[i] : self.row_offsets[i + 1]]

    def row_nnz(self) -> np.ndarray:
        return np.diff(self.row_offsets)

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.values))


def build_sparse(n_rows, n_cols, rows, cols, values) -> SparseMatrix:
    """Build a SparseMatrix from (row, col, value) triples.

    Triples may come in any order. Zero values are dropped. Duplicate
    (row, col) pairs and out-of-range indices raise SparseFormatError.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
        raise SparseFormatError("rows, cols, values must be parallel 1-d arrays")
    if rows.size:
        if rows.min() < 0 or rows.max() >= n_rows:
            raise SparseFormatError("row index out of range")
        if cols.min() < 0 or cols.max() >= n_cols:
            raise SparseFormatError("column index out of range")
    keep = values != 0.0
    rows, cols, values = rows[keep], cols[keep], values[keep]
    # Row-major input with strictly increasing columns (what the text writer
    # emits) is already canonical and duplicate-free; sort anything else.
    dr, dc = np.diff(rows), np.diff(cols)
    if not np.all((dr > 0) | ((dr == 0) & (dc > 0))):
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        dup = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        if np.any(dup):
            k = int(np.flatnonzero(dup)[0])
            raise SparseFormatError(
                f"duplicate entry at (row={rows[k]}, col={cols[k]}); "
                "duplicates indicate an upstream bug and are not summed"
            )
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=offsets[1:])
    return SparseMatrix(n_rows, n_cols, offsets, cols, values)


def binary_from_keys(n_rows, n_cols, keys: np.ndarray) -> SparseMatrix:
    """Binary matrix with a one at each linearized key row * n_cols + col.

    keys is an int64 array, sorted here in place; repeated keys store one
    entry. After the sort a neighbour compare drops the repeats, leaving the
    keys `np.unique` returns (row-major, strictly increasing columns) at a
    small fraction of its cost.
    """
    keys.sort()
    keys = keys[np.diff(keys, prepend=-1) != 0]
    rows, cols = np.divmod(keys, n_cols)
    return build_sparse(n_rows, n_cols, rows, cols, np.ones(keys.size))


class LabelVector:
    """Ternary labels over N samples: +1 and -1 mark the two labeled
    classes, 0 marks unlabeled samples."""

    def __init__(self, labels):
        labels = np.asarray(labels)
        if labels.ndim != 1:
            raise LabelError("labels must be a 1-d array")
        if not np.isin(labels, (-1, 0, 1)).all():
            raise LabelError("labels must take values in {+1, -1, 0}")
        self.labels = _readonly(labels.astype(np.int8))
        self.n = int(labels.size)
        self.n_class1 = int(np.count_nonzero(labels == 1))
        self.n_class2 = int(np.count_nonzero(labels == -1))
        self.n_labeled = self.n_class1 + self.n_class2

    @cached_property
    def mask_labeled(self) -> np.ndarray:
        return _readonly(self.labels != 0)

    @cached_property
    def mask_class1(self) -> np.ndarray:
        return _readonly(self.labels == 1)

    @cached_property
    def mask_class2(self) -> np.ndarray:
        return _readonly(self.labels == -1)

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelVector) and np.array_equal(self.labels, other.labels)


@dataclass(frozen=True)
class CenteringVector:
    """Mean of the labeled rows in feature space, mu = X^T 1_l / l."""

    mu: np.ndarray
    n_labeled: int

    def __post_init__(self):
        object.__setattr__(self, "mu", _readonly(np.asarray(self.mu, dtype=np.float64)))


def labeled_mean(x: SparseMatrix, labels: LabelVector) -> CenteringVector:
    """Mean labeled row mu = X^T 1_l / l."""
    if labels.n != x.n_rows:
        raise LabelError(f"labels length {labels.n} does not match {x.n_rows} rows")
    if labels.n_labeled == 0:
        raise LabelError("centering requires at least one labeled sample")
    ind = labels.mask_labeled.astype(np.float64)
    return CenteringVector(mu=x.matvec_transpose(ind) / labels.n_labeled, n_labeled=labels.n_labeled)


def centered_matvec(x: SparseMatrix, c: CenteringVector, v: np.ndarray) -> np.ndarray:
    """(X - 1 mu^T) v = X v - 1 <mu, v>."""
    v = np.asarray(v, dtype=np.float64)
    return x.matvec(v) - float(c.mu @ v)


def centered_matvec_transpose(x: SparseMatrix, c: CenteringVector, w: np.ndarray) -> np.ndarray:
    """(X - 1 mu^T)^T w = X^T w - mu * sum(w)."""
    w = np.asarray(w, dtype=np.float64)
    return x.matvec_transpose(w) - c.mu * float(np.sum(w))
