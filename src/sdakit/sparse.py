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
is one more copy of X's indices and values (int32 indices while they fit).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp


class SparseFormatError(ValueError):
    """Structural problem in sparse data: bad indices, shapes, duplicates."""


class LabelError(ValueError):
    """Invalid label vector for binary discriminant analysis."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Immutable CSR matrix with float64 values.

    Invariants enforced at construction:
      * row_offsets has length n_rows + 1, starts at 0, ends at nnz,
        and is non-decreasing;
      * column indices are strictly increasing within each row (which also
        rules out duplicate entries);
      * no explicitly stored zero values;
      * values are finite float64.
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
        offs = np.asarray(self.row_offsets, dtype=np.int64)
        cols = np.asarray(self.col_indices, dtype=np.int64)
        vals = np.asarray(self.values, dtype=np.float64)
        if offs.shape != (self.n_rows + 1,):
            raise SparseFormatError("row_offsets must have length n_rows + 1")
        if offs[0] != 0 or offs[-1] != vals.size or np.any(np.diff(offs) < 0):
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
        object.__setattr__(self, "row_offsets", _readonly(offs))
        object.__setattr__(self, "col_indices", _readonly(cols))
        object.__setattr__(self, "values", _readonly(vals))

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @cached_property
    def _csr(self) -> sp.csr_matrix:
        # scipy handle used as the matvec kernel; it shares the values and
        # holds int32 copies of the index arrays while they fit.
        return sp.csr_matrix(
            (self.values, self.col_indices, self.row_offsets),
            shape=(self.n_rows, self.n_cols),
        )

    @cached_property
    def _csr_t(self) -> sp.csr_matrix:
        # X^T as its own CSR, built once (see the module docstring).
        return self._csr.T.tocsr()

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Return X v. Cost is linear in nnz."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n_cols,):
            raise ValueError(f"matvec expects a vector of length {self.n_cols}, got {v.shape}")
        return self._csr.dot(v)

    def matvec_transpose(self, w: np.ndarray) -> np.ndarray:
        """Return X^T w. Cost is linear in nnz."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.n_rows,):
            raise ValueError(
                f"matvec_transpose expects a vector of length {self.n_rows}, got {w.shape}"
            )
        return self._csr_t.dot(w)

    def row_support(self, i: int) -> np.ndarray:
        """Column indices with a stored entry in row i."""
        if not 0 <= i < self.n_rows:
            raise IndexError(f"row {i} out of range for {self.n_rows} rows")
        return self.col_indices[self.row_offsets[i] : self.row_offsets[i + 1]]

    def row_nnz(self) -> np.ndarray:
        return np.diff(self.row_offsets)

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.values))


def from_scipy(m) -> SparseMatrix:
    """Wrap a scipy sparse matrix, canonicalizing its storage."""
    c = sp.csr_matrix(m, copy=True)
    c.sum_duplicates()
    c.sort_indices()
    c.eliminate_zeros()
    return SparseMatrix(
        n_rows=c.shape[0],
        n_cols=c.shape[1],
        row_offsets=c.indptr.astype(np.int64),
        col_indices=c.indices.astype(np.int64),
        values=c.data.astype(np.float64),
    )


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
