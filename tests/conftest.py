"""Shared helpers: independent dense constructions used as test oracles.

Every oracle here is built straight from triplets or definitions with plain
numpy, never through the library's own sparse types, so agreement between
the two is meaningful.
"""

import numpy as np
import pytest

from sdakit import graph, krylov, sparse
from sdakit.sparse import LabelVector, SparseMatrix, build_sparse


def random_triplets(rng: np.random.Generator, n_rows: int, n_cols: int, density: float):
    """Random binary-ish triplets plus the dense matrix they describe."""
    mask = rng.uniform(size=(n_rows, n_cols)) < density
    rows, cols = np.nonzero(mask)
    values = rng.uniform(0.5, 2.0, size=rows.size)
    dense = np.zeros((n_rows, n_cols))
    dense[rows, cols] = values
    return rows, cols, values, dense


def random_matrix(rng, n_rows, n_cols, density=0.2):
    rows, cols, values, dense = random_triplets(rng, n_rows, n_cols, density)
    return build_sparse(n_rows, n_cols, rows, cols, values), dense


def random_binary_matrix(rng, n_rows, n_cols, density=0.2):
    rows, cols, _, _ = random_triplets(rng, n_rows, n_cols, density)
    values = np.ones(rows.size)
    dense = np.zeros((n_rows, n_cols))
    dense[rows, cols] = 1.0
    return build_sparse(n_rows, n_cols, rows, cols, values), dense


def force_split(monkeypatch, n_cpus: int) -> None:
    """Split every product with at least n_cpus stored entries n_cpus ways.
    The split is fixed at a matrix's first product, so build matrices after."""
    monkeypatch.setattr(sparse, "_MIN_NNZ_PER_WORKER", 1)
    monkeypatch.setattr(sparse, "available_cpus", lambda: n_cpus)


def fixed_block_rows(monkeypatch, rows: int) -> None:
    """Cut every graph build into blocks of `rows` rows on both routes, in
    place of the blocks that the working-set budget sizes."""
    monkeypatch.setattr(graph, "_block_rows", lambda row_bytes, n: rows)


def update_cols(monkeypatch, cols: int) -> None:
    """Update shifted_cg's solution and search-direction blocks `cols`
    columns at a time, in place of the measured chunk."""
    monkeypatch.setattr(krylov, "_UPDATE_COLS", cols)


def matrix_free(monkeypatch) -> None:
    """Keep no Gram matrix, so X^T X goes through the sparse products. A
    matrix's gram is fixed at first use, so read it only after."""
    monkeypatch.setattr(SparseMatrix, "gram", None)


def dense_of(m: SparseMatrix) -> np.ndarray:
    """Expand CSR arrays by walking the definition (offset slices per row)."""
    out = np.zeros((m.n_rows, m.n_cols))
    for i in range(m.n_rows):
        lo, hi = m.row_offsets[i], m.row_offsets[i + 1]
        out[i, m.col_indices[lo:hi]] = m.values[lo:hi]
    return out


def labels_first(n_pos: int, n_neg: int, n_unlabeled: int) -> LabelVector:
    return LabelVector([1] * n_pos + [-1] * n_neg + [0] * n_unlabeled)


def dense_w(labels: LabelVector) -> np.ndarray:
    """Class-mean broadcast matrix assembled by definition: block J/n_c on
    each labeled class, zero elsewhere."""
    n = labels.n
    w = np.zeros((n, n))
    for cls in (1, -1):
        idx = np.flatnonzero(labels.labels == cls)
        if idx.size:
            w[np.ix_(idx, idx)] = 1.0 / idx.size
    return w


def dense_smoother(labels: LabelVector, lap_dense: np.ndarray, alpha: float) -> np.ndarray:
    m = np.zeros_like(lap_dense)
    idx = np.flatnonzero(labels.labels != 0)
    m[idx, idx] = 1.0 - alpha
    return m + alpha * lap_dense


def pairwise_auc(scores, truth) -> float:
    """O(n^2) AUC: count positive-over-negative wins, half credit for ties."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth)
    pos = scores[truth == 1]
    neg = scores[truth == -1]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (pos.size * neg.size)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
