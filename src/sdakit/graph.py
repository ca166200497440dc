"""Tanimoto similarity graphs and graph Laplacians for sparse binary data.

Similarity between two samples is the Tanimoto coefficient of their
feature supports, |a & b| / |a | b|, with the both-empty case defined
as 0. Pairwise computation goes through a blocked sparse product
X_block @ X^T, which enumerates exactly the candidate pairs sharing at
least one feature (an inverted-index filter); pairs that share nothing
never materialize. Results are exact, never approximate.

Two constructions are provided: a k-nearest-neighbor graph (union
symmetrization, ties at the cutoff broken toward the lowest sample
index) and a threshold graph keeping every pair with similarity >= theta.
The Laplacian is L = D - S with D the diagonal degree matrix.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import io as sdio
from .sparse import SparseMatrix, build_sparse, from_scipy


class GraphError(ValueError):
    """Invalid graph construction parameters or malformed adjacency."""


@dataclass(frozen=True)
class SimilarityGraph:
    """Undirected unweighted graph: binary symmetric adjacency, zero diagonal."""

    adjacency: SparseMatrix
    degrees: np.ndarray

    @property
    def n(self) -> int:
        return self.adjacency.n_rows

    @property
    def n_edges(self) -> int:
        return self.adjacency.nnz // 2


@dataclass(frozen=True)
class Laplacian:
    """Combinatorial graph Laplacian L = D - S."""

    matrix: SparseMatrix
    degrees: np.ndarray


def tanimoto(support_a, support_b) -> float:
    """Tanimoto coefficient of two index sets; 0 when both are empty."""
    a = np.asarray(support_a, dtype=np.int64)
    b = np.asarray(support_b, dtype=np.int64)
    inter = np.intersect1d(a, b).size
    union = np.union1d(a, b).size
    if union == 0:
        return 0.0
    return inter / union


def _pattern(x: SparseMatrix) -> sp.csr_matrix:
    # Support pattern with unit values; Tanimoto only sees the support.
    return sp.csr_matrix(
        (np.ones(x.nnz), x.col_indices, x.row_offsets), shape=(x.n_rows, x.n_cols)
    )


def _block_ranges(n: int, block_size: int):
    for start in range(0, n, block_size):
        yield start, min(start + block_size, n)


def _knn_rows_block(pattern, pattern_t, row_nnz, start, stop, k, n):
    """Directed neighbor lists for rows [start, stop)."""
    inter = (pattern[start:stop] @ pattern_t).tocsr()
    out = np.empty((stop - start, k), dtype=np.int64)
    for local, i in enumerate(range(start, stop)):
        lo, hi = inter.indptr[local], inter.indptr[local + 1]
        cand = inter.indices[lo:hi]
        counts = inter.data[lo:hi]
        keep = cand != i
        cand = cand[keep]
        counts = counts[keep]
        union = row_nnz[i] + row_nnz[cand] - counts
        sims = counts / union
        # Most similar first; equal similarity favors the lowest index.
        order = np.lexsort((cand, -sims))[:k]
        chosen = cand[order]
        if chosen.size < k:
            # Not enough positive-similarity candidates; pad with the
            # lowest-index remaining samples (all tied at similarity 0).
            taken = set(chosen.tolist())
            taken.add(i)
            pad = []
            j = 0
            while len(pad) < k - chosen.size:
                if j not in taken:
                    pad.append(j)
                j += 1
            chosen = np.concatenate([chosen, np.asarray(pad, dtype=np.int64)])
        out[local] = chosen
    return out


def _threshold_rows_block(pattern, pattern_t, row_nnz, start, stop, theta):
    """Edge lists (i, j) with similarity >= theta for rows [start, stop)."""
    inter = (pattern[start:stop] @ pattern_t).tocsr()
    srcs = []
    dsts = []
    for local, i in enumerate(range(start, stop)):
        lo, hi = inter.indptr[local], inter.indptr[local + 1]
        cand = inter.indices[lo:hi]
        counts = inter.data[lo:hi]
        keep = cand != i
        cand = cand[keep]
        counts = counts[keep]
        union = row_nnz[i] + row_nnz[cand] - counts
        sims = counts / union
        hit = cand[sims >= theta]
        srcs.append(np.full(hit.size, i, dtype=np.int64))
        dsts.append(hit)
    return np.concatenate(srcs) if srcs else np.empty(0, np.int64), (
        np.concatenate(dsts) if dsts else np.empty(0, np.int64)
    )


def _run_blocks(fn, n, block_size, n_threads):
    blocks = list(_block_ranges(n, block_size))
    if n_threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as ex:
            return list(ex.map(lambda b: fn(*b), blocks))
    return [fn(*b) for b in blocks]


def _adjacency_from_pairs(n: int, srcs: np.ndarray, dsts: np.ndarray) -> SimilarityGraph:
    # Symmetrize (union) and deduplicate via sorted linearized pair keys;
    # the survivors are row-major with strictly increasing columns.
    keys = np.concatenate([srcs * n + dsts, dsts * n + srcs])
    keys.sort()
    keys = keys[np.diff(keys, prepend=-1) != 0]
    rows, cols = np.divmod(keys, n)
    s = build_sparse(n, n, rows, cols, np.ones(keys.size))
    return SimilarityGraph(adjacency=s, degrees=np.diff(s.row_offsets).astype(np.int64))


def knn_graph(x: SparseMatrix, k: int, *, block_size: int = 1024, n_threads: int = 1) -> SimilarityGraph:
    """Union-symmetrized k-nearest-neighbor Tanimoto graph.

    Each sample contributes edges to its k most similar other samples;
    ties (including zero-similarity padding) resolve toward the lowest
    sample index, so the construction is fully deterministic.
    """
    n = x.n_rows
    if not 0 < k < n:
        raise GraphError(f"k must satisfy 0 < k < n_samples, got k={k}, n={n}")
    pattern = _pattern(x)
    pattern_t = pattern.T.tocsc()
    row_nnz = x.row_nnz()
    results = _run_blocks(
        lambda a, b: _knn_rows_block(pattern, pattern_t, row_nnz, a, b, k, n),
        n, block_size, n_threads,
    )
    neighbors = np.vstack(results)
    srcs = np.repeat(np.arange(n, dtype=np.int64), k)
    return _adjacency_from_pairs(n, srcs, neighbors.ravel())


def threshold_graph(x: SparseMatrix, theta: float, *, block_size: int = 1024, n_threads: int = 1) -> SimilarityGraph:
    """Graph with an edge wherever Tanimoto similarity >= theta."""
    if not 0.0 < theta <= 1.0:
        raise GraphError(f"theta must lie in (0, 1], got {theta}")
    n = x.n_rows
    pattern = _pattern(x)
    pattern_t = pattern.T.tocsc()
    row_nnz = x.row_nnz()
    results = _run_blocks(
        lambda a, b: _threshold_rows_block(pattern, pattern_t, row_nnz, a, b, theta),
        n, block_size, n_threads,
    )
    srcs = np.concatenate([r[0] for r in results])
    dsts = np.concatenate([r[1] for r in results])
    return _adjacency_from_pairs(n, srcs, dsts)


def laplacian(graph: SimilarityGraph) -> Laplacian:
    """L = D - S. Row sums are exactly zero; isolated vertices store nothing."""
    s = graph.adjacency
    lap = sp.diags(graph.degrees.astype(np.float64), format="csr", shape=s.shape) - s._csr
    return Laplacian(matrix=from_scipy(lap), degrees=graph.degrees.copy())


def graph_from_adjacency(adj: SparseMatrix) -> SimilarityGraph:
    """Validate and wrap an adjacency matrix loaded from disk."""
    if adj.n_rows != adj.n_cols:
        raise GraphError("adjacency must be square")
    if adj.nnz:
        if not np.all(adj.values == 1.0):
            raise GraphError("adjacency must be binary (all stored values 1)")
        t = adj._csr.T.tocsr()
        t.sort_indices()
        if not (
            np.array_equal(t.indptr, adj.row_offsets)
            and np.array_equal(t.indices, adj.col_indices)
        ):
            raise GraphError("adjacency must be symmetric")
        rows = np.repeat(np.arange(adj.n_rows), np.diff(adj.row_offsets))
        if np.any(rows == adj.col_indices):
            raise GraphError("adjacency must have a zero diagonal")
    return SimilarityGraph(adjacency=adj, degrees=np.diff(adj.row_offsets).astype(np.int64))


def save_graph(path, graph: SimilarityGraph, provenance: dict | None = None) -> None:
    """Persist adjacency in triplet text format with provenance comments."""
    comments = []
    if provenance:
        comments.append(" ".join(f"{k}={v}" for k, v in provenance.items()))
    sdio.write_sparse_text(path, graph.adjacency, comments)


def load_graph(path) -> tuple[SimilarityGraph, dict[str, str]]:
    adj, comments = sdio.read_sparse_text(path)
    return graph_from_adjacency(adj), sdio.parse_provenance(comments)
