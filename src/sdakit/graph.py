"""Tanimoto similarity graphs and graph Laplacians for sparse binary data.

Similarity between two samples is the Tanimoto coefficient of their
feature supports, |a & b| / |a | b|, with the both-empty case defined
as 0. Two constructions are provided: a k-nearest-neighbor graph (union
symmetrization, ties at the cutoff broken toward the lowest sample
index) and a threshold graph keeping every pair with similarity >= theta.
The Laplacian is L = D - S with D the diagonal degree matrix.

Graphs are built one block of rows at a time on a thread pool. A kNN
block is scored against all N samples. A threshold graph needs no
ranking, so it scores each unordered pair once, in the block that holds
its lower index, and symmetrizes what it keeps (the each-pair-once idea
of Bayardo, Ma & Srikant, "Scaling up all pairs similarity search",
WWW 2007). Whatever route each row of a pair takes, the lower row's
block decides the pair, so mixed routes stay exact. A block's intersection counts |a & b| come from one of two
products of the binary pattern, both exact: counts are integers, held in
float32 while every row has fewer than 2^24 features (float64 beyond).

- Dense counts: `pattern[r0:] @ block.toarray().T` for a block whose
  first row is r0, an (N - r0) x b array from one scipy product; a kNN
  block takes r0 = 0. It needs b x D dense entries and no BLAS.
- Sparse counts: `block @ pattern.T`, with the transpose built once. It
  enumerates only the pairs that share a feature (an inverted-index
  filter); pairs that share nothing never materialize. A threshold
  block keeps the samples above each row.

Each row takes the route with the smaller working set. A dense-route
row holds its densified row (4 bytes per feature) and, per sample,
counts, float64 similarities and their union, then the selection's
copy: about 20 N + 4 D bytes. A sparse-route row holds at most its
candidate work in product entries, and a selection row as wide as its
candidates: at most 72 bytes per unit of candidate work. Candidate work
is the sparse product's multiply-add count for a row, the sum over its
features of how many samples hold each feature. Both bounds are for a
row scored against all N samples; a threshold row scores fewer.
Fingerprint-like rows,
whose candidate work exceeds N, take the dense route: their sparse
product would be about as large and cost far more per entry. Rows of
very sparse, high-dimensional data take the sparse route, where the
dense one would scan all N samples for a few dozen candidates.

Block rows come from a fixed working-set budget per worker (about 8 MB)
divided by the working set of one row on the block's route; on the
sparse route that is the bound for the route's largest candidate work.
A sparse block therefore never holds more per row than a dense one, and
on sparse data it holds many more rows.

Selection is exact. Similarities are count / (|a| + |b| - count) in
float64. Correct rounding keeps the order of the exact rationals: two
distinct ratios with denominators below 2^25 differ by more than two
units in the last place, so they never round to one value. kNN takes the
k-th largest similarity of each row with one partition, keeps every
entry at or above it, and ranks those few by similarity and then by
sample index. Samples that share no feature with a row have similarity
0, so a row with fewer than k candidates is padded with the
lowest-index non-candidates: on the dense route they are in the row
already; on the sparse route the row gets samples 0..k that are not
candidates, which always hold enough of them. The threshold graph keeps
every entry >= theta.

GraphStats.candidate_pairs counts the unordered pairs that share a
feature: a threshold build counts each once, a kNN build each twice and
halves the sum.

A graph loaded from disk is checked by graph_from_adjacency: square,
binary, symmetric, zero on its diagonal. Symmetry is checked from sorted
pair keys, not from a transpose, which would scatter all entries over N
columns only for a yes or no. At 200 000 rows and 2.0 M entries the
check takes about 50 ms and holds about 15 bytes per entry at its traced
peak; the transpose took 131 ms and 22 bytes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import io as sdio
from .blas import blas_threads
from .sparse import SparseMatrix, binary_from_keys

# Working-set budget of one worker's block of rows.
_BLOCK_BUDGET_BYTES = 8 << 20
# Bytes a dense-route block holds at once, per row. Per sample: float32
# counts with float64 similarities (12), then the similarities with their
# union (16), then with the selection's copy and mask (17). Per feature:
# the float32 densified row.
_BYTES_PER_SAMPLE = 20
_BYTES_PER_FEATURE = 4
# Bytes a sparse-route block holds at once: per candidate, the product's
# entry, its row, position and union (40); per selection slot, the
# float64 similarity and sample index (12), later the selection's copy
# and mask (21).
_BYTES_PER_CANDIDATE = 48
_BYTES_PER_SLOT = 24


class GraphError(ValueError):
    """Invalid graph construction parameters or malformed adjacency."""


@dataclass(frozen=True)
class GraphStats:
    """How a graph was built: pool threads, rows per block on the dense
    and the sparse route, the rows that took the dense route, and the
    unordered sample pairs that share at least one feature."""

    threads: int
    block_rows: tuple[int, int]
    dense_rows: int
    candidate_pairs: int


@dataclass(frozen=True)
class SimilarityGraph:
    """Undirected unweighted graph: binary symmetric adjacency, zero diagonal.

    stats is set on graphs that knn_graph or threshold_graph built."""

    adjacency: SparseMatrix
    degrees: np.ndarray
    stats: GraphStats | None = None

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


def _dense_row_bytes(n: int, d: int) -> int:
    """Working set of one dense-route row."""
    return _BYTES_PER_SAMPLE * n + _BYTES_PER_FEATURE * d


def _sparse_row_bytes(work, fill: int):
    """Bound on the working set of a sparse-route row with candidate work
    `work`: it has at most that many candidates, and its selection row at
    most max(work, 2 fill) slots."""
    return _BYTES_PER_CANDIDATE * work + _BYTES_PER_SLOT * np.maximum(work, 2 * fill)


def _block_rows(row_bytes, n: int) -> int:
    """Rows per block that keep the block's working set within the budget."""
    return int(max(1, min(n, _BLOCK_BUDGET_BYTES // max(row_bytes, 1))))


class _Blocks:
    """Exact Tanimoto similarities of blocks of rows against the samples."""

    def __init__(self, x: SparseMatrix):
        self.n = x.n_rows
        pop = x.row_nnz()
        dtype = np.float32 if pop.max(initial=0) < 2**24 else np.float64
        # Support pattern with unit values; Tanimoto only sees the support.
        self.pattern = sp.csr_matrix(
            (np.ones(x.nnz, dtype), x.col_indices, x.row_offsets), shape=x.shape
        )
        self.pattern_t = self.pattern.T.tocsr()
        # Candidate work of each row: the multiply-adds of its row of the
        # sparse product, one per sample holding each of its features.
        self.work = self.pattern @ np.diff(self.pattern_t.indptr).astype(np.float64)
        # An empty row counts 1/2: its intersections are all 0, so its
        # similarities stay 0, also to another empty row, and no union is 0.
        self.pop = np.where(pop == 0, 0.5, pop.astype(np.float64))

    def _samples_from(self, first: int):
        # Rows first.. of the pattern as a view: slicing would copy them.
        p, at = self.pattern, self.pattern.indptr[first]
        return sp.csr_matrix((p.data[at:], p.indices[at:], p.indptr[first:] - at),
                             shape=(self.n - first, p.shape[1]))

    def similarities(self, ids: np.ndarray, dense: bool, fill: int, once: bool):
        """Similarities of rows `ids` to samples: (sims, cols, first, candidates).

        dense picks the route. sims[i, t] is the similarity of row ids[i]
        to sample cols[i, t], or to sample first + t when cols is None.
        Without `once` a row is scored against every sample (first is 0)
        and itself reads -1. With `once` it is scored only against the
        samples above it: a dense block starts at its first row, and
        every sample j <= ids[i] reads -1. Unused slots read -1. On the
        sparse route a row with fewer than `fill` candidates also gets
        the samples 0..fill that are not candidates, at similarity 0.
        candidates counts the (row, sample) pairs that share a feature
        and do not read -1.
        """
        block = self.pattern[ids]
        b, local, pop = ids.size, np.arange(ids.size), self.pop[ids]
        if dense:
            first = ids[0] if once else 0
            counts = self._samples_from(first) @ block.toarray(order="F").T
            candidates = np.count_nonzero(counts)
            sims = counts.T.astype(np.float64, order="C")
            del counts
            union = pop[:, None] + self.pop[first:]
            union -= sims
            sims /= union
            del union
            if once:
                w = ids[-1] - first + 1
                head, mask = sims[:, :w], np.arange(w) <= (ids - first)[:, None]
            else:
                head, mask = sims, (local, ids)
            candidates -= np.count_nonzero(head[mask])
            head[mask] = -1.0
            return sims, None, first, candidates

        prod = block @ self.pattern_t
        row = np.repeat(local, np.diff(prod.indptr))
        keep = prod.indices > ids[row] if once else prod.indices != ids[row]
        row, col, count = row[keep], prod.indices[keep], prod.data[keep]
        del prod, keep
        lens = np.bincount(row, minlength=b)
        short = np.flatnonzero(lens < fill)
        width = max(lens.max(), lens[short].max() + fill + 1 if short.size else 0)
        sims = np.full((b, width), -1.0)
        cols = np.zeros((b, width), dtype=col.dtype)
        pos = np.arange(row.size)
        pos -= (np.cumsum(lens) - lens)[row]
        cols[row, pos] = col
        union = self.pop[col]
        union += pop[row]
        union -= count
        sims[row, pos] = np.divide(count, union, out=union)
        if short.size:
            # Samples 0..fill hold at least fill - lens[i] non-candidates
            # other than the row itself; the others are marked unusable.
            window = np.arange(fill + 1)
            taken = np.zeros((b, fill + 1), dtype=bool)
            hit = col <= fill
            taken[row[hit], col[hit]] = True
            own = ids <= fill
            taken[local[own], ids[own]] = True
            at = (short[:, None], lens[short, None] + window)
            sims[at] = np.where(taken[short], -1.0, 0.0)
            cols[at] = window
        return sims, cols, 0, row.size


def _top_k(sims, cols, k):
    """(row, sample) of each row's k largest entries; ties go to the lowest sample."""
    w = sims.shape[1]
    kth = np.partition(sims, w - k, axis=1)[:, w - k, None]
    r, t = _entries(sims >= kth)
    j = t if cols is None else cols[r, t]
    order = np.lexsort((j, -sims[r, t], r))
    r, j = r[order], j[order]
    keep = np.arange(r.size) - np.searchsorted(r, r) < k
    return r[keep], j[keep]


def _at_least(sims, cols, theta):
    """(row, sample) of every entry >= theta."""
    r, t = _entries(sims >= theta)
    return r, (t if cols is None else cols[r, t])


def _entries(mask):
    # Row and slot of each True entry. One flat scan is several times
    # faster than a two-dimensional np.nonzero.
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def _routes(blocks: _Blocks, d: int, fill: int):
    """(dense, row ids, rows per block) for the dense and the sparse route.

    Each row takes the route with the smaller working set, so a sparse
    block never holds more per row than a dense one.
    """
    n = blocks.n
    dense_bytes = _dense_row_bytes(n, d)
    sparse_bytes = _sparse_row_bytes(blocks.work, fill)
    on_dense = sparse_bytes >= dense_bytes
    return (
        (True, np.flatnonzero(on_dense), _block_rows(dense_bytes, n)),
        (False, np.flatnonzero(~on_dense), _block_rows(sparse_bytes[~on_dense].max(initial=0), n)),
    )


def _build(x: SparseMatrix, select, fill: int, n_threads: int, once: bool) -> SimilarityGraph:
    """Run `select` over every block of rows and symmetrize what it keeps.

    With `once` each sample pair is scored by the block that holds its
    lower index only (see `_Blocks.similarities`).
    """
    n = x.n_rows
    blocks = _Blocks(x)
    routes = _routes(blocks, x.n_cols, fill)
    chunks = [(ids[i:i + rows], dense) for dense, ids, rows in routes for i in range(0, ids.size, rows)]

    def run(chunk):
        ids, dense = chunk
        sims, cols, first, candidates = blocks.similarities(ids, dense, fill, once)
        r, j = select(sims, cols)
        return ids[r], j + first, candidates

    workers = max(1, min(n_threads, len(chunks)))
    with blas_threads(1):
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as ex:
                parts = list(ex.map(run, chunks))
        else:
            parts = [run(c) for c in chunks]
    empty = [np.empty(0, np.int64)]
    srcs = np.concatenate(empty + [p[0] for p in parts])
    dsts = np.concatenate(empty + [p[1] for p in parts]).astype(np.int64)
    candidates = sum(int(p[2]) for p in parts)
    stats = GraphStats(threads=workers, block_rows=(routes[0][2], routes[1][2]),
                       dense_rows=routes[0][1].size,
                       candidate_pairs=candidates if once else candidates // 2)
    return _adjacency_from_pairs(n, srcs, dsts, stats)


def _adjacency_from_pairs(n: int, srcs: np.ndarray, dsts: np.ndarray, stats: GraphStats) -> SimilarityGraph:
    # Symmetrize (union); binary_from_keys drops the repeated pairs.
    s = binary_from_keys(n, n, np.concatenate([srcs * n + dsts, dsts * n + srcs]))
    return SimilarityGraph(adjacency=s, degrees=np.diff(s.row_offsets).astype(np.int64), stats=stats)


def knn_graph(x: SparseMatrix, k: int, *, n_threads: int = 1) -> SimilarityGraph:
    """Union-symmetrized k-nearest-neighbor Tanimoto graph.

    Each sample contributes edges to its k most similar other samples;
    ties (including zero-similarity padding) resolve toward the lowest
    sample index, so the construction is fully deterministic.
    """
    n = x.n_rows
    if not 0 < k < n:
        raise GraphError(f"k must satisfy 0 < k < n_samples, got k={k}, n={n}")
    return _build(x, lambda sims, cols: _top_k(sims, cols, k), k, n_threads, once=False)


def threshold_graph(x: SparseMatrix, theta: float, *, n_threads: int = 1) -> SimilarityGraph:
    """Graph with an edge wherever Tanimoto similarity >= theta."""
    if not 0.0 < theta <= 1.0:
        raise GraphError(f"theta must lie in (0, 1], got {theta}")
    return _build(x, lambda sims, cols: _at_least(sims, cols, theta), 0, n_threads, once=True)


def laplacian(graph: SimilarityGraph) -> Laplacian:
    """L = D - S. Row sums are exactly zero; isolated vertices store nothing."""
    s = graph.adjacency
    lap = sp.diags(graph.degrees.astype(np.float64), format="csr", shape=s.shape) - s._csr
    # scipy's difference of two canonical CSRs is canonical (sorted columns,
    # no duplicates, no stored zeros), so its arrays are wrapped as they are.
    return Laplacian(matrix=SparseMatrix(*lap.shape, lap.indptr, lap.indices, lap.data),
                     degrees=graph.degrees.copy())


def graph_from_adjacency(adj: SparseMatrix) -> SimilarityGraph:
    """Validate and wrap an adjacency matrix loaded from disk.

    The adjacency must be square, binary, symmetric and zero on its
    diagonal, checked in that order. Symmetry needs no transpose. Each
    entry (r, c) has the key r * n + c, and the keys of the entries above
    the diagonal are already ascending (the rows come in order and the
    columns ascend within a row). The entries below it are keyed by their
    mirror, c * n + r, and sorted once. The matrix is symmetric iff the two
    key arrays are equal, and its diagonal is zero iff they hold all nnz
    entries. Keys are int64, so n must stay below 3.04e9 (n**2 < 2**63).

    The check holds int32 row ids (int64 past 2**31), two masks and the
    two int64 key arrays, about 15 bytes per entry at its peak. At 200 000
    rows and 2.0 M entries it takes about 50 ms on a 2-CPU host, where a
    transpose took 131 ms and 22 bytes per entry.
    """
    if adj.n_rows != adj.n_cols:
        raise GraphError("adjacency must be square")
    if adj.nnz:
        if not np.all(adj.values == 1.0):
            raise GraphError("adjacency must be binary (all stored values 1)")
        n, cols = adj.n_rows, adj.col_indices
        rows = np.repeat(np.arange(n, dtype=cols.dtype), np.diff(adj.row_offsets))
        below = cols < rows
        mirrored = cols[below].astype(np.int64)
        mirrored *= n
        mirrored += rows[below]
        del below
        mirrored.sort()
        above = cols > rows
        keys = rows[above].astype(np.int64)
        keys *= n
        keys += cols[above]
        if not np.array_equal(mirrored, keys):
            raise GraphError("adjacency must be symmetric")
        if 2 * keys.size != adj.nnz:
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
