"""Tanimoto similarity, k-NN / threshold graphs, Laplacian assembly."""

import tracemalloc

import numpy as np
import pytest

from sdakit import graph as graph_module
from sdakit.blas import blas_thread_count, blas_threads
from sdakit.graph import (
    GraphError,
    SimilarityGraph,
    graph_from_adjacency,
    knn_graph,
    laplacian,
    load_graph,
    save_graph,
    tanimoto,
    threshold_graph,
)
from sdakit.sparse import SparseMatrix, build_sparse
from sdakit.synthetic import two_chain_fingerprints
from conftest import dense_of, fixed_block_rows, random_binary_matrix

needs_openblas = pytest.mark.skipif(
    blas_thread_count() is None, reason="numpy's BLAS is not an OpenBLAS sdakit.blas can reach"
)


def rows_matrix(supports, n_cols):
    rows, cols = [], []
    for i, sup in enumerate(supports):
        rows.extend([i] * len(sup))
        cols.extend(sup)
    return build_sparse(len(supports), n_cols, rows, cols, np.ones(len(cols)))


def edge_set(g: SimilarityGraph):
    adj = dense_of(g.adjacency)
    return {(i, j) for i in range(g.n) for j in range(g.n) if i < j and adj[i, j] != 0}


def dense_tanimoto(a_dense):
    n = a_dense.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            inter = np.sum((a_dense[i] != 0) & (a_dense[j] != 0))
            union = np.sum((a_dense[i] != 0) | (a_dense[j] != 0))
            out[i, j] = inter / union if union else 0.0
    return out


# ------------------------------------------------------------------- tanimoto


def test_tanimoto_disjoint_is_zero():
    assert tanimoto(np.array([0, 1]), np.array([2, 3])) == 0.0


def test_tanimoto_hand_case():
    # |{1,2,3} & {2,3,4}| = 2, |union| = 4
    assert tanimoto(np.array([1, 2, 3]), np.array([2, 3, 4])) == 0.5


def test_tanimoto_identical_and_empty():
    assert tanimoto(np.array([5, 9]), np.array([5, 9])) == 1.0
    assert tanimoto(np.array([], dtype=np.int64), np.array([], dtype=np.int64)) == 0.0


# ----------------------------------------------------------------- knn graphs


def test_two_identical_pairs_k1():
    """Exhaustive similarity table: sim(0,1)=sim(2,3)=1, cross pairs 0.
    k=1 must produce exactly the two disjoint edges."""
    x = rows_matrix([[0, 1], [0, 1], [5, 6], [5, 6]], 8)
    g = knn_graph(x, 1)
    assert edge_set(g) == {(0, 1), (2, 3)}
    assert g.degrees.tolist() == [1, 1, 1, 1]


def test_knn_union_symmetrization_and_tie_break():
    # sims: (0,1)=3/5, (0,2)=2/6, (1,2)=3/5.
    # k=1: node 0 -> 1; node 1 ties 0.6/0.6 between 0 and 2 -> lowest index 0;
    # node 2 -> 1. Union keeps the asymmetric pick (2,1).
    x = rows_matrix([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 4, 5]], 6)
    g = knn_graph(x, 1)
    assert edge_set(g) == {(0, 1), (1, 2)}
    assert g.degrees.tolist() == [1, 2, 1]


def test_knn_pads_rows_without_candidates():
    """Fully disjoint rows share no features; k-NN still needs k neighbors,
    filled with the lowest non-self indices at similarity zero."""
    x = rows_matrix([[0], [1], [2]], 3)
    g = knn_graph(x, 1)
    assert edge_set(g) == {(0, 1), (0, 2)}


def test_knn_against_dense_oracle(rng):
    x, dense = random_binary_matrix(rng, 40, 25, 0.25)
    sims = dense_tanimoto(dense)
    np.fill_diagonal(sims, -1.0)
    k = 3
    expected = set()
    for i in range(40):
        # stable top-k: sort by (-sim, index)
        order = sorted(range(40), key=lambda j: (-sims[i, j], j))[:k]
        for j in order:
            expected.add((min(i, j), max(i, j)))
    g = knn_graph(x, k)
    assert edge_set(g) == expected


def test_knn_blocked_and_threaded_agree(rng, monkeypatch):
    x, _ = random_binary_matrix(rng, 60, 30, 0.2)
    base = knn_graph(x, 4)
    fixed_block_rows(monkeypatch, 7)
    small_blocks = knn_graph(x, 4)
    fixed_block_rows(monkeypatch, 16)
    threaded = knn_graph(x, 4, n_threads=3)
    assert base.adjacency == small_blocks.adjacency
    assert base.adjacency == threaded.adjacency


def test_knn_validates_k():
    x = rows_matrix([[0], [1]], 2)
    with pytest.raises(GraphError):
        knn_graph(x, 0)
    with pytest.raises(GraphError):
        knn_graph(x, 2)  # k must leave room for self-exclusion


# ----------------------------------------------------------- threshold graphs


def test_threshold_hand_case():
    """Supports {0,1}, {0,1,2,3}, {0}: pairwise Tanimoto 2/4 = 0.5,
    1/2 = 0.5, 1/4 = 0.25. theta = 0.4 keeps exactly two edges."""
    x = rows_matrix([[0, 1], [0, 1, 2, 3], [0]], 4)
    g = threshold_graph(x, 0.4)
    assert edge_set(g) == {(0, 1), (0, 2)}
    g_loose = threshold_graph(x, 0.2)
    assert edge_set(g_loose) == {(0, 1), (0, 2), (1, 2)}


def test_threshold_against_dense_oracle(rng):
    x, dense = random_binary_matrix(rng, 35, 20, 0.3)
    sims = dense_tanimoto(dense)
    theta = 0.35
    expected = {
        (i, j) for i in range(35) for j in range(i + 1, 35) if sims[i, j] >= theta
    }
    g = threshold_graph(x, theta)
    assert edge_set(g) == expected


def test_threshold_blocked_and_threaded_agree(rng, monkeypatch):
    x, _ = random_binary_matrix(rng, 50, 25, 0.25)
    base = threshold_graph(x, 0.3)
    fixed_block_rows(monkeypatch, 9)
    assert base.adjacency == threshold_graph(x, 0.3).adjacency
    fixed_block_rows(monkeypatch, 13)
    assert base.adjacency == threshold_graph(x, 0.3, n_threads=2).adjacency


def test_threshold_validates_theta():
    x = rows_matrix([[0], [1]], 2)
    with pytest.raises(GraphError):
        threshold_graph(x, 0.0)
    with pytest.raises(GraphError):
        threshold_graph(x, 1.5)


# ------------------------------------------------------------------ laplacian


def test_empty_graph_laplacian_is_zero():
    g = graph_from_adjacency(build_sparse(4, 4, [], [], []))
    lap = laplacian(g)
    assert lap.matrix.nnz == 0
    np.testing.assert_array_equal(lap.degrees, np.zeros(4))


def test_path_graph_laplacian_hand_values():
    adj = build_sparse(3, 3, [0, 1, 1, 2], [1, 0, 2, 1], np.ones(4))
    lap = laplacian(graph_from_adjacency(adj))
    np.testing.assert_array_equal(
        dense_of(lap.matrix), [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]
    )


def test_laplacian_invariants(rng):
    x, _ = random_binary_matrix(rng, 30, 18, 0.25)
    lap = laplacian(knn_graph(x, 3))
    dense = dense_of(lap.matrix)
    np.testing.assert_allclose(dense @ np.ones(30), np.zeros(30), atol=1e-12)
    np.testing.assert_array_equal(dense, dense.T)
    eigs = np.linalg.eigvalsh(dense)
    assert eigs.min() >= -1e-10


def test_regularizer_identity(rng):
    """2 (Xw)^T L (Xw) equals the similarity-weighted sum of squared
    score differences, by the Laplacian quadratic-form identity."""
    for _ in range(5):
        x, dense_x = random_binary_matrix(rng, 25, 15, 0.3)
        g = knn_graph(x, 3)
        lap = laplacian(g)
        adj = dense_of(g.adjacency)
        w = rng.standard_normal(15)
        s = dense_x @ w
        lhs = 2.0 * s @ lap.matrix.matvec(s)
        rhs = sum(
            adj[i, j] * (s[i] - s[j]) ** 2 for i in range(25) for j in range(25)
        )
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


# ----------------------------------------------------------------- validation


def test_adjacency_must_be_symmetric():
    with pytest.raises(GraphError):
        graph_from_adjacency(build_sparse(2, 2, [0], [1], [1.0]))


def test_adjacency_must_be_binary():
    adj = build_sparse(2, 2, [0, 1], [1, 0], [2.0, 2.0])
    with pytest.raises(GraphError):
        graph_from_adjacency(adj)


def test_adjacency_rejects_self_loops():
    adj = build_sparse(2, 2, [0, 0, 1], [0, 1, 0], [1.0, 1.0, 1.0])
    with pytest.raises(GraphError):
        graph_from_adjacency(adj)


def _adjacency(n, pairs):
    rows, cols = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return build_sparse(n, n, rows, cols, np.ones(rows.size))


@pytest.mark.parametrize("pairs, message", [
    ([(0, 1)], "symmetric"),
    ([(0, 1), (1, 0), (2, 2)], "zero diagonal"),
    ([(0, 1), (2, 2)], "symmetric"),
    ([(1, 1), (1, 2)], "symmetric"),
])
def test_adjacency_messages_put_symmetry_before_the_diagonal(pairs, message):
    with pytest.raises(GraphError, match=message):
        graph_from_adjacency(_adjacency(3, pairs))


def test_adjacency_keys_past_int32_are_checked():
    """The key r * n + c of the pair (n - 2, n - 1) no longer fits int32."""
    n = 50_000
    assert (n - 2) * n + (n - 1) >= 2**31
    pairs = [(0, n - 1), (n - 1, 0), (n - 2, n - 1)]
    with pytest.raises(GraphError, match="symmetric"):
        graph_from_adjacency(_adjacency(n, pairs))
    g = graph_from_adjacency(_adjacency(n, pairs + [(n - 1, n - 2)]))
    assert g.n_edges == 2
    assert g.degrees[[0, n - 2, n - 1]].tolist() == [1, 1, 2]


def _oracle_error(adj):
    """The message graph_from_adjacency must raise, from a transpose."""
    a = adj._csr
    if (a != a.T).nnz:
        return "adjacency must be symmetric"
    if a.diagonal().any():
        return "adjacency must have a zero diagonal"
    return None


def test_adjacency_checks_agree_with_transpose_oracle(rng):
    outcomes = set()
    for _ in range(300):
        n = int(rng.integers(2, 25))
        upper = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.5), 1)
        dense = upper | upper.T
        rows, cols = np.nonzero(dense)
        change = rng.integers(4)
        if change == 1 and rows.size:
            # Drop one entry, leaving its mirror.
            at = rng.integers(rows.size)
            dense[rows[at], cols[at]] = False
        elif change == 2 and rows.size:
            # Move one entry to another column of its row.
            at = rng.integers(rows.size)
            r, c = rows[at], cols[at]
            free = np.flatnonzero(~dense[r])
            if free.size:
                dense[r, c] = False
                dense[r, rng.choice(free)] = True
        elif change == 3:
            dense[rng.integers(n), rng.integers(n)] = True
        adj = _adjacency(n, np.argwhere(dense))
        expected = _oracle_error(adj)
        outcomes.add(expected)
        if expected is None:
            g = graph_from_adjacency(adj)
            assert g.adjacency is adj
            np.testing.assert_array_equal(g.degrees, dense.sum(axis=1))
        else:
            with pytest.raises(GraphError) as err:
                graph_from_adjacency(adj)
            assert str(err.value) == expected
    assert outcomes == {None, "adjacency must be symmetric", "adjacency must have a zero diagonal"}


def _peak_bytes(f) -> int:
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_adjacency_checks_peak_bytes_per_entry(rng):
    """The symmetry check holds int32 row ids, two masks and two int64
    key arrays of half the entries each, about 15 bytes per entry; a
    transpose took about 22. The column-order check holds one int32 step
    per entry and its mask, about 5 bytes; int64 row ids took about 14."""
    n = 20_000
    src = np.repeat(np.arange(n), 5)
    dst = rng.integers(0, n, src.size)
    keep = src != dst
    keys = np.unique(np.concatenate([src[keep] * n + dst[keep], dst[keep] * n + src[keep]]))
    adj = build_sparse(n, n, keys // n, keys % n, np.ones(keys.size))
    assert adj.nnz > 190_000 and adj.col_indices.dtype == np.int32
    arrays = adj.row_offsets, adj.col_indices, adj.values
    assert _peak_bytes(lambda: graph_from_adjacency(adj)) <= 17 * adj.nnz
    assert _peak_bytes(lambda: SparseMatrix(n, n, *arrays)) <= 7 * adj.nnz


# -------------------------------------------------------------- serialization


def test_graph_save_load_round_trip(tmp_path, rng):
    x, _ = random_binary_matrix(rng, 20, 12, 0.3)
    g = knn_graph(x, 2)
    save_graph(tmp_path / "g.txt", g, provenance={"metric": "tanimoto", "k": 2})
    back, prov = load_graph(tmp_path / "g.txt")
    assert back.adjacency == g.adjacency
    assert prov["metric"] == "tanimoto"
    assert prov["k"] == "2"


# ------------------------------------------- block build vs brute-force oracle


def supports_of(x):
    return [x.col_indices[x.row_offsets[i]:x.row_offsets[i + 1]] for i in range(x.n_rows)]


def oracle_sims(x):
    """Pairwise similarity by graph.tanimoto on each pair of supports."""
    sup = supports_of(x)
    n = len(sup)
    sims = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            sims[i, j] = sims[j, i] = tanimoto(sup[i], sup[j])
    return sims


def oracle_knn(sims, k):
    """Each row's k best others by (-similarity, index), union-symmetrized."""
    n = sims.shape[0]
    edges = set()
    for i in range(n):
        order = sorted((j for j in range(n) if j != i), key=lambda j: (-sims[i, j], j))
        for j in order[:k]:
            edges.add((min(i, j), max(i, j)))
    return edges


def oracle_threshold(sims, theta):
    n = sims.shape[0]
    return {(i, j) for i in range(n) for j in range(i + 1, n) if sims[i, j] >= theta}


def candidate_pairs(x):
    """Unordered pairs of samples that share at least one feature."""
    sup = supports_of(x)
    n = len(sup)
    return sum(np.intersect1d(sup[i], sup[j]).size > 0 for i in range(n) for j in range(i + 1, n))


def tie_heavy_matrix():
    """Duplicate rows (ties at the k-th value), empty rows, rows that share
    a feature with fewer than k others, and an isolated row."""
    supports = [
        [0, 1, 2], [0, 1, 2], [0, 1, 2], [0, 1, 2],  # four identical rows
        [], [],                                       # empty rows
        [7],                                          # shares nothing
        [3, 4], [4, 5],                               # one candidate each
        [0, 1, 2, 3], [1, 2], [0, 1, 2], [9, 10], [],
        [2, 6], [6],
    ]
    return rows_matrix(supports, 12)


def mixed_route_matrix(rng):
    """Rows 0..29 share feature 0 and half of features 1..19, so their
    candidate work is at least N (dense route). Rows 30..79 hold one or a
    few of features 20..419, which rows 0..29 hold sparsely too (sparse
    route)."""
    n, d = 80, 420
    on = np.zeros((n, d), dtype=bool)
    on[:30, 0] = True
    on[:30, 1:20] = rng.random((30, 19)) < 0.5
    on[:, 20:] = rng.random((n, 400)) < 0.006
    on[30 + np.arange(50), 20 + rng.integers(0, 400, 50)] = True
    r, c = np.nonzero(on)
    return build_sparse(n, d, r, c, np.ones(r.size))


@pytest.mark.parametrize("k", [1, 3, 15])
@pytest.mark.parametrize("block_size", [None, 1, 4])
def test_knn_matches_oracle_with_ties_empty_and_short_rows(k, block_size, monkeypatch):
    x = tie_heavy_matrix()
    sims = oracle_sims(x)
    if block_size:
        fixed_block_rows(monkeypatch, block_size)
    g = knn_graph(x, k)
    assert edge_set(g) == oracle_knn(sims, k)
    assert g.stats.candidate_pairs == candidate_pairs(x)


def test_knn_k_n_minus_one_is_complete(monkeypatch):
    x = tie_heavy_matrix()
    n = x.n_rows
    fixed_block_rows(monkeypatch, 3)
    g = knn_graph(x, n - 1)
    assert g.n_edges == n * (n - 1) // 2
    assert g.degrees.tolist() == [n - 1] * n


def test_threshold_matches_oracle_with_ties_and_empty_rows(monkeypatch):
    x = tie_heavy_matrix()
    sims = oracle_sims(x)
    for block_size in (None, 1, 5):
        if block_size:
            fixed_block_rows(monkeypatch, block_size)
        for theta in (0.25, 0.5, 1.0):
            g = threshold_graph(x, theta)
            assert edge_set(g) == oracle_threshold(sims, theta)


def test_dense_and_sparse_routes_in_one_graph_match_oracle(rng, monkeypatch):
    x = mixed_route_matrix(rng)
    sims = oracle_sims(x)
    for block_size in (None, 7):
        if block_size:
            fixed_block_rows(monkeypatch, block_size)
        g = knn_graph(x, 4)
        assert 0 < g.stats.dense_rows < x.n_rows
        assert edge_set(g) == oracle_knn(sims, 4)
        assert g.stats.candidate_pairs == candidate_pairs(x)
        t = threshold_graph(x, 0.3)
        assert 0 < t.stats.dense_rows < x.n_rows
        assert edge_set(t) == oracle_threshold(sims, 0.3)


def test_budget_forced_one_row_blocks_match_oracle(rng, monkeypatch):
    x = mixed_route_matrix(rng)
    sims = oracle_sims(x)
    monkeypatch.setattr(graph_module, "_BLOCK_BUDGET_BYTES", 1)
    g = knn_graph(x, 3)
    assert g.stats.block_rows == (1, 1)
    assert edge_set(g) == oracle_knn(sims, 3)
    t = threshold_graph(x, 0.4)
    assert t.stats.block_rows == (1, 1)
    assert edge_set(t) == oracle_threshold(sims, 0.4)


def test_one_and_two_threads_give_bit_equal_adjacency(rng, monkeypatch):
    x = mixed_route_matrix(rng)
    for block_size in (None, 6):
        if block_size:
            fixed_block_rows(monkeypatch, block_size)
        one = knn_graph(x, 5, n_threads=1)
        two = knn_graph(x, 5, n_threads=2)
        assert one.adjacency == two.adjacency
        assert (one.stats.threads, two.stats.threads) == (1, 2)
        one = threshold_graph(x, 0.2, n_threads=1)
        two = threshold_graph(x, 0.2, n_threads=2)
        assert one.adjacency == two.adjacency


def test_very_sparse_high_dimensional_matches_oracle(rng):
    n, d, bits = 150, 2**17, 4
    # Draw from a small shared pool so that some rows meet, plus rare bits.
    pool = rng.choice(d, 60, replace=False)
    cols = np.concatenate([rng.choice(pool, (n, 2)), rng.integers(0, d, (n, bits - 2))], axis=1)
    keys = np.unique(np.arange(n)[:, None] * d + cols)
    x = build_sparse(n, d, keys // d, keys % d, np.ones(keys.size))
    sims = oracle_sims(x)
    g = knn_graph(x, 5)
    assert g.stats.dense_rows == 0
    assert edge_set(g) == oracle_knn(sims, 5)
    assert g.stats.candidate_pairs == candidate_pairs(x)
    assert edge_set(threshold_graph(x, 0.2)) == oracle_threshold(sims, 0.2)


def interleaved_route_matrix(rng):
    """mixed_route_matrix's rows shuffled, so that dense-route rows sit
    between sparse-route ones, with duplicates of rows on both routes and
    empty rows among them."""
    on = dense_of(mixed_route_matrix(rng)) != 0
    on = np.vstack([on, on[[3, 3, 41, 55]], np.zeros((3, on.shape[1]), dtype=bool)])
    r, c = np.nonzero(on[rng.permutation(on.shape[0])])
    return build_sparse(on.shape[0], on.shape[1], r, c, np.ones(r.size))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("block_size", [None, 1, 2, 7])
def test_threshold_matches_oracle_and_counts_candidates_once(rng, monkeypatch, block_size, threads):
    inputs = [tie_heavy_matrix(), mixed_route_matrix(rng), interleaved_route_matrix(rng)]
    if block_size:
        fixed_block_rows(monkeypatch, block_size)
    for x in inputs:
        sims, pairs = oracle_sims(x), candidate_pairs(x)
        for theta in (0.3, 1.0):
            g = threshold_graph(x, theta, n_threads=threads)
            assert edge_set(g) == oracle_threshold(sims, theta)
            assert g.stats.candidate_pairs == pairs
    assert 0 < g.stats.dense_rows < x.n_rows


def test_threshold_build_multiplies_each_pair_once(rng, monkeypatch):
    """Pairs of rows in different dense blocks are multiplied once, by the
    block of the lower row; within a block, both orders are multiplied.
    kNN blocks still cover every sample. A block's similarities hold one
    entry per entry of its count product."""
    x = interleaved_route_matrix(rng)
    n = x.n_rows
    fixed_block_rows(monkeypatch, 7)
    seen = []
    similarities = graph_module._Blocks.similarities

    def recording(self, ids, dense, fill, once):
        out = similarities(self, ids, dense, fill, once)
        if dense:
            sims, first = out[0], out[2]
            seen.append((ids.copy(), first + np.arange(sims.shape[1])))
        return out

    monkeypatch.setattr(graph_module._Blocks, "similarities", recording)
    threshold_graph(x, 0.3)
    times = np.zeros((n, n), dtype=int)
    block_of = np.full(n, -1)
    for b, (ids, samples) in enumerate(seen):
        assert samples[0] == ids[0]
        np.add.at(times, (ids[:, None], samples[None, :]), 1)
        block_of[ids] = b
    times += times.T
    dense = np.flatnonzero(block_of >= 0)
    assert 0 < dense.size < n
    i, j = np.meshgrid(dense, dense, indexing="ij")
    apart = block_of[i] != block_of[j]
    assert (times[i, j][apart] == 1).all()
    assert (times[i, j][~apart] == 2).all()
    seen.clear()
    knn_graph(x, 3)
    assert seen and all(samples.tolist() == list(range(n)) for _, samples in seen)


def gemm_oracle(x, *, k=None, theta=None):
    """Edges by one dense product of the supports: each row's k best
    others by (-similarity, index), union-symmetrized, or every pair
    with similarity >= theta."""
    bits = (dense_of(x) != 0).astype(np.float64)
    n = bits.shape[0]
    inter = bits @ bits.T
    union = bits.sum(axis=1)[:, None] + bits.sum(axis=1) - inter
    sims = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)
    np.fill_diagonal(sims, -1.0)
    if k is None:
        i, j = np.nonzero(np.triu(sims >= theta, 1))
    else:
        index = np.broadcast_to(np.arange(n), sims.shape)
        j = np.lexsort((index, -sims), axis=1)[:, :k].ravel()
        i = np.repeat(np.arange(n), k)
    return set(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()))


@pytest.mark.parametrize("kind", ["fingerprints", "chains"])
def test_benchmark_shaped_graphs_match_dense_oracle(kind, rng):
    """Inputs shaped like perfbench's fp-knn (uniform 40-bit rows of 1024
    features, all on the dense route) and chains-cv (popcounts of about
    4-21 over 200 features)."""
    if kind == "fingerprints":
        n, d = 500, 1024
        cols = np.argpartition(rng.random((n, d)), 40, axis=1)[:, :40]
        keys = np.sort((np.arange(n)[:, None] * d + cols).ravel())
        x = build_sparse(n, d, keys // d, keys % d, np.ones(keys.size))
    else:
        x, _ = two_chain_fingerprints(500, 3, p_noise=0.1, p_drop=0.3)
    for threads in (1, 2):
        g = knn_graph(x, 5, n_threads=threads)
        assert edge_set(g) == gemm_oracle(x, k=5)
        for theta in (0.15, 0.5):
            t = threshold_graph(x, theta, n_threads=threads)
            assert edge_set(t) == gemm_oracle(x, theta=theta)
            assert t.stats.candidate_pairs == g.stats.candidate_pairs


@needs_openblas
def test_graph_build_runs_at_one_blas_thread(rng, monkeypatch):
    x, _ = random_binary_matrix(rng, 30, 12, 0.3)
    seen = []
    select = graph_module._top_k

    def recording(*args):
        seen.append(blas_thread_count())
        return select(*args)

    monkeypatch.setattr(graph_module, "_top_k", recording)
    fixed_block_rows(monkeypatch, 8)
    with blas_threads(2):
        knn_graph(x, 3, n_threads=2)
        assert blas_thread_count() == 2
    assert seen and set(seen) == {1}


# ------------------------------------------------------- block working set


@pytest.mark.parametrize("n", [10, 6_000, 200_000])
@pytest.mark.parametrize("d", [200, 2**17])
def test_block_rows_keep_working_set_within_budget(n, d):
    budget = graph_module._BLOCK_BUDGET_BYTES
    dense_row = graph_module._dense_row_bytes(n, d)
    assert dense_row <= budget
    rows = graph_module._block_rows(dense_row, n)
    assert 1 <= rows <= n
    assert rows * dense_row <= budget
    assert rows == n or (rows + 1) * dense_row > budget
    # A row takes the sparse route only when its bound is below a dense
    # row's working set, so sparse blocks fit the budget as well.
    for work in (0, 40, n // 2, n - 1):
        sparse_row = graph_module._sparse_row_bytes(work, 5)
        if sparse_row < dense_row:
            rows = graph_module._block_rows(sparse_row, n)
            assert 1 <= rows <= n
            assert rows * sparse_row <= budget


def _block_peak_bytes(x, fill):
    """Traced allocation peak of the first block of each route."""
    blocks = graph_module._Blocks(x)
    peaks = {}
    for dense, ids, rows in graph_module._routes(blocks, x.n_cols, fill):
        if not ids.size:
            continue
        tracemalloc.start()
        try:
            sims, cols, _, _ = blocks.similarities(ids[:rows], dense, fill, False)
            graph_module._top_k(sims, cols, fill)
            del sims, cols
            peaks["dense" if dense else "sparse"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


def test_block_working_set_measured_within_budget(rng):
    budget = graph_module._BLOCK_BUDGET_BYTES
    # Fingerprint-like rows: every row's candidate work exceeds N.
    n, d, bits = 3000, 512, 30
    cols = np.argpartition(rng.random((n, d)), bits, axis=1)[:, :bits]
    keys = np.sort((np.arange(n)[:, None] * d + cols).ravel())
    dense_x = build_sparse(n, d, keys // d, keys % d, np.ones(keys.size))
    # Very sparse, high-dimensional rows: every row stays on the sparse route.
    n, d = 20_000, 2**17
    keys = np.unique(np.arange(n)[:, None] * d + rng.integers(0, d, (n, 20)))
    sparse_x = build_sparse(n, d, keys // d, keys % d, np.ones(keys.size))
    dense_peaks, sparse_peaks = _block_peak_bytes(dense_x, 5), _block_peak_bytes(sparse_x, 5)
    assert set(dense_peaks) == {"dense"} and set(sparse_peaks) == {"sparse"}
    assert dense_peaks["dense"] <= budget
    assert sparse_peaks["sparse"] <= budget
