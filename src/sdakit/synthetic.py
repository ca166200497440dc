"""Synthetic sparse binary datasets for tests, benchmarks, and demos.

Three generators cover the cases the toolkit cares about:

  * random_sparse_binary: i.i.d. sparse binary matrices, optionally with a
    power-law column popularity (spreads the Gram spectrum, which is what
    makes shifted-solver benchmarks honest) and an all-ones first column
    (puts the all-ones vector into Range(X)).
  * clustered_binary: two classes with different feature-block densities;
    easy linear structure, used for solver sanity checks.
  * two_chain_fingerprints: two one-dimensional manifolds in feature
    space, realized as sliding windows over disjoint feature blocks plus
    background noise. Nearest-neighbor graphs follow the chains, so graph
    smoothing genuinely adds information over the few labeled samples.
"""

from __future__ import annotations

import numpy as np

from .graph import knn_graph, laplacian
from .sparse import LabelVector, SparseMatrix, binary_from_keys


def _from_pairs(n_rows: int, n_cols: int, rows: np.ndarray, cols: np.ndarray) -> SparseMatrix:
    return binary_from_keys(n_rows, n_cols,
                            rows.astype(np.int64) * n_cols + cols.astype(np.int64))


def random_sparse_binary(
    n_rows: int,
    n_cols: int,
    nnz_target: int,
    seed: int,
    *,
    column_power: float = 0.0,
    ones_column: bool = False,
) -> SparseMatrix:
    """Sparse binary matrix with about nnz_target stored ones.

    Entries are sampled with replacement and deduplicated, so the exact
    count lands slightly under the target. column_power > 0 makes low-index
    columns more popular (weight (j+1)^-power). ones_column=True forces
    column 0 to be all ones.
    """
    rng = np.random.default_rng(seed)
    first = int(n_cols > 0 and ones_column)
    draw_cols = n_cols - first
    weights = (np.arange(draw_cols) + 1.0) ** (-column_power)
    weights /= weights.sum()
    rows = rng.integers(0, n_rows, size=nnz_target)
    cols = first + rng.choice(draw_cols, size=nnz_target, p=weights if column_power else None)
    if ones_column:
        rows = np.concatenate([rows, np.arange(n_rows)])
        cols = np.concatenate([cols, np.zeros(n_rows, dtype=np.int64)])
    return _from_pairs(n_rows, n_cols, rows, np.asarray(cols))


def clustered_binary(
    n_samples: int,
    n_features: int,
    seed: int,
    *,
    p_own: float = 0.25,
    p_other: float = 0.05,
    ones_column: bool = False,
) -> tuple[SparseMatrix, np.ndarray]:
    """Two classes firing mostly inside their own half of the features.

    Returns (X, true_labels) with true labels +1 / -1 for every sample.
    """
    rng = np.random.default_rng(seed)
    truth = np.where(rng.uniform(size=n_samples) < 0.5, 1, -1)
    first = int(ones_column)
    usable = n_features - first
    half = usable // 2
    probs = np.empty((n_samples, usable))
    probs[truth == 1, :half] = p_own
    probs[truth == 1, half:] = p_other
    probs[truth == -1, :half] = p_other
    probs[truth == -1, half:] = p_own
    on = rng.uniform(size=probs.shape) < probs
    rows, cols = np.nonzero(on)
    cols = cols + first
    if ones_column:
        rows = np.concatenate([rows, np.arange(n_samples)])
        cols = np.concatenate([cols, np.zeros(n_samples, dtype=np.int64)])
    x = _from_pairs(n_samples, n_features, rows, cols)
    return x, truth


def two_chain_fingerprints(
    n_samples: int,
    seed: int,
    *,
    features_per_chain: int = 80,
    window: int = 12,
    n_noise_features: int = 40,
    p_noise: float = 0.05,
    p_drop: float = 0.15,
) -> tuple[SparseMatrix, np.ndarray]:
    """Two noisy chain manifolds in sparse binary feature space.

    Each sample sits at a random position t on its chain and lights a
    window of contiguous chain features around t (each kept with
    probability 1 - p_drop), plus background noise features shared by both
    classes. Tanimoto neighbors are overwhelmingly same-chain samples at
    nearby positions, so a k-NN graph traces the two manifolds.
    """
    rng = np.random.default_rng(seed)
    truth = np.where(rng.uniform(size=n_samples) < 0.5, 1, -1)
    n_features = 2 * features_per_chain + n_noise_features
    rows = []
    cols = []
    span = features_per_chain - window
    for i in range(n_samples):
        base = 0 if truth[i] == 1 else features_per_chain
        start = base + int(rng.integers(0, span + 1))
        keep = rng.uniform(size=window) >= p_drop
        chain_feats = np.arange(start, start + window)[keep]
        noise_on = np.flatnonzero(rng.uniform(size=n_noise_features) < p_noise)
        feats = np.concatenate([chain_feats, 2 * features_per_chain + noise_on])
        rows.append(np.full(feats.size, i))
        cols.append(feats)
    x = _from_pairs(n_samples, n_features, np.concatenate(rows), np.concatenate(cols))
    return x, truth


def label_subset(truth: np.ndarray, n_per_class: int, seed: int) -> LabelVector:
    """Reveal n_per_class labels per class, chosen uniformly at random."""
    truth = np.asarray(truth)
    out = np.zeros(truth.size, dtype=np.int64)
    rng = np.random.default_rng(seed)
    for cls in (1, -1):
        idx = np.flatnonzero(truth == cls)
        if idx.size < n_per_class:
            raise ValueError(f"class {cls} has only {idx.size} samples, need {n_per_class}")
        out[rng.choice(idx, n_per_class, replace=False)] = cls
    return LabelVector(out)


def knn_problem_parts(x: SparseMatrix, k: int):
    """Convenience: build the k-NN graph and its Laplacian for x."""
    g = knn_graph(x, k)
    return g, laplacian(g)
