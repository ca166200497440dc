"""Structural checks on the synthetic dataset generators."""

import numpy as np
import pytest

from sdakit.graph import laplacian
from sdakit.synthetic import (
    clustered_binary,
    knn_problem_parts,
    label_subset,
    random_sparse_binary,
    two_chain_fingerprints,
)
from conftest import dense_of


def test_random_sparse_binary_shape_and_values():
    x = random_sparse_binary(200, 50, 1500, seed=3)
    assert x.shape == (200, 50)
    assert np.all(x.values == 1.0)
    # sampled with replacement then deduplicated: close to but never above target
    assert 1000 <= x.nnz <= 1500


def test_random_sparse_binary_deterministic():
    a = random_sparse_binary(100, 30, 500, seed=9)
    b = random_sparse_binary(100, 30, 500, seed=9)
    assert a == b
    c = random_sparse_binary(100, 30, 500, seed=10)
    assert a != c


def test_random_sparse_binary_ones_column():
    x = random_sparse_binary(80, 20, 300, seed=1, ones_column=True)
    dense = dense_of(x)
    np.testing.assert_array_equal(dense[:, 0], 1.0)


def test_random_sparse_binary_column_power_skews_low_columns():
    x = random_sparse_binary(400, 100, 8000, seed=2, column_power=1.5)
    counts = dense_of(x).sum(axis=0)
    assert counts[:10].sum() > 3 * counts[-10:].sum()


def test_clustered_binary_classes_prefer_their_half():
    x, truth = clustered_binary(300, 40, seed=8, p_own=0.4, p_other=0.02)
    assert x.shape == (300, 40)
    assert set(np.unique(truth)) == {-1, 1}
    dense = dense_of(x)
    pos, neg = truth == 1, truth == -1
    assert dense[pos, :20].mean() > 5 * dense[pos, 20:].mean()
    assert dense[neg, 20:].mean() > 5 * dense[neg, :20].mean()


def test_two_chain_fingerprints_respect_chain_blocks():
    fpc, noise = 80, 40
    x, truth = two_chain_fingerprints(
        120, seed=5, features_per_chain=fpc, n_noise_features=noise
    )
    assert x.shape == (120, 2 * fpc + noise)
    dense = dense_of(x)
    pos, neg = truth == 1, truth == -1
    # each chain lights only its own feature block (noise block is shared)
    assert dense[pos, fpc:2 * fpc].sum() == 0
    assert dense[neg, :fpc].sum() == 0
    assert dense[pos, :fpc].sum() > 0 and dense[neg, fpc:2 * fpc].sum() > 0


def test_two_chain_windows_are_contiguous_runs():
    fpc = 60
    x, truth = two_chain_fingerprints(
        40, seed=6, features_per_chain=fpc, window=10, n_noise_features=0,
        p_drop=0.0,
    )
    dense = dense_of(x)
    for i in range(40):
        on = np.flatnonzero(dense[i])
        assert on.size == 10
        assert on[-1] - on[0] == 9  # one unbroken window on the chain


def test_label_subset_counts_and_agreement():
    rng = np.random.default_rng(3)
    truth = np.where(rng.uniform(size=100) < 0.5, 1, -1)
    lv = label_subset(truth, 8, seed=2)
    assert lv.n_class1 == 8 and lv.n_class2 == 8
    on = np.flatnonzero(lv.labels)
    np.testing.assert_array_equal(lv.labels[on], truth[on])


def test_label_subset_rejects_small_class():
    truth = np.array([1] * 3 + [-1] * 50)
    with pytest.raises(ValueError, match="only 3"):
        label_subset(truth, 5, seed=1)


def test_knn_problem_parts_consistent():
    x, _ = clustered_binary(60, 20, seed=7)
    g, lap = knn_problem_parts(x, 3)
    lap2 = laplacian(g)
    np.testing.assert_array_equal(dense_of(lap.matrix), dense_of(lap2.matrix))
