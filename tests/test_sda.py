"""The four rating algorithms against densely assembled oracles."""

import dataclasses
import json
import time

import numpy as np
import pytest
import scipy.sparse
from scipy.linalg import eigh
from scipy.sparse.csgraph import connected_components
from scipy.stats import spearmanr

from sdakit import blas, sda
from sdakit.blas import blas_thread_count, blas_threads
from sdakit.graph import Laplacian, graph_from_adjacency, knn_graph, laplacian, threshold_graph
from sdakit.krylov import (
    DegenerateSubspaceError, LinearOperator, NumericalFailureError, SolverBreakdownError, cg,
)
from sdakit.sda import (
    FeatureLaplacian,
    SdaProblem,
    apply_w,
    centered_spectral_operator,
    fsda_operator,
    regression_operator,
    solve,
    solve_sweep,
    spectral_operator,
)
from sdakit.sparse import LabelVector, build_sparse
from sdakit.synthetic import (
    clustered_binary,
    knn_problem_parts,
    label_subset,
    random_sparse_binary,
    two_chain_fingerprints,
)
from sdakit.evaluation import auc_roc
from conftest import dense_of, dense_smoother, dense_w, force_split, labels_first, matrix_free


def dense_problem_matrices(p: SdaProblem):
    """Assemble the regularized pencil pieces densely, by definition:
    centered data, class-mean broadcast W, smoother M."""
    x = dense_of(p.x)
    lab = p.labels
    mu = x[lab.mask_labeled].mean(axis=0)
    xc = x - np.outer(np.ones(p.n), mu)
    w = dense_w(lab)
    m = dense_smoother(lab, dense_of(p.lap.matrix), p.alpha)
    return x, xc, w, m


def make_problem(n=60, d=12, seed=0, alpha=0.5, betas=(1e-3,), n_labeled=6, k=3, **kw):
    x, truth = clustered_binary(n, d, seed=seed)
    g, lap = knn_problem_parts(x, k=k)
    labels = label_subset(truth, n_labeled, seed=seed + 1)
    return SdaProblem(x=x, labels=labels, lap=lap, alpha=alpha, betas=betas, **kw), truth


# -------------------------------------------------------------------- apply_w


def test_apply_w_hand_case():
    labels = LabelVector([1, 1, -1, 0])
    np.testing.assert_array_equal(
        apply_w(labels, np.array([1.0, 2.0, 3.0, 4.0])), [1.5, 1.5, 3.0, 0.0]
    )


def test_apply_w_fixes_labeled_ones():
    labels = labels_first(2, 3, 4)
    z = np.ones(9)
    out = apply_w(labels, z)
    np.testing.assert_array_equal(out[:5], np.ones(5))
    np.testing.assert_array_equal(out[5:], np.zeros(4))


def test_apply_w_matches_dense(rng):
    labels = labels_first(2, 3, 6)
    w = dense_w(labels)
    for _ in range(5):
        z = rng.standard_normal(11)
        np.testing.assert_allclose(apply_w(labels, z), w @ z, rtol=1e-13, atol=1e-13)


# ------------------------------------------------------------------- smoother


@pytest.fixture
def path_lap():
    adj = build_sparse(3, 3, [0, 1, 1, 2], [1, 0, 2, 1], np.ones(4))
    return laplacian(graph_from_adjacency(adj))


def smoother(labels, lap, alpha):
    """spectral_operator of a problem with these labels, graph and alpha
    (its data, one column of ones, never enters the smoother)."""
    n = labels.n
    x = build_sparse(n, 1, np.arange(n), np.zeros(n, dtype=np.int64), np.ones(n))
    p = SdaProblem(x=x, labels=labels, lap=lap, alpha=alpha, betas=(1e-3,))
    return spectral_operator(p, [labels])


def test_smoother_alpha_zero_masks(path_lap):
    labels = LabelVector([1, -1, 0])
    z = np.array([5.0, -2.0, 7.0])
    np.testing.assert_array_equal(smoother(labels, path_lap, 0.0)(z), [5.0, -2.0, 0.0])


def test_smoother_alpha_one_is_laplacian(path_lap):
    labels = LabelVector([1, -1, 0])
    z = np.array([1.0, 2.0, 4.0])
    np.testing.assert_array_equal(
        smoother(labels, path_lap, 1.0)(z), dense_of(path_lap.matrix) @ z
    )


def test_smoother_on_all_ones(path_lap):
    """L kills the ones vector, leaving (1 - alpha) on labeled rows."""
    labels = LabelVector([1, 0, -1])
    out = smoother(labels, path_lap, 0.3)(np.ones(3))
    np.testing.assert_allclose(out, [0.7, 0.0, 0.7], atol=1e-15)


def test_smoother_matches_dense(rng):
    x, _ = clustered_binary(20, 10, seed=4)
    g, lap = knn_problem_parts(x, 3)
    labels = labels_first(3, 3, 14)
    m = dense_smoother(labels, dense_of(lap.matrix), 0.4)
    op = smoother(labels, lap, 0.4)
    for _ in range(4):
        z = rng.standard_normal(20)
        np.testing.assert_allclose(op(z), m @ z, atol=1e-12)


# ------------------------------------------------------------------- operators


def test_operators_match_dense_assembly(rng):
    p, _ = make_problem(n=40, d=10, alpha=0.4, betas=(1e-2,))
    x, xc, w, m = dense_problem_matrices(p)
    ind = p.labels.mask_labeled.astype(float)
    ell = p.labels.n_labeled

    sop = spectral_operator(p, [p.labels])
    csop = centered_spectral_operator(p, [p.labels])
    fop = fsda_operator(p, [p.labels])
    rop = regression_operator(p)

    centering = np.eye(p.n) - np.outer(ind, np.ones(p.n)) / ell
    for _ in range(4):
        z = rng.standard_normal(p.n)
        v = rng.standard_normal(p.d)
        np.testing.assert_allclose(sop(z), m @ z, atol=1e-12)
        np.testing.assert_allclose(csop(z), centering @ (m @ z), atol=1e-12)
        np.testing.assert_allclose(fop(v), xc.T @ m @ xc @ v, atol=1e-10)
        np.testing.assert_allclose(rop(v), x.T @ (x @ v), atol=1e-11)


@pytest.mark.parametrize("route", ["gram", "matrix-free"])
def test_regression_operator_matches_dense_on_both_routes(rng, monkeypatch, route):
    """X^T X v through X's Gram matrix or through two sparse products,
    against the dense product; each row of a block equals that row alone,
    bit for bit, and counts as one application."""
    if route == "matrix-free":
        matrix_free(monkeypatch)
    p, _ = make_problem(n=60, d=10)
    assert (p.x.gram is None) == (route == "matrix-free")
    x = dense_of(p.x)
    rop = regression_operator(p)
    block = rng.standard_normal((3, p.d))
    out = rop(block, np.zeros(3, dtype=np.intp))
    assert rop.n_applies == 3
    for row, v in zip(out, block):
        np.testing.assert_allclose(row, x.T @ (x @ v), rtol=1e-13, atol=1e-12)
        np.testing.assert_array_equal(row, rop(v))


def with_feature_laplacian(p: SdaProblem) -> SdaProblem:
    """p carrying K = X^T L X of its own x and lap, as nested CV hands it."""
    return dataclasses.replace(p, feature_laplacian=FeatureLaplacian.of(p.x, p.lap))


@pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
def test_assembled_fsda_operator_matches_dense_oracle(rng, alpha):
    """Carrying K, fsda's operator is one D x D array per problem: equal
    within rounding to the dense (X - 1 mu^T)^T M X and to the matrix-free
    route, each row of a block bit-equal to that row alone."""
    p, _ = make_problem(n=60, d=12, alpha=alpha, n_labeled=10)
    q = with_feature_laplacian(p)
    x, xc, _, m = dense_problem_matrices(p)
    oracle = xc.T @ m @ x
    assembled = fsda_operator(q, [q.labels])
    free = fsda_operator(p, [p.labels])
    block = rng.standard_normal((4, p.d))
    out = assembled(block, np.zeros(4, dtype=np.intp))
    assert assembled.n_applies == 4
    scale = np.abs(oracle).max()
    for row, v in zip(out, block):
        np.testing.assert_allclose(row, oracle @ v, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(row, free(v), rtol=1e-12, atol=1e-12 * scale)
        assert row.tobytes() == assembled(v).tobytes()


@pytest.mark.parametrize("budget", [None, 3])
def test_solve_many_equals_a_loop_of_solve_with_feature_laplacian(budget):
    """Problems that carry K: report j of an fsda batch equals solve of
    problem j, bit for bit, converged or out of a budget of 3."""
    p, _ = make_problem(n=120, d=20, n_labeled=10, alpha=0.5, betas=(1e-4, 1e-2, 1.0), tol=1e-9)
    p = with_feature_laplacian(p)
    if budget is not None:
        p = dataclasses.replace(p, max_iter_n=budget, max_iter_d=budget)
    labelings = cv_like_labelings(p, 5)
    problems = [dataclasses.replace(p, labels=labels) for labels in labelings]
    assert all(q.feature_laplacian is p.feature_laplacian for q in problems)
    batch = solve_batch(p, labelings, "fsda")
    for q, many in zip(problems, batch):
        assert _report_bytes(many) == _report_bytes(solve(q, "fsda"))
    assert all(r.regression.ok for r in batch) == (budget is None)


def test_feature_laplacian_must_come_from_the_problems_own_x_and_lap():
    """K built from an equal but other x, from another lap, or of the wrong
    shape raises."""
    p, _ = make_problem(n=40, d=10, betas=(1e-3, 1e-1))
    same_x = build_sparse(p.n, p.d, *np.nonzero(dense_of(p.x)), np.ones(p.x.nnz))
    same_lap = Laplacian(p.lap.matrix, p.lap.degrees)
    k = FeatureLaplacian.of(p.x, p.lap)
    for bad in (FeatureLaplacian.of(same_x, p.lap), FeatureLaplacian.of(p.x, same_lap),
                FeatureLaplacian(p.x, p.lap, k.matrix[:-1, :-1])):
        with pytest.raises(ValueError, match="feature_laplacian"):
            dataclasses.replace(p, feature_laplacian=bad)


def test_fsda_operator_annihilates_ones_preimage(rng):
    """With the all-ones vector in Range(X) (constant first column), the
    rating operator sends its preimage to zero: the non-discriminative
    direction is projected out by centering."""
    x, _ = clustered_binary(30, 10, seed=7, ones_column=True)
    g, lap = knn_problem_parts(x, 3)
    labels = labels_first(3, 3, 24)
    p = SdaProblem(x=x, labels=labels, lap=lap, alpha=0.5, betas=(1e-2,))
    fop = fsda_operator(p, [p.labels])
    w_nd = np.zeros(10)
    w_nd[0] = 1.0  # X w_nd = 1
    out = fop(w_nd)
    assert np.max(np.abs(out)) <= 1e-10 * max(np.linalg.norm(p.x.values), 1.0)


def test_batch_operators_apply_each_row_as_its_own_problem(rng):
    """A block whose rows belong to two different labelings: each row of a
    batch operator's product equals that labeling's batch of one applied
    to the row, bit for bit, and every row counts as one application."""
    p, _ = make_problem(n=60, d=12, alpha=0.4, n_labeled=10)
    labelings = [p.labels, cv_like_labelings(p, 1)[0]]
    assert not np.array_equal(labelings[0].labels, labelings[1].labels)
    systems = np.array([0, 1, 1, 0, 1])
    cases = [
        (op(p, labelings), dim, [op(p, [labels]) for labels in labelings])
        for op, dim in ((spectral_operator, p.n), (centered_spectral_operator, p.n),
                        (fsda_operator, p.d))
    ]
    for batch, dim, singles in cases:
        block = rng.standard_normal((systems.size, dim))
        out = batch(block, systems)
        assert batch.n_applies == systems.size
        for row, v, j in zip(out, block, systems):
            np.testing.assert_array_equal(row, singles[j](v))


def test_operators_apply_a_block_without_systems_as_system_0(rng):
    """A block given without systems belongs to system 0: every operator
    maps it to a block of the same shape whose rows equal the rows applied
    one by one, each counted as one application."""
    p, _ = make_problem(n=60, d=12, alpha=0.4, n_labeled=10)
    q = with_feature_laplacian(p)
    cases = [
        (spectral_operator(p, [p.labels]), p.n), (centered_spectral_operator(p, [p.labels]), p.n),
        (fsda_operator(p, [p.labels]), p.d), (fsda_operator(q, [q.labels]), p.d),
        (regression_operator(p), p.d),
    ]
    for op, dim in cases:
        block = rng.standard_normal((2, dim))
        out = op(block)
        assert out.shape == (2, dim)
        assert op.n_applies == 2
        for row, v in zip(out, block):
            np.testing.assert_array_equal(row, op(v))


# ----------------------------------------------------------------------- fsda


def test_fsda_matches_dense_pencil_dominant_eigenvector():
    """N=60, D=8 problem: the rating direction should be parallel to the
    dominant eigenvector of the dense regularized pencil
    (Xc^T W Xc) w = lambda (Xc^T M Xc + beta I) w."""
    beta = 1e-3
    p, _ = make_problem(n=60, d=8, seed=2, alpha=0.5, betas=(beta,), tol=1e-10)
    _, xc, w, m = dense_problem_matrices(p)
    a = xc.T @ w @ xc
    b = xc.T @ m @ xc + beta * np.eye(p.d)
    vals, vecs = eigh(a, b)
    dominant = vecs[:, -1]

    rep = solve(p, "fsda")
    w_dir = np.linalg.lstsq(dense_of(p.x), rep.ratings[beta].scores, rcond=None)[0]
    cos = abs(dominant @ w_dir) / (np.linalg.norm(dominant) * np.linalg.norm(w_dir))
    assert cos >= 0.999


def test_fsda_alpha_zero_is_regularized_lda():
    """Fully labeled, alpha = 0: the direction reduces to the regularized
    discriminant direction (S_T + beta I)^{-1} (mu1 - mu2), checked both in
    closed form and via the dense pencil."""
    beta = 1e-2
    x, truth = clustered_binary(50, 8, seed=3)
    labels = LabelVector(truth)  # every sample labeled
    lap = laplacian(knn_graph(x, 3))
    p = SdaProblem(x=x, labels=labels, lap=lap, alpha=0.0, betas=(beta,), tol=1e-12)
    rep = solve(p, "fsda")
    xd = dense_of(x)
    w_dir = np.linalg.lstsq(xd, rep.ratings[beta].scores, rcond=None)[0]

    mu = xd.mean(axis=0)
    xc = xd - mu
    st = xc.T @ xc
    mu1 = xd[truth == 1].mean(axis=0)
    mu2 = xd[truth == -1].mean(axis=0)
    fisher = np.linalg.solve(st + beta * np.eye(8), mu1 - mu2)
    cos = abs(fisher @ w_dir) / (np.linalg.norm(fisher) * np.linalg.norm(w_dir))
    assert cos >= 0.999


def test_fsda_separable_problem_rates_perfectly():
    """Class-pure features: class 1 samples fire feature 0, class 2 fire
    feature 1, labels revealed for a few interleaved samples. Held-out
    samples must be ranked perfectly."""
    truth = np.array([1, -1] * 15)
    rows = list(range(30))
    cols = [0 if t == 1 else 1 for t in truth]
    x = build_sparse(30, 2, rows, cols, np.ones(30))
    lab = np.zeros(30, dtype=int)
    lab[:6] = truth[:6]  # first three of each class labeled
    labels = LabelVector(lab)
    g, lap = knn_problem_parts(x, 2)
    p = SdaProblem(x=x, labels=labels, lap=lap, alpha=0.5, betas=(1e-3,))
    rep = solve(p, "fsda")
    held = labels.labels == 0
    assert auc_roc(rep.ratings[1e-3].scores[held], truth[held]) == 1.0


def test_report_directions_consistent_with_scores():
    """Projection-type algorithms expose the feature-space direction per
    shift, sign-matched to the oriented scores: scores == X @ direction."""
    p, _ = make_problem(n=50, d=60, seed=13, betas=(1e-4, 1e-1))
    for algorithm in ("fsda", "csr-sda", "sr-sda"):
        rep = solve(p, algorithm)
        for beta, rating in rep.ratings.items():
            w = rep.directions[beta]
            np.testing.assert_allclose(
                rating.scores, dense_of(p.x) @ w, rtol=1e-10, atol=1e-12
            )
    assert solve(p, "sa-sda").directions is None


def test_fsda_is_deterministic():
    p, _ = make_problem(seed=5)
    r1 = solve(p, "fsda").ratings[1e-3].scores
    r2 = solve(p, "fsda").ratings[1e-3].scores
    np.testing.assert_array_equal(r1, r2)


# -------------------------------------------------------------------- csr-sda


def test_csr_spectral_vector_orthogonal_to_ones():
    """Centering keeps the whole Krylov space orthogonal to the all-ones
    vector, so the converged z never contains the non-discriminative
    direction."""
    p, _ = make_problem(n=80, d=15, seed=8, alpha=0.6, betas=(1e-2,), tol=1e-10)
    rep = solve(p, "csr-sda")
    z = rep.spectral_vectors[:, 0]
    assert abs(z.sum()) <= 1e-8 * np.linalg.norm(z) * np.sqrt(p.n)


def test_csr_close_to_fsda_auc():
    """The two routes solve the same problem through different spaces and
    agree closely (bounded, not exact) when the feature space is expressive
    enough to represent the spectral vector — the fingerprint-like regime
    with at least as many features as samples."""
    for seed in (2, 5, 9):
        p, truth = make_problem(n=60, d=80, seed=seed, alpha=0.5, betas=(1e-3,), tol=1e-10)
        auc_f = auc_roc(solve(p, "fsda").ratings[1e-3].scores, truth)
        auc_c = auc_roc(solve(p, "csr-sda").ratings[1e-3].scores, truth)
        assert abs(auc_f - auc_c) <= 0.02


def test_csr_regression_amortizes_beta_grid():
    """A 12-value beta grid costs one Krylov basis: operator applications
    equal the longest single-shift iteration count, far below the sum of
    per-shift counts."""
    grid = tuple(np.geomspace(1e-6, 1e3, 12))
    p, _ = make_problem(n=70, d=20, seed=9, alpha=0.5, betas=grid)
    rep = solve(p, "csr-sda")
    iters = np.asarray(rep.regression.iterations)
    assert rep.regression.operator_applications == int(iters.max())
    assert rep.regression.operator_applications < int(iters.sum())


def test_sr_regression_solves_only_the_rating_vector():
    """sr-sda regresses the discriminative Ritz vector alone: one Krylov
    basis for the grid, so operator applications equal the longest
    single-shift iteration count, and one converged flag per beta."""
    grid = tuple(np.geomspace(1e-6, 1e3, 12))
    p, _ = make_problem(n=70, d=20, seed=9, alpha=0.5, betas=grid)
    rep = solve(p, "sr-sda")
    iters = np.asarray(rep.regression.iterations)
    assert rep.regression.operator_applications == int(iters.max())
    assert np.asarray(rep.regression.converged).shape == (len(grid),)


# --------------------------------------------------------------------- sa-sda


def test_sa_requires_nonzero_alpha():
    p, _ = make_problem(alpha=0.0)
    with pytest.raises(ValueError, match="alpha != 0"):
        solve(p, "sa-sda")


def test_sr_requires_alpha_below_one():
    """At alpha = 1 sr-sda's smoother is L alone, which no block solve
    against the class indicators can invert; solve refuses it up front,
    where fsda, csr- and sa-sda rate."""
    x, truth = clustered_binary(300, 30, seed=1)
    _, lap = knn_problem_parts(x, 5)
    p = SdaProblem(x=x, labels=label_subset(truth, 5, seed=2), lap=lap, alpha=1.0, betas=(1e-3,))
    with pytest.raises(ValueError, match="sr-sda requires alpha < 1"):
        solve(p, "sr-sda")
    for algorithm in ("fsda", "csr-sda", "sa-sda"):
        assert solve(p, algorithm).converged, algorithm


def test_sa_ranking_agrees_with_csr():
    p, truth = make_problem(n=60, d=8, seed=2, alpha=0.5, betas=(1e-3,), tol=1e-10)
    s_sa = solve(p, "sa-sda").ratings[1e-3].scores
    s_csr = solve(p, "csr-sda").ratings[1e-3].scores
    lab = p.labels.mask_labeled
    rho = spearmanr(s_sa[lab], s_csr[lab]).statistic
    assert rho >= 0.95


def test_sa_two_components_rate_by_component():
    """Two disconnected cliques, one labeled class in each, alpha near 1:
    every unlabeled sample's sign must match its component's class."""
    supports = [[0, 1]] * 6 + [[5, 6]] * 6
    rows, cols = [], []
    for i, sup in enumerate(supports):
        rows += [i] * 2
        cols += sup
    x = build_sparse(12, 8, rows, cols, np.ones(24))
    lab = np.zeros(12, dtype=int)
    lab[0] = lab[1] = 1
    lab[6] = lab[7] = -1
    labels = LabelVector(lab)
    g, lap = knn_problem_parts(x, 3)
    p = SdaProblem(x=x, labels=labels, lap=lap, alpha=0.95, betas=(1e-3,), tol=1e-12)
    scores = solve(p, "sa-sda").ratings[1e-3].scores
    comp = np.where(np.arange(12) < 6, 1, -1)
    unlabeled = labels.labels == 0
    assert np.all(np.sign(scores[unlabeled]) == comp[unlabeled])


def test_sa_report_has_no_regression_phase():
    p, _ = make_problem(alpha=0.5)
    rep = solve(p, "sa-sda")
    assert rep.regression is None
    assert rep.ratings[1e-3].source == "spectral"


# --------------------------------------------------------------------- sr-sda


def sr_pair_problem(seed=1, n=50, d=10, alpha=0.5, beta=1e-8, **kw):
    """A problem with the constant column in Range(X) and tiny beta, the
    regime where the uncentered and centered routes provably coincide."""
    x, truth = clustered_binary(n, d, seed=seed, ones_column=True)
    g, lap = knn_problem_parts(x, k=3)
    labels = label_subset(truth, 5, seed=seed + 1)
    return SdaProblem(x=x, labels=labels, lap=lap, alpha=alpha, betas=(beta,),
                      tol=1e-12, **kw), truth


def test_sr_recovers_nondiscriminative_eigenvalue():
    """The dominant Ritz value of the spectral pencil is 1/(1 - alpha),
    carried by the all-ones eigenvector."""
    for alpha in (0.3, 0.5, 0.8):
        p, _ = sr_pair_problem(seed=4, alpha=alpha)
        rep = solve(p, "sr-sda")
        lam1 = rep.spectral_eigenvalues[0]
        assert lam1 == pytest.approx(1.0 / (1.0 - alpha), rel=1e-6)


def test_sr_ritz_values_are_the_dense_pencils_nonzero_eigenvalues():
    """On a connected graph, the converged block solve spans the two
    eigenvectors of the pencil (W, M) with nonzero eigenvalues, so the
    reported Ritz values are those eigenvalues, descending."""
    for seed, alpha in ((2, 0.5), (5, 0.8)):
        p, _ = make_problem(n=60, d=12, seed=seed, alpha=alpha, betas=(1e-3,), tol=1e-12)
        lap = dense_of(p.lap.matrix)
        assert connected_components(lap != 0, directed=False)[0] == 1
        dense = eigh(dense_w(p.labels), dense_smoother(p.labels, lap, p.alpha), eigvals_only=True)
        lam = solve(p, "sr-sda").spectral_eigenvalues
        assert lam[0] > lam[1]
        np.testing.assert_allclose(lam, dense[::-1][:2], rtol=1e-8)


def test_sr_parallel_basis_raises_degenerate_subspace(monkeypatch):
    """A block solve whose two columns are parallel spans one direction
    only; sr-sda raises rather than rating from it, on every problem.
    Rounding keeps the Cholesky factor of Z^T M Z well short of singular,
    so the test is on the condition number of Z^T M Z itself."""
    real_block_cg = sda.block_cg

    def parallel(op, rhs, *args, **kwargs):
        z = real_block_cg(op, rhs, *args, **kwargs)
        return z[..., [0, 0]]  # at every budget, if the solve snapshots any

    monkeypatch.setattr(sda, "block_cg", parallel)
    for seed in (1, 2, 3, 5, 8, 13, 18, 20):
        p, _ = sr_pair_problem(seed=seed)
        with pytest.raises(DegenerateSubspaceError):
            solve(p, "sr-sda")


def test_sr_converges_where_its_residuals_turn_parallel(monkeypatch):
    """Three problems whose block solve broke down under classical block
    CG ("rank deficiency with no converged column to deflate"). The
    breakdown-free solve drops the dependent direction and converges at
    tol 1e-12. Its search blocks, the rows the operator is applied to,
    stay orthonormal to within 1e-3: P comes from a Gram matrix, so it
    loses about eps times the squared condition of R + beta^T P, which
    these problems push past 1e12."""
    real_block_cg, losses = sda.block_cg, []

    def recording(op, rhs, tol, max_iter, callback):
        rows, blocks = [], []

        def apply(v, systems):
            rows.extend(v.copy())
            return op(v)

        def record(i, res):
            blocks.append(np.array(rows))
            rows.clear()
            callback(i, res)
        z = real_block_cg(LinearOperator(op.dim, apply), rhs, tol, max_iter, callback=record)
        losses.append(max(np.abs(b @ b.T - np.eye(len(b))).max() for b in blocks))
        return z

    monkeypatch.setattr(sda, "block_cg", recording)
    for seed, alpha in ((5, 0.8), (5, 0.99), (12, 0.8)):
        p, _ = sr_pair_problem(seed=seed, alpha=alpha)
        assert p.tol == 1e-12 and solve(p, "sr-sda").spectral.converged
    assert len(losses) == 3 and max(losses) <= 1e-3


def test_sr_rates_classes_in_separate_components_at_every_tolerance():
    """Each class in its own graph component: the all-ones direction and
    the discriminative one share the Ritz value 1/(1 - alpha). sr-sda
    still rates by the combination orthogonal to the all-ones direction,
    so its AUC is the same at every tolerance, and equals csr-sda's. The
    second problem is one where block CG from a random right-hand side
    does not converge at tol 1e-10 and breaks down at 1e-12."""
    for n, d, seed, per_class in ((120, 30, 7, 10), (90, 25, 11, 8)):
        x, truth = clustered_binary(n, d, seed=seed, p_own=0.45, p_other=0.01)
        _, lap = knn_problem_parts(x, 3)
        n_parts, part = connected_components(dense_of(lap.matrix) != 0, directed=False)
        assert n_parts == 2 and all(np.unique(truth[part == c]).size == 1 for c in range(2))
        labels = label_subset(truth, per_class, seed=1)
        aucs = {}
        for algorithm, tol in [("sr-sda", 1e-8), ("sr-sda", 1e-10), ("sr-sda", 1e-12),
                               ("csr-sda", 1e-12)]:
            p = SdaProblem(x=x, labels=labels, lap=lap, alpha=0.3, betas=(1e-2,), tol=tol)
            rep = solve(p, algorithm)
            assert rep.converged
            aucs[algorithm, tol] = auc_roc(rep.ratings[1e-2].scores, truth)
            if algorithm == "sr-sda":
                np.testing.assert_allclose(rep.spectral_eigenvalues, 1.0 / (1.0 - p.alpha),
                                           rtol=1e-6)
        assert len(set(aucs.values())) == 1


def test_right_hand_sides_come_from_the_labels(monkeypatch):
    """Each solver's first solve runs against the class contrast
    u = 1_c1 / n1 - 1_c2 / n2 or its image: csr- and sa-sda against u,
    fsda against X^T u = mu1 - mu2, sr-sda against the class indicators
    [1_c1, 1_c2]."""
    seen = {}
    for name in ("_cg_rows", "shifted_cg", "block_cg"):
        def spy(op, rhs, *args, real=getattr(sda, name), name=name, **kwargs):
            seen.setdefault(name, np.array(rhs, copy=True))
            return real(op, rhs, *args, **kwargs)
        monkeypatch.setattr(sda, name, spy)
    p, _ = make_problem(seed=2)
    lab = p.labels
    assert not np.all(lab.labels[: lab.n_labeled] != 0)  # scattered labels
    x = dense_of(p.x)
    c1, c2 = lab.mask_class1.astype(float), lab.mask_class2.astype(float)
    u = c1 / lab.n_class1 - c2 / lab.n_class2
    mu1, mu2 = x[lab.mask_class1].mean(axis=0), x[lab.mask_class2].mean(axis=0)
    for algorithm, solver, want in (("csr-sda", "_cg_rows", u[None, :]),
                                    ("sa-sda", "shifted_cg", u[None, :]),
                                    ("fsda", "shifted_cg", (mu1 - mu2)[None, :]),
                                    ("sr-sda", "block_cg", np.column_stack([c1, c2]))):
        seen.clear()
        solve(p, algorithm)
        np.testing.assert_allclose(seen[solver], want, rtol=1e-14, atol=1e-15)


def test_sr_block_breakdown_propagates(monkeypatch):
    """A breakdown of sr-sda's block solve reaches the caller as the block
    solver's own KrylovError."""
    def broken(op, rhs, *args, **kwargs):
        raise SolverBreakdownError("block CG broke down")

    monkeypatch.setattr(sda, "block_cg", broken)
    p, _ = sr_pair_problem()
    with pytest.raises(SolverBreakdownError, match="block CG broke down"):
        solve(p, "sr-sda")


def test_sr_non_finite_basis_raises(monkeypatch):
    monkeypatch.setattr(sda, "block_cg", lambda op, rhs, tol, budgets, **kwargs: np.full(
        np.shape(budgets) + rhs.shape, np.nan))
    p, _ = sr_pair_problem()
    with pytest.raises(NumericalFailureError, match="non-finite"):
        solve(p, "sr-sda")


def test_sr_phase_at_the_threshold_is_not_converged(monkeypatch):
    """block_cg stops only on residuals strictly below tol times ||b||, so
    a spectral phase whose residuals end exactly there has not converged."""
    real_block_cg = sda.block_cg

    def at_threshold(op, rhs, tol, max_iter, callback):
        z = real_block_cg(op, rhs, tol, max_iter)
        callback(1, tol * np.linalg.norm(rhs, axis=0))
        return z

    monkeypatch.setattr(sda, "block_cg", at_threshold)
    p, _ = sr_pair_problem()
    spectral = solve(p, "sr-sda").spectral
    assert spectral.iterations == 1 and not spectral.converged


def _graph_for_vector_check(graph: str):
    """Data, truth and Laplacian: a connected kNN graph, a kNN graph whose
    two chains are its two components, or a threshold graph at 0.5 split
    into hundreds of components, as the chains benchmark builds it."""
    if graph == "knn-connected":
        x, truth = clustered_binary(1500, 200, seed=4)
        return x, truth, laplacian(knn_graph(x, 5))
    if graph == "knn-chains":
        x, truth = two_chain_fingerprints(1500, seed=2)
        return x, truth, laplacian(knn_graph(x, 5))
    x, truth = two_chain_fingerprints(1500, seed=4, p_noise=0.1, p_drop=0.3)
    return x, truth, laplacian(threshold_graph(x, 0.5))


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("graph", ["knn-connected", "knn-chains", "theta-split"])
def test_sr_vector_is_csr_vector_up_to_its_offset(graph, alpha):
    """csr- and sr-sda compute one vector in two ways. With M = (1 -
    alpha) I_l + alpha L and u the class contrast, sr-sda's v is a multiple
    of M^-1 u, and csr-sda's centered CG returns z = M^-1 u + t 1_R, 1_R
    the indicator of the graph components that hold a label. So at tol
    1e-10, v lies in span{z, 1_R}, and v is a positive multiple of one
    plain CG on M w = u, both within 1e-8 relative."""
    x, truth, lap = _graph_for_vector_check(graph)
    m = lap.matrix
    adjacency = scipy.sparse.csr_matrix((m.values, m.col_indices, m.row_offsets), shape=m.shape)
    n_parts, part = connected_components(adjacency, directed=False)
    labels = label_subset(truth, 10, seed=5)
    held = np.isin(part, part[labels.mask_labeled])
    if graph == "theta-split":
        assert n_parts > 100 and not held.all()
    else:
        assert n_parts == {"knn-connected": 1, "knn-chains": 2}[graph]
    p = SdaProblem(x=x, labels=labels, lap=lap, alpha=alpha, betas=(1e-3,), tol=1e-10,
                   max_iter_n=5000)
    z = solve(p, "csr-sda").spectral_vectors[:, 0]
    rep = solve(p, "sr-sda")
    v = rep.spectral_vectors[:, 0]
    assert rep.converged
    basis = np.column_stack([z, held])
    coef, *_ = np.linalg.lstsq(basis, v, rcond=None)
    assert np.linalg.norm(v - basis @ coef) <= 1e-8 * np.linalg.norm(v)
    u = labels.mask_class1 / labels.n_class1 - labels.mask_class2 / labels.n_class2
    w, history = cg(spectral_operator(p, [labels]), u, tol=1e-10, max_iter=5000)
    assert history[-1] < 1e-10 * history[0]
    scale = (v @ w) / (w @ w)
    assert scale > 0 and np.linalg.norm(v - scale * w) <= 1e-8 * np.linalg.norm(v)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("graph", ["knn-connected", "knn-chains", "theta-split"])
def test_sa_vector_at_its_smallest_shift_is_the_csr_vector(graph, alpha):
    """sa-sda solves (C + beta I) z = u with C the centered spectral
    operator, and csr-sda's CG solves C z = u, from the same Krylov space:
    a shifted solve read as Lanczos against plain CG. At beta = 1e-13 the
    two vectors agree within 1e-9 relative at tol 1e-10 (worst 2.3e-10).
    The default grid's smallest shift, 1e-9, moves sa-sda's vector by about
    beta C^+ z, which is large where u reaches small eigenvalues of C: up
    to 2.3e-6 relative on the split graph, so 1e-5 bounds that gap, and
    the gap grows with beta as that first-order term does, 1e4-fold from
    1e-13 to 1e-9 within 5%."""
    x, truth, lap = _graph_for_vector_check(graph)
    p = SdaProblem(x=x, labels=label_subset(truth, 10, seed=5), lap=lap, alpha=alpha,
                   betas=(1e-13, 1e-9), tol=1e-10, max_iter_n=5000)
    z = solve(p, "csr-sda").spectral_vectors[:, 0]
    rep = solve(p, "sa-sda")
    assert rep.converged
    gap = [np.linalg.norm(v - z) / np.linalg.norm(z) for v in rep.spectral_vectors.T]
    assert gap[0] <= 1e-9 and gap[1] <= 1e-5
    assert 0.95e4 <= gap[1] / gap[0] <= 1.05e4


def test_sr_equals_csr_auc():
    p, truth = sr_pair_problem(seed=6)
    auc_sr = auc_roc(solve(p, "sr-sda").ratings[1e-8].scores, truth)
    auc_csr = auc_roc(solve(p, "csr-sda").ratings[1e-8].scores, truth)
    assert abs(auc_sr - auc_csr) <= 1e-6


def test_sr_spectral_cost_is_twice_csr():
    """At a fixed iteration budget the block solver applies the operator
    exactly twice per iteration (two basis vectors) versus once for the
    centered single-vector solve."""
    budget = 40
    p, _ = make_problem(n=100, d=15, seed=3, alpha=0.5, betas=(1e-3,),
                        tol=1e-30, max_iter_n=budget, max_iter_d=3)
    ops_csr = solve(p, "csr-sda").spectral.operator_applications
    ops_sr = solve(p, "sr-sda").spectral.operator_applications
    assert ops_csr == budget
    assert ops_sr == 2 * budget


def test_sr_wall_clock_near_twice_csr():
    """Same spectral budget with the operator cost dominating: wall-clock
    ratio lands in a [1.6, 2.4] band around the operator-count factor of 2.

    The graph is a ring lattice (each sample tied to its 100 nearest ring
    neighbours): heavy rows make every operator application expensive while
    the many small Laplacian eigenvalues keep natural convergence far beyond
    the budget, so both solvers run the full 30 iterations. Process CPU time
    (minimum of five interleaved repetitions) stands in for wall time so a
    busy machine cannot skew the comparison.
    """
    n, half, budget = 50_000, 100, 30
    offsets = np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)])
    rows = np.repeat(np.arange(n, dtype=np.int64), offsets.size)
    cols = (rows + np.tile(offsets, n)) % n
    adjacency = build_sparse(n, n, rows, cols, np.ones(rows.size))
    lap = laplacian(graph_from_adjacency(adjacency))
    x = random_sparse_binary(n, 500, 600_000, seed=1)
    lab = np.zeros(n, dtype=int)
    lab[:30] = 1
    lab[30:60] = -1
    p = SdaProblem(x=x, labels=LabelVector(lab), lap=lap, alpha=0.5,
                   betas=(1e-3,), max_iter_n=budget,
                   max_iter_d=5)

    def cpu_seconds(algorithm):
        start = time.process_time()
        solve(p, algorithm)
        return time.process_time() - start

    t_csr = t_sr = float("inf")
    for _ in range(5):
        t_csr = min(t_csr, cpu_seconds("csr-sda"))
        t_sr = min(t_sr, cpu_seconds("sr-sda"))
    assert 1.6 <= t_sr / t_csr <= 2.4


# ---------------------------------------------------------------- BLAS threads

needs_openblas = pytest.mark.skipif(
    blas_thread_count() is None,
    reason="numpy's BLAS is not an OpenBLAS that sdakit.blas can find",
)


def ring_problem(n=30_000, half=3):
    """Vectors long enough (N > 10 000) for OpenBLAS to split its level-1
    products across threads; budgets cap the solves, converged or not."""
    offsets = np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)])
    rows = np.repeat(np.arange(n, dtype=np.int64), offsets.size)
    cols = (rows + np.tile(offsets, n)) % n
    lap = laplacian(graph_from_adjacency(build_sparse(n, n, rows, cols, np.ones(rows.size))))
    lab = np.zeros(n, dtype=int)
    lab[:20] = 1
    lab[20:40] = -1
    return SdaProblem(x=random_sparse_binary(n, 200, 150_000, seed=1),
                      labels=LabelVector(lab), lap=lap, alpha=0.5,
                      betas=(1e-3, 1e-1), max_iter_n=20, max_iter_d=20)


@needs_openblas
def test_solver_runs_with_one_blas_thread(monkeypatch):
    p, _ = make_problem()
    seen = []

    def recording_solver(p, labelings, budgets, emit):
        seen.append(blas_thread_count())
        return sda.fsda_solve(p, labelings, budgets, emit)

    monkeypatch.setitem(sda._SOLVERS, "fsda", recording_solver)
    with blas_threads(2):
        solve(p, "fsda")
    assert seen == [1]


@needs_openblas
@pytest.mark.parametrize("caller", [1, 2])
def test_solve_restores_callers_blas_threads(caller):
    p, _ = make_problem()
    p_alpha0, _ = make_problem(alpha=0.0)
    with blas_threads(caller):
        solve(p, "csr-sda")
        assert blas_thread_count() == caller
        with pytest.raises(ValueError, match="alpha"):
            solve(p_alpha0, "sa-sda")
        assert blas_thread_count() == caller


@needs_openblas
@pytest.mark.parametrize("algorithm", ["fsda", "csr-sda", "sa-sda", "sr-sda"])
def test_ratings_independent_of_callers_blas_threads(algorithm):
    p = ring_problem()
    reports = []
    for n_threads in (1, 2):
        with blas_threads(n_threads):
            reports.append(solve(p, algorithm))
    one, two = reports
    for beta in one.ratings:
        np.testing.assert_array_equal(one.ratings[beta].scores, two.ratings[beta].scores)
    if one.directions is not None:
        for beta in one.directions:
            np.testing.assert_array_equal(one.directions[beta], two.directions[beta])


@needs_openblas
def test_report_records_one_blas_thread():
    p, _ = make_problem()
    with blas_threads(2):
        rep = solve(p, "csr-sda")
    assert rep.blas_threads == 1
    assert rep.to_dict()["blas_threads"] == 1


def test_report_records_unknown_blas_threads(monkeypatch):
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    p, _ = make_problem()
    rep = solve(p, "csr-sda")
    assert rep.blas_threads is None
    assert json.loads(json.dumps(rep.to_dict()))["blas_threads"] is None


# ------------------------------------------------------ split sparse products


def _phase_fields(stats):
    return None if stats is None else {
        k: np.asarray(v).tobytes() for k, v in stats.to_dict().items() if k != "wall_time_s"
    }


# Each algorithm at alpha 0.5, and fsda at alpha 0: the supervised
# baseline, a regularized LDA, whose route never applies L.
ROUTES = [pytest.param(a, 0.5, id=a) for a in sda.ALGORITHMS]
ROUTES.append(pytest.param("fsda", 0.0, id="lda"))


@pytest.mark.parametrize("algorithm, alpha", ROUTES)
def test_split_products_leave_every_output_bit_equal(monkeypatch, algorithm, alpha):
    """Products split into row ranges give the same ratings, directions,
    spectral vectors and phase stats as serial products, bit for bit."""
    problems = [dict(n=120, d=16, seed=0), dict(n=200, d=24, seed=3, n_labeled=10)]

    def run_all():
        out = []
        for kw in problems:
            p, _ = make_problem(alpha=alpha, betas=(1e-4, 1e-2, 1.0), **kw)
            out.append((p, solve(p, algorithm)))
        return out

    serial = run_all()
    force_split(monkeypatch, 3)
    split = run_all()
    for (p1, one), (p3, three) in zip(serial, split):
        assert (p1.x.product_threads, one.product_threads) == (1, 1)
        assert (p3.x.product_threads, three.product_threads) == (3, 3)
        assert three.to_dict()["product_threads"] == 3
        for beta in one.ratings:
            assert one.ratings[beta].scores.tobytes() == three.ratings[beta].scores.tobytes()
        if one.directions is not None:
            for beta in one.directions:
                assert one.directions[beta].tobytes() == three.directions[beta].tobytes()
        for name in ("spectral_vectors", "spectral_eigenvalues"):
            a, b = getattr(one, name), getattr(three, name)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.tobytes() == b.tobytes()
        for phase in ("spectral", "regression"):
            assert _phase_fields(getattr(one, phase)) == _phase_fields(getattr(three, phase))


# ------------------------------------------------------------- batched solves


def _report_bytes(rep) -> dict:
    """Every output of a report except its times, as bytes."""
    out = {f"rating {b}": r.scores.tobytes() for b, r in rep.ratings.items()}
    out.update({f"direction {b}": w.tobytes() for b, w in (rep.directions or {}).items()})
    for name in ("spectral_vectors", "spectral_eigenvalues"):
        a = getattr(rep, name)
        out[name] = None if a is None else np.asarray(a).tobytes()
    for phase in ("spectral", "regression"):
        out[phase] = _phase_fields(getattr(rep, phase))
    return out


def solve_batch(p, labelings, algorithm) -> list:
    """The reports of p rated under labelings as one batch at p's budgets:
    solve_sweep over the one pair (max_iter_n, max_iter_d)."""
    return solve_sweep(p, labelings, algorithm, [(p.max_iter_n, p.max_iter_d)], list)[0]


def cv_like_labelings(p: SdaProblem, n_labelings: int) -> list:
    """Label vectors that differ from p's only in which labels they hide,
    as those of one outer fold of nested CV do."""
    rng = np.random.default_rng(8)
    labeled = np.flatnonzero(p.labels.mask_labeled)
    out = []
    for _ in range(n_labelings):
        labels = p.labels.labels.astype(np.int64)
        hide = rng.choice(labeled, size=2, replace=False)
        labels[hide] = 0
        if labels.max() < 1 or labels.min() > -1:  # keep both classes
            labels[hide] = p.labels.labels[hide]
        out.append(LabelVector(labels))
    return out


def _check_solve_many_equals_a_loop_of_solve(algorithm, alpha, budget, gram_kept):
    p, _ = make_problem(n=120, d=20, n_labeled=10, alpha=alpha, betas=(1e-4, 1e-2, 1.0), tol=1e-9)
    assert (p.x.gram is not None) == gram_kept
    if budget is not None:
        p = dataclasses.replace(p, max_iter_n=budget, max_iter_d=budget)
    labelings = cv_like_labelings(p, 5)
    batch = solve_batch(p, labelings, algorithm)
    singles = [solve(dataclasses.replace(p, labels=labels), algorithm) for labels in labelings]
    assert [r.algorithm for r in batch] == [algorithm] * len(labelings)
    for one, many in zip(singles, batch):
        assert _report_bytes(many) == _report_bytes(one)
        assert (many.blas_threads, many.product_threads) == (one.blas_threads, one.product_threads)
    grid_phases = [r.regression or r.spectral for r in singles]  # the phase over the grid
    if budget is None:
        assert all(s.ok for s in grid_phases)
        assert len({int(np.max(s.iterations)) for s in grid_phases}) > 1
    else:
        assert not any(s.ok for s in grid_phases)
    if algorithm in ("fsda", "csr-sda"):
        assert len({r.wall_time_s for r in batch}) == 1  # the batch time, shared out


@pytest.mark.parametrize("budget", [None, 3])
@pytest.mark.parametrize("algorithm, alpha", ROUTES)
def test_solve_many_equals_a_loop_of_solve(algorithm, alpha, budget):
    """Report j of a batch equals solve of problem j: ratings, directions,
    spectral vectors and phase stats, bit for bit, whether the problems
    converge at different iterations or all run out of a budget of 3. The
    regressions apply X's Gram matrix."""
    _check_solve_many_equals_a_loop_of_solve(algorithm, alpha, budget, gram_kept=True)


@pytest.mark.parametrize("budget", [None, 3])
@pytest.mark.parametrize("algorithm", ["csr-sda", "sr-sda"])
def test_solve_many_equals_a_loop_of_solve_matrix_free(monkeypatch, algorithm, budget):
    """As above, with the regressions' X^T X as two sparse products."""
    matrix_free(monkeypatch)
    _check_solve_many_equals_a_loop_of_solve(algorithm, 0.5, budget, gram_kept=False)


@pytest.mark.parametrize("gram_kept", [True, False])
@pytest.mark.parametrize("algorithm, alpha", ROUTES)
def test_solve_sweep_equals_solve_many_per_budget(monkeypatch, algorithm, alpha, gram_kept):
    """Each budget of one solve_sweep, ascending (k1, k2) pairs, two of
    them with budgets that differ, gives the reports of a batch rated at those
    budgets alone, bit for bit but for times: ratings, directions,
    spectral vectors and phase stats. use gets each budget's reports once,
    in order, and what it returns comes back. Pairs out of order, repeated
    or rising in one budget only raise ValueError."""
    if not gram_kept:
        matrix_free(monkeypatch)
    p, _ = make_problem(n=120, d=20, n_labeled=10, alpha=alpha, betas=(1e-4, 1e-2, 1.0), tol=1e-9)
    labelings = cv_like_labelings(p, 4)
    budgets = [(2, 2), (5, 3), (7, 5), (1000, 1000)]
    seen = []
    returned = sda.solve_sweep(p, labelings, algorithm, budgets,
                               lambda reports: seen.append(reports) or len(seen))
    assert returned == list(range(1, len(budgets) + 1)) and len(seen) == len(budgets)
    for (k1, k2), reports in zip(budgets, seen):
        batch = solve_batch(dataclasses.replace(p, max_iter_n=k1, max_iter_d=k2), labelings,
                            algorithm)
        for got, want in zip(reports, batch):
            assert _report_bytes(got) == _report_bytes(want), (k1, k2)
            assert (got.blas_threads, got.product_threads) == (want.blas_threads,
                                                               want.product_threads)
        assert len({r.wall_time_s for r in reports}) == 1  # the batch time, shared out
    walls = [reports[0].wall_time_s for reports in seen]
    assert walls == sorted(walls)  # each budget's time counts every budget before it
    for bad in ([(0, 5)], [], [(5, 5), (2, 2)], [(2, 2), (2, 2)], [(2, 3), (5, 3)],
                [(2, 3), (2, 5)]):
        with pytest.raises(ValueError, match="at least"):
            sda.solve_sweep(p, labelings, algorithm, bad, list)


def _labelings_of(p: SdaProblem, bad: str) -> list:
    lab = p.labels.labels.astype(np.int64)
    return {"none": [],
            "short": [p.labels, LabelVector(lab[:-1])],
            "one class": [p.labels, LabelVector(np.where(lab < 0, 0, lab))]}[bad]


@pytest.mark.parametrize("bad, message", [
    ("none", "at least one labeling"),
    ("short", "labels cover 39 samples but x has 40 rows"),
    ("one class", "both classes"),
])
@pytest.mark.parametrize("algorithm", sda.ALGORITHMS)
def test_solve_sweep_rejects_a_bad_labeling(algorithm, bad, message):
    """No labelings, a labeling shorter than x, or one that leaves a class
    empty raise ValueError before anything is rated."""
    p, _ = make_problem(n=40, d=10, betas=(1e-3, 1e-1))
    used = []
    with pytest.raises(ValueError, match=message):
        solve_sweep(p, _labelings_of(p, bad), algorithm, [(2, 2)], used.append)
    assert used == []


# ---------------------------------------------------------- per-phase timing


@pytest.mark.parametrize("algorithm, alpha", ROUTES)
def test_phase_wall_times_fit_in_the_solve(algorithm, alpha):
    p, _ = make_problem(alpha=alpha, betas=(1e-3, 1e-1))
    rep = solve(p, algorithm)
    phases = [s for s in (rep.spectral, rep.regression) if s is not None]
    assert phases
    for phase in phases:
        assert phase.wall_time_s >= 0.0
        assert phase.to_dict()["wall_time_s"] == phase.wall_time_s
    assert sum(s.wall_time_s for s in phases) <= rep.wall_time_s


# ------------------------------------------------------------ algorithm rules


def test_unknown_algorithm_rejected():
    """Only the four algorithms rate; 'lda' is fsda at alpha = 0, not a name."""
    p, _ = make_problem()
    for name in ("pca", "lda"):
        with pytest.raises(ValueError, match="unknown algorithm"):
            solve(p, name)


# ------------------------------------------------------- problem construction


def sparse_of(dense: np.ndarray):
    rows, cols = np.nonzero(dense)
    return build_sparse(*dense.shape, rows, cols, dense[rows, cols])


def permuted_problem(p: SdaProblem, perm: np.ndarray) -> SdaProblem:
    """P * problem: sample i of the result is sample perm[i] of p."""
    lap = dense_of(p.lap.matrix)[np.ix_(perm, perm)]
    return SdaProblem(
        x=sparse_of(dense_of(p.x)[perm]),
        labels=LabelVector(p.labels.labels[perm]),
        lap=Laplacian(matrix=sparse_of(lap), degrees=np.asarray(p.lap.degrees)[perm]),
        alpha=p.alpha, betas=p.betas, tol=p.tol,
    )


@pytest.mark.parametrize("algorithm", ["fsda", "csr-sda", "sa-sda", "sr-sda"])
def test_solve_is_permutation_equivariant(algorithm):
    """Rows may come in any order: solve(P * problem) = P * solve(problem)
    for every permutation P, one that keeps the labeled rows in their
    relative order or one that does not: every right-hand side comes from
    the labels alone."""
    x, truth = clustered_binary(60, 12, seed=3)
    g, lap = knn_problem_parts(x, 3)
    labels = label_subset(truth, 4, seed=4)
    assert not np.all(labels.labels[: labels.n_labeled] != 0)  # scattered labels
    p = SdaProblem(x=x, labels=labels, lap=lap, alpha=0.5, betas=(1e-3, 1.0), tol=1e-12)
    ref = solve(p, algorithm)

    rng = np.random.default_rng(5)
    order_kept = rng.permutation(p.n)
    at = np.flatnonzero(labels.mask_labeled[order_kept])
    order_kept[at] = np.sort(order_kept[at])
    arbitrary = rng.permutation(p.n)
    assert np.any(np.diff(arbitrary[labels.mask_labeled[arbitrary]]) < 0)

    for perm in (order_kept, arbitrary):
        rep = solve(permuted_problem(p, perm), algorithm)
        for beta, rating in ref.ratings.items():
            want, got = rating.scores[perm], rep.ratings[beta].scores
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())


def test_problem_validates_alpha_and_shapes():
    x, truth = clustered_binary(20, 8, seed=1)
    g, lap = knn_problem_parts(x, 3)
    labels = labels_first(2, 2, 16)
    with pytest.raises(ValueError):
        SdaProblem(x=x, labels=labels, lap=lap, alpha=1.5, betas=(1e-3,))
    g2, lap2 = knn_problem_parts(clustered_binary(10, 8, seed=2)[0], 3)
    with pytest.raises(ValueError):
        SdaProblem(x=x, labels=labels, lap=lap2, alpha=0.5, betas=(1e-3,))
    with pytest.raises(ValueError):
        SdaProblem(x=x, labels=labels, lap=lap, alpha=0.5, betas=())


@pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1.0])
def test_problem_rejects_a_tol_that_is_not_finite_and_positive(tol):
    x, truth = clustered_binary(20, 8, seed=1)
    _, lap = knn_problem_parts(x, 3)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        SdaProblem(x=x, labels=labels_first(2, 2, 16), lap=lap, alpha=0.5, betas=(1e-3,), tol=tol)


# ------------------------------------------------------------ report schema


@pytest.mark.parametrize("algorithm, alpha", ROUTES)
def test_report_schema_and_phase_dimensions(algorithm, alpha):
    p, _ = make_problem(alpha=alpha, betas=(1e-3, 1e-1))
    rep = solve(p, algorithm)
    assert set(rep.to_dict()) == {
        "algorithm", "alpha", "betas", "converged", "wall_time_s", "blas_threads",
        "product_threads", "spectral", "regression", "spectral_eigenvalues",
    }
    assert rep.product_threads == 1  # too few stored entries to split
    phases = {"spectral": (rep.spectral, p.n), "regression": (rep.regression, p.d)}
    assert any(stats is not None for stats, _ in phases.values())
    for name, (stats, dim) in phases.items():
        if stats is None:
            assert rep.to_dict()[name] is None
            continue
        assert set(stats.to_dict()) == {
            "dimension", "iterations", "operator_applications", "residuals",
            "converged", "wall_time_s",
        }
        assert stats.dimension == dim


def test_sa_spectral_vectors_are_the_ratings():
    """Column s of sa-sda's spectral_vectors is the oriented rating at
    betas[s]."""
    x, truth = clustered_binary(60, 12, seed=3)
    g, lap = knn_problem_parts(x, 3)
    labels = label_subset(truth, 4, seed=4)
    p = SdaProblem(x=x, labels=labels, lap=lap, alpha=0.5, betas=(1e-3, 1e-1, 10.0))
    rep = solve(p, "sa-sda")
    assert rep.spectral_vectors.shape == (p.n, p.betas.n_shifts)
    for s, beta in enumerate(p.betas.betas):
        scores = rep.ratings[float(beta)].scores
        np.testing.assert_array_equal(rep.spectral_vectors[:, s], scores)
        assert float(labels.labels @ scores) >= 0.0


def test_orient_flips_scores_and_paired_arrays_together():
    """A rating that correlates negatively with the labels is negated in
    place, and so is every array paired with it, the direction w with
    scores = X w among them; one that correlates non-negatively is left
    as it is."""
    p, _ = make_problem(n=40, d=10)
    x = dense_of(p.x)
    lab = p.labels.labels.astype(np.float64)
    w = np.linalg.lstsq(x, -lab, rcond=None)[0]
    scores = x @ w
    assert lab @ scores < 0.0
    flipped, flipped_w = scores.copy(), w.copy()
    sda._orient(p.labels, flipped, flipped_w)
    np.testing.assert_array_equal(flipped, -scores)
    np.testing.assert_array_equal(flipped_w, -w)
    kept, kept_w = flipped.copy(), flipped_w.copy()
    sda._orient(p.labels, kept, kept_w)
    np.testing.assert_array_equal(kept, flipped)
    np.testing.assert_array_equal(kept_w, flipped_w)
