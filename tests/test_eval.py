"""Evaluation-layer oracles: AUC against the O(n^2) pairwise definition,
stratified fold structure, nested CV determinism and tie rules, label
subsampling, the shifted-vs-sequential benchmark, and the records file."""

import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdakit.evaluation import (
    CvPlan,
    DEFAULT_BETA_GRID,
    DEFAULT_ITERATION_SWEEP,
    auc_roc,
    bench_shifted,
    nested_cv,
    stratified_fold_assignment,
    subsample_labels,
    write_records_csv,
)
from sdakit.graph import Laplacian, graph_from_adjacency, laplacian
from sdakit.sda import SdaProblem
from sdakit.sparse import LabelVector, SparseMatrix, build_sparse
from sdakit.synthetic import (
    clustered_binary,
    knn_problem_parts,
    label_subset,
    random_sparse_binary,
)
from conftest import force_split, pairwise_auc

# ------------------------------------------------------------------- auc-roc


def test_auc_perfect_and_inverted_hand_case():
    scores = [0.9, 0.4, 0.6, 0.1]
    assert auc_roc(scores, [1, -1, 1, -1]) == 1.0
    assert auc_roc(scores, [-1, 1, -1, 1]) == 0.0


def test_auc_hand_case_with_tie():
    # pairs: (0.5 pos vs 0.5 neg) tie -> 1/2, (0.5 pos vs 0.2 neg) -> 1
    assert auc_roc([0.5, 0.5, 0.2], [1, -1, -1]) == pytest.approx(0.75)
    assert auc_roc([1.0, 1.0], [1, -1]) == pytest.approx(0.5)
    assert auc_roc([3.0, 3.0, 3.0, 3.0], [1, -1, 1, -1]) == pytest.approx(0.5)


def test_auc_matches_pairwise_definition_including_ties():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        truth = np.where(rng.uniform(size=n) < 0.5, 1, -1)
        if not (truth == 1).any():
            truth[0] = 1
        if not (truth == -1).any():
            truth[-1] = -1
        # quantized scores force plenty of exact ties
        scores = np.round(rng.uniform(-1, 1, size=n) * 4) / 4
        assert auc_roc(scores, truth) == pytest.approx(
            pairwise_auc(scores, truth), abs=1e-12
        )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=2, max_size=25),
    st.randoms(use_true_random=False),
)
def test_auc_invariant_under_monotone_transforms(quantized, rnd):
    n = len(quantized)
    truth = np.array([1 if rnd.random() < 0.5 else -1 for _ in range(n)])
    truth[0], truth[-1] = 1, -1
    scores = np.asarray(quantized, dtype=float)
    base = auc_roc(scores, truth)
    assert auc_roc(3.0 * scores + 7.0, truth) == pytest.approx(base, abs=1e-12)
    assert auc_roc(scores**3, truth) == pytest.approx(base, abs=1e-12)
    assert auc_roc(-scores, truth) == pytest.approx(1.0 - base, abs=1e-12)


def test_auc_validation():
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        auc_roc([0.1, 0.2], [1, 0])
    with pytest.raises(ValueError, match="each class"):
        auc_roc([0.1, 0.2], [1, 1])
    with pytest.raises(ValueError, match="equal length"):
        auc_roc([0.1, 0.2, 0.3], [1, -1])


def test_auc_block_rows_equal_one_dimensional_calls():
    rng = np.random.default_rng(17)
    for n in (2, 3, 9, 40, 333):
        truth = np.where(rng.uniform(size=n) < 0.4, 1, -1)
        truth[0], truth[-1] = 1, -1
        # quantized scores force ties, and the last row is one big tie
        block = np.round(rng.uniform(-1, 1, size=(13, n)) * 3) / 3
        block[-1] = 0.25
        got = auc_roc(block, truth)
        assert isinstance(got, np.ndarray) and got.shape == (13,)
        want = np.array([auc_roc(row, truth) for row in block])
        assert got.tobytes() == want.tobytes()
        assert got[-1] == 0.5
    assert isinstance(auc_roc(block[0], truth), float)


def test_auc_block_validation_matches_one_dimensional():
    for scores_1d, truth in (([0.1, 0.2], [1, 0]), ([0.1, 0.2], [1, 1]),
                             ([0.1, 0.2, 0.3], [1, -1])):
        with pytest.raises(ValueError) as one:
            auc_roc(scores_1d, truth)
        with pytest.raises(ValueError) as block:
            auc_roc([scores_1d, scores_1d], truth)
        assert str(block.value) == str(one.value)
    with pytest.raises(ValueError, match="equal length"):
        auc_roc(np.zeros((2, 2, 2)), [1, -1])
    with pytest.raises(ValueError, match="equal length"):
        auc_roc([0.1, 0.2], [[1, -1]])


def test_default_beta_grid_spans_thirteen_decades():
    grid = np.asarray(DEFAULT_BETA_GRID)
    assert grid.size == 13
    assert grid[0] == pytest.approx(1e-9)
    assert grid[-1] == pytest.approx(1e3)
    np.testing.assert_allclose(grid[1:] / grid[:-1], 10.0, rtol=1e-12)


def test_default_iteration_sweep():
    assert DEFAULT_ITERATION_SWEEP == (2, 3, 5, 10, 20, 40, 60, 80)


# -------------------------------------------------------------- subsampling


def scattered_labels(n=30, n_pos=10, n_neg=10, seed=0):
    rng = np.random.default_rng(seed)
    out = np.zeros(n, dtype=np.int64)
    idx = rng.permutation(n)
    out[idx[:n_pos]] = 1
    out[idx[n_pos:n_pos + n_neg]] = -1
    return LabelVector(out)


def test_subsample_floor_rule_per_class():
    lv = scattered_labels()
    half = subsample_labels(lv, 0.5, seed=1)
    assert half.n_class1 == 5 and half.n_class2 == 5
    frac = subsample_labels(lv, 0.26, seed=1)
    assert frac.n_class1 == 2 and frac.n_class2 == 2


def test_subsample_never_empties_a_class():
    lv = scattered_labels()
    tiny = subsample_labels(lv, 0.01, seed=3)
    assert tiny.n_class1 == 1 and tiny.n_class2 == 1


def test_subsample_fraction_one_is_identity():
    lv = scattered_labels(seed=5)
    kept = subsample_labels(lv, 1.0, seed=9)
    np.testing.assert_array_equal(kept.labels, lv.labels)


def test_subsample_keeps_only_original_labels():
    lv = scattered_labels(seed=2)
    kept = subsample_labels(lv, 0.4, seed=8)
    on = np.flatnonzero(kept.labels)
    assert on.size == kept.n_labeled
    np.testing.assert_array_equal(kept.labels[on], lv.labels[on])
    assert kept.n_labeled < lv.n_labeled


def test_subsample_validation():
    lv = scattered_labels()
    with pytest.raises(ValueError, match="fraction"):
        subsample_labels(lv, 0.0, seed=1)
    with pytest.raises(ValueError, match="fraction"):
        subsample_labels(lv, 1.5, seed=1)
    one_sided = LabelVector(np.array([1, 1, 0, 0]))
    with pytest.raises(ValueError, match="per class"):
        subsample_labels(one_sided, 0.5, seed=1)


# ------------------------------------------------------------------- folding


def test_stratified_folds_cover_and_balance():
    rng = np.random.default_rng(0)
    lv = scattered_labels(n=60, n_pos=12, n_neg=17, seed=4)
    idx, folds = stratified_fold_assignment(lv, 5, rng)
    assert np.array_equal(np.sort(idx), np.flatnonzero(lv.labels))
    assert np.array_equal(idx, np.sort(idx))  # returned in index order
    for f in range(5):
        members = idx[folds == f]
        classes = lv.labels[members]
        assert (classes == 1).sum() >= 1 and (classes == -1).sum() >= 1
    for cls in (1, -1):
        sizes = [
            ((folds == f) & (lv.labels[idx] == cls)).sum() for f in range(5)
        ]
        assert max(sizes) - min(sizes) <= 1


def test_stratified_folds_deterministic_per_seed():
    lv = scattered_labels(n=40, n_pos=9, n_neg=11, seed=6)
    a = stratified_fold_assignment(lv, 4, np.random.default_rng(42))
    b = stratified_fold_assignment(lv, 4, np.random.default_rng(42))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_stratified_folds_reject_small_classes():
    lv = scattered_labels(n=20, n_pos=3, n_neg=8, seed=1)
    with pytest.raises(ValueError, match="at least 5"):
        stratified_fold_assignment(lv, 5, np.random.default_rng(0))


# ----------------------------------------------------------------- nested cv


@pytest.fixture(scope="module")
def cv_problem():
    x, truth = clustered_binary(150, 40, seed=5, p_own=0.45, p_other=0.01)
    g, lap = knn_problem_parts(x, 3)
    labels = label_subset(truth, 12, seed=6)
    return SdaProblem(
        x=x, labels=labels, lap=lap, alpha=0.3, betas=(1e-6, 1e-2, 1e-1)
    )


def test_nested_cv_record_structure(cv_problem):
    plan = CvPlan(seeds=(1, 2), n_outer=3, n_inner=3)
    res = nested_cv(cv_problem, "fsda", plan)
    assert len(res.records) == 2 * 3
    betas = set(float(b) for b in cv_problem.betas.betas)
    for r in res.records:
        assert r.algorithm == "fsda"
        assert r.alpha == cv_problem.alpha
        assert r.iterations == max(cv_problem.max_iter_n, cv_problem.max_iter_d)
        assert r.fold in (0, 1, 2)
        assert r.seed in (1, 2)
        assert 0.0 <= r.auc <= 1.0
        assert r.chosen_beta in betas
        assert r.wall_ms > 0.0
    assert sorted((r.seed, r.fold) for r in res.records) == [
        (s, f) for s in (1, 2) for f in range(3)
    ]


def test_nested_cv_deterministic_modulo_timing(cv_problem):
    plan = CvPlan(seeds=(3,), n_outer=3, n_inner=3)
    a = nested_cv(cv_problem, "fsda", plan)
    b = nested_cv(cv_problem, "fsda", plan)
    for ra, rb in zip(a.records, b.records):
        assert ra.auc == rb.auc
        assert ra.chosen_beta == rb.chosen_beta
        assert (ra.seed, ra.fold) == (rb.seed, rb.fold)
    assert a.mean_auc == b.mean_auc
    assert a.std_auc == b.std_auc


def test_nested_cv_tie_break_prefers_larger_beta(cv_problem):
    """The problem is separable enough that every beta reaches AUC 1 on the
    inner folds; exact ties must resolve to the most regularized beta."""
    res = nested_cv(cv_problem, "fsda", CvPlan(seeds=(1,), n_outer=3, n_inner=3))
    assert all(r.auc == 1.0 for r in res.records)
    assert all(r.chosen_beta == 0.1 for r in res.records)


def test_nested_cv_aggregates_match_records(cv_problem):
    res = nested_cv(cv_problem, "fsda", CvPlan(seeds=(1, 2), n_outer=3, n_inner=3))
    aucs = np.array([r.auc for r in res.records])
    walls = np.array([r.wall_ms for r in res.records])
    assert res.mean_auc == pytest.approx(aucs.mean(), abs=1e-15)
    assert res.std_auc == pytest.approx(aucs.std(), abs=1e-15)
    assert res.mean_wall_ms == pytest.approx(walls.mean(), rel=1e-12)


# ------------------------------------------------------------------ benchmark


@pytest.fixture(scope="module")
def bench_problem():
    n = 6000
    rng = np.random.default_rng(11)
    m = n * 3
    i = rng.integers(0, n, m * 3)
    j = rng.integers(0, n, m * 3)
    keep = i < j
    keys = np.unique(i[keep][:m].astype(np.int64) * n + j[keep][:m])
    i2, j2 = keys // n, keys % n
    rows = np.concatenate([i2, j2])
    cols = np.concatenate([j2, i2])
    adjacency = build_sparse(n, n, rows, cols, np.ones(rows.size))
    lap = laplacian(graph_from_adjacency(adjacency))
    x = random_sparse_binary(n, 600, 700_000, seed=2, column_power=0.7)
    lab = np.zeros(n, dtype=np.int64)
    lab[:20] = 1
    lab[20:40] = -1
    return SdaProblem(
        x=x, labels=LabelVector(lab), lap=lap, alpha=0.5,
        betas=tuple(np.geomspace(1e-6, 1e3, 12)), tol=1e-8, max_iter_d=400,
    )


def test_bench_twelve_shifts_amortizes(bench_problem):
    rep = bench_shifted(bench_problem, tol=1e-3)
    assert rep.all_converged
    assert rep.betas.size == 12
    assert rep.iterations_shifted.size == 12
    assert rep.iterations_sequential.size == 12
    # one basis for all shifts: total applications collapse to the worst
    # shift, while sequential pays per shift
    assert rep.shifted_ops <= rep.iterations_shifted.max() + 1
    assert rep.sequential_ops >= 6 * rep.shifted_ops
    assert (rep.iterations_shifted <= rep.iterations_sequential + 1).all()
    assert rep.speedup > 2.0


def test_bench_single_shift_costs_like_plain_cg(bench_problem):
    rep = bench_shifted(bench_problem, grid=(1e-3,), tol=1e-6)
    assert abs(int(rep.iterations_shifted[0]) - int(rep.iterations_sequential[0])) <= 1
    assert abs(rep.shifted_ops - rep.sequential_ops) <= 2
    assert 1 / 1.3 <= rep.speedup <= 1.3


def test_bench_report_serializes(bench_problem):
    rep = bench_shifted(bench_problem, grid=(1e-2, 1.0), tol=1e-3)
    d = rep.to_dict()
    assert set(d) == {
        "betas", "tol", "t_shifted_s", "t_sequential_s", "speedup",
        "iterations_shifted", "iterations_sequential", "shifted_ops",
        "sequential_ops", "all_converged",
    }
    assert d["betas"] == [1e-2, 1.0]
    assert isinstance(d["speedup"], float)


# ---------------------------------------------------------------- result files


def test_records_csv_round_trip(tmp_path, cv_problem):
    res = nested_cv(cv_problem, "fsda", CvPlan(seeds=(1,), n_outer=3, n_inner=3))
    path = tmp_path / "records.csv"
    write_records_csv(path, res.records)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(res.records)
    for row, rec in zip(rows, res.records):
        assert row["algorithm"] == rec.algorithm
        assert float(row["alpha"]) == rec.alpha
        assert [float(b) for b in row["beta_grid"].split(";")] == list(rec.beta_grid)
        assert int(row["fold"]) == rec.fold
        assert int(row["seed"]) == rec.seed
        assert float(row["auc"]) == rec.auc
        assert float(row["chosen_beta"]) == rec.chosen_beta


# ------------------------------------------------- solves behind nested cv


def test_nested_cv_runs_only_the_solves_it_uses(cv_problem, monkeypatch):
    """Each outer fold is one solve_many batch of its inner solves and its
    outer solve, each over the whole beta grid, and each record's wall
    time comes from the batch that scored its fold: the outer report's
    share of the batch time."""
    from sdakit import evaluation

    batches = []
    real_solve_many = evaluation.solve_many

    def recording_solve_many(problems, algorithm):
        reports = real_solve_many(problems, algorithm)
        batches.append((list(problems), reports))
        return reports

    monkeypatch.setattr(evaluation, "solve_many", recording_solve_many)
    plan = CvPlan(seeds=(1, 2), n_outer=3, n_inner=4)
    res = nested_cv(cv_problem, "csr-sda", plan)

    per_fold = plan.n_inner + 1
    assert len(batches) == len(plan.seeds) * plan.n_outer
    for problems, reports in batches:
        assert len(problems) == len(reports) == per_fold
        for p, rep in zip(problems, reports):
            np.testing.assert_array_equal(p.betas.betas, cv_problem.betas.betas)
            assert sorted(rep.ratings) == sorted(float(b) for b in cv_problem.betas.betas)
        assert len({rep.wall_time_s for rep in reports}) == 1  # an even share each
    outer = [reports[-1] for _, reports in batches]
    assert [r.wall_ms for r in res.records] == [rep.wall_time_s * 1e3 for rep in outer]


# (budget, algorithm) -> every record's (seed, fold, auc, chosen_beta, iterations),
# recorded when each fold's solves ran one at a time.
PINNED_CV_RECORDS = {
    (1000, "fsda"): [
        (1, 0, 1.0, 0.1, 1000), (1, 1, 1.0, 0.1, 1000), (1, 2, 1.0, 0.1, 1000),
        (2, 0, 1.0, 0.1, 1000), (2, 1, 1.0, 0.1, 1000), (2, 2, 1.0, 0.1, 1000),
    ],
    (1000, "csr-sda"): [
        (1, 0, 1.0, 0.1, 1000), (1, 1, 1.0, 0.1, 1000), (1, 2, 1.0, 0.1, 1000),
        (2, 0, 1.0, 0.1, 1000), (2, 1, 1.0, 0.1, 1000), (2, 2, 1.0, 0.1, 1000),
    ],
    (1000, "sa-sda"): [
        (1, 0, 1.0, 0.1, 1000), (1, 1, 1.0, 0.1, 1000), (1, 2, 1.0, 0.1, 1000),
        (2, 0, 1.0, 0.1, 1000), (2, 1, 1.0, 0.1, 1000), (2, 2, 1.0, 0.1, 1000),
    ],
    (1000, "sr-sda"): [
        (1, 0, 1.0, 0.1, 1000), (1, 1, 1.0, 0.1, 1000), (1, 2, 1.0, 0.1, 1000),
        (2, 0, 1.0, 0.1, 1000), (2, 1, 1.0, 0.1, 1000), (2, 2, 0.9375, 0.1, 1000),
    ],
    (2, "fsda"): [
        (1, 0, 1.0, 0.1, 2), (1, 1, 1.0, 0.1, 2), (1, 2, 1.0, 0.1, 2),
        (2, 0, 1.0, 0.1, 2), (2, 1, 1.0, 0.1, 2), (2, 2, 1.0, 0.1, 2),
    ],
    (2, "csr-sda"): [
        (1, 0, 0.8125, 0.1, 2), (1, 1, 1.0, 0.1, 2), (1, 2, 0.875, 0.1, 2),
        (2, 0, 0.9375, 0.1, 2), (2, 1, 0.9375, 0.1, 2), (2, 2, 1.0, 0.1, 2),
    ],
    (2, "sa-sda"): [
        (1, 0, 0.90625, 0.1, 2), (1, 1, 0.75, 0.1, 2), (1, 2, 0.90625, 0.1, 2),
        (2, 0, 0.875, 0.1, 2), (2, 1, 0.875, 0.1, 2), (2, 2, 0.875, 0.1, 2),
    ],
    (2, "sr-sda"): [
        (1, 0, 1.0, 0.1, 2), (1, 1, 1.0, 0.1, 2), (1, 2, 1.0, 0.1, 2),
        (2, 0, 0.8125, 0.1, 2), (2, 1, 1.0, 0.1, 2), (2, 2, 1.0, 0.1, 2),
    ],
}


@pytest.mark.parametrize("budget, algorithm", sorted(PINNED_CV_RECORDS))
def test_nested_cv_records_are_pinned(cv_problem, budget, algorithm):
    """AUCs come from ranks, so records are exact: a batching or solver
    change that moves any record fails here. At a budget of 2 the solves
    stop unconverged and the AUCs spread."""
    p = dataclasses.replace(cv_problem, max_iter_n=budget, max_iter_d=budget)
    res = nested_cv(p, algorithm, CvPlan(seeds=(1, 2), n_outer=3, n_inner=3))
    assert [(r.seed, r.fold, r.auc, r.chosen_beta, r.iterations) for r in res.records] == \
        PINNED_CV_RECORDS[budget, algorithm]


@pytest.mark.parametrize("algorithm", ["fsda", "csr-sda"])
def test_nested_cv_block_scoring_matches_beta_by_beta_replay(cv_problem, monkeypatch, algorithm):
    """Scoring each inner fold's beta grid as one block picks the same
    betas and outer AUCs as scoring it one beta at a time."""
    from sdakit import evaluation

    plan = CvPlan(seeds=(1, 2), n_outer=3, n_inner=3)
    block = nested_cv(cv_problem, algorithm, plan)

    real_auc = evaluation.auc_roc
    one_d_calls = []

    def beta_by_beta(scores, truth):
        scores = np.asarray(scores)
        if scores.ndim == 1:
            one_d_calls.append(scores.size)
            return real_auc(scores, truth)
        return np.array([beta_by_beta(row, truth) for row in scores])

    monkeypatch.setattr(evaluation, "auc_roc", beta_by_beta)
    replay = nested_cv(cv_problem, algorithm, plan)
    n_betas = cv_problem.betas.betas.size
    assert len(one_d_calls) == len(plan.seeds) * plan.n_outer * (plan.n_inner * n_betas + 1)
    assert [(r.seed, r.fold, r.auc, r.chosen_beta) for r in block.records] == [
        (r.seed, r.fold, r.auc, r.chosen_beta) for r in replay.records
    ]


def test_bench_runs_the_production_regression_rhs():
    """bench_shifted's shifted side is csr-sda's regression phase: same
    right-hand side, so the same per-shift iteration counts."""
    from sdakit.sda import solve

    x, truth = clustered_binary(80, 16, seed=8)
    g, lap = knn_problem_parts(x, 3)
    labels = label_subset(truth, 5, seed=9)
    assert not np.all(labels.labels[: labels.n_labeled] != 0)  # scattered labels
    p = SdaProblem(x=x, labels=labels, lap=lap, alpha=0.5, betas=(1e-6, 1e-3, 1.0), tol=1e-9)
    bench = bench_shifted(p, grid=p.betas, tol=p.tol)
    np.testing.assert_array_equal(bench.iterations_shifted, solve(p, "csr-sda").regression.iterations)


@pytest.mark.parametrize("algorithm", ["fsda", "sr-sda"])
def test_nested_cv_records_equal_with_split_products(cv_problem, monkeypatch, algorithm):
    """Splitting X, X^T and L products into row ranges leaves every CV
    record's AUC, chosen beta and iteration budget bit-equal."""
    plan = CvPlan(seeds=(1,), n_outer=3, n_inner=3)
    serial = nested_cv(cv_problem, algorithm, plan)
    force_split(monkeypatch, 3)

    def fresh(m):  # no products yet, so its split follows the patched values
        return SparseMatrix(m.n_rows, m.n_cols, m.row_offsets, m.col_indices, m.values)

    lap = cv_problem.lap
    p = dataclasses.replace(cv_problem, x=fresh(cv_problem.x),
                            lap=Laplacian(fresh(lap.matrix), lap.degrees))
    split = nested_cv(p, algorithm, plan)
    assert (cv_problem.x.product_threads, p.x.product_threads) == (1, 3)
    assert [(r.auc, r.chosen_beta, r.iterations) for r in serial.records] == [
        (r.auc, r.chosen_beta, r.iterations) for r in split.records
    ]
