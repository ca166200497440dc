"""Evaluation-layer oracles: AUC against the O(n^2) pairwise definition,
stratified fold structure, nested CV determinism and tie rules, the
shifted-vs-sequential benchmark, and the records file."""

import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdakit.evaluation import (
    CvPlan,
    CvRecord,
    DEFAULT_BETA_GRID,
    DEFAULT_ITERATION_SWEEP,
    ExperimentResult,
    auc_roc,
    bench_shifted,
    carry_feature_laplacian,
    nested_cv,
    stratified_fold_assignment,
    write_records_csv,
)
from sdakit.graph import Laplacian, graph_from_adjacency, laplacian, threshold_graph
from sdakit.sda import SdaProblem
from sdakit.sparse import LabelVector, SparseMatrix, build_sparse
from sdakit.synthetic import (
    clustered_binary,
    knn_problem_parts,
    label_subset,
    random_sparse_binary,
    two_chain_fingerprints,
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


def test_auc_of_a_scoring_with_nan_is_nan():
    """A nan score leaves its scoring unranked, as scipy's rankdata leaves
    it: the AUC is nan, and the other rows of a block keep theirs."""
    truth = np.array([1, -1, 1, -1])
    assert np.isnan(auc_roc([1.0, np.nan, 0.5, 0.2], truth))
    aucs = auc_roc(np.array([[1.0, np.nan, 0.5, 0.2], [1.0, 2.0, 3.0, 4.0]]), truth)
    assert np.isnan(aucs[0]) and aucs[1] == 0.25


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


# ------------------------------------------------------------------- folding


def scattered_labels(n=30, n_pos=10, n_neg=10, seed=0):
    rng = np.random.default_rng(seed)
    out = np.zeros(n, dtype=np.int64)
    idx = rng.permutation(n)
    out[idx[:n_pos]] = 1
    out[idx[n_pos:n_pos + n_neg]] = -1
    return LabelVector(out)


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


@pytest.mark.parametrize("seeds", [(), (1, 1), (1, 2, 1)])
def test_plan_refuses_empty_or_repeated_seeds(cv_problem, seeds):
    """An empty plan would average no records, and a repeated seed would
    rate every fold twice."""
    with pytest.raises(ValueError, match="seeds"):
        nested_cv(cv_problem, "fsda", CvPlan(seeds=seeds, n_outer=3, n_inner=3))


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
    """Each outer fold is one solve_sweep batch of its inner solves and its
    outer solve, each over the whole beta grid, and each record's wall
    time comes from the batch that scored its fold: the outer report's
    share of the batch time."""
    from sdakit import evaluation

    batches = []
    real_solve_sweep = evaluation.solve_sweep

    def recording_solve_sweep(p, labelings, algorithm, budgets, use):
        def recording_use(reports):
            batches.append((p, list(labelings), reports))
            return use(reports)

        return real_solve_sweep(p, labelings, algorithm, budgets, recording_use)

    monkeypatch.setattr(evaluation, "solve_sweep", recording_solve_sweep)
    plan = CvPlan(seeds=(1, 2), n_outer=3, n_inner=4)
    res = nested_cv(cv_problem, "csr-sda", plan)

    per_fold = plan.n_inner + 1
    assert len(batches) == len(plan.seeds) * plan.n_outer
    for p, labelings, reports in batches:
        assert len(labelings) == len(reports) == per_fold
        np.testing.assert_array_equal(p.betas.betas, cv_problem.betas.betas)
        for rep in reports:
            assert sorted(rep.ratings) == sorted(float(b) for b in cv_problem.betas.betas)
        assert len({rep.wall_time_s for rep in reports}) == 1  # an even share each
    outer = [reports[-1] for _, _, reports in batches]
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
        (2, 0, 1.0, 0.1, 1000), (2, 1, 1.0, 0.1, 1000), (2, 2, 1.0, 0.1, 1000),
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
        (1, 0, 0.8125, 0.1, 2), (1, 1, 1.0, 0.1, 2), (1, 2, 0.875, 0.1, 2),
        (2, 0, 0.9375, 0.1, 2), (2, 1, 0.875, 0.1, 2), (2, 2, 1.0, 0.1, 2),
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


def without_wall(record):
    return dataclasses.replace(record, wall_ms=0.0)


@pytest.mark.parametrize("algorithm", ["fsda", "csr-sda", "sa-sda", "sr-sda"])
def test_nested_cv_sweep_equals_a_run_per_budget(cv_problem, algorithm):
    """One nested CV over the sweep (1000, 2, 5, 2) rates each budget once,
    ascending, and every record equals that of a run at its budget alone,
    and the pinned one, in every field but wall_ms. A record's wall_ms is
    its batch's time up to that budget's reports, so within a fold it
    grows with the budget."""
    plan = CvPlan(seeds=(1, 2), n_outer=3, n_inner=3)
    sweep = nested_cv(cv_problem, algorithm, plan, sweep=(1000, 2, 5, 2))
    per_budget = len(plan.seeds) * plan.n_outer
    assert [r.iterations for r in sweep.records] == [2] * per_budget + [5] * per_budget + \
        [1000] * per_budget
    for budget in (2, 5, 1000):
        p = dataclasses.replace(cv_problem, max_iter_n=budget, max_iter_d=budget)
        alone = nested_cv(p, algorithm, plan)
        at = sweep.at(budget)
        assert [without_wall(r) for r in at.records] == [without_wall(r) for r in alone.records]
        assert (at.mean_auc, at.std_auc) == (alone.mean_auc, alone.std_auc)
        if (budget, algorithm) in PINNED_CV_RECORDS:
            assert [(r.seed, r.fold, r.auc, r.chosen_beta, r.iterations) for r in at.records] == \
                PINNED_CV_RECORDS[budget, algorithm]
    walls = np.array([r.wall_ms for r in sweep.records]).reshape(3, per_budget)
    assert (walls > 0).all() and (np.diff(walls, axis=0) >= 0).all()


def test_nested_cv_sweep_of_sa_sda_solves_once_per_problem(monkeypatch):
    """A cv sweep of sa-sda over (2, 5, 40) applies each fold batch's
    operator once per problem and iteration up to the largest budget, 40
    times, not 2 + 5 + 40 = 47: every budget's ratings come from one
    shifted solve. On a split threshold graph no solve converges by then,
    and each report's stats count the applications of a solve to its own
    budget."""
    from sdakit import evaluation, sda

    x, truth = two_chain_fingerprints(1500, seed=4, p_noise=0.1, p_drop=0.3)
    p = SdaProblem(x=x, labels=label_subset(truth, 10, seed=5),
                   lap=laplacian(threshold_graph(x, 0.5)), alpha=0.5, betas=DEFAULT_BETA_GRID)
    operators, counts = [], []
    real_operator = sda.centered_spectral_operator
    monkeypatch.setattr(sda, "centered_spectral_operator", lambda p, labelings: operators.append(
        real_operator(p, labelings)) or operators[-1])
    real_solve_sweep = evaluation.solve_sweep

    def counting_solve_sweep(p, labelings, algorithm, budgets, use):
        def counting_use(reports):
            counts.append([rep.spectral.operator_applications for rep in reports])
            return use(reports)

        return real_solve_sweep(p, labelings, algorithm, budgets, counting_use)

    monkeypatch.setattr(evaluation, "solve_sweep", counting_solve_sweep)
    plan = CvPlan(seeds=(1,), n_outer=3, n_inner=3)
    nested_cv(p, "sa-sda", plan, sweep=(2, 5, 40))
    assert len(operators) == plan.n_outer
    assert [op.n_applies for op in operators] == [40 * (plan.n_inner + 1)] * plan.n_outer
    assert counts == [[k] * (plan.n_inner + 1) for k in (2, 5, 40)] * plan.n_outer


def test_at_a_budget_not_rated_raises():
    """at(k) for a budget without records raises ValueError naming k,
    rather than aggregating an empty slice to NaN."""
    record = CvRecord(algorithm="fsda", alpha=0.5, beta_grid=(1e-3,), iterations=10, fold=0,
                      seed=1, auc=0.75, wall_ms=2.0, chosen_beta=1e-3)
    result = ExperimentResult.of([record, dataclasses.replace(record, fold=1, auc=0.25)])
    assert result.at(10).records == result.records and result.at(10).mean_auc == 0.5
    with pytest.raises(ValueError, match="budget 40"):
        result.at(40)


@pytest.fixture(scope="module")
def ratings_heavy_problem():
    """N x 13 ratings (2 MB for a batch of four) outweigh the snapshots
    a default sweep keeps."""
    x, truth = clustered_binary(5000, 200, seed=5, p_own=0.1, p_other=0.01)
    _, lap = knn_problem_parts(x, 5)
    return SdaProblem(x=x, labels=label_subset(truth, 12, seed=6), lap=lap, alpha=0.5,
                      betas=DEFAULT_BETA_GRID)


@pytest.mark.parametrize("algorithm", ["fsda", "csr-sda", "sa-sda", "sr-sda"])
def test_nested_cv_sweep_holds_only_its_snapshots(ratings_heavy_problem, algorithm):
    """Over the 8-budget default sweep, nested CV peaks (tracemalloc) at
    most the snapshots above a run of its largest budget alone: D x
    n_shifts directions per problem and budget, and for csr- and sr-sda an
    N-vector per problem and budget. Each budget's ratings are scored and
    released before the next budget's."""
    import tracemalloc

    p = ratings_heavy_problem
    plan = CvPlan(seeds=(1,), n_outer=3, n_inner=3)
    largest = dataclasses.replace(p, max_iter_n=max(DEFAULT_ITERATION_SWEEP),
                                  max_iter_d=max(DEFAULT_ITERATION_SWEEP))

    def peak(run):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    nested_cv(largest, algorithm, plan)  # warm caches, such as X's Gram matrix
    alone = peak(lambda: nested_cv(largest, algorithm, plan))
    sweep = peak(lambda: nested_cv(p, algorithm, plan, sweep=DEFAULT_ITERATION_SWEEP))
    problems = plan.n_inner + 1
    per_budget = p.d * p.betas.n_shifts + (p.n if algorithm in ("csr-sda", "sr-sda") else 0)
    snapshots = len(DEFAULT_ITERATION_SWEEP) * problems * per_budget * 8
    assert problems * p.n * p.betas.n_shifts * 8 > snapshots
    assert sweep <= alone + snapshots


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


def test_bench_counts_both_sides_on_one_regression_operator(monkeypatch):
    """Both sides of bench_shifted apply the same regression operator, the
    sequential side plus beta w: each repeat's operator counts the shifted
    solve's applications and then the sequential solves'."""
    from sdakit import evaluation, sda

    made = []

    def recording(p):
        made.append(sda.regression_operator(p))
        return made[-1]

    monkeypatch.setattr(evaluation, "regression_operator", recording)
    x, truth = clustered_binary(80, 16, seed=8)
    g, lap = knn_problem_parts(x, 3)
    p = SdaProblem(x=x, labels=label_subset(truth, 5, seed=9), lap=lap, alpha=0.5,
                   betas=(1e-6, 1e-3, 1.0))
    rep = bench_shifted(p, tol=1e-6)
    assert len(made) == evaluation._BENCH_REPEATS
    assert [op.n_applies for op in made] == [rep.shifted_ops + rep.sequential_ops] * len(made)
    assert rep.shifted_ops == rep.iterations_shifted.max()
    assert rep.sequential_ops == rep.iterations_sequential.sum()


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


# ------------------------------------------- fsda's assembled operator in cv


def count_products(monkeypatch, lap: Laplacian) -> dict:
    """Count the sparse products with L: L z applications, and X^T L X
    assemblies."""
    counts = {"lz": 0, "xtlx": 0}
    matvec, gram_through = SparseMatrix.matvec, SparseMatrix.gram_through

    def counting_matvec(self, v):
        counts["lz"] += self is lap.matrix
        return matvec(self, v)

    def counting_gram_through(self, a):
        counts["xtlx"] += a is lap.matrix
        return gram_through(self, a)

    monkeypatch.setattr(SparseMatrix, "matvec", counting_matvec)
    monkeypatch.setattr(SparseMatrix, "gram_through", counting_gram_through)
    return counts


def test_nested_cv_assembles_x_t_l_x_only_for_fsda_where_the_rule_admits(cv_problem, monkeypatch):
    """fsda at alpha > 0 on X that passes the size rule builds K once per
    run and then applies no L z, and builds none for a problem that carries
    K already; csr-, sa- and sr-sda, fsda at alpha 0, and fsda on X that
    the rule refuses build nothing and apply L z as before (fsda at alpha
    0, none)."""
    plan = CvPlan(seeds=(1,), n_outer=3, n_inner=3)
    x, truth = random_sparse_binary(150, 40, 600, seed=3), np.tile([1, -1], 75)
    _, lap = knn_problem_parts(x, 3)
    refused = dataclasses.replace(cv_problem, x=x, lap=lap, labels=label_subset(truth, 12, seed=6))
    assert cv_problem.x.gram_fits and not refused.x.gram_fits
    carrying = carry_feature_laplacian(cv_problem, "fsda")
    assert carrying.feature_laplacian is not None
    assert carry_feature_laplacian(carrying, "fsda") is carrying
    cases = [(cv_problem, "fsda", 1, False), (carrying, "fsda", 0, False),
             (refused, "fsda", 0, True), (dataclasses.replace(cv_problem, alpha=0.0), "fsda", 0, False)]
    cases += [(cv_problem, alg, 0, True) for alg in ("csr-sda", "sa-sda", "sr-sda")]
    for p, algorithm, assemblies, applies_lz in cases:
        with monkeypatch.context() as m:
            counts = count_products(m, p.lap)
            nested_cv(p, algorithm, plan)
        assert counts["xtlx"] == assemblies, algorithm
        assert (counts["lz"] > 0) == applies_lz, algorithm


def test_nested_cv_fsda_on_chains_assembled_equals_matrix_free(monkeypatch):
    """Nested CV as the chains benchmark runs it (its fingerprint shape at
    2 400 samples, threshold graph at 0.5, 10 labels per class, five outer
    and five inner folds, budgets 10 and 40 from one problem, as the cv
    command sweeps them), large enough for the size rule: K is built once
    for both budgets, fsda's solves apply no L z, and every record's AUC
    and chosen beta equal those of the matrix-free route."""
    x, truth = two_chain_fingerprints(2400, seed=4, p_noise=0.1, p_drop=0.3)
    assert x.shape == (2400, 200) and x.gram_fits
    lap = laplacian(threshold_graph(x, 0.5))
    labels = label_subset(truth, 10, seed=5)

    def run():
        base = carry_feature_laplacian(
            SdaProblem(x=x, labels=labels, lap=lap, alpha=0.5, betas=DEFAULT_BETA_GRID),
            "fsda")
        records = []
        for budget in (10, 40):
            p = dataclasses.replace(base, max_iter_n=budget, max_iter_d=budget)
            res = nested_cv(p, "fsda", CvPlan(seeds=(1,)))
            records += [(r.auc, r.chosen_beta) for r in res.records]
        return records

    with monkeypatch.context() as m:
        counts = count_products(m, lap)
        assembled = run()
    assert counts == {"lz": 0, "xtlx": 1}
    monkeypatch.setattr(SparseMatrix, "gram_fits", False)
    with monkeypatch.context() as m:
        counts = count_products(m, lap)
        free = run()
    assert counts["xtlx"] == 0 and counts["lz"] > 0
    assert len(assembled) == 10 and assembled == free
    assert len({beta for _, beta in assembled}) > 1
