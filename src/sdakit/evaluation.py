"""Evaluation: AUC-ROC, nested stratified cross-validation, and the
shifted-vs-sequential solver benchmark.

AUC is computed by the rank-sum identity with average ranks, so tied
scores count half a concordant pair; this matches the O(n^2) pairwise
definition exactly while costing O(n log n).

nested_cv withholds one outer fold of the labeled samples, picks beta on
inner folds (ties resolve toward the larger, more regularized beta), and
scores the outer fold at the chosen beta. All betas come out of a single
shifted solve, so beta selection is a lookup: each inner fold's held-out
scores for the whole beta grid form one (n_betas, n_hold) block, which
auc_roc scores row by row with one ranking. An outer fold's inner solves
and its outer solve differ only in their labels, so they go to
sda.solve_sweep as one batch, which fsda and csr-sda solve in lock-step.
The graph is built from features only, so it is shared across folds
without leaking labels.

nested_cv rates a whole sweep of iteration budgets in one run, each
budget setting both k1 (max_iter_n) and k2 (max_iter_d). A fold's batch
rates every budget from one Krylov solve per problem, each budget's
result a snapshot of the longest solve (see sda.solve_sweep; sa-sda
keeps one solve per budget), and scores and releases each budget's
ratings before the next budget's. So a record at budget k equals that of
a run at k alone in every field but wall_ms. A record's wall_ms is its
fold batch's time up to that budget's reports, budgets taken ascending
and scoring excluded, divided by the batch's problems: the longest solve
counts whole at every budget, so wall_ms grows with the budget.

Every problem of a run shares x and the graph's Laplacian L, so for fsda
at alpha > 0 nested_cv builds K = X^T L X once per run, sweep included,
where X passes the Gram size rule (SparseMatrix.gram_fits) and the
problem it is given does not carry K already (carry_feature_laplacian),
and every problem carries it: fsda then applies each problem's operator
as one assembled D x D matrix (see sda.fsda_operator) in place of three
sparse products. K costs about 40 matrix-free applications at N = 4000,
D = 200, and about 150 at N = 200 000, D = 1000, more than one fsda
solve takes, so only a run's many solves pay for it; train and solve
never build it. A record's wall_ms excludes the run's one assembly of K.
csr-, sa- and sr-sda, fsda at alpha = 0 and X that the rule refuses keep
the matrix-free route.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.stats

from .krylov import LinearOperator, as_shift_grid, cg, shifted_cg
from .sda import FeatureLaplacian, SdaProblem, _spectral_phase, regression_operator, solve_sweep
from .sparse import LabelVector

DEFAULT_BETA_GRID = tuple(float(b) for b in 10.0 ** np.arange(-9, 4))
DEFAULT_SEEDS = (1, 2, 3, 4, 5)
DEFAULT_ITERATION_SWEEP = (2, 3, 5, 10, 20, 40, 60, 80)


def auc_roc(scores, truth) -> float | np.ndarray:
    """Area under the ROC curve for binary truth labels in {+1, -1}.

    Equivalent to the probability that a random positive outranks a random
    negative, ties counting one half. scores is one scoring of the samples
    in truth (a float comes back) or an (m, n) block of m scorings, one per
    row (an array of m AUCs comes back, each equal to the 1-d call on its
    row).
    """
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth)
    if truth.ndim != 1 or scores.ndim not in (1, 2) or scores.shape[-1] != truth.size:
        raise ValueError(
            "truth must be a 1-d array and scores a 1-d array of equal length "
            "or a 2-d block with that many columns"
        )
    if not np.isin(truth, (-1, 1)).all():
        raise ValueError("truth labels must be +1 or -1")
    pos = truth == 1
    n_pos = int(pos.sum())
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one sample of each class")
    ranks = scipy.stats.rankdata(scores, axis=-1)
    auc = (ranks[..., pos].sum(axis=-1) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return float(auc) if scores.ndim == 1 else auc


def stratified_fold_assignment(
    labels: LabelVector, n_folds: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Partition the labeled samples into stratified folds.

    Returns (labeled_indices, fold_id per labeled index). Every fold gets
    at least one sample of each class; classes smaller than n_folds are an
    error.
    """
    parts = []
    for mask in (labels.mask_class1, labels.mask_class2):
        idx = np.flatnonzero(mask)
        if idx.size < n_folds:
            raise ValueError(
                f"stratified folds need at least {n_folds} samples per class, got {idx.size}"
            )
        idx = rng.permutation(idx)
        parts.append((idx, np.arange(idx.size) % n_folds))
    labeled_idx = np.concatenate([p[0] for p in parts])
    folds = np.concatenate([p[1] for p in parts])
    order = np.argsort(labeled_idx)
    return labeled_idx[order], folds[order]


@dataclass(frozen=True)
class CvPlan:
    """Shape of the nested cross-validation run."""

    n_outer: int = 5
    n_inner: int = 5
    seeds: tuple[int, ...] = DEFAULT_SEEDS


@dataclass(frozen=True)
class CvRecord:
    """One (seed, outer fold) outcome; matches the flat CSV schema."""

    algorithm: str
    alpha: float
    beta_grid: tuple[float, ...]
    iterations: int  # the solves' budget, max(max_iter_n, max_iter_d)
    fold: int
    seed: int
    auc: float
    wall_ms: float
    chosen_beta: float


@dataclass
class ExperimentResult:
    """All records of one nested CV run plus their aggregates."""

    records: list[CvRecord]
    mean_auc: float
    std_auc: float
    mean_wall_ms: float

    @classmethod
    def of(cls, records: list[CvRecord]) -> "ExperimentResult":
        """The records with their aggregates."""
        aucs = np.asarray([r.auc for r in records])
        walls = np.asarray([r.wall_ms for r in records])
        return cls(records=records, mean_auc=float(aucs.mean()), std_auc=float(aucs.std()),
                   mean_wall_ms=float(walls.mean()))

    def at(self, budget: int) -> "ExperimentResult":
        """The records of one budget of a sweep, with their aggregates;
        ValueError for a budget the run did not rate."""
        records = [r for r in self.records if r.iterations == budget]
        if not records:
            raise ValueError(f"no records at budget {budget}")
        return ExperimentResult.of(records)


def carry_feature_laplacian(p: SdaProblem, algorithm: str) -> SdaProblem:
    """p carrying K = X^T L X where nested CV pays for it: for fsda at
    alpha > 0 on X that passes the Gram size rule, unless p carries K
    already; p itself otherwise."""
    if (algorithm == "fsda" and p.alpha > 0.0 and p.x.gram_fits
            and p.feature_laplacian is None):
        return replace(p, feature_laplacian=FeatureLaplacian.of(p.x, p.lap))
    return p


def _fold_outcome(reports, holds, eval_idx, truth, betas) -> tuple[float, float, float]:
    """One outer fold's AUC, chosen beta and wall_ms from its inner reports
    and its outer report, the last: beta maximizes the mean AUC over the
    inner folds (exact ties go to the larger beta)."""
    *inner_reps, rep = reports
    inner_aucs = np.zeros((len(holds), betas.size))
    for g, (hold, inner_rep) in enumerate(zip(holds, inner_reps)):
        grid = np.stack([inner_rep.ratings[float(beta)].scores[hold] for beta in betas])
        inner_aucs[g] = auc_roc(grid, truth[hold])
    mean_by_beta = inner_aucs.mean(axis=0)
    best = int(np.flatnonzero(mean_by_beta == mean_by_beta.max()).max())
    beta_star = float(betas[best])
    fold_auc = auc_roc(rep.ratings[beta_star].scores[eval_idx], truth[eval_idx])
    return fold_auc, beta_star, rep.wall_time_s * 1e3


def nested_cv(p: SdaProblem, algorithm: str, plan: CvPlan | None = None,
              sweep: tuple[int, ...] | None = None) -> ExperimentResult:
    """Nested stratified CV over the labeled samples of p.

    Outer folds are evaluation sets; inner folds pick beta by mean AUC
    (exact ties go to the larger beta). Records one row per (seed, outer
    fold) and budget. Solves are transductive: withheld samples keep their
    rows in X and the graph, only their labels are hidden.

    sweep lists iteration budgets, each of which sets both max_iter_n (k1)
    and max_iter_d (k2), so p's own budgets do not apply; a repeated
    budget is rated once. Without a sweep, the run rates at p's budgets.
    Records come budget by budget, ascending, each in (seed, fold) order;
    at(k) gives budget k's. Every fold rates its whole sweep from one
    batch (sda.solve_sweep), so a record at budget k equals that of a run
    at k alone, but for its wall_ms.
    """
    plan = plan or CvPlan()
    p = carry_feature_laplacian(p, algorithm)
    if sweep is None:
        budgets = [(p.max_iter_n, p.max_iter_d)]
    else:
        budgets = [(k, k) for k in sorted(set(sweep))]
    betas = p.betas.betas
    truth = p.labels.labels.astype(np.int64)
    records: list[list[CvRecord]] = [[] for _ in budgets]
    for seed in plan.seeds:
        rng = np.random.default_rng(seed)
        lab_idx, outer = stratified_fold_assignment(p.labels, plan.n_outer, rng)
        for f in range(plan.n_outer):
            eval_idx = lab_idx[outer == f]
            labels_outer = p.labels.labels.astype(np.int64).copy()
            labels_outer[eval_idx] = 0
            outer_lv = LabelVector(labels_outer)

            inner_rng = np.random.default_rng([seed, f])
            in_idx, inner = stratified_fold_assignment(outer_lv, plan.n_inner, inner_rng)
            holds, problems = [], []
            for g in range(plan.n_inner):
                hold = in_idx[inner == g]
                labels_inner = labels_outer.copy()
                labels_inner[hold] = 0
                holds.append(hold)
                problems.append(replace(p, labels=LabelVector(labels_inner)))
            problems.append(replace(p, labels=outer_lv))
            outcomes = solve_sweep(problems, algorithm, budgets, lambda reports: _fold_outcome(
                reports, holds, eval_idx, truth, betas))
            for kept, budget, (fold_auc, beta_star, wall_ms) in zip(records, budgets, outcomes):
                kept.append(CvRecord(
                    algorithm=algorithm, alpha=p.alpha,
                    beta_grid=tuple(float(b) for b in betas),
                    iterations=max(budget), fold=f, seed=seed,
                    auc=fold_auc, wall_ms=wall_ms, chosen_beta=beta_star,
                ))
    return ExperimentResult.of([r for kept in records for r in kept])


@dataclass
class SpeedupReport:
    """Timing of one shifted solve against per-shift sequential CG."""

    betas: np.ndarray
    tol: float
    t_shifted_s: float
    t_sequential_s: float
    iterations_shifted: np.ndarray
    iterations_sequential: np.ndarray
    shifted_ops: int
    sequential_ops: int
    all_converged: bool

    @property
    def speedup(self) -> float:
        return self.t_sequential_s / self.t_shifted_s

    def to_dict(self) -> dict:
        return {
            "betas": self.betas.tolist(),
            "tol": self.tol,
            "t_shifted_s": self.t_shifted_s,
            "t_sequential_s": self.t_sequential_s,
            "speedup": self.speedup,
            "iterations_shifted": self.iterations_shifted.tolist(),
            "iterations_sequential": self.iterations_sequential.tolist(),
            "shifted_ops": self.shifted_ops,
            "sequential_ops": self.sequential_ops,
            "all_converged": self.all_converged,
        }


_BENCH_REPEATS = 3


def bench_shifted(p: SdaProblem, grid=None, tol: float = 1e-3) -> SpeedupReport:
    """Time the regression-phase grid solve once amortized vs sequentially.

    The right-hand side X^T z uses a rating z from the centered spectral
    phase, so both timings see the production system. Both sides apply one
    regression operator, the sequential side plus beta w, so the ratio
    compares solvers, not operators. Sequential CG reuses nothing across
    shifts; the shifted solve shares its single basis. Each side's time is
    the best of _BENCH_REPEATS interleaved runs, so a cold first run or a
    burst of machine load does not decide the ratio.
    """
    grid = as_shift_grid(grid if grid is not None else p.betas)
    [(z, _)] = _spectral_phase([p], [p.max_iter_n], time.perf_counter())
    rhs = p.x.matvec_transpose(z[0])

    t_shifted = t_seq = float("inf")
    for _ in range(_BENCH_REPEATS):
        rop = regression_operator(p)
        t0 = time.perf_counter()
        res = shifted_cg(rop, rhs, grid, tol, p.max_iter_d)
        t_shifted = min(t_shifted, time.perf_counter() - t0)
        shifted_ops = rop.n_applies

        seq_iters = np.zeros(grid.n_shifts, dtype=np.int64)
        t_run = 0.0
        for s, beta in enumerate(grid.betas):
            op_b = LinearOperator(p.d, lambda w, systems, b=float(beta): rop(w, systems) + b * w)
            t0 = time.perf_counter()
            _, hist = cg(op_b, rhs, tol, p.max_iter_d)
            t_run += time.perf_counter() - t0
            seq_iters[s] = len(hist) - 1
        seq_ops = rop.n_applies - shifted_ops
        t_seq = min(t_seq, t_run)
    return SpeedupReport(
        betas=grid.betas.copy(),
        tol=tol,
        t_shifted_s=t_shifted,
        t_sequential_s=t_seq,
        iterations_shifted=res.iterations.copy(),
        iterations_sequential=seq_iters,
        shifted_ops=shifted_ops,
        sequential_ops=seq_ops,
        all_converged=res.all_converged,
    )


CSV_COLUMNS = ("algorithm", "alpha", "beta_grid", "iterations", "fold", "seed",
               "auc", "wall_ms", "chosen_beta")


def write_records_csv(path, records: list[CvRecord]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_COLUMNS)
        for r in records:
            w.writerow([
                r.algorithm, r.alpha, ";".join(str(b) for b in r.beta_grid),
                r.iterations, r.fold, r.seed, r.auc, r.wall_ms, r.chosen_beta,
            ])
