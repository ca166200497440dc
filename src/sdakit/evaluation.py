"""Evaluation: AUC-ROC, nested stratified cross-validation, label
subsampling, and the shifted-vs-sequential solver benchmark.

AUC is computed by the rank-sum identity with average ranks, so tied
scores count half a concordant pair; this matches the O(n^2) pairwise
definition exactly while costing O(n log n).

nested_cv withholds one outer fold of the labeled samples, picks beta on
inner folds (ties resolve toward the larger, more regularized beta), and
scores the outer fold at the chosen beta. All betas come out of a single
shifted solve, so beta selection is a lookup: each inner fold's held-out
scores for the whole beta grid form one (n_betas, n_hold) block, which
auc_roc scores row by row with one ranking. An outer fold's inner solves
and its outer solve differ only in their labels and probe seeds, so they
go to sda.solve_many as one batch, which fsda and csr-sda solve in
lock-step. A record's wall time is the outer solve's report time: for
fsda and csr-sda the fold's batch time divided by its solves, for sa- and
sr-sda, which solve a batch one problem at a time, the outer solve's own.
The graph is built from features only, so it is shared across folds
without leaking labels.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.stats

from .krylov import LinearOperator, as_shift_grid, cg, shifted_cg
from .sda import SdaProblem, _spectral_phase, regression_operator, solve_many
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


def subsample_labels(labels: LabelVector, fraction: float, seed: int) -> LabelVector:
    """Keep a random stratified fraction of the labels; the rest become 0.

    Per class the kept count is floor(fraction * N_c) but never below one,
    so both classes always stay represented.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    out = np.zeros(labels.n, dtype=np.int64)
    for mask, count in ((labels.mask_class1, labels.n_class1), (labels.mask_class2, labels.n_class2)):
        if count == 0:
            raise ValueError("subsampling requires at least one label per class")
        keep_n = max(1, int(np.floor(fraction * count)))
        idx = np.flatnonzero(mask)
        kept = rng.choice(idx, size=keep_n, replace=False)
        out[kept] = labels.labels[kept]
    return LabelVector(out)


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


def _solve_seed(*parts: int) -> int:
    return int(np.random.SeedSequence([int(p) & 0x7FFFFFFF for p in parts]).generate_state(1)[0])


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


def nested_cv(p: SdaProblem, algorithm: str, plan: CvPlan | None = None) -> ExperimentResult:
    """Nested stratified CV over the labeled samples of p.

    Outer folds are evaluation sets; inner folds pick beta by mean AUC
    (exact ties go to the larger beta). Records one row per (seed, outer
    fold). Solves are transductive: withheld samples keep their rows in X
    and the graph, only their labels are hidden.
    """
    plan = plan or CvPlan()
    betas = p.betas.betas
    truth = p.labels.labels.astype(np.int64)
    records: list[CvRecord] = []
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
                problems.append(replace(p, labels=LabelVector(labels_inner),
                                        seed=_solve_seed(p.seed, seed, f, g)))
            problems.append(replace(p, labels=outer_lv, seed=_solve_seed(p.seed, seed, f, 10_000)))
            *inner_reps, rep = solve_many(problems, algorithm)

            inner_aucs = np.zeros((plan.n_inner, betas.size))
            for g, (hold, inner_rep) in enumerate(zip(holds, inner_reps)):
                grid = np.stack([inner_rep.ratings[float(beta)].scores[hold] for beta in betas])
                inner_aucs[g] = auc_roc(grid, truth[hold])
            mean_by_beta = inner_aucs.mean(axis=0)
            best = int(np.flatnonzero(mean_by_beta == mean_by_beta.max()).max())
            beta_star = float(betas[best])
            fold_auc = auc_roc(rep.ratings[beta_star].scores[eval_idx], truth[eval_idx])
            records.append(CvRecord(
                algorithm=algorithm, alpha=p.alpha,
                beta_grid=tuple(float(b) for b in betas),
                iterations=max(p.max_iter_n, p.max_iter_d), fold=f, seed=seed,
                auc=fold_auc, wall_ms=rep.wall_time_s * 1e3, chosen_beta=beta_star,
            ))
    aucs = np.asarray([r.auc for r in records])
    walls = np.asarray([r.wall_ms for r in records])
    return ExperimentResult(
        records=records,
        mean_auc=float(aucs.mean()),
        std_auc=float(aucs.std()),
        mean_wall_ms=float(walls.mean()),
    )


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
    phase, so both timings see the production system. Sequential CG reuses
    nothing across shifts; the shifted solve shares its single basis. Each
    side's time is the best of _BENCH_REPEATS interleaved runs, so a cold
    first run or a burst of machine load does not decide the ratio.
    """
    grid = as_shift_grid(grid if grid is not None else p.betas)
    z, _ = _spectral_phase([p], time.perf_counter())
    rhs = p.x.matvec_transpose(z[0])

    t_shifted = t_seq = float("inf")
    for _ in range(_BENCH_REPEATS):
        rop = regression_operator(p)
        t0 = time.perf_counter()
        res = shifted_cg(rop, rhs, grid, tol, p.max_iter_d)
        t_shifted = min(t_shifted, time.perf_counter() - t0)
        shifted_ops = rop.n_applies

        seq_iters = np.zeros(grid.n_shifts, dtype=np.int64)
        seq_ops = 0
        t_run = 0.0
        for s, beta in enumerate(grid.betas):
            op_b = LinearOperator(p.d, lambda w, b=float(beta): p.x.matvec_transpose(p.x.matvec(w)) + b * w)
            t0 = time.perf_counter()
            _, hist = cg(op_b, rhs, tol, p.max_iter_d)
            t_run += time.perf_counter() - t0
            seq_iters[s] = len(hist) - 1
            seq_ops += op_b.n_applies
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
