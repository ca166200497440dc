"""Semi-supervised discriminant analysis solvers on implicit operators.

All four algorithms score samples by solving against the spectral pencil

    (W + 0) z = lambda [ (1 - alpha) (I_l + 0) + alpha L ] z

where W + 0 broadcasts class means over labeled rows and the denominator
blends supervision with a graph Laplacian smoother. Every product is
composed from sparse matvecs, the class-mean broadcast, and the rank-one
labeled-mean centering that removes the non-discriminative all-ones
direction from the Krylov space. Two D x D operators may be assembled
where D is small next to X's stored entries: X's Gram matrix X^T X, which
the regression of csr- and sr-sda applies where X keeps it (see sparse),
and fsda's operator alpha K + (1 - alpha)(X_l^T X_l - l mu mu^T) from
K = X^T L X, which fsda applies only for problems that carry K, as nested
cross-validation's do (see fsda_operator). Projections X w and right-hand
sides X^T z stay sparse.

  * fsda:    one shifted solve in feature space (D dimensions); the
             smoother is folded into the operator.
  * csr-sda: CG on the centered spectral system (N dimensions), then a
             shifted regression of the resulting rating onto features.
  * sa-sda:  shifted CG directly on the centered spectral system plus
             beta I_N; rates samples without touching feature space.
  * sr-sda:  one block CG solve of the uncentered smoother against the
             N x 2 block [1_c1, 1_c2] of class indicators, then a shifted
             regression of the combination of its two solutions whose
             labeled rows sum to zero: the centering, applied after the
             solve, that removes the all-ones direction. That
             combination provides the rating.

Each solver runs a single solve against a right-hand side taken from the
labels alone: with two classes the between-class term W - 1_l 1_l^T / l
has rank one, spanned by the class contrast u = 1_c1 / n1 - 1_c2 / n2, so
one solve against u already gives the discriminant and no outer loop is
needed. csr- and sa-sda solve against u, fsda against X^T u = mu1 - mu2
(the centered transpose of u is X^T u, since 1^T u = 0), and
sr-sda against [1_c1, 1_c2], which W maps to itself. Nothing is drawn at
random, so ratings follow the rows exactly: permuting the rows of a
problem permutes its ratings and changes them only by rounding.

solve and solve_sweep are the entry points. solve_sweep rates a batch of
problems that differ only in their labels, as nested cross-validation's
folds do, and rejects any other batch. fsda and csr-sda run the batch's
Krylov solves in lock-step, one system per problem: each iteration
applies the operator to a block with one row per live system, so X and L
are read once for all of them, while the smoother's and W's masks, the
centering and every scalar of the recurrence stay per problem. No Krylov
basis is shared, so each problem's ratings and stats equal those of its
own solve, bit for bit.
sa-sda and sr-sda, whose N x n_shifts and N x 2 blocks are the large
ones, solve the batch's problems one after another; sr-sda's shifted
regressions, D-dimensional, run in lock-step.

solve_sweep rates the batch at each of a strictly ascending list of
budget pairs, as the cv command's sweep does. No Krylov loop reads its
budget before it stops, so the result at a budget is a snapshot of a
longer solve (see krylov): fsda and csr-sda run their lock-step solve
once, up to the largest budget, and sr-sda its block solve once per
problem; csr- and sr-sda then run one regression per budget. sa-sda keeps
one solve per budget, since its snapshots would be N x n_shifts each.
solve is the sweep of one problem at its own budgets.

One tolerance, SdaProblem.tol, governs both phases: every solve stops at
a residual below tol times its initial residual. The iteration budgets
stay the paper's two: max_iter_n (k1) for the N-dimensional solves and
max_iter_d (k2) for the D-dimensional ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from scipy.linalg import eigh

from .blas import blas_thread_count, blas_threads
from .graph import Laplacian
from .krylov import (
    DegenerateSubspaceError,
    LinearOperator,
    NumericalFailureError,
    ShiftGrid,
    _cg_rows,
    as_shift_grid,
    block_cg,
    shifted_cg,
)
from .sparse import (
    LabelVector,
    SparseMatrix,
    centered_labeled_gram,
    centered_matvec_transpose,
    labeled_mean,
)

ALGORITHMS = ("fsda", "csr-sda", "sa-sda", "sr-sda")

# (k1, k2) pairs: the budget of the N-dimensional solves, then that of the
# D-dimensional ones. Those of a sweep rise strictly in both.
Budgets = Sequence[tuple[int, int]]


def check_algorithm(algorithm: str, alpha: float) -> None:
    """Raise ValueError unless algorithm is one of ALGORITHMS and can rate
    at alpha: sa-sda needs the Laplacian term, sr-sda the labeled one."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    if algorithm == "sa-sda" and alpha == 0.0:
        raise ValueError("sa-sda requires alpha != 0: without the Laplacian term the "
                         "spectral system never propagates ratings to unlabeled samples")
    if algorithm == "sr-sda" and alpha == 1.0:
        raise ValueError("sr-sda requires alpha < 1: without the labeled term its smoother "
                         "is the singular Laplacian, whose range misses [1_c1, 1_c2]")


@dataclass(frozen=True, eq=False)
class FeatureLaplacian:
    """K = X^T L X, the graph Laplacian carried into feature space: a
    read-only dense D x D array, with the x and lap it was built from.
    Problems that carry it apply fsda's operator as one assembled D x D
    matrix (see fsda_operator). For binary X and an integer Laplacian
    every entry is an integer sum, so K is exact and exactly symmetric."""

    x: SparseMatrix
    lap: Laplacian
    matrix: np.ndarray

    @classmethod
    def of(cls, x: SparseMatrix, lap: Laplacian) -> "FeatureLaplacian":
        return cls(x, lap, x.gram_through(lap.matrix))


@dataclass
class SdaProblem:
    """One rating problem: data, labels, graph Laplacian, and solve knobs.

    Rows may come in any order, labeled and unlabeled mixed; ratings come
    back in the same order.

    Ratings depend on the data, labels, graph and knobs alone: every
    right-hand side comes from the labels (see the module docstring), so
    a problem whose rows are permuted gets its ratings permuted, up to
    rounding.

    tol governs the solves of both phases; max_iter_n is the budget k1 of
    the N-dimensional solves and max_iter_d the budget k2 of the
    D-dimensional ones.

    feature_laplacian, K = X^T L X of this very x and lap, is read only by
    fsda, which then applies its operator assembled (see fsda_operator).
    Nothing builds it but a caller that reuses it across many problems,
    as nested cross-validation does.
    """

    x: SparseMatrix
    labels: LabelVector
    lap: Laplacian
    alpha: float
    betas: Union[ShiftGrid, np.ndarray, list, tuple]
    tol: float = 1e-8
    max_iter_n: int = 1000
    max_iter_d: int = 1000
    feature_laplacian: Optional[FeatureLaplacian] = None

    def __post_init__(self):
        self.betas = as_shift_grid(self.betas)
        if self.labels.n != self.x.n_rows:
            raise ValueError(
                f"labels cover {self.labels.n} samples but x has {self.x.n_rows} rows"
            )
        lm = self.lap.matrix
        if lm.n_rows != lm.n_cols or lm.n_rows != self.x.n_rows:
            raise ValueError("laplacian must be square with one row per sample")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.labels.n_class1 == 0 or self.labels.n_class2 == 0:
            raise ValueError("both classes need at least one labeled sample")
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.max_iter_n < 1 or self.max_iter_d < 1:
            raise ValueError("iteration budgets must be at least 1")
        k = self.feature_laplacian
        if k is not None and (k.x is not self.x or k.lap is not self.lap
                              or k.matrix.shape != (self.d, self.d)):
            raise ValueError(
                "feature_laplacian must be the D x D matrix X^T L X built from "
                "this problem's own x and lap"
            )

    @property
    def n(self) -> int:
        return self.x.n_rows

    @property
    def d(self) -> int:
        return self.x.n_cols


def apply_w(labels: LabelVector, z: np.ndarray) -> np.ndarray:
    """(W + 0) z: broadcast each class mean of z over that class's labeled
    rows; unlabeled rows get 0."""
    z = np.asarray(z, dtype=np.float64)
    out = np.zeros_like(z)
    m1, m2 = labels.mask_class1, labels.mask_class2
    out[m1] = z[m1].sum() / labels.n_class1
    out[m2] = z[m2].sum() / labels.n_class2
    return out


def _smooth(rows: Sequence[np.ndarray], lap: Laplacian, alpha: float,
            z: np.ndarray) -> np.ndarray:
    """[(1 - alpha)(I_l + 0) + alpha L] Z for an N x k block Z, one column
    per system, with rows[c] the labeled row indices of column c's system.
    The identity term is added on those rows alone: elsewhere it would add
    an exact 0."""
    if alpha == 0.0:
        out = np.zeros_like(z)
        for c, r in enumerate(rows):
            out[r, c] = z[r, c]
        return out
    out = lap.matrix.matvec(z)
    out *= alpha
    if alpha != 1.0:
        for c, r in enumerate(rows):
            out[r, c] = (1.0 - alpha) * z[r, c] + out[r, c]
    return out


def _labeled_rows(problems: Sequence[SdaProblem], systems: np.ndarray) -> list[np.ndarray]:
    """The labeled row indices of each system's problem."""
    return [problems[j].labels.labeled_rows for j in systems.tolist()]


def _smoother_rows(problems: Sequence[SdaProblem]):
    """Each problem's smoother on a block of rows, row i problem systems[i]'s."""
    p0 = problems[0]
    return lambda z, systems: np.ascontiguousarray(
        _smooth(_labeled_rows(problems, systems), p0.lap, p0.alpha, z.T).T)


def spectral_operator(problems: Sequence[SdaProblem]) -> LinearOperator:
    """Each problem's smoother as an N-dimensional operator (used
    uncentered by SR)."""
    return LinearOperator(problems[0].n, _smoother_rows(problems))


def centered_spectral_operator(problems: Sequence[SdaProblem]) -> LinearOperator:
    """Each problem's smoother composed with the transposed centering of
    the identity data matrix: z -> M z - 1_l sum(M z) / l. Annihilates the
    all-ones direction, so Krylov iterates never pick it up."""
    smooth = _smoother_rows(problems)
    ell = [float(p.labels.n_labeled) for p in problems]

    def apply(z, systems):
        mz = smooth(z, systems)
        for row, j in zip(mz, systems.tolist()):
            row[problems[j].labels.labeled_rows] -= row.sum() / ell[j]
        return mz

    return LinearOperator(problems[0].n, apply)


def _fsda_matrix(p: SdaProblem, mu: np.ndarray) -> np.ndarray:
    """Problem p's operator (X - 1 mu^T)^T M X as one new D x D array:
    alpha K + (1 - alpha)(X_l^T X_l - l mu mu^T)."""
    a = centered_labeled_gram(p.x, p.labels, mu)
    a *= 1.0 - p.alpha
    a += p.alpha * p.feature_laplacian.matrix
    return a


def fsda_operator(problems: Sequence[SdaProblem], mus: Sequence[np.ndarray]) -> LinearOperator:
    """w -> (X - 1 mu^T)^T M X w, the D-dimensional rating operator of each
    problem, with mus[j] problem j's labeled mean.

    One-sided centering equals two-sided here: (X - 1 mu^T)^T M 1_l = 0
    because the centered transpose kills the labeled indicator.

    Problems that carry K = X^T L X (feature_laplacian) apply it assembled:
    since 1^T L = 0 and 1_l^T X w = l mu^T w, the operator is
    alpha K + (1 - alpha)(X_l^T X_l - l mu mu^T), one D x D array per
    problem, and each row is one product with its problem's array. Other
    problems apply it matrix-free: each block is X V, then the smoother,
    then the centered X^T row by row. The route follows the problems' own
    inputs, so a problem's iterates are the same alone and in a batch; the
    two routes agree within rounding, not bit for bit.
    """
    p0 = problems[0]
    if p0.feature_laplacian is not None:
        mats = [_fsda_matrix(p, mu) for p, mu in zip(problems, mus)]
        return LinearOperator(p0.d, lambda w, systems: np.stack(
            [mats[j] @ row for row, j in zip(w, systems.tolist())]))

    def apply(w, systems):
        mz = _smooth(_labeled_rows(problems, systems), p0.lap, p0.alpha, p0.x.matvec(w.T))
        return np.stack([centered_matvec_transpose(p0.x, mus[j], row)
                         for row, j in zip(np.ascontiguousarray(mz.T), systems.tolist())])

    return LinearOperator(p0.d, apply)


def regression_operator(p: SdaProblem) -> LinearOperator:
    """w -> X^T X w for the least-squares rating regression; the same
    operator for every problem of a batch. Where X keeps its Gram matrix G
    (see sparse), each row is one product with G, so a single solve and a
    lock-step batch make the same BLAS call per system; otherwise each
    block is X V, then X^T w row by row."""
    x, g = p.x, p.x.gram

    def apply(w, systems):
        if g is not None:
            return np.stack([g @ row for row in w])
        xw = np.ascontiguousarray(x.matvec(w.T).T)
        return np.stack([x.matvec_transpose(row) for row in xw])

    return LinearOperator(p.d, apply)


@dataclass(frozen=True)
class RatingVector:
    """Scores for all N samples; source records whether they came from a
    feature-space projection (s = X w) or directly from the spectral
    solution (s = z). Projected scores are a column of one N x n_shifts
    block, the product of X with all of a solve's directions."""

    scores: np.ndarray
    source: str  # "projection" | "spectral"


@dataclass
class PhaseStats:
    """Instrumentation for one solve phase. wall_time_s spans the phase's
    right-hand side and Krylov solve; the projection to ratings and
    sr-sda's Ritz values and choice of rating vector fall outside every
    phase."""

    dimension: int
    iterations: np.ndarray | int
    operator_applications: int
    residuals: np.ndarray | float
    converged: np.ndarray | bool
    wall_time_s: float

    @property
    def ok(self) -> bool:
        return bool(np.all(self.converged))

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "iterations": np.asarray(self.iterations).tolist(),
            "operator_applications": self.operator_applications,
            "residuals": np.asarray(self.residuals).tolist(),
            "converged": np.asarray(self.converged).tolist(),
            "wall_time_s": self.wall_time_s,
        }


@dataclass
class SolveReport:
    """Structured outcome of one solver run.

    ratings maps each beta to a RatingVector. FSDA's single D-dimensional
    solve is reported under regression; SA-SDA rates straight from its
    N-dimensional solve and has no regression phase. SA-SDA's
    spectral_vectors holds its oriented solutions: column s is the rating
    at betas[s], and each RatingVector's scores is a view of that column.
    """

    algorithm: str
    alpha: float
    betas: np.ndarray
    ratings: dict[float, RatingVector]
    spectral: Optional[PhaseStats] = None
    regression: Optional[PhaseStats] = None
    wall_time_s: float = 0.0
    spectral_eigenvalues: Optional[np.ndarray] = None
    spectral_vectors: Optional[np.ndarray] = None  # N x k, when a z was computed
    directions: Optional[dict[float, np.ndarray]] = None  # beta -> D vector w
    blas_threads: Optional[int] = None  # OpenBLAS threads during the solve; None if unknown
    product_threads: int = 1  # most row ranges that a product with X, X^T or L splits into

    @property
    def converged(self) -> bool:
        phases = [s for s in (self.spectral, self.regression) if s is not None]
        return all(s.ok for s in phases)

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "alpha": self.alpha,
            "betas": np.asarray(self.betas).tolist(),
            "converged": self.converged,
            "wall_time_s": self.wall_time_s,
            "blas_threads": self.blas_threads,
            "product_threads": self.product_threads,
            "spectral": None if self.spectral is None else self.spectral.to_dict(),
            "regression": None if self.regression is None else self.regression.to_dict(),
            "spectral_eigenvalues": None
            if self.spectral_eigenvalues is None
            else np.asarray(self.spectral_eigenvalues).tolist(),
        }


def _orient(p: SdaProblem, scores: np.ndarray, *paired: np.ndarray) -> None:
    """Ratings come from eigenvector-like directions whose sign is
    arbitrary. Flip scores in place, and every paired array with it (the
    direction w with scores = X w), so the labeled scores correlate
    non-negatively with the class labels. The correlation is taken on a
    contiguous copy, so a column of a block gets the same dot product as a
    vector of its own."""
    if float(p.labels.labels.astype(np.float64) @ np.ascontiguousarray(scores)) < 0.0:
        for a in (scores, *paired):
            np.negative(a, out=a)


def _class_contrast(labels: LabelVector) -> np.ndarray:
    """u = 1_c1 / n1 - 1_c2 / n2, which spans the range of the rank-one
    between-class term W - 1_l 1_l^T / l: the right-hand side of csr- and
    sa-sda. Its labeled rows sum to zero."""
    return labels.mask_class1 / labels.n_class1 - labels.mask_class2 / labels.n_class2


def _spectral_phase(
    problems: Sequence[SdaProblem], ks: Sequence[int], t0: float
) -> list[tuple[np.ndarray, list[PhaseStats]]]:
    """csr-sda's spectral phase for a batch: CG on each problem's centered
    spectral system, in lock-step, up to the last of the ascending budgets
    ks. At each budget, the ratings z there (one row per problem) and each
    problem's stats. The phase's wall time runs from t0 and is shared out
    evenly over the batch; every budget reports the one solve's."""
    p0 = problems[0]
    rhs = np.stack([_class_contrast(p.labels) for p in problems])
    # _cg_rows is what cg runs on a block. It is called directly because
    # perfbench's tracer reads cg's second return value as one history and
    # fails on a block's list of them.
    z, histories = _cg_rows(centered_spectral_operator(problems), rhs, p0.tol, ks)
    wall = (time.perf_counter() - t0) / len(problems)
    return [(z[t], [PhaseStats(
        dimension=p0.n,
        iterations=len(h) - 1,
        operator_applications=len(h) - 1,
        residuals=float(h[-1]),
        converged=bool(h[-1] < p0.tol * h[0]) if h[0] > 0 else True,
        wall_time_s=wall,
    ) for h in histories[t]]) for t in range(len(ks))]


def _shifted_phase(
    op: LinearOperator, rhs: np.ndarray, betas: ShiftGrid, tol: float, ks: Sequence[int],
    t0: float,
) -> list[tuple[np.ndarray, list[PhaseStats]]]:
    """One shifted CG solve over the whole grid for each row of rhs, in
    lock-step, up to the last of the ascending budgets ks. At each budget,
    the m x D x n_shifts solutions there and each system's stats. The
    phase's wall time runs from t0 and is shared out evenly over the rows."""
    res = shifted_cg(op, rhs, betas, tol, ks)
    wall = (time.perf_counter() - t0) / len(rhs)
    return [(res.solutions[t], [PhaseStats(
        dimension=op.dim,
        iterations=iterations,
        operator_applications=int(iterations.max()),
        residuals=residuals,
        converged=converged,
        wall_time_s=wall,
    ) for iterations, residuals, converged in zip(
        res.iterations[t], res.residual_norms[t], res.converged[t])]) for t in range(len(ks))]


def _reports(
    problems: Sequence[SdaProblem], algorithm: str, solutions: np.ndarray,
    regression: list[PhaseStats], **fields: list,
) -> list[SolveReport]:
    """The reports of fsda, csr- and sr-sda for a batch: each problem's
    directions w (solutions[j], D x n_shifts) projected to scores X w with
    one block product and oriented together with them, so scores == X @
    direction holds for every shift. fields maps report fields to one value
    per problem. Scores stay columns of the block: a row-major copy would
    double its memory."""
    reports = []
    for j, p in enumerate(problems):
        w = solutions[j]
        scores = p.x.matvec(w)                             # N x n_shifts
        ratings, directions = {}, {}
        for s, beta in enumerate(p.betas.betas):
            _orient(p, scores[:, s], w[:, s])
            ratings[float(beta)] = RatingVector(scores=scores[:, s], source="projection")
            directions[float(beta)] = w[:, s]
        reports.append(SolveReport(
            algorithm, p.alpha, p.betas.betas, ratings, regression=regression[j],
            directions=directions, **{name: values[j] for name, values in fields.items()},
        ))
    return reports


def _regressions(problems: Sequence[SdaProblem], algorithm: str, budgets: Budgets,
                 spectral: list, emit) -> None:
    """The tail of csr- and sr-sda for a batch. spectral holds, for each
    (k1, k2) of budgets, the spectral phase's outcome at k1: the rating
    vectors, one N-vector per problem, and report fields, one value per
    problem. For each, the shifted regression of every vector onto
    features, in lock-step with budget k2, then the reports go to emit."""
    p0 = problems[0]
    op = regression_operator(p0)
    for (_, k2), (vectors, fields) in zip(budgets, spectral):
        t1 = time.perf_counter()
        rhs = np.stack([p0.x.matvec_transpose(v) for v in vectors])
        [(solutions, regression)] = _shifted_phase(op, rhs, p0.betas, p0.tol, [k2], t1)
        emit(_reports(problems, algorithm, solutions, regression,
                      spectral_vectors=[v[:, None] for v in vectors], **fields))


def _check_batch(problems: Sequence[SdaProblem]) -> None:
    p = problems[0]
    shared = (p.alpha, p.tol, p.max_iter_n, p.max_iter_d)
    for q in problems[1:]:
        if (q.x is not p.x or q.lap is not p.lap or q.feature_laplacian is not p.feature_laplacian
                or (q.alpha, q.tol, q.max_iter_n, q.max_iter_d) != shared
                or not np.array_equal(q.betas.betas, p.betas.betas)):
            raise ValueError(
                "problems solved together must share x, lap, feature_laplacian, alpha, "
                "betas, tol and iteration budgets; only their labels may differ"
            )


# Each algorithm's batch solver, fsda_solve(problems, budgets, emit) and
# alike, checks the batch, then calls emit once per (k1, k2) of the
# ascending budgets, in order, with the batch's reports there (solve_sweep).


def fsda_solve(problems: Sequence[SdaProblem], budgets: Budgets, emit) -> None:
    """One shifted Krylov solve of the centered rating operator in feature
    space per problem, in lock-step, against X^T u for the class contrast
    u, up to the largest k2; rating s = X w per shift at each k2."""
    _check_batch(problems)
    t0 = time.perf_counter()
    p0 = problems[0]
    mus = [labeled_mean(p.x, p.labels) for p in problems]
    rhs = np.stack([p.x.matvec_transpose(_class_contrast(p.labels)) for p in problems])
    for solutions, regression in _shifted_phase(
            fsda_operator(problems, mus), rhs, p0.betas, p0.tol, [k2 for _, k2 in budgets], t0):
        emit(_reports(problems, "fsda", solutions, regression))


def csr_sda_solve(problems: Sequence[SdaProblem], budgets: Budgets, emit) -> None:
    """Centered spectral solve for the rating z, in lock-step up to the
    largest k1, then at each budget the shifted regression of z onto
    features; rating s = X w per shift."""
    _check_batch(problems)
    spectral = _spectral_phase(problems, [k1 for k1, _ in budgets], time.perf_counter())
    _regressions(problems, "csr-sda", budgets,
                 [(z, {"spectral": stats}) for z, stats in spectral], emit)


def _sa_sda(p: SdaProblem, k1: int) -> SolveReport:
    """Shifted solve of the centered spectral system plus beta I_N with
    budget k1; the solution itself is the rating (no feature-space pass).
    Requires alpha != 0 (see check_algorithm): at alpha = 0 the system
    leaves every unlabeled sample unrated. Likewise, a sample in a graph
    component with no labeled sample is rated exactly 0 at any budget: the
    right-hand side is 0 on that component, and the operator never carries
    values between components."""
    [(solutions, spectral)] = _shifted_phase(
        centered_spectral_operator([p]), _class_contrast(p.labels)[None, :], p.betas, p.tol,
        [k1], time.perf_counter(),
    )
    vectors = solutions[0]
    ratings = {}
    for s, beta in enumerate(p.betas.betas):
        _orient(p, vectors[:, s])
        ratings[float(beta)] = RatingVector(scores=vectors[:, s], source="spectral")
    return SolveReport("sa-sda", p.alpha, p.betas.betas, ratings, spectral=spectral[0],
                       spectral_vectors=vectors)


def _sa_sda_batch(problems: Sequence[SdaProblem], k1: int) -> list[SolveReport]:
    """sa-sda's reports for a batch at budget k1, one problem after
    another; each spectral phase's wall time is the batch's, shared out
    evenly."""
    t0 = time.perf_counter()
    reports = [_sa_sda(p, k1) for p in problems]
    wall = (time.perf_counter() - t0) / len(reports)
    for rep in reports:
        rep.spectral.wall_time_s = wall
    return reports


def sa_sda_solve(problems: Sequence[SdaProblem], budgets: Budgets, emit) -> None:
    """sa-sda at each k1, one problem after another: one solve per problem
    and budget, because its snapshots would be N x n_shifts each."""
    _check_batch(problems)
    for k1, _ in budgets:
        emit(_sa_sda_batch(problems, k1))


def _sr_spectral(p: SdaProblem, ks: Sequence[int]) -> tuple[list, list[PhaseStats], float]:
    """Problem p's spectral phase in sr-sda: one block solve M Z = [1_c1,
    1_c2], the class indicators, which W maps to themselves and which span
    W's range, up to the last of the ascending budgets ks. At each budget:
    the rating vector v and Ritz values from Z there (_sr_rating), and the
    phase's stats, whose wall times the caller sets. Also returns the
    block solve's time."""
    t0 = time.perf_counter()
    sop = spectral_operator([p])
    rhs = np.column_stack([p.labels.mask_class1, p.labels.mask_class2]).astype(np.float64)
    # After each iteration i, trace[i] holds its residual norms and the
    # applications so far.
    trace = [(np.zeros(2), 0)]
    # One budget goes in as an int: perfbench's tracer reads block_cg's
    # column count as its result's shape[1], which a budget axis would shift.
    one = len(ks) == 1
    zs = block_cg(sop, rhs, p.tol, ks[0] if one else ks,
                  callback=lambda i, res: trace.append((res, sop.n_applies)))
    solve_s = time.perf_counter() - t0
    thresh = p.tol * np.maximum(np.linalg.norm(rhs, axis=0), 1e-300)
    stats = []
    for k in ks:
        iterations = min(k, len(trace) - 1)
        res, applies = trace[iterations]
        stats.append(PhaseStats(dimension=p.n, iterations=iterations,
                                operator_applications=applies, residuals=res,
                                converged=np.all(res < thresh), wall_time_s=0.0))
    return [_sr_rating(p, sop, z) for z in ([zs] if one else zs)], stats, solve_s


def _sr_rating(p: SdaProblem, sop: LinearOperator, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sr-sda's rating vector v from the N x 2 basis Z, oriented, and the
    two Ritz values, descending (see sr_sda_solve)."""
    if not np.all(np.isfinite(z)):
        raise NumericalFailureError("sr-sda's block solve produced a non-finite basis")
    a = z.T @ np.column_stack([apply_w(p.labels, col) for col in z.T])
    m = z.T @ np.column_stack([sop(col) for col in z.T])
    a, m = (a + a.T) / 2.0, (m + m.T) / 2.0
    ev = np.linalg.eigvalsh(m)
    if not ev[0] > 1e-12 * ev[-1]:
        raise DegenerateSubspaceError("Z^T M Z is numerically singular; sr-sda's basis is degenerate")
    lam = eigh(a, m, eigvals_only=True)[::-1]
    s = z[p.labels.mask_labeled].sum(axis=0)
    v = z @ (np.array([s[1], -s[0]]) / np.hypot(s[0], s[1]))
    _orient(p, v)
    return v, lam


def sr_sda_solve(problems: Sequence[SdaProblem], budgets: Budgets, emit) -> None:
    """Block solve of the uncentered spectral pencil (W, M) for a
    2-dimensional basis Z, one problem after another, each up to the
    largest k1; then at each budget a shifted regression of the combination
    v = Z q whose labeled rows sum to zero, which provides the rating.
    Requires alpha < 1 (see check_algorithm): at alpha = 1, M = L is
    singular on every graph component, and M Z = [1_c1, 1_c2] has no solution.

    Since 1^T M v = (1 - alpha) 1_l^T v, that v is M-orthogonal to the
    pencil's all-ones eigenvector, the direction with no class
    information. When the two Ritz values differ, v is the second Ritz
    vector of a converged solve; when they tie, as on a graph that puts
    each class in its own component, v is still well defined. q has unit
    norm. spectral_eigenvalues holds the two Ritz values, descending, and
    spectral_vectors the oriented v as an N x 1 block. Raises
    DegenerateSubspaceError when Z^T M Z is not numerically positive
    definite: its condition number above 1e12, which a basis whose two
    columns are parallel to rounding reaches. The spectral phase's wall
    time is the batch's block solves', shared out evenly."""
    _check_batch(problems)
    ks = [k1 for k1, _ in budgets]
    ratings, phases, solve_s = zip(*(_sr_spectral(p, ks) for p in problems))
    wall = sum(solve_s) / len(problems)
    spectral = []
    for rated, stats in zip(zip(*ratings), zip(*phases)):
        for phase in stats:
            phase.wall_time_s = wall
        vectors, eigenvalues = zip(*rated)
        spectral.append((vectors, {"spectral": list(stats),
                                   "spectral_eigenvalues": list(eigenvalues)}))
    _regressions(problems, "sr-sda", budgets, spectral, emit)


_SOLVERS = {"fsda": fsda_solve, "csr-sda": csr_sda_solve, "sa-sda": sa_sda_solve,
            "sr-sda": sr_sda_solve}


def solve_sweep(problems: Sequence[SdaProblem], algorithm: str, budgets: Budgets, use) -> list:
    """Rate a batch of problems that share x, lap, alpha, betas, tol and
    budgets, differing only in labels, at each (k1, k2) of budgets, k1 the
    budget of the N-dimensional solves and k2 that of the D-dimensional
    ones: returns [use(reports) for each (k1, k2)], in order, where
    reports[j] equals solve(problems[j], algorithm) with max_iter_n = k1
    and max_iter_d = k2 in ratings, directions and stats, bit for bit. The
    problems' own budgets are not read. A batch whose problems differ in
    anything else raises ValueError, as does an algorithm that cannot rate
    at their alpha (check_algorithm), a budget below 1, or pairs that do
    not rise strictly in both k1 and k2, a repeated pair included.

    Every budget is a snapshot of one longer solve (see krylov): fsda and
    csr-sda run the batch's Krylov solves once, in lock-step (see the
    module docstring), sr-sda one block solve per problem; csr- and sr-sda
    then run one regression per budget, in lock-step over the batch.
    sa-sda solves each problem once per budget, because its snapshots would
    be N x n_shifts each. Each budget's reports are projected, passed to
    use and released before the next budget's, so the snapshots are all
    that a sweep holds beyond one budget: D x n_shifts directions per
    problem and budget, and for csr- and sr-sda an N-vector per problem
    and budget.

    A report's wall_time_s is the batch's time up to its reports, use's
    calls excluded, divided by the number of problems; a phase's is the
    batch's time in that phase divided by the number of problems, and a
    solve that serves many budgets counts whole at each.

    The solvers run with numpy's OpenBLAS held at one thread: their BLAS
    work is level-1 products, 2x2 blocks and the products with assembled
    D x D operators, one matrix-vector product per system, where idle
    BLAS threads spin without saving wall time. use runs there too. The
    caller's count is restored afterwards.
    """
    problems = list(problems)
    if not problems:
        raise ValueError("a batch needs at least one problem")
    p = problems[0]
    check_algorithm(algorithm, p.alpha)
    budgets = [(int(k1), int(k2)) for k1, k2 in budgets]
    rising = all(b1 > a1 and b2 > a2 for (a1, a2), (b1, b2) in zip(budgets, budgets[1:]))
    if not budgets or min(budgets[0]) < 1 or not rising:
        raise ValueError("a sweep needs at least one budget pair, budgets of at least 1, and "
                         f"pairs that rise strictly in both k1 and k2; got {budgets}")
    # alpha = 0 drops the graph term, so no product with L runs.
    product_threads = max(p.x.product_threads, p.lap.matrix.product_threads if p.alpha else 1)
    results = []
    spent, since = 0.0, time.perf_counter()

    def emit(reports: list[SolveReport]) -> None:
        nonlocal spent, since
        spent += time.perf_counter() - since
        for report in reports:
            report.wall_time_s = spent / len(reports)
            report.blas_threads = threads
            report.product_threads = product_threads
        results.append(use(reports))
        since = time.perf_counter()

    with blas_threads(1):
        threads = blas_thread_count()
        _SOLVERS[algorithm](problems, budgets, emit)
    return results


def solve(p: SdaProblem, algorithm: str) -> SolveReport:
    """Rate one problem at its budgets: the sweep of p alone over the one
    pair (max_iter_n, max_iter_d)."""
    [[report]] = solve_sweep([p], algorithm, [(p.max_iter_n, p.max_iter_d)], list)
    return report
