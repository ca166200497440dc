"""Semi-supervised discriminant analysis solvers on implicit operators.

All four algorithms score samples by solving against the spectral pencil

    (W + 0) z = lambda [ (1 - alpha) (I_l + 0) + alpha L ] z

where W + 0 broadcasts class means over labeled rows and the denominator
blends supervision with a graph Laplacian smoother. None of them assemble
a matrix: every product is composed from sparse matvecs, the class-mean
broadcast, and the rank-one labeled-mean centering that removes the
non-discriminative all-ones direction from the Krylov space.

  * fsda_solve:   one shifted solve in feature space (D dimensions); the
                  smoother is folded into the operator.
  * csr_sda_solve: CG on the centered spectral system (N dimensions), then
                  a shifted regression of the resulting rating onto features.
  * sa_sda_solve: shifted CG directly on the centered spectral system plus
                  beta I_N; rates samples without touching feature space.
  * sr_sda_solve: one block CG solve of the uncentered smoother against W
                  applied to a seeded N x 2 probe, a 2x2 Rayleigh-Ritz step
                  for the top two pencil eigenvectors, then a shifted
                  regression of the second, discriminative one, which
                  provides the rating.

Each solver runs a single power sweep: with two classes the discriminative
part of the pencil has rank one, so one sweep already aligns with the
dominant eigenvector and no outer loop is needed.

solve_many rates a batch of problems that differ only in their labels and
probe seeds, as nested cross-validation's folds do. fsda and csr-sda run
the batch's Krylov solves in lock-step, one system per problem: each
iteration applies the operator to a block with one row per live system,
so X and L are read once for all of them, while the smoother's and W's
masks, the centering and every scalar of the recurrence stay per problem.
No Krylov basis is shared, so each problem's ratings and stats equal those
of its own solve, bit for bit. sa-sda and sr-sda, whose N x n_shifts and
N x 2 blocks are the large ones, solve the batch's problems one after
another.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .blas import blas_thread_count, blas_threads
from .graph import Laplacian
from .krylov import (
    LinearOperator,
    NumericalFailureError,
    ShiftedSolveResult,
    ShiftGrid,
    _cg_rows,
    as_shift_grid,
    block_cg,
    rayleigh_ritz_2x2,
    shifted_cg,
)
from .sparse import (
    CenteringVector,
    LabelVector,
    SparseMatrix,
    centered_matvec_transpose,
    labeled_mean,
)

ALGORITHMS = ("fsda", "csr-sda", "sa-sda", "sr-sda", "lda")


@dataclass
class SdaProblem:
    """One rating problem: data, labels, graph Laplacian, and solve knobs.

    Rows may come in any order, labeled and unlabeled mixed; ratings come
    back in the same order.

    tol / max_iter_d govern D-dimensional solves (budget k2); tol_spectral /
    max_iter_n govern N-dimensional solves (budget k1). tol_spectral
    defaults to tol.
    """

    x: SparseMatrix
    labels: LabelVector
    lap: Laplacian
    alpha: float
    betas: Union[ShiftGrid, np.ndarray, list, tuple]
    tol: float = 1e-8
    tol_spectral: Optional[float] = None
    max_iter_n: int = 1000
    max_iter_d: int = 1000
    seed: int = 0

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
        if self.tol <= 0 or (self.tol_spectral is not None and self.tol_spectral <= 0):
            raise ValueError("tolerances must be positive")
        if self.max_iter_n < 1 or self.max_iter_d < 1:
            raise ValueError("iteration budgets must be at least 1")

    @property
    def n(self) -> int:
        return self.x.n_rows

    @property
    def d(self) -> int:
        return self.x.n_cols

    @property
    def tol_n(self) -> float:
        return self.tol if self.tol_spectral is None else self.tol_spectral


def apply_w(labels: LabelVector, z: np.ndarray) -> np.ndarray:
    """(W + 0) z: broadcast each class mean of z over that class's labeled
    rows; unlabeled rows get 0."""
    z = np.asarray(z, dtype=np.float64)
    out = np.zeros_like(z)
    m1, m2 = labels.mask_class1, labels.mask_class2
    out[m1] = z[m1].sum() / labels.n_class1
    out[m2] = z[m2].sum() / labels.n_class2
    return out


def _smooth(mask: np.ndarray, lap: Laplacian, alpha: float, z: np.ndarray) -> np.ndarray:
    """[(1 - alpha)(I_l + 0) + alpha L] z for a vector z with the labeled
    mask, or for an N x k block with an N x k mask, one column per system."""
    masked = np.where(mask, z, 0.0)
    if alpha == 0.0:
        return masked
    smoothed = alpha * lap.matrix.matvec(z)
    if alpha == 1.0:
        return smoothed
    return (1.0 - alpha) * masked + smoothed


def apply_smoother(labels: LabelVector, lap: Laplacian, alpha: float, z: np.ndarray) -> np.ndarray:
    """[(1 - alpha)(I_l + 0) + alpha L] z."""
    return _smooth(labels.mask_labeled, lap, alpha, np.asarray(z, dtype=np.float64))


_SYSTEM_0 = np.zeros(1, dtype=np.intp)


def _batch_operator(dim: int, apply_rows) -> LinearOperator:
    """An operator over the systems of a batch: apply_rows(V, systems) maps
    a k x dim block, row i belonging to problem systems[i], to the
    C-contiguous block of its products. A single vector is problem 0's."""
    return LinearOperator(dim, lambda v: apply_rows(v[None, :], _SYSTEM_0)[0], apply_rows)


def _labeled_columns(problems: Sequence[SdaProblem]) -> np.ndarray:
    """The N x m labeled masks of a batch, one column per problem."""
    return np.column_stack([p.labels.mask_labeled for p in problems])


def spectral_operator(p: SdaProblem) -> LinearOperator:
    """The smoother as an N-dimensional operator (used uncentered by SR)."""
    return LinearOperator(p.n, lambda z: apply_smoother(p.labels, p.lap, p.alpha, z))


def _centered_spectral_rows(problems: Sequence[SdaProblem]) -> LinearOperator:
    """centered_spectral_operator of each problem of a batch."""
    p0 = problems[0]
    labeled = _labeled_columns(problems)
    ind = [p.labels.mask_labeled.astype(np.float64) for p in problems]
    ell = [float(p.labels.n_labeled) for p in problems]

    def apply(z, systems):
        mz = np.ascontiguousarray(_smooth(labeled[:, systems], p0.lap, p0.alpha, z.T).T)
        for row, j in zip(mz, systems.tolist()):
            row -= ind[j] * (row.sum() / ell[j])
        return mz

    return _batch_operator(p0.n, apply)


def centered_spectral_operator(p: SdaProblem) -> LinearOperator:
    """Smoother composed with the transposed centering of the identity
    data matrix: z -> M z - 1_l sum(M z) / l. Annihilates the all-ones
    direction, so Krylov iterates never pick it up."""
    return _centered_spectral_rows([p])


def _fsda_rows(problems: Sequence[SdaProblem], centerings: Sequence[CenteringVector]) -> LinearOperator:
    """fsda_operator of each problem of a batch, with its centering."""
    p0 = problems[0]
    labeled = _labeled_columns(problems)

    def apply(w, systems):
        mz = _smooth(labeled[:, systems], p0.lap, p0.alpha, p0.x.matvec(w.T))
        return np.stack([centered_matvec_transpose(p0.x, centerings[j], row)
                         for row, j in zip(np.ascontiguousarray(mz.T), systems.tolist())])

    return _batch_operator(p0.d, apply)


def fsda_operator(p: SdaProblem, c: CenteringVector) -> LinearOperator:
    """w -> (X - 1 mu^T)^T M X w, the D-dimensional rating operator.

    One-sided centering equals two-sided here: (X - 1 mu^T)^T M 1_l = 0
    because the centered transpose kills the labeled indicator.
    """
    return _fsda_rows([p], [c])


def regression_operator(p: SdaProblem) -> LinearOperator:
    """w -> X^T X w for the least-squares rating regression; the same
    operator for every problem of a batch."""

    def apply(w, systems):
        xw = np.ascontiguousarray(p.x.matvec(w.T).T)
        return np.stack([p.x.matvec_transpose(row) for row in xw])

    return _batch_operator(p.d, apply)


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
    sr-sda's Rayleigh-Ritz step fall outside every phase."""

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


def _draws_labeled_first(labels: LabelVector, r: np.ndarray) -> np.ndarray:
    """Deal random draws onto the rows: the labeled rows take the first
    n_labeled draws in row order, the unlabeled rows the rest. For a block
    of draws, each row of r is one draw per column.

    W sees only the labeled entries, so a probe dealt this way depends on
    which rows are labeled and on their relative order, not on where the
    unlabeled rows sit.
    """
    out = np.empty_like(r)
    out[labels.mask_labeled] = r[: labels.n_labeled]
    out[~labels.mask_labeled] = r[labels.n_labeled :]
    return out


def _spectral_rhs(p: SdaProblem) -> np.ndarray:
    """W applied to a seeded random probe with its labeled mean removed
    (r - 1 <1_l, r> / l): the right-hand side of csr- and sa-sda."""
    r = _draws_labeled_first(p.labels, np.random.default_rng(p.seed).uniform(-1.0, 1.0, size=p.n))
    return apply_w(p.labels, r - r[p.labels.mask_labeled].sum() / p.labels.n_labeled)


def _spectral_phase(problems: Sequence[SdaProblem], t0: float) -> tuple[np.ndarray, list[PhaseStats]]:
    """csr-sda's spectral phase for a batch: CG on each problem's centered
    spectral system, in lock-step, for the ratings z (one row per problem)
    and each problem's stats. The phase's wall time runs from t0 and is
    shared out evenly over the batch."""
    p0 = problems[0]
    rhs = np.stack([_spectral_rhs(p) for p in problems])
    # _cg_rows is what cg runs on a block. It is called directly because
    # perfbench's tracer reads cg's second return value as one history and
    # fails on a block's list of them.
    z, histories = _cg_rows(_centered_spectral_rows(problems), rhs, p0.tol_n, p0.max_iter_n)
    wall = (time.perf_counter() - t0) / len(problems)
    return z, [PhaseStats(
        dimension=p0.n,
        iterations=len(h) - 1,
        operator_applications=len(h) - 1,
        residuals=float(h[-1]),
        converged=bool(h[-1] < p0.tol_n * h[0]) if h[0] > 0 else True,
        wall_time_s=wall,
    ) for h in histories]


def _shifted_phase(
    op: LinearOperator, rhs: np.ndarray, betas: ShiftGrid, tol: float, max_iter: int, t0: float
) -> tuple[ShiftedSolveResult, list[PhaseStats]]:
    """One shifted CG solve over the whole grid for each row of rhs, in
    lock-step, and each system's stats. The phase's wall time runs from t0
    and is shared out evenly over the rows."""
    res = shifted_cg(op, rhs, betas, tol, max_iter)
    wall = (time.perf_counter() - t0) / len(rhs)
    return res, [PhaseStats(
        dimension=op.dim,
        iterations=iterations,
        operator_applications=int(iterations.max()),
        residuals=residuals,
        converged=converged,
        wall_time_s=wall,
    ) for iterations, residuals, converged in zip(res.iterations, res.residual_norms, res.converged)]


def _regression_reports(
    problems: Sequence[SdaProblem], algorithm: str, op: LinearOperator, rhs: np.ndarray,
    t0: float, t_phase: float, **fields: list,
) -> list[SolveReport]:
    """The shared tail of fsda, csr- and sr-sda for a batch: the shifted
    regression of each row of rhs (timed from t_phase), then each problem's
    directions w projected to scores X w with one block product and
    oriented together with them, so scores == X @ direction holds for every
    shift, then the reports (timed from t0). fields maps report fields to
    one value per problem. Scores stay columns of the block: a row-major
    copy would double its memory."""
    p0 = problems[0]
    res, regression = _shifted_phase(op, rhs, p0.betas, p0.tol, p0.max_iter_d, t_phase)
    reports = []
    for j, p in enumerate(problems):
        w = res.solutions[j]                               # D x n_shifts
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
    wall = (time.perf_counter() - t0) / len(reports)
    for rep in reports:
        rep.wall_time_s = wall
    return reports


def _fsda_rhs(p: SdaProblem, c: CenteringVector) -> np.ndarray:
    """The centered transpose of W X r for a seeded feature-space probe r."""
    r = np.random.default_rng(p.seed).uniform(-1.0, 1.0, size=p.d)
    return centered_matvec_transpose(p.x, c, apply_w(p.labels, p.x.matvec(r)))


def fsda_solve(problems: Sequence[SdaProblem]) -> list[SolveReport]:
    """One shifted Krylov solve of the centered rating operator in feature
    space per problem, in lock-step; rating s = X w per shift."""
    t0 = time.perf_counter()
    cs = [labeled_mean(p.x, p.labels) for p in problems]
    rhs = np.stack([_fsda_rhs(p, c) for p, c in zip(problems, cs)])
    return _regression_reports(problems, "fsda", _fsda_rows(problems, cs), rhs, t0, t0)


def csr_sda_solve(problems: Sequence[SdaProblem]) -> list[SolveReport]:
    """Centered spectral solve for the rating z, then shifted regression of
    z onto features, each phase in lock-step over the problems; rating
    s = X w per shift."""
    t0 = time.perf_counter()
    z, spectral = _spectral_phase(problems, t0)
    t1 = time.perf_counter()
    p0 = problems[0]
    return _regression_reports(
        problems, "csr-sda", regression_operator(p0),
        np.stack([p0.x.matvec_transpose(row) for row in z]), t0, t1,
        spectral=spectral, spectral_vectors=[row[:, None] for row in z],
    )


def _sa_sda(p: SdaProblem) -> SolveReport:
    if p.alpha == 0.0:
        raise ValueError(
            "sa-sda requires alpha != 0: without the Laplacian term the "
            "spectral system never propagates ratings to unlabeled samples"
        )
    t0 = time.perf_counter()
    res, spectral = _shifted_phase(
        centered_spectral_operator(p), _spectral_rhs(p)[None, :], p.betas, p.tol_n,
        p.max_iter_n, t0,
    )
    vectors = res.solutions[0]
    ratings = {}
    for s, beta in enumerate(p.betas.betas):
        _orient(p, vectors[:, s])
        ratings[float(beta)] = RatingVector(scores=vectors[:, s], source="spectral")
    return SolveReport(
        "sa-sda", p.alpha, p.betas.betas, ratings, spectral=spectral[0],
        wall_time_s=time.perf_counter() - t0, spectral_vectors=vectors,
    )


def sa_sda_solve(problems: Sequence[SdaProblem]) -> list[SolveReport]:
    """Shifted solve of the centered spectral system plus beta I_N; the
    solution itself is the rating (no feature-space pass). Problems are
    solved one after another. Requires alpha != 0: at alpha = 0 the system
    leaves every unlabeled sample unrated, so the restriction is part of
    the contract."""
    return [_sa_sda(p) for p in problems]


def _sr_sda(p: SdaProblem) -> SolveReport:
    t0 = time.perf_counter()
    sop = spectral_operator(p)
    # One power sweep: solve M Z = W R for a seeded N x 2 probe R, whose
    # draws are dealt the way the probes of csr- and sa-sda are.
    r = _draws_labeled_first(p.labels, np.random.default_rng(p.seed).uniform(-1.0, 1.0, size=(p.n, 2)))
    rhs = np.column_stack([apply_w(p.labels, col) for col in r.T])
    trace = [(0, np.zeros(2))]
    z = block_cg(sop, rhs, p.tol_n, p.max_iter_n, callback=lambda i, res: trace.append((i, res.copy())))
    if not np.all(np.isfinite(z)):
        raise NumericalFailureError("sr-sda's block solve produced a non-finite basis")
    spectral_iters, spectral_res = trace[-1]
    spectral = PhaseStats(
        dimension=p.n,
        iterations=spectral_iters,
        operator_applications=sop.n_applies,
        residuals=spectral_res,
        converged=np.all(spectral_res <= p.tol_n * np.maximum(np.linalg.norm(rhs, axis=0), 1e-300)),
        wall_time_s=time.perf_counter() - t0,
    )

    lam, q = rayleigh_ritz_2x2(z, lambda v: apply_w(p.labels, v), sop)
    ritz = z @ q  # columns: dominant (non-discriminative), second (discriminative)
    for j in range(ritz.shape[1]):
        _orient(p, ritz[:, j])

    t1 = time.perf_counter()
    return _regression_reports(
        [p], "sr-sda", regression_operator(p), p.x.matvec_transpose(ritz[:, 1])[None, :], t0, t1,
        spectral=[spectral], spectral_eigenvalues=[lam], spectral_vectors=[ritz],
    )[0]


def sr_sda_solve(problems: Sequence[SdaProblem]) -> list[SolveReport]:
    """Block solve of the uncentered spectral pencil for a 2-dimensional
    basis, 2x2 Rayleigh-Ritz extraction, then a shifted regression of the
    second (discriminative) Ritz vector, which provides the rating. The
    dominant Ritz vector is the non-discriminative direction: it is
    reported in spectral_vectors but never regressed. Problems are solved
    one after another."""
    return [_sr_sda(p) for p in problems]


_SOLVERS = {
    "fsda": fsda_solve,
    "csr-sda": csr_sda_solve,
    "sa-sda": sa_sda_solve,
    "sr-sda": sr_sda_solve,
    "lda": fsda_solve,
}


def _check_batch(problems: list[SdaProblem]) -> None:
    p = problems[0]
    shared = (p.alpha, p.tol, p.tol_n, p.max_iter_n, p.max_iter_d)
    for q in problems[1:]:
        if (q.x is not p.x or q.lap is not p.lap
                or (q.alpha, q.tol, q.tol_n, q.max_iter_n, q.max_iter_d) != shared
                or not np.array_equal(q.betas.betas, p.betas.betas)):
            raise ValueError(
                "problems solved together must share x, lap, alpha, betas, tolerances "
                "and iteration budgets; only their labels and seeds may differ"
            )


def solve_many(problems: Sequence[SdaProblem], algorithm: str) -> list[SolveReport]:
    """Rate a batch of problems that share x, lap, alpha, betas, tolerances
    and budgets, differing only in labels and seed; report j is problem j's,
    equal in ratings, directions and stats to solve(problems[j], algorithm).

    fsda and csr-sda solve the batch in lock-step (see the module
    docstring), and each report's wall_time_s, and each of its phases', is
    the batch's time divided by the number of problems. Other algorithms
    solve the problems one after another and time each.

    The solvers run with numpy's OpenBLAS held at one thread: its only BLAS
    work is level-1 products and 2x2 blocks, where idle BLAS threads spin
    without saving wall time. The caller's count is restored afterwards.
    """
    problems = list(problems)
    if not problems:
        raise ValueError("solve_many needs at least one problem")
    p = problems[0]
    if algorithm == "lda" and p.alpha != 0.0:
        raise ValueError(
            f"algorithm 'lda' is fsda at alpha = 0, but alpha = {p.alpha}; "
            "drop the alpha setting or use fsda"
        )
    if algorithm not in _SOLVERS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    _check_batch(problems)
    with blas_threads(1):
        reports = _SOLVERS[algorithm](problems)
        threads = blas_thread_count()
    # alpha = 0 drops the graph term, so no product with L runs.
    lap_threads = p.lap.matrix.product_threads if p.alpha else 1
    for report in reports:
        report.blas_threads = threads
        report.product_threads = max(p.x.product_threads, lap_threads)
        report.algorithm = algorithm
    return reports


def solve(p: SdaProblem, algorithm: str) -> SolveReport:
    """Rate one problem: solve_many([p], algorithm)[0]. 'lda' is fsda
    constrained to alpha = 0."""
    return solve_many([p], algorithm)[0]
