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
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .blas import blas_thread_count, blas_threads
from .graph import Laplacian
from .krylov import (
    LinearOperator,
    NumericalFailureError,
    ShiftedSolveResult,
    ShiftGrid,
    as_shift_grid,
    block_cg,
    cg,
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


def apply_smoother(labels: LabelVector, lap: Laplacian, alpha: float, z: np.ndarray) -> np.ndarray:
    """[(1 - alpha)(I_l + 0) + alpha L] z."""
    z = np.asarray(z, dtype=np.float64)
    masked = np.where(labels.mask_labeled, z, 0.0)
    if alpha == 0.0:
        return masked
    smoothed = alpha * lap.matrix.matvec(z)
    if alpha == 1.0:
        return smoothed
    return (1.0 - alpha) * masked + smoothed


def spectral_operator(p: SdaProblem) -> LinearOperator:
    """The smoother as an N-dimensional operator (used uncentered by SR)."""
    return LinearOperator(p.n, lambda z: apply_smoother(p.labels, p.lap, p.alpha, z))


def centered_spectral_operator(p: SdaProblem) -> LinearOperator:
    """Smoother composed with the transposed centering of the identity
    data matrix: z -> M z - 1_l sum(M z) / l. Annihilates the all-ones
    direction, so Krylov iterates never pick it up."""
    ind = p.labels.mask_labeled.astype(np.float64)
    ell = float(p.labels.n_labeled)

    def apply(z):
        mz = apply_smoother(p.labels, p.lap, p.alpha, z)
        return mz - ind * (mz.sum() / ell)

    return LinearOperator(p.n, apply)


def fsda_operator(p: SdaProblem, c: CenteringVector) -> LinearOperator:
    """w -> (X - 1 mu^T)^T M X w, the D-dimensional rating operator.

    One-sided centering equals two-sided here: (X - 1 mu^T)^T M 1_l = 0
    because the centered transpose kills the labeled indicator.
    """

    def apply(w):
        xw = p.x.matvec(w)
        mz = apply_smoother(p.labels, p.lap, p.alpha, xw)
        return centered_matvec_transpose(p.x, c, mz)

    return LinearOperator(p.d, apply)


def regression_operator(p: SdaProblem) -> LinearOperator:
    """w -> X^T X w for the least-squares rating regression."""
    return LinearOperator(p.d, lambda w: p.x.matvec_transpose(p.x.matvec(w)))


@dataclass(frozen=True)
class RatingVector:
    """Scores for all N samples; source records whether they came from a
    feature-space projection (s = X w) or directly from the spectral
    solution (s = z)."""

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
    non-negatively with the class labels."""
    if float(p.labels.labels.astype(np.float64) @ scores) < 0.0:
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


def _spectral_phase(p: SdaProblem) -> tuple[np.ndarray, PhaseStats]:
    """csr-sda's spectral phase: CG on the centered spectral system for
    the rating z."""
    t0 = time.perf_counter()
    sop = centered_spectral_operator(p)
    z, hist = cg(sop, _spectral_rhs(p), p.tol_n, p.max_iter_n)
    return z, PhaseStats(
        dimension=p.n,
        iterations=len(hist) - 1,
        operator_applications=sop.n_applies,
        residuals=float(hist[-1]),
        converged=bool(hist[-1] < p.tol_n * hist[0]) if hist[0] > 0 else True,
        wall_time_s=time.perf_counter() - t0,
    )


def _shifted_phase(
    op: LinearOperator, rhs: np.ndarray, betas: ShiftGrid, tol: float, max_iter: int, t0: float
) -> tuple[ShiftedSolveResult, PhaseStats]:
    """One shifted CG solve over the whole grid and its stats; the phase's
    wall time runs from t0."""
    res = shifted_cg(op, rhs, betas, tol, max_iter)
    return res, PhaseStats(
        dimension=op.dim,
        iterations=res.iterations,
        operator_applications=op.n_applies,
        residuals=res.residual_norms,
        converged=res.converged,
        wall_time_s=time.perf_counter() - t0,
    )


def _regression_report(
    p: SdaProblem, algorithm: str, op: LinearOperator, rhs: np.ndarray,
    t0: float, t_phase: float, **fields,
) -> SolveReport:
    """The shared tail of fsda, csr- and sr-sda: the shifted regression
    (timed from t_phase), then each shift's direction w projected to
    scores X w and oriented together with them, so scores == X @ direction
    holds for every shift, then the report (timed from t0)."""
    res, regression = _shifted_phase(op, rhs, p.betas, p.tol, p.max_iter_d, t_phase)
    ratings, directions = {}, {}
    for s, beta in enumerate(p.betas.betas):
        w = res.solutions[:, s]
        scores = p.x.matvec(w)
        _orient(p, scores, w)
        ratings[float(beta)] = RatingVector(scores=scores, source="projection")
        directions[float(beta)] = w
    return SolveReport(
        algorithm, p.alpha, p.betas.betas, ratings, regression=regression,
        directions=directions, wall_time_s=time.perf_counter() - t0, **fields,
    )


def fsda_solve(p: SdaProblem) -> SolveReport:
    """One shifted Krylov solve of the centered rating operator in feature
    space; rating s = X w per shift."""
    t0 = time.perf_counter()
    c = labeled_mean(p.x, p.labels)
    r = np.random.default_rng(p.seed).uniform(-1.0, 1.0, size=p.d)
    rhs = centered_matvec_transpose(p.x, c, apply_w(p.labels, p.x.matvec(r)))
    return _regression_report(p, "fsda", fsda_operator(p, c), rhs, t0, t0)


def csr_sda_solve(p: SdaProblem) -> SolveReport:
    """Centered spectral solve for the rating z, then shifted regression of
    z onto features; rating s = X w per shift."""
    t0 = time.perf_counter()
    z, spectral = _spectral_phase(p)
    t1 = time.perf_counter()
    return _regression_report(
        p, "csr-sda", regression_operator(p), p.x.matvec_transpose(z), t0, t1,
        spectral=spectral, spectral_vectors=z[:, None],
    )


def sa_sda_solve(p: SdaProblem) -> SolveReport:
    """Shifted solve of the centered spectral system plus beta I_N; the
    solution itself is the rating (no feature-space pass). Requires
    alpha != 0: at alpha = 0 the system leaves every unlabeled sample
    unrated, so the restriction is part of the contract."""
    if p.alpha == 0.0:
        raise ValueError(
            "sa-sda requires alpha != 0: without the Laplacian term the "
            "spectral system never propagates ratings to unlabeled samples"
        )
    t0 = time.perf_counter()
    res, spectral = _shifted_phase(
        centered_spectral_operator(p), _spectral_rhs(p), p.betas, p.tol_n, p.max_iter_n, t0
    )
    ratings = {}
    for s, beta in enumerate(p.betas.betas):
        _orient(p, res.solutions[:, s])
        ratings[float(beta)] = RatingVector(scores=res.solutions[:, s], source="spectral")
    return SolveReport(
        "sa-sda", p.alpha, p.betas.betas, ratings, spectral=spectral,
        wall_time_s=time.perf_counter() - t0, spectral_vectors=res.solutions,
    )


def sr_sda_solve(p: SdaProblem) -> SolveReport:
    """Block solve of the uncentered spectral pencil for a 2-dimensional
    basis, 2x2 Rayleigh-Ritz extraction, then a shifted regression of the
    second (discriminative) Ritz vector, which provides the rating. The
    dominant Ritz vector is the non-discriminative direction: it is
    reported in spectral_vectors but never regressed."""
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
    return _regression_report(
        p, "sr-sda", regression_operator(p), p.x.matvec_transpose(ritz[:, 1]), t0, t1,
        spectral=spectral, spectral_eigenvalues=lam, spectral_vectors=ritz,
    )


_SOLVERS = {
    "fsda": fsda_solve,
    "csr-sda": csr_sda_solve,
    "sa-sda": sa_sda_solve,
    "sr-sda": sr_sda_solve,
    "lda": fsda_solve,
}


def solve(p: SdaProblem, algorithm: str) -> SolveReport:
    """Dispatch by algorithm name; 'lda' is fsda constrained to alpha = 0.

    The solver runs with numpy's OpenBLAS held at one thread: its only BLAS
    work is level-1 products and 2x2 blocks, where idle BLAS threads spin
    without saving wall time. The caller's count is restored afterwards.
    """
    if algorithm == "lda" and p.alpha != 0.0:
        raise ValueError(
            f"algorithm 'lda' is fsda at alpha = 0, but alpha = {p.alpha}; "
            "drop the alpha setting or use fsda"
        )
    if algorithm not in _SOLVERS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    with blas_threads(1):
        report = _SOLVERS[algorithm](p)
        report.blas_threads = blas_thread_count()
    # alpha = 0 drops the graph term, so no product with L runs.
    lap_threads = p.lap.matrix.product_threads if p.alpha else 1
    report.product_threads = max(p.x.product_threads, lap_threads)
    report.algorithm = algorithm
    return report
