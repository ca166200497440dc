"""Krylov solvers: CG, shifted CG over a grid of diagonal shifts, block CG,
one-shot subspace iteration, and a closed-form 2x2 Rayleigh-Ritz step.

All solvers see the system matrix only through a LinearOperator, a callable
wrapper that also counts applications. Shift invariance of Krylov spaces is
what makes the shifted solver cheap: for B + beta I the same basis vectors
work for every beta, so the whole grid costs exactly one operator
application per iteration. Per-shift residuals are tracked through the
scalar zeta recurrence. The shifted solver holds its solutions and search
directions as n_shifts x dim blocks, one contiguous row per shift, and
updates each block in place as a whole; one boolean mask marks the shifts
still in flight. A shift whose scaled residual passes tolerance freezes:
its step coefficients become zero and its search-direction row is zeroed,
so its solution row stops changing while the base iteration runs on.

Convergence tests are relative to ||b|| by default; pass absolute_tol=True
for an absolute threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class KrylovError(RuntimeError):
    """Base class for solver failures."""


class SolverBreakdownError(KrylovError):
    """<p, B p> vanished: the operator is singular along a search direction."""


class NumericalFailureError(KrylovError):
    """A non-finite quantity appeared during iteration."""


class ConvergenceError(KrylovError):
    """An inner solve failed to reach its tolerance."""


class DegenerateSubspaceError(KrylovError):
    """The trial subspace is rank deficient (Z^T B Z is singular)."""


class LinearOperator:
    """Symmetric linear operator given by its matvec; counts applications."""

    def __init__(self, dim: int, apply_fn):
        if dim <= 0:
            raise ValueError("operator dimension must be positive")
        self.dim = int(dim)
        self._apply = apply_fn
        self.n_applies = 0

    def __call__(self, v: np.ndarray) -> np.ndarray:
        self.n_applies += 1
        return self._apply(v)

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "LinearOperator":
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("from_dense expects a square matrix")
        return cls(a.shape[0], lambda v: a @ v)


@dataclass(frozen=True)
class ShiftGrid:
    """Strictly ascending grid of non-negative diagonal shifts."""

    betas: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.betas, dtype=np.float64)
        if b.ndim != 1 or b.size == 0:
            raise ValueError("shift grid must be a non-empty 1-d array")
        if not np.all(np.isfinite(b)):
            raise ValueError("shifts must be finite")
        if b[0] < 0:
            raise ValueError("shifts must be non-negative")
        if np.any(np.diff(b) <= 0):
            raise ValueError("shifts must be strictly ascending")
        b.setflags(write=False)
        object.__setattr__(self, "betas", b)

    @property
    def n_shifts(self) -> int:
        return int(self.betas.size)


def as_shift_grid(betas) -> ShiftGrid:
    if isinstance(betas, ShiftGrid):
        return betas
    return ShiftGrid(np.sort(np.asarray(betas, dtype=np.float64)))


@dataclass
class ShiftedSolveResult:
    """Per-shift solutions of (B + beta I) w = b for every beta in the grid.

    residual_norms holds the zeta-scaled residual norm at the iteration
    where each shift froze; iterations holds that iteration index.
    """

    solutions: np.ndarray        # dim x n_shifts
    residual_norms: np.ndarray   # n_shifts
    iterations: np.ndarray       # n_shifts, int
    converged: np.ndarray        # n_shifts, bool

    @property
    def all_converged(self) -> bool:
        return bool(self.converged.all())


def _threshold(tol: float, b_norm: float, absolute_tol: bool) -> float:
    if tol <= 0:
        raise ValueError("tol must be positive")
    return tol if absolute_tol else tol * b_norm


def cg(op: LinearOperator, b: np.ndarray, tol: float = 1e-8, max_iter: int = 1000,
       *, absolute_tol: bool = False, callback=None) -> tuple[np.ndarray, np.ndarray]:
    """Conjugate gradients for B w = b with a symmetric PSD operator.

    Returns (w, residual_history) where residual_history[0] = ||b|| and
    residual_history[i] = ||r_i||. Stops when ||r|| passes tolerance or
    after max_iter iterations, whichever comes first.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (op.dim,):
        raise ValueError(f"rhs must have shape ({op.dim},)")
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(op.dim), np.zeros(1)
    thresh = _threshold(tol, b_norm, absolute_tol)
    w = np.zeros(op.dim)
    r = b.copy()
    p = b.copy()
    rr = b_norm * b_norm
    history = [b_norm]
    for i in range(max_iter):
        q = op(p)
        pq = float(p @ q)
        if not np.isfinite(pq):
            raise NumericalFailureError(f"non-finite <p, Bp> at iteration {i}")
        if pq == 0.0:
            raise SolverBreakdownError(f"singular direction: <p, Bp> = 0 at iteration {i}")
        gamma = -rr / pq
        w = w - gamma * p
        r = r + gamma * q
        rr_new = float(r @ r)
        if not np.isfinite(rr_new):
            raise NumericalFailureError(f"non-finite residual at iteration {i}")
        r_norm = np.sqrt(rr_new)
        history.append(r_norm)
        if callback is not None:
            callback(i + 1, r_norm)
        if r_norm < thresh:
            break
        alpha = rr_new / rr
        p = r + alpha * p
        rr = rr_new
    return w, np.asarray(history)


def shifted_cg(op: LinearOperator, b: np.ndarray, shifts, tol: float = 1e-8,
               max_iter: int = 1000, *, absolute_tol: bool = False) -> ShiftedSolveResult:
    """Solve (B + beta I) w = b for every beta in the grid at once.

    The base iteration runs plain CG on B; per-shift solutions are carried
    by the zeta recurrence, so each iteration costs one operator
    application regardless of how many shifts are requested. A shift whose
    scaled residual ||zeta r|| passes tolerance freezes; one whose zeta
    recurrence underflows or degenerates is frozen as non-converged. The
    base iteration continues until every shift is frozen or max_iter.
    The returned solutions are the dim x n_shifts transpose of the
    row-per-shift block, so each column is contiguous.
    """
    grid = as_shift_grid(shifts)
    betas = grid.betas
    ns = grid.n_shifts
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (op.dim,):
        raise ValueError(f"rhs must have shape ({op.dim},)")
    b_norm = float(np.linalg.norm(b))
    sols = np.zeros((ns, op.dim))               # one row per shift
    if b_norm == 0.0:
        return ShiftedSolveResult(
            solutions=sols.T,
            residual_norms=np.zeros(ns),
            iterations=np.zeros(ns, dtype=np.int64),
            converged=np.ones(ns, dtype=bool),
        )
    thresh = _threshold(tol, b_norm, absolute_tol)

    r = b.copy()
    p = b.copy()
    big_p = np.repeat(b[None, :], ns, axis=0)   # per-shift search directions
    rr = b_norm * b_norm
    gamma_prev = 1.0                            # gamma_{-1}
    alpha = 0.0                                 # momentum entering iteration i
    zeta_prev = np.ones(ns)                     # zeta_{i-1}
    zeta = np.ones(ns)                          # zeta_i
    active = np.ones(ns, dtype=bool)
    iterations = np.full(ns, max_iter, dtype=np.int64)
    residuals = np.full(ns, b_norm)
    converged = np.zeros(ns, dtype=bool)

    for i in range(max_iter):
        q = op(p)
        pq = float(p @ q)
        if not np.isfinite(pq):
            raise NumericalFailureError(f"non-finite <p, Bp> at iteration {i}")
        if pq == 0.0:
            raise SolverBreakdownError(f"singular direction: <p, Bp> = 0 at iteration {i}")
        gamma = -rr / pq
        r = r + gamma * q
        rr_new = float(r @ r)
        if not np.isfinite(rr_new):
            raise NumericalFailureError(f"non-finite residual at iteration {i}")
        r_norm = np.sqrt(rr_new)
        alpha_new = rr_new / rr
        p = r + alpha_new * p

        # Frozen shifts run through the same scalar arithmetic on stale
        # zetas; their results are masked out, and so are their warnings.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            denom = (gamma * alpha * (zeta_prev - zeta)
                     + zeta_prev * gamma_prev * (1.0 - betas * gamma))
            zeta_next = zeta_prev * zeta * gamma_prev / denom
            # A degenerate or underflowed zeta freezes its shift untouched,
            # so no garbage ever reaches the stored solution row.
            bad = active & (~np.isfinite(zeta_next) | (np.abs(zeta_next) < 1e-290))
            good = active & ~bad
            gamma_shift = np.where(good, gamma * zeta_next / zeta, 0.0)
            alpha_shift = alpha_new * (zeta_next * gamma_shift) / (zeta * gamma)
            shift_res = np.abs(zeta_next) * r_norm
        done = good & (shift_res < thresh)
        keep = good & ~done
        sols -= big_p * gamma_shift[:, None]
        # Zero coefficients zero the row of every shift that stops here.
        big_p *= np.where(keep, alpha_shift, 0.0)[:, None]
        big_p += np.where(keep, zeta_next, 0.0)[:, None] * r

        iterations[bad | done] = i + 1
        residuals[bad] = np.inf
        residuals[done] = shift_res[done]
        converged |= done
        active = keep
        zeta_prev = np.where(keep, zeta, zeta_prev)
        zeta = np.where(keep, zeta_next, zeta)
        gamma_prev = gamma
        alpha = alpha_new
        rr = rr_new
        if not active.any():
            break

    residuals[active] = np.abs(zeta[active]) * np.sqrt(rr)
    return ShiftedSolveResult(
        solutions=sols.T,
        residual_norms=residuals,
        iterations=iterations,
        converged=converged,
    )


def _chol_solve(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with a Cholesky factor; LinAlgError signals rank deficiency."""
    g = np.linalg.cholesky((m + m.T) / 2.0)
    y = np.linalg.solve(g, rhs)
    return np.linalg.solve(g.T, y)


def block_cg(op: LinearOperator, rhs: np.ndarray, tol: float = 1e-8,
             max_iter: int = 1000, *, absolute_tol: bool = False,
             callback=None) -> np.ndarray:
    """Block CG for B W = RHS with m right-hand sides sharing one basis.

    Applies the operator once per column per iteration. Columns converge
    together (per-column residual tests); if the m x m projected system
    goes rank deficient, converged columns are deflated and the iteration
    continues on the rest. Deflating everything, or rank deficiency with
    nothing converged, raises SolverBreakdownError.
    """
    rhs = np.atleast_2d(np.asarray(rhs, dtype=np.float64))
    if rhs.shape[0] != op.dim:
        rhs = rhs.T
    if rhs.shape[0] != op.dim:
        raise ValueError(f"rhs must be {op.dim} x m")
    m = rhs.shape[1]
    rhs_norms = np.linalg.norm(rhs, axis=0)
    if np.all(rhs_norms == 0.0):
        return np.zeros_like(rhs)
    thresh = np.where(
        rhs_norms == 0.0, np.inf,
        tol if absolute_tol else tol * rhs_norms,
    )

    # One right-hand side per row internally: the operator then reads a
    # contiguous vector and the small-block updates stream whole rows.
    active = np.flatnonzero(rhs_norms > 0.0)
    w = np.zeros((m, op.dim))
    r = np.ascontiguousarray(rhs.T[active])
    p = r.copy()
    rtr = r @ r.T
    for i in range(max_iter):
        q = np.vstack([op(p[j]) for j in range(p.shape[0])])
        ptq = p @ q.T
        try:
            step = _chol_solve(ptq, rtr)
        except np.linalg.LinAlgError:
            active, r, p, rtr = _deflate(active, r, p, thresh)
            continue
        w[active] += step.T @ p
        r = r - step.T @ q
        res = np.linalg.norm(r, axis=1)
        if not np.all(np.isfinite(res)):
            raise NumericalFailureError(f"non-finite block residual at iteration {i}")
        if callback is not None:
            full = np.zeros(m)
            full[active] = res
            callback(i + 1, full)
        if np.all(res < thresh[active]):
            return np.ascontiguousarray(w.T)
        rtr_new = r @ r.T
        try:
            momentum = _chol_solve(rtr, rtr_new)
        except np.linalg.LinAlgError:
            active, r, p, rtr = _deflate(active, r, p, thresh)
            continue
        p = r + momentum.T @ p
        rtr = rtr_new
    return np.ascontiguousarray(w.T)


def _deflate(active, r, p, thresh):
    res = np.linalg.norm(r, axis=1)
    keep = res >= thresh[active]
    if keep.all() or not keep.any():
        raise SolverBreakdownError(
            "block CG rank deficiency with no converged column to deflate"
            if keep.all() else "all block columns deflated"
        )
    active = active[keep]
    r = r[keep]
    p = p[keep]
    return active, r, p, r @ r.T


def subspace_iteration(a_op: LinearOperator, b_solve, n_vectors: int, seed: int) -> np.ndarray:
    """One power sweep for the pencil A v = lambda B v: solve B V = A R.

    R is uniform on [-1, 1], seeded; b_solve maps a dim x n_vectors block
    of right-hand sides to solutions. When n_vectors equals the rank of A
    the sweep converges in this single step.
    """
    if n_vectors <= 0:
        raise ValueError("n_vectors must be positive")
    rng = np.random.default_rng(seed)
    r = rng.uniform(-1.0, 1.0, size=(a_op.dim, n_vectors))
    ar = np.column_stack([a_op(r[:, j]) for j in range(n_vectors)])
    try:
        v = b_solve(ar)
    except KrylovError as e:
        raise ConvergenceError(f"inner solve of subspace iteration failed: {e}") from e
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise NumericalFailureError("subspace iteration produced non-finite vectors")
    return v


def rayleigh_ritz_2x2(z: np.ndarray, a_op: LinearOperator, b_op: LinearOperator) -> tuple[np.ndarray, np.ndarray]:
    """Solve the projected pencil (Z^T A Z) q = lambda (Z^T B Z) q closed form.

    Returns (eigenvalues, coefficients) with eigenvalues descending and
    coefficients holding the matching q columns. Raises
    DegenerateSubspaceError when Z^T B Z is not positive definite.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != 2:
        raise ValueError("rayleigh_ritz_2x2 expects a dim x 2 basis")
    az = np.column_stack([a_op(z[:, 0]), a_op(z[:, 1])])
    bz = np.column_stack([b_op(z[:, 0]), b_op(z[:, 1])])
    a = z.T @ az
    m = z.T @ bz
    a = (a + a.T) / 2.0
    m = (m + m.T) / 2.0
    try:
        g = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as e:
        raise DegenerateSubspaceError("Z^T B Z is singular; basis is degenerate") from e
    if np.linalg.cond(g) > 1e12:
        raise DegenerateSubspaceError("Z^T B Z is numerically singular")
    # Transform to an ordinary symmetric 2x2 problem C y = lambda y.
    gi = np.linalg.inv(g)
    c = gi @ a @ gi.T
    half_tr = (c[0, 0] + c[1, 1]) / 2.0
    det_gap = np.sqrt(((c[0, 0] - c[1, 1]) / 2.0) ** 2 + c[0, 1] ** 2)
    lam = np.array([half_tr + det_gap, half_tr - det_gap])
    vecs = []
    for l in lam:
        # Eigenvector of [[c00, c01], [c01, c11]] from the larger row.
        v1 = np.array([c[0, 1], l - c[0, 0]])
        v2 = np.array([l - c[1, 1], c[0, 1]])
        v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
        n = np.linalg.norm(v)
        if n == 0.0:
            v = np.array([1.0, 0.0]) if len(vecs) == 0 else np.array([0.0, 1.0])
            n = 1.0
        vecs.append(v / n)
    q = gi.T @ np.column_stack(vecs)
    q /= np.linalg.norm(q, axis=0)
    return lam, q
