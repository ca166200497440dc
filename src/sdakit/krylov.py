"""Krylov solvers: CG, shifted CG over a grid of diagonal shifts, block CG,
and a closed-form 2x2 Rayleigh-Ritz step.

The iterative solvers see the system matrix only through a LinearOperator,
a callable wrapper that also counts applications; the Rayleigh-Ritz step
takes plain callables. block_cg takes its right-hand sides as a dim x m
block. Shift invariance of Krylov spaces is what makes the shifted solver
cheap: for B + beta I the same basis vectors work for every beta, so the
whole grid costs exactly one operator application per iteration.
Per-shift residuals are tracked through the scalar zeta recurrence. The
shifted solver holds its solutions and search directions as n_shifts x dim
blocks, one contiguous row per shift, and updates each block in place as a
whole; one boolean mask marks the shifts still in flight. A shift whose
scaled residual passes tolerance freezes: its step coefficients become zero
and its search-direction row is zeroed, so its solution row stops changing
while the base iteration runs on.

cg and shifted_cg also take an m x dim block of right-hand sides, one
independent system per row, and advance the systems in lock-step: each
iteration applies the operator once to the block of live systems' rows.
This is not block CG, since no basis is shared: every system keeps its own
scalars, zetas, freezing and iteration count, and takes its dot products
one contiguous row at a time with the kernel of a one-vector solve, so its
iterates are bit for bit those of its solve alone. The live systems sit in
one leading block; when a system stops (all its shifts frozen, its
residual below tolerance or its budget spent) the block is compacted once,
the stopped system's rows moving behind the live ones, where no later
iteration touches them. A single system is a block of one row that never
compacts. A zero right-hand side is solved by 0 without entering the
block; a breakdown or a non-finite value in any system raises for the
whole solve.

Convergence tests are relative to ||b|| by default; pass absolute_tol=True
for an absolute threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class KrylovError(RuntimeError):
    """Base class for solver failures."""


class SolverBreakdownError(KrylovError):
    """<p, B p> vanished: the operator is singular along a search direction."""


class NumericalFailureError(KrylovError):
    """A non-finite quantity appeared during iteration."""


class DegenerateSubspaceError(KrylovError):
    """The trial subspace is rank deficient (Z^T B Z is singular)."""


class LinearOperator:
    """Symmetric linear operator given by its matvec; counts applications.

    The solvers also apply it to a k x dim block of rows, one row per
    system of a lock-step solve, as op(V, systems): systems[i] is the
    system that row i belongs to, for operators whose masks differ between
    systems. apply_block(V, systems), when given, applies such a block in
    one call and returns a C-contiguous block; without it the rows go
    through apply_fn one by one. Every row counts as one application.
    """

    def __init__(self, dim: int, apply_fn, apply_block=None):
        if dim <= 0:
            raise ValueError("operator dimension must be positive")
        self.dim = int(dim)
        self._apply = apply_fn
        self._apply_block = apply_block
        self.n_applies = 0

    def __call__(self, v: np.ndarray, systems=None) -> np.ndarray:
        if np.ndim(v) == 1:
            self.n_applies += 1
            return self._apply(v)
        self.n_applies += len(v)
        if self._apply_block is not None:
            return self._apply_block(v, systems)
        if len(v) == 1:
            return self._apply(v[0])[None, :]
        return np.stack([self._apply(row) for row in v])


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
    where each shift froze; iterations holds that iteration index. For an
    m x dim block of right-hand sides every field gains a leading axis of
    length m, one entry per system.
    """

    solutions: np.ndarray        # dim x n_shifts (m x dim x n_shifts)
    residual_norms: np.ndarray   # n_shifts (m x n_shifts)
    iterations: np.ndarray       # n_shifts (m x n_shifts), int
    converged: np.ndarray        # n_shifts (m x n_shifts), bool

    @property
    def all_converged(self) -> bool:
        return bool(self.converged.all())


def _threshold(tol: float, b_norm: float, absolute_tol: bool) -> float:
    if tol <= 0:
        raise ValueError("tol must be positive")
    return tol if absolute_tol else tol * b_norm


def _as_rows(b, dim: int) -> tuple[np.ndarray, bool]:
    """b as an m x dim block of right-hand sides, and whether it was one vector."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape == (dim,):
        return b[None, :], True
    if b.ndim != 2 or b.shape[1] != dim:
        raise ValueError(f"rhs must have shape ({dim},) or (m, {dim})")
    return b, False


def _start(rows: np.ndarray, tol: float, absolute_tol: bool):
    """Each system's ||b|| in system order; then, by position, the system
    ids with the nonzero right-hand sides first, their count k, and the
    k x 1 column of their convergence thresholds."""
    b_norms = np.array([np.linalg.norm(row) for row in rows])
    nonzero = b_norms != 0.0
    ids = np.argsort(~nonzero, kind="stable")
    k = int(np.count_nonzero(nonzero))
    thresh = np.array([[_threshold(tol, bn, absolute_tol)] for bn in b_norms[ids[:k]]])
    return b_norms, ids, k, thresh.reshape(k, 1)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The k x 1 column of <a[j], b[j]> over k pairs of contiguous rows.
    np.vecdot takes each with the same dot kernel as a[j] @ b[j], so each
    system's value is that of a solve of the system alone, bit for bit."""
    return np.vecdot(a, b)[:, None]


def _check_curvature(pq: np.ndarray, i: int) -> None:
    for v in pq.ravel().tolist():
        if not math.isfinite(v):
            raise NumericalFailureError(f"non-finite <p, Bp> at iteration {i}")
        if v == 0.0:
            raise SolverBreakdownError(f"singular direction: <p, Bp> = 0 at iteration {i}")


def _check_residual(rr: np.ndarray, i: int) -> None:
    if not all(map(math.isfinite, rr.ravel().tolist())):
        raise NumericalFailureError(f"non-finite residual at iteration {i}")


def _compact(live: np.ndarray, state) -> int:
    """Move the live systems among the first len(live) positions of every
    state array to the front, in order, and the stopped ones behind them,
    where no later iteration touches them. Returns the live count."""
    k = live.size
    order = np.concatenate([np.flatnonzero(live), np.flatnonzero(~live)])
    for a in state:
        a[:k] = a[:k][order]
    return int(np.count_nonzero(live))


def _by_system(ids: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
    """Arrays indexed by position, reordered to system order."""
    if np.array_equal(ids, np.arange(ids.size)):
        return list(arrays)
    inverse = np.argsort(ids)
    return [a[inverse] for a in arrays]


def _cg_rows(op: LinearOperator, rows: np.ndarray, tol: float, max_iter: int,
             absolute_tol: bool = False, callback=None) -> tuple[np.ndarray, list]:
    """cg on every row of the m x dim block rows, in lock-step: the m x dim
    solutions and each system's residual history. The callback gets each
    system's latest residual norm as an array of m."""
    b_norms, ids, k, thresh = _start(rows, tol, absolute_tol)
    histories = [[bn] for bn in b_norms.tolist()]
    latest = b_norms.copy()
    w = np.zeros(rows.shape)
    r = rows[ids]
    p = r.copy()
    rr = (b_norms * b_norms)[ids[:k], None]
    # Blocks with a row per system and the live systems' rows first; the
    # views cover the live rows and are rebound when the block compacts.
    state = (w, r, p, ids)
    w_, r_, p_, ids_ = (a[:k] for a in state)
    for i in range(max_iter):
        if k == 0:
            break
        q = op(p_, ids_)
        pq = _row_dots(p_, q)
        _check_curvature(pq, i)
        gamma = -rr / pq
        w_ -= gamma * p_
        r_ += gamma * q
        rr_new = _row_dots(r_, r_)
        _check_residual(rr_new, i)
        r_norm = np.sqrt(rr_new)
        for j, rn in zip(ids_.tolist(), r_norm.ravel().tolist()):
            histories[j].append(rn)
        if callback is not None:
            latest[ids_] = r_norm[:, 0]
            callback(i + 1, latest.copy())
        p_ *= rr_new / rr
        p_ += r_
        rr = rr_new
        done = r_norm < thresh
        if done.any():
            live = ~done[:, 0]
            k = _compact(live, state)
            w_, r_, p_, ids_ = (a[:k] for a in state)
            rr, thresh = rr[live], thresh[live]
    return _by_system(ids, w)[0], [np.asarray(h) for h in histories]


def cg(op: LinearOperator, b: np.ndarray, tol: float = 1e-8, max_iter: int = 1000,
       *, absolute_tol: bool = False, callback=None):
    """Conjugate gradients for B w = b with a symmetric PSD operator.

    Returns (w, residual_history) where residual_history[0] = ||b|| and
    residual_history[i] = ||r_i||. Stops when ||r|| passes tolerance or
    after max_iter iterations, whichever comes first; callback(i, ||r_i||)
    runs after each iteration.

    For an m x dim block b, each row is its own system and the systems run
    in lock-step (see the module docstring). Returns (W, histories): row j
    of the m x dim W and the array histories[j] equal the one-vector call
    on b[j], bit for bit. The callback then gets an array of each system's
    latest ||r||.
    """
    rows, single = _as_rows(b, op.dim)
    if single and callback is not None:
        one = callback
        callback = lambda i, norms: one(i, norms[0])  # noqa: E731
    w, histories = _cg_rows(op, rows, tol, max_iter, absolute_tol, callback)
    return (w[0], histories[0]) if single else (w, histories)


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

    For an m x dim block b, each row is its own system and the systems run
    in lock-step (see the module docstring); every result field gains a
    leading axis of m, and entry j equals the one-vector call on b[j], bit
    for bit. System j applied the operator max(iterations[j]) times.
    """
    grid = as_shift_grid(shifts)
    betas = grid.betas
    ns = grid.n_shifts
    rows, single = _as_rows(b, op.dim)
    b_norms, ids, k, thresh = _start(rows, tol, absolute_tol)
    m = ids.size
    b_col = b_norms[ids][:, None]

    r = rows[ids]
    p = r.copy()
    big_p = np.repeat(r[:, None, :], ns, axis=1)   # per-shift search directions
    sols = np.zeros((m, ns, op.dim))                # one row per shift
    iterations = np.zeros((m, ns), dtype=np.int64)
    iterations[:k] = max_iter
    residuals = np.repeat(b_col, ns, axis=1)
    converged = np.zeros((m, ns), dtype=bool)
    converged[k:] = True                            # a zero b is solved by 0
    # Blocks with a row per system and the live systems' rows first; the
    # views cover the live rows and are rebound when the block compacts.
    state = (r, p, big_p, sols, iterations, residuals, converged, ids)
    r_, p_, big_p_, sols_, iterations_, residuals_, converged_, ids_ = (a[:k] for a in state)
    # One row per live system.
    rr = b_col[:k] * b_col[:k]
    gamma_prev = np.ones((k, 1))                    # gamma_{-1}
    alpha = np.zeros((k, 1))                        # momentum entering iteration i
    zeta_prev = np.ones((k, ns))                    # zeta_{i-1}
    zeta = np.ones((k, ns))                         # zeta_i
    active = np.ones((k, ns), dtype=bool)

    for i in range(max_iter):
        if k == 0:
            break
        q = op(p_, ids_)
        pq = _row_dots(p_, q)
        _check_curvature(pq, i)
        gamma = -rr / pq
        r_ += gamma * q
        rr_new = _row_dots(r_, r_)
        _check_residual(rr_new, i)
        r_norm = np.sqrt(rr_new)
        alpha_new = rr_new / rr
        p_ *= alpha_new
        p_ += r_

        # Frozen shifts run through the same scalar arithmetic on stale
        # zetas; their results are masked out, and so are their warnings.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            denom = (gamma * alpha * (zeta_prev - zeta)
                     + zeta_prev * gamma_prev * (1.0 - betas * gamma))
            zeta_next = zeta_prev * zeta * gamma_prev / denom
            # A degenerate (non-finite) or underflowed zeta freezes its
            # shift untouched, so no garbage ever reaches the stored
            # solution row.
            size = np.abs(zeta_next)
            sound = (size >= 1e-290) & (size < np.inf)
            good = active & sound
            gamma_shift = np.where(good, gamma * zeta_next / zeta, 0.0)
            alpha_shift = alpha_new * (zeta_next * gamma_shift) / (zeta * gamma)
            shift_res = size * r_norm
        done = good & (shift_res < thresh)
        keep = good & ~done
        sols_ -= big_p_ * gamma_shift[:, :, None]
        # Zero coefficients zero the row of every shift that stops here.
        big_p_ *= np.where(keep, alpha_shift, 0.0)[:, :, None]
        big_p_ += np.where(keep, zeta_next, 0.0)[:, :, None] * r_[:, None, :]
        zeta_prev = np.where(keep, zeta, zeta_prev)
        zeta = np.where(keep, zeta_next, zeta)
        stopped = active & ~keep
        gamma_prev, alpha, rr, active = gamma, alpha_new, rr_new, keep

        if stopped.any():
            bad = stopped & ~done
            iterations_[stopped] = i + 1
            residuals_[bad] = np.inf
            residuals_[done] = shift_res[done]
            converged_ |= done
            live = active.any(axis=1)
            if not live.all():
                k = _compact(live, state)
                r_, p_, big_p_, sols_, iterations_, residuals_, converged_, ids_ = (
                    a[:k] for a in state)
                thresh, rr, gamma_prev, alpha, zeta_prev, zeta, active = (
                    a[live] for a in (thresh, rr, gamma_prev, alpha, zeta_prev, zeta, active))

    residuals_[active] = (np.abs(zeta) * np.sqrt(rr))[active]
    sols, residuals, iterations, converged = _by_system(ids, sols, residuals, iterations, converged)
    if single:
        return ShiftedSolveResult(sols[0].T, residuals[0], iterations[0], converged[0])
    return ShiftedSolveResult(sols.transpose(0, 2, 1), residuals, iterations, converged)


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
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim != 2 or rhs.shape[0] != op.dim:
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


def rayleigh_ritz_2x2(z: np.ndarray, a_op, b_op) -> tuple[np.ndarray, np.ndarray]:
    """Solve the projected pencil (Z^T A Z) q = lambda (Z^T B Z) q closed form.

    a_op and b_op are any callables mapping a dim vector to its product,
    a LinearOperator or a plain function. Returns (eigenvalues,
    coefficients) with eigenvalues descending and coefficients holding the
    matching q columns. Raises DegenerateSubspaceError when Z^T B Z is not
    positive definite.
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
