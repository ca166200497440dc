"""Krylov solvers: CG, shifted CG over a grid of diagonal shifts, block CG.

The iterative solvers see the system matrix only through a LinearOperator:
one function that maps a k x dim block of rows, each row of one system,
to the block of their products, counted as one application per row. A
row's product must not depend on the other rows; that is what keeps a
system's iterates bit for bit the same alone and in a lock-step block.
Shift invariance of Krylov spaces is what makes the shifted solver cheap:
for B + beta I the same basis vectors work for every beta, so the whole
grid costs exactly one operator application per iteration.
Per-shift residuals are tracked through the scalar zeta recurrence. The
shifted solver holds its solutions and search directions as n_shifts x dim
blocks, one contiguous row per shift, and updates each block in place a
cache-sized chunk of columns at a time; one boolean mask marks the shifts
still in flight. A shift whose scaled residual passes tolerance freezes:
its step coefficients become zero and its search-direction row is zeroed,
so its solution row stops changing while the base iteration runs on.

cg and shifted_cg also take an m x dim block of right-hand sides, one
independent system per row, and advance the systems in lock-step: each
iteration applies the operator once to the block of live systems' rows.
This is not block CG, since no basis is shared: every system keeps its own
scalars, zetas, freezing and iteration count, and takes its dot products
one contiguous row at a time with the kernel of a one-vector solve, so its
iterates are bit for bit those of its solve alone. The live systems sit in
one leading block; when a system stops (all its shifts frozen, its
residual below tolerance or its budget spent) while others run on, the
block is compacted once, the stopped system's rows moving behind the live
ones, where no later iteration touches them. A single system is a block
of one row that never compacts. A zero right-hand side is solved by 0
without entering the block; a breakdown or a non-finite value in any
system raises for the whole solve.

block_cg takes a dim x m block of right-hand sides and runs breakdown-
free block CG (Ji & Li, BIT Numer. Math. 57, 2017). Each iteration
rebuilds the search block P as an orthonormal basis of R + beta^T P
without the directions below _DROP, such as a converged column or two
parallel residuals; a dropped direction comes back once its residual
matters again. So no column is deflated, and each iteration applies the
operator once per row of P, at most m times. P comes from a Gram matrix,
so it is orthonormal to about eps times the squared condition of R +
beta^T P.

Every solver also takes, in place of one max_iter, a strictly ascending
tuple of budgets, and returns its state at each of them from one solve: a
run to the last budget that snapshots its state as it passes the others.
No iteration reads the budget before it stops, so the state at budget k is
bit for bit what a call with max_iter = k returns, whether the solve still
runs there or stopped before. The budget axis sits outside the system
axis: it leads the results of cg and shifted_cg and trails block_cg's, so
a result's shape[1] stays block_cg's column count. One int is the one-
snapshot case of the same loop, whose results come without the axis; each
iteration pays one integer compare for the snapshots.

Convergence tests are relative to ||b||, and every solver raises
ValueError for a tol that is not finite and positive. cg alone also takes
absolute_tol=True for an absolute threshold; perfbench's tracer reads that
keyword by name when it counts cg's unconverged solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Columns of shifted_cg's solution and search-direction blocks that one
# step of their update covers, so that the step's rows and temporaries
# stay in cache; a narrower block takes one step. Measured at N = 200 000
# and 13 shifts: one update took 9-11 ms at 3 072-8 192 columns against
# 11-12 ms whole, and 19-21 ms at 2 048.
_UPDATE_COLS = 4096


class KrylovError(RuntimeError):
    """Base class for solver failures."""


class SolverBreakdownError(KrylovError):
    """<p, B p> vanished or P B P^T is not positive definite: the operator is
    singular along a search direction. Or block CG's search block emptied."""


class NumericalFailureError(KrylovError):
    """A non-finite quantity appeared during iteration."""


class DegenerateSubspaceError(KrylovError):
    """The trial subspace is rank deficient (Z^T B Z is singular)."""


class LinearOperator:
    """Symmetric linear operator given by one block function; counts
    applications.

    apply(V, systems) maps a k x dim block of rows V to the C-contiguous
    k x dim block of their products, row i belonging to system systems[i]
    (an integer array of k), for operators whose masks differ between the
    systems of a lock-step solve. Row i's product must depend on V[i] and
    systems[i] alone, never on the other rows. A block given without
    systems belongs to system 0, and a dim vector is applied as a block of
    one row of system 0. Every row counts as one application.
    """

    def __init__(self, dim: int, apply):
        if dim <= 0:
            raise ValueError("operator dimension must be positive")
        self.dim = int(dim)
        self._apply = apply
        self.n_applies = 0

    def __call__(self, v: np.ndarray, systems=None) -> np.ndarray:
        single = np.ndim(v) == 1
        rows = v[None, :] if single else v
        if systems is None:
            systems = np.zeros(len(rows), dtype=np.intp)
        self.n_applies += len(rows)
        out = self._apply(rows, systems)
        return out[0] if single else out


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
            raise ValueError("shifts must be distinct and ascending")
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
    length m, one entry per system, and for a tuple of budgets another
    leading axis before that one, one entry per budget.
    """

    solutions: np.ndarray        # dim x n_shifts (m x dim x n_shifts)
    residual_norms: np.ndarray   # n_shifts (m x n_shifts)
    iterations: np.ndarray       # n_shifts (m x n_shifts), int
    converged: np.ndarray        # n_shifts (m x n_shifts), bool

    @property
    def all_converged(self) -> bool:
        return bool(self.converged.all())


def _budgets(max_iter) -> tuple[tuple[int, ...], bool]:
    """max_iter as a strictly ascending tuple of budgets, and whether it
    was one int."""
    if isinstance(max_iter, (int, np.integer)):
        return (int(max_iter),), True
    budgets = tuple(int(k) for k in max_iter)
    if not budgets or any(b <= a for a, b in zip(budgets, budgets[1:])):
        raise ValueError(f"budgets must be strictly ascending, got {budgets}")
    return budgets, False


class _Snapshots:
    """A solve's state at each of its budgets: one stack per array, with a
    leading budget axis, that each snapshot is copied into once. With a
    single budget the stacks are views of the final arrays, without a
    copy."""

    def __init__(self, budgets: tuple[int, ...]):
        self.budgets, self.taken, self.stacks = budgets, 0, None

    def _alloc(self, arrays) -> None:
        if self.stacks is None:
            self.stacks = [np.empty((len(self.budgets), *a.shape), a.dtype) for a in arrays]

    def take(self, arrays) -> int:
        """Copy in arrays as the state at the next budget, before the last;
        returns the budget after it."""
        self._alloc(arrays)
        for stack, a in zip(self.stacks, arrays):
            stack[self.taken] = a
        self.taken += 1
        return self.budgets[self.taken]

    def finish(self, arrays) -> list[np.ndarray]:
        """The stacks, with arrays, the final state, at every budget not yet
        taken: a run that stopped before them returns it for each."""
        if len(self.budgets) == 1:
            return [a[None] for a in arrays]
        self._alloc(arrays)
        for stack, a in zip(self.stacks, arrays):
            stack[self.taken:] = a
        return self.stacks


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")


def _as_rows(b, dim: int) -> tuple[np.ndarray, bool]:
    """b as an m x dim block of right-hand sides, and whether it was one vector."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape == (dim,):
        return b[None, :], True
    if b.ndim != 2 or b.shape[1] != dim:
        raise ValueError(f"rhs must have shape ({dim},) or (m, {dim})")
    return b, False


def _start(rows: np.ndarray, tol: float, absolute_tol: bool = False):
    """Each system's ||b|| in system order; then, by position, the system
    ids with the nonzero right-hand sides first, their count k, and the
    k x 1 column of their convergence thresholds."""
    _check_tol(tol)
    b_norms = np.array([np.linalg.norm(row) for row in rows])
    nonzero = b_norms != 0.0
    ids = np.argsort(~nonzero, kind="stable")
    k = int(np.count_nonzero(nonzero))
    thresh = np.array([[tol if absolute_tol else tol * bn] for bn in b_norms[ids[:k]]])
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


def _cg_rows(op: LinearOperator, rows: np.ndarray, tol: float, budgets: tuple[int, ...],
             absolute_tol: bool = False, callback=None) -> tuple[np.ndarray, list]:
    """cg on every row of the m x dim block rows, in lock-step, up to the
    last of budgets (strictly ascending): the n_budgets x m x dim solutions
    at each budget, and for each budget the systems' residual histories.
    The callback gets each system's latest residual norm as an array of m."""
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
    snaps, due = _Snapshots(budgets), budgets[0]
    for i in range(budgets[-1]):
        if i == due:
            due = snaps.take(_by_system(ids, w))
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
            if not live.any():
                break
            k = _compact(live, state)
            w_, r_, p_, ids_ = (a[:k] for a in state)
            rr, thresh = rr[live], thresh[live]
    [w] = snaps.finish(_by_system(ids, w))
    return w, [[np.asarray(h[:b + 1]) for h in histories] for b in budgets]


def cg(op: LinearOperator, b: np.ndarray, tol: float = 1e-8, max_iter=1000,
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

    For a tuple of budgets as max_iter, W gains a leading budget axis and
    the second value is a list with one entry per budget, each what the
    call with that max_iter returns as its second value.
    """
    rows, single = _as_rows(b, op.dim)
    budgets, one = _budgets(max_iter)
    if single and callback is not None:
        first = callback
        callback = lambda i, norms: first(i, norms[0])  # noqa: E731
    w, histories = _cg_rows(op, rows, tol, budgets, absolute_tol, callback)
    if single:
        w, histories = w[:, 0], [h[0] for h in histories]
    return (w[0], histories[0]) if one else (w, histories)


def _update_in_chunks(sols, big_p, r, gamma_shift, alpha_shift, zeta_next) -> None:
    """shifted_cg's update of its solution and search-direction blocks,
    sols -= big_p * gamma_shift, big_p *= alpha_shift and
    big_p += zeta_next * r, _UPDATE_COLS columns at a time. Every entry
    takes the same arithmetic whatever the chunk, so the result does not
    depend on _UPDATE_COLS, bit for bit."""
    g, a, z = gamma_shift[:, :, None], alpha_shift[:, :, None], zeta_next[:, :, None]
    for c0 in range(0, r.shape[1], _UPDATE_COLS):
        cols = slice(c0, c0 + _UPDATE_COLS)
        s, p = sols[:, :, cols], big_p[:, :, cols]
        s -= p * g
        p *= a
        p += z * r[:, None, cols]


def shifted_cg(op: LinearOperator, b: np.ndarray, shifts, tol: float = 1e-8,
               max_iter=1000) -> ShiftedSolveResult:
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

    For a tuple of budgets as max_iter, every field gains a further leading
    axis, one entry per budget, each what the call with that max_iter
    returns: there, the shifts still in flight end at that budget, with
    their residual at it.
    """
    grid = as_shift_grid(shifts)
    betas = grid.betas
    ns = grid.n_shifts
    rows, single = _as_rows(b, op.dim)
    budgets, one = _budgets(max_iter)
    b_norms, ids, k, thresh = _start(rows, tol)
    m = ids.size
    b_col = b_norms[ids][:, None]

    r = rows[ids]
    p = r.copy()
    big_p = np.repeat(r[:, None, :], ns, axis=1)   # per-shift search directions
    sols = np.zeros((m, ns, op.dim))                # one row per shift
    iterations = np.zeros((m, ns), dtype=np.int64)
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

    def results_at(budget):
        """The results in system order as a run that stops here at max_iter =
        budget returns them: the shifts still in flight end at the budget,
        with their current residual."""
        res, its = residuals.copy(), iterations.copy()
        res[:k][active] = (np.abs(zeta) * np.sqrt(rr))[active]
        its[:k][active] = budget
        return _by_system(ids, sols, res, its, converged)

    snaps, due = _Snapshots(budgets), budgets[0]
    # Frozen shifts run through the same scalar arithmetic on stale zetas
    # and their results are masked out, so the loop runs with floating-point
    # warnings off; a non-finite value that matters raises in the checks.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(budgets[-1]):
            if i == due:
                due = snaps.take(results_at(due))
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

            denom = (gamma * alpha * (zeta_prev - zeta)
                     + zeta_prev * gamma_prev * (1.0 - betas * gamma))
            zeta_next = zeta_prev * zeta * gamma_prev / denom
            # A degenerate (non-finite) or underflowed zeta freezes its
            # shift untouched, so no garbage ever reaches the stored
            # solution row.
            size = np.abs(zeta_next)
            good = active & (size >= 1e-290) & (size < np.inf)
            gamma_shift = gamma * zeta_next / zeta
            alpha_shift = alpha_new * (zeta_next * gamma_shift) / (zeta * gamma)
            shift_res = size * r_norm
            keep = good & (shift_res >= thresh)
            # While every shift runs on, no coefficient needs a mask.
            masked = np.count_nonzero(keep) < keep.size
            if masked:
                gamma_shift = np.where(good, gamma_shift, 0.0)
                # Zero coefficients zero the row of every shift that stops.
                alpha_shift = np.where(keep, alpha_shift, 0.0)
                zeta_prev, zeta, zeta_next = (
                    np.where(keep, zeta, zeta_prev), np.where(keep, zeta_next, zeta),
                    np.where(keep, zeta_next, 0.0))
            else:
                zeta_prev, zeta = zeta, zeta_next
            _update_in_chunks(sols_, big_p_, r_, gamma_shift, alpha_shift, zeta_next)
            gamma_prev, alpha, rr = gamma, alpha_new, rr_new
            if not masked:
                continue

            stopped = active & ~keep
            active = keep
            if stopped.any():
                done = good & ~keep
                iterations_[stopped] = i + 1
                residuals_[stopped & ~done] = np.inf
                residuals_[done] = shift_res[done]
                converged_ |= done
                live = active.any(axis=1)
                if not live.any():
                    break
                if not live.all():
                    k = _compact(live, state)
                    r_, p_, big_p_, sols_, iterations_, residuals_, converged_, ids_ = (
                        a[:k] for a in state)
                    thresh, rr, gamma_prev, alpha, zeta_prev, zeta, active = (
                        a[live] for a in (thresh, rr, gamma_prev, alpha, zeta_prev, zeta, active))

    # A run stopped before the last budget has no shift in flight, so its
    # final state is the one each budget it did not reach returns.
    sols, residuals, iterations, converged = snaps.finish(results_at(budgets[-1]))
    fields = (sols.transpose(0, 1, 3, 2), residuals, iterations, converged)
    if single:
        fields = (a[:, 0] for a in fields)
    if one:
        fields = (a[0] for a in fields)
    return ShiftedSolveResult(*fields)


# Search-block directions whose squared singular value, residual j scaled
# by 1/||b_j||, is at most this times the largest are dropped. On sr-sda,
# 1e-14 kept rounding in 2 of 160 degenerate problems (degenerate basis),
# and 1e-8 lost so much conjugacy that one took 678 iterations, not 43.
_DROP = 1e-13


def block_cg(op: LinearOperator, rhs: np.ndarray, tol: float = 1e-8,
             max_iter=1000, *, callback=None) -> np.ndarray:
    """Breakdown-free block CG for B W = RHS, m right-hand sides sharing one
    basis (see the module docstring); returns the C-contiguous dim x m W.
    Columns converge together (per-column residual tests); callback(i,
    residual norms) runs after each iteration. A non-finite P B P^T raises
    NumericalFailureError; one not positive definite, or an empty search
    block before convergence, raises SolverBreakdownError.

    For a tuple of budgets as max_iter, returns the dim x m x n_budgets
    stack whose [:, :, t] is what the call with max_iter = budgets[t]
    returns."""
    _check_tol(tol)
    budgets, one = _budgets(max_iter)
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim != 2 or rhs.shape[0] != op.dim:
        raise ValueError(f"rhs must be {op.dim} x m")
    m = rhs.shape[1]
    rhs_norms = np.linalg.norm(rhs, axis=0)
    if np.all(rhs_norms == 0.0):
        return np.zeros_like(rhs) if one else np.zeros((*rhs.shape, len(budgets)))
    thresh = np.where(rhs_norms == 0.0, np.inf, tol * rhs_norms)
    scale = 1.0 / np.where(rhs_norms == 0.0, 1.0, rhs_norms)
    # One right-hand side per row, so the operator reads contiguous rows.
    # P P^T = I and alpha leaves P R^T = 0, so the next block T Z, for
    # Z = R + beta^T P, has (T Z) R^T = T R R^T and Z Z^T = R R^T +
    # beta^T beta: no pass over the N-length rows beyond R R^T and Q R^T.
    w, r = np.zeros((m, op.dim)), np.ascontiguousarray(rhs.T)
    rr, p, beta = r @ r.T, np.zeros((0, op.dim)), np.zeros((0, m))
    snaps, due = _Snapshots(budgets), budgets[0]
    for i in range(budgets[-1]):
        if i == due:
            due = snaps.take([w.T])
        gram = scale[:, None] * (rr + beta.T @ beta) * scale
        if not np.all(np.isfinite(gram)):
            raise NumericalFailureError(f"non-finite search block at iteration {i}")
        lam, v = np.linalg.eigh(gram)
        if not lam[-1] > 0.0:
            raise SolverBreakdownError(f"empty search block before convergence at iteration {i}")
        keep = lam > _DROP * lam[-1]
        t = (v[:, keep] / np.sqrt(lam[keep])).T * scale
        p = (t @ beta.T) @ p
        p += t @ r  # P = T Z, with one new N x k block alive at a time
        q = np.vstack([op(row) for row in p])
        with np.errstate(invalid="ignore", over="ignore"):
            pq = p @ q.T
        # P B P^T, checked as cg checks <p, B p>.
        if not np.all(np.isfinite(pq)):
            raise NumericalFailureError(f"non-finite P B P^T at iteration {i}")
        mu, u = np.linalg.eigh(pq)
        if not mu[0] > 0.0:
            raise SolverBreakdownError(f"P B P^T is not positive definite at iteration {i}")
        inv = (u / mu) @ u.T
        alpha = inv @ (t @ rr)
        w += alpha.T @ p
        r -= alpha.T @ q
        rr = r @ r.T
        res = np.sqrt(np.diag(rr))
        _check_residual(res, i)
        if callback is not None:
            callback(i + 1, res)
        if np.all(res < thresh):
            break
        beta = -inv @ (q @ r.T)
    [ws] = snaps.finish([np.ascontiguousarray(w.T)])
    # The budget axis moves last as a view: each budget's W stays contiguous.
    return ws[0] if one else np.moveaxis(ws, 0, 2)
