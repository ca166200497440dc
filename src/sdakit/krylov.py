"""Krylov solvers: CG, shifted CG over a grid of diagonal shifts, block CG.

The iterative solvers see the system matrix only through a LinearOperator:
one function that maps a k x dim block of rows, each row of one system,
to the block of their products, counted as one application per row. A
row's product must not depend on the other rows; that is what keeps a
system's iterates bit for bit the same alone and in a lock-step block.

Shift invariance of Krylov spaces makes the shifted solver cheap: one
basis serves every B + beta I, so the whole grid costs one operator
application per iteration (Frommer & Maass, SIAM J. Sci. Comput. 20,
1999). shifted_cg runs CG on B read as Lanczos (Meurant & Strakos, Acta
Numerica 15, 2006): the normalized residuals are the basis V, the steps
give the tridiagonal T, and the iterate for beta after k iterations is
||b|| V_k y with (T_k + beta I) y = e_1. A shift carries only the LDL^T
scalars of T + beta I, whose residual ||b|| t_{k+1} |y_k| stops it once
below tolerance, or, not converged, at its last sound iteration once it
underflows or turns non-finite. Its solution is formed when read, one
product with the basis rows of its own iterations, so it is bit for bit
that of a run stopped there. Each system stores up to the larger of
_BASIS_BYTES and 2 x n_shifts rows of basis (the footprint of running
solutions and search directions), whatever the other systems; further
rows come from a second run of its recurrence from its state there.

cg and shifted_cg also take an m x dim block of right-hand sides, one
independent system per row, and advance the systems in lock-step: each
iteration applies the operator once to the block of live systems' rows.
No basis is shared: every system keeps its own scalars, shifts and
iteration count, and takes its dot products one contiguous row at a time
with the kernel of a one-vector solve, so its iterates are bit for bit
those of its solve alone. The live systems sit in one leading block; when
a system stops while others run on, the block is compacted once, the
stopped system's rows moving behind the live ones. A single system never
compacts. A zero right-hand side is solved by 0 without entering the
block; a breakdown or a non-finite value in any system raises for all.

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
tuple of budgets, and returns its state at each of them from one solve.
No iteration reads the budget before it stops, so the state at budget k is
bit for bit what a call with max_iter = k returns. The budget axis leads
every result; one int gives results without it.

Convergence tests are relative to ||b||, and every solver raises
ValueError for a tol that is not finite and positive. cg alone also takes
absolute_tol=True for an absolute threshold; perfbench's tracer reads that
keyword by name when it counts cg's unconverged solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

# Bytes of basis that shifted_cg stores per system, where that is more than
# 2 x n_shifts rows (see the module docstring).
_BASIS_BYTES = 64 << 20


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

    iterations holds the iterations each shift's solution takes in, and
    residual_norms its residual there as T gives it (inf for an unsound
    stop); applications each system's most iterations, plus the second run
    that one read of the solutions makes past its stored basis rows. m
    right-hand sides put an axis of m before each field, a tuple of budgets
    one more before that. The solutions, dim x n_shifts with contiguous
    columns, are formed when read: solutions_at(t) at the t-th budget,
    solutions at each one."""

    residual_norms: np.ndarray   # n_shifts (m x n_shifts)
    iterations: np.ndarray       # n_shifts (m x n_shifts), int
    converged: np.ndarray        # n_shifts (m x n_shifts), bool
    applications: np.ndarray     # () (m), int
    _form: Callable[[int], np.ndarray] = field(repr=False)
    _n_budgets: Optional[int] = field(repr=False)  # None for one int budget

    @property
    def all_converged(self) -> bool:
        return bool(self.converged.all())

    def solutions_at(self, t: int) -> np.ndarray:
        return self._form(t).swapaxes(-1, -2)

    @property
    def solutions(self) -> np.ndarray:
        blocks = [self._form(t) for t in range(self._n_budgets or 1)]
        return (blocks[0] if self._n_budgets is None else np.stack(blocks)).swapaxes(-1, -2)


def _budgets(max_iter) -> tuple[tuple[int, ...], bool]:
    """max_iter as a strictly ascending tuple of budgets, and whether it was one int."""
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


def _step(op: LinearOperator, r: np.ndarray, p: np.ndarray, rr: np.ndarray, ids: np.ndarray,
          i: int, w: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Iteration i of CG on B for k systems (ids) at once: one application
    to the search rows p, then r, p and the iterate rows w, if given, in
    place. rr holds the k x 1 column of <r, r>. Returns the columns of the
    step sizes, of the momenta and of the new <r, r>."""
    q = op(p, ids)
    pq = _row_dots(p, q)
    _check_curvature(pq, i)
    gamma = rr / pq
    if w is not None:
        w += gamma * p
    r -= gamma * q
    rr_new = _row_dots(r, r)
    _check_residual(rr_new, i)
    alpha = rr_new / rr
    p *= alpha
    p += r
    return gamma, alpha, rr_new


def _cg_rows(op: LinearOperator, rows: np.ndarray, tol: float, budgets: tuple[int, ...],
             absolute_tol: bool = False, callback=None) -> tuple[np.ndarray, list]:
    """cg on every row of the m x dim block rows, in lock-step, up to the
    last of budgets (strictly ascending): the n_budgets x m x dim solutions
    at each budget, and for each budget the systems' residual histories.
    The callback gets each system's latest residual norm as an array of m."""
    b_norms, ids, k, thresh = _start(rows, tol, absolute_tol)
    histories = [[bn] for bn in b_norms.tolist()]
    latest = b_norms.copy()
    w, r, p = np.zeros(rows.shape), rows[ids], rows[ids]
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
        rr = _step(op, r_, p_, rr, ids_, i, w_)[2]
        r_norm = np.sqrt(rr)
        for j, rn in zip(ids_.tolist(), r_norm.ravel().tolist()):
            histories[j].append(rn)
        if callback is not None:
            latest[ids_] = r_norm[:, 0]
            callback(i + 1, latest.copy())
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


def _coordinates(steps: list, used: np.ndarray) -> np.ndarray:
    """The m x n_shifts x k block Y whose Y[j, s, :used[j, s]] solves
    (T_k + beta_s I) y = e_1 for system j, by back substitution through the
    LDL^T scalars of shifted_cg's steps (ids, d_i, c_i, t_i+1); zero beyond."""
    k = int(used.max(initial=0))
    y, starts = np.zeros((*used.shape, k + 1)), set(used.ravel().tolist())
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in reversed(range(k)):
            ids, d, c, t = steps[i]
            y_next = y[ids, :, i + 1]
            if i + 1 in starts:
                y_next[used[ids] == i + 1] = 0.0
            y[ids, :, i] = (c + t * y_next) / d
    y[np.arange(k + 1) >= used[..., None]] = 0.0
    return y[:, :, :k]


def _chunks(op: LinearOperator, basis: np.ndarray, state, system: int, n: int, rows: int):
    """One system's basis rows v_0 .. v_{n-1} as (first row, block) pairs:
    its stored rows, then a second run of its recurrence from its state (r,
    p, rr) past them, rows at a time into one buffer; the state stays."""
    yield 0, basis
    if n > len(basis):
        r, p, rr = (a.copy() for a in state)
        buf = np.empty((rows, op.dim))
        for i in range(len(basis), n):
            c = (i - len(basis)) % rows
            np.divide(r[0], np.sqrt(rr[0, 0]), out=buf[c])
            if c == rows - 1 or i == n - 1:
                yield i - c, buf[:c + 1]
            if i + 1 < n:
                rr = _step(op, r, p, rr, np.array([system]), i)[2]


def shifted_cg(op: LinearOperator, b: np.ndarray, shifts, tol: float = 1e-8,
               max_iter=1000) -> ShiftedSolveResult:
    """Solve (B + beta I) w = b for every beta in the grid at once (see the
    module docstring), running until every shift has stopped or max_iter.

    For an m x dim block b, each row is its own system and the systems run
    in lock-step; entry j of every result field equals the one-vector call
    on b[j], bit for bit. For a tuple of budgets as max_iter, entry t of
    every field is what the call with max_iter = budgets[t] returns: the
    shifts still running end at that budget, with their residual at it.
    """
    betas = as_shift_grid(shifts).betas
    rows, single = _as_rows(b, op.dim)
    budgets, one = _budgets(max_iter)
    b_norms, ids, k, _ = _start(rows, tol)
    m, ns = ids.size, betas.size
    # Basis rows stored per system whatever m: no system's results depend on its block.
    cap = max(1, min(budgets[-1], max(2 * ns, _BASIS_BYTES // (8 * op.dim))))
    basis, steps, saved = np.empty((m, cap, op.dim)), [], {}  # basis[j, i] is system j's v_i
    r, p = rows[ids], rows[ids]
    iterations, residuals = np.zeros((m, ns), dtype=np.int64), np.zeros((m, ns))
    converged = np.arange(m)[:, None].repeat(ns, axis=1) >= k  # a zero b is solved by 0
    # Blocks with a row per system and their live views, as in _cg_rows.
    state = (r, p, ids, iterations, residuals, converged)
    r_, p_, ids_, iterations_, residuals_, converged_ = (a[:k] for a in state)
    live_ids, running = ids_.copy(), k * ns
    # Per live system ||b||, rr and T's terms; per shift too, T + beta I's
    # LDL^T scalars l_i, c_i (y's last entry is c_i / d_i) and ||r|| / ||b||.
    b_col = b_norms[ids[:k], None]
    rr, carry, t_prev = b_col * b_col, np.zeros((k, 1)), np.zeros((k, 1))
    l, c, rel = np.ones((3, k, ns))
    active = np.ones((k, ns), dtype=bool)

    def results_at(budget):
        """The results in system order as the call with max_iter = budget."""
        res, its = residuals.copy(), iterations.copy()
        res[:k][active] = (b_col * rel)[active]
        its[:k][active] = budget
        return _by_system(ids, res, its, converged)

    snaps, due = _Snapshots(budgets), budgets[0]
    # Stopped shifts run on through the same arithmetic, masked out, so
    # warnings are off; a non-finite value that matters raises in _step.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(budgets[-1]):
            if i == due:
                due = snaps.take(results_at(due))
            if k == 0:
                break
            if i == cap:
                saved = dict(zip(ids_.tolist(), zip(*(a[:, None].copy() for a in (r_, p_, rr)))))
            for j, row, rn in zip(ids_.tolist() if i < cap else (), r_, np.sqrt(rr).ravel()):
                np.divide(row, rn, out=basis[j, i])
            gamma, alpha, rr = _step(op, r_, p_, rr, ids_, i)
            a, t, carry = 1.0 / gamma + carry, np.sqrt(alpha) / gamma, alpha / gamma
            d, c = a + betas - t_prev * l, c * l
            l, t_prev = t / d, t
            steps.append((live_ids, d, c, t))
            rel = t * np.abs(c / d)
            keep = (rel >= tol) & (rel < np.inf)   # never a stopped shift's, whose c is nan
            if np.count_nonzero(keep) == running:
                continue
            stopped = active & ~keep
            done = stopped & (rel < np.inf) & (np.abs(c) >= 1e-290)
            iterations_[done], residuals_[done] = i + 1, (b_col * rel)[done]
            iterations_[stopped & ~done], residuals_[stopped & ~done] = i, np.inf
            converged_ |= done
            active, c, running = keep, np.where(stopped, np.nan, c), np.count_nonzero(keep)
            live = active.any(axis=1)
            if not live.any():
                break
            if not live.all():
                k = _compact(live, state)
                r_, p_, ids_, iterations_, residuals_, converged_ = (a[:k] for a in state)
                b_col, rr, carry, t_prev, l, c, rel, active = (
                    a[live] for a in (b_col, rr, carry, t_prev, l, c, rel, active))
                live_ids = ids_.copy()

    # A run stopped before the last budget has no shift running, so its
    # final state is the one each budget it did not reach returns.
    residuals, iterations, converged = snaps.finish(results_at(budgets[-1]))
    applications = iterations.max(axis=-1)
    applications += np.maximum(applications - 1 - cap, 0)  # a second run's v_cap .. v_{n-1}

    def form(t: int) -> np.ndarray:
        """The m x n_shifts x dim solutions at the t-th budget, in system order."""
        y = _coordinates(steps, iterations[t]) * b_norms[:, None, None]
        sols = np.zeros((m, ns, op.dim))
        for j, ks in enumerate(iterations[t].tolist()):
            for c0, v in _chunks(op, basis[j], saved.get(j), j, max(ks), 2 * ns):
                for s, hi in enumerate(min(n_s, c0 + len(v)) for n_s in ks):
                    if c0 == 0:
                        np.matmul(y[j, s, :hi], v[:hi], out=sols[j, s])
                    elif hi > c0:
                        sols[j, s] += y[j, s, c0:hi] @ v[:hi - c0]
        return sols[0] if single else sols

    fields = [a[:, 0] if single else a for a in (residuals, iterations, converged, applications)]
    return ShiftedSolveResult(*(a[0] if one else a for a in fields), form,
                              None if one else len(budgets))


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

    For a tuple of budgets as max_iter, returns the n_budgets x dim x m
    stack whose [t] is what the call with max_iter = budgets[t] returns."""
    _check_tol(tol)
    budgets, one = _budgets(max_iter)
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim != 2 or rhs.shape[0] != op.dim:
        raise ValueError(f"rhs must be {op.dim} x m")
    m = rhs.shape[1]
    rhs_norms = np.linalg.norm(rhs, axis=0)
    if np.all(rhs_norms == 0.0):
        return np.zeros_like(rhs) if one else np.zeros((len(budgets), *rhs.shape))
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
    return ws[0] if one else ws
