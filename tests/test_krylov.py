"""CG, shifted CG, block CG."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdakit import krylov
from sdakit.krylov import (
    LinearOperator,
    ShiftGrid,
    SolverBreakdownError,
    as_shift_grid,
    block_cg,
    cg,
    shifted_cg,
)
from conftest import update_cols


def random_spd(rng, n, cond=100.0):
    """SPD matrix with known conditioning: Q diag(spec) Q^T."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spec = np.geomspace(1.0, cond, n)
    return (q * spec) @ q.T


def op_of(a):
    return LinearOperator(a.shape[0], lambda V, systems: np.stack([a @ row for row in V]))


# ------------------------------------------------------------------------- cg


@pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1.0])
@pytest.mark.parametrize("solver", ["cg", "shifted_cg", "block_cg"])
def test_every_solver_rejects_a_tol_that_is_not_finite_and_positive(solver, tol):
    """One check, before any work: an infinite tol would pass at once, a
    NaN one never, and neither would say so."""
    op, b = op_of(np.eye(4)), np.arange(1.0, 5.0)
    run = {"cg": lambda: cg(op, b, tol=tol),
           "shifted_cg": lambda: shifted_cg(op, b, (0.0, 1.0), tol=tol),
           "block_cg": lambda: block_cg(op, b[:, None], tol=tol)}[solver]
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        run()
    assert op.n_applies == 0


def test_cg_zero_rhs_takes_zero_iterations():
    op = op_of(np.eye(4))
    w, hist = cg(op, np.zeros(4))
    np.testing.assert_array_equal(w, np.zeros(4))
    assert len(hist) == 1
    assert op.n_applies == 0


def test_cg_identity_converges_in_one_iteration():
    op = op_of(np.eye(5))
    b = np.arange(1.0, 6.0)
    w, hist = cg(op, b, tol=1e-12)
    np.testing.assert_allclose(w, b, rtol=1e-14)
    assert len(hist) - 1 == 1


def test_cg_diagonal_hand_case():
    """B = diag(1,2,4), b = ones: solution (1, 1/2, 1/4), exact within
    three iterations because B has three distinct eigenvalues."""
    op = op_of(np.diag([1.0, 2.0, 4.0]))
    w, hist = cg(op, np.ones(3), tol=1e-12)
    np.testing.assert_allclose(w, [1.0, 0.5, 0.25], rtol=1e-10)
    assert len(hist) - 1 <= 3


def test_cg_matches_dense_solve(rng):
    a = random_spd(rng, 60)
    b = rng.standard_normal(60)
    w, _ = cg(op_of(a), b, tol=1e-12, max_iter=300)
    want = np.linalg.solve(a, b)
    assert np.linalg.norm(w - want) <= 1e-8 * np.linalg.norm(want)


def test_cg_operator_applications_equal_iterations(rng):
    a = random_spd(rng, 40)
    op = op_of(a)
    _, hist = cg(op, rng.standard_normal(40), tol=1e-10, max_iter=200)
    assert op.n_applies == len(hist) - 1


def test_cg_respects_max_iter(rng):
    a = random_spd(rng, 50, cond=1e6)
    w, hist = cg(op_of(a), rng.standard_normal(50), tol=1e-16, max_iter=3)
    assert len(hist) - 1 == 3


def test_cg_breakdown_on_zero_operator():
    op = LinearOperator(3, lambda V, systems: np.zeros((len(V), 3)))
    with pytest.raises(SolverBreakdownError):
        cg(op, np.ones(3))


def test_cg_rejects_wrong_shape():
    with pytest.raises(ValueError):
        cg(op_of(np.eye(3)), np.ones(4))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 30))
def test_cg_property_matches_dense(seed, n):
    r = np.random.default_rng(seed)
    a = random_spd(r, n, cond=50.0)
    b = r.standard_normal(n)
    w, _ = cg(op_of(a), b, tol=1e-13, max_iter=10 * n)
    want = np.linalg.solve(a, b)
    assert np.linalg.norm(w - want) <= 1e-8 * np.linalg.norm(want)


# ----------------------------------------------------------------- shift grid


def test_shift_grid_validation():
    with pytest.raises(ValueError):
        ShiftGrid(np.array([]))
    with pytest.raises(ValueError):
        ShiftGrid(np.array([0.1, 0.1]))
    with pytest.raises(ValueError):
        ShiftGrid(np.array([-1.0]))
    grid = as_shift_grid((1.0, 0.1))  # sorts ascending
    np.testing.assert_array_equal(grid.betas, [0.1, 1.0])


# ----------------------------------------------------------------- shifted cg


def test_shifted_identity_closed_form():
    """(I + beta I) w = b gives w = b / (1 + beta), one iteration."""
    op = op_of(np.eye(6))
    b = np.arange(1.0, 7.0)
    res = shifted_cg(op, b, (0.0, 0.5, 2.0), tol=1e-12)
    for s, beta in enumerate([0.0, 0.5, 2.0]):
        np.testing.assert_allclose(res.solutions[:, s], b / (1.0 + beta), rtol=1e-12)
    assert res.all_converged
    assert op.n_applies == 1


def test_shifted_zero_grid_equals_plain_cg(rng):
    a = random_spd(rng, 35)
    b = rng.standard_normal(35)
    w_plain, _ = cg(op_of(a), b, tol=1e-11, max_iter=200)
    res = shifted_cg(op_of(a), b, (0.0,), tol=1e-11, max_iter=200)
    np.testing.assert_allclose(res.solutions[:, 0], w_plain, rtol=1e-12, atol=1e-14)


def test_shifted_matches_dense_per_shift(rng):
    """Every shifted solution solves its own system to tight residual."""
    grid = np.geomspace(1e-6, 1e3, 12)
    for trial in range(3):
        n = int(rng.integers(20, 120))
        a = random_spd(rng, n, cond=1e4)
        b = rng.standard_normal(n)
        res = shifted_cg(op_of(a), b, grid, tol=1e-10, max_iter=20 * n)
        assert res.all_converged
        for s, beta in enumerate(grid):
            want = np.linalg.solve(a + beta * np.eye(n), b)
            got = res.solutions[:, s]
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


def test_shifted_operator_count_is_single_basis(rng):
    """One operator application per base iteration regardless of grid size."""
    a = random_spd(rng, 50, cond=1e3)
    b = rng.standard_normal(50)
    op1 = op_of(a)
    r1 = shifted_cg(op1, b, (1e-3,), tol=1e-10, max_iter=500)
    op12 = op_of(a)
    r12 = shifted_cg(op12, b, np.geomspace(1e-3, 1e3, 12), tol=1e-10, max_iter=500)
    assert op12.n_applies == int(r12.iterations.max())
    # the 12-shift run's smallest shift dominates; cost comparable to 1-shift run
    assert op12.n_applies <= op1.n_applies + 2


def test_shifted_larger_shifts_freeze_no_later(rng):
    """(B + beta I) is better conditioned for larger beta, so the freeze
    iteration must be non-increasing along the ascending grid."""
    a = random_spd(rng, 80, cond=1e5)
    b = rng.standard_normal(80)
    res = shifted_cg(op_of(a), b, np.geomspace(1e-4, 1e2, 7), tol=1e-10, max_iter=2000)
    assert res.all_converged
    iters = res.iterations
    assert np.all(np.diff(iters) <= 0)


def test_shifted_singular_base_with_orthogonal_rhs():
    """Base system singular (graph-Laplacian-like) but b in its range:
    the zero shift still converges inside the Krylov space."""
    lap = np.array(
        [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]
    )
    b = np.array([1.0, 0.0, -1.0])  # orthogonal to the all-ones null vector
    res = shifted_cg(op_of(lap), b, (0.0, 0.1), tol=1e-12, max_iter=50)
    assert res.all_converged
    want0 = np.linalg.lstsq(lap, b, rcond=None)[0]
    got0 = res.solutions[:, 0]
    # compare after projecting out the null direction
    ones = np.ones(3) / np.sqrt(3)
    got0 = got0 - ones * (ones @ got0)
    want0 = want0 - ones * (ones @ want0)
    np.testing.assert_allclose(got0, want0, atol=1e-10)
    want1 = np.linalg.solve(lap + 0.1 * np.eye(3), b)
    np.testing.assert_allclose(res.solutions[:, 1], want1, atol=1e-10)


def test_shifted_residual_norms_certify_convergence(rng):
    a = random_spd(rng, 30)
    b = rng.standard_normal(30)
    grid = (1e-2, 1.0)
    res = shifted_cg(op_of(a), b, grid, tol=1e-9, max_iter=500)
    for s, beta in enumerate(grid):
        true_res = np.linalg.norm(b - (a + beta * np.eye(30)) @ res.solutions[:, s])
        assert true_res <= 10 * 1e-9 * np.linalg.norm(b)


def test_shifted_nonconvergence_is_reported(rng):
    a = random_spd(rng, 60, cond=1e8)
    b = rng.standard_normal(60)
    res = shifted_cg(op_of(a), b, (1e-9,), tol=1e-14, max_iter=2)
    assert not res.all_converged


def test_shifted_converged_solution_stays_frozen(rng):
    """A shift's solution after it converges is bit-equal to the solution
    of a run that stops at its freeze iteration."""
    a = random_spd(rng, 60, cond=1e4)
    b = rng.standard_normal(60)
    grid = np.geomspace(1e-3, 1e2, 6)
    long = shifted_cg(op_of(a), b, grid, tol=1e-10, max_iter=1000)
    assert long.all_converged
    assert np.unique(long.iterations).size > 1
    for s in range(grid.size):
        short = shifted_cg(op_of(a), b, grid, tol=1e-10, max_iter=int(long.iterations[s]))
        assert short.converged[s]
        assert short.iterations[s] == long.iterations[s]
        assert short.solutions[:, s].tobytes() == long.solutions[:, s].tobytes()


def test_shifted_zeta_underflow_freezes_unconverged(rng):
    """With a tolerance no shift can reach, the largest shifts' zeta
    underflows: they freeze early as non-converged, with residual inf and
    finite solutions that later iterations leave untouched."""
    a = random_spd(rng, 40, cond=1e8)
    b = rng.standard_normal(40)
    grid = np.geomspace(1e-2, 1e8, 6)
    runs = [shifted_cg(op_of(a), b, grid, tol=1e-300, max_iter=m) for m in (200, 400)]
    for res, max_iter in zip(runs, (200, 400)):
        assert np.all(np.isfinite(res.solutions))
        assert not res.converged.any()
        frozen = np.isinf(res.residual_norms)
        assert frozen[-1]
        assert np.all(res.iterations[frozen] < max_iter)
    frozen = np.flatnonzero(np.isinf(runs[0].residual_norms))
    np.testing.assert_array_equal(runs[0].iterations[frozen], runs[1].iterations[frozen])
    for s in frozen:
        assert runs[0].solutions[:, s].tobytes() == runs[1].solutions[:, s].tobytes()


def test_shifted_solution_columns_are_contiguous(rng):
    a = random_spd(rng, 30)
    b = rng.standard_normal(30)
    res = shifted_cg(op_of(a), b, np.geomspace(1e-2, 1e2, 5), tol=1e-10, max_iter=200)
    assert res.solutions.shape == (30, 5)
    for s in range(5):
        assert res.solutions[:, s].flags.c_contiguous


# ------------------------------------------------------------ lock-step rows


def per_system_operators(diags):
    """A block operator applying diag(diags[s]) to each row of system s,
    and each system's operator alone. The solver must hand every row
    the system it belongs to, also after systems stop and the block of
    live rows compacts."""
    diags = np.asarray(diags, dtype=float)
    block = LinearOperator(diags.shape[1], lambda V, systems: V * diags[systems])
    return block, [LinearOperator(d.size, lambda V, systems, d=d: np.stack([d * row for row in V]))
                   for d in diags]


def lockstep_case(name):
    """(diagonals, right-hand sides, tol, max_iter) of one block of systems."""
    r = np.random.default_rng(31)
    n = 40
    if name == "stop at different iterations":
        # spectra with 2, 5, 40 and 12 distinct eigenvalues
        diags = [np.repeat([1.0, 3.0], n // 2), np.repeat(np.geomspace(1, 50, 5), n // 5),
                 np.geomspace(1, 1e4, n), np.repeat(np.geomspace(1, 1e3, 12), 4)[:n]]
        return diags, r.standard_normal((4, n)), 1e-10, 500
    if name == "budget of 10":
        diags = [np.geomspace(1, c, n) for c in (1e6, 1e7, 1e5)]
        return diags, r.standard_normal((3, n)), 1e-12, 10
    if name == "one zero rhs":
        diags = [np.geomspace(1, c, n) for c in (1e2, 1e3, 1e4)]
        rhs = r.standard_normal((3, n))
        rhs[1] = 0.0
        return diags, rhs, 1e-10, 500
    raise KeyError(name)


LOCKSTEP_CASES = ["stop at different iterations", "budget of 10", "one zero rhs"]


def reference_cg(op, b, tol, max_iter):
    """Textbook CG on one vector with float scalars: the arithmetic each
    system of a lock-step solve must reproduce bit for bit."""
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(b.size), np.zeros(1)
    w, r, p, rr, history = np.zeros(b.size), b.copy(), b.copy(), b_norm * b_norm, [b_norm]
    for _ in range(max_iter):
        q = op(p)
        gamma = -rr / float(p @ q)
        w = w - gamma * p
        r = r + gamma * q
        rr_new = float(r @ r)
        history.append(np.sqrt(rr_new))
        if history[-1] < tol * b_norm:
            break
        p = r + (rr_new / rr) * p
        rr = rr_new
    return w, np.asarray(history)


def reference_shifted_cg(op, b, betas, tol, max_iter):
    """One vector's shifted CG, shift by shift in plain loops, with the
    same zeta recurrence: (solutions n_shifts x dim, iterations, residuals)."""
    b_norm = float(np.linalg.norm(b))
    ns = len(betas)
    sols, iterations = np.zeros((ns, b.size)), np.full(ns, max_iter)
    residuals = np.full(ns, b_norm)
    if b_norm == 0.0:
        return sols, np.zeros(ns, dtype=int), np.zeros(ns)
    r, p, big_p = b.copy(), b.copy(), [b.copy() for _ in betas]
    rr, gamma_prev, alpha = b_norm * b_norm, 1.0, 0.0
    zeta_prev, zeta, active = [1.0] * ns, [1.0] * ns, [True] * ns
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(max_iter):
            q = op(p)
            gamma = -rr / float(p @ q)
            r = r + gamma * q
            rr_new = float(r @ r)
            r_norm = np.sqrt(rr_new)
            alpha_new = rr_new / rr
            p = r + alpha_new * p
            for s, beta in enumerate(betas):
                if not active[s]:
                    continue
                denom = (gamma * alpha * (np.float64(zeta_prev[s]) - zeta[s])
                         + np.float64(zeta_prev[s]) * gamma_prev * (1.0 - beta * gamma))
                zeta_next = np.float64(zeta_prev[s]) * zeta[s] * gamma_prev / denom
                if not np.isfinite(zeta_next) or abs(zeta_next) < 1e-290:
                    active[s], iterations[s], residuals[s] = False, i + 1, np.inf
                    continue
                gamma_shift = gamma * zeta_next / zeta[s]
                sols[s] -= big_p[s] * gamma_shift
                if abs(zeta_next) * r_norm < tol * b_norm:
                    active[s], iterations[s] = False, i + 1
                    residuals[s] = abs(zeta_next) * r_norm
                    continue
                alpha_shift = alpha_new * (zeta_next * gamma_shift) / (zeta[s] * gamma)
                big_p[s] = big_p[s] * alpha_shift + zeta_next * r
                zeta_prev[s], zeta[s] = zeta[s], zeta_next
            gamma_prev, alpha, rr = gamma, alpha_new, rr_new
            if not any(active):
                break
    for s in range(ns):
        if active[s]:
            residuals[s] = abs(zeta[s]) * np.sqrt(rr)
    return sols, iterations, residuals


@pytest.mark.parametrize("name", LOCKSTEP_CASES)
def test_cg_rows_equal_one_vector_calls(name):
    diags, rhs, tol, max_iter = lockstep_case(name)
    block, singles = per_system_operators(diags)
    w, histories = cg(block, rhs, tol=tol, max_iter=max_iter)
    assert w.shape == rhs.shape and len(histories) == len(rhs)
    for j, (op1, b) in enumerate(zip(singles, rhs)):
        w1, h1 = cg(op1, b, tol=tol, max_iter=max_iter)
        assert w[j].tobytes() == w1.tobytes()
        assert histories[j].tobytes() == h1.tobytes()
        assert len(histories[j]) - 1 == op1.n_applies
        w_ref, h_ref = reference_cg(lambda v, d=diags[j]: d * v, b, tol, max_iter)
        assert w1.tobytes() == w_ref.tobytes() and h1.tobytes() == h_ref.tobytes()
    assert block.n_applies == sum(op1.n_applies for op1 in singles)
    iterations = [len(h) - 1 for h in histories]
    if name == "stop at different iterations":
        assert len(set(iterations)) == len(iterations)
    if name == "budget of 10":
        assert iterations == [10] * len(rhs)
    if name == "one zero rhs":
        assert iterations[1] == 0 and not w[1].any()


@pytest.mark.parametrize("name", LOCKSTEP_CASES)
def test_shifted_rows_equal_one_vector_calls(name):
    diags, rhs, tol, max_iter = lockstep_case(name)
    grid = np.geomspace(1e-4, 1e2, 7)
    block, singles = per_system_operators(diags)
    res = shifted_cg(block, rhs, grid, tol=tol, max_iter=max_iter)
    assert res.solutions.shape == (len(rhs), rhs.shape[1], grid.size)
    for j, (op1, b) in enumerate(zip(singles, rhs)):
        one = shifted_cg(op1, b, grid, tol=tol, max_iter=max_iter)
        for field in ("solutions", "residual_norms", "iterations", "converged"):
            got, want = getattr(res, field)[j], getattr(one, field)
            assert got.dtype == want.dtype and got.shape == want.shape, field
            assert got.tobytes() == want.tobytes(), field
        assert op1.n_applies == res.iterations[j].max()
        sols, iterations, residuals = reference_shifted_cg(
            lambda v, d=diags[j]: d * v, b, grid, tol, max_iter)
        assert one.solutions.T.tobytes() == sols.tobytes()
        assert one.iterations.tolist() == iterations.tolist()
        assert one.residual_norms.tobytes() == residuals.tobytes()
    assert block.n_applies == sum(op1.n_applies for op1 in singles)
    stops = res.iterations.max(axis=1)
    if name == "stop at different iterations":
        assert res.all_converged and len(set(stops.tolist())) == len(stops)
    if name == "budget of 10":
        assert (~res.converged).sum() > res.converged.size / 2
        assert stops.tolist() == [10] * len(rhs)
    if name == "one zero rhs":
        assert stops[1] == 0 and res.converged[1].all() and not res.solutions[1].any()


@pytest.mark.parametrize("name", LOCKSTEP_CASES)
def test_shifted_update_in_column_chunks_is_bit_equal(name, monkeypatch):
    """Updating the solution and search-direction blocks 7 columns at a
    time (of 40, so a ragged last chunk) gives every result field the same
    bits as one chunk of all 40: over a lock-step block whose systems stop and compact, whose
    shifts freeze at different iterations, and for one system alone."""
    diags, rhs, tol, max_iter = lockstep_case(name)
    grid = np.geomspace(1e-4, 1e2, 7)

    def run():
        return [shifted_cg(per_system_operators(diags)[0], rhs, grid, tol=tol, max_iter=max_iter),
                shifted_cg(per_system_operators(diags[:1])[0], rhs[0], grid, tol=tol,
                           max_iter=max_iter)]

    whole = run()
    update_cols(monkeypatch, 7)
    for got, want in zip(run(), whole):
        for field in ("solutions", "residual_norms", "iterations", "converged"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    frozen_apart = [len(set(row.tolist())) > 1 for row in whole[0].iterations]
    if name != "budget of 10":
        assert any(frozen_apart)


def test_only_a_block_with_systems_left_live_compacts(monkeypatch):
    """A single system stops with nothing left live, so it never moves its
    rows; a lock-step block whose systems stop apart still compacts, and
    still equals its systems solved one at a time."""
    diags, rhs, tol, max_iter = lockstep_case("stop at different iterations")
    grid = np.geomspace(1e-4, 1e2, 7)
    calls = []
    compact = krylov._compact
    monkeypatch.setattr(krylov, "_compact", lambda *args: calls.append(1) or compact(*args))
    block, singles = per_system_operators(diags)
    ones = [(cg(op1, b, tol=tol, max_iter=max_iter)[0],
             shifted_cg(op1, b, grid, tol=tol, max_iter=max_iter).solutions)
            for op1, b in zip(singles, rhs)]
    assert calls == []
    w, _ = cg(block, rhs, tol=tol, max_iter=max_iter)
    assert len(calls) == len(rhs) - 1
    res = shifted_cg(block, rhs, grid, tol=tol, max_iter=max_iter)
    assert len(calls) == 2 * (len(rhs) - 1)
    for j, (w1, sols1) in enumerate(ones):
        assert w[j].tobytes() == w1.tobytes()
        assert res.solutions[j].tobytes() == sols1.tobytes()


def test_cg_callback_sees_each_systems_latest_residual():
    diags, rhs, tol, max_iter = lockstep_case("stop at different iterations")
    block, singles = per_system_operators(diags)
    seen = []
    _, histories = cg(block, rhs, tol=tol, max_iter=max_iter,
                      callback=lambda i, norms: seen.append((i, norms)))
    assert [i for i, _ in seen] == list(range(1, len(seen) + 1))
    for i, norms in seen:
        assert norms.tolist() == [h[min(i, len(h) - 1)] for h in histories]
    one = []
    _, hist = cg(singles[2], rhs[2], tol=tol, max_iter=max_iter,
                 callback=lambda i, norm: one.append(norm))
    assert one == hist[1:].tolist()


@pytest.mark.parametrize("solver", ["cg", "shifted_cg"])
@pytest.mark.parametrize("fault, error", [
    (0.0, SolverBreakdownError), (np.inf, krylov.NumericalFailureError),
])
def test_rows_raise_when_one_system_fails(solver, fault, error):
    """One system's operator is singular along its right-hand side, or
    returns a non-finite value: the block solve raises the error the
    one-vector solve of that system raises."""
    n = 20
    diags = np.tile(np.geomspace(1, 1e3, n), (3, 1))
    diags[1, :5] = fault
    rhs = np.random.default_rng(4).standard_normal((3, n))
    rhs[1, 5:] = 0.0  # all of system 1's rhs meets the faulty entries
    block, singles = per_system_operators(diags)
    run = (lambda op, b: cg(op, b)) if solver == "cg" else (lambda op, b: shifted_cg(op, b, (1e-3, 1.0)))
    with pytest.raises(error):
        run(singles[1], rhs[1])
    with pytest.raises(error):
        run(block, rhs)
    run(singles[0], rhs[0])


def test_rows_reject_a_block_of_the_wrong_width():
    with pytest.raises(ValueError):
        cg(op_of(np.eye(3)), np.ones((2, 4)))
    with pytest.raises(ValueError):
        shifted_cg(op_of(np.eye(3)), np.ones((2, 3, 1)), (1.0,))


# ------------------------------------------------------------------- block cg


def test_block_identity_one_iteration():
    op = op_of(np.eye(5))
    rhs = np.arange(10.0).reshape(5, 2)
    w = block_cg(op, rhs, tol=1e-12, max_iter=10)
    np.testing.assert_allclose(w, rhs, rtol=1e-13, atol=1e-12)
    assert op.n_applies == 2  # one block application = one apply per column


def test_block_m1_equals_cg(rng):
    """Single-column block CG follows the same Krylov trajectory as plain
    CG; iterates agree up to roundoff accumulated at tol."""
    a = random_spd(rng, 40)
    b = rng.standard_normal(40)
    w_cg, _ = cg(op_of(a), b, tol=1e-11, max_iter=200)
    w_block = block_cg(op_of(a), b[:, None], tol=1e-11, max_iter=200)
    scale = np.linalg.norm(w_cg)
    assert np.linalg.norm(w_block[:, 0] - w_cg) <= 1e-8 * scale


def test_block_matches_dense_solves(rng):
    a = random_spd(rng, 70, cond=1e4)
    rhs = rng.standard_normal((70, 2))
    w = block_cg(op_of(a), rhs, tol=1e-11, max_iter=700)
    want = np.linalg.solve(a, rhs)
    for j in range(2):
        assert np.linalg.norm(w[:, j] - want[:, j]) <= 1e-8 * np.linalg.norm(want[:, j])


def search_blocks(a):
    """An operator of the dense a that records, through block_cg's
    callback, the search block P of each iteration: the rows it was
    applied to. Returns (op, callback, blocks)."""
    rows, blocks = [], []

    def apply(V, systems):
        rows.extend(row.copy() for row in V)
        return np.stack([a @ row for row in V])

    def callback(i, res):
        blocks.append(np.array(rows))
        rows.clear()
    return LinearOperator(a.shape[0], apply), callback, blocks


def orthonormality_loss(blocks):
    return max(np.abs(p @ p.T - np.eye(len(p))).max() for p in blocks)


def test_block_duplicate_columns_are_both_solved(rng):
    """R = [b, b] has one direction, so the search block holds one row
    from the start: every iteration applies the operator once, and both
    columns are the dense solve."""
    a = random_spd(rng, 20)
    b = rng.standard_normal(20)
    op, callback, blocks = search_blocks(a)
    w = block_cg(op, np.column_stack([b, b]), tol=1e-10, max_iter=100, callback=callback)
    want = np.linalg.solve(a, b)
    for j in range(2):
        assert np.linalg.norm(w[:, j] - want) <= 1e-8 * np.linalg.norm(want)
    assert [len(p) for p in blocks] == [1] * len(blocks)
    assert op.n_applies == len(blocks)
    assert orthonormality_loss(blocks) <= 1e-14


def test_block_drops_a_solved_column_from_the_search_block(rng):
    """B = diag(1..30) solves e_0 exactly at iteration 1. Its residual is
    then 0, so its direction leaves the search block: later iterations
    apply the operator once, and column 1 still reaches the dense solve."""
    b = np.diag(np.arange(1.0, 31.0))
    rhs = np.zeros((30, 2))
    rhs[0, 0] = 1.0
    rhs[1:, 1] = rng.standard_normal(29)
    op, record, blocks = search_blocks(b)
    seen = []

    def callback(i, res):
        record(i, res)
        seen.append(res.copy())
    w = block_cg(op, rhs, tol=1e-12, max_iter=100, callback=callback)
    want = np.linalg.solve(b, rhs)
    for j in range(2):
        assert np.linalg.norm(w[:, j] - want[:, j]) <= 1e-10 * np.linalg.norm(want[:, j])
    assert all(res[0] == 0.0 for res in seen) and seen[0][1] > 0.0 and len(seen) > 2
    assert [len(p) for p in blocks] == [2] + [1] * (len(blocks) - 1)
    assert op.n_applies == len(blocks) + 1
    assert orthonormality_loss(blocks) <= 1e-14


def test_block_search_block_is_orthonormal(rng):
    """The rows the operator sees are orthonormal up to eps times the
    squared condition of R + beta^T P, which grows as the two residuals
    align near convergence: 4e-11 here, over about 100 iterations."""
    a = random_spd(rng, 70, cond=1e4)
    op, callback, blocks = search_blocks(a)
    block_cg(op, rng.standard_normal((70, 2)), tol=1e-11, max_iter=700, callback=callback)
    assert len(blocks) > 10 and orthonormality_loss(blocks) <= 1e-8


def test_block_breakdown_on_zero_operator():
    op = LinearOperator(3, lambda V, systems: np.zeros((len(V), 3)))
    with pytest.raises(SolverBreakdownError):
        block_cg(op, np.eye(3)[:, :2])


def test_block_operator_returning_inf_is_a_numerical_failure():
    """Under tier-1's RuntimeWarning-as-error filter too: no numpy
    warning may come before the typed error."""
    op = LinearOperator(4, lambda V, systems: np.full(V.shape, np.inf))
    rhs = np.array([[1.0, -2.0], [3.0, 1.0], [-1.0, 0.5], [2.0, 2.0]])
    with pytest.raises(krylov.NumericalFailureError):
        block_cg(op, rhs)


def test_block_callback_sees_residual_columns(rng):
    a = random_spd(rng, 25)
    rhs = rng.standard_normal((25, 2))
    seen = []
    block_cg(op_of(a), rhs, tol=1e-10, max_iter=200, callback=lambda i, r: seen.append((i, r.copy())))
    assert seen, "callback never invoked"
    assert seen[-1][1].shape == (2,)
    assert np.all(np.diff([i for i, _ in seen]) == 1)


def test_block_requires_dim_by_m_rhs(rng):
    op = op_of(random_spd(rng, 6))
    for bad in (rng.standard_normal((2, 6)), rng.standard_normal(6)):
        with pytest.raises(ValueError, match="6 x m"):
            block_cg(op, bad)
    assert op.n_applies == 0



# ------------------------------------------------------------ budget snapshots


SNAPSHOT_BUDGETS = (1, 2, 4, 7, 13, 30, 500)


def snapshot_case():
    """The "stop at different iterations" block (its systems stop at
    different iterations, before, between and after the budgets) with a
    zero right-hand side appended."""
    diags, rhs, tol, _ = lockstep_case("stop at different iterations")
    return [*diags, diags[0]], np.vstack([rhs, np.zeros(rhs.shape[1])]), tol


def test_cg_budgets_equal_a_call_per_max_iter(monkeypatch):
    """One lock-step cg over ascending budgets gives, at each budget, the
    solutions and histories of the call with that max_iter, bit for bit,
    for a block and for one vector, and applies the operator only as often
    as the call with the last budget."""
    diags, rhs, tol = snapshot_case()
    compactions = []
    compact = krylov._compact
    monkeypatch.setattr(krylov, "_compact", lambda *args: compactions.append(1) or compact(*args))
    block = per_system_operators(diags)[0]
    w, histories = cg(block, rhs, tol=tol, max_iter=SNAPSHOT_BUDGETS)
    assert w.shape == (len(SNAPSHOT_BUDGETS), *rhs.shape) and len(histories) == len(SNAPSHOT_BUDGETS)
    assert compactions
    for t, k in enumerate(SNAPSHOT_BUDGETS):
        alone = per_system_operators(diags)[0]
        w_k, histories_k = cg(alone, rhs, tol=tol, max_iter=k)
        assert w[t].tobytes() == w_k.tobytes(), k
        assert [h.tobytes() for h in histories[t]] == [h.tobytes() for h in histories_k], k
        for j, b in enumerate(rhs):
            w_ref, h_ref = reference_cg(lambda v, d=diags[j]: d * v, b, tol, k)
            assert w[t, j].tobytes() == w_ref.tobytes() and histories[t][j].tobytes() == h_ref.tobytes()
    assert block.n_applies == alone.n_applies
    stops = [len(h) - 1 for h in histories[-1]]
    assert stops[-1] == 0 and not w[:, -1].any()  # the zero rhs
    assert any(s < k < max(stops) for s in stops for k in SNAPSHOT_BUDGETS)
    assert max(stops) < SNAPSHOT_BUDGETS[-1]

    op1 = per_system_operators(diags[:1])[0]
    w1, histories1 = cg(op1, rhs[0], tol=tol, max_iter=SNAPSHOT_BUDGETS)
    for t, k in enumerate(SNAPSHOT_BUDGETS):
        w_k, h_k = cg(per_system_operators(diags[:1])[0], rhs[0], tol=tol, max_iter=k)
        assert w1[t].tobytes() == w_k.tobytes() and histories1[t].tobytes() == h_k.tobytes()


def test_shifted_budgets_equal_a_call_per_max_iter(monkeypatch):
    """One lock-step shifted_cg over ascending budgets gives, at each
    budget, every field of the call with that max_iter, bit for bit: a
    shift still in flight ends at the budget with its residual there,
    shifts freeze between two budgets, systems stop and are compacted out
    before others, and the last budget lies beyond convergence."""
    diags, rhs, tol = snapshot_case()
    grid = np.geomspace(1e-4, 1e2, 7)
    compactions = []
    compact = krylov._compact
    monkeypatch.setattr(krylov, "_compact", lambda *args: compactions.append(1) or compact(*args))
    block = per_system_operators(diags)[0]
    res = shifted_cg(block, rhs, grid, tol=tol, max_iter=SNAPSHOT_BUDGETS)
    assert res.solutions.shape == (len(SNAPSHOT_BUDGETS), len(rhs), rhs.shape[1], grid.size)
    assert compactions
    for t, k in enumerate(SNAPSHOT_BUDGETS):
        alone = per_system_operators(diags)[0]
        one = shifted_cg(alone, rhs, grid, tol=tol, max_iter=k)
        for field in ("solutions", "residual_norms", "iterations", "converged"):
            got, want = getattr(res, field)[t], getattr(one, field)
            assert got.dtype == want.dtype and got.shape == want.shape, field
            assert got.tobytes() == want.tobytes(), (field, k)
        for j, b in enumerate(rhs):
            sols, iterations, residuals = reference_shifted_cg(
                lambda v, d=diags[j]: d * v, b, grid, tol, k)
            assert res.solutions[t, j].T.tobytes() == sols.tobytes()
            assert res.iterations[t, j].tolist() == iterations.tolist()
            assert res.residual_norms[t, j].tobytes() == residuals.tobytes()
    assert block.n_applies == alone.n_applies
    final = res.iterations[-1]
    assert res.all_converged is False and res.converged[-1].all()
    assert final.max() < SNAPSHOT_BUDGETS[-1]
    # A shift that freezes strictly between two budgets, and a system that
    # stops while another runs past the next budget.
    between = [(a, b) for a, b in zip(SNAPSHOT_BUDGETS, SNAPSHOT_BUDGETS[1:])
               if ((final > a) & (final < b)).any()]
    assert between
    stops = final.max(axis=1)
    assert any(s < k < stops.max() for s in stops for k in SNAPSHOT_BUDGETS)
    assert stops[-1] == 0 and res.converged[:, -1].all()  # the zero rhs

    op1 = per_system_operators(diags[:1])[0]
    one_vector = shifted_cg(op1, rhs[0], grid, tol=tol, max_iter=SNAPSHOT_BUDGETS)
    for t, k in enumerate(SNAPSHOT_BUDGETS):
        one = shifted_cg(per_system_operators(diags[:1])[0], rhs[0], grid, tol=tol, max_iter=k)
        for field in ("solutions", "residual_norms", "iterations", "converged"):
            assert getattr(one_vector, field)[t].tobytes() == getattr(one, field).tobytes()


def test_block_budgets_equal_a_call_per_max_iter(rng):
    """One block_cg over ascending budgets stacks, on a leading axis, W at
    each budget, bit for bit and as contiguous as the call with that
    max_iter, up to a budget beyond convergence; an all-zero right-hand
    side gives zeros at each."""
    a = random_spd(rng, 60, cond=1e4)
    rhs = rng.standard_normal((60, 3))
    budgets = (1, 3, 8, 20, 500)
    op = op_of(a)
    seen = []
    ws = block_cg(op, rhs, tol=1e-10, max_iter=budgets, callback=lambda i, r: seen.append(i))
    assert ws.shape == (len(budgets), 60, 3)
    assert seen[-1] < budgets[-1]
    for t, k in enumerate(budgets):
        alone = op_of(a)
        w_k = block_cg(alone, rhs, tol=1e-10, max_iter=k)
        assert ws[t].flags.c_contiguous and ws[t].tobytes() == w_k.tobytes(), k
    assert op.n_applies == alone.n_applies
    zeros = block_cg(op_of(a), np.zeros((60, 2)), max_iter=(2, 5))
    assert zeros.shape == (2, 60, 2) and not zeros.any()


@pytest.mark.parametrize("budgets", [(5, 3), (3, 3), ()])
def test_budgets_must_ascend(budgets):
    op = op_of(np.eye(4))
    b = np.arange(1.0, 5.0)
    for run in (lambda: cg(op, b, max_iter=budgets),
                lambda: shifted_cg(op, b, (0.0, 1.0), max_iter=budgets),
                lambda: block_cg(op, b[:, None], max_iter=budgets)):
        with pytest.raises(ValueError, match="ascending"):
            run()
    assert op.n_applies == 0


@pytest.mark.parametrize("solver", ["cg", "shifted_cg"])
def test_budget_snapshots_are_held_once(solver):
    """A solve over eight budgets peaks (tracemalloc) at most its eight
    snapshots above the same solve with one budget: each snapshot is
    copied once, into the result."""
    import tracemalloc

    m, n = 4, 20_000
    d = np.geomspace(1, 1e6, n)
    op = LinearOperator(n, lambda V, systems: V * d)
    rhs = np.random.default_rng(2).standard_normal((m, n))
    grid = (1e-3, 1e-1)
    run = {"cg": lambda k: cg(op, rhs, tol=1e-30, max_iter=k),
           "shifted_cg": lambda k: shifted_cg(op, rhs, grid, tol=1e-30, max_iter=k)}[solver]
    budgets = (2, 3, 5, 10, 20, 40, 60, 80)

    def peak(k):
        tracemalloc.start()
        try:
            run(k)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    snapshot = m * n * 8 * (1 if solver == "cg" else len(grid))
    assert peak(budgets) <= peak((budgets[-1],)) + len(budgets) * snapshot + 2**16
