"""CG, shifted CG, block CG, subspace iteration, 2x2 Rayleigh-Ritz."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdakit.krylov import (
    ConvergenceError,
    DegenerateSubspaceError,
    LinearOperator,
    ShiftGrid,
    SolverBreakdownError,
    as_shift_grid,
    block_cg,
    cg,
    rayleigh_ritz_2x2,
    shifted_cg,
    subspace_iteration,
)


def random_spd(rng, n, cond=100.0):
    """SPD matrix with known conditioning: Q diag(spec) Q^T."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spec = np.geomspace(1.0, cond, n)
    return (q * spec) @ q.T


def op_of(a):
    return LinearOperator.from_dense(a)


# ------------------------------------------------------------------------- cg


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
    op = LinearOperator(3, lambda v: np.zeros(3))
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


def test_block_duplicate_columns_break_down(rng):
    a = random_spd(rng, 20)
    b = rng.standard_normal(20)
    rhs = np.column_stack([b, b])
    with pytest.raises(SolverBreakdownError):
        block_cg(op_of(a), rhs, tol=1e-10, max_iter=100)


def test_block_callback_sees_residual_columns(rng):
    a = random_spd(rng, 25)
    rhs = rng.standard_normal((25, 2))
    seen = []
    block_cg(op_of(a), rhs, tol=1e-10, max_iter=200, callback=lambda i, r: seen.append((i, r.copy())))
    assert seen, "callback never invoked"
    assert seen[-1][1].shape == (2,)
    assert np.all(np.diff([i for i, _ in seen]) == 1)


# ---------------------------------------------------------- subspace iteration


def test_subspace_identity_returns_probe_block():
    dim, seed = 7, 99
    v = subspace_iteration(op_of(np.eye(dim)), lambda rhs: rhs, 1, seed)
    want = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(dim, 1))
    np.testing.assert_array_equal(v, want)


def test_subspace_rank_one_single_sweep(rng):
    u = rng.standard_normal(12)
    a = np.outer(u, u)
    v = subspace_iteration(op_of(a), lambda rhs: rhs, 1, 3)
    cos = abs(u @ v[:, 0]) / (np.linalg.norm(u) * np.linalg.norm(v[:, 0]))
    assert cos >= 1.0 - 1e-12


def test_subspace_low_rank_pencil_single_sweep(rng):
    """A rank-2, B SPD: one sweep spans the dominant pencil eigenspace;
    largest principal angle below 1e-6 rad versus a dense generalized
    eigensolve."""
    from scipy.linalg import eigh, subspace_angles

    n = 15
    u = rng.standard_normal((n, 2))
    a = u @ u.T
    b = random_spd(rng, n, cond=10.0)
    v = subspace_iteration(op_of(a), lambda rhs: np.linalg.solve(b, rhs), 2, 11)
    w_all, vec_all = eigh(a, b)
    dominant = vec_all[:, np.argsort(w_all)[::-1][:2]]
    assert subspace_angles(v, dominant).max() < 1e-6


def test_subspace_wraps_inner_failure():
    def failing_solve(rhs):
        raise SolverBreakdownError("inner")

    with pytest.raises(ConvergenceError):
        subspace_iteration(op_of(np.eye(3)), failing_solve, 1, 0)


# ---------------------------------------------------------- 2x2 Rayleigh-Ritz


def test_rr_coordinate_case():
    """A = diag(2,1,0), B = I, Z = (e1, e2): the projected pencil is
    already diagonal, so eigenvalues are (2, 1) exactly and the
    coefficients are the coordinate vectors."""
    a = np.diag([2.0, 1.0, 0.0])
    z = np.eye(3)[:, :2]
    lam, q = rayleigh_ritz_2x2(z, op_of(a), op_of(np.eye(3)))
    np.testing.assert_allclose(lam, [2.0, 1.0], rtol=1e-14)
    np.testing.assert_allclose(np.abs(q), np.eye(2), atol=1e-12)


def test_rr_exact_eigenvectors_of_diagonal_pencil():
    a = np.diag([3.0, 1.0])
    b = np.diag([1.0, 2.0])
    lam, _ = rayleigh_ritz_2x2(np.eye(2), op_of(a), op_of(b))
    np.testing.assert_allclose(lam, [3.0, 0.5], rtol=1e-14)


def test_rr_invariant_under_basis_rotation(rng):
    """Any basis of the same 2-dim invariant subspace gives the same
    Ritz values, and back-transformed vectors solve the full pencil."""
    n = 10
    b = random_spd(rng, n, cond=8.0)
    u = rng.standard_normal((n, 2))
    a = u @ u.T
    from scipy.linalg import eigh

    w_all, vec_all = eigh(a, b)
    idx = np.argsort(w_all)[::-1][:2]
    basis = vec_all[:, idx]
    mix = rng.standard_normal((2, 2)) + 3 * np.eye(2)
    z = basis @ mix
    lam, q = rayleigh_ritz_2x2(z, op_of(a), op_of(b))
    np.testing.assert_allclose(lam, w_all[idx], rtol=1e-9)
    ritz = z @ q
    for j in range(2):
        lhs = a @ ritz[:, j]
        rhs = lam[j] * (b @ ritz[:, j])
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(np.linalg.norm(rhs), 1e-12)


def test_rr_eigenvalues_descending(rng):
    b = random_spd(rng, 6)
    u = rng.standard_normal((6, 2))
    lam, _ = rayleigh_ritz_2x2(rng.standard_normal((6, 2)), op_of(u @ u.T), op_of(b))
    assert lam[0] >= lam[1]


def test_rr_degenerate_subspace_raises():
    z = np.ones((5, 2))  # dependent columns
    with pytest.raises(DegenerateSubspaceError):
        rayleigh_ritz_2x2(z, op_of(np.eye(5)), op_of(np.eye(5)))
