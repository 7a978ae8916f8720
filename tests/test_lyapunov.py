"""Lyapunov solves, shifted solves, and the congestion cost."""

import numpy as np
import pytest
from scipy import linalg

from greensplit.errors import SolveFailure, UnstableMatrix, ValidationError
from greensplit.lyapunov import (BASE, ShiftedLyapunov, congestion_cost, gramian,
                                 solve_lyapunov, spectral_abscissa)

from conftest import make_hurwitz


def kron_solve(a, d):
    """Dense reference solve of A X + X A^T + D = 0 via vectorization."""
    n = a.shape[0]
    lhs = np.kron(np.eye(n), a) + np.kron(a, np.eye(n))
    return np.linalg.solve(lhs, -d.reshape(-1, order="F")).reshape((n, n), order="F")


def test_matches_kron_reference():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a = make_hurwitz(rng, n)
        d = rng.standard_normal((n, n))
        d = d + d.T
        x = solve_lyapunov(a, d)
        ref = kron_solve(a, d)
        assert np.linalg.norm(x - ref) <= 1e-8 * (1.0 + np.linalg.norm(ref))


def test_residual_direct():
    rng = np.random.default_rng(3)
    a = make_hurwitz(rng, 7)
    d = np.eye(7)
    x = solve_lyapunov(a, d)
    res = a @ x + x @ a.T + d
    assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(d)


def test_unstable_matrix_rejected():
    with pytest.raises(UnstableMatrix):
        solve_lyapunov(np.array([[0.5]]), np.eye(1))


def test_shifted_solver_reuses_one_decomposition():
    rng = np.random.default_rng(5)
    a = make_hurwitz(rng, 6)
    d = np.eye(6)
    solver = ShiftedLyapunov(a)
    for shift in (-0.5, 0.0, 0.3, 1.0):
        # shifting right by `shift` keeps a - shift*I Hurwitz for shift >= 0
        if spectral_abscissa(a - shift * np.eye(6)) >= 0:
            continue
        u = solver.u
        x = u @ solver.solve(-(u.T @ d @ u), shift=shift) @ u.T
        res = (a - shift * np.eye(6)) @ x + x @ (a - shift * np.eye(6)).T + d
        assert np.linalg.norm(res) <= 1e-9 * (1.0 + np.linalg.norm(d))


def test_adjoint_solve():
    rng = np.random.default_rng(6)
    a = make_hurwitz(rng, 5)
    d = rng.standard_normal((5, 5))
    d = d @ d.T
    solver = ShiftedLyapunov(a)
    u = solver.u
    q = u @ solver.solve(-(u.T @ d @ u), shift=0.0, adjoint=True) @ u.T
    res = a.T @ q + q @ a + d
    assert np.linalg.norm(res) <= 1e-9 * (1.0 + np.linalg.norm(d))


def test_singular_shift_raises_solve_failure():
    a = np.diag([-1.0, -2.0])
    solver = ShiftedLyapunov(a)
    with pytest.raises(SolveFailure):
        # a - shift*I has a zero eigenvalue
        solver.solve(-(solver.u.T @ solver.u), shift=-1.0)


def test_abscissa_property():
    rng = np.random.default_rng(8)
    a = make_hurwitz(rng, 6)
    solver = ShiftedLyapunov(a)
    assert solver.abscissa == pytest.approx(np.linalg.eigvals(a).real.max(), abs=1e-10)
    assert spectral_abscissa(a) == pytest.approx(solver.abscissa, abs=1e-12)


def test_gramian_is_psd():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = make_hurwitz(rng, 5)
        x0 = rng.standard_normal(5)
        w = gramian(a, x0)
        np.testing.assert_allclose(w, w.T, atol=1e-12)
        assert np.linalg.eigvalsh(w).min() >= -1e-10


def test_cost_scalar_closed_form():
    # a=-1: W = x0^2/2, cost = c^2 x0^2 / 2
    cost = congestion_cost(np.array([[-1.0]]), np.array([[1.0]]), np.array([1.0]))
    assert cost == pytest.approx(0.5, abs=1e-12)


def test_cost_infinite_when_unstable():
    cost = congestion_cost(np.array([[0.1]]), np.eye(1), np.ones(1))
    assert cost == np.inf


def test_cost_zero_state():
    cost = congestion_cost(np.array([[-1.0]]), np.eye(1), np.zeros(1))
    assert cost == 0.0


def test_non_square_rejected():
    with pytest.raises(Exception):
        ShiftedLyapunov(np.ones((2, 3)))


def test_solve_shape_mismatch():
    solver = ShiftedLyapunov(-np.eye(3))
    with pytest.raises(Exception):
        solver.solve(np.eye(2))


# -- the recursive kernel against scipy ----------------------------------------

def quasi_triangular(rng, n, pairs):
    """Random stable matrix in standardized real Schur form: upper
    triangular, with a 2x2 block (equal diagonal entries, off-diagonal
    entries of opposite sign) on rows ``j, j + 1`` for each ``j`` in
    ``pairs``."""
    t = np.triu(rng.standard_normal((n, n)), 1) / np.sqrt(n)
    t[np.diag_indices(n)] = -rng.uniform(0.1, 2.0, n)
    for j in pairs:
        t[j + 1, j + 1] = t[j, j]
        t[j, j + 1] = rng.uniform(0.2, 1.0)
        t[j + 1, j] = -rng.uniform(0.2, 1.0)
    return t


@pytest.mark.parametrize("n", [BASE - 1, BASE, BASE + 1, 2 * BASE + 1, 144])
def test_recursive_solve_matches_scipy_with_a_pair_at_every_position(n):
    # a complex pair on rows (j, j + 1) for every j: wherever the recursion
    # would halve the matrix, some case puts a 2x2 block across the cut
    rng = np.random.default_rng(n)
    worst = 0.0
    for j in range(n - 1):
        a = quasi_triangular(rng, n, [j])
        solver = ShiftedLyapunov(a)
        assert solver.t[j + 1, j] != 0.0
        u = solver.u
        z = rng.standard_normal(n)
        d = np.outer(z, z)    # rank-1 source, as in the smoothing search
        near = solver.abscissa + 1e-6 * rng.uniform(0.1, 1.0)
        # the far shift only at the smaller sizes, to keep the sweep quick
        for shift in (near,) if n > 2 * BASE + 1 else (near, solver.abscissa + 1.0):
            shifted = a - shift * np.eye(n)
            for adjoint in (False, True):
                ref = linalg.solve_continuous_lyapunov(
                    shifted.T if adjoint else shifted, -d)
                x = u @ solver.solve(-(u.T @ d @ u), shift=shift, adjoint=adjoint) @ u.T
                worst = max(worst, np.linalg.norm(x - ref) / np.linalg.norm(ref))
    assert worst <= 1e-10


def _scaled_system(adjoint):
    rng = np.random.default_rng(41)
    n = 2 * BASE + 1
    solver = ShiftedLyapunov(quasi_triangular(rng, n, [n // 4, n // 2 - 1]))
    z = rng.standard_normal(n)
    rhs = -np.outer(z, z)
    shift = solver.abscissa + 0.1
    return solver, rhs, shift, solver.solve(rhs, shift=shift, adjoint=adjoint)


def _blocks(solver, rhs, shift, adjoint):
    """Number of trsyl calls (diagonal and off-diagonal blocks) in one solve."""
    trsyl = solver._trsyl
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return trsyl(*args, **kwargs)

    solver._trsyl = counted
    solver.solve(rhs, shift=shift, adjoint=adjoint)
    solver._trsyl = trsyl
    return len(calls)


@pytest.mark.parametrize("adjoint", [False, True])
def test_block_scale_propagates_to_every_block(adjoint):
    # trsyl may solve for scale * C to avoid overflow; forcing scale = 1/2
    # on any one block must leave the returned solution unchanged
    solver, rhs, shift, expected = _scaled_system(adjoint)
    trsyl = solver._trsyl
    blocks = _blocks(solver, rhs, shift, adjoint)
    assert blocks >= 5
    for target in range(blocks):
        seen = []

        def halved(*args, **kwargs):
            y, scale, info = trsyl(*args, **kwargs)
            if len(seen) == target:
                y, scale = 0.5 * y, 0.5 * scale
            seen.append(target)
            return y, scale, info

        solver._trsyl = halved
        got = solver.solve(rhs, shift=shift, adjoint=adjoint)
        assert len(seen) == blocks
        np.testing.assert_allclose(got, expected, rtol=0,
                                   atol=1e-14 * np.linalg.norm(expected))


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("scale, info", [(1.0, 1), (0.0, 0)])
def test_any_block_breakdown_is_a_solve_failure(adjoint, scale, info):
    solver, rhs, shift, _ = _scaled_system(adjoint)
    trsyl = solver._trsyl
    blocks = _blocks(solver, rhs, shift, adjoint)
    for target in range(blocks):
        seen = []

        def broken(*args, **kwargs):
            y, s, i = trsyl(*args, **kwargs)
            if len(seen) == target:
                s, i = scale, info
            seen.append(target)
            return y, s, i

        solver._trsyl = broken
        with pytest.raises(SolveFailure, match="broke down"):
            solver.solve(rhs, shift=shift, adjoint=adjoint)


@pytest.mark.parametrize("n", [6, 40, 144])
def test_abscissa_from_schur_diagonal_with_a_pair_on_top(n):
    # the rightmost eigenvalues are a complex pair; LAPACK's standardized
    # 2x2 block carries their real part on both diagonal entries
    rng = np.random.default_rng(n)
    t = quasi_triangular(rng, n, range(0, n - 1, 4))
    t[0, 0] = t[1, 1] = -0.05
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q @ t @ q.T
    eigs = np.linalg.eigvals(a)
    assert abs(eigs[np.argmax(eigs.real)].imag) > 0.1
    solver = ShiftedLyapunov(a)
    assert solver.abscissa == pytest.approx(eigs.real.max(), abs=1e-12)
    assert solver.abscissa == pytest.approx(-0.05, abs=1e-12)
