"""Smoothed spectral abscissa: root finding and the duration gradient."""

import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov
from scipy.optimize import brentq

from greensplit import dynamics
from greensplit.errors import (DegenerateSystem, DimensionError, SolveFailure,
                               ValidationError, ZeroTrace)
from greensplit.lyapunov import (ShiftedLyapunov, congestion_cost,
                                 spectral_abscissa)
from greensplit.ssa import (ROOT_TOL, SmoothedAbscissa, duration_gradient,
                            smoothed_abscissa)

from conftest import make_hurwitz


def scalar_case(epsilon):
    a = np.array([[-1.0]])
    return smoothed_abscissa(a, np.array([[1.0]]), np.array([1.0]), epsilon)


def test_scalar_closed_form():
    # g(s) = 1/(2(s+1)) = 1/eps  =>  s = -1 + eps/2
    for eps in (0.5, 1.0, 2.0):
        res = scalar_case(eps)
        assert res.value == pytest.approx(-1.0 + eps / 2.0, abs=1e-10)


def test_root_satisfies_trace_equation():
    rng = np.random.default_rng(21)
    for _ in range(10):
        a = make_hurwitz(rng, 6)
        c = rng.standard_normal((2, 6))
        x0 = rng.standard_normal(6)
        res = smoothed_abscissa(a, c, x0, 1.0)
        assert res.trace_value == pytest.approx(1.0, rel=1e-8)
        assert res.value > spectral_abscissa(a)


def test_upper_bound_tightens_as_epsilon_shrinks():
    rng = np.random.default_rng(22)
    a = make_hurwitz(rng, 5)
    c = np.eye(5)
    x0 = np.ones(5)
    alpha = spectral_abscissa(a)
    values = [smoothed_abscissa(a, c, x0, eps).value for eps in (1.0, 0.1, 0.01)]
    assert values[0] > values[1] > values[2] > alpha
    assert values[2] - alpha < values[0] - alpha


def test_trace_is_decreasing_in_shift():
    rng = np.random.default_rng(23)
    a = make_hurwitz(rng, 5)
    c = np.eye(5)
    x0 = np.ones(5)
    solver = ShiftedLyapunov(a)
    src = np.outer(x0, x0)
    alpha = solver.abscissa
    shifts = alpha + np.array([0.1, 0.5, 1.0, 2.0, 5.0])
    u = solver.u
    values = [np.trace(c @ u @ solver.solve(-(u.T @ src @ u), shift=s) @ u.T @ c.T)
              for s in shifts]
    assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))


def test_shifted_matrix_is_hurwitz_at_root():
    rng = np.random.default_rng(24)
    a = make_hurwitz(rng, 6)
    res = smoothed_abscissa(a, np.eye(6), np.ones(6), 0.5)
    assert spectral_abscissa(a - res.value * np.eye(6)) < 0


def test_solution_matrices_solve_their_equations():
    rng = np.random.default_rng(25)
    a = make_hurwitz(rng, 5)
    c = rng.standard_normal((3, 5))
    x0 = rng.standard_normal(5)
    res = smoothed_abscissa(a, c, x0, 0.7)
    shifted = a - res.value * np.eye(5)
    p_res = shifted @ res.P + res.P @ shifted.T + np.outer(x0, x0)
    q_res = shifted.T @ res.Q + res.Q @ shifted + c.T @ c
    assert np.linalg.norm(p_res) <= 1e-8 * (1 + np.linalg.norm(res.P))
    assert np.linalg.norm(q_res) <= 1e-8 * (1 + np.linalg.norm(res.Q))


def test_schur_coordinate_search_matches_scipy(four_modes, four_output, monkeypatch):
    # n = 36 runs the recursive kernel; the search sees only Schur
    # coordinates, so check what it returns in the original ones, and that
    # each evaluation is one P and one Q solve
    calls = []
    solve = ShiftedLyapunov.solve

    def counted(self, rhs, shift=0.0, adjoint=False):
        calls.append(adjoint)
        return solve(self, rhs, shift=shift, adjoint=adjoint)

    a = dynamics.average_matrix(four_modes)
    x0 = np.ones(four_modes.n)
    eps = 0.5 / congestion_cost(a, four_output, x0)
    monkeypatch.setattr(ShiftedLyapunov, "solve", counted)
    res = smoothed_abscissa(a, four_output, x0, eps)
    assert calls == [False, True] * res.evaluations
    shifted = a - res.value * np.eye(four_modes.n)
    p = solve_continuous_lyapunov(shifted, -np.outer(x0, x0))
    q = solve_continuous_lyapunov(shifted.T, -four_output.T @ four_output)
    assert np.linalg.norm(res.P - p) <= 1e-10 * np.linalg.norm(p)
    assert np.linalg.norm(res.Q - q) <= 1e-10 * np.linalg.norm(q)
    np.testing.assert_array_equal(res.P, res.P.T)
    assert res.trace_value == pytest.approx(np.trace(four_output @ p @ four_output.T),
                                            rel=1e-10)


def test_epsilon_must_be_positive():
    a = np.array([[-1.0]])
    with pytest.raises(ValidationError):
        smoothed_abscissa(a, np.eye(1), np.ones(1), 0.0)
    with pytest.raises(ValidationError):
        smoothed_abscissa(a, np.eye(1), np.ones(1), -1.0)


def test_unobservable_state_degenerates():
    # x0 lives in a block the output cannot see
    a = np.diag([-1.0, -2.0])
    c = np.array([[0.0, 1.0]])
    x0 = np.array([1.0, 0.0])
    with pytest.raises(DegenerateSystem):
        smoothed_abscissa(a, c, x0, 1.0)


def test_zero_state_degenerates():
    with pytest.raises(DegenerateSystem):
        smoothed_abscissa(np.diag([-1.0]), np.eye(1), np.zeros(1), 1.0)


def test_gradient_zero_trace_guard(four_modes):
    n = four_modes.n
    fake = SmoothedAbscissa(
        value=0.0, abscissa=-1.0, epsilon=1.0,
        P=np.zeros((n, n)), Q=np.zeros((n, n)),
        trace_value=1.0, evaluations=1,
    )
    with pytest.raises(ZeroTrace):
        duration_gradient(four_modes, fake)


def test_gradient_matches_finite_differences(four_modes, four_output):
    x0 = np.ones(four_modes.n)
    d = four_modes.durations.astype(float)
    total = d.sum()
    a = dynamics.average_matrix(four_modes, d)
    eps = 0.5 / np.trace(four_output @ np.linalg.solve(
        -(np.kron(np.eye(four_modes.n), a) + np.kron(a, np.eye(four_modes.n))),
        np.outer(x0, x0).reshape(-1, order="F")).reshape(
            (four_modes.n, four_modes.n), order="F") @ four_output.T)
    res = smoothed_abscissa(a, four_output, x0, eps)
    grad = duration_gradient(four_modes, res, d)

    # the gradient convention holds the cycle time fixed, so the probe must
    # too: bump the weighted sum directly instead of renormalizing
    step = 1e-5 * total
    fd = np.zeros_like(grad)
    for i in range(d.size):
        delta = (step / total) * four_modes.modes[i]
        hi = smoothed_abscissa(a + delta, four_output, x0, eps, tol=1e-14).value
        lo = smoothed_abscissa(a - delta, four_output, x0, eps, tol=1e-14).value
        fd[i] = (hi - lo) / (2 * step)
    mask = np.abs(grad) > 1e-8
    assert mask.any()
    rel = np.abs(fd[mask] - grad[mask]) / np.abs(grad[mask])
    assert rel.max() < 1e-5


@pytest.mark.parametrize("durations, error", [
    ([1.0, 2.0], DimensionError),
    ([np.nan, 25.0, 25.0, 25.0], ValidationError),
    ([-1.0, 35.0, 35.0, 31.0], ValidationError),
    ([np.inf, 25.0, 25.0, 25.0], ValidationError),
    ([0.0, 0.0, 0.0, 0.0], ValidationError),
], ids=["length", "nan", "negative", "inf", "zero-sum"])
def test_gradient_rejects_bad_durations(four_modes, four_output, durations, error):
    # the gradient reads only the sum of the durations; it checks them as
    # average_matrix does, where they gave NaN, zero or wrong gradients
    a = dynamics.average_matrix(four_modes)
    res = smoothed_abscissa(a, four_output, np.ones(four_modes.n), 0.001)
    with pytest.raises(error):
        duration_gradient(four_modes, res, np.array(durations))


def test_identical_modes_share_gradient(four_modes):
    from greensplit.dynamics import ModeSet
    a = four_modes.modes[0]
    twin = ModeSet(modes=(a, a.copy()), durations=np.array([30.0, 70.0]),
                   input_map=four_modes.input_map)
    x0 = np.ones(a.shape[0])
    c = np.eye(a.shape[0])
    res = smoothed_abscissa(dynamics.average_matrix(twin), c, x0, 0.5)
    grad = duration_gradient(twin, res)
    assert grad[0] == pytest.approx(grad[1], rel=1e-12)


def test_gradient_duration_scale(four_modes, four_output):
    # the gradient is taken at fixed total time: scaling d leaves A_av and
    # the root unchanged, and the gradient scales by 1/c
    x0 = np.ones(four_modes.n)
    d = np.array([40.0, 20.0, 20.0, 20.0])
    a = dynamics.average_matrix(four_modes, d)
    res = smoothed_abscissa(a, four_output, x0, 0.001)
    g1 = duration_gradient(four_modes, res, d)
    g2 = duration_gradient(four_modes, res, 2.0 * d)
    np.testing.assert_allclose(g2, 0.5 * g1, rtol=1e-12)


def _reference_trace(a, c, x0, s):
    """g(s) from scipy's own Lyapunov solver, independent of the Schur cache."""
    n = a.shape[0]
    p = solve_continuous_lyapunov(a - s * np.eye(n), -np.outer(x0, x0))
    return float(np.trace(c @ p @ c.T))


def test_root_matches_brentq_oracle():
    rng = np.random.default_rng(31)
    for _ in range(8):
        n = int(rng.integers(2, 8))
        a = make_hurwitz(rng, n)
        c = rng.standard_normal((2, n))
        x0 = rng.standard_normal(n)
        alpha = spectral_abscissa(a)
        # place the root at a known offset, then bracket it for brentq
        offset = rng.uniform(0.05, 2.0)
        eps = 1.0 / _reference_trace(a, c, x0, alpha + offset)
        ref = brentq(lambda s: _reference_trace(a, c, x0, s) - 1.0 / eps,
                     alpha + 0.5 * offset, alpha + 2.0 * offset + 1.0,
                     xtol=1e-15, rtol=1e-15)
        res = smoothed_abscissa(a, c, x0, eps)
        assert abs(res.value - ref) <= 1e-9 * (1.0 + abs(ref))


def test_pinched_root_stays_above_abscissa():
    # with a tiny weight the root sits closer to the abscissa than the
    # tolerance (for a = -1 it is -1 + eps/2, which rounds to -1)
    cases = [(np.array([[-1.0]]), np.eye(1), np.ones(1)),
             (np.diag([-0.5, -1.0, -3.0]), np.ones((1, 3)), np.ones(3))]
    for a, c, x0 in cases:
        for eps in (1e-12, 1e-16):
            res = smoothed_abscissa(a, c, x0, eps)
            assert res.value > res.abscissa
            assert res.value - res.abscissa <= 1e-9 * (1.0 + abs(res.abscissa))
            assert np.all(np.isfinite(res.P)) and np.all(np.isfinite(res.Q))


def test_root_near_the_pole_is_resolved():
    # near the pole the adjoint solutions are large (trace(Q) about 1e7 on
    # this matrix); their residuals scale with |Q|, so a bound that ignores
    # the size of the solution used to reject them; the root lies about
    # 1e-13 above the abscissa
    a = make_hurwitz(np.random.default_rng(33), 6)
    res = smoothed_abscissa(a, np.eye(6), np.ones(6), 1e-12)
    assert res.abscissa < res.value <= res.abscissa + ROOT_TOL * (1.0 + abs(res.abscissa))
    assert np.all(np.isfinite(res.P)) and np.all(np.isfinite(res.Q))


def test_adjoint_failure_near_pinched_root_is_reported(monkeypatch):
    # inject a failure into every adjoint solve closer than 1e-7 to the
    # abscissa while the P solves there succeed: a Q failure must not move
    # the bracket, so the P iterates still close in on the true root, and
    # with no P/Q pair there the search reports the failure instead of
    # returning an iterate far above the root
    a = make_hurwitz(np.random.default_rng(33), 6)
    root = smoothed_abscissa(a, np.eye(6), np.ones(6), 1e-12).value
    solve = ShiftedLyapunov.solve
    p_shifts = []

    def faulty(self, d, shift=0.0, adjoint=False):
        if not adjoint:
            p_shifts.append(shift)
        elif shift < self.abscissa + 1e-7:
            raise SolveFailure("injected adjoint failure")
        return solve(self, d, shift=shift, adjoint=adjoint)

    monkeypatch.setattr(ShiftedLyapunov, "solve", faulty)
    with pytest.raises(SolveFailure):
        smoothed_abscissa(a, np.eye(6), np.ones(6), 1e-12)
    assert abs(p_shifts[-1] - root) <= ROOT_TOL * (1.0 + abs(root))


def test_newton_search_evaluation_budget(four_modes, four_output):
    # measured on this fixture: 5-6 evaluations; bisection to the same
    # tolerance needs over 30
    x0 = np.ones(four_modes.n)
    a = dynamics.average_matrix(four_modes, four_modes.durations.astype(float))
    cost = congestion_cost(a, four_output, x0)
    for factor in (0.3, 0.9, 1.0, 1.5, 3.0):
        assert smoothed_abscissa(a, four_output, x0, factor / cost).evaluations <= 8


@pytest.mark.parametrize("split", [None, [40.0, 20.0, 25.0, 15.0]],
                         ids=["uniform", "interior"])
def test_root_tangents_match_finite_differences(four_modes, four_output, split):
    # the first-order prediction of the root along a duration step, through
    # the duration gradient: halving the step must cut the prediction error
    # about fourfold, which a wrong gradient would not
    x0 = np.ones(four_modes.n)
    d = four_modes.durations.astype(float) if split is None else np.array(split)
    a = dynamics.average_matrix(four_modes, d)
    eps = 1.05 / congestion_cost(a, four_output, x0)
    res = smoothed_abscissa(a, four_output, x0, eps, tol=1e-14)
    grad = duration_gradient(four_modes, res, d)
    v = np.array([1.0, -1.0, 0.5, -0.5])    # tangent to the simplex

    def error(h):
        moved = dynamics.average_matrix(four_modes, d + h * v)
        root = smoothed_abscissa(moved, four_output, x0, eps, tol=1e-14).value
        return abs(root - (res.value + h * float(grad @ v)))

    assert error(2.0) >= 3.0 * error(1.0)
