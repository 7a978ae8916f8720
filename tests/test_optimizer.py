"""Projected descent on the duration simplex."""

import dataclasses
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg
from scipy.optimize import minimize_scalar

from greensplit import dynamics, net_model, optimizer, scenario
from greensplit.dynamics import ModeSet
from greensplit.errors import DimensionError, NoStableStart, ValidationError
from greensplit.lyapunov import ShiftedLyapunov, congestion_cost, solve_lyapunov
from greensplit.optimizer import OptimizationReport, optimize, project_tangent
from greensplit.ssa import smoothed_abscissa


# project_tangent ------------------------------------------------------------

def test_constant_gradient_projects_to_zero():
    d = np.array([30.0, 30.0, 40.0])
    v = project_tangent(np.array([2.0, 2.0, 2.0]), d)
    np.testing.assert_allclose(v, 0.0, atol=1e-15)


def test_interior_two_mode_projection():
    v = project_tangent(np.array([1.0, 0.0]), np.array([50.0, 50.0]))
    np.testing.assert_allclose(v, [0.5, -0.5])


def test_boundary_inward_component_survives():
    # d_2 = 0; the projected direction wants to grow it (v_2 < 0), allowed
    v = project_tangent(np.array([0.0, -1.0]), np.array([100.0, 0.0]))
    np.testing.assert_allclose(v, [0.5, -0.5])


def test_boundary_outward_component_clamped():
    # shrinking an exhausted mode further is infeasible
    v = project_tangent(np.array([0.0, 1.0]), np.array([100.0, 0.0]))
    np.testing.assert_allclose(v, 0.0, atol=1e-15)


def test_single_mode_has_no_feasible_direction():
    v = project_tangent(np.array([3.0]), np.array([100.0]))
    np.testing.assert_allclose(v, 0.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_projection_invariants(m, seed):
    rng = np.random.default_rng(seed)
    grad = rng.standard_normal(m) * 10.0 ** rng.integers(-3, 3)
    d = rng.dirichlet(np.ones(m)) * 100.0
    d[rng.random(m) < 0.3] = 0.0
    if d.sum() == 0.0:
        d[0] = 100.0
    v = project_tangent(grad, d)
    scale = np.abs(v).max()
    # stays tangent to the simplex
    assert abs(v.sum()) <= 1e-9 * (1.0 + scale)
    # never pushes an exhausted mode negative
    assert np.all(v[d <= 1e-12 * 100.0] <= 1e-12 * (1.0 + scale))
    # it is a descent direction for the gradient it projected
    assert grad @ v >= -1e-12 * (1.0 + scale) ** 2


# optimize -------------------------------------------------------------------

def test_optimize_improves_four_intersections(four_modes, four_output, four_report):
    x0 = np.ones(four_modes.n)
    report = four_report
    assert report.cost <= report.baseline_cost
    assert report.cost < 0.6 * report.baseline_cost  # strict win on this net
    np.testing.assert_allclose(report.durations.sum(), 100.0, atol=1e-9)
    assert report.durations.min() >= 0.0
    direct = congestion_cost(
        dynamics.average_matrix(four_modes, report.durations), four_output, x0)
    assert direct == pytest.approx(report.cost, rel=1e-4)


def test_optimize_deterministic_per_seed(single_net):
    ms = dynamics.assemble_modes(single_net, net_model.uniform_schedule(single_net))
    c = dynamics.output_map(single_net)
    x0 = np.ones(single_net.n)
    a = optimize(ms, c, x0, starts=3, seed=42)
    b = optimize(ms, c, x0, starts=3, seed=42)
    np.testing.assert_array_equal(a.durations, b.durations)
    assert a.cost == b.cost
    assert a.trajectory == b.trajectory


def test_optimize_warm_start(four_modes, four_output, four_report):
    x0 = np.ones(four_modes.n)
    again = optimize(four_modes, four_output, x0, start=four_report.durations)
    assert again.cost <= four_report.cost * (1.0 + 1e-6)


def test_optimize_records_trajectory(four_modes, four_output, four_report):
    report = four_report
    assert report.trajectory
    for row in report.trajectory:
        assert set(row) == {"cost", "kkt_norm", "simplex_gap", "d_min"}
    assert max(r["simplex_gap"] for r in report.trajectory) <= 1e-9
    assert min(r["d_min"] for r in report.trajectory) >= 0.0


def test_cost_falls_strictly_along_the_rows(four_report):
    # one row per accepted split, the start first and the returned split
    # last; a Newton step is accepted only where it lowers J
    costs = [row["cost"] for row in four_report.trajectory]
    assert costs[0] == four_report.baseline_cost
    assert costs[-1] == four_report.cost
    assert all(nxt < prev for prev, nxt in zip(costs, costs[1:]))
    assert 2 <= len(costs) <= four_report.iterations + 1


def test_optimize_zero_state_short_circuits(four_modes, four_output):
    report = optimize(four_modes, four_output, np.zeros(four_modes.n))
    assert report.cost == 0.0
    assert report.converged
    np.testing.assert_allclose(report.durations, four_modes.durations)
    # epsilon = 1/J is infinite here, which JSON cannot hold
    assert report.epsilon == math.inf
    assert report.to_dict()["epsilon"] is None


def test_optimize_parameter_validation(four_modes, four_output, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a cost was solved before the parameters were checked")

    monkeypatch.setattr(optimizer, "congestion_cost", no_solve)
    monkeypatch.setattr(optimizer, "ShiftedLyapunov", no_solve)
    x0 = np.ones(four_modes.n)
    bad = [{"starts": 0}, {"starts": 1.5}, {"seed": -1},
           {"start": np.zeros(4)}, {"start": [np.nan, 50.0, 50.0, 0.0]},
           {"start": [np.inf, 50.0, 50.0, 0.0]}, {"start": [-10.0, 60.0, 50.0, 0.0]}]
    for kwargs in bad:
        with pytest.raises(ValidationError):
            optimize(four_modes, four_output, x0, **kwargs)
    with pytest.raises(DimensionError):
        optimize(four_modes, four_output, x0[:-1])
    with pytest.raises(TypeError, match="xi"):
        optimize(four_modes, four_output, x0, xi=0.05)
    idle = ModeSet(modes=four_modes.modes, durations=np.zeros(4),
                   input_map=four_modes.input_map)
    with pytest.raises(ValidationError, match="^mode durations must have a positive sum$"):
        optimize(idle, four_output, x0)


def test_no_stable_start():
    n = 2
    unstable = np.array([[0.5, 0.0], [0.0, 0.5]])
    ms = ModeSet(modes=(unstable, 2.0 * unstable),
                 durations=np.array([50.0, 50.0]),
                 input_map=np.eye(n))
    with pytest.raises(NoStableStart):
        optimize(ms, np.eye(n), np.ones(n))


def test_epsilon_cost_consistency(four_report):
    assert 1.0 / four_report.epsilon == pytest.approx(four_report.cost, rel=1e-4)
    # epsilon is read off the cost, not stored beside it
    assert "epsilon" not in {f.name for f in dataclasses.fields(OptimizationReport)}
    assert four_report.epsilon == 1.0 / four_report.cost
    assert four_report.to_dict()["epsilon"] == four_report.epsilon
    with pytest.raises(AttributeError):
        four_report.epsilon = 1.0


def test_single_road_pushes_to_all_green(single_net):
    sched = net_model.uniform_schedule(single_net)
    ms = dynamics.assemble_modes(single_net, sched)
    c = dynamics.output_map(single_net)
    report = optimize(ms, c, np.ones(single_net.n))
    # the red mode only delays discharge; nearly all green time wins
    assert report.durations[1] <= 0.01 * 100.0
    assert report.cost < report.baseline_cost


def test_root_search_evaluation_budget(four_modes, four_output, monkeypatch):
    # optimize searches no smoothing root: J, its gradient and its
    # curvature come from shift-0 solves on one factorization per split.
    # The weight continuation that the Newton descent replaced took 35
    # root-search evaluations and 18 iterations on this run; the descent
    # takes 5 Newton steps
    shifts = []
    solve = ShiftedLyapunov.solve

    def recorded(self, d, shift=0.0, adjoint=False):
        shifts.append(shift)
        return solve(self, d, shift=shift, adjoint=adjoint)

    monkeypatch.setattr(ShiftedLyapunov, "solve", recorded)
    report = optimize(four_modes, four_output, np.ones(four_modes.n))
    assert shifts and set(shifts) == {0.0}
    assert report.iterations <= 6
    assert report.cost == pytest.approx(1179.044677957715, rel=1e-12)


def test_overall_budget_ends_a_start_unconverged(four_modes, four_output, monkeypatch,
                                                 caplog):
    # the descent takes 5 Newton steps on this run, so 3 stop it
    caplog.set_level(logging.DEBUG, logger="greensplit.optimizer")
    monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 3)
    report = optimize(four_modes, four_output, np.ones(four_modes.n))
    assert not report.converged
    assert report.iterations == 3
    assert report.cost < report.baseline_cost
    assert [m[6] for m in _logged_starts(caplog)] == ["budget"]
    # a second start that also runs out leaves the report unconverged
    report = optimize(four_modes, four_output, np.ones(four_modes.n), starts=2, seed=0)
    assert not report.converged


def test_polish_steps_count_against_the_budget(four_modes, four_output, monkeypatch,
                                               caplog):
    caplog.set_level(logging.DEBUG, logger="greensplit.optimizer")
    report = optimize(four_modes, four_output, np.ones(four_modes.n))
    (start,) = _logged_starts(caplog)
    assert int(start[2]) == report.iterations >= 2 and report.converged
    # one step short: the descent stops there and the start is not converged
    monkeypatch.setattr(optimizer, "MAX_ITERATIONS", report.iterations - 1)
    short = optimize(four_modes, four_output, np.ones(four_modes.n))
    assert short.iterations == report.iterations - 1
    assert not short.converged
    assert report.cost <= short.cost < report.baseline_cost


@pytest.mark.parametrize("name, cost, max_iterations", [
    pytest.param("single_road", 861.2881594429031, 2, id="single_road"),
    pytest.param("four_intersections", 1179.044677957715, 6, id="four_intersections"),
    pytest.param("grid_3x3", 7945.556207088405, 2, id="grid_3x3"),
    pytest.param("grid_4x4", 18902.7548601272, 2, id="grid_4x4"),
])
def test_certificate_matches_the_cost_at_the_split(name, cost, max_iterations):
    # the reported weight is 1/J at the returned split, the weight at which
    # the smoothing root is 0, so 1/epsilon is the true cost at the
    # returned split; with a halving tail it missed it by 3.7e-7, 2.2e-9,
    # 1.6e-9 and 6.1e-9 relative.  The Newton descent takes 2, 6, 2 and 2
    # steps (12, 18, 11 and 11 iterations with the weight continuation
    # ahead of it, 31, 65, 32 and 33 with the tail)
    net = scenario.load(name)
    ms = dynamics.assemble_modes(net, net_model.uniform_schedule(net))
    c = dynamics.output_map(net)
    x0 = np.ones(net.n)
    report = optimize(ms, c, x0)
    true_cost = congestion_cost(dynamics.average_matrix(ms, report.durations), c, x0)
    assert 1.0 / report.epsilon == pytest.approx(true_cost, rel=1e-12)
    assert report.cost == pytest.approx(cost, rel=1e-12)
    assert report.converged
    assert report.iterations <= max_iterations


@pytest.mark.parametrize("name", ["four_intersections", "grid_3x3"])
def test_polish_reaches_the_face_optimum(name):
    # the face of the returned split is one segment of the simplex, so a
    # bounded scalar search over it finds the minimum of J there
    net = scenario.load(name)
    ms = dynamics.assemble_modes(net, net_model.uniform_schedule(net))
    c = dynamics.output_map(net)
    x0 = np.ones(net.n)
    report = optimize(ms, c, x0)
    face = np.flatnonzero(report.durations > 0)
    assert face.size == 2
    total = ms.cycle_time

    def on_face(t):
        d = np.zeros(ms.n_modes)
        d[face] = t, total - t
        return congestion_cost(dynamics.average_matrix(ms, d), c, x0)

    best = minimize_scalar(on_face, bounds=(0.0, total), method="bounded",
                           options={"xatol": 1e-8 * total})
    assert report.cost == pytest.approx(best.fun, rel=1e-9)
    # the projected gradient of J vanishes there
    cost, grad, _ = optimizer._cost_gradient(ms, c, x0, report.durations)
    assert cost == report.cost
    v = project_tangent(grad, report.durations)
    assert np.abs(v).max() <= optimizer.KKT_TOL * (1.0 + np.abs(grad).max())


def test_cost_gradient_matches_central_differences(four_modes, four_output):
    # the gradient holds the cycle time fixed, so the probe perturbs the
    # averaged matrix by a multiple of one mode matrix
    x0 = np.ones(four_modes.n)
    d = np.array([30.0, 20.0, 15.0, 35.0])
    total = d.sum()
    a = dynamics.average_matrix(four_modes, d)
    cost, grad, _ = optimizer._cost_gradient(four_modes, four_output, x0, d)
    assert cost == pytest.approx(congestion_cost(a, four_output, x0), rel=1e-12)
    step = 1e-5 * total
    fd = np.empty_like(grad)
    for k, mode in enumerate(four_modes.modes):
        delta = (step / total) * mode
        fd[k] = (congestion_cost(a + delta, four_output, x0)
                 - congestion_cost(a - delta, four_output, x0)) / (2.0 * step)
    np.testing.assert_allclose(grad, fd, rtol=1e-5)


def _interior_splits(name, count, rng):
    """``count`` random splits of a bundled scenario that keep every phase
    above half its share, each with a tangent ``v`` of largest entry
    ``T/m``."""
    net = scenario.load(name)
    ms = dynamics.assemble_modes(net, net_model.uniform_schedule(net))
    total, m = ms.cycle_time, ms.n_modes
    for _ in range(count):
        d = total * (0.5 / m + 0.5 * rng.dirichlet(np.ones(m)))
        w = rng.standard_normal(m)
        v = w - w.mean()
        yield ms, dynamics.output_map(net), np.ones(net.n), d, v * (total / m / np.abs(v).max())


@pytest.mark.parametrize("name", ["single_road", "four_intersections", "grid_3x3",
                                  "grid_4x4"])
def test_curvature_matches_central_differences_of_the_gradient(name):
    # the gradient is exact, so its central differences along v approach
    # v^T H v as h^2: each tenth of h cuts the gap about a hundredfold
    # (from 1e-4 to 1e-8 relative here); a first-order error would cut it
    # tenfold
    for ms, c, x0, d, v in _interior_splits(name, 3, np.random.default_rng(0)):
        _, _, curvature = optimizer._cost_gradient(ms, c, x0, d)
        vhv = curvature(v)
        gaps = []
        for h in (1e-2, 1e-3, 1e-4):
            g_up = optimizer._cost_gradient(ms, c, x0, d + h * v)[1]
            g_down = optimizer._cost_gradient(ms, c, x0, d - h * v)[1]
            gaps.append(abs(float((g_up - g_down) @ v) / (2.0 * h) - vhv) / abs(vhv))
        assert gaps[0] <= 1e-3
        assert gaps[1] <= gaps[0] / 30.0 and gaps[2] <= gaps[1] / 30.0


@pytest.mark.parametrize("name", ["single_road", "four_intersections", "grid_3x3",
                                  "grid_4x4"])
def test_curvature_matches_the_two_solve_form(name):
    # with A_v = sum_k v_k A_k / T, differentiating the gradient
    # 2 <Q P, A_v> gives v^T H v = 2 <Q' P + Q P', A_v>, where P' and Q'
    # solve the state and adjoint equations driven by A_v P + P A_v^T and
    # A_v^T Q + Q A_v; here all four come from scipy's solver
    for ms, c, x0, d, v in _interior_splits(name, 3, np.random.default_rng(1)):
        _, _, curvature = optimizer._cost_gradient(ms, c, x0, d)
        a = dynamics.average_matrix(ms, d)
        av = sum(vk * ak for vk, ak in zip(v, ms.modes)) / ms.cycle_time
        p = linalg.solve_continuous_lyapunov(a, -np.outer(x0, x0))
        q = linalg.solve_continuous_lyapunov(a.T, -(c.T @ c))
        dp = linalg.solve_continuous_lyapunov(a, -(av @ p + p @ av.T))
        dq = linalg.solve_continuous_lyapunov(a.T, -(av.T @ q + q @ av))
        assert curvature(v) == pytest.approx(2.0 * np.vdot(dq @ p + q @ dp, av), rel=1e-12)


_START_LINE = re.compile(r"start (\d+): (\d+) Newton steps, (\d+) factorizations, "
                         r"cost (\S+) -> (\S+), (stationary|no descent|budget)$")


def _logged_starts(caplog):
    """The optimizer's DEBUG lines, one match of ``_START_LINE`` per start."""
    messages = [r.getMessage() for r in caplog.records if r.name == "greensplit.optimizer"]
    found = [m for m in map(_START_LINE.match, messages) if m]
    assert len(found) == len(messages)
    return found


def test_starts_are_logged(four_modes, four_output, monkeypatch, caplog):
    # one line per start: its Newton steps, its factorizations (the start's
    # cost solve included), its cost before and after, and why it stopped
    factorizations = []
    factor = ShiftedLyapunov.__init__

    def counted(self, *args, **kwargs):
        factorizations.append(1)
        factor(self, *args, **kwargs)

    monkeypatch.setattr(ShiftedLyapunov, "__init__", counted)
    caplog.set_level(logging.DEBUG, logger="greensplit.optimizer")
    report = optimize(four_modes, four_output, np.ones(four_modes.n), starts=3, seed=0)
    starts = _logged_starts(caplog)
    assert [int(m[1]) for m in starts] == [0, 1, 2]
    assert sum(int(m[3]) for m in starts) == len(factorizations)
    assert float(starts[0][4]) == pytest.approx(report.baseline_cost, rel=1e-11)
    best = starts[report.best_start]
    assert int(best[2]) == report.iterations
    assert float(best[5]) == pytest.approx(report.cost, rel=1e-11)
    for m in starts:
        assert float(m[5]) < float(m[4])
        assert m[6] == "stationary"


# a split whose shortest phase alone drains a road: dropping it, as the
# descent drops every duration below 1% of T/m, leaves the average unstable
_FRAGILE = [[39.49, 59.22, 1.15, 0.13], [23.16, 49.81, 27.02, 0.0106]]


@pytest.mark.parametrize("split", _FRAGILE, ids=["1.15-0.13", "0.0106"])
def test_descent_keeps_a_phase_whose_drop_is_unstable(four_modes, four_output, split):
    # from the dropped split, where J = inf, no step could be taken
    x0 = np.ones(four_modes.n)
    d0 = np.array(split) * (four_modes.cycle_time / sum(split))
    dropped = np.where(d0 < 0.01 * d0.sum() / d0.size, 0.0, d0)
    assert congestion_cost(dynamics.average_matrix(four_modes, dropped),
                           four_output, x0) == np.inf
    first = optimizer._cost_gradient(four_modes, four_output, x0, d0)
    rows = []
    d, cost, steps, _, reason = optimizer._inner_descent(
        four_modes, four_output, x0, d0, [first], rows, optimizer.MAX_ITERATIONS)
    assert rows[0]["cost"] == first[0] < np.inf
    assert steps > 0 and reason == "stationary"
    assert cost == congestion_cost(dynamics.average_matrix(four_modes, d), four_output, x0)
    assert cost == pytest.approx(1179.0446779577082, rel=1e-12)


def test_dirichlet_starts_whose_drop_is_unstable_reach_the_optimum(four_modes, four_output,
                                                                   caplog):
    # the first and third draws of default_rng(0), the splits above before
    # rounding; the weight continuation took 26 and 36 iterations to the
    # same cost, and the descent from the dropped split ended at inf.  The
    # descent takes 13 and 16 Newton steps with 15 and 18 factorizations
    # (18 and 22 steps with 38 and 46 when a second factorization probed
    # each step's curvature; 18 and 25 steps with Newton steps of J itself,
    # which grow a phase that J rises like 1/d_k at by half, not double)
    caplog.set_level(logging.DEBUG, logger="greensplit.optimizer")
    x0 = np.ones(four_modes.n)
    rng = np.random.default_rng(0)
    draws = [rng.dirichlet(np.ones(four_modes.n_modes)) * four_modes.cycle_time
             for _ in range(3)]
    for d0, max_iterations, max_factorizations in ((draws[0], 18, 15), (draws[2], 22, 18)):
        dropped = np.where(d0 < 0.01 * d0.sum() / d0.size, 0.0, d0)
        assert congestion_cost(dynamics.average_matrix(four_modes, dropped),
                               four_output, x0) == np.inf
        caplog.clear()
        report = optimize(four_modes, four_output, x0, start=d0)
        (start,) = _logged_starts(caplog)
        assert report.converged and report.iterations <= max_iterations
        assert int(start[3]) <= max_factorizations
        assert report.trajectory[0]["cost"] == pytest.approx(congestion_cost(
            dynamics.average_matrix(four_modes, d0), four_output, x0), rel=1e-12)
        assert report.cost == pytest.approx(1179.0446779577082, rel=1e-12)


@pytest.mark.parametrize("name", ["single_road", "four_intersections", "grid_3x3",
                                  "grid_4x4"])
def test_cost_solve_gives_the_root_at_the_inverse_cost(name):
    # g(0) = trace(C P(0) C^T) = J, so a cold search at epsilon = 1/J lands
    # on 0, with the Gramian of the cost solve
    net = scenario.load(name)
    ms = dynamics.assemble_modes(net, net_model.uniform_schedule(net))
    c = dynamics.output_map(net)
    x0 = np.ones(net.n)
    a = dynamics.average_matrix(ms, ms.durations)
    cost = congestion_cost(a, c, x0)
    searched = smoothed_abscissa(a, c, x0, 1.0 / cost)
    assert abs(searched.value) <= 1e-8 * (1.0 + abs(searched.abscissa))
    gramian = solve_lyapunov(a, np.outer(x0, x0))
    assert np.linalg.norm(searched.P - gramian) <= 1e-8 * np.linalg.norm(gramian)
    # the search stops up to 5e-12 from 0, which moves the trace by up to
    # 2.2e-9 relative; moved back to 0 along g'(s) = -2 trace(Q P), the
    # trace agrees with the cost to rounding
    at_zero = searched.trace_value + 2.0 * np.vdot(searched.Q, searched.P) * searched.value
    assert at_zero == pytest.approx(cost, rel=1e-12)


def test_factorizations_and_solves_of_a_run(four_modes, four_output, monkeypatch):
    # one factorization at the baseline gives its cost and the descent's
    # first gradient, and each Newton step takes one solve on that factor
    # for its curvature and one factorization per split it tries, each
    # with one P and one Q solve: 6 factorizations and 17 shifted solves on
    # this run, against 7 and 20 with Newton steps of J rather than log J,
    # 13 and 26 with a second factorization probing each step's curvature,
    # and 24 and 90 with the weight continuation ahead of the descent
    counts = {"factor": 0, "solve": 0}
    factor, solve = ShiftedLyapunov.__init__, ShiftedLyapunov.solve

    def counted_factor(self, *args, **kwargs):
        counts["factor"] += 1
        factor(self, *args, **kwargs)

    def counted_solve(self, *args, **kwargs):
        counts["solve"] += 1
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(ShiftedLyapunov, "__init__", counted_factor)
    monkeypatch.setattr(ShiftedLyapunov, "solve", counted_solve)
    optimize(four_modes, four_output, np.ones(four_modes.n))
    assert counts["factor"] <= 6
    assert counts["solve"] <= 17


def test_start_factor_is_let_go_after_the_first_step(four_modes, four_output, monkeypatch):
    # the start's curvature closure holds its factor U, T and its Y_p, Y_q;
    # once the first step is accepted, no frame keeps it, so it is gone
    # before the next split is factored (the start's factor is the first
    # made, the first candidate's the second)
    import gc
    import weakref
    made, alive = [], []
    factor = ShiftedLyapunov.__init__

    def tracked(self, *args, **kwargs):
        gc.collect()
        alive.append([ref() is not None for ref in made])
        factor(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(ShiftedLyapunov, "__init__", tracked)
    report = optimize(four_modes, four_output, np.ones(four_modes.n))
    assert report.iterations >= 2
    # the start and the first candidate's split, both accepted
    assert report.trajectory[1]["cost"] < report.trajectory[0]["cost"]
    assert len(alive) >= 3
    assert alive[1] == [True]
    assert not any(flags[0] for flags in alive[2:])


def test_each_split_tried_is_factored_once(four_modes, four_output, monkeypatch, caplog):
    # a start factors its initial split, each split a Newton step tries,
    # and the dropped split where the drop rule fires; the curvature takes
    # no factorization of its own.  Of these 13 starts, the drop rule fires
    # on 2: one dropped split is stable, the other is not
    factorizations = []
    factor = ShiftedLyapunov.__init__

    def counted(self, *args, **kwargs):
        factorizations.append(1)
        factor(self, *args, **kwargs)

    marks = [0]

    class Mark(logging.Handler):
        def emit(self, record):
            marks.append(len(factorizations))

    monkeypatch.setattr(ShiftedLyapunov, "__init__", counted)
    handler = Mark()
    optimizer.log.addHandler(handler)
    caplog.set_level(logging.DEBUG, logger="greensplit.optimizer")
    try:
        optimize(four_modes, four_output, np.ones(four_modes.n), starts=13, seed=21)
    finally:
        optimizer.log.removeHandler(handler)
    total, m = four_modes.cycle_time, four_modes.n_modes
    rng = np.random.default_rng(21)
    initial = [four_modes.durations] + [rng.dirichlet(np.ones(m)) * total for _ in range(12)]
    drops = [bool(np.any(d0 < 0.01 * total / m)) for d0 in initial]
    assert sum(drops) == 2
    starts = _logged_starts(caplog)
    assert len(starts) == len(initial) == len(marks) - 1
    for start, dropped, before, after in zip(starts, drops, marks, marks[1:]):
        assert after - before == int(start[3]) == 1 + int(start[2]) + dropped


def test_three_starts_keep_their_cost_in_fewer_iterations(four_modes, four_output):
    # the same as `greensplit optimize four_intersections --starts 3 --seed 0`;
    # 3,454 iterations with a fixed weight increment, 779 with it doubling
    # and a halving tail that stopped at 1,179.052, 26 with the Newton
    # descent after the continuation, and 5 Newton steps with it alone
    report = optimize(four_modes, four_output, np.ones(four_modes.n), starts=3, seed=0)
    assert report.converged
    assert report.cost == pytest.approx(1179.0446779577082, rel=1e-12)
    np.testing.assert_allclose(report.durations, [50.0, 0.0, 0.0, 50.0], atol=1e-4)
    assert report.iterations <= 6


@pytest.mark.parametrize("name", ["grid_3x3", "grid_4x4"])
def test_memory_plan_bounds_the_traced_peak(name, monkeypatch):
    # the plan counts the mode matrices and a fixed number of n^2 arrays;
    # traced from before the modes are built, the run peaks at 19.2 and
    # 18.2 n^2 doubles, against 24 planned
    import tracemalloc
    planned = []
    check = optimizer.check_memory

    def recording(size, what):
        planned.append((size, what))
        check(size, what)

    monkeypatch.setattr(optimizer, "check_memory", recording)
    network = scenario.load(name)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        modes = dynamics.assemble_modes(network, net_model.uniform_schedule(network))
        optimize(modes, dynamics.output_map(network), np.ones(network.n))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    [plan] = [size for size, what in planned if what.startswith("an optimization")]
    assert peak <= plan <= 2 * peak
