"""Projected descent on the duration simplex."""

import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greensplit import dynamics, net_model, optimizer, scenario
from greensplit.dynamics import ModeSet
from greensplit.errors import NoStableStart, ValidationError
from greensplit.lyapunov import congestion_cost
from greensplit.optimizer import optimize, project_tangent


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
    row = report.trajectory[0]
    for key in ("outer", "inner", "epsilon", "alpha_smooth", "kkt_norm",
                "cost", "simplex_gap", "d_min"):
        assert key in row
    assert max(r["simplex_gap"] for r in report.trajectory) <= 1e-9
    assert min(r["d_min"] for r in report.trajectory) >= 0.0


def test_inner_descent_never_raises_the_abscissa(four_report):
    # a step that raises |alpha_s| ends its descent; without that rule the
    # descents at the unachievable weights oscillate for up to 121 iterations
    rows = four_report.trajectory
    for prev, row in zip(rows, rows[1:]):
        if row["outer"] == prev["outer"]:
            assert abs(row["alpha_smooth"]) <= abs(prev["alpha_smooth"])


def test_optimize_zero_state_short_circuits(four_modes, four_output):
    report = optimize(four_modes, four_output, np.zeros(four_modes.n))
    assert report.cost == 0.0
    assert report.converged
    np.testing.assert_allclose(report.durations, four_modes.durations)


def test_optimize_parameter_validation(four_modes, four_output, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a cost was solved before the parameters were checked")

    monkeypatch.setattr(optimizer, "congestion_cost", no_solve)
    x0 = np.ones(four_modes.n)
    bad = [{"xi": -0.1}, {"starts": 0}, {"starts": 1.5}, {"seed": -1},
           {"start": np.zeros(4)}, {"start": [np.nan, 50.0, 50.0, 0.0]},
           {"start": [np.inf, 50.0, 50.0, 0.0]}, {"start": [-10.0, 60.0, 50.0, 0.0]}]
    for kwargs in bad:
        with pytest.raises(ValidationError):
            optimize(four_modes, four_output, x0, **kwargs)


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


def test_single_road_pushes_to_all_green(single_net):
    sched = net_model.uniform_schedule(single_net)
    ms = dynamics.assemble_modes(single_net, sched)
    c = dynamics.output_map(single_net)
    report = optimize(ms, c, np.ones(single_net.n))
    # the red mode only delays discharge; nearly all green time wins
    assert report.durations[1] <= 0.01 * 100.0
    assert report.cost < report.baseline_cost


def _count_evaluations(monkeypatch):
    """Wrap the optimizer's root search; the list holds each call's evaluations."""
    counts = []
    search = optimizer.smoothed_abscissa

    def counted(*args, **kwargs):
        res = search(*args, **kwargs)
        counts.append(res.evaluations)
        return res

    monkeypatch.setattr(optimizer, "smoothed_abscissa", counted)
    return counts


def test_root_search_evaluation_budget(four_modes, four_output, monkeypatch):
    # each search starts at the first-order prediction of its root, a
    # descent ends at its first step that raises |alpha_s|, and each inner
    # iterate takes the whole Newton step: 270 evaluations and 85 iterations
    # on this run, against 793 and 475 with the step halved and 1,708
    # evaluations when every search started at the previous root and every
    # descent ran to stationarity; the cost certificate does not move
    counts = _count_evaluations(monkeypatch)
    report = optimize(four_modes, four_output, np.ones(four_modes.n))
    assert sum(counts) <= 350
    assert report.iterations <= 120
    assert report.cost == pytest.approx(1179.1073053020937, rel=1e-12)


@pytest.mark.parametrize("name, cost, max_iterations", [
    ("four_intersections", 1179.1073053020937, 120),
    ("grid_3x3", 7945.66198478998, 70),
])
def test_certificate_matches_the_cost_at_the_split(name, cost, max_iterations):
    # the Newton step drives alpha_s to its tolerance, so the certified
    # 1/epsilon is the true cost at the returned split: 2.2e-9 and 9.4e-10
    # relative here, against 4.3e-7 and 8.3e-7 with the step halved
    net = scenario.load(name)
    ms = dynamics.assemble_modes(net, net_model.uniform_schedule(net))
    c = dynamics.output_map(net)
    x0 = np.ones(net.n)
    report = optimize(ms, c, x0)
    true_cost = congestion_cost(dynamics.average_matrix(ms, report.durations), c, x0)
    assert 1.0 / report.epsilon == pytest.approx(true_cost, rel=1e-7)
    assert report.cost == pytest.approx(cost, rel=1e-12)
    assert report.converged
    assert report.iterations <= max_iterations


def test_outer_steps_are_logged(single_net, monkeypatch, caplog):
    ms = dynamics.assemble_modes(single_net, net_model.uniform_schedule(single_net))
    counts = _count_evaluations(monkeypatch)
    caplog.set_level(logging.DEBUG, logger="greensplit.optimizer")
    report = optimize(ms, dynamics.output_map(single_net), np.ones(single_net.n))
    pattern = re.compile(r"outer \d+: epsilon \S+, (\d+) inner iterations, "
                         r"(\d+) root-search evaluations, (achieved|stationary|budget)$")
    lines = [pattern.match(r.getMessage()) for r in caplog.records
             if r.name == "greensplit.optimizer"]
    assert lines and all(lines)
    assert sum(int(m[2]) for m in lines) == sum(counts)
    assert sum(max(int(m[1]), 1) for m in lines) == report.iterations
