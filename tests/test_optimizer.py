"""Projected descent on the duration simplex."""

import inspect
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from greensplit import dynamics, net_model, optimizer, scenario
from greensplit.dynamics import ModeSet
from greensplit.errors import DimensionError, NoStableStart, ValidationError
from greensplit.lyapunov import ShiftedLyapunov, congestion_cost
from greensplit.optimizer import optimize, project_tangent
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
    monkeypatch.setattr(optimizer, "ShiftedLyapunov", no_solve)
    x0 = np.ones(four_modes.n)
    bad = [{"xi": -0.1}, {"starts": 0}, {"starts": 1.5}, {"seed": -1},
           {"start": np.zeros(4)}, {"start": [np.nan, 50.0, 50.0, 0.0]},
           {"start": [np.inf, 50.0, 50.0, 0.0]}, {"start": [-10.0, 60.0, 50.0, 0.0]}]
    for kwargs in bad:
        with pytest.raises(ValidationError):
            optimize(four_modes, four_output, x0, **kwargs)
    with pytest.raises(DimensionError):
        optimize(four_modes, four_output, x0[:-1])
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
    # descent ends at its first step that raises |alpha_s|, each inner
    # iterate takes the whole Newton step, the weight increment doubles
    # until the first unachieved weight, where the continuation stops, a
    # new weight takes its first step from the outer iterate's certified
    # root without a search, the first weight starts from the root at
    # 1/J(d0) that the baseline's cost solve gives, and a projected Newton
    # polish on J finishes: 35 evaluations and 18 iterations on this run
    # (40 with a cold first search and a certificate search), against 160
    # and 65 with
    # a halving tail after the first unachieved weight, 270 and 85 with a
    # fixed increment and a search at every first iterate as well, and 793
    # and 475 with the step halved too
    counts = _count_evaluations(monkeypatch)
    report = optimize(four_modes, four_output, np.ones(four_modes.n))
    assert sum(counts) <= 45
    assert report.iterations <= 20
    assert report.cost == pytest.approx(1179.044677957715, rel=1e-12)


def test_overall_budget_ends_a_start_unconverged(four_modes, four_output, monkeypatch):
    # the continuation takes 14 iterations over 5 weights, at most 4 in one
    # descent, and the polish 4 more
    monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 10)
    report = optimize(four_modes, four_output, np.ones(four_modes.n))
    assert not report.converged
    assert report.iterations == 10
    assert report.cost < report.baseline_cost
    # a second start that also runs out leaves the report unconverged
    report = optimize(four_modes, four_output, np.ones(four_modes.n), starts=2, seed=0)
    assert not report.converged


def test_polish_steps_count_against_the_budget(four_modes, four_output, monkeypatch,
                                               caplog):
    caplog.set_level(logging.DEBUG, logger="greensplit.optimizer")
    report = optimize(four_modes, four_output, np.ones(four_modes.n))
    _, polishes, _ = _logged_steps(caplog)
    steps = int(polishes[0][2])
    assert steps >= 2 and report.converged
    # one step short: the polish stops there and the start is not converged
    monkeypatch.setattr(optimizer, "MAX_ITERATIONS", report.iterations - 1)
    short = optimize(four_modes, four_output, np.ones(four_modes.n))
    assert short.iterations == report.iterations - 1
    assert not short.converged
    assert report.cost <= short.cost < report.baseline_cost


@pytest.mark.parametrize("name, cost, max_iterations", [
    pytest.param("single_road", 861.2881594429031, 12, id="single_road"),
    pytest.param("four_intersections", 1179.044677957715, 20, id="four_intersections"),
    pytest.param("grid_3x3", 7945.556207088405, 12, id="grid_3x3"),
    pytest.param("grid_4x4", 18902.7548601272, 12, id="grid_4x4"),
])
def test_certificate_matches_the_cost_at_the_split(name, cost, max_iterations):
    # the reported weight is 1/J at the polished split, the weight at which
    # the root of its cost solve is 0, so 1/epsilon is the true cost at the
    # returned split; with a halving tail it missed it by 3.7e-7, 2.2e-9,
    # 1.6e-9 and 6.1e-9 relative.  The runs take 12, 18, 11 and 11
    # iterations (11 on single_road with a cold first search; 31, 65, 32
    # and 33 with the tail)
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


def test_polish_keeps_the_continuation_when_it_finds_nothing_lower(four_modes, four_output,
                                                                  monkeypatch):
    # a polish that ends above the last achieved weight's cost changes
    # nothing: the continuation's split and certificate are reported
    polish = optimizer._polish

    def no_better(*args):
        res = polish(*args)
        res.cost = np.inf
        return res

    monkeypatch.setattr(optimizer, "_polish", no_better)
    report = optimize(four_modes, four_output, np.ones(four_modes.n))
    assert report.cost == 1.0 / report.epsilon
    assert report.cost < report.baseline_cost
    true_cost = congestion_cost(dynamics.average_matrix(four_modes, report.durations),
                                four_output, np.ones(four_modes.n))
    assert true_cost == pytest.approx(report.cost, rel=1e-6)


_OUTER_LINE = re.compile(r"outer \d+: epsilon (\S+), (\d+) inner iterations, "
                         r"(\d+) root-search evaluations, (achieved|stationary|budget)$")
_POLISH_LINE = re.compile(r"start (\d+) polish: (\d+) iterations, (\d+) factorizations, "
                          r"cost (\S+) -> (\S+)$")
_START_LINE = re.compile(r"start (\d+): first anchor from the cost solve, without a "
                         r"root search; (\d+) outer steps \((\d+) achieved, "
                         r"(\d+) stationary, (\d+) budget\), (\d+) inner iterations, "
                         r"(\d+) root searches, (\d+) root-search evaluations$")


def _logged_steps(caplog):
    """The optimizer's DEBUG lines as (outer-step, polish, start matches)."""
    messages = [r.getMessage() for r in caplog.records if r.name == "greensplit.optimizer"]
    found = [[m for m in map(line.match, messages) if m]
             for line in (_OUTER_LINE, _POLISH_LINE, _START_LINE)]
    assert sum(map(len, found)) == len(messages)
    return found


def test_outer_steps_are_logged(single_net, monkeypatch, caplog):
    ms = dynamics.assemble_modes(single_net, net_model.uniform_schedule(single_net))
    counts = _count_evaluations(monkeypatch)
    caplog.set_level(logging.DEBUG, logger="greensplit.optimizer")
    report = optimize(ms, dynamics.output_map(single_net), np.ones(single_net.n))
    lines, polishes, starts = _logged_steps(caplog)
    assert lines
    # the root searches and evaluations are the descents': the first anchor
    # and the certificate come from cost solves, which search nothing
    assert sum(int(m[3]) for m in lines) == sum(counts)
    assert (sum(max(int(m[2]), 1) for m in lines) + int(polishes[0][2])
            == report.iterations)
    # one polish line and one summary line close the start
    assert len(polishes) == len(starts) == 1
    assert int(polishes[0][3]) >= int(polishes[0][2]) + 1
    assert float(polishes[0][5]) == pytest.approx(report.cost, rel=1e-11)
    assert float(polishes[0][5]) < float(polishes[0][4])
    reasons = [m[4] for m in lines]
    assert [int(x) for x in starts[0].groups()] == [
        0, len(lines), reasons.count("achieved"), reasons.count("stationary"),
        reasons.count("budget"), report.iterations, len(counts), sum(counts)]


def test_increment_doubles_until_the_first_unachieved_weight(four_modes, four_output,
                                                             caplog):
    caplog.set_level(logging.DEBUG, logger="greensplit.optimizer")
    report = optimize(four_modes, four_output, np.ones(four_modes.n))
    lines, _, _ = _logged_steps(caplog)
    eps_bar = 1.0 / report.baseline_cost
    steps = []    # (increment, reason) of each outer step
    for m in lines:
        steps.append((float(m[1]) - eps_bar, m[4]))
        if m[4] == "achieved":
            eps_bar = float(m[1])
    # the log carries 9 digits, a few millionths of the smallest increment
    assert steps[0][0] == pytest.approx(0.05 / report.baseline_cost, rel=1e-4)
    # every weight but the last is achieved, and the increment doubles
    assert [reason for _, reason in steps] == ["achieved"] * (len(steps) - 1) + ["stationary"]
    assert len(steps) >= 4
    for (inc, _), (nxt, _) in zip(steps, steps[1:]):
        assert nxt == pytest.approx(2.0 * inc, rel=1e-4)
    # the polish goes past the last achieved weight, to the face optimum
    assert 1.0 / report.epsilon < 1.0 / eps_bar
    assert 1.0 / report.epsilon == pytest.approx(1179.044677957715, rel=1e-12)


def _record_descents(monkeypatch, searched):
    """Wrap the optimizer's descents; the list holds a dict for each: its
    outer step, its first split's averaged matrix as bytes, its anchor, its
    result, and the keys of the matrices it searched, which ``searched``
    collects."""
    descents = []
    descend = optimizer._inner_descent
    signature = inspect.signature(descend)

    def recorded(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        key = dynamics.average_matrix(bound["mode_set"], bound["start"]).tobytes()
        first = len(searched)
        inner = descend(*args, **kwargs)
        descents.append({"outer": bound["outer_index"], "key": key,
                         "anchor": bound["anchor"], "inner": inner,
                         "searched": searched[first:]})
        return inner

    monkeypatch.setattr(optimizer, "_inner_descent", recorded)
    return descents


def _key_warm_searches(monkeypatch, searched):
    """Wrap the optimizer's root search: each call appends its matrix as
    bytes to ``searched``, and a call without a warm start fails."""
    search = optimizer.smoothed_abscissa

    def keyed(a, *args, warm_start=None, **kwargs):
        assert warm_start is not None, "a root search started cold"
        searched.append(np.ascontiguousarray(a).tobytes())
        return search(a, *args, warm_start=warm_start, **kwargs)

    monkeypatch.setattr(optimizer, "smoothed_abscissa", keyed)


@pytest.mark.parametrize("warm, max_searches", [(False, 14), (True, 0)],
                         ids=["cold", "warm"])
def test_new_weight_starts_without_searching_the_outer_iterate(four_modes, four_output,
                                                               four_report, monkeypatch,
                                                               warm, max_searches):
    # every descent is anchored on a certified root at its first split: the
    # first on the root at 1/J(d0), which is 0 with the P and Q of the
    # start's cost solve, each later one on the root that achieved the
    # previous weight.  So no descent searches its first split and no
    # search starts cold.  A warm start at the optimum achieves no weight,
    # and its polish finds nothing to lower
    searched: list[bytes] = []
    _key_warm_searches(monkeypatch, searched)
    descents = _record_descents(monkeypatch, searched)
    x0 = np.ones(four_modes.n)
    d0 = four_report.durations if warm else four_modes.durations
    report = optimize(four_modes, four_output, x0, start=d0 if warm else None)
    d0 = d0 * (four_modes.cycle_time / d0.sum())
    assert report.cost <= four_report.cost * (1.0 + 1e-6)
    first = descents[0]["anchor"]
    cost0 = congestion_cost(dynamics.average_matrix(four_modes, d0), four_output, x0)
    assert (first.value, first.evaluations) == (0.0, 1)
    assert first.trace_value == cost0 and first.epsilon == 1.0 / cost0
    if not warm:
        assert report.baseline_cost == cost0
    for prev, nxt in zip(descents, descents[1:]):
        assert nxt["anchor"] is prev["inner"].anchor
    for descent in descents:
        assert descent["key"] not in descent["searched"]
    # 14 and 0 searches here, against 16 and 1 with a cold first search
    # and a certificate search, 66 and 10 with a halving tail, and 123 and
    # 19 with a fixed increment and a search at every first iterate too
    assert len(searched) <= max_searches


def test_no_start_searches_a_matrix_twice(four_modes, four_output, monkeypatch):
    # a descent that followed a failed one, in the halving tail, could
    # search a matrix an earlier descent had searched: 66 searches on 62
    # distinct matrices on this run.  Every search is warm, and a start's
    # cost solve gives its first anchor, so its first split is not
    # searched either
    searched: list[bytes] = []
    _key_warm_searches(monkeypatch, searched)
    descents = _record_descents(monkeypatch, searched)
    optimize(four_modes, four_output, np.ones(four_modes.n), starts=3, seed=0)
    starts = []    # (first split's key, the keys the start searched)
    for descent in descents:
        if descent["outer"] == 0:
            starts.append((descent["key"], []))
        starts[-1][1].extend(descent["searched"])
    assert len(starts) == 3
    assert sum(len(keys) for _, keys in starts) == len(searched)
    for first, keys in starts:
        assert first not in keys
        assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("name", ["single_road", "four_intersections", "grid_3x3",
                                  "grid_4x4"])
def test_cost_solve_gives_the_root_at_the_inverse_cost(name):
    # g(0) = trace(C P(0) C^T) = J, so a cold search at epsilon = 1/J lands
    # on 0, with the P and Q of the cost solve
    net = scenario.load(name)
    ms = dynamics.assemble_modes(net, net_model.uniform_schedule(net))
    c = dynamics.output_map(net)
    x0 = np.ones(net.n)
    a = dynamics.average_matrix(ms, ms.durations)
    cost, _, root = optimizer._cost_gradient(ms, c, x0, ms.durations)
    assert cost == congestion_cost(a, c, x0)
    assert (root.value, root.trace_value, root.epsilon) == (0.0, cost, 1.0 / cost)
    searched = smoothed_abscissa(a, c, x0, root.epsilon)
    assert searched.abscissa == root.abscissa
    assert abs(searched.value) <= 1e-8 * (1.0 + abs(searched.abscissa))
    for mine, theirs in ((root.P, searched.P), (root.Q, searched.Q)):
        assert np.linalg.norm(mine - theirs) <= 1e-8 * np.linalg.norm(theirs)
    # the search stops up to 5e-12 from 0, which moves the trace by up to
    # 2.2e-9 relative; moved there along g'(0) = -2 trace(Q P), the cost
    # solve's trace agrees to rounding
    moved = root.trace_value - 2.0 * np.vdot(root.Q, root.P) * searched.value
    assert moved == pytest.approx(searched.trace_value, rel=1e-12)


def test_factorizations_and_solves_of_a_run(four_modes, four_output, monkeypatch):
    # one factorization at the baseline gives its cost and the first
    # anchor, and the polish's last accepted split gives the certificate:
    # 24 factorizations and 90 shifted solves on this run, against 26 and
    # 99 with a cold first search and a certificate search
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
    assert counts["factor"] <= 24
    assert counts["solve"] <= 90


def test_three_starts_keep_their_cost_in_fewer_iterations(four_modes, four_output):
    # the same as `greensplit optimize four_intersections --starts 3 --seed 0`;
    # 3,454 iterations with a fixed weight increment, 779 with it doubling
    # and a halving tail that stopped at 1,179.052, and 26 with the polish
    report = optimize(four_modes, four_output, np.ones(four_modes.n), starts=3, seed=0)
    assert report.converged
    assert report.cost == pytest.approx(1179.0446779577082, rel=1e-12)
    np.testing.assert_allclose(report.durations, [50.0, 0.0, 0.0, 50.0], atol=1e-4)
    assert report.iterations <= 30
