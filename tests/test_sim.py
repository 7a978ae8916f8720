"""Switched and averaged trajectory integration."""

import logging
import math
import re

import numpy as np
import pytest
from scipy import linalg
from scipy.integrate import solve_ivp

from greensplit import dynamics, net_model, scenario, sim
from greensplit.errors import DimensionError, ValidationError

PULSE = """
schema_version: 1
name: pulse
h: 100.0
cycle_time: 60.0
roads:
  - {id: a, length: 100.0, free_flow_speed: 10.0, source: true, inflow: INFLOW}
  - {id: b, length: 100.0, free_flow_speed: 10.0, destination: true, exit_rate: 1.0}
movements:
  - {intersection: x, from: a, to: b, routing_ratio: 1.0, saturation_speed: 0.05}
intersections:
  - id: x
    phases:
      - [a -> b]
"""


def _pulse(tmp_path_factory, inflow):
    path = tmp_path_factory.mktemp("pulse") / "pulse.yaml"
    path.write_text(PULSE.replace("INFLOW", inflow))
    return scenario.load(path)


@pytest.fixture(scope="module")
def single(single_net):
    return single_net, net_model.uniform_schedule(single_net)


@pytest.fixture(scope="module")
def pulse_net(tmp_path_factory):
    return _pulse(tmp_path_factory, "[[30, 0.1], [30, 0.0]]")


@pytest.fixture(scope="module")
def three_segment_net(tmp_path_factory):
    return _pulse(tmp_path_factory, "[[20, 0.1], [25, 0.0], [15, 0.3]]")


def _scalar_mode(schedule, t):
    """Mode at one time, one window at a time: the reference for
    ``sim._modes_at``."""
    T = schedule.cycle_time
    phase_time = t - math.floor(t / T + 1e-12) * T
    times = schedule.switch_times
    for k in range(schedule.n_modes):
        if times[k] - 1e-9 * T <= phase_time < times[k + 1] - 1e-9 * T:
            return k
    return schedule.n_modes - 1


def _scalar_inflow(network, t):
    """Per-road inflow at one time, one segment at a time: the reference
    for ``sim._inflows_at``."""
    u = np.zeros(network.n_roads)
    for i, r in enumerate(network.roads):
        profile = network.inflows.get(r.id)
        if not profile:
            continue
        period = sum(dur for dur, _ in profile)
        local = t - math.floor(t / period + 1e-12) * period
        acc = 0.0
        value = profile[-1][1]
        for dur, val in profile:
            acc += dur
            if local < acc - 1e-9 * period:
                value = val
                break
        u[i] = value
    return u


def _rk_reference(network, schedule, x0, horizon):
    """High-accuracy staircase integration of the same switched system."""
    ms = dynamics.assemble_modes(network, schedule)
    T = schedule.cycle_time

    def rhs(t, x):
        tau = t % T
        k = np.searchsorted(schedule.switch_times, tau, side="right") - 1
        k = min(max(k, 0), ms.n_modes - 1)
        u = _scalar_inflow(network, t)
        return ms.modes[k] @ x + ms.input_map @ u

    out = solve_ivp(rhs, (0.0, horizon), x0, rtol=1e-10, atol=1e-12,
                    max_step=1.0, dense_output=True)
    return out


def test_switched_matches_rk_oracle(single):
    network, schedule = single
    x0 = np.ones(network.n)
    horizon = 150.0
    traj = sim.simulate_switching(network, schedule, x0, horizon, dt=1.0)
    ref = _rk_reference(network, schedule, x0, horizon)
    gap = np.abs(traj.states - ref.sol(traj.times).T).max()
    assert gap < 1e-6


def test_averaged_reaches_lti_steady_state(single):
    network, schedule = single
    a = dynamics.average_matrix(dynamics.assemble_modes(network, schedule))
    # single_road has no declared inflow: steady state is the origin.
    # slowest mode is the half-green release, time constant 400 s
    traj = sim.simulate_average(network, schedule, np.ones(network.n),
                                12000.0, dt=50.0)
    assert np.linalg.norm(traj.states[-1]) < 1e-6
    assert np.linalg.eigvals(a).real.max() < 0


def test_steady_state_with_inflow(four_net):
    schedule = net_model.uniform_schedule(four_net)
    # the averaged system is driven by the cycle-averaged inflow
    ms = dynamics.assemble_modes(four_net, schedule)
    target = -np.linalg.solve(dynamics.average_matrix(ms),
                              ms.input_map @ four_net.average_inflow())
    traj = sim.simulate_average(four_net, schedule, np.zeros(four_net.n),
                                30000.0, dt=50.0)
    np.testing.assert_allclose(traj.states[-1], target, atol=1e-7)


def test_positivity_preserved(four_net):
    schedule = net_model.uniform_schedule(four_net)
    rng = np.random.default_rng(2)
    x0 = rng.uniform(0.0, 2.0, four_net.n)
    traj = sim.simulate_switching(four_net, schedule, x0, 300.0, dt=0.5)
    assert traj.states.min() >= -1e-12


def test_mass_balance_without_inflow(single):
    # closed chain: total mass only leaves through the destination exit
    network, schedule = single
    x0 = np.ones(network.n)
    traj = sim.simulate_switching(network, schedule, x0, 400.0, dt=1.0)
    mass = traj.states.sum(axis=1)
    assert np.all(np.diff(mass) <= 1e-12)
    assert mass[-1] < mass[0]


def test_grid_contains_switch_instants(single):
    network, schedule = single
    traj = sim.simulate_switching(network, schedule, np.ones(network.n),
                                  250.0, dt=7.0)
    expected = {50.0, 100.0, 150.0, 200.0, 250.0}
    present = set(np.round(traj.times, 9))
    assert expected <= present
    assert traj.times[0] == 0.0


def test_input_validation(single):
    network, schedule = single
    with pytest.raises(ValidationError):
        sim.simulate_switching(network, schedule, np.ones(network.n), -1.0)
    with pytest.raises(ValidationError):
        sim.simulate_switching(network, schedule, np.ones(network.n), 10.0, dt=0.0)
    with pytest.raises(DimensionError):
        sim.simulate_switching(network, schedule, np.ones(3), 10.0)


ENTRY_POINTS = {
    "simulate_switching": sim.simulate_switching,
    "simulate_average": sim.simulate_average,
    "averaging_error": sim.averaging_error,
    "averaging_sweep": lambda network, schedule, x0, horizon: next(
        sim.averaging_sweep(network, [schedule], x0, horizon)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_every_entry_point_checks_the_state(single, entry):
    network, schedule = single
    for value in (np.nan, np.inf):
        x0 = np.ones(network.n)
        x0[1] = value
        with pytest.raises(ValidationError, match="initial state must be finite"):
            entry(network, schedule, x0, 10.0)
    with pytest.raises(DimensionError):
        entry(network, schedule, np.ones(network.n + 1), 10.0)


def test_averaging_error_decreases_with_cycle(single_net):
    x0 = np.ones(single_net.n)
    errors = []
    for cycle in (120.0, 30.0):
        schedule = net_model.uniform_schedule(single_net, cycle_time=cycle)
        errors.append(sim.averaging_error(single_net, schedule, x0, 600.0, dt=1.0))
    assert errors[1] < errors[0]
    assert all(e >= 0.0 for e in errors)


def test_switched_and_averaged_runs_share_one_grid(single):
    network, schedule = single
    switched = sim.simulate_switching(network, schedule, np.ones(network.n), 200.0, dt=1.0)
    averaged = sim.simulate_average(network, schedule, np.ones(network.n), 200.0, dt=1.0)
    assert switched.states.shape == averaged.states.shape
    np.testing.assert_array_equal(switched.times, averaged.times)


def test_piecewise_inflow_enters_dynamics(pulse_net):
    network = pulse_net
    schedule = net_model.uniform_schedule(network)
    traj = sim.simulate_switching(network, schedule, np.zeros(network.n),
                                  120.0, dt=1.0)
    first_cell = traj.states[:, network.state_slice("a").start]
    on = first_cell[(traj.times > 1) & (traj.times <= 30)]
    assert on.max() > 0.0
    # breakpoints of the inflow profile must be grid points
    assert 30.0 in set(np.round(traj.times, 9))
    assert 90.0 in set(np.round(traj.times, 9))


@pytest.mark.parametrize("cycle", [60.0, 37.0])
def test_piecewise_inflow_matches_rk_oracle(pulse_net, cycle):
    # a cycle of 37 s puts the switches off the inflow period of 60 s
    schedule = net_model.uniform_schedule(pulse_net, cycle_time=cycle)
    x0 = np.array([0.2, 0.0])
    horizon = 150.0
    traj = sim.simulate_switching(pulse_net, schedule, x0, horizon, dt=1.0)
    ref = _rk_reference(pulse_net, schedule, x0, horizon)
    gap = np.abs(traj.states - ref.sol(traj.times).T).max()
    assert gap < 1e-6


def test_zero_length_windows_match_rk_oracle(four_net, four_schedule):
    # the optimizer drives left-turn phases to 0 s; the horizon is not a
    # multiple of the cycle
    schedule = four_schedule.with_durations([50.0, 0.0, 50.0, 0.0])
    x0 = np.random.default_rng(4).uniform(0.0, 1.0, four_net.n)
    horizon = 230.0
    traj = sim.simulate_switching(four_net, schedule, x0, horizon, dt=1.0)
    ref = _rk_reference(four_net, schedule, x0, horizon)
    gap = np.abs(traj.states - ref.sol(traj.times).T).max()
    assert gap < 1e-6


def _probe_times(schedule, network, horizon):
    """Grid midpoints, every switch and profile breakpoint, times 1e-10
    and 1e-13 of a cycle or period on either side of them (inside and
    outside the wrap tolerance), and the window thresholds themselves."""
    events = sim._cycle_events(schedule, network, horizon)
    grid = sim._sample_grid(horizon, 1.0, events)
    T = schedule.cycle_time
    periods = [T]
    thresholds = [np.asarray(schedule.switch_times) - 1e-9 * T]
    for road_id in network.inflows:
        durations = [dur for dur, _ in network.inflow_profile(road_id)]
        periods.append(sum(durations))
        thresholds.append(np.cumsum(durations) - 1e-9 * periods[-1])
    shifted = [events + sign * rel * period for period in periods
               for rel in (1e-10, 1e-13) for sign in (-1.0, 1.0)]
    uniform = np.random.default_rng(5).uniform(0.0, horizon, 200)
    probes = np.concatenate([0.5 * (grid[:-1] + grid[1:]), events, *shifted,
                             *thresholds, uniform])
    return probes[probes >= 0.0]


@pytest.mark.parametrize("durations", [None, [50.0, 0.0, 50.0, 0.0],
                                       [0.0, 50.0, 0.0, 50.0], [30.0, 20.0, 0.0, 50.0]])
@pytest.mark.parametrize("cycle", [100.0, 60.0, 37.0])
@pytest.mark.parametrize("net_name", ["pulse_net", "three_segment_net"])
def test_array_lookups_match_scalar_reference(four_schedule, durations, cycle,
                                              net_name, request):
    network = request.getfixturevalue(net_name)
    schedule = four_schedule
    if durations is not None:
        schedule = schedule.with_durations(durations)
    schedule = schedule.with_durations(schedule.durations * cycle / schedule.cycle_time)
    horizon = 4.5 * max(cycle, 60.0) + 0.3
    t = _probe_times(schedule, network, horizon)
    modes = sim._modes_at(schedule, t)
    np.testing.assert_array_equal(modes, [_scalar_mode(schedule, x) for x in t])
    inflows = sim._inflows_at(network, t)
    np.testing.assert_array_equal(inflows, [_scalar_inflow(network, x) for x in t])
    # the probes reach every mode with a window and every segment
    assert set(modes.tolist()) == {k for k, d in enumerate(schedule.durations) if d > 0} \
        | {schedule.n_modes - 1}
    profile = network.inflow_profile("a")
    assert set(inflows[:, 0].tolist()) == {val for _, val in profile}


@pytest.mark.parametrize("name", [*scenario.BUNDLED, "two"])
def test_constant_inflows_are_one_broadcast_row(name, tmp_path):
    # where every profile is one segment, no array of a row per time is
    # made; a piecewise profile beside a constant one fills only its road
    if name == "two":
        path = tmp_path / "two.yaml"
        path.write_text(TWO_PHASES.replace("PERIOD", "13.0")
                        .replace("INFLOW", "[[7.5, 0.1], [5.5, 0.0]]"))
        network = scenario.load(path)
    else:
        network = scenario.load(name)
    t = np.random.default_rng(13).uniform(0.0, 500.0, 300)
    inflows = sim._inflows_at(network, t)
    np.testing.assert_array_equal(inflows, [_scalar_inflow(network, x) for x in t])
    constant = all(len(profile) == 1 for profile in network.inflows.values())
    assert constant == (name != "two")
    assert (inflows.strides[0] == 0) == constant
    if name == "two":
        assert set(inflows[:, 0].tolist()) == {0.1, 0.0}
        assert set(inflows[:, 1].tolist()) == {0.2}


def _stepped_reference(network, schedule, x0, times, average=False):
    """States on ``times`` stepped one window at a time, each step with
    the ``expm`` of the augmented system over its own exact length: the
    reference for the run-batched stepping of ``sim._propagate``.  Windows
    of one system and bitwise one length share their exponential."""
    ms = dynamics.assemble_modes(network, schedule)
    avg = dynamics.average_matrix(ms), ms.input_map @ network.average_inflow()
    n = network.n
    states = [np.asarray(x0, dtype=float)]
    exponentials = {}
    for t0, t1 in zip(times[:-1], times[1:]):
        mid = 0.5 * (t0 + t1)
        if average:
            a, b = avg
        else:
            a = ms.modes[_scalar_mode(schedule, mid)]
            b = ms.input_map @ _scalar_inflow(network, mid)
        key = (a.tobytes(), b.tobytes(), t1 - t0)
        if key not in exponentials:
            aug = np.zeros((n + 1, n + 1))
            aug[:n, :n] = a
            aug[:n, n] = b
            exponentials[key] = linalg.expm(aug * (t1 - t0))
        e = exponentials[key]
        states.append(e[:n, :n] @ states[-1] + e[:n, n])
    return np.array(states)


def _assert_close_rows(states, ref, rtol=1e-12):
    gap = np.linalg.norm(states - ref, axis=1)
    assert np.all(gap <= rtol * np.linalg.norm(ref, axis=1)), (gap / np.linalg.norm(ref, axis=1)).max()


@pytest.mark.parametrize("case", ["dt 1.0", "dt 0.7", "zero windows", "ragged horizon"])
def test_switched_matches_stepped_reference(four_net, four_schedule, case):
    schedule, horizon, dt = four_schedule, 300.0, 1.0
    if case == "dt 0.7":
        dt = 0.7        # steps cut short at every switch
    elif case == "zero windows":
        schedule = four_schedule.with_durations([50.0, 0.0, 50.0, 0.0])
        horizon = 230.0
    elif case == "ragged horizon":
        horizon = 250.5
    x0 = np.random.default_rng(6).uniform(0.0, 1.0, four_net.n)
    traj = sim.simulate_switching(four_net, schedule, x0, horizon, dt)
    assert traj.times[-1] == horizon
    _assert_close_rows(traj.states, _stepped_reference(four_net, schedule, x0, traj.times))


def test_switched_piecewise_inflow_matches_stepped_reference(pulse_net):
    schedule = net_model.uniform_schedule(pulse_net, cycle_time=37.0)
    x0 = np.array([0.2, 0.0])
    traj = sim.simulate_switching(pulse_net, schedule, x0, 150.0, dt=1.0)
    _assert_close_rows(traj.states, _stepped_reference(pulse_net, schedule, x0, traj.times))


def test_long_averaged_run_matches_stepped_reference(four_net, four_schedule):
    # one run of 6,000 equal steps, cut into chunks of ceil(sqrt(6000)) = 78
    x0 = np.random.default_rng(7).uniform(0.0, 1.0, four_net.n)
    traj = sim.simulate_average(four_net, four_schedule, x0, 6000.0, dt=1.0)
    assert traj.times.shape[0] == 6001
    ref = _stepped_reference(four_net, four_schedule, x0, traj.times, average=True)
    _assert_close_rows(traj.states, ref)


def _augmented(a, b):
    n = a.shape[0]
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = a
    aug[:n, n] = b
    return aug


def _plan_systems(network, schedule, dt):
    """Every key of a switched run over two cycles and of its averaged run:
    table key, ``A``, drift, step length and corridors."""
    modes = dynamics.assemble_modes(network, schedule)
    _, steps, plan = sim._switching_plan(network, schedule, modes, 2 * schedule.cycle_time,
                                         dt)
    return plan.systems + sim._average_plan(network, modes, steps).systems


@pytest.mark.parametrize("dt", [1.0, 0.7])
@pytest.mark.parametrize("name", [*scenario.BUNDLED, "three_segment"])
def test_corridor_blocks_match_the_dense_exponential(three_segment_net, name, dt):
    # every key of the bundled scenarios at a uniform split and with every
    # second window of zero length, and of a piecewise inflow, whose three
    # segments give three drifts; at dt 0.7 the steps cut short at a switch
    # have their own keys.  Each corridor block agrees with the dense
    # exponential of the whole augmented matrix entrywise to 1e-12, above a
    # floor of one unit roundoff of the block's largest entry: expm is
    # accurate normwise only.  Entries under that floor (down to 1e-34 in
    # the mode blocks) differ relatively by up to 3e-3 between the two, and
    # both stray further from a sum of nonnegative series terms.
    network = three_segment_net if name == "three_segment" else scenario.load(name)
    n, eps = network.n, np.finfo(float).eps
    uniform = net_model.uniform_schedule(network)
    zero = uniform.with_durations(np.where(np.arange(uniform.n_modes) % 2, 0.0,
                                           uniform.durations))
    drifts = set()
    for schedule in (uniform, zero):
        for key, a, b, step, corridors in _plan_systems(network, schedule, dt):
            drifts.add(b.tobytes())
            dense = linalg.expm(_augmented(a, b) * step)
            on = np.zeros(dense.shape, dtype=bool)
            perm, groups = corridors
            start = 0
            for (count, order), e in zip(groups, sim._exponential({}, key, a, b, step,
                                                                  corridors)):
                # each corridor's states, then the constant input's
                idx = np.column_stack([perm[start:start + count * order].reshape(count, order),
                                       np.full(count, n)])
                start += count * order
                ref = dense[idx[:, :, None], idx[:, None, :]]
                on[idx[:, :, None], idx[:, None, :]] = True
                np.testing.assert_array_equal(e == 0, ref == 0)
                floor = eps * np.abs(e).max(axis=(1, 2), keepdims=True)
                assert np.all(np.abs(e - ref) <= 1e-12 * np.abs(ref) + floor)
            assert start == n
            # no state of one corridor reaches another
            assert not dense[~on].any()
    if name == "three_segment":
        assert len(drifts) == 4      # the three segments' and the cycle average's


def _dense_states(x0, plan):
    """The states of ``plan`` stepped with the dense augmented exponential of
    each key and one dense product per step, in the order and batches of
    ``sim._propagate``: a jump with the power ``E^L``, a single step as
    ``phi @ x + d``, and the interiors of the jumped runs of one key as
    ``rows @ phi.T + d`` for each step index."""
    starts, lengths, labels = plan.starts, plan.lengths, plan.labels
    n = x0.shape[0]
    states = np.empty((int(starts[-1] + lengths[-1]) + 1, n))
    states[0] = x0

    def blocks(label, length):
        _, a, b, step, _ = plan.systems[label]
        e = np.linalg.matrix_power(linalg.expm(_augmented(a, b) * step), length)
        return e[:n, :n], e[:n, n]

    for s, length, label, jumps in zip(starts, lengths, labels, plan.jump):
        phi, d = blocks(label, length if jumps else 1)
        for i in [s + length] if jumps else range(s + 1, s + length + 1):
            states[i] = phi @ states[s if jumps else i - 1] + d
    runs = np.flatnonzero(plan.jump)
    runs = runs[np.lexsort((-lengths[runs], labels[runs]))]
    for label in np.unique(labels[runs]):
        group = runs[labels[runs] == label]
        first, length = starts[group], lengths[group]
        phi, d = blocks(label, 1)
        y = states[first]
        for j in range(1, int(length[0])):
            active = int(np.count_nonzero(length > j))
            y = y[:active] @ phi.T + d
            states[first[:active] + j] = y
    return states


@pytest.mark.parametrize("name", scenario.BUNDLED)
def test_one_corridor_steps_with_one_dense_product(name):
    # the averaged matrix of every bundled scenario is one corridor of all
    # its cells, in state order; through the same code its exponential is
    # the dense one and its run has the states of dense stepping, bit for bit
    network = scenario.load(name)
    schedule = net_model.uniform_schedule(network)
    x0 = np.random.default_rng(10).uniform(0.0, 1.0, network.n)
    for horizon, dt in [(6000.0, 1.0), (300.0, 0.7)]:
        traj = sim.simulate_average(network, schedule, x0, horizon, dt)
        plan = sim._average_plan(network, dynamics.assemble_modes(network, schedule),
                                 sim._step_lengths(traj.times, horizon))
        for key, a, b, step, corridors in plan.systems:
            np.testing.assert_array_equal(corridors[0], np.arange(network.n))
            assert corridors[1] == ((1, network.n),)
            [e] = sim._exponential({}, key, a, b, step, corridors)
            np.testing.assert_array_equal(e[0], linalg.expm(_augmented(a, b) * step))
        assert plan.jump.any()
        np.testing.assert_array_equal(traj.states, _dense_states(x0, plan))


def _count_expm(monkeypatch):
    """Wrap the simulator's ``expm``; the list gets one entry per call."""
    calls = []
    expm = linalg.expm

    def counting(m):
        calls.append(m.shape)
        return expm(m)

    monkeypatch.setattr(sim.linalg, "expm", counting)
    return calls


def _expm_shapes(keys):
    """Shapes of the ``expm`` calls that make the exponentials of keys with
    the given corridors, such as ``8x27+8x3``: one stack per key and
    corridor order."""
    return sorted((int(count), int(order) + 1, int(order) + 1) for key in keys
                  for count, order in (term.split("x") for term in key.split("+")))


def test_steps_equal_up_to_rounding_share_one_exponential(monkeypatch, caplog):
    # at dt 0.7 the 1,463 steps of this run have 39 distinct float lengths,
    # 7 up to the grid tolerance (0.1, 0.2, ..., 0.7 s): 28 keys over the
    # four modes, against 89 exponentials when every float length was its
    # own key.  Every mode of grid_4x4 has corridors of two orders (8x27+8x3
    # or 32x6+16x3), so each key's exponential is two expm calls.
    caplog.set_level(logging.DEBUG, logger="greensplit.sim")
    net = scenario.load("grid_4x4")
    schedule = net_model.uniform_schedule(net)
    x0 = np.random.default_rng(8).uniform(0.0, 1.0, net.n)
    calls = _count_expm(monkeypatch)
    traj = sim.simulate_switching(net, schedule, x0, 1000.0, dt=0.7)
    [(_, _, new, _, _, _)] = _logged_plans(caplog)
    [corridors] = _logged_corridors(caplog)
    assert new == 28
    assert len(calls) == 56
    assert sorted(calls) == _expm_shapes(corridors)
    assert np.unique(np.diff(traj.times)).size == 39
    monkeypatch.undo()
    ref = _stepped_reference(net, schedule, x0, traj.times)
    _assert_close_rows(traj.states, ref, rtol=1e-9)


def test_shared_table_computes_each_exponential_once(four_net, monkeypatch):
    calls = _count_expm(monkeypatch)
    x0 = np.ones(four_net.n)
    schedules = [net_model.uniform_schedule(four_net, cycle_time=c) for c in (32.0, 40.0)]
    errors = list(sim.averaging_sweep(four_net, schedules, x0, 400.0))
    # five keys, all at dt = 1: the four modes, each with corridors of two
    # orders (4x6+4x3 or 1x12+8x3), and the averaged matrix, one corridor
    # of 36 cells.  The second cycle adds none.
    assert sorted(calls) == _expm_shapes(["4x6+4x3"] * 3 + ["1x12+8x3", "1x36"])
    assert len(calls) == 9
    calls.clear()
    fresh = [sim.averaging_error(four_net, schedule, x0, 400.0) for schedule in schedules]
    assert len(calls) == 18
    assert fresh == errors


def _count_runs(monkeypatch):
    """Wrap the simulator's stepping; the list gets one entry per run that
    is stepped: the grid points of each batch it hands out.  A sweep makes
    one switched run per cycle and one averaged run per distinct averaged
    system and grid."""
    calls = []
    propagate = sim._propagate

    def counting(x0, plan, table):
        points = []
        calls.append(points)
        for indices, rows in propagate(x0, plan, table):
            assert rows.shape == (indices.shape[0], x0.shape[0])
            points.append(indices.copy())
            yield indices, rows

    monkeypatch.setattr(sim, "_propagate", counting)
    return calls


def _each_point_once(calls, samples):
    """Each run handed out every one of the ``samples`` grid points once."""
    for points in calls:
        np.testing.assert_array_equal(np.sort(np.concatenate(points)), np.arange(samples))


def test_sweep_shares_one_averaged_run(four_net, monkeypatch):
    # every switch of these uniform cycles falls on the 1 s grid, so all
    # cycles share one grid and the averaged run is made once
    calls = _count_runs(monkeypatch)
    x0 = np.ones(four_net.n)
    schedules = [net_model.uniform_schedule(four_net, cycle_time=c) for c in (40.0, 80.0, 96.0)]
    errors = list(sim.averaging_sweep(four_net, schedules, x0, 600.0))
    assert len(calls) == 3 + 1
    _each_point_once(calls, 601)
    calls.clear()
    fresh = [sim.averaging_error(four_net, schedule, x0, 600.0) for schedule in schedules]
    assert len(calls) == 3 + 3
    _each_point_once(calls, 601)
    assert errors == fresh


def test_kept_averaged_run_is_keyed_on_matrix_and_grid(four_net, four_schedule, monkeypatch):
    calls = _count_runs(monkeypatch)
    x0 = np.random.default_rng(9).uniform(0.0, 1.0, four_net.n)
    uniform = net_model.uniform_schedule(four_net, cycle_time=40.0)
    # another averaged matrix on the same 1 s grid, then another grid
    # (switches at 7.5 s), then the first schedule again: each one runs the
    # averaged system anew, and a repeat in a row runs it once
    schedules = [uniform, four_schedule.with_durations([50.0, 0.0, 50.0, 0.0]),
                 net_model.uniform_schedule(four_net, cycle_time=30.0), uniform, uniform]
    errors = list(sim.averaging_sweep(four_net, schedules, x0, 300.0))
    assert len(calls) == 5 + 4
    # 301 points at 1 s, and 321 where the switches of T=30 at 7.5 and
    # 22.5 s add 20; each run hands out each of its points once
    assert sorted({sum(map(len, points)) for points in calls}) == [301, 321]
    for points in calls:
        _each_point_once([points], sum(map(len, points)))
    fresh = [sim.averaging_error(four_net, schedule, x0, 300.0) for schedule in schedules]
    assert errors == fresh
    assert errors[0] == errors[3] == errors[4]


def test_sweep_checks_every_size_before_the_first_cycle(single, monkeypatch):
    network, schedule = single
    calls = _count_runs(monkeypatch)
    tiny = net_model.uniform_schedule(network, cycle_time=1e-12)
    sweep = sim.averaging_sweep(network, [schedule, tiny], np.ones(network.n), 300.0)
    with pytest.raises(ValidationError, match="physical memory"):
        next(sweep)
    assert calls == []


def _two_trajectory_error(network, schedule, x0, horizon, dt):
    """The averaging error integrated from the whole trajectories of
    ``simulate_switching`` and ``simulate_average``: their row norms, the
    ``1e-6 |x0|`` floor and the trapezoid over the grid."""
    switched = sim.simulate_switching(network, schedule, x0, horizon, dt)
    averaged = sim.simulate_average(network, schedule, x0, horizon, dt)
    np.testing.assert_array_equal(switched.times, averaged.times)
    ref = np.linalg.norm(averaged.states, axis=1)
    gap = np.linalg.norm(switched.states - averaged.states, axis=1)
    floor = 1e-6 * np.linalg.norm(x0)
    ratio = np.where(ref > floor, gap / np.where(ref > floor, ref, 1.0), 0.0)
    return 100.0 * float(np.trapezoid(ratio, switched.times) / horizon)


@pytest.mark.parametrize("dt", [1.0, 0.7])
@pytest.mark.parametrize("name", [*scenario.BUNDLED, "three_segment"])
def test_streamed_sweep_equals_the_two_trajectory_integral(name, dt, three_segment_net):
    # the sweep streams each switched run against the kept averaged run;
    # every row sums as on the whole arrays, so each error is the same
    # float.  T=37 and T=30 switch off the 1 s grid, an uneven split moves
    # the averaged matrix, and three_segment's inflow is piecewise
    network = three_segment_net if name == "three_segment" else scenario.load(name)
    x0 = np.random.default_rng(11).uniform(0.0, 1.0, network.n)
    schedules = [net_model.uniform_schedule(network, cycle_time=c) for c in (40.0, 37.0, 30.0)]
    uneven = schedules[0].durations.copy()
    uneven[0] *= 1.5
    schedules.append(schedules[0].with_durations(uneven * 40.0 / uneven.sum()))
    errors = list(sim.averaging_sweep(network, schedules, x0, 500.0, dt))
    assert errors == [_two_trajectory_error(network, schedule, x0, 500.0, dt)
                      for schedule in schedules]
    assert all(error > 0.0 for error in errors)


def test_sample_grid_ends_at_the_horizon():
    # the last uniform sample, 9.9e-9 s, lies within the 1e-9 s tolerance
    # below the horizon: it moves onto the horizon
    grid = sim._sample_grid(1e-8, 1.1e-9, np.empty(0))
    assert grid.shape[0] == 10
    assert grid[-1] == 1e-8
    assert np.diff(grid).min() > 1.09e-9
    # an event just below the horizon keeps its place; the end moves up
    grid = sim._sample_grid(10.0, 1.0, np.array([4.5, 10.0 - 5e-9]))
    assert grid[-1] == 10.0
    np.testing.assert_array_equal(grid[:-1], [0, 1, 2, 3, 4, 4.5, 5, 6, 7, 8, 9])


@pytest.mark.parametrize("cycle", [30.0, 40.0, 100.0, 112.0])
@pytest.mark.parametrize("horizon", [3000.0, 6000.0, 1000.3])
def test_sample_grid_at_unit_dt_is_the_union_of_samples_and_events(four_net, cycle,
                                                                   horizon):
    # at dt 1 the grid is every whole second, the horizon and every event
    schedule = net_model.uniform_schedule(four_net, cycle_time=cycle)
    events = sim._cycle_events(schedule, four_net, horizon)
    grid = sim._sample_grid(horizon, 1.0, events)
    expected = np.unique(np.concatenate([np.arange(math.floor(horizon) + 1.0),
                                         [horizon], events[events <= horizon]]))
    np.testing.assert_array_equal(grid, expected)

def _loop_grid(horizon, dt, extra):
    """The grid of ``sim._sample_grid`` deduplicated one instant at a time:
    an instant within the tolerance of the last kept one is dropped."""
    tol = sim._grid_tol(horizon)
    n_steps = int(math.floor(horizon / dt + 1e-9))
    samples = np.arange(n_steps + 1) * dt
    if samples[-1] < horizon - tol:
        samples = np.append(samples, horizon)
    else:
        samples[-1] = horizon
    grid = np.concatenate([samples, extra])
    grid = np.unique(grid[(grid >= 0.0) & (grid <= horizon * (1 + 1e-12))])
    keep = [grid[0]]
    for t in grid[1:]:
        if t - keep[-1] > tol:
            keep.append(t)
    keep[-1] = horizon
    return np.asarray(keep)


@pytest.mark.parametrize("horizon, dt", [(10.0, 1.0), (1000.3, 0.7), (1e-8, 1.1e-9)])
def test_sample_grid_keeps_the_instants_of_a_one_by_one_scan(horizon, dt):
    # chains of gaps below the tolerance, some long enough that an instant
    # further along is kept again, next to every sample, event and the
    # horizon, and gaps just past the tolerance
    tol = sim._grid_tol(horizon)
    rng = np.random.default_rng(12)
    chains = []
    for start in np.concatenate([rng.uniform(0.0, horizon, 40), np.arange(0.0, horizon, dt)[:40],
                                 [horizon - 5 * tol, horizon]]):
        gaps = rng.uniform(0.1, 1.2, rng.integers(1, 12)) * tol
        chains.append(start + np.cumsum(gaps) * rng.choice([-1.0, 1.0]))
    extra = np.concatenate(chains)
    grid = sim._sample_grid(horizon, dt, extra)
    np.testing.assert_array_equal(grid, _loop_grid(horizon, dt, extra))
    assert np.diff(grid).min() > tol
    if dt > 10 * tol:
        # a chain of gaps of 0.6 tol between two samples keeps every second
        # instant
        chain = 4.5 * dt + 0.6 * tol * np.arange(7)
        grid = sim._sample_grid(horizon, dt, chain)
        np.testing.assert_array_equal(grid, _loop_grid(horizon, dt, chain))
        assert np.isin(chain[::2], grid).all() and not np.isin(chain[1::2], grid).any()


def _loop_events(schedule, network, horizon):
    """Event instants one cycle at a time: the reference for
    ``sim._cycle_events``."""
    times = []
    T = schedule.cycle_time
    internal = [t for t in schedule.switch_times if 0.0 < t < T]
    for k in range(int(math.ceil(horizon / T + 1e-9)) + 1):
        times.append(k * T)
        times.extend(k * T + t for t in internal)
    for rid in network.inflows:
        profile = network.inflow_profile(rid)
        if len(profile) < 2:
            continue
        period = sum(dur for dur, _ in profile)
        marks = np.cumsum([dur for dur, _ in profile[:-1]])
        for k in range(int(math.ceil(horizon / period + 1e-9)) + 1):
            times.extend(k * period + m for m in marks)
    arr = np.asarray(times, dtype=float)
    return arr[arr <= horizon * (1 + 1e-12)]


@pytest.mark.parametrize("cycle", [100.0, 37.0, 0.3])
@pytest.mark.parametrize("horizon", [150.0, 1000.3])
def test_cycle_events_and_planned_samples(three_segment_net, four_schedule, cycle, horizon):
    schedule = four_schedule.with_durations([30.0, 20.0, 0.0, 50.0])
    schedule = schedule.with_durations(schedule.durations * cycle / schedule.cycle_time)
    events = sim._cycle_events(schedule, three_segment_net, horizon)
    np.testing.assert_array_equal(events, _loop_events(schedule, three_segment_net, horizon))
    for dt in (1.0, 0.7, 7.0):
        grid = sim._sample_grid(horizon, dt, events)
        assert grid.shape[0] <= sim._planned_samples(three_segment_net, schedule, horizon, dt)


@pytest.mark.parametrize("horizon, dt", [(1e15, 1.0), (1000.0, 1e-12), (1e300, 1e-300),
                                         (100.0, 1e-307)])
def test_oversized_run_is_refused_before_building(single, horizon, dt):
    network, schedule = single
    with pytest.raises(ValidationError, match="physical memory"):
        sim.simulate_switching(network, schedule, np.ones(network.n), horizon, dt)
    with pytest.raises(ValidationError, match="physical memory"):
        sim.simulate_average(network, schedule, np.ones(network.n), horizon, dt)
    with pytest.raises(ValidationError, match="physical memory"):
        sim.averaging_error(network, schedule, np.ones(network.n), horizon, dt)
    with pytest.raises(ValidationError, match="physical memory"):
        next(sim.averaging_sweep(network, [schedule], np.ones(network.n), horizon, dt))


def _traced_peak(run):
    """Bytes a call traces at its peak, above what was traced before it."""
    import tracemalloc
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


_PLAN_LINE = re.compile(r"(\d+) samples, (\d+) runs, (\d+) new keys and (\d+) in the "
                        r"table, (\d+) powers, (\d+) bytes planned, new keys' corridors "
                        r"\[((?:\d+x\d+(?:\+\d+x\d+)*(?:, )?)*)\]")


def _logged_plans(caplog):
    """Samples, runs, new keys, keys in the table, powers and planned bytes
    of each plan the simulator logged."""
    return [tuple(int(g) for g in _PLAN_LINE.fullmatch(r.getMessage()).groups()[:6])
            for r in caplog.records if r.name == "greensplit.sim"]


def _logged_corridors(caplog):
    """The corridors of each new key of each plan the simulator logged, as
    ``count x order`` terms such as ``8x27+8x3``."""
    return [[key for key in _PLAN_LINE.fullmatch(r.getMessage()).group(7).split(", ") if key]
            for r in caplog.records if r.name == "greensplit.sim"]


@pytest.mark.parametrize("name, horizon, dt", [
    ("grid_3x3", 300.0, 1.0), ("grid_3x3", 3000.0, 1.0),
    ("grid_3x3", 300.0, 0.7),
    ("grid_4x4", 300.0, 1.0), ("grid_4x4", 3000.0, 1.0),
])
def test_planned_bytes_cover_the_traced_peak(name, horizon, dt, caplog):
    # the plan counts the mode matrices, the table's exponentials and the
    # run powers; counting only the samples planned 1.8 MB for the switched
    # run of grid_4x4 at 300 s, which traced 9.9 MB.  The sweep's table
    # keeps every cycle time's exponentials, and each cycle's plan counts
    # those the table holds.
    caplog.set_level(logging.DEBUG, logger="greensplit.sim")
    network = scenario.load(name)
    schedule = net_model.uniform_schedule(network)
    x0 = np.ones(network.n)
    for run in (sim.simulate_switching, sim.simulate_average):
        caplog.clear()
        peak = _traced_peak(lambda: run(network, schedule, x0, horizon, dt))
        assert peak <= _logged_plans(caplog)[0][5]
    schedules = [net_model.uniform_schedule(network, cycle_time=c)
                 for c in (30.0, 60.0, 100.0, 120.0)]

    caplog.clear()
    peak = _traced_peak(lambda: list(sim.averaging_sweep(network, schedules, x0, horizon, dt)))
    assert peak <= max(plan[5] for plan in _logged_plans(caplog))


@pytest.mark.parametrize("cycle", [100.0, 37.0])
def test_plan_of_a_switched_run_is_within_twice_its_traced_peak(cycle, caplog):
    # at dt 0.7 the steps ending at a switch have their own lengths; a
    # bound on the keys the grid could give planned 169.3 and 360.8 MB for
    # runs that traced 34.2 and 49.8 MB, 4.9 and 7.2 times their peak.
    # Kept as corridor blocks, the exponentials leave peaks of 11.9 and
    # 13.9 MB, and counting each key at its dense (n+1)^2 would plan 3.4
    # and 4.0 times them
    caplog.set_level(logging.DEBUG, logger="greensplit.sim")
    network = scenario.load("grid_4x4")
    schedule = net_model.uniform_schedule(network, cycle_time=cycle)
    peak = _traced_peak(lambda: sim.simulate_switching(network, schedule, np.ones(network.n),
                                                       3000.0, 0.7))
    [plan] = _logged_plans(caplog)
    assert peak <= plan[5] <= 2 * peak


TWO_PHASES = """\
schema_version: 1
name: two-phases
h: 100.0
cycle_time: PERIOD
roads:
  - {id: a, length: 100.0, free_flow_speed: 10.0, source: true, inflow: INFLOW}
  - {id: c, length: 100.0, free_flow_speed: 10.0, source: true, inflow: 0.2}
  - {id: b, length: 100.0, free_flow_speed: 10.0, destination: true, exit_rate: 1.0}
movements:
  - {intersection: x, from: a, to: b, routing_ratio: 1.0, saturation_speed: 0.05}
  - {intersection: x, from: c, to: b, routing_ratio: 1.0, saturation_speed: 0.05}
intersections:
  - id: x
    phases:
      - [a -> b]
      - [c -> b]
"""


@pytest.mark.parametrize("name, period, inflow, cycle, horizon, dt", [
    # inflow marks whose period is not the cycle's fall under either phase,
    # and off-grid marks of two families can share a step between samples
    *[pytest.param("two", period, inflow, cycle, 600.0, dt,
                   id=f"{dt}-{cycle}-{period}-{inflow}")
      for period, inflow in [("13.0", "[[7.5, 0.1], [5.5, 0.0]]"),
                             ("7.0", "[[3.25, 0.2], [0.5, 0.0], [3.25, 0.1]]")]
      for cycle in (60.0, 37.0, 13.0) for dt in (1.0, 0.7)],
    # inflow segments of 20, 25 and 15 s repeat every 60 s; at dt 0.7
    # their ends fall off the uniform samples
    *[pytest.param("three_segment", None, None, 100.0, 3000.0, dt,
                   id=f"three_segment-{dt}") for dt in (1.0, 0.7)],
    # T=30 switches at 7.5 and 22.5 s, T=37 at 9.25, 18.5 and 27.75 s: off
    # the samples at dt 1, each at one place between two samples in every
    # cycle.  A bound on the keys such grids can give planned 84.1 and
    # 238.6 MB of exponentials for tables that end with 3.7 and 4.6 MB.
    *[pytest.param("grid_4x4", None, None, cycle, horizon, 1.0,
                   id=f"grid_4x4-{cycle}-{horizon}")
      for cycle, horizon in [(30.0, 1200.0), (37.0, 3000.0)]],
])
def test_planned_table_covers_every_key(tmp_path, three_segment_net, caplog, monkeypatch,
                                        name, period, inflow, cycle, horizon, dt):
    # the plan counts the exponentials a run adds to its table exactly,
    # and the bytes it plans cover the run's traced peak
    if name == "two":
        path = tmp_path / "two.yaml"
        path.write_text(TWO_PHASES.replace("PERIOD", period).replace("INFLOW", inflow))
        network = scenario.load(path)
    else:
        network = three_segment_net if name == "three_segment" else scenario.load(name)
    schedule = net_model.uniform_schedule(network, cycle_time=cycle)
    caplog.set_level(logging.DEBUG, logger="greensplit.sim")
    calls = _count_expm(monkeypatch)
    peak = _traced_peak(lambda: sim.simulate_switching(network, schedule, np.ones(network.n),
                                                       horizon, dt))
    [(_, _, new, held, _, planned)] = _logged_plans(caplog)
    [corridors] = _logged_corridors(caplog)
    assert (len(corridors), held) == (new, 0)
    assert sorted(calls) == _expm_shapes(corridors)
    assert peak <= planned
    # a sweep of the schedule twice: the first cycle adds the switched and
    # the averaged keys, and the second adds none and finds them all held
    calls.clear()
    caplog.clear()
    list(sim.averaging_sweep(network, [schedule, schedule], np.ones(network.n), horizon, dt))
    [(_, _, first, held, _, _), (_, _, second, again, _, _)] = _logged_plans(caplog)
    [added, none] = _logged_corridors(caplog)
    assert (len(added), held) == (first, 0)
    assert sorted(calls) == _expm_shapes(added)
    assert first > new
    assert (second, again, none) == (0, first, [])


def test_each_run_logs_its_plan(four_net, caplog, monkeypatch):
    caplog.set_level(logging.DEBUG, logger="greensplit.sim")
    calls = _count_expm(monkeypatch)
    x0 = np.ones(four_net.n)
    traj = sim.simulate_switching(four_net, net_model.uniform_schedule(four_net), x0, 400.0,
                                  0.7)
    [(samples, runs, new, held, powers, planned)] = _logged_plans(caplog)
    [corridors] = _logged_corridors(caplog)
    assert samples == traj.times.shape[0]
    assert held == 0
    assert sorted(calls) == _expm_shapes(corridors)
    assert new <= runs < samples
    blocks = sum(count * side * side for count, side, _ in _expm_shapes(corridors))
    assert planned >= traj.states.nbytes + 8 * blocks
    # each key's corridors: in three modes of four_intersections each
    # intersection joins two roads (4x6+4x3); in the second, r7, r4, r6
    # and r9 form one ring of 12 cells (1x12+8x3)
    assert len(corridors) == new
    assert set(corridors) == {"4x6+4x3", "1x12+8x3"}
    # one line for both runs of an averaging error: the modes' keys and
    # the averaged system's are new, and the averaged matrix is one
    # corridor of all 36 cells
    calls.clear()
    caplog.clear()
    sim.averaging_error(four_net, net_model.uniform_schedule(four_net), x0, 400.0, 0.7)
    [(samples2, runs2, new2, held2, _, _)] = _logged_plans(caplog)
    [corridors2] = _logged_corridors(caplog)
    assert (samples2, held2) == (samples, 0)
    assert sorted(calls) == _expm_shapes(corridors2)
    assert new2 == len(corridors2) > new
    assert set(corridors2) == {"4x6+4x3", "1x12+8x3", "1x36"}
    assert runs2 > runs
