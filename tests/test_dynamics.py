"""Mode matrices and their duration-weighted average."""

import numpy as np
import pytest

from greensplit import dynamics, net_model, scenario
from greensplit.errors import DimensionError, ValidationError


def test_modes_are_metzler(four_modes):
    for a in four_modes.modes:
        off = a - np.diag(np.diag(a))
        assert off.min() >= 0.0


def test_column_sums_never_positive(four_modes, four_net):
    # mass can only leave through destination exits
    drained = set()
    for rid in four_net.destinations:
        drained.add(four_net.state_slice(rid).stop - 1)
    for a in four_modes.modes:
        sums = a.sum(axis=0)
        assert sums.max() <= 1e-12
        negative = set(np.nonzero(sums < -1e-12)[0])
        assert negative == drained


def test_green_transfer_only_in_green_modes(single_net):
    sched = net_model.uniform_schedule(single_net)
    ms = dynamics.assemble_modes(single_net, sched)
    a_green, a_red = ms.modes
    tail = single_net.state_slice("r1").stop - 1
    head = single_net.state_slice("r2").start
    rate = single_net.intersections[0].movements[0].rate
    assert a_green[head, tail] == pytest.approx(rate)
    assert a_red[head, tail] == 0.0
    # the red mode still drains the destination
    dest_tail = single_net.state_slice("r2").stop - 1
    assert a_red[dest_tail, dest_tail] < 0


def test_chain_structure(single_net):
    sched = net_model.uniform_schedule(single_net)
    ms = dynamics.assemble_modes(single_net, sched)
    a = ms.modes[1]  # red: pure chains plus exit drain
    sl = single_net.state_slice("r1")
    gamma_h = single_net.roads[0].free_flow_speed / single_net.h
    block = a[sl, sl]
    assert block[0, 0] == pytest.approx(-gamma_h)
    assert block[1, 0] == pytest.approx(gamma_h)
    assert block[2, 2] == 0.0  # last cell holds until released


def test_input_map_hits_first_cells(four_net, four_modes):
    b = four_modes.input_map
    assert b.shape == (four_net.n, four_net.n_roads)
    for i, road in enumerate(four_net.roads):
        col = np.zeros(four_net.n)
        col[four_net.state_slice(road.id).start] = 1.0
        np.testing.assert_array_equal(b[:, i], col)


def test_average_is_convex_combination(four_modes):
    a_avg = dynamics.average_matrix(four_modes)
    stacked = np.stack(four_modes.modes)
    np.testing.assert_allclose(a_avg, stacked.mean(axis=0), atol=1e-15)


def test_average_scale_invariance(four_modes):
    d = np.array([40.0, 10.0, 30.0, 20.0])
    base = dynamics.average_matrix(four_modes, d)
    for c in (0.5, 2.0):
        scaled = dynamics.average_matrix(four_modes, c * d)
        assert np.max(np.abs(scaled - base)) <= 1e-14


def test_average_duration_validation(four_modes):
    with pytest.raises(DimensionError):
        dynamics.average_matrix(four_modes, np.ones(3))
    with pytest.raises(ValidationError):
        dynamics.average_matrix(four_modes, np.array([-1.0, 1.0, 1.0, 1.0]))
    with pytest.raises(ValidationError):
        dynamics.average_matrix(four_modes, np.zeros(4))
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="finite"):
            dynamics.average_matrix(four_modes, np.array([value, 25.0, 25.0, 25.0]))


def test_zero_duration_mode_drops_out(four_modes):
    d = np.array([50.0, 0.0, 0.0, 50.0])
    a = dynamics.average_matrix(four_modes, d)
    expected = 0.5 * (four_modes.modes[0] + four_modes.modes[3])
    np.testing.assert_allclose(a, expected, atol=1e-15)


def test_output_map_selects_last_cells(four_net):
    c = dynamics.output_map(four_net)
    assert c.shape == (four_net.n_roads, four_net.n)
    x = np.arange(four_net.n, dtype=float)
    y = c @ x
    for i, road in enumerate(four_net.roads):
        assert y[i] == x[four_net.state_slice(road.id).stop - 1]


def test_unknown_movement_in_phase_rejected(single_net):
    sched = net_model.uniform_schedule(single_net)
    bad = net_model.Schedule(
        sched.switch_times,
        ((("I1", 1),), (("I1", 0),)),  # swapped is fine; out-of-range is not
    )
    ms = dynamics.assemble_modes(single_net, bad)
    assert ms.n_modes == 2
    worse = net_model.Schedule(sched.switch_times, ((("I1", 5),), (("I1", 0),)))
    with pytest.raises(ValidationError, match="phase"):
        dynamics.assemble_modes(single_net, worse)
    ghost = net_model.Schedule(sched.switch_times, ((("I9", 0),), (("I1", 0),)))
    with pytest.raises(ValidationError, match="unknown intersection"):
        dynamics.assemble_modes(single_net, ghost)


def test_mode_durations_follow_schedule(four_net):
    sched = net_model.uniform_schedule(four_net).with_durations([70, 10, 10, 10])
    ms = dynamics.assemble_modes(four_net, sched)
    np.testing.assert_allclose(ms.durations, [70, 10, 10, 10])


def test_grid_average_is_hurwitz():
    net = scenario.load("grid_3x3")
    ms = dynamics.assemble_modes(net, net_model.uniform_schedule(net))
    a = dynamics.average_matrix(ms)
    assert np.linalg.eigvals(a).real.max() < 0
