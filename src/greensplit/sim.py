"""Trajectory simulation of the switched network and its averaged surrogate.

Between signal switches the dynamics are affine and time invariant, so the
simulator advances with matrix exponentials of the augmented system rather
than an ODE integrator: every step lands on switching instants exactly and
the only discretization left is where the trajectory is sampled.  The mode
and the exogenous inflow of every step are looked up once per grid, for all
step midpoints at once.  Steps of one mode, inflow and length come in
runs; the stepping jumps between run starts with matrix powers and fills
the runs' interiors with matrix-matrix products (:func:`_propagate`).

The agreement metric integrates the relative gap between the switched and
averaged state trajectories over a horizon and normalizes by its length;
samples where the averaged state has essentially vanished are excluded so
the ratio stays meaningful.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .dynamics import assemble_modes, average_system, output_map
from .errors import DimensionError, ValidationError
from .net_model import NetworkSpec, Schedule

#: relative floor under which the averaged state counts as vanished
_EXCLUDE_FLOOR = 1e-6


@dataclass(frozen=True)
class Trajectory:
    """Sampled continuous-time solution; rows of ``states`` follow ``times``."""

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray


@dataclass(frozen=True)
class AveragingReport:
    cycle_time: float
    horizon: float
    error_percent: float
    switched: Trajectory
    averaged: Trajectory


class ExponentialTable:
    """Augmented exponentials ``E = expm([[A, b], [0, 0]] dt)``.

    Entries are keyed by the bytes of ``A`` and ``b`` and by ``dt``, so
    simulations handed the same table share every system they meet
    again: at a uniform split the mode matrices and the averaged matrix
    do not depend on the cycle time.  A table serves one command; nothing
    is kept between commands.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, np.ndarray] = {}

    def exponential(self, key: tuple, a: np.ndarray, b: np.ndarray,
                    dt: float) -> np.ndarray:
        """``E`` of the system ``key = (A bytes, b bytes, dt)``."""
        hit = self._entries.get(key)
        if hit is None:
            n = a.shape[0]
            aug = np.zeros((n + 1, n + 1))
            aug[:n, :n] = a
            aug[:n, n] = b
            hit = self._entries[key] = linalg.expm(aug * dt)
        return hit


def _propagate(x0: np.ndarray, matrices: list[np.ndarray], mode: np.ndarray,
               input_map: np.ndarray, inputs: np.ndarray, steps: np.ndarray,
               table: ExponentialTable) -> np.ndarray:
    """Exact states of ``x' = A x + B u`` before and after every step.

    Step ``i`` lasts ``steps[i]`` under ``A = matrices[mode[i]]`` and the
    drift ``B u = input_map @ inputs[i]``.  The steps are grouped into
    maximal runs of one key (mode, input, length), cut into chunks of at most
    ``ceil(sqrt(len(steps)))`` steps.  A sequential pass walks the run
    boundaries: a run jumps to its end with the power ``E^L`` of its
    augmented exponential (``np.linalg.matrix_power``, kept for this call)
    when its (key, ``L``) recurs often enough to pay for the power, and is
    stepped one step at a time otherwise.  A fill pass then steps the
    interiors of all jumped runs of one key together, one matrix-matrix
    product per step index.  When every step has its own key, this is one
    matrix-vector product per step.
    """
    n_steps, n = steps.shape[0], x0.shape[0]
    states = np.empty((n_steps + 1, n))
    states[0] = x0
    cut = np.ones(n_steps, dtype=bool)
    cut[1:] = ((mode[1:] != mode[:-1]) | (steps[1:] != steps[:-1])
               | (inputs[1:] != inputs[:-1]).any(axis=1))
    offset = np.arange(n_steps) - np.flatnonzero(cut)[np.cumsum(cut) - 1]
    cut |= offset % (math.isqrt(n_steps - 1) + 1) == 0
    starts = np.flatnonzero(cut)
    lengths = np.diff(starts, append=n_steps)

    matrix_keys = [a.tobytes() for a in matrices]
    labels: dict[tuple, int] = {}
    systems = []
    run_label = []
    for s, k, dt in zip(starts.tolist(), mode[starts].tolist(), steps[starts].tolist()):
        label = labels.setdefault((k, inputs[s].tobytes(), dt), len(systems))
        if label == len(systems):
            drift = input_map @ inputs[s]
            systems.append(((matrix_keys[k], drift.tobytes(), dt), matrices[k], drift, dt))
        run_label.append(label)
    maps: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def transition(label: int, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Blocks ``Phi, d`` of ``E^length`` for the key ``label``."""
        hit = maps.get((label, length))
        if hit is None:
            e = table.exponential(*systems[label])
            if length > 1:
                e = np.linalg.matrix_power(e, length)
            hit = maps[label, length] = (e[:n, :n], e[:n, n])
        return hit

    # a power costs a few products of order n, about n matrix-vector steps
    # each; a run jumps only when the runs of its (key, length) save more
    # steps than that, and is stepped one step at a time otherwise
    run_label = np.asarray(run_label)
    _, pair, repeats = np.unique(np.stack([run_label, lengths]), axis=1,
                                 return_inverse=True, return_counts=True)
    jump = (lengths > 1) & (repeats[pair.ravel()] * (lengths - 1) >= n)
    x = states[0]
    for s, length, label, jumps in zip(starts.tolist(), lengths.tolist(),
                                       run_label.tolist(), jump.tolist()):
        if jumps:
            phi, d = transition(label, length)
        else:
            phi, d = transition(label, 1)
            for i in range(s + 1, s + length):
                x = phi @ x + d
                states[i] = x
        x = phi @ x + d
        states[s + length] = x

    # runs that jumped, by key and then by falling length, so the runs of
    # one key still going at step j are a prefix of its group
    runs = np.flatnonzero(jump)
    runs = runs[np.lexsort((-lengths[runs], run_label[runs]))]
    for group in np.split(runs, np.flatnonzero(np.diff(run_label[runs])) + 1):
        if group.size == 0:
            continue
        first, length = starts[group], lengths[group]
        phi, d = transition(int(run_label[group[0]]), 1)
        y = states[first]
        for j in range(1, int(length[0])):
            active = int(np.count_nonzero(length > j))
            y = y[:active] @ phi.T + d
            states[first[:active] + j] = y
    return states


def _grid_tol(horizon: float) -> float:
    """Time within which two instants of a grid over ``horizon`` count as one."""
    return 1e-9 * max(horizon, 1.0)


def _sample_grid(horizon: float, dt: float, extra: np.ndarray) -> np.ndarray:
    """Uniform samples merged with event instants, deduplicated."""
    tol = _grid_tol(horizon)
    n_steps = int(math.floor(horizon / dt + 1e-9))
    samples = np.arange(n_steps + 1) * dt
    if samples[-1] < horizon - tol:
        samples = np.append(samples, horizon)
    grid = np.concatenate([samples, extra])
    grid = grid[(grid >= 0.0) & (grid <= horizon * (1 + 1e-12))]
    grid = np.unique(grid)
    keep = [grid[0]]
    for t in grid[1:]:
        if t - keep[-1] > tol:
            keep.append(t)
    keep[-1] = min(keep[-1], horizon)
    return np.asarray(keep)


def _step_lengths(grid: np.ndarray, horizon: float) -> np.ndarray:
    """Steps of a grid over ``horizon``.  Going up the distinct lengths,
    each within the grid's tolerance of the last kept length takes it: at
    a ``dt`` that is not a binary fraction the samples ``k dt`` round
    differently, and steps equal but for their last bits would each get
    their own key and exponential."""
    lengths, index = np.unique(np.diff(grid), return_inverse=True)
    tol = _grid_tol(horizon)
    for i in range(1, lengths.shape[0]):
        if lengths[i] - lengths[i - 1] <= tol:
            lengths[i] = lengths[i - 1]
    return lengths[index]


def _cycle_events(schedule: Schedule, network: NetworkSpec, horizon: float) -> np.ndarray:
    """All switching and inflow-profile instants inside the horizon."""
    T = schedule.cycle_time
    offsets = [0.0] + [t for t in schedule.switch_times if 0.0 < t < T]
    n_cycles = int(math.ceil(horizon / T + 1e-9))
    times = [(np.arange(n_cycles + 1)[:, None] * T + offsets).ravel()]
    for rid in network.inflows:
        profile = network.inflow_profile(rid)
        if len(profile) < 2:
            continue
        period = sum(dur for dur, _ in profile)
        marks = np.cumsum([dur for dur, _ in profile[:-1]])
        reps = int(math.ceil(horizon / period + 1e-9))
        times.append((np.arange(reps + 1)[:, None] * period + marks).ravel())
    arr = np.concatenate(times)
    return arr[arr <= horizon * (1 + 1e-12)]


def _planned_samples(network: NetworkSpec, schedule: Schedule, horizon: float,
                     dt: float) -> float:
    """Upper bound on the grid points of a run, from sizes alone: the
    uniform samples plus every instant :func:`_cycle_events` lists."""
    T = schedule.cycle_time
    count = horizon / dt + 3.0
    count += (horizon / T + 3.0) * sum(1 for t in schedule.switch_times if t < T)
    for rid in network.inflows:
        profile = network.inflow_profile(rid)
        if len(profile) >= 2:
            period = sum(dur for dur, _ in profile)
            count += (horizon / period + 3.0) * (len(profile) - 1)
    return count


def check_size(network: NetworkSpec, schedule: Schedule, horizon: float, dt: float,
               trajectories: int = 1) -> None:
    """Refuse a run whose arrays would hold over half of physical memory.

    A grid point costs up to three rows of ``n`` doubles (the state, the
    step's inflows, the output) and about sixteen words of grid work:
    event times, the grid and the list :func:`_sample_grid` deduplicates
    through, step midpoints, modes and lengths, the run bookkeeping of
    the stepping.  A span that is not finite and positive is refused
    first, and one that :func:`_check_span` refuses after the memory check.
    """
    _check_positive(horizon, dt)
    samples = _planned_samples(network, schedule, horizon, dt)
    planned = 8.0 * trajectories * samples * (3 * network.n + 16)
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if planned > physical / 2:
        raise ValidationError(
            f"a run of {horizon:g} s at dt {dt:g} s (cycle {schedule.cycle_time:g} s) "
            f"has about {samples:.3g} samples and would hold about "
            f"{planned / 2**30:.3g} GiB, over half of the "
            f"{physical / 2**30:.1f} GiB of physical memory"
        )
    _check_span(horizon, dt)


def _modes_at(schedule: Schedule, t: np.ndarray) -> np.ndarray:
    """Mode index at each time in ``t``.

    Mode ``k`` holds from ``tau_k - 1e-9 T`` to ``tau_(k+1) - 1e-9 T`` of
    the cycle; a window of zero length holds nowhere, and the last
    ``1e-9 T`` of the cycle falls to the last mode.  The wrap tolerance
    keeps the phase time above ``-1e-12 T``, so above the first threshold.
    """
    T = schedule.cycle_time
    phase_time = t - np.floor(t / T + 1e-12) * T
    thresholds = np.asarray(schedule.switch_times, dtype=float) - 1e-9 * T
    k = np.searchsorted(thresholds, phase_time, side="right") - 1
    return np.minimum(k, schedule.n_modes - 1)


def _inflows_at(network: NetworkSpec, t: np.ndarray) -> np.ndarray:
    """Per-road exogenous inflow at each time in ``t`` (``len(t) x n_roads``).

    A segment holds until ``1e-9`` of its profile's period before it ends;
    past the last threshold the last segment holds.
    """
    u = np.zeros((t.shape[0], network.n_roads))
    for i, r in enumerate(network.roads):
        profile = network.inflows.get(r.id)
        if not profile:
            continue
        ends = np.cumsum([dur for dur, _ in profile], dtype=float)
        period = ends[-1]
        local = t - np.floor(t / period + 1e-12) * period
        segment = np.searchsorted(ends - 1e-9 * period, local, side="right")
        values = np.array([val for _, val in profile], dtype=float)
        u[:, i] = values[np.minimum(segment, len(profile) - 1)]
    return u


def _check_x0(network: NetworkSpec, x0: np.ndarray) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != network.n:
        raise DimensionError(
            f"initial state has length {x0.shape[0]}, network has {network.n} cells"
        )
    return x0


def _check_positive(horizon: float, dt: float) -> None:
    if not (math.isfinite(horizon) and math.isfinite(dt) and horizon > 0 and dt > 0):
        raise ValidationError(
            f"horizon and dt must be finite and positive, got {horizon!r} and {dt!r}"
        )


def _check_span(horizon: float, dt: float) -> None:
    """Refuse a span that is not finite and positive, or whose horizon or
    step is within the sampling tolerance."""
    _check_positive(horizon, dt)
    tol = _grid_tol(horizon)
    if horizon <= tol:
        raise ValidationError(f"horizon {horizon!r} s leaves no step: it must exceed "
                              f"the sampling tolerance of {tol:g} s")
    # samples closer than the tolerance would merge into irregular steps
    if dt <= tol:
        raise ValidationError(f"dt {dt!r} s must exceed the sampling tolerance "
                              f"of {tol:g} s")


def simulate_switching(network: NetworkSpec, schedule: Schedule, x0: np.ndarray,
                       horizon: float, dt: float = 1.0,
                       table: ExponentialTable | None = None) -> Trajectory:
    """Integrate the switched dynamics exactly on a sampling grid.

    The grid is the union of uniform ``dt`` samples with every switching
    and inflow-change instant, so no window is ever straddled.  A run
    whose arrays would exceed half of physical memory raises
    :class:`ValidationError` before anything is built.  Pass ``table`` to
    share exponentials with other runs of the same command.
    """
    check_size(network, schedule, horizon, dt)
    x = _check_x0(network, x0)
    modes = assemble_modes(network, schedule)
    grid = _sample_grid(horizon, dt, _cycle_events(schedule, network, horizon))
    C = output_map(network)
    mid = 0.5 * (grid[:-1] + grid[1:])
    states = _propagate(x, modes.modes, _modes_at(schedule, mid), modes.input_map,
                        _inflows_at(network, mid), _step_lengths(grid, horizon),
                        ExponentialTable() if table is None else table)
    return Trajectory(times=grid, states=states, outputs=states @ C.T)


def simulate_average(network: NetworkSpec, schedule: Schedule, x0: np.ndarray,
                     horizon: float, dt: float = 1.0,
                     grid: np.ndarray | None = None,
                     table: ExponentialTable | None = None) -> Trajectory:
    """Integrate the averaged surrogate on the same kind of grid."""
    check_size(network, schedule, horizon, dt)
    x = _check_x0(network, x0)
    modes = assemble_modes(network, schedule)
    avg = average_system(network, modes)
    if grid is None:
        grid = _sample_grid(horizon, dt, _cycle_events(schedule, network, horizon))
    n_steps = grid.shape[0] - 1
    states = _propagate(x, [avg.A], np.zeros(n_steps, dtype=int), avg.B,
                        np.broadcast_to(avg.u, (n_steps, avg.u.shape[0])),
                        _step_lengths(grid, horizon),
                        ExponentialTable() if table is None else table)
    return Trajectory(times=grid, states=states, outputs=states @ avg.C.T)


def averaging_error(network: NetworkSpec, schedule: Schedule, x0: np.ndarray,
                    horizon: float, dt: float = 1.0,
                    table: ExponentialTable | None = None) -> AveragingReport:
    """Relative gap between switched and averaged trajectories.

    Returns the horizon-normalized integral of
    ``norm(x - x_av) / norm(x_av)`` as a percentage, excluding samples where
    the averaged state has decayed below ``1e-6`` of the initial norm.
    Both runs share ``table``; pass one to share it across a sweep.
    """
    check_size(network, schedule, horizon, dt, trajectories=2)
    x0 = _check_x0(network, x0)
    if table is None:
        table = ExponentialTable()
    switched = simulate_switching(network, schedule, x0, horizon, dt, table=table)
    averaged = simulate_average(network, schedule, x0, horizon, dt,
                                grid=switched.times, table=table)
    ref = np.linalg.norm(averaged.states, axis=1)
    gap = np.linalg.norm(switched.states - averaged.states, axis=1)
    floor = _EXCLUDE_FLOOR * np.linalg.norm(x0)
    ratio = np.where(ref > floor, gap / np.where(ref > floor, ref, 1.0), 0.0)
    error = np.trapezoid(ratio, switched.times) / horizon
    return AveragingReport(
        cycle_time=schedule.cycle_time,
        horizon=horizon,
        error_percent=100.0 * float(error),
        switched=switched,
        averaged=averaged,
    )
