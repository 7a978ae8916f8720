"""Trajectory simulation of the switched network and its averaged surrogate.

Between signal switches the dynamics are affine and time invariant, so the
simulator advances with matrix exponentials of the augmented system rather
than an ODE integrator: every step lands on switching instants exactly and
the only discretization left is where the trajectory is sampled.  The mode
and the exogenous inflow of every step are looked up once per grid, for all
step midpoints at once.  Steps of one mode, inflow and length come in
runs.  A plan (:func:`_plan`) lists the runs, their keys and the powers
that jump over them; the stepping (:func:`_propagate`) jumps between run
starts with those powers and fills the runs' interiors with matrix-matrix
products.  Memory is checked from sizes alone (:func:`_check_size`), then
from the plan with the exact exponentials a run adds (:func:`_check_plans`).

The agreement metric integrates the relative gap between the switched and
averaged state trajectories over a horizon and normalizes by its length;
samples where the averaged state has essentially vanished are excluded so
the ratio stays meaningful.  :func:`averaging_sweep` runs it over a list of
schedules.  It owns the sweep: it checks every size up front, shares one
dict of exponentials across the cycles and keeps the last averaged run, and
at a uniform split the averaged system does not depend on the cycle time,
so cycles whose grids coincide run it once.
"""

from __future__ import annotations

import hashlib
import logging
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .dynamics import ModeSet, assemble_modes, average_matrix
from .errors import ValidationError, check_memory
from .lyapunov import as_state
from .net_model import NetworkSpec, Schedule

log = logging.getLogger(__name__)

#: relative floor under which the averaged state counts as vanished
_EXCLUDE_FLOOR = 1e-6
#: rows per block of the error integral's row norms
_NORM_ROWS = 512


@dataclass(frozen=True)
class Trajectory:
    """Sampled continuous-time solution; rows of ``states`` follow ``times``."""

    times: np.ndarray
    states: np.ndarray


def _exponential(table: dict[tuple, np.ndarray], key: tuple, a: np.ndarray,
                 b: np.ndarray, dt: float) -> np.ndarray:
    """Augmented exponential ``E = expm([[A, b], [0, 0]] dt)`` of the system
    ``key = (A digest, b bytes, dt)``, kept in ``table``.  Keying by a
    BLAKE2 digest of ``A`` keeps no copy of the matrices."""
    hit = table.get(key)
    if hit is None:
        n = a.shape[0]
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = a
        aug[:n, n] = b
        hit = table[key] = linalg.expm(aug * dt)
    return hit


@dataclass(frozen=True)
class _Plan:
    """Index bookkeeping of one run of :func:`_propagate`, built before any
    state or exponential.

    Run ``r`` starts at step ``starts[r]``, lasts ``lengths[r]`` steps and
    has the key ``systems[labels[r]]``: its table key, ``A``, drift and
    step length.  Where ``jump[r]``, it jumps to its end with a power of
    its exponential; ``powers`` counts the (key, length) pairs raised.
    """

    starts: np.ndarray
    lengths: np.ndarray
    labels: np.ndarray
    jump: np.ndarray
    systems: list[tuple]
    powers: int


def _plan(matrices: list[np.ndarray], mode: np.ndarray, input_map: np.ndarray,
          inputs: np.ndarray, steps: np.ndarray) -> _Plan:
    """Plan of the steps of ``x' = A x + B u``.

    Step ``i`` lasts ``steps[i]`` under ``A = matrices[mode[i]]`` and the
    drift ``B u = input_map @ inputs[i]``.  The steps are grouped into
    maximal runs of one key (mode, input, length), cut into chunks of at
    most ``ceil(sqrt(len(steps)))`` steps.  A power costs a few products of
    order n, about n matrix-vector steps each, so a run jumps only when the
    runs of its (key, length) save more steps than that.
    """
    n_steps, n = steps.shape[0], matrices[0].shape[0]
    cut = np.ones(n_steps, dtype=bool)
    cut[1:] = ((mode[1:] != mode[:-1]) | (steps[1:] != steps[:-1])
               | (inputs[1:] != inputs[:-1]).any(axis=1))
    offset = np.arange(n_steps) - np.flatnonzero(cut)[np.cumsum(cut) - 1]
    cut |= offset % (math.isqrt(n_steps - 1) + 1) == 0
    starts = np.flatnonzero(cut)
    lengths = np.diff(starts, append=n_steps)

    matrix_keys = [hashlib.blake2b(np.ascontiguousarray(a)).digest() for a in matrices]
    labels: dict[tuple, int] = {}
    systems = []
    run_label = []
    for s, k, dt in zip(starts.tolist(), mode[starts].tolist(), steps[starts].tolist()):
        label = labels.setdefault((k, inputs[s].tobytes(), dt), len(systems))
        if label == len(systems):
            drift = input_map @ inputs[s]
            systems.append(((matrix_keys[k], drift.tobytes(), dt), matrices[k], drift, dt))
        run_label.append(label)
    run_label = np.asarray(run_label)
    _, pair, repeats = np.unique(np.stack([run_label, lengths]), axis=1,
                                 return_inverse=True, return_counts=True)
    pair = pair.ravel()
    jump = (lengths > 1) & (repeats[pair] * (lengths - 1) >= n)
    return _Plan(starts, lengths, run_label, jump, systems, np.unique(pair[jump]).size)


def _propagate(x0: np.ndarray, plan: _Plan, table: dict[tuple, np.ndarray]) -> np.ndarray:
    """Exact states before and after every step of ``plan``.

    A sequential pass walks the run boundaries: a run that jumps goes to
    its end with the power ``E^L`` of its augmented exponential
    (``np.linalg.matrix_power``, kept for this call), and every other run
    is stepped one step at a time.  A fill pass then steps the interiors of
    all jumped runs of one key together, one matrix-matrix product per step
    index.  When every step has its own key, this is one matrix-vector
    product per step.
    """
    starts, lengths, run_label = plan.starts, plan.lengths, plan.labels
    n_steps, n = int(starts[-1] + lengths[-1]), x0.shape[0]
    states = np.empty((n_steps + 1, n))
    states[0] = x0
    maps: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def transition(label: int, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Blocks ``Phi, d`` of ``E^length`` for the key ``label``."""
        hit = maps.get((label, length))
        if hit is None:
            e = _exponential(table, *plan.systems[label])
            if length > 1:
                e = np.linalg.matrix_power(e, length)
            hit = maps[label, length] = (e[:n, :n], e[:n, n])
        return hit

    x = states[0]
    for s, length, label, jumps in zip(starts.tolist(), lengths.tolist(),
                                       run_label.tolist(), plan.jump.tolist()):
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
    runs = np.flatnonzero(plan.jump)
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
    """Uniform samples merged with event instants, deduplicated; the last
    point is the horizon."""
    tol = _grid_tol(horizon)
    n_steps = int(math.floor(horizon / dt + 1e-9))
    samples = np.arange(n_steps + 1) * dt
    if samples[-1] < horizon - tol:
        samples = np.append(samples, horizon)
    else:
        samples[-1] = horizon
    grid = np.concatenate([samples, extra])
    grid = grid[(grid >= 0.0) & (grid <= horizon * (1 + 1e-12))]
    grid = np.unique(grid)
    keep = [grid[0]]
    for t in grid[1:]:
        if t - keep[-1] > tol:
            keep.append(t)
    # the horizon is in the grid, so the last kept instant is within tol of it
    keep[-1] = horizon
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


def _event_families(network: NetworkSpec,
                    schedule: Schedule) -> list[tuple[float, list[float]]]:
    """Each periodic family of switching and inflow-profile instants: its
    period and its offsets within one period."""
    T = schedule.cycle_time
    families = [(T, [0.0] + [t for t in schedule.switch_times if 0.0 < t < T])]
    for rid in network.inflows:
        profile = network.inflow_profile(rid)
        if len(profile) >= 2:
            families.append((sum(dur for dur, _ in profile),
                             np.cumsum([dur for dur, _ in profile[:-1]]).tolist()))
    return families


def _cycle_events(schedule: Schedule, network: NetworkSpec, horizon: float) -> np.ndarray:
    """All switching and inflow-profile instants inside the horizon."""
    arr = np.concatenate([
        (np.arange(math.ceil(horizon / period + 1e-9) + 1)[:, None] * period + marks).ravel()
        for period, marks in _event_families(network, schedule)])
    return arr[arr <= horizon * (1 + 1e-12)]


def _planned_samples(network: NetworkSpec, schedule: Schedule, horizon: float,
                     dt: float) -> float:
    """Upper bound on the grid points of a run, from sizes alone: the
    uniform samples plus every instant :func:`_cycle_events` lists."""
    return horizon / dt + 3.0 + sum((horizon / period + 3.0) * len(marks)
                                    for period, marks in _event_families(network, schedule))


def _planned_bytes(network: NetworkSpec, schedule: Schedule, samples: float,
                   trajectories: int = 1) -> float:
    """Bytes that ``trajectories`` runs of ``samples`` grid points hold at
    once, apart from their exponentials and powers.

    A grid point costs up to two rows of ``n`` doubles (the state and the
    step's inflows) and about sixteen words of grid work: event times, the
    grid and the list :func:`_sample_grid` deduplicates through, step
    midpoints, modes and lengths, the plan's run bookkeeping, the row norms
    of :func:`_compare`.  The mode matrices, the averaged matrix, the input
    map and the base matrix :func:`assemble_modes` builds them from take
    ``n_modes + 3`` arrays of ``n^2`` doubles, and one ``expm`` or power
    works in about ten arrays of ``(n+1)^2`` doubles.
    """
    n = network.n
    return 8.0 * (trajectories * samples * (2 * n + 16) + (schedule.n_modes + 3) * n * n
                  + 10.0 * (n + 1) ** 2)


def _check_memory(planned: float, samples: float, schedule: Schedule, horizon: float,
                  dt: float) -> None:
    check_memory(planned, f"a run of {horizon:g} s at dt {dt:g} s (cycle "
                          f"{schedule.cycle_time:g} s) with about {samples:.3g} samples")


def _check_size(network: NetworkSpec, schedule: Schedule, horizon: float, dt: float,
                trajectories: int = 1) -> None:
    """Refuse, from sizes alone, a run whose arrays would hold over half of
    physical memory.

    This is the first step of the memory check, before any per-sample
    array exists: ``trajectories`` runs held at once over the bound
    :func:`_planned_samples` on their grid points (:func:`_planned_bytes`).
    A comparison holds two, the switched run of one cycle time and the
    averaged run.  The second step, :func:`_check_plans`, counts the
    exponentials from the run's plan.  A span that is not finite and
    positive is refused first, and one that :func:`_check_span` refuses
    after the memory check.
    """
    if not (math.isfinite(horizon) and math.isfinite(dt) and horizon > 0 and dt > 0):
        raise ValidationError(
            f"horizon and dt must be finite and positive, got {horizon!r} and {dt!r}"
        )
    samples = _planned_samples(network, schedule, horizon, dt)
    _check_memory(_planned_bytes(network, schedule, samples, trajectories), samples,
                  schedule, horizon, dt)
    _check_span(horizon, dt)


def _check_plans(network: NetworkSpec, schedule: Schedule, horizon: float, dt: float,
                 samples: int, plans: list[_Plan], table: dict[tuple, np.ndarray]) -> None:
    """Refuse runs whose plans would hold over half of physical memory.

    This is the second step of the memory check, after the plans and
    before any state or exponential: the rows of one run per plan at the
    grid's ``samples`` (:func:`_planned_bytes`), the exponentials the table
    holds, and one augmented exponential of ``(n+1)^2`` doubles for each
    key of the plans that is not yet in the table and for each power.
    """
    keys = {system[0] for plan in plans for system in plan.systems}
    new = sum(key not in table for key in keys)
    powers = sum(plan.powers for plan in plans)
    planned = (_planned_bytes(network, schedule, samples, len(plans))
               + sum(e.nbytes for e in table.values())
               + 8.0 * (network.n + 1) ** 2 * (new + powers))
    log.debug("%d samples, %d runs, %d new keys and %d in the table, %d powers, "
              "%.0f bytes planned", samples, sum(plan.starts.shape[0] for plan in plans),
              new, len(keys) - new, powers, planned)
    _check_memory(planned, samples, schedule, horizon, dt)


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


def _check_span(horizon: float, dt: float) -> None:
    """Refuse a span whose horizon or step is within the sampling tolerance."""
    tol = _grid_tol(horizon)
    if horizon <= tol:
        raise ValidationError(f"horizon {horizon!r} s leaves no step: it must exceed "
                              f"the sampling tolerance of {tol:g} s")
    # samples closer than the tolerance would merge into irregular steps
    if dt <= tol:
        raise ValidationError(f"dt {dt!r} s must exceed the sampling tolerance "
                              f"of {tol:g} s")


def _switching_plan(network: NetworkSpec, schedule: Schedule, modes: ModeSet,
                    horizon: float, dt: float) -> tuple[np.ndarray, np.ndarray, _Plan]:
    """Grid, step lengths and plan of a switched run.  The grid is the
    union of uniform ``dt`` samples with every switching and inflow-change
    instant, so no window is ever straddled."""
    grid = _sample_grid(horizon, dt, _cycle_events(schedule, network, horizon))
    mid = 0.5 * (grid[:-1] + grid[1:])
    steps = _step_lengths(grid, horizon)
    return grid, steps, _plan(modes.modes, _modes_at(schedule, mid), modes.input_map,
                              _inflows_at(network, mid), steps)


def _average_plan(network: NetworkSpec, modes: ModeSet, steps: np.ndarray) -> _Plan:
    """Plan of the averaged run: the duration-weighted mean of the modes,
    driven by the cycle-averaged inflow."""
    u = network.average_inflow()
    return _plan([average_matrix(modes)], np.zeros(steps.shape[0], dtype=int),
                 modes.input_map, np.broadcast_to(u, (steps.shape[0], u.shape[0])), steps)


def simulate_switching(network: NetworkSpec, schedule: Schedule, x0: np.ndarray,
                       horizon: float, dt: float = 1.0) -> Trajectory:
    """Integrate the switched dynamics exactly on a sampling grid.

    A run whose arrays would exceed half of physical memory raises
    :class:`ValidationError` before any state or exponential is built.
    """
    _check_size(network, schedule, horizon, dt)
    x = as_state(x0, network.n)
    table: dict[tuple, np.ndarray] = {}
    grid, _, plan = _switching_plan(network, schedule, assemble_modes(network, schedule),
                                    horizon, dt)
    _check_plans(network, schedule, horizon, dt, grid.shape[0], [plan], table)
    return Trajectory(grid, _propagate(x, plan, table))


def simulate_average(network: NetworkSpec, schedule: Schedule, x0: np.ndarray,
                     horizon: float, dt: float = 1.0) -> Trajectory:
    """Integrate the averaged surrogate on the same kind of grid."""
    _check_size(network, schedule, horizon, dt)
    x = as_state(x0, network.n)
    table: dict[tuple, np.ndarray] = {}
    modes = assemble_modes(network, schedule)
    grid = _sample_grid(horizon, dt, _cycle_events(schedule, network, horizon))
    plan = _average_plan(network, modes, _step_lengths(grid, horizon))
    _check_plans(network, schedule, horizon, dt, grid.shape[0], [plan], table)
    return Trajectory(grid, _propagate(x, plan, table))


def _compare(network: NetworkSpec, schedule: Schedule, x0: np.ndarray, horizon: float,
             dt: float, table: dict[tuple, np.ndarray],
             kept: dict[tuple, np.ndarray]) -> float:
    """Averaging error percent of one cycle time.

    Its switched and averaged runs take their exponentials from ``table``
    and pass one memory check.  ``kept`` holds the states of at most one
    averaged run, keyed by its system's table key and the grid's bytes; a
    run under the same key is reused, and otherwise the kept run is let go
    before the new one is built.
    """
    modes = assemble_modes(network, schedule)
    grid, steps, plan = _switching_plan(network, schedule, modes, horizon, dt)
    averaged_plan = _average_plan(network, modes, steps)
    _check_plans(network, schedule, horizon, dt, grid.shape[0], [plan, averaged_plan], table)
    switched = _propagate(x0, plan, table)
    key = (averaged_plan.systems[0][0], grid.tobytes())
    averaged = kept.get(key)
    if averaged is None:
        kept.clear()
        averaged = kept[key] = _propagate(x0, averaged_plan, table)
    # row norms a block of rows at a time, with no temporary of the
    # trajectories' size; each row sums as in one call on the whole array
    ref = np.empty(grid.shape[0])
    gap = np.empty_like(ref)
    for start in range(0, ref.shape[0], _NORM_ROWS):
        rows = slice(start, start + _NORM_ROWS)
        ref[rows] = np.linalg.norm(averaged[rows], axis=1)
        gap[rows] = np.linalg.norm(switched[rows] - averaged[rows], axis=1)
    floor = _EXCLUDE_FLOOR * np.linalg.norm(x0)
    ratio = np.where(ref > floor, gap / np.where(ref > floor, ref, 1.0), 0.0)
    return 100.0 * float(np.trapezoid(ratio, grid) / horizon)


def averaging_error(network: NetworkSpec, schedule: Schedule, x0: np.ndarray,
                    horizon: float, dt: float = 1.0) -> float:
    """Relative gap between switched and averaged trajectories.

    Returns the horizon-normalized integral of
    ``norm(x - x_av) / norm(x_av)`` as a percentage, excluding samples where
    the averaged state has decayed below ``1e-6`` of the initial norm: the
    value :func:`averaging_sweep` gives for ``[schedule]``.
    """
    return next(averaging_sweep(network, [schedule], x0, horizon, dt))


def averaging_sweep(network: NetworkSpec, schedules: Sequence[Schedule], x0: np.ndarray,
                    horizon: float, dt: float = 1.0) -> Iterator[float]:
    """Averaging error percent of each schedule in turn, on one horizon.

    Every schedule's size is checked before the first cycle runs, and each
    cycle checks its own plan.  The cycles share one dict of exponentials
    and the last averaged run, which at a uniform split serves every cycle
    on the same grid.  Only the error is handed out, so a cycle's switched
    run is let go before the next one is built.
    """
    for schedule in schedules:
        _check_size(network, schedule, horizon, dt, trajectories=2)
    x0 = as_state(x0, network.n)
    table: dict[tuple, np.ndarray] = {}
    kept: dict[tuple, np.ndarray] = {}
    for schedule in schedules:
        yield _compare(network, schedule, x0, horizon, dt, table, kept)
