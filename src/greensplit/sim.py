"""Trajectory simulation of the switched network and its averaged surrogate.

Between signal switches the dynamics are affine and time invariant, so the
simulator advances with matrix exponentials of the augmented system rather
than an ODE integrator: every step lands on switching instants exactly and
the only discretization left is where the trajectory is sampled.  The mode
and the exogenous inflow of every step are looked up once per grid, for all
step midpoints at once.  Steps of one mode, inflow and length come in
runs.  A plan (:func:`_plan`) lists the runs, their keys and the powers
that jump over them; the stepping (:func:`_propagate`) jumps between run
starts with those powers, fills the runs' interiors with matrix-matrix
products, and hands the states out in batches as it makes them.  Memory is
checked from sizes alone (:func:`_check_size`: the grid work and the steps'
inflows over a bound on the grid points), then from the plan with the
trajectory and the exact exponentials a run adds (:func:`_check_plans`).

In one signal mode only that phase's movements are green, so the network
falls apart into corridors: the weakly connected components of the mode
matrix (:func:`_corridors`, found once per sparsity pattern).  No state of
one corridor reaches another, so the augmented exponential is block
diagonal, one block per corridor (Van Loan, IEEE TAC 23(3), 1978).  The
table keeps only those blocks, one stack per corridor order made by one
``expm`` call, keyed by the nonzeros of the matrix (:func:`_key`); powers
and steps work on the stacks.  The averaged matrix is one corridor of all
cells, so it steps with one dense product through the same code.

The agreement metric integrates the relative gap between the switched and
averaged state trajectories over a horizon and normalizes by its length;
samples where the averaged state has essentially vanished are excluded so
the ratio stays meaningful.  :func:`averaging_sweep` runs it over a list of
schedules.  It owns the sweep: it checks every size up front, shares one
dict of exponentials across the cycles and keeps the last averaged run, and
at a uniform split the averaged system does not depend on the cycle time,
so cycles whose grids coincide run it once.  A sweep holds one trajectory,
the averaged run: each cycle's switched run is streamed into its row norms
against it and never built.
"""

from __future__ import annotations

import functools
import logging
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .dynamics import ModeSet, assemble_modes, average_matrix
from .errors import ValidationError, check_memory
from .lyapunov import _strong_components, as_state
from .net_model import NetworkSpec, Schedule

log = logging.getLogger(__name__)

#: relative floor under which the averaged state counts as vanished
_EXCLUDE_FLOOR = 1e-6
#: rows per batch the stepping hands out, and per block of the error
#: integral's row norms
_NORM_ROWS = 512


@dataclass(frozen=True)
class Trajectory:
    """Sampled continuous-time solution; rows of ``states`` follow ``times``."""

    times: np.ndarray
    states: np.ndarray


#: a permutation of the states that lists the corridors of each order
#: together, and the ``(count, order)`` of each such group
_Corridors = tuple[np.ndarray, tuple[tuple[int, int], ...]]
#: the augmented exponentials of a run, one stack of blocks per corridor
#: order of each key
_Table = dict[tuple, tuple[np.ndarray, ...]]


def _key(a: np.ndarray) -> tuple[bytes, bytes]:
    """Table key of a matrix: the flat indices and the values of its
    nonzeros."""
    flat = np.flatnonzero(a)
    return flat.tobytes(), np.ravel(a)[flat].tobytes()


@functools.lru_cache(maxsize=16)
def _corridors(n: int, nonzeros: bytes) -> _Corridors:
    """Corridors of an ``n x n`` matrix with the given flat nonzero indices:
    the weakly connected components of its sparsity graph.

    The groups come by falling order; within a group the corridors come by
    their smallest state, and states keep their order within a corridor.
    """
    rows, cols = np.divmod(np.frombuffer(nonzeros, dtype=np.intp), n)
    tails, heads = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    by_tail = np.argsort(tails, kind="stable")
    _, labels = _strong_components(n, tails[by_tail], heads[by_tail])
    _, first, sizes = np.unique(labels, return_index=True, return_counts=True)
    perm = np.lexsort((first[labels], -sizes[labels]))
    perm.setflags(write=False)
    orders, counts = np.unique(sizes, return_counts=True)
    return perm, tuple(zip(counts[::-1].tolist(), orders[::-1].tolist()))


def _block_doubles(corridors: _Corridors) -> int:
    """Doubles of one augmented exponential: a block of order ``s + 1``
    per corridor of order ``s``."""
    return sum(count * (order + 1) ** 2 for count, order in corridors[1])


def _sizes(corridors: _Corridors) -> str:
    """Corridor groups as ``count x order`` terms, such as ``8x27+8x3``."""
    return "+".join(f"{count}x{order}" for count, order in corridors[1])


def _exponential(table: _Table, key: tuple, a: np.ndarray, b: np.ndarray, dt: float,
                 corridors: _Corridors) -> tuple[np.ndarray, ...]:
    """Augmented exponentials ``expm([[A_c, b_c], [0, 0]] dt)`` of the
    corridors ``c`` of the system ``key``, kept in ``table``: one stack per
    corridor order, made by one ``expm`` call.  No state of one corridor
    reaches another, so these blocks are the exponential of the whole
    augmented system with its exact zeros left out."""
    hit = table.get(key)
    if hit is None:
        perm, groups = corridors
        stacks = []
        start = 0
        for count, order in groups:
            idx = perm[start:start + count * order].reshape(count, order)
            aug = np.zeros((count, order + 1, order + 1))
            aug[:, :order, :order] = a[idx[:, :, None], idx[:, None, :]]
            aug[:, :order, order] = b[idx]
            aug *= dt
            stacks.append(linalg.expm(aug))
            start += count * order
        hit = table[key] = tuple(stacks)
    return hit


@dataclass(frozen=True)
class _Plan:
    """Index bookkeeping of one run of :func:`_propagate`, built before any
    state or exponential.

    Run ``r`` starts at step ``starts[r]``, lasts ``lengths[r]`` steps and
    has the key ``systems[labels[r]]``: its table key, ``A``, drift, step
    length and corridors.  Where ``jump[r]``, it jumps to its end with a
    power of its exponential; ``powers`` holds the label of each (key,
    length) pair raised.
    """

    starts: np.ndarray
    lengths: np.ndarray
    labels: np.ndarray
    jump: np.ndarray
    systems: list[tuple]
    powers: np.ndarray


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

    matrix_keys = {k: _key(matrices[k]) for k in np.unique(mode[starts]).tolist()}
    labels: dict[tuple, int] = {}
    systems = []
    run_label = []
    for s, k, dt in zip(starts.tolist(), mode[starts].tolist(), steps[starts].tolist()):
        label = labels.setdefault((k, inputs[s].tobytes(), dt), len(systems))
        if label == len(systems):
            drift = input_map @ inputs[s]
            systems.append(((*matrix_keys[k], drift.tobytes(), dt), matrices[k], drift, dt,
                            _corridors(n, matrix_keys[k][0])))
        run_label.append(label)
    run_label = np.asarray(run_label)
    pairs, pair, repeats = np.unique(np.stack([run_label, lengths]), axis=1,
                                     return_inverse=True, return_counts=True)
    pair = pair.ravel()
    jump = (lengths > 1) & (repeats[pair] * (lengths - 1) >= n)
    return _Plan(starts, lengths, run_label, jump, systems, pairs[0, np.unique(pair[jump])])


def _step(y: np.ndarray, out: np.ndarray, blocks: list[np.ndarray], drift: np.ndarray) -> None:
    """One step of the rows ``y`` of states in corridor order into
    ``out``: one batched product per corridor order, then the drift.  Both
    are leading rows of C-contiguous arrays, so that splitting a column
    range into corridors gives views and the products write into ``out``."""
    start = 0
    for phi_t in blocks:
        count, order = phi_t.shape[:2]
        cols = slice(start, start + count * order)
        np.matmul(y[:, cols].reshape(-1, count, order).transpose(1, 0, 2), phi_t,
                  out=out[:, cols].reshape(-1, count, order).transpose(1, 0, 2))
        start += count * order
    out += drift


def _propagate(x0: np.ndarray, plan: _Plan, table: _Table
               ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Exact states before and after every step of ``plan``, handed out in
    ``(indices, rows)`` batches: row ``k`` of ``rows`` is the state at grid
    point ``indices[k]``, in natural state order.  A batch is valid until
    the next one is asked for.

    Each key steps its states in its own corridor order, one batched
    product per corridor order.  A sequential pass walks the run
    boundaries: a run that jumps goes to its end with the power ``E^L`` of
    its augmented exponential (``np.linalg.matrix_power`` on the stacks,
    kept for this call), and every other run is stepped one step at a
    time.  Its states go out in blocks of ``_NORM_ROWS``; it keeps only the
    start states of the runs that jump.  A fill pass then steps the
    interiors of all jumped runs of one key together, one batched
    matrix-matrix product per corridor order and step index, and hands out
    each step as it is made.  When every step has its own key, this is one
    matrix-vector product per corridor and step.
    """
    starts, lengths, run_label = plan.starts, plan.lengths, plan.labels
    n = x0.shape[0]
    maps: dict[tuple[int, int], tuple[np.ndarray, list[np.ndarray], np.ndarray]] = {}

    def transition(label: int, length: int) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
        """Corridor order, transposed transition blocks and drift of
        ``E^length`` for the key ``label``."""
        hit = maps.get((label, length))
        if hit is None:
            system = plan.systems[label]
            stacks = _exponential(table, *system)
            if length > 1:
                stacks = [np.linalg.matrix_power(e, length) for e in stacks]
            perm = system[-1][0]
            hit = maps[label, length] = (
                perm, [e[:, :-1, :-1].transpose(0, 2, 1) for e in stacks],
                np.concatenate([e[:, :-1, -1].ravel() for e in stacks]))
        return hit

    # the start state of each run that jumps, in run order
    jumped = np.empty((int(np.count_nonzero(plan.jump)), n))
    indices = np.empty(_NORM_ROWS, dtype=np.intp)
    block = np.empty((_NORM_ROWS, n))
    indices[0], block[0], filled = 0, x0, 1
    x, k = x0.copy(), 0
    y, out = np.empty((1, n)), np.empty((1, n))
    for s, length, label, jumps in zip(starts.tolist(), lengths.tolist(),
                                       run_label.tolist(), plan.jump.tolist()):
        perm, blocks, drift = transition(label, length if jumps else 1)
        if jumps:
            jumped[k] = x
            k += 1
        y[0] = x[perm]
        for i in [s + length] if jumps else range(s + 1, s + length + 1):
            _step(y, out, blocks, drift)
            y, out = out, y
            if filled == _NORM_ROWS:
                yield indices, block
                filled = 0
            indices[filled] = i
            block[filled, perm] = y[0]
            filled += 1
        x[perm] = y[0]
    yield indices[:filled], block[:filled]
    # the fill pass hands out arrays of its own
    del indices, block

    # runs that jumped, by key and then by falling length, so the runs of
    # one key still going at step j are a prefix of its group
    slot = np.cumsum(plan.jump) - 1
    runs = np.flatnonzero(plan.jump)
    runs = runs[np.lexsort((-lengths[runs], run_label[runs]))]
    for group in np.split(runs, np.flatnonzero(np.diff(run_label[runs])) + 1):
        if group.size == 0:
            continue
        first, length = starts[group], lengths[group]
        perm, blocks, drift = transition(int(run_label[group[0]]), 1)
        inverse = np.argsort(perm)
        y = jumped[np.ix_(slot[group], perm)]
        out = np.empty_like(y)
        for j in range(1, int(length[0])):
            active = int(np.count_nonzero(length > j))
            _step(y[:active], out[:active], blocks, drift)
            y, out = out, y
            yield first[:active] + j, np.take(y[:active], inverse, axis=1)


def _states(x0: np.ndarray, plan: _Plan, table: _Table) -> np.ndarray:
    """The states at every grid point of ``plan``, collected from
    :func:`_propagate`."""
    states = np.empty((int(plan.starts[-1] + plan.lengths[-1]) + 1, x0.shape[0]))
    for indices, rows in _propagate(x0, plan, table):
        states[indices] = rows
    return states


def _grid_tol(horizon: float) -> float:
    """Time within which two instants of a grid over ``horizon`` count as one."""
    return 1e-9 * max(horizon, 1.0)


def _sample_grid(horizon: float, dt: float, extra: np.ndarray) -> np.ndarray:
    """Uniform samples merged with event instants, deduplicated; the last
    point is the horizon.

    Going up the grid, an instant within the tolerance of the last kept
    one is dropped.  An instant further than that from its predecessor is
    always kept, so only the instants within it are looked at one by one.
    """
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
    keep = np.ones(grid.shape[0], dtype=bool)
    previous = -1
    for i in (np.flatnonzero(np.diff(grid) <= tol) + 1).tolist():
        if i - 1 != previous:
            last = grid[i - 1]
        if grid[i] - last > tol:
            last = grid[i]
        else:
            keep[i] = False
        previous = i
    grid = grid[keep]
    # the horizon is in the grid, so the last kept instant is within tol of it
    grid[-1] = horizon
    return grid


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


def _planned_bytes(network: NetworkSpec, schedule: Schedule, samples: float, rows: int,
                   work: int) -> float:
    """Bytes that a run of ``samples`` grid points holds at once, apart from
    its exponentials and powers.

    A run holds one trajectory: its own states, or in a sweep the averaged
    run the switched run is streamed against.  A grid point costs a row of
    ``n`` doubles of it and about sixteen words of grid work: event times,
    the grid, step midpoints, modes and lengths, the plan's run
    bookkeeping, the row norms of :func:`_compare`.  Beside them the plan
    holds the steps' inflows, up to a row of ``n`` doubles per grid point,
    and the stepping, after the plan, holds ``rows`` rows of ``n`` doubles
    (:func:`_stepping_rows`): the larger of the two counts.  The mode
    matrices, the averaged matrix, the input map and the base matrix
    :func:`assemble_modes` builds them from take ``n_modes + 3`` arrays of
    ``n^2`` doubles, and one ``expm`` or power works in about ten arrays of
    the ``work`` doubles of the largest augmented exponential, at most its
    dense ``(n+1)^2``.
    """
    n = network.n
    return 8.0 * (samples * (n + 16) + max(samples, rows) * n
                  + (schedule.n_modes + 3) * n * n + 10.0 * work)


def _stepping_rows(plan: _Plan) -> int:
    """Rows of states that :func:`_propagate` and its caller hold at once
    beside the trajectory: the start state of each run that jumps, and
    five arrays of one emission block.  A block is ``_NORM_ROWS`` rows, or
    in the fill pass the jumped runs of one key: the step's two arrays, the
    rows handed out, and the caller's averaged rows and difference.
    """
    jumped = plan.labels[plan.jump]
    block = max(_NORM_ROWS, int(np.bincount(jumped).max()) if jumped.size else 0)
    return jumped.size + 5 * block


def _check_memory(planned: float, samples: float, schedule: Schedule, horizon: float,
                  dt: float) -> None:
    check_memory(planned, f"a run of {horizon:g} s at dt {dt:g} s (cycle "
                          f"{schedule.cycle_time:g} s) with about {samples:.3g} samples")


def _check_size(network: NetworkSpec, schedule: Schedule, horizon: float,
                dt: float) -> None:
    """Refuse, from sizes alone, a run whose arrays would hold over half of
    physical memory.

    This is the first step of the memory check, before any per-sample
    array exists.  It counts what the plan builds before the second step,
    :func:`_check_plans`, runs: over the bound :func:`_planned_samples` on
    the grid points, the grid work and the steps' inflows, ``n + 16``
    doubles a point (:func:`_planned_bytes`).  The trajectory, the
    stepping's rows and the exponentials are counted by the plan alone.  A
    span that is not finite and positive is refused first, and one that
    :func:`_check_span` refuses after the memory check.
    """
    if not (math.isfinite(horizon) and math.isfinite(dt) and horizon > 0 and dt > 0):
        raise ValidationError(
            f"horizon and dt must be finite and positive, got {horizon!r} and {dt!r}"
        )
    samples = _planned_samples(network, schedule, horizon, dt)
    _check_memory(8.0 * samples * (network.n + 16), samples, schedule, horizon, dt)
    _check_span(horizon, dt)


def _check_plans(network: NetworkSpec, schedule: Schedule, horizon: float, dt: float,
                 samples: int, plans: list[_Plan], table: _Table) -> None:
    """Refuse runs whose plans would hold over half of physical memory.

    This is the second step of the memory check, after the plans and
    before any state or exponential: one trajectory at the grid's
    ``samples`` and the rows of the plan that steps the most
    (:func:`_planned_bytes`), the exponentials the table holds, and the
    corridor blocks (:func:`_block_doubles`) of each key of the plans that
    is not yet in the table and of each power.  The plans of a comparison
    run one after the other, the averaged run first, so one trajectory is
    held at a time.
    """
    corridors = {system[0]: system[-1] for plan in plans for system in plan.systems}
    new = [c for key, c in corridors.items() if key not in table]
    powers = [plan.systems[label][-1] for plan in plans for label in plan.powers.tolist()]
    planned = (_planned_bytes(network, schedule, samples, max(map(_stepping_rows, plans)),
                              max(map(_block_doubles, corridors.values())))
               + sum(e.nbytes for stacks in table.values() for e in stacks)
               + 8.0 * sum(map(_block_doubles, new + powers)))
    log.debug("%d samples, %d runs, %d new keys and %d in the table, %d powers, "
              "%.0f bytes planned, new keys' corridors [%s]", samples,
              sum(plan.starts.shape[0] for plan in plans), len(new), len(corridors) - len(new),
              len(powers), planned, ", ".join(map(_sizes, new)))
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
    past the last threshold the last segment holds.  A profile of one
    segment is its value at every time; where every profile is, the result
    is one row broadcast to every time, read-only.
    """
    row = np.zeros(network.n_roads)
    varying = []
    for i, r in enumerate(network.roads):
        profile = network.inflows.get(r.id)
        if profile and len(profile) == 1:
            row[i] = profile[0][1]
        elif profile:
            varying.append((i, profile))
    if not varying:
        return np.broadcast_to(row, (t.shape[0], row.shape[0]))
    u = np.tile(row, (t.shape[0], 1))
    for i, profile in varying:
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
    table: _Table = {}
    grid, _, plan = _switching_plan(network, schedule, assemble_modes(network, schedule),
                                    horizon, dt)
    _check_plans(network, schedule, horizon, dt, grid.shape[0], [plan], table)
    return Trajectory(grid, _states(x, plan, table))


def simulate_average(network: NetworkSpec, schedule: Schedule, x0: np.ndarray,
                     horizon: float, dt: float = 1.0) -> Trajectory:
    """Integrate the averaged surrogate on the same kind of grid."""
    _check_size(network, schedule, horizon, dt)
    x = as_state(x0, network.n)
    table: _Table = {}
    modes = assemble_modes(network, schedule)
    grid = _sample_grid(horizon, dt, _cycle_events(schedule, network, horizon))
    plan = _average_plan(network, modes, _step_lengths(grid, horizon))
    _check_plans(network, schedule, horizon, dt, grid.shape[0], [plan], table)
    return Trajectory(grid, _states(x, plan, table))


def _compare(network: NetworkSpec, schedule: Schedule, x0: np.ndarray, horizon: float,
             dt: float, table: _Table, kept: dict[tuple, np.ndarray]) -> float:
    """Averaging error percent of one cycle time.

    Its switched and averaged runs take their exponentials from ``table``
    and pass one memory check.  ``kept`` holds the states of at most one
    averaged run, keyed by its system's table key and the grid's bytes; a
    run under the same key is reused, and otherwise the kept run is let go
    before the new one is built.  The switched run is never held: each
    batch of its states becomes its row norms against the averaged run.
    """
    modes = assemble_modes(network, schedule)
    grid, steps, plan = _switching_plan(network, schedule, modes, horizon, dt)
    averaged_plan = _average_plan(network, modes, steps)
    _check_plans(network, schedule, horizon, dt, grid.shape[0], [plan, averaged_plan], table)
    key = (averaged_plan.systems[0][0], grid.tobytes())
    averaged = kept.get(key)
    if averaged is None:
        kept.clear()
        averaged = kept[key] = _states(x0, averaged_plan, table)
    # row norms a block of rows at a time, with no temporary of the
    # trajectory's size; each row sums as in one call on the whole array
    ref = np.empty(grid.shape[0])
    for start in range(0, ref.shape[0], _NORM_ROWS):
        rows = slice(start, start + _NORM_ROWS)
        ref[rows] = np.linalg.norm(averaged[rows], axis=1)
    gap = np.empty_like(ref)
    for indices, rows in _propagate(x0, plan, table):
        gap[indices] = np.linalg.norm(rows - averaged[indices], axis=1)
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
        _check_size(network, schedule, horizon, dt)
    x0 = as_state(x0, network.n)
    table: _Table = {}
    kept: dict[tuple, np.ndarray] = {}
    for schedule in schedules:
        yield _compare(network, schedule, x0, horizon, dt, table, kept)
