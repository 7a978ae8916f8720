"""Trajectory simulation of the switched network and its averaged surrogate.

Between signal switches the dynamics are affine and time invariant, so the
simulator advances with matrix exponentials of the augmented system rather
than an ODE integrator: every step lands on switching instants exactly and
the only discretization left is where the trajectory is sampled.  The mode
and the exogenous inflow of every step are looked up once per grid, for all
step midpoints at once, so the stepping loop only multiplies.

The agreement metric integrates the relative gap between the switched and
averaged state trajectories over a horizon and normalizes by its length;
samples where the averaged state has essentially vanished are excluded so
the ratio stays meaningful.
"""

from __future__ import annotations

import math
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


class _AffineStepper:
    """Exact propagation of ``x' = A x + b`` with cached exponentials."""

    def __init__(self, a: np.ndarray):
        self.a = a
        self.n = a.shape[0]
        self._cache: dict[tuple[float, bytes | None], tuple[np.ndarray, np.ndarray | None]] = {}

    def step(self, x: np.ndarray, b: np.ndarray | None, dt: float) -> np.ndarray:
        if dt == 0.0:
            return x.copy()
        key = (dt, None if b is None else b.tobytes())
        hit = self._cache.get(key)
        if hit is None:
            if b is None or not b.any():
                phi = linalg.expm(self.a * dt)
                hit = (phi, None)
            else:
                aug = np.zeros((self.n + 1, self.n + 1))
                aug[: self.n, : self.n] = self.a
                aug[: self.n, self.n] = b
                e = linalg.expm(aug * dt)
                hit = (e[: self.n, : self.n], e[: self.n, self.n].copy())
            self._cache[key] = hit
        phi, drift = hit
        out = phi @ x
        if drift is not None:
            out += drift
        return out


def _sample_grid(horizon: float, dt: float, extra: np.ndarray) -> np.ndarray:
    """Uniform samples merged with event instants, deduplicated."""
    n_steps = int(math.floor(horizon / dt + 1e-9))
    samples = np.arange(n_steps + 1) * dt
    if samples[-1] < horizon - 1e-9 * max(horizon, 1.0):
        samples = np.append(samples, horizon)
    grid = np.concatenate([samples, extra])
    grid = grid[(grid >= 0.0) & (grid <= horizon * (1 + 1e-12))]
    grid = np.unique(grid)
    keep = [grid[0]]
    tol = 1e-9 * max(horizon, 1.0)
    for t in grid[1:]:
        if t - keep[-1] > tol:
            keep.append(t)
    keep[-1] = min(keep[-1], horizon)
    return np.asarray(keep)


def _cycle_events(schedule: Schedule, network: NetworkSpec, horizon: float) -> np.ndarray:
    """All switching and inflow-profile instants inside the horizon."""
    times: list[float] = []
    T = schedule.cycle_time
    internal = [t for t in schedule.switch_times if 0.0 < t < T]
    n_cycles = int(math.ceil(horizon / T + 1e-9))
    for k in range(n_cycles + 1):
        base = k * T
        times.append(base)
        times.extend(base + t for t in internal)
    for rid in network.inflows:
        profile = network.inflow_profile(rid)
        period = sum(dur for dur, _ in profile)
        if len(profile) < 2:
            continue
        marks = np.cumsum([dur for dur, _ in profile[:-1]])
        reps = int(math.ceil(horizon / period + 1e-9))
        for k in range(reps + 1):
            times.extend(k * period + m for m in marks)
    arr = np.asarray(times, dtype=float)
    return arr[arr <= horizon * (1 + 1e-12)]


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


def _check_span(horizon: float, dt: float) -> None:
    if not (math.isfinite(horizon) and math.isfinite(dt) and horizon > 0 and dt > 0):
        raise ValidationError(
            f"horizon and dt must be finite and positive, got {horizon!r} and {dt!r}"
        )


def simulate_switching(network: NetworkSpec, schedule: Schedule, x0: np.ndarray,
                       horizon: float, dt: float = 1.0) -> Trajectory:
    """Integrate the switched dynamics exactly on a sampling grid.

    The grid is the union of uniform ``dt`` samples with every switching
    and inflow-change instant, so no window is ever straddled.
    """
    _check_span(horizon, dt)
    x = _check_x0(network, x0)
    modes = assemble_modes(network, schedule)
    steppers = [_AffineStepper(a) for a in modes.modes]
    grid = _sample_grid(horizon, dt, _cycle_events(schedule, network, horizon))
    C = output_map(network)

    states = np.empty((grid.shape[0], network.n))
    states[0] = x
    mid = 0.5 * (grid[:-1] + grid[1:])
    mode = _modes_at(schedule, mid)
    drift = _inflows_at(network, mid) @ modes.input_map.T
    steps = zip(mode.tolist(), drift, np.diff(grid).tolist())
    for i, (k, b, dt) in enumerate(steps):
        states[i + 1] = steppers[k].step(states[i], b, dt)
    return Trajectory(times=grid, states=states, outputs=states @ C.T)


def simulate_average(network: NetworkSpec, schedule: Schedule, x0: np.ndarray,
                     horizon: float, dt: float = 1.0,
                     grid: np.ndarray | None = None) -> Trajectory:
    """Integrate the averaged surrogate on the same kind of grid."""
    _check_span(horizon, dt)
    x = _check_x0(network, x0)
    modes = assemble_modes(network, schedule)
    avg = average_system(network, modes)
    if grid is None:
        grid = _sample_grid(horizon, dt, _cycle_events(schedule, network, horizon))
    stepper = _AffineStepper(avg.A)
    b = avg.B @ avg.u
    states = np.empty((grid.shape[0], network.n))
    states[0] = x
    for i in range(grid.shape[0] - 1):
        states[i + 1] = stepper.step(states[i], b, grid[i + 1] - grid[i])
    return Trajectory(times=grid, states=states, outputs=states @ avg.C.T)


def averaging_error(network: NetworkSpec, schedule: Schedule, x0: np.ndarray,
                    horizon: float, dt: float = 1.0) -> AveragingReport:
    """Relative gap between switched and averaged trajectories.

    Returns the horizon-normalized integral of
    ``norm(x - x_av) / norm(x_av)`` as a percentage, excluding samples where
    the averaged state has decayed below ``1e-6`` of the initial norm.
    """
    x0 = _check_x0(network, x0)
    switched = simulate_switching(network, schedule, x0, horizon, dt)
    averaged = simulate_average(network, schedule, x0, horizon, dt,
                                grid=switched.times)
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
