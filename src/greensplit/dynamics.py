"""Switched linear dynamics of a signalized network and their average.

Each global mode holds one signal configuration fixed; the network then
evolves as ``x' = A_k x + B u``.  Within a road, cells pass density
downstream at the rate ``free_flow_speed / h``; a green movement moves
density from the upstream road's stop-line cell into the downstream road's
first cell; destination roads leak from their stop-line cell at
``exit_rate``.  Off-diagonal entries are nonnegative and every column sums
to at most zero (mass only leaves through exits), which is what the
stability results lean on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionError, ValidationError, check_memory
from .net_model import NetworkSpec, Schedule


@dataclass(frozen=True)
class ModeSet:
    """The ``A_k`` matrices of one schedule, with their window lengths."""

    modes: tuple[np.ndarray, ...]
    durations: np.ndarray
    input_map: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def n(self) -> int:
        return self.input_map.shape[0]

    @property
    def cycle_time(self) -> float:
        return float(self.durations.sum())


def _chain_block(cells: int, rate: float) -> np.ndarray:
    """In-road transport: strictly lower bidiagonal flow at ``rate``.

    The last cell has no in-road outflow; it only empties through
    movements or an exit, which enter as separate terms.
    """
    block = np.zeros((cells, cells))
    for k in range(cells - 1):
        block[k, k] = -rate
        block[k + 1, k] = rate
    return block


def assemble_modes(network: NetworkSpec, schedule: Schedule) -> ModeSet:
    """Build one state matrix per mode window of the schedule."""
    n = network.n
    check_memory(8 * (schedule.n_modes + 1) * n * n,
                 f"the {schedule.n_modes} mode matrices of {n} cells")
    base = np.zeros((n, n))
    for r in network.roads:
        sl = network.state_slice(r.id)
        base[sl, sl] = _chain_block(r.cell_count, r.free_flow_speed / network.h)
        if r.exit_rate > 0:
            stop = network.downstream_index(r.id)
            base[stop, stop] -= r.exit_rate

    modes = []
    for k in range(schedule.n_modes):
        a = base.copy()
        for key in schedule.green_set(network, k):
            mv = network.movement_index[key]
            src = network.downstream_index(mv.from_road)
            dst = network.upstream_index(mv.to_road)
            a[dst, src] += mv.rate
            a[src, src] -= mv.rate
        modes.append(a)

    input_map = np.zeros((n, network.n_roads))
    for i, r in enumerate(network.roads):
        input_map[network.upstream_index(r.id), i] = 1.0

    return ModeSet(
        modes=tuple(modes),
        durations=schedule.durations,
        input_map=input_map,
    )


def as_durations(mode_set: ModeSet, durations: Iterable[float] | None = None) -> np.ndarray:
    """Mode durations (``mode_set``'s own for ``None``) as floats: a wrong
    length is a :class:`DimensionError`, a non-finite or negative entry or
    a sum that is not positive a :class:`ValidationError`."""
    d = mode_set.durations if durations is None else np.asarray(list(durations), dtype=float)
    if d.shape != (mode_set.n_modes,):
        raise DimensionError(
            f"expected {mode_set.n_modes} durations, got shape {d.shape}"
        )
    if not np.all(np.isfinite(d) & (d >= 0)):
        raise ValidationError(f"mode durations must be finite and nonnegative, "
                              f"got {d.tolist()}")
    if d.sum() <= 0:
        raise ValidationError("mode durations must have a positive sum")
    return d


def average_matrix(mode_set: ModeSet, durations: Iterable[float] | None = None) -> np.ndarray:
    """Duration-weighted mean of the mode matrices.

    Normalizing by the sum of the durations makes the result invariant
    under positive rescaling of the whole duration vector.
    """
    d = as_durations(mode_set, durations)
    avg = np.zeros_like(mode_set.modes[0])
    for weight, a in zip(d / d.sum(), mode_set.modes):
        if weight > 0:
            avg += weight * a
    return avg


def output_map(network: NetworkSpec) -> np.ndarray:
    """Selector of every road's stop-line cell (one row per road)."""
    C = np.zeros((network.n_roads, network.n))
    for i, r in enumerate(network.roads):
        C[i, network.downstream_index(r.id)] = 1.0
    return C
