"""Green-split design: minimize the congestion cost over mode durations.

The cost ``J(d) = trace(C W(A(d)) C^T)`` is the output energy of the
averaged system started at ``x0``, with ``A(d)`` averaged over the split
``d``.  Each start runs one projected Newton descent on ``J`` over the
duration simplex (Bertsekas, "Projected Newton methods for optimization
problems with simple constraints", SIAM J. Control Optim. 20(2), 1982).
One Schur factorization per iterate gives ``J``, its exact gradient
``dJ/dd_k = 2 <Q P, A_k> / T``, with ``P`` the Gramian driven by
``x0 x0^T`` and ``Q`` the adjoint solution driven by ``C^T C``, and its
exact curvature along the Newton direction, from one more solve on the
same factor (the second-order adjoint; Pearlmutter, "Fast exact
multiplication by the Hessian", Neural Computation 6(1), 1994).  Its
steps are Newton steps of ``log J``; it stops where the projected
gradient vanishes.
"""

from __future__ import annotations

import logging
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .dynamics import ModeSet, as_durations, average_matrix
from .errors import DimensionError, NoStableStart, ValidationError, check_memory
from .lyapunov import ShiftedLyapunov, _gramian_cost, congestion_cost, validate_triple

#: relative stationarity threshold on the projected gradient
KKT_TOL = 1e-6

#: Newton step budget of one start
MAX_ITERATIONS = 20000

log = logging.getLogger(__name__)


def project_tangent(grad: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """Project a gradient onto the feasible directions of the simplex.

    The returned ``v`` satisfies ``sum(v) = 0``, and ``v_i <= 0`` wherever
    ``d_i`` sits on the boundary, so a step ``d - s v`` with small ``s > 0``
    stays feasible.  Boundary coordinates whose unconstrained component
    would push below zero are clamped one at a time in ascending index
    order, which makes the result order-independent and reproducible.
    ``v`` vanishes exactly when the KKT conditions hold at ``d``.
    """
    g = np.asarray(grad, dtype=float).reshape(-1)
    d = np.asarray(durations, dtype=float).reshape(-1)
    if g.shape != d.shape:
        raise DimensionError(f"gradient {g.shape} does not match durations {d.shape}")
    at_bound = d <= 1e-12 * max(d.sum(), 1.0)
    clamped = np.zeros(d.shape, dtype=bool)
    while True:
        free = ~clamped
        v = np.zeros_like(g)
        if free.any():
            v[free] = g[free] - g[free].mean()
        push_scale = max(1.0, float(np.abs(v).max()))
        violators = np.flatnonzero(at_bound & free & (v > 1e-15 * push_scale))
        if violators.size == 0:
            return v
        clamped[violators[0]] = True


@dataclass
class OptimizationReport:
    """Outcome of one optimization run, serializable for artifacts."""

    durations: np.ndarray
    cost: float
    baseline_cost: float
    converged: bool
    iterations: int
    n_starts: int
    best_start: int
    seed: int | None
    trajectory: list[dict[str, float]] = field(default_factory=list)

    @property
    def epsilon(self) -> float:
        """``1/J``, the weight at which the smoothed abscissa is 0 (``inf`` at zero cost)."""
        return 1.0 / self.cost if self.cost > 0.0 else math.inf

    def to_dict(self) -> dict[str, Any]:
        """JSON values, with ``None`` for a non-finite float (RFC 8259 has none)."""
        return {
            "durations": [_json_float(x) for x in self.durations],
            "epsilon": _json_float(self.epsilon),
            "cost": _json_float(self.cost),
            "baseline_cost": _json_float(self.baseline_cost),
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "n_starts": int(self.n_starts),
            "best_start": int(self.best_start),
            "seed": self.seed,
            "trajectory": [{key: _json_float(x) for key, x in row.items()}
                           for row in self.trajectory],
        }


def _json_float(x: float) -> float | None:
    x = float(x)
    return x if math.isfinite(x) else None


Curvature = Callable[[np.ndarray], float]    # v -> v^T H v along a tangent v


def _cost_gradient(mode_set: ModeSet, output: np.ndarray, x0: np.ndarray, d: np.ndarray
                   ) -> tuple[float, np.ndarray | None, Curvature | None]:
    """``J(d)``, its duration gradient ``dJ/dd_k = 2 <Q P, A_k> / T`` and
    its curvature along a tangent ``v`` of the simplex.

    One factorization ``A = U T U^T`` of the averaged matrix serves all
    three.  ``Y_p = U^T P U`` (driven by ``x0 x0^T``) and ``Y_q = U^T Q U``
    (adjoint, driven by ``C^T C``) take one solve each, and
    ``Q P = U Y_q Y_p U^T``; ``J`` and ``Y_p`` come from the helper of
    :func:`congestion_cost`.  With ``B = U^T A_v U``,
    ``A_v = sum_k v_k A_k / T``, the curvature is ``4 <Y_q Y', B>``, one
    more solve for ``T Y' + Y' T^T = -(B Y_p + Y_p B^T)``.  An unstable
    average has cost ``inf`` and neither gradient nor curvature.
    """
    solver = ShiftedLyapunov(average_matrix(mode_set, d))
    if not solver.stable:
        return math.inf, None, None
    cost, yp, cu = _gramian_cost(solver, output, x0)
    yq = solver.solve(-(cu.T @ cu), adjoint=True)
    qp = solver.u @ (yq @ yp) @ solver.u.T
    scale = 1.0 / d.sum()
    grad = np.array([np.vdot(qp, a) for a in mode_set.modes]) * (2.0 * scale)

    def curvature(v: np.ndarray) -> float:
        b = solver.u.T @ sum(vk * a for vk, a in zip(v, mode_set.modes)) @ solver.u * scale
        by = b @ yp
        dyp = solver.solve(-(by + by.T))
        return 4.0 * float(np.vdot(yq @ dyp, b))

    return cost, grad, curvature


def _inner_descent(mode_set: ModeSet, output: np.ndarray, x0: np.ndarray,
                   start: np.ndarray,
                   first: list[tuple[float, np.ndarray | None, Curvature | None]],
                   rows: list[dict[str, float]], budget: int
                   ) -> tuple[np.ndarray, float, int, int, str]:
    """Projected Newton descent on ``J`` from ``start``, in at most
    ``budget`` steps.

    ``first`` holds what :func:`_cost_gradient` gives at ``start``; the
    descent takes it out, so that once a step is accepted no frame keeps
    the start's factorization.  Durations
    below 1% of ``T/m`` are dropped first and the rest rescaled to the
    cycle; where that leaves the average unstable (so short a phase can be
    the only one that drains a road), the descent starts from ``start``
    itself.  Each step moves along the projected gradient ``v`` by the
    Newton step of ``log J``, ``(g . v) / (v^T H v - (g . v)^2 / J)``,
    with ``v^T H v`` from the split's own factorization, stopped on the
    simplex boundary; where ``J`` rises like ``1/d_k`` it doubles ``d_k``.
    A coordinate on the boundary stays there only while
    :func:`project_tangent` clamps it, so a dropped phase can come back.
    Only a step that lowers ``J`` is taken; a step that does not is halved
    until it moves no coordinate by more than :data:`KKT_TOL` of the cycle.
    Each accepted split, the first included, appends one row to ``rows``.

    Returns the last accepted split, its cost, the Newton steps tried, the
    factorizations (the start's cost solve included) and why the descent
    stopped:
    ``"stationary"`` where the projected gradient is within
    :data:`KKT_TOL`, ``"no descent"`` where no step lowers ``J``, and
    ``"budget"`` where the steps ran out first.

    The benchmark's span tracer (``perfbench/tracing.py``) wraps this
    function by its name and counts its calls, one per start that
    descends, as ``optimizer.outer_iters``.
    """
    total = start.sum()
    cost, g, curvature = first.pop()
    factorizations = 1
    d = np.where(start < 0.01 * total / start.size, 0.0, start)
    if not np.array_equal(d, start):
        d *= total / d.sum()
        cost_new, g_new, curvature_new = _cost_gradient(mode_set, output, x0, d)
        factorizations += 1
        if g_new is None:
            d = start
        else:
            cost, g, curvature = cost_new, g_new, curvature_new
    iterations = 0
    while True:
        v = project_tangent(g, d)
        vmax = float(np.abs(v).max())
        rows.append({"cost": float(cost), "kkt_norm": vmax,
                     "simplex_gap": float(abs(d.sum() - total)), "d_min": float(d.min())})
        if vmax <= KKT_TOL * (1.0 + float(np.abs(g).max())):
            reason = "stationary"
            break
        if iterations >= budget:
            reason = "budget"
            break
        limit = float(np.min(d[v > 0] / v[v > 0]))
        slope = float(g @ v)
        bend = curvature(v) - slope * slope / cost
        step = slope / bend if bend > 0.0 else 0.1 * total / vmax
        step = min(step, limit)
        while True:
            d_new = d - step * v
            # what project_tangent counts as on the boundary is put on it
            d_new[d_new <= 1e-12 * total] = 0.0
            d_new *= total / d_new.sum()
            iterations += 1
            cost_new, g_new, curvature_new = _cost_gradient(mode_set, output, x0, d_new)
            factorizations += 1
            if cost_new < cost or iterations >= budget:
                break
            step *= 0.5
            if step * vmax <= KKT_TOL * total:
                break
        if not cost_new < cost:
            reason = "budget" if iterations >= budget else "no descent"
            break
        d, cost, g, curvature = d_new, cost_new, g_new, curvature_new
    return d, cost, iterations, factorizations, reason


def optimize(mode_set: ModeSet, output: np.ndarray, x0: np.ndarray, *,
             starts: int = 1, seed: int | None = 0,
             start: np.ndarray | None = None) -> OptimizationReport:
    """Search the duration simplex for a minimum-cost green split.

    Parameters
    ----------
    mode_set : ModeSet
        Switched modes and the baseline durations (the cycle structure).
    output, x0 : arrays
        Output map and initial state defining the congestion cost.
    starts : int
        Number of initial splits: the baseline plus ``starts - 1`` random
        simplex points drawn with ``seed``, a nonnegative integer or None.
    start : array, optional
        Warm start; replaces the baseline as the first initial split (for
        example, to re-plan after the state estimate changes).  It must be
        finite and nonnegative with a positive sum, and is rescaled to the
        cycle time.

    Each start runs one projected Newton descent of at most
    ``MAX_ITERATIONS`` steps.  A start that this budget stops is not
    converged, and neither is the report when it is the best start.
    """
    if not isinstance(starts, (int, np.integer)) or starts < 1:
        raise ValidationError(f"starts must be an integer of at least 1, got {starts!r}")
    if seed is not None and not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    m = mode_set.n_modes
    # the initial splits are listed, one array of m durations each, before
    # the first start runs
    check_memory(starts * (8 + sys.getsizeof(np.empty(m))), f"{starts} initial splits")
    # the mode matrices and the working set of the split held and the split
    # tried (factors, Y_p, Y_q, the averaged matrix, a solve's temporaries):
    # traced, 13.4-14.5 n^2 doubles above the inputs on grids of 144-864
    # cells; resident, 20.1 n^2 doubles with the modes at 1,320 cells
    n = mode_set.n
    check_memory(8 * (m + 20) * n * n, f"an optimization over {m} modes of {n} cells")
    if start is not None:
        start = as_durations(mode_set, np.asarray(start, dtype=float).reshape(-1))
    total = mode_set.cycle_time
    baseline = mode_set.durations.astype(float)
    a, output, x0 = validate_triple(average_matrix(mode_set, baseline), output, x0)
    # without a warm start the first start's cost is the baseline's
    baseline_cost = None if start is None else congestion_cost(a, output, x0)

    initial = [baseline if start is None else start]
    rng = np.random.default_rng(seed)
    for _ in range(starts - 1):
        initial.append(rng.dirichlet(np.ones(m)) * total)

    best: dict[str, Any] | None = None
    for idx, d0 in enumerate(initial):
        d0 = d0 * (total / d0.sum())
        # in a list the descent empties, so no frame here keeps the start's
        # factor once the descent has moved on
        first = [_cost_gradient(mode_set, output, x0, d0)]
        cost0 = first[0][0]
        if baseline_cost is None:
            # the baseline sums to the cycle time, so there d0 is the baseline
            baseline_cost = cost0
        if not np.isfinite(cost0):
            continue
        if cost0 == 0.0:
            # zero cost cannot be improved
            best = {"durations": d0, "cost": 0.0, "converged": True, "iterations": 0,
                    "best_start": idx, "trajectory": []}
            break
        rows: list[dict[str, float]] = []
        d, cost, steps, factorizations, reason = _inner_descent(
            mode_set, output, x0, d0, first, rows, MAX_ITERATIONS)
        log.debug("start %d: %d Newton steps, %d factorizations, cost %.12g -> %.12g, %s",
                  idx, steps, factorizations, cost0, cost, reason)
        if best is None or cost < best["cost"]:
            best = {"durations": d, "cost": cost, "converged": reason != "budget",
                    "iterations": steps, "best_start": idx, "trajectory": rows}

    if best is None:
        raise NoStableStart(
            f"none of the {len(initial)} initial splits gives a stable average"
        )

    return OptimizationReport(baseline_cost=float(baseline_cost), n_starts=len(initial),
                              seed=seed, **best)
