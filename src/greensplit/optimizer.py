"""Green-split design: minimize the congestion cost over mode durations.

The cost ``J(d) = trace(C W(A(d)) C^T)`` is the output energy of the
averaged system started at ``x0``, with ``A(d)`` averaged over the split
``d``.  Each start runs one projected Newton descent on ``J`` over the
duration simplex (Bertsekas, "Projected Newton methods for optimization
problems with simple constraints", SIAM J. Control Optim. 20(2), 1982).
One Schur factorization per iterate gives ``J`` and its exact gradient
``dJ/dd_k = 2 <Q P, A_k> / T``, with ``P`` the Gramian driven by
``x0 x0^T`` and ``Q`` the adjoint solution driven by ``C^T C``; the
descent stops where the projected gradient vanishes.

The same solves certify the result through the smoothed abscissa of
:mod:`greensplit.ssa`: as ``g(0) = trace(C P(0) C^T) = J(d)``, the
smoothing root at ``epsilon = 1/J(d)`` is 0, with that ``P`` and ``Q``.
The root of the last accepted split is the report's certificate, so the
reported ``1/epsilon`` is the cost at the returned split.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .dynamics import ModeSet, average_matrix
from .errors import DimensionError, NoStableStart, ValidationError, check_memory
from .lyapunov import ShiftedLyapunov, congestion_cost, validate_triple
from .ssa import SmoothedAbscissa

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
    epsilon: float
    cost: float
    baseline_cost: float
    converged: bool
    iterations: int
    n_starts: int
    best_start: int
    seed: int | None
    trajectory: list[dict[str, float]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "durations": [float(x) for x in self.durations],
            "epsilon": float(self.epsilon),
            "cost": float(self.cost),
            "baseline_cost": float(self.baseline_cost),
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "n_starts": int(self.n_starts),
            "best_start": int(self.best_start),
            "seed": self.seed,
            "trajectory": self.trajectory,
        }


def _cost_gradient(mode_set: ModeSet, output: np.ndarray, x0: np.ndarray, d: np.ndarray
                   ) -> tuple[float, np.ndarray | None, SmoothedAbscissa | None]:
    """``J(d)``, its duration gradient ``dJ/dd_k = 2 <Q P, A_k> / T`` and
    the smoothing root at ``epsilon = 1/J(d)``.

    One factorization of the averaged matrix serves all three: ``P`` is the
    Gramian driven by ``x0 x0^T`` and ``Q`` the adjoint solution driven by
    ``C^T C``, each one solve at shift 0, where ``g(0) = J``.  ``J`` is the
    value :func:`congestion_cost` gives.  Where the average is not stable
    the cost is ``inf`` and there is neither gradient nor root.
    """
    solver = ShiftedLyapunov(average_matrix(mode_set, d))
    if not solver.stable:
        return math.inf, None, None
    z = solver.u.T @ x0
    cu = output @ solver.u
    yp = solver.solve(-np.outer(z, z))
    yq = solver.solve(-(cu.T @ cu), adjoint=True)
    cost = max(float(np.vdot(cu @ yp, cu)), 0.0)
    root = SmoothedAbscissa(value=0.0, abscissa=solver.abscissa,
                            epsilon=1.0 / cost if cost > 0.0 else math.inf,
                            P=solver.from_schur(yp), Q=solver.from_schur(yq),
                            trace_value=cost, evaluations=1)
    qp = root.Q @ root.P
    grad = np.array([np.vdot(qp, a) for a in mode_set.modes])
    return cost, grad * (2.0 / d.sum()), root


def _inner_descent(mode_set: ModeSet, output: np.ndarray, x0: np.ndarray,
                   start: np.ndarray,
                   first: tuple[float, np.ndarray | None, SmoothedAbscissa | None],
                   rows: list[dict[str, float]], budget: int
                   ) -> tuple[np.ndarray, float, SmoothedAbscissa, int, int, str]:
    """Projected Newton descent on ``J`` from ``start``, in at most
    ``budget`` steps.

    ``first`` is what :func:`_cost_gradient` gives at ``start``.  Durations
    below 1% of ``T/m`` are dropped first and the rest rescaled to the
    cycle; where that leaves the average unstable (so short a phase can be
    the only one that drains a road), the descent starts from ``start``
    itself.  Each step moves along the projected gradient ``v`` by
    ``(g . v) / (v^T H v)``, stopped on the simplex boundary, with the
    curvature ``v^T H v`` from one more gradient a short way along ``v``.
    A coordinate on the boundary stays there only while
    :func:`project_tangent` clamps it, so a dropped phase can come back.
    Only a step that lowers ``J`` is taken; a step that does not is halved
    until it moves no coordinate by more than :data:`KKT_TOL` of the cycle.
    Each accepted split, the first included, appends one row to ``rows``.

    Returns the last accepted split, its cost, its root at
    ``epsilon = 1/J``, the Newton steps tried, the factorizations (the
    start's cost solve included) and why the descent stopped:
    ``"stationary"`` where the projected gradient is within
    :data:`KKT_TOL`, ``"no descent"`` where no step lowers ``J``, and
    ``"budget"`` where the steps ran out first.

    The benchmark's span tracer (``perfbench/tracing.py``) wraps this
    function by its name and counts its calls, one per start that
    descends, as ``optimizer.outer_iters``.
    """
    total = start.sum()
    cost, g, root = first
    factorizations = 1
    d = np.where(start < 0.01 * total / start.size, 0.0, start)
    if not np.array_equal(d, start):
        d *= total / d.sum()
        dropped = _cost_gradient(mode_set, output, x0, d)
        factorizations += 1
        if dropped[1] is None:
            d = start
        else:
            cost, g, root = dropped
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
        shrinking = v > 0
        limit = float(np.min(d[shrinking] / v[shrinking]))
        h = min(1e-3 * total / d.size / vmax, 0.5 * limit)
        _, g_probe, _ = _cost_gradient(mode_set, output, x0, d - h * v)
        factorizations += 1
        if g_probe is None:
            reason = "no descent"
            break
        curvature = float((g - g_probe) @ v) / h
        step = float(g @ v) / curvature if curvature > 0.0 else 0.1 * total / vmax
        step = min(step, limit)
        while True:
            d_new = d - step * v
            # what project_tangent counts as on the boundary is put on it
            d_new[d_new <= 1e-12 * total] = 0.0
            d_new *= total / d_new.sum()
            iterations += 1
            cost_new, g_new, root_new = _cost_gradient(mode_set, output, x0, d_new)
            factorizations += 1
            if cost_new < cost or iterations >= budget:
                break
            step *= 0.5
            if step * vmax <= KKT_TOL * total:
                break
        if not cost_new < cost:
            reason = "budget" if iterations >= budget else "no descent"
            break
        d, cost, g, root = d_new, cost_new, g_new, root_new
    return d, cost, root, iterations, factorizations, reason


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
    if start is not None:
        start = np.asarray(start, dtype=float).reshape(-1)
        if start.shape != (m,):
            raise DimensionError(f"start must have {m} durations")
        if not (np.all(np.isfinite(start)) and np.all(start >= 0) and start.sum() > 0):
            raise ValidationError(f"start must be finite and nonnegative with a positive "
                                  f"sum, got {start.tolist()}")
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
        first = _cost_gradient(mode_set, output, x0, d0)
        cost0 = first[0]
        if baseline_cost is None:
            # the baseline sums to the cycle time, so there d0 is the baseline
            baseline_cost = cost0
        if not np.isfinite(cost0):
            continue
        if cost0 == 0.0:
            # zero cost cannot be improved
            best = {"d": d0, "eps": np.inf, "cost": 0.0, "rows": [],
                    "iters": 0, "start": idx, "converged": True}
            break
        rows: list[dict[str, float]] = []
        d, cost, root, steps, factorizations, reason = _inner_descent(
            mode_set, output, x0, d0, first, rows, MAX_ITERATIONS)
        log.debug("start %d: %d Newton steps, %d factorizations, cost %.12g -> %.12g, %s",
                  idx, steps, factorizations, cost0, cost, reason)
        if best is None or cost < best["cost"]:
            best = {"d": d, "eps": root.epsilon, "cost": cost, "rows": rows,
                    "iters": steps, "start": idx, "converged": reason != "budget"}

    if best is None:
        raise NoStableStart(
            f"none of the {len(initial)} initial splits gives a stable average"
        )

    return OptimizationReport(
        durations=best["d"],
        epsilon=float(best["eps"]),
        cost=float(best["cost"]),
        baseline_cost=float(baseline_cost),
        converged=bool(best["converged"]),
        iterations=int(best["iters"]),
        n_starts=len(initial),
        best_start=int(best["start"]),
        seed=seed,
        trajectory=best["rows"],
    )
