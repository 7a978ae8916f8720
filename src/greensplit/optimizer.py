"""Green-split design: minimize the congestion cost over mode durations.

The cost ``J(d) = trace(C W(A(d)) C^T)`` is attacked through its reciprocal:
a smoothing weight ``eps_bar`` is feasible when the smoothed abscissa at
that weight can be driven to zero over the duration simplex, which happens
exactly when some split achieves ``J(d) <= 1 / eps_bar``.  The outer loop
pushes ``eps_bar`` upward in shrinking increments; the inner loop is a
projected descent on the smoothed abscissa at fixed weight.

The inner step follows the projected gradient of ``alpha_s * d(alpha_s)``
(the signed scaling keeps zero an attractor from both sides) and sizes the
step so one undamped move would zero the local linear model of the
abscissa; the damping factor ``mu`` in (0, 1) trades speed for safety.  A
fixed multiple of the raw gradient stalls at realistic network scales, so
the step length is normalized this way and capped at a tenth of the cycle
per coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .dynamics import ModeSet, average_matrix
from .errors import DimensionError, NoStableStart, ValidationError, ZeroTrace
from .lyapunov import congestion_cost
from .ssa import SmoothedAbscissa, duration_gradient, smoothed_abscissa

#: relative stationarity threshold on the projected direction
KKT_TOL = 1e-6

#: inner iteration budget per smoothing weight
MAX_INNER = 5000

#: simplex drift allowed on iterates, relative to the cycle time
SIMPLEX_TOL = 1e-9


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
class InnerResult:
    durations: np.ndarray
    result: SmoothedAbscissa | None
    achieved: bool        # |alpha_s| was driven to the tolerance
    stationary: bool      # projected direction vanished first
    iterations: int


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
    mu: float
    xi: float
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
            "mu": float(self.mu),
            "xi": float(self.xi),
            "trajectory": self.trajectory,
        }


def _inner_descent(mode_set: ModeSet, output: np.ndarray, x0: np.ndarray,
                   epsilon: float, start: np.ndarray, mu: float,
                   rows: list[dict[str, float]], outer_index: int,
                   best_cost: float, root: float | None = None) -> InnerResult:
    """Drive the smoothed abscissa at fixed weight toward zero.

    ``root`` is a first guess for the first root search; every later search
    starts from the previous iterate's root.
    """
    d = start.copy()
    total = d.sum()
    res: SmoothedAbscissa | None = None
    for it in range(MAX_INNER):
        a = average_matrix(mode_set, d)
        res = smoothed_abscissa(a, output, x0, epsilon, warm_start=root)
        root = res.value
        tol_alpha = 1e-8 * (1.0 + abs(res.abscissa))
        if abs(res.value) <= tol_alpha:
            return InnerResult(d, res, True, False, it)
        try:
            g = duration_gradient(mode_set, res, d)
        except ZeroTrace:
            return InnerResult(d, res, False, True, it)
        nabla = res.value * g
        v = project_tangent(nabla, d)
        rows.append({
            "outer": float(outer_index), "inner": float(it),
            "epsilon": float(epsilon), "alpha_smooth": float(res.value),
            "kkt_norm": float(np.abs(v).max()), "cost": float(best_cost),
            "simplex_gap": float(abs(d.sum() - total)),
            "d_min": float(d.min()),
        })
        denom = float(g @ v)
        direction_norm = float(np.abs(project_tangent(g, d)).max())
        if direction_norm <= KKT_TOL * (1.0 + float(np.abs(g).max())) or denom == 0.0:
            return InnerResult(d, res, False, True, it)
        # one undamped step zeroes the linearized abscissa
        step = mu * res.value / denom
        vmax = float(np.abs(v).max())
        if vmax > 0 and step * vmax > 0.1 * total:
            step = 0.1 * total / vmax
        # do not cross the boundary: stop exactly on it
        shrinking = v > 0
        if shrinking.any():
            limit = float(np.min(d[shrinking] / v[shrinking]))
            step = min(step, limit)
        d = d - step * v
        d[d < 0] = 0.0
        d *= total / d.sum()
    return InnerResult(d, res, False, False, MAX_INNER)


def optimize(mode_set: ModeSet, output: np.ndarray, x0: np.ndarray, *,
             mu: float = 0.5, xi: float = 0.05, starts: int = 1,
             seed: int | None = 0, start: np.ndarray | None = None) -> OptimizationReport:
    """Search the duration simplex for a minimum-cost green split.

    Parameters
    ----------
    mode_set : ModeSet
        Switched modes and the baseline durations (the cycle structure).
    output, x0 : arrays
        Output map and initial state defining the congestion cost.
    mu : float
        Damping of the inner descent step, in (0, 1).
    xi : float
        Initial weight increment as a fraction of the starting weight;
        halved whenever an increment proves unachievable, until it falls
        below ``1e-4`` of the starting weight.
    starts : int
        Number of initial splits: the baseline plus ``starts - 1`` random
        simplex points drawn with ``seed``.
    start : array, optional
        Warm start; replaces the baseline as the first initial split (for
        example, to re-plan after the state estimate changes).

    Each inner descent runs at most ``MAX_INNER`` iterations; a descent
    that hits this budget marks the report as not converged.
    """
    if not 0.0 < mu < 1.0:
        raise ValidationError(f"mu must lie in (0, 1), got {mu}")
    if not 0.0 < xi < np.inf:
        raise ValidationError(f"xi must be finite and positive, got {xi}")
    if starts < 1:
        raise ValidationError(f"starts must be at least 1, got {starts}")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    output = np.asarray(output, dtype=float)

    m = mode_set.n_modes
    total = mode_set.cycle_time
    baseline = mode_set.durations.astype(float)
    baseline_cost = congestion_cost(average_matrix(mode_set, baseline), output, x0)

    initial = [baseline if start is None else np.asarray(start, dtype=float).reshape(-1)]
    if initial[0].shape != (m,):
        raise DimensionError(f"start must have {m} durations")
    rng = np.random.default_rng(seed)
    for _ in range(starts - 1):
        initial.append(rng.dirichlet(np.ones(m)) * total)

    best: dict[str, Any] | None = None
    for idx, d0 in enumerate(initial):
        d0 = d0 * (total / d0.sum())
        cost0 = congestion_cost(average_matrix(mode_set, d0), output, x0)
        if not np.isfinite(cost0):
            continue
        eps0 = 1.0 / cost0 if cost0 > 0 else None
        if eps0 is None:
            # zero cost cannot be improved
            candidate = {"d": d0, "eps": np.inf, "cost": 0.0, "rows": [],
                         "iters": 0, "start": idx, "converged": True}
            best = candidate
            break
        rows: list[dict[str, float]] = []
        d = d0.copy()
        eps_bar = eps0
        xi_cur = xi * eps0
        iters = 0
        outer = 0
        hit_cap = False
        root = None    # latest smoothed abscissa, the next search's first guess
        while xi_cur >= 1e-4 * eps0:
            inner = _inner_descent(mode_set, output, x0, eps_bar + xi_cur, d,
                                   mu, rows, outer, 1.0 / eps_bar, root)
            if inner.result is not None:
                root = inner.result.value
            iters += max(inner.iterations, 1)
            outer += 1
            if inner.achieved:
                eps_bar += xi_cur
                d = inner.durations
            else:
                xi_cur *= 0.5
                if not inner.stationary and inner.iterations >= MAX_INNER:
                    hit_cap = True
            if outer > 100000:
                hit_cap = True
                break
        candidate = {"d": d, "eps": eps_bar, "cost": 1.0 / eps_bar,
                     "rows": rows, "iters": iters, "start": idx,
                     "converged": not hit_cap}
        if best is None or candidate["cost"] < best["cost"]:
            best = candidate

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
        mu=mu,
        xi=xi,
        trajectory=best["rows"],
    )
