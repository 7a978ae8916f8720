"""Green-split design: minimize the congestion cost over mode durations.

The cost ``J(d) = trace(C W(A(d)) C^T)`` is attacked through its reciprocal:
a smoothing weight ``eps_bar`` is feasible when the smoothed abscissa at
that weight can be driven to zero over the duration simplex, which happens
exactly when some split achieves ``J(d) <= 1 / eps_bar``.  The outer loop
pushes ``eps_bar`` upward: the increment doubles after each achieved weight,
and the continuation stops at the first weight that cannot be achieved.
The inner loop is a projected descent on the smoothed abscissa at fixed
weight.  Each descent starts from a certified root at its first split:
its first step moves that root's value along ``d(alpha_s)/d(epsilon)`` and
takes the gradient from its ``P`` and ``Q``, with no root search.  As
``g(0) = trace(C P(0) C^T) = J(d)``, the root at ``epsilon = 1/J(d)`` is 0,
with the ``P`` and ``Q`` of the solves that give ``J``: a start's cost
solve gives its first root, and each later weight takes the outer iterate's.

From the last achieved weight's split a projected Newton method on ``J``
itself finishes (Bertsekas, "Projected Newton methods for optimization
problems with simple constraints", SIAM J. Control Optim. 20(2), 1982).
It takes the exact gradient ``dJ/dd_k = 2 <Q P, A_k> / T`` from one
factorization per iterate, and stops where the projected gradient
vanishes.  The root at ``epsilon = 1/J`` of its last accepted split is the
certificate, so the reported ``1/epsilon`` is the cost at the returned
split.  A polish that finds no other split below the last achieved
weight's cost leaves the continuation's split and certificate in place.

The inner step follows the projected gradient of ``alpha_s * d(alpha_s)``
(the signed scaling keeps zero an attractor from both sides) and is the
Newton step on the abscissa: it zeroes the local linear model of
``alpha_s`` along that direction, so near a root ``|alpha_s|`` falls
quadratically.  A fixed multiple of the raw gradient stalls at realistic
network scales, so the step length is normalized this way and capped at a
tenth of the cycle per coordinate.  A step that raises ``|alpha_s|`` ends
the descent as stationary.  This is what happens at a weight that cannot
be achieved: the step, sized to zero the linearized abscissa, overshoots
its positive minimum, and further iterates would only oscillate around it.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .dynamics import ModeSet, average_matrix
from .errors import (DimensionError, NoStableStart, ValidationError, ZeroTrace,
                     check_memory)
from .lyapunov import ShiftedLyapunov, congestion_cost, validate_triple
from .ssa import SmoothedAbscissa, duration_gradient, smoothed_abscissa

#: relative stationarity threshold on the projected direction
KKT_TOL = 1e-6

#: inner iteration budget of one start, shared by its descents
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
class InnerResult:
    durations: np.ndarray
    # the certified root the next weight starts from: the achieved root at
    # ``durations``, or else a root at the start of the descent
    anchor: SmoothedAbscissa
    # "achieved": |alpha_s| reached its tolerance; "stationary": the projected
    # direction vanished, or a step raised |alpha_s|; "budget": the start's
    # iteration budget ran out
    reason: str
    iterations: int
    searches: int         # root searches, one Schur factorization each
    evaluations: int      # root-search evaluations over all iterates


@dataclass
class PolishResult:
    durations: np.ndarray
    cost: float           # J at ``durations``
    root: SmoothedAbscissa | None    # the root at epsilon = 1/J there
    iterations: int       # Newton steps tried, one factorization each
    factorizations: int   # the steps', the start's and the curvature probe's


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
            "xi": float(self.xi),
            "trajectory": self.trajectory,
        }


def _inner_descent(mode_set: ModeSet, output: np.ndarray, x0: np.ndarray,
                   epsilon: float, start: np.ndarray,
                   rows: list[dict[str, float]], outer_index: int,
                   best_cost: float, anchor: SmoothedAbscissa,
                   budget: int) -> InnerResult:
    """Drive the smoothed abscissa at fixed weight toward zero, in at most
    ``budget`` iterations.

    ``anchor`` is a certified root at ``start`` for another weight: the
    root at ``1/J(start)`` from the cost's own solve, or the root that
    achieved the previous weight.  The first iterate takes no root search:
    its value is the anchor's moved to ``epsilon`` along
    :meth:`SmoothedAbscissa.epsilon_slope`, and its gradient comes from the
    anchor's ``P`` and ``Q``.
    Every later search starts from the first-order prediction
    ``value + g . (d_new - d)`` of its root, with ``g`` the duration
    gradient the step was built from.  Only a searched root is achieved.
    """
    d = start.copy()
    total = d.sum()
    searches = evaluations = 0
    last = np.inf    # |alpha_s| at the previous iterate
    root = None
    for it in range(budget):
        if it == 0:
            res = anchor
            value = anchor.value + (epsilon - anchor.epsilon) * anchor.epsilon_slope()
        else:
            a = average_matrix(mode_set, d)
            res = smoothed_abscissa(a, output, x0, epsilon, warm_start=root)
            searches += 1
            evaluations += res.evaluations
            value = res.value
            # alpha_s is zero to the tolerance of the search
            if abs(value) <= 1e-8 * (1.0 + abs(res.abscissa)):
                return InnerResult(d, res, "achieved", it, searches, evaluations)
        if abs(value) > last:
            # the last step overshot a positive minimum of |alpha_s|
            return InnerResult(d, anchor, "stationary", it, searches, evaluations)
        last = abs(value)
        try:
            g = duration_gradient(mode_set, res, d)
        except ZeroTrace:
            return InnerResult(d, anchor, "stationary", it, searches, evaluations)
        nabla = value * g
        v = project_tangent(nabla, d)
        rows.append({
            "outer": float(outer_index), "inner": float(it),
            "epsilon": float(epsilon), "alpha_smooth": float(value),
            "kkt_norm": float(np.abs(v).max()), "cost": float(best_cost),
            "simplex_gap": float(abs(d.sum() - total)),
            "d_min": float(d.min()),
        })
        denom = float(g @ v)
        direction_norm = float(np.abs(project_tangent(g, d)).max())
        if direction_norm <= KKT_TOL * (1.0 + float(np.abs(g).max())) or denom == 0.0:
            return InnerResult(d, anchor, "stationary", it, searches, evaluations)
        # the Newton step zeroes the linearized abscissa
        step = value / denom
        vmax = float(np.abs(v).max())
        if vmax > 0 and step * vmax > 0.1 * total:
            step = 0.1 * total / vmax
        # do not cross the boundary: stop exactly on it
        shrinking = v > 0
        if shrinking.any():
            limit = float(np.min(d[shrinking] / v[shrinking]))
            step = min(step, limit)
        d_new = d - step * v
        d_new[d_new < 0] = 0.0
        d_new *= total / d_new.sum()
        root = value + float(g @ (d_new - d))
        d = d_new
    return InnerResult(d, anchor, "budget", budget, searches, evaluations)


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


def _polish(mode_set: ModeSet, output: np.ndarray, x0: np.ndarray,
            start: np.ndarray, budget: int) -> PolishResult:
    """Projected Newton descent on ``J`` from ``start``, in at most
    ``budget`` steps.

    Durations below 1% of ``T/m`` are dropped first and the rest rescaled
    to the cycle.  Each step moves along the projected gradient ``v`` by
    ``(g . v) / (v^T H v)``, stopped on the simplex boundary, with the
    curvature ``v^T H v`` from one more gradient a short way along ``v``.
    A coordinate on the boundary stays there only while
    :func:`project_tangent` clamps it, so a dropped phase can come back.
    Only a step that lowers ``J`` is taken; a step that does not is halved
    until it moves no coordinate by more than :data:`KKT_TOL` of the cycle.
    The descent ends when the projected gradient is within :data:`KKT_TOL`.
    """
    total = start.sum()
    d = np.where(start < 0.01 * total / start.size, 0.0, start)
    d *= total / d.sum()
    cost, g, root = _cost_gradient(mode_set, output, x0, d)
    factorizations = 1
    iterations = 0
    while iterations < budget and g is not None:
        v = project_tangent(g, d)
        vmax = float(np.abs(v).max())
        if vmax <= KKT_TOL * (1.0 + float(np.abs(g).max())):
            break
        shrinking = v > 0
        limit = float(np.min(d[shrinking] / v[shrinking]))
        h = min(1e-3 * total / d.size / vmax, 0.5 * limit)
        _, g_probe, _ = _cost_gradient(mode_set, output, x0, d - h * v)
        factorizations += 1
        if g_probe is None:
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
            break
        d, cost, g, root = d_new, cost_new, g_new, root_new
    return PolishResult(d, cost, root, iterations, factorizations)


def optimize(mode_set: ModeSet, output: np.ndarray, x0: np.ndarray, *,
             xi: float = 0.05, starts: int = 1,
             seed: int | None = 0, start: np.ndarray | None = None) -> OptimizationReport:
    """Search the duration simplex for a minimum-cost green split.

    Parameters
    ----------
    mode_set : ModeSet
        Switched modes and the baseline durations (the cycle structure).
    output, x0 : arrays
        Output map and initial state defining the congestion cost.
    xi : float
        First weight increment as a fraction of the starting weight.  It
        doubles after each achieved weight, and the continuation stops at
        the first weight that cannot be achieved.
    starts : int
        Number of initial splits: the baseline plus ``starts - 1`` random
        simplex points drawn with ``seed``, a nonnegative integer or None.
    start : array, optional
        Warm start; replaces the baseline as the first initial split (for
        example, to re-plan after the state estimate changes).  It must be
        finite and nonnegative with a positive sum, and is rescaled to the
        cycle time.

    The descents and the polish of a start share one budget of
    ``MAX_ITERATIONS`` iterations, and each runs at most what is left of
    it.  A start that spends it all is not converged, and neither is the
    report when it is the best start.
    """
    if not 0.0 < xi < np.inf:
        raise ValidationError(f"xi must be finite and positive, got {xi}")
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
        # the root at 1/cost0 anchors the first descent
        cost0, _, anchor = _cost_gradient(mode_set, output, x0, d0)
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
        d = d0.copy()
        eps_bar = anchor.epsilon
        xi_cur = xi * eps_bar
        iters = 0
        outer = 0
        reasons = {"achieved": 0, "stationary": 0, "budget": 0}
        searches = evaluations = 0
        while iters < MAX_ITERATIONS:
            inner = _inner_descent(mode_set, output, x0, eps_bar + xi_cur, d,
                                   rows, outer, 1.0 / eps_bar, anchor,
                                   MAX_ITERATIONS - iters)
            log.debug("outer %d: epsilon %.9g, %d inner iterations, "
                      "%d root-search evaluations, %s", outer,
                      eps_bar + xi_cur, inner.iterations, inner.evaluations,
                      inner.reason)
            iters += max(inner.iterations, 1)
            outer += 1
            reasons[inner.reason] += 1
            searches += inner.searches
            evaluations += inner.evaluations
            anchor = inner.anchor
            if inner.reason != "achieved":
                break
            eps_bar += xi_cur
            d = inner.durations
            xi_cur *= 2.0
        cost = 1.0 / eps_bar
        if iters < MAX_ITERATIONS:
            polish = _polish(mode_set, output, x0, d, MAX_ITERATIONS - iters)
            iters += polish.iterations
            log.debug("start %d polish: %d iterations, %d factorizations, "
                      "cost %.12g -> %.12g", idx, polish.iterations,
                      polish.factorizations, cost, polish.cost)
            if polish.cost < cost and not np.array_equal(polish.durations, d):
                d, eps_bar, cost = polish.durations, polish.root.epsilon, polish.cost
        log.debug("start %d: first anchor from the cost solve, without a root "
                  "search; %d outer steps (%d achieved, %d stationary, "
                  "%d budget), %d inner iterations, %d root searches, "
                  "%d root-search evaluations", idx, outer, reasons["achieved"],
                  reasons["stationary"], reasons["budget"], iters, searches,
                  evaluations)
        candidate = {"d": d, "eps": eps_bar, "cost": cost,
                     "rows": rows, "iters": iters, "start": idx,
                     "converged": iters < MAX_ITERATIONS}
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
        xi=xi,
        trajectory=best["rows"],
    )
