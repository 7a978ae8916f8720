"""Smoothed stability margin of the averaged system and its sensitivity.

The spectral abscissa itself is a nonsmooth function of the mode durations.
The smoothed abscissa is a smooth stand-in for it: for a smoothing weight
``epsilon > 0``, the value ``alpha_s`` is the unique root of

    g(s) = trace(C P(s) C^T) = 1 / epsilon,

where ``P(s)`` solves ``(A - s I) P + P (A - s I)^T + x0 x0^T = 0``.  The
map ``g`` is strictly decreasing from ``+inf`` (as ``s`` approaches the
true abscissa from above, whenever the critical mode couples ``x0`` to the
output) to ``0``.  Its derivative comes in closed form from the adjoint
pair below, ``g'(s) = -2 trace(Q(s) P(s))``, and ``1/g`` is nearly linear
near the pole (``g ~ c / (s - alpha)``), so the root is found by Newton's
method on ``1/g(s) - epsilon``, safeguarded by a bracket: a step that
leaves the bracket, or stalls, is replaced by bisection (or by doubling
while the bracket is unbounded above).  The root always lies strictly
above the true abscissa and tends to it as ``epsilon`` goes to zero.
As ``g(0)`` is the congestion cost ``J``, the root at ``epsilon = 1/J`` of
a stable matrix is 0: :mod:`greensplit.optimizer` certifies its result
with that root, taken from the solves that give ``J``, with no search.
Every iterate is one ``P`` and one ``Q`` solve on a single Schur
factorization of ``A``; the search runs in Schur coordinates and
transforms back only the ``P`` and ``Q`` it returns.

The sensitivity of the root with respect to the mode durations follows
from the adjoint pair: with ``Q`` solving the transposed equation driven
by ``C^T C``, the derivative with respect to the entries of ``A`` is
``Q P / trace(Q P)``, and the chain rule through the duration-weighted
average contributes one vectorized mode matrix per duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ModeSet
from .errors import (DegenerateSystem, NoConvergence, SolveFailure,
                     ValidationError, ZeroTrace)
from .lyapunov import ShiftedLyapunov, validate_triple

#: relative size of the last Newton step (or of the bracket) at which the
#: smoothing root is accepted
ROOT_TOL = 1e-10

#: cold start of the root search, above the abscissa relative to 1 + |alpha|
_LEDGE = 1e-6

_MAX_EVALUATIONS = 400


@dataclass(frozen=True)
class SmoothedAbscissa:
    """Root of the smoothing equation together with its certificates."""

    value: float          # the smoothed abscissa
    abscissa: float       # true spectral abscissa of the matrix
    epsilon: float
    P: np.ndarray         # shifted Gramian at the root
    Q: np.ndarray         # adjoint solution at the root
    trace_value: float    # g(value); equals 1/epsilon up to the root tolerance
    evaluations: int      # iterates: a P solve each, and a Q solve where P succeeds


def smoothed_abscissa(a: np.ndarray, output: np.ndarray, x0: np.ndarray,
                      epsilon: float, tol: float = ROOT_TOL) -> SmoothedAbscissa:
    """Solve the smoothing equation for the given weight.

    Parameters
    ----------
    a : (n, n) array
        State matrix of the averaged system.  Stability is not required;
        the root is sought above the spectral abscissa wherever it lies.
    output : (p, n) array
        Output map whose squared trajectory norm defines the cost.
    x0 : (n,) array
        Initial state exciting the system.
    epsilon : float
        Smoothing weight; larger values push the root further above the
        true abscissa.
    tol : float
        Relative size of the Newton step (or of the bracket) at which the
        root is accepted.
    """
    a, output, x0 = validate_triple(a, output, x0)
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValidationError(f"epsilon must be positive, got {epsilon!r}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError(f"tol must be positive, got {tol!r}")

    solver = ShiftedLyapunov(a)
    alpha = solver.abscissa
    # the search runs in Schur coordinates A = U T U^T: with Y_p and Y_q the
    # transformed P and Q, g = <(CU)^T (CU), Y_p> and trace(Q P) = <Y_q, Y_p>
    z = solver.u.T @ x0
    source = -np.outer(z, z)
    cu = output @ solver.u
    weight = cu.T @ cu
    neg_weight = -weight
    target = 1.0 / epsilon
    s = alpha + _LEDGE * (1.0 + abs(alpha))

    def certified(found: tuple, evaluations: int) -> SmoothedAbscissa:
        value, yp, yq, g = found
        return SmoothedAbscissa(value=value, abscissa=alpha, epsilon=epsilon,
                                P=solver.from_schur(yp), Q=solver.from_schur(yq),
                                trace_value=g, evaluations=evaluations)

    # g >= 1/epsilon on (alpha, lo], g < 1/epsilon on [hi, inf)
    lo, hi = alpha, math.inf
    increment = max(1.0, abs(alpha))
    move = last_move = math.inf
    best = None    # (shift, Y_p, Y_q, g) at the latest iterate where both solves succeeded
    for evaluations in range(1, _MAX_EVALUATIONS + 1):
        newton = math.nan
        try:
            yp = solver.solve(source, shift=s)
        except SolveFailure:
            # so close to the pole that the solve breaks down: the trace is
            # beyond floating-point range there anyway
            lo = s
        else:
            g = float(np.vdot(weight, yp))
            if g <= 0.0:
                raise DegenerateSystem(
                    "the smoothing trace vanishes: the initial state never reaches the output"
                )
            if g >= target:
                lo = s
            else:
                hi = s
            try:
                yq = solver.solve(neg_weight, shift=s, adjoint=True)
            except SolveFailure:
                pass    # no derivative here; g still placed s in the bracket
            else:
                best = (s, yp, yq, g)
                # Newton on h = 1/g - epsilon, with h' = 2 trace(Q P) / g^2
                slope = 2.0 * float(np.vdot(yq, yp))
                if slope > 0.0:
                    newton = s + (epsilon * g - 1.0) * g / slope
                    if abs(newton - s) <= tol * (1.0 + abs(s)):
                        return certified(best, evaluations)
        if hi - lo <= tol * (1.0 + abs(lo)):
            # resolved by the bracket: the root is pinched against the
            # abscissa, or the trace is too noisy for a smaller Newton step
            if best is None or not lo <= best[0] <= hi:
                raise SolveFailure(
                    f"the adjoint solve breaks down at the smoothing root {hi!r}"
                )
            return certified(best, evaluations)
        # a Newton step must stay inside the bracket and, once the bracket
        # is bounded, at least halve the move before last
        if lo < newton < hi and (math.isinf(hi) or abs(newton - s) <= 0.5 * last_move):
            nxt = newton
        elif math.isinf(hi):
            nxt = lo + increment
            increment *= 2.0
        else:
            nxt = 0.5 * (lo + hi)
        last_move, move = move, abs(nxt - s)
        s = nxt
    raise NoConvergence(
        f"the smoothing root search did not converge in {_MAX_EVALUATIONS} evaluations "
        f"(bracket [{lo:.6g}, {hi:.6g}], 1/epsilon = {target:.3e})"
    )


def duration_gradient(mode_set: ModeSet, result: SmoothedAbscissa,
                      durations: np.ndarray | None = None) -> np.ndarray:
    """Derivative of the smoothed abscissa with respect to mode durations.

    The averaged matrix is the duration-weighted mean of the modes with the
    cycle time held fixed at the schedule's value, so each component is the
    elementwise product of one mode matrix with the normalized sensitivity
    ``Q P / trace(Q P)``, divided by the cycle time.
    """
    d = mode_set.durations if durations is None else np.asarray(durations, dtype=float)
    total = float(d.sum())
    if total <= 0:
        raise ValidationError("mode durations must have a positive sum")
    qp = result.Q @ result.P
    tr = float(np.trace(qp))
    norm_scale = float(np.linalg.norm(result.P) * np.linalg.norm(result.Q))
    if tr <= 1e-300 or tr <= 1e-14 * norm_scale:
        raise ZeroTrace(
            "trace(Q P) vanished; the smoothing sensitivity is undefined here"
        )
    sens = qp / tr
    grad = np.empty(mode_set.n_modes)
    for i, mode in enumerate(mode_set.modes):
        grad[i] = np.vdot(sens, mode) / total
    return grad
