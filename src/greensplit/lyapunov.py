"""Stability tests, Lyapunov solves, and the quadratic congestion cost.

For a Hurwitz ``A`` and initial state ``x0``, the congestion cost

    J = integral over [0, inf) of ||C exp(A t) x0||^2 dt

equals ``trace(C W C^T)`` where ``W`` solves ``A W + W A^T + x0 x0^T = 0``.
The solver below factors ``A`` once (real Schur form) and then solves the
equation for any diagonal shift ``A - s I`` with a single triangular
Sylvester call, which is what the smoothing root search and its gradient
rely on for their per-iteration cost.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg

from .errors import DimensionError, EigenFailure, SolveFailure, UnstableMatrix

#: residual accepted from a Lyapunov solve, relative to ``|D| + 2 |A - s I| |X|``
RESIDUAL_TOL = 1e-9


def _as_square(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {a.shape}")
    return a


def spectral_abscissa(a: np.ndarray) -> float:
    """Largest real part over the spectrum of ``a``."""
    a = _as_square(a)
    try:
        eigs = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigenvalue computation failed: {exc}") from exc
    return float(eigs.real.max())


class ShiftedLyapunov:
    """Repeated solves of ``(A - s I) X + X (A - s I)^T + D = 0``.

    The real Schur form of ``A`` is computed once; every shift then reduces
    to a quasi-triangular Sylvester solve, so a sweep over shifts costs one
    decomposition plus one cheap solve per shift.
    """

    def __init__(self, a: np.ndarray):
        a = _as_square(a)
        self.n = a.shape[0]
        try:
            self.t, self.u = linalg.schur(a, output="real")
        except (linalg.LinAlgError, ValueError) as exc:
            raise EigenFailure(f"Schur decomposition failed: {exc}") from exc
        self._trsyl, = linalg.get_lapack_funcs(("trsyl",), (self.t,))
        self._alpha = float(np.linalg.eigvals(self.t).real.max())

    @property
    def abscissa(self) -> float:
        """Spectral abscissa of the factored matrix."""
        return self._alpha

    def solve(self, d: np.ndarray, shift: float = 0.0, adjoint: bool = False) -> np.ndarray:
        """Solution of the shifted equation; requires ``shift > abscissa``.

        With ``adjoint=True`` the transposed equation
        ``(A - s I)^T X + X (A - s I) + D = 0`` is solved instead, still on
        the cached factors.
        """
        d = _as_square(d, "right-hand side")
        if d.shape[0] != self.n:
            raise DimensionError(
                f"right-hand side is {d.shape[0]}x{d.shape[0]}, matrix is {self.n}x{self.n}"
            )
        t = self.t.copy()
        t[np.diag_indices(self.n)] -= shift
        rhs = -(self.u.T @ d @ self.u)
        if adjoint:
            y, scale, info = self._trsyl(t, t, rhs, trana="C", tranb="N")
        else:
            y, scale, info = self._trsyl(t, t, rhs, tranb="C")
        # info == 1: the shifted spectrum nearly meets its mirror image and
        # trsyl perturbed it to finish, so y solves a different equation
        if info != 0 or scale == 0.0 or not np.all(np.isfinite(y)):
            raise SolveFailure(
                f"triangular Sylvester solve broke down (info={info}, scale={scale})"
            )
        y /= scale
        if adjoint:
            resid = np.linalg.norm(t.T @ y + y @ t - rhs)
        else:
            resid = np.linalg.norm(t @ y + y @ t.T - rhs)
        # backward-stable solves leave a residual of order eps (|D| + 2|T||Y|)
        size = np.linalg.norm(d) + 2.0 * np.linalg.norm(t) * np.linalg.norm(y)
        if resid > RESIDUAL_TOL * size:
            raise SolveFailure(
                f"Lyapunov residual {resid:.3e} exceeds tolerance for shift {shift}"
            )
        x = self.u @ y @ self.u.T
        return 0.5 * (x + x.T)


def solve_lyapunov(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve ``A X + X A^T + D = 0`` for Hurwitz ``A``."""
    solver = ShiftedLyapunov(a)
    if solver.abscissa >= 0.0:
        raise UnstableMatrix(
            f"matrix has spectral abscissa {solver.abscissa:.6g} >= 0"
        )
    return solver.solve(d)


def gramian(a: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Reachability-type Gramian of the pair ``(A, x0)``: the solution of
    ``A W + W A^T + x0 x0^T = 0``."""
    a = _as_square(a)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != a.shape[0]:
        raise DimensionError(
            f"initial state has length {x0.shape[0]}, matrix is {a.shape[0]}x{a.shape[0]}"
        )
    return solve_lyapunov(a, np.outer(x0, x0))


def congestion_cost(a: np.ndarray, output: np.ndarray, x0: np.ndarray) -> float:
    """Integrated squared stop-line occupancy from ``x0``.

    Returns ``+inf`` when the system is not asymptotically stable, so the
    value is always defined and comparisons just work.
    """
    a = _as_square(a)
    output = np.asarray(output, dtype=float)
    if output.ndim != 2 or output.shape[1] != a.shape[0]:
        raise DimensionError(
            f"output map of shape {output.shape} does not act on {a.shape[0]} states"
        )
    try:
        # one Schur factorization serves the stability test and the solve
        w = gramian(a, x0)
    except UnstableMatrix:
        return math.inf
    value = float(np.trace(output @ w @ output.T))
    return max(value, 0.0)
