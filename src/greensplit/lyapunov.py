"""Stability tests, Lyapunov solves, and the quadratic congestion cost.

For a Hurwitz ``A`` and initial state ``x0``, the congestion cost

    J = integral over [0, inf) of ||C exp(A t) x0||^2 dt

equals ``trace(C W C^T)`` where ``W`` solves ``A W + W A^T + x0 x0^T = 0``.
The solver below factors ``A = U T U^T`` once (real Schur form) and then
solves the equation for any diagonal shift ``A - s I`` in Schur
coordinates, where it reads ``(T - s I) Y + Y (T - s I)^T = R`` with
``Y = U^T X U`` and ``R = -U^T D U``.

The factorization runs one strongly connected component at a time.  The
averaged network matrix is reducible (its entry and exit roads are acyclic
chains), so a topological order of the components of its sparsity graph
(Tarjan, SIAM J. Comput. 1(2), 1972) permutes it to block upper triangular
form.  A real Schur factor of each diagonal block larger than 1x1, applied
to the coupling rows and columns of that block, then gives a real Schur
form of the whole matrix: ``U`` is the permutation times the block
diagonal of the blocks' factors.  The ordering depends only on the
sparsity pattern and is cached by it.

The quasi-triangular equation is solved by the recursive blocked form of
the Bartels-Stewart method (Jonsson & Kagstrom, ACM TOMS 28(4), 2002):
``T`` is split in two between its diagonal blocks, the two diagonal
Lyapunov blocks recurse, and the off-diagonal block is one Sylvester solve,
so most of the work is matrix products; blocks of order up to :data:`BASE`
go to LAPACK's ``trsyl``.  Callers that run many solves on one
factorization (the smoothing root search, the congestion cost) transform
their data to Schur coordinates once and only transform back the
solutions they keep.
"""

from __future__ import annotations

import functools
import heapq
import math

import numpy as np
from scipy import linalg, sparse
from scipy.sparse import csgraph

from .errors import DimensionError, EigenFailure, SolveFailure, UnstableMatrix, ValidationError

#: residual accepted from a Lyapunov solve, relative to ``|R| + 2 |T - s I| |Y|``
RESIDUAL_TOL = 1e-9

#: order at or below which a diagonal block is solved by one ``trsyl`` call
BASE = 32


def _as_square(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {a.shape}")
    return a


def validate_triple(a: np.ndarray, output: np.ndarray,
                    x0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The system ``(A, C, x0)`` of a cost as float arrays: a square ``A``,
    a finite two-dimensional ``(p, n)`` output map and a finite ``x0`` of
    length ``n``.  Finiteness of ``A`` is left to the Schur factorization."""
    a = _as_square(a, "state matrix")
    n = a.shape[0]
    output = np.asarray(output, dtype=float)
    if output.ndim != 2 or output.shape[1] != n:
        raise DimensionError(f"output map of shape {output.shape} does not act on {n} states")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != n:
        raise DimensionError(f"initial state has length {x0.shape[0]}, matrix is {n}x{n}")
    if not (np.all(np.isfinite(output)) and np.all(np.isfinite(x0))):
        raise ValidationError("the output map and the initial state must be finite")
    return a, output, x0


def spectral_abscissa(a: np.ndarray) -> float:
    """Largest real part over the spectrum of ``a``."""
    a = _as_square(a)
    try:
        eigs = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigenvalue computation failed: {exc}") from exc
    return float(eigs.real.max())


@functools.lru_cache(maxsize=16)
def _block_order(pattern: bytes, n: int) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """Permutation of the states that makes a matrix with the given packed
    sparsity pattern block upper triangular, and the ``(start, end)`` of
    each diagonal block larger than 1x1.  There is one diagonal block per
    strongly connected component of the sparsity graph.

    The components come in a topological order of the condensation; where
    several could come next, the one holding the smallest state index goes
    first, so a matrix that is already block upper triangular keeps the
    identity permutation.  States keep their order within a component.
    """
    mask = np.unpackbits(np.frombuffer(pattern, dtype=np.uint8), count=n * n)
    graph = sparse.csr_matrix(mask.reshape(n, n))
    count, labels = csgraph.connected_components(graph, directed=True,
                                                 connection="strong")
    # a nonzero a[i, j] between components puts i's component before j's
    rows, cols = graph.nonzero()
    tail, head = labels[rows], labels[cols]
    between = tail != head
    edges = set(zip(tail[between].tolist(), head[between].tolist()))
    members = np.argsort(labels, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=count))))
    first = members[starts[:-1]].tolist()    # smallest state index per component
    successors = [[] for _ in range(count)]
    blockers = [0] * count
    for i, j in edges:
        successors[i].append(j)
        blockers[j] += 1
    ready = [(first[c], c) for c in range(count) if blockers[c] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        _, c = heapq.heappop(ready)
        order.append(c)
        for j in successors[c]:
            blockers[j] -= 1
            if blockers[j] == 0:
                heapq.heappush(ready, (first[j], j))
    perm = np.concatenate([members[starts[c]:starts[c + 1]] for c in order])
    perm.setflags(write=False)
    ends = np.cumsum(np.diff(starts)[order]).tolist()
    return perm, tuple((s, e) for s, e in zip([0] + ends, ends) if e - s > 1)


def _split(t: np.ndarray) -> int:
    """Order of the leading diagonal block when ``t`` is halved, moved past
    a 2x2 block that the middle would cut."""
    k = t.shape[0] // 2
    return k + 1 if t[k, k - 1] != 0.0 else k


class ShiftedLyapunov:
    """Repeated solves of ``(A - s I) X + X (A - s I)^T + D = 0``.

    The real Schur form ``A = U T U^T`` is computed once, one strongly
    connected component at a time; every shift then reduces to a
    quasi-triangular solve in Schur coordinates, so a sweep over shifts
    costs one decomposition plus one cheap solve per shift.
    """

    def __init__(self, a: np.ndarray):
        a = _as_square(a)
        self.n = n = a.shape[0]
        if not np.all(np.isfinite(a)):
            raise EigenFailure("Schur decomposition failed: matrix has non-finite entries")
        perm, blocks = _block_order(np.packbits(a != 0).tobytes(), n)
        t = a[perm][:, perm]
        v = np.eye(n)
        for s, e in blocks:
            try:
                tb, ub = linalg.schur(t[s:e, s:e], output="real", check_finite=False)
            except linalg.LinAlgError as exc:
                raise EigenFailure(f"Schur decomposition failed: {exc}") from exc
            t[s:e, s:e] = tb
            t[:s, s:e] = t[:s, s:e] @ ub
            t[s:e, e:] = ub.T @ t[s:e, e:]
            v[s:e, s:e] = ub
        self.t = t
        # U = P blkdiag(U_i), with P the permutation matrix of perm
        self.u = np.empty_like(v)
        self.u[perm] = v
        self._trsyl, = linalg.get_lapack_funcs(("trsyl",), (self.t,))
        # LAPACK standardizes each 2x2 block of T to equal diagonal entries,
        # the real part of its complex pair
        self._alpha = float(np.diag(self.t).max())

    @property
    def abscissa(self) -> float:
        """Spectral abscissa of the factored matrix."""
        return self._alpha

    def to_schur(self, d: np.ndarray) -> np.ndarray:
        """Right-hand side ``R = -U^T D U`` of the equation driven by ``D``."""
        return -(self.u.T @ self._check(d, "right-hand side") @ self.u)

    def from_schur(self, y: np.ndarray) -> np.ndarray:
        """Solution ``X = U Y U^T`` in the original coordinates, symmetrized."""
        x = self.u @ self._check(y, "Schur-coordinate solution") @ self.u.T
        return 0.5 * (x + x.T)

    def _check(self, m: np.ndarray, what: str) -> np.ndarray:
        m = _as_square(m, what)
        if m.shape[0] != self.n:
            raise DimensionError(
                f"{what} is {m.shape[0]}x{m.shape[0]}, matrix is {self.n}x{self.n}"
            )
        return m

    def solve(self, rhs: np.ndarray, shift: float = 0.0, adjoint: bool = False) -> np.ndarray:
        """Solution ``Y`` of ``(T - s I) Y + Y (T - s I)^T = R`` in Schur
        coordinates; requires ``shift > abscissa`` and a symmetric ``R``.

        With ``adjoint=True`` the transposed equation
        ``(T - s I)^T Y + Y (T - s I) = R`` is solved instead, still on
        the cached factors.  :meth:`to_schur` and :meth:`from_schur` map a
        right-hand side ``D`` and the solution between coordinates.
        """
        rhs = self._check(rhs, "right-hand side")
        t = self.t.copy()
        t[np.diag_indices(self.n)] -= shift
        y = rhs.copy()
        # an overflow shows as a non-finite solution or norm and is raised
        # as SolveFailure below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            scale = self._recursive(t, y, adjoint)
            if not np.all(np.isfinite(y)):
                raise SolveFailure(
                    f"triangular Sylvester solve overflowed (scale={scale})"
                )
            y /= scale
            y = 0.5 * (y + y.T)
            # T Y + Y T^T = M + M^T with M = T Y, as Y is symmetric
            m = y @ t if adjoint else t @ y
            resid = np.linalg.norm(m + m.T - rhs)
            # backward-stable solves leave a residual of order eps (|R| + 2|T||Y|)
            size = np.linalg.norm(rhs) + 2.0 * np.linalg.norm(t) * np.linalg.norm(y)
        if not (math.isfinite(resid) and math.isfinite(size)):
            raise SolveFailure(
                f"Lyapunov residual overflowed for shift {shift}"
            )
        if resid > RESIDUAL_TOL * size:
            raise SolveFailure(
                f"Lyapunov residual {resid:.3e} exceeds tolerance for shift {shift}"
            )
        return y

    def _recursive(self, t: np.ndarray, c: np.ndarray, adjoint: bool) -> float:
        """Overwrite ``c`` with ``scale`` times the symmetric solution of the
        Lyapunov equation on the quasi-triangular ``t``; return ``scale``.

        Each sub-solve may solve for a scaled right-hand side to avoid
        overflow; every other block is then scaled alike, so all of ``c``
        carries the product of the scales.
        """
        n = t.shape[0]
        if n <= BASE:
            return self._sylvester(t, t, c, adjoint)
        k = _split(t)
        t11, t12, t22 = t[:k, :k], t[:k, k:], t[k:, k:]
        c11, c12, c22 = c[:k, :k], c[:k, k:], c[k:, k:]
        if adjoint:
            # T11^T Y11 + Y11 T11 = R11, then
            # T11^T Y12 + Y12 T22 = R12 - Y11 T12, then
            # T22^T Y22 + Y22 T22 = R22 - T12^T Y12 - Y12^T T12
            first, last = c11, c22
        else:
            # T22 Y22 + Y22 T22^T = R22, then
            # T11 Y12 + Y12 T22^T = R12 - T12 Y22, then
            # T11 Y11 + Y11 T11^T = R11 - T12 Y12^T - Y12 T12^T
            first, last = c22, c11
        scale = self._recursive(t11 if adjoint else t22, first, adjoint)
        if scale != 1.0:
            c12 *= scale
            last *= scale
        c12 -= first @ t12 if adjoint else t12 @ first
        s = self._sylvester(t11, t22, c12, adjoint)
        if s != 1.0:
            first *= s
            last *= s
            scale *= s
        m = t12.T @ c12 if adjoint else t12 @ c12.T
        last -= m
        last -= m.T
        s = self._recursive(t22 if adjoint else t11, last, adjoint)
        if s != 1.0:
            first *= s
            c12 *= s
            scale *= s
        c[k:, :k] = c12.T
        return scale

    def _sylvester(self, a: np.ndarray, b: np.ndarray, c: np.ndarray,
                   adjoint: bool) -> float:
        """Overwrite ``c`` with ``scale`` times the solution of
        ``A Y + Y B^T = C`` (``A^T Y + Y B = C`` for the adjoint), for
        quasi-triangular ``A`` and ``B``; return ``scale``."""
        if adjoint:
            y, scale, info = self._trsyl(a, b, c, trana="C")
        else:
            y, scale, info = self._trsyl(a, b, c, tranb="C")
        # info == 1: the shifted spectrum nearly meets its mirror image and
        # trsyl perturbed it to finish, so y solves a different equation
        if info != 0 or scale == 0.0:
            raise SolveFailure(
                f"triangular Sylvester solve broke down (info={info}, scale={scale})"
            )
        c[...] = y
        return scale


def solve_lyapunov(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve ``A X + X A^T + D = 0`` for Hurwitz ``A``."""
    solver = ShiftedLyapunov(a)
    if solver.abscissa >= 0.0:
        raise UnstableMatrix(
            f"matrix has spectral abscissa {solver.abscissa:.6g} >= 0"
        )
    return solver.from_schur(solver.solve(solver.to_schur(d)))


def gramian(a: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Reachability-type Gramian of the pair ``(A, x0)``: the solution of
    ``A W + W A^T + x0 x0^T = 0``."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    return solve_lyapunov(a, np.outer(x0, x0))


def congestion_cost(a: np.ndarray, output: np.ndarray, x0: np.ndarray) -> float:
    """Integrated squared stop-line occupancy from ``x0``.

    Returns ``+inf`` when the system is not asymptotically stable, so the
    value is always defined and comparisons just work.
    """
    a, output, x0 = validate_triple(a, output, x0)
    # one Schur factorization serves the stability test and the solve, which
    # stays in Schur coordinates: W = U Y U^T, so trace(C W C^T) = <(CU) Y, CU>
    solver = ShiftedLyapunov(a)
    if solver.abscissa >= 0.0:
        return math.inf
    z = solver.u.T @ x0
    cu = output @ solver.u
    value = float(np.vdot(cu @ solver.solve(-np.outer(z, z)), cu))
    return max(value, 0.0)
