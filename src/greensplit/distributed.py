"""Distributed solution of the network Lyapunov equation.

The stable matrix is split row-wise over agents, ``A = S_1 + ... + S_nu``:
agent ``j`` owns the rows ``rows_j`` and holds them as the dense row block
``R_j = A[rows_j]``.  Writing the equation ``A X + X A^T + D = 0`` per
share introduces one unknown share ``D_j = -(S_j X + X S_j^T)`` per agent,
tied together by ``sum(D_j) = D``.  Over the stacked vectorized unknowns
``w = [X^v, D_1^v, ..., D_nu^v]`` agent ``j``'s block of constraints is
``Lambda_j X^v + D_j^v = 0``, with the Kronecker sum
``Lambda_j = I (x) S_j + S_j (x) I``, and every agent knows the balance
row ``sum(D_j) = D``.

Each agent's affine solution set is the set of points that satisfy the
blocks it knows and the balance row, in the method family of Mou, Liu &
Morse, "A distributed algorithm for solving a linear algebraic
equation", IEEE TAC 60(11), 2015.  An agent starts out knowing its own
row share; knowing the set ``K`` of ``k`` of the ``nu`` shares leaves a
kernel of dimension ``m n^2`` with ``m = nu - k``.  Its estimate
``w_hat`` is the minimum-norm point of the set, which is where the
pairwise projections of that method land.  The point is found in closed
form.  The known shares are ``D_j = -Lambda_j X^v``; the ``m`` missing
ones are free but for their sum ``D + Lambda_K X^v``, with
``Lambda_K = sum_K Lambda_j``, so at the minimum they are equal.  All of
``w_hat`` thus follows from ``X`` and the known row blocks, and an agent
stores only those two: the shares and ``w_hat`` are derived when read.
What is left is one symmetric positive definite ``n^2 x n^2`` system

    G X^v = -Lambda_K^T D^v / m,
    G = I + sum_K Lambda_j^T Lambda_j + Lambda_K^T Lambda_K / m,

solved by conjugate gradients (Hestenes & Stiefel, J. Res. NBS 49(6),
1952) on products with ``G`` alone, which is never formed.  ``D`` is
symmetric and every ``Lambda_j`` and its transpose map symmetric matrices
to symmetric ones, so every iterate is a symmetric ``X``; then
``Lambda_j X = M + M^T`` with ``M = S_j X``, which is ``R_j X`` in the rows
``rows_j``, and ``Lambda_j^T Y = N + N^T`` with ``N = S_j^T Y =
R_j^T Y[rows_j]``.  One product costs ``O(r_K n^2)`` in matrix products
for the ``r_K`` known rows (:meth:`Agent._gram`).

Every eigenvalue of ``G`` is at least 1, and
``sum_K |Lambda_j X|^2 <= 4 |S_K|_2^2 |X|^2`` for the known rows
``S_K = sum_K S_j``, so

    cond(G) <= 1 + |sum_K Lambda_j^T Lambda_j + Lambda_K^T Lambda_K / m|_2
            <= 1 + 4 (1 + 1/m) |S_K|_1 |S_K|_inf,

about 10 on the bundled scenarios.  Conjugate gradients start at 0 and
stop once the residual is :data:`CG_TOL` of ``|b|``; the iteration cap
(:func:`_iteration_cap`) is what the classical bound on their convergence
needs at that condition number.  The true residual is computed again at
the end, and a cap that runs out or a true residual over the tolerance is
a :class:`SolveFailure`, never an estimate.  Once every share is known the
set is one point, ``X`` solves the Lyapunov equation of
``A = sum_j S_j``, and the Bartels-Stewart solver of
:mod:`greensplit.lyapunov` gives it in ``O(n^3)``.

A message carries the row blocks its sender knows and a fold takes the
union, so after as many synchronous rounds as the communication graph's
diameter every agent knows every share and holds the unique global
solution.  The centralized solution appears below purely as
instrumentation for error traces.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
# nothing here calls ``linalg``; it and ``np`` stay module attributes because
# perfbench/tracing.py resolves ``linalg.null_space`` and ``np.linalg.lstsq``
# through this module
from scipy import linalg  # noqa: F401

from .errors import (DimensionError, InconsistentLocal, NotConverged,
                     SolveFailure, ValidationError, check_memory)
from .lyapunov import _as_square, solve_lyapunov

#: relative residual ``|b - G x| / |b|`` at which conjugate gradients stop
CG_TOL = 1e-13


def _iteration_cap(cond: float) -> int:
    """Conjugate-gradient iterations that reach :data:`CG_TOL` on a system
    whose condition number is at most ``cond``.

    After ``k`` iterations the ``G``-norm of the error has fallen by at
    least ``2 q^k`` with ``q = (c - 1) / (c + 1) <= exp(-2 / (c + 1))`` and
    ``c = sqrt(cond)``, so the residual by at least ``2 c q^k``.
    """
    c = math.sqrt(cond)
    return math.ceil(0.5 * (c + 1.0) * math.log(2.0 * c / CG_TOL))


def _conjugate_gradients(gram, b: np.ndarray, cap: int) -> tuple[np.ndarray, int]:
    """Solution of ``G x = b`` for a symmetric positive definite ``G``
    given by its product ``gram``, and the iterations it took.

    Starts at 0 and stops once the residual is :data:`CG_TOL` of ``|b|``.
    Running out of ``cap`` iterations, or a true residual ``b - G x`` over
    the tolerance at the end, is a :class:`SolveFailure`.
    """
    goal = CG_TOL * np.linalg.norm(b)
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = np.vdot(r, r)
    iterations = 0
    while math.sqrt(rr) > goal:
        if iterations == cap:
            raise SolveFailure(
                f"conjugate gradients left a relative residual of "
                f"{math.sqrt(rr) / np.linalg.norm(b):.3e} after {cap} iterations")
        q = gram(p)
        step = rr / np.vdot(p, q)
        x += step * p
        r -= step * q
        rr, previous = np.vdot(r, r), rr
        p *= rr / previous
        p += r
        iterations += 1
    resid = np.linalg.norm(b - gram(x))
    if not resid <= goal:
        raise SolveFailure(
            f"conjugate gradients stopped with a true relative residual of "
            f"{resid / np.linalg.norm(b):.3e}, over {CG_TOL:g}")
    return x, iterations


@dataclass(frozen=True)
class CommGraph:
    """Undirected communication topology over agents ``0 .. n_agents - 1``."""

    n_agents: int
    edges: tuple[tuple[int, int], ...]
    #: each agent's neighbours in increasing order, built once from ``edges``
    _links: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise ValidationError("a communication graph needs at least one agent")
        links: list[list[int]] = [[] for _ in range(self.n_agents)]
        for i, j in self.edges:
            if not (0 <= i < self.n_agents and 0 <= j < self.n_agents) or i == j:
                raise ValidationError(f"edge ({i}, {j}) is not between distinct agents")
            links[i].append(j)
            links[j].append(i)
        object.__setattr__(self, "_links", tuple(tuple(sorted(set(k))) for k in links))

    @classmethod
    def from_edges(cls, n_agents: int, edges) -> "CommGraph":
        canon = sorted({(min(i, j), max(i, j)) for i, j in edges})
        return cls(n_agents, tuple(canon))

    @classmethod
    def path(cls, n_agents: int) -> "CommGraph":
        return cls.from_edges(n_agents, [(k, k + 1) for k in range(n_agents - 1)])

    @classmethod
    def complete(cls, n_agents: int) -> "CommGraph":
        return cls.from_edges(
            n_agents,
            [(i, j) for i in range(n_agents) for j in range(i + 1, n_agents)],
        )

    @classmethod
    def grid(cls, rows: int, cols: int) -> "CommGraph":
        if rows < 1 or cols < 1:
            raise ValidationError(f"a grid of agents needs positive sizes, got {rows}x{cols}")
        edges = []
        for i in range(rows):
            for j in range(cols):
                k = i * cols + j
                if j + 1 < cols:
                    edges.append((k, k + 1))
                if i + 1 < rows:
                    edges.append((k, k + cols))
        return cls.from_edges(rows * cols, edges)

    def neighbors(self, agent: int) -> tuple[int, ...]:
        return self._links[agent]

    @property
    def diameter(self) -> int | None:
        """Longest shortest hop count; ``None`` when the graph is disconnected.
        One breadth-first search from every agent."""
        widest = 0
        for start in range(self.n_agents):
            hops = [-1] * self.n_agents
            hops[start] = 0
            frontier = [start]
            while frontier:
                reached = []
                for i in frontier:
                    for j in self._links[i]:
                        if hops[j] < 0:
                            hops[j] = hops[i] + 1
                            reached.append(j)
                frontier = reached
            if min(hops) < 0:
                return None
            widest = max(widest, max(hops))
        return widest


def partition_rows(a: np.ndarray, assignment: np.ndarray, n_agents: int) -> list[np.ndarray]:
    """Split a matrix into per-agent row shares that sum back to it."""
    a = _as_square(a)
    assignment = np.asarray(assignment, dtype=int).reshape(-1)
    if assignment.shape[0] != a.shape[0]:
        raise DimensionError("one owning agent is required per matrix row")
    if assignment.min(initial=0) < 0 or assignment.max(initial=0) >= n_agents:
        raise ValidationError(f"row owners must lie in 0..{n_agents - 1}")
    shares = []
    for i in range(n_agents):
        share = np.zeros_like(a)
        rows = assignment == i
        share[rows, :] = a[rows, :]
        shares.append(share)
    return shares


def default_assignment(n: int, n_agents: int) -> np.ndarray:
    """Contiguous balanced row blocks."""
    owners = np.empty(n, dtype=int)
    for i, block in enumerate(np.array_split(np.arange(n), n_agents)):
        owners[block] = i
    return owners


class Agent:
    """One participant.  Its state is the row blocks of the shares it knows
    and the ``X`` of the minimum-norm point of their constraints, solved on
    first read and cleared by a fold that brings a new share.  The share
    estimates ``D_j`` and the stacked ``w_hat`` are derived from the two
    when read."""

    def __init__(self, agent_id: int, share: np.ndarray, rhs: np.ndarray,
                 n_agents: int):
        self.id = agent_id
        self.n = share.shape[0]
        self.n_agents = n_agents
        self.rhs = rhs
        rows = np.flatnonzero(share.any(axis=1))
        #: row block ``(rows_j, R_j)``, with ``R_j = A[rows_j]``, of every
        #: agent ``j`` this agent has heard of
        self.blocks = {agent_id: (rows, share[rows])}
        self._x = None

        gap = self.local_residual()
        if gap > 1e-8 * (1.0 + np.linalg.norm(rhs)):
            raise InconsistentLocal(f"agent {agent_id}: local system residual {gap:.3e}")

    @property
    def kernel_dim(self) -> int:
        return (self.n_agents - len(self.blocks)) * self.n * self.n

    def _gram(self, rows: np.ndarray, known: np.ndarray, owner: np.ndarray,
              missing: int):
        """Product ``X -> G X`` for symmetric ``X``, from the known rows
        ``rows`` of ``A``, ``known = A[rows]``, and the agent ``owner``
        of each.

        ``Lambda_j^T Lambda_j X = N_j + N_j^T`` with ``N_j = S_j^T S_j X +
        S_j^T X S_j^T``.  With ``M = known X`` and ``Q = M[:, rows]``, the
        first terms sum to ``known^T M`` over ``K``, and the second ones
        to ``known^T Q_same^T`` in the columns ``rows``, where ``Q_same``
        keeps the entries of ``Q`` between rows of one owner.  For
        ``Lambda_K`` the same holds with the whole ``Q``, so
        ``G X = X + N + N^T`` with ``N = (1 + 1/m) known^T M`` plus
        ``known^T (Q_same + Q / m)^T`` in the columns ``rows``.
        """
        same = owner[:, None] == owner[None, :]
        weight = 1.0 + 1.0 / missing

        def gram(x: np.ndarray) -> np.ndarray:
            m = known @ x
            q = m[:, rows]
            half = weight * (known.T @ m)
            half[:, rows] += known.T @ (np.where(same, q, 0.0) + q / missing).T
            return x + half + half.T
        return gram

    def solution(self) -> np.ndarray:
        """``X`` of the minimum-norm point of the known constraints, solved
        on first read.  Once every share is known it solves the Lyapunov
        equation of ``A = sum_j S_j``."""
        if self._x is None:
            missing = self.n_agents - len(self.blocks)
            known = sorted(self.blocks.items())
            rows = np.concatenate([rows_j for _, (rows_j, _) in known])
            if np.unique(rows).shape[0] < rows.shape[0]:
                raise ValidationError(
                    f"agent {self.id}: the row shares it knows overlap; each row of "
                    "the matrix belongs to one agent")
            block = np.concatenate([r_j for _, (_, r_j) in known])
            if missing:
                owner = np.repeat(np.arange(len(known)),
                                  [rows_j.shape[0] for _, (rows_j, _) in known])
                half = block.T @ self.rhs[rows]
                b = -(half + half.T) / missing
                cond = 1.0 + 4.0 * (1.0 + 1.0 / missing) * (
                    np.abs(block).sum(axis=0).max(initial=0.0)
                    * np.abs(block).sum(axis=1).max(initial=0.0))
                x, _ = _conjugate_gradients(self._gram(rows, block, owner, missing),
                                            b, _iteration_cap(cond))
            else:
                a = np.zeros((self.n, self.n))
                a[rows] = block
                x = solve_lyapunov(a, self.rhs)
            self._x = np.asfortranarray(x)
        return self._x

    def _lambda(self, agents) -> np.ndarray:
        """``sum_j (S_j X + X S_j^T)`` over known ``agents`` ``j``: ``P + P^T``
        with the rows ``R_j X`` of ``P`` in ``rows_j``."""
        x = self.solution()
        p = np.zeros((self.n, self.n))
        for j in agents:
            rows, block = self.blocks[j]
            p[rows] = block @ x
        return p + p.T

    def share(self, j: int) -> np.ndarray:
        """Current estimate of ``D_j``: ``-(S_j X + X S_j^T)`` for a known
        share, and for a missing one an equal part of what the known ones
        leave of ``D``."""
        if j in self.blocks:
            return -self._lambda([j])
        return (self.rhs + self._lambda(self.blocks)) / (self.n_agents - len(self.blocks))

    @property
    def w_hat(self) -> np.ndarray:
        """The stacked estimate ``[X, D_1, ..., D_nu]``, each block
        vectorized column by column, assembled on every read."""
        missing = [j for j in range(self.n_agents) if j not in self.blocks]
        rest = self.share(missing[0]) if missing else None
        blocks = [self.solution()] + [self.share(j) if j in self.blocks else rest
                                      for j in range(self.n_agents)]
        return np.concatenate([block.reshape(-1, order="F") for block in blocks])

    def local_residual(self) -> float:
        """Residual of ``S_i X + X S_i^T + D_i = 0`` and of the balance
        ``sum(D_j) = D``; for a complete agent the balance is the residual
        of the Lyapunov equation."""
        own = self._lambda([self.id]) + self.share(self.id)
        total = -self._lambda(self.blocks)      # the known D_j
        missing = self.n_agents - len(self.blocks)
        if missing:
            total += missing * ((self.rhs - total) / missing)
        balance = total - self.rhs
        return float(np.hypot(np.linalg.norm(own), np.linalg.norm(balance)))

    def fold(self, blocks: dict[int, tuple[np.ndarray, np.ndarray]]) -> None:
        """Take the union with one neighbor's known row blocks.

        ``X`` is solved again on its next read, and only when the neighbor
        knew a share this agent did not.  ``blocks`` is rebound, never
        written in place, so a message may share it with its sender.
        """
        if not blocks.keys() <= self.blocks.keys():
            self.blocks = {**self.blocks, **blocks}
            self._x = None


def synchronous_round(agents: list[Agent], graph: CommGraph) -> None:
    """One message round: everyone folds every neighbor's known shares.

    All messages carry start-of-round values, so the outcome does not
    depend on the order in which agents physically execute.  A fold
    rebinds ``blocks`` instead of writing into it, so the messages need
    no copies.
    """
    messages = [agent.blocks for agent in agents]
    for agent in agents:
        for j in graph.neighbors(agent.id):
            agent.fold(messages[j])


def planned_bytes(n: int, n_agents: int) -> int:
    """Memory a distributed solve on ``n`` states holds at its peak, from
    the sizes alone.

    Held throughout are every agent's ``X``, ``n^2`` doubles, and the row
    blocks that the agents pass around, one copy of each, ``n^2`` doubles
    in all, with the centralized reference solution.  While the agents are
    built, the dense row shares add ``n^2`` doubles per agent, and at the
    end so do the shares in the result.  Agents solve one at a time: the
    stacked known rows with the conjugate-gradient vectors and the
    temporaries of one product with ``G``, or the arrays of a complete
    agent's Bartels-Stewart solve; 24 arrays of ``n^2`` doubles cover
    either.  That makes ``8 n^2 (2 nu + 26)`` bytes.

    On systems of a few states the Python objects outweigh those arrays,
    so the plan adds terms free of ``n``: 2 KiB per agent for the agent,
    its array headers and row indices and its entries in the error
    traces; 128 bytes per agent and row block it comes to know, ``nu^2``
    in all, for its dictionary of known blocks with the one a round's
    message still holds; and 12 KiB for the run's own objects.
    ``single_road`` (4 states) peaks at 13 KB on one agent, 115 KB on 36
    and 3.6 MB on 196, traced with ``tracemalloc``.
    """
    return 8 * n * n * (2 * n_agents + 26) + 2048 * (n_agents + 6) + 128 * n_agents**2


@dataclass
class DistributedResult:
    """Outcome of :func:`run_distributed`.

    ``errors[r, i]`` is agent ``i``'s relative Frobenius error in ``X``
    after round ``r``.  It is not monotone in the rounds in general: a fold
    can only shrink the distance of the agent's whole estimate
    ``[X, D_1, ..., D_nu]`` to the solution, not that of ``X`` alone.  With
    nine agents on a 3x3 grid and a 4-state matrix, one agent's ``X`` error
    goes from 1.000000 to 1.000109 in its second round.
    """

    solutions: list[np.ndarray]
    shares: list[np.ndarray]
    rounds: int
    converged: bool
    errors: np.ndarray          # (rounds + 1, n_agents) relative error trace
    kernel_dims: np.ndarray     # (rounds + 1, n_agents)
    reference: np.ndarray       # centralized solution used for the trace
    symmetry_gaps: list[float] = field(default_factory=list)


def run_distributed(a: np.ndarray, d: np.ndarray, graph: CommGraph,
                    assignment: np.ndarray | None = None, *,
                    tol: float = 1e-6, max_rounds: int | None = None) -> DistributedResult:
    """Solve ``A X + X A^T + D = 0`` cooperatively over a topology.

    Convergence means every agent's solution block is within ``tol``
    (relative Frobenius) of the centralized solution; with a connected
    graph this happens after at most ``diameter`` rounds.  A disconnected
    graph cannot agree and ends in :class:`NotConverged`; a matrix that is
    not Hurwitz fails the centralized solve with :class:`UnstableMatrix`,
    and a ``D`` that is not finite and symmetric fails it with
    :class:`ValidationError`.  A layout whose agents would hold more than
    half of physical memory (:func:`planned_bytes`) is refused with
    :class:`ValidationError` before any agent is built.
    """
    a = _as_square(a)
    d = np.asarray(d, dtype=float)
    if d.shape != a.shape:
        raise DimensionError(f"right-hand side {d.shape} does not match matrix {a.shape}")
    if max_rounds is not None and not (isinstance(max_rounds, numbers.Integral)
                                       and max_rounds >= 0):
        raise ValidationError(
            f"the round budget must be a nonnegative integer, got {max_rounds!r}")
    n = a.shape[0]
    nu = graph.n_agents
    if assignment is None:
        assignment = default_assignment(n, nu)
    check_memory(planned_bytes(n, nu), f"{nu} agents on a {n}-state system")
    reference = solve_lyapunov(a, d)
    ref_norm = np.linalg.norm(reference)

    # the dense shares live only while the agents are built
    agents = [Agent(i, share, d, nu)
              for i, share in enumerate(partition_rows(a, assignment, nu))]

    def snapshot_errors() -> np.ndarray:
        return np.array([
            np.linalg.norm(agent.solution() - reference) / max(ref_norm, 1e-300)
            for agent in agents
        ])

    if max_rounds is None:
        diam = graph.diameter
        max_rounds = 2 * (diam if diam is not None else nu) + 2

    errors = [snapshot_errors()]
    kernel_dims = [np.array([agent.kernel_dim for agent in agents])]
    rounds = 0
    converged = bool(np.all(errors[-1] <= tol))
    while not converged and rounds < max_rounds:
        synchronous_round(agents, graph)
        rounds += 1
        errors.append(snapshot_errors())
        kernel_dims.append(np.array([agent.kernel_dim for agent in agents]))
        converged = bool(np.all(errors[-1] <= tol))

    solutions = [agent.solution() for agent in agents]
    result = DistributedResult(
        solutions=solutions,
        shares=[agent.share(agent.id) for agent in agents],
        rounds=rounds,
        converged=converged,
        errors=np.vstack(errors),
        kernel_dims=np.vstack(kernel_dims),
        reference=reference,
        symmetry_gaps=[float(np.linalg.norm(x - x.T) / max(np.linalg.norm(x), 1e-300))
                       for x in solutions],
    )
    if not converged:
        worst = ", ".join(f"agent {i}: {e:.2e}" for i, e in enumerate(result.errors[-1]))
        raise NotConverged(f"agents disagree after {rounds} rounds ({worst})")
    return result
