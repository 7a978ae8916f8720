"""Distributed solution of the network Lyapunov equation.

The stable matrix is split row-wise over agents, ``L = L_1 + ... + L_nu``.
Writing the equation ``L X + X L^T + D = 0`` per share introduces one
unknown share ``D_i = -(L_i X + X L_i^T)`` per agent, tied together by
``sum(D_i) = D``.  Stacking the vectorized unknowns
``w = [X^v, D_1^v, ..., D_nu^v]`` gives each agent a local underdetermined
system whose solution set contains the global solution.

Agents keep an affine description of their solution set: a particular
solution ``w_hat_i`` (minimum norm) and an orthonormal kernel basis
``K_i``, in the method family of Mou, Liu & Morse, "A distributed
algorithm for solving a linear algebraic equation", IEEE TAC 60(11), 2015.
Both are built in closed form, without forming the dense local system:
the kernel is spanned by a free ``X`` with ``D_i = -Lambda_i X`` and a
balancing share ``D_k = +Lambda_i X``, and by a free ``D_j`` per other
agent balanced by ``D_k = -D_j``; one QR factorization orthonormalizes
it, and ``D_k = D`` minus its kernel component is the particular
solution.  A lone agent solves the Kronecker-sum system directly.

A pairwise exchange moves ``w_hat_i`` into the intersection of the two
affine sets and intersects the kernels, with one thin SVD of the part of
the neighbor's kernel outside the agent's own.  After as many synchronous
rounds as the communication graph's diameter every kernel has collapsed
and all agents hold the unique global solution exactly.  Agents exchange
only ``(w_hat, K)``; the centralized solution appears below purely as
instrumentation for error traces.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg
from scipy.sparse import csgraph

from .errors import (DimensionError, InconsistentLocal, NotConverged,
                     ValidationError)
from .lyapunov import solve_lyapunov

#: relative singular-value cutoff for rank decisions
RANK_TOL = 1e-10


@dataclass(frozen=True)
class CommGraph:
    """Undirected communication topology over agents ``0 .. n_agents - 1``."""

    n_agents: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise ValidationError("a communication graph needs at least one agent")
        for i, j in self.edges:
            if not (0 <= i < self.n_agents and 0 <= j < self.n_agents) or i == j:
                raise ValidationError(f"edge ({i}, {j}) is not between distinct agents")

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
        touching = {j for i, j in self.edges if i == agent}
        touching.update(i for i, j in self.edges if j == agent)
        return tuple(sorted(touching))

    @property
    def is_connected(self) -> bool:
        return self.diameter is not None

    @property
    def diameter(self) -> int | None:
        """Longest shortest hop count; ``None`` when the graph is disconnected."""
        links = np.zeros((self.n_agents, self.n_agents))
        for i, j in self.edges:
            links[i, j] = 1.0
        hops = csgraph.shortest_path(links, directed=False, unweighted=True)
        return None if np.isinf(hops).any() else int(hops.max())


def partition_rows(a: np.ndarray, assignment: np.ndarray, n_agents: int) -> list[np.ndarray]:
    """Split a matrix into per-agent row shares that sum back to it."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"matrix must be square, got {a.shape}")
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
    """One participant: an affine solution set and its pairwise refinement."""

    def __init__(self, agent_id: int, share: np.ndarray, rhs: np.ndarray,
                 n_agents: int):
        self.id = agent_id
        n = share.shape[0]
        self.n = n
        self.n_agents = n_agents
        self.share = share
        self.rhs = rhs
        nn = n * n
        lam = np.kron(np.eye(n), share) + np.kron(share, np.eye(n))
        d = rhs.reshape(-1, order="F")

        if n_agents == 1:
            # no share to balance: D_1 = D and X solves the whole equation
            x = np.linalg.lstsq(lam, -d, rcond=None)[0]
            self.w_hat = np.concatenate([x, d])
            free = linalg.null_space(lam, rcond=RANK_TOL)
            self.kernel = np.vstack([free, np.zeros((nn, free.shape[1]))])
        else:
            # kernel: a free X with D_i = -lam X and D_k = +lam X, and a free
            # D_j per other agent j with D_k = -D_j
            k = 1 if agent_id == 0 else 0
            basis = np.zeros(((n_agents + 1) * nn, (n_agents - 1) * nn))
            basis[:nn, :nn] = np.eye(nn)
            basis[self._rows(agent_id), :nn] = -lam
            basis[self._rows(k), :nn] = lam
            others = [j for j in range(n_agents) if j not in (agent_id, k)]
            for col, j in enumerate(others, start=1):
                cols = slice(col * nn, (col + 1) * nn)
                basis[self._rows(j), cols] = np.eye(nn)
                basis[self._rows(k), cols] = -np.eye(nn)
            self.kernel = np.linalg.qr(basis)[0]
            # D_k = D solves the local system; removing its kernel component
            # leaves the minimum-norm solution
            w_p = np.zeros(basis.shape[0])
            w_p[self._rows(k)] = d
            self.w_hat = w_p - self.kernel @ (self.kernel.T @ w_p)

        gap = self.local_residual()
        if gap > 1e-8 * (1.0 + np.linalg.norm(d)):
            raise InconsistentLocal(
                f"agent {agent_id}: local system residual {gap:.3e}"
            )

    def _rows(self, agent: int) -> slice:
        """Entries of ``w`` that hold ``D_agent``."""
        nn = self.n * self.n
        return slice((1 + agent) * nn, (2 + agent) * nn)

    @property
    def kernel_dim(self) -> int:
        return self.kernel.shape[1]

    def local_residual(self) -> float:
        """Residual of ``S_i X + X S_i^T + D_i = 0`` and ``sum(D_j) = D``."""
        x = self.solution()
        own = self.share @ x + x @ self.share.T + self.own_share()
        nn = self.n * self.n
        total = self.w_hat[nn:].reshape(self.n_agents, nn).sum(axis=0)
        balance = total.reshape((self.n, self.n), order="F") - self.rhs
        return float(np.hypot(np.linalg.norm(own), np.linalg.norm(balance)))

    def fold(self, other_w: np.ndarray, other_kernel: np.ndarray) -> None:
        """Refine against one neighbor's (w_hat, K) message.

        Moves ``w_hat`` into the intersection of the two affine sets (least
        squares, should they miss) and keeps the kernels' common span.
        Attributes are rebound, never written in place, so a message may
        share arrays with its sender.
        """
        k_i, k_j = self.kernel, other_kernel
        if k_i.shape[1] == 0:
            return
        delta = other_w - self.w_hat
        # the part of the neighbor's kernel outside ours; its singular values
        # are the sines of the principal angles between the two kernels
        outside = k_j - k_i @ (k_i.T @ k_j)
        u, sines, vt = np.linalg.svd(outside, full_matrices=False)
        r = int(np.count_nonzero(sines > RANK_TOL))
        c_j = vt[:r].T @ ((u[:, :r].T @ (delta - k_i @ (k_i.T @ delta))) / sines[:r])
        step = delta - k_j @ c_j
        self.w_hat = self.w_hat + k_i @ (k_i.T @ step)
        self.kernel = k_j @ vt[r:].T

    def solution(self) -> np.ndarray:
        """Current estimate of the Lyapunov solution block."""
        nn = self.n * self.n
        return self.w_hat[:nn].reshape((self.n, self.n), order="F")

    def own_share(self) -> np.ndarray:
        """Current estimate of this agent's right-hand-side share."""
        return self.w_hat[self._rows(self.id)].reshape((self.n, self.n), order="F")


def synchronous_round(agents: list[Agent], graph: CommGraph) -> None:
    """One message round: everyone folds every neighbor's broadcast.

    All messages carry start-of-round values, so the outcome does not
    depend on the order in which agents physically execute.  A fold
    rebinds ``w_hat`` and ``kernel`` instead of writing into them, so the
    messages need no copies.
    """
    messages = [(agent.w_hat, agent.kernel) for agent in agents]
    for agent in agents:
        for j in graph.neighbors(agent.id):
            agent.fold(*messages[j])


def planned_bytes(n: int, n_agents: int) -> int:
    """Memory a distributed solve holds at its peak, from shapes alone.

    Every agent keeps a ``(nu+1) n^2 x (nu-1) n^2`` kernel; building one
    (basis, QR workspace and factor) or folding one (projected neighbor
    kernel, SVD workspace and left singular vectors) adds three more of
    that size, plus a few ``n^2 x n^2`` and ``(nu-1) n^2`` square
    temporaries.
    """
    nn = n * n
    rank = max(n_agents - 1, 1) * nn
    kernel = (n_agents + 1) * nn * rank
    return 8 * ((n_agents + 3) * kernel + 6 * rank * rank + 4 * nn * nn)


@dataclass
class DistributedResult:
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
    not Hurwitz fails the centralized solve with :class:`UnstableMatrix`.
    A layout whose agents would hold more than half of physical memory
    (:func:`planned_bytes`) is refused with :class:`ValidationError`
    before any agent is built.
    """
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    if a.shape != d.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(
            f"matrix {a.shape} and right-hand side {d.shape} must be equal square shapes"
        )
    n = a.shape[0]
    nu = graph.n_agents
    if assignment is None:
        assignment = default_assignment(n, nu)
    shares = partition_rows(a, assignment, nu)
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    planned = planned_bytes(n, nu)
    if planned > physical / 2:
        raise ValidationError(
            f"{nu} agents on a {n}-state system would hold about "
            f"{planned / 2**30:.1f} GiB, over half of the "
            f"{physical / 2**30:.1f} GiB of physical memory"
        )

    reference = solve_lyapunov(a, d)
    ref_norm = np.linalg.norm(reference)

    agents = [Agent(i, shares[i], d, nu) for i in range(nu)]

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

    result = DistributedResult(
        solutions=[agent.solution() for agent in agents],
        shares=[agent.own_share() for agent in agents],
        rounds=rounds,
        converged=converged,
        errors=np.vstack(errors),
        kernel_dims=np.vstack(kernel_dims),
        reference=reference,
        symmetry_gaps=[
            float(np.linalg.norm(agent.solution() - agent.solution().T)
                  / max(np.linalg.norm(agent.solution()), 1e-300))
            for agent in agents
        ],
    )
    if not converged:
        worst = ", ".join(
            f"agent {i}: {e:.2e}" for i, e in enumerate(result.errors[-1])
        )
        raise NotConverged(
            f"agents disagree after {rounds} rounds ({worst})"
        )
    return result
