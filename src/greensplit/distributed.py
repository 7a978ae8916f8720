"""Distributed solution of the network Lyapunov equation.

The stable matrix is split row-wise over agents, ``L = L_1 + ... + L_nu``.
Writing the equation ``L X + X L^T + D = 0`` per share introduces one
unknown share ``D_i = -(L_i X + X L_i^T)`` per agent, tied together by
``sum(D_i) = D``.  Over the stacked vectorized unknowns
``w = [X^v, D_1^v, ..., D_nu^v]`` agent ``j``'s block of constraints is
``Lambda_j X^v + D_j^v = 0``, with the sparse Kronecker sum
``Lambda_j = I (x) L_j + L_j (x) I``, and every agent knows the balance
row ``sum(D_j) = D``.

Each agent's affine solution set is the set of points that satisfy the
blocks it knows and the balance row, in the method family of Mou, Liu &
Morse, "A distributed algorithm for solving a linear algebraic
equation", IEEE TAC 60(11), 2015.  An agent starts out knowing its own
block; knowing ``k`` of the ``nu`` blocks leaves a kernel of dimension
``(nu - k) n^2``.  Its estimate ``w_hat`` is the minimum-norm point of
the set, which is where the pairwise projections of that method land.
While blocks are missing it comes from one sparse LU of the augmented
system ``[[I, H^T], [H, 0]]`` of the known rows ``H w = z``, which avoids
squaring the condition number as the normal equations would; once all
blocks are known the set is one point, and one sparse LU of
``Lambda X^v = -D^v`` gives it.

A message carries the blocks its sender knows and a fold takes the
union, so after as many synchronous rounds as the communication graph's
diameter every agent knows every block and holds the unique global
solution exactly.  The centralized solution appears below purely as
instrumentation for error traces.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
# ``linalg`` stays a module attribute: perfbench/tracing.py wraps
# ``linalg.null_space`` by its path in this module
from scipy import linalg, sparse  # noqa: F401
from scipy.sparse import csgraph
from scipy.sparse.linalg import splu

from .errors import (DimensionError, InconsistentLocal, NotConverged,
                     ValidationError)
from .lyapunov import solve_lyapunov

#: LU entries per ``n^4`` allowed beyond four per system nonzero; see
#: :func:`planned_bytes`
FILL = 0.06


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
    """One participant: the constraint blocks it knows and their minimum-norm point."""

    def __init__(self, agent_id: int, share: np.ndarray, rhs: np.ndarray,
                 n_agents: int):
        self.id = agent_id
        n = share.shape[0]
        self.n = n
        self.n_agents = n_agents
        self.share = share
        self.rhs = rhs
        s = sparse.csr_matrix(share)
        eye = sparse.identity(n, format="csr")
        #: ``Lambda_j`` of every agent ``j`` whose block this agent knows
        self.blocks = {agent_id: (sparse.kron(eye, s) + sparse.kron(s, eye)).tocsr()}
        self._w_hat = None

        gap = self.local_residual()
        if gap > 1e-8 * (1.0 + np.linalg.norm(rhs)):
            raise InconsistentLocal(
                f"agent {agent_id}: local system residual {gap:.3e}"
            )

    def _rows(self, agent: int) -> slice:
        """Entries of ``w`` that hold ``D_agent``."""
        nn = self.n * self.n
        return slice((1 + agent) * nn, (2 + agent) * nn)

    @property
    def kernel_dim(self) -> int:
        return (self.n_agents - len(self.blocks)) * self.n * self.n

    def system(self) -> tuple[sparse.csc_matrix, np.ndarray]:
        """The sparse square system that ``w_hat`` is read from.

        While blocks are missing, the augmented system ``[[I, H^T], [H, 0]]``
        of the known rows ``H w = z``: the leading part of its solution is
        the minimum-norm point.  Once every block is known the point is
        unique and the system is ``Lambda X^v = -D^v``.
        """
        nn = self.n * self.n
        nu = self.n_agents
        d = self.rhs.reshape(-1, order="F")
        known = sorted(self.blocks)
        if len(known) == nu:
            return sum(self.blocks[j] for j in known).tocsc(), -d
        eye = sparse.identity(nn, format="csr")
        rows = []
        for j in known:
            row = [None] * (nu + 1)
            row[0], row[1 + j] = self.blocks[j], eye
            rows.append(row)
        rows.append([None] + [eye] * nu)
        h = sparse.bmat(rows, format="csr")
        kkt = sparse.bmat([[sparse.identity(h.shape[1]), h.T], [h, None]],
                          format="csc")
        z = np.zeros(kkt.shape[0])
        z[-nn:] = d
        return kkt, z

    @property
    def w_hat(self) -> np.ndarray:
        """Minimum-norm point of the known constraints, solved on first read."""
        if self._w_hat is None:
            matrix, rhs = self.system()
            solution = splu(matrix).solve(rhs)
            if len(self.blocks) < self.n_agents:
                self._w_hat = solution[:(self.n_agents + 1) * self.n * self.n]
            else:
                self._w_hat = np.concatenate(
                    [solution] + [-(self.blocks[j] @ solution)
                                  for j in range(self.n_agents)])
        return self._w_hat

    def local_residual(self) -> float:
        """Residual of ``S_i X + X S_i^T + D_i = 0`` and ``sum(D_j) = D``."""
        x = self.solution()
        own = self.share @ x + x @ self.share.T + self.own_share()
        nn = self.n * self.n
        total = self.w_hat[nn:].reshape(self.n_agents, nn).sum(axis=0)
        balance = total.reshape((self.n, self.n), order="F") - self.rhs
        return float(np.hypot(np.linalg.norm(own), np.linalg.norm(balance)))

    def fold(self, blocks: dict[int, sparse.csr_matrix]) -> None:
        """Take the union with one neighbor's known blocks.

        The estimate is solved again on its next read, and only when the
        neighbor knew a block this agent did not.  ``blocks`` is rebound,
        never written in place, so a message may share it with its sender.
        """
        if not blocks.keys() <= self.blocks.keys():
            self.blocks = {**self.blocks, **blocks}
            self._w_hat = None

    def solution(self) -> np.ndarray:
        """Current estimate of the Lyapunov solution block."""
        nn = self.n * self.n
        return self.w_hat[:nn].reshape((self.n, self.n), order="F")

    def own_share(self) -> np.ndarray:
        """Current estimate of this agent's right-hand-side share."""
        return self.w_hat[self._rows(self.id)].reshape((self.n, self.n), order="F")


def synchronous_round(agents: list[Agent], graph: CommGraph) -> None:
    """One message round: everyone folds every neighbor's known blocks.

    All messages carry start-of-round values, so the outcome does not
    depend on the order in which agents physically execute.  A fold
    rebinds ``blocks`` instead of writing into it, so the messages need
    no copies.
    """
    messages = [agent.blocks for agent in agents]
    for agent in agents:
        for j in graph.neighbors(agent.id):
            agent.fold(messages[j])


def planned_bytes(n: int, nnz: int, n_agents: int) -> int:
    """Memory a distributed solve holds at its peak, from sizes alone.

    ``nnz`` counts the nonzeros of the ``n x n`` matrix.  Held throughout
    are every agent's estimate, ``(nu+1) n^2`` doubles, the dense row
    shares, and the blocks ``Lambda_j``, at most ``2 n nnz`` entries in
    all.  Agents factor one at a time.  The largest system is the
    augmented one of an agent that misses one block, with at most
    ``S = (nu+1) n^2 + 2 (2 n nnz + (2 nu - 1) n^2)`` nonzeros; it is
    counted at 40 bytes a nonzero for its assembly copies, and its LU
    factors at 12 bytes an entry.

    SuperLU's fill has no closed form, so ``L.nnz + U.nnz <= 4 S + FILL
    n^4`` is a bound measured, not proved: on the bundled scenarios with
    ``path:2``, 2x2 and 3x3 agents, at every number of known blocks, the
    fill stayed within 0.77 of it (grid_4x4 was measured with ``path:2``
    agents, and with 2x2 agents at three known blocks).  The
    ``n^4`` part comes from ``X``, whose Kronecker-sum coupling fills like
    a two-dimensional operator.  Per ``n^4``, the fill of ``Lambda`` alone
    is 0.0087, 0.0099 and 0.0133 at n = 36, 144 and 240; with one block
    missing it is 0.032 and 0.050 at n = 144 (four and nine agents) and
    0.021 at n = 240 (four agents).  Below n = 36 the ``4 S`` part
    dominates.
    """
    nn = n * n
    system = (n_agents + 1) * nn + 2 * (2 * n * nnz + (2 * n_agents - 1) * nn)
    factors = 4 * system + FILL * nn * nn
    held = (8 * n_agents * (n_agents + 1) * nn      # estimates
            + 8 * n_agents * nn                     # dense row shares
            + 12 * 2 * n * nnz                      # blocks: values, indices
            + 8 * n_agents * (nn + 1))              # blocks: row pointers
    return int(held + 40 * system + 12 * factors)


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
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    planned = planned_bytes(n, int(np.count_nonzero(a)), nu)
    if planned > physical / 2:
        raise ValidationError(
            f"{nu} agents on a {n}-state system would hold about "
            f"{planned / 2**30:.1f} GiB, over half of the "
            f"{physical / 2**30:.1f} GiB of physical memory"
        )
    shares = partition_rows(a, assignment, nu)

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
