"""Distributed solution of the network Lyapunov equation.

The stable matrix is split row-wise over agents, ``A = S_1 + ... + S_nu``.
Writing the equation ``A X + X A^T + D = 0`` per share introduces one
unknown share ``D_j = -(S_j X + X S_j^T)`` per agent, tied together by
``sum(D_j) = D``.  Over the stacked vectorized unknowns
``w = [X^v, D_1^v, ..., D_nu^v]`` agent ``j``'s block of constraints is
``Lambda_j X^v + D_j^v = 0``, with the sparse Kronecker sum
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
``Lambda_K = sum_K Lambda_j``, so at the minimum they are equal.  What is
left is one symmetric positive definite ``n^2 x n^2`` system

    G X^v = -Lambda_K^T D^v / m,
    G = I + sum_K Lambda_j^T Lambda_j + Lambda_K^T Lambda_K / m,

factored once by a sparse LU in symmetric mode on a minimum degree
ordering of its pattern.  Every eigenvalue of ``G`` is at least 1, so
``cond(G) <= 1 + ||sum_K Lambda_j^T Lambda_j + Lambda_K^T Lambda_K / m||_2``.
Once every share is known the set is one point, ``X`` solves the
Lyapunov equation of ``A = sum_j S_j``, and the Bartels-Stewart solver of
:mod:`greensplit.lyapunov` gives it in ``O(n^3)``.

A message carries the row shares its sender knows and a fold takes the
union, so after as many synchronous rounds as the communication graph's
diameter every agent knows every share and holds the unique global
solution.  The centralized solution appears below purely as
instrumentation for error traces.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, field

import numpy as np
# ``linalg`` and ``np`` stay module attributes: perfbench/tracing.py wraps
# ``linalg.null_space`` and ``np.linalg.lstsq`` by their paths in this module
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
    """One participant: the row shares it knows and the minimum-norm point
    of their constraints."""

    def __init__(self, agent_id: int, share: np.ndarray, rhs: np.ndarray,
                 n_agents: int):
        self.id = agent_id
        n = share.shape[0]
        self.n = n
        self.n_agents = n_agents
        self.share = share
        self.rhs = rhs
        #: sparse row share ``S_j`` of every agent ``j`` this agent has heard of
        self.blocks = {agent_id: sparse.csr_matrix(share)}
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

    def _system(self) -> tuple[sparse.csc_matrix, np.ndarray]:
        """The symmetric positive definite system ``G x = b`` for ``X^v`` of
        an agent that misses ``m >= 1`` shares:
        ``G = I + sum_K Lambda_j^T Lambda_j + Lambda_K^T Lambda_K / m`` and
        ``b = -Lambda_K^T D^v / m``."""
        missing = self.n_agents - len(self.blocks)
        eye = sparse.identity(self.n, format="csr")
        lams = [(sparse.kron(eye, s) + sparse.kron(s, eye)).tocsr()
                for _, s in sorted(self.blocks.items())]
        lam_k = sum(lams)
        g = (sparse.identity(self.n * self.n, format="csr")
             + sum(lam.T @ lam for lam in lams) + (lam_k.T @ lam_k) / missing)
        return g.tocsc(), -(lam_k.T @ self.rhs.reshape(-1, order="F")) / missing

    @property
    def w_hat(self) -> np.ndarray:
        """Minimum-norm point of the known constraints, solved on first read.

        The known shares are ``D_j = -(S_j X + X S_j^T)``; the missing ones
        share what is left of ``D`` equally.  Once every share is known,
        ``X`` solves the Lyapunov equation of ``A = sum_j S_j``.
        """
        if self._w_hat is None:
            n = self.n
            missing = self.n_agents - len(self.blocks)
            if missing:
                g, b = self._system()
                lu = splu(g, permc_spec="MMD_AT_PLUS_A",
                          options={"SymmetricMode": True})
                x = lu.solve(b).reshape((n, n), order="F")
            else:
                x = solve_lyapunov(sum(self.blocks.values()).toarray(), self.rhs)
            shares = {j: -(s @ x + x @ s.T) for j, s in sorted(self.blocks.items())}
            rest = (self.rhs - sum(shares.values())) / missing if missing else None
            self._w_hat = np.concatenate(
                [x.reshape(-1, order="F")]
                + [shares.get(j, rest).reshape(-1, order="F")
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
        """Take the union with one neighbor's known shares.

        The estimate is solved again on its next read, and only when the
        neighbor knew a share this agent did not.  ``blocks`` is rebound,
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


def planned_bytes(a: np.ndarray, n_agents: int) -> int:
    """Memory a distributed solve of ``a`` holds at its peak, from the
    sizes and the sparsity pattern of ``a``.

    Held throughout are every agent's estimate, ``(nu+1) n^2`` doubles,
    the dense row shares, ``n^2`` doubles each, and the sparse row shares
    that the agents pass around, one copy of each.  Agents factor one at a
    time.  The largest system is ``G`` of an agent that misses one share.
    With ``P`` the pattern of ``|A|^T |A|``, ``G``'s pattern lies in that
    of ``I + I (x) P + P (x) I + |A| (x) |A|^T + |A|^T (x) |A|``, so it
    has at most ``S = n^2 + 2 n nnz(P) + 2 nnz(A)^2`` nonzeros; it is
    counted at 40 bytes a nonzero for its assembly copies, and its LU
    factors at 12 bytes an entry.  A complete agent's Bartels-Stewart
    solve holds a few dense ``n x n`` arrays, less than that.

    SuperLU's fill has no closed form, so ``L.nnz + U.nnz <= 4 S + FILL
    n^4`` is a bound measured, not proved.  The ``n^4`` part comes from
    ``X``, whose Kronecker-sum coupling fills like a two-dimensional
    operator; below n = 36 the ``4 S`` part dominates.  The fill per
    ``n^4`` of ``G`` with one share of ``nu`` missing, on the bundled
    scenarios with default row owners:

    ======  ======  ======  ======  ======  ======
    n       nu = 2  4       9       16      36
    ======  ======  ======  ======  ======  ======
    36      0.0074  0.0277  0.0337  0.0356  0.0372
    144     0.0018  0.0141  0.0304  0.0418  0.0520
    240     0.0007  0.0094  0.0212
    ======  ======  ======  ======  ======  ======

    At n = 240 only the first agent's share was left out; elsewhere the
    first, the middle and the last, and the table gives the largest.  With
    144 agents at n = 144 it is 0.0484, and on single_road (n = 4) the fill
    is at most 0.62 S.  In every case the fill stayed within 0.81 of the
    bound.
    """
    pattern = sparse.csr_matrix(np.asarray(a) != 0, dtype=float)
    n, nnz = pattern.shape[0], pattern.nnz
    nn = n * n
    system = nn + 2 * n * (pattern.T @ pattern).nnz + 2 * nnz * nnz
    factors = 4 * system + FILL * nn * nn
    held = (8 * n_agents * (n_agents + 1) * nn      # estimates
            + 8 * n_agents * nn                     # dense row shares
            + 12 * nnz + 8 * n_agents * (n + 1))    # sparse row shares
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
    if max_rounds is not None and not (isinstance(max_rounds, numbers.Integral)
                                       and max_rounds >= 0):
        raise ValidationError(
            f"the round budget must be a nonnegative integer, got {max_rounds!r}")
    n = a.shape[0]
    nu = graph.n_agents
    if assignment is None:
        assignment = default_assignment(n, nu)
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    planned = planned_bytes(a, nu)
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
