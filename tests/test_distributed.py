"""Cooperative Lyapunov solving over communication topologies."""

import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, sparse
from scipy.sparse.linalg import spsolve

from greensplit import distributed as dist
from greensplit import net_model, scenario
from greensplit.dynamics import assemble_modes, average_matrix
from greensplit.errors import (DimensionError, NotConverged, SolveFailure,
                               UnstableMatrix, ValidationError)
from greensplit.lyapunov import solve_lyapunov

from conftest import make_hurwitz


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(17)
    a = make_hurwitz(rng, 4)
    x0 = rng.standard_normal(4)
    return a, np.outer(x0, x0)


# topology -------------------------------------------------------------------

def test_graph_constructors():
    path = dist.CommGraph.path(4)
    assert path.diameter == 3
    assert path.neighbors(1) == (0, 2)
    grid = dist.CommGraph.grid(3, 3)
    assert grid.diameter == 4
    assert grid.n_agents == 9
    full = dist.CommGraph.complete(5)
    assert full.diameter == 1
    lone = dist.CommGraph.complete(1)
    assert lone.diameter == 0


@pytest.mark.parametrize("rows, cols", [(-2, -3), (2, -3), (0, 3), (3, 0)])
def test_grid_of_a_non_positive_size_is_refused(rows, cols):
    # two negative sizes once multiplied to 6 agents with no links
    with pytest.raises(ValidationError, match="positive sizes"):
        dist.CommGraph.grid(rows, cols)


def test_graph_validation():
    with pytest.raises(ValidationError):
        dist.CommGraph(0, ())
    with pytest.raises(ValidationError):
        dist.CommGraph(2, ((0, 0),))
    with pytest.raises(ValidationError):
        dist.CommGraph(2, ((0, 5),))


def test_neighbors_are_sorted_and_distinct_for_any_edge_order():
    # the adjacency is built once from the edges as given: unsorted, with
    # both orientations of one edge and a repeat
    g = dist.CommGraph(4, ((2, 1), (1, 0), (0, 1), (3, 1), (1, 2)))
    assert [g.neighbors(k) for k in range(4)] == [(1,), (0, 2, 3), (1,), (1,)]
    assert g == dist.CommGraph(4, g.edges)
    assert g.diameter == 2


def test_disconnected_graph_reports_no_diameter():
    g = dist.CommGraph.from_edges(3, [(0, 1)])
    assert g.diameter is None


def _bfs_diameter(graph):
    """Plain breadth-first eccentricities; None when some agent is unreachable."""
    worst = 0
    for start in range(graph.n_agents):
        depth = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for node in frontier:
                for other in graph.neighbors(node):
                    if other not in depth:
                        depth[other] = depth[node] + 1
                        nxt.append(other)
            frontier = nxt
        if len(depth) < graph.n_agents:
            return None
        worst = max(worst, max(depth.values()))
    return worst


def test_diameter_matches_breadth_first_search():
    rng = np.random.default_rng(5)
    graphs = [dist.CommGraph(1, ()), dist.CommGraph(4, ())]
    for _ in range(60):
        k = int(rng.integers(2, 9))
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        keep = rng.random(len(pairs)) < rng.uniform(0.1, 0.6)
        graphs.append(dist.CommGraph.from_edges(
            k, [p for p, kept in zip(pairs, keep) if kept]))
    seen = set()
    for g in graphs:
        expected = _bfs_diameter(g)
        seen.add(expected is None)
        assert g.diameter == expected
    assert seen == {True, False}    # both connected and disconnected cases ran


# partitioning ---------------------------------------------------------------

def test_partition_rows_sum():
    a = np.diag([-1.0, -2.0])
    shares = dist.partition_rows(a, np.array([0, 1]), 2)
    np.testing.assert_array_equal(shares[0], np.diag([-1.0, 0.0]))
    np.testing.assert_array_equal(shares[1], np.diag([0.0, -2.0]))
    np.testing.assert_array_equal(sum(shares), a)


def test_partition_validation():
    a = -np.eye(3)
    with pytest.raises(DimensionError):
        dist.partition_rows(np.ones((2, 3)), np.zeros(2, dtype=int), 1)
    with pytest.raises(DimensionError):
        dist.partition_rows(a, np.zeros(2, dtype=int), 1)
    with pytest.raises(ValidationError):
        dist.partition_rows(a, np.array([0, 1, 3]), 2)


def test_default_assignment_balanced():
    owners = dist.default_assignment(7, 3)
    counts = np.bincount(owners, minlength=3)
    assert counts.tolist() == [3, 2, 2]
    assert (np.diff(owners) >= 0).all()  # contiguous blocks


# solving --------------------------------------------------------------------

def test_single_agent_recovers_centralized(problem):
    a, d = problem
    res = dist.run_distributed(a, d, dist.CommGraph.complete(1))
    assert res.rounds == 0
    np.testing.assert_allclose(res.solutions[0], solve_lyapunov(a, d),
                               atol=1e-10)
    assert res.kernel_dims[-1].max() == 0


def test_two_agents_one_round(problem):
    a, d = problem
    res = dist.run_distributed(a, d, dist.CommGraph.path(2))
    assert res.rounds == 1
    for sol in res.solutions:
        np.testing.assert_allclose(sol, res.reference, atol=1e-9)


def test_path_three_converges_in_diameter(problem):
    a, d = problem
    res = dist.run_distributed(a, d, dist.CommGraph.path(3))
    assert res.rounds <= 2
    # the middle agent hears everyone after one round
    assert res.errors[1, 1] <= 1e-9
    assert res.kernel_dims[-1].tolist() == [0, 0, 0]


def test_kernel_dims_never_grow(problem):
    a, d = problem
    res = dist.run_distributed(a, d, dist.CommGraph.grid(2, 2))
    assert (np.diff(res.kernel_dims.astype(int), axis=0) <= 0).all()


def test_errors_nonincreasing(problem):
    a, d = problem
    res = dist.run_distributed(a, d, dist.CommGraph.grid(2, 2))
    diffs = np.diff(res.errors, axis=0)
    assert (diffs <= 1e-9 * (1.0 + res.errors[:-1])).all()


def test_whole_estimate_distance_nonincreasing(problem):
    # nine agents for four rows: five own none.  An agent's X error alone
    # may rise (agent 8: 1.000000 -> 1.000109 after round 2), but its whole
    # estimate w = [X, D_1, ..., D_nu] is the minimum-norm point of nested
    # affine sets that all hold the solution w*, so |w_hat - w*| cannot rise
    a, d = problem
    graph = dist.CommGraph.grid(3, 3)
    nu = graph.n_agents
    shares = dist.partition_rows(a, dist.default_assignment(4, nu), nu)
    x = solve_lyapunov(a, d)
    w_star = np.concatenate([x.reshape(-1, order="F")] + [
        -(s @ x + x @ s.T).reshape(-1, order="F") for s in shares])
    agents = [dist.Agent(i, shares[i], d, nu) for i in range(nu)]
    res = dist.run_distributed(a, d, graph)
    assert res.errors[2, 8] > res.errors[1, 8] + 1e-4
    distances = [[np.linalg.norm(agent.w_hat - w_star) for agent in agents]]
    for _ in range(res.rounds):
        dist.synchronous_round(agents, graph)
        distances.append([np.linalg.norm(agent.w_hat - w_star) for agent in agents])
    distances = np.array(distances)
    assert (np.diff(distances, axis=0) <= 1e-9 * (1.0 + distances[:-1])).all()
    assert distances[-1].max() <= 1e-9 * np.linalg.norm(w_star)


def test_shares_sum_to_rhs(problem):
    a, d = problem
    res = dist.run_distributed(a, d, dist.CommGraph.path(3))
    np.testing.assert_allclose(sum(res.shares), d, atol=1e-10)


def test_share_consistency_with_solution(problem):
    # each recovered share equals what its owner's rows imply
    a, d = problem
    assignment = dist.default_assignment(4, 2)
    res = dist.run_distributed(a, d, dist.CommGraph.path(2), assignment)
    shares = dist.partition_rows(a, assignment, 2)
    for lam, dhat in zip(shares, res.shares):
        np.testing.assert_allclose(
            dhat, -(lam @ res.reference + res.reference @ lam.T), atol=1e-8)


def test_solutions_symmetric(problem):
    a, d = problem
    res = dist.run_distributed(a, d, dist.CommGraph.grid(2, 2))
    assert max(res.symmetry_gaps) < 1e-10


def test_custom_assignment(problem):
    a, d = problem
    assignment = np.array([1, 0, 1, 0])
    res = dist.run_distributed(a, d, dist.CommGraph.path(2), assignment)
    assert res.converged


def test_disconnected_raises(problem):
    a, d = problem
    graph = dist.CommGraph.from_edges(3, [(0, 1)])
    with pytest.raises(NotConverged):
        dist.run_distributed(a, d, graph, max_rounds=5)


def test_round_budget_enforced(problem):
    a, d = problem
    with pytest.raises(NotConverged):
        dist.run_distributed(a, d, dist.CommGraph.path(3), max_rounds=1)


def test_unstable_matrix_rejected():
    with pytest.raises(UnstableMatrix):
        dist.run_distributed(np.eye(2), np.eye(2), dist.CommGraph.path(2))


def test_shape_mismatch_rejected():
    with pytest.raises(DimensionError):
        dist.run_distributed(-np.eye(3), np.eye(2), dist.CommGraph.path(2))


@pytest.mark.parametrize("d", [[[1.0, np.nan], [np.nan, 1.0]], [[1.0, 0.0], [np.inf, 1.0]],
                               [[1.0, 1.0], [0.0, 1.0]]],
                         ids=["nan", "inf", "asymmetric"])
def test_bad_rhs_rejected(d):
    with pytest.raises(ValidationError, match="finite and symmetric"):
        dist.run_distributed(-np.eye(2), np.array(d), dist.CommGraph.path(2))


def test_overlapping_row_shares_are_refused(problem):
    # the stacked row blocks stand for the sum of the known shares only when
    # no row is in two of them
    a, d = problem
    first = dist.Agent(0, dist.partition_rows(a, np.array([0, 0, 1, 1]), 2)[0], d, 2)
    second = dist.Agent(1, dist.partition_rows(a, np.array([1, 0, 0, 0]), 2)[0], d, 2)
    first.fold(second.blocks)
    with pytest.raises(ValidationError, match="overlap"):
        first.w_hat


def test_agent_local_residual_is_tiny(problem):
    a, d = problem
    shares = dist.partition_rows(a, dist.default_assignment(4, 2), 2)
    agent = dist.Agent(0, shares[0], d, 2)
    assert agent.local_residual() < 1e-10
    assert agent.kernel_dim > 0


def test_agent_stores_only_its_blocks_and_x(problem):
    # the shares and w_hat are derived from X and the row blocks when read
    a, d = problem
    shares = dist.partition_rows(a, dist.default_assignment(4, 3), 3)
    agent = dist.Agent(0, shares[0], d, 3)

    def arrays():
        return [v for v in vars(agent).values() if isinstance(v, np.ndarray) and v is not d]
    x = agent.solution()
    assert len(arrays()) == 1 and arrays()[0] is x
    assert agent.w_hat.shape == (4 * a.size,)
    # a fold that brings a new share clears X
    agent.fold({1: dist.Agent(1, shares[1], d, 3).blocks[1]})
    assert arrays() == []


def test_interior_agents_finish_first(problem):
    a, d = problem
    res = dist.run_distributed(a, d, dist.CommGraph.grid(3, 3))
    assert res.rounds <= 4
    center, corner = 4, 0
    center_done = int(np.argmax(res.errors[:, center] <= 1e-9))
    corner_done = int(np.argmax(res.errors[:, corner] <= 1e-9))
    assert center_done <= corner_done


# sparse agents against the dense local system ------------------------------

class DenseAgent:
    """Test-only oracle: the affine set as a dense ``(w_hat, K)`` pair.

    The kernel is written down in closed form and orthonormalized by one
    QR; a fold moves ``w_hat`` into the intersection of two affine sets and
    intersects the kernels with one thin SVD (Mou, Liu & Morse, IEEE TAC
    60(11), 2015).  Its memory grows as ``nu^2 n^4``, so it serves small n.
    """

    def __init__(self, agent_id, share, rhs, n_agents):
        self.id = agent_id
        n = share.shape[0]
        self.n = n
        nn = n * n
        lam = np.kron(np.eye(n), share) + np.kron(share, np.eye(n))
        d = rhs.reshape(-1, order="F")
        if n_agents == 1:
            x = np.linalg.lstsq(lam, -d, rcond=None)[0]
            self.w_hat = np.concatenate([x, d])
            free = linalg.null_space(lam, rcond=1e-10)
            self.kernel = np.vstack([free, np.zeros((nn, free.shape[1]))])
            return
        # a free X with D_i = -lam X and D_k = +lam X, and a free D_j per
        # other agent j with D_k = -D_j
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
        w_p = np.zeros(basis.shape[0])
        w_p[self._rows(k)] = d
        self.w_hat = w_p - self.kernel @ (self.kernel.T @ w_p)

    def _rows(self, agent):
        nn = self.n * self.n
        return slice((1 + agent) * nn, (2 + agent) * nn)

    @property
    def kernel_dim(self):
        return self.kernel.shape[1]

    def fold(self, other_w, other_kernel):
        k_i, k_j = self.kernel, other_kernel
        if k_i.shape[1] == 0:
            return
        delta = other_w - self.w_hat
        outside = k_j - k_i @ (k_i.T @ k_j)
        u, sines, vt = np.linalg.svd(outside, full_matrices=False)
        r = int(np.count_nonzero(sines > 1e-10))
        c_j = vt[:r].T @ ((u[:, :r].T @ (delta - k_i @ (k_i.T @ delta))) / sines[:r])
        step = delta - k_j @ c_j
        self.w_hat = self.w_hat + k_i @ (k_i.T @ step)
        self.kernel = k_j @ vt[r:].T

    def solution(self):
        nn = self.n * self.n
        return self.w_hat[:nn].reshape((self.n, self.n), order="F")


def _known_system(shares, rhs, known):
    """Dense ``H w = z`` of the blocks ``known`` and the balance row,
    over ``w = [X, D_1, ..., D_nu]``."""
    n = rhs.shape[0]
    nn = n * n
    n_agents = len(shares)
    h = np.zeros(((len(known) + 1) * nn, (n_agents + 1) * nn))
    for row, j in enumerate(sorted(known)):
        rows = slice(row * nn, (row + 1) * nn)
        h[rows, :nn] = np.kron(np.eye(n), shares[j]) + np.kron(shares[j], np.eye(n))
        h[rows, (1 + j) * nn:(2 + j) * nn] = np.eye(nn)
    for j in range(n_agents):
        h[-nn:, (1 + j) * nn:(2 + j) * nn] = np.eye(nn)
    z = np.zeros(h.shape[0])
    z[-nn:] = rhs.reshape(-1, order="F")
    return h, z


# row owners per layout; agent 1 owns no rows for two agents and for four
LAYOUTS = [(1, [0, 0, 0, 0]), (2, [0, 1, 0, 1]), (2, [0, 0, 0, 0]),
           (3, [0, 0, 1, 2]), (4, [0, 2, 2, 3])]

# (graph, row owners, scale of agent 0's rows): LAYOUTS on paths, then
# default owners on larger graphs, where on the 3x3 grid five of the nine
# agents own no rows, then one share scaled by 1e3 and by 1e-3
ROUND_LAYOUTS = (
    [pytest.param(dist.CommGraph.path(k), owners, 1.0,
                  id=f"path{k}-{''.join(map(str, owners))}")
     for k, owners in LAYOUTS]
    + [pytest.param(dist.CommGraph.path(4), None, 1.0, id="path4"),
       pytest.param(dist.CommGraph.grid(2, 2), None, 1.0, id="grid2x2"),
       pytest.param(dist.CommGraph.grid(3, 3), None, 1.0, id="grid3x3")]
    + [pytest.param(dist.CommGraph.path(3), [0, 0, 1, 2], scale, id=f"path3-0012-x{scale:g}")
       for scale in (1e3, 1e-3)])


@pytest.mark.parametrize("n_agents, owners", LAYOUTS)
def test_agent_matches_dense_local_system(problem, n_agents, owners):
    a, d = problem
    shares = dist.partition_rows(a, np.array(owners), n_agents)
    for i in range(n_agents):
        agent = dist.Agent(i, shares[i], d, n_agents)
        assert sorted(agent.blocks) == [i]
        h, z = _known_system(shares, d, [i])
        assert np.linalg.norm(h @ agent.w_hat - z) < 1e-10
        np.testing.assert_allclose(
            agent.w_hat, np.linalg.lstsq(h, z, rcond=None)[0], rtol=0, atol=1e-10)
        # minimum norm: no component along the set's kernel
        assert np.linalg.norm(linalg.null_space(h).T @ agent.w_hat) < 1e-10
        assert agent.kernel_dim == h.shape[1] - np.linalg.matrix_rank(h)
        assert agent.kernel_dim == (n_agents - 1) * a.size
        assert agent.local_residual() == pytest.approx(
            np.linalg.norm(h @ agent.w_hat - z), abs=1e-12)


@pytest.mark.parametrize("n_agents, owners", LAYOUTS[1:])
def test_fold_intersects_affine_sets(problem, n_agents, owners):
    a, d = problem
    shares = dist.partition_rows(a, np.array(owners), n_agents)
    mine, theirs = (dist.Agent(i, shares[i], d, n_agents) for i in (0, 1))
    message = theirs.blocks
    mine.fold(message)
    assert sorted(mine.blocks) == [0, 1]
    assert theirs.blocks is message and sorted(message) == [1]
    for i in (0, 1):
        h, z = _known_system(shares, d, [i])
        assert np.linalg.norm(h @ mine.w_hat - z) < 1e-10
    # the intersection of the two affine sets, and its minimum-norm point
    h, z = _known_system(shares, d, [0, 1])
    kernel = linalg.null_space(h)
    assert mine.kernel_dim == kernel.shape[1] == (n_agents - 2) * a.size
    assert np.linalg.norm(kernel.T @ mine.w_hat) < 1e-10
    np.testing.assert_allclose(
        mine.w_hat, np.linalg.lstsq(h, z, rcond=None)[0], rtol=0, atol=1e-10)
    # a fold that brings nothing new keeps the solved X
    before = mine.solution()
    mine.fold(theirs.blocks)
    assert mine.solution() is before


@pytest.mark.parametrize("graph, owners, scale", ROUND_LAYOUTS)
def test_rounds_match_dense_oracle(problem, graph, owners, scale):
    a, d = problem
    nu, nn = graph.n_agents, a.size
    owners = dist.default_assignment(4, nu) if owners is None else np.array(owners)
    a = a * np.where(owners == 0, scale, 1.0)[:, None]
    shares = dist.partition_rows(a, owners, nu)
    sparse_agents = [dist.Agent(i, shares[i], d, nu) for i in range(nu)]
    dense_agents = [DenseAgent(i, shares[i], d, nu) for i in range(nu)]
    reference = solve_lyapunov(a, d)

    for _ in range(graph.diameter + 1):
        for mine, oracle in zip(sparse_agents, dense_agents):
            err = np.linalg.norm(mine.solution() - reference) / np.linalg.norm(reference)
            oracle_err = (np.linalg.norm(oracle.solution() - reference)
                          / np.linalg.norm(reference))
            assert abs(err - oracle_err) <= 1e-9
            h, z = _known_system(shares, d, mine.blocks)
            np.testing.assert_allclose(
                mine.w_hat, np.linalg.lstsq(h, z, rcond=None)[0], rtol=0, atol=1e-10)
            assert mine.kernel_dim == (nu - len(mine.blocks)) * nn
            assert mine.kernel_dim == h.shape[1] - np.linalg.matrix_rank(h)
            assert oracle.kernel_dim == mine.kernel_dim
        dist.synchronous_round(sparse_agents, graph)
        messages = [(agent.w_hat, agent.kernel) for agent in dense_agents]
        for agent in dense_agents:
            for j in graph.neighbors(agent.id):
                agent.fold(*messages[j])
    assert all(agent.kernel_dim == 0 for agent in sparse_agents)


def test_path2_runs_two_cg_solves_in_round_zero(problem, monkeypatch):
    # path:2: both agents miss one share in round 0; after one round both
    # are complete and solve by Bartels-Stewart, as the reference does
    a, d = problem
    cg = _recording_cg(monkeypatch)
    solves = []
    rounds = []
    lyapunov, round_ = dist.solve_lyapunov, dist.synchronous_round
    monkeypatch.setattr(dist, "solve_lyapunov",
                        lambda *args: solves.append(1) or lyapunov(*args))
    monkeypatch.setattr(dist, "synchronous_round",
                        lambda *args: rounds.append(len(cg)) or round_(*args))
    res = dist.run_distributed(a, d, dist.CommGraph.path(2))
    assert res.rounds == 1
    assert rounds == [2]            # both CG solves came before round 1
    assert len(cg) == 2
    assert len(solves) == 3         # the reference and the two complete agents
    for iterations, cap in cg:
        assert 0 < iterations <= cap


# conjugate gradients against a sparse direct solve -------------------------

def _assembled_system(shares, known, rhs):
    """Test-only oracle: ``G`` and ``b`` of an agent that knows the shares
    ``known``, assembled from sparse Kronecker sums:
    ``G = I + sum_K Lambda_j^T Lambda_j + Lambda_K^T Lambda_K / m`` and
    ``b = -Lambda_K^T D^v / m``."""
    n = rhs.shape[0]
    missing = len(shares) - len(known)
    eye = sparse.identity(n, format="csr")
    lams = []
    for j in sorted(known):
        s = sparse.csr_matrix(shares[j])
        lams.append((sparse.kron(eye, s) + sparse.kron(s, eye)).tocsr())
    lam_k = sum(lams)
    g = (sparse.identity(n * n, format="csr")
         + sum(lam.T @ lam for lam in lams) + (lam_k.T @ lam_k) / missing)
    return g.tocsc(), -(lam_k.T @ rhs.reshape(-1, order="F")) / missing


def _bundled(name):
    network = scenario.load(name)
    a = average_matrix(assemble_modes(network, net_model.uniform_schedule(network)))
    return a, np.ones_like(a)       # x0 = ones


@pytest.mark.parametrize("name", ["single_road", "four_intersections", "grid_3x3",
                                  "grid_4x4"])
@pytest.mark.parametrize("layout", [(2, 2), (3, 3)])
def test_cg_matches_sparse_direct_solve(name, layout):
    a, d = _bundled(name)
    n = a.shape[0]
    graph = dist.CommGraph.grid(*layout)
    nu = graph.n_agents
    shares = dist.partition_rows(a, dist.default_assignment(n, nu), nu)
    agents = [dist.Agent(i, shares[i], d, nu) for i in range(nu)]
    # round 0: every agent knows its own share
    for agent in agents:
        g, b = _assembled_system(shares, agent.blocks, d)
        x = spsolve(g, b).reshape((n, n), order="F")
        assert np.linalg.norm(agent.solution() - x) <= 1e-10 * np.linalg.norm(x)
    # agent 0 misses only the last share.  The LU fill of that G costs
    # seconds past n = 36; there the residual of the assembled G certifies
    # the solve instead, as every eigenvalue of G is at least 1, so
    # |x - x*| <= |G x - b|
    agents[0].fold({j: agents[j].blocks[j] for j in range(nu - 1)})
    g, b = _assembled_system(shares, agents[0].blocks, d)
    x = agents[0].solution()
    if n <= 36:
        expected = spsolve(g, b).reshape((n, n), order="F")
        assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)
    else:
        resid = g @ x.reshape(-1, order="F") - b
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(x)


def test_cg_solves_a_small_spd_system():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((12, 12))
    g = np.eye(12) + m @ m.T
    b = rng.standard_normal(12)
    cond = np.linalg.cond(g)
    x, iterations = dist._conjugate_gradients(lambda v: g @ v, b, dist._iteration_cap(cond))
    assert np.linalg.norm(g @ x - b) <= dist.CG_TOL * np.linalg.norm(b)
    assert 0 < iterations <= dist._iteration_cap(cond)
    # a zero right-hand side takes no iteration
    x, iterations = dist._conjugate_gradients(lambda v: g @ v, np.zeros(12), 5)
    assert iterations == 0 and not x.any()


def test_cg_true_residual_is_checked():
    # the iterations see G = 2 I, the final check another matrix: the
    # recursive residual says converged, the true one does not
    calls = []

    def drifting(v):
        calls.append(1)
        return 2.0 * v if len(calls) < 2 else 2.0 * v + 1e-6
    with pytest.raises(SolveFailure, match="true relative residual"):
        dist._conjugate_gradients(drifting, np.ones(5), 10)
    assert len(calls) == 2


def test_cg_cap_that_runs_out_is_a_solve_failure(problem, monkeypatch):
    a, d = problem
    monkeypatch.setattr(dist, "_iteration_cap", lambda cond: 1)
    with pytest.raises(SolveFailure, match="after 1 iterations"):
        dist.run_distributed(a, d, dist.CommGraph.path(2))


def test_iteration_cap_follows_the_condition_bound():
    # about 10 on the bundled scenarios (the module docstring), where the
    # solves take at most 28 iterations
    assert dist._iteration_cap(1.0) == 31
    assert 60 <= dist._iteration_cap(10.12) <= 70
    assert dist._iteration_cap(1e6) > 1000 * dist._iteration_cap(1.0) / 31


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(1, 5), st.integers(0, 2 ** 31 - 1),
       st.data())
def test_random_layouts_match_centralized(n, n_agents, seed, data):
    rng = np.random.default_rng(seed)
    a = make_hurwitz(rng, n)
    x0 = rng.standard_normal(n)
    d = np.outer(x0, x0)
    owners = data.draw(st.lists(st.integers(0, n_agents - 1), min_size=n, max_size=n))
    # a random spanning tree keeps the graph connected; extra edges shrink it
    tree = [(k, data.draw(st.integers(0, k - 1))) for k in range(1, n_agents)]
    pairs = [(i, j) for i in range(n_agents) for j in range(i + 1, n_agents)]
    extra = data.draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    graph = dist.CommGraph.from_edges(n_agents, tree + extra)
    res = dist.run_distributed(a, d, graph, np.array(owners))
    assert res.rounds <= graph.diameter
    reference = solve_lyapunov(a, d)
    for sol in res.solutions:
        assert np.linalg.norm(sol - reference) <= 1e-9 * np.linalg.norm(reference)


# memory preflight -----------------------------------------------------------

def _recording_cg(monkeypatch):
    """Wrap ``dist._conjugate_gradients``; the list it returns gets
    ``(iterations, cap)`` of every solve."""
    solves = []
    run = dist._conjugate_gradients

    def recording(gram, b, cap):
        x, iterations = run(gram, b, cap)
        solves.append((iterations, cap))
        return x, iterations

    monkeypatch.setattr(dist, "_conjugate_gradients", recording)
    return solves


@pytest.mark.parametrize("name, graph", [
    pytest.param("four_intersections", dist.CommGraph.path(2), id="four_intersections-path2"),
] + [
    pytest.param(name, dist.CommGraph.grid(k, k), id=f"{name}-{k}x{k}")
    for name in scenario.BUNDLED for k in (2, 3, 6)
])
def test_planned_bytes_bounds_the_traced_peak(name, graph):
    """Every agent's ``X``, the shares, the row blocks and one agent's
    solve, against what a run traces at its peak: the plan covers the
    peak and stays within four times it, so the refusal tracks what the
    solver holds.  On ``single_road`` (4 states) the objects of each
    agent outweigh its arrays: without the terms free of ``n`` the plan
    was 4.4 KB on 2x2 agents and 5.6 KB on 3x3, against traced peaks of
    14-16 KB and 21 KB."""
    import tracemalloc
    a, d = _bundled(name)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dist.run_distributed(a, d, graph)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= dist.planned_bytes(a, graph.n_agents) <= 4 * peak
    if graph.n_agents == 36:
        # agents that stored the stacked [X, D_1, ..., D_36] peaked at 240 MB
        assert peak < 40e6


def test_memory_preflight_refuses_before_building(monkeypatch):
    # 400 agents on 20,000 states: their X alone, 400 x 20000^2 doubles,
    # take 1.3 TB.  The preflight reads only the shapes, so the inputs are
    # zero-stride views, and nothing may be solved or built before it
    n, graph = 20_000, dist.CommGraph.grid(20, 20)
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert 8 * 400 * n**2 > physical / 2
    a, d = np.broadcast_to(-1.0, (n, n)), np.broadcast_to(1.0, (n, n))
    assert dist.planned_bytes(a, graph.n_agents) > 8 * 400 * n**2

    def refused(*args, **kwargs):
        raise AssertionError("an agent was built or a system solved")

    monkeypatch.setattr(dist, "Agent", refused)
    monkeypatch.setattr(dist, "solve_lyapunov", refused)
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="physical memory"):
        dist.run_distributed(a, d, graph)
    assert time.perf_counter() - start < 1.0
