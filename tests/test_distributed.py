"""Cooperative Lyapunov solving over communication topologies."""

import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg
from scipy.sparse.linalg import splu

from greensplit import distributed as dist
from greensplit.errors import (DimensionError, NotConverged, UnstableMatrix,
                               ValidationError)
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


def test_graph_validation():
    with pytest.raises(ValidationError):
        dist.CommGraph(0, ())
    with pytest.raises(ValidationError):
        dist.CommGraph(2, ((0, 0),))
    with pytest.raises(ValidationError):
        dist.CommGraph(2, ((0, 5),))


def test_disconnected_graph_reports_no_diameter():
    g = dist.CommGraph.from_edges(3, [(0, 1)])
    assert g.diameter is None
    assert not g.is_connected


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
        assert g.is_connected == (expected is not None)
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


def test_agent_local_residual_is_tiny(problem):
    a, d = problem
    shares = dist.partition_rows(a, dist.default_assignment(4, 2), 2)
    agent = dist.Agent(0, shares[0], d, 2)
    assert agent.local_residual() < 1e-10
    assert agent.kernel_dim > 0


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
    # a fold that brings nothing new keeps the estimate
    before = mine.w_hat
    mine.fold(theirs.blocks)
    assert mine.w_hat is before


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


def test_path2_factors_two_systems_in_round_zero(problem, monkeypatch):
    # path:2: both agents miss one share in round 0; after one round both
    # are complete and solve by Bartels-Stewart, as the reference does
    a, d = problem
    factors = _recording_splu(monkeypatch)
    solves = []
    rounds = []
    lyapunov, round_ = dist.solve_lyapunov, dist.synchronous_round
    monkeypatch.setattr(dist, "solve_lyapunov",
                        lambda *args: solves.append(1) or lyapunov(*args))
    monkeypatch.setattr(dist, "synchronous_round",
                        lambda *args: rounds.append(len(factors)) or round_(*args))
    res = dist.run_distributed(a, d, dist.CommGraph.path(2))
    assert res.rounds == 1
    assert rounds == [2]            # both factorizations came before round 1
    assert len(factors) == 2
    assert len(solves) == 3         # the reference and the two complete agents
    for lu in factors:
        assert lu.shape == (a.size, a.size)


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

def _block_bytes(agent):
    return sum(b.data.nbytes + b.indices.nbytes + b.indptr.nbytes
               for b in agent.blocks.values())


def _recording_splu(monkeypatch):
    """Wrap ``dist.splu``; the list it returns gets every factor made."""
    factors = []

    def recording(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(dist, "splu", recording)
    return factors


def test_planned_bytes_bounds_blocks_and_factors(problem, four_modes, monkeypatch):
    """Held shares and estimates plus the largest LU factors an agent
    makes, at every number of known shares, on a random 4-state and the
    36-state network."""
    from greensplit.dynamics import average_matrix
    factors = _recording_splu(monkeypatch)
    cases = [(a, d, graph)
             for a, d in (problem, (average_matrix(four_modes), np.ones((36, 36))))
             for graph in (dist.CommGraph.path(2), dist.CommGraph.grid(2, 2),
                           dist.CommGraph.grid(3, 3))]
    for a, d, graph in cases:
        n, nu = a.shape[0], graph.n_agents
        shares = dist.partition_rows(a, dist.default_assignment(n, nu), nu)
        factors.clear()
        agents = [dist.Agent(i, shares[i], d, nu) for i in range(nu)]
        for k in range(1, nu + 1):
            agents[0].fold({j: agents[j].blocks[j] for j in range(k)})
            agents[0].w_hat
        # every agent at one known share, then agent 0 at 2 .. nu - 1; the
        # complete agent factors nothing
        assert len(factors) == 2 * nu - 2
        widest = max((lu.L.nnz + lu.U.nnz for lu in factors), default=0)
        held = (sum(agent.w_hat.nbytes + agent.share.nbytes for agent in agents)
                + _block_bytes(agents[0]))
        assert held + 12 * widest < dist.planned_bytes(a, nu)


def test_memory_preflight_refuses_before_building(monkeypatch):
    # 400 agents on 500 states: the estimates alone, 400 x 401 x 500^2
    # doubles, take 320 GB
    n, graph = 500, dist.CommGraph.grid(20, 20)
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert 8 * 400 * 401 * n**2 > physical / 2
    assert dist.planned_bytes(-np.eye(n), graph.n_agents) > 8 * 400 * 401 * n**2

    def no_agent(*args, **kwargs):
        raise AssertionError("an agent was built")

    monkeypatch.setattr(dist, "Agent", no_agent)
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="physical memory"):
        dist.run_distributed(-np.eye(n), np.eye(n), graph)
    assert time.perf_counter() - start < 1.0
