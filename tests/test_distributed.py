"""Cooperative Lyapunov solving over communication topologies."""

import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

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


# closed-form agents against the dense local system --------------------------

def _local_system(share, rhs, agent_id, n_agents):
    """Dense ``H_i w = z_i`` of one agent over ``w = [X, D_1, ..., D_nu]``."""
    n = share.shape[0]
    nn = n * n
    h = np.zeros((2 * nn, (n_agents + 1) * nn))
    h[:nn, :nn] = np.kron(np.eye(n), share) + np.kron(share, np.eye(n))
    h[:nn, (1 + agent_id) * nn:(2 + agent_id) * nn] = np.eye(nn)
    for j in range(n_agents):
        h[nn:, (1 + j) * nn:(2 + j) * nn] = np.eye(nn)
    z = np.zeros(2 * nn)
    z[nn:] = rhs.reshape(-1, order="F")
    return h, z


# row owners per layout; agent 1 owns no rows for two agents and for four
LAYOUTS = [(1, [0, 0, 0, 0]), (2, [0, 1, 0, 1]), (2, [0, 0, 0, 0]),
           (3, [0, 0, 1, 2]), (4, [0, 2, 2, 3])]


@pytest.mark.parametrize("n_agents, owners", LAYOUTS)
def test_agent_matches_dense_local_system(problem, n_agents, owners):
    a, d = problem
    shares = dist.partition_rows(a, np.array(owners), n_agents)
    for i in range(n_agents):
        agent = dist.Agent(i, shares[i], d, n_agents)
        h, z = _local_system(shares[i], d, i, n_agents)
        assert np.linalg.norm(h @ agent.w_hat - z) < 1e-10
        np.testing.assert_allclose(
            agent.w_hat, np.linalg.lstsq(h, z, rcond=None)[0], rtol=0, atol=1e-10)
        assert np.linalg.norm(h @ agent.kernel) < 1e-10
        np.testing.assert_allclose(agent.kernel.T @ agent.kernel,
                                   np.eye(agent.kernel_dim), atol=1e-12)
        assert agent.kernel_dim == h.shape[1] - np.linalg.matrix_rank(h)
        assert agent.local_residual() == pytest.approx(
            np.linalg.norm(h @ agent.w_hat - z), abs=1e-12)


@pytest.mark.parametrize("n_agents, owners", LAYOUTS[1:])
def test_fold_intersects_affine_sets(problem, n_agents, owners):
    a, d = problem
    shares = dist.partition_rows(a, np.array(owners), n_agents)
    mine, theirs = (dist.Agent(i, shares[i], d, n_agents) for i in (0, 1))
    k_i, k_j = mine.kernel, theirs.kernel
    mine.fold(theirs.w_hat, theirs.kernel)
    for i in (0, 1):
        h, z = _local_system(shares[i], d, i, n_agents)
        assert np.linalg.norm(h @ mine.w_hat - z) < 1e-10
    joint = linalg.null_space(np.hstack([k_i, -k_j]))
    assert mine.kernel_dim == joint.shape[1] == (n_agents - 2) * a.size
    if joint.shape[1]:
        common = k_i @ joint[:k_i.shape[1]]
        assert linalg.subspace_angles(mine.kernel, common).max() < 1e-8
        np.testing.assert_allclose(mine.kernel.T @ mine.kernel,
                                   np.eye(mine.kernel_dim), atol=1e-12)


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

def test_planned_bytes_covers_the_kernels(problem):
    a, d = problem
    shares = dist.partition_rows(a, dist.default_assignment(4, 3), 3)
    held = sum(dist.Agent(i, shares[i], d, 3).kernel.nbytes for i in range(3))
    assert held < dist.planned_bytes(4, 3)


def test_memory_preflight_refuses_before_building(monkeypatch):
    n, graph = 144, dist.CommGraph.grid(2, 2)
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert dist.planned_bytes(n, graph.n_agents) > physical / 2

    def no_agent(*args, **kwargs):
        raise AssertionError("an agent was built")

    monkeypatch.setattr(dist, "Agent", no_agent)
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="physical memory"):
        dist.run_distributed(-np.eye(n), np.eye(n), graph)
    assert time.perf_counter() - start < 1.0
