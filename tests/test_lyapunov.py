"""Lyapunov solves, shifted solves, and the congestion cost."""

import heapq
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, sparse
from scipy.sparse import csgraph

from greensplit import dynamics, net_model
from greensplit.errors import (DimensionError, EigenFailure, NoStableStart, SolveFailure,
                               UnstableMatrix, ValidationError)
from greensplit.lyapunov import (BASE, ShiftedLyapunov, _block_order, _strong_components,
                                 congestion_cost, solve_lyapunov, spectral_abscissa)
from greensplit.optimizer import optimize
from greensplit.scenario import load
from greensplit.ssa import smoothed_abscissa

from conftest import make_hurwitz


def kron_solve(a, d):
    """Dense reference solve of A X + X A^T + D = 0 via vectorization."""
    n = a.shape[0]
    lhs = np.kron(np.eye(n), a) + np.kron(a, np.eye(n))
    return np.linalg.solve(lhs, -d.reshape(-1, order="F")).reshape((n, n), order="F")


def test_matches_kron_reference():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a = make_hurwitz(rng, n)
        d = rng.standard_normal((n, n))
        d = d + d.T
        x = solve_lyapunov(a, d)
        ref = kron_solve(a, d)
        assert np.linalg.norm(x - ref) <= 1e-8 * (1.0 + np.linalg.norm(ref))


def test_residual_direct():
    rng = np.random.default_rng(3)
    a = make_hurwitz(rng, 7)
    d = np.eye(7)
    x = solve_lyapunov(a, d)
    res = a @ x + x @ a.T + d
    assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(d)


def test_unstable_matrix_rejected():
    with pytest.raises(UnstableMatrix):
        solve_lyapunov(np.array([[0.5]]), np.eye(1))


def test_shifted_solver_reuses_one_decomposition():
    rng = np.random.default_rng(5)
    a = make_hurwitz(rng, 6)
    d = np.eye(6)
    solver = ShiftedLyapunov(a)
    for shift in (-0.5, 0.0, 0.3, 1.0):
        # shifting right by `shift` keeps a - shift*I Hurwitz for shift >= 0
        if spectral_abscissa(a - shift * np.eye(6)) >= 0:
            continue
        u = solver.u
        x = u @ solver.solve(-(u.T @ d @ u), shift=shift) @ u.T
        res = (a - shift * np.eye(6)) @ x + x @ (a - shift * np.eye(6)).T + d
        assert np.linalg.norm(res) <= 1e-9 * (1.0 + np.linalg.norm(d))


def test_adjoint_solve():
    rng = np.random.default_rng(6)
    a = make_hurwitz(rng, 5)
    d = rng.standard_normal((5, 5))
    d = d @ d.T
    solver = ShiftedLyapunov(a)
    u = solver.u
    q = u @ solver.solve(-(u.T @ d @ u), shift=0.0, adjoint=True) @ u.T
    res = a.T @ q + q @ a + d
    assert np.linalg.norm(res) <= 1e-9 * (1.0 + np.linalg.norm(d))


def test_singular_shift_raises_solve_failure():
    a = np.diag([-1.0, -2.0])
    solver = ShiftedLyapunov(a)
    with pytest.raises(SolveFailure):
        # a - shift*I has a zero eigenvalue
        solver.solve(-(solver.u.T @ solver.u), shift=-1.0)


def test_overflowing_residual_raises_solve_failure_without_warnings():
    # a finite solution of order 1e200 squares past the float range in the
    # residual guard's norms; that is a SolveFailure, not a numpy warning
    solver = ShiftedLyapunov(np.diag([-1.0, -2.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolveFailure, match="overflowed"):
            solver.solve(np.full((2, 2), 1e200))


def test_abscissa_property():
    rng = np.random.default_rng(8)
    a = make_hurwitz(rng, 6)
    solver = ShiftedLyapunov(a)
    assert solver.abscissa == pytest.approx(np.linalg.eigvals(a).real.max(), abs=1e-10)
    assert spectral_abscissa(a) == pytest.approx(solver.abscissa, abs=1e-12)


def test_gramian_is_psd():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = make_hurwitz(rng, 5)
        x0 = rng.standard_normal(5)
        w = solve_lyapunov(a, np.outer(x0, x0))
        np.testing.assert_allclose(w, w.T, atol=1e-12)
        assert np.linalg.eigvalsh(w).min() >= -1e-10


def test_cost_scalar_closed_form():
    # a=-1: W = x0^2/2, cost = c^2 x0^2 / 2
    cost = congestion_cost(np.array([[-1.0]]), np.array([[1.0]]), np.array([1.0]))
    assert cost == pytest.approx(0.5, abs=1e-12)


def test_cost_infinite_when_unstable():
    cost = congestion_cost(np.array([[0.1]]), np.eye(1), np.ones(1))
    assert cost == np.inf


def test_non_finite_or_asymmetric_rhs_is_refused():
    a = np.diag([-1.0, -2.0])
    for d in ([[1.0, np.nan], [np.nan, 1.0]], [[np.inf, 0.0], [0.0, 1.0]],
              [[1.0, 1.0], [0.0, 1.0]]):
        with pytest.raises(ValidationError, match="finite and symmetric"):
            solve_lyapunov(a, np.array(d))
    with pytest.raises(DimensionError):
        solve_lyapunov(a, np.eye(3))


def _sparse_splits(name):
    """300 random splits of a bundled scenario, each leaving about half of
    the modes out (seed 0), without the all-zero ones."""
    net = load(name)
    modes = dynamics.assemble_modes(net, net_model.uniform_schedule(net))
    rng = np.random.default_rng(0)
    splits = []
    for _ in range(300):
        d = rng.uniform(0.0, 100.0, modes.n_modes) * (rng.random(modes.n_modes) < 0.5)
        if d.sum() > 0:
            splits.append(d)
    return net, modes, splits


@pytest.mark.parametrize("name", ["four_intersections", "grid_3x3"])
def test_marginally_stable_splits_cost_infinity(name):
    # a split that never greens some movement leaves a road that cannot
    # drain, at abscissa 0; rounding may put the Schur diagonal at -1e-17,
    # where trsyl breaks down, so such a split must count as unstable
    net, modes, splits = _sparse_splits(name)
    output, x0 = dynamics.output_map(net), np.ones(net.n)
    eps = np.finfo(float).eps
    flagged = []
    for d in splits:
        a = dynamics.average_matrix(modes, d)
        solver = ShiftedLyapunov(a)
        cost = congestion_cost(a, output, x0)
        bound = a.shape[0] * eps * np.abs(a).sum(axis=0).max()
        alpha = spectral_abscissa(a)
        if abs(alpha) > 1e3 * bound:
            # away from the bound the decision is the sign of the abscissa
            assert solver.stable == (alpha < 0)
        if solver.stable:
            assert np.isfinite(cost)
            # the nearest stable split is far from the bound
            assert solver.abscissa < -1e6 * bound
        else:
            assert cost == np.inf
            flagged.append(d)
            with pytest.raises(UnstableMatrix):
                solve_lyapunov(a, np.outer(x0, x0))
    assert flagged
    for d in flagged[:10]:
        with pytest.raises(NoStableStart):
            optimize(modes, output, x0, start=d)


def test_cost_zero_state():
    cost = congestion_cost(np.array([[-1.0]]), np.eye(1), np.zeros(1))
    assert cost == 0.0


def test_non_square_rejected():
    with pytest.raises(Exception):
        ShiftedLyapunov(np.ones((2, 3)))


@pytest.mark.parametrize("entry", [
    congestion_cost,
    lambda a, c, x0: smoothed_abscissa(a, c, x0, 1e-3),
], ids=["congestion_cost", "smoothed_abscissa"])
def test_cost_inputs_are_checked_before_factoring(entry, monkeypatch):
    def no_factor(self, a):
        raise AssertionError("the matrix was factored before its inputs were checked")

    monkeypatch.setattr(ShiftedLyapunov, "__init__", no_factor)
    a, c, x0 = -np.eye(3), np.eye(2, 3), np.ones(3)
    cases = [
        (ValidationError, (a, c, [1.0, np.nan, 1.0])),
        (ValidationError, (a, c, [1.0, np.inf, 1.0])),
        (ValidationError, (a, np.full((2, 3), np.nan), x0)),
        (DimensionError, (np.ones((3, 2)), c, x0)),
        (DimensionError, (a, c, np.ones(2))),
        (DimensionError, (a, np.eye(2), x0)),
        (DimensionError, (a, np.ones(3), x0)),    # the output map must be 2-D
    ]
    for error, args in cases:
        with pytest.raises(error):
            entry(*args)


def test_solve_shape_mismatch():
    solver = ShiftedLyapunov(-np.eye(3))
    with pytest.raises(Exception):
        solver.solve(np.eye(2))


# -- the recursive kernel against scipy ----------------------------------------

def quasi_triangular(rng, n, pairs):
    """Random stable matrix in standardized real Schur form: upper
    triangular, with a 2x2 block (equal diagonal entries, off-diagonal
    entries of opposite sign) on rows ``j, j + 1`` for each ``j`` in
    ``pairs``."""
    t = np.triu(rng.standard_normal((n, n)), 1) / np.sqrt(n)
    t[np.diag_indices(n)] = -rng.uniform(0.1, 2.0, n)
    for j in pairs:
        t[j + 1, j + 1] = t[j, j]
        t[j, j + 1] = rng.uniform(0.2, 1.0)
        t[j + 1, j] = -rng.uniform(0.2, 1.0)
    return t


@pytest.mark.parametrize("n", [BASE - 1, BASE, BASE + 1, 2 * BASE + 1, 144])
def test_recursive_solve_matches_scipy_with_a_pair_at_every_position(n):
    # a complex pair on rows (j, j + 1) for every j: wherever the recursion
    # would halve the matrix, some case puts a 2x2 block across the cut
    rng = np.random.default_rng(n)
    worst = 0.0
    for j in range(n - 1):
        a = quasi_triangular(rng, n, [j])
        solver = ShiftedLyapunov(a)
        assert solver.t[j + 1, j] != 0.0
        u = solver.u
        z = rng.standard_normal(n)
        d = np.outer(z, z)    # rank-1 source, as in the smoothing search
        near = solver.abscissa + 1e-6 * rng.uniform(0.1, 1.0)
        # the far shift only at the smaller sizes, to keep the sweep quick
        for shift in (near,) if n > 2 * BASE + 1 else (near, solver.abscissa + 1.0):
            shifted = a - shift * np.eye(n)
            for adjoint in (False, True):
                ref = linalg.solve_continuous_lyapunov(
                    shifted.T if adjoint else shifted, -d)
                x = u @ solver.solve(-(u.T @ d @ u), shift=shift, adjoint=adjoint) @ u.T
                worst = max(worst, np.linalg.norm(x - ref) / np.linalg.norm(ref))
    assert worst <= 1e-10


def _scaled_system(adjoint):
    rng = np.random.default_rng(41)
    n = 2 * BASE + 1
    solver = ShiftedLyapunov(quasi_triangular(rng, n, [n // 4, n // 2 - 1]))
    z = rng.standard_normal(n)
    rhs = -np.outer(z, z)
    shift = solver.abscissa + 0.1
    return solver, rhs, shift, solver.solve(rhs, shift=shift, adjoint=adjoint)


def _blocks(solver, rhs, shift, adjoint):
    """Number of trsyl calls (diagonal and off-diagonal blocks) in one solve."""
    trsyl = solver._trsyl
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return trsyl(*args, **kwargs)

    solver._trsyl = counted
    solver.solve(rhs, shift=shift, adjoint=adjoint)
    solver._trsyl = trsyl
    return len(calls)


@pytest.mark.parametrize("adjoint", [False, True])
def test_block_scale_propagates_to_every_block(adjoint):
    # trsyl may solve for scale * C to avoid overflow; forcing scale = 1/2
    # on any one block must leave the returned solution unchanged
    solver, rhs, shift, expected = _scaled_system(adjoint)
    trsyl = solver._trsyl
    blocks = _blocks(solver, rhs, shift, adjoint)
    assert blocks >= 5
    for target in range(blocks):
        seen = []

        def halved(*args, **kwargs):
            y, scale, info = trsyl(*args, **kwargs)
            if len(seen) == target:
                y, scale = 0.5 * y, 0.5 * scale
            seen.append(target)
            return y, scale, info

        solver._trsyl = halved
        got = solver.solve(rhs, shift=shift, adjoint=adjoint)
        assert len(seen) == blocks
        np.testing.assert_allclose(got, expected, rtol=0,
                                   atol=1e-14 * np.linalg.norm(expected))


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("scale, info", [(1.0, 1), (0.0, 0)])
def test_any_block_breakdown_is_a_solve_failure(adjoint, scale, info):
    solver, rhs, shift, _ = _scaled_system(adjoint)
    trsyl = solver._trsyl
    blocks = _blocks(solver, rhs, shift, adjoint)
    for target in range(blocks):
        seen = []

        def broken(*args, **kwargs):
            y, s, i = trsyl(*args, **kwargs)
            if len(seen) == target:
                s, i = scale, info
            seen.append(target)
            return y, s, i

        solver._trsyl = broken
        with pytest.raises(SolveFailure, match="broke down"):
            solver.solve(rhs, shift=shift, adjoint=adjoint)


@pytest.mark.parametrize("a", [np.array([[-2.0]]),
                               quasi_triangular(np.random.default_rng(5), 6, [0, 3])],
                         ids=["1x1", "pairs"])
def test_adjoint_solve_leaves_the_factor_as_it_was(a):
    # the adjoint equation is solved on the reversed factor, which must be
    # a copy: np.ascontiguousarray of the 1x1 reversal is the same memory,
    # and the shift was then subtracted from solver.t itself
    solver = ShiftedLyapunov(a)
    t = solver.t.copy()
    rhs = -np.eye(a.shape[0])
    shift = solver.abscissa + 0.5
    solver.solve(rhs, shift=shift, adjoint=True)
    np.testing.assert_array_equal(solver.t, t)
    np.testing.assert_array_equal(solver.solve(rhs, shift=shift),
                                  ShiftedLyapunov(a).solve(rhs, shift=shift))


def _cut_pairs(start, n, pairs):
    """First rows of 2x2 blocks that sit across every cut :func:`_split`
    makes when the recursion halves a block of order ``n`` at ``start``."""
    if n > BASE:
        k = n // 2
        pairs.append(start + k - 1)
        _cut_pairs(start, k + 1, pairs)
        _cut_pairs(start + k + 1, n - k - 1, pairs)
    return pairs


@pytest.mark.parametrize("n", [2 * BASE + 1, 4 * BASE + 3])
def test_adjoint_solve_with_pairs_across_the_cuts_of_the_reversed_factor(n):
    # the adjoint solve recurses on J T^T J; row j of it is row n - 1 - j
    # of T, so a pair on rows (j, j + 1) there is on rows (n - 2 - j, n - 1 - j)
    rng = np.random.default_rng(n)
    cuts = _cut_pairs(0, n, [])
    assert len(cuts) >= 2
    a = quasi_triangular(rng, n, [n - 2 - j for j in cuts])
    solver = ShiftedLyapunov(a)
    flipped = solver.t.T[::-1, ::-1]
    assert all(flipped[j + 1, j] != 0.0 for j in cuts)
    u = solver.u
    z = rng.standard_normal(n)
    d = np.outer(z, z)
    for shift in (solver.abscissa + 1e-6, solver.abscissa + 1.0):
        ref = linalg.solve_continuous_lyapunov((a - shift * np.eye(n)).T, -d)
        x = u @ solver.solve(-(u.T @ d @ u), shift=shift, adjoint=True) @ u.T
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", [6, 40, 144])
def test_abscissa_from_schur_diagonal_with_a_pair_on_top(n):
    # the rightmost eigenvalues are a complex pair; LAPACK's standardized
    # 2x2 block carries their real part on both diagonal entries
    rng = np.random.default_rng(n)
    t = quasi_triangular(rng, n, range(0, n - 1, 4))
    t[0, 0] = t[1, 1] = -0.05
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q @ t @ q.T
    eigs = np.linalg.eigvals(a)
    assert abs(eigs[np.argmax(eigs.real)].imag) > 0.1
    solver = ShiftedLyapunov(a)
    assert solver.abscissa == pytest.approx(eigs.real.max(), abs=1e-12)
    assert solver.abscissa == pytest.approx(-0.05, abs=1e-12)


# -- the block factorization -----------------------------------------------------

def reducible(rng, sizes):
    """Random block upper-triangular matrix with diagonal blocks of the given
    orders (1: a real eigenvalue, 2: a complex pair, larger: a dense block),
    shifted one unit left of the imaginary axis and scrambled by a random
    permutation."""
    n = sum(sizes)
    a = np.triu(rng.standard_normal((n, n)), 1)
    start = 0
    for k in sizes:
        block = rng.standard_normal((k, k))
        if k == 2:
            # complex pair: off-diagonal entries of opposite sign dominate
            block[0, 1], block[1, 0] = rng.uniform(1.0, 2.0), -rng.uniform(1.0, 2.0)
            block[1, 1] = block[0, 0] + 0.1 * rng.standard_normal()
        a[start:start + k, start:start + k] = block
        start += k
    a -= (np.linalg.eigvals(a).real.max() + 1.0) * np.eye(n)
    perm = rng.permutation(n)
    return a[np.ix_(perm, perm)]


def averaged(name, zero_phases=()):
    net = load(name)
    modes = dynamics.assemble_modes(net, net_model.uniform_schedule(net))
    d = modes.durations.astype(float)
    d[list(zero_phases)] = 0.0
    return dynamics.average_matrix(modes, d * (modes.cycle_time / d.sum()))


def check_factorization(a):
    """A = U T U^T with orthogonal U and T in standardized real Schur form,
    the abscissa of the spectrum, and plain and adjoint solves as scipy's."""
    n = a.shape[0]
    solver = ShiftedLyapunov(a)
    u, t = solver.u, solver.t
    assert np.linalg.norm(u.T @ u - np.eye(n)) <= 1e-13
    assert np.linalg.norm(u @ t @ u.T - a) <= 1e-13 * np.linalg.norm(a)
    assert not np.tril(t, -2).any()
    sub = np.flatnonzero(np.diag(t, -1))
    assert not np.isin(sub + 1, sub).any()      # 2x2 blocks only
    for j in sub:
        assert t[j, j] == t[j + 1, j + 1]
        assert t[j, j + 1] * t[j + 1, j] < 0.0
    eigs = np.linalg.eigvals(a)
    assert solver.abscissa == pytest.approx(eigs.real.max(),
                                            abs=1e-12 * (1.0 + np.abs(eigs).max()))
    rng = np.random.default_rng(n)
    z = rng.standard_normal(n)
    d = np.outer(z, z)
    shift = max(0.0, solver.abscissa + 1e-3)
    shifted = a - shift * np.eye(n)
    for adjoint in (False, True):
        ref = linalg.solve_continuous_lyapunov(shifted.T if adjoint else shifted, -d)
        x = solver.from_schur(solver.solve(solver.to_schur(d), shift=shift, adjoint=adjoint))
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("sizes", [
    (1, 1, 1, 1, 1), (2, 1, 2), (1, 5, 1, 2, 1, 1, 7, 1), (12, 2, 2, 1, 30, 1, 3),
])
def test_block_factorization_of_scrambled_reducible_matrices(sizes):
    rng = np.random.default_rng(len(sizes) * sum(sizes))
    for _ in range(3):
        check_factorization(reducible(rng, sizes))


@pytest.mark.parametrize("name", ["single_road", "four_intersections", "grid_3x3", "grid_4x4"])
def test_block_factorization_of_bundled_scenarios(name):
    # the uniform split, then a pattern with two phases at weight 0 (the
    # optimum on the grids), which must not reuse the first one's ordering
    check_factorization(averaged(name))
    if name != "single_road":    # its cycle has two phases
        check_factorization(averaged(name, zero_phases=(1, 3)))


def test_block_order_of_a_quasi_triangular_matrix_is_the_identity():
    # sparse couplings leave many topological orders; the smallest state
    # index breaks the ties
    rng = np.random.default_rng(2)
    pairs = [0, 5, 20, 38]
    t = quasi_triangular(rng, 40, pairs)
    keep = np.eye(40, dtype=bool) | (rng.random((40, 40)) < 0.05)
    for j in pairs:
        keep[j:j + 2, j:j + 2] = True
    t[~keep] = 0.0
    perm, blocks = _block_order(np.packbits(t != 0).tobytes(), 40)
    np.testing.assert_array_equal(perm, np.arange(40))
    assert blocks == ((0, 2), (5, 7), (20, 22), (38, 40))


def test_block_order_follows_each_pattern():
    # the same order, first a lower then an upper bidiagonal pattern: the
    # second factorization gets its own (reversed) ordering from the cache
    n = 6
    lower = -np.eye(n) + np.diag(np.ones(n - 1), -1)
    upper = lower.T.copy()
    for a, expected in ((lower, np.arange(n)[::-1]), (upper, np.arange(n)),
                        (lower, np.arange(n)[::-1])):
        perm, blocks = _block_order(np.packbits(a != 0).tobytes(), n)
        np.testing.assert_array_equal(perm, expected)
        assert blocks == ()
        check_factorization(a)


def _csgraph_block_order(mask):
    """Test-only oracle: the ordering of :func:`_block_order`, with the
    components from ``csgraph.connected_components``."""
    n = mask.shape[0]
    graph = sparse.csr_matrix(mask.astype(np.uint8))
    count, labels = csgraph.connected_components(graph, directed=True, connection="strong")
    rows, cols = graph.nonzero()
    tail, head = labels[rows], labels[cols]
    between = tail != head
    successors = [set() for _ in range(count)]
    blockers = [0] * count
    for i, j in set(zip(tail[between].tolist(), head[between].tolist())):
        successors[i].add(j)
        blockers[j] += 1
    members = [np.flatnonzero(labels == c) for c in range(count)]
    ready = [(members[c][0], c) for c in range(count) if blockers[c] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        _, c = heapq.heappop(ready)
        order.append(c)
        for j in successors[c]:
            blockers[j] -= 1
            if blockers[j] == 0:
                heapq.heappush(ready, (members[j][0], j))
    perm = np.concatenate([members[c] for c in order]) if n else np.zeros(0, dtype=int)
    sizes = [members[c].shape[0] for c in order]
    ends = np.cumsum(sizes).tolist()
    return perm, tuple((e - k, e) for e, k in zip(ends, sizes) if k > 1)


def _same_partition(labels, other):
    """Whether two labellings group the nodes alike."""
    pairs = set(zip(labels.tolist(), other.tolist()))
    return len(pairs) == len(set(labels.tolist())) == len(set(other.tolist()))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.floats(0.0, 0.3), st.integers(0, 2 ** 31 - 1))
def test_strong_components_and_block_order_match_csgraph(n, density, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    rows, cols = np.nonzero(mask)
    count, labels = _strong_components(n, rows, cols)
    expected_count, expected = csgraph.connected_components(
        sparse.csr_matrix(mask.astype(np.uint8)), directed=True, connection="strong")
    assert count == expected_count
    assert _same_partition(labels, expected)
    perm, blocks = _block_order(np.packbits(mask).tobytes(), n)
    expected_perm, expected_blocks = _csgraph_block_order(mask)
    np.testing.assert_array_equal(perm, expected_perm)
    assert blocks == expected_blocks


@pytest.mark.parametrize("name", ["single_road", "four_intersections", "grid_3x3", "grid_4x4"])
def test_block_order_of_bundled_scenarios_matches_csgraph(name):
    # the uniform split, and phases 1 and 3 at weight 0 where there are four
    patterns = [averaged(name)]
    if name != "single_road":
        patterns.append(averaged(name, zero_phases=(1, 3)))
    for a in patterns:
        mask = a != 0
        perm, blocks = _block_order(np.packbits(mask).tobytes(), a.shape[0])
        expected_perm, expected_blocks = _csgraph_block_order(mask)
        np.testing.assert_array_equal(perm, expected_perm)
        assert blocks == expected_blocks


def test_strong_components_of_a_long_cycle_need_no_recursion():
    # one cycle through 5000 nodes, deeper than Python's recursion limit
    n = 5000
    count, labels = _strong_components(n, np.arange(n), (np.arange(n) + 1) % n)
    assert count == 1 and not labels.any()


@pytest.mark.parametrize("entry", [(0, 0, np.nan), (0, 1, np.inf), (2, 1, -np.inf)])
def test_non_finite_entries_are_eigen_failures(entry):
    # a singleton diagonal never reaches LAPACK's own finiteness check
    i, j, value = entry
    a = np.array([[-1.0, 1.0, 0.0], [0.0, -2.0, 1.0], [0.0, 1.0, -3.0]])
    a[i, j] = value
    with pytest.raises(EigenFailure):
        ShiftedLyapunov(a)
    with pytest.raises(EigenFailure):
        congestion_cost(a, np.eye(3), np.ones(3))
