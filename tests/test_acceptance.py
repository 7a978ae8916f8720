"""Acceptance runs for the full toolkit.

Each test checks one criterion and prints a single verdict line
(run with ``pytest -s`` to see them on passing runs):

  1.  scalar smoothed abscissa matches the closed form -1 + eps/2   (< 1 s)
  2.  Lyapunov solves match an adaptive-quadrature Gramian oracle   (< 30 s)
  3.  trace cost equals the averaged output-energy integral         (< 10 s)
  4.  every random simplex split yields a stable averaged matrix    (< 30 s)
  5.  analytic duration gradient matches central finite differences (< 60 s)
  6.  optimize() beats the uniform split and certifies its cost     (< 5 min)
  7.  averaging error shrinks with cycle time, < 10% at T = 100 s   (< 30 s)
  8.  distributed agents match the centralized Gramian in <= 4 rounds (< 2 min)
  9.  averaged matrix is invariant to rescaling the durations       (exact)
  10. same seed, byte-identical optimization artifacts

Budgets are asserted alongside the numerical checks, not just printed.
"""

import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.integrate import quad_vec, solve_ivp

from greensplit import cli, scenario
from greensplit.distributed import CommGraph, run_distributed
from greensplit.dynamics import assemble_modes, average_matrix
from greensplit.lyapunov import congestion_cost, solve_lyapunov, spectral_abscissa
from greensplit.net_model import uniform_schedule
from greensplit.optimizer import optimize
from greensplit.ssa import duration_gradient, smoothed_abscissa
from tests.conftest import make_hurwitz


def _verdict(num, label, t0, budget, ok, detail):
    elapsed = time.perf_counter() - t0
    in_budget = budget is None or elapsed < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    cap = "" if budget is None else f", budget {budget:g} s"
    print(f"[{status}] criterion {num:2d}: {label} ({elapsed:.2f} s{cap}) {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"
    assert in_budget, f"criterion {num} ({label}): {elapsed:.2f} s over budget {budget} s"


def test_criterion_01_scalar_closed_form():
    t0 = time.perf_counter()
    a = np.array([[-1.0]])
    c = np.array([[1.0]])
    x0 = np.array([1.0])
    worst = 0.0
    for eps in (0.5, 1.0, 2.0):
        got = smoothed_abscissa(a, c, x0, eps).value
        worst = max(worst, abs(got - (-1.0 + eps / 2.0)))
    _verdict(1, "scalar smoothed abscissa closed form", t0, 1.0,
             worst < 1e-8, f"max abs error {worst:.2e}")


def _quadrature_gramian(lam, d, horizon):
    w, v = np.linalg.eig(lam)
    vinv = np.linalg.inv(v)

    def integrand(t):
        e = (v * np.exp(w * t)) @ vinv
        return (e @ d @ e.conj().T).real.ravel()

    value, _ = quad_vec(integrand, 0.0, horizon, epsabs=1e-12, epsrel=1e-12)
    return value.reshape(lam.shape)


def test_criterion_02_lyapunov_vs_quadrature():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 9))
        while True:
            lam = make_hurwitz(rng, n)
            _, v = np.linalg.eig(lam)
            if np.linalg.cond(v) < 1e6:
                break
        g = rng.standard_normal((n, n))
        d = g @ g.T
        solved = solve_lyapunov(lam, d)
        oracle = _quadrature_gramian(lam, d, 40.0 / abs(spectral_abscissa(lam)))
        rel = np.linalg.norm(solved - oracle) / np.linalg.norm(oracle)
        worst = max(worst, rel)
    _verdict(2, "Lyapunov vs quadrature oracle, 100 systems", t0, 30.0,
             worst < 1e-6, f"max rel error {worst:.2e}")


def test_criterion_03_cost_equals_output_energy(four_net, four_modes, four_output):
    t0 = time.perf_counter()
    a = average_matrix(four_modes)
    x0 = np.ones(four_net.n)
    cost = congestion_cost(a, four_output, x0)
    horizon = 40.0 / abs(spectral_abscissa(a))

    # the chain blocks make the eigenbasis nearly defective, so integrate
    # the energy as an augmented state instead of diagonalizing
    def rhs(t, z):
        x = z[:-1]
        y = four_output @ x
        return np.append(a @ x, y @ y)

    sol = solve_ivp(rhs, (0.0, horizon), np.append(x0, 0.0),
                    method="LSODA", rtol=1e-10, atol=1e-12)
    energy = float(sol.y[-1, -1])
    rel = abs(cost - energy) / cost
    _verdict(3, "trace cost vs output-energy integral", t0, 10.0,
             rel < 1e-4, f"rel gap {rel:.2e}")


def test_criterion_04_random_splits_stay_stable():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = -np.inf
    cases = 0
    for name in ("four_intersections", "grid_3x3"):
        net = scenario.load(name)
        sched = uniform_schedule(net)
        ms = assemble_modes(net, sched)
        for _ in range(200):
            d = rng.dirichlet(np.ones(ms.n_modes)) * sched.cycle_time
            worst = max(worst, spectral_abscissa(average_matrix(ms, d)))
            cases += 1
    _verdict(4, "stability across random simplex splits", t0, 30.0,
             worst < 0.0, f"{cases} cases, max abscissa {worst:.3e}")


def test_criterion_05_gradient_matches_fd(four_net, four_modes, four_output):
    t0 = time.perf_counter()
    a = average_matrix(four_modes)
    x0 = np.ones(four_net.n)
    total = float(four_modes.durations.sum())
    eps = 1.0 / congestion_cost(a, four_output, x0)

    result = smoothed_abscissa(a, four_output, x0, eps, tol=1e-14)
    grad = duration_gradient(four_modes, result)

    step = 1e-5 * total
    fd = np.empty_like(grad)
    for i, mode in enumerate(four_modes.modes):
        # the gradient convention holds the cycle time fixed, so the
        # finite-difference probe must perturb the matrix the same way
        delta = (step / total) * mode
        hi = smoothed_abscissa(a + delta, four_output, x0, eps, tol=1e-14).value
        lo = smoothed_abscissa(a - delta, four_output, x0, eps, tol=1e-14).value
        fd[i] = (hi - lo) / (2.0 * step)

    mask = np.abs(grad) > 1e-8
    rel = np.abs(fd - grad)[mask] / np.abs(grad)[mask]
    _verdict(5, "analytic gradient vs central differences", t0, 60.0,
             bool(mask.any()) and float(rel.max()) < 1e-5,
             f"{int(mask.sum())}/{grad.size} components, max rel {rel.max():.2e}")


def test_criterion_06_optimize_end_to_end(four_net, four_modes, four_output):
    t0 = time.perf_counter()
    x0 = np.ones(four_net.n)
    report = optimize(four_modes, four_output, x0)

    baseline = congestion_cost(average_matrix(four_modes), four_output, x0)
    direct = congestion_cost(average_matrix(four_modes, report.durations),
                             four_output, x0)
    gaps = [row["simplex_gap"] for row in report.trajectory]
    mins = [row["d_min"] for row in report.trajectory]
    cert = abs(1.0 / report.epsilon - direct) / direct

    ok = (report.converged
          and report.cost <= baseline * (1.0 + 1e-12)
          and max(gaps) <= 1e-9
          and min(mins) >= -1e-12
          and cert < 1e-4)
    _verdict(6, "end-to-end optimization", t0, 300.0, ok,
             f"cost {report.cost:.2f} vs uniform {baseline:.2f}, "
             f"max simplex gap {max(gaps):.1e}, cert rel {cert:.1e}")


def test_criterion_07_averaging_error(single_net):
    t0 = time.perf_counter()
    from greensplit.sim import averaging_error
    x0 = np.ones(single_net.n)
    errors = {}
    for cycle in (120.0, 100.0, 60.0, 30.0):
        sched = uniform_schedule(single_net, cycle_time=cycle)
        errors[cycle] = averaging_error(single_net, sched, x0, 1200.0)
    decreasing = errors[120.0] > errors[60.0] > errors[30.0]
    ok = decreasing and errors[100.0] < 10.0
    _verdict(7, "averaging error vs cycle time", t0, 30.0, ok,
             "error% " + ", ".join(f"T={int(c)}: {errors[c]:.2f}" for c in (120.0, 100.0, 60.0, 30.0)))


def test_criterion_08_distributed_solver(four_modes):
    t0 = time.perf_counter()
    lam = average_matrix(four_modes)[:6, :6] - 0.05 * np.eye(6)
    d = np.ones((6, 6))
    graph = CommGraph.grid(3, 3)
    result = run_distributed(lam, d, graph, tol=1e-6)

    final = result.errors[-1]
    nonincreasing = bool(np.all(np.diff(result.errors, axis=0) <= 1e-12))
    share_gap = float(np.abs(sum(result.shares) - d).max())
    ok = (result.converged
          and result.rounds <= graph.diameter
          and final.max() <= 1e-6
          and nonincreasing
          and share_gap <= 1e-8)
    _verdict(8, "distributed Gramian consensus on 3x3 grid", t0, 120.0, ok,
             f"rounds {result.rounds}/{graph.diameter}, "
             f"max rel error {final.max():.1e}, share gap {share_gap:.1e}")


def test_criterion_09_scale_invariance(four_modes):
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    total = float(four_modes.durations.sum())
    worst = 0.0
    for d in (np.asarray(four_modes.durations),
              rng.dirichlet(np.ones(four_modes.n_modes)) * total):
        base = average_matrix(four_modes, d)
        for c in (0.5, 2.0):
            worst = max(worst, float(np.abs(average_matrix(four_modes, c * d) - base).max()))
    _verdict(9, "duration rescaling leaves the average unchanged", t0, None,
             worst <= 1e-14, f"max elementwise gap {worst:.1e}")


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    runner = CliRunner()
    payloads = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        res = runner.invoke(cli.main, ["optimize", "four_intersections",
                                       "--seed", "0", "--out", str(out)])
        assert res.exit_code == 0, res.output
        payloads.append(out.read_bytes())
    _verdict(10, "repeat runs are byte-identical", t0, None,
             payloads[0] == payloads[1],
             f"{len(payloads[0])} bytes each")
