"""Output checks that do not reuse the layer they check.

Every check returns a list of failure messages; an empty list accepts.
The checks take plain arrays (mode matrices, durations, states), so they
can be exercised on perturbed results without running the program.  The
averaged matrix is formed here from the mode matrices, Lyapunov equations
are solved with ``scipy.linalg.solve_continuous_lyapunov`` (Bartels-Stewart
on a complex Schur form, not greensplit's shifted real-Schur solver), and
trajectories are propagated with this module's own product of
``scipy.linalg.expm`` over the mode windows.
"""

from __future__ import annotations

import csv
import json

import numpy as np
from scipy import linalg


def average(modes, durations) -> np.ndarray:
    """Duration-weighted mean of the mode matrices."""
    d = np.asarray(durations, dtype=float)
    return sum(w * a for w, a in zip(d, modes)) / d.sum()


def lyapunov_cost(a: np.ndarray, output: np.ndarray, x0: np.ndarray) -> float:
    """``trace(C W C^T)`` with ``A W + W A^T + x0 x0^T = 0``, via scipy."""
    w = linalg.solve_continuous_lyapunov(a, -np.outer(x0, x0))
    return float(np.trace(output @ w @ output.T))


def check_optimize(report: dict, modes, uniform, output, x0,
                   cycle_time: float) -> list[str]:
    """Converged, no worse than uniform, on the simplex, certified cost."""
    failures = []
    d = np.asarray(report["durations"], dtype=float)
    uniform_cost = lyapunov_cost(average(modes, uniform), output, x0)
    if not report["converged"]:
        failures.append("optimize: report says not converged")
    if abs(report["baseline_cost"] - uniform_cost) > 1e-8 * uniform_cost:
        failures.append(f"optimize: baseline cost {report['baseline_cost']!r} is not "
                        f"the uniform cost {uniform_cost!r}")
    if d.shape != (len(modes),) or np.any(d < 0):
        failures.append(f"optimize: durations {d.tolist()} are not a nonnegative split")
        return failures
    if abs(d.sum() - cycle_time) > 1e-9 * cycle_time:
        failures.append(f"optimize: durations sum to {d.sum()!r}, cycle is {cycle_time!r}")
    cost = lyapunov_cost(average(modes, d), output, x0)
    if cost > uniform_cost:
        failures.append(f"optimize: cost {cost!r} exceeds the uniform cost {uniform_cost!r}")
    certificate = abs(1.0 / report["epsilon"] - cost) / cost
    if not certificate < 1e-4:
        failures.append(f"optimize: 1/epsilon misses the cost at d* by {certificate:.3e}")
    if abs(report["cost"] - cost) > 1e-4 * cost:
        failures.append(f"optimize: reported cost {report['cost']!r}, scipy gives {cost!r}")
    return failures


def check_costs(costs, splits, modes, output, x0, every: int) -> list[str]:
    """Every ``every``-th evaluation agrees with scipy within 1e-8 relative."""
    failures = []
    if len(costs) != len(splits):
        return [f"cost-sweep: {len(costs)} costs for {len(splits)} splits"]
    for k in range(0, len(splits), every):
        want = lyapunov_cost(average(modes, splits[k]), output, x0)
        if not abs(costs[k] - want) <= 1e-8 * abs(want):
            failures.append(f"cost-sweep: split {k} cost {costs[k]!r}, scipy gives {want!r}")
    return failures


def read_trajectory(path: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Series labels, sample times and states (samples x series) of a tidy CSV."""
    labels: list[str] = []
    times: list[float] = []
    values: list[float] = []
    with open(path, newline="") as fh:
        rows = csv.reader(line for line in fh if not line.startswith("#"))
        if next(rows) != ["series", "t", "value"]:
            raise ValueError(f"{path}: unexpected columns")
        for label, t, v in rows:
            if not labels or labels[-1] != label:
                labels.append(label)
            times.append(float(t))
            values.append(float(v))
    per_series = len(times) // max(len(labels), 1)
    if len(times) != per_series * len(labels):
        raise ValueError(f"{path}: {len(times)} rows do not split evenly over "
                         f"{len(labels)} series")
    states = np.asarray(values).reshape(len(labels), per_series).T
    return labels, np.asarray(times[:per_series]), states


def cycle_map(windows, drift: np.ndarray) -> np.ndarray:
    """Augmented one-cycle transition ``[[Phi, f], [0, 1]]`` of
    ``x' = A_k x + b`` over the mode windows ``(A_k, tau_k)``."""
    n = drift.shape[0]
    total = np.eye(n + 1)
    for a, tau in windows:
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = a
        aug[:n, n] = drift
        total = linalg.expm(aug * tau) @ total
    return total


def check_trajectory(path: str, n: int, horizon: float, dt: float, windows,
                     drift: np.ndarray, x0: np.ndarray, cycle_time: float) -> list[str]:
    """Row count n x samples; cycle-boundary states match the expm product."""
    try:
        labels, times, states = read_trajectory(path)
    except ValueError as exc:
        return [f"simulate: {exc}"]
    samples = int(round(horizon / dt)) + 1
    failures = []
    if len(labels) != n or times.shape[0] != samples or states.shape != (samples, n):
        return [f"simulate: {len(labels)} series x {times.shape[0]} samples, "
                f"expected {n} x {samples}"]
    step = cycle_map(windows, drift)
    z = np.append(x0, 1.0)
    for k in range(int(horizon // cycle_time) + 1):
        t = k * cycle_time
        i = int(np.searchsorted(times, t - 1e-9))
        if i >= times.shape[0] or abs(times[i] - t) > 1e-9 * max(t, 1.0):
            failures.append(f"simulate: no sample at cycle boundary t={t!r}")
            break
        err = np.linalg.norm(states[i] - z[:n]) / np.linalg.norm(z[:n])
        if not err <= 1e-9:
            failures.append(f"simulate: state at t={t!r} is off by {err:.3e} relative")
            break
        z = step @ z
    return failures


def check_averaging(path: str, cycles: list[float]) -> list[str]:
    """One row per cycle time, and the error falls as the cycle shrinks."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    if rows[0] != ["cycle_time", "error_percent"]:
        return ["compare-averaging: unexpected columns"]
    got = [(float(c), float(e)) for c, e in rows[1:]]
    if [c for c, _ in got] != [float(c) for c in cycles]:
        return [f"compare-averaging: cycles {[c for c, _ in got]} != {cycles}"]
    errors = [e for _, e in sorted(got)]
    if not all(0.0 < lo < hi for lo, hi in zip(errors, errors[1:])):
        return [f"compare-averaging: errors {errors} do not fall with the cycle time"]
    return []


def check_distributed(blocks, a: np.ndarray, x0: np.ndarray) -> list[str]:
    """Every agent's block within 1e-6 (relative Frobenius) of scipy's solve."""
    want = linalg.solve_continuous_lyapunov(a, -np.outer(x0, x0))
    scale = np.linalg.norm(want)
    failures = []
    if len(blocks) == 0:
        failures.append("distributed: no agent blocks")
    for i, block in enumerate(blocks):
        err = np.linalg.norm(np.asarray(block) - want) / scale
        if not err <= 1e-6:
            failures.append(f"distributed: agent {i} is off by {err:.3e} relative")
    return failures


def load_report(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)["report"]
