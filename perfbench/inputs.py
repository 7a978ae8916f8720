"""Seeded inputs for the benchmark workloads.

Every workload gets a scenario YAML file, an initial-state file and, where
the workload needs them, a list of splits or cycle times.  All of it is a
function of the seed: the same seed writes byte-identical files, and the
program under test reads only these files.

The seed moves the values (inflows, initial densities, splits, cycle
times) but not the sizes that set the amount of work (grid shape, cell
length, horizon, number of evaluations), so runs with different seeds do
comparable work.  The initial state of the optimize workload is only
perturbed by 0.2% around all-ones: the descent path, and with it the
iteration count, depends on the initial state (a 2% perturbation moves
the count by +-5%, and one seed at +-50% ran for over four minutes), so a
larger perturbation would measure different amounts of work per seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("optimize", "cost-sweep", "simulate", "distributed")

#: grid shape per workload; sizes are fixed, values are seeded
GRIDS = {
    "optimize": (2, 2),
    "cost-sweep": (3, 3),
    "simulate": (4, 4),
    "distributed": (1, 1),
}

#: every generated road is one 300 m block of 100 m cells
CELLS_PER_ROAD = 3
CYCLE_TIME = 100.0

#: cost evaluations per cost-sweep job; p95 then has 12 samples beyond it
SWEEP_EVALUATIONS = 240
#: every SWEEP_CHECK_EVERY-th evaluation is checked against scipy
SWEEP_CHECK_EVERY = 12

SIM_HORIZON = 3000.0
COMPARE_HORIZON = 6000.0
#: candidate cycle times for compare-averaging: multiples of 8 s, so every
#: phase switch of the four-phase cycle falls on a whole second and every
#: cycle time samples the same number of steps
COMPARE_CYCLE_CHOICES = tuple(range(32, 121, 8))
COMPARE_CYCLES = 4

DISTRIBUTED_AGENTS = 2

#: initial-state perturbation for the optimize workload, around all-ones
OPTIMIZE_X0_SPREAD = 0.002


def grid_cells(rows: int, cols: int) -> int:
    """State dimension of a generated rows x cols grid."""
    roads = 2 * rows * (cols + 1) + 2 * cols * (rows + 1)
    return roads * CELLS_PER_ROAD


def _scenario_text(name: str, rows: int, cols: int, inflow: float) -> str:
    return (
        "schema_version: 1\n"
        f"name: {name}\n"
        "grid:\n"
        f"  rows: {rows}\n"
        f"  cols: {cols}\n"
        "  h: 100.0\n"
        "  block_length: 300.0\n"
        f"  cycle_time: {CYCLE_TIME!r}\n"
        f"  inflow: {inflow!r}\n"
    )


def _write_vector(path: Path, values: np.ndarray) -> None:
    path.write_text("".join(f"{float(v)!r}\n" for v in values))


def make_inputs(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the inputs of one workload run and describe them.

    Returns a JSON-serializable mapping with the file paths and the
    parameters the job and its oracles need; it is also written to
    ``out_dir/spec.json``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    rows, cols = GRIDS[workload]
    n = grid_cells(rows, cols)
    inflow = round(float(rng.uniform(0.015, 0.025)), 6)
    name = f"bench_{workload.replace('-', '_')}_{seed}"

    scenario = out_dir / "scenario.yaml"
    scenario.write_text(_scenario_text(name, rows, cols, inflow))

    if workload == "optimize":
        x0 = 1.0 + OPTIMIZE_X0_SPREAD * rng.uniform(0.0, 1.0, n)
    else:
        x0 = 0.5 + rng.uniform(0.0, 1.0, n)
    x0_path = out_dir / "x0.txt"
    _write_vector(x0_path, x0)

    spec = {
        "workload": workload,
        "seed": seed,
        "scenario": str(scenario),
        "x0": str(x0_path),
        "n": n,
        "rows": rows,
        "cols": cols,
        "cycle_time": CYCLE_TIME,
    }
    if workload == "cost-sweep":
        splits = rng.dirichlet(np.ones(4), size=SWEEP_EVALUATIONS) * CYCLE_TIME
        splits_path = out_dir / "splits.txt"
        splits_path.write_text("".join(
            " ".join(repr(float(v)) for v in row) + "\n" for row in splits
        ))
        spec["splits"] = str(splits_path)
        spec["check_every"] = SWEEP_CHECK_EVERY
    elif workload == "simulate":
        cycles = np.sort(rng.choice(COMPARE_CYCLE_CHOICES, COMPARE_CYCLES,
                                    replace=False))
        spec["horizon"] = SIM_HORIZON
        spec["compare_horizon"] = COMPARE_HORIZON
        spec["cycles"] = ",".join(str(int(c)) for c in cycles)
    elif workload == "distributed":
        spec["agents"] = DISTRIBUTED_AGENTS
    (out_dir / "spec.json").write_text(json.dumps(spec, indent=1, sort_keys=True))
    return spec


def distributed_h_mb(n: int, n_agents: int) -> float:
    """Size of one agent's dense local system ``H_i`` in MiB, from shapes.

    ``H_i`` is 2n^2 x (n_agents + 1) n^2 doubles.
    """
    nn = n * n
    return 2 * nn * (n_agents + 1) * nn * 8 / 2**20


#: a distributed configuration may plan at most this share of MemAvailable
MEMORY_SHARE = 0.5


def distributed_plan_mb(n: int, n_agents: int) -> float:
    """Planned memory of a distributed solve: every agent's ``H_i`` plus
    one SVD workspace of the same order."""
    return (n_agents + 1) * distributed_h_mb(n, n_agents)


def mem_available_mb(meminfo: str = "/proc/meminfo") -> float:
    """``MemAvailable`` in MiB, read-only from the kernel's report."""
    with open(meminfo) as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no MemAvailable line in {meminfo}")


def memory_refusal(n: int, n_agents: int, available_mb: float) -> str | None:
    """Reason to refuse a distributed configuration, or ``None`` to run it."""
    planned = distributed_plan_mb(n, n_agents)
    if planned > MEMORY_SHARE * available_mb:
        return (f"distributed n={n} with {n_agents} agents plans {planned:.0f} MiB "
                f"(H_i {distributed_h_mb(n, n_agents):.0f} MiB each), over "
                f"{MEMORY_SHARE:.0%} of MemAvailable {available_mb:.0f} MiB")
    return None
