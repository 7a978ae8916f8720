"""Tests of the benchmark's own parts: inputs, oracles, tracing, metrics.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import inputs
import oracles
import run
import tracing
from greensplit import cli, dynamics, lyapunov, net_model, scenario
from greensplit.distributed import CommGraph, run_distributed
from greensplit.lyapunov import congestion_cost
from greensplit.optimizer import optimize

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _system(name):
    net = scenario.load(name)
    modes = dynamics.assemble_modes(net, net_model.uniform_schedule(net))
    return net, modes, dynamics.output_map(net)


# -- inputs ------------------------------------------------------------------

@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    a = inputs.make_inputs(workload, 7, tmp_path / "a")
    b = inputs.make_inputs(workload, 7, tmp_path / "b")
    files = [k for k in ("scenario", "x0", "splits") if k in a]
    for key in files:
        assert Path(a[key]).read_bytes() == Path(b[key]).read_bytes()
    assert {k: v for k, v in a.items() if k not in files} == \
        {k: v for k, v in b.items() if k not in files}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_other_seed_gives_other_valid_inputs(tmp_path, workload):
    a = inputs.make_inputs(workload, 1, tmp_path / "a")
    b = inputs.make_inputs(workload, 2, tmp_path / "b")
    assert Path(a["x0"]).read_bytes() != Path(b["x0"]).read_bytes()
    assert Path(a["scenario"]).read_bytes() != Path(b["scenario"]).read_bytes()
    for spec in (a, b):
        net = scenario.load(spec["scenario"])
        assert net.n == spec["n"]
        x0 = cli.load_state(spec["x0"], net)
        assert np.all(x0 > 0)
        if workload == "cost-sweep":
            splits = np.loadtxt(spec["splits"])
            assert splits.shape == (inputs.SWEEP_EVALUATIONS, 4)
            assert np.all(splits >= 0)
            assert np.allclose(splits.sum(axis=1), spec["cycle_time"])
        if workload == "simulate":
            cycles = [int(c) for c in spec["cycles"].split(",")]
            assert cycles == sorted(set(cycles)) and len(cycles) == inputs.COMPARE_CYCLES
            assert all(c % 4 == 0 for c in cycles)


def test_memory_preflight():
    # grid_3x3 on a 2x2 agent grid: one H_i alone is about 34 GB
    assert inputs.distributed_h_mb(144, 4) * 2**20 == pytest.approx(34.4e9, rel=0.01)
    assert inputs.memory_refusal(144, 4, available_mb=7000) is not None
    assert inputs.memory_refusal(24, 2, available_mb=7000) is None
    assert inputs.memory_refusal(24, 2, available_mb=50) is not None
    assert inputs.mem_available_mb() > 0


def test_refused_configuration_counts_as_failure_and_launches_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(inputs, "mem_available_mb", lambda: 10.0)
    r = run.Run("distributed", 0, 1, False)
    assert r.execute() is None
    assert (r.attempted, r.failed) == (1, 1)
    assert "MemAvailable" in r.failures[0]
    assert r.probes == [] and not list(r.work.glob("job*"))


# -- oracles -----------------------------------------------------------------

def test_cost_oracle_rejects_a_perturbed_cost():
    _, modes, output = _system("four_intersections")
    x0 = np.linspace(0.5, 1.5, modes.n)
    splits = np.random.default_rng(0).dirichlet(np.ones(modes.n_modes), 6) * 100.0
    costs = [congestion_cost(dynamics.average_matrix(modes, d), output, x0) for d in splits]
    assert oracles.check_costs(costs, splits, modes.modes, output, x0, every=2) == []
    bad = list(costs)
    bad[2] *= 1 + 1e-6
    assert oracles.check_costs(bad, splits, modes.modes, output, x0, every=2)
    assert oracles.check_costs(costs[:-1], splits, modes.modes, output, x0, every=2)


@pytest.fixture(scope="module")
def single_road_report():
    net, modes, output = _system("single_road")
    x0 = np.ones(net.n)
    return modes, output, x0, optimize(modes, output, x0).to_dict()


def test_optimize_oracle_accepts_the_program_and_rejects_perturbations(single_road_report):
    modes, output, x0, report = single_road_report
    args = (modes.modes, modes.durations, output, x0, modes.cycle_time)
    assert oracles.check_optimize(report, *args) == []

    shifted = dict(report, durations=list(np.asarray(report["durations"]) + [5.0, -5.0]))
    assert oracles.check_optimize(shifted, *args)
    scaled = dict(report, durations=list(np.asarray(report["durations"]) * (1 + 1e-6)))
    assert oracles.check_optimize(scaled, *args)
    assert oracles.check_optimize(dict(report, epsilon=report["epsilon"] * 1.01), *args)
    assert oracles.check_optimize(dict(report, converged=False), *args)
    uniform = dict(report, durations=list(modes.durations), cost=report["baseline_cost"],
                   epsilon=1.0 / report["baseline_cost"])
    worse = dict(uniform, durations=[90.0, 10.0])
    assert oracles.check_optimize(worse, *args)


def test_trajectory_oracles(tmp_path):
    spec = inputs.make_inputs("distributed", 3, tmp_path / "in")
    traj, err = tmp_path / "traj.csv", tmp_path / "err.csv"
    runner = CliRunner()
    for argv in (["simulate", spec["scenario"], "--x0", spec["x0"], "--horizon", "300",
                  "--out", str(traj)],
                 ["compare-averaging", spec["scenario"], "--x0", spec["x0"],
                  "--cycles", "32,64", "--horizon", "600", "--out", str(err)]):
        assert runner.invoke(cli.main, argv).exit_code == 0
    net = scenario.load(spec["scenario"])
    modes = dynamics.assemble_modes(net, net_model.uniform_schedule(net))
    drift = modes.input_map @ net.average_inflow()
    windows = list(zip(modes.modes, modes.durations))
    x0 = np.loadtxt(spec["x0"])

    def check(path):
        return oracles.check_trajectory(str(path), net.n, 300.0, 1.0, windows, drift, x0,
                                        spec["cycle_time"])
    assert check(traj) == []
    assert oracles.check_averaging(str(err), [32.0, 64.0]) == []

    lines = traj.read_text().splitlines(keepends=True)
    target = next(i for i, line in enumerate(lines) if ",200.0," in line)
    label, t, value = lines[target].strip().split(",")
    bumped = tmp_path / "bumped.csv"
    bumped.write_text("".join(lines[:target] + [f"{label},{t},{float(value) * (1 + 1e-6)!r}\n"]
                              + lines[target + 1:]))
    assert check(bumped)
    short = tmp_path / "short.csv"
    short.write_text("".join(lines[:-1]))
    assert check(short)

    err_lines = err.read_text().splitlines(keepends=True)
    swapped = tmp_path / "swapped.csv"
    c1, e1 = err_lines[-2].strip().split(",")
    c2, e2 = err_lines[-1].strip().split(",")
    swapped.write_text("".join(err_lines[:-2]) + f"{c1},{e2}\n{c2},{e1}\n")
    assert oracles.check_averaging(str(swapped), [32.0, 64.0])


def test_distributed_oracle_rejects_a_perturbed_block():
    net, modes, _ = _system("single_road")
    x0 = np.linspace(0.5, 1.5, net.n)
    a = dynamics.average_matrix(modes)
    result = run_distributed(a, np.outer(x0, x0), CommGraph.path(2))
    own_a = oracles.average(modes.modes, modes.durations)
    assert oracles.check_distributed(result.solutions, own_a, x0) == []
    bad = [s.copy() for s in result.solutions]
    bad[1] *= 1 + 1e-5
    assert oracles.check_distributed(bad, own_a, x0)
    assert oracles.check_distributed([], own_a, x0)


# -- tracing -----------------------------------------------------------------

def test_self_time_subtracts_direct_children():
    spans = [[0, -1, "a", 0.0, 10.0, False],
             [1, 0, "b", 1.0, 4.0, False],
             [2, 1, "c", 2.0, 3.0, False],
             [3, 0, "b", 5.0, 6.0, False]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def _bindings():
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if name == "greensplit" or name.startswith("greensplit.")
            for attr, value in vars(mod).items()}


def test_tracer_covers_every_alias_and_restores_them():
    import greensplit.cli  # noqa: F401  (the CLI's own aliases must be covered)
    before = _bindings()
    originals = {id(vars(owner)[attr]) for owner, attr in
                 (tracing._resolve(m, p) for m, p, _ in tracing.TARGETS)}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        left = [key for key, value in _bindings().items() if id(value) in originals]
        assert left == []
        _, modes, output = _system("single_road")
        # resolved at call time, as the package's own callers do
        lyapunov.congestion_cost(dynamics.average_matrix(modes), output, np.ones(modes.n))
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names.count("lyapunov.factor") == 1
    assert names.count("lyapunov.eigvals") == 2
    metrics = tracing.layer_metrics(tracer.spans, tracer.returns)
    assert metrics["lyapunov.congestion_cost.calls"] == 1
    assert set(metrics) <= set(run.PER_LAYER)


# -- metrics and the result line ---------------------------------------------

def test_metric_names_match_the_benchmark_file():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(inputs.WORKLOADS)
    for name in [*e2e, *layers]:
        assert NAME.fullmatch(name) and len(name) <= 64


def _fake_job(walls, layers=None):
    reps = [{"wall_s": w, "cpu_s": 0.9 * w, "minor_faults": 10,
             "latencies_ms": [float(i) for i in range(240)]}
            for w in walls]
    return {"reps": reps, "rss_mb": 80.0, "artifact_mb": 1.0, "digests": {},
            "layers": layers or {}}


@pytest.mark.parametrize("trace", [False, True])
def test_result_metrics_are_exactly_the_listed_ones(tmp_path, trace):
    r = run.Run("cost-sweep", 0, 1, trace)
    r.probes = [{"setup_s": 0.7, "import_s": 0.6, "load_s": 0.05, "assemble_s": 0.05}] * 3
    layers = tracing.layer_metrics([], {})
    jobs = [_fake_job([4.0]), _fake_job([4.5], layers)] if trace else \
        [_fake_job([4.0, 4.5, 4.2])]
    metrics = r.metrics({"spec": {"n": 144}, "jobs": jobs})
    want = run.PER_LAYER if trace else run.END_TO_END
    assert set(metrics) == set(want)
    for name, m in metrics.items():
        assert NAME.fullmatch(name)
        assert m["unit"] == want[name]
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert metrics["job_cpu_s"]["value"] == pytest.approx(0.9 * 4.2)


def test_percentile_summary_needs_ten_samples_beyond():
    assert "p95" in run.percentile_summary(list(range(240)))
    assert set(run.percentile_summary([1.0, 2.0, 3.0])) == {"p50", "count"}


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "optimize", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
