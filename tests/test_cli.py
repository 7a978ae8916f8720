"""Command-line behavior: artifacts, headers, exit codes, determinism."""

import csv
import io
import json
import subprocess
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner

from greensplit import cli
from greensplit.errors import SolveFailure


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, **kwargs):
    result = runner.invoke(cli.main, list(args), **kwargs)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return result


def read_artifact(path):
    headers = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                headers.append(line.rstrip("\n"))
            else:
                break
    with open(path) as fh:
        body = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.reader(body))
    return headers, rows


def test_build_validate(runner):
    result = invoke(runner, "build", "single_road", "--validate")
    assert result.exit_code == 0
    assert result.output.startswith("ok single_road n=4")


def test_build_summary(runner):
    result = invoke(runner, "build", "four_intersections")
    assert result.exit_code == 0
    assert "roads:         12 (36 cells)" in result.output
    assert "modes:         4" in result.output


def test_build_export_round_trips(runner, tmp_path):
    out = tmp_path / "canon.yaml"
    result = invoke(runner, "build", "grid_3x3", "--out", str(out))
    assert result.exit_code == 0
    from greensplit import scenario
    assert scenario.load(out) == scenario.load("grid_3x3")


def test_unknown_scenario_is_validation_error():
    proc = subprocess.run(
        [sys.executable, "-m", "greensplit.cli", "build", "missing_thing"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("ValidationError: ")


def test_malformed_scenario_file(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema_version: 1\nroads: 7\n")
    proc = subprocess.run(
        [sys.executable, "-m", "greensplit.cli", "build", str(bad)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("ValidationError: ")


def test_non_numeric_value_is_one_validation_line(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        "schema_version: 1\n"
        "grid: {rows: 1, cols: 1, inflow: heavy}\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "greensplit.cli", "build", str(bad)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("ValidationError: ")
    assert "inflow" in proc.stderr


def test_cli_import_does_not_load_networkx():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, greensplit.cli; print('networkx' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_modes_listing(runner):
    result = invoke(runner, "modes", "single_road")
    assert result.exit_code == 0
    assert "mode 0: 50s  r1 -> r2" in result.output
    assert "mode 1: 50s  (all red)" in result.output


def test_modes_export_reconstructs_matrix(runner, tmp_path):
    out = tmp_path / "modes.csv"
    result = invoke(runner, "modes", "single_road", "--out", str(out))
    assert result.exit_code == 0
    headers, rows = read_artifact(out)
    assert rows[0] == ["mode", "row", "col", "value"]
    from greensplit import dynamics, net_model, scenario
    net = scenario.load("single_road")
    ms = dynamics.assemble_modes(net, net_model.uniform_schedule(net))
    rebuilt = np.zeros((ms.n_modes, net.n, net.n))
    for mode, row, col, value in rows[1:]:
        rebuilt[int(mode), int(row), int(col)] = float(value)
    np.testing.assert_array_equal(rebuilt, np.stack(ms.modes))


def test_simulate_writes_tidy_csv(runner, tmp_path):
    out = tmp_path / "traj.csv"
    result = invoke(runner, "simulate", "single_road", "--horizon", "50",
                    "--out", str(out))
    assert result.exit_code == 0
    headers, rows = read_artifact(out)
    assert headers[0] == "# greensplit 0.1.0"
    assert headers[1] == "# seed: 0"
    assert headers[2].startswith("# config: ")
    assert rows[0] == ["series", "t", "value"]
    series = {r[0] for r in rows[1:]}
    assert series == {"r1[1]", "r1[2]", "r1[3]", "r2[1]"}


QUOTED = """
schema_version: 1
name: quoted
h: 100.0
cycle_time: 60.0
roads:
  - {id: 'a,"x"', length: 100.0, free_flow_speed: 10.0, source: true, inflow: [[30, 0.1], [30, 0.0]]}
  - {id: 'b"', length: 100.0, free_flow_speed: 10.0, destination: true, exit_rate: 1.0}
movements:
  - {intersection: x, from: 'a,"x"', to: 'b"', routing_ratio: 1.0, saturation_speed: 0.05}
intersections:
  - id: x
    phases:
      - ['a,"x" -> b"']
"""


@pytest.mark.parametrize("mode", ["switching", "average"])
def test_simulate_csv_matches_csv_writer(runner, tmp_path, mode):
    # road ids with a comma and double quotes, or a double quote alone, and
    # values that print as 0.0, 1e-05 and 1e+16
    from greensplit import net_model, scenario, sim
    path = tmp_path / "quoted.yaml"
    path.write_text(QUOTED)
    x0 = tmp_path / "x0.txt"
    x0.write_text("1e-05\n1e16\n")
    out = tmp_path / "traj.csv"
    result = invoke(runner, "simulate", str(path), "--mode", mode, "--x0", str(x0),
                    "--horizon", "75", "--dt", "2.5", "--out", str(out))
    assert result.exit_code == 0

    network = scenario.load(path)
    schedule = net_model.uniform_schedule(network)
    run = sim.simulate_switching if mode == "switching" else sim.simulate_average
    traj = run(network, schedule, np.array([1e-05, 1e16]), 75.0, 2.5)
    expected = io.StringIO()
    expected.write(f"# greensplit {cli.__version__}\n# seed: 0\n"
                   f"# config: {scenario.config_hash(network)}\n")
    writer = csv.writer(expected)
    writer.writerow(["series", "t", "value"])
    for j, label in enumerate(network.state_labels):
        for t, v in zip(traj.times, traj.states[:, j]):
            writer.writerow([label, repr(float(t)), repr(float(v))])
    assert out.read_bytes() == expected.getvalue().encode()

    text = out.read_bytes().decode()
    assert '"a,""x""[1]",0.0,1e-05\r\n' in text
    assert '"b""[1]",0.0,1e+16\r\n' in text
    _, rows = read_artifact(out)
    assert rows[0] == ["series", "t", "value"]
    assert [r[0] for r in rows[1::len(traj.times)]] == ['a,"x"[1]', 'b"[1]']
    values = np.array([float(r[2]) for r in rows[1:]]).reshape(2, -1)
    np.testing.assert_array_equal(values, traj.states.T)


def test_simulate_average_mode(runner, tmp_path):
    out = tmp_path / "avg.csv"
    result = invoke(runner, "simulate", "single_road", "--mode", "average",
                    "--horizon", "50", "--out", str(out))
    assert result.exit_code == 0
    assert "average run" in result.output


def test_simulate_rejects_bad_state_file(runner, tmp_path):
    bad = tmp_path / "x0.txt"
    bad.write_text("1.0\n2.0\n")
    result = invoke(runner, "simulate", "single_road", "--x0", str(bad))
    assert result.exit_code == 2


@pytest.mark.parametrize("text", ["nan 1 1 inf\n", "1 1 -inf 1\n"])
def test_simulate_rejects_non_finite_state(tmp_path, text):
    x0 = tmp_path / "x0.txt"
    x0.write_text(text)
    out = tmp_path / "traj.csv"
    result = CliRunner().invoke(cli.main, ["simulate", "single_road", "--x0", str(x0),
                                           "--horizon", "10", "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr == "ValidationError: densities must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize("option", ["--horizon", "--dt"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_simulate_rejects_non_finite_span(tmp_path, option, value):
    out = tmp_path / "traj.csv"
    args = {"--horizon": "10", "--dt": "1", option: value}
    result = CliRunner().invoke(cli.main, ["simulate", "single_road", "--out", str(out),
                                           *(x for kv in args.items() for x in kv)])
    assert result.exit_code == 2
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("ValidationError: horizon and dt must be finite")
    assert not out.exists()


@pytest.mark.parametrize("command", [["simulate", "single_road"],
                                     ["simulate", "single_road", "--mode", "average"],
                                     ["compare-averaging", "single_road"]])
def test_horizon_within_the_sampling_tolerance_is_refused(tmp_path, command):
    out = tmp_path / "out.csv"
    result = CliRunner().invoke(cli.main, [*command, "--horizon", "1e-9",
                                           "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("ValidationError: horizon 1e-09 s leaves no step")
    assert not out.exists()


@pytest.mark.parametrize("command", [["simulate", "single_road"],
                                     ["simulate", "single_road", "--mode", "average"],
                                     ["compare-averaging", "single_road"]])
def test_dt_within_the_sampling_tolerance_is_refused(tmp_path, command):
    # a 1e-8 s horizon merges samples closer than 1e-9 s: the run would end
    # at 9e-9 s with irregular steps
    out = tmp_path / "out.csv"
    result = CliRunner().invoke(cli.main, [*command, "--horizon", "1e-8",
                                           "--dt", "1e-9", "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr == ("ValidationError: dt 1e-09 s must exceed the "
                             "sampling tolerance of 1e-09 s\n")
    assert not out.exists()


def test_simulate_state_file(runner, tmp_path):
    x0 = tmp_path / "x0.txt"
    x0.write_text("# densities\n1.0\n0.5\n0.25\n0.0\n")
    result = invoke(runner, "simulate", "single_road", "--x0", str(x0),
                    "--horizon", "10")
    assert result.exit_code == 0


def test_compare_averaging_monotone_column(runner, tmp_path):
    out = tmp_path / "err.csv"
    result = invoke(runner, "compare-averaging", "single_road",
                    "--cycles", "30,60,120", "--horizon", "600",
                    "--out", str(out))
    assert result.exit_code == 0
    _, rows = read_artifact(out)
    assert rows[0] == ["cycle_time", "error_percent"]
    errors = [float(r[1]) for r in rows[1:]]
    assert errors == sorted(errors)
    assert len(errors) == 3


def test_compare_averaging_bad_cycles(runner):
    result = invoke(runner, "compare-averaging", "single_road",
                    "--cycles", "abc")
    assert result.exit_code == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_compare_averaging_rejects_non_finite_cycle(tmp_path, value):
    out = tmp_path / "err.csv"
    result = CliRunner().invoke(cli.main, ["compare-averaging", "single_road",
                                           "--cycles", f"30,{value}", "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr == (
        f"ValidationError: cycle time {value} must be finite and positive\n")
    assert not out.exists()


def test_compare_averaging_shares_exponentials_within_one_command(runner, monkeypatch):
    from scipy import linalg

    from greensplit import sim
    calls = []
    expm = linalg.expm

    def counting(m):
        calls.append(m.shape)
        return expm(m)

    monkeypatch.setattr(sim.linalg, "expm", counting)
    args = ["compare-averaging", "four_intersections", "--cycles", "32,40,48,56"]
    first = invoke(runner, *args)
    assert first.exit_code == 0
    # four modes and the averaged matrix, the same at every uniform split
    assert len(calls) == 5
    calls.clear()
    second = invoke(runner, *args)
    assert len(calls) == 5          # nothing is kept between commands
    assert second.output == first.output


@pytest.mark.parametrize("command, out_name", [
    (["simulate", "four_intersections", "--dt", "0.7", "--horizon", "250.5"], "traj.csv"),
    (["compare-averaging", "four_intersections", "--cycles", "32,60"], "err.csv"),
])
def test_simulator_artifacts_are_deterministic(tmp_path, command, out_name):
    def run(tag):
        out = tmp_path / f"{tag}-{out_name}"
        proc = subprocess.run([sys.executable, "-m", "greensplit.cli", *command,
                               "--out", str(out)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    assert run(1) == run(2)


@pytest.mark.parametrize("command", [
    ["simulate", "single_road", "--horizon", "1e15"],
    ["simulate", "grid_4x4", "--mode", "average", "--dt", "1e-9"],
    ["compare-averaging", "single_road", "--cycles", "30,1e-12"],
    ["compare-averaging", "grid_4x4", "--cycles", "60", "--dt", "1e-7"],
])
def test_oversized_simulation_is_one_validation_line(tmp_path, command):
    out = tmp_path / "out.csv"
    start = time.perf_counter()
    result = CliRunner().invoke(cli.main, [*command, "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("ValidationError: ")
    assert "physical memory" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_optimize_rejects_bad_xi(tmp_path, value):
    out = tmp_path / "report.json"
    result = CliRunner().invoke(cli.main, ["optimize", "single_road", "--xi", value,
                                           "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("ValidationError: xi must be finite and positive")
    assert not out.exists()


def test_optimize_overflowing_xi_is_one_line(tmp_path):
    # the root search overflows at this increment; no numpy warning may
    # precede the typed error line
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "greensplit.cli", "optimize", "single_road",
         "--xi", "1e300", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("NoConvergence: ")
    assert not out.exists()


def test_optimize_has_no_mu_option(tmp_path):
    # each inner iterate takes the whole Newton step; no option scales it
    assert "--mu" not in CliRunner().invoke(cli.main, ["optimize", "--help"]).stdout
    out = tmp_path / "report.json"
    result = CliRunner().invoke(cli.main, ["optimize", "single_road", "--mu", "1.0",
                                           "--out", str(out)])
    assert result.exit_code == 2
    assert "No such option" in result.stderr and "--mu" in result.stderr
    assert not out.exists()


def test_optimize_rejects_negative_seed(tmp_path):
    out = tmp_path / "report.json"
    result = CliRunner().invoke(cli.main, ["optimize", "single_road", "--seed", "-1",
                                           "--starts", "1", "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr == "ValidationError: seed must be a nonnegative integer, got -1\n"
    assert not out.exists()


def test_optimize_budget_exit_4_writes_nothing(tmp_path, monkeypatch):
    from greensplit import optimizer
    monkeypatch.setattr(optimizer, "MAX_INNER", 1)
    out, trace = tmp_path / "report.json", tmp_path / "trace.csv"
    result = CliRunner().invoke(cli.main, ["optimize", "single_road", "--out", str(out),
                                           "--plot-out", str(trace)])
    assert result.exit_code == 4
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("NotConverged: ")
    assert not out.exists()
    assert not trace.exists()


def test_optimize_artifacts_and_determinism(tmp_path):
    def run(tag):
        report = tmp_path / f"r{tag}.json"
        trace = tmp_path / f"t{tag}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "greensplit.cli", "optimize", "single_road",
             "--seed", "7", "--out", str(report), "--plot-out", str(trace)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return report.read_bytes(), trace.read_bytes()

    r1, t1 = run(1)
    r2, t2 = run(2)
    assert r1 == r2
    assert t1 == t2

    payload = json.loads(r1)
    assert payload["version"] == "0.1.0"
    assert payload["seed"] == 7
    report = payload["report"]
    assert report["cost"] <= report["baseline_cost"]
    assert len(report["durations"]) == 2


def test_optimize_hashes_the_config_once(runner, tmp_path, monkeypatch):
    from greensplit import scenario
    calls = []
    config_hash = scenario.config_hash

    def counted(network):
        calls.append(network.name)
        return config_hash(network)

    monkeypatch.setattr(scenario, "config_hash", counted)
    report, trace = tmp_path / "r.json", tmp_path / "t.csv"
    result = invoke(runner, "optimize", "single_road", "--out", str(report),
                    "--plot-out", str(trace))
    assert result.exit_code == 0
    assert calls == ["single_road"]
    digest = config_hash(scenario.load("single_road"))
    assert json.loads(report.read_text())["config"] == digest
    headers, _ = read_artifact(trace)
    assert headers == ["# greensplit 0.1.0", "# seed: 0", f"# config: {digest}"]


def test_optimize_plot_columns(runner, tmp_path):
    trace = tmp_path / "trace.csv"
    result = invoke(runner, "optimize", "single_road",
                    "--plot-out", str(trace))
    assert result.exit_code == 0
    _, rows = read_artifact(trace)
    assert rows[0] == ["iter", "alpha_tilde", "kkt_norm", "cost"]
    assert len(rows) > 1
    iters = [int(r[0]) for r in rows[1:]]
    assert iters == list(range(len(iters)))


def test_optimize_empty_trajectory_header_only(runner, tmp_path):
    trace = tmp_path / "empty.csv"
    result = invoke(runner, "optimize", "single_road", "--x0", "zeros",
                    "--plot-out", str(trace))
    assert result.exit_code == 0
    _, rows = read_artifact(trace)
    assert rows == [["iter", "alpha_tilde", "kkt_norm", "cost"]]


def test_numerical_failure_maps_to_exit_3(runner, monkeypatch):
    def boom(*args, **kwargs):
        raise SolveFailure("synthetic failure")
    monkeypatch.setattr(cli, "optimize", boom)
    result = runner.invoke(cli.main, ["optimize", "single_road"])
    assert result.exit_code == 3


@pytest.mark.parametrize("entry", [(0, 0, np.nan), (1, 0, np.inf)])
def test_non_finite_averaged_matrix_maps_to_exit_3(runner, tmp_path, monkeypatch, entry):
    # single_road is a chain of singleton blocks: a NaN on a diagonal entry,
    # or an inf in a coupling entry, is never seen by LAPACK
    from greensplit import optimizer
    i, j, value = entry
    average = optimizer.average_matrix

    def poisoned(*args, **kwargs):
        a = average(*args, **kwargs).copy()
        a[i, j] = value
        return a

    monkeypatch.setattr(optimizer, "average_matrix", poisoned)
    out = tmp_path / "report.json"
    result = runner.invoke(cli.main, ["optimize", "single_road", "--out", str(out)])
    assert result.exit_code == 3
    assert result.stderr.startswith("EigenFailure: ")
    assert result.stderr.count("\n") == 1
    assert not out.exists()


def test_distributed_trace(runner, tmp_path):
    out = tmp_path / "dist.csv"
    result = invoke(runner, "distributed", "single_road", "--agents", "2x2",
                    "--out", str(out))
    assert result.exit_code == 0
    _, rows = read_artifact(out)
    assert rows[0] == ["round", "agent", "frobenius_error"]
    final = [float(r[2]) for r in rows[1:] if r[0] == rows[-1][0]]
    assert max(final) <= 1e-6


def test_distributed_round_budget_exit_4(runner):
    result = invoke(runner, "distributed", "single_road", "--agents", "path:3",
                    "--rounds", "0")
    assert result.exit_code == 4


@pytest.mark.parametrize("rounds", ["-3", "-1"])
def test_distributed_negative_round_budget_is_one_validation_line(tmp_path, rounds):
    out = tmp_path / "rounds.csv"
    result = CliRunner().invoke(cli.main, ["distributed", "single_road", "--rounds", rounds,
                                           "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr == (
        f"ValidationError: the round budget must be a nonnegative integer, got {rounds}\n")
    assert not out.exists()


def test_distributed_memory_preflight_is_one_validation_line(tmp_path):
    # grid_4x4 has 240 cells; 30x30 agents would each keep a 415 MB
    # estimate, 374 GB in all
    out = tmp_path / "rounds.csv"
    start = time.perf_counter()
    result = CliRunner().invoke(cli.main, ["distributed", "grid_4x4", "--agents", "30x30",
                                           "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("ValidationError: ")
    assert "physical memory" in result.stderr
    assert not out.exists()


def test_distributed_bad_layout(runner):
    result = invoke(runner, "distributed", "single_road", "--agents", "ring:9")
    assert result.exit_code == 2
