"""Command-line behavior: artifacts, headers, exit codes, determinism."""

import csv
import errno
import io
import json
import logging
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greensplit import cli, scenario
from greensplit import distributed as dist
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


def test_inflow_past_the_float_range_is_one_validation_line(tmp_path):
    # a YAML integer of 401 digits reaches the number reader as an int that
    # float() cannot convert
    text = scenario.resolve("four_intersections")
    line = "{id: r1, length: 300.0, free_flow_speed: 14.0, source: true, inflow: 0.02}"
    assert line in text
    bad = tmp_path / "huge.yaml"
    bad.write_text(text.replace(line, line.replace("0.02", "1" + "0" * 400)))
    proc = subprocess.run(
        [sys.executable, "-m", "greensplit.cli", "build", str(bad)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    # an integer past the float range is named by its digit count
    assert proc.stderr == ("ValidationError: road 'r1': inflow must be a number, "
                           "got an integer of 401 digits\n")


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


# the floats at which orjson's text and repr's part ways, their neighbours
# and the values at the ends of the float64 range
EDGES = [v for p in (1e-4, 1e16)
         for q in (p, np.nextafter(p, 0.0), np.nextafter(p, np.inf))
         for v in (float(q), -float(q))]
EDGES += [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max,
          float("nan"), float("inf"), float("-inf")]

BIT_FLOATS = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))
FLOAT_ARRAYS = st.lists(st.one_of(BIT_FLOATS, st.sampled_from(EDGES)), max_size=40).map(
    lambda xs: np.array(xs, dtype=np.float64))
INT_ARRAYS = st.lists(st.integers(-2**63, 2**63 - 1), max_size=40).map(
    lambda xs: np.array(xs, dtype=np.int64))
# a column of a two-column array: stride 16 bytes, not C contiguous
STRIDED = FLOAT_ARRAYS.map(lambda x: np.column_stack([-x, x])[:, 1])


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(FLOAT_ARRAYS, INT_ARRAYS, STRIDED))
@example(np.array([]))
@example(np.array([], dtype=np.int64))
@example(np.array([1e-05]))
@example(np.array([0.25]))
@example(np.array([7]))
def test_cells_are_repr_of_each_number(values):
    expected = list(map(repr, values.tolist()))
    assert cli._cells(values) == expected
    assert cli._cells(values.tolist()) == expected


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


@pytest.mark.parametrize("text", ["", "# no densities\n# at all\n"])
def test_empty_state_file_is_one_dimension_line(tmp_path, recwarn, text):
    # numpy warns that the file holds no data; only the typed line may show
    x0 = tmp_path / "x0.txt"
    x0.write_text(text)
    result = CliRunner().invoke(cli.main, ["simulate", "single_road", "--x0", str(x0)])
    assert result.exit_code == 2
    assert result.stderr == "DimensionError: state file has 0 entries, network has 4 cells\n"
    assert not recwarn.list


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



def test_compare_averaging_empty_cycle_list(tmp_path):
    out = tmp_path / "err.csv"
    result = CliRunner().invoke(cli.main, ["compare-averaging", "single_road",
                                           "--cycles", ",,", "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr == "ValidationError: no cycle time given in ',,'\n"
    assert not out.exists()

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
    # five keys, the same at every uniform split: four modes with
    # corridors of two orders each (4x6+4x3 or 1x12+8x3), one expm call per
    # order, and the averaged matrix, one corridor of 36 cells
    assert sorted(calls) == sorted([(4, 7, 7), (4, 4, 4)] * 3 + [(1, 13, 13), (8, 4, 4)]
                                   + [(1, 37, 37)])
    calls.clear()
    second = invoke(runner, *args)
    assert len(calls) == 9          # nothing is kept between commands
    assert second.output == first.output



@pytest.mark.parametrize("cycles, runs", [("40,80,96,112", 1), (None, 2)])
def test_compare_averaging_runs_the_averaged_system_once_per_grid(runner, tmp_path,
                                                                   monkeypatch, cycles, runs):
    # every switch of 40, 80, 96 and 112 s falls on the 1 s grid; in the
    # default 30,60,100,120 the 7.5 s switches of T=30 give it its own grid
    from greensplit import net_model, scenario, sim
    calls = []
    propagate = sim._propagate

    def counting(x0, plan, table):
        # the grid points each run hands out, one entry per run stepped
        points = []
        calls.append(points)
        for indices, states in propagate(x0, plan, table):
            points.append(indices.copy())
            yield indices, states

    monkeypatch.setattr(sim, "_propagate", counting)
    out = tmp_path / "err.csv"
    args = ["compare-averaging", "four_intersections", "--out", str(out)]
    result = invoke(runner, *args, *(["--cycles", cycles] if cycles else []))
    assert result.exit_code == 0
    _, rows = read_artifact(out)
    # one switched run per cycle, and the averaged runs; each hands out
    # every point of its grid once
    assert len(calls) == len(rows) - 1 + runs
    for points in calls:
        handed = np.sort(np.concatenate(points))
        np.testing.assert_array_equal(handed, np.arange(handed.shape[0]))
    network = scenario.load("four_intersections")
    horizon = 10.0 * max(float(r[0]) for r in rows[1:])
    for cycle, error in rows[1:]:
        schedule = net_model.uniform_schedule(network, cycle_time=float(cycle))
        fresh = sim.averaging_error(network, schedule, np.ones(network.n), horizon)
        assert float(error) == fresh


def _planned(caplog):
    """Planned bytes of each run the simulator logged."""
    return [int(re.search(r"(\d+) bytes planned", r.getMessage()).group(1))
            for r in caplog.records if r.name == "greensplit.sim"]


def test_compare_averaging_sweep_stays_within_its_memory_plan(tmp_path, caplog):
    # a sweep holds the averaged run and streams each switched run against
    # it; the traced peak, 19.4 MB, stays under what the largest cycle's
    # plan counts (a sweep that held the switched run too peaked at 29.7 MB
    # here, and one that also held the previous cycle's runs at 89.5 MB)
    import tracemalloc
    caplog.set_level(logging.DEBUG, logger="greensplit.sim")
    cycles, horizon = [40.0, 80.0, 96.0, 112.0], 6000.0
    args = ["compare-averaging", "grid_4x4", "--cycles", ",".join(map(repr, cycles)),
            "--horizon", repr(horizon), "--out", str(tmp_path / "err.csv")]
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = CliRunner().invoke(cli.main, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert result.exit_code == 0, result.output
    plans = _planned(caplog)
    assert len(plans) == len(cycles)
    assert peak < max(plans)
    assert peak < 25e6


def test_sweep_refused_by_a_later_cycle_plan_is_one_validation_line(tmp_path, monkeypatch,
                                                                     caplog):
    # T=60 puts every step on the 1 s grid; the 9.25 s switches of T=37
    # add exponentials to the table.  With half of memory just below the
    # second plan, every cycle passes the check from sizes alone, the first
    # cycle runs, and the second is refused by its plan.
    from greensplit import errors
    caplog.set_level(logging.DEBUG, logger="greensplit.sim")
    args = ["compare-averaging", "four_intersections", "--cycles", "60,37",
            "--horizon", "600"]
    assert CliRunner().invoke(cli.main, args).exit_code == 0
    first, second = _planned(caplog)
    assert first < second
    sysconf = errors.os.sysconf
    monkeypatch.setattr(errors.os, "sysconf", lambda name: {
        "SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 2 * second - 2}.get(name) or sysconf(name))
    caplog.clear()
    out = tmp_path / "err.csv"
    result = CliRunner().invoke(cli.main, [*args, "--out", str(out)])
    assert result.exit_code == 2
    assert len(_planned(caplog)) == 2
    assert result.stdout.startswith("T=60: error ")
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("ValidationError: a run of 600 s at dt 1 s (cycle 37 s)")
    assert "physical memory" in result.stderr
    assert not out.exists()


def test_sweep_plans_one_trajectory(tmp_path, monkeypatch, caplog):
    # 6001 points at 1 s.  A plan that counted the switched run beside the
    # averaged one held two rows of 2n+16 doubles per point, 47.6 MB
    # (56.7 MB with the rest).  With half of memory just below that the
    # sweep runs; with half of memory just below its own plan it is one
    # ValidationError line and writes nothing
    from greensplit import errors
    caplog.set_level(logging.DEBUG, logger="greensplit.sim")
    n, points = scenario.load("grid_4x4").n, 6001
    two_runs = 2 * points * (2 * n + 16) * 8
    sysconf = errors.os.sysconf

    def half_of_memory(size):
        monkeypatch.setattr(errors.os, "sysconf", lambda name: {
            "SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 2 * size}.get(name) or sysconf(name))

    args = ["compare-averaging", "grid_4x4", "--cycles", "40,80,96,112", "--horizon", "6000"]
    half_of_memory(two_runs - 1)
    result = CliRunner().invoke(cli.main, [*args, "--out", str(tmp_path / "err.csv")])
    assert result.exit_code == 0, result.output
    plans = _planned(caplog)
    assert len(plans) == 4
    assert max(plans) < two_runs - 1
    assert all(f"{points} samples" in r.getMessage() for r in caplog.records
               if r.name == "greensplit.sim")
    half_of_memory(max(plans) - 1)
    out = tmp_path / "refused.csv"
    result = CliRunner().invoke(cli.main, [*args, "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("ValidationError: a run of 6000 s at dt 1 s (cycle 40 s)")
    assert "physical memory" in result.stderr
    assert not out.exists()


def test_sweep_whose_plans_fit_passes_the_check_from_sizes(tmp_path, monkeypatch, caplog):
    # the check from sizes alone counts the grid work and the inflows of
    # the bound on the grid points; the trajectory and the exponentials are
    # counted by the plan alone.  Counting a trajectory over that bound,
    # 6,615 points for T=40 where the grid has 6,001, it read 34.1 MB
    # against the plan's 32.9 MB, and refused a sweep whose plans all fit
    from greensplit import errors
    caplog.set_level(logging.DEBUG, logger="greensplit.sim")
    args = ["compare-averaging", "grid_4x4", "--cycles", "40,80,96,112", "--horizon", "6000"]
    assert CliRunner().invoke(cli.main, args).exit_code == 0
    plans = _planned(caplog)
    assert len(plans) == 4
    sysconf = errors.os.sysconf
    monkeypatch.setattr(errors.os, "sysconf", lambda name: {
        "SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 2 * max(plans) + 2}.get(name) or sysconf(name))
    caplog.clear()
    out = tmp_path / "err.csv"
    result = CliRunner().invoke(cli.main, [*args, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert _planned(caplog) == plans
    _, rows = read_artifact(out)
    assert len(rows) == 5


@pytest.mark.parametrize("mode", ["switching", "average"])
def test_simulate_ends_at_the_horizon(runner, tmp_path, mode):
    # the last uniform sample, 9.9e-9 s, is within the grid's 1e-9 s
    # tolerance below the horizon
    out = tmp_path / "traj.csv"
    result = invoke(runner, "simulate", "single_road", "--mode", mode, "--horizon", "1e-8",
                    "--dt", "1.1e-9", "--out", str(out))
    assert result.exit_code == 0
    assert "10 samples, t_end=1e-08" in result.output
    _, rows = read_artifact(out)
    assert rows[10][1] == "1e-08"

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


@pytest.mark.parametrize("value", ["nan", "inf", "0", "0.05"])
def test_optimize_rejects_bad_xi(tmp_path, value):
    # --xi set the first increment of a weight continuation that a projected
    # Newton descent on the cost replaced; every value is now a usage error
    assert "--xi" not in CliRunner().invoke(cli.main, ["optimize", "--help"]).stdout
    out = tmp_path / "report.json"
    result = CliRunner().invoke(cli.main, ["optimize", "single_road", "--xi", value,
                                           "--out", str(out)])
    assert result.exit_code == 2
    assert "No such option" in result.stderr and "--xi" in result.stderr
    assert not out.exists()


def test_optimize_has_no_mu_option(tmp_path):
    # a Newton step that lowers the cost is taken whole; no option scales it
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
    # the descent reaches the optimum, a vertex, in 1 Newton step here, so
    # only a budget of 0 stops it
    monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 0)
    out, trace = tmp_path / "report.json", tmp_path / "trace.csv"
    result = CliRunner().invoke(cli.main, ["optimize", "single_road", "--out", str(out),
                                           "--plot-out", str(trace)])
    assert result.exit_code == 4
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("NotConverged: ")
    assert not out.exists()
    assert not trace.exists()


def test_optimize_overall_budget_exit_4_writes_nothing(tmp_path, monkeypatch):
    from greensplit import optimizer
    # the descent takes 5 Newton steps here
    monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 3)
    out, trace = tmp_path / "report.json", tmp_path / "trace.csv"
    result = CliRunner().invoke(cli.main, ["optimize", "four_intersections", "--out", str(out),
                                           "--plot-out", str(trace)])
    assert result.exit_code == 4
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("NotConverged: optimize hit its iteration budget")
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
    assert rows[0] == ["iter", "cost", "kkt_norm"]
    assert len(rows) > 1
    iters = [int(r[0]) for r in rows[1:]]
    assert iters == list(range(len(iters)))


def test_optimize_empty_trajectory_header_only(runner, tmp_path):
    trace = tmp_path / "empty.csv"
    result = invoke(runner, "optimize", "single_road", "--x0", "zeros",
                    "--plot-out", str(trace))
    assert result.exit_code == 0
    _, rows = read_artifact(trace)
    assert rows == [["iter", "cost", "kkt_norm"]]


def test_optimize_zero_state_report_is_strict_json(runner, tmp_path):
    # at zero cost epsilon = 1/J is infinite; JSON (RFC 8259) has no
    # Infinity, so the report writes null
    out = tmp_path / "report.json"
    result = invoke(runner, "optimize", "single_road", "--x0", "zeros", "--out", str(out))
    assert result.exit_code == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    report = json.loads(out.read_text(), parse_constant=refuse)["report"]
    assert report["cost"] == report["baseline_cost"] == 0.0
    assert report["epsilon"] is None


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


@pytest.mark.parametrize("layout", ["-2x-3", "2x-3", "0x3", "path:0", "path:-3"])
def test_distributed_layout_of_no_agents_is_one_validation_line(tmp_path, layout):
    # -2x-3 once built 6 agents with no links, which never agreed (exit 4)
    out = tmp_path / "rounds.csv"
    result = CliRunner().invoke(cli.main, ["distributed", "single_road", "--agents", layout,
                                           "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr == (
        f"ValidationError: agent layout {layout!r} needs positive sizes\n")
    assert not out.exists()


def test_integer_too_long_to_read_is_one_validation_line(tmp_path):
    # PyYAML reads an integer with int(), which Python refuses beyond 4300
    # digits; the ValueError once escaped as a traceback with exit 1
    path = tmp_path / "huge.yaml"
    path.write_text(scenario.resolve("single_road").replace(
        "\nh: 100.0\n", "\nh: 1" + "0" * 5000 + "\n"))
    result = CliRunner().invoke(cli.main, ["build", str(path)])
    assert result.exit_code == 2
    assert result.stderr.startswith("ValidationError: scenario holds a value that cannot "
                                    "be read: ")
    assert "5001 digits" in result.stderr
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("failure", ["utf8", "oserror"])
def test_unreadable_scenario_file_is_one_validation_line(tmp_path, monkeypatch, failure):
    # Path.read_text once ran outside any handler: bytes that are not
    # UTF-8 ended as a UnicodeDecodeError traceback with exit 1
    path = tmp_path / "bad.yaml"
    if failure == "utf8":
        path.write_bytes(b"name: x\n\xff\xfe\n")
        expected = f"ValidationError: scenario file {str(path)!r} is not UTF-8: "
    else:
        path.write_text(scenario.resolve("single_road"))

        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(type(path), "read_text", refuse)
        expected = f"ValidationError: cannot read scenario file {str(path)!r}: Permission denied"
    out = tmp_path / "canon.yaml"
    result = CliRunner().invoke(cli.main, ["build", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith(expected)
    assert not out.exists()


def test_deeply_nested_value_is_one_validation_line(tmp_path):
    # h as 900 nested lists: PyYAML's composer once raised RecursionError,
    # a traceback with exit 1
    path = tmp_path / "deep.yaml"
    path.write_text(scenario.resolve("single_road").replace(
        "\nh: 100.0\n", "\nh: " + "[" * 900 + "]" * 900 + "\n"))
    result = CliRunner().invoke(cli.main, ["build", str(path)])
    assert result.exit_code == 2
    assert result.stderr == "ValidationError: scenario nests deeper than 64 levels\n"


def test_distributed_memory_preflight_is_one_validation_line(tmp_path):
    # grid_4x4 has 240 cells; 200x200 agents would keep 40,000 X of
    # 461 kB each, and the plan comes to 34 GiB
    out = tmp_path / "rounds.csv"
    start = time.perf_counter()
    result = CliRunner().invoke(cli.main, ["distributed", "grid_4x4", "--agents", "200x200",
                                           "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("ValidationError: ")
    assert "physical memory" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("layout", ["path:100000000", "complete:1000000", "100000x100000"])
def test_oversized_layout_is_refused_before_its_graph(tmp_path, monkeypatch, layout):
    # the agent count is read from the text and checked against the same
    # plan as the run's; listing the edges of path:400000 alone took 1.8 s
    def no_graph(*args, **kwargs):
        raise AssertionError("a communication graph was built")

    for build in ("path", "complete", "grid"):
        monkeypatch.setattr(dist.CommGraph, build, no_graph)
    out = tmp_path / "rounds.csv"
    start = time.perf_counter()
    result = CliRunner().invoke(cli.main, ["distributed", "single_road", "--agents", layout,
                                           "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    assert result.stderr.count("\n") == 1
    assert re.match(r"ValidationError: \d+ agents on a 4-state system would hold about ",
                    result.stderr)
    assert "physical memory" in result.stderr
    assert not out.exists()


def test_distributed_cg_cap_that_runs_out_is_one_solve_failure_line(tmp_path, monkeypatch):
    from greensplit import distributed
    monkeypatch.setattr(distributed, "_iteration_cap", lambda cond: 1)
    out = tmp_path / "rounds.csv"
    result = CliRunner().invoke(cli.main, ["distributed", "four_intersections", "--agents",
                                           "path:2", "--out", str(out)])
    assert result.exit_code == 3
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("SolveFailure: conjugate gradients left a relative "
                                    "residual of ")
    assert not out.exists()


def test_cli_import_loads_no_sparse_module():
    # the distributed agents, the component ordering of the Schur factor and
    # the network checks need no scipy.sparse
    code = ("import sys, greensplit.cli; "
            "print([m for m in sys.modules if m.startswith('scipy.sparse')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"


def test_distributed_bad_layout(runner):
    result = invoke(runner, "distributed", "single_road", "--agents", "ring:9")
    assert result.exit_code == 2


@pytest.mark.parametrize("command", [["modes"], ["optimize"],
                                     ["distributed", "--agents", "path:2"]])
def test_network_whose_mode_matrices_cannot_fit_is_one_validation_line(tmp_path, command):
    # single_road at h 0.001 has 400,000 cells: it builds, but its mode
    # matrices would need 3.5 TiB
    from greensplit import scenario
    path = tmp_path / "big.yaml"
    path.write_text(scenario.resolve("single_road").replace("\nh: 100.0\n", "\nh: 0.001\n"))
    out = tmp_path / "out"
    start = time.perf_counter()
    result = CliRunner().invoke(cli.main, [command[0], str(path), *command[1:],
                                           "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("ValidationError: the 2 mode matrices of 400000 cells")
    assert "physical memory" in result.stderr
    assert not out.exists()


def test_optimize_whose_working_set_cannot_fit_is_one_validation_line(tmp_path, monkeypatch):
    # with half of memory between what the mode matrices take, (m + 1) n^2
    # doubles, and what the descent works in beside them, the run is
    # refused before any split is factored
    from greensplit import errors, lyapunov
    n, m = scenario.load("grid_4x4").n, 4

    def no_factor(*args, **kwargs):
        raise AssertionError("a split was factored")

    monkeypatch.setattr(lyapunov.ShiftedLyapunov, "__init__", no_factor)
    sysconf = errors.os.sysconf
    monkeypatch.setattr(errors.os, "sysconf", lambda name: {
        "SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 2 * 8 * (m + 2) * n * n}.get(name) or sysconf(name))
    out, plot = tmp_path / "r.json", tmp_path / "trace.csv"
    result = CliRunner().invoke(cli.main, ["optimize", "grid_4x4", "--out", str(out),
                                           "--plot-out", str(plot)])
    assert result.exit_code == 2
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith(
        f"ValidationError: an optimization over {m} modes of {n} cells would hold about ")
    assert "physical memory" in result.stderr
    assert not out.exists() and not plot.exists()


@pytest.mark.parametrize("grid, message", [
    ("{rows: 2, cols: 2, h: 1.0e-320}", "no finite cell count"),
    ("{rows: 2, cols: 2, block_length: 1.0e+308, h: 1.0e-10}", "no finite cell count"),
    ("{rows: 1000000, cols: 1000000}", "physical memory"),
    # bytes past the range of a float
    (f"{{rows: 1{'0' * 400}, cols: 2}}", "about inf GiB"),
], ids=["tiny-h", "long-block", "huge-grid", "past-float-range"])
def test_grid_no_command_can_hold_is_one_validation_line(tmp_path, grid, message):
    path = tmp_path / "grid.yaml"
    path.write_text(f"schema_version: 1\nname: huge\ngrid: {grid}\n")
    out = tmp_path / "out.yaml"
    start = time.perf_counter()
    result = CliRunner().invoke(cli.main, ["build", str(path), "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("ValidationError: ")
    assert message in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "compare-averaging"])
def test_network_whose_state_cannot_fit_is_one_validation_line(tmp_path, command):
    # at h 1e-9 single_road has 4e11 cells, and its initial state alone
    # would take 2.9 TiB
    from greensplit import scenario
    path = tmp_path / "big.yaml"
    path.write_text(scenario.resolve("single_road").replace("\nh: 100.0\n", "\nh: 1.0e-9\n"))
    out = tmp_path / "out.csv"
    start = time.perf_counter()
    result = CliRunner().invoke(cli.main, [command, str(path), "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("ValidationError: an initial state of 400000000000 cells")
    assert not out.exists()


@pytest.mark.parametrize("command", [["simulate", "single_road", "--horizon", "10"],
                                     ["compare-averaging", "single_road", "--cycles", "30"],
                                     ["modes", "single_road"],
                                     ["build", "single_road"],
                                     ["distributed", "single_road"]])
def test_artifact_in_a_missing_directory_is_one_validation_line(tmp_path, command):
    out = tmp_path / "missing" / "x.csv"
    result = CliRunner().invoke(cli.main, [*command, "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr == f"ValidationError: cannot write {out}: No such file or directory\n"
    assert not list(tmp_path.iterdir())


def test_optimize_unwritable_trace_leaves_no_report(tmp_path):
    report, trace = tmp_path / "r.json", tmp_path / "missing" / "t.csv"
    result = CliRunner().invoke(cli.main, ["optimize", "single_road", "--out", str(report),
                                           "--plot-out", str(trace)])
    assert result.exit_code == 2
    assert result.stderr == f"ValidationError: cannot write {trace}: No such file or directory\n"
    assert "wrote" not in result.stdout
    assert not list(tmp_path.iterdir())


class FullDisk:
    """A text file on a disk that fills up after a csv file's header lines."""

    def __init__(self, path, mode="r", **kwargs):
        self.fh = open(path, mode, **kwargs)
        self.csv = ".csv" in str(path)
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.csv and self.writes > 4:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("command", [
    ["simulate", "single_road", "--horizon", "10", "--out"],
    ["optimize", "single_road", "--out", "r.json", "--plot-out"],
])
def test_artifact_that_fails_mid_write_leaves_no_file(tmp_path, monkeypatch, command):
    # the report is complete before the trace fails, and goes with it
    monkeypatch.setattr(cli, "open", FullDisk, raising=False)
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(cli.main, [*command, "x.csv"])
    assert result.exit_code == 2
    assert result.stderr == "ValidationError: cannot write x.csv: No space left on device\n"
    assert not list(tmp_path.iterdir())


def test_artifact_through_a_symlink_is_written_in_place(tmp_path):
    # a link (/dev/stdout is one) keeps pointing where it did
    direct, link = tmp_path / "direct.csv", tmp_path / "link.csv"
    link.symlink_to(tmp_path / "real.csv")
    for out in (direct, link):
        result = CliRunner().invoke(cli.main, ["simulate", "single_road", "--horizon", "10",
                                               "--out", str(out)])
        assert result.exit_code == 0
        assert result.stdout.endswith(f"wrote {out}\n")
    assert link.is_symlink()
    assert (tmp_path / "real.csv").read_bytes() == direct.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["direct.csv", "link.csv", "real.csv"]


def test_optimize_huge_starts_is_one_validation_line(tmp_path, monkeypatch):
    # refused before the baseline cost, so no start runs and no split is drawn
    from greensplit import optimizer

    def no_cost(*args, **kwargs):
        raise AssertionError("a cost was evaluated before the starts were checked")

    monkeypatch.setattr(optimizer, "congestion_cost", no_cost)
    out = tmp_path / "r.json"
    start = time.perf_counter()
    result = CliRunner().invoke(cli.main, ["optimize", "single_road", "--starts",
                                           "100000000000000000000", "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("ValidationError: 100000000000000000000 initial splits ")
    assert "physical memory" in result.stderr
    assert not out.exists()
