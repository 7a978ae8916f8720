"""Command-line front end and artifact export.

Every numeric artifact starts with ``#``-prefixed header lines carrying the
package version, the seed, and the scenario's config hash.  No timestamps
are written anywhere, so rerunning a command with the same inputs produces
byte-identical files.

Artifacts are written to temporary files beside their targets and moved
into place together once the command's last artifact is complete, so a
command that fails leaves none of them behind.

Exit codes: 0 success, 2 invalid input, 3 numerical failure,
4 agreement/iteration limit reached.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import sys
import warnings
from collections.abc import Callable, Iterable, Iterator
from typing import IO, Any

import click
import numpy as np
import orjson

from . import __version__, dynamics, net_model, scenario, sim
from . import distributed as dist
from .errors import (DimensionError, GreensplitError, NotConverged,
                     ValidationError, check_memory)
from .optimizer import optimize


def _exit_code(exc: GreensplitError) -> int:
    if isinstance(exc, NotConverged):
        return 4
    if isinstance(exc, (ValidationError, DimensionError)):
        return 2
    return 3


def _wrap(callback):
    @functools.wraps(callback)
    def inner(*args, **kwargs):
        try:
            return callback(*args, **kwargs)
        except GreensplitError as exc:
            click.echo(f"{type(exc).__name__}: {exc}", err=True)
            sys.exit(_exit_code(exc))
    return inner


def load_state(source: str, network: net_model.NetworkSpec) -> np.ndarray:
    """Initial state from a preset name (zeros, ones) or a text file."""
    check_memory(8 * network.n, f"an initial state of {network.n} cells")
    if source == "zeros":
        return np.zeros(network.n)
    if source == "ones":
        return np.ones(network.n)
    try:
        with warnings.catch_warnings():
            # an empty file is the DimensionError below, not a warning
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(source, comments="#", ndmin=1, dtype=float)
    except OSError as exc:
        raise ValidationError(f"cannot read state file {source!r}: {exc}")
    except ValueError as exc:
        raise ValidationError(f"state file {source!r} is not numeric: {exc}")
    values = values.reshape(-1)
    if values.shape[0] != network.n:
        raise DimensionError(
            f"state file has {values.shape[0]} entries, network has {network.n} cells"
        )
    if not np.all(np.isfinite(values)):
        raise ValidationError("densities must be finite")
    if np.any(values < 0):
        raise ValidationError("densities must be nonnegative")
    return values


def _header_lines(digest: str, seed: int) -> list[str]:
    """Artifact header: package version, seed and the scenario's config hash."""
    return [f"greensplit {__version__}", f"seed: {seed}", f"config: {digest}"]


@contextlib.contextmanager
def _artifacts() -> Iterator[Callable[[str], IO[str]]]:
    """Stage a command's artifacts and move them into place together.

    The yielded function opens a temporary file beside the target path it
    is given.  When the block ends without an error, each staged file is
    renamed onto its target and ``wrote PATH`` is printed.  An ``OSError``
    while opening, writing or renaming becomes one :class:`ValidationError`
    naming the target, and after any error no staged file is left, neither
    a temporary nor one already renamed.  A target that is a symbolic link
    or exists but is no regular file (``/dev/stdout``, a pipe) is written
    in place, as ``open`` writes it.
    """
    targets: list[str] = []
    staged: list[tuple[str, str]] = []
    placed: list[str] = []
    target = ""

    def stage(path: str) -> IO[str]:
        nonlocal target
        target = path
        if os.path.islink(path) or (os.path.exists(path) and not os.path.isfile(path)):
            fh = open(path, "w", newline="")
        else:
            temporary = f"{path}.{os.getpid()}.{len(staged)}.tmp"
            fh = open(temporary, "x", newline="")
            staged.append((temporary, path))
        targets.append(path)
        return fh

    try:
        yield stage
        for temporary, target in staged:
            os.replace(temporary, target)
            placed.append(target)
    except OSError as exc:
        raise ValidationError(f"cannot write {target}: {exc.strerror or exc}") from None
    finally:
        if len(placed) < len(staged):
            for path in placed + [temporary for temporary, _ in staged]:
                with contextlib.suppress(OSError):
                    os.remove(path)
    for path in targets:
        click.echo(f"wrote {path}")


def _write_csv(fh: IO[str], headers: list[str], columns: list[str],
               blocks: Iterable[tuple]) -> None:
    """Write ``#`` header lines, the column names, then each block's rows.

    A block holds one entry per column: a list of cells from
    :func:`_cells`, or a string that fills the whole column.  Blocks are
    written as they come, so a generator streams them.  The bytes are those
    of ``csv.writer``: header lines end in ``\n``, rows in ``\r\n``, so
    ``fh`` is opened with ``newline=""``.

    A block is one ``str.join`` over pieces that slice assignment places a
    column at a time.  A column at an odd position carries the commas on
    both of its sides, so the others go in as they are; its pieces are
    reused while the next block passes the same list (the times of
    ``simulate``, the agent ids of ``distributed``).
    """
    width = len(columns) + 1
    glued: dict[int, tuple[list[str], list[str]]] = {}
    for line in headers:
        fh.write(f"# {line}\n")
    fh.write(",".join(map(_quote, columns)) + "\r\n")
    for block in blocks:
        rows = next(len(c) for c in block if not isinstance(c, str))
        pieces = ["\r\n"] * (rows * width)
        for j, col in enumerate(block):
            glue = (",{}," if j + 1 < len(block) else ",{}") if j % 2 else "{}"
            if isinstance(col, str):
                pieces[j::width] = [glue.format(_quote(col))] * rows
            elif j % 2 == 0:
                pieces[j::width] = col
            else:
                if j not in glued or glued[j][0] is not col:
                    glued[j] = (col, list(map(glue.format, col)))
                pieces[j::width] = glued[j][1]
        fh.write("".join(pieces))


def _cells(values: Any) -> list[str]:
    """Numbers of a 1-D sequence as csv cells: ``repr`` of each int or float.

    A float column is formatted by one ``orjson.dumps`` call, whose text is
    ``repr``'s for zeros and magnitudes in [1e-4, 1e16).  The other cells
    are written again with ``repr``: orjson writes ``1e-05`` as ``0.00001``,
    ``1e+16`` as ``1e16`` and ``nan`` as ``null``.
    """
    array = np.asarray(values)
    if array.dtype != np.float64 or not array.size:
        return list(map(repr, array.tolist()))
    cells = orjson.dumps(np.ascontiguousarray(array),
                         option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    size = np.abs(array)
    rest = np.flatnonzero(~(((size >= 1e-4) & (size < 1e16)) | (size == 0)))
    for i, value in zip(rest.tolist(), array[rest].tolist()):
        cells[i] = repr(value)
    return cells


def _quote(field: str) -> str:
    """A text field quoted as ``csv.writer``'s QUOTE_MINIMAL quotes it."""
    if any(c in field for c in ',"\r\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


@click.group()
@click.version_option(__version__, prog_name="greensplit")
def main() -> None:
    """Green-split analysis for signalized road networks."""


@main.command()
@click.argument("scenario_ref")
@click.option("--validate", is_flag=True, help="Only check the file, print one line.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the scenario back in canonical form.")
@_wrap
def build(scenario_ref: str, validate: bool, out: str | None) -> None:
    """Load a scenario, validate it, and summarize the network."""
    network = scenario.load(scenario_ref)
    digest = scenario.config_hash(network)
    if validate:
        click.echo(f"ok {network.name} n={network.n} config={digest}")
    else:
        schedule = net_model.uniform_schedule(network)
        click.echo(f"scenario:      {network.name}")
        click.echo(f"roads:         {network.n_roads} ({network.n} cells)")
        click.echo(f"intersections: {len(network.intersections)}")
        click.echo(f"modes:         {schedule.n_modes}")
        click.echo(f"cycle time:    {network.cycle_time}")
        click.echo(f"config:        {digest}")
    if out is not None:
        with _artifacts() as stage, stage(out) as fh:
            for line in _header_lines(digest, 0):
                fh.write(f"# {line}\n")
            fh.write(scenario.dumps(network))


@main.command()
@click.argument("scenario_ref")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write nonzero mode-matrix entries as CSV triplets.")
@_wrap
def modes(scenario_ref: str, out: str | None) -> None:
    """List the schedule modes and their green movements."""
    network = scenario.load(scenario_ref)
    schedule = net_model.uniform_schedule(network)
    mode_set = dynamics.assemble_modes(network, schedule)
    for k in range(mode_set.n_modes):
        green = sorted(net_model.movement_label(key)
                       for key in schedule.green_set(network, k))
        shown = ", ".join(green) if green else "(all red)"
        click.echo(f"mode {k}: {mode_set.durations[k]:g}s  {shown}")
    if out is not None:
        blocks = []
        for k, a in enumerate(mode_set.modes):
            i, j = np.nonzero(a)
            blocks.append((str(k), _cells(i), _cells(j), _cells(a[i, j])))
        with _artifacts() as stage, stage(out) as fh:
            _write_csv(fh, _header_lines(scenario.config_hash(network), 0),
                       ["mode", "row", "col", "value"], blocks)


@main.command()
@click.argument("scenario_ref")
@click.option("--mode", "which", type=click.Choice(["switching", "average"]),
              default="switching", show_default=True)
@click.option("--x0", default="ones", show_default=True,
              help="Initial state: zeros, ones, or a file of densities.")
@click.option("--horizon", type=float, default=None,
              help="Length of the run [s]; default ten cycles.")
@click.option("--dt", type=float, default=1.0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the trajectory as tidy CSV (series, t, value).")
@_wrap
def simulate(scenario_ref: str, which: str, x0: str, horizon: float | None,
             dt: float, out: str | None) -> None:
    """Integrate the switched or the averaged dynamics."""
    network = scenario.load(scenario_ref)
    schedule = net_model.uniform_schedule(network)
    state0 = load_state(x0, network)
    if horizon is None:
        horizon = 10.0 * network.cycle_time
    if which == "switching":
        traj = sim.simulate_switching(network, schedule, state0, horizon, dt)
    else:
        traj = sim.simulate_average(network, schedule, state0, horizon, dt)
    final = traj.states[-1]
    click.echo(f"{which} run on {network.name}: {traj.times.shape[0]} samples, "
               f"t_end={traj.times[-1]:g}")
    click.echo(f"final state norm {np.linalg.norm(final):.6g}, "
               f"max cell {final.max():.6g}")
    if out is not None:
        times = _cells(traj.times)
        series = ((label, times, _cells(traj.states[:, j]))
                  for j, label in enumerate(network.state_labels))
        with _artifacts() as stage, stage(out) as fh:
            _write_csv(fh, _header_lines(scenario.config_hash(network), 0),
                       ["series", "t", "value"], series)


@main.command("compare-averaging")
@click.argument("scenario_ref")
@click.option("--cycles", default="30,60,100,120", show_default=True,
              help="Comma-separated cycle times to sweep.")
@click.option("--x0", default="ones", show_default=True)
@click.option("--horizon", type=float, default=None,
              help="Common horizon [s]; default ten times the largest cycle.")
@click.option("--dt", type=float, default=1.0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_wrap
def compare_averaging(scenario_ref: str, cycles: str, x0: str,
                      horizon: float | None, dt: float,
                      out: str | None) -> None:
    """Averaging error against cycle length, on one shared horizon."""
    network = scenario.load(scenario_ref)
    try:
        cycle_list = [float(tok) for tok in cycles.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"cannot parse cycle list {cycles!r}")
    if not cycle_list:
        raise ValidationError(f"no cycle time given in {cycles!r}")
    for cycle in cycle_list:
        if not 0.0 < cycle < np.inf:
            raise ValidationError(f"cycle time {cycle:g} must be finite and positive")
    state0 = load_state(x0, network)
    if horizon is None:
        horizon = 10.0 * max(cycle_list)
    schedules = [net_model.uniform_schedule(network, cycle_time=cycle)
                 for cycle in cycle_list]
    errors = []
    for cycle, error in zip(cycle_list, sim.averaging_sweep(network, schedules, state0,
                                                            horizon, dt)):
        errors.append(error)
        click.echo(f"T={cycle:g}: error {error:.4f}%")
    if out is not None:
        with _artifacts() as stage, stage(out) as fh:
            _write_csv(fh, _header_lines(scenario.config_hash(network), 0),
                       ["cycle_time", "error_percent"],
                       [(_cells(cycle_list), _cells(errors))])


@main.command("optimize")
@click.argument("scenario_ref")
@click.option("--x0", default="ones", show_default=True)
@click.option("--starts", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the full report as JSON.")
@click.option("--plot-out", type=click.Path(dir_okay=False), default=None,
              help="Write the best start's descent as CSV (iter, cost, "
                   "kkt_norm), one row per accepted split.")
@_wrap
def optimize_cmd(scenario_ref: str, x0: str, starts: int, seed: int,
                 out: str | None, plot_out: str | None) -> None:
    """Optimize the green splits of a scenario's schedule."""
    network = scenario.load(scenario_ref)
    schedule = net_model.uniform_schedule(network)
    mode_set = dynamics.assemble_modes(network, schedule)
    output = dynamics.output_map(network)
    state0 = load_state(x0, network)
    report = optimize(mode_set, output, state0, starts=starts, seed=seed)
    if not report.converged:
        raise NotConverged(
            f"optimize hit its iteration budget after {report.iterations} "
            f"iterations (certified cost {report.cost:.6g})"
        )
    click.echo(f"baseline cost {report.baseline_cost:.6g}")
    if report.baseline_cost > 0 and np.isfinite(report.baseline_cost):
        gain = 100.0 * (1.0 - report.cost / report.baseline_cost)
        click.echo(f"optimized cost {report.cost:.6g} ({gain:.2f}% lower)")
    else:
        click.echo(f"optimized cost {report.cost:.6g}")
    click.echo("durations: " + " ".join(f"{d:.4f}" for d in report.durations))
    # one digest serves both artifacts: hashing dumps the whole network
    digest = (scenario.config_hash(network)
              if out is not None or plot_out is not None else None)
    with _artifacts() as stage:
        if out is not None:
            payload = {
                "version": __version__,
                "seed": seed,
                "config": digest,
                "report": report.to_dict(),
            }
            with stage(out) as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        if plot_out is not None:
            trace = report.trajectory
            block = (_cells(range(len(trace))),
                     *(_cells([row[key] for row in trace])
                       for key in ("cost", "kkt_norm")))
            with stage(plot_out) as fh:
                _write_csv(fh, _header_lines(digest, seed),
                           ["iter", "cost", "kkt_norm"], [block])


def _parse_layout(layout: str, n: int) -> dist.CommGraph:
    """Agent layouts: 'RxC' grid, 'path:K', 'complete:K'.  The agent count
    comes from the text, so a layout whose solve on ``n`` states would not
    fit in memory (:func:`~greensplit.distributed.planned_bytes`) is refused
    before any edge is listed."""
    token = layout.strip().lower()
    try:
        if "x" in token and ":" not in token:
            r, c = token.split("x")
            build, dims = dist.CommGraph.grid, (int(r), int(c))
        else:
            kind, _, count = token.partition(":")
            build = {"path": dist.CommGraph.path, "complete": dist.CommGraph.complete}[kind]
            dims = (int(count),)
    except (ValueError, KeyError):
        raise ValidationError(
            f"cannot parse agent layout {layout!r}; use RxC, path:K, or complete:K"
        ) from None
    if min(dims) < 1:
        raise ValidationError(f"agent layout {layout!r} needs positive sizes")
    agents = math.prod(dims)
    # the plan reads only the shape, so a zero-stride view stands in for A
    check_memory(dist.planned_bytes(np.broadcast_to(0.0, (n, n)), agents),
                 f"{agents} agents on a {n}-state system")
    return build(*dims)


@main.command("distributed")
@click.argument("scenario_ref")
@click.option("--agents", default="2x2", show_default=True,
              help="Topology: RxC grid, path:K, or complete:K.")
@click.option("--rounds", type=int, default=None,
              help="Round budget; default twice the graph diameter plus two.")
@click.option("--x0", default="ones", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the per-round per-agent error trace as CSV.")
@_wrap
def distributed_cmd(scenario_ref: str, agents: str, rounds: int | None,
                    x0: str, out: str | None) -> None:
    """Solve the scenario's averaged Lyapunov equation cooperatively."""
    network = scenario.load(scenario_ref)
    schedule = net_model.uniform_schedule(network)
    mode_set = dynamics.assemble_modes(network, schedule)
    a = dynamics.average_matrix(mode_set)
    state0 = load_state(x0, network)
    graph = _parse_layout(agents, network.n)
    result = dist.run_distributed(a, np.outer(state0, state0), graph,
                                  max_rounds=rounds)
    click.echo(f"{graph.n_agents} agents agreed after {result.rounds} rounds "
               f"(max error {result.errors[-1].max():.3e})")
    if out is not None:
        agent_ids = _cells(range(result.errors.shape[1]))
        blocks = [(str(r), agent_ids, _cells(errors))
                  for r, errors in enumerate(result.errors)]
        with _artifacts() as stage, stage(out) as fh:
            _write_csv(fh, _header_lines(scenario.config_hash(network), 0),
                       ["round", "agent", "frobenius_error"], blocks)


if __name__ == "__main__":
    main()
