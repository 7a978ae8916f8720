"""One benchmark job or set-up probe, run in a fresh interpreter.

    python3 perfbench/jobs.py setup SCENARIO RESULT.json
    python3 perfbench/jobs.py job SPEC.json OUT_DIR SECONDS [--trace] [--check]

``setup`` times ``import greensplit.cli``, loading the scenario and
assembling its modes.  ``job`` runs the workload described by SPEC.json
(written by :mod:`inputs`) with its artifacts in OUT_DIR: once when
SECONDS is 0, otherwise repeatedly in this process for about SECONDS
seconds, every repetition writing the same artifacts again.  It writes
OUT_DIR/result.json: each repetition's wall and CPU time, the peak
resident memory of this process, artifact digests, and with ``--trace``
the per-layer metrics, with ``--check`` the oracle verdicts.  Hashing,
tracing and checking happen outside the timed region, hashing and
checking after the memory reading.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

#: repetitions a measuring job makes at least, however long they take
MIN_REPS = 2

# set-up probes must start from a bare interpreter, so the modules that
# import numpy and scipy (oracles, tracing) are imported by job mode only


def _setup(scenario_path: str, result_path: str) -> None:
    t0 = time.perf_counter()
    import greensplit.cli  # noqa: F401
    t1 = time.perf_counter()
    from greensplit import dynamics, net_model, scenario
    net = scenario.load(scenario_path)
    t2 = time.perf_counter()
    dynamics.assemble_modes(net, net_model.uniform_schedule(net))
    t3 = time.perf_counter()
    Path(result_path).write_text(json.dumps({
        "setup_s": t3 - t0, "import_s": t1 - t0, "load_s": t2 - t1,
        "assemble_s": t3 - t2, "env": _environment(),
    }))


def _environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import threadpoolctl  # noqa: F401
        threadpoolctl_state = "present"
    except ImportError:
        threadpoolctl_state = "absent (GREENSPLIT_THREADS is a no-op)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "threadpoolctl": threadpoolctl_state,
    }


def _cli(argv: list[str]) -> None:
    from greensplit import cli
    try:
        cli.main.main(args=argv, prog_name="greensplit", standalone_mode=False)
    except SystemExit as exc:
        if exc.code:
            raise RuntimeError(f"greensplit {argv[0]} exited with {exc.code}") from None


def _network(spec: dict):
    from greensplit import dynamics, net_model, scenario
    net = scenario.load(spec["scenario"])
    modes = dynamics.assemble_modes(net, net_model.uniform_schedule(net))
    return net, modes, dynamics.output_map(net)


def _x0(spec: dict):
    import numpy as np
    return np.loadtxt(spec["x0"], ndmin=1)


ARTIFACTS = {
    "optimize": ["report.json", "trace.csv"],
    "cost-sweep": ["costs.txt"],
    "simulate": ["traj.csv", "err.csv"],
    "distributed": ["rounds.csv"],
}


class Job:
    """The workload's timed body, its artifacts and its oracle."""

    def __init__(self, spec: dict, out: Path):
        self.spec = spec
        self.name = spec["workload"]
        self.out = out
        self.out.mkdir(parents=True, exist_ok=True)
        self.latencies_ms: list[float] = []
        self.captured = {}

    def artifacts(self) -> list[Path]:
        return [self.out / name for name in ARTIFACTS[self.name]]

    def prepare(self) -> None:
        """Untimed preparation: load the library workload's inputs, and
        keep the distributed solve's result for the oracle."""
        if self.name == "cost-sweep":
            import numpy as np
            self.net, self.modes, self.output = _network(self.spec)
            self.x0 = _x0(self.spec)
            self.splits = np.loadtxt(self.spec["splits"], ndmin=2)
        if self.name == "distributed":
            from greensplit import distributed
            run = distributed.run_distributed

            def capture(*args, **kwargs):
                self.captured["result"] = run(*args, **kwargs)
                return self.captured["result"]
            distributed.run_distributed = capture

    def run(self, tracer) -> None:
        spec, out = self.spec, self.out
        if self.name == "cost-sweep":
            import greensplit
            costs = []
            for d in self.splits:
                t0 = time.perf_counter()
                costs.append(greensplit.congestion_cost(
                    greensplit.average_matrix(self.modes, d), self.output, self.x0))
                self.latencies_ms.append(1e3 * (time.perf_counter() - t0))
            self.costs = costs
            return
        if self.name == "optimize":
            commands = [["optimize", spec["scenario"], "--x0", spec["x0"],
                         "--seed", str(spec["seed"]), "--out", str(out / "report.json"),
                         "--plot-out", str(out / "trace.csv")]]
        elif self.name == "simulate":
            commands = [
                ["simulate", spec["scenario"], "--mode", "switching", "--x0", spec["x0"],
                 "--horizon", repr(spec["horizon"]), "--out", str(out / "traj.csv")],
                ["compare-averaging", spec["scenario"], "--cycles", spec["cycles"],
                 "--x0", spec["x0"], "--horizon", repr(spec["compare_horizon"]),
                 "--out", str(out / "err.csv")],
            ]
        else:
            commands = [["distributed", spec["scenario"], "--agents",
                         f"path:{spec['agents']}", "--x0", spec["x0"],
                         "--out", str(out / "rounds.csv")]]
        for argv in commands:
            if tracer is None:
                _cli(argv)
            else:
                with tracer.span("cli.command"):
                    _cli(argv)

    def finish(self) -> None:
        """Write the library workload's artifact (untimed)."""
        if self.name == "cost-sweep":
            (self.out / "costs.txt").write_text("".join(f"{c!r}\n" for c in self.costs))

    def check(self) -> list[str]:
        import oracles
        spec, out = self.spec, self.out
        net, modes, output = _network(spec)
        x0 = _x0(spec)
        if net.n != spec["n"]:
            return [f"{self.name}: network has {net.n} cells, inputs were made for {spec['n']}"]
        if self.name == "optimize":
            return oracles.check_optimize(oracles.load_report(str(out / "report.json")),
                                          modes.modes, modes.durations, output, x0,
                                          spec["cycle_time"])
        if self.name == "cost-sweep":
            return oracles.check_costs(self.costs, self.splits, modes.modes, output, x0,
                                       spec["check_every"])
        if self.name == "simulate":
            drift = modes.input_map @ net.average_inflow()
            windows = list(zip(modes.modes, modes.durations))
            failures = oracles.check_trajectory(str(out / "traj.csv"), net.n, spec["horizon"],
                                                1.0, windows, drift, x0, spec["cycle_time"])
            cycles = [float(c) for c in spec["cycles"].split(",")]
            return failures + oracles.check_averaging(str(out / "err.csv"), cycles)
        result = self.captured.get("result")
        if result is None:
            return ["distributed: the run returned no result"]
        a = oracles.average(modes.modes, modes.durations)
        return oracles.check_distributed(result.solutions, a, x0)


def _digests(job: Job) -> dict[str, str]:
    digests = {}
    for path in job.artifacts():
        with open(path, "rb") as fh:
            digests[path.name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return digests


def _job(spec_path: str, out_dir: str, trace: bool, check: bool, seconds: float) -> None:
    """Run the job, then repeat it in this process while the next
    repetition is expected to end within ``seconds`` (at least
    MIN_REPS times when ``seconds`` > 0), and write OUT_DIR/result.json."""
    import oracles
    import tracing
    spec = json.loads(Path(spec_path).read_text())
    out = Path(out_dir)
    import greensplit.cli  # noqa: F401  (imports are set-up, not job time)
    job = Job(spec, out)
    job.prepare()
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    result: dict = {"failures": [], "reps": []}
    measuring = time.perf_counter()
    longest = 0.0
    while True:
        job.latencies_ms = []
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            job.run(tracer)
        except Exception as exc:  # a failed job is a result to report, not a crash
            traceback.print_exc()
            result["failures"].append(f"{job.name}: {type(exc).__name__}: {exc}")
            break
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        if not result["reps"]:
            # peak memory of the job alone, before the artifacts are hashed
            # and the oracles run; later repetitions repeat the same work
            result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        job.finish()
        digests = _digests(job)
        if result["reps"] and digests != result["digests"]:
            result["failures"].append(f"{job.name}: repetition {len(result['reps'])} wrote "
                                      f"other artifacts than repetition 0 for the same seed")
            break
        result["digests"] = digests
        result["reps"].append({"wall_s": wall, "cpu_s": cpu, "minor_faults": faults,
                               "latencies_ms": job.latencies_ms})
        longest = max(longest, time.perf_counter() - t0)
        elapsed = time.perf_counter() - measuring
        if seconds <= 0 or (len(result["reps"]) >= MIN_REPS and elapsed + longest > seconds):
            break
    if tracer is not None:
        tracer.uninstall()
    if result["failures"]:
        Path(out / "result.json").write_text(json.dumps(result))
        return
    # the cost-sweep artifact is written by the benchmark, not by the CLI
    result["artifact_mb"] = 0.0 if job.name == "cost-sweep" else \
        sum(p.stat().st_size for p in job.artifacts()) / 2**20
    if job.name == "optimize":
        report = oracles.load_report(str(out / "report.json"))
        result["cost_ratio"] = report["cost"] / report["baseline_cost"]
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.returns)
        tracer.dump(str(out / "spans.jsonl"))
    if check:
        result["failures"] = job.check()
    Path(out / "result.json").write_text(json.dumps(result))


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 3:
        _setup(argv[1], argv[2])
        return 0
    if argv[:1] == ["job"] and len(argv) >= 4:
        flags = set(argv[4:])
        if flags - {"--trace", "--check"}:
            raise SystemExit(f"unknown flags {sorted(flags)}")
        _job(argv[1], argv[2], "--trace" in flags, "--check" in flags, float(argv[3]))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
