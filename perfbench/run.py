"""Benchmark of the greensplit toolkit: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (the directory holding
``src/greensplit``); it builds nothing and reads the package from ``src``.

Workloads (see BENCHMARK.json for why each was chosen):

* ``optimize``     ``greensplit optimize`` on a seeded 2x2 grid (n=72)
* ``cost-sweep``   library ``congestion_cost(average_matrix(...))`` over
                   240 seeded splits on a 3x3 grid (n=144)
* ``simulate``     ``greensplit simulate`` (switching, 3000 s) and
                   ``greensplit compare-averaging`` on a 4x4 grid (n=240)
* ``distributed``  ``greensplit distributed --agents path:2`` on a 1x1
                   grid (n=24)

Load model: closed loop, one job at a time, from one child interpreter
started by this process.  Every child runs with the same environment on
every commit (CHILD_ENV):

* BLAS single-threaded (``OPENBLAS_NUM_THREADS=1``), so a job keeps to
  one core and its time does not depend on how OpenBLAS splits small
  matrices across cores;
* glibc malloc keeping freed memory below 4 MiB in the heap
  (``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TRIM_THRESHOLD_``).  By default
  the 144x144 temporaries of a cost evaluation are handed back to the
  kernel and faulted in again, 80,000 page faults per 240 evaluations;
  on a 2-vCPU virtual machine their price varied, and a sweep's CPU time
  spread twice as far from one repetition to the next with them
  (1.84-2.53 s against 1.79-2.13 s for the same 120 evaluations).
  Arrays of 4 MiB and more are still mapped and unmapped, so peak memory
  stays near the default's (simulate 181 MB against 178 MB).

A run first times set-up (``import greensplit.cli``, loading the
scenario, assembling the modes) in SETUP_RUNS fresh interpreters.  Then
one child imports the package, prepares the job and repeats it, at
least twice, as long as the next repetition is expected to end within
``--seconds``; a child per repetition would spend a second of each run's
time on imports.  The outputs are checked by oracles that do not reuse
the checked layer (:mod:`oracles`), and every repetition must write
byte-identical artifacts.

With ``--trace 0`` the result carries the end-to-end metrics: median
set-up time, median job CPU time over the repetitions, and the peak RSS
of the job's process.  The job's time is its CPU time (user + system)
rather than its wall time: a job runs in one thread, so on an idle
machine the two agree, but on a shared virtual machine wall time also
counts the time the host gives the core to another guest (steal), which
is not the program's.  Wall times are printed per repetition and carried
as ``job.wall_s`` by traced runs.
``fail_rate`` is printed and carried by ``attempted`` and ``failed``.
With ``--trace 1`` one untraced and one traced job run instead, and the
result carries the per-layer metrics of the traced job, the tracing
overhead (traced minus untraced wall time), and, from the untraced job,
the cost-sweep's evaluation latency percentiles, the optimized-to-
uniform cost ratio, and the job's wall time, CPU time and page faults.
The traced job's spans are kept in
``.perfbench_work/spans-WORKLOAD-SEED.jsonl``.  The last line of standard
output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

ROOT = HERE.parent
SETUP_RUNS = 5
#: a run ends within this many seconds, whatever the workload does
RUN_BUDGET_S = 170.0

#: the same in every child on every commit; see the module docstring
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(2**22), "MALLOC_TRIM_THRESHOLD_": str(2**30),
}

END_TO_END = {"setup_s": "s", "job_cpu_s": "s", "peak_rss_mb": "MB"}
#: per-layer metrics and their units; ``.calls`` and counts are "count"
PER_LAYER = {
    "cli.import_s": "s", "scenario.load_s": "s", "dynamics.assemble_modes_s": "s",
    "dynamics.average_matrix.calls": "count", "dynamics.average_matrix_s": "s",
    "lyapunov.factor.calls": "count", "lyapunov.factor_s": "s",
    "lyapunov.solve.calls": "count", "lyapunov.solve_s": "s",
    "lyapunov.solve.failures": "count", "lyapunov.eigvals.calls": "count",
    "lyapunov.congestion_cost.calls": "count", "lyapunov.congestion_cost_s": "s",
    "ssa.root.calls": "count", "ssa.root_self_s": "s", "ssa.solves_per_root": "1",
    "ssa.evaluations": "count", "ssa.gradient.calls": "count", "ssa.gradient_s": "s",
    "optimizer.inner_iters": "count", "optimizer.outer_iters": "count",
    "optimizer.self_s": "s",
    "sim.steps": "count", "sim.expm.calls": "count", "sim.expm_s": "s",
    "sim.cache_hit_ratio": "1", "sim.switching_s": "s", "sim.average_s": "s",
    "sim.self_s": "s",
    "cli.self_s": "s", "cli.artifact_mb": "MB",
    "distributed.agent.calls": "count", "distributed.agent_build_s": "s",
    "distributed.fold.calls": "count", "distributed.fold_s": "s",
    "distributed.null_space.calls": "count", "distributed.null_space_s": "s",
    "distributed.lstsq_s": "s", "distributed.rounds": "count",
    "distributed.reference_s": "s", "distributed.h_mb": "MB",
    "job.wall_s": "s", "job.cpu_s": "s", "job.minor_faults": "count",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
    "eval_ms.p50": "ms", "eval_ms.p95": "ms", "cost_ratio": "1",
}
#: user-visible operations in one job
OPS_PER_JOB = {"optimize": 1, "cost-sweep": inputs.SWEEP_EVALUATIONS,
               "simulate": 2, "distributed": 1}


def percentile_summary(values: list[float]) -> dict:
    """Median, sample count, and the highest of p90/p95/p99 that has at
    least ten samples beyond it (absent when none has)."""
    out = {"p50": statistics.median(values), "count": len(values)}
    for q in (99, 95, 90):
        if len(values) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
            break
    return out


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.start = time.monotonic()
        self.work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **CHILD_ENV)
        self.env.pop("GREENSPLIT_THREADS", None)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.probes: list[dict] = []
        self.ops_per_job = OPS_PER_JOB[workload]

    def _child(self, args: list[str], log: Path) -> bool:
        remaining = RUN_BUDGET_S - (time.monotonic() - self.start)
        with open(log, "w") as err:
            try:
                proc = subprocess.run([sys.executable, str(HERE / "jobs.py"), *args],
                                      env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                      stderr=err, timeout=max(remaining, 1.0))
            except subprocess.TimeoutExpired:
                self.failures.append(f"child {args[0]} ran past the run budget")
                return False
        if proc.returncode != 0:
            tail = log.read_text().strip().splitlines()[-1:] or ["(no output)"]
            self.failures.append(f"child {args[0]} exited {proc.returncode}: {tail[0]}")
            return False
        return True

    def setup(self, spec: dict) -> list[dict]:
        probes = []
        for k in range(SETUP_RUNS):
            path = self.work / f"setup{k}.json"
            if self._child(["setup", spec["scenario"], str(path)], self.work / f"setup{k}.log"):
                probes.append(json.loads(path.read_text()))
        return probes

    def job(self, name: str, seconds: float, traced: bool, check: bool) -> dict | None:
        """One child that runs the job, repeated for about ``seconds``."""
        out = self.work / name
        flags = (["--trace"] if traced else []) + (["--check"] if check else [])
        ok = self._child(["job", str(self.work / "spec.json"), str(out), repr(seconds), *flags],
                         self.work / f"{name}.log")
        result = json.loads((out / "result.json").read_text()) if ok else None
        reps = len(result["reps"]) if result is not None else 0
        self.attempted += self.ops_per_job * max(reps, 1)
        if result is not None and result["failures"]:
            self.failures.extend(result["failures"])
            result = None
        if result is None:
            # the repetitions repeat one deterministic computation, so a
            # rejected output counts against every one of them
            self.failed += self.ops_per_job * max(reps, 1)
        return result

    def execute(self) -> dict | None:
        spec = inputs.make_inputs(self.workload, self.seed, self.work)
        if self.workload == "distributed":
            refusal = inputs.memory_refusal(spec["n"], spec["agents"],
                                            inputs.mem_available_mb())
            if refusal is not None:
                self.attempted += 1
                self.failed += 1
                self.failures.append(refusal)
                return None
        self.probes = self.setup(spec)
        if len(self.probes) < SETUP_RUNS:
            return None
        if not self.trace:
            job = self.job("job", float(self.seconds), traced=False, check=True)
            return {"spec": spec, "jobs": [job] if job else []}
        # one untraced and one traced job, once each
        plain = self.job("plain", 0.0, traced=False, check=True)
        traced = self.job("traced", 0.0, traced=True, check=False) if plain else None
        if traced is not None and traced["digests"] != plain["digests"]:
            self.failures.append("the traced job's artifacts differ from the untraced job's")
            self.failed += self.ops_per_job
        return {"spec": spec, "jobs": [j for j in (plain, traced) if j]}

    def keep_spans(self) -> None:
        """Move the traced job's spans out of the work directory."""
        spans = self.work / "traced" / "spans.jsonl"
        if spans.is_file():
            spans.replace(self.work.parent / f"spans-{self.workload}-{self.seed}.jsonl")

    def metrics(self, outcome: dict) -> dict[str, dict]:
        jobs = outcome["jobs"]
        setup = {key: statistics.median(p[key] for p in self.probes)
                 for key in ("setup_s", "import_s", "load_s", "assemble_s")}
        if not self.trace:
            (job,) = jobs
            values = {
                "setup_s": setup["setup_s"],
                "job_cpu_s": statistics.median(r["cpu_s"] for r in job["reps"]),
                "peak_rss_mb": job["rss_mb"],
            }
            return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        plain, traced = jobs
        layers = dict(traced["layers"])
        spec = outcome["spec"]
        layers.update({
            "cli.import_s": setup["import_s"],
            "scenario.load_s": setup["load_s"],
            "dynamics.assemble_modes_s": setup["assemble_s"],
            "cli.artifact_mb": plain["artifact_mb"],
            "distributed.h_mb": (inputs.distributed_h_mb(spec["n"], spec["agents"])
                                 if self.workload == "distributed" else 0.0),
            "job.wall_s": plain["reps"][0]["wall_s"],
            "job.cpu_s": plain["reps"][0]["cpu_s"],
            "job.minor_faults": plain["reps"][0]["minor_faults"],
            "trace.wall_s": traced["reps"][0]["wall_s"],
            "trace.overhead_s": traced["reps"][0]["wall_s"] - plain["reps"][0]["wall_s"],
            "cost_ratio": plain.get("cost_ratio", 0.0),
        })
        lat = plain["reps"][0]["latencies_ms"]
        summary = percentile_summary(lat) if lat else {}
        layers["eval_ms.p50"] = summary.get("p50", 0.0)
        layers["eval_ms.p95"] = summary.get("p95", 0.0)
        return {k: {"value": layers[k], "unit": unit} for k, unit in PER_LAYER.items()}


def report(run: Run, outcome: dict | None, metrics: dict | None) -> None:
    """Human-readable lines; the JSON result follows as the last line."""
    print(f"workload {run.workload} seed {run.seed} trace {int(run.trace)}")
    if run.probes:
        env = run.probes[0]["env"]
        print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for message in run.failures:
        print(f"FAILED: {message}")
    if outcome is not None and outcome["jobs"] and not run.trace:
        (job,) = outcome["jobs"]
        reps = job["reps"]
        print(f"jobs: {len(reps)}, repeated in one process")
        for key in ("cpu_s", "wall_s"):
            times = [r[key] for r in reps]
            print(f"{key} per job: " + " ".join(f"{t:.4f}" for t in times) + "; "
                  + ", ".join(f"{k}={v:.4f}" if k != "count" else f"{k}={v}"
                              for k, v in percentile_summary(times).items()))
        print("setup_s per probe: " + " ".join(f"{p['setup_s']:.4f}" for p in run.probes))
        lat = [x for r in reps for x in r["latencies_ms"]]
        if lat:
            s = percentile_summary(lat)
            print(f"eval_ms.p50 {s['p50']:.4f} ms, eval_ms.p95 {s.get('p95', math.nan):.4f} ms "
                  f"over {s['count']} evaluations")
        if "cost_ratio" in job:
            print(f"cost_ratio {job['cost_ratio']:.6f} (optimized / uniform cost)")
    rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"fail_rate {rate:.4f} ({run.failed} of {run.attempted} operations)")
    for name, m in (metrics or {}).items():
        print(f"{name} {m['value']:.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "greensplit" / "__init__.py").is_file():
        print(f"no greensplit sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        outcome = run.execute()
        metrics = run.metrics(outcome) if outcome is not None and not run.failures else None
    finally:
        run.keep_spans()
        shutil.rmtree(run.work, ignore_errors=True)
    report(run, outcome, metrics)
    if run.attempted == 0:
        run.attempted, run.failed = 1, 1
    print(json.dumps({
        "correct": run.failed == 0 and not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics or {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
