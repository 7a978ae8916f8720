"""Span tracing around the layers of greensplit, from outside the package.

:class:`Tracer` replaces the public functions of each layer with wrappers
that record one span per call: an id, the parent span's id, the layer
name, start and end times and whether the call raised.  Spans stay in
memory until the job ends.  Nothing under ``src/`` changes: the wrappers
are installed on every name callers resolve at call time (module
attributes, names imported with ``from ... import``, class methods and
the scipy/numpy functions looked up through ``linalg`` module objects) and
removed again by :meth:`Tracer.uninstall`.

:func:`layer_metrics` turns a span list into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

#: (module, attribute path, span name) of every traced callable, at the
#: place it is defined; aliases elsewhere in greensplit are found and
#: rebound by :meth:`Tracer.install`
TARGETS = (
    ("greensplit.scenario", "load", "scenario.load"),
    ("greensplit.dynamics", "assemble_modes", "dynamics.assemble_modes"),
    ("greensplit.dynamics", "average_matrix", "dynamics.average_matrix"),
    ("greensplit.lyapunov", "ShiftedLyapunov.__init__", "lyapunov.factor"),
    ("greensplit.lyapunov", "ShiftedLyapunov.solve", "lyapunov.solve"),
    ("greensplit.lyapunov", "solve_lyapunov", "lyapunov.solve_lyapunov"),
    ("greensplit.lyapunov", "congestion_cost", "lyapunov.congestion_cost"),
    ("greensplit.lyapunov", "np.linalg.eigvals", "lyapunov.eigvals"),
    ("greensplit.ssa", "smoothed_abscissa", "ssa.root"),
    ("greensplit.ssa", "duration_gradient", "ssa.gradient"),
    ("greensplit.optimizer", "optimize", "optimizer.optimize"),
    ("greensplit.optimizer", "_inner_descent", "optimizer.inner"),
    ("greensplit.sim", "simulate_switching", "sim.switching"),
    ("greensplit.sim", "simulate_average", "sim.average"),
    ("greensplit.sim", "averaging_error", "sim.averaging_error"),
    ("greensplit.sim", "linalg.expm", "sim.expm"),
    ("greensplit.distributed", "run_distributed", "distributed.run"),
    ("greensplit.distributed", "synchronous_round", "distributed.round"),
    ("greensplit.distributed", "Agent.__init__", "distributed.agent"),
    ("greensplit.distributed", "Agent.fold", "distributed.fold"),
    ("greensplit.distributed", "linalg.null_space", "distributed.null_space"),
    ("greensplit.distributed", "np.linalg.lstsq", "distributed.lstsq"),
)

#: span names whose return values are kept, reduced to one number each
RETURNS = {
    "ssa.root": lambda r: r.evaluations,
    "optimizer.optimize": lambda r: r.iterations,
    "sim.switching": lambda r: len(r.times) - 1,
    "sim.average": lambda r: len(r.times) - 1,
}

ID, PARENT, NAME, START, END, FAILED = range(6)


def _resolve(module: str, path: str):
    """Owner object and attribute name of ``module.path``."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span recorder with install/uninstall of layer wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.returns: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (used for the job's own steps)."""
        record = self._open(name)
        failed = True
        try:
            yield record
            failed = False
        finally:
            self._close(record, failed)

    def _open(self, name: str) -> list:
        record = [len(self.spans), self._stack[-1] if self._stack else -1,
                  name, time.perf_counter(), 0.0, False]
        self.spans.append(record)
        self._stack.append(record[ID])
        return record

    def _close(self, record: list, failed: bool) -> None:
        record[END] = time.perf_counter()
        record[FAILED] = failed
        self._stack.pop()

    def wrap(self, name: str, fn):
        keep = RETURNS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(record, True)
                raise
            self._close(record, False)
            if keep is not None:
                self.returns[name].append(keep(result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target and rebind every greensplit alias of it."""
        originals = {}
        for module, path, name in TARGETS:
            owner, attr = _resolve(module, path)
            fn = vars(owner)[attr]
            wrapper = self.wrap(name, fn)
            originals[id(fn)] = wrapper
            self._set(owner, attr, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "greensplit" or mod_name.startswith("greensplit.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s[ID], "parent": s[PARENT], "name": s[NAME],
                                     "start": s[START], "end": s[END],
                                     "failed": s[FAILED]}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time: duration minus the time its direct children cover.

    Spans come from one thread and nest properly, so direct children of a
    span never overlap one another.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _has_ancestor(spans: list[list], index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans: list[list], returns: dict[str, list]) -> dict[str, float]:
    """Per-layer counts and times of one traced job."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_total: dict[str, float] = defaultdict(float)
    failures: dict[str, int] = defaultdict(int)
    for s, self_s in zip(spans, own):
        calls[s[NAME]] += 1
        total[s[NAME]] += s[END] - s[START]
        self_total[s[NAME]] += self_s
        failures[s[NAME]] += s[FAILED]

    root_solves = sum(1 for i, s in enumerate(spans)
                      if s[NAME] == "lyapunov.solve" and _has_ancestor(spans, i, "ssa.root"))
    reference_s = sum(s[END] - s[START] for i, s in enumerate(spans)
                      if s[NAME] == "lyapunov.solve_lyapunov"
                      and _has_ancestor(spans, i, "distributed.run"))
    steps = sum(returns.get("sim.switching", [])) + sum(returns.get("sim.average", []))
    expm_calls = calls["sim.expm"]
    return {
        "dynamics.average_matrix.calls": calls["dynamics.average_matrix"],
        "dynamics.average_matrix_s": total["dynamics.average_matrix"],
        "lyapunov.factor.calls": calls["lyapunov.factor"],
        "lyapunov.factor_s": total["lyapunov.factor"],
        "lyapunov.solve.calls": calls["lyapunov.solve"],
        "lyapunov.solve_s": total["lyapunov.solve"],
        "lyapunov.solve.failures": failures["lyapunov.solve"],
        "lyapunov.eigvals.calls": calls["lyapunov.eigvals"],
        "lyapunov.congestion_cost.calls": calls["lyapunov.congestion_cost"],
        "lyapunov.congestion_cost_s": total["lyapunov.congestion_cost"],
        "ssa.root.calls": calls["ssa.root"],
        "ssa.root_self_s": self_total["ssa.root"],
        "ssa.solves_per_root": root_solves / calls["ssa.root"] if calls["ssa.root"] else 0.0,
        "ssa.evaluations": sum(returns.get("ssa.root", [])),
        "ssa.gradient.calls": calls["ssa.gradient"],
        "ssa.gradient_s": total["ssa.gradient"],
        "optimizer.inner_iters": sum(returns.get("optimizer.optimize", [])),
        "optimizer.outer_iters": calls["optimizer.inner"],
        "optimizer.self_s": self_total["optimizer.optimize"] + self_total["optimizer.inner"],
        "sim.steps": steps,
        "sim.expm.calls": expm_calls,
        "sim.expm_s": total["sim.expm"],
        "sim.cache_hit_ratio": 1.0 - expm_calls / steps if steps else 0.0,
        "sim.switching_s": total["sim.switching"],
        "sim.average_s": total["sim.average"],
        "sim.self_s": (self_total["sim.switching"] + self_total["sim.average"]
                       + self_total["sim.averaging_error"]),
        "cli.self_s": self_total["cli.command"],
        "distributed.agent.calls": calls["distributed.agent"],
        "distributed.agent_build_s": total["distributed.agent"],
        "distributed.fold.calls": calls["distributed.fold"],
        "distributed.fold_s": total["distributed.fold"],
        "distributed.null_space.calls": calls["distributed.null_space"],
        "distributed.null_space_s": total["distributed.null_space"],
        "distributed.lstsq_s": total["distributed.lstsq"],
        "distributed.rounds": calls["distributed.round"],
        "distributed.reference_s": reference_s,
        "trace.spans": len(spans),
    }
