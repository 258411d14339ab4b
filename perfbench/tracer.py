"""Counting and timing wrappers around rbed's public functions, from outside.

The tracer replaces module-level functions and class methods (for example
``Rng.next_u64`` and ``Discretizer.index``) with wrappers that count calls
and accumulate inclusive and self time, and it always puts the originals
back. A function bound under its own name in several rbed modules (``from
.agent import run_episode``) is replaced in each of them, because the
caller looks it up in its own module.

Hot functions only aggregate (calls, inclusive ns, self ns); coarse ones
also keep one span per call (name, start ns, end ns, enclosing span). All of
it stays in memory and is written once, by ``write``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import time
from multiprocessing import util as mp_util
from pathlib import Path

# (stat name, module, attribute path, keep one span per call)
TARGETS = (
    ("rng.next_u64", "rbed.rng", "Rng.next_u64", False),
    ("rng.next_f64", "rbed.rng", "Rng.next_f64", False),
    ("envs.cartpole_reset", "rbed.envs", "cartpole_reset", False),
    ("envs.cartpole_step", "rbed.envs", "cartpole_step", False),
    ("envs.tabular_step", "rbed.envs", "TabularCartPole.step", False),
    ("agent.discretizer_index", "rbed.agent", "Discretizer.index", False),
    ("agent.select_action", "rbed.agent", "select_action", False),
    ("agent.q_update", "rbed.agent", "q_update", False),
    ("agent.run_episode", "rbed.agent", "run_episode", False),
    ("schedules.update", "rbed.schedules", "RbedSchedule.update", False),
    ("schedules.update", "rbed.schedules", "ExponentialSchedule.update", False),
    ("schedules.update", "rbed.schedules", "ConstantSchedule.update", False),
    ("runner.run_single_seed", "rbed.runner", "run_single_seed", True),
    ("metrics.aggregate_runs", "rbed.metrics", "aggregate_runs", True),
    ("metrics.solved_at", "rbed.metrics", "solved_at", True),
    ("emit.emit_results", "rbed.emit", "emit_results", True),
    ("emit.emit_compare", "rbed.emit", "emit_compare", True),
    ("emit.figures_from_dir", "rbed.emit", "figures_from_dir", True),
    ("svgchart.line_chart", "rbed.svgchart", "line_chart", True),
    ("config.load_config", "rbed.config", "load_config", True),
)

# Every module that may bind a traced function under its own name.
RBED_MODULES = (
    "rbed", "rbed.rng", "rbed.envs", "rbed.agent", "rbed.schedules", "rbed.runner",
    "rbed.metrics", "rbed.emit", "rbed.svgchart", "rbed.config", "rbed.cli",
)

COUNTERS = (
    "explore",  # select_action calls whose first uniform draw was below epsilon
    "exploit",  # the other select_action calls
    "exploit_ties",  # exploit calls on a row whose maximum is shared
    "rbed_updates",
    "rbed_decays",  # RBED updates that lowered epsilon
    "result_pickle_bytes",  # pickled size of every RunResult, as a pool sends it
)


def _resolve(module_name: str, path: str):
    """(owner, attribute name, original, bound in module namespaces?)."""
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, attr, getattr(owner, attr), not owner_name


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}  # name -> [calls, inclusive ns, self ns]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans: list[tuple[str, int, int, str | None]] = []
        self._child_ns: list[int] = []  # one accumulator per open traced call
        self._open_spans: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._first_f64: float | None = None

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; raises if one no longer exists."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {
            "Rng.next_f64": (None, self._after_next_f64),
            "select_action": (self._before_select, self._after_select),
            "RbedSchedule.update": (None, self._after_rbed_update),
            "run_single_seed": (None, self._after_run_single_seed),
        }
        rbed_modules = [importlib.import_module(m) for m in RBED_MODULES]
        try:
            for name, module_name, path, keep_spans in TARGETS:
                owner, attr, original, is_function = _resolve(module_name, path)
                before, after = hooks.get(path, (None, None))
                wrapper = self._wrap(name, original, keep_spans, before, after)
                owners = [owner]
                if is_function:
                    owners = [m for m in rbed_modules if getattr(m, attr, None) is original]
                for o in owners:
                    setattr(o, attr, wrapper)
                    self._patches.append((o, attr, original))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, name, fn, keep_spans, before, after):
        stat = self.stats.setdefault(name, [0, 0, 0])
        child_ns, open_spans, spans = self._child_ns, self._open_spans, self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                observed = clock()
                before(args)
                if child_ns:  # observer time is nobody's self time
                    child_ns[-1] += clock() - observed
            child_ns.append(0)
            if keep_spans:
                parent = open_spans[-1] if open_spans else None
                open_spans.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child_ns.pop()
                if child_ns:
                    child_ns[-1] += elapsed
                if keep_spans:
                    open_spans.pop()
                    spans.append((name, start, end, parent))
            if after is not None:
                observed = clock()
                after(args, result)
                if child_ns:
                    child_ns[-1] += clock() - observed
            return result

        return traced

    # -- observers: run outside every span's self time ----------------------

    def _after_next_f64(self, args, value) -> None:
        if self._first_f64 is None:
            self._first_f64 = value

    def _before_select(self, args) -> None:
        self._first_f64 = None

    def _after_select(self, args, action) -> None:
        q, s, epsilon = args[0], args[1], args[2]
        # select_action's first uniform draw decides explore vs exploit.
        if self._first_f64 is not None and self._first_f64 < epsilon:
            self.counters["explore"] += 1
            return
        self.counters["exploit"] += 1
        row = q[s]
        if row.count(max(row)) > 1:
            self.counters["exploit_ties"] += 1

    def _after_rbed_update(self, args, new_schedule) -> None:
        self.counters["rbed_updates"] += 1
        if new_schedule.epsilon < args[0].epsilon:
            self.counters["rbed_decays"] += 1

    def _after_run_single_seed(self, args, result) -> None:
        self.counters["result_pickle_bytes"] += len(pickle.dumps(result))

    # -- output -----------------------------------------------------------

    def reset(self) -> None:
        """Zero every count in place (the wrappers hold the containers)."""
        for stat in self.stats.values():
            stat[:] = [0, 0, 0]
        for key in self.counters:
            self.counters[key] = 0
        self.spans.clear()
        self._child_ns.clear()
        self._open_spans.clear()

    def write(self, path: str | Path, **extra) -> None:
        trace = {"pid": os.getpid(), "stats": self.stats, "counters": self.counters, "spans": self.spans}
        Path(path).write_text(json.dumps({**trace, **extra}), encoding="utf-8")

    def follow_forks(self, path_prefix: str) -> None:
        """Make each forked multiprocessing child (a pool worker) start from
        zero counts and write its own trace to ``<path_prefix>-<pid>.json``
        when it exits. Children started by spawn or forkserver run untraced."""
        mp_util.register_after_fork(self, functools.partial(Tracer._start_child, prefix=path_prefix))

    def _start_child(self, prefix: str) -> None:
        self.reset()
        path = f"{prefix}-{os.getpid()}.json"
        mp_util.Finalize(None, functools.partial(self.write, path), exitpriority=100)


def merge(traces: list[dict]) -> dict:
    """Sum the stats and counters of several processes' traces; join spans."""
    stats: dict[str, list[int]] = {}
    counters = dict.fromkeys(COUNTERS, 0)
    spans: list = []
    for trace in traces:
        for name, stat in trace["stats"].items():
            total = stats.setdefault(name, [0, 0, 0])
            for i in range(3):
                total[i] += stat[i]
        for key, value in trace["counters"].items():
            counters[key] += value
        spans += trace["spans"]
    return {"stats": stats, "counters": counters, "spans": spans}
