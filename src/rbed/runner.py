"""Experiment orchestration: seeded multi-run execution and comparisons.

``run_seed`` is the one loop over a seed-run's episodes, and it reads no
config: the caller hands it the generator, environment, Q-table (updated in
place, so the caller can read the learned table) and schedule.
``run_single_seed`` builds a fresh set of these from a config and a seed and
calls it. The schedule advances exactly once per episode, after the episode
ends, so the epsilon recorded for an episode is the value that was in force
during it. ``run_tasks`` is the one process pool, for any ``(function,
args)`` tasks; ``run_experiment`` and ``compare`` hand it ``run_single_seed``
tasks, read from this module at each call so a wrapper set there sees them.
"""

from __future__ import annotations

import os
import reprlib
from typing import NamedTuple, Optional, Sequence

from .agent import Discretizer, QTable, new_q_table, run_episode
from .config import AgentConfig, ConfigError, ExperimentConfig
from .envs import MAX_STEPS, TabularCartPole, TabularChain
from .metrics import AggregateCurves, EpisodeRecord, RunResult, aggregate_runs, mean, solved_at
from .rng import Rng

REACH_MARK = float(MAX_STEPS)  # a capped cart-pole episode: 1.0 per step


def build_env(config: ExperimentConfig):
    if config.environment == "chain":
        return TabularChain(config.chain_states)
    return TabularCartPole(Discretizer(config.agent.buckets, config.agent.clips))


def run_seed(rng: Rng, env, q: QTable, schedule, params: AgentConfig, episodes: int) -> tuple[EpisodeRecord, ...]:
    """Episodes 1..``episodes`` of one seed-run, each through ``run_episode``
    at ``schedule.epsilon``; ``schedule`` is anything with ``epsilon`` and an
    ``update(last_reward)`` that returns the next schedule. Each record is
    the episode's number, its ``(total_reward, steps)`` from ``run_episode``
    and the epsilon in force. ``run_episode`` is looked up in this module at
    each call, so a wrapper set there (perfbench's tracer sets one) sees
    every episode."""
    records = []
    append = records.append
    for episode in range(1, episodes + 1):
        epsilon = schedule.epsilon
        total_reward, steps = run_episode(env, q, epsilon, params, rng)
        schedule = schedule.update(total_reward)
        append(EpisodeRecord(episode, total_reward, epsilon, steps))
    return tuple(records)


def run_single_seed(config: ExperimentConfig, seed: int) -> RunResult:
    """One fully deterministic run: the seed fixes every draw."""
    env = build_env(config)
    q = new_q_table(env.n_states, env.n_actions)
    records = run_seed(Rng(seed), env, q, config.scheduler.schedule(), config.agent, config.episodes)
    return RunResult(seed=seed, records=records, solved_at=solved_at(records))


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (``taskset`` and container CPU sets narrow it), else
    the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve(tasks: list[tuple], conn) -> None:
    """A started process's work: run each task whose index the caller sends
    and send the index back when it is done, which asks for another. At
    ``None``, send every result in one message; an exception is sent in its
    place and ends the process. Only indices pass during the run, so a
    worker never waits for the caller to read a result."""
    try:
        done = {}
        for i in iter(conn.recv, None):
            function, args = tasks[i]
            done[i] = function(*args)
            conn.send(i)
        message = done
    except Exception as exc:
        message = exc
    try:
        conn.send(message)
    except Exception as exc:  # a pickling error: send pickles before it writes, so the pipe is whole
        conn.send(TypeError(f"a worker holding tasks {sorted(done)} cannot pickle its message: {exc}"))


def _hand(conn, message) -> None:
    """Send a worker an index, or ``None`` to stop it. One that has already
    stopped cannot take it; receiving from it then says why."""
    try:
        conn.send(message)
    except OSError:
        pass


def _receive(k: int, process, conn):
    """Worker k's next message. An exception it sent is raised here; a
    worker that exits without sending raises ``ChildProcessError``."""
    try:
        message = conn.recv()
    except (EOFError, OSError):  # OSError: it exited holding unread indices
        process.join()
        raise ChildProcessError(
            f"worker {k} (pid {process.pid}) exited with code {process.exitcode} before sending its results"
        ) from None
    if isinstance(message, Exception):
        raise message
    return message


def run_tasks(tasks: Sequence[tuple], jobs: int) -> list:
    """``function(*args)`` for each ``(function, args)`` task, in ``workers``
    processes: at most ``jobs``, at most one per usable CPU and at most one
    per task. The calling process is one of them. It starts the others and,
    between its own tasks, hands each the index of the next in list order,
    so a faster process runs more; with one process it starts none and runs
    every task in turn. A started process takes two indices up front, so a
    caller that interleaves its arms (as ``compare`` does) gives it one of
    each, and sends its results in one message at the end. Returns the
    results in task order, so parallel output equals sequential output.
    With more than one process, each function must be module-level, and its
    args, result and any exception must pickle."""
    workers = min(jobs, len(tasks), usable_cpus())
    results = [None] * len(tasks)
    next_task = 0
    started = {}  # the caller's end of each worker's pipe: (k, process)
    held = {}  # the same ends: how many indices that worker holds

    try:
        for k in range(1, workers):
            # imported here: serial runs never load multiprocessing
            import multiprocessing

            conn, child_conn = multiprocessing.Pipe()
            process = multiprocessing.Process(target=_serve, args=(tasks, child_conn), name=f"rbed-worker-{k}")
            process.start()
            started[conn], held[conn] = (k, process), 0
            child_conn.close()  # the worker's copy is the last one: its exit ends the pipe
        while True:
            # a worker holds the task it runs and the next, so it does not
            # wait for the caller's to end; the last goes to whoever is free
            for conn, worker in started.items():
                while held[conn] and conn.poll():
                    _receive(*worker, conn)  # the index of a task it finished
                    held[conn] -= 1
                while held[conn] < min(2, len(tasks) - next_task):
                    _hand(conn, next_task)
                    next_task += 1
                    held[conn] += 1
            if next_task == len(tasks):
                break
            function, args = tasks[next_task]
            results[next_task] = function(*args)
            next_task += 1
        for conn in started:
            _hand(conn, None)
        for conn, worker in started.items():
            for _ in range(held[conn]):
                _receive(*worker, conn)
            for i, result in _receive(*worker, conn).items():
                results[i] = result
    except BaseException:
        for _, process in started.values():
            process.terminate()
        raise
    finally:
        for conn, (_, process) in started.items():
            process.join()
            conn.close()
    return results


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> list[RunResult]:
    """Run every seed; results follow the config's seed order."""
    return run_tasks([(run_single_seed, (config, seed)) for seed in config.seeds], jobs)


def first_reaching(records) -> Optional[int]:
    """Episode of the first reward at or above ``REACH_MARK``, if any."""
    for record in records:
        if record.total_reward >= REACH_MARK:
            return record.episode
    return None


class ArmReport(NamedTuple):
    """Summary of one configuration's runs within a comparison."""

    label: str
    config: ExperimentConfig
    runs: tuple[RunResult, ...]
    solve_budget: int
    solve_count: int
    mean_solve_episode: Optional[float]
    first_200: tuple[Optional[int], ...]
    mean_first_200: Optional[float]
    curves: AggregateCurves


class ComparisonReport(NamedTuple):
    a: ArmReport
    b: ArmReport
    solve_ratio: Optional[float]


def _arm_report(label: str, config: ExperimentConfig, runs: Sequence[RunResult]) -> ArmReport:
    solved = [run.solved_at for run in runs if run.solved_at is not None]
    first_200 = tuple(first_reaching(run.records) for run in runs)
    reached = [episode for episode in first_200 if episode is not None]
    return ArmReport(
        label=label,
        config=config,
        runs=tuple(runs),
        solve_budget=config.episodes,
        solve_count=len(solved),
        mean_solve_episode=mean(solved),
        first_200=first_200,
        mean_first_200=mean(reached),
        curves=aggregate_runs(runs),
    )


def compare(
    config_a: ExperimentConfig, config_b: ExperimentConfig, jobs: int = 1
) -> ComparisonReport:
    """Run two configurations over the identical protocol and summarize.

    Only the scheduler and agent may differ; every other field of
    ``ExperimentConfig`` must match so the comparison is like for like, and
    both arms run on the seed tuple they share, as one task list.
    """
    differ = [
        f"{name} ({reprlib.repr(getattr(config_a, name))}"
        f" != {reprlib.repr(getattr(config_b, name))})"
        for name in ExperimentConfig._fields
        if name not in ("scheduler", "agent")
        and getattr(config_a, name) != getattr(config_b, name)
    ]
    if differ:
        raise ConfigError(f"the two configs differ beyond scheduler and agent: {', '.join(differ)}")
    kind_a = config_a.scheduler.kind
    kind_b = config_b.scheduler.kind
    label_a = kind_a if kind_a != kind_b else f"a:{kind_a}"
    label_b = kind_b if kind_a != kind_b else f"b:{kind_b}"
    # one task list over both arms on their one seed tuple, seed by seed,
    # arms in turn, handed to whichever process is free, so no process
    # idles while another runs the slower arm
    runs = run_tasks([(run_single_seed, (c, seed)) for seed in config_a.seeds for c in (config_a, config_b)], jobs)
    arm_a = _arm_report(label_a, config_a, runs[0::2])
    arm_b = _arm_report(label_b, config_b, runs[1::2])
    ratio = arm_a.solve_count / arm_b.solve_count if arm_b.solve_count > 0 else None
    return ComparisonReport(a=arm_a, b=arm_b, solve_ratio=ratio)
