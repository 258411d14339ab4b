"""Experiment orchestration: seeded multi-run execution and comparisons.

Each seed gets a fresh generator, Q-table, environment, and schedule. The
schedule advances exactly once per episode, after the episode ends, so the
epsilon recorded for an episode is the value that was in force during it.
"""

from __future__ import annotations

import os
import reprlib
from dataclasses import dataclass, fields
from typing import Optional, Sequence

from .agent import Discretizer, new_q_table, run_episode
from .config import ConfigError, ExperimentConfig
from .envs import MAX_STEPS, TabularCartPole, TabularChain
from .metrics import AggregateCurves, RunResult, aggregate_runs, mean, solve_count, solved_at
from .rng import Rng

REACH_MARK = float(MAX_STEPS)  # a capped cart-pole episode: 1.0 per step


def build_env(config: ExperimentConfig):
    if config.environment == "chain":
        return TabularChain(config.chain_states)
    return TabularCartPole(Discretizer(config.agent.buckets, config.agent.clips))


def run_single_seed(config: ExperimentConfig, seed: int) -> RunResult:
    """One fully deterministic run: the seed fixes every draw."""
    rng = Rng(seed)
    env = build_env(config)
    q = new_q_table(env.n_states, env.n_actions)
    schedule = config.scheduler.schedule()
    params = config.agent
    records = []
    append = records.append
    for episode in range(1, config.episodes + 1):
        record = run_episode(env, q, schedule.epsilon, params, rng, episode=episode)
        schedule = schedule.update(record.total_reward)
        append(record)
    records = tuple(records)
    return RunResult(seed=seed, records=records, solved_at=solved_at(records))


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (``taskset`` and container CPU sets narrow it), else
    the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve(tasks: list[tuple[ExperimentConfig, int]], conn) -> None:
    """A started process's work: run each seed-run whose index the caller
    sends and send the index back when it is done, which asks for another.
    At ``None``, send every result in one message; an exception is sent in
    its place and ends the process. Only indices pass during the run, so a
    worker never waits for the caller to read a result."""
    try:
        done = {}
        for i in iter(conn.recv, None):
            config, seed = tasks[i]
            done[i] = run_single_seed(config, seed)
            conn.send(i)
        message = done
    except Exception as exc:
        message = exc
    conn.send(message)


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
            f"worker {k} (pid {process.pid}) exited with code {process.exitcode}"
            " before sending its results"
        ) from None
    if isinstance(message, Exception):
        raise message
    return message


def _run_tasks(configs: tuple[ExperimentConfig, ...], jobs: int) -> list[RunResult]:
    """Run every seed of each config in ``workers`` processes: at most ``jobs``,
    at most one per usable CPU and at most one per seed-run. The calling
    process is one of them. It starts the others and, between its own
    seed-runs, hands each the index of the next seed-run, so a faster
    process runs more of them. The hand-out goes seed by seed, alternating
    configs (each config's first seed, then each one's second, and so on;
    a config whose seeds have run out drops out), so a started process
    that takes two indices up front runs one of each arm, not two of the
    arm whose episodes are shorter. Each started process sends its results
    in one message at the end. Results follow config then seed order, so
    parallel output equals sequential output."""
    tasks = [(config, seed) for config in configs for seed in config.seeds]
    workers = min(jobs, len(tasks), usable_cpus())
    if workers <= 1:
        return [run_single_seed(config, seed) for config, seed in tasks]
    # imported here: serial runs never load multiprocessing
    import multiprocessing

    # task indices by seed position, configs in turn (the sort is stable)
    position = [p for config in configs for p in range(len(config.seeds))]
    order = sorted(range(len(tasks)), key=position.__getitem__)
    results = [None] * len(tasks)
    next_task = 0
    started = {}  # the caller's end of each worker's pipe: (k, process)
    held = {}  # the same ends: how many indices that worker holds

    try:
        for k in range(1, workers):
            conn, child_conn = multiprocessing.Pipe()
            process = multiprocessing.Process(
                target=_serve, args=(tasks, child_conn), name=f"rbed-worker-{k}"
            )
            process.start()
            started[conn], held[conn] = (k, process), 0
            child_conn.close()  # the worker's copy is the last one: its exit ends the pipe
        while True:
            # a worker holds the seed-run it runs and the next, so it does not
            # wait for the caller's to end; the last goes to whoever is free
            for conn, worker in started.items():
                while held[conn] and conn.poll():
                    _receive(*worker, conn)  # the index of a seed-run it finished
                    held[conn] -= 1
                while held[conn] < min(2, len(tasks) - next_task):
                    _hand(conn, order[next_task])
                    next_task += 1
                    held[conn] += 1
            if next_task == len(tasks):
                break
            i = order[next_task]
            results[i] = run_single_seed(*tasks[i])
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
    return _run_tasks((config,), jobs)


def first_reaching(records, mark: float = REACH_MARK) -> Optional[int]:
    """Episode of the first reward at or above the mark, if any."""
    for record in records:
        if record.total_reward >= mark:
            return record.episode
    return None


@dataclass(frozen=True)
class ArmReport:
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


@dataclass(frozen=True)
class ComparisonReport:
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
        solve_count=solve_count(runs),
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
    ``ExperimentConfig`` must match so the comparison is like for like.
    """
    differ = [
        f"{f.name} ({reprlib.repr(getattr(config_a, f.name))}"
        f" != {reprlib.repr(getattr(config_b, f.name))})"
        for f in fields(ExperimentConfig)
        if f.name not in ("scheduler", "agent")
        and getattr(config_a, f.name) != getattr(config_b, f.name)
    ]
    if differ:
        raise ConfigError(f"the two configs differ beyond scheduler and agent: {', '.join(differ)}")
    kind_a = config_a.scheduler.kind
    kind_b = config_b.scheduler.kind
    label_a = kind_a if kind_a != kind_b else f"a:{kind_a}"
    label_b = kind_b if kind_a != kind_b else f"b:{kind_b}"
    # one task list over both arms, handed out seed by seed, alternating
    # arms, to whichever process is free, so no process idles while another
    # runs the slower arm; results come back arm a's seeds then arm b's
    runs = _run_tasks((config_a, config_b), jobs)
    n = len(config_a.seeds)
    arm_a = _arm_report(label_a, config_a, runs[:n])
    arm_b = _arm_report(label_b, config_b, runs[n:])
    ratio = arm_a.solve_count / arm_b.solve_count if arm_b.solve_count > 0 else None
    return ComparisonReport(a=arm_a, b=arm_b, solve_ratio=ratio)
