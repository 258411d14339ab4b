"""Correctness checks on the files one rbed command wrote.

Every check is recomputed from the CSVs alone, independently of rbed's own
code: the run CSVs are the ground truth, and the aggregate CSV, the solved
episodes in report.json and the solved count the CLI prints must agree with
a brute-force scan of them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

RUN_HEADER = "episode,reward,epsilon,steps"
AGGREGATE_HEADER = "episode,mean_reward,mean_rolling100,mean_epsilon"
FIGURES = ("epsilon.svg", "reward.svg", "rolling.svg")
SOLVED_THRESHOLD = 195.0  # CartPole-v0: mean reward >= 195 ...
SOLVED_WINDOW = 100  # ... over 100 consecutive episodes
MAX_REWARD = 200.0  # the v0 step cap


@dataclass(frozen=True)
class Arm:
    """One schedule's output directory within a command's output."""

    subdir: str  # "a"/"b" for compare, "." for run
    kind: str  # scheduler kind: rbed, exponential or constant
    epsilon: float | None = None  # the constant schedule's epsilon


@dataclass
class OutputCheck:
    """Counts and problems for the seed-runs of one command."""

    attempted: int = 0
    failed_runs: set[tuple[str, int]] = field(default_factory=set)  # (arm subdir, seed)
    steps: int = 0
    episodes: int = 0
    cap_endings: int = 0
    problems: list[str] = field(default_factory=list)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def _read_lines(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[0] != header or lines[-1] != "":
        raise ValueError(f"{path.name}: bad header or missing final newline")
    return [line.split(",") for line in lines[1:-1]]


def read_run_csv(path: Path, episodes: int) -> tuple[list[float], list[float], list[int]]:
    rows = _read_lines(path, RUN_HEADER)
    if [int(row[0]) for row in rows] != list(range(1, episodes + 1)):
        raise ValueError(f"{path.name}: episodes are not 1..{episodes}")
    return (
        [float(row[1]) for row in rows],
        [float(row[2]) for row in rows],
        [int(row[3]) for row in rows],
    )


def row_problems(arm: Arm, rewards: list[float], epsilons: list[float], steps: list[int]) -> list[str]:
    problems = []
    if any(float(s) != r for r, s in zip(rewards, steps)):
        problems.append("steps != reward")
    if any(not 1.0 <= r <= MAX_REWARD for r in rewards):
        problems.append("reward outside [1, 200]")
    if any(not 0.0 <= e <= 1.0 for e in epsilons):
        problems.append("epsilon outside [0, 1]")
    if arm.kind == "constant":
        if any(e != arm.epsilon for e in epsilons):
            problems.append("constant epsilon changed")
    elif any(later > earlier for earlier, later in zip(epsilons, epsilons[1:])):
        problems.append("epsilon increased")
    return problems


def brute_solved_at(rewards: list[float]) -> int | None:
    """First episode whose trailing window averages at least the threshold."""
    for end in range(SOLVED_WINDOW, len(rewards) + 1):
        if math.fsum(rewards[end - SOLVED_WINDOW:end]) / SOLVED_WINDOW >= SOLVED_THRESHOLD:
            return end
    return None


def aggregate_problems(path: Path, runs: list[tuple[list[float], list[float]]]) -> list[str]:
    """The aggregate CSV must be the pointwise mean of the run CSVs."""
    n = len(runs)
    episodes = len(runs[0][0])
    rows = _read_lines(path, AGGREGATE_HEADER)
    if len(rows) != episodes:
        return [f"{path.name}: {len(rows)} rows for {episodes} episodes"]
    rolling = [
        [math.fsum(rewards[end - SOLVED_WINDOW:end]) / SOLVED_WINDOW for end in range(SOLVED_WINDOW, episodes + 1)]
        for rewards, _ in runs
    ]
    for i, row in enumerate(rows):
        episode = i + 1
        reward = math.fsum(rewards[i] for rewards, _ in runs) / n
        epsilon = math.fsum(epsilons[i] for _, epsilons in runs) / n
        if int(row[0]) != episode or not _close(float(row[1]), reward) or not _close(float(row[3]), epsilon):
            return [f"{path.name}: episode {episode} is not the mean of the runs"]
        if episode < SOLVED_WINDOW:
            if row[2] != "":
                return [f"{path.name}: rolling mean before episode {SOLVED_WINDOW}"]
        elif not _close(float(row[2]), math.fsum(r[episode - SOLVED_WINDOW] for r in rolling) / n):
            return [f"{path.name}: rolling mean at episode {episode} is not the mean of the runs"]
    return []


def check_outputs(
    out: Path,
    arms: list[Arm],
    seeds: list[int],
    episodes: int,
    exit_code: int,
    stdout: str,
) -> OutputCheck:
    """Check one command's outputs. A seed-run fails if the command failed or
    if any check touching it fails; a problem with an arm's aggregate fails
    every seed-run of that arm."""
    result = OutputCheck(attempted=len(arms) * len(seeds))
    failed = result.failed_runs
    every = {(arm.subdir, seed) for arm in arms for seed in seeds}
    if exit_code != 0:
        result.problems.append(f"command exited with {exit_code}")
        failed |= every
        return result
    solved: dict[str, list[int | None]] = {}
    for arm in arms:
        runs = []
        for seed in seeds:
            try:
                rewards, epsilons, steps = read_run_csv(out / arm.subdir / f"run_{seed}.csv", episodes)
            except (OSError, ValueError) as exc:
                result.problems.append(f"{arm.subdir}/run_{seed}.csv: {exc}")
                failed.add((arm.subdir, seed))
                continue
            for problem in row_problems(arm, rewards, epsilons, steps):
                result.problems.append(f"{arm.subdir}/run_{seed}.csv: {problem}")
                failed.add((arm.subdir, seed))
            runs.append((rewards, epsilons))
            result.steps += sum(steps)
            result.episodes += len(steps)
            result.cap_endings += sum(1 for s in steps if s == MAX_REWARD)
        solved[arm.subdir] = [brute_solved_at(rewards) for rewards, _ in runs]
        try:
            problems = aggregate_problems(out / arm.subdir / "aggregate.csv", runs) if runs else []
        except (OSError, ValueError, IndexError) as exc:
            problems = [f"{arm.subdir}/aggregate.csv: {exc}"]
        if problems:
            result.problems += problems
            failed |= {(arm.subdir, seed) for seed in seeds}
    if failed:
        result.problems.append("solved episodes not checked: some runs already failed")
    elif arms[0].subdir == ".":
        expected = sum(1 for episode in solved["."] if episode is not None)
        if f"solved {expected}/{len(seeds)};" not in stdout:
            result.problems.append(f"printed solved count is not the brute-force count {expected}")
            failed |= every
    else:
        failed |= _report_problems(out / "report.json", arms, seeds, solved, result.problems)
    for name in FIGURES:
        path = out / "figures" / name
        if not path.is_file() or not path.read_bytes().startswith(b"<svg"):
            result.problems.append(f"figures/{name} missing or not SVG")
            failed |= every
    return result


def _report_problems(path, arms, seeds, solved, problems) -> set[tuple[str, int]]:
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
        sections = {
            arm.subdir: (
                report[arm.subdir]["config"]["seeds"],
                report[arm.subdir]["solve_budget"],
                report[arm.subdir]["solved_at"],
                report[arm.subdir]["solve_count"],
            )
            for arm in arms
        }
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"report.json: unreadable or incomplete ({exc!r})")
        return {(arm.subdir, seed) for arm in arms for seed in seeds}
    failed = set()
    for arm in arms:
        reported_seeds, budget, solved_at, solve_count = sections[arm.subdir]
        if reported_seeds != seeds or len(solved_at) != len(seeds):
            problems.append(f"report.json: arm {arm.subdir} lists other seeds")
            failed |= {(arm.subdir, seed) for seed in seeds}
            continue
        for seed, reported, brute in zip(seeds, solved_at, solved[arm.subdir]):
            if reported != brute:
                problems.append(f"report.json: arm {arm.subdir} seed {seed} solved_at {reported} != {brute}")
                failed.add((arm.subdir, seed))
        count = sum(1 for episode in solved[arm.subdir] if episode is not None and episode <= budget)
        if solve_count != count:
            problems.append(f"report.json: arm {arm.subdir} solve_count != {count}")
            failed |= {(arm.subdir, seed) for seed in seeds}
    return failed


def tree_digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file under ``root``, keyed by relative POSIX path."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def tree_differences(a: Path, b: Path) -> list[str]:
    """Relative paths whose bytes differ between two trees (or exist in one)."""
    da, db = tree_digests(a), tree_digests(b)
    return sorted(name for name in da.keys() | db.keys() if da.get(name) != db.get(name))
