"""Per-episode series analytics: rolling averages, the solved criterion, and
cross-run aggregation. Episode indices are 1-based everywhere.

The records are ``NamedTuple``s, as are rbed's configs, schedules and
reports: no rbed command imports ``dataclasses`` (with ``inspect``, ``ast``
and ``tokenize`` behind it), and a worker's results pickle smaller."""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Optional, Sequence

SOLVED_THRESHOLD = 195.0
SOLVED_WINDOW = 100


class EpisodeRecord(NamedTuple):
    """Outcome of one episode: reward total, the epsilon in force, step count."""

    episode: int
    total_reward: float
    epsilon: float
    steps: int


class RunResult(NamedTuple):
    """One seed's full episode series plus its solved episode, if any."""

    seed: int
    records: tuple[EpisodeRecord, ...]
    solved_at: Optional[int]


class AggregateCurves(NamedTuple):
    """Pointwise means across runs.

    ``mean_rolling`` starts at episode ``window``, the solved rule's (no value is
    defined for a partial window), so its first entry belongs to that episode.
    """

    mean_reward: tuple[float, ...]
    mean_rolling: tuple[float, ...]
    mean_epsilon: tuple[float, ...]
    window = SOLVED_WINDOW  # a class constant, not a field


def rolling_mean(series: Sequence[float], window: int) -> list[float]:
    """Trailing-window means via prefix sums.

    The first output covers elements 1..window, so the result is
    ``window - 1`` shorter than the input (empty if the input is shorter
    than the window).
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    prefix = [0.0] * (len(series) + 1)
    acc = 0.0
    for i, value in enumerate(series):
        acc += value
        prefix[i + 1] = acc
    return [
        (prefix[i] - prefix[i - window]) / window
        for i in range(window, len(series) + 1)
    ]


def solved_at(
    records: Sequence[EpisodeRecord],
    threshold: float = SOLVED_THRESHOLD,
    window: int = SOLVED_WINDOW,
) -> Optional[int]:
    """First episode whose trailing ``window`` episodes average at or above
    ``threshold``; None if that never happens."""
    rewards = [r.total_reward for r in records]
    for offset, mean in enumerate(rolling_mean(rewards, window)):
        if mean >= threshold:
            return records[window - 1 + offset].episode
    return None


def mean(values: Sequence[float]) -> Optional[float]:
    """Exactly rounded mean (``math.fsum``, so order does not matter); None
    if there are no values."""
    return math.fsum(values) / len(values) if values else None


def _pointwise_mean(series: Iterable[Sequence[float]]) -> tuple[float, ...]:
    """The mean at each position across equal-length series."""
    return tuple(mean(column) for column in zip(*series))


def solve_count(runs: Sequence[RunResult]) -> int:
    """Number of runs that were solved (``solved_at`` is an episode of the
    run, so a solved run was solved within its episode count)."""
    return sum(1 for run in runs if run.solved_at is not None)


def aggregate_runs(runs: Sequence[RunResult]) -> AggregateCurves:
    """Average the per-episode reward, rolling mean, and epsilon across runs.

    The rolling mean, over the solved rule's window, is computed per run
    first, then averaged pointwise.
    Cross-run means use exact summation, so the result does not depend on
    run order. All runs must have the same episode count.
    """
    if not runs:
        raise ValueError("aggregate_runs needs at least one run")
    n_episodes = len(runs[0].records)
    for run in runs:  # zip would silently cut every series to the shortest
        if len(run.records) != n_episodes:
            raise ValueError(
                f"runs have unequal episode counts: {len(run.records)} != {n_episodes}"
            )
    rewards = [[r.total_reward for r in run.records] for run in runs]
    return AggregateCurves(
        mean_reward=_pointwise_mean(rewards),
        mean_rolling=_pointwise_mean(rolling_mean(series, SOLVED_WINDOW) for series in rewards),
        mean_epsilon=_pointwise_mean([r.epsilon for r in run.records] for run in runs),
    )
