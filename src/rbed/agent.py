"""Tabular Q-learning driven by an epsilon-greedy policy.

The continuous cart-pole state is discretized onto a small grid (values
beyond the clip ranges land in the edge buckets), and action values live in
a dense table indexed by flat bucket index and action.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

from .config import AgentConfig
from .metrics import EpisodeRecord
from .rng import _INV_2_53, Rng

QTable = list  # list[list[float]], shape (n_states, n_actions)


def bucket(value: float, clip: float, count: int) -> int:
    """The cell of ``value`` among ``count`` equal cells over [-clip, clip].

    Values at or beyond a clip land in the edge cells. This is the definition
    of the grid; ``Discretizer`` only precomputes where its cells change.
    """
    if value <= -clip:
        return 0
    if value >= clip:
        return count - 1
    # not (value + clip) * (count / (2 * clip)): that rounds differently
    # within a few ulps of a cell edge
    cell = int((value + clip) * count / (2.0 * clip))
    return cell if cell < count else count - 1  # guard the v ~ clip rounding edge


@functools.cache
def _edges(clip: float, count: int) -> tuple[float, ...]:
    """For each k in 1..count-1, the least double whose ``bucket`` is k or more.

    Each edge is a bisection over values inside a checked bracket: a few ulps
    around the real-valued edge, widened to the clip on a side that fails the
    check, so the slack affects only the speed. Halving the gap ends when the
    midpoint equals an end, which is when the ends are adjacent doubles; it
    reaches an edge near 0.0 without crossing the subnormals one at a time.
    Cached, so each (clip, count) is searched once per process.
    """
    slack = 4 * math.ulp(clip)
    edges = []
    for k in range(1, count):
        guess = k * (2.0 * clip) / count - clip
        lo, hi = max(guess - slack, -clip), min(guess + slack, clip)
        if bucket(lo, clip, count) >= k:
            lo = -clip
        if bucket(hi, clip, count) < k:
            hi = clip
        while True:  # bucket(lo) < k <= bucket(hi)
            mid = (lo + hi) / 2
            if mid == lo or mid == hi:
                break
            if bucket(mid, clip, count) >= k:
                hi = mid
            else:
                lo = mid
        edges.append(hi)
    return tuple(edges)


@dataclass(frozen=True)
class Discretizer:
    """Maps a 4-dimensional continuous state to a flat bucket index.

    Dimension i lands in cell ``bucket(state[i], clips[i], buckets[i])``; the
    four cells combine in mixed radix, so the flat index is bijective with
    the bucket tuple. A dimension with a single bucket always contributes 0,
    so ``index`` reads only the live ones.

    ``index`` does not evaluate ``bucket``: for each live dimension it keeps
    the edges from ``_edges``, the least double at which ``bucket`` reaches
    each of 1..count-1, and counts the edges at or below the value with
    ``bisect_right``. That count equals ``bucket`` for every non-NaN double,
    because ``bucket`` never decreases as the value grows (each of its
    roundings is monotone), so ``bucket(v) >= k`` exactly when ``v`` is at
    or above edge k. The edges are found by bisection over values inside a
    checked bracket, once per (clip, count) in a process.
    """

    buckets: tuple[int, int, int, int]
    clips: tuple[float, float, float, float]
    # (dimension, edges, mixed-radix stride) per live dimension
    _live: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        live = tuple(
            (i, _edges(self.clips[i], self.buckets[i]), math.prod(self.buckets[i + 1 :]))
            for i in range(4)
            if self.buckets[i] > 1
        )
        object.__setattr__(self, "_live", live)

    @property
    def n_states(self) -> int:
        return math.prod(self.buckets)

    def index(self, state: Sequence[float]) -> int:
        idx = 0
        for i, edges, stride in self._live:
            idx += bisect_right(edges, state[i]) * stride
        return idx


def new_q_table(n_states: int, n_actions: int) -> QTable:
    """Zero-initialized action-value table."""
    return [[0.0] * n_actions for _ in range(n_states)]


def select_action(q: QTable, s: int, epsilon: float, rng: Rng) -> int:
    """Epsilon-greedy selection.

    One uniform draw decides explore vs exploit; exploring picks an action
    uniformly, exploiting takes the argmax with ties broken uniformly at
    random (a further draw happens only on an actual tie). ``run_episode``
    inlines this; it stays as the reference the tests hold the loop to.
    """
    row = q[s]
    n = len(row)
    if rng.next_f64() < epsilon:
        return rng.next_int_below(n)
    best = row[0]
    ties = [0]
    for a in range(1, n):
        value = row[a]
        if value > best:
            best = value
            ties = [a]
        elif value == best:
            ties.append(a)
    if len(ties) == 1:
        return ties[0]
    return ties[rng.next_int_below(len(ties))]


def q_update(
    q: QTable,
    s: int,
    a: int,
    reward: float,
    s_next: int,
    done: bool,
    params: AgentConfig,
) -> None:
    """One temporal-difference backup, in place, with the run's ``alpha`` and
    ``gamma`` from ``params``. Terminal transitions do not bootstrap from the
    successor. ``run_episode`` inlines this; it stays as the reference the
    tests hold the loop to."""
    if done:
        target = reward
    else:
        target = reward + params.gamma * max(q[s_next])
    row = q[s]
    row[a] += params.alpha * (target - row[a])


def run_episode(
    env,
    q: QTable,
    epsilon: float,
    params: AgentConfig,
    rng: Rng,
    episode: int = 0,
) -> EpisodeRecord:
    """One rollout from reset to termination with epsilon held fixed, learning
    with the ``alpha`` and ``gamma`` of ``params``, the run's ``AgentConfig``.

    Q is updated in place after every step. Schedules advance between
    episodes, never inside one. Endings the environment flags in its
    ``truncated`` attribute (time ran out, state still fine) are not treated
    as value-terminal: the update bootstraps through them so step caps do
    not poison the values of healthy states.

    Action selection and the backup are written inline for speed; each step
    draws exactly what ``select_action`` draws and updates exactly as
    ``q_update`` does, and the tests hold this loop to that composition.
    Every environment here has two actions, so a uniform action is the low
    bit of one draw, which equals ``Rng.next_int_below(2)``.
    """
    if env.n_actions != 2:
        raise ValueError(f"run_episode needs 2 actions, got {env.n_actions}")
    u64 = rng.next_u64
    step = env.step
    alpha = params.alpha
    gamma = params.gamma
    s = env.reset(rng)
    total = 0.0
    steps = 0
    done = False
    while not done:
        row = q[s]
        if (u64() >> 11) * _INV_2_53 < epsilon:
            a = u64() & 1
        elif row[1] > row[0]:
            a = 1
        elif row[1] == row[0]:
            a = u64() & 1
        else:
            a = 0
        s_next, reward, done = step(a)
        if done and not env.truncated:
            target = reward
        else:
            target = reward + gamma * max(q[s_next])
        row[a] += alpha * (target - row[a])
        total += reward
        steps += 1
        s = s_next
    return EpisodeRecord(episode=episode, total_reward=total, epsilon=epsilon, steps=steps)
