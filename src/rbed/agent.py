"""Tabular Q-learning driven by an epsilon-greedy policy.

The continuous cart-pole state is discretized onto a small grid (values
beyond the clip ranges land in the edge buckets), and action values live in
a dense table indexed by flat bucket index and action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .envs import THETA_THRESHOLD
from .metrics import EpisodeRecord
from .rng import _INV_2_53, Rng

QTable = list  # list[list[float]], shape (n_states, n_actions)

# Position and cart-velocity carry a single bucket each: for the benchmark
# the angle and angular velocity dominate, and folding the other two
# dimensions away makes the table small enough to learn within the episode
# budget. Velocity ranges are unbounded in the physics, so those clips are
# tuned choices rather than physical constants.
DEFAULT_BUCKETS = (1, 1, 7, 9)
DEFAULT_CLIPS = (2.4, 3.0, THETA_THRESHOLD, 1.7)


@dataclass(frozen=True)
class AgentParams:
    alpha: float = 0.26
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")


@dataclass(frozen=True)
class Discretizer:
    """Maps a 4-dimensional continuous state to a flat bucket index.

    Each dimension i is clipped to [-clips[i], clips[i]] and split into
    buckets[i] equal cells; the four bucket indices combine in mixed radix,
    so the flat index is bijective with the bucket tuple. A dimension with a
    single bucket always contributes 0, so ``index`` reads only the live ones.
    """

    buckets: tuple[int, int, int, int] = DEFAULT_BUCKETS
    clips: tuple[float, float, float, float] = DEFAULT_CLIPS
    # (dimension, clip, 2 * clip, bucket count, mixed-radix stride) per live dimension
    _live: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.buckets) != 4 or len(self.clips) != 4:
            raise ValueError("buckets and clips must each have 4 entries")
        if any(b < 1 for b in self.buckets):
            raise ValueError(f"bucket counts must be >= 1, got {self.buckets}")
        if any(c <= 0.0 for c in self.clips):
            raise ValueError(f"clip ranges must be positive, got {self.clips}")
        live = tuple(
            (i, self.clips[i], 2.0 * self.clips[i], self.buckets[i], math.prod(self.buckets[i + 1 :]))
            for i in range(4)
            if self.buckets[i] > 1
        )
        object.__setattr__(self, "_live", live)

    @property
    def n_states(self) -> int:
        return math.prod(self.buckets)

    def index(self, state: Sequence[float]) -> int:
        idx = 0
        for i, clip, two_clip, count, stride in self._live:
            value = state[i]
            if value <= -clip:
                continue  # bucket 0
            if value >= clip:
                bucket = count - 1
            else:
                # not (value + clip) * (count / two_clip): that rounds
                # differently within a few ulps of a cell edge
                bucket = int((value + clip) * count / two_clip)
                if bucket >= count:  # guard the v ~ clip rounding edge
                    bucket = count - 1
            idx += bucket * stride
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
    params: AgentParams,
) -> None:
    """One temporal-difference backup, in place. Terminal transitions do not
    bootstrap from the successor. ``run_episode`` inlines this; it stays as
    the reference the tests hold the loop to."""
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
    params: AgentParams,
    rng: Rng,
    episode: int = 0,
) -> EpisodeRecord:
    """One rollout from reset to termination with epsilon held fixed.

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
