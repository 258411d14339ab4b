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
from math import cos, sin
from typing import Sequence

from .config import AgentConfig
from .envs import (
    FORCE_MAG,
    GRAVITY,
    MASS_POLE,
    MAX_STEPS,
    POLE_HALF_LENGTH,
    POLEMASS_LENGTH,
    TAU,
    THETA_THRESHOLD,
    TOTAL_MASS,
    X_THRESHOLD,
    TabularCartPole,
    cartpole_reset,
)
from .metrics import EpisodeRecord
from .rng import Rng

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

    Each edge is a bisection over [-clip, clip], where ``bucket`` is 0 and
    count - 1. Halving the gap ends when the midpoint equals an end, which is
    when the ends are adjacent doubles; it reaches an edge near 0.0 without
    crossing the subnormals one at a time. Cached, so each (clip, count) is
    searched once per process.
    """
    edges = []
    for k in range(1, count):
        lo, hi = -clip, clip
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
    the bucket tuple.

    ``index`` does not evaluate ``bucket``: for each dimension, ``edges``
    holds the least double at which ``bucket`` reaches each of 1..count-1
    (none for one bucket), from ``_edges``, and ``index`` counts the edges at
    or below the value with ``bisect_right``. That count equals ``bucket``
    for every non-NaN double, because ``bucket`` never decreases as the
    value grows (each of its roundings is monotone), so ``bucket(v) >= k``
    exactly when ``v`` is at or above edge k.
    """

    buckets: tuple[int, int, int, int]
    clips: tuple[float, float, float, float]
    # per dimension: the cell edges, and the cell's mixed-radix stride
    edges: tuple = field(init=False, repr=False, compare=False)
    strides: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(map(_edges, self.clips, self.buckets)))
        object.__setattr__(self, "strides", tuple(math.prod(self.buckets[i + 1 :]) for i in range(4)))

    @property
    def n_states(self) -> int:
        return math.prod(self.buckets)

    def index(self, state: Sequence[float]) -> int:
        """The flat index of ``state``; ``_cartpole_episode`` calls this for its
        reset state and sums the same counts on its own locals after that."""
        idx = 0
        for edges, stride, value in zip(self.edges, self.strides, state):
            idx += bisect_right(edges, value) * stride
        return idx


def new_q_table(n_states: int, n_actions: int) -> QTable:
    """Zero-initialized action-value table."""
    return [[0.0] * n_actions for _ in range(n_states)]


def select_action(q: QTable, s: int, epsilon: float, rng: Rng) -> int:
    """Epsilon-greedy selection.

    One uniform draw decides explore vs exploit; exploring picks an action
    uniformly, exploiting takes the argmax with ties broken uniformly at
    random (a further draw happens only on an actual tie).
    ``_cartpole_episode`` inlines this; ``reference_episode`` calls it.
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
    successor. ``_cartpole_episode`` inlines this; ``reference_episode``
    calls it."""
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

    A ``TabularCartPole`` episode runs in ``_cartpole_episode``, the hot
    path, which never calls the environment; the tests hold it equal to
    ``reference_episode``. Any other environment runs in
    ``reference_episode``.
    """
    if isinstance(env, TabularCartPole):
        return _cartpole_episode(env.discretizer, q, epsilon, params, rng, episode)
    return reference_episode(env, q, epsilon, params, rng, episode)


def reference_episode(
    env,
    q: QTable,
    epsilon: float,
    params: AgentConfig,
    rng: Rng,
    episode: int = 0,
) -> EpisodeRecord:
    """The episode loop as the paper states it: from ``env.reset``, each step
    is ``select_action``, ``env.step`` and ``q_update``, until ``env.step``
    says done.

    Q is updated in place after every step. Schedules advance between
    episodes, never inside one. Endings the environment flags in its
    ``truncated`` attribute (time ran out, state still fine) are not treated
    as value-terminal: the update bootstraps through them so step caps do
    not poison the values of healthy states.
    """
    s = env.reset(rng)
    total = 0.0
    steps = 0
    done = False
    while not done:
        a = select_action(q, s, epsilon, rng)
        s_next, reward, done = env.step(a)
        q_update(q, s, a, reward, s_next, done and not env.truncated, params)
        total += reward
        steps += 1
        s = s_next
    return EpisodeRecord(episode=episode, total_reward=total, epsilon=epsilon, steps=steps)


def _cartpole_episode(
    discretizer: Discretizer,
    q: QTable,
    epsilon: float,
    params: AgentConfig,
    rng: Rng,
    episode: int,
) -> EpisodeRecord:
    """``run_episode`` on a ``TabularCartPole``: the hot path, one frame per
    episode with the state in locals.

    After ``cartpole_reset`` and ``Discretizer.index`` on the first state,
    each step does what ``select_action``, ``cartpole_step``,
    ``Discretizer.index`` and ``q_update`` do, in the same order, on the
    same draws and with the same float operations: the accelerations are
    grouped as in ``envs.accelerations``; leaving the bounds is tested
    before the cap, so a fall on the last step is value-terminal. A
    cart-pole has two actions, so a uniform action is the low bit of one
    draw, which equals ``Rng.next_int_below(2)``, and every step pays 1.0,
    so the episode's reward is its step count.

    The episode draws four times to reset and at most twice a step, so it
    reserves that many draws once and pops them with no refill in the loop;
    ``pop() < Rng.f64_bound(epsilon)`` is ``next_f64() < epsilon``.
    """
    pop = rng.reserve(4 + 2 * MAX_STEPS).pop
    explore_below = Rng.f64_bound(epsilon)
    alpha = params.alpha
    gamma = params.gamma
    e0, e1, e2, e3 = discretizer.edges  # () for a dimension with one bucket
    k0, k1, k2, k3 = discretizer.strides
    state = cartpole_reset(rng)
    row = q[discretizer.index(state)]
    x, x_dot, theta, theta_dot, steps = state
    while True:
        if pop() < explore_below:
            a = pop() & 1
        elif row[1] > row[0]:
            a = 1
        elif row[1] == row[0]:
            a = pop() & 1
        else:
            a = 0
        force = FORCE_MAG if a else -FORCE_MAG
        cos_t = cos(theta)
        sin_t = sin(theta)
        temp = (force + POLEMASS_LENGTH * theta_dot * theta_dot * sin_t) / TOTAL_MASS
        theta_acc = (GRAVITY * sin_t - cos_t * temp) / (
            POLE_HALF_LENGTH * (4.0 / 3.0 - MASS_POLE * cos_t * cos_t / TOTAL_MASS)
        )
        x_acc = temp - POLEMASS_LENGTH * theta_acc * cos_t / TOTAL_MASS
        x += TAU * x_dot
        x_dot += TAU * x_acc
        theta += TAU * theta_dot
        theta_dot += TAU * theta_acc
        steps += 1
        if x > X_THRESHOLD or x < -X_THRESHOLD or theta > THETA_THRESHOLD or theta < -THETA_THRESHOLD:
            row[a] += alpha * (1.0 - row[a])  # fell or left the track: no bootstrap
            break
        s = 0
        if e0:
            s += bisect_right(e0, x) * k0
        if e1:
            s += bisect_right(e1, x_dot) * k1
        if e2:
            s += bisect_right(e2, theta) * k2
        if e3:
            s += bisect_right(e3, theta_dot) * k3
        nxt = q[s]
        n0 = nxt[0]
        n1 = nxt[1]
        row[a] += alpha * (1.0 + gamma * (n1 if n1 > n0 else n0) - row[a])
        if steps >= MAX_STEPS:  # the cap: bootstraps through
            break
        row = nxt
    return EpisodeRecord(episode=episode, total_reward=float(steps), epsilon=epsilon, steps=steps)
