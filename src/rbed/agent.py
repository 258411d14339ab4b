"""Tabular Q-learning driven by an epsilon-greedy policy.

The continuous cart-pole state is discretized onto a small grid (values
beyond the clip ranges land in the edge buckets), and action values live in
a dense table indexed by flat bucket index and action.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from math import cos, sin
from typing import TYPE_CHECKING, Sequence

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
from .rng import Rng

if TYPE_CHECKING:
    from .config import AgentConfig

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

    ``bounds`` is the same edges as one table of cell bounds per dimension,
    ``(-inf, *edges, inf)``: the values of cell c are ``bounds[c] <= v <
    bounds[c + 1]``, so ``bisect_right(edges, v) == c`` exactly when v is
    within them (+inf and NaN are within no cell). ``run_episode`` keeps the
    bounds of the current cell and bisects a dimension only when its value
    leaves them.
    """

    __slots__ = ("buckets", "clips", "edges", "strides", "bounds")

    def __init__(
        self, buckets: tuple[int, int, int, int], clips: tuple[float, float, float, float]
    ) -> None:
        self.buckets = buckets
        self.clips = clips
        # per dimension: the cell edges, the cell's mixed-radix stride, and
        # the cells' bounds
        self.edges = edges = tuple(map(_edges, clips, buckets))
        self.strides = tuple(math.prod(buckets[i + 1 :]) for i in range(4))
        self.bounds = tuple((-math.inf, *e, math.inf) for e in edges)

    @property
    def n_states(self) -> int:
        return math.prod(self.buckets)

    def index(self, state: Sequence[float]) -> int:
        """The flat index of ``state``. ``TabularCartPole`` calls this;
        ``run_episode`` finds its cells with its own bisects."""
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
    ``run_episode`` inlines this on a cart-pole; ``reference_episode``
    calls it.
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
    successor. ``run_episode`` inlines this on a cart-pole;
    ``reference_episode`` calls it."""
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
) -> tuple[float, int]:
    """One rollout from reset to termination with epsilon held fixed, learning
    with the ``alpha`` and ``gamma`` of ``params``, the run's ``AgentConfig``.
    Returns the episode's total reward and step count.

    Any environment other than a ``TabularCartPole`` runs in
    ``reference_episode``. A cart-pole episode is the hot path: it runs here,
    in one frame with the state, the constants and the functions it calls in
    locals, reads only the environment's ``discretizer`` and never calls the
    environment. The tests hold it equal to ``reference_episode``.

    After ``cartpole_reset``, each step does what ``select_action``,
    ``cartpole_step``, ``Discretizer.index`` and ``q_update`` do, in the same
    order, on the same draws and with the same float operations: the
    accelerations are grouped as in ``envs.accelerations``; leaving the
    bounds is tested before the cap, so a fall on the last step is
    value-terminal and a capped step bootstraps. A cart-pole has two
    actions, so a uniform action is the low bit of one draw, which equals
    ``Rng.next_int_below(2)``, and every step pays 1.0, so the episode's
    reward is its step count.

    The loop keeps the cell of (x, x_dot, theta) as its bounds from
    ``Discretizer.bounds`` and as ``base``, the flat index of that cell's
    first theta_dot cell. theta_dot is the last dimension (stride 1), so it
    is bisected every step and its cell added to ``base`` indexes ``q``; the
    other three are bisected only when one range test finds their value
    outside the kept bounds, which gives ``bisect_right``'s cell because that
    cell is the one whose bounds hold the value (+inf and NaN are within none
    and are bisected).

    The episode draws four times to reset and at most twice a step, so it
    reserves that many draws once and pops them with no refill in the loop;
    ``pop() < Rng.f64_bound(epsilon)`` is ``next_f64() < epsilon``.
    """
    if not isinstance(env, TabularCartPole):
        return reference_episode(env, q, epsilon, params, rng)
    pop = rng.reserve(4 + 2 * MAX_STEPS).pop
    explore_below = Rng.f64_bound(epsilon)
    alpha = params.alpha
    gamma = params.gamma
    bisect = bisect_right
    cosine = cos
    sine = sin
    gravity = GRAVITY
    mass_pole = MASS_POLE
    half_length = POLE_HALF_LENGTH
    polemass_length = POLEMASS_LENGTH
    total_mass = TOTAL_MASS
    tau = TAU
    push = FORCE_MAG
    pull = -FORCE_MAG
    x_max = X_THRESHOLD
    x_min = -X_THRESHOLD
    theta_max = THETA_THRESHOLD
    theta_min = -THETA_THRESHOLD
    discretizer = env.discretizer
    e0, e1, e2, e3 = discretizer.edges  # () for a dimension with one bucket
    w0, w1, w2, _ = discretizer.bounds  # cell c is w[c] <= v < w[c + 1]
    k0, k1, k2, _ = discretizer.strides
    x, x_dot, theta, theta_dot, _ = cartpole_reset(rng)
    c = bisect(e0, x)
    x_lo, x_hi, b0 = w0[c], w0[c + 1], c * k0
    c = bisect(e1, x_dot)
    v_lo, v_hi, b1 = w1[c], w1[c + 1], c * k1
    c = bisect(e2, theta)
    t_lo, t_hi, b2 = w2[c], w2[c + 1], c * k2
    base = b0 + b1 + b2
    row = q[base + bisect(e3, theta_dot)]
    for steps in range(1, MAX_STEPS + 1):
        if pop() < explore_below:
            a = pop() & 1
        elif row[1] > row[0]:
            a = 1
        elif row[1] == row[0]:
            a = pop() & 1
        else:
            a = 0
        force = push if a else pull
        cos_t = cosine(theta)
        sin_t = sine(theta)
        temp = (force + polemass_length * theta_dot * theta_dot * sin_t) / total_mass
        theta_acc = (gravity * sin_t - cos_t * temp) / (
            half_length * (4.0 / 3.0 - mass_pole * cos_t * cos_t / total_mass)
        )
        x_acc = temp - polemass_length * theta_acc * cos_t / total_mass
        x += tau * x_dot
        x_dot += tau * x_acc
        theta += tau * theta_dot
        theta_dot += tau * theta_acc
        if x > x_max or x < x_min or theta > theta_max or theta < theta_min:
            row[a] += alpha * (1.0 - row[a])  # fell or left the track: no bootstrap
            break
        if not (t_lo <= theta < t_hi and v_lo <= x_dot < v_hi and x_lo <= x < x_hi):
            if not t_lo <= theta < t_hi:
                c = bisect(e2, theta)
                t_lo, t_hi, b2 = w2[c], w2[c + 1], c * k2
            if not v_lo <= x_dot < v_hi:
                c = bisect(e1, x_dot)
                v_lo, v_hi, b1 = w1[c], w1[c + 1], c * k1
            if not x_lo <= x < x_hi:
                c = bisect(e0, x)
                x_lo, x_hi, b0 = w0[c], w0[c + 1], c * k0
            base = b0 + b1 + b2
        nxt = q[base + bisect(e3, theta_dot)]
        n0 = nxt[0]
        n1 = nxt[1]
        row[a] += alpha * (1.0 + gamma * (n1 if n1 > n0 else n0) - row[a])  # a capped step bootstraps
        row = nxt
    return float(steps), steps


def reference_episode(
    env,
    q: QTable,
    epsilon: float,
    params: AgentConfig,
    rng: Rng,
) -> tuple[float, int]:
    """The episode loop as the paper states it: from ``env.reset``, each step
    is ``select_action``, ``env.step`` and ``q_update``, until ``env.step``
    says done. Returns the total reward and the step count.

    Q is updated in place after every step. Schedules advance between
    episodes, never inside one. ``env.step`` returns ``(s, reward, done,
    truncated)``; an ending it flags truncated (time ran out, state still
    fine) is not treated as value-terminal: the update bootstraps through it
    so step caps do not poison the values of healthy states.
    """
    s = env.reset(rng)
    total = 0.0
    steps = 0
    done = False
    while not done:
        a = select_action(q, s, epsilon, rng)
        s_next, reward, done, truncated = env.step(a)
        q_update(q, s, a, reward, s_next, done and not truncated, params)
        total += reward
        steps += 1
        s = s_next
    return total, steps
