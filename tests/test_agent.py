"""Discretization, action selection, TD updates, and episode rollouts."""

import math

import pytest
from hypothesis import given, settings, strategies as st

import rbed.agent
from rbed.agent import (
    Discretizer,
    _edges,
    new_q_table,
    q_update,
    reference_episode,
    run_episode,
    select_action,
)
from rbed.config import DEFAULT_BUCKETS, DEFAULT_CLIPS, MAX_CLIP, AgentConfig
from rbed.envs import (
    LEFT,
    MAX_STEPS,
    RIGHT,
    THETA_THRESHOLD,
    X_THRESHOLD,
    TabularCartPole,
    TabularChain,
)
from rbed.rng import Rng

GRID = Discretizer((3, 3, 6, 6), (2.4, 3.0, THETA_THRESHOLD, 2.0))


class CountingRng(Rng):
    """Counts raw draws so tests can pin the consumption contract."""

    __slots__ = ("draws",)

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def next_u64(self):
        self.draws += 1
        return super().next_u64()


# -- discretizer -----------------------------------------------------------


def test_center_state_index():
    # buckets (1,1,3,3) in mixed radix (3,3,6,6): ((1*3+1)*6+3)*6+3 = 165
    assert GRID.index((0.0, 0.0, 0.0, 0.0)) == 165


def test_out_of_range_values_land_in_edge_buckets():
    assert GRID.index((-10.0, -10.0, -1.0, -10.0)) == 0
    assert GRID.index((10.0, 10.0, 1.0, 10.0)) == GRID.n_states - 1


def test_clip_boundary_goes_to_edge_bucket():
    d = Discretizer((4, 1, 1, 1), (2.0, 1.0, 1.0, 1.0))
    assert d.index((2.0, 0.0, 0.0, 0.0)) == 3
    assert d.index((-2.0, 0.0, 0.0, 0.0)) == 0
    # just inside the positive clip still maps to the top bucket
    assert d.index((1.999999, 0.0, 0.0, 0.0)) == 3


def test_bucket_edges_one_dimension():
    # cells of width 1 over [-2, 2): [-2,-1) -> 0, [-1,0) -> 1, [0,1) -> 2, [1,2] -> 3
    d = Discretizer((4, 1, 1, 1), (2.0, 1.0, 1.0, 1.0))
    assert d.index((-1.5, 0, 0, 0)) == 0
    assert d.index((-1.0, 0, 0, 0)) == 1
    assert d.index((-0.5, 0, 0, 0)) == 1
    assert d.index((0.0, 0, 0, 0)) == 2
    assert d.index((0.5, 0, 0, 0)) == 2
    assert d.index((1.0, 0, 0, 0)) == 3


def test_single_bucket_dimension_ignores_value():
    d = Discretizer((1, 1, 8, 10), (2.4, 3.0, THETA_THRESHOLD, 1.8))
    base = d.index((0.0, 0.0, 0.05, 0.3))
    assert d.index((2.3, -2.9, 0.05, 0.3)) == base
    assert d.index((-2.3, 2.9, 0.05, 0.3)) == base


def test_n_states_is_bucket_product():
    assert GRID.n_states == 3 * 3 * 6 * 6
    assert Discretizer((1, 1, 8, 10), (1, 1, 1, 1)).n_states == 80


def test_edges_are_searched_once_per_grid(monkeypatch):
    calls = []
    real_bucket = rbed.agent.bucket

    def counting_bucket(value, clip, count):
        calls.append(value)
        return real_bucket(value, clip, count)

    monkeypatch.setattr(rbed.agent, "bucket", counting_bucket)
    grid = ((1, 1, 5, 11), (1.0, 1.0, 0.3125, 1.6875))  # clips no other test uses
    Discretizer(*grid)
    assert calls
    calls.clear()
    Discretizer(*grid)
    assert calls == []


def test_index_covers_all_cells():
    # sampling one point per cell must hit every flat index exactly once
    d = Discretizer((2, 3, 4, 5), (1.0, 1.0, 1.0, 1.0))
    seen = set()
    for i0 in range(2):
        for i1 in range(3):
            for i2 in range(4):
                for i3 in range(5):
                    point = [
                        -1.0 + (i0 + 0.5) * 2.0 / 2,
                        -1.0 + (i1 + 0.5) * 2.0 / 3,
                        -1.0 + (i2 + 0.5) * 2.0 / 4,
                        -1.0 + (i3 + 0.5) * 2.0 / 5,
                    ]
                    seen.add(d.index(point))
    assert seen == set(range(d.n_states))


@settings(max_examples=300)
@given(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)
def test_index_always_in_range(x, x_dot, theta, theta_dot):
    idx = GRID.index((x, x_dot, theta, theta_dot))
    assert 0 <= idx < GRID.n_states


def _parent_index(d, state):
    """The four-dimension mixed-radix formula, every dimension visited."""
    idx = 0
    for i in range(4):
        value, clip, count = state[i], d.clips[i], d.buckets[i]
        if value <= -clip:
            bucket = 0
        elif value >= clip:
            bucket = count - 1
        else:
            bucket = int((value + clip) * count / (2.0 * clip))
            if bucket >= count:
                bucket = count - 1
        idx = idx * count + bucket
    return idx


# an even count puts a cell edge at about 0.0, among the subnormals
_COUNTS = st.integers(1, 12)
# clips from the least subnormal to the largest a config allows
_CLIPS = st.one_of(
    st.floats(0.01, 10.0),
    st.floats(5e-324, MAX_CLIP),
    st.sampled_from([5e-324, 1e-323, 2.2250738585072014e-308, 1e-300, MAX_CLIP]),
)
_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
)
_ULP_NUDGES = st.lists(st.sampled_from([-math.inf, math.inf]), max_size=4)


@st.composite
def _grid_and_state(draw):
    buckets = tuple(draw(_COUNTS) for _ in range(4))
    clips = tuple(draw(_CLIPS) for _ in range(4))
    state = []
    for count, clip in zip(buckets, clips):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            state.append(draw(_VALUES))
        elif kind == 1:
            # a real-valued cell edge (clips included), nudged by a few ulps
            edge = -clip + draw(st.integers(0, count)) * (2.0 * clip / count)
            for direction in draw(_ULP_NUDGES):
                edge = math.nextafter(edge, direction)
            state.append(edge)
        else:
            # a true edge or the double just below it: for an even count the
            # middle one lies near -ulp(clip) / 2, out of reach of a nudged 0.0
            edge = draw(st.sampled_from(_edges(clip, count) or (clip,)))
            if draw(st.booleans()):
                edge = math.nextafter(edge, -math.inf)
            state.append(edge)
    return Discretizer(buckets, clips), tuple(state)


@settings(max_examples=500)
@given(_grid_and_state())
def test_index_matches_four_dimension_formula(grid_and_state):
    d, state = grid_and_state
    assert d.index(state) == _parent_index(d, state)


# -- q table and action selection -------------------------------------------


def test_new_q_table_zeroed_and_rows_independent():
    q = new_q_table(4, 2)
    assert q == [[0.0, 0.0]] * 4
    q[0][0] = 5.0
    assert q[1][0] == 0.0


def test_greedy_picks_argmax_without_extra_draws():
    q = [[0.5, 2.0, 1.0]]
    rng = CountingRng(3)
    assert select_action(q, 0, 0.0, rng) == 1
    assert rng.draws == 1  # explore/exploit draw only, no tie-break


def test_exploring_consumes_two_draws():
    q = [[0.5, 2.0]]
    rng = CountingRng(3)
    select_action(q, 0, 1.0, rng)
    assert rng.draws == 2  # explore/exploit draw plus the uniform action


def test_tie_break_consumes_extra_draw():
    q = [[1.0, 1.0]]
    rng = CountingRng(3)
    a = select_action(q, 0, 0.0, rng)
    assert a in (0, 1)
    assert rng.draws == 2


def test_near_tie_is_not_a_tie():
    q = [[1.0, 1.0 + 1e-12]]
    rng = CountingRng(3)
    assert select_action(q, 0, 0.0, rng) == 1
    assert rng.draws == 1


def test_exploration_rate_matches_epsilon():
    # with q favoring action 0, action 1 only appears via exploration
    q = [[1.0, 0.0]]
    rng = Rng(2024)
    n = 200000
    explored = sum(1 for _ in range(n) if select_action(q, 0, 0.3, rng) == 1)
    assert explored / n == pytest.approx(0.15, abs=0.005)  # 0.3 * 1/2


def test_full_exploration_is_uniform():
    q = [[9.0, 0.0]]
    rng = Rng(11)
    n = 100000
    ones = sum(select_action(q, 0, 1.0, rng) for _ in range(n))
    assert ones / n == pytest.approx(0.5, abs=0.01)


def test_epsilon_zero_never_explores():
    q = [[0.0, 1.0]]
    rng = Rng(5)
    assert all(select_action(q, 0, 0.0, rng) == 1 for _ in range(1000))


def test_tie_break_is_uniform():
    q = [[1.0, 1.0]]
    rng = Rng(31)
    n = 100000
    ones = sum(select_action(q, 0, 0.0, rng) for _ in range(n))
    assert ones / n == pytest.approx(0.5, abs=0.01)


# -- td updates --------------------------------------------------------------


def test_update_from_zero_table():
    q = new_q_table(2, 2)
    params = AgentConfig(alpha=0.1, gamma=0.99)
    q_update(q, 0, 1, 1.0, 1, False, params)
    assert q[0][1] == pytest.approx(0.1)  # 0 + 0.1 * (1 + 0.99*0 - 0)
    assert q[0][0] == 0.0 and q[1] == [0.0, 0.0]


def test_update_bootstraps_from_successor_max():
    q = [[0.0, 0.0], [2.0, 3.0]]
    q_update(q, 0, 0, 1.0, 1, False, AgentConfig(alpha=0.1, gamma=0.99))
    assert q[0][0] == pytest.approx(0.1 * (1.0 + 0.99 * 3.0))  # 0.397


def test_terminal_update_ignores_successor():
    q = [[0.0, 0.0], [100.0, 100.0]]
    q_update(q, 0, 0, 1.0, 1, True, AgentConfig(alpha=0.5, gamma=0.99))
    assert q[0][0] == 0.5


def test_update_moves_toward_target_by_alpha():
    q = [[10.0, 0.0], [0.0, 4.0]]
    q_update(q, 0, 0, 2.0, 1, False, AgentConfig(alpha=0.25, gamma=0.5))
    # target = 2 + 0.5*4 = 4; new = 10 + 0.25*(4 - 10) = 8.5
    assert q[0][0] == pytest.approx(8.5)


def test_alpha_one_jumps_to_target():
    q = [[5.0, 0.0], [1.0, 2.0]]
    q_update(q, 0, 0, 1.0, 1, False, AgentConfig(alpha=1.0, gamma=1.0))
    assert q[0][0] == 3.0


# -- rollouts ----------------------------------------------------------------


def test_chain_rollout_record():
    env = TabularChain(5)
    q = new_q_table(env.n_states, env.n_actions)
    # greedy on a table that points right everywhere walks straight to goal
    for s in range(env.n_states):
        q[s][RIGHT] = 1.0
    rec = run_episode(env, q, 0.0, AgentConfig(), Rng(1), episode=7)
    assert rec.episode == 7
    assert rec.steps == 4
    assert rec.total_reward == 1.0
    assert rec.epsilon == 0.0


def test_learning_on_chain_converges_to_closed_form():
    # random behavior, gamma 0.9: Q(s, RIGHT) must approach gamma^(3-s),
    # and Q(0, RIGHT) -> 0.729 exactly (deterministic MDP, fixed point)
    env = TabularChain(5)
    q = new_q_table(env.n_states, env.n_actions)
    params = AgentConfig(alpha=0.1, gamma=0.9)
    rng = Rng(99)
    for ep in range(3000):
        run_episode(env, q, 1.0, params, rng, episode=ep)
    for s in range(4):
        assert q[s][RIGHT] == pytest.approx(0.9 ** (3 - s), abs=1e-6)
    assert q[0][RIGHT] == pytest.approx(0.729, abs=1e-6)


def test_cartpole_reward_equals_steps():
    d = Discretizer((1, 1, 8, 10), (2.4, 3.0, THETA_THRESHOLD, 1.8))
    env = TabularCartPole(d)
    q = new_q_table(env.n_states, env.n_actions)
    rng = Rng(4)
    for ep in range(20):
        rec = run_episode(env, q, 1.0, AgentConfig(), rng, episode=ep)
        assert rec.total_reward == float(rec.steps)
        assert 1 <= rec.steps <= 200


def test_random_policy_episode_length_band():
    # uniformly random actions keep the pole up for roughly 10-40 steps;
    # a mean far outside that band means the dynamics or the policy wiring
    # is broken
    d = Discretizer((1, 1, 8, 10), (2.4, 3.0, THETA_THRESHOLD, 1.8))
    env = TabularCartPole(d)
    q = new_q_table(env.n_states, env.n_actions)
    rng = Rng(1234)
    lengths = [
        run_episode(env, q, 1.0, AgentConfig(), rng, episode=ep).steps for ep in range(300)
    ]
    mean = sum(lengths) / len(lengths)
    assert 15.0 <= mean <= 35.0


def test_rollout_deterministic_for_seed():
    def one(seed):
        d = Discretizer((1, 1, 8, 10), (2.4, 3.0, THETA_THRESHOLD, 1.8))
        env = TabularCartPole(d)
        q = new_q_table(env.n_states, env.n_actions)
        rng = Rng(seed)
        recs = [run_episode(env, q, 0.4, AgentConfig(), rng, episode=ep) for ep in range(30)]
        return recs, q

    recs_a, q_a = one(17)
    recs_b, q_b = one(17)
    assert recs_a == recs_b
    assert q_a == q_b


@pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.5, 1.0])
@pytest.mark.parametrize(
    "buckets, clips",
    [
        ((1, 1, 7, 9), DEFAULT_CLIPS),
        ((1, 1, 6, 8), (2.4, 3.0, THETA_THRESHOLD, 2.0)),
        ((3, 3, 6, 6), DEFAULT_CLIPS),
        # fine cells: x changes cell on 60-62% of these steps, x_dot on
        # 77-80%, theta on 62-64% and theta_dot on 75-76% (measured at each
        # epsilon over the 200 episodes)
        ((48, 8, 48, 8), (0.08, 0.8, 0.12, 1.2)),
        # _edges(5e-324, 4) is (0.0, 0.0, 5e-324): cell 1 is empty
        ((4, 4, 7, 4), (5e-324, 5e-324, THETA_THRESHOLD, 5e-324)),
    ],
    ids=["1x1x7x9", "1x1x6x8", "3x3x6x6", "48x8x48x8", "repeated-edge"],
)
def test_rollout_matches_hand_rolled_loop(buckets, clips, epsilon):
    # the fused cart-pole loop against reference_episode, which runs
    # select_action, TabularCartPole.step and q_update, on the same rng
    # stream: records and tables must agree exactly. The fused loop bisects
    # a dimension only when its value leaves the kept cell, the reference
    # loop every dimension on every step.
    d = Discretizer(buckets, clips)
    params = AgentConfig(alpha=0.3, gamma=1.0)
    env = TabularCartPole(d)
    q = new_q_table(env.n_states, env.n_actions)
    q2 = new_q_table(env.n_states, env.n_actions)
    rng = Rng(42)
    rng2 = Rng(42)
    endings = dict.fromkeys(("fell", "off_track", "cap"), 0)
    for ep in range(200):
        got = run_episode(env, q, epsilon, params, rng, episode=ep)
        assert got == reference_episode(env, q2, epsilon, params, rng2, episode=ep)
        endings[
            "cap" if env.truncated else "off_track" if abs(env._state.x) > X_THRESHOLD else "fell"
        ] += 1
    assert q == q2
    assert rng.next_u64() == rng2.next_u64()  # both consumed the same draws
    if (buckets, epsilon) == ((1, 1, 7, 9), 0.1):
        # each ending of the loop is exercised: the two value-terminal ones
        # and the cap, which bootstraps through
        assert min(endings.values()) >= 1, endings


def _assert_explore_bound_is_the_float_test(epsilon, *more_u):
    bound = Rng.f64_bound(epsilon)
    for u in (0, bound - 1, bound, 2**64 - 1, *more_u):
        if 0 <= u < 2**64:
            assert (u < bound) == ((u >> 11) * 2**-53 < epsilon), (epsilon, u)


@pytest.mark.parametrize(
    "epsilon, bound",
    [
        (-0.0, 0),
        (5e-324, 1 << 11),
        (0.5, 1 << 63),
        (1 - 2**-53, 2**64 - (1 << 11)),
        (1.0, 2**64),
        (2.0, 2**64),
        (math.nan, 0),
        (math.inf, 2**64),
        (-math.inf, 0),
    ],
)
def test_explore_bound_at_edge_epsilons(epsilon, bound):
    assert Rng.f64_bound(epsilon) == bound
    _assert_explore_bound_is_the_float_test(epsilon)


@given(st.floats(0.0, 1.0), st.integers(0, 2**64 - 1))
def test_explore_bound_is_the_float_test(epsilon, u):
    # the fused loop's one integer compare explores on exactly the draws
    # select_action's next_f64() < epsilon does
    _assert_explore_bound_is_the_float_test(epsilon, u)


@pytest.mark.parametrize("epsilon", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("left", [0, 1, 2])
def test_fused_loop_across_a_refill(left, epsilon):
    # both loops start with `left` outputs in the generator's array after the
    # reset's four: the fused loop reserves a refill before its first draw,
    # the reference loop refills when the array runs dry, at left 1 and
    # epsilon 0 (a tie on the zero table) or 1 between the explore draw and
    # the action draw
    d = Discretizer(DEFAULT_BUCKETS, DEFAULT_CLIPS)
    params = AgentConfig()
    env = TabularCartPole(d)
    q = new_q_table(env.n_states, env.n_actions)
    q2 = new_q_table(env.n_states, env.n_actions)
    rng, rng2 = Rng(7), Rng(7)
    block = rng.reserve(0)
    for r in (rng, rng2):
        r.next_u64()  # the first refill
        for _ in range(len(r.reserve(0)) - 4 - left):
            r.next_u64()
    assert len(block) == 4 + left
    for ep in range(3):
        got = run_episode(env, q, epsilon, params, rng, episode=ep)
        assert got == reference_episode(env, q2, epsilon, params, rng2, episode=ep)
    assert rng.reserve(0) is block and len(block) > 4 + left  # refilled in place
    assert q == q2
    assert rng.next_u64() == rng2.next_u64()


@pytest.mark.parametrize("buffered, refills", [(4 + 2 * MAX_STEPS, 0), (3 + 2 * MAX_STEPS, 1)])
def test_fused_episode_refills_only_before_its_first_draw(monkeypatch, buffered, refills):
    # an episode draws four times to reset and at most twice a step, so one
    # that starts with that many outputs buffered never refills, and one that
    # starts with one fewer refills once, before it draws
    rng = Rng(7)
    block = rng.reserve(buffered)
    for _ in range(len(block) - buffered):
        rng.next_u64()
    seen = []
    refill = Rng._refill

    def counted(self):
        seen.append(len(block))
        refill(self)

    monkeypatch.setattr(Rng, "_refill", counted)
    d = Discretizer(DEFAULT_BUCKETS, DEFAULT_CLIPS)
    run_episode(TabularCartPole(d), new_q_table(d.n_states, 2), 1.0, AgentConfig(), rng)
    assert seen == [buffered] * refills


class _CappedStub:
    """Two-state env that ends by time-out, flagged truncated."""

    n_states = 2
    n_actions = 2

    def __init__(self):
        self.truncated = False

    def reset(self, rng):
        self.truncated = False
        return 0

    def step(self, action):
        self.truncated = True
        return 1, 1.0, True


class _TerminalStub(_CappedStub):
    """Same shape but the ending is a real terminal."""

    def step(self, action):
        return 1, 1.0, True


def test_truncated_ending_bootstraps_through():
    params = AgentConfig(alpha=0.5, gamma=1.0)
    q = [[0.0, 0.0], [8.0, 6.0]]
    run_episode(_CappedStub(), q, 0.0, params, Rng(1))
    # target = 1 + max(q[1]) = 9, update = 0.5 * 9
    assert q[0][0] == 4.5

    q = [[0.0, 0.0], [8.0, 6.0]]
    run_episode(_TerminalStub(), q, 0.0, params, Rng(1))
    assert q[0][0] == 0.5  # target collapses to the reward
