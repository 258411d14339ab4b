"""Schedule semantics: decay arithmetic, clamping, and the update contract.

The reward-gated schedule carries an exact ledger: after k triggering
updates epsilon is start - k*change and the threshold has risen k times.
Property tests drive randomized reward sequences against that ledger.
"""

import math

from hypothesis import given, settings, strategies as st

from rbed.config import RbedConfig
from rbed.schedules import ConstantSchedule, ExponentialSchedule, RbedSchedule


def test_init_for_target_arithmetic():
    s = RbedSchedule.for_target(195.0)
    assert s.epsilon == 1.0
    assert s.reward_threshold == 0.0
    assert math.isclose(s.change, 1.0 / 195.0, rel_tol=1e-12)


def test_init_degenerate_zero_range():
    s = RbedSchedule.for_target(195.0, epsilon_start=1.0, epsilon_min=1.0)
    assert s.change == 0.0
    assert s.update(500.0).epsilon == 1.0


def test_init_custom_values():
    s = RbedSchedule.for_target(
        100.0, epsilon_start=0.5, epsilon_min=0.1, reward_increment=5.0, reward_threshold_init=10.0
    )
    assert math.isclose(s.change, 0.004, rel_tol=1e-12)
    assert s.epsilon == 0.5
    assert s.reward_threshold == 10.0


def test_update_fires_on_equal_reward():
    # threshold comparison is >=, so reward 0 meets threshold 0
    s = RbedSchedule.for_target(195.0)
    s2 = s.update(0.0)
    assert math.isclose(s2.epsilon, 1.0 - 1.0 / 195.0, rel_tol=1e-12)
    assert s2.reward_threshold == 1.0


def test_update_below_threshold_is_identity():
    s = RbedSchedule(epsilon=0.5, epsilon_min=0.0, reward_threshold_init=100.0,
                     reward_increment=1.0, change=1.0 / 195.0, decays=20)
    assert s.reward_threshold == 120.0
    assert s.update(119.0) is s


def test_threshold_counts_decays_instead_of_summing_increments():
    # thirty additions of 0.1 reach 3.0000000000000013, thirty times 0.1 is
    # 3.0: the threshold is the count's, so a reward of exactly 3.0 pays for
    # decay 31 (equality qualifies)
    s = RbedSchedule.for_target(1000.0, reward_increment=0.1)
    for _ in range(30):
        s = s.update(1000.0)
    assert (s.decays, s.reward_threshold) == (30, 3.0)
    after = s.update(3.0)
    assert (after.decays, after.epsilon) == (31, s.epsilon - s.change)


def test_single_trigger_per_update():
    # a reward far above threshold still causes exactly one decay
    s = RbedSchedule.for_target(195.0)
    s2 = s.update(200.0)
    assert s2.reward_threshold == 1.0
    assert math.isclose(s.epsilon - s2.epsilon, s.change, rel_tol=1e-12)


def test_ledger_exactness_through_full_decay():
    s = RbedSchedule.for_target(195.0)
    for k in range(1, 196):
        s = s.update(1000.0)
        assert abs(s.epsilon - max(0.0, 1.0 - k / 195.0)) <= 1e-9
        assert s.reward_threshold == float(k)
    assert abs(s.epsilon) <= 1e-9
    # once at the floor the value clamps exactly
    s = s.update(1000.0)
    assert s.epsilon == 0.0


def test_shipped_ladder_needs_one_decay_past_the_target_to_clear_a_residue():
    # 195 subtractions of change = 1/195 leave a 2.5e-15 residue (README's
    # ladder table counts 195 decays to 0.0); the 196th decay clamps to 0.0
    for increment, thresholds in ((1.0, (195.0, 196.0)), (0.5, (97.5, 98.0))):
        s = RbedConfig(reward_increment=increment).schedule()
        for _ in range(195):
            s = s.update(200.0)
        assert (s.epsilon, s.reward_threshold) == (2.47198095326695e-15, thresholds[0])
        s = s.update(200.0)
        assert (s.epsilon, s.reward_threshold) == (0.0, thresholds[1])


def test_epsilon_clamps_at_min():
    s = RbedSchedule.for_target(10.0, epsilon_min=0.2)
    for _ in range(50):
        s = s.update(1e9)
    assert s.epsilon == 0.2


def test_exponential_single_step():
    e = ExponentialSchedule(1.0, 0.995, 0.0)
    assert e.update(123.0).epsilon == 0.995


def test_exponential_closed_form():
    e = ExponentialSchedule(1.0, 0.995, 0.0)
    for _ in range(200):
        e = e.update(0.0)
    assert math.isclose(e.epsilon, 0.995**200, rel_tol=1e-9)


def test_exponential_floor_engages_exactly():
    e = ExponentialSchedule(0.011, 0.5, 0.01)
    assert e.update(0.0).epsilon == 0.01
    assert e.update(0.0).update(0.0).epsilon == 0.01


def test_exponential_ignores_reward():
    a = ExponentialSchedule(1.0, 0.9, 0.0)
    assert a.update(0.0) == a.update(1e6)


def test_constant_is_identity():
    c = ConstantSchedule(0.1)
    for reward in (0.0, 200.0, -5.0):
        assert c.update(reward) is c
    assert c.epsilon == 0.1


# -- randomized property suite -------------------------------------------

reward_seqs = st.lists(st.floats(min_value=0.0, max_value=200.0), min_size=1, max_size=60)


@settings(max_examples=200)
@given(reward_seqs)
def test_rbed_epsilon_monotone_and_bounded(rewards):
    s = RbedSchedule.for_target(195.0)
    prev = s.epsilon
    for r in rewards:
        s = s.update(r)
        assert s.epsilon <= prev
        assert 0.0 <= s.epsilon <= 1.0
        prev = s.epsilon


@settings(max_examples=200)
@given(reward_seqs, st.floats(min_value=0.5, max_value=0.999))
def test_exponential_monotone_and_bounded(rewards, rate):
    e = ExponentialSchedule(1.0, rate, 0.01)
    prev = e.epsilon
    for r in rewards:
        e = e.update(r)
        assert e.epsilon <= prev
        assert 0.01 <= e.epsilon <= 1.0
        prev = e.epsilon


@settings(max_examples=200)
@given(st.lists(st.floats(min_value=0.0, max_value=199.0), min_size=1, max_size=60))
def test_rbed_below_threshold_bit_identical(rewards):
    # rewards all strictly below the standing threshold leave every field
    # untouched, bit for bit
    s = RbedSchedule(epsilon=0.7, epsilon_min=0.0, reward_threshold_init=0.5,
                     reward_increment=1.0, change=1.0 / 195.0, decays=199)
    t = s
    for r in rewards:
        t = t.update(r)
    assert t is s


@settings(max_examples=200)
@given(st.lists(st.booleans(), min_size=1, max_size=150), st.integers(0, 2**32))
def test_rbed_depends_only_on_crossing_count(crossing_plan, salt):
    # two instances fed the same number of crossings at different episode
    # positions end with identical epsilon: the schedule tracks performance
    # milestones, not episode indices
    import random

    shuffled = list(crossing_plan)
    random.Random(salt).shuffle(shuffled)

    def drive(plan):
        s = RbedSchedule.for_target(195.0)
        for crossed in plan:
            # a reward at the threshold triggers; far below never does
            s = s.update(s.reward_threshold if crossed else s.reward_threshold - 1e6)
        return s

    a, b = drive(crossing_plan), drive(shuffled)
    assert a.epsilon == b.epsilon
    assert a.reward_threshold == b.reward_threshold
