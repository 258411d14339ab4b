"""Rolling means, the solved rule, and cross-run aggregation."""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from rbed.metrics import (
    SOLVED_THRESHOLD,
    SOLVED_WINDOW,
    AggregateCurves,
    EpisodeRecord,
    RunResult,
    aggregate_runs,
    rolling_mean,
    solve_count,
    solved_at,
)


def records(rewards, epsilon=0.5):
    return tuple(
        EpisodeRecord(episode=i + 1, total_reward=float(r), epsilon=epsilon, steps=int(r))
        for i, r in enumerate(rewards)
    )


def brute_solved_at(rewards, threshold, window):
    for end in range(window, len(rewards) + 1):
        if sum(rewards[end - window : end]) / window >= threshold:
            return end
    return None


# -- rolling mean ------------------------------------------------------------


def test_rolling_window_one_is_identity():
    assert rolling_mean([3.0, 1.0, 4.0], 1) == [3.0, 1.0, 4.0]


def test_rolling_simple():
    assert rolling_mean([1.0, 2.0, 3.0, 4.0], 3) == [2.0, 3.0]


def test_rolling_window_equals_length():
    assert rolling_mean([2.0, 4.0], 2) == [3.0]


def test_rolling_short_input_empty():
    assert rolling_mean([1.0, 2.0], 3) == []
    assert rolling_mean([], 1) == []


def test_rolling_window_validation():
    with pytest.raises(ValueError):
        rolling_mean([1.0], 0)


def test_rolling_output_length():
    assert len(rolling_mean(list(range(500)), 100)) == 401


@settings(max_examples=100)
@given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=400))
def test_rolling_matches_direct_means(values):
    window = min(len(values), 7)
    got = rolling_mean([float(v) for v in values], window)
    want = [
        sum(values[i : i + window]) / window for i in range(len(values) - window + 1)
    ]
    assert got == pytest.approx(want, abs=1e-9)


# -- solved rule -------------------------------------------------------------


def test_defaults_are_the_solved_rule():
    assert SOLVED_THRESHOLD == 195.0
    assert SOLVED_WINDOW == 100


def test_solved_immediately_after_first_full_window():
    # 100 straight episodes at the threshold satisfy the rule at episode 100
    assert solved_at(records([195.0] * 100)) == 100


def test_never_solved():
    assert solved_at(records([194.9] * 400)) is None


def test_not_solved_before_window_fills():
    assert solved_at(records([200.0] * 99)) is None


def test_solved_at_known_mixed_series():
    # 99 zero episodes then straight 200s: the window mean first clears 195
    # once it holds 98 200-point episodes, at episode 197
    rewards = [0.0] * 99 + [200.0] * 150
    assert brute_solved_at(rewards, 195.0, 100) == 197
    assert solved_at(records(rewards)) == 197


def test_solved_uses_record_episode_labels():
    recs = tuple(
        EpisodeRecord(episode=1000 + i, total_reward=200.0, epsilon=0.1, steps=200)
        for i in range(120)
    )
    assert solved_at(recs) == 1099  # label of the 100th record


def test_solved_custom_threshold_and_window():
    rewards = [10.0, 10.0, 40.0, 40.0]
    assert solved_at(records(rewards), threshold=25.0, window=2) == 3  # (10+40)/2
    assert solved_at(records(rewards), threshold=40.0, window=2) == 4
    assert solved_at(records(rewards), threshold=10.0, window=2) == 2


def test_threshold_comparison_is_inclusive():
    assert solved_at(records([195.0] * 100), threshold=195.0) == 100


@settings(max_examples=60)
@given(
    st.lists(st.integers(min_value=150, max_value=200), min_size=1, max_size=300),
    st.integers(min_value=1, max_value=50),
)
def test_solved_matches_brute_force(values, window):
    rewards = [float(v) for v in values]
    threshold = 180.0
    assert solved_at(records(rewards), threshold, window) == brute_solved_at(
        rewards, threshold, window
    )


def test_solved_matches_brute_force_long_series():
    rng = random.Random(2718)
    rewards = [float(rng.randint(0, 200)) for _ in range(1000)]
    assert solved_at(records(rewards)) == brute_solved_at(rewards, 195.0, 100)


# -- solve count -------------------------------------------------------------


def test_solve_count_counts_solved_runs():
    runs = [
        RunResult(seed=1, records=(), solved_at=120),
        RunResult(seed=2, records=(), solved_at=500),
        RunResult(seed=3, records=(), solved_at=501),
        RunResult(seed=4, records=(), solved_at=None),
    ]
    assert solve_count(runs) == 3
    assert solve_count(runs[3:]) == 0
    assert solve_count([]) == 0


# -- aggregation -------------------------------------------------------------


def run_of(seed, rewards, epsilon=0.5):
    recs = records(rewards, epsilon)
    return RunResult(seed=seed, records=recs, solved_at=solved_at(recs))


def test_aggregate_two_runs_exact():
    a = run_of(1, [0.0] * 100 + [100.0], epsilon=1.0)
    b = run_of(2, [4.0] * 100 + [104.0], epsilon=0.5)
    agg = aggregate_runs([a, b])
    assert agg.mean_reward == (2.0,) * 100 + (102.0,)
    assert agg.mean_epsilon == (0.75,) * 101
    # per-run rolling first, over the solved rule's 100 episodes:
    # a -> [0, 1], b -> [4, 5]; means (2, 3)
    assert agg.mean_rolling == (2.0, 3.0)
    assert agg.window == SOLVED_WINDOW == 100


def test_aggregate_single_run_is_identity():
    rewards = [float(r) for r in range(1, 103)]
    agg = aggregate_runs([run_of(1, rewards)])
    assert agg.mean_reward == tuple(rewards)
    assert agg.mean_rolling == (50.5, 51.5, 52.5)  # episodes 1..100, 2..101, 3..102


def test_aggregate_order_invariant_bitwise():
    rng = random.Random(99)
    runs = [
        run_of(seed, [rng.uniform(0, 200) for _ in range(150)], epsilon=rng.random())
        for seed in range(12)
    ]
    base = aggregate_runs(runs)
    for _ in range(5):
        shuffled = runs[:]
        rng.shuffle(shuffled)
        agg = aggregate_runs(shuffled)
        assert agg.mean_reward == base.mean_reward
        assert agg.mean_rolling == base.mean_rolling
        assert agg.mean_epsilon == base.mean_epsilon


def test_aggregate_rolling_length():
    runs = [run_of(s, [100.0] * 500) for s in (1, 2)]
    agg = aggregate_runs(runs)
    assert len(agg.mean_reward) == 500
    assert len(agg.mean_rolling) == 401
    assert agg.window == SOLVED_WINDOW


def test_aggregate_validation():
    with pytest.raises(ValueError):
        aggregate_runs([])
    with pytest.raises(ValueError):
        aggregate_runs([run_of(1, [1.0, 2.0]), run_of(2, [1.0])])


def test_aggregate_curves_is_plain_data():
    agg = AggregateCurves(mean_reward=(1.0,), mean_rolling=(), mean_epsilon=(0.5,))
    # the window is the solved rule's, a constant of the class and not a field
    assert AggregateCurves._fields == ("mean_reward", "mean_rolling", "mean_epsilon")
    assert AggregateCurves.window == agg.window == SOLVED_WINDOW
    with pytest.raises(TypeError):
        AggregateCurves((1.0,), (), (0.5,), 2)


def test_records_pickle_without_field_names_and_are_read_only():
    # a started worker sends its RunResults to the caller pickled: the
    # message carries each record's values, not its field names
    run = run_of(7, [10.0, 200.0, 30.0])
    message = pickle.dumps(run)
    assert pickle.loads(message) == run
    assert b"total_reward" not in message
    with pytest.raises(AttributeError):
        run.seed = 8
    with pytest.raises(AttributeError):
        run.records[0].total_reward = 0.0
    curves = aggregate_runs([run])
    with pytest.raises(AttributeError):
        curves.window = 3
