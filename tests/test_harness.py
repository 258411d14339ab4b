"""Config parsing, experiment orchestration, file emission, and the CLI."""

import argparse
import ast
import copy
import functools
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape as sax_escape

import pytest
from hypothesis import example, given, settings, strategies as st

import rbed.cli
import rbed.config
import rbed.emit
import rbed.runner
from rbed.agent import new_q_table, run_episode
from rbed.cli import _configs, main
from rbed.config import (
    MAX_RETURN,
    MAX_STATES,
    AgentConfig,
    ConfigError,
    ConstantConfig,
    ExperimentConfig,
    ExponentialConfig,
    RbedConfig,
    config_from_dict,
    config_from_json,
    config_to_dict,
    ladder_end,
    load_config,
    parse_seed_spec,
    validate_config,
)
from rbed.emit import (
    AGGREGATE_HEADER,
    FIGURE_NAMES,
    RUN_HEADER,
    aggregate_csv,
    emit_compare,
    emit_results,
    figures_from_dir,
    read_aggregate_csv,
    render_figures,
    report_to_dict,
    run_csv,
)
from rbed.envs import TabularCartPole, TabularChain
from rbed.metrics import SOLVED_WINDOW, EpisodeRecord, RunResult, aggregate_runs
from rbed.runner import (
    REACH_MARK,
    build_env,
    compare,
    first_reaching,
    run_experiment,
    run_seed,
    run_single_seed,
    run_tasks,
)
from rbed.rng import Rng
from rbed.schedules import ConstantSchedule, ExponentialSchedule, RbedSchedule
from rbed.svgchart import Series, escape, line_chart

REPO = Path(__file__).resolve().parent.parent
SMALL = {"episodes": 30, "seeds": [1, 2], "agent": {"buckets": [1, 1, 4, 4]}}


def small_config(**over):
    data = dict(SMALL)
    data.update(over)
    return config_from_dict(data)


# -- config ------------------------------------------------------------------


def test_empty_config_resolves_to_benchmark_defaults():
    config = config_from_dict({})
    assert isinstance(config.scheduler, RbedConfig)
    assert config.scheduler.reward_target == 195.0
    assert config.agent == AgentConfig()
    assert config.agent.alpha == 0.26
    assert config.agent.gamma == 1.0
    assert config.agent.buckets == (1, 1, 7, 9)
    assert config.episodes == 500
    assert config.seeds == tuple(range(1, 21))
    assert config.environment == "cartpole"


def test_parse_seed_spec_forms():
    assert parse_seed_spec("1..5") == (1, 2, 3, 4, 5)
    assert parse_seed_spec("7..7") == (7,)
    assert parse_seed_spec("3,5,9") == (3, 5, 9)
    assert parse_seed_spec("12") == (12,)
    assert parse_seed_spec(" 1..3 ") == (1, 2, 3)


def test_parse_seed_spec_rejects_bad_input():
    for bad in ("5..1", "a..b", "1,two", "", ".."):
        with pytest.raises(ConfigError):
            parse_seed_spec(bad)


def test_parse_seed_spec_bounds_ranges_before_building():
    # a range this long would exhaust memory if it were materialised
    for huge in ("0..1000000000000000", "0..1000000"):
        with pytest.raises(ConfigError, match="seeds"):
            parse_seed_spec(huge)
    with pytest.raises(ConfigError, match="seeds"):
        config_from_dict({"seeds": "0..1000000000000000"})


def test_seeds_accept_string_form():
    assert config_from_dict({"seeds": "4..6"}).seeds == (4, 5, 6)
    assert config_from_dict({"seeds": [9, 2]}).seeds == (9, 2)
    with pytest.raises(ConfigError):
        config_from_dict({"seeds": 5})


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"episode": 10})
    with pytest.raises(ConfigError):
        config_from_dict({"agent": {"learning_rate": 0.1}})
    with pytest.raises(ConfigError):
        config_from_dict({"scheduler": {"kind": "rbed", "decay_rate": 0.9}})


def test_scheduler_kinds_parse():
    assert isinstance(config_from_dict({"scheduler": {"kind": "rbed"}}).scheduler, RbedConfig)
    exp = config_from_dict({"scheduler": {"kind": "exponential"}}).scheduler
    assert exp == ExponentialConfig(epsilon_start=1.0, decay_rate=0.995, epsilon_min=0.01)
    const = config_from_dict({"scheduler": {"kind": "constant", "epsilon": 0.3}}).scheduler
    assert const == ConstantConfig(epsilon=0.3)
    for kind in ("linear", [], {}):  # [] and {} cannot be looked up by hash
        want = f"scheduler.kind must be one of ['constant', 'exponential', 'rbed'], got {kind!r}"
        with pytest.raises(ConfigError, match=re.escape(want)):
            config_from_dict({"scheduler": {"kind": kind}})


def test_validation_catches_bad_fields():
    bad = [
        {"episodes": 0},
        {"seeds": []},
        {"seeds": [True]},
        {"seeds": [-1]},
        {"seeds": [2**64]},
        {"environment": "mountaincar"},
        {"agent": {"alpha": 0.0}},
        {"agent": {"alpha": 1.5}},
        {"agent": {"gamma": 0.0}},
        {"agent": {"gamma": 1.5}},
        {"agent": {"buckets": [0, 1, 1, 1]}},
        {"agent": {"buckets": [1, 1, 1]}},
        {"agent": {"clips": [1.0, 1.0, 1.0, 0.0]}},
        {"agent": {"clips": [math.nan, 1.0, 1.0, 1.0]}},
        {"scheduler": {"kind": "exponential", "decay_rate": 1.0}},
        {"scheduler": {"kind": "exponential", "decay_rate": 0.0}},
        {"scheduler": {"kind": "exponential", "epsilon_start": 0.5, "epsilon_min": 0.6}},
        {"scheduler": {"kind": "rbed", "reward_target": 0}},
        {"scheduler": {"kind": "rbed", "reward_target": -5.0}},
        {"scheduler": {"kind": "rbed", "reward_target": math.inf}},
        {"scheduler": {"kind": "rbed", "reward_increment": 0.0}},
        {"scheduler": {"kind": "rbed", "reward_threshold_init": math.nan}},
        {"scheduler": {"kind": "rbed", "epsilon_min": 0.5, "epsilon_start": 0.2}},
        {"scheduler": {"kind": "constant", "epsilon": 1.2}},
        {"scheduler": {"kind": "constant", "epsilon": -0.1}},
        {"seeds": "1,1"},
        {"chain_states": 1},
        {"agent": {"buckets": [100000, 100000, 100000, 1]}},
        {"environment": "chain", "chain_states": 10**12},
    ]
    for data in bad:
        with pytest.raises(ConfigError):
            config_from_dict(data)
    config_from_dict({"agent": {"alpha": 1.0, "gamma": 1.0}})  # closed upper ends are legal
    # 2 * clip overflowed to inf and the run died on a NaN bucket index
    with pytest.raises(ConfigError, match=r"agent\.clips\[2\]"):
        config_from_dict({"agent": {"clips": [2.4, 3.0, 1e308, 1.7]}, "episodes": 2, "seeds": "1"})
    # a bad item late in a long list is named by its own index
    for item, problem in ((-1, "must be >= 0"), (2**64, "must be < "), (1.5, "must be an integer")):
        with pytest.raises(ConfigError, match=rf"^seeds\[99998\] {problem}"):
            config_from_dict({"seeds": [*range(1, 99999), item]})


def test_q_table_cap_is_max_states():
    # parsed only: a table near the cap is never built here
    with pytest.raises(ConfigError, match=r"agent\.buckets"):
        config_from_dict({"agent": {"buckets": [1, 1, 1001, 1000]}})
    with pytest.raises(ConfigError, match="chain_states"):
        config_from_dict({"environment": "chain", "chain_states": MAX_STATES + 1})
    buckets = config_from_dict({"agent": {"buckets": [1, 1, 1000, 1000]}}).agent.buckets
    assert math.prod(buckets) == MAX_STATES
    chain = config_from_dict({"environment": "chain", "chain_states": MAX_STATES})
    assert chain.chain_states == MAX_STATES


_WIDE_FLOATS = st.one_of(
    st.floats(),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=5e-324, max_value=1.7e308),
    st.sampled_from([0.0, 5e-324, 1e6, 1e308, -1e308, math.inf, math.nan]),
)


def _optional(**fields):
    return st.fixed_dictionaries({}, optional=fields)


# any value json.loads can return
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | _WIDE_FLOATS | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=4,
)


_CONFIGS = st.fixed_dictionaries(
    {"episodes": st.just(2), "seeds": st.sampled_from(["1", "7", str(2**64 - 1)])},
    optional={
        "environment": st.sampled_from(["cartpole", "chain"]),
        "chain_states": st.integers(min_value=0, max_value=64),
        "agent": _optional(
            alpha=_WIDE_FLOATS,
            gamma=_WIDE_FLOATS,
            buckets=st.lists(st.integers(min_value=1, max_value=12), min_size=4, max_size=4),
            clips=st.lists(_WIDE_FLOATS, min_size=4, max_size=4),
        ),
        "scheduler": st.one_of(
            _optional(
                kind=st.just("rbed"),
                epsilon_start=_WIDE_FLOATS,
                epsilon_min=_WIDE_FLOATS,
                reward_target=_WIDE_FLOATS,
                reward_increment=_WIDE_FLOATS,
                reward_threshold_init=_WIDE_FLOATS,
            ),
            st.fixed_dictionaries(
                {"kind": st.just("exponential")},
                optional={
                    "epsilon_start": _WIDE_FLOATS,
                    "decay_rate": _WIDE_FLOATS,
                    "epsilon_min": _WIDE_FLOATS,
                },
            ),
            st.fixed_dictionaries({"kind": st.just("constant")}, optional={"epsilon": _WIDE_FLOATS}),
            st.fixed_dictionaries({"kind": _JSON}),
        ),
    },
)


@settings(max_examples=200, deadline=None)
@given(_CONFIGS)
def test_every_config_fails_at_load_or_runs(data):
    # json.dumps writes NaN and Infinity, and json.loads reads them back
    try:
        config = config_from_json(json.dumps(data))
    except ConfigError:
        return
    result = run_single_seed(config, config.seeds[0])
    assert [r.episode for r in result.records] == [1, 2]
    assert all(math.isfinite(r.total_reward) and 0.0 <= r.epsilon <= 1.0 for r in result.records)


def test_config_round_trip():
    config = config_from_dict(
        {
            "scheduler": {"kind": "exponential", "decay_rate": 0.98},
            "agent": {"alpha": 0.5, "buckets": [2, 2, 5, 5]},
            "episodes": 123,
            "seeds": "2..4",
            "environment": "chain",
            "chain_states": 7,
        }
    )
    assert config_from_dict(config_to_dict(config)) == config


def test_config_from_json_and_file(tmp_path):
    assert config_from_json('{"episodes": 9}').episodes == 9
    with pytest.raises(ConfigError):
        config_from_json("{not json")
    with pytest.raises(ConfigError, match="duplicate key 'episodes'"):
        config_from_json('{"episodes": 1, "seeds": [1], "episodes": 2}')
    with pytest.raises(ConfigError, match="duplicate key 'alpha'"):
        config_from_json('{"agent": {"alpha": 0.5, "gamma": 0.9, "alpha": 0.6}}')
    path = tmp_path / "config.json"
    path.write_text('{"seeds": [3], "episodes": 2}')
    config = load_config(path)
    assert config.seeds == (3,) and config.episodes == 2


def test_validate_config_direct():
    # building a config runs validate_config, with the same messages
    with pytest.raises(ConfigError, match="^episodes must be >= 1, got 0$"):
        ExperimentConfig(episodes=0)
    # parsing makes every JSON list a tuple, so only code can pass a list here
    with pytest.raises(ConfigError, match="^seeds must be a tuple, got \\[1, 2\\]$"):
        small_config()._replace(seeds=[1, 2])
    # a nested config is checked as a field of the config that holds it
    with pytest.raises(ConfigError, match="^scheduler.epsilon_start must be <= 1.0, got 2.0$"):
        ExperimentConfig(scheduler=RbedConfig(epsilon_start=2.0))
    # a nested config of the wrong class is named with the classes it may be
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(scheduler=AgentConfig())
    assert str(exc.value) == (
        f"scheduler must be RbedConfig or ExponentialConfig or ConstantConfig, got {AgentConfig()!r}"
    )


def test_parse_names_non_objects_and_overflowing_floats():
    with pytest.raises(ConfigError, match="^agent must be an object, got list$"):
        config_from_dict({"agent": []})
    with pytest.raises(ConfigError, match="^config must be an object, got list$"):
        config_from_json("[]")
    # an integer in a float field that no float can hold
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"agent": {"alpha": 10**400}})
    assert str(exc.value) == f"agent.alpha must be a finite number, got {10**400}"


def test_make_checks_the_config():
    # NamedTuple's own _make calls tuple.__new__; ExperimentConfig's builds
    # through __new__, and _replace and copy.replace build through _make
    fields = list(small_config())
    fields[ExperimentConfig._fields.index("seeds")] = [1, 2]
    with pytest.raises(ConfigError, match="^seeds must be a tuple, got \\[1, 2\\]$"):
        ExperimentConfig._make(fields)


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
def test_copy_replace_checks_the_config():
    with pytest.raises(ConfigError, match="^seeds must be a tuple, got \\[1, 2\\]$"):
        copy.replace(small_config(), seeds=[1, 2])


@pytest.mark.parametrize("kind", ["rbed", "exponential", "constant"])
def test_round_trip_keeps_each_config_class(kind):
    # NamedTuples equal any tuple of the same values, so check the classes too
    config = small_config(scheduler={"kind": kind})
    back = config_from_dict(config_to_dict(config))
    assert back == config
    assert type(back) is ExperimentConfig
    assert type(back.scheduler) is type(config.scheduler) is {
        "rbed": RbedConfig, "exponential": ExponentialConfig, "constant": ConstantConfig
    }[kind]
    assert type(back.agent) is AgentConfig


def test_default_config_repr():
    # error messages embed config reprs, so the form is part of the interface
    assert repr(ExperimentConfig()) == (
        "ExperimentConfig(scheduler=RbedConfig(epsilon_start=1.0, epsilon_min=0.0,"
        " reward_target=195.0, reward_increment=1.0, reward_threshold_init=0.0),"
        " agent=AgentConfig(alpha=0.26, gamma=1.0, buckets=(1, 1, 7, 9),"
        " clips=(2.4, 3.0, 0.20943951023931953, 1.7)), episodes=500,"
        " seeds=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20),"
        " environment='cartpole', chain_states=5)"
    )


@pytest.fixture
def schema_checks(monkeypatch):
    """Each config the schema walk checks while the test runs."""
    checked = []
    walk = rbed.config._check_fields

    def counting_walk(config, where):
        if not where:
            checked.append(config)
        walk(config, where)

    monkeypatch.setattr(rbed.config, "_check_fields", counting_walk)
    return checked


def test_built_configs_are_not_checked_again(schema_checks):
    config_a = small_config(episodes=2)
    config_b = small_config(episodes=2, scheduler={"kind": "exponential"})
    schema_checks.clear()
    run_experiment(config_a)
    compare(config_a, config_b)
    assert schema_checks == []


def test_cli_overrides_are_checked_once(tmp_path, schema_checks):
    path = write_config(tmp_path, "c.json", SMALL)
    loaded = load_config(path)
    schema_checks.clear()
    args = argparse.Namespace(seeds="1..3", episodes=2, out=str(tmp_path / "o"))
    (config,) = _configs(args, [(path, path)])
    # one walk per built config: the loaded one and the overridden one
    assert schema_checks == [loaded, config]
    assert (config.seeds, config.episodes) == ((1, 2, 3), 2)


# -- runner ------------------------------------------------------------------


def test_build_schedule_dispatch():
    rbed = RbedConfig().schedule()
    assert isinstance(rbed, RbedSchedule)
    assert rbed.change == pytest.approx(1.0 / 195.0)
    exp = ExponentialConfig().schedule()
    assert isinstance(exp, ExponentialSchedule)
    const = ConstantConfig(epsilon=0.25).schedule()
    assert isinstance(const, ConstantSchedule)
    assert const.epsilon == 0.25


def test_build_env_dispatch():
    assert isinstance(build_env(config_from_dict({})), TabularCartPole)
    chain = build_env(config_from_dict({"environment": "chain", "chain_states": 6}))
    assert isinstance(chain, TabularChain)
    assert chain.n_states == 6


def test_run_single_seed_basic_shape():
    config = small_config()
    result = run_single_seed(config, 1)
    assert result.seed == 1
    assert len(result.records) == 30
    assert [r.episode for r in result.records] == list(range(1, 31))
    assert result.solved_at is None  # 30 episodes cannot fill a 100-window


def test_run_single_seed_deterministic():
    config = small_config()
    assert run_single_seed(config, 5) == run_single_seed(config, 5)


class _NotACartPole:
    """A TabularCartPole's episodes through ``reference_episode``: it delegates
    to one without being one, so ``run_episode`` does not take the fused loop."""

    def __init__(self, env):
        self._env = env

    def __getattr__(self, name):
        return getattr(self._env, name)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "path", ["configs/rbed.json", "configs/exponential.json", "perfbench/workloads/random_policy.json"]
)
def test_whole_seed_runs_match_the_reference_loop(path, seed):
    # the fused loop against select_action, TabularCartPole.step and q_update
    # over 500 episodes of a shipped config, with epsilon walking under the
    # RBED and exponential schedules: records and tables must agree exactly
    config = load_config(REPO / path)._replace(episodes=500)
    runs = []
    for env in (build_env(config), _NotACartPole(build_env(config))):
        q = new_q_table(env.n_states, env.n_actions)
        records = run_seed(Rng(seed), env, q, config.scheduler.schedule(), config.agent, config.episodes)
        runs.append((records, q))
    assert not isinstance(env, TabularCartPole)
    assert runs[0] == runs[1]
    assert run_single_seed(config, seed).records == runs[0][0]
    walked = len({record.epsilon for record in runs[0][0]}) > 1
    assert walked == (config.scheduler.kind != "constant")


class _ListSchedule:
    """Epsilon read from a list, one entry per episode; keeps the rewards it is handed."""

    def __init__(self, epsilons):
        self.epsilons = epsilons
        self.rewards = []

    @property
    def epsilon(self):
        return self.epsilons[len(self.rewards)]

    def update(self, last_reward):
        self.rewards.append(last_reward)
        return self


def test_run_seed_takes_any_schedule_and_learns_into_the_callers_table():
    env = TabularChain(5)
    params = AgentConfig(gamma=0.9)
    epsilons = [1.0, 0.5, 0.25, 0.0, 0.125, 0.0]
    q = new_q_table(env.n_states, env.n_actions)
    schedule = _ListSchedule(epsilons)
    records = run_seed(Rng(3), env, q, schedule, params, len(epsilons))
    assert [record.episode for record in records] == list(range(1, len(epsilons) + 1))
    assert [record.epsilon for record in records] == epsilons
    assert schedule.rewards == [record.total_reward for record in records]
    # the same episodes by hand, on a table of their own: each record is
    # the episode's number, its (reward, steps) and the epsilon it ran at
    q2, rng2 = new_q_table(env.n_states, env.n_actions), Rng(3)
    by_hand = []
    for k, epsilon in enumerate(epsilons, 1):
        total_reward, steps = run_episode(env, q2, epsilon, params, rng2)
        by_hand.append(EpisodeRecord(k, total_reward, epsilon, steps))
    assert records == tuple(by_hand)
    assert q == q2 and q != new_q_table(env.n_states, env.n_actions)


def test_run_single_seed_looks_up_run_episode_at_call_time(monkeypatch):
    # perfbench's tracer counts episodes by replacing rbed.runner.run_episode.
    # Exponential decay runs each episode at its own epsilon, so the epsilon
    # each call receives names its episode
    config = small_config(episodes=7, scheduler={"kind": "exponential", "decay_rate": 0.9})
    want = run_single_seed(config, 4)
    calls = []

    def counted(env, q, epsilon, params, rng):
        result = run_episode(env, q, epsilon, params, rng)
        calls.append((epsilon, result))
        return result

    monkeypatch.setattr(rbed.runner, "run_episode", counted)
    assert run_single_seed(config, 4) == want
    assert calls == [(record.epsilon, (record.total_reward, record.steps)) for record in want.records]
    assert len({epsilon for epsilon, _ in calls}) == 7


def test_seeds_produce_distinct_runs():
    config = small_config()
    a = run_single_seed(config, 1)
    b = run_single_seed(config, 2)
    assert [r.total_reward for r in a.records] != [r.total_reward for r in b.records]


def test_recorded_epsilon_is_value_in_force():
    # exponential decay advances after each episode: episode k ran at
    # max(min, rate^(k-1)), built here by the same iterated product
    config = small_config(scheduler={"kind": "exponential", "decay_rate": 0.9})
    result = run_single_seed(config, 3)
    eps, want = 1.0, []
    for _ in range(30):
        want.append(eps)
        eps = max(0.01, eps * 0.9)
    assert [r.epsilon for r in result.records] == want


def test_rbed_epsilon_trace_on_chain():
    # every chain episode pays exactly 1.0, so the threshold walks 0 -> 1 -> 2
    # and the decay fires exactly twice before stalling
    config = config_from_dict(
        {"environment": "chain", "episodes": 6, "seeds": [1], "agent": {"gamma": 0.9}}
    )
    result = run_single_seed(config, 1)
    change = 1.0 / 195.0
    eps = [r.epsilon for r in result.records]
    assert eps[0] == 1.0
    assert eps[1] == 1.0 - change
    assert eps[2] == pytest.approx(1.0 - 2 * change)
    assert eps[3] == eps[2] and eps[5] == eps[2]
    assert ladder_end(config) == (pytest.approx(eps[2]), 2.0)


def _walk_ladder(schedule, top, reward_target):
    """The schedule itself, fed the return ``top`` for each decay its ladder
    affords: until it has made ``ceil(reward_target)`` decays or its next
    threshold is above ``top``. Returns the schedule at the end of the walk
    and whether some decay on the way held epsilon above its floor."""
    holds = False
    while schedule.decays < math.ceil(reward_target) and schedule.reward_threshold <= top:
        after = schedule.update(top)
        holds = holds or schedule.epsilon_min < after.epsilon == schedule.epsilon
        schedule = after
    return schedule, holds


@pytest.mark.parametrize(
    "data, stops_at",
    [
        ({"environment": "chain"}, 0.990),
        ({"scheduler": {"reward_increment": 2}}, 0.482),
        ({"scheduler": {"reward_target": 400}}, 0.4975),
        ({"scheduler": {"reward_target": 202}}, 0.00495),
        ({"scheduler": {"reward_threshold_init": 250}}, 1.0),
        ({"scheduler": {"epsilon_min": 0.1, "reward_increment": 4}}, 0.765),
        ({}, None),
        ({"scheduler": {"reward_target": 201}}, None),
        ({"scheduler": {"reward_target": 20.5, "reward_increment": 9.5}}, None),
        ({"environment": "chain", "scheduler": {"reward_target": 2}}, None),
        ({"environment": "chain", "scheduler": {"epsilon_min": 1.0}}, None),
        ({"scheduler": {"kind": "exponential"}}, None),
        ({"scheduler": {"kind": "constant", "epsilon": 0.5}}, None),
        # -20 + 200 * 1.1 is 200.00000000000003, above the largest return
        (
            {"scheduler": {"reward_target": 201, "reward_increment": 1.1, "reward_threshold_init": -20}},
            0.004975,
        ),
        # the thresholds that 100 and 200 additions of the increment would
        # reach are above the largest return; the counted ones are within it
        ({"scheduler": {"reward_target": 101, "reward_increment": 0.05, "reward_threshold_init": 195}}, None),
        (
            {
                "environment": "chain",
                "scheduler": {"reward_target": 201, "reward_increment": 0.01, "reward_threshold_init": -1},
            },
            None,
        ),
    ],
)
def test_stalled_epsilon_matches_the_schedule_walk(data, stops_at):
    # the last crossing needs reward_threshold_init + (ceil(reward_target) - 1)
    # * reward_increment at most the largest return; past it epsilon stops
    config = config_from_dict(data)
    s, end = config.scheduler, ladder_end(config)
    if not isinstance(s, RbedConfig):
        assert end is None
        return
    walk, _ = _walk_ladder(s.schedule(), MAX_RETURN[config.environment], s.reward_target)
    if stops_at is None:  # a ladder that ends at its floor, or never decays
        assert walk.epsilon == pytest.approx(s.epsilon_min, abs=1e-12)
        assert end is None or end == (s.epsilon_min, walk.reward_threshold)
    else:
        assert end[0] == pytest.approx(stops_at, abs=5e-4)
        assert end == (pytest.approx(walk.epsilon, abs=1e-12), walk.reward_threshold)


@pytest.mark.parametrize(
    "data",
    [
        # the step (5e-324 - 0) / 264.6 rounds to 0.0
        {
            "environment": "chain",
            "scheduler": {
                "epsilon_start": 5e-324,
                "reward_target": 264.6,
                "reward_increment": 0.6079,
                "reward_threshold_init": -86.5,
            },
        },
        # the step is below half an ulp of 0.5
        {"scheduler": {"epsilon_start": 0.5, "epsilon_min": 0.49999999999999994, "reward_increment": 2}},
        # the step is half an ulp: the first decay ties to the even neighbour,
        # where the second ties back to itself
        {"scheduler": {"epsilon_start": 0.5 + 3 * 2**-53, "epsilon_min": 0.5, "reward_target": 6}},
    ],
    ids=["step-0", "step-below-half-ulp", "second-decay-ties"],
)
def test_a_decay_step_that_cannot_move_epsilon_is_rejected(data):
    s = data["scheduler"]
    schedule = RbedSchedule.for_target(
        s.get("reward_target", 195.0), s["epsilon_start"], s.get("epsilon_min", 0.0)
    )
    walk = [schedule.epsilon]
    for _ in range(3):
        schedule = schedule.update(schedule.reward_threshold)
        walk.append(schedule.epsilon)
    assert walk[-1] == walk[-2] > schedule.epsilon_min  # the schedule would hold epsilon
    with pytest.raises(ConfigError, match=r"^scheduler\.reward_target must give a decay step"):
        config_from_dict(data)


@settings(max_examples=300, deadline=None)
@given(
    environment=st.sampled_from(sorted(MAX_RETURN)),
    epsilons=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
    reward_target=st.floats(0.0, 300.0, exclude_min=True),
    increment=st.floats(0.0, exclude_min=True, allow_infinity=False),
    threshold_init=st.floats(allow_nan=False, allow_infinity=False),
)
@example("cartpole", [0.0, 1.0], 10.0, 2.347055321694821, 11.0)
def test_ladder_end_is_the_schedule_walk(environment, epsilons, reward_target, increment, threshold_init):
    # every decay the ladder affords, each paid for with the largest return,
    # lowers epsilon until it is at its floor, and ladder_end says where the
    # walk ends; a step that holds epsilon anywhere on the way is a config
    # the loader rejects
    epsilon_min, epsilon_start = epsilons
    scheduler = {
        "epsilon_start": epsilon_start,
        "epsilon_min": epsilon_min,
        "reward_target": reward_target,
        "reward_increment": increment,
        "reward_threshold_init": threshold_init,
    }
    schedule, holds = _walk_ladder(
        RbedSchedule.for_target(reward_target, epsilon_start, epsilon_min, increment, threshold_init),
        MAX_RETURN[environment],
        reward_target,
    )
    try:
        config = config_from_dict({"environment": environment, "scheduler": scheduler})
    except ConfigError as exc:
        assert str(exc).startswith("scheduler.reward_target must give a decay step")
        # the loader tries two decays whether or not their thresholds are reachable
        assert holds or schedule.decays < 2
        return
    assert not holds
    end = ladder_end(config)
    if epsilon_start == epsilon_min:
        assert end is None
        return
    # the walk subtracts the rounded step once per decay, ladder_end scales it
    assert end[0] == pytest.approx(schedule.epsilon, rel=0, abs=(schedule.decays + 4) * 2**-53)
    assert end[1] == schedule.reward_threshold


def test_run_experiment_preserves_seed_order():
    config = small_config(seeds=[11, 3, 7])
    results = run_experiment(config)
    assert [r.seed for r in results] == [11, 3, 7]


def test_parallel_equals_sequential():
    config = small_config()
    assert run_experiment(config, jobs=2) == run_experiment(config, jobs=1)


@pytest.mark.parametrize(
    "affinity, cores, usable",
    [({0}, 2, 1), ({0, 1, 3}, 8, 3), (None, 4, 4), (None, None, 1)],
    ids=["affinity_mask", "affinity_subset", "no_affinity", "unknown_cores"],
)
def test_usable_cpus(monkeypatch, affinity, cores, usable):
    # the affinity mask wins where the platform has one (under taskset -c 0
    # os.cpu_count() still reads every CPU of the machine)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(affinity), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert rbed.runner.usable_cpus() == usable


@pytest.fixture
def started_processes(monkeypatch):
    """Every process the runner starts, in start order; each start goes ahead."""
    started = []
    real_start = multiprocessing.Process.start

    def recording_start(process):
        started.append(process)
        real_start(process)

    monkeypatch.setattr(multiprocessing.Process, "start", recording_start)
    return started


@pytest.mark.parametrize(
    "cores, jobs, started",
    [(4, 100_000, 2), (2, 8, 1), (1, 8, 0), (4, 1, 0)],
    ids=["tasks_cap", "cores_cap", "one_core", "one_job"],
)
def test_pool_size_is_capped_at_cores_and_tasks(monkeypatch, started_processes, cores, jobs, started):
    # the calling process runs seed-runs itself: N processes means N - 1 started
    monkeypatch.setattr(rbed.runner, "usable_cpus", lambda: cores)
    config = small_config(seeds=[1, 2, 3], episodes=2)
    results = run_experiment(config, jobs=jobs)
    assert len(started_processes) == started
    assert results == [run_single_seed(config, seed) for seed in (1, 2, 3)]
    assert multiprocessing.active_children() == []


def test_three_processes_keep_config_then_seed_order(monkeypatch):
    # 8 seed-runs of two arms over 3 processes, whose results arrive out of order
    monkeypatch.setattr(rbed.runner, "usable_cpus", lambda: 3)
    seeds = (4, 1, 7, 2)
    configs = (
        small_config(seeds=seeds, episodes=3),
        small_config(seeds=seeds, episodes=3, scheduler={"kind": "exponential"}),
    )
    serial = [[run_single_seed(config, seed) for seed in seeds] for config in configs]
    results = run_tasks([(run_single_seed, (config, seed)) for seed in seeds for config in configs], jobs=3)
    assert [results[c :: len(configs)] for c in range(len(configs))] == serial


@pytest.mark.parametrize(
    "jobs, method", [(1, None), (2, None), (3, None), (3, "spawn")], ids=["jobs1", "jobs2", "jobs3", "spawn"]
)
def test_run_tasks_runs_any_function_in_task_order(monkeypatch, jobs, method):
    # builtin tasks: no config, no seed; spawn pickles them to each worker
    if method is not None:
        monkeypatch.setattr(multiprocessing, "Process", multiprocessing.get_context(method).Process)
    monkeypatch.setattr(rbed.runner, "usable_cpus", lambda: 3)
    pairs = [(b, e) for b in range(2, 7) for e in (3, 1)]
    assert run_tasks([(pow, pair) for pair in pairs], jobs) == [b**e for b, e in pairs]
    assert multiprocessing.active_children() == []


def _returns_a_lambda(n):
    return lambda: n


def test_a_result_that_cannot_be_pickled_fails_cleanly(monkeypatch, capfd):
    # the worker holds tasks 0 and 1 when it sends its results; the caller
    # runs task 2, whose lambda never has to leave its process
    monkeypatch.setattr(rbed.runner, "usable_cpus", lambda: 2)
    assert run_tasks([(_returns_a_lambda, (0,))], jobs=1)[0]() == 0
    with pytest.raises(TypeError, match=r"^a worker holding tasks \[0, 1\] cannot pickle its message: "):
        run_tasks([(_returns_a_lambda, (n,)) for n in range(3)], jobs=2)
    assert capfd.readouterr().err == ""
    assert multiprocessing.active_children() == []


# read without fixing the start method, which get_start_method() would do
_FORK_ONLY = pytest.mark.skipif(
    (multiprocessing.get_start_method(allow_none=True) or multiprocessing.get_all_start_methods()[0]) != "fork",
    reason="the patched run_single_seed reaches a worker only through fork",
)


def _patch_seeds(monkeypatch, actions):
    """Two usable CPUs, and make rbed.runner.run_single_seed call
    ``actions[seed]()`` first, in whichever process runs that seed. Over
    seeds 1, 2, 3 at jobs=2, the started worker is handed seeds 1 and 2
    before the caller runs seed 3."""
    real = rbed.runner.run_single_seed

    def patched(config, seed):
        if seed in actions:
            actions[seed]()
        return real(config, seed)

    monkeypatch.setattr(rbed.runner, "usable_cpus", lambda: 2)
    monkeypatch.setattr(rbed.runner, "run_single_seed", patched)


def _log_seed_runs(monkeypatch, log):
    """Make rbed.runner.run_single_seed append ``pid kind:seed`` to ``log``,
    in whichever process runs the seed-run, before it runs; returns a
    function that reads the log as {pid: [kind:seed, ...]}."""
    patched = rbed.runner.run_single_seed

    def logged(config, seed):
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()} {config.scheduler.kind}:{seed}\n")
        return patched(config, seed)

    def ran():
        by_process = {}
        for line in log.read_text(encoding="utf-8").splitlines():
            pid, task = line.split()
            by_process.setdefault(int(pid), []).append(task)
        return by_process

    monkeypatch.setattr(rbed.runner, "run_single_seed", logged)
    return ran


def _raise(exc):
    def action():
        raise exc

    return action


@_FORK_ONLY
@pytest.mark.parametrize(
    "seeds, sleeps, caller_ran, worker_ran",
    [
        # the worker's first seed-run takes a second: the caller runs the rest
        ([1, 2, 3, 4, 5, 6], {1: 1.0}, [3, 4, 5, 6], [1, 2]),
        # the worker still runs seed 2 when the caller ends seed 3, so the
        # caller keeps the last seed-run instead of queueing it behind seed 2
        ([1, 2, 3, 4], {2: 1.0, 3: 0.2}, [3, 4], [1, 2]),
    ],
    ids=["slow_worker", "last_to_the_free_process"],
)
def test_seed_runs_go_to_the_free_process(monkeypatch, tmp_path, seeds, sleeps, caller_ran, worker_ran):
    _patch_seeds(monkeypatch, {seed: functools.partial(time.sleep, s) for seed, s in sleeps.items()})
    read_log = _log_seed_runs(monkeypatch, tmp_path / "ran")
    config = small_config(seeds=seeds, episodes=2)
    assert run_experiment(config, jobs=2) == [run_single_seed(config, seed) for seed in seeds]
    ran = read_log()
    assert ran.pop(os.getpid()) == [f"rbed:{seed}" for seed in caller_ran]
    assert list(ran.values()) == [[f"rbed:{seed}" for seed in worker_ran]]
    assert multiprocessing.active_children() == []


@_FORK_ONLY
def test_pooled_compare_hands_out_the_arms_in_turn(monkeypatch, tmp_path):
    # the started worker takes two indices up front: arm a's first seed-run
    # and arm b's, not both of arm a's; the sleep keeps it busy until the
    # caller has run the rest
    config_a = small_config(seeds=[1, 2], episodes=3)
    config_b = small_config(seeds=[1, 2], episodes=3, scheduler={"kind": "exponential"})
    serial = compare(config_a, config_b, jobs=1)
    _patch_seeds(monkeypatch, {1: functools.partial(time.sleep, 0.3)})
    read_log = _log_seed_runs(monkeypatch, tmp_path / "ran")
    assert compare(config_a, config_b, jobs=2) == serial
    ran = read_log()
    assert ran.pop(os.getpid()) == ["rbed:2", "exponential:2"]
    assert list(ran.values()) == [["rbed:1", "exponential:1"]]
    assert multiprocessing.active_children() == []


@_FORK_ONLY
def test_worker_exception_reaches_the_caller(monkeypatch):
    _patch_seeds(monkeypatch, {2: _raise(ValueError("seed 2 broke"))})
    with pytest.raises(ValueError, match="^seed 2 broke$"):
        run_experiment(small_config(seeds=[1, 2, 3], episodes=2), jobs=2)
    assert multiprocessing.active_children() == []
    # a task that is not a seed-run: the worker holds tasks 0 and 1
    with pytest.raises(ZeroDivisionError, match="^integer division or modulo by zero$"):
        run_tasks([(pow, (2, 3)), (divmod, (1, 0)), (pow, (2, 2))], jobs=2)
    assert multiprocessing.active_children() == []


def test_a_worker_that_stopped_between_polls_is_reported_by_its_message():
    # a worker can stop after the caller's last look at its pipe and before
    # the caller hands it another index: the send fails, the read says why
    conn, worker_end = multiprocessing.Pipe()
    worker_end.send(ValueError("seed 2 broke"))
    worker_end.close()
    rbed.runner._hand(conn, 5)
    with pytest.raises(ValueError, match="^seed 2 broke$"):
        rbed.runner._receive(1, None, conn)
    conn.close()


@_FORK_ONLY
def test_dead_worker_ends_the_command_with_an_error(monkeypatch, tmp_path, capsys):
    _patch_seeds(monkeypatch, {2: lambda: os._exit(3)})
    with pytest.raises(ChildProcessError, match=r"^worker 1 \(pid \d+\) exited with code 3 "):
        run_experiment(small_config(seeds=[1, 2, 3], episodes=2), jobs=2)
    assert multiprocessing.active_children() == []
    argv = ["run", "--out", str(tmp_path / "o"), "--seeds", "1..3", "--episodes", "2", "--jobs", "2"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: worker 1 (pid ") and "exited with code 3" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()
    assert multiprocessing.active_children() == []


@_FORK_ONLY
@pytest.mark.parametrize("exc", [RuntimeError("parent broke"), KeyboardInterrupt()], ids=["error", "interrupt"])
def test_caller_error_stops_the_started_workers(monkeypatch, started_processes, exc):
    # the worker's seed would sleep far past the test unless it is terminated
    _patch_seeds(monkeypatch, {3: _raise(exc), 1: lambda: time.sleep(60)})
    begin = time.monotonic()
    with pytest.raises(type(exc)):
        run_experiment(small_config(seeds=[1, 2, 3], episodes=2), jobs=2)
    assert time.monotonic() - begin < 30
    assert [process.exitcode for process in started_processes] == [-signal.SIGTERM]
    assert multiprocessing.active_children() == []


def test_run_experiment_validates():
    # the config now raises as it is built, before run_experiment is called
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(episodes=0))


def test_first_reaching():
    records = [
        EpisodeRecord(episode=i, total_reward=r, epsilon=0.5, steps=int(r))
        for i, r in enumerate([50.0, 199.99999999999997, 200.0, 120.0, 200.0], start=1)
    ]
    assert REACH_MARK == 200.0  # a capped cart-pole episode
    assert first_reaching(records) == 3
    assert first_reaching(records[:2]) is None
    assert first_reaching([]) is None


# each protocol field's bounds by name, as rbed.config declares them
PROTOCOL_FIELDS = {
    name: bounds
    for name, _, bounds in rbed.config._declared(ExperimentConfig)
    if name not in ("scheduler", "agent")
}


def _other_value(bounds, value):
    """A value for a field with ``bounds`` that differs from ``value`` and
    still validates."""
    if "choices" in bounds:
        return next(choice for choice in bounds["choices"] if choice != value)
    if isinstance(value, tuple):
        return value + (max(value) + 1,)
    return value + 1


@pytest.mark.parametrize("name", PROTOCOL_FIELDS)
def test_compare_rejects_mismatched_protocols(name):
    base = small_config()  # cart-pole, so chain_states is unused and must still match
    other = base._replace(**{name: _other_value(PROTOCOL_FIELDS[name], getattr(base, name))})
    validate_config(other)
    with pytest.raises(ConfigError) as exc:
        compare(base, other)
    assert [f for f in PROTOCOL_FIELDS if f in str(exc.value)] == [name]


def test_compare_names_every_differing_field_briefly():
    with pytest.raises(ConfigError) as exc:
        compare(small_config(), small_config(episodes=31, seeds="1..10000"))
    message = str(exc.value)
    assert "episodes (30 != 31)" in message
    assert "seeds ((1, 2) != (1, 2, 3, 4, 5, 6, ...))" in message


def test_compare_labels_and_shape():
    a = small_config()
    b = small_config(
        scheduler={"kind": "exponential"}, agent={"alpha": 0.5, "buckets": [1, 1, 4, 4]}
    )
    report = compare(a, b)
    assert report.a.label == "rbed"
    assert report.b.label == "exponential"
    assert len(report.a.runs) == 2 and len(report.b.runs) == 2
    assert report.a.solve_budget == 30
    assert report.a.solve_count == 0
    assert report.solve_ratio is None  # zero solves in arm b
    assert len(report.a.first_200) == 2


def test_compare_same_kind_gets_prefixed_labels():
    a = small_config()
    b = small_config(scheduler={"kind": "rbed", "reward_target": 100.0})
    report = compare(a, b)
    assert report.a.label == "a:rbed"
    assert report.b.label == "b:rbed"


def test_compare_arms_run_same_protocol():
    a = small_config(scheduler={"kind": "constant", "epsilon": 1.0})
    b = small_config(scheduler={"kind": "constant", "epsilon": 1.0})
    report = compare(a, b)
    # identical configs must yield identical runs (shared seeds, own rngs)
    assert report.a.runs == report.b.runs


# -- emission ----------------------------------------------------------------


def fabricated_run(seed=1, n=3):
    records = tuple(
        EpisodeRecord(episode=i + 1, total_reward=10.0 * (i + 1), epsilon=1.0 / (i + 1), steps=i + 1)
        for i in range(n)
    )
    return RunResult(seed=seed, records=records, solved_at=None)


def test_run_csv_exact_bytes():
    assert run_csv(fabricated_run()) == (
        "episode,reward,epsilon,steps\n"
        "1,10.0,1.0,1\n"
        "2,20.0,0.5,2\n"
        "3,30.0,0.3333333333333333,3\n"
    )


def test_aggregate_csv_blank_rolling_before_window():
    runs = [fabricated_run(1, 101), fabricated_run(2, 101)]
    lines = aggregate_csv(aggregate_runs(runs)).splitlines()
    assert lines[0] == AGGREGATE_HEADER == "episode,mean_reward,mean_rolling100,mean_epsilon"
    assert [line.split(",")[2] for line in lines[1:]] == [""] * 99 + ["505.0", "515.0"]


def test_emit_results_layout(tmp_path):
    runs = [fabricated_run(4), fabricated_run(9)]
    written = emit_results(runs, tmp_path)
    names = sorted(p.name for p in written)
    assert names == ["aggregate.csv", "run_4.csv", "run_9.csv"]
    for p in written:
        assert p.is_file()
    with pytest.raises(ValueError):
        emit_results([], tmp_path)


def test_emission_is_reproducible(tmp_path):
    config = small_config()
    for d in ("one", "two"):
        emit_results(run_experiment(config), tmp_path / d)
    for name in ("run_1.csv", "run_2.csv", "aggregate.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_aggregate_csv_round_trip(tmp_path):
    config = small_config(episodes=120)
    curves = aggregate_runs(run_experiment(config))
    path = tmp_path / "aggregate.csv"
    path.write_text(aggregate_csv(curves))
    back = read_aggregate_csv(path)
    # repr floats survive the round trip bit for bit
    assert back == curves
    assert len(back.mean_rolling) == 120 - SOLVED_WINDOW + 1


def test_read_aggregate_rejects_foreign_csv(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_aggregate_csv(path)


def aggregate_rows(rolling):
    """Aggregate CSV rows for episodes 1, 2, ..., one for each rolling cell."""
    return [f"{episode},1.0,{cell},1.0" for episode, cell in enumerate(rolling, 1)]


_FILLED_FROM = "the rolling mean must be filled from episode 100"
_BLANK_BEFORE = "the rolling mean must be blank before episode 100"


@pytest.mark.parametrize(
    "rows, message",
    [
        (["1,1.0,,1.0", "2,1.0,,1.0", "4,1.0,1.0,1.0"], "episode 4 where 3"),
        (aggregate_rows([""] * 99 + ["1.0", "1.0", ""]), f"episode 102: {_FILLED_FROM}"),
        (aggregate_rows([""] * 100), f"episode 100: {_FILLED_FROM}"),
        (aggregate_rows(["1.0"]), f"episode 1: {_BLANK_BEFORE}"),
        (aggregate_rows([""] * 49 + ["1.0"]), f"episode 50: {_BLANK_BEFORE}"),
        (["1,1.0,1.0"], "malformed row '1,1.0,1.0'"),
        (["1,inf,,1.0"], "episode 1: 'inf' is not a finite number"),
        (["1,1.0,,1.0", "2,1.0,-inf,1.0"], "episode 2: '-inf' is not a finite number"),
        (["1,1.0,,nan"], "episode 1: 'nan' is not a finite number"),
        (["1,abc,,1.0"], "episode 1: 'abc' is not a finite number"),
        (["x,1.0,,1.0"], "episode 'x' is not an integer"),
        (["1,,,1.0"], "episode 1: blank mean reward or epsilon"),
        (["1,1.0,,1.0\xff"], "can't decode byte 0xff"),
        ([], "no episode rows"),
    ],
    ids=[
        "episode_gap", "rolling_gap", "blank_rolling_at_window", "rolling_at_episode_1",
        "rolling_at_episode_50", "three_cells", "inf_reward", "minus_inf_rolling", "nan_epsilon",
        "text_reward", "text_episode", "blank_reward", "not_utf8", "no_rows",
    ],
)
def test_read_aggregate_rejects_damaged_rows(tmp_path, capsys, rows, message):
    path = tmp_path / "aggregate.csv"
    # latin-1 writes "\xff" as the byte 0xff, which is not UTF-8
    path.write_text("\n".join([AGGREGATE_HEADER, *rows]) + "\n", encoding="latin-1")
    with pytest.raises(ValueError, match=message):
        read_aggregate_csv(path)
    assert main(["plot", "--in", str(tmp_path), "--out", str(tmp_path / "figs")]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert str(path) in err


@pytest.mark.parametrize(
    "report",
    [
        b"{}",
        b"[1]",
        b'{"a": {"label": 3}, "b": {"label": "b"}}',
        b'{"a": {"label": "a"}, "b": 7}',
        b"{not json",
        b'{"a": "\xff"}',
    ],
    ids=["empty_object", "list", "numeric_label", "arm_not_object", "not_json", "not_utf8"],
)
def test_plot_rejects_damaged_report(tmp_path, capsys, report):
    (tmp_path / "report.json").write_bytes(report)
    with pytest.raises(ValueError, match="report.json"):
        figures_from_dir(tmp_path, tmp_path / "figs")
    assert main(["plot", "--in", str(tmp_path), "--out", str(tmp_path / "figs")]) == 1
    assert "report.json" in capsys.readouterr().err


def test_report_json_structure(tmp_path):
    a = small_config()
    b = small_config(scheduler={"kind": "exponential"})
    report = compare(a, b)
    data = report_to_dict(report)
    text = json.dumps(data)  # must be JSON-serializable
    assert json.loads(text) == data
    assert data["a"]["scheduler_kind"] == "rbed"
    assert data["b"]["scheduler_kind"] == "exponential"
    assert data["a"]["solve_count"] == 0
    assert len(data["a"]["solved_at"]) == 2
    assert len(data["b"]["first_episode_reaching_200"]) == 2
    assert data["solve_ratio"] is None


def test_emit_compare_layout(tmp_path):
    a = small_config()
    b = small_config(scheduler={"kind": "exponential"})
    emit_compare(compare(a, b), tmp_path)
    assert (tmp_path / "report.json").is_file()
    for arm in ("a", "b"):
        for name in ("run_1.csv", "run_2.csv", "aggregate.csv"):
            assert (tmp_path / arm / name).is_file()
    meta = json.loads((tmp_path / "report.json").read_text())
    assert meta["a"]["label"] == "rbed"


def test_emit_compare_reuses_each_arms_curves(tmp_path, monkeypatch):
    calls = []

    def counting(runs, *args, **kwargs):
        calls.append(len(runs))
        return aggregate_runs(runs, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("emit_compare aggregated an arm a second time")

    monkeypatch.setattr(rbed.runner, "aggregate_runs", counting)
    monkeypatch.setattr(rbed.emit, "aggregate_runs", refuse)
    report = compare(small_config(), small_config(scheduler={"kind": "exponential"}))
    emit_compare(report, tmp_path)
    assert calls == [2, 2]  # once per arm, in compare
    for name, arm in (("a", report.a), ("b", report.b)):
        text = (tmp_path / name / "aggregate.csv").read_text(encoding="utf-8")
        assert text == aggregate_csv(aggregate_runs(arm.runs))


# -- figures -----------------------------------------------------------------


def polylines(svg_text):
    root = ET.fromstring(svg_text)
    return [el for el in root.iter() if el.tag.endswith("polyline")]


def test_render_figures_names_and_structure():
    config = small_config(episodes=120)  # a full window, so the rolling chart is real
    curves = aggregate_runs(run_experiment(config))
    figures = render_figures([("rbed", curves), ("exponential", curves)])
    assert set(figures) == set(FIGURE_NAMES)
    for name, svg in figures.items():
        lines = polylines(svg)  # also validates the XML
        assert len(lines) == 2, name
        for el in lines:
            assert el.get("points")


def test_rolling_figure_has_reference_line():
    config = small_config(episodes=120)
    curves = aggregate_runs(run_experiment(config))
    svg = render_figures([("x", curves)])["rolling.svg"]
    assert "Rolling mean reward (window 100)" in svg
    assert "mean reward, last 100 episodes" in svg
    assert "solved (195)" in svg
    assert "stroke-dasharray" in svg


def test_figures_from_compare_dir(tmp_path):
    # 120 episodes so the rolling window fills and every chart carries
    # one real polyline per arm
    a = small_config(episodes=120)
    b = small_config(episodes=120, scheduler={"kind": "exponential"})
    emit_compare(compare(a, b), tmp_path / "cmp")
    written = figures_from_dir(tmp_path / "cmp", tmp_path / "figs")
    assert sorted(p.name for p in written) == sorted(FIGURE_NAMES)
    for p in written:
        assert len(polylines(p.read_text())) == 2


def test_figures_from_run_dir(tmp_path):
    emit_results(run_experiment(small_config(episodes=120)), tmp_path / "run")
    written = figures_from_dir(tmp_path / "run", tmp_path / "figs")
    assert len(written) == 3
    for p in written:
        assert len(polylines(p.read_text())) == 1


def test_figures_from_empty_dir(tmp_path):
    with pytest.raises(ValueError):
        figures_from_dir(tmp_path, tmp_path / "figs")


def test_line_chart_validation():
    with pytest.raises(ValueError):
        line_chart("t", "x", "y", series=[])
    with pytest.raises(ValueError):
        line_chart("t", "x", "y", series=[Series("empty", 1, [])])
    with pytest.raises(ValueError, match="finite"):
        line_chart("t", "x", "y", series=[Series("nan", 1, [1.0, math.nan])])
    # finite, but the padding takes the y-span past the largest float
    with pytest.raises(ValueError, match="overflows"):
        line_chart("t", "x", "y", series=[Series("huge", 1, [1.7e308])])


def test_line_chart_deterministic():
    s = Series("s", 1, [5.0, 1.0, 3.0])
    assert line_chart("t", "x", "y", [s]) == line_chart("t", "x", "y", [s])


def test_line_chart_escapes_labels():
    s = Series("a<b&c", 1, [1.0, 2.0])
    svg = line_chart("t<&t", "x", "y", [s])
    ET.fromstring(svg)
    assert "a&lt;b&amp;c" in svg


@settings(max_examples=300)
@given(
    st.lists(
        st.one_of(
            st.text(max_size=4),
            st.sampled_from(["&", "<", ">", '"', "'", "&amp;", "&lt;", "&gt;", "&#38;", "<<>>", '""']),
        ),
        max_size=8,
    ).map("".join)
)
def test_escape_matches_xml_sax_escape(text):
    assert escape(text) == sax_escape(text)


# -- cli ---------------------------------------------------------------------


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_run(tmp_path, capsys):
    config = write_config(tmp_path, "c.json", SMALL)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out), "--jobs", "1"]) == 0
    captured = capsys.readouterr().out
    assert "ran 2 seed(s) x 30 episodes (rbed)" in captured
    assert (out / "run_1.csv").is_file()
    assert (out / "aggregate.csv").is_file()
    header = (out / "run_1.csv").read_text().splitlines()[0]
    assert header == RUN_HEADER


def test_cli_run_defaults_with_overrides(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["run", "--out", str(out), "--seeds", "5,6,7", "--episodes", "10", "--jobs", "1"]
    )
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "aggregate.csv",
        "run_5.csv",
        "run_6.csv",
        "run_7.csv",
    ]
    assert len((out / "run_5.csv").read_text().splitlines()) == 11


def test_cli_run_twice_byte_identical(tmp_path):
    config = write_config(tmp_path, "c.json", SMALL)
    for d in ("x", "y"):
        assert main(["run", "--config", config, "--out", str(tmp_path / d), "--jobs", "1"]) == 0
    for name in ("run_1.csv", "run_2.csv", "aggregate.csv"):
        assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()


def test_cli_compare_and_plot(tmp_path, capsys):
    a = write_config(tmp_path, "a.json", SMALL)
    b = write_config(
        tmp_path, "b.json", {**SMALL, "scheduler": {"kind": "exponential"}}
    )
    out = tmp_path / "cmp"
    code = main(["compare", "--config-a", a, "--config-b", b, "--out", str(out), "--jobs", "1"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "rbed: solved" in captured
    assert "exponential: solved" in captured
    assert "solve-count ratio" in captured
    assert (out / "report.json").is_file()

    figs = tmp_path / "figs"
    assert main(["plot", "--in", str(out), "--out", str(figs)]) == 0
    for name in FIGURE_NAMES:
        assert (figs / name).is_file()


def test_cli_plot_in_cwd_labels_series_with_directory_name(tmp_path, capsys, monkeypatch):
    config = write_config(tmp_path, "c.json", SMALL)
    run_dir = tmp_path / "myrun"
    assert main(["run", "--config", config, "--out", str(run_dir), "--jobs", "1"]) == 0
    assert main(["plot", "--in", str(run_dir), "--out", str(tmp_path / "want")]) == 0
    monkeypatch.chdir(run_dir)
    assert main(["plot", "--in", ".", "--out", "figs"]) == 0
    svgs = [(run_dir / "figs" / name).read_text() for name in FIGURE_NAMES]
    assert svgs == [(tmp_path / "want" / name).read_text() for name in FIGURE_NAMES]
    assert any(">myrun</text>" in svg for svg in svgs)
    assert not any("></text>" in svg for svg in svgs)


def test_cli_compare_parses_seeds_once(tmp_path, capsys, monkeypatch):
    parsed = []

    def counting(spec):
        parsed.append(spec)
        return parse_seed_spec(spec)

    monkeypatch.setattr(rbed.config, "parse_seed_spec", counting)
    a = write_config(tmp_path, "a.json", SMALL)
    b = write_config(tmp_path, "b.json", {**SMALL, "scheduler": {"kind": "exponential"}})
    out = tmp_path / "cmp"
    cmd = ["compare", "--config-a", a, "--config-b", b, "--out", str(out), "--seeds", "4,6"]
    assert main([*cmd, "--episodes", "2", "--jobs", "1"]) == 0
    assert parsed == ["4,6"]
    for arm in ("a", "b"):
        assert sorted(p.name for p in (out / arm).glob("run_*.csv")) == ["run_4.csv", "run_6.csv"]


@pytest.mark.parametrize(
    "scheduler, threshold",
    [
        # 195 decays from 0 by 1.0 end at epsilon 0.0 and threshold 195, the
        # target (the schedule's own walk holds a 2.5e-15 residue there)
        ({}, None),
        ({"reward_increment": 0.5}, 97.5),
        ({"reward_increment": math.nextafter(1.0, 0.0)}, 195 * math.nextafter(1.0, 0.0)),
        ({"reward_increment": 0.5, "reward_threshold_init": 97.5}, None),
        ({"reward_increment": 0.5, "epsilon_min": 1.0}, None),  # never decays
        ({"kind": "exponential"}, None),
        ({"reward_increment": 2}, None),  # stalls at 0.4821
    ],
)
def test_early_floor_is_the_threshold_after_the_last_decay(scheduler, threshold):
    # reward_target counts decays: after ceil(reward_target) of them, each
    # paid for with the largest return, epsilon is at its floor and the
    # threshold is reward_threshold_init + ceil(reward_target) * reward_increment
    config = config_from_dict({"scheduler": scheduler})
    s, end = config.scheduler, ladder_end(config)
    if threshold is not None:
        assert end == (s.epsilon_min, threshold)
    else:  # no ladder, a stall, or a floor at or past the target
        assert end is None or end[0] > s.epsilon_min or end[1] >= s.reward_target
    if end is not None and end[0] == s.epsilon_min:
        schedule, _ = _walk_ladder(s.schedule(), MAX_RETURN["cartpole"], s.reward_target)
        assert schedule.epsilon == pytest.approx(s.epsilon_min, abs=1e-12)
        assert schedule.reward_threshold == end[1]
        assert (schedule.reward_threshold < s.reward_target) == (threshold is not None)


def test_cli_warns_once_per_arm_whose_ladder_ends_below_its_target(tmp_path, capsys):
    half = write_config(tmp_path, "half.json", {**SMALL, "scheduler": {"reward_increment": 0.5}})
    under = math.nextafter(1.0, 0.0)
    near = write_config(tmp_path, "near.json", {**SMALL, "scheduler": {"reward_increment": under}})
    cmd = ["compare", "--episodes", "2", "--jobs", "1"]
    assert main([*cmd, "--config-a", half, "--config-b", near, "--out", str(tmp_path / "o")]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"warning: arm a ({half}): epsilon reaches epsilon_min 0 when the RBED threshold is 97.5,"
        " below reward_target 195: reward_target counts decays, not reward",
        f"warning: arm b ({near}): epsilon reaches epsilon_min 0 when the RBED threshold is"
        f" {195 * under!r}, below reward_target 195: reward_target counts decays, not reward",
    ]
    assert "warning" not in captured.out
    cmd = ["run", "--config", half, "--seeds", "1..2", "--episodes", "2", "--jobs", "1"]
    assert main([*cmd, "--out", str(tmp_path / "half")]) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        f"warning: {half}: epsilon reaches epsilon_min 0 when the RBED threshold is 97.5,"
        " below reward_target 195: reward_target counts decays, not reward\n"
    )
    assert "warning" not in captured.out
    # a chain ladder at 0.5 would also end below its target, but it stalls
    # first, and only the stall line is printed
    chain = write_config(
        tmp_path, "chain.json", {"environment": "chain", "scheduler": {"reward_increment": 0.5}}
    )
    assert ladder_end(load_config(chain)) == (pytest.approx(1 - 3 / 195), 1.5)
    cmd = ["run", "--config", chain, "--seeds", "1", "--episodes", "3", "--jobs", "1"]
    assert main([*cmd, "--out", str(tmp_path / "chain")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"warning: {chain}: epsilon stalls at ")


def test_cli_warns_once_per_stalling_arm(tmp_path, capsys):
    chain = write_config(tmp_path, "chain.json", {"environment": "chain"})
    out = tmp_path / "chain"
    cmd = ["run", "--config", chain, "--seeds", "1", "--episodes", "3", "--jobs", "1"]
    assert main([*cmd, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        f"warning: {chain}: epsilon stalls at 0.9897, above epsilon_min 0: the RBED"
        " threshold ladder passes 1, the largest episode return on chain\n"
    )
    assert "warning" not in captured.out
    assert main(["plot", "--in", str(out), "--out", str(out / "figures")]) == 0
    assert sorted(os.listdir(out / "figures")) == sorted(FIGURE_NAMES)
    a = write_config(tmp_path, "a.json", {**SMALL, "scheduler": {"reward_increment": 2}})
    b = write_config(tmp_path, "b.json", {**SMALL, "scheduler": {"reward_target": 400}})
    ok = write_config(tmp_path, "ok.json", SMALL)
    cmd = ["compare", "--episodes", "2", "--jobs", "1"]
    assert main([*cmd, "--config-a", a, "--config-b", b, "--out", str(tmp_path / "ab")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert err[0].startswith(f"warning: arm a ({a}): epsilon stalls at 0.4821,")
    assert err[1].startswith(f"warning: arm b ({b}): epsilon stalls at 0.4975,")
    assert main([*cmd, "--config-a", ok, "--config-b", b, "--out", str(tmp_path / "okb")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"warning: arm b ({b}):")


def test_shipped_configs_print_no_warning(tmp_path, capsys):
    repo = Path(__file__).resolve().parent.parent
    for path in ("configs/rbed.json", "configs/exponential.json", "perfbench/workloads/random_policy.json"):
        config = load_config(repo / path)
        s, end = config.scheduler, ladder_end(config)
        assert end is None or (end[0] == s.epsilon_min and end[1] >= s.reward_target), path
    a, b = str(repo / "configs/rbed.json"), str(repo / "configs/exponential.json")
    cmd = ["compare", "--config-a", a, "--config-b", b, "--seeds", "1", "--episodes", "2"]
    assert main([*cmd, "--jobs", "1", "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


def test_cli_compare_rejects_protocol_mismatch(tmp_path, capsys):
    a = write_config(tmp_path, "a.json", SMALL)
    b = write_config(tmp_path, "b.json", {**SMALL, "episodes": 31})
    code = main(["compare", "--config-a", a, "--config-b", b, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bad_config_exits_2(tmp_path, capsys):
    bad = write_config(tmp_path, "bad.json", {"episodes": 0})
    assert main(["run", "--config", bad, "--out", str(tmp_path / "o")]) == 2
    assert f"error: {bad}: episodes" in capsys.readouterr().err
    good = write_config(tmp_path, "good.json", SMALL)
    bad_b = write_config(tmp_path, "b.json", {"scheduler": {"kind": "rbed", "reward_target": 0}})
    cmd = ["compare", "--config-a", good, "--config-b", bad_b, "--out", str(tmp_path / "o")]
    assert main(cmd) == 2
    assert f"error: {bad_b}: scheduler.reward_target" in capsys.readouterr().err
    not_utf8 = tmp_path / "latin.json"
    not_utf8.write_bytes(b'{"episodes": 1}\xff')
    assert main(["run", "--config", str(not_utf8), "--out", str(tmp_path / "o")]) == 2
    assert f"error: {not_utf8}: 'utf-8' codec" in capsys.readouterr().err
    # an integer past Python's 4300-digit limit makes json.loads raise a bare
    # ValueError; a Python without the limit reads it, and alpha overflows
    huge = tmp_path / "huge.json"
    huge.write_text('{"agent": {"alpha": 1' + "0" * 5000 + "}}", encoding="utf-8")
    assert main(["run", "--config", str(huge), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {huge}: ")
    assert not (tmp_path / "o").exists()


def test_cli_overrides_are_validated(tmp_path, capsys):
    config = write_config(tmp_path, "c.json", SMALL)
    out = str(tmp_path / "o")
    assert main(["run", "--out", out, "--episodes", "0"]) == 2
    assert "episodes must be >= 1" in capsys.readouterr().err
    cmd = ["compare", "--config-a", config, "--config-b", config, "--out", out, "--episodes", "0"]
    assert main(cmd) == 2
    assert "episodes must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_bad_seed_spec_exits_2(tmp_path, capsys):
    assert main(["run", "--out", str(tmp_path / "o"), "--seeds", "9..1"]) == 2
    capsys.readouterr()


def test_cli_run_and_compare_report_bad_seeds_before_a_bad_config(tmp_path, capsys):
    bad = write_config(tmp_path, "bad.json", {"episodes": 0})
    out = str(tmp_path / "o")
    for args in (["run", "--config", bad], ["compare", "--config-a", bad, "--config-b", bad]):
        assert main([*args, "--seeds", "x", "--out", out]) == 2
        assert capsys.readouterr().err == "error: bad seed list 'x'\n"
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "jobs, message",
    [
        ("0", "must be >= 1, got 0"),
        ("-4", "must be >= 1, got -4"),
        ("abc", "invalid int value: 'abc'"),
        ("1.5", "invalid int value: '1.5'"),
    ],
    ids=["0", "-4", "abc", "1.5"],
)
def test_cli_rejects_jobs_below_one(tmp_path, capsys, jobs, message):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--out", str(tmp_path / "o"), "--episodes", "1", "--jobs", jobs])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"argument --jobs: {message}\n")
    assert not (tmp_path / "o").exists()


def test_cli_plot_missing_inputs_exits_1(tmp_path, capsys):
    assert main(["plot", "--in", str(tmp_path), "--out", str(tmp_path / "figs")]) == 1
    assert "error:" in capsys.readouterr().err


# the padded y-span overflows; or it underflows, so the tick step would
# come from log10(0) (1e-323) or be 0 (2e-323)
@pytest.mark.parametrize("value", ["1.7e308", "1e-323", "2e-323"])
def test_cli_plot_huge_value_exits_1(tmp_path, capsys, value):
    (tmp_path / "aggregate.csv").write_text(f"{AGGREGATE_HEADER}\n1,{value},,1.0\n", encoding="utf-8")
    assert main(["plot", "--in", str(tmp_path), "--out", str(tmp_path / "figs")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line_chart cannot chart y from 0 to ") and err.count("\n") == 1


# -- output directories --------------------------------------------------------


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_cli_run_with_fewer_seeds_leaves_no_stale_run_csv(tmp_path, capsys):
    out = str(tmp_path / "o")
    for seeds in ("0..10", "0..1"):  # run_0.csv and run_10.csv are files rbed writes
        assert main(["run", "--out", out, "--seeds", seeds, "--episodes", "3", "--jobs", "1"]) == 0
    assert sorted(os.listdir(out)) == ["aggregate.csv", "run_0.csv", "run_1.csv"]
    assert os.listdir(tmp_path) == ["o"]  # no staging or set-aside tree is left


def test_cli_run_over_a_compare_dir_replaces_the_whole_layout(tmp_path, capsys):
    a = write_config(tmp_path, "a.json", SMALL)
    b = write_config(tmp_path, "b.json", {**SMALL, "scheduler": {"kind": "exponential"}})
    out = tmp_path / "results"
    assert main(["compare", "--config-a", a, "--config-b", b, "--out", str(out), "--jobs", "1"]) == 0
    assert main(["plot", "--in", str(out), "--out", str(out / "figures")]) == 0
    assert main(["run", "--config", a, "--out", str(out), "--jobs", "1"]) == 0
    assert sorted(os.listdir(out)) == ["aggregate.csv", "run_1.csv", "run_2.csv"]
    # plot now charts the run, one series labelled with the directory name
    assert main(["plot", "--in", str(out), "--out", str(tmp_path / "figs")]) == 0
    reward = (tmp_path / "figs" / "reward.svg").read_text()
    assert len(polylines(reward)) == 1 and ">results</text>" in reward
    assert sorted(os.listdir(tmp_path)) == ["a.json", "b.json", "figs", "results"]


@pytest.mark.parametrize(
    "command, foreign",
    [
        (["run", "--seeds", "1", "--episodes", "2", "--jobs", "1"], "notes.txt"),
        (["run", "--seeds", "1", "--episodes", "2", "--jobs", "1"], "a/notes.txt"),
        (["run", "--seeds", "1", "--episodes", "2", "--jobs", "1"], "run_x.csv"),
        # decimal, but not as str writes a seed
        (["run", "--seeds", "1", "--episodes", "2", "--jobs", "1"], "run_\u0663.csv"),
        (["run", "--seeds", "1", "--episodes", "2", "--jobs", "1"], "run_\uff10.csv"),
        (["run", "--seeds", "1", "--episodes", "2", "--jobs", "1"], "run_007.csv"),
        (["plot", "--in", "results"], "aggregate.csv"),
    ],
    ids=[
        "run_beside_notes", "run_beside_a_notes", "run_beside_foreign_csv", "run_beside_arabic_indic_digit",
        "run_beside_fullwidth_digit", "run_beside_leading_zeros", "plot_into_a_run",
    ],
)
def test_cli_refuses_an_out_holding_other_files(tmp_path, capsys, command, foreign):
    assert main(["run", "--seeds", "1", "--episodes", "2", "--jobs", "1", "--out", str(tmp_path / "results")]) == 0
    out = tmp_path / "target"
    (out / foreign).parent.mkdir(parents=True)
    (out / foreign).write_text("keep me\n", encoding="utf-8")
    (out / "run_1.csv").write_text("old\n", encoding="utf-8")
    before = tree_bytes(out)
    capsys.readouterr()
    command = [part.replace("results", str(tmp_path / "results")) for part in command]
    assert main([*command, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: refusing to replace {out}: ") and err.count("\n") == 1
    assert tree_bytes(out) == before
    assert sorted(os.listdir(tmp_path)) == ["results", "target"]


def test_interrupted_emit_leaves_the_old_tree(tmp_path, monkeypatch):
    out = tmp_path / "o"
    emit_results([fabricated_run(1), fabricated_run(2)], out)
    before = tree_bytes(out)

    def broken(curves):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(rbed.emit, "aggregate_csv", broken)
    with pytest.raises(RuntimeError, match="interrupted"):
        # run_1.csv and run_2.csv change, then the aggregate raises
        emit_results([fabricated_run(1, n=5), fabricated_run(2, n=5)], out)
    assert tree_bytes(out) == before
    assert os.listdir(tmp_path) == ["o"]


def test_a_failed_rename_into_place_puts_the_old_tree_back(tmp_path, capsys, monkeypatch):
    out = tmp_path / "o"
    assert main(["run", "--seeds", "1..2", "--episodes", "2", "--jobs", "1", "--out", str(out)]) == 0
    before = tree_bytes(out)
    real_rename, failed = os.rename, []

    def rename(src, dst):
        if os.path.basename(src) == "new" and not failed:  # the new tree's rename into place
            failed.append(dst)
            raise OSError("rename failed")
        real_rename(src, dst)

    monkeypatch.setattr(rbed.emit.os, "rename", rename)
    capsys.readouterr()
    assert main(["run", "--seeds", "1", "--episodes", "3", "--jobs", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: rename failed\n"
    assert failed == [os.path.realpath(out)]
    assert tree_bytes(out) == before
    assert os.listdir(tmp_path) == ["o"]  # no staging directory is left


def test_a_write_takes_a_staging_name_no_earlier_process_left(tmp_path):
    # killed processes that had this pid left the first two staging names a
    # write of "o" reaches for, and the pid's "-new" and "-old" siblings,
    # which the staging names once were (a leftover of either, "-old"
    # holding a tree, broke the write)
    out = tmp_path / "o"
    emit_results([fabricated_run(1)], out)
    pid = os.getpid()
    for leftover in (f".o.rbed-{pid}/new", f".o.rbed-{pid}-1/old", f".o.rbed-{pid}-new", f".o.rbed-{pid}-old"):
        (tmp_path / leftover).mkdir(parents=True)
        (tmp_path / leftover / "run_1.csv").write_text("left\n", encoding="utf-8")
    left = {name: tree_bytes(tmp_path / name) for name in os.listdir(tmp_path) if name != "o"}
    emit_results([fabricated_run(1, n=5), fabricated_run(2, n=5)], out)
    assert sorted(os.listdir(out)) == ["aggregate.csv", "run_1.csv", "run_2.csv"]
    assert len((out / "run_1.csv").read_text(encoding="utf-8").splitlines()) == 6
    assert {name: tree_bytes(tmp_path / name) for name in os.listdir(tmp_path) if name != "o"} == left


def test_a_kill_between_the_renames_leaves_the_old_tree_set_aside(tmp_path, capsys):
    # the process dies after the old tree is renamed aside and before the
    # new one is renamed into place: no --out is left, and both trees are
    # whole in the staging directory, which no later command touches
    code = (
        "import os\n"
        "from rbed.cli import main\n"
        "print(os.getpid())\n"
        "assert main(['run', '--seeds', '1..2', '--episodes', '2', '--jobs', '1', '--out', 'o']) == 0\n"
        "renames, real_rename = [], os.rename\n"
        "def rename(src, dst):\n"
        "    renames.append(dst)\n"
        "    if len(renames) == 2:  # the new tree's rename into place\n"
        "        os._exit(9)\n"
        "    real_rename(src, dst)\n"
        "os.rename = rename\n"
        "main(['run', '--seeds', '1', '--episodes', '3', '--jobs', '1', '--out', 'o'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 9, proc.stderr
    staging = tmp_path / f".o.rbed-{int(proc.stdout.split()[0])}"
    assert os.listdir(tmp_path) == [staging.name]
    assert sorted(os.listdir(staging)) == ["new", "old"]
    old, new = tree_bytes(staging / "old"), tree_bytes(staging / "new")
    assert sorted(old) == ["aggregate.csv", "run_1.csv", "run_2.csv"]
    assert sorted(new) == ["aggregate.csv", "run_1.csv"]
    assert len(new["run_1.csv"].splitlines()) == 4
    assert main(["run", "--seeds", "1", "--episodes", "3", "--jobs", "1", "--out", str(tmp_path / "o")]) == 0
    assert tree_bytes(tmp_path / "o") == new
    assert sorted(os.listdir(tmp_path)) == [staging.name, "o"]
    assert (tree_bytes(staging / "old"), tree_bytes(staging / "new")) == (old, new)


@pytest.mark.parametrize(
    "command, under",
    [("run", ""), ("compare", ""), ("run", "sub"), ("compare", "sub/deeper")],
    ids=["run", "compare", "run_under_a_file", "compare_under_a_file"],
)
def test_cli_rejects_an_out_file_before_the_seed_runs(tmp_path, capsys, monkeypatch, command, under):
    def refuse(*args, **kwargs):
        raise AssertionError("a seed-run started")

    monkeypatch.setattr(rbed.runner, "run_experiment", refuse)
    monkeypatch.setattr(rbed.runner, "compare", refuse)
    out = tmp_path / "file"
    out.write_text("keep me\n", encoding="utf-8")
    config = write_config(tmp_path, "c.json", SMALL)
    args = ["--config", config] if command == "run" else ["--config-a", config, "--config-b", config]
    if not under:
        assert main([command, *args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {out} exists and is not a directory\n"
    else:  # the error names the file, by its real path
        assert main([command, *args, "--out", str(out / under)]) == 1
        assert capsys.readouterr().err == f"error: {os.path.realpath(out)} exists and is not a directory\n"
    assert out.read_text(encoding="utf-8") == "keep me\n"
    assert sorted(os.listdir(tmp_path)) == ["c.json", "file"]


@pytest.mark.parametrize("command", ["run", "compare"])
def test_cli_refuses_an_out_holding_other_files_before_the_seed_runs(tmp_path, capsys, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("a seed-run started")

    monkeypatch.setattr(rbed.runner, "run_experiment", refuse)
    monkeypatch.setattr(rbed.runner, "compare", refuse)
    out = tmp_path / "kept"
    out.mkdir()
    (out / "notes.txt").write_text("keep me\n", encoding="utf-8")
    config = write_config(tmp_path, "c.json", SMALL)
    args = ["--config", config] if command == "run" else ["--config-a", config, "--config-b", config]
    assert main([command, *args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: refusing to replace {out}: {out / 'notes.txt'} is not a file this command writes there\n"
    assert os.listdir(out) == ["notes.txt"]
    assert (out / "notes.txt").read_text(encoding="utf-8") == "keep me\n"


@pytest.mark.parametrize("exists", [False, True], ids=["fresh", "existing"])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_check_out_dir_judges_the_out_before_any_seed_run(tmp_path, monkeypatch, command, exists):
    calls = []
    judge, seed_run = rbed.emit.check_out_dir, rbed.runner.run_single_seed

    def logged(name, function):
        return lambda *args: (calls.append(name), function(*args))[1]

    monkeypatch.setattr(rbed.emit, "check_out_dir", logged("check_out_dir", judge))
    monkeypatch.setattr(rbed.runner, "run_single_seed", logged("run_single_seed", seed_run))
    config = write_config(tmp_path, "c.json", SMALL)
    args = ["--config", config] if command == "run" else ["--config-a", config, "--config-b", config]
    argv = [command, *args, "--jobs", "1", "--out", str(tmp_path / "out")]
    if exists:
        assert main(argv) == 0
        calls.clear()
    assert main(argv) == 0
    seed_runs = len(SMALL["seeds"]) * (1 if command == "run" else 2)
    # the command's judgment, the seed-runs, then the writer's own
    assert calls == ["check_out_dir", *["run_single_seed"] * seed_runs, "check_out_dir"]


def test_cli_plot_into_a_file_names_it(tmp_path, capsys):
    assert main(["run", "--seeds", "1", "--episodes", "2", "--jobs", "1", "--out", str(tmp_path / "results")]) == 0
    out = tmp_path / "file"
    out.write_text("keep me\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["plot", "--in", str(tmp_path / "results"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {out} exists and is not a directory\n"
    assert out.read_text(encoding="utf-8") == "keep me\n"


def test_cli_plot_under_a_file_names_the_file(tmp_path, capsys):
    assert main(["run", "--seeds", "1", "--episodes", "2", "--jobs", "1", "--out", str(tmp_path / "results")]) == 0
    file = tmp_path / "file"
    file.write_text("keep me\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["plot", "--in", str(tmp_path / "results"), "--out", str(file / "sub")]) == 1
    assert capsys.readouterr().err == f"error: {os.path.realpath(file)} exists and is not a directory\n"
    assert file.read_text(encoding="utf-8") == "keep me\n"
    assert sorted(os.listdir(tmp_path)) == ["file", "results"]


def test_emit_under_a_file_raises_and_stages_nothing(tmp_path):
    file = tmp_path / "file"
    file.write_text("keep me\n", encoding="utf-8")
    message = f"^{re.escape(os.path.realpath(file))} exists and is not a directory$"
    with pytest.raises(FileExistsError, match=message):
        emit_results([fabricated_run(1)], file / "sub")
    assert file.read_text(encoding="utf-8") == "keep me\n"
    assert os.listdir(tmp_path) == ["file"]  # no .sub.rbed-* staging directory


@pytest.mark.parametrize("holds", ["nothing", "a layout"])
@pytest.mark.parametrize(
    "command, out, cwd",
    [
        (["run", "--seeds", "1", "--episodes", "2", "--jobs", "1"], ".", "here"),
        (["run", "--seeds", "1", "--episodes", "2", "--jobs", "1"], "", "here"),
        (["plot", "--in", "results"], ".", "here"),
        # a results layout whose a/ is the working directory
        (["run", "--seeds", "1", "--episodes", "2", "--jobs", "1"], "..", "here/a"),
    ],
    ids=["run_dot", "run_empty", "plot_dot", "run_parent"],
)
def test_cli_refuses_the_working_directory_and_its_parents(tmp_path, capsys, monkeypatch, command, out, cwd, holds):
    assert main(["run", "--seeds", "1", "--episodes", "2", "--jobs", "1", "--out", str(tmp_path / "results")]) == 0
    command = [part.replace("results", str(tmp_path / "results")) for part in command]
    here = tmp_path / cwd
    here.mkdir(parents=True)
    if holds == "a layout":  # one the command would otherwise replace
        source = tmp_path / "results"
        if command[0] == "plot":
            assert main(["plot", "--in", str(source), "--out", str(tmp_path / "figs")]) == 0
            source = tmp_path / "figs"
        for path in source.iterdir():
            (here / path.name).write_bytes(path.read_bytes())
    before = tree_bytes(tmp_path / "here")
    entries = sorted((tmp_path / "here").rglob("*"))
    monkeypatch.setattr(rbed.runner, "run_experiment", lambda *args, **kwargs: pytest.fail("a seed-run started"))
    monkeypatch.chdir(here)
    capsys.readouterr()
    assert main([*command, "--out", out]) == 1
    refused = os.path.realpath(here if out != ".." else here.parent)
    assert capsys.readouterr().err == f"error: refusing to replace {refused}: it is the working directory or holds it\n"
    assert os.path.samefile(os.curdir, here)
    assert tree_bytes(tmp_path / "here") == before
    assert sorted((tmp_path / "here").rglob("*")) == entries


@pytest.mark.parametrize("exists", [False, True], ids=["fresh", "existing"])
def test_a_pooled_compare_gives_the_serial_bytes(tmp_path, exists):
    # compare loads rbed.emit before the seed-runs, for check_out_dir to
    # judge --out, so the started worker is forked holding it; the bytes
    # must not change, whether --out is new or holds a layout to replace
    write_config(tmp_path, "a.json", SMALL)
    write_config(tmp_path, "b.json", {**SMALL, "scheduler": {"kind": "exponential"}})
    argv = ["compare", "--config-a", str(tmp_path / "a.json"), "--config-b", str(tmp_path / "b.json")]
    assert main([*argv, "--seeds", "1..3", "--jobs", "1", "--out", str(tmp_path / "serial")]) == 0
    if exists:
        assert main([*argv, "--episodes", "5", "--jobs", "1", "--out", str(tmp_path / "pooled")]) == 0
        assert main(["plot", "--in", str(tmp_path / "pooled"), "--out", str(tmp_path / "pooled" / "figures")]) == 0
    code = (
        "import multiprocessing, sys\n"
        "import rbed.runner\n"
        "rbed.runner.usable_cpus = lambda: 2\n"
        "emit_at_start = []\n"
        "real_start = multiprocessing.Process.start\n"
        "multiprocessing.Process.start = lambda p: (emit_at_start.append('rbed.emit' in sys.modules), real_start(p))[1]\n"
        "from rbed.cli import main\n"
        f"assert main({[*argv, '--seeds', '1..3', '--jobs', '2', '--out', 'pooled']!r}) == 0\n"
        "assert emit_at_start == [True], emit_at_start\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""  # capsys cannot see what a forked worker writes to fd 2
    assert tree_bytes(tmp_path / "pooled") == tree_bytes(tmp_path / "serial")


def test_public_api_surface():
    import rbed

    missing = [name for name in rbed.__all__ if not hasattr(rbed, name)]
    assert missing == []
    for name in ("compare", "run_experiment", "emit_compare", "config_from_dict", "Rng"):
        assert name in rbed.__all__
    assert not hasattr(rbed, "no_such_name")


# xml.sax pulls in urllib, http, email, ssl and socket; multiprocessing pulls
# in socket. A serial run or a plot needs none of them, and no command needs
# concurrent.futures.
_UNUSED_AT_IMPORT = ("xml", "urllib", "http", "email", "ssl", "socket", "concurrent", "multiprocessing")

_LAYERS = [
    "rbed.agent", "rbed.cli", "rbed.config", "rbed.emit", "rbed.envs", "rbed.metrics",
    "rbed.rng", "rbed.runner", "rbed.schedules", "rbed.svgchart",
]


def _modules_loaded_by(code: str, cwd: Path | None = None) -> list[str]:
    """The modules a fresh interpreter loads while it runs ``code``, sorted."""
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True, check=True
    ).stdout
    return out.splitlines()[-1].split()


def _rbed(modules: list[str]) -> list[str]:
    return [name for name in modules if name.split(".")[0] == "rbed"]


def _unused(modules: list[str]) -> list[str]:
    return [name for name in modules if name.split(".")[0] in _UNUSED_AT_IMPORT]


def test_import_loads_no_network_or_pool_modules():
    added = _modules_loaded_by("import rbed.cli")
    assert _rbed(added) == ["rbed", "rbed.cli"]
    assert _unused(added) == []
    assert _rbed(_modules_loaded_by("import rbed")) == ["rbed"]


def test_learning_core_loads_no_harness_module():
    # episodes return (reward, steps) and run_seed builds the records, so
    # the agent needs neither config, schedules nor metrics at run time
    assert _rbed(_modules_loaded_by("import rbed.agent")) == ["rbed", "rbed.agent", "rbed.envs", "rbed.rng"]


def test_the_benchmarks_set_up_and_preflight_code_run_from_src():
    # perfbench/run.py times SETUP_CODE and checks PREFLIGHT_CODE's rbed_file
    # in fresh interpreters: a rename of a name either imports fails here too,
    # and not only in a benchmark run
    tree = ast.parse((REPO / "perfbench" / "run.py").read_text(encoding="utf-8"))
    code = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("SETUP_CODE", "PREFLIGHT_CODE")
    }
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))

    def run(name, *args):
        return subprocess.run([sys.executable, "-c", code[name], *args], cwd=REPO, env=env, capture_output=True, text=True)

    setup = run("SETUP_CODE", "configs/rbed.json", "configs/exponential.json", "perfbench/workloads/random_policy.json")
    assert setup.returncode == 0, setup.stderr
    preflight = run("PREFLIGHT_CODE")
    assert preflight.returncode == 0, preflight.stderr
    assert Path(json.loads(preflight.stdout)["rbed_file"]).resolve().is_relative_to((REPO / "src").resolve())


def test_each_command_loads_only_the_layers_it_runs(tmp_path):
    write_config(tmp_path, "a.json", SMALL)
    write_config(tmp_path, "b.json", {**SMALL, "scheduler": {"kind": "exponential"}})
    commands = {
        "run": ["run", "--config", "a.json", "--out", "run", "--jobs", "1"],
        "compare": ["compare", "--config-a", "a.json", "--config-b", "b.json", "--out", "cmp", "--jobs", "1"],
        "plot a run": ["plot", "--in", "run", "--out", "run/figs"],
        "plot a compare": ["plot", "--in", "cmp", "--out", "cmp/figs"],
    }
    loaded = {
        command: _modules_loaded_by(f"from rbed.cli import main\nassert main({argv!r}) == 0", cwd=tmp_path)
        for command, argv in commands.items()
    }
    # two usable CPUs, so --jobs 2 takes the pooled branch on any host
    pooled = _modules_loaded_by(
        "import rbed.runner\n"
        "rbed.runner.usable_cpus = lambda: 2\n"
        "from rbed.cli import main\n"
        "assert main(['compare', '--config-a', 'a.json', '--config-b', 'b.json', '--out', 'pooled', '--jobs', '2']) == 0",
        cwd=tmp_path,
    )
    all_but_charts = [name for name in _LAYERS if name != "rbed.svgchart"]
    assert _rbed(loaded["run"]) == ["rbed", *all_but_charts]
    assert _rbed(loaded["compare"]) == ["rbed", *all_but_charts]
    assert _rbed(pooled) == ["rbed", *all_but_charts]
    plot = ["rbed", "rbed.cli", "rbed.emit", "rbed.metrics", "rbed.svgchart"]
    assert _rbed(loaded["plot a run"]) == plot
    assert _rbed(loaded["plot a compare"]) == plot
    # rbed's classes are NamedTuples or plain classes: no command loads
    # dataclasses, nor the inspect that dataclasses imports
    for name in ("dataclasses", "inspect"):
        for modules in [*loaded.values(), pooled]:
            assert name not in modules
    assert [_unused(modules) for modules in loaded.values()] == [[]] * len(commands)
    # stdlib only: every module a command loads is rbed's or the standard
    # library's (__mp_main__ is the alias multiprocessing gives __main__)
    for modules in [*loaded.values(), pooled]:
        top = {name.split(".")[0] for name in modules} - {"rbed", "__mp_main__"}
        assert sorted(top - sys.stdlib_module_names) == []
    assert "multiprocessing" in pooled
    assert [name for name in _unused(pooled) if name.split(".")[0] not in ("multiprocessing", "socket")] == []
    assert sorted(p.name for p in (tmp_path / "cmp" / "figs").iterdir()) == sorted(FIGURE_NAMES)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_spawned_workers_give_the_serial_bytes(tmp_path, method):
    # spawn (macOS's default) and forkserver (Linux's from Python 3.14)
    # re-import rbed in each worker and unpickle the task list there
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} is not a start method here")
    write_config(tmp_path, "a.json", SMALL)
    write_config(tmp_path, "b.json", {**SMALL, "scheduler": {"kind": "exponential"}})
    argv = ["compare", "--config-a", "a.json", "--config-b", "b.json", "--seeds", "1..3"]
    code = (
        "import multiprocessing\n"
        f"multiprocessing.set_start_method({method!r})\n"
        "import rbed.runner\n"
        "rbed.runner.usable_cpus = lambda: 2\n"
        "started = []\n"
        "real_start = multiprocessing.Process.start\n"
        "multiprocessing.Process.start = lambda p: (started.append(p), real_start(p))[1]\n"
        "from rbed.cli import main\n"
        f"assert main({[*argv, '--jobs', '2', '--out', 'spawned']!r}) == 0\n"
        f"assert len(started) == 1 and multiprocessing.get_start_method() == {method!r}\n"
        "assert multiprocessing.active_children() == []\n"
        f"assert main({[*argv, '--jobs', '1', '--out', 'serial']!r}) == 0\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    spawned, serial = (
        {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
        for root in (tmp_path / "spawned", tmp_path / "serial")
    )
    assert len(spawned) == 2 * 3 + 3
    assert spawned == serial


def test_every_export_imports_in_a_fresh_interpreter():
    code = (
        "import rbed\n"
        "assert set(rbed.__all__) <= set(dir(rbed))\n"
        "from rbed import *\n"
        "assert [name for name in rbed.__all__ if name not in globals()] == []\n"
        "assert all(getattr(rbed, name).__module__.startswith('rbed.') for name in rbed.__all__)"
    )
    exported_layers = [name for name in _LAYERS if name not in ("rbed.cli", "rbed.svgchart")]
    assert _rbed(_modules_loaded_by(code)) == ["rbed", *exported_layers]


def test_shipped_configs_load():
    from pathlib import Path

    configs = Path(__file__).resolve().parent.parent / "configs"
    for name in ("rbed.json", "exponential.json"):
        config = load_config(configs / name)
        assert config.episodes == 500
        assert config.seeds == tuple(range(1, 21))
        assert config.agent.alpha == 0.26
