"""Acceptance gate: every benchmark-level guarantee, one test each.

These intentionally re-verify ground the unit suites cover, as a single
self-contained checklist. Criteria 7 and 8 run the full default comparison
(20 seeds x 500 episodes x 2 arms) once via a shared fixture, and the byte
gate runs it once more through the CLI at --jobs 2; the module takes about
30 s on a 2-vCPU x86 machine.
"""

import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from rbed.agent import new_q_table, run_episode
from rbed.config import AgentConfig, config_from_dict, ladder_end, load_config
from rbed.emit import emit_compare, figures_from_dir
from rbed.envs import LEFT, RIGHT, CartPoleState, TabularChain, cartpole_step
from rbed.metrics import EpisodeRecord, solved_at
from rbed.rng import Rng
from rbed.runner import compare
from rbed.schedules import ExponentialSchedule, RbedSchedule

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


def report(line):
    print(line)


# -- 1: reward-based decay ladder ---------------------------------------------


def test_criterion_1_rbed_ladder_exactness():
    sched = RbedSchedule.for_target(195.0)
    for k in range(196):
        assert abs(sched.epsilon - (1.0 - k / 195.0)) <= 1e-9, f"k={k}"
        assert sched.reward_threshold == float(k)
        sched = sched.update(sched.reward_threshold)  # equality qualifies
    # ladder exhausted: epsilon clamps at exactly 0 from here on
    for _ in range(10):
        assert sched.epsilon == 0.0
        sched = sched.update(sched.reward_threshold)
    report("PASS criterion 1: epsilon = 1 - k/195 within 1e-9 over the full ladder, then clamps at 0")


# -- 2: exponential closed form -----------------------------------------------


def test_criterion_2_exponential_closed_form():
    start, rate, floor = 1.0, 0.995, 0.01
    sched = ExponentialSchedule(start, rate, floor)
    for n in range(1, 1201):
        sched = sched.update(0.0)
        closed = start * rate**n
        if closed > floor:
            assert abs(sched.epsilon - closed) / closed <= 1e-9, f"n={n}"
        else:
            assert sched.epsilon == floor, f"n={n}"
    assert sched.epsilon == floor
    report("PASS criterion 2: epsilon tracks start*rate^n within 1e-9 relative, then sits exactly on the floor")


# -- 3: cart-pole physics oracle ------------------------------------------------


def test_criterion_3_physics_oracle_and_mirror_symmetry():
    out = cartpole_step(CartPoleState(0.0, 0.0, 0.0, 0.0), RIGHT)
    for got, want in zip(out.state[:4], (0.0, 0.19512195, 0.0, -0.29268293)):
        assert abs(got - want) <= 1e-8

    rng = Rng(20260816)
    for _ in range(10000):
        state = CartPoleState(
            rng.next_f64() * 4.0 - 2.0,
            rng.next_f64() * 6.0 - 3.0,
            rng.next_f64() * 0.4 - 0.2,
            rng.next_f64() * 6.0 - 3.0,
        )
        mirrored = CartPoleState(-state.x, -state.x_dot, -state.theta, -state.theta_dot)
        a = cartpole_step(state, RIGHT).state
        b = cartpole_step(mirrored, LEFT).state
        assert (b.x, b.x_dot, b.theta, b.theta_dot) == (-a.x, -a.x_dot, -a.theta, -a.theta_dot)
    report("PASS criterion 3: step oracle within 1e-8 per component; mirror symmetry exact on 10^4 states")


# -- 4: learning correctness on the chain --------------------------------------


def test_criterion_4_chain_convergence():
    env = TabularChain(5)
    q = new_q_table(env.n_states, env.n_actions)
    params = AgentConfig(alpha=0.1, gamma=0.9)
    rng = Rng(61)
    total_steps = 0
    for _ in range(2500):
        total_steps += run_episode(env, q, 1.0, params, rng)[1]
    assert total_steps <= 100000
    assert abs(q[0][RIGHT] - 0.729) <= 1e-3
    report(
        f"PASS criterion 4: Q(0, Right) = {q[0][RIGHT]:.6f} vs 0.729 within 1e-3 "
        f"after {total_steps} steps"
    )


# -- 5: solved rule vs brute force ----------------------------------------------


def test_criterion_5_solved_rule_matches_brute_force():
    gen = random.Random(40917)
    for case in range(1000):
        n = gen.randint(0, 250)
        rewards = [float(gen.randint(0, 200)) for _ in range(n)]
        window = gen.randint(1, 120)
        threshold = float(gen.randint(150, 200))
        records = tuple(
            EpisodeRecord(episode=i + 1, total_reward=r, epsilon=0.5, steps=int(r))
            for i, r in enumerate(rewards)
        )
        want = None
        for end in range(window, n + 1):
            if sum(rewards[end - window : end]) / window >= threshold:
                want = end
                break
        assert solved_at(records, threshold, window) == want, f"case={case}"
    report("PASS criterion 5: solved_at equals the all-window brute-force scan on 1000 random series")


# -- 6: byte-level determinism through the CLI -----------------------------------


def cli(*args, cwd=REPO):
    proc = subprocess.run(
        [sys.executable, "-m", "rbed.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def tree_bytes(root):
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def digests(root):
    return {name: hashlib.sha256(data).hexdigest() for name, data in tree_bytes(root).items()}


def test_criterion_6_determinism_and_parallel_equivalence(tmp_path):
    config_a = tmp_path / "a.json"
    config_b = tmp_path / "b.json"
    protocol = {"episodes": 120, "seeds": "1..6"}
    config_a.write_text(json.dumps({"scheduler": {"kind": "rbed"}, **protocol}))
    config_b.write_text(json.dumps({"scheduler": {"kind": "exponential"}, **protocol}))

    outs = [tmp_path / name for name in ("first", "second", "parallel")]
    for out, jobs in zip(outs, ("1", "1", "8")):
        cli(
            "compare",
            "--config-a", str(config_a),
            "--config-b", str(config_b),
            "--out", str(out),
            "--jobs", jobs,
        )
    first, second, parallel = (tree_bytes(out) for out in outs)
    assert set(first) == {
        "report.json",
        *(f"{arm}/run_{seed}.csv" for arm in "ab" for seed in range(1, 7)),
        *(f"{arm}/aggregate.csv" for arm in "ab"),
    }
    assert first == second
    assert first == parallel
    report("PASS criterion 6: repeated compare byte-identical; --jobs 8 equals --jobs 1")


def test_shipped_configs_reproduce_reference_digests(tmp_path):
    # a fixed byte reference: the shipped configs on seeds 1..3, compared
    # and plotted, must hash to the digests the benchmark checks against
    out = tmp_path / "results"  # rbed plot labels charts with the directory name
    cli(
        "compare",
        "--config-a", str(CONFIGS / "rbed.json"),
        "--config-b", str(CONFIGS / "exponential.json"),
        "--seeds", "1..3",
        "--jobs", "2",
        "--out", str(out),
    )
    cli("plot", "--in", str(out), "--out", str(out / "figures"))
    want = json.loads((REPO / "perfbench" / "reference_digests.json").read_text(encoding="utf-8"))
    assert digests(out) == want
    report("PASS golden outputs: seeds 1..3 compare and plot match reference_digests.json")


# -- 7 and 8: the benchmark comparison itself ------------------------------------


@pytest.fixture(scope="module")
def default_comparison():
    config_a = load_config(CONFIGS / "rbed.json")
    config_b = load_config(CONFIGS / "exponential.json")
    # the shipped files must BE the defaults they claim to pin down
    assert config_a == config_from_dict({})
    assert config_b == config_from_dict({"scheduler": {"kind": "exponential"}})
    return compare(config_a, config_b, jobs=1)


# the 46 files of the default compare (seeds 1..20) and its plot, hashed once
# at --jobs 1 before the pooled runner took its current form
DEFAULT_DIGESTS = json.loads((REPO / "tests" / "default_digests.json").read_text(encoding="utf-8"))


def test_default_comparison_matches_default_digests(default_comparison, tmp_path):
    out = tmp_path / "results"
    emit_compare(default_comparison, out)
    figures_from_dir(out, out / "figures")
    assert len(DEFAULT_DIGESTS) == 46
    assert digests(out) == DEFAULT_DIGESTS
    report("PASS golden outputs: the default compare and plot match default_digests.json")


def test_default_compare_at_jobs_2_matches_default_digests(tmp_path):
    out = tmp_path / "results"
    cli(
        "compare",
        "--config-a", str(CONFIGS / "rbed.json"),
        "--config-b", str(CONFIGS / "exponential.json"),
        "--jobs", "2",
        "--out", str(out),
    )
    cli("plot", "--in", str(out), "--out", str(out / "figures"))
    assert digests(out) == DEFAULT_DIGESTS
    report("PASS golden outputs: rbed compare --jobs 2 and its plot match default_digests.json")


# the SHA-256 of the files of two small `rbed run`s on the 3x3x6x6 grid,
# where all four dimensions change cell, hashed before the fused loop kept
# the current cell between steps; the shipped grid's digests above never
# see x or x_dot change cell
LIVE_GRID_DIGESTS = json.loads((REPO / "tests" / "live_grid_digests.json").read_text(encoding="utf-8"))
LIVE_GRID = {"agent": {"buckets": [3, 3, 6, 6], "gamma": 0.99}, "seeds": "1..3"}


@pytest.mark.parametrize(
    "name, data",
    [
        ("constant", {"scheduler": {"kind": "constant", "epsilon": 1.0}, "episodes": 100}),
        # epsilon is at its floor of 0.01 from episode 229: the exploit path
        ("exponential", {"scheduler": {"kind": "exponential", "decay_rate": 0.98}, "episodes": 400}),
    ],
)
def test_four_live_dimensions_match_live_grid_digests(name, data, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**data, **LIVE_GRID}))
    for jobs in ("1", "2"):
        out = tmp_path / f"results-{jobs}"
        cli("run", "--config", str(config), "--jobs", jobs, "--out", str(out))
        assert digests(out) == LIVE_GRID_DIGESTS[name]
    report(f"PASS golden outputs: the {name} run on the 3x3x6x6 grid matches live_grid_digests.json at --jobs 1 and 2")


# the SHA-256 of the three charts of two single-arm runs, which the digests
# above never plot: a 20-episode run, whose rolling chart has no full window
# and takes the placeholder series, and 300 episodes of the benchmark's
# random-policy grid; both are labelled with the directory name "results"
CHART_DIGESTS = json.loads((REPO / "tests" / "chart_digests.json").read_text(encoding="utf-8"))
RANDOM_POLICY = str(REPO / "perfbench" / "workloads" / "random_policy.json")


@pytest.mark.parametrize(
    "name, args",
    [
        ("default", ["--seeds", "1..2", "--episodes", "20"]),
        ("random_policy", ["--config", RANDOM_POLICY, "--seeds", "7,8", "--episodes", "300"]),
    ],
)
def test_run_charts_match_chart_digests(name, args, tmp_path):
    out = tmp_path / "results"
    cli("run", *args, "--jobs", "1", "--out", str(out))
    cli("plot", "--in", str(out), "--out", str(out / "figures"))
    assert digests(out / "figures") == CHART_DIGESTS[name]
    report(f"PASS golden outputs: the charts of the {name} run match chart_digests.json")


def crossing_episode(curves, level=195.0):
    for i, value in enumerate(curves.mean_rolling):
        if value >= level:
            return curves.window + i
    return None


def test_criterion_7_rbed_beats_exponential_on_defaults(default_comparison):
    rep = default_comparison
    rbed, exp = rep.a, rep.b
    assert rbed.label == "rbed" and exp.label == "exponential"
    assert len(rbed.runs) == 20 and rbed.solve_budget == 500

    cross_rbed = crossing_episode(rbed.curves)
    cross_exp = crossing_episode(exp.curves)
    assert rbed.solve_count > exp.solve_count
    assert cross_rbed is not None
    assert cross_exp is None
    ratio = rep.solve_ratio
    report(
        "PASS criterion 7: solve count {}/20 vs {}/20; aggregate rolling-100 crosses 195 at "
        "episode {} for reward-based decay and never for exponential (achieved solve-count "
        "ratio {:.2f}x with this tabular agent)".format(
            rbed.solve_count, exp.solve_count, cross_rbed, ratio
        )
    )


def test_criterion_8_exponential_reaches_ceiling_first(default_comparison):
    rep = default_comparison
    rbed, exp = rep.a, rep.b
    assert exp.mean_first_200 is not None and rbed.mean_first_200 is not None
    assert exp.mean_first_200 < rbed.mean_first_200
    report(
        "PASS criterion 8: mean first 200-reward episode {:.1f} (exponential) < {:.1f} "
        "(reward-based decay)".format(exp.mean_first_200, rbed.mean_first_200)
    )


def test_readme_quotes_the_default_comparison(default_comparison):
    # README's compare output and the figures of "What the benchmark shows"
    # are this fixture's, so a change to the defaults cannot leave them stale
    from rbed.cli import _summarize_arm

    rep = default_comparison
    rbed, exp = rep.a, rep.b
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    ratio = f"solve-count ratio a/b: {rep.solve_ratio:.3f}"
    for line in (_summarize_arm(rbed), _summarize_arm(exp), ratio):
        assert line in readme.splitlines(), line
    section = readme.split("## What the benchmark shows")[1].split("\n## ")[0]
    shows = " ".join(section.split())
    figures = (
        f"solves {rbed.solve_count}/20",
        f"solves {exp.solve_count}/20",
        f"{rep.solve_ratio:.1f}x",
        f"episode {crossing_episode(rbed.curves)}",
        f"first-200 episode {exp.mean_first_200:.0f} vs {rbed.mean_first_200:.0f}",
    )
    for figure in figures:
        assert figure in shows, figure
    assert figures == (
        "solves 17/20", "solves 8/20", "2.1x", "episode 484", "first-200 episode 129 vs 242"
    )
    assert ratio == "solve-count ratio a/b: 2.125"
    report("PASS README: the compare output and the quoted figures match the default comparison")


def test_readme_states_where_the_ladders_end(tmp_path):
    # README's ladder table is ladder_end's, row by row, and its two example
    # warnings are what rbed run prints for the configs it names
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Config | Decays | Final epsilon | Final threshold |\n|---|---|---|---|\n")[1]
    rows = [line.strip("| ").split(" | ") for line in table.split("\n\n")[0].splitlines()]
    assert [row[0] for row in rows] == [
        "defaults",
        "`reward_increment: 0.5`",
        "`reward_increment: 2`",
        "`reward_target: 400`",
        "`environment: chain`",
    ]
    for cell, decays, shown_epsilon, shown_threshold in rows:
        data = {}
        if cell != "defaults":
            key, value = cell.strip("`").split(": ")
            data = {"environment": value} if key == "environment" else {"scheduler": {key: float(value)}}
        config = config_from_dict(data)
        s, (epsilon, threshold) = config.scheduler, ladder_end(config)
        assert (threshold - s.reward_threshold_init) / s.reward_increment == int(decays), cell
        assert threshold == float(shown_threshold), cell
        digits = shown_epsilon.removeprefix("about ")
        assert f"{epsilon:.{len(digits.split('.')[1])}f}" == digits, cell
        assert (digits == shown_epsilon) == (epsilon == float(digits)), cell
    configs = {
        "chain.json": {"environment": "chain"},
        "half.json": {"scheduler": {"reward_increment": 0.5}},
    }
    warnings = [line for line in readme.splitlines() if line.startswith("warning: ")]
    assert [line.split(":")[1].strip() for line in warnings] == list(configs)
    for (name, data), line in zip(configs.items(), warnings):
        assert f"`{name}` holds `{json.dumps(data)}`" in " ".join(readme.split()), name
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
        args = ("run", "--config", name, "--seeds", "1", "--episodes", "1", "--jobs", "1")
        assert cli(*args, "--out", name.removesuffix(".json"), cwd=tmp_path).stderr == line + "\n"
    report("PASS README: the ladder table and both ladder warnings are what rbed computes and prints")


# -- 9: schedule behavior properties ----------------------------------------------


def test_criterion_9_schedule_property_suite():
    gen = random.Random(90125)

    def random_rbed():
        return RbedSchedule.for_target(
            reward_target=gen.uniform(10.0, 400.0),
            epsilon_start=1.0,
            epsilon_min=gen.choice([0.0, 0.05, 0.1]),
        )

    # monotone nonincreasing and bounded, for both schedule families
    for _ in range(10000):
        if gen.random() < 0.5:
            sched = random_rbed()
        else:
            sched = ExponentialSchedule(1.0, gen.uniform(0.5, 0.999), gen.choice([0.0, 0.01, 0.1]))
        low, high = sched.epsilon_min, sched.epsilon
        previous = sched.epsilon
        for _ in range(20):
            sched = sched.update(gen.uniform(0.0, 220.0))
            assert sched.epsilon <= previous
            assert low <= sched.epsilon <= high
            previous = sched.epsilon

    # all-below-threshold reward sequences leave the schedule bit-unchanged
    for _ in range(10000):
        sched = random_rbed()
        sched = sched.update(200.0).update(200.0)  # walk the threshold up a bit
        frozen = sched
        for _ in range(15):
            sched = sched.update(sched.reward_threshold - gen.uniform(0.001, 50.0))
        assert sched is frozen

    # epsilon depends only on how many updates crossed, not which ones
    for _ in range(10000):
        sched = random_rbed()
        replay = sched
        crossings = 0
        for _ in range(25):
            reward = gen.uniform(0.0, 30.0)
            crossed = reward >= sched.reward_threshold
            sched = sched.update(reward)
            crossings += crossed
        for _ in range(crossings):
            replay = replay.update(replay.reward_threshold)
        assert sched.epsilon == replay.epsilon  # bitwise
        assert sched.reward_threshold == replay.reward_threshold
    report("PASS criterion 9: monotone, bounded, below-threshold-inert, crossing-count-determined (10^4 sequences each)")
