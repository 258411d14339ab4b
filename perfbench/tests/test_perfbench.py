"""Self-tests of the benchmark's tracer, seed derivation, reference clock and output checks."""

from __future__ import annotations

import importlib
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from rbed import compare, config_from_dict, emit_compare, figures_from_dir, run_experiment  # noqa: E402


def _bindings() -> dict[tuple[str, str], object]:
    """Every attribute a target could be bound to, in every rbed module."""
    found = {}
    for _, module_name, path, _ in tracer.TARGETS:
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(importlib.import_module(module_name), owner_name)
            found[(f"{module_name}.{owner_name}", attr)] = owner.__dict__[attr]
        else:
            for name in tracer.RBED_MODULES:
                module = importlib.import_module(name)
                if attr in vars(module):
                    found[(name, attr)] = vars(module)[attr]
    return found


def _resolve(key):
    owner, attr = key
    module_name, _, class_name = owner.rpartition(".")
    if class_name[:1].isupper():
        return getattr(importlib.import_module(module_name), class_name).__dict__[attr]
    return vars(importlib.import_module(owner))[attr]


def test_wrappers_are_installed_and_restored():
    before = _bindings()
    config = config_from_dict({"episodes": 3, "seeds": [1, 2]})
    with tracer.Tracer() as t:
        assert all(_resolve(key) is not original for key, original in before.items())
        run_experiment(config)
    assert all(_resolve(key) is original for key, original in before.items())
    assert t.stats["runner.run_single_seed"][0] == 2
    assert t.stats["schedules.update"][0] == 6


def test_wrappers_are_restored_when_the_traced_call_raises():
    before = _bindings()
    with pytest.raises(ValueError):
        with tracer.Tracer():
            from rbed.rng import Rng

            Rng(1).next_int_below(0)
    assert all(_resolve(key) is original for key, original in before.items())


def _traced_counts(tmp_path: Path, name: str, jobs: int) -> dict:
    prefix = tmp_path / name
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    args = [
        "compare", "--config-a", "configs/rbed.json", "--config-b", "configs/exponential.json",
        "--seeds", "3,5", "--episodes", "12", "--jobs", str(jobs), "--out", str(tmp_path / f"{name}-out"),
    ]
    subprocess.run(
        [sys.executable, str(BENCH / "traced_cli.py"), str(prefix), *args],
        cwd=BENCH.parent, env=env, check=True, capture_output=True, timeout=120,
    )
    traces = [json.loads(p.read_text()) for p in sorted(tmp_path.glob(f"{name}-*.json"))]
    merged = tracer.merge(traces)
    return {"calls": {k: v[0] for k, v in merged["stats"].items()}, "counters": merged["counters"]}


def test_two_traced_runs_give_identical_counts_at_any_jobs(tmp_path):
    first = _traced_counts(tmp_path, "first", jobs=1)
    assert first == _traced_counts(tmp_path, "second", jobs=1)
    # Pool workers write their own traces; merged, they count the same work.
    assert first == _traced_counts(tmp_path, "pooled", jobs=2)
    assert first["calls"]["runner.run_single_seed"] == 4
    assert first["calls"]["envs.cartpole_reset"] == 4 * 12


def test_derived_seed_lists_are_distinct_bounded_and_reproducible():
    for seed in range(-5, 200):
        for rep in range(3):
            seeds = run.derive_seeds(seed, rep, 8)
            assert len(set(seeds)) == 8
            assert all(1 <= s <= run.SEED_SPACE for s in seeds)
            assert seeds == run.derive_seeds(seed, rep, 8)
    assert run.derive_seeds(1, 0, 4) != run.derive_seeds(2, 0, 4)


def test_reference_clock_scales_by_the_kernel_runs_around_each_measurement(monkeypatch):
    kernel_times = iter([0.2, 0.3, 0.1])
    monkeypatch.setattr(run, "kernel_seconds", lambda: next(kernel_times))
    with run.ReferenceClock(jobs=1) as clock:
        assert clock.scale(1.0) == pytest.approx(run.REFERENCE_S / 0.25)
        assert clock.scale(2.0) == pytest.approx(2.0 * run.REFERENCE_S / 0.2)


def test_reference_clock_stops_its_calibration_processes():
    with run.ReferenceClock(jobs=2) as clock:
        assert clock.scale(1.0) > 0
    assert multiprocessing.active_children() == []


def test_trimmed_mean_drops_a_fifth_at_each_end():
    assert run.trimmed_mean([100.0, 3.0, 2.0, 4.0, 0.0]) == 3.0
    assert run.trimmed_mean([1.0, 2.0]) == 1.5


@pytest.fixture(scope="module")
def compare_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("compare") / "results"
    a = config_from_dict({"episodes": 120, "seeds": [4, 9]})
    b = config_from_dict({"scheduler": {"kind": "exponential"}, "episodes": 120, "seeds": [4, 9]})
    emit_compare(compare(a, b), out)
    figures_from_dir(out, out / "figures")
    return out


ARMS = [checks.Arm("a", "rbed"), checks.Arm("b", "exponential")]


def _check(out: Path) -> checks.OutputCheck:
    return checks.check_outputs(out, ARMS, [4, 9], 120, 0, "")


def test_checks_pass_on_real_outputs(compare_outputs):
    result = _check(compare_outputs)
    assert result.problems == []
    assert result.attempted == 4 and not result.failed_runs
    assert result.episodes == 4 * 120


def _copy(src: Path, tmp_path: Path) -> Path:
    out = tmp_path / "results"
    shutil.copytree(src, out)
    return out


def _replace_line(path: Path, line: int, edit) -> None:
    lines = path.read_text().split("\n")
    lines[line] = ",".join(edit(lines[line].split(",")))
    path.write_text("\n".join(lines))


def test_checks_fail_the_seed_run_with_a_bad_row(tmp_path, compare_outputs):
    out = _copy(compare_outputs, tmp_path)
    _replace_line(out / "a" / "run_9.csv", 5, lambda f: f[:3] + [str(int(f[3]) + 1)])
    assert _check(out).failed_runs == {("a", 9)}


def test_checks_fail_the_whole_arm_with_a_bad_aggregate(tmp_path, compare_outputs):
    out = _copy(compare_outputs, tmp_path)
    _replace_line(out / "b" / "aggregate.csv", 110, lambda f: [f[0], repr(float(f[1]) + 0.5)] + f[2:])
    assert _check(out).failed_runs == {("b", 4), ("b", 9)}


def test_checks_fail_a_wrong_solved_episode(tmp_path, compare_outputs):
    out = _copy(compare_outputs, tmp_path)
    report = json.loads((out / "report.json").read_text())
    report["a"]["solved_at"][1] = 117
    (out / "report.json").write_text(json.dumps(report))
    assert _check(out).failed_runs == {("a", 9)}
