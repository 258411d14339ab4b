"""Benchmark rbed through its CLI, the way a researcher runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every invocation first reruns a fixed
reference set (the shipped configs on seeds 1..3) and compares the SHA-256
of every output file with ``reference_digests.json``. It then repeats the
workload, each repetition on a fresh seed list derived from ``--seed``,
until ``--seconds`` have passed, and checks every output.

With ``--trace 0`` it reports the end-to-end metrics over the repetitions:
times as trimmed means, memory as the median. Times are in reference
seconds: every measurement is scaled by how fast the machine ran
``calibrate.py``'s fixed kernel just before and just after it, which takes
out the drift of a shared host's speed. With ``--trace 1`` each repetition
runs the workload untraced, then again with every rbed layer wrapped by
``tracer.py``; the outputs of the two must be byte-identical, and the
traced call counts must match what the outputs imply. It then reports the
per-layer metrics.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (seed-runs, one per seed and schedule arm) and
``metrics`` (those ``BENCHMARK.json`` declares for the mode). Metric names,
units and the reasons for each workload are in ``README.md`` here.

``--write-reference`` regenerates ``reference_digests.json`` from the
current program instead; use it only when rbed's outputs change on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from calibrate import REFERENCE_S, kernel_seconds
from checks import Arm, OutputCheck, check_outputs, tree_differences, tree_digests
from tracer import merge

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
REFERENCE_DIGESTS = HERE / "reference_digests.json"
RBED_CONFIG = "configs/rbed.json"
EXPONENTIAL_CONFIG = "configs/exponential.json"
RANDOM_POLICY_CONFIG = "perfbench/workloads/random_policy.json"

SEED_SPACE = 1_000_000  # derived experiment seeds lie in [1, SEED_SPACE]
MIN_REPS = 3  # repetitions per timed run, however short --seconds is
SETUP_SAMPLES_PER_REP = 1
RSS_INTERVAL_S = 0.05
COMMAND_TIMEOUT_S = 150.0

CLI_CODE = "import sys\nfrom rbed.cli import main\nsys.exit(main(sys.argv[1:]))"
SETUP_CODE = (
    "import sys\nimport rbed.cli\nfrom rbed.config import load_config, validate_config\n"
    "for path in sys.argv[1:]:\n    validate_config(load_config(path))"
)
PREFLIGHT_CODE = (
    "import json, multiprocessing, rbed\n"
    "print(json.dumps({'rbed_version': rbed.__version__, 'rbed_file': rbed.__file__,"
    " 'start_method': multiprocessing.get_start_method()}))"
)


@dataclass(frozen=True)
class Workload:
    command: str  # "compare" or "run"
    configs: tuple[str, ...]
    jobs: int
    seeds_per_rep: int


WORKLOADS = {
    "compare_serial": Workload("compare", (RBED_CONFIG, EXPONENTIAL_CONFIG), jobs=1, seeds_per_rep=2),
    "compare_parallel": Workload("compare", (RBED_CONFIG, EXPONENTIAL_CONFIG), jobs=2, seeds_per_rep=2),
    "run_random_policy": Workload("run", (RANDOM_POLICY_CONFIG,), jobs=1, seeds_per_rep=2),
}


def derive_seeds(seed: int, rep: int, count: int) -> list[int]:
    """Distinct experiment seeds in [1, SEED_SPACE] for one repetition.

    Both compare workloads draw the same lists for the same --seed, so their
    outputs can be compared byte for byte.
    """
    return random.Random(f"perfbench/{seed}/{rep}").sample(range(1, SEED_SPACE + 1), count)


# -- running rbed ------------------------------------------------------------


def _python_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _tree_rss_kb(pid: int) -> int:
    """Resident memory of a process and all its descendants, from /proc."""
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/status", encoding="ascii") as status:
                total += next((int(line.split()[1]) for line in status if line.startswith("VmRSS:")), 0)
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children", encoding="ascii") as children:
                    todo += [int(child) for child in children.read().split()]
        except (OSError, ValueError):
            continue
    return total


@dataclass(frozen=True)
class Proc:
    wall_s: float
    peak_rss_kb: int
    exit_code: int
    output: str


def run_python(argv: list[str], log: Path) -> Proc:
    """Run ``python argv`` from the checkout root; time it and sample the
    summed resident memory of its process tree (pool workers included)."""
    peak = 0
    done = threading.Event()
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=_python_env(), stdout=out, stderr=out)

        def sample() -> None:
            nonlocal peak
            while not done.wait(RSS_INTERVAL_S):
                peak = max(peak, _tree_rss_kb(proc.pid))
                if time.perf_counter() - start > COMMAND_TIMEOUT_S:
                    proc.kill()

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            wall = time.perf_counter() - start
            done.set()
            sampler.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss covers the largest single process, even one too brief to sample.
    peak = max(peak, usage.ru_maxrss)
    return Proc(wall, peak, proc.returncode, log.read_text(encoding="utf-8", errors="replace"))


@dataclass(frozen=True)
class Rep:
    """One workload run: the CLI command, then ``rbed plot`` on its output."""

    seeds: list[int]
    out: Path
    command: Proc
    plot: Proc

    @property
    def wall_s(self) -> float:
        return self.command.wall_s + self.plot.wall_s

    @property
    def peak_rss_kb(self) -> int:
        return max(self.command.peak_rss_kb, self.plot.peak_rss_kb)


def run_rep(workload: Workload, seeds: list[int], tag: str, jobs: int, trace_prefix: Path | None = None) -> Rep:
    """Run the workload on ``seeds`` into ``WORK/<tag>/results``. The output
    directory's own name is the same for every rep because ``rbed plot``
    labels a single-run chart with it."""
    out = WORK / tag / "results"
    out.parent.mkdir(parents=True)
    if workload.command == "compare":
        args = ["compare", "--config-a", workload.configs[0], "--config-b", workload.configs[1]]
    else:
        args = ["run", "--config", workload.configs[0]]
    args += ["--seeds", ",".join(map(str, seeds)), "--jobs", str(jobs), "--out", str(out)]
    plot_args = ["plot", "--in", str(out), "--out", str(out / "figures")]
    if trace_prefix is None:
        launch = ["-c", CLI_CODE]
        plot_launch = launch
    else:
        launch = [str(HERE / "traced_cli.py"), f"{trace_prefix}-command"]
        plot_launch = [str(HERE / "traced_cli.py"), f"{trace_prefix}-plot"]
    command = run_python(launch + args, out.parent / "command.log")
    plot = run_python(plot_launch + plot_args, out.parent / "plot.log")
    return Rep(seeds, out, command, plot)


def _arms(workload: Workload) -> list[Arm]:
    configs = [json.loads((ROOT / path).read_text(encoding="utf-8")) for path in workload.configs]
    subdirs = ("a", "b") if workload.command == "compare" else (".",)
    return [
        Arm(subdir, config["scheduler"]["kind"], config["scheduler"].get("epsilon"))
        for subdir, config in zip(subdirs, configs)
    ]


def check_rep(workload: Workload, rep: Rep) -> OutputCheck:
    config = json.loads((ROOT / workload.configs[0]).read_text(encoding="utf-8"))
    exit_code = rep.command.exit_code or rep.plot.exit_code
    return check_outputs(rep.out, _arms(workload), rep.seeds, config["episodes"], exit_code, rep.command.output)


def differing_runs(a: Rep, b: Rep, workload: Workload) -> tuple[set[tuple[str, int]], list[str]]:
    """Seed-runs whose outputs differ between two reps of the same seeds; a
    differing aggregate, report or figure implicates every seed-run."""
    differing = tree_differences(a.out, b.out)
    every = {(arm.subdir, seed) for arm in _arms(workload) for seed in a.seeds}
    runs = set()
    for name in differing:
        subdir, _, file = name.rpartition("/")
        if file.startswith("run_") and file.endswith(".csv"):
            runs.add((subdir or ".", int(file[4:-4])))
        else:
            runs |= every
    return runs, differing


# -- the reference set and the environment -----------------------------------


REFERENCE_SEEDS = [1, 2, 3]


def reference_problems() -> list[str]:
    """The reference set runs at --jobs 2 against digests written at
    --jobs 1, so it also checks the --jobs contract on every invocation."""
    rep = run_rep(WORKLOADS["compare_parallel"], REFERENCE_SEEDS, "reference", jobs=2)
    problems = [f"reference: {p}" for p in check_rep(WORKLOADS["compare_parallel"], rep).problems]
    expected = json.loads(REFERENCE_DIGESTS.read_text(encoding="utf-8"))
    actual = tree_digests(rep.out)
    for name in sorted(expected.keys() | actual.keys()):
        if expected.get(name) != actual.get(name):
            problems.append(f"reference: {name} does not match its committed digest")
    return problems


def environment(preflight: dict) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rbed").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "rbed_version": preflight["rbed_version"],
        "git_commit": commit or "unknown (not a git checkout)",
        "src_sha256": sources.hexdigest(),
        "start_method": preflight["start_method"],
        "machine": platform.machine(),
    }


def preflight() -> dict:
    """Fail unless rbed is importable from this checkout's src/."""
    if not (ROOT / "src" / "rbed" / "cli.py").is_file():
        sys.exit(f"error: run from the root of an rbed checkout; {ROOT / 'src/rbed'} is missing")
    proc = subprocess.run(
        [sys.executable, "-c", PREFLIGHT_CODE], cwd=ROOT, env=_python_env(), capture_output=True, text=True
    )
    if proc.returncode != 0:
        sys.exit(f"error: cannot import rbed from {ROOT / 'src'}:\n{proc.stderr}")
    info = json.loads(proc.stdout)
    if not Path(info["rbed_file"]).resolve().is_relative_to((ROOT / "src").resolve()):
        sys.exit(f"error: rbed imports from {info['rbed_file']}, not from this checkout")
    return info


# -- timed runs (--trace 0) ----------------------------------------------------


class Tally:
    """Seed-runs attempted and failed, and every problem seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, check: OutputCheck, failed: frozenset | set = frozenset(), problems: tuple | list = ()) -> None:
        """Count one rep; ``failed`` and ``problems`` add what comparing it
        with another rep found."""
        self.attempted += check.attempted
        self.failed += len(check.failed_runs | failed)
        self.problems += [*check.problems, *problems]


class ReferenceClock:
    """Converts wall times of a drifting machine into reference seconds.

    Call ``scale`` right after each measurement. The calibration kernel runs
    once before the first measurement and once after each, so every
    measurement is bracketed by two kernel runs (shared with its
    neighbours), and it is scaled by ``REFERENCE_S`` over their mean. A
    workload that keeps ``jobs`` cores busy is calibrated on as many: the
    kernel then runs in ``jobs`` processes at once, and their mean counts.
    A serial workload is calibrated on one core, because two kernels at once
    also slow each other, which a serial workload does not feel. Use it as a
    context manager, which stops those processes.
    """

    def __init__(self, jobs: int) -> None:
        self.pool = multiprocessing.Pool(jobs) if jobs > 1 else None
        self.jobs = jobs
        self.kernels = [self._kernel()]

    def _kernel(self) -> float:
        if self.pool is None:
            return kernel_seconds()
        return statistics.fmean(self.pool.starmap(kernel_seconds, [()] * self.jobs, chunksize=1))

    def scale(self, wall_s: float) -> float:
        self.kernels.append(self._kernel())
        return wall_s * REFERENCE_S / statistics.fmean(self.kernels[-2:])

    def __enter__(self) -> ReferenceClock:
        return self

    def __exit__(self, *exc) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool.join()


def trimmed_mean(values: list[float]) -> float:
    """Mean of the middle values, a fifth cut off at each end. As robust as
    the median to a rep that hit a slow stretch, and steadier from run to
    run, because it averages more of the reps."""
    values = sorted(values)
    cut = len(values) // 5
    return statistics.fmean(values[cut:len(values) - cut])


def measure_setup(workload: Workload) -> float:
    """Time from a fresh interpreter to rbed imported and the workload's
    configs loaded and validated."""
    proc = run_python(["-c", SETUP_CODE, *workload.configs], WORK / "setup.log")
    if proc.exit_code != 0:
        raise RuntimeError(f"set-up failed:\n{proc.output}")
    return proc.wall_s


def timed_run(name: str, workload: Workload, seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    reps: list[Rep] = []
    walls: list[float] = []  # reference seconds
    steps: list[int] = []
    setups: list[float] = []  # reference seconds
    start = time.perf_counter()
    with ReferenceClock(workload.jobs) as clock:
        while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
            seeds = derive_seeds(seed, len(reps), workload.seeds_per_rep)
            reps.append(run_rep(workload, seeds, f"rep{len(reps)}", workload.jobs))
            walls.append(clock.scale(reps[-1].wall_s))
            check = check_rep(workload, reps[-1])
            tally.add(check)
            steps.append(check.steps)
            # Set-up samples alternate with the reps so both see the same
            # stretches of a noisy machine.
            setups += [clock.scale(measure_setup(workload)) for _ in range(SETUP_SAMPLES_PER_REP)]
    print(f"{name}: {len(reps)} reps x {workload.seeds_per_rep} seeds and {len(setups)} set-ups; times are trimmed means")
    print(
        f"{name}: raw wall_s median {statistics.median(rep.wall_s for rep in reps):.4g} s;"
        f" calibration kernel median {statistics.median(clock.kernels):.4g} s"
        f" (reference {REFERENCE_S} s) over {len(clock.kernels)} runs"
    )
    return {
        "wall_s": trimmed_mean(walls),
        "env_steps_per_s": trimmed_mean([n / wall for wall, n in zip(walls, steps)]),
        "setup_s": trimmed_mean(setups),
        "peak_rss_mb": statistics.median(rep.peak_rss_kb for rep in reps) / 1024,
    }


# -- traced runs (--trace 1) -----------------------------------------------------


def load_trace(prefix: Path) -> dict:
    """Merge the trace files of every process one traced rep started."""
    paths = sorted(prefix.parent.glob(f"{prefix.name}-*.json"))
    merged = merge([json.loads(path.read_text(encoding="utf-8")) for path in paths])
    command = json.loads(Path(f"{prefix}-command-main.json").read_text(encoding="utf-8"))
    merged["cli_import_ns"] = command["cli_import_ns"]
    return merged


def count_problems(trace: dict, check: OutputCheck) -> list[str]:
    """Traced call counts against what the untraced outputs imply. A function
    with no calls is off the call path (for example inlined) and is skipped."""
    stats = trace["stats"]
    expected = {
        "envs.cartpole_step": check.steps,
        "agent.select_action": check.steps,
        "agent.q_update": check.steps,
        "envs.cartpole_reset": check.episodes,
        "schedules.update": check.episodes,
        "runner.run_single_seed": check.attempted,
    }
    return [
        f"trace: {name} was called {stats[name][0]} times, outputs imply {count}"
        for name, count in expected.items()
        if stats[name][0] not in (0, count)
    ]


def layer_metrics(trace: dict, check: OutputCheck, rep: Rep, traced: Rep, pool_idle: float) -> dict[str, float]:
    stats, counters, spans = trace["stats"], trace["counters"], trace["spans"]

    def calls(name: str) -> int:
        return stats[name][0]

    def mean_ns(name: str, column: int = 1) -> float:
        return stats[name][column] / stats[name][0] if stats[name][0] else 0.0

    def total_s(name: str, column: int = 1) -> float:
        return stats[name][column] / 1e9

    seed_runs = sorted((end - start) / 1e9 for name, start, end, _ in spans if name == "runner.run_single_seed")
    emit_write_ns = sum(
        end - start for name, start, end, parent in spans
        if name.startswith("emit.emit_") and not (parent or "").startswith("emit.")
    )
    decisions = counters["explore"] + counters["exploit"]
    return {
        "rng.draws": calls("rng.next_u64"),
        "rng.draws_per_step": calls("rng.next_u64") / check.steps,
        "rng.next_u64.ns": mean_ns("rng.next_u64"),
        "envs.cartpole_step.calls": calls("envs.cartpole_step"),
        "envs.cartpole_step.ns": mean_ns("envs.cartpole_step"),
        "envs.cartpole_reset.calls": calls("envs.cartpole_reset"),
        "envs.tabular_step.self_ns": mean_ns("envs.tabular_step", 2),
        "envs.cap_ending_ratio": check.cap_endings / check.episodes,
        "agent.discretizer_index.ns": mean_ns("agent.discretizer_index"),
        "agent.select_action.self_ns": mean_ns("agent.select_action", 2),
        "agent.explore_ratio": counters["explore"] / decisions if decisions else 0.0,
        "agent.tie_ratio": counters["exploit_ties"] / counters["exploit"] if counters["exploit"] else 0.0,
        "agent.q_update.ns": mean_ns("agent.q_update"),
        "agent.run_episode.self_s": total_s("agent.run_episode", 2),
        "agent.steps_per_episode": check.steps / check.episodes,
        "schedules.update.calls": calls("schedules.update"),
        "schedules.update.ns": mean_ns("schedules.update"),
        "schedules.decay_ratio": (
            counters["rbed_decays"] / counters["rbed_updates"] if counters["rbed_updates"] else 0.0
        ),
        "runner.run_single_seed.s_p50": statistics.median(seed_runs),
        "runner.run_single_seed.s_max": seed_runs[-1],
        "runner.pool_idle_ratio": pool_idle,
        "runner.result_pickle_bytes": counters["result_pickle_bytes"],
        "metrics.aggregate_runs.s": total_s("metrics.aggregate_runs"),
        "metrics.solved_at.s": total_s("metrics.solved_at"),
        "emit.write.s": emit_write_ns / 1e9,
        "emit.bytes_written": sum(
            path.stat().st_size for path in rep.out.rglob("*")
            if path.is_file() and "figures" not in path.relative_to(rep.out).parts
        ),
        "emit.figures_from_dir.s": total_s("emit.figures_from_dir"),
        "svgchart.line_chart.s": total_s("svgchart.line_chart"),
        "config.load_config.s": total_s("config.load_config"),
        "cli.import.s": trace["cli_import_ns"] / 1e9,
        "trace.overhead_ratio": traced.wall_s / rep.wall_s,
    }


def traced_run(name: str, workload: Workload, seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    per_rep: list[dict[str, float]] = []
    start = time.perf_counter()
    while not per_rep or time.perf_counter() - start < seconds:
        i = len(per_rep)
        seeds = derive_seeds(seed, i, workload.seeds_per_rep)
        rep = run_rep(workload, seeds, f"rep{i}", workload.jobs)
        check = check_rep(workload, rep)
        prefix = WORK / f"trace{i}"
        traced = run_rep(workload, seeds, f"rep{i}-traced", workload.jobs, trace_prefix=prefix)
        failed, differing = differing_runs(rep, traced, workload)
        problems = [f"{path} differs when traced" for path in differing]
        traced_check = check_rep(workload, traced)
        failed |= traced_check.failed_runs
        problems += traced_check.problems
        pool_idle = 0.0
        if workload.jobs > 1:
            serial = run_rep(workload, seeds, f"rep{i}-jobs1", jobs=1)
            more, differing = differing_runs(rep, serial, workload)
            failed |= more
            problems += [f"{path} differs between --jobs {workload.jobs} and --jobs 1" for path in differing]
            # Share of the pool's worker time left idle, against the same
            # seeds run serially.
            pool_idle = max(0.0, 1.0 - serial.command.wall_s / (workload.jobs * rep.command.wall_s))
        trace = load_trace(prefix)
        problems += count_problems(trace, check)
        tally.add(check, failed, problems)
        per_rep.append(layer_metrics(trace, check, rep, traced, pool_idle))
    print(f"{name}: {len(per_rep)} untraced/traced rep pairs x {workload.seeds_per_rep} seeds, metrics are medians")
    return {key: statistics.median(values[key] for values in per_rep) for key in per_rep[0]}


# -- main ----------------------------------------------------------------------------


def write_reference() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    rep = run_rep(WORKLOADS["compare_serial"], REFERENCE_SEEDS, "reference", jobs=1)
    check = check_rep(WORKLOADS["compare_serial"], rep)
    if check.problems:
        sys.exit("error: reference outputs fail their checks:\n" + "\n".join(check.problems))
    REFERENCE_DIGESTS.write_text(json.dumps(tree_digests(rep.out), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_DIGESTS.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    info = preflight()
    if args.write_reference:
        write_reference()
        return 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    tally = Tally()
    tally.problems += reference_problems()
    workload = WORKLOADS[args.workload]
    measure = traced_run if args.trace else timed_run
    values = measure(args.workload, workload, args.seed, args.seconds, tally)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    env = environment(info)
    for problem in tally.problems:
        print(f"problem: {problem}")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} error_rate = {tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted} seed-runs failed)")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not tally.problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    (WORK / "result.json").write_text(
        json.dumps({**result, "env": env, "workload": args.workload, "seed": args.seed, "problems": tally.problems}, indent=2),
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
