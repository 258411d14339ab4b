"""CSV, JSON, and SVG emission for run and comparison outputs.

Emitters are deterministic: identical inputs produce byte-identical files.
Floats are written in shortest round-trip decimal form; lines end with LF.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from .metrics import SOLVED_THRESHOLD, SOLVED_WINDOW, AggregateCurves, RunResult, aggregate_runs

if TYPE_CHECKING:
    from .runner import ArmReport, ComparisonReport

RUN_HEADER = "episode,reward,epsilon,steps"
AGGREGATE_HEADER = "episode,mean_reward,mean_rolling100,mean_epsilon"

FIGURE_NAMES = ("reward.svg", "rolling.svg", "epsilon.svg")


def _fmt(value: float) -> str:
    return repr(float(value))


def _run_file(name: str) -> bool:
    """Whether the run layout writes ``name``: ``run_<seed>.csv`` or ``aggregate.csv``."""
    seed = name[4:-4] if name.startswith("run_") and name.endswith(".csv") else ""
    return name == "aggregate.csv" or seed.isdecimal()


# What a command may replace in an existing output directory: a test for the
# names of its files, and the subdirectories it may hold, each with the test
# for the names of their files. ``run`` and ``compare`` may replace each
# other's layout and the figures a plot left in it; ``plot`` only figures.
_RESULTS_LAYOUT = (
    lambda name: name == "report.json" or _run_file(name),
    {"a": _run_file, "b": _run_file, "figures": FIGURE_NAMES.__contains__},
)
_FIGURES_LAYOUT = (FIGURE_NAMES.__contains__, {})


def _foreign(path: str, files: Callable[[str], bool], dirs: dict[str, Callable[[str], bool]]) -> Iterator[str]:
    """Each entry of directory ``path``, by name, that is neither a file whose name ``files``
    accepts nor a directory named in ``dirs`` that holds only files its test accepts."""
    with os.scandir(path) as entries:
        for entry in sorted(entries, key=lambda entry: entry.name):
            if entry.name in dirs and entry.is_dir(follow_symlinks=False):
                yield from _foreign(entry.path, dirs[entry.name], {})
            elif not (files(entry.name) and entry.is_file(follow_symlinks=False)):
                yield entry.path


def _remove_tree(path: str) -> None:
    """Delete directory ``path`` and the files and directories under it."""
    for root, dirs, names in os.walk(path, topdown=False):
        for name in names:
            os.remove(os.path.join(root, name))
        for name in dirs:
            os.rmdir(os.path.join(root, name))
    os.rmdir(path)


def _new_dir(name: str) -> str:
    """Make a directory named ``name``, or ``name-1``, ``name-2``, ... if that name is taken,
    say by a killed process that had this pid; returns its path."""
    path, n = name, 0
    while True:
        try:
            os.mkdir(path)
            return path
        except FileExistsError:
            n += 1
            path = f"{name}-{n}"


def check_out_dir(out_dir: str | Path, layout: tuple = _RESULTS_LAYOUT) -> None:
    """Raise FileExistsError if ``layout`` may not write ``out_dir``: a file or an ``out_dir``
    under one, the working directory or a parent of it, or a directory holding an entry the
    layout does not write."""
    out = os.path.realpath(out_dir)  # "" reads as the working directory
    if os.path.isdir(out):
        if os.path.commonpath([out, os.path.realpath(os.curdir)]) == out:
            raise FileExistsError(f"refusing to replace {out}: it is the working directory or holds it")
        for foreign in _foreign(out, *layout):
            raise FileExistsError(f"refusing to replace {out_dir}: {foreign} is not a file this command writes there")
    elif os.path.lexists(out):
        raise FileExistsError(f"{out_dir} exists and is not a directory")
    else:
        ancestor = os.path.dirname(out)
        while not os.path.lexists(ancestor):  # "/" exists, so this ends
            ancestor = os.path.dirname(ancestor)
        if not os.path.isdir(ancestor):
            raise FileExistsError(f"{ancestor} exists and is not a directory")


def _write_files(out_dir: str | Path, files: Iterable[tuple[str, str]], layout: tuple) -> list[Path]:
    """Write ``(relative path, text)`` pairs as the whole of ``out_dir``;
    returns the written paths in order. ``files`` is consumed one pair at a
    time, so a generator holds only one text.

    ``check_out_dir`` judges ``out_dir`` first. The files go to ``new`` in a
    staging directory that this call makes beside ``out_dir``
    (``.<name>.rbed-<pid>``, or that name with ``-1``, ``-2``, ... if an
    earlier process left it). An old tree is renamed to ``old`` in it, then
    ``new`` takes its place by rename, so ``out_dir`` holds the old tree or
    the new one and never a mix. If ``files`` raises, the old tree stays and
    the staging directory is removed."""
    check_out_dir(out_dir, layout)
    out = os.path.realpath(out_dir)
    exists = os.path.lexists(out)
    parent, base = os.path.split(out)
    os.makedirs(parent, exist_ok=True)
    staging = _new_dir(os.path.join(parent, f".{base}.rbed-{os.getpid()}"))
    stage, aside = os.path.join(staging, "new"), os.path.join(staging, "old")
    os.mkdir(stage)
    written = []
    try:
        for name, text in files:
            path = Path(stage, name)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8", newline="\n")
            written.append(Path(out_dir, name))
        if exists:
            os.rename(out, aside)
        try:
            os.rename(stage, out)
        except BaseException:
            if exists:
                os.rename(aside, out)
            raise
    except BaseException:
        _remove_tree(stage)
        if not os.path.lexists(aside):  # else the old tree is left only there
            os.rmdir(staging)
        raise
    _remove_tree(staging)
    return written


def run_csv(run: RunResult) -> str:
    lines = [RUN_HEADER]
    for r in run.records:
        lines.append(f"{r.episode},{_fmt(r.total_reward)},{_fmt(r.epsilon)},{r.steps}")
    return "\n".join(lines) + "\n"


def aggregate_csv(curves: AggregateCurves) -> str:
    lines = [AGGREGATE_HEADER]
    window = curves.window
    for episode, (reward, epsilon) in enumerate(zip(curves.mean_reward, curves.mean_epsilon), 1):
        rolling = _fmt(curves.mean_rolling[episode - window]) if episode >= window else ""
        lines.append(f"{episode},{_fmt(reward)},{rolling},{_fmt(epsilon)}")
    return "\n".join(lines) + "\n"


def _run_files(
    prefix: str, runs: Sequence[RunResult], curves: AggregateCurves
) -> Iterator[tuple[str, str]]:
    """The run layout: one CSV per run, then the aggregate CSV."""
    for run in runs:
        yield f"{prefix}run_{run.seed}.csv", run_csv(run)
    yield f"{prefix}aggregate.csv", aggregate_csv(curves)


def emit_results(results: Sequence[RunResult], out_dir: str | Path) -> list[Path]:
    """Write one CSV per run plus the aggregate CSV; returns written paths."""
    return _write_files(out_dir, _run_files("", results, aggregate_runs(results)), _RESULTS_LAYOUT)


def _arm_to_dict(arm: ArmReport) -> dict:
    from .config import config_to_dict  # loaded already: a report holds configs

    return {
        "label": arm.label,
        "scheduler_kind": arm.config.scheduler.kind,
        "config": config_to_dict(arm.config),
        "solve_budget": arm.solve_budget,
        "solve_count": arm.solve_count,
        "solved_at": [run.solved_at for run in arm.runs],
        "mean_solve_episode": arm.mean_solve_episode,
        "first_episode_reaching_200": list(arm.first_200),
        "mean_first_episode_reaching_200": arm.mean_first_200,
    }


def report_to_dict(report: ComparisonReport) -> dict:
    return {
        "a": _arm_to_dict(report.a),
        "b": _arm_to_dict(report.b),
        "solve_ratio": report.solve_ratio,
    }


def emit_compare(report: ComparisonReport, out_dir: str | Path) -> list[Path]:
    """Write both arms' CSVs under a/ and b/ plus report.json."""

    def files() -> Iterator[tuple[str, str]]:
        for prefix, arm in (("a/", report.a), ("b/", report.b)):
            yield from _run_files(prefix, arm.runs, arm.curves)
        yield "report.json", json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"

    return _write_files(out_dir, files(), _RESULTS_LAYOUT)


def render_figures(labeled_curves: Sequence[tuple[str, AggregateCurves]]) -> dict[str, str]:
    """Build the three benchmark charts as SVG strings keyed by filename."""
    from .svgchart import Series, line_chart

    if not labeled_curves:
        raise ValueError("render_figures needs at least one curve set")

    reward = line_chart(
        title="Mean episode reward",
        x_label="episode",
        y_label="reward",
        series=[Series(label, 1, c.mean_reward) for label, c in labeled_curves],
    )
    rolling_series = [Series(label, c.window, c.mean_rolling) for label, c in labeled_curves if c.mean_rolling]
    window = labeled_curves[0][1].window
    rolling = line_chart(
        title=f"Rolling mean reward (window {window})",
        x_label="episode",
        y_label=f"mean reward, last {window} episodes",
        # Too few episodes for a full window: chart just the reference level.
        series=rolling_series or [Series("(no full window)", 1, [0.0])],
        ref_y=SOLVED_THRESHOLD,
        ref_label=f"solved ({SOLVED_THRESHOLD:g})",
    )
    epsilon = line_chart(
        title="Exploration rate by episode",
        x_label="episode",
        y_label="epsilon",
        series=[Series(label, 1, c.mean_epsilon) for label, c in labeled_curves],
        y_max=1.0,
    )
    return dict(zip(FIGURE_NAMES, (reward, rolling, epsilon)))


def _finite(path: Path, episode: int, text: str) -> float:
    """One numeric cell of an aggregate CSV row; the error names the file."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{path}: episode {episode}: {text!r} is not a finite number")
    return value


def read_aggregate_csv(path: Path) -> AggregateCurves:
    """Parse an aggregate CSV back into curves (for the plot command)."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    lines = [line for line in text.split("\n") if line]
    if not lines or lines[0] != AGGREGATE_HEADER:
        raise ValueError(f"{path} is not an aggregate CSV (bad header)")
    mean_reward: list[float] = []
    mean_rolling: list[float] = []
    mean_epsilon: list[float] = []
    window: Optional[int] = None
    for expected, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if len(fields) != 4:
            raise ValueError(f"{path}: malformed row {line!r}")
        try:
            episode = int(fields[0])
        except ValueError:
            raise ValueError(f"{path}: episode {fields[0]!r} is not an integer") from None
        if episode != expected:
            raise ValueError(f"{path}: episode {episode} where {expected} was expected")
        reward, rolling, epsilon = (_finite(path, episode, text) if text else None for text in fields[1:])
        if reward is None or epsilon is None:
            raise ValueError(f"{path}: episode {episode}: blank mean reward or epsilon")
        mean_reward.append(reward)
        if rolling is not None:
            if window is None:
                window = episode
            mean_rolling.append(rolling)
        elif window is not None:
            raise ValueError(f"{path}: blank rolling mean at episode {episode} after episode {window}")
        mean_epsilon.append(epsilon)
    return AggregateCurves(
        mean_reward=tuple(mean_reward),
        mean_rolling=tuple(mean_rolling),
        mean_epsilon=tuple(mean_epsilon),
        window=window if window is not None else SOLVED_WINDOW,
    )


def figures_from_dir(in_dir: str | Path, out_dir: str | Path) -> list[Path]:
    """Rebuild the three charts from emitted CSVs.

    Accepts either a compare layout (report.json with a/ and b/ subdirs) or a
    single run layout (aggregate.csv at the top level).
    """
    src = Path(in_dir)
    report_path = src / "report.json"
    if report_path.is_file():
        try:
            meta = json.loads(report_path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{report_path}: {exc}") from None
        arms = [meta.get(arm) if isinstance(meta, dict) else None for arm in ("a", "b")]
        if not all(isinstance(arm, dict) and isinstance(arm.get("label"), str) for arm in arms):
            raise ValueError(f"{report_path}: arms a and b must be objects with a string label")
        labeled = [
            (arm["label"], read_aggregate_csv(src / name / "aggregate.csv"))
            for arm, name in zip(arms, ("a", "b"))
        ]
    elif (src / "aggregate.csv").is_file():
        labeled = [(src.resolve().name, read_aggregate_csv(src / "aggregate.csv"))]
    else:
        raise ValueError(f"{src} contains neither report.json nor aggregate.csv")
    return _write_files(out_dir, render_figures(labeled).items(), _FIGURES_LAYOUT)
