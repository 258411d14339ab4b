"""Command-line interface: run experiments, compare schedules, plot results.

A command imports the layers it runs, inside the command, and this module
imports none at its top. Each process compiles and executes every module it
imports, so ``rbed plot`` loads only the emitter, the metrics and the chart
writer, and ``run`` and ``compare`` load no chart writer. No command loads
``dataclasses`` (nor the ``inspect`` behind it): rbed's classes with fields
are ``NamedTuple``s or plain classes.

Before any seed-run, ``run`` and ``compare`` parse ``--seeds`` (once, so the
arms share one seed tuple), load every config and apply ``--seeds`` and
``--episodes`` to it, print any ladder warnings in arm order, then load the
emitter for ``check_out_dir`` to judge ``--out``. The first of these that
fails ends the command, so a bad ``--seeds`` is reported before a bad config.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from .config import ExperimentConfig
    from .runner import ArmReport


def _warn_about_ladder(name: str, config: ExperimentConfig) -> None:
    """One stderr line if ``name``'s RBED ladder stops above its floor, or
    else reaches it while the threshold is below ``reward_target``."""
    from .config import MAX_RETURN, ladder_end

    s, end = config.scheduler, ladder_end(config)
    if end is None:
        return
    epsilon, threshold = end
    if epsilon > s.epsilon_min:
        print(
            f"warning: {name}: epsilon stalls at {epsilon:.4g}, above epsilon_min {s.epsilon_min:g}:"
            f" the RBED threshold ladder passes {MAX_RETURN[config.environment]:g}, the largest"
            f" episode return on {config.environment}",
            file=sys.stderr,
        )
    elif threshold < s.reward_target:
        print(
            f"warning: {name}: epsilon reaches epsilon_min {s.epsilon_min:g} when the RBED"
            f" threshold is {threshold!r}, below reward_target {s.reward_target:g}:"
            " reward_target counts decays, not reward",
            file=sys.stderr,
        )


def _configs(args: argparse.Namespace, arms: Sequence[tuple[Optional[str], str]]) -> list[ExperimentConfig]:
    """The checked configs of ``run`` or ``compare``, one per ``(config path
    or None for the defaults, warning name)`` arm, in the order the module
    docstring gives; ``--out`` is judged last."""
    from .config import config_from_dict, load_config, parse_seed_spec

    overrides = {}
    if args.seeds is not None:
        overrides["seeds"] = parse_seed_spec(args.seeds)
    if args.episodes is not None:
        overrides["episodes"] = args.episodes
    configs = [config_from_dict({}) if path is None else load_config(path) for path, _ in arms]
    if overrides:
        configs = [config._replace(**overrides) for config in configs]
    for (_, name), config in zip(arms, configs):
        _warn_about_ladder(name, config)
    from .emit import check_out_dir

    check_out_dir(args.out)
    return configs


def _summarize_arm(arm: ArmReport) -> str:
    mean_solve = f"{arm.mean_solve_episode:.1f}" if arm.mean_solve_episode is not None else "-"
    mean_200 = f"{arm.mean_first_200:.1f}" if arm.mean_first_200 is not None else "-"
    return (
        f"{arm.label}: solved {arm.solve_count}/{len(arm.runs)} within {arm.solve_budget} episodes"
        f" (mean solve episode {mean_solve}, mean first-200 episode {mean_200})"
    )


def cmd_run(args: argparse.Namespace) -> int:
    from .metrics import solve_count
    from .runner import run_experiment, usable_cpus

    (config,) = _configs(args, [(args.config, args.config or "the default config")])
    from .emit import emit_results

    results = run_experiment(config, jobs=args.jobs or usable_cpus())
    written = emit_results(results, args.out)
    print(f"ran {len(results)} seed(s) x {config.episodes} episodes ({config.scheduler.kind})")
    print(f"solved {solve_count(results)}/{len(results)}; wrote {len(written)} file(s) to {args.out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .runner import compare, usable_cpus

    config_a, config_b = _configs(
        args, [(args.config_a, f"arm a ({args.config_a})"), (args.config_b, f"arm b ({args.config_b})")]
    )
    from .emit import emit_compare

    report = compare(config_a, config_b, jobs=args.jobs or usable_cpus())
    emit_compare(report, args.out)
    print(_summarize_arm(report.a))
    print(_summarize_arm(report.b))
    ratio = f"{report.solve_ratio:.3f}" if report.solve_ratio is not None else "n/a (zero solves in b)"
    print(f"solve-count ratio a/b: {ratio}")
    print(f"wrote CSVs and report.json to {args.out}")
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    from .emit import figures_from_dir

    written = figures_from_dir(args.in_dir, args.out)
    for path in written:
        print(f"wrote {path}")
    return 0


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbed",
        description="Benchmark reward-based epsilon decay against exponential decay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_protocol_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seeds", help="override seeds, e.g. '1..20' or '3,5,9'")
        p.add_argument("--episodes", type=int, help="override episode count")
        p.add_argument(
            "--jobs",
            type=_at_least_one,
            help="worker processes across seeds (default: every usable CPU)",
        )

    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("--config", help="JSON config file (defaults apply if omitted)")
    run_p.add_argument("--out", required=True, help="output directory for CSVs")
    add_protocol_flags(run_p)
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="run two configs over the same protocol")
    cmp_p.add_argument("--config-a", required=True, help="JSON config for arm a")
    cmp_p.add_argument("--config-b", required=True, help="JSON config for arm b")
    cmp_p.add_argument("--out", required=True, help="output directory")
    add_protocol_flags(cmp_p)
    cmp_p.set_defaults(func=cmd_compare)

    plot_p = sub.add_parser("plot", help="render SVG charts from emitted CSVs")
    plot_p.add_argument("--in", dest="in_dir", required=True, help="directory with CSVs")
    plot_p.add_argument("--out", required=True, help="output directory for SVGs")
    plot_p.set_defaults(func=cmd_plot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # only a command that loaded rbed.config can raise a ConfigError
        config = sys.modules.get(f"{__package__}.config")
        return 2 if config is not None and isinstance(exc, config.ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
