"""Reward-based epsilon decay, benchmarked against exponential decay.

The package bundles a deterministic PRNG, a from-scratch cart-pole
environment, tabular Q-learning, epsilon schedules, and a harness that
runs seeded experiments and writes CSV/JSON/SVG artifacts. The names below
are the library entry points; everything else lives in the submodules.
"""

from .config import ConfigError, config_from_dict, load_config
from .emit import emit_compare, figures_from_dir
from .metrics import RunResult, aggregate_runs, rolling_mean, solved_at
from .rng import Rng
from .runner import compare, run_experiment

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Rng",
    "RunResult",
    "aggregate_runs",
    "compare",
    "config_from_dict",
    "emit_compare",
    "figures_from_dir",
    "load_config",
    "rolling_mean",
    "run_experiment",
    "solved_at",
]
