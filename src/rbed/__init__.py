"""Reward-based epsilon decay, benchmarked against exponential decay.

The package bundles a deterministic PRNG, a from-scratch cart-pole
environment, tabular Q-learning, epsilon schedules, and a harness that
runs seeded experiments and writes CSV/JSON/SVG artifacts. The names below
are the library entry points; everything else lives in the submodules.

Each entry point loads its submodule on first use (``rbed.load_config``
imports ``rbed.config``), so ``import rbed`` alone loads no layer and a
program pays only for the layers it touches.
"""

import importlib

__version__ = "0.1.0"

# each public name and the submodule that defines it
_EXPORTS = {
    "ConfigError": "config",
    "Rng": "rng",
    "RunResult": "metrics",
    "aggregate_runs": "metrics",
    "compare": "runner",
    "config_from_dict": "config",
    "emit_compare": "emit",
    "figures_from_dir": "emit",
    "load_config": "config",
    "rolling_mean": "metrics",
    "run_experiment": "runner",
    "solved_at": "metrics",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
