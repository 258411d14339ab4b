"""Experiment configuration: a single JSON document, every field optional.

``{}`` is a valid config and resolves to the default benchmark setup:
reward-based decay on cart-pole, 500 episodes, seeds 1..20.

Each field is declared once, below, with its bounds in the field metadata.
Three walks over ``dataclasses.fields`` parse, validate and serialise every
config class, so a field added here needs no other code. The walks read
each ``Field.type``, so this module must not postpone the evaluation of
annotations (no ``from __future__ import annotations``).

The check runs once, when an ``ExperimentConfig`` is built: parsed,
constructed directly or made by ``dataclasses.replace``. A nested scheduler
or agent config is checked as a field of it, so an error names its path
(``scheduler.decay_rate``). Code that takes a built config never checks it
again.
"""

import json
import math
import operator
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, ClassVar, Optional, Union, get_args, get_origin

from .envs import MAX_STEPS, THETA_THRESHOLD
from .schedules import ConstantSchedule, ExponentialSchedule, RbedSchedule


class ConfigError(ValueError):
    """Invalid experiment configuration."""


MAX_SEEDS = 1_000_000  # largest seed range parse_seed_spec builds
MAX_STATES = 1_000_000  # largest Q-table, in states, a config may ask for
MAX_CLIP = 1e6  # keeps the discretizer's 2 * clip * buckets finite

# Position and cart-velocity carry a single bucket each: for the benchmark
# the angle and angular velocity dominate, and folding the other two
# dimensions away makes the table small enough to learn within the episode
# budget. Velocity ranges are unbounded in the physics, so those clips are
# tuned choices rather than physical constants.
DEFAULT_BUCKETS = (1, 1, 7, 9)
DEFAULT_CLIPS = (2.4, 3.0, THETA_THRESHOLD, 1.7)

# The largest episode return of each environment: a cart-pole step pays 1.0
# up to the step cap, and a chain episode pays 1.0 once, at the goal.
MAX_RETURN = {"cartpole": float(MAX_STEPS), "chain": 1.0}


def parse_seed_spec(spec: str) -> tuple[int, ...]:
    """Parse '1..20' (inclusive range), '3,5,9', or a single integer."""
    spec = spec.strip()
    if ".." in spec:
        lo_text, _, hi_text = spec.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError as exc:
            raise ConfigError(f"bad seed range {spec!r}") from exc
        if hi < lo:
            raise ConfigError(f"empty seed range {spec!r}")
        if hi - lo >= MAX_SEEDS:
            raise ConfigError(f"seeds: range {spec!r} holds more than {MAX_SEEDS} seeds")
        return tuple(range(lo, hi + 1))
    try:
        return tuple(int(part) for part in spec.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad seed list {spec!r}") from exc


def _field(default: Any, **bounds: Any) -> Any:
    """A config field and its bounds.

    Bounds are ``ge``/``gt``/``le``/``lt`` (a number, or the name of a
    sibling field), ``choices``, and ``from_str`` (a parser for a JSON
    string standing in for a list). On a tuple field they apply to each item,
    and ``max_product`` bounds the product of the items.
    """
    return field(default=default, metadata=bounds)


@dataclass(frozen=True)
class RbedConfig:
    kind: ClassVar[str] = "rbed"
    epsilon_start: float = _field(1.0, ge=0.0, le=1.0)
    epsilon_min: float = _field(0.0, ge=0.0, le="epsilon_start")
    # counts the decays from epsilon_start to epsilon_min, not reward: see ladder_end
    reward_target: float = _field(195.0, gt=0.0)
    reward_increment: float = _field(1.0, gt=0.0)
    reward_threshold_init: float = 0.0

    def schedule(self) -> RbedSchedule:
        return RbedSchedule.for_target(
            reward_target=self.reward_target,
            epsilon_start=self.epsilon_start,
            epsilon_min=self.epsilon_min,
            reward_increment=self.reward_increment,
            reward_threshold=self.reward_threshold_init,
        )


@dataclass(frozen=True)
class ExponentialConfig:
    kind: ClassVar[str] = "exponential"
    epsilon_start: float = _field(1.0, ge=0.0, le=1.0)
    # The baseline's constants are artifact conventions, not established
    # reference values; they are exposed here precisely so they can be varied.
    decay_rate: float = _field(0.995, gt=0.0, lt=1.0)
    epsilon_min: float = _field(0.01, ge=0.0, le="epsilon_start")

    def schedule(self) -> ExponentialSchedule:
        return ExponentialSchedule(
            epsilon=self.epsilon_start, decay_rate=self.decay_rate, epsilon_min=self.epsilon_min
        )


@dataclass(frozen=True)
class ConstantConfig:
    kind: ClassVar[str] = "constant"
    epsilon: float = _field(1.0, ge=0.0, le=1.0)

    def schedule(self) -> ConstantSchedule:
        return ConstantSchedule(epsilon=self.epsilon)


SchedulerConfig = Union[RbedConfig, ExponentialConfig, ConstantConfig]

_SCHEDULER_KINDS = {cls.kind: cls for cls in get_args(SchedulerConfig)}


@dataclass(frozen=True)
class AgentConfig:
    alpha: float = _field(0.26, gt=0.0, le=1.0)
    gamma: float = _field(1.0, gt=0.0, le=1.0)
    buckets: tuple[int, int, int, int] = _field(DEFAULT_BUCKETS, ge=1, max_product=MAX_STATES)
    clips: tuple[float, float, float, float] = _field(DEFAULT_CLIPS, gt=0.0, le=MAX_CLIP)


@dataclass(frozen=True)
class ExperimentConfig:
    scheduler: SchedulerConfig = field(default_factory=RbedConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    episodes: int = _field(500, ge=1)
    # A variable-length tuple is a nonempty list of distinct items.
    seeds: tuple[int, ...] = _field(tuple(range(1, 21)), ge=0, lt=2**64, from_str=parse_seed_spec)
    environment: str = _field("cartpole", choices=("cartpole", "chain"))
    chain_states: int = _field(5, ge=2, le=MAX_STATES)

    def __post_init__(self) -> None:
        validate_config(self)


_COMPARISONS = {
    "ge": (operator.ge, ">="),
    "gt": (operator.gt, ">"),
    "le": (operator.le, "<="),
    "lt": (operator.lt, "<"),
}


def _join(where: str, name: str) -> str:
    return f"{where}.{name}" if where else name


_ITEM_TYPES = {
    str: (lambda v: isinstance(v, str), "a string"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v),
        "a finite number",
    ),
}


def _check_items(
    item_type: type, values: tuple, bounds: dict, owner: Any, name: str, indexed: bool
) -> None:
    """Check each value against the item type and bounds, looked up once per
    field; an error names ``name[i]`` when ``indexed``, else ``name``."""
    test, wanted = _ITEM_TYPES[item_type]
    choices = bounds.get("choices")
    comparisons = []
    for key, (compare, symbol) in _COMPARISONS.items():
        if key not in bounds:
            continue
        limit = label = bounds[key]
        if isinstance(limit, str):  # a sibling field: epsilon_min <= epsilon_start
            limit = getattr(owner, limit)
            label = f"{label} ({limit!r})"
        comparisons.append((compare, limit, f"must be {symbol} {label}"))
    for i, value in enumerate(values):
        if not test(value):
            problem = f"must be {wanted}"
        elif choices is not None and value not in choices:
            problem = f"must be one of {list(choices)}"
        else:
            for compare, limit, problem in comparisons:
                if not compare(value, limit):
                    break
            else:
                continue
        where = f"{name}[{i}]" if indexed else name
        raise ConfigError(f"{where} {problem}, got {value!r}")


def _check_fields(config: Any, where: str) -> None:
    for f in fields(config):
        value, name = getattr(config, f.name), _join(where, f.name)
        if get_origin(f.type) is Union or is_dataclass(f.type):
            classes = get_args(f.type) or (f.type,)
            if not isinstance(value, classes):
                wanted = " or ".join(c.__name__ for c in classes)
                raise ConfigError(f"{name} must be {wanted}, got {value!r}")
            _check_fields(value, name)
        elif get_origin(f.type) is tuple:
            items = get_args(f.type)
            if not isinstance(value, tuple):
                raise ConfigError(f"{name} must be a tuple, got {value!r}")
            _check_items(items[0], value, f.metadata, config, name, indexed=True)
            if items[-1] is not Ellipsis:
                if len(value) != len(items):
                    raise ConfigError(f"{name} must have {len(items)} items, got {value!r}")
            elif not value or len(set(value)) != len(value):
                raise ConfigError(f"{name} must be nonempty with distinct items, got {value!r}")
            limit = f.metadata.get("max_product")
            if limit is not None and math.prod(value) > limit:
                raise ConfigError(f"{name} must multiply to <= {limit}, got {value!r}")
        else:
            _check_items(f.type, (value,), f.metadata, config, name, indexed=False)


def validate_config(config: ExperimentConfig) -> None:
    """Raise ConfigError naming the first field that breaks its declared
    type or bounds; numbers must be finite. An RBED ladder must also be able
    to lower epsilon (``_check_decay_moves``)."""
    _check_fields(config, "")
    if isinstance(config.scheduler, RbedConfig):
        _check_decay_moves(config.scheduler)


def _check_decay_moves(s: RbedConfig) -> None:
    """Reject a ladder above its floor whose decay step cannot lower epsilon.

    A decay rounds ``epsilon - change`` to the nearest double, ties to even,
    so it holds epsilon when ``change`` is below half an ulp of epsilon, or
    equal to it with epsilon's last bit even. Epsilon only falls, so its ulp
    never grows, and only the first two decays can hold: the first, or the
    second after a first tie moved epsilon to an even neighbour in the same
    binade. Either would keep epsilon above ``epsilon_min`` for good.
    """
    # RbedSchedule.update's subtraction, not a call to it: perfbench counts
    # update calls against the episodes run
    change = s.schedule().change
    epsilon = s.epsilon_start
    for _ in range(2):
        if epsilon <= s.epsilon_min:
            return
        if epsilon - change == epsilon:
            raise ConfigError(
                f"scheduler.reward_target must give a decay step that lowers epsilon,"
                f" got {s.reward_target!r}: the step {change!r} leaves epsilon"
                f" at {epsilon!r}, above epsilon_min {s.epsilon_min!r}"
            )
        epsilon -= change


def _require_mapping(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {type(value).__name__}")
    return value


def _parse_value(hint: Any, value: Any, bounds: dict, name: str) -> Any:
    if get_origin(hint) is Union:
        kind = _require_mapping(value, name).get("kind", "rbed")
        if kind not in _SCHEDULER_KINDS:
            raise ConfigError(
                f"{name}.kind must be one of {sorted(_SCHEDULER_KINDS)}, got {kind!r}"
            )
        return _parse(_SCHEDULER_KINDS[kind], value, name)
    if is_dataclass(hint):
        return _parse(hint, value, name)
    if get_origin(hint) is tuple:
        if isinstance(value, str) and "from_str" in bounds:
            value = bounds["from_str"](value)
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        item = get_args(hint)[0]  # items are scalars
        return tuple(value) if item is not float else tuple(_parse_float(v, name) for v in value)
    return _parse_float(value, name) if hint is float else value


def _parse_float(value: Any, name: str) -> Any:
    if type(value) is int:
        # JSON writes 1.0 as 1; keep float fields float so outputs are stable.
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{name} must be a finite number, got {value}") from None
    return value


def _parse(cls: type, data: Any, where: str) -> Any:
    d = _require_mapping(data, where or "config")
    names = {f.name for f in fields(cls)}
    unknown = sorted(set(d) - names - ({"kind"} if hasattr(cls, "kind") else set()))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where or 'config'}: {', '.join(unknown)}")
    return cls(**{
        f.name: _parse_value(f.type, d[f.name], f.metadata, _join(where, f.name))
        for f in fields(cls)
        if f.name in d
    })


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from a parsed JSON object."""
    return _parse(ExperimentConfig, data, "")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"duplicate key {key!r}")
        data[key] = value
    return data


def config_from_json(text: str) -> ExperimentConfig:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return config_from_dict(data)


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a JSON config; a ConfigError from it names the file."""
    try:
        return config_from_json(Path(path).read_text(encoding="utf-8"))
    except (ConfigError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def ladder_end(config: ExperimentConfig) -> Optional[tuple[float, float]]:
    """The ``(epsilon, threshold)`` an RBED ladder holds after the last decay
    it can buy when every episode pays the environment's ``MAX_RETURN``; None
    if the scheduler is not RBED or never decays (``epsilon_start ==
    epsilon_min``).

    The walk to ``epsilon_min`` takes ``ceil(reward_target)`` decays, and
    decay n + 1 needs an episode that pays ``reward_threshold_init + n *
    reward_increment``. If the last is reachable, the ladder ends at
    ``epsilon_min`` with the threshold at ``reward_threshold_init +
    ceil(reward_target) * reward_increment``, which is ``reward_target`` only
    at increment 1 from 0: ``reward_target`` counts decays, not reward.
    Otherwise epsilon stalls above ``epsilon_min``; such a config still
    runs, it just explores more than its ``epsilon_min`` says.
    """
    s = config.scheduler
    if not isinstance(s, RbedConfig) or s.epsilon_start == s.epsilon_min:
        return None
    top = MAX_RETURN[config.environment]
    needed = decays = math.ceil(s.reward_target)
    if s.reward_threshold_init + (needed - 1) * s.reward_increment > top:
        # decays 1..floor(last) + 1 are reachable, fewer than needed (the
        # clamps keep a rounding of last, or its overflow to inf, from saying
        # otherwise)
        last = (top - s.reward_threshold_init) / s.reward_increment
        decays = 0 if last < 0 else min(math.floor(min(last, needed)) + 1, needed - 1)
    epsilon = s.epsilon_min
    if decays < needed:
        epsilon = s.epsilon_start - decays * (s.epsilon_start - s.epsilon_min) / s.reward_target
    return epsilon, s.reward_threshold_init + decays * s.reward_increment


def config_to_dict(config: Any) -> dict:
    """Fully resolved form, round-trippable through config_from_dict."""
    out = {"kind": config.kind} if hasattr(config, "kind") else {}
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            value = config_to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out
