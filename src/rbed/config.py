"""Experiment configuration: a single JSON document, every field optional.

``{}`` is a valid config and resolves to the default benchmark setup:
reward-based decay on cart-pole, 500 episodes, seeds 1..20.

The config classes are ``NamedTuple``s. Each field is declared once, below,
as ``Annotated[type, bounds]`` through ``_field``. Three walks over
``_declared`` parse, validate and serialise every config class, so a field
added here needs no other code. The walks read each annotation, so this
module must not postpone the evaluation of annotations (no ``from __future__
import annotations``).

The check runs once, when an ``ExperimentConfig`` is built: parsed,
constructed directly or made by ``_replace`` (or ``copy.replace`` on Python
3.13+). A nested scheduler or agent config is checked as a field of it, so
an error names its path (``scheduler.decay_rate``). Code that takes a built
config never checks it again.
"""

import functools
import json
import math
import operator
from pathlib import Path
from typing import Annotated, Any, Iterable, NamedTuple, Optional, Union, get_args, get_origin

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

# Each environment's name and its largest episode return: a cart-pole step
# pays 1.0 up to the step cap, and a chain episode pays 1.0 once, at the goal.
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


def _field(kind: Any, **bounds: Any) -> Any:
    """The annotation of a config field: its type and its bounds.

    Bounds are ``ge``/``gt``/``le``/``lt`` (a number, or the name of a
    sibling field), ``choices``, and ``from_str`` (a parser for a JSON
    string standing in for a list). On a tuple field they apply to each item,
    and ``max_product`` bounds the product of the items.
    """
    return Annotated[kind, bounds]


@functools.cache
def _declared(cls: type) -> tuple[tuple[str, Any, dict], ...]:
    """Each field of a config class, in order: its name, type and bounds."""
    # the NamedTuple class that made the fields holds their annotations,
    # not a subclass of it (ExperimentConfig)
    hints = next(c for c in cls.__mro__ if "_fields" in vars(c)).__annotations__
    return tuple((name, hints[name].__origin__, hints[name].__metadata__[0]) for name in cls._fields)


def _is_config(obj: Any) -> bool:
    """Whether ``obj`` is a config class or a config (a ``NamedTuple``)."""
    return hasattr(obj, "_fields")


class RbedConfig(NamedTuple):
    kind = "rbed"
    epsilon_start: _field(float, ge=0.0, le=1.0) = 1.0
    epsilon_min: _field(float, ge=0.0, le="epsilon_start") = 0.0
    # counts the decays from epsilon_start to epsilon_min, not reward; each
    # decay's threshold is RbedSchedule.threshold's: see ladder_end
    reward_target: _field(float, gt=0.0) = 195.0
    reward_increment: _field(float, gt=0.0) = 1.0
    reward_threshold_init: _field(float) = 0.0

    def schedule(self) -> RbedSchedule:
        return RbedSchedule.for_target(
            reward_target=self.reward_target,
            epsilon_start=self.epsilon_start,
            epsilon_min=self.epsilon_min,
            reward_increment=self.reward_increment,
            reward_threshold=self.reward_threshold_init,
        )


class ExponentialConfig(NamedTuple):
    kind = "exponential"
    epsilon_start: _field(float, ge=0.0, le=1.0) = 1.0
    # The baseline's constants are artifact conventions, not established
    # reference values; they are exposed here precisely so they can be varied.
    decay_rate: _field(float, gt=0.0, lt=1.0) = 0.995
    epsilon_min: _field(float, ge=0.0, le="epsilon_start") = 0.01

    def schedule(self) -> ExponentialSchedule:
        return ExponentialSchedule(
            epsilon=self.epsilon_start, decay_rate=self.decay_rate, epsilon_min=self.epsilon_min
        )


class ConstantConfig(NamedTuple):
    kind = "constant"
    epsilon: _field(float, ge=0.0, le=1.0) = 1.0

    def schedule(self) -> ConstantSchedule:
        return ConstantSchedule(epsilon=self.epsilon)


SchedulerConfig = Union[RbedConfig, ExponentialConfig, ConstantConfig]

_SCHEDULER_KINDS = {cls.kind: cls for cls in get_args(SchedulerConfig)}


class AgentConfig(NamedTuple):
    alpha: _field(float, gt=0.0, le=1.0) = 0.26
    gamma: _field(float, gt=0.0, le=1.0) = 1.0
    buckets: _field(tuple[int, int, int, int], ge=1, max_product=MAX_STATES) = DEFAULT_BUCKETS
    clips: _field(tuple[float, float, float, float], gt=0.0, le=MAX_CLIP) = DEFAULT_CLIPS


class _ExperimentFields(NamedTuple):
    scheduler: _field(SchedulerConfig) = RbedConfig()
    agent: _field(AgentConfig) = AgentConfig()
    episodes: _field(int, ge=1) = 500
    # A variable-length tuple is a nonempty list of distinct items.
    seeds: _field(tuple[int, ...], ge=0, lt=2**64, from_str=parse_seed_spec) = tuple(range(1, 21))
    environment: _field(str, choices=tuple(MAX_RETURN)) = "cartpole"
    chain_states: _field(int, ge=2, le=MAX_STATES) = 5


class ExperimentConfig(_ExperimentFields):
    """A whole experiment, checked by ``validate_config`` whenever it is built.

    A ``NamedTuple`` class body may not define ``__new__``, hence the
    subclass. The base ``_make`` calls ``tuple.__new__`` and would skip the
    check; this one builds through ``__new__``. ``_replace`` builds through
    ``_make``, and so does ``copy.replace`` on Python 3.13+, which calls
    ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> "ExperimentConfig":
        config = super().__new__(cls, *args, **kwargs)
        validate_config(config)
        return config

    @classmethod
    def _make(cls, iterable: Iterable) -> "ExperimentConfig":
        return cls(*iterable)


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
    for field, hint, bounds in _declared(type(config)):
        value, name = getattr(config, field), _join(where, field)
        if get_origin(hint) is Union or _is_config(hint):
            classes = get_args(hint) or (hint,)
            if not isinstance(value, classes):
                wanted = " or ".join(c.__name__ for c in classes)
                raise ConfigError(f"{name} must be {wanted}, got {value!r}")
            _check_fields(value, name)
        elif get_origin(hint) is tuple:
            items = get_args(hint)
            if not isinstance(value, tuple):
                raise ConfigError(f"{name} must be a tuple, got {value!r}")
            _check_items(items[0], value, bounds, config, name, indexed=True)
            if items[-1] is not Ellipsis:
                if len(value) != len(items):
                    raise ConfigError(f"{name} must have {len(items)} items, got {value!r}")
            elif not value or len(set(value)) != len(value):
                raise ConfigError(f"{name} must be nonempty with distinct items, got {value!r}")
            limit = bounds.get("max_product")
            if limit is not None and math.prod(value) > limit:
                raise ConfigError(f"{name} must multiply to <= {limit}, got {value!r}")
        else:
            _check_items(hint, (value,), bounds, config, name, indexed=False)


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
        if not isinstance(kind, str) or kind not in _SCHEDULER_KINDS:  # [] is unhashable
            raise ConfigError(
                f"{name}.kind must be one of {sorted(_SCHEDULER_KINDS)}, got {kind!r}"
            )
        return _parse(_SCHEDULER_KINDS[kind], value, name)
    if _is_config(hint):
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
    unknown = sorted(set(d) - set(cls._fields) - ({"kind"} if hasattr(cls, "kind") else set()))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where or 'config'}: {', '.join(unknown)}")
    return cls(**{
        field: _parse_value(hint, d[field], bounds, _join(where, field))
        for field, hint, bounds in _declared(cls)
        if field in d
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
    except ConfigError:  # a duplicate key
        raise
    except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
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
    decay n + 1 needs an episode that pays the schedule's ``threshold(n)``.
    If the last is reachable, the ladder ends at ``epsilon_min`` with the
    threshold at ``threshold(ceil(reward_target))``, which is
    ``reward_target`` only at increment 1 from 0: ``reward_target`` counts
    decays, not reward. Otherwise epsilon stalls above ``epsilon_min``; such
    a config still runs, it just explores more than its ``epsilon_min``
    says. Either way the threshold is the schedule's own, bit for bit.
    """
    s = config.scheduler
    if not isinstance(s, RbedConfig) or s.epsilon_start == s.epsilon_min:
        return None
    schedule, top = s.schedule(), MAX_RETURN[config.environment]
    # the most decays whose thresholds are all within top: thresholds only
    # rise with the count, so a bisection over it finds the last one
    needed = math.ceil(s.reward_target)
    decays, high = 0, needed
    while decays < high:
        mid = (decays + high + 1) // 2
        if schedule.threshold(mid - 1) <= top:
            decays = mid
        else:
            high = mid - 1
    epsilon = s.epsilon_min
    if decays < needed:
        epsilon = s.epsilon_start - decays * (s.epsilon_start - s.epsilon_min) / s.reward_target
    return epsilon, schedule.threshold(decays)


def config_to_dict(config: Any) -> dict:
    """Fully resolved form, round-trippable through config_from_dict."""
    out = {"kind": config.kind} if hasattr(config, "kind") else {}
    for field, _, _ in _declared(type(config)):
        value = getattr(config, field)
        if _is_config(value):
            value = config_to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        out[field] = value
    return out
