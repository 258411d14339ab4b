"""Environments: a self-contained CartPole-v0 and a deterministic chain MDP.

The cart-pole follows the classic control task: semi-explicit Euler
integration at tau = 0.02 s, termination at |x| > 2.4 m or |theta| > 12
degrees, a hard 200-step cap, and reward 1.0 for every executed step. The
constants are fixed, not configurable, so scores stay comparable with
published CartPole-v0 results.

The chain MDP is a tiny deterministic walk with a closed-form optimal value
function, used as an analytic oracle for the learning code.
"""

from __future__ import annotations

import math
from typing import NamedTuple

LEFT = 0
RIGHT = 1
N_ACTIONS = 2

GRAVITY = 9.8  # m/s^2
MASS_CART = 1.0  # kg
MASS_POLE = 0.1  # kg
TOTAL_MASS = MASS_CART + MASS_POLE
POLE_HALF_LENGTH = 0.5  # m
POLEMASS_LENGTH = MASS_POLE * POLE_HALF_LENGTH
FORCE_MAG = 10.0  # N
TAU = 0.02  # s per Euler step
THETA_THRESHOLD = 12 * 2 * math.pi / 360  # rad
X_THRESHOLD = 2.4  # m
MAX_STEPS = 200  # v0 episode cap

RESET_BOUND = 0.05  # each state component starts uniform in [-0.05, 0.05]


class TerminalStepError(RuntimeError):
    """Raised when a terminal state is stepped; indicates a driver bug."""


class CartPoleState(NamedTuple):
    x: float
    x_dot: float
    theta: float
    theta_dot: float
    steps_elapsed: int = 0


class StepOutcome(NamedTuple):
    state: CartPoleState
    reward: float
    done: bool
    truncated: bool  # ended only by the step cap, with the pole still up


def cartpole_reset(rng) -> CartPoleState:
    """Fresh state with all four components uniform in [-0.05, 0.05].

    Draw order is part of the replay contract: x, x_dot, theta, theta_dot.
    Each component is ``rng.next_f64() * 0.1 - RESET_BOUND``, computed from
    four pops of one ``Rng.reserve(4)`` with the generator's
    ``Rng.F64_UNIT``, read off ``rng``: ``rbed.config`` loads this module,
    and loading ``rbed.rng`` with it would add to every config load.
    """
    pop = rng.reserve(4).pop
    unit = rng.F64_UNIT
    x = (pop() >> 11) * unit * 0.1 - RESET_BOUND
    x_dot = (pop() >> 11) * unit * 0.1 - RESET_BOUND
    theta = (pop() >> 11) * unit * 0.1 - RESET_BOUND
    theta_dot = (pop() >> 11) * unit * 0.1 - RESET_BOUND
    return CartPoleState(x, x_dot, theta, theta_dot, 0)


def accelerations(theta: float, theta_dot: float, force: float) -> tuple[float, float]:
    """Cart and pole accelerations for the given pose and applied force."""
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    temp = (force + POLEMASS_LENGTH * theta_dot * theta_dot * sin_t) / TOTAL_MASS
    theta_acc = (GRAVITY * sin_t - cos_t * temp) / (
        POLE_HALF_LENGTH * (4.0 / 3.0 - MASS_POLE * cos_t * cos_t / TOTAL_MASS)
    )
    x_acc = temp - POLEMASS_LENGTH * theta_acc * cos_t / TOTAL_MASS
    return x_acc, theta_acc


def out_of_bounds(x: float, theta: float) -> bool:
    """The pole fell or the cart left the track: a true, value-terminal end."""
    return abs(x) > X_THRESHOLD or abs(theta) > THETA_THRESHOLD


def cartpole_step(state: CartPoleState, action: int) -> StepOutcome:
    """Advance one Euler step.

    Positions integrate with the old velocities, then velocities with the new
    accelerations. Termination is evaluated on the post-step state, and the
    terminating step still pays reward 1.0 (200 surviving steps score 200).
    """
    if state.steps_elapsed >= MAX_STEPS or out_of_bounds(state.x, state.theta):
        raise TerminalStepError("cartpole_step called on a terminal state")
    force = FORCE_MAG if action == RIGHT else -FORCE_MAG
    x_acc, theta_acc = accelerations(state.theta, state.theta_dot, force)
    x = state.x + TAU * state.x_dot
    x_dot = state.x_dot + TAU * x_acc
    theta = state.theta + TAU * state.theta_dot
    theta_dot = state.theta_dot + TAU * theta_acc
    steps = state.steps_elapsed + 1
    failed = out_of_bounds(x, theta)
    capped = steps >= MAX_STEPS
    return StepOutcome(
        CartPoleState(x, x_dot, theta, theta_dot, steps),
        1.0,
        failed or capped,
        capped and not failed,
    )


def chain_step(position: int, action: int, n_states: int) -> tuple[int, float, bool]:
    """Deterministic walk: RIGHT moves toward the terminal cell at
    ``n_states - 1``, LEFT moves back (clamped at 0). Entering the terminal
    cell pays 1.0; every other transition pays nothing."""
    if not 0 <= position < n_states - 1:
        raise TerminalStepError(f"chain_step called on terminal or invalid position {position}")
    if action == RIGHT:
        nxt = position + 1
    else:
        nxt = position - 1 if position > 0 else 0
    done = nxt == n_states - 1
    return nxt, 1.0 if done else 0.0, done


class TabularCartPole:
    """Cart-pole exposed through a discretizer as integer observations.

    ``rbed.agent.run_episode`` runs a cart-pole episode in one fused loop
    that reads only ``discretizer``; it never calls ``reset`` or ``step``.
    ``rbed.agent.reference_episode`` runs those two, which are
    ``cartpole_reset`` and ``cartpole_step`` behind the discretizer.

    ``step`` returns ``(s, reward, done, truncated)``, where ``truncated``
    says the episode ended only because of the step cap while the pole was
    still balanced. Such endings are not value-terminal: the state is as
    good as any other mid-episode state, the clock just ran out, so learners
    should keep bootstrapping through them.
    """

    def __init__(self, discretizer) -> None:
        self.discretizer = discretizer
        self.n_states: int = discretizer.n_states
        self.n_actions: int = N_ACTIONS
        self._state: CartPoleState | None = None

    def reset(self, rng) -> int:
        self._state = cartpole_reset(rng)
        return self.discretizer.index(self._state)

    def step(self, action: int) -> tuple[int, float, bool, bool]:
        """``cartpole_step``, then the discretizer. ``cartpole_step`` rejects a
        step from a state that has already ended."""
        if self._state is None:
            raise TerminalStepError("step before reset")
        out = cartpole_step(self._state, action)
        self._state = out.state
        return self.discretizer.index(out.state), out.reward, out.done, out.truncated


class TabularChain:
    """Chain MDP behind the same integer-observation interface.

    Chain episodes only end by reaching the goal, so ``step``'s
    ``truncated`` is always False.
    """

    def __init__(self, n_states: int) -> None:
        self.n_states = n_states
        self.n_actions = N_ACTIONS
        self._position: int | None = None

    def reset(self, rng) -> int:
        """The walk always starts at 0; ``rng`` is not drawn from."""
        self._position = 0
        return 0

    def step(self, action: int) -> tuple[int, float, bool, bool]:
        if self._position is None:
            raise TerminalStepError("step before reset")
        nxt, reward, done = chain_step(self._position, action, self.n_states)
        self._position = nxt
        return nxt, reward, done, False
