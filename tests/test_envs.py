"""Physics oracle values, termination rules, and the chain MDP."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from rbed.envs import (
    LEFT,
    MAX_STEPS,
    RIGHT,
    THETA_THRESHOLD,
    X_THRESHOLD,
    CartPoleState,
    TabularCartPole,
    TabularChain,
    TerminalStepError,
    accelerations,
    cartpole_reset,
    cartpole_step,
    chain_step,
)
from rbed.agent import Discretizer
from rbed.rng import Rng


def test_step_oracle_from_rest():
    # hand-evaluated dynamics: temp = 10/1.1, theta_acc = -9.0909../0.62121..,
    # x_acc = 9.756098; one Euler step with old-derivative ordering
    out = cartpole_step(CartPoleState(0.0, 0.0, 0.0, 0.0), RIGHT)
    assert out.state.x == pytest.approx(0.0, abs=1e-8)
    assert out.state.x_dot == pytest.approx(0.19512195, abs=1e-8)
    assert out.state.theta == pytest.approx(0.0, abs=1e-8)
    assert out.state.theta_dot == pytest.approx(-0.29268293, abs=1e-8)
    assert out.reward == 1.0
    assert out.done is False


def test_step_oracle_acceleration_components():
    x_acc, theta_acc = accelerations(0.0, 0.0, 10.0)
    assert x_acc == pytest.approx(9.756098, abs=1e-6)
    assert theta_acc == pytest.approx(-14.634146, abs=1e-6)


def test_left_is_negated_right_from_rest():
    right = cartpole_step(CartPoleState(0.0, 0.0, 0.0, 0.0), RIGHT).state
    left = cartpole_step(CartPoleState(0.0, 0.0, 0.0, 0.0), LEFT).state
    assert left.x_dot == -right.x_dot
    assert left.theta_dot == -right.theta_dot


def test_mirror_symmetry_exact():
    # negating the state and flipping the action negates the successor
    # exactly: the dynamics are odd under that reflection and IEEE negation
    # is lossless
    rng = Rng(314159)
    for _ in range(10000):
        state = CartPoleState(
            rng.next_f64() * 4.0 - 2.0,
            rng.next_f64() * 4.0 - 2.0,
            rng.next_f64() * 0.4 - 0.2,
            rng.next_f64() * 4.0 - 2.0,
        )
        mirrored = CartPoleState(-state.x, -state.x_dot, -state.theta, -state.theta_dot)
        a = cartpole_step(state, RIGHT).state
        b = cartpole_step(mirrored, LEFT).state
        assert (b.x, b.x_dot, b.theta, b.theta_dot) == (-a.x, -a.x_dot, -a.theta, -a.theta_dot)


def test_upright_equilibrium_is_fixed_point():
    # with no applied force and the pole perfectly upright nothing moves
    x_acc, theta_acc = accelerations(0.0, 0.0, 0.0)
    assert x_acc == 0.0
    assert theta_acc == 0.0


def test_reset_within_bounds():
    rng = Rng(8)
    for _ in range(10000):
        s = cartpole_reset(rng)
        for v in (s.x, s.x_dot, s.theta, s.theta_dot):
            assert -0.05 <= v <= 0.05
        assert s.steps_elapsed == 0


def test_reset_deterministic():
    assert cartpole_reset(Rng(77)) == cartpole_reset(Rng(77))


def test_reset_never_terminal():
    rng = Rng(9)
    for _ in range(1000):
        s = cartpole_reset(rng)
        assert abs(s.x) < X_THRESHOLD and abs(s.theta) < THETA_THRESHOLD


def test_angle_threshold_terminates():
    # theta just inside the threshold, moving fast enough to cross it
    state = CartPoleState(0.0, 0.0, 0.208, 0.5)
    out = cartpole_step(state, RIGHT)
    assert abs(out.state.theta) > THETA_THRESHOLD
    assert out.done is True
    assert out.truncated is False
    assert out.reward == 1.0


def test_position_threshold_terminates():
    state = CartPoleState(2.39, 1.0, 0.0, 0.0)
    out = cartpole_step(state, RIGHT)
    assert out.done is True
    assert out.truncated is False


def test_step_cap_and_max_score():
    # drive a controlled trajectory to the cap: episode reward is the step
    # count and tops out at 200
    state = CartPoleState(0.0, 0.0, 0.0, 0.0)
    total = 0.0
    done = False
    while not done:
        action = RIGHT if state.theta + state.theta_dot > 0 else LEFT
        out = cartpole_step(state, action)
        assert out.truncated is out.done  # only the cap may end this run
        state = out.state
        total += out.reward
        done = out.done
    assert state.steps_elapsed == MAX_STEPS
    assert out.truncated is True
    assert total == 200.0


def test_tabular_step_matches_cartpole_step():
    # the adapter's plain-float step against the oracle, state for state,
    # over random rollouts that end by falling, leaving the track or the cap
    d = Discretizer((3, 3, 6, 6), (2.4, 3.0, THETA_THRESHOLD, 2.0))
    env = TabularCartPole(d)
    rng = Rng(21)
    endings = set()
    for _ in range(300):
        s = env.reset(rng)
        state = CartPoleState(*env._state)
        assert s == d.index(state)
        done = False
        while not done:
            # mostly push towards the pole so some runs survive to the cap
            toward = RIGHT if state.theta + 0.5 * state.theta_dot > 0 else LEFT
            action = toward if rng.next_f64() < 0.9 else 1 - toward
            out = cartpole_step(state, action)
            s, reward, done, truncated = env.step(action)
            assert tuple(env._state) == tuple(out.state)
            assert (s, reward, done, truncated) == (d.index(out.state), out.reward, out.done, out.truncated)
            state = out.state
        endings.add("cap" if truncated else "x" if abs(state.x) > X_THRESHOLD else "theta")
        with pytest.raises(TerminalStepError):
            env.step(RIGHT)
    assert endings == {"cap", "x", "theta"}


def test_stepping_terminal_state_rejected():
    state = CartPoleState(0.0, 0.0, 0.3, 0.0)  # beyond the angle threshold
    with pytest.raises(TerminalStepError):
        cartpole_step(state, RIGHT)
    capped = CartPoleState(0.0, 0.0, 0.0, 0.0, steps_elapsed=MAX_STEPS)
    with pytest.raises(TerminalStepError):
        cartpole_step(capped, RIGHT)


def test_step_is_pure():
    state = CartPoleState(0.01, -0.02, 0.03, -0.04)
    assert cartpole_step(state, RIGHT) == cartpole_step(state, RIGHT)


@settings(max_examples=200)
@given(
    st.floats(min_value=-2.3, max_value=2.3),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-0.2, max_value=0.2),
    st.floats(min_value=-3.0, max_value=3.0),
    st.sampled_from([LEFT, RIGHT]),
)
def test_step_outputs_finite(x, x_dot, theta, theta_dot, action):
    out = cartpole_step(CartPoleState(x, x_dot, theta, theta_dot), action)
    for v in out.state[:4]:
        assert math.isfinite(v)
    assert out.reward == 1.0


# -- chain MDP -------------------------------------------------------------


def test_chain_step_right_to_goal():
    assert chain_step(3, RIGHT, n_states=5) == (4, 1.0, True)


def test_chain_left_clamps_at_wall():
    assert chain_step(0, LEFT, n_states=5) == (0, 0.0, False)


def test_chain_intermediate_moves():
    assert chain_step(0, RIGHT, n_states=5) == (1, 0.0, False)
    assert chain_step(2, LEFT, n_states=5) == (1, 0.0, False)


def test_chain_terminal_step_rejected():
    with pytest.raises(TerminalStepError):
        chain_step(4, RIGHT, n_states=5)
    with pytest.raises(TerminalStepError):
        chain_step(-1, RIGHT, n_states=5)


def test_chain_two_states_immediate_goal():
    assert chain_step(0, RIGHT, n_states=2) == (1, 1.0, True)


def test_chain_closed_form_value_iteration():
    # Q*(s, Right) = gamma^(n-2-s): value iteration must land on it exactly
    # (within float accumulation)
    n, gamma = 5, 0.9
    q = [[0.0, 0.0] for _ in range(n)]
    for _ in range(200):
        for s in range(n - 1):
            for a in (LEFT, RIGHT):
                nxt, r, done = chain_step(s, a, n_states=n)
                q[s][a] = r + (0.0 if done else gamma * max(q[nxt]))
    for s in range(n - 1):
        assert q[s][RIGHT] == pytest.approx(gamma ** (n - 2 - s), abs=1e-10)
    assert q[0][RIGHT] == pytest.approx(0.729, abs=1e-10)


def test_tabular_chain_adapter():
    # a whole episode: the clamp at the left wall, the goal, then a fresh start
    env = TabularChain(5)
    assert env.n_states == 5 and env.n_actions == 2
    for _ in range(2):
        assert env.reset(Rng(1)) == 0
        assert env.step(LEFT) == (0, 0.0, False, False)
        assert env.step(RIGHT) == (1, 0.0, False, False)
        assert env.step(LEFT) == (0, 0.0, False, False)
        for s in (1, 2, 3):
            assert env.step(RIGHT) == (s, 0.0, False, False)
        assert env.step(RIGHT) == (4, 1.0, True, False)  # the goal is value-terminal, never truncated
        with pytest.raises(TerminalStepError):
            env.step(RIGHT)


def test_step_before_reset_rejected():
    d = Discretizer((1, 1, 6, 8), (2.4, 3.0, THETA_THRESHOLD, 2.0))
    for env in (TabularCartPole(d), TabularChain(5)):
        with pytest.raises(TerminalStepError, match="^step before reset$"):
            env.step(RIGHT)
