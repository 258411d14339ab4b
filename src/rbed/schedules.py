"""Exploration-rate schedules behind one uniform update contract.

Every schedule exposes ``epsilon`` (the exploration probability currently in
force) and ``update(last_reward)``, which the harness calls exactly once at
the end of each episode with that episode's total reward. Reward-based decay
reacts to the reward; exponential and constant schedules ignore it.

Schedules trust their arguments, as do the agent (``rbed.agent``) and the
environments (``rbed.envs``): ``rbed.config`` declares the default and
bounds of every schedule, agent and environment parameter and checks them
before any of these is built.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RbedSchedule:
    """Reward-based epsilon decay.

    Epsilon is lowered by a fixed ``change`` only when the last episode's
    reward met the current threshold, and each decay raises the threshold by
    ``reward_increment``, so the agent has to keep earning its exploitation.
    A reward far above the threshold still triggers exactly one decay.
    """

    epsilon: float
    epsilon_min: float
    reward_threshold: float
    reward_increment: float
    change: float

    @classmethod
    def for_target(
        cls,
        reward_target: float,
        epsilon_start: float = 1.0,
        epsilon_min: float = 0.0,
        reward_increment: float = 1.0,
        reward_threshold: float = 0.0,
    ) -> "RbedSchedule":
        """Derive the decay step from ``reward_target``, a count of decays.

        The step is sized so that epsilon walks from ``epsilon_start`` down to
        ``epsilon_min`` in ``ceil(reward_target)`` decays, so ``reward_target``
        counts decays, not reward: the default ladder ends at epsilon 0.0 and
        threshold 195 after 195 decays, and at increment 0.5 at epsilon 0.0 and
        threshold 97.5. Subtracting the step 195 times leaves epsilon at
        2.47198095326695e-15 there, a float residue that one more decay
        clears. A ladder that outgrows the largest episode return stalls above
        ``epsilon_min`` instead; ``rbed.config.ladder_end`` says where a
        config's ladder ends.
        """
        return cls(
            epsilon=epsilon_start,
            epsilon_min=epsilon_min,
            reward_threshold=reward_threshold,
            reward_increment=reward_increment,
            change=(epsilon_start - epsilon_min) / reward_target,
        )

    def update(self, last_reward: float) -> "RbedSchedule":
        if last_reward < self.reward_threshold:
            return self
        eps = self.epsilon - self.change
        if eps < self.epsilon_min:
            eps = self.epsilon_min
        # the constructor, not dataclasses.replace, which walks fields() per call
        return RbedSchedule(
            eps,
            self.epsilon_min,
            self.reward_threshold + self.reward_increment,
            self.reward_increment,
            self.change,
        )


@dataclass(frozen=True)
class ExponentialSchedule:
    """Multiply epsilon by a fixed rate below 1 every episode, floored at
    ``epsilon_min`` regardless of how the agent performed."""

    epsilon: float
    decay_rate: float
    epsilon_min: float

    def update(self, last_reward: float) -> "ExponentialSchedule":
        eps = self.epsilon * self.decay_rate
        if eps < self.epsilon_min:
            eps = self.epsilon_min
        return ExponentialSchedule(eps, self.decay_rate, self.epsilon_min)


@dataclass(frozen=True)
class ConstantSchedule:
    """Fixed exploration rate; updates are identity."""

    epsilon: float

    def update(self, last_reward: float) -> "ConstantSchedule":
        return self
