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

from typing import NamedTuple


class RbedSchedule(NamedTuple):
    """Reward-based epsilon decay.

    Epsilon is lowered by a fixed ``change`` only when the last episode's
    reward met the current threshold, and each decay raises the threshold by
    ``reward_increment``, so the agent has to keep earning its exploitation.
    A reward far above the threshold still triggers exactly one decay. The
    schedule counts its ``decays``, and ``threshold(n)`` works the threshold
    of decay n + 1 out from the count, so no rounding piles up in it.
    """

    epsilon: float
    epsilon_min: float
    reward_threshold_init: float
    reward_increment: float
    change: float
    decays: int

    @classmethod
    def for_target(
        cls,
        reward_target: float,
        epsilon_start: float = 1.0,
        epsilon_min: float = 0.0,
        reward_increment: float = 1.0,
        reward_threshold_init: float = 0.0,
    ) -> "RbedSchedule":
        """Derive the decay step from ``reward_target``, a count of decays;
        ``reward_threshold_init`` is the threshold of the first decay.

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
            reward_threshold_init=reward_threshold_init,
            reward_increment=reward_increment,
            change=(epsilon_start - epsilon_min) / reward_target,
            decays=0,
        )

    def threshold(self, decays: int) -> float:
        """The reward that pays for decay ``decays + 1``."""
        return self.reward_threshold_init + decays * self.reward_increment

    @property
    def reward_threshold(self) -> float:
        """The reward that pays for the next decay."""
        return self.threshold(self.decays)

    def update(self, last_reward: float) -> "RbedSchedule":
        # the method, not the property: one call fewer per episode
        if last_reward < self.threshold(self.decays):
            return self
        eps = self.epsilon - self.change
        if eps < self.epsilon_min:
            eps = self.epsilon_min
        # the constructor, not _replace, which maps every field through a dict
        return RbedSchedule(
            eps,
            self.epsilon_min,
            self.reward_threshold_init,
            self.reward_increment,
            self.change,
            self.decays + 1,
        )


class ExponentialSchedule(NamedTuple):
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


class ConstantSchedule(NamedTuple):
    """Fixed exploration rate; updates are identity."""

    epsilon: float

    def update(self, last_reward: float) -> "ConstantSchedule":
        return self
