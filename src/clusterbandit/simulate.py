"""The one sequential simulation loop, producing replayable traces.

One simulation owns its policy state and its RNG stream; runs across seeds
are independent and safe to execute in parallel. ``simulate`` runs every
policy: a Bernoulli one on its instance, a contextual one on the rows of a
context sequence. The two families differ only in the context row a step
passes and in where the per-step regret comes from. Cumulative regret is
pseudo-regret: the optimal expected reward minus the played arm's expected
reward per step (per context for a contextual instance), summed in step
order by ``np.cumsum``.
"""
from __future__ import annotations

import numpy as np

from .contextual import ContextualInstance
from .core import BanditInstance, SimulationTrace, draw_reward
from .policies import BanditPolicy

__all__ = ["simulate"]


def _path_buffer(policy, horizon: int) -> np.ndarray | None:
    if policy.path_depth <= 0:
        return None
    return np.full((horizon, policy.path_depth), -1, dtype=np.int64)


def simulate(
    instance: BanditInstance | ContextualInstance,
    policy: BanditPolicy,
    horizon: int,
    rng: np.random.Generator,
    seed: int | None = None,
    contexts: np.ndarray | None = None,
) -> SimulationTrace:
    """Run one policy for ``horizon`` steps.

    ``contexts`` is the (horizon, dim) context sequence of a contextual
    instance, given so that several policies can see the identical sequence,
    and None for a Bernoulli instance; its shape and finiteness are checked
    once per run.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if (contexts is None) != (instance.structure != "contextual"):
        raise ValueError("contexts are given for a contextual instance, and only for one")
    if contexts is not None:
        contexts = np.asarray(contexts, dtype=np.float64)
        if contexts.shape != (horizon, instance.dim):
            raise ValueError(
                f"contexts must have shape ({horizon}, {instance.dim}), got {contexts.shape}"
            )
        if not np.isfinite(contexts).all():
            raise ValueError("contexts have non-finite entries")

    arms = np.empty(horizon, dtype=np.int64)
    rewards = np.empty(horizon)
    regret = np.empty(horizon)
    paths = _path_buffer(policy, horizon)
    # the buffers are written through memoryviews, which take Python numbers directly
    arm_at, reward_at, regret_at = memoryview(arms), memoryview(rewards), memoryview(regret)
    node_at = None if paths is None else memoryview(paths.reshape(-1))
    depth = policy.path_depth
    select, update = policy.select, policy.update

    for i in range(horizon):
        if contexts is None:
            choice = select(i + 1, rng)
            arm = choice.arm
            reward = draw_reward(instance, arm, rng)
            update(choice, reward)
        else:
            x = contexts[i]
            choice = select(i + 1, x, rng)
            arm = choice.arm
            reward = instance.draw_reward(arm, x, rng)
            update(choice, x, reward)
            expected = instance.expected_rewards(x)
            regret_at[i] = expected.max() - expected[arm]
        arm_at[i] = arm
        reward_at[i] = reward
        if node_at is not None:
            if len(choice.path) > depth:
                raise ValueError(f"path {choice.path} is longer than the policy's path_depth {depth}")
            for j, v in enumerate(choice.path, i * depth):
                node_at[j] = v
    if contexts is None:  # a Bernoulli step's regret depends on its arm only
        means = instance.means
        np.subtract(means.max(), means[arms], out=regret)
    return SimulationTrace(seed=seed, arms=arms, rewards=rewards, cum_regret=np.cumsum(regret), paths=paths)
