"""Sequential simulation loops producing replayable traces.

One simulation owns its policy state and its RNG stream; runs across seeds
are independent and safe to execute in parallel. Cumulative regret is
pseudo-regret: each loop records the optimal expected reward minus the
played arm's expected reward per step (per context for the contextual loop)
and returns its ``np.cumsum``, which adds the steps in order.
"""
from __future__ import annotations

import numpy as np

from .contextual import ContextualInstance, ContextualPolicy
from .core import BanditInstance, SimulationTrace, draw_reward
from .policies import BanditPolicy

__all__ = ["simulate", "simulate_contextual"]


def _path_buffer(policy, horizon: int) -> np.ndarray | None:
    if policy.path_depth <= 0:
        return None
    return np.full((horizon, policy.path_depth), -1, dtype=np.int64)


def simulate(
    instance: BanditInstance,
    policy: BanditPolicy,
    horizon: int,
    rng: np.random.Generator,
    seed: int | None = None,
) -> SimulationTrace:
    """Run one policy for ``horizon`` steps on a Bernoulli instance."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    arms = np.empty(horizon, dtype=np.int64)
    rewards = np.empty(horizon)
    paths = _path_buffer(policy, horizon)
    # the buffers are written through memoryviews, which take Python numbers directly
    arm_at, reward_at = memoryview(arms), memoryview(rewards)
    node_at = None if paths is None else memoryview(paths.reshape(-1))
    depth = policy.path_depth

    for t in range(1, horizon + 1):
        choice = policy.select(t, rng)
        reward = draw_reward(instance, choice.arm, rng)
        policy.update(choice, reward)
        i = t - 1
        arm_at[i] = choice.arm
        reward_at[i] = reward
        if node_at is not None:
            if len(choice.path) > depth:
                raise ValueError(f"path {choice.path} is longer than the policy's path_depth {depth}")
            for j, v in enumerate(choice.path, i * depth):
                node_at[j] = v
    means = instance.means
    cum_regret = np.cumsum(means.max() - means[arms])
    return SimulationTrace(seed=seed, arms=arms, rewards=rewards, cum_regret=cum_regret, paths=paths)


def simulate_contextual(
    instance: ContextualInstance,
    policy: ContextualPolicy,
    horizon: int,
    rng: np.random.Generator,
    contexts: np.ndarray,
    seed: int | None = None,
) -> SimulationTrace:
    """Run one contextual policy for ``horizon`` steps on the rows of ``contexts``.

    ``contexts`` is the (horizon, dim) context sequence, so that several
    policies can see the identical sequence.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
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
    # written through memoryviews, as in ``simulate``
    arm_at, reward_at, regret_at = memoryview(arms), memoryview(rewards), memoryview(regret)
    node_at = None if paths is None else memoryview(paths.reshape(-1))
    depth = policy.path_depth

    for i, x in enumerate(contexts):
        choice = policy.select(i + 1, x, rng)
        arm = choice.arm
        reward = instance.draw_reward(arm, x, rng)
        policy.update(choice, x, reward)
        expected = instance.expected_rewards(x)
        arm_at[i] = arm
        reward_at[i] = reward
        regret_at[i] = expected.max() - expected[arm]
        if node_at is not None:
            if len(choice.path) > depth:
                raise ValueError(f"path {choice.path} is longer than the policy's path_depth {depth}")
            for j, v in enumerate(choice.path, i * depth):
                node_at[j] = v
    return SimulationTrace(seed=seed, arms=arms, rewards=rewards, cum_regret=np.cumsum(regret), paths=paths)
