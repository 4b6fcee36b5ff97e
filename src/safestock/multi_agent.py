"""Multi-agent actor-critic: centralised critic, decentralised actors.

The critic scores the joint state exactly as in the single-agent case and
exists only for training.  Each echelon owns a Gaussian actor over its
two-component local observation: (inventory, incoming order) for factory
and warehouse, (reorder point, consumer demand) for the retailer.  All
three actors share the critic's joint TD error, so actor parameters grow
linearly with the number of agents.

The actors have the same shape, so they run as the members of one stacked
network (``Mlp(members=3)``): member ``k`` is echelon ``k``'s actor, local
observations are one (3, 2) array and each step makes one forward and one
backward call for all of them.  Stacking keeps every member's arithmetic
bit-identical to running it as a network of its own.
"""

import math
import time
from typing import NamedTuple

import numpy as np

from .env import IncomingOrders, clip_action
from .metrics import EpisodeStats
from .nets import (
    ForwardCache,
    GaussianPolicy,
    Mlp,
    adam_step,
    backward,
    forward,
    forward_cached,
    gaussian_mean_grad,
)
from .actor_critic import (
    HIDDEN_LAYERS,
    A2cAgent,
    check_sampled_action,
    joint_obs,
    read_agent_file,
    write_agent,
)

AGENT_NAMES = ("factory", "warehouse", "retailer")
NO_ORDERS = IncomingOrders(0, 0, 0)   # what the local views see before the first step


class MaTransition(NamedTuple):
    s: np.ndarray              # scaled joint state
    r: float                   # scaled joint reward
    s_next: np.ndarray
    local_obs: np.ndarray      # (3, 2) scaled local views, factory/warehouse/retailer
    actions: np.ndarray        # three raw sampled scalars, same order


class MaA2cAgent(A2cAgent):
    """Critic plus one stacked actor, one member per echelon.

    ``actor.mean_net`` has ``len(AGENT_NAMES)`` members; critic and actor
    share one flat parameter vector and one Adam state, as in ``A2cAgent``.
    """


def build_actor(n_agents, rng, action_std=2.0, obs_dim=2, hidden=HIDDEN_LAYERS):
    """A Gaussian actor with one scalar-action member per agent.

    Members are drawn in agent order, each one layer by layer.
    """
    return GaussianPolicy(Mlp((obs_dim, *hidden, 1), rng=rng, members=n_agents),
                          action_std)


def make_maa2c_agent(config, seed, action_std=2.0, gamma=0.2, alpha=0.001,
                     hidden=HIDDEN_LAYERS):
    rng = np.random.default_rng(seed)
    critic = Mlp((3, *hidden, 1), rng=rng)
    actor = build_actor(len(AGENT_NAMES), rng, action_std, hidden=hidden)
    return MaA2cAgent(critic, actor, gamma, 1.0 / config.capacity, alpha=alpha)


def local_obs_vectors(state, incoming, scale):
    """Scaled per-agent views, one row each: own level plus the order/demand just seen."""
    return np.array([
        [state.inv_factory, incoming.to_factory],
        [state.inv_warehouse, incoming.to_warehouse],
        [state.rp, incoming.demand],
    ], dtype=float) * scale


def act_all(agent, local_obs, rng):
    """Each actor samples its scalar action from its own Gaussian.

    ``local_obs`` holds one local view per agent.  Returns the raw joint
    action (q_factory, q_warehouse, rp_next); callers clip it before handing
    it to the environment.
    """
    actor = agent.actor
    mu = forward(actor.mean_net, local_obs)
    return mu[:, 0] + actor.action_std * rng.standard_normal(len(mu))


def maa2c_step(agent, transition, actor_cache=None, critic_cache=None):
    """Critic update with the joint TD error, then every actor with the same error.

    ``actor_cache`` may carry the stacked actor's forward cache from
    sampling time, and ``critic_cache`` a ``ForwardCache`` of the critic to
    fill and reuse, as in ``a2c_step``.  A non-finite TD error raises
    FloatingPointError before any parameter moves.
    """
    v_s, critic_cache = forward_cached(agent.critic, transition.s, critic_cache)
    v_next = forward(agent.critic, transition.s_next)
    delta = transition.r + agent.gamma * float(v_next[0]) - float(v_s[0])
    if not math.isfinite(delta):
        raise FloatingPointError(
            f"non-finite TD error {delta} (reward {transition.r}, "
            f"V(s) {float(v_s[0])}, V(s') {float(v_next[0])})")

    grad = agent._grad
    n_critic = agent.critic.theta.size
    backward(agent.critic, transition.s, np.array([-delta]), critic_cache,
             out=grad[:n_critic])
    mean_net = agent.actor.mean_net
    if actor_cache is None:
        _, actor_cache = forward_cached(mean_net, transition.local_obs)
    mu = actor_cache.output[:, 0]
    dmu = gaussian_mean_grad(mu, transition.actions, agent.actor.action_std)
    backward(mean_net, transition.local_obs, (-delta * dmu)[:, None], actor_cache,
             out=grad[n_critic:])
    adam_step(agent.theta, grad, agent.opt)
    return agent


def train_maa2c(env, agent, episodes, steps_per_episode, rng=None):
    """Online training; a non-finite sampled action raises FloatingPointError."""
    if steps_per_episode < 1:
        raise ValueError("steps_per_episode must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    mean_net = agent.actor.mean_net
    std = agent.actor.action_std
    actor_cache, critic_cache = ForwardCache(mean_net), ForwardCache(agent.critic)
    history = []
    for episode in range(episodes):
        tic = time.perf_counter()
        state = env.reset()
        incoming_w = 0
        s_vec = joint_obs(state, agent.obs_scale)
        obs = local_obs_vectors(state, NO_ORDERS, agent.obs_scale)
        stats = EpisodeStats()
        for _ in range(steps_per_episode):
            mu, _ = forward_cached(mean_net, obs, actor_cache)
            a_raw = mu[:, 0] + std * rng.standard_normal(mean_net.members)
            check_sampled_action(a_raw, episode)
            action = clip_action(state, a_raw, incoming_w, env.config)
            outcome = env.step(action)
            s_next = joint_obs(outcome.next_state, agent.obs_scale)
            try:
                maa2c_step(agent, MaTransition(
                    s_vec, outcome.reward * agent.reward_scale, s_next, obs, a_raw),
                    actor_cache=actor_cache, critic_cache=critic_cache)
            except FloatingPointError as exc:
                raise FloatingPointError(f"episode {episode}: {exc}") from exc
            state = outcome.next_state
            incoming_w = outcome.incoming.to_warehouse
            s_vec = s_next
            obs = local_obs_vectors(state, outcome.incoming, agent.obs_scale)
            stats.update(outcome)
        history.append(stats.to_metrics(episode, time.perf_counter() - tic))
    return history


def evaluate_maa2c(env, agent, episodes, steps_per_episode):
    """Decentralised mean-action rollouts; the critic plays no part.

    A non-finite mean action raises FloatingPointError naming the episode.
    """
    mean_net = agent.actor.mean_net
    history = []
    for episode in range(episodes):
        tic = time.perf_counter()
        state = env.reset()
        incoming_w = 0
        obs = local_obs_vectors(state, NO_ORDERS, agent.obs_scale)
        stats = EpisodeStats()
        for _ in range(steps_per_episode):
            means = forward(mean_net, obs)[:, 0]
            try:
                action = clip_action(state, means, incoming_w, env.config)
            except ValueError as exc:
                raise FloatingPointError(
                    f"episode {episode}: non-finite mean action {means.tolist()}") from exc
            outcome = env.step(action)
            state = outcome.next_state
            incoming_w = outcome.incoming.to_warehouse
            obs = local_obs_vectors(state, outcome.incoming, agent.obs_scale)
            stats.update(outcome)
        history.append(stats.to_metrics(episode, time.perf_counter() - tic))
    return history


def save_maa2c_agent(agent, path, case):
    """Write the critic's block, then one actor block per echelon."""
    write_agent(agent, path, "maa2c", case)


def load_maa2c_agent(path):
    """Load an agent saved by save_maa2c_agent; returns (agent, case)."""
    critic, actor, kwargs, case = read_agent_file(path, "maa2c", len(AGENT_NAMES))
    return MaA2cAgent(critic, actor, **kwargs), case
