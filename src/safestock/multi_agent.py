"""Multi-agent actor-critic: centralised critic, decentralised actors.

The critic scores the joint state exactly as in the single-agent case and
exists only for training.  Each echelon owns a Gaussian actor over its
two-component local observation: (inventory, incoming order) for factory
and warehouse, (reorder point, consumer demand) for the retailer.  All
three actors share the critic's joint TD error, so actor parameters grow
linearly with the number of agents.
"""

import math
import time
from typing import NamedTuple

import numpy as np

from .env import clip_action
from .metrics import EpisodeStats
from .nets import (
    AdamState,
    GaussianPolicy,
    Mlp,
    adam_step,
    backward,
    forward,
    forward_cached,
    logprob_grad_from_mean,
    read_mlp,
    std_from_text,
    std_to_text,
    write_mlp,
)
from .actor_critic import HIDDEN_LAYERS, REWARD_SCALE, joint_obs, read_agent_header

AGENT_NAMES = ("factory", "warehouse", "retailer")


class MaTransition(NamedTuple):
    s: np.ndarray              # scaled joint state
    r: float                   # scaled joint reward
    s_next: np.ndarray
    local_obs: tuple           # three scaled 2-vectors, factory/warehouse/retailer
    actions: np.ndarray        # three raw sampled scalars, same order


class MaA2cAgent:
    """Critic plus one actor per echelon on a shared flat parameter vector."""

    def __init__(self, critic, actors, gamma, obs_scale,
                 reward_scale=REWARD_SCALE, alpha=0.001):
        pieces = [critic.theta] + [a.mean_net.theta for a in actors]
        self.theta = np.concatenate(pieces)
        self._offsets = np.cumsum([0] + [p.size for p in pieces])
        self.critic = Mlp(critic.layer_sizes, theta=self._slice(0))
        self.actors = tuple(
            GaussianPolicy(Mlp(a.mean_net.layer_sizes, theta=self._slice(i + 1)),
                           a.action_std)
            for i, a in enumerate(actors))
        self.gamma = gamma
        self.obs_scale = obs_scale
        self.reward_scale = reward_scale
        self.opt = AdamState(self.theta, alpha=alpha)
        self._grad = np.zeros_like(self.theta)

    def _slice(self, i):
        return self.theta[self._offsets[i]:self._offsets[i + 1]]

    def _grad_slice(self, i):
        return self._grad[self._offsets[i]:self._offsets[i + 1]]


def build_actors(n_agents, rng, action_std=2.0, obs_dim=2, hidden=HIDDEN_LAYERS):
    """``n_agents`` scalar-action Gaussian actors over local observations."""
    return tuple(
        GaussianPolicy(Mlp((obs_dim, *hidden, 1), rng=rng), action_std)
        for _ in range(n_agents)
    )


def make_maa2c_agent(config, seed, action_std=2.0, gamma=0.2, alpha=0.001,
                     hidden=HIDDEN_LAYERS):
    rng = np.random.default_rng(seed)
    critic = Mlp((3, *hidden, 1), rng=rng)
    actors = build_actors(len(AGENT_NAMES), rng, action_std, hidden=hidden)
    return MaA2cAgent(critic, actors, gamma, 1.0 / config.capacity, alpha=alpha)


def local_obs_vectors(state, incoming, scale):
    """Scaled per-agent views: own level plus the order/demand just seen."""
    return (
        np.array([state.inv_factory, incoming.to_factory], dtype=float) * scale,
        np.array([state.inv_warehouse, incoming.to_warehouse], dtype=float) * scale,
        np.array([state.rp, incoming.demand], dtype=float) * scale,
    )


def _initial_obs(state, scale):
    return (
        np.array([state.inv_factory, 0.0]) * scale,
        np.array([state.inv_warehouse, 0.0]) * scale,
        np.array([state.rp, 0.0]) * scale,
    )


def act_all(agent, local_obs, rng):
    """Each actor samples its scalar action from its own Gaussian.

    Returns the raw joint action (q_factory, q_warehouse, rp_next); callers
    clip it before handing it to the environment.
    """
    out = np.empty(len(agent.actors))
    for i, (actor, obs) in enumerate(zip(agent.actors, local_obs)):
        mu = forward(actor.mean_net, obs)
        out[i] = mu[0] + actor.action_std * rng.standard_normal()
    return out


def maa2c_step(agent, transition, actor_caches=None):
    """Critic update with the joint TD error, then every actor with the same error.

    A non-finite TD error raises FloatingPointError before any parameter moves.
    """
    v_s, critic_cache = forward_cached(agent.critic, transition.s)
    v_next = forward(agent.critic, transition.s_next)
    delta = transition.r + agent.gamma * float(v_next[0]) - float(v_s[0])
    if not math.isfinite(delta):
        raise FloatingPointError(
            f"non-finite TD error {delta} (reward {transition.r}, "
            f"V(s) {float(v_s[0])}, V(s') {float(v_next[0])})")

    backward(agent.critic, transition.s, np.array([-delta]), critic_cache,
             out=agent._grad_slice(0))
    for i, (actor, obs, a) in enumerate(zip(agent.actors, transition.local_obs,
                                            transition.actions)):
        mean_net = actor.mean_net
        if actor_caches is None:
            _, cache = forward_cached(mean_net, obs)
        else:
            cache = actor_caches[i]
        mu = cache[1][-1]
        _, dmu = logprob_grad_from_mean(mu, np.array([a]), actor.action_std)
        backward(mean_net, obs, -delta * dmu, cache, out=agent._grad_slice(i + 1))
    adam_step(agent.theta, agent._grad, agent.opt)
    return agent


def train_maa2c(env, agent, episodes, steps_per_episode, rng=None):
    if steps_per_episode < 1:
        raise ValueError("steps_per_episode must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    history = []
    for episode in range(episodes):
        tic = time.perf_counter()
        state = env.reset()
        incoming_w = 0
        s_vec = joint_obs(state, agent.obs_scale)
        obs = _initial_obs(state, agent.obs_scale)
        stats = EpisodeStats()
        a_raw = np.empty(3)
        for _ in range(steps_per_episode):
            caches = []
            for i, (actor, o) in enumerate(zip(agent.actors, obs)):
                mu, cache = forward_cached(actor.mean_net, o)
                caches.append(cache)
                a_raw[i] = mu[0] + actor.action_std * rng.standard_normal()
            action = clip_action(state, a_raw, incoming_w, env.config)
            outcome = env.step(action)
            s_next = joint_obs(outcome.next_state, agent.obs_scale)
            try:
                maa2c_step(agent, MaTransition(
                    s_vec, outcome.reward * agent.reward_scale, s_next, obs, a_raw),
                    actor_caches=caches)
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
    """Decentralised mean-action rollouts; the critic plays no part."""
    history = []
    for episode in range(episodes):
        tic = time.perf_counter()
        state = env.reset()
        incoming_w = 0
        obs = _initial_obs(state, agent.obs_scale)
        stats = EpisodeStats()
        for _ in range(steps_per_episode):
            means = [forward(a.mean_net, o)[0] for a, o in zip(agent.actors, obs)]
            action = clip_action(state, means, incoming_w, env.config)
            outcome = env.step(action)
            state = outcome.next_state
            incoming_w = outcome.incoming.to_warehouse
            obs = local_obs_vectors(state, outcome.incoming, agent.obs_scale)
            stats.update(outcome)
        history.append(stats.to_metrics(episode, time.perf_counter() - tic))
    return history


def save_maa2c_agent(agent, path, case):
    with open(path, "w", newline="\n") as fh:
        fh.write("safestock-agent 1\n")
        fh.write("algo maa2c\n")
        fh.write(f"case {case}\n")
        fh.write(f"gamma {agent.gamma!r}\n")
        fh.write(f"action_std {std_to_text(agent.actors[0].action_std)}\n")
        fh.write(f"obs_scale {agent.obs_scale!r}\n")
        fh.write(f"reward_scale {agent.reward_scale!r}\n")
        write_mlp(fh, agent.critic)
        for actor in agent.actors:
            write_mlp(fh, actor.mean_net)


def load_maa2c_agent(path):
    with open(path) as fh:
        fields = read_agent_header(fh)
        if fields["algo"] != "maa2c":
            raise ValueError(f"expected a maa2c agent, found {fields['algo']!r}")
        critic = read_mlp(fh)
        nets = [read_mlp(fh) for _ in AGENT_NAMES]
    std = std_from_text(fields["action_std"])
    actors = tuple(GaussianPolicy(net, std) for net in nets)
    agent = MaA2cAgent(critic, actors, float(fields["gamma"]),
                       float(fields["obs_scale"]), float(fields["reward_scale"]))
    return agent, int(fields["case"])
