"""TD advantage actor-critic over the joint chain state.

One critic scores the joint state (inv_factory, inv_warehouse, rp); one
Gaussian actor emits the joint action mean (q_factory, q_warehouse,
rp_next).  Updates are online, one transition at a time: the TD error
delta = r + gamma V(s') - V(s) drives both the critic (toward the
bootstrapped target) and the actor (along delta * grad log pi).  The raw
Gaussian sample keeps the gradient honest; the clipped integer action is
what the environment executes.
"""

import contextlib
import math
import time
from typing import NamedTuple

import numpy as np

from .env import clip_action
from .metrics import EpisodeStats
from .nets import (
    AdamState,
    ForwardCache,
    GaussianPolicy,
    Mlp,
    adam_step,
    backward,
    forward,
    forward_cached,
    gaussian_mean_grad,
    read_mlp,
    std_from_text,
    std_to_text,
    write_mlp,
)

HIDDEN_LAYERS = (100, 100, 100)
REWARD_SCALE = 1e-4   # rewards reach -1e4 * items; keep critic targets near unity


class Transition(NamedTuple):
    s: np.ndarray        # scaled joint state
    a: np.ndarray        # raw (pre-clip) sampled action
    r: float             # scaled reward
    s_next: np.ndarray   # scaled next joint state


class A2cAgent:
    """Critic and actor share one flat parameter vector and one Adam state.

    Adam is elementwise, so the shared buffer updates exactly as two
    separate optimizers would.
    """

    def __init__(self, critic, actor, gamma, obs_scale,
                 reward_scale=REWARD_SCALE, alpha=0.001):
        n_critic = critic.theta.size
        net = actor.mean_net
        self.theta = np.concatenate([critic.theta, net.theta])
        self.critic = Mlp(critic.layer_sizes, theta=self.theta[:n_critic])
        self.actor = GaussianPolicy(
            Mlp(net.layer_sizes, theta=self.theta[n_critic:], members=net.members),
            actor.action_std)
        self.gamma = gamma
        self.obs_scale = obs_scale
        self.reward_scale = reward_scale
        self.opt = AdamState(self.theta, alpha=alpha)
        self._grad = np.zeros_like(self.theta)


def make_a2c_agent(config, seed, action_std=2.0, gamma=0.2, alpha=0.001,
                   hidden=HIDDEN_LAYERS):
    rng = np.random.default_rng(seed)
    critic = Mlp((3, *hidden, 1), rng=rng)
    actor = GaussianPolicy(Mlp((3, *hidden, 3), rng=rng), action_std)
    return A2cAgent(critic, actor, gamma, 1.0 / config.capacity, alpha=alpha)


def joint_obs(state, scale):
    return np.array(
        [state.inv_factory, state.inv_warehouse, state.rp], dtype=float) * scale


def td_advantage(critic, r_scaled, s, s_next, gamma):
    """One-step TD error r + gamma V(s') - V(s)."""
    return float(r_scaled + gamma * forward(critic, s_next)[0]
                 - forward(critic, s)[0])


def check_sampled_action(a_raw, episode):
    """Raise FloatingPointError naming ``episode`` unless ``a_raw`` is finite.

    A NaN or infinity here means the actor's parameters have diverged.
    """
    if not np.isfinite(a_raw).all():
        raise FloatingPointError(
            f"episode {episode}: non-finite sampled action {a_raw.tolist()}")


def a2c_step(agent, transition, actor_cache=None, critic_cache=None):
    """Apply one online critic + actor update and return the agent.

    ``actor_cache`` may carry the actor's forward cache from sampling time
    (the actor is unchanged in between, so the cached activations are
    current).  ``critic_cache`` may carry a ``ForwardCache`` of the critic
    to fill and reuse; a training loop passes the same two caches to every
    step.  A non-finite TD error (a NaN or infinite reward, or a diverged
    critic) raises FloatingPointError before any parameter moves.
    """
    v_s, critic_cache = forward_cached(agent.critic, transition.s, critic_cache)
    v_next = forward(agent.critic, transition.s_next)
    delta = transition.r + agent.gamma * float(v_next[0]) - float(v_s[0])
    if not math.isfinite(delta):
        raise FloatingPointError(
            f"non-finite TD error {delta} (reward {transition.r}, "
            f"V(s) {float(v_s[0])}, V(s') {float(v_next[0])})")

    # ascent along delta * grad; Adam applies descent, so negate
    grad = agent._grad
    n_critic = agent.critic.theta.size
    backward(agent.critic, transition.s, np.array([-delta]), critic_cache,
             out=grad[:n_critic])
    mean_net = agent.actor.mean_net
    if actor_cache is None:
        _, actor_cache = forward_cached(mean_net, transition.s)
    mu = actor_cache.output
    dmu = gaussian_mean_grad(mu, transition.a, agent.actor.action_std)
    backward(mean_net, transition.s, -delta * dmu, actor_cache,
             out=grad[n_critic:])
    adam_step(agent.theta, grad, agent.opt)
    return agent


def train_a2c(env, agent, episodes, steps_per_episode, rng=None):
    """Online training; actions are sampled, clipped for the env, raw for grads.

    A non-finite sampled action raises FloatingPointError before it reaches
    the environment.
    """
    if steps_per_episode < 1:
        raise ValueError("steps_per_episode must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    std = agent.actor.action_std
    mean_net = agent.actor.mean_net
    actor_cache, critic_cache = ForwardCache(mean_net), ForwardCache(agent.critic)
    history = []
    for episode in range(episodes):
        tic = time.perf_counter()
        state = env.reset()
        incoming = 0
        s_vec = joint_obs(state, agent.obs_scale)
        stats = EpisodeStats()
        for _ in range(steps_per_episode):
            mu, _ = forward_cached(mean_net, s_vec, actor_cache)
            a_raw = mu + std * rng.standard_normal(3)
            check_sampled_action(a_raw, episode)
            action = clip_action(state, a_raw, incoming, env.config)
            outcome = env.step(action)
            s_next = joint_obs(outcome.next_state, agent.obs_scale)
            try:
                a2c_step(agent, Transition(
                    s_vec, a_raw, outcome.reward * agent.reward_scale, s_next),
                    actor_cache=actor_cache, critic_cache=critic_cache)
            except FloatingPointError as exc:
                raise FloatingPointError(f"episode {episode}: {exc}") from exc
            stats.update(outcome)
            state = outcome.next_state
            incoming = outcome.incoming.to_warehouse
            s_vec = s_next
        history.append(stats.to_metrics(episode, time.perf_counter() - tic))
    return history


def evaluate_a2c(env, agent, episodes, steps_per_episode):
    """Mean-action rollouts with the frozen actor; the critic stays unused.

    A non-finite mean action raises FloatingPointError naming the episode.
    """
    history = []
    for episode in range(episodes):
        tic = time.perf_counter()
        state = env.reset()
        incoming = 0
        stats = EpisodeStats()
        for _ in range(steps_per_episode):
            mu = forward(agent.actor.mean_net, joint_obs(state, agent.obs_scale))
            try:
                action = clip_action(state, mu, incoming, env.config)
            except ValueError as exc:
                raise FloatingPointError(
                    f"episode {episode}: non-finite mean action {mu.tolist()}") from exc
            outcome = env.step(action)
            stats.update(outcome)
            state = outcome.next_state
            incoming = outcome.incoming.to_warehouse
        history.append(stats.to_metrics(episode, time.perf_counter() - tic))
    return history


def write_agent(agent, path, algo, case):
    """Write a ``safestock-agent 1`` file: header, critic, then actor blocks."""
    with open(path, "w", newline="\n") as fh:
        fh.write("safestock-agent 1\n")
        fh.write(f"algo {algo}\n")
        fh.write(f"case {case}\n")
        fh.write(f"gamma {agent.gamma!r}\n")
        fh.write(f"action_std {std_to_text(agent.actor.action_std)}\n")
        fh.write(f"obs_scale {agent.obs_scale!r}\n")
        fh.write(f"reward_scale {agent.reward_scale!r}\n")
        write_mlp(fh, agent.critic)
        write_mlp(fh, agent.actor.mean_net)


def save_a2c_agent(agent, path, case):
    write_agent(agent, path, "a2c", case)


AGENT_HEADER = ("algo", "case", "gamma", "action_std", "obs_scale", "reward_scale")


def read_agent_header(fh):
    """The header fields of a ``safestock-agent 1`` file, as text."""
    if fh.readline().split() != ["safestock-agent", "1"]:
        raise ValueError("not a safestock-agent 1 file")
    fields = {}
    for key in AGENT_HEADER:
        line = fh.readline()
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            raise ValueError(f"expected '{key} <value>', got {line!r}")
        fields[key] = parts[1]
    return fields


@contextlib.contextmanager
def _agent_block(path, block):
    """Name ``path`` and ``block`` in a ValueError raised while reading it."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {block} block: {exc}") from None


def agent_file_algo(path):
    """The ``algo`` header field of the agent file at ``path``."""
    with open(path) as fh, _agent_block(path, "header"):
        return read_agent_header(fh)["algo"]


def read_agent_file(path, algo, actor_members):
    """Read a ``safestock-agent 1`` file holding an ``algo`` agent.

    Returns the critic, the actor policy, the agent's keyword arguments
    (gamma, obs_scale, reward_scale) and the cost case.  A truncated or
    malformed file raises ValueError naming ``path`` and the block (header,
    critic or actor).
    """
    with open(path) as fh:
        with _agent_block(path, "header"):
            fields = read_agent_header(fh)
            if fields["algo"] != algo:
                raise ValueError(f"expected algo {algo}, found {fields['algo']!r}")
            kwargs = {name: float(fields[name])
                      for name in ("gamma", "obs_scale", "reward_scale")}
            case = int(fields["case"])
            action_std = std_from_text(fields["action_std"])
        with _agent_block(path, "critic"):
            critic = read_mlp(fh)
        with _agent_block(path, "actor"):
            actor = GaussianPolicy(read_mlp(fh, members=actor_members), action_std)
            if fh.read().strip():
                raise ValueError("unexpected text after the last mlp block")
    return critic, actor, kwargs, case


def load_a2c_agent(path):
    """Load an agent saved by save_a2c_agent; returns (agent, case)."""
    critic, actor, kwargs, case = read_agent_file(path, "a2c", 1)
    return A2cAgent(critic, actor, **kwargs), case
