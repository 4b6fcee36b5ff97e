"""TD advantage actor-critic, for the single-agent and multi-agent chains.

One critic scores the joint state (inv_factory, inv_warehouse, rp).  For
``a2c`` one Gaussian actor emits the joint action mean (q_factory,
q_warehouse, rp_next); for ``maa2c`` (see ``multi_agent``) a three-member
actor gives each echelon its scalar action from a local view.  Updates
are online, one transition at a time: the TD error
delta = r + gamma V(s') - V(s) drives both the critic (toward the
bootstrapped target) and every actor member (along delta * grad log pi).
The raw Gaussian sample keeps the gradient honest; the clipped integer
action is what the environment executes.

Both variants are one ``A2cAgent``, one update (``a2c_step``, which runs
``nets.a2c_update``: one compiled call per period where the process has
the kernel), one ``rollout`` policy for training and evaluation
(``policy``), and one agent file writer and reader.  The actor's member
count alone selects the actor's input and the file's ``algo`` header.
"""

import contextlib
from typing import NamedTuple

import numpy as np

from .env import IncomingOrders, clip_action
from .metrics import rollout
from .nets import (
    A2cUpdate,
    AdamState,
    GaussianPolicy,
    Mlp,
    a2c_update,
    forward,
    forward_cached,
    read_mlp,
    write_mlp,
)

# the paper's recipe for both actor-critics (Adam's is nets.ADAM_*)
HIDDEN_LAYERS = (100, 100, 100)
GAMMA = 0.2
ACTION_STD = 2.0   # the default std of every action component
REWARD_SCALE = 1e-4   # rewards reach -1e4 * items; keep critic targets near unity
NO_ORDERS = IncomingOrders(0, 0, 0)   # what the local views see before the first step


class Transition(NamedTuple):
    s: np.ndarray        # scaled joint state
    a: np.ndarray        # raw (pre-clip) sampled action, one entry per actor output
    r: float             # scaled reward
    s_next: np.ndarray   # scaled next joint state
    x: np.ndarray        # the actor's input: s, or one local view per member


# actor members per agent-file ``algo``: one joint actor, or one per echelon
ALGO_MEMBERS = {"a2c": 1, "maa2c": 3}
MEMBERS_ALGO = {members: algo for algo, members in ALGO_MEMBERS.items()}
# (input, output) widths of the nets: the critic scores the joint state; the
# a2c actor maps it to the joint action, and each maa2c member maps one
# echelon's local view to that echelon's action
CRITIC_WIDTHS = (3, 1)
ACTOR_WIDTHS = {"a2c": (3, 3), "maa2c": (2, 1)}


class A2cAgent:
    """Critic and actor share one flat parameter vector and one Adam state.

    Adam is elementwise, so the shared buffer updates exactly as two
    separate optimizers would.  A one-member actor maps the joint state to
    the joint action (``a2c``); a three-member actor maps each echelon's
    local view to its own scalar action (``maa2c``, see ``multi_agent``).
    A copy or pickle is rebuilt around its own buffers.  The buffers an
    update writes besides the parameters and Adam's state (forward caches,
    gradients) belong to the training loop's ``nets.A2cUpdate``.
    """

    def __init__(self, critic, actor, gamma, obs_scale, reward_scale=REWARD_SCALE):
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
        self.opt = AdamState(self.theta)

    def __reduce__(self):
        # copied nets and Adam state go into a fresh agent, whose views then
        # see its own buffers
        return _rebuilt_agent, (self.critic, self.actor, self.gamma, self.obs_scale,
                                self.reward_scale, self.opt)

    @property
    def algo(self):
        """``a2c`` for a one-member actor, ``maa2c`` for per-echelon actors."""
        return MEMBERS_ALGO[self.actor.mean_net.members]


def _rebuilt_agent(critic, actor, gamma, obs_scale, reward_scale, opt):
    agent = A2cAgent(critic, actor, gamma, obs_scale, reward_scale)
    agent.opt = opt
    return agent


def make_a2c_agent(config, seed, action_std=ACTION_STD):
    rng = np.random.default_rng(seed)
    critic = Mlp((3, *HIDDEN_LAYERS, 1), rng=rng)
    actor = GaussianPolicy(Mlp((3, *HIDDEN_LAYERS, 3), rng=rng), action_std)
    return A2cAgent(critic, actor, GAMMA, 1.0 / config.capacity)


def joint_obs(state, scale):
    return np.array(
        [state.inv_factory, state.inv_warehouse, state.rp], dtype=float) * scale


def local_obs_vectors(state, incoming, scale):
    """Scaled per-agent views, one row each: own level plus the order/demand just seen."""
    return np.array([
        [state.inv_factory, incoming.to_factory],
        [state.inv_warehouse, incoming.to_warehouse],
        [state.rp, incoming.demand],
    ], dtype=float) * scale


def a2c_step(agent, transition, update=None):
    """Apply one online critic + actor update and return the agent.

    Every actor member follows the same joint TD error (``nets.a2c_update``,
    one compiled call where this process has the kernel).  ``update`` may
    carry the training loop's ``A2cUpdate`` for this agent, its actor cache
    filled from ``transition.x`` at sampling time (the actor is unchanged in
    between); without one, a fresh one is made and filled.  The action is
    copied into the update's float64 buffer ``update.a``, unless it is that
    buffer (``policy`` samples into it).  A non-finite TD error (a NaN or
    infinite reward, or a diverged critic) raises FloatingPointError before
    any parameter, moment or step count moves.
    """
    if update is None:
        update = A2cUpdate(agent.critic, agent.actor, agent.theta, agent.opt, agent.gamma)
        forward_cached(agent.actor.mean_net, transition.x, update.actor_cache)
    if transition.a is not update.a:
        update.a[...] = transition.a
    a2c_update(update, transition.s, transition.r, transition.s_next)
    return agent


def policy(env, agent, step=None, rng=None):
    """``rollout``'s policy for ``agent`` on ``env``.

    With ``step`` (``a2c_step``), actions are sampled from the Gaussian
    actor, clipped for the env and kept raw for the gradients, and each
    period ends in one ``step`` on the loop's ``A2cUpdate``, whose actor
    cache the sampling pass filled; a non-finite sample raises
    FloatingPointError before it reaches the env.  Without, the actor's
    mean acts and the agent stays frozen; a non-finite mean raises
    FloatingPointError.  A one-member actor reads the joint state, more
    members read the local views, one row each.
    """
    net = agent.actor.mean_net
    std, scale, r_scale = agent.actor.action_std, agent.obs_scale, agent.reward_scale
    config = env.config
    joint = net.members == 1
    needs_s = joint or step is not None   # the joint state feeds the actor or the update
    if step is not None:
        if rng is None:
            rng = np.random.default_rng(0)
        update = A2cUpdate(agent.critic, agent.actor, agent.theta, agent.opt, agent.gamma)
        actor_cache = update.actor_cache
        # the raw sample, drawn in place each period into the update's action
        # buffer: step reads it before the next period's draw
        a_raw = update.a

    def start(state):
        incoming = NO_ORDERS
        s = joint_obs(state, scale) if needs_s else None
        x = s if joint else local_obs_vectors(state, incoming, scale)

        def act_mean():
            mu = forward(net, x).ravel()
            try:
                return clip_action(state, mu, incoming.to_warehouse, config)
            except ValueError as exc:
                raise FloatingPointError(f"non-finite mean action {mu.tolist()}") from exc

        def act_sample():
            mu, _ = forward_cached(net, x, actor_cache)
            # mu + std * noise, as in place: both operations commute
            rng.standard_normal(out=a_raw)
            np.multiply(a_raw, std, out=a_raw)
            np.add(a_raw, mu.ravel(), out=a_raw)
            try:
                return clip_action(state, a_raw, incoming.to_warehouse, config)
            except ValueError as exc:
                raise FloatingPointError(
                    f"non-finite sampled action {a_raw.tolist()}") from exc

        def observe(outcome):
            nonlocal state, incoming, s, x
            state, incoming = outcome.next_state, outcome.incoming
            s_next = joint_obs(state, scale) if needs_s else None
            if step is not None:
                step(agent, Transition(s, a_raw, outcome.reward * r_scale, s_next, x),
                     update)
            s = s_next
            x = s if joint else local_obs_vectors(state, incoming, scale)
        return (act_mean if step is None else act_sample), observe
    return start


def train_a2c(env, agent, episodes, steps_per_episode, rng=None):
    """Online training, one ``a2c_step`` per period."""
    return rollout(env, episodes, steps_per_episode, policy(env, agent, a2c_step, rng))


def evaluate_a2c(env, agent, episodes, steps_per_episode):
    """Mean-action rollouts with the frozen actor; the critic stays unused."""
    return rollout(env, episodes, steps_per_episode, policy(env, agent))


def save_agent(agent, path, case):
    """Write a ``safestock-agent 1`` file: header, critic, then one actor
    block per member."""
    with open(path, "w", newline="\n") as fh:
        fh.write("safestock-agent 1\n")
        fh.write(f"algo {agent.algo}\n")
        fh.write(f"case {case}\n")
        fh.write(f"gamma {agent.gamma!r}\n")
        fh.write(f"action_std {agent.actor.action_std!r}\n")
        fh.write(f"obs_scale {agent.obs_scale!r}\n")
        fh.write(f"reward_scale {agent.reward_scale!r}\n")
        write_mlp(fh, agent.critic)
        write_mlp(fh, agent.actor.mean_net)


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


def _widths_checked(net, widths):
    """``net``, if it maps ``widths[0]`` inputs to ``widths[1]`` outputs."""
    sizes = net.layer_sizes
    if (sizes[0], sizes[-1]) != widths:
        raise ValueError(f"mlp {' '.join(map(str, sizes))} is not "
                         f"{widths[0]} -> ... -> {widths[1]}")
    return net


def load_agent(path):
    """Load an agent saved by ``save_agent``; returns (agent, case).

    The header's ``algo`` sets the actor's member count and its input and
    output widths (``ACTOR_WIDTHS``), so a file whose actor blocks disagree
    with it is refused, as is a critic that is not 3 -> ... -> 1.  A
    truncated or malformed file raises ValueError naming ``path`` and the
    block (header, critic or actor).
    """
    with open(path) as fh:
        with _agent_block(path, "header"):
            fields = read_agent_header(fh)
            algo = fields["algo"]
            if algo not in ALGO_MEMBERS:
                raise ValueError(f"unknown agent algo {algo!r}")
            kwargs = {name: float(fields[name])
                      for name in ("gamma", "obs_scale", "reward_scale")}
            case = int(fields["case"])
            action_std = float(fields["action_std"])
        with _agent_block(path, "critic"):
            critic = _widths_checked(read_mlp(fh), CRITIC_WIDTHS)
        with _agent_block(path, "actor"):
            actor = GaussianPolicy(read_mlp(fh, members=ALGO_MEMBERS[algo]), action_std)
            if fh.read().strip():
                raise ValueError("unexpected text after the last mlp block")
            _widths_checked(actor.mean_net, ACTOR_WIDTHS[algo])
    return A2cAgent(critic, actor, **kwargs), case
