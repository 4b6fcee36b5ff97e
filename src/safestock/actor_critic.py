"""TD advantage actor-critic, for the single-agent and multi-agent chains.

One critic scores the joint state (inv_factory, inv_warehouse, rp).  For
``a2c`` one actor net emits the mean of the joint action (q_factory,
q_warehouse, rp_next), sampled with the fixed std ``ACTION_STD``; for
``maa2c`` (see ``multi_agent``) a three-member actor gives each echelon
its scalar action from a local view.  Updates
are online, one transition at a time: the TD error
delta = r + gamma V(s') - V(s) drives both the critic (toward the
bootstrapped target) and every actor member (along delta * grad log pi).
The raw Gaussian sample keeps the gradient honest; the clipped integer
action is what the environment executes.

Both variants are one ``A2cAgent``, one update (``a2c_step``, which is
``nets.a2c_update``: one compiled call per period where the process has
the kernel), one ``rollout`` policy for training and evaluation
(``policy``), and one agent file writer and reader.  The actor's member
count alone selects the actor's input and the file's ``algo`` header.
"""

import contextlib
import math

import numpy as np

from .env import IncomingOrders, clip_action, cost_case
from .metrics import rollout
from .nets import (
    A2cUpdate,
    AdamState,
    Mlp,
    a2c_update,
    forward,
    forward_cached,
    parameter_count,
    read_mlp,
    write_mlp,
)

# the paper's recipe for both actor-critics (Adam's is nets.ADAM_*)
HIDDEN_LAYERS = (100, 100, 100)
GAMMA = 0.2
ACTION_STD = 2.0   # the std of every action component
REWARD_SCALE = 1e-4   # rewards reach -1e4 * items; keep critic targets near unity
NO_ORDERS = IncomingOrders(0, 0, 0)   # what the local views see before the first step


# actor members per agent-file ``algo``: one joint actor, or one per echelon
ALGO_MEMBERS = {"a2c": 1, "maa2c": 3}
MEMBERS_ALGO = {members: algo for algo, members in ALGO_MEMBERS.items()}
# (input, output) widths of the nets: the critic scores the joint state; the
# a2c actor maps it to the joint action, and each maa2c member maps one
# echelon's local view to that echelon's action
CRITIC_WIDTHS = (3, 1)
ACTOR_WIDTHS = {"a2c": (3, 3), "maa2c": (2, 1)}


class A2cAgent:
    """A critic net and an actor net, which share one flat parameter vector
    and one Adam state, and the scale of their observations.

    The actor net gives the means of the Gaussian policy; the recipe
    (``GAMMA``, ``ACTION_STD``, ``REWARD_SCALE``) is the module's, read
    where it is used.  Adam is elementwise, so the shared buffer updates
    exactly as two separate optimizers would.  A one-member actor maps the
    joint state to the joint action (``a2c``); a three-member actor maps
    each echelon's local view to its own scalar action (``maa2c``, see
    ``multi_agent``).

    The nets are made once, over ``theta``, from their layer sizes and the
    actor's member count: ``rng`` draws the critic's parameters and then
    the actor's (see ``nets.Mlp``), and without it they are zeros, for the
    caller to fill.  A copy or pickle is rebuilt around its own buffers.
    Each net runs its passes in its own forward buffer; the other buffers
    an update writes besides the parameters and Adam's state (V(s')'s net,
    the action, gradients) belong to the one ``nets.A2cUpdate`` that
    ``policy`` builds per training call.
    """

    def __init__(self, critic_sizes, actor_sizes, members, obs_scale, rng=None):
        n_critic = parameter_count(critic_sizes)
        self.theta = np.zeros(n_critic + members * parameter_count(actor_sizes))
        self.critic = Mlp(critic_sizes, rng, theta=self.theta[:n_critic])
        self.actor = Mlp(actor_sizes, rng, theta=self.theta[n_critic:], members=members)
        self.obs_scale = obs_scale
        self.opt = AdamState(self.theta)

    def __reduce__(self):
        # the parameters and a copied Adam state go into a fresh agent
        return _rebuilt_agent, (self.critic.layer_sizes, self.actor.layer_sizes,
                                self.actor.members, self.obs_scale, self.theta, self.opt)

    @property
    def algo(self):
        """``a2c`` for a one-member actor, ``maa2c`` for per-echelon actors."""
        return MEMBERS_ALGO[self.actor.members]


def _rebuilt_agent(critic_sizes, actor_sizes, members, obs_scale, theta, opt):
    agent = A2cAgent(critic_sizes, actor_sizes, members, obs_scale)
    agent.theta[...] = theta
    agent.opt = opt
    return agent


def _net_sizes(widths):
    """The layer sizes of a net of these (input, output) widths."""
    return (widths[0], *HIDDEN_LAYERS, widths[1])


def new_agent(algo, config, seed):
    """An untrained ``algo`` agent for ``config``'s chain: one generator,
    seeded with ``seed``, draws the critic and then the actor."""
    return A2cAgent(_net_sizes(CRITIC_WIDTHS), _net_sizes(ACTOR_WIDTHS[algo]),
                    ALGO_MEMBERS[algo], 1.0 / config.capacity, np.random.default_rng(seed))


def make_a2c_agent(config, seed):
    return new_agent("a2c", config, seed)


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


def actor_input(agent, state, incoming):
    """What ``agent``'s actor reads: the joint state for one member, the
    local views, one row each, for more."""
    if agent.actor.members == 1:
        return joint_obs(state, agent.obs_scale)
    return local_obs_vectors(state, incoming, agent.obs_scale)


# ``a2c_step(update, s, r, s_next, x_next)`` ends each training period and
# makes the actor's pass the next one samples from; every actor member
# follows the same joint TD error.  ``train_a2c`` reads the name at call
# time, so a wrapped ``a2c_step`` sees every period.
a2c_step = a2c_update


def policy(env, agent, step=None, rng=None):
    """``rollout``'s policy for ``agent`` on ``env``.

    With ``step`` (``a2c_step``), actions are sampled from the Gaussian
    actor, clipped for the env and kept raw for the gradients, and each
    period ends in one ``step(update, s, r, s_next, x_next)`` on the one
    ``A2cUpdate`` this call makes, which leaves the next period's means in
    the actor's buffer (``forward_cached`` fills it on each reset state); a
    non-finite sample raises FloatingPointError before it reaches the env.
    Without, the actor's mean acts and the agent stays frozen, each clipped
    mean action computed once per call, keyed by (inv_factory,
    inv_warehouse, rp, *incoming), all it depends on; a non-finite mean
    raises FloatingPointError.  The actor reads ``actor_input``.
    """
    net, scale = agent.actor, agent.obs_scale
    config = env.config
    joint = net.members == 1
    if step is None:
        actions = {}
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        std, r_scale = ACTION_STD, REWARD_SCALE
        update = A2cUpdate(agent.critic, net, agent.theta, agent.opt, GAMMA, std)
        # the raw sample, drawn in place each period into the update's action
        # buffer: step reads it before the next period's draw
        a_raw = update.a
        mu = net.output.reshape(-1)   # a view: the means of the actor's last pass

    def start(state):
        incoming = NO_ORDERS
        s = joint_obs(state, scale)
        if step is not None:
            forward_cached(net, actor_input(agent, state, incoming))

        def act_mean():
            key = (state.inv_factory, state.inv_warehouse, state.rp, *incoming)
            if key not in actions:
                mean = forward(net, actor_input(agent, state, incoming)).ravel()
                try:
                    actions[key] = clip_action(state, mean, incoming.to_warehouse, config)
                except ValueError as exc:
                    raise FloatingPointError(
                        f"non-finite mean action {mean.tolist()}") from exc
            return actions[key]

        def act_sample():
            # mu + std * noise, as in place: both operations commute
            rng.standard_normal(out=a_raw)
            np.multiply(a_raw, std, out=a_raw)
            np.add(a_raw, mu, out=a_raw)
            try:
                return clip_action(state, a_raw, incoming.to_warehouse, config)
            except ValueError as exc:
                raise FloatingPointError(
                    f"non-finite sampled action {a_raw.tolist()}") from exc

        def observe(outcome):
            nonlocal state, incoming, s
            state, incoming = outcome.next_state, outcome.incoming
            if step is not None:
                s_next = joint_obs(state, scale)
                step(update, s, outcome.reward * r_scale, s_next,
                     s_next if joint else local_obs_vectors(state, incoming, scale))
                s = s_next
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
    block per member.  The header's ``gamma``, ``action_std`` and
    ``reward_scale`` record the recipe the agent trained under."""
    with open(path, "w", newline="\n") as fh:
        fh.write("safestock-agent 1\n")
        fh.write(f"algo {agent.algo}\n")
        fh.write(f"case {case}\n")
        fh.write(f"gamma {GAMMA!r}\n")
        fh.write(f"action_std {ACTION_STD!r}\n")
        fh.write(f"obs_scale {agent.obs_scale!r}\n")
        fh.write(f"reward_scale {REWARD_SCALE!r}\n")
        write_mlp(fh, agent.critic)
        write_mlp(fh, agent.actor)


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


def _net_checked(net, widths):
    """Refuse ``net`` unless it maps ``widths[0]`` inputs to ``widths[1]``
    outputs and every parameter is finite."""
    sizes = net.layer_sizes
    if (sizes[0], sizes[-1]) != widths:
        raise ValueError(f"mlp {' '.join(map(str, sizes))} is not "
                         f"{widths[0]} -> ... -> {widths[1]}")
    if not np.isfinite(net.theta).all():
        raise ValueError(f"mlp {' '.join(map(str, sizes))} has a non-finite parameter")


def load_agent(path):
    """Load an agent saved by ``save_agent``; returns (agent, case).

    The header's ``algo`` sets the actor's member count and its input and
    output widths (``ACTOR_WIDTHS``), so a file whose actor blocks disagree
    with it is refused, as is a critic that is not 3 -> ... -> 1.  The
    recipe lines (``gamma``, ``action_std``, ``reward_scale``) must be
    numbers but are not kept: a loaded agent acts by its mean and is
    scored by its critic, and trains, if at all, under this module's
    recipe.  A truncated or malformed file, a ``case`` other than 1 or 2,
    an ``obs_scale`` that is not finite and positive, and a non-finite
    network parameter raise ValueError naming ``path`` and the block
    (header, critic or actor).
    """
    with open(path) as fh:
        with _agent_block(path, "header"):
            fields = read_agent_header(fh)
            algo = fields["algo"]
            if algo not in ALGO_MEMBERS:
                raise ValueError(f"unknown agent algo {algo!r}")
            case = cost_case(fields["case"])
            # every number is checked; of them, the agent keeps its obs_scale
            numbers = {name: float(fields[name]) for name in AGENT_HEADER[2:]}
            obs_scale = numbers["obs_scale"]
            if not 0.0 < obs_scale < math.inf:
                raise ValueError(f"obs_scale {obs_scale} is not a finite positive number")
        with _agent_block(path, "critic"):
            critic_sizes, critic = read_mlp(fh)
        with _agent_block(path, "actor"):
            actor_sizes, actor = read_mlp(fh, members=ALGO_MEMBERS[algo])
            if fh.read().strip():
                raise ValueError("unexpected text after the last mlp block")
    agent = A2cAgent(critic_sizes, actor_sizes, len(actor), obs_scale)
    for block, net, widths, blocks in (
            ("critic", agent.critic, CRITIC_WIDTHS, critic),
            ("actor", agent.actor, ACTOR_WIDTHS[algo], actor)):
        for k, parameters in enumerate(blocks):
            for p, values in zip(net.member_parameters(k), parameters):
                p[...] = values
        with _agent_block(path, block):
            _net_checked(net, widths)
    return agent, case
