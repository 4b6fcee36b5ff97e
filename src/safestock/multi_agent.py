"""Multi-agent actor-critic: centralised critic, decentralised actors.

The critic scores the joint state exactly as in the single-agent case and
exists only for training.  Each echelon owns a Gaussian actor, with the
recipe's fixed std, over its two-component local observation:
(inventory, incoming order) for factory and warehouse, (reorder point,
consumer demand) for the retailer.  All three actors share the critic's
joint TD error, so actor parameters grow linearly with the number of
agents.

The actors have the same shape, so they run as the members of one stacked
network (``Mlp(members=3)``): member ``k`` is echelon ``k``'s actor, local
observations are one (3, 2) array, and each period's sampling forward pass
and its update (``nets.a2c_update``, one compiled call for the critic and
every member) take all of them at once.  Stacking keeps every member's
arithmetic bit-identical to running it as a network of its own.

The agent is an ``actor_critic.A2cAgent`` with a three-member actor net, and
it trains, evaluates, saves and loads through the same code as ``a2c``:
the member count alone selects the local views (``local_obs_vectors``)
and the ``maa2c`` file header.  ``maa2c_step`` is ``a2c_step``, that is
``nets.a2c_update``, under a name ``train_maa2c`` reads at call time.
"""

from .metrics import rollout
from .actor_critic import a2c_step as maa2c_step, new_actor, new_agent, policy


def build_actor(n_agents, rng):
    """The Gaussian actors' means net: one scalar-action member per agent,
    each over a two-component local view.

    Members are drawn in agent order, each one layer by layer.
    """
    return new_actor("maa2c", rng, n_agents)


def make_maa2c_agent(config, seed):
    return new_agent("maa2c", config, seed)


def train_maa2c(env, agent, episodes, steps_per_episode, rng=None):
    """Online training, one ``maa2c_step`` per period."""
    return rollout(env, episodes, steps_per_episode, policy(env, agent, maa2c_step, rng))


def evaluate_maa2c(env, agent, episodes, steps_per_episode):
    """Decentralised mean-action rollouts; the critic plays no part."""
    return rollout(env, episodes, steps_per_episode, policy(env, agent))
