"""Watch the actor-critic pair adapt online, one transition at a time.

The critic regresses the one-step TD target; the actor follows the TD
error along its Gaussian log-density gradient.  The demo trains a small
number of episodes on case 2 (expensive warehouse), where the learning
signal is strongest, and prints how the mean policy and its evaluation
behaviour move.
"""

import numpy as np

from safestock import ChainConfig, evaluate_a2c, make_a2c_agent, new_env, train_a2c
from safestock.actor_critic import joint_obs
from safestock.nets import forward

case = 2
config = ChainConfig.for_case(case)
env = new_env(config, seed=3)
agent = make_a2c_agent(config, seed=4)
rng = np.random.default_rng(5)

probe = joint_obs(type("S", (), {"inv_factory": 2, "inv_warehouse": 0, "rp": 4})(),
                  agent.obs_scale)

print(f"case {case}: factory holding {config.h_factory:g}, "
      f"warehouse holding {config.h_warehouse:g}, stockout {config.eta_stockout:g}")
print("actor mean at probe state (inv_f=2, inv_w=0, rp=4), then evaluation:")
for block in range(4):
    train_a2c(env, agent, episodes=150, steps_per_episode=200, rng=rng)
    mu = forward(agent.actor, probe)
    evals = evaluate_a2c(env, agent, episodes=5, steps_per_episode=200)
    print(f"after {(block + 1) * 150:4d} episodes: "
          f"mu=(q_f {mu[0]:7.1f}, q_w {mu[1]:7.1f}, rp {mu[2]:6.1f})  "
          f"eval inv f/w {np.mean([m.mean_inv_factory for m in evals]):5.2f}/"
          f"{np.mean([m.mean_inv_warehouse for m in evals]):5.2f}  "
          f"so/ep {np.mean([m.stockout_units for m in evals]):5.1f}")

print("\nThe mean policy drifts toward producing ahead at the factory while")
print("keeping the expensive warehouse close to empty, and the sampled")
print("reorder point pushes toward its cap as stockouts are punished.")
