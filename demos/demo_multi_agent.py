"""Decentralised actors, centralised critic: who sees what.

Each echelon's actor receives only a two-component local view, so the
joint policy factorises and actor parameters grow linearly with the
number of echelons.  The demo verifies the information restriction
directly, then trains briefly to show the shared TD error at work.
"""

import numpy as np

from safestock import ChainConfig, make_maa2c_agent, new_env, train_maa2c
from safestock.multi_agent import build_actor, evaluate_maa2c
from safestock.nets import forward, parameter_count

config = ChainConfig.for_case(2)
agent = make_maa2c_agent(config, seed=11)

# one local view per row: factory, warehouse, retailer
obs = np.array([[0.2, 0.0], [0.3, 0.0], [0.15, 0.07]])
tampered = obs.copy()
tampered[1] = [0.9, 0.5]
a = forward(agent.actor, obs)[:, 0]
b = forward(agent.actor, tampered)[:, 0]
print("perturbing the warehouse's local view changes only its own mean action:")
print(f"  factory   {a[0]: .4f} -> {b[0]: .4f}")
print(f"  warehouse {a[1]: .4f} -> {b[1]: .4f}")
print(f"  retailer  {a[2]: .4f} -> {b[2]: .4f}")

per_actor = parameter_count((2, 100, 100, 100, 1))
three = build_actor(3, np.random.default_rng(0)).n_parameters
four = build_actor(4, np.random.default_rng(0)).n_parameters
print(f"\nactor parameters: 3 agents = {three} = 3 x {per_actor}, "
      f"4 agents = {four} = 4 x {per_actor}")

print("\ntraining 300 episodes on case 2...")
env = new_env(config, seed=12)
train_maa2c(env, agent, episodes=300, steps_per_episode=200,
            rng=np.random.default_rng(13))
evals = evaluate_maa2c(env, agent, episodes=5, steps_per_episode=200)
print(f"decentralised evaluation: inv_factory "
      f"{np.mean([m.mean_inv_factory for m in evals]):.2f}, inv_warehouse "
      f"{np.mean([m.mean_inv_warehouse for m in evals]):.2f}, stockouts/ep "
      f"{np.mean([m.stockout_units for m in evals]):.1f}")
print("(the critic saw the joint state during training; evaluation ran on")
print("local observations alone)")
