"""Train the tabular planner briefly and inspect what the table learned.

A short desk-scale run (a few hundred episodes) is enough to see the
mechanics: the sparse table fills in as states are visited, training
rewards are dominated by the epsilon-greedy exploration, and the greedy
policy extracted afterwards behaves very differently from the exploring
one.  Full comparisons use the experiment harness instead.
"""

import numpy as np

from safestock import ChainConfig, QHyper, evaluate_q, new_env, train_q
from safestock.metrics import moving_average

case = 1
config = ChainConfig.for_case(case)
env = new_env(config, seed=7)
hyper = QHyper()   # alpha 0.8, gamma 0.2, epsilon 0.5

print(f"training tabular Q on case {case} (300 episodes x 200 steps)...")
table, history = train_q(env, hyper, episodes=300, steps_per_episode=200,
                         rng=np.random.default_rng(1))

smoothed = moving_average([m.total_reward for m in history], 10)
print(f"visited states: {len(table)}")
print(f"value buffers and positions arrays: {table.nbytes / 1e6:.1f} MB, "
      f"Python objects not counted")
print(f"(a dense state x action product would be "
      f"{(31 * 31 * 7) ** 2 * 8 / 1e6:.0f} MB)")
print(f"training reward (smoothed): first {smoothed[9]:,.0f} "
      f"last {smoothed[-1]:,.0f}")

evals = evaluate_q(env, table, episodes=10, steps_per_episode=200)
print("\ngreedy evaluation over 10 episodes:")
print(f"  mean inv_factory   {np.mean([m.mean_inv_factory for m in evals]):6.2f}")
print(f"  mean inv_warehouse {np.mean([m.mean_inv_warehouse for m in evals]):6.2f}")
print(f"  mean rp            {np.mean([m.mean_rp for m in evals]):6.2f}")
print(f"  stockouts/episode  {np.mean([m.stockout_units for m in evals]):6.1f}")
print("\n(300 episodes is far short of the 3000 the comparison protocol")
print("uses; expect the greedy policy to still be visibly rough.)")
