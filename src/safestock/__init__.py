"""Safety stock placement on a three-echelon chain.

Analytical guaranteed-service optimisation plus three reinforcement
learning approaches (tabular Q-learning, TD advantage actor-critic and its
multi-agent variant) trained against a seedable chain simulator, with an
experiment harness for seeded comparisons.
"""

from .env import (
    ActionVector,
    ChainConfig,
    ConfigurationError,
    Env,
    EnvState,
    IncomingOrders,
    StepOutcome,
    clip_action,
    feasible_bounds,
    new_env,
)
from .gsm import (
    GsmNode,
    GsmSolution,
    analytical_targets,
    case_chain,
    enumerate_vertices,
    format_solution_table,
    inventory_level,
    safety_stock,
    solve_exhaustive,
    total_cost,
)
from .nets import (
    AdamState,
    Mlp,
    adam_step,
    backward,
    forward,
)
from .metrics import (
    RunMetrics,
    compute_ci,
    moving_average,
    plateau_episode,
)
from .qlearning import (
    FeasibleActions,
    QHyper,
    QTable,
    evaluate_q,
    greedy_action,
    q_update,
    select_action,
    train_q,
)
from .actor_critic import (
    A2cAgent,
    a2c_step,
    evaluate_a2c,
    make_a2c_agent,
    train_a2c,
)
from .multi_agent import (
    evaluate_maa2c,
    maa2c_step,
    make_maa2c_agent,
    train_maa2c,
)
from .harness import (
    ExperimentConfig,
    Summary,
    export_policy_grid,
    run_experiment,
    summarize,
)
