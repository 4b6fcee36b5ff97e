"""The episode loop every agent runs, its per-episode telemetry, and the
statistics used to compare training runs."""

import math
import time
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class RunMetrics:
    """One training or evaluation episode, summarised."""

    episode: int
    total_reward: float
    mean_inv_factory: float
    mean_inv_warehouse: float
    mean_rp: float
    stockout_units: int
    wall_time: float


class EpisodeStats:
    """Accumulates step outcomes into a RunMetrics record."""

    __slots__ = ("steps", "total_reward", "sum_inv_factory", "sum_inv_warehouse",
                 "sum_rp", "stockout_units")

    def __init__(self):
        self.steps = 0
        self.total_reward = 0.0
        self.sum_inv_factory = 0
        self.sum_inv_warehouse = 0
        self.sum_rp = 0
        self.stockout_units = 0

    def update(self, outcome):
        ns = outcome.next_state
        self.steps += 1
        self.total_reward += outcome.reward
        self.sum_inv_factory += ns.inv_factory
        self.sum_inv_warehouse += ns.inv_warehouse
        self.sum_rp += ns.rp
        self.stockout_units += outcome.stockout_units

    def to_metrics(self, episode, wall_time):
        n = max(1, self.steps)
        return RunMetrics(
            episode=episode,
            total_reward=self.total_reward,
            mean_inv_factory=self.sum_inv_factory / n,
            mean_inv_warehouse=self.sum_inv_warehouse / n,
            mean_rp=self.sum_rp / n,
            stockout_units=self.stockout_units,
            wall_time=wall_time,
        )


def rollout(env, episodes, steps_per_episode, policy):
    """Run ``episodes`` episodes of ``steps_per_episode`` periods on ``env``.

    ``policy(state)`` starts an episode from its reset state and returns its
    ``(act, observe)`` pair: each period steps ``env`` with ``act()`` and
    hands the outcome to ``observe`` (where a learner updates).  Returns one
    RunMetrics per episode, timed from the reset.  A FloatingPointError
    raised within an episode (a diverged agent) propagates with
    ``episode N: `` prefixed to its message.
    """
    if steps_per_episode < 1:
        raise ValueError("steps_per_episode must be >= 1")
    step = env.step
    history = []
    for episode in range(episodes):
        tic = time.perf_counter()
        try:
            act, observe = policy(env.reset())
            stats = EpisodeStats()
            for _ in range(steps_per_episode):
                outcome = step(act())
                observe(outcome)
                stats.update(outcome)
        except FloatingPointError as exc:
            exc.args = (f"episode {episode}: {exc}",)
            raise
        history.append(stats.to_metrics(episode, time.perf_counter() - tic))
    return history


def compute_ci(samples, use_t=False):
    """95% confidence interval mean +/- q * s / sqrt(n) with the n-1 std.

    The default multiplier is the normal quantile 1.96; pass ``use_t=True``
    for the Student-t quantile instead, which needs scipy (a ValueError
    says so where it is missing).
    """
    values = [float(v) for v in samples]
    n = len(values)
    if n < 2:
        raise ValueError(f"need at least 2 samples for a confidence interval, got {n}")
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    if use_t:
        try:
            from scipy.stats import t as student_t
        except ImportError:
            raise ValueError("the Student-t interval (--t-ci) needs scipy, "
                             "which is not installed") from None
        q = float(student_t.ppf(0.975, df=n - 1))
    else:
        q = 1.96
    half = q * math.sqrt(var) / math.sqrt(n)
    return (mean - half, mean + half)


def moving_average(values, window=10):
    """Trailing mean over ``window`` values; the warm-up uses the prefix."""
    if window < 1:
        raise ValueError(f"window={window} must be >= 1")
    out = []
    acc = 0.0
    values = list(values)
    for i, v in enumerate(values):
        acc += v
        if i >= window:
            acc -= values[i - window]
        out.append(acc / min(window, i + 1))
    return out


def plateau_episode(smoothed, tolerance=0.10):
    """First index after which the sequence stays near its final value.

    "Near" means within ``tolerance * |final|`` of the final entry; a
    constant sequence plateaus at 0.
    """
    values = list(smoothed)
    if not values:
        raise ValueError("empty reward sequence")
    final = values[-1]
    band = tolerance * abs(final)
    idx = 0
    for i in range(len(values) - 1, -1, -1):
        if abs(values[i] - final) > band:
            idx = i + 1
            break
    return idx

