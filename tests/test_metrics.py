import copy
import dataclasses
import math
import pickle
import sys

import numpy as np
import pytest

from safestock.env import ActionVector, ChainConfig, new_env
from safestock.metrics import (
    EpisodeStats,
    RunMetrics,
    compute_ci,
    moving_average,
    plateau_episode,
    rollout,
)


class TestRecords:
    def test_run_metrics_is_a_frozen_slotted_record(self):
        m = RunMetrics(3, -1.5, 2.0, 3.0, 4.0, 5, 0.25)
        assert not hasattr(m, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.total_reward = 0.0
        assert pickle.loads(pickle.dumps(m)) == m == copy.deepcopy(m)
        assert dataclasses.asdict(m)["stockout_units"] == 5

    def test_episode_stats_has_slots_and_a_class_level_update(self):
        stats = EpisodeStats()
        with pytest.raises(AttributeError):
            stats.extra = 1
        assert "update" in vars(EpisodeStats)   # where a tracer hooks it


class TestComputeCi:
    def test_hand_computed_example(self):
        low, high = compute_ci([2, 4, 4, 4, 5, 5, 7, 9])
        assert low == pytest.approx(3.52, abs=0.01)
        assert high == pytest.approx(6.48, abs=0.01)

    def test_constant_samples_zero_width(self):
        assert compute_ci([5, 5, 5, 5]) == (5.0, 5.0)

    def test_symmetric_about_mean(self):
        values = [1.0, 2.5, 4.0, 7.0, 9.5]
        low, high = compute_ci(values)
        mean = sum(values) / len(values)
        assert (mean - low) == pytest.approx(high - mean, rel=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            compute_ci([1.0])

    def test_t_interval_is_wider(self):
        values = [2, 4, 4, 4, 5, 5, 7, 9]
        n_low, n_high = compute_ci(values)
        t_low, t_high = compute_ci(values, use_t=True)
        assert t_low < n_low and t_high > n_high

    def test_t_interval_without_scipy_says_it_needs_scipy(self, monkeypatch):
        for name in ("scipy", "scipy.stats"):
            monkeypatch.setitem(sys.modules, name, None)
        with pytest.raises(ValueError, match=r"^the Student-t interval \(--t-ci\) needs scipy"):
            compute_ci([2, 4, 4, 5], use_t=True)
        assert compute_ci([2, 4, 4, 5]) == compute_ci([2, 4, 4, 5], use_t=False)


class TestMovingAverage:
    def test_constant_input(self):
        assert moving_average([1.0] * 25, 10) == [1.0] * 25

    def test_two_values_window_two(self):
        assert moving_average([0.0, 10.0], 2) == [0.0, 5.0]

    def test_linear_ramp_tail(self):
        ramp = list(range(1, 101))
        smoothed = moving_average(ramp, 10)
        assert smoothed[-1] == pytest.approx(95.5)   # mean of 91..100
        assert smoothed[0] == 1.0
        assert smoothed[4] == pytest.approx(3.0)     # prefix warm-up

    def test_window_validation(self):
        with pytest.raises(ValueError):
            moving_average([1.0], 0)


class TestPlateauEpisode:
    def test_constant_sequence(self):
        assert plateau_episode([3.0] * 40) == 0

    def test_step_function(self):
        values = [-100.0] * 17 + [-10.0] * 23
        assert plateau_episode(values) == 17

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            plateau_episode([])

    def test_exponential_approach_matches_analytic_crossing(self):
        # v(t) = -100 - 80 exp(-t/tau): last excursion beyond the 10% band
        # around the final value is predictable in closed form
        tau, n = 60.0, 900
        rng = np.random.default_rng(6)
        raw = [-100.0 - 80.0 * math.exp(-t / tau) + rng.normal(0, 0.05)
               for t in range(n)]
        smoothed = moving_average(raw, 10)
        final = smoothed[-1]
        band = 0.10 * abs(final)
        # closed form on the noise-free signal: 80 exp(-t/tau) - gap = band
        gap = 80.0 * math.exp(-(n - 5.5) / tau)
        analytic = -tau * math.log((band + gap) / 80.0)
        measured = plateau_episode(smoothed)
        assert measured == pytest.approx(analytic + 4.5, abs=0.1 * analytic)


class TestRollout:
    def constant_policy(self, seen, fail_at=None):
        """Order nothing; record each episode's outcomes; raise at ``fail_at``."""
        def start(state):
            seen.append([])
            if len(seen) - 1 == fail_at:
                raise FloatingPointError("diverged")
            return (lambda: ActionVector(0, 0, state.rp)), seen[-1].append
        return start

    def test_one_record_per_episode_from_observed_outcomes(self):
        seen = []
        history = rollout(new_env(ChainConfig.for_case(1), 3), 3, 4,
                          self.constant_policy(seen))
        assert [m.episode for m in history] == [0, 1, 2]
        for m, outcomes in zip(history, seen):
            assert len(outcomes) == 4
            assert m.total_reward == sum(o.reward for o in outcomes)
            assert m.stockout_units == sum(o.stockout_units for o in outcomes)
            assert m.wall_time > 0

    def test_floating_point_error_names_the_episode(self):
        with pytest.raises(FloatingPointError, match="^episode 2: diverged$"):
            rollout(new_env(ChainConfig.for_case(1), 3), 4, 2,
                    self.constant_policy([], fail_at=2))

    def test_needs_one_step_per_episode(self):
        with pytest.raises(ValueError, match="steps_per_episode must be >= 1"):
            rollout(new_env(ChainConfig.for_case(1), 3), 1, 0, self.constant_policy([]))
