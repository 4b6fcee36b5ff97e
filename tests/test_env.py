import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safestock.env import (
    ActionVector,
    ChainConfig,
    ConfigurationError,
    EnvState,
    IncomingOrders,
    clip_action,
    feasible_bounds,
    new_env,
    observe_local,
    validate_state,
)


def deterministic_config(case=1):
    return ChainConfig.for_case(case, demand_var=0.0, order_std=0.0)


class TestChainConfig:
    def test_case_costs(self):
        c1 = ChainConfig.for_case(1)
        c2 = ChainConfig.for_case(2)
        assert (c1.h_factory, c1.h_warehouse) == (1000.0, 5.0)
        assert (c2.h_factory, c2.h_warehouse) == (5.0, 1000.0)
        assert c1.T_factory == 1 and c1.T_warehouse == 3
        assert c1.capacity == 30 and c1.eta_stockout == 10000.0

    def test_rp_max_above_capacity_rejected(self):
        with pytest.raises(ConfigurationError, match="rp_max=40.*capacity=30"):
            ChainConfig.for_case(1, rp_max=40)

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError, match="h_warehouse"):
            ChainConfig.for_case(1, h_warehouse=-1.0)

    def test_rp_bounds_ordering(self):
        with pytest.raises(ConfigurationError, match="rp_min"):
            ChainConfig.for_case(1, rp_min=5, rp_max=3)

    def test_unknown_case(self):
        with pytest.raises(ValueError, match="case"):
            ChainConfig.for_case(3)

    def test_demand_std_is_sqrt_of_variance(self):
        assert ChainConfig.for_case(1).demand_std == pytest.approx(0.1)


def run_random_steps(env, n, rng, incoming=0):
    outcomes = []
    for _ in range(n):
        raw = rng.normal(8.0, 6.0, size=3)
        action = clip_action(env.state, raw, incoming, env.config)
        out = env.step(action)
        outcomes.append(out)
        incoming = out.incoming.to_warehouse
    return outcomes


class TestSeeding:
    def test_same_seed_identical_demand_sequences(self):
        cfg = ChainConfig.for_case(1)
        env_a = new_env(cfg, 7)
        env_b = new_env(cfg, 7)
        env_a.reset()
        env_b.reset()
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(0)
        out_a = run_random_steps(env_a, 1000, rng_a)
        out_b = run_random_steps(env_b, 1000, rng_b)
        assert out_a == out_b

    def test_different_seed_diverges(self):
        cfg = ChainConfig.for_case(1)
        env_a = new_env(cfg, 7)
        env_b = new_env(cfg, 8)
        env_a.reset()
        env_b.reset()
        demands_a = [o.incoming.demand for o in
                     run_random_steps(env_a, 200, np.random.default_rng(0))]
        demands_b = [o.incoming.demand for o in
                     run_random_steps(env_b, 200, np.random.default_rng(0))]
        # demand is nearly constant at 2; the order/reset draws must differ
        assert env_a.state != env_b.state or demands_a != demands_b

    def test_invalid_config_type(self):
        with pytest.raises(ConfigurationError):
            new_env({"h_factory": 1}, 0)


class TestReset:
    def test_ranges(self):
        env = new_env(ChainConfig.for_case(1), 3)
        for _ in range(100):
            s = env.reset()
            assert 0 <= s.inv_factory <= 30
            assert 0 <= s.inv_warehouse <= 30
            assert 0 <= s.rp <= 6
            assert s.inv_retailer == min(s.rp + 10, 30)
            assert s.t == 0
            assert s.pipeline_fw == () and s.pipeline_wr == ()
            assert s.backlog_w == 0 and s.backlog_f == 0

    def test_reset_deterministic_at_same_stream_position(self):
        env_a = new_env(ChainConfig.for_case(1), 11)
        env_b = new_env(ChainConfig.for_case(1), 11)
        assert env_a.reset() == env_b.reset()
        assert env_a.reset() == env_b.reset()

    def test_uniform_coverage_over_many_resets(self):
        env = new_env(ChainConfig.for_case(1), 5)
        seen_f, seen_w, seen_rp = set(), set(), set()
        for _ in range(10000):
            s = env.reset()
            seen_f.add(s.inv_factory)
            seen_w.add(s.inv_warehouse)
            seen_rp.add(s.rp)
        assert seen_f == set(range(31))
        assert seen_w == set(range(31))
        assert seen_rp == set(range(7))


class TestClipAction:
    cfg = ChainConfig.for_case(1)

    def state(self, inv_f=10, inv_w=10):
        return EnvState(0, inv_f, inv_w, 10, 6)

    def test_upper_bound_capacity_minus_inventory(self):
        a = clip_action(self.state(inv_w=28), (0, 9, 6), 0, self.cfg)
        assert a.q_warehouse == 2

    def test_lower_bound_covers_incoming_order(self):
        a = clip_action(self.state(inv_w=4), (0, 1, 6), 10, self.cfg)
        assert a.q_warehouse == 6

    def test_rp_rounded_then_capped(self):
        a = clip_action(self.state(), (0, 0, 7.6), 0, self.cfg)
        assert a.rp_next == 6

    def test_negative_raw_projected_to_lower_bounds(self):
        a = clip_action(self.state(), (-4.2, -3.9, -1.5), 0, self.cfg)
        assert (a.q_factory, a.q_warehouse, a.rp_next) == (0, 0, 0)

    def test_factory_lower_bound_follows_clipped_warehouse_order(self):
        # q_w clips to 12, factory has 4 -> production at least 8
        a = clip_action(self.state(inv_f=4, inv_w=0), (0, 12.3, 3), 0, self.cfg)
        assert a.q_warehouse == 12
        assert a.q_factory == 8

    def test_infeasible_box_flags_violation(self):
        # order of 40 cannot fit: lower bound 35 > upper bound 25
        a = clip_action(self.state(inv_w=5), (0, 0, 0), 40, self.cfg)
        assert a.q_warehouse == 35
        assert a.capacity_violation

    def test_accepts_action_vector_input(self):
        raw = ActionVector(5, 5, 5)
        a = clip_action(self.state(), raw, 0, self.cfg)
        assert (a.q_factory, a.q_warehouse, a.rp_next) == (5, 5, 5)


CAPACITY = ChainConfig.for_case(1).capacity
finite = st.floats(allow_nan=False, allow_infinity=False)
stock = st.integers(0, CAPACITY)


@settings(max_examples=300, deadline=None)
@given(raw=st.tuples(finite, finite, finite), inv_f=stock, inv_w=stock,
       incoming=st.integers(0, 2 * CAPACITY))
def test_clip_action_lands_in_feasible_box(raw, inv_f, inv_w, incoming):
    cfg = ChainConfig.for_case(1)
    state = EnvState(0, inv_f, inv_w, 10, 3)
    a = clip_action(state, raw, incoming, cfg)
    lo_w, hi_w, hi_f = feasible_bounds(state, incoming, cfg)
    lo_f = max(0, a.q_warehouse - inv_f)
    assert cfg.rp_min <= a.rp_next <= cfg.rp_max
    if a.capacity_violation:
        assert lo_w > hi_w or lo_f > hi_f
    else:
        assert lo_w <= a.q_warehouse <= hi_w
        assert lo_f <= a.q_factory <= hi_f


@settings(max_examples=100, deadline=None)
@given(raw=st.tuples(finite, finite, finite), index=st.integers(0, 2),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_clip_action_rejects_non_finite(raw, index, bad):
    raw = list(raw)
    raw[index] = bad
    name = ("q_factory", "q_warehouse", "rp_next")[index]
    with pytest.raises(ValueError, match=f"{name}={bad}"):
        clip_action(EnvState(0, 10, 10, 10, 3), raw, 0, ChainConfig.for_case(1))


class TestStepRewards:
    def test_holding_only(self):
        # end of period: factory 0, warehouse 13, no stockouts -> -65
        env = new_env(deterministic_config(1), 0)
        env.reset()
        env.state = EnvState(0, 0, 13, 20, 6)
        out = env.step(ActionVector(0, 0, 6))
        assert out.next_state.inv_factory == 0
        assert out.next_state.inv_warehouse == 13
        assert out.stockout_units == 0
        assert out.reward == -65.0

    def test_holding_plus_stockout(self):
        # retailer has 1 unit against demand 2 -> one stockout unit; the
        # in-transit shipment keeps the position above rp, so no reorder
        env = new_env(deterministic_config(1), 0)
        env.reset()
        env.state = EnvState(0, 2, 13, 1, 0, pipeline_wr=((5, 8),))
        out = env.step(ActionVector(0, 0, 0))
        assert out.stockout_units == 1
        assert out.next_state.inv_factory == 2
        assert out.next_state.inv_warehouse == 13
        assert out.reward == -12065.0

    def test_reorder_position_excludes_warehouse_backlog(self):
        # after demand the retailer holds 2 with 3 in transit: position 5 <=
        # rp 6, so it orders, although the 10 units owed would lift it to 15
        env = new_env(deterministic_config(1), 0)
        env.reset()
        env.state = EnvState(0, 0, 0, 4, 6, pipeline_wr=((2, 3),), backlog_w=10)
        out = env.step(ActionVector(0, 0, 6))
        assert out.incoming.to_warehouse == 10
        assert out.next_state.backlog_w == 20


class TestHandTrace:
    """Four deterministic periods traced by hand against the event order."""

    def test_trace(self):
        env = new_env(deterministic_config(1), 0)
        env.reset()
        env.state = EnvState(0, 5, 8, 6, 6)

        out1 = env.step(clip_action(env.state, (4, 3, 6), 0, env.config))
        s1 = out1.next_state
        assert (s1.inv_factory, s1.inv_warehouse, s1.inv_retailer) == (2, 0, 4)
        assert s1.rp == 6
        assert s1.backlog_w == 2 and s1.backlog_f == 0
        assert s1.pipeline_wr == ((3, 8),)
        assert s1.pipeline_fw == ((1, 3),)
        assert s1.pipeline_production == ((1, 4),)
        assert out1.incoming == IncomingOrders(3, 10, 2)
        assert out1.shipped_to_retailer == 8 and out1.shipped_to_warehouse == 3
        assert out1.reward == -2000.0

        out2 = env.step(clip_action(s1, (0, 0, 5), 10, env.config))
        s2 = out2.next_state
        assert (s2.inv_factory, s2.inv_warehouse, s2.inv_retailer) == (0, 1, 2)
        assert s2.rp == 5
        assert s2.backlog_w == 0 and s2.backlog_f == 4
        assert s2.pipeline_wr == ((3, 8), (4, 2))
        assert s2.pipeline_fw == ((2, 6),)
        assert s2.pipeline_production == ((2, 8),)
        assert out2.incoming == IncomingOrders(10, 0, 2)
        assert out2.reward == -5.0

        out3 = env.step(clip_action(s2, (30, 1, 0), 0, env.config))
        s3 = out3.next_state
        assert (s3.inv_factory, s3.inv_warehouse, s3.inv_retailer) == (3, 7, 0)
        assert s3.rp == 0
        assert s3.backlog_f == 0
        assert s3.pipeline_fw == ((3, 5),)
        assert s3.pipeline_production == ((3, 30),)
        assert out3.reward == -3035.0

        # production of 30 lands on 3 on-hand: capped at 30, 3 discarded
        out4 = env.step(clip_action(s3, (0, 0, 0), 0, env.config))
        s4 = out4.next_state
        assert (s4.inv_factory, s4.inv_warehouse, s4.inv_retailer) == (30, 12, 6)
        assert env.ledger.discarded_production == 3
        assert out4.reward == -30060.0


class TestObserveLocal:
    def test_projections(self):
        state = EnvState(0, 5, 9, 3, 4)
        fo, wo, ro = observe_local(state, IncomingOrders(4, 0, 2))
        assert fo == (5, 4)
        assert wo == (9, 0)
        assert ro == (4, 2)

    def test_joint_state_reconstructible(self):
        env = new_env(ChainConfig.for_case(1), 9)
        env.reset()
        out = env.step(ActionVector(3, 2, 5))
        s = out.next_state
        fo, wo, ro = observe_local(s, out.incoming)
        assert fo == out.local_obs_factory
        assert wo == out.local_obs_warehouse
        assert (fo[0], wo[0], ro[0]) == (s.inv_factory, s.inv_warehouse, s.rp)


class TestInvariants:
    def test_random_walk_respects_bounds_and_reward_formula(self):
        cfg = ChainConfig.for_case(2)
        env = new_env(cfg, 21)
        rng = np.random.default_rng(1)
        env.reset()
        incoming = 0
        for _ in range(5000):
            raw = rng.normal(10.0, 12.0, size=3)
            action = clip_action(env.state, raw, incoming, cfg)
            out = env.step(action)
            validate_state(out.next_state, cfg)
            ns = out.next_state
            expected = -(cfg.h_factory * ns.inv_factory
                         + cfg.h_warehouse * ns.inv_warehouse
                         + cfg.eta_stockout * out.stockout_units)
            assert out.reward == expected
            assert out.reward <= 0.0
            if out.reward == 0.0:
                assert (ns.inv_factory, ns.inv_warehouse,
                        out.stockout_units) == (0, 0, 0)
            incoming = out.incoming.to_warehouse

    def test_conservation_over_episode(self):
        cfg = ChainConfig.for_case(1)
        env = new_env(cfg, 33)
        rng = np.random.default_rng(2)
        start = env.reset()
        incoming = 0
        for _ in range(400):
            action = clip_action(env.state, rng.normal(8, 6, size=3), incoming, cfg)
            incoming = env.step(action).incoming.to_warehouse
        # drain pipelines: no production, no orders, demand may still flow
        while (env.state.pipeline_fw or env.state.pipeline_wr
               or env.state.pipeline_production):
            env.step(ActionVector(0, 0, env.state.rp))
        led = env.ledger
        end = env.state
        assert led.produced == (led.production_credited
                                + led.discarded_production)
        assert led.shipped_fw == led.credited_fw + led.discarded_fw
        assert led.shipped_wr == led.credited_wr + led.discarded_wr
        assert end.inv_factory == (start.inv_factory + led.production_credited
                                   - led.shipped_fw)
        assert end.inv_warehouse == (start.inv_warehouse + led.credited_fw
                                     - led.shipped_wr)
        assert end.inv_retailer == (start.inv_retailer + led.credited_wr
                                    - led.served_units)
        assert led.served_units == led.demand_units - led.stockout_units

    def test_zero_variance_trajectory_is_seed_independent(self):
        cfg = deterministic_config(1)
        actions = [(5, 4, 6), (0, 10, 5), (2, 0, 4), (7, 7, 6)] * 10
        trajectories = []
        for seed in (1, 99):
            env = new_env(cfg, seed)
            env.reset()
            env.state = EnvState(0, 12, 9, 16, 6)
            env.ledger = type(env.ledger)()
            incoming = 0
            trace = []
            for raw in actions:
                out = env.step(clip_action(env.state, raw, incoming, cfg))
                incoming = out.incoming.to_warehouse
                trace.append(out)
            trajectories.append(trace)
        assert trajectories[0] == trajectories[1]
