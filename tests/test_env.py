import copy
import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safestock.env import (
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
from safestock.actor_critic import local_obs_vectors
from safestock.gsm import analytical_targets
from safestock.qlearning import QHyper, train_q


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

    @pytest.mark.parametrize("name", ["T_factory", "T_warehouse", "capacity",
                                      "rp_min", "rp_max"])
    @pytest.mark.parametrize("value", [2.5, 30.5, 3.0, True, "3", np.int64(3)])
    def test_integer_field_rejects_non_int(self, name, value):
        # T_warehouse=2.5 used to train with a shipment due at period 4.5,
        # and capacity=30.5 to fail deep inside with a TypeError
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"{name}={value!r} must be an integer")) as err:
            ChainConfig.for_case(1, **{name: value})
        assert err.value.fields == (name,)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ChainConfig)])
    def test_every_field_changes_a_run(self, name):
        # a field that moves neither the simulated chain nor its GSM answer
        # is a setting that does nothing
        def outcome(config):
            _, train = train_q(new_env(config, 3), QHyper(), 3, 40,
                               rng=np.random.default_rng(4))
            return ([(m.total_reward, m.mean_inv_factory, m.mean_inv_warehouse,
                      m.mean_rp, m.stockout_units) for m in train],
                    analytical_targets(1, config))
        base = ChainConfig.for_case(1)
        other = dataclasses.replace(base, **{name: getattr(base, name) + 1})
        assert outcome(other) != outcome(base)


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

    @pytest.mark.parametrize("lead", ["T_factory", "T_warehouse"])
    def test_zero_lead_time_rejected(self, lead):
        with pytest.raises(ConfigurationError, match=f"{lead}=0 must be >= 1"):
            new_env(ChainConfig.for_case(1, **{lead: 0}), 1)

    def test_invalid_config_type(self):
        with pytest.raises(ConfigurationError):
            new_env({"h_factory": 1}, 0)

    @pytest.mark.parametrize("config, message", [
        (ChainConfig.for_case(1, T_factory=0), "T_factory=0 must be >= 1"),
        ({"h_factory": 1}, "expected a ChainConfig, got dict"),
    ], ids=["zero-lead-time", "dict"])
    def test_env_checks_what_new_env_checks(self, config, message):
        # Env is exported: built directly, it must refuse what new_env refuses
        with pytest.raises(ConfigurationError, match=message):
            Env(config, 0)


class TestBoundEnv:
    """``Env`` binds the config's constants and its generator's draw at
    construction; the bindings must not drift from what it reports."""

    def test_config_and_rng_are_read_only(self):
        env = new_env(ChainConfig.for_case(1), 3)
        with pytest.raises(AttributeError):
            env.config = ChainConfig.for_case(2)
        with pytest.raises(AttributeError):
            env.rng = np.random.default_rng(0)
        assert env.config == ChainConfig.for_case(1)

    @pytest.mark.parametrize("clone", [
        copy.deepcopy, lambda env: pickle.loads(pickle.dumps(env))],
        ids=["deepcopy", "pickle"])
    def test_copy_steps_bit_identically(self, clone):
        cfg = ChainConfig.for_case(2, demand_var=4.0, order_std=3.0)
        env = new_env(cfg, 17)
        env.reset()
        run_random_steps(env, 25, np.random.default_rng(4))
        twin = clone(env)
        assert twin.config == env.config and twin.state == env.state
        assert twin.rng is not env.rng and twin.ledger is not env.ledger
        a = run_random_steps(env, 200, np.random.default_rng(5))
        b = run_random_steps(twin, 200, np.random.default_rng(5))
        assert repr(a) == repr(b)
        assert vars(env.ledger) == vars(twin.ledger)
        assert env.rng.bit_generator.state == twin.rng.bit_generator.state
        # the resets draw from the same positions of both streams, too
        assert env.reset() == twin.reset()

    @pytest.mark.parametrize("clone", [
        copy.deepcopy, lambda env: pickle.loads(pickle.dumps(env))],
        ids=["deepcopy", "pickle"])
    def test_copy_draws_from_its_own_generator(self, clone):
        env = new_env(ChainConfig.for_case(1, demand_var=4.0), 8)
        env.reset()
        twin = clone(env)
        before = env.rng.bit_generator.state
        twin.step(ActionVector(0, 0, twin.state.rp))
        assert env.rng.bit_generator.state == before
        assert twin.rng.bit_generator.state != before


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



@settings(max_examples=100, deadline=None)
@given(raw=st.tuples(finite, finite, finite), index=st.integers(0, 2),
       inv_f=stock, inv_w=stock, incoming=st.integers(0, 2 * CAPACITY))
def test_array_list_and_tuple_clip_alike(raw, index, inv_f, inv_w, incoming):
    # a policy sample arrives as a float64 array, unpacked in one call
    cfg = ChainConfig.for_case(1)
    state = EnvState(0, inv_f, inv_w, 10, 3)
    a = clip_action(state, np.array(raw), incoming, cfg)
    assert clip_action(state, list(raw), incoming, cfg) == a
    assert clip_action(state, tuple(raw), incoming, cfg) == a
    assert type(a.q_factory) is type(a.q_warehouse) is type(a.rp_next) is int
    bad = np.array(raw)
    bad[index] = np.nan
    name = ("q_factory", "q_warehouse", "rp_next")[index]
    with pytest.raises(ValueError, match=f"{name}=nan"):
        clip_action(state, bad, incoming, cfg)


@st.composite
def chain_configs(draw):
    """Any ChainConfig that passes its own validation and ``new_env``'s."""
    capacity = draw(st.integers(1, 40))
    rp_max = draw(st.integers(0, capacity))
    level = st.floats(0.0, float(capacity))
    cost = st.floats(0.0, 1e4)
    return ChainConfig(
        h_factory=draw(cost), h_warehouse=draw(cost),
        T_factory=draw(st.integers(1, 4)), T_warehouse=draw(st.integers(1, 5)),
        capacity=capacity, eta_stockout=draw(cost),
        demand_mean=draw(level), demand_var=draw(st.floats(0.0, 9.0)),
        order_mean=draw(level), order_std=draw(st.floats(0.0, 5.0)),
        rp_min=draw(st.integers(0, rp_max)), rp_max=rp_max)


@settings(max_examples=300, deadline=None)
@given(cfg=chain_configs(), seed=st.integers(0, 2 ** 32 - 1),
       draws=st.integers(1, 50))
def test_scaled_standard_normal_matches_generator_normal(cfg, seed, draws):
    """``Env.step`` draws ``mean + std * standard_normal()``; it must give
    ``Generator.normal(mean, std)``'s bits and leave the stream where that
    call does (a fused multiply-add, say, would differ in the last ulp)."""
    for mean, std in ((cfg.demand_mean, cfg.demand_std),
                      (cfg.order_mean, cfg.order_std), (cfg.demand_mean, 0.0)):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(draws):
            x = mean + std * ours.standard_normal()
            y = numpys.normal(mean, std)
            assert type(x) is type(y) is float
            assert x.hex() == y.hex()
        assert ours.bit_generator.state == numpys.bit_generator.state


def pipeline_units(pipe):
    return sum(qty for _, qty in pipe)


def validate_state(state, config):
    """Raise AssertionError if ``state`` breaks a structural invariant."""
    cap = config.capacity
    assert 0 <= state.inv_factory <= cap, state
    assert 0 <= state.inv_warehouse <= cap, state
    assert 0 <= state.inv_retailer <= cap, state
    assert config.rp_min <= state.rp <= config.rp_max, state
    assert state.backlog_w >= 0 and state.backlog_f >= 0, state
    for pipe in (state.pipeline_fw, state.pipeline_wr, state.pipeline_production):
        for arrival, qty in pipe:
            assert qty >= 0 and arrival >= state.t, state


@settings(max_examples=150, deadline=None)
@given(cfg=chain_configs(), seed=st.integers(0, 2 ** 32 - 1),
       raws=st.lists(st.tuples(*[st.floats(-50.0, 80.0)] * 3), min_size=1,
                     max_size=60))
def test_ledger_and_state_invariants_hold_after_every_step(cfg, seed, raws):
    env = new_env(cfg, seed)
    start = env.reset()
    validate_state(start, cfg)
    incoming = 0
    for raw in raws:
        out = env.step(clip_action(env.state, raw, incoming, cfg))
        incoming = out.incoming.to_warehouse
        s, led = out.next_state, env.ledger
        validate_state(s, cfg)
        # every unit shipped or produced is credited, discarded or in a pipeline
        assert led.produced == (led.production_credited + led.discarded_production
                                + pipeline_units(s.pipeline_production))
        assert led.shipped_fw == (led.credited_fw + led.discarded_fw
                                  + pipeline_units(s.pipeline_fw))
        assert led.shipped_wr == (led.credited_wr + led.discarded_wr
                                  + pipeline_units(s.pipeline_wr))
        # on-hand stock is what came in minus what went out
        assert s.inv_factory == (start.inv_factory + led.production_credited
                                 - led.shipped_fw)
        assert s.inv_warehouse == (start.inv_warehouse + led.credited_fw
                                   - led.shipped_wr)
        assert s.inv_retailer == (start.inv_retailer + led.credited_wr
                                  - led.served_units)
        assert led.served_units + led.stockout_units == led.demand_units


def _reference_collect(pipeline, t):
    if not pipeline or pipeline[0][0] > t:
        return 0, pipeline
    due = 0
    remaining = []
    for arrival, qty in pipeline:
        if arrival <= t:
            due += qty
        else:
            remaining.append((arrival, qty))
    return due, tuple(remaining)


def reference_step(env, action):
    """The earlier ``Env.step``, kept as the bit-for-bit reference.

    It collects every pipeline and credits every amount through a helper,
    on every period; the simulator's own step credits a pipeline's head
    inline, only when it is due.
    """
    def credit(on_hand, due):
        kept = min(due, env.config.capacity - on_hand)
        return on_hand + kept, due - kept

    cfg = env.config
    s = env.state
    led = env.ledger
    t = s.t

    due_prod, pipe_prod = _reference_collect(s.pipeline_production, t)
    due_fw, pipe_fw = _reference_collect(s.pipeline_fw, t)
    due_wr, pipe_wr = _reference_collect(s.pipeline_wr, t)
    inv_f, disc_prod = credit(s.inv_factory, due_prod)
    inv_w, disc_fw = credit(s.inv_warehouse, due_fw)
    inv_r, disc_wr = credit(s.inv_retailer, due_wr)
    led.production_credited += due_prod - disc_prod
    led.discarded_production += disc_prod
    led.credited_fw += due_fw - disc_fw
    led.discarded_fw += disc_fw
    led.credited_wr += due_wr - disc_wr
    led.discarded_wr += disc_wr

    demand = round(max(0.0, env.rng.normal(cfg.demand_mean, cfg.demand_std)))
    served = min(demand, inv_r)
    inv_r -= served
    stockouts = demand - served
    led.demand_units += demand
    led.served_units += served
    led.stockout_units += stockouts

    in_transit = sum(q for _, q in pipe_wr)
    position = inv_r + in_transit
    if position <= s.rp:
        q_r = round(max(0.0, env.rng.normal(cfg.order_mean, cfg.order_std)))
        q_r = min(q_r, cfg.capacity)
    else:
        q_r = 0

    owed_w = q_r + s.backlog_w
    ship_wr = min(owed_w, inv_w)
    inv_w -= ship_wr
    backlog_w = owed_w - ship_wr
    if ship_wr:
        pipe_wr = pipe_wr + ((t + cfg.T_warehouse, ship_wr),)
    led.shipped_wr += ship_wr

    owed_f = action.q_warehouse + s.backlog_f
    ship_fw = min(owed_f, inv_f)
    inv_f -= ship_fw
    backlog_f = owed_f - ship_fw
    if ship_fw:
        pipe_fw = pipe_fw + ((t + cfg.T_factory, ship_fw),)
    led.shipped_fw += ship_fw

    if action.q_factory:
        pipe_prod = pipe_prod + ((t + cfg.T_factory, action.q_factory),)
    led.produced += action.q_factory

    reward = -(cfg.h_factory * inv_f + cfg.h_warehouse * inv_w
               + cfg.eta_stockout * stockouts)
    next_state = EnvState(
        t=t + 1,
        inv_factory=inv_f,
        inv_warehouse=inv_w,
        inv_retailer=inv_r,
        rp=action.rp_next,
        pipeline_fw=pipe_fw,
        pipeline_wr=pipe_wr,
        pipeline_production=pipe_prod,
        backlog_w=backlog_w,
        backlog_f=backlog_f,
    )
    env.state = next_state
    incoming = IncomingOrders(action.q_warehouse, q_r, demand)
    return StepOutcome(
        next_state=next_state,
        reward=reward,
        stockout_units=stockouts,
        shipped_to_retailer=ship_wr,
        shipped_to_warehouse=ship_fw,
        incoming=incoming,
    )


@st.composite
def pipelines(draw, t, capacity):
    """A pipeline in arrival order whose entries arrive from ``t`` on: the
    head may be due or not, and several entries may be due at once."""
    arrivals = sorted(draw(st.lists(st.integers(t, t + 4), max_size=5)))
    return tuple((arrival, draw(st.integers(0, capacity))) for arrival in arrivals)


@st.composite
def start_states(draw, cfg):
    """A hand-built state that ``validate_state`` accepts."""
    t = draw(st.integers(0, 50))
    stock = st.integers(0, cfg.capacity)
    backlog = st.integers(0, 2 * cfg.capacity)
    return EnvState(
        t, draw(stock), draw(stock), draw(stock),
        draw(st.integers(cfg.rp_min, cfg.rp_max)),
        draw(pipelines(t, cfg.capacity)), draw(pipelines(t, cfg.capacity)),
        draw(pipelines(t, cfg.capacity)), draw(backlog), draw(backlog))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), cfg=chain_configs(), seed=st.integers(0, 2 ** 32 - 1),
       raws=st.lists(st.tuples(*[st.floats(-50.0, 80.0)] * 3), min_size=1,
                     max_size=40))
def test_step_matches_reference_bit_for_bit(data, cfg, seed, raws):
    env, ref = new_env(cfg, seed), new_env(cfg, seed)
    env.reset()
    ref.reset()
    if data.draw(st.booleans(), "hand-built start"):
        env.state = ref.state = data.draw(start_states(cfg), "start")
        validate_state(env.state, cfg)
    incoming = data.draw(st.integers(0, 2 * cfg.capacity), "incoming")
    for raw in raws:
        action = clip_action(env.state, raw, incoming, cfg)
        out, expected = env.step(action), reference_step(ref, action)
        # repr round-trips floats, so it also tells -0.0 from 0.0, and it
        # tells numpy integers from Python ones
        assert out == expected and repr(out) == repr(expected)
        for name, value in vars(ref.ledger).items():
            assert repr(getattr(env.ledger, name)) == repr(value), name
        assert env.state is out.next_state
        assert env.rng.bit_generator.state == ref.rng.bit_generator.state
        incoming = out.incoming.to_warehouse


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
    """The agents' local views are projected from the joint state and the
    step's ``IncomingOrders``; ``StepOutcome`` carries no copy of them."""

    def test_projections(self):
        state = EnvState(0, 5, 9, 3, 4)
        views = local_obs_vectors(state, IncomingOrders(4, 0, 2), 1.0)
        assert views.tolist() == [[5, 4], [9, 0], [4, 2]]

    def test_joint_state_reconstructible(self):
        env = new_env(ChainConfig.for_case(1), 9)
        env.reset()
        out = env.step(ActionVector(3, 2, 5))
        s = out.next_state
        views = local_obs_vectors(s, out.incoming, 1.0)
        assert views[:, 0].tolist() == [s.inv_factory, s.inv_warehouse, s.rp]
        assert views[:, 1].tolist() == list(out.incoming)
        assert out.incoming.to_factory == 2
        assert not hasattr(out, "local_obs_factory")


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
