"""Pull-based three-echelon supply chain simulator.

One step simulates a full period: pipeline arrivals, consumer demand at the
retailer, (Q, r_p) reordering, warehouse and factory fulfilment with shipping
delays, delayed production, then holding/stockout accounting.  The joint
reward is minus the factory/warehouse holding cost plus a per-unit stockout
penalty for consumer demand the retailer could not serve.

Event order within a period (period index t):

1. arrivals due at t are credited (production to factory, factory shipments
   to warehouse, warehouse shipments to retailer); anything above capacity
   is discarded and counted in the ledger
2. consumer demand is drawn, served from retailer on-hand; unmet units are
   lost and counted as stockouts
3. if the retailer inventory position (on-hand + in-transit; what the
   warehouse still owes is not counted) is at or below r_p, the retailer
   orders a random quantity
4. the warehouse ships what it can against new and backlogged retailer
   orders (transit time T_warehouse); the shortfall stays backlogged
5. the factory ships against the warehouse's order plus backlog (transit
   time T_factory)
6. factory production is scheduled and arrives after T_factory periods
7. holding cost accrues on end-of-period factory/warehouse inventory and
   r_p is replaced by the action's rp_next
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class ConfigurationError(ValueError):
    """A chain parameter violates one of its bounds."""


@dataclass(frozen=True)
class ChainConfig:
    """Cost, lead-time, capacity and demand parameters of the chain.

    ``demand_var`` is a variance (the consumer demand std is its square
    root); the retailer order stream has an explicit std ``order_std``.
    """

    h_factory: float
    h_warehouse: float
    T_factory: int = 1
    T_warehouse: int = 3
    S_retailer: int = 0
    capacity: int = 30
    eta_stockout: float = 10_000.0
    demand_mean: float = 2.0
    demand_var: float = 0.01
    order_mean: float = 10.0
    order_std: float = 1.0
    rp_min: int = 0
    rp_max: int = 6
    z_target: float = 3.0

    def __post_init__(self):
        for name in (
            "h_factory", "h_warehouse", "T_factory", "T_warehouse",
            "S_retailer", "capacity", "eta_stockout", "demand_mean",
            "demand_var", "order_mean", "order_std", "rp_min", "rp_max",
            "z_target",
        ):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ConfigurationError(f"{name}={value} must be finite and >= 0")
        if self.rp_min > self.rp_max:
            raise ConfigurationError(
                f"rp_min={self.rp_min} must not exceed rp_max={self.rp_max}")
        if self.rp_max > self.capacity:
            raise ConfigurationError(
                f"rp_max={self.rp_max} must not exceed capacity={self.capacity}")

    @property
    def demand_std(self):
        return math.sqrt(self.demand_var)

    @classmethod
    def for_case(cls, case, **overrides):
        """Config for cost case 1 (expensive factory) or 2 (expensive warehouse)."""
        if case == 1:
            params = {"h_factory": 1000.0, "h_warehouse": 5.0}
        elif case == 2:
            params = {"h_factory": 5.0, "h_warehouse": 1000.0}
        else:
            raise ValueError(f"unknown cost case {case!r}; expected 1 or 2")
        params.update(overrides)
        return cls(**params)


@dataclass(frozen=True)
class EnvState:
    """Joint chain state at the start of period ``t``.

    Pipelines are tuples of (arrival_period, quantity).  ``backlog_w`` is
    what the warehouse owes the retailer, ``backlog_f`` what the factory
    owes the warehouse.
    """

    t: int
    inv_factory: int
    inv_warehouse: int
    inv_retailer: int
    rp: int
    pipeline_fw: tuple = ()
    pipeline_wr: tuple = ()
    pipeline_production: tuple = ()
    backlog_w: int = 0
    backlog_f: int = 0


@dataclass(frozen=True)
class ActionVector:
    """A clipped joint action: production, warehouse order, next reorder point.

    ``capacity_violation`` flags that the feasibility box was empty and the
    demand-coverage lower bound won over the capacity upper bound.
    """

    q_factory: int
    q_warehouse: int
    rp_next: int
    capacity_violation: bool = False


class IncomingOrders(NamedTuple):
    """Orders and demand observed during one simulated period."""

    to_factory: int     # warehouse order placed on the factory (the action's q_warehouse)
    to_warehouse: int   # retailer order placed on the warehouse this period
    demand: int         # consumer demand seen by the retailer this period


@dataclass(frozen=True)
class StepOutcome:
    next_state: EnvState
    reward: float
    stockout_units: int
    shipped_to_retailer: int
    shipped_to_warehouse: int
    local_obs_factory: tuple
    local_obs_warehouse: tuple
    incoming: IncomingOrders


@dataclass
class ChainLedger:
    """Per-episode conservation accounting, reset on every ``reset()``."""

    produced: int = 0
    production_credited: int = 0
    discarded_production: int = 0
    shipped_fw: int = 0
    credited_fw: int = 0
    discarded_fw: int = 0
    shipped_wr: int = 0
    credited_wr: int = 0
    discarded_wr: int = 0
    demand_units: int = 0
    served_units: int = 0
    stockout_units: int = 0


def feasible_bounds(state, incoming_order, config):
    """Bounds (lo_w, hi_w, hi_f) of the action box for ``state``.

    The warehouse order must cover the incoming retailer order and fit the
    warehouse; production must fit the factory.  The production lower bound
    depends on the chosen warehouse order: max(0, q_warehouse - inv_factory).
    """
    lo_w = max(0, incoming_order - state.inv_warehouse)
    hi_w = config.capacity - state.inv_warehouse
    hi_f = config.capacity - state.inv_factory
    return lo_w, hi_w, hi_f


def _round(x):
    return int(np.rint(x))


def clip_action(state, raw, incoming_order, config):
    """Round ``raw`` to integers and project it onto the feasible box.

    ``raw`` may be an ActionVector or any (q_factory, q_warehouse, rp_next)
    triple of finite numbers, e.g. a Gaussian policy sample; a NaN or
    infinite component raises ValueError.  If a box is empty (demand
    coverage exceeds free capacity) the lower bound wins and the result is
    flagged as a capacity violation.
    """
    if isinstance(raw, ActionVector):
        raw = (raw.q_factory, raw.q_warehouse, raw.rp_next)
    q_f_raw, q_w_raw, rp_raw = (float(v) for v in raw)
    if not (math.isfinite(q_f_raw) and math.isfinite(q_w_raw)
            and math.isfinite(rp_raw)):
        for name, value in (("q_factory", q_f_raw), ("q_warehouse", q_w_raw),
                            ("rp_next", rp_raw)):
            if not math.isfinite(value):
                raise ValueError(f"non-finite action component {name}={value}")
    lo_w, hi_w, hi_f = feasible_bounds(state, incoming_order, config)
    violated = False
    if lo_w > hi_w:
        q_w = lo_w
        violated = True
    else:
        q_w = min(max(_round(q_w_raw), lo_w), hi_w)
    lo_f = max(0, q_w - state.inv_factory)
    if lo_f > hi_f:
        q_f = lo_f
        violated = True
    else:
        q_f = min(max(_round(q_f_raw), lo_f), hi_f)
    rp = min(max(_round(rp_raw), config.rp_min), config.rp_max)
    return ActionVector(q_f, q_w, rp, violated)


def observe_local(state, incoming):
    """Project the joint state onto the three agents' local views.

    Returns ``(factory_obs, warehouse_obs, retailer_obs)`` where each
    observation pairs the agent's own inventory level (reorder point for the
    retailer) with the demand it saw this period.
    """
    return (
        (state.inv_factory, incoming.to_factory),
        (state.inv_warehouse, incoming.to_warehouse),
        (state.rp, incoming.demand),
    )


def _collect_arrivals(pipeline, t):
    due = 0
    remaining = []
    for arrival, qty in pipeline:
        if arrival <= t:
            due += qty
        else:
            remaining.append((arrival, qty))
    return due, tuple(remaining)


class Env:
    """Sequential simulator; one instance per trajectory, seeded RNG stream."""

    def __init__(self, config, seed):
        self.config = config
        self.rng = np.random.default_rng(int(seed))
        self.state = None
        self.ledger = ChainLedger()

    def reset(self):
        """Draw a fresh initial state: uniform factory/warehouse stock and
        reorder point, retailer primed with rp + mean order so early
        stockouts reflect policy rather than initialisation."""
        cfg = self.config
        inv_f = int(self.rng.integers(0, cfg.capacity + 1))
        inv_w = int(self.rng.integers(0, cfg.capacity + 1))
        rp = int(self.rng.integers(cfg.rp_min, cfg.rp_max + 1))
        inv_r = min(rp + _round(cfg.order_mean), cfg.capacity)
        self.state = EnvState(0, inv_f, inv_w, inv_r, rp)
        self.ledger = ChainLedger()
        return self.state

    def _credit(self, on_hand, due):
        kept = min(due, self.config.capacity - on_hand)
        return on_hand + kept, due - kept

    def step(self, action):
        """Advance one period.  ``action`` must already be clipped."""
        cfg = self.config
        s = self.state
        led = self.ledger
        t = s.t

        # 1. arrivals
        due_prod, pipe_prod = _collect_arrivals(s.pipeline_production, t)
        due_fw, pipe_fw = _collect_arrivals(s.pipeline_fw, t)
        due_wr, pipe_wr = _collect_arrivals(s.pipeline_wr, t)
        inv_f, disc_prod = self._credit(s.inv_factory, due_prod)
        inv_w, disc_fw = self._credit(s.inv_warehouse, due_fw)
        inv_r, disc_wr = self._credit(s.inv_retailer, due_wr)
        led.production_credited += due_prod - disc_prod
        led.discarded_production += disc_prod
        led.credited_fw += due_fw - disc_fw
        led.discarded_fw += disc_fw
        led.credited_wr += due_wr - disc_wr
        led.discarded_wr += disc_wr

        # 2. consumer demand, lost sales
        demand = _round(max(0.0, self.rng.normal(cfg.demand_mean, cfg.demand_std)))
        served = min(demand, inv_r)
        inv_r -= served
        stockouts = demand - served
        led.demand_units += demand
        led.served_units += served
        led.stockout_units += stockouts

        # 3. retailer reorder on inventory position (on-hand + in-transit;
        # the warehouse backlog is not counted, and consumer demand is lost,
        # never backordered)
        in_transit = sum(q for _, q in pipe_wr)
        position = inv_r + in_transit
        if position <= s.rp:
            q_r = _round(max(0.0, self.rng.normal(cfg.order_mean, cfg.order_std)))
            q_r = min(q_r, cfg.capacity)
        else:
            q_r = 0

        # 4. warehouse ships against new order plus backlog
        owed_w = q_r + s.backlog_w
        ship_wr = min(owed_w, inv_w)
        inv_w -= ship_wr
        backlog_w = owed_w - ship_wr
        if ship_wr:
            pipe_wr = pipe_wr + ((t + cfg.T_warehouse, ship_wr),)
        led.shipped_wr += ship_wr

        # 5. factory ships against the warehouse order plus backlog
        owed_f = action.q_warehouse + s.backlog_f
        ship_fw = min(owed_f, inv_f)
        inv_f -= ship_fw
        backlog_f = owed_f - ship_fw
        if ship_fw:
            pipe_fw = pipe_fw + ((t + cfg.T_factory, ship_fw),)
        led.shipped_fw += ship_fw

        # 6. production scheduled
        if action.q_factory:
            pipe_prod = pipe_prod + ((t + cfg.T_factory, action.q_factory),)
        led.produced += action.q_factory

        # 7. holding/stockout accounting
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
        self.state = next_state
        incoming = IncomingOrders(action.q_warehouse, q_r, demand)
        return StepOutcome(
            next_state=next_state,
            reward=reward,
            stockout_units=stockouts,
            shipped_to_retailer=ship_wr,
            shipped_to_warehouse=ship_fw,
            local_obs_factory=(inv_f, action.q_warehouse),
            local_obs_warehouse=(inv_w, q_r),
            incoming=incoming,
        )


def new_env(config, seed):
    """Build a simulator whose randomness derives solely from ``seed``."""
    if not isinstance(config, ChainConfig):
        raise ConfigurationError(f"expected a ChainConfig, got {type(config).__name__}")
    return Env(config, seed)


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
