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

``ChainConfig`` rejects a lead time, capacity or reorder bound that is not an
``int``, and a lead time under one period, so step 1 credits at most each
pipeline's head (see ``EnvState``).  ``Env`` binds the config's constants and
its generator's ``standard_normal`` once, so its ``config`` and ``rng`` are
read-only.  A normal draw is ``mean + std * standard_normal()``, which gives
the bits and the stream position of ``Generator.normal(mean, std)``.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


def cost_case(raw):
    """``raw`` as a cost case, 1 or 2, else ValueError."""
    case = int(raw)
    if case not in (1, 2):
        raise ValueError(f"unknown cost case {case}; expected 1 or 2")
    return case


class ConfigurationError(ValueError):
    """A chain parameter violates one of its bounds; ``fields`` names the
    parameters involved."""

    def __init__(self, message, fields=()):
        super().__init__(message)
        self.fields = tuple(fields)


def _check_integers(obj, names):
    """Refuse a field of ``obj`` named in ``names`` that is not an ``int``."""
    for name in names:
        value = getattr(obj, name)
        if type(value) is bool or not isinstance(value, int):
            raise ConfigurationError(f"{name}={value!r} must be an integer", (name,))


@dataclass(frozen=True)
class ChainConfig:
    """Cost, lead-time, capacity and demand parameters of the chain.

    ``demand_var`` is a variance (the consumer demand std is its square
    root); the retailer order stream has an explicit std ``order_std``.
    Lead times, ``capacity`` and the reorder bounds count whole periods or
    units and must be ``int`` (not ``bool``); a lead time is at least one
    period, as ``Env.step`` needs (see ``EnvState``).
    """

    h_factory: float
    h_warehouse: float
    T_factory: int = 1
    T_warehouse: int = 3
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
        _check_integers(self, ("T_factory", "T_warehouse", "capacity", "rp_min", "rp_max"))
        for name in (
            "h_factory", "h_warehouse", "T_factory", "T_warehouse",
            "capacity", "eta_stockout", "demand_mean", "demand_var",
            "order_mean", "order_std", "rp_min", "rp_max", "z_target",
        ):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ConfigurationError(f"{name}={value} must be finite and >= 0",
                                         (name,))
        # the agents observe levels as fractions of the capacity
        for name in ("capacity", "T_factory", "T_warehouse"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name}={getattr(self, name)} must be >= 1",
                                         (name,))
        # the analytical targets' service-level factor, as gsm.GsmNode needs it
        if self.z_target == 0:
            raise ConfigurationError(f"z_target={self.z_target} must be > 0",
                                     ("z_target",))
        if self.rp_min > self.rp_max:
            raise ConfigurationError(
                f"rp_min={self.rp_min} must not exceed rp_max={self.rp_max}",
                ("rp_min", "rp_max"))
        if self.rp_max > self.capacity:
            raise ConfigurationError(
                f"rp_max={self.rp_max} must not exceed capacity={self.capacity}",
                ("rp_max", "capacity"))

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


class EnvState(NamedTuple):
    """Joint chain state at the start of period ``t``.

    Pipelines are tuples of (arrival_period, quantity).  ``step`` appends
    at most one entry per period to each, due at ``t + lead`` (``T_factory``
    for production and factory shipments, ``T_warehouse`` for warehouse
    ones), and every lead time is at least one period (``ChainConfig``).
    So in a run each pipeline's arrivals strictly increase within ``t`` ...
    ``t + lead - 1``: at most the head is due, and ``step`` credits it
    alone.  ``step`` takes only states that keep this; a hand-built state
    with two entries due at once would have the second credited late.
    ``backlog_w`` is what the warehouse owes the retailer, ``backlog_f``
    what the factory owes it.
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


class ActionVector(NamedTuple):
    """A clipped joint action: production, warehouse order, next reorder point.

    ``clip_action`` returns one; ``Env.step`` takes it or any other clipped
    (q_factory, q_warehouse, rp_next) triple.
    """

    q_factory: int
    q_warehouse: int
    rp_next: int

    # not a field: perfbench/tracer.py reads it on clip_action's results
    capacity_violation = False


class IncomingOrders(NamedTuple):
    """Orders and demand observed during one simulated period."""

    to_factory: int     # warehouse order placed on the factory (the action's q_warehouse)
    to_warehouse: int   # retailer order placed on the warehouse this period
    demand: int         # consumer demand seen by the retailer this period


class StepOutcome(NamedTuple):
    next_state: EnvState
    reward: float
    stockout_units: int
    shipped_to_retailer: int
    shipped_to_warehouse: int
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
    With the order and both inventories in [0, capacity], as in a run, no
    box is empty; anything else raises ValueError.
    """
    cap = config.capacity
    inv_f, inv_w = state.inv_factory, state.inv_warehouse
    if not (0 <= incoming_order <= cap and 0 <= inv_f <= cap and 0 <= inv_w <= cap):
        raise ValueError(
            f"no action box: retailer order {incoming_order}, factory inventory "
            f"{inv_f} and warehouse inventory {inv_w} must lie in [0, capacity={cap}]")
    return max(0, incoming_order - inv_w), cap - inv_w, cap - inv_f


def clip_action(state, raw, incoming_order, config):
    """Round ``raw`` to integers and project it onto the feasible box.

    ``round`` halves to even like ``np.rint`` and returns an int directly.

    ``raw`` may be any (q_factory, q_warehouse, rp_next) triple of finite
    numbers, e.g. a Gaussian policy sample or an ActionVector; a NaN or
    infinite component raises ValueError, and so does an empty box
    (``feasible_bounds``).
    """
    if isinstance(raw, np.ndarray):
        # Python numbers in one call, not one float() per component
        q_f_raw, q_w_raw, rp_raw = raw.tolist()
    else:
        q_f_raw, q_w_raw, rp_raw = (float(v) for v in raw)
    if not (math.isfinite(q_f_raw) and math.isfinite(q_w_raw)
            and math.isfinite(rp_raw)):
        for name, value in (("q_factory", q_f_raw), ("q_warehouse", q_w_raw),
                            ("rp_next", rp_raw)):
            if not math.isfinite(value):
                raise ValueError(f"non-finite action component {name}={value}")
    lo_w, hi_w, hi_f = feasible_bounds(state, incoming_order, config)
    q_w = min(max(round(q_w_raw), lo_w), hi_w)
    lo_f = max(0, q_w - state.inv_factory)
    q_f = min(max(round(q_f_raw), lo_f), hi_f)
    rp = min(max(round(rp_raw), config.rp_min), config.rp_max)
    return ActionVector(q_f, q_w, rp)


# builds a NamedTuple from a tuple of its fields without the Python-level
# __new__ that NamedTuple generates (one frame per call)
_new_tuple = tuple.__new__


class Env:
    """Sequential simulator; one instance per trajectory, seeded RNG stream.

    The chain constants ``step`` reads (capacity, demand and order means and
    stds, lead times, costs) and the generator's ``standard_normal`` are bound
    once at construction, so ``config`` and ``rng`` are read-only: a new
    chain or stream needs a new ``Env``.  ``state`` and ``ledger`` are plain
    attributes.  ``copy.deepcopy`` and ``pickle`` copy the bound draw as a
    method of the copy's own generator.

    ``config`` must be a ``ChainConfig``, which holds the lead-time rule
    that ``step``'s arrivals rely on (see ``EnvState``).
    """

    def __init__(self, config, seed):
        if not isinstance(config, ChainConfig):
            raise ConfigurationError(
                f"expected a ChainConfig, got {type(config).__name__}")
        self._config = config
        self._rng = rng = np.random.default_rng(int(seed))
        self._standard_normal = rng.standard_normal
        self._constants = (
            config.capacity, config.demand_mean, config.demand_std,
            config.order_mean, config.order_std, config.T_factory,
            config.T_warehouse, config.h_factory, config.h_warehouse,
            config.eta_stockout)
        self.state = None
        self.ledger = ChainLedger()

    @property
    def config(self):
        return self._config

    @property
    def rng(self):
        return self._rng

    def reset(self):
        """Draw a fresh initial state: uniform factory/warehouse stock and
        reorder point, retailer primed with rp + mean order so early
        stockouts reflect policy rather than initialisation."""
        cfg = self._config
        inv_f = int(self._rng.integers(0, cfg.capacity + 1))
        inv_w = int(self._rng.integers(0, cfg.capacity + 1))
        rp = int(self._rng.integers(cfg.rp_min, cfg.rp_max + 1))
        inv_r = min(rp + round(cfg.order_mean), cfg.capacity)
        self.state = EnvState(0, inv_f, inv_w, inv_r, rp)
        self.ledger = ChainLedger()
        return self.state

    def step(self, action):
        """Advance one period.  ``action`` is an already clipped
        (q_factory, q_warehouse, rp_next) triple: an ActionVector from
        ``clip_action``, or any other triple inside its box."""
        (cap, demand_mean, demand_std, order_mean, order_std, T_f, T_w,
         h_f, h_w, eta) = self._constants
        led = self.ledger
        t, inv_f, inv_w, inv_r, rp, pipe_fw, pipe_wr, pipe_prod, backlog_w, backlog_f = self.state
        q_f, q_w, rp_next = action

        # 1. arrivals: only a pipeline's head can be due (see EnvState)
        if pipe_prod and pipe_prod[0][0] <= t:
            due, pipe_prod = pipe_prod[0][1], pipe_prod[1:]
            room = cap - inv_f
            kept = room if room < due else due
            inv_f += kept
            led.production_credited += kept
            led.discarded_production += due - kept
        if pipe_fw and pipe_fw[0][0] <= t:
            due, pipe_fw = pipe_fw[0][1], pipe_fw[1:]
            room = cap - inv_w
            kept = room if room < due else due
            inv_w += kept
            led.credited_fw += kept
            led.discarded_fw += due - kept
        if pipe_wr and pipe_wr[0][0] <= t:
            due, pipe_wr = pipe_wr[0][1], pipe_wr[1:]
            room = cap - inv_r
            kept = room if room < due else due
            inv_r += kept
            led.credited_wr += kept
            led.discarded_wr += due - kept

        # 2. consumer demand, lost sales
        x = demand_mean + demand_std * self._standard_normal()
        demand = round(x) if x > 0.0 else 0
        served = inv_r if inv_r < demand else demand
        inv_r -= served
        stockouts = demand - served
        led.demand_units += demand
        led.served_units += served
        led.stockout_units += stockouts

        # 3. retailer reorder on inventory position (on-hand + in-transit;
        # the warehouse backlog is not counted, and consumer demand is lost,
        # never backordered)
        position = inv_r
        for _, q in pipe_wr:
            position += q
        if position <= rp:
            x = order_mean + order_std * self._standard_normal()
            q_r = round(x) if x > 0.0 else 0
            if q_r > cap:
                q_r = cap
        else:
            q_r = 0

        # 4. warehouse ships against new order plus backlog
        owed_w = q_r + backlog_w
        ship_wr = inv_w if inv_w < owed_w else owed_w
        inv_w -= ship_wr
        backlog_w = owed_w - ship_wr
        if ship_wr:
            pipe_wr = pipe_wr + ((t + T_w, ship_wr),)
            led.shipped_wr += ship_wr

        # 5. factory ships against the warehouse order plus backlog
        owed_f = q_w + backlog_f
        ship_fw = inv_f if inv_f < owed_f else owed_f
        inv_f -= ship_fw
        backlog_f = owed_f - ship_fw
        if ship_fw:
            pipe_fw = pipe_fw + ((t + T_f, ship_fw),)
            led.shipped_fw += ship_fw

        # 6. production scheduled
        if q_f:
            pipe_prod = pipe_prod + ((t + T_f, q_f),)
            led.produced += q_f

        # 7. holding/stockout accounting
        reward = -(h_f * inv_f + h_w * inv_w + eta * stockouts)
        self.state = next_state = _new_tuple(EnvState, (
            t + 1, inv_f, inv_w, inv_r, rp_next,
            pipe_fw, pipe_wr, pipe_prod, backlog_w, backlog_f))
        return _new_tuple(StepOutcome, (
            next_state, reward, stockouts, ship_wr, ship_fw,
            _new_tuple(IncomingOrders, (q_w, q_r, demand))))


def new_env(config, seed):
    """Build a simulator whose randomness derives solely from ``seed``."""
    return Env(config, seed)

