"""Guaranteed-service safety stock placement for serial chains.

Every stage quotes a fixed outbound service time S and sees its supplier's
quoted time SI; safety stock covers demand variability over the net
replenishment time SI + T - S.  Cost counts safety stock only (pipeline
mean stock is unavoidable).  For serial chains the optimum sits at a vertex
where each stage quotes either zero service time or the maximum feasible
one, so vertex enumeration and a small brute-force search both solve the
problem exactly.
"""

import itertools
import math
from dataclasses import dataclass

from .env import ChainConfig


class InfeasibleAssignmentError(ValueError):
    """A service-time assignment violates the chain constraints."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class UnsupportedTopologyError(ValueError):
    """The solver only handles serial chains."""


class SearchSpaceError(ValueError):
    """The brute-force search space is too large to enumerate."""


@dataclass(frozen=True)
class GsmNode:
    """One stocking stage.

    ``sigma`` and ``mu`` describe the order stream the stage serves;
    ``s_out_max`` caps the outbound service time of a demand-facing stage
    (None for internal stages).
    """

    name: str
    h: float
    T: int
    z: float
    sigma: float
    mu: float
    s_out_max: int | None = None

    def __post_init__(self):
        if self.h < 0 or self.T < 0 or self.sigma < 0 or self.mu < 0:
            raise ValueError(f"node {self.name}: h, T, sigma, mu must be >= 0")
        if self.z <= 0:
            raise ValueError(f"node {self.name}: z={self.z} must be > 0")
        if self.s_out_max is not None and self.s_out_max < 0:
            raise ValueError(f"node {self.name}: s_out_max must be >= 0")


@dataclass(frozen=True)
class NodeAssignment:
    s: int
    si: int
    safety_stock: float
    inventory: float


@dataclass(frozen=True)
class GsmSolution:
    """Service times per node (ordered upstream to downstream) plus cost."""

    nodes: tuple
    assignments: tuple
    total_cost: float

    @property
    def service_times(self):
        return tuple(a.s for a in self.assignments)

    @property
    def inbound_times(self):
        return tuple(a.si for a in self.assignments)

    @property
    def inventories(self):
        return tuple(a.inventory for a in self.assignments)


def safety_stock(z, sigma, si, t, s):
    """z * sigma * sqrt(si + t - s), the stock covering the exposure window."""
    net = si + t - s
    if net < 0:
        raise ValueError(f"negative net replenishment time {net} (si={si}, t={t}, s={s})")
    return z * sigma * math.sqrt(net)


def inventory_level(mu, si, t, s, ss):
    """Mean demand over the net replenishment time plus safety stock."""
    net = si + t - s
    if net < 0:
        raise ValueError(f"negative net replenishment time {net} (si={si}, t={t}, s={s})")
    return mu * net + ss


def _validate_serial(chain):
    try:
        nodes = tuple(chain)
    except TypeError:
        raise UnsupportedTopologyError(
            f"expected a serial node sequence, got {type(chain).__name__}") from None
    if not nodes or not all(isinstance(n, GsmNode) for n in nodes):
        raise UnsupportedTopologyError("expected a non-empty sequence of GsmNode")
    names = [n.name for n in nodes]
    if len(set(names)) != len(names):
        raise UnsupportedTopologyError(f"duplicate node names in chain: {names}")
    return nodes


def _outbound_cap(node, si):
    """The largest S ``node`` can quote on inbound time ``si``."""
    s = si + node.T
    return s if node.s_out_max is None else min(s, node.s_out_max)


def feasibility_violations(chain, s_values, si_values):
    """List human-readable violations of the service-time constraint set,
    which takes one service time and one inbound time per node."""
    nodes = _validate_serial(chain)
    if not len(s_values) == len(si_values) == len(nodes):
        return [f"{len(s_values)} service times and {len(si_values)} inbound times "
                f"for {len(nodes)} nodes"]
    out = []
    prev_s = 0
    for node, s, si in zip(nodes, s_values, si_values):
        if s < 0 or si < 0:
            out.append(f"{node.name}: service times must be >= 0 (S={s}, SI={si})")
        if not (math.isfinite(s) and math.isfinite(si)):
            out.append(f"{node.name}: service times must be finite (S={s}, SI={si})")
        elif int(s) != s or int(si) != si:
            out.append(f"{node.name}: service times must be integers (S={s}, SI={si})")
        if s - si > node.T:
            out.append(f"{node.name}: S - SI = {s - si} exceeds processing time T = {node.T}")
        if si < prev_s:
            out.append(f"{node.name}: SI = {si} below upstream service time {prev_s}")
        if node.s_out_max is not None and s > node.s_out_max:
            out.append(f"{node.name}: S = {s} exceeds outbound cap {node.s_out_max}")
        prev_s = s
    return out


def _build_solution(nodes, s_values, si_values):
    assignments = []
    cost = 0.0
    for node, s, si in zip(nodes, s_values, si_values):
        ss = safety_stock(node.z, node.sigma, si, node.T, s)
        inv = inventory_level(node.mu, si, node.T, s, ss)
        assignments.append(NodeAssignment(s, si, ss, inv))
        cost += node.h * ss
    return GsmSolution(tuple(n.name for n in nodes), tuple(assignments), cost)


def total_cost(chain, assignment):
    """Safety-stock cost of a feasible assignment: sum of h_j * SS_j."""
    nodes = _validate_serial(chain)
    s_values = assignment.service_times
    si_values = assignment.inbound_times
    violations = feasibility_violations(nodes, s_values, si_values)
    if violations:
        raise InfeasibleAssignmentError(violations)
    return _build_solution(nodes, s_values, si_values).total_cost


def enumerate_vertices(chain):
    """All assignments with every stage at an extreme service time.

    Each stage quotes either S = 0 or the largest feasible S given its
    supplier's quote (SI is taken as the upstream S, the cheapest feasible
    inbound time).  Duplicate assignments collapse, so a stage whose maximum
    is 0 contributes a single branch.
    """
    nodes = _validate_serial(chain)
    solutions = []

    def descend(i, prev_s, s_acc, si_acc):
        if i == len(nodes):
            solutions.append(_build_solution(nodes, tuple(s_acc), tuple(si_acc)))
            return
        for s in dict.fromkeys((0, _outbound_cap(nodes[i], prev_s))):
            descend(i + 1, s, s_acc + [s], si_acc + [prev_s])

    descend(0, 0, [], [])
    return solutions


def solve_exhaustive(chain, max_combinations=10 ** 6):
    """Brute-force minimum over all integer-feasible (S, SI) assignments.

    Ties break toward the lexicographically smallest service-time tuple,
    then the smallest inbound-time tuple.
    """
    nodes = _validate_serial(chain)
    # SI reaches at most the upstream lead times' sum
    si_caps = list(itertools.accumulate((node.T for node in nodes[:-1]), initial=0))
    s_caps = [_outbound_cap(node, si_cap) for node, si_cap in zip(nodes, si_caps)]
    combos = 1
    for si_cap, s_cap in zip(si_caps, s_caps):
        combos *= (si_cap + 1) * (s_cap + 1)
        if combos > max_combinations:
            raise SearchSpaceError(
                f"more than {max_combinations} service-time combinations")

    ranges = [
        itertools.product(range(si_cap + 1), range(s_cap + 1))
        for si_cap, s_cap in zip(si_caps, s_caps)
    ]

    def feasible():   # never empty: all zeros is feasible
        for combo in itertools.product(*ranges):
            si_values, s_values = zip(*combo)
            if not feasibility_violations(nodes, s_values, si_values):
                yield _build_solution(nodes, s_values, si_values)
    return min(feasible(), key=lambda sol: (sol.total_cost, sol.service_times,
                                            sol.inbound_times))


def analytical_targets(case, config=None):
    """Optimal (r_p, inv_factory, inv_warehouse) of a cost case's chain.

    The GSM optimum of ``case_chain(case, config)``, so a run with chain
    overrides is held to its own chain; ``config`` defaults to the case's.
    r_p is the warehouse's outbound service time times the mean consumer
    demand, and the inventories are the optimum's.
    """
    if config is None:
        config = ChainConfig.for_case(case)
    best = solve_exhaustive(case_chain(case, config))
    return (best.service_times[-1] * config.demand_mean, *best.inventories)


def case_chain(case, config=None):
    """Factory -> warehouse chain for a cost case.

    Both nodes take one retailer order's mean and std (``order_mean``,
    ``order_std``) as their demand per period.  The stream they serve is
    sparser: the retailer orders in some periods only, so per period it
    has a mean of about 2 and a std of about 4 in both cost cases, whose
    orders have a mean of 10 and a std of 1.
    The warehouse's outbound cap is rp_max / ``demand_mean``, the consumer's.
    """
    if config is None:
        config = ChainConfig.for_case(case)
    s_cap = int(config.rp_max // max(1, round(config.demand_mean)))
    factory = GsmNode(
        name="factory", h=config.h_factory, T=config.T_factory,
        z=config.z_target, sigma=config.order_std, mu=config.order_mean,
    )
    warehouse = GsmNode(
        name="warehouse", h=config.h_warehouse, T=config.T_warehouse,
        z=config.z_target, sigma=config.order_std, mu=config.order_mean,
        s_out_max=s_cap,
    )
    return (factory, warehouse)


def format_solution_table(chain, solutions, optimal=None):
    """Plain-text enumeration table: service times, inventories, cost per row."""
    nodes = _validate_serial(chain)
    header = (
        [f"S_{n.name}" for n in nodes]
        + [f"I_{n.name}" for n in nodes]
        + ["cost", ""]
    )
    rows = [header]
    for sol in solutions:
        mark = "<- optimal" if optimal is not None and sol == optimal else ""
        rows.append(
            [str(a.s) for a in sol.assignments]
            + [f"{a.inventory:.12g}" for a in sol.assignments]
            + [f"{sol.total_cost:.12g}", mark]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]
    return "\n".join(lines) + "\n"
