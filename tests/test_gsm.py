import math
import re
import time

import numpy as np
import pytest

from safestock.env import ChainConfig
from safestock.gsm import (
    GsmNode,
    GsmSolution,
    InfeasibleAssignmentError,
    NodeAssignment,
    SearchSpaceError,
    UnsupportedTopologyError,
    analytical_targets,
    case_chain,
    enumerate_vertices,
    feasibility_violations,
    format_solution_table,
    inventory_level,
    safety_stock,
    solve_exhaustive,
    total_cost,
)

ROOT3 = math.sqrt(3.0)


class TestSafetyStock:
    def test_zero_net_replenishment(self):
        assert safety_stock(3, 1, 0, 1, 1) == 0.0

    def test_table_value_full_exposure(self):
        # matches the enumeration row with inventory 46 = 10*4 + 6
        assert safety_stock(3, 1, 1, 3, 0) == pytest.approx(6.0, abs=1e-12)

    def test_sqrt_three_case(self):
        assert safety_stock(3, 1, 0, 3, 0) == pytest.approx(3 * ROOT3, abs=1e-12)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="net replenishment"):
            safety_stock(3, 1, 0, 1, 2)

    def test_monotone_in_window_and_homogeneous(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            z = rng.uniform(0.5, 4)
            sigma = rng.uniform(0.1, 3)
            t = int(rng.integers(0, 8))
            si = int(rng.integers(0, 5))
            s = int(rng.integers(0, si + t + 1))
            base = safety_stock(z, sigma, si, t, s)
            assert safety_stock(z, sigma, si + 1, t, s) >= base
            k = rng.uniform(0.1, 5)
            assert safety_stock(z, k * sigma, si, t, s) == pytest.approx(k * base)
            assert safety_stock(k * z, sigma, si, t, s) == pytest.approx(k * base)


class TestInventoryLevel:
    def test_warehouse_optimal_row(self):
        assert inventory_level(10, 1, 3, 3, 3) == 13.0

    def test_factory_zero_row(self):
        assert inventory_level(10, 0, 1, 1, 0) == 0.0

    def test_sqrt_three_row(self):
        assert inventory_level(10, 0, 3, 0, 3 * ROOT3) == pytest.approx(
            30 + 3 * ROOT3, abs=1e-12)


def solution_for(chain, s_values, si_values):
    assignments = tuple(
        NodeAssignment(s, si, 0.0, 0.0) for s, si in zip(s_values, si_values))
    return GsmSolution(tuple(n.name for n in chain), assignments, 0.0)


class TestTotalCost:
    def test_case1_optimum_row(self):
        chain = case_chain(1)
        assert total_cost(chain, solution_for(chain, (1, 3), (0, 1))) == \
            pytest.approx(15.0, abs=1e-12)

    def test_case1_all_immediate_row(self):
        chain = case_chain(1)
        assert total_cost(chain, solution_for(chain, (0, 0), (0, 0))) == \
            pytest.approx(3000 + 15 * ROOT3, abs=1e-12)

    def test_case2_decoupled_factory_row(self):
        chain = case_chain(2)
        assert total_cost(chain, solution_for(chain, (1, 0), (0, 1))) == \
            pytest.approx(6000.0, abs=1e-12)

    def test_infeasible_lists_violations(self):
        chain = case_chain(1)
        bad = solution_for(chain, (2, 9), (0, 0))
        with pytest.raises(InfeasibleAssignmentError) as err:
            total_cost(chain, bad)
        text = str(err.value)
        assert "factory" in text and "warehouse" in text
        assert len(err.value.violations) >= 2

    @pytest.mark.parametrize("s_values, si_values", [
        ((1,), (0,)), ((1, 3, 0), (0, 1, 3))], ids=["one-node", "three-node"])
    def test_assignment_for_another_node_count_is_infeasible(self, s_values, si_values):
        # each value checked against a node: the leftovers or the missing
        # ones are a violation, not skipped
        chain = case_chain(1)
        message = (f"{len(s_values)} service times and {len(si_values)} inbound times "
                   "for 2 nodes")
        assert feasibility_violations(chain, s_values, si_values) == [message]
        assert feasibility_violations(chain, (1, 3), (0,)) == [
            "2 service times and 1 inbound times for 2 nodes"]
        with pytest.raises(InfeasibleAssignmentError, match=f"^{message}$"):
            total_cost(chain, solution_for(chain, s_values, si_values))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_service_time_is_infeasible(self, value):
        # a violation naming the node, where int() would raise
        chain = case_chain(1)
        for s_values, si_values, node, s, si in (((value, 0), (0, 0), "factory", value, 0),
                                                 ((0, 3), (0, value), "warehouse", 3, value)):
            message = f"{node}: service times must be finite (S={s}, SI={si})"
            assert message in feasibility_violations(chain, s_values, si_values)
            with pytest.raises(InfeasibleAssignmentError, match=re.escape(message)):
                total_cost(chain, solution_for(chain, s_values, si_values))


class TestEnumerateVertices:
    def test_case1_four_rows(self):
        sols = enumerate_vertices(case_chain(1))
        assert len(sols) == 4
        costs = sorted(s.total_cost for s in sols)
        expected = sorted([3000 + 15 * ROOT3, 3000.0, 30.0, 15.0])
        assert costs == pytest.approx(expected, abs=1e-12)
        by_s = {s.service_times: s for s in sols}
        assert by_s[(0, 0)].inventories == pytest.approx((13.0, 30 + 3 * ROOT3))
        assert by_s[(0, 3)].inventories == pytest.approx((13.0, 0.0))
        assert by_s[(1, 0)].inventories == pytest.approx((0.0, 46.0))
        assert by_s[(1, 3)].inventories == pytest.approx((0.0, 13.0))

    def test_case2_costs(self):
        sols = enumerate_vertices(case_chain(2))
        costs = sorted(s.total_cost for s in sols)
        expected = sorted([15 + 3000 * ROOT3, 15.0, 6000.0, 3000.0])
        assert costs == pytest.approx(expected, abs=1e-12)

    def test_single_node_zero_time_degenerates(self):
        node = GsmNode("only", h=2.0, T=0, z=3, sigma=1, mu=5, s_out_max=0)
        sols = enumerate_vertices([node])
        assert len(sols) == 1
        assert sols[0].total_cost == 0.0

    def test_non_serial_rejected(self):
        with pytest.raises(UnsupportedTopologyError):
            enumerate_vertices({"a": case_chain(1)[0]})
        with pytest.raises(UnsupportedTopologyError):
            enumerate_vertices([])


class TestSolveExhaustive:
    def test_case1_optimum(self):
        best = solve_exhaustive(case_chain(1))
        assert best.service_times == (1, 3)
        assert best.total_cost == pytest.approx(15.0, abs=1e-12)

    def test_case2_optimum(self):
        best = solve_exhaustive(case_chain(2))
        assert best.service_times == (0, 3)
        assert best.total_cost == pytest.approx(15.0, abs=1e-12)

    def test_zero_cost_tie_breaks_lexicographically(self):
        chain = case_chain(1, config=None)
        free = tuple(
            GsmNode(n.name, 0.0, n.T, n.z, n.sigma, n.mu, n.s_out_max)
            for n in chain)
        best = solve_exhaustive(free)
        assert best.total_cost == 0.0
        assert best.service_times == (0, 0)
        assert best.inbound_times == (0, 0)

    def test_search_space_guard(self):
        nodes = [GsmNode(f"n{i}", 1.0, 99, 3, 1, 1) for i in range(3)]
        with pytest.raises(SearchSpaceError):
            solve_exhaustive(nodes)


def random_two_stage(rng):
    t1 = int(rng.integers(0, 7))
    t2 = int(rng.integers(0, 7))
    upstream = GsmNode(
        "up", h=float(rng.uniform(0.1, 1000)), T=t1,
        z=float(rng.uniform(0.5, 4)), sigma=float(rng.uniform(0.1, 3)),
        mu=float(rng.uniform(1, 20)))
    downstream = GsmNode(
        "down", h=float(rng.uniform(0.1, 1000)), T=t2,
        z=float(rng.uniform(0.5, 4)), sigma=float(rng.uniform(0.1, 3)),
        mu=float(rng.uniform(1, 20)), s_out_max=int(rng.integers(0, t2 + 1)))
    return (upstream, downstream)


class TestAllOrNothing:
    def test_vertex_minimum_matches_exhaustive_on_random_instances(self):
        rng = np.random.default_rng(2024)
        tic = time.perf_counter()
        for _ in range(100):
            chain = random_two_stage(rng)
            best_vertex = min(enumerate_vertices(chain),
                              key=lambda s: s.total_cost)
            best = solve_exhaustive(chain)
            assert best.total_cost == pytest.approx(
                best_vertex.total_cost, rel=1e-12, abs=1e-12)
        assert time.perf_counter() - tic < 10.0

    def test_any_feasible_assignment_costs_at_least_the_optimum(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            chain = random_two_stage(rng)
            best = solve_exhaustive(chain)
            for _ in range(20):
                s1 = int(rng.integers(0, chain[0].T + 1))
                si2 = int(rng.integers(s1, s1 + 3))
                cap = min(si2 + chain[1].T, chain[1].s_out_max)
                s2 = int(rng.integers(0, cap + 1))
                sol = solution_for(chain, (s1, s2), (0, si2))
                if feasibility_violations(chain, (s1, s2), (0, si2)):
                    continue
                assert total_cost(chain, sol) >= best.total_cost - 1e-9


class TestAnalyticalTargets:
    def test_cases(self):
        assert analytical_targets(1) == (6, 0, 13)
        assert analytical_targets(2) == (6, 13, 0)

    def test_rp_consistent_with_service_time_times_demand(self):
        # r_p = S_warehouse * mean demand = 3 * 2 for both cases
        for case in (1, 2):
            best = solve_exhaustive(case_chain(case))
            assert analytical_targets(case)[0] == best.service_times[1] * 2

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            analytical_targets(3)

    def test_targets_follow_the_chain_config(self):
        # a cheap factory moves case 1's stock upstream
        assert analytical_targets(1, ChainConfig.for_case(1, h_factory=1.0)) == (6, 13, 0)
        # a lower reorder-point cap shortens the warehouse's service time to
        # 2, which leaves it a net replenishment time of 1 + 3 - 2 periods
        rp, inv_factory, inv_warehouse = analytical_targets(
            1, ChainConfig.for_case(1, rp_max=4))
        assert (rp, inv_factory) == (4, 0)
        assert inv_warehouse == pytest.approx(10.0 * 2 + 3.0 * math.sqrt(2))


class TestTableExport:
    def test_format_contains_rows_and_marks_optimum(self):
        chain = case_chain(1)
        sols = enumerate_vertices(chain)
        best = solve_exhaustive(chain)
        text = format_solution_table(chain, sols, optimal=best)
        lines = text.strip().splitlines()
        assert len(lines) == 5
        assert "S_factory" in lines[0] and "I_warehouse" in lines[0]
        assert sum("<- optimal" in line for line in lines) == 1
        assert any("46" in line for line in lines)
