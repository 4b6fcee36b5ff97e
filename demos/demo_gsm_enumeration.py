"""Walk through the analytical side: vertex enumeration and brute force.

Both cost cases of the two-stage chain are solved by scoring the four
all-or-nothing service-time assignments, then cross-checked against an
exhaustive integer search.  The printed tables mirror the enumeration
used to derive the analytical targets the learning agents are judged by.
"""

from safestock import (
    analytical_targets,
    case_chain,
    enumerate_vertices,
    format_solution_table,
    solve_exhaustive,
)

for case in (1, 2):
    chain = case_chain(case)
    factory, warehouse = chain
    print(f"=== cost case {case}: h_factory={factory.h:g}, "
          f"h_warehouse={warehouse.h:g}")
    vertices = enumerate_vertices(chain)
    best = solve_exhaustive(chain)
    print(format_solution_table(chain, vertices, optimal=best))
    rp, inv_f, inv_w = analytical_targets(case)
    print(f"exhaustive optimum: S={best.service_times}, "
          f"cost={best.total_cost:g}")
    print(f"targets for the simulator: rp={rp:g}, inv_factory={inv_f:g}, "
          f"inv_warehouse={inv_w:g}")
    print()

print("The brute-force search agrees with the best vertex on both cases,")
print("which is the all-or-nothing property of serial chains.")
