"""Walk the bundled example end to end and print every headline claim.

Loads the committed five-plane arrangement, rebuilds its 22 chambers, walks
the three bundled symmetric cycles, and prints the poset minima, the unique
minimal decomposition of a non-vertex target through all four routes, and
the critical committee that appears after reorienting on element 1.

Run from the repository root:

    python scripts/demo_walkthrough.py

Everything is exact integer arithmetic; the output is deterministic and is
committed beside this script as ``demo_walkthrough.expected``.
"""

from __future__ import annotations

import argparse

from topecom import (
    BasedPoset,
    BruteForceOracle,
    critical_from_cycle,
    committee_sum,
    decompose,
    decompose_via_poset,
    decompose_via_reorientation,
    demo_data,
    enumerate_cycles,
    is_critical,
    reorient_cycle,
)


def show(topes) -> str:
    return " ".join(str(T) for T in sorted(topes))


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    demo = demo_data()
    ts = demo.carrier

    print(f"carrier: t={ts.t}, {len(ts)} topes from the bundled arrangement")
    enum = enumerate_cycles(ts)
    print(f"symmetric cycles: {len(enum.cycles)} in total, 3 bundled\n")

    poset = BasedPoset(ts, demo.base)
    for k, cyc in enumerate(demo.cycles, 1):
        print(f"cycle {k}: " + " ".join(str(v) for v in cyc.vertices))
        if k <= 2:
            mins = poset.minimal_elements(cyc.vertex_set)
            print(f"  minima at base {demo.base}: {show(mins)}")
    print()

    third = demo.cycles[2]
    result = decompose(third, demo.target)
    print(f"target {demo.target} over cycle 3:")
    print(f"  coordinates: {list(result.coordinates)}")
    print(f"  closed form:   {show(result.members)}")
    print(f"  poset route:   {show(decompose_via_poset(third, demo.target))}")
    print(f"  reorientation: {show(decompose_via_reorientation(third, demo.target))}")
    print(f"  brute force:   {show(BruteForceOracle(third).decompose(demo.target))}")
    print()

    elements = set(demo.reorient_elements)
    fcyc = reorient_cycle(demo.cycles[0], elements)
    committee = critical_from_cycle(fcyc)
    print(f"after reorienting on {sorted(elements)}:")
    print(f"  committee: {show(committee.members)}")
    print(f"  sum: {list(committee_sum(committee))}")
    print(f"  critical: {is_critical(committee)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
