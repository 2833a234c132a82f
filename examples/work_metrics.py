#!/usr/bin/env python3
"""Work metrics demo: VTWork, VCWork and TCWork on the benchmark suite.

Reproduces, at a glance, the message of the paper's Figures 8 and 9: the
number of clock entries the HB algorithm *must* update (``VTWork``) is
much smaller than what vector clocks actually touch (``VCWork``), while
tree clocks stay within a factor of 3 of the minimum (``TCWork``,
Theorem 1).

Run with::

    python examples/work_metrics.py [--scale 0.5] [--order HB]
"""

import argparse

from repro.api import order_class
from repro.gen import default_suite
from repro.metrics import TC_OPTIMALITY_FACTOR, measure_work


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.5, help="suite event-count multiplier")
    parser.add_argument("--order", default="HB", help="partial order: HB, SHB or MAZ")
    parser.add_argument("--max-profiles", type=int, default=12, help="number of suite traces")
    args = parser.parse_args()

    analysis_class = order_class(args.order)
    profiles = default_suite(scale=args.scale, max_profiles=args.max_profiles)

    header = (
        f"{'trace':28s} {'threads':>7s} {'VTWork':>9s} {'VCWork':>9s} {'TCWork':>9s} "
        f"{'VC/VT':>7s} {'TC/VT':>7s} {'VC/TC':>7s}"
    )
    print(f"Work metrics for the {analysis_class.PARTIAL_ORDER} computation")
    print(header)
    print("-" * len(header))
    violations = 0
    for profile in profiles:
        trace = profile.generate()
        work = measure_work(trace, analysis_class)
        print(
            f"{trace.name:28s} {work.num_threads:>7d} {work.vt_work:>9d} {work.vc_work:>9d} "
            f"{work.tc_work:>9d} {work.vc_over_vt:>7.2f} {work.tc_over_vt:>7.2f} {work.vc_over_tc:>7.2f}"
        )
        if work.tc_over_vt > TC_OPTIMALITY_FACTOR:
            violations += 1
    print(
        f"\nTheorem 1 (vt-optimality): TCWork/VTWork must stay ≤ {TC_OPTIMALITY_FACTOR}; "
        f"violations observed: {violations}"
    )


if __name__ == "__main__":
    main()
