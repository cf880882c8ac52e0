#!/usr/bin/env python3
"""Measure the arrival-time front velocity and compare it to the certificate.

Runs the arrival-time pipeline over a distance window for one or more
thresholds and prints, per threshold: the fitted front velocity, the
certified dominating-cone velocity, their ratio, and the first/second-half
subwindow slopes (a quick drift diagnostic).  The measured front sits well
inside the certified cone; the gap is the point of the experiment.

Usage:
    python3 scripts/front_vs_certificate.py
    python3 scripts/front_vs_certificate.py --g 2 --J 2 --epsilons 1e-6,1e-8
"""

from __future__ import annotations

import argparse
import json

from lrcone.lrbound import BoundEvaluator, Couplings, DpCountSource
from lrcone.velocity import analytic_velocity, extract_velocity, velocity_report_to_json_dict


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--g", type=float, default=0.5)
    parser.add_argument("--J", type=float, default=0.5)
    parser.add_argument("--dmin", type=int, default=10)
    parser.add_argument("--dmax", type=int, default=40)
    parser.add_argument("--dstep", type=int, default=2)
    parser.add_argument(
        "--epsilons", default="1e-8", help="comma-separated arrival thresholds"
    )
    parser.add_argument("--json-out", help="optional path for the last report as JSON")
    args = parser.parse_args()

    couplings = Couplings(g=args.g, J=args.J)
    d_values = range(args.dmin, args.dmax + 1, args.dstep)
    source = DpCountSource()
    certified = analytic_velocity(couplings)

    print(f"couplings g = {args.g}, J = {args.J}; certified cone velocity = {certified:.6f}")
    print(f"distance window d = {args.dmin}..{args.dmax} step {args.dstep}")
    print()
    print(f"{'epsilon':>10} {'fitted v':>10} {'v/certified':>12} "
          f"{'slope(1st half)':>16} {'slope(2nd half)':>16} {'r^2':>10}")

    report = None
    for token in args.epsilons.split(","):
        epsilon = float(token)
        report = extract_velocity(
            couplings,
            d_values=d_values,
            epsilon=epsilon,
            evaluator=BoundEvaluator(couplings, source=source),
            include_profile=True,
        )
        lead, trail = report.subwindow_slopes
        print(
            f"{epsilon:>10.1e} {report.fit.velocity:>10.6f} "
            f"{report.velocity_ratio:>12.6f} {lead:>16.6f} {trail:>16.6f} "
            f"{report.fit.r_squared:>10.6f}"
        )

    if args.json_out and report is not None:
        with open(args.json_out, "w") as fh:
            json.dump(velocity_report_to_json_dict(report), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"\nlast report written to {args.json_out}")


if __name__ == "__main__":
    main()
