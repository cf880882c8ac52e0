#!/usr/bin/env python3
"""Measure the arrival-time front velocity and compare it to the certificate.

Runs `lrcone velocity` over a distance window for one or more thresholds and
prints, per threshold: the fitted front velocity, the certified
dominating-cone velocity, their ratio, and the first/second-half subwindow
slopes (a quick drift diagnostic).  Each report is written by `lrcone` itself,
so it carries the config echo that replays it.  The measured front sits well
inside the certified cone; the gap is the point of the experiment.

Usage:
    python3 scripts/front_vs_certificate.py
    python3 scripts/front_vs_certificate.py --g 2 --J 2 --epsilons 1e-6,1e-8
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile

from lrcone.cli import main as lrcone


def run(argv: list[str], path: pathlib.Path) -> dict:
    """Run `lrcone velocity` into the report at path and read it back."""
    code = lrcone(["velocity", *argv, "--output", str(path)])
    if code != 0:
        sys.exit(code)
    with open(path) as fh:
        return json.load(fh)


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

    window = ["--g", repr(args.g), "--J", repr(args.J), "--dmin", str(args.dmin),
              "--dmax", str(args.dmax), "--dstep", str(args.dstep)]
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(args.json_out or pathlib.Path(tmp) / "velocity_report.json")
        reports = [
            (epsilon, run([*window, "--epsilon", repr(epsilon)], path))
            for epsilon in map(float, args.epsilons.split(","))
        ]

    certified = reports[0][1]["cone"]["v_paper"]
    print(f"couplings g = {args.g}, J = {args.J}; certified cone velocity = {certified:.6f}")
    print(f"distance window d = {args.dmin}..{args.dmax} step {args.dstep}")
    print()
    print(f"{'epsilon':>10} {'fitted v':>10} {'v/certified':>12} "
          f"{'slope(1st half)':>16} {'slope(2nd half)':>16} {'r^2':>10}")
    for epsilon, report in reports:
        lead, trail = report["subwindow_slopes"]
        print(
            f"{epsilon:>10.1e} {report['fit']['v']:>10.6f} "
            f"{report['fit']['v'] / certified:>12.6f} {lead:>16.6f} {trail:>16.6f} "
            f"{report['fit']['r_squared']:>10.6f}"
        )

    if args.json_out:
        print(f"\nlast report written to {args.json_out}")


if __name__ == "__main__":
    main()
