#!/usr/bin/env python3
"""Sweep the cone velocity over lattice dimension and trace a shrinking horizon.

Two artifacts, each written by `lrcone` itself (`scan-dim` and `horizon`, so
each carries the config echo that replays it):
  * a dimension scan CSV (velocity under both branching conventions), showing
    the linear-in-D growth and the sqrt(D/2) gap between conventions;
  * a light-cone boundary CSV for a dimension that shrinks linearly in time,
    whose sides bend parabolically until the dimension decays toward 2.

Usage:
    python3 scripts/dimension_horizon_sweep.py --out-dir /tmp/sweep
"""

from __future__ import annotations

import argparse
import csv
import pathlib
import sys

from lrcone.cli import main as lrcone
from lrcone.cosmo import PLAQUETTE_THRESHOLD, v_lr_dimension
from lrcone.lrbound import Couplings


def run(argv: list[str], path: pathlib.Path) -> list[list[float]]:
    """Run one lrcone command into the CSV at path and read its rows back."""
    code = lrcone([*argv, "--output", str(path)])
    if code != 0:
        sys.exit(code)
    with open(path) as fh:
        fh.readline()  # the config echo
        return [[float(x) for x in row] for row in list(csv.reader(fh))[1:]]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--g", type=float, default=0.5)
    parser.add_argument("--J", type=float, default=0.5)
    parser.add_argument("--dim-max", type=float, default=64.0)
    parser.add_argument("--Din", type=float, default=100.0)
    parser.add_argument("--alpha", type=float, default=0.01)
    parser.add_argument("--tf", type=float, default=80.0)
    parser.add_argument("--steps", type=int, default=161)
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    couplings = ["--g", repr(args.g), "--J", repr(args.J)]

    scan_path = out_dir / "dimension_scan.csv"
    rows = run(["scan-dim", *couplings, "--dim-min", "2", "--dim-max", repr(args.dim_max),
                "--num", "31"], scan_path)
    print(f"dimension scan ({len(rows)} rows) -> {scan_path}")
    for D, v_axis, v_deg in rows[:: len(rows) // 5]:
        print(f"  D = {D:7.2f}   v = {v_axis:12.4f}   ratio to degrees = {v_axis / v_deg:.4f}")

    cone_path = out_dir / "lightcone.csv"
    samples = run(["horizon", *couplings, "--Din", repr(args.Din), "--alpha", repr(args.alpha),
                   "--tf", repr(args.tf), "--steps", str(args.steps)], cone_path)
    print(f"\nhorizon profile D(t) = {args.Din} (1 - {args.alpha} t) -> {cone_path}")
    # The straight cone keeps the initial velocity, which toy mode takes as 0 below D = 2.
    v_in = 0.0
    if args.Din >= PLAQUETTE_THRESHOLD:
        v_in = v_lr_dimension(args.Din, Couplings(g=args.g, J=args.J))
    for t, r_axis, _ in samples[:: max(1, len(samples) // 5)]:
        linear = v_in * t
        print(f"  t = {t:7.2f}   r = {r_axis:14.2f}   straight-cone r = {linear:14.2f}")


if __name__ == "__main__":
    main()
