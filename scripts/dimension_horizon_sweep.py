#!/usr/bin/env python3
"""Sweep the cone velocity over lattice dimension and trace a shrinking horizon.

Two artifacts, written by the CLI's table writer (a "# config:" line, then
the CSV table):
  * a dimension scan CSV (velocity under both branching conventions), showing
    the linear-in-D growth and the sqrt(D/2) gap between conventions;
  * a light-cone boundary CSV for a dimension that shrinks linearly in time,
    whose sides bend parabolically until the dimension decays toward 2.

Usage:
    python3 scripts/dimension_horizon_sweep.py --out-dir /tmp/sweep
"""

from __future__ import annotations

import argparse
import pathlib

from lrcone.cli import write_table
from lrcone.cosmo import (
    BranchingConvention,
    HorizonModel,
    dimension_scan,
    lightcone_rows,
    model_to_json_dict,
)
from lrcone.lrbound import Couplings


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

    couplings = Couplings(g=args.g, J=args.J)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    grid = [2.0 + k * (args.dim_max - 2.0) / 30 for k in range(31)]
    rows = dimension_scan(grid, couplings)
    scan_path = out_dir / "dimension_scan.csv"
    write_table(
        str(scan_path),
        "csv",
        ["D", "v_axis_pairs", "v_degrees"],
        rows,
        {"couplings": couplings.to_json_dict()},
    )
    print(f"dimension scan ({len(rows)} rows) -> {scan_path}")
    for D, v_axis, v_deg in rows[:: len(rows) // 5]:
        print(f"  D = {D:7.2f}   v = {v_axis:12.4f}   ratio to degrees = {v_axis / v_deg:.4f}")

    model = HorizonModel(
        D_in=args.Din,
        alpha=args.alpha,
        couplings=couplings,
        convention=BranchingConvention.AXIS_PAIRS,
        mode="toy",
    )
    cone_path = out_dir / "lightcone.csv"
    samples = lightcone_rows(model, 0.0, args.tf, args.steps)
    write_table(
        str(cone_path),
        "csv",
        ["t", "r_axis_pairs", "r_degrees"],
        samples,
        {"model": model_to_json_dict(model)},
    )
    print(f"\nhorizon profile D(t) = {args.Din} (1 - {args.alpha} t) -> {cone_path}")
    for t, r_axis, _ in samples[:: max(1, len(samples) // 5)]:
        linear = model.velocity(0.0) * t
        print(f"  t = {t:7.2f}   r = {r_axis:14.2f}   straight-cone r = {linear:14.2f}")


if __name__ == "__main__":
    main()
