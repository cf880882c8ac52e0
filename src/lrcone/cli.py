"""Command-line interface tying the library together.

Subcommands: count, bound, velocity, scan-dim, horizon.  Exit codes:
0 success, 1 usage or validation error, 2 closed-form fidelity mismatch,
3 numerical failure (non-convergent series or unreachable threshold).

Every output artifact embeds the resolved run configuration
(schema_version 2) and is byte-identical across reruns; wall-clock metadata
goes to a ``<output>.meta.json`` sidecar, never into the body; the velocity
sidecar also counts the run's bound evaluations.  Every table
goes through `write_table`, every JSON document through `_write_json_doc`.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from dataclasses import dataclass

from .cosmo import (
    BranchingConvention,
    HorizonModel,
    dimension_scan,
    lightcone_rows,
    model_to_json_dict,
)

# Not used here; perfbench's traced run (--trace 1) patches this attribute.
from .cosmo import lightcone_boundary  # noqa: F401
from .lrbound import BoundEvaluator, ConvergenceError, Couplings
from .pathcount import axis_walk_counts, compare_closed_form, fidelity_report
from .velocity import (
    ThresholdUnreachableError,
    extract_velocity,
    velocity_report_to_json_dict,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_NUMERIC = 3

_DEFAULT_OUTPUTS = {
    "count": "counts.csv",
    "bound": "bound_grid.csv",
    "velocity": "velocity_report.json",
    "scan-dim": "dimension_scan.csv",
    "horizon": "lightcone.csv",
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved, serializable run configuration.

    to_json_dict produces exactly the nested shape --config accepts, so the
    echo embedded in any output artifact reproduces its run.
    """

    g: float = 0.5
    J: float = 0.5
    origin_norm: float = 1.0
    probe_norm: float = 1.0
    step_factor: float = math.sqrt(2.0)
    rel_tol: float = 1e-10
    epsilon: float = 1e-8
    output_path: str | None = None
    output_format: str = "csv"

    def couplings(self) -> Couplings:
        return Couplings(
            g=self.g,
            J=self.J,
            origin_norm=self.origin_norm,
            probe_norm=self.probe_norm,
            step_factor=self.step_factor,
        )

    def to_json_dict(self) -> dict:
        return {
            "couplings": self.couplings().to_json_dict(),
            "tolerances": {
                "rel_tol": self.rel_tol,
                "epsilon": self.epsilon,
            },
            "output": {
                "path": self.output_path,
                "format": self.output_format,
            },
        }


_CONFIG_SECTIONS = {
    "couplings": ("g", "J", "origin_norm", "probe_norm", "step_factor"),
    "tolerances": ("rel_tol", "epsilon"),
    "output": ("path", "format"),
}

_CONFIG_FIELD_RENAMES = {"path": "output_path", "format": "output_format"}


def _config_from_dict(doc: dict) -> dict:
    """Flatten the nested config-file shape into RunConfig field values."""
    if not isinstance(doc, dict):
        raise ValueError("config file must contain a JSON object")
    unknown_sections = set(doc) - set(_CONFIG_SECTIONS) - {"schema_version"}
    if unknown_sections:
        raise ValueError(f"unknown config sections: {sorted(unknown_sections)}")
    flat: dict = {}
    for section, keys in _CONFIG_SECTIONS.items():
        body = doc.get(section, {})
        if not isinstance(body, dict):
            raise ValueError(f"config section {section!r} must be an object")
        unknown = set(body) - set(keys)
        if unknown:
            raise ValueError(f"unknown keys in config section {section!r}: {sorted(unknown)}")
        for key in keys:
            if key in body and body[key] is not None:
                flat[_CONFIG_FIELD_RENAMES.get(key, key)] = body[key]
    return flat


def resolve_config(args: argparse.Namespace, *, default_format: str = "csv") -> RunConfig:
    """Defaults, then the --config file, then explicit flags, in that order."""
    values: dict = {"output_format": default_format}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            values.update(_config_from_dict(json.load(fh)))
    flag_fields = ("g", "J", "origin_norm", "probe_norm", "step_factor", "rel_tol", "epsilon")
    for field in flag_fields:
        value = getattr(args, field, None)
        if value is not None:
            values[field] = value
    if getattr(args, "output", None) is not None:
        values["output_path"] = args.output
    if getattr(args, "format", None) is not None:
        values["output_format"] = args.format
    try:
        cfg = RunConfig(**values)
    except TypeError as exc:
        raise ValueError(f"bad configuration: {exc}") from None
    if cfg.output_format not in ("csv", "json"):
        raise ValueError(f"output format must be csv or json, got {cfg.output_format!r}")
    cfg.couplings()  # validates the coupling fields eagerly
    return cfg


def _echo(cfg: RunConfig) -> dict:
    return {"schema_version": 2, "config": cfg.to_json_dict()}


def _output_path(cfg: RunConfig, command: str) -> str:
    return cfg.output_path if cfg.output_path is not None else _DEFAULT_OUTPUTS[command]


def _write_json_doc(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_sidecar(path: str, **counters: int) -> None:
    _write_json_doc(
        path + ".meta.json", {"output": path, "written_at_unix": time.time(), **counters}
    )


def write_table(path: str, fmt: str, columns: list[str], rows: list[tuple], echo: dict) -> None:
    """Rows as CSV under a "# config: <echo>" line, or as one JSON document.

    Floats are written with repr, so they read back exactly.
    """
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            fh.write("# config: " + json.dumps(echo, sort_keys=True) + "\n")
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([repr(x) if isinstance(x, float) else x for x in row])
    else:
        _write_json_doc(path, {**echo, "columns": columns, "rows": [list(r) for r in rows]})


def _parse_int_list(text: str, *, name: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"{name} must be a comma-separated integer list, got {text!r}") from None
    if not values:
        raise ValueError(f"{name} must not be empty")
    return values


def _parse_float_list(text: str, *, name: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"{name} must be a comma-separated number list, got {text!r}") from None
    if not values:
        raise ValueError(f"{name} must not be empty")
    return values


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_count(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.nmax < 0:
        raise ValueError(f"--nmax must be >= 0, got {args.nmax}")
    d_list = _parse_int_list(args.d, name="--d")
    if any(d < 0 for d in d_list):
        raise ValueError(f"--d entries must be >= 0, got {d_list}")

    table = axis_walk_counts(args.nmax, max(d_list))
    comparisons = compare_closed_form(table.count, range(args.nmax + 1), d_list)
    path = _output_path(cfg, "count")
    write_table(
        path,
        cfg.output_format,
        ["n", "d", "dp_count", "closed_form", "match_flag"],
        [(c.n, c.d, c.dp, c.closed_form, int(c.match)) for c in comparisons],
        _echo(cfg),
    )
    report = fidelity_report(
        comparisons, context={**_echo(cfg), "n_max": args.nmax, "d_values": d_list}
    )
    _write_json_doc(path + ".fidelity.json", report)
    _write_sidecar(path)
    if report["mismatch_count"]:
        print(
            f"closed form disagrees with the dynamic program on "
            f"{report['mismatch_count']} of {report['entries_compared']} entries; "
            f"see {path}.fidelity.json",
            file=sys.stderr,
        )
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_bound(cfg: RunConfig, args: argparse.Namespace) -> int:
    t_list = _parse_float_list(args.t, name="--t")
    d_list = _parse_int_list(args.d, name="--d")
    if not all(t >= 0 and math.isfinite(t) for t in t_list):
        raise ValueError(f"--t entries must be finite and >= 0, got {t_list}")
    if any(d < 0 for d in d_list):
        raise ValueError(f"--d entries must be >= 0, got {d_list}")

    evaluator = BoundEvaluator(cfg.couplings(), rel_tol=cfg.rel_tol)
    results = [evaluator.evaluate(t, d) for d in d_list for t in t_list]
    path = _output_path(cfg, "bound")
    write_table(
        path,
        cfg.output_format,
        ["t", "d", "bound", "n_truncate", "tail"],
        [(r.t, r.d, r.value, r.n_truncate, r.tail) for r in results],
        _echo(cfg),
    )
    _write_sidecar(path)
    return EXIT_OK


def cmd_velocity(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.dmin < 1 or args.dmax < args.dmin or args.dstep < 1:
        raise ValueError(
            f"need 1 <= dmin <= dmax and dstep >= 1, got "
            f"dmin={args.dmin}, dmax={args.dmax}, dstep={args.dstep}"
        )
    if cfg.output_format != "json":
        raise ValueError("velocity emits a JSON report; use --format json")
    d_values = list(range(args.dmin, args.dmax + 1, args.dstep))
    couplings = cfg.couplings()
    evaluator = BoundEvaluator(couplings, rel_tol=cfg.rel_tol)
    report = extract_velocity(
        couplings,
        d_values=d_values,
        epsilon=cfg.epsilon,
        evaluator=evaluator,
        include_profile=True,
    )
    doc = {**velocity_report_to_json_dict(report), "config": cfg.to_json_dict()}
    path = _output_path(cfg, "velocity")
    _write_json_doc(path, doc)
    _write_sidecar(path, evaluations=evaluator.evaluations)
    return EXIT_OK


def cmd_scan_dim(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.dim_max < args.dim_min:
        raise ValueError(f"need dim-min <= dim-max, got {args.dim_min}, {args.dim_max}")
    if args.num < 2:
        raise ValueError(f"--num must be >= 2, got {args.num}")
    if args.dim_min < 2:
        raise ValueError(f"the dimension scan starts at 2, got {args.dim_min}")
    span = args.dim_max - args.dim_min
    grid = [args.dim_min + span * k / (args.num - 1) for k in range(args.num)]
    rows = dimension_scan(grid, cfg.couplings())
    path = _output_path(cfg, "scan-dim")
    write_table(path, cfg.output_format, ["D", "v_axis_pairs", "v_degrees"], rows, _echo(cfg))
    _write_sidecar(path)
    return EXIT_OK


def cmd_horizon(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise ValueError(f"--steps must be >= 2, got {args.steps}")
    if args.tf < 0:
        raise ValueError(f"--tf must be >= 0, got {args.tf}")
    model = HorizonModel(
        D_in=args.Din,
        alpha=args.alpha,
        couplings=cfg.couplings(),
        convention=BranchingConvention(args.convention),
        mode="strict" if args.strict else "toy",
    )
    path = _output_path(cfg, "horizon")
    write_table(
        path,
        cfg.output_format,
        ["t", "r_axis_pairs", "r_degrees"],
        lightcone_rows(model, 0.0, args.tf, args.steps),
        {**_echo(cfg), "model": model_to_json_dict(model)},
    )
    _write_sidecar(path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly and entry point.
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; remap that onto the
    usage code, since 2 is reserved for fidelity mismatches."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument("--g", type=float, help="rotor charging coupling")
    parser.add_argument("--J", type=float, help="plaquette coupling")
    parser.add_argument("--origin-norm", dest="origin_norm", type=float)
    parser.add_argument("--probe-norm", dest="probe_norm", type=float)
    parser.add_argument("--step-factor", dest="step_factor", type=float)
    parser.add_argument("--rel-tol", dest="rel_tol", type=float)
    parser.add_argument("--output", help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), help="output format")


def build_parser() -> _Parser:
    parser = _Parser(prog="lrcone", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_count = sub.add_parser("count", help="exact walk counts versus the closed form")
    _add_common(p_count)
    p_count.add_argument("--nmax", type=int, default=20)
    p_count.add_argument("--d", default="1,2,3", help="comma-separated distances")
    p_count.set_defaults(func=cmd_count)

    p_bound = sub.add_parser("bound", help="evaluate the bound on a (t, d) grid")
    _add_common(p_bound)
    p_bound.add_argument("--t", default="0.5,1.0,1.5,2.0,2.5", help="comma-separated times")
    p_bound.add_argument("--d", default="2,4,6,8,10", help="comma-separated distances")
    p_bound.set_defaults(func=cmd_bound)

    p_vel = sub.add_parser("velocity", help="arrival-time light-cone velocity fit")
    _add_common(p_vel)
    p_vel.add_argument("--epsilon", type=float, help="arrival threshold")
    p_vel.add_argument("--dmin", type=int, default=10)
    p_vel.add_argument("--dmax", type=int, default=40)
    p_vel.add_argument("--dstep", type=int, default=2)
    p_vel.set_defaults(func=cmd_velocity)

    p_scan = sub.add_parser("scan-dim", help="velocity versus lattice dimension")
    _add_common(p_scan)
    p_scan.add_argument("--dim-min", dest="dim_min", type=float, default=2.0)
    p_scan.add_argument("--dim-max", dest="dim_max", type=float, default=64.0)
    p_scan.add_argument("--num", type=int, default=32)
    p_scan.set_defaults(func=cmd_scan_dim)

    p_hor = sub.add_parser("horizon", help="shrinking-dimension light-cone profile")
    _add_common(p_hor)
    p_hor.add_argument("--Din", type=float, default=100.0)
    p_hor.add_argument("--alpha", type=float, default=0.01)
    p_hor.add_argument("--tf", type=float, default=50.0)
    p_hor.add_argument("--steps", type=int, default=101)
    p_hor.add_argument(
        "--convention",
        choices=[c.value for c in BranchingConvention],
        default=BranchingConvention.AXIS_PAIRS.value,
    )
    p_hor.add_argument("--strict", action="store_true", help="reject D(t) < 2")
    p_hor.set_defaults(func=cmd_horizon)

    return parser


# Parsing leaves no state in the tree, so every `main` call shares one.
_shared_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        default_format = "json" if args.command == "velocity" else "csv"
        cfg = resolve_config(args, default_format=default_format)
        return args.func(cfg, args)
    except (ConvergenceError, ThresholdUnreachableError) as exc:
        print(f"lrcone {args.command}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"lrcone {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
