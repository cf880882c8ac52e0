"""Command-line interface tying the library together.

Subcommands: count, bound, velocity, scan-dim, horizon.  Exit codes:
0 success, 1 usage or validation error, 2 closed-form fidelity mismatch,
3 numerical failure (non-convergent series or unreachable threshold).

Each key of the one config table, `_CONFIG_DEFAULTS`, takes its flag, else
its --config file value (type-checked), else its default.  A subcommand
registers --config and the flags of only the keys it reads: count takes
--output and --format; bound the flags of all keys but epsilon; velocity of
all keys but format (its report is JSON); scan-dim and horizon --g, --J,
--step-factor, --output and --format.  horizon writes both branching
conventions.

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

from .cosmo import HorizonModel, dimension_scan, lightcone_boundary, model_to_json_dict
from .lrbound import DEFAULT_STEP_FACTOR, BoundEvaluator, ConvergenceError, Couplings
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

# Largest --nmax and --d entry of `count`: at 512 it takes about 5 s on a 2-core
# VM, 3 s of it the O(n_max^3) grid dynamic program.  A d above n_max / 2 only
# adds zero counts.
COUNT_LIMIT = 512

# Most rows of any table: `horizon --steps`, `scan-dim --num`, and the cells
# of a `bound` grid.  1e6 scan-dim rows take 8 s and 200 MB on a 2-core VM.
ROW_LIMIT = 100_000

_DEFAULT_OUTPUTS = {
    "count": "counts.csv",
    "bound": "bound_grid.csv",
    "velocity": "velocity_report.json",
    "scan-dim": "dimension_scan.csv",
    "horizon": "lightcone.csv",
}


# Config-file sections -> keys -> defaults; each key is its flag's argparse
# dest.  RunConfig holds the couplings section as one Couplings and every
# other key as a field of the same name.  velocity defaults to json.
_CONFIG_DEFAULTS = {
    "couplings": {
        "g": 0.5, "J": 0.5, "origin_norm": 1.0, "probe_norm": 1.0,
        "step_factor": DEFAULT_STEP_FACTOR,
    },
    "tolerances": {"rel_tol": 1e-10, "epsilon": 1e-8},
    "output": {"path": None, "format": "csv"},
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved, serializable run configuration.

    to_json_dict produces exactly the nested shape --config accepts, so the
    echo embedded in any output artifact reproduces its run.
    """

    couplings: Couplings
    rel_tol: float
    epsilon: float
    path: str | None
    format: str

    def to_json_dict(self) -> dict:
        return {
            section: {
                key: getattr(self.couplings if section == "couplings" else self, key)
                for key in keys
            }
            for section, keys in _CONFIG_DEFAULTS.items()
        }


def _check_config_value(section: str, key: str, value) -> None:
    """Refuse a config-file value of the wrong JSON type, naming its key."""
    if key == "path":
        ok, expected = isinstance(value, str), "a string"
    elif key == "format":
        ok, expected = value in ("csv", "json"), "csv or json"
    else:  # bool is no JSON number; an int past float range overflows math.isfinite
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
        expected = "a finite JSON number"
    if not ok:
        raise ValueError(f"config value {section}.{key} must be {expected}, got {value!r}")


def resolve_config(args: argparse.Namespace, *, default_format: str = "csv") -> RunConfig:
    """Each key takes its flag if given, else the --config file's value, else the default.

    A file value of null counts as absent.
    """
    doc: dict = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must contain a JSON object")
    unknown_sections = set(doc) - set(_CONFIG_DEFAULTS) - {"schema_version"}
    if unknown_sections:
        raise ValueError(f"unknown config sections: {sorted(unknown_sections)}")
    resolved: dict = {}
    for section, defaults in _CONFIG_DEFAULTS.items():
        body = doc.get(section, {})
        if not isinstance(body, dict):
            raise ValueError(f"config section {section!r} must be an object")
        unknown = set(body) - set(defaults)
        if unknown:
            raise ValueError(f"unknown keys in config section {section!r}: {sorted(unknown)}")
        resolved[section] = {}
        for key, default in defaults.items():
            value = body.get(key)
            if value is not None:
                _check_config_value(section, key, value)
            flag = getattr(args, key, None)
            if flag is not None:
                value = flag
            elif value is None:
                value = default_format if key == "format" else default
            resolved[section][key] = value
    couplings = Couplings(**resolved.pop("couplings"))
    return RunConfig(couplings, **resolved["tolerances"], **resolved["output"])


def _echo(cfg: RunConfig) -> dict:
    return {"schema_version": 2, "config": cfg.to_json_dict()}


def _output_path(cfg: RunConfig, command: str) -> str:
    return cfg.path if cfg.path is not None else _DEFAULT_OUTPUTS[command]


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


def _parse_list(text: str, kind: type, *, name: str) -> list:
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        noun = "integer" if kind is int else "number"
        raise ValueError(f"{name} must be a comma-separated {noun} list, got {text!r}") from None
    if not values:
        raise ValueError(f"{name} must not be empty")
    return values


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_count(cfg: RunConfig, args: argparse.Namespace) -> int:
    if not 0 <= args.nmax <= COUNT_LIMIT:
        raise ValueError(f"--nmax must lie in [0, {COUNT_LIMIT}], got {args.nmax}")
    d_list = _parse_list(args.d, int, name="--d")
    if not all(0 <= d <= COUNT_LIMIT for d in d_list):
        raise ValueError(f"--d entries must lie in [0, {COUNT_LIMIT}], got {d_list}")

    table = axis_walk_counts(args.nmax, max(d_list))
    comparisons = compare_closed_form(table.count, range(args.nmax + 1), d_list)
    path = _output_path(cfg, "count")
    write_table(
        path,
        cfg.format,
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
    t_list = _parse_list(args.t, float, name="--t")
    d_list = _parse_list(args.d, int, name="--d")
    if not all(t >= 0 and math.isfinite(t) for t in t_list):
        raise ValueError(f"--t entries must be finite and >= 0, got {t_list}")
    if any(d < 0 for d in d_list):
        raise ValueError(f"--d entries must be >= 0, got {d_list}")
    cells = len(t_list) * len(d_list)
    if cells > ROW_LIMIT:
        raise ValueError(f"--t and --d span {cells} cells; at most {ROW_LIMIT} are allowed")

    evaluator = BoundEvaluator(cfg.couplings, rel_tol=cfg.rel_tol)
    results = [evaluator.evaluate(t, d) for d in d_list for t in t_list]
    path = _output_path(cfg, "bound")
    write_table(
        path,
        cfg.format,
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
    if cfg.format != "json":
        raise ValueError("velocity emits a JSON report; use --format json")
    evaluator = BoundEvaluator(cfg.couplings, rel_tol=cfg.rel_tol)
    # The work budget sees the window's last distance before any list is built.
    last = args.dmin + (args.dmax - args.dmin) // args.dstep * args.dstep
    evaluator.source.ensure(0, last)
    d_values = list(range(args.dmin, args.dmax + 1, args.dstep))
    report = extract_velocity(
        cfg.couplings,
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
    if args.num > ROW_LIMIT:
        raise ValueError(f"--num must be <= {ROW_LIMIT}, got {args.num}")
    if args.dim_min < 2:
        raise ValueError(f"the dimension scan starts at 2, got {args.dim_min}")
    span = args.dim_max - args.dim_min
    grid = [args.dim_min + span * k / (args.num - 1) for k in range(args.num)]
    rows = dimension_scan(grid, cfg.couplings)
    path = _output_path(cfg, "scan-dim")
    write_table(path, cfg.format, ["D", "v_axis_pairs", "v_degrees"], rows, _echo(cfg))
    _write_sidecar(path)
    return EXIT_OK


def cmd_horizon(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise ValueError(f"--steps must be >= 2, got {args.steps}")
    if args.steps > ROW_LIMIT:
        raise ValueError(f"--steps must be <= {ROW_LIMIT}, got {args.steps}")
    if args.tf < 0:
        raise ValueError(f"--tf must be >= 0, got {args.tf}")
    model = HorizonModel(
        D_in=args.Din,
        alpha=args.alpha,
        couplings=cfg.couplings,
        mode="strict" if args.strict else "toy",
    )
    path = _output_path(cfg, "horizon")
    write_table(
        path,
        cfg.format,
        ["t", "r_axis_pairs", "r_degrees"],
        lightcone_boundary(model, 0.0, args.tf, args.steps),
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


_NUMBER_HELP = {
    "g": "rotor charging coupling", "J": "plaquette coupling", "epsilon": "arrival threshold",
}


def _add_config_flags(parser: argparse.ArgumentParser, keys: str) -> None:
    """--config, then one flag for each config key the command reads.

    Each flag's dest is its key; keys without a flag keep their config-file
    value or default in resolve_config.
    """
    parser.add_argument("--config", help="JSON config file (flags override it)")
    for key in keys.split():
        if key == "path":
            parser.add_argument("--output", dest="path", help="output file path")
        elif key == "format":
            parser.add_argument("--format", choices=("csv", "json"), help="output format")
        else:
            flag = "--" + key.replace("_", "-")
            parser.add_argument(flag, dest=key, type=float, help=_NUMBER_HELP.get(key))


def build_parser() -> _Parser:
    parser = _Parser(prog="lrcone", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_count = sub.add_parser("count", help="exact walk counts versus the closed form")
    _add_config_flags(p_count, "path format")
    p_count.add_argument("--nmax", type=int, default=20)
    p_count.add_argument("--d", default="1,2,3", help="comma-separated distances")
    p_count.set_defaults(func=cmd_count)

    p_bound = sub.add_parser("bound", help="evaluate the bound on a (t, d) grid")
    _add_config_flags(p_bound, "g J origin_norm probe_norm step_factor rel_tol path format")
    p_bound.add_argument("--t", default="0.5,1.0,1.5,2.0,2.5", help="comma-separated times")
    p_bound.add_argument("--d", default="2,4,6,8,10", help="comma-separated distances")
    p_bound.set_defaults(func=cmd_bound)

    p_vel = sub.add_parser("velocity", help="arrival-time light-cone velocity fit")
    _add_config_flags(p_vel, "g J origin_norm probe_norm step_factor rel_tol epsilon path")
    p_vel.add_argument("--dmin", type=int, default=10)
    p_vel.add_argument("--dmax", type=int, default=40)
    p_vel.add_argument("--dstep", type=int, default=2)
    p_vel.set_defaults(func=cmd_velocity)

    p_scan = sub.add_parser("scan-dim", help="velocity versus lattice dimension")
    _add_config_flags(p_scan, "g J step_factor path format")
    p_scan.add_argument("--dim-min", dest="dim_min", type=float, default=2.0)
    p_scan.add_argument("--dim-max", dest="dim_max", type=float, default=64.0)
    p_scan.add_argument("--num", type=int, default=32)
    p_scan.set_defaults(func=cmd_scan_dim)

    p_hor = sub.add_parser("horizon", help="shrinking-dimension light-cone profile")
    _add_config_flags(p_hor, "g J step_factor path format")
    p_hor.add_argument("--Din", type=float, default=100.0)
    p_hor.add_argument("--alpha", type=float, default=0.01)
    p_hor.add_argument("--tf", type=float, default=50.0)
    p_hor.add_argument("--steps", type=int, default=101)
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
