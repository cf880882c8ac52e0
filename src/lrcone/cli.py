"""Command-line interface tying the library together.

Subcommands: count, bound, velocity, scan-dim, horizon.  Exit codes:
0 success, 1 usage or validation error, 2 closed-form fidelity mismatch,
3 numerical failure (non-convergent series or unreachable threshold).

Each run has one record, its parsed `argparse.Namespace`.  `resolve_config`
sets on it each key of the one config table, `_CONFIG_DEFAULTS` (its flag,
else its --config file value, type-checked, else its default), then
`couplings` and `echo`, the resolved sections as --config takes them.  A
subcommand registers --config and the flags of only the keys it reads: count
takes --output and --format; bound the flags of all keys but epsilon;
velocity of all keys but format (its report is JSON); scan-dim and horizon
--g, --J, --step-factor, --output and --format.  horizon writes both
branching conventions.

Every output artifact embeds the resolved run configuration, with the
document's one schema_version (3) at its top level, and is byte-identical
across reruns; wall-clock metadata goes to a ``<output>.meta.json`` sidecar,
never into the body; the velocity sidecar also counts the run's bound
evaluations.  Each run that exits 0 or 2 writes one document and its
sidecar; count's table is its whole audit, the match_flag 0 rows being the
disagreements.  This module alone shapes every artifact (tables, velocity
report, model echo), each fact stated once and none constant; the engines
return numbers.  Every table goes through `write_table`, every JSON
document through `_write_json_doc`.

At import this module loads only `cosmo` and `couplings`; each of count,
bound and velocity imports its engine (`pathcount`, `lrbound`, `velocity`)
inside its command, so scan-dim and horizon never load the series code.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time

from .cosmo import HorizonModel, dimension_scan, lightcone_boundary
from .couplings import DEFAULT_STEP_FACTOR, Couplings, NumericalFailure

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_NUMERIC = 3

# Largest --nmax and --d entry of `count`: at 512, --d 1,2,3 takes about 0.4 s
# and 17 distances about 2.5 s on a 2-core VM, nearly all of it the paper's
# formula at the even distances.  A d above n_max / 2 only adds zero counts.
COUNT_LIMIT = 512

# Most rows of any table: `count`'s (n, d) entries, `horizon --steps`,
# `scan-dim --num`, and the cells of a `bound` grid.  1e6 scan-dim rows take
# 8 s and 200 MB on a 2-core VM.
ROW_LIMIT = 100_000

# Default output names are <stem>.<format>.
_DEFAULT_STEMS = {
    "count": "counts",
    "bound": "bound_grid",
    "velocity": "velocity_report",
    "scan-dim": "dimension_scan",
    "horizon": "lightcone",
}


# Config-file sections -> keys -> defaults; each key is its flag's argparse
# dest and its name on the resolved record.  velocity defaults to json.
_CONFIG_DEFAULTS = {
    "couplings": {
        "g": 0.5, "J": 0.5, "origin_norm": 1.0, "probe_norm": 1.0,
        "step_factor": DEFAULT_STEP_FACTOR,
    },
    "tolerances": {"rel_tol": 1e-10, "epsilon": 1e-8},
    "output": {"path": None, "format": "csv"},
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


def resolve_config(args: argparse.Namespace) -> None:
    """Set each config key on `args`, then `args.couplings` and `args.echo`.

    Each key takes its flag, else its --config file value (null counts as
    absent), else its default.  velocity's format defaults to json and must be json.
    """
    doc: dict = {}
    if args.config is not None:
        with open(args.config) as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise ValueError(f"config file {args.config} nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("config file must contain a JSON object")
    unknown_sections = set(doc) - set(_CONFIG_DEFAULTS) - {"schema_version"}
    if unknown_sections:
        raise ValueError(f"unknown config sections: {sorted(unknown_sections)}")
    velocity = args.command == "velocity"
    config: dict = {}
    for section, defaults in _CONFIG_DEFAULTS.items():
        body = doc.get(section, {})
        if not isinstance(body, dict):
            raise ValueError(f"config section {section!r} must be an object")
        unknown = set(body) - set(defaults)
        if unknown:
            raise ValueError(f"unknown keys in config section {section!r}: {sorted(unknown)}")
        config[section] = {}
        for key, default in defaults.items():
            value = body.get(key)
            if value is not None:
                _check_config_value(section, key, value)
            flag = getattr(args, key, None)
            if flag is not None:
                value = flag
            elif value is None:
                value = "json" if velocity and key == "format" else default
            config[section][key] = value
            setattr(args, key, value)
    args.couplings = Couplings(**config["couplings"])
    if velocity and args.format != "json":
        raise ValueError(
            f"velocity emits a JSON report; config key output.format must be json, "
            f"got {args.format!r}"
        )
    args.echo = {"schema_version": 3, "config": config}


def _output_path(args: argparse.Namespace) -> str:
    return args.path if args.path is not None else f"{_DEFAULT_STEMS[args.command]}.{args.format}"


def _write_json_doc(path: str, doc: dict, rows: list | None = None) -> None:
    """json.dumps(doc, indent=1, sort_keys=True) and a newline, written to path.

    A table passes its rows, each a nonempty sequence of numbers, apart from
    doc and its "rows": [].  indent makes CPython encode in pure Python, so
    the rows take one C-encoder call instead, re-indented to the same bytes.
    """
    text = json.dumps(doc, indent=1, sort_keys=True)
    if rows:
        flat = json.dumps(rows)[2:-2].replace("], [", "\n  ],\n  [\n   ").replace(", ", ",\n   ")
        text = text.replace('\n "rows": []', '\n "rows": [\n  [\n   ' + flat + "\n  ]\n ]", 1)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_sidecar(path: str, **counters: int) -> None:
    _write_json_doc(
        path + ".meta.json", {"output": path, "written_at_unix": time.time(), **counters}
    )


def write_table(path: str, fmt: str, columns: list[str], rows: list[tuple], echo: dict) -> None:
    """Rows as CSV under a "# config: <echo>" line, or as one JSON document.

    csv and json both write floats with repr, so they read back exactly.
    """
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            fh.write("# config: " + json.dumps(echo, sort_keys=True) + "\n")
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(rows)
    else:
        _write_json_doc(path, {**echo, "columns": columns, "rows": []}, rows)


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


def cmd_count(args: argparse.Namespace) -> int:
    from .pathcount import count_walks_closed_form, grow_walk_counts

    if not 0 <= args.nmax <= COUNT_LIMIT:
        raise ValueError(f"--nmax must lie in [0, {COUNT_LIMIT}], got {args.nmax}")
    d_list = _parse_list(args.d, int, name="--d")
    if not all(0 <= d <= COUNT_LIMIT for d in d_list):
        raise ValueError(f"--d entries must lie in [0, {COUNT_LIMIT}], got {d_list}")
    n_rows = (args.nmax + 1) * len(d_list)
    if n_rows > ROW_LIMIT:
        raise ValueError(f"--nmax and --d span {n_rows} rows; at most {ROW_LIMIT} are allowed")

    # Exact counts are the canonical columns, which the tests hold equal to the
    # dynamic program whose name the dp_count header keeps until a schema bump.
    # Each distinct distance is computed once; a repeated --d entry repeats its rows.
    blocks: dict[int, list[tuple]] = {}
    for d in dict.fromkeys(d_list):
        exact: list[int] = []
        grow_walk_counts(exact, d, args.nmax)
        block = blocks[d] = []
        for n, count in enumerate(exact):
            closed = count_walks_closed_form(n, d)
            block.append((n, d, count, closed, int(count == closed)))
    rows = [row for d in d_list for row in blocks[d]]
    path = _output_path(args)
    write_table(
        path, args.format, ["n", "d", "dp_count", "closed_form", "match_flag"], rows, args.echo
    )
    _write_sidecar(path)
    mismatches = sum(not row[4] for row in rows)
    if mismatches:
        print(
            f"closed form disagrees with the exact count on {mismatches} of "
            f"{len(rows)} entries; see the match_flag 0 rows of {path}",
            file=sys.stderr,
        )
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_bound(args: argparse.Namespace) -> int:
    from .lrbound import BoundEvaluator

    t_list = _parse_list(args.t, float, name="--t")
    d_list = _parse_list(args.d, int, name="--d")
    if not all(t >= 0 and math.isfinite(t) for t in t_list):
        raise ValueError(f"--t entries must be finite and >= 0, got {t_list}")
    if any(d < 0 for d in d_list):
        raise ValueError(f"--d entries must be >= 0, got {d_list}")
    cells = len(t_list) * len(d_list)
    if cells > ROW_LIMIT:
        raise ValueError(f"--t and --d span {cells} cells; at most {ROW_LIMIT} are allowed")

    evaluator = BoundEvaluator(args.couplings, rel_tol=args.rel_tol)
    results = [evaluator.evaluate(t, d) for d in d_list for t in t_list]
    path = _output_path(args)
    write_table(
        path,
        args.format,
        ["t", "d", "bound", "n_truncate", "tail"],
        [(r.t, r.d, r.value, r.n_truncate, r.tail) for r in results],
        args.echo,
    )
    _write_sidecar(path)
    return EXIT_OK


def cmd_velocity(args: argparse.Namespace) -> int:
    from .lrbound import BoundEvaluator
    from .velocity import extract_velocity

    if args.dmin < 1 or args.dmax < args.dmin or args.dstep < 1:
        raise ValueError(
            f"need 1 <= dmin <= dmax and dstep >= 1, got "
            f"dmin={args.dmin}, dmax={args.dmax}, dstep={args.dstep}"
        )
    evaluator = BoundEvaluator(args.couplings, rel_tol=args.rel_tol)
    # The work budget sees the window's last distance before any list is built.
    last = args.dmin + (args.dmax - args.dmin) // args.dstep * args.dstep
    evaluator.source.ensure(0, last)
    d_values = list(range(args.dmin, args.dmax + 1, args.dstep))
    report = extract_velocity(
        args.couplings,
        d_values=d_values,
        epsilon=args.epsilon,
        evaluator=evaluator,
        include_profile=True,
    )
    fit = report.fit
    doc = {
        **args.echo,
        "arrivals": [[a.d, a.time] for a in report.arrivals],
        "arrival_bounds": [a.bound_value for a in report.arrivals],
        "fit": {
            "v": fit.velocity,
            "xi": fit.decay_length,
            "A": fit.amplitude,
            "residual_rms": fit.residual_rms,
            "front_offset": fit.front_offset,
            "r_squared": fit.r_squared,
        },
        "cone": {"v_paper": report.analytic.v_lr},
        "ratio_v_over_c": fit.velocity / args.couplings.coupling_speed,
        "subwindow_slopes": list(report.subwindow_slopes),
    }
    path = _output_path(args)
    _write_json_doc(path, doc)
    _write_sidecar(path, evaluations=evaluator.evaluations)
    return EXIT_OK


def cmd_scan_dim(args: argparse.Namespace) -> int:
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
    rows = dimension_scan(grid, args.couplings)
    path = _output_path(args)
    write_table(path, args.format, ["D", "v_axis_pairs", "v_degrees"], rows, args.echo)
    _write_sidecar(path)
    return EXIT_OK


def cmd_horizon(args: argparse.Namespace) -> int:
    # lightcone_boundary refuses --steps below 2 and a --tf below 0.
    if args.steps > ROW_LIMIT:
        raise ValueError(f"--steps must be <= {ROW_LIMIT}, got {args.steps}")
    model = HorizonModel(
        D_in=args.Din,
        alpha=args.alpha,
        couplings=args.couplings,
        mode="strict" if args.strict else "toy",
    )
    path = _output_path(args)
    write_table(
        path,
        args.format,
        ["t", "r_axis_pairs", "r_degrees"],
        lightcone_boundary(model, 0.0, args.tf, args.steps),
        {
            **args.echo,
            "model": {"D_in": model.D_in, "alpha": model.alpha, "mode": model.mode},
        },
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
    parser = _Parser(
        prog="lrcone",
        description=(
            "Walk-count Lieb-Robinson bounds on the link/plaquette graph, their "
            "light-cone velocity, and horizon profiles.  Subcommands: count, bound, "
            "velocity, scan-dim, horizon; each takes --help.  Exit codes: 0 success, "
            "1 usage or validation error, 2 closed-form fidelity mismatch, "
            "3 numerical failure (non-convergent series or unreachable threshold)."
        ),
    )
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
        resolve_config(args)
        return args.func(args)
    except NumericalFailure as exc:
        print(f"lrcone {args.command}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"lrcone {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
