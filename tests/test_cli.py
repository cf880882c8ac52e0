"""End-to-end tests for the command-line interface.

Everything runs in-process through cli.main(argv) for speed; outputs land in
tmp_path via --output so no test touches the working tree.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcone import cli, pathcount
from lrcone.cosmo import (
    BranchingConvention,
    HorizonModel,
    lightcone_boundary,
    v_lr_dimension,
)
from lrcone.lrbound import BoundEvaluator, Couplings, DpCountSource
from lrcone.velocity import extract_velocity


def run(*argv: str) -> int:
    return cli.main(list(argv))


def read_csv(path):
    with open(path) as fh:
        header_line = fh.readline()
        assert header_line.startswith("# config: ")
        echo = json.loads(header_line[len("# config: "):])
        rows = list(csv.reader(fh))
    return echo, rows[0], rows[1:]


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def test_count_reports_mismatch_and_exits_2(tmp_path, capsys):
    out = tmp_path / "counts.csv"
    code = run("count", "--nmax", "8", "--d", "0,1,2", "--output", str(out))
    assert code == cli.EXIT_MISMATCH

    echo, header, rows = read_csv(out)
    assert header == ["n", "d", "dp_count", "closed_form", "match_flag"]
    assert echo["schema_version"] == 3
    assert len(rows) == 3 * 9
    table = {(int(n), int(d)): (int(dp), int(cf), int(flag)) for n, d, dp, cf, flag in rows}
    assert table[(4, 0)] == (10, 384, 0)
    assert table[(6, 2)] == (10, 5760, 0)
    assert table[(2, 1)] == (1, 0, 0)
    assert table[(3, 1)] == (0, 0, 1)
    # n_max and the distances are read off the rows; the table is the only document.
    assert set(table) == {(n, d) for n in range(9) for d in (0, 1, 2)}
    assert {p.name for p in tmp_path.iterdir()} == {"counts.csv", "counts.csv.meta.json"}
    mismatches = sum(1 for v in table.values() if not v[2])
    assert mismatches == sum(1 for v in table.values() if v[0] != v[1]) > 0
    assert capsys.readouterr().err == (
        f"closed form disagrees with the exact count on {mismatches} of 27 entries; "
        f"see the match_flag 0 rows of {out}\n"
    )


def test_count_exit_0_when_grid_happens_to_agree(tmp_path, capsys):
    # Odd n and unreachable parities: both routes give zero everywhere.
    out = tmp_path / "c.csv"
    code = run("count", "--nmax", "1", "--d", "1", "--output", str(out))
    assert code == cli.EXIT_OK
    _, _, rows = read_csv(out)
    assert [int(row[4]) for row in rows] == [1, 1]  # two entries, no mismatch
    assert capsys.readouterr().err == ""


def test_count_json_format(tmp_path):
    out = tmp_path / "c.json"
    code = run("count", "--nmax", "4", "--d", "1", "--format", "json", "--output", str(out))
    assert code == cli.EXIT_MISMATCH
    doc = json.loads(out.read_text())
    assert doc["columns"] == ["n", "d", "dp_count", "closed_form", "match_flag"]
    assert [2, 1, 1, 0, 0] in doc["rows"]


# sha256 of the artifact body for
# `count --nmax 64 --d 0,1,2,3,32 --output <name>`, run in the output's
# directory so the echoed path is the bare name.  Counts are exact integers,
# so these bytes do not depend on libm.
_COUNT_DIGESTS = {
    "counts.csv": "1e37cdb78b0e4414b3c39cb713f620dcdefcecda640e6b61dae2fc0a5f2497d0",
    "counts.json": "ff9aebf1864ed22e00b4d622ae07710efa8cbbc47b1eb5de0a5cc31ac9ae16a3",
}


@pytest.mark.parametrize("name", list(_COUNT_DIGESTS))
def test_count_artifact_bytes_are_pinned(tmp_path, monkeypatch, name):
    # The table reads the canonical columns; the grid and lattice dynamic
    # programs are the tests' oracles and never run in the command.
    for oracle in ("axis_walk_counts", "count_walks_dp"):
        monkeypatch.setattr(pathcount, oracle, lambda *a, **k: pytest.fail("dynamic program ran"))
    monkeypatch.chdir(tmp_path)
    fmt = name.rsplit(".", 1)[1]
    argv = ["count", "--nmax", "64", "--d", "0,1,2,3,32", "--format", fmt, "--output", name]
    assert run(*argv) == cli.EXIT_MISMATCH
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == _COUNT_DIGESTS[name]
    assert {p.name for p in tmp_path.iterdir()} == {name, name + ".meta.json"}


_NUMBER = st.one_of(
    st.integers(-(2**80), 2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300]),
)


@given(
    rows=st.lists(st.lists(_NUMBER, min_size=1, max_size=5), max_size=8),
    path=st.sampled_from(["t.json", 'odd "rows": [] name.json']),
)
@settings(max_examples=200, deadline=None)
def test_json_table_bytes_equal_the_indented_encoder(tmp_path_factory, rows, path):
    # write_table encodes rows with the C encoder and re-indents them; the
    # bytes are those of the one pure-Python indent=1 encoding.
    out = tmp_path_factory.mktemp("table") / "t.json"
    echo = {"schema_version": 3, "config": {"output": {"path": path}}}
    columns = [f"c{k}" for k in range(5)]
    cli.write_table(str(out), "json", columns, [tuple(r) for r in rows], echo)
    doc = {**echo, "columns": columns, "rows": rows}
    assert out.read_text() == json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_count_computes_each_distinct_distance_once(tmp_path, monkeypatch):
    # A repeated --d entry repeats its block of rows, not the paper's formula.
    calls = []
    closed_form = pathcount.count_walks_closed_form

    def counted(n, d):
        calls.append((n, d))
        return closed_form(n, d)

    monkeypatch.setattr(pathcount, "count_walks_closed_form", counted)
    once, repeated = tmp_path / "once.csv", tmp_path / "repeated.csv"
    assert run("count", "--nmax", "6", "--d", "0,1", "--output", str(once)) == cli.EXIT_MISMATCH
    calls.clear()
    argv = ["count", "--nmax", "6", "--d", "1,0,1,1", "--output", str(repeated)]
    assert run(*argv) == cli.EXIT_MISMATCH
    assert calls == [(n, d) for d in (1, 0) for n in range(7)]
    rows_once = read_csv(once)[2]
    assert read_csv(repeated)[2] == [r for d in "1011" for r in rows_once if r[1] == d]


def test_count_rejects_nonplanar_dimension(tmp_path, capsys):
    # count is planar by construction; there is no flag to ask otherwise.
    code = run("count", "--dimension", "3", "--output", str(tmp_path / "x.csv"))
    assert code == cli.EXIT_USAGE
    assert "unrecognized arguments: --dimension 3" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--nmax", "-1"),
        ("count", "--d", ""),
        ("count", "--d", "1,x"),
        ("count", "--d", "-2"),
        # Past COUNT_LIMIT: at --nmax 5000 the paper's formula runs for hours,
        # and a d above n_max / 2 adds only zero counts.  Past ROW_LIMIT: 195
        # distances at --nmax 512, over a minute of the formula.
        ("count", "--nmax", "5000"),
        ("count", "--d", "1000000000"),
        ("count", "--nmax", "512", "--d", ",".join(["0"] * 195)),
    ],
)
def test_count_usage_errors(tmp_path, argv):
    start = time.perf_counter()
    assert run(*argv, "--output", str(tmp_path / "x.csv")) == cli.EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def test_bound_grid_matches_in_memory_evaluator(tmp_path):
    out = tmp_path / "grid.csv"
    code = run("bound", "--t", "0.5,1.0", "--d", "2,4", "--output", str(out))
    assert code == cli.EXIT_OK
    _, header, rows = read_csv(out)
    assert header == ["t", "d", "bound", "n_truncate", "tail"]
    assert len(rows) == 4

    evaluator = BoundEvaluator(Couplings(g=0.5, J=0.5), source=DpCountSource(n_max=64))
    for t_s, d_s, bound_s, n_s, tail_s in rows:
        ref = evaluator.evaluate(float(t_s), int(d_s))
        assert float(bound_s) == ref.value
        assert int(n_s) == ref.n_truncate
        assert float(tail_s) == ref.tail


def test_bound_json_format(tmp_path):
    out = tmp_path / "grid.json"
    assert run("bound", "--t", "1.0", "--d", "2", "--format", "json", "--output", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["columns"] == ["t", "d", "bound", "n_truncate", "tail"]
    [[t, d, bound, n_truncate, tail]] = doc["rows"]
    ref = BoundEvaluator(Couplings(g=0.5, J=0.5)).evaluate(1.0, 2)
    assert (t, d, bound, n_truncate, tail) == (1.0, 2, ref.value, ref.n_truncate, ref.tail)


def test_bound_negative_distance_exits_1_before_any_cell(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(BoundEvaluator, "evaluate", lambda *a: pytest.fail("cell computed"))
    code = run("bound", "--t", "1", "--d", "2,-1", "--output", str(tmp_path / "x.csv"))
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == "lrcone bound: --d entries must be >= 0, got [2, -1]\n"
    assert list(tmp_path.iterdir()) == []


def test_bound_past_float_range_exits_3_without_artifact(tmp_path, capsys):
    code = run("bound", "--t", "400", "--d", "2", "--output", str(tmp_path / "x.csv"))
    assert code == cli.EXIT_NUMERIC
    assert "float range" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bound_distance_past_float_range_exits_3_without_artifact(tmp_path, capsys):
    code = run("bound", "--t", "1", "--d", str(10**400), "--output", str(tmp_path / "x.csv"))
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "hard limit" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv", [["bound", "--t", "1", "--d"], ["velocity", "--dmin", "1", "--dmax"]]
)
def test_distance_of_4300_digits_exits_3_without_artifact(tmp_path, capsys, argv):
    # The longest int a decimal string converts to; twice it has 4301 digits,
    # one past the limit, so the refusal must not print 2 d.
    code = run(*argv, "9" + "0" * 4299, "--output", str(tmp_path / "x"))
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "hard limit" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("d", ["0", "5"])
def test_bound_time_whose_step_underflows_exits_1_without_artifact(tmp_path, capsys, d):
    argv = ["bound", "--t", "5e-324", "--d", d, "--step-factor", "0.1",
            "--output", str(tmp_path / "x.csv")]
    assert run(*argv) == cli.EXIT_USAGE
    assert "t = 5e-324, step_factor = 0.1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bound_usage_errors(tmp_path):
    assert run("bound", "--t", "-1.0", "--output", str(tmp_path / "x")) == cli.EXIT_USAGE
    assert run("bound", "--d", "2.5", "--output", str(tmp_path / "x")) == cli.EXIT_USAGE
    for t in ("nan", "inf"):
        assert run("bound", "--t", t, "--d", "2", "--output", str(tmp_path / "x")) == cli.EXIT_USAGE
    assert list(tmp_path.iterdir()) == []


def test_bound_grid_past_row_limit_exits_1_without_artifact(tmp_path, capsys):
    # 317 x 316 = 100,172 cells, just past ROW_LIMIT; none is evaluated.
    t_arg = ",".join(str(0.01 * k) for k in range(317))
    d_arg = ",".join(str(d) for d in range(316))
    start = time.perf_counter()
    assert run("bound", "--t", t_arg, "--d", d_arg, "--output", str(tmp_path / "x")) == 1
    assert time.perf_counter() - start < 1.0
    assert "100172 cells" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--rel-tol", "nan", "--t", "0.5", "--d", "2"],
        ["bound", "--rel-tol", "inf", "--t", "0.5", "--d", "2"],
        # rel_tol >= 1 would certify an infinite tail here.
        ["bound", "--rel-tol", "1e300", "--g", "7.12", "--J", "0.499", "--probe-norm", "0.267",
         "--step-factor", "0.694", "--t", "137.86", "--d", "2"],
        ["velocity", "--rel-tol", "nan"],
        ["velocity", "--epsilon", "nan"],
        ["velocity", "--epsilon", "inf"],
    ],
)
def test_non_finite_tolerances_exit_1_without_artifact(tmp_path, capsys, argv):
    start = time.perf_counter()
    assert run(*argv, "--output", str(tmp_path / "x")) == cli.EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert "must be finite and > 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# velocity
# ---------------------------------------------------------------------------


def test_velocity_report_matches_library(tmp_path):
    out = tmp_path / "vel.json"
    code = run(
        "velocity",
        "--dmin", "4", "--dmax", "10", "--dstep", "2",
        "--epsilon", "1e-6",
        "--output", str(out),
    )
    assert code == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 3
    assert [d for d, _ in doc["arrivals"]] == [4, 6, 8, 10]
    assert doc["config"]["tolerances"]["epsilon"] == 1e-6
    assert doc["config"]["couplings"]["g"] == 0.5

    couplings = Couplings(g=0.5, J=0.5)
    ref_evaluator = BoundEvaluator(couplings, source=DpCountSource(n_max=80))
    ref = extract_velocity(
        couplings,
        d_values=[4, 6, 8, 10],
        epsilon=1e-6,
        evaluator=ref_evaluator,
        include_profile=True,
    )
    # The sidecar counts every evaluate call: the arrivals' and the profile's,
    # whose last sample reuses the last arrival's final evaluation.
    meta = json.loads((tmp_path / "vel.json.meta.json").read_text())
    assert meta["output"] == str(out)
    assert meta["evaluations"] == ref_evaluator.evaluations
    assert meta["evaluations"] == sum(a.evaluations for a in ref.arrivals) + 3
    assert set(doc) == {
        "schema_version", "config", "arrivals", "arrival_bounds", "fit", "cone",
        "ratio_v_over_c", "subwindow_slopes",
    }
    # Both sides run the same arithmetic, so every value agrees exactly.
    assert doc["fit"] == {
        "v": ref.fit.velocity,
        "xi": ref.fit.decay_length,
        "A": ref.fit.amplitude,
        "residual_rms": ref.fit.residual_rms,
        "front_offset": ref.fit.front_offset,
        "r_squared": ref.fit.r_squared,
    }
    assert doc["arrivals"] == [[a.d, a.time] for a in ref.arrivals]
    assert doc["arrival_bounds"] == [a.bound_value for a in ref.arrivals]
    assert doc["subwindow_slopes"] == list(ref.subwindow_slopes)
    assert set(doc["cone"]) == {"v_paper"}
    assert doc["cone"]["v_paper"] == pytest.approx(math.sqrt(2) * math.e * math.sqrt(0.5), rel=1e-14)


def test_velocity_defaults_reproduce_headline_configuration():
    parser = cli.build_parser()
    args = parser.parse_args(["velocity"])
    assert (args.dmin, args.dmax, args.dstep) == (10, 40, 2)
    cli.resolve_config(args)
    assert (args.couplings.g, args.couplings.J) == (0.5, 0.5)
    assert args.epsilon == 1e-8
    assert args.format == "json"
    assert cli._output_path(args) == "velocity_report.json"


def test_velocity_rejects_csv_format(tmp_path, capsys):
    # velocity has no --format flag; a config file can still ask for csv.
    cfg_path = tmp_path / "csv.json"
    cfg_path.write_text(json.dumps({"output": {"format": "csv"}}))
    code = run("velocity", "--config", str(cfg_path), "--output", str(tmp_path / "x"))
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "JSON report" in err
    # The message names the config key that asked for csv, not a flag velocity lacks.
    assert "output.format" in err and "--format" not in err
    assert run("velocity", "--format", "json", "--output", str(tmp_path / "x")) == cli.EXIT_USAGE
    assert "unrecognized arguments: --format json" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["csv.json"]


def test_velocity_bad_window(tmp_path):
    assert run("velocity", "--dmin", "8", "--dmax", "4", "--output", str(tmp_path / "x")) == 1
    assert run("velocity", "--dmin", "0", "--output", str(tmp_path / "x")) == 1


def test_velocity_narrow_window_exits_1_at_once(tmp_path, capsys):
    start = time.perf_counter()
    code = run("velocity", "--dmin", "500", "--dmax", "503", "--dstep", "1",
               "--output", str(tmp_path / "x"))
    assert code == cli.EXIT_USAGE
    assert time.perf_counter() - start < 0.5
    assert "ratio >= 2.0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_velocity_window_past_work_budget_exits_3_at_once(tmp_path, capsys):
    # d > 4096 needs walks past hard_n_limit 8192; no arrival is computed first.
    start = time.perf_counter()
    code = run("velocity", "--dmin", "1", "--dmax", "100000", "--output", str(tmp_path / "x"))
    assert code == cli.EXIT_NUMERIC
    assert time.perf_counter() - start < 1.0
    assert "hard limit" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # The check precedes the distance list, so a window of 1e9 costs no more.
    start = time.perf_counter()
    code = run("velocity", "--dmin", "1", "--dmax", "1000000000", "--output", str(tmp_path / "x"))
    assert code == cli.EXIT_NUMERIC
    assert time.perf_counter() - start < 1.0
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# scan-dim
# ---------------------------------------------------------------------------


def test_scan_dim_rows_match_library(tmp_path):
    out = tmp_path / "scan.csv"
    code = run("scan-dim", "--dim-min", "2", "--dim-max", "6", "--num", "5", "--output", str(out))
    assert code == cli.EXIT_OK
    _, header, rows = read_csv(out)
    assert header == ["D", "v_axis_pairs", "v_degrees"]
    assert [float(r[0]) for r in rows] == [2.0, 3.0, 4.0, 5.0, 6.0]
    couplings = Couplings(g=0.5, J=0.5)
    for d_s, v_axis_s, v_deg_s in rows:
        D = float(d_s)
        assert float(v_axis_s) == v_lr_dimension(D, couplings, BranchingConvention.AXIS_PAIRS)
        assert float(v_deg_s) == v_lr_dimension(D, couplings, BranchingConvention.DEGREES)


def test_scan_dim_usage_errors(tmp_path):
    assert run("scan-dim", "--dim-min", "1.5", "--output", str(tmp_path / "x")) == 1
    assert run("scan-dim", "--num", "1", "--output", str(tmp_path / "x")) == 1
    assert run("scan-dim", "--dim-min", "8", "--dim-max", "4", "--output", str(tmp_path / "x")) == 1
    # Past ROW_LIMIT the row list alone would take minutes and gigabytes.
    start = time.perf_counter()
    assert run("scan-dim", "--num", "100000001", "--output", str(tmp_path / "x")) == 1
    assert time.perf_counter() - start < 1.0
    assert list(tmp_path.iterdir()) == []


def test_scan_dim_velocity_past_float_range_exits_1_without_artifact(tmp_path, capsys):
    # 4 D (D - 1) overflows at D = 1e200: the axis_pairs velocity would read inf.
    argv = ["scan-dim", "--dim-max", "1e200", "--num", "3", "--output", str(tmp_path / "x")]
    assert run(*argv) == cli.EXIT_USAGE
    assert "past the float range" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# horizon
# ---------------------------------------------------------------------------


def test_horizon_csv_matches_library(tmp_path):
    out = tmp_path / "cone.csv"
    code = run(
        "horizon",
        "--Din", "10", "--alpha", "0.02", "--tf", "5", "--steps", "6",
        "--output", str(out),
    )
    assert code == cli.EXIT_OK
    echo, header, rows = read_csv(out)
    assert header == ["t", "r_axis_pairs", "r_degrees"]
    assert echo["model"]["D_in"] == 10.0
    assert echo["model"]["mode"] == "toy"

    model = HorizonModel(D_in=10.0, alpha=0.02, couplings=Couplings(g=0.5, J=0.5))
    ref = lightcone_boundary(model, 0.0, 5.0, 6)
    assert [tuple(float(x) for x in row) for row in rows] == ref


def test_horizon_csv_roundtrip(tmp_path):
    out = tmp_path / "cone.csv"
    argv = ["horizon", "--Din", "6", "--alpha", "0.02", "--tf", "5", "--steps", "6",
            "--output", str(out)]
    assert run(*argv) == cli.EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    echoed = json.loads(lines[0].removeprefix("# config: "))
    model = HorizonModel(D_in=6.0, alpha=0.02, couplings=Couplings(g=0.5, J=0.5))
    assert echoed["model"] == {"D_in": 6.0, "alpha": 0.02, "mode": "toy"}
    assert lines[1] == "t,r_axis_pairs,r_degrees"
    assert len(lines) == 2 + 6
    parsed = [tuple(float(x) for x in line.split(",")) for line in lines[2:]]
    assert parsed == lightcone_boundary(model, 0.0, 5.0, 6)
    # Conventions genuinely differ above D = 2 and the file shows both.
    assert all(ra > rd for _, ra, rd in parsed[1:])
    # Byte-identical determinism.
    first = out.read_bytes()
    assert run(*argv) == cli.EXIT_OK
    assert out.read_bytes() == first


def test_horizon_alpha_zero_is_linear(tmp_path):
    out = tmp_path / "lin.csv"
    assert run("horizon", "--Din", "100", "--alpha", "0", "--tf", "4", "--steps", "5",
               "--output", str(out)) == cli.EXIT_OK
    _, _, rows = read_csv(out)
    v = v_lr_dimension(100.0, Couplings(g=0.5, J=0.5), BranchingConvention.AXIS_PAIRS)
    for t_s, r_s, _ in rows:
        assert float(r_s) == pytest.approx(v * float(t_s), rel=1e-10, abs=1e-12)


def test_horizon_dimension_below_one_exits_1(tmp_path, capsys):
    code = run("horizon", "--Din", "2.0", "--alpha", "0.2", "--tf", "4",
               "--output", str(tmp_path / "x.csv"))
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err


def test_horizon_steps_past_row_limit_exits_1_without_artifact(tmp_path):
    start = time.perf_counter()
    assert run("horizon", "--steps", "100000001", "--output", str(tmp_path / "x.csv")) == 1
    assert time.perf_counter() - start < 1.0
    assert list(tmp_path.iterdir()) == []


def test_horizon_strict_mode_rejects_crossing(tmp_path):
    # D(t) = 3 (1 - 0.1 t) reaches 1.5 at t = 5: inside toy territory,
    # below the strict-mode floor of 2.
    argv = ["horizon", "--Din", "3.0", "--alpha", "0.1", "--tf", "5", "--steps", "4",
            "--output", str(tmp_path / "x.csv")]
    assert run(*argv) == cli.EXIT_OK  # toy mode saturates
    assert run(*argv, "--strict") == cli.EXIT_USAGE  # strict refuses D < 2


@pytest.mark.parametrize(
    "flags", [["--tf", "nan"], ["--tf", "inf", "--alpha", "0"], ["--tf", "inf"]]
)
def test_horizon_non_finite_tf_exits_1_without_artifact(tmp_path, capsys, flags):
    assert run("horizon", *flags, "--output", str(tmp_path / "x.csv")) == cli.EXIT_USAGE
    assert "must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--steps", "1"], "steps must be >= 2, got 1"),
        (["--tf", "-1"], "the end time -1.0 is before the start time 0.0"),
        (["--tf", "nan"], "the start and end times must be finite, got 0.0 and nan"),
    ],
    ids=["steps_1", "tf_-1", "tf_nan"],
)
def test_horizon_bad_grid_exits_1_with_the_engine_message(tmp_path, capsys, flags, message):
    # lightcone_boundary alone checks --steps and --tf, before any file is opened.
    assert run("horizon", *flags, "--output", str(tmp_path / "x.csv")) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"lrcone horizon: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_horizon_time_grid_past_float_range_exits_1_without_artifact(tmp_path, capsys):
    argv = ["horizon", "--alpha", "0", "--tf", "1e308", "--output", str(tmp_path / "x.csv")]
    assert run(*argv) == cli.EXIT_USAGE
    assert "time grid from 0.0 to 1e+308 is past the float range" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_horizon_radius_past_float_range_exits_1_without_artifact(tmp_path, capsys):
    # u * u overflows in the axis_pairs mean at D_in = 1e300: the radius reads nan.
    argv = ["horizon", "--Din", "1e300", "--alpha", "1e-3", "--tf", "10", "--steps", "3",
            "--output", str(tmp_path / "x.csv")]
    assert run(*argv) == cli.EXIT_USAGE
    assert "past the float range" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# parser-level exit codes
# ---------------------------------------------------------------------------


def test_argparse_errors_are_remapped_to_1():
    assert run() == cli.EXIT_USAGE  # missing subcommand
    assert run("definitely-not-a-command") == cli.EXIT_USAGE
    assert run("bound", "--no-such-flag") == cli.EXIT_USAGE
    assert run("bound", "--t") == cli.EXIT_USAGE  # flag missing its value


def test_help_exits_0(capsys):
    assert run("--help") == cli.EXIT_OK
    assert "count" in capsys.readouterr().out


def test_help_lists_exit_codes_without_developer_notes(capsys):
    assert run("--help") == cli.EXIT_OK
    out = " ".join(capsys.readouterr().out.split())
    for code in (
        "0 success",
        "1 usage or validation error",
        "2 closed-form fidelity mismatch",
        "3 numerical failure",
    ):
        assert code in out
    assert "_CONFIG_DEFAULTS" not in out
    assert "write_table" not in out


def test_negative_coupling_rejected(tmp_path):
    assert run("bound", "--g", "-1", "--output", str(tmp_path / "x")) == cli.EXIT_USAGE
    assert run("bound", "--step-factor", "3.0", "--output", str(tmp_path / "x")) == 1


@pytest.mark.parametrize("gj", ["1e300", "1e-200"])
@pytest.mark.parametrize(
    "argv", [["scan-dim"], ["horizon"], ["bound", "--t", "1", "--d", "2"], ["velocity"]]
)
def test_coupling_product_outside_float_range_exits_1_without_artifact(tmp_path, capsys, argv, gj):
    # g J overflows (inf rows) or underflows to 0 (zero velocities, "math domain error").
    assert run(*argv, "--g", gj, "--J", gj, "--output", str(tmp_path / "x")) == cli.EXIT_USAGE
    assert "g*J" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_NORMS_OUT_OF_RANGE = "2*origin_norm*probe_norm must lie in"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["velocity", "--origin-norm", "1e-200", "--probe-norm", "1e-200"], _NORMS_OUT_OF_RANGE),
        (["velocity", "--origin-norm", "1e154", "--probe-norm", "1e154"], _NORMS_OUT_OF_RANGE),
        (["bound", "--origin-norm", "1e-200", "--probe-norm", "1e-200"], _NORMS_OUT_OF_RANGE),
        (["bound", "--origin-norm", "1e300", "--probe-norm", "1e300"], _NORMS_OUT_OF_RANGE),
        (["velocity", "--epsilon", "5e-324"], "got epsilon = 5e-324"),
    ],
)
def test_prefactor_outside_float_range_exits_1_without_artifact(tmp_path, capsys, argv, message):
    # 2 |P| |Q| underflows (a division by zero, "math domain error") or
    # overflows ("math domain error", or a series run to exit 3), or
    # epsilon / (2 |P| |Q|) underflows ("math domain error").
    assert run(*argv, "--output", str(tmp_path / "x")) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# Base arguments per command, and for each (command, flag) the parser
# registers, the flag's own arguments: adding them to the base changes the
# artifact body (the config echo aside) or the exit code.  "missing/x" names a
# directory that does not exist.
_BASE_ARGS = {
    "count": ["--nmax", "4", "--d", "1"],
    "bound": ["--t", "1", "--d", "2"],
    "velocity": ["--dmin", "2", "--dmax", "8"],
    "scan-dim": ["--num", "3"],
    # D(t) = 3 (1 - 0.1 t) crosses D = 2 before t_f = 5.
    "horizon": ["--Din", "3", "--alpha", "0.1", "--tf", "5", "--steps", "4"],
}
_FLAG_ARGS = {
    ("count", "--config"): ["--config", "json.cfg"],
    ("count", "--output"): ["--output", "missing/x"],
    ("count", "--format"): ["--format", "json"],
    ("count", "--nmax"): ["--nmax", "6"],
    ("count", "--d"): ["--d", "2"],
    ("bound", "--config"): ["--config", "g.cfg"],
    ("bound", "--g"): ["--g", "0.7"],
    ("bound", "--J"): ["--J", "0.7"],
    ("bound", "--origin-norm"): ["--origin-norm", "2"],
    ("bound", "--probe-norm"): ["--probe-norm", "2"],
    ("bound", "--step-factor"): ["--step-factor", "1"],
    ("bound", "--rel-tol"): ["--rel-tol", "1e-3"],
    ("bound", "--output"): ["--output", "missing/x"],
    ("bound", "--format"): ["--format", "json"],
    ("bound", "--t"): ["--t", "2"],
    ("bound", "--d"): ["--d", "4"],
    ("velocity", "--config"): ["--config", "g.cfg"],
    ("velocity", "--g"): ["--g", "0.7"],
    ("velocity", "--J"): ["--J", "0.7"],
    ("velocity", "--origin-norm"): ["--origin-norm", "2"],
    ("velocity", "--probe-norm"): ["--probe-norm", "2"],
    ("velocity", "--step-factor"): ["--step-factor", "1"],
    ("velocity", "--rel-tol"): ["--rel-tol", "1e-3"],
    ("velocity", "--epsilon"): ["--epsilon", "1e-6"],
    ("velocity", "--output"): ["--output", "missing/x"],
    ("velocity", "--dmin"): ["--dmin", "4"],
    ("velocity", "--dmax"): ["--dmax", "10"],
    ("velocity", "--dstep"): ["--dstep", "1"],
    ("scan-dim", "--config"): ["--config", "g.cfg"],
    ("scan-dim", "--g"): ["--g", "0.7"],
    ("scan-dim", "--J"): ["--J", "0.7"],
    ("scan-dim", "--step-factor"): ["--step-factor", "1"],
    ("scan-dim", "--output"): ["--output", "missing/x"],
    ("scan-dim", "--format"): ["--format", "json"],
    ("scan-dim", "--dim-min"): ["--dim-min", "3"],
    ("scan-dim", "--dim-max"): ["--dim-max", "8"],
    ("scan-dim", "--num"): ["--num", "4"],
    ("horizon", "--config"): ["--config", "g.cfg"],
    ("horizon", "--g"): ["--g", "0.7"],
    ("horizon", "--J"): ["--J", "0.7"],
    ("horizon", "--step-factor"): ["--step-factor", "1"],
    ("horizon", "--output"): ["--output", "missing/x"],
    ("horizon", "--format"): ["--format", "json"],
    ("horizon", "--Din"): ["--Din", "4"],
    ("horizon", "--alpha"): ["--alpha", "0.05"],
    ("horizon", "--tf"): ["--tf", "4"],
    ("horizon", "--steps"): ["--steps", "5"],
    ("horizon", "--strict"): ["--strict"],
}


def _registered_flags() -> set[tuple[str, str]]:
    parser = cli.build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        (command, flag)
        for command, sub in commands.choices.items()
        for action in sub._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
    }


def test_flag_table_covers_exactly_the_registered_flags():
    assert set(_FLAG_ARGS) == _registered_flags()
    assert len(_FLAG_ARGS) == 48


def _body_without_echo(path):
    """CSV rows after the "# config:" line, or the JSON document minus its echo."""
    if not path.exists():
        return None
    text = path.read_text()
    if text.startswith("# config: "):
        return text.split("\n", 1)[1]
    doc = json.loads(text)
    for key in ("config", "model", "schema_version"):
        doc.pop(key, None)
    return doc


@pytest.mark.parametrize("command,flag", list(_FLAG_ARGS))
def test_every_flag_changes_the_body_or_the_exit_code(tmp_path, monkeypatch, command, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "json.cfg").write_text(json.dumps({"output": {"format": "json"}}))
    (tmp_path / "g.cfg").write_text(json.dumps({"couplings": {"g": 0.7}}))
    base = _BASE_ARGS[command]
    code = run(command, "--output", "base.out", *base)
    flagged = run(command, "--output", "flag.out", *base, *_FLAG_ARGS[command, flag])
    assert (code, _body_without_echo(tmp_path / "base.out")) != (
        flagged, _body_without_echo(tmp_path / "flag.out")
    )


# ---------------------------------------------------------------------------
# config files, precedence, determinism
# ---------------------------------------------------------------------------


def test_config_file_then_flag_precedence(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "couplings": {"g": 0.7, "J": 0.3},
        "tolerances": {"rel_tol": 1e-8},
        "output": {"format": "csv"},
    }))
    out = tmp_path / "b.csv"
    code = run("bound", "--config", str(cfg_path), "--g", "0.9",
               "--t", "1.0", "--d", "2", "--output", str(out))
    assert code == cli.EXIT_OK
    echo, _, _ = read_csv(out)
    assert echo["config"]["couplings"]["g"] == 0.9  # flag wins
    assert echo["config"]["couplings"]["J"] == 0.3  # file survives
    assert echo["config"]["tolerances"]["rel_tol"] == 1e-8


# Each replayed run sets one key of every config section: couplings.J and
# tolerances.rel_tol from a file, output.format from the file or a flag, and
# output.path by --output.  Its other flags are not config keys, so the
# replay passes them again.
_REPLAY_ARGS = {
    "count": ["--nmax", "6", "--d", "1"],
    "bound": ["--t", "0.5,1.5", "--d", "3"],
    "velocity": ["--dmin", "4", "--dmax", "10"],
    "scan-dim": ["--num", "3"],
    "horizon": ["--steps", "5", "--strict"],
}
_REPLAY_FLAGS = {
    "count": ["--format", "csv"],
    "bound": ["--g", "0.8", "--format", "csv"],
    "velocity": ["--g", "0.8", "--epsilon", "1e-6"],
    "scan-dim": ["--step-factor", "1.2"],
    "horizon": ["--g", "0.8"],
}


@pytest.mark.parametrize("command", list(_REPLAY_ARGS))
def test_echoed_config_reproduces_run(tmp_path, monkeypatch, command):
    # Relative names only: output.path is part of the echo.
    monkeypatch.chdir(tmp_path)
    with open("first.json", "w") as fh:
        json.dump({
            "couplings": {"J": 0.4},
            "tolerances": {"rel_tol": 1e-9},
            "output": {"format": "json"},
        }, fh)
    code = run(command, "--config", "first.json", "--output", "a.out",
               *_REPLAY_FLAGS[command], *_REPLAY_ARGS[command])
    assert code == (cli.EXIT_MISMATCH if command == "count" else cli.EXIT_OK)
    first = _artifacts(tmp_path)
    text = (tmp_path / "a.out").read_text()
    echo = read_csv("a.out")[0] if text.startswith("# config: ") else json.loads(text)
    with open("replay.json", "w") as fh:
        json.dump(echo["config"], fh)
    for p in tmp_path.glob("a.out*"):
        p.unlink()

    assert run(command, "--config", "replay.json", *_REPLAY_ARGS[command]) == code
    assert _artifacts(tmp_path) == first


def _artifacts(directory):
    """Every file a run wrote to a.out*, sidecar excluded, by name."""
    return {
        p.name: p.read_bytes()
        for p in directory.glob("a.out*")
        if not p.name.endswith(".meta.json")
    }


# The config echo, byte for byte, at the defaults and with a config file that
# sets part of every section while --g overrides its g (count has no --g, so
# its echo keeps the file's g).  Only the echo is pinned: numeric bodies pass
# through libm and may differ in the last bit.
_PINNED_CONFIG = {
    "couplings": {"g": 0.7, "J": 0.3, "origin_norm": 2.0},
    "tolerances": {"rel_tol": 1e-9, "epsilon": 1e-6},
    "output": {"path": "configured.out"},
}
_CSV_ECHO_DEFAULT = (
    '# config: {"config": {"couplings": {"J": 0.5, "g": 0.5, "origin_norm": 1.0, '
    '"probe_norm": 1.0, "step_factor": 1.4142135623730951}, "output": {"format": "csv", '
    '"path": null}, "tolerances": {"epsilon": 1e-08, "rel_tol": 1e-10}}, "schema_version": 3}'
)
_CSV_ECHO_CONFIG = (
    '# config: {"config": {"couplings": {"J": 0.3, "g": 0.9, "origin_norm": 2.0, '
    '"probe_norm": 1.0, "step_factor": 1.4142135623730951}, "output": {"format": "csv", '
    '"path": "configured.out"}, "tolerances": {"epsilon": 1e-06, "rel_tol": 1e-09}}, '
    '"schema_version": 3}'
)
_PINNED_ECHOES = {
    (False, "count"): _CSV_ECHO_DEFAULT,
    (False, "bound"): _CSV_ECHO_DEFAULT,
    (False, "scan-dim"): _CSV_ECHO_DEFAULT,
    (False, "velocity"): (
        '{"config": {"couplings": {"J": 0.5, "g": 0.5, "origin_norm": 1.0, "probe_norm": 1.0, '
        '"step_factor": 1.4142135623730951}, "output": {"format": "json", "path": null}, '
        '"tolerances": {"epsilon": 1e-08, "rel_tol": 1e-10}}, "schema_version": 3}'
    ),
    (False, "horizon"): (
        '# config: {"config": {"couplings": {"J": 0.5, "g": 0.5, "origin_norm": 1.0, '
        '"probe_norm": 1.0, "step_factor": 1.4142135623730951}, "output": {"format": "csv", '
        '"path": null}, "tolerances": {"epsilon": 1e-08, "rel_tol": 1e-10}}, "model": '
        '{"D_in": 100.0, "alpha": 0.01, "mode": "toy"}, "schema_version": 3}'
    ),
    (True, "count"): (
        '# config: {"config": {"couplings": {"J": 0.3, "g": 0.7, "origin_norm": 2.0, '
        '"probe_norm": 1.0, "step_factor": 1.4142135623730951}, "output": {"format": "csv", '
        '"path": "configured.out"}, "tolerances": {"epsilon": 1e-06, "rel_tol": 1e-09}}, '
        '"schema_version": 3}'
    ),
    (True, "bound"): _CSV_ECHO_CONFIG,
    (True, "scan-dim"): _CSV_ECHO_CONFIG,
    (True, "velocity"): (
        '{"config": {"couplings": {"J": 0.3, "g": 0.9, "origin_norm": 2.0, "probe_norm": 1.0, '
        '"step_factor": 1.4142135623730951}, "output": {"format": "json", '
        '"path": "configured.out"}, "tolerances": {"epsilon": 1e-06, "rel_tol": 1e-09}}, '
        '"schema_version": 3}'
    ),
    (True, "horizon"): (
        '# config: {"config": {"couplings": {"J": 0.3, "g": 0.9, "origin_norm": 2.0, '
        '"probe_norm": 1.0, "step_factor": 1.4142135623730951}, "output": {"format": "csv", '
        '"path": "configured.out"}, "tolerances": {"epsilon": 1e-06, "rel_tol": 1e-09}}, '
        '"model": {"D_in": 100.0, "alpha": 0.01, "mode": "toy"}, "schema_version": 3}'
    ),
}
_DEFAULT_NAMES = {
    "count": "counts.csv",
    "bound": "bound_grid.csv",
    "velocity": "velocity_report.json",
    "scan-dim": "dimension_scan.csv",
    "horizon": "lightcone.csv",
}


@pytest.mark.parametrize("with_config", [False, True], ids=["defaults", "config"])
@pytest.mark.parametrize("command", list(_DEFAULT_NAMES))
def test_config_echo_bytes_are_pinned(tmp_path, monkeypatch, command, with_config):
    # Relative names only: output.path is part of the echo.
    monkeypatch.chdir(tmp_path)
    argv = [command]
    if with_config:
        with open("run_config.json", "w") as fh:
            json.dump(_PINNED_CONFIG, fh)
        argv += ["--config", "run_config.json"] + (["--g", "0.9"] if command != "count" else [])
    assert run(*argv) == (cli.EXIT_MISMATCH if command == "count" else cli.EXIT_OK)
    with open("configured.out" if with_config else _DEFAULT_NAMES[command]) as fh:
        if command == "velocity":
            doc = json.load(fh)
            echo = json.dumps(
                {"config": doc["config"], "schema_version": doc["schema_version"]},
                sort_keys=True,
            )
        else:
            echo = fh.readline().rstrip("\n")
    assert echo == _PINNED_ECHOES[with_config, command]


def _schema_versions(node) -> int:
    """How many schema_version keys sit anywhere in a parsed JSON document."""
    if isinstance(node, dict):
        return ("schema_version" in node) + sum(map(_schema_versions, node.values()))
    if isinstance(node, list):
        return sum(map(_schema_versions, node))
    return 0


def test_every_document_has_one_schema_version_at_the_top(tmp_path, monkeypatch):
    # Every JSON document and every CSV config line: one document per run.
    monkeypatch.chdir(tmp_path)
    for command in _DEFAULT_NAMES:
        for fmt in ("json",) if command == "velocity" else ("csv", "json"):
            flags = [] if command == "velocity" else ["--format", fmt]
            out = f"{command}.{fmt}"
            assert run(command, *_BASE_ARGS[command], *flags, "--output", out) in (0, 2)
    documents = sorted(p for p in tmp_path.iterdir() if not p.name.endswith(".meta.json"))
    assert len(documents) == 9
    for path in documents:
        text = path.read_text()
        if text.startswith("# config: "):
            text = text.split("\n", 1)[0].removeprefix("# config: ")
        doc = json.loads(text)
        assert (_schema_versions(doc), doc.get("schema_version")) == (1, 3), path.name


@pytest.mark.parametrize("command", ["count", "bound", "scan-dim", "horizon"])
def test_json_default_name_follows_format(tmp_path, monkeypatch, command):
    # Without --output a JSON document takes the .json name, never the .csv one.
    monkeypatch.chdir(tmp_path)
    assert run(command, "--format", "json") == (
        cli.EXIT_MISMATCH if command == "count" else cli.EXIT_OK
    )
    name = _DEFAULT_NAMES[command].removesuffix(".csv") + ".json"
    assert {p.name for p in tmp_path.iterdir()} == {name, name + ".meta.json"}
    assert json.loads((tmp_path / name).read_text())["config"]["output"]["format"] == "json"
    assert json.loads((tmp_path / (name + ".meta.json")).read_text())["output"] == name


def test_shared_parser_carries_no_state_between_calls(tmp_path, monkeypatch):
    # main reuses one parser; a run with flags must not leak them into the
    # next run, whose artifact must match one parsed by a fresh parser.
    first, second = tmp_path / "first.json", tmp_path / "second.csv"
    flagged = ["horizon", "--strict", "--format", "json", "--g", "2", "--Din", "9"]
    assert run(*flagged, "--output", str(first)) == cli.EXIT_OK
    assert run("horizon", "--steps", "7", "--output", str(second)) == cli.EXIT_OK
    fresh = tmp_path / "fresh.csv"
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    assert run("horizon", "--steps", "7", "--output", str(fresh)) == cli.EXIT_OK
    assert second.read_text().replace("second.csv", "X") == fresh.read_text().replace(
        "fresh.csv", "X"
    )
    echo, _, _ = read_csv(second)
    assert echo["model"]["mode"] == "toy"
    assert echo["config"]["couplings"]["g"] == 0.5


def test_identical_runs_are_byte_identical_with_sidecar_timestamps(tmp_path):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    argv = ["scan-dim", "--dim-min", "2", "--dim-max", "10", "--num", "4"]
    assert run(*argv, "--output", str(out1)) == 0
    assert run(*argv, "--output", str(out2)) == 0
    assert out1.read_text().replace("r1.csv", "X") == out2.read_text().replace("r2.csv", "X")

    meta = json.loads((tmp_path / "r1.csv.meta.json").read_text())
    assert set(meta) == {"output", "written_at_unix"}
    assert meta["written_at_unix"] > 0
    assert "written_at_unix" not in out1.read_text()


@pytest.mark.parametrize(
    "doc",
    [
        {"couplings": {"g": 0.5}, "mystery": {}},
        {"couplings": {"g": 0.5, "h": 1.0}},
        {"couplings": "not-an-object"},
        [1, 2, 3],
        # Values of the wrong JSON type, refused before any file is opened.
        {"couplings": {"g": "abc"}},
        {"couplings": {"g": True}},
        {"tolerances": {"rel_tol": "x"}},
        {"tolerances": {"epsilon": "1e-8"}},
        {"couplings": {"J": 10**400}},
        {"output": {"path": 7}},
        {"output": {"path": 987654}},
        {"output": {"path": ["x.csv"]}},
        {"output": {"format": "xml"}},
    ],
)
def test_bad_config_files_exit_1(tmp_path, monkeypatch, capsys, doc):
    monkeypatch.chdir(tmp_path)
    with open("bad.json", "w") as fh:
        json.dump(doc, fh)
    for command in ("bound", "velocity"):
        assert run(command, "--config", "bad.json") == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"lrcone {command}: ") and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


@pytest.mark.parametrize(
    "section,key",
    [("lattice", "dimension"), ("lattice", "extent"), ("tolerances", "quad_rel_tol")],
)
def test_schema_1_config_keys_exit_1(tmp_path, capsys, section, key):
    # The lattice section and quad_rel_tol were read by no command and are
    # gone from schema 2; an old echo that still carries them is refused.
    value = {"dimension": 2, "extent": 12, "quad_rel_tol": 1e-11}[key]
    cfg_path = tmp_path / "old.json"
    cfg_path.write_text(json.dumps({"schema_version": 1, section: {key: value}}))
    out = tmp_path / "x.csv"
    assert run("bound", "--config", str(cfg_path), "--output", str(out)) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "unknown" in err and (section if section == "lattice" else key) in err
    assert not out.exists()


def test_malformed_and_missing_config_files_exit_1(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run("bound", "--config", str(broken), "--output", str(tmp_path / "x")) == 1
    assert run("bound", "--config", str(tmp_path / "nope.json"),
               "--output", str(tmp_path / "x")) == 1
    # Nesting past the recursion limit is a usage error, not a traceback.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    capsys.readouterr()
    assert run("bound", "--config", str(deep), "--output", str(tmp_path / "x")) == 1
    err = capsys.readouterr().err
    assert err.startswith("lrcone bound: ") and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_empty_config_path_fails_like_empty_output_path(tmp_path, capsys):
    # An empty --config names no file; it must not fall back to the defaults.
    out = tmp_path / "o.csv"
    assert run("bound", "--config", "", "--output", str(out)) == cli.EXIT_USAGE
    assert "No such file" in capsys.readouterr().err
    assert not out.exists()
    assert run("bound", "--output", "") == cli.EXIT_USAGE
    assert "No such file" in capsys.readouterr().err
