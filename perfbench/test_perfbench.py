"""Tests of the benchmark's own helpers: oracles, input generators, span maths.

Run from the repository root:  python -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import random
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
from spans import Tracer, import_split, median, p95, summarize  # noqa: E402
from workloads import (  # noqa: E402
    D_FLOOR,
    HALF,
    STEP,
    check_horizon_rows,
    horizon_inputs,
    large_t_times,
    layer_metrics,
    read_horizon_rows,
)

from lrcone.cli import main  # noqa: E402
from lrcone.cosmo import BranchingConvention, HorizonModel, horizon_distance  # noqa: E402
from lrcone.lattice import LatticeSpec, build_decorated_lattice  # noqa: E402
from lrcone.lrbound import Couplings  # noqa: E402
from lrcone.pathcount import (  # noqa: E402
    axis_walk_counts,
    centered_axis_link,
    count_walks_dp,
    perpendicular_target,
)


def test_lieb_counts_match_axis_walk_counts():
    table = axis_walk_counts(48, 12)
    for d in range(13):
        for n in range(49):
            assert oracles.lieb_count(n, d) == table.count(n, d), (n, d)


def test_lieb_counts_match_lattice_dp():
    lattice = build_decorated_lattice(LatticeSpec(dimension=2, extent=12, boundary="periodic"))
    targets = [perpendicular_target(lattice, d) for d in range(5)]
    table = count_walks_dp(lattice, centered_axis_link(lattice), 11, targets=targets)
    for d, q in enumerate(targets):
        for n in range(12):
            assert oracles.lieb_count(n, d) == table.count(n, q), (n, d)


@pytest.mark.parametrize(
    "d_in,alpha,t",
    [
        (1e9, 1e-3, 100.0),  # acceptance criterion 7's regime
        (1e9, 1e-3, 1e-3),  # tiny interval next to a huge D: no cancellation
        (100.0, 0.01, 50.0),
        (10.0, 0.05, 17.5),  # past the D = 2 crossing, velocity clamped to 0
        (3.0, 0.1, 6.0),
        (5e4, 0.0, 3.0),
    ],
)
@pytest.mark.parametrize("convention", list(BranchingConvention))
def test_horizon_closed_form_matches_quadrature(d_in, alpha, t, convention):
    model = HorizonModel(D_in=d_in, alpha=alpha, couplings=Couplings(**HALF), convention=convention)
    closed = oracles.horizon_radius(d_in, alpha, t, step=STEP, convention=convention.value, **HALF)
    assert oracles.relative_error(closed, horizon_distance(model, 0.0, t)) <= oracles.HORIZON_REL_TOL


def test_horizon_inputs_stay_inside_the_model_domain():
    for seed in range(50):
        inputs = horizon_inputs(random.Random(seed))
        assert inputs == horizon_inputs(random.Random(seed))
        for d_in, alpha, t_f in inputs:
            assert 3.0 <= d_in <= 1e9 and 1e-3 <= alpha <= 0.1 and t_f > 0.0
            # Evaluated exactly as HorizonModel.dimension does.
            assert d_in * (1.0 - alpha * t_f) >= D_FLOOR * (1.0 - 1e-9)


def test_generated_horizon_runs_pass_their_oracle(tmp_path):
    for i, (d_in, alpha, t_f) in enumerate(horizon_inputs(random.Random(0), 4)):
        fmt = ("csv", "json")[i % 2]
        path = tmp_path / f"h.{fmt}"
        argv = ["horizon", "--Din", repr(d_in), "--alpha", repr(alpha), "--tf", repr(t_f),
                "--format", fmt, "--output", str(path)]
        assert main(argv) == 0
        assert check_horizon_rows(*read_horizon_rows(path, fmt), d_in, alpha, t_f) == ""


def test_horizon_check_flags_a_perturbed_row(tmp_path):
    d_in, alpha, t_f = horizon_inputs(random.Random(0), 1)[0]
    path = tmp_path / "h.json"
    assert main(["horizon", "--Din", repr(d_in), "--alpha", repr(alpha), "--tf", repr(t_f),
                 "--format", "json", "--output", str(path)]) == 0
    columns, rows = read_horizon_rows(path, "json")
    rows[50][2] *= 1.0 + 1e-7
    assert "r_degrees" in check_horizon_rows(columns, rows, d_in, alpha, t_f)
    rows[50][2] = math.nan
    assert "r_degrees" in check_horizon_rows(columns, rows, d_in, alpha, t_f)
    assert check_horizon_rows(columns, rows[:-1], d_in, alpha, t_f) == "100 rows"


def test_large_t_times_lie_on_the_grid_in_their_bands():
    for seed in range(50):
        times = large_t_times(random.Random(seed))
        assert times == large_t_times(random.Random(seed))
        for k, t in enumerate(times, start=1):
            assert 10 * k <= t < 10 * k + 10
            assert (t * 64).is_integer()


def test_median_and_p95():
    assert median([]) == 0.0 and p95([]) == 0.0
    assert p95([4.0]) == 4.0
    samples = [float(x) for x in range(200, 0, -1)]
    assert median(samples) == 100.5
    assert p95(samples) == pytest.approx(190.05)
    assert sum(x > p95(samples) for x in samples) == 10


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 6]; b holds c [2, 3].
    totals = summarize(
        ["a", "b", "c"],
        name_ids=[0, 1, 2, 2],
        starts=[0.0, 1.0, 2.0, 5.0],
        ends=[10.0, 4.0, 3.0, 6.0],
        parents=[-1, 0, 1, 0],
    )
    assert (totals["a"].calls, totals["a"].total_s, totals["a"].self_s) == (1, 10.0, 6.0)
    assert (totals["b"].total_s, totals["b"].self_s) == (3.0, 2.0)
    assert (totals["c"].calls, totals["c"].total_s, totals["c"].self_s) == (2, 2.0, 2.0)


def test_tracer_nests_spans_counts_events_and_restores_patches():
    ns = types.SimpleNamespace(inner=lambda x: x + 1)
    original = ns.inner
    tracer = Tracer()
    tracer.patch(ns, "inner", lambda f: tracer.wrap("inner", f))
    outer = tracer.wrap("outer", lambda: ns.inner(1) + ns.inner(2))
    tracer.add("events", 3)
    assert outer() == 5
    totals = tracer.totals()
    assert totals["outer"].calls == 1 and totals["inner"].calls == 2
    assert list(tracer.parents) == [-1, 0, 0]
    assert totals["outer"].self_s <= totals["outer"].total_s - totals["inner"].total_s + 1e-12
    table = tracer.reset()
    assert len(table["name"]) == 3 and tracer.totals() == {} and tracer.counts == {}
    tracer.restore()
    assert ns.inner is original


def test_import_split_charges_helpers_to_the_enclosing_package():
    log = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     _helper",
            "import time:       200 |        300 |   numpy.core",
            "import time:        50 |        350 | numpy",
            "import time:        10 |         10 |   json",
            "import time:        40 |         50 | lrcone.cli",
            "import time:         5 |          5 | site",
        ]
    )
    split = import_split(log, ("numpy", "scipy", "lrcone"))
    assert split["numpy"] == pytest.approx(350e-6)
    assert split["lrcone"] == pytest.approx(50e-6)
    assert split["scipy"] == 0.0
    assert split["other"] == pytest.approx(5e-6)
    assert math.fsum(split.values()) == pytest.approx(405e-6)


def test_benchmark_json_lists_exactly_the_traced_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    imports = {f"import.{p}_s" for p in ("numpy", "scipy", "lrcone")}
    traced = set(layer_metrics(Tracer())) | imports | {"trace.solve_s", "trace.overhead_s"}
    listed = [m["name"] for m in spec["per_layer"]]
    assert len(listed) == len(set(listed)) and set(listed) == traced
