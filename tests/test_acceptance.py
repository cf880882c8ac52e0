"""Seven exit-gate checks for the finished artifact.

Each test prints one `CRITERION k: PASS|FAIL` line with the measured
quantities before asserting, so a failing criterion still leaves a complete
record in the captured output.  The checks are deliberately end-to-end: they
exercise the same code paths the CLI uses, at the tolerances the project
committed to up front.
"""

from __future__ import annotations

import csv
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from lrcone import cli, lrbound
from lrcone.cosmo import (
    BranchingConvention,
    HorizonModel,
    horizon_distance,
    v_lr_dimension,
)
from lrcone.lattice import LatticeSpec, build_decorated_lattice
from lrcone.lrbound import COLUMN_STEP, BoundEvaluator, Couplings, DpCountSource
from lrcone.pathcount import (
    centered_axis_link,
    count_walks_closed_form,
    count_walks_dp,
    perpendicular_target,
)
from lrcone.velocity import extract_velocity, optimize_kappa

from reference import exact_bound_series, gross_upper_bound, saddle_velocity

HEADLINE = Couplings(g=0.5, J=0.5)
HEADLINE_EPSILON = 1e-8
HEADLINE_DISTANCES = tuple(range(10, 41, 2))

_timings: dict[str, float] = {}


def _verdict(k: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {k}: {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def shared_source() -> DpCountSource:
    t0 = time.perf_counter()
    source = DpCountSource(n_max=260)
    _timings["table_build"] = time.perf_counter() - t0
    return source


@pytest.fixture(scope="module")
def headline_report(shared_source):
    t0 = time.perf_counter()
    report = extract_velocity(
        HEADLINE,
        d_values=HEADLINE_DISTANCES,
        epsilon=HEADLINE_EPSILON,
        evaluator=BoundEvaluator(HEADLINE, source=shared_source),
    )
    _timings["headline_pipeline"] = time.perf_counter() - t0
    return report


def test_criterion_1_headline_velocity_within_25_percent(headline_report):
    """Fitted front vs its saddle-point prediction, below the certified cone."""
    predicted = saddle_velocity(HEADLINE.g, HEADLINE.J)  # ≈ 1.1979 for g = J = 1/2
    certified = headline_report.analytic.v_lr  # = e for g = J = 1/2
    fitted = headline_report.fit.velocity
    deviation = abs(fitted - predicted) / predicted
    runtime = _timings["table_build"] + _timings["headline_pipeline"]

    ok = deviation <= 0.25 and fitted < certified and runtime < 60.0
    _verdict(
        1,
        ok,
        f"fitted v = {fitted:.6f}, saddle v_s = {predicted:.6f}, "
        f"certified v = {certified:.6f}, "
        f"relative deviation from v_s = {deviation:.2e} (tolerance 0.25), "
        f"fitted/certified = {fitted / certified:.4f}, "
        f"r² = {headline_report.fit.r_squared:.6f}, runtime = {runtime:.1f} s",
    )
    assert runtime < 60.0
    # e is the cone of the crude count 2·√8ⁿ·e^{κ(n−2d+4)}, so it only bounds the front;
    # the exact counts grow as (6 + 2·cosh θ)^m, and that saddle predicts the front.
    assert deviation <= 0.25, (
        f"fitted velocity {fitted} deviates {deviation:.4f} from the saddle {predicted}"
    )
    assert fitted < certified, (
        f"fitted velocity {fitted} is not below the certified cone {certified}"
    )


def test_criterion_2_kappa_optimum():
    opt = optimize_kappa(HEADLINE)
    err_kappa = abs(opt.kappa_star - 1.0)
    err_objective = abs(opt.objective_min - math.e)
    ok = err_kappa <= 1e-9 and err_objective <= 1e-9
    _verdict(
        2,
        ok,
        f"kappa* = {opt.kappa_star!r} (|err| = {err_kappa:.2e}), "
        f"objective = {opt.objective_min!r} (|err vs e| = {err_objective:.2e})",
    )
    assert err_kappa <= 1e-9
    assert err_objective <= 1e-9


def test_headline_arrivals_take_at_most_16_evaluations(headline_report):
    # A work-count guard on the arrival search (the plain bisection took 37
    # per arrival), not a timing test.
    assert all(a.evaluations <= 16 for a in headline_report.arrivals)


def test_headline_computes_each_count_once(monkeypatch):
    # A work-count guard on the count columns: each length of each column is
    # computed once, and no column grows more than one step past its series.
    calls: dict[int, list[tuple[int, int]]] = {}
    original = lrbound.grow_walk_counts

    def grow(counts, d, n_max):
        before = len(counts)
        original(counts, d, n_max)
        calls.setdefault(d, []).append((before, len(counts)))

    monkeypatch.setattr(lrbound, "grow_walk_counts", grow)
    evaluator = BoundEvaluator(HEADLINE, source=DpCountSource(n_max=260))
    truncations: dict[int, int] = {}
    evaluate = evaluator.evaluate

    def evaluate_and_record(t, d):
        result = evaluate(t, d)
        truncations[d] = max(truncations.get(d, 0), result.n_truncate)
        return result

    evaluator.evaluate = evaluate_and_record
    extract_velocity(
        HEADLINE,
        d_values=HEADLINE_DISTANCES,
        epsilon=HEADLINE_EPSILON,
        evaluator=evaluator,
        include_profile=True,
    )
    assert set(calls) == set(truncations)
    for d, spans in calls.items():
        grown = [(a, b) for a, b in spans if b > a]
        assert [a for a, _ in grown] == [0] + [b for _, b in grown[:-1]], d
        assert grown[-1][1] - 1 <= truncations[d] + COLUMN_STEP, d


def test_headline_computes_no_tail_below_the_geodesic(monkeypatch):
    # A work-count guard on the series loop: below the geodesic length 2 d
    # every term is 0, and each evaluation computes at most one tail there,
    # at n = 2 d - 1, to skip them all.
    evaluations: list[int] = []  # d of each evaluate_bound call
    tails: list[tuple[int, int, int]] = []  # (evaluation, d, n) of each _tail call
    evaluate_bound, tail = lrbound.evaluate_bound, lrbound._tail

    def record_evaluation(t, d, *args, **kwargs):
        evaluations.append(d)
        return evaluate_bound(t, d, *args, **kwargs)

    def record_tail(n, *args):
        tails.append((len(evaluations), evaluations[-1], n))
        return tail(n, *args)

    monkeypatch.setattr(lrbound, "evaluate_bound", record_evaluation)
    monkeypatch.setattr(lrbound, "_tail", record_tail)
    extract_velocity(
        HEADLINE,
        d_values=HEADLINE_DISTANCES,
        epsilon=HEADLINE_EPSILON,
        evaluator=BoundEvaluator(HEADLINE, source=DpCountSource()),
        include_profile=True,
    )
    assert evaluations and tails
    assert [(k, d, n) for k, d, n in tails if n < 2 * d - 1] == []
    at_geodesic = Counter(k for k, d, n in tails if n == 2 * d - 1)
    assert all(calls <= 1 for calls in at_geodesic.values())


def test_criterion_3_coupling_scaling_ratio(shared_source, headline_report):
    """Quadrupling both couplings should quadruple the fitted velocity."""
    strong = Couplings(g=2.0, J=2.0)
    report_strong = extract_velocity(
        strong,
        d_values=HEADLINE_DISTANCES,
        epsilon=HEADLINE_EPSILON,
        evaluator=BoundEvaluator(strong, source=shared_source),
    )
    ratio = report_strong.fit.velocity / headline_report.fit.velocity
    err = abs(ratio - 4.0) / 4.0
    ok = err <= 0.01
    _verdict(
        3,
        ok,
        f"v(g=J=2) / v(g=J=1/2) = {ratio!r}, relative error vs 4 = {err:.2e} "
        f"(tolerance 1e-2)",
    )
    assert err <= 0.01


def test_criterion_4_walk_count_invariants_and_fidelity(tmp_path):
    t0 = time.perf_counter()
    n_max, d_max = 24, 6
    lattice = build_decorated_lattice(LatticeSpec(dimension=2, extent=25, boundary="periodic"))
    origin = centered_axis_link(lattice)
    table = count_walks_dp(lattice, origin, n_max)
    targets = {d: perpendicular_target(lattice, d) for d in range(d_max + 1)}

    # Support-separation, parity, and gross-bound invariants on every entry.
    failures = []
    for d, q in targets.items():
        for n in range(n_max + 1):
            count = table.count(n, q)
            if n < 2 * d and count != 0:
                failures.append(f"N({n},{d}) = {count} inside the forbidden wedge")
            if n % 2 == 1 and count != 0:
                failures.append(f"odd-length walk count N({n},{d}) = {count}")
            for kappa in (0.5, 1.0, 2.0):
                if count > gross_upper_bound(n, d, kappa):
                    failures.append(f"N({n},{d}) exceeds the kappa={kappa} bound")

    # Neighbor-sum recurrence on every retained layer and vertex.
    for n in range(1, n_max + 1):
        for v in range(len(lattice.neighbors)):
            expected = sum(table.count(n - 1, u) for u in lattice.neighbors[v])
            if table.count(n, v) != expected:
                failures.append(f"recurrence broken at layer {n}, vertex {v}")
                break

    # The closed-form comparison must run to completion and, carrying
    # mismatches as it does, drive the CLI to the fidelity exit code; the
    # table's match_flag 0 rows must be exactly the lattice DP's mismatches.
    comparisons = [
        (table.count(n, targets[d]), count_walks_closed_form(n, d))
        for d in range(d_max + 1)
        for n in range(n_max + 1)
    ]
    mismatch_count = sum(dp != closed for dp, closed in comparisons)
    out = tmp_path / "counts.csv"
    exit_code = cli.main(
        ["count", "--nmax", str(n_max), "--d", ",".join(map(str, targets)),
         "--output", str(out)]
    )
    with open(out) as fh:
        fh.readline()  # the config line
        flagged = sum(row["match_flag"] == "0" for row in csv.DictReader(fh))
    flags_consistent = flagged == mismatch_count
    cli_consistent = (exit_code == cli.EXIT_MISMATCH) == (mismatch_count > 0)
    runtime = time.perf_counter() - t0

    ok = (
        not failures
        and len(comparisons) == (n_max + 1) * (d_max + 1)
        and flags_consistent
        and cli_consistent
        and runtime < 30.0
    )
    _verdict(
        4,
        ok,
        f"{len(comparisons)} grid entries, {mismatch_count} closed-form "
        f"mismatches (exit code {exit_code}), invariant failures = {len(failures)}, "
        f"runtime = {runtime:.1f} s",
    )
    assert not failures, failures[:5]
    assert len(comparisons) == (n_max + 1) * (d_max + 1)
    assert flags_consistent, (flagged, mismatch_count)
    assert cli_consistent
    assert runtime < 30.0


def test_criterion_5_series_against_big_rational_oracle(shared_source):
    t0 = time.perf_counter()
    evaluator = BoundEvaluator(HEADLINE, source=shared_source)
    t_values = (0.5, 1.0, 1.5, 2.0, 2.5)
    d_values = (2, 4, 6, 8, 10)

    worst = 0.0
    grid = {}
    for d in d_values:
        assert evaluator.evaluate(0.0, d).value == 0.0
        previous = -1.0
        for t in t_values:
            result = evaluator.evaluate(t, d)
            grid[(t, d)] = result.value
            assert result.value > previous, f"bound not monotone in t at d = {d}"
            previous = result.value
            oracle = exact_bound_series(
                Fraction(t),  # grid times are exact binary fractions
                d,
                Fraction(1, 2),
                Fraction(1, 2),
                shared_source.count,
                result.n_truncate,
            )
            rel = abs(Fraction(result.value) - oracle) / oracle
            worst = max(worst, float(rel))
    runtime = time.perf_counter() - t0

    ok = worst <= 1e-10 and runtime < 30.0
    _verdict(
        5,
        ok,
        f"25-point grid, worst relative deviation from the rational oracle = "
        f"{worst:.2e} (tolerance 1e-10), runtime = {runtime:.1f} s",
    )
    assert worst <= 1e-10
    assert runtime < 30.0


def test_criterion_6_dimension_reduction_and_linear_growth():
    rng = np.random.default_rng(20240817)
    worst_reduction = 0.0
    for g, J in rng.uniform(0.05, 4.0, size=(10, 2)):
        couplings = Couplings(g=float(g), J=float(J))
        planar = v_lr_dimension(2, couplings)
        certified = optimize_kappa(couplings).v_lr
        rel = abs(planar - certified) / certified
        worst_reduction = max(worst_reduction, rel)

    per_dimension = v_lr_dimension(1000.0, HEADLINE) / 1000.0
    slope_target = math.e * HEADLINE.coupling_speed
    rel_slope = abs(per_dimension - slope_target) / slope_target

    ok = worst_reduction <= 1e-12 and rel_slope <= 1e-3
    _verdict(
        6,
        ok,
        f"planar reduction worst case = {worst_reduction:.2e} (tolerance 1e-12); "
        f"v(1000)/1000 = {per_dimension:.6f} vs slope {slope_target:.6f}, "
        f"relative = {rel_slope:.2e} (tolerance 1e-3)",
    )
    assert worst_reduction <= 1e-12
    assert rel_slope <= 1e-3


def test_criterion_7_horizon_closed_form_and_alpha_scaling():
    d_in = 1e9

    # Large-dimension regime: quadrature vs the linearized closed form.
    alpha, t_f = 1e-3, 100.0
    model = HorizonModel(D_in=d_in, alpha=alpha, couplings=HEADLINE)
    numeric = horizon_distance(model, 0.0, t_f)
    closed = (
        math.e * HEADLINE.coupling_speed * d_in * (t_f - 0.5 * alpha * t_f**2)
    )
    rel_closed = abs(numeric - closed) / closed

    # The coefficient of the squared duration must be linear in alpha.
    h = 1.0
    ratios = []
    for a in (0.001, 0.01, 0.1):
        m = HorizonModel(D_in=d_in, alpha=a, couplings=HEADLINE)
        c2 = (horizon_distance(m, 0.0, 2 * h) - 2 * horizon_distance(m, 0.0, h)) / h**2
        ratios.append(c2 / a)
    spread = (max(ratios) - min(ratios)) / abs(ratios[1])

    ok = rel_closed <= 1e-8 and spread <= 1e-6
    _verdict(
        7,
        ok,
        f"closed-form deviation = {rel_closed:.2e} (tolerance 1e-8); "
        f"c2/alpha = {ratios[1]:.6e} with spread {spread:.2e} across three "
        f"decades of alpha (tolerance 1e-6)",
    )
    assert rel_closed <= 1e-8
    assert spread <= 1e-6
