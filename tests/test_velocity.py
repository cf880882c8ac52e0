"""Velocity extraction: analytic optimum, arrival bisection, cone fitting.

Frozen numeric values in this file were computed once with the exact count
table and are regression-pinned; synthetic-model tests check that each fit
recovers its own model class to near machine precision.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lrcone import cli
from lrcone.lrbound import BoundEvaluator, ConvergenceError, Couplings, DpCountSource
from lrcone.velocity import (
    ArrivalTime,
    _line_fit,
    arrival_time,
    extract_velocity,
    fit_lightcone,
    geodesic_bracket_time,
    optimize_kappa,
)

from reference import bisect_arrival_time, exact_line_fit

HALF = Couplings(g=0.5, J=0.5)


@pytest.fixture(scope="module")
def evaluator():
    return BoundEvaluator(HALF, source=DpCountSource(n_max=128))


@pytest.fixture(scope="module")
def small_window_report(evaluator):
    return extract_velocity(
        HALF, d_values=[4, 6, 8, 10, 12], epsilon=1e-6, evaluator=evaluator
    )


# ---------------------------------------------------------------------------
# Analytic route.
# ---------------------------------------------------------------------------


def test_kappa_optimum_is_one_and_objective_is_e():
    opt = optimize_kappa(HALF)
    assert abs(opt.kappa_star - 1.0) <= 1e-9
    assert abs(opt.objective_min - math.e) <= 1e-9


@pytest.mark.parametrize(
    "g,J,expected",
    [
        (0.5, 0.5, math.e),  # c = sqrt(0.5): v = sqrt(2) e sqrt(0.5) = e
        (1.0, 1.0, 2.0 * math.e),  # c = sqrt(2): v = 2 e
        (2.0, 2.0, 4.0 * math.e),
    ],
)
def test_analytic_velocity_closed_forms(g, J, expected):
    opt = optimize_kappa(Couplings(g=g, J=J))
    assert opt.v_lr == pytest.approx(expected, rel=1e-12)


def test_objective_unimodal_on_grid():
    grid = np.arange(0.1, 5.0, 0.01)
    values = np.exp(grid) / grid
    k_min = int(np.argmin(values))
    assert 0 < k_min < len(grid) - 1
    assert abs(grid[k_min] - 1.0) <= 0.01 + 1e-12
    diffs = np.diff(values)
    assert np.all(diffs[:k_min] < 0) and np.all(diffs[k_min:] > 0)


# ---------------------------------------------------------------------------
# Arrival times.
# ---------------------------------------------------------------------------


def test_geodesic_time_brackets_the_threshold(evaluator):
    for d, eps in [(3, 1e-6), (8, 1e-8), (12, 1e-4)]:
        t_hi = geodesic_bracket_time(d, eps, HALF)
        assert evaluator.evaluate(t_hi, d).value >= eps


def test_arrival_time_regression_value():
    # Headline couplings, eps = 1e-8, d = 12, series rel_tol 1e-12.
    ev = BoundEvaluator(HALF, source=DpCountSource(n_max=128), rel_tol=1e-12)
    a = arrival_time(12, 1e-8, ev)
    assert a.time == pytest.approx(5.904347112225421, rel=1e-9)


@pytest.mark.parametrize("d,eps", [(3, 1e-6), (6, 1e-8), (10, 1e-6)])
def test_arrival_residual_within_tolerance(evaluator, d, eps):
    a = arrival_time(d, eps, evaluator)
    assert abs(a.bound_value - eps) <= 1e-6 * eps


def test_arrival_time_increases_with_distance(evaluator):
    times = [arrival_time(d, 1e-6, evaluator).time for d in (4, 6, 8, 10)]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_arrival_time_deterministic(evaluator):
    a1 = arrival_time(5, 1e-7, evaluator)
    a2 = arrival_time(5, 1e-7, evaluator)
    assert a1 == a2


def test_arrival_time_scales_exactly_with_coupling_product(evaluator):
    # B depends on (g, J, t) only via t sqrt(g J): quadrupling g and J
    # divides every arrival time by 4.
    strong_ev = BoundEvaluator(Couplings(g=2.0, J=2.0), source=evaluator.source)
    weak = arrival_time(6, 1e-6, evaluator)
    strong = arrival_time(6, 1e-6, strong_ev)
    assert weak.time == pytest.approx(4.0 * strong.time, rel=1e-12)


def test_arrival_time_validation(evaluator):
    with pytest.raises(ValueError, match="d must be"):
        arrival_time(0, 1e-6, evaluator)
    for epsilon in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
            arrival_time(3, epsilon, evaluator)
        with pytest.raises(ValueError, match="epsilon must be finite and > 0"):
            geodesic_bracket_time(3, epsilon, HALF)


_ORACLE_COUPLINGS = (HALF, Couplings(g=1.3, J=0.4, origin_norm=2.5, probe_norm=0.3, step_factor=1.0))
_ORACLE_EVALUATORS = [BoundEvaluator(c, source=DpCountSource(n_max=128)) for c in _ORACLE_COUPLINGS]


@given(
    d=st.integers(min_value=1, max_value=40),
    log10_eps=st.floats(min_value=-12.0, max_value=-2.0),
    which=st.sampled_from([0, 1]),
)
@settings(max_examples=60, deadline=None)
def test_arrival_time_replays_plain_bisection(d, log10_eps, which):
    # The secant and the replayed bisection give the plain bisection's time
    # and bound value bit for bit, with fewer evaluations.
    evaluator = _ORACLE_EVALUATORS[which]
    epsilon = 10.0**log10_eps
    arrival = arrival_time(d, epsilon, evaluator)
    time, value, bisect_evaluations = bisect_arrival_time(d, epsilon, evaluator)
    assert (arrival.time, arrival.bound_value) == (time, value)
    assert arrival.evaluations < bisect_evaluations


def test_arrival_time_counts_every_evaluation():
    ev = BoundEvaluator(HALF, source=DpCountSource(n_max=128))
    a = arrival_time(12, 1e-8, ev)
    assert a.evaluations == ev.evaluations


# ---------------------------------------------------------------------------
# Fitting synthetic data: each mode recovers its own model class.
# ---------------------------------------------------------------------------


def _synthetic_arrivals(v, d0, ds):
    return [
        ArrivalTime(d=d, time=(d - d0) / v, bound_value=1e-8, evaluations=1)
        for d in ds
    ]


def test_fit_recovers_exact_front_line():
    fit = fit_lightcone(arrivals=_synthetic_arrivals(3.0, 2.0, range(4, 21, 2)))
    assert fit.velocity == pytest.approx(3.0, rel=1e-12)
    assert fit.front_offset == pytest.approx(2.0, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.residual_rms == pytest.approx(0.0, abs=1e-10)
    assert math.isnan(fit.decay_length) and math.isnan(fit.amplitude)


def test_fit_combined_single_time_profile():
    v, d0, xi, A = 3.0, 2.0, 2.0, 1.0
    arrivals = _synthetic_arrivals(v, d0, range(4, 13, 2))
    t_ref = 4.0
    profile = [(t_ref, d, 2.0 * A * math.exp((v * t_ref - d) / xi)) for d in (4, 6, 8, 10, 12)]
    fit = fit_lightcone(arrivals=arrivals, profile=profile, prefactor=2.0)
    assert fit.velocity == pytest.approx(v, rel=1e-10)  # from arrivals
    assert fit.decay_length == pytest.approx(xi, rel=1e-10)
    assert fit.amplitude == pytest.approx(A, rel=1e-8)


def test_fit_validation_errors():
    front = _synthetic_arrivals(3.0, 2.0, range(4, 13, 2))
    with pytest.raises(ValueError, match="at least 4 arrival"):
        fit_lightcone(arrivals=_synthetic_arrivals(3.0, 2.0, [4, 8, 16]))
    with pytest.raises(ValueError, match="ratio"):
        fit_lightcone(arrivals=_synthetic_arrivals(3.0, 2.0, [10, 11, 12, 13]))
    with pytest.raises(ValueError, match="at least 4 profile"):
        fit_lightcone(front, profile=[(1.0, 4, 0.5), (1.0, 6, 0.2), (1.0, 8, 0.1)])
    with pytest.raises(ValueError, match="must be > 0"):
        fit_lightcone(front, profile=[(1.0, 4, 0.5), (1.0, 6, -0.2), (1.0, 8, 0.1), (1.0, 10, 0.05)])
    with pytest.raises(ValueError, match="share one time"):
        fit_lightcone(front, profile=[(1.0, 4, 0.5), (1.0, 6, 0.2), (2.0, 4, 0.9), (2.0, 6, 0.4)])
    with pytest.raises(ValueError, match="distinct distances"):
        fit_lightcone(front, profile=[(1.0, 4, 0.5), (1.0, 4, 0.5), (1.0, 4, 0.5), (1.0, 4, 0.5)])
    with pytest.raises(ValueError, match="decay"):
        fit_lightcone(front, profile=[(1.0, 4, 0.1), (1.0, 6, 0.2), (1.0, 8, 0.4), (1.0, 10, 0.8)])
    with pytest.raises(ValueError, match="arrival times must not all be equal"):
        fit_lightcone(
            [ArrivalTime(d=d, time=2.5, bound_value=1e-8, evaluations=1)
             for d in (4, 6, 8, 10)]
        )
    # A front far from the profile puts the amplitude past float range.
    far_front = [
        ArrivalTime(d=d, time=t, bound_value=1e-8, evaluations=1)
        for d, t in ((1, 1.0), (1, 1.0), (1, 1.0), (2840, 0.1))
    ]
    far_profile = [(1.5, d, 2 * math.exp(v)) for d, v in zip(range(1, 5), (0, 0, 0, -1))]
    with pytest.raises(ValueError, match="beyond float range"):
        fit_lightcone(far_front, profile=far_profile)
    # A subwindow of repeated distances reaches the fit with one time only.
    with pytest.raises(ValueError, match="2 distinct x values"):
        _line_fit([2.5, 2.5], [10.0, 10.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            fit_lightcone(
                [ArrivalTime(d=d, time=t, bound_value=1e-8, evaluations=1)
                 for d, t in ((4, 1.0), (6, 2.0), (8, bad), (10, 4.0))]
            )


_SPREAD = st.builds(
    lambda exponent, sign: sign * 10.0**exponent,
    st.floats(min_value=-5.0, max_value=5.0),
    st.sampled_from([-1.0, 1.0]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_SPREAD, _SPREAD), min_size=2, max_size=40))
@example([(1.0, 7.0), (3.0, 7.0)])
@example([(1e-5, 1e5), (1e5, -1e-5), (1e5, 3.0)])
def test_line_fit_is_exact_least_squares(points):
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    assume(len(set(xs)) >= 2)
    assert _line_fit(xs, ys) == exact_line_fit(xs, ys)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(_SPREAD.map(abs), st.integers(1, 100_000)), min_size=4, max_size=40),
    st.lists(st.floats(min_value=-50.0, max_value=0.0), min_size=4, max_size=40),
)
def test_fit_lightcone_is_exact_least_squares(front, log_profile):
    ds = [d for _, d in front]
    times = [t for t, _ in front]
    assume(max(ds) >= 2 * min(ds) and len(set(times)) >= 2)
    arrivals = [
        ArrivalTime(d=d, time=t, bound_value=1e-8, evaluations=1) for t, d in front
    ]
    profile = [(1.5, 4 + 2 * k, math.exp(v)) for k, v in enumerate(log_profile)]
    profile_slope = exact_line_fit(
        [float(p[1]) for p in profile], [math.log(p[2] / 2.0) for p in profile]
    )[0]
    assume(profile_slope < 0)
    fit = fit_lightcone(arrivals)
    velocity, offset, r_squared, rms = exact_line_fit(times, [float(d) for d in ds])
    assert (fit.velocity, fit.front_offset, fit.r_squared, fit.residual_rms) == (
        velocity, offset, r_squared, rms
    )
    # A fixed front keeps the amplitude, exp of the profile line near its
    # first distance, inside the float range.
    front_3 = _synthetic_arrivals(3.0, 2.0, range(4, 13, 2))
    assert fit_lightcone(front_3, profile, prefactor=2.0).decay_length == -1.0 / profile_slope


# ---------------------------------------------------------------------------
# End-to-end extraction on the exact series (small window).
# ---------------------------------------------------------------------------


def test_small_window_velocity_regression(small_window_report):
    assert small_window_report.fit.velocity == pytest.approx(1.295112401870532, rel=1e-6)
    assert small_window_report.fit.r_squared > 0.99
    assert all(math.isfinite(s) for s in small_window_report.subwindow_slopes)


def test_fitted_velocity_between_coupling_speed_and_analytic(small_window_report):
    # The numeric cone cannot outrun the certified envelope, and the series
    # spreads at least at the coupling speed scale for the default setup.
    assert small_window_report.fit.velocity <= small_window_report.analytic.v_lr
    assert small_window_report.fit.velocity >= HALF.coupling_speed
    ratio = small_window_report.fit.velocity / small_window_report.analytic.v_lr
    assert 0.0 < ratio < 1.0


def test_threshold_dependence_documented(evaluator):
    # At this small window the fitted slope still drifts with the threshold;
    # values are regression-pinned measurements of that drift.
    v_by_eps = {
        eps: extract_velocity(
            HALF, d_values=[4, 6, 8, 10, 12], epsilon=eps, evaluator=evaluator
        ).fit.velocity
        for eps in (1e-5, 1e-7)
    }
    assert v_by_eps[1e-5] == pytest.approx(1.235447, rel=1e-5)
    assert v_by_eps[1e-7] == pytest.approx(1.368111, rel=1e-5)


def test_profile_augmented_report(evaluator):
    report = extract_velocity(
        HALF,
        d_values=[4, 6, 8, 10, 12],
        epsilon=1e-6,
        evaluator=evaluator,
        include_profile=True,
    )
    assert report.fit.decay_length == pytest.approx(0.37939769991424843, rel=1e-6)
    assert report.fit.amplitude == pytest.approx(0.0025683628500472277, rel=1e-6)


def test_report_json_shape(small_window_report, tmp_path):
    out = tmp_path / "report.json"
    argv = ["velocity", "--dmin", "4", "--dmax", "12", "--epsilon", "1e-6", "--output", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 3  # the CLI's echo carries it
    assert doc["config"]["couplings"]["g"] == 0.5
    assert [d for d, _ in doc["arrivals"]] == [4, 6, 8, 10, 12]
    assert doc["fit"]["v"] == small_window_report.fit.velocity
    assert doc["cone"]["v_paper"] == pytest.approx(math.e, rel=1e-12)
    assert doc["ratio_v_over_c"] == pytest.approx(
        small_window_report.fit.velocity / HALF.coupling_speed, rel=1e-12
    )


def test_extract_velocity_validation(evaluator):
    with pytest.raises(ValueError, match="at least 4"):
        extract_velocity(HALF, d_values=[4, 8, 12], epsilon=1e-6, evaluator=evaluator)
    other = BoundEvaluator(Couplings(g=1.0, J=1.0))
    with pytest.raises(ValueError, match="couplings differ"):
        extract_velocity(HALF, d_values=[4, 6, 8, 10], epsilon=1e-6, evaluator=other)


def test_extract_velocity_refuses_window_past_work_budget_before_any_arrival():
    # d = 5000 needs walks of length 10000, past hard_n_limit 8192.
    ev = BoundEvaluator(HALF)
    with pytest.raises(ConvergenceError, match="hard limit"):
        extract_velocity(HALF, d_values=[10, 20, 40, 5000], epsilon=1e-8, evaluator=ev)
    assert ev.evaluations == 0


def test_extract_velocity_refuses_narrow_window_before_any_arrival():
    ev = BoundEvaluator(HALF)
    with pytest.raises(ValueError, match="ratio >= 2.0, got \\[500, 503\\]"):
        extract_velocity(HALF, d_values=range(500, 504), epsilon=1e-8, evaluator=ev)
    assert ev.evaluations == 0


@pytest.mark.slow
def test_headline_window_threshold_drift():
    # Measured drift of the fitted velocity between eps = 1e-6 and 1e-10 over
    # d in [10, 40]: about 2.5 percent, so the asymptotic threshold
    # independence (1e-3 level) is not yet reached in this window.
    ev = BoundEvaluator(HALF, source=DpCountSource(n_max=256))
    velocities = {
        eps: extract_velocity(
            HALF, d_values=range(10, 41, 2), epsilon=eps, evaluator=ev
        ).fit.velocity
        for eps in (1e-6, 1e-10)
    }
    assert velocities[1e-6] == pytest.approx(1.18559709, rel=1e-5)
    assert velocities[1e-10] == pytest.approx(1.21565172, rel=1e-5)
    drift = abs(velocities[1e-10] - velocities[1e-6]) / velocities[1e-6]
    assert 1e-3 < drift < 0.1
