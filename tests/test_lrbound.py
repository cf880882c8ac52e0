"""Bound series evaluation against the exact-rational reference.

Counts themselves are validated in test_pathcount (explicit enumeration);
here the independent route is the series assembly: Fraction arithmetic with
no logs or floats, versus the implementation's log-space fsum.
"""

import math
import re
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrcone.lrbound import (
    COLUMN_STEP,
    TAIL_KAPPA,
    BoundEvaluator,
    BoundSeriesResult,
    ConvergenceError,
    Couplings,
    DpCountSource,
    best_tail_bound,
    evaluate_bound,
)
from lrcone.pathcount import axis_walk_counts, count_walks_closed_form

from reference import (
    exact_bound_series,
    exact_log_slope,
    log_series_term,
    scalar_evaluate_bound,
    tail_bound,
    walk_count_column,
)

HALF = Couplings(g=0.5, J=0.5)


@pytest.fixture(scope="module")
def shared_source():
    return DpCountSource(n_max=128)


# ---------------------------------------------------------------------------
# Couplings validation and derived scales.
# ---------------------------------------------------------------------------


def test_couplings_defaults_and_scales():
    assert HALF.step_factor == pytest.approx(math.sqrt(2.0), rel=0, abs=0)
    assert HALF.coupling_speed == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert HALF.prefactor == 2.0
    strong = Couplings(g=2.0, J=2.0, origin_norm=3.0, probe_norm=0.5)
    assert strong.coupling_speed == pytest.approx(math.sqrt(8.0), rel=1e-15)
    assert strong.prefactor == 3.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"g": 0.0, "J": 1.0},
        {"g": 1.0, "J": -1.0},
        {"g": 1.0, "J": 1.0, "origin_norm": 0.0},
        {"g": 1.0, "J": 1.0, "probe_norm": -2.0},
        {"g": 1.0, "J": 1.0, "step_factor": 0.0},
        {"g": 1.0, "J": 1.0, "step_factor": 2.5},
        {"g": math.inf, "J": 1.0},
        {"g": -1.0, "J": 1.0},
    ],
)
def test_couplings_validation(kwargs):
    with pytest.raises(ValueError) as built:
        Couplings(**kwargs)
    # _replace validates too, with the same message.
    with pytest.raises(ValueError) as replaced:
        HALF._replace(**kwargs)
    assert str(replaced.value) == str(built.value)


@pytest.mark.parametrize("g,J", [(1e300, 1e300), (1e-200, 1e-200), (1e155, 1e154), (1e-160, 1e-150)])
def test_couplings_refuse_a_product_outside_float_range(g, J):
    # 8 g J must be finite and g J a normal float: past either end the
    # velocities read inf or 0 and log(g J) fails.
    with pytest.raises(ValueError, match=r"g\*J"):
        Couplings(g=g, J=J)


def test_couplings_accept_the_ends_of_the_product_range():
    Couplings(g=sys.float_info.min, J=1.0)
    Couplings(g=sys.float_info.max / 8, J=1.0)
    # and of the norm product's range, 2 |P| |Q| in [min, max / 2]
    low = HALF._replace(origin_norm=sys.float_info.min / 2)
    high = HALF._replace(origin_norm=sys.float_info.max / 4)
    assert (low.prefactor, high.prefactor) == (sys.float_info.min, sys.float_info.max / 2)


@pytest.mark.parametrize(
    "origin_norm,probe_norm",
    [(1e-200, 1e-200), (1e154, 1e154), (1e300, 1e300), (sys.float_info.max / 2, 1.0)],
)
def test_couplings_refuse_a_norm_product_outside_float_range(origin_norm, probe_norm):
    # 2 |P| |Q| must be a normal float and 4 |P| |Q| finite: past either end
    # the arrival bracket divides by 0 and the tail's log(4 |P| |Q|) fails.
    with pytest.raises(ValueError, match=r"2\*origin_norm\*probe_norm") as built:
        Couplings(g=0.5, J=0.5, origin_norm=origin_norm, probe_norm=probe_norm)
    assert f"origin_norm = {origin_norm}, probe_norm = {probe_norm}" in str(built.value)
    with pytest.raises(ValueError) as replaced:
        HALF._replace(origin_norm=origin_norm, probe_norm=probe_norm)
    assert str(replaced.value) == str(built.value)


def test_couplings_accept_a_norm_product_whose_doubled_norm_overflows():
    # (2 |P|) |Q| overflows although 2 |P| |Q| = 2e8: the smaller norm is doubled.
    couplings = Couplings(g=0.5, J=0.5, origin_norm=1e308, probe_norm=1e-300)
    assert couplings.prefactor == 2e-300 * 1e308
    assert couplings._replace(origin_norm=1e-300, probe_norm=1e308).prefactor == 2e8


_NORM = st.floats(min_value=5e-324, max_value=sys.float_info.max)


@given(origin_norm=_NORM, probe_norm=_NORM)
@example(origin_norm=1e308, probe_norm=1e-300)
@example(origin_norm=5e-324, probe_norm=sys.float_info.max)
@settings(max_examples=500, deadline=None)
def test_prefactor_is_the_norm_product_rounded_once(origin_norm, probe_norm):
    # Doubling a float is exact, so the prefactor is 2 |P| |Q| rounded once,
    # the same float as (2 |P|) |Q| wherever that does not overflow on the
    # way.  The property reads the formula over every pair of norms, also
    # those Couplings refuses.
    prefactor = Couplings.prefactor.fget(
        SimpleNamespace(origin_norm=origin_norm, probe_norm=probe_norm)
    )
    exact = 2 * Fraction(origin_norm) * Fraction(probe_norm)
    if exact <= sys.float_info.max:
        assert prefactor == float(exact)
    else:
        assert prefactor == math.inf
    left_to_right = (2.0 * origin_norm) * probe_norm
    if math.isfinite(left_to_right):
        assert prefactor == left_to_right


# ---------------------------------------------------------------------------
# Term and tail building blocks.
# ---------------------------------------------------------------------------


def test_log_series_term_matches_direct_arithmetic():
    for n, count, t in [(0, 1, 0.7), (2, 1, 0.7), (4, 6, 1.3), (8, 82, 2.0)]:
        direct = (HALF.step_factor * t) ** n * count * (HALF.g * HALF.J) ** (n / 2) / math.factorial(n)
        assert math.exp(log_series_term(n, count, t, HALF)) == pytest.approx(direct, rel=1e-13)
    assert log_series_term(3, 0, 1.0, HALF) == -math.inf
    assert log_series_term(0, 1, 0.0, HALF) == 0.0
    assert log_series_term(2, 1, 0.0, HALF) == -math.inf


def test_tail_bound_formula_and_preconditions():
    t, d, n = 1.0, 3, 20
    x = HALF.step_factor * t * math.sqrt(8.0 * HALF.g * HALF.J) * math.exp(TAIL_KAPPA)
    expected = (
        4.0 * math.exp(TAIL_KAPPA * (4 - 2 * d)) * x ** (n + 1) / math.factorial(n + 1)
        / (1.0 - x / (n + 2))
    )
    assert best_tail_bound(n, t, d, HALF) == pytest.approx(expected, rel=1e-12)
    # Geometric comparison fails once x >= n + 2: nothing is certified.
    assert best_tail_bound(0, 10.0, 0, HALF) == math.inf
    assert best_tail_bound(5, 0.0, 2, HALF) == 0.0
    # A negative of 5001 digits is named by its sign: it has no decimal string.
    huge = 10**5000
    for n_truncate, t, d in [
        (-1, 1.0, 2), (5, 1.0, -1), (5, -1.0, 2), (-huge, 1.0, 2), (5, 1.0, -huge)
    ]:
        with pytest.raises(ValueError, match="must be >= 0"):
            best_tail_bound(n_truncate, t, d, HALF)


@pytest.mark.parametrize(
    "n_truncate,d", [(0, 10**400), (10**400, 0), (0, 10**5000)], ids=["d", "n", "d_5001_digits"]
)
def test_best_tail_bound_refuses_n_or_d_past_float_range(n_truncate, d):
    # 2.0 * d and lgamma(n + 2) would overflow; the refusal prints neither.
    with pytest.raises(ValueError, match="must be <= 1e"):
        best_tail_bound(n_truncate, 1.0, d, HALF)


def test_tail_bound_decreases_with_truncation_order():
    values = [best_tail_bound(n, 2.0, 4, HALF) for n in range(12, 60, 4)]
    finite = [v for v in values if math.isfinite(v)]
    assert finite == sorted(finite, reverse=True)
    assert finite[-1] < 1e-6 * finite[0]


def test_tail_bound_truly_dominates_remainder(shared_source):
    # Exact remainder between n_truncate and a much longer horizon must sit
    # below the certified tail.
    t, d = Fraction(3, 2), 3
    long_sum = exact_bound_series(t, d, Fraction(1, 2), Fraction(1, 2), shared_source.count, 120)
    for n_trunc in (20, 30, 40):
        partial = exact_bound_series(t, d, Fraction(1, 2), Fraction(1, 2), shared_source.count, n_trunc)
        remainder = float(long_sum - partial)
        assert best_tail_bound(n_trunc, float(t), d, HALF) >= remainder


@given(
    n=st.integers(min_value=0, max_value=300),
    d=st.integers(min_value=0, max_value=60),
    t=st.floats(min_value=0.0, max_value=80.0),
    couplings=st.sampled_from(
        [HALF, Couplings(g=1.7, J=0.3, origin_norm=2.0, probe_norm=0.25, step_factor=1.0)]
    ),
)
@example(n=0, d=0, t=0.0, couplings=HALF)
@example(n=0, d=0, t=10.0, couplings=HALF)
@settings(max_examples=300, deadline=None)
def test_best_tail_bound_equals_reference_restatement(n, d, t, couplings):
    # The program's tail is the reference's general-kappa formula at
    # TAIL_KAPPA, bit for bit, across the certified, inf and 0.0 branches.
    assert best_tail_bound(n, t, d, couplings) == tail_bound(n, t, d, couplings, TAIL_KAPPA)


@given(
    d=st.integers(min_value=0, max_value=60),
    extra=st.integers(min_value=-5, max_value=200),
    t=st.floats(min_value=0.0, max_value=80.0),
    kappa=st.floats(min_value=TAIL_KAPPA, max_value=2.0),
)
@example(d=3, extra=-5, t=4.477499713621812e-146, kappa=1.3112152672316344)  # log tail -666
@settings(max_examples=300, deadline=None)
def test_best_tail_bound_is_minimum_over_kappa(d, extra, t, kappa):
    # Once N >= 2 d - 5 the tail rises with kappa, so no kappa in
    # [TAIL_KAPPA, 2] certifies less.  Where the rise is below one ulp the
    # two tails differ by their rounding: the relative error of exp(log tail)
    # is the absolute error of log tail, a few ulps of its largest summand
    # (2 ulps seen in 10^6 draws), and a subnormal tail rounds to a multiple
    # of the smallest float.
    n = max(0, 2 * d + extra)
    best = best_tail_bound(n, t, d, HALF)
    largest = max(_largest_log_tail_summand(n, t, d, k) for k in (TAIL_KAPPA, kappa))
    slack = 4 * math.ulp(largest)
    assert best <= tail_bound(n, t, d, HALF, kappa) * (1.0 + slack) + math.ulp(0.0)


def _largest_log_tail_summand(n, t, d, kappa):
    """The largest magnitude of the summands of log tail(n) at kappa, g = J = 1/2."""
    x = HALF.step_factor * t * math.sqrt(8.0 * HALF.g * HALF.J) * math.exp(kappa)
    if not 0.0 < x < n + 2:
        return 0.0  # a tail of 0.0 or inf, with no rounding
    return max(
        abs(math.log(2.0 * HALF.prefactor)),
        abs(kappa * (4.0 - 2.0 * d)),
        abs((n + 1) * math.log(x)),
        math.lgamma(n + 2),
        abs(math.log1p(-x / (n + 2))),
    )


# ---------------------------------------------------------------------------
# Full evaluation against the exact-rational reference.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t_num", [1, 3, 5])  # t = 1/2, 3/2, 5/2
@pytest.mark.parametrize("d", [2, 6, 10])
def test_evaluate_bound_matches_exact_reference(shared_source, t_num, d):
    t = Fraction(t_num, 2)
    result = evaluate_bound(float(t), d, HALF, source=shared_source, rel_tol=1e-12)
    exact = exact_bound_series(
        t, d, Fraction(1, 2), Fraction(1, 2), shared_source.count, result.n_truncate + 80
    )
    assert result.value == pytest.approx(float(exact), rel=1e-10, abs=1e-300)
    assert result.tail <= 1e-12 * result.value
    assert result.tail >= 0.0


def test_large_time_series_is_fast_and_matches_reference():
    # t = 200 truncates near n = 560: a long series whose counts must stay cheap.
    start = time.perf_counter()
    source = DpCountSource()
    result = evaluate_bound(200.0, 2, HALF, source=source)
    assert time.perf_counter() - start < 5.0
    half = Fraction(1, 2)
    exact = exact_bound_series(Fraction(200), 2, half, half, source.count, result.n_truncate)
    assert abs(Fraction(result.value) - exact) <= Fraction(1, 10**10) * exact
    assert result.tail <= 1e-10 * result.value


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_evaluate_bound_rejects_bad_time(t):
    source = DpCountSource(n_max=8)
    with pytest.raises(ValueError, match="finite and >= 0"):
        evaluate_bound(t, 2, HALF, source=source)
    assert source.n_max == 8


@pytest.mark.parametrize("d", [0, 2, 5])
@pytest.mark.parametrize("t,step_factor", [(5e-324, 0.1), (1e-320, 1e-5)])
def test_evaluate_bound_refuses_a_time_whose_step_underflows(t, step_factor, d):
    # step_factor * t rounds to 0 although t > 0: no term is certified.
    couplings = Couplings(g=0.5, J=0.5, step_factor=step_factor)
    with pytest.raises(ValueError, match=re.escape(f"t = {t}, step_factor = {step_factor}")):
        evaluate_bound(t, d, couplings, source=DpCountSource(n_max=8))


def test_zero_time_limits():
    # B(0, d) = 2 |P| |Q| [d = 0], with the term-by-term loop's n_truncate and
    # a tail of 0.0, up to the largest d the default budget admits.
    for couplings in (HALF, Couplings(g=2.0, J=0.125, origin_norm=1e150, probe_norm=1e100)):
        source, scalar_source = DpCountSource(), DpCountSource()
        for d in range(4097):
            result = evaluate_bound(0.0, d, couplings, source=source)
            exact = (couplings.prefactor, 5, 0.0, 0.0) if d == 0 else (0.0, 4, 0.0, 0.0)
            assert result == (0.0, d, *exact)
            if d % 256 == 0:
                assert result == scalar_evaluate_bound(0.0, d, couplings, source=scalar_source)
        with pytest.raises(ConvergenceError, match="before n = 0"):
            evaluate_bound(0.0, 4097, couplings, source=source)


@pytest.mark.parametrize("t,d", [(1e-5, 40), (1e-300, 3), (1 / 64, 51)])
def test_positive_bound_below_float_range_is_refused(t, d):
    # B(t, d) > 0 for t > 0, but here it rounds to 0.0: refused, where the
    # term-by-term loop from n = 0 returns 0.0, no upper bound on B.
    with pytest.raises(ConvergenceError, match=r"below the float range .* at n = \d+"):
        evaluate_bound(t, d, HALF)
    assert scalar_evaluate_bound(t, d, HALF).value == 0.0


def test_bound_monotone_in_time(shared_source):
    times = [0.25, 0.5, 1.0, 1.5, 2.0, 3.0]
    values = [evaluate_bound(t, 4, HALF, source=shared_source).value for t in times]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[0] > 0.0


def test_coupling_product_collapse(shared_source):
    # B depends on (g, J, t) only through step * t * sqrt(g J): quadrupling
    # both couplings at time t matches the weak couplings at time 4 t.
    strong = Couplings(g=2.0, J=2.0)
    a = evaluate_bound(0.6, 5, strong, source=shared_source)
    b = evaluate_bound(2.4, 5, HALF, source=shared_source)
    assert a.value == pytest.approx(b.value, rel=1e-12)


def test_norm_prefactor_scaling(shared_source):
    scaled = Couplings(g=0.5, J=0.5, origin_norm=3.0, probe_norm=5.0)
    base = evaluate_bound(1.0, 3, HALF, source=shared_source)
    big = evaluate_bound(1.0, 3, scaled, source=shared_source)
    assert big.value == pytest.approx(15.0 * base.value, rel=1e-12)
    assert big.tail <= 1e-10 * big.value


def test_evaluation_is_deterministic(shared_source):
    r1 = evaluate_bound(1.7, 6, HALF, source=shared_source)
    r2 = evaluate_bound(1.7, 6, HALF, source=shared_source)
    assert r1 == r2


# ---------------------------------------------------------------------------
# Count sources.
# ---------------------------------------------------------------------------


def test_dp_source_grows_on_demand():
    src = DpCountSource(n_max=8)
    assert src.n_max == 8
    result = evaluate_bound(2.0, 1, HALF, source=src)
    assert src.n_max > 8
    assert result.n_truncate <= src.n_max
    reference = evaluate_bound(2.0, 1, HALF, source=DpCountSource(n_max=128))
    assert result.value == pytest.approx(reference.value, rel=1e-12)


def test_dp_source_matches_plain_table():
    src = DpCountSource(n_max=24)
    table = axis_walk_counts(24, 12)
    for d in (0, 1, 5, 12):
        for n in range(25):
            assert src.count(n, d) == table.count(n, d)
    # Unreachable separation inside the stored range is zero without growth.
    assert src.count(10, 12) == 0
    assert src.n_max == 24


def test_dp_source_extends_columns_lazily():
    src = DpCountSource(n_max=16)
    assert src.count(10, 3) == walk_count_column(3, 16)[10]
    src.ensure(300, 3)
    assert src.n_max >= 300
    long_built = DpCountSource(n_max=src.n_max)
    extended = [src.count(n, 3) for n in range(src.n_max + 1)]
    assert extended == [long_built.count(n, 3) for n in range(src.n_max + 1)]
    assert tuple(extended) == walk_count_column(3, src.n_max)


@given(
    d=st.integers(0, 200),
    reads=st.lists(st.tuples(st.integers(0, 400), st.booleans()), min_size=1, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_dp_source_grows_columns_in_place(d, reads):
    # Each read is a series' (ensure, log_column) or a plain count; whatever
    # the order, the column, its logs and count() agree with one full build.
    full = walk_count_column(d, max(max(n for n, _ in reads), 2 * d) + COLUMN_STEP)
    src = DpCountSource(n_max=0)
    for n, as_series in reads:
        src.ensure(n, d)
        if as_series:
            log_counts, log_factorial = src.log_column(n, d)
            assert n < len(log_counts) < len(log_factorial)
            assert list(log_counts) == [
                math.log(c) if c else -math.inf for c in full[: len(log_counts)]
            ]
        assert src.count(n, d) == full[n]
    assert [src.count(n, d) for n in range(src.n_max + 1)] == list(full[: src.n_max + 1])


def test_dp_source_hard_limit():
    src = DpCountSource(n_max=4, hard_n_limit=16)
    with pytest.raises(ConvergenceError, match="hard limit"):
        src.ensure(40, 0)
    src.ensure(12, 0)  # below the cap: fine
    assert src.n_max == 12


def test_closed_form_source_diverges_from_dp(shared_source):
    # Dual-route check: the literal closed form, summed exactly through the
    # same truncation, gives a different series from the one evaluated; the
    # `lrcone count` table flags where the two counts differ.
    dp = evaluate_bound(1.0, 2, HALF, source=shared_source, rel_tol=1e-10)
    half = Fraction(1, 2)
    cf = exact_bound_series(Fraction(1), 2, half, half, count_walks_closed_form, dp.n_truncate)
    assert not math.isclose(float(cf), dp.value, rel_tol=1e-3)


def test_convergence_error_when_budget_too_small():
    # The count source's hard_n_limit is the series' only work budget.
    source = DpCountSource(n_max=4, hard_n_limit=10)
    with pytest.raises(
        ConvergenceError, match=r"t = 3\.0, d = 2 not certified before n = 11 .*hard limit 10"
    ):
        evaluate_bound(3.0, 2, HALF, source=source)


def test_distance_past_float_range_is_refused_by_the_budget():
    # 2 d is past the float range; the budget refuses it before 2.0 * d
    # overflows, and names which side of 2**64 d lies on, not its digits.
    for d in (10**400, 10**5000):
        with pytest.raises(
            ConvergenceError, match=r"d > 2\*\*64 not certified before n = 0 .*hard limit 8192"
        ):
            evaluate_bound(1.0, d, HALF)


@pytest.mark.parametrize("rel_tol", [math.nan, math.inf, 0.0, -1e-10, 1.0, 1e300])
def test_evaluate_bound_rejects_bad_rel_tol(rel_tol):
    source = DpCountSource(n_max=8)
    with pytest.raises(ValueError, match="rel_tol must be finite and > 0"):
        evaluate_bound(0.5, 2, HALF, source=source, rel_tol=rel_tol)
    assert source.n_max == 8


@pytest.mark.parametrize(
    "t,couplings",
    [
        (400.0, HALF),  # a term itself overflows
        (10.0, Couplings(g=0.5, J=0.5, origin_norm=1e153, probe_norm=1e153)),  # the prefactor does
    ],
)
def test_bound_past_float_range_is_refused(t, couplings):
    begin = time.perf_counter()
    with pytest.raises(ConvergenceError, match=r"float range .* at n = \d+"):
        evaluate_bound(t, 2, couplings)
    assert time.perf_counter() - begin < 5.0


# ---------------------------------------------------------------------------
# Evaluator wrapper and structural invariants.
# ---------------------------------------------------------------------------


def test_bound_evaluator_shares_source():
    ev = BoundEvaluator(HALF, rel_tol=1e-11)
    r1 = ev.evaluate(1.0, 4)
    grown = ev.source.n_max
    r2 = ev.evaluate(1.0, 4)
    assert ev.source.n_max == grown
    assert r1 == r2


@given(
    t=st.floats(min_value=0.05, max_value=2.5),
    d=st.integers(min_value=0, max_value=6),
)
@settings(max_examples=30, deadline=None)
def test_bound_structural_invariants(t, d):
    result = evaluate_bound(t, d, HALF, source=_HYPOTHESIS_SOURCE)
    assert math.isfinite(result.value)
    assert result.value > 0.0
    assert 0.0 <= result.tail <= 1e-10 * result.value + 1e-300
    assert result.n_truncate >= 2 * d


_HYPOTHESIS_SOURCE = DpCountSource(n_max=64)


@given(
    t_64ths=st.integers(min_value=1, max_value=320),  # t = k / 64 in (0, 5]
    d=st.integers(min_value=0, max_value=10),
)
@settings(max_examples=40, deadline=None)
def test_certified_tail_dominates_exact_remainder(t_64ths, d):
    # The remainder past n_truncate, summed exactly over 80 more lengths, is
    # a lower bound on the true remainder; the certificate must exceed it.
    t = Fraction(t_64ths, 64)
    result = evaluate_bound(float(t), d, HALF, source=_HYPOTHESIS_SOURCE)
    n = result.n_truncate
    _HYPOTHESIS_SOURCE.ensure(n + 80, d)
    half = Fraction(1, 2)
    exact = [
        exact_bound_series(t, d, half, half, _HYPOTHESIS_SOURCE.count, m) for m in (n, n + 80)
    ]
    assert math.isfinite(result.tail)
    assert result.tail >= float(exact[1] - exact[0])


@given(
    t1=st.floats(min_value=0.0, max_value=60.0),
    t2=st.floats(min_value=0.0, max_value=60.0),
    d=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=60, deadline=None)
def test_bound_monotone_in_time_property(t1, t2, d):
    lo, hi = (_value_or_refused(t, d) for t in sorted((t1, t2)))
    if hi is None:
        # B below the float range at the later time: so it is at the earlier
        # one, refused there too, or exactly 0.0 at t = 0.
        assert lo is None or lo == 0.0
    elif lo is not None:
        assert lo <= hi


def _value_or_refused(t, d):
    """B(t, d) at g = J = 1/2, or None where it is refused below the float range."""
    try:
        return evaluate_bound(t, d, HALF, source=_HYPOTHESIS_SOURCE).value
    except ConvergenceError as exc:
        assert "below the float range" in str(exc)
        return None


@given(
    t_64ths=st.integers(min_value=7, max_value=3200),  # t = k / 64 in [0.11, 50]
    d=st.integers(min_value=0, max_value=20),
)
@settings(max_examples=60, deadline=None)
def test_bound_is_at_least_the_geodesic_term(t_64ths, d):
    # The length-2 d geodesic is unique: prefactor (step t)^(2d) (g J)^d / (2d)!,
    # in exact arithmetic, bounds B from below (up to the value's rounding).
    t = Fraction(t_64ths, 64)
    result = evaluate_bound(float(t), d, HALF, source=_HYPOTHESIS_SOURCE)
    geodesic = 2 * (2 * t * t / 4) ** d / math.factorial(2 * d)
    assert Fraction(result.value) >= geodesic * (1 - Fraction(1, 10**12))


# ---------------------------------------------------------------------------
# log_slope, d log B / d log t of the truncated series.
# ---------------------------------------------------------------------------

_SLOPE_SOURCE = DpCountSource()


@given(
    t=st.integers(min_value=1, max_value=400 * 64).map(lambda k: k / 64),
    d=st.integers(min_value=0, max_value=300),
    couplings=st.sampled_from(
        (HALF, Couplings(g=1.3, J=0.4, origin_norm=2.5, probe_norm=0.3, step_factor=1.0))
    ),
)
@example(t=345.0, d=2, couplings=HALF)  # both running sums below 1e300
@example(t=348.0, d=2, couplings=HALF)  # the sum of n term_n past 1e300: rescaled
@example(t=350.0, d=2, couplings=HALF)  # both sums past 1e300
@example(t=1 / 64, d=45, couplings=HALF)  # a subnormal partial sum
@example(t=165 / 64, d=100, couplings=HALF)  # 4e-323: slope 200.0, exactly 200.07
@settings(max_examples=60, deadline=None)
def test_log_slope_matches_exact_series(t, d, couplings):
    try:
        result = evaluate_bound(t, d, couplings, source=_SLOPE_SOURCE)
    except ConvergenceError:
        return
    exact = exact_log_slope(t, d, couplings, _SLOPE_SOURCE.count, result.n_truncate)
    if result.value / couplings.prefactor >= sys.float_info.min:
        assert abs(Fraction(result.log_slope) / exact - 1) <= Fraction(1, 10**12)
    else:
        # Subnormal terms keep fewer bits: the slope is still a mean of the
        # lengths summed.
        assert 2 * d * (1 - 1e-15) <= result.log_slope <= result.n_truncate


def test_log_slope_where_every_term_is_zero(shared_source):
    # Where B = 0, log B has no slope and log_slope reads 0.0: at t = 0 with
    # d > 0.  At t = 0, d = 0, B is the constant prefactor, whose slope is
    # 0.0 too, and so is the slope of 1 + O(t^2) at t = 1e-300.  Where every
    # term underflows, B > 0 is refused, not read as 0.
    for t, d in ((0.0, 0), (0.0, 1), (0.0, 7), (1e-300, 0)):
        result = evaluate_bound(t, d, HALF, source=shared_source)
        assert result.log_slope == 0.0
        assert (result.value == 0.0) == (d > 0)
    with pytest.raises(ConvergenceError, match="below the float range"):
        evaluate_bound(1e-300, 3, HALF, source=shared_source)


def test_log_slope_takes_the_expected_branches():
    # At 345 both running sums are below 1e300; at 348 the sum of n term_n
    # passes it, and at 350 both do, so the slope is rescaled.
    for t, past in ((345.0, (False, False)), (348.0, (True, False)), (350.0, (True, True))):
        result = evaluate_bound(t, 2, HALF)
        partial = result.value / HALF.prefactor
        assert (partial * result.log_slope > 1e300, partial > 1e300) == past


# ---------------------------------------------------------------------------
# evaluate_bound against the term-by-term loop it replaced.
# ---------------------------------------------------------------------------

ORACLE_COUPLINGS = (HALF, Couplings(g=1.3, J=0.4, origin_norm=2.5, probe_norm=0.3, step_factor=1.0))


def _outcome(evaluate, t, d, couplings, source, rel_tol):
    """The result, or the type and message of the exception raised."""
    try:
        return evaluate(t, d, couplings, source=source, rel_tol=rel_tol)
    except (ValueError, ConvergenceError) as exc:
        return type(exc), str(exc)


def _assert_matches_scalar_loop(t, d, couplings, rel_tol, source, scalar_source):
    result = _outcome(evaluate_bound, t, d, couplings, source, rel_tol)
    scalar = _outcome(scalar_evaluate_bound, t, d, couplings, scalar_source, rel_tol)
    if t > 0.0 and isinstance(scalar, BoundSeriesResult) and scalar.value == 0.0:
        # The loop's 0.0 is no bound on B > 0: refused instead.
        assert result[0] is ConvergenceError, (t, d, couplings, rel_tol)
        assert "below the float range" in result[1]
        return
    # Field for field (value, n_truncate, tail), or the same exception.
    assert result == scalar, (t, d, couplings, rel_tol)
    if isinstance(result, BoundSeriesResult):
        assert result.n_truncate <= source.n_max


@pytest.mark.parametrize("couplings", ORACLE_COUPLINGS)
@pytest.mark.parametrize(
    "t,d,rel_tol",
    [
        (1e-12, 12, 1e-10),  # a subnormal value, 7.9e-316 at g = J = 1/2
        (400.0, 100, 1e-10),  # a term leaves the float range: ConvergenceError, not OverflowError
        (400.0, 2, 1e-10),
        # The sums of n term_n and of term_n pass 1e300: log_slope is rescaled.
        (348.0, 2, 1e-10),
        (350.0, 2, 1e-10),
        (0.0, 0, 1e-10),
        (1e-300, 0, 1e-10),
        # rel_tol * partial sum below the normal range: the streak test is
        # decided by math.fsum, not by the running sum.
        (1 / 64, 42, 1e-12),
        # The geodesic term underflows to 0.0: B > 0 is refused below the
        # float range, where the loop from n = 0 returns 0.0.
        (1 / 64, 51, 1e-10),
        # The geodesic 2 d is past hard_n_limit: refused "before n = 0",
        # before any column grows.
        (1500.0, 4097, 1e-10),
    ],
)
def test_evaluate_bound_matches_scalar_loop_at_edge_cells(t, d, rel_tol, couplings):
    _assert_matches_scalar_loop(t, d, couplings, rel_tol, DpCountSource(), DpCountSource())


@pytest.mark.parametrize("t", [358.875, 359.5])
def test_partial_sum_past_float_range_matches_scalar_loop(t):
    # With a tiny prefactor the partial sum leaves the float range (math.fsum
    # overflows) before any single term does.
    tiny_prefactor = Couplings(g=0.5, J=0.5, origin_norm=1e-200)
    _assert_matches_scalar_loop(t, 2, tiny_prefactor, 1e-10, DpCountSource(), DpCountSource())
    with pytest.raises(ConvergenceError, match="float range"):
        evaluate_bound(t, 2, tiny_prefactor)


def test_edge_cells_take_the_expected_branches():
    tiny = evaluate_bound(1e-12, 12, HALF)
    assert 0.0 < tiny.value < sys.float_info.min
    with pytest.raises(ConvergenceError, match="float range"):
        evaluate_bound(400.0, 100, HALF)


@given(
    t=st.one_of(
        st.integers(min_value=0, max_value=400 * 64).map(lambda k: k / 64),
        st.sampled_from([0.0, 1e-300, 1e-12]),
    ),
    d=st.integers(min_value=0, max_value=300),
    rel_tol=st.sampled_from([1e-12, 1e-10, 1e-6]),
    couplings=st.sampled_from(ORACLE_COUPLINGS),
)
@example(t=1e-12, d=12, rel_tol=1e-10, couplings=HALF)
@example(t=400.0, d=100, rel_tol=1e-10, couplings=HALF)
@example(t=1 / 64, d=51, rel_tol=1e-10, couplings=HALF)
@settings(max_examples=100, deadline=None)
def test_evaluate_bound_matches_scalar_loop(t, d, rel_tol, couplings):
    # Fresh sources: both sides must also grow the count table alike.
    _assert_matches_scalar_loop(t, d, couplings, rel_tol, DpCountSource(), DpCountSource())


_TAIL_SOURCE = DpCountSource()


@given(
    t=st.integers(min_value=0, max_value=400 * 64).map(lambda k: k / 64),
    d=st.integers(min_value=0, max_value=300),
    rel_tol=st.floats(min_value=1e-16, max_value=1.0, exclude_max=True),
    norms=st.tuples(*[st.floats(min_value=-150, max_value=150).map(lambda e: 10.0**e)] * 2),
    couplings=st.sampled_from(ORACLE_COUPLINGS),
)
@example(t=50.0, d=2, rel_tol=1 - 2**-53, norms=(1e150, 1e150), couplings=HALF)
@settings(max_examples=100, deadline=None)
def test_returned_tail_is_finite(t, d, rel_tol, norms, couplings):
    # With rel_tol < 1 an infinite tail could pass only with an overflowing
    # value, and that is refused.
    couplings = couplings._replace(origin_norm=norms[0], probe_norm=norms[1])
    try:
        result = evaluate_bound(t, d, couplings, source=_TAIL_SOURCE, rel_tol=rel_tol)
    except ConvergenceError:
        return
    assert math.isfinite(result.tail)


# t in {0, 1e-300, 1e-12, 1e-8, ..., 400} times d in {0, ..., 300}: 24 x 23
# cells for each of the two coupling sets, 1104 in all.
_GRID_TIMES = (
    0.0, 1e-300, 1e-12, 1e-8, 1e-6, 5e-6, 1e-5, 1e-3, 0.01, 0.1, 0.5, 1.0,
    2.0, 5.0, 10.0, 20.0, 37.3, 50.0, 69.9, 100.0, 150.0, 200.0, 300.0, 400.0,
)
_GRID_DISTANCES = (
    0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 25, 30, 40, 50, 60, 80, 100, 150, 200, 250, 300,
)


@pytest.mark.slow
@pytest.mark.parametrize("couplings", ORACLE_COUPLINGS)
def test_evaluate_bound_matches_scalar_loop_on_full_grid(couplings):
    source, scalar_source = DpCountSource(), DpCountSource()
    for d in _GRID_DISTANCES:
        for t in _GRID_TIMES:
            _assert_matches_scalar_loop(t, d, couplings, 1e-10, source, scalar_source)
