"""Velocity extraction from the bound series, analytic and numeric routes.

Analytic route: the dominating exponential for the series gives a cone
d / t = step * sqrt(8 g J) * exp(kappa) / (2 kappa) for every kappa > 0;
minimising exp(kappa) / kappa (optimum kappa = 1, value e) yields the
certified velocity step * e * sqrt(2 g J).

Numeric route: for each separation d, find the arrival time t*(d) where
B(t, d) first reaches a threshold epsilon (the answer a plain bisection
gives, reached by a secant and a replay of that bisection), then fit the
front d = velocity * t* + offset by least squares.  Optionally a profile of
bound values at one time, log B = log A + (velocity * t - d) / decay_length,
gives the decay length and amplitude of the envelope at the fitted velocity.
Every fit is exact: slope, intercept, r^2 and the mean squared residual are
the least-squares values of the float inputs, each rounded once.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .couplings import Couplings, NumericalFailure
from .lrbound import BoundEvaluator


# Fewest arrivals (and profile samples) a fit accepts, and the smallest
# max / min ratio of the arrival distances.
MIN_POINTS = 4
MIN_DISTANCE_RATIO = 2.0


class ThresholdUnreachableError(NumericalFailure):
    """Bracket expansion failed to enclose the requested threshold."""


# ---------------------------------------------------------------------------
# Analytic route.
# ---------------------------------------------------------------------------


class KappaOptimum(NamedTuple):
    kappa_star: float
    objective_min: float  # exp(kappa) / kappa at the optimum
    v_lr: float  # step_factor * coupling_speed * objective_min


def optimize_kappa(couplings: Couplings) -> KappaOptimum:
    """Minimum of exp(kappa)/kappa over kappa > 0.

    The derivative exp(kappa) (kappa - 1) / kappa^2 vanishes only at
    kappa = 1, where the strictly convex objective takes the value e.
    """
    kappa = 1.0
    objective = math.exp(kappa) / kappa
    return KappaOptimum(
        kappa_star=kappa,
        objective_min=objective,
        v_lr=couplings.step_factor * couplings.coupling_speed * objective,
    )


# ---------------------------------------------------------------------------
# Numeric route: arrival times.
# ---------------------------------------------------------------------------


class ArrivalTime(NamedTuple):
    d: int
    time: float
    bound_value: float
    evaluations: int


def geodesic_bracket_time(d: int, epsilon: float, couplings: Couplings) -> float:
    """Time where the geodesic term alone reaches epsilon; upper-brackets t*.

    The length-2d geodesic is unique, so its term
    prefactor (step t)^(2d) (g J)^d / (2d)! is a lower bound on B(t, d);
    where it equals epsilon the full series is already >= epsilon.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    if not (0.0 < epsilon / couplings.prefactor < math.inf):
        raise ValueError(
            f"epsilon / (2*origin_norm*probe_norm) must be a positive finite float, "
            f"got epsilon = {epsilon} over {couplings.prefactor}"
        )
    log_t = (math.lgamma(2 * d + 1) + math.log(epsilon / couplings.prefactor)) / (2 * d)
    return math.exp(log_t) / (couplings.step_factor * math.sqrt(couplings.g * couplings.J))


TIME_REL_TOL = 1e-10
MAX_EXPANSIONS = 80

# The secant stops once evaluated times a < b bracket the threshold with
# b / a - 1 <= _BRACKET_REL; the replayed bisection then evaluates only the
# midpoints within _REPLAY_MARGIN (relative) of [a, b].
_BRACKET_REL = 1e-13
_REPLAY_MARGIN = 1e-12
_MAX_SECANT_STEPS = 60


def arrival_time(d: int, epsilon: float, evaluator: BoundEvaluator) -> ArrivalTime:
    """The first time B(t, d) reaches epsilon, as bisection defines it.

    The answer is the bisection's: from the bracket [0, t_hi], with t_hi the
    geodesic_bracket_time expanded by 1.5 while the evaluated bound there is
    still below epsilon (at most MAX_EXPANSIONS times), halve until the
    bracket is narrower than TIME_REL_TOL * t_hi and report its midpoint and
    the bound there.

    It is reached with few evaluations in two steps.  A safeguarded secant
    in (log t, log B), using only the evaluated values, first finds two
    evaluated times a < b with B(a) < epsilon <= B(b) and
    b / a - 1 <= 1e-13.  The bisection is then replayed with its own
    arithmetic: a midpoint >= b (1 + 1e-12) goes high, one <= a (1 - 1e-12)
    goes low, and only a midpoint between the two is evaluated.  The replay
    is exact because the evaluated B is nondecreasing in t: in exact
    arithmetic term_n / partial_n and tail_n / partial_n both rise with t,
    so n_truncate never falls as t grows, and the 1e-12 margin is about a
    hundred times the rounding noise of an evaluation.  `evaluations` is
    the evaluator's count of the evaluate calls made here, the final one at
    the reported time included.  geodesic_bracket_time checks d and epsilon
    before the first.
    """
    t_hi = geodesic_bracket_time(d, epsilon, evaluator.couplings)
    start = evaluator.evaluations
    value_hi = evaluator.evaluate(t_hi, d).value
    expansions = 0
    while value_hi < epsilon:
        expansions += 1
        if expansions > MAX_EXPANSIONS:
            raise ThresholdUnreachableError(
                f"no time with B(t, {d}) >= {epsilon} found up to t = {t_hi}"
            )
        t_hi *= 1.5
        value_hi = evaluator.evaluate(t_hi, d).value

    a, b = _secant_bracket(d, epsilon, evaluator, t_hi, value_hi)

    t_lo = 0.0
    while t_hi - t_lo > TIME_REL_TOL * t_hi:
        mid = 0.5 * (t_lo + t_hi)
        if mid >= b * (1.0 + _REPLAY_MARGIN):
            reached = True
        elif mid <= a * (1.0 - _REPLAY_MARGIN):
            reached = False
        else:
            reached = evaluator.evaluate(mid, d).value >= epsilon
        if reached:
            t_hi = mid
        else:
            t_lo = mid
    t_star = 0.5 * (t_lo + t_hi)
    final = evaluator.evaluate(t_star, d)
    return ArrivalTime(
        d=d,
        time=t_star,
        bound_value=final.value,
        evaluations=evaluator.evaluations - start,
    )


def _secant_bracket(
    d: int, epsilon: float, evaluator: BoundEvaluator, t_hi: float, value_hi: float
) -> tuple[float, float]:
    """Evaluated times a < b with B(a) < epsilon <= B(b).

    Regula falsi on f = log B - log epsilon over log t, with the Illinois
    halving of a retained end's f so that both ends close in; a step lands
    at least 0.4 * 1e-13 (relative) inside the bracket, so it overshoots the
    threshold once the estimate sits that close to an end.  Until a time
    with 0 < B < epsilon is known, the step is the power law from b:
    B(t) / t^(2 d) rises with t (every term has n >= 2 d), so
    t = b (epsilon / B(b))^(1 / 2d) has B <= epsilon in exact arithmetic.
    Stops at b / a - 1 <= 1e-13, or after _MAX_SECANT_STEPS with a wider
    bracket, which the replay then narrows by evaluating.
    """
    log_eps = math.log(epsilon)
    a, f_a = 0.0, -math.inf
    b, f_b = t_hi, math.log(value_hi) - log_eps
    retained = 0  # +1 when b was kept on the last step, -1 when a was
    steps = 0
    while not (a > 0.0 and b / a - 1.0 <= _BRACKET_REL) and steps < _MAX_SECANT_STEPS:
        if f_a == -math.inf:
            t = b * math.exp(-f_b / (2 * d))
        elif f_b > f_a:
            log_a, log_b = math.log(a), math.log(b)
            t = math.exp(log_b - f_b * (log_b - log_a) / (f_b - f_a))
        else:  # log B rounded flat across the bracket
            t = math.sqrt(a * b)
        inset = 0.4 * _BRACKET_REL
        t = min(max(t, a * (1.0 + inset)), b * (1.0 - inset))
        if not a < t < b:
            t = 0.5 * (a + b)
        value = evaluator.evaluate(t, d).value
        steps += 1
        if value >= epsilon:
            b, f_b = t, math.log(value) - log_eps
            if retained == -1:
                f_a *= 0.5
            retained = -1
        else:
            a, f_a = t, (math.log(value) - log_eps if value > 0.0 else -math.inf)
            if retained == 1:
                f_b *= 0.5
            retained = 1
    return a, b


# ---------------------------------------------------------------------------
# Front and profile fits.
# ---------------------------------------------------------------------------


class LightConeFit(NamedTuple):
    """Least-squares description of the numerically observed cone.

    residual_rms is the root-mean-square deviation of the fitted front from
    the arrival distances.
    """

    velocity: float
    front_offset: float  # d0 in d = velocity * t + d0
    r_squared: float
    residual_rms: float
    decay_length: float  # nan without profile samples
    amplitude: float  # nan without profile samples


def _line_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float, float]:
    """Least-squares line y = slope x + intercept: slope, intercept, r^2, rms.

    Every float is an integer over one common power of two, so the centred
    sums n Sxy - Sx Sy, n Sxx - Sx^2 and n Syy - Sy^2 are exact Python ints,
    and each returned value (the mean squared residual before its square
    root) is one int / int division, which CPython rounds correctly.
    r^2 is 1.0 when the ys do not vary.
    """
    n = len(xs)
    points = [float(v) for v in (*xs, *ys)]
    if not all(map(math.isfinite, points)):
        raise ValueError("fit points must be finite")
    ratios = [v.as_integer_ratio() for v in points]
    scale = max(den for _, den in ratios)
    ints = [num * (scale // den) for num, den in ratios]
    xi, yi = ints[:n], ints[n:]
    sx, sy = sum(xi), sum(yi)
    sxx = sum(x * x for x in xi)
    sxy = sum(x * y for x, y in zip(xi, yi))
    syy = sum(y * y for y in yi)
    cxx = n * sxx - sx * sx
    cxy = n * sxy - sx * sy
    cyy = n * syy - sy * sy
    if cxx == 0:
        raise ValueError("a line fit needs at least 2 distinct x values")
    slope = cxy / cxx
    intercept = (sy * sxx - sx * sxy) / (scale * cxx)
    r_squared = 1.0 if cyy == 0 else cxy * cxy / (cxx * cyy)
    rms = math.sqrt((cxx * cyy - cxy * cxy) / (n * n * cxx * scale * scale))
    return slope, intercept, r_squared, rms


def _check_distance_span(ds: Sequence[float]) -> None:
    """Refuse distances not all > 0, or whose max / min is below MIN_DISTANCE_RATIO."""
    if min(ds) <= 0 or max(ds) / min(ds) < MIN_DISTANCE_RATIO:
        raise ValueError(
            f"arrival distances must span a ratio >= {MIN_DISTANCE_RATIO}, "
            f"got [{min(ds):g}, {max(ds):g}]"
        )


def fit_lightcone(
    arrivals: Sequence[ArrivalTime],
    profile: Sequence[tuple[float, int, float]] | None = None,
    *,
    prefactor: float = 2.0,
) -> LightConeFit:
    """Fit the front from arrival times, and the envelope from a profile.

    Arrivals give d = velocity * t + offset directly.  Profile samples
    (t_ref, d, bound_value) at one time t_ref give
    log(bound / prefactor) = log A + (velocity t_ref - d) / xi, a line in d
    whose intercept needs the arrival-fit velocity to separate the amplitude
    A from the time shift.
    """
    if len(arrivals) < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} arrival points, got {len(arrivals)}")
    ds = [float(a.d) for a in arrivals]
    ts = [a.time for a in arrivals]
    _check_distance_span(ds)
    if len(set(ts)) < 2:
        raise ValueError("arrival times must not all be equal")
    velocity, front_offset, r_squared, residual_rms = _line_fit(ts, ds)

    decay_length = amplitude = math.nan
    if profile is not None:
        if len(profile) < MIN_POINTS:
            raise ValueError(f"need at least {MIN_POINTS} profile points, got {len(profile)}")
        ts_p = [float(p[0]) for p in profile]
        ds_p = [float(p[1]) for p in profile]
        values = [float(p[2]) for p in profile]
        if any(v <= 0 for v in values):
            raise ValueError("profile bound values must be > 0 to fit the envelope")
        if len(set(ts_p)) != 1:
            raise ValueError("profile samples must share one time")
        if len(set(ds_p)) < 2:
            raise ValueError("profile needs at least 2 distinct distances")
        log_values = [math.log(v / prefactor) for v in values]
        slope, intercept, _, _ = _line_fit(ds_p, log_values)
        if slope >= 0:
            raise ValueError("profile does not decay with distance; no cone to fit")
        decay_length = -1.0 / slope
        # log B = [log A + v t_ref / xi] - d / xi at the single time.
        try:
            amplitude = math.exp(intercept + velocity * ts_p[0] * slope)
        except OverflowError:
            raise ValueError(
                "profile and front fits disagree beyond float range; amplitude overflows"
            ) from None

    return LightConeFit(
        velocity=velocity,
        front_offset=front_offset,
        r_squared=r_squared,
        residual_rms=residual_rms,
        decay_length=decay_length,
        amplitude=amplitude,
    )


# ---------------------------------------------------------------------------
# End-to-end extraction.
# ---------------------------------------------------------------------------


class VelocityReport(NamedTuple):
    arrivals: tuple[ArrivalTime, ...]
    fit: LightConeFit
    analytic: KappaOptimum
    subwindow_slopes: tuple[float, float]  # leading-half and trailing-half fits


def extract_velocity(
    couplings: Couplings,
    *,
    d_values: Sequence[int],
    epsilon: float,
    evaluator: BoundEvaluator | None = None,
    include_profile: bool = False,
) -> VelocityReport:
    """Arrival times over a distance window, front fit, analytic comparison.

    The subwindow slopes (first half versus second half of the distance
    window) expose any residual drift of the fitted velocity with distance.
    A window spanning a ratio below MIN_DISTANCE_RATIO raises ValueError, and
    one whose largest distance needs walks past the count source's work
    budget ConvergenceError, before the first arrival is computed.
    """
    d_values = tuple(int(d) for d in d_values)
    if len(d_values) < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} distances, got {len(d_values)}")
    if evaluator is None:
        evaluator = BoundEvaluator(couplings)
    elif evaluator.couplings != couplings:
        raise ValueError("evaluator couplings differ from the requested couplings")
    # Within the budget max / min of the distances cannot overflow a float.
    evaluator.source.ensure(0, max(d_values))
    _check_distance_span(d_values)

    arrivals = tuple(arrival_time(d, epsilon, evaluator) for d in d_values)
    profile = None
    if include_profile:
        t_ref = arrivals[-1].time
        profile = [
            (t_ref, d, evaluator.evaluate(t_ref, d).value) for d in d_values
        ]
    fit = fit_lightcone(arrivals=arrivals, profile=profile, prefactor=couplings.prefactor)

    half = len(arrivals) // 2
    ts = [a.time for a in arrivals]
    ds = [float(a.d) for a in arrivals]
    lead = _line_fit(ts[: len(arrivals) - half], ds[: len(arrivals) - half])[0]
    trail = _line_fit(ts[half:], ds[half:])[0]

    return VelocityReport(
        arrivals=arrivals,
        fit=fit,
        analytic=optimize_kappa(couplings),
        subwindow_slopes=(lead, trail),
    )
