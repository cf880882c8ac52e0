"""Velocity extraction from the bound series, analytic and numeric routes.

Analytic route: the dominating exponential for the series gives a cone
d / t = step * sqrt(8 g J) * exp(kappa) / (2 kappa) for every kappa > 0;
minimising exp(kappa) / kappa (optimum kappa = 1, value e) yields the
certified velocity step * e * sqrt(2 g J).

Numeric route: for each separation d, find the arrival time t*(d) where
B(t, d) first reaches a threshold epsilon, then fit the front
d = velocity * t* + offset by least squares.  t* is a plain bisection's
answer, found in few evaluations: log B is convex in log t, so Newton's
tangents in (log t, log B) close in on the threshold from above, and a
replay of the bisection's arithmetic over that narrow bracket gives its t*
bit for bit.  A profile of bound values at one time, log B = log A +
(velocity * t - d) / decay_length, optionally gives the envelope's decay
length and amplitude at the fitted velocity.
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

# The Newton search stops once evaluated times a < b bracket the threshold
# with b / a - 1 <= _BRACKET_REL; the replayed bisection then evaluates only
# the midpoints within _REPLAY_MARGIN (relative) of [a, b].
_BRACKET_REL = 1e-13
_REPLAY_MARGIN = 1e-12
_MAX_NEWTON_STEPS = 60


def arrival_time(d: int, epsilon: float, evaluator: BoundEvaluator) -> ArrivalTime:
    """The first time B(t, d) reaches epsilon, as bisection defines it.

    The answer is the bisection's: from the bracket [0, t_hi], with t_hi the
    geodesic_bracket_time expanded by 1.5 while the evaluated bound there is
    still below epsilon (at most MAX_EXPANSIONS times), halve until the
    bracket is narrower than TIME_REL_TOL * t_hi and report its midpoint and
    the bound there.

    It is reached with few evaluations in two steps.  Newton's method in
    (log t, log B) first finds evaluated times a < b with
    B(a) < epsilon <= B(b) and b / a - 1 <= 1e-13 (_newton_bracket).  The
    bisection is then replayed with its own arithmetic: a midpoint
    >= b (1 + 1e-12) goes high, one <= a (1 - 1e-12) goes low, and only one
    between the two is evaluated.  The search picks which points are
    evaluated; the replay alone defines t*, and it is exact because the
    evaluated B is nondecreasing in t: in exact arithmetic term_n / partial_n
    and tail_n / partial_n both rise with t, so n_truncate never falls as t
    grows, and the 1e-12 margin is about a hundred times the rounding noise
    of an evaluation.  `evaluations` counts the evaluate calls made here,
    the final one included; geodesic_bracket_time checks d and epsilon first.
    """
    t_hi = geodesic_bracket_time(d, epsilon, evaluator.couplings)
    start = evaluator.evaluations
    hi = evaluator.evaluate(t_hi, d)
    expansions = 0
    while hi.value < epsilon:
        expansions += 1
        if expansions > MAX_EXPANSIONS:
            raise ThresholdUnreachableError(
                f"no time with B(t, {d}) >= {epsilon} found up to t = {t_hi}"
            )
        t_hi *= 1.5
        hi = evaluator.evaluate(t_hi, d)

    a, b = _newton_bracket(d, epsilon, evaluator, hi)

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
    value = evaluator.evaluate(t_star, d).value
    return ArrivalTime(d, t_star, value, evaluator.evaluations - start)


def _newton_bracket(d: int, epsilon: float, evaluator: BoundEvaluator, hi) -> tuple[float, float]:
    """Evaluated times a < b with B(a) < epsilon <= B(b), from b = hi.t.

    Newton's method on f = log B - log epsilon over log t, stepping from b
    with the slope its evaluation reports (log_slope).  B sums nonnegative
    multiples of powers of t, so f is convex (Hoelder), and the iterates
    stay above the root and converge to it quadratically.  A step is clamped
    at least 0.4 * 1e-13 (relative) inside (a, b), else taken at the
    midpoint, so once the tangent's root sits that close to b the step falls
    below the threshold.  Where b's slope is not positive the step takes the
    larger of two slopes that convexity puts below f' at b, the chord's from
    a (where 0 < B(a)) and the power law's, 2 d, as every term has n >= 2 d;
    it stays below the root in exact arithmetic.  Stops at
    b / a - 1 <= 1e-13, or after _MAX_NEWTON_STEPS with a wider bracket,
    which the replay then narrows by evaluating.
    """
    log_eps, inset = math.log(epsilon), 0.4 * _BRACKET_REL
    a, f_a, b, steps = 0.0, -math.inf, hi.t, 0
    f_b, slope = math.log(hi.value) - log_eps, hi.log_slope
    while not (a > 0.0 and b / a - 1.0 <= _BRACKET_REL) and steps < _MAX_NEWTON_STEPS:
        chord = (f_b - f_a) / math.log(b / a) if f_a > -math.inf else 0.0
        t = b * math.exp(-f_b / (slope if slope > 0.0 else max(chord, 2 * d)))
        t = min(max(t, a * (1.0 + inset)), b * (1.0 - inset))
        if not a < t < b:
            t = 0.5 * (a + b)
        result = evaluator.evaluate(t, d)
        steps += 1
        if result.value >= epsilon:
            b, f_b, slope = t, math.log(result.value) - log_eps, result.log_slope
        else:
            a, f_a = t, math.log(result.value) - log_eps if result.value > 0.0 else -math.inf
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
        # The last arrival's final evaluation is the profile's last sample.
        last = arrivals[-1]
        profile = [(last.time, d, evaluator.evaluate(last.time, d).value) for d in d_values[:-1]]
        profile.append((last.time, last.d, last.bound_value))
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
