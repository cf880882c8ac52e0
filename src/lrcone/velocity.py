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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lrbound import BoundEvaluator, Couplings


# Fewest arrivals (and profile samples) a fit accepts, and the smallest
# max / min ratio of the arrival distances.
MIN_POINTS = 4
MIN_DISTANCE_RATIO = 2.0


class ThresholdUnreachableError(RuntimeError):
    """Bracket expansion failed to enclose the requested threshold."""


# ---------------------------------------------------------------------------
# Analytic route.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KappaOptimum:
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


def analytic_velocity(couplings: Couplings) -> float:
    """Certified cone velocity step * e * sqrt(2 g J) (kappa = 1 optimum)."""
    return optimize_kappa(couplings).v_lr


# ---------------------------------------------------------------------------
# Numeric route: arrival times.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArrivalTime:
    d: int
    time: float
    epsilon: float
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
    hundred times the rounding noise of an evaluation.  `evaluations`
    counts every evaluate call, the final one at the reported time included.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")

    couplings = evaluator.couplings
    t_hi = geodesic_bracket_time(d, epsilon, couplings)
    evaluations = 1
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
        evaluations += 1

    a, b, steps = _secant_bracket(d, epsilon, evaluator, t_hi, value_hi)
    evaluations += steps

    t_lo = 0.0
    while t_hi - t_lo > TIME_REL_TOL * t_hi:
        mid = 0.5 * (t_lo + t_hi)
        if mid >= b * (1.0 + _REPLAY_MARGIN):
            reached = True
        elif mid <= a * (1.0 - _REPLAY_MARGIN):
            reached = False
        else:
            evaluations += 1
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
        epsilon=epsilon,
        bound_value=final.value,
        evaluations=evaluations + 1,
    )


def _secant_bracket(
    d: int, epsilon: float, evaluator: BoundEvaluator, t_hi: float, value_hi: float
) -> tuple[float, float, int]:
    """Evaluated times a < b with B(a) < epsilon <= B(b), and the evaluations made.

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
    return a, b, steps


# ---------------------------------------------------------------------------
# Front and profile fits.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LightConeFit:
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
    n_arrivals: int
    n_profile: int


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    rms = math.sqrt(ss_res / len(x))
    return float(slope), float(intercept), r_squared, rms


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
    n_arrivals = len(arrivals)
    if n_arrivals < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} arrival points, got {n_arrivals}")
    ds = np.array([a.d for a in arrivals], dtype=float)
    ts = np.array([a.time for a in arrivals], dtype=float)
    if ds.min() <= 0 or ds.max() / ds.min() < MIN_DISTANCE_RATIO:
        raise ValueError(
            f"arrival distances must span a ratio >= {MIN_DISTANCE_RATIO}, "
            f"got [{ds.min():g}, {ds.max():g}]"
        )
    velocity, front_offset, r_squared, residual_rms = _line_fit(ts, ds)

    decay_length = amplitude = math.nan
    n_profile = 0
    if profile is not None:
        n_profile = len(profile)
        if n_profile < MIN_POINTS:
            raise ValueError(f"need at least {MIN_POINTS} profile points, got {n_profile}")
        ts_p = np.array([p[0] for p in profile], dtype=float)
        ds_p = np.array([p[1] for p in profile], dtype=float)
        values = np.array([p[2] for p in profile], dtype=float)
        if np.any(values <= 0):
            raise ValueError("profile bound values must be > 0 to fit the envelope")
        if len(np.unique(ts_p)) != 1:
            raise ValueError("profile samples must share one time")
        if len(np.unique(ds_p)) < 2:
            raise ValueError("profile needs at least 2 distinct distances")
        slope, intercept, _, _ = _line_fit(ds_p, np.log(values / prefactor))
        if slope >= 0:
            raise ValueError("profile does not decay with distance; no cone to fit")
        decay_length = -1.0 / slope
        # log B = [log A + v t_ref / xi] - d / xi at the single time.
        amplitude = math.exp(intercept + velocity * float(ts_p[0]) * slope)

    return LightConeFit(
        velocity=velocity,
        front_offset=front_offset,
        r_squared=r_squared,
        residual_rms=residual_rms,
        decay_length=decay_length,
        amplitude=amplitude,
        n_arrivals=n_arrivals,
        n_profile=n_profile,
    )


# ---------------------------------------------------------------------------
# End-to-end extraction.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VelocityReport:
    couplings: Couplings
    epsilon: float
    d_values: tuple[int, ...]
    arrivals: tuple[ArrivalTime, ...]
    fit: LightConeFit
    analytic: KappaOptimum
    velocity_ratio: float  # fitted / analytic
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
    A window whose largest distance needs walks past the count source's work
    budget raises ConvergenceError before the first arrival is computed.
    """
    d_values = tuple(int(d) for d in d_values)
    if len(d_values) < 4:
        raise ValueError(f"need at least 4 distances, got {len(d_values)}")
    if evaluator is None:
        evaluator = BoundEvaluator(couplings)
    elif evaluator.couplings != couplings:
        raise ValueError("evaluator couplings differ from the requested couplings")
    evaluator.source.ensure(0, max(d_values))

    arrivals = tuple(arrival_time(d, epsilon, evaluator) for d in d_values)
    profile = None
    if include_profile:
        t_ref = arrivals[-1].time
        profile = [
            (t_ref, d, evaluator.evaluate(t_ref, d).value) for d in d_values
        ]
    fit = fit_lightcone(arrivals=arrivals, profile=profile, prefactor=couplings.prefactor)
    analytic = optimize_kappa(couplings)

    half = len(arrivals) // 2
    ts = np.array([a.time for a in arrivals])
    ds = np.array([a.d for a in arrivals], dtype=float)
    lead = _line_fit(ts[: len(arrivals) - half], ds[: len(arrivals) - half])[0]
    trail = _line_fit(ts[half:], ds[half:])[0]

    return VelocityReport(
        couplings=couplings,
        epsilon=epsilon,
        d_values=d_values,
        arrivals=arrivals,
        fit=fit,
        analytic=analytic,
        velocity_ratio=fit.velocity / analytic.v_lr,
        subwindow_slopes=(lead, trail),
    )


def velocity_report_to_json_dict(report: VelocityReport) -> dict:
    return {
        "schema_version": 2,
        "couplings": report.couplings.to_json_dict(),
        "epsilon": report.epsilon,
        "d_values": list(report.d_values),
        "arrivals": [[a.d, a.time] for a in report.arrivals],
        "arrival_bounds": [a.bound_value for a in report.arrivals],
        "fit": {
            "v": report.fit.velocity,
            "xi": report.fit.decay_length,
            "A": report.fit.amplitude,
            "residual_rms": report.fit.residual_rms,
            "front_offset": report.fit.front_offset,
            "r_squared": report.fit.r_squared,
        },
        "kappa": {
            "kappa_star": report.analytic.kappa_star,
            "objective_min": report.analytic.objective_min,
            "v_lr": report.analytic.v_lr,
        },
        "ratio_v_over_c": report.fit.velocity / report.couplings.coupling_speed,
        "ratio_v_over_v_lr": report.velocity_ratio,
        "subwindow_slopes": list(report.subwindow_slopes),
    }
