"""Dimension-dependent velocity and the shrinking-dimension horizon toy model.

On a D-dimensional hypercubic lattice the decorated graph alternates between
link vertices (degree 2(D-1)) and plaquette vertices (degree 4).  Two
conventions for the number b_D of two-step walk continuations are carried as
first-class citizens:

* ``axis_pairs``: b_D = 4 D (D - 1), four choices per ordered pair of
  distinct axes (the headline convention for D-dimensional outputs);
* ``degrees``:    b_D = 8 (D - 1), the product of the two alternating vertex
  degrees, which matches the branching measured on the built lattice.

`branching_factor` gives b_D for real D.  The two coincide at D = 2 (b = 8);
at every D >= 2 the axis_pairs velocity is sqrt(D / 2) times the degrees one,
and outputs report both rather than hiding the discrepancy.  Below D = 2 there
are no plaquettes, and `v_lr_dimension` refuses such a D.

The toy model shrinks the dimension linearly in time, D(t) = D_in (1 - alpha
t), and the horizon is the time integral of the dimension-dependent velocity,
producing parabolic light-cone sides in the linear-velocity regime.  Its
``toy`` mode takes the velocity as zero for 1 <= D(t) < 2; ``strict`` mode
refuses that range.  Both integrands, sqrt(D (D - 1)) and sqrt(D - 1), have
elementary antiderivatives, so the horizon is evaluated in closed form.
"""

from __future__ import annotations

import enum
import math
from typing import Iterator, NamedTuple, Sequence

from .couplings import Couplings

PLAQUETTE_THRESHOLD = 2.0  # below two dimensions there are no square faces

MODES = ("strict", "toy")


class BranchingConvention(enum.Enum):
    AXIS_PAIRS = "axis_pairs"
    DEGREES = "degrees"


def branching_factor(D: float, convention: BranchingConvention) -> float:
    """Two-step continuation count b_D for real dimension D."""
    if convention is BranchingConvention.AXIS_PAIRS:
        return 4.0 * D * (D - 1.0)
    if convention is BranchingConvention.DEGREES:
        return 8.0 * (D - 1.0)
    raise ValueError(f"unknown convention {convention!r}")


def v_lr_dimension(
    D: float,
    couplings: Couplings,
    convention: BranchingConvention = BranchingConvention.AXIS_PAIRS,
) -> float:
    """Velocity step_factor * (e / 2) * sqrt(b_D g J) for real dimension D >= 2.

    Reduces exactly to the 2D analytic velocity at D = 2 for either
    convention.  D below the plaquette threshold, where there are no faces,
    is refused; the horizon model's toy mode takes the velocity as zero there.
    """
    if not math.isfinite(D):
        raise ValueError(f"D must be finite, got {D}")
    if D < PLAQUETTE_THRESHOLD:
        raise ValueError(f"D = {D} is below the plaquette threshold {PLAQUETTE_THRESHOLD}")
    b = branching_factor(D, convention)
    v = couplings.step_factor * (math.e / 2.0) * math.sqrt(b * couplings.g * couplings.J)
    if not math.isfinite(v):
        raise ValueError(f"the velocity at D = {D} is past the float range")
    return v


class _HorizonFields(NamedTuple):
    D_in: float
    alpha: float
    couplings: Couplings
    convention: BranchingConvention = BranchingConvention.AXIS_PAIRS
    mode: str = "toy"


class HorizonModel(_HorizonFields):
    """Linearly shrinking dimension D(t) = D_in (1 - alpha t).

    alpha = 0 is allowed (constant dimension, linear light cone).  ``toy``
    mode integrates through the D = 2 crossing with zero velocity below it;
    ``strict`` mode refuses intervals that reach below the threshold.  Both
    modes reject times where D(t) < 1.  Validated on construction and on
    `_replace`.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (self.D_in >= 1.0 and math.isfinite(self.D_in)):
            raise ValueError(f"D_in must be finite and >= 1, got {self.D_in}")
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.convention, BranchingConvention):
            raise ValueError(f"convention must be a BranchingConvention, got {self.convention!r}")
        return self

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)

    def dimension(self, t: float) -> float:
        return self.D_in * (1.0 - self.alpha * t)

    def time_at_dimension(self, D_target: float) -> float:
        """Time when D(t) first reaches D_target (inf if it never does)."""
        if self.alpha == 0.0 or self.D_in <= D_target:
            return 0.0 if self.D_in <= D_target else math.inf
        return (1.0 - D_target / self.D_in) / self.alpha


def _mean_root_branching(
    D_lo: float, D_hi: float, convention: BranchingConvention
) -> float:
    """Mean of sqrt(b_D) over [D_lo, D_hi], for 2 <= D_lo <= D_hi.

    axis_pairs: sqrt(b_D) = 2 sqrt(D (D - 1)); with u = D - 1/2 and
    s = sqrt(u^2 - 1/4) its antiderivative is u s - log(u + s) / 4.
    degrees: sqrt(b_D) = sqrt(8) sqrt(D - 1), antiderivative
    sqrt(8) (2/3) (D - 1)^(3/2).  Each difference F(D_hi) - F(D_lo) is
    rewritten as the width times a quotient, and the width cancels against
    the mean's 1 / width, so nothing cancels when the interval is tiny next to
    D (D_in = 1e9) and a zero-width interval gives sqrt(b_D) itself.
    """
    width = D_hi - D_lo
    if convention is BranchingConvention.AXIS_PAIRS:
        ua, ub = D_lo - 0.5, D_hi - 0.5
        sa, sb = math.sqrt(ua * ua - 0.25), math.sqrt(ub * ub - 0.25)
        # (ub sb - ua sa) / width and log((ub + sb) / (ua + sa)) = log1p(x).
        prod_mean = (ub + ua) * (ub * ub + ua * ua - 0.25) / (ub * sb + ua * sa)
        log_rate = (1.0 + (ub + ua) / (sb + sa)) / (ua + sa)
        x = width * log_rate
        log_mean = log_rate * (math.log1p(x) / x if x > 0.0 else 1.0)
        return prod_mean - 0.25 * log_mean
    if convention is BranchingConvention.DEGREES:
        p, q = math.sqrt(D_hi - 1.0), math.sqrt(D_lo - 1.0)
        return math.sqrt(8.0) * (2.0 / 3.0) * (p * p + p * q + q * q) / (p + q)
    raise ValueError(f"unknown convention {convention!r}")


def _velocity_cutoff(model: HorizonModel, t_i: float, t_f: float) -> float:
    """Check [t_i, t_f] against the model; return when the velocity drops to zero.

    That is the D = 2 crossing (1 - 2 / D_in) / alpha for alpha > 0, negative
    for D_in < 2, where D(t) is above 2 only at earlier times; for alpha = 0
    it is +inf if D_in >= 2 and -inf otherwise.  D(t) is monotone, so
    checking t_f checks the whole interval and every panel inside it.
    """
    if not (math.isfinite(t_i) and math.isfinite(t_f)):
        raise ValueError(f"the start and end times must be finite, got {t_i} and {t_f}")
    if t_f < t_i:
        raise ValueError(f"the end time {t_f} is before the start time {t_i}")
    d_end = model.dimension(t_f)
    if d_end < 1.0:
        raise ValueError(
            f"D(t_f) = {d_end} < 1; the model rejects queries past the D = 1 "
            f"crossing at t = {model.time_at_dimension(1.0)}"
        )
    if model.mode == "strict" and d_end < PLAQUETTE_THRESHOLD:
        raise ValueError(
            f"D(t_f) = {d_end} < {PLAQUETTE_THRESHOLD} in strict mode; the "
            f"threshold crossing is at t = {model.time_at_dimension(PLAQUETTE_THRESHOLD)}"
        )
    if model.alpha == 0.0:
        return math.inf if model.D_in >= PLAQUETTE_THRESHOLD else -math.inf
    return (1.0 - PLAQUETTE_THRESHOLD / model.D_in) / model.alpha


def _panel_distances(
    model: HorizonModel, t_cut: float, times: Sequence[float]
) -> Iterator[tuple[float, float]]:
    """(axis_pairs, degrees) distances over each panel of `times`, clipped at t_cut.

    The couplings' velocity unit, D_in and alpha are read once, and D(t)
    is computed once per time, by HorizonModel.dimension's expression.
    """
    D_in, alpha = model.D_in, model.alpha
    c = model.couplings
    v_unit = c.step_factor * (math.e / 2.0) * math.sqrt(c.g * c.J)
    D_hi = D_in * (1.0 - alpha * times[0])
    for t_prev, t_next in zip(times, times[1:]):
        D_next = D_in * (1.0 - alpha * t_next)
        t_stop = min(t_next, t_cut)
        if t_stop <= t_prev:
            yield 0.0, 0.0
        else:
            D_stop = D_next if t_stop == t_next else D_in * (1.0 - alpha * t_stop)
            D_lo = max(D_stop, PLAQUETTE_THRESHOLD)
            duration = t_stop - t_prev
            yield (
                v_unit * _mean_root_branching(D_lo, D_hi, BranchingConvention.AXIS_PAIRS) * duration,
                v_unit * _mean_root_branching(D_lo, D_hi, BranchingConvention.DEGREES) * duration,
            )
        D_hi = D_next


def _finite_radius(r: float) -> float:
    if not math.isfinite(r):
        raise ValueError(f"the horizon radius is past the float range, got {r}")
    return r


def horizon_distance(model: HorizonModel, t_i: float, t_f: float) -> float:
    """Integral of the dimension-dependent velocity over [t_i, t_f], in closed form.

    D(t) is linear in t, so the integral is the duration times the mean
    velocity over the D-interval swept (`_mean_root_branching`); alpha = 0
    sweeps a single D and gives the linear cone.  In toy mode the velocity
    vanishes once D(t) drops below the plaquette threshold, so the interval is
    cut there.  A radius past the float range is refused.
    """
    r_axis, r_deg = next(_panel_distances(model, _velocity_cutoff(model, t_i, t_f), (t_i, t_f)))
    return _finite_radius(r_axis if model.convention is BranchingConvention.AXIS_PAIRS else r_deg)


def lightcone_boundary(
    model: HorizonModel,
    t_start: float,
    t_end: float,
    steps: int,
) -> list[tuple[float, float, float]]:
    """Rows (t_k, r_axis_pairs, r_degrees) on a uniform grid of `steps` samples.

    Both conventions are sampled whatever the model's convention field, so
    the discrepancy is visible in every output.  The interval is checked
    once, each panel is clipped once, and each radius is accumulated panel by
    panel from horizon_distance's expression, so monotonicity holds by
    construction and each sample equals horizon_distance(model, t_start, t_k)
    up to rounding.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    t_cut = _velocity_cutoff(model, t_start, t_end)

    # The last sample is t_end itself: the grid formula can round past it.
    times = [t_start + (t_end - t_start) * k / (steps - 1) for k in range(steps - 1)]
    if not math.isfinite(times[-1]):  # the largest sample; nan if the span overflowed
        raise ValueError(f"the time grid from {t_start} to {t_end} is past the float range")
    times.append(t_end)
    rows = [(times[0], 0.0, 0.0)]
    r_axis = r_deg = 0.0
    for t_next, (d_axis, d_deg) in zip(times[1:], _panel_distances(model, t_cut, times)):
        r_axis += d_axis
        r_deg += d_deg
        rows.append((t_next, r_axis, r_deg))
    # Sums keep an inf or nan panel, so checking the last row checks them all.
    _finite_radius(r_axis)
    _finite_radius(r_deg)
    return rows


def dimension_scan(d_values: Sequence[float], couplings: Couplings) -> list[tuple[float, float, float]]:
    """Rows of (D, v_axis_pairs, v_degrees) for a dimension sweep, in strict mode."""
    return [
        (
            float(D),
            v_lr_dimension(D, couplings, BranchingConvention.AXIS_PAIRS),
            v_lr_dimension(D, couplings, BranchingConvention.DEGREES),
        )
        for D in d_values
    ]
