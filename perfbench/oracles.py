"""Independent answers the benchmark checks every timed result against.

Nothing here calls the code under test: counts come from the closed form on
the Lieb lattice, horizon radii from the elementary antiderivative of the
velocity, and arrival times from recorded reference values.
"""

from __future__ import annotations

import math
from math import comb

# Headline run (g = J = 1/2, eps = 1e-8, d = 10..40 step 2, series rel_tol
# 1e-10, count table to n = 260) as computed by lrcone 0.1.0.
HEADLINE_ARRIVALS = {
    10: 4.326006790626419,
    12: 5.904347112225421,
    14: 7.527763737557008,
    16: 9.175754782294913,
    18: 10.837339376930894,
    20: 12.506532115420613,
    22: 14.180031325951154,
    24: 15.855994396732672,
    26: 17.53337730051894,
    28: 19.211576190757988,
    30: 20.890232523121743,
    32: 22.569126820026575,
    34: 24.248120359342774,
    36: 25.927122776045255,
    38: 27.606073728952154,
    40: 29.284932229189856,
}
HEADLINE_VELOCITY = 1.1978185257708165
ARRIVAL_REL_TOL = 1e-9  # as the unit test pins the d = 12 arrival time
THRESHOLD_REL_TOL = 1e-6  # |B(t*) / eps - 1| at each arrival
VELOCITY_REL_TOL = 1e-8
SERIES_REL_TOL = 1e-10  # as acceptance criterion 5 against the Fraction oracle
HORIZON_REL_TOL = 1e-8  # as acceptance criterion 7 against the closed form


def _square_walks(j: int, y: int) -> int:
    """W_j(y) = C(j, (j + |y|) / 2)^2, zero on parity or range failure."""
    y = abs(y)
    if y > j or (j + y) % 2:
        return 0
    return comb(j, (j + y) // 2) ** 2


def lieb_count(n: int, d: int) -> int:
    """Walks of length n from the canonical link to the link d steps across.

    On the Lieb lattice a link -> plaquette -> link step is T = 4 I + A on
    plaquettes, and square-lattice walks factor in rotated coordinates:
    N(2m, d) = sum_j C(m-1, j) 4^(m-1-j) [2 W_j(d) + W_j(d-1) + W_j(d+1)].
    Odd lengths give 0 and N(0, d) = [d = 0].
    """
    if n < 0 or d < 0:
        raise ValueError(f"n and d must be >= 0, got n = {n}, d = {d}")
    if n % 2:
        return 0
    m = n // 2
    if m == 0:
        return int(d == 0)
    return sum(
        comb(m - 1, j)
        * 4 ** (m - 1 - j)
        * (2 * _square_walks(j, d) + _square_walks(j, d - 1) + _square_walks(j, d + 1))
        for j in range(m)
    )


class LiebCounts:
    """lieb_count as an (n, d) -> int callable, memoised for one workload."""

    def __init__(self) -> None:
        self._memo: dict[tuple[int, int], int] = {}

    def __call__(self, n: int, d: int) -> int:
        key = (n, d)
        if key not in self._memo:
            self._memo[key] = lieb_count(n, d)
        return self._memo[key]


def _axis_pairs_integral(d_lo: float, d_hi: float, width: float) -> float:
    """Integral of sqrt(D (D - 1)) dD over [d_lo, d_hi], width = d_hi - d_lo.

    With u = D - 1/2 and s = sqrt(u^2 - 1/4) the antiderivative is
    u s / 2 - log(u + s) / 8; both differences are rewritten as quotients of
    the width so that nothing cancels when the interval is tiny next to D.
    """
    ua, ub = d_lo - 0.5, d_hi - 0.5
    sa, sb = math.sqrt(ua * ua - 0.25), math.sqrt(ub * ub - 0.25)
    prod_diff = width * (ub + ua) * (ub * ub + ua * ua - 0.25) / (ub * sb + ua * sa)
    sum_diff = width + width * (ub + ua) / (sb + sa)
    return 0.5 * prod_diff - 0.125 * math.log1p(sum_diff / (ua + sa))


def _degrees_integral(d_lo: float, d_hi: float, width: float) -> float:
    """Integral of sqrt(D - 1) dD over [d_lo, d_hi] = (2/3) (p^3 - q^3)."""
    p, q = math.sqrt(d_hi - 1.0), math.sqrt(d_lo - 1.0)
    return (2.0 / 3.0) * width / (p + q) * (p * p + p * q + q * q)


def horizon_radius(
    D_in: float, alpha: float, t: float, *, g: float, J: float, step: float, convention: str
) -> float:
    """Closed-form r(t) = integral over [0, t] of the velocity at D(s) = D_in (1 - alpha s).

    The velocity is step (e / 2) sqrt(b_D g J) with b_D = 4 D (D - 1)
    (axis_pairs) or 8 (D - 1) (degrees), and zero once D drops below 2.
    """
    if convention == "axis_pairs":
        scale, integral = step * math.e * math.sqrt(g * J), _axis_pairs_integral
    elif convention == "degrees":
        scale, integral = step * math.e * math.sqrt(2.0 * g * J), _degrees_integral
    else:
        raise ValueError(f"unknown convention {convention!r}")
    if D_in < 2.0 or t == 0.0:
        return 0.0
    if alpha == 0.0:
        speed = math.sqrt(D_in * (D_in - 1.0)) if convention == "axis_pairs" else math.sqrt(D_in - 1.0)
        return scale * speed * t
    t_floor = (1.0 - 2.0 / D_in) / alpha  # D reaches the plaquette threshold
    if t < t_floor:
        d_lo, width = D_in * (1.0 - alpha * t), D_in * alpha * t
    else:
        d_lo, width = 2.0, D_in - 2.0
    return scale * integral(d_lo, D_in, width) / (alpha * D_in)


def relative_error(value: float, reference: float) -> float:
    if reference == 0.0:
        return 0.0 if value == 0.0 else math.inf
    return abs(value - reference) / abs(reference)
