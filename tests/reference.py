"""Independent references for the bound series and for its front.

`exact_bound_series` reassembles B(t, d) with Fraction arithmetic: for the
canonical pair family only even walk lengths contribute, and for even n = 2 m
the term

    (step t)^n (g J)^(n/2) / n! * count = (step^2 t^2 g J)^m / (2m)! * count

is rational whenever t, g, J and step^2 are.  No logs, no floats, no shared
summation code with the implementation under test.

`exact_log_slope` is that series' d log B / d log t, sum n a_n t^n over
sum a_n t^n, in integer arithmetic.

`saddle_velocity` predicts where that series' front lies from the symbol of
the two-step transfer matrix alone, in plain `math` floats; it takes no
counts, no series and no code from the implementation under test.

`exact_line_fit` is the least-squares line through float points in
Fraction arithmetic, from centred sums and explicit residuals, each result
rounded to float once at the end.

`horizon_radius_quadrature` integrates the shrinking-dimension velocity by
composite Gauss-Legendre quadrature, with numpy's nodes and no
antiderivative, so it shares nothing with the closed form under test.

`scalar_evaluate_bound` and `bisect_arrival_time` are the series loop from
n = 0 with an fsum and a tail certificate at every term, and the plain
arrival bisection, that `lrcone` used before its O(1)-per-term loop and its
Newton search with a replayed bisection.  They share best_tail_bound and
the count source with the code under test, and must give its results bit
for bit.

Helpers that `lrcone` once shipped and only tests reached:

* `log_series_term`, one log-term of the series in the order the loop
  sums it, which `scalar_evaluate_bound` uses;
* `tail_bound`, the series tail at any kappa > 0, restated apart from
  `lrbound`'s own expression, which it equals at TAIL_KAPPA bit for bit;
* `extend_walk_counts`, the antidiagonal growth of a count column by the
  README's sum, O(m) big-integer additions per length, and
  `walk_count_column`, one such column built in one go: the oracle of
  `grow_walk_counts`' recurrence;
* `gross_upper_bound`, the crude exponential that dominates every count and
  that the tail is derived from;
* `literal_closed_form`, the paper's binomial sum term by term with
  `_comb_or_zero` reading each out-of-range or half-integer binomial as
  zero: the oracle of `count_walks_closed_form`, which skips the rows that
  parity makes zero.

Everything here imports `lrcone`, and horizon_radius_quadrature numpy, only
when called, so loading this module for `exact_bound_series` stays cheap.
"""

import itertools
import math
import sys
from fractions import Fraction
from math import factorial


def exact_bound_series(
    t: Fraction,
    d: int,
    g: Fraction,
    J: Fraction,
    counts,
    n_terms: int,
    *,
    step_squared: Fraction = Fraction(2),
    origin_norm: Fraction = Fraction(1),
    probe_norm: Fraction = Fraction(1),
) -> Fraction:
    """Exact partial sum of the bound series through walk length n_terms.

    `counts` is any callable (n, d) -> int giving exact walk counts.
    """
    q = step_squared * t * t * g * J
    total = Fraction(0)
    for m in range(n_terms // 2 + 1):
        c = counts(2 * m, d)
        if c:
            total += c * q**m / factorial(2 * m)
    return 2 * origin_norm * probe_norm * total


def exact_log_slope(t: float, d: int, couplings, counts, n_terms: int) -> Fraction:
    """sum n a_n t^n / sum a_n t^n through walk length n_terms, exactly.

    d log B / d log t of the truncated series at the float inputs, with
    step^2 the square of the float step_factor.  Only even lengths n = 2 m
    contribute, and each term c q^m / (2m)!, q = step^2 t^2 g J = p / r, is
    scaled by r^M (2M)! to an integer and summed by Horner's rule in p, so no
    rational is reduced per term.
    """
    q = Fraction(couplings.step_factor) ** 2 * Fraction(t) ** 2
    q *= Fraction(couplings.g) * Fraction(couplings.J)
    p, r = q.numerator, q.denominator
    weighted = total = 0
    scale = 1  # r^(M - m) (2M)! / (2m)!, from m = M down
    for m in range(n_terms // 2, -1, -1):
        c = counts(2 * m, d) * scale
        total = total * p + c
        weighted = weighted * p + 2 * m * c
        scale *= r * (2 * m) * (2 * m - 1)
    if total == 0:
        raise ValueError("every term is 0")
    return Fraction(weighted, total)


def saddle_velocity(
    g: float,
    J: float,
    step_squared: Fraction = Fraction(2),
) -> float:
    """Saddle-point velocity of the exact bound series' front (float).

    Distance convention: d counts plaquette steps along the separation axis,
    so the two link observables sit 2 d apart on the decorated graph G'.

    Symbol.  Two steps of a walk on G' that start on a plaquette go to one of
    its 4 links and then to one of that link's 2 plaquettes: back home in 4
    ways, or to each of the 4 neighbouring plaquettes in 1 way.  On the
    plaquettes this is T = 4 I + A_square, whose Fourier symbol is
    4 + 2 cos k_x + 2 cos k_y.  Continuing k_x -> -i theta along the
    separation axis (theta conjugate to d) and setting k_y = 0 gives

        lambda(theta) = 6 + 2 cosh(theta)   per plaquette step.

    (With theta' conjugate to the G' distance 2 d this reads 6 + 2 cosh 2 theta'.)

    Front.  T has nonnegative entries, so T^m from one plaquette to another
    d steps away is at most lambda(theta)^m exp(-theta d) for every
    theta >= 0.  Summing the even series terms with a = step sqrt(g J) gives
    cosh(a t sqrt(lambda)) exp(-theta d) <= exp(a t sqrt(lambda) - theta d)
    up to constant end factors, so the front d / t is the tightest of these
    cones:

        v_s = a * min over theta > 0 of sqrt(lambda(theta)) / theta.

    The minimiser solves theta sinh(theta) = 6 + 2 cosh(theta).  Its left
    minus right side is -8 at 0 and increasing for theta > 0 (derivative
    theta cosh - sinh > 0), so the root is unique; it is found by bisection
    on [1, 5], where the sign changes.
    """

    def stationarity(theta: float) -> float:
        return theta * math.sinh(theta) - 6.0 - 2.0 * math.cosh(theta)

    lo, hi = 1.0, 5.0
    for _ in range(100):  # far past the float resolution of the bracket
        mid = 0.5 * (lo + hi)
        if stationarity(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    a = math.sqrt(float(step_squared) * g * J)
    return a * math.sqrt(6.0 + 2.0 * math.cosh(theta)) / theta


def exact_line_fit(xs, ys):
    """Slope, intercept, r^2 and rms of the least-squares line y = a x + b.

    Each is the float nearest its exact value for the given float points;
    rms is math.sqrt of the float nearest ss_res / n, and r^2 is 1.0 when
    the ys do not vary.
    """
    n = len(xs)
    x = [Fraction(v) for v in xs]
    y = [Fraction(v) for v in ys]
    mean_x, mean_y = sum(x) / n, sum(y) / n
    sxx = sum((a - mean_x) ** 2 for a in x)
    sxy = sum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((b - slope * a - intercept) ** 2 for a, b in zip(x, y))
    ss_tot = sum((b - mean_y) ** 2 for b in y)
    r_squared = 1.0 if ss_tot == 0 else float(1 - ss_res / ss_tot)
    return float(slope), float(intercept), r_squared, math.sqrt(float(ss_res / n))


def horizon_radius_quadrature(
    D_in: float,
    alpha: float,
    t_i: float,
    t_f: float,
    *,
    g: float,
    J: float,
    step: float,
    convention: str,
) -> float:
    """Integral over [t_i, t_f] of the velocity at D(t) = D_in (1 - alpha t).

    The velocity is step (e / 2) sqrt(b_D g J), with b_D = 4 D (D - 1)
    (axis_pairs) or 8 (D - 1) (degrees), and zero once D < 2 (toy mode; in
    strict mode the caller keeps D(t_f) >= 2).  D is linear in t, so the
    integral is the duration times the mean velocity over the D-interval
    swept.  The mean comes from 20-point Gauss-Legendre panels whose ends are
    spaced geometrically in D - 1: the integrand's branch point at D = 1 then
    sits a full panel width away from every panel, and each panel converges
    to rounding.
    """
    import numpy as np  # here, not at module level: see the module docstring

    if convention == "axis_pairs":
        root_b = lambda D: 2.0 * np.sqrt(D * (D - 1.0))  # noqa: E731
    elif convention == "degrees":
        root_b = lambda D: math.sqrt(8.0) * np.sqrt(D - 1.0)  # noqa: E731
    else:
        raise ValueError(f"unknown convention {convention!r}")
    nodes, weights = np.polynomial.legendre.leggauss(20)
    t_stop = t_f if alpha == 0.0 else min(t_f, (1.0 - 2.0 / D_in) / alpha)
    if t_stop <= t_i:
        return 0.0
    D_hi = D_in * (1.0 - alpha * t_i)
    D_lo = max(D_in * (1.0 - alpha * t_stop), 2.0)
    ends = [D_lo - 1.0]
    while ends[-1] * 2.0 < D_hi - 1.0:
        ends.append(ends[-1] * 2.0)
    ends.append(D_hi - 1.0)
    if ends[-1] <= ends[0]:
        mean = float(root_b(np.array(D_hi)))
    else:
        # Weighted by the panel widths actually summed, so the mean stays a
        # mean of integrand values even when rounding shifts an end.
        total = width = 0.0
        for a, b in zip(ends, ends[1:]):
            half = 0.5 * (b - a)
            D = 1.0 + a + half * (nodes + 1.0)
            total += half * float(weights @ root_b(D))
            width += b - a
        mean = total / width
    return step * (math.e / 2.0) * math.sqrt(g * J) * mean * (t_stop - t_i)


def scalar_evaluate_bound(t, d, couplings, *, source=None, rel_tol=1e-10):
    """The term-by-term loop from n = 0 that `lrbound.evaluate_bound` must equal.

    Bit for bit: one log-term, one math.exp and one math.fsum of the growing
    term list per walk length from n = 0, and a tail certificate at every n
    past the streak; `evaluate_bound` skips the zero terms below 2 d instead.
    Where this loop returns value 0.0 at t > 0, no bound on the positive B,
    `evaluate_bound` refuses.
    log_slope is the running sum of n term_n over that of term_n, 0.0 where
    every term is 0, and math.fsum of n (term_n / partial) where either sum
    passes 1e300.
    """
    from lrcone.lrbound import (
        CONSECUTIVE_SMALL,
        BoundSeriesResult,
        ConvergenceError,
        DpCountSource,
        best_tail_bound,
    )

    if not (t >= 0 and math.isfinite(t)):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    if not 0 < rel_tol < 1:
        raise ValueError(f"rel_tol must be finite and > 0 and < 1, got {rel_tol}")
    if source is None:
        source = DpCountSource()

    terms: list[float] = []
    running = weighted = 0.0  # running sums of term_n and n term_n, for log_slope
    streak = 0
    for n in itertools.count():
        try:
            source.ensure(n, d)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"series for t = {t}, d = {d} not certified before n = {n} "
                f"(rel_tol = {rel_tol}): {exc}"
            ) from None
        log_term = log_series_term(n, source.count(n, d), t, couplings)
        try:
            term = 0.0 if log_term == -math.inf else math.exp(log_term)
            terms.append(term)
            partial = math.fsum(terms)
        except OverflowError:
            break
        running += term
        weighted += n * term
        streak = streak + 1 if term <= rel_tol * partial else 0
        if streak >= CONSECUTIVE_SMALL:
            # tail_bound carries the full 4 |P| |Q| prefactor, so compare it
            # against the prefactored partial sum.
            tail = best_tail_bound(n, t, d, couplings)
            if tail <= rel_tol * couplings.prefactor * partial:
                value = couplings.prefactor * partial
                if not math.isfinite(value):
                    break
                # terms[n] is the term at n; the zero terms change no sum.
                slope = 0.0
                if weighted > 1e300 or running > 1e300:
                    slope = math.fsum([m * (term / partial) for m, term in enumerate(terms)])
                elif running > 0.0:
                    slope = weighted / running
                return BoundSeriesResult(
                    t=t, d=d, value=value, n_truncate=n, tail=tail, log_slope=slope
                )
    raise ConvergenceError(
        f"series for t = {t}, d = {d} exceeds the float range "
        f"(max {sys.float_info.max:.6g}) at n = {n}"
    )


def bisect_arrival_time(d, epsilon, evaluator, *, time_rel_tol=1e-10, max_expansions=80):
    """Plain bisection for the first time B(t, d) reaches epsilon.

    Bracket [0, geodesic_bracket_time], its upper end grown by 1.5 while the
    bound there is below epsilon; then halve until the bracket is narrower
    than time_rel_tol times its upper end and report the midpoint.  Returns
    (time, bound value at that time, evaluations).
    """
    from lrcone.velocity import ThresholdUnreachableError, geodesic_bracket_time

    t_hi = geodesic_bracket_time(d, epsilon, evaluator.couplings)
    evaluations = 1
    value_hi = evaluator.evaluate(t_hi, d).value
    expansions = 0
    while value_hi < epsilon:
        expansions += 1
        if expansions > max_expansions:
            raise ThresholdUnreachableError(f"no time with B(t, {d}) >= {epsilon} up to {t_hi}")
        t_hi *= 1.5
        value_hi = evaluator.evaluate(t_hi, d).value
        evaluations += 1

    t_lo = 0.0
    while t_hi - t_lo > time_rel_tol * t_hi:
        mid = 0.5 * (t_lo + t_hi)
        evaluations += 1
        if evaluator.evaluate(mid, d).value >= epsilon:
            t_hi = mid
        else:
            t_lo = mid
    t_star = 0.5 * (t_lo + t_hi)
    return t_star, evaluator.evaluate(t_star, d).value, evaluations + 1


def log_series_term(n: int, count: int, t: float, couplings) -> float:
    """log of (step t)^n count (gJ)^(n/2) / n!; -inf when the term vanishes."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return -math.inf
    if t == 0.0:
        return 0.0 if n == 0 else -math.inf
    return (
        n * math.log(couplings.step_factor * t)
        + math.log(count)
        + 0.5 * n * math.log(couplings.g * couplings.J)
        - math.lgamma(n + 1)
    )


def tail_bound(n_truncate: int, t: float, d: int, couplings, kappa: float) -> float:
    """Rigorous bound on the series remainder beyond n_truncate, at any kappa > 0.

    4 |P| |Q| exp(kappa (4 - 2 d)) x^(N+1) / (N+1)! / (1 - x / (N+2)) with
    x = step t sqrt(8 g J) exp(kappa); inf when x >= n_truncate + 2 (the
    geometric comparison fails there, so the formula certifies nothing).
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    if n_truncate < 0 or d < 0:
        raise ValueError(f"n_truncate and d must be >= 0, got {n_truncate}, {d}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    x = couplings.step_factor * t * math.sqrt(8.0 * couplings.g * couplings.J) * math.exp(kappa)
    if x >= n_truncate + 2:
        return math.inf
    if x == 0.0:
        return 0.0
    log_tail = (
        math.log(2.0 * couplings.prefactor)
        + kappa * (4.0 - 2.0 * d)
        + (n_truncate + 1) * math.log(x)
        - math.lgamma(n_truncate + 2)
        - math.log1p(-x / (n_truncate + 2))
    )
    if log_tail > 700.0:
        return math.inf
    return math.exp(log_tail)


def extend_walk_counts(counts: list, edge: list, d: int, n_max: int) -> None:
    """Extend `counts` in place to N(n, d), n <= n_max, by the README's sum.

    On the Lieb lattice G' a link -> plaquette -> link step acts on the
    plaquettes as T = 4 I + A_square, and square-lattice walks factor in
    rotated coordinates, so

        N(2m, d) = sum over j < m of C(m-1, j) 4^(m-1-j) r_j,
        r_j      = 2 W_j(d) + W_j(d-1) + W_j(d+1),   W_j(y) = C(j, (j+|y|)/2)^2,

    with W_j(y) = 0 on parity or range failure; odd n gives 0 and
    N(0, d) = [d = 0].  `edge`, kept with `counts`, is the transform's last
    antidiagonal: r_J turns it into edge'[k] = edge'[k-1] + 4 edge[k-1] from
    edge'[0] = r_J, ending in N(2J + 2, d), so no count is computed twice.
    O(m) big-integer additions per length: the program's columns grew so
    before `lrcone.pathcount.grow_walk_counts`, which the tests hold equal
    to it.
    """
    if n_max < 0 or d < 0:
        raise ValueError(f"n_max and d must be >= 0, got n_max = {n_max}, d = {d}")

    def w(j, y):
        y = abs(y)
        return math.comb(j, (j + y) // 2) ** 2 if y <= j and (j + y) % 2 == 0 else 0

    for n in range(len(counts), n_max + 1):
        if n % 2 or n == 0:
            counts.append(int(n == 0 and d == 0))
            continue
        j = len(edge)
        value = 2 * w(j, d) + w(j, d - 1) + w(j, d + 1)  # r_j, then edge'[k + 1]
        for k in range(j):
            edge[k], value = value, value + 4 * edge[k]
        edge.append(value)
        counts.append(value)


def walk_count_column(d: int, n_max: int) -> tuple:
    """N(n, d) for n = 0 .. n_max, equal to `axis_walk_counts` where both are defined."""
    counts: list = []
    extend_walk_counts(counts, [], d, n_max)
    return tuple(counts)


def gross_upper_bound(n: int, d: int, kappa: float) -> float:
    """Crude exponential dominating bound 2 * sqrt(8)^n * exp(kappa*(n - 2d + 4)).

    Valid for every kappa > 0.  Returns inf when the value exceeds float range
    (still a true upper bound).
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    if n < 0 or d < 0:
        raise ValueError(f"n and d must be >= 0, got n = {n}, d = {d}")
    log_value = math.log(2.0) + 0.5 * n * math.log(8.0) + kappa * (n - 2 * d + 4)
    if log_value > 700.0:
        return math.inf
    return math.exp(log_value)


def _comb_or_zero(m: int, doubled_lower: int) -> int:
    """C(m, doubled_lower / 2), zero for half-integer or out-of-range lower index."""
    if doubled_lower % 2:
        return 0
    k = doubled_lower // 2
    if m < 0 or k < 0 or k > m:
        return 0
    return math.comb(m, k)


def literal_closed_form(n: int, d: int) -> int:
    """The paper's binomial sum for the canonical pair count, term by term.

    sum over k = 1 .. ceil((n - d)/2 - 1) of
        C(n-2k, (n-2k-d)/2) * C(n-2k, (n-2k)/2) * C(n, 2k) * 4^(2k)

    with every binomial whose lower index is half-integer or out of range read
    as zero, and an empty summation range read as zero.
    """
    if n < 0 or d < 0:
        raise ValueError(f"n and d must be >= 0, got n = {n}, d = {d}")
    total = 0
    for k in range(1, (n - d - 1) // 2 + 1):  # ceil((n - d)/2 - 1) for integers
        m = n - 2 * k
        total += _comb_or_zero(m, m - d) * _comb_or_zero(m, m) * math.comb(n, 2 * k) * 16**k
    return total
