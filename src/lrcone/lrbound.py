"""Commutator-norm bound series assembled from exact walk counts.

For a pair of link observables separated by d grid steps (canonical
perpendicular family, graph distance 2 d on the decorated graph), the bound is

    B(t, d) = 2 |P| |Q| * sum over n >= 0 of (step * t)^n / n! * a_n,
    a_n     = walks(n, d) * (g J)^(n/2),

where walks(n, d) is the exact count from `pathcount.extend_walk_counts` (the
per-distance closed form on the Lieb lattice, tested against the lattice
dynamic program) and step is the per-step weight factor (sqrt(2) by
default).  Terms are evaluated in log space so that huge integer counts and
large n never overflow, and the series is truncated under a rigorous tail
bound derived from the crude exponential dominating count
2 * sqrt(8)^n * exp(kappa (n - 2 d + 4)):

    tail(N) <= 4 |P| |Q| exp(kappa (4 - 2 d)) * x^(N+1) / (N+1)! * 1 / (1 - x / (N+2)),
    x       = step * t * sqrt(8 g J) * exp(kappa),

valid for every kappa > 0 whenever x < N + 2.  The evaluator certifies the
tail at the single kappa TAIL_KAPPA and stops once five consecutive terms
and that tail are both below rel_tol times the running partial sum; the
count source's hard_n_limit is its only work budget.

The series loop starts at the geodesic length 2 d.  Below it every term is 0
and only adds to the five-term streak, and a tail check passes only on a
tail of 0.0; the tail falls with n, so one tail at 2 d - 1 stands for all
those checks, and only where it is 0.0 does the loop run from n = 0.  Each
length costs O(1) work.  The count source grows each column in place with
its t-independent pieces, math.log of the counts and math.lgamma(n + 1), so
a log-term is four float operations in this order, n log(step t) + log
count + (n/2) log(g J) - lgamma(n + 1), exponentiated with math.exp (np.exp
differs from it in the last bit on a few percent of arguments).  The streak
and tail tests read a running sum of the terms, with a relative margin far
above its rounding; only a test inside the margin falls back to math.fsum of
the terms.  The loop and best_tail_bound compute the tail by one expression,
`_tail`, so the certified tail equals best_tail_bound(n_truncate, ...) bit
for bit.  The value is 2 |P| |Q| times math.fsum of the terms through
n_truncate, so every result equals bit for bit the term-by-term loop's from
n = 0, with an fsum and a tail certificate at every n (kept as
`tests/reference.scalar_evaluate_bound`).
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass

from .couplings import Couplings, NumericalFailure
from .pathcount import extend_walk_counts

# Not used here; perfbench's traced run (--trace 1) patches this attribute.
from .pathcount import axis_walk_counts  # noqa: F401

# The kappa-derivative of log tail(N) is (N + 5 - 2 d) + y / (1 - y) with
# y = x / (N + 2) in (0, 1).  A tail is accepted once it is <= rel_tol times
# the prefactored partial sum.  Once that sum is positive, N >= 2 d, the tail
# rises with kappa, and its smallest kappa gives the tightest certificate.
# Before that the sum is 0 and only a tail that underflows to 0.0 passes (the
# series then runs from n = 0, not from 2 d): evaluate_bound(1e-5, 40,
# Couplings(0.5, 0.5)) returns value 0.0 and tail 0.0 at n_truncate 53,
# which is no upper bound on the positive B.  Any small positive value is
# valid; every certified tail in the artifacts and regression values is
# computed at this one.
TAIL_KAPPA = 1e-3

# The five-term streak of small terms that precedes every tail check.
CONSECUTIVE_SMALL = 5

# Lengths a series' column is grown past the one it asked for.
COLUMN_STEP = 16

# A running sum of m nonnegative terms is within m * 2^-53 (relative) of
# their exact sum, far inside _MARGIN for any column the count source can
# build.  Outside [_TINY, _HUGE] a product loses relative precision
# (subnormals) or the exact sum may leave the float range, so the tests
# there take math.fsum.
_MARGIN = 1e-9
_TINY = 1e-290
_HUGE = 1e300


class ConvergenceError(NumericalFailure):
    """The truncated series could not be certified within the term budget."""


def _equal_to(k: int) -> str:
    """The text "= k" for a message, or "> 2**64" / "< -2**64" beyond those:
    an int of more than 4300 digits does not convert to a decimal string."""
    if -(2**64) < k < 2**64:
        return f"= {k}"
    return "> 2**64" if k > 0 else "< -2**64"


def _tail_pieces(t: float, d: int, couplings: Couplings) -> tuple[float, float, float]:
    """x, log x and the n-free part of log tail(N), all at TAIL_KAPPA."""
    x = couplings.step_factor * t * math.sqrt(8.0 * couplings.g * couplings.J) * math.exp(TAIL_KAPPA)
    log_x = math.log(x) if x > 0.0 else -math.inf
    return x, log_x, math.log(2.0 * couplings.prefactor) + TAIL_KAPPA * (4.0 - 2.0 * d)


def _tail(n: int, x: float, log_x: float, log_base: float, log_factorial_n1: float) -> float:
    """tail(n) from _tail_pieces and lgamma(n + 2); inf once x >= n + 2."""
    if x >= n + 2:
        return math.inf
    if x == 0.0:
        return 0.0
    log_tail = log_base + (n + 1) * log_x - log_factorial_n1 - math.log1p(-x / (n + 2))
    if log_tail > 700.0:
        return math.inf
    return math.exp(log_tail)


def best_tail_bound(n_truncate: int, t: float, d: int, couplings: Couplings) -> float:
    """The certified tail beyond n_truncate: the tail formula at TAIL_KAPPA.

    No larger kappa certifies less once n_truncate >= 2 d - 5.  Returns inf
    when x >= n_truncate + 2 (the geometric comparison fails there, so the
    formula certifies nothing).
    """
    if n_truncate < 0 or d < 0:
        raise ValueError(
            f"n_truncate and d must be >= 0, got n_truncate {_equal_to(n_truncate)}, "
            f"d {_equal_to(d)}"
        )
    # An exact int comparison, before 2.0 * d or lgamma(n_truncate + 2) can overflow.
    if n_truncate > _HUGE or d > _HUGE:
        raise ValueError(f"n_truncate and d must be <= {_HUGE:g}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return _tail(n_truncate, *_tail_pieces(t, d, couplings), math.lgamma(n_truncate + 2))


# ---------------------------------------------------------------------------
# Count source.
# ---------------------------------------------------------------------------


class DpCountSource:
    """Exact walk counts, one closed-form column per distance, grown in place.

    `ensure` raises `n_max`, the walk length every count is served to, to the
    length asked for, up to `hard_n_limit`, the work budget of every series
    evaluated from this source.  Each column and math.log of its counts grow
    by `extend_walk_counts` only to the lengths read.  The name dates from the
    grid dynamic program, now `pathcount.axis_walk_counts`, the tests' oracle
    for these columns.
    """

    def __init__(self, n_max: int = 64, *, hard_n_limit: int = 8192) -> None:
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        self.hard_n_limit = hard_n_limit
        self._n_max = n_max
        # d -> (counts, antidiagonal edge, math.log of the counts read so far)
        self._columns: dict[int, tuple[list[int], list[int], array]] = {}
        self._log_factorial = array("d")

    @property
    def n_max(self) -> int:
        return self._n_max

    def ensure(self, n: int, d: int) -> None:
        needed = max(n, 2 * d)
        if needed > self.hard_n_limit:
            raise ConvergenceError(
                f"count table would need n_max {_equal_to(needed)} > hard limit "
                f"{self.hard_n_limit}"
            )
        self._n_max = max(self._n_max, needed)

    def _column(self, n: int, d: int, reach: int) -> tuple[list[int], list[int], array]:
        if not (0 <= n <= self._n_max):
            raise ValueError(f"n = {n} outside the computed range [0, {self._n_max}]")
        column = self._columns.get(d)
        if column is None:
            column = self._columns[d] = ([], [], array("d"))
        if n >= len(column[0]):
            extend_walk_counts(column[0], column[1], d, reach)
        return column

    def count(self, n: int, d: int) -> int:
        return self._column(n, d, n)[0][n]

    def log_column(self, n: int, d: int) -> tuple[array, array]:
        """The column for d, covering at least length n, as its log pieces.

        math.log of each count (-inf where 0) and math.lgamma(m + 1) for m up
        to one past the column's last length.  A column too short for n grows
        COLUMN_STEP past it, within hard_n_limit, and n_max with it.
        """
        reach = max(n, min(n + COLUMN_STEP, self.hard_n_limit))
        counts, _, log_counts = self._column(n, d, reach)
        self._n_max = max(self._n_max, len(counts) - 1)
        log_counts.extend(math.log(c) if c else -math.inf for c in counts[len(log_counts) :])
        log_factorial = self._log_factorial
        log_factorial.extend(math.lgamma(m + 1) for m in range(len(log_factorial), len(counts) + 1))
        return log_counts, log_factorial


# ---------------------------------------------------------------------------
# Series evaluation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundSeriesResult:
    """One evaluation of B(t, d) with its truncation certificate."""

    t: float
    d: int
    value: float
    n_truncate: int
    tail: float


def evaluate_bound(
    t: float,
    d: int,
    couplings: Couplings,
    *,
    source=None,
    rel_tol: float = 1e-10,
) -> BoundSeriesResult:
    """Evaluate the bound series at one (t, d) with certified truncation.

    Stops at the first n where the last CONSECUTIVE_SMALL terms are each
    <= rel_tol times the running partial sum and the certified tail is too.
    The terms start at the geodesic length 2 d (module docstring), and the
    result is the term-by-term loop's from n = 0 bit for bit.
    Raises ConvergenceError once the count source refuses to grow (its
    hard_n_limit), or once a term or the prefactored partial sum leaves the
    float range.
    """
    if not (t >= 0 and math.isfinite(t)):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    step_t = couplings.step_factor * t
    if t > 0.0 and step_t == 0.0:
        raise ValueError(
            f"step_factor * t underflows to 0 at t = {t}, step_factor = {couplings.step_factor}"
        )
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    if not 0 < rel_tol < 1:
        raise ValueError(f"rel_tol must be finite and > 0 and < 1, got {rel_tol}")
    if source is None:
        source = DpCountSource()
    # The work budget sees d before any float arithmetic on it.
    n = 0
    _ensure(source, n, t, d, rel_tol)

    prefactor = couplings.prefactor
    rel_bound = rel_tol * prefactor
    x, log_x, log_tail_base = _tail_pieces(t, d, couplings)
    log_step_t = math.log(step_t) if t > 0.0 else -math.inf  # unused at t = 0
    log_gj = math.log(couplings.g * couplings.J)
    terms: list[float] = []  # the nonzero-count terms; the zeros add nothing to a sum
    running = 0.0
    # Skip the zero terms below 2 d (module docstring); a refusal still names n = 0.
    start = streak = 0
    if t > 0.0 and d > 0:
        if _tail(2 * d - 1, x, log_x, log_tail_base, math.lgamma(2 * d + 1)) > 0.0:
            start = streak = 2 * d
    while True:
        n = max(n, start)
        log_counts, log_factorial = source.log_column(n, d)
        for n in range(n, len(log_counts)):
            term = 0.0
            if log_counts[n] != -math.inf:
                if t == 0.0:
                    term = 1.0 if n == 0 else 0.0
                else:
                    log_term = n * log_step_t + log_counts[n] + 0.5 * n * log_gj - log_factorial[n]
                    try:
                        term = math.exp(log_term)
                    except OverflowError:
                        raise _float_range_error(t, d, n) from None
                terms.append(term)
                running += term
            # Streak test, term <= rel_tol * partial sum.
            if term != 0.0:
                scaled = rel_tol * running
                if (
                    _TINY <= scaled <= _HUGE
                    and running <= _HUGE
                    and not scaled * (1.0 - _MARGIN) < term <= scaled * (1.0 + _MARGIN)
                ):
                    small = term <= scaled
                else:
                    try:
                        small = term <= rel_tol * math.fsum(terms)
                    except OverflowError:
                        raise _float_range_error(t, d, n) from None
                if not small:
                    streak = 0
                    continue
            streak += 1
            if streak < CONSECUTIVE_SMALL:
                continue
            # Tail test, tail <= rel_tol * prefactor * partial sum; a tail
            # clear of the running bound fails, any other is tried exactly.
            tail = _tail(n, x, log_x, log_tail_base, log_factorial[n + 1])
            bound = rel_bound * running
            if bound <= _HUGE and tail > max(bound, _TINY) * (1.0 + _MARGIN):
                continue
            partial = math.fsum(terms)
            if tail <= rel_bound * partial:
                value = prefactor * partial
                if not math.isfinite(value):
                    raise _float_range_error(t, d, n)
                return BoundSeriesResult(t=t, d=d, value=value, n_truncate=n, tail=tail)
        n = len(log_counts)
        _ensure(source, n, t, d, rel_tol)


def _ensure(source, n: int, t: float, d: int, rel_tol: float) -> None:
    """source.ensure(n, d), its refusal naming the series."""
    try:
        source.ensure(n, d)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"series for t = {t}, d {_equal_to(d)} not certified before n = {n} "
            f"(rel_tol = {rel_tol}): {exc}"
        ) from None


def _float_range_error(t: float, d: int, n: int) -> ConvergenceError:
    return ConvergenceError(
        f"series for t = {t}, d = {d} exceeds the float range "
        f"(max {sys.float_info.max:.6g}) at n = {n}"
    )


class BoundEvaluator:
    """Reusable evaluator sharing one count source across many (t, d) calls.

    `evaluations` counts the evaluate calls made so far.
    """

    def __init__(self, couplings: Couplings, *, source=None, rel_tol: float = 1e-10) -> None:
        self.couplings = couplings
        self.source = source if source is not None else DpCountSource()
        self.rel_tol = rel_tol
        self.evaluations = 0

    def evaluate(self, t: float, d: int) -> BoundSeriesResult:
        self.evaluations += 1
        return evaluate_bound(t, d, self.couplings, source=self.source, rel_tol=self.rel_tol)
