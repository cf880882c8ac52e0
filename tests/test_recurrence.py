"""The count columns' order-3 recurrence and seeds, proved for every distance.

`lrcone.pathcount.grow_walk_counts` extends each column N(2m, d) by

    sum over k = 0..3 of p_k(m, d) N(2m + 2k, d) = 0,

with the polynomials p_k assembled, as the grower assembles them, from the
factors c, q_1 and q_2 of `pathcount._RECURRENCE`:

    p_0 = -128 m (m+1)^2 (m+2) c(m+1),  p_1 = -16 (m+1)(m+2) q_1(m),
    p_2 = 4 (m+2) q_2(m),                p_3 = ((m+3)^2 - d^2)^2 c(m).

The proof is
Zeilberger's creative telescoping (Petkovsek, Wilf and Zeilberger, "A = B",
1996) on the hypergeometric sum N(2m, d) = sum over i >= 0 of H(m, i),

    H(m, i) = 2 4^(m-1-j) C(m, j) C(j, i)^2 (m j + d^2) / (m j),   j = d + 2 i,

which is the README's sum with its j and j - 1 terms merged
(`test_merged_sum_is_the_readme_sum_term_by_term`).  For d >= 1, m >= 1 and
every integer i >= 0, reading 1/n! as 0 for n < 0, put

    T(m, i) = 2 4^(m-1-j) (m-1)! C(j, i)^2 / (j! (m+3-j)! j).

Then, as numbers,

    H(m + k, i) = T(m, i) a_k(m, i),
    a_k         = 4^k m (m+1) .. (m+k-1) (m+k+1-j) .. (m+3-j) ((m+k) j + d^2),
    T(m, i + 1) = T(m, i) (m+3-j)(m+2-j) j (j+1) / (16 (i+1)^2 (d+i+1)^2),

(`test_hypergeometric_ratios`) and the certificate is G(m, i) = T(m, i)
B(m, i, d) with the polynomial B of `certificate`; in the usual form
G = R H, R = B / ((m+1-j)(m+2-j)(m+3-j)(m j + d^2)), but T B stays defined
where H vanishes.  The polynomial identity

    16 (i+1)^2 (d+i+1)^2 (sum_k p_k a_k + B(m, i, d))
        = (m+3-j)(m+2-j) j (j+1) B(m, i+1, d)

(`test_certificate_identity_for_every_positive_d`, exact, in m, i and d as
indeterminates) multiplied by T(m, i) / (16 (i+1)^2 (d+i+1)^2) gives
sum_k p_k H(m + k, i) = G(m, i + 1) - G(m, i) for every i >= 0.  Summed over
i = 0 .. I, with j > m + 3 at i = I + 1, it telescopes to G(m, I + 1) -
G(m, 0).  Both boundary terms vanish (`test_boundary_terms_vanish`):
B(m, 0, d) is the zero polynomial, and T(m, i) = 0 once j > m + 3.  So the
recurrence holds for every m >= 1 and d >= 1.  d = 0, where H is 0/0 at
j = 0, has its own base term and certificate
(`test_certificate_identity_at_d_zero`), and m = d = 0, the grower's first
step there, is checked directly.  The grower divides by p_3(m, d) with
m >= d, and every coefficient of p_3(d + s, d) is positive
(`test_leading_polynomial_is_positive_from_the_geodesic`).  The grower's
closed-form seeds N(2d, d), N(2d + 2, d) and N(2d + 4, d) are the sum's one-
and two-term cases, checked as identities in d
(`test_seeds_are_the_merged_sum_for_every_d`).

Only int and Fraction arithmetic, with a small polynomial class of its own.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcone.pathcount import _RECURRENCE, grow_walk_counts

from reference import extend_walk_counts, walk_count_column


class Poly:
    """A polynomial in (m, i, d) with int coefficients, keyed by exponents."""

    def __init__(self, terms):
        self.terms = {e: c for e, c in terms.items() if c}

    @staticmethod
    def lift(x):
        return x if isinstance(x, Poly) else Poly({(0, 0, 0): x})

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in Poly.lift(other).terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -Poly.lift(other)

    def __rsub__(self, other):
        return Poly.lift(other) + -self

    def __mul__(self, other):
        terms = {}
        for (a, b, c), x in self.terms.items():
            for (a2, b2, c2), y in Poly.lift(other).terms.items():
                e = (a + a2, b + b2, c + c2)
                terms[e] = terms.get(e, 0) + x * y
        return Poly(terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = Poly.lift(1)
        for _ in range(n):
            out = out * self
        return out

    def shift_i(self):
        """The polynomial with i replaced by i + 1."""
        out = Poly({})
        for (a, b, c), x in self.terms.items():
            out = out + Poly({(a, t, c): x * math.comb(b, t) for t in range(b + 1)})
        return out

    def is_zero(self):
        return not self.terms


M, I, D = Poly({(1, 0, 0): 1}), Poly({(0, 1, 0): 1}), Poly({(0, 0, 1): 1})


def factor(rows, m, d):
    """One factor of the program's table at (m, d), ints or polynomials."""
    value = 0
    for row in rows:  # highest power of m first
        inner = 0
        for c in reversed(row):
            inner = inner * d * d + c
        value = value * m + inner
    return value


def c_factor(m, d):
    return factor(_RECURRENCE[:4], m, d)


def p(k, m, d):
    """p_k(m, d) assembled from the program's factor table."""
    if k == 0:
        return -128 * m * (m + 1) ** 2 * (m + 2) * c_factor(m + 1, d)
    if k == 1:
        return -16 * (m + 1) * (m + 2) * factor(_RECURRENCE[4:10], m, d)
    if k == 2:
        return 4 * (m + 2) * factor(_RECURRENCE[10:], m, d)
    return ((m + 3) ** 2 - d * d) ** 2 * c_factor(m, d)


def a(k, m, i, d):
    """a_k(m, i) = H(m + k, i) / T(m, i), d >= 1."""
    j = d + 2 * i
    value = 4**k * ((m + k) * j + d * d)
    for l in range(k):
        value = value * (m + l)
    for l in range(k + 1, 4):
        value = value * (m + l - j)
    return value


def a_d0(k, m, i):
    """a_k(m, i) = H_0(m + k, i) / T_0(m, i) at d = 0."""
    j = 2 * i
    value = 4**k
    for l in range(1, k + 1):
        value = value * (m + l)
    for l in range(k + 1, 4):
        value = value * (m + l - j)
    return value


def certificate(m, i, d):
    """B(m, i, d), the polynomial part of the certificate G = T B, d >= 1."""
    c = 4 * d**4 * m + 6 * d**4 + 6 * d**2 * m**2 + 29 * d**2 * m + 33 * d**2 + (m + 3) ** 3
    q = (
        2 * i * m * c
        + d**6 * (4 * m + 2)
        + d**5 * 2 * m * (2 * m + 3)
        + d**4 * (14 * m**2 + 47 * m + 28)
        + d**3 * m * (6 * m**2 + 29 * m + 33)
        + d**2 * (7 * m**3 + 52 * m**2 + 126 * m + 98)
        + d * m * (m + 3) ** 3
        + 3 * m**3
        + 26 * m**2
        + 75 * m
        + 72
    )
    return -1024 * i**2 * (d + i) ** 2 * m * (m + 1) * (m + 2) * q


def certificate_d0(m, i):
    """B_0(m, i), the polynomial part of the certificate G_0 = T_0 B_0 at d = 0."""
    return -512 * i**3 * (m + 1) * (m + 2) * (m + 3) ** 2 * (2 * i * m**2 + 6 * i * m + 3 * m + 8)


def hypergeometric_term(m, i, d):
    """H(m, i), the summand of N(2m, d) for m >= 1; H_0 at d = 0."""
    j = d + 2 * i
    if j > m:
        return Fraction(0)
    value = Fraction(2 * math.comb(m, j) * math.comb(j, i) ** 2) * Fraction(4) ** (m - 1 - j)
    return value * Fraction(m * j + d * d, m * j) if d else value


def base_term(m, i, d):
    """T(m, i) for d >= 1, T_0(m, i) at d = 0; m >= 1, 1/n! read as 0 for n < 0."""
    j = d + 2 * i
    if j > m + 3:
        return Fraction(0)
    value = Fraction(2 * math.comb(j, i) ** 2, math.factorial(j) * math.factorial(m + 3 - j))
    value *= Fraction(4) ** (m - 1 - j)
    return value * Fraction(math.factorial(m - 1), j) if d else value * math.factorial(m)


def test_certificate_identity_for_every_positive_d():
    j = D + 2 * I
    lhs = 16 * (I + 1) ** 2 * (D + I + 1) ** 2 * (
        sum(p(k, M, D) * a(k, M, I, D) for k in range(4)) + certificate(M, I, D)
    )
    rhs = (M + 3 - j) * (M + 2 - j) * j * (j + 1) * certificate(M, I, D).shift_i()
    assert not lhs.is_zero()
    assert (lhs - rhs).is_zero()


def test_certificate_identity_at_d_zero():
    # H_0(m, i) = 2 4^(m-1-j) C(m, j) C(j, i)^2, j = 2 i, for m >= 1, with
    # T_0 = 2 4^(m-1-j) m! C(j, i)^2 / (j! (m+3-j)!): H_0(m + k, i) = T_0 a0_k
    # and T_0(m, i + 1) = T_0(m, i) (m+3-j)(m+2-j)(j+1)(j+2) / (16 (i+1)^4).
    j = 2 * I
    lhs = 16 * (I + 1) ** 4 * (
        sum(p(k, M, 0) * a_d0(k, M, I) for k in range(4)) + certificate_d0(M, I)
    )
    rhs = (M + 3 - j) * (M + 2 - j) * (j + 1) * (j + 2) * certificate_d0(M, I).shift_i()
    assert not lhs.is_zero()
    assert (lhs - rhs).is_zero()
    # m = 0, the grower's first step at d = 0, outside the sum's range m >= 1.
    column = walk_count_column(0, 6)
    assert column[::2] == (1, 2, 10, 56)
    assert sum(p(k, 0, 0) * column[2 * k] for k in range(4)) == 0


def test_boundary_terms_vanish():
    # Lower: G(m, 0) = T(m, 0) B(m, 0, d), and B(m, 0, d) = 0 identically.
    assert all(b >= 2 for _, b, _ in certificate(M, I, D).terms)
    assert all(b >= 3 for _, b, _ in certificate_d0(M, I).terms)
    # Upper: past the support j <= m + 3 the base term is 0, so G is too;
    # the telescoped terms summed over the support give the recurrence.
    for d in (0, 1, 2, 5, 11):
        for m in range(1, 3 * d + 12):
            top = (m + 3 - d) // 2 + 1  # the first i with j > m + 3
            assert base_term(m, top, d) == 0
            assert all(hypergeometric_term(m + k, top, d) == 0 for k in range(4))
            telescoped = sum(
                p(k, m, d) * hypergeometric_term(m + k, i, d) for k in range(4) for i in range(top)
            )
            assert telescoped == 0, (m, d)


def test_hypergeometric_ratios():
    # The factorial identities the certificate identities rest on, over and
    # past the support, on a grid: H(m + k, i) = T a_k and T's i-ratio.
    for d in range(9):
        for m in range(1, 2 * d + 14):
            for i in range(max(0, (m + 3 - d) // 2) + 3):
                j = d + 2 * i
                t = base_term(m, i, d)
                for k in range(4):
                    a_k = a(k, m, i, d) if d else a_d0(k, m, i)
                    assert hypergeometric_term(m + k, i, d) == t * a_k, (m, i, d, k)
                if d:
                    top, bottom = j * (j + 1), (i + 1) ** 2 * (d + i + 1) ** 2
                else:
                    top, bottom = (j + 1) * (j + 2), (i + 1) ** 4
                ratio = Fraction((m + 3 - j) * (m + 2 - j) * top, 16 * bottom)
                assert base_term(m, i + 1, d) == t * ratio, (m, i, d)


def test_merged_sum_is_the_readme_sum_term_by_term():
    # C(m-1, j) 4^(m-1-j) 2 W_j(d) + C(m-1, j-1) 4^(m-j) (W_{j-1}(d-1) + W_{j-1}(d+1))
    # over C(m, j) C(j, i)^2 4^(m-1-j) / (m j), with C(m-1, j) = C(m, j)(m-j)/m,
    # C(m-1, j-1) = C(m, j) j/m, C(j-1, i) = C(j, i)(d+i)/j, C(j-1, i-1) = C(j, i) i/j:
    j = D + 2 * I
    merged = 2 * (M - j) * j + 4 * ((D + I) ** 2 + I**2)
    assert (merged - 2 * (M * j + D * D)).is_zero()
    for d in range(40):
        column = walk_count_column(d, 2 * d + 120)
        merged = [
            sum(hypergeometric_term(m, i, d) for i in range((m - d) // 2 + 1))  # j <= m
            for m in range(1, d + 61)
        ]
        assert merged == list(column[2::2])


def merged_term_at(s, i):
    """H(d + s, i) as (numerator, denominator) polynomials in d, for d >= 1.

    C(d + s, j) = (d + 2i + 1) .. (d + s) / (s - 2i)! and
    C(j, i) = (d + i + 1) .. (d + 2i) / i!, with j = d + 2i <= d + s.
    """
    j = D + 2 * i
    scale = Fraction(2 * 4 ** (s - 2 * i), 4 * math.factorial(s - 2 * i) * math.factorial(i) ** 2)
    numerator = Poly.lift(scale)
    for l in range(2 * i + 1, s + 1):
        numerator = numerator * (D + l)
    for l in range(i + 1, 2 * i + 1):
        numerator = numerator * (D + l) ** 2
    return numerator * ((D + s) * j + D * D), (D + s) * j


def test_seeds_are_the_merged_sum_for_every_d():
    # The grower's N(2d, d), N(2d + 2, d) and N(2d + 4, d) are the merged sum
    # at m = d + s, s = 0, 1, 2, whose terms i <= s / 2 are rational in d:
    # cleared of their denominators, exact identities in d, so for every
    # d >= 1.  d = 0, where H is 0/0 at j = 0, is checked directly.
    seeds = (Poly.lift(1), 2 * (2 * D + 1), 9 * D * D + 18 * D + 10)
    for s, seed in enumerate(seeds):
        terms = [merged_term_at(s, i) for i in range(s // 2 + 1)]
        common = Poly.lift(1)
        for _, denominator in terms:
            common = common * denominator
        total = Poly({})
        for k, (numerator, _) in enumerate(terms):
            for l, (_, denominator) in enumerate(terms):
                if l != k:
                    numerator = numerator * denominator
            total = total + numerator
        assert (seed * common - total).is_zero(), s
    assert walk_count_column(0, 4)[::2] == (1, 2, 10)
    # The grower's seeds are these closed forms.
    for d in (0, 1, 2, 7, 40, 394):
        counts = []
        grow_walk_counts(counts, d, 2 * d + 4)
        assert counts[2 * d :: 2] == [1, 2 * (2 * d + 1), 9 * d * d + 18 * d + 10]


def test_leading_polynomial_is_positive_from_the_geodesic():
    # p_3(d + s, d) = (s + 3)^2 (2d + s + 3)^2 c(d + s, d) as a polynomial
    # in s and d: every coefficient positive, the constant term included, so
    # p_3(m, d) > 0 for every m >= d >= 0.
    shifted = p(3, D + I, D)  # I stands for s
    assert (shifted - (I + 3) ** 2 * (2 * D + I + 3) ** 2 * c_factor(D + I, D)).is_zero()
    assert shifted.terms[(0, 0, 0)] > 0
    assert all(c > 0 for c in shifted.terms.values())


def test_recurrence_table_shape():
    # c, q_1 and q_2: 4 + 6 + 7 rows (degree 3, 5 and 6 in m), at most 4
    # columns (degree 6 in d), 47 nonzero coefficients of at most 12 bits.
    coefficients = [c for row in _RECURRENCE for c in row]
    assert len(_RECURRENCE) == 17
    assert max(len(row) for row in _RECURRENCE) == 4
    assert sum(1 for c in coefficients if c) == 47
    assert max(abs(c).bit_length() for c in coefficients) == 12
    # The README's factors are the table's.
    c = (M + 2) ** 3 + D * D * (M + 2) * (6 * M + 5) + 2 * D**4 * (2 * M + 1)
    q1 = (
        4 * D**6 * (2 * M + 1)
        - 2 * D**4 * (10 * M**3 + 45 * M**2 + 61 * M + 23)
        - D * D * (30 * M**4 + 239 * M**3 + 685 * M**2 + 827 * M + 338)
        - (M + 3) ** 2 * (5 * M**3 + 29 * M**2 + 53 * M + 32)
    )
    q2 = (
        2 * D**6 * (8 * M**2 + 28 * M + 13)
        - 2 * D**4 * (8 * M**4 + 56 * M**3 + 132 * M**2 + 113 * M + 16)
        - D * D * (24 * M**5 + 262 * M**4 + 1112 * M**3 + 2267 * M**2 + 2170 * M + 742)
        - (M + 2) ** 2 * (M + 3) ** 2 * (4 * M**2 + 18 * M + 19)
    )
    assert (c - c_factor(M, D)).is_zero()
    assert (q1 - factor(_RECURRENCE[4:10], M, D)).is_zero()
    assert (q2 - factor(_RECURRENCE[10:], M, D)).is_zero()


@given(d=st.integers(0, 60), n=st.integers(0, 300))
@settings(max_examples=30, deadline=None)
def test_grower_equals_the_oracle(d, n):
    counts = []
    grow_walk_counts(counts, d, n)
    assert tuple(counts) == walk_count_column(d, n)


@given(d=st.integers(0, 200), lengths=st.lists(st.integers(0, 400), min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_grow_walk_counts_in_place_equals_one_build(d, lengths):
    # Repeated and shorter lengths included: a shorter request changes nothing.
    full = walk_count_column(d, max(lengths))
    counts = []
    for k, n in enumerate(lengths):
        grow_walk_counts(counts, d, n)
        assert tuple(counts) == full[: max(lengths[: k + 1]) + 1]


def test_grower_remainder_raises():
    # The exact division is the one runtime tripwire: a wrong count below
    # makes some later step leave a remainder.
    counts = list(walk_count_column(4, 2 * 4 + 4))
    counts[-1] += 1
    with pytest.raises(ArithmeticError, match="remainder"):
        grow_walk_counts(counts, 4, 200)


def test_grower_validation():
    with pytest.raises(ValueError):
        grow_walk_counts([], -1, 4)
    with pytest.raises(ValueError):
        grow_walk_counts([], 0, -1)


def test_grower_equals_the_oracle_in_the_far_window():
    # The far window (d = 90..394) reads columns past the hypothesis tests'
    # d <= 200 and the slow gate's d <= 60, to lengths of about 1000.
    for d in (100, 255, 394):
        counts = []
        grow_walk_counts(counts, d, 1200)
        oracle = []
        extend_walk_counts(oracle, [], d, 1200)
        assert counts == oracle, d


@pytest.mark.slow
def test_grower_equals_the_oracle_to_n_1200():
    # The gate for serving certificates from the recurrence: d <= 60, n <= 1200.
    for d in range(61):
        counts = []
        grow_walk_counts(counts, d, 1200)
        oracle = []
        extend_walk_counts(oracle, [], d, 1200)
        assert counts == oracle, d
