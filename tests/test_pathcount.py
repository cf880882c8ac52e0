"""Walk counting: dynamic program, fast grid path, closed forms, crude bound.

The independent oracle here is explicit walk enumeration (recursion over
neighbor lists), which shares no code with the numpy gather-and-sum dynamic
program; the dynamic program in turn is the oracle for the per-distance
closed-form columns the bound series uses.
"""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcone.lattice import LatticeSpec, build_decorated_lattice, graph_distance
from lrcone.pathcount import (
    AxisWalkCounts,
    ExtentGuardError,
    axis_walk_counts,
    centered_axis_link,
    check_extent_guard,
    compare_closed_form,
    count_walks_closed_form,
    count_walks_dp,
    extend_walk_counts,
    fidelity_report,
    gross_upper_bound,
    perpendicular_target,
    walk_count_column,
)


@pytest.fixture(scope="module")
def lattice_2d():
    return build_decorated_lattice(LatticeSpec(dimension=2, extent=12, boundary="periodic"))


@pytest.fixture(scope="module")
def table_2d(lattice_2d):
    return count_walks_dp(lattice_2d, centered_axis_link(lattice_2d), 10)


def enumerate_walk_endpoints(lattice, origin, n):
    """Every walk of length n, built one explicit step at a time."""
    endpoints = Counter()

    def extend(vertex, remaining):
        if remaining == 0:
            endpoints[vertex] += 1
            return
        for w in lattice.neighbors[vertex]:
            extend(w, remaining - 1)

    extend(origin, n)
    return endpoints


# ---------------------------------------------------------------------------
# Dynamic program against explicit enumeration.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(7))
def test_dp_matches_explicit_enumeration(lattice_2d, table_2d, n):
    expected = enumerate_walk_endpoints(lattice_2d, centered_axis_link(lattice_2d), n)
    for v in range(lattice_2d.n_vertices):
        assert table_2d.count(n, v) == expected[v]


def test_dp_matches_frontier_recurrence_longer(lattice_2d, table_2d):
    # Independent pure-python frontier propagation for n beyond DFS reach.
    frontier = Counter({centered_axis_link(lattice_2d): 1})
    for n in range(1, 11):
        nxt = Counter()
        for v, c in frontier.items():
            for w in lattice_2d.neighbors[v]:
                nxt[w] += c
        frontier = nxt
        for v, c in frontier.items():
            assert table_2d.count(n, v) == c
        assert sum(frontier.values()) == table_2d.layer_totals[n]


def test_stored_layers_satisfy_neighbor_recurrence(lattice_2d, table_2d):
    for n in range(10):
        for v in range(0, lattice_2d.n_vertices, 37):
            neighbor_sum = sum(table_2d.count(n, u) for u in lattice_2d.neighbors[v])
            assert table_2d.count(n + 1, v) == neighbor_sum


# ---------------------------------------------------------------------------
# Frozen values for the canonical pair family (verified by enumeration above).
# ---------------------------------------------------------------------------

CANONICAL_SERIES = {
    # d: counts for n = 0..9 from the canonical link origin
    0: (1, 0, 2, 0, 10, 0, 56, 0, 338, 0),
    1: (0, 0, 1, 0, 6, 0, 37, 0, 238, 0),
    2: (0, 0, 0, 0, 1, 0, 10, 0, 82, 0),
    3: (0, 0, 0, 0, 0, 0, 1, 0, 14, 0),
    4: (0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
}


@pytest.mark.parametrize("d", sorted(CANONICAL_SERIES))
def test_canonical_series_frozen_values(lattice_2d, table_2d, d):
    q = perpendicular_target(lattice_2d, d)
    assert tuple(table_2d.count(n, q) for n in range(10)) == CANONICAL_SERIES[d]


def test_layer_totals_double_then_quadruple(table_2d):
    # Link vertices branch to 2 plaquettes, plaquettes to 4 links.
    for n, total in enumerate(table_2d.layer_totals):
        assert total == 2 ** math.ceil(n / 2) * 4 ** (n // 2)


def test_geodesic_walk_is_unique(lattice_2d, table_2d):
    for d in range(1, 5):
        q = perpendicular_target(lattice_2d, d)
        assert graph_distance(lattice_2d, centered_axis_link(lattice_2d), q) == 2 * d
        assert table_2d.count(2 * d, q) == 1


def test_counts_vanish_below_distance_and_off_parity(lattice_2d, table_2d):
    P = centered_axis_link(lattice_2d)
    for v in range(0, lattice_2d.n_vertices, 11):
        dist = graph_distance(lattice_2d, P, v)
        for n in range(11):
            if n < dist or (n - dist) % 2:
                assert table_2d.count(n, v) == 0
            elif n == dist:
                assert table_2d.count(n, v) >= 1


def test_three_dimensional_totals_follow_branching(tmp_path):
    spec = LatticeSpec(dimension=3, extent=8, boundary="periodic")
    lat = build_decorated_lattice(spec)
    table = count_walks_dp(lat, centered_axis_link(lat), 6, targets=[centered_axis_link(lat)])
    # From a link: 2(D-1) plaquettes; from a plaquette: 4 links.
    for n, total in enumerate(table.layer_totals):
        assert total == 4 ** math.ceil(n / 2) * 4 ** (n // 2)


# ---------------------------------------------------------------------------
# Storage modes, guards, argument validation.
# ---------------------------------------------------------------------------


def test_targets_mode_matches_full_store(lattice_2d, table_2d):
    P = centered_axis_link(lattice_2d)
    qs = [perpendicular_target(lattice_2d, d) for d in range(4)]
    sparse = count_walks_dp(lattice_2d, P, 10, targets=qs)
    for q in qs:
        for n in range(11):
            assert sparse.count(n, q) == table_2d.count(n, q)
    assert sparse.layer_totals == table_2d.layer_totals
    unretained = next(v for v in range(lattice_2d.n_vertices) if v not in set(qs))
    with pytest.raises(KeyError, match="retained"):
        sparse.count(2, unretained)


def test_full_store_respects_entry_cap(lattice_2d):
    with pytest.raises(ValueError, match="cap"):
        count_walks_dp(lattice_2d, centered_axis_link(lattice_2d), 10, max_stored_entries=10)


def test_origin_must_be_link_vertex(lattice_2d):
    plaquette = lattice_2d.n_links  # first plaquette id
    with pytest.raises(ValueError, match="link-vertex"):
        count_walks_dp(lattice_2d, plaquette, 2)


def test_extent_guard_periodic():
    lat = build_decorated_lattice(LatticeSpec(dimension=2, extent=6, boundary="periodic"))
    check_extent_guard(lat, centered_axis_link(lat), 5)
    with pytest.raises(ExtentGuardError, match="L = 6"):
        count_walks_dp(lat, centered_axis_link(lat), 6)


def test_extent_guard_open_depends_on_origin():
    lat = build_decorated_lattice(LatticeSpec(dimension=2, extent=9, boundary="open"))
    center = centered_axis_link(lat)
    check_extent_guard(lat, center, 7)
    edge_link = lat.vertex_id((1, 0))
    with pytest.raises(ExtentGuardError, match="axis"):
        check_extent_guard(lat, edge_link, 2)


def test_bad_arguments(lattice_2d):
    P = centered_axis_link(lattice_2d)
    with pytest.raises(ValueError, match="n_max"):
        count_walks_dp(lattice_2d, P, -1)
    with pytest.raises(ValueError, match="out of range"):
        count_walks_dp(lattice_2d, P, 2, targets=[10**9])
    table = count_walks_dp(lattice_2d, P, 2)
    with pytest.raises(ValueError, match="computed range"):
        table.count(3, P)


# ---------------------------------------------------------------------------
# Fast grid path: bit-identical to the lattice dynamic program.
# ---------------------------------------------------------------------------


def test_axis_walk_counts_match_lattice_dp(lattice_2d, table_2d):
    aw = axis_walk_counts(10, 5)
    for d in range(5):
        q = perpendicular_target(lattice_2d, d)
        for n in range(11):
            assert aw.count(n, d) == table_2d.count(n, q)


def test_axis_walk_counts_totals_and_unreachable_targets():
    aw = axis_walk_counts(6, 5)
    # 2 d > n_max lies outside the window; the series is identically zero.
    assert all(aw.count(n, 5) == 0 for n in range(7))
    with pytest.raises(ValueError, match="computed range"):
        aw.count(2, 6)


@given(n_max=st.integers(0, 8), d=st.integers(0, 4))
@settings(max_examples=25, deadline=None)
def test_axis_walk_counts_invariants(n_max, d):
    aw = axis_walk_counts(n_max, 4)
    for n in range(n_max + 1):
        c = aw.count(n, d)
        assert c >= 0
        if n < 2 * d or n % 2:
            assert c == 0
        if n == 2 * d:
            assert c == 1


# ---------------------------------------------------------------------------
# Per-distance closed-form columns: equal to the dynamic program.
# ---------------------------------------------------------------------------


def lieb_sum(n, d):
    """N(n, d) as the plain binomial sum over j, with no row recurrence."""
    if n % 2:
        return 0
    m = n // 2
    if m == 0:
        return int(d == 0)

    def w(j, y):
        y = abs(y)
        return math.comb(j, (j + y) // 2) ** 2 if y <= j and (j + y) % 2 == 0 else 0

    return sum(
        math.comb(m - 1, j) * 4 ** (m - 1 - j) * (2 * w(j, d) + w(j, d - 1) + w(j, d + 1))
        for j in range(m)
    )


def test_walk_count_column_matches_axis_walk_counts():
    aw = axis_walk_counts(120, 60)
    mismatches = [
        (n, d)
        for d in range(61)
        for n, count in enumerate(walk_count_column(d, 120))
        if count != aw.count(n, d)
    ]
    assert mismatches == []


def test_walk_count_column_matches_lattice_dp(lattice_2d, table_2d):
    for d in range(6):
        q = perpendicular_target(lattice_2d, d)
        assert walk_count_column(d, 10) == tuple(table_2d.count(n, q) for n in range(11))


@given(n=st.integers(0, 400), d=st.integers(0, 200), extra=st.integers(0, 50))
@settings(max_examples=40, deadline=None)
def test_walk_count_column_properties(n, d, extra):
    column = walk_count_column(d, n)
    assert len(column) == n + 1
    assert walk_count_column(d, n + extra)[: n + 1] == column
    assert column[n] == lieb_sum(n, d)
    if n % 2 or n < 2 * d:
        assert column[n] == 0
    elif n == 2 * d:
        assert column[n] == 1
    else:
        assert 0 < column[n] <= 8 ** (n // 2)


@given(d=st.integers(0, 200), lengths=st.lists(st.integers(0, 400), min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_extend_walk_counts_in_place_equals_one_build(d, lengths):
    # Repeated and shorter lengths included: a shorter request changes nothing.
    full = walk_count_column(d, max(lengths))
    counts, edge = [], []
    for i, n in enumerate(lengths):
        extend_walk_counts(counts, edge, d, n)
        assert tuple(counts) == full[: max(lengths[: i + 1]) + 1]


def test_walk_count_column_validation():
    assert walk_count_column(0, 0) == (1,)
    assert walk_count_column(3, 1) == (0, 0)
    with pytest.raises(ValueError):
        walk_count_column(-1, 4)
    with pytest.raises(ValueError):
        walk_count_column(0, -1)


# ---------------------------------------------------------------------------
# Closed form: evaluated literally, compared honestly.
# ---------------------------------------------------------------------------

CLOSED_FORM_FROZEN = {
    # Literal values of the binomial-sum expression (not of the true count).
    (0, 0): 0,
    (2, 0): 0,
    (2, 1): 0,
    (4, 1): 0,
    (4, 2): 0,
    (6, 2): 5760,
    (6, 3): 0,
    (8, 4): 53760,
    (10, 6): 403200,
    (12, 2): 2466604800,
}


@pytest.mark.parametrize("n,d", sorted(CLOSED_FORM_FROZEN))
def test_closed_form_literal_values(n, d):
    assert count_walks_closed_form(n, d) == CLOSED_FORM_FROZEN[(n, d)]


def test_closed_form_empty_sum_and_validation():
    assert count_walks_closed_form(0, 0) == 0
    assert count_walks_closed_form(3, 3) == 0
    with pytest.raises(ValueError):
        count_walks_closed_form(-1, 0)
    with pytest.raises(ValueError):
        count_walks_closed_form(4, -2)


def test_fidelity_report_flags_divergence():
    aw = axis_walk_counts(10, 4)
    comparisons = compare_closed_form(aw.count, range(11), range(5))
    report = fidelity_report(comparisons, context={"n_max": 10, "d_max": 4})
    assert report["canonical_source"] == "dp"
    assert report["entries_compared"] == 55
    assert report["mismatch_count"] > 0
    by_key = {(m["n"], m["d"]): m for m in report["mismatches"]}
    assert by_key[(6, 2)] == {"n": 6, "d": 2, "dp": 10, "closed_form": 5760}
    assert by_key[(2, 1)] == {"n": 2, "d": 1, "dp": 1, "closed_form": 0}
    # Where both vanish they agree; such entries are not mismatches.
    assert (1, 0) not in by_key


# ---------------------------------------------------------------------------
# Crude exponential bound dominates the exact count.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
def test_gross_bound_dominates_exact_counts(kappa):
    aw = axis_walk_counts(12, 6)
    for d in range(7):
        for n in range(13):
            assert aw.count(n, d) <= gross_upper_bound(n, d, kappa)


def test_gross_bound_overflow_and_validation():
    assert gross_upper_bound(2000, 0, 1.0) == math.inf
    with pytest.raises(ValueError, match="kappa"):
        gross_upper_bound(4, 1, 0.0)
    with pytest.raises(ValueError):
        gross_upper_bound(-1, 0, 1.0)
