"""Construction and geometry checks for the decorated link/plaquette graph."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcone.lattice import (
    DEFAULT_MAX_VERTICES,
    DecoratedLattice,
    LatticeSpec,
    build_decorated_lattice,
    expected_link_count,
    expected_plaquette_count,
    graph_distance,
)


def brute_force_cells(spec: LatticeSpec):
    """Independent site-based enumeration of links and plaquettes.

    Links come from a site plus an axis, plaquettes from a site plus an axis
    pair; membership is decided purely on site ranges, with no doubled-parity
    reasoning.  Returns both as sets of doubled coordinates.
    """
    d, ell = spec.dimension, spec.extent
    sites = list(itertools.product(range(ell), repeat=d))

    def shift(site, axis, by=1):
        moved = list(site)
        moved[axis] += by
        if spec.boundary == "periodic":
            moved[axis] %= ell
            return tuple(moved)
        return tuple(moved) if moved[axis] < ell else None

    links = set()
    for site in sites:
        for axis in range(d):
            if shift(site, axis) is None:
                continue
            doubled = [2 * c for c in site]
            doubled[axis] += 1
            links.add(tuple(doubled))

    plaquettes = set()
    for site in sites:
        for mu, nu in itertools.combinations(range(d), 2):
            if shift(site, mu) is None or shift(site, nu) is None:
                continue
            doubled = [2 * c for c in site]
            doubled[mu] += 1
            doubled[nu] += 1
            plaquettes.add(tuple(doubled))

    return links, plaquettes


SMALL_SPECS = [
    LatticeSpec(1, 4, "open"),
    LatticeSpec(1, 4, "periodic"),
    LatticeSpec(2, 3, "open"),
    LatticeSpec(2, 4, "periodic"),
    LatticeSpec(3, 3, "open"),
    LatticeSpec(3, 3, "periodic"),
    LatticeSpec(4, 2, "open"),
    LatticeSpec(4, 3, "periodic"),
]


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_enumeration_matches_brute_force(spec):
    lat = build_decorated_lattice(spec)
    links, plaquettes = brute_force_cells(spec)
    assert set(lat.link_coords) == links
    assert set(lat.plaquette_coords) == plaquettes


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_vertex_counts_match_closed_forms(spec):
    lat = build_decorated_lattice(spec)
    assert lat.n_links == expected_link_count(spec)
    assert lat.n_plaquettes == expected_plaquette_count(spec)


def test_two_dimensional_periodic_counts():
    # L^2 plaquettes and 2 L^2 links on the torus.
    for ell in (3, 5, 8):
        lat = build_decorated_lattice(LatticeSpec(2, ell, "periodic"))
        assert lat.n_plaquettes == ell**2
        assert lat.n_links == 2 * ell**2


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_degrees_periodic(dim):
    lat = build_decorated_lattice(LatticeSpec(dim, 3, "periodic"))
    for vid in range(lat.n_vertices):
        if lat.is_link(vid):
            assert lat.degree(vid) == 2 * (dim - 1)
        else:
            assert lat.degree(vid) == 4


def test_degrees_open_interior_and_boundary():
    # Open boundary: every plaquette still has its four border links, while
    # link degrees drop below 2(D-1) only next to the boundary.
    lat = build_decorated_lattice(LatticeSpec(3, 4, "open"))
    for vid in range(lat.n_links, lat.n_vertices):
        assert lat.degree(vid) == 4
    span = 2 * 4 - 2
    interior = boundary = 0
    for vid in range(lat.n_links):
        coord = lat.link_coords[vid]
        axis = next(i for i, c in enumerate(coord) if c % 2 == 1)
        touches_edge = any(
            c in (0, span) for i, c in enumerate(coord) if i != axis
        )
        if touches_edge:
            assert lat.degree(vid) < 2 * (3 - 1)
            boundary += 1
        else:
            assert lat.degree(vid) == 2 * (3 - 1)
            interior += 1
    assert interior > 0 and boundary > 0


def test_every_link_borders_two_plaquettes_in_2d():
    lat = build_decorated_lattice(LatticeSpec(2, 5, "periodic"))
    for vid in range(lat.n_links):
        assert lat.degree(vid) == 2


def test_bipartite_adjacency():
    lat = build_decorated_lattice(LatticeSpec(3, 3, "periodic"))
    for link_id, plaq_id in lat.adjacency:
        assert lat.is_link(link_id)
        assert not lat.is_link(plaq_id)
    # neighbor lists agree with the pair list
    pair_set = set(lat.adjacency)
    for vid in range(lat.n_vertices):
        for w in lat.neighbors[vid]:
            assert lat.is_link(vid) != lat.is_link(w)
            pair = (vid, w) if lat.is_link(vid) else (w, vid)
            assert pair in pair_set


def test_adjacency_is_incidence():
    # A plaquette's neighbors are exactly the four links of its face.
    lat = build_decorated_lattice(LatticeSpec(2, 4, "periodic"))
    span = 2 * 4
    for pid in range(lat.n_links, lat.n_vertices):
        center = lat.vertex_coord(pid)
        mu, nu = (i for i, c in enumerate(center) if c % 2 == 1)
        expected = set()
        for axis, delta in ((mu, -1), (mu, 1), (nu, -1), (nu, 1)):
            c = list(center)
            c[axis] = (c[axis] + delta) % span
            expected.add(lat.vertex_id(tuple(c)))
        assert set(lat.neighbors[pid]) == expected


def _centered_link(lat: DecoratedLattice) -> int:
    ell = lat.spec.extent
    center = [2 * (ell // 2)] * lat.spec.dimension
    center[0] += 1
    return lat.vertex_id(tuple(center))


def test_distance_perpendicular_pair_is_twice_grid_distance():
    # Same-orientation links separated by d grid steps perpendicular to their
    # axis: four steps apart on G means eight steps apart on G'.
    lat = build_decorated_lattice(LatticeSpec(2, 12, "periodic"))
    p = _centered_link(lat)
    px, py = lat.vertex_coord(p)
    for d in (1, 2, 3, 4):
        q = lat.vertex_id((px, (py + 2 * d) % 24))
        assert graph_distance(lat, p, q) == 2 * d


def test_distance_diagonal_pair_is_twice_l1_distance():
    lat = build_decorated_lattice(LatticeSpec(2, 12, "periodic"))
    p = _centered_link(lat)
    px, py = lat.vertex_coord(p)
    q = lat.vertex_id(((px + 4) % 24, (py + 4) % 24))  # grid offset (2, 2), L1 = 4
    assert graph_distance(lat, p, q) == 8


def test_distance_parallel_pair_needs_detour():
    # Same-orientation links shifted along their own axis sit on a row of G'
    # interrupted by the absent grid sites, so the path detours by two steps.
    lat = build_decorated_lattice(LatticeSpec(2, 12, "periodic"))
    p = _centered_link(lat)
    px, py = lat.vertex_coord(p)
    q = lat.vertex_id(((px + 8) % 24, py))  # four grid steps along the link axis
    assert graph_distance(lat, p, q) == 10


def test_distance_parity_matches_bipartition():
    lat = build_decorated_lattice(LatticeSpec(2, 5, "periodic"))
    p = _centered_link(lat)
    for q in range(lat.n_vertices):
        dist = graph_distance(lat, p, q)
        assert dist is not None
        same_side = lat.is_link(q)
        assert (dist % 2 == 0) == same_side


def test_one_dimensional_lattice_is_disconnected():
    lat = build_decorated_lattice(LatticeSpec(1, 6, "open"))
    assert lat.n_plaquettes == 0
    assert all(lat.degree(v) == 0 for v in range(lat.n_vertices))
    assert graph_distance(lat, 0, 1) is None
    assert graph_distance(lat, 0, 0) == 0


def test_ordering_links_before_plaquettes_lexicographic():
    lat = build_decorated_lattice(LatticeSpec(2, 3, "periodic"))
    assert list(lat.link_coords) == sorted(lat.link_coords)
    keys = [
        (tuple(c // 2 for c in coord), tuple(i for i, c in enumerate(coord) if c % 2))
        for coord in lat.plaquette_coords
    ]
    assert keys == sorted(keys)
    # ids round-trip through coordinates
    for vid in range(lat.n_vertices):
        assert lat.vertex_id(lat.vertex_coord(vid)) == vid


@pytest.mark.parametrize(
    "bad",
    [
        dict(dimension=0, extent=4),
        dict(dimension=2, extent=1),
        dict(dimension=2, extent=4, boundary="twisted"),
        dict(dimension=-3, extent=4),
    ],
)
def test_spec_validation(bad):
    with pytest.raises(ValueError):
        LatticeSpec(**bad)


def test_vertex_cap_rejects_oversized_lattice():
    spec = LatticeSpec(3, 100, "periodic")
    with pytest.raises(ValueError, match="cap"):
        build_decorated_lattice(spec, max_vertices=10_000)
    assert expected_link_count(spec) + expected_plaquette_count(spec) > DEFAULT_MAX_VERTICES


def test_unknown_coordinate_raises():
    lat = build_decorated_lattice(LatticeSpec(2, 3, "periodic"))
    with pytest.raises(KeyError):
        lat.vertex_id((0, 0))  # a grid site, not a vertex of G'
    with pytest.raises(ValueError):
        graph_distance(lat, 0, lat.n_vertices)


@settings(max_examples=30, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=3),
    ell=st.integers(min_value=2, max_value=4),
    boundary=st.sampled_from(["open", "periodic"]),
)
def test_structural_invariants_hypothesis(dim, ell, boundary):
    spec = LatticeSpec(dim, ell, boundary)
    lat = build_decorated_lattice(spec)
    # counts match the closed forms
    assert lat.n_links == expected_link_count(spec)
    assert lat.n_plaquettes == expected_plaquette_count(spec)
    # parity classes: links have one odd component, plaquettes two
    assert all(sum(c % 2 for c in coord) == 1 for coord in lat.link_coords)
    assert all(sum(c % 2 for c in coord) == 2 for coord in lat.plaquette_coords)
    # symmetric neighbor relation, strictly bipartite
    for vid in range(lat.n_vertices):
        for w in lat.neighbors[vid]:
            assert vid in lat.neighbors[w]
            assert lat.is_link(vid) != lat.is_link(w)
    # plaquettes never exceed degree four
    for pid in range(lat.n_links, lat.n_vertices):
        assert lat.degree(pid) == 4
