"""Decorated bipartite lattice built from the links and plaquettes of a hypercubic grid.

The base grid G has sites at integer points of a D-dimensional box with L sites
per axis.  The decorated graph G' has one vertex per *link* of G and one vertex
per *plaquette* (unit square face) of G; a link-vertex and a plaquette-vertex
are adjacent exactly when the link borders the plaquette.  There are no other
edges, so G' is bipartite.

Everything is indexed through doubled integer coordinates: a site (x1..xD)
sits at (2*x1..2*xD), a link at the doubled midpoint of its two endpoints
(exactly one odd component, the link axis), and a plaquette at the doubled
center of its face (exactly two odd components, the spanned axes).  In doubled
coordinates adjacency in G' is simply "differ by one unit step", which keeps
construction and breadth-first search uniform in any dimension.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from math import comb

BOUNDARIES = ("open", "periodic")

# Refuse to materialise graphs whose vertex lists would dwarf memory; callers
# can raise the cap explicitly when they know what they are doing.
DEFAULT_MAX_VERTICES = 2_000_000


@dataclass(frozen=True)
class LatticeSpec:
    """Geometry of the base hypercubic grid.

    dimension: number of axes, D >= 1 (D = 1 yields links only, no plaquettes).
    extent: sites per axis, L >= 2.
    boundary: "open" or "periodic".
    """

    dimension: int
    extent: int
    boundary: str = "periodic"

    def __post_init__(self) -> None:
        if not isinstance(self.dimension, int) or self.dimension < 1:
            raise ValueError(f"dimension must be an integer >= 1, got {self.dimension!r}")
        if not isinstance(self.extent, int) or self.extent < 2:
            raise ValueError(f"extent must be an integer >= 2, got {self.extent!r}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")


def expected_link_count(spec: LatticeSpec) -> int:
    """Closed-form number of links: D*L^D periodic, D*(L-1)*L^(D-1) open."""
    d, ell = spec.dimension, spec.extent
    if spec.boundary == "periodic":
        return d * ell**d
    return d * (ell - 1) * ell ** (d - 1)


def expected_plaquette_count(spec: LatticeSpec) -> int:
    """Closed-form number of plaquettes: C(D,2)*L^D periodic, C(D,2)*(L-1)^2*L^(D-2) open."""
    d, ell = spec.dimension, spec.extent
    pairs = comb(d, 2)
    if pairs == 0:
        return 0
    if spec.boundary == "periodic":
        return pairs * ell**d
    return pairs * (ell - 1) ** 2 * ell ** (d - 2)


def _plaquette_sort_key(coord: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    corner = tuple(c // 2 for c in coord)
    axes = tuple(i for i, c in enumerate(coord) if c % 2 == 1)
    return corner, axes


@dataclass(frozen=True)
class DecoratedLattice:
    """Immutable decorated graph G'.

    Vertices carry global ids: links first (sorted by doubled midpoint), then
    plaquettes (sorted by lowest corner, then axis pair).  `adjacency` lists
    every (link_id, plaquette_id) incidence once.
    """

    spec: LatticeSpec
    link_coords: tuple[tuple[int, ...], ...]
    plaquette_coords: tuple[tuple[int, ...], ...]
    adjacency: tuple[tuple[int, int], ...]
    neighbors: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int]

    @property
    def n_links(self) -> int:
        return len(self.link_coords)

    @property
    def n_plaquettes(self) -> int:
        return len(self.plaquette_coords)

    @property
    def n_vertices(self) -> int:
        return self.n_links + self.n_plaquettes

    def is_link(self, vertex_id: int) -> bool:
        return vertex_id < self.n_links

    def vertex_coord(self, vertex_id: int) -> tuple[int, ...]:
        if vertex_id < self.n_links:
            return self.link_coords[vertex_id]
        return self.plaquette_coords[vertex_id - self.n_links]

    def vertex_id(self, coord: tuple[int, ...]) -> int:
        try:
            return self.index[tuple(coord)]
        except KeyError:
            raise KeyError(f"no link or plaquette at doubled coordinate {tuple(coord)}") from None

    def degree(self, vertex_id: int) -> int:
        return len(self.neighbors[vertex_id])


def _candidate_steps(
    coord: tuple[int, ...], spec: LatticeSpec
) -> "itertools.chain[tuple[int, ...]]":
    span = 2 * spec.extent
    out = []
    for axis in range(spec.dimension):
        for delta in (-1, 1):
            nxt = list(coord)
            nxt[axis] += delta
            if spec.boundary == "periodic":
                nxt[axis] %= span
            elif not (0 <= nxt[axis] <= span - 2):
                continue
            out.append(tuple(nxt))
    return itertools.chain(out)


def build_decorated_lattice(
    spec: LatticeSpec, max_vertices: int = DEFAULT_MAX_VERTICES
) -> DecoratedLattice:
    """Enumerate links and plaquettes of the grid and wire their incidences.

    Raises ValueError if the predicted vertex count exceeds `max_vertices`
    (checked before any enumeration so oversized requests fail fast).
    """
    predicted = expected_link_count(spec) + expected_plaquette_count(spec)
    if predicted > max_vertices:
        raise ValueError(
            f"lattice would have {predicted} vertices, exceeding the cap of "
            f"{max_vertices}; raise max_vertices to force construction"
        )

    if spec.boundary == "periodic":
        axis_range = range(2 * spec.extent)
    else:
        axis_range = range(2 * spec.extent - 1)

    links: list[tuple[int, ...]] = []
    plaquettes: list[tuple[int, ...]] = []
    for coord in itertools.product(axis_range, repeat=spec.dimension):
        odd = sum(c % 2 for c in coord)
        if odd == 1:
            links.append(coord)
        elif odd == 2:
            plaquettes.append(coord)

    links.sort()
    plaquettes.sort(key=_plaquette_sort_key)

    index: dict[tuple[int, ...], int] = {}
    for i, coord in enumerate(links):
        index[coord] = i
    offset = len(links)
    for i, coord in enumerate(plaquettes):
        index[coord] = offset + i

    neighbors: list[tuple[int, ...]] = []
    adjacency: list[tuple[int, int]] = []
    for vid, coord in enumerate(itertools.chain(links, plaquettes)):
        nbrs = []
        for nxt in _candidate_steps(coord, spec):
            other = index.get(nxt)
            if other is not None:
                nbrs.append(other)
        neighbors.append(tuple(sorted(nbrs)))
        if vid < offset:
            for other in neighbors[vid]:
                adjacency.append((vid, other))

    return DecoratedLattice(
        spec=spec,
        link_coords=tuple(links),
        plaquette_coords=tuple(plaquettes),
        adjacency=tuple(adjacency),
        neighbors=tuple(neighbors),
        index=index,
    )


def graph_distance(lattice: DecoratedLattice, start: int, goal: int) -> int | None:
    """Breadth-first graph distance between two vertex ids on G'.

    Returns None when the vertices lie in different components (e.g. any two
    links of a D = 1 lattice, which has no plaquettes to connect them).
    """
    n = lattice.n_vertices
    for v in (start, goal):
        if not (0 <= v < n):
            raise ValueError(f"vertex id {v} out of range [0, {n})")
    if start == goal:
        return 0
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        dv = dist[v]
        for w in lattice.neighbors[v]:
            if w not in dist:
                if w == goal:
                    return dv + 1
                dist[w] = dv + 1
                queue.append(w)
    return None

