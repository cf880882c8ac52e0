"""Exact walk counts on the decorated graph.

A walk of length n is any sequence of n unit steps on G'; revisits are
allowed.  Three count sources exist:

* `extend_walk_counts`, the exact per-distance closed form on the Lieb lattice
  for same-orientation link pairs d grid steps apart perpendicular to the
  link axis (the canonical pair family, G' distance exactly 2 d).  It is
  canonical, the one exact source of the program: it grows each count
  column of the bound series in `lrbound` in place, and `lrcone count`
  audits the paper's formula against its columns.
* the neighbor-sum dynamic program

      counts(n + 1, v) = sum over u adjacent to v of counts(n, u)

  with exact Python integers, on a built lattice (`count_walks_dp`) or on
  one folded quadrant of the implicit infinite plane (`axis_walk_counts`).
  It is the independent oracle the closed form is tested against, and runs
  only in the tests and the benchmark.
* the paper's literal binomial expression (`count_walks_closed_form`), kept
  as written so that its disagreement with the exact counts stays visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .lattice import DecoratedLattice

DEFAULT_MAX_STORED_ENTRIES = 5_000_000


class ExtentGuardError(ValueError):
    """Walk length too large for the lattice to emulate the infinite graph."""


def check_extent_guard(lattice: DecoratedLattice, origin: int, n_max: int) -> None:
    """Require that no walk of length <= n_max from `origin` can feel the boundary.

    Periodic: exact wrap-free counting needs n_max < L.  Open: every axis must
    keep a doubled-coordinate margin of at least n_max on both sides of the
    origin.  Violations raise ExtentGuardError naming the failing pair.
    """
    spec = lattice.spec
    if spec.boundary == "periodic":
        if n_max >= spec.extent:
            raise ExtentGuardError(
                f"n_max = {n_max} needs extent L > n_max, got L = {spec.extent} (periodic)"
            )
        return
    span = 2 * spec.extent - 2
    coord = lattice.vertex_coord(origin)
    for axis, c in enumerate(coord):
        if c - n_max < 0 or c + n_max > span:
            raise ExtentGuardError(
                f"n_max = {n_max} walks from origin {coord} can reach the open "
                f"boundary along axis {axis} (extent L = {spec.extent})"
            )


@dataclass(frozen=True)
class PathCountTable:
    """Exact walk counts from one origin, layer by layer.

    `target_counts[q][n]` is the number of length-n walks from the origin to
    vertex q, for the requested targets, or for every vertex when none were
    requested.  `layer_totals[n]` is the total number of length-n walks from
    the origin regardless of endpoint.
    """

    n_max: int
    target_counts: dict[int, tuple[int, ...]]
    layer_totals: tuple[int, ...]

    def count(self, n: int, vertex_id: int) -> int:
        if not (0 <= n <= self.n_max):
            raise ValueError(f"n = {n} outside the computed range [0, {self.n_max}]")
        try:
            return self.target_counts[vertex_id][n]
        except KeyError:
            raise KeyError(
                f"vertex {vertex_id} was not among the retained targets"
            ) from None


def count_walks_dp(
    lattice: DecoratedLattice,
    origin: int,
    n_max: int,
    *,
    targets: Sequence[int] | None = None,
    max_stored_entries: int = DEFAULT_MAX_STORED_ENTRIES,
) -> PathCountTable:
    """Iterate the neighbor-sum recurrence from a link-vertex origin.

    With `targets` given, only those vertices' counts are retained (the full
    layer still drives the recurrence); otherwise every vertex's are,
    subject to `max_stored_entries`.
    """
    if not lattice.is_link(origin):
        raise ValueError(f"origin {origin} is not a link-vertex id")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    check_extent_guard(lattice, origin, n_max)

    n_vertices = lattice.n_vertices
    if targets is None:
        if (n_max + 1) * n_vertices > max_stored_entries:
            raise ValueError(
                f"storing {(n_max + 1) * n_vertices} entries exceeds the cap of "
                f"{max_stored_entries}; pass targets= to retain selected vertices only"
            )
        targets = range(n_vertices)

    vec = [0] * n_vertices
    vec[origin] = 1

    per_target: dict[int, list[int]] = {}
    for q in targets:
        if not (0 <= q < n_vertices):
            raise ValueError(f"target {q} out of range [0, {n_vertices})")
        per_target[int(q)] = [vec[q]]
    totals = [1]

    for _ in range(n_max):
        vec = [sum(vec[w] for w in nbrs) for nbrs in lattice.neighbors]
        totals.append(sum(vec))
        for q, acc in per_target.items():
            acc.append(vec[q])

    return PathCountTable(
        n_max=n_max,
        target_counts={q: tuple(acc) for q, acc in per_target.items()},
        layer_totals=tuple(totals),
    )


# ---------------------------------------------------------------------------
# Canonical pair family: same-orientation links, perpendicular separation.
# ---------------------------------------------------------------------------


def centered_axis_link(lattice: DecoratedLattice) -> int:
    """Id of the axis-0 link at the lattice center (the canonical origin P)."""
    c = lattice.spec.extent // 2
    coord = [2 * c] * lattice.spec.dimension
    coord[0] += 1
    return lattice.vertex_id(tuple(coord))


def perpendicular_target(lattice: DecoratedLattice, d: int) -> int:
    """Id of the link d grid steps from the canonical origin along axis 1.

    The target has the same orientation as the origin, so the pair sits at
    graph distance exactly 2 d on G'.
    """
    if lattice.spec.dimension < 2:
        raise ValueError("perpendicular targets need dimension >= 2")
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    origin = lattice.vertex_coord(centered_axis_link(lattice))
    coord = list(origin)
    coord[1] += 2 * d
    if lattice.spec.boundary == "periodic":
        coord[1] %= 2 * lattice.spec.extent
    return lattice.vertex_id(tuple(coord))


@dataclass(frozen=True)
class AxisWalkCounts:
    """Walk counts from the canonical origin to every canonical target.

    counts[d][n] is the number of length-n walks from P to the link d grid
    steps away perpendicular to P's axis (d = 0 is P itself).  Produced by the
    same neighbor-sum recurrence as count_walks_dp, run on one quadrant of
    relative offsets so that large tables never materialise a
    DecoratedLattice; the two paths are bit-identical where they overlap.
    """

    n_max: int
    d_max: int
    counts: tuple[tuple[int, ...], ...]

    def count(self, n: int, d: int) -> int:
        if not (0 <= n <= self.n_max):
            raise ValueError(f"n = {n} outside the computed range [0, {self.n_max}]")
        if not (0 <= d <= self.d_max):
            raise ValueError(f"d = {d} outside the computed range [0, {self.d_max}]")
        return self.counts[d][n]


def axis_walk_counts(n_max: int, d_max: int) -> AxisWalkCounts:
    """Exact counts for the canonical pair family on the (implicit) infinite plane.

    Works on doubled offsets (i, j) from the origin link, i along its axis.
    The counts are even in i and in j, so only the quadrant i, j >= 0 is
    stored, with a[-1][j] read as a[1][j] and a[i][-1] as a[i][1].  After k
    steps a walk sits on a cell with i + j <= k and i + j = k (mod 2); step k
    rewrites just those cells from their neighbors, which step k - 1 wrote,
    so one grid holds both layers.  No walk of length n_max leaves the grid,
    so the result equals the infinite-plane count (the extent guard holds by
    construction).
    """
    if n_max < 0 or d_max < 0:
        raise ValueError("n_max and d_max must be >= 0")

    a = [[0] * (n_max + 2) for _ in range(n_max + 2)]
    a[0][0] = 1
    # Targets beyond the window (2 d > n_max) are unreachable in n_max steps,
    # and every count at odd n is zero, so those entries are never written.
    series = [[int(d == 0)] + [0] * n_max for d in range(d_max + 1)]

    for k in range(1, n_max + 1):
        for i in range(k + 1):
            j0 = (k - i) % 2
            # Absolute parity of the origin is (odd, even); grid sites
            # (both-even absolute coordinates) are not vertices of G', so
            # cells with odd i and even j stay zero.
            if i % 2 and not j0:
                continue
            row, up, down = a[i], a[abs(i - 1)], a[i + 1]
            row[j0 : k - i + 1 : 2] = [
                up[j] + down[j] + row[abs(j - 1)] + row[j + 1]
                for j in range(j0, k - i + 1, 2)
            ]
        if k % 2 == 0:
            for d in range(min(d_max, k // 2) + 1):
                series[d][k] = a[0][2 * d]

    return AxisWalkCounts(
        n_max=n_max,
        d_max=d_max,
        counts=tuple(tuple(acc) for acc in series),
    )


# ---------------------------------------------------------------------------
# Closed forms.
# ---------------------------------------------------------------------------


def _comb_or_zero(m: int, doubled_lower: int) -> int:
    """C(m, doubled_lower / 2), zero for half-integer or out-of-range lower index."""
    if doubled_lower % 2:
        return 0
    k = doubled_lower // 2
    if m < 0 or k < 0 or k > m:
        return 0
    return math.comb(m, k)


def extend_walk_counts(counts: list[int], edge: list[int], d: int, n_max: int) -> None:
    """Extend `counts` in place to the canonical-pair counts N(n, d), n <= n_max.

    On the Lieb lattice G' a link -> plaquette -> link step acts on the
    plaquettes as T = 4 I + A_square, and square-lattice walks factor in
    rotated coordinates, so

        N(2m, d) = sum over j < m of C(m-1, j) 4^(m-1-j) r_j,
        r_j      = 2 W_j(d) + W_j(d-1) + W_j(d+1),   W_j(y) = C(j, (j+|y|)/2)^2,

    with W_j(y) = 0 on parity or range failure; odd n gives 0 and
    N(0, d) = [d = 0].  `edge`, kept with `counts`, is the transform's last
    antidiagonal: r_J turns it into edge'[k] = edge'[k-1] + 4 edge[k-1] from
    edge'[0] = r_J, ending in N(2J + 2, d), so no count is computed twice.
    """
    if n_max < 0 or d < 0:
        raise ValueError(f"n_max and d must be >= 0, got n_max = {n_max}, d = {d}")
    for n in range(len(counts), n_max + 1):
        if n % 2 or n == 0:
            counts.append(int(n == 0 and d == 0))
            continue
        j = len(edge)
        value = (  # r_j, then edge'[k + 1] as edge[k] is overwritten by edge'[k]
            2 * _comb_or_zero(j, j + d) ** 2
            + _comb_or_zero(j, j + abs(d - 1)) ** 2
            + _comb_or_zero(j, j + d + 1) ** 2
        )
        for k in range(j):
            edge[k], value = value, value + 4 * edge[k]
        edge.append(value)
        counts.append(value)


def count_walks_closed_form(n: int, d: int) -> int:
    """Literal binomial-sum expression for the canonical pair count.

    sum over k = 1 .. ceil((n - d)/2 - 1) of
        C(n-2k, (n-2k-d)/2) * C(n-2k, (n-2k)/2) * C(n, 2k) * 4^(2k)

    with every binomial whose lower index is half-integer or out of range read
    as zero, and an empty summation range read as zero.  Compare against the
    exact counts before trusting any value.
    """
    if n < 0 or d < 0:
        raise ValueError(f"n and d must be >= 0, got n = {n}, d = {d}")
    k_max = (n - d - 1) // 2  # ceil((n - d)/2 - 1) for integers
    total = 0
    for k in range(1, k_max + 1):
        m = n - 2 * k
        term = (
            _comb_or_zero(m, m - d)
            * _comb_or_zero(m, m)
            * math.comb(n, 2 * k)
            * 16**k
        )
        total += term
    return total
