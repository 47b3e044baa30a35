"""Desk-scale ground truth: exhaustive angle-bounded MSTs, and the grid-graph
instances used by the hardness reductions.

Spanning trees are enumerated through Prufer sequences (n^(n-2) labeled
trees, capped at n=8), so every answer here is exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    DegreeTooHighError,
    GridLayoutError,
    GuaranteeViolation,
    NotBipartiteError,
    TooFewPointsError,
    TooManyPointsError,
)
from .geom import ANGLE_TOL_DEG, Point, PointSet, check_distinct, spanning_arc
from .graph import CommGraph, SpanningTree

_TREE_CAP = 8
_SQRT3_2 = math.sqrt(3.0) / 2.0


# ---------------------------------------------------------------------------
# Grid graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridGraph:
    """Vertices of a square or hexagonal unit tiling with unit-length edges.

    ``lattice`` holds exact integer coordinates: (x, y) for the square kind;
    for the hex kind a pair (a, b) mapping to the plane as (a/2, b*sqrt(3)/2),
    where honeycomb vertices satisfy a % 3 != 0 and (a + b) even.
    """

    kind: str
    lattice: tuple[tuple[int, int], ...]
    vertices: tuple[Point, ...]
    graph: CommGraph


def _unit_graph(index: dict[tuple[int, int], int], offsets: Sequence[tuple[int, int]]) -> CommGraph:
    """The graph joining each lattice vertex (``index``: coordinates to id) to those at the offsets."""
    near = [(index.get((x + dx, y + dy)), i) for (x, y), i in index.items() for dx, dy in offsets]
    pairs = sorted({(min(i, j), max(i, j)) for j, i in near if j is not None})
    return CommGraph(len(index), [i for i, _ in pairs], [j for _, j in pairs], [1.0] * len(pairs))


_HEX_OFFSETS = ((2, 0), (-2, 0), (1, 1), (-1, -1), (1, -1), (-1, 1))


def _hex_point(a: int, b: int) -> Point:
    return Point(a * 0.5, b * _SQRT3_2)


def _check_hex_coord(a: int, b: int) -> None:
    if a % 3 == 0 or (a + b) % 2 != 0:
        raise GridLayoutError(f"({a},{b}) is not a honeycomb lattice vertex")


def hex_grid_graph(lattice: Iterable[tuple[int, int]]) -> GridGraph:
    """Hexagonal grid graph over the given honeycomb lattice vertices."""
    coords = list(dict.fromkeys(tuple(c) for c in lattice))
    for a, b in coords:
        _check_hex_coord(a, b)
    index = {c: i for i, c in enumerate(coords)}
    return GridGraph(
        kind="hex",
        lattice=tuple(coords),
        vertices=tuple(_hex_point(a, b) for a, b in coords),
        graph=_unit_graph(index, _HEX_OFFSETS),
    )


def hex_cell_corners(q: int, r: int) -> list[tuple[int, int]]:
    """Lattice corners of the flat-top unit hexagon in cell (q, r), CCW from east."""
    ac, bc = 3 * q, 2 * r + q
    return [
        (ac + 2, bc),
        (ac + 1, bc + 1),
        (ac - 1, bc + 1),
        (ac - 2, bc),
        (ac - 1, bc - 1),
        (ac + 1, bc - 1),
    ]


def hex_grid_of_cells(cells: Iterable[tuple[int, int]]) -> GridGraph:
    """Hexagonal grid graph formed by the corners of the given hexagon cells."""
    coords: list[tuple[int, int]] = []
    for q, r in cells:
        coords.extend(hex_cell_corners(q, r))
    return hex_grid_graph(sorted(set(coords)))


def square_grid_graph(coords: Iterable[tuple[int, int]]) -> GridGraph:
    """Square grid graph over integer points, keeping the given vertex order."""
    lattice = [tuple(c) for c in coords]
    if len(set(lattice)) != len(lattice):
        raise GridLayoutError("duplicate vertices in square grid")
    index = {c: i for i, c in enumerate(lattice)}
    return GridGraph(
        kind="square",
        lattice=tuple(lattice),
        vertices=tuple(Point(float(x), float(y)) for x, y in lattice),
        graph=_unit_graph(index, ((1, 0), (0, 1))),
    )


# ---------------------------------------------------------------------------
# Exhaustive angle-bounded MST
# ---------------------------------------------------------------------------

def _prufer_edges(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    edges = []
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for s in seq:
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1 and s < ptr:
            leaf = s
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return edges


def iter_spanning_trees(n: int) -> Iterator[list[tuple[int, int]]]:
    """All n^(n-2) labeled spanning trees on n vertices, in Prufer order."""
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield _prufer_edges(seq, n)


def brute_force_alpha_mst(points: PointSet, alpha_deg: float) -> Optional[SpanningTree]:
    """Minimum-weight spanning tree with every vertex spread at most alpha,
    or None when no spanning tree satisfies the bound.

    Exhaustive over all labeled trees; of equal weights, the first tree in
    Prufer order wins.
    """
    n = len(points)
    if n < 1:
        raise TooFewPointsError("need at least one point")
    if n > _TREE_CAP:
        raise TooManyPointsError(f"tree enumeration capped at {_TREE_CAP} points, got {n}")
    check_distinct(points)
    if n == 1:
        return SpanningTree((), 0.0)

    dist = [[0.0] * n for _ in range(n)]
    ddeg = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = points[i].distance_to(points[j])
            d = math.degrees(math.atan2(points[j].y - points[i].y, points[j].x - points[i].x))
            ddeg[i][j] = d % 360.0
            ddeg[j][i] = (d + 180.0) % 360.0

    best: Optional[tuple[float, list[tuple[int, int]]]] = None
    cutoff = alpha_deg + ANGLE_TOL_DEG
    for edges in iter_spanning_trees(n):
        weight = sum(dist[u][v] for u, v in edges)
        if best is not None and weight >= best[0]:
            continue
        incident: list[list[float]] = [[] for _ in range(n)]
        for u, v in edges:
            incident[u].append(ddeg[u][v])
            incident[v].append(ddeg[v][u])
        spread = 0.0
        for v in range(n):
            if len(incident[v]) >= 2:
                _, extent = spanning_arc(incident[v])
                spread = max(spread, extent)
                if spread > cutoff:
                    break
        if spread <= cutoff:
            best = (weight, edges)
    if best is None:
        return None
    return SpanningTree(tuple(sorted((u, v) if u < v else (v, u) for u, v in best[1])), best[0])


# ---------------------------------------------------------------------------
# Hardness-reduction instance generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionInstance:
    """Point set of the square-grid reduction with its target tree weight L."""

    points: tuple[Point, ...]
    target_weight: float
    n_black: int
    n_white: int


_SQUARE_DIR_PREFERENCE = ((1, 0), (0, 1), (-1, 0), (0, -1))  # E, N, W, S


def square_grid_reduction(g: GridGraph) -> ReductionInstance:
    """Attach a satellite point to every vertex of a degree-<=3 square grid.

    Each vertex v gets a point q_v on a missing complete-grid edge at v
    (first missing among E, N, W, S), at distance 1/4 when v is black and
    1/5 when white under the parity 2-coloring seeded black at vertex 0.
    The target weight is L = (n-1) + n_black/4 + n_white/5. Every q_v is
    farther than 1 from everything but v (checked), so any MST of the
    output must use exactly the n satellite edges plus n-1 grid edges.
    """
    if g.kind != "square":
        raise GridLayoutError(f"square-grid reduction needs a square grid, got {g.kind}")
    n = len(g.lattice)
    if n == 0:
        raise GridLayoutError("empty grid")
    if not g.graph.is_connected():
        raise GridLayoutError("reduction requires a connected grid graph")
    for v in range(n):
        if g.graph.degree(v) > 3:
            raise DegreeTooHighError(f"vertex {v} has degree {g.graph.degree(v)} > 3")

    x0, y0 = g.lattice[0]
    black = [((x - x0) + (y - y0)) % 2 == 0 for x, y in g.lattice]
    for u, v, _ in g.graph.edges():
        if black[u] == black[v]:
            raise NotBipartiteError(f"edge ({u},{v}) joins same-color vertices")

    occupied = set(g.lattice)
    satellites: list[Point] = []
    for v, (x, y) in enumerate(g.lattice):
        delta = next(
            (d for d in _SQUARE_DIR_PREFERENCE if (x + d[0], y + d[1]) not in occupied),
            None,
        )
        if delta is None:
            raise DegreeTooHighError(f"vertex {v} has no missing grid edge")
        step = 0.25 if black[v] else 0.2
        satellites.append(Point(x + delta[0] * step, y + delta[1] * step))

    points = list(g.vertices) + satellites
    for v, q in enumerate(satellites):
        for i, p in enumerate(points):
            if i == v or i == n + v:
                continue
            if q.distance_to(p) <= 1.0:
                raise GuaranteeViolation(
                    f"satellite {q} of vertex {v} is within unit distance of point {i} {p}"
                )
    n_black = sum(black)
    n_white = n - n_black
    target = (n - 1) + n_black / 4.0 + n_white / 5.0
    return ReductionInstance(
        points=tuple(points), target_weight=target, n_black=n_black, n_white=n_white
    )
