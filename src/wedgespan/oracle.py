"""Desk-scale ground truth: exhaustive angle-bounded MSTs, Hamiltonicity, the
dense-Prim Euclidean MST, and the grid-graph instances used by the hardness
reductions.

Spanning trees are enumerated through Prufer sequences (n^(n-2) labeled
trees, capped at n=8) and Hamiltonicity through subset dynamic programming
(capped at n=14), so every answer here is exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

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
_HAMILTON_CAP = 14
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


def tree_max_spread(points: PointSet, edges: Iterable[tuple[int, int]]) -> float:
    """Largest per-vertex angular spread of the given tree (0 for isolated vertices)."""
    n = len(points)
    dirs: list[list[float]] = [[] for _ in range(n)]
    for u, v in edges:
        d = math.degrees(math.atan2(points[v].y - points[u].y, points[v].x - points[u].x))
        dirs[u].append(d % 360.0)
        dirs[v].append((d + 180.0) % 360.0)
    worst = 0.0
    for v in range(n):
        if len(dirs[v]) >= 2:
            _, extent = spanning_arc(dirs[v])
            worst = max(worst, extent)
    return worst


def is_valid_alpha_tree(points: PointSet, edges: Iterable[tuple[int, int]], alpha_deg: float) -> bool:
    """The oracle's validity filter: every vertex spread at most alpha."""
    return tree_max_spread(points, edges) <= alpha_deg + ANGLE_TOL_DEG


def brute_force_alpha_mst_multi(
    points: PointSet, alphas: Sequence[float]
) -> dict[float, Optional[SpanningTree]]:
    """Exhaustive minimum-weight angle-bounded spanning tree, several alphas at once.

    One pass over all labeled trees serves every requested alpha, since the
    per-tree maximum spread decides validity for each of them.
    """
    n = len(points)
    if n < 1:
        raise TooFewPointsError("need at least one point")
    if n > _TREE_CAP:
        raise TooManyPointsError(f"tree enumeration capped at {_TREE_CAP} points, got {n}")
    check_distinct(points)
    if n == 1:
        return {a: SpanningTree((), 0.0) for a in alphas}

    dist = [[0.0] * n for _ in range(n)]
    ddeg = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = points[i].distance_to(points[j])
            d = math.degrees(math.atan2(points[j].y - points[i].y, points[j].x - points[i].x))
            ddeg[i][j] = d % 360.0
            ddeg[j][i] = (d + 180.0) % 360.0

    best: dict[float, tuple[float, list[tuple[int, int]]]] = {}
    alpha_cutoff = max(alphas) + ANGLE_TOL_DEG
    for edges in iter_spanning_trees(n):
        weight = sum(dist[u][v] for u, v in edges)
        if len(best) == len(alphas) and all(weight >= w for w, _ in best.values()):
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
                if spread > alpha_cutoff:
                    break
        for alpha in alphas:
            if spread <= alpha + ANGLE_TOL_DEG:
                cur = best.get(alpha)
                if cur is None or weight < cur[0]:
                    best[alpha] = (weight, edges)
    out: dict[float, Optional[SpanningTree]] = {}
    for alpha in alphas:
        hit = best.get(alpha)
        if hit is None:
            out[alpha] = None
        else:
            norm = tuple(sorted((u, v) if u < v else (v, u) for u, v in hit[1]))
            out[alpha] = SpanningTree(norm, hit[0])
    return out


def brute_force_alpha_mst(points: PointSet, alpha_deg: float) -> Optional[SpanningTree]:
    """Minimum-weight spanning tree with every vertex spread at most alpha,
    or None when no spanning tree satisfies the bound."""
    return brute_force_alpha_mst_multi(points, [alpha_deg])[alpha_deg]


def dense_prim_mst(points: PointSet) -> SpanningTree:
    """Minimum spanning tree of the complete Euclidean graph (dense Prim, O(n^2)).

    The reference ``graph.euclidean_mst`` must reproduce edge for edge and
    bit for bit.
    """
    n = len(points)
    if n < 1:
        raise TooFewPointsError("euclidean_mst requires at least one point")
    check_distinct(points)
    if n == 1:
        return SpanningTree((), 0.0)
    xs = np.array([p.x for p in points])
    ys = np.array([p.y for p in points])
    in_tree = np.zeros(n, dtype=bool)
    best = np.full(n, np.inf)
    parent = np.zeros(n, dtype=np.int64)
    in_tree[0] = True
    best[0] = np.inf
    d0 = np.hypot(xs - xs[0], ys - ys[0])
    mask = d0 < best
    best[mask] = d0[mask]
    parent[mask] = 0
    best[0] = np.inf
    edges = []
    for _ in range(n - 1):
        k = int(np.argmin(best))
        u = int(parent[k])
        edges.append((u, k) if u < k else (k, u))
        in_tree[k] = True
        best[k] = np.inf
        dk = np.hypot(xs - xs[k], ys - ys[k])
        upd = (dk < best) & ~in_tree
        best[upd] = dk[upd]
        parent[upd] = k
    weight = sum(points[u].distance_to(points[v]) for u, v in edges)
    return SpanningTree(tuple(sorted(edges)), weight)


# ---------------------------------------------------------------------------
# Hamiltonicity (subset DP)
# ---------------------------------------------------------------------------

def _hamilton_adjacency(g: Union[CommGraph, GridGraph]) -> list[int]:
    """Neighbour bitmask of every vertex, after the vertex-count cap check."""
    graph = g.graph if isinstance(g, GridGraph) else g
    n = graph.n
    if n > _HAMILTON_CAP:
        raise TooManyPointsError(f"Hamiltonicity capped at {_HAMILTON_CAP} vertices, got {n}")
    return [sum(1 << v for v in graph.neighbors(u)) for u in range(n)]


def _hamiltonian_ends(adj: list[int], seeds: Iterable[int]) -> int:
    """Bitmask of the vertices where a Hamiltonian path starting at a seed can end.

    Subset DP: ``ends[mask]`` holds every vertex at which some path from a
    seed through exactly the vertices of ``mask`` ends.
    """
    full = (1 << len(adj)) - 1
    ends = [0] * (full + 1)
    for v in seeds:
        ends[1 << v] = 1 << v
    for mask in range(1, full + 1):
        rest = ends[mask]
        while rest:
            vbit = rest & -rest
            rest ^= vbit
            nxt = adj[vbit.bit_length() - 1] & ~mask
            while nxt:
                ubit = nxt & -nxt
                nxt ^= ubit
                ends[mask | ubit] |= ubit
    return ends[full]


def hamiltonian_path_exists(g: Union[CommGraph, GridGraph]) -> bool:
    """Exact Hamiltonian-path decision via bitmask reachability from every vertex."""
    adj = _hamilton_adjacency(g)
    return len(adj) <= 1 or _hamiltonian_ends(adj, range(len(adj))) != 0


def hamiltonian_cycle_exists(g: Union[CommGraph, GridGraph]) -> bool:
    """Exact Hamiltonian-cycle decision (paths from vertex 0, closing edge back)."""
    adj = _hamilton_adjacency(g)
    return len(adj) >= 3 and bool(_hamiltonian_ends(adj, [0]) & adj[0] & ~1)


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


def _hex_free_slots(occupied: set, coord: tuple[int, int]) -> list[tuple[int, int]]:
    a, b = coord
    if a % 3 == 1:
        slots = ((a + 1, b + 1), (a + 1, b - 1), (a - 2, b))
    else:
        slots = ((a - 1, b + 1), (a - 1, b - 1), (a + 2, b))
    return [s for s in slots if s not in occupied]


def _hex_neighbor_count(occupied: set, coord: tuple[int, int]) -> int:
    a, b = coord
    return sum((a + da, b + db) in occupied for da, db in _HEX_OFFSETS)


def hex_grid_reduction(g: GridGraph) -> GridGraph:
    """Augment a hexagonal grid so Hamiltonian cycles become Hamiltonian paths.

    Takes u as the highest vertex (leftmost among ties). With deg(u)=0 the
    graph is returned unchanged; with deg(u)=1 three dead-end points s, t, w
    are added with w adjacent to u only and s, t adjacent to w only; with
    deg(u)=2 two pendant points s, t are attached to u and its horizontal
    neighbor. The construction asserts that exactly the advertised unit
    pairs appear.
    """
    if g.kind != "hex":
        raise GridLayoutError(f"hex-grid reduction needs a hex grid, got {g.kind}")
    if not g.lattice:
        return g
    occupied = set(g.lattice)
    u = max(g.lattice, key=lambda c: (c[1], -c[0]))
    ua, ub = u
    deg = _hex_neighbor_count(occupied, u)
    if deg == 0:
        return g

    if deg == 2:
        # The top vertex of a degree-2 corner keeps its horizontal edge to the
        # right: a left horizontal neighbor would contradict u being the
        # leftmost among the highest vertices.
        if ua % 3 != 2:
            raise GridLayoutError(
                f"degree-2 top vertex {u} has no rightward horizontal slot"
            )
        v = (ua + 2, ub)
        if v not in occupied:
            raise GridLayoutError(f"degree-2 top vertex {u} lacks its horizontal edge")
        s = (ua - 1, ub + 1)
        t = (v[0] + 1, v[1] + 1)
        candidates = [((s, t), {frozenset((s, u)), frozenset((t, v))})]
    else:
        if ua % 3 == 2:
            w = (ua - 1, ub + 1)
        else:
            w = (ua + 1, ub + 1)
        options = []
        slots_w = [c for c in _hex_free_slots(occupied, w) if c != u]
        if len(slots_w) >= 2:
            options.append((w, slots_w[0], slots_w[1]))
        if ua % 3 == 1:
            w2 = (ua - 2, ub)
            slots_w2 = [c for c in _hex_free_slots(occupied, w2) if c != u]
            if w2 not in occupied and len(slots_w2) >= 2:
                options.append((w2, slots_w2[0], slots_w2[1]))
        candidates = [
            ((w_, s_, t_), {frozenset((u, w_)), frozenset((s_, w_)), frozenset((t_, w_))})
            for w_, s_, t_ in options
        ]

    for new_coords, expected in candidates:
        if any(c in occupied for c in new_coords):
            continue
        if len(set(new_coords)) != len(new_coords):
            continue
        all_coords = list(g.lattice) + list(new_coords)
        all_set = set(all_coords)
        formed = set()
        for c in new_coords:
            a, b = c
            for da, db in _HEX_OFFSETS:
                nb = (a + da, b + db)
                if nb in all_set:
                    formed.add(frozenset((c, nb)))
        if formed == expected:
            return hex_grid_graph(all_coords)
    raise GridLayoutError(
        f"no valid augmentation placement found at top vertex {u} (degree {deg})"
    )
