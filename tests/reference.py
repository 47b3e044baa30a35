"""Test-side references, kept apart from the code they check.

* Exhaustive and exact oracles: dense Prim's Euclidean MST, Hamiltonicity by
  subset dynamic programming (capped at 14 vertices), the hexagonal-grid
  reduction, and the per-vertex spread filter of an alpha-tree.
* The per-record parsers that ``wedgespan.io`` used before it checked a
  file's values all at once (instance points, result wedges and edges); the
  columnar parser must accept and reject exactly what they do, with the
  same messages.
* The ``json.dumps(indent=2)`` emitters of instances and results that
  ``wedgespan.io`` used before it wrote its fixed layout directly; the
  writer must give their bytes.
* The per-group gadget recipes the builders used before they oriented
  every group in one numpy pass: the scalar triplet gadget, the per-point
  covering wedge, leftover aiming by ``Wedge.contains`` and the cross-edge
  search over one pair of sides; the batch code must give their bits.
  ``batch_triplets`` views the batch gadget's rows in the scalar one's
  shape, so the same checks read both.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from wedgespan.errors import (
    GridLayoutError,
    GuaranteeViolation,
    InstanceParseError,
    TooFewPointsError,
    TooManyPointsError,
)
from wedgespan.geom import ANGLE_TOL_DEG, Direction, Point, PointSet, Wedge, check_distinct, direction, spanning_arc
from wedgespan.gadget import orient_triplet
from wedgespan.graph import CommGraph, SpanningTree
from wedgespan.io import Instance, ResultDoc
from wedgespan.oracle import _HEX_OFFSETS, GridGraph, hex_grid_graph

_HAMILTON_CAP = 14


def signed_angle_delta(from_deg: float, to_deg: float) -> float:
    """Signed difference to_deg - from_deg folded into [-180, 180)."""
    return (to_deg - from_deg + 180.0) % 360.0 - 180.0


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
    weight = 0.0  # left to right, in join order
    for u, v in edges:
        weight += points[u].distance_to(points[v])
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
# Hexagonal-grid reduction
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Per-record parsers
# ---------------------------------------------------------------------------

def _number(value, where: str) -> float:
    if type(value) is float:
        x = value
    elif type(value) is int:
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
    else:
        raise InstanceParseError(f"{where} must be numbers")
    if not math.isfinite(x):
        raise InstanceParseError(f"{where} must be finite")
    return x


def _point_from_pair(pair, where: str) -> Point:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise InstanceParseError(f"{where}: expected a [x, y] pair, got {pair!r}")
    where += ": coordinates"
    return Point(_number(pair[0], where), _number(pair[1], where))


def points_of(raw: list) -> list[Point]:
    """A JSON instance's "points" array, pair by pair."""
    return [_point_from_pair(pair, f"points[{i}]") for i, pair in enumerate(raw)]


def _wedge_tuple(rec, where: str):
    if not (isinstance(rec, dict) and "bisector_deg" in rec and "aperture_deg" in rec):
        raise InstanceParseError(
            f"{where}: expected an object with bisector_deg and aperture_deg, got {rec!r}"
        )
    return (
        _number(rec["bisector_deg"], where + ".bisector_deg: wedge values"),
        _number(rec["aperture_deg"], where + ".aperture_deg: wedge values"),
        _number(rec["radius"], where + ".radius: wedge values") if "radius" in rec else None,
    )


def wedges_of(recs: list) -> list[tuple]:
    """A result file's "wedges" array, record by record: (bisector, aperture,
    radius), radius None when absent."""
    return [_wedge_tuple(rec, f"wedges[{k}]") for k, rec in enumerate(recs)]


def _edge(pair, where: str) -> tuple[int, int]:
    if not (isinstance(pair, list) and len(pair) == 2 and type(pair[0]) is int and type(pair[1]) is int):
        raise InstanceParseError(f"{where}: expected a pair of integer indices, got {pair!r}")
    return pair[0], pair[1]


def edges_of(raw: list) -> list[tuple[int, int]]:
    """A result file's "edges" array, pair by pair."""
    return [_edge(pair, f"edges[{k}]") for k, pair in enumerate(raw)]


# ---------------------------------------------------------------------------
# json.dumps emitters
# ---------------------------------------------------------------------------

def _round_sig(x: float) -> float:
    return float(f"{x:.12g}")


def _canon_value(v):
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, float):
        return _round_sig(v)
    if isinstance(v, dict):
        return {k: _canon_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_canon_value(x) for x in v]
    raise TypeError(f"cannot serialize value of type {type(v)!r}")


def emit_instance_json(instance: Instance) -> str:
    """An instance's JSON form, through json.dumps(indent=2)."""
    obj: dict = {"points": [[_round_sig(p.x), _round_sig(p.y)] for p in instance.points]}
    if instance.meta:
        obj["meta"] = _canon_value(instance.meta)
    return json.dumps(obj, indent=2) + "\n"


def emit_result_json(doc: ResultDoc) -> str:
    """A result document through json.dumps(indent=2); an (m, 2) edge array
    is taken as its rows."""
    edges = doc.edges.tolist() if isinstance(doc.edges, np.ndarray) else doc.edges
    obj: dict = {
        "wedges": [
            {
                "bisector_deg": _round_sig(b),
                "aperture_deg": _round_sig(a),
                **({"radius": _round_sig(r)} if r != math.inf else {}),
            }
            for b, a, r in doc.wedges.tolist()
        ],
        "edges": [[u, v] for u, v in edges],
        "summary": _canon_value(doc.summary),
    }
    if doc.verification is not None:
        obj["verification"] = _canon_value(doc.verification)
    return json.dumps(obj, indent=2) + "\n"


@dataclass(frozen=True)
class ScalarTriplet:
    """One triplet oriented alone: role positions, reflection, and its wedges."""

    base_left: int
    base_right: int
    peak: int
    reflected: bool
    wedges: tuple[Wedge, Wedge, Wedge]

    @property
    def tree_edges(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two induced edges guaranteed by the construction."""
        return (self.peak, self.base_left), (self.base_left, self.base_right)


def in_half_aperture(dir_deg: float, bis_deg: float, half_deg: float) -> bool:
    """Whether a direction lies within ``half_deg`` (plus ``ANGLE_TOL_DEG``) of a bisector."""
    return abs((dir_deg - bis_deg + 180.0) % 360.0 - 180.0) <= half_deg + ANGLE_TOL_DEG


def orient_triplet_scalar(points: PointSet) -> ScalarTriplet:
    """The triplet gadget on three points, one Python call per triplet: roles
    by ascending law-of-cosines angle (ties by index), the base line's
    direction, canonical bisectors 0 / 120 / 240 mapped back (reflected when
    the peak lies below the base), and both guarantees checked."""
    if len(points) != 3:
        raise ValueError(f"orient_triplet requires exactly 3 points, got {len(points)}")
    p0, p1, p2 = points
    d01 = direction(p0, p1).degrees
    d02 = direction(p0, p2).degrees
    d12 = direction(p1, p2).degrees
    dirs = (
        (None, d01, d02),
        ((d01 + 180.0) % 360.0, None, d12),
        ((d02 + 180.0) % 360.0, (d12 + 180.0) % 360.0, None),
    )
    s01, s02, s12 = p0.distance_to(p1), p0.distance_to(p2), p1.distance_to(p2)

    def corner(adj_a: float, adj_b: float, opp: float) -> float:
        cos_v = (adj_a * adj_a + adj_b * adj_b - opp * opp) / (2.0 * adj_a * adj_b)
        return math.degrees(math.acos(min(1.0, max(-1.0, cos_v))))

    angles = (corner(s01, s02, s12), corner(s01, s12, s02), corner(s02, s12, s01))
    bl, br, pk = sorted(range(3), key=lambda i: (angles[i], i))
    theta = dirs[bl][br]
    vx, vy = points[br].x - points[bl].x, points[br].y - points[bl].y
    wx, wy = points[pk].x - points[bl].x, points[pk].y - points[bl].y
    reflected = (vx * wy - vy * wx) < 0.0
    bis = [0.0, 0.0, 0.0]
    for role, canon in ((bl, 0.0), (br, 120.0), (pk, 240.0)):
        bis[role] = Direction(theta - canon if reflected else theta + canon).degrees
    if not (
        in_half_aperture(dirs[bl][pk], bis[bl], 60.0)
        and in_half_aperture(dirs[pk][bl], bis[pk], 60.0)
        and in_half_aperture(dirs[bl][br], bis[bl], 60.0)
        and in_half_aperture(dirs[br][bl], bis[br], 60.0)
    ):
        raise GuaranteeViolation(f"triplet gadget with bisectors {bis} lost a guaranteed edge on {tuple(points)}")
    if 360.0 - spanning_arc(bis)[1] > 120.0 + ANGLE_TOL_DEG:
        raise GuaranteeViolation(
            f"triplet gadget with bisectors {bis} leaves a direction uncovered on {tuple(points)}"
        )
    wedges = tuple(Wedge(points[i], Direction(bis[i]), 120.0) for i in range(3))
    return ScalarTriplet(bl, br, pk, reflected, wedges)  # type: ignore[arg-type]


def batch_triplets(groups: Sequence[PointSet]) -> list[ScalarTriplet]:
    """``gadget.orient_triplet`` on the groups of three points, all in one
    call, with each row as a ``ScalarTriplet``."""
    points = [p for group in groups for p in group]
    tri = orient_triplet(points, np.arange(len(points)).reshape(-1, 3))
    return [
        ScalarTriplet(*roles, reflected, tuple(Wedge(p, Direction(b), 120.0) for p, b in zip(group, bis)))
        for group, roles, reflected, bis in zip(
            groups, tri.roles.tolist(), tri.reflected.tolist(), tri.bisectors.tolist()
        )
    ]


def covering_wedge(center: Point, neighbors: PointSet, aperture_deg: float) -> Wedge:
    """Wedge of the given aperture at center bisecting the spanning arc of
    its neighbors' directions (``spanning_arc``)."""
    start, extent = spanning_arc([direction(center, q).degrees for q in neighbors])
    return Wedge(center, Direction(start + extent / 2.0), aperture_deg)


def aim_leftovers_scalar(
    points: PointSet,
    wedges: list[Optional[Wedge]],
    leftovers: Sequence[int],
    host: Sequence[int],
    aperture_deg: float,
    radius: Optional[float] = None,
) -> list[tuple[int, int]]:
    """Aim each leftover's wedge at the apex of the nearest host wedge that
    contains it (``Wedge.contains``), ties to the lower index; fills
    ``wedges`` in place and returns the new edges."""
    edges = []
    for p in leftovers:
        covering = [x for x in host if wedges[x] is not None and wedges[x].contains(points[p])]
        if not covering:
            raise GuaranteeViolation(f"gadget wedges of group {tuple(host)} do not cover point {p}")
        x = min(covering, key=lambda i: (points[p].distance_to(points[i]), i))
        wedges[p] = Wedge(points[p], direction(points[p], points[x]), aperture_deg, radius)
        edges.append((p, x))
    return edges


def cross_edge_scalar(
    g: CommGraph, side_a: Sequence[int], side_b: Sequence[int]
) -> Optional[tuple[int, int]]:
    """Minimum-length edge (u, v) of g with u in side_a and v in side_b, or None.

    Ties go to the earliest u in side_a, then the earliest v in side_b, so
    the result does not depend on the vertex ids. The two sides must be
    disjoint.
    """
    at_b = {v: j for j, v in enumerate(side_b)}
    if not at_b.keys().isdisjoint(side_a):
        raise ValueError("cross_edge sides must be disjoint")
    best: Optional[tuple[float, int, int]] = None
    for i, u in enumerate(side_a):
        for v in g.neighbors(u):
            j = at_b.get(v)
            if j is not None:
                cand = (g.weight(u, v), i, j)
                if best is None or cand < best:
                    best = cand
    if best is None:
        return None
    return side_a[best[1]], side_b[best[2]]
