"""Communication graphs, unit disk graphs, Euclidean MST, and the doubled-MST tour."""

from __future__ import annotations

import heapq
import math
import sys
from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import ApexMismatchError, GuaranteeViolation, TooFewPointsError
from .geom import (
    ANGLE_TOL_DEG,
    GRID_SIDE_CELLS,
    REL_TOL,
    Edges,
    Point,
    PointArray,
    PointSet,
    Wedge,
    check_distinct,
    column_wedge,
    coordinates,
    edge_array,
    grid_pairs,
    normalize_degrees,
    points_coincide,
    wedge_columns,
)


class CommGraph:
    """Undirected graph over vertices 0..n-1 with Euclidean edge weights.

    Edge k is ``(u[k], v[k])``, u[k] < v[k], of weight ``w[k]``, in ascending
    order; ``neighbors(x)`` is x's ascending row of shared int objects. The
    arrays are fixed at construction; the rows are built by the first call
    that walks them, and the graph is read-only from then on.
    """

    __slots__ = ("n", "u", "v", "w", "_rows", "_base")

    def __init__(self, n: int, u: Sequence[int], v: Sequence[int], w: Sequence[float]):
        u, v, w = np.asarray(u, np.intp), np.asarray(v, np.intp), np.asarray(w, np.float64)
        if not len(u) == len(v) == len(w):
            raise ValueError(f"{len(u)} and {len(v)} edge ends but {len(w)} weights")
        bad = (u >= v) | (u < 0) | (v >= n)
        key = u * n + v
        bad[1:] |= key[1:] <= key[:-1]
        if bad.any():
            k = int(bad.argmax())
            raise ValueError(f"edge {k} ({u[k]},{v[k]}) is not an ascending pair u < v in 0..{n - 1}")
        self.n, self.u, self.v, self.w = n, u, v, w

    def __getattr__(self, name: str) -> list:
        """Build the rows, ``_rows`` and ``_base``, when first read."""
        if name not in ("_rows", "_base"):
            raise AttributeError(name)
        n, u, v = self.n, self.u, self.v
        # Row x: the u of each edge (u, x), then the v of each (x, v), both ascending.
        ids = list(range(n))
        ul, vl = list(map(ids.__getitem__, u.tolist())), list(map(ids.__getitem__, v.tolist()))
        self._rows = rows = [[] for _ in ids]
        for a, b in zip(ul + vl, vl + ul):
            rows[b].append(a)
        # Edge (x, y), x < y, is edge _base[x] + i, where row x holds y at i.
        self._base = (u.searchsorted(np.arange(n)) - np.bincount(v, minlength=n)).tolist()
        return getattr(self, name)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._rows[u]

    def weight(self, u: int, v: int) -> float:
        if u > v:
            u, v = v, u
        try:
            return self.w.item(self._base[u] + self._rows[u].index(v))
        except ValueError:
            raise KeyError((u, v)) from None

    def neighbors(self, u: int) -> list[int]:
        return self._rows[u]

    def edges(self) -> list[tuple[int, int, float]]:
        return list(zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))

    @property
    def edge_count(self) -> int:
        return len(self.u)

    def degree(self, u: int) -> int:
        return len(self._rows[u])

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            for v in self._rows[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n


class _Rows(NamedTuple):
    """Point k and its wedge, as the per-row columns ``_covers`` reads."""

    qx: np.ndarray
    qy: np.ndarray
    q_scale: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    a_scale: np.ndarray
    bis: np.ndarray
    aperture: np.ndarray
    rad: np.ndarray


def _vertex_arrays(xy: np.ndarray, wedges: np.ndarray, apexes: Optional[np.ndarray] = None) -> _Rows:
    """The ``_Rows`` of the points ``xy`` and their ``wedge_columns`` rows,
    whose apexes are ``apexes``, or the points themselves. The bisectors are
    normalised as ``Direction`` does, which ``_covers``' angle band assumes."""
    q_scale = np.abs(xy).max(axis=1, initial=1.0)
    a_scale = q_scale if apexes is None else np.abs(apexes).max(axis=1, initial=1.0)
    apexes = xy if apexes is None else apexes
    bis, aperture, rad = wedges.T
    return _Rows(*xy.T, q_scale, *apexes.T, a_scale, normalize_degrees(bis.copy()), aperture, rad)


# Widths of the bands around _covers' three boundaries inside which it
# re-decides by Wedge.contains: relative, for distances (np.hypot and
# math.hypot are each within an ulp of the true length), and in degrees, for
# the angle (an ulp of np.arctan2 grows to under 5e-13 through the
# bisector offset's roundings).
_DIST_BAND = 8.0 * sys.float_info.epsilon
_ANGLE_BAND = 1e-11
# Edges non_mutual_edges evaluates at a time, which bounds its arrays.
_EDGE_BLOCK = 1 << 14


def _covers(rows: _Rows, w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``Wedge.contains`` elementwise: wedge ``w`` looking at point ``q``,
    both index arrays into ``rows``; equal to it entry for entry.

    ``np.arctan2`` and ``np.hypot`` are not bit-equal to ``math.atan2`` and
    ``math.hypot`` (``np.arctan2`` is an ulp off on about 7.6% of random
    vectors), so an entry whose distance or angle lies within a few ulps of
    the coincidence tolerance, the widened range or the widened half-aperture
    is decided by ``Wedge.contains`` itself.
    """
    dx = rows.qx[q] - rows.ax[w]
    dy = rows.qy[q] - rows.ay[w]
    dist = np.hypot(dx, dy)
    near = REL_TOL * np.maximum(rows.a_scale[w], rows.q_scale[q])
    reach = rows.rad[w] * (1.0 + REL_TOL)
    limit = rows.aperture[w] / 2.0 + ANGLE_TOL_DEG
    delta = np.abs((np.degrees(np.arctan2(dy, dx)) - rows.bis[w] + 180.0) % 360.0 - 180.0)
    covers = (dist <= near) | ((dist <= reach) & (delta <= limit))
    with np.errstate(invalid="ignore"):  # inf - inf: an unbounded range, far off
        band = np.abs(dist - near) <= _DIST_BAND * dist
        band |= np.abs(dist - reach) <= _DIST_BAND * dist
    band |= np.abs(delta - limit) <= _ANGLE_BAND
    for k in band.nonzero()[0].tolist():
        i, j = w.item(k), q.item(k)
        apex = Point(rows.ax.item(i), rows.ay.item(i))
        wedge = column_wedge(apex, rows.bis.item(i), rows.aperture.item(i), rows.rad.item(i))
        covers[k] = wedge.contains(Point(rows.qx.item(j), rows.qy.item(j)))
    return covers


def non_mutual_edges(points: PointSet, wedges: np.ndarray, edges: Edges) -> list[tuple[int, int]]:
    """The edges (u, v), in order, for which wedge u does not contain
    ``points[v]`` or wedge v does not contain ``points[u]``; wedge k is row k
    of ``wedge_columns`` with its apex at ``points[k]``.

    Every edge is evaluated both ways by ``_covers``, ``_EDGE_BLOCK`` edges
    at a time.
    """
    rows = _vertex_arrays(coordinates(points), wedges)
    ends = edge_array(edges)
    failed = [ends[:0]]
    for start in range(0, len(ends), _EDGE_BLOCK):
        u, v = ends[start : start + _EDGE_BLOCK].T
        both = _covers(rows, np.concatenate((u, v)), np.concatenate((v, u)))
        failed.append(ends[start + (~(both[: len(u)] & both[len(u) :])).nonzero()[0]])
    return list(map(tuple, np.concatenate(failed).tolist()))


def _candidate_pairs(
    xy: np.ndarray, radius: float, pad: float = 0.0
) -> Iterable[tuple[np.ndarray, np.ndarray]]:
    """Index pairs (i, j), in blocks, holding every two points within ``radius``
    + ``pad``: ``grid_pairs`` blocks at ``radius`` capped at the bounding box's
    diagonal (so an unbounded radius still gives every pair), plus ``pad``;
    none for fewer than two points."""
    if len(xy) < 2:
        return ()
    width, height = np.ptp(xy, axis=0).tolist()
    return grid_pairs(xy, min(radius, math.hypot(width, height)) + pad)


def induced_graph(
    points: PointSet,
    wedges: Union[Sequence[Optional[Wedge]], np.ndarray],
    pairs: Optional[tuple[Sequence[int], Sequence[int]]] = None,
) -> CommGraph:
    """Symmetric communication graph: edge (u,v) iff each point lies in the
    other's wedge and both range limits (when present) are satisfied.

    The wedges are Wedge objects, or ``wedge_columns`` rows whose apexes are
    the points. Containment is ``Wedge.contains``' rules (``_covers``)
    evaluated for candidate pairs only, so memory stays O(n + m): a's wedge
    holding b, then b's holding a where the first holds. Given
    ``pairs=(a, b)``, index arrays of one shape, the candidates are the
    pairs ``(a[k], b[k])``; then only the wedges of vertices in some pair are
    read (and the apexes of objects checked), so the others may be None or
    unset rows. Otherwise they are ``_candidate_pairs`` at the largest
    tolerant wedge range, padded by twice the largest apex tolerance (an apex
    may sit that far from its point, and ranges are measured from the apex).
    Each edge is weighted by ``Point.distance_to``.
    """
    n = len(points)
    xy = coordinates(points)
    if pairs is None:
        if n != len(wedges):
            raise ApexMismatchError(f"{n} points but {len(wedges)} wedges")
        at = ids = np.arange(n)
    else:
        a, b = (np.asarray(side, dtype=np.intp).ravel() for side in pairs)
        in_pair = np.zeros(n, dtype=bool)
        in_pair[a] = in_pair[b] = True
        ids = in_pair.nonzero()[0]
        at = in_pair.cumsum() - 1  # each vertex's row in rows
        xy = xy[ids]
    if isinstance(wedges, np.ndarray):
        rows = _vertex_arrays(xy, wedges[ids])
    else:
        own: list[Wedge] = [wedges[i] for i in ids.tolist()]  # type: ignore[misc]
        rows = _vertex_arrays(xy, wedge_columns(own), coordinates([w.apex for w in own]))
        for k in ((rows.ax != rows.qx) | (rows.ay != rows.qy)).nonzero()[0].tolist():
            i = ids.item(k)
            if not points_coincide(points[i], own[k].apex):  # an apex must be at its point
                raise ApexMismatchError(f"wedge {i} apex {own[k].apex} is not at point {points[i]}")
    if pairs is None:
        pad = 2.0 * REL_TOL * max(rows.q_scale.max(initial=1.0), rows.a_scale.max(initial=1.0))
        blocks = _candidate_pairs(xy, rows.rad.max(initial=0.0) * (1.0 + REL_TOL), pad)
    else:
        blocks = [(a, b)]
    kept = [(np.empty(0, np.intp), np.empty(0, np.intp))]
    for a, b in blocks:
        ahead = _covers(rows, at[a], at[b])  # wedge a holds b; then, of those, wedge b holds a
        a, b = a[ahead], b[ahead]
        mutual = _covers(rows, at[b], at[a])
        kept.append((np.minimum(a, b)[mutual], np.maximum(a, b)[mutual]))
    u, v = (np.concatenate(side) for side in zip(*kept))
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    once = u < v  # given pairs may repeat, or join a vertex to itself
    once[1:] &= (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    u, v = u[once], v[once]
    return CommGraph(n, u, v, edge_lengths(xy, at[u], at[v]))


def unit_disk_graph(points: PointSet) -> CommGraph:
    """Edge between u and v iff |uv| <= 1 (closed boundary, relative tolerance).

    The candidate pairs come from ``_candidate_pairs`` at the tolerant
    radius, so memory is O(n+m). Edges carry ``Point.distance_to`` weights.
    """
    limit = 1.0 + REL_TOL
    xy = coordinates(points)
    kept = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    for a, b in _candidate_pairs(xy, limit):
        u, v = np.minimum(a, b), np.maximum(a, b)
        d = edge_lengths(xy, u, v)
        near = d <= limit
        kept.append((u[near], v[near], d[near]))
    u, v, d = (np.concatenate(side) for side in zip(*kept))
    order = np.lexsort((v, u))
    return CommGraph(len(points), u[order], v[order], d[order])


def edge_lengths(xy: np.ndarray, u: Sequence[int], v: Sequence[int]) -> np.ndarray:
    """Each ``Point.distance_to`` from row u[k] to row v[k] of the coordinates
    ``xy``: ``math.hypot``, as ``np.hypot`` is not bit-equal."""
    xs, ys = xy.T
    return np.fromiter(map(math.hypot, (xs[v] - xs[u]).tolist(), (ys[v] - ys[u]).tolist()), float, len(u))


def sum_left(weights: Iterable[float]) -> float:
    """The weights summed left to right. Builtin ``sum`` compensates float
    rounding from Python 3.12 on, and would so change the bits."""
    total = 0.0
    for w in weights:
        total += w
    return total


def hop_distances_from(
    g: CommGraph, source: int, targets: Sequence[int]
) -> list[Optional[int]]:
    """BFS hop counts from source to each of targets (None where unreachable).

    The search stops as soon as every target has been reached.
    """
    dist = {source: 0}
    pending = set(targets)
    pending.discard(source)
    frontier = deque([source])
    while pending and frontier:
        u = frontier.popleft()
        du = dist[u] + 1
        for v in g.neighbors(u):
            if v not in dist:
                dist[v] = du
                pending.discard(v)
                frontier.append(v)
    return [dist.get(t) for t in targets]


@dataclass(frozen=True)
class SpanningTree:
    """Edge list of a spanning tree plus its total Euclidean weight."""

    edges: tuple[tuple[int, int], ...]
    weight: float

    @property
    def n(self) -> int:
        return len(self.edges) + 1


class DisjointSets:
    """Union-find over vertices 0..n-1 with path halving; ``count`` sets remain."""

    def __init__(self, n: int):
        self._parent = list(range(n))
        self.count = n

    def find(self, x: int) -> int:
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, u: int, v: int) -> bool:
        """Merge the sets of u and v; False when they were already one set."""
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        self._parent[ru] = rv
        self.count -= 1
        return True


def tree_from_edges(points: PointSet, edges: Iterable[tuple[int, int]]) -> SpanningTree:
    """Build a SpanningTree from index pairs, validating span and acyclicity."""
    n = len(points)
    norm = tuple(sorted((u, v) if u < v else (v, u) for u, v in edges))
    if len(norm) != n - 1:
        raise ValueError(f"spanning tree on {n} vertices needs {n - 1} edges, got {len(norm)}")
    sets = DisjointSets(n)
    xs, ys = coordinates(points).T.tolist()
    weight = 0.0
    for u, v in norm:
        if not sets.union(u, v):
            raise ValueError(f"edge ({u},{v}) creates a cycle")
        weight += math.hypot(xs[v] - xs[u], ys[v] - ys[u])  # Point.distance_to
    return SpanningTree(norm, weight)


# Up to this many points euclidean_mst runs Prim over the full distance
# matrix: at that size the grid's fixed numpy calls cost more than the
# matrix does.
ALL_PAIRS_N = 64
# Most candidate pairs per point that euclidean_mst gathers before it
# halves its radius.
_PAIRS_PER_POINT = 32
# Distances a dense step computes per block of tree rows.
_DENSE_BLOCK = 1 << 13

# The pairs (a[i], b[i]) at distance d[i] that ``_near_pairs`` returns.
_Pairs = tuple[np.ndarray, np.ndarray, np.ndarray]


def euclidean_mst(points: PointSet) -> SpanningTree:
    """Minimum spanning tree of the complete Euclidean graph.

    The result is the tree dense Prim (``dense_prim_mst`` in
    ``tests/reference.py``) returns, edge for edge and with the same weight
    bits: distances are ``np.hypot(x_j - x_k, y_j - y_k)``, the floats dense
    Prim compares (``hypot`` is exact under negation), and the weight is
    summed in dense Prim's join order. Up to ``ALL_PAIRS_N`` points, Prim
    runs over the full distance matrix. Above it, two routes share the pairs
    within a radius ``r`` (``_near_pairs``):

    * ``_boruvka_prim``, when there are pairs and no two are equally long.
      Borůvka's rounds over the pairs, then Prim over the components they
      leave, take each edge as the strictly shortest one between some vertex
      set and the rest, so the edge lies in every minimum spanning tree.
      The tree is then the only one, and so dense Prim's, whose join order
      a replay over its n - 1 edges recovers;
    * ``_grid_prim`` otherwise, or on a tie in a Prim step: Prim step by
      step, with dense Prim's tie rules.

    ``r`` comes from the bounding box: the radius at which a uniform sample
    has ``ln n + 4`` neighbours, or two mean gaps for flat inputs, halved
    while the grid holds more than ``_PAIRS_PER_POINT`` candidates per
    point (dense clusters), and 0, every step dense, when the points are
    packed too tightly for any cell to help. ``r`` trades pairs against
    dense steps and never changes the tree. A read-only ``PointArray`` keeps
    the tree of its first call, which later calls return.
    """
    if isinstance(points, PointArray) and points._mst is not None:
        return points._mst
    check_distinct(points)
    n = len(points)
    if n < 1:
        raise TooFewPointsError("euclidean_mst requires at least one point")
    xy = coordinates(points)
    with np.errstate(over="ignore"):  # distances past the float range are inf: build_tree reports them
        if n <= ALL_PAIRS_N:
            edges = _matrix_prim(xy)
        else:
            pairs = _near_pairs(xy)
            edges = _boruvka_prim(xy, pairs)
            if edges is None:  # a tie, or no pairs
                edges = _grid_prim(xy, pairs)
    xs, ys = xy.T.tolist()
    weight = sum_left(math.hypot(xs[v] - xs[u], ys[v] - ys[u]) for u, v in edges)  # Point.distance_to
    tree = SpanningTree(tuple(sorted(edges)), weight)
    if isinstance(points, PointArray):
        points._mst = tree
    return tree


def _matrix_prim(xy: np.ndarray) -> list[tuple[int, int]]:
    """Dense Prim's edges, in join order, over the full distance matrix."""
    n = len(xy)
    dist = np.hypot(xy[:, None, 0] - xy[:, 0], xy[:, None, 1] - xy[:, 1]).tolist()
    best = dist[0]
    parent = [0] * n
    outside = list(range(1, n))
    edges = []
    while outside:
        k = min(outside, key=best.__getitem__)  # the lowest index at the minimum
        outside.remove(k)
        u = parent[k]
        edges.append((u, k) if u < k else (k, u))
        row = dist[k]
        for j in outside:
            if row[j] < best[j]:
                best[j] = row[j]
                parent[j] = k
    return edges


def _grid_prim(xy: np.ndarray, pairs: _Pairs) -> list[tuple[int, int]]:
    """Dense Prim's edges, in join order, from ``_near_pairs``' pairs within
    ``r``, keeping each of its rules:

    * it joins the lowest-index vertex at the minimum distance from the tree,
      attached to the earliest-joined tree vertex at that distance: a heap
      keyed ``(d, j)`` over the pairs, relaxed with strict ``<`` in join
      order. While the heap holds a live entry, every pair at the minimum
      distance is within ``r`` and so on the heap;
    * when it holds none, every tree-to-outside pair is longer than ``r``.
      The rows of the tree vertices joined since the last such step are
      folded, in join order, into a running (minimum, first parent) over the
      outside vertices, and the lowest-index minimum joins.
    """
    n = len(xy)
    xs, ys = xy[:, 0], xy[:, 1]
    ptr, nbr, nbr_d = _adjacency(n, *pairs)
    ptr = ptr.tolist()  # list items index faster than numpy scalars

    in_tree = [False] * n
    best = [math.inf] * n
    parent = [0] * n
    heap: list[tuple[float, int]] = []
    live = 0  # outside vertices with a finite best, each with one live heap entry
    joined: list[int] = []
    folded = 0
    inside = np.zeros(n, dtype=bool)
    far_d = np.full(n, np.inf)
    far_parent = np.zeros(n, dtype=np.int64)
    edges = []
    k = 0
    while True:
        in_tree[k] = True
        joined.append(k)
        if len(joined) == n:
            return edges
        for j, dj in zip(nbr[ptr[k] : ptr[k + 1]].tolist(), nbr_d[ptr[k] : ptr[k + 1]].tolist()):
            if dj < best[j] and not in_tree[j]:
                live += best[j] == math.inf
                best[j] = dj
                parent[j] = k
                heapq.heappush(heap, (dj, j))
        if len(heap) > 2 * live + 64:  # mostly superseded entries
            heap = [e for e in heap if not in_tree[e[1]] and e[0] == best[e[1]]]
            heapq.heapify(heap)
        while heap and in_tree[heap[0][1]]:
            heapq.heappop(heap)
        if heap:
            k = heapq.heappop(heap)[1]
            u = parent[k]
            live -= 1
        else:
            rows = np.array(joined[folded:])
            folded = len(joined)
            inside[rows] = True
            cols = (~inside).nonzero()[0]
            col_d, col_parent = _fold_rows(xs, ys, rows, cols, far_d[cols], far_parent[cols])
            far_d[cols] = col_d
            far_parent[cols] = col_parent
            pick = int(col_d.argmin())
            k = int(cols[pick])
            u = int(col_parent[pick])
        edges.append((u, k) if u < k else (k, u))


def _boruvka_prim(xy: np.ndarray, pairs: _Pairs) -> Optional[list[tuple[int, int]]]:
    """Dense Prim's edges, in join order, from ``_near_pairs``' pairs within
    ``r``; None when two of the pairs are equally long, when there are none
    (``r = 0``: ``_grid_prim`` is then plain dense Prim, with less to keep
    per step), or when a Prim step below ties.

    * Borůvka: each round, every component takes its shortest pair to
      another, the first such in distance order, and the components merge
      along the taken pairs by pointer jumping. With no two pairs equally
      long, the taken pairs close no cycle.
    * A component left with no pair out is more than ``r`` from every other
      point. Prim joins these components: each joined component's rows are
      folded once (``_fold_rows``) into the running minimum of the outside
      vertices, and the shortest pair across joins, unless another pair
      across is just as short.
    * Every edge so taken is the strictly shortest between some vertex set
      and the rest, so the tree is the only minimum spanning tree, and
      ``_prim_order`` replays dense Prim's join order over its edges.
    """
    n = len(xy)
    xs, ys = xy[:, 0], xy[:, 1]
    a, b, d = pairs
    if not len(d) or (d[1:] == d[:-1]).any():
        return None
    comp = np.arange(n, dtype=np.int32)  # each vertex's component, named by one of its vertices
    taken = np.zeros(len(d), dtype=bool)
    ids = np.arange(len(d), dtype=np.int32)
    while True:
        ca, cb = comp[a], comp[b]
        apart = ca != cb
        a, b, ids, ca, cb = a[apart], b[apart], ids[apart], ca[apart], cb[apart]
        if not len(ids):
            break
        first = np.full(n, len(ids), dtype=np.int32)  # each component's shortest pair out
        at = np.arange(len(ids), dtype=np.int32)
        np.minimum.at(first, ca, at)
        np.minimum.at(first, cb, at)
        c = (first < len(ids)).nonzero()[0]
        e = first[c]
        taken[ids[e]] = True
        link = np.arange(n, dtype=np.int32)
        link[c] = to = np.where(ca[e] == c, cb[e], ca[e])
        mutual = (link[to] == c) & (c < to)  # both took the same pair: the lower one roots
        link[c[mutual]] = c[mutual]
        while not np.array_equal(jump := link[link], link):
            link = jump
        comp = link[comp]

    tree_u, tree_v, tree_d = (side[taken] for side in pairs)
    if len(tree_d) < n - 1:
        # Prim over the components, from vertex 0's.
        by_comp = comp.argsort(kind="stable")
        start = comp[by_comp].searchsorted(np.arange(n + 1, dtype=comp.dtype)).tolist()
        cols = np.arange(n)
        col_d = np.full(n, np.inf)
        col_parent = np.zeros(n, dtype=np.int64)
        col_tie = np.zeros(n, dtype=bool)
        cross: list[tuple[int, int, float]] = []
        k = 0
        for _ in range(n - 1 - len(tree_d)):
            c = comp[k]
            out = comp[cols] != c
            cols, col_d, col_parent, col_tie = cols[out], col_d[out], col_parent[out], col_tie[out]
            _fold_rows(xs, ys, by_comp[start[c] : start[c + 1]], cols, col_d, col_parent, col_tie)
            pick = int(col_d.argmin())
            if col_tie[pick] or np.count_nonzero(col_d == col_d[pick]) > 1:
                return None
            k = int(cols[pick])
            cross.append((int(col_parent[pick]), k, col_d.item(pick)))
        cu, cv, cd = zip(*cross)
        tree_u, tree_v, tree_d = (np.concatenate(part) for part in zip((tree_u, tree_v, tree_d), (cu, cv, cd)))
    return _prim_order(n, tree_u, tree_v, tree_d)


def _prim_order(n: int, u: np.ndarray, v: np.ndarray, d: np.ndarray) -> list[tuple[int, int]]:
    """The edges (u[i], v[i]) of the only minimum spanning tree, d[i] long,
    in dense Prim's join order from vertex 0.

    Dense Prim joins the lowest-index vertex j at the minimum distance m from
    the part built so far. Every pair across at distance m lies in the only
    minimum spanning tree, which has one edge from j into that part, so a
    heap keyed ``(d, j)`` over the tree edges leaving the part picks the
    same vertex and edge. Raises GuaranteeViolation unless the edges span
    the n vertices.
    """
    ptr, nbr, nbr_d = (part.tolist() for part in _adjacency(n, u, v, d))
    joined = [False] * n
    parent = [0] * n
    heap: list[tuple[float, int]] = []
    edges = []
    k = 0
    while True:
        joined[k] = True
        for i in range(ptr[k], ptr[k + 1]):
            j = nbr[i]
            if not joined[j]:
                parent[j] = k
                heapq.heappush(heap, (nbr_d[i], j))
        while heap and joined[heap[0][1]]:
            heapq.heappop(heap)
        if not heap:
            break
        k = heapq.heappop(heap)[1]
        j = parent[k]
        edges.append((j, k) if j < k else (k, j))
    if len(edges) != n - 1:
        raise GuaranteeViolation(f"{len(u)} tree edges reach {len(edges) + 1} of {n} points from point 0")
    return edges


def _near_pairs(xy: np.ndarray) -> _Pairs:
    """The pairs (a[i], b[i]), a[i] != b[i], at ``np.hypot`` distance
    d[i] <= r, each once, in ascending d (int32, int32, float64). ``r``
    starts at the bounding box's estimate (``euclidean_mst``) and is halved
    until ``grid_pairs`` holds at most ``_PAIRS_PER_POINT`` candidates per
    point. Once its cells reach their narrowest (more points packed in one
    cell than the budget allows), halving cannot help and there are no
    pairs: ``r = 0``."""
    n = len(xy)
    w, h = np.ptp(xy, axis=0).tolist()
    r = max(math.sqrt(w * h * (math.log(n) + 4.0) / (math.pi * n)), 2.0 * max(w, h) / n)
    narrowest = max(w, h) / GRID_SIDE_CELLS
    while narrowest < r * (1.0 + REL_TOL) < math.inf:  # False for nan, too
        if (blocks := grid_pairs(xy, r, _PAIRS_PER_POINT * n)) is not None:
            break
        r /= 2.0
    else:
        blocks, r = (), 0.0
    xs, ys = xy[:, 0], xy[:, 1]
    kept = [(np.empty(0, np.int32), np.empty(0, np.int32), np.empty(0))]  # the grid may hold none
    for a, b in blocks:
        d = np.hypot(xs[b] - xs[a], ys[b] - ys[a])
        near = d <= r
        kept.append((a[near], b[near], d[near]))
    a, b, d = (np.concatenate(part) for part in zip(*kept))
    del kept
    order = d.argsort()
    return a[order], b[order], d[order]


def _adjacency(n: int, a: np.ndarray, b: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs (a[i], b[i]) at distance d[i] in both directions: vertex
    k's neighbours are ``nbr[ptr[k]:ptr[k + 1]]`` at distances
    ``nbr_d[ptr[k]:ptr[k + 1]]``."""
    src = np.concatenate((a, b))
    by_vertex = src.astype(np.min_scalar_type(n)).argsort(kind="stable")  # radix, for 16-bit keys
    ptr = src[by_vertex].searchsorted(np.arange(n + 1, dtype=src.dtype))
    del src
    nbr = np.concatenate((b, a))[by_vertex]
    return ptr, nbr, d.take(by_vertex, mode="wrap")


def _fold_rows(
    xs: np.ndarray,
    ys: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    col_d: np.ndarray,
    col_parent: np.ndarray,
    col_tie: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold the distances from the tree vertices ``rows``, in join order, into
    the running minimum ``col_d`` of the vertices ``cols`` and the first tree
    vertex ``col_parent`` attaining it (strict ``<``, as dense Prim). Given
    ``col_tie``, keep in it whether a second tree vertex attains each
    column's minimum."""
    cx, cy = xs[cols], ys[cols]
    step = max(1, _DENSE_BLOCK // len(cols))
    for s in range(0, len(rows), step):
        block = rows[s : s + step]
        dist = np.hypot(cx - xs[block, None], cy - ys[block, None])
        low = dist.min(axis=0)
        if col_tie is not None:
            col_tie |= low == col_d
        better = (low < col_d).nonzero()[0]
        dist = dist[:, better]
        col_d[better] = low = low[better]
        col_parent[better] = block[dist.argmin(axis=0)]
        if col_tie is not None:
            col_tie[better] = np.count_nonzero(dist == low, axis=0) > 1
    return col_d, col_parent


@dataclass(frozen=True)
class Tour:
    """Cyclic visiting order of all vertices; weight includes the closing edge."""

    order: tuple[int, ...]
    weight: float
    edge_weights: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.order)

    def edge(self, i: int) -> tuple[int, int]:
        return self.order[i], self.order[(i + 1) % self.n]


def tsp_tour(points: PointSet, mst: SpanningTree) -> Tour:
    """2-approximate TSP tour: preorder walk of ``mst``, the points' Euclidean
    MST, with shortcuts.

    Root is vertex 0 and children are visited in ascending index order, so
    the result is deterministic. Raises GuaranteeViolation unless
    weight <= 2 * MST weight.
    """
    n = len(points)
    if n < 2:
        raise TooFewPointsError("tsp_tour requires at least two points")
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in mst.edges:
        adj[u].append(v)
        adj[v].append(u)
    for lst in adj:
        lst.sort()
    order = []
    seen = [False] * n
    stack = [0]
    while stack:
        u = stack.pop()
        if seen[u]:
            continue
        seen[u] = True
        order.append(u)
        for v in reversed(adj[u]):
            if not seen[v]:
                stack.append(v)
    xs, ys = coordinates(points).T.tolist()
    edge_weights = tuple(  # Point.distance_to
        math.hypot(xs[b] - xs[a], ys[b] - ys[a]) for a, b in zip(order, order[1:] + order[:1])
    )
    weight = sum_left(edge_weights)
    if weight > 2.0 * mst.weight * (1.0 + REL_TOL):
        raise GuaranteeViolation(
            f"shortcut tour {order} weighs {weight}, more than twice the MST weight {mst.weight}"
        )
    return Tour(tuple(order), weight, edge_weights)


def cross_pairs(sides_a: np.ndarray, sides_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every u of row k of the (k, p) ``sides_a`` with every v of the (k, q)
    ``sides_b``: two (k, p, q) index arrays."""
    p, q = sides_a.shape[1], sides_b.shape[1]
    return np.repeat(sides_a[:, :, None], q, axis=2), np.repeat(sides_b[:, None, :], p, axis=1)


def cross_edge(g: CommGraph, sides_a: np.ndarray, sides_b: np.ndarray) -> list[Optional[tuple[int, int]]]:
    """Per row k, the minimum-length edge (u, v) of g with u in
    ``sides_a[k]`` and v in ``sides_b[k]``, or None; the sides are (k, p)
    and (k, q) index arrays.

    Ties go to the earliest u in ``sides_a[k]``, then the earliest v in
    ``sides_b[k]``, so the result does not depend on the vertex ids. Each
    row's two sides must be disjoint.
    """
    if not len(sides_a):
        return []
    sides_a, sides_b = np.asarray(sides_a, np.intp), np.asarray(sides_b, np.intp)
    cu, cv = sides_a[:, :, None], sides_b[:, None, :]
    if (cu == cv).any():
        raise ValueError("cross_edge sides must be disjoint")
    q = sides_b.shape[1]
    key = (np.minimum(cu, cv) * g.n + np.maximum(cu, cv)).reshape(-1, sides_a.shape[1] * q)  # u by u
    keys = np.concatenate((g.u * g.n + g.v, [g.n * g.n]))  # the last is past every key: no lookup overruns
    at = keys.searchsorted(key)
    found = keys[at] == key
    rows = np.arange(len(key))
    pick = np.where(found, np.concatenate((g.w, [np.inf]))[at], np.inf).argmin(axis=1)
    pick = np.where(found[rows, pick], pick, found.argmax(axis=1))  # all its edges weigh inf
    ends = zip(sides_a[rows, pick // q].tolist(), sides_b[rows, pick % q].tolist())
    return [edge if ok else None for edge, ok in zip(ends, found.any(axis=1).tolist())]
