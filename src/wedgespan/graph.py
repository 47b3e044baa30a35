"""Communication graphs, unit disk graphs, Euclidean MST, and the doubled-MST tour."""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ApexMismatchError, GuaranteeViolation, TooFewPointsError
from .geom import (
    ALL_PAIRS_N,
    ANGLE_TOL_DEG,
    GRID_SIDE_CELLS,
    PointSet,
    REL_TOL,
    Wedge,
    check_distinct,
    coordinates,
    grid_pairs,
    points_coincide,
)


class CommGraph:
    """Undirected graph over vertex indices with Euclidean edge weights.

    Built once and then treated as read-only, so a finished graph can be
    shared freely across concurrent readers.
    """

    __slots__ = ("n", "_adj", "_weights")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, float]] = ()):
        self.n = n
        self._adj: list[list[int]] = [[] for _ in range(n)]
        self._weights: dict[tuple[int, int], float] = {}
        for u, v, w in edges:
            self.add_edge(u, v, w)

    def add_edge(self, u: int, v: int, weight: float) -> None:
        if u == v:
            raise ValueError("self-loops are not allowed")
        key = (u, v) if u < v else (v, u)
        if key in self._weights:
            return
        self._weights[key] = weight
        self._adj[u].append(v)
        self._adj[v].append(u)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._weights

    def weight(self, u: int, v: int) -> float:
        return self._weights[(u, v) if u < v else (v, u)]

    def neighbors(self, u: int) -> list[int]:
        return self._adj[u]

    def edges(self) -> list[tuple[int, int, float]]:
        return [(u, v, w) for (u, v), w in sorted(self._weights.items())]

    def edge_set(self) -> set[tuple[int, int]]:
        return set(self._weights)

    @property
    def edge_count(self) -> int:
        return len(self._weights)

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = [False] * self.n
        seen[0] = True
        stack = [0]
        count = 1
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == self.n


def _vertex_arrays(
    points: PointSet, wedges: Sequence[Wedge], ids: Sequence[int]
) -> tuple[np.ndarray, ...]:
    """Per-vertex columns for ``_covers``, after checking that each wedge's
    apex is at its point; ``ids`` names the vertices in the error."""
    for i, p, w in zip(ids, points, wedges):
        if not points_coincide(p, w.apex):
            raise ApexMismatchError(f"wedge {i} apex {w.apex} is not at point {p}")
    return (
        np.array([p.x for p in points]),
        np.array([p.y for p in points]),
        np.array([max(1.0, abs(p.x), abs(p.y)) for p in points]),
        np.array([w.apex.x for w in wedges]),
        np.array([w.apex.y for w in wedges]),
        np.array([max(1.0, abs(w.apex.x), abs(w.apex.y)) for w in wedges]),
        np.array([w.bisector.degrees for w in wedges]),
        np.array([w.aperture_deg / 2.0 for w in wedges]),
        np.array([math.inf if w.radius is None else w.radius for w in wedges]),
    )


def _covers(cols: tuple[np.ndarray, ...], w, q) -> np.ndarray:
    """``Wedge.contains`` elementwise: wedge ``w`` looking at point ``q``,
    both indices (or broadcasting slices) into the ``_vertex_arrays`` columns."""
    qx, qy, q_scale, ax, ay, a_scale, bis, half, rad = cols
    dx = qx[q] - ax[w]
    dy = qy[q] - ay[w]
    dist = np.hypot(dx, dy)
    delta = (np.degrees(np.arctan2(dy, dx)) - bis[w] + 180.0) % 360.0 - 180.0
    covers = (np.abs(delta) <= half[w] + ANGLE_TOL_DEG) & (dist <= rad[w] * (1.0 + REL_TOL))
    covers |= dist <= REL_TOL * np.maximum(a_scale[w], q_scale[q])
    return covers


def induced_graph(
    points: PointSet,
    wedges: Sequence[Optional[Wedge]],
    pairs: Optional[tuple[Sequence[int], Sequence[int]]] = None,
) -> CommGraph:
    """Symmetric communication graph: edge (u,v) iff each point lies in the
    other's wedge and both range limits (when present) are satisfied.

    Containment is ``Wedge.contains`` evaluated at once for every pair or,
    given ``pairs=(a, b)``, only for the candidate pairs ``(a[k], b[k])``;
    then only the wedges of vertices in some pair are read (and their apexes
    checked), so the others may be None. Each kept edge is weighted by
    ``Point.distance_to`` from its lower to its higher index.
    """
    g = CommGraph(len(points))
    if pairs is None:
        if len(points) != len(wedges):
            raise ApexMismatchError(f"{len(points)} points but {len(wedges)} wedges")
        cols = _vertex_arrays(points, wedges, range(len(points)))  # type: ignore[arg-type]
        covers = _covers(cols, np.s_[:, None], np.s_[None, :])  # row i: wedge i, every point
        iu, iv = np.nonzero(covers & covers.T)
    else:
        a, b = (np.asarray(side, dtype=np.intp) for side in pairs)
        in_pair = np.zeros(len(points), dtype=bool)
        in_pair[a] = in_pair[b] = True
        ids = in_pair.nonzero()[0].tolist()
        at = in_pair.cumsum() - 1  # each vertex's row in cols; np.unique would import numpy.ma
        cols = _vertex_arrays([points[i] for i in ids], [wedges[i] for i in ids], ids)  # type: ignore[misc]
        mutual = _covers(cols, at[a], at[b]) & _covers(cols, at[b], at[a])
        iu, iv = np.minimum(a, b)[mutual], np.maximum(a, b)[mutual]
    for u, v in zip(iu.tolist(), iv.tolist()):
        if u < v:
            g.add_edge(u, v, points[u].distance_to(points[v]))
    return g


def unit_disk_graph(points: PointSet, r: float = 1.0) -> CommGraph:
    """Edge between u and v iff |uv| <= r (closed boundary, relative tolerance).

    The candidate pairs come from ``grid_pairs`` at the tolerant radius, so
    memory is O(n+m); up to ``ALL_PAIRS_N`` points every pair is one. Edges
    carry ``Point.distance_to`` weights and neighbour lists come out
    ascending.
    """
    limit = r * (1.0 + REL_TOL)
    n = len(points)
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    if n <= ALL_PAIRS_N:
        pairs = itertools.combinations(range(n), 2)
    else:
        blocks = grid_pairs(coordinates(points), limit)
        pairs = (uv for first, second in blocks for uv in zip(first.tolist(), second.tolist()))
    edges = []
    for u, v in pairs:
        d = math.hypot(xs[v] - xs[u], ys[v] - ys[u])  # == Point.distance_to, either way round
        if d <= limit:
            edges.append((u, v, d) if u < v else (v, u, d))
    edges.sort()
    return CommGraph(n, edges)


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
    weight = 0.0
    for u, v in norm:
        if not sets.union(u, v):
            raise ValueError(f"edge ({u},{v}) creates a cycle")
        weight += points[u].distance_to(points[v])
    return SpanningTree(norm, weight)


# Most candidate pairs per point that euclidean_mst gathers before it
# halves its radius.
_PAIRS_PER_POINT = 32
# Distances a dense step computes per block of tree rows.
_DENSE_BLOCK = 1 << 13


def euclidean_mst(points: PointSet) -> SpanningTree:
    """Minimum spanning tree of the complete Euclidean graph.

    Above ``ALL_PAIRS_N`` points, Prim's algorithm over the pairs within a
    radius ``r`` (``grid_pairs``), finishing a step densely when no such pair
    leaves the tree; up to it, Prim over the full distance matrix. The result
    is the tree dense Prim (``oracle.dense_prim_mst``) returns, edge for edge
    and with the same weight bits, because each of its rules is kept:

    * distances are ``np.hypot(x_j - x_k, y_j - y_k)``, the floats dense Prim
      compares (``hypot`` is exact under negation);
    * it joins the lowest-index vertex at the minimum distance from the tree,
      attached to the earliest-joined tree vertex at that distance: a heap
      keyed ``(d, j)`` over the pairs within ``r``, relaxed with strict ``<``
      in join order. While the heap holds a live entry, every pair at the
      minimum distance is within ``r`` and so on the heap;
    * when it holds none, every tree-to-outside pair is longer than ``r``.
      The rows of the tree vertices joined since the last such step are
      folded, in join order, into a running (minimum, first parent) over the
      outside vertices, and the lowest-index minimum joins;
    * the weight is summed in join order.

    ``r`` comes from the bounding box: the radius at which a uniform sample
    has ``ln n + 4`` neighbours, or two mean gaps for flat inputs, halved
    while the grid holds more than ``_PAIRS_PER_POINT`` candidates per
    point (dense clusters), and 0, every step dense, when the points are
    packed too tightly for any cell to help. ``r`` trades pairs against
    dense steps and never changes the tree.
    """
    n = len(points)
    if n < 1:
        raise TooFewPointsError("euclidean_mst requires at least one point")
    check_distinct(points)
    if n == 1:
        return SpanningTree((), 0.0)
    xy = coordinates(points)
    edges = _matrix_prim(xy) if n <= ALL_PAIRS_N else _grid_prim(xy)
    weight = sum(points[u].distance_to(points[v]) for u, v in edges)
    return SpanningTree(tuple(sorted(edges)), weight)


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


def _grid_prim(xy: np.ndarray) -> list[tuple[int, int]]:
    """Dense Prim's edges, in join order, from the pairs within ``r``."""
    n = len(xy)
    xs, ys = xy[:, 0], xy[:, 1]
    w, h = (xy.max(axis=0) - xy.min(axis=0)).tolist()
    r = max(math.sqrt(w * h * (math.log(n) + 4.0) / (math.pi * n)), 2.0 * max(w, h) / n)
    ptr, nbr, nbr_d = _near_pairs(xy, r)

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


def _near_pairs(xy: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjacency of the pairs at ``np.hypot`` distance <= r, both directions:
    vertex k's neighbours are ``nbr[ptr[k]:ptr[k + 1]]`` at distances
    ``nbr_d[ptr[k]:ptr[k + 1]]``. ``r`` is halved until ``grid_pairs`` holds
    at most ``_PAIRS_PER_POINT`` candidates per point. Once its cells reach
    their narrowest (more points packed in one cell than the budget allows),
    halving cannot help and the adjacency is empty: ``r = 0``, dense Prim."""
    n = len(xy)
    narrowest = float(np.ptp(xy, axis=0).max()) / GRID_SIDE_CELLS
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
    src = np.concatenate((a, b))
    by_vertex = src.argsort(kind="stable")
    ptr = src[by_vertex].searchsorted(np.arange(n + 1, dtype=src.dtype))
    del src
    nbr = np.concatenate((b, a))[by_vertex]
    del a, b
    return ptr, nbr, d.take(by_vertex, mode="wrap")


def _fold_rows(
    xs: np.ndarray,
    ys: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    col_d: np.ndarray,
    col_parent: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold the distances from the tree vertices ``rows``, in join order, into
    the running minimum ``col_d`` of the vertices ``cols`` and the first tree
    vertex ``col_parent`` attaining it (strict ``<``, as dense Prim)."""
    cx, cy = xs[cols], ys[cols]
    step = max(1, _DENSE_BLOCK // len(cols))
    for s in range(0, len(rows), step):
        block = rows[s : s + step]
        dist = np.hypot(cx - xs[block, None], cy - ys[block, None])
        low = dist.min(axis=0)
        better = low < col_d
        col_d[better] = low[better]
        col_parent[better] = block[dist.argmin(axis=0)[better]]
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


def tsp_tour(points: PointSet, mst: Optional[SpanningTree] = None) -> Tour:
    """2-approximate TSP tour: preorder walk of the Euclidean MST with shortcuts.

    Root is vertex 0 and children are visited in ascending index order, so
    the result is deterministic. Raises GuaranteeViolation unless
    weight <= 2 * MST weight.
    """
    n = len(points)
    if n < 2:
        raise TooFewPointsError("tsp_tour requires at least two points")
    if mst is None:
        mst = euclidean_mst(points)
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
    edge_weights = tuple(
        points[order[i]].distance_to(points[order[(i + 1) % n]]) for i in range(n)
    )
    weight = sum(edge_weights)
    if weight > 2.0 * mst.weight * (1.0 + REL_TOL):
        raise GuaranteeViolation(
            f"shortcut tour {order} weighs {weight}, more than twice the MST weight {mst.weight}"
        )
    return Tour(tuple(order), weight, edge_weights)


def cross_edge(
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
