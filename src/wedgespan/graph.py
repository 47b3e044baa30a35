"""Communication graphs, unit disk graphs, Euclidean MST, and the doubled-MST tour."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ApexMismatchError, GuaranteeViolation, TooFewPointsError
from .geom import ANGLE_TOL_DEG, PointSet, REL_TOL, Wedge, check_distinct, points_coincide


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


def _check_apexes(points: PointSet, wedges: Sequence[Wedge]) -> None:
    if len(points) != len(wedges):
        raise ApexMismatchError(
            f"{len(points)} points but {len(wedges)} wedges"
        )
    for i, (p, w) in enumerate(zip(points, wedges)):
        if not points_coincide(p, w.apex):
            raise ApexMismatchError(f"wedge {i} apex {w.apex} is not at point {p}")


def induced_graph(points: PointSet, wedges: Sequence[Wedge]) -> CommGraph:
    """Symmetric communication graph: edge (u,v) iff each point lies in the
    other's wedge and both range limits (when present) are satisfied.

    Containment is ``Wedge.contains`` evaluated for all pairs at once; each
    kept edge is weighted by ``Point.distance_to``.
    """
    _check_apexes(points, wedges)
    qx = np.array([p.x for p in points])
    qy = np.array([p.y for p in points])
    q_scale = np.array([max(1.0, abs(p.x), abs(p.y)) for p in points])
    ax = np.array([w.apex.x for w in wedges])
    ay = np.array([w.apex.y for w in wedges])
    a_scale = np.array([max(1.0, abs(w.apex.x), abs(w.apex.y)) for w in wedges])
    bis = np.array([w.bisector.degrees for w in wedges])
    half = np.array([w.aperture_deg / 2.0 for w in wedges])
    rad = np.array([math.inf if w.radius is None else w.radius for w in wedges])

    # Row i is wedge i looking at every point.
    dx = qx[None, :] - ax[:, None]
    dy = qy[None, :] - ay[:, None]
    dist = np.hypot(dx, dy)
    delta = (np.degrees(np.arctan2(dy, dx)) - bis[:, None] + 180.0) % 360.0 - 180.0
    covers = (np.abs(delta) <= half[:, None] + ANGLE_TOL_DEG) & (
        dist <= rad[:, None] * (1.0 + REL_TOL)
    )
    covers |= dist <= REL_TOL * np.maximum(a_scale[:, None], q_scale[None, :])
    iu, iv = np.nonzero(covers & covers.T)
    g = CommGraph(len(points))
    for u, v in zip(iu.tolist(), iv.tolist()):
        if u < v:
            g.add_edge(u, v, points[u].distance_to(points[v]))
    return g


def unit_disk_graph(points: PointSet, r: float = 1.0) -> CommGraph:
    """Edge between u and v iff |uv| <= r (closed boundary, relative tolerance).

    Points are bucketed into square cells as wide as the tolerant radius, so
    every pair within it lies in the same or adjacent cells. Each cell is
    compared with itself and its four forward neighbours, which visits every
    such pair once. Edges carry ``Point.distance_to`` weights and neighbour
    lists come out ascending.
    """
    limit = r * (1.0 + REL_TOL)
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    cells: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(zip(xs, ys)):
        cells.setdefault((math.floor(x / limit), math.floor(y / limit)), []).append(i)
    edges = []
    for (cx, cy), members in cells.items():
        others = []
        for key in ((cx + 1, cy - 1), (cx + 1, cy), (cx + 1, cy + 1), (cx, cy + 1)):
            others += cells.get(key, ())
        for k, u in enumerate(members):
            x, y = xs[u], ys[u]
            for v in members[k + 1 :] + others:
                d = math.hypot(xs[v] - x, ys[v] - y)  # == Point.distance_to, either way round
                if d <= limit:
                    edges.append((u, v, d) if u < v else (v, u, d))
    edges.sort()
    return CommGraph(len(points), edges)


def hop_distance(g: CommGraph, u: int, v: int, cap: Optional[int] = None) -> Optional[int]:
    """BFS hop count from u to v; None when unreachable (or beyond cap)."""
    if u == v:
        return 0
    seen = [False] * g.n
    seen[u] = True
    frontier = deque([(u, 0)])
    while frontier:
        node, d = frontier.popleft()
        if cap is not None and d >= cap:
            return None
        for nxt in g.neighbors(node):
            if nxt == v:
                return d + 1
            if not seen[nxt]:
                seen[nxt] = True
                frontier.append((nxt, d + 1))
    return None


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


def euclidean_mst(points: PointSet) -> SpanningTree:
    """Minimum spanning tree of the complete Euclidean graph (dense Prim)."""
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
    g: CommGraph, side_a: Iterable[int], side_b: Iterable[int]
) -> Optional[tuple[int, int]]:
    """Minimum-length edge of g with one endpoint in each side, or None.

    Ties broken lexicographically on (min endpoint, max endpoint). The two
    sides must be disjoint.
    """
    a = set(side_a)
    b = set(side_b)
    if a & b:
        raise ValueError("cross_edge sides must be disjoint")
    best: Optional[tuple[float, int, int]] = None
    for u in sorted(a):
        for v in g.neighbors(u):
            if v in b:
                lo, hi = (u, v) if u < v else (v, u)
                cand = (g.weight(u, v), lo, hi)
                if best is None or cand < best:
                    best = cand
    if best is None:
        return None
    return best[1], best[2]
