"""Output checks that do not rely on ``wedgespan verify``.

Every result the benchmark times is checked here, once per distinct result:

* a tree (``solve``) must span every point without a cycle, by
  ``graph.tree_from_edges``, and meet its weight-ratio bound when the group
  size divides n;
* a network (``convert``) must keep every edge at length <= 7 and reach both
  ends of every unit-disk edge within 6 hops;
* an ``oracle`` tree must span every point and weigh no less than the MST.

The Euclidean MST weight, the unit disk graph and the hop counts are
computed here from the instance coordinates, independently of the package's
own ``euclidean_mst``, ``unit_disk_graph`` and ``verify_hop_spanner``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from wedgespan.geom import Point
from wedgespan.graph import tree_from_edges

# (ratio bound, group size) per alpha: the bound holds when the group size divides n.
RATIO_BOUNDS = {180: (2.0, 1), 120: (6.0, 3), 90: (16.0, 8)}
SPANNER_RANGE = 7.0
SPANNER_HOPS = 6
REL = 1e-9


@dataclass
class Instance:
    """Coordinates of an instance file, read without the package's parser."""

    xy: np.ndarray
    points: list[Point]
    _mst_weight: float | None = field(default=None, repr=False)
    _udg: list[list[int]] | None = field(default=None, repr=False)

    @staticmethod
    def load(path) -> "Instance":
        with open(path) as fh:
            raw = json.load(fh)["points"]
        xy = np.array(raw, dtype=float).reshape(-1, 2)
        return Instance(xy, [Point(float(x), float(y)) for x, y in raw])

    @property
    def n(self) -> int:
        return len(self.points)

    def mst_weight(self) -> float:
        if self._mst_weight is None:
            self._mst_weight = emst_weight(self.xy)
        return self._mst_weight

    def udg(self) -> list[list[int]]:
        if self._udg is None:
            self._udg = unit_disk_adjacency(self.xy)
        return self._udg


def emst_weight(xy: np.ndarray) -> float:
    """Weight of the Euclidean MST by dense Prim."""
    n = len(xy)
    if n < 2:
        return 0.0
    best = np.hypot(xy[:, 0] - xy[0, 0], xy[:, 1] - xy[0, 1])
    done = np.zeros(n, dtype=bool)
    done[0] = True
    best[0] = np.inf
    total = 0.0
    for _ in range(n - 1):
        k = int(np.argmin(best))
        total += float(best[k])
        done[k] = True
        best[k] = np.inf
        d = np.hypot(xy[:, 0] - xy[k, 0], xy[:, 1] - xy[k, 1])
        np.minimum(best, np.where(done, np.inf, d), out=best)
    return total


def unit_disk_adjacency(xy: np.ndarray, r: float = 1.0) -> list[list[int]]:
    """Adjacency lists of the unit disk graph (closed boundary), via a cell grid."""
    limit = r * (1.0 + REL)
    coords = xy.tolist()
    cells: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(coords):
        cells.setdefault((math.floor(x / r), math.floor(y / r)), []).append(i)
    adj: list[list[int]] = [[] for _ in coords]
    for (cx, cy), members in cells.items():
        for gx in (cx - 1, cx, cx + 1):
            for gy in (cy - 1, cy, cy + 1):
                for j in cells.get((gx, gy), ()):
                    xj, yj = coords[j]
                    for i in members:
                        if i < j and math.hypot(coords[i][0] - xj, coords[i][1] - yj) <= limit:
                            adj[i].append(j)
                            adj[j].append(i)
    return adj


def is_connected(adj: list[list[int]]) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(adj)


def hop_stretch(n: int, edges: list[tuple[int, int]], udg: list[list[int]]) -> int:
    """Most hops the network needs to join the ends of a unit-disk edge; n if it cannot."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    worst = 0
    for u in range(n):
        targets = {v for v in udg[u] if v > u}
        if not targets:
            continue
        seen = {u}
        frontier = [u]
        depth = 0
        while targets and frontier:
            depth += 1
            nxt = []
            for a in frontier:
                for b in adj[a]:
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
                        targets.discard(b)
            frontier = nxt
        if targets:
            return n
        worst = max(worst, depth)
    return worst


def _edges_in_range(n: int, edges) -> list[str]:
    bad = [e for e in edges if not (0 <= e[0] < n and 0 <= e[1] < n) or e[0] == e[1]]
    return [f"edge {bad[0]} is not a pair of distinct point indices"] if bad else []


@dataclass
class Verdict:
    problems: list[str]
    ratio: float | None = None
    hop_stretch: int | None = None
    edges: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def check_tree(inst: Instance, doc: dict, alpha: int) -> Verdict:
    edges = [tuple(e) for e in doc["edges"]]
    problems = _edges_in_range(inst.n, edges)
    if problems:
        return Verdict(problems)
    try:
        tree = tree_from_edges(inst.points, edges)
    except ValueError as exc:
        return Verdict([f"not a spanning tree: {exc}"])
    mst = inst.mst_weight()
    ratio = tree.weight / mst if mst > 0 else 1.0
    bound, group = RATIO_BOUNDS[alpha]
    if inst.n % group == 0 and ratio > bound * (1.0 + REL):
        problems.append(f"ratio {ratio} exceeds {bound} for alpha {alpha}")
    return Verdict(problems, ratio=ratio, edges=len(edges))


def check_network(inst: Instance, doc: dict) -> Verdict:
    edges = [tuple(e) for e in doc["edges"]]
    problems = _edges_in_range(inst.n, edges)
    if problems:
        return Verdict(problems)
    xy = inst.xy
    e = np.array(edges, dtype=np.int64).reshape(-1, 2)
    lengths = np.hypot(xy[e[:, 0], 0] - xy[e[:, 1], 0], xy[e[:, 0], 1] - xy[e[:, 1], 1])
    if len(edges) and lengths.max() > SPANNER_RANGE * (1.0 + REL):
        problems.append(f"edge of length {lengths.max()} exceeds range {SPANNER_RANGE}")
    stretch = hop_stretch(inst.n, edges, inst.udg())
    if stretch > SPANNER_HOPS:
        problems.append(f"hop stretch {stretch} exceeds {SPANNER_HOPS}")
    mst = inst.mst_weight()
    ratio = float(lengths.sum()) / mst if mst > 0 else 1.0
    return Verdict(problems, ratio=ratio, hop_stretch=stretch, edges=len(edges))


def check_oracle(inst: Instance, payload: dict) -> Verdict:
    if not payload.get("exists"):
        return Verdict([])
    edges = [tuple(e) for e in payload["edges"]]
    problems = _edges_in_range(inst.n, edges)
    if problems:
        return Verdict(problems)
    try:
        tree = tree_from_edges(inst.points, edges)
    except ValueError as exc:
        return Verdict([f"oracle tree is not a spanning tree: {exc}"])
    if tree.weight < inst.mst_weight() * (1.0 - REL):
        return Verdict([f"oracle tree weight {tree.weight} is below the MST weight"])
    return Verdict([], edges=len(edges))


def check(kind: str, inst: Instance, doc: dict, alpha: int | None) -> Verdict:
    if kind == "solve":
        return check_tree(inst, doc, alpha)
    if kind == "convert":
        return check_network(inst, doc)
    return check_oracle(inst, doc)
