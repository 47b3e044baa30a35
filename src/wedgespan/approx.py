"""Angle-bounded spanning tree builders for apertures 180, 120, and 90 degrees.

Each builder starts from the shortcut TSP tour (at most twice the MST
weight), carves it into groups, orients a wedge gadget per group, and joins
consecutive groups with the shortest induced cross edge. The heaviest
tour-edge class is reserved for the group boundaries, which is what brings
the weight bounds down to 2x / 6x / 16x the Euclidean MST.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    GuaranteeViolation,
    SeparationConnectivityViolation,
    TheoremViolation,
    TooFewPointsError,
)
from .gadget import aim_leftovers, orient_pair, orient_quadruplet, orient_triplet
from .geom import (
    ANGLE_TOL_DEG,
    PointSet,
    Wedge,
    angular_spread,
    check_distinct,
    covering_wedge,
    direction,
    max_spread,
)
from .graph import (
    CommGraph,
    DisjointSets,
    SpanningTree,
    Tour,
    cross_edge,
    euclidean_mst,
    induced_graph,
    tree_from_edges,
    tsp_tour,
)

_RATIO_BOUNDS = {180: 2.0, 120: 6.0, 90: 16.0}
_REL = 1e-9


@dataclass(frozen=True)
class AlphaTree:
    """A spanning tree whose edges at every vertex fit in an aperture-alpha wedge.

    ``wedges`` are per-point witnesses: every tree edge is an edge of the
    graph induced by them.
    """

    alpha_deg: float
    tree: SpanningTree
    wedges: tuple[Wedge, ...]
    mst_weight: float
    tour_weight: float

    @property
    def ratio(self) -> float:
        return self.tree.weight / self.mst_weight if self.mst_weight > 0 else 1.0


@dataclass(frozen=True)
class TourPartition:
    """Tour split into consecutive groups with the heaviest boundary class.

    ``connecting_class`` is the offset j of the tour-edge class chosen as
    group boundaries; it maximizes the class weight, so by pigeonhole it
    carries at least 1/group_size of the tour weight.
    """

    groups: tuple[tuple[int, ...], ...]
    connecting_class: int
    class_weights: tuple[float, ...]


def partition_tour(tour: Tour, group_size: int = 3) -> TourPartition:
    """Split the tour into runs of ``group_size`` consecutive vertices.

    Tour edges with index congruent to the chosen class run between groups.
    When group_size does not divide n, the trailing group is short.
    """
    n = tour.n
    if n < group_size:
        raise TooFewPointsError(f"partition needs at least {group_size} points, got {n}")
    weights = [0.0] * group_size
    for i in range(n):
        weights[i % group_size] += tour.edge_weights[i]
    best = max(range(group_size), key=lambda j: (weights[j], -j))
    if weights[best] < tour.weight / group_size - _REL * tour.weight:
        raise GuaranteeViolation(
            f"heaviest tour-edge class {best} of {tuple(weights)} carries less than "
            f"1/{group_size} of the tour weight {tour.weight}"
        )
    start = (best + 1) % n
    rotated = [tour.order[(start + m) % n] for m in range(n)]
    groups = tuple(
        tuple(rotated[k : k + group_size]) for k in range(0, n, group_size)
    )
    return TourPartition(groups=groups, connecting_class=best, class_weights=tuple(weights))


def _check_weight_bound(tree: SpanningTree, factor: float, reference: float, of: str) -> None:
    """Raise GuaranteeViolation, naming the tree, when it outweighs factor x reference."""
    if tree.weight > factor * reference * (1.0 + _REL):
        raise GuaranteeViolation(
            f"tree {tree.edges} weighs {tree.weight}, more than {factor:g}x the {of} "
            f"weight {reference}"
        )


def _pair_tree(points: PointSet, aperture_deg: float) -> AlphaTree:
    w = points[0].distance_to(points[1])
    wedges = orient_pair(points, aperture_deg)
    tree = tree_from_edges(points, [(0, 1)])
    return AlphaTree(aperture_deg, tree, tuple(wedges), mst_weight=w, tour_weight=2.0 * w)


def build_tree_180(points: PointSet) -> AlphaTree:
    """Half-plane tree: the shortcut tour minus its heaviest edge.

    A path has maximum degree two, so the incident edges at every vertex fit
    in a 180-degree wedge. Weight is at most the tour's, hence at most twice
    the MST weight.
    """
    n = len(points)
    if n < 2:
        raise TooFewPointsError("build_tree_180 requires at least two points")
    check_distinct(points)
    mst = euclidean_mst(points)
    tour = tsp_tour(points, mst=mst)
    drop = max(range(n), key=lambda i: (tour.edge_weights[i], -i))
    edges = {tuple(sorted(tour.edge(i))) for i in range(n) if i != drop}
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    wedges = tuple(
        covering_wedge(points[v], [points[u] for u in adjacency[v]], 180.0) for v in range(n)
    )
    tree = tree_from_edges(points, edges)
    _check_weight_bound(tree, 2.0, mst.weight, "MST")
    return AlphaTree(180.0, tree, wedges, mst_weight=mst.weight, tour_weight=tour.weight)


def _cross_pairs(sides: Sequence[tuple[Sequence[int], Sequence[int]]]) -> tuple[list[int], list[int]]:
    """Candidate pairs (a, b) for ``induced_graph``: for each two sides,
    every u of the first with every v of the second."""
    a = [u for side_a, side_b in sides for u in side_a for _ in side_b]
    b = [v for side_a, side_b in sides for _ in side_a for v in side_b]
    return a, b


def build_tree_120(points: PointSet) -> AlphaTree:
    """Aperture-120 tree via triplet gadgets along the tour.

    Groups of three consecutive tour points are oriented independently; the
    two guaranteed gadget edges join each group internally and the shortest
    induced cross edge joins consecutive groups (its existence for any two
    independently oriented triplet gadgets is the load-bearing guarantee —
    a missing one raises TheoremViolation). When 3 divides n, the weight is
    at most 3x the tour and 6x the MST.
    """
    n = len(points)
    if n < 2:
        raise TooFewPointsError("build_tree_120 requires at least two points")
    check_distinct(points)
    if n == 2:
        return _pair_tree(points, 120.0)
    mst = euclidean_mst(points)
    tour = tsp_tour(points, mst=mst)
    part = partition_tour(tour, 3)
    full = [g for g in part.groups if len(g) == 3]
    leftovers = [p for g in part.groups if len(g) < 3 for p in g]

    wedges: list[Optional[Wedge]] = [None] * n
    edges: list[tuple[int, int]] = []
    for g in full:
        tri = orient_triplet([points[i] for i in g])
        for local in range(3):
            wedges[g[local]] = tri.wedges[local]
        for a, b in tri.tree_edges:
            edges.append((g[a], g[b]))
    consecutive = list(zip(full, full[1:]))
    induced = induced_graph(points, wedges, _cross_pairs(consecutive))
    for a, b in consecutive:
        ce = cross_edge(induced, a, b)
        if ce is None:
            raise TheoremViolation(
                f"no cross edge between triplet groups {a} and {b}"
            )
        edges.append(ce)
    edges.extend(aim_leftovers(points, wedges, leftovers, full[-1], 120.0))

    tree = tree_from_edges(points, edges)
    if n % 3 == 0:
        _check_weight_bound(tree, 3.0, tour.weight, "tour")
        _check_weight_bound(tree, 6.0, mst.weight, "MST")
    return AlphaTree(120.0, tree, tuple(wedges), mst_weight=mst.weight, tour_weight=tour.weight)


def _split_by_x(points: PointSet, members: Sequence[int]) -> tuple[list[int], list[int]]:
    ordered = sorted(members, key=lambda i: (points[i].x, points[i].y, i))
    half = len(ordered) // 2
    return ordered[:half], ordered[half:]


_QUAD_PAIRS = tuple(itertools.combinations(range(4), 2))


def _quad_pairs(quads: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Candidate pairs (a, b) for ``induced_graph``: the six inner pairs of each quadruplet."""
    a = [q[i] for q in quads for i, _ in _QUAD_PAIRS]
    b = [q[j] for q in quads for _, j in _QUAD_PAIRS]
    return a, b


def _quad_inner_edges(g: CommGraph, quad: Sequence[int]) -> list[tuple[int, int]]:
    """Minimum spanning tree of the quadruplet's edges in g (3 edges); weight
    ties go to the earlier pair of positions in ``quad``."""
    sets = DisjointSets(4)
    picked = []
    inner = [(g.weight(quad[i], quad[j]), i, j) for i, j in _QUAD_PAIRS if g.has_edge(quad[i], quad[j])]
    for _, i, j in sorted(inner):
        if sets.union(i, j):
            picked.append((quad[i], quad[j]))
    if len(picked) != 3:
        raise GuaranteeViolation(f"induced graph of quadruplet {tuple(quad)} is not connected")
    return picked


def build_tree_90(points: PointSet) -> AlphaTree:
    """Aperture-90 tree via quadruplet gadgets over tour sections of eight.

    Each section splits at its median x coordinate into two quadruplets
    (so the pair is separated by a vertical line); quadruplets are oriented
    independently, joined inside each section and across consecutive
    sections by induced cross edges. Missing cross edges raise
    SeparationConnectivityViolation. When 8 divides n, the weight is at
    most 8x the tour and 16x the MST.
    """
    n = len(points)
    if n < 2:
        raise TooFewPointsError("build_tree_90 requires at least two points")
    check_distinct(points)
    if n == 2:
        return _pair_tree(points, 90.0)
    mst = euclidean_mst(points)
    tour = tsp_tour(points, mst=mst)

    wedges: list[Optional[Wedge]] = [None] * n
    edges: list[tuple[int, int]] = []

    if n == 3:
        # Star on the vertex whose two neighbors fit in a quarter wedge; the
        # smallest triangle angle is at most 60, so one always exists.
        hub = next(
            v
            for v in range(3)
            if angular_spread(points[v], [points[u] for u in range(3) if u != v])
            <= 90.0 + ANGLE_TOL_DEG
        )
        others = [u for u in range(3) if u != hub]
        wedges[hub] = covering_wedge(points[hub], [points[u] for u in others], 90.0)
        for u in others:
            wedges[u] = Wedge(points[u], direction(points[u], points[hub]), 90.0)
            edges.append((u, hub))
    elif n < 8:
        quad, leftovers = sorted(range(n), key=lambda i: (points[i].x, points[i].y, i))[:4], []
        quad_set = set(quad)
        leftovers = [p for p in tour.order if p not in quad_set]
        orientation = orient_quadruplet([points[i] for i in quad])
        for local in range(4):
            wedges[quad[local]] = orientation.wedges[local]
        edges.extend(_quad_inner_edges(induced_graph(points, wedges, _quad_pairs([quad])), quad))
        edges.extend(aim_leftovers(points, wedges, leftovers, quad, 90.0))
    else:
        part = partition_tour(tour, 8)
        full = [g for g in part.groups if len(g) == 8]
        leftovers = [p for g in part.groups if len(g) < 8 for p in g]
        halves = [_split_by_x(points, g) for g in full]
        quads = [quad for half in halves for quad in half]
        for quad in quads:
            orientation = orient_quadruplet([points[i] for i in quad])
            for local in range(4):
                wedges[quad[local]] = orientation.wedges[local]
        consecutive = list(zip(full, full[1:]))
        quad_a, quad_b = _quad_pairs(quads)
        cross_a, cross_b = _cross_pairs(halves + consecutive)
        induced = induced_graph(points, wedges, (quad_a + cross_a, quad_b + cross_b))
        for quad in quads:
            edges.extend(_quad_inner_edges(induced, quad))
        for (left, right), section in zip(halves, full):
            ce = cross_edge(induced, left, right)
            if ce is None:
                raise SeparationConnectivityViolation(
                    f"no edge between x-separated quadruplets of section {section}"
                )
            edges.append(ce)
        for a, b in consecutive:
            ce = cross_edge(induced, a, b)
            if ce is None:
                raise SeparationConnectivityViolation(
                    f"no edge between consecutive sections {a} and {b}"
                )
            edges.append(ce)
        edges.extend(aim_leftovers(points, wedges, leftovers, full[-1], 90.0))

    tree = tree_from_edges(points, edges)
    if n % 8 == 0:
        _check_weight_bound(tree, 8.0, tour.weight, "tour")
        _check_weight_bound(tree, 16.0, mst.weight, "MST")
    return AlphaTree(90.0, tree, tuple(wedges), mst_weight=mst.weight, tour_weight=tour.weight)


_BUILDERS = {180: build_tree_180, 120: build_tree_120, 90: build_tree_90}


def build_tree(points: PointSet, alpha_deg: float) -> AlphaTree:
    """Dispatch to the builder for alpha in {90, 120, 180} degrees."""
    key = int(round(alpha_deg))
    if key not in _BUILDERS or abs(alpha_deg - key) > ANGLE_TOL_DEG:
        raise ValueError(f"no builder for alpha={alpha_deg}; supported: 90, 120, 180")
    return _BUILDERS[key](points)


@dataclass(frozen=True)
class AlphaTreeReport:
    """Recomputed validity and weight-bound report for an AlphaTree."""

    passed: bool
    alpha_deg: float
    n: int
    edge_count_ok: bool
    connected: bool
    acyclic: bool
    weight: float
    mst_weight: float
    ratio: float
    bound: Optional[float]
    ratio_enforced: bool
    ratio_ok: bool
    max_spread_deg: float
    worst_vertex: Optional[int]
    witness_edges_ok: bool
    failures: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "alpha": self.alpha_deg,
            "n": self.n,
            "edge_count_ok": self.edge_count_ok,
            "connected": self.connected,
            "acyclic": self.acyclic,
            "weight": self.weight,
            "mst_weight": self.mst_weight,
            "ratio": self.ratio,
            "bound": self.bound,
            "ratio_enforced": self.ratio_enforced,
            "ratio_ok": self.ratio_ok,
            "max_spread_deg": self.max_spread_deg,
            "worst_vertex": self.worst_vertex,
            "witness_edges_ok": self.witness_edges_ok,
            "failures": list(self.failures),
        }


def check_alpha_tree(
    points: PointSet,
    alpha_deg: float,
    edges: Sequence[tuple[int, int]],
    wedges: Sequence[Wedge],
    stored_weight: float,
    mst_weight: float,
) -> AlphaTreeReport:
    """Check an alpha-tree given as plain data (edges: distinct indices into points).

    Checks edge count, span, acyclicity, the stored weight, per-vertex spread
    against alpha, that every edge is mutual under the witness wedges, that
    the reference MST weight is positive and at most the tree's, and the ratio.
    The ratio bound (2 / 6 / 16) is enforced only where the charging argument
    applies: always for 180, and when the group size divides n for 120 and 90.
    """
    n = len(points)
    failures: list[str] = []
    edge_count_ok = len(edges) == n - 1
    if not edge_count_ok:
        failures.append(f"expected {n - 1} edges, found {len(edges)}")

    sets = DisjointSets(n)
    acyclic = sum(sets.union(u, v) for u, v in edges) == len(edges)
    connected = sets.count == 1
    if not connected:
        failures.append("tree does not span all vertices")
    if not acyclic:
        failures.append("tree contains a cycle")

    weight = 0.0
    for u, v in edges:
        weight += points[u].distance_to(points[v])
    if abs(weight - stored_weight) > _REL * max(1.0, weight):
        failures.append(f"stored weight {stored_weight} != recomputed {weight}")

    spread, worst = max_spread(points, edges)
    if spread > alpha_deg + ANGLE_TOL_DEG:
        failures.append(f"vertex {worst} has spread {spread} > alpha {alpha_deg}")

    witness_ok = True
    for u, v in edges:
        if not (wedges[u].contains(points[v]) and wedges[v].contains(points[u])):
            witness_ok = False
            failures.append(f"edge ({u},{v}) is not mutual under the witness wedges")
            break

    if n >= 2 and not mst_weight > 0:
        failures.append(f"MST weight {mst_weight} is not positive")
    elif edge_count_ok and connected and mst_weight > weight * (1.0 + _REL):
        failures.append(f"MST weight {mst_weight} exceeds the spanning tree's {weight}")
    ratio = weight / mst_weight if mst_weight > 0 else 1.0
    key = int(round(alpha_deg))
    bound = _RATIO_BOUNDS.get(key)
    group = {180: 1, 120: 3, 90: 8}.get(key, 1)
    enforced = bound is not None and n % group == 0
    ratio_ok = bound is None or ratio <= bound * (1.0 + _REL)
    if enforced and not ratio_ok:
        failures.append(f"ratio {ratio} exceeds bound {bound}")

    return AlphaTreeReport(
        passed=not failures,
        alpha_deg=alpha_deg,
        n=n,
        edge_count_ok=edge_count_ok,
        connected=connected,
        acyclic=acyclic,
        weight=weight,
        mst_weight=mst_weight,
        ratio=ratio,
        bound=bound,
        ratio_enforced=enforced,
        ratio_ok=ratio_ok,
        max_spread_deg=spread,
        worst_vertex=worst,
        witness_edges_ok=witness_ok,
        failures=tuple(failures),
    )


def verify_alpha_tree(points: PointSet, result: AlphaTree) -> AlphaTreeReport:
    """Recompute every AlphaTree invariant, the ratio against a fresh Euclidean MST."""
    mst_weight = euclidean_mst(points).weight if points else 0.0
    return check_alpha_tree(
        points, result.alpha_deg, result.tree.edges, result.wedges, result.tree.weight, mst_weight
    )
