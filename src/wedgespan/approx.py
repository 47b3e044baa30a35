"""Angle-bounded spanning tree builders for apertures 180, 120, and 90 degrees.

``build_tree`` runs one scheme for every alpha. It takes the shortcut TSP
tour (at most twice the MST weight), and the alpha's gadget step carves the
tour into groups of 1, 3 or 8 points, orients a wedge gadget per group, and
joins consecutive groups with the shortest induced cross edge. The heaviest
tour-edge class is reserved for the group boundaries, which is what brings
the weight bounds down to 2x / 6x / 16x the Euclidean MST.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    GuaranteeViolation,
    SeparationConnectivityViolation,
    TheoremViolation,
    TooFewPointsError,
    WedgespanError,
)
from .gadget import aim_leftovers, orient_pair, orient_quadruplet, orient_triplet
from .geom import (
    ANGLE_TOL_DEG,
    REL_TOL,
    Edges,
    PointArray,
    PointSet,
    Wedge,
    angular_spread,
    column_wedge,
    coordinates,
    edge_array,
    normalize_degrees,
    spanning_arcs,
)
from .graph import (
    CommGraph,
    SpanningTree,
    Tour,
    count_components,
    cross_edge,
    cross_pairs,
    edge_lengths,
    euclidean_mst,
    induced_graph,
    non_mutual_edges,
    sum_left,
    tree_from_edges,
    tsp_tour,
)


@dataclass(frozen=True, eq=False)
class AlphaTree:
    """A spanning tree whose edges at every vertex fit in an aperture-alpha wedge.

    ``wedge_rows`` holds per-point witness wedges, as the (n, 3) wedge rows
    of ``points``: every tree edge is an edge of the graph induced by them.
    ``wedges`` builds them as Wedge objects.
    """

    alpha_deg: float
    tree: SpanningTree
    points: PointSet
    wedge_rows: np.ndarray
    mst_weight: float
    tour_weight: float

    @property
    def wedges(self) -> tuple[Wedge, ...]:
        return tuple(column_wedge(p, *row) for p, row in zip(self.points, self.wedge_rows.tolist()))


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


def partition_tour(tour: Tour, group_size: int) -> TourPartition:
    """Split the tour into runs of ``group_size`` consecutive vertices.

    Tour edges with index congruent to the chosen class run between groups.
    When group_size does not divide n, the trailing group is short.
    """
    n = tour.n
    if n < group_size:
        raise TooFewPointsError(f"partition needs at least {group_size} points, got {n}")
    weights = [sum_left(tour.edge_weights[j::group_size]) for j in range(group_size)]
    best = max(range(group_size), key=lambda j: (weights[j], -j))
    if weights[best] < tour.weight / group_size - REL_TOL * tour.weight:
        raise GuaranteeViolation(
            f"heaviest tour-edge class {best} of {tuple(weights)} carries less than "
            f"1/{group_size} of the tour weight {tour.weight}"
        )
    start = (best + 1) % n
    rotated = tour.order[start:] + tour.order[:start]
    groups = tuple(rotated[k : k + group_size] for k in range(0, n, group_size))
    return TourPartition(groups=groups, connecting_class=best, class_weights=tuple(weights))


# What a gadget step returns: the (m, 2) tree edge rows and the (n, 3) wedge
# rows of one witness wedge per point, unbounded, with NaN bisectors unset.
_Gadgets = tuple[np.ndarray, np.ndarray]


def _covering_rows(points: PointSet, edges: Edges, alpha: float) -> np.ndarray:
    """Aperture-alpha wedges, each bisecting the smallest arc of its vertex's
    edges (``spanning_arcs``): every edge is induced if no spread exceeds alpha."""
    wedges = np.full((len(points), 3), (np.nan, alpha, np.inf))
    vertices, start, extent = spanning_arcs(points, edges)
    wedges[vertices, 0] = normalize_degrees(start + extent / 2.0)
    return wedges


def _path_step(points: PointSet, tour: Tour) -> _Gadgets:
    """Alpha 180: the tour minus its heaviest edge.

    A path has maximum degree two, so the incident edges at every vertex fit
    in a 180-degree wedge.
    """
    n = tour.n
    drop = max(range(n), key=lambda i: (tour.edge_weights[i], -i))
    ring = np.array(tour.order + tour.order[:1])
    edges = np.delete(np.array((ring[:-1], ring[1:])).T, drop, axis=0)  # tour edge i is row i
    return edges, _covering_rows(points, edges, 180.0)


def _cross_edges(g: CommGraph, sides_a, sides_b, missing: Callable[[int], Exception]) -> list:
    """The shortest edge of g between each two rows of sides (``cross_edge``);
    raises ``missing(k)`` for the first row k whose two sides have none."""
    edges = cross_edge(g, sides_a, sides_b)
    if None in edges:
        raise missing(edges.index(None))
    return edges


def _triplet_step(points: PointSet, tour: Tour) -> _Gadgets:
    """Alpha 120: triplet gadgets on runs of three consecutive tour points.

    The groups are oriented independently; the two guaranteed gadget edges
    join each group internally and the shortest induced cross edge joins
    consecutive groups (its existence for any two independently oriented
    triplet gadgets is the load-bearing guarantee — a missing one raises
    TheoremViolation).
    """
    part = partition_tour(tour, 3)
    full = [g for g in part.groups if len(g) == 3]
    leftovers = [p for g in part.groups if len(g) < 3 for p in g]
    wedges = np.full((len(points), 3), (np.nan, 120.0, np.inf))
    groups = np.array(full)
    tri = orient_triplet(points, groups)
    wedges[groups, 0] = tri.bisectors
    inner = groups[np.arange(len(full))[:, None, None], tri.tree_edges].reshape(-1, 2)
    induced = induced_graph(points, wedges, cross_pairs(groups[:-1], groups[1:]))
    joins = _cross_edges(induced, groups[:-1], groups[1:], lambda k: TheoremViolation(
        f"no cross edge between triplet groups {full[k]} and {full[k + 1]}"))
    joins += aim_leftovers(points, wedges, leftovers, [full[-1]] * len(leftovers), 120.0)
    return np.concatenate((inner, edge_array(joins))), wedges


def _by_x(xy: np.ndarray, members: Sequence[int]) -> list[int]:
    """The members sorted by (x, y, index)."""
    members = np.asarray(members)
    x, y = xy[members].T
    return members[np.lexsort((members, y, x))].tolist()


_QUAD_PAIRS = tuple(itertools.combinations(range(4), 2))


def _quad_inner_edges(g: CommGraph, quad: Sequence[int]) -> list[tuple[int, int]]:
    """Minimum spanning tree of the quadruplet's edges in g (3 edges), by
    Kruskal; weight ties go to the earlier pair of positions in ``quad``."""
    label = [0, 1, 2, 3]
    picked = []
    inner = [(g.weight(quad[i], quad[j]), i, j) for i, j in _QUAD_PAIRS if g.has_edge(quad[i], quad[j])]
    for _, i, j in sorted(inner):
        if label[i] != label[j]:
            label = [label[i] if x == label[j] else x for x in label]
            picked.append((quad[i], quad[j]))
    if len(picked) != 3:
        raise GuaranteeViolation(f"induced graph of quadruplet {tuple(quad)} is not connected")
    return picked


def _quadruplet_step(points: PointSet, tour: Tour) -> _Gadgets:
    """Alpha 90: quadruplet gadgets over tour sections of eight.

    Each section splits at its median x coordinate into two quadruplets
    (so the pair is separated by a vertical line); quadruplets are oriented
    independently, joined inside each section and across consecutive
    sections by induced cross edges. Missing cross edges raise
    SeparationConnectivityViolation. Three points make a star; four to
    seven make one quadruplet of the leftmost four, with the rest aimed at it.
    """
    n = len(points)
    if n == 3:
        # Star on the vertex whose two neighbors fit in a quarter wedge; the
        # smallest triangle angle is at most 60, so one always exists.
        hub = next(
            v
            for v in range(3)
            if angular_spread(points, [(v, u) for u in range(3) if u != v])[0] <= 90.0 + ANGLE_TOL_DEG
        )
        edges = edge_array([(u, hub) for u in range(3) if u != hub])
        return edges, _covering_rows(points, edges, 90.0)

    wedges = np.full((n, 3), (np.nan, 90.0, np.inf))
    edges: list[tuple[int, int]] = []
    xy = coordinates(points)

    if n < 8:
        host = _by_x(xy, range(n))[:4]
        leftovers = [p for p in tour.order if p not in host]
        full, halves, quads = [], [], [host]
    else:
        part = partition_tour(tour, 8)
        full = [g for g in part.groups if len(g) == 8]
        leftovers = [p for g in part.groups if len(g) < 8 for p in g]
        halves = [(ordered[:4], ordered[4:]) for ordered in (_by_x(xy, g) for g in full)]
        quads = [quad for half in halves for quad in half]
        host = full[-1]
    # A PointArray hands each gadget its four points' coordinates without
    # converting the whole list every time.
    indexed = points if isinstance(points, PointArray) else PointArray(xy)
    for quad in quads:
        wedges[quad, 0] = orient_quadruplet(indexed, quad)
    sections = np.array(full, dtype=np.intp).reshape(-1, 8)
    left, right = np.array(halves, dtype=np.intp).reshape(-1, 2, 4).transpose(1, 0, 2)
    inner = np.array(quads).T[np.array(_QUAD_PAIRS).T]  # the six inner pairs of each quadruplet
    pairs = zip(inner, cross_pairs(left, right), cross_pairs(sections[:-1], sections[1:]))
    induced = induced_graph(points, wedges, [np.concatenate(side, axis=None) for side in pairs])
    for quad in quads:
        edges += _quad_inner_edges(induced, quad)
    edges += _cross_edges(induced, left, right, lambda k: SeparationConnectivityViolation(
        f"no edge between x-separated quadruplets of section {full[k]}"))
    edges += _cross_edges(induced, sections[:-1], sections[1:], lambda k: SeparationConnectivityViolation(
        f"no edge between consecutive sections {full[k]} and {full[k + 1]}"))
    edges += aim_leftovers(points, wedges, leftovers, [host] * len(leftovers), 90.0)
    return edge_array(edges), wedges


# Per alpha: the gadget step, its group size, and the MST-ratio bound. When
# the group size divides n, the tree weighs at most group size x the tour
# and the bound x the MST.
_ALPHAS: dict[int, tuple[Callable[[PointSet, Tour], _Gadgets], int, float]] = {
    180: (_path_step, 1, 2.0),
    120: (_triplet_step, 3, 6.0),
    90: (_quadruplet_step, 8, 16.0),
}


def build_tree(points: PointSet, alpha_deg: float) -> AlphaTree:
    """Build an alpha-tree for alpha in {90, 120, 180} degrees.

    Two points get facing wedges at 90 and 120. Otherwise the alpha's gadget
    step runs on the shortcut tour of the Euclidean MST, and the tree's
    weight bounds are checked when the group size divides n. A weight beyond
    the float range raises WedgespanError, an input error.
    """
    key = int(round(alpha_deg))
    if key not in _ALPHAS or abs(alpha_deg - key) > ANGLE_TOL_DEG:
        raise ValueError(f"no builder for alpha={alpha_deg}; supported: 90, 120, 180")
    step, group, bound = _ALPHAS[key]
    alpha = float(key)
    n = len(points)
    if n < 2:
        raise TooFewPointsError("build_tree requires at least two points")
    mst = euclidean_mst(points)
    if not np.isfinite(mst.weight):  # checked before the gadget steps, which need finite sides
        raise WedgespanError("points too far apart: the MST's weight overflows the float range")
    tour = tsp_tour(points, mst)
    # Two points need no gadget; at 180 the path step covers them, with its
    # covering wedges in place of facing ones.
    if n == 2 and key != 180:
        edges, wedges = np.array([[0, 1]]), orient_pair(points, (0, 1), alpha)
    else:
        edges, wedges = step(points, tour)
    tree = tree_from_edges(points, edges)
    if not np.isfinite(tree.weight):
        raise WedgespanError("points too far apart: the tree's weight overflows the float range")
    if n % group == 0:
        for factor, of, reference in ((group, "tour", tour.weight), (bound, "MST", mst.weight)):
            if tree.weight > factor * reference * (1.0 + REL_TOL):
                raise GuaranteeViolation(
                    f"tree {tuple(map(tuple, tree.edges.tolist()))} weighs {tree.weight}, "
                    f"more than {factor:g}x the {of} weight {reference}"
                )
    return AlphaTree(alpha, tree, points, wedges, mst_weight=mst.weight, tour_weight=tour.weight)


@dataclass(frozen=True)
class AlphaTreeReport:
    """Recomputed validity and weight-bound report for an AlphaTree."""

    passed: bool
    alpha: float
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

    @property
    def summary(self) -> dict:
        """The summary values of a tree result, in result-file order."""
        return {
            "alpha": self.alpha,
            "weight": self.weight,
            "mst_weight": self.mst_weight,
            "ratio": self.ratio,
            "max_spread_deg": self.max_spread_deg,
        }


def edge_range_failures(ends: np.ndarray, n: int) -> tuple[list[str], np.ndarray]:
    """Failures for the edge rows ``ends`` (objects past int64) that loop or leave 0..n-1, and the other rows."""
    u, v = ends.T
    bad = (u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n)
    if not bad.any():
        return [], ends
    return ["edge ({},{}) is out of range or a self-loop".format(*row) for row in ends[bad].tolist()], ends[~bad]


def check_alpha_tree(
    points: PointSet,
    alpha_deg: float,
    edges: Edges,
    wedges: np.ndarray,
    mst_weight: float,
) -> AlphaTreeReport:
    """Check an alpha-tree given as plain data (edges: distinct indices into points).

    Checks edge count, that each edge joins two of the points (the rest read
    only those), span, acyclicity, per-vertex spread against alpha,
    that every witness wedge has aperture alpha and every edge is mutual
    under them, that the reference MST weight is positive and at most the
    tree's, and the ratio. ``wedges`` holds the points' wedge rows.
    The weight is computed from the edges, summed in their order; comparing
    it with a stored one is left to the caller.
    The ratio bound (2 / 6 / 16) is enforced only where the charging argument
    applies: always for 180, and when the group size divides n for 120 and 90.
    """
    n, ends = len(points), np.reshape(edges, (-1, 2))  # ends past int64 stay objects, for the range check to name
    edge_count_ok = len(ends) == n - 1
    failures = [] if edge_count_ok else [f"expected {n - 1} edges, found {len(ends)}"]
    out_of_range, ends = edge_range_failures(ends, n)
    failures += out_of_range
    ends = ends.astype(np.intp, copy=False)

    components = count_components(n, *ends.T)
    acyclic = components == n - len(ends)
    connected = components == 1
    if not connected:
        failures.append("tree does not span all vertices")
    if not acyclic:
        failures.append("tree contains a cycle")

    weight = sum_left(edge_lengths(coordinates(points), ends[:, 0], ends[:, 1]).tolist())

    spread, worst = angular_spread(points, ends)
    if spread > alpha_deg + ANGLE_TOL_DEG:
        failures.append(f"vertex {worst} has spread {spread} > alpha {alpha_deg}")

    for k in (np.abs(wedges[:, 1] - alpha_deg) > ANGLE_TOL_DEG).nonzero()[0][:1].tolist():
        failures.append(f"witness wedge {k} has aperture {wedges.item(k, 1)}, not alpha {alpha_deg}")

    missed = non_mutual_edges(points, wedges, ends)
    witness_ok = not missed
    if missed:
        failures.append("edge ({},{}) is not mutual under the witness wedges".format(*missed[0]))

    if n >= 2 and not mst_weight > 0:
        failures.append(f"MST weight {mst_weight} is not positive")
    elif edge_count_ok and connected and mst_weight > weight * (1.0 + REL_TOL):
        failures.append(f"MST weight {mst_weight} exceeds the spanning tree's {weight}")
    ratio = weight / mst_weight if mst_weight > 0 else 1.0
    _, group, bound = _ALPHAS.get(int(round(alpha_deg)), (None, 1, None))
    enforced = bound is not None and n % group == 0
    ratio_ok = bound is None or ratio <= bound * (1.0 + REL_TOL)
    if enforced and not ratio_ok:
        failures.append(f"ratio {ratio} exceeds bound {bound}")

    return AlphaTreeReport(
        passed=not failures,
        alpha=alpha_deg,
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
    """Recompute every AlphaTree invariant, the ratio against the EMST of
    ``points`` (computed once per ``PointArray``, never read from ``result``),
    and compare the tree's stored weight with the recomputed one."""
    mst_weight = euclidean_mst(points).weight if points else 0.0
    report = check_alpha_tree(points, result.alpha_deg, result.tree.edges, result.wedge_rows, mst_weight)
    stored = result.tree.weight
    if abs(report.weight - stored) <= REL_TOL * max(1.0, report.weight):
        return report
    failure = f"stored weight {stored} != recomputed {report.weight}"
    return replace(report, passed=False, failures=report.failures + (failure,))
