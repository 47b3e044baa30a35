"""Conversion of omni-directional radios to 120-degree antennas.

Pipeline: greedily partition the (connected) unit disk graph into components
of size at most three; orient a triplet gadget on each size-3 component and
aim the wedges of smaller components at a covering gadget wedge nearby; give
every wedge range 7, which drops all long edges without disconnecting the
graph. The result is a 6-hop spanner of the unit disk graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    ComponentClaimViolation,
    DisconnectedUDGError,
    GuaranteeViolation,
    HopBoundViolation,
    PartitionError,
)
from .gadget import aim_leftovers, orient_pair, orient_triplet
from .geom import ANGLE_TOL_DEG, PointSet, REL_TOL, angular_spread, check_distinct
from .graph import CommGraph, euclidean_mst, hop_distances_from, induced_graph, sum_left, unit_disk_graph

SPANNER_APERTURE = 120.0
SPANNER_RANGE = 7.0
SPANNER_HOPS = 6

# Hop bounds by how the endpoints of a unit-disk edge sit in the partition.
CASE_BOUNDS = {
    "same_size3": 2,
    "same_size2": 4,
    "two_size3": 5,
    "mixed": 6,
}


@dataclass(frozen=True)
class ComponentPartition:
    """Greedy unit-disk components of size at most three.

    ``anchor[k]`` is, for each component k of size below three, the index of
    a point of a size-3 component within unit distance of some member
    (chosen nearest, then lowest index); None only in the whole-graph case
    where no size-3 component exists.
    """

    components: tuple[tuple[int, ...], ...]
    anchor: tuple[Optional[int], ...]
    component_of: tuple[int, ...]


def greedy_components(points: PointSet, udg: CommGraph) -> ComponentPartition:
    """Partition the points into unit-disk-connected components of size <= 3.

    ``udg`` is the unit disk graph of the points. Repeatedly seeds a
    component with the lowest-index remaining point and grows it by up to
    two more remaining unit-disk neighbours of the component (lowest index
    first). Afterwards checks the structural claim that every unit-disk
    neighbour of a small component lies in a size-3 component (whole-graph
    special case excepted).
    """
    n = len(points)
    if n == 0:
        raise DisconnectedUDGError("empty point set has no connected unit disk graph")
    if udg.n != n:
        raise ValueError("unit disk graph does not match the point set")
    check_distinct(points)
    if not udg.is_connected():
        raise DisconnectedUDGError("input unit disk graph is not connected")

    alive = [True] * n

    def take_lowest_alive(*centers: int) -> Optional[int]:
        found = min((v for c in centers for v in udg.neighbors(c) if alive[v]), default=None)
        if found is not None:
            alive[found] = False
        return found

    components: list[tuple[int, ...]] = []
    for a in range(n):
        if not alive[a]:
            continue
        alive[a] = False
        comp = [a]
        b = take_lowest_alive(a)
        if b is not None:
            comp.append(b)
            c = take_lowest_alive(a, b)
            if c is not None:
                comp.append(c)
        components.append(tuple(comp))

    component_of = [0] * n
    for k, comp in enumerate(components):
        for v in comp:
            component_of[v] = k

    has_size3 = any(len(c) == 3 for c in components)
    anchors: list[Optional[int]] = []
    for k, comp in enumerate(components):
        if len(comp) == 3:
            anchors.append(None)
            continue
        if not has_size3:
            # Whole-graph special case: the components partition everything
            # and no size-3 component exists (only possible for n <= 2).
            anchors.append(None)
            continue
        best: Optional[tuple[float, int]] = None
        for p in comp:
            for q in udg.neighbors(p):
                if component_of[q] == k:
                    continue
                if len(components[component_of[q]]) != 3:
                    raise ComponentClaimViolation(
                        f"neighbor {q} of small component {comp} is in a "
                        f"size-{len(components[component_of[q]])} component"
                    )
                cand = (points[p].distance_to(points[q]), q)
                if best is None or cand < best:
                    best = cand
        if best is None:
            raise ComponentClaimViolation(
                f"small component {comp} has no unit-disk neighbor outside itself"
            )
        anchors.append(best[1])
    return ComponentPartition(
        components=tuple(components),
        anchor=tuple(anchors),
        component_of=tuple(component_of),
    )


def orient_components(points: PointSet, partition: ComponentPartition) -> np.ndarray:
    """Assign a range-7, aperture-120 wedge to every point, as (n, 3)
    ``wedge_columns`` rows.

    Size-3 components get the triplet gadget, all in one ``orient_triplet``
    pass. Each point of a smaller component aims at the apex of the nearest
    wedge of its anchor's size-3 component that covers it (the gadget covers
    the plane, so one exists). With no size-3 component at all (whole graph
    of 1 or 2 points) the pair faces each other and a singleton points east.
    """
    n = len(points)
    if len(partition.component_of) != n:
        raise PartitionError("partition does not match the point set")
    wedges = np.full((n, 3), (np.nan, SPANNER_APERTURE, SPANNER_RANGE))
    triplets = np.array([c for c in partition.components if len(c) == 3], dtype=np.intp).reshape(-1, 3)
    wedges[triplets, 0] = orient_triplet(points, triplets).bisectors
    leftovers, hosts = [], []
    for k, comp in enumerate(partition.components):
        if len(comp) == 3:
            continue
        anchor = partition.anchor[k]
        if anchor is None:
            pair = orient_pair([points[i] for i in comp], SPANNER_APERTURE) if len(comp) == 2 else ()
            wedges[list(comp), 0] = [w.bisector.degrees for w in pair] or [0.0]
            continue
        leftovers += comp
        hosts += [partition.components[partition.component_of[anchor]]] * len(comp)
    aim_leftovers(points, wedges, leftovers, hosts, SPANNER_APERTURE, SPANNER_RANGE)
    missing = np.isnan(wedges[:, 0]).nonzero()[0].tolist()
    if missing:
        raise GuaranteeViolation(f"points {missing} received no wedge from {partition.components}")
    return wedges


@dataclass(frozen=True, eq=False)
class SpannerResult:
    """Oriented wedges, as (n, 3) ``wedge_columns`` rows, the range-filtered
    graph, and its ``check_spanner`` summary."""

    wedge_rows: np.ndarray
    graph: CommGraph
    summary: dict
    partition: ComponentPartition
    runtime_stats: dict = field(compare=False)


@dataclass(frozen=True)
class HopSpannerReport:
    passed: bool
    cap: int
    max_hops: int
    worst_edge: Optional[tuple[int, int]]
    case_max: dict
    failures: tuple[str, ...]


def _edge_case(partition: ComponentPartition, u: int, v: int) -> str:
    cu, cv = partition.component_of[u], partition.component_of[v]
    su = len(partition.components[cu])
    sv = len(partition.components[cv])
    if cu == cv:
        return "same_size3" if su == 3 else "same_size2"
    if su == 3 and sv == 3:
        return "two_size3"
    if su == 3 or sv == 3:
        return "mixed"
    raise ComponentClaimViolation(
        f"unit-disk edge ({u},{v}) joins two small components {cu} and {cv}"
    )


def verify_hop_spanner(
    g: CommGraph,
    udg: CommGraph,
    cap: int,
    partition: Optional[ComponentPartition] = None,
) -> HopSpannerReport:
    """Check that every unit-disk edge has a g-path of at most cap hops.

    With a partition, each edge is also classified and held to its
    case-specific bound (2 within a gadget, 4 within a pair, 5 between
    gadgets, 6 mixed).
    """
    if g.n != udg.n:
        raise ValueError("graphs must share a vertex set")
    failures: list[str] = []
    max_hops = 0
    worst: Optional[tuple[int, int]] = None
    case_max: dict[str, int] = {}
    for u in range(udg.n):
        targets = [v for v in udg.neighbors(u) if v > u]
        if not targets:
            continue
        for v, d in zip(targets, hop_distances_from(g, u, targets)):
            if d is None:
                failures.append(f"unit-disk edge ({u},{v}) is disconnected in the spanner")
                continue
            if d > max_hops:
                max_hops = d
                worst = (u, v)
            if d > cap:
                failures.append(f"unit-disk edge ({u},{v}) needs {d} hops > cap {cap}")
            if partition is not None:
                case = _edge_case(partition, u, v)
                case_max[case] = max(case_max.get(case, 0), d)
                if d > CASE_BOUNDS[case]:
                    failures.append(
                        f"edge ({u},{v}) of case {case} needs {d} hops > {CASE_BOUNDS[case]}"
                    )
    return HopSpannerReport(
        passed=not failures,
        cap=cap,
        max_hops=max_hops,
        worst_edge=worst,
        case_max=case_max,
        failures=tuple(failures),
    )


def check_spanner(
    points: PointSet,
    graph: CommGraph,
    udg: CommGraph,
    partition: Optional[ComponentPartition] = None,
) -> tuple[list[str], dict]:
    """Check an antenna network over the points against the conversion's claims.

    The graph must be connected, every vertex's edges must fit in a
    ``SPANNER_APERTURE`` wedge, no edge may be longer than ``SPANNER_RANGE``,
    and every edge of the unit disk graph ``udg`` must be covered within
    ``SPANNER_HOPS`` hops (and, with a partition, within its case bound).
    Returns the failures and the summary values in result-file order.
    """
    failures = []
    if not graph.is_connected():
        failures.append("antenna graph is disconnected")
    spread, worst = angular_spread(points, np.column_stack((graph.u, graph.v)))
    if spread > SPANNER_APERTURE + ANGLE_TOL_DEG:
        failures.append(f"vertex {worst} has spread {spread} > alpha {SPANNER_APERTURE}")
    lengths = graph.w.tolist()
    max_len = max(lengths, default=0.0)
    if max_len > SPANNER_RANGE * (1.0 + REL_TOL):
        failures.append(f"edge of length {max_len} exceeds range {SPANNER_RANGE}")
    report = verify_hop_spanner(graph, udg, SPANNER_HOPS, partition)
    failures.extend(report.failures)
    weight = sum_left(lengths)
    mst_weight = euclidean_mst(points).weight
    summary = {
        "alpha": SPANNER_APERTURE,
        "weight": weight,
        "mst_weight": mst_weight,
        "ratio": weight / mst_weight if mst_weight > 0 else 1.0,
        "max_spread_deg": spread,
        "hop_stretch": report.max_hops,
        "max_edge_len": max_len,
    }
    return failures, summary


def build_spanner(points: PointSet) -> SpannerResult:
    """Run the full conversion pipeline and verify its guarantees.

    Raises HopBoundViolation naming every ``check_spanner`` failure.
    """
    stats: dict = {}
    t0 = time.perf_counter()
    udg = unit_disk_graph(points)
    t1 = time.perf_counter()
    partition = greedy_components(points, udg)
    t2 = time.perf_counter()
    wedges = orient_components(points, partition)
    t3 = time.perf_counter()
    graph = induced_graph(points, wedges)
    t4 = time.perf_counter()
    failures, summary = check_spanner(points, graph, udg, partition)
    if failures:
        raise HopBoundViolation("; ".join(failures))
    t5 = time.perf_counter()

    sizes = [len(c) for c in partition.components]
    stats.update(
        {
            "n": len(points),
            "udg_edges": udg.edge_count,
            "graph_edges": graph.edge_count,
            "components": {s: sizes.count(s) for s in (1, 2, 3)},
            "seconds": {
                "udg": t1 - t0,
                "partition": t2 - t1,
                "orient": t3 - t2,
                "induce": t4 - t3,
                "verify": t5 - t4,
            },
        }
    )
    return SpannerResult(
        wedge_rows=wedges,
        graph=graph,
        summary=summary,
        partition=partition,
        runtime_stats=stats,
    )
