import pytest

from wedgespan.errors import DisconnectedUDGError
from wedgespan.generators import uniform_square
from wedgespan.geom import Point, column_wedge
from wedgespan.graph import CommGraph, hop_distances_from, unit_disk_graph
from wedgespan.spanner import (
    CASE_BOUNDS,
    SPANNER_HOPS,
    SPANNER_RANGE,
    _edge_case,
    build_spanner,
    greedy_components,
    orient_components,
    verify_hop_spanner,
)


def connected_instance(n, side, start_seed):
    seed = start_seed
    while True:
        pts = uniform_square(n, side=side, seed=seed)
        if unit_disk_graph(pts).is_connected():
            return pts, seed
        seed += 1


class TestGreedyComponents:
    def test_three_mutual(self):
        pts = [Point(0, 0), Point(0.5, 0), Point(0.25, 0.4)]
        part = greedy_components(pts, unit_disk_graph(pts))
        assert part.components == ((0, 1, 2),)

    def test_four_collinear(self):
        pts = [Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0)]
        part = greedy_components(pts, unit_disk_graph(pts))
        assert part.components == ((0, 1, 2), (3,))
        assert part.anchor[1] == 2  # nearest unit-disk neighbor inside the triple

    def test_lone_pair_whole_graph_case(self):
        pts = [Point(0, 0), Point(0.8, 0)]
        part = greedy_components(pts, unit_disk_graph(pts))
        assert part.components == ((0, 1),)
        assert part.anchor == (None,)

    def test_disconnected_rejected(self):
        pts = [Point(0, 0), Point(3, 0)]
        with pytest.raises(DisconnectedUDGError):
            greedy_components(pts, unit_disk_graph(pts))

    def test_lowest_index_rule(self):
        # 1 is farther from 0 than 2 and 3 are, but the lowest index wins.
        pts = [Point(0, 0), Point(0.9, 0), Point(0.1, 0), Point(0.6, 0)]
        part = greedy_components(pts, unit_disk_graph(pts))
        assert part.components == ((0, 1, 2), (3,))
        assert part.anchor[1] == 1  # nearest member of the triple

    def test_greedy_is_deterministic(self):
        pts, _ = connected_instance(60, 5.0, start_seed=0)
        udg = unit_disk_graph(pts)
        assert greedy_components(pts, udg).components == greedy_components(pts, udg).components

    def test_pipeline_deterministic(self):
        pts, _ = connected_instance(60, 5.0, start_seed=10)
        a, b = build_spanner(pts), build_spanner(pts)
        assert a.graph.edges() == b.graph.edges()
        assert a.wedge_rows.tolist() == b.wedge_rows.tolist()


def as_wedges(pts, rows):
    return [column_wedge(p, *row) for p, row in zip(pts, rows.tolist())]


class TestOrientComponents:
    def test_four_collinear_attachment(self):
        pts = [Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0)]
        part = greedy_components(pts, unit_disk_graph(pts))
        wedges = as_wedges(pts, orient_components(pts, part))
        assert all(w.radius == SPANNER_RANGE for w in wedges)
        targets = [x for x in (0, 1, 2) if wedges[x].contains(pts[3])]
        assert targets, "gadget wedge must cover the stray point"
        # stray point aims at the nearest covering apex and the edge is short
        best = min(targets, key=lambda x: pts[3].distance_to(pts[x]))
        assert wedges[3].contains(pts[best])
        assert pts[3].distance_to(pts[best]) <= 4.0 + 1e-9

    def test_single_point(self):
        pts = [Point(2, 2)]
        wedges = as_wedges(pts, orient_components(pts, greedy_components(pts, unit_disk_graph(pts))))
        assert wedges[0].bisector.degrees == 0.0

    def test_lone_pair_faces(self):
        pts = [Point(0, 0), Point(0.8, 0)]
        wedges = as_wedges(pts, orient_components(pts, greedy_components(pts, unit_disk_graph(pts))))
        assert wedges[0].contains(pts[1]) and wedges[1].contains(pts[0])


class TestBuildSpanner:
    def test_three_close_points(self):
        pts = [Point(0, 0), Point(0.6, 0), Point(0.3, 0.5)]
        res = build_spanner(pts)
        assert res.summary["hop_stretch"] <= 2
        assert res.summary["max_edge_len"] <= SPANNER_RANGE + 1e-9

    def test_pair_component_case(self):
        # triple {0,1,2}, then pair {3,4}; pair's unit-disk neighbor sits in the triple
        pts = [Point(0, 0), Point(0.5, 0), Point(1, 0), Point(1.9, 0), Point(2.7, 0)]
        res = build_spanner(pts)
        sizes = sorted(len(c) for c in res.partition.components)
        assert sizes == [2, 3]
        [d] = hop_distances_from(res.graph, 3, [4])
        assert d is not None and d <= 4

    def test_disconnected_udg(self):
        with pytest.raises(DisconnectedUDGError):
            build_spanner([Point(0, 0), Point(3, 0)])

    def test_random_instances(self):
        seed = 0
        for _ in range(20):
            pts, seed = connected_instance(120, 8.0, start_seed=seed)
            seed += 1
            res = build_spanner(pts)
            assert res.summary["hop_stretch"] <= SPANNER_HOPS
            assert res.summary["max_edge_len"] <= SPANNER_RANGE * (1 + 1e-9)
            assert res.graph.is_connected()
            report = verify_hop_spanner(
                res.graph, unit_disk_graph(pts), SPANNER_HOPS, res.partition
            )
            assert report.passed
            for case, bound in CASE_BOUNDS.items():
                assert report.case_max.get(case, 0) <= bound

    def test_small_component_edges_short(self):
        seed = 100
        for _ in range(5):
            pts, seed = connected_instance(80, 7.0, start_seed=seed)
            seed += 1
            res = build_spanner(pts)
            for k, comp in enumerate(res.partition.components):
                if len(comp) == 3 or res.partition.anchor[k] is None:
                    continue
                host = res.partition.components[
                    res.partition.component_of[res.partition.anchor[k]]
                ]
                for p in comp:
                    linked = [
                        x for x in host if res.graph.has_edge(p, x)
                    ]
                    assert linked, "small component must link to its host gadget"
                    assert min(
                        pts[p].distance_to(pts[x]) for x in linked
                    ) <= 4.0 + 1e-9


class TestVerifyHopSpanner:
    def test_identity_spanner(self):
        g = unit_disk_graph([Point(0, 0), Point(0.5, 0), Point(1.2, 0)])
        report = verify_hop_spanner(g, g, 1)
        assert report.passed and report.max_hops == 1

    def test_missing_bridge_detected(self):
        pts = [Point(0, 0), Point(1, 0), Point(2, 0)]
        udg = unit_disk_graph(pts)
        g = CommGraph(3, [0], [1], [1.0])  # drop the 1-2 bridge
        report = verify_hop_spanner(g, udg, 6)
        assert not report.passed
        assert any("(1,2)" in f for f in report.failures)

    def test_vertex_set_must_match(self):
        with pytest.raises(ValueError):
            verify_hop_spanner(CommGraph(2, [], [], []), CommGraph(3, [], [], []), 6)


def full_bfs_report(g, udg, cap, partition):
    """Reference report from one unrestricted BFS per vertex."""
    failures, max_hops, worst, case_max = [], 0, None, {}
    for u, v, _ in udg.edges():
        dist = {u: 0}
        frontier = [u]
        while frontier:
            nxt = []
            for x in frontier:
                for y in g.neighbors(x):
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        d = dist.get(v)
        if d is None:
            failures.append(f"unit-disk edge ({u},{v}) is disconnected in the spanner")
            continue
        if d > max_hops:
            max_hops, worst = d, (u, v)
        if d > cap:
            failures.append(f"unit-disk edge ({u},{v}) needs {d} hops > cap {cap}")
        case = _edge_case(partition, u, v)
        case_max[case] = max(case_max.get(case, 0), d)
        if d > CASE_BOUNDS[case]:
            failures.append(f"edge ({u},{v}) of case {case} needs {d} hops > {CASE_BOUNDS[case]}")
    return max_hops, worst, case_max, failures


class TestHopReportMatchesFullBFS:
    def check(self, g, udg, cap, partition):
        report = verify_hop_spanner(g, udg, cap, partition)
        max_hops, worst, case_max, failures = full_bfs_report(g, udg, cap, partition)
        assert report.max_hops == max_hops
        assert report.worst_edge == worst
        assert report.case_max == case_max
        assert list(report.failures) == failures
        assert report.passed == (not failures)
        return report

    def test_passing_spanner(self):
        pts, _ = connected_instance(60, 4.0, start_seed=3)
        res = build_spanner(pts)
        report = self.check(res.graph, unit_disk_graph(pts), SPANNER_HOPS, res.partition)
        assert report.passed and report.max_hops == res.summary["hop_stretch"]

    def test_cap_below_stretch_fails(self):
        pts, _ = connected_instance(60, 4.0, start_seed=3)
        res = build_spanner(pts)
        report = self.check(res.graph, unit_disk_graph(pts), 2, res.partition)
        assert any("hops > cap 2" in f for f in report.failures)

    def test_deleted_edges_fail_with_reference_hop_counts(self):
        pts, _ = connected_instance(60, 4.0, start_seed=3)
        res = build_spanner(pts)
        udg = unit_disk_graph(pts)
        edges = res.graph.edges()
        failures = [
            f
            for k in range(0, len(edges), 3)
            for f in self.check(
                CommGraph(len(pts), *zip(*(edges[:k] + edges[k + 1 :]))), udg, SPANNER_HOPS, res.partition
            ).failures
        ]
        assert any("hops >" in f for f in failures)
        assert any("disconnected" in f for f in failures)

    def test_unreachable_edge_reported(self):
        pts = [Point(0, 0), Point(0.5, 0), Point(1, 0), Point(1.9, 0), Point(2.7, 0)]
        res = build_spanner(pts)
        g = CommGraph(5, *zip(*(e for e in res.graph.edges() if 4 not in e[:2])))
        report = self.check(g, unit_disk_graph(pts), SPANNER_HOPS, res.partition)
        assert any("disconnected" in f for f in report.failures)
