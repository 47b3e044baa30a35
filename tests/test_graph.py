import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedgespan.errors import ApexMismatchError, DuplicatePointError, TooFewPointsError
from wedgespan.gadget import orient_pair, orient_triplet
from wedgespan import graph
from wedgespan.geom import Direction, Point, Wedge, coordinates
from wedgespan.graph import (
    CommGraph,
    DisjointSets,
    cross_edge,
    euclidean_mst,
    hop_distances_from,
    induced_graph,
    tree_from_edges,
    tsp_tour,
    unit_disk_graph,
)
from wedgespan.generators import (
    clustered,
    collinear,
    hex_grid_points,
    square_grid_reduction_points,
    uniform_square,
)
from wedgespan.oracle import brute_force_alpha_mst, dense_prim_mst


def rand_points(rng, k, side=1.0):
    return [Point(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(k)]


class TestInducedGraph:
    def test_gadget_edges(self):
        pts = [Point(0, 0), Point(3, 1), Point(1, 2)]
        tri = orient_triplet(pts)
        g = induced_graph(pts, list(tri.wedges))
        for a, b in tri.tree_edges:
            assert g.has_edge(a, b)

    def test_facing_pair(self):
        pts = [Point(0, 0), Point(1, 0)]
        g = induced_graph(pts, list(orient_pair(pts, 120.0)))
        assert g.edge_count == 1 and g.has_edge(0, 1)

    def test_back_to_back(self):
        pts = [Point(0, 0), Point(1, 0)]
        wedges = [
            Wedge(pts[0], Direction(180), 120.0),
            Wedge(pts[1], Direction(0), 120.0),
        ]
        assert induced_graph(pts, wedges).edge_count == 0

    def test_apex_mismatch(self):
        pts = [Point(0, 0), Point(1, 0)]
        wedges = [
            Wedge(Point(5, 5), Direction(0), 120.0),
            Wedge(pts[1], Direction(180), 120.0),
        ]
        with pytest.raises(ApexMismatchError):
            induced_graph(pts, wedges)

    def test_numpy_path_matches_python(self):
        rng = random.Random(11)
        pts = rand_points(rng, 60, side=4.0)
        wedges = [
            Wedge(p, Direction(rng.uniform(0, 360)), 120.0, radius=2.0) for p in pts
        ]
        big = induced_graph(pts, wedges)
        small = CommGraph(len(pts))
        for u in range(len(pts)):
            for v in range(u + 1, len(pts)):
                if wedges[u].contains(pts[v]) and wedges[v].contains(pts[u]):
                    small.add_edge(u, v, pts[u].distance_to(pts[v]))
        assert big.edge_set() == small.edge_set()

    @pytest.mark.parametrize("n", [2, 6, 16])
    def test_matches_wedge_contains_at_small_n(self, n):
        rng = random.Random(n)
        pts = rand_points(rng, n, side=3.0)
        wedges = [
            Wedge(p, Direction(rng.uniform(0, 360)), rng.choice([90.0, 120.0, 180.0]),
                  radius=rng.choice([None, 2.0]))
            for p in pts
        ]
        g = induced_graph(pts, wedges)
        expect = {
            (u, v): pts[u].distance_to(pts[v])
            for u in range(n)
            for v in range(u + 1, n)
            if wedges[u].contains(pts[v]) and wedges[v].contains(pts[u])
        }
        assert {(u, v): w for u, v, w in g.edges()} == expect

    def test_coincident_apex_rule(self):
        # Back-to-back wedges still join points that coincide within tolerance.
        pts = [Point(0, 0), Point(1e-12, 0)]
        wedges = [Wedge(pts[0], Direction(180), 90.0), Wedge(pts[1], Direction(0), 90.0)]
        assert wedges[0].contains(pts[1]) and wedges[1].contains(pts[0])
        assert induced_graph(pts, wedges).has_edge(0, 1)

    def test_pairs_match_dense_restricted(self):
        # Bounded and unbounded wedges, two apexes that coincide within the
        # tolerance, a point exactly on a bounding ray; pairs in both orders
        # and repeated.
        rng = random.Random(7)
        for _ in range(40):
            pts = rand_points(rng, 12, side=3.0)
            pts.append(Point(pts[0].x + 1e-12, pts[0].y))
            pts.append(Point(pts[1].x + 1.0, pts[1].y))
            wedges = [
                Wedge(p, Direction(rng.uniform(0, 360)), rng.choice([60.0, 90.0, 120.0, 180.0]),
                      radius=rng.choice([None, 1.5, 4.0]))
                for p in pts
            ]
            wedges[1] = Wedge(pts[1], Direction(45), 90.0)  # right ray through the last point
            everything = [(u, v) for u in range(len(pts)) for v in range(u + 1, len(pts))]
            picked = rng.sample(everything, 40) + [(0, 12), (13, 1)]
            pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in picked]
            pairs += pairs[:5]
            sparse = induced_graph(pts, wedges, ([u for u, _ in pairs], [v for _, v in pairs]))
            wanted = {(min(u, v), max(u, v)) for u, v in pairs}
            dense = {(u, v): w for u, v, w in induced_graph(pts, wedges).edges() if (u, v) in wanted}
            assert {(u, v): w for u, v, w in sparse.edges()} == dense
            for u, v in wanted:
                mutual = wedges[u].contains(pts[v]) and wedges[v].contains(pts[u])
                assert sparse.has_edge(u, v) == mutual, (u, v)
            assert wedges[1].contains(pts[13]) and sparse.has_edge(0, 12)
            assert sparse.has_edge(1, 13) == wedges[13].contains(pts[1])

    def test_pairs_read_only_their_wedges(self):
        pts = [Point(0, 0), Point(1, 0), Point(5, 5)]
        wedges = [Wedge(pts[0], Direction(0), 90.0), Wedge(pts[1], Direction(180), 90.0), None]
        assert induced_graph(pts, wedges, ([1], [0])).edges() == [(0, 1, 1.0)]
        assert induced_graph(pts, wedges, ([], [])).edge_count == 0
        wedges[1] = Wedge(pts[2], Direction(180), 90.0)
        with pytest.raises(ApexMismatchError, match="wedge 1 "):
            induced_graph(pts, wedges, ([0], [1]))


class TestUnitDiskGraph:
    def test_basic(self):
        g = unit_disk_graph([Point(0, 0), Point(0.5, 0), Point(2, 0)])
        assert g.edge_set() == {(0, 1)}

    def test_boundary_closed(self):
        g = unit_disk_graph([Point(0, 0), Point(1, 0)])
        assert g.has_edge(0, 1)

    def test_empty(self):
        g = unit_disk_graph([])
        assert g.n == 0 and g.edge_count == 0

    def test_matches_brute_force_neighborhoods(self):
        rng = random.Random(41)
        pts = [Point(rng.uniform(0, 5), rng.uniform(0, 5)) for _ in range(80)]
        g = unit_disk_graph(pts)
        for i in range(80):
            expect = [
                j for j in range(80) if j != i and pts[i].distance_to(pts[j]) <= 1.0 + 1e-9
            ]
            assert g.neighbors(i) == expect
            assert all(g.weight(i, j) == pts[i].distance_to(pts[j]) for j in expect)

    def test_tolerant_boundary_across_two_cells(self):
        # Farther than 1 but within the closed tolerance, with the points two
        # unit-wide columns apart.
        pts = [Point(0.9999999999, 0), Point(2.0000000005, 0)]
        assert unit_disk_graph(pts).has_edge(0, 1)
        assert not unit_disk_graph([Point(0, 0), Point(1.000001, 0)]).has_edge(0, 1)

    @pytest.mark.parametrize("seed", range(3))
    def test_grid_and_all_pairs_agree(self, seed, monkeypatch):
        # Up to ALL_PAIRS_N points every pair is a candidate; both sources
        # give the same graph, tolerant boundaries two cells apart included.
        rng = random.Random(seed)
        pts = [Point(rng.uniform(0, 5), rng.uniform(0, 5)) for _ in range(50)]
        pts += [Point(0.9999999999, 7.0), Point(2.0000000005, 7.0), Point(9.0, 9.0), Point(10.000001, 9.0)]
        graphs = []
        for all_pairs_n in (0, 1000):
            monkeypatch.setattr(graph, "ALL_PAIRS_N", all_pairs_n)
            graphs.append(unit_disk_graph(pts))
        grid, every = graphs
        assert grid.edges() == every.edges()
        assert all(grid.neighbors(i) == every.neighbors(i) for i in range(len(pts)))
        assert grid.has_edge(50, 51) and not grid.has_edge(52, 53)


class TestHopDistance:
    def test_path(self):
        g = CommGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert hop_distances_from(g, 0, [2, 1]) == [2, 1]

    def test_same_vertex(self):
        g = CommGraph(3, [(0, 1, 1.0)])
        assert hop_distances_from(g, 1, [1]) == [0]

    def test_unreachable(self):
        g = CommGraph(3, [(0, 1, 1.0)])
        assert hop_distances_from(g, 0, [2, 1]) == [None, 1]


class TestEuclideanMST:
    def test_collinear(self):
        mst = euclidean_mst([Point(0, 0), Point(1, 0), Point(2, 0)])
        assert mst.weight == pytest.approx(2.0)

    def test_unit_square(self):
        mst = euclidean_mst([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])
        assert mst.weight == pytest.approx(3.0)

    def test_equilateral_with_center(self):
        side = 1.0
        pts = [
            Point(0, 0),
            Point(side, 0),
            Point(side / 2, side * math.sqrt(3) / 2),
            Point(side / 2, side * math.sqrt(3) / 6),
        ]
        mst = euclidean_mst(pts)
        assert mst.weight == pytest.approx(math.sqrt(3.0), rel=1e-9)

    def test_single_point(self):
        mst = euclidean_mst([Point(2, 3)])
        assert mst.edges == () and mst.weight == 0.0

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicatePointError):
            euclidean_mst([Point(0, 0), Point(0, 0)])

    def test_rigid_motion_invariance(self):
        rng = random.Random(21)
        pts = rand_points(rng, 15)
        base = euclidean_mst(pts).weight
        for rot, tx, ty in ((37.0, 5.0, -2.0), (118.0, -3.3, 0.7), (290.0, 100.0, 41.0)):
            rad = math.radians(rot)
            c, s = math.cos(rad), math.sin(rad)
            moved = [Point(c * p.x - s * p.y + tx, s * p.x + c * p.y + ty) for p in pts]
            assert euclidean_mst(moved).weight == pytest.approx(base, rel=1e-9)

    def test_matches_brute_force_minimum(self):
        rng = random.Random(22)
        for _ in range(25):
            pts = rand_points(rng, rng.randint(2, 7))
            exact = brute_force_alpha_mst(pts, 360.0)
            assert euclidean_mst(pts).weight == pytest.approx(exact.weight, rel=1e-9)


def assert_same_as_dense_prim(pts):
    got, ref = euclidean_mst(pts), dense_prim_mst(pts)
    assert got.edges == ref.edges
    assert got.weight == ref.weight
    # euclidean_mst picks one of two paths by n; each must give dense Prim's
    # edges in its join order, which the weight's summation order shows.
    paths = [graph._grid_prim] + ([graph._matrix_prim] if len(pts) <= 400 else [])
    for path in paths if len(pts) > 1 else ():
        edges = path(coordinates(pts))
        assert tuple(sorted(edges)) == ref.edges
        assert sum(pts[u].distance_to(pts[v]) for u, v in edges) == ref.weight


class TestEuclideanMSTMatchesDensePrim:
    """The grid-pruned Prim returns dense Prim's tree: same edges, same weight bits."""

    @pytest.mark.parametrize("pts", [
        [Point(0.3, -2.0)],
        [Point(0, 0), Point(3, 4)],
        [Point(0, 0), Point(1, 0), Point(0.5, math.sqrt(3) / 2)],
    ])
    def test_tiny(self, pts):
        assert_same_as_dense_prim(pts)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [4, 9, 40, 300, 2000])
    def test_uniform_and_clustered(self, seed, n):
        assert_same_as_dense_prim(uniform_square(n, seed=seed))
        assert_same_as_dense_prim(clustered(n, seed=seed))

    @pytest.mark.parametrize("pts", [
        collinear(2), collinear(17), collinear(400), collinear(50, gap=1e-4),
        hex_grid_points(1), hex_grid_points(6), hex_grid_points(60),
        square_grid_reduction_points(2, 3), square_grid_reduction_points(5, 5),
        square_grid_reduction_points(9, 4),
    ], ids=lambda pts: str(len(pts)))
    def test_tie_heavy(self, pts):
        assert_same_as_dense_prim(pts)

    def test_two_far_clusters(self):
        # No pair within the radius joins the clusters, so a dense step does.
        rng = random.Random(3)
        pts = rand_points(rng, 60) + [Point(p.x + 1000, p.y) for p in rand_points(rng, 60)]
        assert_same_as_dense_prim(pts)

    def test_lone_far_outlier(self):
        rng = random.Random(4)
        for where in (0, 30, 80):
            pts = rand_points(rng, 80)
            pts.insert(where, Point(-500.0, 7000.0))
            assert_same_as_dense_prim(pts)

    def test_clusters_at_large_coordinates(self):
        rng = random.Random(5)
        pts = [Point(1e6 + p.x, -1e6 + p.y) for p in rand_points(rng, 200, side=20.0)]
        assert_same_as_dense_prim(pts + [Point(1e6 + 300.0, -1e6)])

    def test_dense_cluster_with_sparse_surroundings(self):
        # Most points in a tiny blob: the radius is halved until the grid is sparse.
        rng = random.Random(6)
        pts = rand_points(rng, 300, side=1e-3) + rand_points(rng, 30, side=10.0)
        assert_same_as_dense_prim(pts)

    def test_blob_packed_below_the_narrowest_cell(self):
        # 100 points 1e-8 apart share one of the grid's narrowest cells
        # (span / 2^30), more than the pair budget at any radius: the
        # radius halving must stop and fall back to dense steps.
        blob = [Point(i * 1e-8, j * 1e-8) for i in range(10) for j in range(10)]
        for where in (0, 50, 100):
            assert_same_as_dense_prim(blob[:where] + [Point(1000.0, 0.0)] + blob[where:])

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=40, unique=True))
    @settings(max_examples=150, deadline=None)
    def test_integer_lattice_ties(self, cells):
        assert_same_as_dense_prim([Point(float(x), float(y)) for x, y in cells])

    def test_memory_bound(self):
        # Dense Prim peaks near 0.9 MB here, a layout with per-pair Python
        # objects near 3.8 MB; the bench's peak RSS follows the difference.
        pts = uniform_square(4800, seed=0)
        tracemalloc.start()
        try:
            euclidean_mst(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6


class TestTspTour:
    def test_collinear(self):
        tour = tsp_tour([Point(0, 0), Point(1, 0), Point(2, 0)])
        assert tour.order == (0, 1, 2)
        assert tour.weight == pytest.approx(4.0)

    def test_unit_square_perimeter(self):
        tour = tsp_tour([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])
        assert tour.weight == pytest.approx(4.0)

    def test_two_points(self):
        tour = tsp_tour([Point(0, 0), Point(3, 4)])
        assert tour.weight == pytest.approx(10.0)

    def test_too_few(self):
        with pytest.raises(TooFewPointsError):
            tsp_tour([Point(0, 0)])

    def test_twice_mst_bound(self):
        rng = random.Random(23)
        for _ in range(50):
            pts = rand_points(rng, rng.randint(2, 40))
            mst = euclidean_mst(pts)
            tour = tsp_tour(pts, mst=mst)
            assert tour.weight <= 2.0 * mst.weight * (1.0 + 1e-9)
            assert sorted(tour.order) == list(range(len(pts)))


class TestTreeFromEdges:
    def test_cycle_rejected(self):
        pts = [Point(0, 0), Point(1, 0), Point(0, 1)]
        with pytest.raises(ValueError):
            tree_from_edges(pts, [(0, 1), (1, 2), (0, 2)])

    def test_wrong_count_rejected(self):
        pts = [Point(0, 0), Point(1, 0), Point(0, 1)]
        with pytest.raises(ValueError):
            tree_from_edges(pts, [(0, 1)])


class TestDisjointSets:
    def test_union_reports_merges_and_counts_sets(self):
        sets = DisjointSets(5)
        assert sets.union(0, 1) and sets.union(2, 3) and sets.union(1, 3)
        assert not sets.union(0, 2)
        assert sets.count == 2
        assert sets.find(0) == sets.find(3) != sets.find(4)


class TestCrossEdge:
    def test_triplet_pair_always_present(self):
        rng = random.Random(24)
        for _ in range(200):
            pts1 = rand_points(rng, 3)
            pts2 = rand_points(rng, 3)
            t1, t2 = orient_triplet(pts1), orient_triplet(pts2)
            pts = pts1 + pts2
            g = induced_graph(pts, list(t1.wedges) + list(t2.wedges))
            assert cross_edge(g, [0, 1, 2], [3, 4, 5]) is not None

    def test_absent_without_coverage(self):
        pts = [Point(0, 0), Point(1, 0)]
        wedges = [
            Wedge(pts[0], Direction(180), 90.0),
            Wedge(pts[1], Direction(0), 90.0),
        ]
        g = induced_graph(pts, wedges)
        assert cross_edge(g, [0], [1]) is None

    def test_minimum_length_rule(self):
        g = CommGraph(4, [(0, 2, 2.0), (1, 3, 1.0)])
        assert cross_edge(g, [0, 1], [2, 3]) == (1, 3)

    def test_tie_breaks_lexicographically(self):
        g = CommGraph(4, [(1, 2, 1.0), (0, 3, 1.0)])
        assert cross_edge(g, [0, 1], [2, 3]) == (0, 3)

    def test_tie_breaks_by_position_not_id(self):
        # Three edges of equal weight; sides listed in descending id order.
        g = CommGraph(6, [(5, 0, 1.0), (5, 1, 1.0), (4, 1, 1.0), (4, 0, 2.0)])
        assert cross_edge(g, [5, 4], [1, 0]) == (5, 1)
        assert cross_edge(g, [4, 5], [0, 1]) == (4, 1)
        assert cross_edge(g, [0, 1], [4, 5]) == (0, 5)

    def test_disjointness_required(self):
        g = CommGraph(3, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            cross_edge(g, [0, 1], [1, 2])
