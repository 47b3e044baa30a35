import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedgespan.errors import ApexMismatchError, DuplicatePointError, GuaranteeViolation, TooFewPointsError
from wedgespan.gadget import orient_pair, orient_triplet
from wedgespan import graph
from wedgespan.approx import build_tree
from wedgespan.io import Instance, emit_instance, parse_instance
from wedgespan.cli import main
from wedgespan.geom import (
    ANGLE_TOL_DEG,
    REL_TOL,
    Direction,
    Point,
    PointArray,
    Wedge,
    column_wedge,
    coordinates,
    wedge_columns,
)
from wedgespan.graph import (
    CommGraph,
    DisjointSets,
    SpanningTree,
    cross_edge,
    euclidean_mst,
    hop_distances_from,
    induced_graph,
    sum_left,
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
from wedgespan.oracle import brute_force_alpha_mst
from wedgespan.spanner import greedy_components, orient_components

from reference import batch_triplets, cross_edge_scalar, dense_prim_mst


def graph_of(n, triples):
    """The CommGraph on n vertices with edges (u, v, weight), in any order and orientation."""
    ends = sorted((min(u, v), max(u, v), w) for u, v, w in triples)
    return CommGraph(n, [u for u, _, _ in ends], [v for _, v, _ in ends], [w for _, _, w in ends])


def rand_points(rng, k, side=1.0):
    return [Point(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(k)]


class TestCommGraph:
    @pytest.mark.parametrize(
        "u, v",
        [([1], [1]), ([2], [1]), ([0, 0], [1, 1]), ([0, 0], [2, 1]), ([1, 0], [2, 2]),
         ([-1], [1]), ([0], [3])],
        ids=["self-loop", "reversed", "repeated", "unsorted-v", "unsorted-u", "negative", "past-n"],
    )
    def test_constructor_rejects_bad_pair(self, u, v):
        with pytest.raises(ValueError, match=r"is not an ascending pair u < v in 0\.\.2"):
            CommGraph(3, u, v, [1.0] * len(u))

    def test_constructor_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            CommGraph(3, [0, 1], [1, 2], [1.0])

    def test_lookups(self):
        g = CommGraph(4, [0, 0, 1], [1, 3, 3], [0.5, 1.5, 2.5])
        assert g.edges() == [(0, 1, 0.5), (0, 3, 1.5), (1, 3, 2.5)]
        assert [g.neighbors(x) for x in range(4)] == [[1, 3], [0, 3], [], [0, 1]]
        assert [g.degree(x) for x in range(4)] == [2, 2, 0, 2]
        assert g.weight(3, 1) == 2.5 and g.weight(0, 3) == 1.5
        assert g.has_edge(3, 0) and not g.has_edge(1, 2) and not g.has_edge(2, 2)
        with pytest.raises(KeyError):
            g.weight(0, 2)
        assert not g.is_connected() and type(g.weight(0, 1)) is float

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_are_the_incidences_of_edges(self, seed):
        pts = uniform_square(300, side=math.sqrt(60), seed=seed)
        udg = unit_disk_graph(pts)
        network = induced_graph(pts, orient_components(pts, greedy_components(pts, udg)))
        for g in (udg, network):
            rows = [[] for _ in range(g.n)]
            for u, v, w in g.edges():
                rows[u].append(v)
                rows[v].append(u)
                assert g.weight(v, u) == w
            assert all(g.neighbors(x) == sorted(rows[x]) for x in range(g.n))


_WALKS = {
    "neighbors": lambda g: [g.neighbors(x) for x in range(g.n)],
    "has_edge": lambda g: [g.has_edge(x, y) for x in range(g.n) for y in range(g.n)],
    "weight": lambda g: [g.weight(u, v) for u, v, _ in g.edges()] + [g.weight(v, u) for u, v, _ in g.edges()],
    "degree": lambda g: [g.degree(x) for x in range(g.n)],
    "is_connected": lambda g: g.is_connected(),
    "hop_distances_from": lambda g: [hop_distances_from(g, x, range(g.n)) for x in range(g.n)],
}


@pytest.fixture
def row_builds(monkeypatch):
    """The graphs whose rows get built, one entry per build."""
    built = []
    build = CommGraph.__getattr__
    monkeypatch.setattr(CommGraph, "__getattr__", lambda self, name: built.append(self) or build(self, name))
    return built


class TestRowsBuiltOnFirstWalk:
    """A graph's neighbour rows are built by the first call that walks them."""

    @staticmethod
    def graph():
        return graph_of(6, [(0, 1, 0.5), (0, 4, 1.5), (1, 4, 2.5), (2, 3, 1.0), (3, 5, 0.25)])

    @pytest.mark.parametrize("first", sorted(_WALKS))
    def test_every_walk_answers_the_same_whichever_comes_first(self, row_builds, first):
        want = {name: walk(self.graph()) for name, walk in _WALKS.items()}
        g = self.graph()
        row_builds.clear()
        assert _WALKS[first](g) == want[first]
        assert row_builds == [g]
        assert {name: walk(g) for name, walk in _WALKS.items()} == want
        assert row_builds == [g]

    def test_a_missing_weight_raises_before_and_after_the_build(self):
        g = self.graph()
        for _ in range(2):
            with pytest.raises(KeyError):
                g.weight(0, 2)
            assert g.weight(4, 1) == 2.5
        with pytest.raises(AttributeError):
            g.rows  # only the two row attributes are built on demand

    @pytest.mark.parametrize("n", [4800, 4801])
    def test_alpha_120_build_leaves_its_induced_graph_unwalked(self, monkeypatch, row_builds, n):
        made = []
        init = CommGraph.__init__
        monkeypatch.setattr(CommGraph, "__init__", lambda self, *args: made.append(self) or init(self, *args))
        points = parse_instance(emit_instance(Instance(points=uniform_square(n, seed=0), meta={}))).points
        build_tree(points, 120)
        assert len(made) == 1 and row_builds == []


class TestInducedGraph:
    def test_gadget_edges(self):
        pts = [Point(0, 0), Point(3, 1), Point(1, 2)]
        tri = orient_triplet(pts, [(0, 1, 2)])
        rows = np.column_stack((tri.bisectors[0], [120.0] * 3, [math.inf] * 3))
        for g in (induced_graph(pts, rows), induced_graph(pts, [column_wedge(p, *w) for p, w in zip(pts, rows)])):
            for a, b in tri.tree_edges[0].tolist():
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
        small = graph_of(len(pts), [
            (u, v, pts[u].distance_to(pts[v]))
            for u in range(len(pts))
            for v in range(u + 1, len(pts))
            if wedges[u].contains(pts[v]) and wedges[v].contains(pts[u])
        ])
        assert big.edges() == small.edges()

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

    def test_given_pairs_match_full_pass_restricted(self):
        # Bounded and unbounded wedges, two apexes that coincide within the
        # tolerance, a point exactly on a bounding ray; pairs in both orders
        # and repeated. Given pairs and the pass over every candidate pair
        # agree on the pairs given, and both with Wedge.contains.
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
            given = induced_graph(pts, wedges, ([u for u, _ in pairs], [v for _, v in pairs]))
            wanted = {(min(u, v), max(u, v)) for u, v in pairs}
            full = {(u, v): w for u, v, w in induced_graph(pts, wedges).edges() if (u, v) in wanted}
            assert {(u, v): w for u, v, w in given.edges()} == full
            for u, v in wanted:
                mutual = wedges[u].contains(pts[v]) and wedges[v].contains(pts[u])
                assert given.has_edge(u, v) == mutual, (u, v)
            assert wedges[1].contains(pts[13]) and given.has_edge(0, 12)
            assert given.has_edge(1, 13) == wedges[13].contains(pts[1])

    @pytest.mark.parametrize("radii", [(1.5, 3.0), (None, 1.5, 3.0)], ids=["finite", "mixed"])
    def test_grid_candidates_match_brute_force(self, radii):
        # 150 points near (1000, 1000), where the apex tolerance is 1e-6;
        # the grid's candidates are a single cell's worth when some wedge is
        # unbounded.
        rng = random.Random(len(radii))
        pts = [Point(1000.0, 1006.0)] + [
            Point(1000.0 + rng.uniform(0, 12), 1000.0 + rng.uniform(0, 12)) for _ in range(145)
        ]
        wedges = [
            Wedge(p, Direction(rng.uniform(0, 360)), rng.choice([90.0, 120.0, 180.0]),
                  radius=rng.choice(radii))
            for p in pts
        ]
        # A facing pair at exactly the tolerant range 3 (1 + REL_TOL), in
        # adjacent grid columns.
        pts += [Point(1002.0, 1009.0), Point(1002.0 + 3.0 * (1.0 + REL_TOL), 1009.0)]
        wedges += [Wedge(pts[-2], Direction(0), 90.0, 3.0), Wedge(pts[-1], Direction(180), 90.0, 3.0)]
        # A facing pair 3 apart from apexes moved 0.9 tolerances towards each
        # other: the points are farther apart than the range, and two grid
        # columns apart unless the candidate radius is padded.
        off = 0.9 * REL_TOL * 1003.0
        near, far = Point(1002.9999996, 1003.0), Point(1002.9999996 + 3.0 + off, 1003.0)
        pts += [near, far]
        wedges += [
            Wedge(Point(near.x + off, near.y), Direction(0), 90.0, 3.0),
            Wedge(Point(far.x - off, far.y), Direction(180), 90.0, 3.0),
        ]
        n = len(pts)
        expect = {
            (u, v): pts[u].distance_to(pts[v])
            for u in range(n)
            for v in range(u + 1, n)
            if wedges[u].contains(pts[v]) and wedges[v].contains(pts[u])
        }
        assert (n - 4, n - 3) in expect and (n - 2, n - 1) in expect
        assert pts[n - 1].distance_to(pts[n - 2]) > 3.0 * (1.0 + REL_TOL)
        g = induced_graph(pts, wedges)
        assert {(u, v): w for u, v, w in g.edges()} == expect
        assert all(g.neighbors(u) == sorted(g.neighbors(u)) for u in range(n))

    def test_memory_bound(self):
        # The 2000-point convert network (range 7, 65k edges). A dense n x n
        # pass peaked at 168 MB here; the candidate pairs at about 16 MB.
        pts = uniform_square(2000, side=20.0, seed=1)
        udg = unit_disk_graph(pts)
        wedges = orient_components(pts, greedy_components(pts, udg))
        # Held while the graph is alive: its edge arrays and rows, about 3 MB
        # (a tuple-keyed weight dict with adjacency lists took 12.8 MB).
        tracemalloc.start()
        try:
            g = induced_graph(pts, wedges)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6
        assert g.edge_count > 60000 and held < 6e6

    def test_pairs_read_only_their_wedges(self):
        pts = [Point(0, 0), Point(1, 0), Point(5, 5)]
        wedges = [Wedge(pts[0], Direction(0), 90.0), Wedge(pts[1], Direction(180), 90.0), None]
        assert induced_graph(pts, wedges, ([1], [0])).edges() == [(0, 1, 1.0)]
        assert induced_graph(pts, wedges, ([], [])).edge_count == 0
        wedges[1] = Wedge(pts[2], Direction(180), 90.0)
        with pytest.raises(ApexMismatchError, match="wedge 1 "):
            induced_graph(pts, wedges, ([0], [1]))


def _ulps(x, k):
    """x moved k ulps (toward +inf for k > 0)."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.copysign(math.inf, k)))
    return x


def _straddling(wedge, heading, dist):
    """Points a few ulps on either side of the point ``dist`` from the
    wedge's apex in the direction ``heading`` (degrees)."""
    a = wedge.apex
    rad = math.radians(heading)
    x, y = a.x + dist * math.cos(rad), a.y + dist * math.sin(rad)
    return [Point(_ulps(x, i), _ulps(y, j)) for i in range(-3, 4) for j in range(-3, 4)]


class TestCoversMatchesContains:
    @pytest.mark.parametrize("seed", range(4))
    def test_ulps_around_every_boundary(self, seed):
        rng = random.Random(seed)
        probes, wedges = [], []
        for _ in range(40):
            offset = rng.choice([1.0, 1e3, 1e7])
            apex = Point(rng.uniform(-offset, offset), rng.uniform(-offset, offset))
            w = Wedge(apex, Direction(rng.uniform(0, 360)), rng.choice([60.0, 90.0, 120.0, 180.0, 359.0]),
                      rng.choice([None, 1.0, 7.0]))
            widened = w.aperture_deg / 2.0 + ANGLE_TOL_DEG
            reach = (w.radius or 10.0) * (1.0 + REL_TOL)
            scale = max(1.0, abs(apex.x), abs(apex.y))
            near = [
                *_straddling(w, w.bisector.degrees + widened, rng.uniform(0.1, 1.0) * reach),
                *_straddling(w, w.bisector.degrees - widened, rng.uniform(0.1, 1.0) * reach),
                *_straddling(w, w.bisector.degrees + rng.uniform(-1, 1) * widened, reach),
                *_straddling(w, rng.uniform(0, 360), REL_TOL * scale),
            ]
            probes += near
            wedges += [w] * len(near)
        at = np.arange(len(probes))
        rows = graph._vertex_arrays(coordinates(probes), wedge_columns(wedges), coordinates([w.apex for w in wedges]))
        got = graph._covers(rows, at, at)
        want = np.array([w.contains(q) for w, q in zip(wedges, probes)])
        assert 0 < want.sum() < len(want)
        assert (got == want).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_column_rows_with_bisectors_many_turns_off(self, seed):
        # A result file's bisector may be any finite number; the wedge it
        # records is Direction's, whatever the count of whole turns in it.
        rng = random.Random(seed)
        apexes, cols, probes, owner = [], [], [], []
        for k in range(30):
            apex = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
            bisector = rng.choice([-1, 1]) * rng.uniform(1, 2) * 2.0 ** rng.randint(8, 80)
            row = [bisector, rng.choice([90.0, 120.0, 180.0]), rng.choice([math.inf, 7.0])]
            w = column_wedge(apex, *row)
            widened = w.aperture_deg / 2.0 + ANGLE_TOL_DEG
            for heading in (w.bisector.degrees + widened, w.bisector.degrees - widened, rng.uniform(0, 360)):
                near = _straddling(w, heading, rng.uniform(0.1, 1.0) * min(row[2], 10.0))
                probes += near
                owner += [k] * len(near)
            apexes.append(apex)
            cols.append(row)
        xy = coordinates(apexes + probes)
        rows = graph._vertex_arrays(xy, np.array(cols + [[0.0, 90.0, math.inf]] * len(probes)))
        got = graph._covers(rows, np.array(owner), len(apexes) + np.arange(len(probes)))
        want = np.array([column_wedge(apexes[k], *cols[k]).contains(q) for k, q in zip(owner, probes)])
        assert 0 < want.sum() < len(want)
        assert (got == want).all()

    def test_apex_within_tolerance_passes_and_mismatch_names_its_vertex(self):
        pts = [Point(0, 0), Point(1, 0), Point(1, 1)]
        wedges = [Wedge(Point(1e-12, 0), Direction(0), 120.0), Wedge(pts[1], Direction(180), 120.0)]
        assert induced_graph(pts[:2], wedges).edge_count == 1
        wedges.append(Wedge(Point(1, 1.5), Direction(0), 120.0))
        with pytest.raises(ApexMismatchError, match=r"^wedge 2 apex Point\(x=1, y=1\.5\) is not at point Point\(x=1, y=1\)$"):
            induced_graph(pts, wedges)


class TestUnitDiskGraph:
    def test_basic(self):
        g = unit_disk_graph([Point(0, 0), Point(0.5, 0), Point(2, 0)])
        assert [(u, v) for u, v, _ in g.edges()] == [(0, 1)]

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
    def test_grid_and_all_pairs_agree(self, seed):
        # The grid's graph is a scan of every pair under the closed tolerant
        # rule, tolerant boundaries two cells apart included.
        rng = random.Random(seed)
        pts = [Point(rng.uniform(0, 5), rng.uniform(0, 5)) for _ in range(50)]
        pts += [Point(0.9999999999, 7.0), Point(2.0000000005, 7.0), Point(9.0, 9.0), Point(10.000001, 9.0)]
        every = [
            (i, j, pts[i].distance_to(pts[j]))
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
            if pts[i].distance_to(pts[j]) <= 1.0 + REL_TOL
        ]
        grid = unit_disk_graph(pts)
        assert grid.edges() == every
        assert grid.has_edge(50, 51) and not grid.has_edge(52, 53)

    @pytest.mark.parametrize("n", [2, 65])
    def test_coincident_points_give_complete_graph(self, n):
        # Span and radius 0 make a grid of one cell, not a zero-width one.
        g = unit_disk_graph([Point(0.5, 0.5)] * n)
        assert g.edges() == [(i, j, 0.0) for i in range(n) for j in range(i + 1, n)]


class TestHopDistance:
    def test_path(self):
        g = graph_of(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert hop_distances_from(g, 0, [2, 1]) == [2, 1]

    def test_same_vertex(self):
        g = graph_of(3, [(0, 1, 1.0)])
        assert hop_distances_from(g, 1, [1]) == [0]

    def test_unreachable(self):
        g = graph_of(3, [(0, 1, 1.0)])
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
    # euclidean_mst picks one of three routes by n and by ties; each must
    # give dense Prim's edges in its join order, which the weight's summation
    # order shows. The Borůvka route declines (None) on a tie or no pairs.
    if len(pts) < 2:
        return
    xy = coordinates(pts)
    pairs = graph._near_pairs(xy)
    joins = [graph._grid_prim(xy, pairs), graph._boruvka_prim(xy, pairs)]
    joins += [graph._matrix_prim(xy)] if len(pts) <= 400 else []
    for edges in joins:
        if edges is not None:
            assert tuple(sorted(edges)) == ref.edges
            assert sum(pts[u].distance_to(pts[v]) for u, v in edges) == ref.weight


def _refuse(*args):
    raise AssertionError("the step-by-step route ran")


class TestEuclideanMSTMatchesDensePrim:
    """Each route returns dense Prim's tree: same edges, same weight bits."""

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

    @pytest.mark.parametrize("n, seed", [(300, 0), (2000, 2)])
    def test_isolated_points_join_by_prim_steps_in_the_boruvka_route(self, monkeypatch, n, seed):
        # Some points have no other within the radius: the Borůvka route
        # itself joins them, folding rows, and hands nothing over.
        pts = uniform_square(n, seed=seed)
        folds = []
        fold_rows = graph._fold_rows
        monkeypatch.setattr(graph, "_fold_rows", lambda *args: folds.append(1) or fold_rows(*args))
        monkeypatch.setattr(graph, "_grid_prim", _refuse)
        xy = coordinates(pts)
        assert graph._boruvka_prim(xy, graph._near_pairs(xy)) is not None
        assert folds
        got, ref = euclidean_mst(pts), dense_prim_mst(pts)
        assert (got.edges, got.weight) == (ref.edges, ref.weight)

    def test_uniform_points_never_take_the_step_by_step_route(self, monkeypatch):
        pts = uniform_square(2000, seed=0)
        monkeypatch.setattr(graph, "_grid_prim", _refuse)
        got, ref = euclidean_mst(pts), dense_prim_mst(pts)
        assert (got.edges, got.weight) == (ref.edges, ref.weight)

    def test_two_equal_pairs_take_the_tie_route(self):
        # Two pairs exactly 2**-10 apart among uniform points.
        pts = uniform_square(300, seed=1) + [
            Point(0.5, 0.5), Point(0.5 + 2**-10, 0.5), Point(0.25, 0.75), Point(0.25, 0.75 + 2**-10),
        ]
        xy = coordinates(pts)
        assert graph._boruvka_prim(xy, graph._near_pairs(xy)) is None
        assert_same_as_dense_prim(pts)

    @pytest.mark.parametrize("far", [
        # A far point at exactly the same distance from two tree points.
        [Point(1.0, 0.5 - 2**-12), Point(1.0, 0.5 + 2**-12), Point(4.0, 0.5)],
        # The same, the second tree point joining in a later Prim step.
        [Point(1.0, 1.0), Point(3.0, 1.0), Point(2.0, 3.0)],
        # Two far points, each exactly 3 from its nearest tree point.
        [Point(1.0, 0.25), Point(1.0, 0.75), Point(4.0, 0.25), Point(4.0, 0.75)],
    ], ids=["one-point-two-parents", "one-point-two-parents-joined-apart", "two-points"])
    def test_tie_across_components_takes_the_tie_route(self, far):
        pts = uniform_square(300, seed=3) + far
        xy = coordinates(pts)
        assert graph._boruvka_prim(xy, graph._near_pairs(xy)) is None
        assert_same_as_dense_prim(pts)

    def test_replay_over_edges_that_do_not_span_raises(self):
        # Four edges on five points: a cycle 0-1-2 and 3-4, apart from it.
        u, v, d = np.array([0, 1, 0, 3]), np.array([1, 2, 2, 4]), np.array([1.0, 2.0, 3.0, 1.0])
        with pytest.raises(GuaranteeViolation, match="reach 3 of 5 points"):
            graph._prim_order(5, u, v, d)
        assert graph._prim_order(3, u[:2], v[:2], d[:2]) == [(0, 1), (1, 2)]

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


@pytest.fixture
def emst_runs(monkeypatch):
    """The sizes of the EMSTs computed: each runs ``_matrix_prim`` (n <= 64)
    or ``_near_pairs`` (above) exactly once."""
    runs = []
    for name in ("_matrix_prim", "_near_pairs"):
        real = getattr(graph, name)
        monkeypatch.setattr(graph, name, lambda xy, real=real: runs.append(len(xy)) or real(xy))
    return runs


class TestEuclideanMSTOncePerPointArray:
    @pytest.mark.parametrize("alpha", ["180", "120", "90"])
    @pytest.mark.parametrize("n", [32, 4800])
    def test_one_computation_per_solve(self, tmp_path, emst_runs, n, alpha):
        # The builder computes the EMST and the verifier gets it back.
        inst = tmp_path / "i.json"
        assert main(["gen", "--generator", "uniform-square", "--n", str(n), "--seed", "3", "--out", str(inst)]) == 0
        assert main(["solve", "--in", str(inst), "--alpha", alpha, "--out", str(tmp_path / "r.json")]) == 0
        assert emst_runs == [n]

    def test_a_second_point_array_computes_its_own(self, emst_runs):
        xy = coordinates(uniform_square(300, seed=1))
        a, b = PointArray(xy.copy()), PointArray(xy.copy())
        tree = euclidean_mst(a)
        assert euclidean_mst(a) is tree and emst_runs == [300]
        other = euclidean_mst(b)
        assert other is not tree and other == tree and emst_runs == [300, 300]

    def test_a_point_list_computes_on_every_call(self, emst_runs):
        pts = uniform_square(300, seed=1)
        assert euclidean_mst(pts) == euclidean_mst(pts)
        assert emst_runs == [300, 300]

    @pytest.mark.parametrize("n", [32, 300])
    def test_a_call_that_raises_stores_nothing(self, monkeypatch, emst_runs, n):
        points = PointArray(coordinates(uniform_square(n, seed=2)))
        name = "_matrix_prim" if n <= graph.ALL_PAIRS_N else "_near_pairs"
        counted = getattr(graph, name)

        def fail(xy):
            raise MemoryError("out of memory")

        monkeypatch.setattr(graph, name, fail)
        with pytest.raises(MemoryError):
            euclidean_mst(points)
        assert points._mst is None
        monkeypatch.setattr(graph, name, counted)
        assert euclidean_mst(points) == dense_prim_mst(list(points))
        assert euclidean_mst(points) is points._mst and emst_runs == [n]


class TestTspTour:
    @staticmethod
    def tour(points):
        return tsp_tour(points, euclidean_mst(points))

    def test_collinear(self):
        tour = self.tour([Point(0, 0), Point(1, 0), Point(2, 0)])
        assert tour.order == (0, 1, 2)
        assert tour.weight == pytest.approx(4.0)

    def test_unit_square_perimeter(self):
        tour = self.tour([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])
        assert tour.weight == pytest.approx(4.0)

    def test_two_points(self):
        tour = self.tour([Point(0, 0), Point(3, 4)])
        assert tour.weight == pytest.approx(10.0)

    def test_too_few(self):
        with pytest.raises(TooFewPointsError):
            tsp_tour([Point(0, 0)], SpanningTree((), 0.0))

    def test_twice_mst_bound(self):
        rng = random.Random(23)
        for _ in range(50):
            pts = rand_points(rng, rng.randint(2, 40))
            mst = euclidean_mst(pts)
            tour = tsp_tour(pts, mst)
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
            t1, t2 = batch_triplets([pts1, pts2])
            pts = pts1 + pts2
            g = induced_graph(pts, list(t1.wedges) + list(t2.wedges))
            assert cross_edge(g, [[0, 1, 2]], [[3, 4, 5]]) != [None]

    def test_absent_without_coverage(self):
        pts = [Point(0, 0), Point(1, 0)]
        wedges = [
            Wedge(pts[0], Direction(180), 90.0),
            Wedge(pts[1], Direction(0), 90.0),
        ]
        g = induced_graph(pts, wedges)
        assert cross_edge(g, [[0]], [[1]]) == [None]

    def test_minimum_length_rule(self):
        g = graph_of(4, [(0, 2, 2.0), (1, 3, 1.0)])
        assert cross_edge(g, [[0, 1]], [[2, 3]]) == [(1, 3)]

    def test_tie_breaks_lexicographically(self):
        g = graph_of(4, [(1, 2, 1.0), (0, 3, 1.0)])
        assert cross_edge(g, [[0, 1]], [[2, 3]]) == [(0, 3)]

    def test_tie_breaks_by_position_not_id(self):
        # Three edges of equal weight; sides listed in descending id order.
        g = graph_of(6, [(5, 0, 1.0), (5, 1, 1.0), (4, 1, 1.0), (4, 0, 2.0)])
        assert cross_edge(g, [[5, 4], [4, 5], [0, 1]], [[1, 0], [0, 1], [4, 5]]) == [(5, 1), (4, 1), (0, 5)]

    def test_disjointness_required(self):
        g = graph_of(3, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            cross_edge(g, [[0, 1]], [[1, 2]])
        with pytest.raises(ValueError):  # any one row's sides meeting is enough
            cross_edge(g, [[0], [0]], [[1], [0]])

    def test_edges_of_inf_weight_are_edges(self):
        g = graph_of(4, [(0, 3, math.inf), (1, 2, math.inf)])
        assert cross_edge(g, [[0, 1], [1, 0]], [[2, 3], [2, 3]]) == [(0, 3), (1, 2)]

    def test_no_rows(self):
        g = graph_of(4, [(0, 3, 1.0)])
        assert cross_edge(g, np.empty((0, 2), np.intp), np.empty((0, 1), np.intp)) == []

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_batch_matches_scalar_row_for_row(self, data):
        # Small integer weights tie often; some rows meet no edge at all.
        n = data.draw(st.integers(2, 9), label="n")
        pairs = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1]).map(lambda e: (min(e), max(e))), max_size=20), label="edges")
        g = graph_of(n, [(u, v, data.draw(st.integers(1, 3), label="w") / 2.0) for u, v in pairs])
        p = data.draw(st.integers(1, n - 1), label="p")
        q = data.draw(st.integers(1, n - p), label="q")
        rows = data.draw(st.lists(st.permutations(range(n)), max_size=6), label="rows")
        sides_a = np.array([row[:p] for row in rows], dtype=np.intp).reshape(-1, p)
        sides_b = np.array([row[p : p + q] for row in rows], dtype=np.intp).reshape(-1, q)
        want = [cross_edge_scalar(g, a, b) for a, b in zip(sides_a.tolist(), sides_b.tolist())]
        assert cross_edge(g, sides_a, sides_b) == want


class TestSumLeft:
    """Weights are float sums taken left to right on every interpreter;
    builtin ``sum`` compensates the rounding from Python 3.12 on."""

    @staticmethod
    def left(weights):
        total = 0.0
        for w in weights:
            total += w
        return total

    def test_adds_in_order(self):
        assert sum_left([1e16, 1.0, -1e16]) == 0.0  # a compensated sum gives 1.0
        assert sum_left(iter([0.1] * 10)) == 0.9999999999999999
        assert sum_left([]) == 0.0

    def test_tour_and_tree_weights(self):
        pts = uniform_square(300, seed=3)
        mst = euclidean_mst(pts)
        tour = tsp_tour(pts, mst)
        assert tour.weight == self.left(tour.edge_weights)
        lengths = [pts[u].distance_to(pts[v]) for u, v in mst.edges]
        assert tree_from_edges(pts, mst.edges).weight == self.left(lengths)
