import math
import random

import pytest

from wedgespan import approx
from wedgespan.approx import (
    AlphaTree,
    build_tree,
    build_tree_90,
    build_tree_120,
    build_tree_180,
    check_alpha_tree,
    partition_tour,
    verify_alpha_tree,
)
from wedgespan.errors import TooFewPointsError
from wedgespan.gadget import aim_leftovers, orient_triplet
from wedgespan.generators import (
    clustered,
    collinear,
    hex_grid_points,
    square_grid_reduction_points,
    uniform_square,
)
from wedgespan.geom import Point, Wedge, Direction, angular_spread
from wedgespan.graph import (
    DisjointSets,
    Tour,
    euclidean_mst,
    induced_graph,
    tree_from_edges,
    tsp_tour,
)


class TestPartitionTour:
    def test_argmax_class(self):
        tour = Tour(
            order=tuple(range(6)),
            weight=6.0,
            edge_weights=(0.5, 1.0, 1.5, 0.5, 1.0, 1.5),
        )
        part = partition_tour(tour, 3)
        assert part.connecting_class == 2
        assert part.class_weights == pytest.approx((1.0, 2.0, 3.0))
        assert part.groups == ((3, 4, 5), (0, 1, 2))

    def test_pigeonhole_bound(self):
        rng = random.Random(31)
        for _ in range(50):
            pts = [Point(rng.random(), rng.random()) for _ in range(rng.randint(3, 30))]
            tour = tsp_tour(pts)
            part = partition_tour(tour, 3)
            assert part.class_weights[part.connecting_class] >= tour.weight / 3.0 - 1e-9

    def test_remainder_grouping(self):
        tour = tsp_tour(collinear(7))
        part = partition_tour(tour, 3)
        sizes = sorted(len(g) for g in part.groups)
        assert sizes == [1, 3, 3]
        assert len(part.groups[-1]) == 1

    def test_too_few(self):
        with pytest.raises(TooFewPointsError):
            partition_tour(tsp_tour(collinear(2)), 3)

    def test_groups_consecutive_in_tour(self):
        pts = uniform_square(12, seed=3)
        tour = tsp_tour(pts)
        part = partition_tour(tour, 3)
        flattened = [v for g in part.groups for v in g]
        doubled = tour.order + tour.order
        start = doubled.index(flattened[0])
        assert tuple(flattened) == doubled[start : start + len(pts)]


class TestBuild180:
    def test_collinear_is_path(self):
        at = build_tree_180(collinear(3))
        assert at.tree.weight == pytest.approx(2.0)
        assert verify_alpha_tree(collinear(3), at).ratio == pytest.approx(1.0)

    def test_unit_square_drops_heaviest(self):
        pts = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]
        at = build_tree_180(pts)
        assert at.tree.weight == pytest.approx(3.0)

    def test_spread_bounded_by_180(self):
        rng = random.Random(32)
        for _ in range(30):
            pts = uniform_square(rng.randint(2, 40), seed=rng.randint(0, 10**6))
            at = build_tree_180(pts)
            report = verify_alpha_tree(pts, at)
            assert report.passed
            assert report.max_spread_deg <= 180.0 + 1e-9

    def test_two_points(self):
        at = build_tree_180([Point(0, 0), Point(0, 5)])
        assert at.tree.weight == pytest.approx(5.0)
        assert verify_alpha_tree([Point(0, 0), Point(0, 5)], at).ratio == pytest.approx(1.0)


class TestBuild120:
    def test_single_gadget(self):
        pts = [Point(0, 0), Point(2, 0), Point(1, 1.4)]
        at = build_tree_120(pts)
        assert len(at.tree.edges) == 2
        report = verify_alpha_tree(pts, at)
        assert report.passed
        assert report.max_spread_deg <= 120.0 + 1e-9

    def test_one_leftover(self):
        pts = uniform_square(4, seed=9)
        at = build_tree_120(pts)
        report = verify_alpha_tree(pts, at)
        assert report.passed and len(at.tree.edges) == 3

    def test_ratio_bound_when_divisible(self):
        for seed in range(20):
            pts = uniform_square(6, seed=seed)
            at = build_tree_120(pts)
            assert at.tree.weight <= 3.0 * at.tour_weight * (1 + 1e-9)
            assert at.tree.weight <= 6.0 * at.mst_weight * (1 + 1e-9)
            assert verify_alpha_tree(pts, at).passed

    def test_validity_nondivisible(self):
        for n in (4, 5, 7, 8, 10):
            pts = uniform_square(n, seed=100 + n)
            report = verify_alpha_tree(pts, build_tree_120(pts))
            assert report.passed
            assert report.max_spread_deg <= 120.0 + 1e-9

    def test_pair(self):
        at = build_tree_120([Point(0, 0), Point(1, 1)])
        assert at.tree.weight == pytest.approx(math.sqrt(2.0))

    def test_deterministic(self):
        pts = uniform_square(21, seed=77)
        a, b = build_tree_120(pts), build_tree_120(pts)
        assert a.tree.edges == b.tree.edges
        assert [w.bisector.degrees for w in a.wedges] == [
            w.bisector.degrees for w in b.wedges
        ]

    def test_deterministic_90(self):
        pts = uniform_square(19, seed=78)
        a, b = build_tree_90(pts), build_tree_90(pts)
        assert a.tree.edges == b.tree.edges
        assert [w.bisector.degrees for w in a.wedges] == [
            w.bisector.degrees for w in b.wedges
        ]


class TestBuild90:
    def test_sixteen_random(self):
        for seed in range(10):
            pts = uniform_square(16, seed=seed)
            at = build_tree_90(pts)
            report = verify_alpha_tree(pts, at)
            assert report.passed
            assert at.tree.weight <= 16.0 * at.mst_weight * (1 + 1e-9)

    def test_two_separated_squares_have_q_edge(self):
        left = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]
        right = [Point(5, 0), Point(6, 0), Point(6, 1), Point(5, 1)]
        pts = left + right
        at = build_tree_90(pts)
        report = verify_alpha_tree(pts, at)
        assert report.passed
        crossing = [
            (u, v) for u, v in at.tree.edges if (u < 4) != (v < 4)
        ]
        assert len(crossing) == 1

    def test_edge_type_counts_when_divisible(self):
        # inner 3n/4, one quadruplet-connecting edge per section, one
        # section-connecting edge per consecutive pair: total n-1
        for n, seed in ((8, 1), (16, 2), (24, 3)):
            pts = uniform_square(n, seed=seed)
            at = build_tree_90(pts)
            assert len(at.tree.edges) == n - 1
            assert at.tree.weight <= 8.0 * at.tour_weight * (1 + 1e-9)

    def test_small_sizes(self):
        for n in (2, 3, 4, 5, 6, 7):
            pts = uniform_square(n, seed=50 + n)
            at = build_tree_90(pts)
            report = verify_alpha_tree(pts, at)
            assert report.passed, (n, report.failures)
            assert report.max_spread_deg <= 90.0 + 1e-9

    def test_collinear_small(self):
        for n in (3, 5, 7):
            pts = collinear(n)
            report = verify_alpha_tree(pts, build_tree_90(pts))
            assert report.passed


class TestDispatch:
    def test_routes(self):
        pts = uniform_square(6, seed=1)
        assert build_tree(pts, 180).alpha_deg == 180.0
        assert build_tree(pts, 120).alpha_deg == 120.0
        assert build_tree(pts, 90).alpha_deg == 90.0

    def test_unsupported_alpha(self):
        with pytest.raises(ValueError):
            build_tree(uniform_square(6, seed=1), 100.0)


class TestVerifier:
    def test_passes_builder_output(self):
        pts = uniform_square(12, seed=4)
        report = verify_alpha_tree(pts, build_tree_120(pts))
        assert report.passed and not report.failures

    def test_detects_spread_violation(self):
        pts = collinear(4)
        tree = tree_from_edges(pts, [(0, 1), (1, 2), (2, 3)])
        wedges = tuple(Wedge(p, Direction(0), 120.0) for p in pts)
        fake = AlphaTree(120.0, tree, wedges, mst_weight=3.0, tour_weight=6.0)
        report = verify_alpha_tree(pts, fake)
        assert not report.passed
        assert report.worst_vertex in (1, 2)
        assert any("spread" in f for f in report.failures)

    def test_detects_weight_tampering(self):
        pts = uniform_square(6, seed=5)
        at = build_tree_120(pts)
        fake = AlphaTree(
            at.alpha_deg,
            type(at.tree)(at.tree.edges, at.tree.weight * 2.0),
            at.wedges,
            at.mst_weight,
            at.tour_weight,
        )
        assert not verify_alpha_tree(pts, fake).passed

    def test_reference_mst_weight_is_checked(self):
        pts = uniform_square(9, seed=2)
        at = build_tree_120(pts)
        args = (pts, 120.0, at.tree.edges, at.wedges, at.tree.weight)
        assert check_alpha_tree(*args, at.mst_weight).passed
        for bad in (0.0, at.tree.weight * 1.01):
            report = check_alpha_tree(*args, bad)
            assert not report.passed
            assert any("MST weight" in f for f in report.failures)

    def test_ratio_one_for_pair(self):
        pts = [Point(0, 0), Point(2, 1)]
        for alpha in (180, 120, 90):
            report = verify_alpha_tree(pts, build_tree(pts, alpha))
            assert report.ratio == pytest.approx(1.0)


class TestWitnessConsistency:
    def test_every_tree_edge_is_induced(self):
        rng = random.Random(33)
        from wedgespan.graph import induced_graph

        for builder in (build_tree_180, build_tree_120, build_tree_90):
            for _ in range(5):
                pts = uniform_square(rng.randint(8, 25), seed=rng.randint(0, 10**6))
                at = builder(pts)
                g = induced_graph(pts, list(at.wedges))
                for u, v in at.tree.edges:
                    assert g.has_edge(u, v)
                for v in range(len(pts)):
                    nbrs = [u for u, w in at.tree.edges if w == v] + [
                        w for u, w in at.tree.edges if u == v
                    ]
                    if nbrs:
                        assert (
                            angular_spread(pts[v], [pts[u] for u in nbrs])
                            <= at.alpha_deg + 1e-9
                        )


def _lex_cross_edge(g, side_a, side_b):
    """The per-group search's cross edge: minimum weight, ties on (min, max) id."""
    best = None
    for u in side_a:
        for v in g.neighbors(u):
            if v in side_b:
                cand = (g.weight(u, v), min(u, v), max(u, v))
                best = cand if best is None or cand < best else best
    return None if best is None else best[1:]


def _group_cross_edge(points, wedges, side_a, side_b):
    """Cross edge from a fresh induced graph of just the two groups' points."""
    members = list(side_a) + list(side_b)
    sub = induced_graph([points[i] for i in members], [wedges[i] for i in members])
    u, v = _lex_cross_edge(sub, range(len(side_a)), range(len(side_a), len(members)))
    return members[u], members[v]


def _group_quad_edges(points, wedges, quad):
    sub = induced_graph([points[i] for i in quad], [wedges[i] for i in quad])
    sets = DisjointSets(4)
    return [(quad[u], quad[v]) for _, u, v in sorted((w, u, v) for u, v, w in sub.edges())
            if sets.union(u, v)]


def _per_group_tree(points, alpha):
    """The alpha 120 / 90 builders with one induced graph per searched group
    (n >= 4): the edges and wedges the one-pass builders must reproduce."""
    n = len(points)
    tour = tsp_tour(points, mst=euclidean_mst(points))
    wedges, edges = [None] * n, []
    size = 3 if alpha == 120 else 8
    if alpha == 90 and n < 8:
        quad = sorted(range(n), key=lambda i: (points[i].x, points[i].y, i))[:4]
        host, leftovers = quad, [p for p in tour.order if p not in quad]
        wedges_of = approx.orient_quadruplet([points[i] for i in quad]).wedges
        for local in range(4):
            wedges[quad[local]] = wedges_of[local]
        edges += _group_quad_edges(points, wedges, quad)
    else:
        part = partition_tour(tour, size)
        full = [g for g in part.groups if len(g) == size]
        leftovers = [p for g in part.groups if len(g) < size for p in g]
        host = full[-1]
        if alpha == 120:
            for g in full:
                tri = orient_triplet([points[i] for i in g])
                for local in range(3):
                    wedges[g[local]] = tri.wedges[local]
                edges += [(g[a], g[b]) for a, b in tri.tree_edges]
        else:
            for g in full:
                ordered = sorted(g, key=lambda i: (points[i].x, points[i].y, i))
                for quad in (ordered[:4], ordered[4:]):
                    wedges_of = approx.orient_quadruplet([points[i] for i in quad]).wedges
                    for local in range(4):
                        wedges[quad[local]] = wedges_of[local]
                    edges += _group_quad_edges(points, wedges, quad)
                edges.append(_group_cross_edge(points, wedges, ordered[:4], ordered[4:]))
        for a, b in zip(full, full[1:]):
            edges.append(_group_cross_edge(points, wedges, a, b))
    edges += aim_leftovers(points, wedges, leftovers, host, float(alpha))
    return tree_from_edges(points, edges).edges, tuple(wedges)


@pytest.fixture
def orient_once(monkeypatch):
    """Let the builder and ``_per_group_tree`` share each quadruplet's
    orientation: ``orient_quadruplet`` is a pure function of its points and
    almost all of an alpha 90 build's time."""
    found = {}
    search = approx.orient_quadruplet

    def orient(pts):
        key = tuple(pts)
        if key not in found:
            found[key] = search(pts)
        return found[key]

    monkeypatch.setattr(approx, "orient_quadruplet", orient)


_SHAPES = [
    ("hex-grid", hex_grid_points(1)),
    ("hex-grid", hex_grid_points(15)),
    ("square-grid-reduction", square_grid_reduction_points(5, 5)),
    ("collinear", collinear(5)),
    ("collinear", collinear(64)),
]


@pytest.mark.usefixtures("orient_once")
class TestOneInducedPass:
    """One induced graph over the candidate pairs builds the same trees as
    one induced graph per searched group."""

    @pytest.mark.parametrize("alpha", [90, 120])
    @pytest.mark.parametrize("n", [8, 48, 600])
    @pytest.mark.parametrize("gen", [uniform_square, clustered])
    def test_random_seeds(self, gen, n, alpha):
        for seed in range(20):
            pts = gen(n, seed=seed)
            at = build_tree(pts, alpha)
            assert (at.tree.edges, at.wedges) == _per_group_tree(pts, alpha), seed

    def test_grid_quadruplets_in_shuffled_order(self):
        # Unit grids: the quadruplets' inner edges tie in weight, and the ids
        # run in another order than the positions the searches break ties by.
        rng = random.Random(5)
        for w, h in ((2, 2), (2, 4), (4, 4)):
            grid = [Point(float(x), float(y)) for x in range(w) for y in range(h)]
            for _ in range(30):
                pts = rng.sample(grid, len(grid))
                at = build_tree(pts, 90)
                assert (at.tree.edges, at.wedges) == _per_group_tree(pts, 90), pts

    @pytest.mark.parametrize("alpha", [90, 120])
    @pytest.mark.parametrize("name,pts", _SHAPES, ids=[f"{s}-{len(p)}" for s, p in _SHAPES])
    def test_tie_heavy_shapes(self, name, pts, alpha):
        at = build_tree(pts, alpha)
        assert (at.tree.edges, at.wedges) == _per_group_tree(pts, alpha)
