import math
import random
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wedgespan import geom
from wedgespan.errors import DuplicatePointError
from wedgespan.generators import hex_grid_points
from wedgespan.geom import (
    ANGLE_TOL_DEG,
    REL_TOL,
    Direction,
    Point,
    PointArray,
    Wedge,
    angular_spread,
    check_distinct,
    coordinates,
    direction,
    edge_directions,
    grid_pairs,
    normalize_degrees,
    points_coincide,
    spanning_arc,
    spanning_arcs,
)

from reference import covering_wedge, signed_angle_delta

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def pt(x, y):
    return Point(x, y)


class TestDirection:
    def test_east(self):
        assert direction(pt(0, 0), pt(1, 0)).degrees == 0.0

    def test_north(self):
        assert direction(pt(0, 0), pt(0, 1)).degrees == 90.0

    def test_southwest(self):
        assert direction(pt(0, 0), pt(-1, -1)).degrees == 225.0

    def test_duplicate_raises(self):
        with pytest.raises(DuplicatePointError):
            direction(pt(1, 2), pt(1, 2))

    def test_normalization(self):
        assert Direction(-30.0).degrees == 330.0
        assert Direction(360.0).degrees == 0.0
        assert Direction(725.0).degrees == 5.0

    def test_normalization_never_hits_360(self):
        # float modulo of a tiny negative would round up to exactly 360
        assert Direction(-1e-16).degrees == 0.0
        assert 0.0 <= Direction(-1e-13).degrees < 360.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Direction(math.nan)
        with pytest.raises(ValueError):
            Point(math.inf, 0.0)

    @given(coords, coords, coords, coords)
    def test_antisymmetry(self, ax, ay, bx, by):
        p, q = pt(ax, ay), pt(bx, by)
        assume(not (abs(ax - bx) < 1e-3 and abs(ay - by) < 1e-3))
        fwd = direction(p, q)
        back = direction(q, p)
        assert abs(signed_angle_delta(fwd.degrees, back.degrees + 180.0)) <= ANGLE_TOL_DEG


class TestWedgeContains:
    def test_interior(self):
        w = Wedge(pt(0, 0), Direction(0), 120.0)
        assert w.contains(pt(1, 0.5))  # direction ~26.57 degrees

    def test_closed_boundary(self):
        w = Wedge(pt(0, 0), Direction(0), 120.0)
        assert w.contains(pt(1.0, math.tan(math.radians(60.0))))

    def test_opposite_side(self):
        w = Wedge(pt(0, 0), Direction(0), 120.0)
        assert not w.contains(pt(-1, 0))

    def test_apex_inside(self):
        w = Wedge(pt(2, 3), Direction(17), 90.0)
        assert w.contains(pt(2, 3))

    def test_radius_limit(self):
        w = Wedge(pt(0, 0), Direction(0), 120.0, radius=2.0)
        assert w.contains(pt(2.0, 0))
        assert not w.contains(pt(2.1, 0))

    def test_rays(self):
        w = Wedge(pt(0, 0), Direction(90), 120.0)
        assert w.left_ray.degrees == pytest.approx(150.0)
        assert w.right_ray.degrees == pytest.approx(30.0)

    def test_bad_aperture(self):
        with pytest.raises(ValueError):
            Wedge(pt(0, 0), Direction(0), 0.0)
        with pytest.raises(ValueError):
            Wedge(pt(0, 0), Direction(0), 120.0, radius=-1.0)

    @given(
        st.floats(-10, 10), st.floats(-10, 10),
        st.floats(0, 360), st.floats(20, 340),
        st.floats(-10, 10), st.floats(-10, 10),
        st.floats(0, 360), st.floats(-20, 20), st.floats(-20, 20),
    )
    @settings(max_examples=200)
    def test_rigid_motion_invariance(self, ax, ay, bis, ap, qx, qy, rot, tx, ty):
        apex, q = pt(ax, ay), pt(qx, qy)
        assume(apex.distance_to(q) > 1e-3)
        w = Wedge(apex, Direction(bis), ap)
        # only assert away from the boundary, where the answer is stable
        delta = abs(signed_angle_delta(w.bisector.degrees, direction(apex, q).degrees))
        assume(abs(delta - ap / 2.0) > 1e-5)
        before = w.contains(q)
        rad = math.radians(rot)
        c, s = math.cos(rad), math.sin(rad)

        def move(p):
            return pt(c * p.x - s * p.y + tx, s * p.x + c * p.y + ty)

        w2 = Wedge(move(apex), Direction(bis + rot), ap)
        assert w2.contains(move(q)) == before


def reference_spread(points, edges):
    """The per-vertex spread, one ``spanning_arc`` over ``math.atan2``
    directions per vertex: the largest and the lowest vertex attaining it."""
    adjacency = [[] for _ in points]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    worst, at = 0.0, None
    for v, nbrs in enumerate(adjacency):
        if nbrs:
            p = points[v]
            degs = [
                Direction(math.degrees(math.atan2(points[u].y - p.y, points[u].x - p.x))).degrees
                for u in nbrs
            ]
            _, spread = spanning_arc(degs)
            if spread > worst:
                worst, at = spread, v
    return worst, at


def star(center, neighbors):
    return [center, *neighbors], [(0, k) for k in range(1, len(neighbors) + 1)]


class TestAngularSpread:
    def test_single_neighbor(self):
        assert angular_spread(*star(pt(0, 0), [pt(1, 0)])) == (0.0, None)

    def test_antipodal(self):
        spread, worst = angular_spread(*star(pt(0, 0), [pt(1, 0), pt(-1, 0)]))
        assert spread == pytest.approx(180.0) and worst == 0

    def test_three_directions(self):
        # directions 0, 90, 180: gaps 90, 90, 180 -> spread 180
        got, _ = angular_spread(*star(pt(0, 0), [pt(1, 0), pt(0, 1), pt(-1, 0)]))
        assert got == pytest.approx(180.0)

    def test_duplicate_neighbor_raises(self):
        with pytest.raises(DuplicatePointError):
            angular_spread(*star(pt(0, 0), [pt(0, 0)]))
        # the first clash in vertex order, as a per-vertex loop meets it
        with pytest.raises(DuplicatePointError, match=r"Point\(x=1, y=1\) and Point\(x=1, y=1\.000000000001\)$"):
            angular_spread([pt(0, 0), pt(1, 1), pt(1, 1 + 1e-12), pt(2, 0)], [(0, 1), (2, 1), (0, 3)])

    def test_wrap_across_zero(self):
        points, edges = star(pt(0, 0), [pt(1, -0.1), pt(1, 0.1), pt(1, 0.0)])
        spread, worst = angular_spread(points, edges)
        assert (spread, worst) == reference_spread(points, edges)
        assert spread == pytest.approx(2 * math.degrees(math.atan(0.1))) and worst == 0

    def test_tiny_negative_angle_rounds_to_zero(self):
        # atan2 gives -1e-300 rad, whose degrees % 360 round up to 360.0;
        # as a direction it is 0, so the spread is 45, not 315.
        points, edges = star(pt(0, 0), [pt(1, -1e-300), pt(1, 1)])
        assert math.degrees(math.atan2(-1e-300, 1.0)) % 360.0 == 360.0
        assert angular_spread(points, edges) == reference_spread(points, edges) == (45.0, 0)

    def test_repeated_directions(self):
        points = [pt(0, 0), pt(1, 1), pt(2, 2), pt(3, 3), pt(-1, 0)]
        assert angular_spread(points, [(0, 1), (0, 2), (0, 3)]) == (0.0, None)
        edges = [(0, 1), (0, 2), (0, 4), (0, 1)]
        assert angular_spread(points, edges) == reference_spread(points, edges) == (135.0, 0)

    def test_empty_edge_list(self):
        assert angular_spread([pt(0, 0), pt(1, 0)], []) == (0.0, None)

    @given(st.lists(st.tuples(coords, coords), min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_witness_wedge_equivalence(self, raw):
        center = pt(0, 0)
        neighbors = [pt(x, y) for x, y in raw if math.hypot(x, y) > 1e-3]
        assume(neighbors)
        spread, _ = angular_spread(*star(center, neighbors))
        witness = covering_wedge(center, neighbors, max(spread, 1e-6))
        assert all(witness.contains(q) for q in neighbors)
        if spread > 1.0:
            # a wedge strictly narrower than the spread cannot hold them all
            narrow = covering_wedge(center, neighbors, spread * 0.5)
            narrow = Wedge(center, narrow.bisector, spread - 0.5)
            assert not all(narrow.contains(q) for q in neighbors)

    def test_max_spread_names_lowest_worst_vertex(self):
        pts = [pt(0, 0), pt(1, 0), pt(2, 0), pt(2, 1)]
        spread, worst = angular_spread(pts, [(0, 1), (1, 2), (2, 3)])
        assert spread == pytest.approx(180.0) and worst == 1

    def test_max_spread_of_single_edge_is_zero(self):
        assert angular_spread([pt(0, 0), pt(1, 0)], [(0, 1)]) == (0.0, None)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_trees_match_reference(self, seed):
        rng = random.Random(seed)
        n = rng.choice([2, 3, 9, 50, 400])
        scale = rng.choice([1.0, 1e-6, 1e6])
        points = [pt(rng.uniform(0, scale), rng.uniform(0, scale)) for _ in range(n)]
        edges = [(rng.randrange(v), v) if rng.random() < 0.5 else (v, rng.randrange(v)) for v in range(1, n)]
        assert angular_spread(points, edges) == reference_spread(points, edges)

    @pytest.mark.parametrize("seed", range(4))
    def test_unit_disk_networks_match_reference(self, seed):
        from wedgespan.graph import unit_disk_graph

        rng = random.Random(100 + seed)
        n = rng.choice([20, 150, 600])
        side = math.sqrt(n / 5)
        # a coarse lattice repeats directions exactly
        step = rng.choice([None, 0.25])
        raw = {(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)}
        if step:
            raw = {(round(x / step) * step, round(y / step) * step) for x, y in raw}
        points = [pt(x, y) for x, y in sorted(raw)]
        edges = [(u, v) for u, v, _ in unit_disk_graph(points).edges()]
        assert angular_spread(points, edges) == reference_spread(points, edges)


class TestSpanningArc:
    def test_wraparound(self):
        start, extent = spanning_arc([350.0, 10.0])
        assert start == pytest.approx(350.0)
        assert extent == pytest.approx(20.0)

    def test_identical_directions(self):
        _, extent = spanning_arc([42.0, 42.0])
        assert extent == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_all_vertices_at_once_match_spanning_arc(self, seed):
        # Random graphs, some on a lattice that repeats directions and ties
        # gaps, with each vertex's arc and covering bisector bit for bit.
        rng = random.Random(seed)
        n = rng.choice([2, 3, 12, 80])
        step = rng.choice([None, 1.0])
        raw = {(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(n)}
        if step:
            raw = {(round(x), round(y)) for x, y in raw}
        points = [pt(x, y) for x, y in sorted(raw)]
        n = len(points)
        edges = sorted({tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 3 * n))}) if n > 1 else []
        vertices, start, extent = spanning_arcs(points, edges)
        bisector = normalize_degrees(start + extent / 2.0)
        ends = {}
        for u, v in edges:
            ends.setdefault(u, []).append(v)
            ends.setdefault(v, []).append(u)
        assert vertices.tolist() == sorted(ends)
        for k, v in enumerate(vertices.tolist()):
            arc = spanning_arc([direction(points[v], points[u]).degrees for u in ends[v]])
            assert (start[k], extent[k]) == arc
            wedge = covering_wedge(points[v], [points[u] for u in ends[v]], 90.0)
            assert bisector[k] == wedge.bisector.degrees

    def test_no_edges(self):
        assert [a.tolist() for a in spanning_arcs([pt(0, 0)], [])] == [[], [], []]


class TestEdgeDirections:
    def test_point_array_self_edge_raises(self):
        points = PointArray(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert edge_directions(points, [(0, 1), (1, 0)]).tolist() == [45.0, 225.0]
        with pytest.raises(DuplicatePointError):
            edge_directions(points, [(0, 1), (1, 1)])


@pytest.fixture(params=["grid", "all-pairs"])
def pair_source(request, monkeypatch):
    """Run check_distinct on the grid's candidates, or on every pair: a grid
    of unbounded radius puts all points in one cell."""
    if request.param == "all-pairs":
        real = geom.grid_pairs
        monkeypatch.setattr(geom, "grid_pairs", lambda xy, radius, max_pairs=None: real(xy, math.inf, max_pairs))


class TestDistinct:
    def test_near_duplicates_caught(self):
        with pytest.raises(DuplicatePointError):
            check_distinct([pt(0, 0), pt(1, 1), pt(1e-12, -1e-12)])

    def test_distinct_ok(self):
        check_distinct([pt(0, 0), pt(1e-6, 0), pt(0, 1e-6)])

    def test_point_array_checks_when_built(self, monkeypatch):
        xy = np.array([[0.0, 0.0], [1.0, 1.0], [1e-12, -1e-12]])
        with pytest.raises(DuplicatePointError, match=r"^points 0 and 2 coincide: Point\(x=0\.0, y=0\.0\)$"):
            PointArray(xy.copy())
        points = PointArray(xy[:2].copy())
        scans = []
        monkeypatch.setattr(geom, "_scan_distinct", scans.append)
        check_distinct(points)
        assert scans == []

    @staticmethod
    def _planted(rng, offset):
        """Random points, two same-x columns, and near-duplicates planted at
        about the tolerance, some inside it and some outside."""
        pts = [pt(offset + rng.uniform(0, 5), offset + rng.uniform(0, 5)) for _ in range(60)]
        for x in (offset + 1.0, offset + 2.5):
            pts += [pt(x, offset + 0.25 * k) for k in range(20)]
        return TestDistinct._plant_near_duplicates(rng, pts)

    @staticmethod
    def _plant_near_duplicates(rng, pts):
        for _ in range(rng.randint(0, 3)):
            p = rng.choice(pts)
            tol = REL_TOL * max(1.0, abs(p.x), abs(p.y))
            f = rng.choice((0.3, 0.7, 0.99, 1.01, 1.5))
            pts.insert(rng.randrange(len(pts) + 1), pt(p.x + f * tol, p.y - rng.choice((0.0, f)) * tol))
        return pts

    @staticmethod
    def _assert_matches_all_pairs_scan(pts):
        clashes = [
            (i, j)
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
            if points_coincide(pts[i], pts[j])
        ]
        if not clashes:
            check_distinct(pts)
            return
        i, j = clashes[0]
        with pytest.raises(DuplicatePointError) as exc:
            check_distinct(pts)
        assert str(exc.value) == f"points {i} and {j} coincide: {pts[i]}"

    @pytest.mark.parametrize("offset", [0.0, -3.0, 1e6, -1e6])
    def test_matches_all_pairs_scan(self, offset, pair_source):
        rng = random.Random(int(offset) + 31)
        for _ in range(40):
            self._assert_matches_all_pairs_scan(self._planted(rng, offset))

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_scales_match_all_pairs_scan(self, seed, pair_source):
        # A blob far below the largest tolerance overfills the grid, so the
        # points are searched in scale groups; duplicates planted at every
        # scale, next to scale 1 (the tolerance floor) and at powers of two.
        rng = random.Random(seed)
        for _ in range(25):
            pts = [pt(i * 1e-8, j * 1e-8) for i in range(6) for j in range(6)]
            for _ in range(25):
                scale = rng.choice((1.0, 2.0 ** rng.randint(1, 30), 10 ** rng.uniform(0, 7)))
                pts.append(pt(rng.choice((-1, 1)) * scale, rng.uniform(-1, 1) * scale))
            rng.shuffle(pts)
            self._assert_matches_all_pairs_scan(self._plant_near_duplicates(rng, pts))

    @pytest.mark.parametrize("pair", [(1024.0, 1024.0 + 5e-7), (1024.0 + 3.5e-6, 1024.0 + 4.5e-6)])
    def test_duplicates_straddling_a_scale_split(self, pair):
        # Scales run from 1 (the blob) to 2^20, so the grid's first split is
        # at 2^10 exactly; each planted pair coincides across it.
        pts = [pt(i * 1e-8, j * 1e-8) for i in range(6) for j in range(6)] + [pt(2.0**20, 0.0)]
        check_distinct(pts + [pt(pair[0], 0.0)])
        with pytest.raises(DuplicatePointError, match=r"points 37 and 38 coincide"):
            check_distinct(pts + [pt(x, 0.0) for x in pair])

    def test_gap_of_exactly_the_tolerance_coincides(self, pair_source):
        with pytest.raises(DuplicatePointError):
            check_distinct([pt(0.0, 0.0), pt(3.0, 3.0), pt(REL_TOL, 0.0)])

    def test_mixed_scales_stay_fast(self):
        # One global cell radius (1e-3 here) would put the 4800 small points in
        # one cell: 11.5M candidate pairs.
        pts = [pt(i * 1e-8, j * 1e-8) for i in range(60) for j in range(80)] + [pt(1e6, 0.0)]
        start = time.perf_counter()
        check_distinct(pts)
        assert time.perf_counter() - start < 0.5
        with pytest.raises(DuplicatePointError, match=r"points 81 and 4801 coincide"):
            check_distinct(pts + [pt(pts[81].x + 1e-10, pts[81].y)])

    def test_coordinates_near_float_limit(self, pair_source):
        big = 1.5e308
        pts = [pt(-big, 0.0), pt(big, 1.0), pt(big, -big), pt(0.0, big)]
        check_distinct(pts)
        with pytest.raises(DuplicatePointError, match=r"points 1 and 4 coincide"):
            check_distinct(pts + [pt(big * (1 + 1e-12), 1.0)])

    def test_near_duplicate_in_hex_grid_column(self):
        pts = hex_grid_points(1200)
        start = time.perf_counter()
        check_distinct(pts)
        assert time.perf_counter() - start < 0.5
        p = pts[2401]
        with pytest.raises(DuplicatePointError, match=r"points 2401 and 4802 coincide"):
            check_distinct(pts + [pt(p.x, p.y + 1e-12)])


class TestGridPairs:
    @staticmethod
    def _pairs(xy, radius):
        out = []
        for first, second in grid_pairs(xy, radius):
            assert first.dtype == second.dtype == np.int32
            out += zip(first.tolist(), second.tolist())
        return out

    @pytest.mark.parametrize("offset,radius", [(0.0, 0.3), (1e6, 0.3), (-50.0, 2.0), (1e6, 1e-3)])
    def test_every_pair_within_radius_once(self, offset, radius, monkeypatch):
        monkeypatch.setattr(geom, "_PAIR_BLOCK", 7)  # many blocks
        rng = np.random.default_rng(5)
        xy = offset + rng.uniform(0, 20 * radius, size=(300, 2))
        xy[:40, 0] = xy[0, 0]  # a same-x column
        xy[40:60] = np.round(xy[40:60] / radius) * radius  # points on cell borders
        pairs = self._pairs(xy, radius)
        unordered = [(min(p), max(p)) for p in pairs]
        assert len(set(unordered)) == len(unordered)
        assert all(i != j for i, j in pairs)
        near = {
            (i, j)
            for i in range(len(xy))
            for j in range(i + 1, len(xy))
            if abs(xy[i, 0] - xy[j, 0]) <= radius and abs(xy[i, 1] - xy[j, 1]) <= radius
        }
        assert near <= set(unordered)

    def test_radius_beyond_extent_gives_every_pair(self):
        xy = coordinates([pt(0, 0), pt(1, 0), pt(0.5, 0.8), pt(0.2, 0.1)])
        assert sorted((min(p), max(p)) for p in self._pairs(xy, 2.0)) == [
            (i, j) for i in range(4) for j in range(i + 1, 4)
        ]

    def test_budget(self):
        xy = coordinates([pt(0, 0), pt(1, 0), pt(0.5, 0.8), pt(0.2, 0.1)])
        assert grid_pairs(xy, 2.0, max_pairs=5) is None
        assert len(self._pairs(xy, 2.0)) == 6
        assert grid_pairs(xy, 2.0, max_pairs=6) is not None
