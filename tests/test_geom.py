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
    AngleInterval,
    Direction,
    Point,
    Wedge,
    angular_spread,
    check_distinct,
    coordinates,
    covering_wedge,
    direction,
    grid_pairs,
    intervals_cover_circle,
    max_spread,
    points_coincide,
    signed_angle_delta,
    spanning_arc,
)

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


class TestAngularSpread:
    def test_single_neighbor(self):
        assert angular_spread(pt(0, 0), [pt(1, 0)]) == 0.0

    def test_antipodal(self):
        assert angular_spread(pt(0, 0), [pt(1, 0), pt(-1, 0)]) == pytest.approx(180.0)

    def test_three_directions(self):
        # directions 0, 90, 180: gaps 90, 90, 180 -> spread 180
        got = angular_spread(pt(0, 0), [pt(1, 0), pt(0, 1), pt(-1, 0)])
        assert got == pytest.approx(180.0)

    def test_duplicate_neighbor_raises(self):
        with pytest.raises(DuplicatePointError):
            angular_spread(pt(0, 0), [pt(0, 0)])

    @given(st.lists(st.tuples(coords, coords), min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_witness_wedge_equivalence(self, raw):
        center = pt(0, 0)
        neighbors = [pt(x, y) for x, y in raw if math.hypot(x, y) > 1e-3]
        assume(neighbors)
        spread = angular_spread(center, neighbors)
        witness = covering_wedge(center, neighbors, max(spread, 1e-6))
        assert all(witness.contains(q) for q in neighbors)
        if spread > 1.0:
            # a wedge strictly narrower than the spread cannot hold them all
            narrow = covering_wedge(center, neighbors, spread * 0.5)
            narrow = Wedge(center, narrow.bisector, spread - 0.5)
            assert not all(narrow.contains(q) for q in neighbors)

    def test_max_spread_names_lowest_worst_vertex(self):
        pts = [pt(0, 0), pt(1, 0), pt(2, 0), pt(2, 1)]
        spread, worst = max_spread(pts, [(0, 1), (1, 2), (2, 3)])
        assert spread == pytest.approx(180.0) and worst == 1

    def test_max_spread_of_single_edge_is_zero(self):
        assert max_spread([pt(0, 0), pt(1, 0)], [(0, 1)]) == (0.0, None)


class TestSpanningArc:
    def test_wraparound(self):
        start, extent = spanning_arc([350.0, 10.0])
        assert start == pytest.approx(350.0)
        assert extent == pytest.approx(20.0)

    def test_identical_directions(self):
        _, extent = spanning_arc([42.0, 42.0])
        assert extent == 0.0


class TestAngleInterval:
    def test_contains_wraps(self):
        iv = AngleInterval(Direction(350), 20.0)
        assert iv.contains(Direction(355))
        assert iv.contains(Direction(5))
        assert not iv.contains(Direction(180))

    def test_cover_circle_partition(self):
        ivs = [AngleInterval(Direction(d), 120.0) for d in (0, 120, 240)]
        assert intervals_cover_circle(ivs)

    def test_cover_circle_gap(self):
        ivs = [AngleInterval(Direction(0), 120.0), AngleInterval(Direction(120), 120.0)]
        assert not intervals_cover_circle(ivs)

    def test_cover_circle_overlapping(self):
        ivs = [AngleInterval(Direction(d), 200.0) for d in (0, 120, 240)]
        assert intervals_cover_circle(ivs)


@pytest.fixture(params=["grid", "all-pairs"])
def pair_source(request, monkeypatch):
    """Run check_distinct on the grid's candidates, or on every pair."""
    monkeypatch.setattr(geom, "ALL_PAIRS_N", 0 if request.param == "grid" else 1000)


class TestDistinct:
    def test_near_duplicates_caught(self):
        with pytest.raises(DuplicatePointError):
            check_distinct([pt(0, 0), pt(1, 1), pt(1e-12, -1e-12)])

    def test_distinct_ok(self):
        check_distinct([pt(0, 0), pt(1e-6, 0), pt(0, 1e-6)])

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
    def test_duplicates_straddling_a_scale_split(self, pair, monkeypatch):
        # Scales run from 1 (the blob) to 2^20, so the grid's first split is
        # at 2^10 exactly; each planted pair coincides across it.
        monkeypatch.setattr(geom, "ALL_PAIRS_N", 0)
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
