import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wedgespan.errors import DuplicatePointError
from wedgespan.geom import (
    ANGLE_TOL_DEG,
    AngleInterval,
    Direction,
    Point,
    Wedge,
    angular_spread,
    check_distinct,
    covering_wedge,
    direction,
    intervals_cover_circle,
    max_spread,
    sextant_of,
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
        assert w.reverse_ray.degrees == pytest.approx(270.0)

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


class TestSextant:
    def test_thirty(self):
        assert sextant_of(Direction(30)) == 1

    def test_ninety(self):
        assert sextant_of(Direction(90)) == 2

    def test_boundary_goes_up(self):
        assert sextant_of(Direction(60)) == 2
        assert sextant_of(Direction(0)) == 1
        assert sextant_of(Direction(300)) == 6

    def test_all_ranges(self):
        for i in range(1, 7):
            assert sextant_of(Direction((i - 1) * 60 + 30)) == i


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


class TestDistinct:
    def test_near_duplicates_caught(self):
        with pytest.raises(DuplicatePointError):
            check_distinct([pt(0, 0), pt(1, 1), pt(1e-12, -1e-12)])

    def test_distinct_ok(self):
        check_distinct([pt(0, 0), pt(1e-6, 0), pt(0, 1e-6)])
