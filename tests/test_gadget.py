import math
import random

import pytest

from wedgespan.errors import DuplicatePointError, GuaranteeViolation
from wedgespan.gadget import (
    aim_leftovers,
    matched_ray_direction,
    orient_pair,
    orient_quadruplet,
    orient_triplet,
    pair_halfplane_covered,
    verify_coverage,
)
from wedgespan.geom import Direction, Point, Wedge, signed_angle_delta
from wedgespan.graph import induced_graph


def rand_points(rng, k, lo=0.0, hi=1.0):
    return [Point(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(k)]


def circ_eq(a, b, tol=1e-9):
    return abs(signed_angle_delta(a, b)) <= tol


class TestOrientTriplet:
    def test_canonical_example(self):
        pts = [Point(0, 0), Point(1, 0), Point(0.5, 0.8)]
        tri = orient_triplet(pts)
        assert (tri.base_left, tri.base_right, tri.peak) == (0, 1, 2)
        assert tri.wedges[0].bisector.degrees == pytest.approx(0.0)
        assert tri.wedges[1].bisector.degrees == pytest.approx(120.0)
        assert tri.wedges[2].bisector.degrees == pytest.approx(240.0)
        assert not tri.reflected

    def test_equilateral_tie_by_index(self):
        pts = [Point(0, 0), Point(1, 0), Point(0.5, math.sqrt(3) / 2)]
        tri = orient_triplet(pts)
        # all angles equal: roles fall back to input order
        assert (tri.base_left, tri.base_right, tri.peak) == (0, 1, 2)
        g = induced_graph(pts, list(tri.wedges))
        for a, b in tri.tree_edges:
            assert g.has_edge(a, b)
        assert verify_coverage(tri.wedges)

    def test_collinear_middle_takes_peak(self):
        pts = [Point(0, 0), Point(1, 0), Point(2, 0)]
        tri = orient_triplet(pts)
        assert tri.peak == 1
        g = induced_graph(pts, list(tri.wedges))
        assert g.has_edge(1, 0) and g.has_edge(0, 2)

    def test_reflection_case(self):
        pts = [Point(0, 0), Point(1, 0), Point(0.5, -0.8)]
        tri = orient_triplet(pts)
        assert tri.reflected
        g = induced_graph(pts, list(tri.wedges))
        for a, b in tri.tree_edges:
            assert g.has_edge(a, b)
        assert verify_coverage(tri.wedges)

    def test_duplicate_raises(self):
        with pytest.raises(DuplicatePointError):
            orient_triplet([Point(0, 0), Point(0, 0), Point(1, 1)])

    def test_property1_bisector_partition(self):
        rng = random.Random(1)
        for _ in range(200):
            tri = orient_triplet(rand_points(rng, 3))
            base = tri.wedges[0].bisector.degrees
            offsets = sorted(
                (w.bisector.degrees - base) % 360.0 for w in tri.wedges
            )
            assert offsets[0] == pytest.approx(0.0, abs=1e-9)
            assert offsets[1] == pytest.approx(120.0, abs=1e-9)
            assert offsets[2] == pytest.approx(240.0, abs=1e-9)

    def test_property2_ray_multiset(self):
        rng = random.Random(2)
        for _ in range(200):
            tri = orient_triplet(rand_points(rng, 3))
            theta = tri.wedges[tri.base_left].bisector.degrees
            lefts = [w.left_ray.degrees for w in tri.wedges]
            rights = [w.right_ray.degrees for w in tri.wedges]
            for target in (theta + 60.0, theta - 60.0, theta + 180.0):
                assert sum(circ_eq(d, target) for d in lefts) == 1
                assert sum(circ_eq(d, target) for d in rights) == 1

    def test_property3_halfplane_coverage(self):
        rng = random.Random(3)
        for _ in range(5):
            tri = orient_triplet(rand_points(rng, 3))
            pairs = [(0, 1), (0, 2), (1, 2)]
            for i, j in pairs:
                w1, w2 = tri.wedges[i], tri.wedges[j]
                assert matched_ray_direction(w1, w2) is not None
                assert pair_halfplane_covered(w1, w2, samples=10_000)

    def test_cross_edge_smoke(self):
        rng = random.Random(4)
        for _ in range(2000):
            pts1, pts2 = rand_points(rng, 3), rand_points(rng, 3)
            t1, t2 = orient_triplet(pts1), orient_triplet(pts2)
            assert any(
                t1.wedges[i].contains(pts2[j]) and t2.wedges[j].contains(pts1[i])
                for i in range(3)
                for j in range(3)
            )


class TestOrientPair:
    def test_horizontal(self):
        w1, w2 = orient_pair([Point(0, 0), Point(1, 0)], 120.0)
        assert w1.bisector.degrees == pytest.approx(0.0)
        assert w2.bisector.degrees == pytest.approx(180.0)
        assert w1.contains(Point(1, 0)) and w2.contains(Point(0, 0))

    def test_vertical(self):
        w1, w2 = orient_pair([Point(0, 0), Point(0, 2)], 90.0)
        assert w1.bisector.degrees == pytest.approx(90.0)
        assert w2.bisector.degrees == pytest.approx(270.0)

    def test_diagonal(self):
        w1, w2 = orient_pair([Point(0, 0), Point(1, 1)], 120.0)
        assert w1.bisector.degrees == pytest.approx(45.0)
        assert w2.bisector.degrees == pytest.approx(225.0)


class TestAimLeftovers:
    def test_aims_at_nearest_covering_apex(self):
        pts = [Point(0, 0), Point(1, 0), Point(0, 1), Point(3, 0.5)]
        tri = orient_triplet(pts[:3])
        wedges = list(tri.wedges) + [None]
        edges = aim_leftovers(pts, wedges, [3], (0, 1, 2), 120.0, 7.0)
        [(p, x)] = edges
        assert p == 3 and tri.wedges[x].contains(pts[3])
        assert wedges[3].radius == 7.0 and wedges[3].contains(pts[x])

    def test_uncovered_point_raises_with_witness(self):
        pts = [Point(0, 0), Point(-1, 0)]
        wedges = [Wedge(pts[0], Direction(0.0), 90.0), None]
        with pytest.raises(GuaranteeViolation, match=r"\(0,\) do not cover point 1"):
            aim_leftovers(pts, wedges, [1], (0,), 90.0)


class TestOrientQuadruplet:
    def test_unit_square(self):
        pts = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]
        quad = orient_quadruplet(pts)
        assert quad.verified
        assert [w.bisector.degrees for w in quad.wedges] == pytest.approx(
            [45.0, 135.0, 225.0, 315.0]
        )
        g = induced_graph(pts, list(quad.wedges))
        assert g.edge_count == 6

    def test_collinear(self):
        pts = [Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0)]
        quad = orient_quadruplet(pts)
        assert quad.verified
        g = induced_graph(pts, list(quad.wedges))
        assert g.is_connected()
        assert verify_coverage(quad.wedges)

    def test_direction_union_spans_circle(self):
        rng = random.Random(5)
        for _ in range(50):
            pts = rand_points(rng, 4)
            quad = orient_quadruplet(pts)
            # bisectors hit all four quadrant residues, so the 90-degree
            # intervals partition the circle exactly
            base = quad.wedges[0].bisector.degrees
            residues = set()
            for w in quad.wedges:
                d = (w.bisector.degrees - base) % 360.0
                k = round(d / 90.0) % 4
                assert abs(signed_angle_delta(90.0 * k, d)) <= 1e-9
                residues.add(k)
            assert residues == {0, 1, 2, 3}

    def test_random_postconditions(self):
        rng = random.Random(6)
        for _ in range(25):
            pts = rand_points(rng, 4)
            quad = orient_quadruplet(pts)
            assert quad.verified
            assert induced_graph(pts, list(quad.wedges)).is_connected()


class TestVerifyCoverage:
    def test_gadget_covers(self):
        tri = orient_triplet([Point(0, 0), Point(2, 1), Point(0.3, 1.7)])
        assert verify_coverage(tri.wedges)

    def test_single_wedge_fails(self):
        assert not verify_coverage([Wedge(Point(0, 0), Direction(0), 120.0)])

    def test_common_apex_partition(self):
        wedges = [Wedge(Point(0, 0), Direction(d), 120.0) for d in (0, 120, 240)]
        assert verify_coverage(wedges)

    def test_rejects_bounded_wedges(self):
        with pytest.raises(ValueError):
            verify_coverage([Wedge(Point(0, 0), Direction(0), 360.0, radius=1.0)])

    def test_displaced_partition_gap(self):
        # exact direction partition, but the far-apart apexes leave the strip
        # below the axis between them uncovered
        wedges = [
            Wedge(Point(0, 0), Direction(90), 120.0),
            Wedge(Point(-100, 0), Direction(210), 120.0),
            Wedge(Point(100, 0), Direction(330), 120.0),
        ]
        assert not verify_coverage(wedges, bound=1.0)
