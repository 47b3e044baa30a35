import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedgespan import approx, gadget
from wedgespan.errors import DuplicatePointError, GuaranteeViolation
from wedgespan.gadget import (
    aim_leftovers,
    orient_pair,
    orient_quadruplet,
    orient_triplet,
    verify_coverage,
)
from wedgespan.generators import uniform_square
from wedgespan.geom import (
    ANGLE_TOL_DEG,
    Direction,
    Point,
    PointArray,
    Wedge,
    column_wedge,
    direction,
    points_coincide,
    wedge_columns,
)
from wedgespan.graph import DisjointSets, induced_graph

from reference import (
    aim_leftovers_scalar,
    batch_triplets,
    in_half_aperture,
    orient_triplet_scalar,
    signed_angle_delta,
)


def rand_points(rng, k, lo=0.0, hi=1.0):
    return [Point(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(k)]


def circ_eq(a, b, tol=1e-9):
    return abs(signed_angle_delta(a, b)) <= tol


def matched_ray_direction(w1, w2):
    """The bounding-ray direction that is a left ray of one wedge and a right
    ray of the other, if any; in a triplet gadget every pair has one."""
    for cand, other in ((w1.left_ray, w2.right_ray), (w1.right_ray, w2.left_ray)):
        if circ_eq(cand.degrees, other.degrees, ANGLE_TOL_DEG):
            return cand
    return None


def halfplane_covered(w1, w2, shared, rng):
    """Sampled check that two wedges cover the half-plane beyond the line
    perpendicular to ``shared`` through the farther apex, on the side the
    direction points to, up to 1000 apex distances away."""
    ex, ey = math.cos(math.radians(shared.degrees)), math.sin(math.radians(shared.degrees))
    t_line = max(w1.apex.x * ex + w1.apex.y * ey, w2.apex.x * ex + w2.apex.y * ey)
    reach = 1000.0 * max(w1.apex.distance_to(w2.apex), 1.0)
    for _ in range(10_000):
        t = t_line + rng.random() * reach
        s = rng.uniform(-reach, reach)
        q = Point(t * ex - s * ey, t * ey + s * ex)
        if not (w1.contains(q) or w2.contains(q)):
            return False
    return True


def rotated(x, y, deg):
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return Point(c * x - s * y, s * x + c * y)


def one_triplet(pts):
    return batch_triplets([pts])[0]


class TestOrientTriplet:
    def test_canonical_example(self):
        pts = [Point(0, 0), Point(1, 0), Point(0.5, 0.8)]
        tri = one_triplet(pts)
        assert (tri.base_left, tri.base_right, tri.peak) == (0, 1, 2)
        assert tri.wedges[0].bisector.degrees == pytest.approx(0.0)
        assert tri.wedges[1].bisector.degrees == pytest.approx(120.0)
        assert tri.wedges[2].bisector.degrees == pytest.approx(240.0)
        assert not tri.reflected

    def test_equilateral_tie_by_index(self):
        pts = [Point(0, 0), Point(1, 0), Point(0.5, math.sqrt(3) / 2)]
        tri = one_triplet(pts)
        # all angles equal: roles fall back to input order
        assert (tri.base_left, tri.base_right, tri.peak) == (0, 1, 2)
        g = induced_graph(pts, list(tri.wedges))
        for a, b in tri.tree_edges:
            assert g.has_edge(a, b)
        assert verify_coverage(tri.wedges)

    def test_collinear_middle_takes_peak(self):
        pts = [Point(0, 0), Point(1, 0), Point(2, 0)]
        tri = one_triplet(pts)
        assert tri.peak == 1
        g = induced_graph(pts, list(tri.wedges))
        assert g.has_edge(1, 0) and g.has_edge(0, 2)

    def test_reflection_case(self):
        pts = [Point(0, 0), Point(1, 0), Point(0.5, -0.8)]
        tri = one_triplet(pts)
        assert tri.reflected
        g = induced_graph(pts, list(tri.wedges))
        for a, b in tri.tree_edges:
            assert g.has_edge(a, b)
        assert verify_coverage(tri.wedges)

    def test_duplicate_raises(self):
        with pytest.raises(DuplicatePointError):
            one_triplet([Point(0, 0), Point(0, 0), Point(1, 1)])
        with pytest.raises(DuplicatePointError):
            orient_triplet(PointArray(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])), [(0, 1, 1)])

    def test_bisector_gap_above_aperture_raises(self, monkeypatch):
        # Turning the peak's bisector by one degree opens a 121-degree gap
        # between it and base_right's, which no 120-degree wedge closes;
        # both guaranteed edges stay inside the wedges.
        monkeypatch.setattr(gadget, "_CANON_PEAK", 241.0)
        with pytest.raises(GuaranteeViolation, match="leaves a direction uncovered"):
            one_triplet([Point(0, 0), Point(2, 0), Point(1, 1.4)])

    def test_first_failing_triplet_is_named(self, monkeypatch):
        monkeypatch.setattr(gadget, "_CANON_PEAK", 241.0)
        pts = [Point(0, 0), Point(2, 0), Point(1, 1.4), Point(5, 5), Point(6, 5), Point(5, 7)]
        with pytest.raises(GuaranteeViolation) as caught:
            orient_triplet(pts, [(3, 4, 5), (0, 1, 2)])
        with pytest.raises(GuaranteeViolation) as alone:
            orient_triplet(pts, [(3, 4, 5)])
        assert str(caught.value) == str(alone.value)
        assert "Point(x=5, y=5)" in str(caught.value)

    def test_no_triplets(self):
        tri = orient_triplet([Point(0, 0)], np.empty((0, 3), dtype=int))
        assert tri.bisectors.shape == tri.roles.shape == (0, 3) and tri.tree_edges.shape == (0, 2, 2)

    def test_tree_edges_are_role_positions(self):
        rng = random.Random(5)
        groups = [rand_points(rng, 3) for _ in range(50)]
        tri = orient_triplet([p for g in groups for p in g], np.arange(150).reshape(50, 3))
        for (bl, br, pk), edges in zip(tri.roles.tolist(), tri.tree_edges.tolist()):
            assert edges == [[pk, bl], [bl, br]]

    def test_property1_bisector_partition(self):
        rng = random.Random(1)
        for tri in batch_triplets([rand_points(rng, 3) for _ in range(200)]):
            base = tri.wedges[0].bisector.degrees
            offsets = sorted(
                (w.bisector.degrees - base) % 360.0 for w in tri.wedges
            )
            assert offsets[0] == pytest.approx(0.0, abs=1e-9)
            assert offsets[1] == pytest.approx(120.0, abs=1e-9)
            assert offsets[2] == pytest.approx(240.0, abs=1e-9)

    def test_property2_ray_multiset(self):
        rng = random.Random(2)
        for tri in batch_triplets([rand_points(rng, 3) for _ in range(200)]):
            theta = tri.wedges[tri.base_left].bisector.degrees
            lefts = [w.left_ray.degrees for w in tri.wedges]
            rights = [w.right_ray.degrees for w in tri.wedges]
            for target in (theta + 60.0, theta - 60.0, theta + 180.0):
                assert sum(circ_eq(d, target) for d in lefts) == 1
                assert sum(circ_eq(d, target) for d in rights) == 1

    def test_property3_halfplane_coverage(self):
        rng, sampler = random.Random(3), random.Random(33)
        for tri in batch_triplets([rand_points(rng, 3) for _ in range(5)]):
            pairs = [(0, 1), (0, 2), (1, 2)]
            for i, j in pairs:
                w1, w2 = tri.wedges[i], tri.wedges[j]
                shared = matched_ray_direction(w1, w2)
                assert shared is not None
                assert halfplane_covered(w1, w2, shared, sampler)

    def test_cross_edge_smoke(self):
        rng = random.Random(4)
        groups = [rand_points(rng, 3) for _ in range(4000)]
        oriented = batch_triplets(groups)
        for pts1, pts2, t1, t2 in zip(groups[::2], groups[1::2], oriented[::2], oriented[1::2]):
            assert any(
                t1.wedges[i].contains(pts2[j]) and t2.wedges[j].contains(pts1[i])
                for i in range(3)
                for j in range(3)
            )


def _placed(base, turn, shift, scale):
    """The points ``base`` rotated by ``turn`` degrees, scaled, and moved by ``shift``."""
    c, s = math.cos(math.radians(turn)), math.sin(math.radians(turn))
    return [Point(shift[0] + scale * (c * x - s * y), shift[1] + scale * (s * x + c * y)) for x, y in base]


def _apart(pts):
    return not any(points_coincide(p, q) for p, q in itertools.combinations(pts, 2))


_coord = st.floats(-1e3, 1e3, allow_nan=False)
_turn, _shift = st.floats(0.0, 360.0), st.tuples(_coord, _coord)
_random_triplet = st.lists(st.builds(Point, _coord, _coord), min_size=3, max_size=3)
_lattice_triplet = st.lists(st.builds(Point, st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=3)
_negative_triplet = st.lists(
    st.builds(Point, st.floats(-1e6, -1e-3), st.floats(-1e6, -1e-3)), min_size=3, max_size=3
)
_collinear_triplet = st.builds(
    lambda ts, turn, shift, scale: _placed([(t, 0.0) for t in ts], turn, shift, scale),
    st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
    _turn,
    _shift,
    st.floats(1e-3, 1e3),
)
# Needles: a third point a height of 1e-12 to 1e-3 off the base line.
_needle_triplet = st.builds(
    lambda t, h, turn, shift, scale: _placed([(0.0, 0.0), (1.0, 0.0), (t, h)], turn, shift, scale),
    st.floats(-2.0, 3.0),
    st.sampled_from([1e-12, -1e-12, 1e-9, -1e-9, 1e-6, 1e-3]),
    _turn,
    _shift,
    st.floats(1e-3, 1e3),
)
_triplet = st.one_of(_random_triplet, _lattice_triplet, _negative_triplet, _collinear_triplet, _needle_triplet)


def _bits(values):
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


class TestBatchMatchesScalarTriplet:
    """One batch pass gives each triplet's roles, reflection and bisector
    bits as ``orient_triplet_scalar`` gives them one at a time."""

    @given(st.lists(_triplet.filter(_apart), min_size=1, max_size=50))
    @settings(max_examples=300, deadline=None)
    def test_bits_roles_and_reflection(self, groups):
        try:
            want = [orient_triplet_scalar(g) for g in groups]
        except GuaranteeViolation as exc:
            with pytest.raises(GuaranteeViolation) as caught:
                batch_triplets(groups)
            assert str(caught.value) == str(exc)
            return
        got = batch_triplets(groups)
        for w, g in zip(want, got):
            assert (g.base_left, g.base_right, g.peak, g.reflected) == (w.base_left, w.base_right, w.peak, w.reflected)
            assert _bits([x.bisector.degrees for x in g.wedges]) == _bits([x.bisector.degrees for x in w.wedges])

    @given(
        st.lists(
            st.builds(
                lambda pts, exponent: [Point(p.x * 10.0**exponent, p.y * 10.0**exponent) for p in pts],
                _random_triplet.filter(_apart),
                # Up to 1e303: the coordinates' differences stay finite.
                st.integers(150, 300),
            ).filter(_apart),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_huge_triplets_keep_both_guarantees(self, groups):
        # Squares overflow beyond ~1e154, where the scalar gadget reads every
        # corner as 180 degrees and mostly raises; the batch still keeps
        # both gadget edges and covers the plane.
        for pts, tri in zip(groups, batch_triplets(groups)):
            w = tri.wedges
            for a, b in tri.tree_edges:
                assert w[a].contains(pts[b]) and w[b].contains(pts[a]), pts
            assert verify_coverage(w), pts

    def test_huge_triplet_the_scalar_gadget_loses(self):
        pts = [Point(8.0e159, 4.5e159), Point(2.0e159, 7.5e159), Point(6.0e159, 1.0e159)]
        with pytest.raises(GuaranteeViolation, match="lost a guaranteed edge"):
            orient_triplet_scalar(pts)
        tri = one_triplet(pts)
        for a, b in tri.tree_edges:
            assert tri.wedges[a].contains(pts[b]) and tri.wedges[b].contains(pts[a])
        assert verify_coverage(tri.wedges)

    def test_overflow_scaling_keeps_unscaled_rows(self):
        # A huge triplet in the batch changes no other row's bits.
        rng = random.Random(9)
        groups = [rand_points(rng, 3) for _ in range(20)]
        huge = [Point(8.0e159, 4.5e159), Point(2.0e159, 7.5e159), Point(6.0e159, 1.0e159)]
        mixed = batch_triplets(groups[:10] + [huge] + groups[10:])
        alone = batch_triplets(groups)
        assert [t.wedges for t in mixed[:10] + mixed[11:]] == [t.wedges for t in alone]


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
        tri = one_triplet(pts[:3])
        wedges = wedge_columns(tri.wedges + (Wedge(pts[3], Direction(0.0), 120.0),))
        wedges[3] = math.nan
        edges = aim_leftovers(pts, wedges, [3], [(0, 1, 2)], 120.0, 7.0)
        [(p, x)] = edges
        assert p == 3 and tri.wedges[x].contains(pts[3])
        w3 = column_wedge(pts[3], *wedges[3].tolist())
        assert w3.radius == 7.0 and w3.contains(pts[x])

    def test_uncovered_point_raises_with_witness(self):
        pts = [Point(0, 0), Point(-1, 0)]
        wedges = np.array([[0.0, 90.0, math.inf], [math.nan, 90.0, math.inf]])
        with pytest.raises(GuaranteeViolation, match=r"\(0,\) do not cover point 1"):
            aim_leftovers(pts, wedges, [1], [(0,)], 90.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_aiming_by_wedge_contains(self, seed):
        # Leftovers around one triplet gadget, some on its bounding rays and
        # some at equal distances from two apexes.
        rng = random.Random(seed)
        host = [Point(0, 0), Point(1, 0), Point(0.5, 0.8)]
        tri = one_triplet(host)
        stray = [rotated(rng.choice((0.5, 1.0, 3.0)), 0.0, rng.choice((0.0, 30.0, 90.0, rng.uniform(0, 360))))
                 for _ in range(30)]
        pts = host + [Point(p.x + 0.5, p.y) for p in stray]
        leftovers = [k for k in range(3, len(pts)) if _apart([pts[k]] + host)]
        want = list(tri.wedges) + [None] * (len(pts) - 3)
        want_edges = aim_leftovers_scalar(pts, want, leftovers, (0, 1, 2), 120.0, 7.0)
        rows = np.full((len(pts), 3), (math.nan, 120.0, 7.0))
        rows[:3] = wedge_columns(tri.wedges)
        rows[:3, 2] = math.inf
        assert aim_leftovers(pts, rows, leftovers, [(0, 1, 2)] * len(leftovers), 120.0, 7.0) == want_edges
        for k in leftovers:
            assert column_wedge(pts[k], *rows[k].tolist()) == want[k]


# Quadruplets of the bench small-mixed pools (bench seed, job index) where a
# sampled coverage check (10,000 points in a disk) accepted wedges leaving
# the witness, a point 1e-5 to 1e-3 beside one of their rays, uncovered.
_SAMPLED_GAPS = [
    (1, 31, [(1.01377984245, 0.103859084829), (1.04660430043, 0.10273177535),
             (1.08413160341, 0.22824974248), (1.12954592321, 0.069478349946)],
     (0.9019999721113752, -0.38452810310826413)),
    (5, 44, [(0.0108828330954, 0.378858199889), (0.0315043504751, 0.0823136228923),
             (0.041473653554, 0.208066185352), (0.190023068441, 0.363810099487)],
     (0.09784943093936568, 0.8733138241601545)),
    (6, 44, [(0.746635309305, 0.0361817189749), (0.769816519695, 0.21247233608),
             (0.769913304207, 0.182631652304), (0.865768742765, 0.037000342361)],
     (0.7743624088473845, -0.4636395589091626)),
    (8, 33, [(0.462976480214, 0.329341674423), (0.591685494356, 0.597603079605),
             (0.593942289722, 0.486306348438), (0.657458681924, 0.543348047891)],
     (0.9657109160412027, 0.9372333785564416)),
    (9, 30, [(0.378070617512, 0.438831351827), (0.379763213072, 0.795663199844),
             (0.401722816541, 0.669348339047), (0.479327979202, 0.784929681861)],
     (0.46871360315440963, 1.2889710113255395)),
    (11, 33, [(0.314238222037, 0.645762280233), (0.318079735572, 0.74162493604),
              (0.350795773719, 0.687581224212), (0.372845083801, 0.681003786486)],
     (0.35945793148460436, 0.6729430726694658)),
    (16, 24, [(0.164408592399, 0.715586172193), (0.231275002823, 0.596098231671),
              (0.256639905046, 0.507440054014), (0.293916259177, 0.751694841908)],
     (0.06135062352526773, 1.2059228193694358)),
    (16, 27, [(0.385210334874, 0.87229592911), (0.38983232619, 0.866247057616),
              (0.394656709364, 0.850744344571), (0.473002278233, 0.902048186911)],
     (-0.06972219341115657, 0.6647084108252438)),
    (17, 0, [(0.153058240681, 0.699869940483), (0.261757670402, 0.478066905785),
             (0.313995444459, 0.130761351471), (0.356489198254, 0.730423497406)],
     (0.15252893824254415, 1.2053983507732584)),
    (22, 21, [(0.00408276682485, 0.536533892637), (0.0559124832903, 0.585297024615),
              (0.0819773369341, 0.469737229558), (0.141361156875, 0.68406545174)],
     (-0.3155503487248336, 0.15196401748112148)),
    (22, 43, [(0.0418794726683, 0.566555353448), (0.050333211322, 0.579457728722),
              (0.0628062964552, 0.556549314094), (0.0671701810111, 0.553888800212)],
     (0.042787170714618336, 0.5697653730735631)),
]


def _connected_on_four(edges):
    reach = 1  # bitmask over vertices 0..3, seeded with vertex 0
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            bu, bv = 1 << u, 1 << v
            if (reach & bu) and not (reach & bv):
                reach |= bv
                changed = True
            elif (reach & bv) and not (reach & bu):
                reach |= bu
                changed = True
    return reach == 0b1111


def reference_quadruplet_bisectors(points):
    """Scalar reference for ``orient_quadruplet``: score each candidate pair
    by pair, rank the connected ones by (most edges, least total length,
    enumeration order) and return the first covering one's bisectors."""
    dirs = [[0.0] * 4 for _ in range(4)]
    dists = [[0.0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            d = direction(points[i], points[j]).degrees
            dirs[i][j] = d
            dirs[j][i] = (d + 180.0) % 360.0
            dists[i][j] = dists[j][i] = points[i].distance_to(points[j])

    phis = []
    for i in range(4):
        for j in range(i + 1, 4):
            cand = dirs[i][j] % 90.0
            if all(abs(cand - p) > ANGLE_TOL_DEG for p in phis):
                phis.append(cand)
    if all(abs(p) > ANGLE_TOL_DEG for p in phis):
        phis.append(0.0)

    scored = []
    seq = 0
    for phi in phis:
        base = (45.0 + phi, 135.0 + phi, 225.0 + phi, 315.0 + phi)
        for perm in itertools.permutations(range(4)):
            bis = tuple(base[perm[i]] % 360.0 for i in range(4))
            edges = []
            total = 0.0
            for i in range(4):
                for j in range(i + 1, 4):
                    if in_half_aperture(dirs[i][j], bis[i], 45.0) and in_half_aperture(dirs[j][i], bis[j], 45.0):
                        edges.append((i, j))
                        total += dists[i][j]
            if edges and _connected_on_four(edges):
                scored.append((-len(edges), total, seq, bis))
            seq += 1

    scored.sort()
    for _, _, _, bis in scored:
        wedges = tuple(Wedge(points[i], Direction(bis[i]), 90.0) for i in range(4))
        if verify_coverage(wedges):
            return [w.bisector.degrees for w in wedges]
    raise AssertionError(f"reference found no covering assignment for {points}")


def _random_quads(rng):
    return [rand_points(rng, 4) for _ in range(1000)]


def _lattice_quads(rng):
    # Small integer coordinates: repeated directions, lengths and phi values.
    quads = []
    while len(quads) < 300:
        cells = {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(4)}
        if len(cells) == 4:
            quads.append([Point(x, y) for x, y in sorted(cells)])
    return quads


def _cocircular_quads(rng):
    quads = []
    for _ in range(100):
        turn, r = rng.uniform(0.0, 360.0), rng.uniform(0.1, 10.0)
        quads.append([rotated(r, 0.0, turn + 90.0 * k) for k in range(4)])
        angles = rng.sample(range(0, 360, 15), 4)
        quads.append([rotated(r, 0.0, a) for a in angles])
    return quads


def _collinear_quads(rng):
    quads = []
    for _ in range(100):
        turn = rng.choice((0.0, 45.0, 90.0, rng.uniform(0.0, 180.0)))
        quads.append([rotated(float(x), 0.0, turn) for x in rng.sample(range(12), 4)])
    return quads


def _needle_quads(rng):
    # A triangle with a tiny height over its base, plus a point anywhere.
    quads = []
    for _ in range(100):
        h = 10.0 ** rng.uniform(-9.0, -3.0)
        tri = [Point(0.0, 0.0), Point(1.0, 0.0), Point(rng.random(), h)]
        quads.append(tri + [Point(rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 1.0))])
    return quads


class TestScoringMatchesScalarReference:
    @pytest.mark.parametrize(
        "make", [_random_quads, _lattice_quads, _cocircular_quads, _collinear_quads, _needle_quads]
    )
    def test_same_bisectors(self, make):
        rng = random.Random(make.__name__)
        for pts in make(rng):
            got = [w.bisector.degrees for w in orient_quadruplet(pts).wedges]
            assert got == reference_quadruplet_bisectors(pts), pts

    def test_same_bisectors_on_sampled_gap_fixtures(self):
        for _, _, pts, _ in _SAMPLED_GAPS:
            pts = [Point(x, y) for x, y in pts]
            got = [w.bisector.degrees for w in orient_quadruplet(pts).wedges]
            assert got == reference_quadruplet_bisectors(pts), pts

    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=4, max_size=4, unique=True))
    @settings(max_examples=300, deadline=None)
    def test_same_bisectors_on_small_integer_points(self, coords):
        pts = [Point(x, y) for x, y in coords]
        got = [w.bisector.degrees for w in orient_quadruplet(pts).wedges]
        assert got == reference_quadruplet_bisectors(pts)

    def test_connectivity_table_matches_union_find(self):
        pairs = list(itertools.combinations(range(4), 2))
        for mask in range(64):
            sets = DisjointSets(4)
            for k, (i, j) in enumerate(pairs):
                if mask >> k & 1:
                    sets.union(i, j)
            assert bool(gadget._CONNECTED[mask]) == (sets.count == 1), mask
        # 38 of the 64 labelled graphs on four vertices are connected.
        assert int(gadget._CONNECTED.sum()) == 38


def test_alpha90_solve_orients_each_quadruplet_once(monkeypatch):
    """One ``orient_quadruplet`` call per quadruplet, each making at least
    one coverage check, so per-quadruplet counts stay per quadruplet."""
    quads, checks = [], []
    orient, cover = approx.orient_quadruplet, gadget.verify_coverage

    def counted_orient(points):
        quads.append(frozenset(points))
        return orient(points)

    def counted_cover(wedges):
        checks.append(None)
        return cover(wedges)

    monkeypatch.setattr(approx, "orient_quadruplet", counted_orient)
    monkeypatch.setattr(gadget, "verify_coverage", counted_cover)
    points = uniform_square(64, seed=0)
    approx.build_tree(points, 90.0)
    # 64 points make eight tour sections of eight, each split in two.
    assert len(quads) == 16
    assert frozenset().union(*quads) == frozenset(points)
    assert len(checks) >= len(quads)


class TestOrientQuadruplet:
    def test_unit_square(self):
        pts = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]
        quad = orient_quadruplet(pts)
        assert [w.bisector.degrees for w in quad.wedges] == pytest.approx(
            [45.0, 135.0, 225.0, 315.0]
        )
        g = induced_graph(pts, list(quad.wedges))
        assert g.edge_count == 6

    def test_collinear(self):
        pts = [Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0)]
        quad = orient_quadruplet(pts)
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
            assert induced_graph(pts, list(quad.wedges)).is_connected()

    @pytest.mark.parametrize(
        "seed,job,pts,witness", _SAMPLED_GAPS, ids=[f"seed{s}-job{j}" for s, j, _, _ in _SAMPLED_GAPS]
    )
    def test_covers_gaps_the_sampled_check_missed(self, seed, job, pts, witness):
        quad = orient_quadruplet([Point(x, y) for x, y in pts])
        assert verify_coverage(quad.wedges)
        assert any(w.contains(Point(*witness)) for w in quad.wedges)


class TestVerifyCoverage:
    def test_gadget_covers(self):
        tri = one_triplet([Point(0, 0), Point(2, 1), Point(0.3, 1.7)])
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
        # below the axis between them uncovered, at any spacing
        for spacing in (100.0, 1e-7):
            wedges = [
                Wedge(Point(0, 0), Direction(90), 120.0),
                Wedge(Point(-spacing, 0), Direction(210), 120.0),
                Wedge(Point(spacing, 0), Direction(330), 120.0),
            ]
            assert not verify_coverage(wedges), spacing

    @pytest.mark.parametrize("side", [1.0, 1e-7])
    def test_pinwheel_triangle_hole(self, side):
        # Each wedge sits on a corner of an equilateral triangle and covers
        # the outside of one edge: a bounded hole, whose edges are the only
        # gaps on the rays.
        h = side * math.sqrt(3.0) / 2.0
        wedges = [
            Wedge(Point(0.0, 0.0), Direction(300), 120.0),
            Wedge(Point(side, 0.0), Direction(60), 120.0),
            Wedge(Point(side / 2.0, h), Direction(180), 120.0),
        ]
        assert not any(w.contains(Point(side / 2.0, h / 3.0)) for w in wedges)
        assert not verify_coverage(wedges)
        # a 60-degree wedge at the first corner fills the hole
        assert verify_coverage(wedges + [Wedge(Point(0.0, 0.0), Direction(30), 60.0)])

    @pytest.mark.parametrize("eps", [0.1, 0.001])
    def test_thin_strip_gap(self, eps):
        # Quadrant wedges at (0,0), (20,0), (0,0) and (0,-eps), rotated 33
        # degrees: directions partition the circle, but the strip
        # 0 < x < 20, -eps < y < 0 of the unrotated frame is uncovered.
        apexes = [(0.0, 0.0), (20.0, 0.0), (0.0, 0.0), (0.0, -eps)]
        wedges = [
            Wedge(rotated(x, y, 33.0), Direction(b + 33.0), 90.0)
            for (x, y), b in zip(apexes, (45.0, 135.0, 225.0, 315.0))
        ]
        witness = rotated(5.0, -eps / 2.0, 33.0)
        assert not any(w.contains(witness) for w in wedges)
        assert not verify_coverage(wedges)

    def test_rejects_apertures_of_180_or_more(self):
        wedges = [Wedge(Point(0, 0), Direction(d), 180.0) for d in (0, 180)]
        with pytest.raises(ValueError):
            verify_coverage(wedges)

    def test_duplicated_wedges_keep_their_gap(self):
        # Every ray of a doubled family lies in its twin, on the twin's side;
        # only the other side of the ray counts.
        wedges = [Wedge(Point(0, 0), Direction(45), 90.0)] * 2
        assert not verify_coverage(wedges)
        holed = [
            Wedge(Point(0, 0), Direction(90), 120.0),
            Wedge(Point(-100, 0), Direction(210), 120.0),
            Wedge(Point(100, 0), Direction(330), 120.0),
        ]
        assert not verify_coverage(holed + holed)

    def test_huge_coordinates(self):
        pts = [Point(0, 0), Point(2, 1), Point(0.3, 1.7)]
        tri = one_triplet(pts)
        shifted = [Wedge(Point(p.x + 1e6, p.y - 1e6), w.bisector, 120.0) for p, w in zip(pts, tri.wedges)]
        assert verify_coverage(shifted)

    def test_uncovered_sample_means_not_covered(self):
        # Independent cross-check by Wedge.contains alone: a sampled point in
        # no wedge refutes coverage. Families have bisectors spread around
        # the circle with jitter, so both outcomes occur.
        rng = random.Random(7)
        outcomes = set()
        for _ in range(300):
            k = rng.randint(3, 5)
            aperture = rng.choice((90.0, 120.0))
            turn = rng.uniform(0.0, 360.0)
            wedges = [
                Wedge(
                    Point(rng.random(), rng.random()),
                    Direction(turn + 360.0 * m / k + rng.gauss(0.0, 10.0)),
                    aperture,
                )
                for m in range(k)
            ]
            covered = verify_coverage(wedges)
            for _ in range(500):
                q = rotated(4.0 * math.sqrt(rng.random()), 0.0, rng.uniform(0.0, 360.0))
                q = Point(q.x + 0.5, q.y + 0.5)
                if not any(w.contains(q) for w in wedges):
                    assert not covered, (wedges, q)
                    outcomes.add("gap")
                    break
            else:
                outcomes.add(covered)
        assert outcomes >= {"gap", True}
