"""Acceptance suite: one test per release criterion, at full stated volume.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines). Expected total runtime is a few minutes.
"""

import math
import random
import time

import pytest

from wedgespan.approx import build_tree, verify_alpha_tree
from wedgespan.errors import SeparationConnectivityViolation
from wedgespan.generators import collinear, equilateral, equilateral_with_center, uniform_square
from wedgespan.geom import Direction, Point, Wedge
from wedgespan.graph import cross_edge, euclidean_mst, induced_graph, unit_disk_graph
from wedgespan.oracle import (
    brute_force_alpha_mst,
    hex_cell_corners,
    hex_grid_graph,
    hex_grid_of_cells,
    square_grid_graph,
    square_grid_reduction,
)
from wedgespan.spanner import CASE_BOUNDS, build_spanner, verify_hop_spanner

from reference import (
    batch_triplets,
    covers_plane,
    hamiltonian_cycle_exists,
    hamiltonian_path_exists,
    hex_grid_reduction,
    is_valid_alpha_tree,
    signed_angle_delta,
    wedge_columns,
)

REL = 1e-9
ANG = 1e-9


def _report(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}")


def _has_cross_edge(pts1, wedges1, pts2, wedges2):
    for i in range(3):
        for j in range(3):
            if wedges1[i].contains(pts2[j]) and wedges2[j].contains(pts1[i]):
                return True
    return False


def _random_triplet(rng):
    return [Point(rng.random(), rng.random()) for _ in range(3)]


def _adversarial_triplet(rng):
    """Needle triangle with aspect ratio up to 1e6, under a random rigid motion."""
    aspect = 10.0 ** rng.uniform(0.0, 6.0)
    t = rng.uniform(0.05, 0.95)
    base = [(0.0, 0.0), (1.0, 0.0), (t, 1.0 / aspect)]
    ang = math.radians(rng.uniform(0.0, 360.0))
    c, s = math.cos(ang), math.sin(ang)
    ox, oy = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
    return [Point(ox + c * x - s * y, oy + s * x + c * y) for x, y in base]


# Triplets (C2) or triplet pairs (C1) oriented per batch.
_CHUNK = 10_000


def test_c01_theorem_cross_edge_always_exists():
    """Any two independently oriented triplet gadgets share a mutual edge."""
    rng = random.Random(20240601)
    start = time.perf_counter()
    # Each chunk of triplet pairs is drawn in order, then oriented in one pass.
    for draw, chunks in ((_random_triplet, 10), (_adversarial_triplet, 1)):
        for _ in range(chunks):
            groups = [draw(rng) for _ in range(2 * _CHUNK)]
            oriented = batch_triplets(groups)
            for pts1, pts2, t1, t2 in zip(groups[::2], groups[1::2], oriented[::2], oriented[1::2]):
                assert _has_cross_edge(pts1, t1.wedges, pts2, t2.wedges), (pts1, pts2)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"theorem sweep took {elapsed:.1f}s"
    _report("C1 theorem-cross-edge", f"(110000 pairs, {elapsed:.1f}s)")


def test_c02_gadget_invariants_mass():
    """Guaranteed edges, exact bisector/ray structure, and plane coverage."""
    rng = random.Random(20240602)
    start = time.perf_counter()
    for chunk in range(100_000 // _CHUNK):
        groups = [_random_triplet(rng) for _ in range(_CHUNK)]
        for k, (pts, tri) in enumerate(zip(groups, batch_triplets(groups)), chunk * _CHUNK):
            w = tri.wedges
            for a, b in tri.tree_edges:
                assert w[a].contains(pts[b]) and w[b].contains(pts[a]), (k, pts)
            # the three bisectors are {theta, theta+120, theta+240} exactly
            theta = w[tri.base_left].bisector.degrees
            residues = set()
            for x in w:
                d = (x.bisector.degrees - theta) % 360.0
                third = round(d / 120.0) % 3
                assert abs(signed_angle_delta(120.0 * third, d)) <= ANG, (k, d)
                residues.add(third)
            assert residues == {0, 1, 2}, k
            # each of theta+-60, theta+180 appears once as a left and once as a right ray
            lefts = [x.left_ray.degrees for x in w]
            rights = [x.right_ray.degrees for x in w]
            for target in (theta + 60.0, theta - 60.0, theta + 180.0):
                assert sum(abs(signed_angle_delta(target, d)) <= ANG for d in lefts) == 1
                assert sum(abs(signed_angle_delta(target, d)) <= ANG for d in rights) == 1
            assert covers_plane(w), (k, pts)
    elapsed = time.perf_counter() - start
    _report("C2 gadget-invariants", f"(100000 triplets, {elapsed:.1f}s)")


def test_c03_pi_builder_bounds():
    for seed in range(1000):
        n = 2 + seed % 59
        pts = uniform_square(n, seed=seed)
        result = build_tree(pts, 180)
        report = verify_alpha_tree(pts, result)
        assert report.passed, (seed, report.failures)
        assert report.max_spread_deg <= 180.0 + ANG
        assert result.tree.weight <= 2.0 * result.mst_weight * (1.0 + REL)
    _report("C3 pi-builder", "(1000 seeds, n in 2..60)")


def test_c04_two_thirds_builder_bounds():
    for seed in range(1000):
        for n in (3, 6, 60, 99):
            pts = uniform_square(n, seed=seed)
            result = build_tree(pts, 120)
            report = verify_alpha_tree(pts, result)
            assert report.passed, (seed, n, report.failures)
            assert report.max_spread_deg <= 120.0 + ANG
            if n % 3 == 0:
                assert result.tree.weight <= 3.0 * result.tour_weight * (1.0 + REL)
                assert result.tree.weight <= 6.0 * result.mst_weight * (1.0 + REL)
    _report("C4 two-thirds-builder", "(1000 seeds x n in {3,6,60,99})")


def test_c05_half_pi_builder_bounds():
    violations = 0
    for seed in range(500):
        for n in (8, 16, 64):
            pts = uniform_square(n, seed=seed)
            try:
                result = build_tree(pts, 90)
            except SeparationConnectivityViolation:
                violations += 1
                continue
            report = verify_alpha_tree(pts, result)
            assert report.passed, (seed, n, report.failures)
            assert report.max_spread_deg <= 90.0 + ANG
            if n % 8 == 0:
                assert result.tree.weight <= 8.0 * result.tour_weight * (1.0 + REL)
                assert result.tree.weight <= 16.0 * result.mst_weight * (1.0 + REL)
    assert violations == 0, f"{violations} separation-connectivity violations"
    _report("C5 half-pi-builder", "(500 seeds x n in {8,16,64}, 0 violations)")


def test_c06_oracle_cross_check():
    start = time.perf_counter()
    for k in range(500):
        n = 4 + k % 4
        pts = uniform_square(n, seed=10_000 + k)
        exact = {alpha: brute_force_alpha_mst(pts, alpha) for alpha in (90.0, 120.0, 180.0, 360.0)}
        assert exact[360.0].weight == pytest.approx(
            euclidean_mst(pts).weight, rel=REL
        ), f"set {k}: MST mismatch"
        for alpha in (90.0, 120.0, 180.0):
            result = build_tree(pts, alpha)
            oracle_tree = exact[alpha]
            assert oracle_tree is not None, (k, alpha)
            assert result.tree.weight >= oracle_tree.weight * (1.0 - REL), (k, alpha)
            assert is_valid_alpha_tree(pts, result.tree.edges, alpha), (k, alpha)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"oracle cross-check took {elapsed:.1f}s"
    _report("C6 oracle-cross-check", f"(500 sets, {elapsed:.1f}s)")


def test_c07_remark_fixtures():
    # equilateral corners + circumcenter at alpha=200: ratio (2+sqrt(3))/3
    pts = equilateral_with_center()
    tree = brute_force_alpha_mst(pts, 200.0)
    ratio = tree.weight / euclidean_mst(pts).weight
    assert ratio == pytest.approx((2.0 + math.sqrt(3.0)) / 3.0, abs=1e-6)
    # equilateral triangle at alpha=59: no tree exists
    assert brute_force_alpha_mst(equilateral(), 59.0) is None
    # collinear family at alpha=179.9: frozen oracle goldens, climbing toward 2
    goldens = {4: 5.0 / 3.0, 5: 7.0 / 4.0}
    ratios = {}
    for n, expected in goldens.items():
        t = brute_force_alpha_mst(collinear(n), 179.9)
        ratios[n] = t.weight / euclidean_mst(collinear(n)).weight
        assert ratios[n] == pytest.approx(expected, rel=REL)
    assert ratios[4] < ratios[5] < 2.0
    _report("C7 remark-fixtures")


def test_c08_spanner_mass():
    start = time.perf_counter()
    accepted = 0
    seed = 0
    while accepted < 500:
        pts = uniform_square(200, side=10.0, seed=seed)
        seed += 1
        udg = unit_disk_graph(pts)
        if not udg.is_connected():
            continue
        accepted += 1
        result = build_spanner(pts)  # raises on any internal claim violation
        assert result.summary["max_edge_len"] <= 7.0 * (1.0 + REL)
        assert result.summary["hop_stretch"] <= 6
        report = verify_hop_spanner(result.graph, udg, 6, result.partition)
        assert report.passed, report.failures
        for case, bound in CASE_BOUNDS.items():
            assert report.case_max.get(case, 0) <= bound
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"spanner sweep took {elapsed:.1f}s"
    _report("C8 spanner", f"(500 instances from {seed} samples, {elapsed:.1f}s)")


def _hex_fixture_set(*, for_equivalence):
    corners = hex_cell_corners(0, 0)
    single = hex_grid_of_cells([(0, 0)])
    column2 = hex_grid_of_cells([(0, 0), (0, 1)])
    path3 = hex_grid_graph(corners[:3])
    hex_minus_one = hex_grid_graph(corners[:5])
    pendant = hex_grid_graph(sorted(set(corners) | {(2, 2)}))
    edge2 = hex_grid_graph(corners[:2])
    claw = hex_grid_graph([(1, 1), (2, 2), (2, 0), (-1, 1)])
    fixtures = [single, column2, path3, hex_minus_one, pendant, edge2, claw]
    if for_equivalence:
        # degree-0 top vertex, graph unchanged: no cycle, and no path either
        # (a lone vertex with company is disconnected)
        fixtures.append(hex_grid_graph([(1, 5), (1, 1)]))
    else:
        # the one-vertex grid: a trivial path and weight 0 = n - 1
        fixtures.append(hex_grid_graph([(1, 1)]))
    return fixtures


def test_c09_hardness_fixtures():
    for g in _hex_fixture_set(for_equivalence=True):
        assert len(g.lattice) <= 12
        g2 = hex_grid_reduction(g)
        assert hamiltonian_cycle_exists(g) == hamiltonian_path_exists(g2), g.lattice
    for g in _hex_fixture_set(for_equivalence=False):
        if len(g.lattice) > 8:
            continue
        pts = list(g.vertices)
        tree = brute_force_alpha_mst(pts, 120.0)
        has_path = hamiltonian_path_exists(g)
        weight_is_n_minus_1 = (
            tree is not None and abs(tree.weight - (len(pts) - 1)) <= REL * max(1.0, len(pts))
        )
        assert has_path == weight_is_n_minus_1, g.lattice
    inst = square_grid_reduction(square_grid_graph([(0, 0), (1, 0), (2, 0)]))
    assert inst.target_weight == pytest.approx(2.0 + 2.0 / 4.0 + 1.0 / 5.0, rel=REL)
    tree = brute_force_alpha_mst(list(inst.points), 180.0)
    assert tree.weight == pytest.approx(inst.target_weight, rel=REL)
    _report("C9 hardness-fixtures")


# Two triplets, each internally connected and plane-covering, oriented by a
# rule other than the gadget construction: no edge joins them. Found by a
# margin-maximizing search; every cross pair misses mutuality by >= 0.66 deg.
_NO_CROSS_T1 = (
    [Point(-1.4972, 0.7505), Point(-1.2091, -0.9098), Point(-0.8832, -0.2091)],
    [Direction(99.1780 + 240.0), Direction(99.1780), Direction(99.1780 + 120.0)],
)
_NO_CROSS_T2 = (
    [Point(-1.3170, -0.4536), Point(-1.4589, 0.0376), Point(0.6882, -0.4230)],
    [Direction(105.4370), Direction(105.4370 + 240.0), Direction(105.4370 + 120.0)],
)


def test_c10_negative_fixture_detects_absence():
    pts1, bis1 = _NO_CROSS_T1
    pts2, bis2 = _NO_CROSS_T2
    w1 = [Wedge(p, b, 120.0) for p, b in zip(pts1, bis1)]
    w2 = [Wedge(p, b, 120.0) for p, b in zip(pts2, bis2)]
    assert induced_graph(pts1, wedge_columns(w1)).is_connected()
    assert induced_graph(pts2, wedge_columns(w2)).is_connected()
    assert covers_plane(w1)
    assert covers_plane(w2)
    union = induced_graph(pts1 + pts2, wedge_columns(w1 + w2))
    assert cross_edge(union, [[0, 1, 2]], [[3, 4, 5]]) == [None]
    assert not union.is_connected()
    _report("C10 negative-fixture")
