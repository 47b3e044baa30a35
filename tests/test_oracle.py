import math

import pytest

from wedgespan.errors import DegreeTooHighError, GridLayoutError, TooManyPointsError
from wedgespan.generators import collinear, equilateral, equilateral_with_center, uniform_square
from wedgespan.geom import Point
from wedgespan.graph import CommGraph, euclidean_mst
from wedgespan.oracle import (
    brute_force_alpha_mst,
    hex_cell_corners,
    hex_grid_graph,
    hex_grid_of_cells,
    iter_spanning_trees,
    square_grid_graph,
    square_grid_reduction,
)

from reference import (
    hamiltonian_cycle_exists,
    hamiltonian_path_exists,
    hex_grid_reduction,
    is_valid_alpha_tree,
    tree_max_spread,
)

SQRT3 = math.sqrt(3.0)


class TestSpanningTreeEnumeration:
    def test_cayley_counts(self):
        assert sum(1 for _ in iter_spanning_trees(4)) == 16
        assert sum(1 for _ in iter_spanning_trees(5)) == 125

    def test_trees_are_valid(self):
        for edges in iter_spanning_trees(5):
            assert len(edges) == 4
            assert len({tuple(sorted(e)) for e in edges}) == 4


class TestBruteForce:
    def test_equilateral_59_has_no_tree(self):
        assert brute_force_alpha_mst(equilateral(), 59.0) is None

    def test_equilateral_60_exists(self):
        tree = brute_force_alpha_mst(equilateral(), 60.0)
        assert tree is not None and tree.weight == pytest.approx(2.0)

    def test_collinear_pi(self):
        tree = brute_force_alpha_mst(collinear(3), 180.0)
        assert tree.weight == pytest.approx(2.0)

    def test_equilateral_center_200(self):
        pts = equilateral_with_center()
        tree = brute_force_alpha_mst(pts, 200.0)
        assert tree.weight == pytest.approx(1.0 + 2.0 / SQRT3, rel=1e-9)
        mst = euclidean_mst(pts)
        assert tree.weight / mst.weight == pytest.approx((2.0 + SQRT3) / 3.0, abs=1e-6)

    def test_too_many_points(self):
        with pytest.raises(TooManyPointsError):
            brute_force_alpha_mst(uniform_square(9, seed=0), 180.0)

    def test_single_point(self):
        tree = brute_force_alpha_mst([Point(0, 0)], 90.0)
        assert tree.edges == () and tree.weight == 0.0

    def test_multi_alpha_consistent(self):
        pts = uniform_square(6, seed=8)
        weights = [brute_force_alpha_mst(pts, alpha).weight for alpha in (90.0, 120.0, 180.0, 360.0)]
        assert weights == sorted(weights, reverse=True)

    def test_unrestricted_equals_euclidean_mst(self):
        for seed in range(10):
            pts = uniform_square(4 + seed % 4, seed=seed)
            exact = brute_force_alpha_mst(pts, 360.0)
            assert exact.weight == pytest.approx(euclidean_mst(pts).weight, rel=1e-9)


class TestCollinearLowerBoundFamily:
    # frozen oracle outputs for equally spaced collinear points at alpha=179.9;
    # the ratio climbs toward the limiting value 2
    GOLDEN = {2: 1.0, 3: 1.5, 4: 5.0 / 3.0, 5: 7.0 / 4.0}

    def test_golden_ratios(self):
        for n, expected in self.GOLDEN.items():
            tree = brute_force_alpha_mst(collinear(n), 179.9)
            mst = euclidean_mst(collinear(n))
            assert tree.weight / mst.weight == pytest.approx(expected, rel=1e-9)

    def test_monotone_toward_two(self):
        ratios = [self.GOLDEN[n] for n in (2, 3, 4, 5)]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 2.0


class TestValidityFilter:
    def test_path_spread(self):
        pts = collinear(3)
        assert tree_max_spread(pts, [(0, 1), (1, 2)]) == pytest.approx(180.0)
        assert is_valid_alpha_tree(pts, [(0, 1), (1, 2)], 180.0)
        assert not is_valid_alpha_tree(pts, [(0, 1), (1, 2)], 179.9)


class TestHamiltonicity:
    def test_path_graph(self):
        g = CommGraph(4, [0, 1, 2], [1, 2, 3], [1, 1, 1])
        assert hamiltonian_path_exists(g)

    def test_star_has_none(self):
        g = CommGraph(5, [0] * 4, [1, 2, 3, 4], [1.0] * 4)
        assert not hamiltonian_path_exists(g)

    def test_square_cycle(self):
        g = square_grid_graph([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert hamiltonian_path_exists(g)
        assert hamiltonian_cycle_exists(g)

    def test_cycle_needs_three(self):
        assert not hamiltonian_cycle_exists(CommGraph(2, [0], [1], [1.0]))

    def test_cap(self):
        with pytest.raises(TooManyPointsError):
            hamiltonian_path_exists(CommGraph(15, [], [], []))


class TestSquareGridReduction:
    def test_single_vertex(self):
        inst = square_grid_reduction(square_grid_graph([(0, 0)]))
        assert inst.target_weight == pytest.approx(0.25)
        assert (inst.points[1].x, inst.points[1].y) == (0.25, 0.0)

    def test_two_vertex_edge(self):
        inst = square_grid_reduction(square_grid_graph([(0, 0), (1, 0)]))
        assert inst.target_weight == pytest.approx(1.45)
        assert (inst.n_black, inst.n_white) == (1, 1)

    def test_three_path_oracle_hits_target(self):
        inst = square_grid_reduction(square_grid_graph([(0, 0), (1, 0), (2, 0)]))
        assert inst.target_weight == pytest.approx(2.0 + 2.0 / 4.0 + 1.0 / 5.0)
        tree = brute_force_alpha_mst(list(inst.points), 180.0)
        assert tree.weight == pytest.approx(inst.target_weight, rel=1e-9)

    def test_degree_four_rejected(self):
        cross = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
        with pytest.raises(DegreeTooHighError):
            square_grid_reduction(square_grid_graph(cross))

    def test_disconnected_rejected(self):
        with pytest.raises(GridLayoutError):
            square_grid_reduction(square_grid_graph([(0, 0), (5, 5)]))

    def test_ladder(self):
        coords = [(x, y) for y in range(2) for x in range(3)]
        inst = square_grid_reduction(square_grid_graph(coords))
        n = len(coords)
        assert len(inst.points) == 2 * n
        assert inst.target_weight == pytest.approx(
            (n - 1) + inst.n_black / 4.0 + inst.n_white / 5.0
        )


class TestHexGrids:
    def test_single_hexagon_shape(self):
        g = hex_grid_of_cells([(0, 0)])
        assert len(g.lattice) == 6
        assert g.graph.edge_count == 6
        for u, v, w in g.graph.edges():
            assert w == pytest.approx(1.0)
            assert g.vertices[u].distance_to(g.vertices[v]) == pytest.approx(1.0)

    def test_bad_lattice_coordinate(self):
        with pytest.raises(GridLayoutError):
            hex_grid_graph([(0, 0)])
        with pytest.raises(GridLayoutError):
            hex_grid_graph([(1, 2)])

    def test_degree_zero_unchanged(self):
        g = hex_grid_graph([(1, 1)])
        assert hex_grid_reduction(g) is g

    def test_degree_two_adds_pendants(self):
        g = hex_grid_of_cells([(0, 0)])
        g2 = hex_grid_reduction(g)
        assert len(g2.lattice) == 8
        new = [i for i, c in enumerate(g2.lattice) if c not in set(g.lattice)]
        assert [g2.graph.degree(i) for i in new] == [1, 1]

    def test_degree_one_adds_three(self):
        corners = hex_cell_corners(0, 0)
        g = hex_grid_graph(corners[:3])  # path of three
        g2 = hex_grid_reduction(g)
        assert len(g2.lattice) == 6
        assert not hamiltonian_path_exists(g2)

    def test_cycle_path_equivalence_single_hexagon(self):
        g = hex_grid_of_cells([(0, 0)])
        g2 = hex_grid_reduction(g)
        assert hamiltonian_cycle_exists(g)
        assert hamiltonian_path_exists(g2)

    def test_hex_path_iff_120_mst_weight(self):
        g = hex_grid_of_cells([(0, 0)])
        pts = list(g.vertices)
        tree = brute_force_alpha_mst(pts, 120.0)
        assert hamiltonian_path_exists(g)
        assert tree.weight == pytest.approx(len(pts) - 1, rel=1e-9)

    def test_claw_has_neither(self):
        # a degree-3 vertex and its three neighbors: no Hamiltonian path and
        # the 120-degree MST must exceed n-1
        center = (1, 1)
        claw = [center, (2, 2), (2, 0), (-1, 1)]
        g = hex_grid_graph(claw)
        assert not hamiltonian_path_exists(g)
        tree = brute_force_alpha_mst(list(g.vertices), 120.0)
        assert tree.weight > 3.0 + 1e-6
