import ast
import json
from pathlib import Path

import pytest

from wedgespan import cli
from wedgespan.cli import main
from wedgespan.errors import TheoremViolation
from wedgespan.io import parse_instance, parse_result


def run(*argv):
    return main(list(argv))


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("gen", "--generator", "uniform-square", "--n", "60",
                       "--seed", "7", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_collinear_fixture(self, tmp_path):
        out = tmp_path / "c.json"
        assert run("gen", "--generator", "collinear", "--n", "3", "--out", str(out)) == 0
        obj = json.loads(out.read_text())
        assert obj["points"] == [[0, 0], [1, 0], [2, 0]]

    def test_equilateral_center(self, tmp_path):
        out = tmp_path / "e.json"
        assert run("gen", "--generator", "equilateral-center", "--out", str(out)) == 0
        assert len(json.loads(out.read_text())["points"]) == 4

    def test_unknown_generator(self):
        with pytest.raises(SystemExit):
            run("gen", "--generator", "nope")

    def test_csv_format(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run("gen", "--generator", "collinear", "--n", "2", "--format", "csv",
                   "--out", str(out)) == 0
        assert out.read_text() == "0.0,0.0\n1.0,0.0\n"

    def test_square_grid_reduction_fixture(self, tmp_path):
        out = tmp_path / "g.json"
        assert run("gen", "--generator", "square-grid-reduction", "--width", "3",
                   "--height", "1", "--out", str(out)) == 0
        obj = json.loads(out.read_text())
        assert len(obj["points"]) == 6  # three grid vertices plus satellites

    def test_hex_grid_fixture(self, tmp_path):
        out = tmp_path / "h.json"
        assert run("gen", "--generator", "hex-grid", "--rows", "2", "--out", str(out)) == 0
        assert len(json.loads(out.read_text())["points"]) == 10


class TestSolve:
    @pytest.mark.parametrize("alpha,n", [(180, 10), (120, 60), (90, 64)])
    def test_solve_passes(self, tmp_path, alpha, n):
        inst = tmp_path / "i.json"
        res = tmp_path / "r.json"
        assert run("gen", "--generator", "uniform-square", "--n", str(n),
                   "--seed", "3", "--out", str(inst)) == 0
        assert run("solve", "--in", str(inst), "--alpha", str(alpha),
                   "--out", str(res)) == 0
        doc = parse_result(res.read_text())
        assert doc.summary["alpha"] == alpha
        bound = {180: 2.0, 120: 6.0, 90: 16.0}[alpha]
        assert doc.summary["ratio"] <= bound * (1 + 1e-9)
        assert doc.verification["passed"] is True

    def test_collinear_pi_ratio_one(self, tmp_path):
        inst = tmp_path / "i.json"
        res = tmp_path / "r.json"
        run("gen", "--generator", "collinear", "--n", "3", "--out", str(inst))
        assert run("solve", "--in", str(inst), "--alpha", "180", "--out", str(res)) == 0
        assert parse_result(res.read_text()).summary["ratio"] == pytest.approx(1.0)

    def test_svg_output(self, tmp_path):
        inst = tmp_path / "i.json"
        res = tmp_path / "r.json"
        svg = tmp_path / "r.svg"
        run("gen", "--generator", "uniform-square", "--n", "9", "--seed", "1",
            "--out", str(inst))
        assert run("solve", "--in", str(inst), "--alpha", "120", "--out", str(res),
                   "--svg", str(svg)) == 0
        assert svg.read_text().startswith("<?xml")


class TestConvert:
    def test_three_close_points(self, tmp_path):
        inst = tmp_path / "i.json"
        res = tmp_path / "r.json"
        inst.write_text('{"points": [[0, 0], [0.6, 0], [0.3, 0.5]]}')
        assert run("convert", "--in", str(inst), "--out", str(res)) == 0
        doc = parse_result(res.read_text())
        assert doc.summary["hop_stretch"] <= 2
        assert doc.summary["max_edge_len"] <= 7.0 + 1e-9

    def test_disconnected_exit_code(self, tmp_path):
        inst = tmp_path / "i.json"
        inst.write_text('{"points": [[0, 0], [3, 0]]}')
        assert run("convert", "--in", str(inst), "--out", str(tmp_path / "r.json")) == 2


def test_guarantee_violation_exits_3(tmp_path, monkeypatch, capsys):
    def broken_builder(points, alpha):
        raise TheoremViolation("no cross edge between triplet groups (0, 1, 2) and (3, 4, 5)")

    monkeypatch.setattr(cli, "build_tree", broken_builder)
    inst = tmp_path / "i.json"
    run("gen", "--generator", "uniform-square", "--n", "6", "--out", str(inst))
    assert run("solve", "--in", str(inst), "--alpha", "120") == 3
    assert "guarantee violated" in capsys.readouterr().err


def test_package_has_no_bare_asserts():
    # Guarantees must hold under ``python -O``, which strips assert statements.
    package = Path(cli.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


class TestVerify:
    def test_round_trip_passes(self, tmp_path):
        inst = tmp_path / "i.json"
        res = tmp_path / "r.json"
        run("gen", "--generator", "uniform-square", "--n", "12", "--seed", "5",
            "--out", str(inst))
        run("solve", "--in", str(inst), "--alpha", "120", "--out", str(res))
        assert run("verify", "--in", str(inst), "--result", str(res)) == 0

    def test_tampered_result_fails(self, tmp_path):
        inst = tmp_path / "i.json"
        res = tmp_path / "r.json"
        run("gen", "--generator", "uniform-square", "--n", "12", "--seed", "5",
            "--out", str(inst))
        run("solve", "--in", str(inst), "--alpha", "120", "--out", str(res))
        obj = json.loads(res.read_text())
        obj["summary"]["weight"] = obj["summary"]["weight"] * 0.5
        res.write_text(json.dumps(obj))
        assert run("verify", "--in", str(inst), "--result", str(res)) == 1

    @staticmethod
    def _tamper(tmp_path, gen_args, alpha, edit):
        """Solve an instance, let ``edit`` change the result object, verify it."""
        inst = tmp_path / "i.json"
        res = tmp_path / "r.json"
        assert run("gen", *gen_args, "--out", str(inst)) == 0
        assert run("solve", "--in", str(inst), "--alpha", str(alpha), "--out", str(res)) == 0
        points = parse_instance(inst.read_text()).points
        obj = json.loads(res.read_text())
        edit(obj, points)
        res.write_text(json.dumps(obj))
        return run("verify", "--in", str(inst), "--result", str(res))

    @staticmethod
    def _set_edges(obj, points, edges):
        obj["edges"] = edges
        obj["summary"]["weight"] = sum(points[u].distance_to(points[v]) for u, v in edges)

    def test_duplicate_edge_leaving_a_point_isolated_fails(self, tmp_path, capsys):
        def edit(obj, points):
            assert [0, 1] in obj["edges"] and [0, 3] in obj["edges"]
            self._set_edges(obj, points, [[0, 1], [0, 1], [0, 3]])

        gen = ("--generator", "uniform-square", "--n", "4", "--seed", "2")
        assert self._tamper(tmp_path, gen, 180, edit) == 1
        err = capsys.readouterr().err
        assert "does not span" in err and "cycle" in err

    def test_cycle_plus_isolated_point_fails(self, tmp_path, capsys):
        def edit(obj, points):
            self._set_edges(obj, points, [[0, 1], [1, 2], [2, 3], [0, 3]])

        gen = ("--generator", "collinear", "--n", "5")
        assert self._tamper(tmp_path, gen, 180, edit) == 1
        err = capsys.readouterr().err
        assert "does not span" in err and "cycle" in err

    def test_missing_alpha_fails(self, tmp_path, capsys):
        def edit(obj, points):
            del obj["summary"]["alpha"]

        gen = ("--generator", "uniform-square", "--n", "12", "--seed", "5")
        assert self._tamper(tmp_path, gen, 120, edit) == 1
        assert "summary.alpha" in capsys.readouterr().err

    def test_mst_weight_above_tree_weight_fails(self, tmp_path, capsys):
        def edit(obj, points):
            obj["summary"]["mst_weight"] = obj["summary"]["weight"] * 1.01

        gen = ("--generator", "uniform-square", "--n", "12", "--seed", "5")
        assert self._tamper(tmp_path, gen, 120, edit) == 1
        assert "MST weight" in capsys.readouterr().err

    def test_spread_above_alpha_fails(self, tmp_path, capsys):
        # The 90-degree star on three collinear points hangs both others off
        # point 0; the path through point 1 gives it a 180-degree spread.
        def edit(obj, points):
            assert sorted(map(sorted, obj["edges"])) == [[0, 1], [0, 2]]
            self._set_edges(obj, points, [[0, 1], [1, 2]])

        gen = ("--generator", "collinear", "--n", "3")
        assert self._tamper(tmp_path, gen, 90, edit) == 1
        assert "vertex 1 has spread 180" in capsys.readouterr().err

    def test_spanner_result_verifies(self, tmp_path):
        inst = tmp_path / "i.json"
        res = tmp_path / "r.json"
        inst.write_text('{"points": [[0, 0], [0.6, 0], [0.3, 0.5], [1.1, 0.2]]}')
        assert run("convert", "--in", str(inst), "--out", str(res)) == 0
        assert run("verify", "--in", str(inst), "--result", str(res)) == 0


class TestOracle:
    def test_equilateral_59_reports_absent(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        out = tmp_path / "o.json"
        run("gen", "--generator", "equilateral", "--out", str(inst))
        assert run("oracle", "--in", str(inst), "--alpha", "59", "--out", str(out)) == 0
        assert "no alpha-ST exists" in capsys.readouterr().out
        assert json.loads(out.read_text())["exists"] is False

    def test_ratio_reported(self, tmp_path):
        inst = tmp_path / "i.json"
        out = tmp_path / "o.json"
        run("gen", "--generator", "equilateral-center", "--out", str(inst))
        assert run("oracle", "--in", str(inst), "--alpha", "200", "--out", str(out)) == 0
        obj = json.loads(out.read_text())
        assert obj["exists"] is True
        assert obj["ratio"] == pytest.approx((2 + 3 ** 0.5) / 3, abs=1e-6)


class TestRender:
    def test_instance_only(self, tmp_path):
        inst = tmp_path / "i.json"
        out = tmp_path / "p.svg"
        run("gen", "--generator", "collinear", "--n", "4", "--out", str(inst))
        assert run("render", "--in", str(inst), "--out", str(out)) == 0
        assert "<svg" in out.read_text()
