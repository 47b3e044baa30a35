import ast
import dataclasses
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from collections import deque
from pathlib import Path

import pytest

from wedgespan import cli, geom
from wedgespan.cli import main
from wedgespan.errors import TheoremViolation
from wedgespan.generators import equilateral, equilateral_with_center
from wedgespan.geom import Direction, Point, Wedge, angular_spread
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

    def test_equilateral_heights_match_the_product_first_formulas(self):
        # side / 2 * sqrt(3) (and / 3) against side * sqrt(3) / 2 (and / 6),
        # the forms that overflowed above side ~1.04e308: bit-equal across
        # ordinary sides.
        rng = random.Random(5)
        sides = [10.0**e for e in range(-300, 301, 7)] + [rng.uniform(1e-3, 1e3) for _ in range(500)]
        sides += [1.0, 2.0, 0.1, 3.0, math.pi, 1e308]
        for side in sides:
            (_, _, apex, center) = equilateral_with_center(side)
            assert (apex.x, apex.y) == (side / 2.0, side * math.sqrt(3.0) / 2.0), side
            assert (center.x, center.y) == (side / 2.0, side * math.sqrt(3.0) / 6.0), side
            assert equilateral(side) == [Point(0.0, 0.0), Point(side, 0.0), apex]

    def test_equilateral_center_side_near_float_max(self, tmp_path):
        # Every corner is representable, so the largest sides succeed; the
        # file holds the apex to 12 significant digits.
        assert equilateral_with_center(1.7e308)[2] == Point(8.5e307, 1.4722431864335455e308)
        out = tmp_path / "e.json"
        assert run("gen", "--generator", "equilateral-center", "--side", "1.7e308", "--out", str(out)) == 0
        points = json.loads(out.read_text())["points"]
        assert points[2] == [8.5e307, 1.47224318643e308]

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

    @pytest.mark.parametrize(
        "flags, meta",
        [
            ("uniform-square --n 4 --seed 2 --side 1.5",
             '{"generator": "uniform-square", "params": {"seed": 2, "side": 1.5}, "n": 4}'),
            ("clustered --n 6 --seed 1 --side 2 --clusters 2 --spread 0.1",
             '{"generator": "clustered", "params": {"seed": 1, "side": 2.0, "clusters": 2, "spread": 0.1}, "n": 6}'),
            ("collinear --n 3 --gap 0.5", '{"generator": "collinear", "params": {"gap": 0.5}, "n": 3}'),
            ("equilateral --side 2", '{"generator": "equilateral", "params": {"side": 2.0}}'),
            ("equilateral-center", '{"generator": "equilateral-center", "params": {"side": 1.0}}'),
            ("square-grid-reduction --width 3 --height 1",
             '{"generator": "square-grid-reduction", "params": {"width": 3, "height": 1}}'),
            ("hex-grid --rows 2", '{"generator": "hex-grid", "params": {"rows": 2}}'),
        ],
        ids=["uniform-square", "clustered", "collinear", "equilateral", "equilateral-center",
             "square-grid-reduction", "hex-grid"],
    )
    def test_meta_keys_and_order(self, tmp_path, flags, meta):
        # Each generator's meta, key order included, as instance files hold it.
        out = tmp_path / "m.json"
        assert run("gen", "--generator", *flags.split(), "--out", str(out)) == 0
        assert json.dumps(json.loads(out.read_text())["meta"]) == meta


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
        assert list(doc.summary) == ["alpha", "weight", "mst_weight", "ratio", "max_spread_deg"]
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

    @pytest.mark.parametrize("scale", [1e155, 1e160, 1e200, 1e300])
    def test_huge_coordinates_solve_and_verify(self, tmp_path, scale):
        # Squares of the triplet gadget's sides overflow here; at 120 the
        # solve once exited 3 with "lost a guaranteed edge".
        rng = random.Random(0)
        inst, res = tmp_path / "i.json", tmp_path / "r.json"
        inst.write_text(json.dumps({"points": [[rng.random() * scale, rng.random() * scale] for _ in range(30)]}))
        for alpha in ("120", "90", "180"):
            assert run("solve", "--in", str(inst), "--alpha", alpha, "--out", str(res)) == 0, alpha
            assert run("verify", "--in", str(inst), "--result", str(res)) == 0, alpha

    @pytest.mark.parametrize("low, high, n", [(0.0, 1.7e308, 30), (-8.9e307, 8.9e307, 30), (-8.9e307, 8.9e307, 2)])
    def test_overflowing_spans_exit_2_without_output(self, tmp_path, capsys, low, high, n):
        # Two opposite corners and random points of the box: coordinate
        # differences this large put the weights at inf, and the solve once
        # exited 1 with "stored weight inf != recomputed inf".
        rng = random.Random(0)
        inst, res = tmp_path / "i.json", tmp_path / "r.json"
        xy = [[low, low], [high, high]] + [[rng.uniform(low, high), rng.uniform(low, high)] for _ in range(n - 2)]
        inst.write_text(json.dumps({"points": xy}))
        for alpha in ("120", "90", "180"):
            assert run("solve", "--in", str(inst), "--alpha", alpha, "--out", str(res)) == 2, alpha
            assert not res.exists()
            assert "overflows the float range" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [30, 100])
    def test_overflowing_distances_raise_no_numpy_warning(self, tmp_path, capsys, n):
        # Up to 64 points the EMST takes the full distance matrix, above it
        # the grid route; both once warned "overflow encountered in hypot".
        # A warning shows once per code location; "always" records each one.
        rng = random.Random(n)
        inst, res = tmp_path / "i.json", tmp_path / "r.json"
        inst.write_text(json.dumps({"points": [[rng.uniform(0.0, 1.7e308), rng.uniform(0.0, 1.7e308)]
                                               for _ in range(n)]}))
        for alpha in ("120", "90", "180"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run("solve", "--in", str(inst), "--alpha", alpha, "--out", str(res)) == 2, alpha
            assert [str(w.message) for w in caught] == []
            assert not res.exists()
            assert "overflows the float range" in capsys.readouterr().err

    def test_stdout_gets_the_file_bytes(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        res = tmp_path / "r.json"
        run("gen", "--generator", "uniform-square", "--n", "9", "--seed", "1", "--out", str(inst))
        assert run("solve", "--in", str(inst), "--alpha", "120", "--out", str(res)) == 0
        capsys.readouterr()
        for out in (["--out", "-"], []):
            assert run("solve", "--in", str(inst), "--alpha", "120", *out) == 0
            assert capsys.readouterr().out == res.read_text()


class TestConvert:
    def test_three_close_points(self, tmp_path):
        inst = tmp_path / "i.json"
        res = tmp_path / "r.json"
        inst.write_text('{"points": [[0, 0], [0.6, 0], [0.3, 0.5]]}')
        assert run("convert", "--in", str(inst), "--out", str(res)) == 0
        doc = parse_result(res.read_text())
        assert list(doc.summary) == [
            "alpha", "weight", "mst_weight", "ratio", "max_spread_deg", "hop_stretch",
            "max_edge_len",
        ]
        assert doc.summary["hop_stretch"] <= 2
        assert doc.summary["max_edge_len"] <= 7.0 + 1e-9

    def test_svg_draws_every_edge(self, tmp_path):
        inst = tmp_path / "i.json"
        res = tmp_path / "r.json"
        svg = tmp_path / "r.svg"
        inst.write_text('{"points": [[0, 0], [0.6, 0], [0.3, 0.5], [1.2, 0.1]]}')
        assert run("convert", "--in", str(inst), "--out", str(res), "--svg", str(svg)) == 0
        assert svg.read_text().count("<line") == len(parse_result(res.read_text()).edges) > 0

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


@pytest.mark.parametrize("command", [["solve", "--alpha", "120"], ["convert"]], ids=["solve", "convert"])
def test_writer_fault_exits_3_and_keeps_the_file(tmp_path, monkeypatch, capsys, command):
    inst, out = tmp_path / "i.json", tmp_path / "r.json"
    run("gen", "--generator", "uniform-square", "--n", "15", "--side", "1.2", "--seed", "1", "--out", str(inst))
    out.write_text("earlier bytes\n")
    builder = {"solve": "build_tree", "convert": "build_spanner"}[command[0]]
    real = getattr(cli, builder)

    def nan_bisector(*args):
        result = real(*args)
        rows = result.wedge_rows.copy()
        rows[0, 0] = math.nan
        return dataclasses.replace(result, wedge_rows=rows)

    monkeypatch.setattr(cli, builder, nan_bisector)
    capsys.readouterr()
    assert run(*command, "--in", str(inst), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err == "internal error: guarantee violated: wedges[0].bisector_deg is nan; wedge values must be finite\n"
    assert out.read_text() == "earlier bytes\n"


def test_each_command_scans_for_duplicates_once(tmp_path, monkeypatch):
    def instance(name, *gen_args):
        path = str(tmp_path / f"{name}.json")
        assert run("gen", "--generator", "uniform-square", *gen_args, "--out", path) == 0
        return path, str(tmp_path / f"{name}.out.json")

    tree = instance("tree", "--n", "80", "--seed", "3")
    net = instance("net", "--n", "15", "--side", "1.2", "--seed", "1")
    small = instance("small", "--n", "6", "--seed", "2")
    real = geom._scan_distinct
    scans = []
    monkeypatch.setattr(geom, "_scan_distinct", lambda points: scans.append(len(points)) or real(points))
    for argv, n in [
        (["solve", "--in", tree[0], "--alpha", "120", "--out", tree[1]], 80),
        (["verify", "--in", tree[0], "--result", tree[1]], 80),
        (["convert", "--in", net[0], "--out", net[1]], 15),
        (["verify", "--in", net[0], "--result", net[1]], 15),
        (["oracle", "--in", small[0], "--alpha", "120", "--out", small[1]], 6),
    ]:
        scans.clear()
        assert run(*argv) == 0
        assert scans == [n], argv


def test_main_reuses_its_parser_and_finds_handlers_when_called(tmp_path, monkeypatch):
    def no_parser():
        raise AssertionError("main built a parser")

    calls = []
    monkeypatch.setattr(cli, "_build_parser", no_parser)
    monkeypatch.setattr(cli, "cmd_oracle", lambda args: calls.append(args.alpha) or 0)
    inst = tmp_path / "i.json"
    assert run("gen", "--generator", "equilateral", "--out", str(inst)) == 0
    assert run("oracle", "--in", str(inst), "--alpha", "90") == 0
    assert calls == [90.0]


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


def test_verify_exit_codes_under_python_O(tmp_path):
    # README says the checks hold under ``python -O``; run the CLI that way.
    inst = tmp_path / "i.json"
    res = tmp_path / "r.json"
    run("gen", "--generator", "uniform-square", "--n", "12", "--seed", "5", "--out", str(inst))
    run("solve", "--in", str(inst), "--alpha", "120", "--out", str(res))
    obj = json.loads(res.read_text())
    tampered, malformed = tmp_path / "tampered.json", tmp_path / "malformed.json"
    obj["summary"]["weight"] *= 0.5
    tampered.write_text(json.dumps(obj))
    obj["edges"][0][0] = "0"
    malformed.write_text(json.dumps(obj))
    codes = {
        result.name: _cli_process("verify", "--in", str(inst), "--result", str(result), python_flags=["-O"])
        for result in (tampered, malformed)
    }
    assert codes == {"tampered.json": 1, "malformed.json": 2}


def test_input_defects_exit_without_a_traceback(tmp_path):
    inst, res, out = tmp_path / "i.json", tmp_path / "r.json", tmp_path / "g.json"
    run("gen", "--generator", "uniform-square", "--n", "12", "--seed", "5", "--out", str(inst))
    run("solve", "--in", str(inst), "--alpha", "120", "--out", str(res))
    obj = json.loads(res.read_text())
    obj["summary"]["ratio"] = 10**400
    res.write_text(json.dumps(obj))
    assert _cli_process("verify", "--in", str(inst), "--result", str(res)) == 1
    assert _cli_process("gen", "--generator", "collinear", "--n", "3", "--gap", "1e308", "--out", str(out)) == 2
    assert not out.exists()


def _cli_process(*argv, python_flags=()):
    """Exit status of ``python <python_flags> -m wedgespan.cli <argv>``, whose
    stderr must hold no traceback."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, *python_flags, "-m", "wedgespan.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert "Traceback" not in proc.stderr
    return proc.returncode


class TestVerify:
    _N12 = ("--generator", "uniform-square", "--n", "12", "--seed", "5")

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

    @pytest.mark.parametrize(
        "field, forge",
        [
            ("edges[0]", str),
            ("edges[0]", lambda u: u + 0.4),
            ("edges[0]", lambda u: True),
            ("wedges[0].bisector_deg", str),
            ("wedges[0].aperture_deg", lambda x: 10**400),
        ],
        ids=["string-index", "fractional-index", "true-index", "string-bisector", "huge-aperture"],
    )
    def test_malformed_value_is_an_input_error(self, tmp_path, capsys, field, forge):
        def edit(obj, points):
            if field == "edges[0]":
                obj["edges"][0][0] = forge(obj["edges"][0][0])
            else:
                key = field.split(".")[1]
                obj["wedges"][0][key] = forge(obj["wedges"][0][key])

        gen = ("--generator", "uniform-square", "--n", "12", "--seed", "5")
        assert self._tamper(tmp_path, gen, 120, edit) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    @pytest.mark.parametrize("nested", ["instance", "result"])
    def test_deeply_nested_file_is_an_input_error(self, tmp_path, capsys, nested):
        inst = tmp_path / "i.json"
        res = tmp_path / "r.json"
        run("gen", "--generator", "uniform-square", "--n", "12", "--seed", "5", "--out", str(inst))
        run("solve", "--in", str(inst), "--alpha", "120", "--out", str(res))
        (inst if nested == "instance" else res).write_text("[" * 100000)
        capsys.readouterr()
        assert run("verify", "--in", str(inst), "--result", str(res)) == 2
        assert capsys.readouterr().err == "error: JSON is nested too deeply\n"

    def test_huge_coordinate_is_an_input_error(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        res = tmp_path / "r.json"
        run("gen", "--generator", "uniform-square", "--n", "12", "--seed", "5", "--out", str(inst))
        run("solve", "--in", str(inst), "--alpha", "120", "--out", str(res))
        obj = json.loads(inst.read_text())
        obj["points"][0][0] = 10**400
        inst.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run("solve", "--in", str(inst), "--alpha", "120") == 2
        assert run("verify", "--in", str(inst), "--result", str(res)) == 2
        assert capsys.readouterr().err == "error: points[0]: coordinates must be finite\n" * 2

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

    @pytest.mark.parametrize(
        "key, value, gen, alpha",
        [
            ("weight", math.nan, _N12, 120),
            ("weight", True, _N12, 120),
            ("ratio", 10**400, _N12, 120),
            ("mst_weight", 10**400, _N12, 120),
            # Three collinear points have ratio 1.0, which true would equal.
            ("ratio", True, ("--generator", "collinear", "--n", "3"), 180),
        ],
        ids=["nan", "true", "huge-ratio", "huge-mst-weight", "collinear-true-ratio"],
    )
    def test_nan_weight_fails(self, tmp_path, capsys, key, value, gen, alpha):
        def edit(obj, points):
            obj["summary"][key] = value

        assert self._tamper(tmp_path, gen, alpha, edit) == 1
        assert capsys.readouterr().err == f"verification FAILED: summary.{key} is not a finite number\n"

    def test_mst_weight_above_tree_weight_fails(self, tmp_path, capsys):
        def edit(obj, points):
            obj["summary"]["mst_weight"] = obj["summary"]["weight"] * 1.01

        gen = ("--generator", "uniform-square", "--n", "12", "--seed", "5")
        assert self._tamper(tmp_path, gen, 120, edit) == 1
        assert "MST weight" in capsys.readouterr().err

    def test_halved_weight_reported_once(self, tmp_path, capsys):
        def edit(obj, points):
            assert obj["summary"]["weight"] == 6.54678506848
            obj["summary"]["weight"] /= 2.0

        gen = ("--generator", "uniform-square", "--n", "12", "--seed", "5")
        assert self._tamper(tmp_path, gen, 120, edit) == 1
        err = capsys.readouterr().err
        assert err.count("stored weight") == 1
        assert re.search(r"stored weight 3\.27339253424 != recomputed 6\.54678506847\d*", err)

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

    def test_ratio_off_in_tenth_digit_fails(self, tmp_path, capsys):
        def edit(obj, points):
            obj["summary"]["ratio"] *= 1.0 + 1e-9

        gen = ("--generator", "uniform-square", "--n", "12", "--seed", "5")
        assert self._tamper(tmp_path, gen, 120, edit) == 1
        assert "stored ratio" in capsys.readouterr().err

    def test_tree_widened_witnesses_fail(self, tmp_path, capsys):
        def edit(obj, points):
            for rec in obj["wedges"]:
                rec["aperture_deg"] = 360.0

        gen = ("--generator", "uniform-square", "--n", "24", "--seed", "2")
        assert self._tamper(tmp_path, gen, 120, edit) == 1
        assert "witness wedge 0 has aperture 360.0, not alpha 120.0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "second, alpha, bisectors, err",
        [
            # 1e20 and -1e20 are 280 and 80 degrees: the wedges face each other.
            ([0, -1], 120.0, [1e20, -1e20], ""),
            # 2**71 is 248 degrees: at alpha 180 the first wedge faces away from (1, 0).
            ([1, 0], 180.0, [2.0**71] * 2, "verification FAILED: edge (0,1) is not mutual under the witness wedges\n"),
        ],
        ids=["facing", "facing-away"],
    )
    def test_tree_bisectors_count_modulo_360(self, tmp_path, capsys, second, alpha, bisectors, err):
        inst = tmp_path / "i.json"
        res = tmp_path / "r.json"
        inst.write_text(json.dumps({"points": [[0, 0], second]}))
        summary = {"alpha": alpha, "weight": 1.0, "mst_weight": 1.0, "ratio": 1.0, "max_spread_deg": 0.0}
        res.write_text(json.dumps({
            "wedges": [{"bisector_deg": b, "aperture_deg": alpha} for b in bisectors],
            "edges": [[0, 1]],
            "summary": summary,
        }))
        assert run("verify", "--in", str(inst), "--result", str(res)) == (1 if err else 0)
        assert capsys.readouterr().err == err

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: verify trusts the stored mst_weight")
    def test_zigzag_with_forged_mst_weight_fails(self, tmp_path, capsys):
        # Ten collinear points and the alpha=180 path 0-9-1-8-...-5: every
        # spread is 0, but the tree weighs 45 against an EMST of 9, a ratio of
        # 5 against the bound 2, hidden by a stored mst_weight of 45.
        inst = tmp_path / "i.json"
        res = tmp_path / "r.json"
        inst.write_text(json.dumps({"points": [[i, 0] for i in range(10)]}))
        path = [0, 9, 1, 8, 2, 7, 3, 6, 4, 5]
        summary = {"alpha": 180.0, "weight": 45.0, "mst_weight": 45.0, "ratio": 1.0, "max_spread_deg": 0.0}
        res.write_text(json.dumps({
            "wedges": [{"bisector_deg": 90.0, "aperture_deg": 180.0}] * 10,
            "edges": [list(e) for e in zip(path, path[1:])],
            "summary": summary,
        }))
        assert run("verify", "--in", str(inst), "--result", str(res)) == 1
        assert "mst_weight" in capsys.readouterr().err

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: verify trusts the stored mst_weight")
    def test_mst_weight_off_in_tenth_digit_fails(self, tmp_path, capsys):
        def edit(obj, points):
            summary = obj["summary"]
            summary["mst_weight"] *= 1.0 + 1e-10
            summary["ratio"] = summary["weight"] / summary["mst_weight"]

        gen = ("--generator", "uniform-square", "--n", "12", "--seed", "5")
        assert self._tamper(tmp_path, gen, 120, edit) == 1
        assert "stored mst_weight" in capsys.readouterr().err

    @staticmethod
    def _tamper_network(tmp_path, instance, edit):
        """Convert an instance (coordinates, or ``gen`` arguments), let ``edit``
        change the result object, verify it."""
        inst = tmp_path / "i.json"
        res = tmp_path / "r.json"
        if isinstance(instance, tuple):
            assert run("gen", *instance, "--out", str(inst)) == 0
        else:
            inst.write_text(json.dumps({"points": instance}))
        assert run("convert", "--in", str(inst), "--out", str(res)) == 0
        assert run("verify", "--in", str(inst), "--result", str(res)) == 0
        points = parse_instance(inst.read_text()).points
        obj = json.loads(res.read_text())
        edit(obj, points)
        res.write_text(json.dumps(obj))
        return run("verify", "--in", str(inst), "--result", str(res))

    @staticmethod
    def _unit_disk_pairs(points):
        return [
            [u, v]
            for u in range(len(points))
            for v in range(u + 1, len(points))
            if points[u].distance_to(points[v]) <= 1.0
        ]

    @staticmethod
    def _hop_stretch(points, edges):
        """Most hops between the ends of a unit-disk pair over ``edges``, by a
        BFS per pair (pairs they leave unconnected are skipped)."""
        adjacency = [[] for _ in points]
        for u, v in edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        worst = 0
        for u, v in TestVerify._unit_disk_pairs(points):
            hops = {u: 0}
            queue = deque([u])
            while queue and v not in hops:
                x = queue.popleft()
                for y in adjacency[x]:
                    if y not in hops:
                        hops[y] = hops[x] + 1
                        queue.append(y)
            worst = max(worst, hops.get(v, 0))
        return worst

    @staticmethod
    def _set_network_edges(obj, points, edges):
        """Record ``edges`` with the summary values that go with them."""
        summary = obj["summary"]
        obj["edges"] = edges
        summary["weight"] = sum(points[u].distance_to(points[v]) for u, v in edges)
        summary["ratio"] = summary["weight"] / summary["mst_weight"]
        summary["max_spread_deg"] = angular_spread(points, edges)[0]
        summary["max_edge_len"] = max(points[u].distance_to(points[v]) for u, v in edges)
        summary["hop_stretch"] = TestVerify._hop_stretch(points, edges)

    _CHAIN = [[0, 0], [0.6, 0], [0.3, 0.5], [1.1, 0.2], [1.6, 0.7], [2.2, 0.4]]
    _N60 = ("--generator", "uniform-square", "--n", "60", "--side", "3.4", "--seed", "1")

    def test_network_forged_hop_stretch_fails(self, tmp_path, capsys):
        def edit(obj, points):
            assert obj["summary"]["hop_stretch"] == 4
            obj["summary"]["hop_stretch"] = 1

        assert self._tamper_network(tmp_path, self._N60, edit) == 1
        assert capsys.readouterr().err.endswith("stored hop_stretch 1 != recomputed 4\n")

    def test_network_forged_max_edge_len_fails(self, tmp_path, capsys):
        def edit(obj, points):
            obj["summary"]["max_edge_len"] = 0.5

        assert self._tamper_network(tmp_path, self._N60, edit) == 1
        assert "stored max_edge_len 0.5 != recomputed 3.83576723612" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [math.nan, True, 10**400], ids=["nan", "true", "huge"])
    def test_network_nan_hop_stretch_fails(self, tmp_path, capsys, value):
        def edit(obj, points):
            obj["summary"]["hop_stretch"] = value

        assert self._tamper_network(tmp_path, self._N60, edit) == 1
        assert "summary.hop_stretch is not a finite number" in capsys.readouterr().err

    def test_network_omnidirectional_fake_fails(self, tmp_path, capsys):
        # Full-circle antennas and the unit disk graph itself: every check
        # that does not fix the aperture at 120 holds.
        def edit(obj, points):
            for rec in obj["wedges"]:
                rec["aperture_deg"] = 360.0
            obj["summary"]["alpha"] = 360.0
            self._set_network_edges(obj, points, self._unit_disk_pairs(points))
            assert len(obj["edges"]) == 372 and obj["summary"]["hop_stretch"] == 1

        assert self._tamper_network(tmp_path, self._N60, edit) == 1
        err = capsys.readouterr().err
        assert "has aperture 360.0" in err and "stored alpha 360.0 != recomputed 120.0" in err
        assert re.search(r"vertex \d+ has spread 317\.\d+ > alpha 120\.0", err)

    def test_network_wide_long_wedges_fail(self, tmp_path, capsys):
        def edit(obj, points):
            for rec in obj["wedges"]:
                rec["aperture_deg"], rec["radius"] = 200.0, 100.0

        assert self._tamper_network(tmp_path, self._N60, edit) == 1
        err = capsys.readouterr().err
        assert "wedge 0 has aperture 200.0 and radius 100.0, not 120.0 and 7.0" in err

    def test_network_forged_mst_weight_fails(self, tmp_path, capsys):
        def edit(obj, points):
            summary = obj["summary"]
            summary["mst_weight"] *= 1.0 + 1e-9
            summary["ratio"] = summary["weight"] / summary["mst_weight"]

        assert self._tamper_network(tmp_path, self._CHAIN, edit) == 1
        assert "stored mst_weight" in capsys.readouterr().err

    def test_network_forged_max_spread_fails(self, tmp_path, capsys):
        def edit(obj, points):
            obj["summary"]["max_spread_deg"] -= 1.0

        assert self._tamper_network(tmp_path, self._CHAIN, edit) == 1
        assert "stored max_spread_deg" in capsys.readouterr().err

    @pytest.mark.parametrize("flip", [False, True], ids=["exact", "reversed"])
    def test_network_repeated_edge_fails(self, tmp_path, capsys, flip):
        repeated = []

        def edit(obj, points):
            u, v = obj["edges"][2]
            obj["edges"].append([v, u] if flip else [u, v])
            repeated.append((u, v))

        assert self._tamper_network(tmp_path, self._CHAIN, edit) == 1
        assert capsys.readouterr().err == "verification FAILED: edge {} is listed 2 times\n".format(
            "({},{})".format(*repeated[0])
        )

    def test_network_rotated_wedge_fails(self, tmp_path, capsys):
        def edit(obj, points):
            u, v = obj["edges"][0]
            obj["wedges"][u]["bisector_deg"] = (obj["wedges"][u]["bisector_deg"] + 180.0) % 360.0

        assert self._tamper_network(tmp_path, self._CHAIN, edit) == 1
        assert "is not mutual under the recorded wedges" in capsys.readouterr().err

    def test_network_bisectors_count_modulo_360(self, tmp_path, capsys):
        # 3e19 is 120 degrees, so no edge has both ends inside the wedges.
        missed = []

        def edit(obj, points):
            wedges = []
            for p, rec in zip(points, obj["wedges"]):
                rec["bisector_deg"] = 3e19
                wedges.append(Wedge(p, Direction(3e19), rec["aperture_deg"], rec["radius"]))
            missed.extend(
                f"edge ({u},{v}) is not mutual under the recorded wedges"
                for u, v in obj["edges"]
                if not (wedges[u].contains(points[v]) and wedges[v].contains(points[u]))
            )

        assert self._tamper_network(tmp_path, self._CHAIN, edit) == 1
        assert missed and capsys.readouterr().err == "verification FAILED: " + "; ".join(missed) + "\n"

    def test_network_edge_beyond_range_fails(self, tmp_path, capsys):
        # On a line of twelve unit-spaced points some pair more than 7 apart
        # faces each other; with both radii enlarged its edge is mutual.
        def edit(obj, points):
            wedges = parse_result(json.dumps(obj)).wedges.tolist()
            unbounded = [Wedge(p, Direction(bis), aperture) for p, (bis, aperture, _) in zip(points, wedges)]
            u, v = next(
                (u, v)
                for u in range(len(points))
                for v in range(u + 1, len(points))
                if points[u].distance_to(points[v]) > 7.0
                and unbounded[u].contains(points[v])
                and unbounded[v].contains(points[u])
            )
            obj["wedges"][u]["radius"] = obj["wedges"][v]["radius"] = 12.0
            self._set_network_edges(obj, points, sorted(obj["edges"] + [[u, v]]))

        assert self._tamper_network(tmp_path, [[x, 0] for x in range(12)], edit) == 1
        err = capsys.readouterr().err
        assert "exceeds range 7.0" in err and "not mutual" not in err and "stored" not in err

    def test_network_dropped_edge_fails_hop_cap(self, tmp_path, capsys):
        # Forty points 0.9 apart on a circle: the unit disk graph is the ring,
        # and without the network's edge (0,1) the detour takes 13 hops.
        n, radius = 40, 0.45 / math.sin(math.pi / 40)
        ring = [
            [round(radius * math.cos(2 * math.pi * k / n), 6), round(radius * math.sin(2 * math.pi * k / n), 6)]
            for k in range(n)
        ]

        def edit(obj, points):
            assert [0, 1] in obj["edges"]
            self._set_network_edges(obj, points, [e for e in obj["edges"] if e != [0, 1]])

        assert self._tamper_network(tmp_path, ring, edit) == 1
        err = capsys.readouterr().err
        assert "unit-disk edge (0,1) needs 13 hops > cap 6" in err and "stored" not in err


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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda obj: obj["edges"][0].__setitem__(0, 99), "error: edge (99,1) is out of range or a self-loop\n"),
            (lambda obj: obj["edges"][0].__setitem__(0, -1), "error: edge (-1,1) is out of range or a self-loop\n"),
            (lambda obj: obj["wedges"].pop(), "error: 4 points but 3 wedge records\n"),
            (lambda obj: obj["wedges"][0].__setitem__("aperture_deg", 400.0), "error: "),
        ],
        ids=["end-99", "end-minus-1", "missing-wedge", "aperture-400"],
    )
    def test_result_that_does_not_fit_the_instance_is_an_input_error(self, tmp_path, capsys, edit, message):
        inst = tmp_path / "i.json"
        res = tmp_path / "r.json"
        run("gen", "--generator", "collinear", "--n", "4", "--out", str(inst))
        run("solve", "--in", str(inst), "--alpha", "180", "--out", str(res))
        obj = json.loads(res.read_text())
        assert obj["edges"][0] == [0, 1]
        edit(obj)
        res.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run("render", "--in", str(inst), "--result", str(res), "--out", str(tmp_path / "p.svg")) == 2
        assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--generator", "uniform-square", "--n", "-1"],
        ["gen", "--generator", "collinear", "--n", "-2"],
        ["gen", "--generator", "clustered", "--n", "5", "--clusters", "0"],
        ["gen", "--generator", "uniform-square", "--n", "5", "--side", "nan"],
        ["gen", "--generator", "uniform-square", "--n", "5", "--side", "-1"],
        ["gen", "--generator", "clustered", "--n", "5", "--spread", "-1"],
        ["gen", "--generator", "hex-grid", "--rows", "0"],
        ["gen", "--generator", "square-grid-reduction", "--width", "0"],
        ["gen", "--generator", "uniform-square", "--n", "5", "--seed", "-1"],
        ["gen", "--generator", "clustered", "--n", "5", "--seed", "-1"],
        ["gen", "--generator", "collinear", "--n", "3", "--gap", "1e308"],
        ["gen", "--generator", "clustered", "--n", "5", "--spread", "1e308"],
        ["render", "--in", "EMPTY"],
        ["oracle", "--in", "EMPTY", "--alpha", "90"],
        ["oracle", "--in", "THREE", "--alpha", "nan"],
        ["oracle", "--in", "THREE", "--alpha", "inf"],
    ],
    ids=["n-minus-1", "collinear-n-minus-2", "clusters-0", "side-nan", "side-minus-1",
         "spread-minus-1", "rows-0", "width-0", "seed-minus-1", "clustered-seed-minus-1",
         "gap-overflow", "spread-overflow", "render-empty", "oracle-empty",
         "oracle-alpha-nan", "oracle-alpha-inf"],
)
def test_bad_parameters_and_empty_instances_exit_2(tmp_path, capsys, argv):
    files = {"EMPTY": "[]", "THREE": "[[0, 0], [1, 0], [0, 1]]"}
    for name, points in files.items():
        (tmp_path / name).write_text(f'{{"points": {points}}}')
    out = tmp_path / "out"
    assert run(*[str(tmp_path / a) if a in files else a for a in argv], "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
