"""The benchmark's layer map still resolves: every function ``bench/run.py``
traces exists in the package and is reached by the CLI commands the
benchmark runs, so a traced benchmark run cannot fail its layer self-test."""

import importlib.util
import sys
from pathlib import Path

import pytest

from wedgespan.approx import build_tree
from wedgespan.cli import main
from wedgespan.generators import uniform_square
from wedgespan.io import Instance, emit_instance, parse_instance

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name, monkeypatch):
    """Import ``bench/<name>.py`` (its dataclasses look their module up in
    ``sys.modules``, so it is registered there for the test)."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_has_calls(tmp_path, monkeypatch):
    layers = _load("run", monkeypatch).LAYERS
    tracer = _load("spans", monkeypatch).Tracer("wedgespan", list(layers))

    def files(name):
        return str(tmp_path / f"{name}.json"), str(tmp_path / f"{name}.out.json")

    tree, net, small = files("tree"), files("net"), files("small")
    tracer.install()
    try:
        codes = [
            main(["gen", "--generator", "uniform-square", "--n", "24", "--seed", "3", "--out", tree[0]]),
            main(["gen", "--generator", "uniform-square", "--n", "15", "--side", "1.2", "--seed", "1",
                  "--out", net[0]]),
            main(["gen", "--generator", "uniform-square", "--n", "6", "--seed", "2", "--out", small[0]]),
        ]
        for alpha in ("90", "120"):
            codes.append(main(["solve", "--in", tree[0], "--alpha", alpha, "--out", tree[1]]))
            codes.append(main(["verify", "--in", tree[0], "--result", tree[1]]))
        codes.append(main(["convert", "--in", net[0], "--out", net[1]]))
        codes.append(main(["verify", "--in", net[0], "--result", net[1]]))
        codes.append(main(["oracle", "--in", small[0], "--alpha", "120", "--out", small[1]]))
    finally:
        tracer.uninstall()
    assert codes == [0] * len(codes)
    assert tracer.missing == []
    calls, _ = tracer.take()
    assert [key for key, count in calls.items() if count == 0] == []


def test_one_triplet_pass_per_solve_and_convert(tmp_path, monkeypatch):
    # Every triplet of an alpha 120 solve, and every size-3 component of a
    # convert, is oriented in one orient_triplet call.
    tracer = _load("spans", monkeypatch).Tracer("wedgespan", ["gadget.orient_triplet"])
    tree, net = str(tmp_path / "tree.json"), str(tmp_path / "net.json")
    assert main(["gen", "--generator", "uniform-square", "--n", "301", "--seed", "3", "--out", tree]) == 0
    assert main(["gen", "--generator", "uniform-square", "--n", "300", "--side", str(60**0.5), "--seed", "1",
                 "--out", net]) == 0
    counts = []
    for argv in (["solve", "--in", tree, "--alpha", "120"], ["convert", "--in", net]):
        tracer.install()
        try:
            assert main([*argv, "--out", str(tmp_path / "out.json")]) == 0
        finally:
            tracer.uninstall()
        counts.append(tracer.take()[0]["gadget.orient_triplet"])
    assert counts == [1, 1]


def test_one_cross_edge_pass_per_alpha_120_solve(tmp_path, monkeypatch):
    # Every pair of consecutive triplets is searched in one cross_edge call.
    tracer = _load("spans", monkeypatch).Tracer("wedgespan", ["graph.cross_edge"])
    tree = str(tmp_path / "tree.json")
    assert main(["gen", "--generator", "uniform-square", "--n", "4800", "--seed", "1000", "--out", tree]) == 0
    tracer.install()
    try:
        assert main(["solve", "--in", tree, "--alpha", "120", "--out", str(tmp_path / "out.json")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.take()[0]["graph.cross_edge"] == 1


@pytest.mark.parametrize("alpha", [120, 180])
@pytest.mark.parametrize("n", [4800, 4801])
def test_build_tree_leaves_the_point_list_unbuilt(n, alpha):
    # At n = 4801 the 120 build aims a leftover too; none of the steps reads
    # a Point of the parsed instance.
    points = parse_instance(emit_instance(Instance(points=uniform_square(n, seed=0), meta={}))).points
    assert points._points is None
    build_tree(points, alpha)
    assert points._points is None
