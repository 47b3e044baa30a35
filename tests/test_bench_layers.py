"""The benchmark's layer map still resolves: every function ``bench/run.py``
traces exists in the package and is reached by the CLI commands the
benchmark runs, so a traced benchmark run cannot fail its layer self-test."""

import importlib.util
import sys
from pathlib import Path

from wedgespan.cli import main

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
