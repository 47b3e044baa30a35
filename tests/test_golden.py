"""Golden-output regression test for the CLI's solve and convert paths.

Generates a small fixed corpus with ``wedgespan gen``, solves every instance
at each alpha and converts the unit-disk instances, then hashes the result
files. Outputs are canonicalised to 12 significant digits, so any change to
the chosen trees, wedges or edges changes the digest. The convert results
drop ``verification.runtime_stats``, which holds wall-clock timings. Every
hashed result must also pass ``wedgespan verify``, which re-checks its stored
summary values.

When an intended output change lands, recompute the digest with this corpus
and record the change and the instances it affects.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wedgespan import cli
from wedgespan.cli import main
from wedgespan.io import emit_instance, emit_result

from reference import emit_instance_json, emit_result_json

# (name, gen arguments); every instance has a connected unit disk graph.
CORPUS = [
    ("uniform-12", ["--generator", "uniform-square", "--n", "12", "--seed", "0"]),
    ("uniform-60", ["--generator", "uniform-square", "--n", "60", "--seed", "3",
                    "--side", "3.0"]),
    ("clustered-40", ["--generator", "clustered", "--n", "40", "--seed", "1",
                      "--clusters", "4", "--spread", "0.3", "--side", "1.5"]),
    ("collinear-20", ["--generator", "collinear", "--n", "20"]),
    ("hex-grid-22", ["--generator", "hex-grid", "--rows", "5"]),
]
ALPHAS = ("90", "120", "180")

GOLDEN_SHA256 = "07a8bd218ddfd0c6dda94b4d9b8b31cdea5d34d4b8ea4faedb4c7596ac4c3375"


@pytest.fixture(autouse=True)
def writer_matches_json_dumps(monkeypatch):
    """Every instance and result the corpora write must be json.dumps(indent=2)'s
    bytes for the same document (``tests/reference.py``); convert results keep
    their runtime_stats here."""

    def checked_instance(instance, *, fmt):
        text = emit_instance(instance, fmt=fmt)
        assert fmt != "json" or text == emit_instance_json(instance)
        return text

    def checked_result(doc, out):
        assert emit_result(doc) == emit_result_json(doc)
        emit_result(doc, out)

    monkeypatch.setattr(cli, "emit_instance", checked_instance)
    monkeypatch.setattr(cli, "emit_result", checked_result)


def _run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


def _solve(inst, alpha, out):
    """Solve, verify the result, and return its bytes."""
    assert _run("solve", "--in", inst, "--alpha", alpha, "--out", out) == 0, (inst.name, alpha)
    assert _run("verify", "--in", inst, "--result", out) == 0, (inst.name, alpha)
    return out.read_bytes()


def test_solve_and_convert_outputs_match_golden_digest(tmp_path):
    digest = hashlib.sha256()
    for name, gen_args in CORPUS:
        inst = tmp_path / f"{name}.json"
        assert _run("gen", *gen_args, "--out", inst) == 0
        for alpha in ALPHAS:
            digest.update(_solve(inst, alpha, tmp_path / f"{name}.solve{alpha}.json"))
        out = tmp_path / f"{name}.convert.json"
        assert _run("convert", "--in", inst, "--out", out) == 0, name
        assert _run("verify", "--in", inst, "--result", out) == 0, name
        doc = json.loads(out.read_text())
        del doc["verification"]["runtime_stats"]
        digest.update(json.dumps(doc, indent=2, sort_keys=True).encode())
    assert digest.hexdigest() == GOLDEN_SHA256


# Tie-heavy point sets: equal edge lengths everywhere, so the MST, its tour
# and every gadget choice hinge on tie-breaking rules.
TIE_CORPUS = [
    ("hex-grid-62", ["--generator", "hex-grid", "--rows", "15"]),
    ("square-grid-5x5", ["--generator", "square-grid-reduction", "--width", "5",
                         "--height", "5"]),
    ("collinear-64", ["--generator", "collinear", "--n", "64"]),
]

TIE_GOLDEN_SHA256 = "b6e214c6f8514188a50aedeec1fd5c89dd472093e7a9ce99e95dd78b644e9da6"


def test_tie_heavy_solve_outputs_match_golden_digest(tmp_path):
    digest = hashlib.sha256()
    for name, gen_args in TIE_CORPUS:
        inst = tmp_path / f"{name}.json"
        assert _run("gen", *gen_args, "--out", inst) == 0
        for alpha in ALPHAS:
            digest.update(_solve(inst, alpha, tmp_path / f"{name}.solve{alpha}.json"))
    assert digest.hexdigest() == TIE_GOLDEN_SHA256


# Mid-size inputs: hundreds of triplet and quadruplet gadgets per solve, so
# every cross-edge and gadget-edge search of the builders shows in the bytes.
MID_CORPUS = [
    ("uniform-600", ["--generator", "uniform-square", "--n", "600", "--seed", "5",
                     "--side", "11.0"]),
    ("clustered-600", ["--generator", "clustered", "--n", "600", "--seed", "2",
                       "--clusters", "6", "--spread", "0.4", "--side", "8.0"]),
    ("hex-grid-598", ["--generator", "hex-grid", "--rows", "149"]),
]

MID_GOLDEN_SHA256 = "2fc997c47c80396faf14b3d49536133f5ac0e93e86e9ae046a771b9b382907e2"


def test_mid_size_solve_outputs_match_golden_digest(tmp_path):
    digest = hashlib.sha256()
    for name, gen_args in MID_CORPUS:
        inst = tmp_path / f"{name}.json"
        assert _run("gen", *gen_args, "--out", inst) == 0
        for alpha in ("90", "120"):
            digest.update(_solve(inst, alpha, tmp_path / f"{name}.solve{alpha}.json"))
    assert digest.hexdigest() == MID_GOLDEN_SHA256


# Small inputs: the pair tree at n = 2, the alpha=90 star at n = 3, the single
# quadruplet with leftovers at n = 4..7, and one or two gadget groups with
# leftovers at every alpha. The other corpora start at n = 12.
SMALL_CORPUS = [
    (f"{gen}-{n}", ["--generator", gen, "--n", str(n)] + extra)
    for gen, extra in (
        ("uniform-square", ["--seed", "7"]),
        ("collinear", []),
        ("clustered", ["--seed", "2", "--clusters", "2", "--spread", "0.2"]),
    )
    for n in range(2, 10)
]

SMALL_GOLDEN_SHA256 = "12af41fc1be92544de2109351ede60f6799ee103253552cff9e9a897e3294046"


def test_small_n_solve_outputs_match_golden_digest(tmp_path):
    digest = hashlib.sha256()
    for name, gen_args in SMALL_CORPUS:
        inst = tmp_path / f"{name}.json"
        assert _run("gen", *gen_args, "--out", inst) == 0
        for alpha in ALPHAS:
            digest.update(_solve(inst, alpha, tmp_path / f"{name}.solve{alpha}.json"))
    assert digest.hexdigest() == SMALL_GOLDEN_SHA256


# A uniform instance above graph.ALL_PAIRS_N: euclidean_mst takes its
# grid-pair path here, which the corpora above (at most 64 points each)
# never reach. Side sqrt(60) puts about 16 points
# in each unit disk; the unit disk graph is connected.
ABOVE_ALL_PAIRS = ["--generator", "uniform-square", "--n", "300", "--seed", "0",
                   "--side", str(math.sqrt(60))]

ABOVE_ALL_PAIRS_SHA256 = "9d9e0a5ca3f3276db4efd4e7323c573c18a2af40091791c5586125128979236c"


def test_above_all_pairs_outputs_match_golden_digest(tmp_path):
    digest = hashlib.sha256()
    inst = tmp_path / "uniform-300.json"
    assert _run("gen", *ABOVE_ALL_PAIRS, "--out", inst) == 0
    for alpha in ALPHAS:
        digest.update(_solve(inst, alpha, tmp_path / f"uniform-300.solve{alpha}.json"))
    out = tmp_path / "uniform-300.convert.json"
    assert _run("convert", "--in", inst, "--out", out) == 0
    assert _run("verify", "--in", inst, "--result", out) == 0
    doc = json.loads(out.read_text())
    del doc["verification"]["runtime_stats"]
    digest.update(json.dumps(doc, indent=2, sort_keys=True).encode())
    assert digest.hexdigest() == ABOVE_ALL_PAIRS_SHA256


# Clustered points above graph.ALL_PAIRS_N whose pairs within euclidean_mst's
# radius leave several components apart: its Borůvka route joins them with
# Prim steps over the full distances.
CLUSTERED_300 = ["--generator", "clustered", "--n", "300", "--seed", "0"]

CLUSTERED_300_SHA256 = "a5b8a3b4aa1748741f0571072a81f21e812aae0cfb560d899fd02a2272b87217"


def test_clustered_above_all_pairs_solve_outputs_match_golden_digest(tmp_path):
    digest = hashlib.sha256()
    inst = tmp_path / "clustered-300.json"
    assert _run("gen", *CLUSTERED_300, "--out", inst) == 0
    for alpha in ALPHAS:
        digest.update(_solve(inst, alpha, tmp_path / f"clustered-300.solve{alpha}.json"))
    assert digest.hexdigest() == CLUSTERED_300_SHA256


def test_clustered_above_all_pairs_solve_is_the_same_under_python_O(tmp_path):
    # The guarantees the solvers check must not rest on assert statements.
    inst = tmp_path / "clustered-300.json"
    assert _run("gen", *CLUSTERED_300, "--out", inst) == 0
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for alpha in ALPHAS:
        plain, optimised = tmp_path / f"plain{alpha}.json", tmp_path / f"optimised{alpha}.json"
        assert _run("solve", "--in", inst, "--alpha", alpha, "--out", plain) == 0
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "wedgespan.cli", "solve", "--in", str(inst), "--alpha", alpha,
             "--out", str(optimised)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert optimised.read_bytes() == plain.read_bytes()
