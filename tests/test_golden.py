"""Golden-output regression test for the CLI's solve and convert paths.

Generates a small fixed corpus with ``wedgespan gen``, solves every instance
at each alpha and converts the unit-disk instances, then hashes the result
files. Outputs are canonicalised to 12 significant digits, so any change to
the chosen trees, wedges or edges changes the digest. The convert results
drop ``verification.runtime_stats``, which holds wall-clock timings.

When an intended output change lands, recompute the digest with this corpus
and record the change and the instances it affects.
"""

import contextlib
import hashlib
import io
import json

from wedgespan.cli import main

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


def _run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


def test_solve_and_convert_outputs_match_golden_digest(tmp_path):
    digest = hashlib.sha256()
    for name, gen_args in CORPUS:
        inst = tmp_path / f"{name}.json"
        assert _run("gen", *gen_args, "--out", inst) == 0
        for alpha in ALPHAS:
            out = tmp_path / f"{name}.solve{alpha}.json"
            assert _run("solve", "--in", inst, "--alpha", alpha, "--out", out) == 0, (name, alpha)
            digest.update(out.read_bytes())
        out = tmp_path / f"{name}.convert.json"
        assert _run("convert", "--in", inst, "--out", out) == 0, name
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
            out = tmp_path / f"{name}.solve{alpha}.json"
            assert _run("solve", "--in", inst, "--alpha", alpha, "--out", out) == 0, (name, alpha)
            digest.update(out.read_bytes())
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
            out = tmp_path / f"{name}.solve{alpha}.json"
            assert _run("solve", "--in", inst, "--alpha", alpha, "--out", out) == 0, (name, alpha)
            digest.update(out.read_bytes())
    assert digest.hexdigest() == MID_GOLDEN_SHA256
