"""Command-line surface: gen | solve | convert | verify | oracle | render."""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import generators
from .approx import build_tree, check_alpha_tree, verify_alpha_tree
from .errors import GuaranteeViolation, WedgespanError
from .geom import ANGLE_TOL_DEG, bad_wedge_rows, column_wedge, coordinates, edge_array
from .graph import CommGraph, edge_lengths, euclidean_mst, non_mutual_edges, unit_disk_graph
from .io import (
    Instance,
    ResultDoc,
    emit_instance,
    emit_result,
    emit_svg,
    finite_numbers,
    parse_instance,
    parse_result,
    round_sig,
    wedge_value_fault,
)
from .oracle import brute_force_alpha_mst
from .spanner import SPANNER_APERTURE, SPANNER_HOPS, SPANNER_RANGE, build_spanner, check_spanner


def _write(content: Union[str, ResultDoc], path: Optional[str]) -> None:
    """Write text, or a result document in chunks, to the file at ``path`` (stdout for None or "-").

    A result's wedges come from a solver, so a ``wedge_value_fault`` is a
    broken guarantee; it is raised before the file is opened, which keeps
    its bytes.
    """
    if isinstance(content, ResultDoc) and (fault := wedge_value_fault(content.wedges)):
        raise GuaranteeViolation(fault)
    with contextlib.nullcontext(sys.stdout) if path is None or path == "-" else open(path, "w") as out:
        if isinstance(content, ResultDoc):
            emit_result(content, out)
        else:
            out.write(content)


def _read_instance(path: str) -> Instance:
    return parse_instance(Path(path).read_text())


def cmd_gen(args: argparse.Namespace) -> int:
    name = args.generator
    params = {k: getattr(args, k) for k in generators._GENERATORS[name][1]}
    if "n" in params and params["n"] is None:
        raise WedgespanError(f"generator {name!r} requires --n")
    points = generators.generate(name, **params)
    meta = {"generator": name, "params": {k: v for k, v in params.items() if k != "n"}}
    if "n" in params:
        meta["n"] = params["n"]
    instance = Instance(points=points, meta=meta)
    _write(emit_instance(instance, fmt=args.format), args.out)
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    instance = _read_instance(args.input)
    points = instance.points
    if len(points) < 2:
        raise WedgespanError("solve requires at least two points")
    result = build_tree(points, float(args.alpha))
    report = verify_alpha_tree(points, result)
    verification = dict(vars(report))  # its fields, all flat values
    _write(ResultDoc(result.wedge_rows, result.tree.edges, report.summary, verification), args.out)
    if args.svg:
        _write(emit_svg(points, result.wedge_rows, result.tree.edges), args.svg)
    if not report.passed:
        print("verification FAILED: " + "; ".join(report.failures), file=sys.stderr)
        return 1
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    instance = _read_instance(args.input)
    points = instance.points
    result = build_spanner(points)
    edges = np.column_stack((result.graph.u, result.graph.v))
    verification = {"hop_cap": SPANNER_HOPS, "range": SPANNER_RANGE, "runtime_stats": result.runtime_stats}
    _write(ResultDoc(result.wedge_rows, edges, result.summary, verification), args.out)
    if args.svg:
        _write(emit_svg(points, result.wedge_rows, edges), args.svg)
    return 0


# Output floats carry 12 significant digits (``round_sig``), within 5e-12 of
# themselves. A tree's ratio is recomputed from the rounded ``mst_weight``,
# so a stored value and its fresh one may lie two such roundings apart.
_SUMMARY_REL_TOL = 2e-11


def _wedge_failure(points, wedges: np.ndarray) -> Optional[str]:
    """Why the wedge records do not give the points their wedges (a count
    mismatch, or the first of the ``bad_wedge_rows``), or None."""
    if len(wedges) != len(points):
        return f"{len(points)} points but {len(wedges)} wedge records"
    try:
        for k in bad_wedge_rows(wedges)[:1].tolist():
            column_wedge(points[k], *wedges[k].tolist())
    except ValueError as exc:
        return str(exc)
    return None


def _antenna_failures(points, wedges: np.ndarray, edges) -> list[str]:
    """Failures of a network's recorded wedges: their shape, and mutual edges."""
    failures = []
    _, aperture, radius = wedges.T
    off = (np.abs(aperture - SPANNER_APERTURE) > ANGLE_TOL_DEG) | (radius != SPANNER_RANGE)
    for k in off.nonzero()[0][:1].tolist():
        w = column_wedge(points[k], *wedges[k].tolist())
        failures.append(
            f"wedge {k} has aperture {w.aperture_deg} and radius {w.radius}, "
            f"not {SPANNER_APERTURE} and {SPANNER_RANGE}"
        )
    failures += [
        f"edge ({u},{v}) is not mutual under the recorded wedges"
        for u, v in non_mutual_edges(points, wedges, edges)
    ]
    return failures


def _edge_range_failures(edges, n: int) -> list[str]:
    """A failure for each edge that is a self-loop or has an end outside 0..n-1."""
    return [
        f"edge ({u},{v}) is out of range or a self-loop"
        for u, v in edges
        if u == v or not (0 <= u < n and 0 <= v < n)
    ]


def cmd_verify(args: argparse.Namespace) -> int:
    instance = _read_instance(args.input)
    points = instance.points
    n = len(points)
    doc = parse_result(Path(args.result).read_text())
    stored = doc.summary
    network = "hop_stretch" in stored
    failures = _edge_range_failures(doc.edges, n)
    if wedge_failure := _wedge_failure(points, doc.wedges):
        failures.append(wedge_failure)
    if not network:
        # The tree checker takes these two as given.
        failures += [
            f"summary.{k} is not a finite number"
            for k in ("alpha", "mst_weight")
            if finite_numbers([stored.get(k)]) is None
        ]
    if not failures:
        if network:
            failures = _antenna_failures(points, doc.wedges, doc.edges)
            repeats = Counter((u, v) if u < v else (v, u) for u, v in doc.edges)
            failures += [f"edge ({u},{v}) is listed {k} times" for (u, v), k in repeats.items() if k > 1]
            u, v = edge_array(sorted(repeats)).T
            graph = CommGraph(n, u, v, edge_lengths(coordinates(points), u, v))
            more, fresh = check_spanner(points, graph, unit_disk_graph(points))
            failures += more
        else:
            # The ratio is checked against the stored MST weight: a fresh
            # EMST would about double the check's time.
            report = check_alpha_tree(points, stored["alpha"], doc.edges, doc.wedges, stored["mst_weight"])
            failures = list(report.failures)
            fresh = report.summary
        for k, x in fresh.items():
            if finite_numbers([stored.get(k)]) is None:
                failures.append(f"summary.{k} is not a finite number")
            elif not abs(stored[k] - x) <= _SUMMARY_REL_TOL * abs(x):
                failures.append(f"stored {k} {stored[k]} != recomputed {x}")
    if failures:
        print("verification FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("verification passed")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    instance = _read_instance(args.input)
    points = instance.points
    tree = brute_force_alpha_mst(points, float(args.alpha))
    mst_weight = euclidean_mst(points).weight
    payload: dict = {"alpha": float(args.alpha), "mst_weight": round_sig(mst_weight)}
    if tree is None:
        payload["exists"] = False
        print(f"no alpha-ST exists for alpha={args.alpha}")
    else:
        payload["exists"] = True
        payload["weight"] = round_sig(tree.weight)
        payload["ratio"] = round_sig(tree.weight / mst_weight) if mst_weight > 0 else 1.0
        payload["edges"] = [[u, v] for u, v in tree.edges]
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    instance = _read_instance(args.input)
    points = instance.points
    wedges = edges = None
    if args.result:
        doc = parse_result(Path(args.result).read_text())
        edges = doc.edges
        if failures := _edge_range_failures(edges, len(points)):
            raise WedgespanError(failures[0])
        if failure := _wedge_failure(points, doc.wedges):
            raise WedgespanError(failure)
        wedges = doc.wedges
    _write(emit_svg(points, wedges, edges), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wedgespan",
        description="Angle-bounded spanning trees and directional-antenna hop spanners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--generator", required=True, choices=generators.GENERATOR_NAMES)
    gen.add_argument("--n", type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--side", type=float, default=1.0)
    gen.add_argument("--clusters", type=int, default=3)
    gen.add_argument("--spread", type=float, default=0.05)
    gen.add_argument("--gap", type=float, default=1.0)
    gen.add_argument("--width", type=int, default=2)
    gen.add_argument("--height", type=int, default=3)
    gen.add_argument("--rows", type=int, default=1)
    gen.add_argument("--format", choices=("json", "csv"), default="json")
    gen.add_argument("--out", default=None)

    solve = sub.add_parser("solve", help="build and verify an angle-bounded spanning tree")
    solve.add_argument("--in", dest="input", required=True)
    solve.add_argument("--alpha", type=int, required=True, choices=(90, 120, 180))
    solve.add_argument("--out", default=None)
    solve.add_argument("--svg", default=None)

    convert = sub.add_parser("convert", help="convert omni radios to 120-degree antennas")
    convert.add_argument("--in", dest="input", required=True)
    convert.add_argument("--out", default=None)
    convert.add_argument("--svg", default=None)

    verify = sub.add_parser("verify", help="re-check a result file against its instance")
    verify.add_argument("--in", dest="input", required=True)
    verify.add_argument("--result", required=True)

    oracle = sub.add_parser("oracle", help="exhaustive angle-bounded MST (n <= 8)")
    oracle.add_argument("--in", dest="input", required=True)
    oracle.add_argument("--alpha", type=float, required=True)
    oracle.add_argument("--out", default=None)

    render = sub.add_parser("render", help="draw an instance (and optional result) as SVG")
    render.add_argument("--in", dest="input", required=True)
    render.add_argument("--result", default=None)
    render.add_argument("--out", default=None)

    return parser


_PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # Found by name when called, so a rebound ``cmd_*`` is the one run.
        return globals()["cmd_" + args.command](args)
    except GuaranteeViolation as exc:
        print(f"internal error: guarantee violated: {exc}", file=sys.stderr)
        return 3
    except (WedgespanError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
