"""Command-line surface: gen | solve | convert | verify | oracle | render."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import generators
from .approx import build_tree, check_alpha_tree, verify_alpha_tree
from .errors import GuaranteeViolation, WedgespanError
from .geom import ANGLE_TOL_DEG, max_spread
from .graph import CommGraph, euclidean_mst, unit_disk_graph
from .io import (
    Instance,
    ResultDoc,
    WedgeRecord,
    emit_instance,
    emit_result,
    emit_svg,
    parse_instance,
    parse_result,
    round_sig,
)
from .oracle import brute_force_alpha_mst
from .spanner import SPANNER_HOPS, SPANNER_RANGE, build_spanner, verify_hop_spanner


def _write(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _read_instance(path: str, duplicates: str = "reject") -> Instance:
    return parse_instance(Path(path).read_text(), duplicates=duplicates)


def cmd_gen(args: argparse.Namespace) -> int:
    params: dict = {}
    name = args.generator
    if name in ("uniform-square", "clustered", "collinear"):
        if args.n is None:
            raise WedgespanError(f"generator {name!r} requires --n")
        params["n"] = args.n
    if name in ("uniform-square", "clustered"):
        params["seed"] = args.seed
        params["side"] = args.side
    if name == "clustered":
        params["clusters"] = args.clusters
        params["spread"] = args.spread
    if name == "collinear":
        params["gap"] = args.gap
    if name in ("equilateral", "equilateral-center"):
        params["side"] = args.side
    if name == "square-grid-reduction":
        params["width"] = args.width
        params["height"] = args.height
    if name == "hex-grid":
        params["rows"] = args.rows
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
    doc = ResultDoc(
        wedges=[WedgeRecord.from_wedge(w) for w in result.wedges],
        edges=list(result.tree.edges),
        summary={
            "alpha": result.alpha_deg,
            "weight": result.tree.weight,
            "mst_weight": result.mst_weight,
            "ratio": report.ratio,
            "max_spread_deg": report.max_spread_deg,
        },
        verification=report.to_dict(),
    )
    _write(emit_result(doc), args.out)
    if args.svg:
        _write(emit_svg(points, result.wedges, result.tree.edges), args.svg)
    if not report.passed:
        print("verification FAILED: " + "; ".join(report.failures), file=sys.stderr)
        return 1
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    instance = _read_instance(args.input)
    points = instance.points
    result = build_spanner(points)
    weight = sum(w for _, _, w in result.graph.edges())
    mst_weight = euclidean_mst(points).weight
    edges = [(u, v) for u, v, _ in result.graph.edges()]
    doc = ResultDoc(
        wedges=[WedgeRecord.from_wedge(w) for w in result.wedges],
        edges=edges,
        summary={
            "alpha": 120.0,
            "weight": weight,
            "mst_weight": mst_weight,
            "ratio": weight / mst_weight if mst_weight > 0 else 1.0,
            "max_spread_deg": max_spread(points, edges)[0],
            "hop_stretch": result.hop_stretch,
            "max_edge_len": result.max_edge_length,
        },
        verification={
            "hop_cap": SPANNER_HOPS,
            "range": SPANNER_RANGE,
            "runtime_stats": result.runtime_stats,
        },
    )
    _write(emit_result(doc), args.out)
    if args.svg:
        _write(emit_svg(points, result.wedges, edges), args.svg)
    return 0


def _network_failures(points, wedges, edges, alpha: float, stored_weight: float) -> list[str]:
    failures = []
    for u, v in edges:
        if not (wedges[u].contains(points[v]) and wedges[v].contains(points[u])):
            failures.append(f"edge ({u},{v}) is not mutual under the recorded wedges")
    weight = sum(points[u].distance_to(points[v]) for u, v in edges)
    if abs(weight - stored_weight) > 1e-8 * max(1.0, weight):
        failures.append(f"stored weight {stored_weight} != recomputed {round_sig(weight)}")
    spread, worst = max_spread(points, edges)
    if spread > alpha + ANGLE_TOL_DEG:
        failures.append(f"vertex {worst} has spread {spread} > alpha {alpha}")
    g = CommGraph(len(points))
    for u, v in edges:
        g.add_edge(u, v, points[u].distance_to(points[v]))
    failures.extend(verify_hop_spanner(g, unit_disk_graph(points), SPANNER_HOPS).failures)
    max_len = max((points[u].distance_to(points[v]) for u, v in edges), default=0.0)
    if max_len > SPANNER_RANGE * (1.0 + 1e-9):
        failures.append(f"edge of length {max_len} exceeds range {SPANNER_RANGE}")
    return failures


def cmd_verify(args: argparse.Namespace) -> int:
    instance = _read_instance(args.input)
    points = instance.points
    n = len(points)
    doc = parse_result(Path(args.result).read_text())
    network = "hop_stretch" in doc.summary
    failures = [
        f"edge ({u},{v}) is out of range or a self-loop"
        for u, v in doc.edges
        if u == v or not (0 <= u < n and 0 <= v < n)
    ]
    try:
        wedges = doc.wedges_at(points)
    except ValueError as exc:
        failures.append(str(exc))
    keys = ("alpha", "weight") if network else ("alpha", "weight", "mst_weight")
    stored = {k: doc.summary.get(k) for k in keys}
    failures += [
        f"summary.{k} is not a number" for k, x in stored.items() if not isinstance(x, (int, float))
    ]
    if not failures:
        if network:
            failures = _network_failures(
                points, wedges, doc.edges, stored["alpha"], stored["weight"]
            )
        else:
            # The ratio is checked against the stored MST weight: a fresh
            # dense EMST would cost several times the rest of the check.
            report = check_alpha_tree(
                points, stored["alpha"], doc.edges, wedges, stored["weight"], stored["mst_weight"]
            )
            failures = list(report.failures)
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
    wedges = None
    edges = None
    if args.result:
        doc = parse_result(Path(args.result).read_text())
        wedges = doc.wedges_at(points)
        edges = doc.edges
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
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="build and verify an angle-bounded spanning tree")
    solve.add_argument("--in", dest="input", required=True)
    solve.add_argument("--alpha", type=int, required=True, choices=(90, 120, 180))
    solve.add_argument("--out", default=None)
    solve.add_argument("--svg", default=None)
    solve.set_defaults(func=cmd_solve)

    convert = sub.add_parser("convert", help="convert omni radios to 120-degree antennas")
    convert.add_argument("--in", dest="input", required=True)
    convert.add_argument("--out", default=None)
    convert.add_argument("--svg", default=None)
    convert.set_defaults(func=cmd_convert)

    verify = sub.add_parser("verify", help="re-check a result file against its instance")
    verify.add_argument("--in", dest="input", required=True)
    verify.add_argument("--result", required=True)
    verify.set_defaults(func=cmd_verify)

    oracle = sub.add_parser("oracle", help="exhaustive angle-bounded MST (n <= 8)")
    oracle.add_argument("--in", dest="input", required=True)
    oracle.add_argument("--alpha", type=float, required=True)
    oracle.add_argument("--out", default=None)
    oracle.set_defaults(func=cmd_oracle)

    render = sub.add_parser("render", help="draw an instance (and optional result) as SVG")
    render.add_argument("--in", dest="input", required=True)
    render.add_argument("--result", default=None)
    render.add_argument("--out", default=None)
    render.set_defaults(func=cmd_render)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GuaranteeViolation as exc:
        print(f"internal error: guarantee violated: {exc}", file=sys.stderr)
        return 3
    except (WedgespanError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
