"""Instance and result serialization: JSON, CSV, and SVG rendering.

All emitted numbers are canonicalized to 12 significant digits, which makes
serialization byte-stable across runs and keeps parse-emit round trips exact
on canonical documents.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, TextIO

import numpy as np

from .errors import InstanceParseError, TooFewPointsError
from .geom import Edges, Point, PointArray, PointSet, column_wedge, coordinates

_SIG_SPEC = ".12g"


def round_sig(x: float) -> float:
    return float(format(x, _SIG_SPEC))


def _sig_repr(x: float) -> str:
    """``repr(round_sig(x))``. A ``format(x, ".12g")`` text with a "." and no "e" is that repr: no
    two decimals of at most 15 digits round to one double, so repr's shortest digits are its own (at
    most 12, no trailing zero), and its exponent, in [-4, 12), is one repr writes fixed too."""
    text = format(x, _SIG_SPEC)
    return text if "." in text and "e" not in text else repr(float(text))


@dataclass
class Instance:
    points: PointSet
    meta: dict = field(default_factory=dict)


def _number(value, where: str) -> float:
    """A JSON number as a finite float. Only an int or a float counts, by
    exact type, so a bool or a string does not; an int beyond float range is
    not finite. ``where`` is the subject of the error message."""
    if type(value) is float:
        x = value
    elif type(value) is int:
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
    else:
        raise InstanceParseError(f"{where} must be numbers")
    if not math.isfinite(x):
        raise InstanceParseError(f"{where} must be finite")
    return x


def finite_numbers(values: list) -> Optional[np.ndarray]:
    """The values as a float64 array when each is a finite JSON number by
    ``_number``'s rule, else None."""
    if not {float, int}.issuperset(map(type, values)):
        return None
    try:
        x = np.array(values, dtype=np.float64)
    except OverflowError:  # an int beyond float range
        return None
    return x if np.isfinite(x).all() else None


def _flat_pairs(raw: list) -> list:
    """The items of ``raw`` flattened when each is a two-element JSON array,
    else [None], which no value check accepts."""
    if {list}.issuperset(map(type, raw)) and {2}.issuperset(map(len, raw)):
        return list(itertools.chain.from_iterable(raw))
    return [None]


def _pair(pair, where: str) -> tuple[float, float]:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise InstanceParseError(f"{where}: expected a [x, y] pair, got {pair!r}")
    where += ": coordinates"
    return _number(pair[0], where), _number(pair[1], where)


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceParseError(exc.msg, exc.lineno, exc.colno) from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise InstanceParseError(str(exc)) from exc
    except RecursionError as exc:  # arrays or objects nested past the parser's depth
        raise InstanceParseError("JSON is nested too deeply") from exc


def parse_instance(text: str) -> Instance:
    """Parse an instance from JSON ({"points": [[x,y],...]}) or headerless CSV.

    Exact or near-duplicate points are rejected, when the ``PointArray`` is built.
    """
    stripped = text.lstrip()
    if not stripped:
        raise InstanceParseError("empty instance")
    if stripped.startswith("{") or stripped.startswith("["):
        obj = _load_json(text)
        if isinstance(obj, list):
            obj = {"points": obj}
        if not isinstance(obj, dict) or "points" not in obj:
            raise InstanceParseError('JSON instance must be an object with a "points" array')
        raw = obj["points"]
        if not isinstance(raw, list):
            raise InstanceParseError('"points" must be an array')
        xy = finite_numbers(_flat_pairs(raw))
        if xy is None:  # a bad pair: the per-pair rule names the first
            xy = [_pair(pair, f"points[{i}]") for i, pair in enumerate(raw)]
        meta = obj.get("meta", {})
        if not isinstance(meta, dict):
            raise InstanceParseError('"meta" must be an object')
    else:
        xy = []
        meta = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            cells = [c.strip() for c in line.split(",")]
            if len(cells) != 2:
                raise InstanceParseError(
                    f"expected two comma-separated values, got {len(cells)}", lineno
                )
            try:
                x, y = float(cells[0]), float(cells[1])
            except ValueError as exc:
                raise InstanceParseError(f"bad number: {exc}", lineno) from exc
            if not (math.isfinite(x) and math.isfinite(y)):
                raise InstanceParseError("coordinates must be finite", lineno)
            xy.append((x, y))
    return Instance(points=PointArray(np.array(xy, dtype=np.float64).reshape(-1, 2)), meta=meta)


# json.dumps(indent=2)'s items one level inside a top-level array.
_PAIR = "    [\n      %r,\n      %r\n    ]"
_WEDGE = '    {\n      "bisector_deg": %s,\n      "aperture_deg": %s,\n      "radius": %s\n    }'
_UNBOUNDED_WEDGE = '    {\n      "bisector_deg": %s,\n      "aperture_deg": %s\n    }'
_CHUNK_ITEMS = 4096


def _fill(obj: dict, *arrays: Iterator[str]) -> Iterator[str]:
    """``obj`` with its floats canonicalised, as json.dumps(indent=2) writes it, in
    chunks. Its first top-level values, empty lists, are filled by ``arrays``' item texts."""
    canonical = json.loads(json.dumps(obj), parse_float=lambda text: round_sig(float(text)))
    texts = json.dumps(canonical, indent=2).split("[]", len(arrays))
    for text, items in zip(texts, arrays):
        yield text
        sep = "[\n"
        while chunk := ",\n".join(itertools.islice(items, _CHUNK_ITEMS)):
            yield sep + chunk
            sep = ",\n"
        yield "[]" if sep == "[\n" else "\n  ]"
    yield texts[-1] + "\n"


def emit_instance(instance: Instance, *, fmt: str = "json") -> str:
    """Serialize an instance as canonical JSON (laid out as by json.dumps(indent=2)) or headerless CSV."""
    xy = map(round_sig, coordinates(instance.points).ravel().tolist())
    pairs = zip(xy, xy)
    if fmt == "csv":
        return "".join(map("%r,%r\n".__mod__, pairs))
    obj = {"points": [], "meta": instance.meta} if instance.meta else {"points": []}
    return "".join(_fill(obj, map(_PAIR.__mod__, pairs)))


@dataclass
class ResultDoc:
    """Solver output: per-point wedges, chosen edges, and a summary block.

    Point k's wedge is row k of the (n, 3) float array ``wedges``:
    bisector_deg, aperture_deg and radius, inf when unbounded. ``edges`` is
    an (m, 2) int array of (u, v) rows.
    """

    wedges: np.ndarray
    edges: np.ndarray
    summary: dict
    verification: Optional[dict] = None


def _edge_pairs(rows: np.ndarray) -> Iterator[tuple[int, int]]:
    """The (m, 2) edge rows as (u, v) tuples of ints, a chunk at a time."""
    for i in range(0, len(rows), _CHUNK_ITEMS):
        yield from zip(*rows[i : i + _CHUNK_ITEMS].T.tolist())


def wedge_value_fault(wedges: np.ndarray) -> Optional[str]:
    """What is wrong with the first of the (n, 3) ``wedges`` values that JSON
    cannot hold, one that is not finite save an inf radius, or None."""
    # NaN equals nothing, so of the values that are not finite only an inf radius passes.
    bad = ~np.isfinite(wedges) & (wedges != (math.nan, math.nan, math.inf))
    for k, j in np.argwhere(bad)[:1].tolist():
        key = ("bisector_deg", "aperture_deg", "radius")[j]
        return f"wedges[{k}].{key} is {wedges[k, j].item()!r}; wedge values must be finite"
    return None


def emit_result(doc: ResultDoc, out: Optional[TextIO] = None) -> Optional[str]:
    """The document as json.dumps(indent=2) writes it, floats canonicalised and
    an inf radius left out: returned, or written to ``out`` in chunks. A
    ``wedge_value_fault`` raises ValueError before anything is written."""
    if fault := wedge_value_fault(doc.wedges):
        raise ValueError(fault)
    # Each distinct value, told apart by its bits so that -0.0 and 0.0 stay apart, is formatted once.
    bits, at = np.unique(np.ascontiguousarray(doc.wedges, dtype=np.float64).view(np.int64), return_inverse=True)
    texts = list(map(_sig_repr, bits.view(np.float64).tolist()))
    values = map(texts.__getitem__, at.ravel().tolist())
    rows = zip(values, values, values)
    records = (_WEDGE % row if row[2] != "inf" else _UNBOUNDED_WEDGE % row[:2] for row in rows)
    obj = {"wedges": [], "edges": [], "summary": doc.summary}
    if doc.verification is not None:
        obj["verification"] = doc.verification
    chunks = _fill(obj, records, map(_PAIR.__mod__, _edge_pairs(doc.edges)))
    if out is None:
        return "".join(chunks)
    out.writelines(chunks)


def _wedge_rows(recs: list) -> Optional[np.ndarray]:
    """The records' bisector, aperture and radius (inf when absent) as an
    (n, 3) array when each record is good, else None."""
    try:
        values = [rec[key] for key in ("bisector_deg", "aperture_deg") for rec in recs]
    except (KeyError, TypeError):  # a record that is no object, or lacks an angle
        return None
    if finite_numbers(values + [rec["radius"] for rec in recs if "radius" in rec]) is None:
        return None
    values += [rec.get("radius", math.inf) for rec in recs]
    return np.array(values, dtype=np.float64).reshape(3, -1).T


def _wedge_record(rec, where: str) -> tuple[float, float, float]:
    if not (isinstance(rec, dict) and "bisector_deg" in rec and "aperture_deg" in rec):
        raise InstanceParseError(
            f"{where}: expected an object with bisector_deg and aperture_deg, got {rec!r}"
        )
    return (
        _number(rec["bisector_deg"], where + ".bisector_deg: wedge values"),
        _number(rec["aperture_deg"], where + ".aperture_deg: wedge values"),
        _number(rec["radius"], where + ".radius: wedge values") if "radius" in rec else math.inf,
    )


def _edge(pair, where: str) -> tuple[int, int]:
    if not (isinstance(pair, list) and len(pair) == 2 and type(pair[0]) is int and type(pair[1]) is int):
        raise InstanceParseError(f"{where}: expected a pair of integer indices, got {pair!r}")
    return pair[0], pair[1]


def _edges(raw: list) -> np.ndarray:
    flat = _flat_pairs(raw)
    if not {int}.issuperset(map(type, flat)):
        flat = [end for k, pair in enumerate(raw) for end in _edge(pair, f"edges[{k}]")]  # names the first bad pair
    try:
        return np.array(flat, dtype=np.intp).reshape(-1, 2)
    except OverflowError:  # an end past int64, held as an object for the range check to name
        return np.array(flat, dtype=object).reshape(-1, 2)


def parse_result(text: str) -> ResultDoc:
    """Parse a result file. Wedge values must be finite JSON numbers and edge
    ends JSON integers; anything else raises InstanceParseError naming the
    field."""
    obj = _load_json(text)
    if not isinstance(obj, dict):
        raise InstanceParseError("result file must be a JSON object")
    for key, kind in (("wedges", list), ("edges", list), ("summary", dict)):
        if not isinstance(obj.get(key), kind):
            raise InstanceParseError(f'"{key}" must be an {"array" if kind is list else "object"}')
    wedges = _wedge_rows(obj["wedges"])
    if wedges is None:  # a bad record: the per-record rule names the first
        wedges = np.array([_wedge_record(rec, f"wedges[{k}]") for k, rec in enumerate(obj["wedges"])])
    return ResultDoc(
        wedges=wedges.reshape(-1, 3),
        edges=_edges(obj["edges"]),
        summary=obj["summary"],
        verification=obj.get("verification"),
    )


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
# Width and height of the drawing, in pixels.
_SVG_CANVAS = 800.0


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def emit_svg(
    points: PointSet,
    wedges: Optional[np.ndarray] = None,
    edges: Optional[Edges] = None,
) -> str:
    """Draw points, edges, and wedge sectors as standalone SVG 1.1.

    Point k's wedge is row k of the wedge rows ``wedges``, which
    ``Wedge`` must accept (``bad_wedge_rows``). The drawing is fit to an
    800-pixel square with a 5% margin; unbounded wedges are drawn with a
    quarter of the point-cloud span as radius.
    """
    if not points:
        raise TooFewPointsError("nothing to draw")
    (min_x, min_y), (max_x, max_y) = coordinates(points).min(axis=0).tolist(), coordinates(points).max(axis=0).tolist()
    span = max(max_x - min_x, max_y - min_y, 1e-9)
    unbounded_radius = span * 0.25
    margin = 0.05 * _SVG_CANVAS
    scale = (_SVG_CANVAS - 2 * margin) / span

    def to_px(p: Point) -> tuple[float, float]:
        return (
            margin + (p.x - min_x) * scale,
            _SVG_CANVAS - (margin + (p.y - min_y) * scale),
        )

    size = _fmt(_SVG_CANVAS)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    if wedges is not None:
        for k, w in enumerate(map(column_wedge, points, *wedges.T.tolist())):
            r_world = w.radius if w.radius is not None else unbounded_radius
            r = r_world * scale
            ax, ay = to_px(w.apex)
            color = _SVG_COLORS[k % len(_SVG_COLORS)]
            if w.aperture_deg >= 360.0 - 1e-9:
                out.append(
                    f'<circle cx="{_fmt(ax)}" cy="{_fmt(ay)}" r="{_fmt(r)}" '
                    f'fill="{color}" fill-opacity="0.15" stroke="{color}" stroke-width="1"/>'
                )
                continue
            right = math.radians(w.right_ray.degrees)
            left = math.radians(w.left_ray.degrees)
            x1 = ax + r * math.cos(right)
            y1 = ay - r * math.sin(right)
            x2 = ax + r * math.cos(left)
            y2 = ay - r * math.sin(left)
            large = 1 if w.aperture_deg > 180.0 else 0
            out.append(
                f'<path d="M {_fmt(ax)} {_fmt(ay)} L {_fmt(x1)} {_fmt(y1)} '
                f'A {_fmt(r)} {_fmt(r)} 0 {large} 0 {_fmt(x2)} {_fmt(y2)} Z" '
                f'fill="{color}" fill-opacity="0.15" stroke="{color}" stroke-width="1"/>'
            )
    if edges is not None:
        for u, v in edges:
            x1, y1 = to_px(points[u])
            x2, y2 = to_px(points[v])
            out.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                'stroke="#333333" stroke-width="1.5"/>'
            )
    for p in points:
        x, y = to_px(p)
        out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="#000000"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
