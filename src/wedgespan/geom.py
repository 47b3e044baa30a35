"""Angle, direction, and wedge primitives.

All angles are kept in degrees so that the 0/120/240 arithmetic of the
gadget constructions stays exact; radians appear only at trig call sites.
Wedge boundaries are closed, with an angular tolerance of ``ANGLE_TOL_DEG``
degrees, and distance comparisons use a relative tolerance of ``REL_TOL``.

The library keeps wedges as wedge rows: an (n, 3) float64 array of
bisector, aperture and radius (inf when unbounded), row k the wedge of
point k, with its apex there. ``Wedge`` is one row's object form.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .errors import DuplicatePointError

ANGLE_TOL_DEG = 1e-9
REL_TOL = 1e-9
_EPS = sys.float_info.epsilon
# Candidate pairs grid_pairs builds at a time.
_PAIR_BLOCK = 1 << 12
# Most candidate pairs per point the duplicate check takes from one grid
# before it splits points of widely different scales.
_CLOSE_PAIRS_PER_POINT = 8
# Most cells a side of grid_pairs' grid; it keeps the int64 cell keys exact
# and sets the narrowest cell, span / GRID_SIDE_CELLS.
GRID_SIDE_CELLS = 2**30


@dataclass(frozen=True, slots=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")

    def distance_to(self, other: "Point") -> float:
        return math.hypot(other.x - self.x, other.y - self.y)


PointSet = Sequence[Point]
# Edges as (u, v) index pairs, or an (m, 2) int array of them.
Edges = Union[Sequence[tuple[int, int]], np.ndarray]


class PointArray(Sequence[Point]):
    """A read-only set of distinct points backed by an (n, 2) float64 array of
    (x, y) rows, which ``coordinates`` returns; ``points[k]`` is from a Point
    list built on first use. Building one runs the duplicate scan, which
    raises DuplicatePointError, so ``check_distinct`` passes it at once.
    ``_mst`` holds the Euclidean MST that ``graph.euclidean_mst`` computes
    on its first call, which later calls return."""

    __slots__ = ("xy", "_points", "_mst")

    def __init__(self, xy: np.ndarray):
        xy.flags.writeable = False
        self.xy, self._points, self._mst = xy, None, None
        _scan_distinct(self)

    def __len__(self) -> int:
        return len(self.xy)

    def __getitem__(self, k):
        if self._points is None:
            self._points = [Point(x, y) for x, y in self.xy.tolist()]
        return self._points[k]


@dataclass(frozen=True, slots=True)
class Direction:
    """A direction in the plane, in degrees, normalized into [0, 360).

    0 points east (+x) and 90 north (+y); angles grow counterclockwise.
    """

    degrees: float

    def __post_init__(self):
        if not math.isfinite(self.degrees):
            raise ValueError(f"direction must be finite, got {self.degrees}")
        norm = self.degrees % 360.0
        if norm == 360.0:  # float modulo of a tiny negative rounds up to 360
            norm = 0.0
        object.__setattr__(self, "degrees", norm)

    def rotated(self, delta_deg: float) -> "Direction":
        return Direction(self.degrees + delta_deg)


def _coord_scale(*points: Point) -> float:
    m = 1.0
    for p in points:
        m = max(m, abs(p.x), abs(p.y))
    return m


def points_coincide(p: Point, q: Point) -> bool:
    """True when p and q are within the relative duplicate tolerance of each other."""
    tol = REL_TOL * _coord_scale(p, q)
    return abs(p.x - q.x) <= tol and abs(p.y - q.y) <= tol and p.distance_to(q) <= tol


def coordinates(points: PointSet) -> np.ndarray:
    """The points as an (n, 2) float array of (x, y) rows: a ``PointArray``'s
    own read-only array, or one built from any other sequence of Points."""
    if isinstance(points, PointArray):
        return points.xy
    return np.array(([p.x for p in points], [p.y for p in points])).T


def edge_array(edges: Edges) -> np.ndarray:
    """m edges, given as (u, v) pairs or an (m, 2) int array, as an (m, 2) intp array."""
    if isinstance(edges, np.ndarray):
        return edges.astype(np.intp, copy=False).reshape(-1, 2)
    return np.fromiter(itertools.chain.from_iterable(edges), np.intp).reshape(-1, 2)


def grid_pairs(
    xy: np.ndarray, radius: float, max_pairs: Optional[int] = None
) -> Optional[Iterator[tuple[np.ndarray, np.ndarray]]]:
    """Candidate index pairs holding every two points within ``radius`` on both axes.

    ``xy`` is an (n, 2) array of coordinates, n >= 1. The points are
    bucketed into square cells a hair wider than ``radius``, so two such
    points lie in the same or adjacent cells, and each cell is paired with
    itself and its four forward neighbours: every such pair appears once, as
    (i, j) or (j, i).
    The pairs come as int32 arrays (i, j) in blocks of about
    ``_PAIR_BLOCK``, so memory stays O(n + block); callers apply their own
    distance rule to each block. Returns None, before building any pair,
    when there would be more than ``max_pairs``. ``radius`` must be positive
    unless every point is the same, which makes one cell.
    """
    n = len(xy)
    low = xy.min(axis=0)
    (x0, y0), (x1, y1) = low.tolist(), xy.max(axis=0).tolist()
    span = max(x1 - x0, y1 - y0)
    if not math.isfinite(span):  # coordinates near the float limit
        return grid_pairs(xy * 0.5, radius * 0.5, max_pairs)
    # Rounding moves (x - x0) / width by a few ulps of span / width at most,
    # which the 4 eps span margin absorbs.
    width = max(radius * (1.0 + REL_TOL) + 4.0 * _EPS * span, span / GRID_SIDE_CELLS) or 1.0
    stride = int((y1 - y0) / width) + 2
    cell = ((xy - low) / width).astype(np.int64)
    key = cell[:, 0] * stride + cell[:, 1]
    order = key.argsort(kind="stable").astype(np.int32)
    key = key[order]
    # Two runs of cells per point: the rest of its own cell with the cell
    # above, and the three cells of the next column (keys are integers, so
    # the first key >= k is the first key > k - 1).
    bounds = key.searchsorted(key[:, None] + (0, 1, stride - 2, stride + 1), side="right")
    bounds[:, 0] = np.arange(1, n + 1)
    lo = bounds[:, ::2].ravel()
    counts = bounds[:, 1::2].ravel() - lo
    ends = counts.cumsum()
    if max_pairs is not None and ends[-1] > max_pairs:
        return None
    return _pair_blocks(order, lo, counts, ends) if ends[-1] else iter(())


def _pair_blocks(
    order: np.ndarray, lo: np.ndarray, counts: np.ndarray, ends: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Expand runs of sorted positions (run e: point ``order[e // 2]`` with
    positions ``lo[e]`` onward, ``counts[e]`` of them) into index pairs."""
    owners = order.repeat(2)
    start = 0
    while start < len(counts):
        base = int(ends[start] - counts[start])
        stop = max(start + 1, int(ends.searchsorted(base + _PAIR_BLOCK, side="right")))
        runs = counts[start:stop]
        second = (lo[start:stop] - ends[start:stop] + runs + base).astype(np.int32).repeat(runs)
        second += np.arange(len(second), dtype=np.int32)
        yield owners[start:stop].repeat(runs), order[second]
        start = stop


def check_distinct(points: PointSet) -> None:
    """Raise DuplicatePointError if any two points coincide; a ``PointArray``
    was checked when it was built."""
    if not isinstance(points, PointArray):
        _scan_distinct(points)


def _scan_distinct(points: PointSet) -> None:
    """``check_distinct``'s scan: each point is compared, by
    ``points_coincide``, only with the points in its tolerance cell and the
    neighbouring ones (``_close_pairs``); the lowest coinciding pair is
    reported."""
    n = len(points)
    if n < 2:
        return
    xy = coordinates(points)
    scale = np.maximum(np.abs(xy).max(axis=1), 1.0)
    clashes = [
        (i, j) if i < j else (j, i)
        for first, second in _close_pairs(xy, scale, np.arange(n))
        for i, j in zip(first.tolist(), second.tolist())
        if points_coincide(points[i], points[j])
    ]
    if clashes:
        i, j = min(clashes)
        raise DuplicatePointError(f"points {i} and {j} coincide: {points[i]}")


def _close_pairs(
    xy: np.ndarray, scale: np.ndarray, ids: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Pairs of the points ``ids`` whose x and y gaps are both within
    ``REL_TOL`` times the larger of their scales ``max(1, |x|, |y|)``, the
    first two tests of ``points_coincide``.

    The grid's cells are as wide as the largest tolerance among ``ids``. When
    the scales differ widely and that grid holds many candidates (points
    packed far below the largest tolerance), the points are split at the
    geometric mean scale and each side is searched on its own: the scales of
    two points within tolerance differ by a factor of at most about
    ``1 + REL_TOL``, so the points just above the split go to both sides.
    """
    sub, s = xy[ids], scale[ids]
    top = float(s.max())
    wide = 4.0 * float(s.min()) < top
    blocks = grid_pairs(sub, REL_TOL * top, _CLOSE_PAIRS_PER_POINT * len(ids) if wide else None)
    if blocks is None:
        mid = math.sqrt(float(s.min())) * math.sqrt(top)
        yield from _close_pairs(xy, scale, ids[s <= mid * (1.0 + 4.0 * REL_TOL)])
        yield from _close_pairs(xy, scale, ids[s > mid])
        return
    for a, b in blocks:
        tol = REL_TOL * np.maximum(s[a], s[b])
        with np.errstate(over="ignore"):
            near = (np.abs(sub[a, 0] - sub[b, 0]) <= tol) & (np.abs(sub[a, 1] - sub[b, 1]) <= tol)
        yield ids[a[near]], ids[b[near]]


def direction(p: Point, q: Point) -> Direction:
    """Direction of the vector from p to q; 0 = east, 90 = north."""
    if points_coincide(p, q):
        raise DuplicatePointError(f"cannot take direction between coincident points {p} and {q}")
    return Direction(math.degrees(math.atan2(q.y - p.y, q.x - p.x)))


@dataclass(frozen=True, slots=True)
class Wedge:
    """Circular sector: apex, bisector direction, aperture, optional range limit.

    Models a directional antenna. The boundary is closed: a point exactly on
    a bounding ray (or at distance exactly ``radius``) is inside. A missing
    radius means the wedge is unbounded.
    """

    apex: Point
    bisector: Direction
    aperture_deg: float
    radius: float | None = None

    def __post_init__(self):
        if not (0.0 < self.aperture_deg <= 360.0):
            raise ValueError(f"aperture must be in (0, 360], got {self.aperture_deg}")
        if self.radius is not None and not (self.radius > 0.0):
            raise ValueError(f"radius must be positive, got {self.radius}")

    @property
    def left_ray(self) -> Direction:
        return self.bisector.rotated(self.aperture_deg / 2.0)

    @property
    def right_ray(self) -> Direction:
        return self.bisector.rotated(-self.aperture_deg / 2.0)

    def contains(self, q: Point) -> bool:
        dx = q.x - self.apex.x
        dy = q.y - self.apex.y
        dist = math.hypot(dx, dy)
        if dist <= REL_TOL * _coord_scale(self.apex, q):
            return True
        if self.radius is not None and dist > self.radius * (1.0 + REL_TOL):
            return False
        ang = math.degrees(math.atan2(dy, dx))
        delta = (ang - self.bisector.degrees + 180.0) % 360.0 - 180.0
        return abs(delta) <= self.aperture_deg / 2.0 + ANGLE_TOL_DEG


def bad_wedge_rows(wedges: np.ndarray) -> np.ndarray:
    """The indices of the wedge rows that ``Wedge`` rejects: an aperture
    outside (0, 360] or a radius that is not positive."""
    _, aperture, radius = wedges.T
    return (~((aperture > 0.0) & (aperture <= 360.0) & (radius > 0.0))).nonzero()[0]


def column_wedge(apex: Point, bisector: float, aperture: float, radius: float) -> Wedge:
    """The Wedge of a wedge row; ValueError, naming the value, for a row in
    ``bad_wedge_rows``."""
    return Wedge(apex, Direction(bisector), aperture, radius if radius < math.inf else None)


def normalize_degrees(degrees: np.ndarray) -> np.ndarray:
    """``Direction``'s normalisation of each angle, in place: into [0, 360),
    with the 360 that a tiny negative rounds to taken to 0."""
    degrees %= 360.0
    degrees[degrees == 360.0] = 0.0
    return degrees


def spanning_arc(direction_degs: Sequence[float]) -> tuple[float, float]:
    """Smallest CCW arc (start_deg, extent_deg) containing all given directions.

    The arc is the complement of the largest circular gap between
    consecutive sorted directions. A single direction yields extent 0.
    """
    if not direction_degs:
        raise ValueError("spanning_arc requires at least one direction")
    degs = sorted(d % 360.0 for d in direction_degs)
    if len(degs) == 1:
        return degs[0], 0.0
    best_gap = -1.0
    best_at = 0
    for k in range(len(degs)):
        if k + 1 == len(degs):
            gap = degs[0] + 360.0 - degs[k]
        else:
            gap = degs[k + 1] - degs[k]
        if gap > best_gap:
            best_gap = gap
            best_at = k
    start = degs[(best_at + 1) % len(degs)]
    return start, 360.0 - best_gap


def angular_spread(points: PointSet, edges: Edges) -> tuple[float, Optional[int]]:
    """Largest angular spread over the vertices of the edges, and where.

    A vertex's spread is the smallest angle of a cone at it holding every
    edge's other end: the extent of its ``spanning_arcs`` arc. Returns the
    largest spread and the lowest vertex attaining it, or (0.0, None) when
    no vertex has a positive spread. Raises DuplicatePointError, as
    ``direction`` does, for an edge between coincident points.
    """
    vertices, _, spread = spanning_arcs(points, edges)
    if not (len(spread) and spread.max() > 0.0):
        return 0.0, None
    k = int(spread.argmax())
    return float(spread[k]), int(vertices[k])


def spanning_arcs(points: PointSet, edges: Edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``spanning_arc`` of every vertex's edge directions, bit for bit: the
    vertices that end some edge, ascending, and each one's (start, extent).

    One numpy pass sorts both ends of every edge by (vertex, angle), with
    the ``edge_directions`` from each end to the other, and takes each
    vertex's first largest circular gap; the arc starts after it, and a
    single direction gives extent 0.
    """
    u, v = edge_array(edges).T
    at = np.concatenate((u, v))
    angle = edge_directions(points, np.column_stack((at, np.concatenate((v, u)))))
    if not len(angle):
        return at, angle, angle
    order = np.lexsort((angle, at))
    angle = angle[order]
    counts = np.bincount(at)
    vertices = counts.nonzero()[0]
    counts = counts[vertices]
    last = counts.cumsum() - 1
    first = last - counts + 1
    gap = np.empty_like(angle)
    gap[:-1] = angle[1:] - angle[:-1]
    gap[last] = angle[first] + 360.0 - angle[last]
    widest = np.maximum.reduceat(gap, first)
    after = np.minimum.reduceat(np.where(gap == widest.repeat(counts), np.arange(len(gap)), len(gap)), first) + 1
    after = np.where(after > last, first, after)
    extent = 360.0 - widest
    extent[first == last] = 0.0
    return vertices, angle[after], extent


def edge_directions(points: PointSet, edges: Edges) -> np.ndarray:
    """``direction(points[u], points[v]).degrees`` for each edge ``(u, v)``.

    The angles are ``direction``'s bit for bit: ``math.atan2`` per element
    (``np.arctan2`` is an ulp off on some vectors), degrees and
    ``Direction``'s normalisation. A coincident pair raises through
    ``direction``, at the first such edge in vertex, then edge, order; in a
    ``PointArray`` only an edge from a point to itself can be one.
    """
    u, v = edge_array(edges).T
    xy = coordinates(points)
    with np.errstate(over="ignore"):  # a gap that overflows is no near one
        dx = xy[v, 0] - xy[u, 0]
        dy = xy[v, 1] - xy[u, 1]
    if isinstance(points, PointArray):
        close = (u == v).nonzero()[0]
    else:  # points_coincide's first two tests here; its last one in direction
        scale = np.abs(xy).max(axis=1, initial=1.0)
        tol = REL_TOL * np.maximum(scale[u], scale[v])
        close = ((np.abs(dx) <= tol) & (np.abs(dy) <= tol)).nonzero()[0]
    if len(close):
        low, high = np.minimum(u[close], v[close]), np.maximum(u[close], v[close])
        for k in np.lexsort((close, low)).tolist():
            direction(points[low[k]], points[high[k]])
    angle = np.fromiter(map(math.atan2, memoryview(dy), memoryview(dx)), float, len(u))
    return normalize_degrees(np.degrees(angle, out=angle))
