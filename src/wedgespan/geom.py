"""Angle, direction, and wedge primitives.

All angles are kept in degrees so that the 0/120/240 arithmetic of the
gadget constructions stays exact; radians appear only at trig call sites.
Wedge boundaries are closed, with an angular tolerance of ``ANGLE_TOL_DEG``
degrees, and distance comparisons use a relative tolerance of ``REL_TOL``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

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
# Up to this many points, the callers of grid_pairs take every pair as a
# candidate instead: at that size the grid's fixed numpy calls cost more
# than the pairs do.
ALL_PAIRS_N = 64
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

    def opposite(self) -> "Direction":
        return Direction(self.degrees + 180.0)


def signed_angle_delta(from_deg: float, to_deg: float) -> float:
    """Signed difference to_deg - from_deg folded into [-180, 180)."""
    return (to_deg - from_deg + 180.0) % 360.0 - 180.0


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
    """The points as an (n, 2) float array of (x, y) rows."""
    return np.array(([p.x for p in points], [p.y for p in points])).T


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
    when there would be more than ``max_pairs``. ``radius`` must be positive.
    """
    n = len(xy)
    low = xy.min(axis=0)
    (x0, y0), (x1, y1) = low.tolist(), xy.max(axis=0).tolist()
    span = max(x1 - x0, y1 - y0)
    if not math.isfinite(span):  # coordinates near the float limit
        return grid_pairs(xy * 0.5, radius * 0.5, max_pairs)
    # Rounding moves (x - x0) / width by a few ulps of span / width at most,
    # which the 4 eps span margin absorbs.
    width = max(radius * (1.0 + REL_TOL) + 4.0 * _EPS * span, span / GRID_SIDE_CELLS)
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
    """Raise DuplicatePointError if any two points coincide.

    Each point is compared, by ``points_coincide``, only with the points in
    its tolerance cell and the neighbouring ones (``_close_pairs``), or with
    every point when there are at most ``ALL_PAIRS_N``; the lowest
    coinciding pair is reported.
    """
    n = len(points)
    if n < 2:
        return
    xy = coordinates(points)
    scale = np.maximum(np.abs(xy).max(axis=1), 1.0)
    blocks = _all_close_pairs(xy, scale) if n <= ALL_PAIRS_N else _close_pairs(xy, scale, np.arange(n))
    clashes = [
        (i, j) if i < j else (j, i)
        for first, second in blocks
        for i, j in zip(first.tolist(), second.tolist())
        if points_coincide(points[i], points[j])
    ]
    if clashes:
        i, j = min(clashes)
        raise DuplicatePointError(f"points {i} and {j} coincide: {points[i]}")


def _all_close_pairs(xy: np.ndarray, scale: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """``_close_pairs`` of every point, tested all at once."""
    tol = REL_TOL * np.maximum(scale[:, None], scale)
    with np.errstate(over="ignore"):  # a gap that overflows is no near one
        near = (np.abs(xy[:, None, 0] - xy[:, 0]) <= tol) & (np.abs(xy[:, None, 1] - xy[:, 1]) <= tol)
    if near.sum() == len(xy):  # the diagonal alone
        return []
    first, second = near.nonzero()
    upper = first < second
    return [(first[upper], second[upper])]


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
class AngleInterval:
    """Counterclockwise arc of directions from ``start`` spanning ``extent`` degrees."""

    start: Direction
    extent: float

    def __post_init__(self):
        if not (0.0 < self.extent <= 360.0):
            raise ValueError(f"interval extent must be in (0, 360], got {self.extent}")

    def contains(self, d: Direction, tol: float = ANGLE_TOL_DEG) -> bool:
        offset = (d.degrees - self.start.degrees) % 360.0
        return offset <= self.extent + tol or offset >= 360.0 - tol


def intervals_cover_circle(intervals: Iterable[AngleInterval], tol: float = ANGLE_TOL_DEG) -> bool:
    """True when the union of the intervals covers every direction in [0, 360)."""
    ivs = [(iv.start.degrees, iv.extent) for iv in intervals]
    if not ivs:
        return False
    if any(ext >= 360.0 - tol for _, ext in ivs):
        return True
    ivs.sort()
    base = ivs[0][0]
    # Unroll onto [base, base + 720) so a single sweep handles the wrap.
    spans = []
    for s, ext in ivs:
        s_sh = (s - base) % 360.0
        spans.append((s_sh, s_sh + ext))
        spans.append((s_sh + 360.0, s_sh + 360.0 + ext))
    spans.sort()
    reach = 0.0
    for s, e in spans:
        if s > reach + tol:
            return False
        reach = max(reach, e)
        if reach >= 360.0 - tol:
            return True
    return reach >= 360.0 - tol


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

    def direction_interval(self) -> AngleInterval:
        return AngleInterval(self.right_ray, self.aperture_deg)

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


def angular_spread(center: Point, neighbors: PointSet) -> float:
    """Smallest angle (degrees) of a cone at center containing every neighbor.

    360 minus the largest circular gap between the sorted neighbor
    directions; a single neighbor gives 0.
    """
    if not neighbors:
        raise ValueError("angular_spread requires at least one neighbor")
    degs = [direction(center, q).degrees for q in neighbors]
    _, extent = spanning_arc(degs)
    return extent


def max_spread(points: PointSet, edges: Iterable[tuple[int, int]]) -> tuple[float, Optional[int]]:
    """Largest angular_spread over the vertices of an edge list, and where.

    Returns the spread and the lowest vertex attaining it, or (0.0, None)
    when every vertex sees a single direction.
    """
    adjacency: list[list[int]] = [[] for _ in points]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    worst = 0.0
    at: Optional[int] = None
    for v, nbrs in enumerate(adjacency):
        if nbrs:
            spread = angular_spread(points[v], [points[u] for u in nbrs])
            if spread > worst:
                worst, at = spread, v
    return worst, at


def covering_wedge(center: Point, neighbors: PointSet, aperture_deg: float) -> Wedge:
    """Witness wedge of the given aperture at center containing all neighbors.

    Bisector sits at the circular midpoint of the spanning arc; only valid
    when angular_spread(center, neighbors) <= aperture_deg.
    """
    degs = [direction(center, q).degrees for q in neighbors]
    start, extent = spanning_arc(degs)
    return Wedge(center, Direction(start + extent / 2.0), aperture_deg)
