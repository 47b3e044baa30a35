"""Angle, direction, and wedge primitives.

All angles are kept in degrees so that the 0/120/240 arithmetic of the
gadget constructions stays exact; radians appear only at trig call sites.
Wedge boundaries are closed, with an angular tolerance of ``ANGLE_TOL_DEG``
degrees, and distance comparisons use a relative tolerance of ``REL_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import DuplicatePointError

ANGLE_TOL_DEG = 1e-9
REL_TOL = 1e-9


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


def check_distinct(points: PointSet) -> None:
    """Raise DuplicatePointError if any two points coincide.

    Sorts by x and compares within a sliding window, so near-duplicates are
    caught without an O(n^2) scan.
    """
    n = len(points)
    if n < 2:
        return
    order = sorted(range(n), key=lambda i: (points[i].x, points[i].y, i))
    for a in range(n - 1):
        i = order[a]
        tol = REL_TOL * _coord_scale(points[i])
        for b in range(a + 1, n):
            j = order[b]
            if points[j].x - points[i].x > 2 * tol:
                break
            if points_coincide(points[i], points[j]):
                raise DuplicatePointError(f"points {i} and {j} coincide: {points[i]}")


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

    @property
    def reverse_ray(self) -> Direction:
        return self.bisector.opposite()

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


def sextant_of(d: Direction) -> int:
    """Index i in 1..6 of the 60-degree range [(i-1)*60, i*60) containing d.

    Multiples of 60 land in the upper range (half-open convention).
    """
    i = int(d.degrees // 60.0) + 1
    return min(i, 6)
