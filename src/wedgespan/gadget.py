"""Wedge-orientation gadgets for small point groups.

Three recipes live here:

* ``orient_triplet`` — 120-degree wedges for any three points, guaranteeing
  two induced edges (a 2-edge spanning path centered on the smallest-angle
  vertex) and full plane coverage by the wedge union.
* ``orient_quadruplet`` — 90-degree wedges for any four points, found by a
  deterministic candidate search: all candidates are scored in one numpy
  pass, and the best-ranked one with a connected induced graph whose wedges
  cover the plane (``verify_coverage``) wins.
* ``orient_pair`` — two facing wedges, the trivial case.

``aim_leftovers`` gives points outside any gadget a wedge aimed at a gadget
wedge that covers them, which makes the edge between the two mutual.

``verify_coverage`` decides plane coverage of a wedge family exactly, from
the wedges' bounding rays: the union covers the plane iff each ray lies in
the union of the other wedges.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import GadgetSearchFailed, GuaranteeViolation
from .geom import (
    ANGLE_TOL_DEG,
    Direction,
    PointSet,
    Wedge,
    direction,
    spanning_arc,
)

# Canonical triplet bisectors by role: smallest triangle angle faces along the
# base, the other two complete an exact 3-way partition of directions.
_CANON_BASE_LEFT = 0.0
_CANON_BASE_RIGHT = 120.0
_CANON_PEAK = 240.0


def _dir_in_half_aperture(dir_deg: float, bis_deg: float, half_deg: float) -> bool:
    return abs((dir_deg - bis_deg + 180.0) % 360.0 - 180.0) <= half_deg + ANGLE_TOL_DEG


@dataclass(frozen=True)
class TripletOrientation:
    """Result of orienting a 3-point group with 120-degree wedges.

    Role indices point into the input sequence: ``base_left`` has the
    smallest triangle angle, ``peak`` the largest. In the canonical frame
    (base horizontal, base_left at the origin, peak on or above the base
    line) the bisectors are exactly 0 / 120 / 240 for base_left /
    base_right / peak.
    """

    base_left: int
    base_right: int
    peak: int
    reflected: bool
    wedges: tuple[Wedge, Wedge, Wedge]

    @property
    def tree_edges(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two induced edges guaranteed by the construction."""
        return (self.peak, self.base_left), (self.base_left, self.base_right)


@dataclass(frozen=True)
class QuadrupletOrientation:
    """Four 90-degree wedges with connected induced graph and plane coverage."""

    wedges: tuple[Wedge, Wedge, Wedge, Wedge]


def orient_triplet(points: PointSet) -> TripletOrientation:
    """Orient 120-degree wedges on three points.

    Roles are assigned by ascending triangle angle (ties by input index),
    the rigid motion placing the base horizontal is computed, canonical
    bisectors are assigned, and the wedges are mapped back through the
    inverse motion (reflecting when the largest-angle vertex falls below
    the base line). Collinear triplets are handled by the same formula;
    the closed wedge boundary keeps both guaranteed edges.
    """
    if len(points) != 3:
        raise ValueError(f"orient_triplet requires exactly 3 points, got {len(points)}")
    p0, p1, p2 = points
    d01 = direction(p0, p1).degrees
    d02 = direction(p0, p2).degrees
    d12 = direction(p1, p2).degrees
    d10 = (d01 + 180.0) % 360.0
    d20 = (d02 + 180.0) % 360.0
    d21 = (d12 + 180.0) % 360.0
    dirs = ((None, d01, d02), (d10, None, d12), (d20, d21, None))

    # Law of cosines keeps the role angles exactly symmetric under symmetric
    # inputs, so angle ties genuinely fall through to the index tie-break.
    s01 = p0.distance_to(p1)
    s02 = p0.distance_to(p2)
    s12 = p1.distance_to(p2)

    def _corner(adj_a: float, adj_b: float, opp: float) -> float:
        cos_v = (adj_a * adj_a + adj_b * adj_b - opp * opp) / (2.0 * adj_a * adj_b)
        return math.degrees(math.acos(min(1.0, max(-1.0, cos_v))))

    angles = (_corner(s01, s02, s12), _corner(s01, s12, s02), _corner(s02, s12, s01))
    by_angle = sorted(range(3), key=lambda i: (angles[i], i))
    bl, br, pk = by_angle

    theta = dirs[bl][br]
    vx = points[br].x - points[bl].x
    vy = points[br].y - points[bl].y
    wx = points[pk].x - points[bl].x
    wy = points[pk].y - points[bl].y
    reflected = (vx * wy - vy * wx) < 0.0

    def _back(canon_deg: float) -> Direction:
        if reflected:
            return Direction(theta - canon_deg)
        return Direction(theta + canon_deg)

    bis = [0.0, 0.0, 0.0]
    bis[bl] = _back(_CANON_BASE_LEFT).degrees
    bis[br] = _back(_CANON_BASE_RIGHT).degrees
    bis[pk] = _back(_CANON_PEAK).degrees
    wedges = tuple(Wedge(points[i], Direction(bis[i]), 120.0) for i in range(3))

    if not (
        _dir_in_half_aperture(dirs[bl][pk], bis[bl], 60.0)
        and _dir_in_half_aperture(dirs[pk][bl], bis[pk], 60.0)
        and _dir_in_half_aperture(dirs[bl][br], bis[bl], 60.0)
        and _dir_in_half_aperture(dirs[br][bl], bis[br], 60.0)
    ):
        raise GuaranteeViolation(
            f"triplet gadget with bisectors {bis} lost a guaranteed edge on {tuple(points)}"
        )
    # The wedges cover every direction iff no gap between circularly
    # consecutive bisectors exceeds the aperture.
    if 360.0 - spanning_arc(bis)[1] > 120.0 + ANGLE_TOL_DEG:
        raise GuaranteeViolation(
            f"triplet gadget with bisectors {bis} leaves a direction uncovered on {tuple(points)}"
        )

    return TripletOrientation(
        base_left=bl,
        base_right=br,
        peak=pk,
        reflected=reflected,
        wedges=wedges,  # type: ignore[arg-type]
    )


def orient_pair(points: PointSet, aperture_deg: float) -> tuple[Wedge, Wedge]:
    """Two wedges whose bisectors face each other, guaranteeing the edge."""
    if len(points) != 2:
        raise ValueError(f"orient_pair requires exactly 2 points, got {len(points)}")
    p, q = points
    d = direction(p, q)
    return Wedge(p, d, aperture_deg), Wedge(q, d.opposite(), aperture_deg)


def aim_leftovers(
    points: PointSet,
    wedges: list[Optional[Wedge]],
    leftovers: Sequence[int],
    host: Sequence[int],
    aperture_deg: float,
    radius: Optional[float] = None,
) -> list[tuple[int, int]]:
    """Aim each leftover's wedge at the apex of the nearest host wedge covering it.

    The host gadget covers the plane, so such a wedge exists and the edge is
    mutual. Fills ``wedges`` in place and returns the new edges.
    """
    edges = []
    for p in leftovers:
        covering = [x for x in host if wedges[x] is not None and wedges[x].contains(points[p])]
        if not covering:
            raise GuaranteeViolation(
                f"gadget wedges of group {tuple(host)} do not cover point {p}"
            )
        x = min(covering, key=lambda i: (points[p].distance_to(points[i]), i))
        wedges[p] = Wedge(points[p], direction(points[p], points[x]), aperture_deg, radius)
        edges.append((p, x))
    return edges


# Bit k of an edge mask stands for the point pair _PAIRS[k]; _CONNECTED[mask]
# says whether those edges connect all four points (a path of at most three
# edges joins every pair, so (A + I)^3 has no zero entry).
_PAIRS = tuple(itertools.combinations(range(4), 2))
_PAIR_I, _PAIR_J = np.array(_PAIRS).T
_PAIR_BITS = 1 << np.arange(6)
_ADJ = np.broadcast_to(np.eye(4, dtype=np.int64), (64, 4, 4)).copy()
_ADJ[:, _PAIR_I, _PAIR_J] = _ADJ[:, _PAIR_J, _PAIR_I] = (np.arange(64)[:, None] & _PAIR_BITS) > 0
_CONNECTED = (np.linalg.matrix_power(_ADJ, 3) > 0).all(axis=(1, 2))
_PERMS = np.array(list(itertools.permutations(range(4))))
# Pair ends k < 6 are the pairs' lower points, k >= 6 their higher ones;
# _END_QUADRANT[perm, k] is the quadrant that permutation gives end k.
_END_QUADRANT = _PERMS[:, np.concatenate([_PAIR_I, _PAIR_J])]
_QUADRANTS = np.array([45.0, 135.0, 225.0, 315.0])


def orient_quadruplet(points: PointSet) -> QuadrupletOrientation:
    """Orient 90-degree wedges on four points.

    Candidate bisector assignments are the four quadrant bisectors
    45/135/225/315 rotated by phi, with phi drawn from the directions of the
    six point pairs (mod 90) plus 0, assigned to the points in every
    permutation. All candidates are scored in one numpy pass: an edge is
    induced when each end's direction to the other lies within 45 degrees
    (plus ``ANGLE_TOL_DEG``) of its bisector, the same test as
    ``_dir_in_half_aperture``. Candidates with a connected induced graph are
    ranked by (most induced edges, smallest total edge length, enumeration
    order) and the first one whose wedges cover the plane, by the exact
    ``verify_coverage``, wins.
    """
    if len(points) != 4:
        raise ValueError(f"orient_quadruplet requires exactly 4 points, got {len(points)}")
    dirs, dists = [0.0] * 12, []
    for k, (i, j) in enumerate(_PAIRS):
        d = direction(points[i], points[j]).degrees
        dirs[k], dirs[k + 6] = d, (d + 180.0) % 360.0
        dists.append(points[i].distance_to(points[j]))

    phis: list[float] = []
    for d in dirs[:6]:
        cand = d % 90.0
        if all(abs(cand - p) > ANGLE_TOL_DEG for p in phis):
            phis.append(cand)
    if all(abs(p) > ANGLE_TOL_DEG for p in phis):
        phis.append(0.0)

    # inside[p, k, q]: the direction from end k to the other end of its pair
    # lies in the 90-degree wedge with quadrant q's bisector at phi p. Each
    # candidate, numbered phi_index * 24 + perm_index as loops over phi and
    # then permutations would meet it, reads its ends' entries.
    base = (_QUADRANTS + np.array(phis)[:, None]) % 360.0
    offset = (np.array(dirs)[:, None] - base[:, None, :] + 180.0) % 360.0 - 180.0
    inside = np.abs(offset) <= 45.0 + ANGLE_TOL_DEG
    ends = inside[:, np.arange(12), _END_QUADRANT].reshape(-1, 12)
    induced = ends[:, :6] & ends[:, 6:]
    seq = np.flatnonzero(_CONNECTED[induced @ _PAIR_BITS])
    if not len(seq):
        raise GadgetSearchFailed(f"no connected wedge assignment found for {points}")
    # Lengths summed left to right in pair order; an absent edge adds 0.0,
    # which leaves the partial sum unchanged.
    edges = induced[seq]
    total = np.where(edges, dists, 0.0).cumsum(axis=1)[:, -1]
    ranked = seq[np.lexsort((seq, total, -edges.sum(axis=1)))]
    for row in base[:, _PERMS].reshape(-1, 4)[ranked].tolist():
        wedges = tuple(Wedge(points[i], Direction(row[i]), 90.0) for i in range(4))
        if verify_coverage(wedges):
            return QuadrupletOrientation(wedges=wedges)  # type: ignore[arg-type]
    raise GadgetSearchFailed(f"no covering wedge assignment found for {points}")


def _cone(w: Wedge) -> tuple[float, float, float, float, float, float]:
    """Apex and unit bounding rays (right, left) of a wedge widened by
    ``ANGLE_TOL_DEG`` on each side, as ``Wedge.contains`` widens it."""
    half = w.aperture_deg / 2.0 + ANGLE_TOL_DEG
    right = math.radians(w.bisector.degrees - half)
    left = math.radians(w.bisector.degrees + half)
    return w.apex.x, w.apex.y, math.cos(right), math.sin(right), math.cos(left), math.sin(left)


def verify_coverage(wedges: Sequence[Wedge]) -> bool:
    """Decide exactly whether the union of unbounded wedges covers the plane.

    Each wedge is widened by ``ANGLE_TOL_DEG`` on each side, as
    ``Wedge.contains`` does, and taken as a closed cone; apertures must stay
    below 180 degrees, so each cone is the intersection of two closed
    half-planes. The union covers the plane iff every bounding ray lies in
    the union of the other wedges, each taken from the ray's outer side: a
    ray point outside them has uncovered points right beside it, and an
    uncovered region's edge runs along some ray outside every other wedge.
    Another wedge meets a ray a + t u (t >= 0) in one closed t-interval,
    from two linear inequalities in apex differences; a sweep over each
    ray's sorted intervals finds any gap on [0, inf).
    """
    wedges = list(wedges)
    if not wedges:
        return False
    if any(w.radius is not None for w in wedges):
        raise ValueError("coverage verification applies to unbounded wedges only")
    if any(w.aperture_deg + 2.0 * ANGLE_TOL_DEG >= 180.0 for w in wedges):
        raise ValueError("coverage verification needs apertures below 180 degrees")
    cones = [_cone(w) for w in wedges]
    for i, (ax, ay, rx, ry, lx, ly) in enumerate(cones):
        # Ray direction (ux, uy) and outer normal (nx, ny): a cone lies
        # counterclockwise of its right ray and clockwise of its left ray.
        for ux, uy, nx, ny in ((rx, ry, ry, -rx), (lx, ly, -ly, lx)):
            spans = []
            for j, (bx, by, sx, sy, ex, ey) in enumerate(cones):
                if j == i:
                    continue
                dx, dy = ax - bx, ay - by
                lo, hi = 0.0, math.inf
                # cross(s, d + t u) >= 0 and cross(d + t u, e) >= 0, each as
                # c + t g >= 0; on a ray parallel to the boundary line the
                # outer normal's side decides the case c == 0.
                for c, g, side in (
                    (sx * dy - sy * dx, sx * uy - sy * ux, sx * ny - sy * nx),
                    (dx * ey - dy * ex, ux * ey - uy * ex, nx * ey - ny * ex),
                ):
                    if g > 0.0:
                        lo = max(lo, -c / g)
                    elif g < 0.0:
                        hi = min(hi, -c / g)
                    elif c < 0.0 or (c == 0.0 and side < 0.0):
                        hi = -1.0
                if lo <= hi:
                    spans.append((lo, hi))
            spans.sort()
            reach = 0.0
            for lo, hi in spans:
                if lo > reach:
                    return False
                reach = max(reach, hi)
            if reach < math.inf:
                return False
    return True
