"""Wedge-orientation gadgets for small point groups.

Three recipes live here:

* ``orient_triplet`` — 120-degree wedges for any three points, guaranteeing
  two induced edges (a 2-edge spanning path centered on the smallest-angle
  vertex) and full plane coverage by the wedge union; every triplet of a
  solve or convert is oriented in one numpy pass.
* ``orient_quadruplet`` — 90-degree wedges for any four points, found by a
  deterministic candidate search: all candidates are scored in one numpy
  pass, and the best-ranked one with a connected induced graph whose wedges
  cover the plane (``verify_coverage``) wins.
* ``orient_pair`` — two facing wedges, the trivial case.

``aim_leftovers`` gives points outside any gadget a wedge aimed at a gadget
wedge that covers them, which makes the edge between the two mutual. Both
work on ``wedge_columns`` rows.

``verify_coverage`` decides plane coverage of a wedge family exactly, from
the wedges' bounding rays: the union covers the plane iff each ray lies in
the union of the other wedges.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GadgetSearchFailed, GuaranteeViolation
from .geom import (
    ANGLE_TOL_DEG,
    Direction,
    PointSet,
    Wedge,
    coordinates,
    direction,
    edge_directions,
    normalize_degrees,
)
from .graph import _covers, _vertex_arrays, edge_lengths

# Canonical triplet bisectors by role: smallest triangle angle faces along the
# base, the other two complete an exact 3-way partition of directions.
_CANON_BASE_LEFT = 0.0
_CANON_BASE_RIGHT = 120.0
_CANON_PEAK = 240.0


@dataclass(frozen=True, eq=False)
class TripletOrientation:
    """k triplets with 120-degree wedges: ``bisectors[r, j]`` is the bisector
    of triplet r's point j, in degrees; ``roles[r]`` holds the positions of
    base_left (smallest angle), base_right and peak (largest), whose
    bisectors are exactly 0 / 120 / 240 in the canonical frame (base
    horizontal, peak on or above it unless ``reflected[r]``)."""

    bisectors: np.ndarray
    roles: np.ndarray
    reflected: np.ndarray

    @property
    def tree_edges(self) -> np.ndarray:
        """The guaranteed edges (peak, base_left), (base_left, base_right): (k, 2, 2) positions."""
        return self.roles[:, [[2, 0], [0, 1]]]


@dataclass(frozen=True)
class QuadrupletOrientation:
    """Four 90-degree wedges with connected induced graph and plane coverage."""

    wedges: tuple[Wedge, Wedge, Wedge, Wedge]


# Triplet side s joins positions _SIDE_A[s] and _SIDE_B[s]; the corner at
# position c lies between sides _SIDE_A[c] and _SIDE_B[c], opposite _OPP[c].
_SIDE_A, _SIDE_B, _OPP = np.array([0, 0, 1]), np.array([1, 2, 2]), np.array([2, 1, 0])
_SIDES = np.column_stack((_SIDE_A, _SIDE_B))
# Column _DIRECTED[i, j] of dirs (sides' directions, then their reverses) runs from i to j.
_DIRECTED = np.array([[-1, 0, 1], [3, -1, 2], [4, 5, -1]])
# The guaranteed edges' four ends as (from, to) roles: base_left to peak and
# back, base_left to base_right (the base line) and back.
_END_FROM, _END_TO = np.array([0, 2, 0, 1]), np.array([2, 0, 1, 0])
# Distinct points lie more than 1e-9 apart and a finite side is below
# 2**1024, so sides scaled by this exact power of two stay normal floats
# whose squares and products are finite.
_HUGE_SCALE = 2.0**-520


def _cosines(side: np.ndarray) -> np.ndarray:
    """Each triangle's corner cosines from its (k, 3) sides by the law of cosines, exactly
    symmetric under symmetric inputs, so that angle ties fall to the index tie-break."""
    a, b, o = side[:, _SIDE_A], side[:, _SIDE_B], side[:, _OPP]
    return (a * a + b * b - o * o) / (2.0 * a * b)


def orient_triplet(points: PointSet, triplets) -> TripletOrientation:
    """Orient 120-degree wedges on the k triplets of points named by the
    rows of the (k, 3) index array ``triplets``, in one numpy pass.

    Roles go by ascending triangle angle (ties by position); the canonical
    bisectors map back through the rigid motion that places the base
    horizontal, reflected when the peak lies below the base line (collinear
    triplets too: the closed boundary keeps both guaranteed edges).
    ``math.atan2``, ``math.hypot`` and ``math.acos`` run per element, so
    each row's bits are those of the triplet oriented alone. Where squares
    overflow (sides above ~1e154), the row's sides and differences are
    scaled by ``_HUGE_SCALE`` first. Both guarantees, the two gadget edges
    and plane coverage, are checked on every row; the first failing row
    raises GuaranteeViolation.
    """
    tri = np.asarray(triplets, dtype=np.intp).reshape(-1, 3)
    k = len(tri)
    rows = np.arange(k)[:, None]
    sides = tri[:, _SIDES].reshape(-1, 2)
    ahead = edge_directions(points, sides).reshape(k, 3)
    dirs = np.concatenate((ahead, (ahead + 180.0) % 360.0), axis=1)
    xy = coordinates(points)
    side = np.fromiter(map(math.hypot, *(xy[sides[:, 1]] - xy[sides[:, 0]]).T.tolist()), float, 3 * k).reshape(k, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        cos = _cosines(side)
        huge = ~np.isfinite(cos).all(axis=1)
        if huge.any():
            cos[huge] = _cosines(side[huge] * _HUGE_SCALE)
        cos = np.minimum(np.maximum(cos, -1.0), 1.0).ravel().tolist()
        roles = np.degrees(np.fromiter(map(math.acos, cos), float, 3 * k)).reshape(k, 3).argsort(kind="stable")
        corner = xy[tri[rows, roles]]  # (k, 3, 2): base_left, base_right, peak
        vw = corner[:, 1:] - corner[:, :1]
        if huge.any():
            vw[huge] *= _HUGE_SCALE
        reflected = vw[:, 0, 0] * vw[:, 1, 1] - vw[:, 0, 1] * vw[:, 1, 0] < 0.0
    ends = dirs[rows, _DIRECTED[roles[:, _END_FROM], roles[:, _END_TO]]]
    canon = np.array([_CANON_BASE_LEFT, _CANON_BASE_RIGHT, _CANON_PEAK])
    by_role = normalize_degrees(ends[:, 2:3] + np.where(reflected[:, None], -canon, canon))
    offset = (ends - by_role[:, _END_FROM] + 180.0) % 360.0 - 180.0
    lost = ~(np.abs(offset) <= 60.0 + ANGLE_TOL_DEG).all(axis=1)
    # The wedges cover every direction iff no gap between circularly
    # consecutive bisectors exceeds the aperture (spanning_arc's gaps).
    ring = np.sort(by_role, axis=1)
    ring = np.concatenate((ring, ring[:, :1] + 360.0), axis=1)
    uncovered = 360.0 - (360.0 - (ring[:, 1:] - ring[:, :-1]).max(axis=1, initial=0.0)) > 120.0 + ANGLE_TOL_DEG
    bisectors = np.empty((k, 3))
    bisectors[rows, roles] = by_role
    for bad in (lost | uncovered).nonzero()[0][:1].tolist():
        what = "lost a guaranteed edge" if lost[bad] else "leaves a direction uncovered"
        group = tuple(points[i] for i in tri[bad].tolist())
        raise GuaranteeViolation(f"triplet gadget with bisectors {bisectors[bad].tolist()} {what} on {group}")
    return TripletOrientation(bisectors, roles, reflected)


def orient_pair(points: PointSet, aperture_deg: float) -> tuple[Wedge, Wedge]:
    """Two wedges whose bisectors face each other, guaranteeing the edge."""
    if len(points) != 2:
        raise ValueError(f"orient_pair requires exactly 2 points, got {len(points)}")
    p, q = points
    d = direction(p, q)
    return Wedge(p, d, aperture_deg), Wedge(q, d.opposite(), aperture_deg)


def aim_leftovers(
    points: PointSet,
    wedges: np.ndarray,
    leftovers: Sequence[int],
    hosts: Sequence[Sequence[int]],
    aperture_deg: float,
    radius: float = math.inf,
) -> list[tuple[int, int]]:
    """Aim each leftover's wedge at the apex of the nearest (then lowest)
    wedge of its host group (``hosts[k]`` for ``leftovers[k]``) that covers
    it, by ``Wedge.contains``' rules (``graph._covers``), so the edge is
    mutual; a host gadget covers the plane, so one exists. ``wedges`` holds
    ``wedge_columns`` rows, apexes at the points; the leftovers' rows are
    written in place. Returns the new edges."""
    if not len(leftovers):
        return []
    xy = coordinates(points)
    count = len(leftovers)
    owner = np.repeat(np.arange(count), [len(h) for h in hosts])
    p = np.asarray(leftovers, dtype=np.intp)[owner]
    x = np.fromiter(itertools.chain.from_iterable(hosts), np.intp, len(owner))
    covers = _covers(_vertex_arrays(xy, wedges), x, p)
    for k in (np.bincount(owner[covers], minlength=count) == 0).nonzero()[0][:1].tolist():
        raise GuaranteeViolation(f"gadget wedges of group {tuple(hosts[k])} do not cover point {leftovers[k]}")
    # Each leftover's covering hosts by (distance, index); the first wins.
    order = np.lexsort((x, edge_lengths(xy, p, x), owner))
    order = order[covers[order]]
    first = order[owner[order].searchsorted(np.arange(count))]
    p, x = p[first], x[first]
    wedges[p, 0] = edge_directions(points, np.column_stack((p, x)))
    wedges[p, 1:] = aperture_deg, radius
    return list(zip(p.tolist(), x.tolist()))


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
    ``orient_triplet``'s. Candidates with a connected induced graph are
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
