"""Deterministic instance generators for the CLI and the test suites.

All randomness comes from numpy's PCG64 bit generator seeded with the given
64-bit seed, so a (generator, seed) pair always produces identical bytes.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import UnknownGeneratorError, WedgespanError
from .geom import Point
from .oracle import hex_grid_of_cells, square_grid_graph, square_grid_reduction


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise WedgespanError(f"seed must be at least 0, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def _points(xy) -> list[Point]:
    """Points at the (x, y) pairs; a coordinate past the float range, which
    large parameters can give, raises WedgespanError."""
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    if not np.isfinite(xy).all():
        raise WedgespanError("the parameters put a point beyond the float range")
    return [Point(x, y) for x, y in xy.tolist()]


def _distinct(points: list[Point]) -> bool:
    return len({(p.x, p.y) for p in points}) == len(points)


def _check(n: int = 0, clusters: int = 1, **lengths: float) -> None:
    """Raise WedgespanError on a negative n, fewer than one cluster, or a
    length (side, spread, gap) that is not positive and finite."""
    if n < 0:
        raise WedgespanError(f"n must be at least 0, got {n}")
    if clusters < 1:
        raise WedgespanError(f"clusters must be at least 1, got {clusters}")
    for name, value in lengths.items():
        if not 0.0 < value < math.inf:
            raise WedgespanError(f"{name} must be a positive finite number, got {value}")


def uniform_square(n: int, side: float = 1.0, seed: int = 0) -> list[Point]:
    """n points i.i.d. uniform in the side x side square."""
    _check(n=n, side=side)
    rng = _rng(seed)
    while True:
        points = _points(rng.uniform(0.0, side, size=(n, 2)))
        if _distinct(points):
            return points


def clustered(
    n: int, clusters: int = 3, spread: float = 0.05, side: float = 1.0, seed: int = 0
) -> list[Point]:
    """n points in gaussian blobs around uniformly placed cluster centers."""
    _check(n=n, clusters=clusters, spread=spread, side=side)
    rng = _rng(seed)
    while True:
        centers = rng.uniform(0.0, side, size=(clusters, 2))
        offsets = rng.normal(0.0, spread, size=(n, 2))
        with np.errstate(over="ignore"):
            points = _points(centers[np.arange(n) % clusters] + offsets)
        if _distinct(points):
            return points


def collinear(n: int, gap: float = 1.0) -> list[Point]:
    """n equally spaced points on the x axis."""
    _check(n=n, gap=gap)
    return _points([(i * gap, 0.0) for i in range(n)])


def equilateral(side: float = 1.0) -> list[Point]:
    """Equilateral triangle corners, the apex at height side / 2 * sqrt(3).
    Halving first cannot overflow for any finite side, and halving is exact,
    so the heights equal ``side * sqrt(3) / 2`` (and ``/ 6``) bit for bit
    whenever side / 2 is a normal float."""
    _check(side=side)
    return _points([(0.0, 0.0), (side, 0.0), (side / 2.0, side / 2.0 * math.sqrt(3.0))])


def equilateral_with_center(side: float = 1.0) -> list[Point]:
    """Equilateral triangle corners plus the center of their circumscribed circle."""
    return equilateral(side) + [Point(side / 2.0, side / 2.0 * math.sqrt(3.0) / 3.0)]


def square_grid_reduction_points(width: int = 2, height: int = 3) -> list[Point]:
    """Points of the square-grid hardness reduction on a degree-<=3 grid.

    Ladder grids (min dimension <= 2) are used as-is; wider grids are carved
    into a comb (full bottom row plus teeth on even columns) to respect the
    maximum-degree-3 requirement.
    """
    if width < 1 or height < 1:
        raise WedgespanError("grid dimensions must be positive")
    if min(width, height) <= 2:
        coords = [(x, y) for y in range(height) for x in range(width)]
    else:
        coords = [(x, 0) for x in range(width)]
        coords += [(x, y) for x in range(0, width, 2) for y in range(1, height)]
    instance = square_grid_reduction(square_grid_graph(coords))
    return list(instance.points)


def hex_grid_points(rows: int = 1) -> list[Point]:
    """Vertices of a vertical column of unit hexagons (6 + 4*(rows-1) points)."""
    if rows < 1:
        raise WedgespanError("rows must be positive")
    return list(hex_grid_of_cells([(0, r) for r in range(rows)]).vertices)


# Each generator's function and the ``gen`` flags it takes, which are its
# keyword arguments, in the key order of an instance's ``meta.params``.
_GENERATORS: dict[str, tuple[Callable[..., list[Point]], tuple[str, ...]]] = {
    "uniform-square": (uniform_square, ("n", "seed", "side")),
    "clustered": (clustered, ("n", "seed", "side", "clusters", "spread")),
    "collinear": (collinear, ("n", "gap")),
    "equilateral": (equilateral, ("side",)),
    "equilateral-center": (equilateral_with_center, ("side",)),
    "square-grid-reduction": (square_grid_reduction_points, ("width", "height")),
    "hex-grid": (hex_grid_points, ("rows",)),
}

GENERATOR_NAMES = tuple(sorted(_GENERATORS))


def generate(name: str, **params) -> list[Point]:
    """Dispatch to a named generator; unknown names raise UnknownGeneratorError."""
    if name not in _GENERATORS:
        raise UnknownGeneratorError(
            f"unknown generator {name!r}; available: {', '.join(GENERATOR_NAMES)}"
        )
    return _GENERATORS[name][0](**params)
