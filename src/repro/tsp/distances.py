"""TSPLIB-conformant distance functions.

Every function in this module maps coordinate arrays to *integer* edge
weights following the rounding conventions of Reinelt's TSPLIB (the format
used by the paper's testbed).  Two calling styles are supported:

* ``pairwise(coords)`` — full ``(n, n)`` matrix, vectorized;
* ``rows(coords, i, js)`` — distances from city ``i`` to an index array
  ``js`` without materializing the matrix (used for large instances).

All distances are symmetric and satisfy ``d[i, i] == 0``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "EDGE_WEIGHT_TYPES",
    "euc_2d",
    "ceil_2d",
    "man_2d",
    "max_2d",
    "att",
    "geo",
    "pairwise_matrix",
    "row_distances",
    "distance_closure",
]

#: Earth radius used by TSPLIB's GEO distance, in kilometres.
GEO_RADIUS = 6378.388

#: Edge-weight types implemented here (subset of TSPLIB spec that covers
#: every instance class used in the paper).
EDGE_WEIGHT_TYPES = ("EUC_2D", "CEIL_2D", "MAN_2D", "MAX_2D", "ATT", "GEO", "EXPLICIT")


def _as_coords(coords: np.ndarray) -> np.ndarray:
    arr = np.asarray(coords, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"coords must have shape (n, 2), got {arr.shape}")
    return arr


def _nint(x: np.ndarray) -> np.ndarray:
    # TSPLIB nint() is floor(x + 0.5), not round-half-to-even.
    return np.floor(x + 0.5).astype(np.int64)


def euc_2d(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Rounded Euclidean distance (TSPLIB ``EUC_2D``): nint(sqrt(dx^2+dy^2))."""
    return _nint(np.hypot(dx, dy))


def ceil_2d(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Ceiling Euclidean distance (TSPLIB ``CEIL_2D``)."""
    return np.ceil(np.hypot(dx, dy)).astype(np.int64)


def man_2d(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Rounded Manhattan distance (TSPLIB ``MAN_2D``)."""
    return _nint(np.abs(dx) + np.abs(dy))


def max_2d(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Rounded maximum-norm distance (TSPLIB ``MAX_2D``)."""
    return np.maximum(_nint(np.abs(dx)), _nint(np.abs(dy)))


def att(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Pseudo-Euclidean ATT distance (TSPLIB ``ATT``).

    ``r = sqrt((dx^2+dy^2)/10); t = nint(r); d = t+1 if t < r else t``
    """
    rij = np.sqrt((dx * dx + dy * dy) / 10.0)
    tij = np.floor(rij + 0.5)
    return np.where(tij < rij, tij + 1, tij).astype(np.int64)


def _geo_radians(coords: np.ndarray) -> np.ndarray:
    """Convert TSPLIB DDD.MM coordinates to radians (TSPLIB convention)."""
    deg = np.trunc(coords)
    minutes = coords - deg
    return math.pi * (deg + 5.0 * minutes / 3.0) / 180.0


def geo(coords_i: np.ndarray, coords_j: np.ndarray) -> np.ndarray:
    """Geographical distance (TSPLIB ``GEO``) between coordinate arrays.

    Unlike the planar metrics this one needs the raw coordinates rather than
    deltas; both arguments are ``(..., 2)`` latitude/longitude arrays in
    TSPLIB's DDD.MM format.
    """
    ri = _geo_radians(np.asarray(coords_i, dtype=np.float64))
    rj = _geo_radians(np.asarray(coords_j, dtype=np.float64))
    q1 = np.cos(ri[..., 1] - rj[..., 1])
    q2 = np.cos(ri[..., 0] - rj[..., 0])
    q3 = np.cos(ri[..., 0] + rj[..., 0])
    arg = 0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3)
    arg = np.clip(arg, -1.0, 1.0)
    return (GEO_RADIUS * np.arccos(arg) + 1.0).astype(np.int64)


_PLANAR = {
    "EUC_2D": euc_2d,
    "CEIL_2D": ceil_2d,
    "MAN_2D": man_2d,
    "MAX_2D": max_2d,
    "ATT": att,
}


def pairwise_matrix(coords: np.ndarray, edge_weight_type: str = "EUC_2D") -> np.ndarray:
    """Full symmetric ``(n, n)`` integer distance matrix.

    Memory is O(n^2); callers working with large instances should prefer
    :func:`row_distances` / :func:`distance_closure`.
    """
    coords = _as_coords(coords)
    if edge_weight_type == "GEO":
        return geo(coords[:, None, :], coords[None, :, :])
    try:
        fn = _PLANAR[edge_weight_type]
    except KeyError:
        raise ValueError(f"unsupported edge weight type: {edge_weight_type!r}") from None
    dx = coords[:, None, 0] - coords[None, :, 0]
    dy = coords[:, None, 1] - coords[None, :, 1]
    d = fn(dx, dy)
    np.fill_diagonal(d, 0)
    return d


def row_distances(
    coords: np.ndarray, i: int, js: np.ndarray, edge_weight_type: str = "EUC_2D"
) -> np.ndarray:
    """Distances from city ``i`` to each city in index array ``js``."""
    coords = _as_coords(coords)
    js = np.asarray(js, dtype=np.intp)
    if edge_weight_type == "GEO":
        return geo(coords[i], coords[js])
    try:
        fn = _PLANAR[edge_weight_type]
    except KeyError:
        raise ValueError(f"unsupported edge weight type: {edge_weight_type!r}") from None
    dx = coords[i, 0] - coords[js, 0]
    dy = coords[i, 1] - coords[js, 1]
    return fn(dx, dy)


def distance_closure(coords: np.ndarray, edge_weight_type: str = "EUC_2D"):
    """Return a scalar ``dist(i, j) -> int`` closure for the given metric.

    The closure backs ``TSPInstance.dist`` on matrix-free instances: the
    coordinate rows of :class:`~repro.localsearch.engine.DistView` call
    it once per pair they read, and code that touches too few pairs to
    justify vectorization calls it directly.
    """
    coords = _as_coords(coords)
    if edge_weight_type == "GEO":
        rad = _geo_radians(coords)

        def dist_geo(i: int, j: int) -> int:
            if i == j:
                return 0
            q1 = math.cos(rad[i, 1] - rad[j, 1])
            q2 = math.cos(rad[i, 0] - rad[j, 0])
            q3 = math.cos(rad[i, 0] + rad[j, 0])
            arg = 0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3)
            arg = min(1.0, max(-1.0, arg))
            return int(GEO_RADIUS * math.acos(arg) + 1.0)

        return dist_geo

    x = coords[:, 0]
    y = coords[:, 1]
    if edge_weight_type == "EUC_2D":

        def dist(i: int, j: int) -> int:
            return int(math.hypot(x[i] - x[j], y[i] - y[j]) + 0.5)

    elif edge_weight_type == "CEIL_2D":

        def dist(i: int, j: int) -> int:
            return math.ceil(math.hypot(x[i] - x[j], y[i] - y[j]))

    elif edge_weight_type == "MAN_2D":

        def dist(i: int, j: int) -> int:
            return int(abs(x[i] - x[j]) + abs(y[i] - y[j]) + 0.5)

    elif edge_weight_type == "MAX_2D":

        def dist(i: int, j: int) -> int:
            return int(max(int(abs(x[i] - x[j]) + 0.5), int(abs(y[i] - y[j]) + 0.5)))

    elif edge_weight_type == "ATT":

        def dist(i: int, j: int) -> int:
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            r = math.sqrt((dx * dx + dy * dy) / 10.0)
            t = int(r + 0.5)
            return t + 1 if t < r else t

    else:
        raise ValueError(f"unsupported edge weight type: {edge_weight_type!r}")
    return dist
