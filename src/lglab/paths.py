"""Polylines and weighted arc length.

The central quantity is the line integral of a weight w along a polyline.
Each weight declares its interfaces (WeightField.interfaces): lines off
which it is affine, and the l1 and l2 circles it jumps or kinks on.  Cut at
those, the integrand along every piece is affine in arc length, so one
midpoint per piece is exact up to floating point.  weighted_length makes
the cuts for a polyline, or a whole list of them, in one pass per kind.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .weights import WeightField, circle_hits

RIM_STEP = 2e-3
RIM_LIFT = 2e-6


class Polyline:
    """Ordered plane points; consecutive vertices must be distinct.

    Held as one read-only (N, 2) float64 array, validated once.
    """

    def __init__(self, vertices):
        arr = np.array(vertices, dtype=float, order="C")
        if len(arr) < 2:
            raise ValueError("polyline needs at least 2 vertices")
        if arr.ndim != 2 or arr.shape[1] != 2 or not np.all(np.isfinite(arr)):
            raise ValueError("vertices must be finite plane points")
        steps = np.diff(arr, axis=0)
        if np.any(np.hypot(steps[:, 0], steps[:, 1]) == 0.0):
            raise ValueError("consecutive vertices must be distinct")
        arr.flags.writeable = False
        self._arr = arr

    @classmethod
    def from_points(cls, points) -> "Polyline":
        """Polyline through the points, dropping exact consecutive repeats."""
        arr = np.asarray(points, dtype=float)
        keep = np.concatenate([[True], np.any(np.diff(arr, axis=0) != 0.0,
                                              axis=1)])
        return cls(arr[keep])

    @property
    def vertices(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(*self._arr.T.tolist()))

    def __eq__(self, other):
        return isinstance(other, Polyline) and np.array_equal(self._arr,
                                                              other._arr)

    def __repr__(self):
        return f"Polyline({self.vertices!r})"

    def as_array(self) -> np.ndarray:
        return self._arr


def segment(a, b) -> Polyline:
    return Polyline(((float(a[0]), float(a[1])), (float(b[0]), float(b[1]))))


def rim_wrap(a, b, rho, sign) -> Polyline | None:
    """Tangent + rim arc + tangent from a to b around the disk of radius rho,
    or None when a or b lies inside it or the arc is not in (1e-9, 3pi/2).
    An end on the rim, to a relative 1e-12, starts or ends on the arc.

    sign = +1 wraps clockwise (over the top for a left of b), -1
    counterclockwise.  The arc is sampled every RIM_STEP radians on a circle
    lifted by the relative RIM_LIFT, more than the 5e-7 sagitta of one step,
    so that its chords stay outside the disk.
    """
    ra, rb = math.hypot(*a), math.hypot(*b)
    if min(ra, rb) < rho * (1.0 - 1e-12):
        return None
    # the tangent points' polar angles in the frame mirrored by sign
    phi_a = math.atan2(sign * a[1], a[0]) - math.acos(min(1.0, rho / ra))
    phi_b = math.atan2(sign * b[1], b[0]) + math.acos(min(1.0, rho / rb))
    arc = (phi_a - phi_b) % (2.0 * math.pi)
    if not 1e-9 < arc < 1.5 * math.pi:
        return None
    end = phi_a - arc
    r = rho * (1.0 + RIM_LIFT)
    n_arc = max(2, int(math.ceil((phi_a - end) / RIM_STEP)) + 1)
    phis = np.linspace(phi_a, end, n_arc)
    rim = np.column_stack([r * np.cos(phis), sign * r * np.sin(phis)])
    return Polyline.from_points(np.vstack([[a], rim, [b]]))


@lru_cache(maxsize=64)
def _interfaces(w: WeightField):
    """w.interfaces() without repeats, each kind as three read-only (k, 1)
    columns: (nx, ny, c) for the lines, (cx, cy, r) for the circles."""
    out = []
    for rows in w.interfaces():
        rows = sorted({tuple(map(float, row)) for row in rows})
        cols = np.array(rows).reshape(-1, 3).T[:, :, None].copy()
        cols.setflags(write=False)
        out.append(cols)
    return tuple(out)


def _cut(pts, i, s):
    """pts with the points at params s of pieces i inserted in path order.

    Each row moves as one complex number: a masked copy of (n, 2) rows is
    several times slower.
    """
    if not len(i):
        return pts
    order = np.lexsort((s, i))
    i, s = i[order], s[order]
    at = i + np.arange(1, len(i) + 1)
    keep = np.ones(len(pts) + len(i), dtype=bool)
    keep[at] = False
    out = np.empty(len(keep), dtype=complex)
    out[keep] = pts.view(complex).ravel()
    out[at] = (pts[i] + s[:, None] * (pts[i + 1] - pts[i])).view(
        complex).ravel()
    return out.view(float).reshape(-1, 2)


def _cut_sign_changes(pts, f):
    """Cut where a row of f, affine on every piece, changes sign."""
    k, i = np.nonzero(f[:, :-1] * f[:, 1:] < 0)
    return _cut(pts, i, f[k, i] / (f[k, i] - f[k, i + 1]))


def _cut_circles(pts, cx, cy, r):
    """Cut at both roots in (0, 1) of each piece's l2 circle quadratics."""
    dx, dy = np.diff(pts[:, 0]), np.diff(pts[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        disc, *hits = circle_hits((pts[:-1, 0] - cx, pts[:-1, 1] - cy),
                                  (dx, dy), r)
    # pieces of zero (or underflowing) length have no roots
    k, i = np.nonzero((disc > 0) & (dx * dx + dy * dy > 0))
    s = np.concatenate([t[k, i] for t in hits])
    i = np.concatenate([i, i])
    inside = (0.0 < s) & (s < 1.0)
    return _cut(pts, i[inside], s[inside])


def weighted_length(path: Polyline | list[Polyline],
                    w: WeightField) -> float | list[float]:
    """Line integral of w along the polyline, or the list of them along a
    list of polylines, each bit for bit its own call's.

    Exact (up to floating point) for every catalog weight.  The polyline is
    cut where it crosses an interface line, then where the l1 distance to
    an l1 circle's centre, affine on every piece by now, crosses the
    radius, then at both roots of each l2 circle's quadratic; one midpoint
    prices each piece.  A list is priced in one pass, joined by NaN rows,
    which fail every interface test.  A cost too large for a float (a huge
    weight) is inf, without a warning; the callers that take the cheapest
    option pass over it.
    """
    lines, l1, l2 = _interfaces(w)
    many = isinstance(path, list)
    gap = np.full((1, 2), np.nan)
    pts = (np.concatenate([a for r in path for a in (gap, r.as_array())][1:])
           if many else path.as_array())
    if lines.size:
        nx, ny, c = lines
        pts = _cut_sign_changes(pts, nx * pts[:, 0] + ny * pts[:, 1] - c)
    if l1.size:
        cx, cy, r = l1
        pts = _cut_sign_changes(
            pts, np.abs(pts[:, 0] - cx) + np.abs(pts[:, 1] - cy) - r)
    if l2.size:
        pts = _cut_circles(pts, *l2)
    d = np.diff(pts, axis=0)
    mid = pts[:-1] + 0.5 * d
    with np.errstate(over="ignore", invalid="ignore"):
        cost = w.values(mid[:, 0], mid[:, 1]) * np.hypot(d[:, 0], d[:, 1])
        if not many:
            return float(cost.sum())
        # polyline k: pieces from past gap k - 1 to the vertex before gap k
        gaps = np.flatnonzero(np.isnan(pts[:, 0])).tolist()
        return [float(cost[a:b - 1].sum()) for a, b in
                zip([0, *(g + 1 for g in gaps)], [*gaps, len(pts)])]
