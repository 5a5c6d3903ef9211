"""Two-point weighted shortest paths by refraction shooting.

Scans launch angles, tracing the whole fan of rays in lockstep to the line
through the target perpendicular to the endpoint chord, and bisects the
transverse miss between sign changes, one scalar ray at a time, to within
tol or until the midpoint rounds onto an end, as it does across a jump.
Smooth refracted rays cannot produce corner routes around slow obstacles,
so explicit candidates (the straight chord, obstacle-corner routes, rim
wraps around a slow disk) compete with every converged ray and the
cheapest valid path wins.
"""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .paths import Polyline, rim_wrap, weighted_length
from .snell import TotalInternalReflection
from .tracing import TraceError, trace_fan, trace_layered_ray
from .weights import LayeredWeight, RadialWeight, WeightField

DEFAULT_SCAN_ANGLES = 2048


def _aim(a, b):
    """The unit chord direction from a to b and the stop line through b
    perpendicular to it."""
    d = (b[0] - a[0], b[1] - a[1])
    nrm = math.hypot(*d)
    u = (d[0] / nrm, d[1] / nrm)
    return u, (u[0], u[1], u[0] * b[0] + u[1] * b[1])


def _miss(e, a, b, u):
    """Signed transverse offset from b of the end points e on the stop line,
    NaN where an end lies behind a or is NaN."""
    along = (e[..., 0] - a[0]) * u[0] + (e[..., 1] - a[1]) * u[1]
    miss = -(e[..., 0] - b[0]) * u[1] + (e[..., 1] - b[1]) * u[0]
    return np.where(along < 0.0, math.nan, miss)


def _perp_miss(w, a, b, theta, n_shells):
    """Signed transverse offset of the ray's hit on the through-b line."""
    u, stop = _aim(a, b)
    try:
        path = trace_layered_ray(w, a, theta, stop, n_shells=n_shells)
    except (TraceError, TotalInternalReflection):
        return math.nan, None
    return float(_miss(path.as_array()[-1], a, b, u)), path


def _scan_angles(w, a, b, scan_angles):
    """(a, b, swapped, thetas): the endpoints in launch order, whether they
    were swapped, and the scan's launch angles."""
    if not isinstance(w, LayeredWeight):
        return a, b, False, np.linspace(-math.pi, math.pi, scan_angles,
                                        endpoint=False)
    thetas = np.linspace(-math.pi / 2, math.pi / 2, scan_angles + 2)[1:-1]
    # Layered rays only travel downward, so launch from the higher end.
    return (b, a, True, thetas) if a[1] < b[1] else (a, b, False, thetas)


def _scan_candidates(w, a, b, tol, n_shells, scan_angles):
    a, b, swapped, thetas = _scan_angles(w, a, b, scan_angles)
    u, stop = _aim(a, b)
    misses = _miss(trace_fan(w, a, thetas, stop, n_shells), a, b, u)
    m0, m1 = misses[:-1], misses[1:]
    out = []
    # NaN compares False, so a bracket needs two finite misses
    for i in np.flatnonzero((m0 > 0) & (m1 <= 0) | (m0 <= 0) & (m1 > 0)):
        lo, hi, flo = float(thetas[i]), float(thetas[i + 1]), m0[i]
        path = None
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm, pm = _perp_miss(w, a, b, mid, n_shells)
            if math.isnan(fm):
                break
            path = pm
            # once mid rounds onto an end, every later step retraces it
            if abs(fm) < tol or mid == lo or mid == hi:
                break
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        if path is not None:
            e = path.as_array()[-1]
            if math.hypot(e[0] - b[0], e[1] - b[1]) < max(tol * 10, 1e-6):
                verts = np.vstack([path.as_array()[:-1], [b]])
                out.append(Polyline.from_points(
                    verts[::-1] if swapped else verts))
    return out


def _corner_routes(w, a, b) -> list[Polyline]:
    corners = [p for p in w.corner_points()
               if min(a[0], b[0]) - 1e-12 < p[0] < max(a[0], b[0]) + 1e-12]
    if not corners or abs(b[0] - a[0]) < 1e-12:
        return []
    lo, hi = (a, b) if a[0] <= b[0] else (b, a)
    # sorted, so each combination runs in x order from lo to hi
    corners.sort()
    return [Polyline.from_points(np.array([lo, *combo, hi]))
            for k in range(1, min(w.max_corners, len(corners)) + 1)
            for combo in combinations(corners, k)]


def _rim_wraps(w, a, b) -> list[Polyline]:
    """Tangent-arc-tangent candidates both ways around each slow disk."""
    wraps = [rim_wrap(a, b, r, s) for r in w.rim_radii() for s in (1.0, -1.0)]
    return [path for path in wraps if path is not None]


def shoot_two_point(w: WeightField, a, b, tol: float = 1e-9,
                    n_shells: int = 1024,
                    scan_angles: int = DEFAULT_SCAN_ANGLES
                    ) -> tuple[Polyline, float]:
    """Cheapest found path between interior/boundary points a and b.

    Returns (path, weighted length).  For weights without a ray tracer
    (constant, multi-diamond, custom piecewise) only the explicit candidates
    compete; the grid oracle is the fallback for anything more general.
    """
    a = (float(a[0]), float(a[1]))
    b = (float(b[0]), float(b[1]))
    if math.hypot(*a) > 1 + 1e-9 or math.hypot(*b) > 1 + 1e-9:
        raise ValueError("endpoints must lie in the closed unit disk")
    if math.hypot(a[0] - b[0], a[1] - b[1]) < 1e-15:
        raise ValueError("endpoints coincide")
    candidates = [Polyline((a, b)), *_corner_routes(w, a, b),
                  *_rim_wraps(w, a, b)]
    if isinstance(w, (RadialWeight, LayeredWeight)):
        candidates += _scan_candidates(w, a, b, tol, n_shells, scan_angles)
    costs = weighted_length(candidates, w)
    k = int(np.argmin(costs))
    return candidates[k], float(costs[k])
