"""Two-point weighted shortest paths by refraction shooting.

Scans launch angles, traces each ray to the line through the target
perpendicular to the endpoint chord, and bisects the transverse miss to
zero between sign changes.  Smooth refracted rays cannot produce corner
routes around slow obstacles, so explicit candidates (the straight chord,
obstacle-corner routes, rim wraps around a slow disk) compete with every
converged ray and the cheapest valid path wins.
"""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .paths import Polyline, rim_wrap, weighted_length
from .snell import TotalInternalReflection
from .tracing import TraceError, trace_layered_ray
from .weights import ConstantWeight, LayeredWeight, RadialWeight, WeightField

DEFAULT_SCAN_ANGLES = 2048


def _perp_miss(w, a, b, theta, n_shells):
    """Signed transverse offset of the ray's hit on the through-b line."""
    d = (b[0] - a[0], b[1] - a[1])
    nrm = math.hypot(*d)
    u = (d[0] / nrm, d[1] / nrm)
    stop = ("line", u[0], u[1], u[0] * b[0] + u[1] * b[1])
    try:
        path = trace_layered_ray(w, a, theta, stop, n_shells=n_shells)
    except (TraceError, TotalInternalReflection):
        return math.nan, None
    e = path.as_array()[-1]
    along = (e[0] - a[0]) * u[0] + (e[1] - a[1]) * u[1]
    if along < 0.0:
        return math.nan, None
    miss = -(e[0] - b[0]) * u[1] + (e[1] - b[1]) * u[0]
    return miss, path


def _scan_candidates(w, a, b, tol, n_shells, scan_angles):
    swapped = False
    if isinstance(w, LayeredWeight):
        # Layered rays only travel downward, so launch from the higher end.
        if a[1] < b[1]:
            a, b, swapped = b, a, True
        thetas = np.linspace(-math.pi / 2, math.pi / 2, scan_angles + 2)[1:-1]
    else:
        thetas = np.linspace(-math.pi, math.pi, scan_angles, endpoint=False)
    misses = np.full(scan_angles, math.nan)
    for i, th in enumerate(thetas):
        misses[i], _ = _perp_miss(w, a, b, float(th), n_shells)
    out = []
    for i in range(scan_angles - 1):
        m0, m1 = misses[i], misses[i + 1]
        if math.isnan(m0) or math.isnan(m1) or (m0 > 0) == (m1 > 0):
            continue
        lo, hi, flo = float(thetas[i]), float(thetas[i + 1]), m0
        path = None
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm, pm = _perp_miss(w, a, b, mid, n_shells)
            if math.isnan(fm):
                break
            path = pm
            if abs(fm) < tol:
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
    corners.sort()
    routes = []
    for k in range(1, min(w.max_corners, len(corners)) + 1):
        for combo in combinations(corners, k):
            xs = [p[0] for p in combo]
            if any(x2 - x1 < -1e-12 for x1, x2 in zip(xs, xs[1:])):
                continue
            try:
                routes.append(Polyline.from_points(
                    np.array([lo, *combo, hi])))
            except ValueError:
                continue
    return routes


def _rim_wraps(w, a, b) -> list[Polyline]:
    """Tangent-arc-tangent candidates both ways around each slow disk."""
    ra, rb = math.hypot(*a), math.hypot(*b)
    out = []
    for rho in w.rim_radii():
        if ra <= rho or rb <= rho:
            continue
        for sign in (+1.0, -1.0):
            # tangent-point angles in the frame mirrored by sign
            phi_a = math.atan2(sign * a[1], a[0]) - math.acos(rho / ra)
            phi_b = math.atan2(sign * b[1], b[0]) + math.acos(rho / rb)
            arc = (phi_a - phi_b) % (2.0 * math.pi)
            if 1e-9 < arc < math.pi * 1.5:
                out.append(rim_wrap(a, b, rho, phi_a, phi_a - arc, sign))
    return out


def shoot_two_point(w: WeightField, a, b, tol: float = 1e-9,
                    n_shells: int = 1024,
                    scan_angles: int = DEFAULT_SCAN_ANGLES
                    ) -> tuple[Polyline, float]:
    """Cheapest found path between interior/boundary points a and b.

    Returns (path, weighted length).  For weights without a ray tracer
    (multi-diamond, custom piecewise) only the explicit candidates compete;
    the grid oracle is the fallback for anything more general.
    """
    a = (float(a[0]), float(a[1]))
    b = (float(b[0]), float(b[1]))
    if math.hypot(*a) > 1 + 1e-9 or math.hypot(*b) > 1 + 1e-9:
        raise ValueError("endpoints must lie in the closed unit disk")
    if math.hypot(a[0] - b[0], a[1] - b[1]) < 1e-15:
        raise ValueError("endpoints coincide")
    chord = Polyline((a, b))
    if isinstance(w, ConstantWeight):
        return chord, weighted_length(chord, w)
    candidates = [chord]
    candidates += _corner_routes(w, a, b)
    candidates += _rim_wraps(w, a, b)
    if isinstance(w, (RadialWeight, LayeredWeight)):
        candidates += _scan_candidates(w, a, b, tol, n_shells, scan_angles)
    costs = [weighted_length(p, w) for p in candidates]
    k = int(np.argmin(costs))
    return candidates[k], float(costs[k])
