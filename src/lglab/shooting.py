"""Two-point weighted shortest paths by refraction shooting.

Scans launch angles, tracing the whole fan of rays in lockstep to the line
through the target perpendicular to the endpoint chord, and bisects the
transverse miss between sign changes to within tol or until the midpoint
rounds onto an end, as it does across a jump.  Each bisection fan traces
three levels of midpoints of every live bracket at once; only a converged
ray is traced again, with its vertices.
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
from .tracing import trace_fan, trace_layered_ray
from .weights import LayeredWeight, RadialWeight, WeightField

DEFAULT_SCAN_ANGLES = 2048
_LEVELS = 3  # bisection levels one fan advances every bracket
_STEPS = 60  # midpoints a bracket visits at most


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


def _scan_angles(w, a, b, scan_angles):
    """(a, b, swapped, thetas): the endpoints in launch order, whether they
    were swapped, and the scan's launch angles."""
    if not isinstance(w, LayeredWeight):
        return a, b, False, np.linspace(-math.pi, math.pi, scan_angles,
                                        endpoint=False)
    thetas = np.linspace(-math.pi / 2, math.pi / 2, scan_angles + 2)[1:-1]
    # Layered rays only travel downward, so launch from the higher end.
    return (b, a, True, thetas) if a[1] < b[1] else (a, b, False, thetas)


def _midpoints(lo, hi):
    """The midpoints of _LEVELS bisection levels below [lo, hi], in heap
    order: those of midpoint k's left and right halves are 2k + 1 and
    2k + 2."""
    spans, mids = [(lo, hi)], []
    for k in range(2 ** _LEVELS - 1):
        lo, hi = spans[k]
        mids.append(0.5 * (lo + hi))
        spans += [(lo, mids[k]), (mids[k], hi)]
    return mids


def _bisect(w, a, b, brackets, tol, n_shells):
    """Bisect the transverse miss on each bracket (lo, hi, miss at lo).

    One fan traces the midpoints of the next _LEVELS levels of every live
    bracket, and each bracket walks down them by the signs of the misses.
    It stops at a NaN miss, a miss below tol, a midpoint that rounds onto
    an end (as it does across a jump) or after _STEPS midpoints.  Returns,
    per bracket, the (angle, miss, end point) of each midpoint it visited.
    """
    u, stop = _aim(a, b)
    runs = [[lo, hi, flo, []] for lo, hi, flo in brackets]
    live = runs
    while live:
        mids = [_midpoints(lo, hi) for lo, hi, _, _ in live]
        ends = trace_fan(w, a, np.concatenate(mids), stop,
                         n_shells).reshape(len(live), -1, 2)
        going = []
        for run, mid, miss, end in zip(live, mids, _miss(ends, a, b, u), ends):
            lo, hi, flo, seen = run
            k = 0
            for _ in range(_LEVELS):
                fm = float(miss[k])
                seen.append((mid[k], fm, end[k]))
                if math.isnan(fm) or abs(fm) < tol or mid[k] in (lo, hi) \
                        or len(seen) == _STEPS:
                    break
                if (fm > 0) == (flo > 0):
                    lo, flo, k = mid[k], fm, 2 * k + 2
                else:
                    hi, k = mid[k], 2 * k + 1
            else:
                run[:3] = lo, hi, flo
                going.append(run)
        live = going
    return [seen for _, _, _, seen in runs]


def _scan_candidates(w, a, b, tol, n_shells, scan_angles):
    a, b, swapped, thetas = _scan_angles(w, a, b, scan_angles)
    u, stop = _aim(a, b)
    misses = _miss(trace_fan(w, a, thetas, stop, n_shells), a, b, u)
    m0, m1 = misses[:-1], misses[1:]
    # NaN compares False, so a bracket needs two finite misses
    brackets = [(float(thetas[i]), float(thetas[i + 1]), m0[i]) for i in
                np.flatnonzero((m0 > 0) & (m1 <= 0) | (m0 <= 0) & (m1 > 0))]
    out = []
    for seen in _bisect(w, a, b, brackets, tol, n_shells):
        # the last midpoint that reached the stop, ahead of a
        reached = [(mid, e) for mid, fm, e in seen if not math.isnan(fm)]
        if reached and math.dist(reached[-1][1], b) < max(tol * 10, 1e-6):
            path = trace_layered_ray(w, a, reached[-1][0], stop, n_shells)
            verts = np.vstack([path.as_array()[:-1], [b]])
            out.append(Polyline.from_points(verts[::-1] if swapped else verts))
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

    :param tol: the transverse miss a converged ray stays below, > 0.
    :param n_shells: shell count for discretizing sloped radial profiles,
        >= 1.
    """
    # written so that NaN fails them too
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, not {tol!r}")
    if not n_shells >= 1:
        raise ValueError(f"n_shells must be at least 1, not {n_shells!r}")
    a = (float(a[0]), float(a[1]))
    b = (float(b[0]), float(b[1]))
    # written so that a NaN coordinate fails it too
    if not (math.hypot(*a) <= 1 + 1e-9 and math.hypot(*b) <= 1 + 1e-9):
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
