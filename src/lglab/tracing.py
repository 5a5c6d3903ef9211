"""Ray propagation through layered and radial media.

A ray is a polyline that is straight inside each constant-weight region and
refracts at interfaces.  Horizontally layered media refract at depth lines;
l1-radial media refract at diamond shells (with the quadrant's edge normal);
l2-radial media refract at circles (radial normal).  Sloped l1-radial
profiles are discretized into concentric constant-weight shells, the weight
of each shell taken at its outer radius, so refined shells converge to the
continuous bending ray.  One loop, _propagate, traces every medium; a
medium supplies its launch, its legs (the straight pieces up to its next
event) and its turns; an l1 leg is one curves._run across a quadrant's shells.

Angle convention: theta is measured from the interface normal.  For layered
media the ray starts downward, tilted by theta_0 toward +x.  For radial media
the ray starts outward, rotated by the signed theta_0 from the outward normal
of the quadrant containing the start (counterclockwise positive); a start on
the positive x-axis is treated as the limit from the upper quadrant.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import numpy as np

from .curves import _run
from .paths import Polyline
from .snell import SolverError, TotalInternalReflection, snell_refract
from .weights import (SQRT2, ConstantWeight, LayeredWeight, RadialWeight,
                      WeightField, circle_hits)

DEFAULT_SHELLS = 4096
_EPS = 1e-12
_MAX_LEGS = 200000


class TraceError(SolverError):
    """Ray failed to reach the stop condition within the leg budget."""


def _stop_crossing(stop, p, v, t_max):
    """Earliest parameter in (0, t_max] where p + t*v crosses the stop.

    Returns None when the straight piece does not reach it.  stop is
    'circle' (the unit circle) or ('line', nx, ny, c) for nx*x + ny*y = c.
    """
    if stop == "circle":
        disc, t_near, t_far = circle_hits(p, v, 1.0)
        if disc < 0:
            return None
        for t in (t_near, t_far):
            if _EPS < t <= t_max + _EPS:
                return t
        return None
    _, nx, ny, c = stop
    den = nx * v[0] + ny * v[1]
    if den == 0:
        return None
    t = (c - nx * p[0] - ny * p[1]) / den
    return t if _EPS < t <= t_max + _EPS else None


def _refract_direction(v, n, w_in, w_out, where):
    """Bend the unit direction v across an interface with unit normal n."""
    vn = v[0] * n[0] + v[1] * n[1]
    tx, ty = v[0] - vn * n[0], v[1] - vn * n[1]
    tlen = math.hypot(tx, ty)
    sin_in = min(tlen, 1.0)
    theta_in = math.asin(sin_in)
    try:
        theta_out = snell_refract(w_in, w_out, theta_in)
    except TotalInternalReflection:
        raise TotalInternalReflection(w_in, w_out, theta_in, where) from None
    # at normal incidence (no tangential part) the ray goes straight on
    s = math.sin(theta_out) / tlen if tlen >= _EPS else 0.0
    c = math.copysign(math.cos(theta_out), vn)
    return (c * n[0] + s * tx, c * n[1] + s * ty)


def _straight(p, v, t):
    """A leg of one straight piece of length t (inf: no end) from p along v."""
    return [(t, v, (p[0] + t * v[0], p[1] + t * v[1]))]


def _uniform(theta_0):
    """No interfaces: the ray is one straight piece, started downward."""
    return ((math.sin(theta_0), -math.cos(theta_0)),
            lambda p, v: _straight(p, v, math.inf), None)


def _layers(w: LayeredWeight, theta_0):
    """Horizontal layers, crossed downward at the depth lines."""
    if not -math.pi / 2 < theta_0 < math.pi / 2:
        raise ValueError("launch angle must be strictly subcritical")
    depths, ws = w.depths(), [wk for _, wk in w.layers]
    k = 0

    def leg(p, v):
        nonlocal k
        k = 0
        while k < len(depths) and p[1] <= -depths[k] + _EPS:
            k += 1
        if k < len(depths) and v[1] < 0:
            t = (-depths[k] - p[1]) / v[1]
            return [(t, v, (p[0] + t * v[0], -depths[k]))]
        return _straight(p, v, math.inf)

    def turn(q, v):
        w_next = ws[min(k + 1, len(ws) - 1)]
        return q, _refract_direction(v, (0.0, 1.0), ws[k], w_next,
                                     f"depth {depths[k]:g}")

    return _uniform(theta_0)[0], leg, turn


def _launch(w: RadialWeight, radii, shell_w, rho, v, n, outward):
    """Shell index and direction of a ray launched at radius rho.

    radii are the shell interfaces, n the outward interface normal at the
    start and outward the ray's rate of radius change along v.  A launch
    on an interface refracts into whichever shell it proceeds to.
    """
    i = bisect_left(radii, rho)
    # the nearest interface is one of the two around rho
    on_boundary = any(abs(r - rho) < 1e-11
                      for r in radii[max(i - 1, 0):i + 1])
    j = bisect_right(radii, rho + (1e-11 if on_boundary else 0.0))
    if on_boundary:
        w_from = float(w.profile(np.array([rho]))[0])
        if outward < -_EPS:
            j -= 1
        if shell_w[j] != w_from:
            v = _refract_direction(v, n, w_from, shell_w[j],
                                   f"launch r={rho:.6g}")
    return j, v


def _quadrant(p, v):
    return tuple(1.0 if c > _EPS else -1.0 if c < -_EPS else
                 (1.0 if vc >= 0 else -1.0) for c, vc in zip(p, v))


def _diamonds(w: RadialWeight, p, theta_0, n_shells):
    """l1 shells: diamond edges with the quadrant's normal.

    A leg is one _run in the quadrant frame (sx, sy), at kappa = w sin(theta)
    against the edge normal.  It ends where the ray crosses an axis (the
    weight is continuous there, so only the frame flips) or at the shell
    the turn refracts into once: the outer or innermost one, or one _run
    finds reflecting, which raises.  _run reflects from sin(theta) >=
    1 - 1e-13, snell_refract only beyond 1; a ray closer to grazing keeps
    the clipped sine.  In the outer shell outward, the innermost inward or
    tangent to the shells, a leg is straight to the axis ahead.
    """
    grid, ws = w.shell_grid(n_shells)
    radii, shell_w = grid[1:].tolist(), ws.tolist()
    sx, sy = _quadrant(p, (1.0, 1.0))
    n0 = (sx / SQRT2, sy / SQRT2)
    v = (math.cos(theta_0) * n0[0] - math.sin(theta_0) * n0[1],
         math.cos(theta_0) * n0[1] + math.sin(theta_0) * n0[0])
    sx, sy = _quadrant(p, v)
    j, v = _launch(w, radii, shell_w, abs(p[0]) + abs(p[1]), v,
                   (sx / SQRT2, sy / SQRT2), sx * v[0] + sy * v[1])
    event = None  # "x" or "y" for an axis, the shell index step for a shell

    def leg(p, v):
        nonlocal j, event
        x0, y0, vx, vy = sx * p[0], sy * p[1], sx * v[0], sy * v[1]
        step = 1 if vx + vy > 0 else -1
        if abs(vx + vy) <= _EPS or j == (len(radii) if step > 0 else 0):
            t, event = math.inf, None
            for axis, c, vc in (("x", x0, vx), ("y", y0, vy)):
                if vc < 0 and c > _EPS and -c / vc < t:
                    t, event = -c / vc, axis
            return _straight(p, v, t)
        rr = np.append(x0 + y0, grid[j + 1:] if step > 0 else grid[j:0:-1])
        wr = ws[j:-1] if step > 0 else ws[j:0:-1]
        kappa = shell_w[j] * abs(vx - vy) / SQRT2
        tir, off = _run(rr, wr, kappa)
        # _run drifts toward +x; a ray drifting toward +y is its mirror image
        mirror = step * (vx - vy) < 0
        xs, ys = (off[::-1] if mirror else off) + [[x0], [y0]]
        k = int(np.argmax(tir[1:])) + 1 if tir[1:].any() else len(wr)
        # a piece crosses an axis it starts more than _EPS away from
        cut = [(c[1:k + 1] < 0) & (c[:k] > _EPS) for c in (xs, ys)]
        if np.any(cut):
            i = int(np.argmax(cut[0] | cut[1])) + 1
            f, event = min((c[i - 1] / (c[i - 1] - c[i]), axis) for axis, c, m
                           in (("x", xs, cut[0]), ("y", ys, cut[1]))
                           if m[i - 1])
            end = [c[i - 1] + f * (c[i] - c[i - 1]) for c in (xs, ys)]
        else:
            i, event, end = k, step, [xs[k], ys[k]]
        j += step * (i - 1)
        pts = np.vstack((np.column_stack((xs[:i], ys[:i])), end)) * (sx, sy)
        # the pieces' directions; mirroring negates the sines
        s = np.minimum(kappa / wr[:i], 1.0 - 1e-13) * (-1.0 if mirror else 1.0)
        c = np.sqrt(1.0 - s * s)
        u = step / SQRT2 * np.column_stack((c + s, c - s)) * (sx, sy)
        return zip(np.hypot(*np.diff(pts, axis=0).T).tolist(), u.tolist(),
                   pts[1:].tolist())

    def turn(q, v):
        nonlocal sx, sy, j
        if event == "x":
            sx = 1.0 if v[0] >= 0 else -1.0
            return (0.0, q[1]), v
        if event == "y":
            sy = 1.0 if v[1] >= 0 else -1.0
            return (q[0], 0.0), v
        j += event
        where = f"l1 shell r={radii[min(j, j - event)]:.6g}"
        return q, _refract_direction(v, (sx / SQRT2, sy / SQRT2),
                                     shell_w[j - event], shell_w[j], where)

    return v, leg, turn


def _circles(w: RadialWeight, p, theta_0, n_shells):
    """l2 shells: circles with the radial normal, one per constant piece."""
    grid, ws = w.shell_grid(n_shells)
    radii, shell_w = grid[1:].tolist(), ws.tolist()
    r = math.hypot(*p)
    if r < _EPS:
        raise ValueError("radial launch from the origin is ambiguous")
    n0 = (p[0] / r, p[1] / r)
    v = (math.cos(theta_0) * n0[0] - math.sin(theta_0) * n0[1],
         math.cos(theta_0) * n0[1] + math.sin(theta_0) * n0[0])
    j, v = _launch(w, radii, shell_w, r, v, n0, v[0] * n0[0] + v[1] * n0[1])
    idx = None

    def leg(p, v):
        nonlocal idx
        hits = []
        for i in (j - 1, j):
            if 0 <= i < len(radii):
                disc, t_near, t_far = circle_hits(p, v, radii[i])
                if disc > 0:
                    hits += [(t, i) for t in (t_near, t_far) if t > 1e-10]
        t_next, idx = min(hits) if hits else (math.inf, None)
        return _straight(p, v, t_next)

    def turn(q, v):
        nonlocal j
        rr = math.hypot(*q)
        n = (q[0] / rr, q[1] / rr)
        w_from = shell_w[j]
        j = idx + 1 if (v[0] * n[0] + v[1] * n[1]) > 0 else idx
        return q, _refract_direction(v, n, w_from, shell_w[j],
                                     f"circle r={radii[idx]:.6g}")

    return v, leg, turn


def _propagate(p, v, leg, turn, stop):
    """Straight pieces from p along v until the ray meets the stop.

    A medium supplies leg(p, v), the straight pieces up to its next event
    as (length, unit direction, end), a piece with no end having length
    inf, and turn(q, v), which passes the event at the last end q, reached
    along v, and returns the point and direction the next leg starts from.
    Each piece is checked against the stop on its own.
    """
    verts = [p]
    for _ in range(_MAX_LEGS):
        for t_next, v, q in leg(p, v):
            t_stop = _stop_crossing(stop, p, v, min(t_next, 1e6))
            # the stop wins ties: it is found up to _EPS past the event
            if t_stop is not None:
                verts.append((p[0] + t_stop * v[0], p[1] + t_stop * v[1]))
                return Polyline.from_points(verts)
            if not math.isfinite(t_next):
                raise TraceError("ray did not reach the stop condition")
            verts.append(q)
            p = q
        p, v = turn(p, v)
    raise TraceError("ray did not reach the stop condition")


def trace_layered_ray(w: WeightField, start, theta_0: float, stop,
                      n_shells: int = DEFAULT_SHELLS) -> Polyline:
    """Propagate one ray through w from start until the stop condition.

    :param stop: 'circle' (the unit circle), ('line', nx, ny, c) for the
        line nx*x + ny*y = c, or ('depth', d) for the line y = -d.
    :param n_shells: shell count for discretizing sloped radial profiles.
    :raises ValueError: an unknown stop form or an invalid launch.
    :raises TotalInternalReflection: supercritical incidence at an interface.
    :raises TraceError: stop condition unreachable.
    """
    if isinstance(stop, tuple) and stop[0] == "depth":
        stop = ("line", 0.0, 1.0, -stop[1])
    if stop != "circle" and not (isinstance(stop, tuple)
                                 and stop[0] == "line"):
        raise ValueError(f"unknown stop condition {stop!r}")
    p = (float(start[0]), float(start[1]))
    if isinstance(w, ConstantWeight):
        medium = _uniform(theta_0)
    elif isinstance(w, LayeredWeight):
        medium = _layers(w, theta_0)
    elif isinstance(w, RadialWeight):
        shells = _diamonds if w.norm == "l1" else _circles
        medium = shells(w, p, theta_0, n_shells)
    else:
        raise TraceError(f"{type(w).__name__} has no layered structure; "
                         "use the grid oracle")
    return _propagate(p, *medium, stop)
