"""Ray propagation through layered and radial media.

A ray is a polyline that is straight inside each constant-weight region and
refracts at interfaces.  Horizontally layered media refract at depth lines;
l1-radial media refract at diamond shells (with the quadrant's edge normal);
l2-radial media refract at circles (radial normal).  Sloped l1-radial
profiles are discretized into concentric constant-weight shells, the weight
of each shell taken at its outer radius, so refined shells converge to the
continuous bending ray.  One loop, _propagate, traces every medium; a
medium supplies its launch and its next-interface and crossing steps.

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

from .paths import Polyline
from .snell import SolverError, TotalInternalReflection, snell_refract
from .weights import (SQRT2, ConstantWeight, LayeredWeight, RadialWeight,
                      WeightField, circle_hits)

DEFAULT_SHELLS = 4096
_EPS = 1e-12
_MAX_SEGMENTS = 200000


class TraceError(SolverError):
    """Ray failed to reach the stop condition within the segment budget."""


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


def _uniform(theta_0):
    """No interfaces: the ray is one straight piece, started downward."""
    return (math.sin(theta_0), -math.cos(theta_0)), lambda p, v: math.inf, None


def _layers(w: LayeredWeight, theta_0):
    """Horizontal layers, crossed downward at the depth lines."""
    if not -math.pi / 2 < theta_0 < math.pi / 2:
        raise ValueError("launch angle must be strictly subcritical")
    depths, ws = w.depths(), [wk for _, wk in w.layers]
    k = 0

    def next_interface(p, v):
        nonlocal k
        k = 0
        while k < len(depths) and p[1] <= -depths[k] + _EPS:
            k += 1
        if k < len(depths) and v[1] < 0:
            return (-depths[k] - p[1]) / v[1]
        return math.inf

    def cross(p, v, t):
        q = (p[0] + t * v[0], -depths[k])
        w_next = ws[min(k + 1, len(ws) - 1)]
        v = _refract_direction(v, (0.0, 1.0), ws[k], w_next,
                               f"depth {depths[k]:g}")
        return q, q, v

    return _uniform(theta_0)[0], next_interface, cross


def _launch(w: RadialWeight, radii, shell_w, rho, v, n, outward):
    """Shell index, shell weight and direction of a ray launched at radius rho.

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
    return j, shell_w[j], v


def _shells(w: RadialWeight, n_shells):
    """Interface radii and shell weights as plain floats: shell j lies
    between radii[j-1] and radii[j]."""
    grid, shell_w = w.shell_grid(n_shells)
    return grid[1:].tolist(), shell_w.tolist()


def _quadrant(p, v):
    sx = 1.0 if p[0] > _EPS else -1.0 if p[0] < -_EPS else \
        (1.0 if v[0] >= 0 else -1.0)
    sy = 1.0 if p[1] > _EPS else -1.0 if p[1] < -_EPS else \
        (1.0 if v[1] >= 0 else -1.0)
    return sx, sy


def _diamonds(w: RadialWeight, p, theta_0, n_shells):
    """l1 shells: diamond edges with the quadrant's normal.

    The weight is continuous across an axis, so there the ray goes straight
    on and only the quadrant frame (sx, sy) flips.
    """
    radii, shell_w = _shells(w, n_shells)
    sx, sy = _quadrant(p, (1.0, 1.0))
    n0 = (sx / SQRT2, sy / SQRT2)
    t0 = (-n0[1], n0[0])
    v = (math.cos(theta_0) * n0[0] + math.sin(theta_0) * t0[0],
         math.cos(theta_0) * n0[1] + math.sin(theta_0) * t0[1])
    sx, sy = _quadrant(p, v)
    j, w_here, v = _launch(w, radii, shell_w, abs(p[0]) + abs(p[1]), v,
                           (sx / SQRT2, sy / SQRT2), sx * v[0] + sy * v[1])
    event = None  # "x" or "y" for an axis, the shell index step for a shell

    def next_interface(p, v):
        nonlocal event
        px, py = p
        vx, vy = v
        drho_dt = sx * vx + sy * vy
        t_axis = math.inf
        axis = None
        if sx * vx < 0 and px * sx > _EPS:
            t_axis, axis = -px / vx, "x"
        if sy * vy < 0 and py * sy > _EPS:
            t = -py / vy
            if t < t_axis:
                t_axis, axis = t, "y"
        t_shell = math.inf
        step = 0
        if drho_dt > _EPS and j < len(radii):
            t_shell = (radii[j] - (sx * px + sy * py)) / drho_dt
            step = 1
        elif drho_dt < -_EPS and j > 0:
            t_shell = (radii[j - 1] - (sx * px + sy * py)) / drho_dt
            step = -1
        event = axis if t_axis < t_shell else step
        return min(t_axis, t_shell)

    def cross(p, v, t):
        nonlocal sx, sy, j, w_here
        q = (p[0] + t * v[0], p[1] + t * v[1])
        if event == "x":
            sx = 1.0 if v[0] >= 0 else -1.0
            return q, (0.0, q[1]), v
        if event == "y":
            sy = 1.0 if v[1] >= 0 else -1.0
            return q, (q[0], 0.0), v
        r_iface = radii[j if event > 0 else j - 1]
        j += event
        v = _refract_direction(v, (sx / SQRT2, sy / SQRT2), w_here, shell_w[j],
                               f"l1 shell r={r_iface:.6g}")
        w_here = shell_w[j]
        return q, q, v

    return v, next_interface, cross


def _circles(w: RadialWeight, p, theta_0, n_shells):
    """l2 shells: circles with the radial normal.

    The profile is piecewise constant, so the shells are its pieces.
    """
    radii, shell_w = _shells(w, n_shells)
    r = math.hypot(*p)
    if r < _EPS:
        raise ValueError("radial launch from the origin is ambiguous")
    n0 = (p[0] / r, p[1] / r)
    t0 = (-n0[1], n0[0])
    v = (math.cos(theta_0) * n0[0] + math.sin(theta_0) * t0[0],
         math.cos(theta_0) * n0[1] + math.sin(theta_0) * t0[1])
    j, w_here, v = _launch(w, radii, shell_w, r, v, n0,
                           v[0] * n0[0] + v[1] * n0[1])
    idx = None

    def next_interface(p, v):
        nonlocal idx
        hits = []
        for i in (j - 1, j):
            if 0 <= i < len(radii):
                disc, t_near, t_far = circle_hits(p, v, radii[i])
                if disc > 0:
                    hits += [(t, i) for t in (t_near, t_far) if t > 1e-10]
        t_next, idx = min(hits) if hits else (math.inf, None)
        return t_next

    def cross(p, v, t):
        nonlocal j, w_here
        q = (p[0] + t * v[0], p[1] + t * v[1])
        rr = math.hypot(*q)
        n = (q[0] / rr, q[1] / rr)
        j = idx + 1 if (v[0] * n[0] + v[1] * n[1]) > 0 else idx
        v = _refract_direction(v, n, w_here, shell_w[j],
                               f"circle r={radii[idx]:.6g}")
        w_here = shell_w[j]
        return q, q, v

    return v, next_interface, cross


def _propagate(p, v, next_interface, cross, stop, max_segments):
    """Straight pieces from p along v until the ray meets the stop.

    A medium supplies next_interface(p, v), the distance to its next
    interface along the piece (inf if there is none), and cross(p, v, t),
    which crosses it: the vertex there, the point the next piece starts
    from and the refracted direction.
    """
    verts = [p]
    for _ in range(max_segments):
        t_next = next_interface(p, v)
        t_stop = _stop_crossing(stop, p, v, min(t_next, 1e6))
        # the stop wins ties with the interface, up to summation-order noise
        if t_stop is not None and \
                t_stop <= t_next + 1e-9 * max(1.0, abs(t_next)):
            verts.append((p[0] + t_stop * v[0], p[1] + t_stop * v[1]))
            return Polyline.from_points(verts)
        if not math.isfinite(t_next):
            break
        q, p, v = cross(p, v, t_next)
        verts.append(q)
    raise TraceError("ray did not reach the stop condition")


def trace_layered_ray(w: WeightField, start, theta_0: float, stop,
                      n_shells: int = DEFAULT_SHELLS,
                      max_segments: int = _MAX_SEGMENTS) -> Polyline:
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
    return _propagate(p, *medium, stop, max_segments)
