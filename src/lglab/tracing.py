"""Ray propagation through layered and radial media.

A ray is a polyline that is straight inside each constant-weight region and
refracts at interfaces.  Horizontally layered media refract at depth lines;
l1-radial media refract at diamond shells (with the quadrant's edge normal);
l2-radial media refract at circles (radial normal).  Continuous radial
profiles are discretized into concentric constant-weight shells, the weight
of each shell taken at its outer radius, so refined shells converge to the
continuous bending ray.

Angle convention: theta is measured from the interface normal.  For layered
media the ray starts downward, tilted by theta_0 toward +x.  For radial media
the ray starts outward, rotated by the signed theta_0 from the outward normal
of the quadrant containing the start (counterclockwise positive); a start on
the positive x-axis is treated as the limit from the upper quadrant.
"""
from __future__ import annotations

import math

import numpy as np

from .paths import Polyline
from .snell import SolverError, TotalInternalReflection, snell_refract
from .weights import (ConstantWeight, LayeredWeight, RadialWeight, WeightField,
                      circle_hits)

DEFAULT_SHELLS = 4096
_EPS = 1e-12
_MAX_SEGMENTS = 200000


class TraceError(SolverError):
    """Ray failed to reach the stop condition within the segment budget."""


def _stop_crossing(stop, p, v, t_max):
    """Earliest parameter in (0, t_max] where the stop manifold is crossed.

    Returns None when the straight piece p + t*v does not reach it.  Supported
    stop forms: 'diamond_edge' (|x|+|y| = 1), 'circle' (unit circle), 'x_axis',
    'y_axis', ('depth', d) for y = -d, ('line', nx, ny, c) for nx*x+ny*y = c,
    or a callable predicate evaluated at the piece's far endpoint.
    """
    px, py = p
    vx, vy = v
    if callable(stop):
        return t_max if stop((px + t_max * vx, py + t_max * vy)) else None
    if isinstance(stop, tuple) and stop[0] == "depth":
        target = -stop[1]
        if vy == 0:
            return None
        t = (target - py) / vy
        return t if _EPS < t <= t_max + _EPS else None
    if isinstance(stop, tuple) and stop[0] == "line":
        _, nx, ny, c = stop
        den = nx * vx + ny * vy
        if den == 0:
            return None
        t = (c - nx * px - ny * py) / den
        return t if _EPS < t <= t_max + _EPS else None
    if stop == "x_axis":
        if vy == 0:
            return None
        t = -py / vy
        return t if _EPS < t <= t_max + _EPS else None
    if stop == "y_axis":
        if vx == 0:
            return None
        t = -px / vx
        return t if _EPS < t <= t_max + _EPS else None
    if stop == "diamond_edge":
        best = None
        for sx in (1.0, -1.0):
            for sy in (1.0, -1.0):
                den = sx * vx + sy * vy
                if den == 0:
                    continue
                t = (1.0 - sx * px - sy * py) / den
                if _EPS < t <= t_max + _EPS:
                    qx, qy = px + t * vx, py + t * vy
                    if abs(abs(qx) + abs(qy) - 1.0) < 1e-9:
                        best = t if best is None else min(best, t)
        return best
    if stop == "circle":
        disc, t_near, t_far = circle_hits(p, v, 1.0)
        if disc < 0:
            return None
        for t in (t_near, t_far):
            if _EPS < t <= t_max + _EPS:
                return t
        return None
    raise ValueError(f"unknown stop condition {stop!r}")


def _stops_first(t_stop, t_next):
    """Stop wins ties with the next interface, up to summation-order noise."""
    if t_stop is None:
        return False
    return t_stop <= t_next + 1e-9 * max(1.0, abs(t_next))


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


def _trace_layered(w: LayeredWeight, start, theta_0, stop, max_segments):
    if not -math.pi / 2 < theta_0 < math.pi / 2:
        raise ValueError("launch angle must be strictly subcritical")
    depths = w.depths()
    p = (float(start[0]), float(start[1]))
    v = (math.sin(theta_0), -math.cos(theta_0))
    verts = [p]
    for _ in range(max_segments):
        k = 0
        while k < len(depths) and p[1] <= -depths[k] + _EPS:
            k += 1
        w_here = w.layers[k][1] if k < len(w.layers) else w.layers[-1][1]
        if k < len(depths):
            t_iface = (-depths[k] - p[1]) / v[1] if v[1] < 0 else math.inf
        else:
            t_iface = math.inf
        t_stop = _stop_crossing(stop, p, v, min(t_iface, 1e6))
        if _stops_first(t_stop, t_iface):
            q = (p[0] + t_stop * v[0], p[1] + t_stop * v[1])
            verts.append(q)
            return Polyline.from_points(verts)
        if not math.isfinite(t_iface):
            raise TraceError("ray left the layered stack without stopping")
        p = (p[0] + t_iface * v[0], -depths[k])
        verts.append(p)
        w_next = w.layers[k + 1][1] if k + 1 < len(w.layers) else w.layers[-1][1]
        v = _refract_direction(v, (0.0, 1.0), w_here, w_next,
                               f"depth {depths[k]:g}")
    raise TraceError("segment budget exhausted in layered trace")


def _launch(w: RadialWeight, radii, shell_w, rho, v, n, outward):
    """Shell index, shell weight and direction of a ray launched at radius rho.

    radii are the shell interfaces, n the outward interface normal at the
    start and outward the ray's rate of radius change along v.  A launch
    on an interface refracts into whichever shell it proceeds to.
    """
    on_boundary = bool(np.any(np.abs(radii - rho) < 1e-11))
    j = int(np.searchsorted(radii, rho + (1e-11 if on_boundary else 0.0),
                            side="right"))
    if on_boundary:
        w_from = float(w.profile(np.array([rho]))[0])
        if outward < -_EPS:
            j -= 1
        if float(shell_w[j]) != w_from:
            v = _refract_direction(v, n, w_from, float(shell_w[j]),
                                   f"launch r={rho:.6g}")
    return j, float(shell_w[j]), v


def _quadrant(p, v):
    sx = 1.0 if p[0] > _EPS else -1.0 if p[0] < -_EPS else \
        (1.0 if v[0] >= 0 else -1.0)
    sy = 1.0 if p[1] > _EPS else -1.0 if p[1] < -_EPS else \
        (1.0 if v[1] >= 0 else -1.0)
    return sx, sy


def _trace_radial_l1(w: RadialWeight, start, theta_0, stop, n_shells,
                     max_segments):
    # shell j lies between interfaces radii[j-1] and radii[j]
    grid, shell_w = w.shell_grid(n_shells)
    radii = grid[1:]
    p = (float(start[0]), float(start[1]))
    rho = abs(p[0]) + abs(p[1])
    sx, sy = _quadrant(p, (1.0, 1.0))
    n0 = (sx / math.sqrt(2.0), sy / math.sqrt(2.0))
    t0 = (-n0[1], n0[0])
    v = (math.cos(theta_0) * n0[0] + math.sin(theta_0) * t0[0],
         math.cos(theta_0) * n0[1] + math.sin(theta_0) * t0[1])
    sx, sy = _quadrant(p, v)
    j, w_here, v = _launch(w, radii, shell_w, rho, v,
                           (sx / math.sqrt(2.0), sy / math.sqrt(2.0)),
                           sx * v[0] + sy * v[1])

    verts = [p]
    for _ in range(max_segments):
        drho_dt = sx * v[0] + sy * v[1]
        t_axis = math.inf
        axis = None
        if sx * v[0] < 0 and p[0] * sx > _EPS:
            t_axis, axis = -p[0] / v[0], "x"
        if sy * v[1] < 0 and p[1] * sy > _EPS:
            t = -p[1] / v[1]
            if t < t_axis:
                t_axis, axis = t, "y"
        t_shell = math.inf
        shell_out = None
        if drho_dt > _EPS and j < len(radii):
            t_shell = (radii[j] - (sx * p[0] + sy * p[1])) / drho_dt
            shell_out = True
        elif drho_dt < -_EPS and j > 0:
            t_shell = (radii[j - 1] - (sx * p[0] + sy * p[1])) / drho_dt
            shell_out = False
        t_next = min(t_axis, t_shell)
        t_stop = _stop_crossing(stop, p, v,
                                t_next if math.isfinite(t_next) else 1e6)
        if _stops_first(t_stop, t_next):
            verts.append((p[0] + t_stop * v[0], p[1] + t_stop * v[1]))
            return Polyline.from_points(verts)
        if not math.isfinite(t_next):
            raise TraceError("ray escaped the shell structure without stopping")
        p = (p[0] + t_next * v[0], p[1] + t_next * v[1])
        verts.append(p)
        if t_axis < t_shell:
            # weight is continuous across the axis: go straight, reframe
            if axis == "x":
                p = (0.0, p[1])
                sx = 1.0 if v[0] >= 0 else -1.0
            else:
                p = (p[0], 0.0)
                sy = 1.0 if v[1] >= 0 else -1.0
            continue
        n = (sx / math.sqrt(2.0), sy / math.sqrt(2.0))
        r_iface = radii[j] if shell_out else radii[j - 1]
        j += 1 if shell_out else -1
        w_next = float(shell_w[j])
        v = _refract_direction(v, n, w_here, w_next,
                               f"l1 shell r={r_iface:.6g}")
        w_here = w_next
    raise TraceError("segment budget exhausted in radial trace")


def _trace_radial_l2(w: RadialWeight, start, theta_0, stop, n_shells,
                     max_segments):
    if w.max_slope() != 0.0:
        raise TraceError("sloped l2 profiles are not traceable; use the oracle")
    # no sloped piece, so the shells are exactly the profile pieces
    grid, shell_w = w.shell_grid(n_shells)
    radii = grid[1:]
    p = (float(start[0]), float(start[1]))
    r = math.hypot(*p)
    if r < _EPS:
        raise ValueError("radial launch from the origin is ambiguous")
    n0 = (p[0] / r, p[1] / r)
    t0 = (-n0[1], n0[0])
    v = (math.cos(theta_0) * n0[0] + math.sin(theta_0) * t0[0],
         math.cos(theta_0) * n0[1] + math.sin(theta_0) * t0[1])
    j, w_here, v = _launch(w, radii, shell_w, r, v, n0,
                           v[0] * n0[0] + v[1] * n0[1])
    verts = [p]
    for _ in range(max_segments):
        hits = []
        for idx in (j - 1, j):
            if 0 <= idx < len(radii):
                disc, t_near, t_far = circle_hits(p, v, radii[idx])
                if disc > 0:
                    hits += [(t, idx) for t in (t_near, t_far) if t > 1e-10]
        t_next, idx = min(hits) if hits else (math.inf, None)
        t_stop = _stop_crossing(stop, p, v,
                                t_next if math.isfinite(t_next) else 1e6)
        if _stops_first(t_stop, t_next):
            verts.append((p[0] + t_stop * v[0], p[1] + t_stop * v[1]))
            return Polyline.from_points(verts)
        if not math.isfinite(t_next):
            raise TraceError("ray escaped the circles without stopping")
        p = (p[0] + t_next * v[0], p[1] + t_next * v[1])
        verts.append(p)
        rr = math.hypot(*p)
        n = (p[0] / rr, p[1] / rr)
        going_out = (v[0] * n[0] + v[1] * n[1]) > 0
        j = idx + 1 if going_out else idx
        w_next = float(shell_w[j])
        v = _refract_direction(v, n, w_here, w_next,
                               f"circle r={radii[idx]:.6g}")
        w_here = w_next
    raise TraceError("segment budget exhausted in circular trace")


def trace_layered_ray(w: WeightField, start, theta_0: float, stop,
                      n_shells: int = DEFAULT_SHELLS,
                      max_segments: int = _MAX_SEGMENTS) -> Polyline:
    """Propagate one ray through w from start until the stop condition.

    :param stop: 'diamond_edge' | 'circle' | 'x_axis' | 'y_axis' |
        ('depth', d) | ('line', nx, ny, c) | callable(point) -> bool.
    :param n_shells: shell count for discretizing sloped radial profiles.
    :raises TotalInternalReflection: supercritical incidence at an interface.
    :raises TraceError: stop condition unreachable.
    """
    if isinstance(w, ConstantWeight):
        p = (float(start[0]), float(start[1]))
        v = (math.sin(theta_0), -math.cos(theta_0))
        t = _stop_crossing(stop, p, v, 1e6)
        if t is None:
            raise TraceError("straight ray never meets the stop condition")
        return Polyline((p, (p[0] + t * v[0], p[1] + t * v[1])))
    if isinstance(w, LayeredWeight):
        return _trace_layered(w, start, theta_0, stop, max_segments)
    if isinstance(w, RadialWeight):
        if w.norm == "l1":
            return _trace_radial_l1(w, start, theta_0, stop, n_shells,
                                    max_segments)
        return _trace_radial_l2(w, start, theta_0, stop, n_shells,
                                max_segments)
    raise TraceError(f"{type(w).__name__} has no layered structure; "
                     "use the grid oracle")
