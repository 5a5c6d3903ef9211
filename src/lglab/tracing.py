"""Ray propagation through layered and radial media.

A ray is a polyline that is straight inside each constant-weight region and
refracts at interfaces.  Horizontally layered media refract at depth lines;
l1-radial media refract at diamond shells (with the quadrant's edge normal);
l2-radial media refract at circles (radial normal).  Sloped l1-radial
profiles are discretized into concentric constant-weight shells, the weight
of each shell taken at its outer radius, so refined shells converge to the
continuous bending ray.  One loop, _propagate, traces every medium; a
medium supplies its launch, its legs (the straight pieces up to its next
event) and its turns; an l1 leg is one _run across a quadrant's shells.
trace_fan traces many rays from one start in lockstep, one leg of every
live ray at a time, with the same arithmetic, and returns their end points.

Angle convention: theta is measured from the interface normal.  For layered
media the ray starts downward, tilted by theta_0 toward +x.  For radial media
it starts outward, turned counterclockwise by theta_0 from the normal: the
start's quadrant normal for l1 (from the upper quadrant on the +x axis), the
radial normal for l2, and +x at the centre, where every direction is outward.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import numpy as np

from .paths import Polyline
from .snell import SolverError, TotalInternalReflection, snell_refract
from .weights import (SQRT2, LayeredWeight, RadialWeight, WeightField,
                      circle_hits)

_EPS = 1e-12
_MAX_LEGS = 200000
SWEEP_SHELLS = 4096  # default l1 shell count of a traced sloped profile
# (ray, shell) pairs per temporary of a fan's run legs, 96 KiB: at 2^15 the
# allocator handed them back after each block, to page-fault them in again
_BLOCK = 12288


class TraceError(SolverError):
    """Ray failed to reach the stop condition within the leg budget."""


def _line(stop):
    """The stop line nx*x + ny*y = c as the floats (nx, ny, c)."""
    if isinstance(stop, tuple) and len(stop) == 3 and all(
            isinstance(x, (int, float)) for x in stop):
        return tuple(map(float, stop))
    raise ValueError(f"unknown stop {stop!r}: not a line (nx, ny, c)")


def _stop_crossing(stop, p, v, t_max):
    """Earliest parameter in (0, t_max] where p + t*v crosses the stop.

    p and v are arrays of points and directions, (..., 2), and t_max an
    array of their pieces' lengths.  Returns the parameters and a mask of
    the pieces that reach the stop line (nx, ny, c): nx*x + ny*y = c.
    """
    nx, ny, c = stop
    den = nx * v[..., 0] + ny * v[..., 1]
    # den == 0 (parallel to the line) gives NaN, which reaches nothing
    t = (c - nx * p[..., 0] - ny * p[..., 1]) / np.where(den == 0, np.nan,
                                                         den)
    return t, (t > _EPS) & (t <= t_max + _EPS)


def _refract_direction(v, n, w_in, w_out, where):
    """Bend the unit direction v across an interface with unit normal n."""
    vn = v[0] * n[0] + v[1] * n[1]
    tx, ty = v[0] - vn * n[0], v[1] - vn * n[1]
    tlen = math.hypot(tx, ty)
    theta_in = math.asin(min(tlen, 1.0))
    try:
        theta_out = snell_refract(w_in, w_out, theta_in)
    except TotalInternalReflection:
        raise TotalInternalReflection(w_in, w_out, theta_in, where) from None
    # at normal incidence (no tangential part) the ray goes straight on
    s = math.sin(theta_out) / tlen if tlen >= _EPS else 0.0
    c = math.copysign(math.cos(theta_out), vn)
    return (c * n[0] + s * tx, c * n[1] + s * ty)


def _straight(p, v, t, end=None):
    """A leg of one straight piece of length t (inf: no end) from p along v,
    as the arrays (lengths, unit directions, ends); end overrides its end."""
    return (np.array([t]), np.array([v]),
            np.array([end or (p[0] + t * v[0], p[1] + t * v[1])]))


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
            return _straight(p, v, t, (p[0] + t * v[0], -depths[k]))
        return _straight(p, v, math.inf)

    def turn(q, v):
        w_next = ws[min(k + 1, len(ws) - 1)]
        return q, _refract_direction(v, (0.0, 1.0), ws[k], w_next,
                                     f"depth {depths[k]:g}")

    return (math.sin(theta_0), -math.cos(theta_0)), leg, turn


def _launch_shell(w: RadialWeight, radii, rho):
    """Shell index a ray launched at radius rho starts in, and the weight at
    rho when rho lies on one of the interfaces radii (else None): a ray
    launched inward from an interface starts one shell further in."""
    i = bisect_left(radii, rho)
    # the nearest interface is one of the two around rho
    on_boundary = any(abs(r - rho) < 1e-11
                      for r in radii[max(i - 1, 0):i + 1])
    j = bisect_right(radii, rho + (1e-11 if on_boundary else 0.0))
    return j, w.profile_at(rho) if on_boundary else None


def _launch(w: RadialWeight, radii, shell_w, rho, v, n, outward):
    """Shell index and direction of a ray launched at radius rho.

    radii are the shell interfaces, n the outward interface normal at the
    start and outward the ray's rate of radius change along v.  A launch
    on an interface refracts into whichever shell it proceeds to.
    """
    j, w_from = _launch_shell(w, radii, rho)
    if w_from is not None:
        if outward < -_EPS:
            j -= 1
        if shell_w[j] != w_from:
            v = _refract_direction(v, n, w_from, shell_w[j],
                                   f"launch r={rho:.6g}")
    return j, v


def _run(radii, weights, kappa):
    """Offsets from its start of a monotone run across l1 shells.

    radii[..., k] are the shell radii in the order crossed, rising outward
    and falling inward; weights[..., k] is the weight between radii k and
    k + 1.  A shell of signed width dr moves the run (dr/2)(1 + tan,
    1 - tan), sin(theta) = kappa / weight clipped below 1.  Returns (tir,
    offsets): the reflecting shells, where sin(theta) >= 1 - 1e-13, and the
    x and y offsets at each radius, summed in shell order.
    """
    # in place, so that a block's temporaries stay few (see _BLOCK)
    s = kappa / weights
    tir = s >= 1.0 - 1e-13
    np.minimum(s, 1.0 - 1e-13, out=s)
    tan = np.multiply(s, s)
    np.sqrt(np.subtract(1.0, tan, out=tan), out=tan)
    np.divide(s, tan, out=tan)
    half = np.subtract(radii[..., 1:], radii[..., :-1])
    half *= 0.5
    offsets = np.zeros((2, *radii.shape))
    np.add(1.0, tan, out=s)
    np.cumsum(np.multiply(half, s, out=s), axis=-1, out=offsets[0, ..., 1:])
    np.subtract(1.0, tan, out=s)
    np.cumsum(np.multiply(half, s, out=s), axis=-1, out=offsets[1, ..., 1:])
    return tir, offsets


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
        return np.hypot(*np.diff(pts, axis=0).T), u, pts[1:]

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
    n0 = (p[0] / r, p[1] / r) if r >= _EPS else (1.0, 0.0)
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
    as the arrays (lengths, unit directions, ends), a piece with no end
    having length inf, and turn(q, v), which passes the event at the last
    end q, reached along v, and returns the point and direction the next
    leg starts from.  Each piece is checked against the stop on its own.
    """
    verts = [np.array([p])]
    for _ in range(_MAX_LEGS):
        t, u, q = leg(p, v)
        s = np.concatenate(([p], q[:-1]))
        # the stop wins ties: it is found up to _EPS past the event
        ts, hit = _stop_crossing(stop, s, u, np.minimum(t, 1e6))
        if hit.any():
            k = hit.argmax()
            return Polyline.from_points(np.concatenate(
                verts + [q[:k], [s[k] + ts[k] * u[k]]]))
        if not math.isfinite(t[-1]):
            raise TraceError("ray did not reach the stop condition")
        verts.append(q)
        p, v = turn(tuple(q[-1].tolist()), tuple(u[-1].tolist()))
    raise TraceError("ray did not reach the stop condition")


def trace_layered_ray(w: WeightField, start, theta_0: float, stop,
                      n_shells: int = SWEEP_SHELLS) -> Polyline:
    """Propagate one ray through w from start until the stop condition.

    :param stop: the line (nx, ny, c), nx*x + ny*y = c.
    :param n_shells: shell count for discretizing sloped radial profiles.
    :raises ValueError: a stop that is no line, or an invalid launch.
    :raises TotalInternalReflection: supercritical incidence at an interface.
    :raises TraceError: stop condition unreachable, or w has no medium.
    """
    stop = _line(stop)
    p = (float(start[0]), float(start[1]))
    if isinstance(w, LayeredWeight):
        medium = _layers(w, theta_0)
    elif isinstance(w, RadialWeight):
        shells = _diamonds if w.norm == "l1" else _circles
        medium = shells(w, p, theta_0, n_shells)
    else:
        raise TraceError(f"{type(w).__name__} has no traced medium; "
                         "use the grid oracle")
    return _propagate(p, *medium, stop)


# The fan: many rays from one start, traced in lockstep.  A fan medium keeps
# its per-ray state in a dict of row arrays; its leg(st, stop) traces one
# leg of every row and returns (e, q, u): the point where the leg meets the
# stop (NaN rows where it does not), and the end and last direction of the
# leg (q not finite for a leg with no end).  turn(st, q, u) passes each
# row's event and returns a mask of the rows that did not totally reflect.
# Every value is computed as the scalar tracer computes it, operation for
# operation, so each ray ends where trace_layered_ray's ray ends.

_AXIS_X, _AXIS_Y = 2, 3  # l1 leg events besides the shell steps -1 and +1


def _libm(f, *cols):
    """The math function f on each row of the arrays cols: numpy's own
    transcendental functions may differ from math's in the last bit."""
    return np.fromiter(map(f, *(c.tolist() for c in cols)), float,
                       count=len(cols[0]))


def _refract_rows(v, n, w_in, w_out):
    """_refract_direction on rows of directions v and normals n, (m, 2) each.

    Returns the bent directions and a mask of the rows that pass, False
    where _refract_direction raises TotalInternalReflection.
    """
    vn = v[:, 0] * n[:, 0] + v[:, 1] * n[:, 1]
    tx, ty = v[:, 0] - vn * n[:, 0], v[:, 1] - vn * n[:, 1]
    tlen = _libm(math.hypot, tx, ty)
    s_in = _libm(math.sin, _libm(math.asin, np.minimum(tlen, 1.0)))
    s_out = (w_in / w_out) * s_in
    ok = ~(s_out > 1.0)
    theta_out = _libm(math.asin, np.where(ok, s_out, 0.0))
    s = np.divide(_libm(math.sin, theta_out), tlen,
                  out=np.zeros_like(tlen), where=tlen >= _EPS)
    c = np.copysign(_libm(math.cos, theta_out), vn)
    return np.column_stack((c * n[:, 0] + s * tx, c * n[:, 1] + s * ty)), ok


def _first_stop(stop, s, u, t):
    """Where each row's pieces first meet the stop, NaN rows where none
    does.  Piece k of a row starts at s[:, k] along the unit u[:, k] for the
    length t[:, k] (inf: no end, NaN: no piece)."""
    ts, hit = _stop_crossing(stop, s, u, np.minimum(t, 1e6))
    rows, k = np.arange(len(t)), hit.argmax(axis=1)
    e = s[rows, k] + ts[rows, k, None] * u[rows, k]
    e[~hit.any(axis=1)] = np.nan
    return e


def _straight_rows(stop, p, v, t):
    """A leg of one straight piece per row: (e, q, v) as a fan leg."""
    q = p + np.where(np.isfinite(t), t, np.nan)[:, None] * v
    return _first_stop(stop, p[:, None], v[:, None], t[:, None]), q, v


def _rotated_rows(n0, thetas):
    """The unit n0 rotated counterclockwise by each of thetas, as rows."""
    cos, sin = _libm(math.cos, thetas), _libm(math.sin, thetas)
    return np.column_stack((cos * n0[0] - sin * n0[1],
                            cos * n0[1] + sin * n0[0]))


def _launch_rows(w, grid, ws, rho, v, n, outward):
    """_launch for rows of directions v, normals n and rates outward, on
    the shells (grid, ws) of w.shell_grid.  Returns the shell indices, the
    directions and a mask of the rows that launch."""
    j, w_from = _launch_shell(w, grid[1:].tolist(), rho)
    j = np.full(len(v), j)
    ok = np.ones(len(v), dtype=bool)
    if w_from is not None:
        j -= outward < -_EPS
        bend = ws[j] != w_from
        v = v.copy()
        v[bend], ok[bend] = _refract_rows(v[bend], n[bend], w_from,
                                          ws[j[bend]])
    return j, v, ok


def _fan_layers(w: LayeredWeight, p, thetas):
    """_layers for a fan from p."""
    if not np.all((-math.pi / 2 < thetas) & (thetas < math.pi / 2)):
        raise ValueError("launch angle must be strictly subcritical")
    depths = np.array(w.depths())
    ws = np.array([wk for _, wk in w.layers])
    v = np.column_stack((_libm(math.sin, thetas), -_libm(math.cos, thetas)))
    st = {"p": np.tile(p, (len(v), 1)), "v": v}

    def leg(st, stop):
        p, v = st["p"], st["v"]
        k = st["k"] = np.sum(p[:, 1:] <= -depths + _EPS, axis=1)
        down = (k < len(depths)) & (v[:, 1] < 0)
        y = -depths[np.minimum(k, len(depths) - 1)]
        t = np.divide(y - p[:, 1], v[:, 1], out=np.full(len(v), np.inf),
                      where=down)
        e, q, v = _straight_rows(stop, p, v, t)
        q[down, 1] = y[down]
        return e, q, v

    def turn(st, q, u):
        k = st["k"]
        v, ok = _refract_rows(u, np.array([[0.0, 1.0]]), ws[k],
                              ws[np.minimum(k + 1, len(ws) - 1)])
        st["p"], st["v"] = q, v
        return ok

    return np.ones(len(v), dtype=bool), st, leg, turn


def _fan_diamonds(w: RadialWeight, p, thetas, n_shells):
    """_diamonds for a fan from p.  A run leg of each row is one row of a
    blocked _run; the rows with a run leg are sorted by the shells it
    crosses, so a block pads its rows little."""
    grid, ws = w.shell_grid(n_shells)
    n_radii = len(grid) - 1
    sx, sy = _quadrant(p, (1.0, 1.0))
    v = _rotated_rows((sx / SQRT2, sy / SQRT2), thetas)
    # _quadrant for each row
    sx, sy = (np.where(c > _EPS, 1.0, np.where(c < -_EPS, -1.0, np.where(
        vc >= 0, 1.0, -1.0))) for c, vc in zip(p, v.T))
    j, v, ok = _launch_rows(w, grid, ws, abs(p[0]) + abs(p[1]), v,
                            np.column_stack((sx, sy)) / SQRT2,
                            sx * v[:, 0] + sy * v[:, 1])
    st = {"p": np.tile(p, (len(v), 1)), "v": v, "sx": sx, "sy": sy, "j": j}

    def run(stop, p, v, sx, sy, j, step, n_sh):
        """One _diamonds run leg per row, padded to the longest run with
        shells of zero width and infinite weight."""
        m, cols = len(j), np.arange(int(n_sh.max()))
        rows, out = np.arange(m), step[:, None] > 0
        x0, y0, vx, vy = sx * p[:, 0], sy * p[:, 1], sx * v[:, 0], sy * v[:, 1]
        gi = np.where(out, j[:, None] + 1 + cols, j[:, None] - cols)
        rr = np.column_stack((x0 + y0, grid[np.clip(gi, 1, n_radii)]))
        wi = np.where(out, j[:, None] + cols, j[:, None] - cols)
        wr = np.where(cols < n_sh[:, None], ws[np.clip(wi, 0, n_radii)],
                      np.inf)
        kappa = (ws[j] * abs(vx - vy) / SQRT2)[:, None]
        tir, off = _run(rr, wr, kappa)
        mirror = (step * (vx - vy) < 0)[:, None]
        xs = np.where(mirror, off[1], off[0]) + x0[:, None]
        ys = np.where(mirror, off[0], off[1]) + y0[:, None]
        # the first reflecting shell after the first, else the run's end
        k = np.minimum(np.argmax(np.column_stack((tir[:, 1:], rows >= 0)),
                                 axis=1) + 1, n_sh)
        # a piece crosses an axis it starts more than _EPS away from
        cut = [(c[:, 1:] < 0) & (c[:, :-1] > _EPS) & (cols < k[:, None])
               for c in (xs, ys)]
        crossed = (cut[0] | cut[1]).any(axis=1)
        i = np.where(crossed, (cut[0] | cut[1]).argmax(axis=1) + 1, k)
        a, b = rows, i - 1
        f = [np.divide(c[a, b], c[a, b] - c[a, i], out=np.full(m, np.inf),
                       where=crossed & m_[a, b])
             for c, m_ in zip((xs, ys), cut)]
        on_x = f[0] <= f[1]
        f = np.where(crossed, np.where(on_x, *f), 0.0)
        end = [np.where(crossed, c[a, b] + f * (c[a, i] - c[a, b]), c[a, i])
               for c in (xs, ys)]
        event = np.where(crossed, np.where(on_x, _AXIS_X, _AXIS_Y), step)
        # the pieces up to the end, in the world frame
        n = int(i.max())
        sgn = np.stack((sx, sy), axis=1)[:, None]
        pts = np.stack((xs[:, :n + 1], ys[:, :n + 1]), axis=-1) * sgn
        pts[a, i] = np.column_stack(end) * sgn[:, 0]
        t = np.hypot(*np.moveaxis(pts[:, 1:] - pts[:, :-1], -1, 0))
        t[cols[:n] >= i[:, None]] = np.nan
        s = np.minimum(kappa / wr[:, :n], 1.0 - 1e-13) \
            * np.where(mirror, -1.0, 1.0)
        c = np.sqrt(1.0 - s * s)
        coef = (step / SQRT2)[:, None]
        u = np.stack((coef * (c + s), coef * (c - s)), axis=-1) * sgn
        starts = pts[:, :-1].copy()
        starts[:, 0] = p
        e = _first_stop(stop, starts, u, t)
        return e, pts[a, i], u[a, b], event, j + step * (i - 1)

    def leg(st, stop):
        p, v, sx, sy, j = (st[key] for key in ("p", "v", "sx", "sy", "j"))
        x0, y0, vx, vy = sx * p[:, 0], sy * p[:, 1], sx * v[:, 0], sy * v[:, 1]
        step = np.where(vx + vy > 0, 1, -1)
        n_sh = np.where(step > 0, n_radii - j, j)
        flat = (abs(vx + vy) <= _EPS) | (n_sh == 0)
        e, q, u = np.empty_like(p), np.empty_like(p), v.copy()
        event, j = np.zeros(len(j), dtype=int), j.copy()
        # straight to the axis ahead
        rows = np.flatnonzero(flat)
        t = np.full(len(rows), np.inf)
        for axis, c, vc in ((_AXIS_X, x0[rows], vx[rows]),
                            (_AXIS_Y, y0[rows], vy[rows])):
            tc = np.divide(-c, vc, out=np.full(len(rows), np.inf),
                           where=(vc < 0) & (c > _EPS))
            event[rows[tc < t]] = axis
            t = np.minimum(t, tc)
        e[rows], q[rows], _ = _straight_rows(stop, p[rows], v[rows], t)
        # run legs, longest first, in blocks of about _BLOCK pieces
        rows = np.flatnonzero(~flat)
        rows = rows[np.argsort(-n_sh[rows], kind="stable")]
        at = 0
        while at < len(rows):
            b = rows[at:at + max(1, _BLOCK // int(n_sh[rows[at]]))]
            e[b], q[b], u[b], event[b], j[b] = run(
                stop, p[b], v[b], sx[b], sy[b], j[b], step[b], n_sh[b])
            at += len(b)
        st["event"], st["j"] = event, j
        return e, q, u

    def turn(st, q, u):
        event, sx, sy, j = (st[key] for key in ("event", "sx", "sy", "j"))
        p, v, ok = q.copy(), u.copy(), np.ones(len(q), dtype=bool)
        for axis, sk in ((_AXIS_X, sx), (_AXIS_Y, sy)):
            on = event == axis
            sk[on] = np.where(u[on, axis - _AXIS_X] >= 0, 1.0, -1.0)
            p[on, axis - _AXIS_X] = 0.0
        sh = np.abs(event) == 1
        j[sh] += event[sh]
        v[sh], ok[sh] = _refract_rows(
            u[sh], np.column_stack((sx[sh], sy[sh])) / SQRT2,
            ws[j[sh] - event[sh]], ws[j[sh]])
        st["p"], st["v"] = p, v
        return ok

    return ok, st, leg, turn


def _fan_circles(w: RadialWeight, p, thetas, n_shells):
    """_circles for a fan from p."""
    grid, ws = w.shell_grid(n_shells)
    n_radii = len(grid) - 1
    r = math.hypot(*p)
    n0 = (p[0] / r, p[1] / r) if r >= _EPS else (1.0, 0.0)
    v = _rotated_rows(n0, thetas)
    j, v, ok = _launch_rows(w, grid, ws, r, v, np.tile(n0, (len(v), 1)),
                            v[:, 0] * n0[0] + v[:, 1] * n0[1])
    st = {"p": np.tile(p, (len(v), 1)), "v": v, "j": j}

    def leg(st, stop):
        p, v, j = st["p"], st["v"], st["j"]
        # the nearer hit on circles j - 1 and j, the lower circle on ties
        ts, idx = [], []
        for i in (j - 1, j):
            disc, *hits = circle_hits(p.T, v.T,
                                      grid[np.clip(i + 1, 1, n_radii)])
            valid = (i >= 0) & (i < n_radii) & (disc > 0)
            ts += [np.where(valid & (t > 1e-10), t, np.inf) for t in hits]
            idx += [i, i]
        pick = np.argmin(ts, axis=0)
        rows = np.arange(len(j))
        st["idx"] = np.array(idx)[pick, rows]
        return _straight_rows(stop, p, v, np.array(ts)[pick, rows])

    def turn(st, q, u):
        idx, j = st["idx"], st["j"]
        n = q / _libm(math.hypot, q[:, 0], q[:, 1])[:, None]
        w_from = ws[j]
        j[:] = np.where(u[:, 0] * n[:, 0] + u[:, 1] * n[:, 1] > 0, idx + 1,
                        idx)
        v, ok = _refract_rows(u, n, w_from, ws[j])
        st["p"], st["v"] = q, v
        return ok

    return ok, st, leg, turn


def trace_fan(w: WeightField, start, thetas, stop, n_shells: int):
    """End points of the rays trace_layered_ray(w, start, theta, stop,
    n_shells) for every theta in thetas, traced in lockstep.

    One generation traces one leg of every live ray, checks its pieces
    against the stop and turns the rays that go on.  A ray's row is NaN
    where trace_layered_ray raises TraceError or TotalInternalReflection.

    :param stop: the line (nx, ny, c), nx*x + ny*y = c.
    :raises ValueError: a stop that is no line, or an invalid launch.
    :raises TraceError: w has no medium, as in trace_layered_ray.
    """
    stop = _line(stop)
    p = (float(start[0]), float(start[1]))
    thetas = np.asarray(thetas, dtype=float)
    if isinstance(w, LayeredWeight):
        ok, st, leg, turn = _fan_layers(w, p, thetas)
    elif isinstance(w, RadialWeight):
        shells = _fan_diamonds if w.norm == "l1" else _fan_circles
        ok, st, leg, turn = shells(w, p, thetas, n_shells)
    else:
        raise TraceError(f"{type(w).__name__} has no traced medium; "
                         "use the grid oracle")
    ends = np.full((len(thetas), 2), np.nan)
    rows = np.flatnonzero(ok)
    st = {key: a[rows] for key, a in st.items()}
    for _ in range(_MAX_LEGS):
        if not rows.size:
            break
        e, q, u = leg(st, stop)
        hit = ~np.isnan(e[:, 0])
        ends[rows[hit]] = e[hit]
        go = ~hit & np.isfinite(q[:, 0])
        st = {key: a[go] for key, a in st.items()}
        ok = turn(st, q[go], u[go])
        st = {key: a[ok] for key, a in st.items()}
        rows = rows[go][ok]
    return ends
