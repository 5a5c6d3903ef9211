"""Ray propagation through layered and radial media.

A ray is a polyline that is straight inside each constant-weight region and
refracts at interfaces.  Horizontally layered media refract at depth lines;
l1-radial media refract at diamond shells (with the quadrant's edge normal);
l2-radial media refract at circles (radial normal).  Sloped l1-radial
profiles are discretized into concentric constant-weight shells, the weight
of each shell taken at its outer radius, so refined shells converge to the
continuous bending ray.

Rays are traced as a fan, many rays from one start in lockstep, by one
loop, _trace.  Each generation traces one leg of every live ray (its
straight pieces up to the medium's next event), checks the pieces against
the stop and turns the rays that go on; an l1 leg is one _run across a
quadrant's shells.  trace_fan returns a fan's end points, and
trace_layered_ray is the fan of one ray, which also keeps its vertices.

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
from numpy.lib.stride_tricks import sliding_window_view

from .paths import Polyline
from .snell import SolverError, TotalInternalReflection
from .weights import (SQRT2, LayeredWeight, RadialWeight, WeightField,
                      circle_hits)

_EPS = 1e-12
_MAX_LEGS = 200000
SWEEP_SHELLS = 4096  # default l1 shell count of a traced sloped profile
# (ray, shell) pairs per temporary of a fan's run legs, 96 KiB: at 2^15 the
# allocator handed them back after each block, to page-fault them in again
_BLOCK = 12288
_AXIS_X, _AXIS_Y = 2, 3  # l1 leg events besides the shell steps -1 and +1


class TraceError(SolverError):
    """Ray failed to reach the stop condition within the leg budget."""


def _line(stop):
    """The stop line nx*x + ny*y = c as the floats (nx, ny, c)."""
    if isinstance(stop, tuple) and len(stop) == 3 and all(
            isinstance(x, (int, float)) for x in stop):
        if not all(map(math.isfinite, stop)):
            raise ValueError(f"stop {stop!r} has a coefficient that is not "
                             "finite")
        return tuple(map(float, stop))
    raise ValueError(f"unknown stop {stop!r}: not a line (nx, ny, c)")


def _first_stop(stop, s, u, t, q, keep):
    """Where each row's pieces first meet the stop line (nx, ny, c),
    nx*x + ny*y = c, NaN rows where none does.

    Piece k of a row starts at (s[0][:, k], s[1][:, k]) along the unit
    (u[0][:, k], u[1][:, k]) for the length t[:, k] (inf: no end, NaN: no
    piece) to (q[0][:, k], q[1][:, k]).  With keep, also each row's piece
    ends before the one that meets the stop (all where none does).
    """
    nx, ny, c = stop
    den = nx * u[0] + ny * u[1]
    # den == 0 (parallel to the line) gives NaN, which reaches nothing
    ts = (c - nx * s[0] - ny * s[1]) / np.where(den == 0, np.nan, den)
    # the stop wins ties: it is found up to _EPS past the leg's end
    hit = (ts > _EPS) & (ts <= np.minimum(t, 1e6) + _EPS)
    rows, k = np.arange(len(t)), hit.argmax(axis=1)
    e = np.column_stack([sc[rows, k] + ts[rows, k] * uc[rows, k]
                         for sc, uc in zip(s, u)])
    reached = hit.any(axis=1)
    e[~reached] = np.nan
    if not keep:
        return e, []
    n = np.where(reached, k, np.sum(~np.isnan(t), axis=1))
    return e, [np.column_stack((qx[:nr], qy[:nr]))
               for qx, qy, nr in zip(*q, n)]


def _straight_rows(stop, p, v, t, keep, q=None):
    """A leg of one straight piece per row from p along v, of length t
    (inf: no end), as (e, q, v, pieces) of a fan leg; q overrides its
    ends."""
    if q is None:
        q = p + np.where(np.isfinite(t), t, np.nan)[:, None] * v
    e, pieces = _first_stop(stop, p.T[:, :, None], v.T[:, :, None],
                            t[:, None], q.T[:, :, None], keep)
    return e, q, v, pieces


def _libm(f, *cols):
    """The math function f on each row of the arrays cols: numpy's own
    transcendental functions may differ from math's in the last bit."""
    return np.fromiter(map(f, *(c.tolist() for c in cols)), float,
                       count=len(cols[0]))


def _refract_rows(v, n, w_in, w_out):
    """Bend the unit directions v across interfaces with the unit normals n,
    (m, 2) each, from the weights w_in to w_out, keeping w sin(theta).

    Returns the bent directions and the refracted sines, above 1 on the
    rows that totally reflect.  At normal incidence (no tangential part)
    a ray goes straight on.
    """
    vn = v[:, 0] * n[:, 0] + v[:, 1] * n[:, 1]
    tx, ty = v[:, 0] - vn * n[:, 0], v[:, 1] - vn * n[:, 1]
    tlen = _libm(math.hypot, tx, ty)
    s_in = _libm(math.sin, _libm(math.asin, np.minimum(tlen, 1.0)))
    s_out = (w_in / w_out) * s_in
    theta_out = _libm(math.asin, np.where(s_out > 1.0, 0.0, s_out))
    s = np.divide(_libm(math.sin, theta_out), tlen,
                  out=np.zeros_like(tlen), where=tlen >= _EPS)
    c = np.copysign(_libm(math.cos, theta_out), vn)
    return np.column_stack((c * n[:, 0] + s * tx,
                            c * n[:, 1] + s * ty)), s_out


def _run(radii, weights, kappa):
    """A monotone run across l1 shells, from its start.

    radii[..., k] are the shell radii in the order crossed, rising outward
    and falling inward; weights[..., k] is the weight between radii k and
    k + 1.  A shell of signed width dr moves the run (dr/2)(1 + tan,
    1 - tan), sin(theta) = kappa / weight clipped below 1.  Returns (tir,
    sin, cos, offsets): the reflecting shells, where sin(theta) >=
    1 - 1e-13, each shell's clipped sine and its cosine, and the x and y
    offsets at each radius, summed in shell order.
    """
    # in place, so that a block's temporaries stay few (see _BLOCK)
    s = kappa / weights
    tir = s >= 1.0 - 1e-13
    np.minimum(s, 1.0 - 1e-13, out=s)
    c = np.multiply(s, s)
    np.sqrt(np.subtract(1.0, c, out=c), out=c)
    tan = np.divide(s, c)
    half = np.subtract(radii[..., 1:], radii[..., :-1])
    half *= 0.5
    offsets = np.zeros((2, *radii.shape))
    step = np.add(1.0, tan)
    np.cumsum(np.multiply(half, step, out=step), axis=-1,
              out=offsets[0, ..., 1:])
    np.subtract(1.0, tan, out=tan)
    np.cumsum(np.multiply(half, tan, out=tan), axis=-1,
              out=offsets[1, ..., 1:])
    return tir, s, c, offsets


def _rotated_rows(n0, thetas):
    """The unit n0 rotated counterclockwise by each of thetas, as rows."""
    cos, sin = _libm(math.cos, thetas), _libm(math.sin, thetas)
    return np.column_stack((cos * n0[0] - sin * n0[1],
                            cos * n0[1] + sin * n0[0]))


def _launch(w: RadialWeight, grid, ws, rho, v, n, outward):
    """Shell indices, directions and refracted sines (0: no bend) of the
    rays launched at radius rho along the rows v, bent in place, on the
    shells (grid, ws) of w.shell_grid.  n are their outward normals and
    outward their rates of radius change: a launch on an interface
    refracts into whichever shell it proceeds to."""
    radii = grid[1:].tolist()
    i = bisect_left(radii, rho)
    # the nearest interface is one of the two around rho
    on_boundary = any(abs(r - rho) < 1e-11
                      for r in radii[max(i - 1, 0):i + 1])
    j = np.full(len(v), bisect_right(radii,
                                     rho + (1e-11 if on_boundary else 0.0)))
    s = np.zeros(len(v))
    if on_boundary:
        w_from = w.profile_at(rho)
        j -= outward < -_EPS
        bend = ws[j] != w_from
        v[bend], s[bend] = _refract_rows(v[bend], n[bend], w_from,
                                         ws[j[bend]])
    return j, v, s


def _layers(w: LayeredWeight, p, thetas, n_shells):
    """Horizontal layers, crossed downward at the depth lines."""
    if not np.all((-math.pi / 2 < thetas) & (thetas < math.pi / 2)):
        raise ValueError("launch angle must be strictly subcritical")
    depths = np.array(w.depths())
    ws = np.array([wk for _, wk in w.layers])
    v = np.column_stack((_libm(math.sin, thetas), -_libm(math.cos, thetas)))

    def leg(st, stop, keep):
        p, v = st["p"], st["v"]
        k = st["k"] = np.sum(p[:, 1:] <= -depths + _EPS, axis=1)
        down = (k < len(depths)) & (v[:, 1] < 0)
        y = -depths[np.minimum(k, len(depths) - 1)]
        t = np.divide(y - p[:, 1], v[:, 1], out=np.full(len(v), np.inf),
                      where=down)
        q = p + np.where(down, t, np.nan)[:, None] * v
        q[down, 1] = y[down]
        return _straight_rows(stop, p, v, t, keep, q)

    def turn(st, q, u):
        k = st["k"]
        st["p"], (st["v"], s) = q, _refract_rows(
            u, np.array([[0.0, 1.0]]), ws[k],
            ws[np.minimum(k + 1, len(ws) - 1)])
        return s

    return np.zeros(len(v)), {"v": v}, leg, turn


def _quadrant(c, vc):
    """The sign of each coordinate c, of the direction vc within _EPS of 0."""
    return np.where(c > _EPS, 1.0,
                    np.where(c < -_EPS, -1.0, np.where(vc >= 0, 1.0, -1.0)))


def _diamonds(w: RadialWeight, p, thetas, n_shells):
    """l1 shells: diamond edges with the quadrant's normal.

    A leg is one _run in the quadrant frame (sx, sy), at kappa = w sin(theta)
    against the edge normal.  It ends where the ray crosses an axis (the
    weight is continuous there, so only the frame flips) or at the shell
    the turn refracts into once: the outer or innermost one, or one _run
    finds reflecting, where the turn reflects.  _run reflects from
    sin(theta) >= 1 - 1e-13, the turn only beyond 1; a ray closer to
    grazing keeps the clipped sine.  In the outer shell outward, the
    innermost inward or tangent to the shells, a leg is straight to the
    axis ahead.  The rows with a run leg are sorted by the shells it
    crosses, so a block of them pads its rows little.
    """
    grid, ws = w.shell_grid(n_shells)
    n_radii = len(grid) - 1
    # a run from shell j crosses the window at j outward, at 3 n_radii - j
    # inward, then padding shells of zero width and infinite weight
    pad = np.ones(n_radii)
    run_radii = sliding_window_view(np.concatenate(
        (grid[1:], grid[-1] * pad, grid[:0:-1], grid[1] * pad)), n_radii)
    run_ws = sliding_window_view(np.concatenate(
        (ws[:-1], np.inf * pad, ws[-1:0:-1], np.inf * pad)), n_radii)
    sx, sy = _quadrant(np.array(p), np.ones(2))
    v = _rotated_rows((sx / SQRT2, sy / SQRT2), thetas)
    sx, sy = (_quadrant(c, vc) for c, vc in zip(p, v.T))
    j, v, s = _launch(w, grid, ws, abs(p[0]) + abs(p[1]), v,
                      np.column_stack((sx, sy)) / SQRT2,
                      sx * v[:, 0] + sy * v[:, 1])

    def run(stop, keep, p, v, sx, sy, j, step, n_sh):
        """One run leg per row, padded to the longest run with shells of
        zero width and infinite weight."""
        m, cols = len(j), np.arange(int(n_sh.max()))
        rows = np.arange(m)
        x0, y0, vx, vy = sx * p[:, 0], sy * p[:, 1], sx * v[:, 0], sy * v[:, 1]
        at = np.where(step > 0, j, 3 * n_radii - j)
        rr = np.column_stack((x0 + y0, run_radii[at, :len(cols)]))
        wr = run_ws[at, :len(cols)]
        kappa = (ws[j] * abs(vx - vy) / SQRT2)[:, None]
        tir, s, c, off = _run(rr, wr, kappa)
        # _run drifts toward +x; a ray drifting toward +y is its mirror image
        mirror = (step * (vx - vy) < 0)[:, None]
        xs = np.where(mirror, off[1], off[0]) + x0[:, None]
        ys = np.where(mirror, off[0], off[1]) + y0[:, None]
        # the first reflecting shell after the first, else the run's end
        k = np.minimum(np.argmax(np.column_stack((tir[:, 1:], rows >= 0)),
                                 axis=1) + 1, n_sh)
        # a piece crosses an axis it starts more than _EPS away from
        before = cols < k[:, None]
        cut = [(c_[:, 1:] < 0) & (c_[:, :-1] > _EPS) & before
               for c_ in (xs, ys)]
        either = cut[0] | cut[1]
        crossed = either.any(axis=1)
        i = np.where(crossed, either.argmax(axis=1) + 1, k)
        a, b = rows, i - 1
        f = [np.divide(c_[a, b], c_[a, b] - c_[a, i], out=np.full(m, np.inf),
                       where=crossed & m_[a, b])
             for c_, m_ in zip((xs, ys), cut)]
        # on a tie the x axis
        on_x = f[0] <= f[1]
        f = np.where(crossed, np.where(on_x, *f), 0.0)
        end = [np.where(crossed, c_[a, b] + f * (c_[a, i] - c_[a, b]),
                        c_[a, i]) for c_ in (xs, ys)]
        event = np.where(crossed, np.where(on_x, _AXIS_X, _AXIS_Y), step)
        # the pieces up to the end, in the world frame; mirroring negates
        # the sines
        n = int(i.max())
        xs, ys = xs[:, :n + 1] * sx[:, None], ys[:, :n + 1] * sy[:, None]
        xs[a, i], ys[a, i] = end[0] * sx, end[1] * sy
        t = np.hypot(xs[:, 1:] - xs[:, :-1], ys[:, 1:] - ys[:, :-1])
        t[cols[:n] >= i[:, None]] = np.nan
        s, c = s[:, :n] * np.where(mirror, -1.0, 1.0), c[:, :n]
        u = (((step * sx) / SQRT2)[:, None] * (c + s),
             ((step * sy) / SQRT2)[:, None] * (c - s))
        starts = xs[:, :-1].copy(), ys[:, :-1].copy()
        starts[0][:, 0], starts[1][:, 0] = p[:, 0], p[:, 1]
        e, pieces = _first_stop(stop, starts, u, t,
                                (xs[:, 1:], ys[:, 1:]), keep)
        return (e, np.column_stack((xs[a, i], ys[a, i])),
                np.column_stack((u[0][a, b], u[1][a, b])), pieces, event,
                j + step * (i - 1))

    def ahead(stop, keep, p, v, sx, sy, j, step, n_sh):
        """A straight leg per row to the axis ahead."""
        t, event = np.full(len(j), np.inf), np.zeros(len(j), dtype=int)
        for axis, c, vc in ((_AXIS_X, sx * p[:, 0], sx * v[:, 0]),
                            (_AXIS_Y, sy * p[:, 1], sy * v[:, 1])):
            tc = np.divide(-c, vc, out=np.full(len(j), np.inf),
                           where=(vc < 0) & (c > _EPS))
            event[tc < t] = axis
            t = np.minimum(t, tc)
        return (*_straight_rows(stop, p, v, t, keep), event, j)

    def leg(st, stop, keep):
        p, v, sx, sy, j = (st[key] for key in ("p", "v", "sx", "sy", "j"))
        step = np.where(sx * v[:, 0] + sy * v[:, 1] > 0, 1, -1)
        n_sh = np.where(step > 0, n_radii - j, j)
        flat = (abs(sx * v[:, 0] + sy * v[:, 1]) <= _EPS) | (n_sh == 0)
        e, q, u = np.empty_like(p), np.empty_like(p), v.copy()
        event, j, pieces = np.zeros(len(j), dtype=int), j.copy(), {}
        # the flat rows, then the run legs, longest first, in blocks of
        # about _BLOCK pieces
        runs = np.flatnonzero(~flat)
        runs = runs[np.argsort(-n_sh[runs], kind="stable")]
        blocks, at = [(ahead, np.flatnonzero(flat))], 0
        while at < len(runs):
            blocks.append((run, runs[at:at + max(
                1, _BLOCK // int(n_sh[runs[at]]))]))
            at += len(blocks[-1][1])
        for f, b in blocks:
            if b.size:
                e[b], q[b], u[b], got, event[b], j[b] = f(
                    stop, keep, p[b], v[b], sx[b], sy[b], j[b], step[b],
                    n_sh[b])
                pieces.update(zip(b, got))
        st["event"], st["j"] = event, j
        return e, q, u, pieces

    def turn(st, q, u):
        event, sx, sy, j = (st[key] for key in ("event", "sx", "sy", "j"))
        p, v, s = q.copy(), u.copy(), np.zeros(len(q))
        for axis, sk in ((_AXIS_X, sx), (_AXIS_Y, sy)):
            on = event == axis
            sk[on] = np.where(u[on, axis - _AXIS_X] >= 0, 1.0, -1.0)
            p[on, axis - _AXIS_X] = 0.0
        sh = np.abs(event) == 1
        j[sh] += event[sh]
        v[sh], s[sh] = _refract_rows(
            u[sh], np.column_stack((sx[sh], sy[sh])) / SQRT2,
            ws[j[sh] - event[sh]], ws[j[sh]])
        st["p"], st["v"] = p, v
        return s

    return s, {"v": v, "sx": sx, "sy": sy, "j": j}, leg, turn


def _circles(w: RadialWeight, p, thetas, n_shells):
    """l2 shells: circles with the radial normal, one per constant piece."""
    grid, ws = w.shell_grid(n_shells)
    n_radii = len(grid) - 1
    r = math.hypot(*p)
    n0 = (p[0] / r, p[1] / r) if r >= _EPS else (1.0, 0.0)
    v = _rotated_rows(n0, thetas)
    j, v, s = _launch(w, grid, ws, r, v, np.tile(n0, (len(v), 1)),
                      v[:, 0] * n0[0] + v[:, 1] * n0[1])

    def leg(st, stop, keep):
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
        return _straight_rows(stop, p, v, np.array(ts)[pick, rows], keep)

    def turn(st, q, u):
        idx, j = st["idx"], st["j"]
        n = q / _libm(math.hypot, q[:, 0], q[:, 1])[:, None]
        w_from = ws[j]
        j[:] = np.where(u[:, 0] * n[:, 0] + u[:, 1] * n[:, 1] > 0, idx + 1,
                        idx)
        st["p"], (st["v"], s) = q, _refract_rows(u, n, w_from, ws[j])
        return s

    return s, {"v": v, "j": j}, leg, turn


def _trace(w: WeightField, start, thetas, stop, n_shells, keep):
    """The rays from start at each of thetas until the stop, in lockstep.

    A medium returns the rays' launch sines, their state as a dict of row
    arrays, and leg and turn.  leg(st, stop, keep) traces one leg of every
    row and returns (e, q, u, pieces): the points where it meets the stop
    (NaN rows where it does not), its ends (not finite where it has none),
    its last directions and with keep each row's piece ends up to the
    stop.  turn(st, q, u) passes each row's event and returns the
    refracted sines; above 1 a ray totally reflects.  Returns the end
    points (NaN rows where a ray fails), the sine and point of each total
    reflection (zero rows for the other rays) and with keep their vertices.
    """
    stop = _line(stop)
    p = (float(start[0]), float(start[1]))
    if not all(map(math.isfinite, p)):
        raise ValueError(f"start {start!r} is not finite")
    thetas = np.asarray(thetas, dtype=float)
    bad = thetas[~np.isfinite(thetas)]
    if bad.size:
        raise ValueError(f"launch angle {float(bad[0])!r} is not finite")
    if isinstance(w, LayeredWeight):
        medium = _layers
    elif isinstance(w, RadialWeight):
        medium = _diamonds if w.norm == "l1" else _circles
    else:
        raise TraceError(f"{type(w).__name__} has no traced medium; "
                         "use the grid oracle")
    s, st, leg, turn = medium(w, p, thetas, n_shells)
    st["p"] = np.tile(p, (len(thetas), 1))
    ends, tir = np.full((len(thetas), 2), np.nan), np.zeros((len(thetas), 3))
    verts = [[np.array([p])] for _ in thetas] if keep else None
    rows = np.arange(len(thetas))
    for _ in range(_MAX_LEGS):
        ok = ~(s > 1.0)
        tir[rows[~ok]] = np.column_stack((s[~ok], st["p"][~ok]))
        st, rows = {key: a[ok] for key, a in st.items()}, rows[ok]
        if not rows.size:
            break
        e, q, u, pieces = leg(st, stop, keep)
        hit = ~np.isnan(e[:, 0])
        ends[rows[hit]] = e[hit]
        if keep:
            for i, r in enumerate(rows):
                verts[r] += [pieces[i], e[i:i + 1]] if hit[i] else [pieces[i]]
        go = ~hit & np.isfinite(q[:, 0])
        st, rows = {key: a[go] for key, a in st.items()}, rows[go]
        s = turn(st, q[go], u[go])
    return ends, tir, verts


def trace_fan(w: WeightField, start, thetas, stop, n_shells: int):
    """End points of the rays trace_layered_ray(w, start, theta, stop,
    n_shells) for every theta in thetas, traced in lockstep.  A ray's row
    is NaN where trace_layered_ray raises TraceError or
    TotalInternalReflection; the fan raises the other errors it raises.
    """
    return _trace(w, start, thetas, stop, n_shells, False)[0]


def trace_layered_ray(w: WeightField, start, theta_0: float, stop,
                      n_shells: int = SWEEP_SHELLS) -> Polyline:
    """Propagate one ray through w from start until the stop condition.

    :param stop: the line (nx, ny, c), nx*x + ny*y = c.
    :param n_shells: shell count for discretizing sloped radial profiles.
    :raises ValueError: a stop that is no line, a start, angle or stop
        that is not finite, or an invalid launch.
    :raises TotalInternalReflection: supercritical incidence at an interface.
    :raises TraceError: stop condition unreachable, or w has no medium.
    """
    ends, tir, (verts,) = _trace(w, start, [theta_0], stop, n_shells, True)
    s, x, y = tir[0].tolist()
    if s > 1.0:
        # the refracted sine s read as w_in / w_out at grazing incidence
        raise TotalInternalReflection(s, 1.0, math.pi / 2,
                                      f"({x:.6g}, {y:.6g})")
    if np.isnan(ends[0, 0]):
        raise TraceError("ray did not reach the stop condition")
    return Polyline.from_points(np.concatenate(verts))
