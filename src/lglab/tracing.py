"""Ray propagation through layered and radial media.

A ray is straight inside each constant-weight region and refracts at
interfaces: depth lines in horizontally layered media, diamonds (with the
quadrant's edge normal) in l1-radial media and circles in l2-radial media.
On a sloped l1-radial piece it bends, keeping w sin(theta) against the edge
normal, by the closed form of the level curves' sweeps (curves._drift).

Rays are traced as a fan, many rays from one start in lockstep, by one
loop, _trace.  Each generation traces one leg of every live ray (its
pieces up to the medium's next event), checks the pieces against the stop
and turns the rays that go on.  trace_fan returns a fan's end points, and
trace_layered_ray is the fan of one ray, which also keeps its vertices.

Angle convention: theta is measured from the interface normal.  For layered
media the ray starts downward, tilted by theta_0 toward +x.  For radial media
it starts outward, turned counterclockwise by theta_0 from the normal: the
start's quadrant normal for l1 (from the upper quadrant on the +x axis), the
radial normal for l2, and +x at the centre, where every direction is outward.
"""
from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .curves import _ROOT_TOL, _SWEEP_SAMPLES, _drift
from .paths import Polyline
from .snell import SolverError, TotalInternalReflection
from .weights import (SQRT2, LayeredWeight, RadialWeight, WeightField,
                      circle_hits)

_EPS = 1e-12
_MAX_LEGS = 200000
# legs an l1 ray may take per profile piece before it counts as trapped (a
# turn holds a ray only within its quadrant); catalog rays take at most 8
_L1_LEGS = 16
_ROOT_STEPS = 100  # regula falsi steps a crossing takes at most
# l1 leg events besides the piece steps -1 and +1: the turn where w falls
# to |kappa|, and the x and y coordinate reaching 0
_TURN, _AXIS_X, _AXIS_Y = 0, 2, 3


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


def _rotated_rows(n0, thetas):
    """The unit n0 rotated counterclockwise by each of thetas, as rows."""
    cos, sin = _libm(math.cos, thetas), _libm(math.sin, thetas)
    return np.column_stack((cos * n0[0] - sin * n0[1],
                            cos * n0[1] + sin * n0[0]))


def _launch(w: RadialWeight, rho, v, n, outward):
    """Piece indices, directions and refracted sines (0: no bend) of the
    rays launched at radius rho along the rows v, bent in place.  n are
    their outward normals and outward their rates of radius change: a
    launch on a breakpoint refracts into whichever piece it proceeds to."""
    radii = w.breakpoints()
    on_boundary = any(abs(r - rho) < 1e-11 for r in radii)
    j = np.full(len(v), bisect_right(radii,
                                     rho + (1e-11 if on_boundary else 0.0)))
    s = np.zeros(len(v))
    if on_boundary:
        w_from = w.profile_at(rho)
        j -= outward < -_EPS
        ws = np.array([p.offset + p.slope * rho for p in w.pieces])
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


def _roots(f, lo, hi, flo, fhi):
    """The sign change of f(rows, x) on each bracket (lo, hi), either way
    round, where flo and fhi are f there and fhi is 0 or of the other sign:
    curves._refine's Illinois regula falsi on every row at once."""
    done, moved, live = fhi == 0, np.zeros(len(hi)), np.flatnonzero(fhi)
    for _ in range(_ROOT_STEPS):
        live = live[abs(hi[live] - lo[live]) > 2.0 * _ROOT_TOL]
        if not live.size:
            break
        a, b, fa, fb, mv = (z[live] for z in (lo, hi, flo, fhi, moved))
        x = np.clip(b - fb * (b - a) / (fb - fa), np.minimum(a, b) + _ROOT_TOL,
                    np.maximum(a, b) - _ROOT_TOL)
        fx = f(live, x)
        kept = (fx > 0) == (fa > 0)  # the sign change lies between x and b
        lo[live], hi[live] = np.where(kept, x, a), np.where(kept, b, x)
        flo[live] = np.where(kept, fx, fa * np.where(mv > 0, 0.5, 1.0))
        fhi[live] = np.where(kept, fb * np.where(mv < 0, 0.5, 1.0), fx)
        moved[live] = np.where(kept, -1.0, 1.0)
    return np.where(done, hi, 0.5 * (lo + hi))


def _diamonds(w: RadialWeight, p, thetas, n_shells):
    """l1 pieces: diamond edges with the quadrant's normal.

    In the quadrant frame (sx x, sy y) a ray keeps kappa = w sin(theta)
    against the edge normal; across dr of r = |x| + |y| it moves (dr + T,
    dr - T)/2 for its drift T (curves._drift).  A leg stays in one quadrant
    and piece, r moving one way: straight on a constant piece, in closed
    form on a sloped one, split where tan(theta) is 1, -1 or parallel to
    the stop line, so that each crossing is a bracketed root.  It ends at an
    axis (the frame flips), at the piece's end (a jump refracts) or where w
    falls to |kappa| (the ray turns back).  A kept path samples a sloped
    leg uniformly in r, n_shells points over the sloped pieces' width.
    """
    lo, hi, off, slope = np.array([(q.lo, q.hi, q.offset, q.slope)
                                   for q in w.pieces]).T
    span = np.sum(np.where(slope != 0, hi - lo, 0.0)[:-1])
    sx, sy = _quadrant(np.array(p), np.ones(2))
    v = _rotated_rows((sx / SQRT2, sy / SQRT2), thetas)
    sx, sy = (_quadrant(c, vc) for c, vc in zip(p, v.T))
    r = abs(p[0]) + abs(p[1])
    i, v, s = _launch(w, r, v, np.column_stack((sx, sy)) / SQRT2,
                      sx * v[:, 0] + sy * v[:, 1])
    st = {"v": v, "sx": sx, "sy": sy, "i": i, "r": np.full(len(v), r),
          "legs": np.zeros(len(v), dtype=int)}

    def straight(stop, keep, p, v, sx, sy, i, r):
        x0, y0, vx, vy = sx * p[:, 0], sy * p[:, 1], sx * v[:, 0], sy * v[:, 1]
        rate, n = vx + vy, len(r)
        # the origin is no piece end: the axes meet there
        end = np.where(rate > 0, hi[i], np.where(i > 0, lo[i], np.nan))
        t = np.divide(end - r, rate, out=np.full(n, np.inf),
                      where=(abs(rate) > _EPS) & ~np.isnan(end))
        event = np.where(rate > 0, 1, -1)
        for axis, c, vc in ((_AXIS_X, x0, vx), (_AXIS_Y, y0, vy)):
            tc = np.divide(-c, vc, out=np.full(n, np.inf),
                           where=(vc < 0) & (c > _EPS))
            event[tc < t] = axis
            t = np.minimum(t, tc)
        return (*_straight_rows(stop, p, v, t, keep), event,
                np.where(abs(event) == 1, end, r))

    def curved(stop, keep, p, v, sx, sy, i, r):
        a, b, n = off[i], slope[i], len(r)
        vx, vy = sx * v[:, 0], sy * v[:, 1]
        # the way r goes, toward the larger weight along an edge, and the
        # sign of tan(theta); a ray along the normal does not drift
        k = (a + b * r) * np.clip((vx - vy) / SQRT2, -1.0, 1.0)
        step, kk = np.where(vx + vy == 0, np.sign(b), np.sign(vx + vy)), abs(k)
        sg = np.where(kk > 0, np.sign(k) * step, 0.0)
        cols = np.array((r, a + b * r, b, np.where(kk > 0, kk, 1.0), sg,
                         sx * p[:, 0], sy * p[:, 1]))

        def at(rows, rr):
            """The frame points at the radii rr of the rows' legs."""
            r0, w0, bb, kq, sgn, x0, y0 = cols[:, rows].reshape(
                (7, -1) + (1,) * (np.ndim(rr) - 1))
            dr = rr - r0
            with np.errstate(all="ignore"):
                t = np.where(dr != 0, sgn * _drift(w0, bb, dr, kq, np), 0.0)
            return x0 + 0.5 * (dr + t), y0 + 0.5 * (dr - t)

        # an unbounded sloped piece is followed up to the stop's 1e6
        end = np.where(step > 0, np.minimum(hi[i], 1e6), lo[i])
        r_turn = (kk - a) / b
        turns = (b * step < 0) & (step * (r_turn - end) <= 0)
        r1 = np.where(turns, np.where(step * (r_turn - r) < 0, r, r_turn),
                      end)
        # split where tan(theta) is 1 or -1 (y or x stands still) and tau
        # (the ray runs parallel to the stop line)
        nx, ny, c = stop
        ax, ay = nx * sx, ny * sy
        with np.errstate(all="ignore"):
            tau = np.array([np.ones(n), -np.ones(n), (ax + ay) / (ay - ax)])
            r_tan = np.where(np.sign(tau) == sg, (
                kk * np.hypot(1.0, tau) / abs(tau) - a) / b, np.nan)
        inside = (step * (r_tan - r) > 0) & (step * (r1 - r_tan) > 0)
        rr = step[:, None] * np.sort(step[:, None] * np.column_stack(
            (r, *np.where(inside, r_tan, r1), r1)))
        xs, ys = at(np.arange(n), rr)
        fs = np.stack((xs, ys, ax[:, None] * xs + ay[:, None] * ys - c))
        fa, fb = fs[..., :-1], fs[..., 1:]
        # an axis is crossed from off it, the stop line from either side
        cross = np.concatenate(((fa[:2] > 0) & (fb[:2] <= 0), (fa[2:] != 0) & (
            (fb[2:] == 0) | ((fa[2:] > 0) != (fb[2:] > 0)))))
        fn, row = np.nonzero(cross.any(axis=2))
        j = cross[fn, row].argmax(axis=1)
        cx, cy, cc = np.where(fn == 2, (ax[row], ay[row], c + 0 * row),
                              (fn == 0, fn == 1, 0 * row))

        def f(live, x):
            px, py = at(row[live], x)
            return cx[live] * px + cy[live] * py - cc[live]

        roots = np.full((3, n), np.inf)
        roots[fn, row] = _roots(f, rr[row, j], rr[row, j + 1],
                                fa[fn, row, j], fb[fn, row, j])
        # the first in travel order; the stop wins ties, then the x axis.
        # The inner end of the first piece is the origin, on both axes
        key = np.where(np.isinf(roots), np.inf, step * roots)
        met = key[:2].min(axis=0) < np.inf
        hit = (key[2] < np.inf) & (key[2] <= key[:2].min(axis=0))
        on_x, axis = key[0] <= key[1], ~hit & (met | (r1 == 0))
        r_end = np.where(hit, roots[2], np.where(
            met, np.where(on_x, roots[0], roots[1]), r1))
        event = np.where(axis, np.where(on_x, _AXIS_X, _AXIS_Y),
                         np.where(turns, _TURN, step))
        xe, ye = at(np.arange(n), r_end)
        sin = np.where(event == _TURN, np.sign(k),
                       np.clip(k / (a + b * r_end), -1.0, 1.0))
        cos = step * np.sqrt(1.0 - sin * sin)
        u = np.column_stack((sx * (cos + sin), sy * (cos - sin))) / SQRT2
        q = np.column_stack((sx * xe, sy * ye))
        pieces = []
        for ix in range(n) if keep else ():
            n_at = max(1, round(n_shells * abs(r_end[ix] - r[ix]) / span))
            px, py = at(np.full(n_at - 1, ix), r[ix] + (r_end[ix] - r[ix])
                        * np.arange(1, n_at) / n_at)
            pts = np.column_stack((sx[ix] * px, sy[ix] * py))
            pieces.append(pts if hit[ix] else np.vstack([pts, q[ix]]))
        return np.where(hit[:, None], q, np.nan), q, u, pieces, event, r_end

    def leg(st, stop, keep):
        st["legs"] += 1
        n = len(st["r"])
        e, q, u = np.empty((n, 2)), np.empty((n, 2)), np.empty((n, 2))
        event, r_end, pieces = np.empty(n, dtype=int), np.empty(n), {}
        flat = slope[st["i"]] == 0
        for f, b in ((straight, np.flatnonzero(flat)),
                     (curved, np.flatnonzero(~flat))):
            if b.size:
                e[b], q[b], u[b], got, event[b], r_end[b] = f(
                    stop, keep, *(st[key][b] for key in (
                        "p", "v", "sx", "sy", "i", "r")))
                pieces.update(zip(b, got))
        # a ray out of legs fails, as does one past an unbounded piece
        q[(st["legs"] >= _L1_LEGS * len(off))
          | (event == 1) & (st["i"] == len(off) - 1)] = np.nan
        st["event"], st["r"] = event, r_end
        return e, q, u, pieces

    def turn(st, q, u):
        event, sx, sy, i, r = map(st.get, ("event", "sx", "sy", "i", "r"))
        p, v, s = q.copy(), u.copy(), np.zeros(len(q))
        for axis, sk in ((_AXIS_X, sx), (_AXIS_Y, sy)):
            on = event == axis
            sk[on] = -sk[on]
            p[on, axis - _AXIS_X] = 0.0
            r[on] = abs(p[on, 0]) + abs(p[on, 1])
        sh = np.flatnonzero(abs(event) == 1)
        w_in = off[i[sh]] + slope[i[sh]] * r[sh]
        i[sh] += event[sh]
        w_out = off[i[sh]] + slope[i[sh]] * r[sh]
        bend = sh[w_in != w_out]
        if bend.size:
            v[bend], s[bend] = _refract_rows(
                u[bend], np.column_stack((sx[bend], sy[bend])) / SQRT2,
                w_in[w_in != w_out], w_out[w_in != w_out])
        st["p"], st["v"] = p, v
        return s

    return s, st, leg, turn


def _circles(w: RadialWeight, p, thetas, n_shells):
    """l2 pieces: circles with the radial normal, one per breakpoint."""
    grid = np.array((0.0, *w.breakpoints()))
    ws = np.array([q.offset for q in w.pieces])
    n_radii = len(grid) - 1
    r = math.hypot(*p)
    n0 = (p[0] / r, p[1] / r) if r >= _EPS else (1.0, 0.0)
    v = _rotated_rows(n0, thetas)
    j, v, s = _launch(w, r, v, np.tile(n0, (len(v), 1)),
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


def trace_fan(w: WeightField, start, thetas, stop):
    """End points of the rays trace_layered_ray(w, start, theta, stop) for
    every theta in thetas, traced in lockstep.  A ray's row is NaN where
    trace_layered_ray raises TraceError or TotalInternalReflection; the fan
    raises the other errors it raises.
    """
    return _trace(w, start, thetas, stop, None, False)[0]


def trace_layered_ray(w: WeightField, start, theta_0: float, stop,
                      n_shells: int = _SWEEP_SAMPLES) -> Polyline:
    """Propagate one ray through w from start until the stop condition.

    :param stop: the line (nx, ny, c), nx*x + ny*y = c.
    :param n_shells: the vertices the path puts on sloped l1 pieces, per
        crossing of their whole width; its end points do not depend on it.
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
