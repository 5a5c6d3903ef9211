"""Ray propagation through the structured media."""
import math

import numpy as np
import pytest

from scipy.optimize import brentq

from lglab import curves, shooting, tracing
from lglab.curves import _drift
from lglab.paths import Polyline, weighted_length
from lglab.snell import snell_refract
from lglab.tracing import (TotalInternalReflection, TraceError,
                           _refract_rows, trace_fan, trace_layered_ray)
from lglab.weights import (SQRT2, LayeredWeight, ProfilePiece, RadialWeight,
                           circle_hits, make_weight)


def test_two_layer_kink_obeys_refraction_law():
    w = make_weight("layered_horizontal", layers=((0.5, 1.0), (9.0, 2.0)))
    th1 = 0.6
    ray = trace_layered_ray(w, (0.0, 0.0), th1, (0.0, 1.0, -1.5))
    arr = ray.as_array()
    # vertex on the interface, then the refracted slope below it
    kink = arr[np.isclose(arr[:, 1], -0.5)][0]
    assert kink[0] == pytest.approx(0.5 * math.tan(th1), abs=1e-12)
    th2 = math.asin(math.sin(th1) / 2.0)
    end = arr[-1]
    assert end[1] == pytest.approx(-1.5)
    assert end[0] - kink[0] == pytest.approx(math.tan(th2), abs=1e-9)


def test_layered_tir_raised():
    # entering the faster lower layer too steeply: sin = 2 sin(0.7), at
    # (0.5 tan(0.7), -0.5) on the depth line
    w = make_weight("layered_horizontal", layers=((0.5, 2.0), (9.0, 1.0)))
    with pytest.raises(TotalInternalReflection,
                       match=r"sin = 1\.28844 > 1 at \(0\.421144, -0\.5\)"):
        trace_layered_ray(w, (0.0, 0.0), 0.7, (0.0, 1.0, -1.0))


def test_layered_launch_domain():
    w = make_weight("layered_horizontal", layers=((0.5, 1.0), (9.0, 2.0)))
    with pytest.raises(ValueError):
        trace_layered_ray(w, (0.0, 0.0), 2.0, (0.0, 1.0, -1.0))


def test_unreachable_stop_is_an_error():
    # launched downward below the stop line
    w = make_weight("layered_horizontal", layers=((0.5, 1.0), (9.0, 2.0)))
    with pytest.raises(TraceError, match="did not reach"):
        trace_layered_ray(w, (0.0, -2.0), 0.0, (0.0, 1.0, -1.0))


def _chord_kappas(w, arr):
    """The kappa = w sin(theta) against the l1 edge normal that makes
    curves._drift carry each chord of the traced path between vertices on
    one sloped piece of one quadrant, with the chord's quadrant."""
    out = []
    for p0, p1 in zip(arr[:-1], arr[1:]):
        quad = np.sign(0.5 * (p0 + p1))
        (x0, y0), (x1, y1) = quad * p0, quad * p1
        r0, r1 = x0 + y0, x1 + y1
        piece = [p for p in w.pieces if p.lo <= min(r0, r1)
                 and max(r0, r1) <= p.hi]
        if not piece or piece[0].slope == 0 or abs(r1 - r0) < 1e-9 \
                or min(x0, y0, x1, y1) < 0:
            continue
        a, b = piece[0].offset, piece[0].slope
        drift = (x1 - y1) - (x0 - y0)
        w_min = min(a + b * r0, a + b * r1)

        def miss(k):
            return math.copysign(abs(_drift(a + b * r0, b, r1 - r0, k)),
                                 drift) - drift

        k = brentq(miss, 1e-9 * w_min, w_min, xtol=1e-15, rtol=1e-15) \
            if miss(w_min) * miss(1e-9 * w_min) <= 0 else math.nan
        out.append((tuple(quad), k))
    return out


def test_radial_ray_conserves_snell_invariant():
    # w sin(theta) against the l1 edge normal is constant in each
    # quadrant: every chord between a traced ray's vertices on a sloped
    # piece drifts by curves._drift at one kappa, read back chord by chord
    w = make_weight("light_diamond_tight", 0.5)
    rng = np.random.default_rng(7)
    rays = []
    while len(rays) < 4:
        r, phi = rng.uniform(0.05, 0.9), rng.uniform(0.0, 2.0 * math.pi)
        start = (r * math.cos(phi), r * math.sin(phi))
        # the unit circle's tangent line at the start's angle
        stop = (math.cos(phi), math.sin(phi), 1.0)
        try:
            rays.append((stop, trace_layered_ray(
                w, start, rng.uniform(-3.1, 3.1), stop, n_shells=1024)))
        except (TotalInternalReflection, TraceError):
            continue
    for (nx, ny, c), ray in rays:
        arr = ray.as_array()
        assert nx * arr[-1, 0] + ny * arr[-1, 1] == pytest.approx(c, abs=1e-12)
        kappas = _chord_kappas(w, arr)
        assert len(kappas) > 100
        runs = [[kappas[0][1]]]
        for (q0, _), (q1, k) in zip(kappas, kappas[1:]):
            if q1 != q0:
                runs.append([])
            runs[-1].append(k)
        for ks in runs:
            assert np.ptp(ks) <= 1e-9 * max(ks), ks
        # cost of the traced ray stays within the global weight bounds
        cost = weighted_length(ray, w)
        e = weighted_length(ray, make_weight("constant"))
        assert 0.5 * e <= cost <= 1.0 * e + 1e-9


@pytest.mark.parametrize("n", [(-math.sqrt(0.5), -math.sqrt(0.5)),
                               (0.6, -0.8), (-0.8, 0.6)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_normal_incidence_passes_straight_through(n, sign):
    # an l1 shell normal in quadrant 3 and l2 normals with a negative
    # component: a ray along the normal, either way, keeps its direction
    v = np.array([[sign * n[0], sign * n[1]]])
    out, sin_out = _refract_rows(v, np.array([n]), 1.0, 0.5)
    assert out == pytest.approx(v, abs=1e-15)
    assert sin_out == pytest.approx([0.0], abs=1e-15)


# ------------------------------------------------------------- reference ----
# The tracer as it was before one loop served every medium: a loop per
# medium, each with its own stop test, step, refraction and budget.  The
# single loop must reproduce its vertices bit for bit on layered and l2
# media.  The l1 reference traces the same closed-form legs one ray at a
# time in scalar floats, with brentq for the crossings that the lockstep
# legs bracket by regula falsi.  Where a ray turns, w = |kappa| and the
# drift's sqrt(w^2 - kappa^2) turns a rounding of either into its square
# root, so vertices after a turn agree to 1e-7 (1.5e-8 at worst here, 8.3e-8
# over five seeds) and the others to a few roundings.

_EPS = 1e-12


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


def _ref_stop_crossing(stop, p, v, t_max):
    px, py = p
    vx, vy = v
    nx, ny, c = stop
    den = nx * vx + ny * vy
    if den == 0:
        return None
    t = (c - nx * px - ny * py) / den
    return t if _EPS < t <= t_max + _EPS else None


def _ref_stops_first(t_stop, t_next):
    if t_stop is None:
        return False
    return t_stop <= t_next + 1e-9 * max(1.0, abs(t_next))


def _ref_layered(w, start, theta_0, stop, max_segments):
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
        t_stop = _ref_stop_crossing(stop, p, v, min(t_iface, 1e6))
        if _ref_stops_first(t_stop, t_iface):
            q = (p[0] + t_stop * v[0], p[1] + t_stop * v[1])
            verts.append(q)
            return Polyline.from_points(verts)
        if not math.isfinite(t_iface):
            raise TraceError("ray left the layered stack without stopping")
        p = (p[0] + t_iface * v[0], -depths[k])
        verts.append(p)
        w_next = w.layers[k + 1][1] if k + 1 < len(w.layers) \
            else w.layers[-1][1]
        v = _refract_direction(v, (0.0, 1.0), w_here, w_next,
                               f"depth {depths[k]:g}")
    raise TraceError("segment budget exhausted in layered trace")


def _ref_launch(w, rho, v, n, outward):
    """(piece index, direction) of a radial launch at radius rho: on a
    breakpoint it refracts into whichever piece it proceeds to."""
    radii = np.array(w.breakpoints())
    on_boundary = bool(np.any(np.abs(radii - rho) < 1e-11))
    j = int(np.searchsorted(radii, rho + (1e-11 if on_boundary else 0.0),
                            side="right"))
    if on_boundary:
        w_from = float(w.profile(np.array([rho]))[0])
        if outward < -_EPS:
            j -= 1
        w_to = w.pieces[j].offset + w.pieces[j].slope * rho
        if w_to != w_from:
            v = _refract_direction(v, n, w_from, w_to,
                                   f"launch r={rho:.6g}")
    return j, v


def _ref_quadrant(p, v):
    sx = 1.0 if p[0] > _EPS else -1.0 if p[0] < -_EPS else \
        (1.0 if v[0] >= 0 else -1.0)
    sy = 1.0 if p[1] > _EPS else -1.0 if p[1] < -_EPS else \
        (1.0 if v[1] >= 0 else -1.0)
    return sx, sy


def _ref_frame(w, v, sx, sy, i, r):
    """kappa = w sin(theta) against the quadrant's edge normal, and the
    sign of the radius change (toward the larger weight when tangent)."""
    vx, vy = sx * v[0], sy * v[1]
    p = w.pieces[i]
    k = (p.offset + p.slope * r) * min(max((vx - vy) / SQRT2, -1.0), 1.0)
    cos = vx + vy
    return k, 1 if cos > 0 else -1 if cos < 0 else (-1 if p.slope < 0 else 1)


def _ref_sloped_leg(w, i, p, sx, sy, r, k, step, stop):
    """One closed-form leg on a sloped piece: (end radius, event, frame
    point at a radius), the event "stop", "x" or "y" for a crossing, "turn"
    or the piece step +1 or -1.  Each function is monotone between the
    splits, where x or y stops moving and where the ray runs parallel to
    the stop line; the first split interval where one crosses its zero is
    searched with brentq."""
    piece = w.pieces[i]
    a, b = piece.offset, piece.slope
    kk, sg = abs(k), math.copysign(1.0, k) * step
    x0, y0, w0 = sx * p[0], sy * p[1], a + b * r

    def at(rr):
        dr = rr - r
        t = sg * _drift(w0, b, dr, kk) if kk > 0 and dr != 0 else 0.0
        return x0 + 0.5 * (dr + t), y0 + 0.5 * (dr - t)

    end = min(piece.hi, 1e6) if step > 0 else piece.lo
    r_turn = (kk - a) / b
    turns = b * step < 0 and step * (r_turn - end) <= 0
    r1 = (r if step * (r_turn - r) < 0 else r_turn) if turns else end
    nx, ny, c = stop
    ax, ay = nx * sx, ny * sy
    splits = [(SQRT2 * kk - a) / b]
    if ax != ay:
        tau = -(ax + ay) / (ax - ay)
        if tau != 0 and math.copysign(1.0, tau) == sg:
            splits.append((kk * math.hypot(1.0, tau) / abs(tau) - a) / b)
    rr = [r, *sorted((x for x in splits
                      if step * (x - r) > 0 and step * (r1 - x) > 0),
                     key=lambda x: step * x), r1]
    funcs = {"stop": lambda x: ax * at(x)[0] + ay * at(x)[1] - c,
             "x": lambda x: at(x)[0], "y": lambda x: at(x)[1]}
    for ra, rb in zip(rr, rr[1:]):
        roots = {}
        for name, f in funcs.items():
            fa, fb = f(ra), f(rb)
            crossed = (fa != 0 and (fb == 0 or (fa > 0) != (fb > 0))) \
                if name == "stop" else fa > 0 >= fb
            if crossed:
                roots[name] = rb if fb == 0 else brentq(
                    f, min(ra, rb), max(ra, rb), xtol=1e-15, rtol=1e-15)
        if roots:
            # in travel order; the stop wins ties, then the x axis
            name = min(roots, key=lambda n: (step * roots[n],
                                             ("stop", "x", "y").index(n)))
            return roots[name], name, at
    event = "turn" if turns else step
    if event == -1 and i == 0:
        # the inner end of the first piece is the origin, on both axes
        x, y = at(r1)
        event = "x" if x <= y else "y"
    return r1, event, at


def _ref_radial_l1(w, start, theta_0, stop, n_shells, max_legs):
    """The l1 tracer one ray at a time in scalar floats: straight legs on
    constant pieces, closed-form legs (_ref_sloped_leg) on sloped ones."""
    pieces = w.pieces
    span = sum(p.hi - p.lo for p in pieces[:-1] if p.slope != 0)
    p = (float(start[0]), float(start[1]))
    r = abs(p[0]) + abs(p[1])
    sx, sy = _ref_quadrant(p, (1.0, 1.0))
    n0 = (sx / SQRT2, sy / SQRT2)
    t0 = (-n0[1], n0[0])
    v = (math.cos(theta_0) * n0[0] + math.sin(theta_0) * t0[0],
         math.cos(theta_0) * n0[1] + math.sin(theta_0) * t0[1])
    sx, sy = _ref_quadrant(p, v)
    i, v = _ref_launch(w, r, v, (sx / SQRT2, sy / SQRT2),
                       sx * v[0] + sy * v[1])
    verts = [p]
    for _ in range(max_legs):
        k, step = _ref_frame(w, v, sx, sy, i, r)
        piece = pieces[i]
        if piece.slope == 0:
            vx, vy = sx * v[0], sy * v[1]
            rate = vx + vy
            t_next, event = math.inf, 0
            if rate > _EPS:
                t_next, event = (piece.hi - r) / rate, 1
            elif rate < -_EPS and i > 0:
                t_next, event = (piece.lo - r) / rate, -1
            for axis, cc, vc in (("x", sx * p[0], vx), ("y", sy * p[1], vy)):
                if vc < 0 and cc > _EPS and -cc / vc < t_next:
                    t_next, event = -cc / vc, axis
            t_stop = _ref_stop_crossing(
                stop, p, v, t_next if math.isfinite(t_next) else 1e6)
            if _ref_stops_first(t_stop, t_next):
                verts.append((p[0] + t_stop * v[0], p[1] + t_stop * v[1]))
                return Polyline.from_points(verts)
            if not math.isfinite(t_next):
                raise TraceError("ray escaped the pieces")
            q = (p[0] + t_next * v[0], p[1] + t_next * v[1])
            verts.append(q)
            u = v
            r = (piece.lo, piece.hi)[event > 0] if event in (1, -1) \
                else abs(q[0]) + abs(q[1])
        else:
            r_end, event, at = _ref_sloped_leg(w, i, p, sx, sy, r, k, step,
                                               stop)
            m = max(1, round(n_shells * abs(r_end - r) / span))
            for n in range(1, m):
                x, y = at(r + (r_end - r) * n / m)
                verts.append((sx * x, sy * y))
            x, y = at(r_end)
            q = (sx * x, sy * y)
            verts.append(q)
            if event == "stop":
                return Polyline.from_points(verts)
            if event == 1 and i == len(pieces) - 1:
                raise TraceError("ray escaped the pieces")
            sin = math.copysign(1.0, k) if event == "turn" else \
                min(max(k / (piece.offset + piece.slope * r_end), -1.0), 1.0)
            cos = step * math.sqrt(1.0 - sin * sin)
            u = (sx * (cos + sin) / SQRT2, sy * (cos - sin) / SQRT2)
            r = r_end
        if event == "x":
            p, sx = (0.0, q[1]), -sx
        elif event == "y":
            p, sy = (q[0], 0.0), -sy
        else:
            p = q
        v = u
        if event in ("x", "y"):
            r = abs(p[0]) + abs(p[1])
        elif event != "turn":
            w_in = piece.offset + piece.slope * r
            i += event
            w_out = pieces[i].offset + pieces[i].slope * r
            if w_in != w_out:
                v = _refract_direction(u, (sx / SQRT2, sy / SQRT2), w_in,
                                       w_out, f"l1 r={r:.6g}")
    raise TraceError("leg budget exhausted in radial trace")


def _ref_radial_l2(w, start, theta_0, stop, max_segments):
    radii = np.array(w.breakpoints())
    p = (float(start[0]), float(start[1]))
    r = math.hypot(*p)
    if r < _EPS:
        raise ValueError("radial launch from the origin is ambiguous")
    n0 = (p[0] / r, p[1] / r)
    t0 = (-n0[1], n0[0])
    v = (math.cos(theta_0) * n0[0] + math.sin(theta_0) * t0[0],
         math.cos(theta_0) * n0[1] + math.sin(theta_0) * t0[1])
    j, v = _ref_launch(w, r, v, n0, v[0] * n0[0] + v[1] * n0[1])
    w_here = w.pieces[j].offset
    verts = [p]
    for _ in range(max_segments):
        hits = []
        for idx in (j - 1, j):
            if 0 <= idx < len(radii):
                disc, t_near, t_far = circle_hits(p, v, radii[idx])
                if disc > 0:
                    hits += [(t, idx) for t in (t_near, t_far) if t > 1e-10]
        t_next, idx = min(hits) if hits else (math.inf, None)
        t_stop = _ref_stop_crossing(stop, p, v,
                                    t_next if math.isfinite(t_next) else 1e6)
        if _ref_stops_first(t_stop, t_next):
            verts.append((p[0] + t_stop * v[0], p[1] + t_stop * v[1]))
            return Polyline.from_points(verts)
        if not math.isfinite(t_next):
            raise TraceError("ray escaped the circles")
        p = (p[0] + t_next * v[0], p[1] + t_next * v[1])
        verts.append(p)
        rr = math.hypot(*p)
        n = (p[0] / rr, p[1] / rr)
        going_out = (v[0] * n[0] + v[1] * n[1]) > 0
        j = idx + 1 if going_out else idx
        w_next = w.pieces[j].offset
        v = _refract_direction(v, n, w_here, w_next,
                               f"circle r={radii[idx]:.6g}")
        w_here = w_next
    raise TraceError("segment budget exhausted in circular trace")


def _reference_trace(w, start, theta_0, stop, n_shells=1000,
                     max_segments=200000):
    if isinstance(w, LayeredWeight):
        return _ref_layered(w, start, theta_0, stop, max_segments)
    if w.norm == "l1":
        return _ref_radial_l1(w, start, theta_0, stop, n_shells,
                              tracing._L1_LEGS * len(w.pieces))
    return _ref_radial_l2(w, start, theta_0, stop, max_segments)


_MEDIA = {
    "layered": lambda: make_weight(
        "layered_horizontal", layers=((0.2, 1.0), (0.5, 2.0), (0.9, 1.5))),
    "light_diamond_tight": lambda: make_weight("light_diamond_tight", 0.5),
    "light_diamond": lambda: make_weight("light_diamond", 0.5),
    "lite_dmd_heavy_core": lambda: make_weight("lite_dmd_heavy_core"),
    "heavy_diamond": lambda: make_weight("heavy_diamond", 2.0),
    "heavy_disk": lambda: make_weight("heavy_disk", 2.0),
}


def _seeded_launches(w, rng, n):
    """(start, theta_0, stop, n_shells, launch kind, stop kind) for n seeded
    rays.  The stop lines are the unit circle's tangent at a seeded angle
    a, y = -depth, and a line through a point low in the disk, which
    downward rays reach."""
    for i in range(n):
        kind = ("interior", "axis", "interface")[i % 3]
        a = float(rng.uniform(0.0, 2.0 * math.pi))
        c = math.cos(a) * rng.uniform(-1.0, 1.0) \
            + math.sin(a) * rng.uniform(-1.0, -0.6)
        stops = {"tangent": (math.cos(a), math.sin(a), 1.0),
                 "depth": (0.0, 1.0, -float(rng.uniform(0.1, 1.0))),
                 "line": (math.cos(a), math.sin(a), float(c))}
        stop_kind = list(stops)[(i // 3) % 3]
        stop = stops[stop_kind]
        n_shells = int(rng.choice([64, 512, 4096]))
        r = float(rng.uniform(0.05, 0.95))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        if isinstance(w, LayeredWeight):
            theta = float(rng.uniform(-1.7, 1.7))
            x = float(rng.uniform(-1.0, 1.0))
            y = {"interior": float(rng.uniform(-0.3, 0.3)), "axis": 0.0,
                 "interface": -w.depths()[1]}[kind]
            yield (x, y), theta, stop, n_shells, kind, stop_kind
            continue
        theta = float(rng.uniform(-math.pi, math.pi))
        if kind == "axis":
            start = [(r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r)][i % 4]
        elif kind == "interface":
            grid = (0.0, *w.breakpoints())
            rr = float(grid[int(rng.integers(1, len(grid) - 1))]) \
                if len(grid) > 2 else float(grid[1])
            if w.norm == "l1":
                u = float(rng.uniform(0.0, 1.0))
                sx, sy = ((1, 1), (-1, 1), (-1, -1), (1, -1))[i % 4]
                start = (sx * u * rr, sy * (1.0 - u) * rr)
            else:
                start = (rr * math.cos(phi), rr * math.sin(phi))
        else:
            start = (r * math.cos(phi), r * math.sin(phi))
        yield start, theta, stop, n_shells, kind, stop_kind


def _outcome(trace, *args):
    """The ray's vertices, or the type of the error it raised."""
    try:
        return trace(*args).as_array()
    except (ValueError, TraceError, TotalInternalReflection) as exc:
        return type(exc)


@pytest.mark.parametrize("name", list(_MEDIA))
def test_single_loop_matches_the_reference_trace(name):
    w = _MEDIA[name]()
    rng = np.random.default_rng(sum(map(ord, name)))
    traced = set()
    for start, theta, stop, n_shells, kind, stop_kind in _seeded_launches(
            w, rng, 180):
        args = (w, start, theta, stop, n_shells)
        got = _outcome(trace_layered_ray, *args)
        ref = _outcome(_reference_trace, *args)
        if isinstance(ref, np.ndarray):
            assert isinstance(got, np.ndarray), (args, got)
            assert got.shape == ref.shape, args
            if getattr(w, "norm", None) == "l1":
                assert np.max(np.abs(got - ref)) <= 1e-7, args
            else:
                assert got.tobytes() == ref.tobytes(), args
            traced.add((kind, stop_kind))
        else:
            assert got is ref, (args, got, ref)
    # every launch kind and stop line produced rays, not only errors
    assert traced == {(k, s) for k in ("interior", "axis", "interface")
                      for s in ("tangent", "depth", "line")}


@pytest.mark.parametrize("name", list(_MEDIA))
def test_fan_ends_where_each_scalar_ray_ends(name):
    # one lockstep fan per seeded launch against a one-row trace per
    # angle: the same end point to the last bit, NaN where the ray raises
    w = _MEDIA[name]()
    rng = np.random.default_rng(sum(map(ord, name)) + 1)
    reached = set()
    for start, _, stop, n_shells, kind, stop_kind in _seeded_launches(
            w, rng, 12):
        if isinstance(w, LayeredWeight):
            thetas = rng.uniform(-1.5, 1.5, 16)
        else:
            thetas = rng.uniform(-math.pi, math.pi, 16)
        ends = trace_fan(w, start, thetas, stop)
        for theta, end in zip(thetas, ends):
            ref = _outcome(trace_layered_ray, w, start, float(theta), stop,
                           n_shells)
            if isinstance(ref, np.ndarray):
                assert end.tobytes() == ref[-1].tobytes(), (start, theta)
                reached.add((kind, stop_kind))
            else:
                assert np.isnan(end).all() and ref is not ValueError
    # every launch kind and stop line had rays that reached the stop
    assert reached == {(k, s) for k in ("interior", "axis", "interface")
                       for s in ("tangent", "depth", "line")}


def test_fan_rejects_what_the_scalar_tracer_rejects():
    layered = _MEDIA["layered"]()
    with pytest.raises(ValueError, match="subcritical"):
        trace_fan(layered, (0.0, 0.0), [0.1, 2.0], (0.0, 1.0, -1.0))
    with pytest.raises(ValueError, match="unknown stop"):
        trace_fan(layered, (0.0, 0.0), [0.1], "x_axis")
    # a weight with no medium: a single ray and the fan both raise
    constant = make_weight("constant", 1.3)
    with pytest.raises(TraceError, match="no traced medium"):
        trace_layered_ray(constant, (0.0, 0.0), 0.1, (1.0, 0.0, 1.0), 64)
    with pytest.raises(TraceError, match="no traced medium"):
        trace_fan(constant, (0.0, 0.0), [0.1], (1.0, 0.0, 1.0))


@pytest.mark.parametrize("name", ["layered", "light_diamond_tight",
                                  "heavy_disk"])
@pytest.mark.parametrize("bad, message", [
    ("theta", "launch angle"), ("start", "start"), ("stop", "stop")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_input_is_rejected(name, bad, message, value):
    # both entry points name the input; radial media once answered a NaN
    # with TraceError, an infinite angle with a math domain error, and the
    # fan with a NaN row
    w = _MEDIA[name]()
    args = {"theta": 0.3, "start": (0.1, -0.2), "stop": (0.0, 1.0, -0.9)}
    args[bad] = {"theta": value, "start": (0.1, value),
                 "stop": (0.0, 1.0, value)}[bad]
    with pytest.raises(ValueError, match=message):
        trace_layered_ray(w, args["start"], args["theta"], args["stop"], 64)
    with pytest.raises(ValueError, match=message):
        trace_fan(w, args["start"], [0.2, args["theta"]], args["stop"])


@pytest.mark.parametrize("start", [(0.0, 0.0), (1e-13, -1e-13)])
def test_l2_launch_from_the_centre_leaves_along_x(start):
    # every direction is outward at the centre: theta counts from +x, and
    # the fan's rays end where the single rays end, to the last bit
    w = _MEDIA["heavy_disk"]()
    thetas = np.linspace(-math.pi, math.pi, 64, endpoint=False)
    stop = (0.6, -0.8, 0.9)
    ends = trace_fan(w, start, thetas, stop)
    for theta, end in zip(thetas, ends):
        ref = _outcome(trace_layered_ray, w, start, float(theta), stop, 64)
        if isinstance(ref, np.ndarray):
            assert end.tobytes() == ref[-1].tobytes(), theta
        else:
            assert np.isnan(end).all() and ref is not ValueError
    assert np.isfinite(ends).all(axis=1).sum() > 16
    ray = trace_layered_ray(w, start, 0.0, (1.0, 0.0, 0.9), 64)
    assert ray.as_array()[-1] == pytest.approx([0.9, 0.0], abs=1e-12)


def test_sloped_l2_profile_is_rejected():
    with pytest.raises(ValueError, match="piecewise constant"):
        RadialWeight("ramp_disk", "l2", (
            ProfilePiece(0.0, 0.5, 1.0, 1.0),
            ProfilePiece(0.5, math.inf, 1.5, 0.0)))


@pytest.mark.parametrize("stop", [
    "diamond_edge", "x_axis", "y_axis", lambda p: p[1] < -0.5, "circle",
    ("depth", 1.0), ("line", 0.0, 1.0, -1.0), (0.0, 1.0), (0.0, 1.0, "-1"),
    "123", None])
def test_dropped_stop_forms_are_rejected(stop):
    # both entry points, before tracing: a constant weight has no medium,
    # so tracing it would raise TraceError
    for w in (make_weight("light_diamond_tight", 0.5), make_weight("constant")):
        with pytest.raises(ValueError, match="unknown stop"):
            trace_layered_ray(w, (0.2, 0.0), 0.3, stop)
        with pytest.raises(ValueError, match="unknown stop"):
            trace_fan(w, (0.2, 0.0), [0.3, -0.2], stop)


# ------------------------------------------------ closed-form l1 legs ----

SWEEP_WEIGHTS = ["light_diamond", "light_diamond_tight", "lite_dmd_heavy_core"]


@pytest.mark.parametrize("name", SWEEP_WEIGHTS)
def test_rays_from_the_sweep_starts_end_on_their_exits(name):
    # a ray along +x from each apex start (0, y0) and from both band ends
    # (c, 0) is the level curves' sweep: it meets the unit circle where
    # curves._exit does.  The stop line through the exit is the shots'
    # own, perpendicular to the chord from the start
    w = make_weight(name)
    (c_lo, c_hi), _, (y0s, _), _ = curves.sweep_tables(w)
    starts = [(0.0, y0) for y0 in y0s.tolist()] + [(c_lo, 0.0), (c_hi, 0.0)]
    worst = 0.0
    for start in starts:
        exit_ = curves._exit(w, *start)
        end = trace_fan(w, start, [-math.pi / 4],
                        shooting._aim(start, exit_)[1])[0]
        worst = max(worst, math.dist(end, exit_))
    assert worst <= 1e-12


def test_the_core_glide_crosses_the_y_axis_at_the_arc_top():
    # the heavy core's inner arc: the glide from (a*, 0) along -x crosses
    # the y-axis at (0, H*)
    w = make_weight("lite_dmd_heavy_core")
    arc = curves.sweep_tables(w)[3]
    a_star, h_star = arc[0, 0].item(), arc[-1, 1].item()
    end = trace_fan(w, (a_star, 0.0), [0.75 * math.pi], (1.0, 0.0, 0.0))[0]
    assert math.dist(end, (0.0, h_star)) <= 1e-12


def test_a_turning_ray_ends_where_two_drift_legs_put_it():
    # on the tight diamond, w = 0.5 + 0.5 r, an inward ray with kappa =
    # -0.7 turns where w falls to 0.7, at r* = 0.4, and comes back out to
    # the stop line x + y = 0.5 with the same kappa; it stays in quadrant 1.
    # The way out reads kappa from the ray's direction at the turn, along
    # the edge: w(r*) times the sine, 1 to a rounding
    w = make_weight("light_diamond_tight", 0.5)
    a, b = w.pieces[0].offset, w.pieces[0].slope
    x0, y0 = 0.44, 0.01
    r0 = x0 + y0
    theta = math.pi - math.asin(0.7 / (a + b * r0))
    n = 1.0 / SQRT2
    vx = math.cos(theta) * n - math.sin(theta) * n
    vy = math.cos(theta) * n + math.sin(theta) * n
    k = (a + b * r0) * ((vx - vy) / SQRT2)
    assert k == pytest.approx(-0.7, abs=1e-15)
    r_turn = (abs(k) - a) / b
    # in: sign(kappa) * step = +1; out: -1
    dr = r_turn - r0
    t = _drift(a + b * r0, b, dr, abs(k))
    x1, y1 = x0 + 0.5 * (dr + t), y0 + 0.5 * (dr - t)
    dr = 0.5 - r_turn
    k = (a + b * r_turn) * (((1.0 / SQRT2) - (-1.0 / SQRT2)) / SQRT2)
    t = -_drift(a + b * r_turn, b, dr, abs(k))
    x2, y2 = x1 + 0.5 * (dr + t), y1 + 0.5 * (dr - t)
    ray = trace_layered_ray(w, (x0, y0), theta, (1.0, 1.0, 0.5))
    arr = ray.as_array()
    assert (arr > 0).all()
    assert math.dist(arr[-1], (x2, y2)) <= 1e-12
    # the turn itself is a vertex, where the ray runs along the edge
    assert np.min(arr.sum(axis=1)) == pytest.approx(r_turn, abs=1e-15)


def test_ray_ends_do_not_depend_on_the_sample_count():
    # n_shells only samples the sloped legs of a kept path
    w = make_weight("lite_dmd_heavy_core")
    thetas = np.linspace(-math.pi, math.pi, 64, endpoint=False)
    stop = (0.6, -0.8, 0.5)
    ends = trace_fan(w, (-0.3, 0.4), thetas, stop)
    for theta, end in zip(thetas, ends):
        for n_shells in (1, 64, 1000):
            ref = _outcome(trace_layered_ray, w, (-0.3, 0.4), float(theta),
                           stop, n_shells)
            if isinstance(ref, np.ndarray):
                assert ref[-1].tobytes() == end.tobytes()
            else:
                assert np.isnan(end).all()
    assert np.isfinite(ends).all(axis=1).sum() >= 16


def _counted_fan(monkeypatch, w, start, thetas, stop):
    """The fan's ends and the rows each generation's l1 leg traced."""
    rows, diamonds = [], tracing._diamonds

    def spy(*args):
        s, st, leg, turn = diamonds(*args)

        def counted(st, stop, keep):
            rows.append(len(st["r"]))
            return leg(st, stop, keep)

        return s, st, counted, turn

    monkeypatch.setattr(tracing, "_diamonds", spy)
    return trace_fan(w, start, thetas, stop), rows


def test_core_rays_held_in_one_quadrant_escape_through_the_next(
        monkeypatch):
    # a ray in the heavy core with 0.5 < |kappa| < 0.75 turns where
    # 0.75 - 0.5 r = |kappa| and cannot leave r <= 1.5 - 2 |kappa| while
    # it stays in its quadrant; across an axis kappa becomes w cos(theta),
    # so most of them escape.  The whole fan ends within a few legs
    w = make_weight("lite_dmd_heavy_core")
    start, stop = (0.1, 0.05), (1.0, 0.0, 0.9)
    thetas = np.linspace(-math.pi, math.pi, 2048, endpoint=False)
    ends, rows = _counted_fan(monkeypatch, w, start, thetas, stop)
    assert len(rows) <= 8 < tracing._L1_LEGS * len(w.pieces)
    # the launch kappa is w sin(theta) against the normal
    held = abs(w.profile_at(0.15) * np.sin(thetas)) > 0.5
    reached = np.isfinite(ends).all(axis=1)
    assert held.sum() > 500 and (held & reached).sum() > 20


STEEP_CORE = RadialWeight("steep_core", "l1", (
    ProfilePiece(0.0, 0.5, 10.0, -19.0), ProfilePiece(0.5, 1.0, 0.0, 1.0),
    ProfilePiece(1.0, math.inf, 1.0, 0.0)))


def test_trapped_rays_fail_within_the_leg_count(monkeypatch):
    # a core that falls from 10 to 0.5 keeps most rays from its centre:
    # each turn and axis crossing leaves |kappa| above 0.5.  A stop line
    # that misses the core fails them, each after its _L1_LEGS legs a piece
    thetas = np.linspace(-math.pi, math.pi, 2048, endpoint=False)
    ends, rows = _counted_fan(monkeypatch, STEEP_CORE, (0.1, 0.05), thetas,
                              (1.0, 0.0, 0.9))
    assert len(rows) == tracing._L1_LEGS * 3 and rows[-1] > 500
    assert np.isnan(ends).all(axis=1).sum() >= rows[-1]


def test_the_leg_count_grows_with_the_profile_pieces():
    # a ray along the edge normal crosses each of 100 diamond steps in one
    # leg, more legs than a 3-piece profile's budget
    w = RadialWeight("steps", "l1", tuple(
        ProfilePiece(k / 100, (k + 1) / 100 if k < 100 else math.inf,
                     1.0 + k / 100, 0.0) for k in range(101)))
    path = trace_layered_ray(w, (0.0005, 0.0005), 0.0, (1.0, 1.0, 1.5))
    assert len(path.as_array()) > tracing._L1_LEGS * 3
    assert path.as_array()[-1] == pytest.approx([0.75, 0.75], abs=1e-12)


def test_a_trapped_ray_whose_stop_line_crosses_its_ball_ends(monkeypatch):
    # the same rays reach a stop line through the core, within a few legs
    thetas = np.linspace(-math.pi, math.pi, 2048, endpoint=False)
    ends, rows = _counted_fan(monkeypatch, STEEP_CORE, (0.1, 0.05), thetas,
                              (1.0, 0.0, 0.05))
    assert len(rows) <= 8
    assert np.isfinite(ends).all(axis=1).sum() > 1800
