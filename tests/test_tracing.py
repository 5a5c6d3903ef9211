"""Ray propagation through the structured media."""
import math

import numpy as np
import pytest

from lglab.paths import Polyline, weighted_length
from lglab.tracing import (SWEEP_SHELLS, TotalInternalReflection, TraceError,
                           _refract_direction, trace_fan, trace_layered_ray)
from lglab.weights import (LayeredWeight, ProfilePiece, RadialWeight,
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
    # entering the faster lower layer too steeply
    w = make_weight("layered_horizontal", layers=((0.5, 2.0), (9.0, 1.0)))
    with pytest.raises(TotalInternalReflection):
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


def _snell_invariants(arr, w, n_shells):
    """Per quadrant the run of w sin(theta) against the l1 edge normal, read
    from each straight piece and its shell's weight."""
    grid, ws = w.shell_grid(n_shells)
    d, mid = np.diff(arr, axis=0), 0.5 * (arr[1:] + arr[:-1])
    quad = np.sign(mid)
    sin = np.abs(d[:, 0] * quad[:, 1] - d[:, 1] * quad[:, 0]) \
        / (math.sqrt(2.0) * np.hypot(*d.T))
    k = np.searchsorted(grid, np.abs(mid).sum(axis=1), side="right") - 1
    inv = ws[k] * sin
    # a new run starts wherever the quadrant changes
    starts = np.flatnonzero(np.any(quad[1:] != quad[:-1], axis=1)) + 1
    return np.split(inv, starts)


def test_radial_ray_conserves_snell_invariant():
    # w sin(theta) against the l1 shell normal is constant in each quadrant
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
                w, start, rng.uniform(-3.1, 3.1), stop, n_shells=4096)))
        except (TotalInternalReflection, TraceError):
            continue
    for (nx, ny, c), ray in rays:
        arr = ray.as_array()
        assert nx * arr[-1, 0] + ny * arr[-1, 1] == pytest.approx(c, abs=1e-12)
        runs = _snell_invariants(arr, w, 4096)
        assert sum(map(len, runs)) > 1000
        for inv in runs:
            assert np.ptp(inv) <= 1e-11
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
    v = (sign * n[0], sign * n[1])
    out = _refract_direction(v, n, 1.0, 0.5, "interface")
    assert out == pytest.approx(v, abs=1e-15)


# ------------------------------------------------------------- reference ----
# The tracer as it was before one loop served every medium: a loop per
# medium, each with its own stop test, step, refraction and budget.  The
# single loop must reproduce its vertices bit for bit, except on l1 shells:
# there a leg sums its shell steps first and adds its start once, where this
# reference adds each step to the position, so vertices agree to 1e-11.

_EPS = 1e-12


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


def _ref_launch(w, radii, shell_w, rho, v, n, outward):
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


def _ref_quadrant(p, v):
    sx = 1.0 if p[0] > _EPS else -1.0 if p[0] < -_EPS else \
        (1.0 if v[0] >= 0 else -1.0)
    sy = 1.0 if p[1] > _EPS else -1.0 if p[1] < -_EPS else \
        (1.0 if v[1] >= 0 else -1.0)
    return sx, sy


def _ref_radial_l1(w, start, theta_0, stop, n_shells, max_segments):
    grid, shell_w = w.shell_grid(n_shells)
    radii = grid[1:]
    p = (float(start[0]), float(start[1]))
    rho = abs(p[0]) + abs(p[1])
    sx, sy = _ref_quadrant(p, (1.0, 1.0))
    n0 = (sx / math.sqrt(2.0), sy / math.sqrt(2.0))
    t0 = (-n0[1], n0[0])
    v = (math.cos(theta_0) * n0[0] + math.sin(theta_0) * t0[0],
         math.cos(theta_0) * n0[1] + math.sin(theta_0) * t0[1])
    sx, sy = _ref_quadrant(p, v)
    j, w_here, v = _ref_launch(w, radii, shell_w, rho, v,
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
        t_stop = _ref_stop_crossing(stop, p, v,
                                    t_next if math.isfinite(t_next) else 1e6)
        if _ref_stops_first(t_stop, t_next):
            verts.append((p[0] + t_stop * v[0], p[1] + t_stop * v[1]))
            return Polyline.from_points(verts)
        if not math.isfinite(t_next):
            raise TraceError("ray escaped the shell structure")
        p = (p[0] + t_next * v[0], p[1] + t_next * v[1])
        verts.append(p)
        if t_axis < t_shell:
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


def _ref_radial_l2(w, start, theta_0, stop, n_shells, max_segments):
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
    j, w_here, v = _ref_launch(w, radii, shell_w, r, v, n0,
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
        w_next = float(shell_w[j])
        v = _refract_direction(v, n, w_here, w_next,
                               f"circle r={radii[idx]:.6g}")
        w_here = w_next
    raise TraceError("segment budget exhausted in circular trace")


def _reference_trace(w, start, theta_0, stop, n_shells=SWEEP_SHELLS,
                     max_segments=200000):
    if isinstance(w, LayeredWeight):
        return _ref_layered(w, start, theta_0, stop, max_segments)
    if w.norm == "l1":
        return _ref_radial_l1(w, start, theta_0, stop, n_shells,
                              max_segments)
    return _ref_radial_l2(w, start, theta_0, stop, n_shells, max_segments)


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
            grid = w.shell_grid(n_shells)[0]
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
                assert np.max(np.abs(got - ref)) <= 1e-11, args
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
    # one lockstep fan per seeded launch against a scalar ray per angle:
    # the same end point to the last bit, NaN where the scalar ray raises
    w = _MEDIA[name]()
    rng = np.random.default_rng(sum(map(ord, name)) + 1)
    reached = set()
    for start, _, stop, n_shells, kind, stop_kind in _seeded_launches(
            w, rng, 12):
        if isinstance(w, LayeredWeight):
            thetas = rng.uniform(-1.5, 1.5, 16)
        else:
            thetas = rng.uniform(-math.pi, math.pi, 16)
        ends = trace_fan(w, start, thetas, stop, n_shells)
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
        trace_fan(layered, (0.0, 0.0), [0.1, 2.0], (0.0, 1.0, -1.0), 64)
    with pytest.raises(ValueError, match="unknown stop"):
        trace_fan(layered, (0.0, 0.0), [0.1], "x_axis", 64)
    # a weight with no medium: the scalar tracer and the fan both raise
    constant = make_weight("constant", 1.3)
    with pytest.raises(TraceError, match="no traced medium"):
        trace_layered_ray(constant, (0.0, 0.0), 0.1, (1.0, 0.0, 1.0), 64)
    with pytest.raises(TraceError, match="no traced medium"):
        trace_fan(constant, (0.0, 0.0), [0.1], (1.0, 0.0, 1.0), 64)


@pytest.mark.parametrize("start", [(0.0, 0.0), (1e-13, -1e-13)])
def test_l2_launch_from_the_centre_leaves_along_x(start):
    # every direction is outward at the centre: theta counts from +x, and
    # the fan's rays end where the scalar rays end, to the last bit
    w = _MEDIA["heavy_disk"]()
    thetas = np.linspace(-math.pi, math.pi, 64, endpoint=False)
    stop = (0.6, -0.8, 0.9)
    ends = trace_fan(w, start, thetas, stop, 64)
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
            trace_fan(w, (0.2, 0.0), [0.3, -0.2], stop, 64)
