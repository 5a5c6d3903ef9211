"""Two-point geodesic search."""
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from lglab import shooting
from lglab.curves import BRANCHES, boundary_points, level_curve
from lglab.paths import Polyline, segment, weighted_length
from lglab.shooting import shoot_two_point
from lglab.snell import TotalInternalReflection
from lglab.tracing import TraceError, trace_fan, trace_layered_ray
from lglab.weights import Region, make_weight


def test_constant_weight_returns_chord():
    w = make_weight("constant", 1.5)
    path, cost = shoot_two_point(w, (-0.6, 0.1), (0.7, -0.4))
    assert path == Polyline(((-0.6, 0.1), (0.7, -0.4)))
    assert cost == pytest.approx(1.5 * math.hypot(1.3, 0.5), abs=1e-12)
    assert cost == 2.0892582415776175  # frozen weighted_length of the chord


@pytest.mark.parametrize("a, b, message", [
    ((1.0, 0.1), (0.0, 0.0), "closed unit disk"),
    ((math.nan, 0.0), (0.5, 0.0), "closed unit disk"),
    ((0.3, -0.2), (0.3, -0.2), "coincide")],
    ids=["outside", "nan", "coincident"])
def test_shots_reject_bad_endpoints(a, b, message):
    with pytest.raises(ValueError, match=message):
        shoot_two_point(make_weight("constant"), a, b)


@pytest.mark.parametrize("kwargs, message", [
    ({"n_shells": 0}, "n_shells"), ({"n_shells": -5}, "n_shells"),
    ({"tol": -1.0}, "tol"), ({"tol": 0.0}, "tol"), ({"tol": math.nan}, "tol"),
    ({"tol": math.inf}, "tol")])
def test_shots_reject_bad_settings(kwargs, message):
    # once, n_shells = 0 traced one shell a sloped piece, tol = -1 let no
    # miss converge (a cost of 0.689088698253377 here, not the default's
    # 0.6890886982534469) and a NaN tol dropped every converged ray, which
    # left the chord, 0.7034912934784623
    w = make_weight("light_diamond_tight", 0.5)
    with pytest.raises(ValueError, match=message):
        shoot_two_point(w, (-0.5, 0.1), (0.5, 0.2), **kwargs)


def _reference_corner_routes(w, a, b):
    """_corner_routes as it was written with an x-order filter and a guard
    around each route: the reference for the plain list."""
    corners = [p for p in w.corner_points()
               if min(a[0], b[0]) - 1e-12 < p[0] < max(a[0], b[0]) + 1e-12]
    if not corners or abs(b[0] - a[0]) < 1e-12:
        return []
    lo, hi = (a, b) if a[0] <= b[0] else (b, a)
    corners.sort()
    routes = []
    for k in range(1, min(w.max_corners, len(corners)) + 1):
        for combo in itertools.combinations(corners, k):
            xs = [p[0] for p in combo]
            if any(x2 - x1 < -1e-12 for x1, x2 in zip(xs, xs[1:])):
                continue
            try:
                routes.append(Polyline.from_points(
                    np.array([lo, *combo, hi])))
            except ValueError:
                continue
    return routes


@pytest.mark.parametrize("name", ["heavy_diamond", "three_heavy_diamonds"])
def test_corner_routes_match_the_guarded_loop(name):
    w = make_weight(name, 2.0)
    rng = np.random.default_rng(11)
    pairs = [tuple(map(tuple, rng.uniform(-0.7, 0.7, (2, 2))))
             for _ in range(40)]
    # ends on a corner's x, on a corner itself, and with equal x
    pairs += [((-0.5, 0.3), (0.5, 0.3)), ((-0.75, 0.0), (0.75, 0.0)),
              ((0.0, 0.125), (0.5, -0.25)), ((0.2, -0.6), (0.2, 0.6))]
    count = 0
    for a, b in pairs:
        got = shooting._corner_routes(w, a, b)
        assert got == _reference_corner_routes(w, a, b)
        count += len(got)
    assert count > 0


def test_heavy_diamond_tip_route():
    # between (-0.8, 0) and (0.8, 0) the cheapest route grazes a diamond
    # tip: cost 2 * hypot(0.8, 0.5), cheaper than 2.6 straight through
    w = make_weight("heavy_diamond", 2.0)
    path, cost = shoot_two_point(w, (-0.8, 0.0), (0.8, 0.0))
    assert cost == pytest.approx(2.0 * math.hypot(0.8, 0.5), abs=1e-9)
    assert cost < 2.6
    ys = path.as_array()[:, 1]
    assert np.max(np.abs(ys)) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("name, shape", [("heavy_diamond", "l1"),
                                         ("heavy_disk", "l2")])
def test_custom_obstacle_shots_like_the_catalog_weight(name, shape):
    # a custom weight's corners and rims come from its interfaces, as the
    # catalog weight's do: the same explicit routes, none of them rays
    a, b = (-0.8, 0.0), (0.8, 0.0)
    w = make_weight(name, 2.0)
    custom = make_weight("custom_piecewise", pieces=[
        ((Region(shape, radius=0.5),), 2.0, 0.0, 0.0, 0.0)])
    assert custom.corner_points() == w.corner_points()
    assert custom.rim_radii() == w.rim_radii()
    best = min(weighted_length(p, w) for p in [
        *shooting._corner_routes(w, a, b), *shooting._rim_wraps(w, a, b)])
    _, cost = shoot_two_point(custom, a, b)
    assert cost == best < 2.6


def test_two_layer_kink_matches_direct_minimization():
    w = make_weight("layered_horizontal", layers=((0.2, 1.0), (2.0, 2.0)))
    a, b = (-0.5, 0.3), (0.5, -0.7)

    def detour(x):
        return math.hypot(x + 0.5, 0.5) + 2.0 * math.hypot(0.5 - x, 0.5)

    ref = minimize_scalar(detour, bracket=(-0.5, 0.4, 0.5), method="golden",
                          options={"xtol": 1e-12})
    path, cost = shoot_two_point(w, a, b, n_shells=64, scan_angles=512)
    assert cost == pytest.approx(float(ref.fun), abs=1e-6)
    kink = path.as_array()[np.isclose(path.as_array()[:, 1], -0.2)][0]
    assert kink[0] == pytest.approx(float(ref.x), abs=1e-6)


def test_endpoint_order_does_not_matter():
    w = make_weight("layered_horizontal", layers=((0.2, 1.0), (2.0, 2.0)))
    a, b = (-0.5, 0.3), (0.5, -0.7)
    p1, c1 = shoot_two_point(w, a, b, n_shells=64, scan_angles=512)
    p2, c2 = shoot_two_point(w, b, a, n_shells=64, scan_angles=512)
    assert c1 == pytest.approx(c2, abs=1e-9)
    assert np.allclose(p1.as_array(), p2.as_array()[::-1], atol=1e-9)


def test_shot_endpoints_land_on_targets():
    w = make_weight("light_diamond_tight", 0.5)
    a, b = (-0.4, 0.35), (0.55, 0.1)
    path, cost = shoot_two_point(w, a, b, n_shells=512, scan_angles=512)
    arr = path.as_array()
    assert np.allclose(arr[0], a, atol=1e-6)
    assert np.allclose(arr[-1], b, atol=1e-6)
    assert cost <= weighted_length(path, w) + 1e-9
    assert cost <= weighted_length(segment(a, b), w) + 1e-9


@pytest.mark.parametrize("t", [0.7, 1.0, 1.2, 1.45])
@pytest.mark.parametrize("branch", ["minimal", "maximal"])
def test_heavy_disk_shot_matches_level_curve(t, branch):
    # the shot's rim wrap and the level curve's wrap are the same route
    w = make_weight("heavy_disk", 2.0)
    _, cost = shoot_two_point(w, *boundary_points(t), scan_angles=64,
                              n_shells=64)
    curve = level_curve(w, t, branch)
    assert cost == pytest.approx(weighted_length(curve.path, w), rel=0.0,
                                 abs=1e-12)


@pytest.mark.parametrize("b, arc", [((-0.5, 0.0), math.pi / 2),
                                    ((0.0, 0.5), math.pi / 4)],
                         ids=["half", "quarter"])
def test_a_shot_between_rim_points_runs_along_the_rim(b, arc):
    # the slow disk's rim costs 1 a unit length, its chord 2
    w = make_weight("heavy_disk", 2.0)
    _, cost = shoot_two_point(w, (0.5, 0.0), b, scan_angles=64, n_shells=64)
    assert cost == pytest.approx(arc, rel=1e-5, abs=0.0)


def test_a_shot_from_a_rim_point_that_rounds_inside_starts_on_the_arc():
    w = make_weight("heavy_disk", 2.0)
    phi = 0.3454  # 0.5 (cos phi, sin phi) has a radius below 0.5
    on, off = ((r * math.cos(phi), r * math.sin(phi)) for r in (0.5,
                                                                0.5 + 1e-9))
    assert math.hypot(*on) < 0.5 < math.hypot(*off)
    costs = [shoot_two_point(w, a, (-0.9, 0.1), scan_angles=64,
                             n_shells=64)[1] for a in (on, off)]
    assert costs[0] == pytest.approx(costs[1], rel=1e-6, abs=0.0)


@pytest.mark.parametrize("t", [0.3, 0.7, 1.0, 1.05, 1.3, 1.7])
@pytest.mark.parametrize("name,alpha", [("heavy_diamond", 2.0),
                                        ("three_heavy_diamonds", math.sqrt(2))])
def test_diamond_shot_matches_level_curve(name, alpha, t):
    w = make_weight(name, alpha)
    _, cost = shoot_two_point(w, *boundary_points(t), scan_angles=64,
                              n_shells=64)
    assert cost == weighted_length(level_curve(w, t).path, w)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the shot takes the chord, 1.6395917942265426; the level curve costs "
    "1.5610488401030242"))
def test_tight_l1_shot_matches_level_curve():
    w = make_weight("light_diamond_tight", 0.5)
    _, cost = shoot_two_point(w, *boundary_points(0.8), scan_angles=64,
                              n_shells=64)
    assert cost == weighted_length(level_curve(w, 0.8).path, w)


# Shots that miss the level curve's route.  Each tolerance sits above the
# gap that the 64 shells leave on levels the shot does find: 7.5e-5 on the
# core at t = 0.6 and 1.4, 3.1e-7 on the light diamond at t = 0.5.
def _misses(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=reason)


@pytest.mark.parametrize("name, alpha, t, rtol", [
    pytest.param("lite_dmd_heavy_core", None, 1.0, 1e-3, marks=_misses(
        "the shot takes the chord, 1.375; the level curve costs "
        "1.349232167832481")),
    pytest.param("light_diamond", 0.5, 0.8, 1e-5, marks=_misses(
        "the shot costs 1.520506747987613; the level curve costs "
        "1.5195778955498902"))], ids=["core", "light_diamond"])
def test_radial_shot_finds_the_level_curve_route(name, alpha, t, rtol):
    w = make_weight(name, alpha)
    _, cost = shoot_two_point(w, *boundary_points(t), scan_angles=64,
                              n_shells=64)
    curve = min(weighted_length(level_curve(w, t, branch).path, w)
                for branch in BRANCHES)
    assert cost <= curve * (1.0 + rtol)


def test_l1_shot_with_a_normal_incidence_ray():
    # the theta = -pi scan ray leaves along the inward l1 normal of
    # quadrant 3; it must cross the shells, not bounce on the first one
    w = make_weight("light_diamond_tight", 0.5)
    _, cost = shoot_two_point(w, *boundary_points(0.5), scan_angles=16,
                              n_shells=128)
    assert cost == 1.5672908491850612


LAYERS3 = ((0.2, 1.0), (0.5, 2.0), (0.8, 1.5))


def _seeded_pairs(seed, n):
    """n seeded pairs of interior points at least 0.05 apart."""
    rng = np.random.default_rng(seed)
    while n:
        r = 0.85 * np.sqrt(rng.uniform(size=2))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=2)
        p, q = ((float(r[i] * math.cos(phi[i])),
                 float(r[i] * math.sin(phi[i]))) for i in (0, 1))
        if math.dist(p, q) > 0.05:
            n -= 1
            yield p, q


def _scan_queries():
    """(id, weight, a, b, scan_angles, n_shells) for the lockstep check."""
    tight = make_weight("light_diamond_tight", 0.5)
    layers2 = make_weight("layered_horizontal",
                          layers=((0.2, 1.0), (2.0, 2.0)))
    disk = make_weight("heavy_disk", 2.0)
    # the tests' queries above
    yield "tip", make_weight("heavy_diamond", 2.0), (-0.8, 0.0), (0.8, 0.0), \
        2048, 1024
    yield "kink", layers2, (-0.5, 0.3), (0.5, -0.7), 512, 64
    # the lower endpoint first: the scan swaps the pair
    yield "kink-swapped", layers2, (0.5, -0.7), (-0.5, 0.3), 512, 64
    yield "targets", tight, (-0.4, 0.35), (0.55, 0.1), 512, 512
    for t in (0.7, 1.0, 1.2, 1.45):
        yield f"disk-{t}", disk, *boundary_points(t), 64, 64
    # the benchmark's l1 shot; its first ray, theta = -pi, leaves along
    # the inward normal
    yield "normal-incidence", tight, *boundary_points(0.5), 16, 128
    # launches exactly on a shell interface
    r = float(tight.shell_grid(128)[0][40])
    yield "l1-interface", tight, (0.5 * r, -0.5 * r), (0.6, 0.5), 256, 128
    yield "l1-interface-axis", tight, (-r, 0.0), (0.3, -0.7), 256, 128
    yield "l2-interface", disk, (0.5 * math.cos(2.0), 0.5 * math.sin(2.0)), \
        (0.7, 0.1), 256, 64
    layers3 = make_weight("layered_horizontal", layers=LAYERS3)
    for k, (a, b) in enumerate(_seeded_pairs(15, 10)):
        yield f"disk-seed{k}", disk, a, b, 256, 1024
        yield f"layers-seed{k}", layers3, a, b, 256, 1024


def _one_row(w, a, b, theta, n_shells):
    """The transverse miss and path of one ray from a at theta, traced on
    its own: NaN and None where the ray fails."""
    u, stop = shooting._aim(a, b)
    try:
        path = trace_layered_ray(w, a, theta, stop, n_shells=n_shells)
    except (TraceError, TotalInternalReflection):
        return math.nan, None
    return float(shooting._miss(path.as_array()[-1], a, b, u)), path


@pytest.mark.parametrize("query", list(_scan_queries()),
                         ids=lambda q: q[0])
def test_lockstep_scan_matches_scalar_misses(query):
    # the scan's misses from the lockstep fan against one single-ray trace
    # per angle: the same failures and the same values, to the last bit
    _, w, a, b, scan_angles, n_shells = query
    a, b, _, thetas = shooting._scan_angles(w, a, b, scan_angles)
    u, stop = shooting._aim(a, b)
    fan = shooting._miss(trace_fan(w, a, thetas, stop, n_shells), a, b, u)
    ref = np.array([_one_row(w, a, b, float(th), n_shells)[0]
                    for th in thetas])
    assert (~np.isnan(ref)).any()
    assert np.array_equal(fan, ref, equal_nan=True)


def _spy(monkeypatch):
    """Lists that the next shots fill: the rows of each trace_fan call,
    the angles each bracket's bisection visited and the angles traced with
    vertices."""
    fans, visits, paths = [], [], []

    def fan(w, start, thetas, *args):
        fans.append(len(thetas))
        return trace_fan(w, start, thetas, *args)

    def bisect(*args):
        runs = bisect_(*args)
        visits.extend([mid for mid, _, _ in seen] for seen in runs)
        return runs

    def ray(*args, **kw):
        paths.append(args[2])
        return trace_layered_ray(*args, **kw)

    bisect_ = shooting._bisect
    monkeypatch.setattr(shooting, "trace_fan", fan)
    monkeypatch.setattr(shooting, "_bisect", bisect)
    monkeypatch.setattr(shooting, "trace_layered_ray", ray)
    return fans, visits, paths


@pytest.mark.parametrize("name, alpha, a, b", [
    ("heavy_diamond", 2.0, (-0.8, 0.0), (0.8, 0.0)),
    ("light_diamond_tight", None, *boundary_points(0.5))],
    ids=["heavy_diamond", "light_diamond_tight"])
def test_default_shot_traces_few_scalar_rays(name, alpha, a, b, monkeypatch):
    # the 2,048-angle scan is one lockstep fan; each bisection fan traces
    # three levels of every live bracket, seven midpoints a bracket, and
    # only a converged ray is traced again with its vertices.  The
    # brackets visit 86 and 20 midpoints here; a per-ray scan traced 2,150
    # and 2,068 rays
    fans, visits, paths = _spy(monkeypatch)
    shoot_two_point(make_weight(name, alpha), a, b)
    assert fans[0] == 2048 and visits
    assert all(rows % 7 == 0 for rows in fans[1:])
    assert len(fans) - 1 == -(-max(map(len, visits)) // 3)
    assert sum(fans[1:]) < 300
    assert 0 < len(paths) <= len(visits)


def _sequential_scan(w, a, b, tol, n_shells, scan_angles, early_exit=True):
    """_scan_candidates as it was before a fan bisected: each midpoint is
    one ray traced on its own, bracket by bracket.  Without early_exit the
    bisection stops only at tol, a NaN miss or 60 steps, as it once did.
    Returns the candidates and, per bracket, the angles it visited and
    why it stopped."""
    a, b, swapped, thetas = shooting._scan_angles(w, a, b, scan_angles)
    u, stop = shooting._aim(a, b)
    misses = shooting._miss(trace_fan(w, a, thetas, stop, n_shells), a, b, u)
    m0, m1 = misses[:-1], misses[1:]
    out, brackets = [], []
    for i in np.flatnonzero((m0 > 0) & (m1 <= 0) | (m0 <= 0) & (m1 > 0)):
        lo, hi, flo = float(thetas[i]), float(thetas[i + 1]), m0[i]
        path, seen, why = None, [], "steps"
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            seen.append(mid)
            fm, pm = _one_row(w, a, b, mid, n_shells)
            if math.isnan(fm):
                why = "nan"
                break
            path = pm
            if abs(fm) < tol or early_exit and mid in (lo, hi):
                why = "tol" if abs(fm) < tol else "end"
                break
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        brackets.append((seen, why))
        if path is not None:
            e = path.as_array()[-1]
            if math.hypot(e[0] - b[0], e[1] - b[1]) < max(tol * 10, 1e-6):
                verts = np.vstack([path.as_array()[:-1], [b]])
                out.append(Polyline.from_points(
                    verts[::-1] if swapped else verts))
    return out, brackets


def _bisection_queries():
    """(id, weight, a, b, scan_angles, n_shells) for the old bisection's
    check."""
    disk = make_weight("heavy_disk", 2.0)
    layers3 = make_weight("layered_horizontal", layers=LAYERS3)
    for k, (a, b) in enumerate(_seeded_pairs(21, 4)):
        yield f"disk-seed{k}", disk, a, b, 256, 1024
        yield f"layers-seed{k}", layers3, a, b, 256, 1024
    # the benchmark's l1 shot
    yield "l1-benchmark", make_weight("light_diamond_tight", 0.5), \
        *boundary_points(0.5), 16, 128
    # the default core shot, with three brackets
    yield "core-1.3", make_weight("lite_dmd_heavy_core"), \
        *boundary_points(1.3), 2048, 1024
    # a bracket across a jump of the miss
    yield "jump", disk, (-0.5, 0.3), (0.6, -0.2), 2048, 1024


@pytest.mark.parametrize("query", list(_bisection_queries()),
                         ids=lambda q: q[0])
def test_fan_bisection_visits_what_the_scalar_bisection_visited(
        query, monkeypatch):
    # each bracket visits the same angles as when its midpoints were
    # traced one ray at a time, and every converged path is the same
    name, w, a, b, scan_angles, n_shells = query
    ref, brackets = _sequential_scan(w, a, b, 1e-9, n_shells, scan_angles)
    _, visits, _ = _spy(monkeypatch)
    got = shooting._scan_candidates(w, a, b, 1e-9, n_shells, scan_angles)
    assert visits == [seen for seen, _ in brackets]
    assert [p.as_array().tobytes() for p in got] \
        == [p.as_array().tobytes() for p in ref]
    if name == "core-1.3":
        assert len(brackets) == 3
    if name == "jump":
        assert "end" in [why for _, why in brackets]


@pytest.mark.parametrize("name, alpha, a, b", [
    ("heavy_diamond", 2.0, (-0.8, 0.0), (0.8, 0.0)),
    ("heavy_disk", 2.0, (-0.5, 0.3), (0.6, -0.2))],
    ids=["heavy_diamond", "heavy_disk"])
def test_bisection_stops_where_its_midpoint_rounds_onto_an_end(
        name, alpha, a, b, monkeypatch):
    # each shot has a bracket across a jump of the miss, which the full
    # bisection halves for all 60 steps (102 and 101 midpoints in all,
    # against 86 and 85 with the early exit); the paths are the same
    w = make_weight(name, alpha)
    _, visits, _ = _spy(monkeypatch)
    path, cost = shoot_two_point(w, a, b)
    brackets = []

    def full(*args):
        out, runs = _sequential_scan(*args, early_exit=False)
        brackets.extend(runs)
        return out

    monkeypatch.setattr(shooting, "_scan_candidates", full)
    ref_path, ref_cost = shoot_two_point(w, a, b)
    assert cost == ref_cost
    assert path.as_array().tobytes() == ref_path.as_array().tobytes()
    assert sum(map(len, visits)) < sum(len(seen) for seen, _ in brackets)
