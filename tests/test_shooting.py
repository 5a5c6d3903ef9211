"""Two-point geodesic search."""
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from lglab import shooting
from lglab.curves import boundary_points, level_curve
from lglab.paths import segment, weighted_length
from lglab.shooting import shoot_two_point
from lglab.tracing import trace_fan
from lglab.weights import make_weight


def test_constant_weight_returns_chord():
    w = make_weight("constant", 1.5)
    path, cost = shoot_two_point(w, (-0.6, 0.1), (0.7, -0.4))
    assert len(path.vertices) == 2
    assert cost == pytest.approx(1.5 * math.hypot(1.3, 0.5), abs=1e-12)


def test_heavy_diamond_tip_route():
    # between (-0.8, 0) and (0.8, 0) the cheapest route grazes a diamond
    # tip: cost 2 * hypot(0.8, 0.5), cheaper than 2.6 straight through
    w = make_weight("heavy_diamond", 2.0)
    path, cost = shoot_two_point(w, (-0.8, 0.0), (0.8, 0.0))
    assert cost == pytest.approx(2.0 * math.hypot(0.8, 0.5), abs=1e-9)
    assert cost < 2.6
    ys = path.as_array()[:, 1]
    assert np.max(np.abs(ys)) == pytest.approx(0.5, abs=1e-9)


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


@pytest.mark.parametrize("query", list(_scan_queries()),
                         ids=lambda q: q[0])
def test_lockstep_scan_matches_scalar_misses(query):
    # the scan's misses from the lockstep fan against one scalar ray per
    # angle: same failures, same signs (hence the same brackets) and the
    # same values
    _, w, a, b, scan_angles, n_shells = query
    a, b, _, thetas = shooting._scan_angles(w, a, b, scan_angles)
    u, stop = shooting._aim(a, b)
    fan = shooting._miss(trace_fan(w, a, thetas, stop, n_shells), a, b, u)
    ref = np.array([shooting._perp_miss(w, a, b, float(th), n_shells)[0]
                    for th in thetas])
    assert np.array_equal(np.isnan(fan), np.isnan(ref))
    ok = ~np.isnan(ref)
    assert ok.any()
    assert np.array_equal(fan[ok] > 0, ref[ok] > 0)
    assert np.all(np.abs(fan[ok] - ref[ok])
                  <= 1e-12 * np.maximum(1.0, np.abs(ref[ok])))


@pytest.mark.parametrize("name, alpha, a, b", [
    ("heavy_diamond", 2.0, (-0.8, 0.0), (0.8, 0.0)),
    ("light_diamond_tight", None, *boundary_points(0.5))],
    ids=["heavy_diamond", "light_diamond_tight"])
def test_default_shot_traces_few_scalar_rays(name, alpha, a, b, monkeypatch):
    # the 2,048-angle scan is one lockstep fan; scalar rays only bisect the
    # brackets (a per-ray scan traced 2,150 and 2,068 here)
    rays = []

    def counted(*args, **kwargs):
        rays.append(args[2])
        return trace(*args, **kwargs)

    trace = shooting.trace_layered_ray
    monkeypatch.setattr(shooting, "trace_layered_ray", counted)
    shoot_two_point(make_weight(name, alpha), a, b)
    assert 0 < len(rays) < 300
