"""Two-point geodesic search."""
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from lglab.curves import boundary_points, level_curve
from lglab.paths import segment, weighted_length
from lglab.shooting import shoot_two_point
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
