"""Ray propagation through the structured media."""
import math

import numpy as np
import pytest

from lglab.paths import weighted_length
from lglab.tracing import (TotalInternalReflection, TraceError,
                           _refract_direction, trace_layered_ray)
from lglab.weights import make_weight


def test_constant_ray_is_straight():
    w = make_weight("constant")
    ray = trace_layered_ray(w, (0.0, 0.0), math.pi / 4, ("depth", 1.0))
    arr = ray.as_array()
    assert arr.shape == (2, 2)
    assert arr[1, 1] == pytest.approx(-1.0)
    assert arr[1, 0] == pytest.approx(1.0)  # 45 degrees from vertical


def test_two_layer_kink_obeys_refraction_law():
    w = make_weight("layered_horizontal", layers=((0.5, 1.0), (9.0, 2.0)))
    th1 = 0.6
    ray = trace_layered_ray(w, (0.0, 0.0), th1, ("depth", 1.5))
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
        trace_layered_ray(w, (0.0, 0.0), 0.7, ("depth", 1.0))


def test_layered_launch_domain():
    w = make_weight("layered_horizontal", layers=((0.5, 1.0), (9.0, 2.0)))
    with pytest.raises(ValueError):
        trace_layered_ray(w, (0.0, 0.0), 2.0, ("depth", 1.0))


def test_unreachable_stop_is_an_error():
    w = make_weight("constant")
    with pytest.raises(TraceError):
        trace_layered_ray(w, (0.0, -2.0), 0.0, ("depth", 1.0))


def test_radial_ray_conserves_snell_invariant():
    # w sin(theta) against the l1 shell normal is constant along the ray
    w = make_weight("light_diamond_tight", 0.5)
    ray = trace_layered_ray(w, (0.2, 0.0), math.pi / 4, "circle",
                            n_shells=4096)
    arr = ray.as_array()
    assert np.hypot(*arr[-1]) == pytest.approx(1.0, abs=1e-3)
    # cost of the traced ray stays within the global weight bounds
    cost = weighted_length(ray, w)
    e = ray.euclidean_length()
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
