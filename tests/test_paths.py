"""Polyline container and weighted length integration."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lglab.paths import Polyline, segment, weighted_length
from lglab.weights import Region, catalog_names, make_weight

COORD = st.floats(-0.95, 0.95)


def test_polyline_validation():
    with pytest.raises(ValueError):
        Polyline(((0.0, 0.0),))
    with pytest.raises(ValueError):
        Polyline(((0.0, 0.0), (0.0, 0.0)))
    with pytest.raises(ValueError):
        Polyline(((0.0, 0.0), (math.nan, 1.0)))


def test_from_points_drops_repeats():
    p = Polyline.from_points([(0, 0), (0, 0), (1, 0), (1, 0), (1, 1)])
    assert len(p.vertices) == 3


def test_polyline_holds_one_read_only_array():
    pts = np.array([(0.0, 0.0), (1.0, 0.5), (2.0, 0.0)])
    p = Polyline.from_points(pts)
    pts[1] = (9.0, 9.0)  # the polyline keeps its own copy
    arr = p.as_array()
    assert arr is p.as_array() and arr.dtype == np.float64
    assert arr[1].tolist() == [1.0, 0.5]
    with pytest.raises(ValueError):
        arr[0, 0] = 5.0
    assert p.vertices == ((0.0, 0.0), (1.0, 0.5), (2.0, 0.0))
    assert p == Polyline(p.vertices) and p != p.reversed()
    assert p != Polyline(((0.0, 0.0), (1.0, 0.5)))


def test_geometry_helpers():
    p = segment((0.0, 0.0), (3.0, 4.0))
    assert p.euclidean_length() == pytest.approx(5.0)
    assert p.reversed().vertices[0] == (3.0, 4.0)
    assert p.mirrored_y().vertices[1] == (3.0, -4.0)


def test_constant_weight_length_is_euclidean():
    w = make_weight("constant", 2.5)
    p = Polyline(((0.0, -1.0), (0.3, 0.2), (0.9, 0.1)))
    assert weighted_length(p, w) == pytest.approx(2.5 * p.euclidean_length())


def test_heavy_diamond_crossing_is_piecewise_exact():
    # the x-axis chord spends |x| <= 0.5 inside the slow diamond
    w = make_weight("heavy_diamond", 2.0)
    p = segment((-1.0, 0.0), (1.0, 0.0))
    assert weighted_length(p, w) == pytest.approx(3.0, abs=1e-9)


def test_tight_radial_segment_quadrature():
    # along the positive x-axis w = (1+x)/2, so the cost from a to b
    # is (b - a)(2 + a + b)/4
    w = make_weight("light_diamond_tight", 0.5)
    a, b = 0.1, 0.9
    got = weighted_length(segment((a, 0.0), (b, 0.0)), w)
    assert got == pytest.approx((b - a) * (2 + a + b) / 4.0, abs=1e-9)


@given(ax=COORD, ay=COORD, bx=COORD, by=COORD)
def test_length_bounded_by_weight_range(ax, ay, bx, by):
    if math.hypot(bx - ax, by - ay) < 1e-6:
        return
    w = make_weight("heavy_diamond", 2.0)
    p = segment((ax, ay), (bx, by))
    e = p.euclidean_length()
    cost = weighted_length(p, w)
    assert e - 1e-9 <= cost <= 2.0 * e + 1e-9


@given(ax=COORD, ay=COORD, bx=COORD, by=COORD)
def test_length_is_reversal_invariant(ax, ay, bx, by):
    if math.hypot(bx - ax, by - ay) < 1e-6:
        return
    w = make_weight("light_diamond_tight", 0.5)
    p = segment((ax, ay), (bx, by))
    assert weighted_length(p, w) == pytest.approx(
        weighted_length(p.reversed(), w), rel=1e-12, abs=1e-12)


def _custom_weight():
    ring = Region("l2", radius=0.5, negate=True)
    inner = Region("l2", radius=0.5)
    return make_weight("custom_piecewise", pieces=(
        ((inner,), 3.0, 0.0, 0.0, 0.0),
        ((ring,), 1.0, 1.0, 0.0, 0.0),
    ), default=9.0)


def _catalog_weight(name):
    if name == "layered_horizontal":
        return make_weight(name, layers=((0.2, 1.0), (0.6, 2.0)))
    if name == "custom_piecewise":
        return _custom_weight()
    return make_weight(name)


@pytest.mark.parametrize("name", catalog_names())
def test_interface_splitting_matches_dense_midpoint_sum(name):
    # a panel straddling an interface is off by at most half its length
    # times the jump, and a segment crosses few interfaces
    w = _catalog_weight(name)
    rng = np.random.default_rng(7)
    n = 20000
    for _ in range(20):
        r = 0.95 * np.sqrt(rng.uniform(size=2))
        th = rng.uniform(0.0, 2.0 * math.pi, size=2)
        a = np.array([r[0] * math.cos(th[0]), r[0] * math.sin(th[0])])
        b = np.array([r[1] * math.cos(th[1]), r[1] * math.sin(th[1])])
        seg_len = float(np.hypot(*(b - a)))
        s = (np.arange(n) + 0.5) / n
        mids = a[None, :] + s[:, None] * (b - a)[None, :]
        vals = w.values(mids[:, 0], mids[:, 1])
        dense = float(vals.sum()) * seg_len / n
        tol = 2.0 * seg_len * float(vals.max() - vals.min()) / n + 1e-12
        assert weighted_length(segment(a, b), w) == pytest.approx(
            dense, rel=0.0, abs=tol)
