"""Polyline container and weighted length integration."""
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lglab.paths import Polyline, segment, weighted_length
from lglab.weights import (ConstantWeight, CustomWeight, LayeredWeight,
                           MultiDiamondWeight, RadialWeight, Region,
                           WeightField, catalog_names, make_weight)

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
    assert p == Polyline(p.vertices) and p != Polyline(p.as_array()[::-1])
    assert p != Polyline(((0.0, 0.0), (1.0, 0.5)))


def test_polyline_array_is_c_ordered():
    # weighted_length moves rows as complex numbers, which needs C order
    pts = np.asfortranarray([(-0.9, 0.1), (0.0, 0.3), (0.9, -0.2)])
    p = Polyline(pts)
    assert p.as_array().flags.c_contiguous
    w = make_weight("heavy_diamond")
    assert weighted_length(p, w) == weighted_length(Polyline(p.vertices), w)


def test_constant_weight_length_is_euclidean():
    w = make_weight("constant", 2.5)
    p = Polyline(((0.0, -1.0), (0.3, 0.2), (0.9, 0.1)))
    steps = np.diff(p.as_array(), axis=0)
    assert weighted_length(p, w) == pytest.approx(
        2.5 * np.hypot(*steps.T).sum())


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
    e = weighted_length(p, make_weight("constant"))
    cost = weighted_length(p, w)
    assert e - 1e-9 <= cost <= 2.0 * e + 1e-9


@given(ax=COORD, ay=COORD, bx=COORD, by=COORD)
def test_length_is_reversal_invariant(ax, ay, bx, by):
    if math.hypot(bx - ax, by - ay) < 1e-6:
        return
    w = make_weight("light_diamond_tight", 0.5)
    p = segment((ax, ay), (bx, by))
    assert weighted_length(p, w) == pytest.approx(
        weighted_length(segment((bx, by), (ax, ay)), w), rel=1e-12,
        abs=1e-12)


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


def _rich_custom_weight():
    # a half-plane, an off-origin l1 diamond, an off-origin disk, and a piece
    # sloped in the l1 distance from an off-axis anchor
    half = Region("halfplane", nx=0.6, ny=0.8, offset=0.3)
    diamond = Region("l1", cx=-0.3, cy=0.2, radius=0.35)
    disk = Region("l2", cx=0.25, cy=-0.2, radius=0.3)
    return make_weight("custom_piecewise", pieces=(
        ((diamond,), 2.0, 0.0, 0.0, 0.0),
        ((disk, half), 3.0, 0.0, 0.0, 0.0),
        ((half,), 0.5, 1.5, 0.1, -0.2),
    ), default=1.25)


WEIGHTS = [*(_catalog_weight(n) for n in catalog_names()),
           _rich_custom_weight()]


# Frozen copy of the scalar per-segment splitter that weighted_length
# replaced: the reference the array path must match.
def _ref_line(da, db):
    return [da / (da - db)] if da * db < 0 else []


def _ref_axes(a, b, cx=0.0, cy=0.0):
    return _ref_line(a[0] - cx, b[0] - cx) + _ref_line(a[1] - cy, b[1] - cy)


def _ref_l1_hits(a, b, radii, cx=0.0, cy=0.0):
    cuts = sorted(set([0.0, 1.0] + _ref_axes(a, b, cx, cy)))
    hits = []
    for lo, hi in zip(cuts, cuts[1:]):
        pl = a + lo * (b - a)
        ph = a + hi * (b - a)
        rl = abs(pl[0] - cx) + abs(pl[1] - cy)
        rh = abs(ph[0] - cx) + abs(ph[1] - cy)
        for r0 in radii:
            if rl < r0 < rh or rh < r0 < rl:
                s = (r0 - rl) / (rh - rl)
                hits.append(lo + s * (hi - lo))
    return hits


def _ref_l2_hits(a, b, radii, cx=0.0, cy=0.0):
    d = b - a
    hits = []
    for r0 in radii:
        fx, fy = a[0] - cx, a[1] - cy
        aa = d[0] * d[0] + d[1] * d[1]
        bb = 2.0 * (fx * d[0] + fy * d[1])
        disc = bb * bb - 4 * aa * (fx * fx + fy * fy - r0 * r0)
        if disc > 0:
            sq = math.sqrt(disc)
            hits += [s for s in ((-bb - sq) / (2 * aa), (-bb + sq) / (2 * aa))
                     if 0.0 < s < 1.0]
    return hits


def _ref_region_hits(reg, a, b):
    if reg.shape == "l1":
        return _ref_l1_hits(a, b, [reg.radius], reg.cx, reg.cy)
    if reg.shape == "l2":
        return _ref_l2_hits(a, b, [reg.radius], reg.cx, reg.cy)
    return _ref_line(reg.nx * a[0] + reg.ny * a[1] - reg.offset,
                     reg.nx * b[0] + reg.ny * b[1] - reg.offset)


def _ref_split_params(w, a, b):
    if isinstance(w, ConstantWeight):
        return []
    if isinstance(w, RadialWeight):
        hits = _ref_l1_hits if w.norm == "l1" else _ref_l2_hits
        return _ref_axes(a, b) + hits(a, b, w.breakpoints())
    if isinstance(w, MultiDiamondWeight):
        return [s for cx, cy, r in w.CENTERS
                for s in _ref_l1_hits(a, b, [r], cx, cy)]
    if isinstance(w, LayeredWeight):
        return [s for d in w.depths() for s in _ref_line(a[1] + d, b[1] + d)]
    assert isinstance(w, CustomWeight)
    pts = []
    for regions, _off, slope, ax, ay in w.pieces:
        if slope != 0.0:
            pts += _ref_axes(a, b, ax, ay)
        for reg in regions:
            pts += _ref_region_hits(reg, a, b)
    return pts


def _ref_weighted_length(path, w):
    total = 0.0
    arr = path.as_array()
    for a, b in zip(arr[:-1], arr[1:]):
        seg_len = float(np.hypot(*(b - a)))
        cuts = sorted(set([0.0, 1.0] + [s for s in _ref_split_params(w, a, b)
                                        if 0.0 < s < 1.0]))
        for lo, hi in zip(cuts, cuts[1:]):
            piece_len = seg_len * (hi - lo)
            if piece_len == 0.0:
                continue
            mid = a + 0.5 * (lo + hi) * (b - a)
            total += float(w.values(mid[:1], mid[1:])[0]) * piece_len
    return total


# coordinates on the catalog's axes, lines and breakpoints
SNAP = (0.0, 0.5, -0.5, 0.25, -0.25, 0.55, -0.55, 0.125, 0.375, -0.2, 0.3)


def _seeded_polylines(seed):
    """Polylines of 2 to 40 vertices in the disk (the scalar splitter had a
    fast path for radial polylines of more than 16), with about 30% of the
    coordinates snapped onto axes, interface lines and breakpoints."""
    rng = np.random.default_rng(seed)
    for n in range(2, 41):
        r = 0.95 * np.sqrt(rng.uniform(size=n))
        th = rng.uniform(0.0, 2.0 * math.pi, size=n)
        pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
        snap = rng.uniform(size=(n, 2)) < 0.3
        pts[snap] = rng.choice(SNAP, size=int(snap.sum()))
        path = Polyline.from_points(pts)
        if len(path.as_array()) >= 2:
            yield path


@pytest.mark.parametrize("w", WEIGHTS, ids=lambda w: w.name)
def test_array_split_matches_the_frozen_scalar_reference(w):
    worst = 0.0
    for seed in range(3):
        for path in _seeded_polylines(seed):
            ref = _ref_weighted_length(path, w)
            worst = max(worst, abs(weighted_length(path, w) - ref) / ref)
    assert worst <= 1e-14


def _through(q):
    """Polylines through the point q: along both axes, on three slopes
    that no diamond edge has, and with q as a vertex."""
    q = np.asarray(q, dtype=float)
    for v in ((0.3, 0.0), (0.0, 0.3), (0.3, 0.1), (0.1, -0.3), (0.2, 0.1)):
        yield segment(q - v, q + v)
    yield Polyline((q - (0.3, 0.1), q, q + (0.1, 0.3)))


def _dense_midpoint_sum(path, w, n=20000):
    """(midpoint sum on n panels per segment, its worst error bound)."""
    total = tol = 0.0
    arr = path.as_array()
    s = (np.arange(n) + 0.5) / n
    for a, b in zip(arr[:-1], arr[1:]):
        seg_len = float(np.hypot(*(b - a)))
        mids = a + s[:, None] * (b - a)
        vals = w.values(mids[:, 0], mids[:, 1])
        total += float(vals.sum()) * seg_len / n
        tol += 2.0 * seg_len * float(vals.max() - vals.min()) / n
    return total, tol + 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("w", WEIGHTS, ids=lambda w: w.name)
def test_degenerate_pieces_price_without_warnings(w):
    # a segment through the origin, a diamond tip or the custom weight's l1
    # centre and anchor crosses two interface lines at one point, which
    # leaves a zero-length piece
    tips = make_weight("three_heavy_diamonds").corner_points()
    for q in [(0.0, 0.0), (0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5),
              (-0.3, 0.2), (0.1, -0.2), *tips]:
        for path in _through(q):
            dense, tol = _dense_midpoint_sum(path, w)
            assert weighted_length(path, w) == pytest.approx(
                dense, rel=0.0, abs=tol)


def test_a_diamond_exit_at_its_tip_is_a_cut():
    # the chord starts inside the left diamond and leaves it exactly at the
    # tip (-1/4, 0), half way along; the scalar splitter missed that exit
    w = make_weight("three_heavy_diamonds")
    half = 0.5 * math.sqrt(0.4)
    got = weighted_length(segment((-0.55, -0.1), (0.05, 0.1)), w)
    assert got == pytest.approx(half * (w.alpha + 1.0), rel=1e-14)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a piece on a diamond edge is priced by the side its midpoint rounds "
    "to: 0.682842712474619, not the inf of the one-sided limits"))
def test_a_segment_along_a_diamond_edge_costs_the_inf_of_its_limits():
    w = make_weight("three_heavy_diamonds", math.sqrt(2.0))
    got = weighted_length(segment((-0.7, 0.45), (-0.3, 0.05)), w)
    assert got == pytest.approx(0.565685424949238, rel=0.0, abs=1e-12)


# A list of polylines is priced in one pass, joined with NaN rows; each of
# its costs must be the float its own call returns.

@pytest.mark.parametrize("w", WEIGHTS, ids=lambda w: w.name)
def test_a_list_prices_each_polyline_as_its_own_call(w):
    for seed in range(3):
        paths = list(_seeded_polylines(seed))
        assert weighted_length(paths, w) == [weighted_length(p, w)
                                             for p in paths]
        for p in paths[::7]:
            assert weighted_length([p], w) == [weighted_length(p, w)]


@pytest.mark.parametrize("w", WEIGHTS, ids=lambda w: w.name)
def test_polylines_that_meet_end_to_start_price_apart(w):
    # each ends where the next starts, on an axis, a diamond tip, a
    # breakpoint or off every interface
    stops = [(-0.9, 0.1), (0.0, 0.0), (0.5, 0.0), (0.3, 0.4), (0.0, -0.5),
             (-0.25, 0.0), (0.2, -0.1), (0.7, 0.2)]
    paths = [segment(a, b) for a, b in zip(stops, stops[1:])]
    paths.append(Polyline(stops[-3:]))
    assert weighted_length(paths, w) == [weighted_length(p, w)
                                         for p in paths]


def test_a_list_prices_a_diamond_edge_as_its_own_call():
    # the edge piece is priced by the side its midpoint rounds to either
    # way; see the strict xfail above
    w = make_weight("three_heavy_diamonds", math.sqrt(2.0))
    edge = segment((-0.7, 0.45), (-0.3, 0.05))
    paths = [segment((-0.9, 0.0), (-0.7, 0.45)), edge,
             Polyline(((-0.3, 0.05), (0.0, 0.3), (0.4, -0.2))), edge]
    costs = weighted_length(paths, w)
    assert costs == [weighted_length(p, w) for p in paths]
    assert costs[1] == costs[3] == weighted_length(edge, w)


@pytest.mark.filterwarnings("error")
def test_a_list_prices_overflowing_routes_as_inf_without_warnings():
    w = make_weight("three_heavy_diamonds", sys.float_info.max)
    # a piece costs at most alpha / 2, so the sums overflow: the first
    # and last routes run more than 1 inside the diamonds
    paths = [Polyline(((-0.7, 0.0), (-0.3, 0.0), (-0.7, 0.02), (-0.3, 0.02))),
             segment((-0.9, 0.6), (0.9, 0.6)),
             Polyline(((-0.8, 0.0), (0.8, 0.0), (-0.8, 0.01)))]
    costs = weighted_length(paths, w)
    assert costs == [weighted_length(p, w) for p in paths]
    assert costs[0] == costs[2] == math.inf and math.isfinite(costs[1])


class _StripedWeight(WeightField):
    """1 and 2 on alternate vertical strips a quarter wide; the integer
    cast in values warns on a NaN row."""

    def values(self, x, y):
        return 1.0 + np.floor(4.0 * np.asarray(x)).astype(int) % 2

    def interfaces(self):
        return [(1.0, 0.0, k / 4.0) for k in range(-4, 5)], [], []


@pytest.mark.filterwarnings("error")
def test_the_joining_nan_rows_price_without_warnings():
    w = _StripedWeight()
    paths = [segment((-0.9, 0.1), (0.9, -0.2)),
             Polyline(((0.1, 0.5), (0.6, 0.0), (0.2, -0.5)))]
    assert weighted_length(paths, w) == [weighted_length(p, w)
                                         for p in paths]
    assert weighted_length(paths[0], w) == pytest.approx(
        1.5 * math.hypot(1.8, 0.3), rel=1e-14)


POINT = st.tuples(st.sampled_from(SNAP) | COORD, st.sampled_from(SNAP) | COORD)


@settings(max_examples=60, deadline=None)
@given(routes=st.lists(st.lists(POINT, min_size=2, max_size=6, unique=True),
                       min_size=1, max_size=5),
       w=st.sampled_from(WEIGHTS))
def test_fuzzed_lists_price_each_polyline_as_its_own_call(routes, w):
    paths = [Polyline(r) for r in routes]
    assert weighted_length(paths, w) == [weighted_length(p, w)
                                         for p in paths]
