"""Level-curve construction for the catalog weights."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lglab import curves
from lglab.curves import (BRANCHES, LevelCurve, _apex_grid, _band_ends,
                          _chord, _core_geometry, _depart,
                          _heavy_obstacle_paths, _pick, _refine,
                          _SWEEP_BOUNDS, _three_diamond_paths,
                          boundary_points, level_curve)
from lglab.paths import Polyline, weighted_length
from lglab.snell import H_of
from lglab.stacker import midpoint_levels, stack
from lglab.weights import (STACKABLE, ProfilePiece, light_diamond_tight,
                           make_weight)

SQ3 = math.sqrt(3.0)
RADIAL = [("light_diamond", 0.5), ("light_diamond_tight", 0.5),
          ("lite_dmd_heavy_core", None)]


def _reference_root(f, lo, hi, flo, iters=45):
    """The 45-step bisection that found the apex and band roots before."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_boundary_points():
    (lx, lh), (rx, rh) = boundary_points(1.0)
    assert (lx, lh, rx, rh) == (-1.0, 0.0, 1.0, 0.0)
    (lx, lh), (rx, rh) = boundary_points(0.5)
    assert lh == rh == -0.5
    assert rx == pytest.approx(SQ3 / 2)
    with pytest.raises(ValueError):
        boundary_points(0.0)
    with pytest.raises(ValueError):
        boundary_points(2.0)


@pytest.mark.parametrize("t", [5e-324, 2.2e-291, 1e-17, 2.0 - 1e-17])
def test_levels_that_round_onto_the_rim_are_level_errors(t):
    # t - 1 rounds to -1 (2 - 1e-17 is 2.0 itself): the chord has zero width
    with pytest.raises(ValueError, match="zero width|lie in"):
        boundary_points(t)
    with pytest.raises(ValueError, match="zero width|lie in"):
        level_curve(make_weight("heavy_diamond", 2.0), t)


def test_the_smallest_level_off_the_rim_still_has_a_chord():
    (lx, lh), (rx, rh) = boundary_points(2.0 ** -53)
    assert lh == rh > -1.0 and rx == -lx > 0.0


def test_level_curve_must_be_a_graph():
    with pytest.raises(ValueError):
        LevelCurve(1.0, "minimal",
                   Polyline(((0.0, 0.0), (0.5, 0.1), (0.2, 0.2))))


def test_constant_curves_are_chords():
    w = make_weight("constant")
    for t in (0.3, 1.0, 1.7):
        c = level_curve(w, t)
        arr = c.path.as_array()
        assert arr.shape == (2, 2)
        assert np.allclose(arr[:, 1], t - 1.0)


def test_heavy_diamond_kink_and_miss():
    w = make_weight("heavy_diamond", 2.0)
    c = level_curve(w, 1.0, "minimal")
    arr = c.path.as_array()
    k = arr[np.argmax(arr[:, 1])]
    assert k[0] == pytest.approx(0.0, abs=1e-9)
    assert k[1] == pytest.approx(0.5, abs=1e-9)
    assert weighted_length(c.path, w) == pytest.approx(math.sqrt(5.0),
                                                       abs=1e-9)
    # a level whose chord misses the slow diamond stays straight
    low = level_curve(w, 0.2, "minimal")
    assert np.allclose(low.path.as_array()[:, 1], -0.8)


@pytest.mark.parametrize("alpha", [1.05, math.sqrt(1.5), 1.4])
def test_interior_diamond_detour_obeys_snell_at_the_edge(alpha):
    # an interior minimizer of the convex detour cost is where the entry
    # segment's angle p from the horizontal has cos p + sin p = alpha
    interior = 0
    for t in midpoint_levels(101):
        (_, h), (xb, _) = boundary_points(t)
        for sign in (1.0, -1.0):
            if abs(h) >= 0.5:
                continue  # the detours _heavy_obstacle_paths proposes
            path = curves._diamond_detour(alpha, h, xb, sign)
            if path is None:
                continue  # the chord's own entry
            arr = path.as_array()
            s = sign * arr[1, 1]
            if not max(sign * h, 0.0) < s < 0.5:
                continue
            interior += 1
            dx, dy = arr[1, 0] - arr[0, 0], sign * (arr[1, 1] - arr[0, 1])
            assert abs((dx + dy) / math.hypot(dx, dy) - alpha) <= 1e-12, t
    assert interior > 0


def test_heavy_disk_arc_route():
    w = make_weight("heavy_disk", 2.0)
    c = level_curve(w, 1.0, "minimal")
    assert weighted_length(c.path, w) == pytest.approx(SQ3 + math.pi / 6,
                                                       abs=1e-6)
    arr = c.path.as_array()
    mid = arr[np.abs(arr[:, 0]) < 0.2]
    assert np.allclose(np.hypot(mid[:, 0], mid[:, 1]), 0.5, atol=1e-5)
    assert np.all(mid[:, 1] > 0)


def test_maximal_branch_mirrors_minimal_at_center_level():
    # the weights are y-symmetric, so at t = 1 the two branches must be
    # mirror images
    for name, alpha in (("heavy_diamond", 2.0), ("heavy_disk", 2.0)):
        w = make_weight(name, alpha)
        lo = level_curve(w, 1.0, "maximal").path.as_array()
        hi = level_curve(w, 1.0, "minimal").path.as_array() * (1.0, -1.0)
        assert np.allclose(np.sort(lo[:, 1]), np.sort(hi[:, 1]), atol=1e-9)


# The y-symmetric stackable weights over their documented alpha ranges,
# normal floats only (the light diamond rejects a subnormal alpha).
UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True,
                 allow_subnormal=False)
MIRROR_ALPHAS = {
    "constant": st.floats(0.0, exclude_min=True, allow_infinity=False,
                          allow_subnormal=False),
    "heavy_diamond": st.floats(1.0, exclude_min=True, allow_infinity=False),
    "heavy_disk": st.floats(math.pi / 2, allow_infinity=False),
    "light_diamond": UNIT,
    "light_diamond_tight": UNIT,
    "lite_dmd_heavy_core": st.none(),
}


@pytest.mark.parametrize("name", sorted(MIRROR_ALPHAS))
def test_maximal_branch_mirrors_minimal_at_every_level(name):
    # u_max(x, y) = 2 - u_min(x, -y): the minimal level-t curve mirrored in
    # y is the maximal level-(2 - t) curve.  The levels drawn are those
    # whose offset h = t - 1 lies inside (-1, 1) and negates exactly: near
    # the top and bottom of the disk an ulp of level moves the endpoints by
    # far more than 1e-12.
    @settings(max_examples=25, deadline=None)
    @given(alpha=MIRROR_ALPHAS[name], t=st.floats(0.0, 2.0).filter(
        lambda t: abs(t - 1.0) < 1.0 and (2.0 - t) - 1.0 == 1.0 - t))
    def check(alpha, t):
        w = make_weight(name, alpha)
        lo = Polyline(level_curve(w, t, "minimal").path.as_array()
                      * (1.0, -1.0))
        hi = level_curve(w, 2.0 - t, "maximal").path
        assert lo.as_array().shape == hi.as_array().shape
        assert np.allclose(lo.as_array(), hi.as_array(), rtol=0.0,
                           atol=1e-12)
        assert math.isclose(weighted_length(lo, w), weighted_length(hi, w),
                            rel_tol=1e-12)

    check()


def test_three_diamonds_route_switching():
    w = make_weight("three_heavy_diamonds", 2.0)
    below = level_curve(w, 0.9, "minimal").path.as_array()
    assert below[:, 1].max() < 0.0  # bottom route passes under everything
    # inside the tie band the two branches split around the small diamond:
    # over its top tip (0, 0.375) or under its bottom tip (0, 0.125), at
    # equal cost because the large tips sit level with its center
    mid_min = level_curve(w, 1.05, "minimal")
    mid_max = level_curve(w, 1.05, "maximal")
    assert float(mid_min.y_at(0.0)) == pytest.approx(0.375, abs=1e-9)
    assert float(mid_max.y_at(0.0)) == pytest.approx(0.125, abs=1e-9)
    cmin = weighted_length(mid_min.path, w)
    cmax = weighted_length(mid_max.path, w)
    assert cmin == pytest.approx(cmax, abs=1e-9)
    high = level_curve(w, 1.2, "minimal").path.as_array()
    apex = high[np.argmax(high[:, 1])]
    assert apex[0] == pytest.approx(0.0, abs=1e-9)  # two-segment route


@pytest.mark.parametrize("name", ["heavy_diamond", "heavy_disk"])
def test_heavy_options_cost_their_weighted_length(name):
    for alpha in (1.6, 2.0, 3.0):
        w = make_weight(name, alpha)
        for t in midpoint_levels(41):
            _, (xb, h) = boundary_points(float(t))
            costs = [weighted_length(path, w) for path in
                     (_chord(h, xb), *_heavy_obstacle_paths(w, h, xb))]
            for branch in BRANCHES:
                path = level_curve(w, float(t), branch).path
                assert weighted_length(path, w) == pytest.approx(
                    min(costs), abs=1e-12)
            if name == "heavy_diamond":
                # the chord crosses the l1 ball over |x| < 1/2 - |h|
                m = max(0.0, 0.5 - abs(h))
                assert costs[0] == pytest.approx(
                    2.0 * (xb - m) + 2.0 * alpha * m, abs=1e-12)


# Frozen copies of the two route filters that ran before _pick: a
# three-diamond detour costing more than its Euclidean length was skipped,
# and a heavy-diamond detour away from h was withheld once |h| > xb - 1/2.
def _three_diamond_filter(w, paths, h, xb):
    out = []
    for path in paths:
        steps = np.diff(path.as_array(), axis=0)
        if len(steps) > 1 and (weighted_length(path, w)
                               > np.hypot(*steps.T).sum() + 1e-9):
            continue
        out.append(path)
    return out


def _heavy_diamond_filter(w, paths, h, xb):
    # at x = 0 the detour away from h lies on the x-axis or across it,
    # while the chord and the detour toward h lie on h's side
    if abs(h) <= xb - 0.5:
        return list(paths)
    return [path for path in paths
            if h * np.interp(0.0, *path.as_array().T) > 0.0]


@pytest.mark.parametrize("name,alphas,routes,old_filter", [
    ("three_heavy_diamonds", (math.sqrt(2.0), 2.0, 5.0),
     lambda w, h, xb: _three_diamond_paths(h, xb), _three_diamond_filter),
    ("heavy_diamond", (1.05, 1.3, 2.0, 5.0), _heavy_obstacle_paths,
     _heavy_diamond_filter),
], ids=["three_heavy_diamonds", "heavy_diamond"])
def test_pick_rejects_every_route_the_old_filters_dropped(name, alphas,
                                                          routes,
                                                          old_filter):
    dropped = 0
    for alpha in alphas:
        w = make_weight(name, alpha)
        for t in midpoint_levels(401):
            _, (xb, h) = boundary_points(float(t))
            every = [_chord(h, xb), *routes(w, h, xb)]
            kept = old_filter(w, every, h, xb)
            dropped += len(every) - len(kept)
            for branch in BRANCHES:
                assert _pick(w, every, branch) == _pick(w, kept, branch), (
                    alpha, t)
    assert dropped > 0


def test_three_diamond_routes_are_distinct():
    w = make_weight("three_heavy_diamonds", 2.0)
    for t in (0.75, 1.125, 1.375, *midpoint_levels(41)):
        _, (xb, h) = boundary_points(float(t))
        xs = np.linspace(-xb, xb, 101)
        profiles = [np.interp(xs, *path.as_array().T)
                    for path in (_chord(h, xb), *_three_diamond_paths(h, xb))]
        for a, b in itertools.combinations(profiles, 2):
            assert np.abs(a - b).max() > 1e-9, t
    # h = -1/4: the route under everything is the chord itself
    _, (xb, h) = boundary_points(0.75)
    for branch in BRANCHES:
        assert level_curve(w, 0.75, branch).path == Polyline(((-xb, h),
                                                              (xb, h)))


@pytest.mark.parametrize("name,alpha", STACKABLE)
def test_tied_routes_split_minimal_up_maximal_down(name, alpha):
    # branches may only differ by a tie: then minimal takes the upper curve
    w = make_weight(name, alpha)
    for t in midpoint_levels(41):
        lo = level_curve(w, float(t), "maximal")
        hi = level_curve(w, float(t), "minimal")
        assert float(hi.y_at(0.0)) >= float(lo.y_at(0.0))
        if lo.path != hi.path:
            assert weighted_length(hi.path, w) == pytest.approx(
                weighted_length(lo.path, w), abs=1e-12)


def test_corelite_center_level_apex():
    w = make_weight("lite_dmd_heavy_core")
    c = level_curve(w, 1.0, "minimal")
    arr = c.path.as_array()
    top = arr[np.argmax(arr[:, 1])]
    assert top[0] == pytest.approx(0.0, abs=1e-6)
    assert top[1] == pytest.approx(0.1494140625, abs=2e-3)


def test_curves_are_deterministic():
    w = make_weight("three_heavy_diamonds", 2.0)
    a = level_curve(w, 1.05, "minimal").path.as_array()
    b = level_curve(w, 1.05, "minimal").path.as_array()
    assert np.array_equal(a, b)


def test_unknown_branch_rejected():
    with pytest.raises(ValueError):
        level_curve(make_weight("constant"), 1.0, "median")


@pytest.mark.parametrize("name,alpha", RADIAL)
def test_refiner_matches_reference_bisection(monkeypatch, name, alpha):
    # every apex and band root is refined both ways; the level curves are
    # then rebuilt on the reference roots and priced against today's
    w = make_weight(name, alpha)
    pairs = []

    def reference(f, lo, hi, flo, fhi):
        ref = _reference_root(f, lo, hi, flo)
        pairs.append((_refine(f, lo, hi, flo, fhi), ref, hi - lo))
        return ref

    for t in midpoint_levels(41):
        for branch in BRANCHES:
            new = level_curve(w, float(t), branch)
            with monkeypatch.context() as m:
                m.setattr(curves, "_refine", reference)
                old = level_curve(w, float(t), branch)
            old_len = weighted_length(old.path, w)
            assert weighted_length(new.path, w) == pytest.approx(
                old_len, rel=1e-12, abs=0.0), (t, branch)
    # apex brackets are one 1,024-point grid cell wide, band brackets wider
    assert any(width < 1e-3 for *_, width in pairs)
    assert any(width > 1e-2 for *_, width in pairs)
    for got, ref, _ in pairs:
        assert abs(got - ref) <= 1e-13


def test_refiner_without_a_sign_change_returns_the_collapse_end():
    # bisection keeps moving lo up when both ends share a sign, so it
    # collapses onto hi; the refiner returns hi at once, without a call
    def never(x):
        raise AssertionError("no evaluation expected")

    for flo, fhi in ((1.0, 2.0), (-1.0, -0.5), (0.0, -3.0)):
        assert _refine(never, 0.25, 0.75, flo, fhi) == 0.75
        ref = _reference_root(lambda x: flo + (fhi - flo) * (x - 0.25) / 0.5,
                              0.25, 0.75, flo)
        assert abs(ref - 0.75) <= 1e-13


@pytest.mark.parametrize("name,alpha", RADIAL)
def test_radial_stack_sweep_count(monkeypatch, name, alpha):
    # a warm 21-level stack made about 960 quadrant sweeps with 45-step
    # bisection and makes about 150 with the refiner; the root searches
    # read only exits, and only drawn curves build their paths
    w = make_weight(name, alpha)
    stack(w, midpoint_levels(21))
    calls = []
    depart = curves._depart

    def counted(w, start, exits=False):
        calls.append("exit" if exits else "path")
        return depart(w, start, exits)

    monkeypatch.setattr(curves, "_depart", counted)
    stack(w, midpoint_levels(21))
    assert 0 < calls.count("path") < calls.count("exit")
    assert len(calls) <= 300


def _apex_bounds(w):
    _, _, lo, hi = _SWEEP_BOUNDS[w.name]
    if w.name == "lite_dmd_heavy_core":
        lo += _core_geometry(w)[1]
    return lo, hi


@pytest.mark.parametrize("name,alpha", RADIAL)
def test_levels_between_the_sweep_families_cost_between_their_ends(name,
                                                                   alpha):
    # band curves exit up to band_top, apex curves down to the lowest
    # tabled exit; across the gap between the two (8.8e-5 wide on the
    # core) the cost runs from one family end to the other, where the
    # chord would cost 2.39% more on the core
    w = make_weight(name, alpha)
    c_lo, c_hi, _, _ = _SWEEP_BOUNDS[name]
    if name == "lite_dmd_heavy_core":
        c_lo += _core_geometry(w)[0]
    band_top = _band_ends(w, c_lo + 1e-12, c_hi)[0]
    lowest = _apex_grid(w, *_apex_bounds(w))[1].min()
    for sign, branch in itertools.product((1.0, -1.0), BRANCHES):
        top, mid, low = (weighted_length(level_curve(
            w, 1.0 + sign * h, branch).path, w)
            for h in (band_top, 0.5 * (band_top + lowest), lowest))
        assert mid == pytest.approx(0.5 * (top + low), rel=1e-6,
                                    abs=0.0), (sign, branch)


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name,alpha", RADIAL)
def test_apex_table_matches_one_departure_per_start_bit_for_bit(name, alpha):
    w = make_weight(name, alpha)
    y0s, exits = _apex_grid(w, *_apex_bounds(w))
    ref = np.array([_depart(w, (0.0, y0))[-1, 1] for y0 in y0s])
    assert exits.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name,alpha", STACKABLE)
def test_sweep_tables_hold_all_that_the_level_curves_read(name, alpha):
    w = make_weight(name, alpha)
    tables = (_apex_grid, _band_ends, _core_geometry)
    for table in tables:
        table.cache_clear()
    got = curves.sweep_tables(w)
    built = [table.cache_info() for table in tables]
    if name not in _SWEEP_BOUNDS:
        assert got is None and all(info.currsize == 0 for info in built)
        return
    band, (band_top, band_end), (y0s, exits) = got
    assert (band_top, band_end) == _band_ends(w, *band)
    assert _same(exits, _apex_grid(w, *_apex_bounds(w))[1])
    for t in (0.3, 0.99, 1.0, 1.4):
        for branch in BRANCHES:
            level_curve(w, t, branch)
    assert [table.cache_info().misses for table in tables] == [
        info.misses for info in built]


def test_apex_table_raises_on_total_internal_reflection():
    # near the core's center the horizontal kappa exceeds the ring's weight
    w = make_weight("lite_dmd_heavy_core")
    with pytest.raises(ValueError, match="total internal reflection"):
        _depart(w, (0.0, 0.05))
    with pytest.raises(ValueError, match="total internal reflection"):
        _apex_grid.__wrapped__(w, 0.05, 0.7)


def test_cold_apex_table_stays_small():
    # one start at a time, with no 1024 x 4096 array of 32 MB per
    # temporary: freeing large blocks moved the allocator state that
    # perfbench's speed probe times with its 800 KB arrays, and so every
    # probe-scaled metric
    for name, alpha in RADIAL:
        w = make_weight(name, alpha)
        bounds = _apex_bounds(w)
        tracemalloc.start()
        try:
            _apex_grid.__wrapped__(w, *bounds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * 2 ** 17, name


# The tight profile alpha + (1 - alpha) r at slopes 1 - alpha down to its
# flat alpha -> 1 limit, which light_diamond_tight itself rejects.
NEAR_FLAT = [light_diamond_tight(1.0 - slope).pieces[0] for slope in
             (0.5, 1e-3, 1e-6, 1e-9, 1e-12, 1e-15)] + [
                 ProfilePiece(0.0, 1.0, 1.0, 0.0)]


@pytest.mark.parametrize("piece", NEAR_FLAT, ids=lambda p: f"{p.slope:.0e}")
def test_drift_matches_quadrature_on_nearly_flat_pieces(piece):
    # the integral of kappa / sqrt(w^2 - kappa^2) by 32-point Gauss-Legendre;
    # (kappa / slope) ln((w1 + s1) / (w0 + s0)) cancels to 1e-8 relative at
    # slope 1e-9 and divides by zero at slope 0
    x, wts = np.polynomial.legendre.leggauss(32)
    for r0 in (0.1, 0.5, 0.9):
        kappa = (piece.offset + piece.slope * r0) / math.sqrt(2.0)
        r = r0 + 0.5 * (1.0 - r0) * (1.0 + x)
        w = piece.offset + piece.slope * r
        ref = 0.5 * (1.0 - r0) * float(wts @ (kappa / np.sqrt(w * w - kappa
                                                              * kappa)))
        w0, w1 = piece.offset + piece.slope * np.array([r0, 1.0])
        got = curves._drift(w0, piece.slope, 1.0 - r0, kappa)
        assert abs(got - ref) <= 1e-14 * ref, r0
        # inward the drift is negative, in arrays as in floats
        back = curves._drift(w1, piece.slope, np.array([r0 - 1.0]), kappa, np)
        assert abs(back[0] + ref) <= 1e-14 * ref, r0


@pytest.mark.parametrize("t0", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_band_departure_gains_the_glide_height(t0):
    # H_of is an independent 16-point quadrature of the same glide: the
    # height a horizontal departure from (t0, 0) gains by l1 radius 1
    w = light_diamond_tight(0.5)
    x, y = _depart(w, (t0, 0.0))[-2]  # the last vertex before the rim leg
    assert x + y == pytest.approx(1.0, abs=1e-15)
    assert abs(y - H_of(t0)) <= 1e-15


@pytest.mark.parametrize("name,alpha,gap", [
    ("light_diamond", 0.5, 1e-8), ("light_diamond_tight", 0.5, 1e-8),
    # the core's apex sweeps turn by about 1.2 rad, four times the tight
    # weight's, and leave 8.2e-8 at this vertex count
    ("lite_dmd_heavy_core", None, 1e-7)])
def test_drawn_sweeps_cost_little_more_than_denser_ones(monkeypatch, name,
                                                        alpha, gap):
    # each drawn curve against the same closed form sampled 8x denser, with
    # at most 1,024 vertices in each sweep and in the core's inner arc
    w = make_weight(name, alpha)
    depart, sizes = curves._depart, []

    def counted(w, start, exits=False):
        pts = depart(w, start, exits)
        sizes.append(0 if exits else len(pts))
        return pts

    monkeypatch.setattr(curves, "_depart", counted)

    def costs():
        _core_geometry.cache_clear()
        return [weighted_length(level_curve(w, float(t), branch).path, w)
                for t in midpoint_levels(41) for branch in BRANCHES]

    drawn = costs()
    arc = _core_geometry(w)[2] if name == "lite_dmd_heavy_core" else ()
    assert 0 < max(sizes) <= 1024 and len(arc) <= 1024
    monkeypatch.setattr(curves, "_SWEEP_SAMPLES", 8 * curves._SWEEP_SAMPLES)
    dense = costs()
    _core_geometry.cache_clear()
    assert all(a <= b * (1.0 + gap) for a, b in zip(drawn, dense))
