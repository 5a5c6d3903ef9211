"""Level-curve construction for the catalog weights."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lglab import curves
from lglab.curves import (BRANCHES, LevelCurve, _apex_grid, _band_ends,
                          _core_geometry, _depart, _heavy_obstacle_options,
                          _pick, _refine, _SWEEP_BOUNDS,
                          _three_diamond_options, boundary_points,
                          level_curve)
from lglab.paths import Polyline, weighted_length
from lglab.stacker import midpoint_levels, stack
from lglab.weights import (STACKABLE, ProfilePiece, RadialWeight,
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
                continue  # the detours _heavy_obstacle_options proposes
            arr = curves._diamond_detour(alpha, h, xb, sign).as_array()
            s = sign * arr[1, 1] if len(arr) == 4 else 0.5
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
            options = _heavy_obstacle_options(w, h, xb)
            for cost, path in options:
                assert cost == pytest.approx(weighted_length(path, w),
                                             abs=1e-12)
            if name == "heavy_diamond":
                # the chord crosses the l1 ball over |x| < 1/2 - |h|
                m = max(0.0, 0.5 - abs(h))
                assert options[0][0] == pytest.approx(
                    2.0 * (xb - m) + 2.0 * alpha * m, abs=1e-12)


# Frozen copies of the two route filters that ran before _pick: a
# three-diamond detour costing more than its Euclidean length was skipped,
# and a heavy-diamond detour away from h was withheld once |h| > xb - 1/2.
def _three_diamond_filter(options, h, xb):
    out = []
    for cost, path in options:
        steps = np.diff(path.as_array(), axis=0)
        if len(steps) > 1 and cost > np.hypot(*steps.T).sum() + 1e-9:
            continue
        out.append((cost, path))
    return out


def _heavy_diamond_filter(options, h, xb):
    options = list(options)
    if len(options) == 3 and abs(h) > xb - 0.5:
        del options[2 if h > 0.0 else 1]  # detours come as (above, below)
    return options


@pytest.mark.parametrize("name,alphas,options,old_filter", [
    ("three_heavy_diamonds", (math.sqrt(2.0), 2.0, 5.0),
     _three_diamond_options, _three_diamond_filter),
    ("heavy_diamond", (1.05, 1.3, 2.0, 5.0), _heavy_obstacle_options,
     _heavy_diamond_filter),
], ids=["three_heavy_diamonds", "heavy_diamond"])
def test_pick_rejects_every_route_the_old_filters_dropped(name, alphas,
                                                          options,
                                                          old_filter):
    dropped = 0
    for alpha in alphas:
        w = make_weight(name, alpha)
        for t in midpoint_levels(401):
            _, (xb, h) = boundary_points(float(t))
            every = options(w, h, xb)
            kept = old_filter(every, h, xb)
            dropped += len(every) - len(kept)
            for branch in BRANCHES:
                assert _pick(every, branch) == _pick(kept, branch), (alpha, t)
    assert dropped > 0


def test_three_diamond_routes_are_distinct():
    w = make_weight("three_heavy_diamonds", 2.0)
    for t in (0.75, 1.125, 1.375, *midpoint_levels(41)):
        _, (xb, h) = boundary_points(float(t))
        xs = np.linspace(-xb, xb, 101)
        profiles = [np.interp(xs, *path.as_array().T)
                    for _, path in _three_diamond_options(w, h, xb)]
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
    # bisection and makes about 150 with the refiner
    w = make_weight(name, alpha)
    stack(w, midpoint_levels(21))
    calls = []
    climb = curves._climb

    def counting(*args, **kwargs):
        calls.append(args)
        return climb(*args, **kwargs)

    monkeypatch.setattr(curves, "_climb", counting)
    stack(w, midpoint_levels(21))
    assert 0 < len(calls) <= 300


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


@pytest.mark.parametrize("name,alpha", RADIAL)
def test_apex_table_matches_one_departure_per_start_bit_for_bit(name, alpha):
    w = make_weight(name, alpha)
    y0s, exits = _apex_grid(w, *_apex_bounds(w))
    ref = np.array([_depart(w, (0.0, y0))[-1, 1] for y0 in y0s])
    assert exits.tobytes() == ref.tobytes()


def test_apex_table_ignores_the_shells_inside_each_start(monkeypatch):
    # one block holds starts in the light core and high on its ramp, where
    # the core's shell would reflect the ramp start's horizontal kappa
    w = make_weight("light_diamond", 0.5)
    monkeypatch.setattr(curves, "_APEX_STARTS", 7)
    y0s, exits = _apex_grid.__wrapped__(w, 0.49, 0.549)
    ref = np.array([_depart(w, (0.0, y0))[-1, 1] for y0 in y0s])
    assert exits.tobytes() == ref.tobytes()


def test_apex_table_raises_on_total_internal_reflection():
    # near the core's center the horizontal kappa exceeds the ring's weight
    w = make_weight("lite_dmd_heavy_core")
    with pytest.raises(ValueError, match="total internal reflection"):
        _depart(w, (0.0, 0.05))
    with pytest.raises(ValueError, match="total internal reflection"):
        _apex_grid.__wrapped__(w, 0.05, 0.7)


def test_cold_apex_table_stays_small():
    # (starts x shells) blocks of about 2**15 elements, not one 1024 x 4096
    # array of 32 MB per temporary
    w = make_weight("light_diamond", 0.5)
    tracemalloc.start()
    try:
        w.shell_grid.__wrapped__(w, curves.SWEEP_SHELLS)
        _apex_grid.__wrapped__(w, *_apex_bounds(w))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


# ----------------------------------------------- frozen shell-step sweeps ----
# _reference_climb and _reference_glide are the outward and inward sweeps as
# they were written before the one shell-run kernel; every sweep must still
# match them bit for bit.

def _reference_climb(w, start, kappa, n_shells):
    r, wk = w.shell_grid(n_shells)
    rho0 = start[0] + start[1]
    k0 = int(np.searchsorted(r, rho0 + 1e-13, side="right")) - 1
    radii = np.concatenate([[rho0], r[k0 + 1:]])
    weights = wk[k0:-1]
    s = kappa / weights
    if np.any(s >= 1.0 - 1e-13):
        raise ValueError("sweep hit total internal reflection")
    tan = s / np.sqrt(1.0 - s * s)
    dr = np.diff(radii)
    dx = 0.5 * dr * (1.0 + tan)
    dy = 0.5 * dr * (1.0 - tan)
    xs = start[0] + np.concatenate([[0.0], np.cumsum(dx)])
    ys = start[1] + np.concatenate([[0.0], np.cumsum(dy)])
    pts = np.column_stack([xs, ys])
    return np.vstack([pts, curves._rim_step(pts[-1], kappa, w)])


def _reference_glide(w, a, n_shells):
    r, wk = w.shell_grid(n_shells)
    k0 = int(np.searchsorted(r, a - 1e-13, side="left")) - 1
    radii = np.concatenate([[a], r[k0::-1] if k0 >= 0 else []])
    weights = wk[k0::-1] if k0 >= 0 else np.array([])
    kappa = weights[0] / math.sqrt(2.0)
    s = kappa / weights
    tir = s >= 1.0 - 1e-13
    s = np.clip(s, 0.0, 1.0 - 1e-13)
    tan = s / np.sqrt(1.0 - s * s)
    dr = -np.diff(radii)
    dx = -0.5 * dr * (1.0 + tan)
    dy = 0.5 * dr * (tan - 1.0)
    xs = a + np.concatenate([[0.0], np.cumsum(dx)])
    ys = np.concatenate([[0.0], np.cumsum(dy)])
    n = len(xs)
    i_tir = int(np.argmax(tir)) + 1 if bool(np.any(tir)) else n
    hit_x = xs <= 0.0
    i_x = int(np.argmax(hit_x)) if bool(np.any(hit_x)) else n
    sag = ys < -1e-15
    i_sag = int(np.argmax(sag)) if bool(np.any(sag)) else n
    i = min(i_tir, i_x, i_sag)
    if i == n or (i == i_tir and i < min(i_x, i_sag)):
        return "tir", None, np.column_stack([xs[:i], ys[:i]])
    if i == i_sag and i_sag < i_x:
        return "sag", None, np.column_stack([xs[:i], ys[:i]])
    f = xs[i - 1] / (xs[i - 1] - xs[i])
    yc = ys[i - 1] + f * (ys[i] - ys[i - 1])
    pts = np.vstack([np.column_stack([xs[:i], ys[:i]]), [0.0, yc]])
    return "ycross", float(yc), pts


def _reference_depart(w, start, n_shells):
    rho = start[0] + start[1]
    kappa = float(w.profile(np.array([rho]))[0]) / math.sqrt(2.0)
    return _reference_climb(w, start, kappa, n_shells)


def _sweep_radii(r, rng, k=12):
    """Seeded radii in (0, 1): random ones, shell radii themselves and
    radii within 1e-13 of a shell radius, on both sides."""
    grid = [float(x) for x in r[1:] if 0.0 < x < 1.0]
    picks = [grid[int(i)] for i in rng.integers(0, len(grid), k)]
    return (list(rng.uniform(0.02, 0.98, k)) + picks
            + [x + d for x in picks for d in (-1e-13, -5e-14, 5e-14, 1e-13)])


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_shells", [4096, 1024, 128])
@pytest.mark.parametrize("name,alpha", RADIAL)
def test_departures_match_the_frozen_sweep_bit_for_bit(monkeypatch, name,
                                                      alpha, n_shells):
    # _depart caches nothing, so the patched shell count stays in this test
    monkeypatch.setattr(curves, "SWEEP_SHELLS", n_shells)
    w = make_weight(name, alpha)
    r, _ = w.shell_grid(n_shells)
    rng = np.random.default_rng(n_shells)
    outcomes = set()
    for rho in _sweep_radii(r, rng):
        for start in ((0.0, rho), (rho, 0.0), (0.3 * rho, 0.7 * rho)):
            try:
                ref = _reference_depart(w, start, n_shells)
            except ValueError as err:
                with pytest.raises(ValueError, match=str(err)):
                    curves._depart(w, start)
                outcomes.add("tir")
                continue
            assert _same(curves._depart(w, start), ref), start
            outcomes.add("exit")
    assert "exit" in outcomes


@pytest.mark.parametrize("name,alpha", RADIAL)
def test_block_departures_repeat_each_start_then_match_its_own(monkeypatch,
                                                              name, alpha):
    w = make_weight(name, alpha)
    n_shells = 1024
    monkeypatch.setattr(curves, "SWEEP_SHELLS", n_shells)
    rng = np.random.default_rng(3)
    ys = np.sort(rng.uniform(0.2, 0.9, 5))
    starts = np.column_stack([np.zeros_like(ys), ys])
    block = curves._depart(w, starts)
    for row, y0 in zip(block, ys):
        own = _reference_depart(w, (0.0, y0), n_shells)
        lead = len(row) - len(own)
        assert lead >= 0
        assert np.all(row[:lead + 1] == (0.0, y0))
        assert _same(row[lead:], own)


def _thin_light_shell():
    """Weight 1 with a 1e-9 wide shell of weight 0.1 at l1 radius 0.3: an
    inward glide reflects there after a clipped step too short to reach
    the y-axis."""
    return RadialWeight("thin_light_shell", "l1", (
        ProfilePiece(0.0, 0.3, 1.0, 0.0),
        ProfilePiece(0.3, 0.3 + 1e-9, 0.1, 0.0),
        ProfilePiece(0.3 + 1e-9, math.inf, 1.0, 0.0),
    ))


@pytest.mark.parametrize("n_shells", [4096, 1024, 128])
@pytest.mark.parametrize("name,alpha", [*RADIAL, ("thin_light_shell", None)])
def test_glides_match_the_frozen_sweep_bit_for_bit(monkeypatch, name, alpha,
                                                  n_shells):
    # _glide_in caches nothing, so the patched shell count stays in this test
    monkeypatch.setattr(curves, "SWEEP_SHELLS", n_shells)
    w = _thin_light_shell() if name == "thin_light_shell" \
        else make_weight(name, alpha)
    r, _ = w.shell_grid(n_shells)
    rng = np.random.default_rng(7 * n_shells)
    events = set()
    for a in [0.6, 0.95] + _sweep_radii(r, rng):
        ref = _reference_glide(w, a, n_shells)
        got = curves._glide_in(w, a)
        assert got[:2] == ref[:2], a
        assert _same(got[2], ref[2]), a
        events.add(ref[0])
    expected = {"lite_dmd_heavy_core": {"ycross", "sag"},
                "thin_light_shell": {"tir"}}.get(name, {"ycross"})
    assert expected <= events
