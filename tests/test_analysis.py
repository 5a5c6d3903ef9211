"""Experiment drivers: thresholds, clearance, submodularity, reports."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq, minimize_scalar

from lglab import analysis
from lglab.analysis import (ExperimentReport, Quantity, SUITES,
                            _edge_costs, _interval_pairs, _mask_perimeter,
                            _rect_masks, _rect_pair_terms, _rect_tables,
                            curvature_clearance, disagreement_area,
                            nonuniqueness_gap,
                            rectangle_submodularity_exhaustive, run_suite,
                            submodularity_check, three_diamonds_thresholds)
from lglab.stacker import ALL_MAXIMAL, ALL_MINIMAL, midpoint_levels, stack
from lglab.weights import (RadialWeight, constant, heavy_diamond, heavy_disk,
                           light_diamond, light_diamond_tight,
                           lite_dmd_heavy_core, make_weight,
                           three_heavy_diamonds)


def test_quantity_pass_logic():
    assert Quantity("x", 1.0005, 1.0, 1e-3).passed
    assert not Quantity("x", 1.002, 1.0, 1e-3).passed
    # the bar is absolute whatever the size of the target
    assert Quantity("x", 100.5, 100.0, 0.5).passed
    assert not Quantity("x", 109.0, 100.0, 0.1).passed


def test_report_lines_and_recomputed_flags():
    rep = ExperimentReport("demo", (
        Quantity("good", 0.5, 0.5, 1e-9),
        Quantity("bad", 2.0, 1.0, 1e-3),
    ))
    lines = list(rep.lines())
    assert lines[0].startswith("[PASS] demo: good =")
    assert lines[1].startswith("[FAIL] demo: bad =")
    assert not rep.passed
    for q in rep.quantities:
        assert q.passed == (abs(q.value - q.expected) <= q.tolerance)


def test_three_diamond_thresholds_frozen():
    t0, t1 = three_diamonds_thresholds()
    assert t0 == pytest.approx(1.0172069798831742, abs=1e-9)
    assert t1 == pytest.approx(1.1270251402005327, abs=1e-6)
    assert 0.75 < t0 < t1 < 1.375
    # closed form for the upper tie: the two-segment route grazes the
    # small diamond tip where 68 x^2 - 12 x - 55 = 0
    x_star = (12.0 + math.sqrt(15104.0)) / 136.0
    assert t1 == pytest.approx(1.375 - x_star / 4.0, abs=1e-6)


def test_thresholds_do_not_depend_on_the_slowness():
    base = three_diamonds_thresholds()
    for alpha in (2.0, 5.0):
        t0, t1 = three_diamonds_thresholds(alpha)
        assert t0 == pytest.approx(base[0], abs=1e-8)
        assert t1 == pytest.approx(base[1], abs=1e-6)


@pytest.mark.parametrize("alpha", [math.sqrt(2.0), 2.0, 5.0])
def test_thresholds_match_brentq(alpha, monkeypatch):
    got = three_diamonds_thresholds(alpha)
    monkeypatch.setattr(analysis, "_refine", lambda f, lo, hi, flo, fhi:
                        brentq(f, lo, hi, xtol=1e-10))
    ref = three_diamonds_thresholds(alpha)
    assert got[0] == pytest.approx(ref[0], abs=1e-10)
    assert got[1] == pytest.approx(ref[1], abs=1e-6)


def test_thresholds_without_a_sign_change_raise(monkeypatch):
    # every route then costs its vertex count, so no pair of routes ties
    monkeypatch.setattr(analysis, "weighted_length",
                        lambda path, w: float(len(path.vertices)))
    with pytest.raises(ValueError, match="no route-equality root"):
        three_diamonds_thresholds()


def test_snell_reference_matches_scipy_golden_section():
    ref = minimize_scalar(
        lambda x: math.hypot(x + 0.5, 0.5) + 2.0 * math.hypot(0.5 - x, 0.5),
        bracket=(-0.5, 0.4, 0.5), method="golden", options={"xtol": 1e-12})
    q, = (q for q in run_suite("snell").quantities
          if q.label == "two-layer kink vs exact minimum")
    assert q.expected == pytest.approx(float(ref.fun), abs=1e-12)


def test_clearance_constant_quadratic():
    w = make_weight("constant")
    for r in (0.1, 0.25, 0.4):
        got = curvature_clearance(w, (0.0, -1.0), r)
        assert got == pytest.approx(r * r / 2.0, abs=1e-6)
    # frozen clearances to the chord itself, off and on a pole
    w = make_weight("constant", 1.5)
    assert curvature_clearance(w, (0.6, 0.8), 0.35) == 0.061249999999999916
    assert curvature_clearance(w, (0.0, 1.0), 0.2) == 0.020000000000000018


@settings(max_examples=25, deadline=None)
@given(phi=st.floats(0.0, 2.0 * math.pi), r1=st.floats(0.05, 0.45),
       dr=st.floats(0.01, 0.3))
def test_clearance_monotone_in_radius(phi, r1, dr):
    w = make_weight("constant")
    z = (math.cos(phi), math.sin(phi))
    a = curvature_clearance(w, z, r1)
    b = curvature_clearance(w, z, r1 + dr)
    assert b >= a - 1e-12


def test_shot_clearance_matches_the_chord_off_the_poles():
    # near the rim the heavy disk's chord stays in the unit-weight ring, so
    # the shot branch must find the chord and its clearance r^2/2
    w = make_weight("heavy_disk", 2.0)
    for phi in (0.3, math.pi / 4, 2.0, 3.5, 5.2):
        for r in (0.1, 0.3, 0.6):
            got = curvature_clearance(w, (math.cos(phi), math.sin(phi)), r)
            assert got == pytest.approx(r * r / 2.0, abs=1e-9)


@pytest.mark.parametrize("w", [heavy_diamond(2.0), heavy_disk(2.0)],
                         ids=lambda w: w.name)
def test_pole_clearance_of_a_weight_with_no_level_curve_is_shot(w):
    # a renamed twin has no level-curve construction, so at a pole it takes
    # the shot branch, which must find the catalog weight's level curve
    twin = RadialWeight("twin", w.norm, w.pieces)
    for z in ((0.0, 1.0), (0.0, -1.0)):
        for r in (0.2, 0.6):
            assert curvature_clearance(twin, z, r) == pytest.approx(
                curvature_clearance(w, z, r), abs=1e-12)


@pytest.mark.parametrize("z", [(0.0, -1.0), (1.0, 0.0),
                               (math.sqrt(0.5), math.sqrt(0.5))])
def test_grid_clearance_of_a_uniform_custom_weight(z):
    # a custom weight goes to the res-256 grid oracle; where the chord runs
    # along a stencil direction the grid path stays within two cells of it
    w = make_weight("custom_piecewise", pieces=(), default=1.0)
    for r in (0.2, 0.4):
        got = curvature_clearance(w, z, r)
        assert got == pytest.approx(r * r / 2.0, abs=2.0 / 256)


def test_clearance_validates_the_center():
    with pytest.raises(ValueError):
        curvature_clearance(make_weight("constant"), (0.5, 0.5), 0.2)
    with pytest.raises(ValueError, match="unit circle"):
        curvature_clearance(make_weight("constant"), (math.nan, 0.0), 0.2)


@pytest.mark.parametrize("r", [0.0, 1.0])
def test_clearance_validates_the_radius(r):
    with pytest.raises(ValueError, match="r must lie"):
        curvature_clearance(make_weight("constant"), (1.0, 0.0), r)


@pytest.mark.parametrize("res, trials, message", [
    (63, 1, "res must be"), (64, 0, "trials must be")],
    ids=["res", "trials"])
def test_submodularity_check_validates_its_sizes(res, trials, message):
    with pytest.raises(ValueError, match=message):
        submodularity_check(res=res, trials=trials)


def test_submodularity_random_pairs():
    assert submodularity_check(res=128, trials=60, seed=3) == 60


def _reference_ball_union(X, Y, rng) -> np.ndarray:
    """The full-grid rasterization the bounding-box one replaced."""
    mask = np.zeros(X.shape, dtype=bool)
    for _ in range(int(rng.integers(1, 5))):
        cx, cy = rng.uniform(-0.7, 0.7, 2)
        rad = float(rng.uniform(0.1, 0.5))
        if rng.random() < 0.5:
            mask |= np.abs(X - cx) + np.abs(Y - cy) < rad
        else:
            mask |= (X - cx) ** 2 + (Y - cy) ** 2 < rad * rad
    return mask


def _reference_mask_perimeter(mask, ch, cv):
    """The full-grid product-and-sum perimeter the masked sum replaced."""
    m = np.zeros(np.add(mask.shape, [2, 2]), bool)
    m[1:-1, 1:-1] = mask
    bh = m[1:-1, 1:] != m[1:-1, :-1]
    bv = m[1:, 1:-1] != m[:-1, 1:-1]
    return (ch * bh).sum() + (cv * bv).sum()


class _OneBall:
    """Generator stand-in whose draws make one ball of a chosen shape."""

    def __init__(self, cx, cy, rad, l1):
        self.centre, self.rad, self.l1 = np.array([cx, cy]), rad, l1

    def integers(self, low, high):
        return 1

    def uniform(self, low, high, size=None):
        return self.rad if size is None else self.centre

    def random(self):
        return 0.25 if self.l1 else 0.75


_offset = st.floats(-1.3, 1.3, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(res=st.integers(64, 300), cx=_offset, cy=_offset,
       rad=st.floats(1e-3, 1.5), l1=st.booleans())
@example(res=64, cx=0.0, cy=0.0, rad=1e-3, l1=False)  # covers no centre
@example(res=64, cx=0.0, cy=0.0, rad=1.5, l1=False)  # reaches every edge
@example(res=64, cx=1.3, cy=-1.3, rad=1.5, l1=True)
# a centre on c[1] at res 64 and a radius of 2h: some cells tie with the bar
@example(res=64, cx=-0.953125, cy=-0.953125, rad=0.0625, l1=True)
@example(res=64, cx=-0.953125, cy=-0.953125, rad=0.0625, l1=False)
def test_box_rasterization_matches_the_full_grid(res, cx, cy, rad, l1):
    c = analysis._cell_centers(res)
    X, Y = np.meshgrid(c, c)
    assert np.array_equal(
        analysis._ball_union(c, _OneBall(cx, cy, rad, l1)),
        _reference_ball_union(X, Y, _OneBall(cx, cy, rad, l1)))


_CATALOG_TRIALS = 14  # each of the check's seven weights twice


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 5001, 5002, 5003, 5004])
@pytest.mark.parametrize("res", [128, 256])
def test_submodularity_check_matches_the_full_grid_loop(res, seed,
                                                       monkeypatch):
    balls, perimeters = [], []

    def ball_union(c, rng, real=analysis._ball_union):
        balls.append(real(c, rng))
        return balls[-1]

    def mask_perimeter(mask, ch, cv, real=analysis._mask_perimeter):
        perimeters.append(real(mask, ch, cv))
        return perimeters[-1]

    monkeypatch.setattr(analysis, "_ball_union", ball_union)
    monkeypatch.setattr(analysis, "_mask_perimeter", mask_perimeter)
    passed = submodularity_check(res=res, trials=_CATALOG_TRIALS, seed=seed)

    weights = (constant(1.0), heavy_diamond(2.0), heavy_disk(2.0),
               light_diamond(0.5), light_diamond_tight(0.5),
               lite_dmd_heavy_core(), three_heavy_diamonds(2.0))
    costs = [_edge_costs(w, res) for w in weights]
    c = analysis._cell_centers(res)
    X, Y = np.meshgrid(c, c)
    rng = np.random.default_rng(seed)
    expected = 0
    for k in range(_CATALOG_TRIALS):
        ch, cv = costs[k % len(costs)]
        a = _reference_ball_union(X, Y, rng)
        b = _reference_ball_union(X, Y, rng)
        assert np.array_equal(balls[2 * k], a)
        assert np.array_equal(balls[2 * k + 1], b)
        p = [_reference_mask_perimeter(m, ch, cv)
             for m in (a | b, a & b, a, b)]
        assert np.allclose(perimeters[k], p, rtol=1e-12, atol=0.0)
        expected += p[0] + p[1] <= p[2] + p[3] + 1e-9
    assert passed == expected


def test_rectangle_submodularity_exhaustive_small():
    rep = rectangle_submodularity_exhaustive(res=8, spot_checks=50)
    assert rep.passed
    labels = [q.label for q in rep.quantities]
    assert any("violating" in s for s in labels)


@pytest.mark.parametrize("res, seed, worst", [
    (8, 0, 0.0),
    (10, 0, 4.440892098500626e-15),
    (10, 1, 4.440892098500626e-15),
])
def test_rectangle_submodularity_outputs_pinned(res, seed, worst):
    # values of the per-row loop this sweep replaced, bit for bit
    q = {q.label: q for q in
         rectangle_submodularity_exhaustive(res=res, seed=seed).quantities}
    assert q["pairs violating the perimeter inequality"].value == 0.0
    assert q["worst submodularity violation"].value == worst
    assert q["cut identity residual"].passed
    assert q["closed-form vs raster mismatch"].value <= 1e-9


def _reference_deficits(w, res):
    """Per-pair loop over rectangles A <= B with the sweep's arithmetic."""
    ch, cv = _edge_costs(w, res)
    SH = np.pad(np.cumsum(ch.T, axis=1), ((0, 0), (1, 0)))
    SV = np.pad(np.cumsum(cv, axis=1), ((0, 0), (1, 0)))

    def side(S, line, c, d):
        return S[line, d + 1] - S[line, c] if c <= d else 0.0

    def two(S, l1, l2, c, d):
        return side(S, l1, c, d) + side(S, l2 + 1, c, d)

    def rect_p(x1, x2, y1, y2):
        return two(SH, x1, x2, y1, y2) + side(SV, y1, x1, x2) \
            + side(SV, y2 + 1, x1, x2)

    lo, hi = np.triu_indices(res)
    rects = [(lo[i], hi[i], lo[j], hi[j])
             for i in range(lo.size) for j in range(lo.size)]
    out = []
    for k, (ax1, ax2, ay1, ay2) in enumerate(rects):
        for bx1, bx2, by1, by2 in rects[k:]:
            sx1, sx2 = max(ax1, bx1), min(ax2, bx2)
            sy1, sy2 = max(ay1, by1), min(ay2, by2)
            ra, rb = two(SH, ax1, ax2, sy1, sy2), two(SH, bx1, bx2, sy1, sy2)
            ca, cb = two(SV, ay1, ay2, sx1, sx2), two(SV, by1, by2, sx1, sx2)
            ch_part = (two(SH, ax1, ax2, ay1, ay2) - ra
                       + two(SH, bx1, bx2, by1, by2) - rb
                       + (two(SH, min(ax1, bx1), max(ax2, bx2), sy1, sy2)
                          if sx1 <= sx2 + 1 else ra + rb))
            cv_part = (two(SV, ay1, ay2, ax1, ax2) - ca
                       + two(SV, by1, by2, bx1, bx2) - cb
                       + (two(SV, min(ay1, by1), max(ay2, by2), sx1, sx2)
                          if sy1 <= sy2 + 1 else ca + cb))
            p_inter = rect_p(sx1, sx2, sy1, sy2) \
                if sx1 <= sx2 and sy1 <= sy2 else 0.0
            out.append(rect_p(ax1, ax2, ay1, ay2) + rect_p(bx1, bx2, by1, by2)
                       - (ch_part + cv_part) - p_inter)
    return np.array(out)


@pytest.mark.parametrize("w", [heavy_diamond(2.0), three_heavy_diamonds(2.0)],
                         ids=["heavy_diamond", "three_heavy_diamonds"])
def test_rectangle_sweep_matches_reference_loop_bit_for_bit(w, monkeypatch):
    res = 5
    ref = _reference_deficits(w, res)
    ch, cv = _edge_costs(w, res)
    T = _rect_tables(ch, cv)
    k = T.lo.size
    i, j = np.triu_indices(k * k)  # A <= B in the loop's order
    (ax, ay), (bx, by) = np.divmod(i, k), np.divmod(j, k)
    pa, pb, p_union, p_inter, _ = _rect_pair_terms(
        T, _interval_pairs(T, ax, bx), _interval_pairs(T, ay, by),
        lambda table, x, y: table[x, y])
    assert np.array_equal(pa + pb - p_union - p_inter, ref)
    # the blocked sweep sees the same pairs, however it is cut up
    expected = (float(np.count_nonzero(ref < -1e-9)),
                max(0.0, -float(ref.min())))
    for block in (1, 97, analysis._BLOCK):
        monkeypatch.setattr(analysis, "_BLOCK", block)
        q = rectangle_submodularity_exhaustive(res=res, w=w,
                                               spot_checks=0).quantities
        assert (q[0].value, q[1].value) == expected


@pytest.mark.parametrize("kwargs", [{"res": 0}, {"res": 1},
                                    {"res": 4, "spot_checks": -1}])
def test_rectangle_submodularity_rejects_sizes_that_check_nothing(kwargs):
    with pytest.raises(ValueError):
        rectangle_submodularity_exhaustive(**kwargs)


@pytest.mark.parametrize("w", [heavy_diamond(2.0), three_heavy_diamonds(2.0)],
                         ids=["heavy_diamond", "three_heavy_diamonds"])
def test_rectangle_kernel_matches_raster_on_every_pair(w):
    res = 4
    ch, cv = _edge_costs(w, res)
    T = _rect_tables(ch, cv)
    k = T.lo.size
    i, j = np.divmod(np.arange(k ** 4), k * k)
    (ax, ay), (bx, by) = np.divmod(i, k), np.divmod(j, k)
    pa, pb, p_union, p_inter, cut = _rect_pair_terms(
        T, _interval_pairs(T, ax, bx), _interval_pairs(T, ay, by),
        lambda table, x, y: table[x, y])
    ma, mb = _rect_masks(T, ax, ay, res), _rect_masks(T, bx, by, res)
    assert np.abs(pa - _mask_perimeter(ma, ch, cv)).max() <= 1e-12
    assert np.abs(pb - _mask_perimeter(mb, ch, cv)).max() <= 1e-12
    assert np.abs(p_union - _mask_perimeter(ma | mb, ch, cv)).max() <= 1e-12
    assert np.abs(p_inter - _mask_perimeter(ma & mb, ch, cv)).max() <= 1e-12
    # the cut identity, with the joining edges counted on the raster
    a_only, b_only = ma & ~mb, mb & ~ma
    joined = (ch[:, 1:-1] * ((a_only[..., :-1] & b_only[..., 1:])
                             | (b_only[..., :-1] & a_only[..., 1:]))
              ).sum(axis=(-2, -1)) \
        + (cv[1:-1] * ((a_only[..., :-1, :] & b_only[..., 1:, :])
                       | (b_only[..., :-1, :] & a_only[..., 1:, :]))
           ).sum(axis=(-2, -1))
    assert np.abs(cut - joined).max() <= 1e-12
    assert np.abs(pa + pb - p_union - p_inter - 2.0 * cut).max() <= 1e-12
    assert np.count_nonzero(cut) > 0


def test_disagreement_area_zero_for_identical():
    w = make_weight("constant")
    s = stack(w, levels=midpoint_levels(33), res=64)
    assert disagreement_area(s, s) == 0.0


def test_disagreement_requires_matching_grids():
    w = make_weight("constant")
    a = stack(w, levels=midpoint_levels(33), res=64)
    b = stack(w, levels=midpoint_levels(33), res=96)
    with pytest.raises(ValueError):
        disagreement_area(a, b)


def test_nonuniqueness_gap_positive_for_corelite():
    w = make_weight("lite_dmd_heavy_core")
    gap = nonuniqueness_gap(w, ALL_MINIMAL, ALL_MAXIMAL, res=96,
                            levels=midpoint_levels(65))
    assert gap > 0.05


def test_nonuniqueness_gap_rejects_equal_policies():
    w = make_weight("constant")
    with pytest.raises(ValueError):
        nonuniqueness_gap(w, ALL_MINIMAL, ALL_MINIMAL, res=64)


def test_corelite_checks_pass():
    assert run_suite("corelite").passed


def test_thresholds_suite_passes():
    assert run_suite("thresholds").passed


def test_heavy_suites_forward_the_seed(monkeypatch):
    seeds = []

    def check(res, trials, seed):
        seeds.append(seed)
        return trials

    def exhaustive(seed):
        seeds.append(seed)
        return ExperimentReport("rectangle_submodularity", ())

    monkeypatch.setattr(analysis, "submodularity_check", check)
    monkeypatch.setattr(analysis, "rectangle_submodularity_exhaustive",
                        exhaustive)
    assert run_suite("submodularity", seed=7).passed
    assert run_suite("rectangles", seed=8).name == "rectangle_submodularity"
    assert seeds == [7, 8]


def test_run_suite_names():
    assert set(SUITES) == {"snell", "thresholds", "submodularity",
                           "clearance", "corelite", "rectangles"}
    with pytest.raises(KeyError):
        run_suite("nonesuch")
