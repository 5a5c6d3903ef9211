"""Pancake stacking, field assembly, traces, and jump detection."""
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lglab.curves import LevelCurve, level_curve
from lglab.paths import Polyline, weighted_length
from lglab.snell import H_of
from lglab.stacker import (ALL_MAXIMAL, ALL_MINIMAL, GridField,
                           StackNestingError, SwitchPolicy, _check_nesting,
                           _disk_rows, _jump_touch_angles, bv_energy,
                           jump_set, local_oscillation, midpoint_levels,
                           stack, trace_error)
from lglab.weights import make_weight


def test_midpoint_levels():
    got = midpoint_levels(5)
    assert np.allclose(got, [0.2, 0.6, 1.0, 1.4, 1.8])
    full = midpoint_levels(401)
    assert len(full) == 401
    assert 0.0 < full[0] and full[-1] < 2.0
    assert np.allclose(full + full[::-1], 2.0)
    with pytest.raises(ValueError):
        midpoint_levels(0)


def test_stack_needs_a_usable_level_grid():
    w = make_weight("constant")
    with pytest.raises(ValueError):
        stack(w, levels=midpoint_levels(5), res=64)
    with pytest.raises(ValueError):
        stack(w, levels=np.linspace(0.0, 2.0, 21), res=64)


def test_switch_policy_branches():
    pol = SwitchPolicy(1.1)
    assert pol.branch_for(1.2) == "minimal"
    assert pol.branch_for(1.1) == "maximal"
    assert pol.branch_for(0.3) == "maximal"
    assert ALL_MINIMAL.branch_for(0.5) == "minimal"
    assert ALL_MAXIMAL.branch_for(1.9) == "maximal"


def test_grid_field_lookup():
    vals = np.arange(9.0).reshape(3, 3)
    f = GridField(1, vals)
    assert f.value_at(0.0, 0.0) == 4.0
    assert f.value_at(0.9, 0.9) == 8.0
    assert f.value_at(-0.9, 0.2) == 3.0
    # finite points off the grid square clamp to the nearest edge node
    assert f.value_at(5.0, -7.0) == 2.0
    assert f.value_at(np.array([-3.0, 0.1]), 1e300).tolist() == [6.0, 7.0]


@pytest.mark.parametrize("x,y", [(math.nan, 0.0), (0.0, math.inf),
                                 (-math.inf, math.nan)])
def test_grid_field_rejects_non_finite_points(x, y, stack_constant):
    f = GridField(1, np.arange(9.0).reshape(3, 3))
    # the suite turns warnings into errors, so a cast warning fails this
    with pytest.raises(ValueError, match="finite"):
        f.value_at(x, y)
    with pytest.raises(ValueError, match="finite"):
        f.value_at(np.array([0.0, x]), np.array([y, 0.0]))
    # local_oscillation picks its node by the same rule
    with pytest.raises(ValueError, match="finite"):
        local_oscillation(stack_constant, x, y)


def test_constant_stack_reproduces_affine_data():
    w = make_weight("constant")
    s = stack(w, levels=midpoint_levels(101), res=96)
    xs = s.field.coords
    X, Y = np.meshgrid(xs, xs)
    inside = X * X + Y * Y < 1.0
    err = np.abs(s.field.values - np.clip(Y + 1.0, 0.0, 2.0))
    assert err[inside].max() <= 2.0 / 101 + 1e-9
    assert err[~inside].max() == 0.0


def test_nesting_guard_trips_on_crossing_curves():
    flat = LevelCurve(0.8, "minimal",
                      Polyline(((-0.917, -0.4), (0.917, -0.4))))
    above = LevelCurve(1.2, "minimal",
                       Polyline(((-0.917, -0.45), (0.917, -0.45))))
    xs = np.linspace(-1.0, 1.0, 129)
    with pytest.raises(StackNestingError):
        _check_nesting([flat, above], xs, res=64)


def test_bv_energy_constant_is_pi(stack_constant):
    assert bv_energy(stack_constant) == pytest.approx(math.pi, abs=1e-3)


def test_bv_energy_stable_under_level_refinement():
    w = make_weight("heavy_diamond", 2.0)
    coarse = bv_energy(stack(w, levels=midpoint_levels(201), res=256))
    fine = bv_energy(stack(w, levels=midpoint_levels(401), res=256))
    assert abs(fine - coarse) <= 0.01 * max(fine, coarse)


def test_trace_error_constant(stack_constant):
    assert trace_error(stack_constant) <= 0.06


def test_trace_error_heavy_diamond(stack_heavy):
    assert trace_error(stack_heavy) <= 0.1


def test_trace_error_tight(stack_tight):
    # jump rays touch the rim at (+-1, 0); those probes are excluded
    assert trace_error(stack_tight) <= 0.1


def _reference_trace_error(s):
    """trace_error as a loop over the probes, one window slice each."""
    r, res, u, xs = 0.05, s.field.res, s.field.values, s.field.coords
    phis = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    exclude = np.array(_jump_touch_angles(s))
    if exclude.size:
        d = np.abs(((phis[:, None] - exclude + math.pi) % (2 * math.pi))
                   - math.pi)
        phis = phis[np.min(d, axis=1) > 0.05]
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    worst = 0.0
    for phi in phis:
        zx, zy = math.cos(phi), math.sin(phi)
        ix0 = max(0, int(math.floor((zx - r + 1.0) * res)))
        ix1 = min(2 * res, int(math.ceil((zx + r + 1.0) * res)))
        iy0 = max(0, int(math.floor((zy - r + 1.0) * res)))
        iy1 = min(2 * res, int(math.ceil((zy + r + 1.0) * res)))
        win = slice(iy0, iy1 + 1), slice(ix0, ix1 + 1)
        bx, by = X[win], Y[win]
        sel = ((bx - zx) ** 2 + (by - zy) ** 2 < r * r) \
            & (bx * bx + by * by < 1.0)
        worst = max(worst, float(np.abs(u[win][sel] - (zy + 1.0)).mean()))
    return worst


@pytest.mark.parametrize("name", ["stack_constant", "stack_heavy",
                                  "stack_tight", "stack_three_max"])
def test_trace_error_matches_the_probe_loop(name, request):
    s = request.getfixturevalue(name)
    assert trace_error(s) == pytest.approx(_reference_trace_error(s),
                                           rel=1e-15, abs=0.0)


def test_trace_error_needs_samples_near_every_probe():
    # at res 8 no node lies within 0.05 of (1, 0) and inside the disk
    s = stack(make_weight("constant"), levels=midpoint_levels(16), res=8)
    with pytest.raises(ValueError, match=r"no grid samples in B\(z, 0.05\) "
                                         r"at angle 0.000"):
        trace_error(s)


def test_jump_set_constant_empty(stack_constant):
    assert jump_set(stack_constant, 0.2).size == 0


def test_jump_set_heavy_diamond_marks_tips(stack_heavy):
    pts = jump_set(stack_heavy, 0.2)
    assert len(pts) > 0
    d_top = np.hypot(pts[:, 0], pts[:, 1] - 0.5)
    d_bot = np.hypot(pts[:, 0], pts[:, 1] + 0.5)
    assert np.all(np.minimum(d_top, d_bot) < 0.15)


def test_jump_threshold_must_clear_level_spacing(stack_constant):
    with pytest.raises(ValueError):
        jump_set(stack_constant, 0.004)


def test_tight_jump_set_contains_the_axis_points():
    # at threshold 2 H(0.9) the set also picks up steep smooth regions;
    # the claim is containment of the jump points, not exclusivity
    w = make_weight("light_diamond_tight", 0.5)
    s = stack(w, levels=midpoint_levels(2001), res=256)
    thresh = 2.0 * H_of(0.9)
    pts = jump_set(s, thresh)
    assert len(pts) > 0
    cell = 1.0 / 256
    for r in (0.1, 0.3, 0.5, 0.7, 0.9):
        hit = np.abs(pts - (r, 0.0)).max(axis=1).min()
        assert hit <= cell + 1e-12
        assert local_oscillation(s, r, 0.0) >= 2.0 * H_of(r) - 0.02


def test_tight_jump_set_lies_on_the_x_axis(stack_tight):
    # a coarser threshold leaves only the genuine discontinuity
    pts = jump_set(stack_tight, 0.05)
    assert len(pts) > 0
    assert np.abs(pts[:, 1]).max() <= 0.01


def test_local_oscillation_smooth_region(stack_constant):
    assert local_oscillation(stack_constant, 0.3, 0.3) <= 0.02


def test_solution_bounds_and_column_monotonicity(stack_heavy, stack_tight):
    for s in (stack_heavy, stack_tight):
        u = s.field.values
        assert u.min() >= 0.0 and u.max() <= 2.0
        xs = s.field.coords
        X, Y = np.meshgrid(xs, xs)
        inside = X * X + Y * Y < 1.0
        d = np.diff(u, axis=0)
        # strictly monotone where both samples use the level-grid sup;
        # at the rim the exact boundary data meets the quantized interior,
        # so one level spacing of slack is inherent there
        both_in = inside[:-1] & inside[1:]
        assert d[both_in].min() >= -1e-12
        spacing = float(s.levels[1] - s.levels[0])
        assert d.min() >= -(spacing + 1e-9)


def _reference_fill(s) -> np.ndarray:
    """The field of s filled with two searchsorted calls per grid column."""
    levels, curves, res = s.levels, s.curves, s.field.res
    n = 2 * res + 1
    xs = np.linspace(-1.0, 1.0, n)
    gmat = np.empty((len(levels), n))
    for k, lc in enumerate(curves):
        pad = -np.inf if levels[k] < 1.0 else np.inf
        inside = np.abs(xs) <= lc.x_bound() + 1e-15
        col = np.full(n, pad)
        col[inside] = lc.y_at(xs[inside])
        gmat[k] = col
    gmat = np.maximum.accumulate(gmat, axis=0)
    is_min = np.array([lc.branch == "minimal" for lc in curves])
    first_min = int(np.argmax(is_min)) if is_min.any() else len(curves)
    u = np.zeros((n, n))
    for i in range(n):
        col = gmat[:, i]
        weak = np.searchsorted(col, xs, side="right") - 1
        strict = np.searchsorted(col, xs, side="left") - 1
        best = np.maximum(np.minimum(weak, first_min - 1),
                          np.where(strict >= first_min, strict, -1))
        u[:, i] = np.where(best >= 0, levels[np.maximum(best, 0)], 0.0)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    outside = X * X + Y * Y >= 1.0 - 1e-15
    u[outside] = np.clip(Y[outside] + 1.0, 0.0, 2.0)
    return u


@pytest.mark.parametrize("name,alpha", [
    ("constant", None), ("heavy_diamond", 2.0), ("heavy_disk", 2.0),
    ("light_diamond", 0.5), ("light_diamond_tight", 0.5),
    ("lite_dmd_heavy_core", None), ("three_heavy_diamonds", 2.0)])
def test_fill_matches_per_column_reference(name, alpha):
    w = make_weight(name, alpha)
    for policy in (ALL_MINIMAL, ALL_MAXIMAL, SwitchPolicy(1.1)):
        s = stack(w, levels=midpoint_levels(21), res=40, policy=policy)
        assert np.array_equal(s.field.values, _reference_fill(s)), policy


@pytest.mark.parametrize("count", [254, 255, 256, 300])
def test_fill_matches_per_column_reference_across_count_widths(count):
    # the counts are kept in the narrowest type that holds the level count,
    # a byte up to 255 levels; the top levels lie well inside the disk, so
    # some nodes have every curve below them
    w = make_weight("heavy_diamond", 2.0)
    levels = np.linspace(0.05, 1.5, count)
    for policy in (ALL_MINIMAL, ALL_MAXIMAL, SwitchPolicy(1.1)):
        s = stack(w, levels=levels, res=12, policy=policy)
        u = s.field.values
        assert np.array_equal(u, _reference_fill(s)), policy
        xs = s.field.coords
        inside = xs[:, None] ** 2 + xs[None, :] ** 2 < 1.0 - 1e-15
        assert (u[inside] == levels[-1]).any()


def _bisected_disk_rows(xs):
    # the row ends found by a vectorized bisection on the real test, as the
    # stacker once did, kept as a reference for the count-and-correct form
    sq = xs * xs
    n, mid = len(xs), int(np.argmin(sq))

    def first(lo, hi, inside):
        while (lo < hi).any():
            m = (lo + hi) // 2
            live = lo < hi
            hit = (sq + sq[np.minimum(m, n - 1)] < 1.0 - 1e-15) == inside
            hi = np.where(live & hit, m, hi)
            lo = np.where(live & ~hit, m + 1, lo)
        return lo

    return (first(np.zeros(n, int), np.full(n, mid), True),
            first(np.full(n, mid), np.full(n, n), False))


def _rows_mask(xs, a, b):
    cols = np.arange(len(xs))
    return (cols >= a[:, None]) & (cols < b[:, None])


def test_disk_rows_match_the_rim_mask():
    for res in [*range(301), 512, 768, 1024, 2048, 4096]:
        xs = np.linspace(-1.0, 1.0, 2 * res + 1)
        a, b = _disk_rows(xs)
        ref_a, ref_b = _bisected_disk_rows(xs)
        assert np.array_equal(a, ref_a) and np.array_equal(b, ref_b), res
        if res <= 1024:
            # past that the n x n mask is too big to build
            sq = xs * xs
            outside = sq[:, None] + sq[None, :] >= 1.0 - 1e-15
            assert np.array_equal(_rows_mask(xs, a, b), ~outside), res


@pytest.mark.parametrize("xj, xi, inside", [
    # sq[i] < 1 - 1e-15 - sq[j] holds, the rounded sum test fails
    (0.8846682710209841, 0.4662210315384126, False),
    # and the other way round
    (0.620367421014253, 0.7843113303683197, True)])
def test_disk_rows_correct_a_miscounted_end(xj, xi, inside):
    # on these pairs the column count lands one off the real test at both
    # ends of row j, so a correction step has to move each end (one pair
    # moves them outward, the other inward)
    thr = (1.0 - 1e-15) - xj * xj
    assert (xi * xi < thr) != inside
    assert (xj * xj + xi * xi < 1.0 - 1e-15) == inside
    half = np.array([0.0, 0.3, xj, xi, 1.0])
    xs = np.unique(np.concatenate([-half, half]))
    a, b = _disk_rows(xs)
    sq = xs * xs
    outside = sq[:, None] + sq[None, :] >= 1.0 - 1e-15
    assert np.array_equal(_rows_mask(xs, a, b), ~outside)


# Each weight's documented alpha range, normal floats only: the light
# diamond rejects a subnormal alpha (see the test after this one).
ALPHA_RANGES = {
    "light_diamond": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True,
                               allow_subnormal=False),
    "light_diamond_tight": st.floats(0.0, 1.0, exclude_min=True,
                                     exclude_max=True, allow_subnormal=False),
    "heavy_diamond": st.floats(1.0, exclude_min=True, allow_infinity=False),
    "heavy_disk": st.floats(math.pi / 2, allow_infinity=False),
    "three_heavy_diamonds": st.floats(math.sqrt(2.0), allow_infinity=False),
}


@pytest.mark.parametrize("name", sorted(ALPHA_RANGES))
def test_fuzzed_stacks_nest_stay_bounded_and_agree_on_energy(name):
    @settings(max_examples=5, deadline=None)
    @given(ALPHA_RANGES[name])
    def check(alpha):
        w = make_weight(name, alpha)
        # stack raises StackNestingError if two level curves cross
        pair = [stack(w, midpoint_levels(16), policy, res=32)
                for policy in (ALL_MINIMAL, ALL_MAXIMAL)]
        for s in pair:
            assert 0.0 <= s.field.values.min() <= s.field.values.max() <= 2.0
        lo, hi = (bv_energy(s) for s in pair)
        assert lo == pytest.approx(hi, rel=5e-3)

    check()


# Pricing a detour through a diamond interior overflows to inf at this
# alpha (levels 0.415 and 0.463 of 41); weighted_length returns inf without
# a warning, and _pick takes a finite route over it.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("policy", [ALL_MINIMAL, ALL_MAXIMAL])
def test_three_diamond_picks_stay_finite_at_the_largest_alpha(policy):
    w = make_weight("three_heavy_diamonds", sys.float_info.max)
    s = stack(w, midpoint_levels(41), policy, res=32)
    for c in s.curves:
        assert math.isfinite(weighted_length(c.path, w)), c.level


@pytest.mark.parametrize("alpha", [5e-324, 1e-323])
def test_light_diamond_rejects_a_subnormal_alpha(alpha):
    # its horizontal departure kappa alpha / sqrt(2) rounds back up to alpha
    # (5e-324: the sweep reflects) or the curves cross (1e-323)
    with pytest.raises(ValueError, match="subnormal"):
        make_weight("light_diamond", alpha)


def test_light_diamond_stacks_at_the_smallest_normal_alpha():
    w = make_weight("light_diamond", sys.float_info.min)
    for policy in (ALL_MINIMAL, ALL_MAXIMAL):
        s = stack(w, midpoint_levels(16), policy, res=32)
        assert 0.0 <= s.field.values.min() <= s.field.values.max() <= 2.0
