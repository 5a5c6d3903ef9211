"""Refraction law, sag quadrature, and the slow-disk arc criterion."""
import math

import pytest
from hypothesis import given, strategies as st

import lglab.snell as snell
from lglab.snell import (H_of, SolverError, heavy_disk_arc_test, snell_chain,
                         snell_refract)
from lglab.tracing import TotalInternalReflection

# values of the sag integral frozen from an adaptive Simpson rule (eps 1e-8)
H_TABLE = {
    0.1: 0.17153096458483258,
    0.3: 0.10568359666652322,
    0.5: 0.05543616720233779,
    0.7: 0.020733403506784705,
    0.9: 0.00242344302359322,
}


def test_refract_known_value():
    got = snell_refract(1.0, 2.0, math.pi / 6)
    assert got == pytest.approx(math.asin(0.25), abs=1e-15)


def test_refract_same_weight_is_identity():
    assert snell_refract(1.7, 1.7, 0.4) == pytest.approx(0.4, abs=1e-15)


def test_total_internal_reflection_raised():
    with pytest.raises(TotalInternalReflection):
        snell_refract(2.0, 1.0, 1.2)


def test_a_chain_needs_a_weight():
    with pytest.raises(ValueError, match="at least one weight"):
        snell_chain([], 0.3)


def test_a_chain_reflects_end_to_end_where_its_steps_round_through():
    # asin(0.6) rounded up: each interface passes the ray, while the
    # two-endpoint sine 2.5 sin(theta) / 1.5 rounds above 1
    theta = 0.6435011087932845
    snell_refract(2.0, 1.5, snell_refract(2.5, 2.0, theta))
    with pytest.raises(TotalInternalReflection):
        snell_chain([2.5, 2.0, 1.5], theta)


def test_refract_rejects_bad_inputs():
    with pytest.raises(ValueError):
        snell_refract(-1.0, 2.0, 0.3)
    with pytest.raises(ValueError):
        snell_refract(1.0, 2.0, 2.0)  # past pi/2
    for args in ((math.nan, 2.0, 0.3), (1.0, math.nan, 0.3)):
        with pytest.raises(ValueError, match="positive"):
            snell_refract(*args)


@given(st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.floats(0.0, 0.995))
def test_refract_reciprocity(w1, w2, frac):
    cap = math.asin(min(1.0, w2 / w1)) if w1 > w2 else math.pi / 2
    th1 = frac * cap
    th2 = snell_refract(w1, w2, th1)
    assert snell_refract(w2, w1, th2) == pytest.approx(th1, abs=1e-12)


@given(st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.floats(0.0, 0.995),
       st.floats(0.1, 4.0))
def test_chain_collapses_to_endpoints(w1, w2, frac, bump):
    # the invariant w sin(theta) makes intermediate layers drop out
    cap = math.asin(min(1.0, w2 / w1)) if w1 > w2 else math.pi / 2
    th1 = frac * cap
    mid = max(w1, w2) + bump
    direct = snell_refract(w1, w2, th1)
    assert snell_chain((w1, mid, w2), th1) == pytest.approx(direct,
                                                            abs=1e-12)


@pytest.mark.parametrize("t0,expected", sorted(H_TABLE.items()))
def test_sag_quadrature_frozen(t0, expected):
    assert H_of(t0) == pytest.approx(expected, abs=1e-8)
    assert H_of(t0) > 0.0


def test_sag_domain_checks():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            H_of(bad)


def test_sag_decreases_toward_rim():
    vals = [H_of(t) for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def _sag_closed_form(t0):
    # the antiderivative; it cancels as t0 -> 1, so compare where it is stable
    c = 1.0 + t0
    return 0.5 * (1.0 - t0) - c / (2.0 * math.sqrt(2.0)) * (
        math.acosh(2.0 * math.sqrt(2.0) / c) - math.acosh(math.sqrt(2.0)))


def test_sag_matches_the_closed_form():
    for t0 in (0.01 + 0.89 * k / 40 for k in range(41)):
        assert H_of(t0) == pytest.approx(_sag_closed_form(t0), rel=1e-13,
                                         abs=0), t0


def test_sag_stays_positive_and_decreasing_up_to_the_last_float():
    grid = [1.0 - 2.0 ** -k for k in range(1, 54)]
    vals = [H_of(t) for t in grid]
    # 1 + t0 rounds to 2 at the last one
    assert grid[-1] == math.nextafter(1.0, 0.0) and 1.0 + grid[-1] == 2.0
    assert all(v > 0.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_arc_criterion_table():
    assert heavy_disk_arc_test(2.0, math.pi)          # 4 > pi
    assert heavy_disk_arc_test(math.pi / 2, math.pi)  # exact tie counts
    assert not heavy_disk_arc_test(1.0, math.pi)
    assert not heavy_disk_arc_test(0.8, 0.5)
    assert heavy_disk_arc_test(2.0, 0.5)


def test_arc_criterion_domain():
    with pytest.raises(ValueError):
        heavy_disk_arc_test(2.0, 0.0)
    with pytest.raises(ValueError):
        heavy_disk_arc_test(2.0, 3.5)
    with pytest.raises(ValueError):
        heavy_disk_arc_test(-1.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        heavy_disk_arc_test(math.nan, 1.0)


def test_chain_drift_is_a_solver_error(monkeypatch):
    monkeypatch.setattr(snell, "snell_refract",
                        lambda w_in, w_out, theta: theta + 1e-6)
    with pytest.raises(SolverError, match="drifted"):
        snell_chain([1.0, 1.0, 1.0], 0.3)


def test_nonpositive_glide_height_is_a_solver_error(monkeypatch):
    monkeypatch.setattr(snell, "_glide_integral", lambda t0: 0.0)
    with pytest.raises(SolverError, match="not positive"):
        H_of(0.5)
