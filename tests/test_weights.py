"""Weight-field catalog: values, symmetry, and parameter validation."""
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lglab import weights
from lglab.weights import (ProfilePiece, RadialWeight, Region,
                           catalog_describe, catalog_names, make_weight)

DISK_XY = st.tuples(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99))


def test_catalog_is_stable():
    names = catalog_names()
    assert names == catalog_names()
    assert "constant" in names and "heavy_diamond" in names
    for name in names:
        param, note = catalog_describe(name)
        assert param and note


def test_unknown_name_rejected():
    with pytest.raises(KeyError):
        make_weight("no_such_weight")


@pytest.mark.parametrize("norm, pieces, message", [
    ("linf", ((0.0, math.inf),), "norm must be"),
    ("l1", ((0.0, 0.5), (0.6, math.inf)), "must tile"),
    ("l1", ((0.0, 0.5),), "must be unbounded")],
    ids=["norm", "tiling", "bounded"])
def test_radial_weights_reject_bad_profiles(norm, pieces, message):
    with pytest.raises(ValueError, match=message):
        RadialWeight("bad", norm, tuple(ProfilePiece(lo, hi, 1.0, 0.0)
                                        for lo, hi in pieces))


def test_heavy_diamond_values():
    w = make_weight("heavy_diamond", 2.0)
    assert w.values(0.0, 0.0) == 2.0
    assert w.values(0.2, 0.2) == 2.0
    assert w.values(0.3, 0.3) == 1.0
    assert w.values(0.51, 0.0) == 1.0
    got = w.values(np.array([0.0, 0.6]), np.array([0.0, 0.0]))
    assert got.tolist() == [2.0, 1.0]


def test_heavy_disk_values():
    w = make_weight("heavy_disk", 2.0)
    assert w.values(0.3, 0.3) == 2.0      # r ~ 0.424
    assert w.values(0.4, 0.4) == 1.0      # r ~ 0.566
    with pytest.raises(ValueError):
        make_weight("heavy_disk", 1.5)    # below pi/2


def test_light_diamond_ramp():
    w = make_weight("light_diamond", 0.5)
    assert w.values(0.0, 0.0) == 0.5
    assert w.values(0.525, 0.0) == pytest.approx(0.75)
    assert w.values(0.6, 0.0) == 1.0


def test_tight_profile_is_affine_in_radius():
    w = make_weight("light_diamond_tight", 0.5)
    for s in (0.0, 0.25, 0.5, 0.99):
        assert w.values(s, 0.0) == pytest.approx((1.0 + s) / 2.0)
        assert w.values(0.0, s) == pytest.approx((1.0 + s) / 2.0)
    assert w.values(1.5, 0.0) == 1.0


def test_corelite_profile_and_continuity():
    w = make_weight("lite_dmd_heavy_core")
    assert w.values(0.0, 0.0) == 0.75
    assert w.values(0.2, 0.0) == pytest.approx(0.65)
    assert w.values(0.75, 0.0) == pytest.approx(0.75)
    eps = 1e-9
    for s in (0.5, 1.0):
        lo = w.values(s - eps, 0.0)
        hi = w.values(s + eps, 0.0)
        assert abs(lo - hi) < 1e-6


def test_three_diamonds_layout():
    w = make_weight("three_heavy_diamonds", 2.0)
    assert w.values(-0.5, 0.0) == 2.0
    assert w.values(0.5, 0.0) == 2.0
    assert w.values(0.0, 0.25) == 2.0
    assert w.values(0.0, 0.0) == 1.0
    assert w.values(0.0, -0.25) == 1.0
    with pytest.raises(ValueError):
        make_weight("three_heavy_diamonds", 1.2)


def test_layered_strips():
    w = make_weight("layered_horizontal", layers=((0.3, 2.0), (0.7, 4.0)))
    assert w.values(0.0, 0.5) == 2.0   # first weight also above the surface
    assert w.values(0.0, -0.1) == 2.0
    assert w.values(0.0, -0.5) == 4.0
    assert w.values(0.0, -2.0) == 4.0
    with pytest.raises(ValueError):
        make_weight("layered_horizontal", layers=((0.7, 2.0), (0.3, 4.0)))
    with pytest.raises(ValueError):
        make_weight("layered_horizontal")


NAN = float("nan")


@pytest.mark.parametrize("name", [
    "constant", "heavy_diamond", "heavy_disk", "light_diamond",
    "light_diamond_tight", "three_heavy_diamonds"])
def test_nan_alpha_fails_every_range_check(name):
    with pytest.raises(ValueError):
        make_weight(name, NAN)


@pytest.mark.parametrize("layers", [
    ((NAN, 2.0),), ((0.3, NAN),), ((0.3, 2.0), (NAN, 4.0))],
    ids=["depth", "weight", "second_depth"])
def test_nan_layers_fail_the_range_checks(layers):
    with pytest.raises(ValueError):
        make_weight("layered_horizontal", layers=layers)


def test_unknown_region_shape_is_rejected_when_built():
    with pytest.raises(ValueError, match="unknown region shape"):
        Region("bogus")


_PARAMETERS = {"alpha": 2.0, "layers": ((0.3, 2.0), (0.7, 4.0)),
               "pieces": (), "default": 2.0}
_TAKES = {"layered_horizontal": ("layers",),
          "custom_piecewise": ("pieces", "default"),
          "lite_dmd_heavy_core": ()}


def _foreign_pairs():
    return [(name, key) for name in catalog_names() for key in _PARAMETERS
            if key not in _TAKES.get(name, ("alpha",))]


def test_every_foreign_parameter_is_named_in_the_error():
    pairs = _foreign_pairs()
    # layers, pieces and default on the seven weights neither layered nor
    # custom, alpha, pieces and default on the layered one, alpha and layers
    # on the custom one, and alpha on the parameterless heavy core
    assert len(pairs) == 27
    for name, key in pairs:
        given = {k: _PARAMETERS[k] for k in ("layers", "pieces")
                 if k in _TAKES.get(name, ())}
        given[key] = _PARAMETERS[key]
        alpha = given.pop("alpha", None)
        with pytest.raises(ValueError, match=f"{name} does not take {key};"):
            make_weight(name, alpha, **given)


def test_the_parameters_a_weight_takes_build_it():
    inner = Region("l2", radius=0.5)
    pieces = [((inner,), 3.0, 0.0, 0.0, 0.0)]
    assert make_weight("constant", 2.0) == weights.constant(2.0)
    for name in ("heavy_diamond", "heavy_disk", "three_heavy_diamonds"):
        assert make_weight(name, 2.0) == getattr(weights, name)(2.0)
    for name in ("light_diamond", "light_diamond_tight"):
        assert make_weight(name, 0.25) == getattr(weights, name)(0.25)
    assert make_weight("layered_horizontal", layers=[(0.3, 2), (0.7, 4)]) \
        == weights.LayeredWeight(((0.3, 2.0), (0.7, 4.0)))
    assert make_weight("custom_piecewise", pieces=pieces) \
        == weights.CustomWeight(tuple(pieces))
    assert make_weight("custom_piecewise", pieces=pieces, default=9.0) \
        == weights.CustomWeight(tuple(pieces), default=9.0)
    with pytest.raises(ValueError, match="needs pieces"):
        make_weight("custom_piecewise", default=9.0)


def test_custom_piecewise():
    ring = Region("l2", radius=0.5, negate=True)
    inner = Region("l2", radius=0.5)
    w = make_weight("custom_piecewise", pieces=(
        ((inner,), 3.0, 0.0, 0.0, 0.0),
        ((ring,), 1.0, 1.0, 0.0, 0.0),
    ), default=9.0)
    assert w.values(0.1, 0.1) == 3.0
    assert w.values(0.5, 0.3) == pytest.approx(1.8)


@pytest.mark.parametrize("name,alpha", [
    ("constant", None), ("heavy_diamond", 2.0), ("heavy_disk", 2.0),
    ("light_diamond", 0.5), ("light_diamond_tight", 0.5),
    ("lite_dmd_heavy_core", None), ("three_heavy_diamonds", 2.0),
])
@given(p=DISK_XY)
def test_positive_and_mirror_symmetric(name, alpha, p):
    w = make_weight(name, alpha)
    x, y = p
    v = float(w.values(x, y))
    assert v > 0.0
    assert v == pytest.approx(float(w.values(-x, y)), abs=1e-12)


@pytest.mark.parametrize("name,alpha", [
    ("heavy_diamond", 2.0), ("heavy_disk", 2.0), ("light_diamond", 0.5),
    ("light_diamond_tight", 0.5), ("lite_dmd_heavy_core", None),
])
@given(p=DISK_XY)
def test_radial_weights_are_y_symmetric(name, alpha, p):
    w = make_weight(name, alpha)
    x, y = p
    assert float(w.values(x, y)) == pytest.approx(float(w.values(x, -y)),
                                                  abs=1e-12)


RADIAL = ["heavy_diamond", "heavy_disk", "light_diamond",
          "light_diamond_tight", "lite_dmd_heavy_core"]


def _piece_values(pieces, r, side):
    """The profile's one-sided limit as it was computed before: one masked
    pass per piece.  side=+1 is the limit from larger radii, -1 smaller."""
    r = np.asarray(r, dtype=float)
    out = np.empty(r.shape, dtype=float)
    out.fill(np.nan)
    for p in pieces:
        if side > 0:
            m = (r >= p.lo) & (r < p.hi)
        else:
            m = (r > p.lo) & (r <= p.hi)
        out[m] = p.offset + p.slope * r[m]
    first = pieces[0]
    m = r <= first.lo
    out[m] = first.offset + first.slope * first.lo
    return out


@pytest.mark.parametrize("name", RADIAL)
def test_profile_matches_the_per_piece_reference_bit_for_bit(name):
    w = make_weight(name)
    rng = np.random.default_rng(sum(map(ord, name)))
    bps = np.array(w.breakpoints())
    tiny = np.finfo(float).smallest_subnormal
    r = np.concatenate([
        rng.uniform(0.0, 1.5, 20000), bps, np.nextafter(bps, 0.0),
        np.nextafter(bps, 2.0), [-1.0, -tiny, 0.0, -0.0, tiny, 2 * tiny,
                                 1e-310, np.finfo(float).tiny],
        *(w.shell_grid(n)[0] for n in (4096, 64))])
    ref = np.minimum(_piece_values(w.pieces, r, side=-1),
                     _piece_values(w.pieces, r, side=+1))
    got = w.profile(r)
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def _reference_shell_grid(w, r):
    """The per-shell comprehension that built the shell weights before."""
    inner = [float(_piece_values(w.pieces, np.array([float(x)]), side=-1)[0])
             for x in r[1:]]
    return np.array(inner + [float(w.pieces[-1].offset)])


@pytest.mark.parametrize("name", RADIAL)
@pytest.mark.parametrize("n_shells", [4096, 1024, 128, 64])
def test_shell_grid_matches_the_per_shell_reference_bit_for_bit(name,
                                                                n_shells):
    r, ws = make_weight(name).shell_grid(n_shells)
    ref = _reference_shell_grid(make_weight(name), r)
    assert ws.dtype == ref.dtype and ws.tobytes() == ref.tobytes()


def test_vectorized_shapes():
    w = make_weight("heavy_diamond", 2.0)
    xs = np.linspace(-1, 1, 7).reshape(1, 7)
    ys = np.linspace(-1, 1, 5).reshape(5, 1)
    assert w.values(xs, ys).shape == (5, 7)


@pytest.mark.parametrize("name", catalog_names())
def test_a_pickled_weight_compares_and_hashes_equal(name):
    # weights key the oracle's held graph and the interface and sweep
    # caches, so a copy must find the original's entries
    given = {k: _PARAMETERS[k] for k in ("layers", "pieces")
             if k in _TAKES.get(name, ())}
    w = make_weight(name, **given)
    copy = pickle.loads(pickle.dumps(w))
    assert copy == w and hash(copy) == hash(w)
