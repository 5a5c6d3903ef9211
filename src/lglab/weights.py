"""Weight fields on the plane.

Every weight here is a positive function w(x, y) used to measure curve length
as the line integral of w along the curve.  The catalog covers diamond-shaped
(l1-radial) and disk-shaped (l2-radial) profiles, horizontally layered media,
a three-diamond arrangement, and user-defined piecewise regions.

Interface convention: on a discontinuity interface the returned value is the
infimum of the two one-sided limits.  This is the lower-semicontinuous choice;
it never affects a length integral but it does decide which side of a jump a
boundary-hugging geodesic sees.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ProfilePiece:
    """One radial piece: weight = offset + slope * r for r in [lo, hi)."""

    lo: float
    hi: float
    offset: float
    slope: float


def _limits(pieces, r):
    """One-sided limits (from smaller radii, from larger) of the profile at
    radii r; radii up to the first piece's start read its value there."""
    r = np.maximum(np.asarray(r, dtype=float), pieces[0].lo)
    hi, offset, slope = np.array([(p.hi, p.offset, p.slope) for p in pieces]).T
    i = np.searchsorted(hi[:-1], r)
    # on a breakpoint the limit from larger radii is the next piece's
    k = np.minimum(i + (hi[i] == r), len(pieces) - 1)
    return offset[i] + slope[i] * r, offset[k] + slope[k] * r


def circle_hits(p, v, radius, xp=np):
    """Where the line p + t v meets the circle of given radius about 0.

    Returns (disc, t_near, t_far): the quadratic's discriminant and its
    roots (-bb - sqrt(disc)) / (2 aa) and (-bb + sqrt(disc)) / (2 aa), with
    disc clamped at 0 inside the root.  disc < 0 means the line misses the
    circle and disc == 0 that it touches it; each caller decides which of
    those count as a hit.  The coordinates may be arrays of lines, or with
    xp = math floats of one line.
    """
    aa = v[0] * v[0] + v[1] * v[1]
    bb = 2.0 * (p[0] * v[0] + p[1] * v[1])
    cc = p[0] * p[0] + p[1] * p[1] - radius * radius
    disc = bb * bb - 4 * aa * cc
    sq = xp.sqrt(np.maximum(0.0, disc) if xp is np else max(0.0, disc))
    return disc, (-bb - sq) / (2 * aa), (-bb + sq) / (2 * aa)


def _axes(cx, cy):
    """The lines x = cx and y = cy as (nx, ny, c) interface rows."""
    return [(1.0, 0.0, cx), (0.0, 1.0, cy)]


def _diamond_tips(cx, cy, r):
    return [(cx + r, cy), (cx - r, cy), (cx, cy + r), (cx, cy - r)]


class WeightField:
    """Shared surface for all weights: pointwise values and the interface
    geometry that path integration and shooting need."""

    name: str = "weight"
    # most corner points one explicit corner route may pass through
    max_corners = 2

    def values(self, x, y):
        raise NotImplementedError

    def interfaces(self):
        """Where the integrand along a straight segment may change slope.

        Returns (lines, l1, l2): the lines nx x + ny y = c off which the
        weight is affine, as (nx, ny, c) rows, then the l1 and l2 circles
        it may jump or kink on, as (cx, cy, r) rows.  Each l1 circle's
        centre lies on two declared lines, so the l1 distance to it is
        affine between line crossings.
        """
        raise TypeError(f"unsupported weight type {type(self).__name__}")

    def corner_points(self) -> list[tuple[float, float]]:
        """Tips of the declared l1 circles, where a cheapest route may kink."""
        return [q for cx, cy, r in self.interfaces()[1] if r > 0
                for q in _diamond_tips(cx, cy, r)]

    def rim_radii(self) -> list[float]:
        """Radii in (0, 1) of declared l2 circles about 0, for rim wraps."""
        return [r for cx, cy, r in self.interfaces()[2]
                if cx == cy == 0 and 0 < r < 1]


@dataclass(frozen=True)
class ConstantWeight(WeightField):
    c: float = 1.0

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("weight must be positive")
        object.__setattr__(self, "name", f"constant({self.c:g})")

    def values(self, x, y):
        return np.full(np.shape(x), self.c, dtype=float)

    def interfaces(self):
        return [], [], []


@dataclass(frozen=True)
class RadialWeight(WeightField):
    """Weight depending only on the l1 or l2 distance from the origin.

    pieces must tile [0, inf) in increasing order and the last piece must be
    unbounded.  An l2 profile must be piecewise constant: the l2 radius is
    not affine along a chord, so a sloped piece would break exact midpoint
    integration.  Values on piece boundaries follow the inf-of-limits rule.
    """

    name: str = field()  # field(): required, not WeightField's default
    norm: str  # "l1" or "l2"
    pieces: tuple[ProfilePiece, ...]

    def __post_init__(self):
        if self.norm not in ("l1", "l2"):
            raise ValueError("norm must be 'l1' or 'l2'")
        lo = 0.0
        for p in self.pieces:
            if not math.isclose(p.lo, lo, abs_tol=1e-15):
                raise ValueError("profile pieces must tile [0, inf)")
            lo = p.hi
        if not math.isinf(lo):
            raise ValueError("last profile piece must be unbounded")
        if self.norm == "l2" and any(p.slope != 0.0 for p in self.pieces):
            raise ValueError("l2 profiles must be piecewise constant")

    def radius(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.norm == "l1":
            return np.abs(x) + np.abs(y)
        return np.hypot(x, y)

    def profile(self, r):
        """Profile value with the inf-of-limits rule at piece boundaries."""
        return np.minimum(*_limits(self.pieces, r))

    def profile_at(self, r: float) -> float:
        """profile at one float radius, bit for bit: _limits' products, sums
        and comparisons in scalar arithmetic."""
        pieces = self.pieces
        r, i = max(r, pieces[0].lo), 0
        while pieces[i].hi < r:
            i += 1
        a, b = pieces[i], pieces[min(i + (pieces[i].hi == r), len(pieces) - 1)]
        return min(a.offset + a.slope * r, b.offset + b.slope * r)

    def values(self, x, y):
        return self.profile(self.radius(x, y))

    def breakpoints(self):
        return tuple(p.hi for p in self.pieces[:-1])

    @lru_cache(maxsize=32)
    def shell_grid(self, n_shells: int):
        """Concentric constant-weight shells that discretize the profile for
        the ray tracer, their only user.

        Returns (r, ws): radii 0 = r[0] < r[1] < ... < r[M] and the weight
        ws[k] of shell k between r[k] and r[k+1] (r[M+1] = inf).  Piece
        breakpoints are kept exactly; sloped pieces share about n_shells
        shells in proportion to their width.  Each shell carries the
        one-sided value at its outer radius, the unbounded last shell the
        outer piece's value.  The arrays are shared, so they are read-only.
        """
        radii = [np.zeros(1)]
        span = sum(p.hi - p.lo for p in self.pieces
                   if math.isfinite(p.hi) and p.slope != 0.0)
        for p in self.pieces:
            if not math.isfinite(p.hi):
                break
            m = 1
            if p.slope != 0.0 and span > 0.0:
                m = max(1, int(round(n_shells * (p.hi - p.lo) / span)))
            radii.append(p.lo + (p.hi - p.lo) * np.arange(1, m + 1) / m)
        r = np.concatenate(radii)
        ws = np.append(_limits(self.pieces, r[1:])[0],
                       self.pieces[-1].offset)
        r.setflags(write=False)
        ws.setflags(write=False)
        return r, ws

    def interfaces(self):
        circles = [(0.0, 0.0, r) for r in self.breakpoints()]
        if self.norm == "l1":
            return _axes(0.0, 0.0), circles, []
        return [], [], circles


@dataclass(frozen=True)
class MultiDiamondWeight(WeightField):
    """Weight alpha inside a fixed union of l1 balls, 1 outside.

    Two large diamonds centered on (+-1/2, 0) of l1 radius 1/4 and one small
    diamond centered on (0, 1/4) of l1 radius 1/8.  Symmetric in x, not in y.
    """

    alpha: float = SQRT2
    name = "three_heavy_diamonds"
    max_corners = 4

    # the large left, large right and small diamond
    CENTERS = ((-0.5, 0.0, 0.25), (0.5, 0.0, 0.25), (0.0, 0.25, 0.125))

    def __post_init__(self):
        if not self.alpha >= SQRT2:
            raise ValueError("three-diamond weight expects alpha >= sqrt(2)")

    def values(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        inside = np.zeros(np.broadcast(x, y).shape, dtype=bool)
        for cx, cy, r in self.CENTERS:
            inside |= (np.abs(x - cx) + np.abs(y - cy)) < r
        return np.where(inside, self.alpha, 1.0)

    def interfaces(self):
        return ([row for cx, cy, _ in self.CENTERS for row in _axes(cx, cy)],
                list(self.CENTERS), [])


@dataclass(frozen=True)
class LayeredWeight(WeightField):
    """Horizontally layered medium below y = 0.

    layers = ((d1, w1), (d2, w2), ...) with 0 < d1 < d2 < ...; the weight is
    w_k on the strip -d_k < y <= -d_{k-1} (d_0 = 0), w1 also above y = 0, and
    the last w below the last depth.  Strip-boundary values take the smaller
    neighbour, which never changes a length integral.
    """

    layers: tuple[tuple[float, float], ...]
    name = "layered_horizontal"

    def __post_init__(self):
        depths = self.depths()
        if not depths or not all(b > a for a, b in zip(depths, depths[1:])):
            raise ValueError("layer depths must increase")
        if not (depths[0] > 0 and all(w > 0 for _, w in self.layers)):
            raise ValueError("depths and weights must be positive")

    def values(self, x, y):
        # a piecewise-constant profile of the depth -y; the last weight
        # holds from the last depth but one down
        inner = self.depths()[:-1]
        pieces = [ProfilePiece(lo, hi, w, 0.0) for lo, hi, (_, w) in zip(
            (-math.inf, *inner), (*inner, math.inf), self.layers)]
        return np.minimum(*_limits(pieces, -np.asarray(y, dtype=float)))

    def depths(self):
        return tuple(d for d, _ in self.layers)

    def interfaces(self):
        return [(0.0, 1.0, -d) for d in self.depths()], [], []


@dataclass(frozen=True)
class Region:
    """A half-plane or an l1/l2 ball, optionally complemented."""

    shape: str  # "l1", "l2", or "halfplane"
    cx: float = 0.0
    cy: float = 0.0
    radius: float = 0.0
    nx: float = 0.0  # halfplane: points with nx*x + ny*y <= offset
    ny: float = 0.0
    offset: float = 0.0
    negate: bool = False

    def __post_init__(self):
        if self.shape not in ("l1", "l2", "halfplane"):
            raise ValueError(f"unknown region shape {self.shape!r}")

    def contains(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.shape == "l1":
            m = (np.abs(x - self.cx) + np.abs(y - self.cy)) < self.radius
        elif self.shape == "l2":
            m = np.hypot(x - self.cx, y - self.cy) < self.radius
        else:
            m = (self.nx * x + self.ny * y) <= self.offset
        return ~m if self.negate else m

    def interfaces(self):
        """The boundary as (lines, l1, l2) rows, as WeightField.interfaces."""
        circle = [(self.cx, self.cy, self.radius)]
        if self.shape == "l1":
            return _axes(self.cx, self.cy), circle, []
        if self.shape == "l2":
            return [], [], circle
        return [(self.nx, self.ny, self.offset)], [], []


@dataclass(frozen=True)
class CustomWeight(WeightField):
    """First-match piecewise weight, affine in the l1 distance from an anchor.

    pieces = ((regions, offset, slope, anchor_x, anchor_y), ...); a point gets
    the first piece whose regions all contain it, else the default value.
    Region membership uses strict containment, so interface points fall
    through to the next piece or the default.
    """

    pieces: tuple[tuple[tuple[Region, ...], float, float, float, float], ...]
    default: float = 1.0
    name = "custom_piecewise"

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))

    def values(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.full(np.broadcast(x, y).shape, self.default, dtype=float)
        unset = np.ones_like(out, dtype=bool)
        for regions, offset, slope, ax, ay in self.pieces:
            m = unset.copy()
            for reg in regions:
                m &= reg.contains(x, y)
            out[m] = offset + slope * (np.abs(x - ax) + np.abs(y - ay))[m]
            unset &= ~m
        return out

    def interfaces(self):
        out = ([], [], [])
        for regions, _off, slope, ax, ay in self.pieces:
            if slope != 0.0:
                out[0].extend(_axes(ax, ay))
            for reg in regions:
                for rows, more in zip(out, reg.interfaces()):
                    rows.extend(more)
        return out


def heavy_diamond(alpha: float = math.sqrt(1.5)) -> RadialWeight:
    """Weight alpha on the open l1 ball of radius 1/2, 1 outside."""
    if not alpha > 1:
        raise ValueError("heavy diamond expects alpha > 1")
    return RadialWeight("heavy_diamond", "l1", (
        ProfilePiece(0.0, 0.5, alpha, 0.0),
        ProfilePiece(0.5, math.inf, 1.0, 0.0),
    ))


def heavy_disk(alpha: float = 2.0) -> RadialWeight:
    """Weight alpha on the open disk of radius 1/2, 1 outside.

    Geodesic wrapping around the disk needs alpha >= pi/2; smaller values are
    rejected so the level-curve construction stays valid.
    """
    if not alpha >= math.pi / 2:
        raise ValueError("heavy disk expects alpha >= pi/2")
    return RadialWeight("heavy_disk", "l2", (
        ProfilePiece(0.0, 0.5, alpha, 0.0),
        ProfilePiece(0.5, math.inf, 1.0, 0.0),
    ))


def light_diamond(alpha: float = 0.5) -> RadialWeight:
    """Weight alpha inside l1 radius 1/2 with a linear ramp to 1 over [0.5, 0.55]."""
    # a subnormal alpha / sqrt(2) rounds back up to alpha, so sweeps reflect
    if not sys.float_info.min <= alpha < 1:
        raise ValueError("light diamond expects 0 < alpha < 1, not subnormal")
    ramp = (1.0 - alpha) / 0.05
    return RadialWeight("light_diamond", "l1", (
        ProfilePiece(0.0, 0.5, alpha, 0.0),
        ProfilePiece(0.5, 0.55, alpha - 0.5 * ramp, ramp),
        ProfilePiece(0.55, math.inf, 1.0, 0.0),
    ))


def light_diamond_tight(alpha: float = 0.5) -> RadialWeight:
    """Continuous l1-radial interpolation alpha + (1 - alpha) * r up to r = 1."""
    if not 0 < alpha < 1:
        raise ValueError("tight light diamond expects 0 < alpha < 1")
    return RadialWeight("light_diamond_tight", "l1", (
        ProfilePiece(0.0, 1.0, alpha, 1.0 - alpha),
        ProfilePiece(1.0, math.inf, 1.0, 0.0),
    ))


def lite_dmd_heavy_core() -> RadialWeight:
    """Continuous l1-radial weight with an expensive center and a cheap ring.

    0.75 - 0.5 r on r < 0.5, r on 0.5 <= r < 1, and 1 outside; the pieces
    match at both breakpoints so the weight is continuous.
    """
    return RadialWeight("lite_dmd_heavy_core", "l1", (
        ProfilePiece(0.0, 0.5, 0.75, -0.5),
        ProfilePiece(0.5, 1.0, 0.0, 1.0),
        ProfilePiece(1.0, math.inf, 1.0, 0.0),
    ))


def three_heavy_diamonds(alpha: float = SQRT2) -> MultiDiamondWeight:
    return MultiDiamondWeight(alpha=alpha)


def constant(c: float = 1.0) -> ConstantWeight:
    return ConstantWeight(c)


def layered_horizontal(layers) -> LayeredWeight:
    return LayeredWeight(tuple((float(d), float(w)) for d, w in layers))


# name: (builder, the make_weight parameters it takes in the builder's
# argument order, parameter range, one-line behaviour note)
_CATALOG = {
    "constant": (constant, ("alpha",), "c > 0, default 1",
                 "uniform speed; geodesics are straight chords"),
    "heavy_diamond": (heavy_diamond, ("alpha",), "alpha > 1, default sqrt(3/2)",
                      "slow diamond of l1 radius 1/2; corner or refracted routes"),
    "heavy_disk": (heavy_disk, ("alpha",), "alpha >= pi/2, default 2",
                   "slow disk of radius 1/2; arc-hugging routes"),
    "light_diamond": (light_diamond, ("alpha",), "0 < alpha < 1, default 1/2",
                      "fast diamond with a thin ramp shell; gliding level curves"),
    "light_diamond_tight": (light_diamond_tight, ("alpha",),
                            "0 < alpha < 1, default 1/2",
                            "continuous radial interpolation; solution jumps on "
                            "the x-axis"),
    "lite_dmd_heavy_core": (lite_dmd_heavy_core, (), "no parameter",
                            "continuous weight, costly center, cheap ring; "
                            "non-unique solutions"),
    "three_heavy_diamonds": (three_heavy_diamonds, ("alpha",),
                             "alpha >= sqrt(2), default sqrt(2)",
                             "two large and one small slow diamond; level bands "
                             "with tied routes"),
    "layered_horizontal": (layered_horizontal, ("layers",),
                           "layers = (depth, weight) pairs, depths increasing",
                           "horizontally stratified medium below the x-axis"),
    "custom_piecewise": (CustomWeight, ("pieces", "default"),
                         "pieces over l1/l2 balls and half-planes",
                         "user-defined regional weight, affine in l1 distance"),
}
# (name, alpha) of each weight with level curves, at its figure preset's
# parameter, in catalog order
STACKABLE = (("constant", None), ("heavy_diamond", 2.0), ("heavy_disk", 2.0),
             ("light_diamond", 0.5), ("light_diamond_tight", 0.5),
             ("lite_dmd_heavy_core", None), ("three_heavy_diamonds", 2.0))


def catalog_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


def catalog_describe(name: str) -> tuple[str, str]:
    """(parameter range, one-line behaviour note) for a catalog entry."""
    return _CATALOG[name][2:]


def make_weight(name: str, alpha: float | None = None, *, layers=None,
                pieces=None, default: float | None = None) -> WeightField:
    """Build a catalog weight from the parameters it takes, and no other;
    alpha and default may be omitted, layers and pieces may not."""
    if name not in _CATALOG:
        raise KeyError(f"unknown weight {name!r}; known: {', '.join(_CATALOG)}")
    builder, takes = _CATALOG[name][:2]
    given = {"alpha": alpha, "layers": layers, "pieces": pieces,
             "default": default}
    for key, val in given.items():
        if val is not None and key not in takes:
            raise ValueError(f"{name} does not take {key}; it takes "
                             f"{' and '.join(takes) or 'no parameter'}")
        if val is None and key in takes and key in ("layers", "pieces"):
            raise ValueError(f"{name} needs {key}=...")
    return builder(*(given[key] for key in takes if given[key] is not None))
