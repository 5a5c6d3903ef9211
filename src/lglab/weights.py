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
from dataclasses import dataclass
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
    tag: str


def _limits(pieces, r):
    """One-sided limits (from smaller radii, from larger) of the profile at
    radii r; radii up to the first piece's start read its value there."""
    r = np.maximum(np.asarray(r, dtype=float), pieces[0].lo)
    hi, offset, slope = np.array([(p.hi, p.offset, p.slope) for p in pieces]).T
    i = np.searchsorted(hi[:-1], r)
    # on a breakpoint the limit from larger radii is the next piece's
    k = np.minimum(i + (hi[i] == r), len(pieces) - 1)
    return offset[i] + slope[i] * r, offset[k] + slope[k] * r


def circle_hits(p, v, radius):
    """Where the line p + t v meets the circle of given radius about 0.

    Returns (disc, t_near, t_far): the quadratic's discriminant and its
    roots (-bb - sqrt(disc)) / (2 aa) and (-bb + sqrt(disc)) / (2 aa), with
    disc clamped at 0 inside the root.  disc < 0 means the line misses the
    circle and disc == 0 that it touches it; each caller decides which of
    those count as a hit.
    """
    aa = v[0] * v[0] + v[1] * v[1]
    bb = 2.0 * (p[0] * v[0] + p[1] * v[1])
    cc = p[0] * p[0] + p[1] * p[1] - radius * radius
    disc = bb * bb - 4 * aa * cc
    sq = math.sqrt(max(0.0, disc))
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
        """Obstacle corners a cheapest route may kink at."""
        return []

    def rim_radii(self) -> list[float]:
        """Radii of the slow disks about the origin a route may wrap around."""
        return []


@dataclass(frozen=True)
class ConstantWeight(WeightField):
    c: float = 1.0

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("weight must be positive")
        object.__setattr__(self, "name", f"constant({self.c:g})")

    def values(self, x, y):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape, self.c, dtype=float)

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

    kind: str
    norm: str  # "l1" or "l2"
    pieces: tuple[ProfilePiece, ...]
    alpha: float = float("nan")

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
        object.__setattr__(self, "name", self.kind)

    def radius(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.norm == "l1":
            return np.abs(x) + np.abs(y)
        return np.hypot(x, y)

    def profile(self, r):
        """Profile value with the inf-of-limits rule at piece boundaries."""
        return np.minimum(*_limits(self.pieces, r))

    def values(self, x, y):
        return self.profile(self.radius(x, y))

    def breakpoints(self):
        return tuple(p.hi for p in self.pieces[:-1])

    @lru_cache(maxsize=32)
    def shell_grid(self, n_shells: int):
        """Concentric constant-weight shells that discretize the profile.

        Returns (r, ws): radii 0 = r[0] < r[1] < ... < r[M] and the weight
        ws[k] of shell k between r[k] and r[k+1] (r[M+1] = inf).  Piece
        breakpoints are kept exactly; sloped pieces share about n_shells
        shells in proportion to their width.  Each shell carries the
        one-sided value at its outer radius, the unbounded last shell the
        outer piece's value.  The arrays are shared, so they are read-only.
        """
        radii = [0.0]
        span = sum(p.hi - p.lo for p in self.pieces
                   if math.isfinite(p.hi) and p.slope != 0.0)
        for p in self.pieces:
            if not math.isfinite(p.hi):
                break
            m = 1
            if p.slope != 0.0 and span > 0.0:
                m = max(1, int(round(n_shells * (p.hi - p.lo) / span)))
            for j in range(1, m + 1):
                radii.append(p.lo + (p.hi - p.lo) * j / m)
        r = np.array(radii)
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

    def corner_points(self):
        if self.norm != "l1":
            return []
        return [q for r in self.breakpoints() if r > 0
                for q in _diamond_tips(0.0, 0.0, r)]

    def rim_radii(self):
        if self.norm != "l2":
            return []
        return [r for r in self.breakpoints() if 0 < r < 1]


@dataclass(frozen=True)
class MultiDiamondWeight(WeightField):
    """Weight alpha inside a fixed union of l1 balls, 1 outside.

    Two large diamonds centered on (+-1/2, 0) of l1 radius 1/4 and one small
    diamond centered on (0, 1/4) of l1 radius 1/8.  Symmetric in x, not in y.
    """

    alpha: float = SQRT2
    max_corners = 4

    CENTERS = ((-0.5, 0.0, 0.25, "large_left"),
               (0.5, 0.0, 0.25, "large_right"),
               (0.0, 0.25, 0.125, "small"))

    def __post_init__(self):
        if self.alpha < SQRT2:
            raise ValueError("three-diamond weight expects alpha >= sqrt(2)")
        object.__setattr__(self, "name", "three_heavy_diamonds")

    def values(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        inside = np.zeros(np.broadcast(x, y).shape, dtype=bool)
        for cx, cy, r, _ in self.CENTERS:
            inside |= (np.abs(x - cx) + np.abs(y - cy)) < r
        return np.where(inside, self.alpha, 1.0)

    def interfaces(self):
        return ([row for cx, cy, _, _ in self.CENTERS for row in _axes(cx, cy)],
                [(cx, cy, r) for cx, cy, r, _ in self.CENTERS], [])

    def corner_points(self):
        return [q for cx, cy, r, _ in self.CENTERS
                for q in _diamond_tips(cx, cy, r)]


@dataclass(frozen=True)
class LayeredWeight(WeightField):
    """Horizontally layered medium below y = 0.

    layers = ((d1, w1), (d2, w2), ...) with 0 < d1 < d2 < ...; the weight is
    w_k on the strip -d_k < y <= -d_{k-1} (d_0 = 0), w1 also above y = 0, and
    the last w below the last depth.  Strip-boundary values take the smaller
    neighbour, which never changes a length integral.
    """

    layers: tuple[tuple[float, float], ...]

    def __post_init__(self):
        depths = [d for d, _ in self.layers]
        if len(depths) < 1 or any(b <= a for a, b in zip(depths, depths[1:])):
            raise ValueError("layer depths must increase")
        if depths[0] <= 0 or any(w <= 0 for _, w in self.layers):
            raise ValueError("depths and weights must be positive")
        object.__setattr__(self, "name", "layered_horizontal")

    def values(self, x, y):
        y = np.asarray(y, dtype=float)
        depths = np.array([d for d, _ in self.layers])
        ws = np.array([w for _, w in self.layers])
        idx = np.searchsorted(depths, -y, side="left")
        idx_hi = np.searchsorted(depths, -y, side="right")
        idx = np.clip(idx, 0, len(ws) - 1)
        idx_hi = np.clip(idx_hi, 0, len(ws) - 1)
        return np.minimum(ws[idx], ws[idx_hi])

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

    def contains(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.shape == "l1":
            m = (np.abs(x - self.cx) + np.abs(y - self.cy)) < self.radius
        elif self.shape == "l2":
            m = np.hypot(x - self.cx, y - self.cy) < self.radius
        elif self.shape == "halfplane":
            m = (self.nx * x + self.ny * y) <= self.offset
        else:
            raise ValueError(f"unknown region shape {self.shape!r}")
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

    def __post_init__(self):
        object.__setattr__(self, "name", "custom_piecewise")

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
    if alpha <= 1:
        raise ValueError("heavy diamond expects alpha > 1")
    return RadialWeight("heavy_diamond", "l1", (
        ProfilePiece(0.0, 0.5, alpha, 0.0, "core"),
        ProfilePiece(0.5, math.inf, 1.0, 0.0, "outside"),
    ), alpha=alpha)


def heavy_disk(alpha: float = 2.0) -> RadialWeight:
    """Weight alpha on the open disk of radius 1/2, 1 outside.

    Geodesic wrapping around the disk needs alpha >= pi/2; smaller values are
    rejected so the level-curve construction stays valid.
    """
    if alpha < math.pi / 2:
        raise ValueError("heavy disk expects alpha >= pi/2")
    return RadialWeight("heavy_disk", "l2", (
        ProfilePiece(0.0, 0.5, alpha, 0.0, "core"),
        ProfilePiece(0.5, math.inf, 1.0, 0.0, "outside"),
    ), alpha=alpha)


def light_diamond(alpha: float = 0.5) -> RadialWeight:
    """Weight alpha inside l1 radius 1/2 with a linear ramp to 1 over [0.5, 0.55]."""
    # a subnormal alpha / sqrt(2) rounds back up to alpha, so sweeps reflect
    if not sys.float_info.min <= alpha < 1:
        raise ValueError("light diamond expects 0 < alpha < 1, not subnormal")
    ramp = (1.0 - alpha) / 0.05
    return RadialWeight("light_diamond", "l1", (
        ProfilePiece(0.0, 0.5, alpha, 0.0, "core"),
        ProfilePiece(0.5, 0.55, alpha - 0.5 * ramp, ramp, "ramp"),
        ProfilePiece(0.55, math.inf, 1.0, 0.0, "outside"),
    ), alpha=alpha)


def light_diamond_tight(alpha: float = 0.5) -> RadialWeight:
    """Continuous l1-radial interpolation alpha + (1 - alpha) * r up to r = 1."""
    if not 0 < alpha < 1:
        raise ValueError("tight light diamond expects 0 < alpha < 1")
    return RadialWeight("light_diamond_tight", "l1", (
        ProfilePiece(0.0, 1.0, alpha, 1.0 - alpha, "core"),
        ProfilePiece(1.0, math.inf, 1.0, 0.0, "outside"),
    ), alpha=alpha)


def lite_dmd_heavy_core() -> RadialWeight:
    """Continuous l1-radial weight with an expensive center and a cheap ring.

    0.75 - 0.5 r on r < 0.5, r on 0.5 <= r < 1, and 1 outside; the pieces
    match at both breakpoints so the weight is continuous.
    """
    return RadialWeight("lite_dmd_heavy_core", "l1", (
        ProfilePiece(0.0, 0.5, 0.75, -0.5, "K_in"),
        ProfilePiece(0.5, 1.0, 0.0, 1.0, "K_ann"),
        ProfilePiece(1.0, math.inf, 1.0, 0.0, "K_out"),
    ))


def three_heavy_diamonds(alpha: float = SQRT2) -> MultiDiamondWeight:
    return MultiDiamondWeight(alpha=alpha)


def constant(c: float = 1.0) -> ConstantWeight:
    return ConstantWeight(c)


def layered_horizontal(layers) -> LayeredWeight:
    return LayeredWeight(tuple((float(d), float(w)) for d, w in layers))


_CATALOG = {
    "constant": ("c > 0, default 1",
                 "uniform speed; geodesics are straight chords"),
    "heavy_diamond": ("alpha > 1, default sqrt(3/2)",
                      "slow diamond of l1 radius 1/2; corner or refracted routes"),
    "heavy_disk": ("alpha >= pi/2, default 2",
                   "slow disk of radius 1/2; arc-hugging routes"),
    "light_diamond": ("0 < alpha < 1, default 1/2",
                      "fast diamond with a thin ramp shell; gliding level curves"),
    "light_diamond_tight": ("0 < alpha < 1, default 1/2",
                            "continuous radial interpolation; solution jumps on "
                            "the x-axis"),
    "lite_dmd_heavy_core": ("no parameter",
                            "continuous weight, costly center, cheap ring; "
                            "non-unique solutions"),
    "three_heavy_diamonds": ("alpha >= sqrt(2), default sqrt(2)",
                             "two large and one small slow diamond; level bands "
                             "with tied routes"),
    "layered_horizontal": ("layers = (depth, weight) pairs, depths increasing",
                           "horizontally stratified medium below the x-axis"),
    "custom_piecewise": ("pieces over l1/l2 balls and half-planes",
                         "user-defined regional weight, affine in l1 distance"),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


def catalog_describe(name: str) -> tuple[str, str]:
    """(parameter range, one-line behaviour note) for a catalog entry."""
    return _CATALOG[name]


def make_weight(name: str, alpha: float | None = None, *,
                layers=None, pieces=None, default: float = 1.0) -> WeightField:
    """Build a catalog weight by name, using defaults for omitted parameters."""
    if name not in _CATALOG:
        raise KeyError(f"unknown weight {name!r}; known: {', '.join(_CATALOG)}")
    if name == "layered_horizontal":
        if layers is None:
            raise ValueError("layered_horizontal needs layers=[(depth, weight), ...]")
        return layered_horizontal(layers)
    if name == "custom_piecewise":
        if pieces is None:
            raise ValueError("custom_piecewise needs pieces=...")
        return CustomWeight(tuple(pieces), default=default)
    if name == "lite_dmd_heavy_core":
        if alpha is not None:
            raise ValueError("lite_dmd_heavy_core takes no parameter")
        return lite_dmd_heavy_core()
    builders = {
        "constant": constant,
        "heavy_diamond": heavy_diamond,
        "heavy_disk": heavy_disk,
        "light_diamond": light_diamond,
        "light_diamond_tight": light_diamond_tight,
        "three_heavy_diamonds": three_heavy_diamonds,
    }
    builder = builders[name]
    return builder() if alpha is None else builder(alpha)
