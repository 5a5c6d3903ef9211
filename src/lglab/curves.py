"""Level curves of the stacked solution for boundary data f(x, y) = y + 1.

The level-t curve connects the two boundary points at height t - 1 by a
weighted-shortest path.  level_curve proposes the straight chord, each
catalog family adds its own routes, and _pick alone prices them and keeps
the cheapest, the branch deciding among tied ones:

* constant: the chord alone.
* heavy diamond: a route kinked at an edge entry point or at the top/bottom
  tip, minimized over the entry-height family.
* heavy disk: tangent + rim arc + tangent around the slow disk.
* three diamonds: piecewise-affine routes through diamond tips, with a level
  band where the route over the small diamond ties the route under it.
* continuous l1-radial weights (light diamond, tight interpolation, heavy
  core with light ring): curves assembled from refracted quadrant sweeps,
  from two families (axis-touching band curve, apex curve) solved per
  level by an exit-height root search.  Band curves exit at heights up to
  that of the innermost departure, apex curves down to the lowest exit in
  the apex table; a level in the gap between those two heights takes both
  family ends, that innermost band curve and the apex curve with the
  lowest exit.  On the core every band curve runs through one inner arc,
  the inward glide that reaches the y-axis where it turns horizontal.

Sweeps work in the first quadrant, in closed form on each piece of the
profile, which is affine in the l1 radius r: at angle theta from the edge
normal a sweep advances by (dr/2)(1 + tan, 1 - tan), where sin(theta) is the
conserved kappa over the weight, and the drift integral of tan over a piece
is a logarithm (see _drift).  Tables and root searches call _exit, which
walks the pieces in scalar floats and returns only where a sweep meets the
unit circle; _depart samples the same walk, uniformly in r on its sloped
pieces, for a curve that is drawn, and ends on the same exit bit for bit.
The core's arc is the root of one inward _sweep over its launch radius (see
_core_arc).  sweep_tables builds and caches all a weight's sweep data once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .paths import Polyline, rim_wrap, weighted_length
from .snell import SolverError
from .weights import (SQRT2, ConstantWeight, MultiDiamondWeight, RadialWeight,
                      WeightField, circle_hits)

_APEX_STARTS = 1024  # evenly spaced starts in the apex table
_SWEEP_SAMPLES = 1000  # vertices a drawn sweep puts on its sloped pieces

BRANCHES = ("minimal", "maximal")

# Candidates whose costs differ by at most this much are tied.
_TIE_TOL = 1e-12

# Bracket width to which _refine pins a sweep root.
_ROOT_TOL = 1e-15


def _half_chord(h: float) -> float:
    """Half-width of the unit disk at height h."""
    return math.sqrt(max(0.0, 1.0 - h * h))


def boundary_points(t: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """The two unit-circle points where y + 1 = t."""
    if not 0.0 < t < 2.0:
        raise ValueError("level must lie in (0, 2)")
    h = t - 1.0
    xb = _half_chord(h)
    if xb == 0.0:
        # t - 1 rounds to -1 below about 1.1e-16
        raise ValueError(f"level {t!r} rounds onto the rim: its chord has "
                         "zero width")
    return (-xb, h), (xb, h)


@dataclass(frozen=True)
class LevelCurve:
    """A level-t curve stored as an x-monotone vertex polyline."""

    level: float
    branch: str
    path: Polyline

    def __post_init__(self):
        arr = self.path.as_array()
        if np.any(np.diff(arr[:, 0]) < -1e-12):
            raise SolverError(f"level-{self.level:g} curve is not a graph "
                              "in x")

    def x_bound(self) -> float:
        return _half_chord(self.level - 1.0)

    def y_at(self, x) -> np.ndarray:
        """Piecewise-linear graph value; constant beyond the endpoints."""
        arr = self.path.as_array()
        return np.interp(np.asarray(x, dtype=float), arr[:, 0], arr[:, 1])


def _chord(h: float, xb: float) -> Polyline:
    return Polyline(((-xb, h), (xb, h)))


def _pick(w: WeightField, paths: list[Polyline], branch: str) -> Polyline:
    """The cheapest of the candidate paths, all priced by their weighted
    lengths in one pass; a sole candidate is returned unpriced.

    Paths within _TIE_TOL of the cheapest are tied.  Among them the
    minimal branch takes the path highest at x = 0 (the smaller superlevel
    set), the maximal branch the lowest; list order breaks any remaining tie.
    """
    if len(paths) > 1:
        costs = weighted_length(paths, w)
        best = min(costs)
        paths = [path for cost, path in zip(costs, paths)
                 if cost <= best + _TIE_TOL]
    sign = 1.0 if branch == "minimal" else -1.0
    return max(paths, key=lambda path: sign * np.interp(
        0.0, *path.as_array().T))


# ---------------------------------------------------------------- sweeps ----

def _drift(w0, slope, dr, kappa, xp=math):
    """Signed tangential drift of a sweep at conserved kappa across dr of a
    profile piece from weight w0: the integral of kappa / sqrt(w^2 - kappa^2)
    over the l1 radius, (kappa / slope) log1p(z) with s = sqrt(w^2 - kappa^2)
    and z = (w1 - w0)(1 + (w1 + w0) / (s1 + s0)) / (w0 + s0).  w1 - w0 is
    slope dr, so that a nearly flat piece does not cancel and log1p(z) / z
    tends to 1 with the slope.  Weights are in units of kappa, so that a tiny
    one neither under- nor overflows.  xp is math, or numpy for arrays; an
    array of slopes may hold no 0.
    """
    w0, w1 = w0 / kappa, (w0 + slope * dr) / kappa
    # s is 0 at a turning point, where rounding may leave either sign
    s0 = xp.sqrt(abs(w0 - 1.0)) * xp.sqrt(w0 + 1.0)
    s1 = xp.sqrt(abs(w1 - 1.0)) * xp.sqrt(w1 + 1.0)
    q = dr * (1.0 + (w1 + w0) / (s1 + s0)) / (w0 + s0)
    z = slope * q / kappa
    flat = not isinstance(slope, np.ndarray) and not slope
    return q if flat else q * (xp.log1p(z) / z)


def _sweep(w: RadialWeight, start, kappa, r_end, pts=None):
    """A quadrant-1 sweep at conserved kappa from start to l1 radius r_end,
    outward drifting +x or inward drifting up: crossing a piece from radius
    r0 to r1 with drift T moves it ((r1 - r0 + T) / 2, (r1 - r0 - T) / 2).
    Returns its end.  With pts, a list, appends the vertices after start:
    each piece end and _SWEEP_SAMPLES more, shared among the sloped pieces in
    proportion to the widths crossed and uniform in radius on each.  Raises
    where the weight falls to kappa, where the sweep would reflect."""
    x, y = start
    rho, w0 = x + y, None
    lo, hi = sorted((rho, r_end))
    legs = [(p.slope, min(max(rho, p.lo), p.hi), min(max(r_end, p.lo), p.hi),
             p.offset) for p in w.pieces if p.lo < hi and p.hi > lo]
    legs = legs if r_end > rho else legs[::-1]
    for slope, r0, r1, offset in legs:
        # carried over piece ends: sweep profiles are continuous, and an
        # offset can cancel (the light diamond's ramp from alpha - 10)
        w0 = offset + slope * r0 if w0 is None else w0
        if min(w0, w0 + slope * (r1 - r0)) <= kappa:
            raise ValueError("sweep hit total internal reflection")
        if pts is not None and slope:
            span = sum(abs(b - a) for s, a, b, _ in legs if s)
            m = max(1, round(_SWEEP_SAMPLES * abs(r1 - r0) / span))
            dr = (r1 - r0) * np.arange(1, m) / m
            t = _drift(w0, slope, dr, kappa, np)
            pts.append(np.column_stack([x + 0.5 * (dr + t),
                                        y + 0.5 * (dr - t)]))
        t = _drift(w0, slope, r1 - r0, kappa)
        x, y = x + 0.5 * (r1 - r0 + t), y + 0.5 * (r1 - r0 - t)
        w0 += slope * (r1 - r0)
        if pts is not None:
            pts.append((x, y))
    return x, y


def _exit(w: RadialWeight, x: float, y: float,
          pts=None) -> tuple[float, float]:
    """Where the outward sweep leaving (x, y), a point on an axis, meets the
    unit circle: horizontally, at 45 degrees to the edge normal, so kappa is
    w(x, y)/sqrt(2).  Its last leg is straight, in the outer piece.  With
    pts, appends the sweep's vertices before the exit (see _sweep)."""
    kappa = w.profile_at(abs(x) + abs(y)) / SQRT2
    x, y = _sweep(w, (x, y), kappa, w.pieces[-1].lo, pts)
    s_out = kappa / w.pieces[-1].offset
    c_out = math.sqrt(1.0 - s_out * s_out)
    v = ((c_out + s_out) / SQRT2, (c_out - s_out) / SQRT2)
    t = circle_hits((x, y), v, 1.0, math)[2]
    return x + t * v[0], y + t * v[1]


def _depart(w: RadialWeight, start) -> np.ndarray:
    """The drawn outward sweep from start, a point on an axis, to its exit
    _exit(w, *start), which is its last point."""
    pts = [start]
    end = _exit(w, *start, pts)
    return np.vstack([*pts, end])


def _refine(f, lo, hi, flo, fhi):
    """Sign change of f in [lo, hi] to within _ROOT_TOL; flo, fhi are f there.

    Illinois regula falsi: an end kept twice in a row has its value halved,
    and each step stays _ROOT_TOL inside the bracket, so a converged end is
    confirmed in one step.  Ends of one sign give hi, as bisection would.
    """
    if (flo > 0) == (fhi > 0):
        return hi
    moved = 0  # the end the last step moved (-1 lo, +1 hi); the other was kept
    while hi - lo > 2.0 * _ROOT_TOL:
        x = hi - fhi * (hi - lo) / (fhi - flo)
        x = min(max(x, lo + _ROOT_TOL), hi - _ROOT_TOL)
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0) == (flo > 0):
            lo, flo, fhi = x, fx, fhi * (0.5 if moved < 0 else 1.0)
            moved = -1
        else:
            hi, fhi, flo = x, fx, flo * (0.5 if moved > 0 else 1.0)
            moved = 1
    return 0.5 * (lo + hi)


def _core_arc(w: RadialWeight) -> np.ndarray:
    """The heavy-core weight's shared inner arc, from (a*, 0) to (0, H*).

    The inward glide from (a*, 0), launched horizontally, turns horizontal
    where it crosses the y-axis; by the conserved quantity that height
    satisfies w(0, H*) = w(a*, 0), so H* = 2 (0.75 - a*) on the core's
    piece.  a* is the root of minus the x at which the glide from (a, 0)
    reaches l1 radius 2 (0.75 - a): x falls all the way in, so it is
    negative where the glide crossed the axis further out.  A glide that
    reflects first reads as +1.
    """

    def glide(a, pts=None):
        return _sweep(w, (a, 0.0), w.profile_at(a) / SQRT2, 2.0 * (0.75 - a),
                      pts)

    def g(a):
        try:
            return -glide(a)[0]
        except ValueError:
            return 1.0

    lo, hi = 0.55, 0.74
    flo, fhi = g(lo), g(hi)
    if not flo < 0 < fhi:
        raise SolverError("inner-arc bracket failed")
    a_star = _refine(g, lo, hi, flo, fhi)
    pts = [(a_star, 0.0)]
    glide(a_star, pts)
    pts[-1] = (0.0, 2.0 * (0.75 - a_star))  # on the y-axis, y is the radius
    return np.vstack(pts)


def _assemble_symmetric(right: np.ndarray, h: float, xb: float,
                        inner: np.ndarray = np.empty((0, 2))) -> Polyline:
    """Full graph curve from a first-quadrant right half.

    The half is flipped below the axis when h < 0, pinned to (xb, h) at its
    end and mirrored in x; inner, running left to right, joins the halves.
    """
    right = right * (1.0, -1.0 if h < 0 else 1.0)
    right[-1] = (xb, h)
    left = right[::-1] * (-1.0, 1.0)
    return Polyline.from_points(np.vstack([left, inner, right]))


# Sweep bounds per radial kind: band curves depart the x-axis at c in
# (c_lo, c_hi], apex curves the y-axis at y0 in [y_lo, y_hi].  The core's
# lower bounds are offsets from its inner-arc tangency point (a*, H*).
_SWEEP_BOUNDS = {
    "light_diamond": (0.5, 0.55 - 1e-12, 1e-6, 0.55 - 1e-9),
    "light_diamond_tight": (1e-9, 1.0 - 1e-9, 1e-6, 1.0 - 1e-9),
    "lite_dmd_heavy_core": (0.0, 1.0 - 1e-9, 1e-9, 1.0 - 1e-9),
}


@lru_cache(maxsize=32)
def sweep_tables(w: WeightField):
    """The cached sweep data of a continuous l1-radial weight, None for
    others: its band range, the exit heights of the band curves departing
    the x-axis at both ends of it, the apex table of exit heights of
    _exit(w, 0, y0) for _APEX_STARTS starts y0 evenly spaced over the apex
    range, and the core's inner arc (no vertices on the other weights)."""
    if not (isinstance(w, RadialWeight) and w.name in _SWEEP_BOUNDS):
        return None
    c_lo, c_hi, y_lo, y_hi = _SWEEP_BOUNDS[w.name]
    arc = np.empty((0, 2))
    if w.name == "lite_dmd_heavy_core":
        arc = _core_arc(w)
        c_lo += arc[0, 0].item()  # a*
        y_lo += arc[-1, 1].item()  # H*
    band = (c_lo + 1e-12, c_hi)
    y0s = np.linspace(y_lo, y_hi, _APEX_STARTS)
    exits = np.array([_exit(w, 0.0, y0)[1] for y0 in y0s.tolist()])
    return band, tuple(_exit(w, c, 0.0)[1] for c in band), (y0s, exits), arc


def _radial_paths(w: RadialWeight, h: float, xb: float,
                  branch: str) -> list[Polyline]:
    """Band and apex routes for the continuous l1-radial weights."""
    (c_lo, c_hi), (band_top, band_end), (y0s, exits), arc = sweep_tables(w)
    # band curves run through the core's inner arc, lifted by the branch
    sign = 1.0 if branch == "minimal" else -1.0
    inner = np.vstack([arc * (-1.0, sign),       # (-a*, 0)..(0, ±H*)
                       arc[::-1] * (1.0, sign)])  # (0, ±H*)..(a*, 0)
    paths = []
    ah = abs(h)
    if band_top <= ah <= exits.min():
        # in the gap between the families: both family ends compete
        starts = [y0s[np.argmin(exits)]]
        paths.append(_assemble_symmetric(_depart(w, (c_lo, 0.0)),
                                         h, xb, inner))
    else:
        if 1e-12 < ah < band_top:  # the axis-touching band curve
            c = _refine(lambda cc: _exit(w, cc, 0.0)[1] - ah,
                        c_lo, c_hi, band_top - ah, band_end - ah)
            paths.append(_assemble_symmetric(_depart(w, (c, 0.0)),
                                             h, xb, inner))
        diff = exits - ah  # every apex curve whose exit height is ah
        starts = [_refine(lambda y: _exit(w, 0.0, y)[1] - ah,
                          *y0s[i:i + 2].tolist(), *diff[i:i + 2].tolist())
                  for i in np.nonzero(np.diff(np.signbit(diff)))[0]]
    paths += [_assemble_symmetric(_depart(w, (0.0, y0)), h, xb)
              for y0 in starts]
    if len(arc) and ah <= 1e-12:
        # exactly level 1: the band curve degenerates to glides plus the arc
        paths.append(_assemble_symmetric(np.array([(xb, h)]), h, xb, inner))
    return paths


# ------------------------------------------------------- heavy obstacles ----

def _diamond_detour(alpha: float, h: float, xb: float,
                    sign: float) -> Polyline | None:
    """Cheapest route kinked at the diamond's upper (sign = 1) or lower edge.

    The route enters the edge at (-(1/2 - s), sign s), crosses horizontally,
    and exits symmetrically; s = max(sign h, 0) is the straight chord's
    entry, s = 1/2 the tip route.  The cost is convex in s, with slope
    2 (cos p + sin p - alpha) for the entry segment's angle p from the
    horizontal.  So for alpha < sqrt(2) the minimum is where Snell's law
    holds at the edge, cos p + sin p = alpha, at the root below pi/4 since
    the segment is flatter than the edge; for larger alpha it is the tip.
    None when that minimum is the chord's own entry.
    """
    hh = sign * h
    best_s = 0.5
    if alpha < SQRT2:
        tan_p = math.tan(math.pi / 4 - math.acos(alpha / SQRT2))
        s = (hh + tan_p * (xb - 0.5)) / (1.0 - tan_p)
        best_s = min(max(s, hh, 0.0), 0.5)
    if hh > 0 and abs(best_s - hh) < 1e-9:
        return None
    pts = [(-xb, h), (-(0.5 - best_s), sign * best_s),
           ((0.5 - best_s), sign * best_s), (xb, h)]
    return Polyline.from_points(np.array(pts))


def _heavy_obstacle_paths(w: RadialWeight, h: float,
                          xb: float) -> list[Polyline]:
    """Heavy diamond or disk: detours above and below the obstacle when the
    chord meets it (|h| < 1/2).  _pick charges each its weighted length,
    since the rim wrap is lifted off the disk."""
    if abs(h) >= 0.5:
        return []
    paths = [rim_wrap((-xb, h), (xb, h), 0.5, s) if w.name == "heavy_disk"
             else _diamond_detour(w.pieces[0].offset, h, xb, s)
             for s in (1.0, -1.0)]
    return [path for path in paths if path is not None]


# Piecewise-affine three-diamond routes between the boundary points, in
# order: under everything, over the large tips and then over or under the
# small diamond, and straight to its top or bottom tip.
_THREE_DIAMOND_VIAS = (
    ((-0.5, -0.25), (0.5, -0.25)),
    ((-0.5, 0.25), (0.0, 0.375), (0.5, 0.25)),
    ((-0.5, 0.25), (0.0, 0.125), (0.5, 0.25)),
    ((0.0, 0.375),),
    ((0.0, 0.125),),
)


def _three_diamond_paths(h: float, xb: float) -> list[Polyline]:
    # a via level with h would be the chord itself, with collinear vertices
    return [Polyline.from_points(np.array([(-xb, h), *via, (xb, h)]))
            for via in _THREE_DIAMOND_VIAS if any(y != h for _, y in via)]


def level_curve(w: WeightField, t: float,
                branch: str = "minimal") -> LevelCurve:
    """Weighted-shortest level curve between boundary_points(t).

    branch resolves ties between equally short routes: 'minimal' takes the
    upper curve (smaller superlevel set), 'maximal' the lower one.
    """
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}")
    _, (xb, h) = boundary_points(t)
    if isinstance(w, ConstantWeight):
        routes = []
    elif isinstance(w, MultiDiamondWeight):
        routes = _three_diamond_paths(h, xb)
    elif isinstance(w, RadialWeight) and w.name in ("heavy_diamond",
                                                    "heavy_disk"):
        routes = _heavy_obstacle_paths(w, h, xb)
    elif isinstance(w, RadialWeight) and w.name in _SWEEP_BOUNDS:
        routes = _radial_paths(w, h, xb, branch)
    else:
        raise NotImplementedError(
            f"no level-curve construction for {type(w).__name__}; "
            "use the grid oracle")
    return LevelCurve(t, branch, _pick(w, [_chord(h, xb), *routes], branch))
