"""Level curves of the stacked solution for boundary data f(x, y) = y + 1.

The level-t curve connects the two boundary points at height t - 1 by a
weighted-shortest path.  Each catalog weight proposes explicit (cost, path)
candidates, and one rule picks among them for every weight:

* constant: the straight chord.
* heavy diamond: chord, or a route kinked at an edge entry point or at the
  top/bottom tip, minimized over the entry-height family.
* heavy disk: chord, or tangent + rim arc + tangent around the slow disk.
* three diamonds: piecewise-affine routes through diamond tips, with a level
  band where the route over the small diamond ties the route under it.
* continuous l1-radial weights (light diamond, tight interpolation, heavy
  core with light ring): curves assembled from refracted quadrant sweeps,
  from three candidate families (chord, axis-touching band curve, apex
  curve) solved per level by an exit-height root search.  Band curves
  exit at heights up to that of the innermost departure, apex curves down
  to the lowest exit in the apex table; a level in the gap between those
  two heights takes both family ends, that innermost band curve and the
  apex curve with the lowest exit.

The pick keeps the cheapest candidates; among tied ones the branch decides
(see _pick).

Sweeps work in the first quadrant on a shell grid: crossing a shell of
signed width dr (negative moving inward) at angle theta from the edge normal
advances by (dr/2)(1 + tan, 1 - tan), and sin(theta) in each shell is the
conserved kappa over the shell weight (see _run).
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

SWEEP_SHELLS = 4096  # l1 shells each level-curve sweep crosses
_APEX_STARTS = 1024  # evenly spaced starts in the apex table
# (start, shell) pairs per apex-table block: its temporaries, under 1 MB, are
# reused block to block; at 2^15 pairs the allocator handed them back after
# each block, and every block page-faulted them in again
_BLOCK = 12288

BRANCHES = ("minimal", "maximal")

# Candidates whose costs differ by at most this much are tied.
_TIE_TOL = 1e-12

# Bracket width to which _refine pins a sweep root.
_ROOT_TOL = 1e-15

_DECIMATE_TARGET = 512  # vertex count _decimate thins a sweep polyline to


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
            raise ValueError(f"level-{self.level:g} curve is not a graph in x")

    def x_bound(self) -> float:
        return _half_chord(self.level - 1.0)

    def y_at(self, x) -> np.ndarray:
        """Piecewise-linear graph value; constant beyond the endpoints."""
        arr = self.path.as_array()
        return np.interp(np.asarray(x, dtype=float), arr[:, 0], arr[:, 1])


def _chord(h: float, xb: float) -> Polyline:
    return Polyline(((-xb, h), (xb, h)))


def _pick(options, branch: str) -> Polyline:
    """The path of the cheapest (cost, path) option.

    Options within _TIE_TOL of the cheapest are tied.  Among them the
    minimal branch takes the path highest at x = 0 (the smaller superlevel
    set), the maximal branch the lowest; list order breaks any remaining tie.
    """
    best = min(cost for cost, _ in options)
    tied = [path for cost, path in options if cost <= best + _TIE_TOL]
    if len(tied) == 1:
        return tied[0]
    sign = 1.0 if branch == "minimal" else -1.0
    return max(tied, key=lambda path: sign * np.interp(
        0.0, *path.as_array().T))


def _decimate(pts: np.ndarray) -> np.ndarray:
    """Thin a dense sweep polyline, always keeping both endpoints."""
    if len(pts) <= _DECIMATE_TARGET:
        return pts
    stride = max(1, len(pts) // _DECIMATE_TARGET)
    idx = list(range(0, len(pts) - 1, stride))
    idx.append(len(pts) - 1)
    return pts[idx]


# ---------------------------------------------------------------- sweeps ----

def _run(radii, weights, kappa):
    """Offsets from its start of a monotone run across l1 shells.

    radii[..., k] are the shell radii in the order crossed, rising outward
    and falling inward; weights[..., k] is the weight between radii k and
    k + 1.  sin(theta) = kappa / weight for kappa >= 0, clipped below 1 on
    the shells that reflect the run; a shell of signed width dr moves it
    (dr/2)(1 + tan, 1 - tan).  Returns (tir, offsets): the reflecting
    shells, and the x and y offsets at each radius, summed in shell order.
    """
    # in place, so that a block's temporaries stay few (see _BLOCK)
    s = kappa / weights
    tir = s >= 1.0 - 1e-13
    np.minimum(s, 1.0 - 1e-13, out=s)
    tan = np.multiply(s, s)
    np.sqrt(np.subtract(1.0, tan, out=tan), out=tan)
    np.divide(s, tan, out=tan)
    half = np.subtract(radii[..., 1:], radii[..., :-1])
    half *= 0.5
    offsets = np.zeros((2, *radii.shape))
    np.add(1.0, tan, out=s)
    np.cumsum(np.multiply(half, s, out=s), axis=-1, out=offsets[0, ..., 1:])
    np.subtract(1.0, tan, out=s)
    np.cumsum(np.multiply(half, s, out=s), axis=-1, out=offsets[1, ..., 1:])
    return tir, offsets


def _climb(w: RadialWeight, start, kappa):
    """Outward quadrant-1 sweep from start to the unit circle, drifting +x.

    start is a point with x, y >= 0 and kappa its conserved quantity, or a
    block of points (m, 2) with m kappas.  A block crosses the shells from
    its innermost start on; a shell inside a row's start has zero width and
    infinite weight, so the row repeats its start, then matches its own
    sweep bit for bit.  Raises on total internal reflection, which none of
    the curve families here is allowed to reach.
    """
    r, wk = w.shell_grid(SWEEP_SHELLS)
    rho0 = start[..., :1] + start[..., 1:]
    k0 = np.searchsorted(r, rho0 + 1e-13, side="right") - 1
    kb = int(k0.min())
    # clip the partial first shell; the sweep ends at the outermost radius
    inside = np.arange(kb, len(r)) <= k0
    radii = np.where(inside, rho0, r[kb:])
    weights = np.where(inside[..., 1:], np.inf, wk[kb:-1])
    tir, offsets = _run(radii, weights, kappa[..., None])
    if np.any(tir):
        raise ValueError("sweep hit total internal reflection")
    pts = np.empty((*radii.shape[:-1], radii.shape[-1] + 1, 2))
    for j in (0, 1):
        np.add(start[..., j, None], offsets[j], out=pts[..., :-1, j])
    pts[..., -1, :] = _rim_step(pts[..., -2, :], kappa, w)
    return pts


def _rim_step(p, kappa, w: RadialWeight) -> np.ndarray:
    """Where the straight outer legs of sweeps from points p (..., 2), one
    kappa each, meet the unit circle."""
    s_out = np.divide(kappa, float(w.pieces[-1].offset))
    c_out = np.sqrt(1.0 - s_out * s_out)
    v = np.stack([c_out + s_out, c_out - s_out], axis=-1) / SQRT2
    t = circle_hits((p[..., 0], p[..., 1]), (v[..., 0], v[..., 1]), 1.0)[2]
    return p + t[..., None] * v


def _depart(w: RadialWeight, start) -> np.ndarray:
    """Outward sweep leaving start, a point (or block of points) on an axis,
    horizontally: at 45 degrees to the edge normal kappa is w(start)/sqrt(2).
    """
    start = np.asarray(start, dtype=float)
    kappa = w.values(start[..., 0], start[..., 1]) / SQRT2
    return _climb(w, start, kappa)


def _glide_in(w: RadialWeight, a: float):
    """Inward quadrant-1 sweep from (a, 0), horizontal launch, drifting up.

    Returns (event, y_cross, pts): event is 'ycross' when the path reaches
    the y-axis (y_cross = height there), 'sag' when it turns back down to
    y < 0 first, 'tir' when a shell reflects it.
    """
    r, wk = w.shell_grid(SWEEP_SHELLS)
    k0 = int(np.searchsorted(r, a - 1e-13, side="left")) - 1
    radii = np.concatenate([[a], r[k0::-1] if k0 >= 0 else []])
    weights = wk[k0::-1] if k0 >= 0 else np.array([])
    # horizontal in the discrete launch shell, so the first step cannot sag
    tir, offsets = _run(radii, weights, weights[0] / SQRT2)
    xs, ys = offsets + [[a], [0.0]]
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
    # crossed the y-axis inside step i-1 -> i: interpolate the crossing
    f = xs[i - 1] / (xs[i - 1] - xs[i])
    yc = ys[i - 1] + f * (ys[i] - ys[i - 1])
    pts = np.vstack([np.column_stack([xs[:i], ys[:i]]), [0.0, yc]])
    return "ycross", float(yc), pts


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


@lru_cache(maxsize=32)
def _core_geometry(w: RadialWeight):
    """Tangency data for the heavy-core weight's shared inner arc.

    Finds the departure radius a* whose inward glide crosses the y-axis
    exactly where it turns horizontal; by the conserved quantity that height
    satisfies w(0, H*) = w(a*, 0).  Returns (a*, H*, arc vertices from
    (a*, 0) to (0, H*)).
    """

    def g(a):
        event, yc, _ = _glide_in(w, a)
        if event == "sag":
            return -1.0
        if event == "tir":
            return 1.0
        r_horiz = 2.0 * (0.75 - a)
        return yc - r_horiz

    lo, hi = 0.55, 0.74
    flo, fhi = g(lo), g(hi)
    if not flo < 0 < fhi:
        raise SolverError("inner-arc bracket failed")
    a_star = _refine(g, lo, hi, flo, fhi)
    h_star = 2.0 * (0.75 - a_star)
    _, yc, pts = _glide_in(w, a_star)
    # the discrete sweep overshoots the crossing height first-order in the
    # shell width; rescale onto the conserved-quantity value, keeping the
    # path smooth instead of notching the apex vertex
    pts[:, 1] *= h_star / yc
    return a_star, h_star, pts


@lru_cache(maxsize=32)
def _apex_grid(w: RadialWeight, lo: float, hi: float):
    """Exit heights of _depart(w, (0, y0)) for _APEX_STARTS starts y0
    evenly spaced over [lo, hi], departing in blocks of at most about _BLOCK
    (start, shell) pairs; outer starts cross fewer shells, so more fit."""
    y0s = np.linspace(lo, hi, _APEX_STARTS)
    starts = np.column_stack([np.zeros_like(y0s), y0s])
    kappas = w.profile(y0s) / SQRT2
    r = w.shell_grid(SWEEP_SHELLS)[0]
    shells = len(r) - np.searchsorted(r, y0s)
    exits = np.empty_like(y0s)
    i = 0
    while i < len(y0s):
        b = slice(i, i + max(1, _BLOCK // int(shells[i])))
        exits[b] = _climb(w, starts[b], kappas[b])[:, -1, 1]
        i = b.stop
    return y0s, exits


@lru_cache(maxsize=32)
def _band_ends(w: RadialWeight, lo: float, hi: float):
    """Exit heights of the band curves departing the x-axis at lo and hi."""
    return tuple(_depart(w, (c, 0.0))[-1, 1] for c in (lo, hi))


def _assemble_symmetric(right: np.ndarray, h: float, xb: float,
                        inner: np.ndarray = np.empty((0, 2))) -> Polyline:
    """Full graph curve from a first-quadrant right half.

    The half is flipped below the axis when h < 0, pinned to (xb, h) at its
    end and mirrored in x; inner, running left to right, joins the halves.
    """
    right = _decimate(right) * (1.0, -1.0 if h < 0 else 1.0)
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


def _radial_options(w: RadialWeight, h: float, xb: float,
                    branch: str) -> list[tuple[float, Polyline]]:
    """Candidates for the continuous l1-radial weights."""
    c_lo, c_hi, y_lo, y_hi = _SWEEP_BOUNDS[w.name]
    is_core = w.name == "lite_dmd_heavy_core"
    inner = np.empty((0, 2))
    if is_core:
        a_star, h_star, arc = _core_geometry(w)
        c_lo, y_lo = a_star + c_lo, h_star + y_lo
        # band curves run through the shared inner arc, lifted by the branch
        sign = 1.0 if branch == "minimal" else -1.0
        arc_thin = _decimate(arc)
        inner = np.vstack([arc_thin * (-1.0, sign),       # (-a*, 0)..(0, ±H*)
                           arc_thin[::-1] * (1.0, sign)])  # (0, ±H*)..(a*, 0)
    paths = [_chord(h, xb)]
    ah = abs(h)
    band_top, band_end = _band_ends(w, c_lo + 1e-12, c_hi)
    y0s, exits = _apex_grid(w, y_lo, y_hi)
    if band_top <= ah <= exits.min():
        # in the gap between the families: both family ends compete
        starts = [y0s[np.argmin(exits)]]
        paths.append(_assemble_symmetric(_depart(w, (c_lo + 1e-12, 0.0)),
                                         h, xb, inner))
    else:
        if 1e-12 < ah < band_top:  # the axis-touching band curve
            c = _refine(lambda cc: _depart(w, (cc, 0.0))[-1, 1] - ah,
                        c_lo + 1e-12, c_hi, band_top - ah, band_end - ah)
            paths.append(_assemble_symmetric(_depart(w, (c, 0.0)),
                                             h, xb, inner))
        diff = exits - ah  # every apex curve whose exit height is ah
        starts = [_refine(lambda y: _depart(w, (0.0, y))[-1, 1] - ah,
                          y0s[i], y0s[i + 1], diff[i], diff[i + 1])
                  for i in np.nonzero(np.diff(np.signbit(diff)))[0]]
    paths += [_assemble_symmetric(_depart(w, (0.0, y0)), h, xb)
              for y0 in starts]
    if is_core and ah <= 1e-12:
        # exactly level 1: the band curve degenerates to glides plus the arc
        paths.append(_assemble_symmetric(np.array([(xb, h)]), h, xb, inner))
    return [(weighted_length(p, w), p) for p in paths]


# ------------------------------------------------------- heavy obstacles ----

def _diamond_detour(alpha: float, h: float, xb: float,
                    sign: float) -> Polyline:
    """Cheapest route kinked at the diamond's upper (sign = 1) or lower edge.

    The route enters the edge at (-(1/2 - s), sign s), crosses horizontally,
    and exits symmetrically; s = max(sign h, 0) is the straight chord's
    entry, s = 1/2 the tip route.  The cost is convex in s, with slope
    2 (cos p + sin p - alpha) for the entry segment's angle p from the
    horizontal.  So for alpha < sqrt(2) the minimum is where Snell's law
    holds at the edge, cos p + sin p = alpha, at the root below pi/4 since
    the segment is flatter than the edge; for larger alpha it is the tip.
    """
    hh = sign * h
    best_s = 0.5
    if alpha < SQRT2:
        tan_p = math.tan(math.pi / 4 - math.acos(alpha / SQRT2))
        s = (hh + tan_p * (xb - 0.5)) / (1.0 - tan_p)
        best_s = min(max(s, hh, 0.0), 0.5)
    if hh > 0 and abs(best_s - hh) < 1e-9:
        return _chord(h, xb)
    pts = [(-xb, h), (-(0.5 - best_s), sign * best_s),
           ((0.5 - best_s), sign * best_s), (xb, h)]
    return Polyline.from_points(np.array(pts))


def _heavy_obstacle_options(w: RadialWeight, h: float,
                            xb: float) -> list[tuple[float, Polyline]]:
    """Heavy diamond or disk: the chord, and detours above and below the
    obstacle when the chord meets it (|h| < 1/2).

    Each route is charged its weighted length, since the rim wrap is lifted
    off the disk.
    """
    paths = [_chord(h, xb)]
    if abs(h) < 0.5:
        if w.name == "heavy_diamond":
            paths += [_diamond_detour(w.pieces[0].offset, h, xb, sign)
                      for sign in (1.0, -1.0)]
        else:
            wraps = [rim_wrap((-xb, h), (xb, h), 0.5, s) for s in (1.0, -1.0)]
            paths += [path for path in wraps if path is not None]
    return [(weighted_length(p, w), p) for p in paths]


# Piecewise-affine three-diamond routes between the boundary points, in
# order: chord, under everything, over the large tips and then over or
# under the small diamond, and straight to its top or bottom tip.
_THREE_DIAMOND_VIAS = (
    (),
    ((-0.5, -0.25), (0.5, -0.25)),
    ((-0.5, 0.25), (0.0, 0.375), (0.5, 0.25)),
    ((-0.5, 0.25), (0.0, 0.125), (0.5, 0.25)),
    ((0.0, 0.375),),
    ((0.0, 0.125),),
)


def _three_diamond_options(w: MultiDiamondWeight, h: float,
                           xb: float) -> list[tuple[float, Polyline]]:
    out = []
    for via in _THREE_DIAMOND_VIAS:
        if via and all(y == h for _, y in via):
            continue  # the chord itself, with collinear vertices on it
        poly = Polyline.from_points(np.array([(-xb, h), *via, (xb, h)]))
        out.append((weighted_length(poly, w), poly))
    return out


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
        return LevelCurve(t, branch, _chord(h, xb))
    if isinstance(w, MultiDiamondWeight):
        options = _three_diamond_options(w, h, xb)
    elif isinstance(w, RadialWeight) and w.name in ("heavy_diamond",
                                                    "heavy_disk"):
        options = _heavy_obstacle_options(w, h, xb)
    elif isinstance(w, RadialWeight) and w.name in _SWEEP_BOUNDS:
        options = _radial_options(w, h, xb, branch)
    else:
        raise NotImplementedError(
            f"no level-curve construction for {type(w).__name__}; "
            "use the grid oracle")
    return LevelCurve(t, branch, _pick(options, branch))
