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
  lowest exit.

Sweeps work in the first quadrant on a shell grid: crossing a shell of
signed width dr (negative moving inward) at angle theta from the edge normal
advances by (dr/2)(1 + tan, 1 - tan), and sin(theta) in each shell is the
conserved kappa over the shell weight (see _shell_step).  Tables and root
searches read only where sweeps exit, as running sums of those steps (see
_exits); a sweep's path is built only for a curve that is drawn.
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
# (start, shell) pairs per temporary of a blocked sweep (an _exits chunk, a
# tracer leg), 96 KiB: at 2^15 pairs the allocator handed the temporaries
# back after each block, and every block page-faulted them in again
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


def _decimate(pts: np.ndarray) -> np.ndarray:
    """Thin a dense sweep polyline, always keeping both endpoints."""
    if len(pts) <= _DECIMATE_TARGET:
        return pts
    return pts[[*range(0, len(pts) - 1, len(pts) // _DECIMATE_TARGET), -1]]


# ---------------------------------------------------------------- sweeps ----

def _shell_step(s):
    """(tir, tan): the shells that reflect a sweep and tan(theta) in each,
    in place on s = sin(theta) = kappa / weight, clipped below 1."""
    tir = s >= 1.0 - 1e-13
    np.minimum(s, 1.0 - 1e-13, out=s)
    tan = np.multiply(s, s)
    np.sqrt(np.subtract(1.0, tan, out=tan), out=tan)
    return tir, np.divide(s, tan, out=tan)


def _run(radii, weights, kappa):
    """Offsets from its start of a monotone run across l1 shells.

    radii[..., k] are the shell radii in the order crossed, rising outward
    and falling inward; weights[..., k] is the weight between radii k and
    k + 1.  A shell of signed width dr moves the run (dr/2)(1 + tan,
    1 - tan), tan from _shell_step.  Returns (tir, offsets): the reflecting
    shells, and the x and y offsets at each radius, summed in shell order.
    """
    # in place, so that a block's temporaries stay few (see _BLOCK)
    s = kappa / weights
    tir, tan = _shell_step(s)
    half = np.subtract(radii[..., 1:], radii[..., :-1])
    half *= 0.5
    offsets = np.zeros((2, *radii.shape))
    np.add(1.0, tan, out=s)
    np.cumsum(np.multiply(half, s, out=s), axis=-1, out=offsets[0, ..., 1:])
    np.subtract(1.0, tan, out=s)
    np.cumsum(np.multiply(half, s, out=s), axis=-1, out=offsets[1, ..., 1:])
    return tir, offsets


def _climb(w: RadialWeight, start, kappa):
    """Outward quadrant-1 sweep from start (x, y >= 0) to the unit circle,
    drifting +x, at conserved kappa.  Raises on total internal reflection,
    which no curve family here may reach."""
    r, wk = w.shell_grid(SWEEP_SHELLS)
    rho0 = start[0] + start[1]
    k0 = int(np.searchsorted(r, rho0 + 1e-13, side="right")) - 1
    # clip the partial first shell; the sweep ends at the outermost radius
    tir, offsets = _run(np.append(rho0, r[k0 + 1:]), wk[k0:-1], kappa)
    if np.any(tir):
        raise ValueError("sweep hit total internal reflection")
    pts = start + offsets.T
    return np.vstack([pts, _rim_step(pts[-1], kappa, w)])


def _rim_step(p, kappa, w: RadialWeight) -> np.ndarray:
    """Where the straight outer legs of sweeps from points p (..., 2), one
    kappa each, meet the unit circle."""
    s_out = np.divide(kappa, float(w.pieces[-1].offset))
    c_out = np.sqrt(1.0 - s_out * s_out)
    # c + (-s) is c - s exactly
    v = (c_out[..., None] + s_out[..., None] * (1.0, -1.0)) / SQRT2
    t = circle_hits((p[..., 0], p[..., 1]), (v[..., 0], v[..., 1]), 1.0)[2]
    return p + t[..., None] * v


def _exits(w: RadialWeight, start, kappa) -> np.ndarray:
    """Last point of _climb(w, start, kappa), bit for bit, with no path; a
    block's starts must rise in l1 radius.  Row 0 of a shells-major buffer
    holds the running offsets; np.add.reduce adds the next shells' steps
    below it row by row, as cumsum does (a lone column it adds pairwise)."""
    r, wk = w.shell_grid(SWEEP_SHELLS)
    starts, kappas = start.reshape(-1, 2), kappa.reshape(-1)
    rho0 = starts[:, 0] + starts[:, 1]
    k0 = np.searchsorted(r, rho0 + 1e-13, side="right") - 1
    rows = max(2, min(_BLOCK // len(k0), len(r) - int(k0[0])))
    buf = np.zeros((2, rows, len(k0)))
    for k in range(int(k0[0]), len(r) - 1, rows - 1):
        n = min(rows, len(r) - k)  # radii k .. k + n - 1
        # columns [:p] started below these shells, [p:m] start among them
        p, m = k0.searchsorted([k - 1, k + n - 2], side="right")
        inside = np.arange(k, k + n)[:, None] <= k0[p:m]
        radii = np.where(inside, rho0[p:m], r[k:k + n, None])
        s = kappas[:m] / wk[k:k + n - 1, None]
        np.copyto(s[:, p:], 0.0, where=inside[1:])  # no reflection inside
        tir, tan = _shell_step(s)
        if tir.any():
            raise ValueError("sweep hit total internal reflection")
        sums = buf[:, :n, :m]
        np.add(1.0, tan, out=sums[0, 1:])
        np.subtract(1.0, tan, out=sums[1, 1:])
        sums[:, 1:, :p] *= (r[k + 1:k + n] - r[k:k + n - 1])[:, None] * 0.5
        sums[:, 1:, p:] *= (radii[1:] - radii[:-1]) * 0.5
        sums[:, 0] = (np.add.reduce(sums, axis=1) if m > 1
                      else np.cumsum(sums, axis=1)[:, -1])
    return _rim_step(start + buf[:, 0].T.reshape(start.shape), kappa, w)


def _depart(w: RadialWeight, start, exits: bool = False) -> np.ndarray:
    """Outward sweep leaving start, a point on an axis (or with exits, only
    the exits of a point or block): horizontally, at 45 degrees to the edge
    normal, so kappa is w(start)/sqrt(2)."""
    start = np.asarray(start, dtype=float)
    kappa = w.values(start[..., 0], start[..., 1]) / SQRT2
    return (_exits if exits else _climb)(w, start, kappa)


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
    evenly spaced over [lo, hi], from running shell sums, with no paths."""
    y0s = np.linspace(lo, hi, _APEX_STARTS)
    return y0s, _depart(w, y0s[:, None] * (0.0, 1.0), exits=True)[:, 1]


@lru_cache(maxsize=32)
def _band_ends(w: RadialWeight, lo: float, hi: float):
    """Exit heights of the band curves departing the x-axis at lo and hi,
    from running shell sums, with no paths."""
    return tuple(_depart(w, [(lo, 0.0), (hi, 0.0)], exits=True)[:, 1])


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


def sweep_tables(w: WeightField):
    """Build the cached sweep data of a continuous l1-radial weight, and
    return its band range, band ends and apex table; None for others."""
    if not (isinstance(w, RadialWeight) and w.name in _SWEEP_BOUNDS):
        return None
    c_lo, c_hi, y_lo, y_hi = _SWEEP_BOUNDS[w.name]
    if w.name == "lite_dmd_heavy_core":
        a_star, h_star, _ = _core_geometry(w)
        c_lo, y_lo = a_star + c_lo, h_star + y_lo
    band = (c_lo + 1e-12, c_hi)
    return band, _band_ends(w, *band), _apex_grid(w, y_lo, y_hi)


def _radial_paths(w: RadialWeight, h: float, xb: float,
                  branch: str) -> list[Polyline]:
    """Band and apex routes for the continuous l1-radial weights."""
    (c_lo, c_hi), (band_top, band_end), (y0s, exits) = sweep_tables(w)
    is_core = w.name == "lite_dmd_heavy_core"
    inner = np.empty((0, 2))
    if is_core:
        # band curves run through the shared inner arc, lifted by the branch
        sign = 1.0 if branch == "minimal" else -1.0
        arc_thin = _decimate(_core_geometry(w)[2])
        inner = np.vstack([arc_thin * (-1.0, sign),       # (-a*, 0)..(0, ±H*)
                           arc_thin[::-1] * (1.0, sign)])  # (0, ±H*)..(a*, 0)
    paths = []
    ah = abs(h)
    if band_top <= ah <= exits.min():
        # in the gap between the families: both family ends compete
        starts = [y0s[np.argmin(exits)]]
        paths.append(_assemble_symmetric(_depart(w, (c_lo, 0.0)),
                                         h, xb, inner))
    else:
        if 1e-12 < ah < band_top:  # the axis-touching band curve
            c = _refine(lambda cc: _depart(w, (cc, 0.0), exits=True)[1] - ah,
                        c_lo, c_hi, band_top - ah, band_end - ah)
            paths.append(_assemble_symmetric(_depart(w, (c, 0.0)),
                                             h, xb, inner))
        diff = exits - ah  # every apex curve whose exit height is ah
        starts = [_refine(lambda y: _depart(w, (0.0, y), exits=True)[1] - ah,
                          y0s[i], y0s[i + 1], diff[i], diff[i + 1])
                  for i in np.nonzero(np.diff(np.signbit(diff)))[0]]
    paths += [_assemble_symmetric(_depart(w, (0.0, y0)), h, xb)
              for y0 in starts]
    if is_core and ah <= 1e-12:
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
