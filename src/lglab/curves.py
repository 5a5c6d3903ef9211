"""Level curves of the stacked solution for boundary data f(x, y) = y + 1.

The level-t curve connects the two boundary points at height t - 1 by a
weighted-shortest path.  Each catalog weight admits an explicit construction:

* constant: the straight chord.
* heavy diamond: chord, or a route kinked at an edge entry point or at the
  top/bottom tip, minimized over the entry-height family.
* heavy disk: chord, or tangent + rim arc + tangent around the slow disk.
* three diamonds: piecewise-affine routes through diamond tips, with a level
  band where the route over the small diamond ties the route under it.
* continuous l1-radial weights (light diamond, tight interpolation, heavy
  core with light ring): curves assembled from refracted quadrant sweeps,
  solved per level from three candidate families (chord, axis-touching band
  curve, apex curve) by exit-height bisection and least weighted length.

Sweeps work in the first quadrant on a shell grid: crossing a shell of
thickness dr with angle theta from the edge normal advances by
dx = (dr/2)(1 + tan), dy = (dr/2)(1 - tan) moving outward (drift toward +x),
and dx = -(dr/2)(1 + tan), dy = (dr/2)(tan - 1) moving inward; sin(theta) in
each shell is the conserved kappa over the shell weight.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize_scalar

from .paths import Polyline, rim_wrap, weighted_length
from .snell import SolverError
from .weights import (ConstantWeight, MultiDiamondWeight, RadialWeight,
                      WeightField, circle_hits)

SWEEP_SHELLS = 4096

BRANCHES = ("minimal", "maximal")


def boundary_points(t: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """The two unit-circle points where y + 1 = t."""
    if not 0.0 < t < 2.0:
        raise ValueError("level must lie in (0, 2)")
    h = t - 1.0
    xb = math.sqrt(max(0.0, 1.0 - h * h))
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
        h = self.level - 1.0
        return math.sqrt(max(0.0, 1.0 - h * h))

    def y_at(self, x) -> np.ndarray:
        """Piecewise-linear graph value; constant beyond the endpoints."""
        arr = self.path.as_array()
        return np.interp(np.asarray(x, dtype=float), arr[:, 0], arr[:, 1])

    def graph(self, n: int = 257):
        xb = self.x_bound()
        xs = np.linspace(-xb, xb, n)
        return xs, self.y_at(xs)


def _chord(t: float) -> Polyline:
    (xa, h), (xc, _) = boundary_points(t)
    return Polyline(((xa, h), (xc, h)))


def _mirror_y(pts: np.ndarray) -> np.ndarray:
    out = pts.copy()
    out[:, 1] = -out[:, 1]
    return out


def _decimate(pts: np.ndarray, target: int = 512) -> np.ndarray:
    """Thin a dense sweep polyline, always keeping both endpoints."""
    if len(pts) <= target:
        return pts
    stride = max(1, len(pts) // target)
    idx = list(range(0, len(pts) - 1, stride))
    idx.append(len(pts) - 1)
    return pts[idx]


# ---------------------------------------------------------------- sweeps ----

def _w_at(w: RadialWeight, rho: float) -> float:
    return float(w.profile(np.array([float(rho)]))[0])


def _climb(w: RadialWeight, start, kappa: float,
           n_shells: int = SWEEP_SHELLS) -> np.ndarray:
    """Outward quadrant-1 sweep from start to the unit circle, drifting +x.

    start must satisfy x, y >= 0.  Raises on total internal reflection,
    which none of the curve families here is allowed to reach.
    """
    r, wk = w.shell_grid(n_shells)
    rho0 = start[0] + start[1]
    k0 = int(np.searchsorted(r, rho0 + 1e-13, side="right")) - 1
    # clip the partial first shell; the sweep ends at the outermost radius
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
    w_out = float(w.pieces[-1].offset)
    s_out = kappa / w_out
    c_out = math.sqrt(1.0 - s_out * s_out)
    v = ((c_out + s_out) / math.sqrt(2.0), (c_out - s_out) / math.sqrt(2.0))
    p = tuple(pts[-1])
    t = circle_hits(p, v, 1.0)[2]
    return np.vstack([pts, (p[0] + t * v[0], p[1] + t * v[1])])


def _glide_in(w: RadialWeight, a: float, n_shells: int = SWEEP_SHELLS):
    """Inward quadrant-1 sweep from (a, 0), horizontal launch, drifting up.

    Returns (event, y_cross, pts): event is 'ycross' when the path reaches
    the y-axis (y_cross = height there), 'sag' when it turns back down to
    y < 0 first, 'tir' when a shell reflects it.
    """
    r, wk = w.shell_grid(n_shells)
    k0 = int(np.searchsorted(r, a - 1e-13, side="left")) - 1
    radii = np.concatenate([[a], r[k0::-1] if k0 >= 0 else []])
    weights = wk[k0::-1] if k0 >= 0 else np.array([])
    # horizontal in the discrete launch shell, so the first step cannot sag
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
    # crossed the y-axis inside step i-1 -> i: interpolate the crossing
    f = xs[i - 1] / (xs[i - 1] - xs[i])
    yc = ys[i - 1] + f * (ys[i] - ys[i - 1])
    pts = np.vstack([np.column_stack([xs[:i], ys[:i]]), [0.0, yc]])
    return "ycross", float(yc), pts


def _exit_height(w: RadialWeight, c: float, n_shells: int = SWEEP_SHELLS) -> float:
    """Exit height on the unit circle of the horizontal departure from (c, 0)."""
    kappa = _w_at(w, c) / math.sqrt(2.0)
    return float(_climb(w, (c, 0.0), kappa, n_shells)[-1, 1])


def _apex_exit(w: RadialWeight, y0: float, n_shells: int = SWEEP_SHELLS) -> float:
    kappa = _w_at(w, y0) / math.sqrt(2.0)
    return float(_climb(w, (0.0, y0), kappa, n_shells)[-1, 1])


def _bisect(f, lo, hi, flo, fhi, iters=60):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


@lru_cache(maxsize=32)
def _core_geometry(w: RadialWeight, n_shells: int = SWEEP_SHELLS):
    """Tangency data for the heavy-core weight's shared inner arc.

    Finds the departure radius a* whose inward glide crosses the y-axis
    exactly where it turns horizontal; by the conserved quantity that height
    satisfies w(0, H*) = w(a*, 0).  Returns (a*, H*, arc vertices from
    (a*, 0) to (0, H*)).
    """

    def g(a):
        event, yc, _ = _glide_in(w, a, n_shells)
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
    a_star = _bisect(g, lo, hi, flo, fhi)
    h_star = 2.0 * (0.75 - a_star)
    _, yc, pts = _glide_in(w, a_star, n_shells)
    # the discrete sweep overshoots the crossing height first-order in the
    # shell width; rescale onto the conserved-quantity value, keeping the
    # path smooth instead of notching the apex vertex
    pts[:, 1] *= h_star / yc
    return a_star, h_star, pts


@lru_cache(maxsize=32)
def _apex_grid(w: RadialWeight, lo: float, hi: float,
               n_shells: int = SWEEP_SHELLS, n: int = 1024):
    y0s = np.linspace(lo, hi, n)
    exits = np.array([_apex_exit(w, y0, n_shells) for y0 in y0s])
    return y0s, exits


def _apex_candidates(w: RadialWeight, h: float, lo: float, hi: float,
                     n_shells: int) -> list[np.ndarray]:
    """All apex curves whose exit height equals h (dense grid + bisection)."""
    y0s, exits = _apex_grid(w, lo, hi, n_shells)
    diff = exits - h
    out = []
    sign_change = np.nonzero(np.diff(np.signbit(diff)))[0]
    for i in sign_change:
        y0 = _bisect(lambda y: _apex_exit(w, y, n_shells) - h,
                     y0s[i], y0s[i + 1], diff[i], diff[i + 1], iters=45)
        kappa = _w_at(w, y0) / math.sqrt(2.0)
        out.append(_climb(w, (0.0, y0), kappa, n_shells))
    if not out and np.min(np.abs(diff)) < 1e-5:
        # h sits in the hairline crack at a family seam: endpoint witness
        y0 = float(y0s[int(np.argmin(np.abs(diff)))])
        kappa = _w_at(w, y0) / math.sqrt(2.0)
        out.append(_climb(w, (0.0, y0), kappa, n_shells))
    return out


def _band_curve_pts(w: RadialWeight, c: float,
                    n_shells: int) -> np.ndarray:
    """Right half of an axis-touching curve: (c, 0) up to the circle."""
    kappa = _w_at(w, c) / math.sqrt(2.0)
    return _climb(w, (c, 0.0), kappa, n_shells)


def _assemble_symmetric(right: np.ndarray, h: float, xb: float) -> Polyline:
    """Mirror a right-half quadrant path into the full graph curve."""
    right = _decimate(right).copy()
    right[-1] = (xb, h)
    left = right[::-1].copy()
    left[:, 0] = -left[:, 0]
    return Polyline.from_points(np.vstack([left, right]))


def _radial_level_curve(w: RadialWeight, t: float, branch: str,
                        n_shells: int) -> Polyline:
    """Level curve for the continuous l1-radial weights."""
    h = t - 1.0
    xb = math.sqrt(max(0.0, 1.0 - h * h))
    is_core = w.kind == "lite_dmd_heavy_core"
    candidates: list[Polyline] = [_chord(t)]

    hstar = 0.0
    if is_core:
        a_star, hstar, arc = _core_geometry(w, n_shells)

    # axis-touching band curve
    c_lo = a_star if is_core else (0.5 if w.kind == "light_diamond" else 1e-9)
    c_hi = 1.0 - 1e-9 if w.kind != "light_diamond" else 0.55 - 1e-12
    band_top = _exit_height(w, c_lo + 1e-12, n_shells)
    in_band = 1e-12 < abs(h) < band_top
    at_seam = band_top <= abs(h) < band_top + 1e-5
    if in_band or at_seam:
        if in_band:
            e_lo = band_top - abs(h)
            e_hi = _exit_height(w, c_hi, n_shells) - abs(h)
            c = _bisect(lambda cc: _exit_height(w, cc, n_shells) - abs(h),
                        c_lo + 1e-12, c_hi, e_lo, e_hi, iters=45)
        else:
            c = c_lo + 1e-12
        right = _band_curve_pts(w, c, n_shells)
        if h < 0:
            right = _mirror_y(right)
        if is_core:
            # outer pieces at height h, shared inner arc lifted by the branch
            sign = 1.0 if branch == "minimal" else -1.0
            arc_thin = _decimate(arc)
            arc_l = arc_thin * (-1.0, sign)       # (-a*, 0) .. (0, sign H*)
            arc_r = arc_thin[::-1] * (1.0, sign)  # (0, sign H*) .. (a*, 0)
            right = _decimate(right).copy()
            right[-1] = (xb, h)
            left = right[::-1].copy()
            left[:, 0] = -left[:, 0]
            pts = np.vstack([left, arc_l, arc_r, right])
            candidates.append(Polyline.from_points(pts))
        else:
            candidates.append(_assemble_symmetric(right, h, xb))

    # apex curves above/below the band
    lo = (hstar + 1e-9) if is_core else 1e-6
    hi = 0.55 - 1e-9 if w.kind == "light_diamond" else 1.0 - 1e-9
    for right in _apex_candidates(w, abs(h), lo, hi, n_shells):
        if h < 0:
            right = _mirror_y(right)
        candidates.append(_assemble_symmetric(right, h, xb))
    if is_core and 1e-12 >= abs(h):
        # exactly level 1: the band curve degenerates to glides plus the arc
        sign = 1.0 if branch == "minimal" else -1.0
        arc_thin = _decimate(arc)
        arc_l = arc_thin * (-1.0, sign)
        arc_r = arc_thin[::-1] * (1.0, sign)
        pts = np.vstack([[(-1.0, 0.0)], arc_l, arc_r, [(1.0, 0.0)]])
        candidates.append(Polyline.from_points(pts))

    lengths = [weighted_length(c, w) for c in candidates]
    return candidates[int(np.argmin(lengths))]


# ------------------------------------------------------- heavy obstacles ----

def _heavy_diamond_route(alpha: float, xb: float, hh: float):
    """Best upper route for endpoint height hh: cost and entry parameter s.

    The route enters the diamond's upper-left edge at (-(1/2 - s), s),
    crosses horizontally, and exits symmetrically; s = max(hh, 0) is the
    straight chord's entry, s = 1/2 the tip route.
    """

    def cost(s):
        return 2.0 * math.hypot(xb - (0.5 - s), s - hh) + alpha * (1.0 - 2.0 * s)

    s_lo = max(hh, 0.0)
    res = minimize_scalar(cost, bounds=(s_lo, 0.5), method="bounded",
                          options={"xatol": 1e-12})
    best_s, best = float(res.x), float(res.fun)
    for s in (s_lo, 0.5):
        if cost(s) < best:
            best_s, best = s, cost(s)
    return best, best_s


def _heavy_diamond_curve(w: RadialWeight, t: float, branch: str) -> Polyline:
    alpha = w.alpha
    h = t - 1.0
    xb = math.sqrt(max(0.0, 1.0 - h * h))
    if abs(h) >= 0.5:
        return _chord(t)
    cost_top, s_top = _heavy_diamond_route(alpha, xb, h)
    cost_bot, s_bot = _heavy_diamond_route(alpha, xb, -h)
    m = math.sqrt(max(0.0, 0.25 - h * h))
    cost_chord = 2.0 * (xb - m) + 2.0 * alpha * m

    def build(s, sign):
        if sign * h > 0 and abs(s - sign * h) < 1e-9:
            return _chord(t)
        pts = [(-xb, h), (-(0.5 - s), sign * s), ((0.5 - s), sign * s), (xb, h)]
        return Polyline.from_points(np.array(pts))

    return _cheapest_by_branch([(cost_chord, _chord(t)),
                                (cost_top, build(s_top, 1.0)),
                                (cost_bot, build(s_bot, -1.0))], branch)


def _cheapest_by_branch(options, branch: str) -> Polyline:
    """Cheapest (cost, path) option.  Upper and lower routes tie exactly at
    h = 0; the minimal branch then takes the first tied path rising above
    the axis, the maximal branch the first one dipping below it."""
    best = min(o[0] for o in options)
    tied = [o for o in options if o[0] <= best + 1e-12]
    if len(tied) > 1:
        want = 1.0 if branch == "minimal" else -1.0
        for cost, poly in tied:
            if np.any(want * poly.as_array()[:, 1] > 1e-12):
                return poly
    return tied[0][1]


def _disk_wrap(xb: float, h: float, sign: float) -> tuple[float, Polyline]:
    """Tangent + rim arc + tangent around the half-radius disk."""
    psi = math.pi - math.asin(sign * h)
    phi_l = psi - math.pi / 3.0
    phi_r = math.pi - phi_l
    cost = math.sqrt(3.0) + 0.5 * (phi_l - phi_r)
    return cost, rim_wrap((-xb, h), (xb, h), 0.5, phi_l, phi_r, sign)


def _heavy_disk_curve(w: RadialWeight, t: float, branch: str) -> Polyline:
    h = t - 1.0
    xb = math.sqrt(max(0.0, 1.0 - h * h))
    if abs(h) >= 0.5:
        return _chord(t)
    m = math.sqrt(max(0.0, 0.25 - h * h))
    cost_chord = 2.0 * (xb - m) + 2.0 * w.alpha * m
    return _cheapest_by_branch([(cost_chord, _chord(t)),
                                _disk_wrap(xb, h, +1.0),
                                _disk_wrap(xb, h, -1.0)], branch)


def _three_diamond_candidates(t: float) -> list[tuple[str, Polyline]]:
    h = t - 1.0
    xb = math.sqrt(max(0.0, 1.0 - h * h))
    routes = {
        "chord": [(-xb, h), (xb, h)],
        "bottom": [(-xb, h), (-0.5, -0.25), (0.5, -0.25), (xb, h)],
        "top_over": [(-xb, h), (-0.5, 0.25), (0.0, 0.375), (0.5, 0.25), (xb, h)],
        "top_under": [(-xb, h), (-0.5, 0.25), (0.0, 0.125), (0.5, 0.25), (xb, h)],
        "apex_over": [(-xb, h), (0.0, 0.375), (xb, h)],
        "apex_under": [(-xb, h), (0.0, 0.125), (xb, h)],
    }
    out = []
    for name, pts in routes.items():
        try:
            out.append((name, Polyline.from_points(np.array(pts))))
        except ValueError:
            pass
    return out


def _three_diamond_curve(w: MultiDiamondWeight, t: float,
                         branch: str) -> Polyline:
    valid = []
    for name, poly in _three_diamond_candidates(t):
        cost = weighted_length(poly, w)
        if name != "chord" and cost > poly.euclidean_length() + 1e-9:
            continue  # a detour route crossing a diamond interior is never it
        valid.append((cost, name, poly))
    best = min(v[0] for v in valid)
    tied = [v for v in valid if v[0] <= best + 1e-12]
    if len(tied) > 1:
        over = [v for v in tied if "over" in v[1] or v[1] == "chord"]
        pick = over if branch == "minimal" else \
            [v for v in tied if v not in over] or tied
        # minimal wants the upper curve: highest midpoint wins
        pick.sort(key=lambda v: -float(np.max(v[2].as_array()[:, 1])))
        if branch == "maximal":
            pick.sort(key=lambda v: float(np.min(v[2].as_array()[:, 1])))
        return pick[0][2]
    return tied[0][2]


def level_curve(w: WeightField, t: float, branch: str = "minimal",
                n_shells: int = SWEEP_SHELLS) -> LevelCurve:
    """Weighted-shortest level curve between boundary_points(t).

    branch resolves ties between equally short upper and lower routes:
    'minimal' takes the upper curve (smaller superlevel set), 'maximal' the
    lower one.
    """
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}")
    if not 0.0 < t < 2.0:
        raise ValueError("level must lie in (0, 2)")
    if isinstance(w, ConstantWeight):
        return LevelCurve(t, branch, _chord(t))
    if isinstance(w, MultiDiamondWeight):
        return LevelCurve(t, branch, _three_diamond_curve(w, t, branch))
    if isinstance(w, RadialWeight):
        if w.kind == "heavy_diamond":
            return LevelCurve(t, branch, _heavy_diamond_curve(w, t, branch))
        if w.kind == "heavy_disk":
            return LevelCurve(t, branch, _heavy_disk_curve(w, t, branch))
        return LevelCurve(t, branch, _radial_level_curve(w, t, branch,
                                                         n_shells))
    raise NotImplementedError(
        f"no level-curve construction for {type(w).__name__}; "
        "use the grid oracle")
