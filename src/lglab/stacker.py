"""Stack level curves into a solution field for boundary data y + 1.

The field value at a point is the largest level whose curve passes below
it; level curves are computed per level with a branch chosen by a switch
policy, and consecutive curves are checked to be nested before the field
is filled.  A point exactly on a curve counts as inside for the maximal
branch and outside for the minimal branch, so on a jump line the maximal
solution takes the upper value and the minimal solution the lower one.
Outside the open unit disk the field equals the boundary data clamped
to [0, 2].
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import LevelCurve, level_curve
from .paths import weighted_length
from .snell import SolverError
from .weights import WeightField

DEFAULT_LEVELS = 401
DEFAULT_RES = 512
_JUMP_SPACINGS = 5.0  # a curve gap over this many level spacings is a jump


def midpoint_levels(count: int = DEFAULT_LEVELS) -> np.ndarray:
    """count level values 2(i + 1/2)/count, strictly inside (0, 2)."""
    if count < 1:
        raise ValueError("count must be positive")
    i = np.arange(count, dtype=float)
    return 2.0 * (i + 0.5) / count


@dataclass(frozen=True)
class SwitchPolicy:
    """Branch selector: minimal strictly above the switch level, else maximal."""

    switch_level: float = 0.0

    def branch_for(self, t: float) -> str:
        return "minimal" if t > self.switch_level else "maximal"


ALL_MINIMAL = SwitchPolicy(0.0)
ALL_MAXIMAL = SwitchPolicy(2.0)


@dataclass
class GridField:
    """Scalar field sampled on the uniform node grid of [-1, 1]^2."""

    res: int
    values: np.ndarray  # shape (2 res + 1, 2 res + 1), indexed [iy, ix]

    @property
    def coords(self) -> np.ndarray:
        return np.linspace(-1.0, 1.0, 2 * self.res + 1)

    def value_at(self, x, y) -> np.ndarray:
        """Nearest-node sample; a finite point off the grid square takes
        the value of the nearest edge node."""
        return self.values[self._node(x, y)]

    def _node(self, x, y):
        """(iy, ix) of the nearest node, clamped to the grid square."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError(f"a grid lookup needs finite coordinates, got "
                             f"x={x}, y={y}")
        ix, iy = (np.clip(np.rint((c + 1.0) * self.res), 0, 2 * self.res)
                  .astype(int) for c in (x, y))
        return iy, ix


@dataclass
class SolutionStack:
    weight: WeightField
    levels: np.ndarray
    curves: tuple[LevelCurve, ...]
    field: GridField = field(repr=False)


class StackNestingError(SolverError):
    """Consecutive level curves cross by more than the grid tolerance."""


def _check_nesting(curves, xs, res):
    """Consecutive level curves may not cross by more than a grid cell.
    Returns ys, curve k sampled at xs in row k."""
    ys = np.array([lc.y_at(xs) for lc in curves])
    tol = max(1e-6, 0.5 / res)
    xb = np.array([lc.x_bound() for lc in curves])[:, None]
    g = np.where(np.abs(xs) <= xb, ys, np.nan)
    both = ~(np.isnan(g[:-1]) | np.isnan(g[1:]))
    worst = np.where(both, g[:-1] - g[1:], -np.inf).max(axis=1)
    crossed = np.flatnonzero(worst > tol)
    if crossed.size:
        k = crossed[0]
        raise StackNestingError(
            f"curves at levels {curves[k].level:.6g} and "
            f"{curves[k + 1].level:.6g} cross by {worst[k]:.3g} "
            f"(tol {tol:.3g})")
    return ys


def _disk_rows(xs):
    """Inside columns of each row of the node grid xs × xs: row j lies in the
    open disk, sq[j] + sq[i] < 1 - 1e-15 with sq = xs², exactly on
    a[j] <= i < b[j].

    The rounded sum is monotone in sq[i] and sq falls then rises along a
    row, so the inside columns of a row are one interval, and counting the
    columns each side of the centre with sq[i] < (1 - 1e-15) - sq[j] places
    its ends.  The count can disagree with the rounded test only within
    ~2e-16 of that threshold, and distinct sq differ by at least 1/res², so
    one step of the real test moves each end onto the interval.
    """
    sq = xs * xs
    mid = int(np.argmin(sq))
    thr = (1.0 - 1e-15) - sq
    a = mid - np.searchsorted(sq[:mid][::-1], thr)
    b = mid + np.searchsorted(sq[mid:], thr)
    ext = np.append(sq, np.inf)  # columns -1 and n lie outside

    def inside(i):
        return sq + ext[i] < 1.0 - 1e-15

    a -= inside(a - 1)
    a += (a < mid) & ~inside(a)
    b += inside(b)
    b -= (b > mid) & ~inside(b - 1)
    return a, b


def stack(w: WeightField, levels=None, policy: SwitchPolicy = ALL_MINIMAL,
          res: int = DEFAULT_RES) -> SolutionStack:
    """Build the stacked solution field from per-level shortest curves."""
    if levels is None:
        levels = midpoint_levels()
    levels = np.asarray(levels, dtype=float)
    if len(levels) < 16:
        raise ValueError("need at least 16 levels")
    if np.any(np.diff(levels) <= 0) or levels[0] <= 0 or levels[-1] >= 2:
        raise ValueError("levels must be strictly increasing inside (0, 2)")
    curves = tuple(level_curve(w, float(t), policy.branch_for(float(t)))
                   for t in levels)

    n = 2 * res + 1
    xs = np.linspace(-1.0, 1.0, n)
    ys = _check_nesting(curves, xs, res)

    xb = np.array([lc.x_bound() for lc in curves])[:, None]
    pad = np.where(levels < 1.0, -np.inf, np.inf)[:, None]
    gmat = np.where(np.abs(xs) <= xb + 1e-15, ys, pad)
    # Nesting holds only to within a grid cell, so over one column the
    # height of curve k + 1 may dip below that of curve k.  The running
    # maximum makes every column nondecreasing in k, and with it the start
    # rows below, so the count of curves below a node is the index of the
    # highest one, the node's level.  Nesting bounds the fix-up by a cell.
    gmat = np.maximum.accumulate(gmat, axis=0)

    # SwitchPolicy makes branches a maximal prefix then a minimal suffix
    is_min = np.array([lc.branch == "minimal" for lc in curves])
    first_min = int(np.argmax(is_min)) if is_min.any() else len(curves)

    # curve k is below node (x_i, y_j) from a start row on: the first y_j >= g
    # for a maximal curve (on it counts as inside), the first y_j > g for a
    # minimal one
    rows = np.concatenate([
        np.searchsorted(xs, gmat[:first_min], side="left"),
        np.searchsorted(xs, gmat[first_min:], side="right")])
    # count[j, i] curves start at or below row j, so that many lie below the
    # node.  Columns are monotone, so with weak/strict the last curve at
    # g <= y_j / g < y_j this is
    # max(min(weak, first_min - 1), strict if strict >= first_min else -1) + 1.
    # It never exceeds the number of levels, so the narrowest unsigned type
    # that holds that one will do.  A curve starts once in each column, so
    # one indexed add per curve counts it, and the counts are summed down
    # one row at a time, where an axis-0 cumsum would stride across rows.
    kind = np.min_scalar_type(len(levels))
    count = np.zeros((n + 1, n), dtype=kind)
    cols = np.arange(n)
    for start in rows:
        count[start, cols] += 1
    for j in range(1, n):
        np.add(count[j - 1], count[j], out=count[j])
    # indexing widens the narrow counts a buffer at a time, where np.take
    # would make one n x n intp copy of them
    u = np.concatenate([[0.0], levels])[count[:n]]
    # outside the open disk each row takes its boundary value
    a, b = _disk_rows(xs)
    rim = np.clip(xs + 1.0, 0.0, 2.0)
    for j, (lo, hi, v) in enumerate(zip(a.tolist(), b.tolist(),
                                        rim.tolist())):
        u[j, :lo] = u[j, hi:] = v
    return SolutionStack(w, levels, curves, GridField(res, u))


def bv_energy(s: SolutionStack) -> float:
    """Coarea sum: weighted curve length integrated over the level grid."""
    dts = np.gradient(s.levels)
    return float(sum(dt * weighted_length(lc.path, s.weight)
                     for dt, lc in zip(dts, s.curves)))


def _jump_touch_angles(s: SolutionStack) -> list[float]:
    """Boundary angles where a jump-carrying level curve meets the circle."""
    out = []
    dt = float(np.median(np.diff(s.levels)))
    for a, b in zip(s.curves[:-1], s.curves[1:]):
        xb = min(a.x_bound(), b.x_bound())
        xs = np.linspace(-xb, xb, 64)
        gap = float(np.max(np.abs(b.y_at(xs) - a.y_at(xs))))
        if gap > _JUMP_SPACINGS * dt:
            h = 0.5 * (a.level + b.level) - 1.0
            h = max(-1.0, min(1.0, h))
            phi = math.asin(h)
            out.extend([phi, math.pi - phi])
    return out


def trace_error(s: SolutionStack) -> float:
    """Worst mean misfit of u against its boundary value near the circle.

    For each of 720 evenly spaced points z on the unit circle, averages
    |u - (z_y + 1)| over grid samples in the ball B(z, r), r = 0.05, inside
    the disk and returns the maximum over z.  Jump curves legitimately
    carry their discontinuity out to the circle, so probes angularly close
    to where such a curve lands are excluded.
    """
    r = 0.05
    phis = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    exclude = _jump_touch_angles(s)
    if exclude:
        d = np.abs(((phis[:, None] - np.array(exclude)[None, :] + math.pi)
                    % (2 * math.pi)) - math.pi)
        keep = np.min(d, axis=1) > 0.05
        phis = phis[keep]
    xs, res = s.field.coords, s.field.res
    z = np.array([(math.cos(t), math.sin(t)) for t in phis]).reshape(-1, 2)
    # each probe's window of node indices per axis, [floor((z - r + 1) res),
    # ceil((z + r + 1) res)] on the grid, padded to one span and masked
    lo = np.maximum(0, np.floor((z - r + 1.0) * res).astype(int))
    hi = np.minimum(2 * res, np.ceil((z + r + 1.0) * res).astype(int))
    idx = lo[:, :, None] + np.arange(int((hi - lo).max(initial=0)) + 1)
    ok = idx <= hi[:, :, None]
    idx = np.minimum(idx, 2 * res)
    gx, gy = xs[idx[:, 0]][:, None, :], xs[idx[:, 1]][:, :, None]
    sel = (ok[:, 0, None, :] & ok[:, 1, :, None]
           & ((gx - z[:, 0, None, None]) ** 2
              + (gy - z[:, 1, None, None]) ** 2 < r * r)
           & (gx * gx + gy * gy < 1.0))
    count = sel.sum(axis=(1, 2))
    if not count.all():
        raise ValueError(f"no grid samples in B(z, {r:g}) at angle "
                         f"{phis[np.argmin(count)]:.3f}; the grid is coarser "
                         "than that")
    misfit = s.field.values[idx[:, 1, :, None], idx[:, 0, None, :]]
    misfit -= z[:, 1, None, None] + 1.0
    np.abs(misfit, out=misfit)
    return float(np.max(np.sum(misfit, axis=(1, 2), where=sel) / count,
                        initial=0.0))


def _oscillation(u: np.ndarray) -> np.ndarray:
    """Max minus min of u over each 3x3 neighborhood, edges replicated."""
    up = np.pad(u, 1, mode="edge")
    n0, n1 = u.shape
    views = [up[i:i + n0, j:j + n1] for i in range(3) for j in range(3)]
    return np.maximum.reduce(views) - np.minimum.reduce(views)


def local_oscillation(s: SolutionStack, x: float, y: float) -> float:
    """Oscillation of u over the 3x3 neighborhood of the nearest grid node."""
    iy, ix = s.field._node(x, y)
    win = s.field.values[max(0, iy - 1):iy + 2, max(0, ix - 1):ix + 2]
    return float(win.max() - win.min())


def jump_set(s: SolutionStack, gap_threshold: float) -> np.ndarray:
    """Grid points (x, y) whose 3x3 neighborhood oscillation exceeds the gap.

    The threshold must exceed twice the level spacing: below that, ordinary
    inter-level steps of the sampled field would register as jumps.
    """
    spacing = float(s.levels[1] - s.levels[0]) if len(s.levels) > 1 else 0.0
    if gap_threshold <= 2.0 * spacing:
        raise ValueError("gap_threshold must exceed twice the level spacing")
    xs = s.field.coords
    osc = _oscillation(s.field.values)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    jy, jx = np.nonzero((osc > gap_threshold) & (X * X + Y * Y < 1.0))
    return np.column_stack([xs[jx], xs[jy]])
