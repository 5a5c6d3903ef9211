"""Polylines and weighted arc length.

The central quantity is the line integral of a weight w along a polyline.
For the weights in this package the integrand along any straight segment is
piecewise affine in arc length once the segment is split at region interfaces
and at coordinate-axis crossings, so midpoint quadrature on those pieces is
exact up to floating point.
"""
from __future__ import annotations

import math

import numpy as np

from .weights import ConstantWeight, RadialWeight, WeightField

RIM_STEP = 2e-3
RIM_LIFT = 2e-6


class Polyline:
    """Ordered plane points; consecutive vertices must be distinct.

    Held as one read-only (N, 2) float64 array, validated once.
    """

    def __init__(self, vertices):
        arr = np.array(vertices, dtype=float)
        if len(arr) < 2:
            raise ValueError("polyline needs at least 2 vertices")
        if arr.ndim != 2 or arr.shape[1] != 2 or not np.all(np.isfinite(arr)):
            raise ValueError("vertices must be finite plane points")
        steps = np.diff(arr, axis=0)
        if np.any(np.hypot(steps[:, 0], steps[:, 1]) == 0.0):
            raise ValueError("consecutive vertices must be distinct")
        arr.flags.writeable = False
        self._arr = arr

    @classmethod
    def from_points(cls, points) -> "Polyline":
        """Polyline through the points, dropping exact consecutive repeats."""
        arr = np.asarray(points, dtype=float)
        keep = np.concatenate([[True], np.any(np.diff(arr, axis=0) != 0.0,
                                              axis=1)])
        return cls(arr[keep])

    @property
    def vertices(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(*self._arr.T.tolist()))

    def __eq__(self, other):
        return isinstance(other, Polyline) and np.array_equal(self._arr,
                                                              other._arr)

    def __repr__(self):
        return f"Polyline({self.vertices!r})"

    def as_array(self) -> np.ndarray:
        return self._arr

    def euclidean_length(self) -> float:
        steps = np.diff(self._arr, axis=0)
        return float(np.hypot(steps[:, 0], steps[:, 1]).sum())

    def reversed(self) -> "Polyline":
        return Polyline(self._arr[::-1])

    def mirrored_y(self) -> "Polyline":
        return Polyline(self._arr * (1.0, -1.0))


def segment(a, b) -> Polyline:
    return Polyline(((float(a[0]), float(a[1])), (float(b[0]), float(b[1]))))


def rim_wrap(a, b, rho, phi_a, phi_b, sign) -> Polyline:
    """Tangent + rim arc + tangent from a to b around the disk of radius rho.

    phi_a > phi_b are the polar angles of the two tangent points in the frame
    mirrored by sign, so sign = +1 wraps clockwise (over the top for a left
    of b) and sign = -1 counterclockwise.  The arc is sampled every RIM_STEP
    radians on a circle lifted by the relative RIM_LIFT, more than the
    5e-7 sagitta of one step, so that its chords stay outside the disk.
    """
    r = rho * (1.0 + RIM_LIFT)
    n_arc = max(2, int(math.ceil((phi_a - phi_b) / RIM_STEP)) + 1)
    phis = np.linspace(phi_a, phi_b, n_arc)
    arc = np.column_stack([r * np.cos(phis), sign * r * np.sin(phis)])
    return Polyline.from_points(np.vstack([[a], arc, [b]]))


def _segment_integral(a, b, w):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    seg_len = float(np.hypot(*(b - a)))
    cuts = sorted(set([0.0, 1.0] + [s for s in w.split_params(a, b)
                                    if 0.0 < s < 1.0]))
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        piece_len = seg_len * (hi - lo)
        if piece_len == 0.0:
            continue
        mid = a + 0.5 * (lo + hi) * (b - a)
        total += w.eval(mid) * piece_len
    return total


def _clean_segment_mask(arr: np.ndarray, w: RadialWeight) -> np.ndarray:
    """Segments whose integrand is affine: same quadrant, same profile piece.

    arr has shape (N, 2); the mask has length N-1.  Marked segments can be
    integrated with a single midpoint evaluation.
    """
    x, y = arr[:, 0], arr[:, 1]
    same_qx = (x[:-1] * x[1:]) >= 0
    same_qy = (y[:-1] * y[1:]) >= 0
    r = w.radius(x, y)
    rlo = np.minimum(r[:-1], r[1:])
    rhi = np.maximum(r[:-1], r[1:])
    if w.norm == "l2":
        # the closest point to the origin may be interior to the chord
        d = np.diff(arr, axis=0)
        dd = np.einsum("ij,ij->i", d, d)
        t = np.clip(-np.einsum("ij,ij->i", arr[:-1], d) / dd, 0.0, 1.0)
        foot = arr[:-1] + t[:, None] * d
        rlo = np.minimum(rlo, np.hypot(foot[:, 0], foot[:, 1]))
    no_cross = np.ones(len(arr) - 1, dtype=bool)
    for b in w.breakpoints():
        no_cross &= ~((rlo < b) & (b < rhi))
        no_cross &= rlo != b
        no_cross &= rhi != b
    return same_qx & same_qy & no_cross


def weighted_length(path: Polyline, w: WeightField) -> float:
    """Line integral of w along the polyline.

    Exact (up to floating point) for every catalog weight because the
    integrand is piecewise affine in arc length after interface splitting.
    """
    arr = path.as_array()
    if isinstance(w, ConstantWeight):
        return w.c * path.euclidean_length()

    if isinstance(w, RadialWeight) and len(arr) > 16:
        # long refracted curves: one midpoint per already-clean segment,
        # scalar interface splitting only for the few straddlers
        mask = _clean_segment_mask(arr, w)
        steps = np.diff(arr, axis=0)
        lens = np.hypot(steps[:, 0], steps[:, 1])
        mids = 0.5 * (arr[:-1] + arr[1:])
        vals = w.values(mids[:, 0], mids[:, 1])
        total = float((vals[mask] * lens[mask]).sum())
        for i in np.nonzero(~mask)[0]:
            total += _segment_integral(arr[i], arr[i + 1], w)
        return total

    total = 0.0
    for i in range(len(arr) - 1):
        total += _segment_integral(arr[i], arr[i + 1], w)
    return total
