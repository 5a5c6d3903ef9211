"""Refraction laws and closed-form geodesic quantities.

Angles are measured from the interface normal.  A ray crossing from weight
w_in to weight w_out bends so that w_in * sin(theta_in) = w_out * sin(theta_out);
the product w * sin(theta) is the conserved quantity along any refracted ray.
"""
from __future__ import annotations

import math

_SNELL_TOL = 1e-12


class SolverError(RuntimeError):
    """A numerical construction failed one of its own consistency checks."""


class TotalInternalReflection(SolverError):
    """Raised when sin(theta_out) would exceed 1 at an interface.

    Carries the offending interface data so tracing callers can report where
    the ray died.
    """

    def __init__(self, w_in: float, w_out: float, theta_in: float,
                 where: str = ""):
        self.w_in = w_in
        self.w_out = w_out
        self.theta_in = theta_in
        self.where = where
        msg = (f"total internal reflection: sin = "
               f"{w_in / w_out * math.sin(theta_in):.6g} > 1")
        if where:
            msg += f" at {where}"
        super().__init__(msg)


def snell_refract(w_in: float, w_out: float, theta_in: float) -> float:
    """Refracted angle from the normal, or TotalInternalReflection.

    :param w_in: weight on the incoming side, > 0.
    :param w_out: weight on the outgoing side, > 0.
    :param theta_in: incidence angle in [0, pi/2].
    """
    if w_in <= 0 or w_out <= 0:
        raise ValueError("weights must be positive")
    if not 0 <= theta_in <= math.pi / 2:
        raise ValueError("incidence angle must lie in [0, pi/2]")
    s = (w_in / w_out) * math.sin(theta_in)
    if s > 1.0:
        raise TotalInternalReflection(w_in, w_out, theta_in)
    return math.asin(s)


def snell_chain(weights, theta_1: float) -> float:
    """Exit angle after refracting through a stack of parallel interfaces.

    The per-interface law telescopes, so only the first and last weights
    matter; the sequential composition is computed anyway and compared, which
    also detects total internal reflection at any intermediate interface.
    """
    ws = [float(w) for w in weights]
    if len(ws) < 1:
        raise ValueError("need at least one weight")
    theta = theta_1
    for w_a, w_b in zip(ws, ws[1:]):
        theta = snell_refract(w_a, w_b, theta)
    s = (ws[0] / ws[-1]) * math.sin(theta_1)
    if s > 1.0:
        raise TotalInternalReflection(ws[0], ws[-1], theta_1)
    direct = math.asin(s)
    if not abs(direct - theta) <= _SNELL_TOL:
        raise SolverError(f"chain composition drifted from the two-endpoint "
                          f"formula: {direct} vs {theta}")
    return direct


def _adaptive_simpson(f, a, b, eps):
    """Recursive Simpson with the standard 15-fold error estimate."""

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, tol, depth):
        m = 0.5 * (lo + hi)
        lm = 0.5 * (lo + m)
        rm = 0.5 * (m + hi)
        flm = f(lm)
        frm = f(rm)
        left = simpson(lo, m, flo, flm, fmid)
        right = simpson(m, hi, fmid, frm, fhi)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, m, flo, flm, fmid, left, 0.5 * tol, depth - 1)
                + recurse(m, hi, fmid, frm, fhi, right, 0.5 * tol, depth - 1))

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, eps, 48)


def H_of(t0: float) -> float:
    """Height gained by a ray gliding up through the graded diamond shell.

    Integrates (1/2) * [1 - (1+t0)/sqrt(2(1+t)^2 - (1+t0)^2)] for t in
    (t0, 1).  The integrand is 0 at t = t0 and positive beyond, so the result
    is strictly positive for any t0 in (0, 1).
    """
    if not 0.0 < t0 < 1.0:
        raise ValueError("t0 must lie in (0, 1)")
    c = 1.0 + t0

    def f(t):
        return 0.5 * (1.0 - c / math.sqrt(2.0 * (1.0 + t) ** 2 - c * c))

    val = _adaptive_simpson(f, t0, 1.0, 1e-8)
    if not val > 0.0:
        raise SolverError(f"glide height {val} is not positive")
    return val


def heavy_disk_arc_test(alpha: float, theta: float) -> bool:
    """Whether the rim arc of angle theta beats the chord through a slow disk.

    True iff theta <= 2 * alpha * sin(theta / 2).  Ties return True: both
    routes then have equal weighted length, and the rim is the one the
    level-curve construction uses.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not 0.0 < theta <= math.pi:
        raise ValueError("theta must lie in (0, pi]")
    return theta <= 2.0 * alpha * math.sin(0.5 * theta)
