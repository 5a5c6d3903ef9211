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
    """Raised when sin(theta_out) would exceed 1 at an interface."""

    def __init__(self, w_in: float, w_out: float, theta_in: float,
                 where: str = ""):
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
    if not (w_in > 0 and w_out > 0):
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


def _glide_integral(t0: float) -> float:
    """H_of's integral by the 16-point Gauss-Legendre rule."""
    from numpy.polynomial.legendre import leggauss

    x, wts = leggauss(16)
    c, half = 1.0 + t0, 0.5 * (1.0 - t0)
    d = half * (1.0 + x)  # s - c at the nodes
    r = (2.0 * (c + d) ** 2 - c * c) ** 0.5
    return float(half * wts @ (d * (2.0 * c + d) / (r * (r + c))))


def H_of(t0: float) -> float:
    """Height gained by a ray gliding up through the graded diamond shell.

    Integrates (1/2)(1 - c/r) = (s - c)(s + c) / (r (r + c)) over s = 1 + t
    in (c, 2), with c = 1 + t0 and r = sqrt(2 s^2 - c^2).  The second form
    does not cancel.  With s - c taken from the interval's length 1 - t0 it
    is positive at every node, and so is H, for every float t0 in (0, 1).
    The integrand is analytic on [c, 2]; 16 nodes are exact to a few
    roundings.
    """
    if not 0.0 < t0 < 1.0:
        raise ValueError("t0 must lie in (0, 1)")
    val = _glide_integral(t0)
    if not val > 0.0:
        raise SolverError(f"glide height {val} is not positive")
    return val


def heavy_disk_arc_test(alpha: float, theta: float) -> bool:
    """Whether the rim arc of angle theta beats the chord through a slow disk.

    True iff theta <= 2 * alpha * sin(theta / 2).  Ties return True: both
    routes then have equal weighted length, and the rim is the one the
    level-curve construction uses.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not 0.0 < theta <= math.pi:
        raise ValueError("theta must lie in (0, pi]")
    return theta <= 2.0 * alpha * math.sin(0.5 * theta)
