"""Transition probability of a static detector near a string or a reflecting boundary.

In sigma units and per lambda^2 the conical-spacetime response of a detector at
radial distance rho splits as P = P0 + P_images + P_integral with

    P0         = (1/4pi) [e^{-g^2} - sqrt(pi) g erfc(g)]
    P_images   = (1/4 sqrt(pi)) sum_m' w_m K(rho sin(m pi/nu), g) / (rho sin(m pi/nu))
    P_integral = (1/8 sqrt(pi)) int_0^inf coef(zeta) K(rho cosh(zeta/2), g)
                                           / (rho cosh(zeta/2)) dzeta

where K is the response kernel, coef the same-side zeta-coefficient (identically
zero at integer nu), and the primed sum applies the even-integer half-weight
rule.  At vanishing kernel argument the finite limit K/a -> klim(g) is
substituted, which makes P(rho=0) = nu * P0 exact.  A reflecting boundary is
the nu = 2 image set with the image weight -1/2 (geometry.image_set), and flat
spacetime is nu = 1, so every alignment runs this one sum.
"""

import math
import os
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.special import erfc as _erfc_real

from .errors import InvalidParameter
from .geometry import (
    BOUNDARY_CONE,
    BOUNDARY_IMAGES,
    ConeParameter,
    ImageTerm,
    coefficient_breakpoints,
    image_terms,
    point_rows,
    same_side_coefficient,
)
from .quadrature import DEFAULT_TOL, integrate_semi_infinite
from .special import SQRT_PI, response_kernel, response_kernel_limit

# Below this kernel argument the analytic a -> 0 limit replaces the 0/0 ratio.
SMALL_ARGUMENT = 1e-8

# Verification hook: scales the image-sum part of P so `verify` can prove it
# catches an injected fault.  Never set outside tests.
FAULT_ENV = "CONICAL_HARVEST_FAULT_SCALE_P1"


@dataclass(frozen=True)
class ResponseBreakdown:
    """Transition probability split into flat, image-sum, and zeta-integral parts."""

    p_flat: float
    p_images: float
    p_integral: float

    @property
    def total(self):
        # near a reflecting boundary P0 and the subtracted image cancel, and
        # their sum may round below zero; a batch's parts give an array
        total = self.p_flat + self.p_images + self.p_integral
        return np.maximum(total, 0.0) if getattr(total, "ndim", 0) else max(total, 0.0)


def p_flat(gap: float) -> float:
    """Flat-spacetime transition probability P0 per lambda^2."""
    if gap < 0 or not math.isfinite(gap):
        raise InvalidParameter("gap must be finite and >= 0")
    return (math.exp(-gap * gap) - SQRT_PI * gap * _erfc_real(gap)) / (4.0 * math.pi)


def _kernel_over_argument(a, gap):
    """K(a, g)/a with the analytic limit substituted below SMALL_ARGUMENT."""
    a = np.asarray(a, dtype=float)
    safe = np.where(a < SMALL_ARGUMENT, 1.0, a)
    ratio = response_kernel(safe, gap) / safe
    out = np.where(a < SMALL_ARGUMENT, response_kernel_limit(gap), ratio)
    return float(out) if out.ndim == 0 else out


def image_sum(rho, terms: Tuple[ImageTerm, ...], gap: float):
    """P_images of the given image terms at radial distance(s) rho.

    ``rho`` is a scalar or an array, validated by the caller.  Honours the
    FAULT_ENV verification hook.
    """
    images = 0.0
    for term in terms:
        images += term.weight * _kernel_over_argument(rho * term.sin_term, gap)
    images /= 4.0 * SQRT_PI

    fault = os.environ.get(FAULT_ENV)
    if fault is not None:
        images *= float(fault)
    return images


def p_integral(rho, cone: ConeParameter, gap: float, tol: float = DEFAULT_TOL):
    """P_integral at radial distance(s) rho; exactly zero at integer nu.

    ``rho`` is a scalar (float result) or a 1-D array of validated distances
    (array result).  An array runs as one integral over its distinct values,
    which share one adaptive subdivision, each within ``tol``; so a batch of
    equal distances (a parallel d axis) costs one point.
    """
    if cone.is_integer:
        return 0.0
    inverse = None
    if getattr(rho, "ndim", 0):
        rho, inverse = np.unique(rho, return_inverse=True)
    coefficient = same_side_coefficient(cone.nu)
    rho = point_rows(rho)

    def integrand(zeta):
        b = rho * np.cosh(np.asarray(zeta) / 2.0)
        return coefficient(zeta) * _kernel_over_argument(b, gap) / (8.0 * SQRT_PI)

    breakpoints = coefficient_breakpoints(cone.nu, cone.nu * math.pi)
    value = integrate_semi_infinite(integrand, tail_rate=cone.nu, tol=tol,
                                    breakpoints=breakpoints).value
    return value if inverse is None else value[inverse]


def image_response(rho: float, cone: ConeParameter, terms: Tuple[ImageTerm, ...], gap: float,
                   tol: float = DEFAULT_TOL) -> ResponseBreakdown:
    """Response at radial distance rho to a cone's image set (geometry.image_set)."""
    return ResponseBreakdown(p_flat=p_flat(gap), p_images=image_sum(rho, terms, gap),
                             p_integral=p_integral(rho, cone, gap, tol))


def p_string(rho: float, cone: ConeParameter, gap: float, tol: float = DEFAULT_TOL) -> ResponseBreakdown:
    """Response of a static detector at radial distance rho from the string.

    Monotonically decreasing in rho, increasing in nu, equal to nu * P0 at
    rho = 0 (any nu >= 1) and approaching P0 as rho -> inf with a
    e^{-g^2}/(4 pi a^2) image tail.  P_integral is exactly zero at integer nu.
    """
    if rho < 0 or not math.isfinite(rho):
        raise InvalidParameter("rho must be finite and >= 0")
    return image_response(rho, cone, image_terms(cone), gap, tol)


def p_boundary(l: float, gap: float) -> float:
    """Response at distance l from a perfectly reflecting plane boundary.

    The boundary is the nu = 2 cone with its one image subtracted:
    P_bd = P0 - (1/8 sqrt(pi)) K(l, g)/l, vanishing as the detector reaches
    the boundary (as l^2 for small l; below SMALL_ARGUMENT the exact 0.0 is
    returned, which the kernel limit P0 - klim(g)/(8 sqrt(pi)) equals to
    rounding) and approaching P0 from below with a e^{-g^2}/(8 pi l^2) tail
    far from it.
    """
    if l < 0 or not math.isfinite(l):
        raise InvalidParameter("l must be finite and >= 0")
    if l < SMALL_ARGUMENT:
        return 0.0
    return image_response(l, BOUNDARY_CONE, BOUNDARY_IMAGES, gap).total
