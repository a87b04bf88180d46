"""Transition probability of a static detector near a string or a reflecting boundary.

A detector's response is its correlation with itself, so in sigma units and
per lambda^2 it is one image expansion (a correlation.expand part,
``response_part``) over the images a detector at radial distance rho sees,
P = P0 + P_images + P_integral with

    P0         = (1/4pi) [e^{-g^2} - sqrt(pi) g erfc(g)]
    P_images   = 2 sum_m' w_m k(z_m)
    P_integral = int_0^inf coef(zeta) k(z(zeta)) dzeta
    k(a)       = K(a, g) / (8 sqrt(pi) a)

where K is the response kernel, coef the same-side zeta-coefficient
(identically zero at integer nu), and the primed sum applies the
even-integer half-weight rule.  z_m = sqrt(rho^2 sin^2(m pi/nu)) and
z(zeta) = sqrt(rho^2 (1 + cosh zeta)/2) are the pair builder's arguments at
d = 0, rho_A = rho_B = rho (geometry.image_f_arguments).  At vanishing kernel
argument the finite limit K/a -> klim(g) is substituted, which makes
P(rho=0) = nu * P0 exact: both read special.p0_bracket, and P0 is no entry of
P's list, so only a detector on the string or the wall takes the limit.  The
image sum is one call of K/a's unchecked formula (``_kernel_over_nodes``) on
all z_m stacked, as the zeta integrand is on its nodes: rho and gap are
validated where they enter (p_string, p_boundary, PairConfig), not per
image.  A reflecting boundary is the nu = 2 image set with the image weight
-1/2 (geometry.image_set), and flat spacetime is nu = 1, so every alignment
runs this one expansion.
``image_response`` expands one detector on its own; entanglement.concurrence
hands the parts of both detectors, with X's, to one correlation.expand call
and assembles each with ``response_breakdown``.  A scalar rho is one point
and an array one row per entry: the d_max scan keeps its fixed l a scalar,
so P at rho = l costs one image sum and one zeta-integral row per scan.
"""

import math
import os
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .correlation import Kernel, expand
from .geometry import (
    BOUNDARY_CONE,
    BOUNDARY_IMAGES,
    ConeParameter,
    ImageTerm,
    check_gap,
    check_length,
    image_f_arguments,
    image_terms,
)
from .quadrature import DEFAULT_TOL
from .special import SQRT_PI, p0_bracket, response_kernel_formula, response_kernel_limit

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
    """Flat-spacetime transition probability P0 = special.p0_bracket(g)/(4 pi) per lambda^2."""
    check_gap(gap)
    return p0_bracket(gap) / (4.0 * math.pi)


def _kernel_over_nodes(a, gap):
    """K(a, g)/a on an array of validated distances, the formula unchecked.

    The analytic a -> 0 limit replaces the ratio below SMALL_ARGUMENT.  The
    image sum calls it on P's stacked image arguments, the zeta integrand on
    its nodes.
    """
    # arguments that all lie off the axis need no limit, so skip the np.where passes
    if a.min() >= SMALL_ARGUMENT:
        return response_kernel_formula(a, gap) / a
    safe = np.where(a < SMALL_ARGUMENT, 1.0, a)
    return np.where(a < SMALL_ARGUMENT, response_kernel_limit(gap),
                    response_kernel_formula(safe, gap) / safe)


# P's kernel of the image expansion, k(a) = K(a, g)/(8 sqrt(pi) a)
P_KERNEL = Kernel(_kernel_over_nodes, scale=8.0 * SQRT_PI)


def response_part(rho, cone: ConeParameter, terms: Tuple[ImageTerm, ...]):
    """The correlation.expand part of P at radial distance(s) rho.

    ``cone`` and ``terms`` are an image set (geometry.image_set); the point
    set is the detector with itself, the pair builder at d = 0.  A scalar rho
    is one point (a d_max scan holds its fixed l scalar, so one P serves the
    whole scan), and an array rho one row per entry.
    """
    return P_KERNEL, image_f_arguments(cone, terms, rho, rho, 0.0)


def response_breakdown(expansion, gap: float) -> ResponseBreakdown:
    """ResponseBreakdown, P0 from p_flat, of a response_part's (direct, images, integral, terms).

    Honours the FAULT_ENV verification hook, which scales P_images.
    """
    _, images, integral, _ = expansion
    images *= float(os.environ.get(FAULT_ENV, 1.0))
    return ResponseBreakdown(p_flat=p_flat(gap), p_images=images, p_integral=integral)


def image_response(rho, cone: ConeParameter, terms: Tuple[ImageTerm, ...], gap: float,
                   tol: float = DEFAULT_TOL) -> ResponseBreakdown:
    """Response at radial distance(s) rho to a cone's image set (geometry.image_set).

    ``rho`` is a scalar (float parts) or a 1-D array of validated distances
    (array parts, or scalars where a part is the same at every point).  The
    zeta integral of an array has one row per entry, the rows sharing one
    adaptive subdivision, each within ``tol``.
    """
    part = response_part(rho, cone, terms)
    return response_breakdown(expand([part], gap, tol)[0], gap)


def p_string(rho: float, cone: ConeParameter, gap: float, tol: float = DEFAULT_TOL) -> ResponseBreakdown:
    """Response of a static detector at radial distance rho from the string.

    Monotonically decreasing in rho, increasing in nu, equal to nu * P0 at
    rho = 0 (any nu >= 1) and approaching P0 as rho -> inf with a
    e^{-g^2}/(4 pi a^2) image tail.  P_integral is exactly zero at integer nu.
    rho must be a length geometry.check_length accepts (at most MAX_LENGTH),
    and gap one geometry.check_gap accepts.
    """
    check_length("rho", rho)
    check_gap(gap)
    return image_response(rho, cone, image_terms(cone), gap, tol)


def p_boundary(l: float, gap: float) -> float:
    """Response at distance l from a perfectly reflecting plane boundary.

    The boundary is the nu = 2 cone with its one image subtracted:
    P_bd = P0 - (1/8 sqrt(pi)) K(l, g)/l, vanishing as the detector reaches
    the boundary (as l^2 for small l; below SMALL_ARGUMENT the kernel limit
    P0 - klim(g)/(8 sqrt(pi)), zero to rounding) and approaching P0 from
    below with a e^{-g^2}/(8 pi l^2) tail far from it.  It is the response
    that entanglement.response_pair gives a boundary pair at the same l.  l
    must be a length geometry.check_length accepts, and gap one
    geometry.check_gap accepts.
    """
    check_length("l", l)
    check_gap(gap)
    return image_response(l, BOUNDARY_CONE, BOUNDARY_IMAGES, gap).total
