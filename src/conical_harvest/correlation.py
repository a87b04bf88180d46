"""The image expansion shared by P and X, and the nonlocal correlation term X.

X pairs detector A with detector B, and a detector's response P is its
correlation with itself, so both are a direct term plus one image expansion
(``expand``) over the images the point set sees:
2 sum_m' w_m k(z_m) + int_0^inf coef(zeta) k(z(zeta)) dzeta.  The geometry
module supplies z_m, z(zeta) and coef (pair_f_arguments, self_f_arguments).
X = f(d/2) + the expansion of k = aux_f; P is in the response module.  A
reflecting boundary is the subtracted nu = 2 image (weight -1/2, so
X_images = -f(z_1)), and flat spacetime is nu = 1 with no images; both have a
vanishing zeta coefficient.  One assembly (``_x_breakdown``) serves
x_string's single pair and the d_max scan's batch of points.
"""

from dataclasses import dataclass
from typing import Tuple

from .errors import DivergentArgument, DivergentOverlap, InvalidParameter
from .geometry import (
    BOUNDARY_ALIGNMENTS,
    BOUNDARY_CONE,
    ConeParameter,
    FArguments,
    PairConfig,
    f_arguments,
)
from .quadrature import DEFAULT_TOL, integrate_semi_infinite
from .special import EPS_DIV, aux_f


@dataclass(frozen=True)
class CorrelationBreakdown:
    """Correlation term split into flat, image-sum, and zeta-integral parts."""

    x_flat: complex
    x_images: complex
    x_integral: complex
    # (m, weight, f-argument z_m, term 2 w_m f(z_m)) per image; the terms sum to x_images
    image_terms: Tuple[Tuple[int, float, float, complex], ...] = ()

    @property
    def total(self) -> complex:
        return self.x_flat + self.x_images + self.x_integral


def x_flat(d, gap: float):
    """Flat-spacetime correlation X0 = f(d/2) per lambda^2.

    |X0| decreases monotonically in d and diverges as d -> 0; separations at
    or below the cutoff raise DivergentOverlap (point-model breakdown).  An
    array of separations gives an array.
    """
    if not getattr(d, "ndim", 0) and d <= EPS_DIV:
        raise DivergentOverlap(argument=d / 2.0, image_index=None,
                               message=f"flat correlation diverges as d -> 0 (d={d!r})")
    try:
        return aux_f(d / 2.0, gap)
    except DivergentArgument as exc:
        raise DivergentOverlap(argument=exc.z, image_index=None) from exc


def x_string(config: PairConfig, cone: ConeParameter, tol: float = DEFAULT_TOL) -> CorrelationBreakdown:
    """Correlation term of any alignment, from the images it sees (geometry.image_set).

    A detector/image overlap (an f-argument at or below the cutoff, e.g. the
    symmetric opposite-sides case at even integer nu) raises DivergentOverlap
    carrying the offending image index.
    """
    return _x_breakdown(f_arguments(config, cone), config.d, config.gap, cone, tol)


def _x_breakdown(geo: FArguments, d, gap: float, cone: ConeParameter,
                 tol: float) -> CorrelationBreakdown:
    """X0 + expand(aux_f) from pair_f_arguments and separation d.

    One pair gives complex parts; equal-shape arrays (a batch of validated,
    overlap-free points, as the d_max scan hands over) give complex arrays.
    """
    flat = x_flat(d, gap)
    images, integral, terms = expand(aux_f, geo, gap, cone.nu, tol, zero=0j)
    return CorrelationBreakdown(x_flat=flat, x_images=images, x_integral=integral,
                                image_terms=terms)


def expand(kernel, geo: FArguments, gap: float, tail_rate: float, tol: float = DEFAULT_TOL,
           zero=0.0, scale: float = 1.0):
    """(images, integral, image_terms) of the image expansion of kernel(z, gap)/scale.

    image_terms holds (m, w_m, z_m, 2 w_m k(z_m)) per geo.image_args entry,
    and images is their sum over ``scale``; an argument at or below the
    kernel's cutoff raises DivergentOverlap with its image index.  integral
    is int_0^inf coef(zeta) k(z(zeta))/scale dzeta in one
    integrate_semi_infinite call, on which a batch's points (and a complex
    kernel's real and imaginary parts) share one subdivision; it is ``zero``,
    the kernel's zero that the image sum starts from, when coef vanishes.
    """
    images = zero
    terms = []
    for m, weight, z in geo.image_args:
        try:
            term = 2.0 * weight * kernel(z, gap)
        except DivergentArgument as exc:
            raise DivergentOverlap(argument=exc.z, image_index=m) from exc
        images += term
        terms.append((m, weight, z, term))
    images = images / scale
    if geo.zeta_vanishes:
        return images, zero, tuple(terms)

    def integrand(zeta):
        return geo.zeta_coefficient(zeta) * kernel(geo.zeta_argument(zeta), gap) / scale

    integral = integrate_semi_infinite(integrand, tail_rate=tail_rate, tol=tol,
                                       breakpoints=geo.zeta_breakpoints).value
    return images, integral, tuple(terms)


def x_boundary(config: PairConfig) -> complex:
    """Correlation term near a reflecting boundary: the nu = 2 image is subtracted.

    parallel     X_bd = X0 - f(sqrt(d^2/4 + l^2))
    orthogonal   X_bd = X0 - f(sqrt(d^2/4 + l (l + d)))   (= X0 - f(d/2 + l))
    """
    if config.alignment not in BOUNDARY_ALIGNMENTS:
        raise InvalidParameter(f"x_boundary requires a boundary alignment, not {config.alignment}")
    return x_string(config, BOUNDARY_CONE).total


def correlation_for(config: PairConfig, cone: ConeParameter, tol: float = DEFAULT_TOL) -> CorrelationBreakdown:
    """The alignment's correlation as a uniform breakdown; one path for all six."""
    return x_string(config, cone, tol=tol)
