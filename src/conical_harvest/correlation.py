"""Nonlocal correlation term X for every alignment, assembled from aux_f.

Every alignment takes X = X0 + X_images + X_integral with X0 = f(d/2),
X_images = 2 sum_m' w_m f(z_m), and X_integral the zeta-integral of
coef(zeta) f(z(zeta)); the geometry module supplies z_m, z(zeta), and the
coefficient per alignment.  A reflecting boundary is the subtracted nu = 2
image (weight -1/2, so X_images = -f(z_1)), and flat spacetime is nu = 1 with
no images; both have a vanishing zeta coefficient.  One assembly
(``_x_breakdown``) serves x_string's single pair and the d_max scan's batch of
points.
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

    The zeta integral runs as two real integrations sharing one adaptive
    subdivision; it is skipped (exact zero) whenever the coefficient vanishes
    identically.  A detector/image overlap (an f-argument at or below the
    cutoff, e.g. the symmetric opposite-sides case at even integer nu) raises
    DivergentOverlap carrying the offending image index.
    """
    return _x_breakdown(f_arguments(config, cone), config.d, config.gap, cone, tol)


def _x_breakdown(geo: FArguments, d, gap: float, cone: ConeParameter,
                 tol: float) -> CorrelationBreakdown:
    """X0 + 2 sum_m' w_m f(z_m) + X_integral from pair_f_arguments and separation d.

    One pair gives complex parts; equal-shape arrays (a batch of validated,
    overlap-free points, as the d_max scan hands over) give complex arrays.
    """
    flat = x_flat(d, gap)
    images = 0.0 + 0.0j
    terms = []
    for m, weight, z in geo.image_args:
        try:
            term = 2.0 * weight * aux_f(z, gap)
        except DivergentArgument as exc:
            raise DivergentOverlap(argument=exc.z, image_index=m) from exc
        images += term
        terms.append((m, weight, z, term))

    return CorrelationBreakdown(x_flat=flat, x_images=images,
                                x_integral=x_integral(geo, gap, cone, tol),
                                image_terms=tuple(terms))


def x_integral(geo: FArguments, gap: float, cone: ConeParameter, tol: float = DEFAULT_TOL):
    """X_integral from f_arguments of one pair (complex) or of an array of pairs.

    Exactly zero when the coefficient vanishes; otherwise the real and
    imaginary parts of every pair are integrated on one shared adaptive
    subdivision, each within ``tol``, and a batch returns a complex array.
    """
    if geo.zeta_vanishes:
        return 0.0 + 0.0j

    def integrand(zeta):
        return geo.zeta_coefficient(zeta) * aux_f(geo.zeta_argument(zeta), gap)

    return integrate_semi_infinite(integrand, tail_rate=cone.nu, tol=tol,
                                   breakpoints=geo.zeta_breakpoints).value


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
