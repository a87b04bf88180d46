"""The image expansion shared by P and X, and the nonlocal correlation term X.

X pairs detector A with detector B, and a detector's response P is its
correlation with itself, so both are a direct term plus one image expansion
over the images the point set sees:
2 sum_m' w_m k(z_m) + int_0^inf coef(zeta) k(z(zeta)) dzeta.  One geometry
builder supplies z_m, z(zeta) and coef for both (image_f_arguments; P is its
d = 0 case).  X = f(d/2) + the expansion of k = aux_f; P is in the response
module.  A reflecting boundary is the subtracted nu = 2 image (weight -1/2,
so X_images = -f(z_1)), and flat spacetime is nu = 1 with no images; both
have a vanishing zeta coefficient.

``expand`` takes several such expansions (parts: a kernel and a point set)
and runs all their zeta integrals as one integral: the rows of P_A,
P_B and X share one adaptive subdivision, which is how one concurrence, or
one d_max scan batch, costs a single integrate_semi_infinite call.  One
assembly (``_x_breakdown``) serves x_string's single pair and any batch of
points.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Tuple, Union

import numpy as np

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
from .special import aux_f, aux_f_formula


class Kernel(NamedTuple):
    """A kernel k(z, gap) = checked(z, gap)/scale of the image expansion, in its two forms.

    ``checked`` is the public function (input checks + formula): the image
    sum calls it, so an argument at or below its cutoff raises.  ``formula``
    is the same value without the checks: the zeta integrand calls it on
    nodes built from parameters that were already validated.  ``zero`` is
    the kernel's zero, which the image sum starts from and a vanishing
    integral returns.  The image sum and the integrand are divided by
    ``scale`` once, after the kernel.
    """

    checked: Callable
    formula: Callable
    zero: Union[float, complex] = 0.0
    scale: float = 1.0


AUX_F = Kernel(aux_f, aux_f_formula, 0j)


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

    |X0| decreases monotonically in d and diverges as d -> 0; a separation
    whose d/2 is at or below aux_f's cutoff EPS_DIV raises DivergentOverlap
    (point-model breakdown).  An array of separations gives an array.
    """
    try:
        return aux_f(d / 2.0, gap)
    except DivergentArgument as exc:
        message = f"flat correlation diverges as d -> 0 (d={2.0 * exc.z!r})"
        raise DivergentOverlap(argument=exc.z, image_index=None, message=message) from exc


def x_string(config: PairConfig, cone: ConeParameter, tol: float = DEFAULT_TOL) -> CorrelationBreakdown:
    """Correlation term of any alignment, from the images it sees (geometry.image_set).

    A detector/image overlap (an f-argument at or below the cutoff, e.g. the
    symmetric opposite-sides case at even integer nu) raises DivergentOverlap
    carrying the offending image index.
    """
    return _x_breakdown(f_arguments(config, cone), config.d, config.gap, cone, tol)


def _x_breakdown(geo: FArguments, d, gap: float, cone: ConeParameter,
                 tol: float) -> CorrelationBreakdown:
    """X0 + the expansion of aux_f over pair_f_arguments, at separation d.

    One pair gives complex parts; equal-shape arrays (a batch of validated,
    overlap-free points) give complex arrays.
    """
    flat = x_flat(d, gap)
    return CorrelationBreakdown(flat, *expand([(AUX_F, geo)], gap, cone.nu, tol)[0])


def expand(parts: Sequence[Tuple[Kernel, FArguments]], gap: float, tail_rate: float,
           tol: float = DEFAULT_TOL):
    """(images, integral, image_terms) of each part's image expansion of kernel(z, gap).

    A part is a (kernel, geo) pair: a Kernel and the point set's FArguments.
    image_terms holds (m, w_m, z_m, 2 w_m checked(z_m)) per geo.image_args
    entry, and images is their sum over kernel.scale; an argument at or
    below the kernel's cutoff raises DivergentOverlap with its image index.
    integral is int_0^inf coef(zeta) k(z(zeta)) dzeta, or the kernel's zero
    where coef vanishes.  The integrals of all parts run in one
    integrate_semi_infinite call with tail rate ``tail_rate`` (the parts'
    common nu) and the union of their breakpoints: every row (a batch's
    points, a complex kernel's real and imaginary parts, every part) shares
    one adaptive subdivision and meets ``tol`` on its own, and a coefficient
    that several parts hold is evaluated once per pass.  Parts whose
    coefficient vanishes stay out of it; when every coefficient vanishes, no
    integral runs.
    """
    expansions = []
    live = []       # the parts whose zeta integral does not vanish
    for kernel, geo in parts:
        images = kernel.zero
        terms = []
        for m, weight, z in geo.image_args:
            try:
                term = 2.0 * weight * kernel.checked(z, gap)
            except DivergentArgument as exc:
                raise DivergentOverlap(argument=exc.z, image_index=m) from exc
            images += term
            terms.append((m, weight, z, term))
        if not geo.zeta_vanishes:
            live.append(len(expansions))
        expansions.append((images / kernel.scale, kernel.zero, tuple(terms)))
    if live:
        integrals = _zeta_integrals([parts[i] for i in live], gap, tail_rate, tol)
        for i, integral in zip(live, integrals):
            images, _, terms = expansions[i]
            expansions[i] = (images, integral, terms)
    return expansions


def _zeta_integrals(parts: Sequence[Tuple[Kernel, FArguments]], gap: float,
                    tail_rate: float, tol: float):
    """Each part's int_0^inf coef k(z(zeta)) dzeta, from one integrate_semi_infinite call.

    One point gives a float (a complex for a complex kernel), a batch of
    points an array.  The integrand stacks every part's rows, a complex
    kernel's real rows before its imaginary rows, so the integral itself is
    real: integrate_semi_infinite integrates real rows only.
    """
    layout = []     # (rows, complex, one point) per part, read from the first call

    def integrand(zeta):
        n = zeta.size
        coefficients = {}
        blocks = []
        for kernel, geo in parts:
            coefficient = coefficients.get(geo.zeta_coefficient)
            if coefficient is None:
                coefficient = coefficients[geo.zeta_coefficient] = geo.zeta_coefficient(zeta)
            y = coefficient * kernel.formula(geo.zeta_argument(zeta), gap) / kernel.scale
            if y.dtype.kind == "c":
                rows = (y.real.reshape(-1, n), y.imag.reshape(-1, n))
            else:
                rows = (y.reshape(-1, n),)
            if len(layout) < len(parts):
                layout.append((len(rows) * rows[0].shape[0], len(rows) == 2, y.ndim == 1))
            blocks += rows
        return np.concatenate(blocks)

    breakpoints = sorted({b for _, geo in parts for b in geo.zeta_breakpoints})
    value = integrate_semi_infinite(integrand, tail_rate=tail_rate, tol=tol,
                                    breakpoints=breakpoints).value
    integrals = []
    start = 0
    for rows, is_complex, one_point in layout:
        block = value[start:start + rows]
        start += rows
        if is_complex:
            k = rows // 2
            integrals.append(complex(block[0], block[1]) if one_point
                             else block[:k] + 1j * block[k:])
        else:
            integrals.append(float(block[0]) if one_point else block)
    return integrals


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
