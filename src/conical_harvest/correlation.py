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
one d_max scan batch, costs a single integrate_semi_infinite call.  Each
part's image sum is likewise one call of its kernel's unchecked formula, on
all of its image arguments stacked (shape (k,) for one point, (k, n) for a
batch of n points), after one overlap test: the parameters were validated
where they entered (PairConfig, check_length, check_gap), so no image
re-validates them.  X0 is likewise one overlap test plus aux_f's formula
(``_x0``); only the public x_flat checks d and gap first.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DivergentOverlap, InvalidParameter
from .geometry import (
    BOUNDARY_ALIGNMENTS,
    BOUNDARY_CONE,
    ConeParameter,
    FArguments,
    PairConfig,
    check_gap,
    check_length,
    f_arguments,
)
from .quadrature import DEFAULT_TOL, integrate_semi_infinite
from .special import EPS_DIV, aux_f_formula


class Kernel(NamedTuple):
    """A kernel k(z, gap) = formula(z, gap)/scale of the image expansion.

    ``formula`` is the kernel without input checks, on a float array: the
    image sum calls it once on a part's stacked image arguments, and the zeta
    integrand once per pass on its nodes, both built from parameters that
    were validated where they entered.  An image argument at or below
    ``cutoff`` (None: the kernel has none) is a detector/image overlap, which
    the image sum refuses before the call.  ``zero`` is the kernel's zero,
    which the image sum starts from and a vanishing integral returns.  The
    image sum and the integrand are divided by ``scale`` once, after the
    kernel.
    """

    formula: Callable
    zero: Union[float, complex] = 0.0
    scale: float = 1.0
    cutoff: Optional[float] = None


AUX_F = Kernel(aux_f_formula, 0j, cutoff=EPS_DIV)


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
    """Flat-spacetime correlation X0 = f(d/2) per lambda^2; an array of d gives an array.

    |X0| decreases monotonically in d and diverges as d -> 0: a d/2 at or
    below aux_f's cutoff EPS_DIV raises DivergentOverlap.  A d (any of an
    array) or gap that geometry.check_length or check_gap refuses raises
    InvalidParameter by name.
    """
    for value in np.ravel(d):
        check_length("d", float(value), positive=True)
    check_gap(gap)
    return _x0(d, gap)


def _x0(d, gap: float):
    """X0 at validated separations: an overlap test (no image index), then aux_f's formula."""
    z = np.asarray(d / 2.0, dtype=float)
    overlap = z[z <= EPS_DIV]
    if overlap.size:
        bad = float(overlap[0])
        raise DivergentOverlap(argument=bad, image_index=None,
                               message=f"flat correlation diverges as d -> 0 (d={2.0 * bad!r})")
    out = aux_f_formula(z, gap)
    return complex(out) if out.ndim == 0 else out


def x_string(config: PairConfig, cone: ConeParameter, tol: float = DEFAULT_TOL) -> CorrelationBreakdown:
    """Correlation term of any alignment, from the images it sees (geometry.image_set).

    A detector/image overlap (an f-argument at or below the cutoff, e.g. the
    symmetric opposite-sides case at even integer nu) raises DivergentOverlap
    carrying the offending image index.
    """
    flat = _x0(config.d, config.gap)
    expansion = expand([(AUX_F, f_arguments(config, cone))], config.gap, cone.nu, tol)[0]
    return CorrelationBreakdown(flat, *expansion)


def expand(parts: Sequence[Tuple[Kernel, FArguments]], gap: float, tail_rate: float,
           tol: float = DEFAULT_TOL):
    """(images, integral, image_terms) of each part's image expansion of kernel(z, gap).

    A part is a (kernel, geo) pair: a Kernel and the point set's FArguments.
    image_terms holds (m, w_m, z_m, 2 w_m formula(z_m)) per geo.image_args
    entry, and images is their sum over kernel.scale (_image_sum).  integral
    is int_0^inf coef(zeta) k(z(zeta)) dzeta, or the kernel's zero where
    coef vanishes.  The integrals of all parts run in one
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
        images, terms = _image_sum(kernel, geo.image_args, gap)
        if not geo.zeta_vanishes:
            live.append(len(expansions))
        expansions.append((images / kernel.scale, kernel.zero, terms))
    if live:
        integrals = _zeta_integrals([parts[i] for i in live], gap, tail_rate, tol)
        for i, integral in zip(live, integrals):
            images, _, terms = expansions[i]
            expansions[i] = (images, integral, terms)
    return expansions


def _image_sum(kernel: Kernel, image_args, gap: float):
    """(sum_m 2 w_m formula(z_m), terms) from one kernel.formula call on the stacked z_m.

    The arguments stack to shape (k,) for one point, whose values and terms
    are Python numbers, and (k, n) for a batch of n points, whose are arrays.
    The terms are added in image order, as one call per image would add
    them.  An argument at or below kernel.cutoff raises DivergentOverlap
    with the first such image's index and argument.
    """
    if not image_args:
        return kernel.zero, ()
    z = np.array([z_m for _, _, z_m in image_args])
    if kernel.cutoff is not None:
        overlap = z <= kernel.cutoff
        if overlap.any():
            # row-major order: the first overlapping image, then its first point
            first = tuple(np.argwhere(overlap)[0])
            raise DivergentOverlap(argument=float(z[first]), image_index=image_args[first[0]][0])
    values = kernel.formula(z, gap)
    if values.ndim == 1:
        values = values.tolist()
    images = kernel.zero
    terms = []
    for (m, weight, z_m), value in zip(image_args, values):
        term = 2.0 * weight * value
        images += term
        terms.append((m, weight, z_m, term))
    return images, tuple(terms)


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
    # the integrator raises QuadratureFailure on a non-finite node value, so a
    # divide or invalid warning behind that value would only repeat the failure
    with np.errstate(divide="ignore", invalid="ignore"):
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
