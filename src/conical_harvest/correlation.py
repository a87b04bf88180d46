"""The image expansion shared by P and X, and the nonlocal correlation term X.

X pairs detector A with detector B, and a detector's response P is its
correlation with itself, so both are a direct term plus one image expansion
over the images the point set sees:
2 sum_m' w_m k(z_m) + int_0^inf coef(zeta) k(z(zeta)) dzeta.  One geometry
builder supplies z_m, z(zeta) and coef for both (image_f_arguments; P is its
d = 0 case).  X = f(d/2) + the expansion of k = aux_f, with f(d/2) its m = 0
entry; P is in the response module.  A reflecting boundary is the subtracted
nu = 2 image (weight -1/2, so X_images = -f(z_1)), and flat spacetime is
nu = 1 with no images; both have a vanishing zeta coefficient.

``expand`` takes several such expansions (parts: a kernel and a point set)
and runs all their zeta integrals as one integral: the rows of P_A,
P_B and X share one adaptive subdivision, which is how one concurrence, or
one d_max scan batch, costs a single integrate_semi_infinite call.  Each
part's image sum is likewise one call of its kernel's unchecked formula, on
all of its image arguments stacked (shape (k,) for one point, (k, n) for a
batch of n points), X's d/2 among them: the parameters were validated where
they entered (PairConfig, check_length, check_gap), so no image re-validates
them, and X's overlaps, d/2 included, were refused (check_overlap).
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .errors import DivergentOverlap, InvalidParameter
from .geometry import (
    BOUNDARY_ALIGNMENTS,
    BOUNDARY_CONE,
    FLAT_CONE,
    Alignment,
    ConeParameter,
    FArguments,
    PairConfig,
    check_gap,
    check_length,
    coefficient_breakpoints,
    f_arguments,
    pair_f_arguments,
    zeta_coefficient,
)
from .quadrature import DEFAULT_TOL, check_tolerance, integrate_semi_infinite
from .special import EPS_DIV, aux_f_formula


class Kernel(NamedTuple):
    """A kernel k(z, gap) = formula(z, gap)/scale of the image expansion.

    ``formula`` is the kernel without input checks, on a float array: the
    image sum calls it once on a part's stacked image arguments, and the zeta
    integrand once per pass on its nodes, both built from parameters that
    were validated where they entered.  ``zero`` is the kernel's zero, which
    the image sum starts from and a vanishing integral returns.  The image
    sum and the integrand are divided by ``scale`` once, after the kernel.
    """

    formula: Callable
    zero: Union[float, complex] = 0.0
    scale: float = 1.0


AUX_F = Kernel(aux_f_formula, 0j)


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

    |X0| decreases monotonically in d and diverges as d -> 0, where it
    raises DivergentOverlap (check_overlap).  A d (any of an array) or gap
    that geometry.check_length or check_gap refuses raises InvalidParameter.
    """
    for value in np.ravel(d):
        check_length("d", float(value), positive=True)
    check_gap(gap)
    geo = pair_f_arguments(Alignment.FLAT, FLAT_CONE, 0.0, d)
    check_overlap(geo.image_args)
    return expand([(AUX_F, geo)], gap)[0][0]


def overlap_mask(image_args) -> np.ndarray:
    """Overlap flags of X's arguments d/2, z_1..z_k: shape (1 + k,), or (1 + k, n) for n points.

    An argument at or below EPS_DIV, where aux_f diverges, puts a detector on
    its partner (m = 0) or an image of it.  Single points raise; scans and sweeps mask.
    """
    return np.array([z_m for _, _, z_m in image_args]) <= EPS_DIV


def check_overlap(image_args) -> None:
    """Raise DivergentOverlap at the first flagged entry, point; d/2 (m = 0) has no image index."""
    mask = overlap_mask(image_args)
    if mask.any():
        row, *point = np.argwhere(mask)[0]
        m, _, z_m = image_args[row]
        raise DivergentOverlap(float(np.asarray(z_m)[tuple(point)]), m or None)


def x_string(config: PairConfig, cone: ConeParameter, tol: float = DEFAULT_TOL) -> CorrelationBreakdown:
    """Correlation term of any alignment, from the images it sees (geometry.image_set).

    A detector/image overlap (check_overlap, e.g. the symmetric opposite-sides
    pair at even integer nu) raises DivergentOverlap with the image index.
    """
    geo = f_arguments(config, cone)
    check_overlap(geo.image_args)
    return CorrelationBreakdown(*expand([(AUX_F, geo)], config.gap, tol)[0])


def expand(parts: Sequence[Tuple[Kernel, FArguments]], gap: float, tol: float = DEFAULT_TOL):
    """(direct, images, integral, image_terms) of each part's image expansion of kernel(z, gap).

    A part is a (kernel, geo) pair: a Kernel and the point set's FArguments.
    direct is the m = 0 entry's term (X0; P has none, so its kernel's zero),
    image_terms (m, w_m, z_m, 2 w_m formula(z_m)) per image m >= 1, and images
    their sum, direct and images over kernel.scale (_image_sum).  integral
    is int_0^inf coef(zeta) k(z(zeta)) dzeta, or the kernel's zero where
    coef vanishes.  The integrals of all parts run in one
    integrate_semi_infinite call with the union of their breakpoints and the
    tail rate of the slowest-decaying branch, min(nu) over the parts'
    zeta_branches (a branch decays as e^{-nu zeta}): every row (a batch's
    points, a complex kernel's real and imaginary parts, every part) shares
    one adaptive subdivision and meets ``tol`` on its own, and a coefficient
    branch (geo.zeta_branches) that several parts hold is evaluated once per
    pass.  Parts whose coefficient vanishes stay out of it; when every
    coefficient vanishes, no integral runs, but a ``tol`` that
    quadrature.check_tolerance refuses raises InvalidParameter at any nu.
    """
    check_tolerance(tol, "quadrature")
    expansions = []
    live = []       # the parts whose zeta integral does not vanish
    for kernel, geo in parts:
        direct, images, terms = _image_sum(kernel, geo.image_args, gap)
        if not geo.zeta_vanishes:
            live.append(len(expansions))
        expansions.append([direct / kernel.scale, images / kernel.scale, kernel.zero, terms])
    if live:
        for i, integral in zip(live, _zeta_integrals([parts[j] for j in live], gap, tol)):
            expansions[i][2] = integral
    return expansions


def _image_sum(kernel: Kernel, image_args, gap: float):
    """(direct, sum_m 2 w_m formula(z_m), terms) from one kernel.formula call on the stacked z_m.

    The m = 0 entry, if any, is the direct term.  The arguments stack to shape
    (k,) for one point, whose values and terms are Python numbers, and (k, n)
    for a batch of n points, whose are arrays.  The terms are added in image
    order, as one call per image would add them.
    """
    if not image_args:
        return kernel.zero, kernel.zero, ()
    z = np.array([z_m for _, _, z_m in image_args])
    values = kernel.formula(z, gap)
    if values.ndim == 1:
        values = values.tolist()
    direct = images = kernel.zero
    terms = []
    for (m, weight, z_m), value in zip(image_args, values):
        term = 2.0 * weight * value
        if m == 0:
            direct = term
            continue
        images += term
        terms.append((m, weight, z_m, term))
    return direct, images, tuple(terms)


def _zeta_integrals(parts: Sequence[Tuple[Kernel, FArguments]], gap: float, tol: float):
    """Each part's int_0^inf coef k(z(zeta)) dzeta, from one integrate_semi_infinite call.

    A part's coef sums zeta_coefficient over its branches.  A branch
    (nu, beta, m) decays as e^{-nu zeta}, so the tail rate is the smallest
    branch nu.  One point gives a float (a complex for a complex kernel), a
    batch of points an array.  The integrand stacks every part's rows, a
    complex kernel's real rows before its imaginary rows:
    integrate_semi_infinite integrates real rows only.
    """
    layout = []     # (rows, complex, one point) per part, read from the first call
    branches = {branch: zeta_coefficient(*branch) for _, geo in parts for branch in geo.zeta_branches}

    def integrand(zeta):
        n = zeta.size
        coefficients = {branch: function(zeta) for branch, function in branches.items()}
        blocks = []
        for kernel, geo in parts:
            coefficient = None
            for branch in geo.zeta_branches:
                value = coefficients[branch]
                coefficient = value if coefficient is None else coefficient + value
            y = coefficient * kernel.formula(geo.zeta_argument(zeta), gap) / kernel.scale
            if y.dtype.kind == "c":
                rows = (y.real.reshape(-1, n), y.imag.reshape(-1, n))
            else:
                rows = (y.reshape(-1, n),)
            if len(layout) < len(parts):
                layout.append((len(rows) * rows[0].shape[0], len(rows) == 2, y.ndim == 1))
            blocks += rows
        return np.concatenate(blocks)

    breakpoints = sorted({b for nu, beta, _ in branches
                          for b in coefficient_breakpoints(nu, beta * np.pi)})
    # the integrator raises QuadratureFailure on a non-finite node value, so a
    # divide or invalid warning behind that value would only repeat the failure
    with np.errstate(divide="ignore", invalid="ignore"):
        value = integrate_semi_infinite(integrand, tail_rate=min(nu for nu, _, _ in branches),
                                        tol=tol, breakpoints=breakpoints).value
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
