"""Cone parameter, detector alignments, image enumeration, and effective distances.

The conical spacetime around an idealized straight string subtends azimuthal
angle 2 pi / nu with nu >= 1 (nu = 1 is Minkowski).  Its two-point function
splits into the flat term, a sum over floor(nu/2) rotated images (the m = nu/2
term carrying weight 1/2 exactly at even integer nu), and a residual integral
over zeta whose coefficient is one formula on branch data (zeta_branches,
zeta_coefficient), vanishing identically where a branch's beta is an integer.
Its denominator is taken as -2 (sinh^2(nu zeta/2) + sin^2(b/2)), b the
branch angle reduced to [-pi, pi], which does not cancel near a resonance
(b -> 0); there the coefficient is a peak at zeta = 0 of width
2|sin(b/2)|/nu, and coefficient_breakpoints starts the integral on
geometric panels from that width out to the decay length 1/nu.

By the method of images every alignment is one of these image sets
(``image_set``): flat spacetime is nu = 1, which has no images, and a
perfectly reflecting plane is the nu = 2 cone (deficit angle pi) with its one
image subtracted instead of added.  One builder (``image_f_arguments``)
expands two points over the images they see: X a detector with its partner
(``pair_f_arguments``), P a detector with itself (d = 0, rho_A = rho_B); see
correlation.expand.
"""

import enum
import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import InvalidParameter

NU_MAX = 64.0
INTEGER_SNAP_TOL = 1e-12
# Largest length (sigma units) accepted: the image arguments square lengths,
# and below this bound their squares stay finite.
MAX_LENGTH = 1e100


def _snap(value: float) -> float:
    rounded = round(value)
    return float(rounded) if abs(value - rounded) <= INTEGER_SNAP_TOL else float(value)


@dataclass(frozen=True)
class ConeParameter:
    """Deficit-angle parameter nu >= 1, snapped to integers within 1e-12."""

    nu: float

    def __post_init__(self):
        if not math.isfinite(self.nu):
            raise InvalidParameter("nu must be finite")
        if self.nu < 1.0:
            raise InvalidParameter(f"nu must be >= 1 (nu=1 is flat spacetime), got {self.nu}")
        if self.nu > NU_MAX:
            raise InvalidParameter(f"nu must be <= {NU_MAX:g}, got {self.nu}")
        object.__setattr__(self, "nu", _snap(self.nu))

    @property
    def is_integer(self) -> bool:
        return self.nu == round(self.nu)

    @property
    def deficit_angle(self) -> float:
        return 2.0 * math.pi * (self.nu - 1.0) / self.nu

    @property
    def string_tension_Gmu(self) -> float:
        return (1.0 - 1.0 / self.nu) / 4.0

    @property
    def image_count(self) -> int:
        return int(math.floor(self.nu / 2.0))


def check_cone(cone) -> None:
    """Raise InvalidParameter unless cone is a ConeParameter, not, say, a plain nu."""
    if not isinstance(cone, ConeParameter):
        raise InvalidParameter(f"cone must be a ConeParameter, got {cone!r}")


def check_length(name: str, value: float, positive: bool = False) -> None:
    """Raise InvalidParameter unless a length is finite, >= 0 (> 0 if positive), <= MAX_LENGTH."""
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        raise InvalidParameter(f"{name} must be finite and {'> 0' if positive else '>= 0'}, "
                               f"got {value!r}")
    if value > MAX_LENGTH:
        raise InvalidParameter(f"{name} must be at most {MAX_LENGTH:g} (sigma units), "
                               f"got {value!r}")


def check_gap(gap: float) -> None:
    """Raise InvalidParameter unless the energy gap Omega*sigma is finite and >= 0."""
    if not (math.isfinite(gap) and gap >= 0.0):
        raise InvalidParameter(f"gap must be finite and >= 0, got {gap!r}")


class Alignment(enum.Enum):
    FLAT = "flat"
    PARALLEL = "parallel"
    ORTHOGONAL_SAME_SIDE = "orthogonal"
    ORTHOGONAL_OPPOSITE_SIDES = "opposite"
    BOUNDARY_PARALLEL = "boundary-parallel"
    BOUNDARY_ORTHOGONAL = "boundary-orthogonal"

    @classmethod
    def from_string(cls, name: str) -> "Alignment":
        for member in cls:
            if member.value == name:
                return member
        raise InvalidParameter(f"unknown alignment {name!r}; "
                               f"choose from {', '.join(m.value for m in cls)}")


BOUNDARY_ALIGNMENTS = (Alignment.BOUNDARY_PARALLEL, Alignment.BOUNDARY_ORTHOGONAL)


def check_alignment(alignment) -> None:
    """Raise InvalidParameter unless alignment is an Alignment, not, say, its name."""
    if not isinstance(alignment, Alignment):
        raise InvalidParameter(f"alignment must be an Alignment, got {alignment!r}; "
                               f"Alignment.from_string converts a name")


def breaks_opposite_sides_rule(alignment: Alignment, l, d) -> bool:
    """Whether an opposite-sides pair breaks d >= 2l > 0 (a nan is check_length's to name)."""
    return alignment is Alignment.ORTHOGONAL_OPPOSITE_SIDES and (l <= 0.0 or d < 2.0 * l)


@dataclass(frozen=True)
class PairConfig:
    """Detector pair: alignment, string distance l, separation d, gap Omega*sigma.

    All lengths in sigma units, at most MAX_LENGTH.  Flat ignores l; boundary
    variants ignore nu.  The opposite-sides alignment requires d >= 2l > 0
    (detector B at radial distance d - l on the far side), checked before d's
    own rule, so that d = 2l = 0 names it.
    """

    alignment: Alignment
    l: float
    d: float
    gap: float

    def __post_init__(self):
        check_alignment(self.alignment)
        check_length("l", self.l)
        check_gap(self.gap)
        if breaks_opposite_sides_rule(self.alignment, self.l, self.d):
            raise InvalidParameter(
                f"opposite-sides alignment requires d >= 2l > 0, got l={self.l}, d={self.d}")
        check_length("d", self.d, positive=True)


@dataclass(frozen=True)
class ImageTerm:
    m: int
    weight: float
    sin_term: float


# image_set asks for a cone's terms several times per concurrence (responses
# and correlation); the tuple is immutable, so share it
@functools.lru_cache(maxsize=256)
def image_terms(cone: ConeParameter) -> Tuple[ImageTerm, ...]:
    """The floor(nu/2) conical image terms with the even-integer half-weight rule.

    Empty for nu < 2 (the image sum has no contribution there).
    """
    check_cone(cone)
    return tuple(ImageTerm(m=m, weight=0.5 if m == cone.nu / 2.0 else 1.0,
                           sin_term=math.sin(m * math.pi / cone.nu))
                 for m in range(1, cone.image_count + 1))


FLAT_CONE = ConeParameter(1.0)
BOUNDARY_CONE = ConeParameter(2.0)
# The reflecting plane's single image: the nu = 2 image with weight -1/2, not +1/2.
BOUNDARY_IMAGES = tuple(replace(term, weight=-term.weight) for term in image_terms(BOUNDARY_CONE))


def image_set(alignment: Alignment, cone: ConeParameter) -> Tuple[ConeParameter, Tuple[ImageTerm, ...]]:
    """The cone whose images and zeta integral a pair sees, and its image terms.

    A string alignment sees its own cone, flat sees nu = 1 (no images), and a
    boundary alignment sees nu = 2 with the image subtracted (BOUNDARY_IMAGES),
    whatever ``cone`` is.
    """
    if alignment in BOUNDARY_ALIGNMENTS:
        return BOUNDARY_CONE, BOUNDARY_IMAGES
    if alignment is Alignment.FLAT:
        cone = FLAT_CONE
    return cone, image_terms(cone)


def radial_distances(alignment: Alignment, l, d):
    """Radial distances (rho_A, rho_B) from the defect line / boundary; l, d scalars or arrays."""
    if alignment in (Alignment.ORTHOGONAL_SAME_SIDE, Alignment.BOUNDARY_ORTHOGONAL):
        return l, l + d
    if alignment is Alignment.ORTHOGONAL_OPPOSITE_SIDES:
        return l, d - l
    # parallel, boundary-parallel, flat: both detectors share one distance
    return l, l


def radial_pair(config: PairConfig) -> Tuple[float, float]:
    """Radial distances (rho_A, rho_B) from the defect line / boundary."""
    return radial_distances(config.alignment, config.l, config.d)


@dataclass(frozen=True)
class FArguments:
    """One point set's image expansion: image arguments and the zeta-integral pieces.

    image_args holds (m, weight, z_m).  zeta_argument maps an array of zeta to
    z(zeta), one row per point for a batch of points; zeta_branches holds one
    (nu, beta, multiplicity) per non-vanishing branch of the integral's
    coefficient, the sum of zeta_coefficient(*branch).  Where every branch
    vanishes the builders leave both unset (zeta_vanishes).
    """

    image_args: Tuple[Tuple[int, float, float], ...]
    zeta_argument: Optional[Callable[[np.ndarray], np.ndarray]] = None
    zeta_branches: Tuple[Tuple[float, float, int], ...] = ()

    @property
    def zeta_vanishes(self) -> bool:
        return not self.zeta_branches


def zeta_branches(nu: float, opposite: bool = False) -> Tuple[Tuple[float, float, int], ...]:
    """Same side (nu, nu, 2), opposite sides (nu, 2 nu, 1), or none where beta is an integer."""
    beta, multiplicity = (2.0 * nu, 1) if opposite else (nu, 2)
    return () if beta == round(beta) else ((nu, beta, multiplicity),)


@functools.lru_cache(maxsize=256)
def zeta_coefficient(nu: float, beta: float, multiplicity: int) -> Callable[[np.ndarray], np.ndarray]:
    """Linet's zeta-coefficient branch m nu sin(beta pi) / (2 pi [cos(beta pi) - cosh(nu zeta)]).

    With b = beta pi reduced to [-pi, pi] (exactly: pi (beta - 2 round(beta/2))),
    cos b - cosh x = -2 (sinh^2(x/2) + sin^2(b/2)), so the branch is
    scale / (u^2 + h) with u = sinh(nu zeta/2), h = sin^2(b/2) and
    scale = -m nu sin(b) / (4 pi).  Near a resonance (b -> 0) this keeps every
    digit of the peak at zeta = 0, where cos b - cosh x cancels.
    """
    b = math.pi * (beta - 2.0 * round(beta / 2.0))
    h = math.sin(b / 2.0) ** 2
    scale = -multiplicity * nu * math.sin(b) / (4.0 * math.pi)
    half_nu = nu / 2.0

    def coefficient(zeta):
        u = np.sinh(half_nu * np.asarray(zeta))
        return scale / (u * u + h)

    return coefficient


# looked up by perfbench/tracing.py's LAYERS, as quadrature.integrate_semi_infinite_complex is
def same_side_coefficient(nu): return zeta_coefficient(nu, nu, 2)
def opposite_sides_coefficient(nu): return zeta_coefficient(nu, 2.0 * nu, 1)


def coefficient_breakpoints(nu: float, angle: float) -> Tuple[float, ...]:
    """Start edges delta, 4 delta, 16 delta, ... below the decay length 1/nu.

    A branch with angle beta pi, reduced to b in [-pi, pi], has a peak at
    zeta = 0 of width delta = 2|sin(b/2)|/nu (zeta_coefficient's u^2 = h).
    Geometric panels from delta out to 1/nu, where tail_edges takes over,
    resolve the peak and its 1/zeta^2 shoulders from the first pass.  No
    edges where delta >= 1/nu (no peak) or b = 0 (the branch vanishes).
    """
    delta = 2.0 * abs(math.sin(math.remainder(angle, 2.0 * math.pi) / 2.0)) / nu
    edges = []
    while 0.0 < delta < 1.0 / nu:
        edges.append(delta)
        delta *= 4.0
    return tuple(edges)


def point_rows(x):
    """A scalar unchanged, an array of points as a column.

    Broadcast against a node array, the column gives one row per point, while
    a scalar keeps the node array's shape (how one point and a batch of
    points share one integrand).
    """
    # getattr, not np.ndim: this runs on every scalar concurrence, where np.ndim costs more
    return np.asarray(x, dtype=float)[:, None] if getattr(x, "ndim", 0) else x


def f_arguments(config: PairConfig, cone: ConeParameter) -> FArguments:
    """Image arguments and zeta-integral pieces for the correlation term X of one pair."""
    return pair_f_arguments(config.alignment, cone, config.l, config.d)


def pair_f_arguments(alignment: Alignment, cone: ConeParameter, l, d) -> FArguments:
    """X's image_f_arguments: the images the alignment sees, at its radial distances.

    ``l`` and ``d`` are scalars or equal-shape 1-D arrays of validated points.
    """
    seen, terms = image_set(alignment, cone)
    rho_a, rho_b = radial_distances(alignment, l, d)
    return image_f_arguments(seen, terms, rho_a, rho_b, d,
                             opposite=alignment is Alignment.ORTHOGONAL_OPPOSITE_SIDES)


def image_f_arguments(cone: ConeParameter, terms: Tuple[ImageTerm, ...], rho_a, rho_b, d,
                      opposite: bool = False) -> FArguments:
    """Image arguments and zeta-integral pieces of two points at radial distances rho_A, rho_B.

    ``cone`` and ``terms`` are an image set (image_set); ``rho_a``, ``rho_b``
    and ``d`` are scalars or equal-shape 1-D arrays of validated points.  For
    arrays each z_m is an array, and zeta_argument maps a node array of zeta
    to one row per point (see point_rows).
    Same side (parallel / orthogonal pairs, and P, a detector with itself:
    rho_A = rho_B = rho, d = 0):
        z_m    = sqrt(d^2/4 + rho_A rho_B sin^2(m pi / nu))
        z(zeta) = sqrt(d^2/4 + rho_A rho_B (1 + cosh zeta)/2)
    Opposite sides (Delta theta = pi, d = rho_A + rho_B; only the j=+ branch
    survives):
        z_m    = sqrt(d^2/4 - rho_A rho_B sin^2(m pi / nu))
                 (radicand = (d/2 - rho_A)^2 + rho_A rho_B cos^2 >= 0 given d >= 2 rho_A)
        z(zeta) = sqrt(d^2/4 + rho_A rho_B (cosh zeta - 1)/2)
    The zeta coefficient's branches are zeta_branches(nu, opposite).
    """
    product, quarter_d2 = rho_a * rho_b, d * d / 4.0
    sqrt = np.sqrt if getattr(product, "ndim", 0) or getattr(d, "ndim", 0) else math.sqrt
    if opposite:
        offset = (d / 2.0 - rho_a) ** 2
        cosines = [math.cos(term.m * math.pi / cone.nu) for term in terms]
        image_args = tuple((term.m, term.weight, sqrt(offset + product * cos * cos))
                           for term, cos in zip(terms, cosines))
    else:
        image_args = tuple((term.m, term.weight,
                            sqrt(quarter_d2 + product * term.sin_term * term.sin_term))
                           for term in terms)
    branches = zeta_branches(cone.nu, opposite)
    if not branches:
        return FArguments(image_args)
    product_rows, quarter_d2 = point_rows(product), point_rows(quarter_d2)
    shift = -1.0 if opposite else 1.0

    def argument(zeta):
        return np.sqrt(quarter_d2 + product_rows * (np.cosh(np.asarray(zeta)) + shift) / 2.0)

    return FArguments(image_args, argument, branches)
