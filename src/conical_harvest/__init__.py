"""Entanglement harvesting by static Unruh-DeWitt detector pairs near a cosmic string.

All lengths are in units of the Gaussian switching duration sigma, energies in
1/sigma, and every probability / correlation / concurrence is reported per
lambda^2 (squared detector-field coupling), which is a global prefactor at
leading perturbative order.
"""

from ._version import __version__
from .errors import (
    ConicalHarvestError,
    DivergentArgument,
    DivergentOverlap,
    InvalidParameter,
    NoSignChange,
    NotUnimodal,
    OverflowDomain,
    QuadratureFailure,
    ToleranceNotMet,
    UnknownPreset,
)
from .geometry import Alignment, ConeParameter, ImageTerm, PairConfig, image_terms, radial_pair
from .special import aux_f, erfc_complex, faddeeva_w, response_kernel
from .response import ResponseBreakdown, p_boundary, p_flat, p_string
from .correlation import CorrelationBreakdown, x_boundary, x_flat, x_string
from .entanglement import (
    ConcurrenceResult,
    DmaxResult,
    SweepTable,
    concurrence,
    concurrence_flat,
    d_max,
    nu_extremum,
    opposite_sides_terminal_l,
    sweep,
)

__all__ = [
    "__version__",
    "Alignment",
    "ConcurrenceResult",
    "ConeParameter",
    "ConicalHarvestError",
    "CorrelationBreakdown",
    "DivergentArgument",
    "DivergentOverlap",
    "DmaxResult",
    "ImageTerm",
    "InvalidParameter",
    "NoSignChange",
    "NotUnimodal",
    "OverflowDomain",
    "PairConfig",
    "QuadratureFailure",
    "ResponseBreakdown",
    "SweepTable",
    "ToleranceNotMet",
    "UnknownPreset",
    "aux_f",
    "concurrence",
    "concurrence_flat",
    "d_max",
    "erfc_complex",
    "faddeeva_w",
    "image_terms",
    "nu_extremum",
    "opposite_sides_terminal_l",
    "p_boundary",
    "p_flat",
    "p_string",
    "radial_pair",
    "response_kernel",
    "sweep",
    "x_boundary",
    "x_flat",
    "x_string",
]
