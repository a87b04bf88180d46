"""Complex error-function family and the two stable kernels used everywhere.

The Faddeeva function w(z) = exp(-z^2) erfc(-iz) is the numerically safe route
to every complex-argument error function below.  Both physics kernels are
algebraic reductions to w evaluated in the upper half plane, where it never
overflows:

    response kernel   K(a, g) = e^{-a^2} { Im[e^{2iga} Erf(ia + g)] - sin(2ga) }
                              = -e^{-g^2} Im[w(-a + ig)]
    auxiliary         f(z, g) = -i e^{-g^2 - z^2} Erfc(iz) / (8 sqrt(pi) z)
                              = -i e^{-g^2} w(-z) / (8 sqrt(pi) z)

with g = Omega*sigma the dimensionless energy gap and all lengths in sigma
units.  Every public quantity is per lambda^2.

Each kernel is one formula (``response_kernel_formula``, ``aux_f_formula``);
the public ``response_kernel`` and ``aux_f`` are input checks plus that
formula, and P0 and K's a -> 0 limit both read ``p0_bracket``.
correlation.expand calls the formulas directly, once per image sum on the
stacked image arguments and once per pass on the zeta nodes: both come from
parameters that were validated once, where they entered, and the quadrature
still refuses a non-finite value.
"""

import math

import numpy as np
from scipy.special import erf as _erf_scipy, erfc as _erfc_real, erfcx as _erfcx, wofz as _wofz

from .errors import DivergentArgument, InvalidParameter, OverflowDomain

SQRT_PI = np.sqrt(np.pi)

# The smallest normal double: a value below it keeps fewer digits, and a
# product of two such values none.
TINY = float(np.finfo(float).tiny)

# Divergence cutoff for aux_f (sigma units).  The point-detector model breaks
# down when a detector overlaps an image; refuse rather than return huge numbers.
EPS_DIV = 1e-10

# Beyond this |Im z| the unscaled erfc factor e^{-z^2} exceeds ~1e62 and the
# direct product loses all relative accuracy long before e^{708} overflow.
ERFC_IM_MAX = 12.0


def _check_finite(z, name):
    arr = np.asarray(z)
    if not np.all(np.isfinite(arr)):
        raise InvalidParameter(f"{name} must be finite, got {z!r}")


def faddeeva_w(z):
    """Scaled complementary error function w(z) = exp(-z^2) erfc(-iz).

    Accepts scalars or arrays.  Total function: finite for every finite z
    (the evaluation switches regimes internally and never forms e^{-z^2}
    on its own).
    """
    _check_finite(z, "z")
    w = _wofz(z)
    if not np.all(np.isfinite(np.asarray(w))):
        # Deep lower half plane: w ~ 2 exp(-z^2) genuinely overflows double range.
        raise OverflowDomain(f"w(z) overflows double precision at z={z!r}")
    return w


def erfc_complex(z):
    """Complementary error function of complex argument via erfc(z) = e^{-z^2} w(iz).

    Restricted to |Im z| <= 12; outside that band the unscaled value is
    dominated by e^{(Im z)^2} and callers must use the kernel forms instead.
    """
    _check_finite(z, "z")
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z.imag) > ERFC_IM_MAX):
        raise OverflowDomain(
            f"|Im z| > {ERFC_IM_MAX:g}: unscaled erfc would lose all accuracy; "
            "use response_kernel / aux_f"
        )
    out = np.exp(-z * z) * _wofz(1j * z)
    return complex(out) if out.ndim == 0 else out


def response_kernel(a, gap):
    """Transition-rate kernel K(a, g) = -e^{-g^2} Im[w(-a + ig)].

    ``a`` is the image half-distance in sigma units (scalar or array, >= 0),
    ``gap`` the energy gap Omega*sigma (scalar, >= 0).  Equivalent to the
    direct form e^{-a^2}{Im[e^{2iga} Erf(ia+g)] - sin(2ga)} but free of the
    e^{a^2} overflow that kills the direct path for a >~ 12.
    """
    a = np.asarray(a, dtype=float)
    _check_finite(a, "a")
    if np.any(a < 0):
        raise InvalidParameter("a must be >= 0")
    if not (np.isscalar(gap) or np.ndim(gap) == 0) or gap < 0 or not np.isfinite(gap):
        raise InvalidParameter("gap must be a finite scalar >= 0")
    out = response_kernel_formula(a, gap)
    return float(out) if out.ndim == 0 else out


def response_kernel_formula(a, gap):
    """K(a, g) = -e^{-g^2} Im[w(-a + ig)] on a float array ``a``, without input checks.

    For arguments built from parameters that were already validated (finite
    a >= 0, finite scalar gap >= 0), as the image sums' and the zeta
    integrand's are.
    """
    return -np.exp(-gap * gap) * np.imag(_wofz(-a + 1j * gap))


def response_kernel_direct(a, gap):
    """Direct complex-erf evaluation of K(a, g); validation path only.

    In-domain for a <~ 12 (the Erf(ia + g) factor grows like e^{a^2}).
    Retained to cross-check the overflow-free reduction used in production.
    """
    a = np.asarray(a, dtype=float)
    phase = np.exp(2j * gap * a)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(-a * a) * (np.imag(phase * _erf_scipy(1j * a + gap)) - np.sin(2 * gap * a))
    if not np.all(np.isfinite(np.asarray(out))):
        raise OverflowDomain("direct kernel path overflowed; use response_kernel")
    return float(out) if out.ndim == 0 else out


def p0_bracket(gap):
    """e^{-g^2} - sqrt(pi) g erfc(g) at a validated gap: 4 pi P0, and sqrt(pi)/2 lim K/a."""
    head = math.exp(-gap * gap)
    if head < TINY:
        # from g ~ 26.6 e^{-g^2} is subnormal, and a difference of two subnormal
        # terms keeps no digits: factor it out, e^{g^2} erfc(g) = erfcx(g) finite
        return head * max(1.0 - SQRT_PI * (gap * _erfcx(gap)), 0.0)
    tail = _erfc_real(gap)
    # sqrt(pi) g overflows past g ~ 1e308, where erfc(g), and so the product, is 0
    return head - (SQRT_PI * gap * tail if tail else 0.0)


def response_kernel_limit(gap):
    """K(a, g)/a's a -> 0 limit, (2/sqrt(pi)) p0_bracket(g) (w's series at imaginary argument)."""
    return 2.0 / SQRT_PI * p0_bracket(gap)


def aux_f(z, gap):
    """Auxiliary correlation function f(z) = -i e^{-g^2} w(-z) / (8 sqrt(pi) z), per lambda^2.

    ``z`` (scalar or array) must exceed the divergence cutoff EPS_DIV; at or
    below it the detector/image overlap makes the point model meaningless and
    DivergentArgument is raised.  For real z > 0 both Re f and Im f are
    strictly negative, and |f| ~ e^{-g^2} / (8 pi z^2) for large z.
    """
    z = np.asarray(z, dtype=float)
    _check_finite(z, "z")
    if np.any(z <= EPS_DIV):
        bad = z if z.ndim == 0 else z[z <= EPS_DIV][0]
        raise DivergentArgument(float(bad))
    if not np.isfinite(gap) or gap < 0:
        raise InvalidParameter("gap must be a finite scalar >= 0")
    out = aux_f_formula(z, gap)
    return complex(out) if out.ndim == 0 else out


def aux_f_formula(z, gap):
    """f(z, g) = -i e^{-g^2} w(-z) / (8 sqrt(pi) z) on a float array ``z``, without input checks.

    For arguments built from parameters that were already validated (finite
    z > EPS_DIV, finite scalar gap >= 0), as the image sums' and the zeta
    integrand's are.
    """
    return -1j * np.exp(-gap * gap) * _wofz(-z) / (8.0 * SQRT_PI * z)
