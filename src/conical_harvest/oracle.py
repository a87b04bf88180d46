"""Independent recomputation of P0, P1, P2, X0, X_P from their integral representations.

Everything here is evaluated straight from the regulated two-point-function
integrals: the s-integrals are split by the Sokhotski-Plemelj identity into a
principal-value part (numerical, pole-subtracted) plus delta terms (analytic),
exactly as the distribution-theoretic derivation prescribes.  No closed-form
error-function path from the production modules is used: this module depends
only on the quadrature engine, the geometry enumeration, and elementary
functions.  That independence is the point of an oracle: production P and X
come from the response kernel and aux_f (Faddeeva closed forms), so a match
between the two routes validates those closed forms, whereas an oracle that
called them would only compare the code with itself.

The total response P has a second route that shares nothing with the first:
Linet's massless Wightman function on the cone (B. Linet, PRD 35, 536
(1987)), analytic in nu, summed by the trapezoid rule on a contour shifted
below the real axis (p_closed_form_oracle).  It has no image sum, no zeta
integral and no principal value, and the sum converges geometrically
(Trefethen & Weideman, SIAM Review 56, 385 (2014)).  P2, the zeta-integral
part, is that total less the P0 and P1 oracles.

Every X term is one Sokhotski-Plemelj term of a distance D,

    T(D) = PV int_0^inf e^{-s^2/4}/(s^2 - D^2) ds - i pi e^{-D^2/4}/(2 D),

taken for an array of D at once (_sokhotski_plemelj): one integrate_pv call
with a pole per D, each of which meets _PV_TOL.  X0 and X_P's images are one
weighted pole set, D_0 = d with weight 1/2 and the images D_m with their
weights w_m, so X_P's image sum, X0 included, is one integrate_pv call and
X0 is the set without images.  The non-integer X_P integral takes T at
D(zeta) on every node of an outer zeta integral.  The outer integral is
integrate_semi_infinite's, the truncation and geometric start panels
(quadrature.tail_edges) that production's zeta integrals use.  It calls its integrand once per refinement
pass, on the nodes of every panel that pass adds, so all those inner
integrals run as one integrate_pv call.  From those start panels the outer
integral mostly ends in its first pass, so one integrate_pv call, and takes
at most two over nu in [1.15, 9.22] and gap in {0.1, 1}.

All values per lambda^2, lengths in sigma units, gap g = Omega*sigma.
"""

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidParameter, ToleranceNotMet
from .geometry import (ConeParameter, PairConfig, Alignment, check_cone, check_gap,
                       check_length, coefficient_breakpoints, image_terms)
from .quadrature import _POLE_FLOOR, integrate_adaptive, integrate_pv, integrate_semi_infinite

SQRT_PI = math.sqrt(math.pi)
_OUTER_TOL = 1e-8
_PV_TOL = 1e-10
# p_closed_form_oracle's trapezoid rule: step, nodes x = h j with |x| <= 14
# (e^{-x^2/4} < 1e-21 beyond), and the largest relative change when every
# other node is dropped
_TRAPEZOID_STEP = 0.1
_TRAPEZOID_NODES = _TRAPEZOID_STEP * np.arange(-140, 141)
_TRAPEZOID_RTOL = 1e-9


@dataclass(frozen=True)
class OracleReport:
    """One production-vs-oracle comparison; pass iff the relative deviation is in tolerance."""

    quantity: str
    production: Union[float, complex]
    oracle: Union[float, complex]
    abs_deviation: float
    rel_deviation: float
    tolerance: float
    passed: bool


def compare(quantity: str, production, oracle, tolerance: float) -> OracleReport:
    """Build an OracleReport, passed iff rel_deviation <= tolerance.

    The deviation is relative to the larger magnitude, except against an
    oracle of exactly 0, where the check is absolute and rel_deviation is
    the absolute deviation.
    """
    abs_dev = float(abs(production - oracle))
    rel_dev = abs_dev if oracle == 0 else abs_dev / max(abs(production), abs(oracle))
    return OracleReport(quantity=quantity, production=production, oracle=oracle,
                        abs_deviation=abs_dev, rel_deviation=float(rel_dev),
                        tolerance=tolerance, passed=bool(rel_dev <= tolerance))


def _gaussian(u):
    u = np.asarray(u, dtype=float)
    return np.exp(-u * u / 4.0)


def _gaussian_cos(gap):
    def numerator(s):
        s = np.asarray(s, dtype=float)
        return np.cos(gap * s) * np.exp(-s * s / 4.0)
    return numerator


def p0_oracle(gap: float) -> float:
    """Flat response from the subtracted-singularity s-integral plus its delta term.

    P0 = -(1/4 pi^(3/2)) int_0^inf [2 cos(g s) e^{-s^2/4} - 2]/s^2 ds
         - g/(4 sqrt(pi)).
    The integrand's -2/s^2 far tail is added analytically beyond s = 40.
    """
    check_gap(gap)
    cutoff = 40.0

    def integrand(s):
        s = np.asarray(s, dtype=float)
        out = np.empty_like(s)
        small = np.abs(s) < 1e-4
        big = ~small
        # series for 2[cos(gs)e^{-s^2/4} - 1]/s^2; avoids 0/0 cancellation
        g2 = gap * gap
        out[small] = (-(g2 + 0.5)
                      + (g2 * g2 / 12.0 + g2 / 4.0 + 1.0 / 16.0) * s[small] ** 2)
        sb = s[big]
        out[big] = (2.0 * np.cos(gap * sb) * np.exp(-sb * sb / 4.0) - 2.0) / (sb * sb)
        return out

    vals, _, _ = integrate_adaptive(integrand, 0.0, cutoff, _PV_TOL)
    body = float(vals[0]) - 2.0 / cutoff          # analytic int_40^inf (-2/s^2) ds
    return -body / (4.0 * math.pi ** 1.5) - gap / (4.0 * SQRT_PI)


def p1_oracle(rho: float, cone: ConeParameter, gap: float) -> float:
    """Image-sum response, one PV integral per image with its pole at 2 rho sin(m pi/nu).

    Per image (weight w_m, a_m = rho sin(m pi/nu)):
        delta part  -(1/4 sqrt(pi)) w_m e^{-a_m^2} sin(2 g a_m)/a_m
        PV part     -(1/pi^(3/2)) w_m PV int_0^inf cos(g s) e^{-s^2/4}/(s^2 - 4 a_m^2) ds
    as p1_oracle_terms lists them, one integral per image, all in one
    integrate_pv call.  When the smallest pole falls below integrate_pv's
    accuracy floor the rho -> 0 reduction 2 sum w_m P0 applies; it is off by
    O(rho^2), under 3e-9 relative at that floor.
    """
    check_cone(cone)
    check_length("rho", rho)
    check_gap(gap)
    terms = image_terms(cone)
    if not terms:
        return 0.0
    if 2.0 * rho * min(t.sin_term for t in terms) < _POLE_FLOOR:
        return 2.0 * sum(t.weight for t in terms) * p0_oracle(gap)
    return sum(delta + pv for _, _, delta, pv in p1_oracle_terms(rho, cone, gap))


def p1_oracle_terms(rho: float, cone: ConeParameter, gap: float):
    """Per-image (m, weight, delta part, PV part) decomposition of p1_oracle."""
    check_cone(cone)
    check_length("rho", rho)
    check_gap(gap)
    terms = image_terms(cone)
    if not terms:
        return []
    a = rho * np.array([t.sin_term for t in terms])
    pv = integrate_pv(_gaussian_cos(gap), 2.0 * a, tol=_PV_TOL).value
    delta = -np.exp(-a * a) * np.sin(2.0 * gap * a) / (4.0 * SQRT_PI * a)
    return [(t.m, t.weight, t.weight * float(dm), -t.weight * float(pm) / math.pi ** 1.5)
            for t, dm, pm in zip(terms, delta, pv)]


def _same_side_raw_coefficient(nu):
    # sin(nu pi)/(cosh(nu zeta) - cos(nu pi)); written independently of the
    # production coefficient helper on purpose.  With the exact e = nu - 2k
    # (k = round(nu/2)), cosh x = 1 + 2 sinh^2(x/2) and cos(nu pi) =
    # 1 - 2 sin^2(e pi/2), so the denominator has no cancellation near an even
    # nu, where cosh - cos leaves the integral too little precision to converge.
    e = nu - 2.0 * round(nu / 2.0)
    s, h = math.sin(math.pi * e), math.sin(0.5 * math.pi * e) ** 2

    def coefficient(zeta):
        return s / (2.0 * (np.sinh(0.5 * nu * np.asarray(zeta)) ** 2 + h))

    return coefficient


def _wightman_coincident(u, rho, nu):
    """Linet's Wightman function W(u) at coincident points rho_A = rho_B = rho.

    W = nu sinh(nu eta) / (8 pi^2 rho^2 sinh(eta) (cosh(nu eta) - 1)) with
    cosh(eta) = 1 - u^2/(2 rho^2), for complex u below the real axis.  There
    eta = 2 i theta with theta = arcsin(u/(2 rho)), so
        W = -nu cot(nu theta) / (4 pi^2 u sqrt(4 rho^2 - u^2)),
    and cot(nu theta) = i (1 + Q)/(1 - Q) with Q = e^{-2 i nu theta} =
    e^{-nu eta}, |Q| < 1: nothing overflows at small rho, where Q underflows
    to 0, and 1 - Q = -expm1(-2 i nu theta) keeps its digits at large rho,
    where theta -> u/(2 rho).  The form with e^eta = w + sqrt(w^2 - 1) and
    Q = exp(-nu log e^eta) lost them there: 6e-10 at rho = 1e6, NaN from
    rho = 1e20.
    """
    exponent = -2j * nu * np.arcsin(u / (2.0 * rho))
    cot = 1j * (1.0 + np.exp(exponent)) / -np.expm1(exponent)
    return -nu * cot / (4.0 * math.pi ** 2 * u * np.sqrt(4.0 * rho * rho - u * u))


def p_closed_form_oracle(rho: float, cone: ConeParameter, gap: float) -> float:
    """Total response P = P0 + P1 + P2 from Linet's closed-form Wightman function.

    P = Re sqrt(pi) int e^{-u^2/4 - i g u} W(u) du along u = x - i c, below
    W's singularities on the real axis, with c = max(1, 2 g): at c = 2 g the
    contour passes the Gaussian's saddle, where |e^{-u^2/4 - i g u}| =
    e^{-x^2/4 - g^2}, and it stays at least 1 from the real axis.  The
    trapezoid rule with h = 0.1 on |x| <= 14 (281 nodes) converges
    geometrically, like e^{-2 pi c/h}; the sum over every other node (step
    2 h) is its error estimate, and ToleranceNotMet is raised when the two
    differ by more than 1e-9 relative.  rho must be positive.
    """
    check_cone(cone)
    check_length("rho", rho, positive=True)
    check_gap(gap)
    u = _TRAPEZOID_NODES - 1j * max(1.0, 2.0 * gap)
    # one exponential: at large g the Gaussian alone overflows, e^{-i g u} underflows
    f = np.exp(-u * u / 4.0 - 1j * gap * u) * _wightman_coincident(u, rho, cone.nu)
    fine = SQRT_PI * _TRAPEZOID_STEP * float(f.sum().real)
    coarse = SQRT_PI * 2.0 * _TRAPEZOID_STEP * float(f[::2].sum().real)
    if not abs(fine - coarse) <= _TRAPEZOID_RTOL * abs(fine):
        raise ToleranceNotMet(fine, abs(fine - coarse), _TRAPEZOID_RTOL * abs(fine), f.size)
    return fine


def p2_oracle(rho: float, cone: ConeParameter, gap: float) -> float:
    """Zeta-integral response: the closed-form total less the P0 and P1 oracles.

    P2 = P - P0 - P1, with P from p_closed_form_oracle and P0, P1 from their
    PV representations.  Identically zero at integer nu.  rho must be positive.
    """
    check_cone(cone)
    check_length("rho", rho)
    check_gap(gap)
    if cone.is_integer:
        return 0.0
    if rho <= 0:
        raise InvalidParameter("p2_oracle requires rho > 0 (use the rho=0 reduction)")
    return (p_closed_form_oracle(rho, cone, gap) - p0_oracle(gap)
            - p1_oracle(rho, cone, gap))


def _sokhotski_plemelj(big_d):
    """T(D) = PV int_0^inf e^{-s^2/4}/(s^2 - D^2) ds - i pi e^{-D^2/4}/(2 D) for every D.

    One integrate_pv call with a pole per D; a complex scalar for a scalar D,
    a complex array for an array.
    """
    pv = integrate_pv(_gaussian, big_d, tol=_PV_TOL).value
    return pv - 1j * np.pi * _gaussian(big_d) / (2.0 * np.asarray(big_d))


def _direct_and_images(d, gap, l=0.0, terms=()):
    """(e^{-g^2}/pi^(3/2)) sum_m w_m T(D_m) over one pole set, in one integrate_pv call.

    D_0 = d with w_0 = 1/2 is X0; each image term adds D_m^2 = d^2 +
    4 l^2 sin^2(m pi/nu) with its weight w_m.  With no terms it is X0 alone.
    """
    sin_terms = np.array([t.sin_term for t in terms])
    big_d = np.concatenate(([d], np.sqrt(d * d + 4.0 * l * l * sin_terms ** 2)))
    weights = np.array([0.5] + [t.weight for t in terms])
    return complex(math.exp(-gap * gap) / math.pi ** 1.5
                   * (weights @ _sokhotski_plemelj(big_d)))


def x0_oracle(d: float, gap: float) -> complex:
    """Flat correlation from its PV representation plus the exact delta term.

    X0 = (e^{-g^2}/2 pi^(3/2)) T(d), the no-image case of X_P's pole sum: the
    real part is the PV integral, the imaginary part
    -(1/4 d sqrt(pi)) e^{-g^2 - d^2/4}.  A d below integrate_pv's accuracy
    floor (1e-5) is refused with its pole.
    """
    check_length("d", d, positive=True)
    check_gap(gap)
    return _direct_and_images(d, gap)


def xp_oracle(config: PairConfig, cone: ConeParameter) -> complex:
    """Parallel-alignment correlation from the PV representation, term by term.

    X_P = (e^{-g^2}/pi^(3/2)) sum_m w_m T(D_m) over the pole set D_0 = d,
    w_0 = 1/2 (X0) and D_m^2 = d^2 + 4 l^2 sin^2(m pi/nu) (the images), all
    in one integrate_pv call.  For non-integer nu the zeta part adds
    -(nu e^{-g^2}/2 pi^(5/2)) int c(zeta) T(D(zeta)) dzeta with
    c = sin(nu pi)/(cosh(nu zeta) - cos(nu pi)) and
    D(zeta)^2 = d^2 + 2 l^2 (1 + cosh zeta).
    """
    check_cone(cone)
    if not isinstance(config, PairConfig):
        raise InvalidParameter(f"config must be a PairConfig, got {config!r}")
    if config.alignment is not Alignment.PARALLEL:
        raise InvalidParameter("xp_oracle covers the parallel alignment only")
    d, l, gap = config.d, config.l, config.gap
    total = _direct_and_images(d, gap, l, image_terms(cone))

    if not cone.is_integer:
        coefficient = _same_side_raw_coefficient(cone.nu)

        def outer(zetas):
            term = coefficient(zetas) * _sokhotski_plemelj(
                np.sqrt(d * d + 2.0 * l * l * (1.0 + np.cosh(zetas))))
            return np.stack([term.real, term.imag])

        breakpoints = coefficient_breakpoints(cone.nu, cone.nu * math.pi)
        vals = integrate_semi_infinite(outer, cone.nu, _OUTER_TOL, breakpoints=breakpoints).value
        # sin/(cosh - cos) carries the opposite sign of the production
        # coefficient, hence the leading minus.
        total += (-cone.nu / (2.0 * math.pi ** 2.5) * math.exp(-gap * gap)
                  * complex(vals[0], vals[1]))

    return total


def p0_epsilon_regulated(gap: float, epsilon: float) -> float:
    """Flat response at finite regulator: -(1/4 pi^(3/2)) int ds e^{-igs-s^2/4}/(s-i eps)^2.

    The integrand's real part is even in s, so the fold 2 int_0^inf applies;
    the 1/eps^2-high peak at s = 0 is resolved by forced breakpoints.
    """
    check_gap(gap)
    check_length("epsilon", epsilon, positive=True)

    def integrand(s):
        s = np.asarray(s, dtype=float)
        denom = (s * s + epsilon * epsilon) ** 2
        real = ((s * s - epsilon * epsilon) * np.cos(gap * s)
                + 2.0 * s * epsilon * np.sin(gap * s))
        return np.exp(-s * s / 4.0) * real / denom

    vals, _, _ = integrate_adaptive(integrand, 0.0, 40.0, _PV_TOL,
                                    breakpoints=(epsilon, 10.0 * epsilon, 1.0))
    return -2.0 * float(vals[0]) / (4.0 * math.pi ** 1.5)


def p0_epsilon_extrapolated(gap: float) -> float:
    """Richardson extrapolation of the regulated response to eps -> 0.

    Two first-order eliminations on the eps = 1e-2, 5e-3, 2.5e-3 ladder leave
    an O(eps^3) residual, far below the 1e-4 acceptance tolerance.
    """
    i0, i1, i2 = (p0_epsilon_regulated(gap, e) for e in (1e-2, 5e-3, 2.5e-3))
    r0 = 2.0 * i1 - i0
    r1 = 2.0 * i2 - i1
    return (4.0 * r1 - r0) / 3.0


def epsilon_extrapolation_check(gap: float, production: float) -> OracleReport:
    """Sokhotski-Plemelj consistency: regulated integral extrapolates to the closed form.

    ``production`` is the closed-form flat response supplied by the caller
    (this module computes no closed forms itself); the tolerance is 1e-4.
    """
    return compare(f"p0_epsilon_extrapolation(gap={gap:g})", production,
                   p0_epsilon_extrapolated(gap), 1e-4)
