"""Arbitrary-precision reference values for the benchmark's output checks.

Everything here is evaluated with mpmath: the error functions come from
mpmath, the zeta integrals from mpmath's tanh-sinh quadrature, and nothing
calls into ``conical_harvest``.  The formulas are the physics of the library's
docstrings (Pozas-Kerstjens & Martin-Martinez, PRD 92, 064042):

    P0         = (e^{-g^2} - sqrt(pi) g erfc g) / (4 pi)
    K(a, g)    = e^{-a^2} { Im[e^{2iga} erf(g + ia)] - sin(2ga) }
    f(z, g)    = -i e^{-g^2 - z^2} erfc(iz) / (8 sqrt(pi) z)
    P(rho)     = P0 + sum_m' w_m K(a_m)/(4 sqrt(pi) a_m)
                    + int_0^inf c(zeta) K(b)/(8 sqrt(pi) b) dzeta
    X          = f(d/2) + 2 sum_m' w_m f(z_m) + int_0^inf c(zeta) f(z(zeta)) dzeta

The zeta coefficient's denominator cos(theta) - cosh(nu zeta) is written as
-2 [sin^2(theta/2) + sinh^2(nu zeta/2)], which has no cancellation, so the
integral stays accurate at nu = k +- 1e-12.  The integral is split at
multiples of the coefficient's peak width delta = sqrt(2 |1 - cos theta|)/nu.
"""

import math

import mpmath as mp

# Working precision of the integrands; sin(theta/2) is taken at _EXACT_DPS
# from the binary value of nu, so near-integer nu loses no digits.
_DPS = 15
_EXACT_DPS = 50
_ZETA_MAX = 40  # c(zeta) f(z(zeta)) < e^{-80} beyond this for every nu >= 1


def _images(nu):
    """(m, weight) of the floor(nu/2) images, half weight on m = nu/2 at even integer nu."""
    n = int(math.floor(nu / 2.0))
    half = int(nu) // 2 if (nu == int(nu) and int(nu) % 2 == 0) else None
    return [(m, 0.5 if m == half else 1.0) for m in range(1, n + 1)]


def _p0(g):
    return (mp.exp(-g * g) - mp.sqrt(mp.pi) * g * mp.erfc(g)) / (4 * mp.pi)


def _k_over_a(a, g):
    if a == 0:
        return 2 / mp.sqrt(mp.pi) * mp.exp(-g * g) - 2 * g * mp.erfc(g)
    phase = mp.expj(2 * g * a)
    return mp.exp(-a * a) * (mp.im(phase * mp.erf(mp.mpc(g, a))) - mp.sin(2 * g * a)) / a


def _f(z, g):
    return -1j * mp.exp(-g * g - z * z) * mp.erfc(mp.mpc(0, z)) / (8 * mp.sqrt(mp.pi) * z)


class _Coefficient:
    """nu sin(theta) / (q pi [cos theta - cosh(nu zeta)]) with theta = q nu pi, q = 1 or 2."""

    def __init__(self, nu, q):
        with mp.workdps(_EXACT_DPS):
            theta = q * mp.mpf(nu) * mp.pi
            sin_theta = mp.sin(theta)
            half = mp.sin(theta / 2)
        self.nu = mp.mpf(nu)
        self.numerator = self.nu * sin_theta / (q * mp.pi)
        self.sin2_half = half * half
        # peak width sqrt(2 |1 - cos theta|)/nu = 2 |sin(theta/2)|/nu
        self.width = 2 * abs(half) / self.nu

    def __call__(self, zeta):
        return -self.numerator / (2 * (self.sin2_half + mp.sinh(self.nu * zeta / 2) ** 2))

    def split_points(self):
        points = [mp.mpf(0)]
        if self.width > 0:
            step = self.width
            while step < 1:
                points.append(step)
                step *= 4
        points.extend(mp.mpf(p) for p in (1, 4, 16, _ZETA_MAX))
        return points


def _zeta_integral(coefficient, h):
    return mp.quad(lambda zeta: coefficient(zeta) * h(zeta), coefficient.split_points())


def _is_integer(nu):
    return nu == int(nu)


def _is_half_integer(nu):
    return 2.0 * nu == int(2.0 * nu)


def p_string_parts(rho, nu, gap):
    """(P0, image sum, zeta integral) at radial distance rho from a string with parameter nu."""
    with mp.workdps(_DPS):
        g, r = mp.mpf(gap), mp.mpf(rho)
        images = mp.mpf(0)
        for m, w in _images(nu):
            images += w * _k_over_a(r * mp.sin(m * mp.pi / nu), g) / (4 * mp.sqrt(mp.pi))
        integral = mp.mpf(0)
        if not _is_integer(nu):
            integral = _zeta_integral(
                _Coefficient(nu, 1),
                lambda z: _k_over_a(r * mp.cosh(z / 2), g)) / (8 * mp.sqrt(mp.pi))
        return float(_p0(g)), float(images), float(integral)


def p_string(rho, nu, gap):
    """Transition probability at radial distance rho from a string with parameter nu."""
    return sum(p_string_parts(rho, nu, gap))


def p_boundary(l, gap):
    """Transition probability at distance l from a reflecting plane."""
    with mp.workdps(_DPS):
        g = mp.mpf(gap)
        if l == 0:
            return 0.0
        return float(_p0(g) - _k_over_a(mp.mpf(l), g) / (8 * mp.sqrt(mp.pi)))


def p_flat(gap):
    with mp.workdps(_DPS):
        return float(_p0(mp.mpf(gap)))


def correlation(alignment, l, d, nu, gap):
    """Correlation X for an alignment name as the library spells it ("parallel", ...)."""
    with mp.workdps(_DPS):
        g, l_, d_ = mp.mpf(gap), mp.mpf(l), mp.mpf(d)
        total = _f(d_ / 2, g)
        if alignment == "flat":
            return complex(total)
        if alignment == "boundary-parallel":
            return complex(total - _f(mp.sqrt(d_ * d_ / 4 + l_ * l_), g))
        if alignment == "boundary-orthogonal":
            return complex(total - _f(d_ / 2 + l_, g))
        opposite = alignment == "opposite"
        if alignment == "parallel":
            product = l_ * l_
        elif alignment == "orthogonal":
            product = l_ * (l_ + d_)
        elif opposite:
            product = l_ * (d_ - l_)
        else:
            raise ValueError(f"unknown alignment {alignment!r}")
        sign = -1 if opposite else 1
        for m, w in _images(nu):
            z = mp.sqrt(d_ * d_ / 4 + sign * product * mp.sin(m * mp.pi / nu) ** 2)
            total += 2 * w * _f(z, g)
        vanishes = _is_half_integer(nu) if opposite else _is_integer(nu)
        if not vanishes:
            coef = _Coefficient(nu, 2 if opposite else 1)
            if opposite:
                def argument(zeta):
                    return mp.sqrt(d_ * d_ / 4 + product * (mp.cosh(zeta) - 1) / 2)
            else:
                def argument(zeta):
                    return mp.sqrt(d_ * d_ / 4 + product * (1 + mp.cosh(zeta)) / 2)
            total += _zeta_integral(coef, lambda z: _f(argument(z), g))
        return complex(total)


def responses(alignment, l, d, nu, gap):
    """(P_A, P_B) for an alignment name."""
    if alignment == "flat":
        p = p_flat(gap)
        return p, p
    if alignment in ("boundary-parallel", "boundary-orthogonal"):
        rho_b = l + d if alignment == "boundary-orthogonal" else l
        return p_boundary(l, gap), p_boundary(rho_b, gap)
    if alignment == "parallel":
        p = p_string(l, nu, gap)
        return p, p
    rho_b = l + d if alignment == "orthogonal" else d - l
    return p_string(l, nu, gap), p_string(rho_b, nu, gap)
