"""The zeta integral near a resonance: nu within 1e-3 to 1e-12 of an even integer.

There the zeta coefficient is a peak at zeta = 0 of width 2|sin(b/2)|/nu,
b the branch angle reduced to [-pi, pi].  On the same side, P and X must stay
continuous in nu across the even integers, where the image sum gains or loses
the m = nu/2 image, and the integral must converge in one or two passes.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from conical_harvest import quadrature
from conical_harvest.entanglement import concurrence, nu_extremum
from conical_harvest.errors import NotUnimodal
from conical_harvest.geometry import (
    Alignment,
    ConeParameter,
    PairConfig,
    coefficient_breakpoints,
    zeta_coefficient,
)
from conical_harvest.quadrature import Bracket
from conical_harvest.response import p_string

SAME_SIDE = [Alignment.PARALLEL, Alignment.ORTHOGONAL_SAME_SIDE]
STRING_ALIGNMENTS = SAME_SIDE + [Alignment.ORTHOGONAL_OPPOSITE_SIDES]
ZETA = np.array([0.0, 1e-3, 0.05, 0.3, 1.0, 2.5, 7.0])


def textbook(nu, beta, multiplicity, zeta):
    return (multiplicity * nu * math.sin(beta * math.pi)
            / (2.0 * math.pi * (math.cos(beta * math.pi) - np.cosh(nu * zeta))))


@pytest.mark.parametrize("nu, beta, multiplicity", [
    (1.5, 1.5, 2), (2.5, 2.5, 2), (3.7, 3.7, 2), (9.22, 9.22, 2), (63.5, 63.5, 2),
    (1.3, 2.6, 1), (2.7, 5.4, 1), (5.934, 11.868, 1),
])
def test_zeta_coefficient_is_the_textbook_form_at_generic_nu(nu, beta, multiplicity):
    value = zeta_coefficient(nu, beta, multiplicity)(ZETA)
    expected = textbook(nu, beta, multiplicity, ZETA)
    assert np.all(np.abs(value - expected) <= 1e-13 * np.abs(expected))


def test_zeta_coefficient_keeps_its_digits_at_b_1e_10():
    # b = pi (beta - 2) = 1e-10: cos(beta pi) rounds to 1, so the textbook
    # denominator cancels to 0 at zeta = 0 and to garbage near it
    nu = 2.0 + 1e-10 / math.pi
    zeta = np.array([0.0, 1e-12, 1e-11, 3e-11, 1e-10, 1e-9, 1e-3, 1.0])
    value = zeta_coefficient(nu, nu, 2)(zeta)
    with mp.workdps(50):
        b = mp.pi * (mp.mpf(nu) - 2)
        expected = [float(2 * mp.mpf(nu) * mp.sin(b)
                          / (2 * mp.pi * (mp.cos(b) - mp.cosh(mp.mpf(nu) * mp.mpf(z)))))
                    for z in zeta]
    assert np.all(np.abs(value - expected) <= 1e-13 * np.abs(expected))
    with np.errstate(divide="ignore", invalid="ignore"):
        naive = textbook(nu, nu, 2, zeta[:4])
    assert not np.any(np.abs(naive - expected[:4]) <= 0.1 * np.abs(expected[:4]))


@pytest.mark.parametrize("nu, beta", [(2.0 + 1e-9, 2.0 + 1e-9), (3.9, 3.9), (2.05, 4.1),
                                      (5.934, 5.934), (2.0 + 1e-3, 4.0 + 2e-3)])
def test_coefficient_breakpoints_are_the_peak_width_times_powers_of_4(nu, beta):
    b = math.pi * (beta - 2.0 * round(beta / 2.0))
    delta = 2.0 * abs(math.sin(b / 2.0)) / nu
    edges = coefficient_breakpoints(nu, beta * math.pi)
    assert edges[0] == pytest.approx(delta, rel=1e-6)
    assert all(hi == 4.0 * lo for lo, hi in zip(edges, edges[1:]))
    assert edges[-1] < 1.0 / nu <= 4.0 * edges[-1]


@pytest.mark.parametrize("nu, beta", [(2.5, 2.5), (5.5, 5.5), (2.7, 5.4), (3.0, 3.0), (2.0, 4.0)])
def test_coefficient_breakpoints_are_none_without_a_peak(nu, beta):
    # delta >= 1/nu (an odd beta reduces to b = +-pi, the widest peak), or
    # b = 0, where the branch vanishes
    assert coefficient_breakpoints(nu, beta * math.pi) == ()


def parts(alignment, nu):
    result = concurrence(PairConfig(alignment, l=0.5, d=1.3, gap=0.1), ConeParameter(nu))
    return result.response_a.total, result.response_b.total, result.correlation.total


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("alignment", SAME_SIDE)
def test_same_side_p_and_x_are_continuous_across_even_integers(alignment, k):
    at_k = parts(alignment, float(k))
    for j in range(6, 13):
        for sign in (1, -1):
            near = parts(alignment, k + sign * 10.0 ** -j)
            for value, limit in zip(near, at_k):
                assert abs(value - limit) <= 10.0 * 10.0 ** -j * abs(limit), (j, sign)


def test_p_string_just_above_2_is_the_closed_form_value():
    # the closed-form P of Linet's Wightman function on the cone, continuous
    # in nu: 0.10387014358838 at nu = 2
    assert p_string(1.0, ConeParameter(2.0 + 1e-12), 0.1).total == pytest.approx(
        0.10387014358842, rel=1e-12)


@pytest.mark.parametrize("nu", [1.95, 2.05, 3.9, 4.1, 5.934, 9.97,
                                2.0 + 1e-3, 2.0 + 1e-6, 2.0 + 1e-9, 4.0 - 1e-12])
@pytest.mark.parametrize("alignment", STRING_ALIGNMENTS)
def test_a_concurrence_near_a_resonance_takes_at_most_two_passes(alignment, nu, monkeypatch):
    passes = []
    gk15 = quadrature._gk15

    def counting(f, a, b):
        passes.append(a.size)   # one _gk15 call per integrate_adaptive pass
        return gk15(f, a, b)

    monkeypatch.setattr(quadrature, "_gk15", counting)
    parts(alignment, nu)
    assert 1 <= len(passes) <= 2


def test_p_string_at_the_nu_extremum_step_off_4_is_continuous_with_nu_4():
    # the step that a bounded Brent search over [2.1, 7] takes, 1.4e-5 above 4
    nu = 4.000014093811235
    value = p_string(0.5, ConeParameter(nu), 0.1).total
    limit = p_string(0.5, ConeParameter(4.0), 0.1).total
    assert math.isfinite(value)
    assert abs(value - limit) <= 10.0 * (nu - 4.0) * limit


def test_the_opposite_sides_nu_extremum_ends_in_a_labelled_not_unimodal():
    # the search steps to nu = 4.000014, where the integral must converge;
    # opposite sides still jumps at the integers (its image rule), so the
    # bracket holds two minima
    config = PairConfig(Alignment.ORTHOGONAL_OPPOSITE_SIDES, l=0.5, d=1.5, gap=0.1)
    with pytest.raises(NotUnimodal, match="distinct local minima"):
        nu_extremum("response_correlation_gap", config, Bracket(2.1, 7.0))
