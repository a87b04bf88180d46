import math
import sys

import numpy as np
import pytest

from conical_harvest import correlation
from conical_harvest.correlation import x_string
from conical_harvest.entanglement import concurrence, response_pair
from conical_harvest.errors import InvalidParameter
from conical_harvest.geometry import BOUNDARY_CONE, Alignment, ConeParameter, PairConfig, image_terms
from conical_harvest.response import FAULT_ENV, image_response, p_boundary, p_flat, p_string
from conical_harvest.special import erfc_complex

GAP = 0.1


def test_p_flat_frozen_values():
    assert p_flat(0.0) == pytest.approx(0.079577471545947667884, rel=1e-14)  # 1/(4 pi)
    assert p_flat(0.1) == pytest.approx(0.066267183029373793784, rel=1e-13)
    assert p_flat(1.5) == pytest.approx(0.0012162325580967177324, rel=1e-12)


def test_p_flat_large_gap_and_monotone():
    assert p_flat(10.0) < 1e-5
    # sqrt(pi) g overflows at the largest float; erfc(g) is 0 there, and so is P0
    assert p_flat(sys.float_info.max) == 0.0
    gaps = np.linspace(0.0, 4.0, 17)
    values = [p_flat(g) for g in gaps]
    assert all(a > b for a, b in zip(values, values[1:]))
    with pytest.raises(InvalidParameter):
        p_flat(-0.1)


@pytest.mark.parametrize("gap, want", [
    # (1/4 pi) [e^{-g^2} - sqrt(pi) g erfc(g)] from mpmath at 50 digits
    (26.0, 1.5338485822664158e-298), (26.6, 2.88187294979e-312), (26.75, 9.53584507e-316),
])
def test_p_flat_keeps_its_digits_where_e_to_the_minus_gap_squared_is_subnormal(gap, want):
    # the difference of two subnormal terms read 1.37e-312 at gap 26.75
    assert p_flat(gap) == pytest.approx(want, rel=1e-12, abs=1e-323)


@pytest.mark.parametrize("nu", [1.5, 2.0, 2.5, 3.0, 11.0])
def test_on_string_identity(nu):
    total = p_string(0.0, ConeParameter(nu), GAP).total
    assert total == pytest.approx(nu * p_flat(GAP), rel=1e-7)


@pytest.mark.parametrize("nu", [3.0, 11.0])
@pytest.mark.parametrize("gap, rel", [(0.0, 1e-12), (0.1, 1e-12), (1.5, 1e-12), (5.0, 1e-12),
                                      (12.0, 1e-12), (20.0, 1e-12), (26.0, 1e-12),
                                      (26.5, 1e-12), (26.7, 1e-9)])
def test_on_string_identity_where_p0_is_subnormal(nu, gap, rel):
    # the kernel's a -> 0 limit and P0 read one bracket (special.p0_bracket); the
    # limit's own copy lost every digit at gap 26.7 (ratio ~953 at nu 3, ~1,299 at 11)
    total = p_string(0.0, ConeParameter(nu), gap).total
    assert total == pytest.approx(nu * p_flat(gap), rel=rel, abs=0.0)


def test_on_string_identity_spec_value():
    # nu=3: total = 3 * 0.0662671830 = 0.1988015491
    assert p_string(0.0, ConeParameter(3.0), GAP).total == pytest.approx(0.1988015, abs=1e-7)


def test_breakdown_total_identity():
    b = p_string(0.7, ConeParameter(2.5), GAP)
    assert b.total == b.p_flat + b.p_images + b.p_integral
    assert b.p_flat == pytest.approx(p_flat(GAP), rel=1e-15)


def test_integral_part_zero_at_integer_nu():
    assert p_string(0.7, ConeParameter(3.0), GAP).p_integral == 0.0
    assert p_string(0.7, ConeParameter(2.5), GAP).p_integral != 0.0


def test_far_field_tail():
    # the image term decays as e^{-g^2}/(4 pi a^2) with a = rho sin(pi/3),
    # a power law, so P0 is reached at 1e-8 only for rho in the thousands
    cone = ConeParameter(3.0)
    deviation = p_string(50.0, cone, GAP).total - p_flat(GAP)
    a = 50.0 * math.sin(math.pi / 3.0)
    predicted = math.exp(-GAP * GAP) / (4.0 * math.pi * a * a)
    assert deviation == pytest.approx(predicted, rel=0.02)
    assert abs(p_string(3500.0, cone, GAP).total - p_flat(GAP)) <= 1e-8


def test_flat_reduction_any_rho():
    cone = ConeParameter(1.0)
    for rho in (0.0, 0.3, 5.0, 100.0):
        assert p_string(rho, cone, GAP).total == pytest.approx(p_flat(GAP), rel=1e-15)


def test_monotone_in_rho():
    for nu in (2.0, 3.0, 11.0):
        cone = ConeParameter(nu)
        values = [p_string(r, cone, GAP).total for r in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_monotone_in_nu():
    values = [p_string(0.1, ConeParameter(nu), GAP).total for nu in (1.0, 2.0, 3.0, 5.0, 11.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_bounded_by_maximum_at_string():
    for nu in (2.0, 2.5, 3.0):
        cone = ConeParameter(nu)
        for rho in (0.0, 0.2, 1.0, 3.0):
            assert 0.0 <= p_string(rho, cone, GAP).total <= nu * p_flat(GAP) + 1e-9


def test_non_integer_on_string_value():
    assert p_string(0.0, ConeParameter(2.5), GAP).total == pytest.approx(
        2.5 * p_flat(GAP), rel=1e-7)


@pytest.mark.parametrize("gap", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("nu", [1.5, 2.5, 3.0])
def test_p_string_refuses_a_bad_gap_by_name(nu, gap):
    # at nu < 2 there is no image sum, and the zeta integral would meet the gap first
    with pytest.raises(InvalidParameter, match="^gap must be finite and >= 0"):
        p_string(1.0, ConeParameter(nu), gap)


@pytest.mark.parametrize("gap", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("l", [1e-9, 1.0])
def test_p_boundary_refuses_a_bad_gap_by_name(l, gap):
    # l = 1e-9 lies below SMALL_ARGUMENT, where the kernel takes its a -> 0 limit
    with pytest.raises(InvalidParameter, match="^gap must be finite and >= 0"):
        p_boundary(l, gap)


def test_p_boundary_limits():
    # at the wall P0 and the subtracted image cancel: p_boundary is zero to
    # rounding there, and is the response that response_pair gives a boundary pair
    for gap in (0.0, 0.1, 1.0):
        for l in (0.0, 1e-12, 1e-9, 2e-8):
            value = p_boundary(l, gap)
            pair = response_pair(PairConfig(Alignment.BOUNDARY_PARALLEL, l=l, d=1.0, gap=gap),
                                 BOUNDARY_CONE)
            assert value == pair[0].total, (gap, l)
            assert 0.0 <= value <= 1e-15, (gap, l)
    # far-field tail is e^{-g^2}/(8 pi l^2): 1.6e-5 at l=50, 1e-8 only by l~3000
    assert p_boundary(50.0, GAP) == pytest.approx(
        p_flat(GAP) - math.exp(-GAP * GAP) / (8.0 * math.pi * 2500.0), rel=1e-3)
    assert abs(p_boundary(3000.0, GAP) - p_flat(GAP)) <= 1e-8


def test_p_boundary_between_zero_and_flat():
    value = p_boundary(1.0, GAP)
    assert 0.0 < value < p_flat(GAP)


def test_p_boundary_direct_formula_oracle():
    # explicit unreduced form with complex erf, in-domain at moderate l
    l = 1.0
    brace = (np.imag(np.exp(2j * l * GAP) * (1.0 - erfc_complex(1j * l + GAP)))
             - math.sin(2 * l * GAP))
    direct = p_flat(GAP) - math.exp(-l * l) * brace / (8.0 * math.sqrt(math.pi) * l)
    assert p_boundary(l, GAP) == pytest.approx(direct, rel=1e-12)


def test_fault_injection_hook(monkeypatch):
    clean = p_string(1.0, ConeParameter(3.0), GAP)
    pair = PairConfig(Alignment.PARALLEL, l=1.0, d=0.8, gap=GAP)
    clean_x = x_string(pair, ConeParameter(3.0)).total
    # concurrence expands P_A, P_B and X in one call, at integer nu and, with
    # one zeta integral for all three, at non-integer nu
    pairs = [(PairConfig(alignment, l=0.6, d=1.4, gap=GAP), ConeParameter(nu))
             for alignment in (Alignment.PARALLEL, Alignment.ORTHOGONAL_SAME_SIDE,
                               Alignment.ORTHOGONAL_OPPOSITE_SIDES)
             for nu in (3.0, 2.5, 3.7)]
    clean_c = [concurrence(*args) for args in pairs]
    monkeypatch.setenv(FAULT_ENV, "1.0001")
    faulty = p_string(1.0, ConeParameter(3.0), GAP)
    assert faulty.p_images == pytest.approx(clean.p_images * 1.0001, rel=1e-12)
    assert faulty.total != clean.total
    # X runs the same image expansion, but the hook scales only P's images
    assert x_string(pair, ConeParameter(3.0)).total == clean_x
    for args, want in zip(pairs, clean_c):
        got = concurrence(*args)
        for p_got, p_want in ((got.response_a, want.response_a),
                              (got.response_b, want.response_b)):
            assert p_got.p_images == pytest.approx(p_want.p_images * 1.0001, rel=1e-12)
            assert p_got.p_integral == p_want.p_integral
        assert got.geo_mean_p != want.geo_mean_p
        assert got.abs_x == want.abs_x


def test_invalid_rho():
    with pytest.raises(InvalidParameter):
        p_string(-1.0, ConeParameter(2.0), GAP)
    with pytest.raises(InvalidParameter):
        p_boundary(-1.0, GAP)


@pytest.mark.parametrize("nu", [1.5, 2.5, 3.7])
def test_p_integral_of_an_array_matches_one_call_per_point(nu, monkeypatch):
    def p_integral(rho, cone, gap, tol=1e-10):
        return image_response(rho, cone, image_terms(cone), gap, tol).p_integral

    cone = ConeParameter(nu)
    rho = np.array([0.0, 0.05, 0.4, 1.3, 6.0])
    batch = p_integral(rho, cone, GAP, tol=1e-10)
    assert batch.shape == rho.shape
    for r, got in zip(rho, batch):
        one = p_integral(float(r), cone, GAP, tol=1e-10)
        assert type(one) is float and abs(got - one) <= 1e-10
    assert p_integral(rho, ConeParameter(3.0), GAP) == 0.0

    # repeated distances are integrated once per entry, on one shared subdivision
    rows = []
    integrate = correlation.integrate_semi_infinite

    def counting(integrand, **kwargs):
        def recorded(zeta):
            values = integrand(zeta)
            rows.append(values.shape[0])
            return values
        return integrate(recorded, **kwargs)

    monkeypatch.setattr(correlation, "integrate_semi_infinite", counting)
    repeated = np.concatenate([rho, rho[::-1], np.full(7, 0.4)])
    assert np.array_equal(p_integral(repeated, cone, GAP, tol=1e-10),
                          np.concatenate([batch, batch[::-1], np.full(7, batch[2])]))
    assert rows and set(rows) == {repeated.size}


def test_responses_refuse_a_distance_whose_square_overflows():
    # P squares rho in its image arguments: up to the bound that stays finite
    assert math.isfinite(p_string(1e100, ConeParameter(2.5), GAP).total)
    with pytest.raises(InvalidParameter, match="^rho must be at most"):
        p_string(1e200, ConeParameter(2.5), GAP)
    with pytest.raises(InvalidParameter, match="^l must be at most"):
        p_boundary(1e200, GAP)
