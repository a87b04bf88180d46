import math
import re
import sys

import mpmath
import numpy as np
import pytest

from conical_harvest.errors import DivergentArgument, InvalidParameter, OverflowDomain
from conical_harvest.special import (
    EPS_DIV,
    aux_f,
    aux_f_formula,
    erfc_complex,
    faddeeva_w,
    response_kernel,
    response_kernel_direct,
    response_kernel_formula,
    response_kernel_limit,
)

mpmath.mp.dps = 40


def w_reference(z):
    z = mpmath.mpc(z)
    return complex(mpmath.exp(-z * z) * mpmath.erfc(-1j * z))


def test_w_at_zero():
    assert faddeeva_w(0.0) == pytest.approx(1.0, abs=1e-15)


def test_w_at_i():
    # e * erfc(1), frozen from a 40-digit mpmath evaluation
    assert faddeeva_w(1j).real == pytest.approx(0.42758357615580700441, rel=1e-14)
    assert abs(faddeeva_w(1j).imag) < 1e-16


def test_w_reflection_symmetry():
    z = 0.7 + 0.3j
    assert faddeeva_w(-np.conj(z)) == pytest.approx(np.conj(faddeeva_w(z)), rel=1e-14)


def test_w_against_high_precision_reference():
    # |z| <= 10 with Im >= -1: w has no zeros there, so relative error is meaningful
    worst = 0.0
    for re in np.linspace(-10, 10, 21):
        for im in np.linspace(-1, 10, 12):
            z = complex(re, im)
            if abs(z) > 10:
                continue
            ref = w_reference(z)
            worst = max(worst, abs(faddeeva_w(z) - ref) / abs(ref))
    assert worst <= 1e-13


def test_w_deep_lower_half_plane():
    for z in (-3j, 5 - 5j, -4 - 2j):
        ref = w_reference(z)
        assert abs(faddeeva_w(z) - ref) / abs(ref) <= 1e-12


def test_w_sum_identity():
    # w(z) + w(-z) = 2 exp(-z^2)
    rng = np.random.default_rng(20240811)
    for _ in range(100):
        z = complex(*rng.uniform(-3, 3, 2))
        lhs = faddeeva_w(z) + faddeeva_w(-z)
        assert lhs == pytest.approx(2 * np.exp(-z * z), rel=1e-12, abs=1e-12)


def test_w_rejects_nonfinite():
    with pytest.raises(InvalidParameter):
        faddeeva_w(complex(np.nan, 0.0))


def test_w_overflows_deep_in_the_lower_half_plane():
    # w(-iy) = e^{y^2} erfc(-y) ~ 2 e^{900} at y = 30
    message = "w(z) overflows double precision at z=(-0-30j)"
    with pytest.raises(OverflowDomain, match=f"^{re.escape(message)}$"):
        faddeeva_w(-30j)


def test_erfc_trivial_and_frozen():
    assert erfc_complex(0.0) == pytest.approx(1.0, abs=1e-15)
    # real-axis series oracle value, 40-digit mpmath
    assert erfc_complex(0.1).real == pytest.approx(0.8875370839817151078, rel=1e-14)
    # imaginary axis: erfc(iy) = 1 - i erfi(y)
    got = erfc_complex(0.5j)
    assert got.real == pytest.approx(1.0, rel=1e-14)
    assert got.imag == pytest.approx(-0.61495209469651098084, rel=1e-13)


def test_erfc_matches_real_erfc_on_axis():
    for x in np.linspace(-3, 3, 13):
        assert erfc_complex(complex(x, 0.0)).real == pytest.approx(math.erfc(x), rel=1e-14, abs=1e-14)
        assert abs(erfc_complex(complex(x, 0.0)).imag) < 1e-15


def test_erfc_overflow_domain():
    with pytest.raises(OverflowDomain):
        erfc_complex(0.5 + 13j)


def test_kernel_zero_argument():
    for gap in (0.0, 0.1, 1.0, 3.0):
        assert response_kernel(0.0, gap) == pytest.approx(0.0, abs=1e-15)


def test_kernel_sign_at_zero_gap():
    # direct complex-erf oracle agrees and fixes the sign
    assert response_kernel(1.0, 0.0) > 0
    assert response_kernel(1.0, 0.0) == pytest.approx(response_kernel_direct(1.0, 0.0), abs=1e-14)


def test_kernel_two_path_agreement_grid():
    for a in np.linspace(0.0, 5.0, 20):
        for gap in np.linspace(0.0, 3.0, 20):
            assert response_kernel(a, gap) == pytest.approx(
                response_kernel_direct(a, gap), abs=1e-12)


def test_kernel_two_path_at_spec_point():
    assert response_kernel(1.0, 0.1) == pytest.approx(response_kernel_direct(1.0, 0.1), abs=1e-12)


def test_kernel_small_argument_limit():
    for gap in (0.0, 0.1, 1.0, 2.5):
        a = 1e-6
        assert response_kernel(a, gap) / a == pytest.approx(
            response_kernel_limit(gap), rel=1e-6)
    # 2 g overflows at the largest float; erfc(g) is 0 there, and so is the limit
    assert response_kernel_limit(sys.float_info.max) == 0.0


def test_kernel_direct_path_overflows_out_of_domain():
    with pytest.raises(OverflowDomain):
        response_kernel_direct(30.0, 0.1)
    # the production reduction stays finite there
    assert np.isfinite(response_kernel(30.0, 0.1))


def test_aux_f_matches_explicit_erfc_form():
    z, gap = 0.25, 0.1  # d/sigma = 0.5
    explicit = -1j * np.exp(-gap * gap - z * z) * erfc_complex(1j * z) / (8 * np.sqrt(np.pi) * z)
    assert abs(aux_f(z, gap)) == pytest.approx(abs(explicit), rel=1e-12)
    assert aux_f(z, gap) == pytest.approx(explicit, rel=1e-12)


def test_aux_f_large_argument_asymptotics():
    z, gap = 20.0, 0.1
    assert abs(aux_f(z, gap)) == pytest.approx(
        np.exp(-gap * gap) / (8 * np.pi * z * z), rel=0.01)


@pytest.mark.parametrize("a, gap, message", [
    (-0.1, 0.1, "a must be >= 0"),
    (0.5, -0.1, "gap must be a finite scalar >= 0"),
    (0.5, np.nan, "gap must be a finite scalar >= 0"),
    (0.5, np.array([0.1, 0.2]), "gap must be a finite scalar >= 0"),
], ids=["negative-a", "negative-gap", "nan-gap", "array-gap"])
def test_kernel_refuses_a_bad_argument_or_gap(a, gap, message):
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        response_kernel(a, gap)


@pytest.mark.parametrize("gap", [-0.1, np.nan], ids=["negative", "nan"])
def test_aux_f_refuses_a_bad_gap(gap):
    with pytest.raises(InvalidParameter, match="^gap must be a finite scalar >= 0$"):
        aux_f(0.5, gap)


def test_aux_f_divergence_cutoff():
    with pytest.raises(DivergentArgument):
        aux_f(1e-12, 0.1)
    with pytest.raises(DivergentArgument):
        aux_f(EPS_DIV, 0.1)


def test_aux_f_sign_pattern():
    # Re f stays strictly negative (1/z^2 decay); Im f carries the e^{-z^2}
    # factor, which underflows to -0.0 in double precision past z ~ 27
    for z in np.geomspace(1e-9 + EPS_DIV, 50.0, 40):
        for gap in (0.0, 0.5, 3.0):
            value = aux_f(z, gap)
            assert value.real < 0
            assert value.imag <= 0
            if z <= 25.0:
                assert value.imag < 0


def test_aux_f_vectorized():
    z = np.array([0.3, 1.0, 4.0])
    out = aux_f(z, 0.2)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(aux_f(1.0, 0.2), rel=1e-15)


@pytest.mark.parametrize("gap", [0.0, 0.3, 2.5])
def test_public_kernels_are_their_formulas_plus_checks(gap):
    # the zeta integrand calls the formulas on validated nodes; on valid input
    # the public kernels return the same values, bit for bit
    x = np.array([[1e-9, 0.05, 0.7], [3.0, 12.5, 40.0]])
    assert np.array_equal(response_kernel(x, gap), response_kernel_formula(x, gap))
    assert np.array_equal(aux_f(x, gap), aux_f_formula(x, gap))
    assert response_kernel(0.7, gap) == response_kernel_formula(np.float64(0.7), gap)
    assert aux_f(0.7, gap) == aux_f_formula(np.float64(0.7), gap)
