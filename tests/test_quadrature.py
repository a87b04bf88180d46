import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import dawsn

from conical_harvest import quadrature
from conical_harvest.errors import (
    InvalidParameter,
    NoSignChange,
    NotUnimodal,
    QuadratureFailure,
    ToleranceNotMet,
)
from conical_harvest.quadrature import (
    _MIN_WIDTH_FACTOR,
    _POLE_FLOOR,
    Bracket,
    QuadratureResult,
    find_last_sign_change,
    find_root_bracketed,
    find_root_from_ends,
    integrate_adaptive,
    integrate_pv,
    integrate_semi_infinite,
    integrate_semi_infinite_complex,
    minimize_scalar,
    tail_cutoff,
    tail_edges,
)


def zeta_coefficient_integrand(nu):
    def f(z):
        return math.sin(nu * math.pi) / (np.cos(nu * math.pi) - np.cosh(nu * np.asarray(z)))
    return f


@pytest.mark.parametrize("k", [0.5, 1.0, 3.0, 11.0])
def test_exponential_decay(k):
    res = integrate_semi_infinite(lambda z: np.exp(-k * np.asarray(z)), tail_rate=k, tol=1e-10)
    assert res.value == pytest.approx(1.0 / k, abs=1e-10)
    assert res.error_estimate <= 1e-10
    assert res.evaluations > 0


@pytest.mark.parametrize("nu", [1.3, 1.5, 2.5, 3.7, 9.2])
def test_zeta_coefficient_identity(nu):
    # int_0^inf sin(nu pi)/(cos(nu pi) - cosh(nu z)) dz = (pi/nu)(nu - 1 - 2 floor(nu/2))
    res = integrate_semi_infinite(zeta_coefficient_integrand(nu), tail_rate=nu, tol=1e-10)
    expect = (math.pi / nu) * (nu - 1 - 2 * math.floor(nu / 2))
    assert res.value == pytest.approx(expect, abs=1e-8)


def test_spec_zeta_values():
    res = integrate_semi_infinite(zeta_coefficient_integrand(2.5), tail_rate=2.5, tol=1e-10)
    assert res.value == pytest.approx(-0.2 * math.pi, abs=1e-8)
    res = integrate_semi_infinite(zeta_coefficient_integrand(1.5), tail_rate=1.5, tol=1e-10)
    assert res.value == pytest.approx(math.pi / 3, abs=1e-8)


@pytest.mark.parametrize("nu", [2.0 - 1e-3, 2.0 + 1e-3])
def test_near_even_integer_peak(nu):
    # sharp peak at z = 0 of width sqrt(2|1-cos(nu pi)|)/nu; forced subdivision
    delta = math.sqrt(2 * abs(1 - math.cos(nu * math.pi))) / nu
    res = integrate_semi_infinite(zeta_coefficient_integrand(nu), tail_rate=nu, tol=1e-10,
                                  breakpoints=(10 * delta,))
    expect = (math.pi / nu) * (nu - 1 - 2 * math.floor(nu / 2))
    assert res.value == pytest.approx(expect, abs=1e-8)


@pytest.mark.parametrize("rate", [1.0, 2.5, 9.22, 64.0])
def test_semi_infinite_damped_cosine_closed_form(rate):
    # int_0^inf e^{-r z} cos z dz = r / (r^2 + 1)
    res = integrate_semi_infinite(lambda z: np.exp(-rate * z) * np.cos(z), tail_rate=rate)
    assert abs(res.value - rate / (rate * rate + 1.0)) <= 1e-10


@pytest.mark.parametrize("rate, tol, count", [
    # at the default tol, rate z_max = ln(1e10) + 5 = 28.0: 14, 7, 3.5, 1.75, 0.88
    (2.3, 1e-10, 5), (9.22, 1e-10, 5), (0.5, 1e-6, 5), (64.0, 1e-13, 6)])
def test_tail_edges_halve_the_cutoff_down_to_one_decay_length(rate, tol, count):
    edges = tail_edges(rate, tol)
    # exactly z_max 2^-k, k = 1..count, the smallest at or below 1/rate and no other
    assert edges == tuple(tail_cutoff(rate, tol) * 2.0 ** -k for k in range(count, 0, -1))
    assert edges[0] <= 1.0 / rate < edges[1]
    # a caller's breakpoint that is one of them stays one edge
    merged = tail_edges(rate, tol, breakpoints=(edges[2], 0.01 / rate, edges[2]))
    assert merged == tuple(sorted(edges + (0.01 / rate,)))


def test_semi_infinite_cutoff_that_overflows_is_refused_by_name():
    # 1/tol overflows, so z_max is inf and could be halved forever
    assert math.isinf(tail_cutoff(1.0, 5e-324))
    with pytest.raises(InvalidParameter, match="truncation point"):
        tail_edges(1.0, 5e-324)
    with pytest.raises(InvalidParameter, match="truncation point"):
        integrate_semi_infinite(lambda z: np.exp(-z), tail_rate=1.0, tol=5e-324)


def test_adaptive_duplicate_breakpoints_make_no_empty_panel(monkeypatch):
    panels = []
    gk15 = quadrature._gk15

    def recording(f, a, b):
        panels.append((a, b))
        return gk15(f, a, b)

    monkeypatch.setattr(quadrature, "_gk15", recording)
    res = integrate_adaptive(np.cos, 0.0, 1.0, 1e-10, breakpoints=(0.5, 0.25, 0.5))
    a, b = panels[0]
    assert a.tolist() == [0.0, 0.25, 0.5] and b.tolist() == [0.25, 0.5, 1.0]
    assert res.value[0] == pytest.approx(math.sin(1.0), abs=1e-10)


def test_semi_infinite_validation():
    with pytest.raises(InvalidParameter):
        integrate_semi_infinite(lambda z: np.exp(-z), tail_rate=0.0, tol=1e-10)
    with pytest.raises(InvalidParameter):
        integrate_semi_infinite(lambda z: np.exp(-z), tail_rate=1.0, tol=-1.0)


@pytest.mark.parametrize("a", [0.1, 1.0, 10.0])
def test_pv_antisymmetric_exact(a):
    res = integrate_pv(lambda u: np.ones_like(np.asarray(u, dtype=float)), [a], tol=1e-12)
    assert abs(res.value) <= 1e-12


def test_pv_gaussian_against_dawson_closed_form():
    # PV int_0^inf e^{-u^2/4}/(u^2 - c^2) du = -(sqrt(pi)/c) D(c/2)
    for c in (0.5, 1.0, 3.0):
        res = integrate_pv(lambda u: np.exp(-np.asarray(u, dtype=float) ** 2 / 4.0), [c], tol=1e-10)
        assert res.value == pytest.approx(-math.sqrt(math.pi) / c * dawsn(c / 2.0), abs=1e-10)


def epsilon_excision_reference(c, eps):
    # symmetric excision of [c-eps, c+eps] with plain adaptive panels
    def f(s):
        s = np.asarray(s, dtype=float)
        return np.exp(-s * s) / (s * s - c * c)
    pieces = []
    for lo, hi in ((0.0, c - eps), (c + eps, 30.0)):
        vals, _, _ = integrate_adaptive(f, lo, hi, 1e-13, breakpoints=(
            (c - 2 * eps,) if hi < c else (c + 2 * eps,)))
        pieces.append(float(vals[0]))
    return 2.0 * sum(pieces)


def test_pv_full_line_against_epsilon_excision_richardson():
    # PV int_-inf^inf e^{-s^2}/(s^2 - 4) ds; symmetric excision has an error
    # expansion in odd powers of eps, so a ratio-2 ladder cancels eps then eps^3;
    # the integrand is even, so the full line is twice the half-line PV
    res = integrate_pv(lambda s: np.exp(-np.asarray(s, dtype=float) ** 2), [2.0], tol=1e-10)
    i0, i1, i2 = (epsilon_excision_reference(2.0, e) for e in (2e-2, 1e-2, 5e-3))
    r0 = 2 * i1 - i0
    r1 = 2 * i2 - i1
    richardson = (8 * r1 - r0) / 7
    assert 2 * res.value == pytest.approx(richardson, abs=1e-8)


def test_pv_multi_pole_matches_sum_of_single_poles():
    def numerator(u):
        return np.exp(-np.asarray(u, dtype=float) ** 2 / 4.0)
    combined = integrate_pv(numerator, [0.7, 2.0], tol=1e-11)
    single = [integrate_pv(numerator, c, tol=1e-11).value for c in (0.7, 2.0)]
    assert combined.value == pytest.approx(single, abs=1e-9)
    assert np.dot([1.0, 0.5], combined.value) == pytest.approx(
        single[0] + 0.5 * single[1], abs=1e-9)


def _gaussian(u):
    return np.exp(-u * u / 4.0)


def _gaussian_pv_dawson(poles):
    # PV int_0^inf e^{-u^2/4}/(u^2 - c^2) du = -(sqrt(pi)/c) D(c/2), per pole
    poles = np.asarray(poles, dtype=float)
    return -math.sqrt(math.pi) / poles * dawsn(poles / 2.0)


@pytest.mark.parametrize("tol", [1e-8, 1e-9, 1e-10])
@pytest.mark.parametrize("poles", [
    # the 31 image poles 2 rho sin(m pi/nu) at nu 63.5, rho 3e-4: the smallest
    # 2.97e-5, the closest pair 1.83e-6 apart; per-pole windows ran out of panels
    [2.0 * 3e-4 * math.sin(m * math.pi / 63.5) for m in range(1, 32)],
    # 1e-9 apart: refused as too close to excise by per-pole windows
    [1.0, 1.0 + 1e-9],
], ids=["image-poles-nu-63.5", "1e-9-apart"])
def test_pv_crowded_poles_meet_tol_against_dawson(poles, tol):
    res = integrate_pv(_gaussian, poles, tol=tol)
    assert res.value.shape == res.error_estimate.shape == (len(poles),)
    assert np.all(res.error_estimate <= tol)
    assert np.all(np.abs(res.value - _gaussian_pv_dawson(poles)) <= tol)


# neighbours of a pole_sets list sit 0.9 to 1000 such steps times (1 + top) apart
_POLE_STEP = 1e-6


@st.composite
def pole_sets(draw):
    """Pole lists whose neighbours sit 0.9 to 1000 x 1e-6 (1 + top) apart.

    Some sets hold a pole below integrate_pv's accuracy floor, possibly a
    subnormal one, which integrate_pv refuses.
    """
    top = draw(st.floats(1e-300, 1e12))
    poles = [top]
    for factor in draw(st.lists(st.floats(0.9, 1.1) | st.floats(1.1, 1e3), max_size=5)):
        below = poles[-1] - factor * _POLE_STEP * (1.0 + top)
        if below <= 0.0:
            break
        poles.append(below)
    poles += draw(st.lists(st.floats(0.0, 1e-300, exclude_min=True), max_size=1))
    return draw(st.permutations(poles))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(pole_sets())
def test_pv_any_accepted_pole_set_matches_the_closed_form(poles):
    # no pole set is too crowded: whatever passes the pole floor meets tol
    if min(poles) < _POLE_FLOOR:
        with pytest.raises(InvalidParameter, match="accuracy floor"):
            integrate_pv(_gaussian, poles)
        return
    res = integrate_pv(_gaussian, poles)
    assert np.all(res.error_estimate <= 1e-8)
    assert np.all(np.abs(res.value - _gaussian_pv_dawson(poles)) <= 1e-8)


def test_pv_refuses_a_pole_whose_half_underflows():
    with pytest.raises(InvalidParameter, match="poles must be finite and normal"):
        integrate_pv(lambda u: np.ones_like(u), [5e-324, 1.0], tol=1e-8)


def _gaussian_pv_closed_form(c):
    # PV int_0^inf e^{-s^2/4}/(s^2 - c^2) ds = -pi/(2c) e^{-c^2/4} erfi(c/2)
    with mpmath.workdps(40):
        c = mpmath.mpf(c)
        return float(-mpmath.pi / (2 * c) * mpmath.exp(-c * c / 4) * mpmath.erfi(c / 2))


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("c", [_POLE_FLOOR, 3e-5, 1e-4, 1e-2, 1.0])
def test_pv_meets_its_tolerance_down_to_the_pole_floor(c, tol):
    got = integrate_pv(lambda s: np.exp(-s * s / 4.0), [c], tol=tol).value
    assert abs(got - _gaussian_pv_closed_form(c)) <= tol


@pytest.mark.parametrize("c", [9.9e-6, 1e-6, 1e-8, 1e-9, 1e-20, 1e-160])
def test_pv_refuses_a_pole_below_its_accuracy_floor(c):
    # at tol 1e-10 the error was 1.5e-10 at c = 1e-6, 1.4e-8 at 1e-8 and
    # 1.2e-7 at 1e-9, with nothing reported; 1e-20 ran out of panels and
    # 1e-160 overflowed
    for poles in (c, [c], [c, 1.0]):
        named = re.escape(f"accuracy floor), got {np.atleast_1d(poles).tolist()}")
        with pytest.raises(InvalidParameter, match=named):
            integrate_pv(lambda s: np.exp(-s * s / 4.0), poles, tol=1e-10)


def test_pv_validation():
    with pytest.raises(InvalidParameter):
        integrate_pv(lambda u: np.ones_like(u), [-1.0], tol=1e-8)
    with pytest.raises(InvalidParameter):
        integrate_pv(lambda u: np.ones_like(u), [], tol=1e-8)


# --- one integral per pole -------------------------------------------------------


def test_pv_scalar_pole_gives_floats_and_an_array_gives_arrays():
    res = integrate_pv(_gaussian, 1.0, tol=1e-10)
    assert type(res.value) is float and type(res.error_estimate) is float
    batch = integrate_pv(_gaussian, [0.7, 1.0, 2.0], tol=1e-10)
    assert batch.value.shape == batch.error_estimate.shape == (3,)
    assert abs(batch.value[1] - res.value) <= 1e-10
    one = integrate_pv(_gaussian, [1.0], tol=1e-10)
    assert one.value.shape == one.error_estimate.shape == (1,)


def test_pv_evaluations_count_poles_times_nodes(monkeypatch):
    nodes = []
    original = quadrature.integrate_adaptive

    def recording_adaptive(*args, **kwargs):
        result = original(*args, **kwargs)
        nodes.append(result.evaluations)
        return result

    monkeypatch.setattr(quadrature, "integrate_adaptive", recording_adaptive)
    poles = [0.5, 1.5, 3.0, 4.0]
    res = integrate_pv(_gaussian, poles, tol=1e-10)
    assert len(nodes) == 1 and res.evaluations == len(poles) * nodes[0]


@pytest.mark.parametrize("poles", [[[1.0, 2.0]], np.ones((2, 2)), [], np.array([])],
                         ids=["nested-list", "2-d", "empty-list", "empty-array"])
def test_pv_refuses_poles_that_are_not_a_scalar_or_a_1d_array(poles):
    with pytest.raises(InvalidParameter, match="poles must be a scalar or a non-empty 1-D array, "
                                               r"got .*\[") as info:
        integrate_pv(_gaussian, poles, tol=1e-8)
    assert repr(poles) in str(info.value)


def test_semi_infinite_components_match_scalar_calls():
    rates = np.array([0.5, 1.0, 3.0])
    res = integrate_semi_infinite(lambda z: np.exp(-np.multiply.outer(rates, z)),
                                  tail_rate=0.5, tol=1e-10)
    assert res.value.shape == (3,) and np.all(res.error_estimate <= 1e-10)
    assert np.allclose(res.value, 1.0 / rates, rtol=0.0, atol=1e-10)


def test_adaptive_returns_one_result_type():
    res = integrate_adaptive(lambda x: np.exp(-np.asarray(x)), 0.0, 2.0, 1e-12)
    assert isinstance(res, QuadratureResult)
    value, error, evals = res
    assert res.value is value and res.error_estimate is error and res.evaluations == evals
    assert value[0] == pytest.approx(1.0 - math.exp(-2.0), abs=1e-12)


def test_adaptive_refuses_a_complex_integrand():
    def complex_integrand(x):
        return np.exp(-np.asarray(x)) * (1.0 + 2.0j)

    with pytest.raises(InvalidParameter, match="complex"):
        integrate_adaptive(complex_integrand, 0.0, 1.0, 1e-10)
    with pytest.raises(InvalidParameter, match="complex"):
        integrate_semi_infinite(complex_integrand, tail_rate=1.0, tol=1e-10)


def test_pv_refuses_a_complex_numerator():
    with pytest.raises(InvalidParameter, match="complex"):
        integrate_pv(lambda u: np.exp(-np.asarray(u, dtype=float) ** 2) * (1.0 + 1.0j), [1.0])


def test_tolerance_not_met():
    def needs_many(x):
        x = np.asarray(x, dtype=float)
        return np.sqrt(np.abs(x))
    with pytest.raises(ToleranceNotMet) as info:
        integrate_adaptive(needs_many, 0.0, 1.0, 1e-16, max_intervals=8)
    assert info.value.error_estimate > 1e-16
    assert info.value.evaluations > 0


def test_nonfinite_integrand_rejected():
    def blows_up(x):
        with np.errstate(divide="ignore"):
            return 1.0 / np.asarray(x)
    with pytest.raises(QuadratureFailure, match="non-finite values"):
        integrate_adaptive(blows_up, -1.0, 1.0, 1e-10)


def test_a_non_finite_integrand_is_a_numerical_failure_not_a_bad_input():
    # it raised InvalidParameter, which sweeps flagged as a divergence and the
    # CLI reported as a usage error
    def nan_near_zero(x):
        return np.where(x < 0.1, np.nan, np.exp(-x))

    for integrate in (lambda: integrate_adaptive(nan_near_zero, 0.0, 1.0, 1e-10),
                      lambda: integrate_semi_infinite(nan_near_zero, tail_rate=1.0)):
        with pytest.raises(QuadratureFailure, match=r"non-finite values on \[0\.0, ") as info:
            integrate()
        assert not isinstance(info.value, InvalidParameter)


# --- refinement in passes --------------------------------------------------------


def _recording(f):
    """f with a log of the node arrays of its calls."""
    calls = []

    def recorded(x):
        calls.append(np.array(x))
        return f(x)

    return recorded, calls


def _panel_widths(nodes):
    """Widths of the GK15 panels whose nodes, panel by panel, make up ``nodes``."""
    panels = nodes.reshape(-1, 15)
    return (panels[:, -1] - panels[:, 0]) / 0.991455371120812639206854697526329


def test_adaptive_makes_one_integrand_call_per_pass():
    # 1/(a + (x - 0.3)^2) peaks at 1/a = 1e4 over a width of 0.01
    a, tol = 1e-4, 1e-9
    f, calls = _recording(lambda x: 1.0 / (a + (x - 0.3) ** 2))
    value, error, evals = integrate_adaptive(f, 0.0, 1.0, tol)
    exact = (math.atan(0.7 / math.sqrt(a)) + math.atan(0.3 / math.sqrt(a))) / math.sqrt(a)
    assert abs(value[0] - exact) <= tol and error[0] <= tol
    assert evals == sum(x.size for x in calls)
    assert 1 < len(calls) < evals // 15


@pytest.mark.parametrize("max_intervals", [7, 8])
def test_adaptive_never_holds_more_than_max_intervals(max_intervals):
    f, calls = _recording(lambda x: np.sin(50.0 * x))
    with pytest.raises(ToleranceNotMet):
        integrate_adaptive(f, 0.0, 1.0, 1e-30, max_intervals=max_intervals)
    # the first call covers the initial panels; each later one adds a panel per two children
    held = np.cumsum([calls[0].size // 15] + [x.size // 30 for x in calls[1:]])
    assert held.max() == held[-1] == max_intervals


def test_adaptive_stops_at_the_minimum_width():
    # a jump of 1e3 at 1/3 keeps its panel's error near 1e2 x width: 1e-13 is out
    # of reach above the minimum width 1e-14 * (|lo| + |hi| + 1)
    f, calls = _recording(lambda x: np.where(x > 1.0 / 3.0, 1e3, 0.0))
    with pytest.raises(ToleranceNotMet) as info:
        integrate_adaptive(f, 0.0, 1.0, 1e-13)
    assert info.value.error_estimate > 1e-13
    assert len(calls) < 100
    widths = np.concatenate([_panel_widths(x) for x in calls])
    min_width = _MIN_WIDTH_FACTOR * 2.0
    # the jump's panel reached the floor, and no panel narrower than it was split
    assert widths.min() < min_width
    assert widths.min() >= 0.5 * min_width * (1.0 - 1e-9)


def test_pv_calls_its_numerator_once_per_pass(monkeypatch):
    passes, adaptive_calls = [0], [0]
    original = quadrature.integrate_adaptive

    def counting_adaptive(f, *args, **kwargs):
        adaptive_calls[0] += 1

        def counted(x):
            passes[0] += 1
            return f(x)

        return original(counted, *args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_adaptive", counting_adaptive)
    numerator, calls = _recording(lambda u: np.cos(3.0 * u) * np.exp(-u * u / 4.0))
    res = integrate_pv(numerator, [0.5, 2.0, 3.5], tol=1e-10)
    assert adaptive_calls[0] == 1 and passes[0] > 1
    # one call at the poles, then one per pass
    assert len(calls) == passes[0] + 1
    assert np.array_equal(calls[0], [0.5, 2.0, 3.5])
    assert res.evaluations == sum(x.size for x in calls[1:])


def test_pv_three_poles_match_single_poles_and_dawson():
    # PV int_0^inf e^{-u^2/4}/(u^2 - c^2) du = -(sqrt(pi)/c) D(c/2)
    def numerator(u):
        return np.exp(-np.asarray(u, dtype=float) ** 2 / 4.0)

    poles, weights, tol = [0.5, 1.5, 3.0], [1.0, -0.5, 2.0], 1e-10
    each = integrate_pv(numerator, poles, tol=tol)
    assert np.all(each.error_estimate <= tol)
    single = [integrate_pv(numerator, c, tol=tol).value for c in poles]
    assert np.all(np.abs(each.value - single) <= tol)
    assert np.all(np.abs(each.value - _gaussian_pv_dawson(poles)) <= tol)
    combined = np.dot(weights, each.value)
    assert abs(combined - np.dot(weights, single)) <= tol
    assert abs(combined - np.dot(weights, _gaussian_pv_dawson(poles))) <= tol


@pytest.mark.parametrize("rate", [float("inf"), float("nan")])
def test_semi_infinite_rejects_a_non_finite_tail_rate(rate):
    with pytest.raises(InvalidParameter, match="tail_rate must be finite"):
        integrate_semi_infinite(lambda z: np.exp(-np.asarray(z)), tail_rate=rate, tol=1e-10)


@pytest.mark.parametrize("pole", [float("nan"), float("inf"), float("-inf")])
def test_pv_rejects_non_finite_poles_before_any_window(pole):
    def numerator(u):
        raise AssertionError("the numerator ran before the poles were checked")

    with pytest.raises(InvalidParameter, match="poles must be finite"):
        integrate_pv(numerator, [1.0, pole], tol=1e-8)


def test_root_trivial_linear():
    assert find_root_bracketed(lambda d: d - 1.0, Bracket(0.0, 2.0), tol=1e-12) == pytest.approx(1.0, abs=1e-12)


def test_root_cosine():
    assert find_root_bracketed(math.cos, Bracket(1.0, 2.0), tol=1e-12) == pytest.approx(math.pi / 2, abs=1e-12)


def test_root_no_sign_change():
    with pytest.raises(NoSignChange):
        find_root_bracketed(math.cos, Bracket(0.0, 1.0), tol=1e-10)


def _never(x):
    raise AssertionError(f"objective evaluated at {x!r}")


def test_root_from_ends_returns_an_end_whose_value_is_zero():
    assert find_root_from_ends(_never, Bracket(1.0, 2.0), 0.0, -1.0) == 1.0
    assert find_root_from_ends(_never, Bracket(1.0, 2.0), 1.0, 0.0) == 2.0


def test_root_from_ends_refuses_end_values_of_one_sign():
    with pytest.raises(NoSignChange):
        find_root_from_ends(_never, Bracket(0.0, 1.0), math.cos(0.0), math.cos(1.0), tol=1e-10)


def test_root_from_ends_equals_find_root_bracketed_without_evaluating_the_ends():
    calls = []

    def counted(x):
        calls.append(x)
        return math.cos(x)

    root = find_root_from_ends(counted, Bracket(1.0, 2.0), math.cos(1.0), math.cos(2.0), tol=1e-12)
    assert root == find_root_bracketed(math.cos, Bracket(1.0, 2.0), tol=1e-12)
    assert calls and 1.0 not in calls and 2.0 not in calls


def test_root_of_flat_entanglement_margin():
    from conical_harvest.correlation import x_flat
    from conical_harvest.response import p_flat

    def margin(d):
        return abs(x_flat(d, 0.1)) - p_flat(0.1)

    root = find_root_bracketed(margin, Bracket(1.0, 2.0), tol=1e-10)
    assert 1.6 < root < 1.7
    assert abs(margin(root)) < 1e-11


def test_last_sign_change_skips_gaps():
    values = [1.0, -1.0, None, 1.0, -1.0, -0.5]
    assert find_last_sign_change(values) == 3
    assert find_last_sign_change([1.0, 2.0, 3.0]) is None


def test_last_sign_change_skips_nan_gaps_in_a_float_array():
    nan = math.nan
    assert find_last_sign_change(np.array([1.0, -1.0, nan, 1.0, -1.0, -0.5])) == 3
    assert find_last_sign_change(np.array([1.0, nan, -1.0, -2.0])) is None
    assert find_last_sign_change(np.array([nan, nan])) is None


def test_a_run_of_exact_zeros_is_no_sign_change():
    # margins that underflow to 0.0 (from gap ~ 28) made (0, 0) a crossing
    assert find_last_sign_change([0.0, 0.0, 0.0]) is None
    assert find_last_sign_change([1.0, 0.0, 0.0]) == 0
    assert find_last_sign_change([0.0, 0.0, -1.0]) == 1


def test_a_nan_end_is_never_a_bracket():
    nan = math.nan
    # np.sign(nan) differs from every sign, so only the NaN test keeps these out
    for values, last in (([0.0, nan], None), ([nan, -1.0, 1.0], 1), ([nan, -1.0, -1.0], None),
                         ([-1.0, 1.0, nan], 0), ([1.0, 1.0, nan], None)):
        assert find_last_sign_change(values) == last, values


def test_minimize_quadratic():
    assert minimize_scalar(lambda x: (x - 2.0) ** 2, Bracket(0.0, 5.0), tol=1e-10) == pytest.approx(2.0, abs=1e-6)


def test_minimize_abs():
    assert minimize_scalar(abs, Bracket(-1.0, 3.0), tol=1e-10) == pytest.approx(0.0, abs=1e-6)


def test_minimize_not_unimodal():
    def two_wells(x):
        return min((x - 1.0) ** 2, (x - 3.0) ** 2 + 0.01)
    with pytest.raises(NotUnimodal):
        minimize_scalar(two_wells, Bracket(0.0, 4.0), tol=1e-8)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
def test_minimize_refuses_a_bad_tolerance_before_any_evaluation(tol):
    with pytest.raises(InvalidParameter, match="^root tolerance tol must be finite and > 0"):
        minimize_scalar(_never, Bracket(0.0, 5.0), tol=tol)


def test_bracket_validation():
    with pytest.raises(InvalidParameter):
        Bracket(2.0, 1.0)


def _seeded_brackets(seed=11, count=300):
    """(objective, lo, hi, tol) with a sign change, from a fixed family of smooth functions."""
    family = (lambda x, c: math.cos(x) - c,
              lambda x, c: x ** 3 - c,
              lambda x, c: math.expm1(x) - c,
              lambda x, c: math.atan(x - c) * x * x + 1e-3 * (x - c),
              lambda x, c: math.tanh(20.0 * (x - c)))
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        f = family[len(out) % len(family)]
        c = float(rng.uniform(-0.5, 0.5))
        lo, hi = float(rng.uniform(-3.0, c)), float(rng.uniform(c, 3.0))
        if f(lo, c) * f(hi, c) < 0.0:
            out.append((lambda x, _f=f, _c=c: _f(x, _c), lo, hi, float(10.0 ** rng.uniform(-14, -3))))
    return out


def test_brent_port_matches_scipy_brentq_with_two_fewer_calls():
    from scipy.optimize import brentq

    from conical_harvest.quadrature import _brentq

    for f, lo, hi, tol in _seeded_brackets():
        expected, info = brentq(f, lo, hi, xtol=tol, rtol=8.881784197001252e-16, full_output=True)
        calls = []

        def counted(x, _f=f):
            calls.append(x)
            return _f(x)

        assert _brentq(counted, lo, hi, f(lo), f(hi), xtol=tol) == expected
        assert len(calls) == info.function_calls - 2
        # the public wrapper evaluates the two ends once, then runs the port
        calls.clear()
        assert find_root_bracketed(counted, Bracket(lo, hi), tol=tol) == expected
        assert len(calls) == info.function_calls


@pytest.mark.parametrize("shape", [lambda x: math.exp(x) - 2.0, lambda x: x ** 3 - 0.3,
                                   lambda x: math.cos(x) - 0.2, lambda x: 1.0 / (1.0 + x) - 0.4])
def test_brent_bisects_where_the_extrapolation_denominator_underflows(shape):
    # at values ~1e-110 the product d_blk d_pre (f_blk - f_pre) underflows to 0:
    # plain floats raised ZeroDivisionError, NumPy floats warned of 0/0; SciPy's
    # C routine takes its inf/NaN step as failed and bisects, and so does the port
    from scipy.optimize import brentq

    from conical_harvest.quadrature import _brentq

    def f(x):
        return 1e-110 * shape(x)

    expected = brentq(f, 0.0, 3.0, xtol=1e-6, rtol=8.881784197001252e-16)
    assert _brentq(f, 0.0, 3.0, f(0.0), f(3.0), xtol=1e-6) == expected
    assert _brentq(lambda x: np.float64(f(x)), 0.0, 3.0, np.float64(f(0.0)),
                   np.float64(f(3.0)), xtol=1e-6) == expected


@pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), float("inf")])
def test_root_tolerance_must_be_finite_and_positive(tol):
    with pytest.raises(InvalidParameter, match="tol"):
        find_root_bracketed(math.cos, Bracket(1.0, 2.0), tol=tol)
    with pytest.raises(InvalidParameter, match="tol"):
        find_root_from_ends(math.cos, Bracket(1.0, 2.0), math.cos(1.0), math.cos(2.0), tol=tol)


def test_dmax_path_leaves_scipy_optimize_unimported():
    import conical_harvest

    src = str(Path(conical_harvest.__file__).resolve().parents[1])
    code = ("import sys, conical_harvest.cli\n"
            "from conical_harvest.entanglement import d_max\n"
            "from conical_harvest.geometry import Alignment, ConeParameter\n"
            "result = d_max(Alignment.PARALLEL, ConeParameter(3.0), l=0.5, gap=0.1, grid_n=32)\n"
            "assert result.value is not None\n"
            "print('scipy.optimize' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def _adaptive(f, tail_rate, tol):
    return integrate_adaptive(f, 0.0, 1.0, tol)


def _pv(f, tail_rate, tol):
    return integrate_pv(f, [1.0], tol=tol)


@pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), float("inf")])
@pytest.mark.parametrize("integrate", [integrate_semi_infinite, integrate_semi_infinite_complex,
                                       _adaptive, _pv])
def test_semi_infinite_tolerance_must_be_finite_and_positive(integrate, tol):
    with pytest.raises(InvalidParameter, match="tol must be finite and > 0"):
        integrate(lambda z: np.exp(-z), tail_rate=1.0, tol=tol)
