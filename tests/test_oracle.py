import ast
import inspect
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conical_harvest import correlation, oracle, quadrature, verification
from conical_harvest.errors import InvalidParameter, ToleranceNotMet
from conical_harvest.correlation import x_flat, x_string
from conical_harvest.geometry import (
    NU_MAX,
    Alignment,
    ConeParameter,
    PairConfig,
    coefficient_breakpoints,
    image_terms,
)
from conical_harvest.quadrature import integrate_pv, integrate_semi_infinite
from conical_harvest.response import p_flat, p_string


def _imported_modules(node):
    """Dotted names of the modules an import node loads, relative imports made absolute."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    package = "conical_harvest" if node.level else ""
    module = ".".join(filter(None, (package, node.module)))
    if module == "conical_harvest":
        # from . import x / from conical_harvest import x: x is a module of the package
        return [f"{module}.{a.name}" for a in node.names]
    return [module]


def test_oracle_module_is_independent_of_closed_forms():
    # the oracle must recompute everything from the integral representations:
    # it shares the error types, the image enumeration and the integrators
    # with production, and nothing else of the package (special, response,
    # correlation, entanglement) or of SciPy
    allowed = {"errors", "geometry", "quadrature"}
    tree = ast.parse(inspect.getsource(oracle))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    for node in imports:
        for name in _imported_modules(node):
            parts = name.split(".")
            if parts[0] == "conical_harvest":
                assert parts[1:2] and parts[1] in allowed, ast.unparse(node)
            else:
                assert parts[0] == "numpy" or parts[0] in sys.stdlib_module_names, ast.unparse(node)


def test_p0_oracle_values():
    assert oracle.p0_oracle(0.0) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-10)
    assert oracle.p0_oracle(0.1) == pytest.approx(0.066267183029373793784, rel=1e-8)
    assert oracle.p0_oracle(1.0) == pytest.approx(p_flat(1.0), rel=1e-8)


def test_p1_oracle_empty_at_flat():
    assert oracle.p1_oracle(1.0, ConeParameter(1.0), 0.1) == 0.0


@pytest.mark.parametrize("rho,nu,gap", [(1.0, 3.0, 0.1), (0.5, 4.0, 0.1), (2.0, 2.0, 0.5)])
def test_p1_oracle_matches_production(rho, nu, gap):
    production = p_string(rho, ConeParameter(nu), gap).p_images
    assert oracle.p1_oracle(rho, ConeParameter(nu), gap) == pytest.approx(production, rel=1e-6)


def test_p1_oracle_small_rho_reduction():
    cone = ConeParameter(3.0)
    assert oracle.p1_oracle(0.0, cone, 0.1) == pytest.approx(
        2.0 * oracle.p0_oracle(0.1), rel=1e-8)


def test_p1_oracle_half_weight_doubling_check():
    # at nu=4 the m=2 pole carries weight 1/2; promoting it to weight 1 must
    # shift the total by exactly one more half-weight m=2 single-pole term
    rho, gap = 0.5, 0.1
    cone = ConeParameter(4.0)
    with_half = oracle.p1_oracle(rho, cone, gap)
    terms = oracle.p1_oracle_terms(rho, cone, gap)
    m2 = terms[1]
    assert m2[0] == 2 and m2[1] == 0.5
    m2_value = m2[2] + m2[3]
    promoted = sum(t[2] + t[3] for t in terms[:1]) + 2.0 * m2_value
    assert promoted - with_half == pytest.approx(m2_value, rel=1e-8)
    # and the term-wise sum reproduces the one-call multi-pole evaluation
    assert sum(t[2] + t[3] for t in terms) == pytest.approx(with_half, rel=1e-9)


def test_p2_oracle_zero_at_integer():
    assert oracle.p2_oracle(1.0, ConeParameter(3.0), 0.1) == 0.0


@pytest.mark.parametrize("rho,nu,gap", [(1.0, 2.5, 0.1), (0.3, 1.5, 0.1)])
def test_p2_oracle_matches_production(rho, nu, gap):
    production = p_string(rho, ConeParameter(nu), gap).p_integral
    assert oracle.p2_oracle(rho, ConeParameter(nu), gap) == pytest.approx(production, rel=1e-5)


@pytest.mark.parametrize("d,gap", [(1.0, 0.1), (4.0, 0.5)])
def test_x0_oracle_matches_production(d, gap):
    got = oracle.x0_oracle(d, gap)
    want = x_flat(d, gap)
    assert abs(got - want) / abs(want) <= 1e-8


@pytest.mark.parametrize("d", [1e-9, 9.9e-6])
def test_x0_oracle_refuses_a_separation_below_the_pv_accuracy_floor(d):
    # at d = 1e-9 it was 1.3e-7 off x_flat, and nothing reported it
    with pytest.raises(InvalidParameter, match="accuracy floor"):
        oracle.x0_oracle(d, 0.1)


@pytest.mark.parametrize("nu", [3.0, 9.5, 24.0, NU_MAX])
def test_p1_oracle_never_passes_a_pole_below_the_pv_accuracy_floor(nu, monkeypatch):
    # the reduction takes over where the smallest pole 2 rho sin(pi/nu) meets the floor
    switch = quadrature._POLE_FLOOR / (2.0 * math.sin(math.pi / nu))
    poles = []

    def recording(numerator, pv_poles, **kwargs):
        poles.extend(pv_poles)
        return integrate_pv(numerator, pv_poles, **kwargs)

    monkeypatch.setattr(oracle, "integrate_pv", recording)
    cone = ConeParameter(nu)
    # just below the switch the rho -> 0 reduction applies, just above it the PV integrals
    for rho in (0.99 * switch, 1.01 * switch, 1e-3):
        production = p_string(rho, cone, 0.1).p_images
        assert oracle.p1_oracle(rho, cone, 0.1) == pytest.approx(production, rel=1e-6)
    assert poles and min(poles) >= quadrature._POLE_FLOOR


@pytest.mark.parametrize("nu, rho", [
    (40.0, 1.1e-4), (40.0, 1.5e-4), (63.5, 1.1e-4), (63.5, 1.5e-4), (64.0, 1.1e-4),
    (64.0, 1.5e-4), (64.0, 3e-4), (63.5, 3e-4), (63.5, 6e-4), (60.3, 7.6e-4)])
def test_p1_oracle_matches_production_where_crowded_poles_failed_one_pv_integral(nu, rho):
    # one integral over all image poles, with a window per pole, refused the
    # first seven points as too close and ran out of panels at the last three
    production = p_string(rho, ConeParameter(nu), 0.1).p_images
    assert oracle.p1_oracle(rho, ConeParameter(nu), 0.1) == pytest.approx(production, rel=1e-6)


def test_p_closed_form_oracle_is_continuous_across_an_integer():
    # p_string once returned 0.14147 at nu = 2 + 1e-12
    for nu in (2.0, 2.0 + 1e-12):
        assert oracle.p_closed_form_oracle(1.0, ConeParameter(nu), 0.1) == pytest.approx(
            0.10387014358842, rel=1e-12)


@pytest.mark.parametrize("gap", [0.0, 0.1, 1.0, 3.0])
def test_p_closed_form_oracle_reduces_to_p0_at_nu_1(gap):
    assert oracle.p_closed_form_oracle(0.7, ConeParameter(1.0), gap) == pytest.approx(
        oracle.p0_oracle(gap), rel=1e-10)


def test_p_closed_form_oracle_uses_no_quadrature(monkeypatch):
    # an independent route: a sum on fixed nodes, no integrator of the package
    def refuse(*args, **kwargs):
        raise AssertionError("p_closed_form_oracle called an integrator")

    for name in ("integrate_adaptive", "integrate_pv", "integrate_semi_infinite"):
        monkeypatch.setattr(oracle, name, refuse)
    production = p_string(1.0, ConeParameter(2.5), 0.1).total
    assert oracle.p_closed_form_oracle(1.0, ConeParameter(2.5), 0.1) == pytest.approx(
        production, rel=1e-10)


def test_p_closed_form_oracle_raises_when_halving_the_step_moves_the_sum(monkeypatch):
    # at h = 0.6 the contour's distance 1 from the singularities no longer
    # makes the trapezoid error negligible, and the 2h sum exposes it
    monkeypatch.setattr(oracle, "_TRAPEZOID_STEP", 0.6)
    monkeypatch.setattr(oracle, "_TRAPEZOID_NODES", 0.6 * np.arange(-24, 25))
    with pytest.raises(ToleranceNotMet):
        oracle.p_closed_form_oracle(1.0, ConeParameter(2.5), 0.1)


@pytest.mark.parametrize("rho, nu, gap", [(1.0, 2.5, 0.1), (0.3, 1.5, 0.1), (1e-3, 63.5, 0.1),
                                          (2.0, 3.7, 1.0), (1.0, 2.5, 3.0)])
def test_p2_oracle_is_the_closed_form_less_p0_and_p1(rho, nu, gap):
    cone = ConeParameter(nu)
    production = p_string(rho, cone, gap).p_integral
    assert oracle.p2_oracle(rho, cone, gap) == pytest.approx(production, rel=1e-8)


def test_x0_oracle_exact_delta_term():
    # imaginary part at d=1, gap=0 is -e^{-1/4}/(4 sqrt(pi))
    assert oracle.x0_oracle(1.0, 0.0).imag == pytest.approx(-0.10984782236693059926, rel=1e-12)


def test_xp_oracle_flat_reduction():
    config = PairConfig(Alignment.PARALLEL, l=0.7, d=1.0, gap=0.1)
    assert oracle.xp_oracle(config, ConeParameter(1.0)) == pytest.approx(
        oracle.x0_oracle(1.0, 0.1), rel=1e-12)


def test_xp_oracle_integer_nu():
    config = PairConfig(Alignment.PARALLEL, l=0.5, d=0.5, gap=0.1)
    production = x_string(config, ConeParameter(3.0)).total
    got = oracle.xp_oracle(config, ConeParameter(3.0))
    assert abs(got - production) / abs(production) <= 1e-6


def test_xp_oracle_nested_non_integer():
    config = PairConfig(Alignment.PARALLEL, l=1.0, d=1.0, gap=0.1)
    production = x_string(config, ConeParameter(2.5)).total
    got = oracle.xp_oracle(config, ConeParameter(2.5))
    assert abs(got - production) / abs(production) <= 1e-5


@pytest.mark.parametrize("nu, l, d", [(64.0, 0.01, 1.0), (40.0, 0.003, 0.5), (63.5, 0.01, 2.0)])
def test_xp_oracle_matches_production_where_crowded_image_poles_were_refused(nu, l, d):
    # image poles sqrt(d^2 + 4 l^2 sin^2(m pi/nu)) as close as 1.4e-6: the
    # per-pole excision windows of integrate_pv refused them as too close
    config = PairConfig(Alignment.PARALLEL, l=l, d=d, gap=0.1)
    production = x_string(config, ConeParameter(nu)).total
    got = oracle.xp_oracle(config, ConeParameter(nu))
    assert abs(got - production) / abs(production) <= 1e-6


@settings(derandomize=True, max_examples=100, deadline=None)
@given(nu=st.floats(1.0, NU_MAX) | st.integers(1, int(NU_MAX)).map(float),
       l=st.floats(1e-3, 10.0), d=st.floats(0.05, 8.0), gap=st.floats(0.0, 3.0))
# within 1e-5 of an even nu the X_P zeta coefficient's cosh - cos cancelled
# and its integral ran out of panels
@example(nu=2.00001, l=0.5, d=0.5, gap=0.0)
@example(nu=1.99999, l=0.5, d=0.5, gap=0.1)
@example(nu=2.0 + 1e-11, l=1.0, d=1.0, gap=0.0)
def test_parallel_oracles_answer_every_accepted_input(nu, l, d, gap):
    # every parallel point the validators accept gets a finite X_P and P1 that
    # agree with production; on a 400-point draw of this domain 85 raised
    # PolesTooClose or ToleranceNotMet while each PV pole had its own window
    cone, config = ConeParameter(nu), PairConfig(Alignment.PARALLEL, l=l, d=d, gap=gap)
    x, p1 = oracle.xp_oracle(config, cone), oracle.p1_oracle(l, cone, gap)
    assert math.isfinite(x.real) and math.isfinite(x.imag) and math.isfinite(p1)
    assert x == pytest.approx(x_string(config, cone).total, rel=1e-6)
    assert p1 == pytest.approx(p_string(l, cone, gap).p_images, rel=1e-6)


# lengths in [1e-5, 10]: uniform, or log-uniform so that the draw reaches the
# PV pole floor 1e-5 as often as 10
_LENGTHS = st.floats(1e-5, 10.0) | st.floats(-5.0, 1.0).map(lambda e: max(1e-5, 10.0 ** e))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(nu=st.floats(1.0, NU_MAX) | st.integers(1, int(NU_MAX)).map(float),
       l=_LENGTHS, d=_LENGTHS, gap=st.floats(0.0, 3.0))
# many image poles of 1e-5 to 1e-4: their weighted sum, one integrand row,
# ran out of panels (ToleranceNotMet after 122,805 evaluations)
@example(nu=56.0, l=3.857e-5, d=4.093e-5, gap=2.721)
@example(nu=64.0, l=1e-5, d=1.2e-5, gap=1.0)
@example(nu=31.0, l=2e-5, d=2e-5, gap=2.0)
def test_xp_oracle_answers_down_to_the_pv_pole_floor(nu, l, d, gap):
    cone, config = ConeParameter(nu), PairConfig(Alignment.PARALLEL, l=l, d=d, gap=gap)
    x = oracle.xp_oracle(config, cone)
    assert math.isfinite(x.real) and math.isfinite(x.imag)
    assert x == pytest.approx(x_string(config, cone).total, rel=1e-6)


def test_xp_oracle_rejects_other_alignments():
    config = PairConfig(Alignment.ORTHOGONAL_SAME_SIDE, l=0.5, d=0.5, gap=0.1)
    with pytest.raises(Exception):
        oracle.xp_oracle(config, ConeParameter(3.0))


@pytest.mark.parametrize("gap", [0.0, 0.1, 1.0])
def test_epsilon_extrapolation(gap):
    report = oracle.epsilon_extrapolation_check(gap, production=p_flat(gap))
    assert report.passed
    assert report.rel_deviation <= 1e-4


def test_compare_absolute_fallback():
    report = oracle.compare("tiny", 1e-14, 0.0, 1e-6)
    assert report.passed  # absolute fallback below 1e-12
    report = oracle.compare("off", 1.0, 2.0, 1e-6)
    assert not report.passed


def test_compare_against_a_zero_oracle_is_absolute():
    report = oracle.compare("zero", 1e-14, 0.0, 1e-12)
    assert report.passed and report.rel_deviation == report.abs_deviation == 1e-14
    assert not oracle.compare("zero", 2e-12, 0.0, 1e-12).passed


def test_compare_passes_exactly_the_deviations_within_tolerance():
    # no absolute fallback: tiny values that disagree by half fail
    assert not oracle.compare("tiny", 1e-14, 2e-14, 1e-6).passed
    assert oracle.compare("near", 1.0 + 1e-7, 1.0, 1e-6).passed


@pytest.mark.parametrize("call, message", [
    (lambda: oracle.p2_oracle(0.0, ConeParameter(2.5), 0.1),
     "p2_oracle requires rho > 0 (use the rho=0 reduction)"),
], ids=["p2-rho-zero"])
def test_oracle_refuses_an_input_outside_its_representation(call, message):
    with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
        call()


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call, message", [
    (lambda: oracle.p0_oracle(NAN), "gap must be finite and >= 0"),
    (lambda: oracle.p0_oracle(INF), "gap must be finite and >= 0"),
    # -1 and 0 are named by the validator that names NaN: "gap must be >= 0"
    # and "d must be > 0" came from checks of their own before it
    (lambda: oracle.p0_oracle(-0.1), "gap must be finite and >= 0, got -0.1"),
    (lambda: oracle.p0_oracle(-1.0), "gap must be finite and >= 0, got -1.0"),
    (lambda: oracle.p1_oracle(-1.0, ConeParameter(3.0), 0.1), "rho must be finite and >= 0"),
    (lambda: oracle.p1_oracle(1.0, ConeParameter(3.0), NAN), "gap must be finite and >= 0"),
    (lambda: oracle.p1_oracle_terms(NAN, ConeParameter(3.0), 0.1), "rho must be finite and >= 0"),
    (lambda: oracle.p2_oracle(NAN, ConeParameter(2.5), 0.1), "rho must be finite and >= 0"),
    (lambda: oracle.p2_oracle(NAN, ConeParameter(3.0), 0.1), "rho must be finite and >= 0"),
    (lambda: oracle.p2_oracle(0.5, ConeParameter(2.5), NAN), "gap must be finite and >= 0"),
    (lambda: oracle.p_closed_form_oracle(0.0, ConeParameter(2.5), 0.1),
     "rho must be finite and > 0"),
    (lambda: oracle.p_closed_form_oracle(INF, ConeParameter(2.5), 0.1),
     "rho must be finite and > 0"),
    (lambda: oracle.p_closed_form_oracle(1.0, ConeParameter(2.5), -1.0),
     "gap must be finite and >= 0"),
    (lambda: oracle.x0_oracle(1.0, NAN), "gap must be finite and >= 0"),
    (lambda: oracle.x0_oracle(1.0, -1.0), "gap must be finite and >= 0"),
    (lambda: oracle.x0_oracle(NAN, 0.1), "d must be finite and > 0"),
    (lambda: oracle.x0_oracle(INF, 0.1), "d must be finite and > 0"),
    (lambda: oracle.x0_oracle(0.0, 0.1), "d must be finite and > 0, got 0.0"),
    (lambda: oracle.x0_oracle(-1.0, 0.1), "d must be finite and > 0, got -1.0"),
    (lambda: oracle.p0_epsilon_regulated(0.1, NAN), "epsilon must be finite and > 0"),
    (lambda: oracle.p0_epsilon_regulated(0.1, 0.0), "epsilon must be finite and > 0, got 0.0"),
    (lambda: oracle.p0_epsilon_regulated(NAN, 0.1), "gap must be finite and >= 0"),
])
def test_oracle_refuses_a_non_finite_or_negative_input_by_name(call, message):
    # a bad input, not a numerical failure: no QuadratureFailure, no tolerance blamed
    with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}"):
        call()


@pytest.mark.parametrize("call, got", [
    (lambda: oracle.p1_oracle(1.0, 3, 0.1), "3"),
    (lambda: oracle.p1_oracle_terms(1.0, 3.0, 0.1), "3.0"),
    # a float's is_integer is a bound method, always truthy: this returned 0.0
    (lambda: oracle.p2_oracle(1.0, 2.5, 0.1), "2.5"),
    (lambda: oracle.p_closed_form_oracle(1.0, 2.5, 0.1), "2.5"),
    (lambda: oracle.xp_oracle(PairConfig(Alignment.PARALLEL, l=0.5, d=1.0, gap=0.1), 3.0), "3.0"),
], ids=["p1", "p1-terms", "p2", "p-closed-form", "xp"])
def test_oracle_refuses_a_cone_that_is_not_a_cone_parameter(call, got):
    with pytest.raises(InvalidParameter, match=f"^cone must be a ConeParameter, got {got}$"):
        call()


def test_xp_oracle_refuses_a_config_that_is_not_a_pair_config():
    # it raised AttributeError: 'NoneType' object has no attribute 'alignment'
    with pytest.raises(InvalidParameter, match="^config must be a PairConfig, got None$"):
        oracle.xp_oracle(None, ConeParameter(3.0))


def test_run_verification_refuses_an_unknown_profile():
    with pytest.raises(ValueError, match="^unknown profile 'bogus'$"):
        verification.run_verification("bogus")


def test_run_verification_refuses_the_retired_fast_profile():
    # verify runs one grid; its 25-row "fast" subset is gone
    with pytest.raises(ValueError, match="^unknown profile 'fast'$"):
        verification.run_verification("fast")


def test_the_nu1_reduction_p_rows_evaluate_at_their_own_rho(monkeypatch):
    # both rows evaluated p_string(1.0, nu=1, gap) under names d=0.5 and d=2
    seen = []

    def spy(rho, cone, gap, *args, **kwargs):
        if cone.nu == 1.0:
            seen.append(rho)
        return p_string(rho, cone, gap, *args, **kwargs)

    monkeypatch.setattr(verification, "p_string", spy)
    reports, passed = verification.run_verification()
    assert passed
    assert seen == [0.5, 2.0]
    assert [r.quantity for r in reports if "reduction P" in r.quantity] == [
        "identity nu=1 reduction P(rho=0.5)", "identity nu=1 reduction P(rho=2)"]


@pytest.mark.parametrize("profile", ["default"])
def test_every_passed_verify_check_is_within_its_tolerance(profile):
    reports, passed = verification.run_verification(profile)
    assert passed
    assert all(r.rel_deviation <= r.tolerance for r in reports)


# --- the nested oracles' batched inner integrals ---------------------------------


def _per_node_nested(nu, inner, rows):
    """Outer zeta integral of sin(nu pi)/(cosh(nu zeta) - cos(nu pi)) * inner(zeta),
    with one scalar inner integral per node: the unbatched reference."""
    s, c = math.sin(nu * math.pi), math.cos(nu * math.pi)

    def outer(zetas):
        return np.array([s / (math.cosh(nu * z) - c) * np.asarray(inner(float(z)))
                         for z in zetas]).reshape(len(zetas), rows).T

    return integrate_semi_infinite(outer, nu, 1e-8,
                                   breakpoints=coefficient_breakpoints(nu, nu * math.pi)).value


def _per_node_xp(l, d, nu, gap):
    def numerator(u):
        return np.exp(-np.asarray(u, dtype=float) ** 2 / 4.0)

    def inner(zeta):
        big_d = math.sqrt(d * d + 2.0 * l * l * (1.0 + math.cosh(zeta)))
        pv = integrate_pv(numerator, big_d, tol=1e-10).value
        return [pv, -math.pi * math.exp(-big_d * big_d / 4.0) / (2.0 * big_d)]

    prefactor = math.exp(-gap * gap)
    total = oracle.x0_oracle(d, gap)
    terms = image_terms(ConeParameter(nu))
    if terms:
        poles = [math.sqrt(d * d + 4.0 * l * l * t.sin_term ** 2) for t in terms]
        weights = [t.weight for t in terms]
        pv = float(np.dot(weights, integrate_pv(numerator, poles, tol=1e-10).value))
        delta = sum(-math.pi * w * math.exp(-p * p / 4.0) / (2.0 * p)
                    for w, p in zip(weights, poles))
        total += prefactor / math.pi ** 1.5 * complex(pv, delta)
    re, im = _per_node_nested(nu, inner, 2)
    return total - nu / (2.0 * math.pi ** 2.5) * prefactor * complex(re, im)


@pytest.mark.parametrize("nu", [1.15, 1.5, 2.5, 3.7])
@pytest.mark.parametrize("rho", [0.3, 1.0, 2.0])
def test_batched_nested_oracles_match_the_per_node_loop(nu, rho):
    gap, d = 0.1, 1.0
    cone = ConeParameter(nu)
    want = _per_node_xp(rho, d, nu, gap)
    got = oracle.xp_oracle(PairConfig(Alignment.PARALLEL, l=rho, d=d, gap=gap), cone)
    assert abs(got - want) <= 1e-12 * abs(want)


def _count_outer_passes(monkeypatch):
    """Counters of the oracle module's integrate_pv calls, outer integrand calls
    (one per refinement pass of an outer integral) and outer GK15 panels."""
    counts = {"pv": 0, "outer": 0, "panels": 0}

    def counting_pv(*args, **kwargs):
        counts["pv"] += 1
        return integrate_pv(*args, **kwargs)

    def counting_outer(f, *args, **kwargs):
        def counted(x):
            counts["outer"] += 1
            return f(x)

        result = integrate_semi_infinite(counted, *args, **kwargs)
        counts["panels"] += result.evaluations // 15
        return result

    monkeypatch.setattr(oracle, "integrate_pv", counting_pv)
    monkeypatch.setattr(oracle, "integrate_semi_infinite", counting_outer)
    return counts


@pytest.mark.parametrize("nu", [1.5, 3.7])
def test_nested_oracles_run_one_pv_call_per_outer_pass(nu, monkeypatch):
    # the outer integral calls its integrand once per refinement pass, and each
    # call hands all of that pass's new nodes to a single integrate_pv
    counts = _count_outer_passes(monkeypatch)
    cone = ConeParameter(nu)
    oracle.xp_oracle(PairConfig(Alignment.PARALLEL, l=0.7, d=1.0, gap=0.1), cone)
    # beside the outer passes: one call for X0's pole and the image poles together
    assert counts["pv"] == counts["outer"] + 1
    assert counts["outer"] < counts["panels"]


@pytest.mark.parametrize("nu", [3.0, 4.0])
def test_xp_oracle_at_integer_nu_runs_one_pv_call(nu, monkeypatch):
    # no zeta integral at integer nu: X0's pole and every image pole share one call
    counts = _count_outer_passes(monkeypatch)
    oracle.xp_oracle(PairConfig(Alignment.PARALLEL, l=0.7, d=1.0, gap=0.1), ConeParameter(nu))
    assert counts == {"pv": 1, "outer": 0, "panels": 0}


@pytest.mark.parametrize("d, gap", [(1e-5, 0.0), (0.2, 0.5), (1.0, 0.1), (4.0, 1.5)])
def test_xp_oracle_at_nu_1_is_x0_oracle(d, gap):
    config = PairConfig(Alignment.PARALLEL, l=0.7, d=d, gap=gap)
    assert oracle.xp_oracle(config, ConeParameter(1.0)) == oracle.x0_oracle(d, gap)


@pytest.mark.parametrize("gap", [0.1, 1.0])
@pytest.mark.parametrize("nu", [1.15, 1.5, 2.5, 3.7, 5.5, 9.22])
def test_nested_oracles_outer_integral_takes_at_most_two_passes(nu, gap, monkeypatch):
    # integrate_semi_infinite's geometric start panels already resolve the
    # outer zeta integral, where bisecting [0, z_max] took 4-6 passes
    counts = _count_outer_passes(monkeypatch)
    cone = ConeParameter(nu)
    for rho in (0.3, 2.0):
        counts.update(outer=0)
        oracle.xp_oracle(PairConfig(Alignment.PARALLEL, l=rho, d=1.0, gap=gap), cone)
        assert 1 <= counts["outer"] <= 2, ("X_P", rho)


def test_verification_catches_a_fault_in_the_zeta_integrals(monkeypatch):
    # production's P_integral and X's zeta part both come from
    # correlation._zeta_integrals; a 1e-4 fault there must fail the nested
    # oracle points (P2, non-integer X_P), the closed-form total P at non-integer
    # nu, and leave every other grid point passing
    zeta_integrals = correlation._zeta_integrals

    def faulty(*args, **kwargs):
        return [value * (1.0 + 1e-4) for value in zeta_integrals(*args, **kwargs)]

    monkeypatch.setattr(correlation, "_zeta_integrals", faulty)
    reports, passed = verification.run_verification("default")
    failed = {r.quantity for r in reports if not r.passed}
    assert not passed
    assert {q for q in failed if not q.startswith("identity")} == {
        "P2(rho=1, nu=2.5, gap=0.1)", "P2(rho=0.3, nu=1.5, gap=0.1)",
        "P(rho=1, nu=2.000000000001, gap=0.1) closed form",
        "P(rho=0.001, nu=63.5, gap=0.1) closed form", "P(rho=1, nu=2.5, gap=3) closed form",
        "X_P(l=1, d=1, nu=2.5, gap=0.1)", "X_P(l=0.1, d=2, nu=1.5, gap=0.1)"}
    # P(0) = nu P0 at non-integer nu holds a zeta integral too
    assert {q for q in failed if q.startswith("identity")} == {
        "identity P(rho=0, nu=1.5) = nu*P0", "identity P(rho=0, nu=2.5) = nu*P0"}


def test_verification_catches_a_fault_in_x_zeta_integrals_alone(monkeypatch):
    # at X_P(l=0.1, d=2, nu=1.5) the zeta integral is a third of |X|, so a
    # 1e-5 fault in X's zeta part alone fails that point and nothing else
    zeta_integrals = correlation._zeta_integrals

    def faulty(parts, *args, **kwargs):
        values = zeta_integrals(parts, *args, **kwargs)
        return [value * (1.0 + 1e-5) if kernel is correlation.AUX_F else value
                for (kernel, _), value in zip(parts, values)]

    monkeypatch.setattr(correlation, "_zeta_integrals", faulty)
    reports, passed = verification.run_verification("default")
    assert not passed
    assert {r.quantity for r in reports if not r.passed} == {"X_P(l=0.1, d=2, nu=1.5, gap=0.1)"}


@pytest.mark.parametrize("profile, failing", [
    ("default", {"identity zeta integral (nu=1.3, beta=2.6, m=1)",
                 "identity zeta integral (nu=2.7, beta=5.4, m=1)",
                 "identity zeta integral (nu=5.9, beta=11.8, m=1)"}),
])
def test_verification_catches_a_fault_in_the_opposite_sides_branch_alone(profile, failing,
                                                                         monkeypatch):
    # the opposite-sides branch (beta = 2 nu, m = 1) had no verify row
    coefficient = verification.zeta_coefficient

    def faulty(nu, beta, multiplicity):
        exact = coefficient(nu, beta, multiplicity)
        if multiplicity == 2:
            return exact
        return lambda zeta: exact(zeta) * (1.0 + 1e-6)

    monkeypatch.setattr(verification, "zeta_coefficient", faulty)
    reports, passed = verification.run_verification(profile)
    assert not passed
    assert {r.quantity for r in reports if not r.passed} == failing
