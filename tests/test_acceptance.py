"""Acceptance suite: one test per numbered criterion, each printing a PASS/FAIL line.

Run as `pytest -s tests/test_acceptance.py` to see the per-criterion report.
All quantities are per lambda^2 with lengths in sigma units.
"""

import math
import time

import numpy as np
import pytest

from conical_harvest.correlation import x_flat, x_string
from conical_harvest.entanglement import (
    concurrence,
    concurrence_flat,
    d_max,
    nu_extremum,
    opposite_sides_terminal_l,
)
from conical_harvest.errors import DivergentOverlap
from conical_harvest.geometry import Alignment, ConeParameter, PairConfig
from conical_harvest.oracle import compare
from conical_harvest.quadrature import Bracket, integrate_semi_infinite
from conical_harvest.response import p_boundary, p_flat, p_string
from conical_harvest.verification import _standard_grid

GAP = 0.1


def _report(number, passed, detail, started):
    elapsed = time.perf_counter() - started
    print(f"\n[criterion {number:>2}] {'PASS' if passed else 'FAIL'} ({elapsed:.2f}s) {detail}")


def test_criterion_01_response_at_string_scales_with_nu():
    started = time.perf_counter()
    worst = 0.0
    for nu in (1.5, 2.0, 2.5, 3.0, 11.0):
        total = p_string(0.0, ConeParameter(nu), GAP).total
        worst = max(worst, abs(total / (nu * p_flat(GAP)) - 1.0))
    passed = worst <= 1e-6 and time.perf_counter() - started < 1.0
    _report(1, passed, f"P(rho=0, nu) = nu*P0, worst rel dev {worst:.2e} (tol 1e-6)", started)
    assert worst <= 1e-6
    assert time.perf_counter() - started < 1.0


def test_criterion_02_flat_reduction_to_closed_forms():
    started = time.perf_counter()
    cone = ConeParameter(1.0)
    worst = 0.0
    for d in (0.3, 0.7, 1.2, 2.0, 4.0):
        for gap in (0.0, 0.7):
            config = PairConfig(Alignment.PARALLEL, l=0.8, d=d, gap=gap)
            result = concurrence(config, cone)
            p_dev = abs(result.response_a.total - p_flat(gap)) / p_flat(gap)
            x_dev = (abs(result.correlation.total - x_flat(d, gap))
                     / abs(x_flat(d, gap)))
            c_ref = concurrence_flat(d, gap)
            c_dev = abs(result.concurrence - c_ref) / max(c_ref, 1e-12)
            worst = max(worst, p_dev, x_dev, c_dev)
    passed = worst <= 1e-12
    _report(2, passed, f"nu=1 paths equal flat closed forms, worst rel dev {worst:.2e} "
                       "(tol 1e-12, 10-point grid)", started)
    assert worst <= 1e-12


def test_criterion_03_correlation_and_concurrence_at_string():
    started = time.perf_counter()
    cone = ConeParameter(3.0)
    config = PairConfig(Alignment.PARALLEL, l=0.0, d=0.5, gap=GAP)
    x_dev = abs(x_string(config, cone).total - 3.0 * x_flat(0.5, GAP))
    c_dev = abs(concurrence(config, cone).concurrence - 3.0 * concurrence_flat(0.5, GAP))
    passed = x_dev <= 1e-10 and c_dev <= 1e-10
    _report(3, passed, f"X_P(l=0) = 3 X0 (dev {x_dev:.2e}), C_P(l=0) = 3 C0 "
                       f"(dev {c_dev:.2e}), tol 1e-10", started)
    assert x_dev <= 1e-10
    assert c_dev <= 1e-10


def test_criterion_04_zeta_integral_identity():
    started = time.perf_counter()
    worst = 0.0
    for nu in (1.3, 2.5, 3.7, 9.2):
        def integrand(z, n=nu):
            return math.sin(n * math.pi) / (np.cos(n * math.pi) - np.cosh(n * np.asarray(z)))
        value = integrate_semi_infinite(integrand, tail_rate=nu, tol=1e-10).value[0]
        expected = (math.pi / nu) * (nu - 1.0 - 2.0 * math.floor(nu / 2.0))
        worst = max(worst, abs(value - expected))
    passed = worst <= 1e-8
    _report(4, passed, f"zeta-coefficient integral identity, worst abs dev {worst:.2e} "
                       "(tol 1e-8)", started)
    assert worst <= 1e-8


def test_criterion_05_extremal_nu_of_response_correlation_gap():
    started = time.perf_counter()
    config = PairConfig(Alignment.PARALLEL, l=3.0, d=0.1, gap=GAP)
    nu_star = nu_extremum("response_correlation_gap", config, Bracket(6.0, 12.0), tol=1e-4)
    passed = abs(nu_star - 9.220) <= 0.1 and time.perf_counter() - started < 30.0
    _report(5, passed, f"arg-min nu of |P_D - |X_P|| = {nu_star:.4f} (target 9.220 +- 0.1)",
            started)
    assert abs(nu_star - 9.220) <= 0.1
    assert time.perf_counter() - started < 30.0


def test_criterion_06_opposite_sides_terminal_distance():
    started = time.perf_counter()
    l0 = opposite_sides_terminal_l(ConeParameter(3.0), GAP)
    passed = l0 is not None and abs(l0 - 2.219) <= 0.02 and time.perf_counter() - started < 60.0
    _report(6, passed, f"terminal l where d_max meets d=2l: {l0:.4f} (target 2.219 +- 0.02)",
            started)
    assert l0 == pytest.approx(2.219, abs=0.02)
    assert time.perf_counter() - started < 60.0


def test_criterion_07_oracle_equivalence_grid():
    started = time.perf_counter()
    reports = [compare(p.quantity, p.production(), p.reference(), p.tolerance)
               for p in _standard_grid()]
    worst = max(r.rel_deviation / r.tolerance for r in reports)
    passed = all(r.passed for r in reports) and time.perf_counter() - started < 120.0
    _report(7, passed, f"{len(reports)}-point oracle grid, worst dev/tol ratio {worst:.2e}",
            started)
    for r in reports:
        assert r.passed, f"{r.quantity}: rel dev {r.rel_deviation:.2e} > tol {r.tolerance:.1e}"
    assert time.perf_counter() - started < 120.0


def test_criterion_08_qualitative_figure_properties():
    started = time.perf_counter()
    details = []

    def conc(alignment, nu, l, d, gap=GAP):
        return concurrence(PairConfig(alignment, l=l, d=d, gap=gap),
                           ConeParameter(nu)).concurrence

    # (a) concurrence monotone decreasing in d for both same-side alignments
    mono = True
    for nu in (2.0, 11.0):
        for alignment in (Alignment.PARALLEL, Alignment.ORTHOGONAL_SAME_SIDE):
            values = [conc(alignment, nu, 0.1, d) for d in np.linspace(0.1, 2.0, 12)]
            mono &= all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    details.append(f"(a) d-monotone {mono}")

    # (b) parallel/orthogonal ordering crossover between d = 0.1 and d = 1.5 at nu = 2
    near = conc(Alignment.PARALLEL, 2.0, 0.1, 0.1) > conc(Alignment.ORTHOGONAL_SAME_SIDE, 2.0, 0.1, 0.1)
    far = conc(Alignment.ORTHOGONAL_SAME_SIDE, 2.0, 0.1, 1.5) > conc(Alignment.PARALLEL, 2.0, 0.1, 1.5)
    details.append(f"(b) crossover {near and far}")

    # (c) parallel dip below the flat value for some l in (0.5, 5) at nu = 2, d = 0.5
    flat_value = concurrence_flat(0.5, GAP)
    dip = any(conc(Alignment.PARALLEL, 2.0, l, 0.5) < flat_value
              for l in np.linspace(0.5, 5.0, 10))
    details.append(f"(c) dip {dip}")

    # (d) opposite-sides concurrence >= flat at matched separation, nu = 3
    dominance = all(conc(Alignment.ORTHOGONAL_OPPOSITE_SIDES, 3.0, l, 2.0 * l)
                    >= concurrence_flat(2.0 * l, GAP) - 1e-12
                    for l in np.linspace(0.2, 2.0, 10))
    details.append(f"(d) opposite dominance {dominance}")

    # (e) parallel d_max below flat everywhere; orthogonal above flat near the string
    flat_dmax = d_max(Alignment.FLAT, ConeParameter(1.0), l=0.0, gap=GAP).value
    par_below = all(
        d_max(Alignment.PARALLEL, ConeParameter(3.0), l=l, gap=GAP).value < flat_dmax
        for l in (0.05, 0.25, 0.5, 1.0, 2.0, 4.0))
    orth_above = all(
        d_max(Alignment.ORTHOGONAL_SAME_SIDE, ConeParameter(3.0), l=l, gap=GAP).value > flat_dmax
        for l in (0.05, 0.25, 0.5))
    details.append(f"(e) d_max ordering {par_below and orth_above}")

    checks = [mono, near and far, dip, dominance, par_below and orth_above]
    passed = all(checks) and time.perf_counter() - started < 300.0
    _report(8, passed, "; ".join(details), started)
    assert all(checks)
    assert time.perf_counter() - started < 300.0


def test_criterion_09_overlap_divergence_handling():
    started = time.perf_counter()
    cone_even = ConeParameter(4.0)
    cone_odd = ConeParameter(3.0)
    config = PairConfig(Alignment.ORTHOGONAL_OPPOSITE_SIDES, l=1.0, d=2.0, gap=GAP)
    raised = False
    try:
        x_string(config, cone_even)
    except DivergentOverlap as exc:
        raised = exc.image_index == 2
    finite = concurrence(config, cone_odd)
    finite_ok = math.isfinite(finite.concurrence) and math.isfinite(finite.abs_x)
    passed = raised and finite_ok
    _report(9, passed, f"even-nu symmetric overlap raises ({raised}), "
                       f"odd-nu finite ({finite_ok})", started)
    assert raised
    assert finite_ok


def test_criterion_10_boundary_limits():
    # P_bd -> 0 at the boundary: l = 1e-9 takes the small-argument branch, the
    # other points go through the kernel ratio K(l, g)/l (P_bd ~ 0.04 l^2 there).
    started = time.perf_counter()
    near = {l: p_boundary(l, GAP) for l in (1e-9, 1e-4, 1e-3)}
    near_ok = all(abs(value) <= 1e-6 for value in near.values())
    # P_bd -> P0 from below with the image tail -e^{-g^2}/(8 pi l^2) at l = 50;
    # the next-order term is a relative (1 - 2 g^2)/(2 l^2) ~ 2e-4 of the tail.
    flat = p_flat(GAP)
    far = p_boundary(50.0, GAP)
    tail = -math.exp(-GAP ** 2) / (8.0 * math.pi * 50.0 ** 2)
    far_residual = (far - flat) - tail
    below = far < flat
    far_ok = abs(far_residual) <= 1e-8 and below
    near_detail = ", ".join(f"P_bd({l:g}) = {value:.2e}" for l, value in near.items())
    _report(10, near_ok and far_ok,
            f"{near_detail} (tol 1e-6); P_bd(50) - P0 = {far - flat:.4e} vs tail "
            f"{tail:.4e}, residual {far_residual:.2e} (tol 1e-8), below P0: {below}",
            started)
    assert near_ok, f"near-boundary responses {near_detail} exceed 1e-6"
    assert below, f"p_boundary(50) = {far:.12e} is not below p_flat = {flat:.12e}"
    assert abs(far_residual) <= 1e-8, (
        f"p_boundary(50) - p_flat = {far - flat:.6e} misses the image tail "
        f"-e^(-g^2)/(8 pi l^2) = {tail:.6e} by {far_residual:.3e} (tol 1e-8)")


def test_criterion_11_small_distance_approximations():
    started = time.perf_counter()
    nu, l, d = 3.0, 0.05, 0.5
    cone = ConeParameter(nu)
    p_rel = abs(p_string(l, cone, GAP).total / (nu * p_flat(GAP)) - 1.0)
    x0 = x_flat(d, GAP)
    expansion = (nu * x0 - nu * (l * l / (d * d) + l * l / 2.0) * x0
                 - math.exp(-GAP * GAP) * l * l * nu / (4.0 * math.pi * d * d))
    total = x_string(PairConfig(Alignment.PARALLEL, l=l, d=d, gap=GAP), cone).total
    x_rel = abs(total - expansion) / abs(total)
    passed = p_rel < 0.01 and x_rel < 0.01
    _report(11, passed, f"P within {p_rel:.2e} of nu*P0; X_P within {x_rel:.2e} of the "
                        "three-term expansion (tol 1e-2 each)", started)
    assert p_rel < 0.01
    assert x_rel < 0.01
