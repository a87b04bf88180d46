"""Standard validation grid: oracle/production comparisons plus analytic identities.

This is the one place production closed forms and their integral-representation
oracles meet.  The standard grid has thirteen oracle/production points (three
P0, three P1, two P2, two X0, three X_P) at the honest tolerances the
principal-value and nested quadratures can sustain, followed by a battery of
exact identities (nu * P0 at the string, flat reduction, the zeta-coefficient
integral, kernel two-path agreement, boundary limits, regulator
extrapolation, divergence handling).
"""

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from . import oracle
from .correlation import x_flat, x_string
from .entanglement import concurrence_flat
from .errors import DivergentOverlap
from .geometry import Alignment, ConeParameter, PairConfig, same_side_coefficient
from .oracle import OracleReport, compare
from .quadrature import integrate_semi_infinite
from .response import p_boundary, p_flat, p_string
from .special import response_kernel, response_kernel_direct


@dataclass(frozen=True)
class GridPoint:
    quantity: str
    tolerance: float
    production: Callable[[], complex]
    reference: Callable[[], complex]
    fast: bool  # included in the fast profile


def _standard_grid() -> List[GridPoint]:
    points: List[GridPoint] = []

    for gap in (0.0, 0.1, 1.0):
        points.append(GridPoint(
            quantity=f"P0(gap={gap:g})", tolerance=1e-8, fast=True,
            production=lambda g=gap: p_flat(g),
            reference=lambda g=gap: oracle.p0_oracle(g)))

    for rho, nu, gap in ((1.0, 3.0, 0.1), (0.5, 4.0, 0.1), (2.0, 2.0, 0.5)):
        points.append(GridPoint(
            quantity=f"P1(rho={rho:g}, nu={nu:g}, gap={gap:g})", tolerance=1e-6, fast=True,
            production=lambda r=rho, n=nu, g=gap: p_string(r, ConeParameter(n), g).p_images,
            reference=lambda r=rho, n=nu, g=gap: oracle.p1_oracle(r, ConeParameter(n), g)))

    for rho, nu, gap in ((1.0, 2.5, 0.1), (0.3, 1.5, 0.1)):
        points.append(GridPoint(
            quantity=f"P2(rho={rho:g}, nu={nu:g}, gap={gap:g})", tolerance=1e-5, fast=False,
            production=lambda r=rho, n=nu, g=gap: p_string(r, ConeParameter(n), g).p_integral,
            reference=lambda r=rho, n=nu, g=gap: oracle.p2_oracle(r, ConeParameter(n), g)))

    for d, gap in ((1.0, 0.1), (4.0, 0.5)):
        points.append(GridPoint(
            quantity=f"X0(d={d:g}, gap={gap:g})", tolerance=1e-8, fast=True,
            production=lambda dd=d, g=gap: x_flat(dd, g),
            reference=lambda dd=d, g=gap: oracle.x0_oracle(dd, g)))

    # integer-nu X_P at 1e-6; the nested non-integer variants at the honest 1e-5,
    # and at 1e-6 where the zeta part is a third of |X|, so a fault in it alone shows
    for l, d, nu, gap, tol, fast in ((0.5, 0.5, 3.0, 0.1, 1e-6, True),
                                     (1.0, 1.0, 2.5, 0.1, 1e-5, False),
                                     (0.1, 2.0, 1.5, 0.1, 1e-6, False)):
        config = PairConfig(Alignment.PARALLEL, l=l, d=d, gap=gap)
        points.append(GridPoint(
            quantity=f"X_P(l={l:g}, d={d:g}, nu={nu:g}, gap={gap:g})", tolerance=tol, fast=fast,
            production=lambda c=config, n=nu: x_string(c, ConeParameter(n)).total,
            reference=lambda c=config, n=nu: oracle.xp_oracle(c, ConeParameter(n))))

    return points


def _identity_reports(fast: bool) -> List[OracleReport]:
    reports: List[OracleReport] = []
    gap = 0.1

    # string-point response identity P(0, nu) = nu P0
    nus = (2.0, 2.5) if fast else (1.5, 2.0, 2.5, 3.0, 11.0)
    for nu in nus:
        reports.append(compare(
            f"identity P(rho=0, nu={nu:g}) = nu*P0",
            p_string(0.0, ConeParameter(nu), gap).total, nu * p_flat(gap), 1e-6))

    # flat reduction at nu = 1
    for d in (0.5, 2.0):
        flat_conc = concurrence_flat(d, gap)
        string_x = x_string(PairConfig(Alignment.PARALLEL, l=1.0, d=d, gap=gap), ConeParameter(1.0))
        reports.append(compare(
            f"identity nu=1 reduction X(d={d:g})", string_x.total, x_flat(d, gap), 1e-12))
        reports.append(compare(
            f"identity nu=1 reduction P(d={d:g})",
            p_string(1.0, ConeParameter(1.0), gap).total, p_flat(gap), 1e-12))
        reports.append(compare(
            f"identity C0(d={d:g}) closed form vs assembled",
            2.0 * max(0.0, abs(x_flat(d, gap)) - p_flat(gap)), flat_conc, 1e-12))

    # X_P(l=0) = nu X0
    x = x_string(PairConfig(Alignment.PARALLEL, l=0.0, d=0.5, gap=gap), ConeParameter(3.0)).total
    reports.append(compare("identity X_P(l=0, nu=3) = 3 X0", x, 3.0 * x_flat(0.5, gap), 1e-10))

    # production's zeta coefficient integrates to nu - 1 - 2 floor(nu/2)
    nus = (2.5,) if fast else (1.3, 2.5, 3.7, 9.2)
    for nu in nus:
        got = integrate_semi_infinite(same_side_coefficient(nu), tail_rate=nu, tol=1e-10).value[0]
        expect = nu - 1.0 - 2.0 * math.floor(nu / 2.0)
        reports.append(compare(f"identity zeta integral (nu={nu:g})", got, expect, 1e-8))

    # kernel two-path agreement
    grid_a = np.linspace(0.0, 5.0, 6 if fast else 20)
    grid_g = np.linspace(0.0, 3.0, 4 if fast else 20)
    worst = float(max(abs(response_kernel(a, g) - response_kernel_direct(a, g))
                      for a in grid_a for g in grid_g))
    reports.append(OracleReport(
        quantity="identity kernel two-path agreement", production=worst, oracle=0.0,
        abs_deviation=worst, rel_deviation=worst, tolerance=1e-12,
        passed=bool(worst <= 1e-12)))

    # boundary limits (far-field tail decays as 1/l^2; 3000 sigma reaches 1e-8)
    reports.append(compare("identity P_bd(l->0) = 0", p_boundary(1e-9, gap), 0.0, 1e-6))
    far_dev = abs(p_boundary(3000.0, gap) - p_flat(gap))
    reports.append(OracleReport(
        quantity="identity P_bd(l=3000) = P0",
        production=p_boundary(3000.0, gap), oracle=p_flat(gap),
        abs_deviation=far_dev, rel_deviation=far_dev / p_flat(gap),
        tolerance=1e-8, passed=bool(far_dev <= 1e-8)))

    # Sokhotski-Plemelj regulator extrapolation against the closed form
    gaps = (0.1,) if fast else (0.0, 0.1, 1.0)
    for g in gaps:
        reports.append(oracle.epsilon_extrapolation_check(g, production=p_flat(g)))

    # divergence handling: symmetric opposite-sides at even nu must refuse
    try:
        x_string(PairConfig(Alignment.ORTHOGONAL_OPPOSITE_SIDES, l=1.0, d=2.0, gap=gap),
                 ConeParameter(4.0))
        diverged_ok = 0.0
    except DivergentOverlap:
        diverged_ok = 1.0
    try:
        finite = x_string(PairConfig(Alignment.ORTHOGONAL_OPPOSITE_SIDES, l=1.0, d=2.0, gap=gap),
                          ConeParameter(3.0)).total
        finite_ok = 1.0 if np.isfinite(finite.real) and np.isfinite(finite.imag) else 0.0
    except DivergentOverlap:
        finite_ok = 0.0
    reports.append(OracleReport(
        quantity="identity even-nu overlap raises / odd-nu finite",
        production=diverged_ok + finite_ok, oracle=2.0,
        abs_deviation=abs(diverged_ok + finite_ok - 2.0),
        rel_deviation=abs(diverged_ok + finite_ok - 2.0) / 2.0,
        tolerance=0.0, passed=bool(diverged_ok + finite_ok == 2.0)))

    return reports


def run_verification(profile: str = "default") -> Tuple[List[OracleReport], bool]:
    """Run the oracle grid and identity suite; returns (reports, all_passed)."""
    if profile not in ("default", "fast"):
        raise ValueError(f"unknown profile {profile!r}")
    fast = profile == "fast"
    reports: List[OracleReport] = []
    for point in _standard_grid():
        if fast and not point.fast:
            continue
        reports.append(compare(point.quantity, point.production(), point.reference(),
                               point.tolerance))
    reports.extend(_identity_reports(fast))
    return reports, all(r.passed for r in reports)
