"""Standard validation grid: oracle/production comparisons plus analytic identities.

This is the one place production closed forms and their integral-representation
oracles meet.  Every check is a GridPoint row, judged by oracle.compare, and
every run checks all 42 rows.  The standard grid has sixteen
oracle/production points (three P0, three P1, two P2, three total P against
the closed-form Wightman function, two X0, three X_P) at the honest
tolerances the principal-value, nested and contour quadratures can sustain;
the identity grid holds 26 exact identities (nu * P0 at the string,
flat reduction, both zeta-coefficient branches' integrals, kernel two-path
agreement, boundary limits, regulator extrapolation, divergence handling).
"""

import cmath
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from . import oracle
from .correlation import x_flat, x_string
from .entanglement import concurrence_flat
from .errors import DivergentOverlap
from .geometry import Alignment, ConeParameter, PairConfig, zeta_coefficient
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


def _standard_grid() -> List[GridPoint]:
    points = [GridPoint(f"P0(gap={g:g})", 1e-8, lambda g=g: p_flat(g),
                        lambda g=g: oracle.p0_oracle(g))
              for g in (0.0, 0.1, 1.0)]
    points += [GridPoint(f"P1(rho={r:g}, nu={n:g}, gap={g:g})", 1e-6,
                         lambda r=r, n=n, g=g: p_string(r, ConeParameter(n), g).p_images,
                         lambda r=r, n=n, g=g: oracle.p1_oracle(r, ConeParameter(n), g))
               for r, n, g in ((1.0, 3.0, 0.1), (0.5, 4.0, 0.1), (2.0, 2.0, 0.5))]
    points += [GridPoint(f"P2(rho={r:g}, nu={n:g}, gap={g:g})", 1e-8,
                         lambda r=r, n=n, g=g: p_string(r, ConeParameter(n), g).p_integral,
                         lambda r=r, n=n, g=g: oracle.p2_oracle(r, ConeParameter(n), g))
               for r, n, g in ((1.0, 2.5, 0.1), (0.3, 1.5, 0.1))]
    # the total P against the closed form: just off an integer (where p_string
    # once returned 0.14147 for 0.10387), near the string with 31 images, and
    # at gap 3 on the contour through the Gaussian's saddle
    points += [GridPoint(f"P(rho={r:g}, nu={n:.13g}, gap={g:g}) closed form", 1e-10,
                         lambda r=r, n=n, g=g: p_string(r, ConeParameter(n), g).total,
                         lambda r=r, n=n, g=g: oracle.p_closed_form_oracle(r, ConeParameter(n), g))
               for r, n, g in ((1.0, 2.0 + 1e-12, 0.1), (1e-3, 63.5, 0.1), (1.0, 2.5, 3.0))]
    points += [GridPoint(f"X0(d={d:g}, gap={g:g})", 1e-8, lambda d=d, g=g: x_flat(d, g),
                         lambda d=d, g=g: oracle.x0_oracle(d, g))
               for d, g in ((1.0, 0.1), (4.0, 0.5))]
    # integer-nu X_P at 1e-6; the nested non-integer variants at the honest 1e-5,
    # and at 1e-6 where the zeta part is a third of |X|, so a fault in it alone shows
    for l, d, n, g, tol in ((0.5, 0.5, 3.0, 0.1, 1e-6), (1.0, 1.0, 2.5, 0.1, 1e-5),
                            (0.1, 2.0, 1.5, 0.1, 1e-6)):
        config = PairConfig(Alignment.PARALLEL, l=l, d=d, gap=g)
        points.append(GridPoint(f"X_P(l={l:g}, d={d:g}, nu={n:g}, gap={g:g})", tol,
                                lambda c=config, n=n: x_string(c, ConeParameter(n)).total,
                                lambda c=config, n=n: oracle.xp_oracle(c, ConeParameter(n))))
    return points


def _overlap_outcomes(gap: float) -> float:
    """1 if the symmetric opposite-sides pair raises at nu = 4, plus 1 if it is finite at nu = 3."""
    def x_at(nu):
        return x_string(PairConfig(Alignment.ORTHOGONAL_OPPOSITE_SIDES, l=1.0, d=2.0, gap=gap),
                        ConeParameter(nu)).total

    outcomes = 0.0
    try:
        x_at(4.0)
    except DivergentOverlap:
        outcomes += 1.0
    try:
        outcomes += float(cmath.isfinite(x_at(3.0)))
    except DivergentOverlap:
        pass
    return outcomes


def _identity_grid() -> List[GridPoint]:
    gap = 0.1
    # string-point response identity P(0, nu) = nu P0
    points = [GridPoint(f"identity P(rho=0, nu={n:g}) = nu*P0", 1e-6,
                        lambda n=n: p_string(0.0, ConeParameter(n), gap).total,
                        lambda n=n: n * p_flat(gap))
              for n in (1.5, 2.0, 2.5, 3.0, 11.0)]
    # flat reduction at nu = 1 (x is X's and C0's separation d, P's distance rho)
    for x in (0.5, 2.0):
        points += [
            GridPoint(f"identity nu=1 reduction X(d={x:g})", 1e-12,
                      lambda x=x: x_string(PairConfig(Alignment.PARALLEL, l=1.0, d=x, gap=gap),
                                           ConeParameter(1.0)).total,
                      lambda x=x: x_flat(x, gap)),
            GridPoint(f"identity nu=1 reduction P(rho={x:g})", 1e-12,
                      lambda x=x: p_string(x, ConeParameter(1.0), gap).total,
                      lambda: p_flat(gap)),
            GridPoint(f"identity C0(d={x:g}) closed form vs assembled", 1e-12,
                      lambda x=x: 2.0 * max(0.0, abs(x_flat(x, gap)) - p_flat(gap)),
                      lambda x=x: concurrence_flat(x, gap))]
    # X_P(l=0) = nu X0
    points.append(GridPoint(
        "identity X_P(l=0, nu=3) = 3 X0", 1e-10,
        lambda: x_string(PairConfig(Alignment.PARALLEL, l=0.0, d=0.5, gap=gap),
                         ConeParameter(3.0)).total,
        lambda: 3.0 * x_flat(0.5, gap)))
    # a production zeta-coefficient branch (nu, beta, m) integrates to m ((beta mod 2) - 1)/2
    branches = [(n, n, 2) for n in (1.3, 2.5, 3.7, 9.2)] + [(n, 2 * n, 1) for n in (1.3, 2.7, 5.9)]
    points += [GridPoint(f"identity zeta integral (nu={n:g}, beta={b:g}, m={m})", 1e-8,
                         lambda n=n, b=b, m=m: integrate_semi_infinite(
                             zeta_coefficient(n, b, m), tail_rate=n, tol=1e-10).value[0],
                         lambda b=b, m=m: m * (b % 2.0 - 1.0) / 2.0)
               for n, b, m in branches]
    # kernel two-path agreement on a 20 x 20 (a, gap) grid
    points.append(GridPoint("identity kernel two-path agreement", 1e-12,
                            lambda: float(max(
                                abs(response_kernel(a, g) - response_kernel_direct(a, g))
                                for a in np.linspace(0.0, 5.0, 20)
                                for g in np.linspace(0.0, 3.0, 20))),
                            lambda: 0.0))
    # boundary limits (the far-field tail decays as 1/l^2, to 4.4e-9 at 3000 sigma)
    points += [GridPoint("identity P_bd(l->0) = 0", 1e-12, lambda: p_boundary(1e-9, gap),
                         lambda: 0.0),
               GridPoint("identity P_bd(l=3000) = P0", 1e-7, lambda: p_boundary(3000.0, gap),
                         lambda: p_flat(gap))]
    # Sokhotski-Plemelj regulator extrapolation against the closed form
    points += [GridPoint(f"p0_epsilon_extrapolation(gap={g:g})", 1e-4, lambda g=g: p_flat(g),
                         lambda g=g: oracle.p0_epsilon_extrapolated(g))
               for g in (0.0, 0.1, 1.0)]
    # divergence handling: symmetric opposite-sides at even nu must refuse
    points.append(GridPoint("identity even-nu overlap raises / odd-nu finite", 0.0,
                            lambda: _overlap_outcomes(gap), lambda: 2.0))
    return points


def run_verification(profile: str = "default") -> Tuple[List[OracleReport], bool]:
    """Run every row of the oracle and identity grids; returns (reports, all_passed).

    ``profile`` names the one grid, "default"; any other value is refused.
    """
    if profile != "default":
        raise ValueError(f"unknown profile {profile!r}")
    reports = [compare(p.quantity, p.production(), p.reference(), p.tolerance)
               for p in _standard_grid() + _identity_grid()]
    return reports, all(r.passed for r in reports)
