"""Concurrence, the flat-spacetime closed form, d_max scans, and parameter sweeps.

At leading perturbative order the two-detector concurrence is
2 max(0, |X| - sqrt(P_A P_B)) per lambda^2; everything here assembles that
from the response and correlation modules and searches it (largest
harvesting-achievable separation d_max, extremal deficit-angle parameter).
One evaluator serves a pair and a scan: the responses (``_responses``) and
the X assembly (``correlation._x_breakdown``) that ``concurrence`` runs on one
point are what the d_max scan runs on its whole grid at once.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import erfc as _erfc_real

from .correlation import CorrelationBreakdown, _x_breakdown, correlation_for
from .errors import DivergentOverlap, InvalidParameter
from .geometry import (
    Alignment,
    ConeParameter,
    PairConfig,
    image_set,
    pair_f_arguments,
    radial_distances,
)
from .quadrature import (
    Bracket,
    DEFAULT_TOL,
    check_tolerance,
    find_last_sign_change,
    find_root_bracketed,
    minimize_scalar,
)
from .response import ResponseBreakdown, image_response
from .special import EPS_DIV, SQRT_PI, faddeeva_w

MAX_SWEEP_POINTS = 100_000


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence with the provenance of each part (per lambda^2)."""

    abs_x: float
    geo_mean_p: float
    concurrence: float
    diverged: bool
    response_a: ResponseBreakdown
    response_b: ResponseBreakdown
    correlation: CorrelationBreakdown


def response_pair(config: PairConfig, cone: ConeParameter, tol: float = DEFAULT_TOL):
    """(ResponseBreakdown_A, ResponseBreakdown_B) for any alignment.

    Each detector responds to the images its pair sees (geometry.image_set):
    a boundary's subtracted image sits in p_images, flat has none.
    """
    return _responses(config.alignment, cone, config.l, config.d, config.gap, tol)


def _responses(alignment: Alignment, cone: ConeParameter, l, d, gap: float, tol: float):
    """response_pair at scalars l, d or at equal-shape arrays of validated points.

    Array breakdown parts are arrays, or scalars where a part is the same at
    every point; B reuses A's breakdown where their radial distances agree.
    """
    seen, terms = image_set(alignment, cone)
    rho_a, rho_b = radial_distances(alignment, l, d)
    response_a = image_response(rho_a, seen, terms, gap, tol=tol)
    if np.array_equal(rho_a, rho_b) if getattr(rho_a, "ndim", 0) else rho_a == rho_b:
        return response_a, response_a
    return response_a, image_response(rho_b, seen, terms, gap, tol=tol)


def concurrence(config: PairConfig, cone: ConeParameter, tol: float = DEFAULT_TOL) -> ConcurrenceResult:
    """Concurrence 2 max(0, |X| - sqrt(P_A P_B)) with full breakdowns.

    Raises DivergentOverlap when a detector coincides with an image of its
    partner (the symmetric opposite-sides case at even integer nu); sweeps
    catch it and flag the row instead.
    """
    resp_a, resp_b = response_pair(config, cone, tol=tol)
    corr = correlation_for(config, cone, tol=tol)
    abs_x = abs(corr.total)
    geo_mean = math.sqrt(resp_a.total * resp_b.total)
    value = 2.0 * max(0.0, abs_x - geo_mean)
    return ConcurrenceResult(abs_x=abs_x, geo_mean_p=geo_mean, concurrence=value,
                             diverged=False, response_a=resp_a, response_b=resp_b,
                             correlation=corr)


def concurrence_flat(d: float, gap: float) -> float:
    """Flat-spacetime concurrence closed form, per lambda^2.

    C0 = max{ (e^{-g^2}/2 sqrt(pi)) [ |w(-d/2)|/d + e^{g^2} g erfc(g)
              - 1/sqrt(pi) ], 0 }
    using e^{-d^2/4}|Erfc(id/2)| = |w(-d/2)| for overflow-free evaluation.
    """
    if d <= EPS_DIV:
        raise DivergentOverlap(argument=d / 2.0, image_index=None,
                               message="flat concurrence diverges as d -> 0")
    bracket = (abs(faddeeva_w(-d / 2.0)) / d
               + math.exp(gap * gap) * gap * _erfc_real(gap) - 1.0 / SQRT_PI)
    return max(math.exp(-gap * gap) / (2.0 * SQRT_PI) * bracket, 0.0)


# --- d_max ------------------------------------------------------------------


@dataclass(frozen=True)
class DmaxResult:
    """Largest separation with positive concurrence; None when harvesting never occurs.

    ``skipped`` records scan points excluded for detector/image overlap.
    """

    value: Optional[float]
    skipped: Tuple[float, ...]


def _entanglement_margin(config: PairConfig, cone: ConeParameter, tol: float) -> float:
    result = concurrence(config, cone, tol=tol)
    return result.abs_x - result.geo_mean_p


def _scan_margins(alignment: Alignment, cone: ConeParameter, l: np.ndarray, d: np.ndarray,
                  gap: float, tol: float):
    """Margins |X| - sqrt(P_A P_B) at equal-shape arrays l, d in one array pass.

    Masks the points where d/2 or an image argument is at or below EPS_DIV
    (the DivergentOverlap cases of concurrence), then runs the response and
    X-assembly code of concurrence once on the remaining batch, so at
    non-integer nu each zeta integral (P per distinct rho, X per point) runs
    once for the whole scan, its points sharing one adaptive subdivision.
    The caller validates the parameters.  Masked points get margin None;
    their d values are returned as skipped.
    """
    geo = pair_f_arguments(alignment, cone, l, d)
    ok = d / 2.0 > EPS_DIV
    for _, _, z in geo.image_args:
        ok &= z > EPS_DIV
    l_ok, d_ok = l[ok], d[ok]
    if not ok.all():
        if not ok.any():
            return [None] * d.size, d.tolist()
        geo = pair_f_arguments(alignment, cone, l_ok, d_ok)

    p_a, p_b = _responses(alignment, cone, l_ok, d_ok, gap, tol)
    x_total = _x_breakdown(geo, d_ok, gap, cone, tol).total
    # np.hypot is the libm hypot behind Python's abs(complex); np.abs on a
    # complex array may take a SIMD path that differs in the last bit
    margin_ok = np.hypot(x_total.real, x_total.imag) - np.sqrt(p_a.total * p_b.total)

    margins = np.full(d.shape, None, dtype=object)
    margins[ok] = margin_ok.tolist()
    return list(margins), d[~ok].tolist()


def _last_crossing(margins, grid: np.ndarray, margin_at, tol: float) -> Optional[float]:
    """Brent root of the last sign change of scanned margins (None at skipped points).

    ``margin_at`` is the scalar concurrence margin Brent refines with, so the
    root does not depend on how the scan was evaluated.  Without a sign
    change: grid[-1] when the last valid margin is still positive, else None.
    """
    last = find_last_sign_change(margins, grid)
    if last is None:
        valid = [m for m in margins if m is not None]
        return float(grid[-1]) if valid and valid[-1] > 0.0 else None
    bracket = Bracket(float(grid[last]), float(grid[last + 1]))
    return find_root_bracketed(margin_at, bracket, tol=tol)


def d_max(alignment: Alignment, cone: ConeParameter, l: float, gap: float,
          d_hi: float = 8.0, grid_n: int = 512, tol: float = 1e-6,
          d_lo: Optional[float] = None, quad_tol: float = DEFAULT_TOL) -> DmaxResult:
    """Maximum harvesting-achievable separation at fixed l, nu, gap.

    Scans g(d) = |X| - sqrt(P_A P_B) on a dense grid and bisects the LAST sign
    change (the margin can in principle re-cross, and d_max means the point
    beyond which harvesting cannot occur).  Overlap-divergent scan points are
    skipped and reported.  Returns d_hi itself when the margin is still
    positive at the scan ceiling.
    """
    if not (math.isfinite(d_hi) and d_hi > 0) or grid_n < 2:
        raise InvalidParameter("d_hi must be finite and > 0 and grid_n >= 2")
    check_tolerance(tol, "root")
    if d_lo is None:
        d_lo = 2.0 * l if alignment is Alignment.ORTHOGONAL_OPPOSITE_SIDES else d_hi / grid_n
    if d_lo >= d_hi:
        raise InvalidParameter(f"scan start {d_lo} is not below d_hi {d_hi}")
    # d grows from a validated d_lo to a finite d_hi, so this validates every scan point
    PairConfig(alignment, l=l, d=d_lo, gap=gap)

    grid = np.linspace(d_lo, d_hi, grid_n)
    margins, skipped = _scan_margins(alignment, cone, np.full_like(grid, l), grid, gap, quad_tol)

    def margin_at(d):
        return _entanglement_margin(PairConfig(alignment, l=l, d=float(d), gap=gap), cone, quad_tol)

    return DmaxResult(value=_last_crossing(margins, grid, margin_at, tol), skipped=tuple(skipped))


def opposite_sides_terminal_l(cone: ConeParameter, gap: float, l_hi: float = 4.0,
                              grid_n: int = 512, tol: float = 1e-6,
                              quad_tol: float = DEFAULT_TOL) -> Optional[float]:
    """Terminal detector-to-string distance where d_max(l) meets d = 2l.

    For the opposite-sides alignment the separation is at least 2l, so
    harvesting stops entirely at the largest l whose minimum-separation
    (symmetric) configuration still has positive concurrence.  None when even
    the smallest scanned l cannot harvest, or when every symmetric point
    diverges (even integer nu).
    """
    if not (math.isfinite(l_hi) and l_hi > 0):
        raise InvalidParameter("l_hi must be finite and > 0")
    if grid_n < 2:
        raise InvalidParameter("grid_n must be >= 2")
    check_tolerance(tol, "root")
    alignment = Alignment.ORTHOGONAL_OPPOSITE_SIDES
    grid = np.linspace(l_hi / grid_n, l_hi, grid_n)
    PairConfig(alignment, l=float(grid[0]), d=2.0 * float(grid[0]), gap=gap)
    margins, _ = _scan_margins(alignment, cone, grid, 2.0 * grid, gap, quad_tol)

    def margin_at(l):
        return _entanglement_margin(PairConfig(alignment, l=float(l), d=2.0 * float(l), gap=gap),
                                    cone, quad_tol)

    return _last_crossing(margins, grid, margin_at, tol)


# --- nu scans ----------------------------------------------------------------


def nu_extremum(objective: Union[str, Callable[[float], float]], config: PairConfig,
                bracket: Bracket, tol: float = 1e-4, quad_tol: float = DEFAULT_TOL) -> float:
    """Extremal deficit-angle parameter per the objective selector.

    "response_correlation_gap" minimizes the unsigned separation
    |sqrt(P_A P_B) - |X|| between the transition probability and the
    correlation magnitude; "concurrence" maximizes the concurrence.  A custom
    callable of nu is minimized as given.  The bracket must contain a single
    extremum (verified post hoc by sampling; NotUnimodal otherwise).
    """
    if not isinstance(bracket, Bracket):
        bracket = Bracket(*bracket)
    if bracket.lo < 1.0 or bracket.hi > 64.0:
        raise InvalidParameter("nu bracket must lie within [1, 64]")

    if callable(objective):
        fn = objective
    elif objective == "response_correlation_gap":
        def fn(nu):
            result = concurrence(config, ConeParameter(nu), tol=quad_tol)
            return abs(result.geo_mean_p - result.abs_x)
    elif objective == "concurrence":
        def fn(nu):
            return -concurrence(config, ConeParameter(nu), tol=quad_tol).concurrence
    else:
        raise InvalidParameter(f"unknown objective selector {objective!r}")

    return minimize_scalar(fn, bracket, tol=tol)


# --- sweeps -------------------------------------------------------------------


SWEEP_AXES = ("d", "l", "nu", "gap")


@dataclass(frozen=True)
class SweepRow:
    param: float
    p_a: Optional[float]
    p_b: Optional[float]
    abs_x: Optional[float]
    concurrence: Optional[float]
    diverged: bool


@dataclass(frozen=True)
class SweepTable:
    """Rows of (axis value, P_A, P_B, |X|, concurrence, diverged), axis-ordered."""

    axis: str
    alignment: Alignment
    nu: float
    fixed: dict
    rows: Tuple[SweepRow, ...]


def _sweep_row(alignment: Alignment, cone: ConeParameter, axis: str, value: float,
               l: Optional[float], d: Optional[float], gap: Optional[float],
               d_over_l: Optional[float], tol: float) -> SweepRow:
    if axis == "l":
        l = value
    elif axis == "d":
        d = value
    elif axis == "gap":
        gap = value
    elif axis == "nu":
        cone = ConeParameter(value)
    if d_over_l is not None and axis == "l":
        d = d_over_l * value
    try:
        config = PairConfig(alignment, l=l if l is not None else 0.0, d=d, gap=gap)
        result = concurrence(config, cone, tol=tol)
        return SweepRow(param=value, p_a=result.response_a.total, p_b=result.response_b.total,
                        abs_x=result.abs_x, concurrence=result.concurrence, diverged=False)
    except (DivergentOverlap, InvalidParameter):
        return SweepRow(param=value, p_a=None, p_b=None, abs_x=None,
                        concurrence=None, diverged=True)


def sweep(alignment: Alignment, cone: ConeParameter, axis: str, values: Sequence[float],
          l: Optional[float] = None, d: Optional[float] = None, gap: Optional[float] = None,
          d_over_l: Optional[float] = None, tol: float = DEFAULT_TOL,
          threads: int = 1) -> SweepTable:
    """Evaluate the concurrence observables along one axis, in axis order.

    ``axis`` is one of "d", "l", "nu", "gap"; the remaining parameters are
    fixed (``d_over_l`` couples d = ratio * l to an l-axis, for the
    opposite-sides family).  Per-row failures (detector/image overlap,
    constraint violations such as d < 2l) are flagged, never aborting the
    sweep.  A bad ``tol``, a fixed parameter that is not finite or breaks
    PairConfig's sign rules (l, gap >= 0; d, d_over_l > 0) and a non-finite
    axis value raise InvalidParameter before any row.  ``threads`` is accepted
    for compatibility and has no effect.
    """
    if axis not in SWEEP_AXES:
        raise InvalidParameter(f"axis must be one of {SWEEP_AXES}")
    check_tolerance(tol, "quadrature")
    values = [float(v) for v in values]
    if not 2 <= len(values) <= MAX_SWEEP_POINTS:
        raise InvalidParameter(f"sweep needs between 2 and {MAX_SWEEP_POINTS} points")
    if gap is None and axis != "gap":
        raise InvalidParameter("gap must be fixed unless it is the sweep axis")
    if d is None and axis != "d" and not (axis == "l" and d_over_l is not None):
        raise InvalidParameter("d must be fixed, the sweep axis, or coupled via d_over_l")
    for name, value in (("l", l), ("d", d), ("gap", gap), ("d_over_l", d_over_l)):
        if value is None or name == axis:
            continue
        positive = name in ("d", "d_over_l")
        if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
            raise InvalidParameter(
                f"{name} must be finite and {'> 0' if positive else '>= 0'}, got {value!r}")
    if not all(math.isfinite(v) for v in values):
        raise InvalidParameter(f"{axis} axis values must be finite")

    rows = tuple(_sweep_row(alignment, cone, axis, v, l, d, gap, d_over_l, tol) for v in values)
    fixed = {k: v for k, v in (("l", l), ("d", d), ("gap", gap), ("d_over_l", d_over_l))
             if v is not None and k != axis}
    return SweepTable(axis=axis, alignment=alignment, nu=cone.nu, fixed=fixed, rows=rows)
