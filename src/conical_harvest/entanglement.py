"""Concurrence, the flat-spacetime closed form, d_max scans, and parameter sweeps.

At leading perturbative order the two-detector concurrence is
2 max(0, |X| - sqrt(P_A P_B)) per lambda^2; everything here assembles that
from the response and correlation modules and searches it (largest
harvesting-achievable separation d_max, extremal deficit-angle parameter).
One evaluator (``_evaluate``) serves a pair and a scan: it hands the image
expansions of P_A, P_B (unless rho_B = rho_A) and X to one correlation.expand
call, so at non-integer nu one concurrence, or the d_max scan's whole grid,
runs a single zeta integral on one adaptive subdivision.  Every search (the
d_max scan, its Brent steps, nu_extremum) reads its margin from ``_margin``.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy.special import erfc as _erfc_real

from .correlation import AUX_F, CorrelationBreakdown, _x0, expand
from .errors import DivergentOverlap, InvalidParameter
from .geometry import (
    Alignment,
    ConeParameter,
    FArguments,
    NU_MAX,
    PairConfig,
    check_gap,
    check_length,
    f_arguments,
    image_set,
    pair_f_arguments,
    radial_distances,
    radial_pair,
)
from .quadrature import (
    Bracket,
    DEFAULT_TOL,
    check_tolerance,
    find_last_sign_change,
    find_root_from_ends,
    minimize_scalar,
)
from .response import ResponseBreakdown, image_response, response_breakdown, response_part
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
    a boundary's subtracted image sits in p_images, flat has none, and
    B is A's breakdown itself where their radial distances agree.
    """
    seen, terms = image_set(config.alignment, cone)
    rho_a, rho_b = radial_pair(config)
    response_a = image_response(rho_a, seen, terms, config.gap, tol=tol)
    if rho_a == rho_b:
        return response_a, response_a
    return response_a, image_response(rho_b, seen, terms, config.gap, tol=tol)


def _same_distances(rho_a, rho_b) -> bool:
    return np.array_equal(rho_a, rho_b) if getattr(rho_a, "ndim", 0) else rho_a == rho_b


def _evaluate(alignment: Alignment, cone: ConeParameter, l, d, gap: float, tol: float,
              geo: FArguments):
    """(response_a, response_b, correlation) from one correlation.expand call.

    ``l``, ``d`` are scalars or equal-shape arrays of validated points and
    ``geo`` their pair_f_arguments.  The parts are P_A, P_B (left out, and
    A's breakdown reused, where rho_B = rho_A) and X, so their zeta integrals
    share one adaptive subdivision, each row within ``tol``.
    """
    seen, terms = image_set(alignment, cone)
    rho_a, rho_b = radial_distances(alignment, l, d)
    same = _same_distances(rho_a, rho_b)
    part_a, inverse_a = response_part(rho_a, seen, terms)
    parts = [part_a]
    if not same:
        part_b, inverse_b = response_part(rho_b, seen, terms)
        parts.append(part_b)
    # X0 before the images, as in x_string: a flat overlap raises without an image index
    flat = _x0(d, gap)
    parts.append((AUX_F, geo))
    expansions = expand(parts, gap, seen.nu, tol)
    response_a = response_breakdown(expansions[0], inverse_a, gap)
    response_b = response_a if same else response_breakdown(expansions[1], inverse_b, gap)
    return response_a, response_b, CorrelationBreakdown(flat, *expansions[-1])


def _margin(alignment: Alignment, cone: ConeParameter, l, d, gap: float, tol: float,
            geo: Optional[FArguments] = None):
    """|X| - sqrt(P_A P_B) from _evaluate, every search's one margin; geo defaults to l, d's."""
    if geo is None:
        geo = pair_f_arguments(alignment, cone, l, d)
    p_a, p_b, x = _evaluate(alignment, cone, l, d, gap, tol, geo)
    x = x.total
    # np.hypot is the libm hypot behind Python's abs(complex); np.abs on a
    # complex array may take a SIMD path that differs in the last bit
    return np.hypot(x.real, x.imag) - np.sqrt(p_a.total * p_b.total)


def concurrence(config: PairConfig, cone: ConeParameter, tol: float = DEFAULT_TOL) -> ConcurrenceResult:
    """Concurrence 2 max(0, |X| - sqrt(P_A P_B)) with full breakdowns.

    The zeta integrals of P_A, P_B and X run as one integral (``_evaluate``),
    so the breakdown parts agree with response_pair's and x_string's within
    ``tol``, not bit for bit.  Raises DivergentOverlap when a detector
    coincides with an image of its partner (the symmetric opposite-sides case
    at even integer nu); sweeps catch it and flag the row instead.
    """
    resp_a, resp_b, corr = _evaluate(config.alignment, cone, config.l, config.d, config.gap,
                                     tol, f_arguments(config, cone))
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
    Refuses the separations x_flat refuses: d/2 at or below EPS_DIV as a
    divergence, a d that geometry.check_length refuses and a gap that
    geometry.check_gap refuses by name.
    """
    check_gap(gap)
    check_length("d", d, positive=True)
    if d / 2.0 <= EPS_DIV:
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


def _scan_margins(alignment: Alignment, cone: ConeParameter, l: np.ndarray, d: np.ndarray,
                  gap: float, tol: float):
    """Margins |X| - sqrt(P_A P_B) at equal-shape arrays l, d in one array pass.

    Masks the points where d/2 or an image argument is at or below EPS_DIV
    (the DivergentOverlap cases of concurrence), then runs _margin once on
    the remaining batch, so at non-integer nu one zeta integral (P per
    distinct rho, X per point) serves the whole scan, its rows sharing one
    adaptive subdivision.  The caller validates the parameters.  Masked points get margin None;
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

    margins = np.full(d.shape, None, dtype=object)
    margins[ok] = _margin(alignment, cone, l_ok, d_ok, gap, tol, geo).tolist()
    return list(margins), d[~ok].tolist()


def _scan_crossing(alignment: Alignment, cone: ConeParameter, gap: float, at: Callable,
                   name: str, hi: float, start: Optional[float], grid_n: int, tol: float,
                   quad_tol: float):
    """(t of the last margin zero, skipped d) on the scan line (l, d) = at(t).

    t runs over grid_n points from ``start`` (None: hi/grid_n) to ``hi``, the
    bound named ``name``.  One array pass scans the line (_scan_margins), and
    Brent refines its last sign change from the scan's margins at the two
    bracket ends, running _margin inside the bracket only.  At integer nu
    those margins are the scalar ones bit for bit (no zeta integral runs), at
    non-integer nu within 1e-14.  No sign change gives hi if the last valid
    margin is positive, else None.  l and d never decrease along a line, so
    validating its two ends validates every point.
    """
    check_length(name, hi, positive=True)
    if not 2 <= grid_n <= MAX_SWEEP_POINTS:
        raise InvalidParameter(f"grid_n must be between 2 and {MAX_SWEEP_POINTS}, got {grid_n!r}")
    check_tolerance(tol, "root")
    lo = hi / grid_n if start is None else start
    if lo >= hi:
        raise InvalidParameter(f"scan start {lo} is not below {name} {hi}")
    grid = np.linspace(lo, hi, grid_n)
    for t in (grid[0], grid[-1]):
        PairConfig(alignment, *at(float(t)), gap=gap)
    l, d = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in at(grid)))
    margins, skipped = _scan_margins(alignment, cone, l, d, gap, quad_tol)

    last = find_last_sign_change(margins)
    if last is None:
        valid = [m for m in margins if m is not None]
        root = float(grid[-1]) if valid and valid[-1] > 0.0 else None
    else:
        root = find_root_from_ends(lambda t: _margin(alignment, cone, *at(t), gap, quad_tol),
                                   Bracket(float(grid[last]), float(grid[last + 1])),
                                   margins[last], margins[last + 1], tol=tol)
    return root, tuple(skipped)


def d_max(alignment: Alignment, cone: ConeParameter, l: float, gap: float,
          d_hi: float = 8.0, grid_n: int = 512, tol: float = 1e-6,
          quad_tol: float = DEFAULT_TOL) -> DmaxResult:
    """Maximum harvesting-achievable separation at fixed l, nu, gap.

    Scans g(d) = |X| - sqrt(P_A P_B) from d = 2l (opposite sides) or
    d_hi/grid_n to d_hi, grid_n <= MAX_SWEEP_POINTS, and bisects the LAST sign
    change (d_max is the point beyond which harvesting cannot occur), starting
    Brent from the scan's margins at the bracket ends (_scan_crossing): the
    result is bit-identical to a scalar scan's at integer nu and depends on
    the batch margins, which agree with scalar ones to 1e-14, at non-integer
    nu.  Overlap-divergent scan points are skipped and reported.  Returns
    d_hi itself when the margin is still positive at the scan ceiling.
    """
    start = 2.0 * l if alignment is Alignment.ORTHOGONAL_OPPOSITE_SIDES else None
    return DmaxResult(*_scan_crossing(alignment, cone, gap, lambda d: (l, d), "d_hi", d_hi, start,
                                      grid_n, tol, quad_tol))


def opposite_sides_terminal_l(cone: ConeParameter, gap: float, l_hi: float = 4.0,
                              grid_n: int = 512, tol: float = 1e-6,
                              quad_tol: float = DEFAULT_TOL) -> Optional[float]:
    """Terminal detector-to-string distance where d_max(l) meets d = 2l.

    For the opposite-sides alignment the separation is at least 2l, so
    harvesting stops entirely at the largest l whose minimum-separation
    (symmetric) configuration still has positive concurrence: d_max's scan
    along d = 2l, l from l_hi/grid_n to l_hi, refined from the scan's bracket
    margins as d_max is (bit-identical to a scalar scan's root at integer nu,
    margins within 1e-14 of scalar ones at non-integer nu).  None when even
    the smallest scanned l cannot harvest, or when every symmetric point
    diverges (even integer nu).
    """
    return _scan_crossing(Alignment.ORTHOGONAL_OPPOSITE_SIDES, cone, gap, lambda l: (l, 2.0 * l),
                          "l_hi", l_hi, None, grid_n, tol, quad_tol)[0]


# --- nu scans ----------------------------------------------------------------


def nu_extremum(objective: str, config: PairConfig, bracket: Bracket, tol: float = 1e-4,
                quad_tol: float = DEFAULT_TOL) -> float:
    """Extremal deficit-angle parameter per the objective selector.

    "response_correlation_gap" minimizes the unsigned separation
    |sqrt(P_A P_B) - |X|| between the transition probability and the
    correlation magnitude; "concurrence" maximizes the concurrence (both
    read _margin); any other selector raises InvalidParameter.  The
    bracket must contain a single extremum (verified post hoc by sampling;
    NotUnimodal otherwise).
    """
    if not isinstance(bracket, Bracket):
        bracket = Bracket(*bracket)
    if bracket.lo < 1.0 or bracket.hi > NU_MAX:
        raise InvalidParameter(f"nu bracket must lie within [1, {NU_MAX:g}]")

    def margin(nu):
        return _margin(config.alignment, ConeParameter(nu), config.l, config.d, config.gap,
                       quad_tol)

    if objective == "response_correlation_gap":
        def fn(nu):
            return abs(margin(nu))
    elif objective == "concurrence":
        def fn(nu):
            return -2.0 * max(0.0, margin(nu))
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


def _row_inputs(axis: str, value: float, l: Optional[float], d: Optional[float],
                gap: Optional[float], d_over_l: Optional[float], cone: ConeParameter):
    """(l, d, gap, cone) of the sweep row at axis ``value``; d_over_l couples d to an l axis."""
    if axis == "l":
        return value, d if d_over_l is None else d_over_l * value, gap, cone
    if axis == "d":
        return l, value, gap, cone
    if axis == "gap":
        return l, d, value, cone
    return l, d, gap, ConeParameter(value)


def _check_inputs(l: Optional[float], d: Optional[float], gap: Optional[float]) -> None:
    """Raise InvalidParameter unless each given l, d (> 0) and gap keeps its rule."""
    if l is not None:
        check_length("l", l)
    if d is not None:
        check_length("d", d, positive=True)
    if gap is not None:
        check_gap(gap)


def _sweep_row(alignment: Alignment, value: float, l: Optional[float], d: float, gap: float,
               cone: ConeParameter, tol: float) -> SweepRow:
    """One row; flagged only at a detector/image overlap or off the opposite sides' d >= 2l > 0."""
    l = 0.0 if l is None else l
    diverged = SweepRow(param=value, p_a=None, p_b=None, abs_x=None, concurrence=None,
                        diverged=True)
    if alignment is Alignment.ORTHOGONAL_OPPOSITE_SIDES and (l <= 0.0 or d < 2.0 * l):
        return diverged
    try:
        result = concurrence(PairConfig(alignment, l=l, d=d, gap=gap), cone, tol=tol)
    except DivergentOverlap:
        return diverged
    return SweepRow(param=value, p_a=result.response_a.total, p_b=result.response_b.total,
                    abs_x=result.abs_x, concurrence=result.concurrence, diverged=False)


def sweep(alignment: Alignment, cone: ConeParameter, axis: str, values: Sequence[float],
          l: Optional[float] = None, d: Optional[float] = None, gap: Optional[float] = None,
          d_over_l: Optional[float] = None, tol: float = DEFAULT_TOL,
          threads: int = 1) -> SweepTable:
    """Evaluate the concurrence observables along one axis, in axis order.

    ``axis`` is one of "d", "l", "nu", "gap"; the remaining parameters are
    fixed (``d_over_l`` couples d = ratio * l to an l-axis, for the
    opposite-sides family; it is refused on any other axis and beside a
    fixed d).  A row at a detector/image overlap or off the opposite-sides
    constraint d >= 2l is flagged, never aborting the sweep; a
    QuadratureFailure is raised.  A bad ``tol``, and a fixed parameter, axis
    value or coupled d that breaks its parameter's rule (l, d, gap:
    _check_inputs; d_over_l finite and > 0; nu: ConeParameter), raise
    InvalidParameter before any row.  ``threads`` is accepted for compatibility and has no effect.
    """
    if axis not in SWEEP_AXES:
        raise InvalidParameter(f"axis must be one of {SWEEP_AXES}")
    check_tolerance(tol, "quadrature")
    values = [float(v) for v in values]
    if not 2 <= len(values) <= MAX_SWEEP_POINTS:
        raise InvalidParameter(f"sweep needs between 2 and {MAX_SWEEP_POINTS} points")
    if gap is None and axis != "gap":
        raise InvalidParameter("gap must be fixed unless it is the sweep axis")
    if d_over_l is not None and axis != "l":
        raise InvalidParameter(f"d_over_l couples d to an l axis only, not to a {axis} axis")
    if d_over_l is not None and d is not None:
        raise InvalidParameter("give a fixed d or d_over_l, not both")
    if d is None and axis != "d" and d_over_l is None:
        raise InvalidParameter("d must be fixed, the sweep axis, or coupled via d_over_l")
    fixed = {k: v for k, v in (("l", l), ("d", d), ("gap", gap), ("d_over_l", d_over_l))
             if v is not None and k != axis}
    _check_inputs(fixed.get("l"), fixed.get("d"), fixed.get("gap"))
    if d_over_l is not None and not (math.isfinite(d_over_l) and d_over_l > 0.0):
        raise InvalidParameter(f"d_over_l must be finite and > 0, got {d_over_l!r}")
    if not all(math.isfinite(v) for v in values):
        raise InvalidParameter(f"{axis} axis values must be finite")
    inputs = [_row_inputs(axis, v, l, d, gap, d_over_l, cone) for v in values]
    for row in inputs:
        _check_inputs(*row[:3])
    rows = tuple(_sweep_row(alignment, v, *row, tol) for v, row in zip(values, inputs))
    return SweepTable(axis=axis, alignment=alignment, nu=cone.nu, fixed=fixed, rows=rows)
