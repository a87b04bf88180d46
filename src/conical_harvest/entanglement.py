"""Concurrence, the flat-spacetime closed form, d_max scans, and parameter sweeps.

At leading perturbative order the two-detector concurrence is
2 max(0, |X| - sqrt(P_A P_B)) per lambda^2; everything here assembles that
from the response and correlation modules and searches it (largest
harvesting-achievable separation d_max, extremal deficit-angle parameter).
One evaluator (``_evaluate``) serves a pair, a sweep row and a scan: it hands the image
expansions of P_A, P_B (unless rho_B = rho_A) and X to one correlation.expand
call, so at non-integer nu one concurrence, or the d_max scan's whole grid,
runs a single zeta integral on one adaptive subdivision.  A d sweep first
expands P at its fixed l once, through response.image_response as p_string
does, and each row hands only its own parts to the evaluator.
``_observables`` reads (|X|, sqrt(P_A P_B)) off it, and every search (the
d_max scan, its Brent steps, nu_extremum) reads its margin from ``_margin``.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy.special import erfcx

from .correlation import AUX_F, CorrelationBreakdown, check_overlap, expand, overlap_mask
from .errors import InvalidParameter
from .geometry import (
    FLAT_CONE,
    Alignment,
    ConeParameter,
    FArguments,
    NU_MAX,
    PairConfig,
    breaks_opposite_sides_rule,
    check_alignment,
    check_cone,
    check_gap,
    check_length,
    f_arguments,
    image_set,
    pair_f_arguments,
    radial_distances,
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
from .special import SQRT_PI, TINY, faddeeva_w

MAX_SWEEP_POINTS = 100_000


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence with the provenance of each part (per lambda^2)."""

    abs_x: float
    geo_mean_p: float
    concurrence: float
    response_a: ResponseBreakdown
    response_b: ResponseBreakdown
    correlation: CorrelationBreakdown


def _radii(alignment: Alignment, l, d):
    """(rho_A,), or (rho_A, rho_B) unless rho_B = rho_A: the distances whose responses a pair expands."""
    rho_a, rho_b = radial_distances(alignment, l, d)
    # a scalar beside an array (a d_max scan's fixed l beside l + d) is not the same
    array = getattr(rho_a, "ndim", 0) or getattr(rho_b, "ndim", 0)
    same = np.array_equal(rho_a, rho_b) if array else rho_a == rho_b
    return (rho_a,) if same else (rho_a, rho_b)


def response_pair(config: PairConfig, cone: ConeParameter, tol: float = DEFAULT_TOL):
    """(ResponseBreakdown_A, ResponseBreakdown_B) for any alignment, each expanded on its own.

    A boundary's subtracted image sits in p_images, flat has none, and B is
    A's breakdown itself where their radial distances agree.  Each is
    response.image_response's, as a d sweep's P(l) is.
    """
    seen, terms = image_set(config.alignment, cone)
    pair = [image_response(rho, seen, terms, config.gap, tol)
            for rho in _radii(config.alignment, config.l, config.d)]
    return pair[0], pair[-1]


def _evaluate(alignment: Alignment, cone: ConeParameter, l, d, gap: float, tol: float,
              geo: FArguments, response_a: Optional[ResponseBreakdown] = None):
    """(response_a, response_b, correlation) from one correlation.expand call.

    ``l``, ``d`` are scalars or arrays of validated points (a scan's l may
    stay a scalar beside an array d) and ``geo`` their pair_f_arguments.  The
    parts are P at each of _radii (A's breakdown reused where rho_B = rho_A)
    and X's, so their zeta integrals share one adaptive subdivision, each row
    within ``tol``.  A scalar radial distance gives its P as one point,
    however many points X has.  A given ``response_a`` (a d sweep's P at its
    fixed l, expanded once for all its rows) is taken as it is, not expanded
    again.  The caller applied the overlap rule (check_overlap, or
    overlap_mask), so ``geo`` is overlap-free.
    """
    seen, terms = image_set(alignment, cone)
    radii = _radii(alignment, l, d)
    parts = [] if response_a is not None else [response_part(radii[0], seen, terms)]
    if len(radii) == 2:
        parts.append(response_part(radii[1], seen, terms))
    parts.append((AUX_F, geo))
    expansions = expand(parts, gap, tol)
    if response_a is None:
        response_a = response_breakdown(expansions[0], gap)
    response_b = response_a if len(radii) == 1 else response_breakdown(expansions[-2], gap)
    return response_a, response_b, CorrelationBreakdown(*expansions[-1])


def _observables(response_a, response_b, correlation: CorrelationBreakdown):
    """(|X|, sqrt(P_A P_B)) of an _evaluate result, NumPy floats or arrays."""
    x = correlation.total
    p_a, p_b = response_a.total, response_b.total
    product = p_a * p_b
    geo_mean = np.sqrt(product)
    # below the smallest normal double the product loses digits (from about
    # 1e-324 all of them) while each P is normal, as from gap ~ 18.6: there
    # the roots are taken apart, and everywhere else sqrt(P_A P_B) keeps its bits
    if not getattr(product, "ndim", 0):
        if product < TINY:
            geo_mean = np.sqrt(p_a) * np.sqrt(p_b)
    elif product.min() < TINY:
        geo_mean = np.where(product < TINY, np.sqrt(p_a) * np.sqrt(p_b), geo_mean)
    # np.hypot is the libm hypot behind Python's abs(complex); np.abs on a
    # complex array may take a SIMD path that differs in the last bit
    return np.hypot(x.real, x.imag), geo_mean


def _margin(alignment: Alignment, cone: ConeParameter, l, d, gap: float, tol: float,
            geo: Optional[FArguments] = None):
    """Every search's margin |X| - sqrt(P_A P_B); geo is a masked scan's, else l, d's, checked."""
    if geo is None:
        geo = pair_f_arguments(alignment, cone, l, d)
        check_overlap(geo.image_args)
    abs_x, geo_mean = _observables(*_evaluate(alignment, cone, l, d, gap, tol, geo))
    return abs_x - geo_mean


def concurrence(config: PairConfig, cone: ConeParameter, tol: float = DEFAULT_TOL) -> ConcurrenceResult:
    """Concurrence 2 max(0, |X| - sqrt(P_A P_B)) with full breakdowns.

    The zeta integrals of P_A, P_B and X run as one integral (``_evaluate``),
    so the breakdown parts agree with response_pair's and x_string's within
    ``tol``, not bit for bit.  Raises DivergentOverlap when a detector
    coincides with its partner or an image of it (check_overlap); a sweep
    flags such a row instead.
    """
    geo = f_arguments(config, cone)
    check_overlap(geo.image_args)
    resp_a, resp_b, corr = _evaluate(config.alignment, cone, config.l, config.d, config.gap,
                                     tol, geo)
    abs_x, geo_mean = _observables(resp_a, resp_b, corr)
    return ConcurrenceResult(abs_x=abs_x, geo_mean_p=geo_mean,
                             concurrence=2.0 * max(0.0, abs_x - geo_mean), response_a=resp_a,
                             response_b=resp_b, correlation=corr)


def concurrence_flat(d: float, gap: float) -> float:
    """Flat-spacetime concurrence closed form, per lambda^2.

    C0 = max{ (e^{-g^2}/2 sqrt(pi)) [ |w(-d/2)|/d + e^{g^2} g erfc(g)
              - 1/sqrt(pi) ], 0 }
    using e^{-d^2/4}|Erfc(id/2)| = |w(-d/2)| and e^{g^2} erfc(g) = erfcx(g)
    for overflow-free evaluation, so every accepted gap gives a finite value.
    Refuses the separations x_flat refuses: a d/2 overlap (check_overlap)
    as a divergence, a d that geometry.check_length refuses and a gap that
    geometry.check_gap refuses by name.
    """
    check_gap(gap)
    check_length("d", d, positive=True)
    check_overlap(pair_f_arguments(Alignment.FLAT, FLAT_CONE, 0.0, d).image_args)
    # e^{g^2} erfc(g) as erfcx(g): e^{g^2} alone overflows from g ~ 26.6
    bracket = abs(faddeeva_w(-d / 2.0)) / d + gap * erfcx(gap) - 1.0 / SQRT_PI
    return max(math.exp(-gap * gap) / (2.0 * SQRT_PI) * bracket, 0.0)


# --- d_max ------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DmaxResult:
    """Largest separation with positive concurrence; None when harvesting never occurs.

    ``skipped`` records scan points excluded for detector/image overlap.
    """

    value: Optional[float]
    skipped: Tuple[float, ...]


def _scan_margins(alignment: Alignment, cone: ConeParameter, l, d: np.ndarray,
                  gap: float, tol: float):
    """Margins |X| - sqrt(P_A P_B) along an array d in one array pass.

    ``l`` is a scalar (a d_max scan's fixed l) or an array of d's shape.
    Masks the points that overlap_mask flags, then runs _margin once on
    the remaining batch, so at non-integer nu one zeta integral (one row for
    each P of a scalar radial distance, else one per point, and X per point)
    serves the whole scan, its rows sharing one adaptive subdivision.  The
    caller validates the parameters.  Returns a float array with NaN at the
    masked points, and the masked points' d values as skipped.
    """
    geo = pair_f_arguments(alignment, cone, l, d)
    ok = ~overlap_mask(geo.image_args).any(axis=0)
    l_ok, d_ok = l[ok] if getattr(l, "ndim", 0) else l, d[ok]
    margins = np.full(d.shape, np.nan)
    if not ok.all():
        if not ok.any():
            return margins, d.tolist()
        geo = pair_f_arguments(alignment, cone, l_ok, d_ok)

    margins[ok] = _margin(alignment, cone, l_ok, d_ok, gap, tol, geo)
    return margins, d[~ok].tolist()


def _scan_crossing(alignment: Alignment, cone: ConeParameter, gap: float, at: Callable,
                   name: str, hi: float, start: Optional[float], grid_n: int, tol: float,
                   quad_tol: float):
    """(t of the last margin zero, skipped d) on the scan line (l, d) = at(t).

    t runs over grid_n points from ``start`` (None: hi/grid_n) to ``hi``, the
    bound named ``name``.  One array pass scans the line (_scan_margins),
    with l and d as ``at`` gives them: a fixed l stays a scalar, so P_A (and
    P_B where rho_B = l) is one point, not one copy per grid point.  Then
    Brent refines its last sign change from the scan's margins at the two
    bracket ends, running _margin inside the bracket only.  At integer nu
    those margins are the scalar ones bit for bit (no zeta integral runs), at
    non-integer nu within 1e-14.  No sign change gives hi if the last margin
    that is not NaN (masked) is positive, else None.  l and d never decrease
    along a line, so validating its two ends validates every point.
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
    margins, skipped = _scan_margins(alignment, cone, *at(grid), gap, quad_tol)

    last = find_last_sign_change(margins)
    if last is None:
        valid = margins[~np.isnan(margins)]
        root = float(grid[-1]) if valid.size and valid[-1] > 0.0 else None
    else:
        root = find_root_from_ends(lambda t: _margin(alignment, cone, *at(t), gap, quad_tol),
                                   Bracket(float(grid[last]), float(grid[last + 1])),
                                   float(margins[last]), float(margins[last + 1]), tol=tol)
    return root, tuple(skipped)


def d_max(alignment: Alignment, cone: ConeParameter, l: float, gap: float,
          d_hi: float = 8.0, grid_n: int = 512, tol: float = 1e-6,
          quad_tol: float = DEFAULT_TOL) -> DmaxResult:
    """Maximum harvesting-achievable separation at fixed l, nu, gap.

    Scans g(d) = |X| - sqrt(P_A P_B) from d = 2l (opposite sides) or
    d_hi/grid_n to d_hi, grid_n <= MAX_SWEEP_POINTS, with l held a scalar
    (so P at rho = l is evaluated once per scan, not once per grid point),
    and bisects the LAST sign change (d_max is the point beyond which
    harvesting cannot occur), starting Brent from the scan's margins at the
    bracket ends (_scan_crossing): the result is bit-identical to a scalar
    scan's at integer nu and depends on the batch margins, which agree with
    scalar ones to 1e-14, at non-integer nu.  Overlap-divergent scan points
    are skipped and reported.  Returns d_hi itself when the margin is still
    positive at the scan ceiling; None where every margin underflows to 0.0 (gap ~ 28).
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
    the smallest scanned l cannot harvest (every margin 0.0 from gap ~ 28),
    or when every symmetric point diverges (even integer nu).
    """
    return _scan_crossing(Alignment.ORTHOGONAL_OPPOSITE_SIDES, cone, gap, lambda l: (l, 2.0 * l),
                          "l_hi", l_hi, None, grid_n, tol, quad_tol)[0]


# --- nu scans ----------------------------------------------------------------


# nu_extremum's objectives: each maps the margin |X| - sqrt(P_A P_B) to the value minimized
NU_OBJECTIVES = {
    "response_correlation_gap": abs,
    "concurrence": lambda margin: -2.0 * max(0.0, margin),
}


def nu_extremum(objective: str, config: PairConfig, bracket: Bracket, tol: float = 1e-4,
                quad_tol: float = DEFAULT_TOL) -> float:
    """Extremal deficit-angle parameter per the objective selector, a NU_OBJECTIVES key.

    "response_correlation_gap" minimizes |sqrt(P_A P_B) - |X||, and
    "concurrence" maximizes the concurrence; any other selector raises
    InvalidParameter.  The bracket must contain a single extremum (verified
    post hoc by sampling; NotUnimodal otherwise).
    """
    if bracket.lo < 1.0 or bracket.hi > NU_MAX:
        raise InvalidParameter(f"nu bracket must lie within [1, {NU_MAX:g}]")
    transform = NU_OBJECTIVES.get(objective)
    if transform is None:
        raise InvalidParameter(f"unknown objective selector {objective!r}")

    def fn(nu):
        return transform(_margin(config.alignment, ConeParameter(nu), config.l, config.d,
                                 config.gap, quad_tol))

    return minimize_scalar(fn, bracket, tol=tol)


# --- sweeps -------------------------------------------------------------------


SWEEP_AXES = ("d", "l", "nu", "gap")


@dataclass(frozen=True, slots=True)
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
    nu: Optional[float]     # None on a nu axis
    fixed: dict
    rows: Tuple[SweepRow, ...]


def _row(axis: str, value: float, l: Optional[float], d: Optional[float],
         gap: Optional[float], d_over_l: Optional[float], cone: ConeParameter):
    """(l, d, gap, cone) of the sweep row at axis ``value``, checked.

    ``d_over_l`` couples d to an l axis, and an unset l is 0.  Raises
    InvalidParameter where l, d (> 0) or gap breaks its rule (check_length,
    check_gap), or nu ConeParameter's.
    """
    row = {"l": 0.0 if l is None else l, "d": d, "gap": gap, axis: value}
    if d_over_l is not None:
        row["d"] = d_over_l * value
    check_length("l", row["l"])
    check_length("d", row["d"], positive=True)
    check_gap(row["gap"])
    return row["l"], row["d"], row["gap"], ConeParameter(value) if axis == "nu" else cone


def _row_geometry(alignment: Alignment, l: float, d: float, cone: ConeParameter):
    """X's pair_f_arguments at a sweep row, or None where the row is flagged.

    A row is flagged at an overlap (overlap_mask) or off the opposite sides'
    d >= 2l > 0.
    """
    if breaks_opposite_sides_rule(alignment, l, d):
        return None
    geo = pair_f_arguments(alignment, cone, l, d)
    return None if overlap_mask(geo.image_args).any() else geo


def _sweep_row(alignment: Alignment, value: float, l: float, d: float, gap: float,
               cone: ConeParameter, tol: float, geo: Optional[FArguments],
               response_l: Optional[ResponseBreakdown]) -> SweepRow:
    """One _evaluate call (given a d sweep's P(l)), or a flagged row where geo is None."""
    if geo is None:
        return SweepRow(param=value, p_a=None, p_b=None, abs_x=None, concurrence=None,
                        diverged=True)
    p_a, p_b, x = _evaluate(alignment, cone, l, d, gap, tol, geo, response_l)
    abs_x, geo_mean = _observables(p_a, p_b, x)
    return SweepRow(value, p_a.total, p_b.total, abs_x, 2.0 * max(0.0, abs_x - geo_mean),
                    diverged=False)


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
    QuadratureFailure is raised.  An alignment that is not an Alignment, a
    cone that is not a ConeParameter, a bad ``tol``, and a fixed parameter,
    axis value or coupled d that breaks its parameter's rule (l, d, gap and
    nu: _row; d_over_l finite and > 0), raise InvalidParameter before any row.
    On a d axis with two or more unflagged rows, P at the fixed l (P_A on
    every row, and P_B where rho_B = l) is expanded once for the sweep and
    equals p_string's bit for bit; each row hands only its own parts, X and
    any P_B at rho_B != l, to one _evaluate call.  The l, nu and gap axes,
    where no radial distance repeats, run every row as one concurrence, bit
    for bit.  ``threads`` is accepted for compatibility and has no effect.
    """
    check_alignment(alignment)
    check_cone(cone)
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
    if d_over_l is not None and not (math.isfinite(d_over_l) and d_over_l > 0.0):
        raise InvalidParameter(f"d_over_l must be finite and > 0, got {d_over_l!r}")
    if not all(math.isfinite(v) for v in values):
        raise InvalidParameter(f"{axis} axis values must be finite")
    inputs = [_row(axis, v, l, d, gap, d_over_l, cone) for v in values]
    geos = [_row_geometry(alignment, row_l, row_d, row_cone)
            for row_l, row_d, _, row_cone in inputs]
    response_l = None
    if axis == "d" and sum(geo is not None for geo in geos) > 1:
        row_l, _, _, _ = inputs[0]
        response_l = image_response(row_l, *image_set(alignment, cone), gap, tol)
    rows = tuple(_sweep_row(alignment, v, *row, tol, geo, response_l)
                 for v, row, geo in zip(values, inputs, geos))
    return SweepTable(axis=axis, alignment=alignment, nu=None if axis == "nu" else cone.nu,
                      fixed=fixed, rows=rows)
