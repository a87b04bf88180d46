"""Adaptive quadrature, principal-value integration, and bracketed root/extremum search.

The workhorse is a vectorized Gauss-Kronrod 15(7) rule with worst-interval-first
subdivision.  Semi-infinite integrals are truncated at a point where the
caller-supplied exponential tail bound drops below tol/10.  Principal-value
integrals use pole-symmetric subtraction inside a finite excision window plus
an exact log term, with the power-law far tail mapped to a finite interval by
u -> 1/u.  Every integrator takes a components axis: an integrand returning
(k, n) instead of (n,) integrates k functions on one shared subdivision, which
is how a batch of points (a scan axis, an oracle panel's nodes) costs one
adaptive pass instead of k.
"""

import heapq
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidParameter, NoSignChange, NotUnimodal, PolesTooClose, ToleranceNotMet

# Gauss-Kronrod 15-point nodes/weights (positive half) and the embedded
# 7-point Gauss weights; standard QUADPACK values.
_XGK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG_HALF = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_XGK = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])          # 15 ascending nodes
_WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1:-1:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])      # Gauss nodes sit at odd slots

DEFAULT_TOL = 1e-10
DEFAULT_PV_TOL = 1e-8
_MAX_INTERVALS = 4096
_MIN_WIDTH_FACTOR = 1e-14


@dataclass(frozen=True)
class QuadratureResult:
    """Value and error estimate: floats for one integrand, length-k arrays for a
    components axis of k integrands sharing one subdivision."""

    value: Union[float, np.ndarray]
    error_estimate: Union[float, np.ndarray]
    evaluations: int


@dataclass(frozen=True)
class Bracket:
    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.lo < self.hi):
            raise InvalidParameter(f"bracket must satisfy lo < hi, got [{self.lo}, {self.hi}]")


def _gk15(f, a, b):
    """One GK15 panel; f maps a node array to shape (..., 15).  Returns (val, err)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = np.atleast_2d(np.asarray(f(mid + half * _XGK), dtype=float))
    if not np.all(np.isfinite(y)):
        raise InvalidParameter(f"integrand returned non-finite values on [{a}, {b}]")
    kron = half * y @ _WGK
    gauss = half * y @ _WG
    return kron, np.abs(kron - gauss)


def integrate_adaptive(f, lo, hi, tol, breakpoints=(), max_intervals=_MAX_INTERVALS):
    """Adaptive GK15 on [lo, hi] with forced initial breakpoints.

    ``f`` maps a node array to an array of shape (15,) for scalar integrands or
    (components, 15) for several real components sharing subdivision points
    (how complex-valued integrals are done: one pass, per-component errors).
    Returns (values, errors, evaluations) with the leading axis of size
    ``components``.  Raises ToleranceNotMet when the interval budget runs out
    with max-component error still above tol.
    """
    edges = [lo] + sorted(float(b) for b in breakpoints if lo < b < hi) + [hi]
    heap = []
    count = 0
    evals = 0
    for a, b in zip(edges[:-1], edges[1:]):
        val, err = _gk15(f, a, b)
        evals += 15
        heapq.heappush(heap, (-float(err.max()), count, a, b, val, err))
        count += 1

    min_width = _MIN_WIDTH_FACTOR * (abs(lo) + abs(hi) + 1.0)
    while True:
        total_err = np.sum([item[5] for item in heap], axis=0)
        if float(total_err.max()) <= tol:
            break
        if len(heap) >= max_intervals or -heap[0][0] == 0.0:
            value = np.sum([item[4] for item in heap], axis=0)
            raise ToleranceNotMet(value, float(total_err.max()), tol, evals)
        _, _, a, b, val, err = heapq.heappop(heap)
        if b - a < min_width:
            # Cannot subdivide further; push back with zero priority so the
            # budget check above terminates the loop.
            heapq.heappush(heap, (0.0, count, a, b, val, err))
            count += 1
            continue
        mid = 0.5 * (a + b)
        for aa, bb in ((a, mid), (mid, b)):
            val, err = _gk15(f, aa, bb)
            evals += 15
            heapq.heappush(heap, (-float(err.max()), count, aa, bb, val, err))
            count += 1

    values = np.sum([item[4] for item in heap], axis=0)
    errors = np.sum([item[5] for item in heap], axis=0)
    return values, errors, evals


def tail_cutoff(tail_rate, tol):
    """Truncation point with analytic tail bound e^{-rate*z}/rate < tol/10."""
    return (np.log(1.0 / tol) + 5.0) / tail_rate


def integrate_semi_infinite(integrand, tail_rate, tol=DEFAULT_TOL, breakpoints=()):
    """Integrate a bounded integrand decaying at least like e^{-tail_rate*z} over [0, inf).

    The domain is truncated at z_max = (ln(1/tol) + 5)/tail_rate, where the
    analytic tail bound is below tol/10, then subdivided adaptively.
    ``breakpoints`` force initial subdivision (sharp features near z = 0).
    An integrand returning (n,) gives a float value and error; one returning
    (k, n) gives length-k arrays, all k integrals sharing one subdivision.
    """
    if tail_rate <= 0:
        raise InvalidParameter("tail_rate must be > 0")
    check_tolerance(tol, "quadrature")
    zmax = tail_cutoff(tail_rate, tol)
    one_row = []

    def rows(z):
        y = integrand(z)
        if not one_row:
            one_row.append(np.ndim(y) == 1)
        return y

    vals, errs, evals = integrate_adaptive(rows, 0.0, zmax, tol, breakpoints=breakpoints)
    if one_row[0]:
        return QuadratureResult(float(vals[0]), float(errs[0]), evals)
    return QuadratureResult(vals, errs, evals)


def integrate_semi_infinite_complex(integrand, tail_rate, tol=DEFAULT_TOL, breakpoints=()):
    """Complex variant: real and imaginary parts integrated on one adaptive subdivision.

    ``integrand`` maps a node array to a complex array; returns
    (complex value, (err_re, err_im), evals).  An integrand returning (k, n)
    gives a length-k complex array and length-k error arrays instead, all 2k
    real integrals sharing the subdivision.
    """
    if tail_rate <= 0:
        raise InvalidParameter("tail_rate must be > 0")
    check_tolerance(tol, "quadrature")
    zmax = tail_cutoff(tail_rate, tol)
    one_row = []

    def two_rows(z):
        w = np.asarray(integrand(z), dtype=complex)
        if not one_row:
            one_row.append(w.ndim == 1)
        # real parts of every component first, then the imaginary parts
        return np.stack([w.real, w.imag]).reshape(-1, w.shape[-1])

    vals, errs, evals = integrate_adaptive(two_rows, 0.0, zmax, tol, breakpoints=breakpoints)
    if one_row[0]:
        return complex(vals[0], vals[1]), (float(errs[0]), float(errs[1])), evals
    k = vals.size // 2
    return vals[:k] + 1j * vals[k:], (errs[:k], errs[k:]), evals


# --- principal value -------------------------------------------------------

SEMI_INFINITE = "semi-infinite"
REAL_LINE = "real-line"

_POLE_SEP_FLOOR = 1e-6


def _excision_widths(poles, lo_edge):
    widths = []
    for i, c in enumerate(poles):
        w = min(c / 2.0, 1.0)
        if lo_edge is not None:
            w = min(w, (c - lo_edge) / 2.0)
        for j, other in enumerate(poles):
            if j != i:
                w = min(w, abs(c - other) / 12.0)
        widths.append(w)
    return widths


def integrate_pv(numerator, poles, domain=SEMI_INFINITE, tol=DEFAULT_PV_TOL, weights=None):
    """PV integral of numerator(s) * sum_j q_j / (s^2 - c_j^2) over the domain.

    ``numerator`` maps a node array of shape (n,) to (n,) for one integral or
    to (k, n) for k numerators sharing the poles (a components axis): all k
    integrals then run on one adaptive subdivision, the error test applies to
    the worst component, and the result's value and error are length-k arrays
    instead of floats.

    Each simple pole pair +-c_j is handled by pole-symmetric subtraction inside
    a window [c-w, c+w]: the smooth remainder (n(s) - n(c)) q/(s^2 - c^2) is
    integrated adaptively and the singular part contributes the exact
    n(c) q/(2c) ln[(2c-w)/(2c+w)].  Outside all windows the full integrand is
    smooth.  Over the semi-infinite / full-line domains the far tail is mapped
    to a finite interval by u -> 1/u, so constant numerators are handled
    exactly (PV int ds/(s^2-c^2) = 0 there).

    ``domain`` is "semi-infinite" ([0, inf)), "real-line" (the even part of the
    numerator is folded onto [0, inf)), or a Bracket with 0 <= lo.  Poles must
    lie strictly inside the domain and be pairwise separated by at least ten
    excision widths (PolesTooClose otherwise).
    """
    poles = [float(c) for c in poles]
    if not poles:
        raise InvalidParameter("at least one pole is required")
    if any(c <= 0 for c in poles):
        raise InvalidParameter("poles must be strictly positive")
    if weights is None:
        weights = [1.0] * len(poles)
    if len(weights) != len(poles):
        raise InvalidParameter("weights must match poles")
    order = np.argsort(poles)
    poles = [poles[i] for i in order]
    weights = [float(weights[i]) for i in order]

    if isinstance(domain, Bracket):
        lo, hi = domain.lo, domain.hi
        if lo < 0:
            raise InvalidParameter("bracket domains must lie in [0, inf)")
        fold = 1.0
        n_func = numerator
    elif domain == SEMI_INFINITE:
        lo, hi = 0.0, None
        fold = 1.0
        n_func = numerator
    elif domain == REAL_LINE:
        lo, hi = 0.0, None
        fold = 2.0

        def n_func(s):
            return 0.5 * (np.asarray(numerator(s)) + np.asarray(numerator(-s)))
    else:
        raise InvalidParameter(f"unknown domain {domain!r}")

    if hi is not None and (poles[0] <= lo or poles[-1] >= hi):
        raise InvalidParameter("poles must lie strictly inside the domain")

    for a, b in zip(poles[:-1], poles[1:]):
        if b - a < _POLE_SEP_FLOOR * (1.0 + poles[-1]):
            raise PolesTooClose(f"poles {a} and {b} closer than the excision floor")
    widths = _excision_widths(poles, lo if lo > 0 else None)
    if any(w <= 0 or not np.isfinite(w) for w in widths):
        raise PolesTooClose("no usable excision window for at least one pole")
    for (c, w) in zip(poles, widths):
        for other in poles:
            if other != c and abs(other - c) <= 10.0 * w:
                raise PolesTooClose(f"poles {c} and {other} within ten excision widths")

    def rational(s, skip=None):
        s = np.asarray(s, dtype=float)
        total = np.zeros_like(s)
        for j, (c, q) in enumerate(zip(poles, weights)):
            if j == skip:
                continue
            total += q / (s * s - c * c)
        return total

    pieces = []           # (callable, lo, hi, forced breakpoints)
    analytic = 0.0

    # Smooth segments between excision windows.
    edges = [lo]
    for c, w in zip(poles, widths):
        edges.extend([c - w, c + w])
    if hi is None:
        far_lo = 2.0 * poles[-1] + 4.0
        edges.append(far_lo)
    else:
        edges.append(hi)
    for a, b in zip(edges[0::2], edges[1::2]):
        if b - a > 1e-15:
            pieces.append((lambda s, _a=a: n_func(s) * rational(s), a, b, ()))

    # Excision windows: subtracted pole + remaining regular poles + exact log.
    # The window is split at the pole so no quadrature node lands on the
    # removable 0/0 of the subtracted integrand.
    for j, (c, w, q) in enumerate(zip(poles, widths, weights)):
        n_c = np.asarray(n_func(np.array([c])), dtype=float)[..., 0]

        def window(s, _j=j, _c=c, _nc=n_c[..., None], _q=q):
            s = np.asarray(s, dtype=float)
            sub = (np.asarray(n_func(s)) - _nc) * _q / (s * s - _c * _c)
            return sub + np.asarray(n_func(s)) * rational(s, skip=_j)

        pieces.append((window, c - w, c + w, (c,)))
        analytic += q * n_c / (2.0 * c) * np.log((2.0 * c - w) / (2.0 * c + w))
    components = n_c.shape      # () for one numerator, (k,) for a components axis

    # Far tail via inversion u -> 1/u (exact for constant numerators).
    if hi is None:
        def far(v):
            v = np.asarray(v, dtype=float)
            out = np.zeros(components + v.shape)
            pos = v > 0
            if np.any(pos):
                s = 1.0 / v[pos]
                total = np.zeros_like(s)
                for c, q in zip(poles, weights):
                    total += q / (1.0 - (c * v[pos]) ** 2)
                out[..., pos] = np.asarray(n_func(s)) * total
            return out

        pieces.append((far, 0.0, 1.0 / far_lo, ()))

    tol_piece = tol / len(pieces)
    value = analytic
    err = 0.0
    evals = 0
    for func, a, b, forced in pieces:
        vals, errs, n = integrate_adaptive(func, a, b, tol_piece, breakpoints=forced)
        value = value + vals
        err = err + errs
        evals += n
    if not components:
        value, err = float(value[0]), float(err[0])
    return QuadratureResult(fold * value, fold * err, evals)


# --- root finding and minimization ----------------------------------------


_BRENT_RTOL = 8.881784197001252e-16   # 4 * machine epsilon, SciPy's floor for rtol
_BRENT_MAXITER = 100


def _brentq(f, xpre, xcur, fpre, fcur, xtol):
    """Brent's root search (Brent 1973, ch. 4) on a bracket whose end values are known.

    A line-for-line port of SciPy's ``brentq`` C routine, so it returns the
    same abscissa bit for bit; it takes f(xpre) and f(xcur) instead of
    evaluating them again.  The caller has checked that they straddle zero.
    """
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)               # interpolate
            else:
                dpre = (fpre - fcur) / (xpre - xcur)                      # extrapolate
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry                                     # good short step
            else:
                spre = scur = sbis                                          # bisect
        else:
            spre = scur = sbis                                              # bisect

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if math.isnan(fcur):
            raise InvalidParameter(f"root objective is NaN at {xcur!r}")
    raise ToleranceNotMet(xcur, abs(xblk - xcur), xtol, _BRENT_MAXITER + 2)


def check_tolerance(tol, kind):
    """Raise InvalidParameter unless a ``kind`` ("root", "quadrature") tolerance is finite and > 0."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidParameter(f"{kind} tolerance tol must be finite and > 0, got {tol!r}")


def find_root_bracketed(objective, bracket, tol=1e-12):
    """Root of a continuous objective inside a sign-changing bracket (Brent).

    Raises InvalidParameter unless tol is finite and > 0, and NoSignChange
    when the endpoints do not straddle zero.
    """
    check_tolerance(tol, "root")
    if not isinstance(bracket, Bracket):
        bracket = Bracket(*bracket)
    f_lo = objective(bracket.lo)
    f_hi = objective(bracket.hi)
    if f_lo == 0.0:
        return bracket.lo
    if f_hi == 0.0:
        return bracket.hi
    if not (f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo):
        raise NoSignChange(f"objective has the same sign at both ends of [{bracket.lo}, {bracket.hi}]")
    return float(_brentq(objective, bracket.lo, bracket.hi, f_lo, f_hi, xtol=tol))


def find_last_sign_change(values, grid):
    """Index i of the last adjacent pair (i, i+1) with a sign change; None if none.

    Entries that are None (skipped points) never participate in a pair.
    """
    n = len(grid)
    present = np.array([v is not None for v in values[:n]], dtype=bool)
    v = np.array([0.0 if v is None else v for v in values[:n]], dtype=float)
    a, b = v[:-1], v[1:]
    change = present[:-1] & present[1:] & ((a == 0.0) | (np.sign(a) != np.sign(b)))
    hits = np.flatnonzero(change)
    return int(hits[-1]) if hits.size else None


def minimize_scalar(objective, bracket, tol=1e-8, unimodality_samples=33):
    """Abscissa of the minimum of a unimodal objective on a bracket.

    Bounded Brent search, then a post-hoc sampling check: if the sampled curve
    shows a second distinct local minimum the unimodality precondition was
    violated and NotUnimodal is raised.
    """
    # imported here, not at module level: scipy.optimize adds ~23 MB of memory
    # and ~0.15 s to every import of the CLI, and nothing else needs it
    from scipy.optimize import minimize_scalar as _minimize_scalar

    if not isinstance(bracket, Bracket):
        bracket = Bracket(*bracket)
    res = _minimize_scalar(objective, bounds=(bracket.lo, bracket.hi), method="bounded",
                           options={"xatol": tol})
    xs = np.linspace(bracket.lo, bracket.hi, unimodality_samples)
    ys = np.array([objective(x) for x in xs])
    band = 1e-9 * (ys.max() - ys.min() + 1e-300)
    minima = 0
    for i in range(1, len(ys) - 1):
        if ys[i] < ys[i - 1] - band and ys[i] < ys[i + 1] - band:
            minima += 1
    if minima > 1:
        raise NotUnimodal(f"{minima} distinct local minima sampled in [{bracket.lo}, {bracket.hi}]")
    return float(res.x)
