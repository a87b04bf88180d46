"""Adaptive quadrature, principal-value integration, and bracketed root/extremum search.

The workhorse is a vectorized Gauss-Kronrod 15(7) rule (QUADPACK's error
estimate, Piessens et al. 1983) refined breadth-first: each pass splits every
panel whose error is above its share of the tolerance and evaluates all the
children in one integrand call, so the Python cost scales with the number of
passes, not of panels.  Semi-infinite integrals are truncated at a point where
the caller-supplied exponential tail bound drops below tol/10 and start on
geometric panels that halve toward 0 down to one decay length, so an
exponentially decaying integrand needs one or two passes.
integrate_adaptive and integrate_semi_infinite take a components axis: an
integrand returning (k, n) instead of (n,) integrates k functions on one
shared subdivision, which is how a batch of points (a scan axis, the new
nodes of an oracle's outer pass) costs one adaptive integral instead of k.
A principal-value integral over [0, inf) rescales its pole to t = 1 and uses
pole-symmetric subtraction inside one excision window about it plus an exact
log term, with the power-law far tail mapped to a finite interval by t -> 1/t;
integrate_pv takes an array of poles as such a components axis, one row per
pole, so each pole's integral meets ``tol`` and all of them cost one adaptive
integral.  Every integrator returns a ``QuadratureResult``.  Every integrand
is real: a complex one raises InvalidParameter rather than lose its imaginary
part, and a caller with a complex integrand stacks its real and imaginary
parts as rows.
Brent's root search needs only the two end values of its bracket:
``find_root_from_ends`` takes them from a caller that already holds them, as
the d_max scan does, so such a root depends on the caller's end values, and
``find_root_bracketed`` evaluates them first.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import (InvalidParameter, NoSignChange, NotUnimodal, QuadratureFailure,
                     ToleranceNotMet)

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


class QuadratureResult(NamedTuple):
    """Value, error estimate and integrand evaluations (node count) of one integration.

    ``integrate_adaptive`` and ``integrate_semi_infinite`` give length-k
    arrays (one per component row, k = 1 for one integrand); ``integrate_pv``
    gives floats for a scalar pole and length-p arrays for p poles.  It
    unpacks as
    ``value, error_estimate, evaluations``.
    """

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


def _real(y, a, b):
    """``y`` as a float array; InvalidParameter for complex values, which a cast would drop."""
    y = np.asarray(y)
    if y.dtype.kind == "c":
        raise InvalidParameter(f"integrand returned complex values on [{a}, {b}]; "
                               "integrate the real and imaginary parts as rows")
    return np.asarray(y, dtype=float)


def _gk15(f, a, b):
    """GK15 on every panel [a_i, b_i] with one call of f on all their nodes.

    ``a`` and ``b`` are arrays of p panel ends; f maps the 15 p nodes (a flat
    array, panel by panel) to shape (15 p,) or (k, 15 p).  Returns the
    Kronrod values and the |Kronrod - Gauss| errors, both of shape (k, p);
    raises QuadratureFailure naming the first panel with a non-finite value.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = _real(f((mid[:, None] + half[:, None] * _XGK).ravel()), a[0], b[-1])
    y = y.reshape(-1, a.size, 15)
    finite = np.isfinite(y).all(axis=(0, 2))
    if not finite.all():
        i = int(np.argmin(finite))
        raise QuadratureFailure(f"integrand returned non-finite values on [{a[i]}, {b[i]}]")
    kron = (half[:, None] * y) @ _WGK
    gauss = (half[:, None] * y) @ _WG
    return kron, np.abs(kron - gauss)


def integrate_adaptive(f, lo, hi, tol, breakpoints=(), max_intervals=_MAX_INTERVALS):
    """Adaptive GK15 on [lo, hi] with forced initial breakpoints, refined in passes.

    ``f`` maps a 1-D node array of length n to a real array of shape (n,) for
    a scalar integrand or (components, n) for several real components sharing
    subdivision points.  Every pass makes one call of ``f``: the first on the
    nodes of all panels between the breakpoints (those inside (lo, hi), each
    once), each later one on the children of every panel whose
    worst-component error exceeds tol / (panel count), a set that always
    holds the worst panel wider than the minimum width.  The loop stops when each component's summed error is at most
    ``tol``, the same test as a worst-panel-first loop.  Returns a QuadratureResult
    whose value and error are arrays with the leading axis of size
    ``components``; ``evaluations`` counts the nodes.

    Raises InvalidParameter for a tolerance that is not finite and > 0 and for
    complex integrand values, QuadratureFailure for non-finite ones (a
    numerical failure, not a bad input), and ToleranceNotMet when the
    tolerance is still unmet once ``max_intervals`` panels are held (a pass
    that would go past it splits only the worst panels that fit) or no panel
    is left that is wider than the minimum width.
    """
    check_tolerance(tol, "quadrature")
    edges = np.array([lo] + sorted({float(b) for b in breakpoints if lo < b < hi}) + [hi],
                     dtype=float)
    a, b = edges[:-1], edges[1:]
    val, err = _gk15(f, a, b)
    evals = 15 * a.size
    min_width = _MIN_WIDTH_FACTOR * (abs(lo) + abs(hi) + 1.0)
    while True:
        total_err = err.sum(axis=1)
        if float(total_err.max()) <= tol:
            return QuadratureResult(val.sum(axis=1), total_err, evals)
        # worst-component error of every panel that may still be split
        worst = np.where(b - a >= min_width, err.max(axis=0), 0.0)
        room = max_intervals - a.size
        if room <= 0 or worst.max() == 0.0:
            raise ToleranceNotMet(val.sum(axis=1), float(total_err.max()), tol, evals)
        split = np.flatnonzero(worst > tol / a.size)
        if split.size == 0:
            split = np.array([np.argmax(worst)])
        elif split.size > room:
            split = split[np.argsort(-worst[split], kind="stable")[:room]]
        keep = np.ones(a.size, dtype=bool)
        keep[split] = False
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate([a[split], mid])
        new_b = np.concatenate([mid, b[split]])
        new_val, new_err = _gk15(f, new_a, new_b)
        evals += 15 * new_a.size
        a = np.concatenate([a[keep], new_a])
        b = np.concatenate([b[keep], new_b])
        val = np.concatenate([val[:, keep], new_val], axis=1)
        err = np.concatenate([err[:, keep], new_err], axis=1)


def tail_cutoff(tail_rate, tol):
    """Truncation point with analytic tail bound e^{-rate*z}/rate < tol/10."""
    return (np.log(1.0 / tol) + 5.0) / tail_rate


def tail_edges(tail_rate, tol, breakpoints=()):
    """Initial interior panel edges of integrate_semi_infinite on [0, tail_cutoff].

    The geometric edges z_max 2^-k, k = 1, 2, ..., down to the first one at
    or below one decay length 1/tail_rate (five at tol 1e-10, where
    tail_rate z_max = 28), merged with ``breakpoints``: sorted, without
    duplicates.  Powers of two are exact, so these are the edges that
    bisecting [0, z_max] toward 0 would reach, without the passes.  Raises
    InvalidParameter when z_max overflows (a tol whose 1/tol does).
    """
    edge = tail_cutoff(tail_rate, tol)
    if not math.isfinite(edge):
        raise InvalidParameter(f"truncation point of tail_rate={tail_rate!r}, tol={tol!r} "
                               "is not finite")
    edges = {float(b) for b in breakpoints}
    while edge > 1.0 / tail_rate:
        edge *= 0.5
        edges.add(edge)
    return tuple(sorted(edges))


def integrate_semi_infinite(integrand, tail_rate, tol=DEFAULT_TOL, breakpoints=()):
    """Integrate a bounded real integrand decaying at least like e^{-tail_rate*z} over [0, inf).

    The domain is truncated at z_max = (ln(1/tol) + 5)/tail_rate, where the
    analytic tail bound is below tol/10, and integrate_adaptive runs on
    [0, z_max] from the panels between tail_edges: z_max 2^-k down to one
    decay length 1/tail_rate, where the integrand still varies, and
    ``breakpoints`` (sharp features near z = 0).  The integrand and the
    result are integrate_adaptive's: (n,) or (k, n) real values, and
    length-k value and error arrays.  A complex integrand raises
    InvalidParameter; stack its real and imaginary parts as rows instead.
    """
    if not (math.isfinite(tail_rate) and tail_rate > 0):
        raise InvalidParameter(f"tail_rate must be finite and > 0, got {tail_rate!r}")
    check_tolerance(tol, "quadrature")
    return integrate_adaptive(integrand, 0.0, tail_cutoff(tail_rate, tol), tol,
                              breakpoints=tail_edges(tail_rate, tol, breakpoints))


# An alias of integrate_semi_infinite, which now integrates real rows only.
# The name stays only because the benchmark's tracer (perfbench/tracing.py:
# LAYERS, INTEGRALS, _evaluations) looks it up; the tracer changes only with
# the benchmark, not with the library.
integrate_semi_infinite_complex = integrate_semi_infinite


# --- principal value -------------------------------------------------------

# Smallest accepted pole: rounding in the subtracted numerator grows like 1/c.
# Against mpmath, PV int_0^inf cos(g s) e^{-s^2/4}/(s^2 - c^2) ds (g = 0, 1.5)
# is off by 1.5e-10 to 2.9e-10 at c = 1e-6, by at most 4.6e-12 at c = 1e-5.
_POLE_FLOOR = 1e-5
# the exact part of the excision window [1/2, 3/2] about t = 1:
# PV int_{1/2}^{3/2} dt/(t^2 - 1) = ln(3/5)/2
_WINDOW_LOG = 0.5 * np.log((2.0 - 0.5) / (2.0 + 0.5))
_FAR_LO = 6.0


def integrate_pv(numerator, poles, tol=DEFAULT_PV_TOL):
    """PV int_0^inf numerator(s)/(s^2 - c^2) ds for every pole c, in one adaptive integral.

    ``poles`` is a scalar or a 1-D array of p poles, and the value and error
    are floats or length-p arrays to match.  ``numerator`` maps a node array
    of shape (n,) to real values of shape (n,); a complex numerator raises
    InvalidParameter.

    s = c t puts the pole at t = 1: each integral is PV int_0^inf
    g_c(t)/(t^2 - 1) dt with g_c(t) = n(c t)/c, and the rows g_c are the
    components of one integrate_adaptive call, so one numerator call on the
    points c t of every pole serves all of them.  Inside the window
    [1/2, 3/2] g_c(1) is subtracted and added back exactly as
    g_c(1) ln(3/5)/2; beyond t = 6 the tail is mapped by t = 1/v onto
    [0, 1/6].  The numerator runs once at the poles and once per pass, ``tol``
    bounds each pole's integral, and ``evaluations`` counts the numerator's
    points in the passes (poles x nodes).  Poles may crowd or coincide; each
    must be finite and at least _POLE_FLOOR = 1e-5, below which rounding
    outgrows a tol of 1e-10 (InvalidParameter, as for a 2-D or empty
    ``poles``).  ``tol`` must be finite and > 0.
    """
    check_tolerance(tol, "quadrature")
    scalar = np.ndim(poles) == 0
    c = np.array(poles, dtype=float, ndmin=1)
    if c.ndim != 1 or c.size == 0:
        raise InvalidParameter(f"poles must be a scalar or a non-empty 1-D array, got {poles!r}")
    if not all(math.isfinite(x) and x >= _POLE_FLOOR for x in c):
        raise InvalidParameter(f"poles must be finite and normal, at least {_POLE_FLOOR:g} "
                               f"(integrate_pv's accuracy floor), got {c.tolist()}")

    def g(t):
        s = np.multiply.outer(c, t).ravel()
        return _real(numerator(s), s.min(), s.max()).reshape(c.size, t.size) / c[:, None]

    g_1 = g(np.ones(1))
    hi = _FAR_LO + 1.0 / _FAR_LO

    def integrand(x):
        far = x > _FAR_LO
        v = np.where(far, hi - x, 0.0)          # v = 1/t on the mapped tail
        tail = v > 0.0                          # rounding can put a tail node on v = 0
        t = x.copy()
        t[tail] = 1.0 / v[tail]
        # t^2 - 1 before the tail, (t^2 - 1) v^2 = 1 - v^2 on it
        rational = 1.0 / np.where(far, 1.0 - v ** 2, x * x - 1.0)
        total = (g(t) - np.where(np.abs(x - 1.0) < 0.5, g_1, 0.0)) * rational
        return np.where(far & ~tail, 0.0, total)

    # the breakpoint at t = 1 keeps every node off the removable 0/0 there
    value, err, evals = integrate_adaptive(integrand, 0.0, hi, tol,
                                           breakpoints=(0.5, 1.0, 1.5, _FAR_LO))
    value = value + g_1[:, 0] * _WINDOW_LOG
    if scalar:
        value, err = float(value[0]), float(err[0])
    return QuadratureResult(value, err, evals * c.size)


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
                denom = dblk * dpre * (fblk - fpre)   # 0: C's inf/NaN step fails, so bisect
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
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

    Evaluates the objective at both ends, then refines as find_root_from_ends.
    Raises InvalidParameter unless tol is finite and > 0, and NoSignChange
    when the endpoints do not straddle zero.
    """
    check_tolerance(tol, "root")
    return find_root_from_ends(objective, bracket, objective(bracket.lo), objective(bracket.hi),
                               tol=tol)


def find_root_from_ends(objective, bracket, f_lo, f_hi, tol=1e-12):
    """find_root_bracketed on a bracket whose end values f_lo, f_hi the caller already holds.

    Brent needs only the two end values, so a caller that has them (a scan's
    margins) passes them and the objective runs at interior points only.  The
    root is the one find_root_bracketed returns whenever f_lo and f_hi equal
    the objective's values at the ends.  Returns the end whose value is 0;
    raises InvalidParameter unless tol is finite and > 0, and NoSignChange
    when f_lo and f_hi do not straddle zero.
    """
    check_tolerance(tol, "root")
    if f_lo == 0.0:
        return bracket.lo
    if f_hi == 0.0:
        return bracket.hi
    if not (f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo):
        raise NoSignChange(f"objective has the same sign at both ends of [{bracket.lo}, {bracket.hi}]")
    return float(_brentq(objective, bracket.lo, bracket.hi, f_lo, f_hi, xtol=tol))


def find_last_sign_change(values):
    """Index i of the last adjacent pair (i, i+1) of ``values`` with a sign change; None if none.

    Signs differ or exactly one value is 0, so exact zeros hold none; entries
    that are NaN (skipped points; None converts to NaN) never participate.
    """
    v = np.asarray(values, dtype=float)
    a, b = v[:-1], v[1:]
    change = ~np.isnan(a) & ~np.isnan(b) & (np.sign(a) != np.sign(b))
    hits = np.flatnonzero(change)
    return int(hits[-1]) if hits.size else None


def minimize_scalar(objective, bracket, tol=1e-8):
    """Abscissa of the minimum of a unimodal objective on a Bracket.

    Bounded Brent search, then a post-hoc sampling check on 33 evenly spaced
    points: if the sampled curve shows a second distinct local minimum the
    unimodality precondition was violated and NotUnimodal is raised.  Raises
    InvalidParameter unless tol is finite and > 0.
    """
    check_tolerance(tol, "root")
    # imported here, not at module level: scipy.optimize adds ~23 MB of memory
    # and ~0.15 s to every import of the CLI, and nothing else needs it
    from scipy.optimize import minimize_scalar as _minimize_scalar

    res = _minimize_scalar(objective, bounds=(bracket.lo, bracket.hi), method="bounded",
                           options={"xatol": tol})
    xs = np.linspace(bracket.lo, bracket.hi, 33)
    ys = np.array([objective(x) for x in xs])
    band = 1e-9 * (ys.max() - ys.min() + 1e-300)
    minima = 0
    for i in range(1, len(ys) - 1):
        if ys[i] < ys[i - 1] - band and ys[i] < ys[i + 1] - band:
            minima += 1
    if minima > 1:
        raise NotUnimodal(f"{minima} distinct local minima sampled in [{bracket.lo}, {bracket.hi}]")
    return float(res.x)
