import dataclasses
import math

import numpy as np
import pytest

from conical_harvest import correlation, entanglement, quadrature, response, special
from conical_harvest.correlation import x_flat, x_string
from conical_harvest.entanglement import (
    MAX_SWEEP_POINTS,
    DmaxResult,
    SweepRow,
    _evaluate,
    _margin,
    _scan_margins,
    concurrence,
    concurrence_flat,
    d_max,
    nu_extremum,
    opposite_sides_terminal_l,
    response_pair,
    sweep,
)
from conical_harvest.errors import DivergentOverlap, InvalidParameter, QuadratureFailure
from conical_harvest.geometry import (
    Alignment,
    ConeParameter,
    PairConfig,
    image_set,
    image_terms,
    pair_f_arguments,
    radial_distances,
)
from conical_harvest.presets import build_figure
from conical_harvest.quadrature import DEFAULT_TOL, Bracket, find_root_bracketed
from conical_harvest.response import image_response, p_flat

GAP = 0.1


def config(alignment, l, d, gap=GAP):
    return PairConfig(alignment, l=l, d=d, gap=gap)


def test_concurrence_on_string_scaling():
    result = concurrence(config(Alignment.PARALLEL, 0.0, 0.5), ConeParameter(3.0))
    assert result.concurrence == pytest.approx(3.0 * concurrence_flat(0.5, GAP), abs=1e-8)
    assert result.abs_x == pytest.approx(3.0 * abs(x_flat(0.5, GAP)), rel=1e-12)


def test_concurrence_flat_reduction():
    result = concurrence(config(Alignment.PARALLEL, 0.9, 0.5), ConeParameter(1.0))
    assert result.concurrence == pytest.approx(concurrence_flat(0.5, GAP), rel=1e-12)
    flat = concurrence(config(Alignment.FLAT, 0.0, 0.5), ConeParameter(3.0))
    assert flat.concurrence == pytest.approx(concurrence_flat(0.5, GAP), rel=1e-12)


def test_concurrence_large_gap_vanishingly_small():
    # both |X| and sqrt(P_A P_B) carry the e^{-gap^2} suppression, so the
    # concurrence is not exactly zero here, just ~e^{-9}-suppressed
    result = concurrence(config(Alignment.PARALLEL, 1.0, 4.0, gap=3.0), ConeParameter(3.0))
    assert 0.0 <= result.concurrence < 1e-5


def test_concurrence_definition_invariants():
    for alignment, l, d, nu in ((Alignment.PARALLEL, 0.4, 0.7, 2.5),
                                (Alignment.ORTHOGONAL_SAME_SIDE, 0.2, 1.1, 3.0),
                                (Alignment.ORTHOGONAL_OPPOSITE_SIDES, 0.4, 1.3, 9.2),
                                (Alignment.BOUNDARY_PARALLEL, 0.4, 0.7, 1.0)):
        result = concurrence(config(alignment, l, d), ConeParameter(nu))
        assert result.concurrence == 2.0 * max(0.0, result.abs_x - result.geo_mean_p)
        assert result.concurrence >= 0.0
        assert math.isfinite(result.concurrence)


def test_concurrence_flat_two_paths_and_edges():
    assert concurrence_flat(0.5, GAP) == pytest.approx(
        2.0 * max(0.0, abs(x_flat(0.5, GAP)) - p_flat(GAP)), rel=1e-12)
    assert concurrence_flat(0.5, GAP) > 0.0
    assert concurrence_flat(20.0, GAP) == 0.0
    assert concurrence_flat(3e-10, GAP) > 1e3  # dominated by the 1/d divergence
    for d in (1e-12, 2e-10):
        with pytest.raises(DivergentOverlap):
            concurrence_flat(d, GAP)
    # the first separation past the cutoff d/2 = EPS_DIV is finite on both flat paths
    d_next = np.nextafter(2e-10, 1.0)
    assert math.isfinite(concurrence_flat(d_next, GAP))
    assert math.isfinite(abs(x_flat(d_next, GAP)))


@pytest.mark.parametrize("d", [1.5e-10, 2e-10])
def test_flat_paths_refuse_the_same_separations(d):
    # d/2 at or below EPS_DIV, the cutoff aux_f refuses, on every flat path;
    # concurrence_flat compared d itself with EPS_DIV and returned 1.86e9 at 1.5e-10
    for flat in (lambda: x_flat(d, GAP), lambda: concurrence_flat(d, GAP)):
        with pytest.raises(DivergentOverlap, match=r"diverges as d -> 0"):
            flat()
    with pytest.raises(DivergentOverlap):
        concurrence(config(Alignment.FLAT, 0.0, d), ConeParameter(3.0))


@pytest.mark.parametrize("d", [-1.0, 0.0, math.inf, math.nan])
def test_flat_paths_refuse_a_bad_separation_by_name(d):
    # they raised DivergentOverlap for d <= 0, and "z must be finite" (aux_f's
    # argument) for an infinite or nan d
    for flat in (lambda: x_flat(d, GAP), lambda: concurrence_flat(d, GAP)):
        with pytest.raises(InvalidParameter, match="^d must be finite and > 0"):
            flat()
    with pytest.raises(InvalidParameter, match="^d must be finite and > 0"):
        x_flat(np.array([1.0, d]), GAP)


@pytest.mark.parametrize("gap", [math.nan, math.inf, -1.0])
def test_concurrence_flat_refuses_a_bad_gap_by_name(gap):
    # it returned nan for a nan or infinite gap and 0.0 for a negative one
    with pytest.raises(InvalidParameter, match="^gap must be finite and >= 0"):
        concurrence_flat(1.0, gap)


def test_x_flat_refuses_what_concurrence_flat_refuses():
    # x_flat(1e200, 0.1) returned -0j, and a bad gap was refused with aux_f's
    # "gap must be a finite scalar" instead of check_gap's message
    for flat in (x_flat, concurrence_flat):
        with pytest.raises(InvalidParameter, match=r"^d must be at most 1e\+100"):
            flat(1e200, GAP)
        for gap in (math.nan, math.inf, -1.0):
            with pytest.raises(InvalidParameter, match="^gap must be finite and >= 0"):
                flat(1.0, gap)
    with pytest.raises(InvalidParameter, match=r"^d must be at most 1e\+100"):
        x_flat(np.array([1.0, 1e200]), GAP)


def test_response_pair_dispatch():
    a, b = response_pair(config(Alignment.ORTHOGONAL_SAME_SIDE, 0.1, 0.5), ConeParameter(3.0))
    assert a.total > b.total  # farther detector responds less
    a, b = response_pair(config(Alignment.BOUNDARY_PARALLEL, 0.5, 0.5), ConeParameter(3.0))
    assert a.total == b.total < p_flat(GAP)
    a, b = response_pair(config(Alignment.FLAT, 0.0, 0.5), ConeParameter(3.0))
    assert a.total == pytest.approx(p_flat(GAP), rel=1e-15)


@pytest.mark.parametrize("boundary, twin", [
    (Alignment.BOUNDARY_PARALLEL, Alignment.PARALLEL),
    (Alignment.BOUNDARY_ORTHOGONAL, Alignment.ORTHOGONAL_SAME_SIDE),
])
@pytest.mark.parametrize("l, d, gap", [(0.5, 0.5, GAP), (0.05, 1.7, 1.5), (3.0, 0.2, 0.0)])
def test_boundary_response_is_the_subtracted_nu2_image(boundary, twin, l, d, gap):
    bd = response_pair(config(boundary, l, d, gap), ConeParameter(3.0))
    string = response_pair(config(twin, l, d, gap), ConeParameter(2.0))
    for b, s in zip(bd, string):
        assert b.p_images == -s.p_images != 0.0
        assert b.p_flat == s.p_flat
        assert b.p_integral == s.p_integral == 0.0


@pytest.mark.parametrize("alignment", [Alignment.BOUNDARY_PARALLEL, Alignment.BOUNDARY_ORTHOGONAL])
def test_boundary_ignores_nu(alignment):
    results = [(concurrence(config(alignment, 0.4, 0.7), ConeParameter(nu)),
                d_max(alignment, ConeParameter(nu), l=0.4, gap=GAP))
               for nu in (1.0, 2.5, 7.3)]
    for result, dmax in results[1:]:
        assert result == results[0][0]
        assert dmax == results[0][1]


@pytest.mark.parametrize("l", [0.0, 1e-9, 1e-8, 3e-8, 1e-7])
@pytest.mark.parametrize("gap", [0.05, 1.0, 3.0])
def test_boundary_response_at_the_wall_is_never_negative(l, gap):
    # P0 and the subtracted image cancel at the wall; their sum may round
    # below zero, which sqrt(P_A P_B) must never see
    result = concurrence(config(Alignment.BOUNDARY_ORTHOGONAL, l, 0.5, gap), ConeParameter(1.0))
    assert 0.0 <= result.response_a.total <= 1e-15
    assert math.isfinite(result.concurrence)
    margins, _ = _scan_margins(Alignment.BOUNDARY_ORTHOGONAL, ConeParameter(1.0),
                               np.full(2, l), np.array([0.5, 1.0]), gap, DEFAULT_TOL)
    assert all(math.isfinite(m) for m in margins)


def test_d_max_flat_against_dense_scan():
    result = d_max(Alignment.FLAT, ConeParameter(1.0), l=0.0, gap=GAP)
    grid = np.linspace(1e-3, 8.0, 4096)
    values = np.array([concurrence_flat(d, GAP) for d in grid])
    positive = np.nonzero(values > 0.0)[0]
    lo, hi = grid[positive[-1]], grid[positive[-1] + 1]
    assert result.value is not None
    assert lo - 1e-6 <= result.value <= hi + 1e-6
    # bisection refines to much better than the grid spacing
    assert concurrence_flat(result.value - 1e-4, GAP) > 0.0
    assert concurrence_flat(result.value + 1e-4, GAP) == 0.0


def test_d_max_parallel_below_flat():
    flat = d_max(Alignment.FLAT, ConeParameter(1.0), l=0.0, gap=GAP).value
    par = d_max(Alignment.PARALLEL, ConeParameter(3.0), l=0.5, gap=GAP).value
    assert par is not None and par < flat


def test_d_max_none_when_no_harvesting():
    # at nu = 1 opposite sides is flat spacetime, which harvests only below
    # d = 1.66 at this gap; the scan starts at d = 2l = 2, so |X| < sqrt(P_A P_B)
    # everywhere on it
    result = d_max(Alignment.ORTHOGONAL_OPPOSITE_SIDES, ConeParameter(1.0), l=1.0, gap=GAP,
                   d_hi=8.0, grid_n=64)
    assert result.value is None


def test_d_max_skips_divergent_symmetric_points():
    # opposite-sides scan starts at d = 2l; at even nu that point overlaps
    result = d_max(Alignment.ORTHOGONAL_OPPOSITE_SIDES, ConeParameter(4.0), l=0.6, gap=GAP)
    assert result.skipped and result.skipped[0] == pytest.approx(1.2)
    assert result.value is not None  # the rest of the scan still brackets the root


def test_opposite_terminal_distance():
    l0 = opposite_sides_terminal_l(ConeParameter(3.0), GAP)
    assert l0 == pytest.approx(2.219, abs=0.02)


def test_opposite_terminal_distance_is_none_when_every_symmetric_point_overlaps():
    # at nu = 2 each symmetric point d = 2l sits on its partner's image, so the
    # scan masks every point
    l = np.linspace(0.5, 2.0, 4)
    margins, skipped = _scan_margins(Alignment.ORTHOGONAL_OPPOSITE_SIDES, ConeParameter(2.0), l,
                                     2.0 * l, GAP, DEFAULT_TOL)
    assert margins.shape == (4,) and np.isnan(margins).all()
    assert skipped == (2.0 * l).tolist()
    assert opposite_sides_terminal_l(ConeParameter(2.0), GAP) is None


def test_d_max_refuses_a_scan_that_starts_at_its_ceiling():
    # opposite sides scans from d = 2l = 8 = d_hi
    with pytest.raises(InvalidParameter, match="^scan start 8.0 is not below d_hi 8.0$"):
        d_max(Alignment.ORTHOGONAL_OPPOSITE_SIDES, ConeParameter(3.0), l=4.0, gap=GAP, d_hi=8.0)


def test_d_max_opposite_sides_at_l_zero_names_the_alignment_rule():
    # the scan started at d = 2l = 0 and reported "d must be finite and > 0, got 0.0"
    with pytest.raises(InvalidParameter, match=r"^opposite-sides alignment requires d >= 2l > 0"):
        d_max(Alignment.ORTHOGONAL_OPPOSITE_SIDES, ConeParameter(3.0), l=0.0, gap=0.1)


def test_nu_extremum_concurrence_monotone_small_l():
    # near the string the concurrence increases with nu: maximum at the right edge
    cfg = config(Alignment.PARALLEL, 0.1, 0.1)
    star = nu_extremum("concurrence", cfg, Bracket(1.1, 11.0), tol=1e-3)
    assert star > 10.9


def test_nu_extremum_objectives_take_the_margin_not_a_concurrence_result(monkeypatch):
    calls = _spy_margin_points(monkeypatch)
    star = nu_extremum("concurrence", config(Alignment.PARALLEL, 0.1, 0.1), Bracket(1.1, 11.0),
                       tol=1e-3)
    assert star > 10.9 and calls
    calls.clear()
    nu_extremum("response_correlation_gap", PairConfig(Alignment.PARALLEL, l=3.0, d=0.1, gap=GAP),
                Bracket(6.0, 12.0), tol=1e-4)
    assert calls


def test_nu_extremum_keeps_its_abscissa_bit_for_bit():
    # the fig7 case of the acceptance tests and the small-l concurrence case:
    # the objectives now read _margin instead of a ConcurrenceResult, the
    # same floating-point operations, so nu* is the one they gave before
    fig7 = PairConfig(Alignment.PARALLEL, l=3.0, d=0.1, gap=GAP)
    assert nu_extremum("response_correlation_gap", fig7, Bracket(6.0, 12.0),
                       tol=1e-4) == 9.220067787956793
    assert nu_extremum("concurrence", config(Alignment.PARALLEL, 0.1, 0.1), Bracket(1.1, 11.0),
                       tol=1e-3) == 10.999345541082617


def test_nu_extremum_refuses_an_unknown_selector(monkeypatch):
    calls = _spy_margin_points(monkeypatch)
    with pytest.raises(InvalidParameter, match="^unknown objective selector 'gap'$"):
        nu_extremum("gap", config(Alignment.PARALLEL, 0.1, 0.1), Bracket(1.1, 11.0))
    assert not calls


def test_nu_extremum_validates_bracket():
    with pytest.raises(InvalidParameter):
        nu_extremum("concurrence", config(Alignment.PARALLEL, 0.1, 0.1),
                    Bracket(0.5, 5.0), tol=1e-3)


def test_sweep_monotone_in_d():
    values = np.linspace(0.1, 2.0, 12)
    for alignment in (Alignment.PARALLEL, Alignment.ORTHOGONAL_SAME_SIDE):
        table = sweep(alignment, ConeParameter(2.0), "d", values, l=0.1, gap=GAP)
        cs = [row.concurrence for row in table.rows]
        assert all(not row.diverged for row in table.rows)
        assert all(a >= b - 1e-12 for a, b in zip(cs, cs[1:]))


def test_sweep_opposite_asymmetric_decreasing_in_l():
    values = np.linspace(0.2, 2.0, 10)
    for nu in (2.0, 4.0):
        table = sweep(Alignment.ORTHOGONAL_OPPOSITE_SIDES, ConeParameter(nu), "l", values,
                      d_over_l=2.5, gap=GAP)
        cs = [row.concurrence for row in table.rows]
        assert all(not row.diverged for row in table.rows)
        assert all(a >= b - 1e-12 for a, b in zip(cs, cs[1:]))


def test_sweep_nu_axis_at_string_scales_flat_values():
    values = [1.0, 1.5, 2.0, 2.5, 3.0]
    table = sweep(Alignment.PARALLEL, ConeParameter(1.0), "nu", values, l=0.0, d=0.5, gap=GAP)
    flat = concurrence_flat(0.5, GAP)
    for row, nu in zip(table.rows, values):
        assert row.concurrence == pytest.approx(nu * flat, rel=1e-7)


def test_sweep_flags_divergent_rows():
    # symmetric opposite-sides crossing nu = 2 exactly
    values = [1.8, 2.0, 2.2]
    table = sweep(Alignment.ORTHOGONAL_OPPOSITE_SIDES, ConeParameter(3.0), "nu", values,
                  l=0.5, d=1.0, gap=GAP)
    flags = [row.diverged for row in table.rows]
    assert flags == [False, True, False]
    diverged_row = table.rows[1]
    assert diverged_row.concurrence is None and diverged_row.p_a is None


def test_sweep_raises_a_numerical_failure_instead_of_flagging_its_rows():
    # at nu = 2 + 1e-11 the zeta coefficient is 0/0 near zeta = 0, so the
    # integrand is not finite there; both rows were flagged diverged=True
    with pytest.raises(QuadratureFailure, match="non-finite values"):
        sweep(Alignment.PARALLEL, ConeParameter(2.0 + 1e-11), "d", [0.5, 1.0], l=0.5, gap=GAP)


@pytest.mark.parametrize("error", [QuadratureFailure("stub"), InvalidParameter("stub")])
def test_a_sweep_row_flags_only_an_overlap_or_the_opposite_sides_constraint(error, monkeypatch):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(entanglement, "_evaluate", failing)
    with pytest.raises(type(error), match="stub"):
        sweep(Alignment.PARALLEL, ConeParameter(3.0), "d", [0.5, 1.0], l=0.5, gap=GAP)
    # a row off d >= 2l > 0 is flagged before any evaluation
    for l in (0.5, None):
        table = sweep(Alignment.ORTHOGONAL_OPPOSITE_SIDES, ConeParameter(3.0), "d", [0.5, 0.9],
                      l=l, gap=GAP)
        assert [row.diverged for row in table.rows] == [True, True]


# (l, d): the symmetric opposite-sides pair (an image overlap at nu = 4),
# d/2 = EPS_DIV (an overlap on every alignment), d/2 above it, the symmetric
# pair there (an image overlap on opposite sides) and an ordinary point
OVERLAP_POINTS = [(1.0, 2.0), (1e-12, 2e-10), (1e-12, 3e-10), (1.5e-10, 3e-10), (0.5, 1.3)]


@pytest.mark.parametrize("nu", [2.5, 3.0, 4.0])
@pytest.mark.parametrize("alignment", list(Alignment))
def test_points_scans_and_sweeps_share_one_overlap_rule(alignment, nu):
    # a single point raises, a scan skips and a sweep flags exactly the same points
    cone = ConeParameter(nu)
    for l, d in OVERLAP_POINTS:
        try:
            concurrence(config(alignment, l, d), cone)
            raised = False
        except DivergentOverlap:
            raised = True
        _, skipped = _scan_margins(alignment, cone, l, np.array([d]), GAP, DEFAULT_TOL)
        assert skipped == ([d] if raised else [])
        row = sweep(alignment, cone, "d", [d, 1.0], l=l, gap=GAP).rows[0]
        assert row.diverged is raised


def test_an_overlap_names_the_first_overlapping_image_or_the_flat_separation():
    with pytest.raises(DivergentOverlap) as info:
        concurrence(config(Alignment.ORTHOGONAL_OPPOSITE_SIDES, 1.0, 2.0), ConeParameter(4.0))
    assert (info.value.image_index, info.value.argument) == (2, 6.123233995736766e-17)
    assert str(info.value) == "detector/image overlap at image m=2 (argument 6.123233995736766e-17)"
    # concurrence_flat's message was "flat concurrence diverges as d -> 0"
    for flat in (lambda: concurrence(config(Alignment.PARALLEL, 0.1, 1e-10), ConeParameter(3.0)),
                 lambda: x_flat(1e-10, GAP), lambda: concurrence_flat(1e-10, GAP)):
        with pytest.raises(DivergentOverlap) as info:
            flat()
        assert (info.value.image_index, info.value.argument) == (None, 5e-11)
        assert str(info.value) == "flat correlation diverges as d -> 0 (d=1e-10)"


@pytest.mark.parametrize("nu", [3.0, 2.5])
def test_sweep_gap_axis_rows_equal_pointwise_concurrence(nu):
    gaps = [0.0, 0.1, 1.0, 2.5]
    table = sweep(Alignment.PARALLEL, ConeParameter(nu), "gap", gaps, l=0.3, d=0.5)
    assert table.fixed == {"l": 0.3, "d": 0.5}
    for gap, row in zip(gaps, table.rows):
        one = concurrence(config(Alignment.PARALLEL, 0.3, 0.5, gap), ConeParameter(nu))
        assert row == SweepRow(param=gap, p_a=one.response_a.total, p_b=one.response_b.total,
                               abs_x=one.abs_x, concurrence=one.concurrence, diverged=False)


def test_sweep_threads_deterministic():
    values = np.linspace(0.1, 1.0, 9)
    one = sweep(Alignment.ORTHOGONAL_SAME_SIDE, ConeParameter(2.5), "d", values,
                l=0.1, gap=GAP, threads=1)
    four = sweep(Alignment.ORTHOGONAL_SAME_SIDE, ConeParameter(2.5), "d", values,
                 l=0.1, gap=GAP, threads=4)
    assert one.rows == four.rows


def test_sweep_validation():
    with pytest.raises(InvalidParameter):
        sweep(Alignment.PARALLEL, ConeParameter(2.0), "q", [0.1, 0.2], l=0.1, gap=GAP)
    with pytest.raises(InvalidParameter):
        sweep(Alignment.PARALLEL, ConeParameter(2.0), "d", [0.1], l=0.1, gap=GAP)
    with pytest.raises(InvalidParameter):
        sweep(Alignment.PARALLEL, ConeParameter(2.0), "d", [0.1, 0.2], l=0.1)  # no gap
    with pytest.raises(InvalidParameter):
        sweep(Alignment.PARALLEL, ConeParameter(2.0), "l", [0.1, 0.2], gap=GAP)  # no d


def test_divergence_propagates_from_concurrence():
    with pytest.raises(DivergentOverlap):
        concurrence(config(Alignment.ORTHOGONAL_OPPOSITE_SIDES, 1.0, 2.0), ConeParameter(4.0))


# --- the batched d_max scan -----------------------------------------------------


def _scalar_margin(alignment, cone, l, d):
    """concurrence's margin |X| - sqrt(P_A P_B), or None at a detector/image overlap."""
    try:
        result = concurrence(config(alignment, l, d), cone)
    except DivergentOverlap:
        return None
    return result.abs_x - result.geo_mean_p


@pytest.mark.parametrize("nu", [3.0, 4.0, 2.5, 1.0, 2.0, 11.0])
@pytest.mark.parametrize("alignment", list(Alignment))
def test_batched_scan_margins_match_scalar_concurrence(alignment, nu):
    cone = ConeParameter(nu)
    # a d axis at fixed l (the d_max scan), then an l axis at d = 2l (the terminal-l scan)
    ls = np.linspace(0.1, 1.2, 5)
    l = np.concatenate([np.full(7, 0.4), ls])
    d = np.concatenate([np.linspace(0.8, 4.0, 7), 2.0 * ls])
    margins, skipped = _scan_margins(alignment, cone, l, d, GAP, DEFAULT_TOL)
    assert len(margins) == len(d)
    expected_skipped = []
    for li, di, got in zip(l, d, margins):
        want = _scalar_margin(alignment, cone, float(li), float(di))
        if want is None:
            expected_skipped.append(float(di))
            assert math.isnan(got)
        else:
            assert not math.isnan(got) and abs(got - want) <= 1e-14, (li, di, got, want)
            if nu.is_integer():
                # no zeta integral: the scan's bracket margins are the scalar ones
                assert got == want, (li, di, got, want)
    assert skipped == expected_skipped


def test_batched_scan_reports_overlap_points_as_skipped():
    # opposite sides at nu = 4: the symmetric point d = 2l sits on the m = 2 image
    d = np.array([1.2, 1.5, 2.0])
    margins, skipped = _scan_margins(Alignment.ORTHOGONAL_OPPOSITE_SIDES, ConeParameter(4.0),
                                     np.full(3, 0.6), d, GAP, DEFAULT_TOL)
    assert math.isnan(margins[0]) and not np.isnan(margins[1:]).any()
    assert skipped == [1.2]


def _reference_root(margin, grid, tol):
    """Scalar scan over the grid, then Brent on its last sign-changing pair."""
    values = [margin(float(x)) for x in grid]
    pairs = [i for i in range(len(grid) - 1)
             if values[i] is not None and values[i + 1] is not None
             and (values[i] == 0.0 or np.sign(values[i]) != np.sign(values[i + 1]))]
    assert pairs, "the reference scan must bracket a root"
    i = pairs[-1]
    return find_root_bracketed(margin, Bracket(float(grid[i]), float(grid[i + 1])), tol=tol)


@pytest.mark.parametrize("alignment, nu, l", [
    (Alignment.PARALLEL, 3.0, 0.5),
    (Alignment.ORTHOGONAL_SAME_SIDE, 2.5, 0.3),
    (Alignment.ORTHOGONAL_OPPOSITE_SIDES, 4.0, 0.6),
    (Alignment.BOUNDARY_ORTHOGONAL, 1.0, 0.4),
    # rho_A = rho_B = l: the scan's P_A is one scalar point, P_B is P_A
    (Alignment.BOUNDARY_PARALLEL, 1.0, 0.4),
    (Alignment.FLAT, 1.0, 0.5),
    (Alignment.PARALLEL, 2.5, 0.5),
])
def test_d_max_equals_brent_on_a_scalar_reference_scan(alignment, nu, l):
    cone = ConeParameter(nu)
    grid_n, d_hi = 48, 8.0
    d_lo = 2.0 * l if alignment is Alignment.ORTHOGONAL_OPPOSITE_SIDES else d_hi / grid_n
    result = d_max(alignment, cone, l=l, gap=GAP, d_hi=d_hi, grid_n=grid_n)

    def margin(d):
        return _scalar_margin(alignment, cone, l, d)

    assert result.value == _reference_root(margin, np.linspace(d_lo, d_hi, grid_n), 1e-6)


def test_terminal_l_equals_brent_on_a_scalar_reference_scan():
    cone = ConeParameter(3.0)
    grid_n, l_hi = 64, 4.0

    def margin(l):
        return _scalar_margin(Alignment.ORTHOGONAL_OPPOSITE_SIDES, cone, l, 2.0 * l)

    expected = _reference_root(margin, np.linspace(l_hi / grid_n, l_hi, grid_n), 1e-6)
    assert opposite_sides_terminal_l(cone, GAP, l_hi=l_hi, grid_n=grid_n) == expected


def test_d_max_on_the_default_grid_with_a_masked_first_point_equals_brent_on_a_scalar_scan():
    # opposite sides at nu = 4: the scan's first point d = 2l sits on an image,
    # so its margin is NaN and the bracket search must step over it
    alignment, cone, l = Alignment.ORTHOGONAL_OPPOSITE_SIDES, ConeParameter(4.0), 0.6
    result = d_max(alignment, cone, l=l, gap=GAP)
    grid = np.linspace(2.0 * l, 8.0, 512)
    assert result.skipped == (grid[0],)

    def margin(d):
        return _scalar_margin(alignment, cone, l, d)

    assert result.value == _reference_root(margin, grid, 1e-6)


def _spy_margin_points(monkeypatch):
    """(l, d) of every one-point _margin call that entanglement makes.

    A concurrence call inside entanglement fails the test: no search builds a
    ConcurrenceResult per evaluation.
    """
    points = []
    margin = entanglement._margin

    def spy(alignment, cone, l, d, gap, tol, geo=None):
        if not np.ndim(d):
            points.append((l, d))
        return margin(alignment, cone, l, d, gap, tol, geo)

    def no_concurrence(*args, **kwargs):
        raise AssertionError("a search ran the scalar concurrence")

    monkeypatch.setattr(entanglement, "_margin", spy)
    monkeypatch.setattr(entanglement, "concurrence", no_concurrence)
    return points


def _last_bracket(alignment, cone, l, d, grid):
    margins, _ = _scan_margins(alignment, cone, l, d, GAP, DEFAULT_TOL)
    last = quadrature.find_last_sign_change(margins)
    assert last is not None
    return float(grid[last]), float(grid[last + 1])


def test_d_max_refines_from_the_scan_margins_at_its_bracket_ends(monkeypatch):
    alignment, cone, l = Alignment.PARALLEL, ConeParameter(3.0), 0.5
    grid = np.linspace(8.0 / 512, 8.0, 512)
    ends = _last_bracket(alignment, cone, np.full_like(grid, l), grid, grid)
    points = _spy_margin_points(monkeypatch)
    result = d_max(alignment, cone, l=l, gap=GAP)
    assert ends[0] < result.value < ends[1]
    assert points and all(d not in ends for _, d in points), (ends, points)


def test_d_max_tests_each_scan_point_and_each_brent_step_for_overlap_once(monkeypatch):
    # the scan's mask and then _evaluate tested every scan point twice
    tested = []

    def spy(rule):
        def recorded(d, image_args):
            tested.extend(np.ravel(d).tolist())
            return rule(d, image_args)
        return recorded

    monkeypatch.setattr(entanglement, "overlap_mask", spy(entanglement.overlap_mask))
    monkeypatch.setattr(entanglement, "check_overlap", spy(entanglement.check_overlap))
    steps = _spy_margin_points(monkeypatch)
    grid_n = 64
    d_max(Alignment.PARALLEL, ConeParameter(3.0), l=0.5, gap=GAP, grid_n=grid_n)
    assert steps
    assert tested == np.linspace(8.0 / grid_n, 8.0, grid_n).tolist() + [d for _, d in steps]


def test_terminal_l_refines_from_the_scan_margins_at_its_bracket_ends(monkeypatch):
    cone = ConeParameter(3.0)
    grid = np.linspace(4.0 / 512, 4.0, 512)
    ends = _last_bracket(Alignment.ORTHOGONAL_OPPOSITE_SIDES, cone, grid, 2.0 * grid, grid)
    points = _spy_margin_points(monkeypatch)
    value = opposite_sides_terminal_l(cone, GAP)
    assert ends[0] < value < ends[1]
    assert points and all(l not in ends for l, _ in points), (ends, points)


SCAN_ALIGNMENTS = [Alignment.PARALLEL, Alignment.ORTHOGONAL_SAME_SIDE,
                   Alignment.ORTHOGONAL_OPPOSITE_SIDES]


@pytest.mark.parametrize("alignment", SCAN_ALIGNMENTS)
def test_d_max_zeta_integrals_do_not_grow_with_the_grid(alignment, monkeypatch):
    # at non-integer nu the scan's zeta integrals run once per scan, not once per point
    calls = [0]
    integrate_adaptive = quadrature.integrate_adaptive

    def counting(*args, **kwargs):
        calls[0] += 1
        return integrate_adaptive(*args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_adaptive", counting)
    counts = {}
    for grid_n in (64, 512):
        calls[0] = 0
        d_max(alignment, ConeParameter(2.5), l=0.5, gap=GAP, grid_n=grid_n)
        counts[grid_n] = calls[0]
    assert 0 < counts[512] <= counts[64] < 64, counts


@pytest.mark.parametrize("alignment", SCAN_ALIGNMENTS)
def test_d_max_at_non_integer_nu_equals_brent_on_a_scalar_reference_scan(alignment):
    cone = ConeParameter(3.7)
    l, grid_n, d_hi = 0.5, 48, 8.0
    d_lo = 2.0 * l if alignment is Alignment.ORTHOGONAL_OPPOSITE_SIDES else d_hi / grid_n
    result = d_max(alignment, cone, l=l, gap=GAP, d_hi=d_hi, grid_n=grid_n)

    def margin(d):
        return _scalar_margin(alignment, cone, l, d)

    assert result.value == _reference_root(margin, np.linspace(d_lo, d_hi, grid_n), 1e-6)


def test_terminal_l_at_non_integer_nu_equals_brent_on_a_scalar_reference_scan():
    cone = ConeParameter(3.7)
    grid_n, l_hi = 48, 4.0

    def margin(l):
        return _scalar_margin(Alignment.ORTHOGONAL_OPPOSITE_SIDES, cone, l, 2.0 * l)

    expected = _reference_root(margin, np.linspace(l_hi / grid_n, l_hi, grid_n), 1e-6)
    assert opposite_sides_terminal_l(cone, GAP, l_hi=l_hi, grid_n=grid_n) == expected


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_d_max_rejects_a_bad_root_tolerance(tol):
    with pytest.raises(InvalidParameter, match="tol"):
        d_max(Alignment.FLAT, ConeParameter(1.0), l=0.0, gap=GAP, tol=tol)
    with pytest.raises(InvalidParameter, match="tol"):
        opposite_sides_terminal_l(ConeParameter(3.0), GAP, tol=tol)


@pytest.mark.parametrize("kwargs, name", [
    ({"grid_n": 0}, "grid_n"),
    ({"grid_n": -3}, "grid_n"),
    ({"grid_n": 1}, "grid_n"),
    ({"l_hi": 0.0}, "l_hi"),
    ({"l_hi": -1.0}, "l_hi"),
    ({"l_hi": float("inf")}, "l_hi"),
    ({"l_hi": float("nan")}, "l_hi"),
    ({"l_hi": 1e200}, "l_hi"),
])
def test_terminal_l_rejects_a_bad_scan(kwargs, name):
    with pytest.raises(InvalidParameter, match=name) as info:
        opposite_sides_terminal_l(ConeParameter(3.0), GAP, **kwargs)
    other = "l_hi" if name == "grid_n" else "grid_n"
    assert other not in str(info.value)


# --- one evaluator for a pair and for a batch -----------------------------------


@pytest.mark.parametrize("axis", ["d", "l"])
@pytest.mark.parametrize("nu", [3.0, 2.5, 1.5])
@pytest.mark.parametrize("alignment", list(Alignment))
def test_batch_breakdowns_equal_one_point_breakdowns(alignment, nu, axis):
    # the d_max scan's d axis at fixed l (parallel: every rho equal; opposite
    # sides: starting at d = 2l) and the terminal-l scan's l axis at d = 2l;
    # at nu = 1.5 the cone has no images, so the image sums are the scalar 0
    # while the zeta integrals are arrays
    cone = ConeParameter(nu)
    if axis == "d":
        l, d = np.full(4, 0.4), np.linspace(0.8, 4.0, 4)
    else:
        l = np.linspace(0.2, 1.1, 4)
        d = 2.0 * l
    seen, terms = image_set(alignment, cone)
    rho_a, rho_b = radial_distances(alignment, l, d)
    batch_a, batch_b = (image_response(rho, seen, terms, GAP, tol=DEFAULT_TOL)
                        for rho in (rho_a, rho_b))
    batch_x = _evaluate(alignment, cone, l, d, GAP, DEFAULT_TOL,
                        pair_f_arguments(alignment, cone, l, d))[2]

    def at(value, i):
        return np.broadcast_to(value, d.shape)[i]

    def same_integral(batch, one, i, rows):
        # an integral over one distinct point (or a vanishing one) is the
        # one-point integral; several points share one subdivision, refined
        # for the worst of them, so each agrees with its own to rounding
        if rows == 1 or np.ndim(batch) == 0:
            return at(batch, i) == one
        return abs(at(batch, i) - one) <= 1e-14

    for i, (li, di) in enumerate(zip(l, d)):
        pair = config(alignment, float(li), float(di))
        one_x = x_string(pair, cone)
        for batch, one, rho in zip((batch_a, batch_b), response_pair(pair, cone), (rho_a, rho_b)):
            assert at(batch.p_flat, i) == one.p_flat
            assert at(batch.p_images, i) == one.p_images
            assert same_integral(batch.p_integral, one.p_integral, i, np.unique(rho).size)
        assert at(batch_x.x_flat, i) == one_x.x_flat
        assert at(batch_x.x_images, i) == one_x.x_images
        assert same_integral(batch_x.x_integral, one_x.x_integral, i, d.size)
        assert len(batch_x.image_terms) == len(one_x.image_terms)
        for (m, weight, z, term), want in zip(batch_x.image_terms, one_x.image_terms):
            assert (m, weight, z[i], term[i]) == want


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_sweep_rejects_a_bad_tolerance_before_its_rows(tol, monkeypatch):
    def no_rows(*args, **kwargs):
        raise AssertionError("a row ran")

    monkeypatch.setattr("conical_harvest.entanglement._sweep_row", no_rows)
    with pytest.raises(InvalidParameter, match="tol must be finite and > 0"):
        sweep(Alignment.PARALLEL, ConeParameter(2.5), "d", [0.1, 0.2], l=0.1, gap=GAP, tol=tol)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("alignment, axis, values, fixed, message", [
    (Alignment.PARALLEL, "d", [0.1, 0.5], {"l": INF, "gap": GAP}, "^l must be finite and >= 0"),
    (Alignment.PARALLEL, "d", [0.1, 0.5], {"l": -0.1, "gap": GAP}, "^l must be finite and >= 0"),
    (Alignment.PARALLEL, "d", [0.1, 0.5], {"l": 0.1, "gap": NAN}, "^gap must be finite and >= 0"),
    (Alignment.PARALLEL, "d", [0.1, 0.5], {"l": 0.1, "gap": -0.1}, "^gap must be finite and >= 0"),
    (Alignment.PARALLEL, "nu", [2.5, 3.5], {"l": 0.1, "d": NAN, "gap": GAP},
     "^d must be finite and > 0"),
    (Alignment.PARALLEL, "nu", [2.5, 3.5], {"l": 0.1, "d": 0.0, "gap": GAP},
     "^d must be finite and > 0"),
    (Alignment.ORTHOGONAL_OPPOSITE_SIDES, "l", [0.1, 0.5], {"gap": GAP, "d_over_l": NAN},
     "^d_over_l must be finite and > 0"),
    (Alignment.ORTHOGONAL_OPPOSITE_SIDES, "l", [0.1, 0.5], {"gap": GAP, "d_over_l": INF},
     "^d_over_l must be finite and > 0"),
    (Alignment.ORTHOGONAL_OPPOSITE_SIDES, "l", [0.1, 0.5], {"gap": GAP, "d_over_l": 0.0},
     "^d_over_l must be finite and > 0"),
    (Alignment.PARALLEL, "d", [NAN, 0.5], {"l": 0.1, "gap": GAP}, "^d axis values must be finite"),
    (Alignment.PARALLEL, "d", [0.1, INF], {"l": 0.1, "gap": GAP}, "^d axis values must be finite"),
    # an axis value that breaks its parameter's rule is refused, not flagged diverged
    (Alignment.PARALLEL, "gap", [-1.0, 0.0, 1.0], {"l": 0.1, "d": 0.5},
     "^gap must be finite and >= 0"),
    (Alignment.PARALLEL, "d", [-1.0, 0.0, 1.0], {"l": 0.1, "gap": GAP}, "^d must be finite and > 0"),
    (Alignment.PARALLEL, "l", [-1.0, 0.0, 1.0], {"d": 0.5, "gap": GAP}, "^l must be finite and >= 0"),
    (Alignment.PARALLEL, "nu", [0.5, 2.0, 3.0], {"l": 0.1, "d": 0.5, "gap": GAP}, "^nu must be >= 1"),
    (Alignment.PARALLEL, "nu", [2.0, 3.0, 70.0], {"l": 0.1, "d": 0.5, "gap": GAP},
     "^nu must be <= 64"),
    (Alignment.ORTHOGONAL_OPPOSITE_SIDES, "l", [0.0, 0.5], {"gap": GAP, "d_over_l": 2.0},
     "^d must be finite and > 0"),
    # a length whose square overflows
    (Alignment.PARALLEL, "d", [0.5, 1e200], {"l": 0.1, "gap": GAP}, "^d must be at most"),
    (Alignment.PARALLEL, "l", [0.5, 1e200], {"d": 0.5, "gap": GAP}, "^l must be at most"),
    (Alignment.PARALLEL, "nu", [2.0, 3.0], {"l": 0.1, "d": 1e200, "gap": GAP}, "^d must be at most"),
    (Alignment.PARALLEL, "nu", [2.0, 3.0], {"l": 1e200, "d": 0.5, "gap": GAP}, "^l must be at most"),
    (Alignment.ORTHOGONAL_OPPOSITE_SIDES, "l", [0.5, 1e99], {"gap": GAP, "d_over_l": 20.0},
     "^d must be at most"),
    # d_over_l couples d to an l axis; elsewhere, or beside a fixed d, it would be ignored
    (Alignment.ORTHOGONAL_OPPOSITE_SIDES, "nu", [2.0, 3.0],
     {"l": 0.5, "d": 2.0, "gap": GAP, "d_over_l": 7.0}, "^d_over_l couples d to an l axis only"),
    (Alignment.ORTHOGONAL_OPPOSITE_SIDES, "d", [1.0, 2.0], {"l": 0.5, "gap": GAP, "d_over_l": 3.0},
     "^d_over_l couples d to an l axis only"),
    (Alignment.ORTHOGONAL_OPPOSITE_SIDES, "gap", [0.0, 1.0], {"l": 0.5, "d": 2.0, "d_over_l": 3.0},
     "^d_over_l couples d to an l axis only"),
    (Alignment.ORTHOGONAL_OPPOSITE_SIDES, "l", [0.1, 0.5], {"d": 2.0, "gap": GAP, "d_over_l": 3.0},
     "^give a fixed d or d_over_l, not both"),
])
def test_sweep_refuses_invalid_input_before_its_rows(alignment, axis, values, fixed, message,
                                                     monkeypatch):
    def no_rows(*args, **kwargs):
        raise AssertionError("a row ran")

    monkeypatch.setattr("conical_harvest.entanglement._sweep_row", no_rows)
    with pytest.raises(InvalidParameter, match=message):
        sweep(alignment, ConeParameter(3.0), axis, values, **fixed)


def test_sweep_still_flags_rows_that_break_d_at_least_2l():
    # the fixed parameters are valid; only the rows with d < 2l break the constraint
    table = sweep(Alignment.ORTHOGONAL_OPPOSITE_SIDES, ConeParameter(2.5), "d", [0.5, 1.5],
                  l=0.5, gap=GAP)
    assert [row.diverged for row in table.rows] == [True, False]


def test_sweep_ignores_the_fixed_value_of_its_own_axis():
    # the CLI always passes --l (default 0); on an l axis that value is not used
    table = sweep(Alignment.PARALLEL, ConeParameter(3.0), "l", [0.1, 0.5], l=NAN,
                  d=0.5, gap=GAP)
    assert not any(row.diverged for row in table.rows)


# --- one zeta integral per concurrence and per scan batch -------------------------


def _count_zeta_integrals(monkeypatch):
    """Record the row count of every integrate_semi_infinite call that expand makes."""
    calls = []
    integrate = correlation.integrate_semi_infinite

    def counting(integrand, **kwargs):
        rows = []
        calls.append(rows)

        def recorded(zeta):
            values = integrand(zeta)
            rows.append(values.shape[0])
            return values
        return integrate(recorded, **kwargs)

    monkeypatch.setattr(correlation, "integrate_semi_infinite", counting)
    return calls


@pytest.mark.parametrize("nu, rows", [
    # rows of the one integral: P_A, P_B unless rho_B = rho_A, X's real and
    # imaginary parts unless its coefficient vanishes (opposite sides at
    # half-integer nu)
    (2.5, {Alignment.PARALLEL: 3, Alignment.ORTHOGONAL_SAME_SIDE: 4,
           Alignment.ORTHOGONAL_OPPOSITE_SIDES: 2}),
    (3.7, {Alignment.PARALLEL: 3, Alignment.ORTHOGONAL_SAME_SIDE: 4,
           Alignment.ORTHOGONAL_OPPOSITE_SIDES: 4}),
    (3.0, {}),
])
@pytest.mark.parametrize("alignment", SCAN_ALIGNMENTS)
def test_concurrence_runs_one_zeta_integral(alignment, nu, rows, monkeypatch):
    calls = _count_zeta_integrals(monkeypatch)
    concurrence(config(alignment, 0.5, 1.3), ConeParameter(nu))
    if not rows:
        assert calls == []
    else:
        assert len(calls) == 1
        assert set(calls[0]) == {rows[alignment]}


@pytest.mark.parametrize("nu", [2.5, 3.7])
@pytest.mark.parametrize("alignment", SCAN_ALIGNMENTS)
def test_scan_margins_run_one_zeta_integral_per_batch(alignment, nu, monkeypatch):
    calls = _count_zeta_integrals(monkeypatch)
    l, d = np.full(6, 0.5), np.linspace(1.0, 4.0, 6)
    for batch in range(1, 4):
        _scan_margins(alignment, ConeParameter(nu), l, d * batch, GAP, DEFAULT_TOL)
        assert len(calls) == batch
    _scan_margins(alignment, ConeParameter(3.0), l, d, GAP, DEFAULT_TOL)
    assert len(calls) == 3


def _count_branch_evaluations(monkeypatch):
    """Count the zeta integrand's passes and the coefficient-branch evaluations made in them."""
    counts = {"passes": 0, "branches": 0}
    factory = correlation.zeta_coefficient
    integrate = correlation.integrate_semi_infinite

    def counting_factory(*branch):
        coefficient = factory(*branch)

        def counted(zeta):
            counts["branches"] += 1
            return coefficient(zeta)
        return counted

    def counting_integrate(integrand, **kwargs):
        def counted(zeta):
            counts["passes"] += 1
            return integrand(zeta)
        return integrate(counted, **kwargs)

    monkeypatch.setattr(correlation, "zeta_coefficient", counting_factory)
    monkeypatch.setattr(correlation, "integrate_semi_infinite", counting_integrate)
    return counts


@pytest.mark.parametrize("alignment, branches", [
    # P_A, P_B and X share the same-side branch (nu, nu, 2); opposite-sides X
    # has its own, (nu, 2 nu, 1)
    (Alignment.PARALLEL, 1), (Alignment.ORTHOGONAL_SAME_SIDE, 1),
    (Alignment.ORTHOGONAL_OPPOSITE_SIDES, 2),
])
def test_each_distinct_coefficient_branch_is_evaluated_once_per_pass(alignment, branches,
                                                                     monkeypatch):
    counts = _count_branch_evaluations(monkeypatch)
    concurrence(config(alignment, 0.5, 1.3), ConeParameter(2.7))
    assert counts["passes"] >= 1
    assert counts["branches"] == branches * counts["passes"]
    counts.update(passes=0, branches=0)
    l, d = np.full(6, 0.5), np.linspace(1.0, 4.0, 6)
    _scan_margins(alignment, ConeParameter(2.7), l, d, GAP, DEFAULT_TOL)
    assert counts["passes"] >= 1
    assert counts["branches"] == branches * counts["passes"]


@pytest.mark.parametrize("nu", [2.3, 5.7, 8.2])
@pytest.mark.parametrize("alignment", SCAN_ALIGNMENTS)
def test_concurrence_refines_its_zeta_integral_in_at_most_two_passes(alignment, nu, monkeypatch):
    # the integral starts on panels z_max 2^-k down to one decay length 1/nu
    # (quadrature.tail_edges); bisecting [0, z_max] toward 0 took six or seven
    passes = []
    gk15 = quadrature._gk15

    def counting(f, a, b):
        passes.append(a.size)
        return gk15(f, a, b)

    monkeypatch.setattr(quadrature, "_gk15", counting)
    concurrence(config(alignment, 0.5, 1.3), ConeParameter(nu))
    assert 1 <= len(passes) <= 2


# --- one kernel-formula call per image sum ---------------------------------------


def _count_image_formula_calls(monkeypatch):
    """Record the argument of every kernel-formula call made outside a zeta integral.

    Wraps the formula names that correlation's and response's kernels call
    (AUX_F's formula, response.response_kernel_formula); the calls inside
    integrate_semi_infinite are the zeta integrand's and are not recorded.
    """
    calls = []
    integrating = []
    integrate = correlation.integrate_semi_infinite

    def marked(*args, **kwargs):
        integrating.append(True)
        try:
            return integrate(*args, **kwargs)
        finally:
            integrating.pop()

    def counting(formula):
        def counted(z, gap):
            if not integrating:
                calls.append(np.array(z, copy=True))
            return formula(z, gap)
        return counted

    aux_f_kernel = correlation.AUX_F._replace(formula=counting(correlation.AUX_F.formula))
    monkeypatch.setattr(correlation, "integrate_semi_infinite", marked)
    monkeypatch.setattr(correlation, "AUX_F", aux_f_kernel)
    monkeypatch.setattr(entanglement, "AUX_F", aux_f_kernel)
    monkeypatch.setattr(response, "response_kernel_formula",
                        counting(response.response_kernel_formula))
    return calls


@pytest.mark.parametrize("nu, images", [(3.0, 1), (5.7, 2), (8.2, 4)])
@pytest.mark.parametrize("alignment", SCAN_ALIGNMENTS)
def test_concurrence_evaluates_each_image_sum_in_one_formula_call(alignment, nu, images,
                                                                  monkeypatch):
    calls = _count_image_formula_calls(monkeypatch)
    concurrence(config(alignment, 0.5, 1.3), ConeParameter(nu))
    # parts: P_A, P_B unless rho_B = rho_A, then X
    parts = 2 if alignment is Alignment.PARALLEL else 3
    assert [call.shape for call in calls] == [(images,)] * parts
    geo = pair_f_arguments(alignment, ConeParameter(nu), 0.5, 1.3)
    assert calls[-1].tolist() == [z for _, _, z in geo.image_args]


@pytest.mark.parametrize("nu", [3.0, 5.7])
@pytest.mark.parametrize("alignment", SCAN_ALIGNMENTS)
def test_scan_batch_evaluates_each_image_sum_in_one_formula_call(alignment, nu, monkeypatch):
    calls = _count_image_formula_calls(monkeypatch)
    # d_max's scan holds its fixed l scalar, so P_A (rho_A = l) is one point at every nu
    _scan_margins(alignment, ConeParameter(nu), 0.5, np.linspace(1.0, 4.0, 6), GAP, DEFAULT_TOL)
    parts = 2 if alignment is Alignment.PARALLEL else 3
    images = int(nu // 2)
    assert [call.shape for call in calls] == [(images,)] + [(images, 6)] * (parts - 1)


@pytest.mark.parametrize("nu", [3.0, 5.7])
@pytest.mark.parametrize("alignment", SCAN_ALIGNMENTS)
def test_expand_never_calls_a_checked_kernel(alignment, nu, monkeypatch):
    # nor do concurrence, the scan batch, d_max and x_string: their
    # parameters were validated where they entered, so X0 too runs unchecked
    def checked(*args, **kwargs):
        raise AssertionError("a checked kernel ran below a public entry")

    monkeypatch.setattr(special, "_check_finite", checked)
    for module in (special, correlation, response):
        for name in ("aux_f", "response_kernel"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, checked)
    cone = ConeParameter(nu)
    for l, d in ((0.5, 1.3), (np.full(4, 0.5), np.linspace(1.0, 4.0, 4))):
        rho_a, rho_b = radial_distances(alignment, l, d)
        part_a, part_b = (response.response_part(rho, cone, image_terms(cone))
                          for rho in (rho_a, rho_b))
        geo = pair_f_arguments(alignment, cone, l, d)
        expansions = correlation.expand([part_a, part_b, (correlation.AUX_F, geo)], GAP,
                                        DEFAULT_TOL)
        assert len(expansions) == 3
    pair = config(alignment, 0.5, 1.3)
    assert concurrence(pair, cone).abs_x == pytest.approx(abs(x_string(pair, cone).total), rel=1e-10)
    margins, _ = _scan_margins(alignment, cone, np.full(4, 0.5), np.linspace(1.0, 4.0, 4), GAP,
                               DEFAULT_TOL)
    assert not np.isnan(margins).any()
    assert d_max(alignment, cone, l=0.5, gap=GAP, grid_n=64).value is not None


# --- refusals before any row or scan -------------------------------------------


@pytest.mark.parametrize("solve", [
    lambda **kw: d_max(Alignment.PARALLEL, ConeParameter(3.0), l=0.5, gap=GAP, **kw),
    lambda **kw: opposite_sides_terminal_l(ConeParameter(3.0), GAP, **kw),
])
def test_scans_refuse_a_grid_above_the_sweep_cap_before_scanning(solve, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("a scan ran")

    monkeypatch.setattr("conical_harvest.entanglement._scan_margins", no_scan)
    for grid_n in (MAX_SWEEP_POINTS + 1, 10 ** 7):
        with pytest.raises(InvalidParameter, match="grid_n"):
            solve(grid_n=grid_n)


@pytest.mark.parametrize("result, field", [
    (DmaxResult(value=1.5, skipped=()), "value"),
    (SweepRow(param=0.5, p_a=None, p_b=None, abs_x=None, concurrence=None, diverged=True),
     "concurrence"),
])
def test_results_are_slotted_and_frozen(result, field):
    # a d_max curve or a 100k-row sweep holds many of them: no per-instance __dict__
    assert not hasattr(result, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(result, field, 2.0)


def test_d_max_refuses_a_length_whose_square_overflows():
    with pytest.raises(InvalidParameter, match="^d_hi must be at most"):
        d_max(Alignment.PARALLEL, ConeParameter(3.0), l=0.5, gap=GAP, d_hi=1e200)
    with pytest.raises(InvalidParameter, match="^l must be at most"):
        d_max(Alignment.PARALLEL, ConeParameter(3.0), l=1e200, gap=GAP)


# --- one rule for P_B, for (|X|, sqrt(P_A P_B)) and for the tolerances ----------


PAIR_POINTS = [(0.5, 1.2, GAP), (0.5, 1.0, GAP), (0.1, 0.5, 1.5)]


@pytest.mark.parametrize("l, d, gap", PAIR_POINTS)
@pytest.mark.parametrize("alignment", list(Alignment))
def test_response_pair_reuses_a_for_b_exactly_where_concurrence_does(alignment, l, d, gap):
    # opposite sides at d = 2l puts both detectors at rho = l
    l = 0.0 if alignment is Alignment.FLAT else l
    pair, cone = config(alignment, l, d, gap), ConeParameter(3.0)
    a, b = response_pair(pair, cone)
    result = concurrence(pair, cone)
    assert (b is a) is (result.response_b is result.response_a)
    rho_a, rho_b = radial_distances(alignment, l, d)
    assert (b is a) is (rho_a == rho_b)


@pytest.mark.parametrize("nu", [3.0, 2.5])
@pytest.mark.parametrize("l, d, gap", PAIR_POINTS)
@pytest.mark.parametrize("alignment", list(Alignment))
def test_concurrence_observables_give_the_search_margin_bit_for_bit(alignment, l, d, gap, nu):
    l = 0.0 if alignment is Alignment.FLAT else l
    cone = ConeParameter(nu)
    result = concurrence(config(alignment, l, d, gap), cone)
    assert result.abs_x - result.geo_mean_p == _margin(alignment, cone, l, d, gap, DEFAULT_TOL)
    assert result.concurrence == 2.0 * max(0.0, result.abs_x - result.geo_mean_p)


def test_concurrence_result_has_no_diverged_field():
    assert "diverged" not in {f.name for f in dataclasses.fields(entanglement.ConcurrenceResult)}


PARALLEL_NU3 = (config(Alignment.PARALLEL, 0.5, 1.0, 0.1), ConeParameter(3.0))


@pytest.mark.parametrize("call", [
    lambda tol: concurrence(*PARALLEL_NU3, tol=tol),
    lambda tol: x_string(*PARALLEL_NU3, tol=tol),
    lambda tol: response.p_string(0.5, ConeParameter(3.0), 0.1, tol=tol),
    lambda tol: d_max(Alignment.PARALLEL, ConeParameter(3.0), 0.5, 0.1, grid_n=32, quad_tol=tol),
    lambda tol: opposite_sides_terminal_l(ConeParameter(3.0), 0.1, grid_n=32, quad_tol=tol),
    lambda tol: build_figure("fig8a", tol=tol),
], ids=["concurrence", "x_string", "p_string", "d_max", "terminal_l", "fig8a"])
@pytest.mark.parametrize("tol", [NAN, -1.0, 0.0, INF])
def test_a_bad_quadrature_tolerance_is_refused_at_integer_nu(call, tol):
    # integer nu runs no zeta integral, so expand checks tol itself
    with pytest.raises(InvalidParameter, match="^quadrature tolerance tol must be finite and > 0"):
        call(tol)


@pytest.mark.parametrize("tol", [NAN, -1.0, 0.0, INF])
def test_nu_extremum_refuses_a_bad_search_tolerance_before_any_margin(tol, monkeypatch):
    calls = _spy_margin_points(monkeypatch)
    with pytest.raises(InvalidParameter, match="^root tolerance tol must be finite and > 0"):
        nu_extremum("concurrence", config(Alignment.PARALLEL, 0.5, 1.0), Bracket(2.0, 4.0),
                    tol=tol)
    assert not calls


@pytest.mark.parametrize("call", [
    lambda: d_max("opposite", ConeParameter(3.0), l=0.5, gap=0.1),
    lambda: concurrence(PairConfig("orthogonal", 0.5, 1.2, 0.1), ConeParameter(3.0)),
    lambda: sweep("orthogonal", ConeParameter(3.0), "d", [0.5, 1.0], l=0.1, gap=GAP),
], ids=["d_max", "concurrence", "sweep"])
def test_an_alignment_name_is_refused_not_read_as_parallel(call, monkeypatch):
    # a name string was the parallel case: d_max 1.6009 (opposite sides 2.6633),
    # |X| 0.25738 (orthogonal 0.19826), and parallel sweep rows
    rows = []
    monkeypatch.setattr(entanglement, "_sweep_row", lambda *args: rows.append(args))
    with pytest.raises(InvalidParameter, match=r"^alignment must be an Alignment, got '\w+'; "
                                               r"Alignment\.from_string converts a name$"):
        call()
    assert not rows


@pytest.mark.parametrize("call", [
    lambda: concurrence(PairConfig(Alignment.PARALLEL, 0.5, 1.2, 0.1), 3.0),
    lambda: x_string(PairConfig(Alignment.PARALLEL, 0.5, 1.2, 0.1), 3.0),
    lambda: response.p_string(0.5, 3.0, 0.1),
    lambda: d_max(Alignment.PARALLEL, 3.0, l=0.5, gap=0.1),
    lambda: sweep(Alignment.PARALLEL, 3.0, "d", [0.5, 1.0], l=0.1, gap=GAP),
    lambda: sweep(Alignment.BOUNDARY_PARALLEL, 3.0, "d", [0.5, 1.0], l=0.1, gap=GAP),
    lambda: image_terms(3.0),
], ids=["concurrence", "x_string", "p_string", "d_max", "sweep", "sweep-boundary",
        "image_terms"])
def test_a_cone_that_is_not_a_cone_parameter_is_refused(call):
    # each failed with AttributeError: 'float' object has no attribute 'image_count' (or 'nu')
    with pytest.raises(InvalidParameter, match="^cone must be a ConeParameter, got 3.0$"):
        call()
