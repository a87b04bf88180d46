"""Property tests of the merged image expansion behind concurrence and the d_max scan.

concurrence runs the zeta integrals of P_A, P_B and X on one adaptive
subdivision, which p_string and x_string refine for each quantity alone; both
meet the quadrature tolerance, so they agree far inside it.  A scan batch runs
the same evaluator on many points and must agree with concurrence to rounding.
At the default tolerance each zeta integral stays within it of a 1e-13
reference.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conical_harvest.correlation import x_string
from conical_harvest.entanglement import _scan_margins, concurrence
from conical_harvest.geometry import Alignment, ConeParameter, PairConfig, radial_pair
from conical_harvest.quadrature import DEFAULT_TOL
from conical_harvest.response import p_string

STRING_ALIGNMENTS = [Alignment.PARALLEL, Alignment.ORTHOGONAL_SAME_SIDE,
                     Alignment.ORTHOGONAL_OPPOSITE_SIDES]


def _off_half_integers(nu):
    # near a multiple of 1/2 a zeta coefficient vanishes or peaks (ROADMAP item 3)
    return abs(nu - 0.5 * round(2.0 * nu)) >= 0.02


@st.composite
def pairs(draw, max_gap=1.0):
    alignment = draw(st.sampled_from(STRING_ALIGNMENTS))
    l = draw(st.floats(0.05, 2.0))
    if alignment is Alignment.ORTHOGONAL_OPPOSITE_SIDES:
        d = 2.0 * l + draw(st.floats(0.0, 3.0))
    else:
        d = draw(st.floats(0.05, 4.0))
    gap = draw(st.floats(0.0, max_gap))
    nu = draw(st.floats(1.05, 9.5).filter(_off_half_integers))
    return PairConfig(alignment, l=l, d=d, gap=gap), ConeParameter(nu)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(pairs())
def test_concurrence_breakdowns_match_each_quantity_alone(pair):
    config, cone = pair
    result = concurrence(config, cone)
    rho_a, rho_b = radial_pair(config)
    for merged, rho in ((result.response_a, rho_a), (result.response_b, rho_b)):
        alone = p_string(rho, cone, config.gap)
        assert merged.p_flat == alone.p_flat
        assert merged.p_images == alone.p_images
        assert abs(merged.p_integral - alone.p_integral) <= 1e-11
    alone = x_string(config, cone)
    assert result.correlation.x_flat == alone.x_flat
    assert result.correlation.x_images == alone.x_images
    assert abs(result.correlation.x_integral - alone.x_integral) <= 1e-11


@settings(derandomize=True, max_examples=50, deadline=None)
@given(pairs(), st.floats(0.1, 2.0))
def test_scan_margin_rows_equal_scalar_concurrence(pair, spread):
    # the drawn point and two more along its d axis, as the d_max scan batches them
    config, cone = pair
    d = config.d + spread * np.arange(3.0)
    l = np.full(3, config.l)
    margins, skipped = _scan_margins(config.alignment, cone, l, d, config.gap, DEFAULT_TOL)
    assert skipped == []
    for di, margin in zip(d, margins):
        result = concurrence(PairConfig(config.alignment, l=config.l, d=float(di), gap=config.gap),
                             cone)
        assert abs(margin - (result.abs_x - result.geo_mean_p)) <= 1e-14


@settings(derandomize=True, max_examples=100, deadline=None)
@given(pairs(max_gap=3.0))
def test_zeta_integrals_match_a_tight_reference(pair):
    # the geometric start panels (quadrature.tail_edges) refine in one or two
    # passes; the default tolerance still holds against a 1e-13 reference
    config, cone = pair
    for rho in radial_pair(config):
        tight = p_string(rho, cone, config.gap, tol=1e-13).p_integral
        assert abs(p_string(rho, cone, config.gap).p_integral - tight) <= 1e-10
    tight = x_string(config, cone, tol=1e-13).x_integral
    assert abs(x_string(config, cone).x_integral - tight) <= 1e-10
