"""Every input the validators accept gets a finite answer or a labelled error.

The draw covers the accepted domain: all six alignments; nu over [1, 64],
its integers and k +/- 10^-j for j up to 12, where the zeta coefficient peaks;
l, d and gap each from a moderate range, a log-uniform one or the whole range
that geometry's validators accept.  A call must return a finite value or
raise DivergentOverlap (a detector on an image of its partner) or
InvalidParameter (an input outside the representation, such as opposite sides
with d < 2l).  A numerical failure (ToleranceNotMet, QuadratureFailure) or
any other error breaks the contract.  Time bounds and a closed-form sample of
the values are not checked here.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from conical_harvest.entanglement import concurrence, d_max
from conical_harvest.errors import DivergentOverlap, InvalidParameter
from conical_harvest.geometry import MAX_LENGTH, NU_MAX, Alignment, ConeParameter, PairConfig

NEAR_INTEGER = st.builds(lambda k, j, sign: k + sign * 10.0 ** -j,
                         st.integers(1, int(NU_MAX)), st.integers(1, 12),
                         st.sampled_from([-1.0, 1.0])).filter(lambda nu: 1.0 <= nu <= NU_MAX)
NUS = st.floats(1.0, NU_MAX) | st.integers(1, int(NU_MAX)).map(float) | NEAR_INTEGER
DECADES = st.floats(-12.0, 2.0).map(lambda e: 10.0 ** e)
LENGTHS = st.floats(0.0, 10.0) | DECADES | st.floats(0.0, MAX_LENGTH)
POSITIVE_LENGTHS = (st.floats(0.0, 10.0, exclude_min=True) | DECADES
                    | st.floats(0.0, MAX_LENGTH, exclude_min=True))
GAPS = st.floats(0.0, 3.0) | st.floats(0.0, 30.0) | st.floats(0.0, allow_infinity=False)


@st.composite
def accepted_points(draw):
    """(alignment, nu, l, d, gap); opposite sides draws d from 2l on."""
    alignment = draw(st.sampled_from(list(Alignment)))
    l = draw(LENGTHS)
    if alignment is Alignment.ORTHOGONAL_OPPOSITE_SIDES:
        d = min(2.0 * l + draw(LENGTHS), MAX_LENGTH)
    else:
        d = draw(POSITIVE_LENGTHS)
    return alignment, draw(NUS), l, d, draw(GAPS)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(accepted_points())
def test_concurrence_is_finite_or_a_labelled_error(point):
    alignment, nu, l, d, gap = point
    try:
        value = concurrence(PairConfig(alignment, l=l, d=d, gap=gap), ConeParameter(nu)).concurrence
    except (DivergentOverlap, InvalidParameter):
        return
    assert math.isfinite(value) and value >= 0.0, (point, value)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(accepted_points())
def test_d_max_is_finite_or_a_labelled_error(point):
    alignment, nu, l, _, gap = point
    try:
        result = d_max(alignment, ConeParameter(nu), l, gap)
    except (DivergentOverlap, InvalidParameter):
        return
    assert result.value is None or 0.0 < result.value <= 8.0, (point, result.value)
