"""Property tests of production P against Linet's closed-form Wightman function.

oracle.p_closed_form_oracle sums the analytic Wightman function on a contour
below the real axis; it shares no code with p_string's image sum and zeta
integral, and is analytic in nu, so it holds p_string to 1e-10 across
integers, near them (nu = k +- 10^-j) and from the string (rho = 1e-6) out to
rho = 1e3, where P has relaxed to P0.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from conical_harvest import oracle
from conical_harvest.geometry import NU_MAX, ConeParameter
from conical_harvest.response import p_flat, p_string


@st.composite
def cone_parameters(draw):
    """nu uniform in [1, NU_MAX], or an integer k +- 10^-j, j = 3..12."""
    if draw(st.booleans()):
        return draw(st.floats(1.0, NU_MAX))
    k = draw(st.integers(1, int(NU_MAX)))
    offset = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** -draw(st.integers(3, 12))
    return min(max(k + offset, 1.0), NU_MAX)


log_rho = st.floats(math.log10(1e-6), math.log10(1e3))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cone_parameters(), log_rho, st.floats(0.0, 3.0))
def test_p_string_matches_the_closed_form(nu, log10_rho, gap):
    rho = 10.0 ** log10_rho
    cone = ConeParameter(nu)
    want = oracle.p_closed_form_oracle(rho, cone, gap)
    assert abs(p_string(rho, cone, gap).total - want) <= 1e-10 * abs(want)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(cone_parameters(), log_rho, st.floats(1.05, 4.0), st.floats(0.0, 3.0))
def test_p_decreases_as_rho_grows(nu, log10_rho, factor, gap):
    # nu >= 2 adds images that each lift P at small rho; at nu < 2 the zeta
    # part does, so P falls from nu P0 to P0 for every nu > 1
    rho = 10.0 ** log10_rho
    cone = ConeParameter(nu)
    near, far = p_string(rho, cone, gap).total, p_string(factor * rho, cone, gap).total
    assert far <= near * (1.0 + 1e-12)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(cone_parameters(), st.floats(0.0, 3.0))
def test_p_at_the_string_is_nu_p0(nu, gap):
    cone = ConeParameter(nu)
    want = cone.nu * p_flat(gap)
    assert abs(p_string(1e-6, cone, gap).total - want) <= 1e-6 * want
    assert abs(oracle.p_closed_form_oracle(1e-6, cone, gap) - want) <= 1e-6 * want
