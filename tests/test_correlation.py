import math

import numpy as np
import pytest

from conical_harvest.correlation import (
    AUX_F, check_overlap, correlation_for, expand, x_boundary, x_flat, x_string)
from conical_harvest.errors import DivergentOverlap, InvalidParameter
from conical_harvest.geometry import (
    Alignment,
    ConeParameter,
    PairConfig,
    coefficient_breakpoints,
    f_arguments,
    pair_f_arguments,
    zeta_coefficient,
)
from conical_harvest.quadrature import DEFAULT_TOL, integrate_adaptive, tail_cutoff, tail_edges
from conical_harvest.special import aux_f, erfc_complex

GAP = 0.1


def parallel(l, d, gap=GAP):
    return PairConfig(Alignment.PARALLEL, l=l, d=d, gap=gap)


def opposite(l, d, gap=GAP):
    return PairConfig(Alignment.ORTHOGONAL_OPPOSITE_SIDES, l=l, d=d, gap=gap)


def test_x_flat_matches_explicit_erfc_form():
    d = 0.5
    explicit = (-1j / (4 * math.sqrt(math.pi) * d) * math.exp(-GAP * GAP - d * d / 4)
                * erfc_complex(1j * d / 2))
    assert x_flat(d, GAP) == pytest.approx(explicit, rel=1e-12)
    assert abs(x_flat(d, GAP)) == pytest.approx(abs(explicit), rel=1e-12)


def test_x_flat_monotone_decay():
    assert abs(x_flat(8.0, GAP)) < abs(x_flat(4.0, GAP)) < abs(x_flat(1.0, GAP))


def test_x_flat_divergence():
    with pytest.raises(DivergentOverlap):
        x_flat(1e-12, GAP)


def test_parallel_on_string_is_nu_times_flat():
    breakdown = x_string(parallel(0.0, 0.5), ConeParameter(3.0))
    assert breakdown.total == pytest.approx(3.0 * x_flat(0.5, GAP), abs=1e-10)
    # non-integer nu satisfies the same identity through the zeta integral
    breakdown = x_string(parallel(0.0, 0.5), ConeParameter(2.5))
    assert breakdown.total == pytest.approx(2.5 * x_flat(0.5, GAP), rel=1e-9)


def test_flat_reduction():
    for config in (parallel(0.7, 0.5), opposite(0.2, 1.0)):
        breakdown = x_string(config, ConeParameter(1.0))
        assert breakdown.total == x_flat(config.d, GAP)
        assert breakdown.x_images == 0.0
        assert breakdown.x_integral == 0.0


def test_breakdown_total_identity():
    b = x_string(parallel(0.5, 0.5), ConeParameter(2.7))
    assert b.total == b.x_flat + b.x_images + b.x_integral
    assert b.x_integral != 0.0


def test_integral_part_vanishes_exactly():
    # same side: zero at integer nu; opposite sides: zero at integer and half-integer
    assert x_string(parallel(0.5, 0.5), ConeParameter(3.0)).x_integral == 0.0
    assert x_string(opposite(0.3, 1.0), ConeParameter(3.0)).x_integral == 0.0
    assert x_string(opposite(0.3, 1.0), ConeParameter(2.5)).x_integral == 0.0
    assert x_string(opposite(0.3, 1.0), ConeParameter(2.7)).x_integral != 0.0


@pytest.mark.parametrize("nu", [4.0, 6.0, 8.0])
def test_opposite_even_nu_overlap_raises_with_index(nu):
    # the overlapping image is the last of the nu/2 stacked image arguments
    with pytest.raises(DivergentOverlap) as info:
        x_string(opposite(1.0, 2.0), ConeParameter(nu))
    assert info.value.image_index == nu / 2
    assert info.value.argument == 6.123233995736766e-17
    # odd nu at the same geometry is finite
    total = x_string(opposite(1.0, 2.0), ConeParameter(3.0)).total
    assert np.isfinite(total.real) and np.isfinite(total.imag)


def test_batch_overlap_raises_with_the_first_overlapping_image_and_point():
    # the overlap rule on a batch whose second and third points sit on
    # image m = 2 of nu = 4
    l, d = np.array([0.5, 1.0, 0.7]), np.array([1.5, 2.0, 1.4])
    geo = pair_f_arguments(Alignment.ORTHOGONAL_OPPOSITE_SIDES, ConeParameter(4.0), l, d)
    with pytest.raises(DivergentOverlap) as info:
        check_overlap(d, geo.image_args)
    assert info.value.image_index == 2
    assert info.value.argument == geo.image_args[1][2][1]


def test_parallel_exceeds_orthogonal_at_small_separation():
    cfg_par = parallel(0.1, 0.1)
    cfg_orth = PairConfig(Alignment.ORTHOGONAL_SAME_SIDE, l=0.1, d=0.1, gap=GAP)
    cone = ConeParameter(2.0)
    assert abs(x_string(cfg_par, cone).total) > abs(x_string(cfg_orth, cone).total)


def test_parallel_small_l_expansion():
    # X_P ~ nu X0 - nu (l^2/d^2 + l^2/2) X0 - e^{-g^2} l^2 nu/(4 pi d^2)
    l, d, nu = 0.05, 0.5, 3.0
    x0 = x_flat(d, GAP)
    expansion = (nu * x0 - nu * (l * l / (d * d) + l * l / 2.0) * x0
                 - math.exp(-GAP * GAP) * l * l * nu / (4.0 * math.pi * d * d))
    total = x_string(parallel(l, d), ConeParameter(nu)).total
    assert abs(total - expansion) / abs(total) < 0.01


@pytest.mark.parametrize("nu", [3.0, 2.5])
def test_opposite_small_l_branch_formula(nu):
    # branch coefficient: nu (integer) or 1 + 2 floor(nu/2) - arctan(cot(nu pi))/pi;
    # the argument shift is linear in l, so convergence is first order: ~4% at
    # l = 0.03 and under 0.5% by l = 0.003
    d = 1.0
    if nu == round(nu):
        coefficient = nu
    else:
        coefficient = 1.0 + 2.0 * math.floor(nu / 2.0) - math.atan(1.0 / math.tan(nu * math.pi)) / math.pi
    reference = coefficient * x_flat(d, GAP)

    def rel(l):
        total = x_string(opposite(l, d), ConeParameter(nu)).total
        return abs(total - reference) / abs(total)

    assert rel(0.03) < 0.05
    assert rel(0.003) < 0.005
    assert rel(0.003) < rel(0.03) / 5.0  # first-order shrinkage


def test_gap_suppression():
    # every term scales by exp(-gap^2), so gap=3 suppresses |X| by e^{-9} < e^{-8}
    for config_zero, config_three, nu in (
            (parallel(0.5, 0.5, gap=0.0), parallel(0.5, 0.5, gap=3.0), 2.5),
            (opposite(0.3, 1.0, gap=0.0), opposite(0.3, 1.0, gap=3.0), 3.0)):
        cone = ConeParameter(nu)
        ratio = abs(x_string(config_three, cone).total) / abs(x_string(config_zero, cone).total)
        assert ratio < math.exp(-8)
        assert ratio == pytest.approx(math.exp(-9), rel=1e-6)


def test_x_boundary_limits():
    # at l = 0 the reflected image cancels X0 exactly
    cfg = PairConfig(Alignment.BOUNDARY_PARALLEL, l=0.0, d=0.8, gap=GAP)
    assert x_boundary(cfg) == pytest.approx(0.0, abs=1e-15)
    # far from the boundary the image argument diverges and X -> X0 (1/l^2 tail)
    cfg = PairConfig(Alignment.BOUNDARY_PARALLEL, l=1e5, d=0.8, gap=GAP)
    assert abs(x_boundary(cfg) - x_flat(0.8, GAP)) <= 1e-10


def test_x_boundary_alignments_distinct():
    par = PairConfig(Alignment.BOUNDARY_PARALLEL, l=0.5, d=0.5, gap=GAP)
    orth = PairConfig(Alignment.BOUNDARY_ORTHOGONAL, l=0.5, d=0.5, gap=GAP)
    assert x_boundary(par) != x_boundary(orth)
    # parallel image argument sqrt(1/16 + 1/4) < orthogonal 1/4 + 1/2
    assert abs(x_boundary(par)) < abs(x_boundary(orth))


def test_x_boundary_requires_boundary_alignment():
    with pytest.raises(InvalidParameter):
        x_boundary(parallel(0.5, 0.5))


def test_correlation_dispatch_uniform_breakdowns():
    flat = correlation_for(PairConfig(Alignment.FLAT, l=0.0, d=0.5, gap=GAP), ConeParameter(3.0))
    assert flat.total == x_flat(0.5, GAP)
    bd = correlation_for(PairConfig(Alignment.BOUNDARY_PARALLEL, l=0.5, d=0.5, gap=GAP),
                         ConeParameter(3.0))
    assert bd.total == pytest.approx(
        x_boundary(PairConfig(Alignment.BOUNDARY_PARALLEL, l=0.5, d=0.5, gap=GAP)), rel=1e-15)
    assert bd.x_flat == x_flat(0.5, GAP)


@pytest.mark.parametrize("boundary, twin", [
    (Alignment.BOUNDARY_PARALLEL, Alignment.PARALLEL),
    (Alignment.BOUNDARY_ORTHOGONAL, Alignment.ORTHOGONAL_SAME_SIDE),
])
@pytest.mark.parametrize("l, d, gap", [(0.5, 0.5, GAP), (0.05, 1.7, 1.5), (3.0, 0.2, 0.0)])
def test_boundary_is_the_subtracted_nu2_image(boundary, twin, l, d, gap):
    bd = correlation_for(PairConfig(boundary, l=l, d=d, gap=gap), ConeParameter(3.0))
    string = correlation_for(PairConfig(twin, l=l, d=d, gap=gap), ConeParameter(2.0))
    assert bd.x_images == -string.x_images != 0.0
    assert bd.x_flat == string.x_flat
    assert bd.x_integral == string.x_integral == 0.0


@pytest.mark.parametrize("alignment, nu", [
    (Alignment.PARALLEL, 4.0),
    (Alignment.ORTHOGONAL_SAME_SIDE, 5.5),
    (Alignment.ORTHOGONAL_OPPOSITE_SIDES, 3.7),
    (Alignment.BOUNDARY_ORTHOGONAL, 1.0),
    (Alignment.FLAT, 3.0),
])
def test_x_string_lists_its_image_terms(alignment, nu):
    config = PairConfig(alignment, l=0.4, d=1.1, gap=GAP)
    breakdown = x_string(config, ConeParameter(nu))
    images = 0.0 + 0.0j
    for (m, weight, z, term), (m_geo, weight_geo, z_geo) in zip(
            breakdown.image_terms, f_arguments(config, ConeParameter(nu)).image_args):
        assert (m, weight, z) == (m_geo, weight_geo, z_geo)
        assert term == 2.0 * weight * aux_f(z, GAP)
        images += term
    assert len(breakdown.image_terms) == len(f_arguments(config, ConeParameter(nu)).image_args)
    assert images == breakdown.x_images


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_x_string_rejects_a_bad_tolerance_by_name(tol):
    with pytest.raises(InvalidParameter, match="tol must be finite and > 0"):
        x_string(parallel(0.3, 0.5), ConeParameter(2.5), tol=tol)


def _two_row_x_integral(geo, gap, cone, tol=DEFAULT_TOL):
    """X_integral with real and imaginary parts stacked as rows of one adaptive pass.

    It starts from the panels integrate_semi_infinite starts from (tail_edges).
    """
    if geo.zeta_vanishes:
        return 0.0 + 0.0j
    (branch,) = geo.zeta_branches   # X has one branch, same side or opposite
    coefficient = zeta_coefficient(*branch)
    nu, beta, _ = branch

    def two_rows(zeta):
        w = np.asarray(coefficient(zeta) * aux_f(geo.zeta_argument(zeta), gap), dtype=complex)
        return np.stack([w.real, w.imag]).reshape(-1, w.shape[-1])

    vals, _, _ = integrate_adaptive(
        two_rows, 0.0, tail_cutoff(cone.nu, tol), tol,
        breakpoints=tail_edges(cone.nu, tol, coefficient_breakpoints(nu, beta * math.pi)))
    if vals.size == 2:
        return complex(vals[0], vals[1])
    k = vals.size // 2
    return vals[:k] + 1j * vals[k:]


@pytest.mark.parametrize("nu", [2.5, 3.7])
@pytest.mark.parametrize("alignment", [Alignment.PARALLEL, Alignment.ORTHOGONAL_SAME_SIDE,
                                       Alignment.ORTHOGONAL_OPPOSITE_SIDES])
def test_x_integral_is_the_two_row_integral_bit_for_bit(alignment, nu):
    cone = ConeParameter(nu)

    def x_integral(geo):
        return expand([(AUX_F, geo)], GAP, DEFAULT_TOL)[0][1]

    geo = f_arguments(PairConfig(alignment, l=0.5, d=1.3, gap=GAP), cone)
    one = x_integral(geo)
    assert type(one) is complex and one == _two_row_x_integral(geo, GAP, cone)
    batch = pair_f_arguments(alignment, cone, np.array([0.4, 0.5, 0.7]), np.array([1.1, 1.3, 2.0]))
    assert np.array_equal(x_integral(batch), _two_row_x_integral(batch, GAP, cone))
