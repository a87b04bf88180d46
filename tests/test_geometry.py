import math

import numpy as np
import pytest

from conical_harvest.errors import InvalidParameter
from conical_harvest.geometry import (
    MAX_LENGTH,
    Alignment,
    ConeParameter,
    PairConfig,
    f_arguments,
    image_f_arguments,
    image_set,
    image_terms,
    pair_f_arguments,
    radial_pair,
    zeta_branches,
)
from conical_harvest.response import response_part


def test_cone_parameter_bounds():
    with pytest.raises(InvalidParameter):
        ConeParameter(0.5)
    with pytest.raises(InvalidParameter):
        ConeParameter(65.0)
    with pytest.raises(InvalidParameter):
        ConeParameter(float("nan"))
    assert ConeParameter(1.0).nu == 1.0


def test_cone_parameter_derived():
    cone = ConeParameter(2.0)
    assert cone.deficit_angle == pytest.approx(math.pi)
    assert cone.string_tension_Gmu == pytest.approx(0.125)
    assert ConeParameter(1.0).deficit_angle == 0.0
    assert ConeParameter(1.0).string_tension_Gmu == 0.0


def test_integer_snap():
    assert ConeParameter(3.0 + 5e-13).is_integer
    assert ConeParameter(3.0 + 5e-13).nu == 3.0
    assert not ConeParameter(3.0 + 1e-6).is_integer
    assert not ConeParameter(2.5).is_integer
    # a zeta-coefficient branch vanishes iff its beta is an integer
    assert zeta_branches(2.5) == ((2.5, 2.5, 2),) and zeta_branches(2.5, opposite=True) == ()


def test_image_terms_flat_is_empty():
    assert image_terms(ConeParameter(1.0)) == ()
    assert image_terms(ConeParameter(1.9)) == ()


def test_image_terms_even_half_weight():
    terms = image_terms(ConeParameter(4.0))
    assert [(t.m, t.weight) for t in terms] == [(1, 1.0), (2, 0.5)]
    assert terms[0].sin_term == pytest.approx(math.sin(math.pi / 4))
    assert terms[1].sin_term == pytest.approx(1.0)


def test_image_terms_odd():
    terms = image_terms(ConeParameter(3.0))
    assert [(t.m, t.weight) for t in terms] == [(1, 1.0)]
    assert terms[0].sin_term == pytest.approx(math.sin(math.pi / 3))


@pytest.mark.parametrize("nu", [1.0, 1.7, 2.0, 2.5, 3.0, 4.0, 9.2, 11.0, 64.0])
def test_image_terms_count_and_weight_sum(nu):
    cone = ConeParameter(nu)
    terms = image_terms(cone)
    assert len(terms) == math.floor(nu / 2)
    even_integer = cone.is_integer and round(nu) % 2 == 0
    expected = math.floor(nu / 2) - (0.5 if even_integer else 0.0)
    assert sum(t.weight for t in terms) == pytest.approx(expected)
    assert all(0.0 < t.sin_term <= 1.0 for t in terms)


def test_one_sided_branches_at_even_integer():
    # approaching nu = 4 from below vs above differs by one image term
    assert len(image_terms(ConeParameter(4.0 - 1e-6))) == 1
    assert len(image_terms(ConeParameter(4.0 + 1e-6))) == 2
    at_four = image_terms(ConeParameter(4.0))
    assert len(at_four) == 2 and at_four[-1].weight == 0.5
    assert image_terms(ConeParameter(4.0 + 1e-6))[-1].weight == 1.0


@pytest.mark.parametrize("nu", [1.0, 2.5, 3.0, 7.3])
def test_image_set_per_alignment(nu):
    cone = ConeParameter(nu)
    for alignment in (Alignment.PARALLEL, Alignment.ORTHOGONAL_SAME_SIDE,
                      Alignment.ORTHOGONAL_OPPOSITE_SIDES):
        assert image_set(alignment, cone) == (cone, image_terms(cone))
    assert image_set(Alignment.FLAT, cone) == (ConeParameter(1.0), ())
    assert pair_f_arguments(Alignment.FLAT, cone, 0.3, 0.8).zeta_vanishes
    # a reflecting plane is the nu = 2 cone with its half-weight image subtracted
    (string_image,) = image_terms(ConeParameter(2.0))
    for alignment in (Alignment.BOUNDARY_PARALLEL, Alignment.BOUNDARY_ORTHOGONAL):
        seen, (image,) = image_set(alignment, cone)
        assert seen == ConeParameter(2.0)
        assert (image.m, image.weight, image.sin_term) == (1, -string_image.weight, 1.0)
        assert pair_f_arguments(alignment, cone, 0.3, 0.8).zeta_vanishes


def test_f_arguments_boundary_reflected_image():
    par = f_arguments(PairConfig(Alignment.BOUNDARY_PARALLEL, l=0.3, d=0.8, gap=0.1),
                      ConeParameter(2.5))
    assert par.image_args == ((0, 0.5, 0.4), (1, -0.5, math.sqrt(0.16 + 0.09)))
    assert par.zeta_vanishes
    orth = f_arguments(PairConfig(Alignment.BOUNDARY_ORTHOGONAL, l=0.3, d=0.8, gap=0.1),
                       ConeParameter(2.5))
    (direct, (m, weight, z)) = orth.image_args
    assert direct == (0, 0.5, 0.4)
    assert (m, weight) == (1, -0.5) and z == pytest.approx(0.4 + 0.3, rel=1e-15)
    assert orth.zeta_vanishes


def test_radial_pair():
    assert radial_pair(PairConfig(Alignment.PARALLEL, l=0.1, d=0.5, gap=0.1)) == (0.1, 0.1)
    assert radial_pair(PairConfig(Alignment.ORTHOGONAL_SAME_SIDE, l=0.1, d=0.5, gap=0.1)) == (0.1, 0.6)
    assert radial_pair(PairConfig(Alignment.ORTHOGONAL_OPPOSITE_SIDES, l=1.0, d=2.5, gap=0.1)) == (1.0, 1.5)
    assert radial_pair(PairConfig(Alignment.BOUNDARY_ORTHOGONAL, l=0.2, d=0.3, gap=0.1)) == (0.2, 0.5)
    assert radial_pair(PairConfig(Alignment.FLAT, l=0.0, d=1.0, gap=0.1)) == (0.0, 0.0)


def test_same_side_rho_ordering():
    for alignment in (Alignment.PARALLEL, Alignment.ORTHOGONAL_SAME_SIDE):
        rho_a, rho_b = radial_pair(PairConfig(alignment, l=0.3, d=0.8, gap=0.1))
        assert 0.0 <= rho_a <= rho_b


def test_pair_config_validation():
    with pytest.raises(InvalidParameter):
        PairConfig(Alignment.ORTHOGONAL_OPPOSITE_SIDES, l=1.0, d=1.5, gap=0.1)
    with pytest.raises(InvalidParameter):
        PairConfig(Alignment.ORTHOGONAL_OPPOSITE_SIDES, l=0.0, d=1.0, gap=0.1)
    with pytest.raises(InvalidParameter):
        PairConfig(Alignment.PARALLEL, l=-0.1, d=1.0, gap=0.1)
    with pytest.raises(InvalidParameter):
        PairConfig(Alignment.PARALLEL, l=0.1, d=0.0, gap=0.1)
    with pytest.raises(InvalidParameter):
        PairConfig(Alignment.PARALLEL, l=0.1, d=1.0, gap=-0.1)
    # symmetric opposite-sides (d = 2l) is allowed
    PairConfig(Alignment.ORTHOGONAL_OPPOSITE_SIDES, l=1.0, d=2.0, gap=0.1)


def test_alignment_from_string():
    assert Alignment.from_string("parallel") is Alignment.PARALLEL
    with pytest.raises(InvalidParameter):
        Alignment.from_string("diagonal")


def test_f_arguments_parallel_on_string():
    geo = f_arguments(PairConfig(Alignment.PARALLEL, l=0.0, d=0.8, gap=0.1), ConeParameter(3.0))
    assert geo.image_args == ((0, 0.5, 0.4), (1, 1.0, pytest.approx(0.4)))
    assert geo.zeta_vanishes  # integer nu


def test_f_arguments_opposite_symmetric():
    geo = f_arguments(PairConfig(Alignment.ORTHOGONAL_OPPOSITE_SIDES, l=1.0, d=2.0, gap=0.1),
                      ConeParameter(3.0))
    (direct, (m, weight, z)) = geo.image_args
    assert direct == (0, 0.5, 1.0)   # d/2
    assert (m, weight) == (1, 1.0)
    assert z == pytest.approx(math.cos(math.pi / 3))  # = 0.5


def test_f_arguments_opposite_even_nu_overlap():
    geo = f_arguments(PairConfig(Alignment.ORTHOGONAL_OPPOSITE_SIDES, l=1.0, d=2.0, gap=0.1),
                      ConeParameter(4.0))
    assert geo.image_args[-1][2] == pytest.approx(0.0, abs=1e-12)


def test_f_arguments_all_nonnegative_finite():
    configs = [
        (Alignment.PARALLEL, 0.3, 0.7, 2.7),
        (Alignment.ORTHOGONAL_SAME_SIDE, 0.3, 0.7, 4.0),
        (Alignment.ORTHOGONAL_OPPOSITE_SIDES, 0.3, 0.9, 9.2),
    ]
    for alignment, l, d, nu in configs:
        geo = f_arguments(PairConfig(alignment, l=l, d=d, gap=0.1), ConeParameter(nu))
        for _, weight, z in geo.image_args:
            assert weight in (0.5, 1.0)
            assert np.isfinite(z) and z >= 0.0


def test_zeta_coefficient_vanishing_rules():
    parallel = PairConfig(Alignment.PARALLEL, l=0.5, d=0.5, gap=0.1)
    opposite = PairConfig(Alignment.ORTHOGONAL_OPPOSITE_SIDES, l=0.2, d=1.0, gap=0.1)
    # same side: zero exactly at integer nu
    assert f_arguments(parallel, ConeParameter(3.0)).zeta_vanishes
    assert not f_arguments(parallel, ConeParameter(2.5)).zeta_vanishes
    # opposite sides: zero at integer and half-integer nu
    assert f_arguments(opposite, ConeParameter(3.0)).zeta_vanishes
    assert f_arguments(opposite, ConeParameter(2.5)).zeta_vanishes
    assert not f_arguments(opposite, ConeParameter(2.7)).zeta_vanishes
    # a vanishing integral gets no zeta pieces built
    geo = f_arguments(opposite, ConeParameter(2.5))
    assert (geo.zeta_argument, geo.zeta_branches) == (None, ())


def test_zeta_argument_forms():
    # same side: z(0)^2 = d^2/4 + rho_A rho_B; opposite: z(0) = d/2
    geo = f_arguments(PairConfig(Alignment.ORTHOGONAL_SAME_SIDE, l=0.4, d=0.6, gap=0.1),
                      ConeParameter(2.5))
    assert geo.zeta_argument(np.array([0.0]))[0] == pytest.approx(
        math.sqrt(0.09 + 0.4 * 1.0))
    geo = f_arguments(PairConfig(Alignment.ORTHOGONAL_OPPOSITE_SIDES, l=0.4, d=1.0, gap=0.1),
                      ConeParameter(2.7))
    assert geo.zeta_argument(np.array([0.0]))[0] == pytest.approx(0.5)


@pytest.mark.parametrize("nu", [1.5, 2.5, 3.0, 4.0, 7.3])
def test_self_f_arguments_forms(nu):
    # a detector with itself is the same-side pair at d = 0, rho_A = rho_B = rho:
    # z_m = sqrt(rho^2 sin^2(m pi/nu)) = rho sin(m pi/nu), z(zeta) = rho cosh(zeta/2)
    cone = ConeParameter(nu)
    terms = image_terms(cone)
    _, geo = response_part(0.7, cone, terms)
    pair = image_f_arguments(cone, terms, 0.7, 0.7, 0.0)
    assert geo.image_args == pair.image_args
    assert [z for _, _, z in geo.image_args] == pytest.approx([0.7 * t.sin_term for t in terms],
                                                              rel=1e-15)
    assert geo.zeta_vanishes == cone.is_integer
    if cone.is_integer:
        assert (geo.zeta_argument, geo.zeta_branches) == (None, ())
        return
    zeta = np.array([0.0, 1.0])
    assert np.array_equal(geo.zeta_argument(zeta), pair.zeta_argument(zeta))
    assert geo.zeta_branches == pair.zeta_branches == ((nu, nu, 2),)
    assert np.allclose(geo.zeta_argument(zeta), 0.7 * np.cosh(zeta / 2.0), rtol=1e-15, atol=0.0)
    # an array of distances gives one row per entry, repeated ones included
    _, rows = response_part(np.array([0.7, 0.2, 0.7]), cone, terms)
    assert rows.zeta_argument(zeta).shape == (3, 2)
    for i in (0, 2):
        assert np.array_equal(rows.zeta_argument(zeta)[i], geo.zeta_argument(zeta))


@pytest.mark.parametrize("name", ["l", "d"])
def test_pair_config_refuses_a_length_whose_square_overflows(name):
    # a length at the bound still squares to a finite number; past it, refused by name
    lengths = {"l": 0.5, "d": 1.0}
    PairConfig(Alignment.PARALLEL, gap=0.1, **dict(lengths, **{name: MAX_LENGTH}))
    with pytest.raises(InvalidParameter, match=f"^{name} must be at most"):
        PairConfig(Alignment.PARALLEL, gap=0.1, **dict(lengths, **{name: 1e200}))
