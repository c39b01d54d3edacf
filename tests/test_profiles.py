import dataclasses
import math
import random
from fractions import Fraction

import pytest

from bnd.profiles import (
    PolarProfile,
    VarietySpec,
    chern_to_polar,
    ci_profile,
    evaluate_class,
    hyperplane_section_spec,
    polar_degrees,
)
from bnd.ring import SymbolSpec, declare_ring


def formula_ctx(m):
    syms = [SymbolSpec("h", 1)] + [SymbolSpec(f"p{i}", i) for i in range(1, m + 1)]
    return declare_ring(syms, truncation=m)


# -- spec validation ---------------------------------------------------------


def test_variety_spec_validation():
    s = VarietySpec(3, (2, 3))
    assert s.dim == 1 and s.codim == 2 and s.fundamental_degree == 6
    with pytest.raises(ValueError):
        VarietySpec(2, ())
    with pytest.raises(ValueError):
        VarietySpec(2, (2, 2, 2))
    with pytest.raises(ValueError):
        VarietySpec(3, (0, 2))
    for ambient, degrees, field in [
        (3, (2.5,), "degrees"), (3, (2, 2.0), "degrees"), (3.0, (2,), "ambient_dim"),
        (Fraction(3), (2,), "ambient_dim"), (3, (Fraction(2),), "degrees"),
        (True, (2,), "ambient_dim"), (3, (True, 2), "degrees"),
    ]:
        with pytest.raises(ValueError, match=f"^{field} must be"):
            VarietySpec(ambient, degrees)


def test_section_spec_drops_ambient():
    s = VarietySpec(4, (2, 3), affine=True)
    t = hyperplane_section_spec(s)
    assert t == VarietySpec(3, (2, 3), affine=False)
    with pytest.raises(ValueError):
        hyperplane_section_spec(VarietySpec(2, (2, 5)))


# -- known profiles ----------------------------------------------------------


def test_plane_curve_profile():
    for d in range(1, 9):
        p = ci_profile(VarietySpec(2, (d,)))
        assert p.chern_coeffs == (1, 3 - d)
        assert p.polar_coeffs == (1, d - 1)
        assert polar_degrees(p) == (d, d * (d - 1))


def test_quadric_surface_profile():
    p = ci_profile(VarietySpec(3, (2,)))
    assert p.chern_coeffs == (1, 2, 2)
    assert p.polar_coeffs == (1, 1, 1)
    assert polar_degrees(p) == (2, 2, 2)


def test_space_curve_profile():
    p = ci_profile(VarietySpec(3, (2, 3)))
    assert p.m == 1
    assert p.fundamental_degree == 6
    assert p.chern_coeffs == (1, -1)
    assert polar_degrees(p) == (6, 18)


def test_zero_dimensional_profile():
    p = ci_profile(VarietySpec(2, (2, 3)))
    assert p.m == 0
    assert p.chern_coeffs == (1,)
    assert polar_degrees(p) == (6,)


# -- scalar transforms -------------------------------------------------------


def test_chern_polar_transform_is_an_involution():
    rng = random.Random(314)
    for m in range(0, 7):
        for _ in range(20):
            gammas = (1,) + tuple(rng.randrange(-9, 10) for _ in range(m))
            assert chern_to_polar(m, chern_to_polar(m, gammas)) == gammas


def binomial_transform_by_comb(m, coeffs):
    """q_j = sum_{i<=j} (-1)^i C(m-i+1, j-i) c_i, entry by entry."""
    return tuple(
        sum((-1) ** i * math.comb(m - i + 1, j - i) * coeffs[i] for i in range(j + 1))
        for j in range(m + 1)
    )


def test_tabled_transform_equals_the_comb_formula():
    rng = random.Random(2718)
    for m in range(31):
        for _ in range(5):
            coeffs = tuple(rng.randrange(-10**6, 10**6) for _ in range(m + 1))
            want = binomial_transform_by_comb(m, coeffs)
            assert chern_to_polar(m, coeffs) == want, m
    for m, coeffs in ((2, (1, 3)), (2, (1, 3, 3, 1)), (0, ())):
        with pytest.raises(ValueError, match="coefficients"):
            chern_to_polar(m, coeffs)


def test_profile_constructors_agree():
    # the dataclass stores the polar vector alone and derives the Chern one
    fields = [f.name for f in dataclasses.fields(PolarProfile)]
    assert fields == ["m", "fundamental_degree", "polar_coeffs", "ambient", "degrees"]
    p = ci_profile(VarietySpec(5, (3,)))
    q = PolarProfile.from_chern(p.m, p.fundamental_degree, p.chern_coeffs)
    assert q.polar_coeffs == p.polar_coeffs
    assert q == PolarProfile(p.m, p.fundamental_degree, p.polar_coeffs)
    with pytest.raises(ValueError, match="Chern coefficients must start at 1"):
        PolarProfile.from_chern(1, 2, (2, 1))
    with pytest.raises(ValueError, match=r"Chern coefficients must have length m\+1 = 2"):
        PolarProfile.from_chern(1, 2, (1,))
    for args, message in [
        ((-1, 1, ()), "dimension must be >= 0"),
        ((1, 0, (1, 1)), "fundamental degree must be >= 1"),
        ((1, 2, (1,)), r"polar_coeffs must have length m\+1 = 2"),
        ((1, 2, (2, 3)), r"polar_coeffs\[0\] must be 1"),
    ]:
        with pytest.raises(ValueError, match=message):
            PolarProfile(*args)


# -- evaluation --------------------------------------------------------------


def test_evaluate_class_on_plane_curves():
    ctx = formula_ctx(1)
    b = 2 * ctx.sym("h") + 5 * ctx.sym("p1")
    for d in range(2, 13):
        p = ci_profile(VarietySpec(2, (d,)))
        assert evaluate_class(b, p) == 2 * d + 5 * d * (d - 1)


def test_evaluate_class_on_surface_formula():
    ctx = formula_ctx(2)
    h, p1, p2 = ctx.sym("h"), ctx.sym("p1"), ctx.sym("p2")
    b = 3 * h ** 2 + 6 * h * p1 + 12 * p1 ** 2 + p2
    quadric = ci_profile(VarietySpec(3, (2,)))
    # all polar scalars are 1, so the value is just the coefficient sum times 2
    assert evaluate_class(b, quadric) == 2 * (3 + 6 + 12 + 1)


def test_evaluate_class_rejects_bad_input():
    ctx = formula_ctx(2)
    h = ctx.sym("h")
    quadric = ci_profile(VarietySpec(3, (2,)))
    with pytest.raises(ValueError):
        evaluate_class(h, quadric)  # not homogeneous of codim 2
    curve = ci_profile(VarietySpec(2, (3,)))
    with pytest.raises(ValueError):
        evaluate_class(h ** 2, curve)  # ring shape is for m=2, profile has m=1

