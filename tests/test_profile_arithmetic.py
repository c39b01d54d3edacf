"""The integer profile arithmetic of bnd.profiles against the ring route it
replaced.

`ring_ci_profile` below is the former `ci_profile`, kept verbatim as the
reference: it expands (1+h)^(n+1) and multiplies by the inverse of each
1 + d h in a truncated ring with Fraction arithmetic.  `fraction_evaluate`
is the former `evaluate_class`, which wrapped every polar scalar in a
Fraction.  The integer versions in bnd.profiles must give the same values,
as ints.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from bnd.engine import compute_B
from bnd.profiles import PolarProfile, VarietySpec, ci_profile, evaluate_class
from bnd.ring import SymbolSpec, declare_ring, unit_quotient


def ring_ci_profile(spec: VarietySpec) -> PolarProfile:
    """Profile of the (projective closure of the) complete intersection.

    c(T_X) = (1+h)^(n+1) / prod_i (1 + d_i h), truncated at dim X.
    """
    m = spec.dim
    ctx = declare_ring([SymbolSpec("h", 1)], truncation=m)
    h = ctx.sym("h")
    total = (1 + h) ** (spec.ambient_dim + 1)
    for d in spec.degrees:
        total = total * unit_quotient(ctx.one(), 1 + d * h)
    gammas = tuple(total.terms.get((i,), Fraction(0)) for i in range(m + 1))
    return PolarProfile.from_chern(
        m, spec.fundamental_degree, gammas, ambient=spec.ambient_dim, degrees=spec.degrees
    )


def fraction_evaluate(a, profile: PolarProfile) -> int:
    total = Fraction(0)
    for expts, coeff in a.terms.items():
        scalar = Fraction(1)
        for j, e in enumerate(expts[1:], start=1):
            scalar *= Fraction(profile.polar_coeffs[j]) ** e
        total += coeff * scalar
    total *= profile.fundamental_degree
    if total.denominator != 1:
        raise ValueError(f"class does not evaluate to an integer: {total}")
    return int(total)


def corpus() -> list[VarietySpec]:
    """Ambient 1..12, sorted degrees over 1..4 of codim <= 4, and (2,)*c
    for every codim c."""
    specs = []
    for n in range(1, 13):
        for k in range(1, min(4, n) + 1):
            specs.extend(VarietySpec(n, degs) for degs in combinations_with_replacement(range(1, 5), k))
        specs.extend(VarietySpec(n, (2,) * c) for c in range(5, n + 1))
    return specs


CORPUS = corpus()


def formula_ctx(m):
    syms = [SymbolSpec("h", 1)] + [SymbolSpec(f"p{i}", i) for i in range(1, m + 1)]
    return declare_ring(syms, truncation=m)


def test_corpus_covers_every_quadric_codim():
    for n in range(1, 13):
        for c in range(1, n + 1):
            assert VarietySpec(n, (2,) * c) in CORPUS


def test_ci_profile_matches_ring_route():
    for spec in CORPUS:
        got, want = ci_profile(spec), ring_ci_profile(spec)
        assert got == want, spec
        for value in got.chern_coeffs + got.polar_coeffs:
            assert type(value) is int, (spec, value)


@pytest.mark.parametrize("m", range(1, 6))
def test_evaluate_class_matches_fraction_reference(m):
    profiles = [ci_profile(spec) for spec in CORPUS if spec.dim == m]
    assert profiles
    for n in range(m + 1, 2 * m + 4):
        poly = compute_B(m, n).poly
        for profile in profiles:
            got = evaluate_class(poly, profile)
            assert got == fraction_evaluate(poly, profile), (m, n, profile)
            assert type(got) is int


def test_evaluate_class_with_fraction_coefficients():
    ctx = formula_ctx(1)
    b = Fraction(1, 2) * ctx.sym("h") + Fraction(1, 2) * ctx.sym("p1")
    # d/2 + d(d-1)/2 = d^2/2 on a plane curve of degree d
    for d in range(1, 9):
        profile = ci_profile(VarietySpec(2, (d,)))
        if d % 2 == 0:
            got = evaluate_class(b, profile)
            assert got == fraction_evaluate(b, profile) == d * d // 2
            assert type(got) is int
        else:
            with pytest.raises(ValueError, match="does not evaluate to an integer"):
                evaluate_class(b, profile)
