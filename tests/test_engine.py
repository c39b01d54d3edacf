import json
from pathlib import Path

import pytest

from bnd.engine import (
    MAX_AMBIENT,
    _double_point_class,
    _point_class,
    _xi_relation,
    ambient_stability,
    bnd_affine,
    bnd_of_profile,
    bnd_projective,
    bnd_variety,
    check_work_bound,
    compute_B,
    conormal_context,
    ed_degree,
    epsilon_oracle,
    epsilon_terms,
    formula_context,
)
from bnd.profiles import PolarProfile, VarietySpec, ci_profile, evaluate_class, polar_degrees
from bnd.ring import SymbolSpec, declare_ring, parse


def plane_curve(d):
    return ci_profile(VarietySpec(2, (d,)))


def surface(d):
    return ci_profile(VarietySpec(3, (d,)))


# -- the universal polynomials ----------------------------------------------

FORMULA_REFERENCE = Path(__file__).parent.parent / "perfbench" / "reference" / "formula.json"


def test_compute_b_matches_pinned_reference():
    # B_{m,n} for m = 1..5, m < n <= 2m+3, as pinned from the seed commit
    pinned = json.loads(FORMULA_REFERENCE.read_text(encoding="utf-8"))
    assert len(pinned) == 30
    for key, text in pinned.items():
        m, n = map(int, key.split(","))
        assert compute_B(m, n).text == text, key


def test_work_bound():
    top = (MAX_AMBIENT - 1) // 2
    check_work_bound(top, MAX_AMBIENT)
    check_work_bound(1, MAX_AMBIENT)
    for m, n in ((top + 1, 2 * top + 2), (1, MAX_AMBIENT + 1), (29, 30)):
        with pytest.raises(ValueError, match=f"MAX_AMBIENT = {MAX_AMBIENT}"):
            check_work_bound(m, n)
        with pytest.raises(ValueError, match="MAX_AMBIENT"):
            compute_B(m, n)
    with pytest.raises(ValueError, match="MAX_AMBIENT"):
        ambient_stability(1, range(3, MAX_AMBIENT + 2))
    with pytest.raises(ValueError, match="MAX_AMBIENT"):
        bnd_variety(VarietySpec(MAX_AMBIENT + 1, (2,) * MAX_AMBIENT))


def test_compute_b_known_formulas():
    assert compute_B(1, 3).text == "2*h + 5*p1"
    assert compute_B(2, 5).text == "3*h^2 + 6*h*p1 + 12*p1^2 + p2"
    assert compute_B(1, 2).text == "h + 4*p1"


def test_compute_b_threefold():
    expected = parse(
        formula_context(3),
        "4*h^3 + 11*h^2*p1 + 4*h*p1^2 + 24*p1^3 + 2*h*p2 - 12*p1*p2 + 17*p3",
    )
    assert compute_B(3, 7).poly == expected


def test_compute_b_validates_dimensions():
    with pytest.raises(ValueError):
        compute_B(2, 2)
    with pytest.raises(ValueError):
        compute_B(0, 3)


def test_compute_b_output_shape():
    for m, n in [(1, 2), (1, 5), (2, 4), (2, 6), (3, 5), (3, 8)]:
        f = compute_B(m, n)
        assert f.poly.is_homogeneous(m)
        assert all(c.denominator == 1 for c in f.poly.terms.values())


# -- the conormal reduction ---------------------------------------------------


def numeric_chern(ctx, profile):
    """The profile's c(T_X) = sum_i gamma_i h^i in a ring over C_X."""
    h = ctx.sym("h")
    return sum(g * h**i for i, g in enumerate(profile.chern_coeffs))


def test_double_point_reduction_two_routes():
    # deg B_{m,n}(X) of complete intersections two ways: the polar formula
    # evaluated on the profile, and the double point reduction run in the
    # two-generator ring xi, h with the numeric c(T_X), its h^m coefficient
    # times deg X
    cases = 0
    for ambient in range(2, 10):
        for m in range(1, min(5, ambient - 1) + 1):
            c = ambient - m
            for degrees in {(d,) * c for d in (2, 3, 4)} | {(2,) * (c - 1) + (3,)}:
                profile = ci_profile(VarietySpec(ambient, degrees))
                for n in {ambient, 2 * m + 1}:
                    ctx = declare_ring(
                        [SymbolSpec("xi", 1), SymbolSpec("h", 1, pullback=True)],
                        truncation=n - 1,
                        pullback_bound=m,
                    )
                    base = _double_point_class(numeric_chern(ctx, profile), m, n)
                    (h_m,) = (ctx.sym("h") ** m).terms
                    assert set(base.terms) <= {h_m}
                    scalar = base.terms.get(h_m, 0) * profile.fundamental_degree
                    want = evaluate_class(compute_B(m, n).poly, profile)
                    assert scalar == want, (ambient, degrees, n)
                    cases += 1
    assert cases == 214


def test_xi_relation_is_monic_of_degree_n_minus_m():
    for m, n in ((1, 2), (1, 4), (2, 5), (3, 7), (4, 6)):
        ctx = conormal_context(m, n)
        symbolic = 1 + sum(ctx.sym(f"c{i}") for i in range(1, m + 1))
        numeric = numeric_chern(ctx, ci_profile(VarietySpec(n, (2,) * (n - m))))
        for c_tx in (symbolic, numeric):
            pieces, relation = _xi_relation(c_tx, m, n)
            assert len(pieces) == n - m + 1 and pieces[0] == ctx.one()
            assert relation.degree_in("xi") == n - m
            assert relation.coefficient_of("xi", n - m) == ctx.one()


def test_point_class_rejects_a_class_off_the_point_form():
    m, n = 2, 5
    ctx = conormal_context(m, n)
    xi, h = ctx.sym("xi"), ctx.sym("h")
    symbolic = 1 + ctx.sym("c1") + ctx.sym("c2")
    numeric = numeric_chern(ctx, surface(3))
    for c_tx in (symbolic, numeric):
        _, relation = _xi_relation(c_tx, m, n)
        assert _point_class(xi ** (n - m - 1) * h**m, relation, m, n) == h**m
        # a wrong xi exponent, and a base class off codim m
        for cls in (xi ** (n - m - 2) * h**m, xi ** (n - m - 1) * h ** (m - 1)):
            with pytest.raises(RuntimeError, match=r"did not reduce to xi\^2 \* \(codim-2 base"):
                _point_class(cls, relation, m, n)


# -- epsilon vectors ---------------------------------------------------------


def test_epsilon_terms_examples():
    assert epsilon_terms(1, 3, (6, 18)).values == (24, 6)
    for d in range(2, 8):
        assert epsilon_terms(1, 2, (d, d * d - d)).values == (d * d,)
    # quadric surface native ambient: both routes below agree on (6, 2)
    assert epsilon_terms(2, 3, (2, 2, 2)).values == (6, 2)
    assert epsilon_terms(2, 5, (2, 2, 2)).values == (6, 4, 2)


def test_epsilon_terms_validation():
    with pytest.raises(ValueError):
        epsilon_terms(2, 3, (2, 2))
    with pytest.raises(ValueError):
        epsilon_terms(2, 2, (2, 2, 2))


def test_epsilon_oracle_matches_combinatorial_formula():
    cases = []
    for d in range(2, 7):
        cases += [(1, n, plane_curve(d)) for n in (2, 3, 4, 5)]
        cases += [(2, n, surface(d)) for n in (3, 4, 5, 6)]
    for d1 in (2, 3):
        for d2 in (2, 3, 4):
            cases.append((1, 3, ci_profile(VarietySpec(3, (d1, d2)))))
    for m, n, profile in cases:
        assert (
            epsilon_oracle(m, n, profile).values
            == epsilon_terms(m, n, polar_degrees(profile)).values
        )


def test_epsilon_oracle_examples():
    assert epsilon_oracle(1, 2, plane_curve(3)).values == (9,)
    assert epsilon_oracle(1, 3, ci_profile(VarietySpec(3, (2, 3)))).values == (24, 6)
    assert epsilon_oracle(2, 3, surface(2)).values == (6, 2)


def test_epsilon_oracle_validates_profile():
    with pytest.raises(ValueError):
        epsilon_oracle(2, 5, plane_curve(3))


def test_ed_degree_is_polar_sum():
    assert ed_degree(plane_curve(3)) == 9  # classical: d^2 for a plane curve
    assert ed_degree(surface(2)) == 6


# -- bottleneck degrees ------------------------------------------------------


def test_bnd_projective_examples():
    assert bnd_projective(compute_B(1, 3), plane_curve(2)) == 2 ** 4 - 4 * 4 + 6
    assert bnd_projective(compute_B(1, 3), ci_profile(VarietySpec(3, (2, 3)))) == 510
    assert bnd_projective(compute_B(2, 5), surface(2)) == 12


def test_bnd_is_independent_of_formula_ambient():
    # the count is geometric; any valid (m, n) formula paired with its own
    # epsilon combinatorics must give the same answer
    for d in (2, 3, 4):
        values = {bnd_projective(compute_B(2, n), surface(d)) for n in (3, 4, 5, 6, 8)}
        assert len(values) == 1
        values = {bnd_projective(compute_B(1, n), plane_curve(d)) for n in (2, 3, 5, 9)}
        assert len(values) == 1


def test_bnd_projective_dimension_mismatch():
    with pytest.raises(ValueError):
        bnd_projective(compute_B(2, 5), plane_curve(3))


def test_bnd_plane_curves_closed_form():
    for d in range(2, 13):
        spec = VarietySpec(2, (d,))
        assert bnd_variety(spec) == d ** 4 - 4 * d ** 2 + 3 * d
        assert bnd_variety(VarietySpec(2, (d,), affine=True)) == d ** 4 - 5 * d ** 2 + 4 * d


def test_bnd_affine_anchors():
    assert bnd_affine(VarietySpec(2, (2,), affine=True)) == 4
    assert bnd_affine(VarietySpec(2, (4,), affine=True)) == 192
    assert bnd_affine(VarietySpec(3, (2, 3), affine=True)) == 480
    assert bnd_affine(VarietySpec(3, (2,), affine=True)) == 6
    assert bnd_affine(VarietySpec(3, (4,), affine=True)) == 2220


def test_bnd_surfaces_closed_form():
    for d in range(2, 9):
        expected = (
            d ** 6 - 2 * d ** 5 + 3 * d ** 4 - 15 * d ** 3 + 26 * d ** 2 - 13 * d
        )
        assert bnd_variety(VarietySpec(3, (d,), affine=True)) == expected


def test_bnd_ci_curves_closed_form():
    for d1 in range(2, 6):
        for d2 in range(2, 6):
            d, s = d1 * d2, d1 + d2
            expected = d * d * (s - 1) ** 2 - 5 * d * s + 9 * d
            assert bnd_variety(VarietySpec(3, (d1, d2), affine=True)) == expected


def test_bnd_zero_dimensional_pairs():
    assert bnd_variety(VarietySpec(2, (2, 3))) == 30  # 6 points, ordered pairs
    assert bnd_of_profile(ci_profile(VarietySpec(2, (2, 3)))) == 30


def test_bnd_nonnegative_on_profile_family():
    for n, degs in [(2, (2,)), (2, (5,)), (3, (2,)), (3, (3, 3)), (4, (2, 2)), (5, (2,))]:
        assert bnd_variety(VarietySpec(n, degs)) >= 0
        assert bnd_variety(VarietySpec(n, degs, affine=True)) >= 0


# -- ambient stability -------------------------------------------------------


def test_plane_case_is_special():
    rep = ambient_stability(1, [2, 3])
    assert not rep.identical
    assert rep.formulas[0].text == "h + 4*p1"
    assert rep.formulas[1].text == "2*h + 5*p1"


def test_curve_formula_stable_from_three():
    rep = ambient_stability(1, range(3, 10))
    assert rep.identical
    assert rep.stable_from == 3


def test_stability_reports_without_assuming():
    # below the saturation threshold n = 2m+1 the polynomial genuinely
    # changes; the report must say so rather than paper over it
    rep = ambient_stability(2, range(4, 9))
    assert not rep.identical
    assert rep.stable_from == 5
    rep = ambient_stability(3, range(5, 9))
    assert not rep.identical
    assert rep.stable_from == 7


def test_stability_validates_range():
    with pytest.raises(ValueError):
        ambient_stability(2, [])
    with pytest.raises(ValueError):
        ambient_stability(2, [2, 3])
