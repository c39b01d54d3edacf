import hashlib
import itertools
import json
import math
from pathlib import Path

import pytest

from bnd import ring
from bnd.engine import (
    MAX_AMBIENT,
    _chern_tangent_in_polar,
    _double_point_class,
    _grassmannian_numerator,
    _grassmannian_tangent_over,
    _h_binomial,
    _point_class,
    _times_xi_powers,
    _xi_relation,
    ambient_stability,
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
from bnd.ring import SymbolSpec, declare_ring, graded_piece, parse, unit_quotient


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


# per m = 1..10, the sha256 of compute_B(m, n).text for n = m+1..21, one
# line each: all 155 shapes with n_eff <= 21, where perfbench's formula.json
# pins only the 30 with m <= 5
FORMULA_SHA256 = {
    1: "97160d9dbb9097150ba1adfac37f762d22a8c701f0c0566127f529bce4493bc5",
    2: "f0a8635ed112f5094dd14be4694e57b131db0d51e1e52f987617162b96ad543b",
    3: "489470d0eeeb4c0cd54802a753d3ac9caa2886a02ce5cd368049f3518a6d092f",
    4: "63679e9440f573ff4d0138b78cff6c127642a346b11cbd9086c99716079e3bae",
    5: "9b5bb9f84ba32e631e95d8842e0e8ec7230be9e78599a5626ec31122941d6dcd",
    6: "31db377a0b411ebc8c4ba2c70ca1c22e892fdc041035826b190aafe5852f1320",
    7: "251d8dfac9d6e2f8185ffbf72623ca0336ff39995fbf0ede8bc78c7b5bdf5834",
    8: "ff462f1159ccb673083fd0b9350b281cc0095c49069cc4fc82bf090388f96071",
    9: "2206fe2afffc8824e06b9e54f427cb1aa1cbb6d8c2e96255955f7ebe3db0877f",
    10: "780e0b04d37a711988683c17f7eac1a4c75152aa10dddeb5fb7bd8359b4730be",
}


def test_compute_b_text_is_pinned_on_every_shape():
    assert list(FORMULA_SHA256) == list(range(1, 11))
    for m, want in FORMULA_SHA256.items():
        text = "\n".join(compute_B(m, n).text for n in range(m + 1, 22))
        assert hashlib.sha256(text.encode()).hexdigest() == want, m


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


# -- the fixed factors in closed form -----------------------------------------

# every shape 0 < m < n with n_eff = max(2m+1, n) <= MAX_AMBIENT
SHAPES = [
    (m, n)
    for n in range(2, MAX_AMBIENT + 1)
    for m in range(1, n)
    if max(2 * m + 1, n) <= MAX_AMBIENT
]


def chern_by_products(ctx, m):
    """c(T_X) = 1 + sum_{j>=1} sum_i (-1)^i C(m-i+1, j-i) h^(j-i) p_i as ring
    products, the construction _chern_tangent_in_polar replaces."""
    h = ctx.sym("h")
    acc = ctx.one()
    for j in range(1, m + 1):
        for i in range(j + 1):
            term = ctx.constant((-1) ** i * math.comb(m - i + 1, j - i)) * h ** (j - i)
            if i:
                term = term * ctx.sym(f"p{i}")
            acc = acc + term
    return acc


def test_fixed_factors_equal_their_ring_products():
    # each closed form against the ring-product construction it replaces,
    # term for term, on all 155 shapes
    assert len(SHAPES) == 155
    for m, n in SHAPES:
        ctx = conormal_context(m, n)
        xi, h = ctx.sym("xi"), ctx.sym("h")
        c_tx = _chern_tangent_in_polar(ctx, m)
        assert c_tx == chern_by_products(ctx, m), (m, n)
        assert _h_binomial(ctx, 1, n + 1) == (1 + h) ** (n + 1), (m, n)
        assert _h_binomial(ctx, -1, n + 1) == (1 - h) ** (n + 1), (m, n)
        numerator = (1 + xi + h * xi - h * h) ** (n + 1)
        assert _grassmannian_numerator(ctx, n) == numerator, (m, n)
        pieces, relation = _xi_relation(c_tx, m, n)
        for j, piece in enumerate(pieces):
            k = n - m - j
            binomial = {i: math.comb(k, i) for i in range(k + 1)}
            assert _times_xi_powers(ctx, [(piece, {k: 1})]) == piece * xi**k, (m, n, j)
            assert _times_xi_powers(ctx, [(piece, binomial)]) == piece * (1 + xi) ** k, (m, n, j)
        assert relation == sum((-1) ** j * pieces[j] * xi ** (n - m - j) for j in range(n - m + 1))
        # over u = 1 this is the numerator over the literal denominator
        want = unit_quotient(numerator, 1 - (xi - 2 * h) ** 2)
        assert _grassmannian_tangent_over(ctx.one(), n) == want, (m, n)


def test_fixed_factors_in_the_numeric_ring():
    # the same forms in the two-generator ring xi, h of a numeric c(T_X),
    # where there is no polar class
    for m, n in ((1, 2), (2, 5), (3, 4), (4, 9), (5, 11)):
        ctx = declare_ring(
            [SymbolSpec("xi", 1), SymbolSpec("h", 1, pullback=True)],
            truncation=n - 1,
            pullback_bound=m,
        )
        xi, h = ctx.sym("xi"), ctx.sym("h")
        assert _h_binomial(ctx, -1, n + 1) == (1 - h) ** (n + 1)
        assert _grassmannian_numerator(ctx, n) == (1 + xi + h * xi - h * h) ** (n + 1)
        c_tx = numeric_chern(ctx, ci_profile(VarietySpec(n, (2,) * (n - m))))
        pieces, relation = _xi_relation(c_tx, m, n)
        assert relation == sum((-1) ** j * pieces[j] * xi ** (n - m - j) for j in range(n - m + 1))


# products of a cold compute_B(m, 2m+1): the fixed factors take none, so
# what is left is c(T_X) * twist, the Grassmannian denominator times that
# unit, and divide_monic's steps
COLD_PRODUCTS = {1: 4, 2: 7, 3: 11, 4: 16, 5: 21}


def test_compute_b_product_counts(monkeypatch):
    calls = []
    product = ring.ClassPoly._product

    def counted(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(ring.ClassPoly, "_product", counted)
    counts = {}
    for m in COLD_PRODUCTS:
        calls.clear()
        # past the lru_cache, so each shape is computed afresh
        compute_B.__wrapped__(m, 2 * m + 1)
        counts[m] = len(calls)
    assert counts == COLD_PRODUCTS


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
        symbolic = 1 + sum(ctx.sym(f"p{i}") for i in range(1, m + 1))
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
    symbolic = 1 + ctx.sym("p1") + ctx.sym("p2")
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
    assert epsilon_terms(1, 3, (6, 18)) == (24, 6)
    for d in range(2, 8):
        assert epsilon_terms(1, 2, (d, d * d - d)) == (d * d,)
    # quadric surface native ambient: both routes below agree on (6, 2)
    assert epsilon_terms(2, 3, (2, 2, 2)) == (6, 2)
    assert epsilon_terms(2, 5, (2, 2, 2)) == (6, 4, 2)


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
            epsilon_oracle(m, n, profile)
            == epsilon_terms(m, n, polar_degrees(profile))
        )


def test_epsilon_oracle_examples():
    assert epsilon_oracle(1, 2, plane_curve(3)) == (9,)
    assert epsilon_oracle(1, 3, ci_profile(VarietySpec(3, (2, 3)))) == (24, 6)
    assert epsilon_oracle(2, 3, surface(2)) == (6, 2)


def test_epsilon_oracle_validates_profile():
    with pytest.raises(ValueError):
        epsilon_oracle(2, 5, plane_curve(3))


def test_ed_degree_is_polar_sum():
    assert ed_degree(plane_curve(3)) == 9  # classical: d^2 for a plane curve
    assert ed_degree(surface(2)) == 6


def closed_form_ed_degree(n, degrees):
    """d_1...d_k * sum over s <= n - k of h_s(d_1 - 1, .., d_k - 1), h_s the
    complete homogeneous symmetric polynomial (Draisma, Horobet, Ottaviani,
    Sturmfels, Thomas): h[s] after the i-th degree is h_s of the first i
    values, one k x m dynamic program."""
    m = n - len(degrees)
    h = [1] + [0] * m
    for d in degrees:
        for s in range(1, m + 1):
            h[s] += (d - 1) * h[s - 1]
    return math.prod(degrees) * sum(h)


def test_ed_degree_equals_the_closed_form():
    """The profile recurrence against the closed form on all 444 ordered
    shapes with ambient 2..8, codimension 1..3 and degrees 1..4."""
    shapes = [
        (n, ds)
        for n in range(2, 9)
        for k in range(1, min(3, n - 1) + 1)
        for ds in itertools.product(range(1, 5), repeat=k)
    ]
    assert len(shapes) == 444
    for n, ds in shapes:
        assert ed_degree(ci_profile(VarietySpec(n, ds))) == closed_form_ed_degree(n, ds), (n, ds)


# -- bottleneck degrees ------------------------------------------------------


def test_bnd_projective_examples():
    assert bnd_projective(compute_B(1, 3), plane_curve(2)) == 2 ** 4 - 4 * 4 + 6
    assert bnd_projective(compute_B(1, 3), ci_profile(VarietySpec(3, (2, 3)))) == 510
    assert bnd_projective(compute_B(2, 5), surface(2)) == 12


def test_bnd_is_independent_of_formula_ambient():
    # the count is geometric: every formula B_{m,n} with n from the ambient
    # on, paired with its own epsilon combinatorics, gives the answer that
    # bnd_variety takes at n_eff = max(2m+1, ambient); 203 shapes, 559 checks
    for ambient in range(2, 8):
        for codim in range(1, ambient):
            for degrees in itertools.combinations_with_replacement((2, 3, 4), codim):
                spec = VarietySpec(ambient, degrees)
                expected = bnd_variety(spec)
                profile = ci_profile(spec)
                for n in range(ambient, max(2 * spec.dim + 1, ambient) + 2):
                    assert bnd_projective(compute_B(spec.dim, n), profile) == expected, (spec, n)
    # and far beyond: plane curves re-embedded up to P^9, surfaces in P^3 up to P^8
    for d in (2, 3, 4):
        for n in (5, 9):
            assert bnd_projective(compute_B(1, n), plane_curve(d)) == bnd_variety(VarietySpec(2, (d,)))
        assert bnd_projective(compute_B(2, 8), surface(d)) == bnd_variety(VarietySpec(3, (d,)))


def test_bnd_projective_dimension_mismatch():
    with pytest.raises(ValueError):
        bnd_projective(compute_B(2, 5), plane_curve(3))


def test_bnd_plane_curves_closed_form():
    for d in range(2, 13):
        spec = VarietySpec(2, (d,))
        assert bnd_variety(spec) == d ** 4 - 4 * d ** 2 + 3 * d
        assert bnd_variety(VarietySpec(2, (d,), affine=True)) == d ** 4 - 5 * d ** 2 + 4 * d


def test_affine_bnd_anchors():
    assert bnd_variety(VarietySpec(2, (2,), affine=True)) == 4
    assert bnd_variety(VarietySpec(2, (4,), affine=True)) == 192
    assert bnd_variety(VarietySpec(3, (2, 3), affine=True)) == 480
    assert bnd_variety(VarietySpec(3, (2,), affine=True)) == 6
    assert bnd_variety(VarietySpec(3, (4,), affine=True)) == 2220


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
