from fractions import Fraction
from math import comb

import pytest

import bnd.engine
import bnd.ring
import bnd.schubert
from bnd.engine import MAX_AMBIENT, _grassmannian_tangent_over, compute_B, conormal_context
from bnd.ring import SymbolSpec, declare_ring, graded_piece, substitute
from bnd.schubert import (
    SchubertIndex,
    _segre,
    grassmannian_context,
    pullback_f,
    schubert_pullback_direct,
    schubert_representative,
)


def integral(a, n):
    """Degree of a top-codimension class on Gr(2, n+1).

    Two-variable bialternant: expand in the Chern roots x1, x2 of the dual
    subbundle; the degree is the coefficient of x1^n * x2^(n-1) in
    (expansion) * (x1 - x2).
    """
    ctx_x = declare_ring([SymbolSpec("x1", 1), SymbolSpec("x2", 1)], truncation=2 * n)
    x1, x2 = ctx_x.sym("x1"), ctx_x.sym("x2")
    px = substitute(a, {"e1": x1 + x2, "e2": x1 * x2}, ctx_x) * (x1 - x2)
    return px.terms.get((n, n - 1), Fraction(0))


def catalan(k):
    return comb(2 * k, k) // (k + 1)


# -- representatives ---------------------------------------------------------


def test_index_validation():
    with pytest.raises(ValueError):
        SchubertIndex(1, 2)
    with pytest.raises(ValueError):
        SchubertIndex(-1, -1)
    with pytest.raises(ValueError):
        schubert_representative(SchubertIndex(3, 1), n=3)  # needs a <= n-1
    with pytest.raises(ValueError, match=r"not a class on Gr\(2,4\): need a <= 2"):
        schubert_representative(SchubertIndex(5, 0), n=3)
    with pytest.raises(ValueError, match="need ambient dimension n >= 2"):
        grassmannian_context(1)


def test_representative_small_cases():
    ctx = grassmannian_context(4)
    e1, e2 = ctx.sym("e1"), ctx.sym("e2")
    rep = lambda a, b: schubert_representative(SchubertIndex(a, b), 4)
    assert rep(0, 0) == 1
    assert rep(1, 0) == e1
    assert rep(1, 1) == e2
    assert rep(2, 0) == e1 ** 2 - e2
    assert rep(2, 1) == e1 * e2
    assert rep(2, 2) == e2 ** 2
    assert rep(3, 0) == e1 ** 3 - 2 * e1 * e2


def test_pieri_multiplication_by_sigma1():
    # e1 * sigma_{a,b} = sigma_{a+1,b} + sigma_{a,b+1} as polynomials
    n = 8
    ctx = grassmannian_context(n)
    e1 = ctx.sym("e1")
    for a in range(0, 5):
        for b in range(0, a + 1):
            lhs = e1 * schubert_representative(SchubertIndex(a, b), n)
            rhs = schubert_representative(SchubertIndex(a + 1, b), n)
            if b + 1 <= a:
                rhs = rhs + schubert_representative(SchubertIndex(a, b + 1), n)
            assert lhs == rhs


def test_duality_pairing():
    # sigma_{a,b} pairs to 1 against its complement sigma_{n-1-b, n-1-a}
    for n in (3, 4, 5):
        for a in range(n):
            for b in range(a + 1):
                rep = schubert_representative(SchubertIndex(a, b), n)
                dual = schubert_representative(SchubertIndex(n - 1 - b, n - 1 - a), n)
                assert integral(rep * dual, n) == 1
    # and to 0 against any non-dual class of complementary codimension
    n = 4
    rep = lambda a, b: schubert_representative(SchubertIndex(a, b), n)
    assert integral(rep(2, 0) * rep(2, 2), n) == 0
    assert integral(rep(1, 1) * rep(3, 1), n) == 0


def test_integral_of_sigma1_powers_is_catalan():
    for n in range(2, 8):
        e1 = grassmannian_context(n).sym("e1")
        assert integral(e1 ** (2 * (n - 1)), n) == catalan(n - 1)


# -- tangent Chern class -----------------------------------------------------


def reference_symmetrize(poly_x, ctx_e):
    """Leading-term elimination by substitution: the lex-leading monomial
    c*x1^a*x2^b of a symmetric polynomial leads c*e1^(a-b)*e2^b, which is
    substituted back into x1, x2 and subtracted."""
    ctx_x = poly_x.ctx
    images = {"e1": ctx_x.sym("x1") + ctx_x.sym("x2"), "e2": ctx_x.sym("x1") * ctx_x.sym("x2")}
    out = ctx_e.zero()
    rem = poly_x
    while not rem.is_zero():
        (a, b), c = max(rem.terms.items(), key=lambda t: t[0])
        assert a >= b, f"not symmetric: leading x1^{a}*x2^{b}"
        mono = ctx_e.poly({(a - b, b): c})
        out = out + mono
        rem = rem - substitute(mono, images, ctx_x)
    return out


def reference_chern_tangent(n):
    """c(T Gr(2, n+1)) with each twist built from the Segre classes
    substituted into x1, x2, then symmetrized by reference_symmetrize."""
    ctx_e = grassmannian_context(n)
    ctx_x = declare_ring([SymbolSpec("x1", 1), SymbolSpec("x2", 1)], truncation=2 * (n - 1))
    images = {"e1": ctx_x.sym("x1") + ctx_x.sym("x2"), "e2": ctx_x.sym("x1") * ctx_x.sym("x2")}
    total = ctx_x.one()
    for var in ("x1", "x2"):
        xi = ctx_x.sym(var)
        factor = ctx_x.zero()
        for l in range(n):
            factor = factor + substitute(_segre(ctx_e, l), images, ctx_x) * (1 + xi) ** (n - 1 - l)
        total = total * factor
    return reference_symmetrize(total, ctx_e)


def pulled_back_tangent(m, n):
    """The engine's f*c(T Gr(2, n+1)) in the conormal ring of (m, n)."""
    ctx = conormal_context(m, n)
    return _grassmannian_tangent_over(ctx.one(), n)


def test_chern_tangent_n2_frozen():
    ctx = grassmannian_context(2)
    e1, e2 = ctx.sym("e1"), ctx.sym("e2")
    assert reference_chern_tangent(2) == 1 + 3 * e1 + 2 * e1 ** 2 + e2
    # dim C_X = 1 keeps only 1 + c1(T_G) = 1 + 3*sigma_1
    assert pulled_back_tangent(1, 2) == 1 + 3 * conormal_context(1, 2).sym("xi")


def test_chern_tangent_n3_frozen():
    ctx = grassmannian_context(3)
    e1, e2 = ctx.sym("e1"), ctx.sym("e2")
    reference = (
        1
        + 4 * e1
        + 7 * e1 ** 2
        + 6 * e1 ** 3
        + 3 * e1 ** 4
        - 4 * e1 ** 2 * e2
        + 4 * e2 ** 2
    )
    assert reference_chern_tangent(3) == reference
    xi = conormal_context(2, 3).sym("xi")
    assert pulled_back_tangent(2, 3) == 1 + 4 * xi + 7 * xi ** 2


def test_chern_tangent_first_piece_is_anticanonical():
    # c1(T_G) = (n+1) * sigma_1, and f*sigma_1 = xi
    for n in range(2, MAX_AMBIENT + 1):
        for m in range(1, n):
            got = pulled_back_tangent(m, n)
            assert graded_piece(got, 0) == 1
            assert graded_piece(got, 1) == (n + 1) * got.ctx.sym("xi"), (m, n)


def test_chern_tangent_top_integrates_to_euler_characteristic():
    # chi(Gr(2, n+1)) = number of Schubert cells = C(n+1, 2): a check of
    # the reference route against which the engine's class is tested
    for n in range(2, MAX_AMBIENT + 1):
        top = graded_piece(reference_chern_tangent(n), 2 * (n - 1))
        assert integral(top, n) == comb(n + 1, 2)


def test_chern_tangent_equals_the_substitution_route():
    # in every conormal ring of a small ambient, with the same (int)
    # coefficients: the degrees 0..n-1 that C_X keeps are all compared
    for n in range(2, 15):
        want = reference_chern_tangent(n)
        for m in range(1, n):
            got = pulled_back_tangent(m, n)
            assert got == pullback_f(want, got.ctx), (m, n)
            assert all(type(c) is int for c in got.terms.values()), (m, n)


def test_chern_tangent_builds_without_substitution(monkeypatch):
    # compute_B forms f*c(T_G) in the conormal ring and reads its base class
    # in h, p_1..p_m there: no substitution anywhere on its path
    def refuse(*args, **kwargs):
        raise AssertionError("compute_B called substitute")

    monkeypatch.setattr(bnd.ring, "substitute", refuse)
    monkeypatch.setattr(bnd.engine, "substitute", refuse, raising=False)
    monkeypatch.setattr(bnd.schubert, "substitute", refuse)
    for m, n in ((1, 2), (2, 5), (4, 11), (5, 7)):
        compute_B.cache_clear()
        assert compute_B(m, n).poly.is_homogeneous(m)
    compute_B.cache_clear()


# -- pullbacks ---------------------------------------------------------------


def plain_target(truncation):
    return declare_ring([SymbolSpec("xi", 1), SymbolSpec("h", 1)], truncation=truncation)


def test_pullback_of_generators():
    tgt = plain_target(6)
    xi, h = tgt.sym("xi"), tgt.sym("h")
    ctx = grassmannian_context(4)
    assert pullback_f(ctx.sym("e1"), tgt) == xi
    assert pullback_f(ctx.sym("e2"), tgt) == h * xi - h ** 2
    assert schubert_pullback_direct(SchubertIndex(1, 0), tgt) == xi
    assert schubert_pullback_direct(SchubertIndex(1, 1), tgt) == h * xi - h ** 2
    assert schubert_pullback_direct(SchubertIndex(2, 0), tgt) == xi ** 2 - h * xi + h ** 2


def test_pullback_routes_agree():
    # representative-then-substitute vs the closed direct sum
    tgt = plain_target(12)
    n = 7
    for a in range(0, 7):
        for b in range(0, a + 1):
            via_rep = pullback_f(schubert_representative(SchubertIndex(a, b), n), tgt)
            direct = schubert_pullback_direct(SchubertIndex(a, b), tgt)
            assert via_rep == direct


def test_pullback_routes_agree_in_bounded_ring():
    # same identity inside a ring with a pullback bound on h
    tgt = declare_ring(
        [SymbolSpec("xi", 1), SymbolSpec("h", 1, pullback=True)],
        truncation=5,
        pullback_bound=2,
    )
    n = 6
    for a in range(0, 6):
        for b in range(0, a + 1):
            via_rep = pullback_f(schubert_representative(SchubertIndex(a, b), n), tgt)
            direct = schubert_pullback_direct(SchubertIndex(a, b), tgt)
            assert via_rep == direct


@pytest.mark.parametrize("n", range(3, MAX_AMBIENT + 1))
def test_tangent_class_pullback_equals_the_untruncated_expansion(n):
    # the engine's class is the reference pulled back.  substitute skips
    # each source term above the target's truncation; in the conormal ring
    # with its truncation lifted to dim G = 2n-2 none is skipped, and that
    # expansion, normalized back, must be the same class
    c_tg = reference_chern_tangent(n)
    for m in sorted({1, n // 2, n - 1}):
        ctx = conormal_context(m, n)
        wide = declare_ring(ctx.symbols, truncation=2 * n - 2, pullback_bound=m)
        want = pullback_f(c_tg, ctx)
        assert _grassmannian_tangent_over(ctx.one(), n) == want, (m, n)
        assert want == ctx.poly(pullback_f(c_tg, wide).terms), (m, n)
