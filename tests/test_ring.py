import random
from fractions import Fraction

import pytest

from bnd.engine import formula_context
from bnd.ring import (
    MAX_EXPONENT,
    ClassPoly,
    RingContext,
    SymbolSpec,
    SystemParseError,
    coordinate_ring,
    declare_ring,
    divide_monic,
    graded_piece,
    parse,
    render,
    render_poly,
    substitute,
    unit_quotient,
)
from bnd.systems import build_lagrange_system, parse_system_text


def conormal_ctx(m=1, n=3):
    syms = [SymbolSpec("xi", 1), SymbolSpec("h", 1, pullback=True)]
    syms += [SymbolSpec(f"c{i}", i, pullback=True) for i in range(1, m + 1)]
    return declare_ring(syms, truncation=n - 1, pullback_bound=m)


def random_poly(ctx, rng, nterms=6, max_exp=3):
    raw = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(max_exp + 1) for _ in ctx.symbols)
        raw[e] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return ctx.poly(raw)


# -- normalization -----------------------------------------------------------


def test_truncation_kills_high_codim():
    ctx = declare_ring([SymbolSpec("h", 1)], truncation=2)
    h = ctx.sym("h")
    assert (h ** 2).terms
    assert (h ** 3).is_zero()
    assert ((1 + h) ** 5) == 1 + 5 * h + 10 * h ** 2


def test_pullback_bound_cuts_pullback_factor_of_every_monomial():
    # xi*h^2 has pullback part h^2 of codim 2 > bound 1, so it dies even
    # though its total codim 3 fits under the truncation.
    ctx = conormal_ctx(m=1, n=4)
    xi, h = ctx.sym("xi"), ctx.sym("h")
    assert (h ** 2).is_zero()
    assert (xi * h ** 2).is_zero()
    assert not (xi ** 2 * h).is_zero()
    assert (xi + h) ** 3 == xi ** 3 + 3 * xi ** 2 * h


def test_non_pullback_symbols_ignore_the_bound():
    ctx = conormal_ctx(m=1, n=5)
    xi = ctx.sym("xi")
    assert not (xi ** 4).is_zero()


def test_declare_ring_rejects_bad_input():
    with pytest.raises(ValueError):
        declare_ring([], truncation=3)
    with pytest.raises(ValueError):
        declare_ring([SymbolSpec("h", 1), SymbolSpec("h", 2)], truncation=3)
    with pytest.raises(ValueError):
        SymbolSpec("h", 0)
    with pytest.raises(ValueError):
        SymbolSpec("bad name", 1)
    with pytest.raises(ValueError, match="truncation must be >= 0"):
        declare_ring([SymbolSpec("h", 1)], truncation=-1)


def test_context_mismatch_raises():
    a = declare_ring([SymbolSpec("h", 1)], truncation=2).sym("h")
    b = declare_ring([SymbolSpec("h", 1)], truncation=3).sym("h")
    with pytest.raises(ValueError):
        a + b
    # a polynomial in 2 variables does not fit at offset 2 of 3
    with pytest.raises(ValueError, match="embedding does not fit"):
        coordinate_ring(2).var(0).embed(3, 2)


def test_structurally_equal_contexts_interoperate():
    mk = lambda: declare_ring([SymbolSpec("h", 1)], truncation=4)
    assert mk().sym("h") + mk().sym("h") == 2 * mk().sym("h")


# -- ring laws on random elements -------------------------------------------


def test_ring_laws():
    rng = random.Random(20240817)
    ctx = conormal_ctx(m=2, n=6)
    one = ctx.one()
    for _ in range(25):
        a = random_poly(ctx, rng)
        b = random_poly(ctx, rng)
        c = random_poly(ctx, rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * one == a
        assert a + ctx.zero() == a
        assert a - a == ctx.zero()


def test_graded_pieces_partition_and_respect_products():
    rng = random.Random(7)
    ctx = conormal_ctx(m=2, n=6)
    for _ in range(10):
        a = random_poly(ctx, rng)
        b = random_poly(ctx, rng)
        total = ctx.zero()
        for k in range(ctx.truncation + 1):
            piece = graded_piece(a, k)
            assert piece.is_homogeneous(k)
            total = total + piece
        assert total == a
        # product piece = convolution of factor pieces
        for k in range(ctx.truncation + 1):
            conv = ctx.zero()
            for i in range(k + 1):
                conv = conv + graded_piece(a, i) * graded_piece(b, k - i)
            assert graded_piece(a * b, k) == conv


def test_unit_inverse_roundtrip():
    rng = random.Random(99)
    ctx = conormal_ctx(m=3, n=8)
    for _ in range(10):
        a = 1 + random_poly(ctx, rng) - random_poly(ctx, rng).constant_term()
        a = a - graded_piece(a, 0) + 1  # force constant term exactly 1
        inv = unit_quotient(ctx.one(), a)
        assert a * inv == ctx.one()
    with pytest.raises(ValueError):
        unit_quotient(ctx.one(), ctx.sym("h"))


def test_unit_inverse_geometric_series():
    ctx = declare_ring([SymbolSpec("h", 1)], truncation=4)
    h = ctx.sym("h")
    assert unit_quotient(ctx.one(), 1 + h) == 1 - h + h ** 2 - h ** 3 + h ** 4


# -- the graded core against its definitions --------------------------------


def mixed_poly(ctx, rng, nterms=8, max_exp=3):
    """Random element with int and Fraction coefficients."""
    raw = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(max_exp + 1) for _ in ctx.symbols)
        c = rng.randrange(-9, 10)
        raw[e] = c if rng.random() < 0.5 else Fraction(c, rng.randrange(2, 7))
    return ctx.poly(raw)


def naive_product(a, b):
    """Every term pair, then the ring's normalization (RingContext._dies)."""
    raw = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            raw[e] = raw.get(e, 0) + c1 * c2
    return a.ctx.poly(raw)


@pytest.mark.parametrize(
    "ctx",
    [
        coordinate_ring(3),
        declare_ring([SymbolSpec("a", 1), SymbolSpec("b", 2), SymbolSpec("c", 3)], truncation=5),
        conormal_ctx(m=2, n=7),
    ],
    ids=["coordinate", "truncated", "pullback"],
)
def test_multiply_is_the_normalized_convolution(ctx):
    rng = random.Random(606)
    for _ in range(30):
        a, b = mixed_poly(ctx, rng), mixed_poly(ctx, rng)
        assert a * b == naive_product(a, b)
    # powers reach the truncation and the pullback bound from both sides
    a = mixed_poly(ctx, rng, nterms=5, max_exp=2)
    assert a ** 3 == naive_product(naive_product(a, a), a)


def test_coordinate_ring_product_keeps_first_insertion_order():
    # compiled solver polynomials sum their terms in this order
    rng = random.Random(607)
    ctx = coordinate_ring(3)
    a, b = mixed_poly(ctx, rng), mixed_poly(ctx, rng)
    assert list((a * b).terms) == list(naive_product(a, b).terms)


def test_relabel_keeps_term_order_and_coefficient_objects():
    rng = random.Random(608)
    ctx = coordinate_ring(4)
    a = mixed_poly(ctx, rng) * mixed_poly(ctx, rng)
    # a product keeps some integral values as Fraction(n, 1); so must relabel
    assert any(type(c) is Fraction and c.denominator == 1 for c in a.terms.values())
    perm = (2, 0, 3, 1)
    b = a.relabel(perm)
    assert list(b.terms) == [tuple(e[i] for i in perm) for e in a.terms]
    assert all(c is d for c, d in zip(a.terms.values(), b.terms.values()))
    # a ring map: it commutes with products, term order included
    c = mixed_poly(ctx, rng)
    assert list((a * c).relabel(perm).terms.items()) == list(
        (b * c.relabel(perm)).terms.items()
    )
    inverse = tuple(perm.index(i) for i in range(4))
    assert list(b.relabel(inverse).terms.items()) == list(a.terms.items())
    one = coordinate_ring(1).var(0)
    assert one.relabel([0]) == one


def test_relabel_refuses_what_is_not_a_graded_permutation():
    p = coordinate_ring(3).var(0)
    for perm in [(0, 1), (0, 1, 1), (0, 1, 3), (1, 2, 3, 0)]:
        with pytest.raises(ValueError, match="not a permutation"):
            p.relabel(perm)
    ctx = conormal_ctx(m=2, n=5)  # xi, h, c1 of codim 1, c2 of codim 2
    xi, h, c1 = ctx.sym("xi"), ctx.sym("h"), ctx.sym("c1")
    assert (xi * h * h).relabel((0, 2, 1, 3)) == xi * c1 * c1
    # xi is not pulled back, h is; c2 has codim 2
    for perm in [(1, 0, 2, 3), (0, 3, 2, 1)]:
        with pytest.raises(ValueError, match="grading"):
            h.relabel(perm)


def test_multiply_never_forms_a_dying_term(monkeypatch):
    ctx = conormal_ctx(m=2, n=5)
    xi, h, c1 = ctx.sym("xi"), ctx.sym("h"), ctx.sym("c1")
    a = (1 + xi + h + c1) ** 3
    b = h * c1 + xi ** 2 * (h + c1)

    def refuse(self, expts):
        raise AssertionError("__mul__ tested a single term")

    monkeypatch.setattr(RingContext, "_dies", refuse)
    assert (a * a).terms
    assert (b * b).is_zero()


TRUNCATED_RINGS = [
    declare_ring([SymbolSpec("a", 1), SymbolSpec("b", 2), SymbolSpec("c", 3)], truncation=5),
    conormal_ctx(m=2, n=7),
]


def grade_groups(groups):
    """Grade groups as a dict, each group's items sorted: equal up to order."""
    return {(d, p): sorted(items) for d, p, items in groups}


def assert_groups_cached(p):
    # a product records its grade groups; they are those of its terms
    assert p._groups is not None
    assert grade_groups(p._groups) == grade_groups(p.ctx._grades(p.terms))


@pytest.mark.parametrize("ctx", TRUNCATED_RINGS, ids=["truncated", "pullback"])
def test_product_of_products_is_the_normalized_convolution(ctx):
    rng = random.Random(609)
    for _ in range(10):
        a, b, c, d = (mixed_poly(ctx, rng, nterms=5, max_exp=2) for _ in range(4))
        ab, cd = a * b, c * d
        assert_groups_cached(ab)
        # both operands now carry cached groups, and are used twice
        assert ab * cd == naive_product(naive_product(a, b), naive_product(c, d))
        assert cd * ab == ab * cd
        assert_groups_cached(ab * cd)
        assert ab * ab == naive_product(ab, ab)


@pytest.mark.parametrize("ctx", TRUNCATED_RINGS, ids=["truncated", "pullback"])
def test_powers_reach_the_truncation_and_the_pullback_bound(ctx):
    rng = random.Random(610)
    a = 1 + sum(ctx.var(i) for i in range(len(ctx.symbols))) + mixed_poly(ctx, rng, nterms=4)
    want = ctx.one()
    for k in range(ctx.truncation + 2):
        assert a ** k == want, k
        if k:
            assert_groups_cached(a ** k)
        want = naive_product(want, a)
    # the top power of a codim-1 symbol that survives, and the first that dies
    if ctx.pullback_bound is None:
        t, top = ctx.var(0), ctx.truncation
    else:
        t, top = ctx.sym("h"), ctx.pullback_bound
    assert (t ** top).terms and (t ** (top + 1)).is_zero()


def test_unit_inverse_chains_are_exact():
    rng = random.Random(611)
    ctx = conormal_ctx(m=3, n=8)
    one = ctx.one()
    for _ in range(6):
        a = mixed_poly(ctx, rng, nterms=8)
        a = a - graded_piece(a, 0) + 1
        b = mixed_poly(ctx, rng, nterms=8)
        b = b - graded_piece(b, 0) + 1
        inv_a = unit_quotient(one, a)
        assert naive_product(a, inv_a) == 1
        assert unit_quotient(one, inv_a) == a
        assert unit_quotient(one, a * b) == naive_product(inv_a, unit_quotient(one, b))
        assert unit_quotient(one, unit_quotient(one, a * b) * a) == b


def test_fraction_products_cancel_and_keep_their_types():
    ctx = conormal_ctx(m=2, n=5)
    xi, h = ctx.sym("xi"), ctx.sym("h")
    a = Fraction(1, 2) * xi + Fraction(1, 3) * h
    b = Fraction(1, 2) * xi - Fraction(1, 3) * h
    got = a * b
    assert got == naive_product(a, b)
    # the xi*h terms cancel, and 1/4 + 3/4 is an integral Fraction
    assert got == Fraction(1, 4) * xi ** 2 - Fraction(1, 9) * h ** 2
    whole = got + Fraction(3, 4) * xi ** 2
    assert whole == xi ** 2 - Fraction(1, 9) * h ** 2
    assert hash(whole) == hash(xi ** 2 - Fraction(1, 9) * h ** 2)
    assert_groups_cached(got)


def test_truncation_zero_ring_keeps_the_constant_term():
    ctx = declare_ring([SymbolSpec("h", 1), SymbolSpec("p", 2)], truncation=0)
    a = ctx.constant(Fraction(3, 2)) + ctx.sym("h")
    assert a == Fraction(3, 2)
    assert a * a == naive_product(a, a) == Fraction(9, 4)
    assert (a * ctx.sym("p")).is_zero()
    assert a ** 5 == Fraction(243, 32)
    assert unit_quotient(ctx.one(), ctx.one()) == 1


def test_products_across_structurally_equal_contexts():
    rng = random.Random(612)
    ctx1, ctx2 = conormal_ctx(m=2, n=6), conormal_ctx(m=2, n=6)
    assert ctx1 == ctx2 and ctx1 is not ctx2
    for _ in range(10):
        a, b = mixed_poly(ctx1, rng), mixed_poly(ctx2, rng)
        want = naive_product(a, b)
        # the operands' groups are cached through different contexts
        assert a * b == want and b * a == want
        assert (a * b).ctx is ctx1 and (b * a).ctx is ctx2
        assert (a * a) * (b * b) == naive_product(naive_product(a, a), naive_product(b, b))


def geometric_inverse(a):
    """1 / (1 + d) as the finite series 1 - d + d^2 - ..."""
    delta = a - 1
    acc = power = a.ctx.one()
    for _ in range(a.ctx.truncation):
        power = power * (-delta)
        if power.is_zero():
            break
        acc = acc + power
    return acc


def test_unit_inverse_matches_the_geometric_series():
    rng = random.Random(608)
    ctx = conormal_ctx(m=3, n=8)
    for _ in range(12):
        a = mixed_poly(ctx, rng, nterms=10)
        a = a - graded_piece(a, 0) + 1
        assert unit_quotient(ctx.one(), a) == geometric_inverse(a)
    # a unit with a gap: u_1 = 0 while u_2 and u_4 are not
    h = declare_ring([SymbolSpec("h", 1)], truncation=5).sym("h")
    assert unit_quotient(h.ctx.one(), 1 + h ** 2) == 1 - h ** 2 + h ** 4


@pytest.mark.parametrize("ctx", TRUNCATED_RINGS, ids=["truncated", "pullback"])
def test_unit_quotient_times_the_unit_is_the_dividend(ctx):
    rng = random.Random(614)
    for _ in range(10):
        u = mixed_poly(ctx, rng, nterms=8)
        u = u - graded_piece(u, 0) + 1
        # a constant, every symbol and random terms: several grades
        a = mixed_poly(ctx, rng, nterms=10, max_exp=2) + Fraction(rng.randrange(1, 9), 7)
        for i in range(len(ctx.symbols)):
            a = a + Fraction(rng.randrange(1, 9), rng.randrange(1, 5)) * ctx.var(i)
        assert len(a.codims()) >= 3
        q = unit_quotient(a, u)
        assert naive_product(q, u) == a
        assert q == naive_product(a, geometric_inverse(u))
        assert_groups_cached(q)
        assert unit_quotient(ctx.zero(), u).is_zero()
        assert unit_quotient(a, ctx.one()) == a
        assert_groups_cached(unit_quotient(a, 1))


def test_unit_quotient_refuses_what_is_not_a_unit():
    ctx = conormal_ctx(m=2, n=5)
    a = 1 + ctx.sym("xi")
    for u in (ctx.zero(), ctx.sym("h"), 2 + ctx.sym("xi")):
        with pytest.raises(ValueError, match="not a unit"):
            unit_quotient(a, u)
    coords = coordinate_ring(2)
    with pytest.raises(ValueError, match="not a unit"):
        unit_quotient(coords.one(), 1 + coords.var(0))
    with pytest.raises(ValueError, match="not a unit"):
        unit_quotient(coords.one(), coords.one())
    with pytest.raises(ValueError, match="context mismatch"):
        unit_quotient(a, conormal_ctx(m=2, n=6).one())
    with pytest.raises(ValueError, match="use unit_quotient"):
        coords.var(0) ** -1


def test_integral_inputs_give_int_coefficients():
    ctx = conormal_ctx(m=2, n=6)
    xi, c2 = ctx.sym("xi"), ctx.sym("c2")
    built = [
        ctx.constant(Fraction(6, 2)),
        ctx.poly({(1, 0, 1, 0): Fraction(4, 1)}),
        parse(ctx, "3.0*xi^2 - 2*c1 + 7"),
        ctx.poly({(1, 0, 0, 0): Fraction(8, 4)}),
        unit_quotient(ctx.one(), 1 + 3 * xi - c2) * (2 + xi) ** 3,
    ]
    for p in built:
        assert p.terms and all(type(c) is int for c in p.terms.values()), render(p)
    assert type(parse(ctx, "xi/2").terms[(1, 0, 0, 0)]) is Fraction


def test_integral_values_from_fraction_arithmetic_equal_the_int():
    """Ring arithmetic that involves a Fraction may keep an integral value
    as Fraction(n, 1); it compares and hashes equal to the int n, and so
    does the polynomial, which also renders and reads back the same."""
    ellipse = parse_system_text("vars: x1 x2\nx1^2 + x2^2/2 - 1\n")
    lagrange = build_lagrange_system(list(ellipse.polynomials))
    examples = [
        (coordinate_ring(2).poly({(1, 0): Fraction(1, 2)}) * 4, ["x1", "x2"]),
        (parse(coordinate_ring(1), "4/2*x", ["x"]), ["x"]),
        *((p, lagrange.variables) for p in lagrange.polynomials),
    ]
    integral = 0
    for p, names in examples:
        # built from given terms, the same polynomial holds ints
        q = ClassPoly(p.ctx, p.terms)
        for e, c in p.terms.items():
            assert type(c) in (int, Fraction)
            if c.denominator == 1:
                integral += 1
                assert type(q.terms[e]) is int
                assert c == q.terms[e] and hash(c) == hash(q.terms[e])
        assert p == q and hash(p) == hash(q)
        text = render_poly(p, names)
        assert text == render_poly(q, names)
        assert parse(p.ctx, text, names) == p
    assert integral > len(examples)


@pytest.mark.parametrize(
    "ctx, names",
    [(coordinate_ring(1), ["x1"]), (declare_ring([SymbolSpec("x1", 1)], truncation=3), None)],
    ids=["coordinate", "class"],
)
def test_division_by_a_constant_stays_exact(ctx, names):
    x1 = ctx.var(0)
    for text, coeff in (("x1/3", Fraction(1, 3)), ("x1/(2*3)", Fraction(1, 6))):
        got = parse(ctx, text, names)
        assert got == coeff * x1
        assert got.terms[(1,)] == coeff and type(got.terms[(1,)]) is Fraction


# -- division ----------------------------------------------------------------


def test_divide_monic_reconstruction():
    rng = random.Random(4242)
    ctx = conormal_ctx(m=2, n=7)
    xi = ctx.sym("xi")
    h = ctx.sym("h")
    c1 = ctx.sym("c1")
    r = xi ** 3 - 2 * c1 * xi ** 2 + h * c1 * xi - ctx.constant(0)  # monic in xi
    for _ in range(10):
        a = random_poly(ctx, rng, nterms=8, max_exp=4)
        q, rem = divide_monic(a, r, "xi")
        assert q * r + rem == a
        assert rem.degree_in("xi") < 3


def test_divide_monic_rejects_non_monic():
    ctx = conormal_ctx(m=1, n=4)
    xi, h = ctx.sym("xi"), ctx.sym("h")
    with pytest.raises(ValueError):
        divide_monic(xi ** 2, 2 * xi + h, "xi")
    with pytest.raises(ValueError):
        divide_monic(xi ** 2, 1 + h, "xi")
    other = conormal_ctx(m=1, n=5).sym("xi")
    with pytest.raises(ValueError, match="context mismatch in divide_monic"):
        divide_monic(xi ** 2, other, "xi")


def test_divide_monic_exact_multiple_has_zero_remainder():
    ctx = conormal_ctx(m=1, n=6)
    xi, h, c1 = ctx.sym("xi"), ctx.sym("h"), ctx.sym("c1")
    r = xi ** 2 - 3 * h * xi + c1 * xi
    a = (xi ** 2 + 5 * c1) * r
    q, rem = divide_monic(a, r, "xi")
    assert rem.is_zero()
    assert q * r == a


# -- substitution ------------------------------------------------------------


def test_substitute_is_a_ring_map():
    src = declare_ring([SymbolSpec("e1", 1), SymbolSpec("e2", 2)], truncation=6)
    tgt = conormal_ctx(m=1, n=7)
    xi, h = tgt.sym("xi"), tgt.sym("h")
    images = {"e1": xi, "e2": h * xi - h ** 2}
    rng = random.Random(5)
    for _ in range(8):
        a = random_poly(src, rng, nterms=5, max_exp=2)
        b = random_poly(src, rng, nterms=5, max_exp=2)
        fa = substitute(a, images, tgt)
        fb = substitute(b, images, tgt)
        assert substitute(a + b, images, tgt) == fa + fb
        assert substitute(a * b, images, tgt) == fa * fb


def test_substitute_validates_images():
    src = declare_ring([SymbolSpec("e1", 1), SymbolSpec("e2", 2)], truncation=4)
    tgt = conormal_ctx(m=1, n=5)
    e1, e2 = src.sym("e1"), src.sym("e2")
    with pytest.raises(ValueError):
        substitute(e1 + e2, {"e1": tgt.sym("xi")}, tgt)  # e2 has no image
    with pytest.raises(ValueError):
        # image of e2 not homogeneous of codim 2
        substitute(e2, {"e2": tgt.sym("xi")}, tgt)
    # symbols that never appear need no image
    assert substitute(e1, {"e1": tgt.sym("h")}, tgt) == tgt.sym("h")


# -- text form ---------------------------------------------------------------


def formula_ctx(m):
    syms = [SymbolSpec("h", 1)] + [SymbolSpec(f"p{i}", i) for i in range(1, m + 1)]
    return declare_ring(syms, truncation=m)


def test_render_canonical_order():
    ctx = formula_ctx(2)
    h, p1, p2 = ctx.sym("h"), ctx.sym("p1"), ctx.sym("p2")
    b = p2 + 12 * p1 ** 2 + 6 * h * p1 + 3 * h ** 2
    assert render(b) == "3*h^2 + 6*h*p1 + 12*p1^2 + p2"


def test_render_edge_cases():
    ctx = formula_ctx(1)
    h, p1 = ctx.sym("h"), ctx.sym("p1")
    assert render(ctx.zero()) == "0"
    assert render(ctx.one()) == "1"
    assert render(-h) == "-h"
    assert render(h - p1) == "h - p1"
    assert render(Fraction(3, 2) * h) == "3/2*h"


def test_parse_render_roundtrip():
    rng = random.Random(11)
    ctx = formula_ctx(3)
    for _ in range(20):
        a = random_poly(ctx, rng, nterms=7, max_exp=2)
        assert parse(ctx, render(a)) == a


def test_parse_examples():
    ctx = formula_ctx(1)
    h, p1 = ctx.sym("h"), ctx.sym("p1")
    assert parse(ctx, "2*h + 5*p1") == 2 * h + 5 * p1
    assert parse(ctx, "h - 3/2*p1") == h - Fraction(3, 2) * p1
    assert parse(ctx, "-h^1 + 0*p1") == -h


def test_parse_errors_are_located():
    ctx = formula_ctx(1)
    with pytest.raises(ValueError, match="column"):
        parse(ctx, "2*h + 5*q1")
    with pytest.raises(ValueError, match="column"):
        parse(ctx, "2*h $ 3")
    with pytest.raises(ValueError):
        parse(ctx, "2*")


def test_parse_full_grammar_in_a_class_ring():
    ctx = formula_context(2)
    h, p1, p2 = ctx.sym("h"), ctx.sym("p1"), ctx.sym("p2")
    got = parse(ctx, "(h + p1)^2 - 0.5*p2")
    assert got == h ** 2 + 2 * h * p1 + p1 ** 2 - Fraction(1, 2) * p2
    # the ring's truncation applies while the text is read
    assert parse(ctx, "(1 + h)^3 + h^2*p1 - p2/4") == 1 + 3 * h + 3 * h ** 2 - Fraction(1, 4) * p2


@pytest.mark.parametrize(
    "ctx, text", [(coordinate_ring(2), "v0 + v1^99999999"), (formula_context(1), "h + h^99999999")]
)
def test_parse_bounds_exponents(ctx, text):
    with pytest.raises(SystemParseError) as err:
        parse(ctx, text)
    assert err.value.line == 1 and err.value.col == text.index("9") + 1
    name = ctx.symbols[0].name
    parse(ctx, f"{name}^{MAX_EXPONENT}")


@pytest.mark.parametrize(
    "text, col", [("1e-3*v0", 1), ("v0 + 2.5E+4", 6), ("v0 + 1e999999999", 6)]
)
def test_scientific_notation_is_named(text, col):
    # refused by name at the literal, never expanded however large the exponent
    with pytest.raises(SystemParseError, match="scientific notation is not supported") as err:
        parse(coordinate_ring(1), text)
    assert err.value.col == col
