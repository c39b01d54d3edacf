import hashlib
import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, sqrt
from pathlib import Path

import pytest

from bnd.cli import main
from bnd.ring import ClassPoly, SymbolSpec, coordinate_ring, declare_ring
from bnd.systems import (
    PolySystem,
    SystemMeta,
    SystemParseError,
    build_lagrange_system,
    build_minor_system,
    emit,
    format_system,
    parse,
    parse_poly,
    parse_system_text,
    render_poly,
)

def det(rows):
    """Determinant by Laplace expansion along the first row: the reference
    that build_minor_system's shared sub-minors must reproduce, term order
    included."""
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise ValueError("matrix is not square")
    if size == 1:
        return rows[0][0]
    acc = rows[0][0].ctx.zero()
    for j in range(size):
        minor = [[r[jj] for jj in range(size) if jj != j] for r in rows[1:]]
        acc = acc + (-1) ** j * rows[0][j] * det(minor)
    return acc


XY2 = ("x1", "x2", "y1", "y2")

TROTT = "144*x1^4 + 350*x1^2*x2^2 + 144*x2^4 - 225*x1^2 - 225*x2^2 + 81"


def p2(text):
    return parse_poly(text, ("x1", "x2"))


def p3(text):
    return parse_poly(text, ("x1", "x2", "x3"))


# -- polynomial layer --------------------------------------------------------


def test_poly_arithmetic_and_diff():
    f = p2("x1^2*x2 - 3*x2 + 1/2")
    assert f.diff(0) == p2("2*x1*x2")
    assert f.diff(1) == p2("x1^2 - 3")
    assert (f - f).is_zero()
    assert f.eval_exact([2, 3]) == 12 - 9 + Fraction(1, 2)
    assert f.total_degree() == 3


def test_det_small():
    a, b, c, d = (p2(s) for s in ("x1", "x2", "1", "x1*x2"))
    assert det([[a, b], [c, d]]) == p2("x1^2*x2 - x2")
    assert det([[a]]) == a
    with pytest.raises(ValueError):
        det([[a, b], [c]])


def test_render_graded_descending():
    assert render_poly(p2(TROTT), ("x1", "x2")) == TROTT
    assert render_poly(p2("0"), ("x1", "x2")) == "0"
    assert render_poly(p2("-x1 + 3/10*x2^2"), ("x1", "x2")) == "3/10*x2^2 - x1"


# -- parser ------------------------------------------------------------------


def test_parse_decimals_exactly():
    assert p2("0.3") == coordinate_ring(2).constant(Fraction(3, 10))
    assert p2("1.25*x1") == Fraction(5, 4) * coordinate_ring(2).var(0)
    assert p2(".5*x2^2") == Fraction(1, 2) * coordinate_ring(2).var(1) ** 2


def test_parse_parenthesized_powers():
    assert p2("(x1 + 1)^2") == p2("x1^2 + 2*x1 + 1")
    f = p3("(0.3*x1^2 + 0.5*x3 + 0.3*x1 + 1.2*x2^2 - 1.1)^2 - 0.3")
    assert f.total_degree() == 4
    assert f.eval_exact([0, 0, 0]) == Fraction(11, 10) ** 2 - Fraction(3, 10)


def test_parse_division_rules():
    assert p2("x2^2/2") == Fraction(1, 2) * coordinate_ring(2).var(1) ** 2
    assert p2("3/2*x1") == Fraction(3, 2) * coordinate_ring(2).var(0)
    with pytest.raises(SystemParseError):
        p2("x1/x2")
    with pytest.raises(SystemParseError):
        p2("x1/0")


def test_coordinate_and_class_polynomials_share_one_type():
    ring_value = declare_ring([SymbolSpec("h", 1)], truncation=2).sym("h")
    assert type(parse_poly("x1", ("x1",))) is type(ring_value)
    assert isinstance(ring_value, ClassPoly)


def test_parse_errors_carry_position():
    with pytest.raises(SystemParseError) as err:
        parse_poly("x1 + z9", XY2, line=7)
    assert err.value.line == 7
    assert err.value.col == 6
    with pytest.raises(SystemParseError):
        p2("x1 + ")
    with pytest.raises(SystemParseError):
        p2("(x1")
    with pytest.raises(SystemParseError):
        p2("x1^2.5")


# -- minor systems -----------------------------------------------------------


def test_trott_minor_system_matches_known_equations():
    sys = build_minor_system([p2(TROTT)], m=1)
    assert sys.variables == XY2
    assert sys.metadata == SystemMeta(2, 1, 1, "minors")
    eq = lambda s: parse_poly(s, XY2)
    expected = (
        eq("144*x1^4 + 350*x1^2*x2^2 + 144*x2^4 - 225*x1^2 - 225*x2^2 + 81"),
        eq("144*y1^4 + 350*y1^2*y2^2 + 144*y2^4 - 225*y1^2 - 225*y2^2 + 81"),
        eq(
            "(y1 - x1)*(576*x2^3 + 700*x1^2*x2 - 450*x2)"
            " - (y2 - x2)*(576*x1^3 + 700*x1*x2^2 - 450*x1)"
        ),
        eq(
            "(x1 - y1)*(576*y2^3 + 700*y1^2*y2 - 450*y2)"
            " - (x2 - y2)*(576*y1^3 + 700*y1*y2^2 - 450*y1)"
        ),
    )
    assert sys.polynomials == expected


def test_ellipse_minor_system_known_pairs_are_solutions():
    sys = build_minor_system([p2("x1^2 + x2^2/2 - 1")], m=1)
    assert len(sys.polynomials) == 4
    for poly in sys.polynomials:
        assert poly.eval_exact([1, 0, -1, 0]) == 0
    r = sqrt(2)
    for poly in sys.polynomials:
        assert abs(float(poly.eval_exact([Fraction(0), Fraction(r), Fraction(0), Fraction(-r)]))) < 1e-12


def test_hyperplane_minor_system_is_diagonal_only():
    sys = build_minor_system([p2("x1")], m=1)
    assert sys.polynomials[0] == parse_poly("x1", XY2)
    assert sys.polynomials[1] == parse_poly("y1", XY2)
    diag = parse_poly("x2 - y2", XY2)
    assert sys.polynomials[2] in (diag, -diag)
    assert sys.polynomials[3] in (diag, -diag)


def test_minor_counts_and_order():
    # n=3, k=1, m=2: 2x2 minors, C(2,2)*C(3,2)=3 per Jacobian
    sys = build_minor_system([p3("x1^2 + x2^2 + x3^2 - 1")], m=2)
    assert len(sys.polynomials) == 2 + 3 + 3
    # n=3, k=2, m=1: full 3x3 determinant, one per Jacobian
    curve = [p3("x1^3 - 3*x1*x2^2 - x3"), p3("x1^2 + x2^2 + 3*x3^2 - 1")]
    sys = build_minor_system(curve, m=1)
    assert len(sys.polynomials) == 4 + 1 + 1
    k, n, m = 2, 3, 1
    assert comb(k + 1, n - m + 1) * comb(n, n - m + 1) == 1


def _dense(rng, n, degree):
    """A random polynomial in n variables with every monomial of degree at
    most degree, integer and Fraction coefficients."""
    terms = {}
    for e in product(range(degree + 1), repeat=n):
        if sum(e) <= degree:
            c = rng.choice([c for c in range(-9, 10) if c])
            terms[e] = Fraction(c, rng.choice([1, 1, 2, 3]))
    return coordinate_ring(n).poly(terms)


def _same_terms(got, want):
    """The polynomials have the same terms in the same order, with the same
    coefficient types."""
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert list(p.terms.items()) == list(q.terms.items())
        assert [type(c) for c in p.terms.values()] == [type(c) for c in q.terms.values()]


@pytest.mark.parametrize(
    "n, degrees, seed",
    [(4, (2, 2), 0), (4, (2, 3), 1), (5, (2, 2), 2), (3, (4,), 3), (3, (2, 3), 4)],
)
def test_shared_minors_equal_det(n, degrees, seed):
    """The minors with shared sub-minors are det of each minor matrix, and
    the relabelled x-half is f_i(y) and the minors of J(y,x) built
    directly: the same terms in the same order.  Codim-2 inputs also run
    with m = n - 1, whose 2x2 minors include a row set of two gradients
    and no chord row."""
    rng = random.Random(seed)
    fs = [_dense(rng, n, d) for d in degrees]
    total = 2 * n
    ring = coordinate_ring(total)
    x = [ring.var(i) for i in range(n)]
    y = [ring.var(n + i) for i in range(n)]
    fx = [f.embed(total, 0) for f in fs]
    fy = [f.embed(total, n) for f in fs]
    j_xy = [[y[j] - x[j] for j in range(n)]] + [[p.diff(j) for j in range(n)] for p in fx]
    j_yx = [[x[j] - y[j] for j in range(n)]] + [[p.diff(n + j) for j in range(n)] for p in fy]
    for m in sorted({n - len(fs), n - 1}):
        size = n - m + 1
        want = [
            det([[rows[r][c] for c in ci] for r in ri])
            for rows in (j_xy, j_yx)
            for ri in combinations(range(len(rows)), size)
            for ci in combinations(range(n), size)
        ]
        assert len(want) == 2 * comb(len(fs) + 1, size) * comb(n, size)
        _same_terms(build_minor_system(fs, m).polynomials, fx + fy + want)


def test_minor_system_swap_symmetry():
    def swapped(poly, n):
        out = {}
        for e, c in poly.terms.items():
            out[e[n:] + e[:n]] = c
        return coordinate_ring(2 * n).poly(out)

    for fs, m, n in [
        ([p2(TROTT)], 1, 2),
        ([p3("x1^3 - 3*x1*x2^2 - x3"), p3("x1^2 + x2^2 + 3*x3^2 - 1")], 1, 3),
    ]:
        sys = build_minor_system(fs, m)
        polys = set(sys.polynomials)
        assert {swapped(q, n) for q in polys} == polys


def test_minor_system_input_validation():
    with pytest.raises(ValueError):
        build_minor_system([p2("x1")], m=2)
    with pytest.raises(ValueError):
        build_minor_system([p3("x1")], m=1)  # k=1 < n-m=2
    with pytest.raises(ValueError):
        build_minor_system([], m=1)
    with pytest.raises(ValueError, match="disagree on variable count"):
        build_minor_system([p2("x1"), p3("x1")], m=1)
    with pytest.raises(ValueError, match="need at least one defining polynomial"):
        build_lagrange_system([])
    # more equations than variables: m = n - k < 0
    over = [p2("x1 - 1"), p2("x2 - 1"), p2("x1 + x2 - 2")]
    with pytest.raises(ValueError, match="need m >= 0, got m=-1"):
        build_minor_system(over, m=-1)
    with pytest.raises(ValueError, match="need m >= 0, got m=-1"):
        build_lagrange_system(over)


# -- Lagrange systems --------------------------------------------------------


def test_ellipse_lagrange_system_is_the_multiplier_system():
    sys = build_lagrange_system([p2("x1^2 + x2^2/2 - 1")])
    assert sys.variables == ("x1", "x2", "y1", "y2", "lam1", "mu1")
    assert sys.metadata == SystemMeta(2, 1, 1, "lagrange")
    eq = lambda s: parse_poly(s, sys.variables)
    expected = (
        eq("x1^2 + x2^2/2 - 1"),
        eq("y1^2 + y2^2/2 - 1"),
        eq("x1 - y1 - 2*lam1*x1"),
        eq("x2 - y2 - lam1*x2"),
        eq("x1 - y1 - 2*mu1*y1"),
        eq("x2 - y2 - mu1*y2"),
    )
    assert sys.polynomials == expected


def lagrange_reference(fs):
    """The Lagrange system with both multiplier blocks expanded directly:
    the reference that build_lagrange_system's relabelled mu block must
    reproduce, term order included."""
    n, k = fs[0].nvars, len(fs)
    total = 2 * n + 2 * k
    fx = [f.embed(total, 0) for f in fs]
    fy = [f.embed(total, n) for f in fs]
    ring = coordinate_ring(total)
    x = [ring.var(i) for i in range(n)]
    y = [ring.var(n + i) for i in range(n)]
    lam = [ring.var(2 * n + i) for i in range(k)]
    mu = [ring.var(2 * n + k + i) for i in range(k)]
    lam_block = [
        x[j] - y[j] - sum((lam[i] * fx[i].diff(j) for i in range(k)), ring.zero())
        for j in range(n)
    ]
    mu_block = [
        x[j] - y[j] - sum((mu[i] * fy[i].diff(n + j) for i in range(k)), ring.zero())
        for j in range(n)
    ]
    return fx + fy + lam_block + mu_block


@pytest.mark.parametrize(
    "n, degrees, seed", [(2, (4,), 10), (3, (3,), 11), (3, (2, 3), 12), (4, (3, 2), 13)]
)
def test_lagrange_system_equals_the_direct_construction(n, degrees, seed):
    rng = random.Random(seed)
    fs = [_dense(rng, n, d) for d in degrees]
    _same_terms(build_lagrange_system(fs).polynomials, lagrange_reference(fs))


def test_lagrange_square_count():
    sys = build_lagrange_system([p3("x1^4 + x2^4 + x3^4 - 1")])
    assert len(sys.polynomials) == 8
    assert len(sys.variables) == 8


def test_lagrange_degenerate_gradient_still_builds():
    sys = build_lagrange_system([coordinate_ring(2).constant(1)])
    assert len(sys.polynomials) == 6
    assert sys.polynomials[2] == parse_poly("x1 - y1", sys.variables)


# -- serialization -----------------------------------------------------------


@pytest.mark.parametrize("draw", range(16))
def test_emitted_systems_match_the_perfbench_reference(perfbench_workloads, tmp_path, draw):
    """`bnd system` writes, for every shape and form of each of the 16
    perfbench systems draws, a file whose SHA-256 is the one pinned in
    perfbench/reference/systems.json."""
    assert perfbench_workloads.SYSTEM_POOL == 16
    reference = perfbench_workloads.load_reference("systems")
    ops = perfbench_workloads.system_ops(draw, str(tmp_path))
    assert len(ops) == 40
    for op in ops:
        assert main(op["argv"]) == 0
        digest = hashlib.sha256(Path(op["output"]).read_bytes()).hexdigest()
        assert digest == reference[op["key"]], op["key"]


def test_emit_parse_roundtrip_is_bit_identical(tmp_path):
    sys = build_minor_system([p2(TROTT)], m=1)
    path = tmp_path / "trott.bnsys"
    emit(sys, path)
    first = path.read_bytes()
    reparsed = parse(path)
    assert reparsed == sys
    emit(reparsed, path)
    assert path.read_bytes() == first


def test_parse_system_text_features():
    sys = parse_system_text(
        """
# a comment before anything
vars: u v

u^2 + 0.3*v   # trailing note
- u + 3/2
"""
    )
    assert sys.variables == ("u", "v")
    assert sys.polynomials[0] == parse_poly("u^2 + 3/10*v", ("u", "v"))
    assert sys.polynomials[1] == parse_poly("3/2 - u", ("u", "v"))
    assert sys.metadata is None


def test_parse_system_errors_are_located():
    with pytest.raises(SystemParseError) as err:
        parse_system_text("vars: x1 x2\nx1 + q3\n")
    assert err.value.line == 2
    with pytest.raises(SystemParseError):
        parse_system_text("x1 + 1\n")  # no vars line
    with pytest.raises(SystemParseError):
        parse_system_text("vars: x1 x1\nx1\n")


def test_parse_system_error_columns_count_indentation():
    # q3 sits at column 10 of the file line, after four spaces of indent
    with pytest.raises(SystemParseError) as err:
        parse_system_text("vars: x1 x2\n    x1 + q3\n")
    assert (err.value.line, err.value.col) == (2, 10)
    with pytest.raises(SystemParseError) as err:
        parse_system_text("  vars: x1 x1\n")
    assert (err.value.line, err.value.col) == (1, 8)
    indented = parse_system_text("vars: x1 x2\n\tx1^2 + x2\n")
    assert indented.polynomials == (p2("x1^2 + x2"),)


def test_overlong_numeric_literal_is_located():
    digits = "1" * 5000
    with pytest.raises(SystemParseError) as err:
        parse_system_text(f"vars: x1 x2\nx1 + {digits}*x2\n")
    assert (err.value.line, err.value.col) == (2, 6)
    with pytest.raises(SystemParseError) as err:
        p2(f"x1 - 0.{digits}")
    assert err.value.col == 6


@pytest.mark.parametrize(
    "line, col, key",
    [("# n: two", 6, "n"), ("  #  k :  1.5  ", 11, "k"), ("# m:-", 5, "m")],
)
def test_metadata_values_must_be_integers(line, col, key):
    with pytest.raises(SystemParseError, match=f"'{key}' must be an integer") as err:
        parse_system_text(f"vars: x1 x2\n{line}\nx1 + x2\n")
    assert (err.value.line, err.value.col) == (2, col)
    meta = "# n: 2\n# k: 1\n# m: 1\n# formulation: minors\n"
    assert parse_system_text(f"vars: x1 x2\n{meta}x1\n").metadata == SystemMeta(2, 1, 1, "minors")


def test_system_validates_variable_counts():
    with pytest.raises(ValueError):
        PolySystem(("x1",), (coordinate_ring(2).var(0),))
