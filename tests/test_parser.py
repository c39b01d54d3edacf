"""The parser of bnd.ring against a character-level reference parser.

`_CharParser` below is the reference: it builds every number and symbol
as a ClassPoly and combines them with the ring's own arithmetic.  A unary
minus inside a term negates the whole power after it, so x1*-x2^2 is
-x1*x2^2.  The parser in bnd.ring must give the same terms in the same
key order with the same int/Fraction coefficient types, and the same
error, line and column, on every input.

bnd.ring.parse reads a line in the canonical form of render and
render_poly (integer or p/q coefficients) with its line reader and any
other text with its recursive descent, _Parser; the tests at the end hold
the reader to the descent and to _CharParser, and check that the text the
program writes (emitted systems, class formulas) never reaches the
descent.
"""

import random
import re
from fractions import Fraction
from itertools import product
from typing import Sequence

import pytest

from bnd.engine import compute_B, conormal_context, formula_context
import bnd.ring
from bnd.ring import (
    IDENTIFIER,
    MAX_EXPONENT,
    ClassPoly,
    RingContext,
    SystemParseError,
    _Parser,
    _read_canonical,
    coordinate_ring,
    parse,
)
from bnd.systems import (
    build_lagrange_system,
    build_minor_system,
    format_system,
    parse_poly,
    parse_system_text,
)

_NUM = re.compile(r"\d+\.\d+|\d+|\.\d+")
# an exponent right after a literal: 1e-3 is refused by name, never expanded
# (Fraction("1e999999999") would write out a billion digits)
_SCIENTIFIC = re.compile(r"[eE][+-]?\d")


class _CharParser:
    """Recursive descent over + - * / ^ with parentheses.

    Accepts a superset of what render and render_poly produce: decimals,
    parentheses and powers of parenthesized groups, so hand-written input
    can say (0.3*x1^2 + ...)^2 without pre-expansion.  '/' only by a
    constant.  Every value is built in the ring, so its normalization
    (truncation, pullback bound) applies as the text is read.
    """

    def __init__(self, ctx: RingContext, text: str, names: Sequence[str], line: int):
        self.ctx = ctx
        self.text = text
        self.names = {name: i for i, name in enumerate(names)}
        self.line = line
        self.pos = 0

    def error(self, message: str):
        raise SystemParseError(message, self.line, self.pos + 1)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> ClassPoly:
        p = self.expr()
        if self.peek():
            self.error(f"unexpected {self.text[self.pos]!r}")
        return p

    def expr(self) -> ClassPoly:
        sign = 1
        ch = self.peek()
        if ch == "+" or ch == "-":
            sign = -1 if ch == "-" else 1
            self.pos += 1
        acc = sign * self.term()
        while True:
            ch = self.peek()
            if ch != "+" and ch != "-":
                return acc
            self.pos += 1
            rhs = self.term()
            acc = acc + rhs if ch == "+" else acc - rhs

    def term(self) -> ClassPoly:
        acc = self.power()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                acc = acc * self.power()
            elif ch == "/":
                self.pos += 1
                divisor = self.power()
                if divisor.total_degree() > 0:
                    self.error("can only divide by a constant")
                value = divisor.constant_term()
                if value == 0:
                    self.error("division by zero")
                acc = acc * self.ctx.constant(Fraction(1) / value)
            else:
                return acc

    def power(self) -> ClassPoly:
        if self.peek() == "-":
            self.pos += 1
            return -self.power()
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            m = _NUM.match(self.text, self.pos)
            if not m or "." in m.group():
                self.error("expected integer exponent")
            digits = m.group()
            # the length test comes first: int() refuses strings of over 4300 digits
            if len(digits.lstrip("0")) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                self.error(f"exponent above the bound {MAX_EXPONENT}")
            self.pos = m.end()
            return base ** int(digits)
        return base

    def atom(self) -> ClassPoly:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            p = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return p
        m = _NUM.match(self.text, self.pos)
        if m:
            if _SCIENTIFIC.match(self.text, m.end()):
                self.error("scientific notation is not supported; write the number as a decimal")
            tok = m.group()
            if tok.startswith("."):
                tok = "0" + tok
            try:
                value = Fraction(tok)
            except ValueError:  # int() refuses strings of over 4300 digits
                self.error(f"numeric literal of {len(tok)} characters is too long")
            self.pos = m.end()
            return self.ctx.constant(value)
        m = IDENTIFIER.match(self.text, self.pos)
        if m:
            name = m.group()
            if name not in self.names:
                self.error(f"undeclared variable {name!r}")
            self.pos = m.end()
            return self.ctx.var(self.names[name])
        self.error("expected a number, variable, or '('")


def reference_parse(ctx, text, names=None, line=1):
    if names is None:
        names = [s.name for s in ctx.symbols]
    return _CharParser(ctx, text, names, line).parse()


def outcome(parser, ctx, text, names=None, line=1):
    """What a parser makes of text: its terms in key order with their
    coefficient types, or its error, message and location."""
    try:
        p = parser(ctx, text, names, line)
    except SystemParseError as err:
        return ("error", type(err), str(err), err.line, err.col)
    return ("terms", list(p.terms.items()), [type(c) for c in p.terms.values()])


def assert_same(ctx, text, names=None, line=1):
    want = outcome(reference_parse, ctx, text, names, line)
    assert outcome(parse, ctx, text, names, line) == want, repr(text)
    return want


# -- seeded random expressions over the full grammar --------------------------

NUMBERS = ["0", "1", "2", "3", "7", "12", "0.5", ".5", "0.30", "1.25", "2.0", "10"]
SPACES = ["", "", " ", " ", "\t", "  "]


def _ws(rng):
    return rng.choice(SPACES)


def random_expr(rng, names, depth=0):
    text = rng.choice(["", "", "", "-", "+", "- "])
    for t in range(rng.randint(1, 4)):
        if t:
            text += _ws(rng) + rng.choice("+-") + _ws(rng)
        text += random_term(rng, names, depth)
    return text


def random_term(rng, names, depth):
    text = random_power(rng, names, depth)
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.2:
            text += _ws(rng) + "/" + _ws(rng) + random_divisor(rng, names)
        else:
            text += _ws(rng) + "*" + _ws(rng) + random_power(rng, names, depth)
    return text


def random_power(rng, names, depth):
    text = random_atom(rng, names, depth)
    if rng.random() < 0.3:
        text += _ws(rng) + "^" + _ws(rng) + rng.choice("01223")
    return text


def random_atom(rng, names, depth):
    r = rng.random()
    if r < 0.2 and depth < 2:
        return "(" + _ws(rng) + random_expr(rng, names, depth + 1) + _ws(rng) + ")"
    if r < 0.3:
        return "-" + _ws(rng) + random_atom(rng, names, depth)
    if r < 0.65:
        return rng.choice(names)
    return rng.choice(NUMBERS)


def random_divisor(rng, names):
    name = rng.choice(names)
    return rng.choice(
        ["3", "0.5", ".5", "10", "2^2", "(2*3)", "(1 + 0.5)", "(0.30)", "-4",
         f"({name} - {name} + 2)", f"({name}^3 + 2)", f"({name}*0 - 7)"]
    )


RINGS = {
    "coordinate": (coordinate_ring(3), ("x1", "x2", "x3")),
    "formula": (formula_context(2), None),
    "conormal": (conormal_context(2, 4), None),
}


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_random_expressions_parse_as_the_character_parser_does(ring):
    ctx, names = RINGS[ring]
    spelled = names or [s.name for s in ctx.symbols]
    rng = random.Random(9000 + sorted(RINGS).index(ring))
    parsed, errors = 0, set()
    for _ in range(400):
        text = random_expr(rng, spelled) + _ws(rng)
        got = assert_same(ctx, text, names)
        if got[0] == "terms":
            parsed += 1
        else:
            errors.add(got[2].split(": ", 1)[1])
    # the text is well formed; a divisor such as (x1^3 + 2) is a constant
    # only where the ring truncates x1^3
    assert parsed >= 300 and errors <= {"can only divide by a constant"}, (parsed, errors)


# hypersurface and codim-2 inputs with integer, Fraction and decimal
# coefficients; their systems put names such as y5, lam2 and mu1 inside
# products of several factors
EMITTED = {
    "curve": (2, ["x1^4 - x1^2*x2 + 3/10*x2^2 - 1.5*x1 + 2"]),
    "codim2 n4": (4, [
        "x1^2 - 3/10*x2*x3 + 1.5*x4^2 - x1*x4 + 2",
        "0.25*x2^2*x4 + x1*x3 - 7/3*x4 + x2 - 1",
    ]),
    "codim2 n5": (5, [
        "x1*x5 - 0.3*x2^2 + 2/7*x3*x4 - x5^2 + 1",
        "x4^2 + 1.25*x1*x2 - 3*x3*x5 + 5/2*x5 - 4",
    ]),
}


def emitted_systems():
    for nvars, texts in EMITTED.values():
        fs = [parse_poly(t, [f"x{i}" for i in range(1, nvars + 1)]) for t in texts]
        yield build_minor_system(fs, nvars - len(fs)), [f"*y{nvars}"] if len(fs) == 2 else []
        yield build_lagrange_system(fs), ["*lam2", "*mu1"] if len(fs) == 2 else []


def test_emitted_system_parses_as_the_character_parser_does():
    for system, inside in emitted_systems():
        emitted = format_system(system)
        assert all(name in emitted for name in inside)
        polys = [line for line in emitted.splitlines() if line[0] not in "#v"]
        assert len(polys) == len(system.polynomials)
        names = system.variables
        ctx = coordinate_ring(len(names))
        monomials: dict = {}
        for text, p in zip(polys, system.polynomials):
            want = assert_same(ctx, text, names)
            assert want[0] == "terms"
            # one monomials dict over the lines of a system, as parse_system_text
            # keeps it, gives the same terms as a fresh one per line
            assert outcome(lambda *a: parse(*a, monomials=monomials), ctx, text, names) == want
            assert dict(want[1]) == p.terms


@pytest.mark.parametrize(
    "ring, text, want",
    [
        # a key whose sum is 0 is deleted, and comes back at the end
        ("coordinate", "x1 + x2 - x1 + x1", [(0, 1, 0), (1, 0, 0)]),
        # a first term that is a group is multiplied by its sign, which
        # groups its terms by codimension; a later group keeps its order
        ("formula", "(h + h^2 + p1)", [(1, 0, 0), (0, 1, 0), (2, 0, 0)]),
        ("formula", "0 + (h + h^2 + p1)", [(1, 0, 0), (2, 0, 0), (0, 1, 0)]),
        # a monomial that dies in the ring is dropped, a group that is
        # truncated keeps its surviving terms
        ("formula", "h^3 + p1 - h*p2 + (h + h^2)^2", [(0, 1, 0), (2, 0, 0)]),
        ("conormal", "h^3 + xi*p2 + xi^4 + h*p1", [(1, 0, 0, 1), (0, 1, 1, 0)]),
    ],
)
def test_term_order(ring, text, want):
    ctx, names = RINGS[ring]
    got = assert_same(ctx, text, names)
    assert [e for e, _ in got[1]] == want


@pytest.mark.parametrize(
    "text, types",
    [
        ("2*0.5*x1", [Fraction]),
        ("0.5*x1 + 0.5*x1", [Fraction]),
        ("3/3*x1 + x2/1", [Fraction, int]),
        ("1.0*x1 - 2.50*x2 + 4/2", [int, Fraction, Fraction]),
        ("(0.5*x1)^2*4 + (x1 + 1)*2", [Fraction, int, int]),
    ],
)
def test_coefficient_types(text, types):
    ctx, names = RINGS["coordinate"]
    got = assert_same(ctx, text, names)
    assert got[2] == types


DIGITS = "1" * 5000

MALFORMED = [
    "",
    "   ",
    "x1 + ",
    "(x1",
    "x1)",
    "()",
    "x1^2.5",
    "x1^.5",
    "x1^-1",
    "x1^",
    "x1^x2",
    "x1^2^2",
    "2*h $ 3",
    "x1\t$",
    "x1/x2",
    "x1/x2^2 + 1",
    "x1/-x2",
    "x1/0",
    "x1/0 ",
    "x1/0^1  ",
    "x1 / (x2 - x2) + 1",
    "x1/(x2 + 1)",
    "x1/",
    "2x1",
    "1.",
    "1.5.5",
    ".",
    "x1 * -",
    "x1 + + x2",
    "x1(x2)",
    "é",
    "1e-3",
    "x1 + 2.5E+4",
    "x1^2e5",
    "2 e5",
    "2e",
    f"x1^{MAX_EXPONENT + 1}",
    f"x1^{'0' * 50}{MAX_EXPONENT + 1}",
    f"x1 + {DIGITS}*x2",
    f"x1 - 0.{DIGITS}",
    f"x1 - .{DIGITS}",
    "x1 + y9",
    # products of several factors, some with a power
    "x1^2^3",
    "x1*x2^2^3",
    "x1*x2^2 ^3",
    "x1^2.5*x2",
    "x1*x2^2.5*h",
    "x1*x2^101",
    f"x1*h*x2^{'0' * 50}{MAX_EXPONENT + 1}",
    "x1*x2*q3*h",
    "2*x1*h^2*x2e5",
    "x1*x2^",
    "x1*x2^x1",
    "x1*x2^2x1",
    "x1 + *x2",
    "x1/*x2",
    "x1/2*x2*q3",
    "x1/x2*h",
    "x1/x2^2*h",
    "x1/-x2^0*h + 1/x1",
    "x1*x2^1.*h",
    "x1*x2\u00e9*h",
]


@pytest.mark.parametrize("text", MALFORMED, ids=range(len(MALFORMED)))
def test_malformed_text_fails_as_in_the_character_parser(text):
    ctx = coordinate_ring(3)
    names = ("x1", "x2", "h")
    got = assert_same(ctx, text, names, line=4)
    assert got[0] == "error" and got[3] == 4


def test_names_must_be_one_distinct_name_per_symbol():
    # checked before either reader runs, canonical line or descent alike
    for text in ("x2", "(x2)"):
        with pytest.raises(ValueError, match="2 names .* for 1 symbols"):
            parse(coordinate_ring(1), text, ("x1", "x2"))
        with pytest.raises(ValueError, match="1 names .* for 2 symbols"):
            parse(coordinate_ring(2), text, ("x2",))
        with pytest.raises(ValueError, match="duplicate names"):
            parse_poly(text.replace("2", "1"), ("x1", "x1"))
    assert parse(coordinate_ring(2), "x2", ("x1", "x2")) == coordinate_ring(2).var(1)


@pytest.mark.parametrize("text", ["h/h^3", "h/(h^3 + 2)", "p1/(p2*h)", "h^0/p2^0", "h/2^0"])
def test_division_in_a_truncated_ring(text):
    ctx, names = RINGS["formula"]
    assert_same(ctx, text, names)


def test_well_formed_edge_cases():
    ctx = coordinate_ring(3)
    names = ("x1", "x2", "h")
    for text in [
        "-(x1 + 1)^2", "x1*-(x1 + 1)^2", "--x1", "- -x1", "x1 - -x1", "+-x1", "0^0",
        "x1^0", "x1^0005", "(x1)^0 - 1", "x1/(2)^2", "3/10*x1^2*h - 7", ".5*x2\t",
        "0.30 * x1 \t ", "x1 *\tx2\n", "\u00a0x1\u00a0+\u00a01", f"x1^{MAX_EXPONENT}",
        "(x1 + x2)^2*(x1 - x2)/4", "2*(x1 + 1)*x2*(h - 1)/3", "(2*0.5)*(x1 + 1)",
    ]:
        assert assert_same(ctx, text, names)[0] == "terms"


@pytest.mark.parametrize(
    "text, want",
    [
        # a unary minus inside a term negates the whole power after it,
        # as a leading sign does
        ("x1*-x2^2", "-x1*x2^2"),
        ("x1 - -x2^2", "x1 + x2^2"),
        ("2/-x1^0", "-2"),
        ("-x1^2", "-(x1^2)"),
        ("x1*- -x2^3", "x1*x2^3"),
        # a group in parentheses is the base of its power
        ("(-x1)^2", "x1^2"),
        ("x1*(-x2)^3", "-x1*x2^3"),
    ],
)
def test_unary_minus_applies_to_the_power(text, want):
    ctx, names = RINGS["coordinate"]
    assert assert_same(ctx, text, names)[0] == "terms"
    assert parse(ctx, text, names) == parse(ctx, want, names)


def test_unary_minus_does_not_start_a_second_power():
    # -x1^2^3 fails as x1^2^3 does, at the second '^'
    ctx, names = RINGS["coordinate"]
    for text in ("x1^2^3", "-x1^2^3", "x2*-x1^2^3"):
        got = assert_same(ctx, text, names)
        assert got[0] == "error" and "unexpected '^'" in got[2], (text, got)


# -- the canonical line reader -------------------------------------------------


def descent_parse(ctx, text, names=None, line=1):
    if names is None:
        names = [s.name for s in ctx.symbols]
    return _Parser(ctx, text, names, line).parse()


def assert_same_three_ways(ctx, text, names=None, line=1):
    """parse, the descent alone and the character parser agree on text."""
    want = outcome(reference_parse, ctx, text, names, line)
    assert outcome(descent_parse, ctx, text, names, line) == want, repr(text)
    assert outcome(parse, ctx, text, names, line) == want, repr(text)
    return want


def canonical(ctx, text, names=None):
    """Whether the line reader takes text (it returns None to fall back)."""
    spelled = names or [s.name for s in ctx.symbols]
    return _read_canonical(ctx, text, spelled, {}) is not None


def random_canonical(rng, names):
    """A line in the form render_poly writes, from a small pool of terms so
    that monomials repeat and cancel; with zero, integral and p/q
    coefficients, zero and repeated exponents, constants and indentation."""
    pool = []
    for _ in range(rng.randint(1, 5)):
        factors = [
            rng.choice(names) + rng.choice(["", "", "^0", "^1", "^2", "^3", "^03"])
            for _ in range(rng.randint(0, 3))
        ]
        coeff = rng.choice(
            ["", "", "1", "2", "0", "7", "12", "007",
             "1/2", "3/4", "2/3", "4/2", "3/1", "0/5", "06/04", "10/3"]
        )
        if not factors:
            pool.append(coeff or "5")
        elif coeff:
            pool.append(coeff + "*" + "*".join(factors))
        else:
            pool.append("*".join(factors))
    text = rng.choice(["", "", "", "  ", "\t"]) + rng.choice(["", "-"])
    for t in range(rng.randint(1, 8)):
        if t:
            text += rng.choice([" + ", " - "])
        text += rng.choice(pool)
    return text + rng.choice(["", "", " ", "\n"])


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_random_canonical_lines_read_as_the_descent_does(ring):
    ctx, names = RINGS[ring]
    spelled = names or [s.name for s in ctx.symbols]
    rng = random.Random(1600 + sorted(RINGS).index(ring))
    for _ in range(500):
        text = random_canonical(rng, spelled)
        assert canonical(ctx, text, names), repr(text)
        assert assert_same_three_ways(ctx, text, names)[0] == "terms"


@pytest.mark.parametrize(
    "ring, text, want",
    [
        # equal monomials add up, and a key whose sum is 0 is deleted and
        # comes back at the end
        ("coordinate", "x1 + x2 - x1 + x1", [((0, 1, 0), 1), ((1, 0, 0), 1)]),
        ("coordinate", "2*x1*x2 - x2*x1 - x1*x2", []),
        # zero coefficients, zero exponents and repeated factors
        ("coordinate", "0*x1 + x1^0 + 3", [((0, 0, 0), 4)]),
        ("coordinate", "x1*x1 - x1^2 + 2*x1^1*x3*x1", [((2, 0, 1), 2)]),
        ("coordinate", "-0 - 7", [((0, 0, 0), -7)]),
        ("coordinate", "\t  -x2^3 + 5  ", [((0, 3, 0), -1), ((0, 0, 0), 5)]),
        # a monomial that dies in the ring is dropped
        ("formula", "h^3 + p1 - h*p2 + 2*h^2", [((0, 1, 0), 1), ((2, 0, 0), 2)]),
        ("conormal", "h^3 + xi*p2 + xi^4 + h*p1", [((1, 0, 0, 1), 1), ((0, 1, 1, 0), 1)]),
        # p/q is p * (1/q): an int when q is 1, a Fraction otherwise, even
        # when the value is integral
        ("coordinate", "2/3*x1", [((1, 0, 0), Fraction(2, 3))]),
        ("coordinate", "3/1*x1", [((1, 0, 0), 3)]),
        ("coordinate", "4/2*x1", [((1, 0, 0), Fraction(2))]),
        ("coordinate", "1/2*x1^2 - 1/2*x1*x1 + 3/2", [((0, 0, 0), Fraction(3, 2))]),
    ],
)
def test_canonical_lines(ring, text, want):
    ctx, names = RINGS[ring]
    assert canonical(ctx, text, names)
    got = assert_same_three_ways(ctx, text, names)
    assert got[1] == want and got[2] == [type(c) for _, c in want]


@pytest.mark.parametrize(
    "text",
    [
        f"x1^{MAX_EXPONENT + 1}",
        f"2*x2*x1^{MAX_EXPONENT + 1}",
        "x1 + y9",
        f"{DIGITS}*x1",
        f"x1 - {DIGITS}",
        f"1/{DIGITS}*x1",
        "2/0*x1",
        "x1/0",
        "1/2/3*x1",
        "1//2*x1",
        "12/*x1",
        "0.5*x1",
        "x1^2^3",
        "x1  + x2",
        "x1 +  x2",
        "(x1)",
        "- x1",
        "+x1",
        "x1 * x2",
        "1e5*x1",
        "x1+x2",
        "",
        "x1 +",
    ],
)
def test_other_lines_fall_back_to_the_descent(text):
    ctx, names = RINGS["coordinate"]
    assert not canonical(ctx, text, names)
    assert_same_three_ways(ctx, text, names, line=7)


def _dense_poly(rng, nvars, degree, coefficients):
    """Every monomial of degree at most degree, with nonzero coefficients
    drawn from coefficients."""
    terms = {
        e: rng.choice(coefficients)
        for e in product(range(degree + 1), repeat=nvars)
        if sum(e) <= degree
    }
    return ClassPoly(coordinate_ring(nvars), terms)


INTEGERS = [c for c in range(-9, 10) if c]
FRACTIONS = INTEGERS + [Fraction(p, q) for p in (-7, -1, 1, 3, 5) for q in (2, 3, 10)]


@pytest.fixture
def descent_lines(monkeypatch):
    """The lines parse hands to the descent, in order."""
    built = []

    class Counting(_Parser):
        def __init__(self, *args, **kwargs):
            built.append(args[1])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(bnd.ring, "_Parser", Counting)
    return built


def test_emitted_systems_never_reach_the_descent(descent_lines):
    rng = random.Random(16)
    for coefficients, nvars, codim in product((INTEGERS, FRACTIONS), range(2, 6), (1, 2)):
        if codim >= nvars:
            continue
        fs = [_dense_poly(rng, nvars, 2, coefficients) for _ in range(codim)]
        for system in (build_minor_system(fs, nvars - codim), build_lagrange_system(fs)):
            text = format_system(system)
            assert ("/" in text) == (coefficients is FRACTIONS)
            parsed = parse_system_text(text)
            assert parsed.polynomials == system.polynomials
    assert descent_lines == []
    # the ellipse's hand-written '/': the descent reads it
    parse_system_text("vars: x1 x2\nx1^2 + x2^2/2 - 1\n")
    assert descent_lines == ["x1^2 + x2^2/2 - 1"]


def test_class_formulas_never_reach_the_descent(descent_lines):
    # the text bnd formula prints and bnd check parses back
    for m in range(1, 4):
        ctx = formula_context(m)
        for n in range(m + 1, 2 * m + 4):
            formula = compute_B(m, n)
            assert parse(ctx, formula.text) == formula.poly
    assert descent_lines == []
