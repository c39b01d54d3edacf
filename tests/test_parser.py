"""The token parser of bnd.ring against the character-level parser it
replaced.

`_CharParser` below is that parser, kept verbatim as the reference: it
builds every number and symbol as a ClassPoly and combines them with the
ring's own arithmetic.  The parser in bnd.ring must give the same terms in
the same key order with the same int/Fraction coefficient types, and the
same error, line and column, on every input.
"""

import random
import re
from fractions import Fraction
from typing import Sequence

import pytest

from bnd.engine import conormal_context, formula_context
from bnd.ring import (
    IDENTIFIER,
    MAX_EXPONENT,
    ClassPoly,
    RingContext,
    SystemParseError,
    coordinate_ring,
    parse,
)
from bnd.systems import build_lagrange_system, build_minor_system, format_system, parse_poly

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
        if ch == "-":
            self.pos += 1
            return -self.atom()
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
# monomial runs
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
        runs: dict = {}
        for text, p in zip(polys, system.polynomials):
            want = assert_same(ctx, text, names)
            assert want[0] == "terms"
            # one runs dict over the lines of a system, as parse_system_text
            # keeps it, gives the same terms as a fresh one per line
            assert outcome(lambda *a: parse(*a, runs=runs), ctx, text, names) == want
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
        ("conormal", "h^3 + xi*c2 + xi^4 + h*c1", [(1, 0, 0, 1), (0, 1, 1, 0)]),
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
    # monomial runs: '*name' and '*name^k' factors lexed as one token
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
