"""Exact sparse polynomials over Q, in truncated graded rings of cycle classes
and in plain coordinate rings.

Elements are sparse polynomials over Q in a fixed set of graded symbols.
Two normalization rules make the ring model a Chow ring:

  * terms of total codimension above the ring truncation vanish,
  * the factor of a monomial built from pullback-flagged symbols vanishes
    when its codimension exceeds the pullback bound (classes pulled back
    from a base of that dimension are zero beyond it).

A coordinate ring (`coordinate_ring`) has neither rule: its elements are
the polynomials that the bottleneck systems are written in.

Coefficients are exact: an `int` where a value is built from integral
input, a `fractions.Fraction` otherwise.  The two mix, compare and hash
alike, and nothing here ever touches floating point.

Both rules bound a quantity that is additive over a product: total
codimension, and the codimension of the pullback factor.  Multiplication
therefore groups each factor's terms by that pair of grades and forms only
the term pairs of group pairs that survive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul
from typing import Iterable, Mapping, Sequence

Exponents = tuple[int, ...]
Coefficient = int | Fraction

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class SymbolSpec:
    """A graded ring generator.

    codim is the grading weight; pullback marks classes pulled back from the
    base of a projective bundle, which makes them subject to the ring's
    pullback bound.
    """

    name: str
    codim: int
    pullback: bool = False

    def __post_init__(self) -> None:
        if self.codim < 1:
            raise ValueError(f"symbol {self.name!r}: codim must be >= 1, got {self.codim}")
        if not IDENTIFIER.fullmatch(self.name):
            raise ValueError(f"symbol name {self.name!r} is not an identifier")


class RingContext:
    """Symbol table plus truncation/pullback rules; defines what zero means.

    truncation None means no truncation (a coordinate ring).
    """

    __slots__ = (
        "symbols", "truncation", "pullback_bound", "bounded", "_index", "_codims",
        "_pullback_codims", "_top", "_pullback_top",
    )

    def __init__(
        self, symbols: tuple[SymbolSpec, ...], truncation: int | None, pullback_bound: int | None
    ):
        self.symbols = symbols
        self.truncation = truncation
        self.pullback_bound = pullback_bound
        # whether normalization can drop a nonzero term at all
        self.bounded = truncation is not None or pullback_bound is not None
        self._index = {s.name: i for i, s in enumerate(symbols)}
        self._codims = tuple(s.codim for s in symbols)
        self._pullback_codims = tuple(s.codim if s.pullback else 0 for s in symbols)
        # the largest grades that survive; a rule the ring lacks grades
        # every term 0 against a top of 0
        self._top = 0 if truncation is None else truncation
        self._pullback_top = 0 if pullback_bound is None else pullback_bound

    def __eq__(self, other: object) -> bool:
        # Structural equality: rings declared the same way are the same ring,
        # so classes computed in independently built contexts can be compared.
        if self is other:
            return True
        if not isinstance(other, RingContext):
            return NotImplemented
        return (
            self.symbols == other.symbols
            and self.truncation == other.truncation
            and self.pullback_bound == other.pullback_bound
        )

    def __hash__(self) -> int:
        return hash((self.symbols, self.truncation, self.pullback_bound))

    def __repr__(self) -> str:
        syms = ", ".join(
            f"{s.name}:{s.codim}" + ("*" if s.pullback else "") for s in self.symbols
        )
        bound = "" if self.pullback_bound is None else f", pullback_bound={self.pullback_bound}"
        return f"RingContext({syms}; truncation={self.truncation}{bound})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no symbol {name!r} in {self!r}") from None

    def codim_of(self, expts: Exponents) -> int:
        return sum(map(mul, expts, self._codims))

    def pullback_codim_of(self, expts: Exponents) -> int:
        return sum(map(mul, expts, self._pullback_codims))

    def _dies(self, expts: Exponents) -> bool:
        if self.truncation is not None and self.codim_of(expts) > self.truncation:
            return True
        if self.pullback_bound is not None and self.pullback_codim_of(expts) > self.pullback_bound:
            return True
        return False

    def normalize(self, raw: Mapping[Exponents, Coefficient]) -> dict[Exponents, Coefficient]:
        """The terms of raw that are nonzero in this ring."""
        if self.bounded:
            return {e: _exact(c) for e, c in raw.items() if c != 0 and not self._dies(e)}
        return {e: _exact(c) for e, c in raw.items() if c != 0}

    def _grades(
        self, terms: dict[Exponents, Coefficient]
    ) -> list[tuple[int, int, list[tuple[Exponents, Coefficient]]]]:
        """terms grouped by (codim, pullback codim), each group in the
        terms' order; a grade the ring does not bound is 0 for every term,
        so a coordinate ring has a single group."""
        if not self.bounded:
            return [(0, 0, list(terms.items()))] if terms else []
        codims = self._codims if self.truncation is not None else None
        pullback = self._pullback_codims if self.pullback_bound is not None else None
        groups: dict[tuple[int, int], list] = {}
        for e, c in terms.items():
            key = (
                sum(map(mul, e, codims)) if codims else 0,
                sum(map(mul, e, pullback)) if pullback else 0,
            )
            if key in groups:
                groups[key].append((e, c))
            else:
                groups[key] = [(e, c)]
        return [(d, p, items) for (d, p), items in groups.items()]

    # -- constructors -------------------------------------------------------

    def zero(self) -> "ClassPoly":
        return ClassPoly._of(self, {})

    def one(self) -> "ClassPoly":
        return self.constant(1)

    def constant(self, c) -> "ClassPoly":
        return self.poly({(0,) * len(self.symbols): c})

    def var(self, i: int) -> "ClassPoly":
        """The i-th symbol."""
        expts = [0] * len(self.symbols)
        expts[i] = 1
        return self.poly({tuple(expts): 1})

    def sym(self, name: str) -> "ClassPoly":
        return self.var(self.index(name))

    def monomial(self, coeff, **powers: int) -> "ClassPoly":
        expts = [0] * len(self.symbols)
        for name, e in powers.items():
            expts[self.index(name)] = e
        return self.poly({tuple(expts): coeff})

    def poly(self, raw: Mapping[Exponents, Coefficient]) -> "ClassPoly":
        return ClassPoly(self, raw)


def _exact(c) -> Coefficient:
    """c as an int when it is integral, else as a Fraction."""
    if isinstance(c, int):
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def declare_ring(
    symbols: Iterable[SymbolSpec], truncation: int, pullback_bound: int | None = None
) -> RingContext:
    symbols = tuple(symbols)
    if not symbols:
        raise ValueError("a ring needs at least one symbol")
    names = [s.name for s in symbols]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate symbol names in {names}")
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    return RingContext(symbols, truncation, pullback_bound)


@lru_cache(maxsize=None)
def coordinate_ring(nvars: int) -> RingContext:
    """Q[v0..v(nvars-1)]: codim-1 symbols, no truncation, no pullback bound.

    Polynomials in positional coordinates live here; their coordinate names
    are supplied where text is parsed or rendered.
    """
    return RingContext(tuple(SymbolSpec(f"v{i}", 1) for i in range(nvars)), None, None)


def _context(ctx: RingContext | int) -> RingContext:
    # an int stands for the coordinate ring with that many variables
    return coordinate_ring(ctx) if isinstance(ctx, int) else ctx


class ClassPoly:
    """Immutable sparse polynomial over a RingContext.

    The one exact polynomial type: cycle classes in a truncated ring, and
    (as `bnd.systems.Poly`) polynomials in the coordinate ring of a system.

    Example::

        ctx = declare_ring([SymbolSpec("h", 1)], truncation=2)
        h = ctx.sym("h")
        (1 + h) * (1 + h)        # 1 + 2*h + h^2
        graded_piece(_, 1)       # 2*h

        f = ClassPoly(2, {(2, 0): 1, (0, 0): -1})   # v0^2 - 1 in coordinate_ring(2)
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: RingContext | int, terms: Mapping[Exponents, Coefficient]):
        self.ctx = _context(ctx)
        self.terms = self.ctx.normalize(terms)

    @classmethod
    def _of(cls, ctx: RingContext, terms: dict[Exponents, Coefficient]) -> "ClassPoly":
        """Wrap terms that are already normalized in ctx."""
        p = object.__new__(cls)
        p.ctx = ctx
        p.terms = terms
        return p

    @classmethod
    def const(cls, ctx: RingContext | int, c) -> "ClassPoly":
        return _context(ctx).constant(c)

    @classmethod
    def var(cls, ctx: RingContext | int, i: int) -> "ClassPoly":
        return _context(ctx).var(i)

    # -- predicates ---------------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.ctx.symbols)

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Coefficient:
        return self.terms.get((0,) * len(self.ctx.symbols), 0)

    def codims(self) -> set[int]:
        return {self.ctx.codim_of(e) for e in self.terms}

    def is_homogeneous(self, k: int | None = None) -> bool:
        cds = self.codims()
        if k is None:
            return len(cds) <= 1
        return cds <= {k}

    def total_degree(self) -> int:
        """Highest exponent sum; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, name: str) -> int:
        """Highest power of a symbol; -1 for the zero polynomial."""
        i = self.ctx.index(name)
        return max((e[i] for e in self.terms), default=-1)

    def coefficient_of(self, name: str, power: int) -> "ClassPoly":
        """The (still polynomial) coefficient of name**power."""
        i = self.ctx.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i] == power:
                out[e[:i] + (0,) + e[i + 1 :]] = c
        return self.ctx.poly(out)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "ClassPoly | None":
        if isinstance(other, ClassPoly):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ValueError(f"context mismatch: {self.ctx!r} vs {other.ctx!r}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.constant(other)
        return None

    def __add__(self, other) -> "ClassPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s == 0:
                del out[e]
            else:
                out[e] = s
        return ClassPoly._of(self.ctx, out)

    __radd__ = __add__

    def __neg__(self) -> "ClassPoly":
        return ClassPoly._of(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "ClassPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ClassPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (-self) + other

    def __mul__(self, other) -> "ClassPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ctx = self.ctx
        top, pullback_top = ctx._top, ctx._pullback_top
        right = ctx._grades(other.terms)
        out: dict[Exponents, Coefficient] = {}
        for d1, p1, items1 in ctx._grades(self.terms):
            for d2, p2, items2 in right:
                if d1 + d2 > top or p1 + p2 > pullback_top:
                    continue
                for e1, c1 in items1:
                    for e2, c2 in items2:
                        e = tuple(map(add, e1, e2))
                        if e in out:
                            out[e] += c1 * c2
                        else:
                            out[e] = c1 * c2
        return ClassPoly._of(ctx, {e: c for e, c in out.items() if c != 0})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ClassPoly":
        if k < 0:
            raise ValueError("negative powers are not ring elements; use invert_unit")
        result = self.ctx.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ctx.constant(other)
        if not isinstance(other, ClassPoly):
            return NotImplemented
        return self.terms == other.terms and (self.ctx is other.ctx or self.ctx == other.ctx)

    def __hash__(self) -> int:
        return hash((self.ctx, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"<ClassPoly {render(self)}>"

    def sorted_terms(self) -> list[tuple[Exponents, Coefficient]]:
        # canonical order: by total codim, then exponent vector (descending
        # lexicographically), so h^2 comes before h*p1 before p1^2 before p2
        ctx = self.ctx
        return sorted(
            self.terms.items(),
            key=lambda ec: (ctx.codim_of(ec[0]), tuple(-x for x in ec[0])),
        )

    # -- calculus on coordinates --------------------------------------------

    def diff(self, i: int) -> "ClassPoly":
        """Partial derivative in the i-th symbol."""
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                out[e[:i] + (e[i] - 1,) + e[i + 1 :]] = c * e[i]
        return ClassPoly._of(self.ctx, out)

    def embed(self, total: int, offset: int) -> "ClassPoly":
        """Same polynomial in coordinate_ring(total), with symbol i renamed
        to offset+i."""
        if offset + self.nvars > total:
            raise ValueError("embedding does not fit")
        head, tail = (0,) * offset, (0,) * (total - offset - self.nvars)
        return ClassPoly._of(
            coordinate_ring(total), {head + e + tail: c for e, c in self.terms.items()}
        )

    def eval_exact(self, point: Sequence) -> Fraction:
        vals = [Fraction(v) for v in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for v, k in zip(vals, e):
                if k:
                    term *= v ** k
            total += term
        return total


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def invert_unit(a: ClassPoly) -> ClassPoly:
    """Inverse of a unit 1 + a_1 + a_2 + ... (a_j of codim j), built piece
    by piece: u_0 = 1 and u_k = -(a_1 u_(k-1) + ... + a_k u_0)."""
    ctx = a.ctx
    if a.constant_term() != 1 or ctx.truncation is None:
        raise ValueError(f"not a unit with constant term 1 in a truncated ring: {render(a)}")
    by_codim: dict[int, dict[Exponents, Coefficient]] = {}
    for e, c in a.terms.items():
        by_codim.setdefault(ctx.codim_of(e), {})[e] = c
    pieces = {j: ClassPoly._of(ctx, terms) for j, terms in by_codim.items() if j}
    inverse = [ctx.one()]
    for k in range(1, ctx.truncation + 1):
        u_k = ctx.zero()
        for j, a_j in pieces.items():
            if j <= k and inverse[k - j].terms:
                u_k = u_k - a_j * inverse[k - j]
        inverse.append(u_k)
    # the pieces have distinct codims, so their terms never collide
    return ClassPoly._of(ctx, {e: c for u_k in inverse for e, c in u_k.terms.items()})


def graded_piece(a: ClassPoly, k: int) -> ClassPoly:
    """Sum of the terms of total codimension exactly k (0 outside the range)."""
    ctx = a.ctx
    return ClassPoly._of(ctx, {e: c for e, c in a.terms.items() if ctx.codim_of(e) == k})


def substitute(
    a: ClassPoly, images: Mapping[str, ClassPoly], target: RingContext
) -> ClassPoly:
    """Ring-homomorphism extension of a symbol map into the target context.

    Every symbol actually appearing in `a` needs an image, and each image must
    be homogeneous of the symbol's codimension (so the map is graded).
    """
    src = a.ctx
    used = [i for i in range(len(src.symbols)) if any(e[i] for e in a.terms)]
    for i in used:
        name = src.symbols[i].name
        if name not in images:
            raise ValueError(f"no image given for symbol {name!r}")
        img = images[name]
        if img.ctx != target:
            raise ValueError(f"image of {name!r} lives in the wrong context")
        if not img.is_homogeneous(src.symbols[i].codim):
            raise ValueError(
                f"image of {name!r} is not homogeneous of codim {src.symbols[i].codim}"
            )

    power_cache: dict[tuple[int, int], ClassPoly] = {}

    def img_power(i: int, k: int) -> ClassPoly:
        key = (i, k)
        if key not in power_cache:
            power_cache[key] = images[src.symbols[i].name] ** k
        return power_cache[key]

    acc = target.zero()
    for e, c in a.terms.items():
        term = target.constant(c)
        for i, k in enumerate(e):
            if k:
                term = term * img_power(i, k)
                if term.is_zero():
                    break
        acc = acc + term
    return acc


def divide_monic(
    a: ClassPoly, r: ClassPoly, pivot: str
) -> tuple[ClassPoly, ClassPoly]:
    """Univariate division a = q*r + rem by a divisor monic in the pivot symbol.

    The divisor's leading coefficient in the pivot must be the constant 1 and
    its pivot degree positive; the remainder has smaller pivot degree.  All
    arithmetic happens inside the context, so the reconstruction identity
    holds as ring elements.
    """
    if a.ctx != r.ctx:
        raise ValueError("context mismatch in divide_monic")
    ctx = a.ctx
    d_r = r.degree_in(pivot)
    if d_r < 1:
        raise ValueError("divisor must have positive degree in the pivot")
    if r.coefficient_of(pivot, d_r) != 1:
        raise ValueError(f"divisor is not monic in {pivot!r}: {render(r)}")
    xi = ctx.sym(pivot)
    quotient = ctx.zero()
    rem = a
    while True:
        d = rem.degree_in(pivot)
        if d < d_r:
            return quotient, rem
        t = rem.coefficient_of(pivot, d) * xi ** (d - d_r)
        quotient = quotient + t
        rem = rem - t * r


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------


def _render_terms(items: Iterable[tuple[Exponents, Coefficient]], names: Sequence[str]) -> str:
    """Signed terms in the given order, e.g. ``3/2*h^2 - p1 + 1``."""
    chunks = []
    for expts, coeff in items:
        mono = "*".join(
            name if k == 1 else f"{name}^{k}" for name, k in zip(names, expts) if k
        )
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks) or "0"


def render(a: ClassPoly) -> str:
    """Canonical text form in ascending codimension, e.g. ``2*h + 5*p1``."""
    return _render_terms(a.sorted_terms(), [s.name for s in a.ctx.symbols])


def render_poly(p: ClassPoly, names: Sequence[str]) -> str:
    """Text form in descending total degree, symbol i written as names[i]."""
    items = sorted(p.terms.items(), key=lambda ec: (-sum(ec[0]), tuple(-x for x in ec[0])))
    return _render_terms(items, names)


# Largest exponent the parser expands.  It keeps one power such as
# x1^99999999 from running unbounded; it does not bound a product of
# many powers.
MAX_EXPONENT = 100


class SystemParseError(ValueError):
    """Malformed polynomial text, located by line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_NUM = re.compile(r"\d+\.\d+|\d+|\.\d+")
# an exponent right after a literal: 1e-3 is refused by name, never expanded
# (Fraction("1e999999999") would write out a billion digits)
_SCIENTIFIC = re.compile(r"[eE][+-]?\d")


class _Parser:
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


def parse(
    ctx: RingContext, text: str, names: Sequence[str] | None = None, line: int = 1
) -> ClassPoly:
    """Parse polynomial text into ctx; names[i] spells symbol i (default:
    the symbol names).  Raises SystemParseError, located by line and column.
    """
    if names is None:
        names = [s.name for s in ctx.symbols]
    return _Parser(ctx, text, names, line).parse()
