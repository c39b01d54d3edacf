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


def _render_terms(
    items: Iterable[tuple[Exponents, Coefficient]],
    names: Sequence[str],
    monomials: dict[Exponents, str] | None = None,
) -> str:
    """Signed terms in the given order, e.g. ``3/2*h^2 - p1 + 1``.

    monomials caches the text of each exponent vector; callers that render
    many polynomials over the same names pass one dict to all of them.
    """
    if monomials is None:
        monomials = {}
    chunks = []
    for expts, coeff in items:
        mono = monomials.get(expts)
        if mono is None:
            mono = monomials[expts] = "*".join(
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


def render_poly(
    p: ClassPoly, names: Sequence[str], monomials: dict[Exponents, str] | None = None
) -> str:
    """Text form in descending total degree, symbol i written as names[i];
    monomials is a cache of monomial text as in _render_terms."""
    # exponent vectors are distinct, so reversing the ascending order gives
    # descending degree, then descending exponents
    items = sorted(p.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True)
    return _render_terms(items, names, monomials)


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


_NUMBER = r"\d+\.\d+|\d+|\.\d+"
_NAME = IDENTIFIER.pattern
# One factor of a monomial run: '*', a symbol, and a power whose digits are
# not the integer part of a decimal (x1^2.5 is refused as before).  The
# lookaheads keep backtracking from splitting a name or an exponent.
_FACTOR = rf"\*{_NAME}(?![A-Za-z_0-9])(?:\^\d+(?!\d|\.\d))?"
# One token per match, after any whitespace:
#   1. a number followed by an exponent such as 1e-3 (refused by name, never
#      expanded: Fraction("1e999999999") would write out a billion digits);
#      a number cannot contain an e, so this group matches exactly the
#      numbers that group 2 would match with an exponent behind them;
#   2. any other number;
#   3. a monomial run: one or more factors '*name' or '*name^k' with no
#      space between them, e.g. '*x1^2*y3*lam1', that is not followed by
#      another '^' (x1*x2^2^3 lexes factor by factor and fails as before);
#   4. an identifier;
#   5. any other single character.
# A run always starts with its '*', so it is read only where the grammar
# reads '*' and a power: a term's first factor, a divisor and the operand
# of a unary minus stay single atoms, and every run means "times this
# monomial".
_TOKEN = re.compile(
    rf"\s*(?:({_NUMBER})(?=[eE][+-]?\d)|({_NUMBER})"
    rf"|((?:{_FACTOR})+)(?!\s*\^)"
    rf"|({_NAME})|(\S))"
)
# the factors of a run, once _TOKEN has matched it
_RUN_FACTOR = re.compile(rf"\*({_NAME})(?:\^(\d+))?")
_END = ("", "", "", "", "")


class _Parser:
    """Recursive descent over + - * / ^ with parentheses, on the tokens of
    one regex pass; a token's column is found only for an error.

    Accepts a superset of what render and render_poly produce: decimals,
    parentheses and powers of parenthesized groups, so hand-written input
    can say (0.3*x1^2 + ...)^2 without pre-expansion.  '/' only by a
    constant.

    A product of numbers, symbols and their powers is carried as one
    monomial, a coefficient and an exponent vector, and becomes a ClassPoly
    only when it meets a parenthesized group.  The exponent vector of each
    distinct monomial run (see _TOKEN) and of each bare symbol is read once
    and kept in runs, a dict that callers may share between the lines of
    one system.  Groups, their powers and their products are computed in
    the ring, so its normalization applies to each group as it is read.  A
    sum adds its terms into one dict in the order of ClassPoly.__add__,
    deleting a key whose sum is 0 and dropping a monomial that dies in the
    ring (both grades are additive, so a dead factor kills the product).
    Coefficients are computed as the ring computes them: the same values,
    with the same int/Fraction types.
    """

    def __init__(
        self,
        ctx: RingContext,
        text: str,
        names: Sequence[str],
        line: int,
        runs: dict[str, Exponents] | None = None,
    ):
        self.ctx = ctx
        self.text = text
        self.names = {name: i for i, name in enumerate(names)}
        self.line = line
        self.dies = ctx._dies if ctx.bounded else None
        self.width = len(ctx.symbols)
        self.zero = (0,) * self.width
        self.runs = {} if runs is None else runs
        # (scientific number, number, run, identifier, character), one set
        self.tokens = _TOKEN.findall(text)
        self.tokens.append(_END)
        self.i = 0
        # (exponent token, its length) if the last power read an exponent
        self.exponent: tuple[int, int] | None = None

    def start(self, j: int) -> int:
        """Offset of token j in the text."""
        for n, m in enumerate(_TOKEN.finditer(self.text)):
            if n == j:
                return m.start(m.lastindex)
        return len(self.text)

    def error(self, message: str, j: int, offset: int = 0):
        """Raise at token j, or offset characters past its start."""
        raise SystemParseError(message, self.line, self.start(j) + offset + 1)

    def parse(self) -> ClassPoly:
        terms = self.expr()
        if self.tokens[self.i] is not _END:
            self.error(f"unexpected {self.text[self.start(self.i)]!r}", self.i)
        return ClassPoly._of(self.ctx, terms)

    def expr(self) -> dict[Exponents, Coefficient]:
        tokens, dies = self.tokens, self.dies
        out: dict[Exponents, Coefficient] = {}
        op = tokens[self.i][4]
        negate = op == "-"
        if negate or op == "+":
            self.i += 1
        first = True
        while True:
            value = self.term()
            if type(value) is tuple:
                c, e = value
                items = () if not c or (dies and dies(e)) else ((e, -c if negate else c),)
            else:
                if first:
                    # the first term is multiplied by its sign, which
                    # groups its terms by grade
                    value = (-1 if negate else 1) * value
                    negate = False
                items = value.terms.items()
                if negate:
                    items = [(e, -c) for e, c in items]
            for e, c in items:
                if e in out:
                    s = out[e] + c
                    if s == 0:
                        del out[e]
                    else:
                        out[e] = s
                else:
                    out[e] = c
            op = tokens[self.i][4]
            if op != "+" and op != "-":
                return out
            self.i += 1
            negate = op == "-"
            first = False

    def term(self) -> tuple[Coefficient, Exponents] | ClassPoly:
        """A product: (coefficient, exponents) while it is a monomial, a
        ClassPoly once it has met a group."""
        tokens, runs = self.tokens, self.runs
        value = self.power()
        if type(value) is tuple:
            coeff, expts = value
            poly = None
        else:
            poly = value
        while True:
            _, _, run, _, op = tokens[self.i]
            if run:
                e = runs.get(run) or self.read_run(run)
                self.i += 1
                if poly is None:
                    expts = _times(expts, e)
                else:
                    poly = poly * self.lift(1, e)
            elif op == "*":
                self.i += 1
                value = self.power()
                if type(value) is tuple:
                    if poly is None:
                        coeff = coeff * value[0]
                        expts = _times(expts, value[1])
                    else:
                        poly = poly * self.lift(*value)
                elif poly is None:
                    poly = self.lift(coeff, expts) * value
                else:
                    poly = poly * value
            elif op == "/":
                self.i += 1
                inverse = Fraction(1) / self.divisor()
                if poly is None:
                    coeff = coeff * _exact(inverse)
                else:
                    poly = poly * self.ctx.constant(inverse)
            else:
                return (coeff, expts or self.zero) if poly is None else poly

    def read_run(self, text: str) -> Exponents:
        """The exponent vector of the run text at the current token, kept
        in runs."""
        vector = [0] * self.width
        for m in _RUN_FACTOR.finditer(text):
            index = self.names.get(m[1])
            if index is None:
                self.error(f"undeclared variable {m[1]!r}", self.i, m.start(1))
            if m[2] is None:
                vector[index] += 1
            else:
                vector[index] += self.exponent_value(m[2], self.i, m.start(2))
        expts = self.runs[text] = tuple(vector)
        return expts

    def exponent_value(self, digits: str, j: int, offset: int = 0) -> int:
        """The exponent digits at token j (offset characters in), bounded."""
        # the length test comes first: int() refuses strings of over 4300 digits
        if len(digits.lstrip("0")) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            self.error(f"exponent above the bound {MAX_EXPONENT}", j, offset)
        return int(digits)

    def lift(self, coeff: Coefficient, expts: Exponents) -> ClassPoly:
        """The monomial as a ClassPoly; zero when it dies in the ring."""
        e = expts or self.zero
        alive = coeff != 0 and not (self.dies and self.dies(e))
        return ClassPoly._of(self.ctx, {e: coeff} if alive else {})

    def divisor(self) -> Coefficient:
        """The nonzero constant after a '/'."""
        value = self.power()
        if type(value) is tuple:
            value = self.lift(*value)
        # an error points past the divisor and the space behind it, or
        # right after its exponent
        at = self.exponent or (self.i, 0)
        if value.total_degree() > 0:
            self.error("can only divide by a constant", *at)
        c = value.constant_term()
        if c == 0:
            self.error("division by zero", *at)
        return c

    def power(self) -> tuple[Coefficient, Exponents] | ClassPoly:
        """An atom, raised to an integer exponent if one follows; a
        monomial as (coefficient, exponents), with () for no symbols."""
        base = self.atom()
        tokens = self.tokens
        if tokens[self.i][4] != "^":
            self.exponent = None
            return base
        j = self.i + 1
        digits = tokens[j][0] or tokens[j][1]
        if not digits or "." in digits:
            self.error("expected integer exponent", j)
        k = self.exponent_value(digits, j)
        self.i = j + 1
        self.exponent = (j, len(digits))
        if type(base) is not tuple:
            return base ** k
        if not k:
            return (1, ())
        return (base[0] ** k, tuple(e * k for e in base[1]))

    def atom(self) -> tuple[Coefficient, Exponents] | ClassPoly:
        scientific, number, _, name, char = self.tokens[self.i]
        if number:
            if number[0] == ".":
                number = "0" + number
            try:
                value = _exact(Fraction(number)) if "." in number else int(number)
            except ValueError:  # int() refuses strings of over 4300 digits
                self.error(f"numeric literal of {len(number)} characters is too long", self.i)
            self.i += 1
            return (value, ())
        if name:
            expts = self.runs.get(name)
            if expts is None:
                index = self.names.get(name)
                if index is None:
                    self.error(f"undeclared variable {name!r}", self.i)
                expts = self.runs[name] = self.zero[:index] + (1,) + self.zero[index + 1 :]
            self.i += 1
            return (1, expts)
        if scientific:
            self.error("scientific notation is not supported; write the number as a decimal", self.i)
        if char == "(":
            self.i += 1
            terms = self.expr()
            if self.tokens[self.i][4] != ")":
                self.error("expected ')'", self.i)
            self.i += 1
            return ClassPoly._of(self.ctx, terms)
        if char == "-":
            self.i += 1
            value = self.atom()
            return (-value[0], value[1]) if type(value) is tuple else -value
        # a run here stands where the grammar reads its leading '*'
        self.error("expected a number, variable, or '('", self.i)


def _times(a: Exponents, b: Exponents) -> Exponents:
    """Product of two monomials' exponent vectors, () meaning no symbols."""
    if not a:
        return b
    if not b:
        return a
    return tuple(map(add, a, b))


def parse(
    ctx: RingContext,
    text: str,
    names: Sequence[str] | None = None,
    line: int = 1,
    runs: dict[str, Exponents] | None = None,
) -> ClassPoly:
    """Parse polynomial text into ctx; names[i] spells symbol i (default:
    the symbol names).  Raises SystemParseError, located by line and column.

    runs caches the exponent vectors of monomial runs; pass one dict to
    every line parsed with the same ctx and names, such as the lines of a
    system, and each distinct run is read once.
    """
    if names is None:
        names = [s.name for s in ctx.symbols]
    return _Parser(ctx, text, names, line, runs).parse()
