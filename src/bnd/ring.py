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

Coefficients are exact, `int` or `fractions.Fraction`, and nothing here
ever touches floating point.  A polynomial built from given terms holds
every integral value as an `int`, and arithmetic on ints stays int; but a
sum or product that involves a Fraction may keep an integral value as
`Fraction(n, 1)` (`4/2*x` holds `Fraction(2, 1)`).  Such a value compares
and hashes equal to the int n, so the polynomials are equal, hash alike
and render alike.

Both rules bound a quantity that is additive over a product: total
codimension, and the codimension of the pullback factor.  Multiplication
in a truncated ring therefore groups each factor's terms by that pair of
grades and forms only the term pairs of group pairs that survive.

The groups hold packed keys: the exponent vector e as the integer sum of
e_i * (T+1)^i, T the truncation, so that a product adds two ints where it
would add two tuples.  The packing is exact.  Every symbol has codim >= 1,
so each exponent of a surviving term is at most T, and only group pairs
whose sum survives are formed, so the sum of two keys never carries from
one slot into the next.  The context maps keys back to exponent tuples,
and `terms` stays keyed by the tuples.  A polynomial groups its terms
once, on its first product, and keeps the groups; a product records its
own groups as it forms them, since the pair of groups (d1, p1), (d2, p2)
lands in the group (d1 + d2, p1 + p2).  So chains of products (powers,
unit_quotient, substitute, divide_monic) never regroup an operand.

A coordinate ring has no grading: a product there is the plain double
loop over both operands' terms, adding exponent tuples, and keeps its
terms in first-insertion order.

Text: `render` and `render_poly` write a polynomial in a canonical form,
and `parse` reads that form term by term (`_read_canonical`) and any
other text by recursive descent (`_Parser`).  A caller that writes or
reads many polynomials over the same names, such as the lines of one
system, passes them one `monomials` dict, so each monomial is spelled, or
checked and read, once per system; the dict lives as long as the call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, itemgetter, mul
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
        "symbols", "truncation", "pullback_bound", "_index", "_codims",
        "_pullback_codims", "_pullback_top", "_base", "_weights", "_unpacked",
    )

    def __init__(
        self, symbols: tuple[SymbolSpec, ...], truncation: int | None, pullback_bound: int | None
    ):
        self.symbols = symbols
        self.truncation = truncation
        self.pullback_bound = pullback_bound
        self._index = {s.name: i for i, s in enumerate(symbols)}
        self._codims = tuple(s.codim for s in symbols)
        self._pullback_codims = tuple(s.codim if s.pullback else 0 for s in symbols)
        # the largest pullback grade that survives; without a pullback
        # bound every term has pullback grade 0 against a top of 0
        self._pullback_top = 0 if pullback_bound is None else pullback_bound
        # packed keys of a truncated ring (module docstring): the weight of
        # slot i is (T+1)^i, and _unpacked maps each key met back to its
        # exponent tuple
        if truncation is not None:
            self._base = truncation + 1
            self._weights = tuple(self._base ** i for i in range(len(symbols)))
            self._unpacked: dict[int, Exponents] = {}

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
        """Whether a term of a truncated ring is zero there."""
        if self.codim_of(expts) > self.truncation:
            return True
        if self.pullback_bound is not None and self.pullback_codim_of(expts) > self.pullback_bound:
            return True
        return False

    def normalize(self, raw: Mapping[Exponents, Coefficient]) -> dict[Exponents, Coefficient]:
        """The terms of raw that are nonzero in this ring."""
        if self.truncation is not None:
            return {e: _exact(c) for e, c in raw.items() if c != 0 and not self._dies(e)}
        return {e: _exact(c) for e, c in raw.items() if c != 0}

    def _grades(self, terms: dict[Exponents, Coefficient]) -> list[tuple[int, int, list]]:
        """The terms of a truncated ring as (packed key, coeff), grouped by
        (codim, pullback codim), each group in the terms' order.  Without a
        pullback bound every term has pullback codim 0."""
        codims = self._codims
        pullback = self._pullback_codims if self.pullback_bound is not None else None
        weights, unpacked = self._weights, self._unpacked
        groups: dict[tuple[int, int], list] = {}
        for e, c in terms.items():
            grade = (sum(map(mul, e, codims)), sum(map(mul, e, pullback)) if pullback else 0)
            key = sum(map(mul, e, weights))
            unpacked[key] = e
            if grade in groups:
                groups[grade].append((key, c))
            else:
                groups[grade] = [(key, c)]
        return [(d, p, items) for (d, p), items in groups.items()]

    def _unpack(self, key: int) -> Exponents:
        """The exponent tuple of a packed key, recorded for the next lookup."""
        digits = []
        rest = key
        for _ in self.symbols:
            rest, digit = divmod(rest, self._base)
            digits.append(digit)
        e = self._unpacked[key] = tuple(digits)
        return e

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


class ClassPoly:
    """Immutable sparse polynomial over a RingContext.

    The one exact polynomial type: cycle classes in a truncated ring, and
    polynomials in the coordinate ring of a system.

    Example::

        ctx = declare_ring([SymbolSpec("h", 1)], truncation=2)
        h = ctx.sym("h")
        (1 + h) * (1 + h)        # 1 + 2*h + h^2
        graded_piece(_, 1)       # 2*h

        f = coordinate_ring(2).poly({(2, 0): 1, (0, 0): -1})   # v0^2 - 1
    """

    __slots__ = ("ctx", "terms", "_groups")

    def __init__(self, ctx: RingContext, terms: Mapping[Exponents, Coefficient]):
        self.ctx = ctx
        self.terms = ctx.normalize(terms)
        self._groups = None

    @classmethod
    def _of(cls, ctx: RingContext, terms: dict[Exponents, Coefficient]) -> "ClassPoly":
        """Wrap terms that are already normalized in ctx."""
        p = object.__new__(cls)
        p.ctx = ctx
        p.terms = terms
        p._groups = None
        return p

    @classmethod
    def _of_groups(cls, ctx: RingContext, groups: list[tuple[int, int, list]]) -> "ClassPoly":
        """Wrap grade groups (codim, pullback codim, [(packed key, coeff)])
        with no zero coefficient in ctx; the result keeps them."""
        exponents = ctx._unpacked.get
        p = cls._of(
            ctx, {exponents(k) or ctx._unpack(k): c for _, _, items in groups for k, c in items}
        )
        p._groups = groups
        return p

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

    def _grouped(self) -> list[tuple[int, int, list]]:
        """ctx._grades(self.terms), computed on first use and kept."""
        if self._groups is None:
            self._groups = self.ctx._grades(self.terms)
        return self._groups

    def _product(self, other: "ClassPoly") -> "ClassPoly":
        """self * other in a truncated ring, on packed keys.  The result
        keeps its groups."""
        ctx = self.ctx
        top, pullback_top = ctx.truncation, ctx._pullback_top
        right = other._grouped()
        # one accumulator per output grade; each is a group of the result
        out: dict[tuple[int, int], dict[int, Coefficient]] = {}
        for d1, p1, items1 in self._grouped():
            for d2, p2, items2 in right:
                if d1 + d2 > top or p1 + p2 > pullback_top:
                    continue
                grade = (d1 + d2, p1 + p2)
                acc = out.get(grade)
                if acc is None:
                    acc = out[grade] = {}
                for k1, c1 in items1:
                    for k2, c2 in items2:
                        k = k1 + k2
                        if k in acc:
                            acc[k] += c1 * c2
                        else:
                            acc[k] = c1 * c2
        groups = []
        for (d, p), acc in out.items():
            items = [(k, c) for k, c in acc.items() if c != 0]
            if items:
                groups.append((d, p, items))
        return ClassPoly._of_groups(ctx, groups)

    def __mul__(self, other) -> "ClassPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.ctx.truncation is not None:
            return self._product(other)
        # a coordinate ring: every term pair, in first-insertion order
        right = other.terms.items()
        out: dict[Exponents, Coefficient] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                if e in out:
                    out[e] += c1 * c2
                else:
                    out[e] = c1 * c2
        return ClassPoly._of(self.ctx, {e: c for e, c in out.items() if c != 0})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ClassPoly":
        if k < 0:
            raise ValueError("negative powers are not ring elements; use unit_quotient")
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

    def relabel(self, perm: Sequence[int]) -> "ClassPoly":
        """Same ring, with symbol perm[i] renamed to symbol i.

        The terms keep their order and their coefficient objects, so a
        relabelling of a product equals the product of the relabelled
        factors term for term.  perm must be a permutation of the symbols
        that maps each to one of the same codim and pullback flag.
        """
        ctx = self.ctx
        perm = tuple(perm)
        if sorted(perm) != list(range(len(ctx.symbols))):
            raise ValueError(f"{perm} is not a permutation of {len(ctx.symbols)} symbols")
        for grades in (ctx._codims, ctx._pullback_codims):
            if any(grades[p] != g for p, g in zip(perm, grades)):
                raise ValueError(f"{perm} does not keep the grading of {ctx!r}")
        if len(perm) < 2:
            return self
        slots = itemgetter(*perm)
        return ClassPoly._of(ctx, {slots(e): c for e, c in self.terms.items()})

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


def unit_quotient(a: ClassPoly, u: ClassPoly) -> ClassPoly:
    """a / u for a unit u = 1 + u_1 + u_2 + ... (u_j of codim j) in a
    truncated ring, built piece by piece: w_k = a_k - (u_1 w_(k-1) + ... +
    u_k w_0).

    The recurrence runs on packed keys, one accumulator per grade
    (codim, pullback codim) of the result, and forms only the group pairs
    that survive; the result keeps its groups.  Raises ValueError when u
    is not such a unit or lives in another ring.
    """
    u = a._coerce(u)
    ctx = a.ctx
    if u.constant_term() != 1 or ctx.truncation is None:
        raise ValueError(f"not a unit with constant term 1 in a truncated ring: {render(u)}")
    pullback_top = ctx._pullback_top
    # -u_j for j >= 1; the group of codim 0 is the constant 1 alone
    minus_u = [(d, p, [(k, -c) for k, c in items]) for d, p, items in u._grouped() if d]
    a_by_codim: dict[int, list] = {}
    for d, p, items in a._grouped():
        a_by_codim.setdefault(d, []).append((p, items))
    # w[d]: the groups (p, items) of the result in codim d
    w: list[list[tuple[int, list]]] = []
    groups = []
    for d in range(ctx.truncation + 1):
        out = {p: dict(items) for p, items in a_by_codim.get(d, ())}
        for d1, p1, items1 in minus_u:
            if d1 > d:
                continue
            for p2, items2 in w[d - d1]:
                if p1 + p2 > pullback_top:
                    continue
                acc = out.get(p1 + p2)
                if acc is None:
                    acc = out[p1 + p2] = {}
                for k1, c1 in items1:
                    for k2, c2 in items2:
                        k = k1 + k2
                        if k in acc:
                            acc[k] += c1 * c2
                        else:
                            acc[k] = c1 * c2
        piece = []
        for p, acc in out.items():
            items = [(k, c) for k, c in acc.items() if c != 0]
            if items:
                piece.append((p, items))
                groups.append((d, p, items))
        w.append(piece)
    return ClassPoly._of_groups(ctx, groups)


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

    # a graded map sends a term above the target's truncation to 0
    top = target.truncation
    acc = target.zero()
    for e, c in a.terms.items():
        if top is not None and src.codim_of(e) > top:
            continue
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
        if coeff > 0:
            sign, mag = "+ ", coeff
        else:
            sign, mag = "- ", -coeff
        if not mono:
            chunks.append(f"{sign}{mag}")
        elif mag == 1:
            chunks.append(sign + mono)
        else:
            chunks.append(f"{sign}{mag}*{mono}")
    if not chunks:
        return "0"
    # every term is written with its sign and a space; the first keeps
    # only a '-'
    first = chunks[0]
    chunks[0] = first[2:] if first[0] == "+" else "-" + first[2:]
    return " ".join(chunks)


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


def _exponent(digits: str) -> int | None:
    """The exponent written as digits, or None above MAX_EXPONENT."""
    # the length test comes first: int() refuses strings of over 4300 digits
    if len(digits.lstrip("0")) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
        return None
    return int(digits)


class SystemParseError(ValueError):
    """Malformed polynomial text, located by line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_SPACE = re.compile(r"\s*")
_NUMBER = re.compile(r"\d+\.\d+|\d+|\.\d+")
# an exponent right after a number: 1e-3 is refused by name, never expanded
# (Fraction("1e999999999") would write out a billion digits)
_SCIENTIFIC = re.compile(r"[eE][+-]?\d")

class _Parser:
    """Recursive descent over + - * / ^ with parentheses, for the text
    _read_canonical does not take: decimals, parentheses, powers of
    groups and any spacing, so hand-written input can say
    (0.3*x1^2 + ...)^2 without pre-expansion.  '/' only by a constant.

    Every number, symbol and group is a ClassPoly combined with the ring's
    + - * and **, so the ring's normalization (truncation, pullback bound)
    applies as the text is read, and the terms, their order and their
    int/Fraction types are those of the ring arithmetic the text spells
    out.  The column of an error is its character position.
    """

    def __init__(self, ctx: RingContext, text: str, names: Sequence[str], line: int):
        self.ctx = ctx
        self.text = text
        self.names = {name: i for i, name in enumerate(names)}
        self.line = line
        self.pos = 0

    def error(self, message: str):
        raise SystemParseError(message, self.line, self.pos + 1)

    def peek(self) -> str:
        """The next character after any whitespace; '' at the end."""
        self.pos = _SPACE.match(self.text, self.pos).end()
        return self.text[self.pos : self.pos + 1]

    def parse(self) -> ClassPoly:
        p = self.expr()
        if self.peek():
            self.error(f"unexpected {self.text[self.pos]!r}")
        return p

    def expr(self) -> ClassPoly:
        ch = self.peek()
        sign = -1 if ch == "-" else 1
        if ch == "+" or ch == "-":
            self.pos += 1
        # the first term is multiplied by its sign, which groups its terms
        # by grade
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
                # an error points past the divisor and the space behind
                # it, or right after its exponent
                if divisor.total_degree() > 0:
                    self.error("can only divide by a constant")
                value = divisor.constant_term()
                if value == 0:
                    self.error("division by zero")
                acc = acc * self.ctx.constant(Fraction(1) / value)
            else:
                return acc

    def power(self) -> ClassPoly:
        """An atom, raised to an integer exponent if one follows, or '-'
        and a power, so a sign inside a term negates the whole power as a
        leading sign does: -x1^2 is -(x1^2)."""
        if self.peek() == "-":
            self.pos += 1
            return -self.power()
        base = self.atom()
        if self.peek() != "^":
            return base
        self.pos += 1
        self.peek()  # skips the space before the exponent
        m = _NUMBER.match(self.text, self.pos)
        if not m or "." in m[0]:
            self.error("expected integer exponent")
        k = _exponent(m[0])
        if k is None:
            self.error(f"exponent above the bound {MAX_EXPONENT}")
        self.pos = m.end()
        return base**k

    def atom(self) -> ClassPoly:
        if self.peek() == "(":
            self.pos += 1
            p = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return p
        m = _NUMBER.match(self.text, self.pos)
        if m:
            if _SCIENTIFIC.match(self.text, m.end()):
                self.error("scientific notation is not supported; write the number as a decimal")
            number = "0" + m[0] if m[0][0] == "." else m[0]
            try:
                value = Fraction(number)
            except ValueError:  # int() refuses strings of over 4300 digits
                self.error(f"numeric literal of {len(number)} characters is too long")
            self.pos = m.end()
            return self.ctx.constant(value)
        m = IDENTIFIER.match(self.text, self.pos)
        if m:
            index = self.names.get(m[0])
            if index is None:
                self.error(f"undeclared variable {m[0]!r}")
            self.pos = m.end()
            return self.ctx.var(index)
        self.error("expected a number, variable, or '('")


_DIGITS = "0123456789"
_COEFFICIENT = _DIGITS + "/"


def _factors(names: Sequence[str]) -> dict[str, tuple[int, int]]:
    """The factor table _vector starts from: each name the form can spell,
    an ASCII identifier, as (its index, exponent 1)."""
    return {name: (i, 1) for i, name in enumerate(names) if name.isascii() and name.isidentifier()}


def _vector(mono: str, factors: dict[str, tuple[int, int]], width: int) -> Exponents | None:
    """The exponent vector of a monomial text: factors 'name' or 'name^k'
    joined by '*', each name in factors (see _factors) and each k ASCII
    digits of at most MAX_EXPONENT; '' is the constant monomial.  None for
    any other text.  factors maps each factor text read so far to (index,
    exponent), and a new 'name^k' is added to it."""
    vector = [0] * width
    for factor in mono.split("*") if mono else ():
        ik = factors.get(factor)
        if ik is None:
            name, caret, power = factor.partition("^")
            base = factors.get(name)
            if base is None or not caret or not (power.isascii() and power.isdigit()):
                return None
            k = _exponent(power)
            if k is None:
                return None
            ik = factors[factor] = (base[0], k)
        vector[ik[0]] += ik[1]
    return tuple(vector)


def _read_canonical(
    ctx: RingContext, text: str, names: Sequence[str], monomials: dict[str, Exponents]
) -> dict[Exponents, Coefficient] | None:
    """The terms of a line in the form render and render_poly write, summed
    as the ring sums them: in the same order, with the same coefficients and
    int/Fraction types (p/q is p * (1/q), as _Parser divides), a key whose
    sum is 0 deleted and a zero or dead term dropped.

    The form: any indentation around signed terms joined by ' + ' and
    ' - ', the first term alone may start with '-', and each term is a
    coefficient, a monomial (see _vector) or a coefficient, '*' and a
    monomial, where a coefficient is ASCII digits and '/'.  None for a line
    in another form, a coefficient other than an integer or p/q, an
    undeclared symbol, an exponent above MAX_EXPONENT, a zero denominator or
    a literal too long for int(); _Parser then reads it and reports any
    error.

    monomials maps monomial texts to exponent vectors over names.  A text
    it lacks is checked and added; a text it holds has passed that check.
    """
    parts = text.strip().split(" ")
    if not len(parts) % 2:
        return None
    dies = ctx._dies if ctx.truncation is not None else None
    factors = None
    out: dict[Exponents, Coefficient] = {}
    # parts alternates terms and the signs between them
    for j in range(0, len(parts), 2):
        body = parts[j]
        if j:
            sign = parts[j - 1]
            if sign != "+" and sign != "-":
                return None
            negate = sign == "-"
        else:
            negate = body[:1] == "-"
            if negate:
                body = body[1:]
        if not body:
            return None
        if body[0] in _DIGITS:
            literal, star, mono = body.partition("*")
            if literal.strip(_COEFFICIENT) or (star and not mono):
                return None
            try:
                c = int(literal)
            except ValueError:  # p/q, or a literal of over 4300 digits
                p, _, q = literal.partition("/")
                try:
                    c = int(p) * _exact(Fraction(1, int(q)))
                except (ValueError, ZeroDivisionError):
                    return None
        else:
            c, mono = 1, body
        e = monomials.get(mono)
        if e is None:
            if factors is None:
                factors = _factors(names)
            e = _vector(mono, factors, len(names))
            if e is None:
                return None
            monomials[mono] = e
        if not c or (dies and dies(e)):
            continue
        if negate:
            c = -c
        if e in out:
            s = out[e] + c
            if s == 0:
                del out[e]
            else:
                out[e] = s
        else:
            out[e] = c
    return out


def parse(
    ctx: RingContext,
    text: str,
    names: Sequence[str] | None = None,
    line: int = 1,
    monomials: dict[str, Exponents] | None = None,
) -> ClassPoly:
    """Parse polynomial text into ctx; names[i] spells symbol i (default:
    the symbol names).  Raises SystemParseError, located by line and column,
    and ValueError when names is not one distinct name per symbol.

    A line in the canonical form that render and render_poly write
    (integer or p/q coefficients times monomials), which is every line the
    program writes, is read by _read_canonical with string splits, one term
    at a time; any other text, and any canonical line with an error in it,
    goes through the recursive descent of _Parser.  Both give the same terms
    in the same order with the same coefficient types, and both refuse an
    exponent above MAX_EXPONENT, so errors, their messages and their columns
    are the descent's on every input.

    monomials caches the exponent vectors of monomial texts; pass one dict
    to every line parsed with the same ctx and names, such as the lines of
    a system, and each distinct monomial is checked and read once.
    """
    if names is None:
        names = [s.name for s in ctx.symbols]
    elif len(names) != len(ctx.symbols):
        raise ValueError(f"{len(names)} names {list(names)} for {len(ctx.symbols)} symbols")
    elif len(set(names)) != len(names):
        raise ValueError(f"duplicate names in {list(names)}")
    if monomials is None:
        monomials = {}
    terms = _read_canonical(ctx, text, names, monomials)
    if terms is None:
        return _Parser(ctx, text, names, line).parse()
    return ClassPoly._of(ctx, terms)
