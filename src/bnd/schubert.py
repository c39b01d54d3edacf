"""Chern classes on the Grassmannian of lines and their conormal pullbacks.

G = Gr(2, n+1) carries the tautological rank-2 subbundle S and rank-(n-1)
quotient Q.  Everything here is written in the Chern classes of the dual
subbundle,

    e1 = c1(S^) = sigma_1,      e2 = c2(S^) = sigma_{1,1},

inside a ring truncated at dim G = 2(n-1).  The map f sends a point of the
conormal model to the line it spans, and on these generators

    f* e1 = xi,     f* e2 = h*xi - h^2,

which is all we need to pull back arbitrary classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .ring import (
    ClassPoly,
    Coefficient,
    Exponents,
    RingContext,
    SymbolSpec,
    declare_ring,
    substitute,
)


@dataclass(frozen=True)
class SchubertIndex:
    """Index (a, b) with a >= b >= 0 of a Schubert class on Gr(2, n+1)."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if not (self.a >= self.b >= 0):
            raise ValueError(f"need a >= b >= 0, got ({self.a}, {self.b})")

    @property
    def codim(self) -> int:
        return self.a + self.b

    def check_ambient(self, n: int) -> None:
        if self.a > n - 1:
            raise ValueError(
                f"sigma_({self.a},{self.b}) is not a class on Gr(2,{n + 1}): need a <= {n - 1}"
            )


def grassmannian_context(n: int) -> RingContext:
    if n < 2:
        raise ValueError("need ambient dimension n >= 2")
    return declare_ring(
        [SymbolSpec("e1", 1), SymbolSpec("e2", 2)], truncation=2 * (n - 1)
    )


# ---------------------------------------------------------------------------
# symmetric-function plumbing
# ---------------------------------------------------------------------------


def _segre(ctx: RingContext, l: int) -> ClassPoly:
    # s_l = e1*s_{l-1} - e2*s_{l-2}: the degree-l piece of 1/(1 - e1 + e2),
    # equal to the complete homogeneous polynomial in the two Chern roots.
    e1, e2 = ctx.sym("e1"), ctx.sym("e2")
    prev, cur = ctx.one(), e1
    if l == 0:
        return prev
    for _ in range(l - 1):
        prev, cur = cur, e1 * cur - e2 * prev
    return cur


def _symmetrize(terms: dict[Exponents, Coefficient], ctx_e: RingContext) -> ClassPoly:
    """The e1, e2 form of a symmetric polynomial in x1, x2, given as its
    terms: a dict from (a, b) to the coefficient of x1^a*x2^b.

    Leading-term elimination on the dict: visit each x1^a*x2^b with a >= b
    in descending lex order; its residual coefficient c is the coefficient
    of e1^(a-b)*e2^b, whose expansion

        sum_j  C(a-b, j) * x1^(b+j) * x2^(a-j)

    touches only (a, b) and monomials after it, and is subtracted in exact
    arithmetic.  The e-terms come out in that order.  A residual left at
    the end means the input was not symmetric, which is a bug, not an
    input condition.
    """
    rem = dict(terms)
    top = max((a + b for a, b in rem), default=0)
    out: dict[Exponents, Coefficient] = {}
    for a in range(top, -1, -1):
        for b in range(min(a, top - a), -1, -1):
            c = rem.pop((a, b), 0)
            if not c:
                continue
            out[(a - b, b)] = c
            for j in range(a - b):
                key = (b + j, a - j)
                rem[key] = rem.get(key, 0) - comb(a - b, j) * c
    left = [(a, b) for (a, b), c in rem.items() if c]
    if left:
        a, b = max(left)
        raise RuntimeError(f"not symmetric: residual x1^{a}*x2^{b}")
    return ctx_e.poly(out)


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def chern_tangent_grassmannian(n: int) -> ClassPoly:
    """Total Chern class of T(Gr(2, n+1)) as a polynomial in e1, e2.

    T_G = Hom(S, Q) = S^ (x) Q, so with x1, x2 the Chern roots of S^ the
    total class is a product of two rank-(n-1) twists, F(x1, x2)*F(x2, x1)
    with

        F(x1, x2) = sum_{l=0}^{n-1}  h_l(x1, x2) * (1 + x1)^(n-1-l),

    where h_l = sum_i x1^i * x2^(l-i), the degree-l piece of 1/c(S), is
    c_l(Q).  F is written down term by term with the binomials
    C(n-1-l, j) of its second factor; the product is one multiplication in
    the (x1, x2) ring truncated at dim G, and it is returned rewritten in
    e1, e2 by _symmetrize.  The e1, e2 form of a symmetric polynomial is
    unique and truncation commutes with the graded map e -> x, so the
    representative does not depend on how the product is formed.
    """
    ctx_e = grassmannian_context(n)
    ctx_x = declare_ring(
        [SymbolSpec("x1", 1), SymbolSpec("x2", 1)], truncation=2 * (n - 1)
    )
    # every term of F has degree l + j <= n-1, inside the truncation
    twist: dict[Exponents, int] = {}
    for l in range(n):
        for j in range(n - l):
            binom = comb(n - 1 - l, j)
            for i in range(l + 1):
                key = (i + j, l - i)
                twist[key] = twist.get(key, 0) + binom
    swapped = {(b, a): c for (a, b), c in twist.items()}
    total = ClassPoly._of(ctx_x, twist) * ClassPoly._of(ctx_x, swapped)
    return _symmetrize(total.terms, ctx_e)


def schubert_representative(index: SchubertIndex, n: int) -> ClassPoly:
    """sigma_{a,b} on Gr(2, n+1) as a polynomial in e1, e2.

    Two-row Giambelli collapses to sigma_{a,b} = e2^b * s_{a-b}.
    """
    index.check_ambient(n)
    ctx = grassmannian_context(n)
    return ctx.sym("e2") ** index.b * _segre(ctx, index.a - index.b)


def pullback_f(a: ClassPoly, target: RingContext) -> ClassPoly:
    """Pull a class on G, written in e1 and e2, back along f.

    The target must declare symbols xi and h; f* e1 = xi and
    f* e2 = h*xi - h^2.
    """
    xi, h = target.sym("xi"), target.sym("h")
    return substitute(a, {"e1": xi, "e2": h * xi - h * h}, target)


def schubert_pullback_direct(index: SchubertIndex, target: RingContext) -> ClassPoly:
    """f*(sigma_{a,b}) written directly in xi and h:

        sum_{i=0}^{a-b}  h^(b+i) * (xi - h)^(a-i)

    Independent of the representative route, which makes the two a check on
    each other.
    """
    xi, h = target.sym("xi"), target.sym("h")
    acc = target.zero()
    for i in range(index.a - index.b + 1):
        acc = acc + h ** (index.b + i) * (xi - h) ** (index.a - i)
    return acc
