"""Schubert classes on the Grassmannian of lines and their conormal pullbacks.

G = Gr(2, n+1) carries the tautological rank-2 subbundle S and rank-(n-1)
quotient Q.  Everything here is written in the Chern classes of the dual
subbundle,

    e1 = c1(S^) = sigma_1,      e2 = c2(S^) = sigma_{1,1},

inside a ring truncated at dim G = 2(n-1).  The map f sends a point of the
conormal model to the line it spans, and on these generators

    f* e1 = xi,     f* e2 = h*xi - h^2,

which is all we need to pull back arbitrary classes.  The engine's
epsilon oracle reads Schubert pullbacks in the closed form of
schubert_pullback_direct; the representative route, a Giambelli
polynomial pulled back by substitution, is the check on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ring import ClassPoly, RingContext, SymbolSpec, declare_ring, substitute


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


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------


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
