"""Bottleneck polynomial systems for an explicitly given variety.

Given defining equations f_1..f_k of X in C^n, a bottleneck pair (x, y) is
an off-diagonal solution of either of two systems:

  * minor formulation: f_i(x) = f_i(y) = 0 plus all (n-m+1)x(n-m+1)
    minors of the augmented Jacobians J(x,y) and J(y,x), where J(x,y)
    stacks the row y-x on top of the gradients at x — the rank condition
    saying the segment is normal to X at both ends;
  * Lagrange formulation: a square system with multipliers,
    x - y = sum_i lam_i grad f_i(x),  x - y = sum_i mu_i grad f_i(y).

Both conditions are symmetric: (x, y) is a bottleneck pair exactly when
(y, x) is.  So only the x-half of each system is expanded, and the y-half
is its relabelling under x <-> y (and lam <-> mu), `ClassPoly.relabel`:
the same terms, in the same order, that a direct expansion would give.

Everything is exact: coefficients are ints or Fractions, decimal literals in input
files are read exactly by Fraction, and minors are expanded determinants.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Sequence

from .ring import IDENTIFIER, ClassPoly, SystemParseError, coordinate_ring, render_poly
from .ring import parse as parse_text


# ===========================================================================
# systems
# ===========================================================================


@dataclass(frozen=True)
class SystemMeta:
    n: int
    k: int
    m: int
    formulation: str


@dataclass(frozen=True)
class PolySystem:
    variables: tuple[str, ...]
    polynomials: tuple[ClassPoly, ...]
    metadata: SystemMeta | None = None

    def __post_init__(self) -> None:
        nv = len(self.variables)
        for p in self.polynomials:
            if p.nvars != nv:
                raise ValueError("polynomial does not live in the declared variables")


def _xy_names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, n + 1)) + tuple(
        f"y{i}" for i in range(1, n + 1)
    )


def _check_input(fs: Sequence[ClassPoly], m: int) -> tuple[int, int]:
    fs = list(fs)
    if not fs:
        raise ValueError("need at least one defining polynomial")
    n = fs[0].nvars
    if any(f.nvars != n for f in fs):
        raise ValueError("defining polynomials disagree on variable count")
    k = len(fs)
    if m < 0:
        raise ValueError(f"need m >= 0, got m={m}: {k} equations in {n} variables")
    if m >= n:
        raise ValueError(f"need m < n, got m={m}, n={n}")
    if k < n - m:
        raise ValueError(f"need at least n-m={n - m} equations to cut X, got {k}")
    return n, k


def require_nonconstant(fs: Sequence[ClassPoly]) -> None:
    """Refuse a defining polynomial that is zero or constant: it cuts out all
    of C^n or nothing, so no bottleneck pair of it has a meaning.  The
    builders take such input (their systems are well formed); bnd system
    and the solver refuse it here."""
    for i, f in enumerate(fs, start=1):
        if f.total_degree() < 1:
            raise ValueError(f"defining polynomial {i} is zero or constant")


def _swap(n: int, k: int = 0) -> tuple[int, ...]:
    """The relabelling (see ClassPoly.relabel) of x1..xn, y1..yn followed by
    k multipliers of each point that exchanges the two points: x with y
    and, when k > 0, lam with mu."""
    xs, ys = range(n), range(n, 2 * n)
    lams, mus = range(2 * n, 2 * n + k), range(2 * n + k, 2 * n + 2 * k)
    return (*ys, *xs, *mus, *lams)


def build_minor_system(fs: Sequence[ClassPoly], m: int) -> PolySystem:
    """Minor formulation in the 2n variables x1..xn, y1..yn.

    Equation order: f_i(x), f_i(y), then the minors of J(x,y), then the
    minors of J(y,x); minors are enumerated with row and column index sets
    in lexicographic order and fully expanded.

    Only f_i(x) and the minors of J(x,y) are expanded.  Exchanging x and y
    is a ring automorphism that maps J(x,y) entry by entry onto J(y,x), so
    f_i(y) and the minors of J(y,x) are their relabellings: the terms a
    direct expansion would give, in the same order.
    """
    n, k = _check_input(fs, m)
    total = 2 * n
    fx = [f.embed(total, 0) for f in fs]
    ring = coordinate_ring(total)
    x = [ring.var(i) for i in range(n)]
    y = [ring.var(n + i) for i in range(n)]

    # gradient rows: partials of each embedded f in x
    grad_x = [[p.diff(j) for j in range(n)] for p in fx]

    def minors(rows: list[list[ClassPoly]]) -> list[ClassPoly]:
        # each minor is a Laplace expansion along its first row; the minors of
        # the rows below it are computed once and shared across column sets
        done: dict[tuple[tuple[int, ...], tuple[int, ...]], ClassPoly] = {}

        def minor(ri: tuple[int, ...], ci: tuple[int, ...]) -> ClassPoly:
            if len(ri) == 1:
                return rows[ri[0]][ci[0]]
            if (ri, ci) not in done:
                top, below = rows[ri[0]], ri[1:]
                acc = top[ci[0]] * minor(below, ci[1:])
                for j in range(1, len(ci)):
                    t = top[ci[j]] * minor(below, ci[:j] + ci[j + 1 :])
                    acc = acc - t if j % 2 else acc + t
                done[ri, ci] = acc
            return done[ri, ci]

        size = n - m + 1
        return [
            minor(ri, ci)
            for ri in combinations(range(len(rows)), size)
            for ci in combinations(range(n), size)
        ]

    minors_xy = minors([[y[j] - x[j] for j in range(n)]] + grad_x)
    swap = _swap(n)
    polys = fx + [f.relabel(swap) for f in fx] + minors_xy + [p.relabel(swap) for p in minors_xy]
    return PolySystem(_xy_names(n), tuple(polys), SystemMeta(n, k, m, "minors"))


def build_lagrange_system(fs: Sequence[ClassPoly]) -> PolySystem:
    """Square multiplier formulation: 2(n+k) equations in
    x1..xn, y1..yn, lam1..lamk, mu1..muk.

    Equation order: f_i(x), f_i(y), then componentwise
    x - y - sum_i lam_i grad f_i(x), then the same with mu at y.

    Each sum_i lam_i d_j f_i(x) is expanded once; f_i(y) and
    sum_i mu_i d_j f_i(y) are its relabellings under x <-> y, lam <-> mu,
    with the terms of a direct expansion in the same order.
    """
    if not fs:
        raise ValueError("need at least one defining polynomial")
    n, k = _check_input(fs, fs[0].nvars - len(fs))
    total = 2 * n + 2 * k
    names = _xy_names(n)
    names += tuple(f"lam{i}" for i in range(1, k + 1))
    names += tuple(f"mu{i}" for i in range(1, k + 1))

    fx = [f.embed(total, 0) for f in fs]
    ring = coordinate_ring(total)
    x = [ring.var(i) for i in range(n)]
    y = [ring.var(n + i) for i in range(n)]
    lam = [ring.var(2 * n + i) for i in range(k)]

    swap = _swap(n, k)
    lam_sums = [
        sum((lam[i] * fx[i].diff(j) for i in range(k)), ring.zero()) for j in range(n)
    ]
    lam_block = [x[j] - y[j] - s for j, s in enumerate(lam_sums)]
    mu_block = [x[j] - y[j] - s.relabel(swap) for j, s in enumerate(lam_sums)]
    polys = fx + [f.relabel(swap) for f in fx] + lam_block + mu_block
    return PolySystem(names, tuple(polys), SystemMeta(n, k, n - k, "lagrange"))


# ===========================================================================
# text form
# ===========================================================================


def parse_poly(text: str, names: Sequence[str], line: int = 1) -> ClassPoly:
    """One polynomial over the coordinates names (grammar: bnd.ring.parse)."""
    return parse_text(coordinate_ring(len(names)), text, names, line)


def format_system(system: PolySystem) -> str:
    lines = ["vars: " + " ".join(system.variables)]
    if system.metadata is not None:
        md = system.metadata
        lines += [f"# n: {md.n}", f"# k: {md.k}", f"# m: {md.m}", f"# formulation: {md.formulation}"]
    # the text of each monomial, written once for the whole system
    monomials: dict = {}
    for p in system.polynomials:
        lines.append(render_poly(p, system.variables, monomials))
    return "\n".join(lines) + "\n"


_META_LINE = re.compile(r"#\s*(n|k|m|formulation)\s*:\s*(\S+)\s*$")


def parse_system_text(text: str) -> PolySystem:
    variables: tuple[str, ...] | None = None
    meta: dict[str, int | str] = {}
    polys: list[ClassPoly] = []
    # the exponent vectors of the monomials seen so far in this text
    monomials: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        mm = _META_LINE.match(raw.strip())
        if mm:
            key, value = mm.groups()
            if key != "formulation":
                try:
                    value = int(value)
                except ValueError:
                    col = len(raw) - len(raw.lstrip()) + mm.start(2) + 1
                    raise SystemParseError(
                        f"'{key}' must be an integer, got {value!r}", lineno, col
                    ) from None
            meta[key] = value
            continue
        # columns in errors count from the start of the file line, so the
        # polynomial is parsed with its indentation in place
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if variables is None:
            body = line.lstrip()
            col = len(line) - len(body) + 1
            if not body.startswith("vars:"):
                raise SystemParseError("expected a 'vars:' declaration", lineno, col)
            names = body[len("vars:") :].split()
            col += len("vars:")
            if not names:
                raise SystemParseError("empty variable list", lineno, col)
            if len(set(names)) != len(names):
                raise SystemParseError("duplicate variable name", lineno, col)
            for name in names:
                if not IDENTIFIER.fullmatch(name):
                    raise SystemParseError(f"bad variable name {name!r}", lineno, col)
            variables = tuple(names)
            ctx = coordinate_ring(len(variables))
            continue
        polys.append(parse_text(ctx, line, variables, lineno, monomials))
    if variables is None:
        raise SystemParseError("no 'vars:' declaration found", 1, 1)
    metadata = None
    if {"n", "k", "m", "formulation"} <= meta.keys():
        metadata = SystemMeta(meta["n"], meta["k"], meta["m"], meta["formulation"])
    return PolySystem(variables, tuple(polys), metadata)


def emit(system: PolySystem, path) -> None:
    Path(path).write_text(format_system(system), encoding="utf-8")


def parse(path) -> PolySystem:
    return parse_system_text(Path(path).read_text(encoding="utf-8"))
