"""Bottleneck polynomial systems for an explicitly given variety.

Given defining equations f_1..f_k of X in C^n, a bottleneck pair (x, y) is
an off-diagonal solution of either of two systems:

  * minor formulation: f_i(x) = f_i(y) = 0 plus all (n-m+1)x(n-m+1)
    minors of the augmented Jacobians J(x,y) and J(y,x), where J(x,y)
    stacks the row y-x on top of the gradients at x — the rank condition
    saying the segment is normal to X at both ends;
  * Lagrange formulation: a square system with multipliers,
    x - y = sum_i lam_i grad f_i(x),  x - y = sum_i mu_i grad f_i(y).

Everything is exact: coefficients are ints or Fractions, decimal literals in input
files convert by digit shift, and minors are expanded determinants.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Sequence

from .ring import IDENTIFIER, ClassPoly, SystemParseError, coordinate_ring, render_poly
from .ring import parse as parse_text

# Polynomials in positional coordinates are elements of the coordinate ring
# with that many variables; see bnd.ring for the one polynomial type.
Poly = ClassPoly


def det(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant by Laplace expansion along the first row; the matrices
    here are small (at most a handful of rows).  build_minor_system gives
    the same polynomials, term order included, with shared sub-minors."""
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
    polynomials: tuple[Poly, ...]
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


def _check_input(fs: Sequence[Poly], m: int) -> tuple[int, int]:
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


def build_minor_system(fs: Sequence[Poly], m: int) -> PolySystem:
    """Minor formulation in the 2n variables x1..xn, y1..yn.

    Equation order: f_i(x), f_i(y), then the minors of J(x,y), then the
    minors of J(y,x); minors are enumerated with row and column index sets
    in lexicographic order and fully expanded.
    """
    n, k = _check_input(fs, m)
    total = 2 * n
    fx = [f.embed(total, 0) for f in fs]
    fy = [f.embed(total, n) for f in fs]
    x = [Poly.var(total, i) for i in range(n)]
    y = [Poly.var(total, n + i) for i in range(n)]

    # gradient rows: partials of each embedded f in the point's own coordinates
    grad_x = [[p.diff(j) for j in range(n)] for p in fx]
    grad_y = [[p.diff(n + j) for j in range(n)] for p in fy]

    def minors(rows: list[list[Poly]]) -> list[Poly]:
        # each minor expands along its first row, as det does; the minors of
        # the rows below it are computed once and shared across column sets
        done: dict[tuple[tuple[int, ...], tuple[int, ...]], Poly] = {}

        def minor(ri: tuple[int, ...], ci: tuple[int, ...]) -> Poly:
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

    j_xy = [[y[j] - x[j] for j in range(n)]] + grad_x
    j_yx = [[x[j] - y[j] for j in range(n)]] + grad_y

    polys = fx + fy + minors(j_xy) + minors(j_yx)
    return PolySystem(_xy_names(n), tuple(polys), SystemMeta(n, k, m, "minors"))


def build_lagrange_system(
    fs: Sequence[Poly],
    start_system: Sequence[Poly] | None = None,
    gamma: Fraction | int | None = None,
) -> PolySystem:
    """Square multiplier formulation: 2(n+k) equations in
    x1..xn, y1..yn, lam1..lamk, mu1..muk.

    Equation order: f_i(x), f_i(y), then componentwise
    x - y - sum_i lam_i grad f_i(x), then the same with mu at y.

    With a start system g (same length, matching degrees) and a blend
    constant gamma, the equations use h_i = (1-t) f_i + gamma t g_i with a
    trailing parameter variable t: t=1 is the start system, t=0 the target.
    The blend is for export to external path trackers; nothing here tracks
    paths.
    """
    if not fs:
        raise ValueError("need at least one defining polynomial")
    n, k = _check_input(fs, fs[0].nvars - len(fs))
    blend = start_system is not None
    if blend:
        gs = list(start_system)
        if len(gs) != k:
            raise ValueError(f"start system has {len(gs)} equations, expected {k}")
        for i, (f, g) in enumerate(zip(fs, gs)):
            if f.total_degree() != g.total_degree():
                raise ValueError(
                    f"start-system degree mismatch at equation {i + 1}: "
                    f"{g.total_degree()} vs {f.total_degree()}"
                )
        if gamma is None:
            gamma = Fraction(1)

    total = 2 * n + 2 * k + (1 if blend else 0)
    names = _xy_names(n)
    names += tuple(f"lam{i}" for i in range(1, k + 1))
    names += tuple(f"mu{i}" for i in range(1, k + 1))
    if blend:
        names += ("t",)

    def lift(f: Poly, g: Poly | None, offset: int) -> Poly:
        fe = f.embed(total, offset)
        if not blend:
            return fe
        t = Poly.var(total, total - 1)
        return (1 - t) * fe + Fraction(gamma) * t * g.embed(total, offset)

    hx = [lift(f, gs[i] if blend else None, 0) for i, f in enumerate(fs)]
    hy = [lift(f, gs[i] if blend else None, n) for i, f in enumerate(fs)]
    x = [Poly.var(total, i) for i in range(n)]
    y = [Poly.var(total, n + i) for i in range(n)]
    lam = [Poly.var(total, 2 * n + i) for i in range(k)]
    mu = [Poly.var(total, 2 * n + k + i) for i in range(k)]

    lam_block = [
        x[j] - y[j] - sum((lam[i] * hx[i].diff(j) for i in range(k)), Poly(total, {}))
        for j in range(n)
    ]
    mu_block = [
        x[j] - y[j] - sum((mu[i] * hy[i].diff(n + j) for i in range(k)), Poly(total, {}))
        for j in range(n)
    ]
    polys = hx + hy + lam_block + mu_block
    return PolySystem(
        names, tuple(polys), SystemMeta(n, k, n - k, "homotopy" if blend else "lagrange")
    )


# ===========================================================================
# text form
# ===========================================================================


def parse_poly(text: str, names: Sequence[str], line: int = 1) -> Poly:
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
    polys: list[Poly] = []
    # the exponent vectors of the monomial runs seen so far in this text
    runs: dict = {}
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
        polys.append(parse_text(ctx, line, variables, lineno, runs))
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
