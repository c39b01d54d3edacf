"""Bottleneck degrees from polar classes.

The bottleneck degree of a smooth variety X in P^n counts (with
multiplicity) the pairs of distinct points whose joining line is normal to
X at both ends.  It is the degree of the double point class of the map
sending a point of the conormal model C_X to its normal line in
Gr(2, n+1):

    BND(X) = sum_i eps_i^2 - deg B_{m,n}(X),

where the eps_i are sums of polar degrees and B_{m,n} is a universal
polynomial in the hyperplane class h and the polar classes p_1..p_m,
depending only on dim X = m and the ambient dimension n.  compute_B
produces that polynomial by running the double-point computation in a
truncated ring over the conormal model; everything else in this module
assembles degrees out of it.

C_X is the projectivized dual normal bundle P(N^), fibered over X with
relative class xi; classes pulled back from X are capped at codim m, and
xi satisfies one monic relation R of degree n-m with coefficients the
Chern classes of N.  Reduction by R is plain monic division.

One conormal reduction, taking c(T_X) as a ring element, serves both
routes: _xi_relation builds c(N) and R, checked against its dual form, and
_point_class reduces a class to xi^(n-m-1) * (base class).  compute_B runs
the double point correction through it with the symbolic 1 + c_1 + ... +
c_m, epsilon_oracle the Schubert pullbacks with a profile's sum gamma_i h^i.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import comb

from .profiles import (
    PolarProfile,
    VarietySpec,
    ci_profile,
    evaluate_class,
    hyperplane_section_spec,
    polar_degrees,
)
from .ring import (
    ClassPoly,
    RingContext,
    SymbolSpec,
    declare_ring,
    divide_monic,
    graded_piece,
    invert_unit,
    render,
    substitute,
)
from .schubert import (
    SchubertIndex,
    chern_tangent_grassmannian,
    pullback_f,
    schubert_pullback_direct,
)


# Largest ambient dimension the exact engine works in.  A query about an
# m-dimensional variety in P^n runs in n_eff = max(2m+1, n) (compute_B(m, n)
# in n itself), and the cost grows about 2x per dimension and with n through
# the Chern class of Gr(2, n+1): compute_B(10, 21) takes about 1.5 s on a
# 2-vCPU host (0.3 s of it that Chern class), compute_B(11, 23) 3 s.
MAX_AMBIENT = 21


def check_work_bound(m: int, n: int) -> None:
    """Raise ValueError before any ring work when the shape (m, n) needs an
    ambient above MAX_AMBIENT."""
    n_eff = max(2 * m + 1, n)
    if n_eff > MAX_AMBIENT:
        raise ValueError(
            f"dimension {m} in ambient {n} needs the exact engine in ambient {n_eff}, "
            f"above the bound MAX_AMBIENT = {MAX_AMBIENT}"
        )


@dataclass(frozen=True)
class BFormula:
    """B_{m,n} as a homogeneous codim-m polynomial in h, p_1..p_m."""

    m: int
    n: int
    poly: ClassPoly

    @property
    def text(self) -> str:
        return render(self.poly)


@dataclass(frozen=True)
class EpsilonVector:
    """The degrees eps_0..eps_k of the conormal image class; eps_0 is the
    Euclidean distance degree."""

    values: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.values) - 1

    def sum_squares(self) -> int:
        return sum(v * v for v in self.values)


def formula_context(m: int) -> RingContext:
    """The ring h, p_1..p_m of codim-weighted class formulas, truncated at m."""
    syms = [SymbolSpec("h", 1)] + [SymbolSpec(f"p{i}", i) for i in range(1, m + 1)]
    return declare_ring(syms, truncation=m)


def conormal_context(m: int, n: int) -> RingContext:
    """Working ring over C_X: xi plus pullback symbols h, c_1..c_m.

    Truncation n-1 = dim C_X; classes pulled back from X die above codim m.
    """
    syms = [SymbolSpec("xi", 1), SymbolSpec("h", 1, pullback=True)]
    syms += [SymbolSpec(f"c{i}", i, pullback=True) for i in range(1, m + 1)]
    return declare_ring(syms, truncation=n - 1, pullback_bound=m)


def _chern_in_polar(ctx: RingContext, m: int, j: int) -> ClassPoly:
    # c_j(T_X) = sum_{i=0}^{j} (-1)^i C(m-i+1, j-i) h^(j-i) p_i, with p_0 = 1
    h = ctx.sym("h")
    acc = ctx.zero()
    for i in range(j + 1):
        term = ctx.constant((-1) ** i * comb(m - i + 1, j - i)) * h ** (j - i)
        if i:
            term = term * ctx.sym(f"p{i}")
        acc = acc + term
    return acc


def _xi_relation(c_tx: ClassPoly, m: int, n: int) -> tuple[list[ClassPoly], ClassPoly]:
    """The pieces c_0(N)..c_{n-m}(N) of the normal bundle, c(N) =
    (1+h)^(n+1) / c(T_X), and the monic relation of xi of degree n-m.

    The relation is built twice: from c(N) with alternating signs, and from
    c(N^) = (1-h)^(n+1) / c(Omega_X) directly, c(Omega_X) being c(T_X) with
    each odd-codim term negated; they must agree.
    """
    ctx = c_tx.ctx
    xi, h = ctx.sym("xi"), ctx.sym("h")
    c_n = (1 + h) ** (n + 1) * invert_unit(c_tx)
    pieces = [graded_piece(c_n, j) for j in range(n - m + 1)]
    c_omega_x = ctx.poly({e: (-1) ** ctx.codim_of(e) * c for e, c in c_tx.terms.items()})
    c_n_dual = (1 - h) ** (n + 1) * invert_unit(c_omega_x)
    relation = sum((-1) ** j * pieces[j] * xi ** (n - m - j) for j in range(n - m + 1))
    relation_dual = sum(graded_piece(c_n_dual, j) * xi ** (n - m - j) for j in range(n - m + 1))
    if relation != relation_dual:
        raise RuntimeError(
            f"relation presentations disagree for (m,n)=({m},{n}): "
            f"{render(relation)} vs {render(relation_dual)}"
        )
    return pieces, relation


def _point_class(cls: ClassPoly, relation: ClassPoly, m: int, n: int) -> ClassPoly:
    """The codim-m base class b with cls = xi^(n-m-1) * b modulo the
    relation (a multiple of h^m when c(T_X) is numeric).  Raises
    RuntimeError if cls does not reduce to that form."""
    _, rem = divide_monic(cls, relation, "xi")
    i = rem.ctx.index("xi")
    if not rem.is_homogeneous(n - 1) or any(e[i] != n - m - 1 for e in rem.terms):
        raise RuntimeError(
            f"class did not reduce to xi^{n - m - 1} * (codim-{m} base class) "
            f"for (m,n)=({m},{n}): {render(rem)}"
        )
    return rem.coefficient_of("xi", n - m - 1)


def _double_point_class(c_tx: ClassPoly, m: int, n: int) -> ClassPoly:
    """Base class of the double point correction of the normal-line map
    f: C_X -> Gr(2, n+1): (f*c(T_G) / c(T_CX)) in codim n-1, reduced to
    xi^(n-m-1) * (base class)."""
    ctx = c_tx.ctx
    xi = ctx.sym("xi")
    pieces, relation = _xi_relation(c_tx, m, n)
    # relative tangent twist of rank n-m: c(pi*N^ (x) O(1))
    twist = sum((-1) ** j * pieces[j] * (1 + xi) ** (n - m - j) for j in range(n - m + 1))
    correction = graded_piece(
        pullback_f(chern_tangent_grassmannian(n), ctx) * invert_unit(c_tx * twist), n - 1
    )
    return _point_class(correction, relation, m, n)


@lru_cache(maxsize=None)
def compute_B(m: int, n: int) -> BFormula:
    """The universal bottleneck polynomial B_{m,n}.

    The double point reduction with the symbolic c(T_X) = 1 + c_1 + ... +
    c_m, its base class re-expressed in polar classes.  Raises RuntimeError
    if an internal reduction step fails, which would mean a pipeline bug
    rather than bad input.
    """
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < n, got m={m}, n={n}")
    check_work_bound(m, n)
    ctx = conormal_context(m, n)
    base_class = _double_point_class(1 + sum(ctx.sym(f"c{i}") for i in range(1, m + 1)), m, n)

    fctx = formula_context(m)
    images = {"h": fctx.sym("h")}
    for j in range(1, m + 1):
        images[f"c{j}"] = _chern_in_polar(fctx, m, j)
    out = substitute(base_class, images, fctx)

    if not out.is_homogeneous(m):
        raise RuntimeError(f"B_{{{m},{n}}} is not homogeneous of codim {m}")
    if any(c.denominator != 1 for c in out.terms.values()):
        raise RuntimeError(f"B_{{{m},{n}}} has non-integer coefficients: {render(out)}")
    return BFormula(m, n, out)


# ---------------------------------------------------------------------------
# epsilon degrees
# ---------------------------------------------------------------------------


def epsilon_terms(m: int, n: int, polar_degs) -> EpsilonVector:
    """Combinatorial route: eps_i = sum_{j=r_i}^{m-i} deg p_j with
    r_i = max(0, m-n+1+i) and k = min((n-1)//2, m)."""
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < n, got m={m}, n={n}")
    polar_degs = tuple(polar_degs)
    if len(polar_degs) != m + 1:
        raise ValueError(
            f"need deg p_0..p_{m} ({m + 1} values), got {len(polar_degs)}"
        )
    k = min((n - 1) // 2, m)
    values = []
    for i in range(k + 1):
        r_i = max(0, m - n + 1 + i)
        values.append(sum(polar_degs[j] for j in range(r_i, m - i + 1)))
    return EpsilonVector(tuple(values))


def epsilon_oracle(m: int, n: int, profile: PolarProfile) -> EpsilonVector:
    """Geometric route: eps_i = deg f*(sigma_{n-1-i, i}) on C_X.

    Runs the conormal reduction with the profile's numeric Chern scalars:
    pull the Schubert class back, divide by the xi relation, and read the
    coefficient of the point basis element xi^(n-m-1) h^m.  Independent of
    epsilon_terms, which makes the two a cross-check on the whole theory.
    """
    if profile.m != m:
        raise ValueError(f"profile has dimension {profile.m}, expected {m}")
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < n, got m={m}, n={n}")
    ctx = conormal_context(m, n)
    h = ctx.sym("h")
    _, relation = _xi_relation(sum(g * h**i for i, g in enumerate(profile.chern_coeffs)), m, n)

    (h_m,) = (h**m).terms
    d = profile.fundamental_degree
    k = min((n - 1) // 2, m)
    values = []
    for i in range(k + 1):
        cls = schubert_pullback_direct(SchubertIndex(n - 1 - i, i), ctx)
        coeff = Fraction(_point_class(cls, relation, m, n).terms.get(h_m, 0)) * d
        if coeff.denominator != 1:
            raise RuntimeError(f"non-integer epsilon degree {coeff}")
        values.append(int(coeff))
    return EpsilonVector(tuple(values))


def ed_degree(profile: PolarProfile) -> int:
    """Euclidean distance degree: the sum of all polar degrees (= eps_0)."""
    return sum(polar_degrees(profile))


# ---------------------------------------------------------------------------
# bottleneck degrees
# ---------------------------------------------------------------------------


def bnd_projective(formula: BFormula, profile: PolarProfile) -> int:
    """BND(X) = sum eps_i^2 - deg B_{m,n}(X) for the projective variety
    described by the profile.  The profile's smoothness/general-position
    assumptions are the caller's responsibility."""
    if profile.m != formula.m:
        raise ValueError(
            f"dimension mismatch: formula for m={formula.m}, profile has m={profile.m}"
        )
    eps = epsilon_terms(formula.m, formula.n, polar_degrees(profile))
    return eps.sum_squares() - evaluate_class(formula.poly, profile)


def bnd_of_profile(profile: PolarProfile) -> int:
    """BND with the formula chosen automatically.

    The pair count does not change when X is re-embedded in a larger
    projective space, so we run the formula at n_eff = max(2m+1, ambient),
    the smallest ambient in which the combinatorics are saturated.
    A 0-dimensional X of degree D has D(D-1) ordered pairs of distinct
    points, all of them bottlenecks.
    """
    if profile.m == 0:
        d = profile.fundamental_degree
        return d * (d - 1)
    n_eff = max(2 * profile.m + 1, profile.ambient or 0)
    return bnd_projective(compute_B(profile.m, n_eff), profile)


def bnd_affine(spec: VarietySpec) -> int:
    """BND of the affine variety cut by the spec's equations in C^n:
    the projective count minus the count of the part at infinity.

    A generic 0-dimensional intersection has no part at infinity: its
    deg X points are all affine, so its count is the projective one.
    """
    closure = replace(spec, affine=False)
    if spec.dim == 0:
        return bnd_variety(closure)
    infinity = hyperplane_section_spec(spec)
    return bnd_variety(closure) - bnd_variety(infinity)


def bnd_variety(spec: VarietySpec) -> int:
    """BND of the variety described by the spec, affine or projective."""
    if spec.affine:
        return bnd_affine(spec)
    if spec.dim == 0:
        d = spec.fundamental_degree
        return d * (d - 1)
    check_work_bound(spec.dim, spec.ambient_dim)
    return bnd_of_profile(ci_profile(spec))


# ---------------------------------------------------------------------------
# ambient stability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    """compute_B(m, n) across a range of ambient dimensions.

    identical means every formula in the range is the same polynomial.
    stable_from is the first n of the maximal constant tail, i.e. the
    formula equals the range's last formula from there on.
    """

    m: int
    formulas: tuple[BFormula, ...]
    identical: bool
    stable_from: int


def ambient_stability(m: int, n_range) -> StabilityReport:
    ns = sorted(n_range)
    if not ns:
        raise ValueError("empty ambient range")
    if ns[0] <= m:
        raise ValueError(f"every n must exceed m={m}, got n={ns[0]}")
    check_work_bound(m, ns[-1])
    formulas = tuple(compute_B(m, n) for n in ns)
    identical = all(f.poly == formulas[0].poly for f in formulas)
    stable_from = None
    for f in reversed(formulas):
        if f.poly == formulas[-1].poly:
            stable_from = f.n
        else:
            break
    return StabilityReport(m, formulas, identical, stable_from)
