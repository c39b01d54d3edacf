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
the double point correction through it with c(T_X) written in the polar
classes, so the base class is B_{m,n} itself; epsilon_oracle runs the
Schubert pullbacks through it with a profile's sum gamma_i h^i.  The
Grassmannian enters only through f*e1 = xi and f*e2 = h*xi - h^2, so the
tangent class of Gr(2, n+1) is formed already pulled back.

The fixed factors are written down as term dicts, not multiplied out in
the ring: c(T_X) in the polar classes one term per binomial coefficient,
(1 +- h)^(n+1) and the relative twist's (1 + xi)^k by the binomial
theorem, each piece * xi^k of the relation as a shift of the xi exponent,
and the numerator (1 + xi + h*xi - h^2)^(n+1) of f*c(T_G) by the
multinomial theorem.  What remains are ring operations on classes that
depend on c(T_X): the unit quotients, one product for c(T_X) * twist, one
for the Grassmannian denominator times it, and the monic division.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, inf, log10

from .profiles import (
    PolarProfile,
    VarietySpec,
    _signed_binomial_rows,
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
    render,
    unit_quotient,
)
from .schubert import SchubertIndex, schubert_pullback_direct


# Largest ambient dimension the exact engine works in.  A query about an
# m-dimensional variety in P^n runs in n_eff = max(2m+1, n) (compute_B(m, n)
# in n itself), and the cost grows about 2x per dimension.  Cold, in a fresh
# process on a shared 2-vCPU host (Python 3.11): compute_B(10, 21) takes
# 0.12-0.17 s (seven runs), and compute_B(11, 23), with the bound lifted,
# 0.26-0.33 s (five runs).
MAX_AMBIENT = 21

# Largest ambient dimension `edd` answers in.  It runs no ring, only the
# integer profile recurrence, whose cost grows about as the cube of the
# ambient.  ed_degree(ci_profile(...)) of a quadric, on the same host, three
# runs each: 0.5 ms / 7 ms / 58-60 ms / 0.22-0.24 s / 0.63 s at ambient
# 30 / 100 / 200 / 300 / 400, and 14.7 s at 1000 (one run).
MAX_EDD_AMBIENT = 300


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


def formula_context(m: int) -> RingContext:
    """The ring h, p_1..p_m of codim-weighted class formulas, truncated at m."""
    syms = [SymbolSpec("h", 1)] + [SymbolSpec(f"p{i}", i) for i in range(1, m + 1)]
    return declare_ring(syms, truncation=m)


def conormal_context(m: int, n: int) -> RingContext:
    """Working ring over C_X: xi plus pullback symbols h, p_1..p_m.

    Truncation n-1 = dim C_X; classes pulled back from X die above codim m.
    """
    syms = [SymbolSpec("xi", 1), SymbolSpec("h", 1, pullback=True)]
    syms += [SymbolSpec(f"p{i}", i, pullback=True) for i in range(1, m + 1)]
    return declare_ring(syms, truncation=n - 1, pullback_bound=m)


def _xi_h_poly(ctx: RingContext, coeffs: dict[tuple[int, int], int]) -> ClassPoly:
    """The sum of c * xi^a * h^b over coeffs {(a, b): c}, in ctx."""
    ix, ih = ctx.index("xi"), ctx.index("h")
    raw = {}
    for (a, b), c in coeffs.items():
        e = [0] * len(ctx.symbols)
        e[ix], e[ih] = a, b
        raw[tuple(e)] = c
    return ctx.poly(raw)


def _h_binomial(ctx: RingContext, sign: int, k: int) -> ClassPoly:
    """(1 + sign * h)^k by the binomial theorem."""
    return _xi_h_poly(ctx, {(0, i): sign**i * comb(k, i) for i in range(k + 1)})


def _times_xi_powers(
    ctx: RingContext, factors: list[tuple[ClassPoly, dict[int, int]]]
) -> ClassPoly:
    """The sum of c * piece * xi^a over factors [(piece, {a: c})], each
    product formed as exponent shifts of the piece's terms."""
    ix = ctx.index("xi")
    raw: dict = {}
    for piece, powers in factors:
        for e, c in piece.terms.items():
            for a, k in powers.items():
                shifted = e[:ix] + (e[ix] + a,) + e[ix + 1 :]
                raw[shifted] = raw.get(shifted, 0) + k * c
    return ctx.poly(raw)


def _chern_tangent_in_polar(ctx: RingContext, m: int) -> ClassPoly:
    """c(T_X) = sum_j c_j with c_j = sum_{i=0}^{j} (-1)^i C(m-i+1, j-i)
    h^(j-i) p_i (p_0 = 1), one term per (j, i), the coefficients read from
    the table chern_to_polar uses."""
    ih = ctx.index("h")
    raw = {}
    for j, row in enumerate(_signed_binomial_rows(m)):
        for i, c in enumerate(row):
            e = [0] * len(ctx.symbols)
            e[ih] = j - i
            if i:
                e[ctx.index(f"p{i}")] = 1
            raw[tuple(e)] = c
    return ctx.poly(raw)


def _xi_relation(c_tx: ClassPoly, m: int, n: int) -> tuple[list[ClassPoly], ClassPoly]:
    """The pieces c_0(N)..c_{n-m}(N) of the normal bundle, c(N) =
    (1+h)^(n+1) / c(T_X), and the monic relation of xi of degree n-m.

    The relation is built twice: from c(N) with alternating signs, and from
    c(N^) = (1-h)^(n+1) / c(Omega_X) directly, c(Omega_X) being c(T_X) with
    each odd-codim term negated; they must agree.
    """
    ctx = c_tx.ctx
    c_n = unit_quotient(_h_binomial(ctx, 1, n + 1), c_tx)
    pieces = [graded_piece(c_n, j) for j in range(n - m + 1)]
    c_omega_x = ctx.poly({e: (-1) ** ctx.codim_of(e) * c for e, c in c_tx.terms.items()})
    c_n_dual = unit_quotient(_h_binomial(ctx, -1, n + 1), c_omega_x)
    relation = _times_xi_powers(
        ctx, [(pieces[j], {n - m - j: (-1) ** j}) for j in range(n - m + 1)]
    )
    relation_dual = _times_xi_powers(
        ctx, [(graded_piece(c_n_dual, j), {n - m - j: 1}) for j in range(n - m + 1)]
    )
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


def _grassmannian_tangent_over(u: ClassPoly, n: int) -> ClassPoly:
    """f*c(T Gr(2, n+1)) / u for a unit u of a ring over C_X, in one
    unit_quotient.

    T_G = S^ (x) Q = S^ (x) V - End(S) in K-theory, with S the tautological
    rank-2 subbundle and V the trivial rank-(n+1) bundle.  End(S) has Chern
    roots 0, 0 and +-(x1 - x2), so c(T_G) = (1 + e1 + e2)^(n+1) /
    (1 - e1^2 + 4*e2) in e1 = c1(S^), e2 = c2(S^).  f* is a ring map with
    f*e1 = xi and f*e2 = h*xi - h^2, which gives

        f*c(T_G) = (1 + xi + h*xi - h^2)^(n+1) / (1 - (xi - 2h)^2).
    """
    ctx = u.ctx
    # 1 - (xi - 2h)^2 = 1 - xi^2 + 4*h*xi - 4*h^2
    denominator = _xi_h_poly(ctx, {(0, 0): 1, (2, 0): -1, (1, 1): 4, (0, 2): -4})
    return unit_quotient(_grassmannian_numerator(ctx, n), denominator * u)


def _grassmannian_numerator(ctx: RingContext, n: int) -> ClassPoly:
    """(1 + xi + h*xi - h^2)^(n+1) by the multinomial theorem: the terms
    C(n+1; k1, k2, k3) xi^k1 (h*xi)^k2 (-h^2)^k3 with k1 + k2 + k3 <= n+1,
    formed only where the codim k1 + 2k2 + 2k3 is within the truncation
    and the h-degree k2 + 2k3 within the pullback bound."""
    top, bound = ctx.truncation, ctx.pullback_bound
    coeffs: dict[tuple[int, int], int] = {}
    for k3 in range(bound // 2 + 1):
        for k2 in range(bound - 2 * k3 + 1):
            for k1 in range(min(top - 2 * (k2 + k3), n + 1 - k2 - k3) + 1):
                c = (-1) ** k3 * comb(n + 1, k1) * comb(n + 1 - k1, k2) * comb(n + 1 - k1 - k2, k3)
                key = (k1 + k2, k2 + 2 * k3)
                coeffs[key] = coeffs.get(key, 0) + c
    return _xi_h_poly(ctx, coeffs)


def _double_point_class(c_tx: ClassPoly, m: int, n: int) -> ClassPoly:
    """Base class of the double point correction of the normal-line map
    f: C_X -> Gr(2, n+1): (f*c(T_G) / c(T_CX)) in codim n-1, reduced to
    xi^(n-m-1) * (base class)."""
    pieces, relation = _xi_relation(c_tx, m, n)
    # relative tangent twist of rank n-m: c(pi*N^ (x) O(1)), the sum of
    # (-1)^j c_j(N) (1 + xi)^(n-m-j) expanded by the binomial theorem
    twist = _times_xi_powers(
        c_tx.ctx,
        [
            (pieces[j], {i: (-1) ** j * comb(n - m - j, i) for i in range(n - m - j + 1)})
            for j in range(n - m + 1)
        ],
    )
    correction = graded_piece(_grassmannian_tangent_over(c_tx * twist, n), n - 1)
    return _point_class(correction, relation, m, n)


@lru_cache(maxsize=None)
def compute_B(m: int, n: int) -> BFormula:
    """The universal bottleneck polynomial B_{m,n}.

    The double point reduction with c(T_X) = 1 + c_1 + ... + c_m, each
    c_j written in h and the polar classes, so that its base class is
    already a polynomial in h, p_1..p_m.  Raises RuntimeError if an
    internal reduction step fails, which would mean a pipeline bug rather
    than bad input.
    """
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < n, got m={m}, n={n}")
    check_work_bound(m, n)
    ctx = conormal_context(m, n)
    base_class = _double_point_class(_chern_tangent_in_polar(ctx, m), m, n)
    # the base class has no xi: drop that slot to land in h, p_1..p_m
    out = formula_context(m).poly({e[1:]: c for e, c in base_class.terms.items()})

    if not out.is_homogeneous(m):
        raise RuntimeError(f"B_{{{m},{n}}} is not homogeneous of codim {m}")
    if any(c.denominator != 1 for c in out.terms.values()):
        raise RuntimeError(f"B_{{{m},{n}}} has non-integer coefficients: {render(out)}")
    return BFormula(m, n, out)


# ---------------------------------------------------------------------------
# epsilon degrees
# ---------------------------------------------------------------------------


def epsilon_terms(m: int, n: int, polar_degs) -> tuple[int, ...]:
    """Combinatorial route: the degrees eps_0..eps_k of the conormal image
    class (eps_0 is the Euclidean distance degree), eps_i = sum_{j=r_i}^{m-i}
    deg p_j with r_i = max(0, m-n+1+i) and k = min((n-1)//2, m)."""
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
    return tuple(values)


def epsilon_oracle(m: int, n: int, profile: PolarProfile) -> tuple[int, ...]:
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
    return tuple(values)


def ed_degree(profile: PolarProfile) -> int:
    """Euclidean distance degree: the sum of all polar degrees (= eps_0)."""
    return sum(polar_degrees(profile))


def ed_degree_floor_log10(spec: VarietySpec) -> float:
    """log10 of d_1...d_k * (d_max - 1)^m, a lower bound on the ED degree of
    a general complete intersection of dimension m in P^n (one term of
    d_1...d_k * sum over i_1 + ... + i_k <= m of prod (d_j - 1)^(i_j));
    -inf when every degree is 1.  It costs no recurrence, so a caller can
    tell from it that an answer will be too long to print."""
    top = max(spec.degrees)
    if top == 1:
        return -inf
    return sum(map(log10, spec.degrees)) + spec.dim * log10(top - 1)


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
    return sum(e * e for e in eps) - evaluate_class(formula.poly, profile)


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


def bnd_variety(spec: VarietySpec) -> int:
    """BND of the variety described by the spec, affine or projective.

    An affine variety in C^n counts as its projective closure minus its
    part at infinity, a generic hyperplane section of the closure.  A
    generic 0-dimensional intersection has no part at infinity: its deg X
    points are all affine, so its count is the projective one.
    """
    if spec.dim >= 1:
        check_work_bound(spec.dim, spec.ambient_dim)
    value = bnd_of_profile(ci_profile(spec))
    if spec.affine and spec.dim >= 1:
        value -= bnd_variety(hyperplane_section_spec(spec))
    return value


# ---------------------------------------------------------------------------
# ambient stability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    """compute_B(m, n) across a range of ambient dimensions.

    stable_from is the first n of the maximal constant tail, i.e. the
    formula equals the range's last formula from there on; identical means
    that tail is the whole range.
    """

    m: int
    formulas: tuple[BFormula, ...]
    stable_from: int

    @property
    def identical(self) -> bool:
        return self.stable_from == self.formulas[0].n


def ambient_stability(m: int, n_range) -> StabilityReport:
    ns = sorted(n_range)
    if not ns:
        raise ValueError("empty ambient range")
    if ns[0] <= m:
        raise ValueError(f"every n must exceed m={m}, got n={ns[0]}")
    check_work_bound(m, ns[-1])
    formulas = tuple(compute_B(m, n) for n in ns)
    stable_from = None
    for f in reversed(formulas):
        if f.poly == formulas[-1].poly:
            stable_from = f.n
        else:
            break
    return StabilityReport(m, formulas, stable_from)
