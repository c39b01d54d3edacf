"""Variety descriptions and their polar-class profiles.

A smooth complete intersection X in P^n cut by generic hypersurfaces of
degrees d_1..d_k has Chern classes that are scalar multiples of powers of
the hyperplane class h:

    c_i(T_X) = gamma_i * h^i.

A PolarProfile records the matching polar-class scalars q_j (p_j = q_j * h^j)
and the degree d = d_1*...*d_k of X, which is all the data needed to
evaluate any class formula in h, p_1, ..., p_m on X; it derives the gamma_i.

The two scalar systems determine each other through one alternating
binomial transform, `chern_to_polar`,

    q_j = sum_{i=0}^{j} (-1)^i C(m-i+1, j-i) gamma_i,

which is an involution: the same sum taken over q_0..q_m gives back the
gamma_j.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from operator import mul
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .ring import ClassPoly


@dataclass(frozen=True)
class VarietySpec:
    """A complete intersection of hypersurfaces, projective or affine.

    ambient_dim is n; degrees are the hypersurface degrees.  The classes
    computed from this description are those of a generic such intersection
    (smooth, and with nondegenerate bottleneck geometry).
    """

    ambient_dim: int
    degrees: tuple[int, ...]
    affine: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "degrees", tuple(self.degrees))
        # the plain-int test comes first: an isinstance check against
        # numbers.Integral takes about 0.8 us (Python 3.11), and on every
        # value it cost a degree query about a tenth of its time.  bool is
        # an Integral, so True would pass as 1.
        n = self.ambient_dim
        if not (type(n) is int or isinstance(n, numbers.Integral) and not isinstance(n, bool)):
            raise ValueError(f"ambient_dim must be an integer, got {n!r}")
        for d in self.degrees:
            if not (type(d) is int or isinstance(d, numbers.Integral) and not isinstance(d, bool)):
                raise ValueError(f"degrees must be integers, got {self.degrees}")
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        if not self.degrees:
            raise ValueError("need at least one hypersurface degree")
        if len(self.degrees) > self.ambient_dim:
            raise ValueError("more equations than ambient dimensions")
        if any(d < 1 for d in self.degrees):
            raise ValueError(f"degrees must be positive, got {self.degrees}")

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.degrees)

    @property
    def codim(self) -> int:
        return len(self.degrees)

    @property
    def fundamental_degree(self) -> int:
        return prod(self.degrees)


def hyperplane_section_spec(spec: VarietySpec) -> VarietySpec:
    """The generic hyperplane section: same degrees, one ambient dimension
    down.  Always projective (used for the part of a variety at infinity)."""
    if spec.dim < 1:
        raise ValueError("cannot section a 0-dimensional variety")
    return VarietySpec(spec.ambient_dim - 1, spec.degrees, affine=False)


# ---------------------------------------------------------------------------
# scalar transforms
# ---------------------------------------------------------------------------


# A process meets few dimensions (a CLI query one or two, `bnd check` a
# handful), while a table near the largest m `edd` accepts (299) holds
# about 45,000 integers; the cache keeps the tables of the last few m.
@lru_cache(maxsize=16)
def _signed_binomial_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """Row j = ((-1)^i C(m-i+1, j-i) for i = 0..j), for j = 0..m."""
    return tuple(
        tuple((-1) ** i * comb(m - i + 1, j - i) for i in range(j + 1)) for j in range(m + 1)
    )


def chern_to_polar(m: int, gammas: tuple[int, ...]) -> tuple[int, ...]:
    if len(gammas) != m + 1:
        raise ValueError(f"need m+1 = {m + 1} coefficients, got {len(gammas)}")
    return tuple(sum(map(mul, row, gammas)) for row in _signed_binomial_rows(m))


def _as_int_tuple(coeffs, what: str) -> tuple[int, ...]:
    out = []
    for c in coeffs:
        f = Fraction(c)
        if f.denominator != 1:
            raise ValueError(f"{what} must be integers, got {c}")
        out.append(int(f))
    return tuple(out)


@dataclass(frozen=True)
class PolarProfile:
    """Scalar polar data of an m-dimensional variety.

    polar_coeffs = (q_0, ..., q_m), starting at 1; the Chern scalars
    chern_coeffs are derived from them.  ambient/degrees are carried along
    when the profile came from a VarietySpec: bnd_of_profile runs its
    formula in ambient n_eff = max(2m+1, ambient), and the edd --json
    payload reports both.
    """

    m: int
    fundamental_degree: int
    polar_coeffs: tuple[int, ...]
    ambient: int | None = None
    degrees: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError("dimension must be >= 0")
        if self.fundamental_degree < 1:
            raise ValueError("fundamental degree must be >= 1")
        if len(self.polar_coeffs) != self.m + 1:
            raise ValueError(f"polar_coeffs must have length m+1 = {self.m + 1}")
        if self.polar_coeffs[0] != 1:
            raise ValueError("polar_coeffs[0] must be 1 (the class of X itself)")

    @property
    def chern_coeffs(self) -> tuple[int, ...]:
        """(gamma_0, ..., gamma_m): the transform is an involution, so it
        also maps polar to Chern scalars."""
        return chern_to_polar(self.m, self.polar_coeffs)

    @classmethod
    def from_chern(cls, m, fundamental_degree, gammas, ambient=None, degrees=None):
        gammas = _as_int_tuple(gammas, "Chern coefficients")
        if len(gammas) != m + 1:
            raise ValueError(f"Chern coefficients must have length m+1 = {m + 1}")
        if gammas and gammas[0] != 1:
            raise ValueError("Chern coefficients must start at 1 (the class of X itself)")
        return cls(m, fundamental_degree, chern_to_polar(m, gammas), ambient, degrees)


def ci_profile(spec: VarietySpec) -> PolarProfile:
    """Profile of the (projective closure of the) complete intersection.

    c(T_X) = (1+h)^(n+1) / prod_i (1 + d_i h), truncated at dim X.  The
    scalars come from an integer recurrence, with no ring: start from the
    binomials C(n+1, i), and divide by each 1 + d h in turn as
    gamma_i <- gamma_i - d * gamma_(i-1) for i = 1..m, in ascending i.
    """
    m = spec.dim
    gammas = [comb(spec.ambient_dim + 1, i) for i in range(m + 1)]
    for d in spec.degrees:
        for i in range(1, m + 1):
            gammas[i] -= d * gammas[i - 1]
    return PolarProfile(
        m, spec.fundamental_degree, chern_to_polar(m, gammas), spec.ambient_dim, spec.degrees
    )


def polar_degrees(profile: PolarProfile) -> tuple[int, ...]:
    """(deg p_0, ..., deg p_m); deg p_j = q_j * deg X."""
    return tuple(q * profile.fundamental_degree for q in profile.polar_coeffs)


def evaluate_class(a: ClassPoly, profile: PolarProfile) -> int:
    """Degree of a codimension-m class given as a polynomial in h, p_1..p_m.

    Each monomial turns into its product of polar scalars times deg X; the
    input must be homogeneous of codimension exactly m, so the degree pairing
    against X makes sense.  The scalars are ints, so the sum is exact in int
    arithmetic, or in Fraction arithmetic where a coefficient is a Fraction;
    a value that is not an integer raises.
    """
    m = profile.m
    names = [s.name for s in a.ctx.symbols]
    if names != ["h"] + [f"p{i}" for i in range(1, m + 1)]:
        raise ValueError(
            f"class ring {names} does not match an {m}-dimensional profile"
        )
    if not a.is_homogeneous(m):
        raise ValueError(f"class is not homogeneous of codimension {m}")
    qs = profile.polar_coeffs
    total = 0
    for expts, coeff in a.terms.items():
        for j in range(1, m + 1):
            if expts[j]:
                coeff *= qs[j] ** expts[j]
        total += coeff
    total *= profile.fundamental_degree
    if total.denominator != 1:
        raise ValueError(f"class does not evaluate to an integer: {total}")
    return int(total)
