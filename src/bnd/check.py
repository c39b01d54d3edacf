"""The regression table of `bnd check`: known values that the engine, the
Schubert calculus, the system builder and the solver must reproduce.

CHECKS lists the rows; each row's check returns (ok, detail).  The checks
in NUMPY_CHECKS load numpy and bnd.solver; `bnd check --fast` skips them.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import chain, combinations

from .engine import (
    ambient_stability,
    bnd_variety,
    compute_B,
    epsilon_oracle,
    epsilon_terms,
    formula_context,
)
from .profiles import VarietySpec, ci_profile, polar_degrees
from .ring import SymbolSpec, declare_ring
from .ring import parse as parse_class
from .schubert import (
    SchubertIndex,
    pullback_f,
    schubert_pullback_direct,
    schubert_representative,
)
from .systems import build_minor_system, format_system, parse_system_text

TROTT = "144*x1^4 + 350*x1^2*x2^2 + 144*x2^4 - 225*x1^2 - 225*x2^2 + 81"
# the critical-pair equations of the Trott quartic: the curve at both
# endpoints plus the two bordered-Jacobian determinants
TROTT_SYSTEM = (
    TROTT,
    "144*y1^4 + 350*y1^2*y2^2 + 144*y2^4 - 225*y1^2 - 225*y2^2 + 81",
    "(y1 - x1)*(576*x2^3 + 700*x1^2*x2 - 450*x2)"
    " - (y2 - x2)*(576*x1^3 + 700*x1*x2^2 - 450*x1)",
    "(x1 - y1)*(576*y2^3 + 700*y1^2*y2 - 450*y2)"
    " - (x2 - y2)*(576*y1^3 + 700*y1*y2^2 - 450*y1)",
)
# the twelve pairs of the Trott curve's axis crossings, canonically ordered
TROTT_AXIS_PAIRS = [
    pair
    for u, v in combinations((-1.0, -0.75, 0.75, 1.0), 2)
    for pair in ((u, 0, v, 0), (0, u, 0, v))
]

PLANE_CURVES = [VarietySpec(2, (d,)) for d in range(2, 13)]
SPACE_CURVES = [VarietySpec(3, (d1, d2)) for d1 in range(2, 6) for d2 in range(2, 6)]
SURFACES = [VarietySpec(3, (d,)) for d in range(2, 9)]


def _cases(specs, affine: bool, closed_form):
    """(spec, closed_form(*degrees)) for each spec, made affine if asked."""
    return [(replace(s, affine=affine), closed_form(*s.degrees)) for s in specs]


def _space_curve_bnd(d1: int, d2: int) -> int:
    d, s = d1 * d2, d1 + d2
    return d**2 * (s - 1) ** 2 - 5 * d * s + 9 * d


def _check_formula(m: int, n: int, expected: str):
    got = compute_B(m, n)
    return got.poly == parse_class(formula_context(m), expected), f"got {got.text}"


def _check_stability(m: int, lo: int, hi: int):
    report = ambient_stability(m, range(lo, hi + 1))
    if report.identical:
        return True, ""
    return False, f"constant only from n={report.stable_from} on"


def _check_bnd(cases):
    """cases: (spec, closed-form bottleneck degree) pairs."""
    for spec, want in cases:
        got = bnd_variety(spec)
        if got != want:
            kind = "affine" if spec.affine else "projective"
            return False, f"{kind} {spec.degrees} in P^{spec.ambient_dim}: got {got}, want {want}"
    return True, ""


def _check_epsilon(*spec_lists):
    for spec in chain(*spec_lists):
        profile = ci_profile(spec)
        m = profile.m
        for n in {spec.ambient_dim, 2 * m + 1}:
            combinatorial = epsilon_terms(m, n, polar_degrees(profile))
            geometric = epsilon_oracle(m, n, profile)
            if combinatorial != geometric:
                return False, (
                    f"{spec.degrees} in P^{spec.ambient_dim} at n={n}: "
                    f"{combinatorial} vs {geometric}"
                )
    return True, ""


def _check_schubert():
    target = declare_ring([SymbolSpec("xi", 1), SymbolSpec("h", 1)], truncation=20)
    for n in range(3, 13):
        for a in range(0, min(10, n - 1) + 1):
            for b in range(0, a + 1):
                index = SchubertIndex(a, b)
                via_rep = pullback_f(schubert_representative(index, n), target)
                if via_rep != schubert_pullback_direct(index, target):
                    return False, f"(a,b,n)=({a},{b},{n})"
    return True, ""


def _check_solver(text: str, counts_ok, expected_pairs, tol: float):
    """Solve the variety in `text`.  counts_ok(found, isolated) judges the
    pair counts; each expected canonical pair must lie within tol of one
    found pair."""
    import numpy as np

    from .solver import find_bottlenecks

    result = find_bottlenecks(list(parse_system_text(text).polynomials))
    found = len(result.pairs)
    isolated = sum(p.isolated for p in result.pairs)
    detail = f"{found} pairs ({isolated} isolated)"
    if not counts_ok(found, isolated):
        return False, detail
    keys = [np.array((*p.x, *p.y)) for p in result.pairs]
    for want in expected_pairs:
        if not any(np.linalg.norm(np.array(want) - k) < tol for k in keys):
            return False, f"missing pair {want}"
    return True, detail


def _check_minor_system(text: str, expected: str):
    """The minor system of the variety in `text` equals the equations in
    `expected` up to sign and order, and survives an emit/parse roundtrip."""
    system = build_minor_system(list(parse_system_text(text).polynomials), 1)
    want = parse_system_text(expected).polynomials
    if len(system.polynomials) != len(want):
        return False, f"system has {len(system.polynomials)} equations"
    signed = {p for q in want for p in (q, q * -1)}
    if not all(p in signed for p in system.polynomials):
        return False, "minor system does not match the expanded equations"
    emitted = format_system(system)
    reparsed = parse_system_text(emitted)
    if format_system(reparsed) != emitted or reparsed.polynomials != system.polynomials:
        return False, "emit/parse roundtrip altered the system"
    return True, ""


# (name, check, arguments): `bnd check` runs check(*arguments) -> (ok, detail)
CHECKS = [
    ("formula dim 1 ambient 3", _check_formula, (1, 3, "2*h + 5*p1")),
    ("formula dim 2 ambient 5", _check_formula, (2, 5, "3*h^2 + 6*h*p1 + 12*p1^2 + p2")),
    ("formula dim 3 ambient 7", _check_formula, (
        3, 7, "4*h^3 + 11*h^2*p1 + 4*h*p1^2 + 24*p1^3 + 2*h*p2 - 12*p1*p2 + 17*p3",
    )),
    ("ambient stability dim 1, n 3..12", _check_stability, (1, 3, 12)),
    ("ambient stability dim 2, n 4..12", _check_stability, (2, 4, 12)),
    ("ambient stability dim 3, n 5..10", _check_stability, (3, 5, 10)),
    ("plane curves degree 2..12, closed forms", _check_bnd, (
        _cases(PLANE_CURVES, False, lambda d: d**4 - 4 * d**2 + 3 * d)
        + _cases(PLANE_CURVES, True, lambda d: d**4 - 5 * d**2 + 4 * d),
    )),
    ("space curves bidegree 2..5, closed form", _check_bnd, (
        _cases(SPACE_CURVES, True, _space_curve_bnd),
    )),
    ("surfaces degree 2..8, closed form", _check_bnd, (
        _cases(SURFACES, True, lambda d: (
            d**6 - 2 * d**5 + 3 * d**4 - 15 * d**3 + 26 * d**2 - 13 * d
        )),
    )),
    ("epsilon degrees: reduction oracle vs formula", _check_epsilon, (
        PLANE_CURVES, SPACE_CURVES, SURFACES,
    )),
    ("schubert pullback: representative vs direct", _check_schubert, ()),
    ("solver: ellipse axis pairs", _check_solver, (
        "vars: x1 x2\nx1^2 + x2^2/2 - 1",
        lambda found, isolated: found == isolated == 2,
        [(-1, 0, 1, 0), (0, -math.sqrt(2), 0, math.sqrt(2))],
        1e-8,
    )),
    ("solver: ellipsoid axis pairs", _check_solver, (
        "vars: x1 x2 x3\n36*x1^2 + 9*x2^2 + 4*x3^2 - 36",
        lambda found, isolated: isolated == 3,
        [(-1, 0, 0, 1, 0, 0), (0, -2, 0, 0, 2, 0), (0, 0, -3, 0, 0, 3)],
        1e-8,
    )),
    ("solver: spheroid isolated pair + continuum", _check_solver, (
        "vars: x1 x2 x3\n4*x1^2 + x2^2 + x3^2 - 4",
        lambda found, isolated: isolated == 1 and found > 1,
        [(-1, 0, 0, 1, 0, 0)],
        1e-8,
    )),
    ("solver: quartic curve pair count", _check_solver, (
        "vars: x1 x2\nx1^4 + x2^4 + 1 - 4*x2 - x1^2*x2^2 - 4*x1^2 - x1 - 2*x2^2",
        lambda found, isolated: found == 22,
        [],
        0.0,
    )),
    ("solver: space sextic pair count", _check_solver, (
        "vars: x1 x2 x3\nx1^3 - 3*x1*x2^2 - x3\nx1^2 + x2^2 + 3*x3^2 - 1",
        lambda found, isolated: found == 24,
        [],
        0.0,
    )),
    ("solver: trott curve axis pairs and bound", _check_solver, (
        f"vars: x1 x2\n{TROTT}",
        # 96 complex pairs: half the affine BND of a generic plane quartic
        lambda found, isolated: found <= 96,
        TROTT_AXIS_PAIRS,
        1e-6,
    )),
    ("trott minor system expansion + roundtrip", _check_minor_system, (
        f"vars: x1 x2\n{TROTT}",
        "vars: x1 x2 y1 y2\n" + "\n".join(TROTT_SYSTEM),
    )),
]
NUMPY_CHECKS = (_check_solver,)
