"""Command-line front end.

Subcommands
    formula  universal bottleneck-class polynomial for a (dimension, ambient) pair
    bnd      bottleneck degree of a smooth complete intersection
    edd      Euclidean distance degree (the first epsilon degree)
    system   emit the minor or multiplier critical-pair system for a variety
    solve    numeric search for real bottleneck pairs
    check    regression table of known values; nonzero exit on any failure

Exit codes: 0 success, 1 computational failure, 2 usage error.  Every
subcommand accepts --json for machine-readable output.  The environment
variable BND_THREADS (a positive integer) sets solver parallelism.
The argument parser is built on the first call to main and reused by every
later call in the process; each call still parses into a fresh namespace.

Variety input files (for system/solve) use the system text format: a
`vars:` line naming the coordinates, then one defining polynomial per
line; `#` starts a comment, except that a line of the form
`# n|k|m|formulation: <value>` is read as metadata, so `# m: curve` is
refused (n, k and m must be integers).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
from itertools import chain, combinations

from .engine import (
    ambient_stability,
    bnd_variety,
    check_work_bound,
    compute_B,
    ed_degree,
    epsilon_oracle,
    epsilon_terms,
    formula_context,
)
from .profiles import VarietySpec, ci_profile, polar_degrees, profile_json
from .ring import SymbolSpec, declare_ring
from .ring import parse as parse_class
from .schubert import (
    SchubertIndex,
    pullback_f,
    schubert_pullback_direct,
    schubert_representative,
)
from .systems import (
    build_lagrange_system,
    build_minor_system,
    format_system,
    parse_system_text,
)


class UsageError(Exception):
    """Bad arguments that argparse alone cannot catch; exits with code 2."""


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------


def _parse_degrees(text: str) -> tuple[int, ...]:
    try:
        degrees = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--degrees expects comma-separated integers, got {text!r}")
    if not degrees or any(d < 1 for d in degrees):
        raise UsageError(f"--degrees must be positive, got {text!r}")
    return degrees


def _parse_box(text: str, n: int) -> tuple[tuple[float, float], ...]:
    intervals = []
    for part in text.split(","):
        try:
            lo, hi = (float(v) for v in part.split(":"))
        except ValueError:
            raise UsageError(f"--box expects lo:hi[,lo:hi...], got {text!r}")
        intervals.append((lo, hi))
    if len(intervals) == 1:
        intervals = intervals * n
    if len(intervals) != n:
        raise UsageError(f"--box has {len(intervals)} interval(s) for {n} coordinates")
    return tuple(intervals)


def _load_system(path: str):
    if path == "-":
        return parse_system_text(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return parse_system_text(handle.read())


def _emit(text: str, output: str | None) -> None:
    """Write text, ending in one newline, to the file output, or to stdout
    when output is None or '-'."""
    if not text.endswith("\n"):
        text += "\n"
    if output and output != "-":
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _spec_for(args) -> VarietySpec:
    degrees = _parse_degrees(args.degrees)
    try:
        return VarietySpec(args.ambient, degrees, affine=getattr(args, "affine", False))
    except ValueError as exc:
        raise UsageError(str(exc))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_formula(args) -> int:
    m, n = args.dim, args.ambient
    if m < 1 or n <= m:
        raise UsageError(f"need dimension >= 1 and ambient > dimension, got {m}, {n}")
    if args.stability is None:
        formula = compute_B(m, n)
        if args.json:
            print(json.dumps({"dim": m, "ambient": n, "formula": formula.text}))
        else:
            print(formula.text)
        return 0

    if args.stability < n:
        raise UsageError(f"--stability bound {args.stability} is below --ambient {n}")
    report = ambient_stability(m, range(n, args.stability + 1))
    if args.json:
        print(
            json.dumps(
                {
                    "dim": m,
                    "ambients": [f.n for f in report.formulas],
                    "formulas": {str(f.n): f.text for f in report.formulas},
                    "identical": report.identical,
                    "stable_from": report.stable_from,
                }
            )
        )
        return 0
    for formula in report.formulas:
        print(f"n={formula.n}: {formula.text}")
    if report.identical:
        print(f"identical across n={n}..{args.stability}")
    else:
        print(
            f"NOT identical across n={n}..{args.stability}; "
            f"constant from n={report.stable_from} on"
        )
    return 0


def cmd_bnd(args) -> int:
    spec = _spec_for(args)
    value = bnd_variety(spec)
    if args.json:
        payload = {
            "ambient": spec.ambient_dim,
            "degrees": list(spec.degrees),
            "affine": spec.affine,
            "bnd": value,
            "assumes_general_position": True,
        }
        if spec.dim == 0:
            payload["zero_dimensional"] = True
        print(json.dumps(payload))
    else:
        print(value)
    return 0


def cmd_edd(args) -> int:
    spec = _spec_for(args)
    if spec.dim == 0:
        raise UsageError("Euclidean distance degree needs a positive-dimensional variety")
    check_work_bound(spec.dim, spec.ambient_dim)
    profile = ci_profile(spec)
    value = ed_degree(profile)
    if args.json:
        print(json.dumps({**profile_json(profile), "edd": value}))
    else:
        print(value)
    return 0


def cmd_system(args) -> int:
    source = _load_system(args.input)
    fs = list(source.polynomials)
    n = len(source.variables)
    if args.form == "minor":
        out = build_minor_system(fs, n - len(fs))
    else:
        out = build_lagrange_system(fs)
    text = format_system(out)
    if args.json:
        # the polynomials are the last lines of the text, one each
        lines = text.splitlines()
        payload = {
            "variables": list(out.variables),
            "polynomials": lines[len(lines) - len(out.polynomials) :],
            "text": text,
        }
        if out.metadata:
            payload["metadata"] = {
                "n": out.metadata.n,
                "k": out.metadata.k,
                "m": out.metadata.m,
                "formulation": out.metadata.formulation,
            }
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        _emit(text, args.output)
    return 0


def cmd_solve(args) -> int:
    # imported here, so that the exact commands never load numpy
    from .solver import (
        SolverConfig,
        find_bottlenecks,
        narrowest_bottleneck,
        plot_data,
        result_json,
        result_table,
    )

    source = _load_system(args.input)
    fs = list(source.polynomials)
    n = len(source.variables)
    kwargs = {}
    if args.box is not None:
        kwargs["box"] = _parse_box(args.box, n)
    if args.density is not None:
        kwargs["density"] = args.density
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.tol is not None:
        kwargs["residual_tol"] = args.tol
    if args.max_iter is not None:
        kwargs["newton_max_iter"] = args.max_iter
    try:
        config = SolverConfig(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc))

    result = find_bottlenecks(fs, config)

    degrees = tuple(sorted(f.total_degree() for f in fs))
    try:
        bound = bnd_variety(VarietySpec(n, degrees, affine=True)) // 2
    except ValueError:
        bound = None

    try:
        _, sep = narrowest_bottleneck(result.pairs)
    except ValueError:
        sep = None
    if args.output or args.json:
        payload = result_json(result)
        payload["complex_pair_bound"] = bound
        payload["narrowest_separation"] = sep
        if sep is not None:
            payload["reach_upper_bound"] = sep / 2
        text = json.dumps(payload, indent=2)
        if args.output and not (args.json and args.output == "-"):
            _emit(text, args.output)
    if args.plot:
        _emit(plot_data(result), args.plot)

    if args.json:
        print(text)
        return 0

    print(result_table(result))
    isolated = sum(p.isolated for p in result.pairs)
    if bound is not None:
        print(
            f"isolated pairs found: {isolated}; "
            f"complex bound for generic varieties of this shape: {bound} pairs"
        )
        if isolated > bound:
            print(
                f"warning: the count exceeds the complex bound by {isolated - bound}, "
                "so some pairs are duplicates or spurious"
            )
    if sep is None:
        print("no isolated pairs found")
    else:
        print(f"narrowest isolated separation {sep:.12g} (reach <= {sep / 2:.12g})")
    return 0


# ---------------------------------------------------------------------------
# the regression table
# ---------------------------------------------------------------------------

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
                    f"{combinatorial.values} vs {geometric.values}"
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


def cmd_check(args) -> int:
    rows = []
    for name, check, arguments in CHECKS:
        if args.fast and check is _check_solver:
            rows.append({"name": name, "status": "skipped", "detail": "--fast"})
            continue
        try:
            ok, detail = check(*arguments)
        except Exception as exc:  # a crash is a failing row, not a crash of check
            ok, detail = False, f"error: {exc!r}"
        rows.append({"name": name, "status": "pass" if ok else "fail", "detail": detail})
    counts = {
        status: sum(1 for r in rows if r["status"] == status)
        for status in ("pass", "fail", "skipped")
    }
    code = 0 if counts["fail"] == 0 else 1

    if args.json:
        print(json.dumps({"rows": rows, "ok": code == 0}, indent=2))
        return code

    for row in rows:
        tag = {"pass": "PASS", "fail": "FAIL", "skipped": "skip"}[row["status"]]
        line = f"{tag}  {row['name']}"
        if row["detail"] and row["status"] != "pass":
            line += f"  [{row['detail']}]"
        print(line)
    print(f"{counts['pass']} passed, {counts['fail']} failed, {counts['skipped']} skipped")
    return code


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnd",
        description="Bottleneck degrees of algebraic varieties: exact class "
        "computations and numeric real-pair search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("formula", help="universal bottleneck-class polynomial")
    p.add_argument("--dim", type=int, required=True, help="variety dimension m")
    p.add_argument("--ambient", type=int, required=True, help="ambient projective dimension n")
    p.add_argument(
        "--stability",
        type=int,
        metavar="N_MAX",
        help="compare the formula across ambient dimensions up to N_MAX",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("bnd", help="bottleneck degree of a complete intersection")
    p.add_argument("--ambient", type=int, required=True)
    p.add_argument("--degrees", required=True, help="comma-separated degrees, e.g. 2,3")
    p.add_argument("--affine", action="store_true", help="count for the affine part only")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bnd)

    p = sub.add_parser("edd", help="Euclidean distance degree")
    p.add_argument("--ambient", type=int, required=True)
    p.add_argument("--degrees", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_edd)

    p = sub.add_parser("system", help="emit a critical-pair system")
    p.add_argument("--input", required=True, help="variety file ('-' for stdin)")
    p.add_argument("--form", choices=("minor", "lagrange"), default="minor")
    p.add_argument("--output", help="output file (default stdout)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_system)

    p = sub.add_parser("solve", help="find real bottleneck pairs numerically")
    p.add_argument("--input", required=True, help="variety file ('-' for stdin)")
    p.add_argument("--box", help="search box lo:hi[,lo:hi...] (single interval broadcasts)")
    p.add_argument("--density", type=int, help="grid density per axis")
    p.add_argument("--seed", type=int, help="sampling seed")
    p.add_argument("--tol", type=float, help="residual tolerance")
    p.add_argument("--max-iter", type=int, help="Newton iteration cap")
    p.add_argument("--output", help="write the --json result to this file ('-' for stdout)")
    p.add_argument("--plot", help="write a plain segment list to this file ('-' for stdout)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="regression table of known values")
    p.add_argument("--fast", action="store_true", help="skip the solver rows")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
