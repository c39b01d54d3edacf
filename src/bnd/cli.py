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

Variety input files (for system/solve) use the system text format: a
`vars:` line naming the coordinates, then one defining polynomial per
line; `#` starts a comment.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .engine import (
    ambient_stability,
    bnd_variety,
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
from .solver import (
    SolverConfig,
    find_bottlenecks,
    narrowest_bottleneck,
    plot_data,
    result_json,
    result_table,
    write_json,
)
from .systems import (
    build_lagrange_system,
    build_minor_system,
    format_system,
    parse_system_text,
    render_poly,
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
    if output and output != "-":
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


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
        payload = {
            "variables": list(out.variables),
            "polynomials": [render_poly(p, out.variables) for p in out.polynomials],
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

    if args.output:
        write_json(result, args.output)
    if args.plot:
        with open(args.plot, "w", encoding="utf-8") as handle:
            handle.write(plot_data(result))

    if args.json:
        payload = result_json(result)
        payload["complex_pair_bound"] = bound
        try:
            _, sep = narrowest_bottleneck(result.pairs)
            payload["narrowest_separation"] = sep
            payload["reach_upper_bound"] = sep / 2
        except ValueError:
            payload["narrowest_separation"] = None
        print(json.dumps(payload, indent=2))
        return 0

    print(result_table(result))
    isolated = sum(p.isolated for p in result.pairs)
    if bound is not None:
        print(
            f"isolated pairs found: {isolated}; "
            f"complex bound for generic varieties of this shape: {bound} pairs"
        )
    try:
        _, sep = narrowest_bottleneck(result.pairs)
        print(f"narrowest isolated separation {sep:.12g} (reach <= {sep / 2:.12g})")
    except ValueError:
        print("no isolated pairs found")
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


def _row_formula(m: int, n: int, expected: str):
    def run():
        got = compute_B(m, n)
        want = parse_class(formula_context(m), expected)
        return got.poly == want, f"got {got.text}"

    return run


def _row_stability(m: int, lo: int, hi: int):
    def run():
        report = ambient_stability(m, range(lo, hi + 1))
        if report.identical:
            return True, ""
        return False, f"constant only from n={report.stable_from} on"

    return run


def _row_plane_curves():
    def run():
        for d in range(2, 13):
            proj = bnd_variety(VarietySpec(2, (d,)))
            aff = bnd_variety(VarietySpec(2, (d,), affine=True))
            if proj != d**4 - 4 * d**2 + 3 * d:
                return False, f"projective d={d}: got {proj}"
            if aff != d**4 - 5 * d**2 + 4 * d:
                return False, f"affine d={d}: got {aff}"
        return True, ""

    return run


def _row_space_curves():
    def run():
        for d1 in range(2, 6):
            for d2 in range(2, 6):
                d, s = d1 * d2, d1 + d2
                want = d**2 * (s - 1) ** 2 - 5 * d * s + 9 * d
                got = bnd_variety(VarietySpec(3, (d1, d2), affine=True))
                if got != want:
                    return False, f"({d1},{d2}): got {got}, want {want}"
        return True, ""

    return run


def _row_surfaces():
    def run():
        for d in range(2, 9):
            want = d**6 - 2 * d**5 + 3 * d**4 - 15 * d**3 + 26 * d**2 - 13 * d
            got = bnd_variety(VarietySpec(3, (d,), affine=True))
            if got != want:
                return False, f"d={d}: got {got}, want {want}"
        return True, ""

    return run


def _row_epsilon():
    def run():
        specs = [VarietySpec(2, (d,)) for d in range(2, 13)]
        specs += [VarietySpec(3, (d1, d2)) for d1 in range(2, 6) for d2 in range(2, 6)]
        specs += [VarietySpec(3, (d,)) for d in range(2, 9)]
        for spec in specs:
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

    return run


def _row_schubert():
    def run():
        target = declare_ring(
            [SymbolSpec("xi", 1), SymbolSpec("h", 1)], truncation=20
        )
        for n in range(3, 13):
            for a in range(0, min(10, n - 1) + 1):
                for b in range(0, a + 1):
                    via_rep = pullback_f(
                        schubert_representative(SchubertIndex(a, b), n), target
                    )
                    direct = schubert_pullback_direct(SchubertIndex(a, b), target)
                    if via_rep != direct:
                        return False, f"(a,b,n)=({a},{b},{n})"
        return True, ""

    return run


def _match_pairs(result, expected, tol):
    """Each expected canonical pair appears among the results within tol."""
    keys = [np.array((*p.x, *p.y)) for p in result.pairs]
    for want in expected:
        want = np.array(want)
        if not any(np.linalg.norm(want - k) < tol for k in keys):
            return False, f"missing pair {tuple(want)}"
    return True, ""


def _row_ellipse():
    def run():
        result = find_bottlenecks([parse_system_text("vars: x1 x2\nx1^2 + x2^2/2 - 1").polynomials[0]])
        iso = [p for p in result.pairs if p.isolated]
        if len(result.pairs) != 2 or len(iso) != 2:
            return False, f"found {len(result.pairs)} pairs ({len(iso)} isolated)"
        r = math.sqrt(2)
        return _match_pairs(result, [(-1, 0, 1, 0), (0, -r, 0, r)], 1e-8)

    return run


def _row_ellipsoid():
    def run():
        src = parse_system_text("vars: x1 x2 x3\n36*x1^2 + 9*x2^2 + 4*x3^2 - 36")
        result = find_bottlenecks(list(src.polynomials))
        iso = [p for p in result.pairs if p.isolated]
        if len(iso) != 3:
            return False, f"found {len(iso)} isolated pairs"
        expected = [
            (-1, 0, 0, 1, 0, 0),
            (0, -2, 0, 0, 2, 0),
            (0, 0, -3, 0, 0, 3),
        ]
        return _match_pairs(result, expected, 1e-8)

    return run


def _row_spheroid():
    def run():
        src = parse_system_text("vars: x1 x2 x3\n4*x1^2 + x2^2 + x3^2 - 4")
        result = find_bottlenecks(list(src.polynomials))
        iso = [p for p in result.pairs if p.isolated]
        non = [p for p in result.pairs if not p.isolated]
        if len(iso) != 1 or not non:
            return False, f"{len(iso)} isolated, {len(non)} non-isolated"
        return _match_pairs(result, [(-1, 0, 0, 1, 0, 0)], 1e-8)

    return run


def _row_quartic():
    def run():
        src = parse_system_text(
            "vars: x1 x2\nx1^4 + x2^4 + 1 - 4*x2 - x1^2*x2^2 - 4*x1^2 - x1 - 2*x2^2"
        )
        result = find_bottlenecks(list(src.polynomials))
        ok = len(result.pairs) == 22
        return ok, f"found {len(result.pairs)} pairs"

    return run


def _row_space_sextic():
    def run():
        src = parse_system_text(
            "vars: x1 x2 x3\nx1^3 - 3*x1*x2^2 - x3\nx1^2 + x2^2 + 3*x3^2 - 1"
        )
        result = find_bottlenecks(list(src.polynomials))
        ok = len(result.pairs) == 24
        return ok, f"found {len(result.pairs)} pairs"

    return run


def _row_trott_pairs():
    def run():
        src = parse_system_text(f"vars: x1 x2\n{TROTT}")
        result = find_bottlenecks(list(src.polynomials))
        if len(result.pairs) > 96:
            return False, f"{len(result.pairs)} pairs exceeds the complex bound 96"
        hits = [-1.0, -0.75, 0.75, 1.0]
        expected = []
        for i, u in enumerate(hits):
            for v in hits[i + 1 :]:
                expected.append((u, 0, v, 0))
                expected.append((0, u, 0, v))
        ok, detail = _match_pairs(result, expected, 1e-6)
        if not ok:
            return False, f"axis pairs incomplete: {detail}"
        return True, f"{len(result.pairs)} pairs, all 12 axis pairs present"

    return run


def _row_trott_system():
    def run():
        src = parse_system_text(f"vars: x1 x2\n{TROTT}")
        system = build_minor_system(list(src.polynomials), 1)
        expected = parse_system_text(
            "vars: x1 x2 y1 y2\n" + "\n".join(TROTT_SYSTEM)
        ).polynomials
        if len(system.polynomials) != len(expected):
            return False, f"system has {len(system.polynomials)} equations"
        # equality up to sign and listing order
        want = {p for q in expected for p in (q, q * -1)}
        if not all(p in want for p in system.polynomials):
            return False, "minor system does not match the expanded equations"
        text = format_system(system)
        reparsed = parse_system_text(text)
        if format_system(reparsed) != text or reparsed.polynomials != system.polynomials:
            return False, "emit/parse roundtrip altered the system"
        return True, ""

    return run


def _check_rows():
    b37 = (
        "4*h^3 + 11*h^2*p1 + 4*h*p1^2 + 24*p1^3 + 2*h*p2 - 12*p1*p2 + 17*p3"
    )
    return [
        # (name, needs_solver, thunk)
        ("formula dim 1 ambient 3", False, _row_formula(1, 3, "2*h + 5*p1")),
        ("formula dim 2 ambient 5", False, _row_formula(2, 5, "3*h^2 + 6*h*p1 + 12*p1^2 + p2")),
        ("formula dim 3 ambient 7", False, _row_formula(3, 7, b37)),
        ("ambient stability dim 1, n 3..12", False, _row_stability(1, 3, 12)),
        ("ambient stability dim 2, n 4..12", False, _row_stability(2, 4, 12)),
        ("ambient stability dim 3, n 5..10", False, _row_stability(3, 5, 10)),
        ("plane curves degree 2..12, closed forms", False, _row_plane_curves()),
        ("space curves bidegree 2..5, closed form", False, _row_space_curves()),
        ("surfaces degree 2..8, closed form", False, _row_surfaces()),
        ("epsilon degrees: reduction oracle vs formula", False, _row_epsilon()),
        ("schubert pullback: representative vs direct", False, _row_schubert()),
        ("solver: ellipse axis pairs", True, _row_ellipse()),
        ("solver: ellipsoid axis pairs", True, _row_ellipsoid()),
        ("solver: spheroid isolated pair + continuum", True, _row_spheroid()),
        ("solver: quartic curve pair count", True, _row_quartic()),
        ("solver: space sextic pair count", True, _row_space_sextic()),
        ("solver: trott curve axis pairs and bound", True, _row_trott_pairs()),
        ("trott minor system expansion + roundtrip", False, _row_trott_system()),
    ]


def cmd_check(args) -> int:
    rows = []
    failures = 0
    for name, needs_solver, thunk in _check_rows():
        if args.fast and needs_solver:
            rows.append({"name": name, "status": "skipped", "detail": "--fast"})
            continue
        try:
            ok, detail = thunk()
        except Exception as exc:  # a crash is a failing row, not a crash of check
            ok, detail = False, f"error: {exc!r}"
        rows.append({"name": name, "status": "pass" if ok else "fail", "detail": detail})
        failures += 0 if ok else 1

    if args.json:
        print(json.dumps({"rows": rows, "ok": failures == 0}, indent=2))
        return 0 if failures == 0 else 1

    for row in rows:
        tag = {"pass": "PASS", "fail": "FAIL", "skipped": "skip"}[row["status"]]
        line = f"{tag}  {row['name']}"
        if row["detail"] and row["status"] != "pass":
            line += f"  [{row['detail']}]"
        print(line)
    counts = {
        status: sum(1 for r in rows if r["status"] == status)
        for status in ("pass", "fail", "skipped")
    }
    print(
        f"{counts['pass']} passed, {counts['fail']} failed, {counts['skipped']} skipped"
    )
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


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
    p.add_argument("--output", help="write the JSON result to this file")
    p.add_argument("--plot", help="write a plain segment list for external plotting")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="regression table of known values")
    p.add_argument("--fast", action="store_true", help="skip the solver rows")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
