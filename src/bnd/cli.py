"""Command-line front end.

Subcommands
    formula  universal bottleneck-class polynomial for a (dimension, ambient) pair
    bnd      bottleneck degree of a smooth complete intersection
    edd      Euclidean distance degree (the first epsilon degree)
    system   emit the minor or multiplier critical-pair system for a variety
    solve    numeric search for real bottleneck pairs
    check    regression table of known values; nonzero exit on any failure

Exit codes: 0 success, 1 computational failure, 2 usage error.  Every
subcommand accepts --json for machine-readable output.  Each command's
options are declared once, in COMMANDS.  main reads a canonical argv
straight into the namespace argparse would return: a known command, then
its options spelled out in full, each at most once and every required one
present, a flag alone and any other option as `--name value`, the value
not starting with '-' and accepted by the option's type and choices.
Every other argv (no command, help, abbreviations, `--name=value`, `--`,
repeats, values starting with '-', unknown or missing options, refused
values) takes one full argparse parse, with argparse's help, usage and
error text and exit codes.  That parser is built only when such an argv
first comes, and reused by every later one in the process.

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
import sys

from .engine import (
    MAX_EDD_AMBIENT,
    ambient_stability,
    bnd_variety,
    compute_B,
    ed_degree,
    ed_degree_floor_log10,
)
from .profiles import VarietySpec, ci_profile, profile_json
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


def _too_long(limit: int) -> ValueError:
    return ValueError(
        f"the answer has more than {limit} digits, Python's limit for writing an "
        f"integer as text (sys.get_int_max_str_digits() = {limit}); "
        "set PYTHONINTMAXSTRDIGITS=0 to lift it"
    )


def _answer_text(value: int) -> str:
    """str(value), or a ValueError naming the digit limit when the integer
    is too long for Python to write."""
    try:
        return str(value)
    except ValueError:
        raise _too_long(sys.get_int_max_str_digits()) from None


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
    text = _answer_text(value)
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
        print(text)
    return 0


def cmd_edd(args) -> int:
    spec = _spec_for(args)
    if spec.dim == 0:
        raise UsageError("Euclidean distance degree needs a positive-dimensional variety")
    if spec.ambient_dim > MAX_EDD_AMBIENT:
        raise ValueError(
            f"edd in ambient {spec.ambient_dim} is above the bound "
            f"MAX_EDD_AMBIENT = {MAX_EDD_AMBIENT}"
        )
    # refuse before the recurrence when the answer's lower bound is already
    # too long to print; the margin covers float rounding, and a bound
    # within it is caught by _answer_text after the recurrence
    limit = sys.get_int_max_str_digits()
    if limit and ed_degree_floor_log10(spec) >= limit + 1e-6:
        raise _too_long(limit)
    profile = ci_profile(spec)
    value = ed_degree(profile)
    text = _answer_text(value)
    if args.json:
        print(json.dumps({**profile_json(profile), "edd": value}))
    else:
        print(text)
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
    if args.plot == "-" and (args.json or args.output == "-"):
        other = "--json" if args.json else "--output -"
        raise UsageError(f"--plot - and {other} both write to stdout; give --plot a file")

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
        sep = narrowest_bottleneck(result.pairs).separation
    except ValueError:
        sep = None
    # --output - gives stdout what --json gives it: the JSON document alone
    json_stdout = args.json or args.output == "-"
    if args.output or args.json:
        payload = result_json(result)
        payload["complex_pair_bound"] = bound
        payload["narrowest_separation"] = sep
        if sep is not None:
            payload["reach_upper_bound"] = sep / 2
        text = json.dumps(payload, indent=2)
        if args.output and args.output != "-":
            _emit(text, args.output)
    if args.plot:
        _emit(plot_data(result), args.plot)

    if json_stdout:
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


def cmd_check(args) -> int:
    # imported here, so that the other commands never load the table
    from .check import CHECKS, NUMPY_CHECKS

    rows = []
    for name, check, arguments in CHECKS:
        if args.fast and check in NUMPY_CHECKS:
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


# Each command's options, declared once: _build_parser hands them to
# argparse as they stand, and _read_argv reads the canonical argv from them.
# A command maps to (function, help, {option: add_argument keywords}).
COMMANDS = {
    "formula": (
        cmd_formula,
        "universal bottleneck-class polynomial",
        {
            "--dim": {"type": int, "required": True, "help": "variety dimension m"},
            "--ambient": {
                "type": int,
                "required": True,
                "help": "ambient projective dimension n",
            },
            "--stability": {
                "type": int,
                "metavar": "N_MAX",
                "help": "compare the formula across ambient dimensions up to N_MAX",
            },
            "--json": {"action": "store_true"},
        },
    ),
    "bnd": (
        cmd_bnd,
        "bottleneck degree of a complete intersection",
        {
            "--ambient": {"type": int, "required": True},
            "--degrees": {"required": True, "help": "comma-separated degrees, e.g. 2,3"},
            "--affine": {"action": "store_true", "help": "count for the affine part only"},
            "--json": {"action": "store_true"},
        },
    ),
    "edd": (
        cmd_edd,
        "Euclidean distance degree",
        {
            "--ambient": {"type": int, "required": True},
            "--degrees": {"required": True},
            "--json": {"action": "store_true"},
        },
    ),
    "system": (
        cmd_system,
        "emit a critical-pair system",
        {
            "--input": {"required": True, "help": "variety file ('-' for stdin)"},
            "--form": {"choices": ("minor", "lagrange"), "default": "minor"},
            "--output": {"help": "output file (default stdout)"},
            "--json": {"action": "store_true"},
        },
    ),
    "solve": (
        cmd_solve,
        "find real bottleneck pairs numerically",
        {
            "--input": {"required": True, "help": "variety file ('-' for stdin)"},
            "--box": {"help": "search box lo:hi[,lo:hi...] (single interval broadcasts)"},
            "--density": {"type": int, "help": "grid density per axis"},
            "--seed": {"type": int, "help": "sampling seed"},
            "--tol": {"type": float, "help": "residual tolerance"},
            "--max-iter": {"type": int, "help": "Newton iteration cap"},
            "--output": {"help": "write the --json result to this file ('-' for stdout)"},
            "--plot": {"help": "write a plain segment list to this file ('-' for stdout)"},
            "--json": {"action": "store_true"},
        },
    ),
    "check": (
        cmd_check,
        "regression table of known values",
        {
            "--fast": {"action": "store_true", "help": "skip the solver rows"},
            "--json": {"action": "store_true"},
        },
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnd",
        description="Bottleneck degrees of algebraic varieties: exact class "
        "computations and numeric real-pair search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def _read_argv(argv) -> argparse.Namespace | None:
    """The namespace that _build_parser().parse_args(argv) returns, read in
    one pass without argparse when argv is canonical (as the module
    docstring says), and None otherwise."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, options = COMMANDS[argv[0]]
    given = {}
    i = 1
    while i < len(argv):
        flag = argv[i]
        keywords = options.get(flag)
        if keywords is None or flag in given:
            return None
        if keywords.get("action") == "store_true":
            given[flag] = True
            i += 1
            continue
        if i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        convert = keywords.get("type")
        try:
            value = argv[i + 1] if convert is None else convert(argv[i + 1])
        except ValueError:
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[flag] = value
        i += 2
    args = argparse.Namespace(command=argv[0])
    for flag, keywords in options.items():
        if flag in given:
            value = given[flag]
        elif keywords.get("required"):
            return None
        else:
            is_flag = keywords.get("action") == "store_true"
            value = keywords.get("default", False if is_flag else None)
        setattr(args, flag[2:].replace("-", "_"), value)
    args.func = func
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
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
