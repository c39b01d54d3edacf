"""Tests for the command-line interface."""

import io
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bnd import cli, solver
from bnd.check import CHECKS, _check_formula, _check_minor_system, _check_solver
from bnd.cli import _build_parser, main
from bnd.engine import ed_degree, ed_degree_floor_log10
from bnd.profiles import VarietySpec, ci_profile
from bnd.solver import BottleneckPair, SolveResult
from bnd.systems import parse_system_text

ELLIPSE_FILE = "vars: x1 x2\nx1^2 + x2^2/2 - 1\n"


@pytest.fixture
def ellipse_path(tmp_path):
    path = tmp_path / "ellipse.txt"
    path.write_text(ELLIPSE_FILE)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# formula
# ---------------------------------------------------------------------------


def test_formula_prints_polynomial(capsys):
    code, out, _ = run(capsys, "formula", "--dim", "1", "--ambient", "3")
    assert code == 0
    assert out.strip() == "2*h + 5*p1"
    code, out, _ = run(capsys, "formula", "--dim", "2", "--ambient", "5")
    assert code == 0
    assert out.strip() == "3*h^2 + 6*h*p1 + 12*p1^2 + p2"


def test_formula_json(capsys):
    code, out, _ = run(capsys, "formula", "--dim", "1", "--ambient", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"dim": 1, "ambient": 4, "formula": "2*h + 5*p1"}


def test_formula_usage_error(capsys):
    code, _, err = run(capsys, "formula", "--dim", "1", "--ambient", "1")
    assert code == 2
    assert "error" in err


def test_formula_stability_report(capsys):
    code, out, _ = run(
        capsys, "formula", "--dim", "1", "--ambient", "2", "--stability", "5"
    )
    assert code == 0
    assert "n=2: h + 4*p1" in out
    assert "n=3: 2*h + 5*p1" in out
    assert "NOT identical" in out
    assert "constant from n=3 on" in out

    code, out, _ = run(
        capsys, "formula", "--dim", "1", "--ambient", "3", "--stability", "6", "--json"
    )
    payload = json.loads(out)
    assert payload["identical"] is True
    assert payload["stable_from"] == 3
    assert payload["formulas"]["6"] == "2*h + 5*p1"


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# bnd / edd
# ---------------------------------------------------------------------------


VALUES = [
    (("bnd", "--ambient", "2", "--degrees", "4", "--affine"), "192"),
    (("bnd", "--ambient", "3", "--degrees", "2,3", "--affine"), "480"),
    (("bnd", "--ambient", "3", "--degrees", "2", "--affine"), "6"),
    (("bnd", "--ambient", "3", "--degrees", "2"), "12"),
    (("edd", "--ambient", "2", "--degrees", "3"), "9"),
    (("edd", "--ambient", "3", "--degrees", "2,3"), "24"),
    (("edd", "--ambient", "2", "--degrees", "1"), "1"),
    # deg X generic affine points, none at infinity: D(D-1) ordered pairs
    (("bnd", "--ambient", "1", "--degrees", "2", "--affine"), "2"),
    (("bnd", "--ambient", "2", "--degrees", "2,2", "--affine"), "12"),
    # two points in P^22: no ring work, so MAX_AMBIENT does not refuse it
    (("bnd", "--ambient", "22", "--degrees", ",".join(["2"] + ["1"] * 21)), "2"),
    # edd runs no ring, so MAX_AMBIENT does not bound it: a quadric in
    # P^n has d * sum (d-1)^i = 2n, up to MAX_EDD_AMBIENT
    (("edd", "--ambient", "30", "--degrees", "2"), "60"),
    (("edd", "--ambient", "300", "--degrees", "2"), "600"),
]


@pytest.mark.parametrize("argv, expected", VALUES)
def test_bnd_and_edd_values(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.strip() == expected


def test_bnd_json_declares_assumptions(capsys):
    code, out, _ = run(capsys, "bnd", "--ambient", "2", "--degrees", "4", "--json")
    payload = json.loads(out)
    assert payload["bnd"] == 204  # = 4^4 - 4*4^2 + 3*4 for the projective quartic
    assert payload["assumes_general_position"] is True
    assert payload["affine"] is False


@pytest.mark.parametrize("ambient, degrees, expected", [("1", "2", 2), ("2", "2,2", 12)])
def test_zero_dimensional_affine_bnd_json(capsys, ambient, degrees, expected):
    code, out, _ = run(
        capsys, "bnd", "--ambient", ambient, "--degrees", degrees, "--affine", "--json"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["bnd"] == expected
    assert payload["affine"] is True
    assert payload["zero_dimensional"] is True


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_cached_parser_keeps_calls_independent(capsys):
    quadric = ("bnd", "--ambient", "3", "--degrees", "2")
    assert run(capsys, *quadric, "--affine")[:2] == (0, "6\n")
    assert run(capsys, *quadric)[:2] == (0, "12\n")
    code, out, _ = run(capsys, *quadric, "--json")
    assert code == 0 and json.loads(out)["bnd"] == 12
    assert run(capsys, *quadric)[:2] == (0, "12\n")
    with pytest.raises(SystemExit) as info:
        main(["bnd", "--ambient", "3"])
    assert info.value.code == 2
    capsys.readouterr()
    assert run(capsys, *quadric, "--affine")[:2] == (0, "6\n")


# argv cases whose route through main depends on how it dispatches: help,
# a missing or unknown command, `--`, leftover arguments, values starting
# with '-' or refused by an option's choices, and errors or help raised
# inside a subparser
DISPATCH_CASES = [
    [],
    ["-h"],
    ["--help"],
    ["-h", "bnd"],
    ["nope"],
    ["nope", "--ambient", "3"],
    ["bnd", "-h"],
    ["edd", "--help"],
    ["bnd", "--ambient", "3", "--degrees", "2"],
    ["bnd", "--ambient", "3"],
    ["bnd", "--ambient", "x", "--degrees", "2"],
    ["bnd", "--ambient", "3", "--degrees", "2", "--bogus"],
    ["bnd", "--ambient", "3", "--degrees", "2", "extra", "-x"],
    ["bnd", "--amb", "3", "--degrees", "2"],
    ["bnd", "--ambient=3", "--degrees", "2", "--affine", "--json"],
    ["--", "bnd", "--ambient", "3", "--degrees", "2"],
    ["bnd", "--ambient", "3", "--degrees", "2", "--"],
    ["bnd", "--", "--ambient", "3", "--degrees", "2"],
    ["system", "--input", "x", "--form", "cubic"],
    *([command, "-h"] for command in ("formula", "edd", "system", "solve", "check")),
    ["system", "--input", "x", "--form", "bogus"],
    ["system", "--input", "-"],
    ["solve", "--input", "-", "--seed", "-1"],
]


def outcome(capsys, monkeypatch, argv):
    """(exit code, stdout, stderr) of main(argv), with the ellipse on stdin."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(ELLIPSE_FILE))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def without_reader(monkeypatch):
    """Send every argv through one full argparse parse."""
    monkeypatch.setattr(cli, "_read_argv", lambda argv: None)


@pytest.mark.parametrize("argv", DISPATCH_CASES, ids=lambda argv: " ".join(argv) or "-")
def test_dispatch_prints_what_a_full_parse_prints(capsys, monkeypatch, argv):
    direct = outcome(capsys, monkeypatch, argv)
    without_reader(monkeypatch)
    assert direct == outcome(capsys, monkeypatch, argv)


def test_module_reports_unrecognized_arguments_as_the_top_level_parser():
    # main(argv=None) reads sys.argv
    proc = subprocess.run(
        [sys.executable, "-m", "bnd.cli", "bnd", "--ambient", "3", "--degrees", "2", "--bogus"],
        capture_output=True,
        text=True,
        env={**os.environ, "COLUMNS": "80"},
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "usage: bnd [-h] {formula,bnd,edd,system,solve,check} ...\n"
        "bnd: error: unrecognized arguments: --bogus\n"
    )


def test_canonical_argv_builds_no_parser(capsys, monkeypatch, ellipse_path):
    def refuse():
        raise RuntimeError("parser built")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    monkeypatch.setattr(solver, "find_bottlenecks", lambda fs, config=None: _fake_result(2))
    canonical = [
        ["formula", "--dim", "1", "--ambient", "3"],
        ["bnd", "--ambient", "3", "--degrees", "2"],
        ["edd", "--ambient", "3", "--degrees", "2", "--json"],
        ["system", "--input", ellipse_path, "--form", "lagrange"],
        ["solve", "--input", ellipse_path, "--density", "8", "--json"],
        ["check", "--fast"],
    ]
    assert [run(capsys, *argv)[0] for argv in canonical] == [0, 0, 0, 0, 0, 1]
    for argv in ([], ["-h"], ["bnd", "--amb", "3", "--degrees", "2"]):
        with pytest.raises(RuntimeError, match="parser built"):
            main(argv)


# Values that generated argv give each option: the canonical ones, then
# those that the option's type or choices refuse, then some that start
# with '-'.  Canonical values keep every command cheap: formula and bnd
# stay at small ambients, and solve and check run with a stubbed solver.
ARGV_VALUES = {
    "--dim": ["1", "2"],
    "--ambient": ["2", "3", "4"],
    "--stability": ["4", "5"],
    "--degrees": ["2", "2,3", "3", "0", "x", ""],
    "--form": ["minor", "lagrange"],
    "--box": ["0:1", "0:2,0:3", "1:2:3"],
    "--density": ["3", "4"],
    "--seed": ["0", "7"],
    "--tol": ["1e-8", "nan", "inf"],
    "--max-iter": ["5", "50"],
}
REFUSED_VALUES = {int: ["x", "1.5", ""], float: ["x", ""], None: ["cubic", "Minor"]}
DASH_VALUES = ["-", "-1", "-0.5", "-x", "--"]
# the deviations that insert one word, anywhere in the argv
INSERTED = {
    "help": ["-h", "--help"],
    "double dash": ["--"],
    "unknown option": ["--bogus", "--json=1", "-x"],
    "extra argument": ["extra", "3"],
}
DEVIATIONS = (
    "no command", "unknown command", "abbreviation", "equals sign", "repeat", "dash value",
    "missing option", "refused value", *INSERTED,
)


def generated_argv(rng, command, paths):
    """One argv for command, canonical or canonical but for one deviation,
    and whether it is canonical."""
    options = cli.COMMANDS[command][2]
    values = {**ARGV_VALUES, "--input": paths[:2], "--output": paths[2:3], "--plot": paths[3:]}
    chosen = [flag for flag, kw in options.items() if kw.get("required") or rng.random() < 0.5]
    rng.shuffle(chosen)
    pairs = [
        [flag] if options[flag].get("action") else [flag, rng.choice(values[flag])]
        for flag in chosen
    ]
    valued = [pair for pair in pairs if len(pair) == 2]
    # the deviations that rewrite one option, and the options each can rewrite
    targets = {
        "repeat": pairs,
        "dash value": valued,
        "refused value": [p for p in valued if {"type", "choices"} & set(options[p[0]])],
        "equals sign": valued,
        "abbreviation": pairs,
        "missing option": [p for p in pairs if options[p[0]].get("required")],
    }
    deviation = rng.choice(DEVIATIONS) if rng.random() < 0.6 else None
    if deviation in targets:
        if not targets[deviation]:
            deviation = None  # nothing to rewrite: the argv stays canonical
        else:
            pair = rng.choice(targets[deviation])
            if deviation == "repeat":
                pairs.insert(rng.randrange(len(pairs) + 1), list(pair))
            elif deviation == "dash value":
                pair[1] = rng.choice(DASH_VALUES)
            elif deviation == "refused value":
                pair[1] = rng.choice(REFUSED_VALUES[options[pair[0]].get("type")])
            elif deviation == "equals sign":
                pair[:] = [f"{pair[0]}={pair[1]}"]
            elif deviation == "abbreviation":
                pair[0] = pair[0][: rng.randrange(3, len(pair[0]))]
            else:
                pairs.remove(pair)
    argv = [command] + [word for pair in pairs for word in pair]
    if deviation == "no command":
        argv = argv[1:]
    elif deviation == "unknown command":
        argv[0] = rng.choice(["nope", command[:-1], command.upper()])
    elif deviation in INSERTED:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(INSERTED[deviation]))
    return argv, deviation is None


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_reader_agrees_with_argparse_on_generated_argv(
    capsys, monkeypatch, tmp_path, ellipse_path, command
):
    paths = [ellipse_path] + [str(tmp_path / name) for name in ("missing.txt", "out", "plot")]
    monkeypatch.setattr(solver, "find_bottlenecks", lambda fs, config=None: _fake_result(2))
    solver_row = next(row for row in CHECKS if row[0] == "solver: ellipse axis pairs")
    monkeypatch.setattr("bnd.check.CHECKS", [CHECKS[0], solver_row])
    rng = random.Random(f"argv {command}")
    cases = [generated_argv(rng, command, paths) for _ in range(250)]
    accepted = 0
    for argv, canonical in cases:
        args = cli._read_argv(argv)
        assert (args is not None) == canonical, argv
        if args is not None:
            accepted += 1
            # repr, so that a NaN value compares equal to itself
            parsed = _build_parser().parse_args(argv)
            assert repr(sorted(vars(args).items())) == repr(sorted(vars(parsed).items()))
    assert 50 <= accepted <= 200
    direct = [outcome(capsys, monkeypatch, argv) for argv, _ in cases]
    without_reader(monkeypatch)
    for (argv, _), seen in zip(cases, direct):
        assert outcome(capsys, monkeypatch, argv) == seen, argv


def test_degrees_validation(capsys):
    code, _, err = run(capsys, "bnd", "--ambient", "2", "--degrees", "nope")
    assert code == 2
    code, _, err = run(capsys, "bnd", "--ambient", "2", "--degrees", "0")
    assert code == 2
    code, _, err = run(capsys, "bnd", "--ambient", "2", "--degrees", "2,2,2")
    assert code == 2  # more equations than the ambient dimension allows


@pytest.mark.parametrize(
    "argv",
    [
        ("bnd", "--ambient", "30", "--degrees", "2"),
        ("bnd", "--ambient", "30", "--degrees", "2", "--affine"),
        ("edd", "--ambient", "301", "--degrees", "2"),
        ("formula", "--dim", "11", "--ambient", "23"),
        ("formula", "--dim", "1", "--ambient", "3", "--stability", "30"),
    ],
)
def test_work_past_the_bound_is_refused(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out
    assert ("MAX_EDD_AMBIENT = 300" if argv[0] == "edd" else "MAX_AMBIENT = 21") in err


@pytest.mark.parametrize("argv, expected", VALUES)
def test_ed_degree_floor_is_below_the_ed_degree(argv, expected):
    """ed_degree_floor_log10 is log10 of d_1...d_k * (d_max - 1)^m, and that
    integer is at most the projective ED degree of every shape above."""
    ambient, degrees = int(argv[2]), tuple(int(d) for d in argv[4].split(","))
    spec = VarietySpec(ambient, degrees)
    floor = math.prod(degrees) * (max(degrees) - 1) ** spec.dim
    assert floor <= ed_degree(ci_profile(spec))
    if floor:
        assert ed_degree_floor_log10(spec) == pytest.approx(math.log10(floor), abs=1e-12)
    else:
        assert ed_degree_floor_log10(spec) == -math.inf


HUGE = str(10**1000)


@pytest.mark.parametrize(
    "argv",
    [
        # refused from the floor, before a recurrence that takes seconds
        ("edd", "--ambient", "300", "--degrees", HUGE),
        ("edd", "--ambient", "300", "--degrees", HUGE, "--json"),
        # a floor of 4,300 digits under an answer of more: refused after it
        ("edd", "--ambient", "20", "--degrees", ",".join([str(10**215)] * 10)),
        ("bnd", "--ambient", "3", "--degrees", HUGE),
        ("bnd", "--ambient", "3", "--degrees", HUGE, "--json"),
    ],
)
def test_answers_too_long_to_print_are_refused(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out
    limit = sys.get_int_max_str_digits()
    assert f"more than {limit} digits" in err
    assert f"sys.get_int_max_str_digits() = {limit}" in err


def test_long_answers_within_the_limit_are_printed(capsys):
    # d * (1 + (d-1) + (d-1)^2) for a surface of degree d = 10^1000: 3,000 digits
    code, out, _ = run(capsys, "edd", "--ambient", "3", "--degrees", HUGE)
    d = 10**1000
    assert code == 0
    assert out.strip() == str(d * (1 + (d - 1) + (d - 1) ** 2))
    assert len(out.strip()) == 3000


# ---------------------------------------------------------------------------
# system
# ---------------------------------------------------------------------------


def test_system_minor_roundtrips(capsys, ellipse_path, tmp_path):
    out_path = tmp_path / "minor.txt"
    code, out, _ = run(
        capsys, "system", "--input", ellipse_path, "--output", str(out_path)
    )
    assert code == 0
    emitted = parse_system_text(out_path.read_text())
    assert emitted.variables == ("x1", "x2", "y1", "y2")
    assert len(emitted.polynomials) == 4
    assert emitted.metadata.formulation == "minors"


def test_system_lagrange_to_stdout(capsys, ellipse_path):
    code, out, _ = run(capsys, "system", "--input", ellipse_path, "--form", "lagrange")
    assert code == 0
    parsed = parse_system_text(out)
    assert parsed.variables == ("x1", "x2", "y1", "y2", "lam1", "mu1")
    assert len(parsed.polynomials) == 6


def test_system_json(capsys, ellipse_path):
    code, out, _ = run(capsys, "system", "--input", ellipse_path, "--json")
    payload = json.loads(out)
    assert payload["variables"] == ["x1", "x2", "y1", "y2"]
    assert len(payload["polynomials"]) == 4
    assert payload["metadata"]["formulation"] == "minors"
    assert parse_system_text(payload["text"]).polynomials
    # the list is the body of the text: every line after the declarations
    body = [line for line in payload["text"].splitlines() if not line.startswith(("vars:", "#"))]
    assert payload["polynomials"] == body


def test_system_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(ELLIPSE_FILE))
    code, out, _ = run(capsys, "system", "--input", "-")
    assert code == 0
    assert "vars: x1 x2 y1 y2" in out


def test_system_missing_file_is_computational_error(capsys):
    code, _, err = run(capsys, "system", "--input", "/nonexistent/file.txt")
    assert code == 1
    assert "error" in err


def test_system_malformed_input(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("vars: x1 x2\nx1^2 +\n")
    code, _, err = run(capsys, "system", "--input", str(bad))
    assert code == 1


@pytest.mark.parametrize("form", ["minor", "lagrange"])
def test_system_refuses_more_equations_than_variables(capsys, tmp_path, form):
    over = tmp_path / "over.txt"
    over.write_text("vars: x1 x2\nx1 - 1\nx2 - 1\nx1 + x2 - 2\n")
    code, out, err = run(capsys, "system", "--input", str(over), "--form", form)
    assert code == 1
    assert out == ""
    assert "need m >= 0, got m=-1: 3 equations in 2 variables" in err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_ellipse_table(capsys, ellipse_path):
    code, out, _ = run(capsys, "solve", "--input", ellipse_path, "--density", "8")
    assert code == 0
    assert "2 pair(s)" in out
    assert "complex bound" in out and " 2 pairs" in out
    assert "narrowest isolated separation 2" in out
    assert "reach <= 1" in out


def test_solve_json_and_files(capsys, ellipse_path, tmp_path):
    json_path = tmp_path / "result.json"
    plot_path = tmp_path / "segments.txt"
    code, out, _ = run(
        capsys,
        "solve",
        "--input",
        ellipse_path,
        "--density",
        "8",
        "--json",
        "--output",
        str(json_path),
        "--plot",
        str(plot_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["pairs"]) == 2
    assert payload["complex_pair_bound"] == 2
    assert payload["narrowest_separation"] == pytest.approx(2.0, abs=1e-8)
    assert payload["reach_upper_bound"] == pytest.approx(1.0, abs=1e-8)
    assert payload["possibly_incomplete"] is True

    stored = json.loads(json_path.read_text())
    assert stored == payload
    segments = [
        line for line in plot_path.read_text().splitlines() if not line.startswith("#")
    ]
    assert len(segments) == 2 and all(len(s.split()) == 4 for s in segments)


def test_solve_output_file_equals_json_stdout(capsys, ellipse_path, tmp_path, monkeypatch):
    # --output alone writes the payload that --json prints, bound and
    # separation included, and "-" means stdout, not a file of that name
    json_path = tmp_path / "result.json"
    argv = ("solve", "--input", ellipse_path, "--density", "8")
    code, table, _ = run(capsys, *argv, "--output", str(json_path))
    assert code == 0
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert json_path.read_text() == out
    assert {"complex_pair_bound", "narrowest_separation", "reach_upper_bound"} <= set(
        json.loads(out)
    )
    assert table.startswith(f"{'separation':>12}")

    monkeypatch.chdir(tmp_path)
    code, stdout, _ = run(capsys, *argv, "--output", "-")
    assert code == 0
    assert not (tmp_path / "-").exists()
    assert stdout == out
    code, stdout, _ = run(capsys, *argv, "--output", "-", "--json")
    assert code == 0
    assert stdout == out


def test_solve_plot_dash_prints_the_segment_list(capsys, ellipse_path, tmp_path, monkeypatch):
    # --plot FILE writes plot_data's text as it is; "-" prints that text
    # to stdout, ahead of the table, and creates no file named "-"
    argv = ("solve", "--input", ellipse_path, "--density", "8")
    with open(ellipse_path, encoding="utf-8") as handle:
        fs = list(parse_system_text(handle.read()).polynomials)
    segments = solver.plot_data(solver.find_bottlenecks(fs, solver.SolverConfig(density=8)))
    plot_path = tmp_path / "segments.txt"
    code, table, _ = run(capsys, *argv, "--plot", str(plot_path))
    assert code == 0
    assert plot_path.read_text() == segments

    monkeypatch.chdir(tmp_path)
    code, stdout, _ = run(capsys, *argv, "--plot", "-")
    assert code == 0
    assert not (tmp_path / "-").exists()
    assert stdout == segments + table


@pytest.mark.parametrize(
    "option, named",
    [
        (["--json"], "--json"),
        (["--output", "-"], "--output -"),
        (["--json", "--output", "-"], "--json"),
    ],
)
def test_solve_refuses_plot_dash_beside_json_on_stdout(
    capsys, monkeypatch, ellipse_path, option, named
):
    # the segment list ahead of the JSON document would leave stdout
    # unreadable as JSON; the refusal comes before any solving
    def refuse(*args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr(solver, "find_bottlenecks", refuse)
    code, out, err = run(capsys, "solve", "--input", ellipse_path, *option, "--plot", "-")
    assert (code, out) == (2, "")
    assert err == f"error: --plot - and {named} both write to stdout; give --plot a file\n"


def test_solve_json_reports_step_telemetry(capsys, ellipse_path):
    code, out, _ = run(capsys, "solve", "--input", ellipse_path, "--density", "8", "--json")
    assert code == 0
    diagnostics = json.loads(out)["diagnostics"]
    assert diagnostics["newton_iterations"] >= 1
    assert diagnostics["step_fallbacks"] >= 0
    assert diagnostics["no_progress"] >= 0 and diagnostics["iteration_cap"] >= 0


def test_readme_names_every_solve_diagnostic(capsys, ellipse_path):
    code, out, _ = run(capsys, "solve", "--input", ellipse_path, "--density", "8", "--json")
    assert code == 0
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    missing = [key for key in json.loads(out)["diagnostics"] if f"`{key}`" not in readme]
    assert missing == []


@pytest.mark.parametrize(
    "body,unconverged",
    [
        ("100000*x1^2 + 50000*x2^2 - 100000", True),  # the ellipse above, times 10^5
        ("(x1^2+x2^2-1)^2", True),  # non-reduced
        ("x1^2 + x2^2 + 1", False),  # empty real locus: no start pairs at all
    ],
)
def test_solve_tells_failed_starts_from_empty_locus(capsys, tmp_path, body, unconverged):
    path = tmp_path / "curve.txt"
    path.write_text(f"vars: x1 x2\n{body}\n")
    code, out, _ = run(capsys, "solve", "--input", str(path), "--density", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("0 pair(s)")
    note = [l for l in lines if l.startswith("no start of ")]
    assert len(note) == int(unconverged)
    if unconverged:
        assert note[0] == lines[2] and "residual_tol" in note[0] and "non-reduced" in note[0]
    assert lines[-1] == "no isolated pairs found"
    code, out, _ = run(capsys, "solve", "--input", str(path), "--density", "8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pairs"] == [] and payload["narrowest_separation"] is None
    assert (payload["diagnostics"]["start_pairs"] > 0) == unconverged
    assert payload["diagnostics"]["converged"] == 0


def test_solve_bad_box_is_usage_error(capsys, ellipse_path):
    code, _, err = run(capsys, "solve", "--input", ellipse_path, "--box", "1:2:3")
    assert code == 2
    code, _, err = run(
        capsys, "solve", "--input", ellipse_path, "--box", "0:1,0:1,0:1"
    )
    assert code == 2


@pytest.mark.parametrize(
    "option,field",
    [
        (("--tol", "inf"), "residual_tol"),
        (("--tol", "nan"), "residual_tol"),
        (("--tol", "-1"), "residual_tol"),
        (("--box=-inf:inf",), "box"),
        (("--box=0:nan",), "box"),
        (("--seed", "-1"), "seed"),
    ],
)
def test_solve_non_finite_tolerance_or_box_is_usage_error(capsys, ellipse_path, option, field):
    code, out, err = run(capsys, "solve", "--input", ellipse_path, "--density", "8", *option)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and field in err


def test_solve_grid_above_the_bound_fails(capsys, ellipse_path):
    code, out, err = run(capsys, "solve", "--input", ellipse_path, "--density", "1000000")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "MAX_GRID_POINTS = 1000000" in err


def _fake_result(isolated):
    """A solve result with the ellipse's short axis pair repeated."""
    pair = BottleneckPair((-1.0, 0.0), (1.0, 0.0), 2.0, 0.0, (0.5,), (0.5,), True)
    return SolveResult((pair,) * isolated, True, {"start_pairs": 1, "converged": 1})


@pytest.mark.parametrize("isolated,warned", [(2, False), (3, True)])
def test_solve_warns_above_the_complex_bound(capsys, monkeypatch, ellipse_path, isolated, warned):
    monkeypatch.setattr(solver, "find_bottlenecks", lambda fs, config: _fake_result(isolated))
    code, out, _ = run(capsys, "solve", "--input", ellipse_path)
    assert code == 0
    lines = out.splitlines()
    bound_line = lines.index(
        f"isolated pairs found: {isolated}; "
        "complex bound for generic varieties of this shape: 2 pairs"
    )
    warning = [line for line in lines if line.startswith("warning:")]
    assert len(warning) == int(warned)
    if warned:
        assert lines[bound_line + 1] == warning[0]
        assert "exceeds the complex bound by 1" in warning[0]
        assert "duplicates or spurious" in warning[0]
    # the JSON output carries the bound and no warning
    code, out, _ = run(capsys, "solve", "--input", ellipse_path, "--json")
    payload = json.loads(out)
    assert payload["complex_pair_bound"] == 2 and len(payload["pairs"]) == isolated
    assert "warning" not in out


def test_solve_without_a_complex_bound(capsys, monkeypatch, ellipse_path):
    # a shape the exact engine refuses still gets its pairs, with no bound
    def refuse(spec):
        raise ValueError("no bound for this shape")

    monkeypatch.setattr(cli, "bnd_variety", refuse)
    argv = ["solve", "--input", ellipse_path, "--density", "8"]
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["complex_pair_bound"] is None and len(payload["pairs"]) == 2
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert "complex bound" not in out and "isolated pairs found" not in out
    assert "narrowest isolated separation 2 " in out


def test_solve_rejects_unsupported_codimension(capsys, tmp_path):
    path = tmp_path / "three.txt"
    path.write_text("vars: x1 x2 x3 x4\nx1\nx2\nx3\n")
    code, _, err = run(capsys, "solve", "--input", str(path))
    assert code == 1


@pytest.mark.parametrize("body", ["0", "3"])
def test_solve_rejects_constant_polynomial(capsys, tmp_path, body):
    path = tmp_path / "constant.txt"
    path.write_text(f"vars: x1 x2\n{body}\n")
    code, out, err = run(capsys, "solve", "--input", str(path))
    assert code == 1
    assert "zero or constant" in err and out == ""


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_fast_reports_known_failures(capsys):
    code, out, _ = run(capsys, "check", "--fast")
    # two ambient-stability rows fail by design: the low-ambient formulas
    # genuinely differ, and the table reports that instead of hiding it
    assert code == 1
    lines = out.splitlines()
    fails = [l for l in lines if l.startswith("FAIL")]
    assert len(fails) == 2
    assert all("ambient stability" in l for l in fails)
    assert any("dim 2" in l for l in fails) and any("dim 3" in l for l in fails)
    skips = [l for l in lines if l.startswith("skip")]
    assert len(skips) == 6 and all("solver" in l for l in skips)
    passes = [l for l in lines if l.startswith("PASS")]
    assert len(passes) == 10


def test_check_fast_json(capsys):
    code, out, _ = run(capsys, "check", "--fast", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    by_status = {}
    for row in payload["rows"]:
        by_status.setdefault(row["status"], []).append(row["name"])
    assert len(by_status["fail"]) == 2
    assert all("stability" in name for name in by_status["fail"])


def _check_row(name):
    return next((check, arguments) for row, check, arguments in CHECKS if row == name)


def test_check_ellipse_row_passes():
    check, arguments = _check_row("solver: ellipse axis pairs")
    assert check is _check_solver
    assert check(*arguments) == (True, "2 pairs (2 isolated)")


def test_check_solver_reports_missing_pair():
    text, counts_ok, _, tol = _check_row("solver: ellipse axis pairs")[1]
    # (+-2, 0) is off the ellipse x1^2 + x2^2/2 = 1
    ok, detail = _check_solver(text, counts_ok, [(-2, 0, 2, 0)], tol)
    assert not ok
    assert detail == "missing pair (-2, 0, 2, 0)"


def test_check_table_matches_acceptance_suite():
    # the acceptance suite is the pinned contract; the table restates its
    # formulas and varieties, so neither may drift from the other
    suite = (Path(__file__).parent / "test_acceptance.py").read_text()
    texts = []
    for _, check, arguments in CHECKS:
        if check is _check_formula:
            texts.append(arguments[2])
        elif check in (_check_solver, _check_minor_system):
            texts += arguments[0].splitlines()[1:]
    assert len(texts) == 11
    assert [t for t in texts if t not in suite] == []


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "bnd.cli", "formula", "--dim", "1", "--ambient", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2*h + 5*p1"


def _loaded_after(commands):
    """The exit codes of commands run by bnd.cli.main in one fresh process,
    and whether numpy, bnd.solver, bnd.check and numpy.random were loaded
    after them."""
    script = (
        "import sys, bnd.cli\n"
        f"codes = [bnd.cli.main(argv) for argv in {commands!r}]\n"
        "names = ('numpy', 'bnd.solver', 'bnd.check', 'numpy.random')\n"
        "print(codes, [m in sys.modules for m in names])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_exact_commands_do_not_import_numpy(tmp_path, ellipse_path):
    # one process, so that no command can lean on another's imports
    commands = [
        ["formula", "--dim", "1", "--ambient", "3"],
        ["bnd", "--ambient", "2", "--degrees", "4"],
        ["edd", "--ambient", "3", "--degrees", "2,3"],
        ["system", "--input", ellipse_path, "--form", "minor", "--output", str(tmp_path / "m")],
        ["system", "--input", ellipse_path, "--form", "lagrange", "--json"],
    ]
    assert _loaded_after(commands) == "[0, 0, 0, 0, 0] [False, False, False, False]"
    # the exact rows of the table load the table alone (exit 1: the two
    # standing ambient-stability rows)
    assert _loaded_after([["check", "--fast"]]) == "[1] [False, False, True, False]"


def test_solve_does_not_import_numpy_random(ellipse_path):
    # the sampling jitter is numpy's PCG64 stream, computed in pure Python
    solve = ["solve", "--input", ellipse_path, "--density", "8"]
    assert _loaded_after([solve]) == "[0] [True, True, False, False]"
