"""Tests for the command-line interface."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bnd.cli import (
    CHECKS,
    _build_parser,
    _check_formula,
    _check_minor_system,
    _check_solver,
    main,
)
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


@pytest.mark.parametrize(
    "argv, expected",
    [
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
    ],
)
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
        ("edd", "--ambient", "30", "--degrees", "2"),
        ("formula", "--dim", "11", "--ambient", "23"),
        ("formula", "--dim", "1", "--ambient", "3", "--stability", "30"),
    ],
)
def test_work_past_the_bound_is_refused(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out
    assert "MAX_AMBIENT = 21" in err


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
    import io

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
    assert stored["pairs"] == payload["pairs"]
    segments = [
        line for line in plot_path.read_text().splitlines() if not line.startswith("#")
    ]
    assert len(segments) == 2 and all(len(s.split()) == 4 for s in segments)


def test_solve_json_reports_step_telemetry(capsys, ellipse_path):
    code, out, _ = run(capsys, "solve", "--input", ellipse_path, "--density", "8", "--json")
    assert code == 0
    diagnostics = json.loads(out)["diagnostics"]
    assert diagnostics["newton_iterations"] >= 1
    assert diagnostics["step_fallbacks"] >= 0
    assert diagnostics["no_progress"] >= 0 and diagnostics["iteration_cap"] >= 0
    assert diagnostics["threads_used"] == 1


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
