"""Seeded inputs, operations and output checks for the four workloads.

Every operation is one `bnd` command line, run through `bnd.cli.main` with
stdout captured.  Nothing here imports the package: inputs are argument
lists and variety files, and each check compares the output with a closed
form or with the reference files in `reference/`, which were pinned from
the seed commit and are never rewritten by a run.

Workloads (the seed picks the draws and the order; the shapes are fixed,
so the work per pass does not depend on the seed).  BENCHMARK.json runs
degrees, systems and solve; formula runs by hand (see README.md):

degrees  `bnd bnd` (projective and affine) and `bnd edd` on complete
         intersections of ambient 2..6, codim 1..2, degrees 2..4.  Every
         pass needs the same compute_B(m, 2m+1) for m = 1..5.
formula  `bnd formula` for every (m, n) with m = 1..5, m < n <= 2m+3;
         the seed orders the ambients within each dimension.
systems  `bnd system --form minor|lagrange` on dense integer-coefficient
         hypersurfaces and codim-2 intersections in 2..5 variables of
         degree 2..5; each emitted file is read back with
         `bnd.systems.parse`.  The coefficients come from one of
         SYSTEM_POOL pinned draws.
solve    `bnd solve --json --seed 0` on the six solver anchors, whose
         isolated pair sets are pinned.  The solver's sampling seed stays at
         the reference seed: other sampling seeds change the work (861 to
         1035 start pairs on the quartic at grid density 10), which would
         read as run-to-run noise, so here the seed only orders the anchors.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random

WORKLOADS = ("degrees", "formula", "systems", "solve")

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# (ambient, codim) with 1 <= dim <= 5; each pass queries every shape in every
# kind DEGREE_DRAWS times
DEGREE_SHAPES = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2))
DEGREE_KINDS = ("bnd", "bnd-affine", "edd")
DEGREE_RANGE = (2, 3, 4)
DEGREE_DRAWS = 4

FORMULA_MAX_DIM = 5  # every (m, n) with m <= FORMULA_MAX_DIM and m < n <= 2m+3

# (variables, degrees); dense polynomials, every coefficient nonzero
SYSTEM_SHAPES = (
    (2, (2,)), (2, (3,)), (2, (4,)), (2, (5,)),
    (3, (2,)), (3, (3,)), (3, (4,)), (3, (5,)), (3, (2, 2)), (3, (2, 3)), (3, (3, 3)),
    (4, (2,)), (4, (3,)), (4, (4,)), (4, (2, 2)), (4, (2, 3)),
    (5, (2,)), (5, (3,)), (5, (2, 2)), (5, (2, 3)),
)
SYSTEM_FORMS = ("minor", "lagrange")
SYSTEM_POOL = 16

TROTT = "144*x1^4 + 350*x1^2*x2^2 + 144*x2^4 - 225*x1^2 - 225*x2^2 + 81"
# (name, variety file, grid density, degrees).  At the solver's default
# densities one pass over the six anchors takes about a minute (the quartic
# and the ellipsoid alone 45 s); these densities keep a pass near seven
# seconds and keep every pinned feature: the two axis pairs of the ellipse,
# 22 quartic pairs, all 12 Trott axis pairs, 24 sextic pairs, the three
# ellipsoid axis pairs, and the spheroid's isolated pair beside its continuum.
SOLVE_ANCHORS = (
    ("ellipse", "vars: x1 x2\nx1^2 + x2^2/2 - 1\n", 14, (2,)),
    ("quartic", "vars: x1 x2\nx1^4 + x2^4 + 1 - 4*x2 - x1^2*x2^2 - 4*x1^2 - x1 - 2*x2^2\n", 8, (4,)),
    ("trott", f"vars: x1 x2\n{TROTT}\n", 14, (4,)),
    ("sextic", "vars: x1 x2 x3\nx1^3 - 3*x1*x2^2 - x3\nx1^2 + x2^2 + 3*x3^2 - 1\n", 7, (2, 3)),
    ("ellipsoid", "vars: x1 x2 x3\n36*x1^2 + 9*x2^2 + 4*x3^2 - 36\n", 5, (2,)),
    ("spheroid", "vars: x1 x2 x3\n4*x1^2 + x2^2 + x3^2 - 4\n", 6, (2,)),
)
SOLVE_SEED = 0
CLUSTER_RADIUS = 1e-6  # SolverConfig.cluster_radius at the seed commit


class OpFailed(Exception):
    """The command exited nonzero or printed something unreadable."""


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def degree_op(kind: str, ambient: int, degrees: tuple[int, ...]) -> dict:
    text = ",".join(map(str, degrees))
    argv = ["edd" if kind == "edd" else "bnd", "--ambient", str(ambient), "--degrees", text]
    if kind == "bnd-affine":
        argv.append("--affine")
    return {
        "key": f"{kind} {ambient} {text}",
        "argv": argv + ["--json"],
        "closed_form": degree_closed_form(kind, ambient, degrees),
    }


def all_degree_ops() -> list[dict]:
    """Every query the degrees workload can draw; the reference covers all."""
    return [
        degree_op(kind, ambient, degrees)
        for ambient, codim in DEGREE_SHAPES
        for kind in DEGREE_KINDS
        for degrees in itertools.product(DEGREE_RANGE, repeat=codim)
    ]


def _random_poly(rng: random.Random, nvars: int, degree: int) -> str:
    terms = []
    for expts in itertools.product(range(degree + 1), repeat=nvars):
        if sum(expts) > degree:
            continue
        coeff = rng.choice([c for c in range(-9, 10) if c])
        factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(expts) if e]
        terms.append("*".join([str(coeff)] + factors))
    return " + ".join(terms).replace("+ -", "- ")


def system_ops(draw: int, workdir: str) -> list[dict]:
    """The systems operations of one pinned coefficient draw; writes the
    variety files into workdir."""
    rng = random.Random(1000 + draw)
    ops = []
    for i, (nvars, degrees) in enumerate(SYSTEM_SHAPES):
        names = " ".join(f"x{j + 1}" for j in range(nvars))
        lines = [f"vars: {names}"] + [_random_poly(rng, nvars, d) for d in degrees]
        source = os.path.join(workdir, f"variety-{i}.txt")
        with open(source, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        shape = f"n{nvars} d{','.join(map(str, degrees))}"
        for form in SYSTEM_FORMS:
            out = os.path.join(workdir, f"system-{i}-{form}.txt")
            ops.append(
                {
                    "key": f"{draw} {shape} {form}",
                    "argv": ["system", "--input", source, "--form", form, "--output", out],
                    "output": out,
                }
            )
    return ops


def solve_ops(solver_seed: int, workdir: str) -> list[dict]:
    ops = []
    for name, text, density, degrees in SOLVE_ANCHORS:
        source = os.path.join(workdir, f"{name}.txt")
        with open(source, "w", encoding="utf-8") as handle:
            handle.write(text)
        argv = ["solve", "--input", source, "--seed", str(solver_seed), "--density", str(density)]
        nvars = len(text.split("\n", 1)[0].split()) - 1
        ops.append(
            {
                "key": f"{name} seed{solver_seed}",
                "argv": argv + ["--json"],
                "bound": affine_pair_bound(degrees, nvars),
            }
        )
    return ops


def make_ops(workload: str, seed: int, workdir: str) -> list[dict]:
    """The operations of one pass, in order; the same seed gives the same list."""
    rng = random.Random(seed)
    if workload == "degrees":
        ops = [
            degree_op(kind, ambient, tuple(rng.choice(DEGREE_RANGE) for _ in range(codim)))
            for _ in range(DEGREE_DRAWS)
            for ambient, codim in DEGREE_SHAPES
            for kind in DEGREE_KINDS
        ]
    elif workload == "formula":
        # Dimensions in ascending order, ambients shuffled within each: the
        # Grassmannian Chern class is cached per n and costs up to 0.3 s, so
        # the first operation with a new n pays for it.  In this order that
        # is always the same operation, and the per-operation latencies do
        # not depend on the seed.
        ops = []
        for m in range(1, FORMULA_MAX_DIM + 1):
            block = [
                {
                    "key": f"{m},{n}",
                    "argv": ["formula", "--dim", str(m), "--ambient", str(n), "--json"],
                    "shape": (m, n),
                }
                for n in range(m + 1, 2 * m + 4)
            ]
            rng.shuffle(block)
            ops += block
        return ops
    elif workload == "systems":
        ops = system_ops(seed % SYSTEM_POOL, workdir)
    elif workload == "solve":
        ops = solve_ops(SOLVE_SEED, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def execute(op: dict, bnd) -> object:
    """Run one operation against the imported package and return what the
    check needs.  Raises OpFailed on a nonzero exit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
        code = bnd.cli.main(op["argv"])
    if code != 0:
        raise OpFailed(f"exit {code}: {err.getvalue().strip()[:200]}")
    if "output" in op:
        system = bnd.systems.parse(op["output"])
        with open(op["output"], encoding="utf-8") as handle:
            return handle.read(), system
    try:
        return json.loads(out.getvalue())
    except ValueError as exc:
        raise OpFailed(f"unreadable output: {exc}") from None


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as handle:
        return json.load(handle)


def degree_closed_form(kind: str, ambient: int, degrees: tuple[int, ...]) -> int | None:
    """Known closed forms (README, `bnd check`, and the generic ED degree
    of a hypersurface); None where there is none."""
    if len(degrees) == 1:
        d = degrees[0]
        if kind == "edd":
            return d * sum((d - 1) ** i for i in range(ambient))
        if (kind, ambient) == ("bnd", 2):
            return d**4 - 4 * d**2 + 3 * d
        if (kind, ambient) == ("bnd-affine", 2):
            return d**4 - 5 * d**2 + 4 * d
        if (kind, ambient) == ("bnd-affine", 3):
            return d**6 - 2 * d**5 + 3 * d**4 - 15 * d**3 + 26 * d**2 - 13 * d
    if (kind, ambient, len(degrees)) == ("bnd-affine", 3, 2):
        d, s = degrees[0] * degrees[1], degrees[0] + degrees[1]
        return d**2 * (s - 1) ** 2 - 5 * d * s + 9 * d
    return None


def degree_value(payload: dict) -> int:
    return payload["edd"] if "edd" in payload else payload["bnd"]


def observe(workload: str, result) -> object:
    """The part of an operation's output that the reference pins."""
    if workload == "degrees":
        return degree_value(result)
    if workload == "formula":
        return result["formula"]
    if workload == "systems":
        return hashlib.sha256(result[0].encode("utf-8")).hexdigest()
    return isolated_pairs(result)


def isolated_pairs(payload: dict) -> list[list[float]]:
    return [p["x"] + p["y"] for p in payload["pairs"] if p["isolated"]]


def _pair_found(want: list[float], found: list[list[float]]) -> bool:
    # unordered pairs: accept either orientation
    n = len(want) // 2
    flipped = want[n:] + want[:n]
    return any(
        math.dist(want, got) <= CLUSTER_RADIUS or math.dist(flipped, got) <= CLUSTER_RADIUS
        for got in found
    )


def affine_pair_bound(degrees: tuple[int, ...], nvars: int) -> int:
    """Half the affine BND of an anchor's shape, from the closed forms."""
    return degree_closed_form("bnd-affine", nvars, degrees) // 2


def reference_size(workload: str, op: dict, reference: dict) -> int:
    """How many reference items an operation answers for (see check)."""
    if workload == "solve" and op["key"] in reference:
        return len(reference[op["key"]])
    return 1


def check(
    workload: str, op: dict, result, reference: dict, format_system
) -> tuple[str | None, int, int]:
    """(failure or None, reference items found, reference items).

    The second and third values feed `recall`: isolated pairs for solve,
    pinned outputs elsewhere.  format_system is the package's emitter, which
    the systems roundtrip check re-applies to the parsed file.
    """
    key = op["key"]
    if key not in reference:
        return f"{key}: no reference value", 0, 1
    want, got = reference[key], observe(workload, result)
    if workload == "solve":
        # the bound must match the closed form; found pairs count for recall
        hits = sum(_pair_found(pair, got) for pair in want)
        error = None
        if result.get("complex_pair_bound") != op["bound"]:
            error = f"{key}: complex_pair_bound {result.get('complex_pair_bound')}, want {op['bound']}"
        elif len(got) > op["bound"]:
            error = f"{key}: {len(got)} isolated pairs exceed the bound {op['bound']}"
        return error, hits, len(want)
    if workload == "degrees" and op["closed_form"] is not None and got != op["closed_form"]:
        return f"{key}: got {got}, closed form {op['closed_form']}", 0, 1
    if workload == "formula" and (result.get("dim"), result.get("ambient")) != op["shape"]:
        return f"{key}: answered for dim {result.get('dim')}, ambient {result.get('ambient')}", 0, 1
    if workload == "systems" and format_system(result[1]) != result[0]:
        return f"{key}: emit/parse roundtrip changed the text", 0, 1
    if got != want:
        return f"{key}: got {got!r}, reference {want!r}", 0, 1
    return None, 1, 1
