"""Tests for the numeric bottleneck search."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from bnd import solver
from bnd.engine import bnd_variety
from bnd.profiles import VarietySpec
from bnd.solver import (
    CLUSTER_RADIUS,
    EVAL_CHUNK,
    MAX_GRID_POINTS,
    RANK_CUTOFF,
    SEP_THRESHOLD,
    BottleneckPair,
    SolverConfig,
    _CompiledSystem,
    _distinct_pairs,
    _greedy_keep,
    _newton_batch,
    _monomials,
    _newton_step,
    _pinv_step,
    _power_plan,
    _residual,
    _step_length,
    classify_isolation,
    find_bottlenecks,
    narrowest_bottleneck,
    plot_data,
    result_json,
    result_table,
    sample_variety,
)
from bnd.ring import coordinate_ring
from bnd.systems import (
    build_lagrange_system,
    build_minor_system,
    parse_poly,
    parse_system_text,
)

V2 = ("x1", "x2")
V3 = ("x1", "x2", "x3")

ELLIPSE = [parse_poly("x1^2 + x2^2/2 - 1", V2)]
SPHEROID = [parse_poly("4*x1^2 + x2^2 + x3^2 - 4", V3)]

# cheap settings for tests that only care about reproducibility, not coverage
FAST = SolverConfig(density=8)


@pytest.fixture(scope="module")
def ellipse_result():
    return find_bottlenecks(ELLIPSE)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_defaults():
    cfg = SolverConfig()
    assert cfg.box_for(2) == ((-3.5, 3.5), (-3.5, 3.5))
    assert cfg.density_for(2) == 20
    assert cfg.density_for(3) == 10
    assert cfg.density_for(5) == 6
    explicit = SolverConfig(box=((0.0, 1.0),), density=4)
    assert explicit.box_for(1) == ((0.0, 1.0),)
    assert explicit.density_for(7) == 4


@pytest.mark.parametrize(
    "kwargs",
    [
        {"density": 1},
        {"residual_tol": 0.0},
        {"newton_max_iter": 0},
        {"box": ((1.0, 1.0),)},
        {"density": 8.0},  # np.linspace would raise a TypeError
        {"density": 2.5},
        {"newton_max_iter": 10.0},  # range would raise a TypeError
        {"newton_max_iter": "10"},
        {"residual_tol": "1e-10"},  # comparisons would raise a TypeError
        {"residual_tol": None},
        {"box": (("a", 1.0),)},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError, match="|".join(kwargs)):
        SolverConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"residual_tol": math.inf},
        {"residual_tol": math.nan},
        {"residual_tol": -1e-10},
        {"box": ((-math.inf, math.inf), (0.0, 1.0))},
        {"box": ((0.0, 1.0), (0.0, math.inf))},
        {"box": ((math.nan, 1.0),)},
    ],
)
def test_config_rejects_non_finite_values_by_name(kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=name):
        SolverConfig(**kwargs)


@pytest.mark.parametrize(
    "density, n",
    [(None, 2), (None, 3), (None, 7), (30, 2), (15, 3), (14, 2), (8, 2), (7, 3), (1000, 2)],
)
def test_grids_in_use_are_within_the_bound(density, n):
    # the defaults, the acceptance tests' denser retry and the perfbench
    # densities; 1000**2 is the bound itself
    SolverConfig(density=density).density_for(n)


@pytest.mark.parametrize("density, n", [(None, 8), (1001, 2), (101, 3), (10**6, 3)])
def test_grids_above_the_bound_are_refused(density, n):
    with pytest.raises(ValueError, match=f"MAX_GRID_POINTS = {MAX_GRID_POINTS}"):
        SolverConfig(density=density).density_for(n)


def test_grid_above_the_bound_is_refused_before_it_is_built(monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("a grid axis was built")

    monkeypatch.setattr(np, "linspace", build)
    for search in (find_bottlenecks, sample_variety):
        with pytest.raises(ValueError, match=r"1000000\^3 points, above MAX_GRID_POINTS"):
            search(SPHEROID, SolverConfig(density=10**6))


def test_config_box_length_checked():
    cfg = SolverConfig(box=((-1.0, 1.0),))
    with pytest.raises(ValueError):
        cfg.box_for(2)


# ---------------------------------------------------------------------------
# compiled evaluation
# ---------------------------------------------------------------------------


def _dense_poly(rng, nvars, degree, skip=()):
    """Every monomial of total degree <= degree in nvars variables, except
    those involving a variable in skip, with random rational coefficients."""
    terms = {}
    for e in itertools.product(range(degree + 1), repeat=nvars):
        if sum(e) <= degree and not any(e[v] for v in skip):
            terms[e] = Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 9)))
    return coordinate_ring(nvars).poly(terms)


def _assert_matches_exact(polys, nvars, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.5, 1.5, (7, nvars))
    sysc = _CompiledSystem(polys, nvars)
    vals, jac = sysc.eval(pts), sysc.jacobian(pts)
    assert vals.shape == (len(pts), len(polys))
    assert jac.shape == (len(pts), len(polys), nvars)
    for a, pt in enumerate(pts):
        for i, p in enumerate(polys):
            exact = [p.eval_exact(pt)] + [p.diff(j).eval_exact(pt) for j in range(nvars)]
            got = [vals[a, i]] + list(jac[a, i])
            for g, want in zip(got, exact):
                assert abs(Fraction(g) - want) <= Fraction(1e-9) * max(1, abs(want))


@pytest.mark.parametrize("nvars,degree", [(2, 5), (3, 4), (4, 3), (5, 3), (6, 2)])
def test_evaluator_matches_exact_dense(nvars, degree):
    rng = np.random.default_rng(nvars)
    polys = [_dense_poly(rng, nvars, degree), _dense_poly(rng, nvars, degree - 1)]
    _assert_matches_exact(polys, nvars, seed=nvars)


def test_evaluator_zero_constant_and_absent_variable():
    rng = np.random.default_rng(1)
    zero, const = coordinate_ring(4).zero(), coordinate_ring(4).constant(Fraction(5, 2))
    no_x3 = _dense_poly(rng, 4, 3, skip=(2,))
    _assert_matches_exact([zero, const, no_x3], 4)
    _assert_matches_exact([coordinate_ring(3).zero()], 3)
    _assert_matches_exact([coordinate_ring(2).constant(-7), coordinate_ring(2).zero()], 2)
    vals = _CompiledSystem([zero, const], 4).eval(np.ones((3, 4)))
    assert vals.tolist() == [[0.0, 2.5]] * 3


def test_evaluator_on_lagrange_system():
    lag = build_lagrange_system([parse_poly("x1^3 - 3*x1*x2^2 - x3", V3), SPHEROID[0]])
    _assert_matches_exact(list(lag.polynomials), len(lag.variables))


def _eval_terms(p, z):
    """p at the complex point z, term by term in Python complex arithmetic."""
    return sum(float(c) * math.prod(z[v] ** d for v, d in enumerate(e)) for e, c in p.terms.items())


@pytest.mark.parametrize("nvars,degree", [(2, 5), (3, 4), (6, 2)])
def test_evaluator_keeps_complex_points_complex(nvars, degree):
    """At complex points F and J are complex (no ComplexWarning, which the
    suite turns into an error) and equal a direct term-by-term evaluation."""
    rng = np.random.default_rng(nvars + 20)
    polys = [_dense_poly(rng, nvars, degree), _dense_poly(rng, nvars, degree - 1)]
    pts = rng.uniform(-1.5, 1.5, (300, nvars)) + 1j * rng.uniform(-1.5, 1.5, (300, nvars))
    sysc = _CompiledSystem(polys, nvars)
    vals, jac = sysc.eval(pts), sysc.jacobian(pts)
    assert vals.dtype == jac.dtype == np.complex128
    z = pts.tolist()
    want_vals = [[_eval_terms(p, pt) for p in polys] for pt in z]
    want_jac = [[[_eval_terms(p.diff(j), pt) for j in range(nvars)] for p in polys] for pt in z]
    scale = np.abs(want_vals).max()
    np.testing.assert_allclose(vals, want_vals, rtol=1e-12, atol=1e-12 * scale)
    scale = np.abs(want_jac).max()
    np.testing.assert_allclose(jac, want_jac, rtol=1e-12, atol=1e-12 * scale)
    # the ellipse at (1 + i, i/2): (1 + i)^2 + (i/2)^2 / 2 - 1 = -9/8 + 2i, exactly
    at = np.array([[1 + 1j, 0.5j]])
    assert _CompiledSystem(ELLIPSE, 2).eval(at).tolist() == [[-1.125 + 2j]]
    assert _CompiledSystem(ELLIPSE, 2).jacobian(at).tolist() == [[[2 + 2j, 0.5j]]]


# The reduceat kernel that the level-wise products replaced, kept as the
# reference: row r of the result is the product of the power-table rows
# factors[starts[r]:starts[r + 1]], multiplied left to right in variable order.
# _power_plan/_monomials must give the same values bit for bit, signs of zero
# and nan included, so that F, J and every residual the solver computes stay
# the same.


def reference_power_plan(exps):
    nvars = exps.shape[1]
    factors, starts = [], []
    for e in exps.tolist():
        starts.append(len(factors))
        factors += [1 + (d - 1) * nvars + v for v, d in enumerate(e) if d] or [0]
    top = int(exps.max(initial=0))
    return top, np.array(factors, dtype=np.intp), np.array(starts, dtype=np.intp)


def reference_monomials(plan, pts):
    top, factors, starts = plan
    x = pts.T
    table = np.empty((1 + top * x.shape[0], len(pts)))
    table[0] = 1.0
    pw = table[1:].reshape(top, *x.shape)
    pw[:1] = x
    for d in range(1, top):
        np.multiply(pw[d - 1], x, out=pw[d])
    return np.multiply.reduceat(table[factors], starts, axis=0)


def _assert_bitwise_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


SPECIAL_VALUES = np.array([0.0, -0.0, 1e200, -1e200, 1e-200, np.inf, -np.inf, np.nan])


def _fuzz_exponents(rng, nvars, degree):
    """Random exponent rows of total degree <= degree: constants, absent
    variables and repeated rows included, and sometimes no rows at all."""
    rows = int(rng.choice([0, 1, 2, 5, 20, 60]))
    exps = rng.integers(0, degree + 1, (rows, nvars)) * (rng.random((rows, nvars)) < 0.6)
    over = exps.sum(axis=1) > degree
    exps[over] = 0
    if nvars > 1 and rng.random() < 0.5:
        exps[:, rng.integers(nvars)] = 0
    return exps.astype(np.intp)


def _fuzz_points(rng, count, nvars):
    pts = rng.uniform(-2.5, 2.5, (count, nvars))
    special = rng.random((count, nvars)) < 0.15
    pts[special] = rng.choice(SPECIAL_VALUES, int(special.sum()))
    return pts


@pytest.mark.parametrize("seed", range(8))
def test_monomials_equal_reduceat_bitwise(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        nvars = int(rng.integers(1, 9))
        exps = _fuzz_exponents(rng, nvars, int(rng.integers(0, 7)))
        for count in (0, 1, 7, 300):
            pts = _fuzz_points(rng, count, nvars)
            with np.errstate(all="ignore"):
                got = _monomials(_power_plan(exps), pts)
                want = reference_monomials(reference_power_plan(exps), pts)
            _assert_bitwise_equal(got, want)


def test_monomials_edge_shapes():
    pts = np.array([[-0.0, 2.0, np.nan], [3.0, -0.0, 1e200]])
    cases = [
        np.zeros((0, 3), dtype=np.intp),  # an empty system
        np.zeros((4, 3), dtype=np.intp),  # constants only
        np.array([[0, 5, 0], [0, 0, 0], [2, 0, 1], [1, 1, 1]]),  # x1 absent from one
    ]
    for exps in cases:
        with np.errstate(all="ignore"):
            got = _monomials(_power_plan(exps), pts)
            want = reference_monomials(reference_power_plan(exps), pts)
        _assert_bitwise_equal(got, want)
    # the running products keep the rounding of a left-to-right product in
    # variable order, which here differs from the reversed order
    x = np.array([[0.1, 0.2, 0.3]])
    got = _monomials(_power_plan(np.array([[1, 1, 1]])), x)[0, 0]
    assert got == (0.1 * 0.2) * 0.3 != (0.3 * 0.2) * 0.1


def test_compiled_system_equals_reduceat_evaluator():
    """F and J of a Lagrange system from the reduceat monomials and the
    same coefficient matrices: the matrix products see the same rows."""
    lag = build_lagrange_system([parse_poly("x1^3 - 3*x1*x2^2 - x3", V3), SPHEROID[0]])
    polys, nvars = list(lag.polynomials), len(lag.variables)
    sysc = _CompiledSystem(polys, nvars)
    rows = {}
    for p in polys:
        rows.update(dict.fromkeys(p.terms))
    n_f = len(rows)
    for p in polys:
        for j in range(nvars):
            rows.update(dict.fromkeys(p.diff(j).terms))
    exps = np.array(list(rows), dtype=np.intp)
    pts = _fuzz_points(np.random.default_rng(9), 500, nvars)
    with np.errstate(all="ignore"):
        vals = reference_monomials(reference_power_plan(exps[:n_f]), pts).T @ sysc.f_coeffs
        jac = reference_monomials(reference_power_plan(exps), pts).T @ sysc.j_coeffs
        _assert_bitwise_equal(sysc.eval(pts), vals)
        _assert_bitwise_equal(sysc.jacobian(pts), jac.reshape(len(pts), len(polys), nvars))


def _anchor_systems(workloads):
    """(name, compiled system) for the Lagrange, minor and defining systems
    of each perfbench solve anchor."""
    for name, text, _, _ in workloads.SOLVE_ANCHORS:
        fs = list(parse_system_text(text).polynomials)
        n = fs[0].nvars
        lag = build_lagrange_system(fs)
        minor = build_minor_system(fs, n - len(fs))
        yield f"{name} lagrange", _CompiledSystem(list(lag.polynomials), len(lag.variables))
        yield f"{name} minor", _CompiledSystem(list(minor.polynomials), 2 * n)
        yield f"{name} defining", _CompiledSystem(fs, n)


def test_chunked_evaluation_equals_one_block(perfbench_workloads):
    """F and J evaluated EVAL_CHUNK points at a time are bit for bit the
    single matrix product over all the points, at batch sizes around the
    chunk boundaries (a lone last point joins the chunk before it)."""
    c = EVAL_CHUNK
    rng = np.random.default_rng(11)
    for name, sysc in _anchor_systems(perfbench_workloads):
        for count in (0, 1, c - 1, c, c + 1, 3 * c + 7):
            pts = rng.uniform(-3.5, 3.5, (count, sysc.nvars))
            pts[rng.random(pts.shape) < 0.1] = 0.0
            pts[rng.random(pts.shape) < 0.1] = -0.0
            vals = _monomials(sysc.f_plan, pts).T @ sysc.f_coeffs
            jac = _monomials(sysc.plan, pts).T @ sysc.j_coeffs
            _assert_bitwise_equal(sysc.eval(pts), vals)
            _assert_bitwise_equal(
                sysc.jacobian(pts), jac.reshape(count, sysc.neqs, sysc.nvars)
            )


@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (300, 1), (300, 6), (40, 19, 10), (7, 3, 2)])
def test_residual_equals_max_abs(shape):
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    vals = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, shape)
    special = rng.random(shape) < 0.1
    vals[special] = rng.choice(SPECIAL_VALUES, int(special.sum()))
    if vals.size:
        vals[0] = np.nan  # a whole row of nan
    _assert_bitwise_equal(_residual(vals), np.max(np.abs(vals), axis=-1))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_ellipse_covers_curve():
    cfg = SolverConfig(box=((-2.0, 2.0), (-2.0, 2.0)), density=20)
    pts = sample_variety(ELLIPSE, cfg)
    assert len(pts) >= 40
    vals = np.abs(pts[:, 0] ** 2 + pts[:, 1] ** 2 / 2 - 1)
    assert vals.max() < cfg.residual_tol
    # deduplicated: no two samples closer than the cluster radius
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() > CLUSTER_RADIUS


def test_sample_empty_real_locus():
    pts = sample_variety([parse_poly("x1^2 + x2^2 + 1", V2)])
    assert pts.shape == (0, 2)


def test_solve_samples_through_sample_variety_once(monkeypatch):
    built = []
    init = _CompiledSystem.__init__

    def counting(self, polys, nvars):
        built.append(nvars)
        init(self, polys, nvars)

    sampled = []
    sample = solver.sample_variety

    def counted(*args):
        sampled.append(args)
        return sample(*args)

    monkeypatch.setattr(_CompiledSystem, "__init__", counting)
    monkeypatch.setattr(solver, "sample_variety", counted)
    find_bottlenecks(ELLIPSE, FAST)
    assert len(sampled) == 1
    # the Lagrange, minor and defining systems, each once: sample_variety
    # takes the defining system find_bottlenecks compiled
    assert built == [6, 4, 2]


def test_sample_ellipsoid_residual():
    pts = sample_variety([parse_poly("36*x1^2 + 9*x2^2 + 4*x3^2 - 36", V3)])
    assert len(pts) > 0
    vals = np.abs(36 * pts[:, 0] ** 2 + 9 * pts[:, 1] ** 2 + 4 * pts[:, 2] ** 2 - 36)
    assert vals.max() < SolverConfig().residual_tol


# ---------------------------------------------------------------------------
# Newton steps
# ---------------------------------------------------------------------------


class _FlaggedIdentity:
    """F(p) = (p1, p2), so the residual is max(|p1|, |p2|); nan wherever the
    flag coordinate p3 is positive.  Each row is evaluated on its own."""

    def eval(self, pts):
        return np.where(pts[:, 2:] > 0, np.nan, pts[:, :2])


def _sequential_halving(sysc, za, step, cur_res):
    """The step-halving loop the batched search replaced: one evaluation per
    halving round."""
    t = np.ones(len(za))
    best = za - step
    best_res = np.max(np.abs(sysc.eval(best)), axis=1)
    for _ in range(15):
        need = ~(best_res < cur_res) & np.isfinite(t)
        if not need.any():
            break
        t[need] *= 0.5
        cand = za[need] - t[need, None] * step[need]
        cand_res = np.max(np.abs(sysc.eval(cand)), axis=1)
        improved = cand_res < best_res[need]
        rows = np.where(need)[0][improved]
        best[rows] = cand[improved]
        best_res[rows] = cand_res[improved]
    stalled = ~(best_res < cur_res)
    best[stalled] = np.nan
    best_res[stalled] = np.nan
    return best, best_res


def _halving_batch(rng, rows):
    """Rows of z, step and current residual: improving at t = 1, improving
    first at t = 2^-14, never improving, nan at t = 1 (stalled even though a
    shorter step would improve), a nan point, random rows whose residual
    drops below the current one at several t of one block, and rows
    improving first at t = 2^-16, past the last length searched."""
    z = rng.uniform(-2, 2, (rows, 3))
    z[:, 2] = -1.0
    step = np.zeros_like(z)
    kind = rng.integers(0, 7, rows)
    for r, k in enumerate(kind):
        if k == 0:
            step[r, :2] = z[r, :2]
        elif k == 1:
            step[r, :2] = z[r, :2] * 2.0**14
        elif k == 2:
            step[r, :2] = -z[r, :2]
        elif k == 3:
            step[r] = (*(z[r, :2] * 0.5), -4.0)
        elif k == 4:
            z[r, 0] = np.nan
        elif k == 5:
            step[r, :2] = z[r, :2] * 2.0 ** rng.uniform(0, 15)
        else:
            step[r, :2] = z[r, :2] * 2.0**16
    cur_res = np.max(np.abs(z[:, :2]), axis=1)
    cur_res[kind == 4] = 1.0
    cur_res[kind == 5] *= rng.uniform(0.2, 1.0, int((kind == 5).sum()))
    return z, step, cur_res, kind


class _CountedIdentity(_FlaggedIdentity):
    def __init__(self):
        self.points = 0

    def eval(self, pts):
        self.points += len(pts)
        return super().eval(pts)


@pytest.mark.parametrize("seed", range(4))
def test_step_length_equals_sequential_halving(seed):
    z, step, cur_res, kind = _halving_batch(np.random.default_rng(seed), 300)
    want = _sequential_halving(_FlaggedIdentity(), z, step, cur_res)
    sysc = _CountedIdentity()
    best, vals, res, evaluated = _step_length(sysc, z, step, cur_res)
    assert evaluated == sysc.points > len(z)
    for a, b in zip((best, res), want):
        assert np.array_equal(a, b, equal_nan=True)
    # the values returned are F at the rows kept, nan where a row stalled
    assert np.array_equal(vals, sysc.eval(best), equal_nan=True)
    assert np.all(res[kind == 0] == 0)
    assert np.array_equal(best[kind == 1], z[kind == 1] - 2.0**-14 * step[kind == 1])
    assert np.isnan(res[(kind >= 2) & (kind <= 4)]).all()
    # 2^-16 would improve these rows, but the search stops at 2^-15
    deep = kind == 6
    assert deep.any()
    assert np.all(np.max(np.abs(z[deep, :2] - 2.0**-16 * step[deep, :2]), axis=1) < cur_res[deep])
    assert np.isnan(res[deep]).all() and np.isnan(best[deep]).all()
    # enough random rows are accepted inside a block for the comparison to
    # tell the first hit of a block from a later one
    assert np.isfinite(res[kind == 5]).sum() > 20


def _well_conditioned(rng, count, m):
    return rng.normal(size=(count, m, m)) + 4 * np.eye(m)


def _pinv_reference(jac, vals):
    return (np.linalg.pinv(jac, rcond=RANK_CUTOFF) @ vals[:, :, None])[:, :, 0]


def _pinv_batch(rng, shape):
    """Random (N, rows, cols) matrices with steps F, some rows scaled far
    beyond where |g|^2 is representable and some zero."""
    jac = rng.normal(size=shape) * 10.0 ** rng.choice([0, 0, 0, 200, -200], (shape[0], 1, 1))
    jac[::17] = 0.0
    return jac, rng.normal(size=shape[:2])


@pytest.mark.parametrize("shape", [(300, 1, 3), (300, 1, 6), (300, 3, 1), (300, 6, 1), (40, 1, 1)])
def test_rank_one_pinv_step_equals_pinv(monkeypatch, shape):
    """A single-row or single-column J takes g^T / |g|^2 without an SVD,
    and matches np.linalg.pinv with the same cutoff."""
    rng = np.random.default_rng(shape[1] * 10 + shape[2])
    jac, vals = _pinv_batch(rng, shape)
    want = _pinv_reference(jac, vals)
    calls = []
    monkeypatch.setattr(np.linalg, "pinv", lambda *a, **k: calls.append(a))
    step = _pinv_step(jac, vals)
    assert calls == []
    assert step.shape == want.shape == (shape[0], shape[2])
    np.testing.assert_allclose(step, want, rtol=1e-12, atol=0)
    assert not step[::17].any()  # g = 0: a zero step


@pytest.mark.parametrize("shape", [(50, 3, 3), (50, 3, 6), (50, 6, 3), (50, 4, 4)])
def test_pinv_step_keeps_the_svd_beyond_rank_one(monkeypatch, shape):
    """A J of three or more rows and columns takes the batched SVD, all
    rows in one np.linalg.pinv call."""
    rng = np.random.default_rng(shape[1] * 10 + shape[2])
    jac, vals = rng.normal(size=shape), rng.normal(size=shape[:2])
    want = _pinv_reference(jac, vals)
    pinv, calls = np.linalg.pinv, []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return pinv(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", counted)
    assert np.array_equal(_pinv_step(jac, vals), want)
    assert calls == [shape]


@pytest.mark.parametrize("shape", [(50, 2, 3), (50, 2, 6), (50, 3, 2), (50, 2, 2), (343, 2, 3)])
def test_two_rank_pinv_step_takes_the_svd_only_where_untrusted(monkeypatch, shape):
    """A J of two rows or two columns takes the closed-form LQ step: no SVD
    on well-conditioned rows at any scale, and per row within 1e-12 of
    np.linalg.pinv.  Rows whose second row (column) is 1e-6 off a multiple
    of the first or exactly one, a zero J, and a nan in F take the SVD, all
    in one np.linalg.pinv call, and get exactly its result."""
    rng = np.random.default_rng(shape[0] + shape[1] * 10 + shape[2])
    jac, vals = rng.normal(size=shape), rng.normal(size=shape[:2])
    scale = 10.0 ** rng.choice([0, 0, 0, 200, -200], (shape[0], 1, 1))
    well, well_vals = jac * scale, vals.copy()
    want_well = _pinv_reference(well, well_vals)

    bad = np.zeros(shape[0], dtype=bool)
    bad[::7] = True
    first, second = (jac[:, 0], jac[:, 1]) if shape[1] == 2 else (jac[:, :, 0], jac[:, :, 1])
    second[bad] = 3 * first[bad] + np.resize([1e-6, 0.0], bad.sum())[:, None] * second[bad]
    jac[14] = 0.0
    vals[3] = np.nan
    bad[3] = True
    jac *= scale
    want = _pinv_reference(jac, vals)
    want_bad = _pinv_reference(jac[bad], vals[bad])

    pinv, calls = np.linalg.pinv, []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return pinv(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", counted)
    step = _pinv_step(well, well_vals)
    assert calls == []
    assert _relative_row_error(step, want_well).max() <= 1e-12

    step = _pinv_step(jac, vals)
    assert calls == [(bad.sum(), *shape[1:])]
    assert np.array_equal(step[bad], want_bad, equal_nan=True)
    assert _relative_row_error(step[~bad], want[~bad]).max() <= 1e-12


def _relative_row_error(step, want):
    """|step - want| / |want| per row, each row scaled by its largest entry
    first, so that no square overflows."""
    m = np.abs(want).max(axis=1, keepdims=True)
    return np.linalg.norm((step - want) / m, axis=1) / np.linalg.norm(want / m, axis=1)


def test_newton_step_equals_pinv_step_when_well_conditioned():
    rng = np.random.default_rng(5)
    for m in (2, 4, 6):
        jac, vals = _well_conditioned(rng, 50, m), rng.normal(size=(50, m))
        step, fallbacks = _newton_step(jac, vals)
        want = _pinv_reference(jac, vals)
        assert fallbacks == 0
        assert np.all(np.linalg.norm(step - want, axis=1) <= 1e-10 * np.linalg.norm(want, axis=1))


def test_newton_step_singular_row_takes_pinv():
    rng = np.random.default_rng(6)
    jac, vals = _well_conditioned(rng, 20, 4), rng.normal(size=(20, 4))
    jac[7, 3] = jac[7, 0]  # two equal rows: exactly singular
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(jac, vals[:, :, None])
    step, fallbacks = _newton_step(jac, vals)
    assert fallbacks == 1
    assert np.allclose(step[7], _pinv_reference(jac[7:8], vals[7:8])[0], rtol=1e-12, atol=0)
    others = np.arange(20) != 7
    assert np.allclose(step[others], np.linalg.solve(jac[others], vals[others, :, None])[:, :, 0])


def test_newton_step_near_singular_row_takes_pinv():
    rng = np.random.default_rng(7)
    jac, vals = _well_conditioned(rng, 10, 3), rng.normal(size=(10, 3))
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    jac[4] = u @ np.diag([2.0, 1.0, 1e-13]) @ v.T  # invertible, but the LU step is huge
    lu = np.linalg.solve(jac[4], vals[4])
    assert np.linalg.norm(lu) * np.abs(jac[4]).max() > 1e7 * np.linalg.norm(vals[4])
    step, fallbacks = _newton_step(jac, vals)
    assert fallbacks == 1
    assert np.allclose(step[4], _pinv_reference(jac[4:5], vals[4:5])[0], rtol=1e-12, atol=0)


def test_newton_iteration_call_counts(monkeypatch):
    # inside the Newton batch, each iteration is one jacobian call followed by
    # at most 1 + 3 evals: the full step and three step blocks; F at the point
    # is the value the previous step-length search kept.  The diagnostics
    # count the points of these calls.
    calls = []
    points = {"eval": 0, "jacobian": 0}
    counting = [False]
    for name in ("eval", "jacobian"):
        original = getattr(_CompiledSystem, name)

        def wrapped(self, pts, _name=name, _original=original):
            if counting[0]:
                calls.append(_name)
                points[_name] += len(pts)
            return _original(self, pts)

        monkeypatch.setattr(_CompiledSystem, name, wrapped)
    newton_batch = solver._newton_batch

    def counted(*args):
        counting[0] = True
        try:
            return newton_batch(*args)
        finally:
            counting[0] = False

    monkeypatch.setattr(solver, "_newton_batch", counted)
    result = find_bottlenecks(ELLIPSE, FAST)
    iterations = result.diagnostics["newton_iterations"]
    assert iterations >= 10
    segments = "".join("|" if c == "jacobian" else "e" for c in calls).split("|")
    assert len(segments[0]) == 1  # the starting residual
    # exactly one J per damped iteration
    assert len(segments) - 1 == iterations
    assert max(len(seg) for seg in segments[1:]) <= 1 + 3
    assert result.diagnostics["eval_points"] == points["eval"]
    assert result.diagnostics["jacobian_points"] == points["jacobian"]
    # at least one point per start and per step
    assert points["eval"] > points["jacobian"] >= result.diagnostics["start_pairs"]


def test_spheroid_step_telemetry():
    # on the spheroid the damped loop takes pinv steps and stops rows for
    # no progress (the ellipse takes no pinv step at FAST)
    result = find_bottlenecks(SPHEROID, FAST)
    keys = (
        "newton_iterations",
        "step_fallbacks",
        "stalled",
        "no_progress",
        "iteration_cap",
        "eval_points",
        "jacobian_points",
    )
    assert 1 <= result.diagnostics["newton_iterations"] <= FAST.newton_max_iter
    assert result.diagnostics["step_fallbacks"] > 0
    assert result.diagnostics["no_progress"] > 0
    empty = find_bottlenecks([parse_poly("x1^2 + x2^2 + 1", V2)], FAST)
    assert all(empty.diagnostics[key] == 0 for key in keys)


@pytest.mark.parametrize("scale", [1, 100000])
def test_start_outcomes_partition_the_starts(scale):
    """Each start ends converged, non-finite (diverged) or finite above
    residual_tol (unconverged); only the rule stops and the cap leave a
    finite row unconverged."""
    f = parse_poly(f"{scale}*x1^2 + {scale}/2*x2^2 - {scale}", V2)
    d = find_bottlenecks([f], FAST).diagnostics
    assert d["converged"] + d["diverged"] + d["unconverged"] == d["start_pairs"] > 0
    assert d["unconverged"] <= d["no_progress"] + d["iteration_cap"]
    if scale == 1:
        assert d["converged"] > d["diverged"] + d["unconverged"]
    else:
        # the absolute residual_tol: every row the rule stopped is finite
        # and counts as unconverged, not as diverged; the rows that
        # diverged are those no step length down to 2^-15 improved
        assert d["converged"] == 0
        assert d["unconverged"] == d["no_progress"] + d["iteration_cap"]
        assert d["diverged"] == d["stalled"] > 0


# (x1^2 + x2^2 + 1)(x1 - 3) = x1*x2 = 0 has the one real root (3, 0).  Newton
# from (3.2, 0.1) converges to it; from (0.2, 0.6) the residual creeps down
# from 3.9 to 2.9 over 20 iterations, and left alone the row stalls at
# iteration 28.
ONE_ROOT = _CompiledSystem(
    [parse_poly("(x1^2 + x2^2 + 1)*(x1 - 3)", V2), parse_poly("x1*x2", V2)], 2
)
NEAR_ROOT, FAR_FROM_ROOT = (3.2, 0.1), (0.2, 0.6)


@pytest.mark.parametrize("window", [5, 10, 20])
def test_no_progress_rule_stops_a_creeping_row(monkeypatch, window):
    monkeypatch.setattr(solver, "NO_PROGRESS_WINDOW", window)
    cfg = SolverConfig()
    z, res, counts = _newton_batch(ONE_ROOT, np.array([NEAR_ROOT, FAR_FROM_ROOT]), cfg)
    # the first row freezes at the root within a few iterations
    assert res[0] <= cfg.residual_tol * 1e-2
    assert np.allclose(z[0], (3.0, 0.0), atol=1e-12)
    # the second is stopped after exactly window iterations, long before
    # the cap, and keeps its point and residual
    assert counts["no_progress"] == 1 and counts["iteration_cap"] == 0
    assert counts["newton_iterations"] == window < cfg.newton_max_iter
    assert np.isfinite(z[1]).all() and 2.0 < res[1] < 3.9


def test_iteration_cap_counts_rows_still_active():
    cfg = SolverConfig(newton_max_iter=10)  # below the window of 20
    z, res, counts = _newton_batch(ONE_ROOT, np.array([NEAR_ROOT, FAR_FROM_ROOT]), cfg)
    assert counts["newton_iterations"] == 10
    assert counts["iteration_cap"] == 1 and counts["no_progress"] == 0
    assert res[0] <= cfg.residual_tol * 1e-2 and np.isfinite(res[1])


# From (0.1, 10) the residual falls 293, 72.8, 18.8, 5.58, 3.00, 2.97, 2.95
# over steps 0..6: with a window of 3 it halves over every window up to
# step 5 and first fails to at step 6.
@pytest.mark.parametrize("cap, stop", [(6, "iteration_cap"), (7, "no_progress")])
def test_window_rule_leaves_the_cap_to_iteration_cap(monkeypatch, cap, stop):
    monkeypatch.setattr(solver, "NO_PROGRESS_WINDOW", 3)
    cfg = SolverConfig(newton_max_iter=cap)
    z, res, counts = _newton_batch(ONE_ROOT, np.array([(0.1, 10.0)]), cfg)
    assert counts["newton_iterations"] == 6
    other = ({"iteration_cap", "no_progress"} - {stop}).pop()
    assert counts[stop] == 1 and counts[other] == 0
    assert 2.9 < res[0] < 3.0


def test_step_search_counts_stalled_rows():
    # x1^2 + 1 has no real root: from 0 the (pinv) step is zero, and from
    # 0.5 the damped steps shrink x1 until no step length lowers 1 + x1^2
    no_root = _CompiledSystem([parse_poly("x1^2 + 1", ("x1",))], 1)
    z, res, counts = _newton_batch(no_root, np.array([(0.0,), (0.5,)]), SolverConfig())
    assert counts["stalled"] == 2
    assert np.isnan(res).all()
    assert counts["no_progress"] == counts["iteration_cap"] == 0


# ---------------------------------------------------------------------------
# the ellipse end to end
# ---------------------------------------------------------------------------


def test_ellipse_finds_both_axis_pairs(ellipse_result):
    assert len(ellipse_result.pairs) == 2
    assert all(p.isolated for p in ellipse_result.pairs)
    short, long = ellipse_result.pairs
    assert short.separation == pytest.approx(2.0, abs=1e-8)
    assert long.separation == pytest.approx(2 * math.sqrt(2), abs=1e-8)
    assert np.allclose(short.x, (-1.0, 0.0), atol=1e-8)
    assert np.allclose(short.y, (1.0, 0.0), atol=1e-8)
    assert np.allclose(long.x, (0.0, -math.sqrt(2)), atol=1e-8)
    assert np.allclose(long.y, (0.0, math.sqrt(2)), atol=1e-8)
    assert ellipse_result.possibly_incomplete is True


def test_pairs_satisfy_both_formulations(ellipse_result):
    # the stored (x, y, lam, mu) must solve the multiplier system as stored,
    # i.e. canonicalization must keep the multipliers consistent
    lag = build_lagrange_system(ELLIPSE)
    minor = build_minor_system(ELLIPSE, 1)
    for p in ellipse_result.pairs:
        point = dict(zip(lag.variables, (*p.x, *p.y, *p.lam, *p.mu)))
        for eq in lag.polynomials:
            assert abs(float(eq.eval_exact([point[v] for v in lag.variables]))) < 1e-8
        xy = [*p.x, *p.y]
        for eq in minor.polynomials:
            assert abs(float(eq.eval_exact(xy))) < 1e-8


def test_output_is_canonical(ellipse_result):
    seps = [p.separation for p in ellipse_result.pairs]
    assert seps == sorted(seps)
    keys = np.array([(*p.x, *p.y) for p in ellipse_result.pairs])
    for i, p in enumerate(ellipse_result.pairs):
        assert p.separation > SEP_THRESHOLD
        # x lexicographically before y at the cluster tolerance
        for a, b in zip(p.x, p.y):
            if abs(a - b) > CLUSTER_RADIUS:
                assert a < b
                break
        for j in range(i + 1, len(keys)):
            assert np.linalg.norm(keys[i] - keys[j]) > CLUSTER_RADIUS


# The per-row canonicalization, tuple sort and greedy dedup loop that
# _distinct_pairs replaced, kept as the reference: it must keep the same
# pairs, with the same bits, in the same order.


def _canonical_pair(x, y, tol):
    """True if (x, y) is already in canonical order: x before y in a
    tolerance-aware lexicographic comparison."""
    for a, b in zip(x, y):
        if abs(a - b) > tol:
            return a < b
    return True


def reference_distinct_pairs(z, res, sep, n, radius):
    k = (z.shape[1] - 2 * n) // 2
    candidates = []
    for row, r, s in zip(z, res, sep):
        x, y = row[:n].copy(), row[n : 2 * n].copy()
        lam, mu = row[2 * n : 2 * n + k].copy(), row[2 * n + k :].copy()
        if not _canonical_pair(x, y, radius):
            x, y, lam, mu = y, x, -mu, -lam
        candidates.append(
            (
                float(s),
                tuple(map(float, x)),
                tuple(map(float, y)),
                float(r),
                tuple(map(float, lam)),
                tuple(map(float, mu)),
            )
        )
    candidates.sort()
    kept_keys = np.empty((len(candidates), 2 * n))
    kept = []
    for candidate in candidates:
        key = np.array(candidate[1] + candidate[2])
        if kept and np.linalg.norm(kept_keys[: len(kept)] - key, axis=1).min() <= radius:
            continue
        kept_keys[len(kept)] = key
        kept.append(candidate)
    return kept


def _assert_distinct_pairs_equal_reference(z, res, sep, n, radius):
    want = reference_distinct_pairs(z, res, sep, n, radius)
    zs, rs, ss = _distinct_pairs(z, res, sep, n, radius)
    k = (z.shape[1] - 2 * n) // 2
    got = [
        (s, tuple(row[:n]), tuple(row[n : 2 * n]), r, tuple(row[2 * n : 2 * n + k]), tuple(row[2 * n + k :]))
        for row, r, s in zip(zs.tolist(), rs.tolist(), ss.tolist())
    ]
    # repr tells -0.0 from 0.0 and shows every bit of a float
    assert repr(got) == repr(want)
    return got


def _candidate_rows(pairs, n, k, rng):
    """(z, residual, separation) rows for (x, y) pairs in n coordinates
    with k random multipliers for each endpoint."""
    rows = [(*x, *y, *rng.normal(size=2 * k)) for x, y in pairs]
    z = np.array(rows, dtype=float).reshape(len(rows), 2 * n + 2 * k)
    sep = np.linalg.norm(z[:, :n] - z[:, n : 2 * n], axis=1)
    return z, rng.uniform(0, 1e-10, len(z)), sep


def test_distinct_pairs_mirrored_coordinates_within_radius():
    # x and y agree to within the radius in the first coordinate, so the
    # second decides the orientation; every pair is found in both
    # orientations and with noise below the radius
    rng = np.random.default_rng(1)
    r = 1e-6
    pairs = []
    for base in ((0.0, -1.0, 0.0, 1.0), (0.3, 0.5, 0.3 + 0.4 * r, -0.5), (-0.0, 2.0, 0.0, -2.0)):
        for _ in range(4):
            x, y = np.array(base[:2]), np.array(base[2:])
            x, y = x + rng.uniform(-0.3, 0.3, 2) * r, y + rng.uniform(-0.3, 0.3, 2) * r
            pairs += [(x, y), (y, x)]
    z, res, sep = _candidate_rows(pairs, 2, 1, rng)
    got = _assert_distinct_pairs_equal_reference(z, res, sep, 2, r)
    assert len(got) == 3
    for _, x, y, _, lam, mu in got:
        assert _canonical_pair(x, y, r)


def test_distinct_pairs_neighbours_at_exactly_the_radius():
    # keys 3 and 4 units apart in two coordinates are exactly 5 units apart:
    # a neighbour at the radius is dropped, one an ulp of 0.5 beyond it kept
    unit = 2.0**-22
    radius = 5 * unit
    rng = np.random.default_rng(2)
    x0, y0 = np.array([-1.0, 0.25, 0.5]), np.array([1.0, 0.75, -0.5])
    for extra, expect in ((0.0, 1), (2.0**-52, 2)):
        pairs = [(x0, y0), (x0 + (0.0, 3 * unit, 4 * unit + extra), y0)]
        z, res, sep = _candidate_rows(pairs, 3, 2, rng)
        sep[:] = 2.0  # tied separations: the sort falls through to x and y
        distance = np.linalg.norm(z[1, :6] - z[0, :6])
        assert distance == radius if expect == 1 else distance > radius
        got = _assert_distinct_pairs_equal_reference(z, res, sep, 3, radius)
        assert len(got) == expect


@pytest.mark.parametrize("count", [0, 1])
def test_distinct_pairs_single_row_and_empty_set(count):
    rng = np.random.default_rng(3)
    pairs = [(np.array([1.0, -2.0]), np.array([-1.0, 2.0]))][:count]
    z, res, sep = _candidate_rows(pairs, 2, 1, rng)
    got = _assert_distinct_pairs_equal_reference(z, res, sep, 2, 1e-6)
    assert len(got) == count
    if count:
        # swapped: x and y exchange, and so do the multipliers, negated
        (_, x, y, _, lam, mu), = got
        assert (x, y) == ((-1.0, 2.0), (1.0, -2.0))
        assert (lam, mu) == ((-z[0, 5],), (-z[0, 4],))


@pytest.mark.parametrize("seed", range(4))
def test_distinct_pairs_equal_reference_on_clusters(seed):
    # clusters of near-duplicates around a few pairs, in both orientations,
    # some at mirrored coordinates, for hypersurfaces and codimension 2
    rng = np.random.default_rng(seed)
    for n, k in ((2, 1), (3, 1), (3, 2), (5, 1)):
        radius = 1e-6
        centres = rng.integers(-2, 3, (6, 2, n)).astype(float)
        pairs = []
        for x, y in centres[rng.integers(0, 6, 80)]:
            noise = rng.uniform(-1, 1, (2, n)) * radius * rng.choice([0.0, 0.3, 1.0, 3.0])
            pair = (x + noise[0], y + noise[1])
            pairs.append(pair if rng.random() < 0.5 else pair[::-1])
        z, res, sep = _candidate_rows(pairs, n, k, rng)
        _assert_distinct_pairs_equal_reference(z, res, sep, n, radius)


def test_greedy_keep():
    keys = np.array([[0.0], [0.5], [1.0], [1.4], [3.0], [2.5]])
    assert _greedy_keep(keys, 1.0).tolist() == [0, 3, 4]
    assert _greedy_keep(keys, 0.1).tolist() == list(range(6))
    assert _greedy_keep(np.zeros((0, 3)), 1.0).tolist() == []


def _missed_pinned_pairs(workloads, anchor, seed):
    """The isolated pairs pinned for a perfbench solve anchor (name, text,
    density, degrees) in perfbench/reference/solve.json that a solve at the
    anchor's density and this sampling seed does not find within 1e-6, in
    either orientation, and the number pinned."""
    name, text, density, _ = anchor
    reference = workloads.load_reference("solve")
    fs = list(parse_system_text(text).polynomials)
    result = find_bottlenecks(fs, SolverConfig(density=density, seed=seed))
    n = fs[0].nvars
    found = np.array([p.x + p.y for p in result.pairs if p.isolated]).reshape(-1, 2 * n)
    pinned = reference[f"{name} seed0"]
    missed = []
    for want in pinned:
        want = np.array(want)
        flipped = np.concatenate([want[n:], want[:n]])
        dist = np.minimum(
            np.linalg.norm(found - want, axis=1), np.linalg.norm(found - flipped, axis=1)
        )
        if not (dist <= 1e-6).any():
            missed.append(want.tolist())
    return missed, len(pinned)


def test_perfbench_anchor_pairs_are_found(perfbench_workloads):
    """Recall on the perfbench solve anchors: at each anchor's benchmark
    density and seed 0, every isolated pair pinned in
    perfbench/reference/solve.json is found within 1e-6, in either
    orientation."""
    for anchor in perfbench_workloads.SOLVE_ANCHORS:
        missed, _ = _missed_pinned_pairs(perfbench_workloads, anchor, 0)
        assert not missed, f"{anchor[0]}: pinned pairs {missed} not found"


@pytest.mark.parametrize("seed, found", [(13, 32), (18, 29)])
def test_step_floor_keeps_trott_pairs(perfbench_workloads, seed, found):
    """Trott's quartic at its benchmark density finds 32 and 29 of the 35
    seed-0 pinned pairs at sampling seeds 13 and 18, the counts of a
    search down to 2^-30.  A floor of 2^-13 loses one of them at seed 18,
    and one of 2^-11 (no third block) one at each seed."""
    (trott,) = (a for a in perfbench_workloads.SOLVE_ANCHORS if a[0] == "trott")
    missed, pinned = _missed_pinned_pairs(perfbench_workloads, trott, seed)
    assert pinned - len(missed) == found


def test_fixed_seed_is_deterministic():
    first = find_bottlenecks(ELLIPSE, FAST)
    second = find_bottlenecks(ELLIPSE, FAST)
    assert first.pairs == second.pairs
    assert first.diagnostics == second.diagnostics


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 + 1, 2**130])
@pytest.mark.parametrize("count", [0, 1, 1100])
def test_jitter_stream_equals_numpy_random(seed, count):
    """The sampling jitter is np.random.default_rng(seed).uniform(-1, 1)
    bit for bit (1,100 doubles: more than the 1,029 of a 7^3 grid)."""
    want = np.random.default_rng(seed).uniform(-1, 1, count)
    assert np.array(solver._uniform(seed, count), dtype=float).tobytes() == want.tobytes()


def test_negative_seed_is_refused():
    with pytest.raises(ValueError, match="non-negative"):
        sample_variety(ELLIPSE, SolverConfig(density=8, seed=-1))


def test_zero_start_path_reports_zero_counts():
    empty = find_bottlenecks([parse_poly("x1^2 + x2^2 + 1", V2)], FAST)  # no real points
    assert empty.pairs == ()
    assert empty.diagnostics["start_pairs"] == 0
    # the same keys as a run with start pairs, every count zero
    assert list(empty.diagnostics) == list(find_bottlenecks(ELLIPSE, FAST).diagnostics)
    assert set(empty.diagnostics.values()) == {0}


def test_central_symmetry_preserved(ellipse_result):
    # the ellipse is symmetric under v -> -v, so the set of unordered pairs
    # must be too
    keys = [np.array((*p.x, *p.y)) for p in ellipse_result.pairs]
    for p in ellipse_result.pairs:
        mirrored = np.array((*[-v for v in p.y], *[-v for v in p.x]))
        assert any(np.linalg.norm(mirrored - k) < 1e-6 for k in keys)


def test_real_count_within_complex_bound(ellipse_result):
    bound = bnd_variety(VarietySpec(2, (2,), affine=True))
    assert bound == 4
    assert sum(p.isolated for p in ellipse_result.pairs) <= bound // 2


def test_input_validation():
    with pytest.raises(ValueError):
        find_bottlenecks([])
    with pytest.raises(ValueError):
        find_bottlenecks(ELLIPSE * 3)
    f = parse_poly("x1^2 - 1", ("x1",))
    with pytest.raises(ValueError):
        find_bottlenecks([f])
    # the variable counts are checked before the dimension, in either order
    mixed = [parse_poly("x1^2 + x2^2 - 1", V2), parse_poly("x1 + x2 + x3", V3)]
    for fs in (mixed, mixed[::-1]):
        with pytest.raises(ValueError, match="defining polynomials disagree on variable count"):
            find_bottlenecks(fs)


# ---------------------------------------------------------------------------
# isolation and the narrowest bottleneck
# ---------------------------------------------------------------------------


def _pair(x, y, lam, mu, isolated=True):
    x, y = tuple(map(float, x)), tuple(map(float, y))
    sep = math.dist(x, y)
    return BottleneckPair(x, y, sep, 0.0, tuple(lam), tuple(mu), isolated)


def test_spheroid_continuum_is_not_isolated():
    system = build_lagrange_system(SPHEROID)
    on_circle = _pair((0, 2, 0), (0, -2, 0), (1.0,), (-1.0,))
    assert classify_isolation(on_circle, system) is False
    on_axis = _pair((1, 0, 0), (-1, 0, 0), (0.25,), (-0.25,))
    assert classify_isolation(on_axis, system) is True


def test_ellipse_pairs_are_isolated():
    system = build_lagrange_system(ELLIPSE)
    axis = _pair((-1, 0), (1, 0), (1.0,), (-1.0,))
    assert classify_isolation(axis, system) is True


def test_classify_isolation_checks_shape():
    system = build_lagrange_system(ELLIPSE)
    bad = _pair((0, 2, 0), (0, -2, 0), (1.0,), (-1.0,))
    with pytest.raises(ValueError):
        classify_isolation(bad, system)


def test_narrowest_bottleneck(ellipse_result):
    best = narrowest_bottleneck(ellipse_result.pairs)
    assert best.separation == pytest.approx(2.0, abs=1e-8)
    assert np.allclose(best.x, (-1.0, 0.0), atol=1e-8)


def test_narrowest_skips_non_isolated_and_rejects_empty():
    lone = _pair((0, -1), (0, 1), (1.0,), (-1.0,))
    assert narrowest_bottleneck([lone]) is lone
    fuzzy = _pair((0, -2), (0, 2), (1.0,), (-1.0,), isolated=False)
    assert narrowest_bottleneck([fuzzy, lone]) is lone
    with pytest.raises(ValueError):
        narrowest_bottleneck([fuzzy])
    with pytest.raises(ValueError):
        narrowest_bottleneck([])


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def test_result_json_shape(ellipse_result):
    payload = result_json(ellipse_result)
    assert payload["possibly_incomplete"] is True
    assert payload["diagnostics"]["samples"] > 0
    assert len(payload["pairs"]) == 2
    entry = payload["pairs"][0]
    assert set(entry) == {"x", "y", "separation", "residual", "isolated"}
    assert entry["separation"] == pytest.approx(2.0, abs=1e-8)


def test_result_table_lists_every_pair(ellipse_result):
    table = result_table(ellipse_result)
    lines = table.splitlines()
    assert len(lines) == 2 + len(ellipse_result.pairs)
    assert "possibly_incomplete=True" in lines[-1]
    assert "True" in lines[1]
    assert "converged" not in table


def test_plot_data_roundtrip(ellipse_result):
    body = plot_data(ellipse_result)
    rows = [r for r in body.splitlines() if not r.startswith("#")]
    assert len(rows) == len(ellipse_result.pairs)
    parsed = np.array([[float(v) for v in r.split()] for r in rows])
    expect = np.array([(*p.x, *p.y) for p in ellipse_result.pairs])
    assert np.array_equal(parsed, expect)
