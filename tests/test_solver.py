"""Tests for the numeric bottleneck search."""

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from bnd import solver
from bnd.engine import bnd_variety
from bnd.profiles import VarietySpec
from bnd.solver import (
    RANK_CUTOFF,
    BottleneckPair,
    SolverConfig,
    _CompiledSystem,
    _newton_batch,
    _newton_step,
    _step_length,
    _thread_count,
    classify_isolation,
    find_bottlenecks,
    narrowest_bottleneck,
    plot_data,
    result_json,
    result_table,
    sample_variety,
    write_json,
)
from bnd.systems import Poly, build_lagrange_system, build_minor_system, parse_poly

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
        {"sep_threshold": 1e-7, "cluster_radius": 1e-6},  # order flipped
        {"cluster_radius": 0.0},
        {"density": 1},
        {"residual_tol": 0.0},
        {"newton_max_iter": 0},
        {"box": ((1.0, 1.0),)},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


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
    return Poly(nvars, terms)


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
    zero, const = Poly(4, {}), Poly.const(4, Fraction(5, 2))
    no_x3 = _dense_poly(rng, 4, 3, skip=(2,))
    _assert_matches_exact([zero, const, no_x3], 4)
    _assert_matches_exact([Poly(3, {})], 3)
    _assert_matches_exact([Poly.const(2, -7), Poly(2, {})], 2)
    vals = _CompiledSystem([zero, const], 4).eval(np.ones((3, 4)))
    assert vals.tolist() == [[0.0, 2.5]] * 3


def test_evaluator_on_lagrange_system():
    lag = build_lagrange_system([parse_poly("x1^3 - 3*x1*x2^2 - x3", V3), SPHEROID[0]])
    _assert_matches_exact(list(lag.polynomials), len(lag.variables))


def test_evaluator_shared_between_threads():
    lag = build_lagrange_system(ELLIPSE)
    sysc = _CompiledSystem(list(lag.polynomials), len(lag.variables))
    rng = np.random.default_rng(3)
    batches = [rng.normal(size=(int(rng.integers(1, 60)), 6)) for _ in range(40)]

    def run(pts):
        return sysc.eval(pts), sysc.jacobian(pts)

    serial = [run(pts) for pts in batches]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(run, batches))
    for (v0, j0), (v1, j1) in zip(serial, threaded):
        assert np.array_equal(v0, v1) and np.array_equal(j0, j1)


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
    assert d.min() > cfg.cluster_radius


def test_sample_empty_real_locus():
    pts = sample_variety([parse_poly("x1^2 + x2^2 + 1", V2)])
    assert pts.shape == (0, 2)


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
    for _ in range(30):
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
    first at t = 2^-20, never improving, nan at t = 1 (stalled even though a
    shorter step would improve), a nan point, and random rows whose
    residual drops below the current one at several t of one block."""
    z = rng.uniform(-2, 2, (rows, 3))
    z[:, 2] = -1.0
    step = np.zeros_like(z)
    kind = rng.integers(0, 6, rows)
    for r, k in enumerate(kind):
        if k == 0:
            step[r, :2] = z[r, :2]
        elif k == 1:
            step[r, :2] = z[r, :2] * 2.0**20
        elif k == 2:
            step[r, :2] = -z[r, :2]
        elif k == 3:
            step[r] = (*(z[r, :2] * 0.5), -4.0)
        elif k == 4:
            z[r, 0] = np.nan
        else:
            step[r, :2] = z[r, :2] * 2.0 ** rng.uniform(0, 25)
    cur_res = np.max(np.abs(z[:, :2]), axis=1)
    cur_res[kind == 4] = 1.0
    cur_res[kind == 5] *= rng.uniform(0.2, 1.0, int((kind == 5).sum()))
    return z, step, cur_res, kind


@pytest.mark.parametrize("seed", range(4))
def test_step_length_equals_sequential_halving(seed):
    z, step, cur_res, kind = _halving_batch(np.random.default_rng(seed), 300)
    sysc = _FlaggedIdentity()
    want = _sequential_halving(sysc, z, step, cur_res)
    best, vals, res = _step_length(sysc, z, step, cur_res)
    for a, b in zip((best, res), want):
        assert np.array_equal(a, b, equal_nan=True)
    # the values returned are F at the rows kept, nan where a row stalled
    assert np.array_equal(vals, sysc.eval(best), equal_nan=True)
    assert np.all(res[kind == 0] == 0)
    assert np.array_equal(best[kind == 1], z[kind == 1] - 2.0**-20 * step[kind == 1])
    assert np.isnan(res[(kind >= 2) & (kind <= 4)]).all()
    # enough random rows are accepted inside a block for the comparison to
    # tell the first hit of a block from a later one
    assert np.isfinite(res[kind == 5]).sum() > 20


def _well_conditioned(rng, count, m):
    return rng.normal(size=(count, m, m)) + 4 * np.eye(m)


def _pinv_reference(jac, vals):
    return (np.linalg.pinv(jac, rcond=RANK_CUTOFF) @ vals[:, :, None])[:, :, 0]


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
    # is the value the previous step-length search kept
    monkeypatch.delenv("BND_THREADS", raising=False)
    calls = []
    counting = [False]
    for name in ("eval", "jacobian"):
        original = getattr(_CompiledSystem, name)

        def wrapped(self, pts, _name=name, _original=original):
            if counting[0]:
                calls.append(_name)
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
    # the damped iterations, then at most two polishing steps
    assert iterations <= len(segments) - 1 <= iterations + 2
    assert max(len(seg) for seg in segments[1:]) <= 1 + 3


def test_step_telemetry_independent_of_threads(monkeypatch):
    base = find_bottlenecks(ELLIPSE, FAST)
    monkeypatch.setenv("BND_THREADS", "3")
    threaded = find_bottlenecks(ELLIPSE, FAST)
    assert threaded.diagnostics["threads_used"] == min(3, os.cpu_count() or 1)
    for key in ("newton_iterations", "step_fallbacks", "no_progress", "iteration_cap"):
        assert threaded.diagnostics[key] == base.diagnostics[key]
    assert 1 <= base.diagnostics["newton_iterations"] <= FAST.newton_max_iter
    assert base.diagnostics["step_fallbacks"] > 0
    assert base.diagnostics["no_progress"] > 0
    empty = find_bottlenecks([parse_poly("x1^2 + x2^2 + 1", V2)], FAST)
    assert empty.diagnostics["newton_iterations"] == empty.diagnostics["step_fallbacks"] == 0


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
        # and counts as unconverged, not as diverged
        assert d["converged"] == 0
        assert d["unconverged"] == d["no_progress"] + d["iteration_cap"] > d["diverged"]


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


# ---------------------------------------------------------------------------
# the ellipse end to end
# ---------------------------------------------------------------------------


def test_ellipse_finds_both_axis_pairs(ellipse_result):
    assert len(ellipse_result) == 2
    assert all(p.isolated for p in ellipse_result)
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
    for p in ellipse_result:
        point = dict(zip(lag.variables, (*p.x, *p.y, *p.lam, *p.mu)))
        for eq in lag.polynomials:
            assert abs(float(eq.eval_exact([point[v] for v in lag.variables]))) < 1e-8
        xy = [*p.x, *p.y]
        for eq in minor.polynomials:
            assert abs(float(eq.eval_exact(xy))) < 1e-8


def test_output_is_canonical(ellipse_result):
    cfg = SolverConfig()
    seps = [p.separation for p in ellipse_result]
    assert seps == sorted(seps)
    keys = np.array([(*p.x, *p.y) for p in ellipse_result])
    for i, p in enumerate(ellipse_result):
        assert p.separation > cfg.sep_threshold
        # x lexicographically before y at the cluster tolerance
        for a, b in zip(p.x, p.y):
            if abs(a - b) > cfg.cluster_radius:
                assert a < b
                break
        for j in range(i + 1, len(keys)):
            assert np.linalg.norm(keys[i] - keys[j]) > cfg.cluster_radius


def test_fixed_seed_is_deterministic():
    first = find_bottlenecks(ELLIPSE, FAST)
    second = find_bottlenecks(ELLIPSE, FAST)
    assert first.pairs == second.pairs
    assert first.diagnostics == second.diagnostics


def test_thread_count_does_not_change_output(monkeypatch):
    base = find_bottlenecks(ELLIPSE, FAST)
    monkeypatch.setenv("BND_THREADS", "3")
    threaded = find_bottlenecks(ELLIPSE, FAST)
    assert threaded.diagnostics["threads"] == 3
    assert threaded.pairs == base.pairs


def test_threads_used_counts_the_workers_that_ran(monkeypatch):
    base = find_bottlenecks(ELLIPSE, FAST)
    assert base.diagnostics["threads"] == 1 and base.diagnostics["threads_used"] == 1
    monkeypatch.setenv("BND_THREADS", "3")
    workers = min(3, os.cpu_count() or 1)
    threaded = find_bottlenecks(ELLIPSE, FAST)
    assert threaded.diagnostics["start_pairs"] >= 2 * workers
    assert threaded.diagnostics["threads"] == 3
    assert threaded.diagnostics["threads_used"] == workers


def test_zero_start_path_reports_threads(monkeypatch):
    monkeypatch.setenv("BND_THREADS", "2")
    empty = find_bottlenecks([parse_poly("x1^2 + x2^2 + 1", V2)], FAST)  # no real points
    assert empty.pairs == ()
    assert empty.diagnostics["start_pairs"] == 0
    assert empty.diagnostics["threads"] == 2
    assert empty.diagnostics["threads_used"] == 1
    # the same keys as a run with start pairs, every count zero
    assert list(empty.diagnostics) == list(find_bottlenecks(ELLIPSE, FAST).diagnostics)
    counts = {k: v for k, v in empty.diagnostics.items() if not k.startswith("threads")}
    assert set(counts.values()) == {0}


def test_thread_count_capped_at_cpu_count(monkeypatch):
    # the setting is kept for the diagnostics; only the worker count is capped
    monkeypatch.setenv("BND_THREADS", "100000")
    assert _thread_count() == (100000, os.cpu_count() or 1)
    monkeypatch.setenv("BND_THREADS", "")
    assert _thread_count() == (1, 1)


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_thread_count_is_rejected_by_name(monkeypatch, value):
    monkeypatch.setenv("BND_THREADS", value)
    with pytest.raises(ValueError, match="BND_THREADS"):
        find_bottlenecks(ELLIPSE, FAST)


def test_central_symmetry_preserved(ellipse_result):
    # the ellipse is symmetric under v -> -v, so the set of unordered pairs
    # must be too
    keys = [np.array((*p.x, *p.y)) for p in ellipse_result]
    for p in ellipse_result:
        mirrored = np.array((*[-v for v in p.y], *[-v for v in p.x]))
        assert any(np.linalg.norm(mirrored - k) < 1e-6 for k in keys)


def test_real_count_within_complex_bound(ellipse_result):
    bound = bnd_variety(VarietySpec(2, (2,), affine=True))
    assert bound == 4
    assert sum(p.isolated for p in ellipse_result) <= bound // 2


def test_input_validation():
    with pytest.raises(ValueError):
        find_bottlenecks([])
    with pytest.raises(ValueError):
        find_bottlenecks(ELLIPSE * 3)
    f = parse_poly("x1^2 - 1", ("x1",))
    with pytest.raises(ValueError):
        find_bottlenecks([f])


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
    best, sep = narrowest_bottleneck(ellipse_result.pairs)
    assert sep == pytest.approx(2.0, abs=1e-8)
    assert np.allclose(best.x, (-1.0, 0.0), atol=1e-8)


def test_narrowest_skips_non_isolated_and_rejects_empty():
    lone = _pair((0, -1), (0, 1), (1.0,), (-1.0,))
    assert narrowest_bottleneck([lone])[0] is lone
    fuzzy = _pair((0, -2), (0, 2), (1.0,), (-1.0,), isolated=False)
    best, sep = narrowest_bottleneck([fuzzy, lone])
    assert best is lone and sep == pytest.approx(2.0)
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
    assert len(lines) == 2 + len(ellipse_result)
    assert "possibly_incomplete=True" in lines[-1]
    assert "True" in lines[1]
    assert "converged" not in table


def test_plot_data_roundtrip(ellipse_result):
    body = plot_data(ellipse_result)
    rows = [r for r in body.splitlines() if not r.startswith("#")]
    assert len(rows) == len(ellipse_result)
    parsed = np.array([[float(v) for v in r.split()] for r in rows])
    expect = np.array([(*p.x, *p.y) for p in ellipse_result])
    assert np.array_equal(parsed, expect)


def test_write_json(tmp_path, ellipse_result):
    out = tmp_path / "pairs.json"
    write_json(ellipse_result, out)
    import json

    loaded = json.loads(out.read_text())
    assert loaded == result_json(ellipse_result)
