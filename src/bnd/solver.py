"""Numeric search for real bottleneck pairs.

Multistart damped Newton on the square multiplier system from
`build_lagrange_system`: sample the variety by Gauss-Newton projection of a
jittered grid, pair up the samples, initialize the multipliers by least
squares, then iterate Newton with step halving.  Converged solutions are
verified against the independent minor formulation, canonicalized as
unordered pairs, deduplicated, classified as isolated or not by the
singular values of the system Jacobian, and sorted by separation.

F and J are evaluated EVAL_CHUNK points at a time, so that the temporaries
of large batches stay in the heap instead of being faulted in again on
every call; the values are those of one product over all the points.
Least-squares steps against a single row or column (the sampling steps and
the multiplier fit of a hypersurface) are g^T / |g|^2 without an SVD; those
against two rows or columns (the same for a codimension-2 curve) are a
closed-form LQ solve, with the SVD kept for the rows it does not trust.
The sampling jitter is numpy's PCG64 stream, computed without loading
numpy.random.  Canonical orientation and the sort of the found pairs are
array operations, and deduplication, like the thinning of the samples, is
one greedy pass (_greedy_keep) that loops once per kept row.

The search is heuristic: results always carry possibly_incomplete=True and
the found count should be compared against the BND-derived complex bound,
never read as exhaustive.

Newton steps use LU with a pinv fallback for near-singular rows: a batched
solve, except that a row whose step is non-finite or huge against its
residual takes the pseudoinverse step with a relative cutoff.  Solutions
lying on positive-dimensional families (where the Jacobian is exactly
singular along the family) then still converge in the normal directions
instead of blowing up; those families are reported through finitely many
non-isolated representatives.  The step length is the first of
1, 1/2, .., 2^-15 that lowers the residual, searched in three batched
blocks after the full step.  A row that no length down to 2^-15 improves
is stalled: a shorter step changes F by too little to help the row
within NO_PROGRESS_WINDOW iterations.

A Newton row stops when it converges (residual below residual_tol / 100),
when it diverges (non-finite, or no step length lowers the residual), when
its residual did not halve over the last NO_PROGRESS_WINDOW iterations, or
at newton_max_iter.  Rows far from any real root otherwise spend the whole
iteration cap near a fixed residual.  A stopped row is final: it converged
if its residual is below residual_tol.  The rows stopped by the step-length
search, for no progress and still active at the cap are counted in the
diagnostics.
"""

from __future__ import annotations

import math
import numbers
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .ring import ClassPoly
from .systems import PolySystem, build_lagrange_system, build_minor_system

# singular values below RANK_CUTOFF * sigma_max count as zero, both for the
# Newton pseudoinverse and for the isolation flag
RANK_CUTOFF = 1e-8
# an LU step with |step| * max|J| > STEP_LIMIT * |F| marks a near-singular
# row, which takes the pseudoinverse step instead
STEP_LIMIT = 1e7
# a two-row or two-column least-squares step whose second Gram-Schmidt
# pivot is below TWO_RANK_TRUST times the first takes the SVD instead
TWO_RANK_TRUST = 1e-4
# damped Newton tries t = 1 first, then t = 2^-1..2^-3, 2^-4..2^-11 and
# 2^-12..2^-15, each block in one evaluation.  A step of t shrinks F by
# about (1 - t), so rows living on shorter steps would not halve their
# residual within NO_PROGRESS_WINDOW iterations: they stall here instead.
STEP_LENGTHS = np.ldexp(1.0, -np.arange(16))
STEP_BLOCKS = (slice(1, 4), slice(4, 12), slice(12, 16))
# a damped Newton row whose residual did not halve over this many
# iterations stops (no progress)
NO_PROGRESS_WINDOW = 20
# F and J are evaluated EVAL_CHUNK points at a time.  The temporaries of a
# batch of thousands of points go back to the system when freed and are
# faulted in again by the next call, where a chunk's are reused within the
# heap.  With glibc 2.36 a solve pass over the perfbench anchors takes about
# 1,300 minor page faults at 256 points, 5,700 at 512, and more at 1,024
# than unchunked (17,000).
EVAL_CHUNK = 256
# The sampling grid has density**n points; a larger one is refused before
# it is built.  The largest in use are 30**2 and 15**3 (the acceptance
# tests' denser retry) and 6**7 (the default in 7 coordinates).
MAX_GRID_POINTS = 10**6
# pairs within CLUSTER_RADIUS of each other are one pair; a pair (x, y) with
# |x - y| <= SEP_THRESHOLD (a start pair: twice that) is on the diagonal
CLUSTER_RADIUS = 1e-6
SEP_THRESHOLD = 1e-4
# word masks and the 128-bit LCG multiplier of numpy's PCG64 (see _uniform)
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@dataclass(frozen=True)
class SolverConfig:
    """Search parameters.  box is one (lo, hi) interval per coordinate;
    leave box/density as None for defaults chosen from the dimension
    (box (-3.5, 3.5) everywhere; density 20 for curves in the plane,
    10 in 3-space, 6 beyond).  A grid of density**n points above
    MAX_GRID_POINTS is refused, as is the default in 8 or more coordinates.

    A Newton row stops when its residual is below residual_tol / 100
    (frozen), when it is non-finite or no step length of 1, 1/2, ..,
    2^-15 lowers it (diverged), when it did not halve over the last
    NO_PROGRESS_WINDOW iterations (no progress), or after newton_max_iter
    iterations.  A row stopped for no progress or at the cap keeps its
    point, and counts as converged if its residual is below residual_tol,
    as unconverged if not."""

    box: tuple[tuple[float, float], ...] | None = None
    density: int | None = None
    newton_max_iter: int = 100
    residual_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.density, (numbers.Integral, type(None))):
            raise ValueError(f"density must be an integer, got {self.density!r}")
        if not isinstance(self.newton_max_iter, numbers.Integral):
            raise ValueError(f"newton_max_iter must be an integer, got {self.newton_max_iter!r}")
        if not isinstance(self.residual_tol, numbers.Real):
            raise ValueError(f"residual_tol must be a real number, got {self.residual_tol!r}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.density is not None and self.density < 2:
            raise ValueError("density must be >= 2")
        if not 0 < self.residual_tol < math.inf:
            raise ValueError(f"residual_tol must be positive and finite, got {self.residual_tol}")
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be >= 1")
        if self.box is not None:
            for lo, hi in self.box:
                if not (isinstance(lo, numbers.Real) and isinstance(hi, numbers.Real)):
                    raise ValueError(f"box bounds must be real numbers, got ({lo!r}, {hi!r})")
                if not (math.isfinite(lo) and math.isfinite(hi)):
                    raise ValueError(f"box bounds must be finite, got ({lo}, {hi})")
                if not lo < hi:
                    raise ValueError(f"empty box interval ({lo}, {hi})")

    def box_for(self, n: int) -> tuple[tuple[float, float], ...]:
        if self.box is not None:
            if len(self.box) != n:
                raise ValueError(f"box has {len(self.box)} intervals, need {n}")
            return self.box
        return tuple((-3.5, 3.5) for _ in range(n))

    def density_for(self, n: int) -> int:
        density = self.density if self.density is not None else {2: 20, 3: 10}.get(n, 6)
        if density**n > MAX_GRID_POINTS:
            raise ValueError(
                f"a grid of density {density} in {n} coordinates has {density}^{n} points, "
                f"above MAX_GRID_POINTS = {MAX_GRID_POINTS}"
            )
        return density


@dataclass(frozen=True)
class BottleneckPair:
    x: tuple[float, ...]
    y: tuple[float, ...]
    separation: float
    residual: float
    lam: tuple[float, ...]
    mu: tuple[float, ...]
    isolated: bool


@dataclass(frozen=True)
class SolveResult:
    pairs: tuple[BottleneckPair, ...]
    possibly_incomplete: bool
    diagnostics: dict = field(compare=False)


# ---------------------------------------------------------------------------
# compiled evaluation
# ---------------------------------------------------------------------------


class _CompiledSystem:
    """Batched evaluator for polynomials f_1..f_m and their Jacobian, built
    on one monomial table.

    Every monomial of the f_i and of their partial derivatives is one row of
    the exponent table, the monomials of the f_i first, so F needs only the
    leading rows.  Column i of the coefficient matrix holds the coefficients
    of f_i, column m + i*nvars + j those of df_i/dx_j.  At a batch of points
    one power table holds every variable's powers up to the top degree, built
    by repeated multiplication.  Each monomial is the product of its nonzero
    powers in variable order, formed as a running product one factor level
    at a time over the monomials ranked by factor count (see _power_plan),
    and F and J are one matrix product each over the monomials in table
    order, per chunk of EVAL_CHUNK points.
    """

    def __init__(self, polys: Sequence[ClassPoly], nvars: int):
        self.nvars = nvars
        self.neqs = len(polys)
        rows: dict[tuple[int, ...], int] = {}
        entries: list[tuple[int, int, float]] = []

        def add(p: ClassPoly, col: int) -> None:
            for mono, c in p.terms.items():
                entries.append((rows.setdefault(mono, len(rows)), col, float(c)))

        for i, p in enumerate(polys):
            add(p, i)
        n_f = len(rows)
        for i, p in enumerate(polys):
            for j in range(nvars):
                add(p.diff(j), self.neqs + i * nvars + j)
        exps = np.array(list(rows), dtype=np.intp).reshape(len(rows), nvars)
        coeffs = np.zeros((len(rows), self.neqs * (1 + nvars)))
        for r, c, v in entries:
            coeffs[r, c] = v
        self.f_plan = _power_plan(exps[:n_f])
        self.f_coeffs = coeffs[:n_f, : self.neqs]
        self.plan = _power_plan(exps)
        self.j_coeffs = coeffs[:, self.neqs :]

    def eval(self, pts: np.ndarray) -> np.ndarray:
        """(N, nvars) points -> (N, neqs) values, complex at complex points."""
        out = np.empty((len(pts), self.neqs), np.promote_types(pts.dtype, np.float64))
        for lo, hi in _chunks(len(pts)):
            np.matmul(_monomials(self.f_plan, pts[lo:hi]).T, self.f_coeffs, out=out[lo:hi])
        return out

    def jacobian(self, pts: np.ndarray) -> np.ndarray:
        """(N, nvars) points -> (N, neqs, nvars) partial derivatives, complex
        at complex points."""
        out = np.empty((len(pts), self.j_coeffs.shape[1]), np.promote_types(pts.dtype, np.float64))
        for lo, hi in _chunks(len(pts)):
            np.matmul(_monomials(self.plan, pts[lo:hi]).T, self.j_coeffs, out=out[lo:hi])
        return out.reshape(len(pts), self.neqs, self.nvars)


def _chunks(count: int) -> Iterator[tuple[int, int]]:
    """(lo, hi) bounds of EVAL_CHUNK points each, except that a lone last
    point joins the chunk before it.  A product of one row takes another
    BLAS routine, which rounds differently; every other row is computed as
    in one product over all the points, because chunks start at multiples
    of EVAL_CHUNK, and so of BLAS's row blocking."""
    bounds = [*range(0, count - (count > 1), EVAL_CHUNK), count]
    return zip(bounds, bounds[1:])


def _power_plan(exps: np.ndarray) -> tuple:
    """(top degree, levels, rank) for the monomials exps.  Each monomial is
    the product of its power-table rows in variable order.  Ranked by
    factor count, most first, the monomials of rank below len(levels[j])
    have a j-th factor, and levels[j] lists those table rows; rank[r] is
    the rank of exps row r."""
    nvars = exps.shape[1]
    # x_v^d is table row 1 + (d-1)*nvars + v; a constant takes row 0, the ones
    factors = [
        [1 + (d - 1) * nvars + v for v, d in enumerate(e) if d] or [0] for e in exps.tolist()
    ]
    order = sorted(range(len(factors)), key=lambda r: -len(factors[r]))
    ranked = [factors[r] for r in order]
    depth = len(ranked[0]) if ranked else 1
    levels = [np.array([f[j] for f in ranked if len(f) > j], dtype=np.intp) for j in range(depth)]
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    return int(exps.max(initial=0)), levels, rank


def _monomials(plan: tuple, pts: np.ndarray) -> np.ndarray:
    """(rows, N) values of the planned monomials at each point.

    The monomials are running products, one level of factors at a time over
    the leading ranks, so each is rounded as the left-to-right product of
    its factors in variable order; one gather puts them back in row order,
    which fixes the summation order of the matrix products after it."""
    top, levels, rank = plan
    x = pts.T
    table = np.empty((1 + top * x.shape[0], len(pts)), np.promote_types(pts.dtype, np.float64))
    table[0] = 1.0
    pw = table[1:].reshape(top, *x.shape)  # a view: pw[d-1, v] = x_v^d
    pw[:1] = x
    for d in range(1, top):
        # pw[0] holds x contiguously; x itself is a strided view of pts
        np.multiply(pw[d - 1], pw[0], out=pw[d])
    acc = table[levels[0]]
    for level in levels[1:]:
        acc[: len(level)] *= table[level]
    return acc[rank]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_variety(
    fs: Sequence[ClassPoly],
    config: SolverConfig | None = None,
    compiled: _CompiledSystem | None = None,
) -> np.ndarray:
    """Points on the real locus of f_1 = .. = f_k = 0, found by Gauss-Newton
    projection of a jittered grid over the search box.

    Returns an (N, n) array (possibly empty: an empty real locus is a valid
    outcome, not an error).  Points are deduplicated at a radius tied to the
    grid spacing so the sample is spread rather than clustered.  compiled,
    when given, is the _CompiledSystem of fs, which is then not built again.
    The jitter of grid point coordinate i is the i-th double of
    np.random.default_rng(config.seed).uniform(-1, 1), drawn by _uniform
    without loading numpy.random.
    """
    config = config or SolverConfig()
    sysc = compiled or _CompiledSystem(list(fs), fs[0].nvars)
    n = sysc.nvars
    box = config.box_for(n)
    density = config.density_for(n)

    axes = [np.linspace(lo, hi, density) for lo, hi in box]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    jitter = np.array([(hi - lo) / density for lo, hi in box]) * 0.25
    pts = grid + np.array(_uniform(int(config.seed), grid.size)).reshape(grid.shape) * jitter

    for _ in range(40):
        vals = sysc.eval(pts)
        if np.max(np.abs(vals), initial=0.0) < config.residual_tol * 1e-2:
            break
        step = _pinv_step(sysc.jacobian(pts), vals)
        # cap step length at 1: huge Gauss-Newton steps near gradient
        # degeneracies would fling points out of the box
        norm = np.linalg.norm(step, axis=1, keepdims=True)
        pts = pts - step * np.minimum(1.0, 1.0 / np.maximum(norm, 1e-30))

    vals = sysc.eval(pts)
    good = _residual(vals) < config.residual_tol
    lo = np.array([b[0] for b in box]) - 0.5
    hi = np.array([b[1] for b in box]) + 0.5
    good &= np.all((pts >= lo) & (pts <= hi), axis=1)
    pts = pts[good]
    if pts.size == 0:
        return pts.reshape(0, n)

    span = max(b[1] - b[0] for b in box)
    # surfaces carry quadratically many sample points, and the search later
    # pairs samples quadratically again; thin them harder than curves
    spread = 1.5 if n - sysc.neqs >= 2 else 3.0
    radius = max(CLUSTER_RADIUS, span / (spread * density))
    pts = pts[np.lexsort(pts.T[::-1])]
    return pts[_greedy_keep(pts, radius)]


def _uniform(seed: int, count: int) -> list[float]:
    """The first count doubles of np.random.default_rng(seed).uniform(-1, 1)
    for an int seed >= 0, bit for bit, in pure Python: numpy's SeedSequence
    seeds its PCG64, whose XSL-RR outputs give 53-bit doubles u in [0, 1),
    returned as -1 + 2u."""
    # SeedSequence: the seed's 32-bit words mixed into a pool of four
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hash_a = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * 0x931E8875 & _MASK32
        value = value * hash_a & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight 32-bit words, little-endian pairs
    hash_b, half = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * 0x58F38DED & _MASK32
        value = value * hash_b & _MASK32
        half.append(value ^ value >> 16)
    w = [half[i] | half[i + 1] << 32 for i in range(0, 8, 2)]
    # PCG64 seeding: from state 0, step, add the initial state, step
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _MASK128
    state = ((inc + (w[0] << 64 | w[1])) * _PCG_MULT + inc) & _MASK128
    out = [0.0] * count
    for i in range(count):
        state = (state * _PCG_MULT + inc) & _MASK128
        x = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        out[i] = (((x >> rot | x << 64 - rot) & _MASK64) >> 11) * 2.0**-52 - 1.0
    return out


def _greedy_keep(keys: np.ndarray, radius: float) -> np.ndarray:
    """Indices of the rows of keys that a greedy pass in row order keeps:
    each row farther than radius from every row kept before it.  Each kept
    row drops the later rows within radius of it at once, so the loop runs
    once per kept row."""
    kept = []
    rest = np.arange(len(keys))
    while rest.size:
        i, rest = rest[0], rest[1:]
        kept.append(i)
        rest = rest[np.linalg.norm(keys[rest] - keys[i], axis=1) > radius]
    return np.array(kept, dtype=np.intp)


# ---------------------------------------------------------------------------
# Newton on the square system
# ---------------------------------------------------------------------------


def _residual(vals: np.ndarray) -> np.ndarray:
    """max_i |F_i| over the last axis of vals, as np.max(np.abs(vals),
    axis=-1) gives it (nan included), by one np.maximum per equation: numpy
    reduces a short last axis row by row, about ten times slower."""
    res = np.abs(vals[..., 0])
    for i in range(1, vals.shape[-1]):
        np.maximum(res, np.abs(vals[..., i]), out=res)
    return res


def _pinv_step(jac: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Least-squares steps pinv(J) F, singular values below RANK_CUTOFF
    times the largest counted as zero.  A single-row or single-column J = g
    has one singular value |g|, which the relative cutoff always keeps: its
    pinv is g^T / |g|^2, and zero where g = 0, with no SVD.  A J of two rows
    or two columns takes the closed form of _two_rank_step, except on the
    rows that form does not trust; those, and every wider J, take the
    batched SVD of np.linalg.pinv."""
    if 1 not in jac.shape[1:]:
        if 2 not in jac.shape[1:]:
            return _svd_step(jac, vals)
        step, trusted = _two_rank_step(jac, vals)
        if not trusted.all():
            step[~trusted] = _svd_step(jac[~trusted], vals[~trusted])
        return step
    g = jac[:, 0] if jac.shape[1] == 1 else jac[:, :, 0]
    # g / |g|^2 = h / (m |h|^2) for h = g / m: scaled by its largest entry m,
    # |h|^2 neither under- nor overflows
    m = np.abs(g).max(axis=1, keepdims=True)
    m[m == 0] = 1.0
    h = g / m
    norm2 = (h * h).sum(axis=1, keepdims=True) * m
    norm2[norm2 == 0] = np.inf
    pinv_t = h / norm2
    if jac.shape[1] == 1:
        return pinv_t * vals
    return (pinv_t * vals).sum(axis=1, keepdims=True)


def _svd_step(jac: np.ndarray, vals: np.ndarray) -> np.ndarray:
    return (np.linalg.pinv(jac, rcond=RANK_CUTOFF) @ vals[:, :, None])[:, :, 0]


def _two_rank_step(jac: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """pinv(J) F for J of two rows (the least-norm solution) or of two
    columns (the least-squares solution), and per row whether to trust it.

    An LQ solve: Gram-Schmidt on the two rows (columns), the longer first,
    then back-substitution against the 2x2 triangle l11, l21, l22; the
    normal equations would square the condition number.  A row is trusted
    when its step is finite (J and F were) and l22 >= TWO_RANK_TRUST * l11.
    Then sigma_2 / sigma_1 = l11 l22 / sigma_1^2 >= TWO_RANK_TRUST / 2, far
    above RANK_CUTOFF, so the SVD would have truncated nothing there."""
    two_rows = jac.shape[1] == 2
    # pinv(J) = pinv(J / s) / s: scaled by its largest entry s, no square
    # below under- or overflows
    s = np.abs(jac).max(axis=(1, 2))[:, None]
    u, v = (jac[:, 0], jac[:, 1]) if two_rows else (jac[:, :, 0], jac[:, :, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        u, v = u / s, v / s
        norm_u, norm_v = np.linalg.norm(u, axis=1), np.linalg.norm(v, axis=1)
        swap = (norm_v > norm_u)[:, None]
        u, v = np.where(swap, v, u), np.where(swap, u, v)
        l11 = np.maximum(norm_u, norm_v)[:, None]
        q1 = u / l11
        l21 = (q1 * v).sum(axis=1, keepdims=True)
        w = v - l21 * q1
        l22 = np.linalg.norm(w, axis=1, keepdims=True)
        q2 = w / l22
        if two_rows:
            f = np.where(swap, vals[:, ::-1], vals)
            y1 = f[:, :1] / l11
            y2 = (f[:, 1:] - l21 * y1) / l22
            step = (y1 * q1 + y2 * q2) / s
        else:
            x2 = (q2 * vals).sum(axis=1, keepdims=True) / l22
            x1 = ((q1 * vals).sum(axis=1, keepdims=True) - l21 * x2) / l11
            step = np.where(swap, np.hstack([x2, x1]), np.hstack([x1, x2])) / s
        trusted = (l22 >= TWO_RANK_TRUST * l11)[:, 0] & np.isfinite(step).all(axis=1)
    return step, trusted


def _newton_step(jac: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, int]:
    """Newton steps J^-1 F for square (N, m, m) J by batched LU, and the
    number of rows that took the pseudoinverse step instead: rows whose J is
    exactly singular, and rows whose LU step is non-finite or above
    STEP_LIMIT against the residual."""
    try:
        step = np.linalg.solve(jac, vals[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        # some J has a zero LU pivot, which is a zero determinant sign: solve
        # the other rows and leave nan in these.  Should the two ever
        # disagree, every row stays nan and takes the pseudoinverse.
        step = np.full_like(vals, np.nan)
        regular = np.linalg.slogdet(jac)[0] != 0
        with suppress(np.linalg.LinAlgError):
            step[regular] = np.linalg.solve(jac[regular], vals[regular, :, None])[:, :, 0]
    with np.errstate(invalid="ignore", over="ignore"):
        scale = np.linalg.norm(step, axis=1) * np.abs(jac).max(axis=(1, 2))
        # written as not-below so that a nan or inf step falls back too
        wild = ~(scale <= STEP_LIMIT * np.linalg.norm(vals, axis=1))
    if wild.any():
        step[wild] = _pinv_step(jac[wild], vals[wild])
    return step, int(wild.sum())


def _step_length(
    sysc: _CompiledSystem, z: np.ndarray, step: np.ndarray, cur_res: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Damped update of each row of z: z - t*step for the first t of
    STEP_LENGTHS (1, 1/2, .., 2^-15) whose residual is below cur_res, with
    F there, that residual, and the number of points at which F was
    evaluated.  A row that no t down to 2^-15 improves, or whose full step
    has a nan residual, is stalled and carries nan."""
    best = z - step
    best_vals = sysc.eval(best)
    best_res = _residual(best_vals)
    evaluated = len(best)
    search = np.flatnonzero(best_res >= cur_res)
    for block in STEP_BLOCKS:
        if not search.size:
            break
        t = STEP_LENGTHS[block, None]
        cand = z[search, None] - t * step[search, None]  # (rows, len(t), nvars)
        evaluated += len(search) * len(t)
        cand_vals = sysc.eval(cand.reshape(-1, z.shape[1])).reshape(len(search), len(t), -1)
        cand_res = _residual(cand_vals)
        hit = cand_res < cur_res[search, None]
        first = hit.argmax(axis=1)
        found = hit[np.arange(len(search)), first]
        rows, pick = search[found], first[found]
        best[rows] = cand[found, pick]
        best_vals[rows] = cand_vals[found, pick]
        best_res[rows] = cand_res[found, pick]
        search = search[~found]
    stalled = ~(best_res < cur_res)
    best[stalled] = best_vals[stalled] = best_res[stalled] = np.nan
    return best, best_vals, best_res, evaluated


def _newton_batch(
    sysc: _CompiledSystem, z0: np.ndarray, config: SolverConfig
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Damped Newton from each row of z0.  Returns (solutions, residuals,
    counts); rows that diverged carry nan.  The counts are the iterations
    run, the row steps that took the pseudoinverse, the rows the
    step-length search stopped (stalled), the rows stopped for making no
    progress, the rows still active at the iteration cap, and the points
    at which F and J were evaluated.  F is evaluated once per point: each
    step reuses the values the step-length search kept."""
    z = z0.copy()
    n_pts = z.shape[0]
    counts = dict.fromkeys(
        (
            "newton_iterations",
            "step_fallbacks",
            "stalled",
            "no_progress",
            "iteration_cap",
            "eval_points",
            "jacobian_points",
        ),
        0,
    )
    if n_pts == 0:
        return z, np.zeros(0), counts
    vals = sysc.eval(z)
    counts["eval_points"] = n_pts
    res = _residual(vals)
    active = np.ones(n_pts, dtype=bool)
    freeze_tol = config.residual_tol * 1e-2
    window = NO_PROGRESS_WINDOW
    # past[k % window] holds the residuals after step k until step k + window
    past = np.empty((window, n_pts))

    for k in range(config.newton_max_iter + 1):
        active &= res > freeze_tol
        active &= np.isfinite(res)
        # at the cap the loop ends anyway: rows still active count there
        if window <= k < config.newton_max_iter:
            stuck = active & (res > 0.5 * past[k % window])
            counts["no_progress"] += int(stuck.sum())
            active &= ~stuck
        past[k % window] = res
        if k == config.newton_max_iter or not active.any():
            break
        za = z[active]
        step, wild = _newton_step(sysc.jacobian(za), vals[active])
        counts["step_fallbacks"] += wild
        z[active], vals[active], res[active], evaluated = _step_length(
            sysc, za, step, res[active]
        )
        # a step the search keeps lowers a finite residual: nan means stalled
        counts["stalled"] += int(np.isnan(res[active]).sum())
        counts["jacobian_points"] += len(za)
        counts["eval_points"] += evaluated

    counts["newton_iterations"] = k
    counts["iteration_cap"] = int(active.sum())
    return z, res, counts


def _distinct_pairs(
    z: np.ndarray, res: np.ndarray, sep: np.ndarray, n: int, radius: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows (x, y, lam, mu) of z as distinct unordered pairs, with their
    residuals and separations.  Each row is put in canonical order, x before
    y in a lexicographic comparison that skips coordinates within radius of
    each other (noise-stable for pairs with mirrored coordinates).  The rows
    are sorted as the tuples (separation, x, y, residual, lam, mu), and a
    row is kept unless its endpoints lie within radius of a kept row's."""
    x, y = z[:, :n], z[:, n : 2 * n]
    apart = np.abs(x - y) > radius
    first = apart.argmax(axis=1)
    at = np.arange(len(z)), first
    swap = apart[at] & (x[at] > y[at])
    k = (z.shape[1] - 2 * n) // 2
    lam, mu = z[:, 2 * n : 2 * n + k], z[:, 2 * n + k :]
    # both multiplier blocks are written against x - y, so swapping the
    # endpoints negates and exchanges the multipliers
    z = np.where(swap[:, None], np.concatenate([y, x, -mu, -lam], axis=1), z)
    # np.lexsort takes its primary key last
    order = np.lexsort(np.column_stack([sep, z[:, : 2 * n], res, z[:, 2 * n :]]).T[::-1])
    kept = order[_greedy_keep(z[order, : 2 * n], radius)]
    return z[kept], res[kept], sep[kept]


def find_bottlenecks(
    fs: Sequence[ClassPoly], config: SolverConfig | None = None
) -> SolveResult:
    """Real bottleneck pairs of the variety f_1 = ... = f_k = 0.

    Hypersurfaces and codimension-2 complete intersections (k = 1 or 2).
    Pairs are unordered, deduplicated, verified against the minor
    formulation, and sorted by separation.
    """
    config = config or SolverConfig()
    fs = list(fs)
    if not fs or len(fs) > 2:
        raise ValueError("supported inputs: 1 or 2 defining polynomials")
    n = fs[0].nvars
    if any(f.nvars != n for f in fs):
        raise ValueError("defining polynomials disagree on variable count")
    k = len(fs)
    if k >= n:
        raise ValueError("need positive-dimensional variety (k < n)")
    for i, f in enumerate(fs, start=1):
        if f.total_degree() < 1:
            raise ValueError(f"defining polynomial {i} is zero or constant")

    lag = build_lagrange_system(fs)
    minor = build_minor_system(fs, n - k)
    lag_c = _CompiledSystem(list(lag.polynomials), len(lag.variables))
    minor_c = _CompiledSystem(list(minor.polynomials), 2 * n)
    fs_c = _CompiledSystem(fs, n)

    samples = sample_variety(fs, config, fs_c)
    diagnostics = {"samples": int(len(samples))}

    idx_i, idx_j = np.triu_indices(len(samples), k=1)
    if len(idx_i):
        seps = np.linalg.norm(samples[idx_i] - samples[idx_j], axis=1)
        wide = seps > 2 * SEP_THRESHOLD
        idx_i, idx_j = idx_i[wide], idx_j[wide]
    diagnostics["start_pairs"] = int(len(idx_i))

    # with no start pairs every stage below runs on empty arrays, so the
    # diagnostics carry the same keys, all zero.
    a, b = samples[idx_i], samples[idx_j]
    # multiplier init: least-squares fit of x - y against the gradients
    grads_a = fs_c.jacobian(a).transpose(0, 2, 1)
    grads_b = fs_c.jacobian(b).transpose(0, 2, 1)
    lam0 = _pinv_step(grads_a, a - b)
    mu0 = _pinv_step(grads_b, a - b)
    z0 = np.concatenate([a, b, lam0, mu0], axis=1)

    z, res, counts = _newton_batch(lag_c, z0, config)
    diagnostics.update(counts)

    # every start ends one of three ways: converged, non-finite (diverged
    # or stalled in the step search), or finite but above residual_tol
    finite = np.isfinite(res)
    ok = finite & (res < config.residual_tol)
    diagnostics["converged"] = int(ok.sum())
    diagnostics["diverged"] = int((~finite).sum())
    diagnostics["unconverged"] = int((finite & ~ok).sum())
    z, res = z[ok], res[ok]

    x, y = z[:, :n], z[:, n : 2 * n]
    sep = np.linalg.norm(x - y, axis=1)
    off_diag = sep > SEP_THRESHOLD
    z, res, sep = z[off_diag], res[off_diag], sep[off_diag]

    # independent cross-check against the minor formulation
    if len(z):
        minor_res = _residual(minor_c.eval(z[:, : 2 * n]))
        verified = minor_res < config.residual_tol
        z, res, sep = z[verified], res[verified], sep[verified]
        res = np.maximum(res, minor_res[verified])
    diagnostics["verified"] = int(len(z))

    z, res, sep = _distinct_pairs(z, res, sep, n, CLUSTER_RADIUS)
    pairs = [
        BottleneckPair(
            x=tuple(row[:n]),
            y=tuple(row[n : 2 * n]),
            separation=s,
            residual=r,
            lam=tuple(row[2 * n : 2 * n + k]),
            mu=tuple(row[2 * n + k :]),
            isolated=bool(isolated),
        )
        for row, s, r, isolated in zip(
            z.tolist(), sep.tolist(), res.tolist(), _isolated_rows(lag_c, z)
        )
    ]
    diagnostics["pairs"] = len(pairs)
    return SolveResult(tuple(pairs), True, diagnostics)


def _isolated_rows(sysc: _CompiledSystem, zs: np.ndarray) -> np.ndarray:
    """Per row of zs, whether the square system's Jacobian there has full
    numerical rank: one Jacobian evaluation and one batched SVD for all."""
    if not len(zs):
        return np.zeros(0, dtype=bool)
    sing = np.linalg.svd(sysc.jacobian(zs), compute_uv=False)
    return sing[:, -1] >= RANK_CUTOFF * sing[:, 0]


def classify_isolation(pair: BottleneckPair, system: PolySystem) -> bool:
    """Isolation of a solution of the square multiplier system: False when
    the system Jacobian there is numerically rank-deficient (smallest
    singular value below 1e-8 times the largest), which is how solutions on
    positive-dimensional bottleneck families announce themselves."""
    zvec = np.array(pair.x + pair.y + pair.lam + pair.mu)
    if len(system.variables) != zvec.size:
        raise ValueError("pair does not match the system's variables")
    sysc = _CompiledSystem(list(system.polynomials), len(system.variables))
    return bool(_isolated_rows(sysc, zvec[None, :])[0])


def narrowest_bottleneck(pairs: Sequence[BottleneckPair]) -> BottleneckPair:
    """Minimum-separation isolated pair; half its separation bounds the
    reach from above."""
    isolated = [p for p in pairs if p.isolated]
    if not isolated:
        raise ValueError("no isolated pairs to take the narrowest of")
    return min(isolated, key=lambda p: p.separation)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def result_json(result: SolveResult) -> dict:
    return {
        "pairs": [
            {
                "x": list(p.x),
                "y": list(p.y),
                "separation": p.separation,
                "residual": p.residual,
                "isolated": p.isolated,
            }
            for p in result.pairs
        ],
        "possibly_incomplete": result.possibly_incomplete,
        "diagnostics": result.diagnostics,
    }


def result_table(result: SolveResult) -> str:
    lines = [f"{'separation':>12}  {'isolated':>8}  {'residual':>9}  pair"]
    for p in result.pairs:
        xs = "(" + ", ".join(f"{v:.6g}" for v in p.x) + ")"
        ys = "(" + ", ".join(f"{v:.6g}" for v in p.y) + ")"
        lines.append(
            f"{p.separation:12.8f}  {str(p.isolated):>8}  {p.residual:9.1e}  {xs} -- {ys}"
        )
    lines.append(
        f"{len(result.pairs)} pair(s); search is heuristic "
        f"(possibly_incomplete={result.possibly_incomplete})"
    )
    starts = result.diagnostics.get("start_pairs", 0)
    if starts and not result.diagnostics.get("converged"):
        # unlike an empty real locus, which leaves no start pairs at all
        lines.append(
            f"no start of {starts} converged; residual_tol is absolute, so a rescaled "
            "equation or a non-reduced input (a repeated factor) may be the cause"
        )
    return "\n".join(lines)


def plot_data(result: SolveResult) -> str:
    """Segment list for external plotting: one line per pair, the 2n
    endpoint coordinates separated by spaces."""
    lines = ["# segment list: x1..xn y1..yn, one bottleneck pair per line"]
    for p in result.pairs:
        lines.append(" ".join(f"{v:.17g}" for v in (*p.x, *p.y)))
    return "\n".join(lines) + "\n"
