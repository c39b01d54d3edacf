"""The calibration work: the unit in which the benchmark reports time.

On a small shared host the speed of a processor changes by up to 1.8x
within tens of seconds, and a pass of bnd takes seconds.  A worker
therefore runs this fixed work between operations, on the same processor,
and each operation's latency is divided by the mean duration of the
calibration runs just before and just after it.  The quotient is in `cal`:
one cal is the duration of `work()` at that moment.  A change to bnd moves
a time in cal by the same share as the same time in seconds; a change of
machine speed moves both alike and cancels.

The work imports nothing from bnd and calls nothing the tracer wraps.  It
mixes the two kinds of work the benchmark times: a truncated series
inverse of a Fraction polynomial kept in a dict, as in the exact engine's
`invert_unit`, and batched monomial evaluation and small matrix products
over points, as in the solver.  It lasts about 40 ms on a 2.1 GHz Xeon.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

import numpy as np

_EXPONENTS = np.array(
    [e for e in itertools.product(range(5), repeat=3) if sum(e) <= 4], dtype=np.int64
)
_COEFFS = np.linspace(-1.0, 1.0, len(_EXPONENTS))
_POINTS = np.linspace(-1.5, 1.5, 3 * 256).reshape(256, 3)
_MATRICES = np.linspace(0.5, 1.5, 256 * 9).reshape(256, 3, 3)
_SERIES_DEGREE = 13
_UNIT = {
    (i, j): Fraction(i + 2 * j + 1, i + j + 3) for i in range(4) for j in range(4) if 0 < i + j <= 3
}


def work() -> tuple[dict, np.ndarray]:
    # the inverse of 1 - u for a bivariate polynomial u, as the series
    # 1 + u + u^2 + ... truncated above total degree _SERIES_DEGREE
    inverse = {(0, 0): Fraction(1)}
    power = {(0, 0): Fraction(1)}
    for _ in range(_SERIES_DEGREE):
        product: dict[tuple[int, int], Fraction] = {}
        for (a, b), c1 in power.items():
            for (p, q), c2 in _UNIT.items():
                if a + b + p + q <= _SERIES_DEGREE:
                    key = (a + p, b + q)
                    product[key] = product.get(key, 0) + c1 * c2
        power = product
        for key, c in power.items():
            inverse[key] = inverse.get(key, 0) + c
    pts = _POINTS
    for _ in range(12):
        vals = np.prod(pts[:, None, :] ** _EXPONENTS[None, :, :], axis=2) @ _COEFFS
        step = (_MATRICES @ pts[:, :, None])[:, :, 0]
        pts = pts - 1e-3 * step * np.minimum(1.0, 1.0 / np.maximum(np.abs(vals), 1.0))[:, None]
    return inverse, pts


def timed() -> float:
    """Seconds that one run of work() takes now."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0
