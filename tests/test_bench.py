"""Empirical scaling of the evaluation loop.

Wall-time ratio bands are deliberately wide: they assert the asymptotic
shape (quadratic in the surface count, linear in the dimension), not exact
constants.
"""

import time

import numpy as np

from nsflow.bderiv import b_evaluate
from nsflow.oracle import lazy_corner_model


def median_call_times(*sizes: tuple[int, int, int], seed: int = 7) -> list[float]:
    """Median wall time of one call at each (n, d, calls) size.

    The sizes' calls alternate in one loop, so a slow stretch of the host
    hits every size alike and cancels out of the ratios.
    """
    runs = []
    for n, d, calls in sizes:
        m = lazy_corner_model(seed, n, d)
        m.require_valid()
        dirs = np.random.default_rng(seed).normal(size=(32, d))
        b_evaluate(m, dirs[0])
        runs.append((m, dirs, np.empty(calls)))
    for i in range(max(calls for _, _, calls in sizes)):
        for m, dirs, times in runs:
            if i < times.size:
                v = dirs[i % 32]
                t0 = time.perf_counter()
                b_evaluate(m, v)
                times[i] = time.perf_counter() - t0
    return [float(np.median(times)) for _, _, times in runs]


def test_doubling_n_at_fixed_d_is_roughly_quadratic():
    t8, t16 = median_call_times((8, 18, 1200), (16, 18, 800))
    assert 2.5 <= t16 / t8 <= 6.0, (t8, t16)


def test_doubling_d_at_fixed_n_is_roughly_linear():
    t10, t20 = median_call_times((8, 10, 1200), (8, 20, 1200))
    assert 1.5 <= t20 / t10 <= 3.0, (t10, t20)


def test_smallest_size_recorded_but_not_asserted():
    # n=1 is setup-dominated; just record that it runs and stays sane
    (t,) = median_call_times((1, 3, 400))
    assert 0.0 < t < 0.01
