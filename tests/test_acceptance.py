"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the line-by-line
report.  Every tolerance and runtime budget is pinned here; nothing defers to
later calibration.
"""

import math
import time
import tracemalloc

import numpy as np

from nsflow.apps import (
    biped_corner_state,
    biped_model,
    mech_corner_model,
    pwc_linear_delta,
    pwc_model,
    uniform_damping,
)
from nsflow.bderiv import (
    b_evaluate,
    barycentric_piece,
    build_triangulation,
    lineality_split,
    saltation_matrix,
)
from nsflow.core import CornerModel, Permutation, all_permutations
from nsflow.oracle import (
    FD_ALPHAS,
    FD_RATIO_BAND,
    FD_STEPS,
    enumerate_saltations,
    lazy_corner_model,
    random_corner_model,
    safe_direction_scale,
    verify_b_against_sampled,
    verify_fd_convergence,
)

from conftest import reversed_surfaces


def _report(num: int, desc: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num} ({desc}): {detail}")
    assert ok, f"criterion {num} ({desc}): {detail}"


def model_population(seed: int):
    """Shared randomized population: 25 corners, n in 1..6, d in n..n+4."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(25):
        n = int(rng.integers(1, 7))
        d = n + int(rng.integers(0, 5))
        out.append(random_corner_model(rng, n, d))
    return out, rng


def test_criterion_1_linear_special_case():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for d in range(2, 7):
        for delta in (0.1, 0.5, 0.9):
            _, corner = pwc_model(d, pwc_linear_delta(d, delta))
            factor = (1.0 - delta) / (1.0 + delta)
            for _ in range(500):
                v = rng.normal(size=d)
                err = float(
                    np.linalg.norm(b_evaluate(corner, v).delta_rho_plus - factor * v)
                )
                worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(1, "linear special case", ok, f"max err {worst:.2e} (tol 1e-12), {elapsed:.2f}s (< 1s)")


def test_criterion_2_sampled_system_oracle():
    t0 = time.perf_counter()
    models, rng = model_population(2002)
    worst = 0.0
    for m in models:
        report = verify_b_against_sampled(m, 1000, rng, tol=1e-11)
        worst = max(worst, report.max_rel_error)
        assert report.ok, report.failures[:1]
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-11 and elapsed < 10.0
    _report(2, "sampled-system oracle", ok, f"25 models x 1000 dirs, max rel err {worst:.2e} (tol 1e-11), {elapsed:.1f}s (< 10s)")


def test_criterion_3_piece_agreement():
    t0 = time.perf_counter()
    models, rng = model_population(2002)
    worst = 0.0
    for m in models:
        tri = build_triangulation(m)
        split = lineality_split(m)
        mats: dict[Permutation, np.ndarray] = {}
        bary: dict[Permutation, tuple[np.ndarray, np.ndarray]] = {}
        for _ in range(1000):
            v = rng.normal(size=m.d)
            res = b_evaluate(m, v)
            sigma = res.sigma
            if sigma not in mats:
                mats[sigma] = saltation_matrix(m, sigma)
                zm, zp = barycentric_piece(m, tri, sigma, split=split)
                pinv = np.linalg.pinv(zm, rcond=1e-12) if zm.shape[1] else zm.T
                bary[sigma] = (zp, pinv)
            scale = max(1.0, float(np.max(np.abs(res.delta_rho_plus))))
            err_mat = float(np.max(np.abs(mats[sigma] @ v - res.delta_rho_plus)))
            zp, pinv = bary[sigma]
            via_bary = split.lin_map @ (split.proj_L @ v)
            if zp.shape[1]:
                via_bary = via_bary + zp @ (pinv @ (split.proj_L_perp @ v))
            err_bary = float(np.max(np.abs(via_bary - res.delta_rho_plus)))
            worst = max(worst, err_mat / scale, err_bary / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(3, "piece agreement", ok, f"saltation and barycentric routes, max rel err {worst:.2e} (tol 1e-9), {elapsed:.1f}s (< 30s)")


def test_criterion_4_fd_convergence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4004)
    assert FD_ALPHAS == (1e-2, 1e-3, 1e-4) and FD_RATIO_BAND == (5.0, 20.0) and FD_STEPS == 512
    report = verify_fd_convergence(rng, num_fields=5, num_directions=100)
    elapsed = time.perf_counter() - t0
    ok = report.ok and elapsed < 120.0
    _report(4, "flow FD convergence", ok, f"5 fields x 100 dirs, ratio band [5,20] per decade, failures {len(report.failures)}, {elapsed:.1f}s (< 120s)")


def test_criterion_5_mechanics_c1_cases():
    t0 = time.perf_counter()
    worst_penalty = 0.0
    worst_spread = 0.0

    # penalty-only: every crossing-order matrix is the identity
    from conftest import particle_model

    mm3 = particle_model(uniform_damping(0.7, 3))
    qd3 = np.array([-0.4, -0.3, -0.5])
    for mat in enumerate_saltations(
        mech_corner_model(mm3, np.zeros(3), qd3, dissipative=False)
    ).values():
        worst_penalty = max(worst_penalty, float(np.max(np.abs(mat - np.eye(6)))))
    mmb = biped_model(psi=0.1, damping_policy="uniform", beta=0.5)
    qb, qdb = biped_corner_state(psi=0.1)
    for mat in enumerate_saltations(
        mech_corner_model(mmb, qb, qdb, dissipative=False)
    ).values():
        worst_penalty = max(worst_penalty, float(np.max(np.abs(mat - np.eye(6)))))

    # dissipative with constraint-independent damping: matrices pairwise equal
    for corner in (
        mech_corner_model(mm3, np.zeros(3), qd3, dissipative=True),
        mech_corner_model(mmb, qb, qdb, dissipative=True),
    ):
        mats = list(enumerate_saltations(corner).values())
        for mat in mats[1:]:
            worst_spread = max(worst_spread, float(np.max(np.abs(mat - mats[0]))))

    elapsed = time.perf_counter() - t0
    ok = worst_penalty <= 1e-12 and worst_spread <= 1e-12 and elapsed < 5.0
    _report(5, "mechanics C1 cases", ok, f"penalty-only dev {worst_penalty:.2e}, uniform-damping spread {worst_spread:.2e} (tol 1e-12), {elapsed:.1f}s (< 5s)")


def test_criterion_6_biped_saltation_difference():
    t0 = time.perf_counter()
    beta = 0.5
    worst = 0.0
    for psi in (0.05, 0.1, 0.3):
        mm = biped_model(psi=psi, damping_policy="xor", beta=beta)
        q, qd = biped_corner_state(psi=psi)
        mats = enumerate_saltations(mech_corner_model(mm, q, qd))
        D = mats[Permutation((1, 2))] - mats[Permutation((2, 1))]
        expected = np.zeros((6, 6))
        expected[4, 0] = -4.0 * beta * math.cos(psi)
        expected[4, 2] = -2.0 * beta * (math.sin(2 * psi) + math.cos(psi))
        worst = max(worst, float(np.max(np.abs(D - expected))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(6, "biped saltation difference", ok, f"row-5 closed forms at psi in {{0.05, 0.1, 0.3}}, max dev {worst:.2e} (tol 1e-9), {elapsed:.1f}s (< 5s)")


def test_criterion_7_complexity_scaling():
    t0 = time.perf_counter()
    sizes = [2, 4, 8, 16, 32]
    calls = {2: 3000, 4: 3000, 8: 2000, 16: 1200, 32: 600}
    runs = []
    rng = np.random.default_rng(7007)
    for n in sizes:
        d = n + 2
        m = lazy_corner_model(7000 + n, n, d)
        m.require_valid()
        assert m.table is None  # no 2**n table anywhere on this path
        dirs = rng.normal(size=(64, d))
        b_evaluate(m, dirs[0])  # warm caches
        runs.append((m, dirs, np.empty(calls[n])))
    # each size's calls are spread evenly over one loop, so every stretch of
    # it times every size and a slow stretch of the host cannot tilt the fit
    loop = max(calls.values())
    for i in range(loop):
        for m, dirs, times in runs:
            k = i * times.size // loop  # this size's calls before iteration i
            if (i + 1) * times.size // loop > k:
                v = dirs[k % 64]
                s = time.perf_counter()
                b_evaluate(m, v)
                times[k] = time.perf_counter() - s
    medians = [float(np.median(times)) for _, _, times in runs]
    slope = float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])

    # auxiliary allocation: peak during one call stays far below any
    # exponential table and grows at most polynomially between n=16 and n=32
    peaks = {}
    for n in (16, 32):
        m = lazy_corner_model(7000 + n, n, n + 2)
        m.require_valid()
        v = rng.normal(size=n + 2)
        b_evaluate(m, v)
        tracemalloc.start()
        b_evaluate(m, v)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks[n] = peak
    alloc_ok = peaks[32] < 1 << 20 and peaks[32] <= 16 * max(peaks[16], 1)

    elapsed = time.perf_counter() - t0
    ok = 1.6 <= slope <= 2.6 and alloc_ok and elapsed < 120.0
    _report(7, "complexity scaling", ok, f"log-log slope {slope:.2f} (band [1.6, 2.6]), peak alloc n=32 {peaks[32]} B, {elapsed:.1f}s (< 120s)")


def test_criterion_8_invariant_suite():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(8008)

    def check(name, cond):
        if not cond:
            failures.append(name)

    for _ in range(8):
        n = int(rng.integers(1, 7))
        d = n + int(rng.integers(0, 3))
        m = random_corner_model(rng, n, d)
        v = rng.normal(size=d)
        base = b_evaluate(m, v).delta_rho_plus

        for alpha in (0.0, 0.5, 3.0):
            got = b_evaluate(m, alpha * v).delta_rho_plus
            check("homogeneity", np.allclose(got, alpha * base, rtol=1e-10, atol=1e-11))

        split = lineality_split(m)
        if d > n:
            xi = split.basis_K @ rng.normal(size=d - n)
            got = b_evaluate(m, v + xi).delta_rho_plus
            check("kernel-invariance", np.allclose(got, base + xi, rtol=1e-9, atol=1e-10))

        alpha = float(rng.normal())
        got = b_evaluate(m, v + alpha * split.f_minus).delta_rho_plus
        check(
            "flow-direction-linearity",
            np.allclose(got, base + alpha * split.f_plus, rtol=1e-9, atol=1e-10),
        )

        hi = b_evaluate(reversed_surfaces(m), v).delta_rho_plus
        check("tie-break-invariance", np.allclose(base, hi, rtol=1e-10, atol=1e-11))

        scales = rng.uniform(0.5, 4.0, size=(n, 1))
        scaled = CornerModel(m.rho, m.eta * scales, table=m.table, f_min=m.f_min * 0.1)
        got = b_evaluate(scaled, v).delta_rho_plus
        check("eta-scaling-invariance", np.allclose(got, base, rtol=1e-10, atol=1e-11))

        if n >= 2:
            tri = build_triangulation(m)
            sigmas = list(all_permutations(n))
            sigma = sigmas[int(rng.integers(0, len(sigmas)))]
            k = int(rng.integers(0, n - 1))
            order = list(sigma.order)
            order[k], order[k + 1] = order[k + 1], order[k]
            sigma2 = Permutation(tuple(order))
            shared = [b for b in tri.simplex(sigma) if b in set(tri.simplex(sigma2))]
            w = rng.uniform(0.1, 1.0, size=len(shared))
            face = sum(wi * (tri.z_minus[b] - m.rho) for wi, b in zip(w, shared))
            check(
                "face-continuity",
                np.allclose(
                    saltation_matrix(m, sigma) @ face,
                    saltation_matrix(m, sigma2) @ face,
                    rtol=1e-10,
                    atol=1e-10,
                ),
            )

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(8, "invariant suite", ok, f"{'no failures' if not failures else failures}, {elapsed:.1f}s (< 60s)")
