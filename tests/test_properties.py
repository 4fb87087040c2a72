"""Randomized structural invariants of the corner derivative.

Fixed seeds throughout; each test draws a spread of models so a regression in
any piece of the pipeline (evaluation loop, saltation products, lineality
split, vertex solve) trips at least one invariant.
"""

import numpy as np

from nsflow.bderiv import (
    b_evaluate,
    build_triangulation,
    lineality_split,
    saltation_matrix,
)
from nsflow.core import CornerModel, SignVector, all_permutations
from nsflow.oracle import random_corner_model

from conftest import reversed_surfaces


def models(seed, count=6, n_lo=1, n_hi=6):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(n_lo, n_hi + 1))
        d = n + int(rng.integers(0, 3))
        yield rng, random_corner_model(rng, n, d)


def test_positive_homogeneity():
    for rng, m in models(50):
        v = rng.normal(size=m.d)
        base = b_evaluate(m, v).delta_rho_plus
        for alpha in (0.0, 0.25, 1.0, 7.5):
            np.testing.assert_allclose(
                b_evaluate(m, alpha * v).delta_rho_plus,
                alpha * base,
                rtol=1e-11,
                atol=1e-12,
            )


def test_kernel_invariance():
    for rng, m in models(51):
        if m.d == m.n:
            continue
        split = lineality_split(m)
        v = rng.normal(size=m.d)
        xi = split.basis_K @ rng.normal(size=m.d - m.n)
        lhs = b_evaluate(m, v + xi).delta_rho_plus
        rhs = b_evaluate(m, v).delta_rho_plus + xi
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-11)


def test_flow_direction_linearity():
    for rng, m in models(52):
        f_minus = m.gamma_vec(SignVector.minus_ones(m.n))
        f_plus = m.gamma_vec(SignVector.plus_ones(m.n))
        v = rng.normal(size=m.d)
        base = b_evaluate(m, v).delta_rho_plus
        for alpha in (-2.0, -0.3, 0.7, 3.0):
            lhs = b_evaluate(m, v + alpha * f_minus).delta_rho_plus
            np.testing.assert_allclose(
                lhs, base + alpha * f_plus, rtol=1e-10, atol=1e-11
            )


def test_face_continuity_between_adjacent_cones():
    for rng, m in models(53, n_lo=2, n_hi=5):
        tri = build_triangulation(m)
        split = lineality_split(m)
        sigmas = list(all_permutations(m.n))
        sigma = sigmas[int(rng.integers(0, len(sigmas)))]
        k = int(rng.integers(0, m.n - 1))
        swapped = list(sigma.order)
        swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
        from nsflow.core import Permutation

        sigma2 = Permutation(tuple(swapped))
        shared = [b for b in tri.simplex(sigma) if b in set(tri.simplex(sigma2))]
        weights = rng.uniform(0.1, 1.0, size=len(shared))
        v = sum(
            w * (tri.z_minus[b] - m.rho) for w, b in zip(weights, shared)
        ) + split.basis_K @ rng.normal(size=m.d - m.n)
        np.testing.assert_allclose(
            saltation_matrix(m, sigma) @ v,
            saltation_matrix(m, sigma2) @ v,
            rtol=1e-10,
            atol=1e-10,
        )


def test_piece_agreement_across_all_three_routes():
    from nsflow.bderiv import barycentric_evaluate

    rng = np.random.default_rng(54)
    for _ in range(6):
        n = int(rng.integers(1, 7))
        d = n + int(rng.integers(0, 3))
        m = random_corner_model(rng, n, d)
        tri = build_triangulation(m)
        split = lineality_split(m)
        mats = {}
        for _ in range(60):
            v = rng.normal(size=d)
            res = b_evaluate(m, v)
            sigma = res.sigma
            if sigma not in mats:
                mats[sigma] = saltation_matrix(m, sigma)
            scale = max(1.0, float(np.max(np.abs(res.delta_rho_plus))))
            assert np.max(np.abs(mats[sigma] @ v - res.delta_rho_plus)) <= 1e-9 * scale
            bary = barycentric_evaluate(m, tri, sigma, v, split=split)
            assert np.max(np.abs(bary - res.delta_rho_plus)) <= 1e-9 * scale


def test_loop_runs_exactly_n_iterations():
    # sigma gains one entry per loop pass, so its length pins the trip count
    for rng, m in models(55):
        for v in (rng.normal(size=m.d), np.zeros(m.d)):
            res = b_evaluate(m, v)
            assert len(res.sigma.order) == m.n
            assert sorted(res.sigma.order) == list(range(1, m.n + 1))


def test_tie_break_direction_does_not_change_values():
    # exact ties via power-of-two data: both scan orders must agree in value;
    # numbering the surfaces backwards reverses the scan order
    m = CornerModel(np.zeros(3), np.eye(3), table=[[2.0, 2.0, 2.0]] * 8, f_min=0.5)
    rev = reversed_surfaces(m)
    rng = np.random.default_rng(56)
    for _ in range(20):
        v = np.round(rng.normal(size=3) * 4) / 4.0
        lo = b_evaluate(m, v)
        hi = b_evaluate(rev, v)
        np.testing.assert_array_equal(lo.delta_rho_plus, hi.delta_rho_plus)
    v = np.array([0.5, 0.5, 0.5])
    assert b_evaluate(m, v).sigma.order == (1, 2, 3)
    assert tuple(m.n + 1 - j for j in b_evaluate(rev, v).sigma.order) == (3, 2, 1)


def test_tie_break_on_random_models_near_ties():
    for rng, m in models(57, n_lo=2):
        rev = reversed_surfaces(m)
        for _ in range(10):
            v = rng.normal(size=m.d)
            lo = b_evaluate(m, v).delta_rho_plus
            hi = b_evaluate(rev, v).delta_rho_plus
            np.testing.assert_allclose(lo, hi, rtol=1e-10, atol=1e-12)


def test_eta_row_scaling_invariance():
    for rng, m in models(58):
        scales = 2.0 ** rng.integers(-3, 4, size=m.n)  # powers of two: exact
        scaled = CornerModel(m.rho, m.eta * scales[:, None], table=m.table, f_min=m.f_min * float(scales.min()))
        v = rng.normal(size=m.d)
        np.testing.assert_array_equal(
            b_evaluate(scaled, v).delta_rho_plus, b_evaluate(m, v).delta_rho_plus
        )
        general = CornerModel(m.rho, m.eta * rng.uniform(0.5, 3.0, size=(m.n, 1)), table=m.table, f_min=m.f_min * 0.25)
        np.testing.assert_allclose(
            b_evaluate(general, v).delta_rho_plus,
            b_evaluate(m, v).delta_rho_plus,
            rtol=1e-11,
            atol=1e-12,
        )


def test_delta_t_consistency_with_result_invariant():
    # the result must satisfy delta_rho_plus == M_sigma @ input for its sigma
    for rng, m in models(59):
        v = rng.normal(size=m.d)
        res = b_evaluate(m, v)
        np.testing.assert_allclose(
            saltation_matrix(m, res.sigma) @ v,
            res.delta_rho_plus,
            rtol=1e-10,
            atol=1e-11,
        )
