import numpy as np
import pytest

from nsflow.bderiv import (
    b_evaluate,
    barycentric_evaluate,
    barycentric_piece,
    build_triangulation,
    lineality_split,
    locate_cone,
    saltation_matrix,
    saltation_single,
    zeta_points,
)
from nsflow.core import CornerModel, Permutation, SignVector, all_sign_vectors
from nsflow.errors import CapExceeded, DegenerateDenominator
from nsflow.oracle import random_corner_model
from nsflow.sampled import rho_minus, rho_plus, sampled_flow


def const_model(n, d, vec, f_min=0.5):
    table = {b: np.asarray(vec, dtype=float) for b in all_sign_vectors(n)}
    return CornerModel.create(rho=np.zeros(d), eta=np.eye(d)[:n], gamma=table, f_min=f_min)


def pwc_linear_corner(d, delta):
    from nsflow.apps import pwc_linear_delta, pwc_model

    return pwc_model(d, pwc_linear_delta(d, delta))[1]


# -- b_evaluate ----------------------------------------------------------------


def test_continuous_field_gives_identity():
    m = const_model(2, 2, [1.0, 1.0])
    res = b_evaluate(m, [0.3, -0.7])
    np.testing.assert_allclose(res.delta_rho_plus, [0.3, -0.7], atol=1e-15)


def test_pwc_linear_half_contracts_by_one_third():
    m = pwc_linear_corner(2, 0.5)
    res = b_evaluate(m, [0.6, -0.9])
    np.testing.assert_allclose(res.delta_rho_plus, [0.2, -0.3], atol=1e-15)


def test_matches_sampled_flow_oracle_random_n3():
    rng = np.random.default_rng(42)
    m = random_corner_model(rng, 3, 3, kernel_scale=0.0)
    rm, rp = rho_minus(m), rho_plus(m)
    for _ in range(50):
        drho = rng.normal(size=3) * 0.02
        expected = sampled_flow(m, 1.0, rm + drho) - rp
        np.testing.assert_allclose(
            b_evaluate(m, drho).delta_rho_plus, expected, atol=1e-13
        )


def test_result_satisfies_own_saltation_matrix():
    rng = np.random.default_rng(1)
    m = random_corner_model(rng, 4, 6)
    for _ in range(20):
        drho = rng.normal(size=6)
        res = b_evaluate(m, drho)
        np.testing.assert_allclose(
            saltation_matrix(m, res.sigma) @ drho,
            res.delta_rho_plus,
            rtol=1e-10,
            atol=1e-12,
        )


def test_sigma_has_exactly_n_distinct_entries():
    rng = np.random.default_rng(2)
    m = random_corner_model(rng, 5, 7)
    for drho in [rng.normal(size=7), np.zeros(7)]:
        res = b_evaluate(m, drho)
        assert sorted(res.sigma.order) == [1, 2, 3, 4, 5]


def test_zero_direction_maps_to_zero():
    m = pwc_linear_corner(3, 0.3)
    res = b_evaluate(m, np.zeros(3))
    np.testing.assert_array_equal(res.delta_rho_plus, np.zeros(3))
    assert res.delta_t == 0.0


# -- locate_cone ---------------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_direction_rejected(bad):
    with pytest.raises(ValueError, match="non-finite"):
        b_evaluate(pwc_linear_corner(2, 0.5), [bad, 1.0])


def test_locate_cone_hand_case():
    m = const_model(2, 2, [1.0, 1.0])
    assert locate_cone(m, [-1.0, 1.0]).order == (2, 1)


def test_locate_cone_lineality_ray_tie_breaks_lexicographic():
    # exact ties: power-of-two gamma entries make every tau identical
    m = const_model(3, 3, [2.0, 2.0, 2.0])
    g_minus = m.gamma_vec(SignVector.minus_ones(3))
    assert locate_cone(m, 0.25 * g_minus).order == (1, 2, 3)


def test_locate_cone_matches_simplex_interior():
    rng = np.random.default_rng(3)
    m = random_corner_model(rng, 4, 5)
    tri = build_triangulation(m)
    from nsflow.core import all_permutations

    for sigma in list(all_permutations(4))[::5]:
        weights = rng.uniform(0.2, 1.0, size=4)
        drho = sum(
            w * (tri.z_minus[sigma.prefix_sign(k)] - m.rho)
            for k, w in zip(range(1, 5), weights)
        )
        located = locate_cone(m, drho)
        # the value is what matters on shared faces; interior picks sigma itself
        np.testing.assert_allclose(
            saltation_matrix(m, located) @ drho,
            saltation_matrix(m, sigma) @ drho,
            rtol=1e-9,
            atol=1e-11,
        )
        assert located == sigma


# -- saltation_single ----------------------------------------------------------


def test_saltation_single_identity_for_continuous_field():
    M = saltation_single([1.0, 2.0], [1.0, 2.0], [0.3, 0.4])
    np.testing.assert_array_equal(M, np.eye(2))


def test_saltation_single_hand_value():
    M = saltation_single([1.0, 0.0], [1.0, -1.0], [1.0, 0.0])
    np.testing.assert_array_equal(M, [[1.0, 0.0], [-1.0, 1.0]])


def test_saltation_single_scale_invariant_in_normal():
    rng = np.random.default_rng(4)
    fm = rng.normal(size=4) + 2.0
    fp = rng.normal(size=4)
    row = rng.normal(size=4)
    if row @ fm < 0:
        row = -row
    np.testing.assert_allclose(
        saltation_single(fm, fp, 3.0 * row), saltation_single(fm, fp, row), rtol=1e-14
    )


def test_saltation_single_rejects_nonpositive_speed():
    with pytest.raises(DegenerateDenominator):
        saltation_single([0.0, 1.0], [1.0, 1.0], [1.0, 0.0])


# -- saltation_matrix ----------------------------------------------------------


def test_constant_gamma_gives_identity_product():
    m = const_model(3, 4, [1.0, 0.5, 2.0, 1.0])
    for sigma in (Permutation.of([1, 2, 3]), Permutation.of([3, 1, 2])):
        np.testing.assert_allclose(saltation_matrix(m, sigma), np.eye(4), atol=1e-15)


def test_single_surface_product_equals_saltation_single():
    table = {
        SignVector.of([-1]): np.array([1.0, 0.5]),
        SignVector.of([1]): np.array([2.0, -0.5]),
    }
    m = CornerModel.create(rho=[0, 0], eta=[[1.0, 0.2]], gamma=table, f_min=1e-9)
    np.testing.assert_allclose(
        saltation_matrix(m, Permutation.of([1])),
        saltation_single(table[SignVector.of([-1])], table[SignVector.of([1])], [1.0, 0.2]),
        rtol=1e-14,
    )


def test_pwc_linear_pieces_coincide():
    m = pwc_linear_corner(2, 0.5)
    m12 = saltation_matrix(m, Permutation.of([1, 2]))
    m21 = saltation_matrix(m, Permutation.of([2, 1]))
    np.testing.assert_allclose(m12, np.eye(2) / 3.0, atol=1e-14)
    np.testing.assert_allclose(m21, np.eye(2) / 3.0, atol=1e-14)


def test_product_order_first_crossing_applied_first():
    # n=2 hand computation: factors do not commute, so the order is pinned
    table = {
        SignVector.of([-1, -1]): np.array([1.0, 1.0]),
        SignVector.of([1, -1]): np.array([2.0, 1.0]),
        SignVector.of([-1, 1]): np.array([1.0, 3.0]),
        SignVector.of([1, 1]): np.array([2.0, 3.0]),
    }
    m = CornerModel.create(rho=[0.0, 0.0], eta=np.eye(2), gamma=table, f_min=1e-9)
    g_mm, g_pm, g_pp = table[SignVector.of([-1, -1])], table[SignVector.of([1, -1])], table[SignVector.of([1, 1])]
    k0 = np.eye(2) + np.outer(g_pm - g_mm, [1.0, 0.0]) / (g_mm[0])
    k1 = np.eye(2) + np.outer(g_pp - g_pm, [0.0, 1.0]) / (g_pm[1])
    np.testing.assert_allclose(saltation_matrix(m, Permutation.of([1, 2])), k1 @ k0, rtol=1e-14)


# -- zeta points and triangulation ---------------------------------------------


def test_zeta_all_plus_is_the_corner():
    rng = np.random.default_rng(5)
    m = random_corner_model(rng, 3, 5)
    tri = zeta_points(m)
    np.testing.assert_allclose(tri.z_minus[SignVector.plus_ones(3)], m.rho, atol=1e-12)


def test_zeta_all_minus_hand_case():
    m = const_model(2, 2, [1.5, 1.5])
    tri = zeta_points(m)
    np.testing.assert_allclose(tri.z_minus[SignVector.minus_ones(2)], [-1.5, -1.5], atol=1e-14)


def test_zeta_mixed_orthant_hand_case():
    table = {b: np.array([0.7, 1.3]) for b in all_sign_vectors(2)}
    m = CornerModel.create(rho=[0.0, 0.0], eta=np.eye(2), gamma=table, f_min=0.5)
    tri = zeta_points(m)
    np.testing.assert_allclose(tri.z_minus[SignVector.of([1, -1])], [0.0, -1.3], atol=1e-14)


def test_zeta_side_conditions():
    rng = np.random.default_rng(6)
    m = random_corner_model(rng, 4, 6)
    tri = zeta_points(m)
    for b in all_sign_vectors(4):
        vals = m.eta @ (tri.z_minus[b] - m.rho)
        for j in range(4):
            if b[j] > 0:
                assert abs(vals[j]) < 1e-10
            else:
                assert vals[j] < -1e-6


def test_triangulation_counts_and_shared_vertices():
    rng = np.random.default_rng(7)
    m = random_corner_model(rng, 2, 3)
    tri = build_triangulation(m)
    assert len(tri.z_minus) == 4 and len(tri.z_plus) == 4
    simplices = dict(tri.simplices())
    assert len(simplices) == 2
    v12 = set(simplices[Permutation.of([1, 2])])
    v21 = set(simplices[Permutation.of([2, 1])])
    assert v12 & v21 == {SignVector.minus_ones(2), SignVector.plus_ones(2)}


def test_triangulation_n3_counts():
    rng = np.random.default_rng(8)
    m = random_corner_model(rng, 3, 4)
    tri = build_triangulation(m)
    assert len(tri.z_minus) == 8
    assert sum(1 for _ in tri.simplices()) == 6


def test_simplex_vertex_offsets_linearly_independent():
    rng = np.random.default_rng(18)
    m = random_corner_model(rng, 4, 6)
    tri = build_triangulation(m)
    from nsflow.core import all_permutations

    for sigma in all_permutations(4):
        offsets = np.column_stack(
            [tri.z_minus[sigma.prefix_sign(k)] - m.rho for k in range(4)]
        )
        assert np.linalg.matrix_rank(offsets, tol=1e-9) == 4


def test_z_plus_minus_difference_is_gamma():
    rng = np.random.default_rng(9)
    m = random_corner_model(rng, 3, 5)
    tri = build_triangulation(m)
    for b in all_sign_vectors(3):
        np.testing.assert_allclose(
            tri.z_plus[b] - tri.z_minus[b], m.gamma_vec(b), atol=1e-12
        )


def test_triangulation_cap_refuses_large_n():
    rng = np.random.default_rng(10)
    m = random_corner_model(rng, 4, 4)
    with pytest.raises(CapExceeded):
        build_triangulation(m, cap=3)


# -- lineality split -----------------------------------------------------------


def test_lineality_projector_algebra():
    rng = np.random.default_rng(11)
    m = random_corner_model(rng, 2, 6)
    ls = lineality_split(m)
    np.testing.assert_allclose(ls.proj_L + ls.proj_L_perp, np.eye(6), atol=1e-13)
    np.testing.assert_allclose(ls.proj_L @ ls.proj_L, ls.proj_L, atol=1e-13)
    np.testing.assert_allclose(ls.proj_L, ls.proj_L.T, atol=1e-13)
    np.testing.assert_allclose(ls.proj_L @ ls.f_minus, ls.f_minus, atol=1e-12)
    for k in ls.basis_K.T:
        np.testing.assert_allclose(ls.proj_L @ k, k, atol=1e-12)
    assert ls.dim_L == 6 - 2 + 1


def test_flow_direction_maps_to_exit_direction():
    rng = np.random.default_rng(12)
    m = random_corner_model(rng, 3, 4)
    ls = lineality_split(m)
    np.testing.assert_allclose(ls.lin_map @ ls.f_minus, ls.f_plus, rtol=1e-12, atol=1e-12)


def test_kernel_vectors_pass_through_unchanged():
    rng = np.random.default_rng(13)
    m = random_corner_model(rng, 2, 5)
    ls = lineality_split(m)
    xi = ls.basis_K @ rng.normal(size=3)
    np.testing.assert_allclose(b_evaluate(m, xi).delta_rho_plus, xi, atol=1e-11)
    np.testing.assert_allclose(ls.lin_map @ xi, xi, atol=1e-12)


def test_split_identity_on_random_model():
    rng = np.random.default_rng(14)
    m = random_corner_model(rng, 2, 5)
    ls = lineality_split(m)
    for _ in range(25):
        v = rng.normal(size=5)
        lhs = b_evaluate(m, v).delta_rho_plus
        rhs = ls.lin_map @ (ls.proj_L @ v) + b_evaluate(m, ls.proj_L_perp @ v).delta_rho_plus
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


# -- barycentric pieces ----------------------------------------------------------


def test_barycentric_piece_n2_single_column():
    rng = np.random.default_rng(15)
    m = random_corner_model(rng, 2, 4)
    tri = build_triangulation(m)
    zm, zp = barycentric_piece(m, tri, Permutation.of([1, 2]))
    assert zm.shape == (4, 1) and zp.shape == (4, 1)


def test_barycentric_interpolates_its_vertices():
    rng = np.random.default_rng(16)
    m = random_corner_model(rng, 3, 5)
    tri = build_triangulation(m)
    split = lineality_split(m)
    sigma = Permutation.of([2, 3, 1])
    zm, zp = barycentric_piece(m, tri, sigma, split=split)
    recon = zp @ np.linalg.pinv(zm, rcond=1e-12)
    for col in range(zm.shape[1]):
        np.testing.assert_allclose(recon @ zm[:, col], zp[:, col], rtol=1e-9, atol=1e-11)


def test_barycentric_matches_b_evaluate_on_cone_interior():
    rng = np.random.default_rng(17)
    m = random_corner_model(rng, 3, 5)
    tri = build_triangulation(m)
    split = lineality_split(m)
    for _ in range(20):
        v = rng.normal(size=5)
        sigma = locate_cone(m, v)
        np.testing.assert_allclose(
            barycentric_evaluate(m, tri, sigma, v, split=split),
            b_evaluate(m, v).delta_rho_plus,
            rtol=1e-9,
            atol=1e-10,
        )
