import dataclasses

import numpy as np
import pytest
from conftest import lazy_copy
from hypothesis import given
from hypothesis import strategies as st

import nsflow.bderiv
from nsflow.bderiv import (
    ENUMERATION_CAP,
    b_evaluate,
    b_evaluate_block,
    barycentric_evaluate,
    barycentric_piece,
    build_triangulation,
    lineality_split,
    saltation_matrix,
    saltation_single,
)
from nsflow.core import CornerModel, Permutation, SignVector, all_permutations, all_sign_vectors
from nsflow.errors import CapExceeded, DegenerateDenominator, RankDeficient
from nsflow.oracle import enumerate_saltations, lazy_corner_model, random_corner_model
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


def test_direction_of_the_wrong_length_is_refused():
    with pytest.raises(ValueError, match=r"^direction has length 3, expected 2$"):
        b_evaluate(pwc_linear_corner(2, 0.5), [0.1, 0.2, 0.3])


@pytest.mark.parametrize(
    "v, match",
    [
        (np.ones((2, 1)), r"^direction has shape \(2, 1\), expected \(2,\)$"),
        ([0.1, 0.2j], r"^direction has entries that are not real numbers: "),
        (np.array([0.1, 0.2j]), r"^direction has entries that are not real numbers: "),
        ([0.1, np.complex128(0.2j)], r"^direction has entries that are not real numbers: "),
        ([0.1, "a"], r"^direction has entries that are not real numbers: could not convert string to float: "),
    ],
    ids=["column", "complex", "complex-array", "complex128", "string"],
)
def test_direction_that_is_not_a_real_vector_is_refused(v, match):
    with pytest.raises(ValueError, match=match):
        b_evaluate(pwc_linear_corner(2, 0.5), v)


# -- crossing order ------------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_direction_rejected(bad):
    with pytest.raises(ValueError, match="non-finite"):
        b_evaluate(pwc_linear_corner(2, 0.5), [bad, 1.0])


def test_locate_cone_hand_case():
    m = const_model(2, 2, [1.0, 1.0])
    assert b_evaluate(m, [-1.0, 1.0]).sigma.order == (2, 1)


def test_locate_cone_lineality_ray_tie_breaks_lexicographic():
    # exact ties: power-of-two gamma entries make every tau identical
    m = const_model(3, 3, [2.0, 2.0, 2.0])
    g_minus = m.gamma_vec(SignVector.minus_ones(3))
    assert b_evaluate(m, 0.25 * g_minus).sigma.order == (1, 2, 3)


def test_locate_cone_matches_simplex_interior():
    rng = np.random.default_rng(3)
    m = random_corner_model(rng, 4, 5)
    tri = build_triangulation(m)

    for sigma in list(all_permutations(4))[::5]:
        weights = rng.uniform(0.2, 1.0, size=4)
        drho = sum(
            w * (tri.z_minus[mask] - m.rho)
            for mask, w in zip(tri.simplex(sigma)[1:], weights)
        )
        located = b_evaluate(m, drho).sigma
        # the value is what matters on shared faces; interior picks sigma itself
        np.testing.assert_allclose(
            saltation_matrix(m, located) @ drho,
            saltation_matrix(m, sigma) @ drho,
            rtol=1e-9,
            atol=1e-11,
        )
        assert located == sigma


# -- b_evaluate_block ----------------------------------------------------------


def bits(x):
    """Bytes of a float array with every NaN made the same, so that a NaN
    from overflow matches a NaN whatever its sign bit."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), np.nan, x).tobytes()


def assert_block_bitwise_equal(m, dirs):
    blk = b_evaluate_block(m, dirs)
    k = len(dirs)
    assert blk.delta_rho_plus.shape == (k, m.d)
    assert blk.orders.shape == (k, m.n)
    assert blk.delta_t.shape == (k,)
    for r, v in enumerate(dirs):
        res = b_evaluate(m, v)
        assert bits(blk.delta_rho_plus[r]) == bits(res.delta_rho_plus), r
        assert blk.orders[r].tolist() == list(res.sigma.order), r
        assert bits(blk.delta_t[r]) == bits(res.delta_t), r
    return blk


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("extra", [0, 1, 4])
def test_block_bitwise_equals_scalar_on_random_models(n, extra):
    rng = np.random.default_rng([n, extra])
    m = random_corner_model(rng, n, n + extra)
    dirs = rng.normal(size=(60, m.d))
    assert_block_bitwise_equal(m, dirs)
    # near the overflow threshold the sums turn to inf and nan as in the loop
    big = dirs / np.abs(dirs).max()
    assert_block_bitwise_equal(m, np.vstack([1e300 * big, 1e306 * big, 1e308 * big]))


def test_block_exact_ties_follow_scalar():
    m = const_model(3, 3, [2.0, 2.0, 2.0])
    g_minus = m.gamma_vec(SignVector.minus_ones(3))
    blk = assert_block_bitwise_equal(m, [0.25 * g_minus, -g_minus, [1.0, 1.0, -2.0]])
    assert blk.orders[0].tolist() == [1, 2, 3]
    # diagonals of the pwc-linear corner tie every crossing time
    grid = np.array(list(np.ndindex(3, 3, 3)), dtype=float) - 1.0
    assert_block_bitwise_equal(pwc_linear_corner(3, 0.5), grid)


def test_block_zero_direction_and_empty_block():
    m = pwc_linear_corner(3, 0.3)
    blk = assert_block_bitwise_equal(m, np.zeros((1, 3)))
    assert blk.delta_t[0] == 0.0
    empty = b_evaluate_block(m, np.zeros((0, 3)))
    assert empty.delta_rho_plus.shape == (0, 3)
    assert empty.orders.shape == (0, 3)
    assert empty.delta_t.shape == (0,)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_block_non_finite_direction_rejected(bad):
    with pytest.raises(ValueError, match="non-finite"):
        b_evaluate_block(pwc_linear_corner(2, 0.5), [[0.0, 1.0], [bad, 1.0]])


@pytest.mark.parametrize("dirs", [[1.0, 0.0], [[1.0, 0.0, 0.0]], [[[1.0, 0.0]]]])
def test_block_wrong_shape_rejected(dirs):
    with pytest.raises(ValueError, match="shape"):
        b_evaluate_block(pwc_linear_corner(2, 0.5), dirs)


@pytest.mark.parametrize(
    "dirs",
    [
        np.array([[0.0, 1.0], [0.2j, 1.0]]),
        [[0.0, 1.0], [np.complex128(0.2j), 1.0]],
        [[0.0, 1.0], ["a", 1.0]],
        [[0.0, 1.0], [1.0]],
    ],
    ids=["complex-array", "complex128", "string", "ragged"],
)
def test_block_direction_that_is_not_real_is_refused(dirs):
    with pytest.raises(ValueError, match=r"^direction block has entries that are not real numbers: "):
        b_evaluate_block(pwc_linear_corner(2, 0.5), dirs)


def test_block_refuses_lazy_model():
    m = lazy_corner_model(0, 3, 5)
    with pytest.raises(ValueError, match="b_evaluate"):
        b_evaluate_block(m, np.ones((2, 5)))


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


@pytest.mark.parametrize("arg", ["f_minus", "f_plus", "eta_row"])
@pytest.mark.parametrize(
    "bad", [np.array([1.0, 0.2j]), [1.0, np.complex128(0.2j)], [1.0, "a"]],
    ids=["complex-array", "complex128", "string"],
)
def test_saltation_single_refuses_entries_that_are_not_real(arg, bad):
    args = {"f_minus": [1.0, 1.0], "f_plus": [1.0, 2.0], "eta_row": [1.0, 0.0], arg: bad}
    with pytest.raises(ValueError, match=rf"^{arg} has entries that are not real numbers: "):
        saltation_single(**args)


def test_saltation_single_rejects_a_nan_speed():
    with pytest.raises(DegenerateDenominator, match=r"^normal speed eta . f_minus = nan is not positive$"):
        saltation_single([1.0, 1.0], [1.0, 2.0], [np.nan, 1.0])


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


def test_permutation_of_the_wrong_length_is_refused():
    with pytest.raises(ValueError, match=r"^permutation length 3 != n = 2$"):
        saltation_matrix(pwc_linear_corner(2, 0.5), Permutation.of([1, 2, 3]))


def test_saltation_factor_memo_only_on_small_table_models(monkeypatch):
    built = []
    real = nsflow.bderiv.saltation_single
    monkeypatch.setattr(
        nsflow.bderiv, "saltation_single", lambda *args: built.append(args) or real(*args)
    )
    rng = np.random.default_rng(150)
    small = random_corner_model(rng, 4, 5)
    big = random_corner_model(rng, ENUMERATION_CAP + 1, ENUMERATION_CAP + 1)
    lazy = lazy_copy(small)
    enumerate_saltations(small)
    # one factor per (crossed prefix, next surface): n 2^(n-1) of them
    assert len(built) == 4 * 2**3
    # factors built by a first call and by its repeat: the memo serves both
    # on the enumerated model and the repeat on a replaced one (whose cache
    # starts empty); a lazy model and a table above the cap keep no memo
    cases = ((small, 0, 0), (dataclasses.replace(small), 4, 0), (lazy, 4, 4), (big, big.n, big.n))
    for m, first_builds, repeat_builds in cases:
        sigma = Permutation.of(range(m.n, 0, -1))
        built.clear()
        first = saltation_matrix(m, sigma)
        assert len(built) == first_builds
        built.clear()
        assert saltation_matrix(m, sigma).tobytes() == first.tobytes()
        assert len(built) == repeat_builds


@pytest.mark.parametrize("n", range(1, 7))
def test_memoised_saltation_matrices_equal_a_fresh_models(n):
    m = random_corner_model(np.random.default_rng(151 + n), n, n + 2)
    first = enumerate_saltations(m)
    again = enumerate_saltations(m)
    lazy = lazy_copy(m)
    for sigma in all_permutations(n):
        fresh = saltation_matrix(dataclasses.replace(m), sigma).tobytes()
        assert first[sigma].tobytes() == fresh
        assert again[sigma].tobytes() == fresh
        assert saltation_matrix(m, sigma).tobytes() == fresh
        assert saltation_matrix(lazy, sigma).tobytes() == fresh


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
    tri = build_triangulation(m)
    np.testing.assert_allclose(tri.z_minus[SignVector.plus_ones(3).mask], m.rho, atol=1e-12)


def test_zeta_all_minus_hand_case():
    m = const_model(2, 2, [1.5, 1.5])
    tri = build_triangulation(m)
    np.testing.assert_allclose(tri.z_minus[SignVector.minus_ones(2).mask], [-1.5, -1.5], atol=1e-14)


def test_zeta_mixed_orthant_hand_case():
    table = {b: np.array([0.7, 1.3]) for b in all_sign_vectors(2)}
    m = CornerModel.create(rho=[0.0, 0.0], eta=np.eye(2), gamma=table, f_min=0.5)
    tri = build_triangulation(m)
    np.testing.assert_allclose(tri.z_minus[SignVector.of([1, -1]).mask], [0.0, -1.3], atol=1e-14)


@pytest.mark.parametrize("kind", ["random", "lazy"])
def test_zeta_side_conditions(kind):
    rng = np.random.default_rng(6)
    if kind == "random":
        models = [random_corner_model(rng, n, d) for n in range(1, 7) for d in range(n, n + 3)]
    else:
        models = [lazy_corner_model(4, 5, 7)]
    for m in models:
        tri = build_triangulation(m)
        crossed = (np.arange(1 << m.n)[:, None] >> np.arange(m.n)) & 1 == 1
        off_minus, off_plus = tri.z_minus - m.rho, tri.z_plus - m.rho
        vals_minus, vals_plus = off_minus @ m.eta.T, off_plus @ m.eta.T
        # eta_j . (z_minus - rho) = 0 on crossed surfaces, eta_j . (z_plus - rho) = 0 on
        # the others, which z_minus has not reached yet
        size = np.maximum(np.linalg.norm(off_minus, axis=1), np.linalg.norm(off_plus, axis=1))
        tol = 1e-12 * size[:, None] * np.linalg.norm(m.eta, axis=1)
        assert np.all(np.abs(np.where(crossed, vals_minus, vals_plus)) <= tol)
        assert np.all(vals_minus[~crossed] < -1e-6)
        # z_minus - rho lies in the row space of eta: nothing along its kernel
        kernel = np.linalg.svd(m.eta)[2][m.n :]
        along = np.linalg.norm(off_minus @ kernel.T, axis=1)
        assert np.all(along <= 1e-12 * np.linalg.norm(off_minus, axis=1))


def test_triangulation_counts_and_shared_vertices():
    rng = np.random.default_rng(7)
    m = random_corner_model(rng, 2, 3)
    tri = build_triangulation(m)
    assert len(tri.z_minus) == 4 and len(tri.z_plus) == 4
    simplices = dict(tri.simplices())
    assert len(simplices) == 2
    v12 = set(simplices[Permutation.of([1, 2])])
    v21 = set(simplices[Permutation.of([2, 1])])
    assert v12 & v21 == {0, 3}


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

    for sigma in all_permutations(4):
        offsets = np.column_stack([tri.z_minus[mask] - m.rho for mask in tri.simplex(sigma)[:4]])
        assert np.linalg.matrix_rank(offsets, tol=1e-9) == 4


def test_z_plus_minus_difference_is_gamma():
    rng = np.random.default_rng(9)
    m = random_corner_model(rng, 3, 5)
    tri = build_triangulation(m)
    for b in all_sign_vectors(3):
        np.testing.assert_allclose(
            tri.z_plus[b.mask] - tri.z_minus[b.mask], m.gamma_vec(b), atol=1e-12
        )


def test_simplex_vertices_are_prefix_masks():
    tri = build_triangulation(const_model(3, 3, [1.0, 1.0, 1.0]))
    verts = tri.simplex(Permutation.of([2, 3, 1]))
    assert verts == [0b000, 0b010, 0b110, 0b111]
    assert [SignVector.from_mask(b, 3).entries for b in verts] == [
        (-1, -1, -1), (-1, 1, -1), (-1, 1, 1), (1, 1, 1),
    ]


@given(st.permutations(list(range(1, 6))))
def test_simplex_vertex_popcounts(order):
    tri = build_triangulation(const_model(5, 5, np.ones(5)))
    verts = tri.simplex(Permutation.of(order))
    assert [bin(b).count("1") for b in verts] == list(range(6))
    assert all(a & b == a for a, b in zip(verts, verts[1:]))


def test_triangulation_arrays_are_read_only_rows_by_mask():
    rng = np.random.default_rng(19)
    m = random_corner_model(rng, 3, 5)
    tri = build_triangulation(m)
    for arr in (tri.z_minus, tri.z_plus):
        assert isinstance(arr, np.ndarray) and arr.shape == (8, 5)
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_triangulation_cap_refuses_large_n():
    rng = np.random.default_rng(10)
    m = random_corner_model(rng, 11, 11)
    with pytest.raises(CapExceeded):
        build_triangulation(m)


def test_triangulation_refuses_a_near_singular_gram_matrix():
    # the rows pass the rank test (singular values 1.4 and 7e-9) and every
    # normal-dot is 2, but their Gram matrix is singular to 1e-12
    m = CornerModel.create(rho=[0.0, 0.0], eta=[[1.0, 0.0], [1.0, 1e-8]], gamma=lambda b: [2.0, 0.0])
    assert m.validation().ok and m.validation().min_dot == 2.0
    with pytest.raises(RankDeficient, match="^eta rows are numerically dependent; cannot place vertices$"):
        build_triangulation(m)


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


def test_lineality_split_refuses_dependent_normals():
    # lineality_split does not validate first, so a rank-1 eta reaches its own check
    m = CornerModel.create(rho=[0.0, 0.0], eta=[[1.0, 0.0], [2.0, 0.0]], gamma=lambda b: [2.0, 0.0])
    with pytest.raises(RankDeficient, match="^eta rows are numerically dependent$"):
        lineality_split(m)


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
    zm, zp = barycentric_piece(m, tri, Permutation.of([1, 2]), split=lineality_split(m))
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
        sigma = b_evaluate(m, v).sigma
        np.testing.assert_allclose(
            barycentric_evaluate(m, tri, sigma, v, split=split),
            b_evaluate(m, v).delta_rho_plus,
            rtol=1e-9,
            atol=1e-10,
        )


@pytest.mark.parametrize(
    "v, match",
    [
        ([0.1, 0.2, 0.3, 0.4], r"^direction has length 4, expected 5$"),
        (np.ones((1, 5)), r"^direction has shape \(1, 5\), expected \(5,\)$"),
        (np.ones((2, 1)), r"^direction has shape \(2, 1\), expected \(5,\)$"),
        ([0.1, 0.2j, 0.3, 0.4, 0.5], r"^direction has entries that are not real numbers: "),
        (np.array([0.1, 0.2j, 0.3, 0.4, 0.5]), r"^direction has entries that are not real numbers: "),
        ([0.1, np.nan, 0.3, 0.4, 0.5], r"^direction has non-finite entries: \[0.1, nan, 0.3, 0.4, 0.5\]$"),
        ([0.1, 0.2, np.inf, 0.4, 0.5], r"^direction has non-finite entries: \[0.1, 0.2, inf, 0.4, 0.5\]$"),
        ([0.1, np.complex128(0.2j), 0.3, 0.4, 0.5], r"^direction has entries that are not real numbers: "),
        ([0.1, "a", 0.3, 0.4, 0.5], r"^direction has entries that are not real numbers: could not convert "),
    ],
    ids=["short", "2-d", "column", "complex", "complex-array", "nan", "inf", "complex128", "string"],
)
def test_barycentric_evaluate_refuses_bad_directions(v, match):
    rng = np.random.default_rng(17)
    m = random_corner_model(rng, 3, 5)
    tri, split = build_triangulation(m), lineality_split(m)
    with pytest.raises(ValueError, match=match):
        barycentric_evaluate(m, tri, Permutation.of([1, 2, 3]), v, split=split)


def test_barycentric_route_makes_no_b_evaluate_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("b_evaluate called")

    monkeypatch.setattr(nsflow.bderiv, "b_evaluate", refuse)
    rng = np.random.default_rng(20)
    for n in range(1, 6):
        m = random_corner_model(rng, n, n + 2)
        tri = build_triangulation(m)
        split = lineality_split(m)
        for sigma in list(all_permutations(n))[:12]:
            mat = saltation_matrix(m, sigma)
            zm, zp = barycentric_piece(m, tri, sigma, split=split)
            np.testing.assert_allclose(zp, mat @ zm, rtol=1e-9, atol=1e-9)
            # a direction inside the cone of sigma, plus a lineality component
            weights = rng.uniform(0.1, 1.0, size=n)
            v = sum(w * (tri.z_minus[b] - m.rho) for w, b in zip(weights, tri.simplex(sigma)[1:]))
            v = v + split.basis_K @ rng.normal(size=2) + rng.normal() * split.f_minus
            np.testing.assert_allclose(
                barycentric_evaluate(m, tri, sigma, v, split=split), mat @ v, rtol=1e-9, atol=1e-9
            )


def test_barycentric_piece_refuses_numerically_dependent_vertex_offsets():
    # valid, but after surface 1 the speed across surface 2 is 1e-13: off the
    # lineality subspace the two interior vertices of order (1, 2, 3) differ
    # by about 1e-13 of their length, below the pseudo-inverse cutoff
    table = {b: np.ones(3) for b in all_sign_vectors(3)}
    table[SignVector.of([1, -1, -1])] = np.array([1.0, 1e-13, 1.0])
    m = CornerModel.create(np.zeros(3), np.eye(3), table, f_min=1e-14)
    m.require_valid()
    tri, split = build_triangulation(m), lineality_split(m)
    with pytest.raises(RankDeficient, match=r"^vertex offsets for order \(1, 2, 3\) are numerically dependent$"):
        barycentric_piece(m, tri, Permutation.of([1, 2, 3]), split)
    barycentric_piece(m, tri, Permutation.of([2, 1, 3]), split)
