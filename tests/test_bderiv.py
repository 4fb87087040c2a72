import dataclasses
import inspect
import math
import sys

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
from nsflow.core import CornerModel, Permutation, SignVector, all_permutations
from nsflow.errors import CapExceeded, DegenerateDenominator, NotEventSelected, RankDeficient
from nsflow.oracle import enumerate_saltations, lazy_corner_model, random_corner_model
from nsflow.sampled import rho_minus, rho_plus, sampled_flow


def const_model(n, d, vec, f_min=0.5):
    return CornerModel(np.zeros(d), np.eye(d)[:n], table=[vec] * (1 << n), f_min=f_min)


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
    m = random_corner_model(rng, 3, 3)
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
    with pytest.raises(ValueError, match=r"^direction has shape \(3,\), expected \(2,\)$"):
        b_evaluate(pwc_linear_corner(2, 0.5), [0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match=r"^direction has shape \(2, 1\), expected \(2,\)$"):
        b_evaluate(pwc_linear_corner(2, 0.5), np.ones((2, 1)))


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


def counted(m):
    """``m`` validated, with its gamma behind a spy that records each mask it
    is called with in the returned list, which starts empty."""
    calls = []
    spy = dataclasses.replace(m, gamma=lambda mask: calls.append(mask) or m.gamma(mask))
    spy.require_valid()
    calls.clear()
    return spy, calls


@pytest.mark.parametrize("n", [1, 2, 8, 16, 32])
def test_b_evaluate_reads_a_lazy_gamma_once_per_orthant_it_crosses(n):
    m, calls = counted(lazy_corner_model(60 + n, n, n + 2))
    for v in np.random.default_rng(n).normal(size=(5, m.d)):
        calls.clear()
        sigma = b_evaluate(m, v).sigma
        # n + 1 calls: the prefixes of the located order, all-minus to all-plus
        prefixes = [0]
        for j in sigma.order:
            prefixes.append(prefixes[-1] | 1 << (j - 1))
        assert calls == prefixes


@pytest.mark.parametrize("n, lazy", [(1, False), (2, False), (5, False), (8, False), (32, True)])
def test_b_evaluate_runs_its_inner_update_n_n_plus_1_over_2_d_times(n, lazy):
    # the O(n^2 d) claim counted, not timed: iteration k scans the n - k open
    # surfaces over d coordinates, n(n+1)/2 * d updates in all
    m = lazy_corner_model(70, n, n + 2) if lazy else random_corner_model(np.random.default_rng(70 + n), n, n + 2)
    m.require_valid()  # validation's own loops are not counted
    code = b_evaluate.__code__
    line = code.co_firstlineno + next(
        i for i, text in enumerate(inspect.getsource(b_evaluate).splitlines())
        if text.strip() == "num += row[i] * dx[i]"
    )
    hits = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == line:
            hits.append(None)
        return local

    def call(frame, event, arg):
        return local if frame.f_code is code else None

    v = np.random.default_rng(m.n).normal(size=m.d)
    sys.settrace(call)
    try:
        b_evaluate(m, v)
    finally:
        sys.settrace(None)
    assert len(hits) == m.n * (m.n + 1) // 2 * m.d


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


def test_saltation_single_rejects_a_nan_speed():
    with pytest.raises(DegenerateDenominator, match=r"^normal speed eta . f_minus = nan is not positive$"):
        saltation_single([1.0, 1.0], [1.0, 2.0], [np.nan, 1.0])


@pytest.mark.parametrize(
    "args, match",
    [
        (([1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 0.0]), r"^f_plus has shape \(3,\), expected \(2,\)$"),
        (([1.0, 1.0], [1.0, 1.0], [1.0, 0.0, 0.0]), r"^eta_row has shape \(3,\), expected \(2,\)$"),
        (([1.0, 1.0], [1.0, 1.0], [[1.0, 0.0]]), r"^eta_row has shape \(1, 2\), expected \(2,\)$"),
        (([[1.0, 1.0]], [1.0, 1.0], [1.0, 0.0]), r"^f_minus has shape \(1, 2\), expected \(\*,\)$"),
        (([1.0, np.inf], [1.0, 1.0], [1.0, 0.0]), r"^f_minus has non-finite entries: \[1.0, inf\]$"),
        (([1.0, 1.0], [1.0, np.nan], [1.0, 0.0]), r"^f_plus has non-finite entries: \[1.0, nan\]$"),
    ],
    ids=["f_plus-long", "eta_row-long", "eta_row-block", "f_minus-block", "f_minus-inf", "f_plus-nan"],
)
def test_saltation_single_refuses_vectors_that_do_not_fit(args, match):
    with pytest.raises(ValueError, match=match):
        saltation_single(*args)


@pytest.mark.parametrize(
    "f_minus, eta_row", [([1.0, 1.0], [np.inf, 0.0]), ([1e200, 1e200], [1e200, 0.0])], ids=["inf", "overflow"]
)
def test_saltation_single_refuses_an_infinite_speed(f_minus, eta_row):
    with pytest.raises(DegenerateDenominator, match=r"^normal speed eta . f_minus = inf is not finite$"):
        saltation_single(f_minus, [1.0, 2.0], eta_row)


# -- saltation_matrix ----------------------------------------------------------


def test_constant_gamma_gives_identity_product():
    m = const_model(3, 4, [1.0, 0.5, 2.0, 1.0])
    for sigma in (Permutation((1, 2, 3)), Permutation((3, 1, 2))):
        np.testing.assert_allclose(saltation_matrix(m, sigma), np.eye(4), atol=1e-15)


def test_single_surface_product_equals_saltation_single():
    table = [np.array([1.0, 0.5]), np.array([2.0, -0.5])]  # "-" and "+"
    m = CornerModel([0, 0], [[1.0, 0.2]], table=table, f_min=1e-9)
    np.testing.assert_allclose(
        saltation_matrix(m, Permutation((1,))),
        saltation_single(table[0], table[1], [1.0, 0.2]),
        rtol=1e-14,
    )


def test_permutation_of_the_wrong_length_is_refused():
    with pytest.raises(ValueError, match=r"^permutation length 3 != n = 2$"):
        saltation_matrix(pwc_linear_corner(2, 0.5), Permutation((1, 2, 3)))


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
        sigma = Permutation(tuple(range(m.n, 0, -1)))
        built.clear()
        first = saltation_matrix(m, sigma)
        assert len(built) == first_builds
        built.clear()
        assert saltation_matrix(m, sigma).tobytes() == first.tobytes()
        assert len(built) == repeat_builds


@pytest.mark.parametrize("n", range(1, 7))
def test_enumerate_saltations_builds_one_factor_per_prefix_and_open_surface(n, monkeypatch):
    # n! matrices from n 2^(n-1) factors, each (crossed prefix, next surface)
    # built once, not n n! of them
    built = []
    real = nsflow.bderiv._saltation_factor
    monkeypatch.setattr(
        nsflow.bderiv, "_saltation_factor", lambda m, mask, j: built.append((mask, j)) or real(m, mask, j)
    )
    m = random_corner_model(np.random.default_rng(160 + n), n, n + 1)
    assert len(enumerate_saltations(m)) == math.factorial(n)
    assert len(built) == n * 2 ** (n - 1)
    assert set(built) == {(mask, j) for mask in range(1 << n) for j in range(1, n + 1) if not mask >> (j - 1) & 1}


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


@pytest.mark.parametrize("lazy", [False, True], ids=["table", "lazy"])
def test_a_floor_at_the_smallest_speed_admits_every_saltation(lazy):
    # the floor test reads the speed validation checked; a BLAS dot, summed in
    # another order, fell below such a floor on seeds 2, 13 and 20-23
    for s in range(40):
        n = 1 + s % 6
        m = random_corner_model(np.random.default_rng(s), n, n + 3)
        floored = dataclasses.replace(m, f_min=float(m.speeds().min()))
        floored.require_valid()
        enumerate_saltations(lazy_copy(floored) if lazy else floored)


def test_pwc_linear_pieces_coincide():
    m = pwc_linear_corner(2, 0.5)
    m12 = saltation_matrix(m, Permutation((1, 2)))
    m21 = saltation_matrix(m, Permutation((2, 1)))
    np.testing.assert_allclose(m12, np.eye(2) / 3.0, atol=1e-14)
    np.testing.assert_allclose(m21, np.eye(2) / 3.0, atol=1e-14)


def test_product_order_first_crossing_applied_first():
    # n=2 hand computation: factors do not commute, so the order is pinned
    table = [  # by mask: "--", "+-", "-+", "++"
        np.array([1.0, 1.0]),
        np.array([2.0, 1.0]),
        np.array([1.0, 3.0]),
        np.array([2.0, 3.0]),
    ]
    m = CornerModel([0.0, 0.0], np.eye(2), table=table, f_min=1e-9)
    g_mm, g_pm, g_pp = table[0], table[1], table[3]
    k0 = np.eye(2) + np.outer(g_pm - g_mm, [1.0, 0.0]) / (g_mm[0])
    k1 = np.eye(2) + np.outer(g_pp - g_pm, [0.0, 1.0]) / (g_pm[1])
    np.testing.assert_allclose(saltation_matrix(m, Permutation((1, 2))), k1 @ k0, rtol=1e-14)


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
    m = CornerModel([0.0, 0.0], np.eye(2), table=[[0.7, 1.3]] * 4, f_min=0.5)
    tri = build_triangulation(m)
    np.testing.assert_allclose(tri.z_minus[SignVector((1, -1)).mask], [0.0, -1.3], atol=1e-14)


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
    v12 = set(simplices[Permutation((1, 2))])
    v21 = set(simplices[Permutation((2, 1))])
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
    for mask in range(8):
        np.testing.assert_allclose(
            tri.z_plus[mask] - tri.z_minus[mask], m.gamma_at(mask), atol=1e-12
        )


def test_simplex_vertices_are_prefix_masks():
    tri = build_triangulation(const_model(3, 3, [1.0, 1.0, 1.0]))
    verts = tri.simplex(Permutation((2, 3, 1)))
    assert verts == [0b000, 0b010, 0b110, 0b111]
    assert [SignVector.from_mask(b, 3).entries for b in verts] == [
        (-1, -1, -1), (-1, 1, -1), (-1, 1, 1), (1, 1, 1),
    ]


@given(st.permutations(list(range(1, 6))))
def test_simplex_vertex_popcounts(order):
    tri = build_triangulation(const_model(5, 5, np.ones(5)))
    verts = tri.simplex(Permutation(tuple(order)))
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


@pytest.mark.parametrize("n", range(1, 7))
def test_triangulation_reads_each_orthant_once_and_solves_once(n, monkeypatch):
    # 2^n gamma reads, one per sample point, and one batched solve for all
    # 2^n right-hand sides: the cost is counted, not timed
    m, calls = counted(lazy_copy(random_corner_model(np.random.default_rng(160 + n), n, n + 2)))
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(None) or solve(*args))
    tri = build_triangulation(m)
    assert sorted(calls) == list(range(2**n))
    assert len(solves) == 1 and tri.z_minus.shape == (2**n, n + 2)


def test_triangulation_cap_refuses_large_n():
    rng = np.random.default_rng(10)
    m = random_corner_model(rng, 11, 11)
    with pytest.raises(CapExceeded):
        build_triangulation(m)


def test_triangulation_json_refuses_more_simplices_than_the_enumeration_cap():
    # 2**9 vertices are within the build's cap, but 9! simplices are not written
    tri = build_triangulation(pwc_linear_corner(ENUMERATION_CAP + 1, 0.5))
    assert tri.z_minus.shape == (2**9, 9)
    with pytest.raises(CapExceeded, match=r"^9! simplices exceed cap 8!$"):
        tri.to_json_dict()


def test_triangulation_refuses_a_near_singular_gram_matrix():
    # the rows pass the rank test (singular values 1.4 and 7e-9) and every
    # normal-dot is 2, but their Gram matrix is singular to 1e-12
    m = CornerModel.create(rho=[0.0, 0.0], eta=[[1.0, 0.0], [1.0, 1e-8]], gamma=lambda mask: [2.0, 0.0])
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
    assert ls.basis_K.shape == (6, 4)


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
    m = CornerModel.create(rho=[0.0, 0.0], eta=[[1.0, 0.0], [2.0, 0.0]], gamma=lambda mask: [2.0, 0.0])
    with pytest.raises(
        RankDeficient, match=r"^surface normals have rank 1 < 2; remove redundant \(tangent\) surfaces$"
    ):
        lineality_split(m)


def test_lineality_split_refuses_a_model_that_is_not_event_selected():
    # full rank, but the flow leaves the all-minus orthant backwards across
    # surface 1: b_evaluate refuses this model, and so does the split
    m = CornerModel.create(rho=[0.0, 0.0], eta=np.eye(2), gamma=lambda mask: [-1.0, 1.0])
    message = "^normal-dot -1 below floor 1e-09 at surface 1, orthant --$"
    for route in (lineality_split, lambda m: b_evaluate(m, [0.0, 0.0])):
        with pytest.raises(NotEventSelected, match=message):
            route(m)


def test_split_identity_on_random_model():
    rng = np.random.default_rng(14)
    m = random_corner_model(rng, 2, 5)
    ls = lineality_split(m)
    for _ in range(25):
        v = rng.normal(size=5)
        lhs = b_evaluate(m, v).delta_rho_plus
        rhs = ls.lin_map @ (ls.proj_L @ v) + b_evaluate(m, ls.proj_L_perp @ v).delta_rho_plus
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


@pytest.mark.parametrize("order", [(1, 2), (1, 2, 3, 4)])
@pytest.mark.parametrize("route", ["simplex", "barycentric_piece", "barycentric_evaluate"])
def test_order_of_the_wrong_length_is_refused_on_the_triangulation_route(route, order):
    m = random_corner_model(np.random.default_rng(18), 3, 4)
    tri, split, sigma = build_triangulation(m), lineality_split(m), Permutation(order)
    call = {
        "simplex": lambda: tri.simplex(sigma),
        "barycentric_piece": lambda: barycentric_piece(m, tri, sigma, split=split),
        "barycentric_evaluate": lambda: barycentric_evaluate(m, tri, sigma, np.ones(4), split=split),
    }[route]
    with pytest.raises(ValueError, match=rf"^permutation length {len(order)} != n = 3$"):
        call()


# -- barycentric pieces ----------------------------------------------------------


def test_barycentric_piece_n2_single_column():
    rng = np.random.default_rng(15)
    m = random_corner_model(rng, 2, 4)
    tri = build_triangulation(m)
    zm, zp = barycentric_piece(m, tri, Permutation((1, 2)), split=lineality_split(m))
    assert zm.shape == (4, 1) and zp.shape == (4, 1)


def test_barycentric_interpolates_its_vertices():
    rng = np.random.default_rng(16)
    m = random_corner_model(rng, 3, 5)
    tri = build_triangulation(m)
    split = lineality_split(m)
    sigma = Permutation((2, 3, 1))
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
        ([0.1, 0.2, 0.3, 0.4], r"^direction has shape \(4,\), expected \(5,\)$"),
        (np.ones((1, 5)), r"^direction has shape \(1, 5\), expected \(5,\)$"),
        (np.ones((2, 1)), r"^direction has shape \(2, 1\), expected \(5,\)$"),
    ],
    ids=["short", "2-d", "column"],
)
def test_barycentric_evaluate_refuses_bad_directions(v, match):
    rng = np.random.default_rng(17)
    m = random_corner_model(rng, 3, 5)
    tri, split = build_triangulation(m), lineality_split(m)
    with pytest.raises(ValueError, match=match):
        barycentric_evaluate(m, tri, Permutation((1, 2, 3)), v, split=split)


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
    table = np.ones((8, 3))
    table[1] = [1.0, 1e-13, 1.0]  # "+--"
    m = CornerModel(np.zeros(3), np.eye(3), table=table, f_min=1e-14)
    m.require_valid()
    tri, split = build_triangulation(m), lineality_split(m)
    with pytest.raises(RankDeficient, match=r"^vertex offsets for order \(1, 2, 3\) are numerically dependent$"):
        barycentric_piece(m, tri, Permutation((1, 2, 3)), split)
    barycentric_piece(m, tri, Permutation((2, 1, 3)), split)
