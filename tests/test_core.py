import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nsflow.core import (
    CornerModel,
    Permutation,
    SignVector,
    all_permutations,
    all_sign_vectors,
    corner_model_from_json,
    corner_model_to_json,
    sign_of,
    validate_corner,
)
from nsflow.errors import NotEventSelected, RankDeficient


def const_gamma_model(n, vec, f_min=0.5):
    table = {b: np.asarray(vec, dtype=float) for b in all_sign_vectors(n)}
    return CornerModel.create(rho=np.zeros(len(vec)), eta=np.eye(len(vec))[:n], gamma=table, f_min=f_min)


# -- sign_of -------------------------------------------------------------------


def test_sign_of_mixed():
    assert sign_of([-2.0, 3.0]).entries == (-1, 1)


def test_sign_of_zero_maps_to_plus():
    assert sign_of([0.0, 0.0]).entries == (1, 1)


def test_sign_of_all_negative():
    assert sign_of([-1.0, -1.0, -1.0]).entries == (-1, -1, -1)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=8))
def test_sign_of_negate_flips_nonzero_entries(vals):
    v = np.array(vals, dtype=float)
    a = sign_of(v)
    b = sign_of(-v)
    for x, sa, sb in zip(v, a, b):
        if x != 0.0:
            assert sa == -sb
        else:
            assert sa == sb == 1


# -- SignVector / Permutation --------------------------------------------------


def test_sign_vector_order_is_lexicographic():
    vecs = list(all_sign_vectors(3))
    assert vecs == sorted(vecs)
    assert vecs[0] == SignVector.minus_ones(3)
    assert vecs[-1] == SignVector.plus_ones(3)
    assert len(set(vecs)) == 8


def test_sign_vector_key_round_trip():
    b = SignVector.of([-1, 1, 1, -1])
    assert b.key() == "-++-"
    assert SignVector.from_key("-++-") == b


def test_sign_vector_rejects_bad_entries():
    with pytest.raises(ValueError):
        SignVector.of([0, 1])
    with pytest.raises(ValueError):
        SignVector.of([])


def test_permutation_must_be_bijection():
    with pytest.raises(ValueError):
        Permutation.of([1, 1, 3])
    with pytest.raises(ValueError):
        Permutation.of([0, 1])


def test_permutation_prefix_signs():
    sigma = Permutation.of([2, 3, 1])
    assert sigma.prefix_sign(0) == SignVector.minus_ones(3)
    assert sigma.prefix_sign(1).entries == (-1, 1, -1)
    assert sigma.prefix_sign(2).entries == (-1, 1, 1)
    assert sigma.prefix_sign(3) == SignVector.plus_ones(3)


@given(st.permutations(list(range(1, 6))))
def test_prefix_sign_counts(order):
    sigma = Permutation.of(order)
    for k in range(6):
        b = sigma.prefix_sign(k)
        assert sum(1 for e in b if e > 0) == k


def test_all_permutations_count():
    assert len(list(all_permutations(4))) == 24


# -- validate_corner -----------------------------------------------------------


def test_validate_constant_transversal_field():
    m = const_gamma_model(2, [1.0, 1.0], f_min=0.5)
    rep = validate_corner(m)
    assert rep.ok and rep.rank == 2
    assert rep.min_dot == pytest.approx(1.0)


def test_validate_parallel_normals_rank_deficient():
    table = {b: np.array([1.0, 1.0]) for b in all_sign_vectors(2)}
    m = CornerModel.create(rho=[0, 0], eta=[[1.0, 0.0], [2.0, 0.0]], gamma=table)
    rep = validate_corner(m)
    assert not rep.rank_ok
    with pytest.raises(RankDeficient):
        m.require_valid()


def test_validate_backward_exit_not_event_selected():
    table = {b: np.array([1.0, 1.0]) for b in all_sign_vectors(2)}
    table[SignVector.of([-1, -1])] = np.array([-1.0, 1.0])
    m = CornerModel.create(rho=[0, 0], eta=np.eye(2), gamma=table, f_min=0.5)
    rep = validate_corner(m)
    assert rep.rank_ok and not rep.transversal_ok
    assert rep.min_pair[0] == 1
    with pytest.raises(NotEventSelected):
        m.require_valid()


def test_validate_accepts_every_legal_pwc_model():
    from nsflow.apps import pwc_model

    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        table = {b: rng.uniform(-0.999, 2.0, size=d) for b in all_sign_vectors(d)}
        _, corner = pwc_model(d, table)
        assert validate_corner(corner).ok


def test_gamma_table_must_be_total():
    table = {SignVector.of([-1]): np.array([1.0, 0.0])}
    with pytest.raises(ValueError, match="misses"):
        CornerModel.create(rho=[0, 0], eta=[[1.0, 0.0]], gamma=table)


@pytest.mark.parametrize("where", ["rho", "eta", "gamma"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_create_rejects_non_finite_data(where, bad):
    rho, eta = np.zeros(2), np.eye(2)
    table = {b: np.ones(2) for b in all_sign_vectors(2)}
    if where == "rho":
        rho[1] = bad
    elif where == "eta":
        eta[0, 1] = bad
    else:
        table[SignVector.of([1, -1])] = np.array([1.0, bad])
    with pytest.raises(ValueError, match="finite"):
        CornerModel.create(rho=rho, eta=eta, gamma=table)


def test_validate_nan_normal_dot_fails():
    # a lazy gamma is not checked at construction; validation must catch it
    def gamma(b):
        return [np.nan, 1.0] if b.entries == (-1, 1) else [1.0, 1.0]

    m = CornerModel.create(rho=[0.0, 0.0], eta=np.eye(2), gamma=gamma)
    rep = validate_corner(m)
    assert not rep.transversal_ok
    assert rep.min_pair[1] == SignVector.of([-1, 1])
    with pytest.raises(NotEventSelected):
        m.require_valid()


# -- JSON interchange ----------------------------------------------------------


def test_corner_model_json_round_trip():
    rng = np.random.default_rng(5)
    from nsflow.oracle import random_corner_model

    m = random_corner_model(rng, 3, 4)
    text = corner_model_to_json(m)
    payload = json.loads(text)
    assert set(payload) == {"d", "n", "rho", "eta", "gamma", "f_min"}
    assert set(payload["gamma"]) == {b.key() for b in all_sign_vectors(3)}
    m2 = corner_model_from_json(text)
    assert m2.d == m.d and m2.n == m.n
    np.testing.assert_array_equal(m2.rho, m.rho)
    np.testing.assert_array_equal(m2.eta, m.eta)
    for b in all_sign_vectors(3):
        np.testing.assert_array_equal(m2.gamma_vec(b), m.gamma_vec(b))


def test_sign_keys_follow_surface_positions():
    key = SignVector.of([-1, 1]).key()
    assert key[0] == "-" and key[1] == "+"


@pytest.mark.parametrize(
    "text, match",
    [
        ('[1, 2]', "object"),
        ('{"d": 2, "n": 2, "rho": [0, 0], "eta": [[1, 0], [0, 1]]}', "gamma"),
        ('{"d": 2, "n": 2, "rho": [0, 0], "eta": [[1, 0], [0, 1]], "gamma": [1, 2]}', "gamma"),
        ('{"d": 2, "n": 2, "rho": [0, 0], "eta": [[1, 0], [0, 1]], "gamma": {"--": {}}}',
         "malformed"),
        ('{"d": null, "n": 2, "rho": [0, 0], "eta": [[1, 0], [0, 1]], "gamma": {}}', "malformed"),
    ],
)
def test_malformed_json_is_a_value_error(text, match):
    with pytest.raises(ValueError, match=match):
        corner_model_from_json(text)
