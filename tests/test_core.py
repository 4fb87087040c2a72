import dataclasses
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import lazy_copy, orthant_keys

from nsflow.core import (
    VALIDATION_ENUM_CAP,
    CornerModel,
    Permutation,
    PiecewiseField,
    SignVector,
    SmoothField,
    ValidationReport,
    _bit_reversal,
    _key,
    _read,
    all_permutations,
    corner_model_from_json,
    corner_model_to_json,
    validate_corner,
)
from nsflow.apps import preset
from nsflow.bderiv import b_evaluate, b_evaluate_block, lineality_split, saltation_matrix
from nsflow.errors import CapExceeded, DegenerateDenominator, NotEventSelected, RankDeficient
from nsflow.flow import integrate
from nsflow.oracle import lazy_corner_model, random_corner_model
from nsflow.sampled import rho_plus, sampled_flow, time_to_impact_sampled


def const_gamma_model(n, vec, f_min=0.5):
    return CornerModel(np.zeros(len(vec)), np.eye(len(vec))[:n], table=[vec] * (1 << n), f_min=f_min)


# -- SignVector / Permutation --------------------------------------------------


def test_sign_vector_order_is_lexicographic():
    vecs = [SignVector.from_mask(int(mask), 3) for mask in _bit_reversal(3)]
    assert vecs == sorted(vecs)
    assert vecs[0] == SignVector.minus_ones(3)
    assert vecs[-1] == SignVector.plus_ones(3)
    assert len(set(vecs)) == 8


def test_sign_vector_key_round_trip():
    b = SignVector((-1, 1, 1, -1))
    assert _key(b.mask, b.n) == "-++-"
    assert SignVector((-1, 1, 1, -1)) == b


def test_sign_vector_rejects_bad_entries():
    with pytest.raises(ValueError):
        SignVector((0, 1))
    with pytest.raises(ValueError):
        SignVector(())


def test_sign_vector_mask_round_trip():
    b = SignVector((1, -1, 1, -1))
    assert b.mask == 0b0101  # bit j set when surface j+1 is crossed
    assert SignVector.from_mask(b.mask, 4) == b
    assert [SignVector(s).mask for s in ((-1, -1), (-1, 1), (1, -1), (1, 1))] == [0, 2, 1, 3]


@pytest.mark.parametrize("n", [1, 3, 70])
def test_every_orthant_key_is_written_from_its_mask(n):
    # one formatter writes the '-+' text of every orthant: character j is bit j
    masks = range(1 << n) if n < 8 else [0, 1, 1 << 63, (1 << 64) + 5, (1 << n) - 1]
    for mask in masks:
        key = _key(mask, n)
        assert key == "".join("+" if mask >> j & 1 else "-" for j in range(n))
        assert SignVector.from_mask(mask, n).mask == mask


def test_permutation_must_be_bijection():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1))


@pytest.mark.parametrize("order", [(1.0, 2.0), (True, 2), (2, 1.0)], ids=["floats", "bool", "one-float"])
def test_permutation_entries_must_be_ints(order):
    # each compares equal to a permutation of ints; (1.0, 2.0) was taken and
    # ended in a bare TypeError in saltation_matrix's mask shift
    with pytest.raises(ValueError, match=rf"^not a permutation of 1..2: {re.escape(repr(order))}$"):
        Permutation(order)


def test_permutation_takes_numpy_ints():
    assert Permutation(tuple(np.array([2, 1]))) == Permutation((2, 1))


def test_all_permutations_count():
    assert len(list(all_permutations(4))) == 24


# -- validate_corner -----------------------------------------------------------


def test_validate_constant_transversal_field():
    m = const_gamma_model(2, [1.0, 1.0], f_min=0.5)
    rep = validate_corner(m)
    assert rep.ok and rep.rank == 2
    assert rep.min_dot == pytest.approx(1.0)


def test_validate_parallel_normals_rank_deficient():
    m = CornerModel([0, 0], [[1.0, 0.0], [2.0, 0.0]], table=[[1.0, 1.0]] * 4)
    rep = validate_corner(m)
    assert not rep.rank_ok
    with pytest.raises(RankDeficient):
        m.require_valid()


def test_validate_backward_exit_not_event_selected():
    table = [[-1.0, 1.0]] + [[1.0, 1.0]] * 3  # "--" (mask 0) exits surface 1 backward
    m = CornerModel([0, 0], np.eye(2), table=table, f_min=0.5)
    rep = validate_corner(m)
    assert rep.rank_ok and not rep.transversal_ok
    assert rep.min_pair == (1, 0)
    with pytest.raises(NotEventSelected):
        m.require_valid()


def test_validate_accepts_every_legal_pwc_model():
    from nsflow.apps import pwc_model

    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        _, corner = pwc_model(d, rng.uniform(-0.999, 2.0, size=(1 << d, d)))
        assert validate_corner(corner).ok


def test_gamma_table_must_be_total():
    with pytest.raises(ValueError, match=r"^gamma has shape \(1, 2\), expected \(2, 2\)$"):
        CornerModel([0, 0], [[1.0, 0.0]], table=[np.array([1.0, 0.0])])


def test_a_sparse_gamma_table_names_its_first_missing_orthant_at_any_n():
    # the search for the first missing orthant takes as many steps as the
    # table has rows: a one-row table of 40 surfaces once walked 2**40 orthants
    n = 40
    payload = {"d": n, "n": n, "rho": [0.0] * n, "eta": np.eye(n).tolist(), "gamma": {"-" * n: [1.0] * n}}
    message = rf"^gamma table misses {2**n - 1} of {2**n} orthants, first missing {'-' * (n - 1)}\+$"
    with pytest.raises(ValueError, match=message):
        corner_model_from_json(json.dumps(payload))
    # rows by mask are held to their shape, also at once
    with pytest.raises(ValueError, match=rf"^gamma has shape \(1, {n}\), expected \({2**n}, {n}\)$"):
        CornerModel(np.zeros(n), np.eye(n), table=[np.ones(n)])


@pytest.mark.parametrize(
    "make",
    [
        lambda: CornerModel.create(rho=[0, 0], eta=np.zeros((0, 2)), gamma=lambda mask: [1.0, 1.0]),
        lambda: CornerModel([0, 0], np.zeros((0, 2)), table=[]),
        lambda: CornerModel.create(rho=[], eta=np.zeros((2, 0)), gamma=lambda mask: []),
        lambda: corner_model_from_json(
            json.dumps({"d": 0, "n": 1, "rho": [], "eta": [[]], "gamma": {"-": [], "+": []}})
        ),
    ],
    ids=["no-rows-lazy", "no-rows-table", "no-columns", "json-no-columns"],
)
def test_eta_without_rows_or_columns_is_refused(make):
    with pytest.raises(ValueError, match=r"^eta has shape \(\d+, \d+\), expected \(n, d\) with n >= 1 and d >= 1$"):
        make()


def test_validate_nan_normal_dot_fails():
    # a lazy gamma is not checked at construction; validation reads its rows
    # as the kernels do, so a NaN row is refused with the table models' message
    def gamma(mask):
        return [np.nan, 1.0] if mask == 2 else [1.0, 1.0]  # "-+" is mask 2

    m = CornerModel.create(rho=[0.0, 0.0], eta=np.eye(2), gamma=gamma)
    for call in (lambda: validate_corner(m), m.require_valid):
        with pytest.raises(ValueError, match=r"^gamma\(-\+\) has non-finite entries: \[nan, 1\.0\]$"):
            call()


@pytest.mark.parametrize("container", [list, np.array])
@pytest.mark.parametrize("row", [[1.0, 1.0, -50.0], [1.0]])
def test_lazy_gamma_row_of_the_wrong_length_is_refused(row, container):
    # only orthant "+-" (mask 1) is malformed; a long row must not lose its tail silently
    def gamma(mask):
        return container(row) if mask == 1 else container([1.0, 1.0])

    m = CornerModel.create(rho=[0.0, 0.0], eta=np.eye(2), gamma=gamma)
    message = rf"^gamma\(\+-\) has shape \({len(row)},\), expected \(2,\)$"
    for call in (m.validation, lambda: b_evaluate(m, [0.3, 0.4]), lambda: m.gamma_row(1)):
        with pytest.raises(ValueError, match=message):
            call()


def test_lazy_gamma_row_with_an_entry_that_is_not_a_number_names_its_orthant():
    rows = [
        ([1.0, "x"], "[1.0, 'x']"),
        (np.array([1.0, 0.2j]), "[(1+0j), 0.2j]"),
        ([1.0, np.complex128(0.2j)], "[1.0, np.complex128(0.2j)]"),
    ]
    for row, fault in rows:
        m = CornerModel.create(rho=[0.0, 0.0], eta=np.eye(2), gamma=lambda mask, row=row: row)
        calls = [
            ("+-", lambda: m.gamma_row(1)),
            ("-+", lambda: m.gamma_at(2)),
            ("--", lambda: validate_corner(m)),
            ("--", m.validation),
            ("--", lambda: b_evaluate(m, [0.3, 0.4])),
        ]
        for key, call in calls:
            message = f"gamma({key}) has entries that are not real numbers: {fault}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()


@pytest.mark.parametrize("lazy", [False, True])
def test_validate_tie_goes_to_first_orthant_in_lexicographic_order(lazy):
    # "-+" (mask 2) and "+-" (mask 1) tie at surface 1; "-+" comes first
    table = [[1.0, 1.0], [0.5, 1.0], [0.5, 1.0], [1.0, 1.0]]
    m = CornerModel([0.0, 0.0], np.eye(2), table=table)
    rep = validate_corner(lazy_copy(m) if lazy else m)
    assert rep.min_dot == 0.5
    assert rep.min_pair == (1, 2)


# SHA-256 over the rho, eta and table bytes and the JSON text of random_corner_model
# draws (seed 90, n = 1..8, d = n..n+4), then the JSON text of lazy_corner_model(90, 5, 7)
RANDOM_MODEL_DIGEST = "a0902631bfdf7ad4e83d0a0d58d7981fe7883e4c4b6edfb69b25a8fe45d36370"


def test_random_and_json_table_models_are_pinned():
    from nsflow import oracle

    digest = hashlib.sha256()
    rng = np.random.default_rng(90)
    for n in range(1, 9):
        for d in range(n, n + 5):
            m = oracle.random_corner_model(rng, n, d)
            text = corner_model_to_json(m)
            for arr in (m.rho, m.eta, m.table):
                digest.update(arr.tobytes())
            digest.update(text.encode())
            m2 = corner_model_from_json(text)
            np.testing.assert_array_equal(m2.table, m.table)
            assert m2.f_min == m.f_min
            assert validate_corner(m) == validate_corner(m2) == validate_corner(lazy_copy(m))
    digest.update(corner_model_to_json(oracle.lazy_corner_model(90, 5, 7)).encode())
    assert digest.hexdigest() == RANDOM_MODEL_DIGEST


def mixed_bad_rows(later):
    """Rows by mask whose first bad one in mask order, "+-" (mask 1), has the
    wrong shape; "-+" (mask 2, first in lexicographic order) holds ``later``."""
    return [[1.0, 1.0], [1.0, 1.0, 1.0], later, [1.0, 1.0]]  # by mask: "--", "+-", "-+", "++"


@pytest.mark.parametrize(
    "rows, message",
    [
        (mixed_bad_rows({"a": 1.0}), "gamma(+-) has shape (3,), expected (2,)"),
        (mixed_bad_rows("ab"), "gamma(+-) has shape (3,), expected (2,)"),
        # every row has the wrong length, so the whole-table conversion
        # overflows before its shape can be checked
        (
            [[1.0] * 3, [1.0] * 3, [10**400, 1.0, 1.0], [1.0] * 3],
            "gamma(--) has shape (3,), expected (2,)",
        ),
        (
            [[1.0, "x"], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
            "gamma(--) has entries that are not real numbers: [1.0, 'x']",
        ),
        (
            [[1.0, 1.0], np.array([1.0, 0.2j]), [1.0, 1.0], [1.0, 1.0]],
            "gamma(+-) has entries that are not real numbers: [(1+0j), 0.2j]",
        ),
        (
            [[1.0, 1.0], [1.0, 1.0], [1.0, np.complex128(0.2j)], [1.0, 1.0]],
            "gamma(-+) has entries that are not real numbers: [1.0, np.complex128(0.2j)]",
        ),
    ],
    ids=["dict", "string", "overflow", "not-a-float", "complex-array", "complex128"],
)
@pytest.mark.parametrize("source", ["constructor", "field"])
def test_table_rows_report_the_first_bad_orthant_in_mask_order(source, rows, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if source == "constructor":
            CornerModel([0.0, 0.0], np.eye(2), table=rows)
        else:
            field = PiecewiseField(
                d=2, n=2, rho=np.zeros(2), h=lambda x: x, dh=lambda x: np.eye(2),
                selection=lambda b: SmoothField(value=lambda x, v=rows[b.mask]: v, jacobian=None),
            )
            field.corner_model(np.zeros(2), 0)


def test_table_from_an_array_is_a_copy_and_reports_rows_as_a_list_does():
    rows = np.asfortranarray([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    m = CornerModel(np.zeros(2), np.eye(2), table=rows)
    np.testing.assert_array_equal(m.table, rows)
    assert m.table.flags.c_contiguous and not m.table.flags.writeable
    rows[0, 0] = -1.0  # the caller's array stays writable and apart from the model
    assert m.table[0, 0] == 1.0
    # a bad array is refused as a list of rows is, by its first bad orthant
    with pytest.raises(ValueError, match=r"^gamma\(--\) has shape \(3,\), expected \(2,\)$"):
        CornerModel(np.zeros(2), np.eye(2), table=np.ones((4, 3)))
    rows[2, 1] = np.nan
    with pytest.raises(ValueError, match=r"^gamma\(-\+\) has non-finite entries: \[5\.0, nan\]$"):
        CornerModel(np.zeros(2), np.eye(2), table=rows)


@pytest.mark.parametrize(
    "keys, message",
    [
        (("--", "+-", "-+"), "gamma table misses 1 of 4 orthants, first missing ++"),
        (("--", "+-", "++"), "gamma table misses 1 of 4 orthants, first missing -+"),
        ((), "gamma table misses 4 of 4 orthants, first missing --"),
    ],
    ids=["last-missing", "one-missing", "empty"],
)
def test_a_json_table_names_its_first_missing_orthant(keys, message):
    # the JSON reader is the one place that reads '-+' keys, so it alone
    # counts the orthants they miss
    payload = {"d": 2, "n": 2, "rho": [0, 0], "eta": [[1, 0], [0, 1]], "gamma": {key: [1, 1] for key in keys}}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        corner_model_from_json(json.dumps(payload))


# a table is its rows by mask in one form: a mapping is no array of real numbers,
# refused as it is given (the None messages)


@pytest.mark.parametrize(
    "rows, message",
    [
        (np.ones((5, 3)), "gamma has shape (5, 3), expected (4, 3)"),
        ([[1.0] * 3] * 5, "gamma has shape (5, 3), expected (4, 3)"),
        ([[1.0] * 3] * 3, "gamma has shape (3, 3), expected (4, 3)"),
        (5, "gamma has shape (), expected (4, 3)"),
        ({mask: [1.0] * 3 for mask in range(4)}, None),
        ({**{mask: [1.0] * 3 for mask in range(4)}, 9: [1.0] * 3}, None),
        ({SignVector.from_mask(mask, 2): [1.0] * 3 for mask in range(4)}, None),
    ],
    ids=["array-of-5-rows", "list-of-5-rows", "list-of-3-rows", "no-rows",
         "mapping-by-mask", "mapping-mask-9", "mapping-sign-vector-keys"],
)
@pytest.mark.parametrize("route", ["constructor", "replace"])
def test_a_table_is_held_to_its_shape(route, rows, message):
    # at n = 2 the first two built a 4-row model without a word, table=5 ended
    # in a bare TypeError, and a mapping of every mask was a second table form
    message = message or f"gamma has entries that are not real numbers: {rows!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if route == "constructor":
            CornerModel(np.zeros(3), np.eye(2, 3), table=rows)
        else:
            dataclasses.replace(random_corner_model(np.random.default_rng(0), 2, 3), table=rows)


def test_models_compare_and_hash_by_identity():
    # the generated __eq__ compared numpy fields, an ambiguous-truth ValueError,
    # and the generated __hash__ hashed them, a TypeError
    m = random_corner_model(np.random.default_rng(0), 2, 3)
    twin = dataclasses.replace(m)
    assert m == m and (m == twin) is False and m != twin
    keyed = {m: "m", twin: "twin"}
    assert keyed[m] == "m" and keyed[twin] == "twin"


READ_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
READ_FLOATS = st.sampled_from([0.0, -2.5, 7.0, 1e308, -1e308, np.nan, np.inf, -np.inf])
READ_VALUES = st.one_of(
    hnp.arrays(np.int64, READ_SHAPES, elements=st.integers(-9, 9)),
    hnp.arrays(np.bool_, READ_SHAPES),
    hnp.arrays(np.float64, READ_SHAPES, elements=READ_FLOATS),
    hnp.arrays(np.complex128, READ_SHAPES, elements=st.builds(complex, READ_FLOATS, READ_FLOATS)),
    hnp.arrays(
        object, READ_SHAPES,
        elements=st.one_of(READ_FLOATS, st.integers(-(10**400), 10**400), st.builds(complex, READ_FLOATS, READ_FLOATS),
                           st.sampled_from(["1.5", "nan", "a", None])),
    ),
)


@settings(max_examples=400, deadline=None)
@given(value=READ_VALUES, finite=st.booleans(), data=st.data())
def test_read_gives_a_float_array_of_the_asked_shape_or_a_value_error(value, finite, data):
    # the asked shape: the value's own, with some axes freed, or any other
    own = tuple(data.draw(st.sampled_from([k, None])) for k in value.shape)
    shape = data.draw(st.one_of(st.just(value.shape), st.just(own), READ_SHAPES))
    try:
        out = _read(value, "x", shape, finite)
    except ValueError as exc:
        assert str(exc).startswith("x has ")
        return
    assert out.dtype == np.float64
    assert len(out.shape) == len(shape) and all(e is None or e == k for e, k in zip(shape, out.shape))
    assert not finite or np.isfinite(out).all()
    if value.dtype == np.float64:
        assert out is value  # read with no cast or copy


MODEL_ROUTES = {
    "table": lambda **kw: CornerModel(**{"rho": np.zeros(3), "eta": np.eye(2, 3), "table": np.ones((4, 3)), **kw}),
    "lazy": lambda **kw: CornerModel(**{"rho": np.zeros(3), "eta": np.eye(2, 3), "gamma": lambda mask: [1.0] * 3, **kw}),
    "replace-random": lambda **kw: dataclasses.replace(random_corner_model(np.random.default_rng(0), 2, 3), **kw),
    "replace-lazy": lambda **kw: dataclasses.replace(lazy_corner_model(1, 2, 3), **kw),
}
ONE_OF_GAMMA_AND_TABLE = "a CornerModel takes exactly one of gamma (lazy) and table"
MODEL_PROBES = {
    "f_min-negative": ({"f_min": -1.0}, "f_min must be positive and finite, got -1.0"),
    "f_min-zero": ({"f_min": 0.0}, "f_min must be positive and finite, got 0.0"),
    "f_min-nan": ({"f_min": np.nan}, "f_min must be positive and finite, got nan"),
    "f_min-inf": ({"f_min": np.inf}, "f_min must be positive and finite, got inf"),
    "f_min-bool": ({"f_min": True}, "f_min must be positive and finite, got True"),
    "rho-nan": ({"rho": [np.nan, 0.0, 0.0]}, "rho has non-finite entries: [nan, 0.0, 0.0]"),
    "rho-short": ({"rho": [0.0, 0.0]}, "rho has shape (2,), expected (3,)"),
    "both": ({"gamma": lambda mask: [1.0] * 3, "table": np.ones((4, 3))}, f"{ONE_OF_GAMMA_AND_TABLE}, got both"),
    "neither": ({"gamma": None, "table": None}, f"{ONE_OF_GAMMA_AND_TABLE}, got neither"),
    "n": ({"n": 3}, None),
}


@pytest.mark.parametrize("probe", list(MODEL_PROBES))
@pytest.mark.parametrize("route", list(MODEL_ROUTES))
def test_every_route_into_a_corner_model_checks_its_data(route, probe):
    # the constructor and dataclasses.replace took each of these, so a floor
    # that no field meets gave B, and a NaN rho made the JSON writer write nan
    changes, message = MODEL_PROBES[probe]
    if message is not None:
        error, pattern = ValueError, f"^{re.escape(message)}$"
    elif route.startswith("replace"):  # d and n are read off eta, so no route takes them
        error, pattern = ValueError, r"^field n is declared with init=False, it cannot be specified with replace\(\)$"
    else:
        error, pattern = TypeError, r"got an unexpected keyword argument 'n'$"
    with pytest.raises(error, match=pattern):
        MODEL_ROUTES[route](**changes)


@pytest.mark.parametrize(
    "rows, message",
    [
        (mixed_bad_rows({"a": 1.0}), "gamma(+-) has shape (3,), expected (2,)"),
        (mixed_bad_rows("ab"), "gamma(+-) has shape (3,), expected (2,)"),
        ([[1.0] * 3, [1.0] * 3, [10**400, 1.0, 1.0], [1.0] * 3], "gamma(--) has shape (3,), expected (2,)"),
        (
            [[1.0, "x"], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
            "gamma(--) has entries that are not real numbers: [1.0, 'x']",
        ),
    ],
    ids=["dict", "string", "overflow", "not-a-float"],
)
def test_json_rows_report_the_first_bad_orthant_in_mask_order(rows, message):
    # the reader hands its rows to the constructor as they are, by mask, so a
    # bad row is named as on every other route, whatever order the keys come in
    gamma = {_key(mask, 2): row for mask, row in reversed(list(enumerate(rows)))}
    payload = {"d": 2, "n": 2, "rho": [0, 0], "eta": [[1, 0], [0, 1]], "gamma": gamma}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        corner_model_from_json(json.dumps(payload))


def test_table_validation_ranks_ties_lexicographically():
    # "+--" is mask 1 but comes fourth in lexicographic order, "--+" is mask 4
    # but comes second; both reach 0.5, "--+" at surfaces 2 and 3
    table = [[1.0, 1.0, 1.0]] * 8
    table[1] = [0.5, 1.0, 1.0]
    table[4] = [1.0, 0.5, 0.5]
    m = CornerModel(np.zeros(3), np.eye(3), table=table)
    rep = validate_corner(m)
    assert (rep.min_dot, rep.min_pair) == (0.5, (2, 4))
    assert rep == validate_corner(lazy_copy(m))
    # pwc-linear: every orthant's crossed surfaces tie at the minimum speed
    # at d = 11 the minimum recurs in a later 1024-orthant block of the scan
    for d in [*range(1, 9), 11]:
        m = preset("pwc-linear", d=d)[1]
        rep = validate_corner(m)
        assert rep.min_pair == (d, 1 << (d - 1))  # "-...-+"
        assert rep == validate_corner(lazy_copy(m))


def test_table_validation_reports_the_first_nan_in_lexicographic_order():
    # eta_1 . gamma overflows to inf - inf = NaN at "+--" (mask 1) and at
    # "--+" (mask 4, first in lexicographic order)
    eta = [[1e200, 1e200, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    table = [[1.0, 1.0, 1.0]] * 8
    for mask in (1, 4):
        table[mask] = [1e200, -1e200, 1.0]
    m = CornerModel(np.zeros(3), eta, table=table)
    with np.errstate(over="ignore", invalid="ignore"):
        rep, ref = validate_corner(m), validate_corner(lazy_copy(m))
    assert np.isnan(rep.min_dot) and np.isnan(ref.min_dot)
    assert rep.min_pair == ref.min_pair == (1, 4)
    assert dataclasses.replace(rep, min_dot=0.0) == dataclasses.replace(ref, min_dot=0.0)
    assert not rep.transversal_ok


def test_gamma_table_is_read_only():
    m = const_gamma_model(2, [1.0, 2.0])
    with pytest.raises(ValueError, match="read-only"):
        m.table[0, 0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        m.gamma_vec(SignVector.minus_ones(2))[1] = 5.0
    assert m.table.tolist() == [[1.0, 2.0]] * 4


@pytest.mark.parametrize("name", ["pwc", "pwc-linear", "biped-xor"])
def test_a_table_model_has_no_gamma_callable_and_serves_its_rows(name):
    # every reader goes through the table, gamma_row, gamma_at or gamma_vec
    field, m = preset(name, d=3)
    for model in (m, corner_model_from_json(corner_model_to_json(m))):
        assert model.gamma is None
        for mask in range(1 << model.n):
            b = SignVector.from_mask(mask, model.n)
            row = m.table[mask]
            assert model.gamma_vec(b).tobytes() == model.gamma_at(b.mask).tobytes() == row.tobytes()
            assert model.gamma_row(b.mask) == row.tolist()
    if name.startswith("pwc"):  # the selection is the corner's row, everywhere
        for mask in range(1 << m.n):
            b = SignVector.from_mask(mask, m.n)
            assert field.selection(b).value(np.ones(3)).tobytes() == m.table[mask].tobytes()


def gamma_table(n, gamma):
    """The 2**n rows of a lazy gamma as a table by mask."""
    return [gamma(mask) for mask in range(1 << n)]


def test_mid_loop_floor_names_the_same_orthant_in_both_kernels():
    # After surfaces 1..5, surface 7 moves at 1e-12.  Beyond the exhaustive
    # cap a presumed-valid lazy model is validated on 64 sampled orthants
    # only, so the scalar kernel's own floor test meets the slow orthant, and
    # so does the sampled oracle's, with the same text; a table is checked
    # whole, so validation names it before the block kernel runs.
    n, slow = 17, 0b11111

    def gamma(mask):
        g = [1.0] * n
        if mask == slow:
            g[6] = 1e-12
        return g

    table = CornerModel(np.zeros(n), np.eye(n), table=gamma_table(n, gamma))
    lazy = CornerModel.create(rho=np.zeros(n), eta=np.eye(n), gamma=gamma, presumed_valid=True)
    v = np.arange(n, 0, -1.0)  # crosses surface 1 first, then 2, ...
    orthant = f"{'+' * 5}{'-' * 12}"
    floor = f"eta_7 . gamma({orthant}) = 1e-12 below floor 1e-09"
    with pytest.raises(DegenerateDenominator, match=f"^{re.escape(floor)} mid-loop$"):
        b_evaluate(lazy, v)
    x0 = -0.01 * np.arange(1, n + 1)  # the frozen flow crosses surface 1 first, then 2, ...
    for run in (lambda: sampled_flow(lazy, 1.0, x0), lambda: time_to_impact_sampled(lazy, x0)):
        with pytest.raises(DegenerateDenominator, match=f"^{re.escape(floor)}$"):
            run()
    message = rf"^normal-dot 1e-12 below floor 1e-09 at surface 7, orthant {re.escape(orthant)}$"
    with pytest.raises(NotEventSelected, match=message):
        b_evaluate_block(table, v[None])



def slow_orthant_gamma(n, slow, entries):
    """A lazy gamma of ones, except ``entries`` (index -> value) at mask ``slow``."""

    def gamma(mask):
        g = [1.0] * n
        if mask == slow:
            for i, value in entries.items():
                g[i] = value
        return g

    return gamma


@pytest.mark.parametrize("container", [list, np.array])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_lazy_non_finite_row_beyond_the_sampled_orthants_is_refused(bad, container):
    # the 64 sampled orthants miss mask 0b11111, so the model validates and the
    # kernel's own read must refuse the row rather than return a NaN image
    n, slow = 17, 0b11111
    gamma = slow_orthant_gamma(n, slow, {6: bad})
    m = CornerModel.create(
        rho=np.zeros(n), eta=np.eye(n), gamma=lambda mask: container(gamma(mask)), presumed_valid=True
    )
    assert m.validation().ok
    message = rf"^gamma\({'[+]' * 5}{'-' * 12}\) has non-finite entries: \[.*{bad}.*\]$"
    with pytest.raises(ValueError, match=message):
        b_evaluate(m, np.arange(n, 0, -1.0))
    with pytest.raises(ValueError, match=message):
        m.gamma_row(slow)


@pytest.mark.parametrize("row", [[np.inf, 0.0], [0.0, np.inf]])
def test_lazy_row_with_an_infinite_speed_fails_validation(row):
    # eta_1 . row = +inf would pass any floor; the non-finite row is refused instead
    m = CornerModel.create(
        rho=[0.0, 0.0], eta=[[1.0, 1.0]], gamma=lambda mask: row if mask == 1 else [1.0, 1.0]
    )
    for call in (lambda: validate_corner(m), lambda: b_evaluate(m, [0.3, 0.4])):
        with pytest.raises(ValueError, match=rf"^gamma\(\+\) has non-finite entries: {re.escape(str(row))}$"):
            call()


def _lazy_all_plus_inf_n17():
    # presumed valid: the 64 sampled orthants miss the all-plus one
    n = 17
    gamma = slow_orthant_gamma(n, (1 << n) - 1, {0: np.inf})
    return CornerModel.create(rho=np.zeros(n), eta=np.eye(n), gamma=gamma, presumed_valid=True)


def _lazy_n1_inf_row():
    # not valid: the all-plus row has an infinite speed
    return CornerModel.create(
        rho=[0.0, 0.0], eta=[[1.0, 1.0]], gamma=lambda mask: [np.inf, 0.0] if mask == 1 else [1.0, 1.0]
    )


@pytest.mark.parametrize(
    "model, read",
    [
        (_lazy_all_plus_inf_n17, lambda m: saltation_matrix(m, Permutation(tuple(range(1, 18))))),
        (_lazy_all_plus_inf_n17, rho_plus),
        (_lazy_all_plus_inf_n17, lineality_split),
        (_lazy_n1_inf_row, corner_model_to_json),
        (_lazy_n1_inf_row, rho_plus),
        (_lazy_n1_inf_row, lineality_split),
    ],
    ids=["n17-saltation_matrix", "n17-rho_plus", "n17-lineality_split",
         "n1-corner_model_to_json", "n1-rho_plus", "n1-lineality_split"],
)
def test_every_read_of_a_lazy_row_refuses_non_finite_entries(model, read):
    m = model()
    with pytest.raises(ValueError, match=rf"^gamma\({'[+]' * m.n}\) has non-finite entries: \[.*inf.*\]$"):
        read(m)


def test_nan_denominator_fails_the_floor_in_every_kernel():
    # Finite rows whose eta_7 . gamma overflows to inf - inf = NaN at the slow
    # orthant, which the 64 sampled orthants of the lazy model miss: every
    # floor test must fail on the NaN as it does on a small speed.  The table
    # is checked whole, so its validation fails first.
    n, slow = 17, 0b11111
    eta = 1e200 * np.eye(n)
    eta[6, 7] = -0.5e200
    gamma = slow_orthant_gamma(n, slow, {6: 1e200, 7: 1e200})
    table = CornerModel(np.zeros(n), eta, table=gamma_table(n, gamma))
    lazy = CornerModel.create(rho=np.zeros(n), eta=eta, gamma=gamma, presumed_valid=True)
    sigma = Permutation((1, 2, 3, 4, 5, 7, 6, *range(8, n + 1)))
    v = np.arange(n, 0, -1.0)  # crosses surfaces 1..5 first, then 7
    orthant = f"{'+' * 5}{'-' * 12}"
    kernel = (DegenerateDenominator, f"eta_7 . gamma({orthant}) = nan below floor 1e-09")
    validation = (NotEventSelected, f"normal-dot nan below floor 1e-09 at surface 7, orthant {orthant}")
    runs = [
        (lambda: b_evaluate(lazy, v), *kernel), (lambda: saltation_matrix(lazy, sigma), *kernel),
        (lambda: b_evaluate_block(table, v[None]), *validation),
        (lambda: saltation_matrix(table, sigma), *validation),
    ]
    for run, error, message in runs:
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error) as info:
            run()
        assert message in str(info.value)


def test_table_above_the_cap_is_validated_whole():
    # n = d = 17: the (2**17, 17) table is 17 MiB.  Validation checks every
    # orthant of a table, so it refuses a slow orthant, mask 0b11111, that the
    # 64 orthants sampled with seed 0 miss, and its peak stays within 3 tables.
    n, slow = 17, 0b11111
    table = np.ones((1 << n, n))
    m = CornerModel(np.zeros(n), np.eye(n), table=table)
    tracemalloc.start()
    try:
        rep = m.validation()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * m.table.nbytes
    assert rep.ok and (rep.exhaustive, rep.orthants_checked) == (True, 1 << n)
    table[slow, 6] = 1e-12
    slow_model = CornerModel(np.zeros(n), np.eye(n), table=table)
    sampled = validate_corner(CornerModel(np.zeros(n), np.eye(n), gamma=slow_model.gamma_at))
    assert sampled.ok and (sampled.exhaustive, sampled.orthants_checked) == (False, 64)
    message = rf"^normal-dot 1e-12 below floor 1e-09 at surface 7, orthant {'[+]' * 5}{'-' * 12}$"
    with pytest.raises(NotEventSelected, match=message):
        slow_model.require_valid()


def test_replaced_model_gets_a_fresh_cache():
    m = const_gamma_model(2, [1.0, 1.0], f_min=1e-9)
    assert m.validation().ok
    m.speeds()
    stricter = dataclasses.replace(m, f_min=5.0)
    assert not stricter.validation().ok
    assert stricter.validation().min_dot == 1.0
    assert m.validation().ok


def test_one_b_evaluate_converts_only_the_rows_it_reads():
    # n = 13, d = 13: 2**13 rows of 13 floats, 0.81 MiB of table.  Converting
    # the whole table to Python floats took 3.75 MiB; one evaluation reads
    # n + 1 rows.
    n = 13
    m = const_gamma_model(n, np.linspace(1.0, 2.0, n))
    m.require_valid()
    tracemalloc.start()
    try:
        b_evaluate(m, np.arange(1.0, n + 1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m.table.nbytes

# -- freezing a field at an event ----------------------------------------------


def coordinate_field(n, calls):
    """Surfaces x_j = 0 in R^n, with selection b worth ``1 + b / 4`` componentwise;
    ``calls`` records every selection built."""

    def selection(b):
        calls.append(b)
        g = 1.0 + 0.25 * np.array(b.entries, dtype=float)
        return SmoothField(value=lambda x: g.copy(), jacobian=lambda x: np.zeros((n, n)))

    return PiecewiseField(
        d=n, n=n, rho=np.zeros(n), h=lambda x: np.asarray(x, dtype=float),
        dh=lambda x: np.eye(n), selection=selection,
    )


def test_corner_model_is_a_table_of_one_selection_call_per_orthant():
    calls = []
    field = coordinate_field(3, calls)
    incoming = 0b110  # "-++"
    m = field.corner_model(np.zeros(3), incoming, surfaces=(1, 3))
    assert m.table is not None and m.n == 2
    # surface 1 is crossed upward, surface 3 downward; surface 2 stays at +1
    np.testing.assert_array_equal(m.eta, [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    assert calls == [SignVector(s) for s in ((-1, 1, 1), (1, 1, 1), (-1, 1, -1), (1, 1, -1))]
    for mask, b in enumerate(calls):
        np.testing.assert_array_equal(m.table[mask], 1.0 + 0.25 * np.array(b.entries))


def test_lazy_model_over_the_cap_must_be_presumed_valid():
    n = VALIDATION_ENUM_CAP + 1
    frame = dict(rho=np.zeros(n), eta=np.eye(n), gamma=lambda mask: [1.0] * n)
    message = (
        rf"^exhaustive validation over 2\*\*{n} orthants refused; construct the model "
        "with presumed_valid=True if transversality holds by construction$"
    )
    with pytest.raises(CapExceeded, match=message):
        CornerModel.create(**frame)
    m = CornerModel.create(**frame, presumed_valid=True)
    rep = validate_corner(m)
    assert rep.ok and (rep.exhaustive, rep.orthants_checked) == (False, 64)
    # JSON writes every orthant, so the presumed-valid lazy model is refused there
    message = (
        rf"^2\*\*{n} orthants refused: the JSON of a lazy model with n = {n} takes "
        rf"2\*\*{n} gamma rows, more than 2\*\*16$"
    )
    with pytest.raises(CapExceeded, match=message):
        corner_model_to_json(m)


def test_corner_model_over_the_cap_calls_no_selection():
    calls = []
    n = VALIDATION_ENUM_CAP + 1
    field = coordinate_field(n, calls)
    with pytest.raises(CapExceeded, match=rf"2\*\*{n} orthants refused"):
        field.corner_model(np.zeros(n), 0)
    assert calls == []


# Arguments that name no orthant of a two-surface model: a sign vector of
# another length, and the tuple and '-+' key a SignVector would be built from.
NOT_AN_ORTHANT_OF_TWO = {
    "short": SignVector((1,)),
    "long": SignVector((1, -1, 1)),
    "tuple": (1, -1),
    "key": "+-",
}


def not_an_orthant_message(what, bad):
    return rf"^{what} must be a SignVector of 2 signs, got {re.escape(repr(bad))}$"


@pytest.mark.parametrize("read", ["table", "lazy"])
@pytest.mark.parametrize("bad", NOT_AN_ORTHANT_OF_TWO.values(), ids=NOT_AN_ORTHANT_OF_TWO)
def test_gamma_vec_refuses_what_is_not_an_orthant_of_the_model(bad, read):
    m = const_gamma_model(2, [1.0, 2.0])
    if read == "lazy":
        m = lazy_copy(m)
    with pytest.raises(ValueError, match=not_an_orthant_message("the orthant", bad)):
        m.gamma_vec(bad)


# A gamma that is not callable: a table by mask, a number, and a table keyed by
# SignVector, which create took as a table before it kept only its callable route.
NOT_A_GAMMA = {
    "mask-table": ({0: [1.0, 1.0]}, "dict"),
    "number": (5, "int"),
    "sign-vector-table": ({SignVector.from_mask(mask, 2): [1.0, 1.0] for mask in range(4)}, "dict"),
}


@pytest.mark.parametrize("route", ["constructor", "create", "replace"])
@pytest.mark.parametrize("bad", NOT_A_GAMMA, ids=NOT_A_GAMMA)
def test_a_gamma_that_is_not_callable_is_refused(bad, route):
    # the constructor took each, and require_valid ended in a bare
    # "TypeError: 'dict' object is not callable"
    gamma, kind = NOT_A_GAMMA[bad]
    message = (f"gamma must be a callable of the orthant mask, got {kind}; "
               "a table of orthant limits is passed as table")
    builds = {
        "constructor": lambda: CornerModel(np.zeros(2), np.eye(2), gamma=gamma),
        "create": lambda: CornerModel.create(np.zeros(2), np.eye(2), gamma),
        "replace": lambda: dataclasses.replace(lazy_corner_model(1, 2, 2), gamma=gamma),
    }
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        builds[route]()


def spied_coordinate_field(n, calls):
    """:func:`coordinate_field` with every call of ``dh`` recorded as "dh" in ``calls``."""
    field = coordinate_field(n, calls)
    return dataclasses.replace(field, dh=lambda x: calls.append("dh") or field.dh(x))


# What is not the mask of an orthant of two surfaces: masks out of range, a
# bool, a float, and the SignVector, tuple and '-+' key of an orthant.
NOT_A_MASK_OF_TWO = {
    "mask-4": 4,
    "mask-negative": -1,
    "bool": True,
    "float": 1.0,
    "sign-vector": SignVector((1, -1)),
    "tuple": (1, -1),
    "key": "+-",
}


@pytest.mark.parametrize("bad", NOT_A_MASK_OF_TWO.values(), ids=NOT_A_MASK_OF_TWO)
def test_corner_model_refuses_an_incoming_orthant_before_the_field_runs(bad):
    calls = []
    message = rf"^incoming must be an orthant mask in 0..3, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        spied_coordinate_field(2, calls).corner_model(np.zeros(2), bad)
    assert calls == []


def test_corner_model_takes_a_numpy_int_mask():
    m = coordinate_field(2, []).corner_model(np.zeros(2), np.int64(1))
    np.testing.assert_array_equal(m.eta, [[-1.0, 0.0], [0.0, 1.0]])


def nan_normal_field(rows, surfaces=None):
    """pwc-linear at d = 2 with ``dh`` replaced by the constant ``rows``."""
    field = dataclasses.replace(preset("pwc-linear")[0], dh=lambda x: np.array(rows, dtype=float))
    return field.corner_model([0.0, 0.0], 0, surfaces)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_corner_model_refuses_a_non_finite_normal_on_a_crossing_surface_by_naming_dh(bad):
    # it was refused as "eta has non-finite entries in row 0", an eta the caller never passed
    with pytest.raises(ValueError, match=rf"^dh on surface 1 has non-finite entries: \[{bad}, {bad}\]$"):
        nan_normal_field([[bad, bad], [0.0, 1.0]])
    with pytest.raises(ValueError, match=rf"^dh on surface 2 has non-finite entries: \[1.0, {bad}\]$"):
        nan_normal_field([[1.0, 0.0], [1.0, bad]], surfaces=(1, 2))


def test_corner_model_does_not_read_the_normal_of_a_surface_that_does_not_cross():
    # integrate reads only the crossing surfaces' rows of dh as well
    m = nan_normal_field([[1.0, 0.0], [np.nan, np.nan]], surfaces=[1])
    np.testing.assert_array_equal(m.eta, [[1.0, 0.0]])
    assert m.n == 1 and m.validation().ok


@pytest.mark.parametrize("surfaces", [(0,), (3,), (1, 1), (2, 1, 2), (-1, 2), (1.0,), (True,)])
def test_corner_model_refuses_surfaces_outside_1_to_n_or_named_twice(surfaces):
    calls = []
    field = spied_coordinate_field(2, calls)
    message = rf"^surfaces must be distinct surfaces in 1..2, got {re.escape(str(surfaces))}$"
    with pytest.raises(ValueError, match=message):
        field.corner_model(np.zeros(2), 0, surfaces=surfaces)
    assert calls == []
    field.corner_model(np.zeros(2), 0, surfaces=(2, 1))
    assert calls[0] == "dh" and len(calls) == 5


# -- JSON interchange ----------------------------------------------------------


def test_corner_model_json_round_trip():
    rng = np.random.default_rng(5)
    m = random_corner_model(rng, 3, 4)
    text = corner_model_to_json(m)
    payload = json.loads(text)
    assert set(payload) == {"d", "n", "rho", "eta", "gamma", "f_min"}
    assert set(payload["gamma"]) == {key for key, _ in orthant_keys(3)}
    m2 = corner_model_from_json(text)
    assert m2.d == m.d and m2.n == m.n
    np.testing.assert_array_equal(m2.rho, m.rho)
    np.testing.assert_array_equal(m2.eta, m.eta)
    np.testing.assert_array_equal(m2.table, m.table)


def test_shuffled_json_gamma_keys_land_on_their_rows():
    rng = np.random.default_rng(12)
    payload = json.loads(corner_model_to_json(random_corner_model(rng, 3, 4)))
    items = list(payload["gamma"].items())
    payload["gamma"] = dict(items[i] for i in rng.permutation(len(items)))
    assert list(payload["gamma"]) != [key for key, _ in items]
    m = corner_model_from_json(json.dumps(payload))
    # the writer keys each row by its own orthant
    assert json.loads(corner_model_to_json(m))["gamma"] == payload["gamma"]


def test_sign_keys_follow_surface_positions():
    key = _key(SignVector((-1, 1)).mask, 2)
    assert key[0] == "-" and key[1] == "+"


# every orthant of two surfaces, so that a fault past the keys is reached
FULL = '{"--": [1, 1], "-+": [1, 1], "+-": [1, 1], "++": [1, 1]}'


@pytest.mark.parametrize(
    "text, match",
    [
        ('[1, 2]', "object"),
        ('{"d": 2, "n": 2, "rho": [0, 0], "eta": [[1, 0], [0, 1]]}', "gamma"),
        ('{"d": 2, "n": 2, "rho": [0, 0], "eta": [[1, 0], [0, 1]], "gamma": [1, 2]}', "gamma"),
        ('{"d": 2, "n": 2, "rho": [0, 0], "eta": [[1, 0], [0, 1]], '
         '"gamma": {"--": {}, "-+": [1, 1], "+-": [1, 1], "++": [1, 1]}}',
         r"^gamma\(--\) has entries that are not real numbers: "),
        # sizes with keys and rows to match, but not eta: n = 3 with its 8 rows was
        # refused as a table that misses all 4 orthants of eta's 2 rows
        (json.dumps({"d": 2, "n": 3, "rho": [0, 0], "eta": [[1, 0], [0, 1]],
                     "gamma": {key: [1, 1] for key, _ in orthant_keys(3)}}),
         "^malformed model JSON: n must equal eta's row count 2, got 3$"),
        ('{"d": 3, "n": 2, "rho": [0, 0], "eta": [[1, 0], [0, 1]], '
         '"gamma": {"--": [1, 1, 1], "-+": [1, 1, 1], "+-": [1, 1, 1], "++": [1, 1, 1]}}',
         "^malformed model JSON: d must equal eta's column count 2, got 3$"),
        ('{"d": 2, "n": 2, "rho": [0, 0], "eta": [[1, 0], [0, 1]], '
         '"gamma": {"--": [1, 1], "-": [1, 1]}}', "^inconsistent gamma entry for key '-'$"),
        ('{"d": 2, "n": 2, "rho": [0, 0], "eta": [[1, 0], [0, 1]], '
         '"gamma": {"--": [1, 1], "-x": [1, 1]}}', "^bad sign key '-x'$"),
        ('{"d": 2, "n": 2, "rho": [0, 0], "eta": [[1, 0], [0, 1]], '
         '"gamma": {"--": [1, 1], "+-": [1, 1], "": [1, 1]}}', "^bad sign key ''$"),
        # "+-" (mask 1) is missing too, but "-+" comes first in lexicographic order
        ('{"d": 2, "n": 2, "rho": [0, 0], "eta": [[1, 0], [0, 1]], '
         '"gamma": {"--": [1, 1], "++": [1, 1]}}',
         r"^gamma table misses 2 of 4 orthants, first missing -\+$"),
        # an infinite size, and an integer too large for a double
        ('{"d": -Infinity, "n": 2, "rho": [0, 0], "eta": [[1, 0], [0, 1]], "gamma": {}}',
         "^malformed model JSON: d must equal eta's column count 2, got -inf$"),
        # a bool, a string or a non-integral size is refused, not coerced
        ('{"d": 2, "n": 2.5, "rho": [0, 0], "eta": [[1, 0], [0, 1]], "gamma": {}}',
         "^malformed model JSON: n must equal eta's row count 2, got 2.5$"),
        ('{"d": 2.9, "n": 2, "rho": [0, 0], "eta": [[1, 0], [0, 1]], "gamma": {}}',
         "^malformed model JSON: d must equal eta's column count 2, got 2.9$"),
    ],
)
def test_malformed_json_is_a_value_error(text, match):
    with pytest.raises(ValueError, match=match):
        corner_model_from_json(text)


ONE_SURFACE = [[1.0], [1.0]]  # by mask: "-", "+"


@pytest.mark.parametrize("f_min", [0, -1])
def test_create_refuses_a_floor_that_is_not_positive_and_finite(f_min):
    with pytest.raises(ValueError, match=f"^f_min must be positive and finite, got {f_min!r}$"):
        CornerModel(np.zeros(1), np.ones((1, 1)), table=ONE_SURFACE, f_min=f_min)


# the two entry points that take a time, each with its own text, by the end point they return
TIME_CALLS = {
    "integrate": (
        lambda t: integrate(preset("pwc")[0], [-0.5, -0.5], t, steps=4).x_end,
        "integrate expects a finite t >= 0",
    ),
    "sampled_flow": (
        lambda t: sampled_flow(random_corner_model(np.random.default_rng(0), 2, 3), t, np.zeros(3)),
        "the frozen flow is defined for finite t >= 0 only",
    ),
}


@pytest.mark.parametrize("t", [-1.0, -1], ids=["-1.0", "-1"])
@pytest.mark.parametrize("call", TIME_CALLS)
def test_a_time_that_is_not_finite_and_non_negative_keeps_its_callers_text(call, t):
    run, text = TIME_CALLS[call]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{text}, got t = {t}')}$"):
        run(t)


@pytest.mark.parametrize("t", [0], ids=["zero"])
@pytest.mark.parametrize("call", TIME_CALLS)
def test_a_real_time_is_taken_as_its_float(call, t):
    run, _ = TIME_CALLS[call]
    np.testing.assert_array_equal(run(t), run(float(t)))


def stdlib_json(m: CornerModel) -> str:
    """The interchange text as the standard library's encoder writes it."""
    payload = {
        "d": m.d,
        "n": m.n,
        "rho": m.rho.tolist(),
        "eta": m.eta.tolist(),
        "gamma": {key: m.gamma_at(mask).tolist() for key, mask in orthant_keys(m.n)},
        "f_min": m.f_min,
    }
    return json.dumps(payload, indent=2)


def extreme_entry_models():
    """A table and a lazy model whose rows hold -0.0, the smallest subnormal and 1e300."""
    rows = [  # by mask: "--", "+-", "-+", "++"
        [-0.0, 1.0, 5e-324],
        [1e300, -0.0, 0.0],
        [5e-324, 1e300, -1e300],
        [1.0, -5e-324, 0.1],
    ]
    rho, eta = [-0.0, 5e-324, 1e300], [[1.0, -0.0, 0.0], [0.0, 1.0, 5e-324]]
    table = CornerModel(rho, eta, table=rows, f_min=5e-324)
    return [table, lazy_copy(table)]


def test_json_writer_matches_the_stdlib_encoder():
    from nsflow import oracle

    # d = n draws have no kernel component; d = n + 1 draws have one
    rng = np.random.default_rng(21)
    models = [oracle.random_corner_model(rng, n, n + k) for k in (0, 1) for n in range(1, 9)]
    models += [oracle.lazy_corner_model(21, 4, 6), oracle.lazy_corner_model(22, 6, 6)]
    models.append(CornerModel([0.5], [[2.0]], table=ONE_SURFACE))
    models += extreme_entry_models()
    for m in models:
        assert corner_model_to_json(m) == stdlib_json(m)


VALID_PAYLOAD = {
    "d": 2,
    "n": 2,
    "rho": [0.0, 0.0],
    "eta": [[1.0, 0.0], [0.0, 1.0]],
    "gamma": {key: [1.0, 1.0] for key in ("--", "-+", "+-", "++")},
    "f_min": 1e-9,
}
# the extremes: JSON's Infinity and NaN, the largest double, and an integer no double holds
EXTREMES = st.sampled_from([float("inf"), float("-inf"), float("nan"), 1e308, 10**400])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | EXTREMES | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from([(k,) for k in VALID_PAYLOAD] + [("gamma", "+-")]), value=JSON_VALUES)
def test_any_json_value_under_a_key_gives_a_model_or_a_value_error(path, value):
    payload = json.loads(json.dumps(VALID_PAYLOAD))
    (payload["gamma"] if len(path) == 2 else payload)[path[-1]] = value
    try:
        m = corner_model_from_json(json.dumps(payload))
    except ValueError:
        return
    assert isinstance(m.validation(), ValidationReport)
