import dataclasses
import hashlib
import json
import re
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lazy_copy

from nsflow.core import (
    VALIDATION_ENUM_CAP,
    CornerModel,
    Permutation,
    PiecewiseField,
    SignVector,
    SmoothField,
    ValidationReport,
    _corner_frame,
    _table_model,
    all_permutations,
    all_sign_vectors,
    corner_model_from_json,
    corner_model_to_json,
    sign_of,
    validate_corner,
)
from nsflow.apps import preset
from nsflow.bderiv import b_evaluate, b_evaluate_block, lineality_split, saltation_matrix
from nsflow.errors import CapExceeded, DegenerateDenominator, NotEventSelected, RankDeficient
from nsflow.sampled import rho_plus


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


@pytest.mark.parametrize("v", [[], [[1.0, -1.0]]], ids=["empty", "2-d"])
def test_sign_of_needs_a_nonempty_vector(v):
    with pytest.raises(ValueError, match="^sign_of expects a nonempty 1-d vector$"):
        sign_of(v)


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
    assert SignVector((-1, 1, 1, -1)) == b


def test_sign_vector_rejects_bad_entries():
    with pytest.raises(ValueError):
        SignVector.of([0, 1])
    with pytest.raises(ValueError):
        SignVector.of([])


def test_sign_vector_mask_round_trip():
    b = SignVector((1, -1, 1, -1))
    assert b.mask == 0b0101  # bit j set when surface j+1 is crossed
    assert SignVector.from_mask(b.mask, 4) == b
    assert [v.mask for v in all_sign_vectors(2)] == [0, 2, 1, 3]


def test_permutation_must_be_bijection():
    with pytest.raises(ValueError):
        Permutation.of([1, 1, 3])
    with pytest.raises(ValueError):
        Permutation.of([0, 1])


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


@pytest.mark.parametrize("where", ["rho", "eta"])
@pytest.mark.parametrize(
    "bad", [np.array([1.0, 0.2j]), [1.0, np.complex128(0.2j)], [1.0, "a"]],
    ids=["complex-array", "complex128", "string"],
)
def test_create_rejects_data_that_is_not_real(where, bad):
    rho, eta = (bad, np.eye(2)) if where == "rho" else (np.zeros(2), [bad, [0.0, 1.0]])
    table = {b: np.ones(2) for b in all_sign_vectors(2)}
    with pytest.raises(ValueError, match=rf"^{where} has entries that are not real numbers: "):
        CornerModel.create(rho=rho, eta=eta, gamma=table)


@pytest.mark.parametrize(
    "make",
    [
        lambda: CornerModel.create(rho=[0, 0], eta=np.zeros((0, 2)), gamma=lambda b: [1.0, 1.0]),
        lambda: CornerModel.create(rho=[0, 0], eta=np.zeros((0, 2)), gamma={}),
        lambda: CornerModel.create(rho=[], eta=np.zeros((2, 0)), gamma=lambda b: []),
        lambda: corner_model_from_json(
            json.dumps({"d": 0, "n": 1, "rho": [], "eta": [[]], "gamma": {"-": [], "+": []}})
        ),
    ],
    ids=["no-rows-lazy", "no-rows-table", "no-columns", "json-no-columns"],
)
def test_corner_frame_without_rows_or_columns_is_refused(make):
    with pytest.raises(ValueError, match=r"^eta has shape \(\d+, \d+\), expected \(n, d\) with n >= 1 and d >= 1$"):
        make()


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


@pytest.mark.parametrize("container", [list, np.array])
@pytest.mark.parametrize("row", [[1.0, 1.0, -50.0], [1.0]])
def test_lazy_gamma_row_of_the_wrong_length_is_refused(row, container):
    # only orthant "+-" (mask 1) is malformed; a long row must not lose its tail silently
    def gamma(b):
        return container(row) if b.entries == (1, -1) else container([1.0, 1.0])

    m = CornerModel.create(rho=[0.0, 0.0], eta=np.eye(2), gamma=gamma)
    message = rf"^gamma\(\+-\) has shape \({len(row)},\), expected \(2,\)$"
    for call in (m.validation, lambda: b_evaluate(m, [0.3, 0.4]), lambda: m.gamma_row(1)):
        with pytest.raises(ValueError, match=message):
            call()


def float_cast_error(entry: str) -> str:
    """numpy's message for casting an array that holds ``entry`` to float."""
    with pytest.raises(ValueError) as info:
        np.asarray([entry]).astype(float)
    return str(info.value)


def test_lazy_gamma_row_with_an_entry_that_is_not_a_number_names_its_orthant():
    rows = [
        ([1.0, "x"], float_cast_error("x")),
        (np.array([1.0, 0.2j]), "[(1+0j), 0.2j]"),
        ([1.0, np.complex128(0.2j)], "[(1+0j), 0.2j]"),
    ]
    for row, fault in rows:
        m = CornerModel.create(rho=[0.0, 0.0], eta=np.eye(2), gamma=lambda b, row=row: row)
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
    table = {b: np.array([1.0, 1.0]) for b in all_sign_vectors(2)}
    table[SignVector((-1, 1))] = table[SignVector((1, -1))] = np.array([0.5, 1.0])
    gamma = table.__getitem__ if lazy else table
    rep = validate_corner(CornerModel.create(rho=[0.0, 0.0], eta=np.eye(2), gamma=gamma))
    assert rep.min_dot == 0.5
    assert rep.min_pair == (1, SignVector((-1, 1)))


# SHA-256 over the rho, eta and table bytes and the JSON text of random_corner_model
# draws (seed 90, kernel_scale 0 then 0.5, n = 1..8, d = n..n+4), then the JSON
# text of lazy_corner_model(90, 5, 7)
RANDOM_MODEL_DIGEST = "dc710894f02f4012aeca31d292bc9b8527be67cac07364f421b11e269a3f3ce1"


def test_random_and_json_table_models_are_pinned():
    from nsflow import oracle

    digest = hashlib.sha256()
    for kernel_scale in (0.0, 0.5):
        rng = np.random.default_rng(90)
        for n in range(1, 9):
            for d in range(n, n + 5):
                m = oracle.random_corner_model(rng, n, d, kernel_scale=kernel_scale)
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


MM, PM, MP, PP = SignVector((-1, -1)), SignVector((1, -1)), SignVector((-1, 1)), SignVector((1, 1))


def mixed_bad_rows(later):
    """Rows by orthant whose first bad one in mask order, "+-" (mask 1), has the
    wrong shape; "-+" (mask 2, first in lexicographic order) holds ``later``."""
    return {MM: [1.0, 1.0], PM: [1.0, 1.0, 1.0], MP: later, PP: [1.0, 1.0]}


@pytest.mark.parametrize(
    "rows, message",
    [
        (mixed_bad_rows({"a": 1.0}), "gamma(+-) has shape (3,), expected (2,)"),
        (mixed_bad_rows("ab"), "gamma(+-) has shape (3,), expected (2,)"),
        # every row has the wrong length, so the whole-table conversion
        # overflows before its shape can be checked
        (
            {MM: [1.0] * 3, PM: [1.0] * 3, MP: [10**400, 1.0, 1.0], PP: [1.0] * 3},
            "gamma(--) has shape (3,), expected (2,)",
        ),
        (
            {MM: [1.0, "x"], PM: [1.0, 1.0], MP: [1.0, 1.0], PP: [1.0, 1.0]},
            f"gamma(--) has entries that are not real numbers: {float_cast_error('x')}",
        ),
        (
            {MM: [1.0, 1.0], PM: np.array([1.0, 0.2j]), MP: [1.0, 1.0], PP: [1.0, 1.0]},
            "gamma(+-) has entries that are not real numbers: [(1+0j), 0.2j]",
        ),
        (
            {MM: [1.0, 1.0], PM: [1.0, 1.0], MP: [1.0, np.complex128(0.2j)], PP: [1.0, 1.0]},
            "gamma(-+) has entries that are not real numbers: [(1+0j), 0.2j]",
        ),
    ],
    ids=["dict", "string", "overflow", "not-a-float", "complex-array", "complex128"],
)
@pytest.mark.parametrize("source", ["create", "field"])
def test_table_rows_report_the_first_bad_orthant_in_mask_order(source, rows, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if source == "create":
            CornerModel.create(rho=[0.0, 0.0], eta=np.eye(2), gamma=rows)
        else:
            field = PiecewiseField(
                d=2, n=2, rho=np.zeros(2), h=lambda x: x, dh=lambda x: np.eye(2),
                selection=lambda b: SmoothField(value=lambda x, v=rows[b]: v, jacobian=None),
            )
            field.corner_model(np.zeros(2), SignVector.minus_ones(2))


def test_table_from_an_array_is_a_copy_and_reports_rows_as_a_list_does():
    frame = _corner_frame(np.zeros(2), np.eye(2), 1e-9)
    rows = np.asfortranarray([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    m = _table_model(*frame, rows, 1e-9)
    np.testing.assert_array_equal(m.table, rows)
    assert m.table.flags.c_contiguous and not m.table.flags.writeable
    rows[0, 0] = -1.0  # the caller's array stays writable and apart from the model
    assert m.table[0, 0] == 1.0
    # a bad array is refused as a list of rows is, by its first bad orthant
    with pytest.raises(ValueError, match=r"^gamma\(--\) has shape \(3,\), expected \(2,\)$"):
        _table_model(*frame, np.ones((4, 3)), 1e-9)
    rows[2, 1] = np.nan
    with pytest.raises(ValueError, match=r"^gamma\(-\+\) has non-finite entries$"):
        _table_model(*frame, rows, 1e-9)


@pytest.mark.parametrize(
    "later, message",
    [
        ({"a": 1.0}, "float() argument must be a string or a real number, not 'dict'"),
        ("ab", "could not convert string to float: 'ab'"),
    ],
    ids=["dict", "string"],
)
def test_json_rows_report_the_first_unconvertible_entry(later, message):
    # the reader converts every entry before it checks shapes or builds the table
    gamma = {b.key(): v for b, v in mixed_bad_rows(later).items()}
    payload = {"d": 2, "n": 2, "rho": [0, 0], "eta": [[1, 0], [0, 1]], "gamma": gamma}
    with pytest.raises(ValueError) as info:
        corner_model_from_json(json.dumps(payload))
    assert str(info.value) == f"malformed model JSON: {message}"


def test_table_validation_ranks_ties_lexicographically():
    # "+--" is mask 1 but comes fourth in lexicographic order, "--+" is mask 4
    # but comes second; both reach 0.5, "--+" at surfaces 2 and 3
    gamma = {b: [1.0, 1.0, 1.0] for b in all_sign_vectors(3)}
    gamma[SignVector((1, -1, -1))] = [0.5, 1.0, 1.0]
    gamma[SignVector((-1, -1, 1))] = [1.0, 0.5, 0.5]
    m = CornerModel.create(rho=np.zeros(3), eta=np.eye(3), gamma=gamma)
    rep = validate_corner(m)
    assert (rep.min_dot, rep.min_pair) == (0.5, (2, SignVector((-1, -1, 1))))
    assert rep == validate_corner(lazy_copy(m))
    # pwc-linear: every orthant's crossed surfaces tie at the minimum speed
    # at d = 11 the minimum recurs in a later 1024-orthant block of the scan
    for d in [*range(1, 9), 11]:
        m = preset("pwc-linear", d=d)[1]
        rep = validate_corner(m)
        assert rep.min_pair == (d, SignVector((-1,) * (d - 1) + (1,)))
        assert rep == validate_corner(lazy_copy(m))


def test_table_validation_reports_the_first_nan_in_lexicographic_order():
    # eta_1 . gamma overflows to inf - inf = NaN at "+--" (mask 1) and at
    # "--+" (mask 4, first in lexicographic order)
    eta = [[1e200, 1e200, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    gamma = {b: [1.0, 1.0, 1.0] for b in all_sign_vectors(3)}
    for b in (SignVector((1, -1, -1)), SignVector((-1, -1, 1))):
        gamma[b] = [1e200, -1e200, 1.0]
    m = CornerModel.create(rho=np.zeros(3), eta=eta, gamma=gamma)
    with np.errstate(over="ignore", invalid="ignore"):
        rep, ref = validate_corner(m), validate_corner(lazy_copy(m))
    assert np.isnan(rep.min_dot) and np.isnan(ref.min_dot)
    assert rep.min_pair == ref.min_pair == (1, SignVector((-1, -1, 1)))
    assert dataclasses.replace(rep, min_dot=0.0) == dataclasses.replace(ref, min_dot=0.0)
    assert not rep.transversal_ok


def test_gamma_table_is_read_only():
    m = const_gamma_model(2, [1.0, 2.0])
    with pytest.raises(ValueError, match="read-only"):
        m.table[0, 0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        m.gamma_vec(SignVector.minus_ones(2))[1] = 5.0
    assert m.table.tolist() == [[1.0, 2.0]] * 4


class GammaTable(Mapping):
    """The 2**n entries of a lazy gamma as a table, made on iteration."""

    def __init__(self, n, gamma):
        self.n, self.gamma = n, gamma

    def __getitem__(self, b):
        return self.gamma(b)

    def __iter__(self):
        return all_sign_vectors(self.n)

    def __len__(self):
        return 1 << self.n


def test_mid_loop_floor_names_the_same_orthant_in_both_kernels():
    # Beyond the exhaustive cap a presumed-valid model is validated on 64
    # sampled orthants only, so the kernels' own floor test meets the one
    # slow orthant: after surfaces 1..5, surface 7 moves at 1e-12.
    n, slow = 17, 0b11111

    def gamma(b):
        g = [1.0] * n
        if b.mask == slow:
            g[6] = 1e-12
        return g

    table = CornerModel.create(
        rho=np.zeros(n), eta=np.eye(n), gamma=GammaTable(n, gamma), presumed_valid=True
    )
    lazy = CornerModel.create(rho=np.zeros(n), eta=np.eye(n), gamma=gamma, presumed_valid=True)
    v = np.arange(n, 0, -1.0)  # crosses surface 1 first, then 2, ...
    messages = []
    for run in (lambda: b_evaluate(lazy, v), lambda: b_evaluate_block(table, v[None])):
        with pytest.raises(DegenerateDenominator, match="mid-loop") as info:
            run()
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert f"eta_7 . gamma({'+' * 5}{'-' * 12})" in messages[0]



def slow_orthant_gamma(n, slow, entries):
    """A lazy gamma of ones, except ``entries`` (index -> value) at mask ``slow``."""

    def gamma(b):
        g = [1.0] * n
        if b.mask == slow:
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
        rho=np.zeros(n), eta=np.eye(n), gamma=lambda b: container(gamma(b)), presumed_valid=True
    )
    assert m.validation().ok
    message = rf"^gamma\({'[+]' * 5}{'-' * 12}\) has non-finite entries$"
    with pytest.raises(ValueError, match=message):
        b_evaluate(m, np.arange(n, 0, -1.0))
    with pytest.raises(ValueError, match=message):
        m.gamma_row(slow)


@pytest.mark.parametrize("row", [[np.inf, 0.0], [0.0, np.inf]])
def test_lazy_row_with_an_infinite_speed_fails_validation(row):
    # eta_1 . row = +inf passes any floor; the non-finite row counts as a NaN normal-dot
    m = CornerModel.create(
        rho=[0.0, 0.0], eta=[[1.0, 1.0]], gamma=lambda b: row if b.entries == (1,) else [1.0, 1.0]
    )
    rep = validate_corner(m)
    assert np.isnan(rep.min_dot)
    assert rep.min_pair == (1, SignVector.of([1]))
    with pytest.raises(NotEventSelected, match=r"^normal-dot nan below floor 1e-09 at surface 1, orthant \+$"):
        b_evaluate(m, [0.3, 0.4])


def _lazy_all_plus_inf_n17():
    # presumed valid: the 64 sampled orthants miss the all-plus one
    n = 17
    gamma = slow_orthant_gamma(n, (1 << n) - 1, {0: np.inf})
    return CornerModel.create(rho=np.zeros(n), eta=np.eye(n), gamma=gamma, presumed_valid=True)


def _lazy_n1_inf_row():
    # not valid: the all-plus row has an infinite speed
    return CornerModel.create(
        rho=[0.0, 0.0], eta=[[1.0, 1.0]], gamma=lambda b: [np.inf, 0.0] if b.entries == (1,) else [1.0, 1.0]
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
    with pytest.raises(ValueError, match=rf"^gamma\({'[+]' * m.n}\) has non-finite entries$"):
        read(m)


def test_nan_denominator_fails_the_floor_in_every_kernel():
    # Finite rows whose eta_7 . gamma overflows to inf - inf = NaN at the slow
    # orthant, which the 64 sampled orthants miss: every floor test must fail
    # on the NaN as it does on a small speed.
    n, slow = 17, 0b11111
    eta = 1e200 * np.eye(n)
    eta[6, 7] = -0.5e200
    gamma = slow_orthant_gamma(n, slow, {6: 1e200, 7: 1e200})
    table = CornerModel.create(rho=np.zeros(n), eta=eta, gamma=GammaTable(n, gamma), presumed_valid=True)
    lazy = CornerModel.create(rho=np.zeros(n), eta=eta, gamma=gamma, presumed_valid=True)
    sigma = Permutation((1, 2, 3, 4, 5, 7, 6, *range(8, n + 1)))
    v = np.arange(n, 0, -1.0)  # crosses surfaces 1..5 first, then 7
    runs = [
        lambda: b_evaluate(lazy, v), lambda: b_evaluate_block(table, v[None]),
        lambda: saltation_matrix(lazy, sigma), lambda: saltation_matrix(table, sigma),
    ]
    for run in runs:
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DegenerateDenominator) as info:
            run()
        assert f"eta_7 . gamma({'+' * 5}{'-' * 12}) = nan below floor 1e-09" in str(info.value)


def test_sampled_table_validation_computes_only_the_sampled_rows():
    # At n = 17 the whole (2**17, 17) normal-speed table is 17 MiB; beyond the
    # exhaustive cap validation reads 64 sampled orthants and computes only those.
    n = 17

    def gamma(b):
        g = [1.0] * n
        g[b.mask % n] = 0.5 + b.mask % 7 / 8.0
        return g

    m = CornerModel.create(
        rho=np.zeros(n), eta=np.eye(n), gamma=GammaTable(n, gamma), presumed_valid=True
    )
    tracemalloc.start()
    try:
        rep = m.validation()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "speeds" not in m._cache
    assert (rep.exhaustive, rep.orthants_checked) == (False, 64)
    assert rep == validate_corner(lazy_copy(m))


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
    incoming = SignVector.of([-1, 1, 1])
    m = field.corner_model(np.zeros(3), incoming, surfaces=(1, 3))
    assert m.table is not None and m.n == 2
    # surface 1 is crossed upward, surface 3 downward; surface 2 stays at +1
    np.testing.assert_array_equal(m.eta, [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    assert calls == [SignVector.of(s) for s in ([-1, 1, 1], [1, 1, 1], [-1, 1, -1], [1, 1, -1])]
    for mask, b in enumerate(calls):
        np.testing.assert_array_equal(m.table[mask], 1.0 + 0.25 * np.array(b.entries))


def test_lazy_model_over_the_cap_must_be_presumed_valid():
    n = VALIDATION_ENUM_CAP + 1
    m = CornerModel.create(rho=np.zeros(n), eta=np.eye(n), gamma=lambda b: [1.0] * n)
    message = (
        rf"^exhaustive validation over 2\*\*{n} orthants refused; construct the model "
        "with presumed_valid=True if transversality holds by construction$"
    )
    with pytest.raises(CapExceeded, match=message):
        validate_corner(m)
    # JSON writes every orthant, so a presumed-valid lazy model is refused too
    for model in (m, dataclasses.replace(m, presumed_valid=True)):
        with pytest.raises(CapExceeded, match=message):
            corner_model_to_json(model)


def test_corner_model_over_the_cap_calls_no_selection():
    calls = []
    n = VALIDATION_ENUM_CAP + 1
    field = coordinate_field(n, calls)
    with pytest.raises(CapExceeded, match=rf"2\*\*{n} orthants refused"):
        field.corner_model(np.zeros(n), SignVector.minus_ones(n))
    assert calls == []


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


def test_shuffled_json_gamma_keys_land_on_their_rows():
    from nsflow.oracle import random_corner_model

    rng = np.random.default_rng(12)
    payload = json.loads(corner_model_to_json(random_corner_model(rng, 3, 4)))
    items = list(payload["gamma"].items())
    payload["gamma"] = dict(items[i] for i in rng.permutation(len(items)))
    assert list(payload["gamma"]) != [key for key, _ in items]
    m = corner_model_from_json(json.dumps(payload))
    # the writer keys each row by its own orthant
    assert json.loads(corner_model_to_json(m))["gamma"] == payload["gamma"]


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
         "^malformed model JSON: cannot convert float infinity to integer$"),
        ('{"d": 2, "n": 1e400, "rho": [0, 0], "eta": [[1, 0], [0, 1]], "gamma": {}}',
         "^malformed model JSON: cannot convert float infinity to integer$"),
        # a bool, a string or a non-integral size is refused, not coerced
        ('{"d": 2, "n": 2, "rho": [0, 0], "eta": [[1, 0], [0, 1]], "gamma": {}, "f_min": true}',
         "^malformed model JSON: f_min must be a number, got True$"),
        ('{"d": 2, "n": 2, "rho": [0, 0], "eta": [[1, 0], [0, 1]], "gamma": {}, "f_min": "1e-9"}',
         "^malformed model JSON: f_min must be a number, got '1e-9'$"),
        ('{"d": 2, "n": 2.5, "rho": [0, 0], "eta": [[1, 0], [0, 1]], "gamma": {}}',
         "^malformed model JSON: n must be an integer, got 2.5$"),
        ('{"d": 2.9, "n": 2, "rho": [0, 0], "eta": [[1, 0], [0, 1]], "gamma": {}}',
         "^malformed model JSON: d must be an integer, got 2.9$"),
        ('{"d": "2", "n": 2, "rho": [0, 0], "eta": [[1, 0], [0, 1]], "gamma": {}}',
         "^malformed model JSON: d must be an integer, got '2'$"),
        ('{"d": 2, "n": false, "rho": [0, 0], "eta": [[1, 0], [0, 1]], "gamma": {}}',
         "^malformed model JSON: n must be an integer, got False$"),
        ('{"d": "x", "n": 2, "rho": [0, 0], "eta": [[1, 0], [0, 1]], "gamma": {}}',
         "^malformed model JSON: d must be an integer, got 'x'$"),
        ('{"d": NaN, "n": 2, "rho": [0, 0], "eta": [[1, 0], [0, 1]], "gamma": {}}',
         "^malformed model JSON: cannot convert float NaN to integer$"),
        ('{"d": 2, "n": NaN, "rho": [0, 0], "eta": [[1, 0], [0, 1]], "gamma": {}}',
         "^malformed model JSON: cannot convert float NaN to integer$"),
        ('{"d": 2, "n": 2, "rho": [0, 0], "eta": [[1, 0], [0, 1]], "gamma": {}, "f_min": "abc"}',
         "^malformed model JSON: f_min must be a number, got 'abc'$"),
        ('{"d": 2, "n": 2, "rho": ["a", 0], "eta": [[1, 0], [0, 1]], "gamma": {}}',
         "^malformed model JSON: could not convert string to float: 'a'$"),
        pytest.param(
            '{"d": 2, "n": 2, "rho": [0, 1' + "0" * 400 + '], "eta": [[1, 0], [0, 1]], "gamma": {}}',
            "^malformed model JSON: int too large to convert to float$",
            id="rho-integer-beyond-float",
        ),
    ],
)
def test_malformed_json_is_a_value_error(text, match):
    with pytest.raises(ValueError, match=match):
        corner_model_from_json(text)


ONE_SURFACE = {SignVector((-1,)): [1.0], SignVector((1,)): [1.0]}


@pytest.mark.parametrize("f_min", [0, -1, float("nan"), float("inf")])
def test_create_refuses_a_floor_that_is_not_positive_and_finite(f_min):
    with pytest.raises(ValueError, match=f"^f_min must be positive and finite, got {f_min!r}$"):
        CornerModel.create(np.zeros(1), np.ones((1, 1)), ONE_SURFACE, f_min=f_min)


@pytest.mark.parametrize(
    "f_min", ["1e-9", None, np.array([1e-9, 1e-9]), True], ids=["string", "none", "array", "true"]
)
def test_create_refuses_a_floor_that_is_not_a_real_number(f_min):
    # True as well: the JSON reader refuses true as a floor
    with pytest.raises(ValueError, match=f"^f_min must be positive and finite, got {re.escape(repr(f_min))}$"):
        CornerModel.create(np.zeros(1), np.ones((1, 1)), ONE_SURFACE, f_min=f_min)


@pytest.mark.parametrize("f_min", [2, 1e-9, np.float64(1e-9), np.float32(0.5), np.int64(3)])
def test_create_takes_a_real_floor(f_min):
    m = CornerModel.create(np.zeros(1), np.ones((1, 1)), ONE_SURFACE, f_min=f_min)
    assert type(m.f_min) is float and m.f_min == float(f_min)


@pytest.mark.parametrize("raw", ["Infinity", "1e400"])
def test_json_refuses_an_infinite_floor(raw):
    text = f'{{"d": 1, "n": 1, "rho": [0], "eta": [[1]], "gamma": {{"-": [1], "+": [1]}}, "f_min": {raw}}}'
    with pytest.raises(ValueError, match="^f_min must be positive and finite, got inf$"):
        corner_model_from_json(text)


def stdlib_json(m: CornerModel) -> str:
    """The interchange text as the standard library's encoder writes it."""
    payload = {
        "d": m.d,
        "n": m.n,
        "rho": m.rho.tolist(),
        "eta": m.eta.tolist(),
        "gamma": {b.key(): m.gamma_vec(b).tolist() for b in all_sign_vectors(m.n)},
        "f_min": m.f_min,
    }
    return json.dumps(payload, indent=2)


def extreme_entry_models():
    """A table and a lazy model whose rows hold -0.0, the smallest subnormal and 1e300."""
    rows = {
        SignVector((-1, -1)): [-0.0, 1.0, 5e-324],
        SignVector((1, -1)): [1e300, -0.0, 0.0],
        SignVector((-1, 1)): [5e-324, 1e300, -1e300],
        SignVector((1, 1)): [1.0, -5e-324, 0.1],
    }
    rho, eta = [-0.0, 5e-324, 1e300], [[1.0, -0.0, 0.0], [0.0, 1.0, 5e-324]]
    table = CornerModel.create(rho=rho, eta=eta, gamma=rows, f_min=5e-324)
    return [table, lazy_copy(table)]


def test_json_writer_matches_the_stdlib_encoder():
    from nsflow import oracle

    models = []
    for kernel_scale in (0.0, 0.5):
        rng = np.random.default_rng(21)
        models += [oracle.random_corner_model(rng, n, n + 1, kernel_scale=kernel_scale) for n in range(1, 9)]
    models += [oracle.lazy_corner_model(21, 4, 6), oracle.lazy_corner_model(22, 6, 6)]
    models.append(CornerModel.create(rho=[0.5], eta=[[2.0]], gamma=ONE_SURFACE))
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
