"""One fault matrix for the reading of caller data.

Every public entry point that reads an array (``core._read``), a time
(``core._time``), a count (``_is_int``: the verifiers' counts, ``steps`` and the
JSON sizes) or a floor, against each class of value that is not a real number.
A refused cell asserts the exception class and the exact message; a taken cell
asserts that a real value of another type gives what its float array (or its
float or int) gives, to the last bit.
"""

import dataclasses
import functools
import json
from decimal import Decimal
from fractions import Fraction
from math import inf, nan

import numpy as np
import pytest
from conftest import particle_model

from nsflow.apps import mech_corner_model, mech_saltation, preset, pwc_linear_delta, pwc_model, uniform_damping
from nsflow.bderiv import (
    b_evaluate,
    b_evaluate_block,
    barycentric_evaluate,
    build_triangulation,
    lineality_split,
    saltation_single,
)
from nsflow.core import CornerModel, Permutation, corner_model_from_json
from nsflow.flow import flow_bderivative, integrate
from nsflow.oracle import (
    finite_difference_flow,
    random_corner_model,
    safe_direction_scale,
    verify_b_against_sampled,
    verify_cone_partition,
    verify_fd_convergence,
)
from nsflow.sampled import sampled_flow, time_to_impact_sampled

ORTHANTS = ("--", "+-", "-+", "++")  # by mask


def from_json(**changes) -> CornerModel:
    """The pwc-linear-sized model of unit rows, read from JSON with ``changes`` made:
    a top-level key, or ``row`` for the "++" row of gamma."""
    gamma = {key: [1.0, 1.0] for key in ORTHANTS}
    if "row" in changes:
        gamma["++"] = changes.pop("row")
    payload = {"d": 2, "n": 2, "rho": [0.0, 0.0], "eta": [[1.0, 0.0], [0.0, 1.0]], "gamma": gamma, **changes}
    return corner_model_from_json(json.dumps(payload, default=np.ndarray.tolist))


@functools.cache
def arrays() -> dict:
    """Array arguments: for each, the name its refusal gives, a real value, the shape
    its refusal expects, whether it must be finite, and the call that takes the value."""
    field, corner = preset("pwc-linear")
    tri, split, bfd = build_triangulation(corner), lineality_split(corner), flow_bderivative(field, [-0.6, -0.6], 1.0)
    mm = particle_model(uniform_damping(0.7, 3))
    x0, q, qd = [-0.6, -0.6], [0.0, 0.0, 0.0], [-0.4, -0.3, -0.5]
    both = "(2,) or (*, 2)"
    entries = {
        "b_evaluate": ("direction", [0.5, 0.25], "(2,)", lambda v: b_evaluate(corner, v).delta_rho_plus),
        "b_evaluate_block": ("direction block", [[0.5, 0.25], [-0.5, 0.75]], "(*, 2)",
                             lambda v: b_evaluate_block(corner, v).delta_rho_plus),
        "barycentric_evaluate": ("direction", [0.5, 0.25], "(2,)",
                                 lambda v: barycentric_evaluate(corner, tri, Permutation((1, 2)), v, split=split)),
        "saltation_single-f_minus": ("f_minus", [1.0, 1.0], "(*,)", lambda v: saltation_single(v, [1, 2], [1, 0])),
        "saltation_single-f_plus": ("f_plus", [1.0, 2.0], "(2,)", lambda v: saltation_single([1, 1], v, [1, 0])),
        "saltation_single-eta_row": ("eta_row", [1.0, 0.0], "(2,)", lambda v: saltation_single([1, 1], [1, 2], v)),
        "CornerModel-rho": ("rho", [0.0, 0.0], "(2,)", lambda v: CornerModel(v, np.eye(2), table=np.ones((4, 2))).rho),
        "CornerModel-eta": ("eta", [[1.0, 0.0], [0.0, 1.0]], "(*, *)",
                            lambda v: CornerModel(np.zeros(2), v, table=np.ones((4, 2))).eta),
        "CornerModel-table": ("gamma", [[1.0, 1.0]] * 4, "(4, 2)", lambda v: CornerModel([0, 0], np.eye(2), table=v).table),
        "create-rho": ("rho", [0.0, 0.0], "(2,)", lambda v: CornerModel.create(v, np.eye(2), lambda mask: [1, 1]).rho),
        "corner_model-rho": ("rho", [0.0, 0.0], "(2,)", lambda v: field.corner_model(v, 0).table),
        "json-rho": ("rho", [0.0, 0.0], "(2,)", lambda v: from_json(rho=v).rho),
        "json-eta": ("eta", [[1.0, 0.0], [0.0, 1.0]], "(*, *)", lambda v: from_json(eta=v).eta),
        "json-gamma": ("gamma(++)", [1.0, 1.0], "(2,)", lambda v: from_json(row=v).table),
        "pwc_model": ("offsets", pwc_linear_delta(2, 0.5).tolist(), "(4, 2)", lambda v: pwc_model(2, v)[1].table),
        "MechanicalModel-mass": ("mass", np.eye(3).tolist(), "(3, 3)", lambda v: dataclasses.replace(mm, mass=v).mass),
        "MechanicalModel-kappa": ("kappa", [5.0, 5.0, 5.0], "(3,)", lambda v: dataclasses.replace(mm, kappa=v).kappa),
        "mech_saltation-q": ("q", q, "(3,)", lambda v: mech_saltation(mm, v, qd, 1, activating=True)),
        "mech_saltation-qdot": ("qdot", qd, "(3,)", lambda v: mech_saltation(mm, q, v, 1, activating=True)),
        "mech_corner_model-q": ("q", q, "(3,)", lambda v: mech_corner_model(mm, v, qd).table),
        "mech_corner_model-qdot": ("qdot", qd, "(3,)", lambda v: mech_corner_model(mm, q, v).table),
        "integrate": ("x0", x0, "(2,)", lambda v: integrate(field, v, 1.0, steps=16).x_end),
        "BFlowDerivative": ("direction", [0.5, 0.25], "(2,)", bfd),
        "BFlowDerivative.crossing_orders": ("direction", [0.5, 0.25], "(2,)", bfd.crossing_orders),
        "sampled_flow": ("a point", x0, both, lambda v: sampled_flow(corner, 1.0, v)),
        "sampled_flow-block": ("a point", [x0, [-0.5, -0.7]], both, lambda v: sampled_flow(corner, 1.0, v)),
        "time_to_impact_sampled": ("a point", x0, both, lambda v: time_to_impact_sampled(corner, v)),
        "time_to_impact_sampled-block": ("a point", [x0, [-0.5, -0.7]], both, lambda v: time_to_impact_sampled(corner, v)),
        "safe_direction_scale": ("delta_rho", [0.1, 0.1], both, lambda v: safe_direction_scale(corner, v)),
        "fd-x0": ("x0", x0, "(2,)", lambda v: finite_difference_flow(field, v, 1.0, [0.1, 0.1], [1e-3], steps=16)),
        "fd-delta_x0": ("delta_x0", [0.1, 0.1], both,
                        lambda v: finite_difference_flow(field, x0, 1.0, v, [1e-3], steps=16)),
        "fd-alphas": ("alphas", [1e-3, 1e-2], "(*,)",
                      lambda v: finite_difference_flow(field, x0, 1.0, [0.1, 0.1], v, steps=16)),
    }
    # read with finite off: a NaN is refused by what it does (pwc_model, mass, alphas) or taken
    loose = {"saltation_single-eta_row", "pwc_model", "MechanicalModel-mass", "fd-alphas"}
    return {key: (name, real, expect, key not in loose, call) for key, (name, real, expect, call) in entries.items()}


def with_last(v, entry) -> list:
    """``v`` as nested lists, with its last entry (of its last row) replaced by ``entry``."""
    out = np.asarray(v, dtype=float).tolist()
    (out[-1] if isinstance(out[-1], list) else out)[-1] = entry
    return out


def each(fn, v):
    """``fn`` of every entry of the nested lists ``v``."""
    return [each(fn, e) for e in v] if isinstance(v, list) else fn(v)


def masked_last(v) -> np.ma.MaskedArray:
    mask = np.zeros(np.shape(v), dtype=bool)
    mask.flat[-1] = True
    return np.ma.array(v, mask=mask)


# each class of value that is not a real vector, made from a real one; every
# class but "bool" and "wrong-shape" spoils the last entry only
FAULTS = {
    "bool": lambda v: True,
    "bool-among-numbers": lambda v: with_last(v, True),
    "numpy-bool-in-tuple": lambda v: tuple(with_last(v, np.True_)),
    "0-d-bool-array": lambda v: with_last(v, np.array(True)),
    "object-array": lambda v: np.array(with_last(v, True), dtype=object),
    "none": lambda v: with_last(v, None),
    "object-array-none": lambda v: np.array(with_last(v, None), dtype=object),
    "string": lambda v: with_last(v, "a"),
    "numeral-string": lambda v: with_last(v, "0.5"),
    "object-array-of-numeral-strings": lambda v: np.array(with_last(v, "0.5"), dtype=object),
    "bytes": lambda v: with_last(v, b"0.5"),
    "complex": lambda v: with_last(v, 0.25j),
    "complex-array": lambda v: np.array(with_last(v, 0.25j)),
    "complex128": lambda v: with_last(v, np.complex128(0.25j)),
    "decimal": lambda v: with_last(v, Decimal("0.5")),
    "masked-entry": masked_last,
    "nested-entry": lambda v: with_last(v, [0.5]),
    "int-past-largest-double": lambda v: with_last(v, 10**400),
    "wrong-shape": lambda v: np.asarray(v, dtype=float)[None, None],
    "nan": lambda v: with_last(v, nan),
    "inf": lambda v: with_last(v, inf),
}
JSON_FAULTS = {"bool", "bool-among-numbers", "none", "string", "numeral-string", "nested-entry",
               "int-past-largest-double", "wrong-shape", "nan", "inf"}


def refusal(key: str, fault: str, bad) -> str:
    """The message ``arrays()[key]`` gives on ``bad``, made by ``FAULTS[fault]``."""
    name, _, expect, _, _ = arrays()[key]
    if fault == "wrong-shape":
        return f"{name} has shape {bad.shape}, expected {expect}"
    if key == "CornerModel-table" and fault != "bool":  # a table names its first bad row by its orthant
        first = fault == "complex-array"  # every row of a complex array is complex
        name, bad = f"{name}({ORTHANTS[0 if first else -1]})", bad[0 if first else -1]
    if fault in ("nan", "inf"):
        rows = np.asarray(bad, dtype=float)
        return (f"{name} has non-finite entries: {rows.tolist()}" if rows.ndim == 1
                else f"{name} has non-finite entries in row {len(rows) - 1}: {rows[-1].tolist()}")
    if fault == "int-past-largest-double":
        return f"{name} has entries that are not real numbers: int too large to convert to float"
    return f"{name} has entries that are not real numbers: {bad.tolist() if isinstance(bad, np.ndarray) else bad!r}"


@pytest.mark.parametrize(
    "key, fault",
    [(key, fault) for key, (_, _, _, finite, _) in arrays().items() for fault in FAULTS
     if (finite or fault not in ("nan", "inf")) and (not key.startswith("json") or fault in JSON_FAULTS)],
)
def test_an_array_that_is_not_real_is_refused(key, fault):
    # before one rule: a bool in a 0-d or object array was cast to 1.0, an object
    # array of numeral strings and a masked array's hidden data were taken, a
    # None was named as a NaN, and a string was refused in numpy's words
    _, real, _, _, call = arrays()[key]
    bad = FAULTS[fault](real)
    with pytest.raises(ValueError) as caught:
        call(bad)
    assert type(caught.value) is ValueError and str(caught.value) == refusal(key, fault, bad)


def outcome(call, value):
    """What ``call(value)`` gives: its result's exact text, or its exception and message."""
    try:
        out = call(value)
    except Exception as exc:
        return type(exc), str(exc)
    return repr(np.asarray(out, dtype=object).tolist())


# each real value of another type than float; the integer ones apply where the real value is integral
TAKEN = {
    "fraction": lambda v: each(Fraction, v),
    "numpy-floats": lambda v: each(np.float64, v),
    "float16-array": lambda v: np.asarray(v, dtype=np.float16),
    "float32-array": lambda v: np.asarray(v, dtype=np.float32),
    "longdouble-array": lambda v: np.asarray(v, dtype=np.longdouble),
    "0-d-float-array": lambda v: with_last(v, np.array(np.asarray(v).flat[-1])),
    "object-array": lambda v: np.array(v, dtype=object),
    "tuple": tuple,
    "no-masked-entry": lambda v: np.ma.array(v),
    "matrix": lambda v: np.matrix(v),  # a vector is a (1, d) matrix: a block, or a shape refusal
    "ints": lambda v: each(int, v),
    "int-array": lambda v: np.asarray(v, dtype=np.int64),
    "numpy-ints": lambda v: each(np.uint8, v),
}


@pytest.mark.filterwarnings("ignore:the matrix subclass:PendingDeprecationWarning")
@pytest.mark.parametrize(
    "key, kind",
    [(key, kind) for key, (_, real, _, _, _) in arrays().items() for kind in TAKEN
     if not key.startswith("json") and ("int" not in kind or np.array_equal(real, np.trunc(real)))],
)
def test_an_array_of_real_numbers_is_read_as_its_float_array(key, kind):
    _, real, _, _, call = arrays()[key]
    value = TAKEN[kind](real)
    assert outcome(call, value) == outcome(call, np.asarray(value, dtype=float))


@pytest.mark.filterwarnings("ignore:the matrix subclass:PendingDeprecationWarning")
def test_a_matrix_keeps_its_shape():
    corner = preset("pwc-linear")[1]
    with pytest.raises(ValueError, match=r"^direction has shape \(1, 2\), expected \(2,\)$"):
        b_evaluate(corner, np.matrix([[0.5, 0.25]]))
    assert sampled_flow(corner, 1.0, np.matrix([[0.5, 0.25]])).shape == (1, 2)


@functools.cache
def scalars() -> dict:
    """Scalar arguments: for each, the start of its refusal, a real value, whether
    the value is a count, and the call that takes it."""
    field, corner = preset("pwc-linear")
    model = random_corner_model(np.random.default_rng(50), 2, 3)
    t_text, x0 = "integrate expects a finite t >= 0", [-0.6, -0.6]
    return {
        "integrate-t": (f"{t_text}, got t = ", 1.0, False, lambda t: integrate(field, x0, t, steps=16).x_end),
        "sampled_flow-t": ("the frozen flow is defined for finite t >= 0 only, got t = ", 1.0, False,
                           lambda t: sampled_flow(corner, t, x0)),
        "integrate-steps": ("integrate expects an int steps >= 1, got steps = ", 16, True,
                            lambda s: integrate(field, x0, 1.0, steps=s).x_end),
        "CornerModel-f_min": ("f_min must be positive and finite, got ", 2.0, False,
                              lambda f: CornerModel([0, 0], np.eye(2), table=np.ones((4, 2)), f_min=f).f_min),
        "replace-f_min": ("f_min must be positive and finite, got ", 2.0, False,
                          lambda f: dataclasses.replace(model, f_min=f).f_min),
        "json-f_min": ("f_min must be positive and finite, got ", 2.0, False, lambda f: from_json(f_min=f).f_min),
        "json-n": ("malformed model JSON: n must equal eta's row count 2, got ", 2, True, lambda n: from_json(n=n).n),
        "json-d": ("malformed model JSON: d must equal eta's column count 2, got ", 2, True, lambda d: from_json(d=d).d),
        "verify_b_against_sampled": ("need num_samples >= 0, got ", 2, True,
                                     lambda k: verify_b_against_sampled(model, k, np.random.default_rng(50))),
        "verify_cone_partition": ("need num_samples >= 0, got ", 2, True,
                                  lambda k: verify_cone_partition(model, k, np.random.default_rng(50))),
        "verify_fd_convergence-fields": ("need num_fields >= 0, got ", 1, True,
                                         lambda k: verify_fd_convergence(np.random.default_rng(50), k, 2)),
        "verify_fd_convergence-directions": ("need num_directions >= 1, got ", 2, True,
                                             lambda k: verify_fd_convergence(np.random.default_rng(50), 1, k)),
    }


SCALAR_FAULTS = {
    "bool": True, "numpy-bool": np.True_, "0-d-bool-array": np.array(True), "0-d-float-array": np.array(1.0),
    "object-array": np.array(1.0, dtype=object), "none": None, "string": "a", "numeral-string": "1", "bytes": b"1",
    "complex": 1 + 0j, "complex128": np.complex128(1.0), "decimal": Decimal("1"), "masked": np.ma.masked,
    "timedelta": np.timedelta64(1),  # an Integral to numpy
    "wrong-shape": [1.0], "int-past-largest-double": 10**400, "nan": nan, "inf": inf,
}
JSON_SCALAR_FAULTS = {"bool", "none", "string", "numeral-string", "wrong-shape", "int-past-largest-double", "nan", "inf"}


@pytest.mark.parametrize(
    "key, fault",
    [(key, fault) for key, (_, _, count, _) in scalars().items() for fault in SCALAR_FAULTS
     # a count has no upper bound: 10**400 samples is a count, which this test does not run; a
     # non-finite steps let through would never end, so test_non_positive_steps_rejected, whose h
     # raises, holds those cells
     if (not key.startswith("json") or fault in JSON_SCALAR_FAULTS)
     and not (fault == "int-past-largest-double" and key.startswith("verify"))
     and not (fault in ("nan", "inf") and key == "integrate-steps")],
)
def test_a_scalar_that_is_not_real_is_refused(key, fault):
    # float() of an int past the largest double overflowed, a bool was taken as
    # 1, and a str or bytes time was flowed for as its numeral
    text, _, _, call = scalars()[key]
    with pytest.raises(ValueError) as caught:
        call(SCALAR_FAULTS[fault])
    assert type(caught.value) is ValueError and str(caught.value) == f"{text}{SCALAR_FAULTS[fault]!r}"


SCALAR_TAKEN = {"fraction": Fraction, "float64": np.float64, "float16": np.float16, "float32": np.float32,
                "longdouble": np.longdouble, "numpy-int": np.int64, "numpy-uint": np.uint8, "int": int}


@pytest.mark.parametrize(
    "key, kind",
    [(key, kind) for key, (_, _, count, _) in scalars().items() for kind in SCALAR_TAKEN
     if not key.startswith("json") and ("int" in kind or not count)],
)
def test_a_real_scalar_is_read_as_its_float_or_int(key, kind):
    # a float32 time made integrate step in float32, where its bisection failed to localize
    _, real, count, call = scalars()[key]
    value = SCALAR_TAKEN[kind](real)
    assert outcome(call, value) == outcome(call, int(value) if count else float(value))
