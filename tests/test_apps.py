import dataclasses
import math
import re

import numpy as np
import pytest
from conftest import lazy_copy, particle_model

from nsflow import apps
from nsflow.apps import (
    biped_corner_state,
    biped_model,
    mech_corner_model,
    mech_saltation,
    pwc_linear_delta,
    pwc_model,
    preset,
    soft_constraint_field,
    uniform_damping,
    xor_damping,
)
from nsflow.bderiv import b_evaluate
from nsflow.core import (
    VALIDATION_ENUM_CAP,
    CornerModel,
    Permutation,
    SignVector,
    all_sign_vectors,
    sign_of,
    validate_corner,
)
from nsflow.errors import CapExceeded, InvalidDelta, SingularMass, TangentialCrossing
from nsflow.flow import integrate
from nsflow.oracle import enumerate_saltations, finite_difference_flow, safe_direction_scale
from nsflow.sampled import sampled_flow


# -- piecewise-constant family ---------------------------------------------------


def test_zero_offsets_give_identity_derivative():
    _, corner = pwc_model(3, {b: np.zeros(3) for b in all_sign_vectors(3)})
    rng = np.random.default_rng(30)
    for _ in range(10):
        v = rng.normal(size=3)
        np.testing.assert_allclose(b_evaluate(corner, v).delta_rho_plus, v, atol=1e-14)


def test_linear_offsets_scale_by_ratio():
    for d in (2, 3):
        for delta in (0.1, 0.5, 0.9):
            _, corner = pwc_model(d, pwc_linear_delta(d, delta))
            factor = (1.0 - delta) / (1.0 + delta)
            rng = np.random.default_rng(31)
            for _ in range(20):
                v = rng.normal(size=d)
                np.testing.assert_allclose(
                    b_evaluate(corner, v).delta_rho_plus, factor * v, atol=1e-12
                )


def test_random_offsets_make_two_pieces_in_2d():
    rng = np.random.default_rng(32)
    table = {b: rng.uniform(-0.9, 2.0, size=2) for b in all_sign_vectors(2)}
    _, corner = pwc_model(2, table)
    angles = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
    sigmas = {
        b_evaluate(corner, [np.cos(a), np.sin(a)]).sigma for a in angles
    }
    assert len(sigmas) == 2


def test_offset_table_missing_an_orthant_is_refused():
    offsets = {b: np.zeros(2) for b in all_sign_vectors(2) if b.key() != "+-"}
    with pytest.raises(InvalidDelta, match=r"^offset table misses orthant \+-$"):
        pwc_model(2, offsets)


def test_offsets_at_minus_one_rejected():
    bad = {b: np.full(2, -1.0) for b in all_sign_vectors(2)}
    with pytest.raises(InvalidDelta):
        pwc_model(2, bad)
    with pytest.raises(InvalidDelta):
        pwc_linear_delta(2, 1.0)


# -- soft-constraint mechanics ----------------------------------------------------


from conftest import lazy_copy, particle_model


def test_inactive_constraints_give_plain_dynamics():
    mm = particle_model(uniform_damping(0.5, 3))
    field = soft_constraint_field(mm)
    x = np.array([0.5, 0.5, 0.5, 0.1, 0.0, 0.0])  # all constraints satisfied
    val = field.selection(sign_of(field.h(x))).value(x)
    np.testing.assert_array_equal(val[:3], x[3:])
    np.testing.assert_array_equal(val[3:], np.zeros(3))


def test_penalty_only_field_is_continuous_at_surface():
    mm = particle_model(uniform_damping(0.5, 3))
    field = soft_constraint_field(mm, dissipative=False)
    # exactly on the surface a_1 = 0 the spring term vanishes: selections agree
    x = np.array([-0.1, 0.5, 0.3, -0.2, 0.1, 0.0])
    assert field.h(x)[0] == 0.0
    b_out = sign_of(field.h(x))
    b_in = SignVector.from_mask(b_out.mask ^ 1, 3)
    np.testing.assert_allclose(
        field.selection(b_out).value(x), field.selection(b_in).value(x), atol=1e-14
    )


@pytest.mark.parametrize(
    "mass, match",
    [
        (np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), "not SPD"),
        (np.diag([1.0, np.nan, 1.0]), "not finite"),
    ],
    ids=["indefinite", "nan"],
)
def test_bad_mass_matrix_is_refused(mass, match):
    mm = dataclasses.replace(particle_model(uniform_damping(0.5, 3)), mass_matrix=lambda q: mass)
    with pytest.raises(SingularMass, match=match):
        mm.mass_solve(np.zeros(3), np.ones(3))
    field = soft_constraint_field(mm)
    x = np.array([0.5, 0.5, 0.5, 0.1, 0.0, 0.0])
    with pytest.raises(SingularMass, match=match):
        field.selection(sign_of(field.h(x))).value(x)


def test_asymmetric_mass_matrix_is_refused():
    # cholesky reads the lower triangle, the identity, while the solve reads all of M
    mass = np.array([[1.0, 5.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    mm = dataclasses.replace(particle_model(uniform_damping(0.5, 3)), mass_matrix=lambda q: mass)
    with pytest.raises(SingularMass, match="not symmetric"):
        mm.mass_solve(np.zeros(3), np.ones(3))


@pytest.mark.parametrize("ulps", [0, 1], ids=["symmetric", "one-ulp"])
def test_symmetric_mass_matrix_solves(ulps):
    mass = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 1.5]])
    for _ in range(ulps):
        mass[1, 0] = np.nextafter(mass[1, 0], 1.0)
    assert np.count_nonzero(mass != mass.T) == 2 * ulps
    mm = dataclasses.replace(particle_model(uniform_damping(0.5, 3)), mass_matrix=lambda q: mass)
    rhs = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(mass @ mm.mass_solve(np.zeros(3), rhs), rhs, rtol=1e-14, atol=1e-14)


def test_penalty_only_corner_saltations_are_identity():
    mm = particle_model(uniform_damping(0.7, 3))
    qd = np.array([-0.4, -0.3, -0.5])  # all rates negative: simultaneous activation
    corner = mech_corner_model(mm, np.zeros(3), qd, dissipative=False)
    for sigma, mat in enumerate_saltations(corner).items():
        np.testing.assert_allclose(mat, np.eye(6), atol=1e-12)


def test_dissipative_uniform_beta_saltations_all_equal():
    mm = particle_model(uniform_damping(0.7, 3))
    qd = np.array([-0.4, -0.3, -0.5])
    corner = mech_corner_model(mm, np.zeros(3), qd, dissipative=True)
    mats = list(enumerate_saltations(corner).values())
    for mat in mats[1:]:
        np.testing.assert_allclose(mat, mats[0], atol=1e-12)
    assert np.abs(mats[0] - np.eye(6)).max() > 1e-3  # genuinely nontrivial


def test_mech_saltation_rank1_velocity_rows_only():
    mm = particle_model(uniform_damping(0.7, 3))
    q = np.zeros(3)
    qd = np.array([-0.4, -0.3, -0.5])
    S = mech_saltation(mm, q, qd, 2, activating=True)
    D = S - np.eye(6)
    assert np.abs(D[:3]).max() == 0.0  # configuration rows untouched
    assert np.linalg.matrix_rank(D, tol=1e-12) == 1


def test_mech_saltation_conservative_at_surface_is_identity():
    mm = particle_model(uniform_damping(0.0, 3))
    S = mech_saltation(mm, np.zeros(3), np.array([-0.4, -0.3, -0.5]), 1, activating=True)
    np.testing.assert_array_equal(S, np.eye(6))


def test_mech_saltation_commutes_for_distinct_constraints():
    mm = particle_model(uniform_damping(0.7, 3))
    q = np.zeros(3)
    qd = np.array([-0.4, -0.3, -0.5])
    S1 = mech_saltation(mm, q, qd, 1, activating=True)
    S2 = mech_saltation(mm, q, qd, 2, activating=True)
    np.testing.assert_allclose(S1 @ S2, S2 @ S1, atol=1e-13)


def test_mech_corner_model_needs_a_transversal_state_on_every_surface():
    mm = particle_model(uniform_damping(0.7, 3))
    q = np.array([0.1, 0.0, 0.0])  # a = A q = (0.1, 0, 0.03)
    with pytest.raises(ValueError, match=r"^state is not on all constraint surfaces: a = "):
        mech_corner_model(mm, q, [-0.4, -0.3, -0.5])
    qd = np.array([-0.4, 0.0, 0.0])  # A_2 . qd = 0: surface 2 is met tangentially
    with pytest.raises(TangentialCrossing, match=r"^constraint rates .* include a tangency$"):
        mech_corner_model(mm, np.zeros(3), qd)


def test_soft_constraint_jacobians_match_the_affine_field():
    # unit mass, linear constraints A q: on each orthant the selection is
    # affine, qdd = -sum over engaged j of A_j (kappa A_j . q + beta A_j . qd)
    kappa, beta = 5.0, 0.7
    mm = particle_model(uniform_damping(beta, 3), kappa=kappa)
    A = mm.constraint_jac(np.zeros(3))
    field = soft_constraint_field(mm)
    x = np.random.default_rng(36).normal(size=6)
    for b in all_sign_vectors(3):
        engaged = sum((np.outer(A[j], A[j]) for j in range(3) if b.entries[j] < 0), np.zeros((3, 3)))
        exact = np.block([[np.zeros((3, 3)), np.eye(3)], [-kappa * engaged, -beta * engaged]])
        np.testing.assert_allclose(field.selection(b).jacobian(x), exact, rtol=0.0, atol=1e-8)


def test_mech_saltation_tangential_guard():
    mm = particle_model(uniform_damping(0.7, 3))
    with pytest.raises(TangentialCrossing):
        mech_saltation(mm, np.zeros(3), np.zeros(3), 1, activating=True)


# -- biped -------------------------------------------------------------------------


def test_biped_refuses_an_unknown_damping_policy():
    with pytest.raises(ValueError, match=r"^unknown damping policy 'stiff'$"):
        biped_model(damping_policy="stiff")


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["m", "J", "ell", "g"])
def test_biped_parameters_must_be_positive_and_finite(name, value):
    with pytest.raises(ValueError, match="biped parameters must be positive"):
        biped_model(**{name: value})


def test_biped_symmetric_fall_keeps_constraints_equal():
    mm = biped_model(psi=0.2)
    for y in (1.0, 0.5, 0.0, -0.5):
        a = mm.constraints(np.array([0.0, y, 0.0]))
        assert a[0] == a[1]


def test_biped_corner_state_sits_on_both_surfaces():
    for psi in (0.05, 0.1, 0.3):
        mm = biped_model(psi=psi)
        q, qd = biped_corner_state(psi=psi)
        np.testing.assert_allclose(mm.constraints(q), 0.0, atol=1e-14)
        rates = mm.constraint_jac(q) @ qd
        assert np.all(rates < 0.0)


def test_biped_constraint_jacobian_matches_finite_differences():
    mm = biped_model(psi=0.23)
    rng = np.random.default_rng(33)
    for _ in range(5):
        q = rng.normal(size=3) * 0.3
        Da = mm.constraint_jac(q)
        fd = np.zeros_like(Da)
        h = 1e-6
        for i in range(3):
            qp, qm = q.copy(), q.copy()
            qp[i] += h
            qm[i] -= h
            fd[:, i] = (mm.constraints(qp) - mm.constraints(qm)) / (2 * h)
        np.testing.assert_allclose(Da, fd, atol=1e-8)


def test_biped_uniform_damping_saltations_equal():
    mm = biped_model(psi=0.1, damping_policy="uniform", beta=0.5)
    q, qd = biped_corner_state(psi=0.1)
    mats = enumerate_saltations(mech_corner_model(mm, q, qd))
    D = mats[Permutation.of([1, 2])] - mats[Permutation.of([2, 1])]
    np.testing.assert_allclose(D, 0.0, atol=1e-12)


@pytest.mark.parametrize("psi", [0.05, 0.1, 0.3])
def test_biped_xor_saltation_difference_closed_form(psi):
    beta = 0.5
    mm = biped_model(psi=psi, damping_policy="xor", beta=beta)
    q, qd = biped_corner_state(psi=psi)
    mats = enumerate_saltations(mech_corner_model(mm, q, qd))
    D = mats[Permutation.of([1, 2])] - mats[Permutation.of([2, 1])]
    expected = np.zeros((6, 6))
    expected[4, 0] = -4.0 * beta * math.cos(psi)
    expected[4, 2] = -2.0 * beta * (math.sin(2 * psi) + math.cos(psi))
    np.testing.assert_allclose(D, expected, atol=1e-9)


def test_biped_xor_difference_independent_of_impact_speed():
    mm = biped_model(psi=0.1, damping_policy="xor", beta=0.5)
    diffs = []
    for ydot in (-0.5, -1.0, -2.0):
        q, qd = biped_corner_state(psi=0.1, ydot=ydot)
        mats = enumerate_saltations(mech_corner_model(mm, q, qd))
        diffs.append(mats[Permutation.of([1, 2])] - mats[Permutation.of([2, 1])])
    np.testing.assert_allclose(diffs[0], diffs[1], atol=1e-11)
    np.testing.assert_allclose(diffs[0], diffs[2], atol=1e-11)


def test_xor_damping_levels():
    policy = xor_damping(0.5)
    np.testing.assert_array_equal(policy(frozenset({1})), [0.5, 0.5])
    np.testing.assert_array_equal(policy(frozenset({2})), [0.5, 0.5])
    np.testing.assert_array_equal(policy(frozenset({1, 2})), [0.25, 0.25])


# -- presets ------------------------------------------------------------------------


def test_presets_resolve():
    for name in ("pwc", "pwc-linear", "biped-uniform", "biped-xor"):
        field, corner = preset(name)
        corner.require_valid()
        assert field.d == corner.d


@pytest.mark.parametrize("d", range(2, 7))
def test_pwc_presets_match_the_sign_vector_build(d):
    seed, delta = 40 + d, 0.1 * d
    rng = np.random.default_rng(seed)
    offsets = {
        "pwc": {b: rng.uniform(-0.9, 2.0, size=d) for b in all_sign_vectors(d)},
        "pwc-linear": {b: -delta * np.asarray(b.entries, dtype=float) for b in all_sign_vectors(d)},
    }
    for name, offs in offsets.items():
        corner = preset(name, d=d, delta=delta, seed=seed)[1]
        expected = np.array([np.ones(d) + offs[b] for b in sorted(offs, key=lambda b: b.mask)])
        np.testing.assert_array_equal(corner.table, expected)
        assert corner.f_min == min(1e-9, 0.1 * float(expected.min()))
        assert validate_corner(corner) == validate_corner(lazy_copy(corner))


@pytest.mark.parametrize("name", ["pwc", "pwc-linear"])
def test_pwc_presets_refuse_d_outside_one_to_the_validation_cap(monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated orthants before the cap check")

    monkeypatch.setattr(apps, "all_sign_vectors", refuse)
    monkeypatch.setattr(apps, "_pwc_model", refuse)
    with pytest.raises(CapExceeded, match="d <= 16"):
        preset(name, d=VALIDATION_ENUM_CAP + 1)
    for d in (0, -1):
        with pytest.raises(ValueError, match="d >= 1"):
            preset(name, d=d)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="^unknown preset 'nope'; try pwc, pwc-linear, biped-uniform, biped-xor$"):
        preset("nope")


def array_inputs() -> dict:
    """Array inputs across the modules: for each, the name its refusal gives,
    a real value, and the call that takes the value."""
    field, corner = preset("pwc-linear")
    mm = particle_model(uniform_damping(0.7, 3))
    x0, q, qd = [-0.6, -0.6], [0.0, 0.0, 0.0], [-0.4, -0.3, -0.5]
    table = {b: np.ones(2) for b in all_sign_vectors(2)}
    return {
        "sign_of": ("the vector given to sign_of", [1.0, -1.0], sign_of),
        "create": ("rho", [0.0, 0.0], lambda v: CornerModel.create(v, np.eye(2), table)),
        "integrate": ("x0", x0, lambda v: integrate(field, v, 1.0, steps=16)),
        "sampled_flow-block": ("a point", [x0, [-0.5, -0.7]], lambda v: sampled_flow(corner, 1.0, v)),
        "corner_model": ("rho", [0.0, 0.0], lambda v: field.corner_model(v, SignVector.minus_ones(2))),
        "safe_direction_scale": ("delta_rho", [0.1, 0.1], lambda v: safe_direction_scale(corner, v)),
        "fd-x0": ("x0", x0, lambda v: finite_difference_flow(field, v, 1.0, [0.1, 0.1], [1e-3], steps=16)),
        "fd-delta_x0": ("delta_x0", [0.1, 0.1], lambda v: finite_difference_flow(field, x0, 1.0, v, [1e-3], steps=16)),
        "mech_saltation-q": ("q", q, lambda v: mech_saltation(mm, v, qd, 1, activating=True)),
        "mech_saltation-qdot": ("qdot", qd, lambda v: mech_saltation(mm, q, v, 1, activating=True)),
        "mech_corner_model-q": ("q", q, lambda v: mech_corner_model(mm, v, qd)),
        "mech_corner_model-qdot": ("qdot", qd, lambda v: mech_corner_model(mm, q, v)),
    }


def with_last(v, entry) -> list:
    """``v`` as nested lists, with its last entry (of its last row) replaced by ``entry``."""
    out = np.asarray(v, dtype=float).tolist()
    (out[-1] if isinstance(out[-1], list) else out)[-1] = entry
    return out


NOT_REAL = {
    "complex-array": lambda v: np.array(with_last(v, 0.2j)),
    "complex128": lambda v: with_last(v, np.complex128(0.2j)),
    "string": lambda v: with_last(v, "a"),
}


@pytest.mark.parametrize("case", NOT_REAL)
@pytest.mark.parametrize("entry", array_inputs())
def test_array_input_that_is_not_real_is_refused(entry, case):
    name, real, call = array_inputs()[entry]
    call(real)  # the real value is taken
    with pytest.raises(ValueError, match=rf"^{name} has entries that are not real numbers: "):
        call(NOT_REAL[case](real))


# each bad value, and the start of the refusal after the argument's name
NOT_A_FINITE_VECTOR = {
    "short": (lambda v: np.asarray(v, dtype=float)[..., :-1], r"(length \d+, expected \d+|shape \(\d+, \d+\), expected)"),
    "nan": (lambda v: with_last(v, math.nan), "non-finite entries"),
    "inf": (lambda v: with_last(v, math.inf), "non-finite entries"),
}


@pytest.mark.parametrize("case", NOT_A_FINITE_VECTOR)
@pytest.mark.parametrize("entry", [e for e in array_inputs() if e != "sign_of"])  # sign_of takes any length
def test_array_input_that_is_not_a_finite_vector_is_refused(entry, case):
    name, real, call = array_inputs()[entry]
    bad, says = NOT_A_FINITE_VECTOR[case]
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} has {says}"):
        call(bad(real))


@pytest.mark.parametrize("case", NOT_A_FINITE_VECTOR)
def test_corner_model_checks_rho_before_the_field_is_called(case):
    field, _ = preset("pwc-linear")
    calls = []
    spy = dataclasses.replace(field, dh=lambda x: calls.append(x) or field.dh(x))
    bad, says = NOT_A_FINITE_VECTOR[case]
    with pytest.raises(ValueError, match=rf"^rho has {says}"):
        spy.corner_model(bad([0.0, 0.0]), SignVector.minus_ones(2))
    assert calls == []
    spy.corner_model([0.0, 0.0], SignVector.minus_ones(2))
    assert len(calls) == 1
