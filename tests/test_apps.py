import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from conftest import lazy_copy, linear_constraint_model, particle_model

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
from nsflow.bderiv import b_evaluate, saltation_matrix
from nsflow.core import (
    VALIDATION_ENUM_CAP,
    Permutation,
    SignVector,
    validate_corner,
)
from nsflow.errors import CapExceeded, InvalidDelta, SingularMass, TangentialCrossing
from nsflow.flow import flow_bderivative, integrate
from nsflow.oracle import (
    FD_ALPHAS,
    FD_RATIO_BAND,
    enumerate_saltations,
    finite_difference_flow,
    random_linear_event_field,
)


# -- piecewise-constant family ---------------------------------------------------


def test_zero_offsets_give_identity_derivative():
    _, corner = pwc_model(3, np.zeros((8, 3)))
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
    _, corner = pwc_model(2, rng.uniform(-0.9, 2.0, size=(4, 2)))
    angles = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
    sigmas = {
        b_evaluate(corner, [np.cos(a), np.sin(a)]).sigma for a in angles
    }
    assert len(sigmas) == 2


def test_linear_offsets_are_rows_by_mask():
    # row mask is -delta * b for the orthant b of that mask: +1 where bit j is set
    np.testing.assert_array_equal(
        pwc_linear_delta(2, 0.5), [[0.5, 0.5], [-0.5, 0.5], [0.5, -0.5], [-0.5, -0.5]]
    )
    assert pwc_linear_delta(3, 0.25).shape == (8, 3)


@pytest.mark.parametrize(
    "offsets, message",
    [
        (np.zeros((3, 2)), r"^offsets has shape \(3, 2\), expected \(4, 2\)$"),
        (np.zeros((4, 3)), r"^offsets has shape \(4, 3\), expected \(4, 2\)$"),
        (np.zeros(4), r"^offsets has shape \(4,\), expected \(4, 2\)$"),
        # a table keyed by orthant, the form pwc_model took before it took rows by mask
        ({SignVector.from_mask(mask, 2): np.zeros(2) for mask in range(4)},
         r"^offsets has entries that are not real numbers: "),
    ],
    ids=["short", "wide", "flat", "sign-vector-keys"],
)
def test_offsets_that_are_not_2_to_the_d_rows_of_d_are_refused(offsets, message):
    with pytest.raises(ValueError, match=message):
        pwc_model(2, offsets)


@pytest.mark.parametrize("bad", [SignVector((1,)), SignVector((1, 1, -1))], ids=["short", "long"])
@pytest.mark.parametrize("build", ["pwc", "soft-constraint", "random-linear"])
def test_selection_refuses_a_sign_vector_of_another_length(build, bad):
    # a short or long vector must not name another orthant of the field
    if build == "pwc":
        field = pwc_model(2, pwc_linear_delta(2, 0.5))[0]
    elif build == "soft-constraint":
        field = soft_constraint_field(biped_model())
    else:
        field = random_linear_event_field(np.random.default_rng(0))[0]
    message = rf"^the orthant must be a SignVector of 2 signs, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        field.selection(bad)


def test_soft_constraint_selection_activates_the_violated_constraints():
    mm = particle_model(uniform_damping(0.5, 3))
    field = soft_constraint_field(mm)
    x = np.array([-0.1, 0.2, -0.3, 0.4, -0.5, 0.6])
    q, qd = x[:3], x[3:]
    for mask in range(8):
        b = SignVector.from_mask(mask, 3)
        active = frozenset(j for j in (1, 2, 3) if not mask >> (j - 1) & 1)
        expected = np.concatenate([qd, mm.acceleration(q, qd, active, True)])
        np.testing.assert_array_equal(field.selection(b).value(x), expected)


def test_offsets_at_minus_one_rejected():
    with pytest.raises(InvalidDelta, match=r"^offset component -1.0 is not larger than -1$"):
        pwc_model(2, np.full((4, 2), -1.0))
    with pytest.raises(InvalidDelta, match=r"^offset component nan is not larger than -1$"):
        pwc_model(2, [[0.0, 0.0], [np.nan, 0.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(InvalidDelta):
        pwc_linear_delta(2, 1.0)


# -- soft-constraint mechanics ----------------------------------------------------


from conftest import lazy_copy, particle_model


def test_inactive_constraints_give_plain_dynamics():
    mm = particle_model(uniform_damping(0.5, 3))
    field = soft_constraint_field(mm)
    x = np.array([0.5, 0.5, 0.5, 0.1, 0.0, 0.0])  # all constraints satisfied
    assert (field.h(x) > 0.0).all()
    val = field.selection(SignVector.plus_ones(3)).value(x)
    np.testing.assert_array_equal(val[:3], x[3:])
    np.testing.assert_array_equal(val[3:], np.zeros(3))


def test_penalty_only_field_is_continuous_at_surface():
    mm = particle_model(uniform_damping(0.5, 3))
    field = soft_constraint_field(mm, dissipative=False)
    # exactly on the surface a_1 = 0 the spring term vanishes: selections agree
    x = np.array([-0.1, 0.5, 0.3, -0.2, 0.1, 0.0])
    assert field.h(x)[0] == 0.0
    assert (field.h(x)[1:] > 0.0).all()
    b_out = SignVector((1, 1, 1))  # a zero is on the + side
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
    with pytest.raises(SingularMass, match=match):
        dataclasses.replace(particle_model(uniform_damping(0.5, 3)), mass=mass)


def test_asymmetric_mass_matrix_is_refused():
    # cholesky reads the lower triangle, the identity, while the solve reads all of M
    mass = np.array([[1.0, 5.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(SingularMass, match="not symmetric"):
        dataclasses.replace(particle_model(uniform_damping(0.5, 3)), mass=mass)


@pytest.mark.parametrize("ulps", [0, 1], ids=["symmetric", "one-ulp"])
def test_symmetric_mass_matrix_solves(ulps):
    mass = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 1.5]])
    for _ in range(ulps):
        mass[1, 0] = np.nextafter(mass[1, 0], 1.0)
    assert np.count_nonzero(mass != mass.T) == 2 * ulps
    mm = dataclasses.replace(particle_model(uniform_damping(0.5, 3)), mass=mass)
    rhs = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(mass @ mm.mass_solve(rhs), rhs, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize(
    "mass, shape",
    [(np.eye(2), "(2, 2)"), (np.ones(3), "(3,)"), (np.eye(3)[None], "(1, 3, 3)")],
    ids=["smaller", "flat", "stacked"],
)
def test_mass_matrix_of_another_shape_is_refused(mass, shape):
    # a 2 x 2 mass once ended in a bare numpy error at the first solve
    with pytest.raises(ValueError, match=rf"^mass has shape {re.escape(shape)}, expected \(3, 3\)$"):
        dataclasses.replace(particle_model(uniform_damping(0.5, 3)), mass=mass)


def test_mass_matrix_is_a_read_only_copy_checked_once(monkeypatch):
    # the mass matrix is constant: no RK4 stage re-checks or re-factors it
    mass = np.eye(3)  # the biped's own
    mm = dataclasses.replace(biped_model(damping_policy="xor"), mass=mass)
    mass[0, 0] = 5.0
    assert mm.mass[0, 0] == 1.0 and not mm.mass.flags.writeable
    factored = []
    monkeypatch.setattr(np.linalg, "cholesky", lambda M: factored.append(M))
    res = integrate(soft_constraint_field(mm), [0.0, 1.0, 0.0, 0.0, 0.0, 0.0], 2.1, steps=64)
    assert [len(e.surfaces) for e in res.events] == [2] and factored == []


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


@pytest.mark.parametrize(
    "A, qd",
    [
        (np.full((2, 4), 1e308), [1e308, -1e308] * 2),
        (np.array([[1e308, 1e308]]), [1e308, -1e308]),
    ],
    ids=["two-surfaces", "one-surface"],
)
def test_mech_corner_model_refuses_a_crossing_rate_that_is_not_finite(A, qd):
    # Da and qdot are finite, but the rate Da . qdot overflows: to inf - inf, a
    # NaN, on a kernel that sums the products in more than one accumulator, and
    # to an infinity on one that sums them in turn.  An infinity got through and
    # was refused by the table's check, naming a gamma the caller never passed
    mm = linear_constraint_model(A, 5.0, uniform_damping(0.5, len(A)))
    with np.errstate(over="ignore", invalid="ignore"):
        rates = A @ np.array(qd)
        with pytest.raises(ValueError) as info:
            mech_corner_model(mm, np.zeros(len(qd)), qd)
    assert not np.isfinite(rates).all()
    assert str(info.value) == f"constraint rates {rates} include a non-finite rate"


@pytest.mark.parametrize("qd", [[-0.4, -0.3, -0.5], [0.4, -0.3, -0.5], [0.4, 0.3, 0.5]])
def test_mech_corner_model_enters_each_surface_from_the_side_its_rate_leaves(qd):
    # a falling constraint (negative rate) sits on its + side before the event,
    # so its bit of the incoming mask is set and its normal is turned over
    mm = particle_model(uniform_damping(0.7, 3))
    A = mm.constraint_jac(np.zeros(3))
    rates = A @ np.array(qd)
    incoming = sum(1 << j for j in range(3) if rates[j] < 0.0)
    corner = mech_corner_model(mm, np.zeros(3), qd)
    signs = np.where(rates < 0.0, -1.0, 1.0)
    np.testing.assert_array_equal(corner.eta, signs[:, None] * np.hstack([A, np.zeros((3, 3))]))
    field = soft_constraint_field(mm)
    state = np.concatenate([np.zeros(3), qd])
    assert corner.table[0].tobytes() == field.selection(SignVector.from_mask(incoming, 3)).value(state).tobytes()


def test_soft_constraint_jacobians_match_the_affine_field():
    # unit mass, linear constraints A q: on each orthant the selection is
    # affine, qdd = -sum over engaged j of A_j (kappa A_j . q + beta A_j . qd)
    kappa, beta = 5.0, 0.7
    mm = particle_model(uniform_damping(beta, 3), kappa=kappa)
    A = mm.constraint_jac(np.zeros(3))
    field = soft_constraint_field(mm)
    x = np.random.default_rng(36).normal(size=6)
    for mask in range(8):
        b = SignVector.from_mask(mask, 3)
        engaged = sum((np.outer(A[j], A[j]) for j in range(3) if b.entries[j] < 0), np.zeros((3, 3)))
        exact = np.block([[np.zeros((3, 3)), np.eye(3)], [-kappa * engaged, -beta * engaged]])
        np.testing.assert_allclose(field.selection(b).jacobian(x), exact, rtol=0.0, atol=1e-8)


def test_mech_saltation_tangential_guard():
    mm = particle_model(uniform_damping(0.7, 3))
    with pytest.raises(TangentialCrossing):
        mech_saltation(mm, np.zeros(3), np.zeros(3), 1, activating=True)


def _nan_jacobian(q):
    Da = biped_model().constraint_jac(q)
    Da[0, 0] = np.nan
    return Da


@pytest.mark.parametrize(
    "call",
    [lambda mm, q, qd: mech_saltation(mm, q, qd, 1, True), mech_corner_model],
    ids=["mech_saltation", "mech_corner_model"],
)
@pytest.mark.parametrize(
    "source, bad, message",
    [
        ("constraints", lambda q: np.array([np.nan, 0.0]), r"^the constraint value a\(q\) has non-finite"),
        ("constraint_jac", _nan_jacobian, r"^the constraint Jacobian Da\(q\) has non-finite entries in row 0"),
    ],
    ids=["value", "jacobian"],
)
def test_non_finite_constraint_data_is_refused(call, source, bad, message):
    # a NaN rate passes |w| < TANGENCY_TOL and a NaN value passes max|a| > CORNER_TOL
    mm = dataclasses.replace(biped_model(), **{source: bad})
    with pytest.raises(ValueError, match=message):
        call(mm, *biped_corner_state())


@pytest.mark.parametrize(
    "call",
    [lambda mm, q, qd: mech_saltation(mm, q, qd, 2, True), mech_corner_model],
    ids=["mech_saltation", "mech_corner_model"],
)
@pytest.mark.parametrize("rows", [[0], [0, 1, 1]], ids=["fewer", "more"])
def test_constraint_jacobian_without_n_rows_is_refused(call, rows):
    # one row leaves no row for surface 2; three rows would orient a corner
    # of three surfaces in a model of two
    full = biped_model()
    mm = dataclasses.replace(full, constraint_jac=lambda q: full.constraint_jac(q)[rows])
    with pytest.raises(ValueError, match=rf"^the constraint Jacobian Da\(q\) has shape \({len(rows)}, 3\), expected \(2, 3\)$"):
        call(mm, *biped_corner_state())


MECH_CALLABLES = {
    "forcing": ("the forcing f(q, qd)", (3,)),
    "constraints": ("the constraint value a(q)", (2,)),
    "constraint_jac": ("the constraint Jacobian Da(q)", (2, 3)),
}


@pytest.mark.parametrize(
    "call",
    [lambda mm: integrate(soft_constraint_field(mm), [0.0, 1.0, 0.0, 0.0, 0.0, 0.0], 2.1, steps=64),
     lambda mm: mech_corner_model(mm, *biped_corner_state())],
    ids=["integrate", "mech_corner_model"],
)
@pytest.mark.parametrize("bad", ["complex", "short"])
@pytest.mark.parametrize("source", list(MECH_CALLABLES))
def test_mechanical_callables_are_read_through_checked_readers(source, bad, call):
    # a complex forcing reached the true model's x_end with only a ComplexWarning,
    # and a forcing of length 2 ended in numpy's solve1 error
    full = biped_model(damping_policy="xor")
    fn = getattr(full, source)
    wrong = (lambda *args: fn(*args) + 1j) if bad == "complex" else (lambda *args: fn(*args)[:-1])
    what, shape = MECH_CALLABLES[source]
    if bad == "complex":
        # a matrix names its first row, and every row of a complex one is complex
        message = f"{what} has entries that are not real numbers{' in row 0' if len(shape) > 1 else ''}: "
    else:
        message = f"{what} has shape {(shape[0] - 1, *shape[1:])}, expected {shape}"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call(dataclasses.replace(full, **{source: wrong}))


@pytest.mark.parametrize(
    "kappa, message",
    [
        ([10.0], "kappa has shape (1,), expected (2,)"),
        ([10.0, 10.0, 10.0], "kappa has shape (3,), expected (2,)"),
    ],
    ids=["short", "long"],
)
def test_kappa_is_checked_once_when_the_model_is_built(kappa, message):
    # integrated to t = 2.1 these ended in a bare IndexError and were taken silently
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        dataclasses.replace(biped_model(damping_policy="xor"), kappa=kappa)


def test_kappa_is_a_read_only_copy():
    kappa = np.array([10, 10])  # ints are read as floats
    mm = dataclasses.replace(biped_model(), kappa=kappa)
    kappa[0] = 1
    assert mm.kappa.tolist() == [10.0, 10.0] and mm.kappa.dtype == float and not mm.kappa.flags.writeable


@pytest.mark.parametrize(
    "call",
    [lambda mm: integrate(soft_constraint_field(mm), [0.0, 1.0, 0.0, 0.0, 0.0, 0.0], 2.1, steps=64),
     lambda mm: mech_saltation(mm, *biped_corner_state(), 2, True)],
    ids=["integrate", "mech_saltation"],
)
@pytest.mark.parametrize(
    "bad, message",
    [
        (lambda betas: betas + 1j, "the damping beta(active) has entries that are not real numbers: "),
        (lambda betas: betas[:1], "the damping beta(active) has shape (1,), expected (2,)"),
        (lambda betas: betas * np.nan, "the damping beta(active) has non-finite entries: [nan, nan]"),
    ],
    ids=["complex", "short", "nan"],
)
def test_damping_policy_values_are_read_through_a_checked_reader(bad, message, call):
    # these ended in a bare numpy UFuncTypeError or IndexError; a NaN was blamed
    # on h by integrate and gave mech_saltation an all-NaN block with no error
    full = biped_model(damping_policy="xor")
    mm = dataclasses.replace(full, damping_policy=lambda active: bad(full.damping_policy(active)))
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call(mm)


def test_a_non_finite_forcing_is_refused_by_its_reader():
    # integrate ended in "h is NaN on surface(s) [1, 2] at t = 0.0328125"
    full = biped_model(damping_policy="xor")
    mm = dataclasses.replace(full, forcing=lambda q, qd: full.forcing(q, qd) * [1.0, np.nan, 1.0])
    message = "the forcing f(q, qd) has non-finite entries: [0.0, nan, 0.0]"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        integrate(soft_constraint_field(mm), [0.0, 1.0, 0.0, 0.0, 0.0, 0.0], 2.1, steps=64)


@pytest.mark.parametrize("j", [0, -1, 3, True, 1.0, "1", None])
def test_mech_saltation_refuses_a_constraint_index_outside_1_to_n(j):
    # 0 and -1 gave the saltation of another constraint, True was taken as 1,
    # and 3 and 1.0 ended in a bare IndexError
    mm = biped_model(damping_policy="xor")
    with pytest.raises(ValueError, match="^" + re.escape(f"j must be a constraint in 1..2, got {j!r}") + "$"):
        mech_saltation(mm, *biped_corner_state(), j, True)


BIPED_ON_BOTH_SURFACES = biped_corner_state()
MECH_SALTATION_CASES = {
    "particle-activating": ("particle", np.zeros(3), [-0.4, -0.3, -0.5], 2, True),
    "particle-deactivating": ("particle", np.zeros(3), [0.4, 0.3, 0.5], 2, False),
    "particle-off-surface": ("particle", [0.1, 0.05, -0.2], [-0.4, -0.3, -0.5], 2, True),
    "biped-uniform-1": ("uniform", *BIPED_ON_BOTH_SURFACES, 1, True),
    "biped-uniform-2": ("uniform", *BIPED_ON_BOTH_SURFACES, 2, True),
    "biped-xor-1": ("xor", *BIPED_ON_BOTH_SURFACES, 1, True),
    "biped-xor-2": ("xor", *BIPED_ON_BOTH_SURFACES, 2, True),
}


@pytest.mark.parametrize("model, q, qd, j, activating", MECH_SALTATION_CASES.values(), ids=MECH_SALTATION_CASES)
def test_mech_saltation_is_the_saltation_of_the_frozen_field(model, q, qd, j, activating):
    # the generic route: the field frozen at (q, qd) into a one-surface corner
    # model, entered with no constraint engaged but j when deactivating
    mm = particle_model(uniform_damping(0.7, 3)) if model == "particle" else biped_model(damping_policy=model)
    incoming = (1 << mm.n) - 1 ^ (0 if activating else 1 << (j - 1))
    corner = soft_constraint_field(mm).corner_model(np.concatenate([q, qd]), incoming, (j,))
    np.testing.assert_allclose(
        mech_saltation(mm, q, qd, j, activating), saltation_matrix(corner, Permutation((1,))),
        rtol=0.0, atol=1e-12,
    )


# -- biped -------------------------------------------------------------------------


def test_biped_refuses_an_unknown_damping_policy():
    with pytest.raises(ValueError, match=r"^unknown damping policy 'stiff'$"):
        biped_model(damping_policy="stiff")


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
    D = mats[Permutation((1, 2))] - mats[Permutation((2, 1))]
    np.testing.assert_allclose(D, 0.0, atol=1e-12)


@pytest.mark.parametrize("psi", [0.05, 0.1, 0.3])
def test_biped_xor_saltation_difference_closed_form(psi):
    beta = 0.5
    mm = biped_model(psi=psi, damping_policy="xor", beta=beta)
    q, qd = biped_corner_state(psi=psi)
    mats = enumerate_saltations(mech_corner_model(mm, q, qd))
    D = mats[Permutation((1, 2))] - mats[Permutation((2, 1))]
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
        diffs.append(mats[Permutation((1, 2))] - mats[Permutation((2, 1))])
    np.testing.assert_allclose(diffs[0], diffs[1], atol=1e-11)
    np.testing.assert_allclose(diffs[0], diffs[2], atol=1e-11)


def test_xor_damping_levels():
    policy = xor_damping(0.5)
    np.testing.assert_array_equal(policy(frozenset({1})), [0.5, 0.5])
    np.testing.assert_array_equal(policy(frozenset({2})), [0.5, 0.5])
    np.testing.assert_array_equal(policy(frozenset({1, 2})), [0.25, 0.25])


# The biped dropped from (0, 1, 0, 0, 0, 0) for t = 2.1 at 128 steps meets one
# corner event (1, 2) at t = 1.944325.  Over the 6 unit directions and 2
# normalised normal draws, max |B(v) + B(-v)| read 1.4e-15 (uniform), 1.35e-15
# (penalty-only) and 2.78 (xor); the bounds below are 1e-14 and 1.0.
BIPED_DROP = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
BIPED_DROP_DIRECTIONS = [*np.eye(6), *(v / np.linalg.norm(v) for v in np.random.default_rng(0).normal(size=(2, 6)))]


@pytest.mark.parametrize(
    "policy, dissipative, linear",
    [("uniform", True, True), ("xor", False, True), ("xor", True, False)],
    ids=["uniform", "penalty-only", "xor"],
)
def test_biped_corner_derivative_along_a_trajectory(policy, dissipative, linear):
    # the paper's mechanical dichotomy at trajectory level: constraint-independent
    # damping, or springs alone, keep B linear (the C1 case); xor damping does not
    field = soft_constraint_field(biped_model(psi=0.1, beta=0.5, damping_policy=policy), dissipative)
    res = integrate(field, BIPED_DROP, 2.1, steps=128)
    assert [e.surfaces for e in res.events] == [(1, 2)]
    assert abs(res.events[0].time - 1.944325) < 1e-6
    bfd = flow_bderivative(field, BIPED_DROP, 2.1, result=res)
    odd = max(float(np.linalg.norm(bfd(v) + bfd(-v))) for v in BIPED_DROP_DIRECTIONS)
    assert odd < 1e-14 if linear else odd > 1.0
    # each order is the one a perturbed start meets: it splits the corner into
    # two single crossings in that order, but along e_2 and e_5 (height and
    # vertical speed), which keep the drop symmetric and the corner whole
    orders = set()
    for i, v in enumerate(BIPED_DROP_DIRECTIONS):
        (order,) = bfd.crossing_orders(v)
        orders.add(order)
        split = ((1, 2),) if i in (1, 4) else tuple((j,) for j in order)
        for alpha in (1e-3, 1e-4):
            moved = integrate(field, BIPED_DROP + alpha * v, 2.1, steps=128)
            assert tuple(e.surfaces for e in moved.events) == split, (i, alpha)
    assert orders == {(1, 2), (2, 1)}


# On the drop above at 128 steps, the median forward-difference error over the
# 8 directions fell by 9.99 and 9.99 per decade of FD_ALPHAS (uniform) and by
# 9.77 and 9.97 (xor); single directions read 8.8 to 10.7.
@pytest.mark.parametrize("policy", ["uniform", "xor"])
def test_biped_forward_differences_converge_at_first_order(policy):
    field = soft_constraint_field(biped_model(psi=0.1, beta=0.5, damping_policy=policy))
    bfd = flow_bderivative(field, BIPED_DROP, 2.1, steps=128)
    quotients = finite_difference_flow(field, BIPED_DROP, 2.1, BIPED_DROP_DIRECTIONS, FD_ALPHAS, steps=128)
    errors = [[np.linalg.norm(q - bfd(v)) for q in row] for v, row in zip(BIPED_DROP_DIRECTIONS, quotients)]
    med = np.median(errors, axis=0)
    ratios = med[:-1] / med[1:]
    assert all(FD_RATIO_BAND[0] <= r <= FD_RATIO_BAND[1] for r in ratios), ratios


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
    # one row per orthant in lexicographic order, each keyed by its mask
    signs = list(itertools.product((-1, 1), repeat=d))
    offsets = {
        "pwc": {SignVector(b).mask: rng.uniform(-0.9, 2.0, size=d) for b in signs},
        "pwc-linear": {SignVector(b).mask: -delta * np.asarray(b, dtype=float) for b in signs},
    }
    for name, offs in offsets.items():
        corner = preset(name, d=d, delta=delta, seed=seed)[1]
        expected = np.array([np.ones(d) + offs[mask] for mask in range(1 << d)])
        np.testing.assert_array_equal(corner.table, expected)
        assert corner.f_min == min(1e-9, 0.1 * float(expected.min()))
        assert validate_corner(corner) == validate_corner(lazy_copy(corner))


@pytest.mark.parametrize("name", ["pwc", "pwc-linear"])
def test_pwc_presets_refuse_d_outside_one_to_the_validation_cap(monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated orthants before the cap check")

    monkeypatch.setattr(apps, "pwc_linear_delta", refuse)
    monkeypatch.setattr(apps, "pwc_model", refuse)
    with pytest.raises(CapExceeded, match="d <= 16"):
        preset(name, d=VALIDATION_ENUM_CAP + 1)
    for d in (0, -1):
        with pytest.raises(ValueError, match="d >= 1"):
            preset(name, d=d)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="^unknown preset 'nope'; try pwc, pwc-linear, biped-uniform, biped-xor$"):
        preset("nope")


# each bad rho, and the start of the refusal after its name
NOT_A_FINITE_VECTOR = {
    "short": ([0.0], r"shape \(1,\), expected \("),
    "nan": ([0.0, math.nan], "non-finite entries"),
    "inf": ([0.0, math.inf], "non-finite entries"),
}


@pytest.mark.parametrize("case", NOT_A_FINITE_VECTOR)
def test_corner_model_checks_rho_before_the_field_is_called(case):
    field, _ = preset("pwc-linear")
    calls = []
    spy = dataclasses.replace(field, dh=lambda x: calls.append(x) or field.dh(x))
    bad, says = NOT_A_FINITE_VECTOR[case]
    with pytest.raises(ValueError, match=rf"^rho has {says}"):
        spy.corner_model(bad, 0)
    assert calls == []
    spy.corner_model([0.0, 0.0], 0)
    assert len(calls) == 1
