import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg

from nsflow.apps import pwc_linear_delta, pwc_model
from nsflow.core import PiecewiseField, SignVector, SmoothField, all_sign_vectors
import nsflow.bderiv
from nsflow.errors import NotEventSelected, StepTooLarge, TangentialCrossing
from nsflow.flow import _bisect_crossing, flow_bderivative, integrate, variational
from nsflow.oracle import (
    finite_difference_flow,
    random_linear_event_field,
)
from nsflow.sampled import rho_minus, rho_plus


def smooth_linear_field(A, d):
    """A field with no surfaces is modeled as one far-away surface never crossed."""
    sel = SmoothField(value=lambda x: A @ x, jacobian=lambda x: A.copy())
    return PiecewiseField(
        d=d,
        n=1,
        rho=np.zeros(d),
        h=lambda x: np.array([x[0] - 1e9]),
        dh=lambda x: np.eye(d)[:1],
        selection=lambda b: sel,
    )


def single_surface_1d_field(c1, c2):
    table = {SignVector.of([-1]): np.array([c1]), SignVector.of([1]): np.array([c2])}

    def selection(b):
        g = table[b]
        return SmoothField(value=lambda x, _g=g: _g.copy(), jacobian=lambda x: np.zeros((1, 1)))

    return PiecewiseField(
        d=1,
        n=1,
        rho=np.zeros(1),
        h=lambda x: np.asarray(x, dtype=float),
        dh=lambda x: np.eye(1),
        selection=selection,
    )


def constant_one_surface_field(dh_row, f_by_sign):
    """A planar field with one surface ``dh_row . x = 0`` and a constant
    selection ``f_by_sign[s]`` on the side where the event function has sign s."""
    row = np.asarray(dh_row, dtype=float)

    def selection(b):
        g = np.asarray(f_by_sign[b[0]], dtype=float)
        return SmoothField(value=lambda x: g.copy(), jacobian=lambda x: np.zeros((2, 2)))

    return PiecewiseField(
        d=2,
        n=1,
        rho=np.zeros(2),
        h=lambda x: np.array([row @ x]),
        dh=lambda x: row[None, :].copy(),
        selection=selection,
    )


def single_linear_stage(bfd):
    """The matrix of a flow derivative whose trajectory meets no corner."""
    ((kind, matrix),) = bfd.stages
    assert kind == "linear"
    return matrix


# -- integrate -----------------------------------------------------------------


def test_smooth_linear_field_matches_expm():
    rng = np.random.default_rng(20)
    A = 0.5 * rng.normal(size=(3, 3))
    field = smooth_linear_field(A, 3)
    x0 = rng.normal(size=3)
    res = integrate(field, x0, 1.0, steps=256)
    np.testing.assert_allclose(res.x_end, scipy.linalg.expm(A) @ x0, rtol=1e-8, atol=1e-10)
    assert res.events == []


def test_pwc_flows_through_the_corner():
    field, corner = pwc_model(2, pwc_linear_delta(2, 0.5))
    res = integrate(field, rho_minus(corner), 1.0, steps=512)
    np.testing.assert_allclose(res.x_end, rho_plus(corner), atol=1e-9)
    assert len(res.events) == 1 and res.events[0].is_corner
    assert res.events[0].surfaces == (1, 2)
    assert res.events[0].time == pytest.approx(0.5, abs=1e-9)


def test_biped_symmetric_drop_corners():
    from nsflow.apps import biped_model, soft_constraint_field

    mm = biped_model(psi=0.1, damping_policy="xor")
    field = soft_constraint_field(mm)
    res = integrate(field, np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]), 2.1, steps=2048)
    assert len(res.events) == 1
    assert res.events[0].surfaces == (1, 2)


def test_zero_time_single_point():
    field, corner = pwc_model(2, pwc_linear_delta(2, 0.5))
    res = integrate(field, rho_minus(corner), 0.0, steps=16)
    assert len(res.segments) == 1
    assert res.segments[0].times.shape == (1,)


def test_tangential_crossing_guard():
    # the incoming normal speed 1e-10 is below the floor DEFAULT_F_MIN = 1e-9
    field = constant_one_surface_field([1, 0], {-1: [1e-10, 1], 1: [1, 1]})
    with pytest.raises(TangentialCrossing):
        integrate(field, [-1e-9, 0], 100.0, steps=128)


def test_sliding_field_is_refused_as_chatter():
    # h = x with field +1 below and -1 above: every step crosses back
    field = single_surface_1d_field(1.0, -1.0)
    with pytest.raises(StepTooLarge, match="^event count exploded; the field is likely not event-selected"):
        integrate(field, [-0.5], 2.0, steps=100)


def test_a_step_that_brackets_no_crossing_is_refused():
    # integrate bisects only the surfaces whose side flipped over a step, so
    # only a direct call can hand the bisection a step with no sign change
    field = single_surface_1d_field(1.0, 1.0)
    f = field.selection(SignVector.of([-1])).value
    with pytest.raises(StepTooLarge, match="^event function 1 does not bracket a crossing within the step$"):
        _bisect_crossing(f, field, np.array([-1.0]), 0.5, 1)


def jumping_1d_field(jump):
    """``single_surface_1d_field(1.0, 1.0)`` whose event function jumps from
    -jump to +jump at x = 0, so no state has |h| below ``jump``."""
    h = lambda x: np.asarray(x, dtype=float) + np.where(np.asarray(x) < 0.0, -jump, jump)
    return dataclasses.replace(single_surface_1d_field(1.0, 1.0), h=h)


def test_bisection_falls_back_to_the_bracket_end_within_its_band():
    # |h| >= 5e-9 everywhere misses the 1e-11 tolerance, but the last
    # bracket end is within the fallback band of 1e-8
    res = integrate(jumping_1d_field(5e-9), [-0.5], 1.0, steps=4)
    (event,) = res.events
    assert abs(event.time - 0.5) <= 1e-15 and 0.0 <= event.state[0] <= 1e-15
    np.testing.assert_allclose(res.x_end, [0.5], atol=1e-15)


def test_bisection_that_cannot_reach_the_fallback_band_is_refused():
    with pytest.raises(StepTooLarge, match="^bisection failed to localize event function 1$"):
        integrate(jumping_1d_field(1e-6), [-0.5], 1.0, steps=4)


def test_far_surface_of_the_smooth_linear_field_is_never_crossed():
    # dx_1/dt = x_2 = 1 carries x_1 across 0 but nowhere near the surface,
    # the zero set x_1 = 1e9 of h
    A = np.zeros((3, 3))
    A[0, 1] = 1.0
    res = integrate(smooth_linear_field(A, 3), [-0.05, 1.0, 0.0], 0.1, steps=64)
    np.testing.assert_allclose(res.x_end, [0.05, 1.0, 0.0], atol=1e-15)
    assert res.events == []


@pytest.mark.parametrize(
    "x0, t, match",
    [
        ([-0.6, -0.6], float("nan"), "finite t"),
        ([-0.6, -0.6], float("inf"), "finite t"),
        ([-0.6, -0.6], -1.0, "finite t"),
        ([float("nan"), -0.6], 1.0, "non-finite"),
        ([-0.6, float("inf")], 1.0, "non-finite"),
        ([-0.6, -0.6, 0.0], 1.0, "length"),
        ([[-0.6, -0.6]], 1.0, "shape"),
        (np.array([-0.6, 0.2j]), 1.0, "^x0 has entries that are not real numbers: "),
        ([-0.6, np.complex128(0.2j)], 1.0, "^x0 has entries that are not real numbers: "),
        ([-0.6, "a"], 1.0, "^x0 has entries that are not real numbers: could not convert"),
    ],
)
def test_bad_input_rejected(x0, t, match):
    field, _ = pwc_model(2, pwc_linear_delta(2, 0.5))
    with pytest.raises(ValueError, match=match):
        integrate(field, x0, t, steps=16)


@pytest.mark.parametrize("steps", [0, -4])
def test_non_positive_steps_rejected(steps):
    # steps <= 0 used to take one RK4 step over the whole horizon
    field, _ = pwc_model(2, pwc_linear_delta(2, 0.5))
    with pytest.raises(ValueError, match="steps >= 1"):
        integrate(field, [-0.6, -0.6], 1.0, steps=steps)


def test_selection_built_once_per_orthant():
    rng = np.random.default_rng(30)
    field, x0, t = random_linear_event_field(rng)
    calls = []

    def selection(b):
        calls.append(b)
        return field.selection(b)

    counted = dataclasses.replace(field, selection=selection)
    res = integrate(counted, x0, t, steps=512)
    assert len(calls) == len(res.segments) == 2
    ref = integrate(field, x0, t, steps=512)
    for seg, ref_seg in zip(res.segments, ref.segments):
        np.testing.assert_array_equal(seg.states, ref_seg.states)


# -- variational ---------------------------------------------------------------


def test_variational_constant_field_is_identity():
    field, corner = pwc_model(2, pwc_linear_delta(2, 0.5))
    res = integrate(field, rho_minus(corner), 0.4, steps=64)
    np.testing.assert_allclose(variational(field, res.segments[0]), np.eye(2), atol=1e-14)


def test_variational_linear_field_matches_expm():
    rng = np.random.default_rng(21)
    A = 0.4 * rng.normal(size=(3, 3))
    field = smooth_linear_field(A, 3)
    res = integrate(field, rng.normal(size=3), 1.0, steps=256)
    np.testing.assert_allclose(
        variational(field, res.segments[0]), scipy.linalg.expm(A), rtol=1e-8, atol=1e-10
    )


def test_variational_time_reversal_inverts():
    rng = np.random.default_rng(22)
    A = 0.4 * rng.normal(size=(3, 3))
    fwd = smooth_linear_field(A, 3)
    bwd = smooth_linear_field(-A, 3)
    x0 = rng.normal(size=3)
    res_f = integrate(fwd, x0, 0.8, steps=256)
    res_b = integrate(bwd, res_f.x_end, 0.8, steps=256)
    prod = variational(bwd, res_b.segments[0]) @ variational(fwd, res_f.segments[0])
    np.testing.assert_allclose(prod, np.eye(3), atol=1e-8)


# -- single-event derivative ----------------------------------------------------


def test_continuous_across_surface_reduces_to_variational():
    # same selection on both sides: saltation is the identity
    rng = np.random.default_rng(23)
    A = 0.3 * rng.normal(size=(2, 2))
    sel = SmoothField(value=lambda x: np.array([1.0, 0.0]) + A @ x, jacobian=lambda x: A.copy())
    field = PiecewiseField(
        d=2,
        n=1,
        rho=np.zeros(2),
        h=lambda x: np.array([x[0]]),
        dh=lambda x: np.eye(2)[:1],
        selection=lambda b: sel,
    )
    x0 = np.array([-0.3, 0.1])
    res = integrate(field, x0, 0.6, steps=256)
    assert len(res.events) == 1
    D = single_linear_stage(flow_bderivative(field, x0, 0.6, result=res))
    whole = variational(field, res.segments[1]) @ variational(field, res.segments[0])
    np.testing.assert_allclose(D, whole, rtol=1e-10, atol=1e-12)


def test_one_dimensional_crossing_time_rescaling():
    c1, c2 = 0.7, 1.9
    field = single_surface_1d_field(c1, c2)
    D = single_linear_stage(flow_bderivative(field, np.array([-0.35]), 1.0, steps=256))
    assert D[0, 0] == pytest.approx(c2 / c1, rel=1e-10)


def test_single_event_matches_forward_differences():
    rng = np.random.default_rng(24)
    field, x0, t = random_linear_event_field(rng, n=1, d=3)
    D = single_linear_stage(flow_bderivative(field, x0, t, steps=512))
    for _ in range(4):
        dx = rng.normal(size=3)
        dx /= np.linalg.norm(dx)
        for alpha in (1e-3, 1e-4):
            quotient = finite_difference_flow(field, x0, t, dx, [alpha], steps=512)[0]
            assert np.linalg.norm(quotient - D @ dx) < 10.0 * alpha


# -- corner flow derivative -----------------------------------------------------


def test_corner_derivative_zero_maps_to_zero():
    rng = np.random.default_rng(25)
    field, x0, t = random_linear_event_field(rng)
    bfd = flow_bderivative(field, x0, t, steps=256)
    np.testing.assert_array_equal(bfd(np.zeros(3)), np.zeros(3))


def test_pwc_corner_flow_equals_plain_b_evaluate():
    from nsflow.bderiv import b_evaluate

    field, corner = pwc_model(2, pwc_linear_delta(2, 0.5))
    x0 = rho_minus(corner)
    bfd = flow_bderivative(field, x0, 1.0, steps=512)
    np.testing.assert_allclose(bfd.stages[0][1], np.eye(2), atol=1e-12)
    np.testing.assert_allclose(bfd.stages[-1][1], np.eye(2), atol=1e-12)
    for v in ([0.6, -0.9], [0.1, 0.2]):
        np.testing.assert_allclose(
            bfd(v),
            b_evaluate(corner, v).delta_rho_plus,
            atol=1e-9,
        )


def test_corner_flow_matches_forward_differences():
    rng = np.random.default_rng(26)
    field, x0, t = random_linear_event_field(rng)
    bfd = flow_bderivative(field, x0, t, steps=512)
    for _ in range(5):
        dx = rng.normal(size=3)
        dx /= np.linalg.norm(dx)
        exact = bfd(dx)
        for alpha in (1e-3, 1e-4):
            quotient = finite_difference_flow(field, x0, t, dx, [alpha], steps=512)[0]
            assert np.linalg.norm(quotient - exact) < 10.0 * alpha


# -- crossing orders -------------------------------------------------------------


def crossing_order_of(result):
    order = []
    for ev in result.events:
        order.extend(ev.surfaces)
    return tuple(order)


def test_crossing_orders_pwc_hand_case():
    field, corner = pwc_model(2, pwc_linear_delta(2, 0.5))
    x0 = rho_minus(corner)
    bfd = flow_bderivative(field, x0, 1.0, steps=512)
    dx = np.array([-1.0, 1.0])
    assert bfd.crossing_orders(dx)[0] == (2, 1)
    # oracle: integrate the perturbed start and read off the crossing order
    pert = integrate(field, x0 + 1e-4 * dx, 1.0, steps=512)
    assert crossing_order_of(pert) == (2, 1)


def test_crossing_orders_match_perturbed_trajectories():
    rng = np.random.default_rng(27)
    field, x0, t = random_linear_event_field(rng)
    bfd = flow_bderivative(field, x0, t, steps=512)
    checked = 0
    for _ in range(40):
        dx = rng.normal(size=3)
        dx /= np.linalg.norm(dx)
        order = bfd.crossing_orders(dx)[0]
        pert = integrate(field, x0 + 1e-4 * dx, t, steps=512)
        observed = crossing_order_of(pert)
        if len(observed) != field.n:  # merged events: direction too close to a cone face
            continue
        assert observed == order
        checked += 1
    assert checked >= 25


def test_crossing_orders_along_flow_are_tie_broken():
    field, corner = pwc_model(2, pwc_linear_delta(2, 0.0))
    x0 = rho_minus(corner)
    bfd = flow_bderivative(field, x0, 1.0, steps=256)
    (order,) = bfd.crossing_orders(field.selection(SignVector.minus_ones(2)).value(x0))
    assert sorted(order) == [1, 2]


# -- composed multi-event derivative ---------------------------------------------


def shifted_two_surface_field(rng):
    """Two surfaces crossed at distinct times: x_1 = 0 then x_2 = -0.4."""
    offsets = np.array([0.0, -0.4])
    gammas = {b: np.array([1.0, 1.0, 0.0]) + 0.2 * rng.normal(size=3) for b in all_sign_vectors(2)}
    for g in gammas.values():
        g[:2] = np.abs(g[:2]) + 0.5
    jacs = {b: 0.1 * rng.normal(size=(3, 3)) for b in all_sign_vectors(2)}

    def selection(b):
        g, A = gammas[b], jacs[b]
        return SmoothField(
            value=lambda x, _g=g, _A=A: _g + _A @ np.asarray(x, dtype=float),
            jacobian=lambda x, _A=A: _A.copy(),
        )

    return PiecewiseField(
        d=3,
        n=2,
        rho=np.array([0.0, -0.4, 0.0]),
        h=lambda x: np.array([x[0], x[1]]) - offsets,
        dh=lambda x: np.eye(3)[:2],
        selection=selection,
    )


def test_chained_events_match_forward_differences():
    rng = np.random.default_rng(28)
    field = shifted_two_surface_field(rng)
    x0 = np.array([-0.5, -1.1, 0.05])
    t = 1.2
    base = integrate(field, x0, t, steps=512)
    assert len(base.events) == 2 and not any(e.is_corner for e in base.events)
    Dflow = flow_bderivative(field, x0, t, result=base, steps=512)
    for _ in range(4):
        dx = rng.normal(size=3)
        dx /= np.linalg.norm(dx)
        exact = Dflow(dx)
        for alpha in (1e-3, 1e-4):
            quotient = finite_difference_flow(field, x0, t, dx, [alpha], steps=512)[0]
            assert np.linalg.norm(quotient - exact) < 20.0 * alpha


def two_corner_field(rng, offset=0.6):
    """Four surfaces arranged as two consecutive genuine corners: planes
    x_1 = 0, x_2 = 0 meet on the trajectory first, then x_1 = c, x_2 = c."""
    offsets = np.array([0.0, 0.0, offset, offset])
    gammas = {}
    for b in all_sign_vectors(4):
        # equal first two components keep the diagonal invariant, so both
        # surfaces of each pair are reached simultaneously
        c = 0.6 + float(rng.uniform(0.0, 0.8))
        gammas[b] = np.array([c, c, float(rng.normal(scale=0.4))])

    def selection(b):
        g = gammas[b]
        return SmoothField(
            value=lambda x, _g=g: _g.copy(),
            jacobian=lambda x: np.zeros((3, 3)),
        )

    return PiecewiseField(
        d=3,
        n=4,
        rho=np.zeros(3),
        h=lambda x: np.array([x[0], x[1], x[0], x[1]]) - offsets,
        dh=lambda x: np.array(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        ),
        selection=selection,
    )


def test_two_genuine_corners_compose():
    rng = np.random.default_rng(29)
    field = two_corner_field(rng)
    x0 = np.array([-0.4, -0.4, 0.1])  # on the diagonal: hits both corners
    t = 1.4
    base = integrate(field, x0, t, steps=512)
    assert [e.surfaces for e in base.events] == [(1, 2), (3, 4)]
    Dflow = flow_bderivative(field, x0, t, result=base, steps=512)
    for _ in range(5):
        dx = rng.normal(size=3)
        dx /= np.linalg.norm(dx)
        exact = Dflow(dx)
        for alpha in (1e-3, 1e-4):
            quotient = finite_difference_flow(field, x0, t, dx, [alpha], steps=512)[0]
            assert np.linalg.norm(quotient - exact) < 20.0 * alpha


def test_crossing_orders_through_two_corners_match_perturbed_trajectories():
    rng = np.random.default_rng(29)
    field = two_corner_field(rng)
    x0 = np.array([-0.4, -0.4, 0.1])
    t = 1.4
    bfd = flow_bderivative(field, x0, t, steps=512)
    assert bfd.corner_surfaces == ((1, 2), (3, 4))
    checked = 0
    for _ in range(40):
        dx = rng.normal(size=3)
        dx /= np.linalg.norm(dx)
        pert = integrate(field, x0 + 1e-4 * dx, t, steps=512)
        if len(pert.events) != field.n:  # merged events: direction too close to a cone face
            continue
        assert sum(bfd.crossing_orders(dx), ()) == crossing_order_of(pert)
        checked += 1
    assert checked >= 30


# -- one event path --------------------------------------------------------------


def test_single_crossing_into_a_sliding_exit_is_not_event_selected():
    # the exit field (0, 1) runs along the surface x1 = 0: no transversal crossing
    field = constant_one_surface_field([1.0, 0.0], {-1: [1.0, 0.0], 1: [0.0, 1.0]})
    with pytest.raises(
        NotEventSelected,
        match=re.escape("normal-dot 0 below floor 1e-09 at surface 1, orthant +"),
    ):
        flow_bderivative(field, [-0.5, 0.0], 1.0, steps=64)


def test_downward_single_crossing_folds_the_oriented_saltation(monkeypatch):
    # h = -x1 decreases along the flow, so the crossing leaves the + side
    f_minus, f_plus = np.array([1.0, 0.2]), np.array([2.0, -0.3])
    dh_row = np.array([-1.0, 0.0])
    field = constant_one_surface_field(dh_row, {1: f_minus, -1: f_plus})
    real = nsflow.bderiv.saltation_single
    built = []
    monkeypatch.setattr(
        nsflow.bderiv, "saltation_single", lambda *args: built.append(real(*args)) or built[-1]
    )
    bfd = flow_bderivative(field, [-0.5, 0.3], 1.0, steps=64)
    expected = real(f_minus, f_plus, -dh_row)
    assert len(built) == 1
    assert built[0].tobytes() == expected.tobytes()
    # both segments' sensitivities are exactly the identity
    assert single_linear_stage(bfd).tobytes() == expected.tobytes()


def test_applying_a_built_flow_derivative_calls_no_selection():
    field, x0, t = random_linear_event_field(np.random.default_rng(31))
    calls = []

    def selection(b):
        calls.append(b)
        return field.selection(b)

    bfd = flow_bderivative(dataclasses.replace(field, selection=selection), x0, t, steps=512)
    assert [kind for kind, _ in bfd.stages] == ["linear", "corner", "linear"]
    calls.clear()
    for dx in np.random.default_rng(32).normal(size=(10, 3)):
        bfd(dx)
        bfd.crossing_orders(dx)
    assert calls == []


def corner_and_smooth_flow_derivatives():
    field, x0, t = random_linear_event_field(np.random.default_rng(33))
    corner = flow_bderivative(field, x0, t, steps=256)
    smooth = flow_bderivative(field, x0, 0.1, steps=64)
    assert len(corner.stages) == 3 and len(smooth.stages) == 1
    return corner, smooth


@pytest.mark.parametrize(
    "dx, match",
    [
        ([float("nan"), 0.0, 0.0], "non-finite entries: [nan, 0.0, 0.0]"),
        ([0.0, float("inf"), 0.0], "non-finite entries: [0.0, inf, 0.0]"),
        ([1.0, 0.0], "length 2, expected 3"),
        ([1.0, 0.0, 0.0, 0.0], "length 4, expected 3"),
        ([[1.0, 0.0, 0.0]], "shape (1, 3), expected (3,)"),
        (1.0, "shape (), expected (3,)"),
        (np.ones((2, 1)), "shape (2, 1), expected (3,)"),
        ([0.1, 0.2j, 0.3], "entries that are not real numbers: "),
        (np.array([0.1, 0.2j, 0.3]), "entries that are not real numbers: "),
        ([0.1, np.complex128(0.2j), 0.3], "direction has entries that are not real numbers: "),
        ([0.1, "a", 0.3], "direction has entries that are not real numbers: could not convert"),
    ],
)
def test_flow_derivative_refuses_bad_directions(dx, match):
    for bfd in corner_and_smooth_flow_derivatives():
        for apply in (bfd, bfd.crossing_orders):
            with pytest.raises(ValueError, match=re.escape(match)):
                apply(dx)
