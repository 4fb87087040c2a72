import dataclasses
import hashlib
import itertools
import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from nsflow.apps import preset, pwc_linear_delta, pwc_model
from nsflow.core import PiecewiseField, SignVector, SmoothField
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
    table = {SignVector((-1,)): np.array([c1]), SignVector((1,)): np.array([c2])}

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
        g = np.asarray(f_by_sign[b.entries[0]], dtype=float)
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
    # only a direct call can hand the bisection a step with no sign change:
    # h = x goes from -1 to -0.5 over the step
    field = single_surface_1d_field(1.0, 1.0)
    f = field.selection(SignVector((-1,))).value
    with pytest.raises(StepTooLarge, match="^event function 1 does not bracket a crossing within the step$"):
        _bisect_crossing(f, field, np.array([-1.0]), 0.5, 1, 0.0, -1.0, -0.5, np.array([-0.5]))


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
        ([-0.6, -0.6], -1.0, "finite t"),
        ([-0.6, -0.6, 0.0], 1.0, "x0 has shape"),
        ([[-0.6, -0.6]], 1.0, "shape"),
    ],
)
def test_bad_input_rejected(x0, t, match):
    field, _ = pwc_model(2, pwc_linear_delta(2, 0.5))
    with pytest.raises(ValueError, match=match):
        integrate(field, x0, t, steps=16)


@pytest.mark.parametrize(
    "steps", [0, -4, np.inf, np.nan, 2.5, True], ids=["0", "-4", "inf", "nan", "2.5", "True"]
)
def test_non_positive_steps_rejected(steps):
    # steps <= 0 used to take one RK4 step over the whole horizon; an infinite
    # steps never returned (a step of t/inf = 0), a NaN ended in an error on h
    # at t = nan, and 2.5 and True were taken.  h raises, so a steps let
    # through fails at once instead of hanging
    field, _ = pwc_model(2, pwc_linear_delta(2, 0.5))

    def h(x):
        raise AssertionError("h was read before steps was checked")

    with pytest.raises(ValueError, match="steps >= 1"):
        integrate(dataclasses.replace(field, h=h), [-0.6, -0.6], 1.0, steps=steps)


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
    # drawn in lexicographic order of the orthants
    orthants = [SignVector(s) for s in itertools.product((-1, 1), repeat=2)]
    gammas = {b: np.array([1.0, 1.0, 0.0]) + 0.2 * rng.normal(size=3) for b in orthants}
    for g in gammas.values():
        g[:2] = np.abs(g[:2]) + 0.5
    jacs = {b: 0.1 * rng.normal(size=(3, 3)) for b in orthants}

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
    for b in (SignVector(s) for s in itertools.product((-1, 1), repeat=4)):
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
        ([1.0, 0.0], "shape (2,), expected (3,)"),
        ([1.0, 0.0, 0.0, 0.0], "shape (4,), expected (3,)"),
        ([[1.0, 0.0, 0.0]], "shape (1, 3), expected (3,)"),
        (1.0, "shape (), expected (3,)"),
        (np.ones((2, 1)), "shape (2, 1), expected (3,)"),
    ],
)
def test_flow_derivative_refuses_bad_directions(dx, match):
    for bfd in corner_and_smooth_flow_derivatives():
        for apply in (bfd, bfd.crossing_orders):
            with pytest.raises(ValueError, match=re.escape(match)):
                apply(dx)


@pytest.mark.parametrize("values", [1, 3], ids=["short", "long"])
def test_integrate_refuses_event_values_without_one_per_surface(values):
    field, x0, t = random_linear_event_field(np.random.default_rng(70))
    bad = dataclasses.replace(field, h=lambda x: np.resize(field.h(x), values))
    message = rf"^h at t = 0 has shape \({values},\), expected \(2,\)$"
    with pytest.raises(ValueError, match=message):
        integrate(bad, x0, t, steps=16)


def h_by_call(field, change):
    """``field`` whose event function returns ``change(k, h(x))`` on its k-th call."""
    calls = itertools.count(1)
    return dataclasses.replace(field, h=lambda x: change(next(calls), field.h(x)))


def nan_on_call(field, call, value=np.nan):
    """``field`` whose event function h is ``value`` on its ``call``-th call only."""
    return h_by_call(field, lambda k, v: np.full_like(v, value) if k == call else v)


INFINITE = "its crossing cannot be localized"


@pytest.mark.parametrize(
    "call, value, message",
    [
        (1, np.nan, "h is NaN on surface(s) [1, 2] at t = 0; a NaN has no side"),
        (2, np.nan, "h is NaN on surface(s) [1, 2] at t = 0.0140625; a NaN has no side"),
        (31, np.nan, "h is NaN on surface(s) [1, 2] at t = 0.400781; a NaN has no side"),
        (1, np.inf, f"h is infinite on surface(s) [1, 2] at t = 0; {INFINITE}"),
        (2, np.inf, f"h is infinite on surface(s) [1, 2] at t = 0.0140625; {INFINITE}"),
        (31, np.inf, f"h is infinite on surface(s) [1, 2] at t = 0.400781; {INFINITE}"),
        (1, -np.inf, f"h is infinite on surface(s) [1, 2] at t = 0; {INFINITE}"),
        (2, -np.inf, f"h is infinite on surface(s) [1, 2] at t = 0.0140625; {INFINITE}"),
        (31, -np.inf, f"h is infinite on surface(s) [1, 2] at t = 0.400781; {INFINITE}"),
    ],
    ids=[
        "h(x0)", "step-end", "bisection",
        "h(x0)-plus-inf", "step-end-plus-inf", "bisection-plus-inf",
        "h(x0)-minus-inf", "step-end-minus-inf", "bisection-minus-inf",
    ],
)
def test_integrate_refuses_a_nan_event_value(call, value, message):
    # 64 steps of 0.0140625: the corner at t = 0.4 is in step 29, read by h
    # call 30; the bisection of surface 1 takes its bracket from that step and
    # reads its first midpoint, 28.5 steps in, in call 31.  A NaN lies on
    # neither side of its surface and an infinite value has no crossing to
    # bisect, so each of the three reads refuses both, on every surface.
    field, x0, t = random_linear_event_field(np.random.default_rng(70))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        integrate(nan_on_call(field, call, value), x0, t, steps=64)


@pytest.mark.parametrize("call, t", [(2, "0.0140625"), (31, "0.400781")], ids=["step-end", "bisection"])
def test_integrate_refuses_a_complex_event_value(call, t):
    # a float cast kept the real part, with only a ComplexWarning
    field, x0, t_end = random_linear_event_field(np.random.default_rng(70))
    bad = h_by_call(field, lambda k, v: v + 1j if k == call else v)
    with pytest.raises(ValueError, match=f"^h at t = {re.escape(t)} has entries that are not real numbers: "):
        integrate(bad, x0, t_end, steps=64)


@pytest.mark.parametrize(
    "change, values", [(lambda v: v[:1], 1), (lambda v: np.append(v, 1.0), 3)], ids=["short", "long"]
)
def test_integrate_refuses_event_values_without_one_per_surface_after_x0(change, values):
    # h truncated to its first value from its 4th call on once dropped
    # surface 2, so the corner became a single crossing of surface 1 and
    # x_end moved, with no error; a value appended ended in a bracket error
    # that named surface 3, which the field does not have
    field, x0, t = random_linear_event_field(np.random.default_rng(0))
    bad = h_by_call(field, lambda k, v: change(v) if k >= 4 else v)
    message = rf"^h at t = 0\.0421875 has shape \({values},\), expected \(2,\)$"
    with pytest.raises(ValueError, match=message):
        integrate(bad, x0, t, steps=64)


def test_an_infinite_event_value_past_the_surface_is_refused():
    # h = x - 0.5 crosses at t = 0.5 and the speed goes from 1 to 2; an
    # infinite h past the surface once passed the clamp band as "on the
    # surface", and the crossing was dropped without a word
    field = single_surface_1d_field(1.0, 2.0)
    finite = dataclasses.replace(field, h=lambda x: np.array([x[0] - 0.5]))
    res = integrate(finite, [0.0], 1.0, steps=16)
    assert [e.time for e in res.events] == [0.5] and res.x_end.tolist() == [1.5]
    infinite = dataclasses.replace(field, h=lambda x: np.array([x[0] - 0.5 if x[0] <= 0.5 else np.inf]))
    message = f"h is infinite on surface(s) [1] at t = 0.5625; {INFINITE}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        integrate(infinite, [0.0], 1.0, steps=16)


COMPLEX_DH_READS = {
    "integrate": lambda field, x0, t: integrate(field, x0, t, steps=64),
    "corner_model": lambda field, x0, t: field.corner_model(field.rho, 0),
}
BAD_DH = {
    "complex": (lambda dh: dh + 1j, r"^dh has entries that are not real numbers: "),
    "one-row": (lambda dh: dh[:1], r"^dh has shape \(1, 3\), expected \(2, 3\)$"),
    "flat": (np.ravel, r"^dh has shape \(6,\), expected \(2, 3\)$"),
    "fourth-column": (lambda dh: np.hstack([dh, np.ones((2, 1))]), r"^dh has shape \(2, 4\), expected \(2, 3\)$"),
    "extra-row": (lambda dh: np.vstack([dh, dh[:1]]), r"^dh has shape \(3, 3\), expected \(2, 3\)$"),
}


@pytest.mark.parametrize("bad", BAD_DH)
@pytest.mark.parametrize("read", COMPLEX_DH_READS)
def test_complex_normals_are_refused(read, bad):
    # a float cast kept the real parts, and flow_bderivative gave the image of
    # the true field with only two ComplexWarnings.  One row ended in an
    # IndexError in both reads; flat, a matmul error in integrate and "eta has
    # shape (2,)"; a fourth column, a matmul error in integrate and "rho has
    # length 3, expected 4"; an extra row was taken by both, with the same B
    field, x0, t = random_linear_event_field(np.random.default_rng(0))
    change, message = BAD_DH[bad]
    with pytest.raises(ValueError, match=message):
        COMPLEX_DH_READS[read](dataclasses.replace(field, dh=lambda x: change(field.dh(x))), x0, t)


def test_a_nan_normal_speed_is_tangential():
    field = single_surface_1d_field(1.0, 2.0)
    nan_dh = dataclasses.replace(
        field, h=lambda x: np.array([x[0] - 0.5]), dh=lambda x: np.full((1, 1), np.nan)
    )
    with pytest.raises(TangentialCrossing, match=r"^surface 1 crossed with normal speed nan at t = 0\.5$"):
        integrate(nan_dh, [0.0], 1.0, steps=16)


# -- orthant masks along a trajectory ------------------------------------------------


def stage_digest(bfd):
    """SHA-256 over each stage's kind and bytes: a linear stage's matrix, a
    corner stage's rho, eta and table."""
    digest = hashlib.sha256()
    for kind, payload in bfd.stages:
        digest.update(kind.encode())
        arrays = [payload] if kind == "linear" else [payload.rho, payload.eta, payload.table]
        for a in arrays:
            digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def biped_trajectory():
    return preset("biped-xor")[0], np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]), 2.0, 200


def random_linear_trajectory():
    return (*random_linear_event_field(np.random.default_rng(0)), 512)


# The stage digests of flow_bderivative on each trajectory, as the stages were
# when segments named their orthant by SignVector.  The random-linear one
# holds only on an AVX-512 OpenBLAS kernel, whose BLAS draws the field's data.
TRAJECTORIES = {
    "biped-xor": (biped_trajectory, "3a433b79a478d4ed2a2218881501c59c40b0598f2d102119547169f4d8ec3ffa"),
    "random-linear": (random_linear_trajectory, "1abbfd793d093db433ea3c9d63e4456b4960436f64bf5c3b4376f574c762500f"),
}


@pytest.mark.parametrize("case", TRAJECTORIES)
def test_each_segment_names_its_orthant_by_the_mask_of_h(case):
    field, x0, t, steps = TRAJECTORIES[case][0]()
    res = integrate(field, x0, t, steps=steps)
    assert len(res.segments) == 2 and res.events[0].is_corner
    for seg in res.segments:
        assert type(seg.active_orthant) is int
        interior = seg.states[1:-1]
        assert len(interior) > 0
        for x in interior:  # bit j set where h_j >= 0
            assert seg.active_orthant == sum(1 << j for j, v in enumerate(field.h(x)) if v >= 0.0)


@pytest.mark.parametrize("case", TRAJECTORIES)
def test_trajectory_stage_digests_are_pinned(case):
    make, pinned = TRAJECTORIES[case]
    field, x0, t, steps = make()
    assert stage_digest(flow_bderivative(field, x0, t, steps=steps)) == pinned


# -- integrate's own output ----------------------------------------------------


def integration_digest(res):
    """SHA-256 over each segment's times, states and mask, then over each
    event's time, surfaces and state."""
    digest = hashlib.sha256()
    for seg in res.segments:
        digest.update(seg.times.tobytes() + seg.states.tobytes() + repr(seg.active_orthant).encode())
    for event in res.events:
        digest.update(repr((event.time, event.surfaces)).encode() + event.state.tobytes())
    return digest.hexdigest()


# integrate's segments and events, pinned on fields whose data no BLAS call
# draws, so the digests hold on any kernel.  pwc-linear at d = 3 starts 1e-12
# below surface 1: its first step takes that crossing at t = 0 (alpha = 0),
# and a corner of surfaces 2 and 3 follows.  The near-simultaneous case
# crosses surface 2 6.7e-8 after surface 1, just outside the tolerance.
INTEGRATIONS = {
    "biped-xor": (("biped-xor", {}), [0.0, 1.0, 0.0, 0.0, 0.0, 0.0], 2.0, 200,
        "5e5742830db8fe87cf149bec7f3b965f7fc50ef8e0409cd46f71b8025f788927"),
    "biped-uniform": (("biped-uniform", {}), [0.0, 1.0, 0.1, 0.0, 0.0, 0.0], 2.1, 256,
        "9a4c295f2560eab0ea48cb6d2923734690c800d463d7da202d179a73aa15c374"),
    "pwc-seed-3": (("pwc", {"seed": 3}), [-0.5, -0.3], 1.0, 64,
        "e7499e337bfe55d8b097902b05ec7f97903bf7b12e0f389c52bc99c27984c930"),
    "pwc-linear-start-on-surface": (("pwc-linear", {"d": 3}), [-1e-12, -0.5, -0.5], 1.0, 9,
        "2ec55599bf97ec87c6307ecd11c3e34c95616c809a2eff24d0709f3cf3bc9d39"),
    "near-simultaneous": (("pwc-linear", {}), [-0.5, -0.5 - 1e-7], 1.0, 8,
        "0c506c4d85ec5f8fc14a1a6975934899a0b1df78333e813be973eccc2ad65b3c"),
}


@pytest.mark.parametrize("case", INTEGRATIONS)
def test_integrate_output_is_pinned(case):
    (name, kwargs), x0, t, steps, pinned = INTEGRATIONS[case]
    field = preset(name, **kwargs)[0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = integrate(field, x0, t, steps=steps)
    near = [w for w in caught if "just outside the simultaneity tolerance" in str(w.message)]
    assert len(near) == (case == "near-simultaneous")
    # the warning points at the line that called integrate
    assert all(w.category is RuntimeWarning and w.filename == __file__ for w in near)
    assert integration_digest(res) == pinned
