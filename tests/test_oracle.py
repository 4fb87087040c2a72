import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg

from nsflow import oracle
from nsflow.apps import pwc_linear_delta, pwc_model
from nsflow.core import Permutation, all_sign_vectors
from nsflow.errors import CapExceeded
from nsflow.oracle import (
    OracleReport,
    enumerate_saltations,
    finite_difference_flow,
    lazy_corner_model,
    random_corner_model,
    random_linear_event_field,
    verify_b_against_sampled,
    verify_cone_partition,
    verify_fd_convergence,
)


def test_enumerate_counts_small_group():
    rng = np.random.default_rng(40)
    m = random_corner_model(rng, 2, 3)
    assert len(enumerate_saltations(m)) == 2
    m3 = random_corner_model(rng, 3, 3)
    assert len(enumerate_saltations(m3)) == 6


def test_enumerate_constant_gamma_all_identity():
    from nsflow.core import CornerModel

    table = {b: np.array([1.0, 2.0, 0.5]) for b in all_sign_vectors(2)}
    m = CornerModel.create(rho=np.zeros(3), eta=np.eye(3)[:2], gamma=table, f_min=0.5)
    for mat in enumerate_saltations(m).values():
        np.testing.assert_allclose(mat, np.eye(3), atol=1e-15)


def test_enumerate_pwc_linear_all_one_third():
    _, corner = pwc_model(2, pwc_linear_delta(2, 0.5))
    for mat in enumerate_saltations(corner).values():
        np.testing.assert_allclose(mat, np.eye(2) / 3.0, atol=1e-14)


def test_enumerate_cap():
    m = lazy_corner_model(0, 9, 9)
    with pytest.raises(CapExceeded):
        enumerate_saltations(m)


def test_random_model_needs_d_at_least_n():
    with pytest.raises(ValueError, match=r"^need d >= n, got n=3, d=2$"):
        random_corner_model(np.random.default_rng(0), 3, 2)


def test_random_model_generator_always_validates():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        d = n + int(rng.integers(0, 5))
        m = random_corner_model(rng, n, d)
        assert m.validation().ok


def test_lazy_model_has_no_table_and_validates():
    m = lazy_corner_model(7, 32, 34)
    assert m.table is None
    m.require_valid()
    rep = m.validation()
    assert not rep.exhaustive and rep.min_dot >= 0.1


def test_randomized_suite_sampled_oracle_zero_failures():
    # fixed seed 1234: 25 models spanning n in 1..6, d in n..n+4
    rng = np.random.default_rng(1234)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        d = n + int(rng.integers(0, 5))
        m = random_corner_model(rng, n, d)
        report = verify_b_against_sampled(m, 80, rng)
        assert report.ok, report.failures[:2]


def test_randomized_suite_cone_partition_zero_failures():
    rng = np.random.default_rng(4321)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        d = n + int(rng.integers(0, 5))
        m = random_corner_model(rng, n, d)
        report = verify_cone_partition(m, 60, rng)
        assert report.ok, report.failures[:2]


def test_cone_partition_reports_a_reversed_crossing_order(monkeypatch):
    real = oracle.b_evaluate

    def reversed_order(m, v):
        res = real(m, v)
        return dataclasses.replace(res, sigma=Permutation(res.sigma.order[::-1]))

    monkeypatch.setattr(oracle, "b_evaluate", reversed_order)
    m = random_corner_model(np.random.default_rng(47), 3, 4)
    report = verify_cone_partition(m, 20, np.random.default_rng(48))
    assert report.samples == 20
    # the impact-order check reports (direction, ordered times, crossing order)
    assert any(sorted(failure[2]) == [1, 2, 3] for failure in report.failures)


def test_fd_convergence_reports_a_scaled_derivative(monkeypatch):
    real = oracle.flow_bderivative

    def scaled(*args, **kwargs):
        bfd = real(*args, **kwargs)
        return lambda dx: 1.01 * bfd(dx)

    monkeypatch.setattr(oracle, "flow_bderivative", scaled)
    report = verify_fd_convergence(np.random.default_rng(45), num_fields=1, num_directions=8, steps=256)
    assert not report.ok and len(report.failures) == 1


def test_single_surface_models_match_saltation_single():
    from nsflow.bderiv import b_evaluate, saltation_single
    from nsflow.core import SignVector

    rng = np.random.default_rng(46)
    for _ in range(5):
        m = random_corner_model(rng, 1, int(rng.integers(1, 4)))
        M = saltation_single(
            m.gamma_vec(SignVector.of([-1])), m.gamma_vec(SignVector.of([1])), m.eta[0]
        )
        for _ in range(10):
            v = rng.normal(size=m.d)
            np.testing.assert_allclose(
                b_evaluate(m, v).delta_rho_plus, M @ v, rtol=1e-12, atol=1e-13
            )


def test_zero_direction_via_both_routes():
    rng = np.random.default_rng(47)
    m = random_corner_model(rng, 3, 4)
    report = verify_b_against_sampled(m, 0, rng)  # only the built-in zero probe
    assert report.ok and report.samples == 1


@pytest.mark.parametrize(
    "expected, actual",
    [
        ([np.nan, 1.0], [0.0, 1.0]),
        ([0.0, 1.0], [0.0, np.nan]),
        ([np.inf], [np.inf]),
        ([1.0, 2.0], [1.0, -np.inf]),
        ([np.inf, 0.0], [1.0, 0.0]),
    ],
)
def test_report_fails_non_finite_samples(expected, actual):
    report = OracleReport(name="t", tolerance=1e-12)
    report.record([0.0], np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    report.record([0.0], np.array(expected), np.array(actual))
    report.record([0.0], np.array([0.5]), np.array([0.5]))
    assert not report.ok and len(report.failures) == 1
    assert report.samples == 3
    assert report.max_abs_error == report.max_rel_error == np.inf


def test_report_errors_on_finite_samples():
    report = OracleReport(name="t", tolerance=0.2)
    report.record([0.0], np.array([4.0, 1.0]), np.array([3.5, 1.0]))
    report.record([0.0], np.array([0.2]), np.array([0.1]))
    assert report.ok and report.samples == 2
    assert report.max_abs_error == 0.5
    assert report.max_rel_error == 0.125
    report.record([0.0], np.array([0.0]), np.array([0.5]))
    assert len(report.failures) == 1 and report.max_rel_error == 0.5

def test_cone_partition_kernel_direction_value_agreement():
    rng = np.random.default_rng(42)
    m = random_corner_model(rng, 2, 5)
    from nsflow.bderiv import b_evaluate, lineality_split, saltation_matrix
    from nsflow.core import all_permutations

    xi = lineality_split(m).basis_K @ rng.normal(size=3)
    value = b_evaluate(m, xi).delta_rho_plus
    for sigma in all_permutations(2):
        np.testing.assert_allclose(saltation_matrix(m, sigma) @ xi, value, atol=1e-11)


def test_fd_quotient_smooth_linear_field():
    rng = np.random.default_rng(43)
    A = 0.4 * rng.normal(size=(3, 3))
    from nsflow.core import PiecewiseField, SmoothField

    sel = SmoothField(value=lambda x: A @ x, jacobian=lambda x: A.copy())
    field = PiecewiseField(
        d=3,
        n=1,
        rho=np.zeros(3),
        h=lambda x: np.array([x[0] - 1e9]),
        dh=lambda x: np.eye(3)[:1],
        selection=lambda b: sel,
    )
    x0 = rng.normal(size=3)
    dx = rng.normal(size=3)
    alphas = [1e-2, 1e-3]
    quotients = finite_difference_flow(field, x0, 1.0, dx, alphas, steps=128)
    exact = scipy.linalg.expm(A) @ dx
    # the flow is linear in the state, so the quotient is exact up to
    # integrator noise; the first-order bound holds with a huge margin
    for alpha, q in zip(alphas, quotients):
        assert np.linalg.norm(q - exact) < alpha * np.linalg.norm(dx)


def test_fd_quotient_pwc_first_order():
    field, corner = pwc_model(2, pwc_linear_delta(2, 0.5))
    from nsflow.sampled import rho_minus

    x0 = rho_minus(corner)
    rng = np.random.default_rng(44)
    dx = rng.normal(size=2)
    alphas = [1e-2, 1e-3, 1e-4]
    quotients = finite_difference_flow(field, x0, 1.0, dx, alphas, steps=512)
    exact = dx / 3.0
    # the flow here is exactly piecewise affine, so quotients hit the
    # derivative up to event-localization noise; O(alpha) is an easy bound
    for alpha, q in zip(alphas, quotients):
        err = np.linalg.norm(q - exact)
        assert err <= 10.0 * alpha * np.linalg.norm(dx)
        assert err <= 1e-6



def test_fd_block_integrates_the_base_once_and_matches_each_row(monkeypatch):
    import nsflow.oracle as oracle

    field, corner = pwc_model(2, pwc_linear_delta(2, 0.5))
    from nsflow.sampled import rho_minus

    x0 = rho_minus(corner)
    dxs = np.random.default_rng(46).normal(size=(3, 2))
    alphas = [1e-2, 1e-3]
    rows = [finite_difference_flow(field, x0, 1.0, dx, alphas, steps=64) for dx in dxs]
    calls = []
    real = oracle.integrate
    monkeypatch.setattr(oracle, "integrate", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    block = finite_difference_flow(field, x0, 1.0, dxs, alphas, steps=64)
    assert len(calls) == 1 + len(dxs) * len(alphas)
    assert [[q.tobytes() for q in row] for row in block] == [[q.tobytes() for q in row] for row in rows]

def test_fd_convergence_suite():
    rng = np.random.default_rng(45)
    report = verify_fd_convergence(rng, num_fields=2, num_directions=8, steps=256)
    assert report.ok, report.failures


@pytest.mark.parametrize("alpha", [0.0, -1e-3, float("nan"), float("inf")])
def test_finite_difference_step_that_is_not_positive_and_finite_is_refused(alpha):
    # a zero step gave all-NaN quotients, and a non-finite one a refusal naming x0
    field, _ = pwc_model(2, pwc_linear_delta(2, 0.5))
    calls = []
    spy = dataclasses.replace(field, h=lambda x: calls.append(x) or field.h(x))
    with pytest.raises(ValueError, match=rf"^alphas must be positive and finite, got {re.escape(str([1e-3, alpha]))}$"):
        finite_difference_flow(spy, [-0.6, -0.6], 1.0, [0.1, 0.1], [1e-3, alpha], steps=16)
    assert calls == []  # refused before any integration
