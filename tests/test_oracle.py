import dataclasses
import math
import re
import sys

import numpy as np
import pytest
import scipy.linalg

from nsflow import oracle
from nsflow.apps import pwc_linear_delta, pwc_model
from nsflow.bderiv import b_evaluate
from nsflow.core import CornerModel, Permutation, SignVector, _bit_reversal
from nsflow.errors import CapExceeded, NotEventSelected
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

    m = CornerModel(np.zeros(3), np.eye(3)[:2], table=[[1.0, 2.0, 0.5]] * 4, f_min=0.5)
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
    with pytest.raises(ValueError, match=r"^d must be an int >= n = 3, got 2$"):
        random_corner_model(np.random.default_rng(0), 3, 2)


@pytest.mark.parametrize(
    "generator", ["random_corner_model", "lazy_corner_model", "random_linear_event_field"]
)
@pytest.mark.parametrize(
    "n, d, match",
    [(3, 2, r"^d must be an int >= n = 3, got 2$"), (0, 2, r"^n must be an int >= 1, got 0$"),
     (-1, 2, r"^n must be an int >= 1, got -1$")],
)
def test_generators_refuse_sizes_they_cannot_draw_before_any_draw(generator, n, d, match):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    make = {
        "random_corner_model": lambda: random_corner_model(rng, n, d),
        "lazy_corner_model": lambda: lazy_corner_model(0, n, d),
        "random_linear_event_field": lambda: random_linear_event_field(rng, n=n, d=d),
    }[generator]
    with pytest.raises(ValueError, match=match):
        make()
    assert rng.bit_generator.state == state


def test_random_model_generator_always_validates():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        d = n + int(rng.integers(0, 5))
        m = random_corner_model(rng, n, d)
        assert m.validation().ok


def _per_orthant_corner_model(rng, n, d):
    # the generator's draws written as one uniform and one normal call per
    # orthant in lexicographic order, each row stored by its mask as it is drawn
    eta = oracle._unit_normals(rng, n, d, 0.15)
    gram_inv = np.linalg.inv(eta @ eta.T)
    lift = eta.T @ gram_inv
    kernel = np.linalg.svd(eta)[2][n:].T
    bumps = np.empty((1 << n, n))
    weights = np.empty((1 << n, d - n))
    for mask in _bit_reversal(n).tolist():
        bumps[mask] = rng.uniform(-0.9, 2.0, size=n)
        if d > n:
            weights[mask] = rng.normal(scale=oracle.KERNEL_SCALE, size=d - n)
    table = np.matmul(lift, (1.0 + bumps)[:, :, None])[..., 0]
    if d > n:
        table = table + np.matmul(kernel, weights[:, :, None])[..., 0]
    return CornerModel(rng.normal(scale=0.5, size=d), eta, table=table)


def test_random_corner_model_draws_are_the_per_orthant_draws():
    # both sides make the same BLAS calls in one process, so the bits agree on
    # every kernel; a numpy whose uniform() or normal() rounds otherwise than
    # low + range * random() and scale * standard_normal() would fail here
    for seed in (5, 2026):
        for n, d in [(n, d) for n in range(1, 9) for d in range(n, n + 4)]:
            rng, ref_rng = np.random.default_rng([seed, n, d]), np.random.default_rng([seed, n, d])
            m, ref = random_corner_model(rng, n, d), _per_orthant_corner_model(ref_rng, n, d)
            for name in ("rho", "eta", "table"):
                got, want = getattr(m, name), getattr(ref, name)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (n, d, name)
            assert rng.random() == ref_rng.random()


def test_random_corner_model_refuses_more_surfaces_than_the_cap_before_any_draw():
    # 2**17 rows took 0.5 s and 124 MiB, and each more surface doubles that
    rng = np.random.default_rng(0)
    with pytest.raises(CapExceeded, match=r"^2\*\*17 orthants refused: a table of more than 2\*\*16 rows$"):
        random_corner_model(rng, 17, 17)
    assert rng.random() == np.random.default_rng(0).random()


def test_lazy_model_has_no_table_and_validates():
    m = lazy_corner_model(7, 32, 34)
    assert m.table is None
    m.require_valid()
    rep = m.validation()
    assert not rep.exhaustive and rep.min_dot >= 0.1


@pytest.mark.parametrize("n", [63, 64, 65])
def test_lazy_model_validates_and_matches_the_sampled_oracle_across_the_64_bit_masks(n):
    # at n = 64 the seed-0 sample masks lie on both sides of 2**63, so neither
    # an int64 nor a float64 array holds them all
    m = lazy_corner_model(300 + n, n, n + 2)
    m.require_valid()
    assert (m.validation().exhaustive, m.validation().orthants_checked) == (False, 64)
    report = verify_b_against_sampled(m, 5, np.random.default_rng(n))
    assert report.ok and report.samples == 6, report.failures[:2]


def test_a_lazy_gamma_is_called_with_the_int_mask_beyond_63_bits():
    # validation's seed-0 samples at n = 64 lie on both sides of 2**63, B ends
    # on the all-plus mask 2**64 - 1, and the sampled oracle reads the masks it
    # packs from its crossed-surface blocks; every reader passes a Python int
    n = 64
    m = lazy_corner_model(300 + n, n, n + 2)
    masks = []
    spy = CornerModel.create(
        m.rho, m.eta, lambda mask: masks.append(mask) or m.gamma(mask), presumed_valid=True
    )
    spy.require_valid()
    assert any(mask >= 1 << 63 for mask in masks) and any(mask < 1 << 63 for mask in masks)
    v = np.random.default_rng(n).normal(size=m.d)
    assert b_evaluate(spy, v).delta_rho_plus.tobytes() == b_evaluate(m, v).delta_rho_plus.tobytes()
    assert masks[-1] == (1 << n) - 1
    report = verify_b_against_sampled(spy, 1, np.random.default_rng(n), tol=16 * n * 2.0**-53)
    assert report.ok, report.failures
    assert {type(mask) for mask in masks} == {int}


# the sampled oracle's disagreement with B grows with the n crossings:
# tolerance c n u with c = 16 and u = 2**-53.  The relative errors read
# c = 0.25 (n = 32) and 0.98 (n = 128) on these seeds, and at worst 0.98 and
# 3.8 over lazy seeds 1000-1039 with generator seeds 0-39
@pytest.mark.parametrize("n, k", [(32, 5), (128, 2)])
def test_lazy_model_matches_the_sampled_oracle_where_the_pieces_cannot_be_formed(n, k):
    m = lazy_corner_model(300 + n, n, n + 2)
    report = verify_b_against_sampled(m, k, np.random.default_rng(n), tol=16 * n * 2.0**-53)
    assert report.ok and report.samples == k + 1, (report.max_rel_error, report.failures[:2])


@pytest.mark.parametrize("verify", [oracle.verify_b_against_sampled, oracle.verify_cone_partition])
def test_verifiers_refuse_a_model_that_is_not_event_selected(verify):
    # the kernels each verifier calls validate the model; the verifier inherits their refusal
    m = CornerModel.create(rho=[0.0, 0.0], eta=np.eye(2), gamma=lambda mask: [-1.0, 1.0])
    with pytest.raises(NotEventSelected, match="^normal-dot -1 below floor 1e-09 at surface 1, orthant --$"):
        verify(m, 5, np.random.default_rng(0))


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
    report = verify_fd_convergence(np.random.default_rng(45), num_fields=1, num_directions=8)
    assert not report.ok and len(report.failures) == 1


def test_single_surface_models_match_saltation_single():
    from nsflow.bderiv import b_evaluate, saltation_single
    from nsflow.core import SignVector

    rng = np.random.default_rng(46)
    for _ in range(5):
        m = random_corner_model(rng, 1, int(rng.integers(1, 4)))
        M = saltation_single(
            m.gamma_vec(SignVector((-1,))), m.gamma_vec(SignVector((1,))), m.eta[0]
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


def test_a_report_that_checked_nothing_is_not_ok():
    # both read "ok": true with "samples": 0
    m = random_corner_model(np.random.default_rng(47), 3, 4)
    cones = verify_cone_partition(m, 0, np.random.default_rng(48))
    fd = verify_fd_convergence(np.random.default_rng(45), num_fields=0)
    for report in (cones, fd):
        assert (report.samples, report.failures, report.ok) == (0, [], False)
        assert report.to_json_dict()["ok"] is False
    one = OracleReport(name="t", tolerance=0.0)
    one.record([[0.0]], np.zeros((1, 1)), np.zeros((1, 1)))
    assert one.ok


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
    report.record([[0.0]], np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]))
    report.record([[0.0]], np.array([expected]), np.array([actual]))
    report.record([[0.0]], np.array([[0.5]]), np.array([[0.5]]))
    assert not report.ok and len(report.failures) == 1
    assert report.samples == 3
    assert report.max_abs_error == report.max_rel_error == np.inf


def test_report_errors_on_finite_samples():
    report = OracleReport(name="t", tolerance=0.2)
    report.record([[0.0]], np.array([[4.0, 1.0]]), np.array([[3.5, 1.0]]))
    report.record([[0.0]], np.array([[0.2]]), np.array([[0.1]]))
    assert report.ok and report.samples == 2
    assert report.max_abs_error == 0.5
    assert report.max_rel_error == 0.125
    report.record([[0.0]], np.array([[0.0]]), np.array([[0.5]]))
    assert len(report.failures) == 1 and report.max_rel_error == 0.5


def per_sample_report(tolerance, blocks):
    """The report that the rule applied sample by sample, on Python floats, gives."""
    report = OracleReport(name="t", tolerance=tolerance)
    for inputs, expected, actual in blocks:
        for inp, e_row, a_row in zip(inputs, expected, actual, strict=True):
            exp, act = [float(e) for e in e_row], [float(a) for a in a_row]
            if all(map(math.isfinite, exp)) and all(map(math.isfinite, act)):
                abs_err = max((abs(e - a) for e, a in zip(exp, act, strict=True)), default=0.0)
                rel_err = abs_err / max(1.0, *map(abs, exp), *map(abs, act))
            else:
                abs_err = rel_err = math.inf
            report.samples += 1
            report.max_abs_error = max(report.max_abs_error, abs_err)
            report.max_rel_error = max(report.max_rel_error, rel_err)
            if not rel_err <= tolerance:
                report.failures.append(([float(x) for x in inp], exp, act))
    return report


def test_block_rule_is_the_per_sample_rule():
    # plain IEEE arithmetic on given floats, no BLAS: the same bits on every kernel
    rng = np.random.default_rng(49)
    near = rng.normal(size=(6, 3))
    nan, inf = math.nan, math.inf
    blocks = [
        (rng.normal(size=(6, 2)), near, near + rng.normal(scale=1e-9, size=(6, 3))),
        (
            [[0.0], [1.0], [2.0], [3.0], [4.0], [5.0], [6.0]],
            [[nan, 1.0], [inf, 0.0], [1.0, 2.0], [1e308, 0.0], [4.0, 1.0], [nan, nan], [-inf, 0.5]],
            [[0.0, 1.0], [inf, 0.0], [1.0, -inf], [-1e308, 0.0], [3.5, 1.0], [nan, nan], [-inf, 0.5]],
        ),
        (np.empty((0, 1)), np.empty((0, 4)), np.empty((0, 4))),  # an empty block
        ([[7.0]], [[0.2, 0.4, 8.0, -1.0]], [[0.1, 0.4, 8.0, -1.0]]),
    ]
    # the row [4.0, 1.0] against [3.5, 1.0] is at the tolerance, 0.5 / 4
    tolerance = 0.125
    report = OracleReport(name="t", tolerance=tolerance)
    for block in blocks:
        report.record(*block)
    reference = per_sample_report(tolerance, blocks)
    assert report.samples == reference.samples == 14
    assert report.max_abs_error.hex() == reference.max_abs_error.hex() == "inf"
    assert report.max_rel_error.hex() == reference.max_rel_error.hex() == "inf"
    assert repr(report.failures) == repr(reference.failures)  # repr: a NaN is unequal to itself
    assert [f[0] for f in report.failures] == [[0.0], [1.0], [2.0], [3.0], [5.0], [6.0]]
    # without the non-finite and overflowing rows the maxima are finite, and still bitwise equal
    finite = [blocks[0], blocks[2], blocks[3], ([[4.0]], [[4.0, 1.0]], [[3.5, 1.0]])]
    report = OracleReport(name="t", tolerance=tolerance)
    for block in finite:
        report.record(*block)
    reference = per_sample_report(tolerance, finite)
    assert (report.samples, report.failures) == (reference.samples, reference.failures) == (8, [])
    assert report.max_abs_error.hex() == reference.max_abs_error.hex() == (0.5).hex()
    assert report.max_rel_error.hex() == reference.max_rel_error.hex() == (0.125).hex()


def test_block_rule_refuses_blocks_of_two_shapes():
    report = OracleReport(name="t", tolerance=0.1)
    with pytest.raises(ValueError):
        report.record([[0.0]], np.zeros((1, 2)), np.zeros((1, 1)))
    assert report.samples == 0


VERIFIER_COUNTS = pytest.mark.parametrize(
    "name, least, verify",
    [
        ("num_samples", 0, lambda rng, v: verify_b_against_sampled(random_corner_model(rng, 2, 3), v, rng)),
        ("num_samples", 0, lambda rng, v: verify_cone_partition(random_corner_model(rng, 2, 3), v, rng)),
        ("num_fields", 0, lambda rng, v: verify_fd_convergence(rng, num_fields=v, num_directions=2)),
        ("num_directions", 1, lambda rng, v: verify_fd_convergence(rng, num_fields=1, num_directions=v)),
    ],
    ids=["sampled-oracle", "cone-partition", "fd-fields", "fd-directions"],
)


@VERIFIER_COUNTS
@pytest.mark.parametrize("bad", [-1, 2.5], ids=["minus-one", "float"])
def test_verifier_counts_are_ints_of_at_least_their_floor(name, least, verify, bad):
    # -1 ended in numpy's 'negative dimensions', 2.5 in a bare TypeError, and
    # num_fields=-1 gave an empty report
    for value in (bad, least - 1):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be an int in {least}..{sys.maxsize}, got {value!r}')}$"):
            verify(np.random.default_rng(50), value)

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


def test_fd_convergence_refuses_no_directions():
    # zero directions took medians of empty arrays and reported NaN medians
    rng = np.random.default_rng(45)
    with pytest.raises(ValueError, match=rf"^num_directions must be an int in 1\.\.{sys.maxsize}, got 0$"):
        verify_fd_convergence(rng, num_fields=1, num_directions=0)
    assert rng.bit_generator.state == np.random.default_rng(45).bit_generator.state


def test_fd_convergence_suite():
    rng = np.random.default_rng(45)
    report = verify_fd_convergence(rng, num_fields=2, num_directions=8)
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
