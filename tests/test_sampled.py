import numpy as np
import pytest

from nsflow.bderiv import build_triangulation
from nsflow.core import all_permutations, all_sign_vectors
from nsflow.oracle import random_corner_model
from nsflow.sampled import (
    rho_minus,
    rho_plus,
    sampled_flow,
    time_to_impact_sampled,
)


@pytest.fixture()
def model():
    return random_corner_model(np.random.default_rng(100), 3, 5)


def test_through_corner_in_unit_time(model):
    np.testing.assert_allclose(
        sampled_flow(model, 1.0, rho_minus(model)), rho_plus(model), atol=1e-12
    )


def test_vertices_flow_to_their_images(model):
    tri = build_triangulation(model)
    for b in all_sign_vectors(3):
        np.testing.assert_allclose(
            sampled_flow(model, 1.0, tri.z_minus[b]), tri.z_plus[b], atol=1e-11
        )


def test_zero_time_is_identity(model):
    x0 = rho_minus(model) + 0.01
    np.testing.assert_array_equal(sampled_flow(model, 0.0, x0), x0)


def test_negative_time_rejected(model):
    with pytest.raises(ValueError):
        sampled_flow(model, -0.5, rho_minus(model))


def test_flow_semigroup_property(model):
    rng = np.random.default_rng(101)
    for _ in range(10):
        x0 = rho_minus(model) + 0.05 * rng.normal(size=5)
        s, t = rng.uniform(0.05, 0.8, size=2)
        whole = sampled_flow(model, s + t, x0)
        two_step = sampled_flow(model, t, sampled_flow(model, s, x0))
        np.testing.assert_allclose(whole, two_step, atol=1e-12)


def test_time1_flow_affine_on_each_simplex(model):
    # midpoint test: affine maps take midpoints to midpoints
    rng = np.random.default_rng(102)
    tri = build_triangulation(model)
    split_dim = 5 - 3
    from nsflow.bderiv import lineality_split

    kernel = lineality_split(model).basis_K
    for sigma in all_permutations(3):
        verts = [tri.z_minus[b] for b in tri.simplex(sigma)]
        w1 = rng.dirichlet(np.ones(len(verts)))
        w2 = rng.dirichlet(np.ones(len(verts)))
        p1 = sum(w * v for w, v in zip(w1, verts)) + kernel @ rng.normal(size=split_dim) * 0.1
        p2 = sum(w * v for w, v in zip(w2, verts)) + kernel @ rng.normal(size=split_dim) * 0.1
        mid = 0.5 * (p1 + p2)
        np.testing.assert_allclose(
            sampled_flow(model, 1.0, mid),
            0.5 * (sampled_flow(model, 1.0, p1) + sampled_flow(model, 1.0, p2)),
            atol=1e-11,
        )


def test_impact_times_at_vertices(model):
    tri = build_triangulation(model)
    for b in all_sign_vectors(3):
        tau = time_to_impact_sampled(model, tri.z_minus[b])
        for j in range(3):
            expected = 1.0 if b[j] == -1 else 0.0
            assert tau[j] == pytest.approx(expected, abs=1e-10)


def test_impact_order_follows_simplex(model):
    rng = np.random.default_rng(103)
    tri = build_triangulation(model)
    for sigma in all_permutations(3):
        verts = [tri.z_minus[b] for b in tri.simplex(sigma)]
        w = rng.dirichlet(np.ones(len(verts)))
        x = sum(wi * v for wi, v in zip(w, verts))
        tau = time_to_impact_sampled(model, x)
        ordered = [tau[j - 1] for j in sigma.order]
        assert all(a <= b + 1e-10 for a, b in zip(ordered, ordered[1:]))
        assert ordered[-1] < 1.0 + 1e-10


def test_impact_times_vanish_at_corner(model):
    np.testing.assert_allclose(time_to_impact_sampled(model, model.rho), 0.0, atol=1e-12)


def test_sampled_state_reads_consistent_orthant(model):
    from nsflow.sampled import SampledState

    st = SampledState.at(model, rho_minus(model))
    assert st.b.key() == "-" * 3
    st2 = SampledState.at(model, model.rho)  # on every plane: counts as crossed
    assert st2.b.key() == "+" * 3


def test_crossing_tie_smallest_index_first():
    # exactly simultaneous crossings: flow value is unaffected by flip order
    from nsflow.apps import pwc_linear_delta, pwc_model

    _, corner = pwc_model(3, pwc_linear_delta(3, 0.25))
    start = rho_minus(corner)  # hits all three planes at t = 1/2 exactly
    out = sampled_flow(corner, 1.0, start)
    np.testing.assert_allclose(out, rho_plus(corner), atol=1e-13)


# -- the shared plane-to-plane stepper -------------------------------------------


def test_wrong_shaped_point_rejected(model):
    from nsflow.sampled import SampledState

    with pytest.raises(ValueError, match="shape"):
        sampled_flow(model, 1.0, np.zeros(4))
    with pytest.raises(ValueError, match="shape"):
        time_to_impact_sampled(model, 0.5)
    with pytest.raises(ValueError, match="shape"):
        time_to_impact_sampled(model, np.zeros((5, 1)))
    with pytest.raises(ValueError, match="shape"):
        SampledState.at(model, np.zeros(7))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_point_rejected(model, bad):
    from nsflow.sampled import SampledState

    x = rho_minus(model)
    x[2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        sampled_flow(model, 1.0, x)
    with pytest.raises(ValueError, match="non-finite"):
        time_to_impact_sampled(model, x)
    with pytest.raises(ValueError, match="non-finite"):
        SampledState.at(model, x)


def test_nan_time_rejected(model):
    with pytest.raises(ValueError, match="t >= 0"):
        sampled_flow(model, float("nan"), rho_minus(model))


def test_degenerate_denominator_raised_mid_loop():
    # n = 17 is above the exhaustive-validation cap, so validation samples
    # orthants and misses the one interior orthant whose field runs backward
    # across surface 2; the stepper must catch it when it gets there.
    from nsflow.core import CornerModel
    from nsflow.errors import DegenerateDenominator

    n = 17
    broken = (1,) + (-1,) * (n - 1)

    def gamma(b):
        g = [1.0] * n
        if b.entries == broken:
            g[1] = -1.0
        return g

    m = CornerModel.create(np.zeros(n), np.eye(n), gamma, presumed_valid=True)
    m.require_valid()
    x0 = np.full(n, -0.5)
    x0[0] = -0.1  # surface 1 is crossed first, into the broken orthant
    with pytest.raises(DegenerateDenominator, match="eta_2"):
        sampled_flow(m, 1.0, x0)
    with pytest.raises(DegenerateDenominator, match="eta_2"):
        time_to_impact_sampled(m, x0)
    # stopping before the first crossing never reaches the broken orthant
    np.testing.assert_allclose(sampled_flow(m, 0.05, x0), x0 + 0.05)


def test_flowing_for_impact_time_lands_on_the_plane(model):
    from nsflow.sampled import PLANE_ATOL

    rng = np.random.default_rng(104)
    for _ in range(20):
        x = rho_minus(model) + 0.05 * rng.normal(size=5)
        tau = time_to_impact_sampled(model, x)
        assert np.all(tau > 0.0)
        for j in range(3):
            y = sampled_flow(model, tau[j], x)
            scale = max(1.0, float(np.linalg.norm(y - model.rho)))
            tol = PLANE_ATOL * max(1.0, float(np.linalg.norm(model.eta[j])) * scale)
            assert abs(float(model.eta[j] @ (y - model.rho))) <= tol


def test_exact_tie_crosses_both_surfaces_at_one_time():
    # surfaces 1 and 2 are reached at exactly t = 1/2.  The smallest index is
    # stepped; the other is then on its plane and flips in the same step, so
    # both report the same time and neither single-crossing orthant (+- or
    # -+) is ever visited.
    from nsflow.core import CornerModel

    seen = []

    def gamma(b):
        seen.append(b.key())
        return [1.0, 1.0]

    m = CornerModel.create(np.zeros(2), np.eye(2), gamma)
    m.require_valid()
    seen.clear()
    tau = time_to_impact_sampled(m, [-0.5, -0.5])
    assert tau.tolist() == [0.5, 0.5]
    assert seen == ["--"]
    seen.clear()
    np.testing.assert_array_equal(sampled_flow(m, 1.0, [-0.5, -0.5]), [0.5, 0.5])
    assert seen == ["--", "++"]
