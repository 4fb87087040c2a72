import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from conftest import lazy_copy, orthant_keys

from nsflow.apps import pwc_linear_delta, pwc_model
from nsflow.bderiv import build_triangulation
from nsflow.core import CornerModel, all_permutations
from nsflow.errors import DegenerateDenominator, NotEventSelected
from nsflow.oracle import lazy_corner_model, random_corner_model, safe_direction_scale
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
    for mask in range(8):
        np.testing.assert_allclose(
            sampled_flow(model, 1.0, tri.z_minus[mask]), tri.z_plus[mask], atol=1e-11
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
    for mask in range(8):
        tau = time_to_impact_sampled(model, tri.z_minus[mask])
        for j in range(3):
            expected = 0.0 if mask >> j & 1 else 1.0
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


def test_impact_times_are_positive_before_the_corner(model):
    # rho_minus lies strictly inside the all-minus orthant, so every plane is ahead
    assert (time_to_impact_sampled(model, rho_minus(model)) > 0.0).all()


def test_crossing_tie_smallest_index_first():
    # exactly simultaneous crossings: flow value is unaffected by flip order
    from nsflow.apps import pwc_linear_delta, pwc_model

    _, corner = pwc_model(3, pwc_linear_delta(3, 0.25))
    start = rho_minus(corner)  # hits all three planes at t = 1/2 exactly
    out = sampled_flow(corner, 1.0, start)
    np.testing.assert_allclose(out, rho_plus(corner), atol=1e-13)


# -- the shared plane-to-plane stepper -------------------------------------------


def test_wrong_shaped_point_rejected(model):
    with pytest.raises(ValueError, match=r"^a point has shape \(4,\), expected \(5,\) or \(\*, 5\)$"):
        sampled_flow(model, 1.0, np.zeros(4))
    with pytest.raises(ValueError, match="shape"):
        time_to_impact_sampled(model, 0.5)
    with pytest.raises(ValueError, match="shape"):
        time_to_impact_sampled(model, np.zeros((5, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_point_rejected(model, bad):
    x = rho_minus(model)
    x[2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        sampled_flow(model, 1.0, x)
    with pytest.raises(ValueError, match="non-finite"):
        time_to_impact_sampled(model, x)


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_nan_time_rejected(model, t):
    with pytest.raises(ValueError, match="t >= 0"):
        sampled_flow(model, t, rho_minus(model))


def test_degenerate_denominator_raised_mid_loop():
    # n = 17 is above the exhaustive-validation cap, so validation samples
    # orthants and misses the one interior orthant whose field runs backward
    # across surface 2; the stepper must catch it when it gets there.
    from nsflow.core import CornerModel
    from nsflow.errors import DegenerateDenominator

    n = 17
    broken = 1  # the orthant +-...-: surface 1 crossed

    def gamma(mask):
        g = [1.0] * n
        if mask == broken:
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

    def gamma(mask):
        seen.append(mask)
        return [1.0, 1.0]

    m = CornerModel.create(np.zeros(2), np.eye(2), gamma)
    m.require_valid()
    seen.clear()
    tau = time_to_impact_sampled(m, [-0.5, -0.5])
    assert tau.tolist() == [0.5, 0.5]
    assert seen == [0]  # the orthant --
    seen.clear()
    np.testing.assert_array_equal(sampled_flow(m, 1.0, [-0.5, -0.5]), [0.5, 0.5])
    assert seen == [0, 3]  # the orthants -- and ++
    # a block calls a lazy gamma once per orthant its rows are in, per step
    seen.clear()
    np.testing.assert_array_equal(sampled_flow(m, 1.0, [[-0.5, -0.5]] * 2), [[0.5, 0.5]] * 2)
    assert seen == [0, 3]  # the orthants -- and ++


# -- blocks of points -------------------------------------------------------------

TIMES = [None, 0.0, 0.3, 1.0, 5.0]

# SHA-256 of the output bytes, generated by stepping each row alone through
# the one-point (d,) API, before the stepper took blocks
PINNED_BLOCKS = {
    ("table", None): "60a5e399f389240e5db083b36d0c1a78cf554c3f8f29e6c30619bf43350f88aa",
    ("table", 0.0): "b6d309b1b317dc9f1c0a644ed5d9043f7500025df70cfb487a73d76e325938ec",
    ("table", 0.3): "11c80918a7d5deb8949a6a259d6894d660fe76423f7e1fb135a92ae4616f6337",
    ("table", 1.0): "e1aa813254e3ee1f1b7705c99903715eb4b2856803bcb36a90a8668914bd4d3f",
    ("table", 5.0): "b9f3e7b4425858795e0defe3cfbc38bfc9911c6959ae1f84c15fbf3fba9b9346",
    ("lazy", None): "72a83534a0cc2feffe4d0dfc6f9e7800411b1c69eb897cd01633a2abf1dc33de",
    ("lazy", 0.0): "e020f56e73e57b6213a5e9c87fa131aed0607b84434b1004193af930c9b86e17",
    ("lazy", 0.3): "94e2c88428ccb5fe64bdf4583889da3be226ac8eaa54cdc674374b5f2fc6f345",
    ("lazy", 1.0): "d66d289f8b1aa8e6485ef274f47a1d10cda80c0330e53ba3eded3b36576f77c8",
    ("lazy", 5.0): "56c6161244efe633e752df9dd437e1313189402fe57b3dce19017b0699869086",
}


def step(m, t, x):
    return time_to_impact_sampled(m, x) if t is None else sampled_flow(m, t, x)


def seeded_blocks():
    """24 points around rho_minus at offsets 0, 0.05, 0.3 and 1."""
    for name, m, seed in (
        ("table", random_corner_model(np.random.default_rng(110), 4, 6), 112),
        ("lazy", lazy_corner_model(111, 5, 7), 113),
    ):
        rng = np.random.default_rng(seed)
        scales = np.resize([0.0, 0.05, 0.3, 1.0], 24)[:, None]
        yield name, m, rho_minus(m) + scales * rng.normal(size=(24, m.d))


@pytest.mark.parametrize("t", TIMES)
def test_block_outputs_are_pinned(t):
    for name, m, x in seeded_blocks():
        out = step(m, t, x)
        assert out.shape == ((24, m.n) if t is None else (24, m.d))
        assert hashlib.sha256(out.tobytes()).hexdigest() == PINNED_BLOCKS[name, t]


def mixed_block(m, rng):
    """Rows that stop at every stage: before any plane, past every plane, on
    every plane, and in between."""
    rm = rho_minus(m)
    return np.vstack([rm, rho_plus(m), m.rho, rm + 0.05 * rng.normal(size=(6, m.d))])


SCALES = (1e300, 1e306, 1e308)


def slow_copy(m):
    """``m`` with every orthant limit scaled by 1e-300, so crossing times
    grow by 1e300."""
    def gamma(mask):
        return 1e-300 * m.gamma_at(mask)

    if m.table is not None:
        return CornerModel(m.rho, m.eta, table=[gamma(mask) for mask in range(1 << m.n)], f_min=1e-310)
    return CornerModel.create(m.rho, m.eta, gamma, f_min=1e-310)


def overflow_rows(m):
    """Rows where float overflow decides the step, for the slow copy of ``m``.

    The first three sit 1e300, 1e306 and 1e308 from rho_minus: the squared
    distance of the plane tolerance overflows to inf, so every plane counts
    as crossed.  The last three sit that many multiples of 1e-300 behind
    every plane (by 1 to 3), so the slow copy's crossing times are of order
    1e300, 1e306 and 1e308, and at 1e308 the accumulated times overflow to
    inf.
    """
    u = np.cos(np.arange(1.0, m.d + 1.0))
    behind = -np.linalg.pinv(m.eta) @ (2.0 + np.sin(np.arange(m.n)))
    return np.vstack(
        [rho_minus(m) + s * u for s in SCALES] + [m.rho + s * 1e-300 * behind for s in SCALES]
    )


def assert_rows_equal_block(m, t, x, perm):
    block = step(m, t, x)
    for r in range(len(x)):
        assert step(m, t, x[r]).tobytes() == block[r].tobytes()
        assert step(m, t, x[r : r + 1]).tobytes() == block[r].tobytes()
    assert step(m, t, x[perm]).tobytes() == block[perm].tobytes()


@pytest.mark.parametrize("t", TIMES)
def test_each_row_equals_its_own_call_and_its_shuffled_row(t):
    rng = np.random.default_rng(120)
    tie = pwc_model(3, pwc_linear_delta(3, 0.25))[1]  # rho_minus meets all planes at t = 1/2
    for m in (random_corner_model(rng, 3, 5), lazy_corner_model(121, 4, 6), tie):
        x = mixed_block(m, rng)
        assert_rows_equal_block(m, t, x, rng.permutation(len(x)))
        assert_rows_equal_block(slow_copy(m), t, overflow_rows(m), [4, 0, 5, 2, 1, 3])
    # the tie row crosses all three surfaces at one time
    assert step(tie, None, rho_minus(tie)).tolist() == [0.5] * 3


# SHA-256 of the output bytes on overflow_rows of the slow copies of the
# seeded_blocks models, generated before the stepper kept per-model speed tables
PINNED_OVERFLOW_BLOCKS = {
    ("table", None): "e69453c3a2d9c431863978cba691e71819e8a67a0e1efaf8e5db23af9c0a9219",
    ("table", 0.0): "929cc65025cece0b31583e149de713ec734fb407b07e107338e700149b2a9416",
    ("table", 0.3): "929cc65025cece0b31583e149de713ec734fb407b07e107338e700149b2a9416",
    ("table", 1.0): "929cc65025cece0b31583e149de713ec734fb407b07e107338e700149b2a9416",
    ("table", 5.0): "929cc65025cece0b31583e149de713ec734fb407b07e107338e700149b2a9416",
    ("lazy", None): "db96a82a47ff748f80dc1a3ab3a202ed303638e6b0b00dc7aa83f906d8f5ac09",
    ("lazy", 0.0): "46701be612187e640fc3416c57b4941c8495c0ead9bdbdf39d97eb2801e43d8d",
    ("lazy", 0.3): "46701be612187e640fc3416c57b4941c8495c0ead9bdbdf39d97eb2801e43d8d",
    ("lazy", 1.0): "46701be612187e640fc3416c57b4941c8495c0ead9bdbdf39d97eb2801e43d8d",
    ("lazy", 5.0): "46701be612187e640fc3416c57b4941c8495c0ead9bdbdf39d97eb2801e43d8d",
}


@pytest.mark.parametrize("t", TIMES)
def test_overflow_block_outputs_are_pinned(t):
    for name, m, _ in seeded_blocks():
        out = step(slow_copy(m), t, overflow_rows(m))
        assert hashlib.sha256(out.tobytes()).hexdigest() == PINNED_OVERFLOW_BLOCKS[name, t]
    if t is None:  # the 1e308 row's later crossings overflow
        assert np.isinf(out[-1]).any() and np.isfinite(out[-2]).all()


def test_empty_block(model):
    assert sampled_flow(model, 1.0, np.zeros((0, 5))).shape == (0, 5)
    assert time_to_impact_sampled(model, np.zeros((0, 5))).shape == (0, 3)


def test_bad_block_rejected(model):
    with pytest.raises(ValueError, match="shape"):
        sampled_flow(model, 1.0, np.zeros((4, 4)))
    with pytest.raises(ValueError, match="shape"):
        time_to_impact_sampled(model, np.zeros((2, 3, 5)))
    x = np.tile(rho_minus(model), (4, 1))
    x[2, 1] = np.inf
    with pytest.raises(ValueError, match="a point has non-finite entries in row 2"):
        sampled_flow(model, 1.0, x)
    with pytest.raises(ValueError, match="a point has non-finite entries in row 2"):
        time_to_impact_sampled(model, x)
    head = rho_minus(model).tolist()[:-1]
    ragged = [x[0], x[1][:-1]]
    for bad in (np.array([*head, 0.2j]), [*head, np.complex128(0.2j)], [*head, "a"], ragged,
                [*head, np.array(True)], np.array([*head, True], dtype=object), [*head, None],
                np.array([*head, None], dtype=object)):
        with pytest.raises(ValueError, match="^a point has entries that are not real numbers: "):
            sampled_flow(model, 1.0, bad)
        with pytest.raises(ValueError, match="^a point has entries that are not real numbers: "):
            time_to_impact_sampled(model, bad)


def test_degenerate_denominator_raised_from_one_row_of_a_block():
    # as in test_degenerate_denominator_raised_mid_loop; rows 0 and 2 meet
    # every plane at once and never enter the broken orthant
    n = 17
    broken = 1  # the orthant +-...-: surface 1 crossed

    def gamma(mask):
        g = [1.0] * n
        if mask == broken:
            g[1] = -1.0
        return g

    m = CornerModel.create(np.zeros(n), np.eye(n), gamma, presumed_valid=True)
    x = np.full((3, n), -0.5)
    x[1, 0] = -0.1
    np.testing.assert_array_equal(time_to_impact_sampled(m, x[[0, 2]]), 0.5)
    for run in (lambda: sampled_flow(m, 1.0, x), lambda: time_to_impact_sampled(m, x)):
        with pytest.raises(DegenerateDenominator, match=f"eta_2 . gamma\\(\\+{'-' * (n - 1)}\\)"):
            run()


def test_block_scale_equals_per_row_scales():
    rng = np.random.default_rng(130)
    for n in range(1, 6):
        m = random_corner_model(rng, n, n + 2)
        dirs = rng.normal(size=(30, m.d))
        dirs[3] = 0.0  # not measured
        dirs[5:10] *= 1e-4  # inside the budget, no rescale
        scales = safe_direction_scale(m, dirs)
        assert scales.shape == (30,)
        assert scales.tolist() == [safe_direction_scale(m, v) for v in dirs]
        assert scales[3] == 1.0


# -- lazy gamma reads ----------------------------------------------------------------


# n = 70: masks wider than 64 bits
@pytest.mark.parametrize("n, t", [(5, t) for t in TIMES] + [(70, None), (70, 1.0)])
def test_lazy_stepper_calls_gamma_once_per_distinct_orthant_per_pass(n, t):
    m = lazy_corner_model(150 + n, n, n + 2)
    calls = []
    spy = dataclasses.replace(m, gamma=lambda mask: calls.append(mask) or m.gamma(mask))
    spy.require_valid()
    x = mixed_block(spy, np.random.default_rng(151))
    # alone, a point reads one orthant per pass: the one it is in
    visits = []
    for row in x:
        calls.clear()
        step(spy, t, row)
        visits.append(list(calls))
    for row, visited in zip(x, visits):
        # from the orthant the point is in, one more plane crossed each pass
        start = sum(1 << j for j, v in enumerate((m.eta @ (row - m.rho)).tolist()) if v >= 0.0)
        assert visited[:1] in ([start], [])
        assert all((a & ~b) == 0 and a != b for a, b in zip(visited, visited[1:]))
    # the block mixes orthants: some pass reads more than one (no pass runs at t = 0)
    assert t == 0.0 or any(len({v[p] for v in visits if len(v) > p}) > 1 for p in range(n))
    calls.clear()
    block = step(spy, t, x)
    # pass p reads the distinct orthants of the rows still stepping, in row order
    expected = [
        mask
        for p in range(max(map(len, visits)))
        for mask in dict.fromkeys(v[p] for v in visits if len(v) > p)
    ]
    assert calls == expected
    assert block.tobytes() == step(m, t, x).tobytes()


# -- the stepper's own per-model tables --------------------------------------------


def test_table_stepper_never_reads_the_fast_path_speeds(monkeypatch):
    m = random_corner_model(np.random.default_rng(140), 4, 6)
    m.require_valid()

    def refuse(self):
        raise AssertionError("the stepper read CornerModel.speeds")

    monkeypatch.setattr(CornerModel, "speeds", refuse)
    x = mixed_block(m, np.random.default_rng(141))
    lazy = lazy_copy(m)
    for t in TIMES:
        assert step(m, t, x).tobytes() == step(lazy, t, x).tobytes()


def test_raised_floor_on_a_replaced_model_stops_the_stepper():
    # n = 17 is above the lazy validation cap, but a table is checked whole,
    # so the new floor is refused where surface 2 moves at 1e-3 before the
    # stepper runs.
    n = 17
    table = np.ones((1 << n, n))
    table[0b1, 1] = 1e-3  # orthant +-...-, surface 2
    m = CornerModel(np.zeros(n), np.eye(n), table=table)
    x0 = np.full(n, -0.5)
    x0[0] = -0.1  # surface 1 is crossed first, into the slow orthant
    assert time_to_impact_sampled(m, x0)[1] > 0.4
    stricter = dataclasses.replace(m, f_min=1e-2)
    message = rf"^normal-dot 0.001 below floor 0.01 at surface 2, orthant \+{'-' * (n - 1)}$"
    with pytest.raises(NotEventSelected, match=message):
        time_to_impact_sampled(stricter, x0)
    time_to_impact_sampled(m, x0)  # the original floor still holds


def test_first_table_stepper_call_makes_no_orthant_by_surface_by_state_temporary():
    # n = d = 13: a (2**13, 13, 13) float temporary would take 11 MB
    n = 13
    rng = np.random.default_rng(142)
    # one row drawn per orthant in lexicographic order, kept by mask
    draws = {mask: 1.0 + rng.uniform(size=n) for _, mask in orthant_keys(n)}
    m = CornerModel(np.zeros(n), np.eye(n), table=[draws[mask] for mask in range(1 << n)])
    m.require_valid()
    tracemalloc.start()
    try:
        time_to_impact_sampled(m, np.full(n, -0.5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (1 << n) * n * n * 8
