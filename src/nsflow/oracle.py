"""Brute-force verifiers and random model generation.

Everything here exists to check the fast corner algorithms against
independent computations: the exact event-stepped flow of the frozen
dynamics, exhaustive enumeration of per-piece saltation matrices, ordering of
impact times, and one-sided finite differences of integrated trajectories.
Verifiers return an :class:`OracleReport` rather than raising, so randomized
suites can aggregate failures.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from math import inf
from typing import Sequence

import numpy as np

from .bderiv import ENUMERATION_CAP, b_evaluate, saltation_matrix
from .core import (
    VALIDATION_ENUM_CAP,
    CornerModel,
    Permutation,
    PiecewiseField,
    SmoothField,
    _bit_reversal,
    _orthant,
    _read,
    _scalar,
    all_permutations,
)
from .errors import CapExceeded
from .flow import DEFAULT_STEPS, _rk4_step, flow_bderivative, integrate
from .sampled import rho_minus, rho_plus, sampled_flow, time_to_impact_sampled

__all__ = [
    "OracleReport",
    "random_corner_model",
    "lazy_corner_model",
    "random_linear_event_field",
    "enumerate_saltations",
    "verify_b_against_sampled",
    "verify_cone_partition",
    "verify_fd_convergence",
    "finite_difference_flow",
]

SAFE_MARGIN = 0.4  # safe_direction_scale: impact times within 0.5 +- 0.4
ORDER_SLACK = 1e-10  # verify_cone_partition: relative slack on the impact order
KERNEL_SCALE = 0.5  # random_corner_model: scale of each orthant limit's kernel component
JAC_SCALE = 0.1  # random_linear_event_field: scale of each selection's Jacobian
BACK_STEPS = 2048  # random_linear_event_field: RK4 steps back to the start point
FD_ALPHAS = (1e-2, 1e-3, 1e-4)  # verify_fd_convergence: the decades of alpha
FD_RATIO_BAND = (5.0, 20.0)  # verify_fd_convergence: error ratio per decade
FD_STEPS = 512  # verify_fd_convergence: RK4 steps of every integration


@dataclass
class OracleReport:
    """Aggregated outcome of a randomized verification run, recorded block by block."""

    name: str
    tolerance: float
    samples: int = 0
    max_abs_error: float = 0.0
    max_rel_error: float = 0.0
    failures: list[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """At least one sample, and no failure: a report that checked nothing is not ok."""
        return self.samples > 0 and not self.failures

    def record(self, inputs, expected, actual) -> None:
        """Add a block of samples, one per row of the (k, w) blocks ``expected``
        and ``actual`` and of the k ``inputs``.  A row fails unless its relative
        error, max |e - a| / max(1, max |e|, max |a|), is within tolerance; a NaN
        or inf on either side is an infinite error."""
        both = np.array([expected, actual], dtype=float)  # (2, k, w): blocks of two shapes are refused
        finite = np.isfinite(both).all(axis=(0, 2))
        with np.errstate(all="ignore"):  # a NaN or an overflow in a row the mask sets to inf
            abs_err = np.where(finite, np.abs(both[0] - both[1]).max(axis=1, initial=0.0), inf)
            rel_err = np.where(finite, abs_err / np.abs(both).max(axis=(0, 2), initial=1.0), inf)
        self.samples += len(finite)
        self.max_abs_error = float(abs_err.max(initial=self.max_abs_error))
        self.max_rel_error = float(rel_err.max(initial=self.max_rel_error))
        self.failures += [(np.asarray(inputs)[i].tolist(), both[0, i].tolist(), both[1, i].tolist())
                          for i in np.flatnonzero(~(rel_err <= self.tolerance)).tolist()]

    def to_json_dict(self) -> dict:
        """The fields in their order, ``failures`` as its count, then ``ok``."""
        return {**vars(self), "failures": len(self.failures), "ok": self.ok}


def random_corner_model(rng: np.random.Generator, n: int, d: int) -> CornerModel:
    """Draw a transversal corner model with a full gamma table.

    Normals are unit-norm rows, redrawn until their smallest singular value
    is at least 0.15.  Each orthant limit is assembled in normal coordinates
    as 1 plus a uniform (-0.9, 2) bump, so every crossing rate is at least
    0.1 by construction, plus a ``KERNEL_SCALE`` kernel component; validation is
    still run afterwards.  The draws are raw uniform and standard-normal values,
    orthant by orthant in lexicographic sign-vector order, scaled afterwards; the
    rows are stored by mask.  n > ``VALIDATION_ENUM_CAP`` is refused before any draw.
    """
    n = _scalar(n, "n must be an int >= 1", 1, inf, integer=True)
    d = _scalar(d, f"d must be an int >= n = {n}", n, inf, integer=True)
    if n > VALIDATION_ENUM_CAP:
        raise CapExceeded(f"2**{n} orthants refused: a table of more than 2**{VALIDATION_ENUM_CAP} rows")
    eta = _unit_normals(rng, n, d, 0.15)
    lift = eta.T @ np.linalg.inv(eta @ eta.T)  # maps desired normal-dots to a state vector
    unit, normal = np.empty((1 << n, n)), np.empty((1 << n, d - n))  # the draws, in lexicographic order
    # one pair of calls per row; with d == n no normal draws come between the rows, so one call
    for unit_row, normal_row in zip(unit, normal) if d > n else [(unit, normal)]:
        rng.random(out=unit_row)
        rng.standard_normal(out=normal_row)
    # scaled and put by mask.  Stacked matrix-vector products round as the per-row
    # lift @ dots does; a (rows, n) @ (n, d) matrix product need not
    table = np.matmul(lift, (1.0 + (-0.9 + (2.0 - -0.9) * unit)[_bit_reversal(n)])[:, :, None])[..., 0]
    if d > n:
        kernel = np.linalg.svd(eta)[2][n:].T  # d - n orthonormal columns spanning the kernel of eta
        table = table + np.matmul(kernel, (KERNEL_SCALE * normal)[_bit_reversal(n)][:, :, None])[..., 0]

    rho = rng.normal(scale=0.5, size=d)
    model = CornerModel(rho, eta, table=table)
    model.require_valid()
    return model


def _unit_normals(rng: np.random.Generator, n: int, d: int, min_sv: float) -> np.ndarray:
    """Unit-norm (n, d) rows, redrawn until their smallest singular value is at least ``min_sv``."""
    while True:
        eta = rng.normal(size=(n, d))
        eta /= np.linalg.norm(eta, axis=1, keepdims=True)
        if np.linalg.svd(eta, compute_uv=False)[-1] >= min_sv:
            return eta


def lazy_corner_model(seed: int, n: int, d: int) -> CornerModel:
    """Corner model with gamma computed on demand, for large-n benchmarks.

    Normals are orthonormal rows; the orthant limit is the row-space lift of
    normal-dots 1 + 0.45 (1 + sin(phase_i + 0.7 * u.b)), which pins every
    crossing rate inside [1.0, 1.9] structurally, so no table of size 2**n
    ever exists and validation can trust the construction.  The evaluation is
    deliberately plain Python at O(n d) per call, the same cost class as one
    pass of the evaluation loop it feeds.  The gamma is called with the
    orthant's int mask and reads its bits: ``u.b`` adds ``u_j`` where bit j
    is set and subtracts it where it is not.
    """
    n = _scalar(n, "n must be an int >= 1", 1, inf, integer=True)
    d = _scalar(d, f"d must be an int >= n = {n}", n, inf, integer=True)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, n)))
    eta = np.ascontiguousarray(q.T)
    rho = rng.normal(scale=0.5, size=d)
    lift_rows = eta.T.tolist()  # orthonormal rows: lift of normal-dots is the transpose
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n).tolist()
    mix = rng.normal(size=n).tolist()
    from math import sin as _sin

    def gamma(mask: int) -> list[float]:
        phase = 0.0
        for j, u in enumerate(mix):
            phase += u if mask >> j & 1 else -u
        dots = [1.0 + 0.45 * (1.0 + _sin(p + 0.7 * phase)) for p in phases]
        out = []
        for row in lift_rows:
            acc = 0.0
            for i in range(n):
                acc += row[i] * dots[i]
            out.append(acc)
        return out

    return CornerModel(rho, eta, gamma=gamma)


def enumerate_saltations(m: CornerModel) -> dict[Permutation, np.ndarray]:
    """All n! per-piece matrices via the ordered product formula (n <= ``ENUMERATION_CAP``)."""
    if m.n > ENUMERATION_CAP:
        raise CapExceeded(f"{m.n}! saltation matrices exceed cap {ENUMERATION_CAP}!")
    return {sigma: saltation_matrix(m, sigma) for sigma in all_permutations(m.n)}


def safe_direction_scale(m: CornerModel, delta_rho: np.ndarray) -> float | np.ndarray:
    """Scale factor under which the time-1 frozen flow from
    ``rho_minus + s*delta_rho`` crosses every surface.

    Two requirements: the start stays strictly before all surfaces, and every
    impact time stays within ``SAFE_MARGIN`` = 0.4 of 1/2.  The first caps
    each normal component at that share of the start's distance to its
    surface; the second is enforced by measuring the impact-time deviations
    once and rescaling, which is exact because impact times are linear in
    the perturbation within its crossing-order cone.  One direction
    (d,) gives a float; a block (k, d) gives one factor per row, shape (k,),
    from one impact-time call over every row that is measured.
    """
    block = _read(delta_rho, "delta_rho", [(m.d,), (None, m.d)])
    one, block = block.ndim == 1, np.array(block, ndmin=2, order="C")
    g_minus = m.gamma_at(0)
    budget = SAFE_MARGIN * 0.5 * (m.eta @ g_minus)
    # one stacked matrix-vector product per row: a block product rounds differently
    intrusion = np.abs(np.matmul(m.eta, block[:, :, None])[..., 0])
    with np.errstate(divide="ignore"):
        ratios = np.where(intrusion > 0.0, budget / np.maximum(intrusion, 1e-300), np.inf)
    s = np.minimum(1.0, ratios.min(axis=1))
    rows = np.flatnonzero((s != 0.0) & block.any(axis=1))
    tau = time_to_impact_sampled(m, rho_minus(m) + s[rows, None] * block[rows])
    dev = np.max(np.abs(tau - 0.5), axis=1)
    over = dev > SAFE_MARGIN
    s[rows[over]] *= SAFE_MARGIN / dev[over]
    return float(s[0]) if one else s


def verify_b_against_sampled(
    m: CornerModel,
    num_samples: int,
    rng: np.random.Generator,
    tol: float = 1e-12,
) -> OracleReport:
    """Check the fast evaluation against the exact event-stepped time-1 flow.

    For perturbations small enough to start before all surfaces, the frozen
    flow started at rho_minus + drho lands at rho_plus + B(drho) exactly, so
    both paths must agree to rounding.  The sampled flow runs once over all
    directions and the zero probe, recorded as one block; ``b_evaluate`` runs per direction.
    """
    num_samples = _scalar(num_samples, f"num_samples must be an int in 0..{sys.maxsize}", 0, sys.maxsize, integer=True)
    report = OracleReport(name="sampled-oracle", tolerance=tol)
    drho = rng.normal(size=(num_samples, m.d))
    # the last row is the zero direction, which must map to zero through both paths
    drho = np.vstack([drho * safe_direction_scale(m, drho)[:, None], np.zeros(m.d)])
    expected = sampled_flow(m, 1.0, rho_minus(m) + drho) - rho_plus(m)
    report.record(drho, expected, [b_evaluate(m, v).delta_rho_plus for v in drho])
    return report


def verify_cone_partition(
    m: CornerModel,
    num_samples: int,
    rng: np.random.Generator,
    tol: float = 1e-9,
) -> OracleReport:
    """Check cone location: the located order's matrix reproduces B, and the
    frozen flow from a point nudged along the direction impacts the surfaces
    in that order."""
    num_samples = _scalar(num_samples, f"num_samples must be an int in 0..{sys.maxsize}", 0, sys.maxsize, integer=True)
    report = OracleReport(name="cone-partition", tolerance=tol)
    drho = rng.normal(size=(num_samples, m.d))
    drho *= safe_direction_scale(m, drho)[:, None]
    taus = time_to_impact_sampled(m, rho_minus(m) + drho)
    results = [b_evaluate(m, v) for v in drho]
    matrices = {sigma: saltation_matrix(m, sigma) for sigma in {r.sigma for r in results}}
    # reshaped, so that an empty block keeps its (0, d) and (0, n) shapes
    report.record(drho, np.reshape([r.delta_rho_plus for r in results], drho.shape),
                  np.reshape([matrices[r.sigma] @ v for r, v in zip(results, drho)], drho.shape))
    orders = np.array([r.sigma.order for r in results], dtype=np.intp).reshape(taus.shape)
    ordered = np.take_along_axis(taus, orders - 1, axis=1)
    # a NaN time makes the largest time NaN, and the slack scale 1
    slack = ORDER_SLACK * np.where(np.isnan(taus).any(axis=1), 1.0, np.abs(taus).max(axis=1, initial=1.0))
    for i in np.flatnonzero((ordered[:, :-1] > ordered[:, 1:] + slack[:, None]).any(axis=1)).tolist():
        report.failures.append((drho[i].tolist(), ordered[i].tolist(), orders[i].tolist()))
    return report


def random_linear_event_field(
    rng: np.random.Generator,
    n: int = 2,
    d: int = 3,
    s_pre: float = 0.4,
    s_post: float = 0.5,
) -> tuple[PiecewiseField, np.ndarray, float]:
    """A smooth-per-orthant field whose trajectory from the returned start
    point passes through an n-surface corner at time ``s_pre``.

    Surfaces are affine planes through a random corner point; each orthant
    selection is linear, equal to a transversal limit at the corner plus a
    random Jacobian of scale ``JAC_SCALE``.  The start point is the corner
    integrated backward along the all-minus selection in ``BACK_STEPS`` RK4
    steps, so the forward trajectory reaches the corner crossing every
    surface at once.  Rates and Jacobians are drawn as one block each in
    lexicographic order and kept by mask; the selection reads the mask of its
    argument through ``core._orthant``.  Returns (field, x0, s_pre + s_post).
    """
    n = _scalar(n, "n must be an int >= 1", 1, inf, integer=True)
    d = _scalar(d, f"d must be an int >= n = {n}", n, inf, integer=True)
    eta = _unit_normals(rng, n, d, 0.3)
    rho = rng.normal(scale=0.3, size=d)
    lift = eta.T @ np.linalg.inv(eta @ eta.T)
    rates = 1.0 + rng.uniform(0.0, 1.0, size=(1 << n, n))
    gammas = np.matmul(lift, rates[:, :, None])[..., 0][_bit_reversal(n)]
    jacs = (JAC_SCALE * rng.normal(size=(1 << n, d, d)))[_bit_reversal(n)]

    def linear(mask: int) -> SmoothField:
        g, A = gammas[mask], jacs[mask]
        return SmoothField(
            value=lambda x: g + A @ (np.asarray(x, dtype=float) - rho),
            jacobian=lambda x: A.copy(),
        )

    field = PiecewiseField(
        d=d,
        n=n,
        rho=rho,
        h=lambda x: eta @ (np.asarray(x, dtype=float) - rho),
        dh=lambda x: eta.copy(),
        selection=lambda b: linear(_orthant(b, "the orthant", n)),
    )

    entry = linear(0)
    x0 = rho.copy()
    h = s_pre / BACK_STEPS
    for _ in range(BACK_STEPS):
        x0 = _rk4_step(lambda z: -entry.value(z), x0, h)
    return field, x0, s_pre + s_post


def verify_fd_convergence(
    rng: np.random.Generator,
    num_fields: int = 5,
    num_directions: int = 20,
) -> OracleReport:
    """First-order convergence of forward differences to the corner derivative.

    For each random field the median (over directions) finite-difference
    error must shrink by a factor inside ``FD_RATIO_BAND`` per decade of
    ``FD_ALPHAS``, at ``FD_STEPS`` RK4 steps; ``num_fields >= 0`` and
    ``num_directions >= 1`` are ints, checked before any draw.  The report's
    ``tolerance`` is the upper end of ``FD_RATIO_BAND``, its ``max_abs_error`` the
    largest per-field median error at the first alpha; ``max_rel_error`` is never set.
    """
    num_fields = _scalar(num_fields, f"num_fields must be an int in 0..{sys.maxsize}", 0, sys.maxsize, integer=True)
    num_directions = _scalar(num_directions, f"num_directions must be an int in 1..{sys.maxsize}", 1, sys.maxsize,
                             integer=True)
    report = OracleReport(name="fd-convergence", tolerance=FD_RATIO_BAND[1])
    for k in range(num_fields):
        field, x0, t = random_linear_event_field(rng)
        bfd = flow_bderivative(field, x0, t, steps=FD_STEPS)
        # each row normalised by itself: a row-wise norm of the block rounds differently
        dxs = rng.normal(size=(num_directions, field.d))
        dxs = np.array([dx / np.linalg.norm(dx) for dx in dxs]).reshape(dxs.shape)
        quotients = finite_difference_flow(field, x0, t, dxs, FD_ALPHAS, steps=FD_STEPS)
        errors = np.array([[np.linalg.norm(q - exact) for q in row]
                           for exact, row in zip(map(bfd, dxs), quotients)])
        med = np.median(errors, axis=0)
        ratios = [float(med[a] / med[a + 1]) for a in range(len(FD_ALPHAS) - 1)]
        report.samples += len(dxs)
        report.max_abs_error = max(report.max_abs_error, float(med[0]))
        if any(not FD_RATIO_BAND[0] <= r <= FD_RATIO_BAND[1] for r in ratios):
            report.failures.append((f"field-{k}", med.tolist(), ratios))
    return report


def finite_difference_flow(
    field: PiecewiseField,
    x0: Sequence[float] | np.ndarray,
    t: float,
    delta_x0: Sequence[float] | np.ndarray,
    alphas: Sequence[float],
    steps: int = DEFAULT_STEPS,
) -> list[np.ndarray] | list[list[np.ndarray]]:
    """One-sided difference quotients of the integrated flow.

    Forward differences only: the directional derivative is a one-sided
    limit, and centered differences straddle cone boundaries.  One direction
    (d,) gives one quotient per alpha; a block (k, d) gives that list for
    each row, and the base trajectory is integrated once for all of them.
    Every alpha must be positive and finite.
    """
    x0a = _read(x0, "x0", (field.d,))
    dxs = _read(delta_x0, "delta_x0", [(field.d,), (None, field.d)])
    one, dxs = dxs.ndim == 1, np.array(dxs, ndmin=2, order="C")
    alpha_a = _read(alphas, "alphas", (None,), finite=False)
    if not all(0.0 < a < inf for a in alpha_a.tolist()):  # a NaN fails too
        raise ValueError(f"alphas must be positive and finite, got {alpha_a.tolist()}")
    base = integrate(field, x0a, t, steps=steps).x_end
    out = [
        [(integrate(field, x0a + alpha * dx, t, steps=steps).x_end - base) / alpha for alpha in alpha_a.tolist()]
        for dx in dxs
    ]
    return out[0] if one else out
