"""Brute-force verifiers and random model generation.

Everything here exists to check the fast corner algorithms against
independent computations: the exact event-stepped flow of the frozen
dynamics, exhaustive enumeration of per-piece saltation matrices, ordering of
impact times, and one-sided finite differences of integrated trajectories.
Verifiers return an :class:`OracleReport` rather than raising, so randomized
suites can aggregate failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, isfinite, isnan
from typing import Sequence

import numpy as np

from .bderiv import ENUMERATION_CAP, b_evaluate, saltation_matrix
from .core import (
    DEFAULT_F_MIN,
    CornerModel,
    Permutation,
    PiecewiseField,
    SignVector,
    SmoothField,
    _bit_reversal,
    _corner_frame,
    _reals,
    _table_model,
    _vector,
    _vectors,
    all_permutations,
    all_sign_vectors,
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
JAC_SCALE = 0.1  # random_linear_event_field: scale of each selection's Jacobian
BACK_STEPS = 2048  # random_linear_event_field: RK4 steps back to the start point
FD_ALPHAS = (1e-2, 1e-3, 1e-4)  # verify_fd_convergence: the decades of alpha
FD_RATIO_BAND = (5.0, 20.0)  # verify_fd_convergence: error ratio per decade


@dataclass
class OracleReport:
    """Aggregated outcome of a randomized verification run."""

    name: str
    tolerance: float
    samples: int = 0
    max_abs_error: float = 0.0
    max_rel_error: float = 0.0
    failures: list[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, inp, expected: np.ndarray, actual: np.ndarray) -> None:
        """Add one sample.  It fails unless its relative error is within
        tolerance; a NaN or inf on either side is an infinite error."""
        self.samples += 1
        exp = np.ravel(expected).tolist()
        act = np.ravel(actual).tolist()
        if all(map(isfinite, exp)) and all(map(isfinite, act)):
            abs_err = max((abs(e - a) for e, a in zip(exp, act, strict=True)), default=0.0)
            rel_err = abs_err / max(1.0, *map(abs, exp), *map(abs, act))
        else:
            abs_err = rel_err = inf
        self.max_abs_error = max(self.max_abs_error, abs_err)
        self.max_rel_error = max(self.max_rel_error, rel_err)
        if not rel_err <= self.tolerance:
            self.failures.append((inp, exp, act))

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "tolerance": self.tolerance,
            "samples": self.samples,
            "max_abs_error": self.max_abs_error,
            "max_rel_error": self.max_rel_error,
            "failures": len(self.failures),
            "ok": self.ok,
        }


def random_corner_model(
    rng: np.random.Generator,
    n: int,
    d: int,
    kernel_scale: float = 0.5,
) -> CornerModel:
    """Draw a transversal corner model with a full gamma table.

    Normals are unit-norm rows, redrawn until their smallest singular value
    is at least 0.15.  Each orthant limit is assembled in normal coordinates
    as 1 plus a uniform (-0.9, 2) bump, so every crossing rate is at least
    0.1 by construction, plus an arbitrary kernel component; validation is
    still run afterwards.  The draws are made orthant by orthant in
    lexicographic sign-vector order, and the rows are stored by mask.
    """
    if d < n:
        raise ValueError(f"need d >= n, got n={n}, d={d}")
    eta = _unit_normals(rng, n, d, 0.15)
    gram_inv = np.linalg.inv(eta @ eta.T)
    lift = eta.T @ gram_inv  # maps desired normal-dots to a state vector
    kernel = _kernel_basis(eta)

    with_kernel = kernel.shape[1] > 0 and kernel_scale > 0.0
    bumps = np.empty((1 << n, n))
    weights = np.empty((1 << n, kernel.shape[1]))
    for mask in _bit_reversal(n).tolist():  # the draws, in lexicographic order
        bumps[mask] = rng.uniform(-0.9, 2.0, size=n)
        if with_kernel:
            weights[mask] = rng.normal(scale=kernel_scale, size=kernel.shape[1])
    # stacked matrix-vector products round as the per-row lift @ dots does;
    # a (rows, n) @ (n, d) matrix product need not
    table = np.matmul(lift, (1.0 + bumps)[:, :, None])[..., 0]
    if with_kernel:
        table = table + np.matmul(kernel, weights[:, :, None])[..., 0]

    rho = rng.normal(scale=0.5, size=d)
    model = _table_model(*_corner_frame(rho, eta, DEFAULT_F_MIN), table, DEFAULT_F_MIN)
    model.require_valid()
    return model


def _unit_normals(rng: np.random.Generator, n: int, d: int, min_sv: float) -> np.ndarray:
    """Unit-norm (n, d) rows, redrawn until their smallest singular value is at least ``min_sv``."""
    while True:
        eta = rng.normal(size=(n, d))
        eta /= np.linalg.norm(eta, axis=1, keepdims=True)
        if np.linalg.svd(eta, compute_uv=False)[-1] >= min_sv:
            return eta


def _kernel_basis(eta: np.ndarray) -> np.ndarray:
    _, sv, vt = np.linalg.svd(eta)
    return vt[eta.shape[0] :].T


def lazy_corner_model(seed: int, n: int, d: int) -> CornerModel:
    """Corner model with gamma computed on demand, for large-n benchmarks.

    Normals are orthonormal rows; the orthant limit is the row-space lift of
    normal-dots 1 + 0.45 (1 + sin(phase_i + 0.7 * u.b)), which pins every
    crossing rate inside [1.0, 1.9] structurally, so no table of size 2**n
    ever exists and validation can trust the construction.  The evaluation is
    deliberately plain Python at O(n d) per call, the same cost class as one
    pass of the evaluation loop it feeds.
    """
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, n)))
    eta = np.ascontiguousarray(q.T)
    rho = rng.normal(scale=0.5, size=d)
    lift_rows = eta.T.tolist()  # orthonormal rows: lift of normal-dots is the transpose
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n).tolist()
    mix = rng.normal(size=n).tolist()
    from math import sin as _sin

    def gamma(b: SignVector) -> list[float]:
        phase = 0.0
        for u, s in zip(mix, b):
            phase += u * s
        dots = [1.0 + 0.45 * (1.0 + _sin(p + 0.7 * phase)) for p in phases]
        out = []
        for row in lift_rows:
            acc = 0.0
            for i in range(n):
                acc += row[i] * dots[i]
            out.append(acc)
        return out

    return CornerModel.create(rho=rho, eta=eta, gamma=gamma, presumed_valid=True)


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
    block, one = _vectors(delta_rho, "delta_rho", m.d)
    g_minus = m.gamma_at(0)
    budget = SAFE_MARGIN * 0.5 * (m.eta @ g_minus)
    # one matrix-vector product per row: a block product rounds differently
    intrusion = np.abs(np.array([m.eta @ v for v in block]).reshape(-1, m.n))
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
    directions and the zero probe; ``b_evaluate`` runs per direction.
    """
    report = OracleReport(name="sampled-oracle", tolerance=tol)
    m.require_valid()
    rm, rp = rho_minus(m), rho_plus(m)
    drho = rng.normal(size=(num_samples, m.d))
    drho *= safe_direction_scale(m, drho)[:, None]
    # the last row is the zero direction, which must map to zero through both paths
    expected = sampled_flow(m, 1.0, np.vstack([rm + drho, rm])) - rp
    for v, exp in zip(drho, expected):
        report.record(v.tolist(), exp, b_evaluate(m, v).delta_rho_plus)
    report.record([0.0] * m.d, expected[-1], b_evaluate(m, np.zeros(m.d)).delta_rho_plus)
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
    report = OracleReport(name="cone-partition", tolerance=tol)
    m.require_valid()
    drho = rng.normal(size=(num_samples, m.d))
    drho *= safe_direction_scale(m, drho)[:, None]
    taus = time_to_impact_sampled(m, rho_minus(m) + drho)
    matrices: dict[Permutation, np.ndarray] = {}
    for v, tau in zip(drho, taus.tolist()):
        res = b_evaluate(m, v)
        sigma = res.sigma
        if sigma not in matrices:
            matrices[sigma] = saltation_matrix(m, sigma)
        report.record(v.tolist(), res.delta_rho_plus, matrices[sigma] @ v)

        ordered = [tau[j - 1] for j in sigma.order]
        # a NaN time makes the largest time NaN, and the slack scale 1
        slack = ORDER_SLACK * (1.0 if any(map(isnan, tau)) else max(1.0, *map(abs, tau)))
        if any(a > b + slack for a, b in zip(ordered, ordered[1:])):
            report.failures.append((v.tolist(), ordered, list(sigma.order)))
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
    surface at once.  Returns (field, x0, s_pre + s_post).
    """
    eta = _unit_normals(rng, n, d, 0.3)
    rho = rng.normal(scale=0.3, size=d)
    lift = eta.T @ np.linalg.inv(eta @ eta.T)
    gammas = {
        b: lift @ (1.0 + rng.uniform(0.0, 1.0, size=n)) for b in all_sign_vectors(n)
    }
    jacs = {b: JAC_SCALE * rng.normal(size=(d, d)) for b in all_sign_vectors(n)}

    def selection(b: SignVector) -> SmoothField:
        g, A = gammas[b], jacs[b]
        return SmoothField(
            value=lambda x, _g=g, _A=A: _g + _A @ (np.asarray(x, dtype=float) - rho),
            jacobian=lambda x, _A=A: _A.copy(),
        )

    field = PiecewiseField(
        d=d,
        n=n,
        rho=rho,
        h=lambda x: eta @ (np.asarray(x, dtype=float) - rho),
        dh=lambda x: eta.copy(),
        selection=selection,
    )

    entry = selection(SignVector.minus_ones(n))
    x0 = rho.copy()
    h = s_pre / BACK_STEPS
    for _ in range(BACK_STEPS):
        x0 = _rk4_step(lambda z: -entry.value(z), x0, h)
    return field, x0, s_pre + s_post


def verify_fd_convergence(
    rng: np.random.Generator,
    num_fields: int = 5,
    num_directions: int = 20,
    steps: int = 512,
) -> OracleReport:
    """First-order convergence of forward differences to the corner derivative.

    For each random field the median (over directions) finite-difference
    error must shrink by a factor inside ``FD_RATIO_BAND`` per decade of ``FD_ALPHAS``.
    """
    report = OracleReport(name="fd-convergence", tolerance=FD_RATIO_BAND[1])
    for k in range(num_fields):
        field, x0, t = random_linear_event_field(rng)
        bfd = flow_bderivative(field, x0, t, steps=steps)
        # each row normalised by itself: a row-wise norm of the block rounds differently
        dxs = rng.normal(size=(num_directions, field.d))
        dxs = np.array([dx / np.linalg.norm(dx) for dx in dxs]).reshape(dxs.shape)
        quotients = finite_difference_flow(field, x0, t, dxs, FD_ALPHAS, steps=steps)
        errors = np.zeros((num_directions, len(FD_ALPHAS)))
        for i, (dx, row) in enumerate(zip(dxs, quotients)):
            exact = bfd(dx)
            errors[i] = [float(np.linalg.norm(q - exact)) for q in row]
        med = np.median(errors, axis=0)
        ratios = [float(med[a] / med[a + 1]) for a in range(len(FD_ALPHAS) - 1)]
        report.samples += num_directions
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
    x0a = _vector(x0, "x0", field.d)
    dxs, one = _vectors(delta_x0, "delta_x0", field.d)
    alpha_a = _reals(alphas, "alphas")
    if not (alpha_a.ndim == 1 and all(0.0 < a < inf for a in alpha_a.tolist())):  # a NaN fails too
        raise ValueError(f"alphas must be positive and finite, got {alpha_a.tolist()}")
    base = integrate(field, x0a, t, steps=steps).x_end
    out = [
        [(integrate(field, x0a + alpha * dx, t, steps=steps).x_end - base) / alpha for alpha in alphas]
        for dx in dxs
    ]
    return out[0] if one else out
