"""Ready-made model families: canonical piecewise-constant fields and
mechanical systems with softened unilateral constraints.

The piecewise-constant family is the canonical corner test case: the field is
a constant offset per orthant of the coordinate hyperplanes, so the corner
algorithms admit closed-form cross-checks (in particular the offset
``-delta * b`` makes the corner derivative a scalar multiple of the
identity).

The mechanical family softens constraints ``a(q) >= 0`` with a spring of
stiffness kappa, and optionally a damper beta, that act only while a
constraint is violated.  With springs alone the field is continuous and every
corner saltation is the identity; with dampers the field jumps across the
constraint surfaces, and whether different activation orders produce
different saltation products depends on whether the damping coefficients vary
with the active-constraint set.  The vertical-plane biped demonstrates both
regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import (
    VALIDATION_ENUM_CAP,
    CornerModel,
    PiecewiseField,
    SignVector,
    SmoothField,
    _bit_reversal,
    _corner_frame,
    _table_model,
    _vector,
    all_sign_vectors,
    sign_of,
)
from .errors import CapExceeded, InvalidDelta, SingularMass, TangentialCrossing

__all__ = [
    "MechanicalModel",
    "pwc_model",
    "pwc_linear_delta",
    "soft_constraint_field",
    "mech_saltation",
    "mech_corner_model",
    "biped_model",
    "biped_corner_state",
    "uniform_damping",
    "xor_damping",
    "preset",
]

TANGENCY_TOL = 1e-9  # smallest crossing rate |Da_j . qd| of a constraint
CORNER_TOL = 1e-9  # largest |a_j| of a state on every constraint surface
MASS_SYMMETRY_RTOL = 1e-12  # largest max|M - M.T| of a mass matrix, relative to max|M|


# -- piecewise-constant canonical family --------------------------------------


def _check_linear_delta(delta: float) -> None:
    if not abs(delta) < 1.0:
        raise InvalidDelta(f"|delta| must be below 1, got {delta}")


def pwc_linear_delta(d: int, delta: float) -> dict[SignVector, np.ndarray]:
    """The scalar special case ``delta(b) = -delta * b`` (|delta| < 1)."""
    _check_linear_delta(delta)
    return {b: -delta * np.asarray(b.entries, dtype=float) for b in all_sign_vectors(d)}


def pwc_model(
    d: int, delta_map: Mapping[SignVector, Sequence[float]]
) -> tuple[PiecewiseField, CornerModel]:
    """Build the canonical piecewise-constant field with its corner at 0.

    Surfaces are the coordinate hyperplanes (normals the identity rows); the
    orthant limit is ``1 + delta(b)``.  The transversality floor is set below
    the weakest actual crossing rate so any legal offset table validates.
    """
    rows = {b.mask: v for b, v in delta_map.items() if b.n == d}
    if len(rows) < 1 << d:
        missing = next(b for b in all_sign_vectors(d) if b.mask not in rows)
        raise InvalidDelta(f"offset table misses orthant {missing}")
    return _pwc_model(d, np.array([rows[mask] for mask in range(1 << d)], dtype=float))


def _pwc_model(d: int, offsets: np.ndarray) -> tuple[PiecewiseField, CornerModel]:
    """:func:`pwc_model` from its (2**d, d) offsets in mask order."""
    worst = float(offsets.min())
    if not worst > -1.0:
        raise InvalidDelta(f"offset component {worst} is not larger than -1")
    rates = 1.0 + offsets
    f_min = min(1e-9, 0.1 * float(rates.min()))
    corner = _table_model(*_corner_frame(np.zeros(d), np.eye(d), f_min), rates, f_min)

    def selection(b: SignVector) -> SmoothField:
        g = corner.table[b.mask]
        return SmoothField(
            value=lambda x, _g=g: _g.copy(),
            jacobian=lambda x, _d=d: np.zeros((_d, _d)),
        )

    field = PiecewiseField(
        d=d,
        n=d,
        rho=np.zeros(d),
        h=lambda x: np.asarray(x, dtype=float),
        dh=lambda x, _d=d: np.eye(_d),
        selection=selection,
    )
    return field, corner


# -- mechanical systems with softened unilateral constraints ------------------


DampingPolicy = Callable[[frozenset[int]], np.ndarray]


def uniform_damping(beta: float, n: int) -> DampingPolicy:
    """Constraint-independent damping: the same beta whatever is active."""
    vec = np.full(n, float(beta))

    def policy(active: frozenset[int]) -> np.ndarray:
        return vec

    return policy


def xor_damping(beta: float) -> DampingPolicy:
    """Support-dependent damping of two constraints: beta while exactly one
    is engaged, halved when both engage.  The drop makes saltation products
    order-dependent, which is the point of the policy."""

    def policy(active: frozenset[int]) -> np.ndarray:
        scale = 0.5 if len(active) == 2 else 1.0
        return np.full(2, float(beta) * scale)

    return policy


@dataclass(frozen=True)
class MechanicalModel:
    """Second-order mechanics ``M(q) qdd = f(q, qd)`` with unilateral
    constraints ``a(q) >= 0`` softened by springs kappa and dampers from a
    damping policy (a function of the violated-constraint set)."""

    m_q: int
    n: int
    mass_matrix: Callable[[np.ndarray], np.ndarray]
    forcing: Callable[[np.ndarray, np.ndarray], np.ndarray]
    constraints: Callable[[np.ndarray], np.ndarray]
    constraint_jac: Callable[[np.ndarray], np.ndarray]
    kappa: np.ndarray
    damping_policy: DampingPolicy

    @property
    def d(self) -> int:
        return 2 * self.m_q

    def mass_solve(self, q: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        M = np.asarray(self.mass_matrix(q), dtype=float)
        if not np.isfinite(M).all():
            raise SingularMass(f"mass matrix not finite at q={q}")
        # cholesky reads only the lower triangle, solve reads all of M
        if np.abs(M - M.T).max() > MASS_SYMMETRY_RTOL * np.abs(M).max():
            raise SingularMass(f"mass matrix not symmetric at q={q}")
        try:
            # the factor only tests definiteness: numpy has no triangular
            # solve, and two general solves cost more than one on M itself
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError as exc:
            raise SingularMass(f"mass matrix not SPD at q={q}") from exc
        return np.linalg.solve(M, rhs)

    def acceleration(
        self, q: np.ndarray, qd: np.ndarray, active: frozenset[int], dissipative: bool
    ) -> np.ndarray:
        rhs = np.asarray(self.forcing(q, qd), dtype=float).copy()
        if active:
            a = np.asarray(self.constraints(q), dtype=float)
            Da = np.asarray(self.constraint_jac(q), dtype=float)
            betas = self.damping_policy(active) if dissipative else None
            for j in active:
                mag = self.kappa[j - 1] * a[j - 1]
                if dissipative:
                    mag += betas[j - 1] * float(Da[j - 1] @ qd)
                rhs -= mag * Da[j - 1]
        return self.mass_solve(q, rhs)


def _fd_jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    base = np.asarray(fn(x), dtype=float)
    J = np.zeros((base.size, x.size))
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        J[:, i] = (np.asarray(fn(xp), dtype=float) - np.asarray(fn(xm), dtype=float)) / (2 * h)
    return J


def soft_constraint_field(mm: MechanicalModel, dissipative: bool = True) -> PiecewiseField:
    """State-space event-selected field of the softened mechanics.

    State is x = (q, qd); event functions are the constraint values, and a
    constraint's spring (and damper, if dissipative) acts exactly on the
    orthants where its sign is -1 (violated).  Selection Jacobians are
    central finite differences; supply analytic ones instead if variational
    accuracy beyond ~1e-9 is needed.
    """
    m_q, n = mm.m_q, mm.n

    def h(x: np.ndarray) -> np.ndarray:
        return np.asarray(mm.constraints(np.asarray(x, dtype=float)[:m_q]), dtype=float)

    def dh(x: np.ndarray) -> np.ndarray:
        Da = np.asarray(mm.constraint_jac(np.asarray(x, dtype=float)[:m_q]), dtype=float)
        return np.hstack([Da, np.zeros((n, m_q))])

    def selection(b: SignVector) -> SmoothField:
        active = frozenset(j for j in range(1, n + 1) if b[j - 1] < 0)

        def value(x: np.ndarray, _active=active) -> np.ndarray:
            xa = np.asarray(x, dtype=float)
            q, qd = xa[:m_q], xa[m_q:]
            return np.concatenate([qd, mm.acceleration(q, qd, _active, dissipative)])

        return SmoothField(value=value, jacobian=lambda x, _v=value: _fd_jacobian(_v, np.asarray(x, dtype=float)))

    return PiecewiseField(
        d=mm.d,
        n=n,
        rho=np.zeros(mm.d),
        h=h,
        dh=dh,
        selection=selection,
    )


def mech_saltation(
    mm: MechanicalModel,
    q: Sequence[float] | np.ndarray,
    qdot: Sequence[float] | np.ndarray,
    j: int,
    activating: bool,
) -> np.ndarray:
    """Single-constraint saltation at a transversal crossing of ``a_j = 0``.

    Rank-1 update touching only the velocity rows: the force jump
    ``kappa_j a_j + beta_j (Da_j . qd)`` (only the damper part survives at an
    activation, where a_j = 0) enters through the mass matrix along the
    constraint gradient; sign minus when activating, plus when deactivating.
    ``beta_j`` is the damping policy's value with constraint j engaged alone;
    a crossing rate ``|Da_j . qd|`` below ``TANGENCY_TOL`` is refused.
    """
    qa = _vector(q, "q", mm.m_q)
    qda = _vector(qdot, "qdot", mm.m_q)
    a = np.asarray(mm.constraints(qa), dtype=float)
    Da = np.asarray(mm.constraint_jac(qa), dtype=float)
    w = float(Da[j - 1] @ qda)
    if abs(w) < TANGENCY_TOL:
        raise TangentialCrossing(f"constraint {j} crossed with rate {w:.3g}")
    beta_j = float(mm.damping_policy(frozenset({j}))[j - 1])
    mag = float(mm.kappa[j - 1] * a[j - 1]) + beta_j * w
    col = mm.mass_solve(qa, Da[j - 1]) * mag
    if activating:
        col = -col
    S = np.eye(mm.d)
    S[mm.m_q :, : mm.m_q] += np.outer(col, Da[j - 1]) / w
    return S


def mech_corner_model(
    mm: MechanicalModel,
    q: Sequence[float] | np.ndarray,
    qdot: Sequence[float] | np.ndarray,
    dissipative: bool = True,
) -> CornerModel:
    """Corner data at a state where every constraint sits exactly on its
    surface, with normals oriented along the actual crossing directions."""
    qa = _vector(q, "q", mm.m_q)
    qda = _vector(qdot, "qdot", mm.m_q)
    a = np.asarray(mm.constraints(qa), dtype=float)
    if float(np.max(np.abs(a))) > CORNER_TOL:
        raise ValueError(f"state is not on all constraint surfaces: a = {a}")
    rates = np.asarray(mm.constraint_jac(qa), dtype=float) @ qda
    if float(np.min(np.abs(rates))) < TANGENCY_TOL:
        raise TangentialCrossing(f"constraint rates {rates} include a tangency")
    incoming = sign_of(-rates)
    field = soft_constraint_field(mm, dissipative=dissipative)
    state = np.concatenate([qa, qda])
    return field.corner_model(state, incoming)


# -- vertical-plane biped ------------------------------------------------------


def biped_model(
    m: float = 1.0,
    J: float = 1.0,
    ell: float = 1.0,
    psi: float = 0.1,
    g: float = 1.0,
    damping_policy: str = "uniform",
    beta: float = 0.5,
    kappa: float = 10.0,
) -> MechanicalModel:
    """Planar rigid body with two massless legs over a parabolic substrate.

    Configuration q = (x, y, theta); each leg tip traces a circle of radius
    ell about the center of mass, and its clearance above the substrate
    (height falling quadratically with horizontal position) is a unilateral
    constraint.  The two legs are mirror images through the vertical axis, so
    a straight symmetric drop reaches both constraint surfaces at once.
    Policies: 'uniform' (constraint-independent damping, flow stays C1) or
    'xor' (support-dependent damping, activation order matters).
    """
    # a NaN fails both comparisons
    if not all(0.0 < x < math.inf for x in (m, J, ell, g)):
        raise ValueError("biped parameters must be positive")

    def constraints(q: np.ndarray) -> np.ndarray:
        x, y, th = q
        return np.array(
            [
                y + (x + ell * math.cos(th - psi)) ** 2 + ell * math.sin(th - psi),
                y + (x - ell * math.cos(th + psi)) ** 2 - ell * math.sin(th + psi),
            ]
        )

    def constraint_jac(q: np.ndarray) -> np.ndarray:
        x, y, th = q
        u1 = x + ell * math.cos(th - psi)
        u2 = x - ell * math.cos(th + psi)
        return np.array(
            [
                [2 * u1, 1.0, -2 * u1 * ell * math.sin(th - psi) + ell * math.cos(th - psi)],
                [2 * u2, 1.0, 2 * u2 * ell * math.sin(th + psi) - ell * math.cos(th + psi)],
            ]
        )

    policies = {
        "uniform": uniform_damping(beta, 2),
        "xor": xor_damping(beta),
    }
    if damping_policy not in policies:
        raise ValueError(f"unknown damping policy {damping_policy!r}")

    mass = np.diag([m, m, J])
    return MechanicalModel(
        m_q=3,
        n=2,
        mass_matrix=lambda q: mass,
        forcing=lambda q, qd: np.array([0.0, -m * g, 0.0]),
        constraints=constraints,
        constraint_jac=constraint_jac,
        kappa=np.full(2, float(kappa)),
        damping_policy=policies[damping_policy],
    )


def biped_corner_state(
    ell: float = 1.0, psi: float = 0.1, ydot: float = -1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric double-touchdown state: both clearances vanish at x = theta = 0."""
    y_star = ell * math.sin(psi) - (ell * math.cos(psi)) ** 2
    return np.array([0.0, y_star, 0.0]), np.array([0.0, float(ydot), 0.0])


# The command-line model flags each preset reads, besides --seed.
_PRESET_FLAGS = {
    "pwc": ("dim",),
    "pwc-linear": ("dim", "delta"),
    "biped-uniform": ("psi", "beta"),
    "biped-xor": ("psi", "beta"),
}


def preset(
    name: str,
    d: int = 2,
    delta: float = 0.5,
    seed: int = 0,
    psi: float = 0.1,
    beta: float = 0.5,
) -> tuple[PiecewiseField, CornerModel]:
    """Named model presets addressable from the command line.

    The pwc presets build a table of 2**d orthants, so they refuse
    d > ``VALIDATION_ENUM_CAP``, the largest table validation scans.
    """
    if name in ("pwc", "pwc-linear"):
        if d < 1:
            raise ValueError(f"preset {name} needs d >= 1, got d = {d}")
        if d > VALIDATION_ENUM_CAP:
            raise CapExceeded(
                f"preset {name} needs d <= {VALIDATION_ENUM_CAP} (2**d orthants), got d = {d}"
            )
    if name == "pwc-linear":
        _check_linear_delta(delta)
        signs = np.where(np.arange(1 << d)[:, None] >> np.arange(d) & 1, 1.0, -1.0)
        return _pwc_model(d, -delta * signs)
    if name == "pwc":
        rng = np.random.default_rng(seed)
        # one draw per orthant in lexicographic order, then rows by mask
        draws = np.array([rng.uniform(-0.9, 2.0, size=d) for _ in range(1 << d)])
        return _pwc_model(d, draws[_bit_reversal(d)])
    if name in ("biped-uniform", "biped-xor"):
        mm = biped_model(psi=psi, beta=beta, damping_policy=name.split("-")[1])
        q, qd = biped_corner_state(psi=psi)
        field = soft_constraint_field(mm, dissipative=True)
        corner = mech_corner_model(mm, q, qd)
        return field, corner
    raise ValueError(f"unknown preset {name!r}; try {', '.join(_PRESET_FLAGS)}")
