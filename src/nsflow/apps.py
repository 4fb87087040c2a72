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
from typing import Callable, Sequence

import numpy as np

from .core import (
    VALIDATION_ENUM_CAP,
    CornerModel,
    PiecewiseField,
    SignVector,
    SmoothField,
    _bit_reversal,
    _orthant,
    _read,
    _scalar,
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


def pwc_linear_delta(d: int, delta: float) -> np.ndarray:
    """The scalar special case ``delta(b) = -delta * b`` (|delta| < 1), as the
    (2**d, d) offsets by orthant mask."""
    d = _scalar(d, "d must be an int >= 1", 1, math.inf, integer=True)
    _check_linear_delta(delta)
    return -delta * np.where(np.arange(1 << d)[:, None] >> np.arange(d) & 1, 1.0, -1.0)


def pwc_model(d: int, offsets: np.ndarray | Sequence[Sequence[float]]) -> tuple[PiecewiseField, CornerModel]:
    """Build the canonical piecewise-constant field with its corner at 0.

    Surfaces are the coordinate hyperplanes (normals the identity rows); the
    orthant limit is ``1 + delta(b)``, where row ``mask`` of the (2**d, d)
    ``offsets`` is ``delta`` of orthant ``mask``.  The transversality floor is
    set below the weakest actual crossing rate so any legal offset table
    validates; a component at or below -1, a NaN among them, is refused.
    """
    d = _scalar(d, "d must be an int >= 1", 1, math.inf, integer=True)
    offsets = _read(offsets, "offsets", (1 << d, d), finite=False)
    worst = float(offsets.min())
    if not worst > -1.0:
        raise InvalidDelta(f"offset component {worst} is not larger than -1")
    rates = 1.0 + offsets
    corner = CornerModel(np.zeros(d), np.eye(d), f_min=min(1e-9, 0.1 * float(rates.min())), table=rates)

    def selection(b: SignVector) -> SmoothField:
        g = corner.gamma_vec(b)
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
    """Second-order mechanics ``M qdd = f(q, qd)``, M constant, with unilateral
    constraints ``a(q) >= 0`` softened by springs kappa and dampers from a
    damping policy (a function of the violated-constraint set).  ``mass`` and
    ``kappa`` are checked once, when the model is built, and kept read-only.
    What ``forcing``, ``constraints``, ``constraint_jac`` and the policy return
    is read through :meth:`_f`, :meth:`_a`, :meth:`_Da` and :meth:`_betas`, each
    refused unless real and of shape (m_q,), (n,), (n, m_q) or (n,); the
    forcing and the policy are also refused unless finite."""

    m_q: int
    n: int
    mass: np.ndarray
    forcing: Callable[[np.ndarray, np.ndarray], np.ndarray]
    constraints: Callable[[np.ndarray], np.ndarray]
    constraint_jac: Callable[[np.ndarray], np.ndarray]
    kappa: np.ndarray
    damping_policy: DampingPolicy

    def __post_init__(self) -> None:
        M = np.array(_read(self.mass, "mass", (self.m_q, self.m_q), finite=False))
        if not np.isfinite(M).all():
            raise SingularMass("mass matrix not finite")
        # cholesky reads only the lower triangle, solve reads all of M
        if np.abs(M - M.T).max() > MASS_SYMMETRY_RTOL * np.abs(M).max():
            raise SingularMass("mass matrix not symmetric")
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError as exc:
            raise SingularMass("mass matrix not SPD") from exc
        M.setflags(write=False)
        object.__setattr__(self, "mass", M)
        kappa = np.array(_read(self.kappa, "kappa", (self.n,)))
        kappa.setflags(write=False)
        object.__setattr__(self, "kappa", kappa)

    @property
    def d(self) -> int:
        return 2 * self.m_q

    def mass_solve(self, rhs: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.mass, rhs)

    def _f(self, q: np.ndarray, qd: np.ndarray) -> np.ndarray:
        return _read(self.forcing(q, qd), "the forcing f(q, qd)", (self.m_q,))

    def _a(self, q: np.ndarray, finite: bool = False) -> np.ndarray:
        return _read(self.constraints(q), "the constraint value a(q)", (self.n,), finite)

    def _Da(self, q: np.ndarray, finite: bool = False) -> np.ndarray:
        return _read(self.constraint_jac(q), "the constraint Jacobian Da(q)", (self.n, self.m_q), finite)

    def _betas(self, active: frozenset[int]) -> np.ndarray:
        return _read(self.damping_policy(active), "the damping beta(active)", (self.n,))

    def acceleration(
        self, q: np.ndarray, qd: np.ndarray, active: frozenset[int], dissipative: bool
    ) -> np.ndarray:
        rhs = self._f(q, qd).copy()
        if active:
            a = self._a(q)
            Da = self._Da(q)
            betas = self._betas(active) if dissipative else None
            for j in active:
                mag = self.kappa[j - 1] * a[j - 1]
                if dissipative:
                    mag += betas[j - 1] * float(Da[j - 1] @ qd)
                rhs -= mag * Da[j - 1]
        return self.mass_solve(rhs)


def _fd_jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    h = 1e-6  # central-difference step
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
        return mm._a(np.asarray(x, dtype=float)[:m_q])

    def dh(x: np.ndarray) -> np.ndarray:
        return np.hstack([mm._Da(np.asarray(x, dtype=float)[:m_q]), np.zeros((n, m_q))])

    def selection(b: SignVector) -> SmoothField:
        mask = _orthant(b, "the orthant", n)
        active = frozenset(j for j in range(1, n + 1) if not mask >> j - 1 & 1)

        def value(x: np.ndarray, _active=active) -> np.ndarray:
            xa = np.asarray(x, dtype=float)
            q, qd = xa[:m_q], xa[m_q:]
            return np.concatenate([qd, mm.acceleration(q, qd, _active, dissipative)])

        return SmoothField(value=value, jacobian=lambda x, _v=value: _fd_jacobian(_v, np.asarray(x, dtype=float)))

    return PiecewiseField(d=mm.d, n=n, rho=np.zeros(mm.d), h=h, dh=dh, selection=selection)


def _mech_state(mm: MechanicalModel, q, qdot):
    """``q``, ``qdot``, ``a(q)`` and ``Da(q)`` as float arrays of shapes (m_q,),
    (m_q,), (n,) and (n, m_q); refused with a ``ValueError`` unless finite and of those shapes."""
    qa = _read(q, "q", (mm.m_q,))
    qda = _read(qdot, "qdot", (mm.m_q,))
    return qa, qda, mm._a(qa, finite=True), mm._Da(qa, finite=True)


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
    a ``j`` that is not an int in 1..n (a bool is not) and a crossing rate
    ``|Da_j . qd|`` below ``TANGENCY_TOL`` are refused.
    """
    j = _scalar(j, f"j must be a constraint in 1..{mm.n}", 1, mm.n, integer=True)
    qa, qda, a, Da = _mech_state(mm, q, qdot)
    w = float(Da[j - 1] @ qda)
    if abs(w) < TANGENCY_TOL:
        raise TangentialCrossing(f"constraint {j} crossed with rate {w:.3g}")
    beta_j = float(mm._betas(frozenset({j}))[j - 1])
    mag = float(mm.kappa[j - 1] * a[j - 1]) + beta_j * w
    col = mm.mass_solve(Da[j - 1]) * mag
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
    qa, qda, a, Da = _mech_state(mm, q, qdot)
    if float(np.max(np.abs(a))) > CORNER_TOL:
        raise ValueError(f"state is not on all constraint surfaces: a = {a}")
    rates = Da @ qda
    if not np.isfinite(rates).all():  # an overflow of finite products: inf, or inf - inf
        raise ValueError(f"constraint rates {rates} include a non-finite rate")
    if float(np.min(np.abs(rates))) < TANGENCY_TOL:
        raise TangentialCrossing(f"constraint rates {rates} include a tangency")
    # before the event a constraint that is falling (a negative rate) sits on its + side
    incoming = sum(1 << j for j, rate in enumerate(rates.tolist()) if rate < 0.0)
    field = soft_constraint_field(mm, dissipative=dissipative)
    state = np.concatenate([qa, qda])
    return field.corner_model(state, incoming)


# -- vertical-plane biped ------------------------------------------------------


BIPED_MASS = 1.0  # body mass
BIPED_INERTIA = 1.0  # moment of inertia
BIPED_LEG = 1.0  # leg length
BIPED_GRAVITY = 1.0
BIPED_KAPPA = 10.0  # constraint spring stiffness


def biped_model(psi: float = 0.1, damping_policy: str = "uniform", beta: float = 0.5) -> MechanicalModel:
    """Planar rigid body with two massless legs over a parabolic substrate.

    Configuration q = (x, y, theta); each leg tip traces a circle of radius
    ``BIPED_LEG`` about the center of mass, and its clearance above the substrate
    (height falling quadratically with horizontal position) is a unilateral
    constraint.  The two legs are mirror images through the vertical axis, so
    a straight symmetric drop reaches both constraint surfaces at once.
    Policies: 'uniform' (constraint-independent damping, flow stays C1) or
    'xor' (support-dependent damping, activation order matters).
    """
    ell = BIPED_LEG

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

    policies = {"uniform": uniform_damping(beta, 2), "xor": xor_damping(beta)}
    if damping_policy not in policies:
        raise ValueError(f"unknown damping policy {damping_policy!r}")

    return MechanicalModel(
        m_q=3,
        n=2,
        mass=np.diag([BIPED_MASS, BIPED_MASS, BIPED_INERTIA]),
        forcing=lambda q, qd: np.array([0.0, -BIPED_MASS * BIPED_GRAVITY, 0.0]),
        constraints=constraints,
        constraint_jac=constraint_jac,
        kappa=np.full(2, BIPED_KAPPA),
        damping_policy=policies[damping_policy],
    )


def biped_corner_state(psi: float = 0.1, ydot: float = -1.0) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric double-touchdown state: both clearances vanish at x = theta = 0."""
    y_star = BIPED_LEG * math.sin(psi) - (BIPED_LEG * math.cos(psi)) ** 2
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
    d > ``VALIDATION_ENUM_CAP`` as a work cap.
    """
    if name in ("pwc", "pwc-linear"):
        d = _scalar(d, f"preset {name} needs an int d >= 1", 1, math.inf, integer=True)
        if d > VALIDATION_ENUM_CAP:
            raise CapExceeded(
                f"preset {name} needs d <= {VALIDATION_ENUM_CAP} (2**d orthants), got d = {d}"
            )
    if name == "pwc-linear":
        return pwc_model(d, pwc_linear_delta(d, delta))
    if name == "pwc":
        rng = np.random.default_rng(seed)
        # one row of draws per orthant in lexicographic order, then rows by mask
        draws = rng.uniform(-0.9, 2.0, size=(1 << d, d))
        return pwc_model(d, draws[_bit_reversal(d)])
    if name in ("biped-uniform", "biped-xor"):
        mm = biped_model(psi=psi, beta=beta, damping_policy=name.split("-")[1])
        q, qd = biped_corner_state(psi=psi)
        field = soft_constraint_field(mm, dissipative=True)
        corner = mech_corner_model(mm, q, qd)
        return field, corner
    raise ValueError(f"unknown preset {name!r}; try {', '.join(_PRESET_FLAGS)}")
