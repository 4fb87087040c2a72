"""Trajectory and sensitivity integration for event-selected fields.

Within an orthant the field is smooth, so states follow a fixed-step RK4
integration and state sensitivities follow the linear variational equation
along the same steps.  :func:`integrate` runs one pass per segment: it
builds the orthant's selection, steps until a step flips the side of some
surface or the horizon is reached, and turns that step into the segment's
end and its event in one place.  Event times are localized there by
bisection on the event function composed with partial RK4 steps, and
crossings within the simultaneity tolerance merge into one corner event.

The derivative of the flow has one path, :func:`flow_bderivative`: it
freezes the field at every event, single crossing or corner, into one
table-backed :class:`~nsflow.core.CornerModel` of the surfaces that cross
there.  A single crossing is the n = 1 case, whose one linear piece (the
rank-1 saltation matrix) folds into the segment sensitivities; a corner
stays a piecewise-linear stage.  For any number of events the result is a
:class:`BFlowDerivative`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bderiv import b_evaluate, saltation_matrix
from .core import DEFAULT_F_MIN, Permutation, PiecewiseField, SignVector, _read, _scalar
from .errors import StepTooLarge, TangentialCrossing

__all__ = [
    "TrajectorySegment",
    "EventRecord",
    "IntegrationResult",
    "integrate",
    "variational",
    "flow_bderivative",
    "BFlowDerivative",
]

DEFAULT_STEPS = 4096
EVENT_HTOL = 1e-11
SIGN_CLAMP_TOL = 3e-11
SIMULTANEITY_TOL = 1e-9
MAX_BISECT = 200
_ONE_SURFACE = Permutation((1,))


@dataclass(frozen=True)
class TrajectorySegment:
    """A smooth stretch of trajectory: strictly increasing times, states, and
    the mask of the orthant whose selection field was integrated (bit j set
    where ``h_j >= 0``)."""

    times: np.ndarray
    states: np.ndarray
    active_orthant: int

    @property
    def x_start(self) -> np.ndarray:
        return self.states[0]

    @property
    def x_end(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True)
class EventRecord:
    """A localized surface crossing. ``surfaces`` holds 1-based indices; two or
    more indices mean the crossings merged into a corner event."""

    time: float
    surfaces: tuple[int, ...]
    state: np.ndarray

    @property
    def is_corner(self) -> bool:
        return len(self.surfaces) > 1

    def to_json_dict(self) -> dict:
        surface: object = "corner" if self.is_corner else self.surfaces[0]
        return {"time": self.time, "surface": surface, "state": self.state.tolist()}


@dataclass(frozen=True)
class IntegrationResult:
    segments: list[TrajectorySegment]
    events: list[EventRecord]

    @property
    def x_end(self) -> np.ndarray:
        return self.segments[-1].x_end


def _rk4_step(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float) -> np.ndarray:
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _event_values(h_x, t: float, n: int) -> list[float]:
    """``h_x``, the event functions at time t, as n floats, refused unless it
    is real, of shape (n,) and finite: a NaN has no side, and an infinite
    value no localizable crossing."""
    # t goes in as a default argument: a closure over it would make it a cell, which costs every read
    values = _read(h_x, lambda t=t: f"h at t = {t:.6g}", (n,), finite=False).tolist()
    if not all(map(math.isfinite, values)):
        nan = [j + 1 for j, v in enumerate(values) if v != v]
        if nan:
            raise ValueError(f"h is NaN on surface(s) {nan} at t = {t:.6g}; a NaN has no side")
        inf = [j + 1 for j, v in enumerate(values) if not math.isfinite(v)]
        raise ValueError(f"h is infinite on surface(s) {inf} at t = {t:.6g}; its crossing cannot be localized")
    return values


def _bisect_crossing(
    f: Callable[[np.ndarray], np.ndarray],
    field: PiecewiseField,
    x0: np.ndarray,
    h: float,
    j: int,
    t0: float,
    v0: float,
    v1: float,
    x1: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Find alpha in (0, h] where event function j crosses zero along the
    frozen-field RK4 step map from x0, reached at time t0.  The bracket is
    the step's own: h_j is v0 at x0 and v1 at the step end x1."""
    scale = max(1.0, abs(v0), abs(v1))
    if abs(v0) <= SIGN_CLAMP_TOL * scale:
        # the step started on the surface itself: the crossing is here
        return 0.0, x0
    if v0 * v1 > 0.0:
        raise StepTooLarge(
            f"event function {j} does not bracket a crossing within the step"
        )
    lo, hi = 0.0, h
    v_hi, x_hi = v1, x1
    for _ in range(MAX_BISECT):
        mid = 0.5 * (lo + hi)
        x_mid = _rk4_step(f, x0, mid)
        v_mid = _event_values(field.h(x_mid), t0 + mid, field.n)[j - 1]
        if abs(v_mid) <= EVENT_HTOL * scale:
            return mid, x_mid
        if v0 * v_mid > 0.0:
            lo = mid
        else:
            hi, v_hi, x_hi = mid, v_mid, x_mid
    if abs(v_hi) <= 1e3 * EVENT_HTOL * scale:
        return hi, x_hi
    raise StepTooLarge(f"bisection failed to localize event function {j}")


def integrate(
    field: PiecewiseField,
    x0: Sequence[float] | np.ndarray,
    t: float,
    steps: int = DEFAULT_STEPS,
) -> IntegrationResult:
    """Integrate the field for time ``t`` from ``x0``, localizing every surface
    crossing and merging near-simultaneous crossings into corner events.

    Fixed-step RK4 with the selection field frozen per orthant; each step that
    flips event-function signs is refined by bisection to |h_j| <= 1e-11 at
    the crossing, and crossings within ``SIMULTANEITY_TOL`` time units merge.
    Raises :class:`TangentialCrossing` when the normal speed at a localized
    crossing is NaN or falls below ``DEFAULT_F_MIN``, the floor the event's
    corner model is validated against, and ``ValueError`` on a ``t`` that is
    not a finite real number >= 0 (a str, bytes, bool, complex or None is
    not), a ``steps`` that is not an int >= 1 (a bool is not), a
    non-finite or wrongly shaped ``x0``, a value of ``h`` that is not real,
    not one value per surface or not finite (NaN or infinite), wherever
    ``h`` is read, or a ``dh`` that is not real or not (n, d).
    """
    x = _read(x0, "x0", (field.d,))
    t = _scalar(t, "integrate expects a finite t >= 0", 0.0, math.inf)
    steps = _scalar(steps, "integrate expects an int steps >= 1", 1, math.inf, integer=True)
    h_cur = _event_values(field.h(x), 0.0, field.n)  # h at x, the current step's start
    mask = sum(1 << j for j, v in enumerate(h_cur) if v >= 0.0)  # zero and -0.0 on the + side
    h_step = t / steps
    segments: list[TrajectorySegment] = []
    events: list[EventRecord] = []
    t_cur = 0.0
    while True:  # one pass per segment: it ends at the first step that flips a side, or at t
        fb = field.selection(SignVector.from_mask(mask, field.n))
        if events:  # the segment starts at the last event, where h is read once more
            h_cur = _event_values(field.h(x), t_cur, field.n)
        times, states, flipped = [t_cur], [x], []
        while t_cur < t - 1e-15 * max(1.0, t):
            if len(events) > 100 * field.n + 1000:
                raise StepTooLarge(
                    "event count exploded; the field is likely not event-selected "
                    "along this trajectory (chatter)"
                )
            h = min(h_step, t - t_cur)
            x_new = _rk4_step(fb.value, x, h)
            h_new = _event_values(field.h(x_new), t_cur + h, field.n)
            # surfaces whose side differs from the orthant's: - with bit j set, or + without,
            # outside a clamp band so the just-localized surface does not re-trigger
            flipped = [
                j + 1 for j, v in enumerate(h_new) if abs(v) > SIGN_CLAMP_TOL and (v < 0.0) == (mask >> j & 1)
            ]
            if flipped:
                break
            t_cur += h
            x, h_cur = x_new, h_new
            times.append(t_cur)
            states.append(x)  # np.array below copies the states

        if flipped:  # the step that flipped a side ends the segment at its earliest crossing
            crossings = [
                (j, *_bisect_crossing(fb.value, field, x, h, j, t_cur, h_cur[j - 1], h_new[j - 1], x_new))
                for j in flipped
            ]
            alpha_min = min(c[1] for c in crossings)
            event_set = sorted(j for j, a, _ in crossings if a - alpha_min <= SIMULTANEITY_TOL)
            near = [j for j, a, _ in crossings if SIMULTANEITY_TOL < a - alpha_min <= 1e3 * SIMULTANEITY_TOL]
            if near:
                warnings.warn(
                    f"crossings of surfaces {near} fall just outside the simultaneity "
                    f"tolerance {SIMULTANEITY_TOL:g} and are treated as sequential",
                    RuntimeWarning,
                    stacklevel=2,
                )
            x_event = next(xe for j, a, xe in crossings if a == alpha_min)
            t_event = t_cur + alpha_min
            dh_event = _read(field.dh(x_event), "dh", (field.n, field.d), finite=False)
            f_pre = fb.value(x_event)
            for j in event_set:
                speed = float(dh_event[j - 1] @ f_pre)
                if not abs(speed) >= DEFAULT_F_MIN:  # a NaN speed too
                    raise TangentialCrossing(
                        f"surface {j} crossed with normal speed {speed:.3g} at t = {t_event:.6g}"
                    )
            if alpha_min > 0.0:
                times.append(t_event)
                states.append(x_event)
        segments.append(TrajectorySegment(times=np.array(times), states=np.array(states), active_orthant=mask))
        if not flipped:
            return IntegrationResult(segments=segments, events=events)
        # a copy: at alpha = 0 the crossing state is the step start, on the first step the caller's x0
        events.append(EventRecord(time=t_event, surfaces=tuple(event_set), state=x_event.copy()))
        mask ^= sum(1 << (j - 1) for j in event_set)
        t_cur, x = t_event, x_event


def variational(
    field: PiecewiseField,
    segment: TrajectorySegment,
) -> np.ndarray:
    """Sensitivity matrix of the smooth flow along one segment.

    Integrates state and matrix jointly, dX = DF(x) X dt from the identity,
    with RK4 over the segment's own step grid.
    """
    fb = field.selection(SignVector.from_mask(segment.active_orthant, field.n))
    d = field.d

    def rhs(z: np.ndarray) -> np.ndarray:
        xz = z[:d]
        Xz = z[d:].reshape(d, d)
        return np.concatenate([fb.value(xz), (fb.jacobian(xz) @ Xz).ravel()])

    z = np.concatenate([segment.x_start, np.eye(d).ravel()])
    times = segment.times
    for i in range(len(times) - 1):
        z = _rk4_step(rhs, z, float(times[i + 1] - times[i]))
    return z[d:].reshape(d, d)


@dataclass(frozen=True)
class BFlowDerivative:
    """Directional derivative of the flow along one trajectory.

    ``stages`` are applied left to right along the trajectory: each
    ``("linear", matrix)`` collapses smooth-segment sensitivities and
    single-surface saltations, and each ``("corner", CornerModel)`` is the
    piecewise-linear derivative of a corner event.  ``corner_surfaces[k]``
    holds the 1-based field surfaces of the k-th corner stage, which map the
    corner model's local crossing orders back to the field.  A direction of
    any shape but (d,), or with a non-finite entry, is a ``ValueError``
    before any stage runs.
    """

    stages: tuple[tuple[str, object], ...]
    corner_surfaces: tuple[tuple[int, ...], ...]

    def _walk(self, delta_x0: Sequence[float] | np.ndarray) -> tuple[np.ndarray, list]:
        v = _read(delta_x0, "direction", (self.stages[0][1].shape[1],))
        sigmas = []
        for kind, payload in self.stages:
            if kind == "linear":
                v = payload @ v
            else:
                r = b_evaluate(payload, v)
                v = r.delta_rho_plus
                sigmas.append(r.sigma)
        return v, sigmas

    def __call__(self, delta_x0: Sequence[float] | np.ndarray) -> np.ndarray:
        return self._walk(delta_x0)[0]

    def crossing_orders(self, delta_x0: Sequence[float] | np.ndarray) -> tuple[tuple[int, ...], ...]:
        """Field surfaces (1-based) in the order ``delta_x0`` crosses them,
        one tuple per corner stage."""
        sigmas = self._walk(delta_x0)[1]
        return tuple(
            tuple(surfaces[i - 1] for i in sigma.order)
            for surfaces, sigma in zip(self.corner_surfaces, sigmas)
        )


def flow_bderivative(
    field: PiecewiseField,
    x0: Sequence[float] | np.ndarray,
    t: float,
    result: IntegrationResult | None = None,
    steps: int = DEFAULT_STEPS,
) -> BFlowDerivative:
    """Chain segment sensitivities and event updates along a whole trajectory.

    A single crossing is validated here (:class:`NotEventSelected` when its
    exit field does not cross transversally), a corner when applied.
    """
    if result is None:
        result = integrate(field, x0, t, steps=steps)
    stages: list[tuple[str, object]] = []
    corner_surfaces: list[tuple[int, ...]] = []
    acc = variational(field, result.segments[0])

    for i, event in enumerate(result.events):
        model = field.corner_model(event.state, result.segments[i].active_orthant, event.surfaces)
        if event.is_corner:
            stages.append(("linear", acc))
            stages.append(("corner", model))
            corner_surfaces.append(event.surfaces)
            acc = np.eye(field.d)
        else:
            acc = saltation_matrix(model, _ONE_SURFACE) @ acc
        acc = variational(field, result.segments[i + 1]) @ acc

    stages.append(("linear", acc))
    return BFlowDerivative(stages=tuple(stages), corner_surfaces=tuple(corner_surfaces))
