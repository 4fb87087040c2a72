"""Exact flow of the frozen corner dynamics: the ground-truth oracle.

Freezing each orthant selection of an event-selected field at its corner
value yields a piecewise-constant field over the arrangement of surface
tangent planes.  Its flow is piecewise affine and computable in closed form
by event stepping, with no numerical integration: within an orthant the state
moves along a constant vector, and every plane-crossing time is a ratio of
two dot products.  The time-1 map of this system relative to the
through-corner trajectory *is* the corner derivative, which makes this
module the ground-truth oracle for :mod:`nsflow.bderiv`.

One plane-to-plane stepper serves both entry points: :func:`sampled_flow`
stops it at a time ``t``, :func:`time_to_impact_sampled` runs it until every
plane is crossed.  It is deliberately kept apart from ``b_evaluate``: it
steps a point in state space with tolerance-aware plane tests rather than a
tangent vector through the crossing order, and it shares only the model's
plain-float accessors (``eta_rows``, ``eta_norms``, and ``gamma_row``, which
reads the orthant limits by crossed-surface mask) with the kernel it checks,
never the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite, sqrt
from operator import mul
from typing import Sequence

import numpy as np

from .core import CornerModel, SignVector
from .errors import DegenerateDenominator

__all__ = ["SampledState", "sampled_flow", "time_to_impact_sampled", "rho_minus", "rho_plus"]

PLANE_ATOL = 1e-12


@dataclass(frozen=True)
class SampledState:
    """A point together with its orthant in the frozen dynamics.

    The orthant must agree with ``sign(eta (x - rho))`` up to the plane
    tolerance; points on a plane count as already crossed (+1).
    """

    x: np.ndarray
    b: SignVector

    @staticmethod
    def at(m: CornerModel, x: Sequence[float] | np.ndarray) -> "SampledState":
        """The consistent state at ``x``: orthant read off the plane values."""
        _, mask, _ = _planes(m, _point(m, x), m.rho.tolist(), 0)
        return SampledState(x=np.asarray(x, dtype=float), b=SignVector.from_mask(mask, m.n))


def rho_minus(m: CornerModel) -> np.ndarray:
    """Point half a time unit before the corner along the entry field."""
    return m.rho - 0.5 * m.gamma_at(0)


def rho_plus(m: CornerModel) -> np.ndarray:
    """Point half a time unit past the corner along the exit field."""
    return m.rho + 0.5 * m.gamma_at((1 << m.n) - 1)


def _point(m: CornerModel, x: Sequence[float] | np.ndarray) -> list[float]:
    """``x`` as plain floats, once it is known to be a finite point of shape (d,)."""
    xa = np.asarray(x, dtype=float)
    if xa.shape != (m.d,):
        raise ValueError(f"point has shape {xa.shape}, expected ({m.d},)")
    pts = xa.tolist()
    if not all(map(isfinite, pts)):
        raise ValueError(f"point has non-finite entries: {pts}")
    return pts


def _planes(m: CornerModel, x: list[float], rho: list[float], mask: int):
    """Plane values ``eta_j . (x - rho)`` of the surfaces not crossed in ``mask``.

    Marks as crossed, and lists, the uncrossed surfaces whose value is past or
    within ``PLANE_ATOL * max(1, |eta_j| max(1, |x - rho|))`` below their
    plane, so a point on a plane counts as crossed.  Crossed surfaces get 0.
    Returns the values, the updated mask and the newly crossed surfaces.
    """
    diff = [xi - ri for xi, ri in zip(x, rho)]
    scale = max(1.0, sqrt(sum(map(mul, diff, diff))))
    vals = [0.0] * m.n
    crossed = []
    for j, (row, norm) in enumerate(zip(m.eta_rows(), m.eta_norms())):
        if not mask >> j & 1:
            v = vals[j] = sum(map(mul, row, diff))
            if v >= -PLANE_ATOL * max(1.0, norm * scale):
                mask |= 1 << j
                crossed.append(j)
    return vals, mask, crossed


def _step_planes(m: CornerModel, x0: Sequence[float] | np.ndarray, t: float | None):
    """Event-step the frozen flow from ``x0`` plane to plane.

    In the current orthant b the field is ``gamma(b)``; each uncrossed
    surface j is reached after ``-(eta_j . (x - rho)) / (eta_j . gamma(b))``.
    The earliest one, ties to the smallest index, flips its sign together
    with any other plane reached within tolerance.  Every surface value
    increases at rate at least f_min, so each surface is crossed once and
    there are at most n steps.  Stops at time ``t``, or with
    ``t=None`` once every plane is crossed.  Returns the end point and the
    per-surface crossing times (0 for surfaces crossed at the start, and for
    those not reached by time ``t``).
    """
    m.require_valid()
    if t is not None and not t >= 0.0:
        raise ValueError(f"the frozen flow is defined for t >= 0 only, got t = {t}")
    x = _point(m, x0)
    rows, rho, f_min, n = m.eta_rows(), m.rho.tolist(), m.f_min, m.n
    vals, mask, _ = _planes(m, x, rho, 0)
    tau = [0.0] * n
    remaining = inf if t is None else float(t)
    elapsed = 0.0
    while remaining > 0.0 and (t is not None or mask != (1 << n) - 1):
        g = m.gamma_row(mask)
        s_best, j_best = inf, -1
        for j in range(n):
            if mask >> j & 1:
                continue
            den = sum(map(mul, rows[j], g))
            if not den >= f_min:
                raise DegenerateDenominator(
                    f"eta_{j + 1} . gamma({SignVector.from_mask(mask, n)}) = {den:.3g} "
                    f"below floor {f_min:.3g}"
                )
            s = -vals[j] / den  # > 0: uncrossed means below the plane tolerance
            if s < s_best:
                s_best, j_best = s, j
        if s_best >= remaining:  # also when every plane is crossed (s_best = inf)
            x = [xi + remaining * gi for xi, gi in zip(x, g)]
            break
        x = [xi + s_best * gi for xi, gi in zip(x, g)]
        remaining -= s_best
        elapsed += s_best
        mask |= 1 << j_best
        tau[j_best] = elapsed
        # surfaces reached within tolerance in the same step count as crossed
        vals, mask, crossed = _planes(m, x, rho, mask)
        for j in crossed:
            tau[j] = elapsed
    return np.array(x), np.array(tau)


def sampled_flow(m: CornerModel, t: float, x0: Sequence[float] | np.ndarray) -> np.ndarray:
    """Exact time-``t`` flow of the frozen dynamics from ``x0`` (t >= 0, x0 finite)."""
    return _step_planes(m, x0, float(t))[0]


def time_to_impact_sampled(m: CornerModel, x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Per-surface times at which the frozen flow from ``x`` meets each plane.

    Surfaces already (weakly) crossed at ``x`` report time 0; the rest report
    the accumulated event-stepping time of their crossing, which is finite
    because every surface value increases at rate at least f_min.
    """
    return _step_planes(m, x, None)[1]
