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
plane is crossed; :func:`rho_minus` and :func:`rho_plus` are the points half
a time unit before and past the corner on the through-corner trajectory.
Both entry points take one point (d,) or a block of points (k, d), and the
stepper advances every row of the block at once in numpy, one plane per row
and step.  Each row is bitwise equal to stepping that point alone: every dot
product is summed left to right along the state axis, and each row takes the
first strictly smallest crossing time.  The stepper is deliberately kept
apart from ``b_evaluate``: it steps points in state space with
tolerance-aware plane tests rather than a tangent vector through the
crossing order, and it reads only ``eta``, the ``eta`` row norms and the
orthant limits (the gamma table, or a lazy gamma read by mask once per
orthant in a pass), never the kernel's loop.  For a table model it builds its
own (2^n, n) table of normal speeds once per model, with its own
left-to-right sums in blocks of at most 1024 orthants, and never reads
``CornerModel.speeds()``, which the kernels and validation use.  Only a lazy
gamma's speeds are tested against the floor here, as each orthant is read:
validation may never have read a slow orthant of a lazy model with n > 16.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import CornerModel, _below_floor, _read, _time

__all__ = ["sampled_flow", "time_to_impact_sampled", "rho_minus", "rho_plus"]

PLANE_ATOL = 1e-12

Points = Sequence[float] | Sequence[Sequence[float]] | np.ndarray


def rho_minus(m: CornerModel) -> np.ndarray:
    """Point half a time unit before the corner along the entry field."""
    return m.rho - 0.5 * m.gamma_at(0)


def rho_plus(m: CornerModel) -> np.ndarray:
    """Point half a time unit past the corner along the exit field."""
    return m.rho + 0.5 * m.gamma_at((1 << m.n) - 1)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, summed left to right as ``sum`` does."""
    return np.add.accumulate(a * b, axis=-1)[..., -1]


def _planes(m: CornerModel, x: np.ndarray, crossed: np.ndarray):
    """Plane values ``eta_j . (x - rho)`` at each row of ``x``, shape (k, n).

    Also returns ``crossed`` with every surface marked whose value is past or
    within ``PLANE_ATOL * max(1, |eta_j| max(1, |x - rho|))`` below its
    plane, so a point on a plane counts as crossed.
    """
    diff = x - m.rho
    scale = np.maximum(1.0, np.sqrt(_dot(diff, diff)))
    vals = _dot(diff[:, None, :], m.eta)
    near = vals >= -PLANE_ATOL * np.maximum(1.0, m.eta_norms() * scale[:, None])
    return vals, crossed | near


def _limits(m: CornerModel, crossed: np.ndarray):
    """Orthant limits ``gamma(b)`` and normal speeds ``eta_j . gamma(b)`` at the
    orthant of each row of a (k, n) bool block of crossed surfaces, shapes (k, d), (k, n).

    A table model reads both from :func:`_speed_table`.  A lazy gamma is
    called, and its speeds summed, once for each distinct orthant among the
    rows, and an uncrossed surface whose speed is below f_min there is refused.
    """
    if m.table is not None:
        weights, speeds = _speed_table(m)
        mask = crossed.dot(weights)
        return m.table[mask], speeds[mask]
    # each row's mask as a Python int, so any n works: bit j is byte j // 8, bit j % 8
    packed = np.packbits(crossed, axis=1, bitorder="little")
    slot: dict[int, int] = {}
    index = [slot.setdefault(int.from_bytes(row.tobytes(), "little"), len(slot)) for row in packed]
    g = np.array([m.gamma_at(mask) for mask in slot])
    speeds = _dot(g[:, None, :], m.eta)[index]
    low = ~(speeds >= m.f_min) & ~crossed  # a NaN fails too
    if low.any():
        r, j = divmod(int(low.argmax()), m.n)
        raise _below_floor(m, j + 1, list(slot)[index[r]], speeds[r, j], "")
    return g[index], speeds


def _speed_table(m: CornerModel):
    """The stepper's own table for a table model, built once per model.

    Returns the mask weights ``2**j`` of shape (n,) and the normal speeds
    ``eta_j . gamma(mask)`` of every orthant, shape (2**n, n), each summed
    left to right by :func:`_dot` in blocks of at most 1024 orthants.
    """
    tables = m._cache.get("sampled_speeds")
    if tables is None:
        n = m.n
        speeds = np.empty((1 << n, n))
        for lo in range(0, 1 << n, 1024):
            speeds[lo : lo + 1024] = _dot(m.table[lo : lo + 1024, None, :], m.eta)
        tables = m._cache["sampled_speeds"] = (1 << np.arange(n), speeds)
    return tables


def _step_planes(m: CornerModel, x0: Points, t: float | None):
    """Event-step the frozen flow plane to plane from each point of ``x0``.

    In the current orthant b the field is ``gamma(b)``; each uncrossed
    surface j is reached after ``-(eta_j . (x - rho)) / (eta_j . gamma(b))``.
    The earliest one, ties to the smallest index, flips its sign together
    with any other plane reached within tolerance.  Every surface value
    increases at rate at least f_min, so each surface is crossed once and
    there are at most n steps.  Stops at time ``t``, or with
    ``t=None`` once every plane is crossed.  Every row of a (k, d) block
    takes one step per pass, and a row leaves the block when it stops.
    Returns the end points and the per-surface crossing times (0 for
    surfaces crossed at the start, and for those not reached by time ``t``):
    shapes (k, d) and (k, n), or (d,) and (n,) for one point.
    """
    m.require_valid()
    x = _read(x0, "a point", [(m.d,), (None, m.d)])
    one, x = x.ndim == 1, np.array(x, ndmin=2, order="C")  # a copy: its rows are stepped in place
    k, n = x.shape[0], m.n
    # every row leaves the block before the loop ends, and its outputs are written then, once
    rows, out, tau, times = np.arange(k), np.empty_like(x), np.empty((k, n)), np.zeros((k, n))
    remaining = np.full(k, np.inf if t is None else t)
    elapsed = np.zeros(k)
    with np.errstate(all="ignore"):  # overflow gives the inf and NaN of plain float ops
        vals, crossed = _planes(m, x, np.zeros((k, n), dtype=bool))
        keep = ~crossed.all(axis=1) if t is None else np.full(k, t > 0.0)
        while True:
            if not keep.all():
                out[rows[~keep]], tau[rows[~keep]] = x[~keep], times[~keep]
                rows, x, times, vals, crossed, remaining, elapsed = (
                    a[keep] for a in (rows, x, times, vals, crossed, remaining, elapsed)
                )
            if not rows.size:
                break
            g, den = _limits(m, crossed)
            # > 0 where uncrossed: below the plane tolerance; fmin turns NaN
            # into inf, so a NaN never wins a strict `<`
            s = np.fmin(-vals / den, np.inf)
            s[crossed] = np.inf
            j = s.argmin(axis=1)  # the first of equal smallest times
            at = np.arange(rows.size)
            step = s[at, j]
            stop = step >= remaining  # also when every plane is crossed (inf)
            x += np.where(stop, remaining, step)[:, None] * g
            remaining -= step
            elapsed += step
            # surfaces reached within tolerance in the same step count as crossed
            vals, now = _planes(m, x, crossed)
            now[at, j] = True
            times = np.where((now ^ crossed) & ~stop[:, None], elapsed[:, None], times)
            crossed = now
            keep = ~stop & (~crossed.all(axis=1) if t is None else remaining > 0.0)
    return (out[0], tau[0]) if one else (out, tau)


def sampled_flow(m: CornerModel, t: float, x0: Points) -> np.ndarray:
    """Exact time-``t`` flow of the frozen dynamics from ``x0`` (finite t >= 0, finite x0).

    ``x0`` is one point (d,) or a block of points (k, d); the result has the
    same shape.
    """
    return _step_planes(m, x0, _time(t, "the frozen flow is defined for finite t >= 0 only"))[0]


def time_to_impact_sampled(m: CornerModel, x: Points) -> np.ndarray:
    """Per-surface times at which the frozen flow from ``x`` meets each plane.

    Surfaces already (weakly) crossed at ``x`` report time 0; the rest report
    the accumulated event-stepping time of their crossing, which is finite
    because every surface value increases at rate at least f_min.  ``x`` is
    one point (d,), giving shape (n,), or a block (k, d), giving (k, n).
    """
    return _step_planes(m, x, None)[1]
