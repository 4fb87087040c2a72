"""Independent references for the benchmark's correctness checks.

Nothing here imports nsflow.  The corner derivative is recomputed the way its
definition reads: start the frozen piecewise-constant corner dynamics half a
time unit before the corner, nudged by ``s * v``, step the point exactly from
plane to plane for one time unit, and divide the landing point's offset from
the unperturbed landing point by ``s``.  The program's fast path instead walks
the perturbation itself through the surfaces, so the two share the model data
and nothing else.

A corner model is given here as plain data: the normals ``eta`` (n, d) and a
callable ``gamma(signs)`` taking a tuple of n entries in {-1, +1} (+1 means the
surface is crossed) and returning the orthant's field value.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.linalg

# The start point's plane values stay within this share of the unperturbed
# ones, so the nudged point starts strictly before every plane.
START_MARGIN = 0.25
# Every crossing must fall inside (0, CROSSING_LIMIT) of the one time unit.
CROSSING_LIMIT = 0.9


def table_gamma(table: dict[str, np.ndarray]):
    """gamma callable over a ``'-+'``-keyed table, as in the model JSON schema."""

    def gamma(signs: tuple[int, ...]) -> np.ndarray:
        return table["".join("-" if s < 0 else "+" for s in signs)]

    return gamma


def model_from_json(text: str) -> tuple[np.ndarray, object]:
    """(eta, gamma) parsed straight from the interchange JSON."""
    payload = json.loads(text)
    table = {k: np.array(v, dtype=float) for k, v in payload["gamma"].items()}
    return np.array(payload["eta"], dtype=float), table_gamma(table)


def pwc_linear_gamma(delta: float):
    """Field ``1 - delta * b`` of the scalar piecewise-constant special case."""

    def gamma(signs: tuple[int, ...]) -> np.ndarray:
        return 1.0 - delta * np.array(signs, dtype=float)

    return gamma


def _step_through(eta, gamma, y0, n):
    """Exact frozen flow for one time unit from the corner offset ``y0``.

    Returns the landing offset, or None when a crossing falls outside
    (0, CROSSING_LIMIT), in which case the caller shrinks the nudge.
    """
    signs = [-1] * n
    y = y0.copy()
    elapsed = 0.0
    for _ in range(n):
        g = np.asarray(gamma(tuple(signs)), dtype=float)
        open_rows = [j for j in range(n) if signs[j] < 0]
        sub = eta[open_rows]
        rates = sub @ g
        if np.any(rates <= 0.0):
            raise ValueError("corner data is not transversal")
        times = -(sub @ y) / rates
        k = int(np.argmin(times))
        step = max(0.0, float(times[k]))
        if elapsed + step >= CROSSING_LIMIT or (elapsed == 0.0 and step <= 0.0):
            return None
        y = y + step * g
        elapsed += step
        signs[open_rows[k]] = 1
    g_exit = np.asarray(gamma(tuple(signs)), dtype=float)
    return y + (1.0 - elapsed) * g_exit


def corner_derivative(eta, gamma, v) -> np.ndarray:
    """B(v) as the time-1 map difference of the exactly stepped frozen flow."""
    eta = np.asarray(eta, dtype=float)
    v = np.asarray(v, dtype=float)
    n = eta.shape[0]
    g_minus = np.asarray(gamma((-1,) * n), dtype=float)
    g_plus = np.asarray(gamma((1,) * n), dtype=float)
    start = -0.5 * g_minus
    depth = -(eta @ start)  # > 0: how far before each plane the start lies
    push = np.abs(eta @ v)
    s = 1.0
    if np.any(push > 0.0):
        s = float(np.min(START_MARGIN * depth[push > 0.0] / push[push > 0.0]))
    for _ in range(60):
        landed = _step_through(eta, gamma, start + s * v, n)
        if landed is not None:
            return (landed - 0.5 * g_plus) / s
        s *= 0.5
    raise ValueError("no nudge keeps every crossing inside the time unit")


def linear_field_flow_derivative(eta, value, jacobian, t_corner, t_end, v):
    """Directional derivative of the time-``t_end`` flow of an affine-per-orthant
    field through one corner at ``t_corner``, entered from the all-minus and
    left into the all-plus orthant.

    ``value(signs)`` is an orthant's field at the corner state and
    ``jacobian(signs)`` its constant Jacobian, so the smooth stretches have
    the exact sensitivities ``expm(A t)``.
    """
    n = eta.shape[0]
    pre = scipy.linalg.expm(jacobian((-1,) * n) * t_corner)
    post = scipy.linalg.expm(jacobian((1,) * n) * (t_end - t_corner))
    return post @ corner_derivative(eta, value, pre @ np.asarray(v, dtype=float))


def kernel_basis(eta: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the null space of the normals."""
    _, _, vt = np.linalg.svd(np.asarray(eta, dtype=float))
    return vt[eta.shape[0]:].T


def relative_error(expected, actual) -> float:
    expected = np.asarray(expected, dtype=float)
    actual = np.asarray(actual, dtype=float)
    scale = max(1.0, float(np.max(np.abs(expected))), float(np.max(np.abs(actual))))
    return float(np.max(np.abs(expected - actual))) / scale
