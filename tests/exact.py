"""Exact references for the corner derivative B and the trajectory derivative.

This module imports only ``fractions``, numpy and scipy (a test checks its
imports), so it shares no code with the nsflow kernels that the tests check
against it.

* :func:`b_exact` runs B's loop in exact rational arithmetic on float model
  data.  Every float is a ``Fraction`` exactly, each crossing time is a ratio
  of dot products and each update is linear, so the result is the true image
  and the true crossing order of the float data; exactly equal crossing
  times go to the smallest surface.
* :func:`linear_flow_derivative` is the derivative of the flow of an
  affine-per-orthant field through one corner,
  ``expm(A_+ (t - t_c)) . B . expm(A_- t_c)``, with B from :func:`b_exact`.
"""

from fractions import Fraction

import numpy as np
import scipy.linalg


def _scaled(values) -> tuple[list[int], int]:
    """Floats as integers over one common denominator, a power of two: value
    i is exactly ``ints[i] / den``."""
    exact = [Fraction(x) for x in values]
    den = max(f.denominator for f in exact)
    return [f.numerator * (den // f.denominator) for f in exact], den


def b_exact(eta, gamma, v) -> tuple[np.ndarray, tuple[int, ...]]:
    """B applied to ``v`` in exact arithmetic, rounded once to floats at the end.

    ``eta`` is the (n, d) array of surface normals and ``gamma`` gives the
    orthant limits by mask: either the (2^n, d) array whose row ``mask`` is
    the limit on the orthant whose crossed surfaces are the set bits of
    ``mask`` (bit j - 1 for surface j), or a callable of ``mask`` that returns
    that row, which reads only the n + 1 orthants the loop visits.  Starting
    from mask 0, each of the n steps advances by the smallest crossing time
    ``tau_j = -(eta_j . dx) / (eta_j . gamma(mask))`` over the uncrossed
    surfaces j and crosses that surface; the image is
    ``dx - dt * gamma(all crossed)``.  Returns the image and the 1-based
    crossing order.

    The state is held as integers over one positive denominator,
    ``dx = x / q``, and ``gamma(mask) = g / s``, so a step needs no gcd:
    ``tau_j = -(num_j s) / (q den_j)`` with ``num_j = eta_j . x`` and
    ``den_j = eta_j . g`` (eta_j's own denominator cancels), and
    ``dx + tau_j gamma = (den_j x - num_j g) / (q den_j)``.
    """
    normals = [_scaled(row)[0] for row in np.asarray(eta, dtype=float).tolist()]
    limit = gamma if callable(gamma) else np.asarray(gamma, dtype=float).__getitem__
    x, q = _scaled(np.asarray(v, dtype=float).tolist())
    dt, mask, order = Fraction(0), 0, []
    uncrossed = list(range(len(normals)))
    for _ in range(len(normals)):
        g, s = _scaled(np.asarray(limit(mask), dtype=float).tolist())
        best = None
        for j in uncrossed:
            num = sum(a * b for a, b in zip(normals[j], x))
            den = sum(a * b for a, b in zip(normals[j], g))
            if den <= 0:
                raise ValueError(f"surface {j + 1} is not crossed from orthant mask {mask}")
            # tau_j < tau_best, both denominators positive; a tie keeps the smaller surface
            if best is None or -num * best[2] < -best[1] * den:
                best = (j, num, den)
        j, num, den = best
        uncrossed.remove(j)
        dt += Fraction(-num * s, q * den)
        x = [den * a - num * b for a, b in zip(x, g)]
        q *= den
        mask |= 1 << j
        order.append(j + 1)
    g, s = _scaled(np.asarray(limit(mask), dtype=float).tolist())
    return np.array([float(Fraction(a, q) - dt * Fraction(b, s)) for a, b in zip(x, g)]), tuple(order)


def linear_flow_derivative(
    a_minus, a_plus, t_corner: float, t_end: float, eta, gamma, v
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Directional derivative along ``v`` of the time-``t_end`` flow of an
    affine-per-orthant field whose trajectory meets one corner at
    ``t_corner``, entered from the all-minus and left into the all-plus
    orthant, and the crossing order at that corner.

    ``a_minus`` and ``a_plus`` are the constant Jacobians of those two
    orthants, so the smooth stretches have the sensitivities ``expm(A t)``;
    ``eta`` and ``gamma`` are the corner data that :func:`b_exact` takes.
    """
    pre = scipy.linalg.expm(np.asarray(a_minus, dtype=float) * t_corner)
    post = scipy.linalg.expm(np.asarray(a_plus, dtype=float) * (t_end - t_corner))
    image, order = b_exact(eta, gamma, pre @ np.asarray(v, dtype=float))
    return post @ image, order
