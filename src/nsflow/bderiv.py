"""The corner derivative: fast evaluation and explicit representations.

The time-1 flow map of the frozen corner dynamics is piecewise affine, and
its derivative ``B`` at the through-corner point is a continuous,
positively-homogeneous piecewise-linear map with one linear piece per
surface-crossing order.  This module provides:

* :func:`b_evaluate` -- evaluates ``B`` on one tangent vector by stepping the
  frozen dynamics through the surfaces in the order it discovers (n loop
  iterations, O(n^2 d) time, O(d) auxiliary space).  No per-piece matrices and
  no exponential tables are ever formed on this path.
* :func:`b_evaluate_block` -- the same loop run over a block of k directions
  at once in n numpy iterations, for table-backed models only (it indexes
  the model's 2^n orthant limits and normal speeds by mask).  Every sum is
  accumulated in the scalar loop's order, so each row is bitwise equal to
  :func:`b_evaluate` on that direction: image, crossing order and time offset.
* :func:`saltation_matrix` -- the d x d matrix of one linear piece, as an
  ordered product of rank-1 surface updates.
* :func:`build_triangulation` -- the exponential-size representation: 2^n
  sample points, one per orthant mask, whose before/after pairs triangulate
  the piecewise-affine corner flow, with one maximal simplex per crossing
  order: its n + 1 prefix masks, from ``_prefix_masks``, which the saltation
  product reads too and which refuses an order of another length.
* :func:`lineality_split` / :func:`barycentric_piece` -- the split of ``B``
  into a globally linear part on the lineality subspace (kernel directions
  plus the flow direction) and a piecewise part on its orthogonal complement,
  evaluated per piece through barycentric coordinates.  The vertex images
  come from the triangulation's before/after pairs in closed form, so this
  route and the triangulation never call :func:`b_evaluate`.

The single-direction loop is deliberately plain Python over row lists: the
problems are small and dense (d rarely above a few dozen), where interpreter
ops beat vectorization overhead and the cost scales transparently with n^2 d.
Vectorization pays only across directions, which is what the block kernel
does; the scalar loop stays the reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .core import (
    CornerModel,
    Permutation,
    _below_floor,
    _bit_reversal,
    _key,
    _normal_speeds,
    _read,
    all_permutations,
)
from .errors import CapExceeded, DegenerateDenominator, RankDeficient

__all__ = [
    "BBlock",
    "BResult",
    "Triangulation",
    "LinealitySplit",
    "b_evaluate",
    "b_evaluate_block",
    "saltation_single",
    "saltation_matrix",
    "build_triangulation",
    "lineality_split",
    "barycentric_piece",
    "barycentric_evaluate",
]

TRIANGULATION_CAP = 10
# The largest n whose n! saltation matrices are enumerated, and whose
# saltation factors a table model keeps.
ENUMERATION_CAP = 8
PINV_RCOND = 1e-12


@dataclass(frozen=True)
class BResult:
    """Value of the corner derivative on one tangent vector.

    ``delta_rho_plus`` is the image vector, ``sigma`` the surface-crossing
    order the input direction selects, and ``delta_t`` the accumulated time
    offset at loop exit (how much earlier the perturbed trajectory clears the
    last surface).
    """

    delta_rho_plus: np.ndarray
    sigma: Permutation
    delta_t: float

    def to_json_dict(self) -> dict:
        return {
            "delta_rho_plus": self.delta_rho_plus.tolist(),
            "sigma": list(self.sigma.order),
            "delta_t": self.delta_t,
        }


def b_evaluate(m: CornerModel, delta_rho_minus: Sequence[float] | np.ndarray) -> BResult:
    """Evaluate the corner derivative B on ``delta_rho_minus``.

    Starting from the all-minus orthant, each of the n iterations computes
    the signed crossing time ``tau_j = -(eta_j . drho) / (eta_j . gamma(b))``
    for every not-yet-crossed surface j, advances by the smallest one, and
    flips that surface's sign.  The final value subtracts the accumulated
    time offset along the exit field, ``drho - dt * gamma(+1...+1)``.

    Exactly equal tau go to the smallest surface index; the output vector is
    independent of that choice by continuity, which the test suite asserts
    (by reversing the surfaces) rather than assumes.
    """
    m.require_valid()

    n, d = m.n, m.d
    f_min = m.f_min
    eta_rows = m.eta_rows()
    dx = _read(delta_rho_minus, "direction", (d,)).tolist()

    mask = 0
    active = list(range(n))
    dt = 0.0
    order: list[int] = []
    rng_d = range(d)

    for _ in range(n):
        g = m.gamma_row(mask)
        tau_min = None
        pos_min = -1
        for pos, j in enumerate(active):
            row = eta_rows[j]
            num = 0.0
            den = 0.0
            for i in rng_d:
                num += row[i] * dx[i]
                den += row[i] * g[i]
            if not den >= f_min:  # a NaN fails too
                raise _below_floor(m, j + 1, mask, den, " mid-loop")
            tau = -num / den
            if tau_min is None or tau < tau_min:
                tau_min = tau
                pos_min = pos
        j_star = active.pop(pos_min)
        dt += tau_min
        for i in rng_d:
            dx[i] += tau_min * g[i]
        mask |= 1 << j_star
        order.append(j_star + 1)

    g_exit = m.gamma_row(mask)
    out = np.array([dx[i] - dt * g_exit[i] for i in rng_d])
    return BResult(delta_rho_plus=out, sigma=Permutation(tuple(order)), delta_t=dt)


@dataclass(frozen=True)
class BBlock:
    """Values of the corner derivative on a block of k tangent vectors.

    Row r holds what :func:`b_evaluate` returns for direction r:
    ``delta_rho_plus`` has shape (k, d), ``orders`` shape (k, n) with the
    1-based surfaces in crossing order, and ``delta_t`` shape (k,).
    """

    delta_rho_plus: np.ndarray
    orders: np.ndarray
    delta_t: np.ndarray


def b_evaluate_block(
    m: CornerModel, directions: Sequence[Sequence[float]] | np.ndarray
) -> BBlock:
    """Evaluate B on each row of a (k, d) block, bitwise equal to b_evaluate.

    Runs :func:`b_evaluate`'s n iterations once over the whole block: every
    row computes its crossing times on its open surfaces, advances by the
    first smallest one and crosses that surface.  Dot products are
    accumulated one column at a time from zero, as the scalar loop does,
    because any other summation order changes the last bits.  Validation
    has checked every speed it divides by against the floor.  Needs a gamma
    table; a lazy model raises ``ValueError`` (use :func:`b_evaluate`).
    """
    m.require_valid()
    if m.table is None:
        raise ValueError(
            "b_evaluate_block needs a table-backed model; use b_evaluate for a lazy gamma"
        )
    dx = _read(directions, "direction block", (None, m.d)).copy()  # updated in place below

    gam, speeds, k, n = m.table, m.speeds(), dx.shape[0], m.n
    rows, bits = np.arange(k), np.arange(n)
    mask = np.zeros(k, dtype=np.intp)
    dt = np.zeros(k)
    orders = np.empty((k, n), dtype=np.intp)
    with np.errstate(all="ignore"):  # overflow gives the scalar loop's inf/nan
        for step in range(n):
            closed = (mask[:, None] >> bits) & 1 == 1
            tau = -_normal_speeds(m.eta, dx) / speeds[mask]
            # The scalar loop keeps its first open tau unless a later one is
            # strictly smaller, so a NaN is taken only in first place and an
            # all-inf row takes its first open surface.
            key = np.where(closed | np.isnan(tau), np.inf, tau)
            j = key.argmin(axis=1)
            first = closed.argmin(axis=1)
            j = np.where(np.isnan(tau[rows, first]) | (key[rows, j] == np.inf), first, j)
            t = tau[rows, j]
            dt += t
            dx += t[:, None] * gam[mask]
            mask |= 1 << j
            orders[:, step] = j + 1
        out = dx - dt[:, None] * gam[mask]
    return BBlock(delta_rho_plus=out, orders=orders, delta_t=dt)


def saltation_single(
    f_minus: Sequence[float] | np.ndarray,
    f_plus: Sequence[float] | np.ndarray,
    eta_row: Sequence[float] | np.ndarray,
) -> np.ndarray:
    """Rank-1 update mapping pre- to post-crossing perturbations at one surface.

    Returns ``I + (f_plus - f_minus) eta^T / (eta . f_minus)``; homogeneous of
    degree zero in ``eta_row``, so normal scaling and units do not matter.
    ``f_minus`` and ``f_plus`` must be finite vectors of one length d, and
    ``eta_row`` of length d; a normal speed ``eta . f_minus`` that is not
    positive and finite raises :class:`DegenerateDenominator`.
    """
    fm = _read(f_minus, "f_minus", (None,))
    fp = _read(f_plus, "f_plus", fm.shape)
    row = _read(eta_row, "eta_row", fm.shape, finite=False)  # a NaN entry is a NaN speed below
    with np.errstate(invalid="ignore", over="ignore"):  # a NaN or inf speed is refused below
        den = float(row @ fm)
    if not 0.0 < den < np.inf:  # a NaN fails too
        raise DegenerateDenominator(
            f"normal speed eta . f_minus = {den:.3g} is not {'finite' if den > 0.0 else 'positive'}"
        )
    return np.eye(fm.size) + np.outer(fp - fm, row) / den


def saltation_matrix(m: CornerModel, sigma: Permutation) -> np.ndarray:
    """The linear piece of B active on the cone of crossing order ``sigma``.

    Ordered product of one rank-1 surface update per crossing: the factor for
    the k-th crossed surface uses the field limits just before and just after
    that crossing, and is applied first (rightmost), so
    ``M = S_n ... S_2 S_1``.

    A factor depends only on the crossed prefix and the surface, so a table
    model with n <= ``ENUMERATION_CAP`` keeps each one it builds in a memo on
    the model, keyed by (prefix mask, surface): at most n 2^(n-1) d x d
    matrices, 663 KB for n = 8 and d = 9.  Lazy models and larger tables
    build every factor per call.
    """
    m.require_valid()
    keep = m.table is not None and m.n <= ENUMERATION_CAP
    memo = m._cache.setdefault("saltation_factors", {}) if keep else {}
    mat = np.eye(m.d)
    for mask, j in zip(_prefix_masks(sigma, m.n), sigma.order):  # mask: crossed before j
        factor = memo.get((mask, j))
        if factor is None:
            factor = memo[mask, j] = _saltation_factor(m, mask, j)
        mat = factor @ mat
    return mat


def _prefix_masks(sigma: Permutation, n: int) -> list[int]:
    """The prefix masks of ``sigma``, k = 0..n (its first k surfaces crossed); n long or refused."""
    if sigma.n != n:
        raise ValueError(f"permutation length {sigma.n} != n = {n}")
    return list(accumulate(sigma.order, lambda mask, j: mask | 1 << (j - 1), initial=0))


def _saltation_factor(m: CornerModel, mask: int, j: int) -> np.ndarray:
    """The rank-1 update for crossing surface j out of orthant ``mask``.

    The floor test sums the speed left to right, as validation does (a BLAS
    dot may sum in another order and land below the floor); the factor keeps
    :func:`saltation_single`'s own denominator."""
    row = m.eta[j - 1]
    g_pre = m.gamma_at(mask)
    den = float(_normal_speeds(row[None], g_pre[None])[0, 0])
    if not den >= m.f_min:
        raise _below_floor(m, j, mask, den, "")
    factor = saltation_single(g_pre, m.gamma_at(mask | 1 << (j - 1)), row)
    factor.setflags(write=False)
    return factor


@dataclass(frozen=True)
class Triangulation:
    """Exponential representation of the piecewise-affine corner flow.

    ``z_minus`` and ``z_plus`` are read-only (2^n, d) arrays indexed by
    orthant mask.  ``z_minus[mask]`` is the unique point of the corner's
    normal space that starts (weakly) before every surface plane, crosses
    them all in one time unit, and lands on
    ``z_plus[mask] = z_minus[mask] + gamma(mask)``.  The maximal simplices are
    indexed by crossing orders; the vertex list of order ``sigma`` is its
    chain of prefix masks, so consecutive orders share exactly the vertices
    of their common prefixes.  Simplices are generated on demand and never
    materialized unless exported.
    """

    n: int
    z_minus: np.ndarray
    z_plus: np.ndarray

    def simplex(self, sigma: Permutation) -> list[int]:
        """Vertex masks of the maximal simplex for ``sigma``, from 0 to 2^n - 1.

        Vertex k has exactly the first k surfaces of ``sigma`` crossed; an
        order of any other length than n is refused.
        """
        return _prefix_masks(sigma, self.n)

    def simplices(self) -> Iterator[tuple[Permutation, list[int]]]:
        for sigma in all_permutations(self.n):
            yield sigma, self.simplex(sigma)

    def to_json_dict(self) -> dict:
        """Vertices keyed by orthant and all n! simplices, for n <= ``ENUMERATION_CAP`` only."""
        if self.n > ENUMERATION_CAP:
            raise CapExceeded(f"{self.n}! simplices exceed cap {ENUMERATION_CAP}!")
        keys = [_key(mask, self.n) for mask in range(1 << self.n)]
        order = _bit_reversal(self.n).tolist()
        return {
            "z_minus": {keys[mask]: self.z_minus[mask].tolist() for mask in order},
            "z_plus": {keys[mask]: self.z_plus[mask].tolist() for mask in order},
            "simplices": [
                {"sigma": list(sigma.order), "vertices": [keys[v] for v in verts]}
                for sigma, verts in self.simplices()
            ],
        }


def build_triangulation(m: CornerModel) -> Triangulation:
    """Solve for the 2^n triangulation sample points of a valid model.

    For each orthant b, ``zeta_b`` lies in ``rho + row-space(eta)`` and
    satisfies ``eta_j . (zeta_b - rho) = 0`` on crossed surfaces (b_j = +1)
    and ``eta_j . (zeta_b + gamma(b) - rho) = 0`` on uncrossed ones
    (b_j = -1).  Writing ``zeta_b = rho + eta^T w_b`` gives every point the
    same n x n Gram matrix, so one solve for all 2^n right-hand sides places
    them.  The maximal simplices are enumerated lazily by the result.
    """
    m.require_valid()
    if m.n > TRIANGULATION_CAP:
        raise CapExceeded(
            f"2**{m.n} triangulation vertices exceed cap {TRIANGULATION_CAP}; "
            "use b_evaluate for large n"
        )
    gram = m.eta @ m.eta.T
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise RankDeficient("eta rows are numerically dependent; cannot place vertices")

    gam = np.array([m.gamma_at(k) for k in range(1 << m.n)])
    crossed = (np.arange(1 << m.n)[:, None] >> np.arange(m.n)) & 1 == 1
    rhs = np.where(crossed, 0.0, -_normal_speeds(m.eta, gam))  # (2^n, n)
    z_minus = m.rho + np.linalg.solve(gram, rhs.T).T @ m.eta
    z_plus = z_minus + gam
    z_minus.setflags(write=False)
    z_plus.setflags(write=False)
    return Triangulation(n=m.n, z_minus=z_minus, z_plus=z_plus)


@dataclass(frozen=True)
class LinealitySplit:
    """Orthogonal split of tangent space adapted to where B is linear.

    The lineality subspace L is the kernel of the normals plus the span of
    the entry flow direction; B is linear on L (kernel vectors pass through
    unchanged, the entry direction maps to the exit direction) and the
    explicit map ``lin_map`` realizes that action.  ``basis_K`` holds d-n
    orthonormal kernel columns; the projectors are symmetric idempotents
    summing to the identity.
    """

    basis_K: np.ndarray
    f_minus: np.ndarray
    f_plus: np.ndarray
    proj_L: np.ndarray
    proj_L_perp: np.ndarray
    lin_map: np.ndarray


def lineality_split(m: CornerModel) -> LinealitySplit:
    """Split B into its linear lineality action and the residual piecewise part.

    ``B(v) = lin_map @ proj_L @ v + B(proj_L_perp @ v)`` for every v.  The
    rank-1 update in ``lin_map`` is built on the row-space component of the
    entry direction, which annihilates kernel vectors and carries the entry
    direction to the exit direction.  The model is validated first, as on
    every other route: the split exists only for an event-selected corner.
    """
    m.require_valid()
    basis_K = np.linalg.svd(m.eta)[2][m.n :].T  # (d, d-n), orthonormal columns

    f_minus = m.gamma_at(0)
    f_plus = m.gamma_at((1 << m.n) - 1)

    q, _ = np.linalg.qr(np.column_stack([basis_K, f_minus]))
    proj_L = q @ q.T
    # the row-space component of the entry direction
    w = f_minus - basis_K @ (basis_K.T @ f_minus)
    return LinealitySplit(
        basis_K=basis_K,
        f_minus=f_minus,
        f_plus=f_plus,
        proj_L=proj_L,
        proj_L_perp=np.eye(m.d) - proj_L,
        lin_map=saltation_single(f_minus, f_plus, w),
    )


def barycentric_piece(
    m: CornerModel,
    tri: Triangulation,
    sigma: Permutation,
    split: LinealitySplit,
) -> tuple[np.ndarray, np.ndarray]:
    """Vertex-coordinate matrices of one piece of B restricted off lineality.

    Columns run over the n-1 interior prefix masks of ``sigma``; the minus
    matrix holds the lineality-orthogonal components of the vertex offsets
    ``off = z_minus[mask] - rho``, the plus matrix their images under B.  The
    images come from the triangulation's own vertex pairs: the time-1 frozen
    flow carries ``z_minus[mask]`` to ``z_plus[mask]``, so
    ``B(off) = z_plus[mask] - rho - gamma(+1...+1)``, and B is linear on the
    lineality subspace, so the image of the orthogonal component is that
    minus ``lin_map @ proj_L @ off``.  No evaluation of B is made.  On the
    piece's cone, ``Z_plus @ pinv(Z_minus)`` reproduces the saltation action.
    ``split`` is :func:`lineality_split` of ``m``.
    """
    masks = tri.simplex(sigma)[1:-1]
    off = (tri.z_minus[masks] - m.rho).T  # (d, n-1), one column per vertex
    z_minus = split.proj_L_perp @ off
    z_plus = (tri.z_plus[masks] - m.rho - split.f_plus).T - split.lin_map @ (split.proj_L @ off)
    sv = np.linalg.svd(z_minus, compute_uv=False)
    if sv.size and sv[-1] <= PINV_RCOND * sv[0]:
        raise RankDeficient(
            f"vertex offsets for order {tuple(sigma.order)} are numerically dependent"
        )
    return z_minus, z_plus


def barycentric_evaluate(
    m: CornerModel,
    tri: Triangulation,
    sigma: Permutation,
    delta_rho: Sequence[float] | np.ndarray,
    split: LinealitySplit,
) -> np.ndarray:
    """Evaluate B via the lineality map plus the barycentric piece of ``sigma``."""
    v = _read(delta_rho, "direction", (m.d,))
    z_minus, z_plus = barycentric_piece(m, tri, sigma, split=split)
    lin_part = split.lin_map @ (split.proj_L @ v)
    coeffs = np.linalg.pinv(z_minus, rcond=PINV_RCOND) @ (split.proj_L_perp @ v)
    return lin_part + z_plus @ coeffs
