"""The corner derivative: fast evaluation and explicit representations.

The time-1 flow map of the frozen corner dynamics is piecewise affine, and
its derivative ``B`` at the through-corner point is a continuous,
positively-homogeneous piecewise-linear map with one linear piece per
surface-crossing order.  This module provides:

* :func:`b_evaluate` -- evaluates ``B`` on one tangent vector by stepping the
  frozen dynamics through the surfaces in the order it discovers (n loop
  iterations, O(n^2 d) time, O(d) auxiliary space).  No per-piece matrices and
  no exponential tables are ever formed on this path.
* :func:`saltation_matrix` -- the d x d matrix of one linear piece, as an
  ordered product of rank-1 surface updates.
* :func:`zeta_points` / :func:`build_triangulation` -- the exponential-size
  representation: 2^n sample points whose before/after pairs triangulate the
  piecewise-affine corner flow, with one maximal simplex per crossing order.
* :func:`lineality_split` / :func:`barycentric_piece` -- the split of ``B``
  into a globally linear part on the lineality subspace (kernel directions
  plus the flow direction) and a piecewise part on its orthogonal complement,
  evaluated per piece through barycentric coordinates.

The evaluation hot loop is deliberately plain Python over row lists: the
problems are small and dense (d rarely above a few dozen), where interpreter
ops beat vectorization overhead and the cost scales transparently with n^2 d.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Iterator, Sequence

import numpy as np

from .core import (
    CornerModel,
    Permutation,
    SignVector,
    all_permutations,
    all_sign_vectors,
)
from .errors import CapExceeded, DegenerateDenominator, RankDeficient

__all__ = [
    "BResult",
    "Triangulation",
    "LinealitySplit",
    "b_evaluate",
    "locate_cone",
    "saltation_single",
    "saltation_matrix",
    "zeta_points",
    "build_triangulation",
    "lineality_split",
    "barycentric_piece",
    "barycentric_evaluate",
]

TRIANGULATION_CAP = 10
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


def b_evaluate(
    m: CornerModel,
    delta_rho_minus: Sequence[float] | np.ndarray,
    tie_break: str = "smallest",
) -> BResult:
    """Evaluate the corner derivative B on ``delta_rho_minus``.

    Starting from the all-minus orthant, each of the n iterations computes
    the signed crossing time ``tau_j = -(eta_j . drho) / (eta_j . gamma(b))``
    for every not-yet-crossed surface j, advances by the smallest one, and
    flips that surface's sign.  The final value subtracts the accumulated
    time offset along the exit field, ``drho - dt * gamma(+1...+1)``.

    ``tie_break`` selects among exactly equal tau ('smallest' or 'largest'
    surface index); the output vector is tie-break independent by continuity,
    which the test suite asserts rather than assumes.
    """
    m.require_valid()
    if tie_break not in ("smallest", "largest"):
        raise ValueError("tie_break must be 'smallest' or 'largest'")
    take_larger = tie_break == "largest"

    n, d = m.n, m.d
    f_min = m.f_min
    eta_rows = m.eta_rows()
    dx = [float(v) for v in delta_rho_minus]
    if len(dx) != d:
        raise ValueError(f"direction has length {len(dx)}, expected {d}")
    if not all(map(isfinite, dx)):
        raise ValueError(f"direction has non-finite entries: {dx}")

    b = [-1] * n
    active = list(range(n))
    dt = 0.0
    order: list[int] = []
    rng_d = range(d)

    for _ in range(n):
        g = m.gamma_list(tuple(b))
        tau_min = None
        pos_min = -1
        for pos, j in enumerate(active):
            row = eta_rows[j]
            num = 0.0
            den = 0.0
            for i in rng_d:
                num += row[i] * dx[i]
                den += row[i] * g[i]
            if den < f_min:
                raise DegenerateDenominator(
                    f"eta_{j + 1} . gamma({SignVector(tuple(b))}) = {den:.3g} "
                    f"below floor {f_min:.3g} mid-loop"
                )
            tau = -num / den
            if (
                tau_min is None
                or tau < tau_min
                or (take_larger and tau == tau_min)
            ):
                tau_min = tau
                pos_min = pos
        j_star = active.pop(pos_min)
        dt += tau_min
        for i in rng_d:
            dx[i] += tau_min * g[i]
        b[j_star] = 1
        order.append(j_star + 1)

    g_exit = m.gamma_list(tuple(b))
    out = np.array([dx[i] - dt * g_exit[i] for i in rng_d])
    return BResult(delta_rho_plus=out, sigma=Permutation(tuple(order)), delta_t=dt)


def locate_cone(m: CornerModel, delta_rho: Sequence[float] | np.ndarray) -> Permutation:
    """Crossing order whose cone contains ``delta_rho`` (ties to smallest index)."""
    return b_evaluate(m, delta_rho).sigma


def saltation_single(
    f_minus: Sequence[float] | np.ndarray,
    f_plus: Sequence[float] | np.ndarray,
    eta_row: Sequence[float] | np.ndarray,
) -> np.ndarray:
    """Rank-1 update mapping pre- to post-crossing perturbations at one surface.

    Returns ``I + (f_plus - f_minus) eta^T / (eta . f_minus)``; homogeneous of
    degree zero in ``eta_row``, so normal scaling and units do not matter.
    """
    fm = np.asarray(f_minus, dtype=float)
    fp = np.asarray(f_plus, dtype=float)
    row = np.asarray(eta_row, dtype=float)
    den = float(row @ fm)
    if den <= 0.0:
        raise DegenerateDenominator(
            f"normal speed eta . f_minus = {den:.3g} is not positive"
        )
    return np.eye(fm.size) + np.outer(fp - fm, row) / den


def saltation_matrix(m: CornerModel, sigma: Permutation) -> np.ndarray:
    """The linear piece of B active on the cone of crossing order ``sigma``.

    Ordered product of one rank-1 surface update per crossing: the factor for
    the k-th crossed surface uses the field limits just before and just after
    that crossing, and is applied first (rightmost), so
    ``M = S_n ... S_2 S_1``.
    """
    m.require_valid()
    if sigma.n != m.n:
        raise ValueError(f"permutation length {sigma.n} != n = {m.n}")
    mat = np.eye(m.d)
    for k in range(m.n):
        b_pre = sigma.prefix_sign(k)
        b_post = sigma.prefix_sign(k + 1)
        j = sigma.order[k]
        row = m.eta[j - 1]
        g_pre = m.gamma_vec(b_pre)
        den = float(row @ g_pre)
        if den < m.f_min:
            raise DegenerateDenominator(
                f"eta_{j} . gamma({b_pre}) = {den:.3g} below floor {m.f_min:.3g}"
            )
        factor = np.eye(m.d) + np.outer(m.gamma_vec(b_post) - g_pre, row) / den
        mat = factor @ mat
    return mat


@dataclass(frozen=True)
class Triangulation:
    """Exponential representation of the piecewise-affine corner flow.

    ``z_minus[b]`` is the unique point of the corner's normal space that
    starts (weakly) before every surface plane, crosses them all in one time
    unit, and lands on ``z_plus[b] = z_minus[b] + gamma(b)``.  The maximal
    simplices are indexed by crossing orders; the vertex list of order
    ``sigma`` is its chain of prefix sign vectors, so consecutive orders
    share exactly the vertices of their common prefixes.  Simplices are
    generated on demand and never materialized unless exported.
    """

    n: int
    rho: np.ndarray
    z_minus: dict[SignVector, np.ndarray]
    z_plus: dict[SignVector, np.ndarray]

    def simplex(self, sigma: Permutation) -> list[SignVector]:
        """Ordered vertex list of the maximal simplex for ``sigma``."""
        return [sigma.prefix_sign(k) for k in range(self.n + 1)]

    def simplices(self) -> Iterator[tuple[Permutation, list[SignVector]]]:
        for sigma in all_permutations(self.n):
            yield sigma, self.simplex(sigma)

    def to_json_dict(self) -> dict:
        order = list(all_sign_vectors(self.n))
        return {
            "z_minus": {b.key(): self.z_minus[b].tolist() for b in order},
            "z_plus": {b.key(): self.z_plus[b].tolist() for b in order},
            "simplices": [
                {"sigma": list(sigma.order), "vertices": [b.key() for b in verts]}
                for sigma, verts in self.simplices()
            ],
        }


def zeta_points(m: CornerModel, cap: int = TRIANGULATION_CAP) -> Triangulation:
    """Solve for the 2^n triangulation sample points.

    For each orthant b, ``zeta_b`` lies in ``rho + row-space(eta)`` and
    satisfies ``eta_j . (zeta_b - rho) = 0`` on crossed surfaces (b_j = +1)
    and ``eta_j . (zeta_b + gamma(b) - rho) = 0`` on uncrossed ones
    (b_j = -1).  Writing ``zeta_b = rho + eta^T w`` reduces each point to one
    n x n solve.
    """
    if m.n > cap:
        raise CapExceeded(
            f"2**{m.n} triangulation vertices exceed cap {cap}; "
            "use b_evaluate for large n"
        )
    gram = m.eta @ m.eta.T
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv.size == 0 or sv[-1] <= 1e-12 * sv[0]:
        raise RankDeficient("eta rows are numerically dependent; cannot place vertices")

    z_minus: dict[SignVector, np.ndarray] = {}
    z_plus: dict[SignVector, np.ndarray] = {}
    for b in all_sign_vectors(m.n):
        g = m.gamma_vec(b)
        rhs = np.array(
            [0.0 if b[j] > 0 else -float(m.eta[j] @ g) for j in range(m.n)]
        )
        w = np.linalg.solve(gram, rhs)
        zb = m.rho + m.eta.T @ w
        z_minus[b] = zb
        z_plus[b] = zb + g
    return Triangulation(n=m.n, rho=m.rho, z_minus=z_minus, z_plus=z_plus)


def build_triangulation(m: CornerModel, cap: int = TRIANGULATION_CAP) -> Triangulation:
    """Full triangulation: vertices plus lazily enumerable maximal simplices."""
    m.require_valid()
    return zeta_points(m, cap=cap)


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

    @property
    def dim_L(self) -> int:
        return self.basis_K.shape[1] + 1


def lineality_split(m: CornerModel) -> LinealitySplit:
    """Split B into its linear lineality action and the residual piecewise part.

    ``B(v) = lin_map @ proj_L @ v + B(proj_L_perp @ v)`` for every v.  The
    rank-1 update in ``lin_map`` is built on the row-space component of the
    entry direction, which annihilates kernel vectors and carries the entry
    direction to the exit direction.
    """
    u, sv, vt = np.linalg.svd(m.eta)
    if sv.size == 0 or sv[-1] <= 1e-12 * sv[0]:
        raise RankDeficient("eta rows are numerically dependent")
    basis_K = vt[m.n :].T  # (d, d-n), orthonormal columns

    f_minus = m.gamma_vec(SignVector.minus_ones(m.n))
    f_plus = m.gamma_vec(SignVector.plus_ones(m.n))

    cols = np.column_stack([basis_K, f_minus]) if basis_K.size else f_minus[:, None]
    q, _ = np.linalg.qr(cols)
    proj_L = q @ q.T
    proj_L_perp = np.eye(m.d) - proj_L

    w = f_minus - basis_K @ (basis_K.T @ f_minus) if basis_K.size else f_minus.copy()
    wf = float(w @ f_minus)
    if wf <= 0.0:
        raise DegenerateDenominator(
            "entry direction lies in the surface kernel; corner data inconsistent"
        )
    lin_map = np.eye(m.d) + np.outer(f_plus - f_minus, w) / wf

    return LinealitySplit(
        basis_K=basis_K,
        f_minus=np.asarray(f_minus, dtype=float),
        f_plus=np.asarray(f_plus, dtype=float),
        proj_L=proj_L,
        proj_L_perp=proj_L_perp,
        lin_map=lin_map,
    )


def barycentric_piece(
    m: CornerModel,
    tri: Triangulation,
    sigma: Permutation,
    split: LinealitySplit | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vertex-coordinate matrices of one piece of B restricted off lineality.

    Columns run over the n-1 interior prefix orthants of ``sigma``; the minus
    matrix holds the lineality-orthogonal components of the vertex offsets,
    the plus matrix their images under B.  On the piece's cone,
    ``Z_plus @ pinv(Z_minus)`` reproduces the saltation action.
    """
    if split is None:
        split = lineality_split(m)
    cols_minus = []
    cols_plus = []
    for k in range(1, m.n):
        b = sigma.prefix_sign(k)
        zb = split.proj_L_perp @ (tri.z_minus[b] - m.rho)
        cols_minus.append(zb)
        cols_plus.append(b_evaluate(m, zb).delta_rho_plus)
    z_minus = (
        np.column_stack(cols_minus) if cols_minus else np.zeros((m.d, 0))
    )
    z_plus = np.column_stack(cols_plus) if cols_plus else np.zeros((m.d, 0))
    if z_minus.shape[1]:
        sv = np.linalg.svd(z_minus, compute_uv=False)
        if sv[-1] <= PINV_RCOND * sv[0]:
            raise RankDeficient(
                f"vertex offsets for order {tuple(sigma.order)} are numerically "
                "dependent"
            )
    return z_minus, z_plus


def barycentric_evaluate(
    m: CornerModel,
    tri: Triangulation,
    sigma: Permutation,
    delta_rho: Sequence[float] | np.ndarray,
    split: LinealitySplit | None = None,
) -> np.ndarray:
    """Evaluate B via the lineality map plus the barycentric piece of ``sigma``."""
    if split is None:
        split = lineality_split(m)
    v = np.asarray(delta_rho, dtype=float)
    z_minus, z_plus = barycentric_piece(m, tri, sigma, split=split)
    lin_part = split.lin_map @ (split.proj_L @ v)
    if z_minus.shape[1] == 0:
        return lin_part
    coeffs = np.linalg.pinv(z_minus, rcond=PINV_RCOND) @ (split.proj_L_perp @ v)
    return lin_part + z_plus @ coeffs
