import itertools

import numpy as np

from nsflow.apps import DampingPolicy, MechanicalModel
from nsflow.core import CornerModel, _bit_reversal


def linear_constraint_model(A: np.ndarray, kappa: float, damping_policy: DampingPolicy) -> MechanicalModel:
    """Unit-mass mechanics with linear constraints A q >= 0."""
    n, m_q = A.shape
    return MechanicalModel(
        m_q=m_q,
        n=n,
        mass=np.eye(m_q),
        forcing=lambda q, qd: np.zeros(m_q),
        constraints=lambda q: A @ q,
        constraint_jac=lambda q: A.copy(),
        kappa=np.full(n, kappa),
        damping_policy=damping_policy,
    )


def particle_model(damping_policy: DampingPolicy, kappa: float = 5.0, n: int = 3) -> MechanicalModel:
    """Three linear constraints making an activating corner at the origin."""
    A = np.array([[1.0, 0.2, 0.0], [0.0, 1.0, -0.1], [0.3, 0.0, 1.0]])[:n]
    return linear_constraint_model(A, kappa, damping_policy)


def reversed_surfaces(m: CornerModel) -> CornerModel:
    """``m`` with its surfaces numbered backwards: eta rows reversed, gamma re-keyed.

    ``b_evaluate`` breaks exact ties toward the smallest index, so on this
    model it breaks them toward the largest index of ``m``; surface j here is
    surface n + 1 - j of ``m``, so orthant mask k here is the bit reversal of k there.
    """
    rows = [m.gamma_at(int(mask)) for mask in _bit_reversal(m.n)]
    return CornerModel(m.rho, m.eta[::-1], table=rows, f_min=m.f_min)


def lazy_copy(m: CornerModel) -> CornerModel:
    """``m`` with its table behind a callable of the mask, so validation runs the block scan."""
    return CornerModel.create(rho=m.rho, eta=m.eta, gamma=m.gamma_at, f_min=m.f_min)


def orthant_keys(n: int):
    """Every orthant of n surfaces as (its '-+' key, its mask), in lexicographic
    order ('-' before '+'); character j of a key is bit j of its mask."""
    for signs in itertools.product("-+", repeat=n):
        yield "".join(signs), sum(1 << j for j, s in enumerate(signs) if s == "+")
