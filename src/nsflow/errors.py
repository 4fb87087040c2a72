"""Semantic exception hierarchy for nsflow.

Every error raised by the library derives from :class:`NsflowError`, so
callers can catch domain failures without masking programming errors.
"""

__all__ = [
    "NsflowError", "RankDeficient", "NotEventSelected", "DegenerateDenominator",
    "CapExceeded", "TangentialCrossing", "StepTooLarge", "SingularMass", "InvalidDelta",
]


class NsflowError(Exception):
    """Base class for all nsflow domain errors."""


class RankDeficient(NsflowError):
    """Surface normals are linearly dependent; remove redundant surfaces."""


class NotEventSelected(NsflowError):
    """Transversality fails: some corner field limit does not cross a surface
    forward fast enough (min normal-dot below the declared floor), so sliding
    or branching is possible and the corner algorithms do not apply."""


class DegenerateDenominator(NsflowError):
    """A crossing-rate denominator was non-positive mid-computation.

    On a model, the floor tests of ``b_evaluate`` and ``saltation_matrix``
    read the normal speed validation checked, summed in the same order, so
    they are unreachable on table models and on models with n <= 16, which
    validation checks whole; reachable only from a lazy model with n > 16,
    on an orthant its sampled validation missed.  ``saltation_single`` raises
    it for a speed of its own arguments that is not positive and finite."""


class CapExceeded(NsflowError):
    """An exponential-size representation was refused (vertex/permutation cap)."""


class TangentialCrossing(NsflowError):
    """A trajectory met an event surface with near-zero normal speed."""


class StepTooLarge(NsflowError):
    """Event localization failed inside one integration step; reduce the step."""


class SingularMass(NsflowError):
    """Mass matrix has a non-finite entry or is not symmetric positive definite."""


class InvalidDelta(NsflowError):
    """Piecewise-constant offset table has a component at or below -1."""
