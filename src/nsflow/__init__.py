"""nsflow: first-order approximation of event-selected nonsmooth flows.

The flow of a vector field that crosses finitely many event surfaces
transversally is piecewise differentiable; its directional derivative is a
continuous, positively homogeneous piecewise-linear map with one linear piece
per surface-crossing order.  This package evaluates that derivative in
polynomial time, builds its explicit per-piece and triangulated
representations, and cross-checks everything against exact and brute-force
oracles.
"""

from . import bderiv, core, errors, flow, sampled
from .bderiv import *
from .core import *
from .errors import *
from .flow import *
from .sampled import *

__version__ = "0.1.0"

# each module's __all__ is its public list; the package's is their union
__all__ = sorted(core.__all__ + bderiv.__all__ + sampled.__all__ + flow.__all__ + errors.__all__)
