"""Domain types for event-selected vector fields at a corner.

A *corner* is a point ``rho`` where ``n`` event surfaces intersect
transversally.  The local data needed by every algorithm in this package is
captured by :class:`CornerModel`: the surface normals at ``rho`` (rows of
``eta``), and the limiting field value ``gamma(b)`` taken on each of the
``2**n`` orthants ``b`` adjacent to the corner; its constructor checks that
data on every route in, ``dataclasses.replace`` included.  Caller data of
every kind (vectors, blocks, tables, the values of a field's callables) is
read by one reader, ``_read``, which takes entries that are real numbers by
one rule, ``_is_real``, and refuses any other, a wrong shape and, where
finiteness is required, NaN or infinity, each with one ``ValueError`` text.  A
scalar argument (a time, a count, a size, a mask, a floor) is read by one
reader, ``_scalar``, by the same rule and a range.
A full vector field with event functions ``h``, for trajectory integration
away from the corner, is a :class:`PiecewiseField`; its surfaces are the zeros of ``h``.

Inside the package an orthant is an int *mask*: bit j is set when surface
j+1 has been crossed, so the all-minus orthant is 0 and the all-plus orthant
is ``2**n - 1``.  Every route in or out of the package carries that mask: a
model's table is one read-only ``(2**n, d)`` array indexed by it, built from
exactly 2**n rows in mask order and from no other form, a lazy gamma is
called with it, and trajectory segments, validation reports and frozen
corners name their orthants by it.  The one exception is the argument a
selection receives, a :class:`SignVector`; one converter, ``_orthant``, turns
it back into its mask and refuses anything else.  JSON, reports and errors
write orthants as ``'-+'`` keys: ``_key`` is the one writer of that text, and
the JSON reader, ``corner_model_from_json``, the one reader.  Surface-crossing
orders (and the linear pieces of the corner derivative) are indexed by
:class:`Permutation`.  Surface indices are 1-based throughout the public API.
"""

from __future__ import annotations

import functools
import itertools
import json
import numbers
import operator
from dataclasses import dataclass, field
from math import inf, isfinite, nan, ulp
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import CapExceeded, DegenerateDenominator, NotEventSelected, RankDeficient

__all__ = [
    "SignVector",
    "Permutation",
    "CornerModel",
    "SmoothField",
    "PiecewiseField",
    "ValidationReport",
    "validate_corner",
    "all_permutations",
    "corner_model_to_json",
    "corner_model_from_json",
]

DEFAULT_F_MIN = 1e-9
RANK_RTOL = 1e-12
# Validation checks every orthant of a table and of a lazy gamma up to this
# size.  A larger lazy gamma, which CornerModel.create takes only with
# presumed_valid=True, is read on VALIDATION_SAMPLES orthants drawn with seed 0.
VALIDATION_ENUM_CAP = 16
VALIDATION_SAMPLES = 64
_FLOAT = np.dtype(float)
_BIT_OF_SIGN = str.maketrans("-+", "01")
_KEY_OF_BIT = str.maketrans("01", "-+")


@dataclass(frozen=True, order=True)
class SignVector:
    """Element of {-1,+1}^n indexing an orthant adjacent to the corner: the
    argument a selection and :meth:`CornerModel.gamma_vec` receive.  Everywhere
    else an orthant is its mask."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.entries) < 1:
            raise ValueError("sign vector needs at least one entry")
        if any(e not in (-1, 1) for e in self.entries):
            raise ValueError(f"sign vector entries must be -1 or +1, got {self.entries}")

    @staticmethod
    def minus_ones(n: int) -> "SignVector":
        return SignVector((-1,) * n)

    @staticmethod
    def plus_ones(n: int) -> "SignVector":
        return SignVector((1,) * n)

    @staticmethod
    def from_mask(mask: int, n: int) -> "SignVector":
        """The orthant whose crossed surfaces are the set bits of ``mask``."""
        return SignVector(tuple(1 if mask >> j & 1 else -1 for j in range(n)))

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def mask(self) -> int:
        """Bit j set when position j is +1 (surface j+1 crossed)."""
        return sum(1 << j for j, e in enumerate(self.entries) if e > 0)


def _key(mask: int, n: int) -> str:
    """The '-+' key of orthant ``mask`` of n surfaces, the one writer of that text."""
    # binary digits after the marker bit n, reversed: character j is bit j
    return bin(mask | 1 << n)[:2:-1].translate(_KEY_OF_BIT)


@functools.lru_cache(maxsize=VALIDATION_ENUM_CAP)
def _bit_reversal(n: int) -> np.ndarray:
    """The n-bit reversals of 0 .. 2**n - 1: entry i is the mask of the i-th
    orthant in lexicographic order, and entry ``mask`` its rank there.

    Cached per n, so the array is shared and read-only.
    """
    masks = np.arange(1 << n)
    rev = np.zeros_like(masks)
    for j in range(n):
        rev |= (masks >> j & 1) << (n - 1 - j)
    rev.setflags(write=False)
    return rev


def _normal_speeds(eta: np.ndarray, gam: np.ndarray) -> np.ndarray:
    """``eta_j . gam[r]`` for every row r and surface j, shape (rows, n).

    Summed one column at a time from zero, the order of the scalar loop in
    ``b_evaluate``, so every entry is bitwise equal to its plain-float sum.
    """
    speeds = np.zeros((gam.shape[0], eta.shape[0]))
    for i in range(eta.shape[1]):
        speeds += gam[:, i, None] * eta[:, i]
    return speeds


@dataclass(frozen=True, order=True)
class Permutation:
    """A surface-crossing order: bijection on {1, ..., n}, 1-based values.

    ``order[k]`` is the (k+1)-th surface crossed.
    """

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.order)
        if not all(map(_is_int, self.order)) or sorted(self.order) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.order}")

    @property
    def n(self) -> int:
        return len(self.order)


def all_permutations(n: int) -> Iterator[Permutation]:
    """All n! crossing orders in lexicographic order."""
    for tup in itertools.permutations(range(1, n + 1)):
        yield Permutation(tup)


def _is_real(value) -> bool:
    """Whether ``value`` is a real number: a ``numbers.Real``, but no bool or numpy timedelta (an Integral)."""
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.timedelta64))


def _is_int(value) -> bool:
    """Whether ``value`` is a real number that is an integer (an int is tested first)."""
    return type(value) is int or _is_real(value) and isinstance(value, numbers.Integral)


def _shown(value) -> str:
    """``repr(value)``, but an int past the str conversion limit (4300 digits), which
    has no repr, shown by its bit count, also as an entry of a list; any other value
    with no repr by its type."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, list):
            return f"[{', '.join(map(_shown, value))}]"
        if isinstance(value, int):
            return f"an int of {value.bit_length()} bits"
        return f"a {type(value).__name__} with no repr"


def _scalar(value, what: str, low, high, integer: bool = False):
    """``value`` as a float, or as an int when ``integer`` is set, refused with
    ``ValueError(f"{what}, got {_shown(value)}")`` unless ``_is_real`` takes it (or
    ``_is_int``), its float is finite (an int past the largest double is not) and it
    lies in ``low``..``high``: an int as it is, any other real number by its float."""
    try:  # float() overflows on an int past the largest double
        x = float(value) if (_is_int if integer else _is_real)(value) else nan
    except OverflowError:
        x = inf
    if isfinite(x):
        x = int(value) if integer else x
        if low <= x <= high:
            return x
    raise ValueError(f"{what}, got {_shown(value)}")


GammaFn = Callable[[int], "np.ndarray | Sequence[float]"]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking corner data against the event-selection conditions.
    ``min_pair`` is the (1-based surface, orthant mask) of ``min_dot``."""

    n: int
    rank: int
    min_dot: float
    min_pair: tuple[int, int] | None
    f_min: float
    exhaustive: bool
    orthants_checked: int

    @property
    def rank_ok(self) -> bool:
        return self.rank == self.n

    @property
    def transversal_ok(self) -> bool:
        return self.min_dot >= self.f_min

    @property
    def ok(self) -> bool:
        return self.rank_ok and self.transversal_ok

    def raise_on_failure(self) -> None:
        if not self.rank_ok:
            raise RankDeficient(
                f"surface normals have rank {self.rank} < {self.n}; "
                "remove redundant (tangent) surfaces"
            )
        if not self.transversal_ok:
            j, mask = self.min_pair  # set whenever transversality fails
            raise NotEventSelected(
                f"normal-dot {self.min_dot:.6g} below floor {self.f_min:.3g} "
                f"at surface {j}, orthant {_key(mask, self.n)}"
            )


@dataclass(frozen=True, eq=False)
class CornerModel:
    """Local data of an event-selected field at a corner point.

    Fields
    ------
    d, n      : state dimension and number of event surfaces, read off eta.shape.
    rho       : the corner point, shape (d,).
    eta       : surface normals at rho, shape (n, d).  Row j is oriented so
                the flow crosses surface j from negative to positive side;
                rows are in the caller's units (never normalized here: every
                corner formula is invariant to positive row scaling).
    gamma     : a lazy model's callable, orthant mask (an int) -> limiting field
                value at rho, shape (d,), called on demand; None on a table model.
    f_min     : positive floor for the transversality products eta_j . gamma(b).
    table     : a table model's orthant limits, exactly 2**n rows of d by mask (see
                the module docstring), kept as one read-only (2**n, d) array; None
                on a lazy model.  Any other shape, a mapping included, is refused.

    Exactly one of gamma and table is given, and a gamma that is not callable
    is refused.  Every route in (the constructor, :meth:`create`,
    ``dataclasses.replace``) checks the data and keeps read-only copies; rank
    and transversality are validated lazily, once.
    Instances are immutable; all operations on them are pure functions, so
    models can be shared freely across threads.  They compare and hash by
    identity, so a model can key a dict.
    """

    d: int = field(init=False)
    n: int = field(init=False)
    rho: np.ndarray
    eta: np.ndarray
    gamma: GammaFn | None = None
    f_min: float = DEFAULT_F_MIN
    table: np.ndarray | Sequence | None = None
    # not an init field, so dataclasses.replace gives the new model a fresh cache
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        # copies: they are frozen below, and the caller's arrays stay writable
        eta = np.array(_read(self.eta, "eta", (None, None)))
        if 0 in eta.shape:
            raise ValueError(f"eta has shape {eta.shape}, expected (n, d) with n >= 1 and d >= 1")
        n, d = eta.shape
        rho = np.array(_read(self.rho, "rho", (d,)))
        f_min = _scalar(self.f_min, "f_min must be positive and finite", ulp(0.0), inf)  # the least positive float
        if (self.gamma is None) == (self.table is None):
            raise ValueError("a CornerModel takes exactly one of gamma (lazy) and table, got "
                             + ("neither" if self.gamma is None else "both"))
        if self.table is None and not callable(self.gamma):
            raise ValueError(f"gamma must be a callable of the orthant mask, got {type(self.gamma).__name__}; "
                             "a table of orthant limits is passed as table")
        rows, table, size = self.table, None, 1 << n
        if rows is not None:
            try:  # a copy, so the caller's array stays writable
                table = np.array(_read(rows, "gamma", (size, d)), order="C")
            except ValueError as exc:
                fault = exc
            if table is None:
                # a bad row of 2**n rows is named by its orthant (np.ndim raises on a ragged list)
                sized = isinstance(rows, Sequence) or isinstance(rows, np.ndarray) and rows.ndim > 0
                for mask in range(size) if sized and len(rows) == size else ():
                    _read(rows[mask], lambda mask=mask, n=n: f"gamma({_key(mask, n)})", (d,))
                raise fault
        for name, value in dict(d=d, n=n, rho=rho, eta=eta, f_min=f_min, table=table).items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    @staticmethod
    def create(
        rho: Sequence[float] | np.ndarray,
        eta: Sequence[Sequence[float]] | np.ndarray,
        gamma: GammaFn,
        f_min: float = DEFAULT_F_MIN,
        presumed_valid: bool = False,
    ) -> "CornerModel":
        """The constructor for a lazy gamma, refused with n > ``VALIDATION_ENUM_CAP``
        unless ``presumed_valid`` says transversality holds by construction."""
        m = CornerModel(rho, eta, gamma=gamma, f_min=f_min)
        if m.n > VALIDATION_ENUM_CAP and not presumed_valid:
            raise CapExceeded(f"exhaustive validation over 2**{m.n} orthants refused; construct the model "
                              "with presumed_valid=True if transversality holds by construction")
        return m

    # -- cached views used by the evaluation loops --------------------------

    def eta_rows(self) -> list[list[float]]:
        rows = self._cache.get("eta_rows")
        if rows is None:
            rows = self._cache["eta_rows"] = [row.tolist() for row in self.eta]
        return rows

    def eta_norms(self) -> np.ndarray:
        """Euclidean norms of the ``eta`` rows, shape (n,)."""
        norms = self._cache.get("eta_norms")
        if norms is None:
            norms = self._cache["eta_norms"] = np.linalg.norm(self.eta, axis=1)
            norms.setflags(write=False)
        return norms

    def gamma_row(self, mask: int) -> list[float]:
        """Orthant limit at ``mask`` as a plain float list (table rows converted
        once, as read; a lazy row is refused unless finite floats of shape (d,))."""
        if self.table is not None:
            rows = self._cache.setdefault("rows", {})
            row = rows.get(mask)
            if row is None:
                row = rows[mask] = self.table[mask].tolist()
            return row
        out = self.gamma(mask)
        # a list of d finite floats is taken as it is; anything else is read
        if not (type(out) is list and len(out) == self.d and all(map(float.__instancecheck__, out))
                and all(map(isfinite, out))):
            # default arguments keep mask and self plain locals: a closure over them
            # would make them cells, which costs every call
            out = _read(out, lambda mask=mask, n=self.n: f"gamma({_key(mask, n)})", (self.d,)).tolist()
        return out

    def gamma_at(self, mask: int) -> np.ndarray:
        """Orthant limit at ``mask``, shape (d,), checked as :meth:`gamma_row` checks it."""
        if self.table is not None:
            return self.table[mask]
        return np.array(self.gamma_row(mask), dtype=float)

    def gamma_vec(self, b: SignVector) -> np.ndarray:
        """Orthant limit ``gamma(b)``, shape (d,)."""
        return self.gamma_at(_orthant(b, "the orthant", self.n))

    def speeds(self) -> np.ndarray:
        """Normal speeds ``eta_j . gamma(mask)`` of a table model, shape (2**n, n)."""
        speeds = self._cache.get("speeds")
        if speeds is None:
            speeds = self._cache["speeds"] = _normal_speeds(self.eta, self.table)
        return speeds

    # -- validation ----------------------------------------------------------

    def validation(self) -> ValidationReport:
        rep = self._cache.get("validation")
        if rep is None:
            rep = self._cache["validation"] = validate_corner(self)
        return rep

    def require_valid(self) -> None:
        self.validation().raise_on_failure()


def _read(
    value, what: str | Callable[[], str], shape: tuple | list[tuple], finite: bool = True
) -> np.ndarray:
    """``value`` as a float array, refused with a ``ValueError`` unless its entries
    are real numbers, its shape fits ``shape`` and, when ``finite`` is set, every
    entry is finite.  A float array is returned as it is, with no cast or copy; any
    other plain array is real by its kind (integer or float), even when empty.  Any
    other value (a list, a tuple, an object array, an array subclass) is read entry
    by entry by ``_is_real``: a 0-d array entry as its value, a masked entry as none.
    In ``shape`` a ``None`` axis takes any length, and a list holds alternative
    shapes.  ``what`` names the value in the message: a string, or a callable that
    builds the name, called only on refusal.
    """
    try:
        if type(a := value) is not np.ndarray or a.dtype is not _FLOAT:  # a float array is read with no cast
            if type(a) is np.ndarray and a.dtype.kind != "O":  # a plain array is real by its kind
                real = a.dtype.kind in "iuf"
            else:
                entries = list(a.flat) if isinstance(a, np.ndarray) else np.asarray(a, dtype=object).ravel()
                real = set(map(type, entries)) <= {float, int} or all(
                    _is_real(e[()] if type(e) is np.ndarray else e) for e in entries)
            if not real:
                raise TypeError  # with no text, so that the value is named below
            a = np.asarray(a, dtype=float)  # an int past the largest double overflows here
    except (TypeError, ValueError, OverflowError) as exc:
        a = value if isinstance(value, np.ndarray) or exc.args else np.asarray(value, dtype=object)
        if exc.args or a.ndim < 1 or not a.size:  # numpy's text (an int past the largest double) or the value as given
            fault = f"entries that are not real numbers: {exc if exc.args else _shown(a.tolist() if a is value else value)}"
        else:  # a vector names its first entry that is not real, and a block that entry's row, as with a non-finite one
            r = next(i for i, e in enumerate(a.flat) if not _is_real(e[()] if type(e) is np.ndarray else e)) // (a.size // len(a))
            fault = (f"entries that are not real numbers in row {r}: " if a.ndim > 1
                     else f"an entry that is not a real number at index {r}: ") + _shown(a.tolist()[r])
    else:
        fits = a.shape == shape
        if not fits:
            shapes = shape if isinstance(shape, list) else [shape]
            # s fits when each axis is None or equal.  A loop, not a generator: a name
            # read in a nested scope would become a cell, which costs every call
            for s in shapes:
                fits = fits or len(s) == a.ndim and s.count(None) + sum(map(operator.eq, s, a.shape)) == len(s)
        if not fits:
            fault = f"shape {a.shape}, expected {' or '.join(str(s).replace('None', '*') for s in shapes)}"
        # a vector is tested on floats, and any other array by the bytes of its finite
        # mask, where a zero byte is a False: both cost less than ndarray.all()
        elif not finite or (all(map(isfinite, a.tolist())) if a.ndim == 1
                            else b"\0" not in np.isfinite(a).tobytes()):
            return a
        elif a.ndim < 1:  # a 0-d array, where its shape is asked
            fault = f"non-finite entries: {a.tolist()}"
        else:  # a vector names its first non-finite entry, and a block that entry's row
            r = int(np.isfinite(a).reshape(len(a), -1).all(axis=1).argmin())
            fault = (f"non-finite entries in row {r}: " if a.ndim > 1
                     else f"a non-finite entry at index {r}: ") + repr(a.tolist()[r])
    raise ValueError(f"{what if isinstance(what, str) else what()} has {fault}")


def _orthant(value, what: str, n: int) -> int:
    """The mask of ``value``, the argument a selection or ``gamma_vec`` receives,
    refused with a ``ValueError`` unless it is a :class:`SignVector` of n signs.
    ``what`` names it in the message."""
    if not (isinstance(value, SignVector) and value.n == n):
        raise ValueError(f"{what} must be a SignVector of {n} signs, got {value!r}")
    return value.mask


def _below_floor(m: CornerModel, j: int, mask: int, den: float, where: str) -> DegenerateDenominator:
    """The error for a normal speed ``eta_j . gamma(mask)`` (1-based surface j)
    below the model's floor; ``where`` ends the message."""
    return DegenerateDenominator(
        f"eta_{j} . gamma({_key(mask, m.n)}) = {den:.3g} "
        f"below floor {m.f_min:.3g}{where}"
    )


def validate_corner(m: CornerModel) -> ValidationReport:
    """Check the two event-selection conditions on corner data.

    Reports the numerical rank of ``eta`` and the minimum of
    ``eta_j . gamma(b)`` over surfaces j and orthants b; the model is valid
    iff the rank equals n and the minimum is at least ``f_min``.  A NaN
    normal-dot is the minimum, so it fails transversality.  Ties go to the
    first orthant in lexicographic order, then to the smallest surface.

    The orthant scan is exhaustive for a table model and for a lazy gamma with
    n <= 16.  A larger lazy gamma (which :meth:`CornerModel.create` takes only
    with ``presumed_valid=True``) is read on ``VALIDATION_SAMPLES`` orthants,
    drawn with seed 0.  Lazy rows are read by :meth:`CornerModel.gamma_row`,
    as the kernels read them, so a non-finite row is a ``ValueError``.
    """
    sv = np.linalg.svd(m.eta, compute_uv=False)
    rank = int(np.sum(sv > RANK_RTOL * sv[0]))
    exhaustive = m.table is not None or m.n <= VALIDATION_ENUM_CAP
    if exhaustive:
        masks = _bit_reversal(m.n)  # every orthant, in lexicographic order
    else:  # Python ints: an int64 or float64 array cannot hold every mask of n >= 64
        rng = np.random.default_rng(0)
        draws = [rng.choice((-1, 1), size=m.n).tolist() for _ in range(VALIDATION_SAMPLES)]
        masks = [sum(1 << j for j, s in enumerate(signs) if s > 0) for signs in draws]
    min_dot = np.inf
    min_pair: tuple[int, int] | None = None
    # blocks of orthants bound the memory a lazy gamma's scan takes
    for start in range(0, len(masks), 1024):
        block = masks[start : start + 1024]
        if m.table is not None:
            speeds = m.speeds()[block]  # the cached table that b_evaluate_block reads
        else:
            speeds = _normal_speeds(m.eta, np.array([m.gamma_row(int(k)) for k in block]))
        r, j = divmod(int(np.argmin(speeds)), m.n)  # the first NaN, if there is one
        dot = float(speeds[r, j])
        if dot < min_dot or dot != dot:
            min_dot, min_pair = dot, (j + 1, int(block[r]))
            if dot != dot:  # a NaN normal-dot fails transversality outright
                break
    return ValidationReport(
        n=m.n, rank=rank, min_dot=min_dot, min_pair=min_pair,
        f_min=m.f_min, exhaustive=exhaustive, orthants_checked=len(masks),
    )


# -- full fields for trajectory integration ----------------------------------


@dataclass(frozen=True)
class SmoothField:
    """A smooth vector field given by value and Jacobian callables."""

    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PiecewiseField:
    """An event-selected vector field: event functions plus orthant selections.

    The event surfaces are the zero sets of ``h``, and the active selection
    at a state x is ``selection(b)`` for the :class:`SignVector` b of the
    signs of ``h(x)``, a zero on the + side.  Away from all surfaces
    exactly one selection is active; each selection is a smooth extension
    valid in a neighborhood, so evaluating it slightly across a surface (as
    event localization does) is well defined.  ``rho`` is only the declared
    corner: no computation here reads it.
    """

    d: int
    n: int
    rho: np.ndarray
    h: Callable[[np.ndarray], np.ndarray]
    dh: Callable[[np.ndarray], np.ndarray]
    selection: Callable[[SignVector], SmoothField]

    def corner_model(
        self,
        rho: np.ndarray,
        incoming: int,
        surfaces: Sequence[int] | None = None,
    ) -> CornerModel:
        """Freeze the field at an event into a table-backed :class:`CornerModel`.

        ``incoming`` is the mask of the orthant the trajectory occupies just
        before the event; surfaces it has not yet crossed get their normals
        oriented along the crossing direction, so the corner model always
        runs from all-minus to all-plus regardless of how the event functions
        are signed.  ``surfaces`` restricts to a subset (1-based) of event
        surfaces crossing at this event, one surface for a single crossing;
        the rest stay frozen at their incoming sign.  Row ``mask`` of the
        table is one selection call evaluated at ``rho``.  An ``incoming``
        that is not an int mask in 0..2**n - 1, a surface that is not an int
        in 1..n (a bool is neither) or is named twice, and more than
        ``VALIDATION_ENUM_CAP`` surfaces are refused before any callable of
        the field runs.  A non-finite row of ``dh`` on a crossing surface is
        refused by naming ``dh``; the other rows are not read, so a NaN there
        is accepted, as :func:`~nsflow.flow.integrate` accepts it.
        """
        last = (1 << self.n) - 1
        incoming = _scalar(incoming, f"incoming must be an orthant mask in 0..{last}", 0, last, integer=True)
        subset = tuple(surfaces) if surfaces is not None else tuple(range(1, self.n + 1))
        k = len(subset)
        if not all(map(_is_int, subset)) or len(set(subset)) < k or not set(subset) <= set(range(1, self.n + 1)):
            raise ValueError(f"surfaces must be distinct surfaces in 1..{self.n}, got {subset}")
        if k > VALIDATION_ENUM_CAP:
            raise CapExceeded(f"2**{k} orthants refused: freezing {k} surfaces takes 2**{k} "
                              f"selection calls, more than 2**{VALIDATION_ENUM_CAP}")
        rho_a = _read(rho, "rho", (self.d,))
        dh_rho = _read(self.dh(rho_a), "dh", (self.n, self.d), finite=False)
        eta = []
        for j in subset:  # only the crossing surfaces' normals are read, so only they must be finite
            row = _read(dh_rho[j - 1], lambda j=j: f"dh on surface {j}", (self.d,))
            # orientation: a surface not yet crossed is crossed upward, a crossed one downward
            eta.append(-row if incoming >> (j - 1) & 1 else row)
        fulls = [incoming]  # the field's orthant at local mask i is fulls[i]
        for j in subset:
            fulls += [full ^ 1 << (j - 1) for full in fulls]
        rows = [self.selection(SignVector.from_mask(full, self.n)).value(rho_a) for full in fulls]
        return CornerModel(rho_a, eta, table=rows)


# -- JSON interchange ---------------------------------------------------------


def corner_model_to_json(m: CornerModel) -> str:
    """Serialize a corner model to the interchange schema (lazy: n <= 16).

    The text is byte for byte ``json.dumps(payload, indent=2)`` of the dict
    ``{"d", "n", "rho", "eta", "gamma", "f_min"}``, with the gamma rows keyed
    by '-+' key in lexicographic order, but written by one ``%``-template, with
    one ``%r`` (``float.__repr__``, json's form of a finite float) per float and
    one ``%s`` per key.  Every number here is finite by construction: the :class:`CornerModel`
    constructor checks ``rho``, ``eta``, ``f_min`` and the table rows, and
    :meth:`CornerModel.gamma_at` each lazy row as it is read.
    """
    if m.table is None and m.n > VALIDATION_ENUM_CAP:
        raise CapExceeded(f"2**{m.n} orthants refused: the JSON of a lazy model with n = {m.n} "
                          f"takes 2**{m.n} gamma rows, more than 2**{VALIDATION_ENUM_CAP}")
    order = _bit_reversal(m.n).tolist()
    rows = m.table[order] if m.table is not None else [m.gamma_at(mask) for mask in order]
    at4, vec = ",\n    ", ",\n      ".join(["%r"] * m.d)
    eta = at4.join([f"[\n      {vec}\n    ]"] * m.n)
    gamma = at4.join([f'"%s": [\n      {vec}\n    ]'] * len(order))
    text = (f'{{\n  "d": {m.d},\n  "n": {m.n},\n  "rho": [\n    {at4.join(["%r"] * m.d)}\n  ],\n'
            f'  "eta": [\n    {eta}\n  ],\n  "gamma": {{\n    {gamma}\n  }},\n  "f_min": %r\n}}')
    return text % (*m.rho.tolist(), *m.eta.ravel().tolist(),
                   *np.concatenate([[[_key(mask, m.n)] for mask in order], rows], axis=1, dtype=object).ravel(), m.f_min)


def _first_missing(rows, n: int) -> str:
    """The key of the lexicographically first orthant whose mask is not among the JSON
    reader's ``rows``, found in ``len(rows) + 1`` steps at most: rank r's key is r's n
    binary digits, '-' for 0."""
    masks = (int(f"{r:0{n}b}"[::-1], 2) for r in itertools.count())
    return _key(next(mask for mask in masks if mask not in rows), n)


def corner_model_from_json(text: str) -> CornerModel:
    """Parse the interchange schema; every malformed payload is a ValueError.

    The one reader of '-+' keys: ``n`` and ``d`` must equal ``eta``'s shape, and
    a table that misses orthants is refused by its first missing key.  The rows
    go to the constructor as they are, a list by mask, and it checks every value.
    """
    try:
        payload = json.loads(text)
    except ValueError as exc:  # a syntax error, or an int past the str conversion limit
        raise ValueError(f"malformed model JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError("model JSON must be an object")
    missing = [key for key in ("d", "n", "rho", "eta", "gamma") if key not in payload]
    if missing:
        raise ValueError(f"model JSON misses key(s) {', '.join(missing)}")
    if not isinstance(payload["gamma"], dict):
        raise ValueError('model JSON "gamma" must map sign keys to vectors')
    eta = _read(payload["eta"], "eta", (None, None))
    n, d = eta.shape
    for key, size, axis in (("n", n, "row"), ("d", d, "column")):
        _scalar(payload[key], f"malformed model JSON: {key} must equal eta's {axis} count {size}", size, size, integer=True)
    for key in payload["gamma"]:
        if not key or key.strip("-+"):
            raise ValueError(f"bad sign key {key!r}")
        if len(key) != n:
            raise ValueError(f"inconsistent gamma entry for key {key!r}")
    # character j of a key is bit j: reversed, the key reads as a binary numeral
    rows = {int(key[::-1].translate(_BIT_OF_SIGN), 2): row for key, row in payload["gamma"].items()}
    size = 1 << n
    if len(rows) < size:
        raise ValueError(f"gamma table misses {size - len(rows)} of {size} orthants, "
                         f"first missing {_first_missing(rows, n)}")
    table = [rows[mask] for mask in range(size)]
    return CornerModel(payload["rho"], eta, f_min=payload.get("f_min", DEFAULT_F_MIN), table=table)
