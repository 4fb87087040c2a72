"""Domain types for event-selected vector fields at a corner.

A *corner* is a point ``rho`` where ``n`` event surfaces intersect
transversally.  The local data needed by every algorithm in this package is
captured by :class:`CornerModel`: the surface normals at ``rho`` (rows of
``eta``), and the limiting field value ``gamma(b)`` taken on each of the
``2**n`` orthants ``b`` adjacent to the corner.  A full vector field with
event functions ``h``, for trajectory integration away from the corner, is a
:class:`PiecewiseField`; its event surfaces are the zero sets of ``h``.

Inside the package an orthant is an int *mask*: bit j is set when surface
j+1 has been crossed, so the all-minus orthant is 0 and the all-plus orthant
is ``2**n - 1``.  A table-backed model holds its orthant limits as one
read-only ``(2**n, d)`` array indexed by mask.  :class:`SignVector` (and its
``'-+'`` key) is the boundary type: callers pass gamma tables keyed by it,
lazy gammas receive it, and JSON, reports and error messages show it.
Surface-crossing orders (and the linear pieces of the corner derivative) are
indexed by :class:`Permutation`.  Surface indices are 1-based throughout the
public API.
"""

from __future__ import annotations

import functools
import itertools
import json
import numbers
from dataclasses import dataclass, field
from math import isfinite
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CapExceeded, NotEventSelected, RankDeficient

__all__ = [
    "SignVector",
    "Permutation",
    "CornerModel",
    "SmoothField",
    "PiecewiseField",
    "ValidationReport",
    "sign_of",
    "validate_corner",
    "all_sign_vectors",
    "all_permutations",
    "corner_model_to_json",
    "corner_model_from_json",
]

DEFAULT_F_MIN = 1e-9
RANK_RTOL = 1e-12
# Exhaustive gamma validation enumerates 2**n orthants; above this size a
# model must be constructed with presumed_valid=True, and validation checks
# VALIDATION_SAMPLES orthants drawn with seed 0.
VALIDATION_ENUM_CAP = 16
VALIDATION_SAMPLES = 64
_FLOAT = np.dtype(float)
_SIGN_OF_BIT = {"0": -1, "1": 1}
_BIT_OF_SIGN = str.maketrans("-+", "01")


@dataclass(frozen=True, order=True)
class SignVector:
    """Element of {-1,+1}^n indexing an orthant adjacent to the corner.

    Ordered lexicographically with -1 < +1, so iteration over all sign
    vectors is deterministic.
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.entries) < 1:
            raise ValueError("sign vector needs at least one entry")
        if any(e not in (-1, 1) for e in self.entries):
            raise ValueError(f"sign vector entries must be -1 or +1, got {self.entries}")

    @staticmethod
    def of(values: Iterable[int]) -> "SignVector":
        return SignVector(tuple(int(v) for v in values))

    @staticmethod
    def minus_ones(n: int) -> "SignVector":
        return SignVector((-1,) * n)

    @staticmethod
    def plus_ones(n: int) -> "SignVector":
        return SignVector((1,) * n)

    @staticmethod
    def from_mask(mask: int, n: int) -> "SignVector":
        """The orthant whose crossed surfaces are the set bits of ``mask``.

        Lazy gammas get their argument from here once per orthant visited,
        so the entries, valid by construction, skip ``__post_init__``.
        """
        # binary digits after the marker bit n, reversed: character j is bit j
        entries = tuple(map(_SIGN_OF_BIT.__getitem__, bin(mask | 1 << n)[:2:-1]))
        b = object.__new__(SignVector)
        object.__setattr__(b, "entries", entries)
        return b

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def mask(self) -> int:
        """Bit j set when position j is +1 (surface j+1 crossed)."""
        return sum(1 << j for j, e in enumerate(self.entries) if e > 0)

    def key(self) -> str:
        return "".join("-" if e < 0 else "+" for e in self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __str__(self) -> str:
        return self.key()


def all_sign_vectors(n: int) -> Iterator[SignVector]:
    """All 2**n sign vectors in lexicographic order (-1 before +1)."""
    for tup in itertools.product((-1, 1), repeat=n):
        yield SignVector(tup)


def _key_mask(key: str) -> int:
    """The mask of a '-'/'+' key, without building its :class:`SignVector`."""
    if not key or key.strip("-+"):
        raise ValueError(f"bad sign key {key!r}")
    # character j is bit j: reversed, the key reads as a binary numeral
    return int(key[::-1].translate(_BIT_OF_SIGN), 2)


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


@functools.lru_cache(maxsize=VALIDATION_ENUM_CAP)
def _mask_keys(n: int) -> tuple[str, ...]:
    """The '-+' key of every orthant, indexed by mask; cached per n."""
    lexicographic = [*map("".join, itertools.product("-+", repeat=n))]
    return tuple(lexicographic[rank] for rank in _bit_reversal(n).tolist())


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
        if sorted(self.order) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.order}")

    @staticmethod
    def of(values: Iterable[int]) -> "Permutation":
        return Permutation(tuple(int(v) for v in values))

    @property
    def n(self) -> int:
        return len(self.order)


def all_permutations(n: int) -> Iterator[Permutation]:
    """All n! crossing orders in lexicographic order."""
    for tup in itertools.permutations(range(1, n + 1)):
        yield Permutation(tup)


def sign_of(v: Sequence[float] | np.ndarray) -> SignVector:
    """Vectorized signum with the boundary convention that zero maps to +1."""
    arr = _reals(v, "the vector given to sign_of")
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("sign_of expects a nonempty 1-d vector")
    return SignVector(tuple(-1 if x < 0.0 else 1 for x in arr))


GammaFn = Callable[[SignVector], "np.ndarray | Sequence[float]"]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking corner data against the event-selection conditions."""

    n: int
    d: int
    rank: int
    min_dot: float
    min_pair: tuple[int, SignVector] | None
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
            j, b = self.min_pair if self.min_pair else (0, None)
            raise NotEventSelected(
                f"normal-dot {self.min_dot:.6g} below floor {self.f_min:.3g} "
                f"at surface {j}, orthant {b}"
            )


@dataclass(frozen=True)
class CornerModel:
    """Local data of an event-selected field at a corner point.

    Fields
    ------
    d, n      : state dimension and number of event surfaces.
    rho       : the corner point, shape (d,).
    eta       : surface normals at rho, shape (n, d).  Row j is oriented so
                the flow crosses surface j from negative to positive side;
                rows are in the caller's units (never normalized here: every
                corner formula is invariant to positive row scaling).
    gamma     : orthant -> limiting field value at rho, shape (d,).
    f_min     : positive floor for the transversality products eta_j . gamma(b).
    table     : for a table-backed model, the read-only (2**n, d) array of
                orthant limits indexed by mask (see the module docstring);
                None for a lazy gamma, which is called on demand.

    Instances are immutable; all operations on them are pure functions, so
    models can be shared freely across threads.
    """

    d: int
    n: int
    rho: np.ndarray
    eta: np.ndarray
    gamma: GammaFn
    f_min: float = DEFAULT_F_MIN
    table: np.ndarray | None = None
    presumed_valid: bool = False
    # not an init field, so dataclasses.replace gives the new model a fresh cache
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def create(
        rho: Sequence[float] | np.ndarray,
        eta: Sequence[Sequence[float]] | np.ndarray,
        gamma: GammaFn | Mapping[SignVector, Sequence[float]],
        f_min: float = DEFAULT_F_MIN,
        presumed_valid: bool = False,
    ) -> "CornerModel":
        """Build a model from arrays and either a gamma table or callable."""
        rho_a, eta_a = _corner_frame(rho, eta, f_min)
        n, d = eta_a.shape
        if isinstance(gamma, Mapping):
            rows = {b.mask: v for b, v in gamma.items() if isinstance(b, SignVector) and b.n == n}
            return _table_model(rho_a, eta_a, rows, f_min, presumed_valid)
        return CornerModel(
            d=d, n=n, rho=rho_a, eta=eta_a, gamma=gamma, f_min=float(f_min),
            presumed_valid=presumed_valid,
        )

    # -- cached views used by the evaluation loops --------------------------

    def eta_rows(self) -> list[list[float]]:
        rows = self._cache.get("eta_rows")
        if rows is None:
            rows = [row.tolist() for row in self.eta]
            self._cache["eta_rows"] = rows
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
        out = self.gamma(SignVector.from_mask(mask, self.n))
        # a list of d floats is taken as it is; anything else is converted
        if not (type(out) is list and len(out) == self.d and all(map(float.__instancecheck__, out))):
            out = _orthant_row(out, mask, self.n, self.d).tolist()
        if not all(map(isfinite, out)):
            raise _non_finite_error(mask, self.n)
        return out

    def gamma_at(self, mask: int) -> np.ndarray:
        """Orthant limit at ``mask``, shape (d,), checked as :meth:`gamma_row` checks it."""
        if self.table is not None:
            return self.table[mask]
        return np.array(self.gamma_row(mask), dtype=float)

    def gamma_vec(self, b: SignVector) -> np.ndarray:
        """Orthant limit ``gamma(b)``, shape (d,)."""
        return self.gamma_at(b.mask)

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
            rep = validate_corner(self)
            self._cache["validation"] = rep
        return rep

    def require_valid(self) -> None:
        self.validation().raise_on_failure()


def _reals(value, what: str | Callable[[], str]) -> np.ndarray:
    """``value`` as a float array, refused with a ``ValueError`` unless every
    entry is a real number.  ``what`` names it in the message: a string, or a
    callable that builds the name, called only on refusal."""
    try:
        a = np.asarray(value)
        if a.dtype is _FLOAT:  # already floats: the common case, read with no cast
            return a
        if a.dtype.kind != "c":  # checked first: a float cast keeps only the real parts
            return a.astype(float)
        fault = a.tolist()
    except (TypeError, ValueError, OverflowError) as exc:
        fault = exc
    name = what if isinstance(what, str) else what()
    raise ValueError(f"{name} has entries that are not real numbers: {fault}")


def _vector(value, what: str, d: int) -> np.ndarray:
    """``value`` as a float array, refused with a ``ValueError`` unless it is a
    finite vector of length d.  ``what`` names it in the message."""
    a = _reals(value, what)
    if a.shape != (d,):
        got = f"length {len(a)}, expected {d}" if a.ndim == 1 else f"shape {a.shape}, expected ({d},)"
        raise ValueError(f"{what} has {got}")
    entries = a.tolist()
    if not all(map(isfinite, entries)):
        raise ValueError(f"{what} has non-finite entries: {entries}")
    return a


def _vectors(value, what: str, d: int) -> tuple[np.ndarray, bool]:
    """``value``, one vector (d,) or a block (k, d), as a new finite (k, d) float
    array, and whether it was one vector; refused as :func:`_vector` refuses."""
    a = _reals(value, what)
    if a.ndim == 1:
        return _vector(a, what, d)[None].copy(), True
    if a.ndim != 2 or a.shape[1] != d:
        raise ValueError(f"{what} has shape {a.shape}, expected ({d},) or (k, {d})")
    bad = ~np.isfinite(a).all(axis=1)
    if bad.any():
        r = int(bad.argmax())
        raise ValueError(f"{what} has non-finite entries in row {r}: {a[r].tolist()}")
    return a.copy(), False


def _corner_frame(rho, eta, f_min: float) -> tuple[np.ndarray, np.ndarray]:
    """``rho`` and ``eta`` as checked, read-only float arrays."""
    # copies: they are frozen below, and the caller's arrays stay writable
    eta_a = np.array(_reals(eta, "eta"))
    if eta_a.ndim != 2 or 0 in eta_a.shape:
        raise ValueError(f"eta has shape {eta_a.shape}, expected (n, d) with n >= 1 and d >= 1")
    rho_a = np.array(_vector(rho, "rho", eta_a.shape[1]))
    # a bool is an int, but the JSON reader refuses true as a floor; a NaN fails too
    if isinstance(f_min, bool) or not (isinstance(f_min, numbers.Real) and 0.0 < f_min < np.inf):
        raise ValueError(f"f_min must be positive and finite, got {f_min!r}")
    if not np.isfinite(eta_a).all():
        raise ValueError("eta has non-finite entries")
    rho_a.setflags(write=False)
    eta_a.setflags(write=False)
    return rho_a, eta_a


def _table_model(
    rho: np.ndarray, eta: np.ndarray, rows, f_min: float, presumed_valid: bool = False
) -> CornerModel:
    """A table model from :func:`_corner_frame` arrays and ``rows[mask]``,
    the limit on orthant ``mask``: a sequence of 2**n rows, or a mapping
    whose keys are masks below 2**n."""
    n, d = eta.shape
    if len(rows) < 1 << n:
        missing = [b for b in all_sign_vectors(n) if b.mask not in rows]
        raise ValueError(
            f"gamma table misses {len(missing)} of {2 ** n} orthants, "
            f"first missing {missing[0]}"
        )
    try:
        if isinstance(rows, np.ndarray):  # one copy, so the caller's array stays writable
            table = np.array(_reals(rows, "gamma"), order="C")
        else:
            table = _reals([rows[mask] for mask in range(1 << n)], "gamma")
    except ValueError:
        table = None
    if table is None or table.shape != (1 << n, d):
        # row by row, so the error names the first bad orthant in mask order
        table = np.array([_orthant_row(rows[mask], mask, n, d) for mask in range(1 << n)])
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise _non_finite_error(int(np.argmin(finite)), n)
    table.setflags(write=False)
    return CornerModel(
        d=d, n=n, rho=rho, eta=eta, gamma=lambda b: table[b.mask], f_min=float(f_min),
        table=table, presumed_valid=presumed_valid,
    )


def _orthant_row(value, mask: int, n: int, d: int) -> np.ndarray:
    """``value``, the limit on orthant ``mask``, as a float array; refused unless
    made of real numbers and of shape (d,)."""
    name = lambda: f"gamma({SignVector.from_mask(mask, n)})"  # built only on refusal
    v = _reals(value, name)
    if v.shape != (d,):
        raise ValueError(f"{name()} has shape {v.shape}, expected ({d},)")
    return v


def _non_finite_error(mask: int, n: int) -> ValueError:
    return ValueError(f"gamma({SignVector.from_mask(mask, n)}) has non-finite entries")


def _eta_rank(eta: np.ndarray) -> int:
    sv = np.linalg.svd(eta, compute_uv=False)
    return int(np.sum(sv > RANK_RTOL * sv[0]))


def validate_corner(m: CornerModel) -> ValidationReport:
    """Check the two event-selection conditions on corner data.

    Reports the numerical rank of ``eta`` and the minimum of
    ``eta_j . gamma(b)`` over surfaces j and orthants b; the model is valid
    iff the rank equals n and the minimum is at least ``f_min``.  A NaN
    normal-dot is the minimum, so it fails transversality; an orthant limit
    with a non-finite entry counts as one.  Ties go to the
    first orthant in lexicographic order, then to the smallest surface.

    The orthant scan is exhaustive for n <= 16.  Larger models must be
    constructed with ``presumed_valid=True`` (the generator guarantees
    transversality structurally); then only ``VALIDATION_SAMPLES`` orthants,
    drawn with seed 0, are checked.
    """
    rank = _eta_rank(m.eta)
    exhaustive = m.n <= VALIDATION_ENUM_CAP
    if not (exhaustive or m.presumed_valid):
        raise _validation_cap_error(m.n)
    if exhaustive:
        masks = _bit_reversal(m.n)  # every orthant, in lexicographic order
    else:
        rng = np.random.default_rng(0)
        masks = np.array(
            [SignVector.of(rng.choice((-1, 1), size=m.n)).mask for _ in range(VALIDATION_SAMPLES)]
        )
    min_dot = np.inf
    min_pair: tuple[int, SignVector] | None = None
    # blocks of orthants bound the memory a lazy gamma's scan takes
    for start in range(0, len(masks), 1024):
        block = masks[start : start + 1024]
        if m.table is not None and exhaustive:
            speeds = m.speeds()[block]  # the cached table that b_evaluate_block reads
        else:
            # a lazy gamma, or only the sampled rows of a table (bitwise as in speeds()),
            # read raw: gamma_at would refuse the non-finite rows counted below
            rows = np.array([_orthant_row(m.gamma(SignVector.from_mask(k, m.n)), k, m.n, m.d)
                             for k in block.tolist()])
            speeds = _normal_speeds(m.eta, rows)
            # a non-finite row is a NaN normal-dot: its first NaN speed, else surface 1
            speeds[~np.isfinite(rows).all(axis=1) & ~np.isnan(speeds).any(axis=1), 0] = np.nan
        r, j = divmod(int(np.argmin(speeds)), m.n)  # the first NaN, if there is one
        dot = float(speeds[r, j])
        if dot < min_dot or dot != dot:
            min_dot, min_pair = dot, (j + 1, SignVector.from_mask(int(block[r]), m.n))
            if dot != dot:  # a NaN normal-dot fails transversality outright
                break
    return ValidationReport(
        n=m.n, d=m.d, rank=rank, min_dot=min_dot, min_pair=min_pair,
        f_min=m.f_min, exhaustive=exhaustive, orthants_checked=len(masks),
    )


def _validation_cap_error(n: int) -> CapExceeded:
    return CapExceeded(
        f"exhaustive validation over 2**{n} orthants refused; construct the "
        "model with presumed_valid=True if transversality holds by construction"
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
    at a state x is ``selection(sign_of(h(x)))``.  Away from all surfaces
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
        incoming: SignVector,
        surfaces: Sequence[int] | None = None,
    ) -> CornerModel:
        """Freeze the field at an event into a table-backed :class:`CornerModel`.

        ``incoming`` is the orthant the trajectory occupies just before the
        event; surfaces it has not yet crossed get their normals oriented
        along the crossing direction, so the corner model always runs from
        all-minus to all-plus regardless of how the event functions are
        signed.  ``surfaces`` restricts to a subset (1-based) of event
        surfaces crossing at this event, one surface for a single crossing;
        the rest stay frozen at their incoming sign.  Row ``mask`` of the
        table is one selection call evaluated at ``rho``; more than
        ``VALIDATION_ENUM_CAP`` surfaces are refused before any is made.
        """
        subset = tuple(surfaces) if surfaces is not None else tuple(range(1, self.n + 1))
        k = len(subset)
        if k > VALIDATION_ENUM_CAP:
            raise _validation_cap_error(k)
        rho_a = _vector(rho, "rho", self.d)  # before any callable of the field runs
        dh_rho = np.asarray(self.dh(rho_a), dtype=float)
        # orientation: a surface at -1 is crossed upward (+1), one at +1 downward
        eta = [dh_rho[j - 1] if incoming[j - 1] == -1 else -dh_rho[j - 1] for j in subset]
        frame = _corner_frame(rho_a, eta, DEFAULT_F_MIN)
        fulls = [incoming.mask]  # the field's orthant at local mask i is fulls[i]
        for j in subset:
            fulls += [full ^ 1 << (j - 1) for full in fulls]
        rows = [self.selection(SignVector.from_mask(full, self.n)).value(rho_a) for full in fulls]
        return _table_model(*frame, rows, DEFAULT_F_MIN)


# -- JSON interchange ---------------------------------------------------------


def corner_model_to_json(m: CornerModel) -> str:
    """Serialize a corner model to the interchange schema (lazy: n <= 16).

    The text is byte for byte ``json.dumps(payload, indent=2)`` of the dict
    ``{"d", "n", "rho", "eta", "gamma", "f_min"}``, with the gamma rows keyed
    by '-+' key in lexicographic order, but written without json's
    pure-Python indenting encoder: each vector is one ``str.join`` of
    ``float.__repr__`` texts, which is how json writes a finite float.  Every
    number here is finite by construction: :func:`_corner_frame` checks
    ``rho``, ``eta`` and ``f_min``, :func:`_table_model` the table rows, and
    :meth:`CornerModel.gamma_at` each lazy row as it is read.
    """
    if m.table is None and m.n > VALIDATION_ENUM_CAP:
        raise _validation_cap_error(m.n)
    keys = _mask_keys(m.n)
    order = _bit_reversal(m.n).tolist()
    if m.table is not None:
        rows = m.table[order].tolist()
    else:
        rows = [m.gamma_at(mask).tolist() for mask in order]
    num = float.__repr__
    at4 = ",\n    ".join
    at6 = ",\n      ".join
    eta = at4(["[\n      " + at6(map(num, row)) + "\n    ]" for row in m.eta.tolist()])
    gamma = at4([
        f'"{keys[mask]}": [\n      ' + at6(map(num, row)) + "\n    ]"
        for mask, row in zip(order, rows)
    ])
    return (
        f'{{\n  "d": {m.d},\n  "n": {m.n},\n  "rho": [\n    {at4(map(num, m.rho.tolist()))}\n  ],\n'
        f'  "eta": [\n    {eta}\n  ],\n  "gamma": {{\n    {gamma}\n  }},\n  "f_min": {num(m.f_min)}\n}}'
    )


def _not_a_number_error(key: str, raw: object) -> ValueError:
    kind = "a number" if key == "f_min" else "an integer"
    return ValueError(f"malformed model JSON: {key} must be {kind}, got {raw!r}")


def corner_model_from_json(text: str) -> CornerModel:
    """Parse the interchange schema; every malformed payload is a ValueError."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("model JSON must be an object")
    missing = [key for key in ("d", "n", "rho", "eta", "gamma") if key not in payload]
    if missing:
        raise ValueError(f"model JSON misses key(s) {', '.join(missing)}")
    if not isinstance(payload["gamma"], dict):
        raise ValueError('model JSON "gamma" must map sign keys to vectors')
    # int() and float() would coerce these; a non-integral size is caught below
    for key in ("n", "d", "f_min"):
        if isinstance(payload.get(key), (bool, str)):
            raise _not_a_number_error(key, payload[key])
    masks = [_key_mask(key) for key in payload["gamma"]]
    try:
        n = int(payload["n"])
        d = int(payload["d"])
        rho = np.array(payload["rho"], dtype=float)
        eta = np.array(payload["eta"], dtype=float)
        vecs = [np.array(vec, dtype=float) for vec in payload["gamma"].values()]
        f_min = float(payload.get("f_min", DEFAULT_F_MIN))
    # OverflowError: an infinite n or d, or an integer beyond the float range
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed model JSON: {exc}") from exc
    for key, value in (("n", n), ("d", d)):
        if payload[key] != value:
            raise _not_a_number_error(key, payload[key])
    for key, v in zip(payload["gamma"], vecs):
        if len(key) != n or v.shape != (d,):
            raise ValueError(f"inconsistent gamma entry for key {key!r}")
    rho, eta = _corner_frame(rho, eta, f_min)
    # keys of the declared length name no orthant of an eta with another row count
    rows = dict(zip(masks, vecs)) if eta.shape[0] == n else {}
    return _table_model(rho, eta, rows, f_min)
