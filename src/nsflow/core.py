"""Domain types for event-selected vector fields at a corner.

A *corner* is a point ``rho`` where ``n`` event surfaces intersect
transversally.  The local data needed by every algorithm in this package is
captured by :class:`CornerModel`: the surface normals at ``rho`` (rows of
``eta``), and the limiting field value ``gamma(b)`` taken on each of the
``2**n`` orthants ``b`` adjacent to the corner.  A full vector field with
event functions, for trajectory integration away from the corner, is a
:class:`PiecewiseField`.

Orthants are indexed by :class:`SignVector`; surface-crossing orders (and the
linear pieces of the corner derivative) are indexed by :class:`Permutation`.
Surface indices are 1-based throughout the public API.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
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
# model must be constructed with presumed_valid=True.
VALIDATION_ENUM_CAP = 16


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
    def from_key(key: str) -> "SignVector":
        """Parse a '-'/'+' string; position j is surface j+1."""
        if not key or any(c not in "-+" for c in key):
            raise ValueError(f"bad sign key {key!r}")
        return SignVector(tuple(-1 if c == "-" else 1 for c in key))

    @property
    def n(self) -> int:
        return len(self.entries)

    def key(self) -> str:
        return "".join("-" if e < 0 else "+" for e in self.entries)

    def negate(self) -> "SignVector":
        return SignVector(tuple(-e for e in self.entries))

    def flip(self, j: int) -> "SignVector":
        """Return a copy with 1-based position j flipped."""
        e = list(self.entries)
        e[j - 1] = -e[j - 1]
        return SignVector(tuple(e))

    def __len__(self) -> int:
        return len(self.entries)

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

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.order)

    def prefix_sign(self, k: int) -> SignVector:
        """Sign vector that is +1 exactly on the first k crossed surfaces.

        prefix_sign(0) is all -1 (nothing crossed yet) and prefix_sign(n) is
        all +1.
        """
        if not 0 <= k <= self.n:
            raise ValueError(f"prefix length {k} out of range 0..{self.n}")
        e = [-1] * self.n
        for j in self.order[:k]:
            e[j - 1] = 1
        return SignVector(tuple(e))

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, i: int) -> int:
        return self.order[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.order)


def all_permutations(n: int) -> Iterator[Permutation]:
    """All n! crossing orders in lexicographic order."""
    for tup in itertools.permutations(range(1, n + 1)):
        yield Permutation(tup)


def sign_of(v: Sequence[float] | np.ndarray) -> SignVector:
    """Vectorized signum with the boundary convention that zero maps to +1."""
    arr = np.asarray(v, dtype=float)
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

    def summary(self) -> str:
        status = "ok" if self.ok else "FAILED"
        tail = "" if self.exhaustive else f" (sampled {self.orthants_checked} orthants)"
        return (
            f"corner validation {status}: rank {self.rank}/{self.n}, "
            f"min normal-dot {self.min_dot:.6g} vs floor {self.f_min:.3g}{tail}"
        )

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

    Instances are immutable; all operations on them are pure functions, so
    models can be shared freely across threads.
    """

    d: int
    n: int
    rho: np.ndarray
    eta: np.ndarray
    gamma: GammaFn
    f_min: float = DEFAULT_F_MIN
    gamma_table: Mapping[SignVector, np.ndarray] | None = None
    presumed_valid: bool = False
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @staticmethod
    def create(
        rho: Sequence[float] | np.ndarray,
        eta: Sequence[Sequence[float]] | np.ndarray,
        gamma: GammaFn | Mapping[SignVector, Sequence[float]],
        f_min: float = DEFAULT_F_MIN,
        presumed_valid: bool = False,
    ) -> "CornerModel":
        """Build a model from arrays and either a gamma table or callable."""
        rho_a = np.array(rho, dtype=float)
        eta_a = np.array(eta, dtype=float)
        if eta_a.ndim != 2:
            raise ValueError("eta must be a 2-d array (n rows, d columns)")
        n, d = eta_a.shape
        if rho_a.shape != (d,):
            raise ValueError(f"rho has shape {rho_a.shape}, expected ({d},)")
        if not f_min > 0.0:
            raise ValueError("f_min must be positive")
        if not (np.isfinite(rho_a).all() and np.isfinite(eta_a).all()):
            raise ValueError("rho and eta must be finite")
        rho_a.setflags(write=False)
        eta_a.setflags(write=False)

        table: dict[SignVector, np.ndarray] | None = None
        if isinstance(gamma, Mapping):
            table = {}
            for b, vec in gamma.items():
                v = np.array(vec, dtype=float)
                if v.shape != (d,):
                    raise ValueError(f"gamma({b}) has shape {v.shape}, expected ({d},)")
                v.setflags(write=False)
                table[b] = v
            missing = [b for b in all_sign_vectors(n) if b not in table]
            if missing:
                raise ValueError(
                    f"gamma table misses {len(missing)} of {2 ** n} orthants, "
                    f"first missing {missing[0]}"
                )
            finite = np.isfinite(np.array(list(table.values()))).all(axis=1)
            if not finite.all():
                bad = list(table)[int(np.argmin(finite))]
                raise ValueError(f"gamma({bad}) has non-finite entries")
            fn: GammaFn = table.__getitem__
        else:
            fn = gamma

        return CornerModel(
            d=d, n=n, rho=rho_a, eta=eta_a, gamma=fn, f_min=float(f_min),
            gamma_table=table, presumed_valid=presumed_valid,
        )

    # -- plain-Python views used by the evaluation hot loop -----------------

    def eta_rows(self) -> list[list[float]]:
        rows = self._cache.get("eta_rows")
        if rows is None:
            rows = [row.tolist() for row in self.eta]
            self._cache["eta_rows"] = rows
        return rows

    def eta_norms(self) -> list[float]:
        """Euclidean norms of the ``eta`` rows, as plain floats."""
        norms = self._cache.get("eta_norms")
        if norms is None:
            norms = np.linalg.norm(self.eta, axis=1).tolist()
            self._cache["eta_norms"] = norms
        return norms

    def gamma_list(self, entries: tuple[int, ...]) -> list[float]:
        """Orthant limit as a plain float list, keyed by raw sign entries."""
        if self.gamma_table is not None:
            lists = self._cache.get("gamma_lists")
            if lists is None:
                lists = {bb.entries: v.tolist() for bb, v in self.gamma_table.items()}
                self._cache["gamma_lists"] = lists
            return lists[entries]
        out = self.gamma(SignVector(entries))
        if type(out) is list:
            return out
        return np.asarray(out, dtype=float).tolist()

    def gamma_vec(self, b: SignVector) -> np.ndarray:
        if self.gamma_table is not None:
            return self.gamma_table[b]
        return np.asarray(self.gamma(b), dtype=float)

    # -- validation ----------------------------------------------------------

    def validation(self) -> ValidationReport:
        rep = self._cache.get("validation")
        if rep is None:
            rep = validate_corner(self)
            self._cache["validation"] = rep
        return rep

    def require_valid(self) -> None:
        self.validation().raise_on_failure()


def _eta_rank(eta: np.ndarray) -> int:
    sv = np.linalg.svd(eta, compute_uv=False)
    if sv.size == 0:
        return 0
    return int(np.sum(sv > RANK_RTOL * sv[0]))


def validate_corner(m: CornerModel, sample_count: int = 64) -> ValidationReport:
    """Check the two event-selection conditions on corner data.

    Reports the numerical rank of ``eta`` and the minimum of
    ``eta_j . gamma(b)`` over surfaces j and orthants b; the model is valid
    iff the rank equals n and the minimum is at least ``f_min``.

    The orthant scan is exhaustive for n <= 16.  Larger models must be
    constructed with ``presumed_valid=True`` (the generator guarantees
    transversality structurally); then only a fixed random sample of orthants
    is checked.
    """
    rank = _eta_rank(m.eta)
    exhaustive = m.n <= VALIDATION_ENUM_CAP
    if exhaustive:
        orthants: Iterable[SignVector] = all_sign_vectors(m.n)
        count = 2 ** m.n
    else:
        if not m.presumed_valid:
            raise _validation_cap_error(m.n)
        rng = np.random.default_rng(0)
        orthants = (
            SignVector(tuple(int(s) for s in rng.choice((-1, 1), size=m.n)))
            for _ in range(sample_count)
        )
        count = sample_count

    min_dot = np.inf
    min_pair: tuple[int, SignVector] | None = None
    for b in orthants:
        dots = m.eta @ m.gamma_vec(b)
        j = int(np.argmin(dots))  # the first NaN, if there is one
        dot = float(dots[j])
        if dot < min_dot or dot != dot:
            min_dot = dot
            min_pair = (j + 1, b)
            if dot != dot:  # a NaN normal-dot fails transversality outright
                break
    return ValidationReport(
        n=m.n, d=m.d, rank=rank, min_dot=min_dot, min_pair=min_pair,
        f_min=m.f_min, exhaustive=exhaustive, orthants_checked=count,
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

    The active selection at a state x is ``selection(sign_of(h(x) - h_ref))``
    where ``h_ref`` defaults to ``h(rho)`` for the declared corner ``rho``.
    Away from all surfaces exactly one selection is active; each selection is
    a smooth extension valid in a neighborhood, so evaluating it slightly
    across a surface (as event localization does) is well defined.
    """

    d: int
    n: int
    rho: np.ndarray
    h: Callable[[np.ndarray], np.ndarray]
    dh: Callable[[np.ndarray], np.ndarray]
    selection: Callable[[SignVector], SmoothField]
    h_ref: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.h_ref is None:
            ref = np.asarray(self.h(np.asarray(self.rho, dtype=float)), dtype=float)
            object.__setattr__(self, "h_ref", ref)

    def orthant(self, x: np.ndarray) -> SignVector:
        return sign_of(np.asarray(self.h(x), dtype=float) - self.h_ref)

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.selection(self.orthant(x)).value(x)

    def corner_model(
        self,
        rho: np.ndarray | None = None,
        incoming: SignVector | None = None,
        surfaces: Sequence[int] | None = None,
        f_min: float = DEFAULT_F_MIN,
    ) -> CornerModel:
        """Freeze the field at a corner into a :class:`CornerModel`.

        ``incoming`` is the orthant the trajectory occupies just before the
        corner; surfaces it has not yet crossed get their normals oriented
        along the crossing direction, so the corner model always runs from
        all-minus to all-plus regardless of how the event functions are
        signed.  ``surfaces`` restricts to a subset (1-based) of event
        surfaces crossing at this corner; the rest stay frozen at their
        incoming sign.
        """
        rho_a = np.asarray(self.rho if rho is None else rho, dtype=float)
        subset = tuple(surfaces) if surfaces is not None else tuple(range(1, self.n + 1))
        k = len(subset)
        if incoming is None:
            incoming = SignVector.minus_ones(self.n)
        # orientation: a surface at -1 is crossed upward (+1), one at +1 downward
        orient = [1.0 if incoming[j - 1] == -1 else -1.0 for j in subset]
        dh_rho = np.asarray(self.dh(rho_a), dtype=float)
        eta = np.array([orient[i] * dh_rho[subset[i] - 1] for i in range(k)])

        def gamma(c: SignVector) -> np.ndarray:
            full = list(incoming.entries)
            for i, j in enumerate(subset):
                full[j - 1] = incoming[j - 1] if c[i] == -1 else -incoming[j - 1]
            b = SignVector(tuple(full))
            return np.asarray(self.selection(b).value(rho_a), dtype=float)

        return CornerModel.create(rho=rho_a, eta=eta, gamma=gamma, f_min=f_min)

    def corner_model_table(self, **kwargs) -> CornerModel:
        """Like :meth:`corner_model` but with gamma materialized as a table."""
        lazy = self.corner_model(**kwargs)
        table = {b: lazy.gamma_vec(b) for b in all_sign_vectors(lazy.n)}
        return CornerModel.create(
            rho=lazy.rho, eta=lazy.eta, gamma=table, f_min=lazy.f_min
        )


# -- JSON interchange ---------------------------------------------------------


def corner_model_to_json(m: CornerModel) -> str:
    """Serialize a table-backed corner model to the interchange schema."""
    if m.gamma_table is None:
        if m.n > VALIDATION_ENUM_CAP:
            raise _validation_cap_error(m.n)
        table = {b: m.gamma_vec(b) for b in all_sign_vectors(m.n)}
    else:
        table = dict(m.gamma_table)
    payload = {
        "d": m.d,
        "n": m.n,
        "rho": m.rho.tolist(),
        "eta": m.eta.tolist(),
        "gamma": {b.key(): table[b].tolist() for b in all_sign_vectors(m.n)},
        "f_min": m.f_min,
    }
    return json.dumps(payload, indent=2)


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
    try:
        n = int(payload["n"])
        d = int(payload["d"])
        rho = np.array(payload["rho"], dtype=float)
        eta = np.array(payload["eta"], dtype=float)
        gamma = {
            SignVector.from_key(key): np.array(vec, dtype=float)
            for key, vec in payload["gamma"].items()
        }
        f_min = float(payload.get("f_min", DEFAULT_F_MIN))
    except TypeError as exc:
        raise ValueError(f"malformed model JSON: {exc}") from exc
    for b, v in gamma.items():
        if b.n != n or v.shape != (d,):
            raise ValueError(f"inconsistent gamma entry for key {b.key()!r}")
    return CornerModel.create(rho=rho, eta=eta, gamma=gamma, f_min=f_min)
