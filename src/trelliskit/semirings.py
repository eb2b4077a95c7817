"""Commutative semirings shared by every trellis recursion.

A semiring bundles the two binary operations (written ``add`` and ``mul``)
together with their identities.  The same recursion code then computes
ordinary flows and moments (real semiring), numerically robust flows
(log-domain real semiring), Viterbi path metrics (tropical min-plus) or
reachability (boolean), depending only on which instance is passed in.

Carrier conventions of the bundled instances:

======== =============================== ===========================
id       carrier                         add / mul
======== =============================== ===========================
real     float                           ``+`` / ``*``
logreal  float, log-domain (``-inf``=0)  log-sum-exp / ``+``
tropical float (``+inf`` = zero)         ``min`` / ``+``
maxprod  nonnegative float               ``max`` / ``*``
boolean  bool                            ``or`` / ``and``
======== =============================== ===========================

Each operation is a numpy ufunc, so one layer step of the sweeps in
:mod:`trelliskit.moments` runs on whole arrays in every semiring.  Plain
real numbers (e.g. labels parsed from a trellis file) are coerced into a
carrier through ``SemiringSpec.from_real``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import SemiringError

# Largest moment order supported by the exact binomial-coefficient table.
MAX_ORDER = 64

# Pascal's triangle with exact integer entries, rows 0..MAX_ORDER.
_PASCAL: list[list[int]] = [[1]]
for _row in range(1, MAX_ORDER + 1):
    _prev = _PASCAL[-1]
    _PASCAL.append(
        [1] + [_prev[i - 1] + _prev[i] for i in range(1, _row)] + [1]
    )


def binomial(m: int, l: int) -> int:
    """Exact binomial coefficient C(m, l) for 0 <= l <= m <= MAX_ORDER."""
    if not 0 <= m <= MAX_ORDER:
        raise SemiringError(f"order {m} outside supported range 0..{MAX_ORDER}")
    if not 0 <= l <= m:
        raise SemiringError(f"binomial index {l} outside 0..{m}")
    return _PASCAL[m][l]


def _carrier(x: Any, dtype: type = float) -> Any:
    """``x`` as an array of ``dtype``; a 0-d one as its Python scalar."""
    values = np.asarray(x, dtype=dtype)
    return values if values.ndim else values.item()


@dataclass(frozen=True)
class SemiringSpec:
    """One commutative semiring: (add, mul) with identities (zero, one).

    ``add`` and ``mul`` are numpy ufuncs: element-wise on scalars or
    arrays, with the ``reduce`` and ``reduceat`` the sweeps use.  ``zero``
    is the identity of ``add`` and annihilates under ``mul``; ``one`` is
    the identity of ``mul``.  ``from_real`` coerces a real number (a
    Python scalar comes back) or an array into the carrier and raises
    SemiringError when a value is not representable.  ``scale`` is the
    n-fold add of binomial-coefficient weighting, element-wise on arrays
    (``n * a`` for the real semiring, ``a`` for n >= 1 when add is
    idempotent); the sweeps call it, so every semiring gives it.

    Instances are immutable values and safe to share between workers; all
    operations are pure functions of their arguments.
    """

    name: str
    add: np.ufunc
    mul: np.ufunc
    zero: Any
    one: Any
    scale: Callable[[Any, Any], Any]
    from_real: Callable[[Any], Any] = _carrier

    def __repr__(self) -> str:  # keeps JSON/debug output short
        return f"SemiringSpec({self.name!r})"


def nat_scale(semiring: SemiringSpec, n: int, a: Any) -> Any:
    """n-fold ``add`` of ``a`` with itself; ``zero`` when n == 0.

    A spec built with ``scale=None`` gets the n-fold add by repeated
    doubling, which is how each semiring's ``scale`` can be checked.
    """
    if n < 0:
        raise SemiringError(f"natural scaling needs n >= 0, got {n}")
    if semiring.scale is not None:
        return semiring.scale(n, a)
    result = semiring.zero
    addend = a
    while n:
        if n & 1:
            result = semiring.add(result, addend)
        n >>= 1
        if n:
            addend = semiring.add(addend, addend)
    return result


def power(semiring: SemiringSpec, a: Any, m: int) -> Any:
    """m-fold ``mul`` of ``a`` with itself; ``one`` when m == 0."""
    if m < 0:
        raise SemiringError(f"power needs m >= 0, got {m}")
    result = semiring.one
    factor = a
    while m:
        if m & 1:
            result = semiring.mul(result, factor)
        m >>= 1
        if m:
            factor = semiring.mul(factor, factor)
    return result


def semiring_binomial(semiring: SemiringSpec, a: Any, b: Any, m: int) -> Any:
    """Binomial expansion: add-sum over l of C(m,l) a^l mul b^(m-l).

    Equals ``power(add(a, b), m)`` in any commutative semiring; the
    expansion is computed literally so that the identity stays a testable
    property rather than a definition.
    """
    if m < 0:
        raise SemiringError(f"binomial expansion needs m >= 0, got {m}")
    total = semiring.zero
    for l in range(m + 1):
        term = semiring.mul(power(semiring, a, l), power(semiring, b, m - l))
        total = semiring.add(total, nat_scale(semiring, binomial(m, l), term))
    return total


def _nonnegative(x: Any, carrier: str) -> np.ndarray:
    values = np.asarray(x, dtype=float)
    negative = values < 0.0
    if negative.any():
        raise SemiringError(
            f"{carrier} semiring cannot represent negative value "
            f"{float(values[negative][0])}"
        )
    return values


def _log_from_real(x: Any) -> Any:
    values = _nonnegative(x, "log-domain")
    with np.errstate(divide="ignore"):  # log(0) is the carrier zero
        return _carrier(np.log(values))


def _log_scale(n: Any, a: Any) -> Any:
    with np.errstate(divide="ignore"):
        return np.log(n) + a


def _idempotent_scale(zero: Any) -> Callable[[Any, Any], Any]:
    """n-fold add in a semiring whose add is idempotent: ``a`` for every
    n >= 1 and ``zero`` for n == 0."""
    return lambda n, a: np.where(np.equal(n, 0), zero, a)[()]


REAL = SemiringSpec(
    name="real",
    add=np.add,
    mul=np.multiply,
    zero=0.0,
    one=1.0,
    scale=lambda n, a: n * a,
)

LOGREAL = SemiringSpec(
    name="logreal",
    add=np.logaddexp,
    mul=np.add,
    zero=-math.inf,
    one=0.0,
    from_real=_log_from_real,
    scale=_log_scale,
)

TROPICAL = SemiringSpec(
    name="tropical",
    add=np.minimum,
    mul=np.add,
    zero=math.inf,
    one=0.0,
    scale=_idempotent_scale(math.inf),
)

MAXPROD = SemiringSpec(
    name="maxprod",
    add=np.maximum,
    mul=np.multiply,
    zero=0.0,
    one=1.0,
    from_real=lambda x: _carrier(_nonnegative(x, "max-product")),
    scale=_idempotent_scale(0.0),
)

BOOLEAN = SemiringSpec(
    name="boolean",
    add=np.logical_or,
    mul=np.logical_and,
    zero=False,
    one=True,
    from_real=lambda x: _carrier(np.not_equal(x, 0), bool),
    scale=_idempotent_scale(False),
)

_REGISTRY = {s.name: s for s in (REAL, LOGREAL, TROPICAL, MAXPROD, BOOLEAN)}

SEMIRING_IDS = tuple(sorted(_REGISTRY))


def get_semiring(name: str) -> SemiringSpec:
    """Look up a bundled semiring by its string id."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SemiringError(
            f"unknown semiring {name!r}; available: {', '.join(SEMIRING_IDS)}"
        ) from None
