"""Forward/backward numerator recursions and moment extraction.

For a separable path function f (sum of one per-edge g value per traversed
edge) the m-th forward numerator of a vertex v accumulates, over all paths
from the source to v, the path label weighted by f(P)^m.  A single
depth-synchronous sweep computes all orders 0..M at once through the
binomial recursion

    fwd[v][m] = sum_{e into v} sum_l C(m,l) lam(e) g(e)^l fwd[init(e)][m-l]

and the same sweep run from the sink computes backward numerators.  Order
0 is the plain flow (the BCJR alpha/beta); the sink row of the forward
sweep equals the source row of the backward sweep and yields the trellis
moments.  Constraining the section-i edge to one c-label value yields
symbol moments.  All of this is generic over the commutative semirings in
:mod:`trelliskit.semirings`.

Every engine runs one layer step, in any of the five semirings, on the
trellis's walk plan (``Trellis.plan``, the walk as index arrays, built
once per topology and direction).  A sweep forms the weights C(m, j)
lam(e) g(e)^(m-j) once per run of layers, orders-major; a layer gathers
its neighbour columns, multiplies them by its weights and reduces over
j <= m, and per vertex where paths merge (the plan's ``merges`` flag).
The joint engine runs the same step on the (M_y+1)(M_z+1) grid flattened
into one row; ``symbol_moments`` joins alpha, lifted labels and beta of
all sections in one sum per state pair, kept on the forward state.
States keep one block per layer behind read-only vertex mappings; in the
real and max-product semirings each block carries a power-of-two
exponent, which keeps normalized moments finite where the flow
underflows.  Its rule, ``_Scale``, serves the exact distribution sweep,
and the quantized one reads its flows from the real order-0 rows.  One
exponent per layer cannot hold a layer whose flows span more than a
double's range, so the readers of every row (``normalized_states``, the
quantized sweeps and the symbol join) test the rows once, in ``_held``:
where some row 0 falls below ``_FLOOR``, the sweep runs again with an
exponent per row, and the trellis keeps that one.  The readers of one
terminal row (``trellis_moments``, ``_posterior``) make the same test
only where that row's flow reads 0 or below ``_FLOOR``.  It is the one
real carrier: ``normalized_states`` is a view of it, each row over its
row 0, with ln row 0 plus the row's exponent times ln 2 as the log flow.
``_posterior`` gives the coding layer a code's moments from the forward
sink row, and a one-symbol subcode's from the join of the forward and
backward sweeps across the constrained section's one symbol group.

A labelled trellis keeps its last sweep of each direction and semiring,
with the bits of g's values and the order, as long as the trellis
lives; a ``relabeled`` copy keeps its own.  A later call with the same
g bits at an order no higher, or at order 0 with any g (row 0 and its
exponent read only lambda), makes the sweep's checks and then hands out
read-only column views of the kept blocks, bit for bit the rows a sweep
would make: rows 0..m of a sweep do not depend on its order.  So the entropy, correlation moments, symbol
probabilities, bin sizing, quantized flows, normalized states and CLI
Gaussian share sweeps.
``symbol_moments`` joins every section once per state pair and keeps
every symbol group's numerators and normalized moments as the tuples it
hands out; a later call checks its arguments, looks up its group and
wraps them.

``counted_run`` / ``counted_symbol_pass`` are real-semiring evaluators
instrumented with exact add/multiply tallies, performing literally the
operation schedule that the O(|E|) complexity accounting assumes
(including the per-edge unit multiplication charged at l = 0, and with
g-powers precomputed and tallied separately).
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from typing import Any, Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import SemiringError, ZeroFlowError
from .semirings import MAX_ORDER, _PASCAL, REAL, SemiringSpec, binomial
from .trellis import DepthFunctionTable, EdgeArrays, Trellis, WalkPlan, require_valid

_NORMALIZABLE = ("real", "logreal")


def _quiet(engine: Callable) -> Callable:
    """Run ``engine`` with overflow to inf, inf - inf and log(0) silent, in
    every semiring, as in plain float arithmetic.

    Each call enters its own ``np.errstate``: under numpy 1.x one shared
    instance keeps the saved state on itself, so two threads inside the
    engines could restore each other's.
    """

    @wraps(engine)
    def quiet(*args, **kwargs):
        with np.errstate(all="ignore"):
            return engine(*args, **kwargs)

    return quiet


def _check_order(max_order: int) -> None:
    """SemiringError unless ``max_order`` is an ``Integral`` in 0..MAX_ORDER."""
    if not isinstance(max_order, numbers.Integral) or not 0 <= max_order <= MAX_ORDER:
        raise SemiringError(
            f"max order {max_order} outside supported range 0..{MAX_ORDER}"
        )


def _section(depth: int, rank: int) -> int:
    """``depth`` as an int; SemiringError unless it is an ``Integral`` in 1..rank."""
    if type(depth) is int and 0 < depth <= rank:
        return depth
    if not isinstance(depth, numbers.Integral) or not 1 <= depth <= rank:
        raise SemiringError(f"section depth {depth} outside 1..{rank}")
    return int(depth)


def _require_flow(plan: WalkPlan, flows: np.ndarray) -> None:
    """The one dead-flow check: ZeroFlowError at the first vertex, in walk
    order, whose flow (``flows``, over every layer of ``plan``) is not
    positive."""
    dead = flows <= 0.0
    if dead.any():
        raise ZeroFlowError(list(plan.where)[int(np.argmax(dead))])


class _LayerRows(Mapping):
    """Read-only vertex -> value view of a sweep kept as arrays per layer:
    the one view of every moment and distribution state.

    ``layers[k]`` holds the arrays of the walk ``plan``'s k-th layer, and
    the vertex at ``plan.where[v] == (k, r)`` is their row r;
    ``make(layers, k, r)`` builds the list, tuple, float or distribution
    handed out, anew on every access, from that row alone, and iteration
    follows ``plan.where``.  A sweep keeps a few numpy arrays per layer
    instead of one object per vertex on purpose: numpy arrays are not
    tracked by CPython's cyclic garbage collector, while thousands of
    per-vertex objects advance its allocation counters and move a full
    collection into whatever code runs next.
    """

    __slots__ = ("_plan", "_where", "_layers", "_make")

    def __init__(
        self,
        plan: WalkPlan,
        layers: Sequence[Any],
        make: Callable[[Sequence[Any], int, int], Any],
    ):
        self._plan, self._where = plan, plan.where
        self._layers = layers
        self._make = make

    @_quiet
    def __getitem__(self, v: int) -> Any:
        k, r = self._where[v]
        return self._make(self._layers, k, r)

    def __iter__(self) -> Iterator[int]:
        return iter(self._where)

    def __len__(self) -> int:
        return len(self._where)


def _same_topology(a: EdgeArrays, b: EdgeArrays) -> bool:
    """Whether two trellises' edges join the same vertices in the same
    order: a join reads states by layer and row, so rows of another
    topology give wrong numbers.  ``relabeled`` copies share one
    ``EdgeArrays``, so identity settles most calls; a trellis loaded
    twice has equal ones."""
    return a is b or (np.array_equal(a.init, b.init) and np.array_equal(a.fin, b.fin))


def _require_swept_over(
    trellis: Trellis, forward: _LayerRows, backward: _LayerRows
) -> None:
    """SemiringError unless ``forward`` and ``backward`` walked the edges
    of ``trellis``."""
    for rows in (forward, backward):
        if not _same_topology(rows._plan.topology, trellis.edge_arrays):
            raise SemiringError("the states were not swept over this trellis")


_ldexp = _quiet(np.ldexp)


def _unscaled(row: list[Any], exponent: int) -> list[Any]:
    # np.ldexp reads a Python int as an int32, which _DEAD overflows.
    return _ldexp(row, np.int64(exponent)).tolist() if exponent else row


def _exponents_at(exponent, rows):
    """The powers of two of a layer's ``rows`` (an index or an index
    array): its one exponent, or theirs where it keeps one per row."""
    return exponent if type(exponent) is int else exponent[rows]


def _scaled_row(layers: Sequence[tuple[np.ndarray, Any]], k: int, r: int) -> list[Any]:
    block, exponent = layers[k]
    return _unscaled(block[r].tolist(), _exponents_at(exponent, r))


def _ratio_row(layers: Sequence[tuple[np.ndarray, Any]], k: int, r: int) -> tuple[float, ...]:
    row = layers[k][0][r]
    return tuple((row / row[0]).tolist())


_LN2 = math.log(2.0)


def _log_flow(layers: Sequence[tuple[np.ndarray, Any]], k: int, r: int) -> float:
    block, exponent = layers[k]
    return math.log(block[r, 0]) + int(_exponents_at(exponent, r)) * _LN2


@dataclass
class MomentState:
    """Per-vertex numerator vectors of one forward or backward sweep."""

    direction: str  # "forward" | "backward"
    max_order: int
    semiring: SemiringSpec
    table: Mapping[int, list[Any]]
    source: int
    sink: int
    _joined: Any = field(default=None, compare=False, repr=False)
    # (the trellis's kept sweeps, lambda, the kept sweep it reads), which
    # ``_held`` needs to sweep again with an exponent per row.
    _kept: Any = field(default=None, compare=False, repr=False)

    def scaled(self, v: int) -> tuple[list[Any], int]:
        """(row, k) with ``table[v]`` equal to row * 2^k."""
        layer, r = self.table._where[v]
        block, exponent = self.table._layers[layer]
        return block[r].tolist(), int(_exponents_at(exponent, r))


@lru_cache(maxsize=None)
def _binomial_index(
    semiring: SemiringSpec, orders: tuple[int, ...]
) -> tuple[np.ndarray, ...]:
    """For one order M: scale(C(m, j), one) and the mask j <= m as
    (m, j, 1), and the power m - j.  For the flattened joint grid of
    several orders: from the Kronecker products of the per-order
    coefficients and masks, and the flat index of the per-order powers."""
    coefficients, power = np.ones((1, 1)), np.zeros((1, 1), dtype=np.intp)
    lower = np.ones((1, 1), dtype=bool)
    for order in orders:
        m, j = np.indices((order + 1, order + 1))
        below = j <= m
        pascal = [_PASCAL[k] + [0] * (order - k) for k in range(order + 1)]
        coefficients = np.kron(coefficients, np.array(pascal, dtype=float))
        lower = np.kron(lower, below)
        power = np.kron(power * (order + 1), np.ones_like(m)) + np.kron(
            np.ones_like(power), np.where(below, m - j, 0)
        )
    scale = semiring.scale(coefficients, semiring.one)
    out = scale[:, :, None], power, lower[:, :, None]
    for shared in out:
        shared.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _multinomial_index(max_order: int, edges: int) -> tuple[np.ndarray, ...]:
    """Every split a + b + c = m of the orders m = 0..M, m by m: a and c
    as columns, b as a vector, the coefficients m!/(a! b! c!) as a
    column, and where each m starts in the flattened (split, edge) terms
    of ``edges`` edges."""
    splits, starts = [], []
    for m in range(max_order + 1):
        starts.append(len(splits) * edges)
        for a in range(m + 1):
            for b in range(m - a + 1):
                splits.append((a, b, m - a - b, _PASCAL[m][a] * _PASCAL[m - a][b]))
    table = np.array(splits, dtype=float)
    a, b, c = table[:, :3].T.astype(np.intp)
    out = (a[:, None], b, c[:, None], table[:, 3:], np.array(starts))
    for shared in out:
        shared.flags.writeable = False
    return out


def _edge_labels(
    semiring: SemiringSpec, lam: np.ndarray, gval: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Edges' lam and g coerced into the carrier, each array whole; on an
    error, again as (g, lam) pairs, so that it names the first value the
    carrier cannot represent edge by edge, g before lam."""
    try:
        return semiring.from_real(lam), semiring.from_real(gval)
    except SemiringError:
        semiring.from_real(np.array((gval, lam)).T)
        raise


def _lift_rows(
    semiring: SemiringSpec, first: np.ndarray, base: np.ndarray, max_order: int
) -> np.ndarray:
    """first * base^l in the semiring, row l = 0..M, left to right."""
    out = np.empty((max_order + 1, len(base)), dtype=first.dtype)
    out[0] = first
    for l in range(1, max_order + 1):
        semiring.mul(out[l - 1], base, out=out[l])
    return out


def _advance(
    semiring: SemiringSpec,
    weights: np.ndarray,
    lower: np.ndarray,
    prev: np.ndarray,
    firsts: np.ndarray,
    merge: bool,
    live: Optional[np.ndarray] = None,
    shift: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The binomial step for every vertex of one layer, in the semiring:
    order m sums weights[m, j, e] prev[j, e] over j <= m (``lower``), j by
    j, and, where paths ``merge``, over the vertex's edges e, which start
    at ``firsts``.  ``weights[m, j, e]`` is C(m, j) lam g^(m-j) of edge e and
    ``prev[:, e]`` its neighbour's row.  Terms with j > m are left out, so
    an order that overflowed to inf cannot make a lower one NaN through a
    zero coefficient.  Edge e's terms are multiplied by 2^``shift[e]``,
    and edges off the boolean mask ``live`` add the semiring zero, so a
    label 0 cannot meet an inf row."""
    terms = semiring.mul(weights, prev)
    terms = semiring.add.reduce(terms, axis=1, where=lower, initial=semiring.zero)
    if shift is not None:
        terms = np.ldexp(terms, shift)
    if live is not None:
        terms[:, ~live] = semiring.zero
    return semiring.add.reduceat(terms, firsts, axis=1) if merge else terms


# Scaled sweeps keep each layer's largest |flow| within 2^+-_SPAN.
_SPAN = 256
_HIGH, _LOW = 2.0**_SPAN, 2.0**-_SPAN


def _rescale(block: np.ndarray, flows: np.ndarray) -> tuple[np.ndarray, float, int]:
    """One step of Rabiner's (1989) per-step scaling, in base 2.

    ``flows`` are the layer's flows, in ``block`` or ``block`` itself.
    Returns ``block`` divided by 2^shift, the largest |flow| so divided,
    and the shift: 0, with ``block`` as it is, when that flow lies within
    2^+-_SPAN, else the power of two that brings it back.  Powers of two
    are exact, so the ratios of the flows do not change.
    """
    bound = float(np.abs(flows).max())
    shift = math.frexp(bound)[1]
    if -_SPAN <= shift <= _SPAN:
        return block, bound, 0
    return np.ldexp(block, -shift), math.ldexp(bound, -shift), shift


class _Scale:
    """The one rescale rule of the moment and exact sweeps that keep one
    exponent per layer.

    ``due`` grows a bound on the layer's largest |flow| by its sum of
    |lambda|, and is true when that passes 2^_SPAN or the probe, a flow of
    the layer, else a floor shrunk by its smallest nonzero |lambda|, drops
    below 2^-_SPAN; ``rescale`` then adds ``_rescale``'s shift to
    ``exponent``.  A shift is nonzero only where the largest |flow| leaves
    2^+-_SPAN, so how loose the bounds are moves no exponent.  One
    exponent cannot hold a layer whose flows span more than a double's
    range; a moment sweep then keeps one per row instead (``_sweep``'s
    ``wide``, which ``_held`` asks for), and needs no rule.
    """

    def __init__(self, lam: np.ndarray, bounds: Sequence[int]):
        size = np.abs(lam)
        self.growth = np.add.reduceat(size, bounds[:-1]).tolist()
        self.shrink = np.minimum.reduceat(np.where(size > 0, size, np.inf), bounds[:-1]).tolist()
        self.high = self.low = 1.0
        self.exponent = 0

    def due(self, k: int, probe: Optional[float] = None) -> bool:
        self.high *= self.growth[k - 1]
        self.low *= self.shrink[k - 1]
        return self.high > _HIGH or abs(self.low if probe is None else probe) < _LOW

    def rescale(self, block: np.ndarray, flows: np.ndarray) -> np.ndarray:
        block, self.high, shift = _rescale(block, flows)
        self.low, self.exponent = self.high, self.exponent + shift
        return block


# The weights a sweep makes at once, for a run of layers, unless one
# layer alone has more; so its memory stays O(widest section (M+1)^2).
_RUN_WEIGHTS = 2**15


# Where a row 0 of a one-exponent sweep lies below _FLOOR, or is 0, its
# layer's flows may span more than a double holds (see ``_held``).
_FLOOR = _LOW * _LOW
# The exponent of a row no path reaches: an ldexp by it, or by it less a
# real exponent, gives 0, and sums of a few thousand stay int64.
_DEAD = -(1 << 40)


def _align(
    exponents: np.ndarray, live: Optional[np.ndarray], firsts: np.ndarray, owners: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's shift to its owner's exponent, and those exponents:
    per owner, the largest of its entries' ``exponents`` (an owner's
    entries start at ``firsts``), entries off ``live`` counting as
    _DEAD, so that a label 0 moves no live row."""
    if live is not None:
        exponents = np.where(live, exponents, _DEAD)
    top = np.maximum.reduceat(exponents, firsts)
    return exponents - top[owners], top


def _sweep(
    semiring: SemiringSpec,
    plan: WalkPlan,
    lift: np.ndarray,
    orders: tuple[int, ...],
    wide: bool = False,
) -> list[tuple[np.ndarray, Any]]:
    """A ``(block, exponent)`` per layer of ``plan``, whose moment rows
    are ``block * 2^exponent``, from the rows of ``_lift_rows`` in walk
    order; the first is the start vertex's one-hot row, exponent 0.  On
    the layers that hold a label equal to the semiring zero, those edges
    add the semiring zero.

    Where the product is the real one, ``_Scale`` keeps each block's
    flows within 2^+-_SPAN, so the rows are the unscaled ones bit for bit
    wherever those neither under- nor overflow.  With ``wide`` a row
    keeps its own exponent instead (an int array per layer): each row is
    divided by the power of two that puts its row 0 in [0.5, 1), and
    where paths merge a vertex's incoming terms are first brought to the
    largest exponent among its edges by one ``ldexp``.  Powers of two are
    exact, so the rows are those of the one-exponent sweep wherever
    neither under- nor overflows, and finite wherever the flow is
    positive."""
    scale, power, lower = _binomial_index(semiring, orders)
    start = np.full((1, len(lift)), semiring.zero)
    start[0, 0] = semiring.one
    exponent = np.zeros(1, dtype=np.int64) if wide else 0
    layers, block, bounds = [(start, exponent)], start.T, plan.bounds
    scaled = semiring.mul is np.multiply
    rule = _Scale(lift[0], bounds)
    # The mask of each layer that holds a zero label, None elsewhere.
    zero, lives = lift[0] == semiring.zero, [None] * len(bounds)
    for k in {bisect_right(bounds, e) for e in np.flatnonzero(zero).tolist()}:
        lives[k] = ~zero[bounds[k - 1] : bounds[k]]
    first, most = 1, _RUN_WEIGHTS // len(lift) ** 2
    while first < len(bounds):
        end = max(first + 1, bisect_right(bounds, bounds[first - 1] + most))
        origin = bounds[first - 1]
        weights = lift[:, origin : bounds[end - 1]][power]  # (m, j, edge)
        semiring.mul(weights, scale, out=weights)
        for k in range(first, end):
            lo, hi = bounds[k - 1], bounds[k]
            rows, live = plan.rows[lo:hi], lives[k]
            prev = block.take(rows, axis=1)
            local = weights[:, :, lo - origin : hi - origin]
            if wide:
                block, exponent = _wide_step(
                    semiring, local, lower, prev, exponent[rows], live,
                    plan.firsts[k], plan.owners[lo:hi], plan.merges[k],
                )
            else:
                block = _advance(semiring, local, lower, prev, plan.firsts[k], plan.merges[k], live)
                if scaled and rule.due(k, block.item(0)):
                    block = rule.rescale(block, block[0])
                exponent = rule.exponent
            layers.append((block.T, exponent))
        first = end
    return layers


def _wide_step(
    semiring: SemiringSpec, weights: np.ndarray, lower: np.ndarray, prev: np.ndarray,
    exponents: np.ndarray, live: Optional[np.ndarray], firsts: np.ndarray,
    owners: np.ndarray, merge: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """One layer of a ``wide`` sweep, whose edges' neighbour rows carry
    ``exponents``: ``_advance``, with each vertex's incoming terms brought
    to the largest exponent among its live edges, then each row divided by
    the power of two that puts its row 0 in [0.5, 1).  Returns the block
    and its rows' exponents; a row no path reaches keeps _DEAD's."""
    shift = None
    if merge:
        shift, exponents = _align(exponents, live, firsts, owners)
    elif live is not None:
        exponents = np.where(live, exponents, _DEAD)
    block = _advance(semiring, weights, lower, prev, firsts, merge, live, shift)
    shift = np.frexp(block[0])[1]
    return np.ldexp(block, -shift), exponents + shift


class _KeptLayers(list):
    """A kept sweep's ``(block, exponent)`` layers, whose blocks are row
    ranges of ``rows``: every row of the sweep in walk order, one
    read-only array, which ``_held`` tests whole; ``exponents`` holds
    each row's power of two, for the symbol join."""

    __slots__ = ("rows", "exponents")


def _kept_sweep(
    sweeps: dict, key: tuple[str, SemiringSpec], plan: WalkPlan, labels: tuple,
    bits: bytes, order: int, wide: bool = False,
) -> tuple[bytes, int, _KeptLayers]:
    """Sweep ``labels``, the carrier's lambda and g in ``Trellis.edges``
    order, at ``order`` in the key's direction and semiring, and keep the
    layers, read-only and as one array of rows (``_KeptLayers``), with the
    bits of g and the order as ``sweeps[key]``."""
    lam, gval = labels
    lift = _lift_rows(key[1], lam[plan.edges], gval[plan.edges], order)
    if wide:
        layers = _sweep(key[1], plan, lift, (order,), wide=True)
    else:
        layers = _sweep(key[1], plan, lift, (order,))
    blocks, exponents = zip(*layers)
    sizes = [len(block) for block in blocks]
    kept = _KeptLayers()
    kept.rows = np.concatenate(blocks)
    kept.exponents = np.concatenate(exponents) if wide else np.repeat(exponents, sizes)
    kept.rows.flags.writeable = kept.exponents.flags.writeable = False
    ends = np.cumsum(sizes).tolist()
    kept.extend(
        (kept.rows[end - n : end], kept.exponents[end - n : end] if wide else x)
        for n, x, end in zip(sizes, exponents, ends)
    )
    sweeps[key] = out = (bits, order, kept)
    return out


@_quiet
def _numerators(
    trellis: Trellis,
    g: DepthFunctionTable,
    max_order: int,
    semiring: SemiringSpec,
    direction: str,
) -> MomentState:
    require_valid(trellis)
    _check_order(max_order)
    plan = trellis.plan(direction)
    values = g.values_for(trellis)
    labels = _edge_labels(semiring, trellis._lam, values)
    key = (direction, semiring)
    kept = trellis._sweeps.get(key, (None, -1, None))
    bits, order, layers = kept
    if max_order > order or (max_order and bits != values.tobytes()):
        kept = _kept_sweep(trellis._sweeps, key, plan, labels, values.tobytes(), max_order)
        layers = kept[2]
    elif max_order < order:  # rows 0..m of a sweep do not depend on its order
        layers = [(block[:, : max_order + 1], exponent) for block, exponent in layers]
    table = _LayerRows(plan, layers, _scaled_row)
    return MomentState(
        direction, max_order, semiring, table, trellis.source, trellis.sink,
        _kept=(trellis._sweeps, trellis._lam, kept),
    )


def _held(state: MomentState, positive: bool = False) -> _KeptLayers:
    """The kept sweep's layers that ``state`` reads, once each row's flow
    is held by a double: the one test that a sweep's layers need an
    exponent per row, made where a reader reads every row.

    In the real and max-product semirings a one-exponent sweep keeps each
    layer's largest flow within 2^+-_SPAN, so a flow more than a double's
    range below it reads 0.0, and on its way there falls below _FLOOR.
    Where some row 0 is nonzero and below _FLOOR in magnitude, or with
    ``positive`` (for a reader that needs every flow positive) is 0.0,
    which is how a flow that underflowed at once reads, the state's kept
    sweep runs again with ``wide`` rows, the trellis that swept it keeps
    that in its place if it keeps the first, and the state reads it."""
    sweeps, lam, kept = state._kept
    bits, order, layers = kept
    flows = np.abs(layers.rows[:, 0])
    held = flows >= _FLOOR
    if not positive:
        held |= flows == 0.0
    if type(layers[0][1]) is int and state.semiring.mul is np.multiply and not held.all():
        key = (state.direction, state.semiring)
        labels = _edge_labels(state.semiring, lam, np.frombuffer(bits))
        keeper = sweeps if sweeps.get(key) is kept else {}
        wide = _kept_sweep(keeper, key, state.table._plan, labels, bits, order, True)
        layers = wide[2]
        state.table._layers = [(block[:, : state.max_order + 1], x) for block, x in layers]
        state._kept = (sweeps, lam, wide)
    return layers


def _terminal(state: MomentState) -> tuple[list[Any], int]:
    """``scaled`` of the forward sink or the backward source.  Where its
    row 0 in the real or max-product semiring reads 0 or below _FLOOR, a
    flow one exponent per layer may have lost, ``_held`` tests every row
    first; other reads cost nothing more."""
    terminal = state.sink if state.direction == "forward" else state.source
    row, exponent = state.scaled(terminal)
    if state.semiring.mul is np.multiply and not abs(row[0]) >= _FLOOR:
        _held(state, positive=True)
        row, exponent = state.scaled(terminal)
    return row, exponent


def forward_numerators(
    trellis: Trellis,
    g: DepthFunctionTable,
    max_order: int,
    semiring: SemiringSpec = REAL,
) -> MomentState:
    """Numerators of orders 0..max_order at every vertex, source first.  Every
    engine raises SemiringError unless an order is whole (not 2.0), 0..MAX_ORDER.

    ``trellis`` keeps this sweep, one per direction and semiring, until
    its next sweep there, and for as long as the trellis lives.  A later
    call whose g values have the same bits (-0.0 is not 0.0) at an order
    no higher, or any call at order 0, makes the same checks and returns
    read-only column views of the kept blocks instead of sweeping again.
    """
    return _numerators(trellis, g, max_order, semiring, "forward")


def backward_numerators(
    trellis: Trellis,
    g: DepthFunctionTable,
    max_order: int,
    semiring: SemiringSpec = REAL,
) -> MomentState:
    """Mirror sweep from the sink; order 0 gives the flows to the sink.  It
    is kept and served as ``forward_numerators`` says."""
    return _numerators(trellis, g, max_order, semiring, "backward")


def _normalize(
    semiring: SemiringSpec, numerators: tuple[Any, ...]
) -> Optional[tuple[float, ...]]:
    """Ratios numerator[m] / numerator[0] in the plain-real domain.

    Only meaningful for the real and log-domain-real semirings; returns
    None (an explicit "undefined" flag, never NaN) when the flow is the
    semiring zero or the semiring has no division.
    """
    if semiring.name not in _NORMALIZABLE:
        return None
    flow = numerators[0]
    if flow == semiring.zero:
        return None
    if semiring.name == "logreal":
        # Carrier values are logs of nonnegative reals; the ratio is
        # exp of the carrier difference.
        return tuple(math.exp(n - flow) for n in numerators)
    return tuple(n / flow for n in numerators)


@dataclass(frozen=True)
class TrellisMoments:
    """Whole-trellis numerators and (when defined) normalized moments."""

    numerators: tuple[Any, ...]
    normalized: Optional[tuple[float, ...]]
    semiring: str

    @property
    def max_order(self) -> int:
        return len(self.numerators) - 1


@_quiet
def trellis_moments(state: MomentState) -> TrellisMoments:
    """Moments of the whole trellis from a completed sweep.

    Accepts either direction: the forward sink row and the backward source
    row carry the same numerators.  Where that row's flow reads 0 or
    underflowed, the rows are tested as ``_terminal`` says.
    """
    row, exponent = _terminal(state)
    numerators = tuple(_unscaled(row, exponent))
    normalized = _normalize(state.semiring, row)
    return TrellisMoments(numerators, normalized, state.semiring.name)


@dataclass(frozen=True)
class SymbolMoments:
    """Moments restricted to paths whose section-``depth`` edge has
    c-label ``symbol``."""

    depth: int
    symbol: float
    numerators: tuple[Any, ...]
    normalized: Optional[tuple[float, ...]]
    semiring: str


def symbol_moments(
    trellis: Trellis,
    g: DepthFunctionTable,
    forward: MomentState,
    backward: MomentState,
    depth: int,
    symbol: float,
) -> SymbolMoments:
    """Combine forward and backward numerators across one section.

    ``depth`` must be a whole number in 1..rank, or SemiringError is
    raised.  The states must come from sweeps over this trellis or a copy
    with its layers; others raise SemiringError.  When no section-``depth``
    edge carries c-label ``symbol`` the numerators are all the semiring
    zero and ``normalized`` is None.  The first call joins every section
    and keeps every group's numerators and normalized moments on
    ``forward``, as tuples, for this ``backward``, label array, topology
    and ``g``, each by identity; later calls check their arguments, look
    up their group and hand out its tuples.  Should the join of every
    section raise, as where the carrier cannot hold some group's g, each
    call joins its group alone.
    """
    if forward.direction != "forward" or backward.direction != "backward":
        raise SemiringError("symbol_moments needs one forward and one backward state")
    if forward.semiring.name != backward.semiring.name:
        raise SemiringError("forward and backward states use different semirings")
    depth = _section(depth, trellis.rank)
    semiring, memo = forward.semiring, forward._joined
    if not (
        memo is not None and memo[0] is backward and memo[1] is trellis._lam
        and memo[2] is trellis.edge_arrays and memo[3] is g
    ):  # a kept join was checked against this trellis when it was made
        _require_swept_over(trellis, forward.table, backward.table)
        require_valid(trellis)
        memo = None
    k = trellis._symbol_groups().group(depth, symbol)
    if k is None:
        zeros = (semiring.zero,) * (min(forward.max_order, backward.max_order) + 1)
        return SymbolMoments(depth, symbol, zeros, None, semiring.name)
    if memo is None:
        key = (backward, trellis._lam, trellis.edge_arrays, g)
        try:
            memo = forward._joined = (*key, _prepared_join(trellis, g, forward, backward))
        except SemiringError:  # alone, group k raises only for its own values
            memo, k = (*key, _prepared_join(trellis, g, forward, backward, k)), 0
    rows = memo[4]
    return SymbolMoments(depth, symbol, rows.numerators[k], rows.normalized[k], semiring.name)


class _JoinedRows(NamedTuple):
    """Symbol groups' answers, one entry per group, as ``symbol_moments``
    hands them out: the ``numerators`` tuple and the ``normalized`` tuple
    or None."""

    numerators: list[tuple[Any, ...]]
    normalized: list[Optional[tuple[float, ...]]]


@_quiet
def _prepared_join(
    trellis: Trellis, g: DepthFunctionTable, forward: MomentState,
    backward: MomentState, k: Optional[int] = None,
) -> _JoinedRows:
    """Every symbol group's answers from one join, or group ``k``'s alone:
    the numerators from one ``ldexp`` by each group's exponent; the
    normalized moments in the real semiring from one divide of the scaled
    rows, and where the scaled flow is 0, or in another semiring, from
    ``_normalize``."""
    scaled, exponents = _symbol_join(trellis, g, forward, backward, k)
    numerators = np.ldexp(scaled, exponents) if exponents.any() else scaled
    semiring, rows = forward.semiring, scaled.tolist()
    if semiring.name == "real":
        ratios = (scaled / scaled[:, :1]).tolist()
        normalized = [None if row[0] == 0.0 else tuple(q) for row, q in zip(rows, ratios)]
    else:
        normalized = [_normalize(semiring, row) for row in rows]
    return _JoinedRows(list(map(tuple, numerators.tolist())), normalized)


@_quiet
def _symbol_join(
    trellis: Trellis, g: DepthFunctionTable, forward: MomentState,
    backward: MomentState, k: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled numerators of every symbol group, or of group ``k`` alone, a
    row each, and each row's power of two, as a column: one multinomial
    sum over their edges, split by split, as each group's own (split,
    edge) grid ravels,
        out[m] = sum C(m; a, b, c) alpha[a] lam g^b beta[c], a+b+c = m.
    The rows are ``_held``'s.  A group's exponent is that of its section's
    alpha layer plus that of its beta layer, or, where a state keeps an
    exponent per row, the largest sum of its edges' two, to which every
    edge's terms are brought by one ``ldexp`` before the sum."""
    semiring, max_order = forward.semiring, min(forward.max_order, backward.max_order)
    groups, e = trellis._symbol_groups(), trellis.edge_arrays
    members = slice(None) if k is None else slice(groups._bounds[k], groups._bounds[k + 1])
    sizes = np.diff(groups.offsets if k is None else groups.offsets[k : k + 2])
    positions = groups.positions[members]
    a, b, c, coefficients, starts = _multinomial_index(max_order, len(positions))
    lam, gval = _edge_labels(semiring, trellis._lam[positions], g.values_for(trellis)[positions])
    lift = _lift_rows(semiring, lam, gval, max_order)
    if max_order:  # order 0 has the one split (0, 0, 0), of weight 1
        lift = semiring.scale(coefficients, lift.take(b, axis=0))
    # Where each depth's rows start in the forward walk, once per
    # topology; the backward walk lists the depths from the sink.
    depth = trellis._plans.get("layer starts")
    if depth is None:
        depth = trellis._plans["layer starts"] = np.cumsum([0, *map(len, trellis.layers)])
        depth.flags.writeable = False
    alpha_rows = depth[e.section[positions]] + e.init_row[positions]
    beta_rows = depth[-1] - depth[e.fin_depth[positions] + 1] + e.fin_row[positions]
    alpha, beta = _held(forward), _held(backward)
    terms = semiring.mul(semiring.mul(alpha.rows[alpha_rows, a], lift), beta.rows[beta_rows, c])
    exponents = alpha.exponents[alpha_rows] + beta.exponents[beta_rows]
    firsts = np.cumsum(sizes) - sizes
    if type(alpha[0][1]) is int and type(beta[0][1]) is int:
        exponents = exponents[firsts]  # a group's edges share their two layers
    else:
        shift, exponents = _align(
            exponents, lam != semiring.zero, firsts, np.repeat(np.arange(len(sizes)), sizes)
        )
        terms = np.ldexp(terms, shift)
    terms = terms.ravel()
    if k is None:  # group by group, in an order built once per topology and M
        cached = f"symbol join {max_order}"
        if cached not in trellis._plans:
            group = np.repeat(np.arange(len(sizes)), sizes)
            trellis._plans[cached] = np.argsort(np.tile(group, len(b)), kind="stable")
        terms = terms.take(trellis._plans[cached])
        below = _multinomial_index(max_order, 1)[4]  # the splits of the orders below m
        starts = (len(b) * groups.offsets[:-1, None] + np.multiply.outer(sizes, below)).ravel()
    sums = semiring.add.reduceat(terms, starts).reshape(-1, max_order + 1)
    return sums, exponents[:, None]


class _Posterior(NamedTuple):
    """Normalized moments and the flow, ``flow * 2^exponent``."""

    normalized: tuple[float, ...]
    flow: float
    exponent: int

    @property
    def log2_flow(self) -> float:
        return math.log2(self.flow) + self.exponent


def _posterior(
    trellis: Trellis,
    g: DepthFunctionTable,
    max_order: int,
    constraint: Optional[tuple[int, float]] = None,
) -> _Posterior:
    """Real moments of orders 0..max_order over every path, from the
    forward sweep's sink row, or with ``constraint=(depth, symbol)`` over
    the paths whose section-``depth`` edge has c-label ``symbol``: the
    forward and backward sweeps joined across that section's one symbol
    group (``_symbol_join``), as BCJR joins alpha and beta.  Both read the
    sweeps the trellis keeps, so questions about one word share them.
    Raises ZeroFlowError when the flow is not positive, after the rows
    are tested where it reads 0; SemiringError unless depth is whole, in
    1..rank."""
    if constraint is None:
        row, exponent = _terminal(forward_numerators(trellis, g, max_order))
        message = "total flow is zero or negative"
    else:
        depth, symbol = constraint
        depth = _section(depth, trellis.rank)
        message = f"no flow through c-label {symbol} at depth {depth}"
        forward = forward_numerators(trellis, g, max_order)
        k = trellis._symbol_groups().group(depth, symbol)
        if k is None:
            raise ZeroFlowError(None, message)
        backward = backward_numerators(trellis, g, max_order)
        row, exponent = _group_row(trellis, g, forward, backward, k)
        if row[0] == 0.0:  # a flow that underflowed at once reads 0
            for state in (forward, backward):
                _held(state, positive=True)
            row, exponent = _group_row(trellis, g, forward, backward, k)
    flow = row[0]
    if not flow > 0.0:
        raise ZeroFlowError(None, message)
    return _Posterior(tuple(x / flow for x in row), flow, exponent)


def _group_row(
    trellis: Trellis, g: DepthFunctionTable, forward: MomentState,
    backward: MomentState, k: int,
) -> tuple[list[float], int]:
    """Symbol group ``k``'s scaled numerators and their power of two."""
    scaled, exponents = _symbol_join(trellis, g, forward, backward, k)
    return scaled[0].tolist(), int(exponents[0, 0])


# -- joint moments -------------------------------------------------------------


@dataclass
class JointMomentState:
    """Per-vertex numerators for two path functions jointly.

    table[v][k][m] accumulates f_y(P)^k * f_z(P)^m * label(P) over paths
    from the source to v.
    """

    order_y: int
    order_z: int
    semiring: SemiringSpec
    table: Mapping[int, list[list[Any]]]
    source: int
    sink: int


@_quiet
def joint_forward_numerators(
    trellis: Trellis,
    g_y: DepthFunctionTable,
    g_z: DepthFunctionTable,
    order_y: int,
    order_z: int,
    semiring: SemiringSpec = REAL,
) -> JointMomentState:
    """Forward sweep for the joint numerators of two separable functions."""
    if semiring.name not in _NORMALIZABLE:
        raise SemiringError(
            "joint moments are supported for the real and logreal semirings"
        )
    require_valid(trellis)
    _check_order(order_y)
    _check_order(order_z)
    plan = trellis.plan("forward")
    n = len(trellis._lam)
    lam, gval_y = _edge_labels(semiring, trellis._lam, g_y.values_for(trellis))
    gval_z = semiring.from_real(g_z.values_for(trellis))
    lift_y = _lift_rows(semiring, lam, gval_y, order_y)
    pow_z = _lift_rows(semiring, np.full(n, semiring.one), gval_z, order_z)
    # The joint grid of one edge is the outer product of its two lifts,
    # flattened into one row.
    lift = semiring.mul(lift_y[:, None, :], pow_z[None, :, :])
    lift = lift.reshape(-1, n)[:, plan.edges]
    grids = [
        (block.reshape(-1, order_y + 1, order_z + 1), exponent)
        for block, exponent in _sweep(semiring, plan, lift, (order_y, order_z))
    ]
    table = _LayerRows(plan, grids, _scaled_row)
    return JointMomentState(
        order_y, order_z, semiring, table, trellis.source, trellis.sink
    )


@_quiet
def joint_trellis_moments(
    state: JointMomentState,
) -> tuple[tuple[tuple[Any, ...], ...], Optional[tuple[tuple[float, ...], ...]]]:
    """(numerator grid, normalized grid or None) at the sink; the ratios
    come from the sweep's scaled grid, finite where the flow underflows."""
    layer, r = state.table._where[state.sink]
    block, exponent = state.table._layers[layer]
    numerators = tuple(tuple(row) for row in _unscaled(block[r].tolist(), exponent))
    flat = _normalize(state.semiring, tuple(block[r].ravel().tolist()))
    if flat is None:
        return numerators, None
    width = state.order_z + 1
    return numerators, tuple(flat[i : i + width] for i in range(0, len(flat), width))


# -- normalized moments ----------------------------------------------------------


@dataclass
class NormalizedMomentState:
    """Per-vertex normalized moments and log flows of one real sweep.

    ``normalized[v][m]`` is numerator[m] / numerator[0]; ``log_flow[v]``
    is the natural log of the order-0 numerator, so that
    ``normalized[v][m] * exp(log_flow[v])`` reconstructs the raw
    numerator.  Both are read from the scaled rows, which stay finite
    where the raw numerators under- or overflow.
    """

    direction: str
    max_order: int
    normalized: Mapping[int, tuple[float, ...]]
    log_flow: Mapping[int, float]

    def reconstruct(self, v: int) -> tuple[float, ...]:
        scale = math.exp(self.log_flow[v])
        return tuple(x * scale for x in self.normalized[v])


@_quiet
def normalized_states(
    trellis: Trellis,
    g: DepthFunctionTable,
    max_order: int,
    direction: str = "forward",
) -> NormalizedMomentState:
    """Normalized moments (real labels, positive flows): a read-only view
    of the real sweep ``forward_numerators`` or ``backward_numerators``
    would give, which the trellis keeps.

    A vertex's normalized moments are its scaled row over its row 0, and
    its log flow is ln row 0 + k ln 2 for the row's power of two k.  Where
    a layer's flows span more than a double holds, the sweep keeps an
    exponent per row (see ``_held``), so every positive flow is finite.
    Raises SemiringError for a negative label and ZeroFlowError naming the
    first vertex, in walk order, whose flow is 0.
    """
    require_valid(trellis)
    _check_order(max_order)
    plan = trellis.plan(direction)
    plan.lam(trellis, nonnegative_for="normalized recursion")
    state = _numerators(trellis, g, max_order, REAL, direction)
    _require_flow(plan, _held(state, positive=True).rows[:, 0])
    layers = state.table._layers
    return NormalizedMomentState(
        direction,
        max_order,
        _LayerRows(plan, layers, _ratio_row),
        _LayerRows(plan, layers, _log_flow),
    )


# -- instrumented (counted) real-semiring evaluation -------------------------------


@dataclass
class OpCounter:
    """Exact arithmetic-operation tallies of a counted run.

    ``multiplications``/``additions`` count the recursion's combining
    step only (the per-edge schedule the O(|E|) accounting is stated
    for); ``power_multiplications`` tallies the separate per-edge
    precomputation of g powers up to the maximum order.  All fields only
    ever increase while a run is in progress.
    """

    multiplications: int = 0
    additions: int = 0
    power_multiplications: int = 0

    def __add__(self, other: "OpCounter") -> "OpCounter":
        """Associative merge, so per-worker tallies can be combined."""
        return OpCounter(
            self.multiplications + other.multiplications,
            self.additions + other.additions,
            self.power_multiplications + other.power_multiplications,
        )

    @property
    def total(self) -> int:
        """Recursion operations (excludes the power precomputation)."""
        return self.multiplications + self.additions

    def as_dict(self) -> dict[str, int]:
        return {
            "multiplications": self.multiplications,
            "additions": self.additions,
            "power_multiplications": self.power_multiplications,
            "total": self.total,
        }


def counted_run(
    trellis: Trellis,
    g: DepthFunctionTable,
    max_order: int,
) -> tuple[TrellisMoments, OpCounter]:
    """Real-semiring forward sweep with exact operation tallies.

    Performs literally the schedule the complexity accounting charges:
    per edge and order m, one multiplication at l = 0, two per l >= 1
    (coefficient-times-power, then times the stored numerator), one by
    the edge label, plus the inner-sum and edge-combining additions.
    """
    require_valid(trellis)
    _check_order(max_order)
    counter = OpCounter()

    powers: dict[int, list[float]] = {}
    for e in trellis.edges:
        base = g.value(e)
        row = [1.0, base] if max_order >= 1 else [1.0]
        for _ in range(2, max_order + 1):
            row.append(row[-1] * base)
            counter.power_multiplications += 1
        powers[e.id] = row

    table: dict[int, list[float]] = {
        trellis.source: [1.0] + [0.0] * max_order
    }
    for depth in range(1, trellis.rank + 1):
        for v in trellis.layers[depth]:
            row = []
            for m in range(max_order + 1):
                acc = 0.0
                first = True
                for e in trellis.in_edges(v):
                    init_row = table[e.init]
                    gpow = powers[e.id]
                    if m == 0:
                        contrib = e.lam * init_row[0]
                        counter.multiplications += 1
                    else:
                        inner = 1.0 * init_row[m]
                        counter.multiplications += 1
                        for l in range(1, m + 1):
                            w = binomial(m, l) * gpow[l]
                            counter.multiplications += 1
                            inner += w * init_row[m - l]
                            counter.multiplications += 1
                            counter.additions += 1
                        contrib = e.lam * inner
                        counter.multiplications += 1
                    if first:
                        acc = contrib
                        first = False
                    else:
                        acc += contrib
                        counter.additions += 1
                row.append(acc)
            table[v] = row

    numerators = tuple(table[trellis.sink])
    return TrellisMoments(numerators, _normalize(REAL, numerators), "real"), counter


def counted_symbol_pass(
    trellis: Trellis,
    g: DepthFunctionTable,
    forward: MomentState,
    backward: MomentState,
    order: int,
) -> tuple[dict[tuple[int, float], float], OpCounter]:
    """Order-``order`` symbol numerators for every (depth, c-label) pair.

    Assumes the g powers were precomputed by the forward sweep (they are
    not re-tallied).  Counts the per-edge combining schedule: the l = 0
    term costs one multiplication (backward numerator times flow), every
    l >= 1 term costs two plus two per inner k >= 1, and each edge's
    result costs one multiplication by its label.
    """
    if forward.semiring.name != "real" or backward.semiring.name != "real":
        raise SemiringError("counted runs support the real semiring only")
    _check_order(order)
    if order > min(forward.max_order, backward.max_order):
        raise SemiringError("states were not computed to the requested order")
    counter = OpCounter()
    powers = {
        e.id: [g.value(e) ** l for l in range(order + 1)] for e in trellis.edges
    }

    results: dict[tuple[int, float], float] = {}
    for depth in range(1, trellis.rank + 1):
        for e in trellis.edges_at(depth):
            alpha = forward.table[e.init]
            beta = backward.table[e.fin]
            gpow = powers[e.id]
            m = order
            outer = beta[m] * alpha[0]
            counter.multiplications += 1
            for l in range(1, m + 1):
                inner = alpha[l]
                for k in range(1, l + 1):
                    w = binomial(l, k) * gpow[k]
                    counter.multiplications += 1
                    inner += w * alpha[l - k]
                    counter.multiplications += 1
                    counter.additions += 1
                w = binomial(m, l) * beta[m - l]
                counter.multiplications += 1
                outer += w * inner
                counter.multiplications += 1
                counter.additions += 1
            contrib = e.lam * outer
            counter.multiplications += 1

            key = (depth, e.clabel)
            if key in results:
                results[key] += contrib
                counter.additions += 1
            else:
                results[key] = contrib
    return results, counter
