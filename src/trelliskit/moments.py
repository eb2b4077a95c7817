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

In the real semiring the numerator sweep and ``normalized_states`` run
one layer at a time in numpy, on the trellis's walk plan
(``Trellis.plan``, the walk as index arrays, built once per topology and
direction): each layer gathers its edges' neighbour rows, forms the
terms C(m, j) lam(e) g(e)^(m-j) row[j] of that layer only, and sums
them over j <= m and then per vertex.
Their states keep one block per layer behind read-only vertex mappings.
The other semirings, ``symbol_moments`` and the joint engine walk the
trellis through ``Trellis.walk`` and combine moment vectors through the
one binomial helper ``_combine``; every engine folds each edge's label
once into the powers of its g value (``lam(e) g(e)^l`` above).

``counted_run`` / ``counted_symbol_pass`` are real-semiring evaluators
instrumented with exact add/multiply tallies, performing literally the
operation schedule that the O(|E|) complexity accounting assumes
(including the per-edge unit multiplication charged at l = 0, and with
g-powers precomputed and tallied separately).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import SemiringError, ZeroFlowError
from .semirings import (
    MAX_ORDER,
    _PASCAL,
    REAL,
    SemiringSpec,
    binomial,
    nat_scale,
)
from .trellis import DepthFunctionTable, Trellis, require_valid

_NORMALIZABLE = ("real", "logreal")


def _check_order(max_order: int) -> None:
    if not 0 <= max_order <= MAX_ORDER:
        raise SemiringError(
            f"max order {max_order} outside supported range 0..{MAX_ORDER}"
        )


def _lift(semiring: SemiringSpec, lam: float, g: float, max_order: int) -> list[Any]:
    """Edge label folded with the powers of its g value: lam * g^l, l = 0..M."""
    base = semiring.from_real(g)
    row = [semiring.from_real(lam)]
    for _ in range(max_order):
        row.append(semiring.mul(row[-1], base))
    return row


def _lifted_labels(
    trellis: Trellis, g: DepthFunctionTable, max_order: int, semiring: SemiringSpec
) -> dict[int, list[Any]]:
    return {e.id: _lift(semiring, e.lam, g.value(e), max_order) for e in trellis.edges}


def _combine(
    semiring: SemiringSpec, pairs: list[tuple[Sequence, Sequence]], max_order: int
) -> list[Any]:
    """out[m] = sum over (a, b) in pairs and l of C(m,l) a[l] b[m-l], m = 0..M.

    The binomial step of every moment recursion: with a lifted edge label
    as ``a`` it advances the row ``b`` across that edge; with a forward
    and a backward row it joins them across an edge.
    """
    add, mul = semiring.add, semiring.mul
    out = []
    for m in range(max_order + 1):
        coefficients = _PASCAL[m]
        acc = semiring.zero
        for a, b in pairs:
            for l in range(m + 1):
                term = mul(a[l], b[m - l])
                c = coefficients[l]
                if c != 1:
                    term = nat_scale(semiring, c, term)
                acc = add(acc, term)
        out.append(acc)
    return out


class _LayerRows(Mapping):
    """Read-only vertex -> value view of a sweep kept as arrays per layer.

    ``layers[k]`` holds the arrays of the walk's k-th layer (one block, or
    a tuple of per-row arrays), and the vertex at ``where[v] == (k, r)``
    is their row r; ``make(layers[k], r)`` builds the list, tuple, float
    or distribution handed out, anew on every access, and iteration
    follows ``where``.  A sweep keeps a few numpy arrays per layer
    instead of one object per vertex on purpose: numpy arrays are not
    tracked by CPython's cyclic garbage collector, while thousands of
    per-vertex objects advance its allocation counters and move a full
    collection into whatever code runs next.
    """

    __slots__ = ("_where", "_layers", "_make")

    def __init__(
        self,
        where: dict[int, tuple[int, int]],
        layers: Sequence[Any],
        make: Callable[[Any, int], Any],
    ):
        self._where = where
        self._layers = layers
        self._make = make

    def locate(self, v: int) -> tuple[Any, int]:
        """The arrays of ``v``'s layer and its row in them."""
        layer, row = self._where[v]
        return self._layers[layer], row

    def __getitem__(self, v: int) -> Any:
        # locate() inlined: symbol_moments reads rows edge by edge.
        layer, row = self._where[v]
        return self._make(self._layers[layer], row)

    def __iter__(self) -> Iterator[int]:
        return iter(self._where)

    def __len__(self) -> int:
        return len(self._where)


def _row_list(block: np.ndarray, r: int) -> list[float]:
    return block[r].tolist()


def _row_tuple(block: np.ndarray, r: int) -> tuple[float, ...]:
    return tuple(block[r].tolist())


def _row_float(block: np.ndarray, r: int) -> float:
    return float(block[r])


@dataclass
class MomentState:
    """Per-vertex numerator vectors of one forward or backward sweep."""

    direction: str  # "forward" | "backward"
    max_order: int
    semiring: SemiringSpec
    table: Mapping[int, list[Any]]
    source: int
    sink: int

    def numerators(self, v: int) -> tuple[Any, ...]:
        return tuple(self.table[v])

    @property
    def terminal(self) -> int:
        """Vertex whose row carries the whole-trellis numerators."""
        return self.sink if self.direction == "forward" else self.source


@lru_cache(maxsize=None)
def _binomial_index(max_order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C(m, j) for j <= m (0 above the diagonal), the power m - j, and
    the mask j <= m."""
    size = max_order + 1
    coefficients = np.zeros((size, size))
    for m in range(size):
        coefficients[m, : m + 1] = _PASCAL[m]
    m, j = np.indices((size, size))
    lower = j <= m
    power = np.where(lower, m - j, 0)
    for shared in (coefficients, power, lower):
        shared.flags.writeable = False
    return coefficients, power, lower


def _lift_rows(first: np.ndarray, base: np.ndarray, max_order: int) -> np.ndarray:
    """first * base^l for l = 0..M, one row per entry, multiplied out in
    the order ``_lift`` uses."""
    out = np.empty((len(base), max_order + 1))
    out[:, 0] = first
    for l in range(1, max_order + 1):
        np.multiply(out[:, l - 1], base, out=out[:, l])
    return out


def _advance(
    lift: np.ndarray,
    prev: np.ndarray,
    firsts: np.ndarray,
    live: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``_combine`` for every vertex of one layer, in the real semiring.

    Row e of ``lift`` is an edge's lam g^l (l = 0..M) and row e of
    ``prev`` its neighbour's moment row; each vertex's order m sums
    C(m, j) lift[m-j] prev[j] over j <= m and over its edges, which start
    at ``firsts``.  As in ``_combine`` only the terms with j <= m are
    summed, so an order of ``prev`` that overflowed to inf cannot turn a
    lower order into NaN through a zero coefficient.  Edges outside the
    boolean mask ``live`` contribute nothing.  The per-edge
    (M+1)x(M+1) term matrices exist for this layer only.
    """
    coefficients, power, lower = _binomial_index(lift.shape[1] - 1)
    terms = lift[:, power] * coefficients
    terms *= prev[:, None, :]
    terms = np.add.reduce(terms, axis=2, where=lower)
    if live is not None:
        terms[~live] = 0.0
    return np.add.reduceat(terms, firsts, axis=0)


def _start_block(max_order: int) -> np.ndarray:
    block = np.zeros((1, max_order + 1))
    block[0, 0] = 1.0
    return block


def _numerators(
    trellis: Trellis,
    g: DepthFunctionTable,
    max_order: int,
    semiring: SemiringSpec,
    direction: str,
) -> MomentState:
    require_valid(trellis)
    _check_order(max_order)
    if semiring.name == "real":
        plan = trellis.plan(direction)
        lam, gval = plan.lam(trellis), plan.g(trellis, g)
        blocks = [_start_block(max_order)]
        # Overflow to inf stays silent, as in plain float arithmetic.
        with np.errstate(all="ignore"):
            lift = _lift_rows(lam, gval, max_order)
            for k, edges in plan.layer_edges():
                prev = blocks[-1][plan.rows[edges]]
                blocks.append(_advance(lift[edges], prev, plan.firsts[k]))
        table = _LayerRows(plan.where, blocks, _row_list)
        return MomentState(
            direction, max_order, semiring, table, trellis.source, trellis.sink
        )
    start, steps, neighbor = trellis.walk(direction)
    lift = _lifted_labels(trellis, g, max_order, semiring)
    table: dict[int, list[Any]] = {start: [semiring.one] + [semiring.zero] * max_order}
    for group in steps:
        for v, edges in group:
            # A plain loop: on Python 3.11 a comprehension runs in a frame
            # of its own, a measurable cost next to an order-0 combine.
            pairs = []
            for e in edges:
                pairs.append((lift[e.id], table[neighbor(e)]))
            table[v] = _combine(semiring, pairs, max_order)
    return MomentState(
        direction, max_order, semiring, table, trellis.source, trellis.sink
    )


def forward_numerators(
    trellis: Trellis,
    g: DepthFunctionTable,
    max_order: int,
    semiring: SemiringSpec = REAL,
) -> MomentState:
    """Numerators of orders 0..max_order at every vertex, source first."""
    return _numerators(trellis, g, max_order, semiring, "forward")


def backward_numerators(
    trellis: Trellis,
    g: DepthFunctionTable,
    max_order: int,
    semiring: SemiringSpec = REAL,
) -> MomentState:
    """Mirror sweep from the sink; order 0 gives the flows to the sink."""
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


def trellis_moments(state: MomentState) -> TrellisMoments:
    """Moments of the whole trellis from a completed sweep.

    Accepts either direction: the forward sink row and the backward source
    row carry the same numerators.
    """
    numerators = state.numerators(state.terminal)
    return TrellisMoments(
        numerators, _normalize(state.semiring, numerators), state.semiring.name
    )


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

    When no section-``depth`` edge carries c-label ``symbol`` the
    numerators are all the semiring zero and ``normalized`` is None.
    """
    if forward.direction != "forward" or backward.direction != "backward":
        raise SemiringError("symbol_moments needs one forward and one backward state")
    if forward.semiring.name != backward.semiring.name:
        raise SemiringError("forward and backward states use different semirings")
    if not 1 <= depth <= trellis.rank:
        raise SemiringError(f"section depth {depth} outside 1..{trellis.rank}")
    semiring = forward.semiring
    max_order = min(forward.max_order, backward.max_order)

    pairs = []
    for e in trellis.edges_at(depth):
        if e.clabel == symbol:
            lift = _lift(semiring, e.lam, g.value(e), max_order)
            advanced = _combine(semiring, [(lift, forward.table[e.init])], max_order)
            pairs.append((advanced, backward.table[e.fin]))
    numerators = tuple(_combine(semiring, pairs, max_order))
    return SymbolMoments(
        depth, symbol, numerators, _normalize(semiring, numerators), semiring.name
    )


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
    table: dict[int, list[list[Any]]]
    source: int
    sink: int


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
    start, steps, neighbor = trellis.walk("forward")
    lift_y = _lifted_labels(trellis, g_y, order_y, semiring)
    pow_z = {e.id: _lift(semiring, 1.0, g_z.value(e), order_z) for e in trellis.edges}
    add, mul = semiring.add, semiring.mul

    origin = [[semiring.zero] * (order_z + 1) for _ in range(order_y + 1)]
    origin[0][0] = semiring.one
    table: dict[int, list[list[Any]]] = {start: origin}
    for group in steps:
        for v, edges in group:
            grid = []
            for k in range(order_y + 1):
                row = []
                for m in range(order_z + 1):
                    acc = semiring.zero
                    for e in edges:
                        prev = table[neighbor(e)]
                        py, pz = lift_y[e.id], pow_z[e.id]
                        for j in range(k + 1):
                            for l in range(m + 1):
                                term = mul(mul(py[k - j], pz[m - l]), prev[j][l])
                                c = _PASCAL[k][j] * _PASCAL[m][l]
                                if c != 1:
                                    term = nat_scale(semiring, c, term)
                                acc = add(acc, term)
                    row.append(acc)
                grid.append(row)
            table[v] = grid
    return JointMomentState(
        order_y, order_z, semiring, table, trellis.source, trellis.sink
    )


def joint_trellis_moments(
    state: JointMomentState,
) -> tuple[tuple[tuple[Any, ...], ...], Optional[tuple[tuple[float, ...], ...]]]:
    """(numerator grid, normalized grid or None) at the sink."""
    grid = state.table[state.sink]
    numerators = tuple(tuple(row) for row in grid)
    flow = grid[0][0]
    if flow == state.semiring.zero:
        return numerators, None
    if state.semiring.name == "logreal":
        normalized = tuple(
            tuple(math.exp(x - flow) for x in row) for row in grid
        )
    else:
        normalized = tuple(tuple(x / flow for x in row) for row in grid)
    return numerators, normalized


# -- normalized recursion --------------------------------------------------------


@dataclass
class NormalizedMomentState:
    """Per-vertex normalized moments with flows tracked in the log domain.

    ``normalized[v][m]`` is numerator[m] / numerator[0]; ``log_flow[v]``
    is the natural log of the order-0 numerator, so that
    ``normalized[v][m] * exp(log_flow[v])`` reconstructs the raw
    numerator without the recursion itself ever leaving a well-scaled
    range.
    """

    direction: str
    max_order: int
    normalized: Mapping[int, tuple[float, ...]]
    log_flow: Mapping[int, float]

    def reconstruct(self, v: int) -> tuple[float, ...]:
        scale = math.exp(self.log_flow[v])
        return tuple(x * scale for x in self.normalized[v])


def normalized_states(
    trellis: Trellis,
    g: DepthFunctionTable,
    max_order: int,
    direction: str = "forward",
) -> NormalizedMomentState:
    """Run the recursion in normalized form (real labels, positive flows).

    Each layer's numerators are divided by that vertex's flow as they are
    produced, and the flow itself is carried as a log; incoming edges
    contribute through their relative weights
    lam(e)*flow(init(e)) / sum(lam(e')*flow(init(e'))).  Raises
    ZeroFlowError naming the first vertex whose flow vanishes.
    """
    require_valid(trellis)
    _check_order(max_order)
    plan = trellis.plan(direction)
    lam = plan.lam(trellis, nonnegative_for="normalized recursion")
    normalized = [_start_block(max_order)]
    log_flow = [np.zeros(1)]
    # log(0) = -inf and overflow to inf stay silent, as in plain floats.
    with np.errstate(all="ignore"):
        log_lam = np.log(lam)
        gval = plan.g(trellis, g)
        for k, edges in plan.layer_edges():
            rows, owners, firsts = plan.rows[edges], plan.owners[edges], plan.firsts[k]
            terms = log_lam[edges] + log_flow[-1][rows]
            hi = np.maximum.reduceat(terms, firsts)
            dead = hi == -np.inf
            if dead.any():
                raise ZeroFlowError(plan.layers[k][int(np.argmax(dead))])
            total = hi + np.log(np.add.reduceat(np.exp(terms - hi[owners]), firsts))
            weights = np.exp(terms - total[owners])
            # The weight leads each edge's powers, and an edge of weight 0
            # drops out, so a large g^l cannot overflow where w g^l does not.
            lift = _lift_rows(weights, gval[edges], max_order)
            live = weights != 0.0
            row = _advance(lift, normalized[-1][rows], firsts, live)
            row[:, 0] = 1.0
            normalized.append(row)
            log_flow.append(total)
    return NormalizedMomentState(
        direction,
        max_order,
        _LayerRows(plan.where, normalized, _row_tuple),
        _LayerRows(plan.where, log_flow, _row_float),
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

    state = MomentState(
        "forward", max_order, REAL, table, trellis.source, trellis.sink
    )
    return trellis_moments(state), counter


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
