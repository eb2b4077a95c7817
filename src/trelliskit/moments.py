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

Every engine here but the two counted evaluators below walks the trellis
through ``Trellis.walk``, in either direction, and combines moment
vectors through the one binomial helper ``_combine``, with each edge's
label folded once into the powers of its g value (``lam(e) g(e)^l``
above).

``counted_run`` / ``counted_symbol_pass`` are real-semiring evaluators
instrumented with exact add/multiply tallies, performing literally the
operation schedule that the O(|E|) complexity accounting assumes
(including the per-edge unit multiplication charged at l = 0, and with
g-powers precomputed and tallied separately).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Sequence

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


@dataclass
class MomentState:
    """Per-vertex numerator vectors of one forward or backward sweep."""

    direction: str  # "forward" | "backward"
    max_order: int
    semiring: SemiringSpec
    table: dict[int, list[Any]]
    source: int
    sink: int

    def numerators(self, v: int) -> tuple[Any, ...]:
        return tuple(self.table[v])

    @property
    def terminal(self) -> int:
        """Vertex whose row carries the whole-trellis numerators."""
        return self.sink if self.direction == "forward" else self.source


def _numerators(
    trellis: Trellis,
    g: DepthFunctionTable,
    max_order: int,
    semiring: SemiringSpec,
    direction: str,
) -> MomentState:
    require_valid(trellis)
    _check_order(max_order)
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
    normalized: dict[int, tuple[float, ...]]
    log_flow: dict[int, float]

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
    start, steps, neighbor = trellis.walk(direction)
    for e in trellis.edges:
        if e.lam < 0:
            raise SemiringError(
                f"normalized recursion needs nonnegative labels; edge {e.id} "
                f"has {e.lam}"
            )
    log_lam = {
        e.id: math.log(e.lam) if e.lam > 0 else -math.inf for e in trellis.edges
    }
    gval = {e.id: g.value(e) for e in trellis.edges}

    normalized: dict[int, tuple[float, ...]] = {
        start: (1.0,) + (0.0,) * max_order
    }
    log_flow: dict[int, float] = {start: 0.0}
    for group in steps:
        for v, edges in group:
            terms = [log_lam[e.id] + log_flow[neighbor(e)] for e in edges]
            hi = max(terms)
            if hi == -math.inf:
                raise ZeroFlowError(v)
            total = hi + math.log(sum(math.exp(t - hi) for t in terms))
            log_flow[v] = total

            pairs = []
            for t, e in zip(terms, edges):
                w = math.exp(t - total)
                if w != 0.0:
                    lift = _lift(REAL, w, gval[e.id], max_order)
                    pairs.append((lift, normalized[neighbor(e)]))
            row = _combine(REAL, pairs, max_order)
            row[0] = 1.0
            normalized[v] = tuple(row)
    return NormalizedMomentState(direction, max_order, normalized, log_flow)


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
