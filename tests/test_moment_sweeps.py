"""The layer-batched real moment sweeps against per-vertex references.

``reference_numerators`` and ``reference_normalized_states`` are the
real-semiring sweeps the batched ones replaced: they visit one vertex at
a time and combine moment rows with plain float arithmetic, term by
term, in the order the generic binomial combine uses.  The batched
sweeps add the same terms in another order, so they agree to rounding;
with labels and g values whose path sums are exact in floating point
they must agree exactly.  The last tests cover the read-only layer
views that the moment and the distribution states share.
"""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trelliskit import (
    MAX_ORDER,
    DepthFunctionTable,
    Edge,
    SemiringError,
    Trellis,
    REAL,
    ZeroFlowError,
    backward_distributions,
    build_conv_trellis,
    forward_distributions,
    forward_numerators,
    normalized_states,
    require_valid,
)
from trelliskit import moments
from trelliskit.distributions import ExactDistribution, QuantizedDistribution
from trelliskit.oracles import random_trellis
from trelliskit.semirings import _PASCAL

PROPERTY_SETTINGS = settings(
    max_examples=150, deadline=None, derandomize=True, database=None
)

RTOL = 1e-12
ORDERS = [0, 1, 2, 3, 4, 12]


# -- per-vertex references ------------------------------------------------------


def _check_order(max_order):
    if not 0 <= max_order <= MAX_ORDER:
        raise SemiringError(
            f"max order {max_order} outside supported range 0..{MAX_ORDER}"
        )


def _lift(lam, g, max_order):
    row = [float(lam)]
    for _ in range(max_order):
        row.append(row[-1] * g)
    return row


def _combine(pairs, max_order):
    out = []
    for m in range(max_order + 1):
        acc = 0.0
        for a, b in pairs:
            for l in range(m + 1):
                term = a[l] * b[m - l]
                c = _PASCAL[m][l]
                if c != 1:
                    term = float(c) * term
                acc = acc + term
        out.append(acc)
    return out


def reference_numerators(trellis, g, max_order, direction):
    """Vertex -> numerator row (orders 0..max_order) of one sweep."""
    require_valid(trellis)
    _check_order(max_order)
    start, steps, neighbor = trellis.walk(direction)
    lift = {e.id: _lift(e.lam, g.value(e), max_order) for e in trellis.edges}
    table = {start: [1.0] + [0.0] * max_order}
    for group in steps:
        for v, edges in group:
            pairs = [(lift[e.id], table[neighbor(e)]) for e in edges]
            table[v] = _combine(pairs, max_order)
    return table


def reference_normalized_states(trellis, g, max_order, direction):
    """(vertex -> normalized row, vertex -> log flow) of one sweep."""
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

    normalized = {start: (1.0,) + (0.0,) * max_order}
    log_flow = {start: 0.0}
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
                    pairs.append((_lift(w, gval[e.id], max_order), normalized[neighbor(e)]))
            row = _combine(pairs, max_order)
            row[0] = 1.0
            normalized[v] = tuple(row)
    return normalized, log_flow


# -- helpers ----------------------------------------------------------------------


def bits(x: float) -> str:
    return float(x).hex()


def assert_row_close(got, want, scale, where):
    """Within RTOL of the larger of the two values, for order 0; for
    higher orders of the largest of 1, the two values and ``scale``.

    ``scale`` is the same row computed with |g| in place of g: the sum
    of the magnitudes of the terms, which bounds the rounding error of
    any summation order when signed terms cancel.
    """
    assert len(got) == len(want), where
    for m, (a, b) in enumerate(zip(got, want)):
        floor = max(1.0, abs(scale[m])) if m else 0.0
        assert abs(a - b) <= RTOL * max(floor, abs(a), abs(b)), (where, m, a, b)


def outcome(fn, *args):
    """("ok", result) or (error type, vertex or message) of one call."""
    try:
        return "ok", fn(*args)
    except ZeroFlowError as err:
        return ZeroFlowError, err.vertex
    except SemiringError as err:
        return SemiringError, str(err)


def numerators(t, g, order, direction):
    """The engine behind forward_numerators and backward_numerators."""
    return moments._numerators(t, g, order, REAL, direction).table


@st.composite
def instances(draw):
    """A random trellis (parallel edges, up to 3 vertices per layer) with
    some labels set to zero, a direction and a seed for its g values."""
    seed = draw(st.integers(0, 10**6))
    t = random_trellis(
        seed, max_rank=7, max_width=3, parallel_edge_prob=0.3, extra_edge_prob=0.5
    )
    zero = draw(
        st.sets(st.sampled_from([e.id for e in t.edges]), max_size=len(t.edges) // 3)
    )
    t = t.relabeled(lambda e: 0.0 if e.id in zero else e.lam)
    direction = draw(st.sampled_from(["forward", "backward"]))
    return t, direction, seed


def normal_g(t: Trellis, seed: int) -> DepthFunctionTable:
    rng = np.random.default_rng(seed)
    return DepthFunctionTable({e.id: float(rng.normal()) for e in t.edges})


def magnitudes(g: DepthFunctionTable) -> DepthFunctionTable:
    return DepthFunctionTable({k: abs(v) for k, v in g.items()})


# -- properties -------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(instances(), st.sampled_from(ORDERS))
def test_numerators_match_reference(instance, order):
    t, direction, seed = instance
    g = normal_g(t, seed)
    got = numerators(t, g, order, direction)
    want = reference_numerators(t, g, order, direction)
    scale = reference_numerators(t, magnitudes(g), order, direction)
    assert list(got) == list(want)
    for v, row in want.items():
        assert_row_close(got[v], row, scale[v], v)


@PROPERTY_SETTINGS
@given(instances(), st.sampled_from(ORDERS))
def test_numerators_exact_with_dyadic_labels(instance, order):
    """Labels in {0, 1/2, 1} and small integer g values keep every path
    sum exact in floating point, so both sweeps must return the same
    floats whatever order they add in."""
    t, direction, seed = instance
    rng = np.random.default_rng(seed)
    t = t.relabeled(lambda e: float(rng.choice([0.0, 0.5, 1.0])) if e.lam else 0.0)
    spread = 2 if order <= 4 else 1
    g = DepthFunctionTable(
        {e.id: float(rng.integers(-spread, spread + 1)) for e in t.edges}
    )
    got = numerators(t, g, order, direction)
    want = reference_numerators(t, g, order, direction)
    for v, row in want.items():
        assert [bits(x) for x in got[v]] == [bits(x) for x in row], v


@PROPERTY_SETTINGS
@given(instances(), st.sampled_from(ORDERS))
def test_normalized_states_match_reference(instance, order):
    t, direction, seed = instance
    g = normal_g(t, seed)
    got = outcome(normalized_states, t, g, order, direction)
    want = outcome(reference_normalized_states, t, g, order, direction)
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1] == want[1]  # the first dead vertex in walk order
        return
    state, (normalized, log_flow) = got[1], want[1]
    scale, _ = reference_normalized_states(t, magnitudes(g), order, direction)
    assert list(state.normalized) == list(normalized)
    assert list(state.log_flow) == list(log_flow)
    for v, row in normalized.items():
        assert state.normalized[v][0] == 1.0
        assert_row_close(state.normalized[v], row, scale[v], v)
        a, b = state.log_flow[v], log_flow[v]
        assert abs(a - b) <= RTOL * max(1.0, abs(a), abs(b)), (v, a, b)


def large_g(t: Trellis, seed: int) -> DepthFunctionTable:
    """Positive g values up to 1e60, so that high orders overflow to inf
    while every term stays nonnegative (no cancellation)."""
    rng = np.random.default_rng(seed)
    return DepthFunctionTable({e.id: float(10 ** rng.uniform(-5, 60)) for e in t.edges})


def assert_row_same(got, want, where):
    """Finite entries within RTOL, inf and NaN entries equal."""
    assert len(got) == len(want), where
    for m, (a, b) in enumerate(zip(got, want)):
        if math.isfinite(b):
            assert abs(a - b) <= RTOL * max(abs(a), abs(b)), (where, m, a, b)
        else:
            assert repr(a) == repr(b), (where, m, a, b)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(instances(), st.sampled_from([2, 4, 12, 40, MAX_ORDER]))
def test_overflow_stays_where_the_reference_has_it(instance, order):
    """An order that overflowed to inf turns no lower order into NaN,
    and a small weight times a large power of g stays finite: the
    batched sweeps have inf and NaN exactly where the references do."""
    t, direction, seed = instance
    g = large_g(t, seed)
    got = numerators(t, g, order, direction)
    want = reference_numerators(t, g, order, direction)
    for v, row in want.items():
        assert_row_same(got[v], row, v)
    got = outcome(normalized_states, t, g, order, direction)
    want = outcome(reference_normalized_states, t, g, order, direction)
    assert got[0] == want[0]
    if got[0] == "ok":
        for v, row in want[1][0].items():
            assert_row_same(got[1].normalized[v], row, v)


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_overflowed_order_leaves_lower_orders(direction):
    """A chain with g = 1e200: order 2 is inf from the first edge on,
    and orders 0 and 1 stay the finite path sums."""
    chain = Trellis(3, {v: v for v in range(4)}, [Edge(v, v, v + 1) for v in range(3)])
    g = DepthFunctionTable.constant(chain, 1e200)
    got = numerators(chain, g, 2, direction)
    want = reference_numerators(chain, g, 2, direction)
    terminal = chain.sink if direction == "forward" else chain.source
    assert got[terminal] == want[terminal] == [1.0, 3e200, math.inf]
    for v, row in want.items():
        assert got[v] == row, v


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_normalized_weight_leads_its_powers(direction):
    """Three parallel edges: one of weight ~1e-300 whose g^40 alone would
    overflow, and one of label 0 whose g^2 does; the reference keeps the
    first finite (w g g ... from w) and skips the second."""
    edges = [
        Edge(0, 0, 1, 1.0),
        Edge(1, 0, 1, 1e-300),
        Edge(2, 0, 1, 0.0),
        Edge(3, 1, 2, 1.0),
    ]
    t = Trellis(2, {0: 0, 1: 1, 2: 2}, edges)
    g = DepthFunctionTable({0: 0.0, 1: 1e10, 2: 1e200, 3: 0.0})
    state = normalized_states(t, g, 40, direction)
    normalized, _ = reference_normalized_states(t, g, 40, direction)
    for v, row in normalized.items():
        assert all(math.isfinite(x) for x in row), v
        assert_row_same(state.normalized[v], row, v)
    assert state.normalized[t.sink if direction == "forward" else t.source][40] > 1e99


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_normalized_skips_zero_weight_edges(direction):
    """Vertex 1's row overflows at order 2 and its only edge on to
    vertex 3 has label 0: the reference skips that edge, so vertex 3
    keeps the finite row it gets through vertex 2."""
    depths = {0: 0, 1: 1, 2: 1, 3: 2, 4: 3}
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 0.0), (2, 3, 1.0), (3, 4, 1.0)]
    if direction == "backward":  # the same sweep, mirrored
        depths = {v: 3 - d for v, d in depths.items()}
        edges = [(fin, init, lam) for init, fin, lam in edges]
    t = Trellis(3, depths, [Edge(i, *e) for i, e in enumerate(edges)])
    g = DepthFunctionTable({0: 1e200, 1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0})
    state = normalized_states(t, g, 2, direction)
    normalized, _ = reference_normalized_states(t, g, 2, direction)
    assert normalized[1] == state.normalized[1] == (1.0, 1e200, math.inf)
    for v in (3, 4):
        assert normalized[v] == state.normalized[v] == (1.0, 0.0, 0.0), v


def test_zero_flow_hits_the_same_vertex():
    t = random_trellis(5, max_rank=6, max_width=3)
    g = normal_g(t, 5)
    depth = max(range(1, t.rank), key=lambda d: len(t.layers[d]))
    dead = t.layers[depth][-1]
    cut = t.relabeled(lambda e: 0.0 if e.fin == dead else e.lam)
    with pytest.raises(ZeroFlowError) as got:
        normalized_states(cut, g, 2)
    with pytest.raises(ZeroFlowError) as want:
        reference_normalized_states(cut, g, 2, "forward")
    assert got.value.vertex == want.value.vertex == dead


@pytest.mark.parametrize("seed", range(6))
def test_same_semiring_errors(seed):
    t = random_trellis(seed)
    g = normal_g(t, seed)
    # The first negative label in edge order is the one named.
    negative = {t.edges[len(t.edges) // 2].id, t.edges[-1].id}
    bad = t.relabeled(lambda e: -0.5 if e.id in negative else e.lam)
    for direction in ("forward", "backward"):
        got = outcome(normalized_states, bad, g, 2, direction)
        want = outcome(reference_normalized_states, bad, g, 2, direction)
        assert got[0] is SemiringError and got == want
    for order, direction in ((2, "sideways"), (MAX_ORDER + 1, "forward")):
        for engine, reference in (
            (normalized_states, reference_normalized_states),
            (numerators, reference_numerators),
        ):
            got = outcome(engine, t, g, order, direction)
            want = outcome(reference, t, g, order, direction)
            assert got[0] is SemiringError and got == want


def test_states_are_read_only_vertex_mappings():
    t = random_trellis(3)
    g = normal_g(t, 3)
    table = forward_numerators(t, g, 2).table
    assert isinstance(table[t.sink], list)
    with pytest.raises(TypeError):
        table[t.sink] = [0.0, 0.0, 0.0]
    with pytest.raises(KeyError):
        table[max(t.vertices) + 1]
    state = normalized_states(t, g, 2, "backward")
    assert isinstance(state.normalized[t.source], tuple)
    assert isinstance(state.log_flow[t.source], float)
    assert len(state.normalized) == len(state.log_flow) == len(t.vertices)


def test_real_sweep_keeps_few_tracked_objects():
    """A sweep's state holds one numpy block per layer, which the cyclic
    garbage collector does not track, rather than one list per vertex."""
    code = build_conv_trellis((7, 5), 200)
    g = DepthFunctionTable.from_clabels(code)
    forward_numerators(code, g, 2)  # builds the walk plan
    gc.collect()
    before = len(gc.get_objects())
    state = forward_numerators(code, g, 2)
    gc.collect()
    alive = len(gc.get_objects()) - before
    assert alive < 4 * code.rank
    assert len(state.table) == len(code.vertices)


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_distribution_states_are_read_only_vertex_mappings(direction):
    t = random_trellis(3)
    start, steps, _ = t.walk(direction)
    walk_order = [start] + [v for group in steps for v, _ in group]
    g = DepthFunctionTable.from_clabels(t)
    sweep = forward_distributions if direction == "forward" else backward_distributions
    exact = sweep(t, g, "exact")
    quantized = sweep(t, g, "quantized")
    views = [
        (exact.exact, ExactDistribution),
        (quantized.quantized, QuantizedDistribution),
        (quantized.flows, float),
    ]
    for view, kind in views:
        assert list(view) == walk_order
        assert len(view) == len(t.vertices)
        assert isinstance(view[start], kind)
        with pytest.raises(TypeError):
            view[start] = view[start]
        with pytest.raises(KeyError):
            view[max(t.vertices) + 1]
    assert exact.quantized is None and exact.flows is None
    assert quantized.exact is None


@pytest.mark.parametrize("mode", ["exact", "quantized"])
def test_distribution_sweep_keeps_few_tracked_objects(mode):
    """A distribution state keeps its sweep's arrays per layer and builds
    no ExactDistribution or QuantizedDistribution per vertex."""
    code = build_conv_trellis((7, 5), 200)
    g = DepthFunctionTable.from_clabels(code)
    forward_distributions(code, g, mode)  # builds the walk plan
    gc.collect()
    before = len(gc.get_objects())
    state = forward_distributions(code, g, mode)
    gc.collect()
    alive = len(gc.get_objects()) - before
    assert alive < 4 * code.rank
    assert state.mode == mode
    assert len(state.exact or state.quantized) == len(code.vertices)
