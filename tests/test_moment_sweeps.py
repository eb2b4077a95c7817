"""The layer-batched moment sweeps against per-vertex references.

``reference_numerators`` and ``reference_normalized_states`` are the
real-semiring sweeps the batched ones replaced: they visit one vertex at
a time and combine moment rows with plain float arithmetic, term by
term, in the order the generic binomial combine uses.  The batched
sweeps add the same terms in another order, so they agree to rounding;
with labels and g values whose path sums are exact in floating point
they must agree exactly.  The read-only layer views that the moment and
the distribution states share come next.

The last section keeps the scalar sweeps that served the other four
semirings, the joint engine and ``symbol_moments`` before every engine
ran one numpy layer step: ``combine_in`` advances and joins moment rows
one element at a time through a semiring's scalar operations.  Min, max
and or are exact in any order, and min-plus and max-times round
monotonically, so the tropical, max-product and boolean results must
match them bit for bit.
"""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trelliskit import (
    BOOLEAN,
    LOGREAL,
    Awgn,
    Bsc,
    MAX_ORDER,
    DepthFunctionTable,
    Edge,
    SemiringError,
    Trellis,
    REAL,
    TROPICAL,
    ZeroFlowError,
    backward_distributions,
    backward_numerators,
    build_conv_trellis,
    channel_lambda_labels,
    conditional_entropy,
    correlation_g_table,
    correlation_moments,
    forward_distributions,
    forward_numerators,
    get_semiring,
    joint_forward_numerators,
    make_received,
    nat_scale,
    normalized_states,
    require_valid,
    symbol_distribution,
    symbol_moments,
    trellis_distribution,
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


def _words_op(code, channel, word, depth):
    """Labelling plus the sweeps of one benchmark-style op on ``code``:
    entropy, correlation moments, flows and every symbol posterior, a
    normalized sweep, and a distribution pair with its cut and one symbol
    distribution.  Returns what the op keeps."""
    lab = channel_lambda_labels(code, channel, word)
    zero = DepthFunctionTable.constant(lab, 0.0)
    fwd = forward_numerators(lab, zero, 0)
    bwd = backward_numerators(lab, zero, 0)
    posteriors = [
        symbol_moments(lab, zero, fwd, bwd, d, s).numerators[0]
        for d in range(1, lab.rank + 1)
        for s in (1.0, -1.0)
    ]
    g = correlation_g_table(lab, word)
    mode = "exact" if isinstance(channel, Bsc) else "quantized"
    fd = forward_distributions(lab, g, mode)
    bd = backward_distributions(lab, g, mode)
    return (
        lab,
        fwd,
        bwd,
        sum(posteriors),
        conditional_entropy(lab, channel, word, (depth, 1.0)),
        correlation_moments(lab, word, 4, (depth, -1.0)),
        normalized_states(lab, g, 4, "backward"),
        fd,
        bd,
        trellis_distribution(fd, bd, lab.rank // 2),
        symbol_distribution(lab, g, fd, bd, depth, 1.0),
    )


@pytest.mark.parametrize(
    "generators, info_len, channel",
    [((7, 5), 200, Bsc(0.05)), ((0o171, 0o133), 24, Awgn(0.5))],
    ids=["bsc75", "awgn171"],
)
def test_words_op_builds_no_edge_objects(monkeypatch, generators, info_len, channel):
    """Labelling and every engine read lambda and g as arrays: an op on a
    code trellis whose plans exist builds no Edge object."""
    code = build_conv_trellis(generators, info_len)
    words = [make_received(code, channel, seed)[1] for seed in (1, 2)]
    _words_op(code, channel, words[0], 9)  # builds the plans and the report
    built = []
    init = Edge.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Edge, "__init__", counted)
    _words_op(code, channel, words[1], 9)
    assert built == []


def test_labelling_and_op_sweeps_keep_few_tracked_objects():
    """A labelled copy stores one label array and builds no Edge objects,
    and the sweeps keep arrays, so labelling plus one op's sweeps leave
    few objects for the cyclic garbage collector."""
    code = build_conv_trellis((7, 5), 200)
    channel = Bsc(0.05)
    words = [make_received(code, channel, seed)[1] for seed in (1, 2)]
    _words_op(code, channel, words[0], 10)  # builds the plans and the report
    gc.collect()
    before = len(gc.get_objects())
    kept = _words_op(code, channel, words[1], 10)
    gc.collect()
    alive = len(gc.get_objects()) - before
    assert alive < 4 * code.rank
    assert kept[0].rank == code.rank


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


def test_semiring_and_joint_sweeps_keep_few_tracked_objects():
    """Every semiring's state and the joint state keep one block per
    layer, like the real one, rather than one list per vertex."""
    code = build_conv_trellis((7, 5), 200)
    g = DepthFunctionTable.from_clabels(code)
    sweeps = [
        lambda: backward_numerators(code, g, 2, TROPICAL),
        lambda: forward_numerators(code, g, 0, BOOLEAN),
        lambda: joint_forward_numerators(code, g, g, 2, 2),
    ]
    for sweep in sweeps:
        sweep()  # builds the walk plan
        gc.collect()
        before = len(gc.get_objects())
        state = sweep()
        gc.collect()
        alive = len(gc.get_objects()) - before
        assert alive < 4 * code.rank
        assert len(state.table) == len(code.vertices)


# -- scalar references for every semiring -------------------------------------------


def lift_in(semiring, lam, g, max_order):
    """Edge label folded with the powers of its g value: lam * g^l, l = 0..M."""
    base = semiring.from_real(g)
    row = [semiring.from_real(lam)]
    for _ in range(max_order):
        row.append(semiring.mul(row[-1], base))
    return row


def combine_in(semiring, pairs, max_order):
    """out[m] = sum over (a, b) in pairs and l of C(m,l) a[l] b[m-l], m = 0..M.

    With a lifted edge label as ``a`` it advances the row ``b`` across
    that edge; with a forward and a backward row it joins them.
    """
    out = []
    for m in range(max_order + 1):
        acc = semiring.zero
        for a, b in pairs:
            for l in range(m + 1):
                term = semiring.mul(a[l], b[m - l])
                c = _PASCAL[m][l]
                if c != 1:
                    term = nat_scale(semiring, c, term)
                acc = semiring.add(acc, term)
        out.append(acc)
    return out


def reference_semiring_numerators(trellis, g, max_order, semiring, direction):
    """Vertex -> numerator row of one sweep in ``semiring``."""
    require_valid(trellis)
    _check_order(max_order)
    start, steps, neighbor = trellis.walk(direction)
    lift = {
        e.id: lift_in(semiring, e.lam, g.value(e), max_order) for e in trellis.edges
    }
    table = {start: [semiring.one] + [semiring.zero] * max_order}
    for group in steps:
        for v, edges in group:
            pairs = [(lift[e.id], table[neighbor(e)]) for e in edges]
            table[v] = combine_in(semiring, pairs, max_order)
    return table


def reference_symbol_moments(trellis, g, forward, backward, depth, symbol, semiring):
    """Symbol numerators from forward and backward vertex -> row tables."""
    max_order = min(len(forward[trellis.source]), len(backward[trellis.sink])) - 1
    pairs = []
    for e in trellis.edges_at(depth):
        if e.clabel == symbol:
            lift = lift_in(semiring, e.lam, g.value(e), max_order)
            advanced = combine_in(semiring, [(lift, forward[e.init])], max_order)
            pairs.append((advanced, backward[e.fin]))
    return combine_in(semiring, pairs, max_order)


def reference_joint(trellis, g_y, g_z, order_y, order_z, semiring):
    """Vertex -> joint numerator grid [k][m] of the forward sweep."""
    require_valid(trellis)
    start, steps, neighbor = trellis.walk("forward")
    lift_y, pow_z = {}, {}
    for e in trellis.edges:
        lift_y[e.id] = lift_in(semiring, e.lam, g_y.value(e), order_y)
    for e in trellis.edges:
        pow_z[e.id] = lift_in(semiring, 1.0, g_z.value(e), order_z)
    origin = [[semiring.zero] * (order_z + 1) for _ in range(order_y + 1)]
    origin[0][0] = semiring.one
    table = {start: origin}
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
                                term = semiring.mul(
                                    semiring.mul(py[k - j], pz[m - l]), prev[j][l]
                                )
                                c = _PASCAL[k][j] * _PASCAL[m][l]
                                if c != 1:
                                    term = nat_scale(semiring, c, term)
                                acc = semiring.add(acc, term)
                    row.append(acc)
                grid.append(row)
            table[v] = grid
    return table


EXACT = ["tropical", "maxprod", "boolean"]


def carrier_g(semiring, t, seed):
    """g values the carrier can hold: nonnegative in logreal and maxprod."""
    g = normal_g(t, seed)
    return magnitudes(g) if semiring.name in ("logreal", "maxprod") else g


def assert_log_row_close(got, want, where):
    """Log-domain rows: -inf where the reference has it, elsewhere within
    RTOL with a unit floor (a relative error of RTOL in the value)."""
    assert len(got) == len(want), where
    for m, (a, b) in enumerate(zip(got, want)):
        if b == -math.inf:
            assert a == -math.inf, (where, m, a, b)
        else:
            assert abs(a - b) <= RTOL * max(1.0, abs(a), abs(b)), (where, m, a, b)


def assert_rows_match(semiring, got, want, scale, where):
    if semiring.name in EXACT:
        assert [bits(x) for x in got] == [bits(x) for x in want], where
    elif semiring.name == "logreal":
        assert_log_row_close(got, want, where)
    else:
        assert_row_close(got, want, scale, where)


@PROPERTY_SETTINGS
@given(
    instances(), st.sampled_from([0, 1, 2, 3, 4]), st.sampled_from(EXACT + ["logreal"])
)
def test_semiring_numerators_match_scalar_reference(instance, order, name):
    semiring = get_semiring(name)
    t, direction, seed = instance
    g = carrier_g(semiring, t, seed)
    got = moments._numerators(t, g, order, semiring, direction).table
    want = reference_semiring_numerators(t, g, order, semiring, direction)
    assert list(got) == list(want)
    for v, row in want.items():
        assert_rows_match(semiring, got[v], row, None, v)
        assert all(type(x) is type(semiring.zero) for x in got[v]), v


@PROPERTY_SETTINGS
@given(
    instances(),
    st.sampled_from([(0, 0), (1, 2), (2, 2), (3, 1)]),
    st.sampled_from(["real", "logreal"]),
)
def test_joint_numerators_match_scalar_reference(instance, orders, name):
    semiring = get_semiring(name)
    t, _, seed = instance
    g_y, g_z = carrier_g(semiring, t, seed), carrier_g(semiring, t, seed + 1)
    got = joint_forward_numerators(t, g_y, g_z, *orders, semiring).table
    want = reference_joint(t, g_y, g_z, *orders, semiring)
    scale = reference_joint(t, magnitudes(g_y), magnitudes(g_z), *orders, semiring)
    assert list(got) == list(want)
    flat = lambda grid: [x for row in grid for x in row]  # noqa: E731
    for v, grid in want.items():
        assert_rows_match(semiring, flat(got[v]), flat(grid), flat(scale[v]), v)


@PROPERTY_SETTINGS
@given(
    instances(),
    st.sampled_from([0, 1, 2, 4]),
    st.sampled_from(["boolean", "logreal", "maxprod", "real", "tropical"]),
)
def test_symbol_moments_match_scalar_reference(instance, order, name):
    semiring = get_semiring(name)
    t, _, seed = instance
    g = carrier_g(semiring, t, seed)
    fwd = forward_numerators(t, g, order, semiring)
    bwd = backward_numerators(t, g, order, semiring)
    g_abs = magnitudes(g)
    fwd_abs = forward_numerators(t, g_abs, order, semiring)
    bwd_abs = backward_numerators(t, g_abs, order, semiring)
    for depth in range(1, t.rank + 1):
        for symbol in {e.clabel for e in t.edges_at(depth)} | {7.0}:
            got = symbol_moments(t, g, fwd, bwd, depth, symbol).numerators
            want = reference_symbol_moments(
                t, g, fwd.table, bwd.table, depth, symbol, semiring
            )
            scale = reference_symbol_moments(
                t, g_abs, fwd_abs.table, bwd_abs.table, depth, symbol, semiring
            )
            assert_rows_match(semiring, got, want, scale, (depth, symbol))


def failure(fn, *args):
    """The SemiringError text of one call, or None when it succeeds."""
    try:
        fn(*args)
    except SemiringError as err:
        return str(err)
    return None


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(instances(), st.sampled_from(["logreal", "maxprod"]), st.data())
def test_negative_values_raise_the_reference_error(instance, name, data):
    """A carrier without negative values names the same value as the
    scalar references: the first, edge by edge, each edge's g first."""
    semiring = get_semiring(name)
    t, direction, seed = instance
    g = magnitudes(normal_g(t, seed))
    ids = [e.id for e in t.edges]
    bad_lam = data.draw(st.sets(st.sampled_from(ids), max_size=3))
    bad_g = data.draw(st.sets(st.sampled_from(ids), min_size=1, max_size=3))
    # Distinct values, so the message tells which one was named.
    t_bad = t.relabeled(lambda e: -1.0 - e.id if e.id in bad_lam else e.lam)
    g_bad = DepthFunctionTable({k: -0.5 - k if k in bad_g else v for k, v in g.items()})

    for args in ((t_bad, g_bad), (t_bad, g), (t, g_bad)):
        got = failure(moments._numerators, *args, 2, semiring, direction)
        want = failure(reference_semiring_numerators, *args, 2, semiring, direction)
        assert got == want
        assert got is not None or args[1] is g
    fwd = forward_numerators(t, g, 2, semiring)
    bwd = backward_numerators(t, g, 2, semiring)
    for depth in range(1, t.rank + 1):
        for symbol in (1.0, -1.0):
            got = failure(symbol_moments, t_bad, g_bad, fwd, bwd, depth, symbol)
            want = failure(
                reference_symbol_moments,
                t_bad, g_bad, fwd.table, bwd.table, depth, symbol, semiring,
            )
            assert got == want
    if semiring is LOGREAL:
        for args in ((t_bad, g_bad, g), (t, g, g_bad)):
            got = failure(joint_forward_numerators, *args, 1, 1, semiring)
            want = failure(reference_joint, *args, 1, 1, semiring)
            assert got == want
