"""The moment sweep a labelled trellis keeps, and the calls it serves.

``forward_numerators`` and ``backward_numerators`` keep their last sweep
on the trellis, one per (direction, semiring), with the bits of g's
values and the order.  A later call with the same bits at an order no
higher, or at order 0 with any g, is served from it: the rows 0..m of a
sweep do not depend on its order, and row 0 and its exponent read only
lambda.  A served state must be the sweep's own, bit for bit, and every
check a sweep makes must still run.  The whole code's entropy sweeps at
order 2, so the order-2 questions after it on the same word are served.
On the benchmark's words an op sweeps twice ([7,5] K=200, BSC) and 4
times ([171,133] K=24, AWGN): a constrained question joins the kept
forward and backward sweeps across its section, and a quantized
distribution sweep reads its flows from the kept sweep of its
direction, or sweeps and keeps them at order 0.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trelliskit import (
    Awgn,
    Bsc,
    DepthFunctionTable,
    Edge,
    Trellis,
    TrelliskitError,
    backward_distributions,
    backward_numerators,
    build_conv_trellis,
    channel_lambda_labels,
    conditional_entropy,
    conditional_entropy_detail,
    correlation_g_table,
    correlation_moments,
    distributions,
    forward_distributions,
    forward_numerators,
    get_semiring,
    make_received,
    moments,
    symbol_distribution,
    symbol_moments,
    symbol_probability,
    trellis_distribution,
    uncertainty_constants,
)
from trelliskit.semirings import MAX_ORDER, REAL

from conftest import reference_sweep
from test_layer_step import SEMIRINGS, assert_same_layers, trellises

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)

NUMERATORS = {"forward": forward_numerators, "backward": backward_numerators}


def table(t, values):
    return DepthFunctionTable.from_values(t, np.array(values, dtype=float))


def reference(semiring, t, values, order, direction):
    """``reference_sweep`` of one direction, from the lift a sweep makes."""
    plan = t.plan(direction)
    with np.errstate(all="ignore"):
        lam, gval = moments._edge_labels(semiring, t._lam, np.asarray(values, dtype=float))
        lift = moments._lift_rows(semiring, lam, gval, order)[:, plan.edges]
        return reference_sweep(semiring, plan, lift.T, (order,))


def assert_bitwise(state, want):
    """The state's blocks and exponents equal ``want``'s, bytes for bytes."""
    got = state.table._layers
    assert len(got) == len(want)
    for k, ((block, exponent), (ref, ref_exponent)) in enumerate(zip(got, want)):
        assert block.dtype == ref.dtype and block.shape == ref.shape, k
        assert np.ascontiguousarray(block).tobytes() == np.ascontiguousarray(ref).tobytes(), k
        assert exponent == ref_exponent, k


def outcome(fn, *args):
    """("ok", None), or the type and message of the library error raised."""
    try:
        fn(*args)
    except TrelliskitError as err:
        return type(err), str(err)
    return "ok", None


def g_values(t, seed, name):
    """Normal g values, nonnegative where the carrier needs it, with a
    zero on the first edge."""
    values = np.random.default_rng(seed).normal(0.0, 3.0, len(t.edges))
    if name in ("logreal", "maxprod"):
        values = np.abs(values)
    values[0] = 0.0
    return values


def same_kept(a, b):
    """Whether two ``_sweeps`` dicts hold the same kept sweeps, by identity."""
    return a.keys() == b.keys() and all(a[key] is b[key] for key in a)


@SETTINGS
@given(
    trellises(),
    st.sampled_from(SEMIRINGS),
    st.integers(0, 4),
    st.sampled_from(["forward", "backward"]),
)
def test_a_kept_sweep_serves_exactly_its_g_bits(instance, name, order, direction):
    t, seed = instance
    semiring = get_semiring(name)
    numerators = NUMERATORS[direction]
    values = g_values(t, seed, name)

    def fresh(g, m):
        """The sweep on a copy with nothing kept, as reference_sweep has it."""
        state = numerators(t.relabeled(t._lam), table(t, g), m, semiring)
        assert_same_layers(state.table._layers, reference(semiring, t, g, m, direction))
        return state.table._layers

    with mock.patch.object(moments, "_sweep", wraps=moments._sweep) as sweep:

        def call(g, m, sweeps):
            before = sweep.call_count
            state = numerators(t, table(t, g), m, semiring)
            assert sweep.call_count == before + sweeps, (m, sweeps)
            return state

        assert_bitwise(call(values, order, 1), fresh(values, order))
        # Another table with the same bits, at every order up to the kept one.
        for m in range(order + 1):
            served = call(values.copy(), m, 0)
            assert_bitwise(served, fresh(values, m))
            assert all(not block.flags.writeable for block, _ in served.table._layers)
        # Order 0 with any g.
        assert_bitwise(call(values + 1.0, 0, 0), fresh(values + 1.0, 0))
        # A higher order, one ulp on one edge, or -0.0 for 0.0: a sweep each.
        call(values, order + 1, 1)
        ulp, signed = values.copy(), values.copy()
        ulp[-1] = np.nextafter(ulp[-1], np.inf)
        signed[0] = -0.0
        for other in (ulp, signed) if order else ():
            numerators(t, table(t, values), order, semiring)
            assert_bitwise(call(other, order, 1), fresh(other, order))
    assert list(t._sweeps) == [(direction, semiring)]


@SETTINGS
@given(
    trellises(),
    st.sampled_from(SEMIRINGS),
    st.integers(0, 4),
    st.sampled_from(["forward", "backward"]),
)
def test_a_served_call_raises_as_a_sweep_does(instance, name, order, direction):
    """A bad order, or a g value the carrier cannot hold, raises the same
    error where a sweep is kept as on a copy with none, and keeps
    nothing new."""
    t, seed = instance
    semiring = get_semiring(name)
    numerators = NUMERATORS[direction]
    values = g_values(t, seed, name)
    numerators(t, table(t, values), order, semiring)
    kept = dict(t._sweeps)
    bad = [(values, m) for m in (-1, MAX_ORDER + 1, 1.0, float(order), None)]
    if name in ("logreal", "maxprod"):
        negative = values.copy()
        negative[-1] = -0.5
        bad += [(negative, 0), (negative, order)]
    for g, m in bad:
        fresh = t.relabeled(t._lam)
        want = outcome(numerators, fresh, table(t, g), m, semiring)
        assert want[0] != "ok"
        assert outcome(numerators, t, table(t, g), m, semiring) == want
        assert same_kept(t._sweeps, kept) and fresh._sweeps == {}


def test_an_invalid_trellis_raises_before_a_kept_sweep_is_read():
    """Even given another trellis's kept sweeps, an invalid trellis raises
    the error it raises with none."""
    edges = [Edge(0, 0, 1, 1.0, 1.0), Edge(1, 1, 2, 1.0, 1.0), Edge(2, 0, 3, 1.0, -1.0)]
    invalid = Trellis(2, {0: 0, 1: 1, 2: 2, 3: 1}, edges)
    g = DepthFunctionTable({0: 1.0, 1: 2.0, 2: 3.0})
    want = outcome(forward_numerators, invalid, g, 0)
    assert want[0] != "ok"
    valid = build_conv_trellis((7, 5), 1)
    forward_numerators(valid, DepthFunctionTable.constant(valid, 1.0), 2)
    invalid._sweeps = valid._sweeps
    for order in (0, 2):
        assert outcome(forward_numerators, invalid, g, order) == want


def kept_sweeps_counted(t, calls):
    """Run ``calls()`` and list its ``_sweep`` calls as (direction, order)
    over ``t``'s walk plans, which its copies share."""
    names = {id(t.plan(d)): d for d in ("forward", "backward")}
    swept = []
    real = moments._sweep

    def counted(semiring, plan, lift, orders):
        swept.append((names[id(plan)], orders[0]))
        return real(semiring, plan, lift, orders)

    with mock.patch.object(moments, "_sweep", counted):
        calls()
    return swept


def bench_word(generators, info_len, channel, seed):
    code = build_conv_trellis(generators, info_len)
    _, received = make_received(code, channel, seed=seed)
    return channel_lambda_labels(code, channel, received), received


def assert_kept_read_only(t):
    for _, _, layers in t._sweeps.values():
        for block, _ in layers:
            assert not block.flags.writeable
            with pytest.raises(ValueError):
                block[0, 0] = 1.0


@pytest.mark.parametrize("seed", [1, 2])
def test_words_bsc75_op_sweeps_twice(seed):
    """The library calls of a ``words-bsc75`` op, in its order: the
    entropy's order-2 sweep serves correlation_moments and the forward
    order-0 pair half, so the op sweeps forward at order 2 and backward
    at 0."""
    channel = Bsc(0.05)
    lab, word = bench_word((0o7, 0o5), 200, channel, seed)

    def op():
        conditional_entropy(lab, channel, word)
        correlation_moments(lab, word, 2)
        zero = DepthFunctionTable.constant(lab, 0.0)
        fwd = forward_numerators(lab, zero, 0)
        bwd = backward_numerators(lab, zero, 0)
        for d in range(1, lab.rank + 1):
            for s in (1.0, -1.0):
                symbol_moments(lab, zero, fwd, bwd, d, s)
        g = correlation_g_table(lab, word)
        fd = forward_distributions(lab, g, mode="exact")
        bd = backward_distributions(lab, g, mode="exact")
        trellis_distribution(fd, bd, lab.rank // 2)
        symbol_distribution(lab, g, fd, bd, 50, 1.0)

    assert kept_sweeps_counted(lab, op) == [("forward", 2), ("backward", 0)]
    assert sorted(lab._sweeps) == [("backward", REAL), ("forward", REAL)]
    assert lab._sweeps["forward", REAL][1] == 2
    assert_kept_read_only(lab)


@pytest.mark.parametrize("seed", [1, 2])
def test_words_awgn171_op_sweeps_four_times(seed):
    """The library calls of a ``words-awgn171`` op: the constrained
    entropy sweeps the code forward and backward at order 1 and joins
    the pair across its section; correlation_moments sweeps forward at
    order 4, and its constrained call adds the backward order-4 sweep,
    all on the labelled trellis and none on a copy.  Both quantized
    sweeps size their bins from the forward order-4 sweep and read
    their flows from the order-4 sweep of their direction, which also
    serves ``normalized_states``."""
    channel, depth = Awgn(1.0), 9
    lab, word = bench_word((0o171, 0o133), 24, channel, seed)

    def op():
        conditional_entropy(lab, channel, word, (depth, 1.0))
        correlation_moments(lab, word, 4)
        correlation_moments(lab, word, 4, (depth, -1.0))
        g = correlation_g_table(lab, word)
        moments.normalized_states(lab, g, 4, "backward")
        fd = forward_distributions(lab, g, mode="auto")
        bd = backward_distributions(lab, g, mode=fd.mode)
        assert fd.mode == "quantized"
        trellis_distribution(fd, bd, lab.rank // 2)
        symbol_distribution(lab, g, fd, bd, depth, 1.0)

    with mock.patch.object(type(lab), "relabeled", side_effect=AssertionError("a copy")):
        swept = kept_sweeps_counted(lab, op)
    assert swept == [("forward", 1), ("backward", 1), ("forward", 4), ("backward", 4)]
    assert list(lab._sweeps) == [("forward", REAL), ("backward", REAL)]
    assert lab._sweeps["forward", REAL][1] == lab._sweeps["backward", REAL][1] == 4
    assert_kept_read_only(lab)


def test_a_quantized_pair_reads_its_flows_from_kept_sweeps():
    """With an order-4 sweep kept in each direction, a quantized pair
    sizes its bins and reads its flows from them, running no moment
    sweep, and its flows are their order-0 rows, bit for bit."""
    lab, word = bench_word((0o171, 0o133), 24, Awgn(1.0), 2)
    g = correlation_g_table(lab, word)
    kept = [forward_numerators(lab, g, 4), backward_numerators(lab, g, 4)]
    pair = []

    def sweeps():
        pair.append(forward_distributions(lab, g, mode="quantized"))
        pair.append(backward_distributions(lab, g, mode="quantized"))

    assert kept_sweeps_counted(lab, sweeps) == []
    for state, rows in zip(pair, kept):
        assert [state.flows[v].hex() for v in rows.table] == [
            rows.table[v][0].hex() for v in rows.table
        ]


ENTROPY_WORDS = [
    pytest.param((0o7, 0o5), 40, Bsc(0.05), 1, 1.0, id="bsc75-K40"),
    pytest.param((0o7, 0o5), 40, Bsc(0.05), 1, 1e200, id="bsc75-K40-g1e200"),
    pytest.param((0o171, 0o133), 24, Awgn(1.0), 2, 1.0, id="awgn171-K24"),
    pytest.param((0o7, 0o5), 300, Awgn(2.0), 3, 1.0, id="awgn75-K300-rescaled"),
]


@pytest.mark.parametrize("generators, info_len, channel, seed, scale", ENTROPY_WORDS)
def test_entropy_sweeps_at_order_2_with_the_bits_of_order_1(
    generators, info_len, channel, seed, scale
):
    """The whole code's entropy sweeps at order 2 and keeps that sweep;
    its entropy, first moment and log2 flow have the bits of an order-1
    sweep on a fresh copy.  With the word scaled to about 1e200, the
    order-2 row of the sink overflows to inf or NaN while rows 0 and 1
    stay the same."""
    lab, word = bench_word(generators, info_len, channel, seed)
    word = [scale * w for w in word]
    detail = conditional_entropy_detail(lab, channel, word)
    assert lab._sweeps["forward", REAL][1] == 2
    fresh = lab.relabeled(lab._lam)
    want = moments._posterior(fresh, correlation_g_table(fresh, word), 1)
    constants = uncertainty_constants(channel, word, k1a=want.log2_flow)
    entropy = constants.k1 - constants.k2 * want.normalized[1]
    entropy = entropy if entropy > 0.0 else 0.0
    assert detail.first_moment.hex() == want.normalized[1].hex()
    assert detail.log2_flow.hex() == want.log2_flow.hex()
    assert detail.entropy_bits.hex() == entropy.hex()
    second = forward_numerators(lab, correlation_g_table(lab, word), 2).scaled(lab.sink)[0][2]
    assert np.isfinite(second) == (scale == 1.0)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_correlation_moments_after_the_entropy_sweep_only_above_order_2(order):
    """After the whole code's entropy, correlation moments up to order 2
    read its kept sweep and order 3 sweeps once; each equals a fresh
    copy's bit for bit."""
    channel = Bsc(0.05)
    lab, word = bench_word((0o7, 0o5), 40, channel, 1)
    conditional_entropy(lab, channel, word)
    got = []
    swept = kept_sweeps_counted(lab, lambda: got.extend(correlation_moments(lab, word, order)))
    assert swept == ([] if order <= 2 else [("forward", order)])
    want = correlation_moments(lab.relabeled(lab._lam), word, order)
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_symbol_probability_at_every_depth_sweeps_the_code_once():
    """Both symbols at all depths of [7,5] K=20 over a BSC word take two
    order-0 sweeps, the code's forward and backward, which every
    question joins across its section; each answer equals a fresh
    copy's bit for bit."""
    channel = Bsc(0.05)
    lab, _ = bench_word((0o7, 0o5), 20, channel, 4)
    questions = [(d, s) for d in range(1, lab.rank + 1) for s in (1.0, -1.0)]
    probabilities = []
    swept = kept_sweeps_counted(
        lab, lambda: probabilities.extend(symbol_probability(lab, d, s) for d, s in questions)
    )
    assert swept == [("forward", 0), ("backward", 0)]
    fresh = [symbol_probability(lab.relabeled(lab._lam), d, s) for d, s in questions]
    assert [p.hex() for p in probabilities] == [p.hex() for p in fresh]


def join_bits(joined):
    """A quantized ``_join`` result, (distribution, exponent), as hex."""
    dist, exponent = joined
    return dist.mean.hex(), dist.bin_width.hex(), [w.hex() for w in dist.mass], exponent


@pytest.mark.parametrize(
    "generators, info_len, channel, seed",
    [
        pytest.param((0o171, 0o133), 24, Awgn(1.0), 2, id="awgn171-K24"),
        pytest.param((0o7, 0o5), 300, Awgn(2.0), 3, id="awgn75-K300-rescaled"),
    ],
)
def test_a_pair_sized_on_two_trellises(generators, info_len, channel, seed):
    """A quantized pair sizes its bins from one order-2 forward sweep,
    which the labelled trellis keeps and the forward flows read; the
    backward flows sweep at order 0, kept too.  A backward state sized on a
    ``relabeled`` copy, which keeps no sweep, sweeps its own and gets the
    same width bits, so the pair checks and joins as the one-trellis pair
    does, bit for bit, also where the flow underflows."""
    lab, word = bench_word(generators, info_len, channel, seed)
    g = correlation_g_table(lab, word)
    pair = []

    def sized():
        pair.append(forward_distributions(lab, g, mode="quantized"))
        pair.append(backward_distributions(lab, g, mode="quantized"))

    assert kept_sweeps_counted(lab, sized) == [("forward", 2), ("backward", 0)]
    fd, bd = pair
    other = backward_distributions(lab.relabeled(lab._lam), g, mode="quantized")
    assert bd.bin_width.hex() == other.bin_width.hex() == fd.bin_width.hex()
    distributions._check_pair(fd, other)
    ends = (1, lab.rank // 2, lab.rank)
    questions = [(cut, None) for cut in (0, *ends)]
    questions += [(0, (depth, x)) for depth in ends for x in (1.0, -1.0)]
    for cut, constraint in questions:
        want = distributions._join(lab, g, fd, bd, cut, constraint)
        got = distributions._join(lab, g, fd, other, cut, constraint)
        assert join_bits(got) == join_bits(want), (cut, constraint)
