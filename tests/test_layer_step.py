"""The moment layer step on prebuilt weights against the step it replaced.

``reference_sweep`` (in conftest) builds each layer's binomial weights
anew and joins every layer with ``reduceat``.  The sweeps now build the
weights once per run of layers, orders-major, and skip the join on chain
layers; they must return equal
blocks (NaN equal to NaN) and the same exponents in every semiring, at
orders where numpy's summation order would show any change in how the
terms over j are added, on joint grids and in both directions.  Run
budgets small enough to split every sweep into many runs, and to give
single layers runs of their own, go through the same checks.  A sweep's
memory stays at O(widest section (M+1)^2).
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trelliskit import (
    Awgn,
    Bsc,
    DepthFunctionTable,
    ZeroFlowError,
    build_conv_trellis,
    channel_lambda_labels,
    correlation_g_table,
    forward_numerators,
    get_semiring,
    make_received,
    moments,
    normalized_states,
)
from trelliskit.oracles import random_trellis
from trelliskit.semirings import REAL

from conftest import reference_sweep

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

SEMIRINGS = ["boolean", "logreal", "maxprod", "real", "tropical"]
# Orders above 8 would show a pairwise (reordered) sum over j.
GRIDS = [(0,), (1,), (2,), (4,), (9,), (12,), (40,), (64,), (1, 1), (2, 3)]
# One weight per run, a few layers per run, and the library's budget.
BUDGETS = [1, 300, moments._RUN_WEIGHTS]


@st.composite
def trellises(draw):
    """A random trellis with parallel edges and some labels set to zero,
    or a short convolutional code, whose split sections are chain
    layers, with random labels."""
    seed = draw(st.integers(0, 10**6))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        t = random_trellis(
            seed, max_rank=7, max_width=3, parallel_edge_prob=0.3, extra_edge_prob=0.5
        )
    else:
        t = build_conv_trellis(draw(st.sampled_from([(7, 5), (5, 7, 7)])), 3)
    lam = rng.uniform(0.0, 2.0, len(t.edges)) * (rng.random(len(t.edges)) > 0.2)
    return t.relabeled(lam), seed


def sweep_lift(semiring, t, seed, orders, direction):
    """``_lift_rows``' rows of one sweep in ``semiring``, in walk order:
    for two orders the flattened joint grid, as the joint engine builds
    it.  g values are nonnegative where the carrier needs it."""
    plan = t.plan(direction)
    rng = np.random.default_rng(seed)
    g = rng.normal(0.0, 3.0, (len(orders), len(t.edges)))
    if semiring.name in ("logreal", "maxprod"):
        g = np.abs(g)
    lam, first = moments._edge_labels(semiring, t._lam, g[0])
    lift = moments._lift_rows(semiring, lam, first, orders[0])
    if len(orders) == 2:
        ones = np.full(len(t.edges), semiring.one)
        powers = moments._lift_rows(semiring, ones, semiring.from_real(g[1]), orders[1])
        lift = semiring.mul(lift[:, None, :], powers[None, :, :]).reshape(-1, len(t.edges))
    return plan, lift[:, plan.edges]


def assert_same_layers(got, want):
    assert len(got) == len(want)
    for k, ((block, exponent), (ref, ref_exponent)) in enumerate(zip(got, want)):
        assert block.dtype == ref.dtype, k
        assert np.array_equal(block, ref, equal_nan=True), k
        assert exponent == ref_exponent, k


@SETTINGS
@given(
    trellises(),
    st.sampled_from(SEMIRINGS),
    st.sampled_from(GRIDS),
    st.sampled_from(["forward", "backward"]),
    st.sampled_from(BUDGETS),
)
def test_sweep_equals_reference(instance, name, orders, direction, budget):
    semiring = get_semiring(name)
    t, seed = instance
    plan, lift = sweep_lift(semiring, t, seed, orders, direction)
    with mock.patch.object(moments, "_RUN_WEIGHTS", budget), np.errstate(all="ignore"):
        got = moments._sweep(semiring, plan, lift, orders)
        want = reference_sweep(semiring, plan, lift.T, orders)
    assert_same_layers(got, want)


@SETTINGS
@given(
    trellises(),
    st.sampled_from(["real", "maxprod"]),
    st.sampled_from([(0,), (1,), (2,), (4,), (1, 1)]),
    st.sampled_from(["forward", "backward"]),
)
def test_wide_sweep_rows_equal_the_one_exponent_rows(instance, name, orders, direction):
    """A sweep with an exponent per row gives the rows of the sweep with
    one per layer, bit for bit, where neither under- nor overflows: past
    the start's one-hot row, every live row 0 lies in [0.5, 1), and a row
    no path reaches is 0 with an exponent that an ldexp turns into 0."""
    semiring = get_semiring(name)
    t, seed = instance
    plan, lift = sweep_lift(semiring, t, seed, orders, direction)
    with np.errstate(all="ignore"):
        narrow = moments._sweep(semiring, plan, lift, orders)
        wide = moments._sweep(semiring, plan, lift, orders, wide=True)
    assert len(wide) == len(narrow)
    for k, ((block, exponents), (ref, exponent)) in enumerate(zip(wide, narrow)):
        assert exponents.dtype == np.int64 and exponents.shape == (len(block),), k
        flows = np.abs(block[:, 0])
        assert k == 0 or ((flows >= 0.5) & (flows < 1.0) | (flows == 0.0)).all(), k
        rows = np.ldexp(block, exponents.reshape((-1,) + (1,) * (block.ndim - 1)))
        assert np.array_equal(rows, np.ldexp(ref, exponent), equal_nan=True), k


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ZeroFlowError as err:
        return ZeroFlowError, err.vertex


@SETTINGS
@given(
    trellises(),
    st.sampled_from([order for order, *_ in GRIDS[:8]]),
    st.sampled_from(["forward", "backward"]),
    st.booleans(),
)
def test_normalized_states_equal_reference(instance, order, direction, large):
    """``normalized_states`` is a view of the real sweep the trellis keeps:
    bit for bit, each vertex's row / row[0] and ln row[0] + k ln 2, for
    the row's power of two k, or ZeroFlowError at the first vertex in walk
    order whose row 0 is 0.  With g up to 1e60, high orders overflow, and
    an edge of label 0 must add nothing rather than turn inf into NaN.
    Its accuracy is ``test_moment_sweeps``' to check."""
    t, seed = instance
    rng = np.random.default_rng(seed)
    g = 10 ** rng.uniform(-5, 60, len(t.edges)) if large else rng.normal(0, 3, len(t.edges))
    g = DepthFunctionTable(dict(zip((e.id for e in t.edges), g.tolist())))
    got = outcome(normalized_states, t, g, order, direction)
    _, kept_order, layers = t._sweeps[direction, REAL]
    assert kept_order == order
    where = t.plan(direction).where
    if got[0] != "ok":
        assert got == (ZeroFlowError, next(v for v, (k, r) in where.items() if layers[k][0][r, 0] == 0.0))
        return
    for v, (k, r) in where.items():
        block, exponent = layers[k]
        row, power = block[r], int(exponent if type(exponent) is int else exponent[r])
        with np.errstate(all="ignore"):
            ratios = (row / row[0]).tolist()
        assert [x.hex() for x in got[1].normalized[v]] == [x.hex() for x in ratios], v
        assert got[1].log_flow[v].hex() == (math.log(row[0]) + power * math.log(2.0)).hex(), v


@pytest.mark.parametrize(
    "generators, info_len, channel, orders",
    [((7, 5), 200, Bsc(0.05), (0, 1, 2)), ((0o171, 0o133), 24, Awgn(1.0), (2, 4))],
)
def test_code_sweeps_equal_reference(generators, info_len, channel, orders):
    """The sweeps of the benchmark's codes, over 16 seeded words."""
    code = build_conv_trellis(generators, info_len)
    for seed in range(16):
        _, word = make_received(code, channel, seed=seed)
        lab = channel_lambda_labels(code, channel, word)
        gval = correlation_g_table(lab, word).values_for(lab)
        for direction in ("forward", "backward"):
            plan = lab.plan(direction)
            for order in orders:
                lift = moments._lift_rows(REAL, lab._lam, gval, order)[:, plan.edges]
                with np.errstate(all="ignore"):
                    assert_same_layers(
                        moments._sweep(REAL, plan, lift, (order,)),
                        reference_sweep(REAL, plan, lift.T, (order,)),
                    )


def test_order_64_sweep_memory_stays_per_section():
    """The weights of one run of layers, not of the whole sweep: an order-64
    forward sweep of the 64-state [171,133] code, K=24, peaks within twice
    the 13.4 MB that the step with per-layer weights took under numpy 2.4
    (with the weights of the whole sweep at once it peaks at about 180 MB)."""
    code = build_conv_trellis((0o171, 0o133), 24)
    _, word = make_received(code, Awgn(1.0), seed=2)
    lab = channel_lambda_labels(code, Awgn(1.0), word)
    g = correlation_g_table(lab, word)
    forward_numerators(lab, g, 1)  # the walk plan, built once per trellis
    tracemalloc.start()
    try:
        forward_numerators(lab, g, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 13.4e6, peak
