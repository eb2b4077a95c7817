"""``symbol_moments`` from one join over every symbol group against the
per-group join it replaced.

``reference_symbol_moments`` is the join ``symbol_moments`` ran before:
alpha, lambda g^b and beta of one (depth, c-label) group's edges, every
split a + b + c = m, summed by one ``reduceat`` over the group's
(split, edge) terms.  The all-group join lays each (group, m) out the
same way, so every answer must be bit-identical to it, numerators and
normalized moments, in every semiring, order and state pair.  The join
is kept on the forward state for one backward state, label array,
topology and g table; any other must miss it.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trelliskit import (
    Awgn,
    Bsc,
    DepthFunctionTable,
    SemiringError,
    backward_numerators,
    build_conv_trellis,
    build_spc_trellis,
    channel_lambda_labels,
    correlation_g_table,
    dumps_trellis,
    forward_numerators,
    get_semiring,
    loads_trellis,
    make_received,
    moments,
    symbol_moments,
)
from trelliskit.moments import SymbolMoments, _edge_labels, _lift_rows, _normalize
from trelliskit.oracles import random_trellis
from trelliskit.semirings import _PASCAL

from test_layer_step import trellises

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

SEMIRINGS = ["boolean", "logreal", "maxprod", "real", "tropical"]


def multinomial_index(max_order, edges):
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
    return a[:, None], b, c[:, None], table[:, 3:], np.array(starts)


def reference_symbol_moments(trellis, g, forward, backward, depth, symbol):
    """The per-group join: checks, then one multinomial sum over the
    section-``depth`` edges with c-label ``symbol``."""
    if forward.direction != "forward" or backward.direction != "backward":
        raise SemiringError("symbol_moments needs one forward and one backward state")
    if forward.semiring.name != backward.semiring.name:
        raise SemiringError("forward and backward states use different semirings")
    if not 1 <= depth <= trellis.rank:
        raise SemiringError(f"section depth {depth} outside 1..{trellis.rank}")
    moments._require_swept_over(trellis, forward.table, backward.table)
    semiring = forward.semiring
    max_order = min(forward.max_order, backward.max_order)
    groups = trellis.symbol_groups()
    members = groups.find(depth, symbol)
    if members is None:
        numerators = scaled = (semiring.zero,) * (max_order + 1)
    else:
        positions = groups.positions[members]
        a, b, c, coefficients, starts = multinomial_index(max_order, len(positions))
        with np.errstate(all="ignore"):
            lam, gval = _edge_labels(
                semiring, trellis._lam[positions], g.values_for(trellis)[positions]
            )
            lift = _lift_rows(semiring, lam, gval, max_order)
            if max_order:
                lift = semiring.scale(coefficients, lift.take(b, axis=0))
            alpha, alpha_exponent = forward.table._layers[depth - 1]
            beta, beta_exponent = backward.table._layers[trellis.rank - depth]
            alpha = alpha[groups.init_rows[members], a]
            beta = beta[groups.fin_rows[members], c]
            terms = semiring.mul(semiring.mul(alpha, lift), beta)
            scaled = semiring.add.reduceat(terms.ravel(), starts).tolist()
            numerators = tuple(moments._unscaled(scaled, alpha_exponent + beta_exponent))
    return SymbolMoments(
        depth, symbol, numerators, _normalize(semiring, scaled), semiring.name
    )


def bitwise(values):
    """A row's values, floats as their exact hex (NaN equal to NaN)."""
    if values is None:
        return None
    return [(type(x), float(x).hex()) for x in values]


def assert_identical(got, want, where):
    assert (got.depth, got.symbol, got.semiring) == (want.depth, want.symbol, want.semiring)
    assert bitwise(got.numerators) == bitwise(want.numerators), where
    assert bitwise(got.normalized) == bitwise(want.normalized), where


def assert_all_match(trellis, g, forward, backward):
    """Every (depth, c-label) query, and one c-label no edge carries,
    bit for bit against the per-group join."""
    for depth in range(1, trellis.rank + 1):
        for symbol in sorted({e.clabel for e in trellis.edges_at(depth)} | {7.0}):
            got = symbol_moments(trellis, g, forward, backward, depth, symbol)
            want = reference_symbol_moments(trellis, g, forward, backward, depth, symbol)
            assert_identical(got, want, (depth, symbol))


def carrier_g(trellis, seed, name):
    """Normal g values; nonnegative where the carrier needs it."""
    g = np.random.default_rng(seed).normal(0.0, 1.0, len(trellis.edges))
    if name in ("logreal", "maxprod"):
        g = np.abs(g)
    return DepthFunctionTable.from_values(trellis, g)


@st.composite
def instances(draw):
    """A random trellis with parallel edges and some labels set to zero,
    and a seed for its g values."""
    seed = draw(st.integers(0, 10**6))
    t = random_trellis(
        seed, max_rank=7, max_width=3, parallel_edge_prob=0.3, extra_edge_prob=0.5
    )
    rng = np.random.default_rng(seed)
    return t.relabeled(t._lam * (rng.random(len(t.edges)) > 0.25)), seed


@SETTINGS
@given(
    instances(),
    st.sampled_from(SEMIRINGS),
    st.integers(0, 4),
    st.integers(0, 1),
)
def test_every_query_matches_the_per_group_join(instance, name, order, extra):
    t, seed = instance
    semiring = get_semiring(name)
    g = carrier_g(t, seed, name)
    forward = forward_numerators(t, g, order, semiring)
    # A backward state of a higher order: the join runs to the lower one.
    backward = backward_numerators(t, g, order + extra, semiring)
    assert_all_match(t, g, forward, backward)


def bench_words(generators, info_len, channel, seeds):
    code = build_conv_trellis(generators, info_len)
    for seed in seeds:
        _, received = make_received(code, channel, seed=seed)
        labeled = channel_lambda_labels(code, channel, received)
        yield labeled, correlation_g_table(labeled, received)


@pytest.mark.parametrize("name", SEMIRINGS)
@pytest.mark.parametrize(
    "words",
    [
        pytest.param(((0o7, 0o5), 200, Bsc(0.05)), id="words-bsc75"),
        pytest.param(((0o171, 0o133), 24, Awgn(1.0)), id="words-awgn171"),
    ],
)
def test_benchmark_words_match_the_per_group_join(words, name):
    """Four seeded words of each benchmark code, every order 0-4 on one
    of them and order 4 on two, with the word's correlation g (|g| where
    the carrier needs it)."""
    semiring = get_semiring(name)
    orders = ((0,), (1, 4), (2,), (3, 4))
    for word_orders, (labeled, g) in zip(orders, bench_words(*words, seeds=(1, 2, 3, 4))):
        if name in ("logreal", "maxprod"):
            g = DepthFunctionTable.from_values(labeled, np.abs(g.values_for(labeled)))
        for order in word_orders:
            forward = forward_numerators(labeled, g, order, semiring)
            backward = backward_numerators(labeled, g, order, semiring)
            assert_all_match(labeled, g, forward, backward)


@pytest.fixture
def code():
    """A [7,5] K=6 code over a BSC word, its c-label g and a second g."""
    code = build_conv_trellis((0o7, 0o5), 6)
    _, received = make_received(code, Bsc(0.1), seed=7)
    labeled = channel_lambda_labels(code, Bsc(0.1), received)
    g = DepthFunctionTable.from_clabels(labeled)
    other = DepthFunctionTable.from_values(labeled, np.arange(len(labeled.edges)) / 7.0)
    return labeled, g, other


def test_memo_misses_on_any_other_pair_labels_topology_or_g(code):
    t, g, other = code
    forward = forward_numerators(t, g, 2)
    backward = backward_numerators(t, g, 2)
    assert_all_match(t, g, forward, backward)
    assert forward._joined is not None
    # Another backward state: of other g, or of a relabeled copy.
    copy = t.relabeled(t._lam * np.linspace(0.5, 1.5, len(t.edges)))
    for bwd in (backward_numerators(t, other, 2), backward_numerators(copy, g, 2)):
        assert_all_match(t, g, forward, bwd)
    # The same pair over a copy with other labels, a reloaded trellis and
    # another g table.
    reloaded = loads_trellis(dumps_trellis(copy))
    assert reloaded.edge_arrays is not t.edge_arrays
    for trellis, table in ((copy, g), (reloaded, g), (t, other), (copy, other)):
        assert_all_match(trellis, table, forward, backward)
        assert_all_match(t, g, forward, backward)


def test_one_join_serves_every_query_of_a_pair(code):
    t, g, _ = code
    forward = forward_numerators(t, g, 0)
    backward = backward_numerators(t, g, 0)
    with mock.patch.object(moments, "_symbol_join", wraps=moments._symbol_join) as join:
        for depth in range(1, t.rank + 1):
            for symbol in (1.0, -1.0):
                symbol_moments(t, g, forward, backward, depth, symbol)
        assert join.call_count == 1
        # A fresh pair joins once more.
        symbol_moments(t, g, forward_numerators(t, g, 0), backward, 1, 1.0)
        assert join.call_count == 2


def test_served_states_still_compare_equal(code):
    t, g, _ = code
    forward, twin = forward_numerators(t, g, 2), forward_numerators(t, g, 2)
    backward = backward_numerators(t, g, 2)
    symbol_moments(t, g, forward, backward, 3, 1.0)
    assert forward._joined is not None and twin._joined is None
    assert forward == twin
    assert "_joined" not in repr(forward)


def test_checks_run_on_a_memo_hit(code):
    t, g, _ = code
    forward = forward_numerators(t, g, 1)
    backward = backward_numerators(t, g, 1)
    symbol_moments(t, g, forward, backward, 1, 1.0)
    for depth in (0, t.rank + 1):
        with pytest.raises(SemiringError, match="outside"):
            symbol_moments(t, g, forward, backward, depth, 1.0)
    with pytest.raises(SemiringError, match="one forward and one backward"):
        symbol_moments(t, g, forward, forward, 1, 1.0)
    other = build_spc_trellis(t.rank)
    with pytest.raises(SemiringError, match="not swept over this trellis"):
        symbol_moments(other, g, forward, backward, 1, 1.0)


def test_a_bad_value_outside_the_group_leaves_the_group_answered(code):
    """A carrier that rejects one edge's g raises only for that edge's
    group, with its message; every other group is answered alone."""
    t, _, other = code
    values = other.values_for(t).copy()
    bad = int(np.flatnonzero(t.edge_arrays.section == 2)[0])
    values[bad] = -0.25
    g_bad = DepthFunctionTable.from_values(t, values)
    g = other
    semiring = get_semiring("maxprod")
    forward = forward_numerators(t, g, 2, semiring)
    backward = backward_numerators(t, g, 2, semiring)
    clabel = float(t.edge_arrays.clabel[bad])
    with pytest.raises(SemiringError, match="negative value -0.25"):
        symbol_moments(t, g_bad, forward, backward, 3, clabel)
    assert forward._joined is None
    for depth in range(1, t.rank + 1):
        for symbol in (1.0, -1.0):
            if (depth, symbol) != (3, clabel):
                got = symbol_moments(t, g_bad, forward, backward, depth, symbol)
                want = reference_symbol_moments(t, g_bad, forward, backward, depth, symbol)
                assert_identical(got, want, (depth, symbol))
                assert math.isfinite(got.numerators[0])


@pytest.mark.parametrize("name", ["real", "maxprod"])
def test_long_code_rows_unscale_by_each_groups_exponent(name):
    """[7,5] K=300 over AWGN sigma2=2.0, seed 3, whose flow falls to about
    2^-1400: the sweeps rescale, so the groups' exponents differ, and the
    rows of the one join must unscale each by its own, bit for bit."""
    code = build_conv_trellis((0o7, 0o5), 300)
    _, received = make_received(code, Awgn(2.0), seed=3)
    labeled = channel_lambda_labels(code, Awgn(2.0), received)
    semiring = get_semiring(name)
    values = correlation_g_table(labeled, received).values_for(labeled)
    g = DepthFunctionTable.from_values(labeled, np.abs(values))
    forward = forward_numerators(labeled, g, 2, semiring)
    backward = backward_numerators(labeled, g, 2, semiring)
    exponents = {exponent for _, exponent in forward.table._layers}
    assert len(exponents) > 2 and min(exponents) < -1000
    assert_all_match(labeled, g, forward, backward)


@SETTINGS
@given(trellises(), st.sampled_from(SEMIRINGS), st.integers(0, 3))
def test_served_answers_equal_the_per_group_join(instance, name, order):
    """After the first call prepares the join, every (depth, +-1) answer
    is served from it, bit for bit the per-group join's (by ``float.hex``,
    under which NaN equals NaN)."""
    t, seed = instance
    semiring = get_semiring(name)
    g = carrier_g(t, seed, name)
    forward = forward_numerators(t, g, order, semiring)
    backward = backward_numerators(t, g, order, semiring)
    with mock.patch.object(moments, "_symbol_join", wraps=moments._symbol_join) as join:
        for depth in range(1, t.rank + 1):
            for symbol in (1.0, -1.0):
                got = symbol_moments(t, g, forward, backward, depth, symbol)
                want = reference_symbol_moments(t, g, forward, backward, depth, symbol)
                assert_identical(got, want, (depth, symbol))
        assert join.call_count == 1 and forward._joined is not None


@pytest.mark.parametrize("name", SEMIRINGS)
def test_served_zero_flow_missing_and_fallback_groups(code, name):
    """Served from a prepared join: a group whose edges all carry lambda
    0, with normalized None where the semiring normalizes, and a c-label
    no edge carries, with zeros and None.  Where the carrier rejects one
    edge's g, every other group is still answered, each alone."""
    t, _, g = code
    a = t.edge_arrays
    dead = t.relabeled(np.where((a.section == 2) & (a.clabel == 1.0), 0.0, t._lam))
    semiring = get_semiring(name)
    forward = forward_numerators(dead, g, 2, semiring)
    backward = backward_numerators(dead, g, 2, semiring)
    symbol_moments(dead, g, forward, backward, 1, 1.0)
    assert forward._joined is not None
    for symbol in (1.0, 7.0):
        got = symbol_moments(dead, g, forward, backward, 3, symbol)
        want = reference_symbol_moments(dead, g, forward, backward, 3, symbol)
        assert_identical(got, want, symbol)
        assert got.normalized is None
    assert symbol_moments(dead, g, forward, backward, 3, 7.0).numerators == (semiring.zero,) * 3
    if name in ("logreal", "maxprod"):
        values = g.values_for(t).copy()
        values[int(np.flatnonzero(a.section == 4)[0])] = -0.25
        g_bad = DepthFunctionTable.from_values(t, values)
        forward = forward_numerators(t, g, 2, semiring)
        backward = backward_numerators(t, g, 2, semiring)
        for depth in range(1, t.rank + 1):
            for symbol in (1.0, -1.0):
                try:
                    got = symbol_moments(t, g_bad, forward, backward, depth, symbol)
                except SemiringError:
                    assert depth == 5
                    continue
                want = reference_symbol_moments(t, g_bad, forward, backward, depth, symbol)
                assert_identical(got, want, (depth, symbol))
        assert forward._joined is None
