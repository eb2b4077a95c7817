"""The coding layer's posterior path, on long codes and as properties.

``moments._posterior`` answers every (sub)code question of the coding
layer: the code's from the forward sweep's sink row, a subcode's from
the forward and backward sweeps joined across its constrained section.
The sweeps rescale a layer by a power of two when the flow leaves a safe
range, so the normalized moments and log2 of the flow stay finite on
codes long enough for the flow itself to underflow a float (n >= 600
below).
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trelliskit import (
    Awgn,
    Bsc,
    DepthFunctionTable,
    ZeroFlowError,
    backward_numerators,
    build_conv_trellis,
    channel_lambda_labels,
    conditional_entropy,
    correlation_g_table,
    forward_numerators,
    joint_forward_numerators,
    joint_trellis_moments,
    make_received,
    normalized_states,
    symbol_moments,
    symbol_probability,
    trellis_moments,
    write_trellis,
)
from trelliskit.cli import main
from trelliskit.moments import _posterior
from trelliskit.oracles import random_trellis

PROPERTY_SETTINGS = settings(
    max_examples=150, deadline=None, derandomize=True, database=None
)


# -- long codes ---------------------------------------------------------------


@pytest.fixture(scope="module")
def code300():
    return build_conv_trellis((7, 5), 300)


@pytest.fixture(scope="module")
def code1200():
    return build_conv_trellis((7, 5), 1200)


@pytest.fixture(scope="module")
def long_cases(code300, code1200):
    """(info length, channel, received word, labeled trellis) of each
    long instance: [7,5] K=300 over AWGN sigma2=2.0 with seeds 0..2, and
    K=1200 over a BSC with p=0.35."""
    cases = [(300, code300, Awgn(2.0), seed) for seed in range(3)]
    cases.append((1200, code1200, Bsc(0.35), 0))
    out = []
    for info_len, code, channel, seed in cases:
        _, received = make_received(code, channel, seed)
        labeled = channel_lambda_labels(code, channel, received)
        out.append((info_len, channel, received, labeled))
    return out


def test_long_code_flow_underflows_a_float(long_cases):
    """The plain sweep's flow is 0 on every long instance: the cases
    below would raise ZeroFlowError without the scaled sweep."""
    for *_, labeled in long_cases:
        g = DepthFunctionTable.constant(labeled, 0.0)
        assert forward_numerators(labeled, g, 0).table[labeled.sink] == [0.0]


def test_long_code_entropies_are_finite_and_bounded(long_cases):
    for info_len, channel, received, labeled in long_cases:
        plain = conditional_entropy(labeled, channel, received)
        assert math.isfinite(plain) and 0.0 <= plain <= info_len
        for depth in (10, labeled.rank // 2):
            for symbol in (1.0, -1.0):
                h = conditional_entropy(labeled, channel, received, (depth, symbol))
                assert math.isfinite(h) and 0.0 <= h <= info_len, (depth, symbol, h)


def test_long_code_symbol_probabilities_sum_to_one(long_cases):
    for *_, labeled in long_cases:
        for depth in (1, 10, labeled.rank // 2, labeled.rank):
            plus = symbol_probability(labeled, depth, 1.0)
            minus = symbol_probability(labeled, depth, -1.0)
            assert 0.0 <= plus <= 1.0 and 0.0 <= minus <= 1.0
            assert abs(plus + minus - 1.0) <= 1e-12, (depth, plus, minus)


def test_long_code_log2_flow_matches_normalized_states(long_cases):
    for _, _, received, labeled in long_cases:
        g = correlation_g_table(labeled, received)
        got = _posterior(labeled, g, 2)
        want = normalized_states(labeled, g, 2)
        log2_flow = want.log_flow[labeled.sink] / math.log(2.0)
        assert log2_flow < -1000.0  # far below the smallest float's 2^-1074
        assert abs(got.log2_flow - log2_flow) <= 1e-9 * abs(log2_flow)
        for a, b in zip(got.normalized, want.normalized[labeled.sink]):
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b)), (a, b)


def test_long_code_joint_moments_normalize_the_scaled_grid(code300):
    """With g_y = g_z the joint grid at (k, m) is the order-(k+m) moment,
    so it matches the order-2 sweep's normalized moments although every
    raw numerator underflows to 0."""
    _, received = make_received(code300, Awgn(2.0), 3)
    labeled = channel_lambda_labels(code300, Awgn(2.0), received)
    g = correlation_g_table(labeled, received)
    numerators, grid = joint_trellis_moments(
        joint_forward_numerators(labeled, g, g, 1, 1)
    )
    assert numerators == ((0.0, 0.0), (0.0, 0.0))
    want = trellis_moments(forward_numerators(labeled, g, 2)).normalized
    assert grid is not None and grid[0][0] == 1.0
    for k, m in ((0, 1), (1, 0), (1, 1)):
        assert abs(grid[k][m] - want[k + m]) <= 1e-12 * abs(want[k + m]), (k, m)


@pytest.mark.parametrize(
    "symbol", [[], ["--symbol-depth", "10", "--symbol-value", "1"]]
)
def test_long_code_cli_moments_prints_normalized(
    code300, tmp_path, capsys, symbol
):
    _, received = make_received(code300, Awgn(2.0), 3)
    path = tmp_path / "labeled.trellis"
    write_trellis(path, channel_lambda_labels(code300, Awgn(2.0), received))
    argv = ["moments", "--trellis", str(path), "--g", "clabel", "--max-order", "2"]
    assert main([*argv, *symbol]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["numerators"][0] == 0.0  # the raw flow still underflows
    normalized = payload["normalized"]
    assert normalized is not None and normalized[0] == 1.0
    assert all(math.isfinite(x) for x in normalized)


# -- properties ---------------------------------------------------------------


@st.composite
def labeled_instances(draw):
    """A random trellis with labels in (0, 1], some of them 0, normal g
    values, an order and an optional (depth, c-label) constraint."""
    seed = draw(st.integers(0, 10**6))
    t = random_trellis(
        seed, max_rank=7, max_width=3, parallel_edge_prob=0.3, extra_edge_prob=0.5
    )
    zero = draw(
        st.sets(st.sampled_from([e.id for e in t.edges]), max_size=len(t.edges) // 4)
    )
    t = t.relabeled(lambda e: 0.0 if e.id in zero else e.lam)
    rng = np.random.default_rng(seed)
    g = DepthFunctionTable({e.id: float(rng.normal()) for e in t.edges})
    order = draw(st.integers(0, 4))
    constraint = draw(
        st.none() | st.tuples(st.integers(1, t.rank), st.sampled_from([1.0, -1.0]))
    )
    return t, g, order, constraint


def outcome(t, g, order, constraint):
    try:
        return _posterior(t, g, order, constraint)
    except ZeroFlowError:
        return None


@PROPERTY_SETTINGS
@given(labeled_instances(), st.data())
def test_section_scaling_only_shifts_the_exponent(instance, data):
    """Multiplying the labels of section d by 2^-s_d (|s_d| <= 300, past
    the float range over a few sections either way) multiplies every
    path label by 2^-sum(s_d): the normalized moments stay bit for bit
    the same and log2 of the flow moves by -sum(s_d)."""
    t, g, order, constraint = instance
    shifts = data.draw(
        st.lists(st.integers(-300, 300), min_size=t.rank, max_size=t.rank)
    )
    section = t.edge_arrays.section
    scaled = t.relabeled(np.ldexp(t._lam, -np.asarray(shifts)[section]))
    want, got = outcome(t, g, order, constraint), outcome(scaled, g, order, constraint)
    assert (want is None) == (got is None)
    if want is None:
        return
    assert [x.hex() for x in got.normalized] == [x.hex() for x in want.normalized]
    (got_mantissa, got_exp), (want_mantissa, want_exp) = (
        math.frexp(got.flow),
        math.frexp(want.flow),
    )
    assert got_mantissa == want_mantissa
    assert got_exp + got.exponent == want_exp + want.exponent - sum(shifts)
    assert abs(got.log2_flow - (want.log2_flow - sum(shifts))) <= 1e-9 * max(
        1.0, abs(got.log2_flow)
    )


@PROPERTY_SETTINGS
@given(labeled_instances())
def test_constrained_posterior_matches_symbol_moments(instance):
    """The constrained posterior, its one group's join of the kept pair,
    gives the moments that ``symbol_moments``' join of every section
    gives, to rounding; the scale of each order is the join over |g|,
    which bounds the terms that cancel."""
    t, g, order, constraint = instance
    depth, symbol = constraint or (1, 1.0)
    g_abs = DepthFunctionTable({k: abs(v) for k, v in g.items()})
    want, scale = (
        symbol_moments(
            t,
            table,
            forward_numerators(t, table, order),
            backward_numerators(t, table, order),
            depth,
            symbol,
        )
        for table in (g, g_abs)
    )
    got = outcome(t, g, order, (depth, symbol))
    if want.normalized is None:
        assert got is None
        return
    flow = math.ldexp(got.flow, got.exponent)
    assert abs(flow - want.numerators[0]) <= 1e-12 * want.numerators[0]
    for m, (a, b) in enumerate(zip(got.normalized, want.normalized)):
        floor = max(1.0, abs(scale.normalized[m]), abs(a), abs(b))
        assert abs(a - b) <= 1e-12 * floor, (m, a, b)
