"""Sweeps whose layers' flows span more than a double holds.

A real or max-product sweep keeps one power of two per layer, so a flow
more than a double's range below its layer's largest reads 0.0.  The
readers of every row (``normalized_states``, the quantized distribution
sweeps and ``symbol_moments``) test the rows once; where one falls below
``moments._FLOOR``, or reads 0 where every flow must be positive, the
sweep runs again with a power of two per row, and the trellis keeps it.
Three cases that one exponent per layer got wrong: a 6-vertex trellis
with labels 1e300 and 1e-300, two 120-section chains that never merge
(labels 1 and 1e-10, where no rescale fires), and [7,5] K=40 over AWGN
sigma2=0.01, seed 2, where dozens of rows underflowed.  A reader of one
terminal row tests the rows only where that row's flow reads 0 or
below ``moments._FLOOR``.  Constrained questions, the join of the kept
pair across one section, are checked at high SNR against references
that do not use the pair: a 60-digit brute force over the codewords of
[7,5] K=8, and a log-domain sweep of a copy whose other edges at the
constrained section have lambda 0.
"""

import math
from unittest import mock

import numpy as np
import pytest

from trelliskit import (
    Awgn,
    DepthFunctionTable,
    ZeroFlowError,
    Edge,
    Trellis,
    backward_distributions,
    backward_numerators,
    build_conv_trellis,
    channel_lambda_labels,
    conditional_entropy_detail,
    correlation_g_table,
    correlation_moments,
    forward_distributions,
    forward_numerators,
    make_received,
    normalized_states,
    symbol_moments,
    trellis_distribution,
    trellis_moments,
)
from trelliskit import moments
from trelliskit.semirings import LOGREAL

NUMERATORS = {"forward": forward_numerators, "backward": backward_numerators}


def six_vertices() -> Trellis:
    """The source to A with lambda 1e300 and to B with 1e-300, each a
    chain of two edges to the sink."""
    edges = [
        Edge(0, 0, 1, 1e300), Edge(1, 0, 2, 1e-300), Edge(2, 1, 3, 1.0),
        Edge(3, 2, 4, 1.0), Edge(4, 3, 5, 1.0), Edge(5, 4, 5, 1.0),
    ]
    return Trellis(3, {0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3}, edges)


def unmerged_chains(sections: int = 120) -> Trellis:
    """Two chains from the source (0) to the sink (1) that meet only
    there: chain A's labels are 1, chain B's 1e-10, and A's vertex is
    row 0 of each layer."""
    depths, edges = {0: 0, 1: sections}, []
    for lam in (1.0, 1e-10):
        prev = 0
        for depth in range(1, sections):
            v = len(depths)
            depths[v] = depth
            edges.append(Edge(len(edges), prev, v, lam))
            prev = v
        edges.append(Edge(len(edges), prev, 1, lam))
    return Trellis(sections, depths, edges)


def test_one_exponent_per_layer_loses_the_small_flows():
    """What the readers mend: a plain sweep keeps one exponent per layer,
    and B's flows read 0.0 on both trellises; on the chains no rescale
    fires at all."""
    six = six_vertices()
    rows = forward_numerators(six, DepthFunctionTable.constant(six, 1.0), 0)
    assert rows.scaled(2) == ([0.0], 997)
    chains = unmerged_chains()
    rows = forward_numerators(chains, DepthFunctionTable.constant(chains, 1.0), 0)
    assert all(exponent == 0 for _, exponent in rows.table._layers)
    assert rows.scaled(len(chains.vertices) - 1) == ([0.0], 0)


def test_a_terminal_row_that_underflowed_is_held():
    """With chain A's last label 0, the sink's flow is chain B's alone,
    1e-1200, which one exponent per layer reads as 0.0 with no rescale.
    The readers of the terminal row test the rows, as every other
    reader does: the moments and the flow come from the wide sweep."""
    t = unmerged_chains()  # chain A's edges are 0..rank - 1
    t = t.relabeled(np.where(t.edge_arrays.ids == t.rank - 1, 0.0, t._lam))
    g = DepthFunctionTable.constant(t, 1.0)
    log_flow = t.rank * math.log(1e-10)
    state = normalized_states(t.relabeled(t._lam), g, 1)
    assert state.log_flow[t.sink] == pytest.approx(log_flow, rel=1e-12)
    assert state.normalized[t.sink] == pytest.approx((1.0, 120.0), rel=1e-12)
    for direction in ("forward", "backward"):
        moments_ = trellis_moments(NUMERATORS[direction](t.relabeled(t._lam), g, 1))
        assert moments_.numerators == (0.0, 0.0)  # the raw flow underflows
        assert moments_.normalized == pytest.approx((1.0, 120.0), rel=1e-12)
    got = moments._posterior(t, g, 1)
    assert got.log2_flow == pytest.approx(log_flow / math.log(2.0), rel=1e-12)
    assert got.normalized == pytest.approx((1.0, 120.0), rel=1e-12)
    with pytest.raises(ZeroFlowError, match="total flow"):
        moments._posterior(t.relabeled(np.zeros(len(t.edges))), g, 1)


def test_a_terminal_row_that_holds_its_flow_is_read_alone(k40):
    """Where the terminal row's flow is held, its readers test no row:
    on the K=40 word the whole code's flow is far above the floor, while
    dozens of other rows read 0.0."""
    _, word, lab = k40
    lab = lab.relabeled(lab._lam)
    g = correlation_g_table(lab, word)
    with mock.patch.object(moments, "_held", wraps=moments._held) as held:
        trellis_moments(forward_numerators(lab, g, 1))
        trellis_moments(backward_numerators(lab, g, 1))
        moments._posterior(lab, g, 1)
    assert held.call_count == 0


@pytest.mark.parametrize("make", [six_vertices, unmerged_chains])
def test_readers_keep_every_flow(make):
    """Both normalized states have finite log flows, true to the labels;
    the kept sweeps then hand out positive order-0 rows; a quantized pair
    sweeps, and every cut of it holds the flow."""
    t = make()
    g = DepthFunctionTable.constant(t, 1.0)
    flow = 1e300 if make is six_vertices else 1.0
    for direction in ("forward", "backward"):
        state = normalized_states(t, g, 2, direction)
        assert all(math.isfinite(state.log_flow[v]) for v in state.log_flow)
        terminal = t.sink if direction == "forward" else t.source
        assert state.log_flow[terminal] == pytest.approx(math.log(flow), rel=1e-12)
        rows = NUMERATORS[direction](t, g, 0)
        assert all(rows.scaled(v)[0][0] > 0.0 for v in rows.table)
    if make is unmerged_chains:  # B's vertex at depth d has flow 1e-10^d
        forward = normalized_states(t, g, 2)
        for v in t.layers[t.rank - 1]:
            want = (t.rank - 1) * math.log(1.0 if v == t.rank else 1e-10)
            assert forward.log_flow[v] == pytest.approx(want, rel=1e-12, abs=1e-12)
    fd = forward_distributions(t, g, "quantized")
    bd = backward_distributions(t, g, "quantized")
    for cut in range(t.rank + 1):
        assert trellis_distribution(fd, bd, cut).total() == pytest.approx(flow, rel=1e-12)


# Log flows of normalized_states on the K=40 word, as the log-domain
# recursion it replaced gave them, at every 24th vertex in walk order.
K40_LOG_FLOWS = {
    "forward": {
        0: 0.0, 10: -578.9612659873222, 18: -571.8451705623302, 26: -382.1284497169935,
        34: -591.6431298787737, 42: 18.989281722536937, 50: 23.02108899839705,
        58: -506.10121083362026, 66: -525.4978718539434, 74: -582.0804186949878,
        82: -347.4588496537468, 90: -325.29719178754925, 98: -614.2417042312853,
        106: -509.71072489065, 114: 47.85738703068851, 122: -559.5872672215971,
        130: 57.80087531221672, 138: 61.92024498945138, 146: -353.94590857292474,
        154: -518.4215247607891, 161: 76.99208200523735,
    },
    "backward": {
        161: 0.0, 154: -540.9410593346727, 146: -570.5512296745685, 138: 15.071837015785949,
        130: 19.191206693020618, 122: -565.5672604598604, 114: 29.13469497454884,
        106: -391.62453475620276, 98: -333.6863453074107, 90: -568.5347855461494,
        82: -520.7540622720821, 74: -552.2096516431199, 66: -369.746692873763,
        58: -299.1984276918256, 50: 53.97099300684028, 42: 58.0028002827004,
        34: -516.1093296042603, 26: -543.523794931395, 18: -519.7387809391655,
        10: -432.527982496171, 0: 76.99208200523735,
    },
}


@pytest.fixture(scope="module")
def k40():
    """[7,5] K=40 over AWGN sigma2=0.01, seed 2: the codeword, the word
    and its labelled trellis."""
    code = build_conv_trellis((7, 5), 40)
    codeword, word = make_received(code, Awgn(0.01), seed=2)
    return codeword, word, channel_lambda_labels(code, Awgn(0.01), word)


def test_k40_rows_underflow_under_one_exponent_per_layer(k40):
    _, word, lab = k40
    g = correlation_g_table(lab, word)
    zeros = [
        sum(state.scaled(v)[0][0] == 0.0 for v in state.table)
        for state in (forward_numerators(lab, g, 0), backward_numerators(lab, g, 0))
    ]
    assert zeros == [39, 49]


def logreal_reference(lab, word, depth, symbol):
    """(log2 flow, first moment of c.w) of the subcode with c-label
    ``symbol`` at ``depth``, from a LOGREAL order-1 forward sweep of a
    copy whose other section-``depth`` edges have lambda 0; the log
    domain needs g >= 0, so the sweep reads c_i w_i + |w_i|, and the
    moment drops the sum of |w_i| again."""
    a = lab.edge_arrays
    size = np.abs(np.asarray(word, dtype=float))
    g = DepthFunctionTable.from_values(lab, a.clabel * np.asarray(word)[a.section] + size[a.section])
    other = (a.section == depth - 1) & (a.clabel != symbol)
    copy = lab.relabeled(np.where(other, 0.0, lab._lam))
    got = trellis_moments(forward_numerators(copy, g, 1, LOGREAL))
    return got.numerators[0] / math.log(2.0), got.normalized[1] - float(size.sum())


def test_k40_every_symbol_group_is_normalized(k40):
    """All 168 groups have normalized moments, and the wrong symbol's at
    depth 10 match the log-domain sweep of its subcode."""
    codeword, word, lab = k40
    lab = lab.relabeled(lab._lam)
    g = correlation_g_table(lab, word)
    forward, backward = forward_numerators(lab, g, 1), backward_numerators(lab, g, 1)
    groups = [(d, s) for d in range(1, lab.rank + 1) for s in (1.0, -1.0)]
    assert len(groups) == 168
    for d, s in groups:
        assert symbol_moments(lab, g, forward, backward, d, s).normalized is not None, (d, s)
    wrong = -codeword[9]
    got = symbol_moments(lab, g, forward, backward, 10, wrong).normalized[1]
    want = logreal_reference(lab, word, 10, wrong)[1]
    assert abs(got - want) <= 1e-9 * abs(want)


def test_k40_constrained_questions_match_the_log_domain_copy(k40):
    """Every (depth, symbol) of the K=40 word: the first correlation
    moment within 1e-9 of the log-domain sweep of its subcode, and log2
    of the flow within 1e-12.  The pair's join at one exponent per layer
    lost paths here: (82, -1) read 71.07 for 73.62, and (84, -1) raised
    ZeroFlowError."""
    _, word, lab = k40
    lab = lab.relabeled(lab._lam)
    g = correlation_g_table(lab, word)
    for d in range(1, lab.rank + 1):
        for s in (1.0, -1.0):
            got = moments._posterior(lab, g, 1, (d, s))
            log2_flow, first = logreal_reference(lab, word, d, s)
            assert correlation_moments(lab, word, 1, (d, s)) == got.normalized
            assert abs(got.normalized[1] - first) <= 1e-9 * abs(first), (d, s)
            assert abs(got.log2_flow - log2_flow) <= 1e-12 * abs(log2_flow), (d, s)


# [7,5] K=8 over AWGN sigma2=0.01, seed 0, constrained to +1 at depth 5:
# log2 of the subcode's flow and its first correlation moment, from a
# 60-digit brute force over its 128 codewords.
K8_LOG2_FLOW, K8_FIRST_MOMENT = -1426.5675055898462, 10.059604061218366


def test_k8_constrained_entropy_matches_the_brute_force():
    code = build_conv_trellis((7, 5), 8)
    channel = Awgn(0.01)
    _, word = make_received(code, channel, seed=0)
    lab = channel_lambda_labels(code, channel, word)
    detail = conditional_entropy_detail(lab, channel, word, (5, 1.0))
    got = moments._posterior(lab, correlation_g_table(lab, word), 1, (5, 1.0))
    assert abs(got.log2_flow - K8_LOG2_FLOW) <= 1e-12 * abs(K8_LOG2_FLOW)
    assert abs(detail.first_moment - K8_FIRST_MOMENT) <= 1e-12 * K8_FIRST_MOMENT


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_k40_log_flows_match_the_log_domain_recursion(k40, direction):
    _, word, lab = k40
    lab = lab.relabeled(lab._lam)
    state = normalized_states(lab, correlation_g_table(lab, word), 4, direction)
    assert all(math.isfinite(state.log_flow[v]) for v in state.log_flow)
    for v, want in K40_LOG_FLOWS[direction].items():
        got = state.log_flow[v]
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (v, got, want)


def test_k40_quantized_pair_and_kept_view(k40):
    """The quantized pair sweeps, and every cut holds the flow; once the
    view has made the wide sweep, a served call and the view again run
    no sweep."""
    _, word, lab = k40
    lab = lab.relabeled(lab._lam)
    g = correlation_g_table(lab, word)
    fd = forward_distributions(lab, g, "quantized")
    bd = backward_distributions(lab, g, "quantized")
    flow = math.exp(K40_LOG_FLOWS["forward"][lab.sink])
    for cut in (0, 9, lab.rank // 2, lab.rank):
        assert trellis_distribution(fd, bd, cut).total() == pytest.approx(flow, rel=1e-9)
    normalized_states(lab, g, 4, "backward")
    with mock.patch.object(moments, "_sweep", wraps=moments._sweep) as sweep:
        backward_numerators(lab, g, 4)
        state = normalized_states(lab, g, 4, "backward")
    assert sweep.call_count == 0
    assert isinstance(lab._sweeps["backward", moments.REAL][2][-1][1], np.ndarray)
    assert all(math.isfinite(state.log_flow[v]) for v in state.log_flow)
