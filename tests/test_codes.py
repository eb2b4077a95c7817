import math

import numpy as np
import pytest

from trelliskit import (
    Awgn,
    Bsc,
    ChannelError,
    SemiringError,
    DepthFunctionTable,
    TrellisStructureError,
    backward_distributions,
    backward_numerators,
    build_conv_trellis,
    build_spc_trellis,
    channel_lambda_labels,
    conditional_entropy,
    conditional_entropy_detail,
    correlation_moments,
    correlation_symbol_curves,
    correlation_distribution_with_gaussian,
    counted_run,
    counted_symbol_pass,
    enumerate_paths,
    forward_distributions,
    forward_numerators,
    make_received,
    normalized_states,
    parse_channel,
    parse_generators,
    symbol_distribution,
    symbol_moments,
    symbol_probability,
    trellis_distribution,
    trellis_moments,
    uncertainty_constants,
    validate,
)
from trelliskit.oracles import (
    conv_encode,
    oracle_correlation_moment,
    oracle_posterior_entropy,
    trellis_codewords,
    word_likelihood,
)

from conftest import assert_close


def all_bipolar(n):
    for bits in range(1 << n):
        yield tuple(1.0 - 2.0 * ((bits >> k) & 1) for k in range(n))


class TestSpcBuilder:
    def test_reference_structure(self):
        t = build_spc_trellis(4)
        assert (len(t.vertices), len(t.edges)) == (8, 12)
        assert len(list(enumerate_paths(t))) == 8

    def test_minimal_block_length(self):
        t = build_spc_trellis(2)
        words = trellis_codewords(t)
        assert sorted(words) == [(-1.0, -1.0), (1.0, 1.0)]

    def test_even_parity_for_every_path(self):
        for n in (2, 3, 4, 5, 6):
            t = build_spc_trellis(n)
            words = trellis_codewords(t)
            assert len(words) == 2 ** (n - 1)
            for w in words:
                assert math.prod(w) == 1.0

    def test_too_short_rejected(self):
        with pytest.raises(TrellisStructureError):
            build_spc_trellis(1)


class TestConvBuilder:
    def test_k2_reference_structure(self):
        t = build_conv_trellis((7, 5), 2)
        assert t.rank == 8
        assert len(list(enumerate_paths(t))) == 4
        assert validate(t) == []

    def test_zero_info_bits_single_path(self):
        t = build_conv_trellis((7, 5), 0)
        words = trellis_codewords(t)
        assert words == [(1.0,) * t.rank]

    def test_codewords_match_direct_encoder(self):
        for k in (1, 2, 3, 4):
            t = build_conv_trellis((7, 5), k)
            words = sorted(trellis_codewords(t))
            encoded = sorted(
                conv_encode((7, 5), [(i >> j) & 1 for j in range(k)])
                for i in range(1 << k)
            )
            assert words == encoded

    def test_generator_order_matters(self):
        a = trellis_codewords(build_conv_trellis((7, 5), 2))
        b = trellis_codewords(build_conv_trellis((5, 7), 2))
        assert sorted(a) == sorted(tuple(w) for w in {
            tuple(x for pair in zip(cw[1::2], cw[0::2]) for x in pair)
            for cw in b
        })

    def test_parse_generators(self):
        assert parse_generators("7,5") == (7, 5)
        assert parse_generators(" 17 , 13 ") == (0o17, 0o13)
        with pytest.raises(TrellisStructureError):
            parse_generators("9,5")
        with pytest.raises(TrellisStructureError):
            parse_generators("")

    def test_memory_cap(self):
        with pytest.raises(TrellisStructureError):
            build_conv_trellis((1 << 18, 5), 1)


class TestChannels:
    def test_parse(self):
        assert parse_channel("bsc:0.35") == Bsc(0.35)
        assert parse_channel("awgn:0.5") == Awgn(0.5)
        with pytest.raises(ChannelError):
            parse_channel("tls:1")
        with pytest.raises(ChannelError):
            parse_channel("bsc:half")

    def test_degenerate_parameters_rejected(self):
        for p in (0.0, 0.5, 1.0, -0.1):
            with pytest.raises(ChannelError):
                Bsc(p)
        with pytest.raises(ChannelError):
            Awgn(0.0)

    def test_bsc_labels(self):
        t = build_spc_trellis(4)
        labeled = channel_lambda_labels(t, Bsc(0.35), [1.0, 1.0, -1.0, 1.0])
        for e in labeled.edges:
            r = [1.0, 1.0, -1.0, 1.0][labeled.depth_of(e.init)]
            assert e.lam == (0.65 if r == e.clabel else 0.35)

    def test_bsc_limit_small_p_concentrates_posterior(self):
        t = build_spc_trellis(4)
        word = [1.0, -1.0, -1.0, 1.0]
        labeled = channel_lambda_labels(t, Bsc(1e-12), word)
        flows = trellis_moments(
            forward_numerators(labeled, DepthFunctionTable.constant(labeled, 0.0), 0)
        )
        # only the transmitted codeword's path keeps nonvanishing label
        assert_close(flows.numerators[0], (1.0 - 1e-12) ** 4, 1e-6)

    def test_awgn_symmetry_at_zero(self):
        channel = Awgn(1.0)
        t = build_spc_trellis(2)
        labeled = channel_lambda_labels(t, channel, [0.0, 0.0])
        lams = {e.lam for e in labeled.edges}
        assert len(lams) == 1  # equidistant from both symbols

    def test_length_mismatch(self):
        t = build_spc_trellis(4)
        with pytest.raises(ChannelError):
            channel_lambda_labels(t, Bsc(0.1), [1.0, 1.0])

    def test_bsc_received_must_be_bipolar(self):
        t = build_spc_trellis(2)
        with pytest.raises(ChannelError):
            channel_lambda_labels(t, Bsc(0.1), [0.5, 1.0])

    def test_nan_received_value_rejected(self):
        t = build_spc_trellis(4)
        with pytest.raises(TrellisStructureError, match="non-finite"):
            channel_lambda_labels(t, Awgn(1.0), [1.0, math.nan, -1.0, 1.0])

    def test_make_received_deterministic(self):
        t = build_spc_trellis(6)
        a = make_received(t, Bsc(0.35), 3)
        b = make_received(t, Bsc(0.35), 3)
        assert a == b
        codeword, received = a
        assert math.prod(codeword) == 1.0
        assert all(r in (-1.0, 1.0) for r in received)

    @pytest.mark.parametrize("seed", [2.5, "3", 3.0, None, -1])
    def test_seed_that_is_not_a_whole_number_at_least_0_is_a_channel_error(self, seed):
        with pytest.raises(ChannelError, match="seed must be a whole number at least 0"):
            make_received(build_spc_trellis(4), Bsc(0.1), seed)

    def test_numpy_integer_seed_is_a_whole_number(self):
        t = build_spc_trellis(6)
        assert make_received(t, Bsc(0.35), np.int64(3)) == make_received(t, Bsc(0.35), 3)


class TestUncertaintyConstants:
    def test_bsc_k2_closed_form(self):
        k = uncertainty_constants(Bsc(0.35), [1.0] * 4)
        assert_close(k.k2, 0.5 * math.log2(0.65 / 0.35), 1e-15)
        # frozen from 30-digit evaluation of (1/2) log2(0.65/0.35)
        assert_close(k.k2, 0.446542398041744, 1e-14)
        assert_close(k.k1b, 2.0 * math.log2(0.35 * 0.65), 1e-15)

    def test_k2_vanishes_toward_half(self):
        assert uncertainty_constants(Bsc(0.4999999), [1.0]).k2 < 1e-6

    def test_k2_positive(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            p = float(rng.uniform(1e-6, 0.5 - 1e-6))
            assert uncertainty_constants(Bsc(p), [1.0, -1.0]).k2 > 0.0
            s2 = float(rng.uniform(1e-3, 10.0))
            assert uncertainty_constants(Awgn(s2), [0.3, -0.2]).k2 > 0.0

    def test_bsc_affine_identity_exhaustive_n2(self):
        # log2 P(w|c) = k1b + k2 * c.w over all 16 bipolar pairs
        channel = Bsc(0.35)
        for c in all_bipolar(2):
            for w in all_bipolar(2):
                k = uncertainty_constants(channel, w)
                direct = math.log2(word_likelihood("bsc", 0.35, w, c))
                corr = sum(ci * wi for ci, wi in zip(c, w))
                assert_close(direct, k.k1b + k.k2 * corr, 1e-12)

    def test_awgn_affine_identity_random(self):
        rng = np.random.default_rng(32)
        channel = Awgn(0.7)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            c = tuple(float(rng.choice((-1.0, 1.0))) for _ in range(n))
            w = tuple(float(rng.normal()) for _ in range(n))
            k = uncertainty_constants(channel, w)
            direct = math.log2(word_likelihood("awgn", 0.7, w, c))
            corr = sum(ci * wi for ci, wi in zip(c, w))
            assert_close(direct, k.k1b + k.k2 * corr, 1e-9)

    def test_k1_requires_k1a(self):
        k = uncertainty_constants(Bsc(0.2), [1.0])
        with pytest.raises(ChannelError):
            _ = k.k1
        assert uncertainty_constants(Bsc(0.2), [1.0], k1a=1.5).k1 == 1.5 - k.k1b


class TestCorrelationMoments:
    def _instance(self, seed=17):
        t = build_spc_trellis(4)
        channel = Bsc(0.35)
        _, received = make_received(t, channel, seed)
        labeled = channel_lambda_labels(t, channel, received)
        return labeled, channel, received

    def test_matches_direct_codeword_sums(self):
        labeled, channel, received = self._instance()
        words = trellis_codewords(labeled)
        for m in range(3):
            engine = correlation_moments(labeled, received, m)[m]
            direct = oracle_correlation_moment(
                words, "bsc", 0.35, received, received, m
            )
            assert_close(engine, direct, 1e-9, f"m={m}")
        for depth in range(1, 5):
            for x in (-1.0, 1.0):
                engine = correlation_moments(
                    labeled, received, 2, (depth, x)
                )
                direct = [
                    oracle_correlation_moment(
                        words, "bsc", 0.35, received, received, m, (depth, x)
                    )
                    for m in range(3)
                ]
                for m in range(3):
                    assert_close(engine[m], direct[m], 1e-9)

    def test_zero_word_kills_higher_orders(self):
        labeled, channel, received = self._instance()
        moments = correlation_moments(labeled, [0.0] * 4, 3)
        assert moments[0] == 1.0
        for m in (1, 2, 3):
            assert abs(moments[m]) < 1e-12

    def test_order_zero_normalized_is_one(self):
        labeled, channel, received = self._instance()
        assert_close(correlation_moments(labeled, received, 0)[0], 1.0, 1e-12)


class TestConditionalEntropy:
    def _instance(self, seed):
        t = build_spc_trellis(4)
        channel = Bsc(0.35)
        _, received = make_received(t, channel, seed)
        labeled = channel_lambda_labels(t, channel, received)
        return labeled, channel, received

    def test_equals_posterior_entropy_oracle(self):
        for seed in (1, 2, 3):
            labeled, channel, received = self._instance(seed)
            words = trellis_codewords(labeled)
            engine = conditional_entropy(labeled, channel, received)
            direct = oracle_posterior_entropy(words, "bsc", 0.35, received)
            assert_close(engine, direct, 1e-9, f"seed={seed}")

    def test_subcode_entropies(self):
        labeled, channel, received = self._instance(5)
        words = trellis_codewords(labeled)
        for depth in range(1, 5):
            for x in (-1.0, 1.0):
                engine = conditional_entropy(
                    labeled, channel, received, (depth, x)
                )
                direct = oracle_posterior_entropy(
                    words, "bsc", 0.35, received, (depth, x)
                )
                assert_close(engine, direct, 1e-9, f"i={depth} x={x}")

    def test_awgn_entropy(self):
        t = build_spc_trellis(4)
        channel = Awgn(0.8)
        _, received = make_received(t, channel, 9)
        labeled = channel_lambda_labels(t, channel, received)
        words = trellis_codewords(labeled)
        assert_close(
            conditional_entropy(labeled, channel, received),
            oracle_posterior_entropy(words, "awgn", 0.8, received),
            1e-9,
        )

    def test_posterior_collapse_small_p(self):
        t = build_spc_trellis(4)
        channel = Bsc(1e-9)
        codeword, _ = make_received(t, channel, 2)
        labeled = channel_lambda_labels(t, channel, codeword)
        assert conditional_entropy(labeled, channel, codeword) < 1e-6

    def test_entropy_near_zero_is_clamped(self):
        """At [7,5] K=300 over AWGN sigma^2=0.01 the true entropy is far
        below 1e-300 bits, and k1 - k2 * E[c.w] rounds below 0 on some of
        the README's 20 seeded words; the entropy is clamped at 0, and the
        first moment and the constants are left as computed."""
        t = build_conv_trellis((7, 5), 300)
        channel = Awgn(0.01)
        raw = []
        for seed in range(20):
            _, received = make_received(t, channel, seed)
            labeled = channel_lambda_labels(t, channel, received)
            detail = conditional_entropy_detail(labeled, channel, received)
            unclamped = detail.constants.k1 - detail.constants.k2 * detail.first_moment
            raw.append(unclamped)
            assert detail.entropy_bits == max(unclamped, 0.0)
            assert math.copysign(1.0, detail.entropy_bits) == 1.0
            assert detail.entropy_bits < 1e-9
        assert min(raw) < 0.0

    def test_constrained_entropy_sweeps_the_code_at_order_1(self, monkeypatch):
        """With a constraint, the code is swept once forward and once
        backward at order 1, on the labelled trellis itself, and the
        subcode's moments are the pair's join across the constrained
        section; row 0 and its exponent have the same bits at any order,
        so the log2 flow equals the unconstrained detail's bit for bit.
        [7,5] K=300 over AWGN sigma2=2.0: the flow falls to about
        2^-1400, so the sweeps rescale."""
        from trelliskit import moments

        t = build_conv_trellis((7, 5), 300)
        channel = Awgn(2.0)
        _, received = make_received(t, channel, 3)
        labeled = channel_lambda_labels(t, channel, received)
        whole = conditional_entropy_detail(labeled, channel, received)
        names = {id(labeled.plan(d)): d for d in ("forward", "backward")}
        swept, sweep = [], moments._sweep

        def spy(semiring, plan, lift, orders, *args, **kwargs):
            swept.append((names[id(plan)], orders))
            return sweep(semiring, plan, lift, orders, *args, **kwargs)

        monkeypatch.setattr(moments, "_sweep", spy)
        for constraint in ((1, 1.0), (300, -1.0)):
            swept.clear()
            fresh = labeled.relabeled(labeled._lam)
            detail = conditional_entropy_detail(fresh, channel, received, constraint)
            assert swept == [("forward", (1,)), ("backward", (1,))]
            assert sorted(fresh._sweeps) == [("backward", moments.REAL), ("forward", moments.REAL)]
            assert detail.log2_flow.hex() == whole.log2_flow.hex()
        assert whole.log2_flow < -1000

    def test_classical_symbol_probability_cross_check(self):
        # first unconstrained moment decomposes into sum_i r_i (P+ - P-)
        labeled, channel, received = self._instance(12)
        detail = conditional_entropy_detail(labeled, channel, received)
        decomposed = sum(
            received[i - 1]
            * (
                symbol_probability(labeled, i, 1.0)
                - symbol_probability(labeled, i, -1.0)
            )
            for i in range(1, 5)
        )
        assert_close(detail.first_moment, decomposed, 1e-9)

    def test_uncertainty_power_expansion(self):
        # moments of the uncertainty via the affine form and the binomial
        # expansion over correlation moments match direct codeword sums
        labeled, channel, received = self._instance(21)
        words = trellis_codewords(labeled)
        likes = [
            word_likelihood("bsc", 0.35, received, c) for c in words
        ]
        total = sum(likes)
        posterior = [l / total for l in likes]
        detail = conditional_entropy_detail(labeled, channel, received)
        k1, k2 = detail.constants.k1, detail.constants.k2
        corr_moments = correlation_moments(labeled, received, 3)
        for m in range(4):
            expansion = sum(
                math.comb(m, l) * k1 ** (m - l) * (-k2) ** l * corr_moments[l]
                for l in range(m + 1)
            )
            direct = sum(
                p * (-math.log2(p)) ** m for p in posterior if p > 0
            )
            assert_close(expansion, direct, 1e-9, f"m={m}")


class TestFigureDatasets:
    def test_symbol_curves_small_instance(self):
        data = correlation_symbol_curves((5, 7), 6, 0.35, 3, seed=4)
        n = data["meta"]["block_len"]
        assert len(data["domain"]) == n + 1
        assert data["domain"][0] == -float(n)
        p_plus = data["meta"]["prob_plus"]
        p_minus = data["meta"]["prob_minus"]
        assert_close(p_plus + p_minus, 1.0, 1e-9)
        assert_close(sum(data["mass_plus"]), p_plus, 1e-12)
        # cross-check the curve integrals against the flow engine
        t = build_conv_trellis((5, 7), 6)
        labeled = channel_lambda_labels(
            t, Bsc(0.35), data["meta"]["received"]
        )
        assert_close(
            p_plus, symbol_probability(labeled, 3, 1.0), 1e-9
        )

    def test_gaussian_dataset_moments(self):
        data = correlation_distribution_with_gaussian((7, 5), 6, 0.35, seed=4)
        values = np.asarray(data["domain"])
        gauss = np.asarray(data["gaussian_approx"])
        mean = float((values * gauss).sum() / gauss.sum())
        assert abs(mean - data["meta"]["mean"]) < 0.05
        assert_close(sum(data["normalized_mass"]), 1.0, 1e-9)

    def test_ratio_curve_varies(self):
        data = correlation_symbol_curves((5, 7), 8, 0.35, 3, seed=11)
        ratios = [
            p / m
            for p, m in zip(data["mass_plus"], data["mass_minus"])
            if p > 0 and m > 0
        ]
        assert len(ratios) >= 2
        assert max(ratios) / min(ratios) > 1.0 + 1e-6


def _labeled_spc4():
    t = build_spc_trellis(4)
    _, received = make_received(t, Bsc(0.35), 17)
    return channel_lambda_labels(t, Bsc(0.35), received), received


def _no_plus_at_depth_1():
    labeled, _ = _labeled_spc4()
    first = [e.id for e in labeled.edges_at(1) if e.clabel == 1.0]
    return labeled.relabeled(lambda e: 0.0 if e.id in first else e.lam)


BOUNDARIES = [
    pytest.param(
        lambda: correlation_moments(*_labeled_spc4(), 2, constraint=(0, 1.0)),
        (SemiringError, r"section depth 0 outside 1\.\.4"),
        id="constraint at depth 0",
    ),
    pytest.param(
        lambda: correlation_moments(*_labeled_spc4(), 2, constraint=(5, -1.0)),
        (SemiringError, r"section depth 5 outside 1\.\.4"),
        id="constraint past the rank",
    ),
    pytest.param(
        lambda: symbol_probability(_labeled_spc4()[0], 2, 3.0), 0.0,
        id="symbol no edge carries",
    ),
    pytest.param(
        lambda: symbol_probability(_no_plus_at_depth_1(), 1, 1.0), 0.0,
        id="symbol whose edges carry no flow",
    ),
]


@pytest.mark.parametrize("call, want", BOUNDARIES)
def test_boundaries(call, want):
    """Typed errors, or a probability of 0.0 for a symbol with no flow."""
    if isinstance(want, float):
        assert call() == want
    else:
        with pytest.raises(want[0], match=want[1]):
            call()


def _labeled_conv75():
    """[7,5] K=6 (rank 16) over BSC p=0.1, seed 1: the labeled trellis,
    the received word and the c-label g."""
    t = build_conv_trellis((7, 5), 6)
    _, received = make_received(t, Bsc(0.1), 1)
    labeled = channel_lambda_labels(t, Bsc(0.1), received)
    return labeled, received, DepthFunctionTable.from_clabels(labeled)


def _moment_pair(t, g):
    return forward_numerators(t, g, 2), backward_numerators(t, g, 2)


def _distribution_pair(t, g):
    return forward_distributions(t, g), backward_distributions(t, g)


SECTION = r"section depth 2\.5 outside 1\.\.16"
NOT_WHOLE = [
    pytest.param(lambda t, r, g: symbol_probability(t, 2.5, 1.0), SECTION, id="P(c=+1)"),
    pytest.param(lambda t, r, g: symbol_probability(t, 2.5, -1.0), SECTION, id="P(c=-1)"),
    pytest.param(lambda t, r, g: conditional_entropy(t, Bsc(0.1), r, (2.5, 1.0)), SECTION,
                 id="subcode entropy"),
    pytest.param(lambda t, r, g: correlation_moments(t, r, 2, (2.5, 1.0)), SECTION,
                 id="subcode correlation moments"),
    pytest.param(lambda t, r, g: symbol_moments(t, g, *_moment_pair(t, g), 2.5, 1.0), SECTION,
                 id="symbol_moments"),
    pytest.param(lambda t, r, g: symbol_distribution(t, g, *_distribution_pair(t, g), 2.5, 1.0),
                 SECTION, id="symbol_distribution"),
    pytest.param(lambda t, r, g: trellis_distribution(*_distribution_pair(t, g), 2.5),
                 r"cut depth 2\.5 outside 0\.\.16", id="trellis_distribution"),
    pytest.param(lambda t, r, g: forward_numerators(t, g, 1.5),
                 r"max order 1\.5 outside", id="forward_numerators"),
    pytest.param(lambda t, r, g: normalized_states(t, g, 2.0),
                 r"max order 2\.0 outside", id="normalized_states"),
    pytest.param(lambda t, r, g: correlation_moments(t, r, 2.0),
                 r"max order 2\.0 outside", id="correlation_moments"),
    pytest.param(lambda t, r, g: counted_run(t, g, 1.5),
                 r"max order 1\.5 outside", id="counted_run"),
    pytest.param(lambda t, r, g: counted_symbol_pass(t, g, *_moment_pair(t, g), 1.5),
                 r"max order 1\.5 outside", id="counted_symbol_pass"),
]


@pytest.mark.parametrize("call, message", NOT_WHOLE)
def test_depths_and_orders_must_be_whole_numbers(call, message):
    """A fractional section depth matched no edge, so the subcode was
    answered as the whole code (both symbol probabilities 1.0), or numpy
    raised a TypeError; so did an order that is not an integer.  Each is
    now a SemiringError."""
    with pytest.raises(SemiringError, match=message):
        call(*_labeled_conv75())


def test_numpy_integer_depths_and_orders_are_whole_numbers():
    t, r, g = _labeled_conv75()
    assert symbol_probability(t, np.int64(3), 1.0) == symbol_probability(t, 3, 1.0)
    assert correlation_moments(t, r, np.int64(2)) == correlation_moments(t, r, 2)
    result = symbol_moments(t, g, *_moment_pair(t, g), np.int64(3), 1.0)
    assert type(result.depth) is int and result.depth == 3


@pytest.mark.parametrize("spec", ["awgn:inf", "awgn:nan"])
def test_awgn_variance_must_be_finite(spec):
    """An infinite variance made every label 0, and entropy then failed
    with a zero total flow."""
    with pytest.raises(ChannelError, match="must be finite and positive"):
        parse_channel(spec)
    with pytest.raises(ChannelError, match="must be finite and positive"):
        Awgn(float(spec[5:]))
