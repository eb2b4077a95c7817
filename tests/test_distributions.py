import math

import numpy as np
import pytest

from trelliskit import (
    DepthFunctionTable,
    Edge,
    ExactDistribution,
    LatticeError,
    QuantizationParams,
    QuantizedDistribution,
    SemiringError,
    Trellis,
    ZeroFlowError,
    backward_distributions,
    build_conv_trellis,
    build_spc_trellis,
    channel_lambda_labels,
    convolve,
    dumps_trellis,
    forward_distributions,
    forward_numerators,
    lattice_step,
    loads_trellis,
    redistribute,
    shift,
    symbol_distribution,
    trellis_distribution,
    trellis_moments,
)
from trelliskit.codes import Awgn, Bsc, make_received, correlation_g_table
from trelliskit.oracles import (
    oracle_distribution,
    random_g_table,
    random_trellis,
)

from conftest import assert_close, assert_same_mass, dist_as_dict


def integer_g(trellis, seed, lo=-2, hi=3):
    rng = np.random.default_rng(seed)
    return DepthFunctionTable(
        {e.id: float(rng.integers(lo, hi)) for e in trellis.edges}
    )


class TestShift:
    def test_zero_shift_identity(self):
        d = ExactDistribution(-2.0, 2.0, (0.25, 0.5, 0.25))
        assert shift(d, 0.0) == d

    def test_dirac_shifts_freely(self):
        d = ExactDistribution.dirac(0.0)
        assert shift(d, 1.0) == ExactDistribution.dirac(1.0)

    def test_on_lattice_shift(self):
        d = ExactDistribution(-2.0, 2.0, (0.25, 0.5, 0.25))
        assert shift(d, 4.0).offset == 2.0
        assert shift(d, 4.0).mass == d.mass

    def test_off_lattice_shift_rejected(self):
        d = ExactDistribution(-2.0, 2.0, (0.25, 0.5, 0.25))
        with pytest.raises(LatticeError):
            shift(d, 1.0)

    @pytest.mark.parametrize(
        "steps, whole",
        [(3 + 2e-9, True), (3 + 5e-9, False), (3e6 + 2e-3, True), (3e6 + 4e-3, False),
         (math.nan, False), (math.inf, False), (-math.inf, False)],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_whole_number_of_steps_is_within_1e_9_relative(self, steps, whole):
        """Within 1e-9 of max(1, |t|) steps of a whole number t; nan and
        +-inf never."""
        d = ExactDistribution(-2.0, 2.0, (0.25, 0.5, 0.25))
        if whole:
            assert shift(d, 2.0 * steps).mass == d.mass
        else:
            with pytest.raises(LatticeError, match="off the step-2.0 lattice"):
                shift(d, 2.0 * steps)

    def test_quantized_shift_moves_mean_only(self):
        d = QuantizedDistribution(3.2, 2, 1.0, (0.1, 0.2, 0.4, 0.2, 0.1))
        out = shift(d, 0.7)
        assert_close(out.mean, 3.9, 1e-12)
        assert out.mass == d.mass


class TestConvolve:
    def test_dirac_is_identity(self):
        x = ExactDistribution(-2.0, 2.0, (1.0, 2.0, 1.0))
        out = convolve(ExactDistribution.dirac(0.0), x)
        assert out.offset == x.offset and out.mass == x.mass

    def test_bernoulli_sum(self):
        half = ExactDistribution(-1.0, 2.0, (0.5, 0.5))
        out = convolve(half, half)
        assert out.offset == -2.0
        assert out.mass == (0.25, 0.5, 0.25)

    def test_total_mass_multiplies(self):
        a = ExactDistribution(0.0, 1.0, (0.5, 1.5))
        b = ExactDistribution(1.0, 1.0, (2.0, 0.5, 0.5))
        assert_close(convolve(a, b).total(), a.total() * b.total(), 1e-12)

    def test_step_mismatch_rejected(self):
        a = ExactDistribution(0.0, 1.0, (0.5, 0.5))
        b = ExactDistribution(0.0, 2.0, (0.5, 0.5))
        with pytest.raises(LatticeError):
            convolve(a, b)


class TestExactPipeline:
    def test_reference_histogram(self, spc4, spc4_clabel_g):
        fwd = forward_distributions(spc4, spc4_clabel_g, mode="exact")
        bwd = backward_distributions(spc4, spc4_clabel_g, mode="exact")
        dist = trellis_distribution(fwd, bwd, 2)
        assert dist.offset == -4.0 and dist.step == 2.0
        assert dist.mass == (1.0, 0.0, 6.0, 0.0, 1.0)

    def test_source_distribution_is_point_mass(self, spc4, spc4_clabel_g):
        fwd = forward_distributions(spc4, spc4_clabel_g, mode="exact")
        src = fwd.exact[spc4.source]
        assert src.mass == (1.0,) and src.offset == 0.0

    def test_pair_on_different_lattices_rejected(self, spc4, spc4_clabel_g):
        halves = DepthFunctionTable({e.id: 0.5 * e.clabel for e in spc4.edges})
        fwd = forward_distributions(spc4, spc4_clabel_g, mode="exact")
        bwd = backward_distributions(spc4, halves, mode="exact")
        assert (fwd.step, bwd.step) == (2.0, 1.0)
        with pytest.raises(LatticeError):
            trellis_distribution(fwd, bwd, 2)
        with pytest.raises(LatticeError):
            symbol_distribution(spc4, spc4_clabel_g, fwd, bwd, 2, 1.0)

    def test_cut_invariance(self):
        for seed in (1, 4, 9):
            t = random_trellis(seed)
            g = integer_g(t, seed)
            fwd = forward_distributions(t, g, mode="exact")
            bwd = backward_distributions(t, g, mode="exact")
            reference = dist_as_dict(trellis_distribution(fwd, bwd, 0))
            for depth in range(1, t.rank + 1):
                assert_same_mass(
                    dist_as_dict(trellis_distribution(fwd, bwd, depth)),
                    reference,
                    1e-10,
                )

    def test_matches_oracle_histogram(self):
        for seed in (2, 5):
            t = random_trellis(seed)
            g = integer_g(t, seed + 1)
            fwd = forward_distributions(t, g, mode="exact")
            bwd = backward_distributions(t, g, mode="exact")
            dist = trellis_distribution(fwd, bwd, t.rank // 2)
            oracle = oracle_distribution(t, g)
            assert_same_mass(dist_as_dict(dist), oracle.as_dict(), 1e-10)

    def test_moments_match_moment_engine(self):
        for seed in (3, 6):
            t = random_trellis(seed)
            g = integer_g(t, seed + 2)
            fwd = forward_distributions(t, g, mode="exact")
            bwd = backward_distributions(t, g, mode="exact")
            dist = trellis_distribution(fwd, bwd, 1)
            engine = trellis_moments(forward_numerators(t, g, 4))
            for m in range(5):
                assert_close(dist.moment(m), engine.numerators[m], 1e-9)

    def test_symbol_partition_is_pointwise(self):
        t = random_trellis(11)
        g = integer_g(t, 110)
        fwd = forward_distributions(t, g, mode="exact")
        bwd = backward_distributions(t, g, mode="exact")
        theta = dist_as_dict(trellis_distribution(fwd, bwd, 0))
        for depth in range(1, t.rank + 1):
            combined: dict = {}
            for x in (-1.0, 1.0):
                part = symbol_distribution(t, g, fwd, bwd, depth, x)
                for v, w in dist_as_dict(part).items():
                    combined[v] = combined.get(v, 0.0) + w
            assert_same_mass(combined, theta, 1e-10, 1e-9)

    def test_symbol_moments_cross_check(self):
        from trelliskit import backward_numerators, symbol_moments

        t = random_trellis(14)
        g = integer_g(t, 140)
        fwd = forward_distributions(t, g, mode="exact")
        bwd = backward_distributions(t, g, mode="exact")
        fm = forward_numerators(t, g, 3)
        bm = backward_numerators(t, g, 3)
        for x in (-1.0, 1.0):
            dist = symbol_distribution(t, g, fwd, bwd, 1, x)
            sym = symbol_moments(t, g, fm, bm, 1, x)
            for m in range(4):
                assert_close(dist.moment(m), sym.numerators[m], 1e-9)

    def test_empty_symbol_returns_zero_distribution(self, spc4, spc4_clabel_g):
        fwd = forward_distributions(spc4, spc4_clabel_g, mode="exact")
        bwd = backward_distributions(spc4, spc4_clabel_g, mode="exact")
        dist = symbol_distribution(spc4, spc4_clabel_g, fwd, bwd, 1, 9.0)
        assert dist.total() == 0.0

    def test_absent_hard_symbol_is_on_the_padded_domain(self):
        # A chain whose every edge carries c = -1: the +1 symbol is absent
        # at each depth, and its zero result must share the {-n..n} step-2
        # domain of the present symbol's.
        t = Trellis(
            3,
            {0: 0, 1: 1, 2: 2, 3: 3},
            [Edge(i, i, i + 1, 0.5, -1.0) for i in range(3)],
        )
        g = DepthFunctionTable.from_clabels(t)
        fwd = forward_distributions(t, g, mode="exact")
        bwd = backward_distributions(t, g, mode="exact")
        for depth in (1, 2, 3):
            present = symbol_distribution(t, g, fwd, bwd, depth, -1.0)
            absent = symbol_distribution(t, g, fwd, bwd, depth, 1.0)
            assert (present.offset, present.step) == (-3.0, 2.0)
            assert present.mass == (0.125, 0.0, 0.0, 0.0)
            assert (absent.offset, absent.step) == (-3.0, 2.0)
            assert absent.mass == (0.0,) * 4

    def test_symbol_mass_is_symbol_probability(self):
        # normalized per-symbol mass equals the posterior bit probability
        # computed by direct codeword summation
        from trelliskit.oracles import trellis_codewords, word_likelihood

        t = build_spc_trellis(4)
        channel = Bsc(0.35)
        _, received = make_received(t, channel, 6)
        labeled = channel_lambda_labels(t, channel, received)
        g = correlation_g_table(labeled, received)
        fwd = forward_distributions(labeled, g, mode="exact")
        bwd = backward_distributions(labeled, g, mode="exact")
        words = trellis_codewords(labeled)
        likes = [word_likelihood("bsc", 0.35, received, c) for c in words]
        total = sum(likes)
        theta = trellis_distribution(fwd, bwd, 0).total()
        for depth in range(1, 5):
            for x in (-1.0, 1.0):
                dist = symbol_distribution(labeled, g, fwd, bwd, depth, x)
                want = (
                    sum(
                        l
                        for l, c in zip(likes, words)
                        if c[depth - 1] == x
                    )
                    / total
                )
                assert_close(dist.total() / theta, want, 1e-9)

    def test_states_of_another_trellis_raise(self, spc4, spc4_clabel_g):
        fwd = forward_distributions(spc4, spc4_clabel_g, mode="exact")
        bwd = backward_distributions(spc4, spc4_clabel_g, mode="exact")
        for other in (build_spc_trellis(6), build_conv_trellis((7, 5), 3)):
            g = DepthFunctionTable.from_clabels(other)
            other_bwd = backward_distributions(other, g, mode="exact")
            with pytest.raises(SemiringError, match="different trellises"):
                trellis_distribution(fwd, other_bwd, 2)
            with pytest.raises(SemiringError, match="different trellises"):
                symbol_distribution(spc4, spc4_clabel_g, fwd, other_bwd, 2, 1.0)
            with pytest.raises(SemiringError, match="not swept over this trellis"):
                symbol_distribution(other, g, fwd, bwd, 2, 1.0)

    def test_states_of_a_copy_or_a_reload_are_accepted(self, spc4, spc4_clabel_g):
        fwd = forward_distributions(spc4, spc4_clabel_g, mode="exact")
        bwd = backward_distributions(spc4, spc4_clabel_g, mode="exact")
        cut = trellis_distribution(fwd, bwd, 2)
        sym = symbol_distribution(spc4, spc4_clabel_g, fwd, bwd, 2, 1.0)
        for t in (spc4.relabeled(lambda e: e.lam), loads_trellis(dumps_trellis(spc4))):
            t_bwd = backward_distributions(t, spc4_clabel_g, mode="exact")
            assert trellis_distribution(fwd, t_bwd, 2) == cut
            assert symbol_distribution(t, spc4_clabel_g, fwd, t_bwd, 2, 1.0) == sym

    def test_normalizing_gives_density(self):
        t = random_trellis(16)
        g = integer_g(t, 160)
        fwd = forward_distributions(t, g, mode="exact")
        bwd = backward_distributions(t, g, mode="exact")
        dist = trellis_distribution(fwd, bwd, 0)
        assert_close(dist.normalized().total(), 1.0, 1e-12)

    def test_hard_decision_domain(self):
        for n in (2, 4, 6):
            t = build_spc_trellis(n)
            g = DepthFunctionTable.from_clabels(t)
            fwd = forward_distributions(t, g, mode="exact")
            bwd = backward_distributions(t, g, mode="exact")
            dist = trellis_distribution(fwd, bwd, 0)
            assert dist.offset == -float(n)
            assert dist.step == 2.0
            assert len(dist.mass) == n + 1

    def test_lattice_step_detection(self, spc4, spc4_clabel_g):
        assert lattice_step(spc4, spc4_clabel_g) == 2.0
        g_soft = random_g_table(spc4, 77)
        with pytest.raises(LatticeError):
            lattice_step(spc4, g_soft)

    def test_auto_mode_routes_soft_to_quantized(self, spc4):
        g_soft = random_g_table(spc4, 78)
        state = forward_distributions(spc4, g_soft, mode="auto")
        assert state.mode == "quantized"
        state2 = forward_distributions(
            spc4, DepthFunctionTable.from_clabels(spc4), mode="auto"
        )
        assert state2.mode == "exact"


class TestRedistribute:
    def test_zero_shift_is_identity(self):
        d = QuantizedDistribution(0.0, 3, 0.5, (0.0, 0.1, 0.2, 0.4, 0.2, 0.1, 0.0))
        out = redistribute(d, 0.0)
        assert out.mass == d.mass and out.mean == 0.0

    def test_full_bin_shift_toward_lower_boundary(self):
        d = QuantizedDistribution(0.0, 2, 1.0, (0.1, 0.2, 0.4, 0.2, 0.1))
        out = redistribute(d, 1.0)
        # window moved up one bin: contents slide down, bin -N absorbs
        assert out.mean == 1.0
        np.testing.assert_allclose(out.mass, (0.3, 0.4, 0.2, 0.1, 0.0))

    def test_half_bin_shift_splits_mass(self):
        d = QuantizedDistribution(0.0, 2, 1.0, (0.0, 0.0, 1.0, 0.0, 0.0))
        out = redistribute(d, 0.5)
        np.testing.assert_allclose(out.mass, (0.0, 0.5, 0.5, 0.0, 0.0))

    def test_negative_shift_mirrors(self):
        d = QuantizedDistribution(0.0, 2, 1.0, (0.1, 0.2, 0.4, 0.2, 0.1))
        out = redistribute(d, -1.0)
        np.testing.assert_allclose(out.mass, (0.0, 0.1, 0.2, 0.4, 0.3))

    def test_mass_conserved_on_random_cases(self):
        rng = np.random.default_rng(88)
        for _ in range(500):
            n = int(rng.integers(1, 12))
            mass = rng.random(2 * n + 1)
            width = float(rng.uniform(0.05, 3.0))
            d = QuantizedDistribution(
                float(rng.uniform(-5, 5)), n, width, tuple(mass.tolist())
            )
            delta = float(rng.uniform(-4, 4) * n * width)
            out = redistribute(d, delta)
            assert_close(out.total(), d.total(), 1e-12)

    def test_overlong_shift_lands_in_boundary_bin(self):
        d = QuantizedDistribution(0.0, 2, 1.0, (0.1, 0.2, 0.4, 0.2, 0.1))
        out = redistribute(d, 100.0)
        np.testing.assert_allclose(out.mass, (1.0, 0.0, 0.0, 0.0, 0.0))
        out = redistribute(d, -100.0)
        np.testing.assert_allclose(out.mass, (0.0, 0.0, 0.0, 0.0, 1.0))

    def test_mean_tracking_for_interior_mass(self):
        # with mass concentrated in the central bins and a moderate shift,
        # the represented value-mean is preserved within one bin width
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = 8
            width = float(rng.uniform(0.2, 2.0))
            mass = np.zeros(2 * n + 1)
            inner = rng.random(n + 1)
            mass[n // 2 : n // 2 + n + 1] = inner / inner.sum()
            d = QuantizedDistribution(0.0, n, width, tuple(mass.tolist()))
            delta = float(rng.uniform(-1, 1) * n * width / 2)
            out = redistribute(d, delta)
            before = d.moment(1)
            after = out.moment(1)
            assert abs(after - before) <= width + 1e-9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_non_finite_shift_is_rejected(self, delta):
        d = QuantizedDistribution(0.0, 2, 1.0, (0.1, 0.2, 0.4, 0.2, 0.1))
        with pytest.raises(SemiringError, match=f"non-finite delta_mu, got {delta}"):
            redistribute(d, delta)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("delta, bin", [(1e10, 0), (-1e10, 4)])
    def test_an_overflowing_whole_shift_fills_a_boundary_bin(self, delta, bin):
        """delta_mu / bin_width overflows to +-inf: a whole shift past
        every bin, so all the mass lands in the bin it moves toward."""
        d = QuantizedDistribution(0.0, 2, 1e-300, (0.1, 0.2, 0.4, 0.2, 0.1))
        out = redistribute(d, delta)
        assert out.mean == delta and out.mass[bin] == pytest.approx(1.0, abs=1e-15)
        assert out.mass[:bin] + out.mass[bin + 1 :] == (0.0,) * 4


class TestBinWidth:
    @pytest.mark.parametrize("width", [math.nan, math.inf, 0.0, -1.0])
    def test_distribution_rejects_a_width_that_is_not_finite_and_positive(self, width):
        with pytest.raises(SemiringError, match=f"finite positive number, got {width}"):
            QuantizedDistribution(0.0, 1, width, (0.0, 1.0, 0.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("width", [math.nan, math.inf, 0.0])
    def test_sweeps_reject_a_given_width(self, width):
        t = build_spc_trellis(4)
        g = random_g_table(t, 3)
        for sweep in (forward_distributions, backward_distributions):
            with pytest.raises(SemiringError, match=f"finite positive number, got {width}"):
                sweep(t, g, "quantized", QuantizationParams(4, width))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_width_sized_from_a_non_finite_variance_is_rejected(self):
        """[7,5] K=3 over AWGN sigma2=0.5 with g = 1e308*clabel: the
        order-2 moments overflow, so the sized width would be nan."""
        code = build_conv_trellis((7, 5), 3)
        _, received = make_received(code, Awgn(0.5), 1)
        t = channel_lambda_labels(code, Awgn(0.5), received)
        g = DepthFunctionTable({e.id: 1e308 * e.clabel for e in t.edges})
        with pytest.raises(SemiringError, match="finite positive number, got nan"):
            forward_distributions(t, g, "quantized")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_subnormal_width_keeps_means_and_mass(self):
        """[7,5] K=3 over AWGN sigma2=0.5 with bins of width 1e-310: every
        incoming mean sits an overflowing number of bins from the next,
        so no merge snaps; the means stay the flow-weighted ones and
        every move is a whole shift into a boundary bin."""
        code = build_conv_trellis((7, 5), 3)
        _, received = make_received(code, Awgn(0.5), 1)
        t = channel_lambda_labels(code, Awgn(0.5), received)
        g = correlation_g_table(t, received)
        params = QuantizationParams(4, 1e-310)
        fd = forward_distributions(t, g, "quantized", params)
        bd = backward_distributions(t, g, "quantized", params)
        mean = trellis_moments(forward_numerators(t, g, 1)).normalized[1]
        for dist in (fd.quantized[t.sink], bd.quantized[t.source]):
            assert_close(dist.mean, mean, 1e-12)
            assert all(map(math.isfinite, dist.mass)) and abs(dist.total() - 1.0) <= 1e-12
        for depth in range(t.rank + 1):
            cut = trellis_distribution(fd, bd, depth)
            assert_close(cut.mean, mean, 1e-12)
            assert_close(cut.total(), fd.flows[t.sink], 1e-12)


class TestQuantizedPipeline:
    def test_hard_decision_reproduces_exact_spc(self):
        # Biased labels exercise non-uniform joining weights; N equal to
        # the rank keeps the window over the whole domain wherever the
        # tracked mean drifts.
        t = build_spc_trellis(4)
        rng = np.random.default_rng(7)
        t = t.relabeled(lambda e: float(rng.uniform(0.1, 1.0)))
        g = DepthFunctionTable.from_clabels(t)
        params = QuantizationParams(half_bins=4, bin_width=2.0)
        fe = forward_distributions(t, g, mode="exact")
        be = backward_distributions(t, g, mode="exact")
        fq = forward_distributions(t, g, mode="quantized", params=params)
        bq = backward_distributions(t, g, mode="quantized", params=params)
        for depth in range(t.rank + 1):
            exact = trellis_distribution(fe, be, depth)
            quant = trellis_distribution(fq, bq, depth)
            assert_same_mass(dist_as_dict(quant), dist_as_dict(exact), 1e-10)
        for depth in range(1, t.rank + 1):
            for x in (-1.0, 1.0):
                exact = symbol_distribution(t, g, fe, be, depth, x)
                quant = symbol_distribution(t, g, fq, bq, depth, x)
                assert_same_mass(
                    dist_as_dict(quant), dist_as_dict(exact), 1e-10
                )

    def test_hard_decision_reproduces_exact_conv(self):
        t = build_conv_trellis((7, 5), 4)
        channel = Bsc(0.35)
        _, received = make_received(t, channel, 5)
        labeled = channel_lambda_labels(t, channel, received)
        g = correlation_g_table(labeled, received)
        n = labeled.rank
        params = QuantizationParams(half_bins=n, bin_width=2.0)
        fe = forward_distributions(labeled, g, mode="exact")
        be = backward_distributions(labeled, g, mode="exact")
        fq = forward_distributions(labeled, g, mode="quantized", params=params)
        bq = backward_distributions(labeled, g, mode="quantized", params=params)
        exact = trellis_distribution(fe, be, n // 2)
        quant = trellis_distribution(fq, bq, n // 2)
        assert_same_mass(dist_as_dict(quant), dist_as_dict(exact), 1e-9)

    def test_soft_decision_approximates_moments(self):
        t = random_trellis(23)
        g = random_g_table(t, 230)
        params = QuantizationParams(half_bins=64)
        fq = forward_distributions(t, g, mode="quantized", params=params)
        bq = backward_distributions(t, g, mode="quantized", params=params)
        dist = trellis_distribution(fq, bq, t.rank // 2)
        engine = trellis_moments(forward_numerators(t, g, 2))
        assert_close(dist.total(), engine.numerators[0], 1e-9)
        mean_err = abs(
            dist.moment(1) / dist.total() - engine.normalized[1]
        )
        assert mean_err <= fq.bin_width

    def test_auto_bin_width_spans_four_sigma(self, spc4):
        g_soft = random_g_table(spc4, 81)
        state = forward_distributions(spc4, g_soft, mode="quantized")
        engine = trellis_moments(forward_numerators(spc4, g_soft, 2))
        sigma = math.sqrt(engine.normalized[2] - engine.normalized[1] ** 2)
        assert_close(state.bin_width, 4.0 * sigma / 32, 1e-12)

    def test_zero_normalizer_names_vertex(self):
        t = Trellis(
            2,
            {0: 0, 1: 1, 2: 2},
            [Edge(0, 0, 1, 0.0), Edge(1, 1, 2, 1.0)],
        )
        g = DepthFunctionTable.constant(t, 1.0)
        with pytest.raises(ZeroFlowError) as err:
            forward_distributions(
                t, g, mode="quantized", params=QuantizationParams(4, 1.0)
            )
        assert err.value.vertex == 1

    def test_empty_symbol_returns_zero_distribution(self, spc4, spc4_clabel_g):
        params = QuantizationParams(half_bins=2, bin_width=2.0)
        fq = forward_distributions(spc4, spc4_clabel_g, "quantized", params)
        bq = backward_distributions(spc4, spc4_clabel_g, "quantized", params)
        dist = symbol_distribution(spc4, spc4_clabel_g, fq, bq, 1, 9.0)
        assert dist.total() == 0.0


def _states(t, g, mode):
    return forward_distributions(t, g, mode), backward_distributions(t, g, mode)


def _quantized_pair(t, g, forward, backward):
    return (
        forward_distributions(t, g, "quantized", QuantizationParams(*forward)),
        backward_distributions(t, g, "quantized", QuantizationParams(*backward)),
    )


BOUNDARY_ERRORS = [
    pytest.param(
        lambda t, g: forward_distributions(t, g, "fuzzy"),
        SemiringError, "unknown distribution mode 'fuzzy'",
        id="unknown mode",
    ),
    pytest.param(
        lambda t, g: trellis_distribution(*_states(t, g, "exact")[::-1]),
        SemiringError, "need one forward and one backward",
        id="directions swapped",
    ),
    pytest.param(
        lambda t, g: trellis_distribution(
            forward_distributions(t, g, "exact"), backward_distributions(t, g, "quantized")
        ),
        SemiringError, "forward and backward states use different modes",
        id="modes differ",
    ),
    pytest.param(
        lambda t, g: trellis_distribution(*_quantized_pair(t, g, (2, 2.0), (3, 2.0))),
        SemiringError, "quantization parameters differ",
        id="half bins differ",
    ),
    pytest.param(
        lambda t, g: symbol_distribution(t, g, *_quantized_pair(t, g, (2, 2.0), (2, 1.0)), 1, 1.0),
        SemiringError, "quantization parameters differ",
        id="widths differ",
    ),
    pytest.param(
        lambda t, g: trellis_distribution(*_states(t, g, "exact"), -1),
        SemiringError, r"cut depth -1 outside 0\.\.4",
        id="cut below 0",
    ),
    pytest.param(
        lambda t, g: trellis_distribution(*_states(t, g, "quantized"), 5),
        SemiringError, r"cut depth 5 outside 0\.\.4",
        id="cut past the rank",
    ),
    pytest.param(
        lambda t, g: symbol_distribution(t, g, *_states(t, g, "exact"), 0, 1.0),
        SemiringError, r"section depth 0 outside 1\.\.4",
        id="section depth 0",
    ),
    pytest.param(
        lambda t, g: symbol_distribution(t, g, *_states(t, g, "quantized"), 5, 1.0),
        SemiringError, r"section depth 5 outside 1\.\.4",
        id="section depth past the rank",
    ),
    pytest.param(
        lambda t, g: forward_distributions(t.relabeled(np.zeros(len(t.edges))), g, "quantized"),
        ZeroFlowError, "cannot size bins: total flow is zero",
        id="no flow to size bins",
    ),
]


@pytest.mark.parametrize("call, error, match", BOUNDARY_ERRORS)
def test_boundary_errors(spc4, spc4_clabel_g, call, error, match):
    with pytest.raises(error, match=match):
        call(spc4, spc4_clabel_g)
