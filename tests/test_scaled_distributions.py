"""Distributions under the sweeps' one rescale rule.

The exact and quantized sweeps scale each layer by a power of two, by the
rule the moment sweep uses (``moments._Scale``), and a join hands back
its scaled masses with the sum of both layers' exponents.  The public
joins return raw masses, which underflow on long codes; the figures and
the CLI's normalized column read the scaled ones, which stay finite.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trelliskit import (
    Awgn,
    Bsc,
    DepthFunctionTable,
    LatticeError,
    ZeroFlowError,
    backward_distributions,
    build_conv_trellis,
    channel_lambda_labels,
    correlation_g_table,
    forward_distributions,
    forward_numerators,
    lattice_step,
    make_received,
    symbol_distribution,
    trellis_distribution,
)
from trelliskit import distributions
from trelliskit.codes import correlation_distribution_with_gaussian, correlation_symbol_curves
from trelliskit.distributions import QuantizationParams, _join
from trelliskit.oracles import random_trellis

PROPERTY_SETTINGS = settings(
    max_examples=100, deadline=None, derandomize=True, database=None
)


def small_trellis(seed):
    """A random trellis of rank <= 7, width <= 3, with parallel edges."""
    return random_trellis(
        seed, max_rank=7, max_width=3, parallel_edge_prob=0.3, extra_edge_prob=0.5
    )


def pair(t, g, mode, params=None):
    fd = forward_distributions(t, g, mode, params)
    if fd.mode == "quantized":
        params = QuantizationParams(fd.half_bins, fd.bin_width)
    return fd, backward_distributions(t, g, fd.mode, params)


def joins(t, g, fd, bd, stride=1):
    """(cut, constraint) and the scaled join, for every ``stride``-th cut
    and section, each section with both c-labels."""
    for cut in range(0, t.rank + 1, stride):
        yield (cut, None), _join(t, g, fd, bd, cut)
    for depth in range(1, t.rank + 1, stride):
        for symbol in (1.0, -1.0):
            yield (0, (depth, symbol)), _join(t, g, fd, bd, 0, (depth, symbol))


def log2_flow(t, g):
    row, exponent = forward_numerators(t, g, 0).scaled(t.sink)
    return math.log2(row[0]) + exponent


def word(generators, info_len, channel, seed):
    code = build_conv_trellis(generators, info_len)
    _, received = make_received(code, channel, seed)
    t = channel_lambda_labels(code, channel, received)
    return t, correlation_g_table(t, received)


LONG_CASES = [
    # (info length, channel, seed, g, mode, stride)
    (300, Awgn(2.0), 3, "c.r", "quantized", 13),
    (300, Awgn(2.0), 3, "clabel", "exact", 13),
    (1200, Bsc(0.35), 0, "c.r", "exact", 97),
    (3200, Bsc(0.05), 1, "c.r", "exact", 499),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("info_len, channel, seed, which, mode, stride", LONG_CASES)
def test_long_codes_stay_finite(info_len, channel, seed, which, mode, stride):
    """[7,5] codes whose flow underflows a double: every scaled cut and
    symbol join is finite, a cut's normalized masses sum to 1 within
    1e-12, and its log2 total is the moment sweep's log2 flow within
    1e-9; the subcodes' log2 totals add up to it too."""
    t, g = word((7, 5), info_len, channel, seed)
    if which == "clabel":
        g = DepthFunctionTable.from_clabels(t)
    fd, bd = pair(t, g, mode)
    assert fd.mode == mode
    want = log2_flow(t, g)
    assert trellis_distribution(fd, bd, t.rank // 2).total() == 0.0  # the raw flow underflows
    for (cut, constraint), (dist, exponent) in joins(t, g, fd, bd, stride):
        assert all(map(math.isfinite, dist.mass)), (cut, constraint)
        total = math.fsum(dist.mass)
        if constraint is None:
            assert abs(math.fsum(w / total for w in dist.mass) - 1.0) <= 1e-12
            assert abs(math.log2(total) + exponent - want) <= 1e-9 * abs(want)
        else:
            depth, _ = constraint
            other = _join(t, g, fd, bd, 0, (depth, -constraint[1]))[0].total()
            assert abs(math.log2(total + other) + exponent - want) <= 1e-9 * abs(want)


def test_long_code_figures_normalize_the_scaled_masses():
    """Figure 1 and figure 3 on [7,5] K=1200 over a BSC with p=0.35,
    seed 0, where the raw flow is 0: both curves of figure 1 add up to 1
    and figure 3's normalized column sums to 1."""
    curves = correlation_symbol_curves((7, 5), 1200, 0.35, 10, 0)
    total = math.fsum(curves["mass_plus"]) + math.fsum(curves["mass_minus"])
    assert abs(total - 1.0) <= 1e-12
    data = correlation_distribution_with_gaussian((7, 5), 1200, 0.35, 0)
    assert not any(data["mass"])
    assert abs(math.fsum(data["normalized_mass"]) - 1.0) <= 1e-12


@st.composite
def scaled_instances(draw):
    """A random trellis with labels in (0, 1], some 0, its per-section
    shifts s_d (|s_d| <= 300), a mode and g: bipolar or on halves for the
    exact mode, normal for the quantized one."""
    seed = draw(st.integers(0, 10**6))
    t = small_trellis(seed)
    zero = draw(st.sets(st.sampled_from([e.id for e in t.edges]), max_size=len(t.edges) // 4))
    t = t.relabeled(lambda e: 0.0 if e.id in zero else e.lam)
    shifts = draw(st.lists(st.integers(-300, 300), min_size=t.rank, max_size=t.rank))
    mode = draw(st.sampled_from(["exact", "quantized"]))
    rng = np.random.default_rng(seed)
    if mode == "exact":
        values = rng.choice([-1.0, 1.0, 0.5, -1.5], size=len(t.edges))
    else:
        values = rng.normal(size=len(t.edges))
    g = DepthFunctionTable({e.id: float(v) for e, v in zip(t.edges, values)})
    return t, g, shifts, mode


@PROPERTY_SETTINGS
@given(scaled_instances())
def test_section_scaling_only_shifts_the_join_exponent(instance):
    """Multiplying the labels of section d by 2^-s_d multiplies every
    path label by 2^-sum(s_d): in both modes every cut's and symbol's
    scaled join keeps its normalized masses bit for bit, and its log2
    total moves by -sum(s_d)."""
    t, g, shifts, mode = instance
    scaled = t.relabeled(np.ldexp(t._lam, -np.asarray(shifts)[t.edge_arrays.section]))
    params = QuantizationParams(4, 0.25) if mode == "quantized" else None
    try:
        want = list(joins(t, g, *pair(t, g, mode, params)))
    except ZeroFlowError as err:  # a quantized sweep through a dead vertex
        with pytest.raises(ZeroFlowError) as again:
            pair(scaled, g, mode, params)
        assert again.value.vertex == err.vertex
        return
    got = list(joins(scaled, g, *pair(scaled, g, mode, params)))
    for (where, (a, a_exp)), (_, (b, b_exp)) in zip(got, want):
        a_total, b_total = sum(a.mass), sum(b.mass)
        assert (a_total == 0.0) == (b_total == 0.0), where
        if b_total == 0.0:
            continue
        assert [(w / a_total).hex() for w in a.mass] == [(w / b_total).hex() for w in b.mass]
        (a_mantissa, a_shift), (b_mantissa, b_shift) = math.frexp(a_total), math.frexp(b_total)
        assert a_mantissa == b_mantissa, where
        assert a_shift + a_exp == b_shift + b_exp - sum(shifts), where


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exact_overflow_is_inf_as_in_quantized_mode():
    """[7,5] K=3 with every label 1e300: the exact sweep rescales its
    masses, so the joins convolve no inf with a zero column and their raw
    totals overflow to inf, as the quantized mode's do, not to nan."""
    t = build_conv_trellis((7, 5), 3).relabeled(lambda e: 1e300)
    g = DepthFunctionTable.from_clabels(t)
    for mode in ("exact", "quantized"):
        fd, bd = pair(t, g, mode)
        assert trellis_distribution(fd, bd, t.rank // 2).total() == math.inf
        assert symbol_distribution(t, g, fd, bd, 3, 1.0).total() == math.inf


def test_matched_variance_is_never_negative():
    """Figure 3 of the one-codeword [7,5] code is a point mass, whose
    E[f^2] - E[f]^2 cancels to a residue of either sign: the variance
    written is floored at 0 for every seed (seed 1 gave -4.4e-16)."""
    for seed in range(10):
        meta = correlation_distribution_with_gaussian((7, 5), 0, 0.35, seed)["meta"]
        assert meta["variance"] >= 0.0, seed


def test_lattice_finder_finds_tenths_and_thirds():
    """g = 0.1*k or k/3 with |k| <= 4000 on random trellises (rank <= 7,
    width <= 3), 600 seeds each: the step is found every time, within
    twice the alignment tolerance of the true one, unit times the gcd of
    the spreads of k, and every edge gets the true shift."""
    for seed in range(600):
        t = small_trellis(seed)
        plan = t.plan("forward")
        k = np.random.default_rng(seed).integers(-4000, 4001, size=len(t.edges))
        walked = k[plan.edges]
        lows = np.minimum.reduceat(walked, plan.bounds[:-1])
        spread = walked - np.repeat(lows, np.diff(plan.bounds))
        gcd = math.gcd(*spread.tolist())
        for unit, values in ((0.1, 0.1 * k), (1 / 3, k / 3)):
            try:
                step = lattice_step(t, values)
            except LatticeError:
                pytest.fail(f"seed {seed}, unit {unit}: no lattice found")
            assert abs(step - unit * gcd) <= 2e-9 * unit * gcd, (seed, unit)
            _, _, shifts = distributions._lattice(values[plan.edges], plan.bounds)
            assert shifts.tolist() == (spread // gcd if gcd else spread).tolist()
