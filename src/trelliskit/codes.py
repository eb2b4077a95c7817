"""Code trellis builders, channel models and entropy computations.

A binary linear block code is represented by a trellis whose
source-to-sink paths are exactly its codewords (bipolar c-labels, one
code symbol per edge).  Labeling the edges with memoryless channel
likelihoods makes every path label the conditional probability of the
received word given that codeword, after which the moment and
distribution engines deliver correlation moments, symbol probabilities
and conditional entropies of the code and of its one-bit subcodes, each
from one forward moment sweep (``moments._posterior``) that stays finite
on codes whose flow underflows a float.

For both the binary symmetric and the AWGN channel the uncertainty
-log2 P(c|w) is affine in the correlation c.w:

    -log2 P(w|c) = -(K1b + K2 * c.w)          K2 > 0

so the mean uncertainty of a (sub)code is K1a - K1b - K2 times the first
correlation moment, where K1a = log2 P(w) - log2 P(c) reduces, for
equiprobable codewords and w equal to the received word, to log2 of the
total flow.  (The affine relation carries a minus sign in front of K2:
higher correlation means lower uncertainty.)
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ChannelError, TrellisStructureError, ZeroFlowError
from .trellis import DepthFunctionTable, Trellis, _chained, is_bipolar

MAX_CONV_MEMORY = 16


# -- channel models -----------------------------------------------------------


@dataclass(frozen=True)
class Bsc:
    """Binary symmetric channel with crossover probability 0 < p < 1/2."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 0.5:
            raise ChannelError(
                f"BSC crossover probability must be in (0, 0.5), got {self.p}"
            )

    kind = "bsc"

    @property
    def param(self) -> float:
        return self.p


@dataclass(frozen=True)
class Awgn:
    """AWGN channel with noise variance 0 < sigma2 < inf (unit bipolar input)."""

    sigma2: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0.0):
            raise ChannelError(
                f"AWGN noise variance must be finite and positive, got {self.sigma2}"
            )

    kind = "awgn"

    @property
    def param(self) -> float:
        return self.sigma2


ChannelModel = Union[Bsc, Awgn]


def parse_channel(spec: str) -> ChannelModel:
    """Parse "bsc:<p>" or "awgn:<sigma2>"."""
    kind, _, param = spec.partition(":")
    try:
        value = float(param)
    except ValueError:
        raise ChannelError(f"bad channel parameter in {spec!r}") from None
    if kind == "bsc":
        return Bsc(value)
    if kind == "awgn":
        return Awgn(value)
    raise ChannelError(f"unknown channel kind {kind!r} (use bsc or awgn)")


def edge_likelihood(channel: ChannelModel, received: float, symbol: float) -> float:
    """P(received | symbol) for one position of a memoryless channel."""
    if isinstance(channel, Bsc):
        if not is_bipolar(received):
            raise ChannelError(
                f"BSC received symbols must be +/-1, got {received}"
            )
        return 1.0 - channel.p if received == symbol else channel.p
    return math.exp(
        -((received - symbol) ** 2) / (2.0 * channel.sigma2)
    ) / math.sqrt(2.0 * math.pi * channel.sigma2)


def channel_lambda_labels(
    trellis: Trellis, channel: ChannelModel, received: Sequence[float]
) -> Trellis:
    """Relabel every edge with P(r_i | c-label) for its section i.

    The likelihood is computed once per (section, c-label) group and
    scattered to the group's edges.  The groups are evaluated in the
    order of their first edge, so a bad received value is reported for
    the first edge that meets it, as an edge-by-edge pass would.
    """
    if len(received) != trellis.rank:
        raise ChannelError(
            f"received word length {len(received)} does not match "
            f"trellis rank {trellis.rank}"
        )
    outside = trellis.edge_arrays.section == trellis.rank
    if outside.any():
        edge_id = int(trellis.edge_arrays.ids[np.argmax(outside)])
        raise TrellisStructureError(
            f"edge {edge_id} leaves the final layer and has no received symbol"
        )
    groups = trellis._symbol_groups()
    bounds = groups.offsets
    likelihood = np.empty(len(groups.depths))
    depths, clabels = groups.depths.tolist(), groups.clabels.tolist()
    for k in np.argsort(groups.positions[bounds[:-1]]).tolist():
        likelihood[k] = edge_likelihood(channel, received[depths[k] - 1], clabels[k])
    lam = np.empty(len(trellis._lam))
    lam[groups.positions] = np.repeat(likelihood, np.diff(bounds))
    return trellis.relabeled(lam)


def transmit(
    codeword: Sequence[float], channel: ChannelModel, rng: np.random.Generator
) -> list[float]:
    """Draw one channel output word for a bipolar codeword."""
    if isinstance(channel, Bsc):
        return [
            -c if rng.random() < channel.p else float(c) for c in codeword
        ]
    noise = rng.normal(0.0, math.sqrt(channel.sigma2), size=len(codeword))
    return [float(c + n) for c, n in zip(codeword, noise)]


def random_codeword(trellis: Trellis, rng: np.random.Generator) -> list[float]:
    """c-labels along a random source-to-sink walk: at each vertex, one
    of its out-edges, in edge order, drawn uniformly."""
    a = trellis.edge_arrays
    order = np.argsort(a.init, kind="stable")
    tails, heads, clabels = a.init[order], a.fin[order].tolist(), a.clabel[order].tolist()
    word, v = [], trellis.source
    while v != trellis.sink:
        lo, hi = np.searchsorted(tails, (v, v + 1)).tolist()
        k = lo + int(rng.integers(0, hi - lo))
        word.append(clabels[k])
        v = heads[k]
    return word


def make_received(
    trellis: Trellis, channel: ChannelModel, seed: int
) -> tuple[list[float], list[float]]:
    """Seeded (transmitted codeword, received word) pair; seed a whole
    number >= 0."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ChannelError(f"seed must be a whole number at least 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    codeword = random_codeword(trellis, rng)
    return codeword, transmit(codeword, channel, rng)


# -- code trellis builders -------------------------------------------------------


def build_spc_trellis(n: int) -> Trellis:
    """Single-parity-check code trellis of block length n >= 2.

    Source-to-sink paths are exactly the 2^(n-1) even-parity bipolar
    words.  Vertices track the running parity: at depths 1..n-1 the
    even-parity state has id 2*depth-1 and the odd one 2*depth; all
    lambda-labels start at 1.
    """
    if n < 2:
        raise TrellisStructureError(f"SPC block length must be >= 2, got {n}")
    # (depth, parity before, flip) of every edge, in edge order: a -1
    # symbol flips the parity, and the sink takes even parity.
    d, p, x = np.array(
        [(d, p, x) for d in range(1, n + 1) for p in range(1 + (d > 1)) for x in (0, 1)
         if d < n or p == x]
    ).T
    v = np.arange(2 * n)
    return Trellis._from_arrays(
        n, v, (v + 1) // 2, np.arange(len(d)), np.maximum(2 * d - 3 + p, 0),
        2 * d - 1 + (p ^ x), np.ones(len(d)), 1.0 - 2.0 * x,
    )


def parse_generators(spec: str) -> tuple[int, ...]:
    """Parse a comma-separated octal generator list such as "7,5"."""
    gens = []
    for item in spec.split(","):
        item = item.strip()
        try:
            gens.append(int(item, 8))
        except ValueError:
            raise TrellisStructureError(
                f"invalid octal generator {item!r}"
            ) from None
    if not gens or any(g <= 0 for g in gens):
        raise TrellisStructureError(f"invalid generator list {spec!r}")
    return tuple(gens)


def build_conv_trellis(generators: Sequence[int], info_len: int) -> Trellis:
    """Zero-tail terminated feedforward convolutional code trellis.

    Generators are octal-style tap masks (most significant bit weights
    the current input).  The returned trellis carries one code symbol
    per edge: each state transition of the rate-1/c machine is split
    into a chain of c edges, so the rank is c*(info_len + memory).
    """
    gens = tuple(int(g) for g in generators)
    if not gens or any(g <= 0 for g in gens):
        raise TrellisStructureError(f"generators must be positive, got {gens}")
    if info_len < 0:
        raise TrellisStructureError(f"info length must be >= 0, got {info_len}")
    memory = max(g.bit_length() for g in gens) - 1
    if memory > MAX_CONV_MEMORY:
        raise TrellisStructureError(
            f"encoder memory {memory} exceeds the supported maximum "
            f"{MAX_CONV_MEMORY}"
        )
    sections = info_len + memory
    if sections == 0:
        raise TrellisStructureError(
            "memoryless code with zero info bits has an empty trellis"
        )

    # Layer t holds the states whose bits low[t]..high[t]-1 are free (the
    # bits below are the zero start, those above the zero tail), and the
    # state j << low[t] is its row j.
    t = np.arange(sections + 1)
    low = np.maximum(memory - t, 0)
    high = memory - np.maximum(t - info_len, 0)
    sizes = 1 << np.maximum(high - low, 0)
    first = np.cumsum(sizes) - sizes
    # A section's edges: each state of the layer before, in order, with
    # input 0 and then 1 (only 0 in the tail).
    inputs = np.where(t[1:] <= info_len, 2, 1)
    counts = sizes[:-1] * inputs
    section = np.repeat(t[:-1], counts)
    local = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    row, u = np.divmod(local, inputs[section])
    # The input and the state, whose shift by one is the next state.
    window = (u << memory) | (row << low[section])
    # Each output symbol is the parity of its generator's taps.
    taps = window[:, None] & np.array(gens)
    for shift in (16, 8, 4, 2, 1):
        taps ^= taps >> shift
    init = first[section] + row
    fin = first[section + 1] + ((window >> 1) >> low[section + 1])
    symbols = 1.0 - 2.0 * (taps & 1)
    return _chained(sections, sizes, init, fin, section, np.ones(len(init)), symbols)


# -- uncertainty / correlation constants ----------------------------------------


@dataclass(frozen=True)
class UncertaintyConstants:
    """Constants of the affine uncertainty-correlation relation.

    log2 P(w|c) = k1b + k2 * (c . w), so the uncertainty of one codeword
    is -log2 P(c|w) = k1a - k1b - k2 * (c . w) with k1a = log2 of the
    ratio P(w)/P(c).  k1a depends on the codeword prior and the word
    marginal; it is None unless supplied (code entropies pin it to log2
    of the total flow).
    """

    k1b: float
    k2: float
    k1a: Optional[float] = None

    @property
    def k1(self) -> float:
        if self.k1a is None:
            raise ChannelError(
                "k1 undefined: no k1a term was supplied for these constants"
            )
        return self.k1a - self.k1b


def uncertainty_constants(
    channel: ChannelModel,
    word: Sequence[float],
    k1a: Optional[float] = None,
) -> UncertaintyConstants:
    """K1b and K2 of log2 P(w|c) = K1b + K2 * c.w for this channel.

    Assumes equiprobable codewords; K2 is positive for any valid channel
    (p < 1/2, sigma2 > 0).
    """
    n = len(word)
    if isinstance(channel, Bsc):
        p = channel.p
        k2 = 0.5 * math.log2((1.0 - p) / p)
        k1b = 0.5 * n * math.log2(p * (1.0 - p))
        return UncertaintyConstants(k1b, k2, k1a)
    sigma2 = channel.sigma2
    energy = sum(w * w for w in word)
    k2 = 1.0 / (sigma2 * math.log(2.0))
    k1b = n * math.log2(1.0 / math.sqrt(2.0 * math.pi * sigma2)) - (
        n + energy
    ) / (2.0 * sigma2 * math.log(2.0))
    return UncertaintyConstants(k1b, k2, k1a)


# -- correlation moments and entropies -------------------------------------------


def correlation_g_table(trellis: Trellis, word: Sequence[float]) -> DepthFunctionTable:
    """Per-edge contributions c(e) * w_i of the correlation function."""
    if len(word) != trellis.rank:
        raise ChannelError(
            f"word length {len(word)} does not match trellis rank {trellis.rank}"
        )
    a = trellis.edge_arrays
    return DepthFunctionTable.from_values(
        trellis, a.clabel * np.asarray(word, dtype=float)[a.section]
    )


def correlation_moments(
    trellis: Trellis,
    word: Sequence[float],
    max_order: int,
    constraint: Optional[tuple[int, float]] = None,
) -> tuple[float, ...]:
    """Normalized moments of c.w over the code, given the edge labels.

    The trellis must already carry channel likelihoods as lambda-labels;
    the result is then the posterior expectation of (c.w)^m for m up to
    ``max_order``, restricted to the subcode when ``constraint=(depth,
    symbol)`` is given; order and depth must be whole numbers.
    """
    from .moments import _posterior

    g = correlation_g_table(trellis, word)
    return _posterior(trellis, g, max_order, constraint).normalized


@dataclass(frozen=True)
class EntropyResult:
    """Conditional entropy of a code or subcode plus its ingredients."""

    entropy_bits: float
    first_moment: float
    constants: UncertaintyConstants
    log2_flow: float


def conditional_entropy_detail(
    trellis: Trellis,
    channel: ChannelModel,
    received: Sequence[float],
    constraint: Optional[tuple[int, float]] = None,
) -> EntropyResult:
    """Mean posterior uncertainty of the (sub)code given ``received``.

    The trellis lambda-labels must be the channel likelihoods of
    ``received`` (see channel_lambda_labels).  The uncertainty of each
    codeword is -log2 of its full-code posterior; with a constraint the
    average is taken under the posterior renormalized over the subcode.
    Everything is evaluated on the trellis: the affine
    uncertainty-correlation relation reduces the entropy to
    log2(flow) - K1b - K2 times the first correlation moment.  A
    constraint's depth must be a whole number in 1..rank.
    """
    from .moments import _posterior

    g = correlation_g_table(trellis, received)
    # Row 0 and its exponent have the same bits at any order, so the
    # whole code's sweep needs order 1 only when its moment is read.
    code = _posterior(trellis, g, 1 if constraint is None else 0)
    log2_flow = code.log2_flow
    if constraint is not None:
        code = _posterior(trellis, g, 1, constraint)
    first = code.normalized[1]
    constants = uncertainty_constants(channel, received, k1a=log2_flow)
    entropy = constants.k1 - constants.k2 * first
    if entropy <= 0.0:
        # The difference of two large terms can round below 0 near H = 0.
        entropy = 0.0
    return EntropyResult(entropy, first, constants, log2_flow)


def conditional_entropy(
    trellis: Trellis,
    channel: ChannelModel,
    received: Sequence[float],
    constraint: Optional[tuple[int, float]] = None,
) -> float:
    """Conditional entropy in bits; see conditional_entropy_detail."""
    return conditional_entropy_detail(
        trellis, channel, received, constraint
    ).entropy_bits


def symbol_probability(trellis: Trellis, depth: int, symbol: float) -> float:
    """Symbol probability P(c_i = x | r) on a likelihood-labeled trellis:
    the subcode's flow over the code's, each from one order-0 sweep;
    ``depth`` (i) must be a whole number in 1..rank.
    """
    from .moments import _posterior

    g = DepthFunctionTable.constant(trellis, 0.0)
    code = _posterior(trellis, g, 0)
    try:
        subcode = _posterior(trellis, g, 0, (depth, symbol))
    except ZeroFlowError:
        return 0.0
    return math.ldexp(subcode.flow / code.flow, subcode.exponent - code.exponent)


# -- figure datasets ---------------------------------------------------------------


def _figure_word(generators: Sequence[int], info_len: int, p: float, seed: int):
    """The code trellis labeled with one seeded BSC word, the g table of c.r,
    its exact forward and backward distributions, and ``meta(key, value,
    **tail)``: the shared meta fields, with ``key`` before both words."""
    from .distributions import backward_distributions, forward_distributions

    channel = Bsc(p)
    trellis = build_conv_trellis(generators, info_len)
    codeword, received = make_received(trellis, channel, seed)
    labeled = channel_lambda_labels(trellis, channel, received)
    g = correlation_g_table(labeled, received)
    fwd = forward_distributions(labeled, g, mode="exact")
    bwd = backward_distributions(labeled, g, mode="exact")

    def meta(key: str, value, **tail) -> dict:
        return {"seed": seed, "p": p, "generators_octal": [f"{x:o}" for x in generators],
                "info_len": info_len, "block_len": labeled.rank, key: value,
                "transmitted": codeword, "received": received, **tail}

    return labeled, g, fwd, bwd, meta


def correlation_symbol_curves(
    generators: Sequence[int],
    info_len: int,
    p: float,
    depth: int,
    seed: int,
) -> dict:
    """Weighted symbol distributions of c.r for one seeded BSC instance.

    Builds the terminated convolutional trellis, draws a transmit
    codeword and its BSC output from the seed, and returns, over the full
    correlation domain {-n..n}, the two curves
    P(c.r = u, c_i = +/-1 | r): the per-symbol value distributions scaled
    by the total flow.  Each curve sums to the symbol probability.
    """
    from .distributions import _join

    labeled, g, fwd, bwd, meta = _figure_word(generators, info_len, p, seed)
    # The curves partition the code and both take the same layers' powers
    # of two, so their scaled masses add to the code's scaled flow.
    plus, minus = (_join(labeled, g, fwd, bwd, 0, (depth, x))[0] for x in (1.0, -1.0))
    flow = plus.total() + minus.total()
    return {
        "domain": list(plus.values()),
        "mass_plus": [w / flow for w in plus.mass],
        "mass_minus": [w / flow for w in minus.mass],
        "meta": meta("symbol_depth", depth, prob_plus=float(sum(plus.mass) / flow),
                     prob_minus=float(sum(minus.mass) / flow)),
    }


def correlation_distribution_with_gaussian(
    generators: Sequence[int],
    info_len: int,
    p: float,
    seed: int,
    cut: Optional[int] = None,
) -> dict:
    """Whole-code c.r distribution plus its matched-moment Gaussian.

    Returns the raw and normalized distribution over the correlation
    domain together with a Gaussian reference whose mean and variance
    equal the distribution's first two normalized moments, as CLI
    ``distribution`` builds them; ZeroFlowError if the flow is not positive.
    """
    from .distributions import _dataset

    labeled, g, fwd, bwd, meta = _figure_word(generators, info_len, p, seed)
    cut = labeled.rank // 2 if cut is None else cut
    domain, mass, normalized, gaussian, fit = _dataset(labeled, g, fwd, bwd, cut)
    if fit is None:
        raise ZeroFlowError(None, "total flow is zero or negative")
    return {
        "domain": domain,
        "mass": mass,
        "normalized_mass": normalized,
        "gaussian_approx": gaussian,
        "meta": meta("cut", cut, mean=fit[0], variance=fit[1]),
    }
