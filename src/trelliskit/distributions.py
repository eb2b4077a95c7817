"""Exact and quantized distributions of separable path functions.

The value distribution of f over all source-to-sink paths (each path
weighted by its label) propagates through the trellis just like the
flows: traversing an edge shifts the domain of the incoming distribution
by that edge's g value and scales it by the edge label; merging at a
vertex adds distributions; combining a forward and a backward
distribution convolves them.

Two representations are provided:

* ``ExactDistribution`` — weights on a regular value lattice
  (offset + k*step).  Exact whenever all g values of each section lie on
  a common lattice; for bipolar +/-1 g values the final domain is
  {-n, -n+2, ..., n}.
* ``QuantizedDistribution`` — 2N+1 uniform mid-tread bins of width delta
  arranged around a tracked mean; supports arbitrary real g values.  The
  mean is updated by weighted averaging when paths join, and bin contents
  are linearly redistributed to the new partition margins, accumulating
  clipped mass in the two boundary bins.  Total mass is conserved
  exactly (up to rounding).

When every merge's incoming means agree modulo the bin width (the
hard-decision case), the tracked mean snaps onto that common lattice so
that every redistribution moves whole bins; the quantized pipeline then
reproduces the exact one bin for bin.

A sweep does its numeric work one layer at a time in numpy, on one
(vertices x values) block per layer.  In exact mode ``_lattice`` finds
each edge's integer lattice shift once per sweep, as it does for
``lattice_step`` and the joins.  Where paths merge (``WalkPlan.merges``)
an exact layer is one gather, one lambda scale and one scatter onto a
lattice window shared by the layer; a quantized one merges, snaps the
means and moves the bins in ``_merge_quantized``, reading each row's
target bins from a table built once per pair of bin counts.  A chain
layer, where each vertex has one edge, stores no block: an exact row is
its neighbour's scaled by lambda, at the neighbour's column offset plus
the shift, and a quantized vertex adds g to its neighbour's mean and
keeps its bins.  A state so keeps the blocks of merge layers only, about
a third of the bytes on a split convolutional trellis, and builds a
chain row, bit for bit as the sweep would have stored it, and a vertex's
``ExactDistribution``, ``QuantizedDistribution`` or flow only when read.
Both sweeps scale each layer by a power of two under the moment sweeps'
rule (``moments._Scale``): the quantized flows, and the exact masses,
where a chain layer whose masses a rescale moves keeps its block.

The whole-trellis and symbol distributions are one join, ``_join``:
forward (x) edge (x) backward summed over the edges of one section, as
BCJR joins its state and branch posteriors.  A symbol distribution joins
the section's edges that carry the c-label; a cut at depth d is a
section of identity edges, each vertex of layer d to itself with g 0
and lambda 1.  Exact rows scatter on the edges' lattice shifts plus both
rows' column offsets, as in the sweep; quantized rows merge as one
owner's rows in the sweep's merge.  The join keeps the masses scaled and
adds both layers' exponents.  ``trellis_distribution``,
``symbol_distribution`` and vertex reads apply the exponent, so their raw
masses underflow where the flow does; the CLI's normalized column and
the figures normalize the scaled masses, which stay finite.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Optional, Union

import numpy as np

from .errors import LatticeError, SemiringError, ZeroFlowError
from .moments import (
    MomentState, _LayerRows, _quiet, _require_flow, _require_swept_over, _Scale,
    _same_topology, _section, _unscaled, backward_numerators, forward_numerators,
    symbol_moments, trellis_moments,
)
from .trellis import DepthFunctionTable, Trellis, WalkPlan, require_valid

# Smallest usable exact-lattice step and largest exact-mode mass vector.
MIN_LATTICE_STEP = 1e-6
MAX_EXACT_BINS = 1 << 16

_ALIGN_TOL = 1e-9
_NO_LATTICE = "g values share no usable lattice; use the quantized mode"


@dataclass(frozen=True)
class ExactDistribution:
    """Weights on the value lattice offset + k*step, k = 0..len(mass)-1.

    ``step`` may be 0.0 only for a single-point distribution (a point
    mass needs no lattice).  Masses may carry any real weights; they are
    nonnegative whenever all edge labels are.
    """

    offset: float
    step: float
    mass: tuple[float, ...]

    def __post_init__(self):
        if len(self.mass) == 0:
            raise LatticeError("a distribution needs at least one lattice point")
        if self.step < 0 or (self.step == 0 and len(self.mass) > 1):
            raise LatticeError(
                f"invalid lattice step {self.step} for {len(self.mass)} points"
            )

    @classmethod
    def dirac(cls, value: float = 0.0, weight: float = 1.0, step: float = 0.0):
        return cls(float(value), float(step), (float(weight),))

    def values(self) -> tuple[float, ...]:
        return tuple(self.offset + k * self.step for k in range(len(self.mass)))

    def total(self) -> float:
        return float(sum(self.mass))

    def moment(self, m: int) -> float:
        return float(
            sum(w * (self.offset + k * self.step) ** m
                for k, w in enumerate(self.mass))
        )

    def normalized(self) -> "ExactDistribution":
        """Scale to unit total mass (a density)."""
        total = self.total()
        if total == 0:
            raise ZeroFlowError(None, "cannot normalize a zero-mass distribution")
        return ExactDistribution(
            self.offset, self.step, tuple(w / total for w in self.mass)
        )

    def as_dict(self) -> dict[float, float]:
        """Value -> mass mapping with exact-zero entries dropped."""
        return {
            self.offset + k * self.step: w
            for k, w in enumerate(self.mass)
            if w != 0.0
        }

    def trimmed(self) -> "ExactDistribution":
        """Drop exactly-zero leading and trailing masses."""
        lo, hi = 0, len(self.mass)
        while hi - lo > 1 and self.mass[lo] == 0.0:
            lo += 1
        while hi - lo > 1 and self.mass[hi - 1] == 0.0:
            hi -= 1
        if lo == 0 and hi == len(self.mass):
            return self
        return ExactDistribution(
            self.offset + lo * self.step, self.step, self.mass[lo:hi]
        )

    def padded(self, offset: float, length: int) -> "ExactDistribution":
        """Embed into a wider lattice window starting at ``offset``."""
        if self.step == 0:
            raise LatticeError("cannot pad a free point mass; give it a step")
        shift = (self.offset - offset) / self.step
        k0 = round(shift)
        if abs(shift - k0) > _ALIGN_TOL or k0 < 0 or k0 + len(self.mass) > length:
            raise LatticeError(
                f"distribution at offset {self.offset} does not fit the "
                f"window [{offset}, {offset + (length - 1) * self.step}]"
            )
        mass = [0.0] * length
        for k, w in enumerate(self.mass):
            mass[k0 + k] = w
        return ExactDistribution(float(offset), self.step, tuple(mass))


def _check_half_bins(n) -> None:
    """SemiringError unless the half bin count ``n`` is a whole number >= 1."""
    if not isinstance(n, numbers.Integral) or n < 1:
        raise SemiringError(f"need at least one bin on each side of the mean, got {n!r}")


@dataclass(frozen=True)
class QuantizedDistribution:
    """2N+1 mid-tread bins of width ``bin_width`` around ``mean``.

    Bin j (j = -N..N) covers values near mean + j*bin_width, with j = 0
    the center partition straddling the mean.
    """

    mean: float
    half_bins: int
    bin_width: float
    mass: tuple[float, ...]

    def __post_init__(self):
        _check_half_bins(self.half_bins)
        if not 0 < self.bin_width < math.inf:
            raise SemiringError(
                f"bin width must be a finite positive number, got {self.bin_width}"
            )
        if len(self.mass) != 2 * self.half_bins + 1:
            raise SemiringError(
                f"expected {2 * self.half_bins + 1} bins, got {len(self.mass)}"
            )

    @classmethod
    def dirac(cls, half_bins: int, bin_width: float, mean: float = 0.0):
        zeros = (0.0,) * half_bins
        return cls(float(mean), half_bins, float(bin_width), zeros + (1.0,) + zeros)

    def values(self) -> tuple[float, ...]:
        n = self.half_bins
        return tuple(self.mean + j * self.bin_width for j in range(-n, n + 1))

    def total(self) -> float:
        return float(sum(self.mass))

    def moment(self, m: int) -> float:
        return float(
            sum(w * v**m for v, w in zip(self.values(), self.mass))
        )

    def scaled(self, factor: float) -> "QuantizedDistribution":
        return QuantizedDistribution(
            self.mean,
            self.half_bins,
            self.bin_width,
            tuple(w * factor for w in self.mass),
        )

    def normalized(self) -> "QuantizedDistribution":
        total = self.total()
        if total == 0:
            raise ZeroFlowError(None, "cannot normalize a zero-mass distribution")
        return self.scaled(1.0 / total)


# -- elementary operations ----------------------------------------------------


def shift(dist, b: float):
    """Shift the domain by b (the boxplus operator); masses untouched.

    Exact distributions with more than one lattice point only admit
    shifts by whole lattice steps; point masses and quantized
    distributions shift freely (a quantized shift only moves the mean).
    """
    b = float(b)
    if isinstance(dist, ExactDistribution):
        if len(dist.mass) > 1 and not (math.isfinite(b) and _aligned(b / dist.step)):
            raise LatticeError(f"shift by {b} is off the step-{dist.step} lattice")
        return ExactDistribution(dist.offset + b, dist.step, dist.mass)
    if isinstance(dist, QuantizedDistribution):
        return QuantizedDistribution(
            dist.mean + b, dist.half_bins, dist.bin_width, dist.mass
        )
    raise TypeError(f"cannot shift {type(dist).__name__}")


def convolve(a: ExactDistribution, b: ExactDistribution) -> ExactDistribution:
    """Discrete convolution; offsets add, total masses multiply."""
    if len(a.mass) > 1 and len(b.mass) > 1:
        if abs(a.step - b.step) > _ALIGN_TOL * max(a.step, b.step):
            raise LatticeError(
                f"cannot convolve step {a.step} with step {b.step}"
            )
    step = a.step if len(a.mass) > 1 else b.step
    mass = np.convolve(np.asarray(a.mass), np.asarray(b.mass))
    return ExactDistribution(a.offset + b.offset, step, tuple(mass.tolist()))


@lru_cache(maxsize=None)
def _bin_targets(n_in: int, n_out: int) -> np.ndarray:
    """Row s + reach holds clip(j - s, -n_out, n_out) for j = -n_in..n_in:
    the target bins of a whole shift s = -reach..reach+1, where reach =
    n_in + n_out + 1.  Read-only, built once per pair of bin counts."""
    reach = n_in + n_out + 1
    shifts = np.arange(-reach, reach + 2)[:, None]
    table = np.clip(np.arange(-n_in, n_in + 1) - shifts, -n_out, n_out)
    table.flags.writeable = False
    return table


def _move_bins(
    rows: np.ndarray,
    shifts: np.ndarray,
    scales: np.ndarray,
    owners: np.ndarray,
    n_owners: int,
    n_out: int,
) -> np.ndarray:
    """Move each row's bins by ``-shifts[r]`` with linear interpolation and
    add ``scales[r]`` times the result into row ``owners[r]`` of an
    ``(n_owners, 2*n_out+1)`` block.

    ``rows`` holds 2*n_in+1 bins per row.  A shift is delta_mu /
    bin_width: the window center moves up by delta_mu, so contents slide
    down.  Mass whose target falls outside -n_out..n_out accumulates in
    the nearest boundary bin; the fractional part eps of the shift splits
    each bin between the two neighboring target bins with weights eps and
    1-eps.  Total mass is conserved.  The targets of a whole shift s are
    row s of ``_bin_targets``, and the eps part reads row s + 1; one
    gather and one scatter move every row.
    """
    n_rows, n_bins = rows.shape
    n_in = n_bins // 2
    bins = 2 * n_out + 1
    s = np.floor(shifts)
    # An infinite shift, from a finite delta_mu over a tiny width, is whole.
    eps = np.subtract(shifts, s, out=np.zeros_like(shifts), where=~np.isinf(shifts))
    split = np.flatnonzero(eps)
    # Table row s + reach.  Clipping a whole shift to +-reach before the
    # cast keeps it in range: from n_in + n_out on, every bin lands in a
    # boundary bin.  A nan shift, whose weights are nan, reads row -1
    # (every bin to -n_out) and its eps part row 0 (every bin to n_out).
    reach = n_in + n_out + 1
    at = np.where(np.isnan(s), -1, np.fmin(np.fmax(s + reach, 0), 2 * reach)).astype(np.intp)
    # The 1-eps part of every row, then the eps part of the rows with a
    # fractional shift; bincount adds them in this order.
    parts = np.concatenate([np.arange(n_rows), split])
    index = _bin_targets(n_in, n_out).take(np.concatenate([at, at[split] + 1]), axis=0)
    index += (owners.take(parts) * bins + n_out)[:, None]
    weights = rows.take(parts, axis=0)
    weights *= np.concatenate([(1.0 - eps) * scales, (eps * scales)[split]])[:, None]
    block = np.bincount(index.ravel(), weights.ravel(), minlength=n_owners * bins)
    return block.reshape(n_owners, bins)


def redistribute(
    dist: QuantizedDistribution, delta_mu: float
) -> QuantizedDistribution:
    """Re-center the window at mean + delta_mu, redistributing contents.

    The fraction eps = delta_mu/width - floor(delta_mu/width) of each bin
    moves one extra bin toward -N; out-of-range mass accumulates in the
    boundary bins.  Total mass is conserved exactly.  A delta_mu that is
    not finite raises SemiringError.
    """
    if not math.isfinite(delta_mu):
        raise SemiringError(f"cannot re-center by a non-finite delta_mu, got {delta_mu}")
    moved = _move_bins(
        np.asarray([dist.mass], dtype=float),
        np.array([float(delta_mu) / dist.bin_width]),
        np.ones(1),
        np.zeros(1, dtype=np.intp),
        1,
        dist.half_bins,
    )
    return QuantizedDistribution(
        dist.mean + float(delta_mu),
        dist.half_bins,
        dist.bin_width,
        tuple(moved[0].tolist()),
    )


# -- lattice detection ---------------------------------------------------------


def _aligned(t):
    """Whether t is a whole number, to ``_ALIGN_TOL`` times max(1, |t|):
    the one test that a value lies a whole number of steps away."""
    return np.abs(t - np.rint(t)) <= _ALIGN_TOL * np.maximum(1.0, np.abs(t))


def _float_gcd(values: Sequence[float]) -> float:
    """The smallest of the positive ``values`` (0.0 for none; below
    MIN_LATTICE_STEP * 1e-3 they are noise) over the lcm of the
    denominators of the others' ratios to it, each a fraction whose
    denominator keeps the step >= MIN_LATTICE_STEP, else a smaller step."""
    values = np.asarray(values)
    values = values[values > MIN_LATTICE_STEP * 1e-3]
    if not len(values):
        return 0.0
    step, lcm = float(values.min()), 1
    most, ratios = int(step / MIN_LATTICE_STEP), values / step
    for t in ratios[~_aligned(ratios)].tolist():
        from fractions import Fraction  # here, as its import costs 0.4 MB of RSS
        if lcm > most:
            break
        lcm = math.lcm(lcm, Fraction(t).limit_denominator(most).denominator)
    return step / lcm


def _edge_values(
    trellis: Trellis, g: Union[DepthFunctionTable, np.ndarray]
) -> np.ndarray:
    """g on every edge, in ``Trellis.edges`` order; ``g`` is a table or
    that array already."""
    return g if isinstance(g, np.ndarray) else g.values_for(trellis)


def _lattice(
    gval: np.ndarray, bounds: Sequence[int], step: Optional[float] = None
) -> tuple[float, np.ndarray, np.ndarray]:
    """The step, each section's smallest g, and every edge's integer
    shift rint(spread / step), its spread being its g less that smallest.

    Section j is ``gval[bounds[j]:bounds[j+1]]``, none empty.  A given
    ``step`` must hold every spread (step 0: every spread is 0).  Else the
    step is the gcd of the gaps between the sorted distinct spreads,
    which span the sections' lattice with small numbers, or 0.0 when all
    are 0; LatticeError is raised unless it is at least MIN_LATTICE_STEP,
    holds every spread and needs at most MAX_EXACT_BINS points, one plus
    each section's largest shift.
    """
    lows = np.minimum.reduceat(gval, bounds[:-1])
    spread = gval - np.repeat(lows, np.diff(bounds))
    derive = step is None
    if derive:
        gaps = np.diff(np.sort(spread))
        gaps = gaps[gaps > 0.0]
        step = _float_gcd(gaps)
        if len(gaps) and step < MIN_LATTICE_STEP:
            raise LatticeError(_NO_LATTICE)
    t = spread / step if step else np.where(spread == 0.0, 0.0, 0.5)
    if not _aligned(t).all():
        raise LatticeError(
            _NO_LATTICE if derive else f"g values of a section are off the step-{step} lattice"
        )
    shifts = np.rint(t).astype(np.intp)
    if derive and np.maximum.reduceat(shifts, bounds[:-1]).sum() + 1 > MAX_EXACT_BINS:
        raise LatticeError(
            f"exact mode would need more than {MAX_EXACT_BINS} lattice "
            "points; use the quantized mode"
        )
    return step, lows, shifts


def lattice_step(trellis: Trellis, g: DepthFunctionTable) -> float:
    """Common lattice step of the per-section g values.

    Returns 0.0 when every section's g values coincide (all path values
    equal a single point); raises LatticeError when no usable lattice
    exists (step too small or the implied exact vector too long).  ``g``
    may also be given as its values in ``Trellis.edges`` order.  Needs a
    valid trellis.
    """
    plan = trellis.plan("forward")
    return _lattice(_edge_values(trellis, g)[plan.edges], plan.bounds)[0]


# -- propagation state -----------------------------------------------------------


@dataclass(frozen=True)
class QuantizationParams:
    """Bin count and width for the quantized mode.

    ``half_bins`` (N) must be a whole number >= 1, or SemiringError is
    raised here.  ``bin_width=None`` sizes the bins from a preliminary
    order-2 moment pass so that the 2N+1 bins span four standard
    deviations on each side of the mean.  A backward sweep given
    ``QuantizationParams(half_bins=fwd.half_bins, bin_width=fwd.bin_width)``
    skips a second sizing pass.
    """

    half_bins: int = 32
    bin_width: Optional[float] = None

    def __post_init__(self):
        _check_half_bins(self.half_bins)


@dataclass
class DistributionState:
    """Per-vertex forward or backward distributions of one sweep.

    The sweep's arrays stay as it made them, one tuple per layer of its
    walk, and ``exact``, ``quantized`` and ``flows`` are read-only vertex
    mappings over them, in walk order, that build a vertex's
    distribution or flow when it is read (``moments._LayerRows``; the
    exact view adds only each vertex's extent, as int arrays per layer).
    Exact mode has (offsets, lengths, masses) per layer: row r holds
    flow-weighted masses, scaled as the layer's exponent says (the vertex
    view scales them back), on offsets[r] + k*step, all rows of a layer
    where paths merge on one lattice window, and each row of a chain
    layer on its own.  Quantized mode has (means, flows, masses, k):
    unit-mass bin vectors around the tracked means, and the flows needed
    for relative edge weights, which are ``flows * 2^k``; ``flows`` hands
    out that product.  Merge layers store their masses; a chain layer's
    are rebuilt from the last stored block when read, unless rescaled, and
    exact offsets and lengths are made from each layer's column offsets
    when read.  The other mode's mappings are None.  ``sizing`` is the order-2
    forward moment sweep that sized the bins, when the quantized mode had
    no bin width given, and None otherwise.
    """

    direction: str
    mode: str  # "exact" | "quantized"
    rank: int
    hard_decision: bool
    layers: tuple[tuple[int, ...], ...]
    exact: Optional[Mapping[int, ExactDistribution]] = None
    quantized: Optional[Mapping[int, QuantizedDistribution]] = None
    flows: Optional[Mapping[int, float]] = None
    step: Optional[float] = None
    half_bins: Optional[int] = None
    bin_width: Optional[float] = None
    sizing: Optional[MomentState] = None


class _Layers(Sequence):
    """One sweep's arrays, read per layer as a tuple whose index 2 holds the
    layer's (rows x values) block.

    ``fields(k)`` gives layer k's other arrays (and its exponent), which
    the block joins after the first two; ``exponents[k]`` is the power of
    two that scales its masses (exact) or flows (quantized).  A layer where
    paths merge keeps its block, and so does a chain layer that ``keep``
    rescales; other chain layers keep none.  Their row r is the edge's
    neighbour row times, in exact mode, the edge's lambda, so ``masses``
    rebuilds it from the walk ``plan`` and ``lam``: it composes the row
    index back down the chain run to the last kept block, gathers those
    rows, and multiplies them by the run's lambdas in walk order, with
    ``+= 0.0`` after each when ``signed`` (a -0.0 product reads +0.0, as a
    scatter's sum does).  Those are the operations that made a stored
    chain row, so the rows have its bits; quantized chain rows are only
    gathered (``lam`` None).  A read builds only the rows it asks for.
    """

    __slots__ = ("fields", "exponents", "_plan", "_lam", "_signed", "_blocks")

    def __init__(
        self,
        plan: WalkPlan,
        block: np.ndarray,
        fields: Callable[[int], tuple],
        lam: Optional[np.ndarray] = None,
    ):
        self.fields, self._plan, self._lam = fields, plan, lam
        self._signed = lam is not None and bool(np.signbit(lam).any())
        self._blocks: list[Optional[np.ndarray]] = [block]
        self.exponents = [0]

    def keep(self, block: Optional[np.ndarray], rule: _Scale, rescale: bool = False) -> None:
        """Append a layer that keeps ``block``, or a chain layer (None), at
        ``rule``'s exponent; with ``rescale``, its masses, chain or not, as
        ``rule`` rescales them, where that moves them."""
        self._blocks.append(block)
        if rescale:
            block = self.masses(len(self) - 1)
            scaled = rule.rescale(block, block)
            if scaled is not block:
                self._blocks[-1] = scaled
        self.exponents.append(rule.exponent)

    def masses(self, k: int, rows=None) -> np.ndarray:
        """Layer k's block (k >= 0), or a copy of its rows ``rows`` (an
        integer array), or of its row ``rows`` (an integer); a chain
        layer's built from its base."""
        block, factors = self._blocks[k], []
        while block is None:
            # A chain layer's row r is the one of its edge bounds[k-1] + r.
            start = self._plan.bounds[k - 1]
            edges = slice(start, self._plan.bounds[k]) if rows is None else start + rows
            if self._lam is not None:
                factors.append(self._lam[edges])
            rows, k = self._plan.rows[edges], k - 1
            block = self._blocks[k]
        if rows is not None:
            block = block.take(rows, axis=0)
        for f in reversed(factors):
            block *= f[..., None]
            if self._signed:
                block += 0.0
        return block

    @_quiet
    def __getitem__(self, k: int) -> tuple:
        k = range(len(self))[k]
        fields = self.fields(k)
        return (*fields[:2], self.masses(k), *fields[2:])

    def __len__(self) -> int:
        return len(self._blocks)


class _ExactRows(_LayerRows):
    """The exact sweep's rows, read as vertex -> ExactDistribution.

    It adds only each vertex's extent, its own lattice points: the columns
    lo..hi-1 of its layer that its edges reach, the least lo and greatest
    hi of its neighbours each moved by the edge's shift.  The first read
    finds them all as one (lo, -hi) int array per layer.  Row r of layer
    k starts at column ``starts[k] + ats[k][r]``, at ``fields(k)``'s offset.
    """

    __slots__ = ("_shifts", "_step", "_starts", "_ats", "_extents")

    def __init__(self, plan: WalkPlan, layers: _Layers, shifts, step: float, starts, ats):
        super().__init__(plan, layers, None)
        self._shifts, self._step = shifts, step
        self._starts, self._ats, self._extents = starts, ats, None

    @_quiet
    def __getitem__(self, v: int) -> ExactDistribution:
        plan, (k, r) = self._plan, self._where[v]
        if self._extents is None:
            # (lo, -hi) per vertex, so that one minimum finds both.
            signed, extents = self._shifts[:, None] * [1, -1], [np.array([[0, -1]])]
            for j, edges in plan.layer_edges():
                moved = extents[-1][plan.rows[edges]] + signed[edges]
                extents.append(np.minimum.reduceat(moved, plan.firsts[j]))
            self._extents = extents
        lo, neg_hi = self._extents[k][r].tolist()
        hi, start = -neg_hi, self._starts[k] + int(self._ats[k][r])
        row = self._layers.masses(k, r)
        # The row starts at column ``start``; columns it trimmed are 0.
        a = min(max(lo, start), hi)
        b = max(a, min(hi, start + len(row)))
        mass = _unscaled(row[a - start : b - start].tolist(), self._layers.exponents[k])
        mass = [0.0] * (a - lo) + mass + [0.0] * (hi - b)
        offset = float(self._layers.fields(k)[0][r] + (lo - start) * self._step)
        return ExactDistribution(offset, self._step, tuple(mass))


def _quantized_row(
    half_bins: int, width: float, layers: _Layers, k: int, r: int
) -> QuantizedDistribution:
    mean, mass = layers.fields(k)[0][r], layers.masses(k, r)
    return QuantizedDistribution(float(mean), half_bins, width, tuple(mass.tolist()))


def _flow_row(layers: _Layers, k: int, r: int) -> float:
    _, flows, exponent = layers.fields(k)
    return float(np.ldexp(flows[r], exponent))


def _mean_variance(normalized: Sequence[float]) -> tuple[float, float]:
    """Mean and variance from normalized moments (1, E[f], E[f^2]), floored at
    0: on a point mass E[f^2] - E[f]^2 cancels to a residue of either sign."""
    _, mean, second = normalized
    return mean, max(second - mean * mean, 0.0)


def _resolve_bin_width(
    trellis: Trellis, g: DepthFunctionTable, params: QuantizationParams
) -> tuple[float, Optional[MomentState]]:
    """The bin width, and the order-2 forward sweep that sized it when
    ``params`` gives none.  A width, given or sized, that is not a finite
    positive number raises SemiringError."""
    width, sweep = params.bin_width, None
    if width is None:
        sweep = forward_numerators(trellis, g, 2)
        moments = trellis_moments(sweep)
        if moments.normalized is None:
            raise ZeroFlowError(None, "cannot size bins: total flow is zero")
        sigma = math.sqrt(_mean_variance(moments.normalized)[1])
        width = 4.0 * sigma / params.half_bins if sigma != 0.0 else 1.0
    if not 0 < width < math.inf:
        raise SemiringError(f"bin width must be a finite positive number, got {width}")
    return float(width), sweep


def _snap_mean(
    weighted_means: np.ndarray, means: np.ndarray, owners: np.ndarray, width: float
) -> np.ndarray:
    """Keep each owner's tracked mean on its incoming means' common lattice.

    ``means[r]`` is an incoming mean of owner ``owners[r]``.  When all of
    an owner's incoming means agree modulo the bin width, its merged
    window center is chosen on that same lattice (the nearest point to
    its weighted mean, exact ties broken toward the point of smaller
    magnitude so symmetric instances keep centered windows);
    redistributions then move whole bins and the binned representation
    stays exact.  Otherwise the plain weighted mean is used; when no owner
    aligns, as on every soft-decision layer, that is ``weighted_means``.
    """
    # Each owner's first row: rows come grouped by owner, in owner order.
    first = np.searchsorted(owners, np.arange(len(weighted_means)))
    base = means[first]
    aligned = np.logical_and.reduceat(_aligned((means - base[owners]) / width), first)
    if not aligned.any():
        return weighted_means
    t = (weighted_means - base) / width
    lo = np.floor(t)
    frac = t - lo
    below = base + lo * width
    above = below + width
    nearer = (np.abs(above) < np.abs(below)) | (
        (np.abs(above) == np.abs(below)) & (above < below)
    )
    up = (frac > 0.5) | ((frac == 0.5) & nearer)
    return np.where(aligned, base + (lo + up) * width, weighted_means)


def _exact_fields(origins, starts, ats, widths, step: float, k: int) -> tuple:
    """Layer k's row offsets and lengths (its block's width) in exact mode."""
    offsets = (origins[k] + starts[k] * step) + ats[k] * step
    return offsets, np.full(len(offsets), widths[k])


@_quiet
def _exact_sweep(
    trellis: Trellis,
    g: Union[DepthFunctionTable, np.ndarray],
    direction: str,
    step: float,
) -> _ExactRows:
    """Every vertex's exact distribution, over lattice windows per layer.

    Column c of row r of layer k holds ``origins[k] + (starts[k] + ats[k][r]
    + c)*step``; ``origins[k]`` adds up the smallest g of each section
    walked so far, and an edge's shift q = (g - its section's smallest g) /
    step moves its neighbour's row q columns up.  A chain layer only adds
    q to its rows' ``ats``, and ``_Layers`` builds its rows when read;
    where paths merge, the rows scatter onto one window, with ``ats`` 0,
    that keeps its nonzero columns.  Layer k's masses are scaled by
    2^``exponents[k]`` of ``_Layers``, as the ``_Scale`` rule sets it.
    """
    plan = trellis.plan(direction)
    lam = plan.lam(trellis)
    gval = _edge_values(trellis, g)[plan.edges]
    rule = _Scale(lam, plan.bounds)
    _, lows, shifts = _lattice(gval, plan.bounds, step)
    growth = np.maximum.reduceat(shifts, plan.bounds[:-1]).tolist()
    cols = np.arange(sum(growth) + 1)
    sizes = [len(layer) for layer in plan.layers]
    zeros = np.zeros(max(sizes), dtype=np.intp)
    # starts, ats and block width per layer; every ats of the last is at most top.
    starts, ats, widths, top = [0], [zeros[:1]], [1], 0
    origins = np.cumsum(np.append(0.0, lows))
    fields = partial(_exact_fields, origins, starts, ats, widths, step)
    layers = _Layers(plan, np.ones((1, 1)), fields, lam)
    for k, edges in plan.layer_edges():
        n, rows, width = sizes[k], plan.rows[edges], widths[-1]
        at = ats[-1][rows] + shifts[edges] if top else shifts[edges]
        top, a, moved = top + growth[k - 1], 0, None
        if plan.merges[k]:
            moved = layers.masses(k - 1, rows)
            moved *= lam[edges, None]
            span = width + top
            index = plan.owners[edges] * span + at
            index = (index[:, None] + cols[:width]).ravel()
            moved = np.bincount(index, moved.ravel(), minlength=n * span).reshape(n, span)
            used = moved.any(axis=0).nonzero()[0]
            a, b = (int(used[0]), int(used[-1]) + 1) if len(used) else (0, 1)
            moved = moved[:, a:b].copy() if b - a < span else moved
            at, top, width = zeros[:n], 0, moved.shape[1]
        layers.keep(moved, rule, rule.due(k))
        starts.append(starts[-1] + a)
        ats.append(at)
        widths.append(width)
    return _ExactRows(plan, layers, shifts, step, starts, ats)


def _merge_quantized(
    rows: np.ndarray,
    means: np.ndarray,
    weights: np.ndarray,
    owners: np.ndarray,
    flow: np.ndarray,
    half_bins: int,
    width: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge bin rows into 2N+1 unit-mass bins per owner.

    Row r holds bins around ``means[r]`` and carries flow ``weights[r]``;
    ``flow`` is each owner's total weight, all positive.  An owner's
    mean is its rows' weighted mean, snapped by ``_snap_mean``, and each
    row moves onto it scaled by its share of the flow.  Returns the
    owners' means and their ``(len(flow), 2*half_bins+1)`` block.
    """
    n = len(flow)
    wmean = np.bincount(owners, weights * means, minlength=n) / flow
    merged = _snap_mean(wmean, means, owners, width)
    block = _move_bins(
        rows,
        (merged[owners] - means) / width,
        weights / flow[owners],
        owners,
        n,
        half_bins,
    )
    return merged, block


@_quiet
def _quantized_sweep(
    trellis: Trellis,
    g: Union[DepthFunctionTable, np.ndarray],
    direction: str,
    half_bins: int,
    width: float,
) -> tuple[_LayerRows, _LayerRows]:
    """Every vertex's quantized distribution and flow, over (means, flows,
    masses, k) per layer, whose flows are ``flows * 2^k`` (``_Scale``; a
    merge reads only their ratios, which a rescale leaves as they are).

    On a chain layer a vertex takes its neighbour's bins as they are and
    its mean plus g: a merge of one row would snap to that mean, move by
    0 and scale by 1 (unless the bin width is below the spacing of
    doubles at the mean, where its weighted mean could round a bin
    away).  Other layers merge in ``_merge_quantized``.
    """
    plan = trellis.plan(direction)
    lam = plan.lam(trellis, nonnegative_for="quantized mode")
    rule, means, flow = _Scale(lam, plan.bounds), np.zeros(1), np.ones(1)
    fields = [(means, flow, 0)]
    start = QuantizedDistribution.dirac(half_bins, width)
    layers = _Layers(plan, np.asarray([start.mass]), fields.__getitem__)
    gval = _edge_values(trellis, g)[plan.edges]
    for k, edges in plan.layer_edges():
        vertices, owners, rows = plan.layers[k], plan.owners[edges], plan.rows[edges]
        weights = lam[edges] * flow[rows]
        flow = np.bincount(owners, weights, minlength=len(vertices))
        _require_flow(vertices, flow <= 0.0)
        means, block = means[rows] + gval[edges], None
        if plan.merges[k]:
            means, block = _merge_quantized(
                layers.masses(k - 1, rows), means, weights, owners, flow, half_bins, width
            )
        if rule.due(k, flow.item(0)):
            flow = rule.rescale(flow, flow)
        layers.keep(block, rule)
        fields.append((means, flow, rule.exponent))
    return (
        _LayerRows(plan, layers, partial(_quantized_row, half_bins, width)),
        _LayerRows(plan, layers, _flow_row),
    )


def forward_distributions(
    trellis: Trellis,
    g: DepthFunctionTable,
    mode: str = "auto",
    params: Optional[QuantizationParams] = None,
) -> DistributionState:
    """Propagate the value distribution from the source to every vertex.

    ``mode`` is "exact", "quantized" or "auto" (exact when the g values
    admit a lattice, quantized otherwise); the state records which mode
    ran.
    """
    return _distributions(trellis, g, "forward", mode, params)


def backward_distributions(
    trellis: Trellis,
    g: DepthFunctionTable,
    mode: str = "auto",
    params: Optional[QuantizationParams] = None,
) -> DistributionState:
    """Mirror of forward_distributions, propagating from the sink; in
    quantized mode pass ``QuantizationParams(half_bins=fwd.half_bins,
    bin_width=fwd.bin_width)`` to skip a second order-2 sizing sweep."""
    return _distributions(trellis, g, "backward", mode, params)


def _distributions(trellis, g, direction, mode, params) -> DistributionState:
    require_valid(trellis)
    if mode not in ("exact", "quantized", "auto"):
        raise SemiringError(f"unknown distribution mode {mode!r}")
    # g is read once, for the hard-decision test, the lattice and the sweep.
    values = g.values_for(trellis)
    hard = bool(np.all(np.abs(values) == 1.0))
    if mode == "auto":
        try:
            step = lattice_step(trellis, values)
            mode = "exact"
        except LatticeError:
            mode = "quantized"
    elif mode == "exact":
        step = lattice_step(trellis, values)
    if mode == "exact":
        exact = _exact_sweep(trellis, values, direction, step)
        return DistributionState(
            direction, "exact", trellis.rank, hard, trellis.layers, exact=exact, step=step
        )
    params = params or QuantizationParams()
    width, sizing = _resolve_bin_width(trellis, g, params)
    dists, flows = _quantized_sweep(
        trellis, values, direction, params.half_bins, width
    )
    return DistributionState(
        direction,
        "quantized",
        trellis.rank,
        hard,
        trellis.layers,
        quantized=dists,
        flows=flows,
        half_bins=params.half_bins,
        bin_width=width,
        sizing=sizing,
    )


def _check_pair(forward: DistributionState, backward: DistributionState):
    if forward.direction != "forward" or backward.direction != "backward":
        raise SemiringError(
            "need one forward and one backward distribution state"
        )
    if forward.mode != backward.mode:
        raise SemiringError("forward and backward states use different modes")
    rows, other = (s.exact or s.quantized for s in (forward, backward))
    if not _same_topology(rows._plan.topology, other._plan.topology):
        raise SemiringError("forward and backward states come from different trellises")
    if forward.step != backward.step:
        raise LatticeError(
            f"cannot combine step {forward.step} with step {backward.step}"
        )
    if forward.mode == "quantized" and (
        forward.half_bins != backward.half_bins
        or forward.bin_width != backward.bin_width
    ):
        raise SemiringError("quantization parameters differ between sweeps")


def _pad_hard(state: DistributionState, dist: ExactDistribution) -> ExactDistribution:
    """With bipolar g, ``dist`` embedded into the full {-n..n} step-2
    domain; otherwise ``dist`` itself."""
    if not state.hard_decision:
        return dist
    if len(dist.mass) == 1 and dist.step == 0.0:
        dist = ExactDistribution(dist.offset, 2.0, dist.mass)
    return dist.padded(-float(state.rank), state.rank + 1)


def trellis_distribution(
    forward: DistributionState,
    backward: DistributionState,
    depth: int = 0,
):
    """Whole-trellis distribution combined across the depth-``depth`` cut.

    Exact mode: the result does not depend on the chosen cut and its
    total mass is the flow.  Quantized mode: each vertex's forward and
    backward vectors are convolved, recentered on the weighted combined
    mean and summed; the result is scaled back to total mass equal to
    the flow.  Masses are raw, and underflow to 0 where the flow does.
    ``depth`` must be a whole number in 0..rank, or SemiringError is raised.
    """
    dist, exponent = _join(None, None, forward, backward, depth)
    return replace(dist, mass=tuple(_unscaled(list(dist.mass), exponent)))


def symbol_distribution(
    trellis: Trellis,
    g: DepthFunctionTable,
    forward: DistributionState,
    backward: DistributionState,
    depth: int,
    symbol: float,
):
    """Distribution restricted to paths whose section-``depth`` edge
    carries c-label ``symbol``; total mass is the constrained flow, raw.

    ``depth`` must be a whole number in 1..rank.  The states must come
    from sweeps over this trellis or a copy with its layers.  Either
    failing raises SemiringError.
    """
    dist, exponent = _join(trellis, g, forward, backward, 0, (depth, symbol))
    return replace(dist, mass=tuple(_unscaled(list(dist.mass), exponent)))


@_quiet
def _join(trellis, g, forward, backward, cut: int = 0, constraint=None) -> tuple:
    """Forward (x) edge (x) backward, summed over the edges of one section:
    the cut's, or with ``constraint=(depth, symbol)`` the symbol's; the
    arguments are those of ``trellis_distribution`` and ``symbol_distribution``.

    Each edge's forward and backward mass rows are convolved.  Exact rows
    land at their g's lattice shift on the sum's window; quantized rows
    merge as one owner's incoming rows in a sweep, weighted by the scaled
    flows of both layers.  Returns the result, with scaled masses, and the
    sum of both layers' powers of two, which scales them back.  With no
    edges, or no flow in quantized mode, the result has zero mass.
    """
    _check_pair(forward, backward)
    if constraint is None:
        if not isinstance(cut, numbers.Integral) or not 0 <= cut <= forward.rank:
            raise SemiringError(f"cut depth {cut} outside 0..{forward.rank}")
        # The cut's identity edges: each vertex's row in both layers, g 0, lambda 1.
        f_k, b_k = int(cut), forward.rank - int(cut)
        init_rows = fin_rows = np.arange(len(forward.layers[f_k]))
        g, lam = np.zeros(len(init_rows)), np.ones(len(init_rows))
    else:
        depth = _section(constraint[0], forward.rank)
        _require_swept_over(trellis, *((s.exact or s.quantized) for s in (forward, backward)))
        groups, f_k, b_k = trellis.symbol_groups(), depth - 1, forward.rank - depth
        members = groups.find(depth, constraint[1]) or slice(0, 0)
        init_rows, fin_rows = groups.init_rows[members], groups.fin_rows[members]
        positions = groups.positions[members]
        g, lam = g.values_for(trellis)[positions], trellis._lam[positions]
    f_layers, b_layers = ((s.exact or s.quantized)._layers for s in (forward, backward))
    f_at, f_size = f_layers.fields(f_k)[:2]
    b_at, b_size = b_layers.fields(b_k)[:2]
    exponent = f_layers.exponents[f_k] + b_layers.exponents[b_k]
    exact = forward.mode == "exact"
    half_bins, width = forward.half_bins, forward.bin_width
    if exact and not len(init_rows):
        # Zero mass; with bipolar g, at a point of the padded domain.
        at = -float(forward.rank) if forward.hard_decision else 0.0
        return _pad_hard(forward, ExactDistribution(at, forward.step, (0.0,))), exponent
    if not exact:
        owners = np.zeros(len(init_rows), dtype=np.intp)
        weights = f_size[init_rows] * lam * b_size[fin_rows]
        flow = np.bincount(owners, weights, minlength=1)
        if flow[0] <= 0.0:
            zeros = (0.0,) * (2 * half_bins + 1)
            return QuantizedDistribution(0.0, half_bins, width, zeros), exponent
    f_masses = f_layers.masses(f_k, init_rows)
    b_masses = b_layers.masses(b_k, fin_rows)
    rows = np.array([np.convolve(f, b) for f, b in zip(f_masses, b_masses)])
    if exact:
        # An edge's place in the sum is its g's lattice shift plus its
        # rows' columns, counted from the columns of each layer's row 0.
        _, (low,), shifts = _lattice(g, (0, len(g)), forward.step)
        f_ats, b_ats = forward.exact._ats[f_k], backward.exact._ats[b_k]
        places = shifts + (f_ats[init_rows] - f_ats[0]) + (b_ats[fin_rows] - b_ats[0])
        index = (places - places.min())[:, None] + np.arange(rows.shape[1])
        mass = np.bincount(index.ravel(), (rows * lam[:, None]).ravel())
        at = f_at[0] + low + b_at[0] + places.min() * forward.step
        merged = ExactDistribution(float(at), forward.step, tuple(mass.tolist()))
        return _pad_hard(forward, merged.trimmed()), exponent
    at = f_at[init_rows] + g + b_at[fin_rows]
    means, block = _merge_quantized(rows, at, weights, owners, flow, half_bins, width)
    mass = tuple((block[0] * flow[0]).tolist())
    return QuantizedDistribution(float(means[0]), half_bins, width, mass), exponent


# -- Gaussian reference -----------------------------------------------------------


def gaussian_lattice_mass(
    values: Sequence[float], step: float, mean: float, variance: float
) -> list[float]:
    """Gaussian cell masses over a lattice (CDF differences per cell).  A
    variance <= 0 is the sigma -> 0 limit, a CDF that is 1/2 at the mean."""
    if variance <= 0:
        def cdf(x: float) -> float:
            return 0.5 * (1.0 + ((x > mean) - (x < mean)))
    else:
        sigma = math.sqrt(variance)
        def cdf(x: float) -> float:
            return 0.5 * (1.0 + math.erf((x - mean) / (sigma * math.sqrt(2.0))))
    return [cdf(v + step / 2.0) - cdf(v - step / 2.0) for v in values]


def _dataset(trellis, g, forward, backward, cut: int = 0, constraint=None) -> tuple:
    """(domain, masses, normalized masses, Gaussian, fit) of the cut's or,
    with ``constraint=(depth, symbol)``, the symbol distribution, as CLI
    ``distribution`` and figure 3 write them.  The fit (mean, variance) is
    read from the order-2 forward sweep (the one that sized the bins, if
    any), under a constraint joined with the backward one; the Gaussian's
    cells are the bin width or the lattice step (1 for a point mass).
    Normalized masses come from the join's scaled masses, so they stay
    finite where the raw ones underflow, and are 0 unless their total is
    positive; the Gaussian is 0 (fit None) unless the flow is positive:
    flow/flow is 1 only for a finite nonzero flow, and numerators[0]
    keeps its sign on underflow."""
    dist, exponent = _join(trellis, g, forward, backward, cut, constraint)
    domain, scaled, total = list(dist.values()), list(dist.mass), sum(dist.mass)
    mass = _unscaled(scaled, exponent)
    normalized = [w / total for w in scaled] if total > 0 else [0.0] * len(scaled)
    sweep = forward.sizing or forward_numerators(trellis, g, 2)
    if constraint is None:
        matched = trellis_moments(sweep)
    else:
        reverse = backward_numerators(trellis, g, 2)
        matched = symbol_moments(trellis, g, sweep, reverse, *constraint)
    ratios = matched.normalized
    if ratios is None or not math.copysign(ratios[0], matched.numerators[0]) > 0:
        return domain, mass, normalized, [0.0] * len(domain), None
    if isinstance(dist, QuantizedDistribution):
        step = dist.bin_width
    else:
        step = dist.step if dist.step > 0 else 1.0
    fit = _mean_variance(ratios)
    return domain, mass, normalized, gaussian_lattice_mass(domain, step, *fit), fit
