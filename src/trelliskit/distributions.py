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

A sweep does its numeric work one layer at a time in numpy, scattering
all of a layer's vertices into one (vertices x values) block.  In exact
mode the block is one lattice window shared by the layer: each edge's
integer shift in it is found once per sweep, so a layer is one gather,
one lambda scale and one scatter.  In quantized mode, on a layer where
paths merge, ``_merge_quantized`` merges, snaps the means and moves the
bins of the whole layer; on a chain layer, where each vertex has one
edge, a merge would change nothing, so the vertices only add g to their
neighbours' means.  Quantized flows are kept as a block times 2^k per
layer, rescaled as the moment sweeps' are, so their bins stay finite on
codes whose flow underflows a double.  A state keeps every layer's
arrays as the sweep made them, and builds a vertex's
``ExactDistribution``, ``QuantizedDistribution`` or flow only when a
caller reads it.

The whole-trellis and symbol distributions are one join, forward (x)
edge (x) backward summed over the edges of one section, as BCJR joins
its state and branch posteriors.  A symbol distribution joins the
section's edges that carry the c-label; a cut at depth d is a section of
identity edges, each vertex of layer d to itself with g 0 and lambda 1.
The join convolves each edge's forward and backward rows.  In exact mode
every row of a layer sits at that layer's window offset, so the rows
scatter on the edges' lattice shifts, as in the sweep; in quantized mode
they merge as one owner's rows in the sweep's merge.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import LatticeError, SemiringError, ZeroFlowError
from .moments import (
    _HIGH, _LOW, MomentState, _LayerRows, _require_swept_over, _rescale,
    _same_topology, forward_numerators, trellis_moments,
)
from .trellis import DepthFunctionTable, Trellis, WalkPlan, require_valid

# Smallest usable exact-lattice step and largest exact-mode mass vector.
MIN_LATTICE_STEP = 1e-6
MAX_EXACT_BINS = 1 << 16

_ALIGN_TOL = 1e-9


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
        if self.half_bins < 1:
            raise SemiringError("need at least one bin on each side of the mean")
        if self.bin_width <= 0:
            raise SemiringError(f"bin width must be positive, got {self.bin_width}")
        if len(self.mass) != 2 * self.half_bins + 1:
            raise SemiringError(
                f"expected {2 * self.half_bins + 1} bins, got {len(self.mass)}"
            )

    @classmethod
    def dirac(cls, half_bins: int, bin_width: float, mean: float = 0.0):
        mass = [0.0] * (2 * half_bins + 1)
        mass[half_bins] = 1.0
        return cls(float(mean), half_bins, float(bin_width), tuple(mass))

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
        if len(dist.mass) > 1:
            t = b / dist.step
            if abs(t - round(t)) > _ALIGN_TOL * max(1.0, abs(t)):
                raise LatticeError(
                    f"shift by {b} is off the step-{dist.step} lattice"
                )
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


def _first_rows(owners: np.ndarray, n_owners: int) -> np.ndarray:
    """Index of each owner's first row; rows come grouped by owner, in
    owner order, and every owner has at least one."""
    return np.searchsorted(owners, np.arange(n_owners))


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
    1-eps.  Total mass is conserved.
    """
    n_rows, n_bins = rows.shape
    n_in = n_bins // 2
    bins = 2 * n_out + 1
    s = np.floor(shifts)
    eps = shifts - s
    split = np.flatnonzero(eps)
    # A whole shift past n_in + n_out sends every bin to a boundary bin,
    # as does that bound itself, so clipping to it first keeps the cast
    # in range and the index as it was.
    reach = n_in + n_out + 1
    s = np.clip(s, -reach, reach).astype(np.intp)
    base = (owners * bins + n_out)[:, None]
    target = np.arange(-n_in, n_in + 1) - s[:, None]
    # The 1-eps part of every row, then the eps part of the rows with a
    # fractional shift; bincount adds them in this order.
    index = np.empty((n_rows + len(split), n_bins), dtype=np.intp)
    weights = np.empty(index.shape)
    whole, part = index[:n_rows], index[n_rows:]
    np.clip(target, -n_out, n_out, out=whole)
    whole += base
    np.subtract(target[split], 1, out=part)
    np.clip(part, -n_out, n_out, out=part)
    part += base[split]
    np.multiply(((1.0 - eps) * scales)[:, None], rows, out=weights[:n_rows])
    np.multiply((eps * scales)[split, None], rows[split], out=weights[n_rows:])
    block = np.bincount(index.ravel(), weights.ravel(), minlength=n_owners * bins)
    return block.reshape(n_owners, bins)


def redistribute(
    dist: QuantizedDistribution, delta_mu: float
) -> QuantizedDistribution:
    """Re-center the window at mean + delta_mu, redistributing contents.

    The fraction eps = delta_mu/width - floor(delta_mu/width) of each bin
    moves one extra bin toward -N; out-of-range mass accumulates in the
    boundary bins.  Total mass is conserved exactly.
    """
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


def _float_gcd(values: Iterable[float]) -> float:
    g = 0.0
    for v in values:
        v = abs(v)
        while v > MIN_LATTICE_STEP * 1e-3:
            g, v = v, math.fmod(g, v)
        g = abs(g)
    return g


def _edge_values(
    trellis: Trellis, g: Union[DepthFunctionTable, np.ndarray]
) -> np.ndarray:
    """g on every edge, in ``Trellis.edges`` order; ``g`` is a table or
    that array already."""
    return g if isinstance(g, np.ndarray) else g.values_for(trellis)


def lattice_step(trellis: Trellis, g: DepthFunctionTable) -> float:
    """Common lattice step of the per-section g differences.

    Returns 0.0 when every section's g values coincide (all path values
    equal a single point); raises LatticeError when no usable lattice
    exists (step too small or the implied exact vector too long).  ``g``
    may also be given as its values in ``Trellis.edges`` order.  Needs a
    valid trellis.
    """
    plan = trellis.plan("forward")
    # The forward walk's layers are the sections in depth order; sort
    # each one's values and drop repeats.
    section = np.repeat(np.arange(trellis.rank), np.diff(plan.bounds))
    values = _edge_values(trellis, g)[plan.edges]
    order = np.lexsort((values, section))
    values, section = values[order], section[order]
    distinct = np.ones(len(values), dtype=bool)
    distinct[1:] = (values[1:] != values[:-1]) | (section[1:] != section[:-1])
    values, section = values[distinct], section[distinct]
    inner = section[1:] == section[:-1]
    diffs = (values[1:] - values[:-1])[inner]
    if not len(diffs):
        return 0.0
    step = _float_gcd(diffs.tolist())
    if step < MIN_LATTICE_STEP:
        raise LatticeError(
            "g values share no usable lattice; use the quantized mode"
        )
    t = diffs / step
    if (np.abs(t - np.round(t)) > _ALIGN_TOL * np.maximum(1.0, np.abs(t))).any():
        raise LatticeError(
            "g values share no usable lattice; use the quantized mode"
        )
    first = _first_rows(section, trellis.rank)
    last = np.append(first[1:], len(values)) - 1
    # Section spans added one after another, as a running sum.
    span = np.cumsum(values[last] - values[first])[-1]
    if span / step + 1 > MAX_EXACT_BINS:
        raise LatticeError(
            f"exact mode would need more than {MAX_EXACT_BINS} lattice "
            "points; use the quantized mode"
        )
    return step


# -- propagation state -----------------------------------------------------------


@dataclass(frozen=True)
class QuantizationParams:
    """Bin count and width for the quantized mode.

    ``bin_width=None`` sizes the bins from a preliminary order-2 moment
    pass so that the 2N+1 bins span four standard deviations on each
    side of the mean.  A backward sweep given ``QuantizationParams(half_bins=
    fwd.half_bins, bin_width=fwd.bin_width)`` skips a second sizing pass.
    """

    half_bins: int = 32
    bin_width: Optional[float] = None


@dataclass
class DistributionState:
    """Per-vertex forward or backward distributions of one sweep.

    The sweep's arrays stay as it made them, one tuple per layer of its
    walk, and ``exact``, ``quantized`` and ``flows`` are read-only vertex
    mappings over them, in walk order, that build a vertex's
    distribution or flow when it is read.  Exact mode keeps (offsets,
    lengths, masses) with one lattice window per layer: every row holds
    raw (flow-weighted) masses on the layer's offset + k*step.  Quantized
    mode keeps (means, flows, masses, k): unit-mass bin vectors around the
    tracked means, and the flows needed for relative edge weights, which
    are ``flows * 2^k``; ``flows`` hands out that product.
    The other mode's mappings are None.  ``sizing`` is the order-2
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


class _ExactRows(_LayerRows):
    """The exact sweep's windows, read as vertex -> ExactDistribution.

    A vertex's own lattice points are the columns lo..hi-1 of its layer
    that its edges reach: the least lo and greatest hi of its neighbours,
    each moved by the edge's shift.  The first read finds them all.
    """

    __slots__ = ("_shifts", "_step", "_starts", "_extents")

    def __init__(self, plan: WalkPlan, layers, shifts, step: float, starts):
        super().__init__(plan, layers, None)
        self._shifts, self._step = shifts, step
        self._starts, self._extents = starts, None

    def __getitem__(self, v: int) -> ExactDistribution:
        plan, (k, r) = self._plan, self._where[v]
        if self._extents is None:
            # (lo, -hi) per vertex, so that one minimum finds both.
            signed, extents = self._shifts[:, None] * [1, -1], [np.array([[0, -1]])]
            for j, edges in plan.layer_edges():
                moved = extents[-1][plan.rows[edges]] + signed[edges]
                extents.append(np.minimum.reduceat(moved, plan.firsts[j]))
            self._extents = [(e * [1, -1]).tolist() for e in extents]
        (lo, hi), start = self._extents[k][r], self._starts[k]
        offsets, _, masses = self._layers[k]
        # The window starts at column ``start``; columns it trimmed are 0.
        a = min(max(lo, start), hi)
        b = max(a, min(hi, start + masses.shape[1]))
        mass = masses[r, a - start : b - start].tolist()
        mass = [0.0] * (a - lo) + mass + [0.0] * (hi - b)
        offset = float(offsets[r] + (lo - start) * self._step)
        return ExactDistribution(offset, self._step, tuple(mass))


def _quantized_row(
    half_bins: int, width: float, layer, r: int
) -> QuantizedDistribution:
    means, _, masses, _ = layer
    return QuantizedDistribution(
        float(means[r]), half_bins, width, tuple(masses[r].tolist())
    )


def _flow_row(layer, r: int) -> float:
    _, flows, _, exponent = layer
    return float(np.ldexp(flows[r], exponent))


def _resolve_bin_width(
    trellis: Trellis, g: DepthFunctionTable, params: QuantizationParams
) -> tuple[float, Optional[MomentState]]:
    """The bin width, and the order-2 forward sweep that sized it when
    ``params`` gives none."""
    if params.bin_width is not None:
        if params.bin_width <= 0:
            raise SemiringError("bin width must be positive")
        return float(params.bin_width), None
    sweep = forward_numerators(trellis, g, 2)
    moments = trellis_moments(sweep)
    if moments.normalized is None:
        raise ZeroFlowError(None, "cannot size bins: total flow is zero")
    mean, second = moments.normalized[1], moments.normalized[2]
    sigma = math.sqrt(max(second - mean * mean, 0.0))
    if sigma == 0.0:
        return 1.0, sweep
    return 4.0 * sigma / params.half_bins, sweep


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
    stays exact.  Otherwise the plain weighted mean is used.
    """
    first = _first_rows(owners, len(weighted_means))
    base = means[first]
    t = (means - base[owners]) / width
    off = np.abs(t - np.round(t)) > _ALIGN_TOL * np.maximum(1.0, np.abs(t))
    aligned = ~np.logical_or.reduceat(off, first)
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


def _lattice_shifts(
    gval: np.ndarray, bounds: Sequence[int], step: float
) -> tuple[np.ndarray, np.ndarray]:
    """Each section's smallest g, and every edge's integer shift above it.

    Section j is ``gval[bounds[j]:bounds[j+1]]``, none empty.  An edge's
    shift is rint((g - its section's smallest g) / step); with ``step`` 0
    every section's g values must coincide, and every shift is 0.
    """
    lows = np.minimum.reduceat(gval, bounds[:-1])
    spread = gval - np.repeat(lows, np.diff(bounds))
    t = spread / step if step else np.where(spread == 0.0, 0.0, 0.5)
    if (np.abs(t - np.rint(t)) > 1e-6).any():
        raise LatticeError(f"g values of a section are off the step-{step} lattice")
    return lows, np.rint(t).astype(np.intp)


def _exact_sweep(
    trellis: Trellis,
    g: Union[DepthFunctionTable, np.ndarray],
    direction: str,
    step: float,
) -> _ExactRows:
    """Every vertex's exact distribution, over one lattice window per layer.

    Column c of layer k holds the value ``origins[k] + c*step``, where
    ``origins[k]`` adds up the smallest g of each section walked so far.
    An edge's integer shift q = (g - its section's smallest g) / step is
    where its neighbour's row lands, so a layer is one gather, one lambda
    scale and one scatter.  It keeps its nonzero columns, from column
    ``starts[k]`` on.
    """
    plan = trellis.plan(direction)
    lam = plan.lam(trellis)
    gval = _edge_values(trellis, g)[plan.edges]
    lows, shifts = _lattice_shifts(gval, plan.bounds, step)
    growth = np.maximum.reduceat(shifts, plan.bounds[:-1])
    cols = np.arange(growth.sum() + 1)
    starts, blocks = [0], [np.ones((1, 1))]
    for k, edges in plan.layer_edges():
        block, n = blocks[-1], len(plan.layers[k])
        width = block.shape[1] + growth[k - 1]
        index = plan.owners[edges] * width + shifts[edges]
        index = (index[:, None] + cols[: block.shape[1]]).ravel()
        rows = block[plan.rows[edges]] * lam[edges, None]
        block = np.bincount(index, rows.ravel(), minlength=n * width).reshape(n, width)
        used = block.any(axis=0).nonzero()[0]
        a, b = (int(used[0]), int(used[-1]) + 1) if len(used) else (0, 1)
        starts.append(starts[-1] + a)
        blocks.append(block[:, a:b].copy() if b - a < width else block)
    # Every row of a layer is at its window's offset, with its length.
    sizes = [len(layer) for layer in plan.layers]
    origins = np.cumsum(np.append(0.0, lows))
    offsets = np.repeat(origins + np.array(starts) * step, sizes)
    lengths = np.repeat([block.shape[1] for block in blocks], sizes)
    ends = np.cumsum(sizes).tolist()
    layers = [(offsets[j - n : j], lengths[j - n : j], block)
              for n, j, block in zip(sizes, ends, blocks)]
    return _ExactRows(plan, layers, shifts, step, starts)


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


def _quantized_sweep(
    trellis: Trellis,
    g: Union[DepthFunctionTable, np.ndarray],
    direction: str,
    half_bins: int,
    width: float,
) -> tuple[_LayerRows, _LayerRows]:
    """Every vertex's quantized distribution and flow, over (means, flows,
    masses, k) per layer, whose flows are ``flows * 2^k``.

    On a chain layer, where each vertex has one local edge, a vertex takes
    its neighbour's bins as they are and its mean plus g: a merge of one
    row would snap to that mean, move by 0 and scale by 1 (unless the bin
    width is below the spacing of doubles at the mean, where its weighted
    mean could round a bin away).  Other layers merge in
    ``_merge_quantized``.  The flows are rescaled by powers of two as the
    moment sweep's are (``_rescale``); a merge reads only their ratios,
    which that leaves as they are.
    """
    plan = trellis.plan(direction)
    lam = plan.lam(trellis, nonnegative_for="quantized mode")
    growth = np.add.reduceat(lam, plan.bounds[:-1]).tolist()
    start = QuantizedDistribution.dirac(half_bins, width)
    layers = [(np.zeros(1), np.ones(1), np.asarray([start.mass]), 0)]
    bound = 1.0
    gval = _edge_values(trellis, g)[plan.edges]
    for k, edges in plan.layer_edges():
        vertices, owners, rows = plan.layers[k], plan.owners[edges], plan.rows[edges]
        means, flow, block, exponent = layers[-1]
        weights = lam[edges] * flow[rows]
        flow = np.bincount(owners, weights, minlength=len(vertices))
        dead = flow <= 0.0
        if dead.any():
            v = vertices[int(np.argmax(dead))]
            raise ZeroFlowError(
                v, f"zero incoming weight normalizer at vertex {v}"
            )
        means, block = means[rows] + gval[edges], block[rows]
        if len(weights) > len(vertices):
            means, block = _merge_quantized(
                block, means, weights, owners, flow, half_bins, width
            )
        bound *= growth[k - 1]
        if bound > _HIGH or flow.item(0) < _LOW:
            flow, bound, shift = _rescale(flow, flow)
            exponent += shift
        layers.append((means, flow, block, exponent))
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
    the flow.
    """
    _check_pair(forward, backward)
    if not 0 <= depth <= forward.rank:
        raise SemiringError(f"cut depth {depth} outside 0..{forward.rank}")
    # The cut's identity edges: each vertex's row in both layers, g 0, lambda 1.
    rows = np.arange(len(forward.layers[depth]))
    g, lam = np.zeros(len(rows)), np.ones(len(rows))
    return _join(forward, backward, depth, forward.rank - depth, rows, rows, g, lam)


def symbol_distribution(
    trellis: Trellis,
    g: DepthFunctionTable,
    forward: DistributionState,
    backward: DistributionState,
    depth: int,
    symbol: float,
):
    """Distribution restricted to paths whose section-``depth`` edge
    carries c-label ``symbol``; total mass is the constrained flow.

    The states must come from sweeps over this trellis or a copy with
    its layers; others raise SemiringError.
    """
    _check_pair(forward, backward)
    if not 1 <= depth <= forward.rank:
        raise SemiringError(f"section depth {depth} outside 1..{forward.rank}")
    _require_swept_over(trellis, *((s.exact or s.quantized) for s in (forward, backward)))
    groups = trellis.symbol_groups()
    members = groups.find(depth, symbol) or slice(0, 0)
    positions = groups.positions[members]
    return _join(
        forward,
        backward,
        depth - 1,
        forward.rank - depth,
        groups.init_rows[members],
        groups.fin_rows[members],
        g.values_for(trellis)[positions],
        trellis._lam[positions],
    )


def _join(
    forward: DistributionState,
    backward: DistributionState,
    forward_layer: int,
    backward_layer: int,
    init_rows: np.ndarray,
    fin_rows: np.ndarray,
    g: np.ndarray,
    lam: np.ndarray,
):
    """Forward (x) edge (x) backward, summed over the edges of one section.

    Edge r joins row ``init_rows[r]`` of the forward state's layer
    ``forward_layer`` to row ``fin_rows[r]`` of the backward state's
    layer ``backward_layer``, and carries ``g[r]`` and ``lam[r]``.  Its
    forward and backward mass rows are convolved.  Exact rows land at
    their g's lattice shift on the sum's window; quantized rows merge as
    one owner's incoming rows in a sweep, weighted by the scaled flows of
    both layers; the result's mass then takes both layers' powers of two.
    With no edges, or no flow in quantized mode, the result has zero mass.
    """
    f_layers, b_layers = ((s.exact or s.quantized)._layers for s in (forward, backward))
    f_layer, b_layer = f_layers[forward_layer], b_layers[backward_layer]
    (f_at, f_size, f_masses), (b_at, b_size, b_masses) = f_layer[:3], b_layer[:3]
    exact = forward.mode == "exact"
    half_bins, width = forward.half_bins, forward.bin_width
    if exact and not len(init_rows):
        # Zero mass; with bipolar g, at a point of the padded domain.
        at = -float(forward.rank) if forward.hard_decision else 0.0
        return _pad_hard(forward, ExactDistribution(at, forward.step, (0.0,)))
    if not exact:
        owners = np.zeros(len(init_rows), dtype=np.intp)
        weights = f_size[init_rows] * lam * b_size[fin_rows]
        flow = np.bincount(owners, weights, minlength=1)
        if flow[0] <= 0.0:
            return QuantizedDistribution(
                0.0, half_bins, width, (0.0,) * (2 * half_bins + 1)
            )
    pairs = zip(init_rows.tolist(), fin_rows.tolist())
    rows = np.array([np.convolve(f_masses[i], b_masses[j]) for i, j in pairs])
    if exact:
        # Every row of a window layer sits at its layer's offset, so an
        # edge's place in the sum is its g's lattice shift.
        (low,), shifts = _lattice_shifts(g, (0, len(g)), forward.step)
        index = shifts[:, None] + np.arange(rows.shape[1])
        mass = np.bincount(index.ravel(), (rows * lam[:, None]).ravel())
        at = f_at[0] + low + b_at[0]
        merged = ExactDistribution(float(at), forward.step, tuple(mass.tolist()))
        return _pad_hard(forward, merged.trimmed())
    at = f_at[init_rows] + g + b_at[fin_rows]
    means, block = _merge_quantized(rows, at, weights, owners, flow, half_bins, width)
    mass = np.ldexp(block[0] * flow[0], f_layer[3] + b_layer[3])
    return QuantizedDistribution(float(means[0]), half_bins, width, tuple(mass.tolist()))


# -- Gaussian reference -----------------------------------------------------------


def gaussian_lattice_mass(
    values: Sequence[float], step: float, mean: float, variance: float
) -> list[float]:
    """Gaussian cell masses over a lattice (CDF differences per cell)."""
    if variance <= 0:
        return [1.0 if abs(v - mean) <= step / 2 else 0.0 for v in values]
    sigma = math.sqrt(variance)

    def cdf(x: float) -> float:
        return 0.5 * (1.0 + math.erf((x - mean) / (sigma * math.sqrt(2.0))))

    return [cdf(v + step / 2.0) - cdf(v - step / 2.0) for v in values]
