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

A sweep does its numeric work one layer at a time in numpy: the layer's
local edges become index arrays (owning vertex, neighbour row, lambda,
g), and the merges, mean snaps and bin moves of all its vertices run as a
few array calls that scatter into one (vertices x bins) block.  The
helpers ``_merge_exact``, ``_snap_mean`` and ``_move_bins`` work on such
batches of rows, and the cut and symbol combines call them with a single
owner.  A state keeps every layer's arrays as the sweep made them,
(offsets, lengths, masses) in exact mode and (means, flows, masses) in
quantized mode, and builds a vertex's ``ExactDistribution``,
``QuantizedDistribution`` or flow only when a caller reads it; the cut
and symbol combines read their rows from the arrays.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import LatticeError, SemiringError, ZeroFlowError
from .moments import _LayerRows, forward_numerators, trellis_moments
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
    base = (owners * bins + n_out)[:, None]
    target = np.arange(-n_in, n_in + 1) - s[:, None]
    # The 1-eps part of every row, then the eps part of the rows with a
    # fractional shift; bincount adds them in this order.
    index = np.empty((n_rows + len(split), n_bins), dtype=np.intp)
    weights = np.empty(index.shape)
    index[:n_rows] = np.clip(target, -n_out, n_out) + base
    index[n_rows:] = np.clip(target[split] - 1, -n_out, n_out) + base[split]
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
    return g if isinstance(g, np.ndarray) else g.values_of(trellis.edges)


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
    side of the mean.
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
    lengths, masses): raw (flow-weighted) distributions on the lattice
    offset + k*step, each mass row zero beyond its length.  Quantized
    mode keeps (means, flows, masses): unit-mass bin vectors around the
    tracked means, and the plain flows needed for relative edge weights.
    The other mode's mappings are None.
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


def _exact_row(step: float, layer, r: int) -> ExactDistribution:
    offsets, lengths, masses = layer
    return ExactDistribution(
        float(offsets[r]), step, tuple(masses[r, : lengths[r]].tolist())
    )


def _quantized_row(
    half_bins: int, width: float, layer, r: int
) -> QuantizedDistribution:
    means, _, masses = layer
    return QuantizedDistribution(
        float(means[r]), half_bins, width, tuple(masses[r].tolist())
    )


def _flow_row(layer, r: int) -> float:
    return float(layer[1][r])


def _row(view: _LayerRows, v: int) -> tuple:
    """Vertex ``v``'s entries in its layer's arrays."""
    arrays, r = view.locate(v)
    return tuple(a[r] for a in arrays)


def _resolve_bin_width(
    trellis: Trellis, g: DepthFunctionTable, params: QuantizationParams
) -> float:
    if params.bin_width is not None:
        if params.bin_width <= 0:
            raise SemiringError("bin width must be positive")
        return float(params.bin_width)
    moments = trellis_moments(forward_numerators(trellis, g, 2))
    if moments.normalized is None:
        raise ZeroFlowError(None, "cannot size bins: total flow is zero")
    mean, second = moments.normalized[1], moments.normalized[2]
    sigma = math.sqrt(max(second - mean * mean, 0.0))
    if sigma == 0.0:
        return 1.0
    return 4.0 * sigma / params.half_bins


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


def _is_hard_decision(values: np.ndarray) -> bool:
    return bool(np.all(np.abs(values) == 1.0))


def _layer_arrays(
    trellis: Trellis,
    plan: WalkPlan,
    g: Union[DepthFunctionTable, np.ndarray],
    lam: np.ndarray,
) -> Iterator[tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The walk of ``plan`` as index arrays, one layer at a time.

    Yields, per layer after the start, its vertices and four arrays over
    its local edges, grouped by vertex: the owning vertex's index in the
    layer, the neighbour's index in the layer before, lambda (``lam``,
    in walk order) and g (``g`` as ``lattice_step`` takes it).
    """
    gval = _edge_values(trellis, g)[plan.edges]
    for k, edges in plan.layer_edges():
        yield plan.layers[k], plan.owners[edges], plan.rows[edges], lam[edges], gval[edges]


def _exact_sweep(
    trellis: Trellis,
    g: Union[DepthFunctionTable, np.ndarray],
    direction: str,
    step: float,
) -> _LayerRows:
    """Every vertex's exact distribution, over (offsets, lengths, masses)
    per layer."""
    plan = trellis.plan(direction)
    layers = [(np.zeros(1), np.ones(1, dtype=np.intp), np.ones((1, 1)))]
    for vertices, owners, rows, lam, gval in _layer_arrays(
        trellis, plan, g, plan.lam(trellis)
    ):
        offsets, lengths, block = layers[-1]
        layers.append(
            _merge_exact(
                offsets[rows] + gval,
                block[rows] * lam[:, None],
                lengths[rows],
                owners,
                len(vertices),
                step,
            )
        )
    return _LayerRows(plan.where, layers, partial(_exact_row, step))


def _merge_exact(
    offsets: np.ndarray,
    rows: np.ndarray,
    lengths: np.ndarray,
    owners: np.ndarray,
    n_owners: int,
    step: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Add lattice rows into one lattice distribution per owner.

    Row r holds ``lengths[r]`` masses on ``offsets[r] + k*step`` and zeros
    beyond.  Each owner's result starts at the smallest offset among its
    rows; with ``step`` 0 every row is a point mass, and all of an
    owner's rows must sit at its first row's value (up to float drift).
    Returns ``(offsets, lengths, block)``, one entry or block row per
    owner, each row zero beyond its length.  The rows are added in
    order, so every sum is the plain left-to-right one.
    """
    first = _first_rows(owners, n_owners)
    if step == 0.0:
        base = offsets[first]
        anchor = base[owners]
        bad = np.abs(offsets - anchor) > _ALIGN_TOL * np.maximum(1.0, np.abs(anchor))
        if bad.any():
            r = int(np.argmax(bad))
            raise LatticeError(
                f"point masses at {anchor[r]} and {offsets[r]} cannot merge "
                "without a lattice"
            )
        k0 = np.zeros(len(offsets), dtype=np.intp)
    else:
        base = np.minimum.reduceat(offsets, first)
        t = (offsets - base[owners]) / step
        k = np.round(t)
        bad = np.abs(t - k) > 1e-6
        if bad.any():
            r = int(np.argmax(bad))
            raise LatticeError(
                f"offsets {base[owners[r]]} and {offsets[r]} are not "
                f"congruent modulo {step}"
            )
        k0 = k.astype(np.intp)
    ends = np.maximum.reduceat(k0 + lengths, first)
    stride = int(k0.max()) + rows.shape[1]
    index = (owners * stride + k0)[:, None] + np.arange(rows.shape[1])
    block = np.bincount(index.ravel(), rows.ravel(), minlength=n_owners * stride)
    return base, ends, block.reshape(n_owners, stride)[:, : int(ends.max())]


def _merge_parts(
    parts: Sequence[tuple[float, np.ndarray]], step: float
) -> ExactDistribution:
    """One distribution from (offset, mass) parts: ``_merge_exact`` with a
    single owner."""
    lengths = np.array([len(mass) for _, mass in parts], dtype=np.intp)
    rows = np.zeros((len(parts), int(lengths.max())))
    for r, (_, mass) in enumerate(parts):
        rows[r, : len(mass)] = mass
    offsets, lengths, block = _merge_exact(
        np.array([off for off, _ in parts], dtype=float),
        rows,
        lengths,
        np.zeros(len(parts), dtype=np.intp),
        1,
        step,
    )
    return ExactDistribution(
        float(offsets[0]), step, tuple(block[0, : lengths[0]].tolist())
    )


def _quantized_sweep(
    trellis: Trellis,
    g: Union[DepthFunctionTable, np.ndarray],
    direction: str,
    half_bins: int,
    width: float,
) -> tuple[_LayerRows, _LayerRows]:
    """Every vertex's quantized distribution and flow, over (means, flows,
    masses) per layer."""
    plan = trellis.plan(direction)
    lam = plan.lam(trellis, nonnegative_for="quantized mode")
    start = QuantizedDistribution.dirac(half_bins, width)
    layers = [(np.zeros(1), np.ones(1), np.asarray([start.mass]))]
    for vertices, owners, rows, lam, gval in _layer_arrays(trellis, plan, g, lam):
        means, flow, block = layers[-1]
        n = len(vertices)
        weights = lam * flow[rows]
        flow = np.bincount(owners, weights, minlength=n)
        dead = flow <= 0.0
        if dead.any():
            v = vertices[int(np.argmax(dead))]
            raise ZeroFlowError(
                v, f"zero incoming weight normalizer at vertex {v}"
            )
        incoming = means[rows] + gval
        wmean = np.bincount(owners, weights * incoming, minlength=n) / flow
        means = _snap_mean(wmean, incoming, owners, width)
        block = _move_bins(
            block[rows],
            (means[owners] - incoming) / width,
            weights / flow[owners],
            owners,
            n,
            half_bins,
        )
        layers.append((means, flow, block))
    return (
        _LayerRows(plan.where, layers, partial(_quantized_row, half_bins, width)),
        _LayerRows(plan.where, layers, _flow_row),
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
    """Mirror of forward_distributions, propagating from the sink."""
    return _distributions(trellis, g, "backward", mode, params)


def _distributions(trellis, g, direction, mode, params) -> DistributionState:
    require_valid(trellis)
    if mode not in ("exact", "quantized", "auto"):
        raise SemiringError(f"unknown distribution mode {mode!r}")
    # g is read once, for the hard-decision test, the lattice and the sweep.
    values = g.values_of(trellis.edges)
    hard = _is_hard_decision(values)
    if mode == "auto":
        try:
            step = lattice_step(trellis, values)
            mode = "exact"
        except LatticeError:
            mode = "quantized"
    elif mode == "exact":
        step = lattice_step(trellis, values)
    if mode == "exact":
        return DistributionState(
            direction,
            "exact",
            trellis.rank,
            hard,
            trellis.layers,
            exact=_exact_sweep(trellis, values, direction, step),
            step=step,
        )
    params = params or QuantizationParams()
    width = _resolve_bin_width(trellis, g, params)
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
    )


def _check_pair(forward: DistributionState, backward: DistributionState):
    if forward.direction != "forward" or backward.direction != "backward":
        raise SemiringError(
            "need one forward and one backward distribution state"
        )
    if forward.mode != backward.mode:
        raise SemiringError("forward and backward states use different modes")
    if forward.step != backward.step:
        raise LatticeError(
            f"cannot combine step {forward.step} with step {backward.step}"
        )
    if forward.mode == "quantized" and (
        forward.half_bins != backward.half_bins
        or forward.bin_width != backward.bin_width
    ):
        raise SemiringError("quantization parameters differ between sweeps")


def _pad_hard(dist: ExactDistribution, rank: int) -> ExactDistribution:
    """Embed a bipolar-g distribution into the full {-n..n} step-2 domain."""
    if len(dist.mass) == 1 and dist.step == 0.0:
        dist = ExactDistribution(dist.offset, 2.0, dist.mass)
    return dist.padded(-float(rank), rank + 1)


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
    layer = forward.layers[depth]
    if forward.mode == "exact":
        parts = []
        for v in layer:
            f_offset, f_len, f_mass = _row(forward.exact, v)
            b_offset, b_len, b_mass = _row(backward.exact, v)
            parts.append(
                (f_offset + b_offset, np.convolve(f_mass[:f_len], b_mass[:b_len]))
            )
        merged = _merge_parts(parts, forward.step).trimmed()
        if forward.hard_decision:
            merged = _pad_hard(merged, forward.rank)
        return merged

    entries = []
    for v in layer:
        f_mean, f_flow, f_mass = _row(forward.quantized, v)
        b_mean, b_flow, b_mass = _row(backward.quantized, v)
        entries.append((f_mean + b_mean, f_flow * b_flow, np.convolve(f_mass, b_mass)))
    return _combine_quantized(entries, forward.half_bins, forward.bin_width)


def symbol_distribution(
    trellis: Trellis,
    g: DepthFunctionTable,
    forward: DistributionState,
    backward: DistributionState,
    depth: int,
    symbol: float,
):
    """Distribution restricted to paths whose section-``depth`` edge
    carries c-label ``symbol``; total mass is the constrained flow."""
    _check_pair(forward, backward)
    if not 1 <= depth <= forward.rank:
        raise SemiringError(f"section depth {depth} outside 1..{forward.rank}")
    edges = [e for e in trellis.edges_at(depth) if e.clabel == symbol]

    if forward.mode == "exact":
        step = forward.step
        if not edges:
            # Zero mass; with bipolar g, at a point of the padded domain.
            at = -float(forward.rank) if forward.hard_decision else 0.0
            merged = ExactDistribution(at, step, (0.0,))
        else:
            parts = []
            for e in edges:
                f_offset, f_len, f_mass = _row(forward.exact, e.init)
                b_offset, b_len, b_mass = _row(backward.exact, e.fin)
                conv = np.convolve(f_mass[:f_len], b_mass[:b_len])
                parts.append((f_offset + g.value(e) + b_offset, conv * e.lam))
            merged = _merge_parts(parts, step).trimmed()
        if forward.hard_decision:
            merged = _pad_hard(merged, forward.rank)
        return merged

    n, width = forward.half_bins, forward.bin_width
    if not edges:
        return QuantizedDistribution(
            0.0, n, width, (0.0,) * (2 * n + 1)
        )
    entries = []
    for e in edges:
        f_mean, f_flow, f_mass = _row(forward.quantized, e.init)
        b_mean, b_flow, b_mass = _row(backward.quantized, e.fin)
        entries.append(
            (
                f_mean + g.value(e) + b_mean,
                f_flow * e.lam * b_flow,
                np.convolve(f_mass, b_mass),
            )
        )
    return _combine_quantized(entries, n, width)


def _combine_quantized(
    entries: Sequence[tuple[float, float, np.ndarray]],
    half_bins: int,
    width: float,
) -> QuantizedDistribution:
    """Weighted merge of convolved (4N+1)-bin vectors back into 2N+1 bins."""
    total = sum(w for _, w, _ in entries)
    if total <= 0.0:
        return QuantizedDistribution(
            0.0, half_bins, width, (0.0,) * (2 * half_bins + 1)
        )
    means = np.array([mu for mu, _, _ in entries], dtype=float)
    weights = np.array([w for _, w, _ in entries], dtype=float)
    owners = np.zeros(len(entries), dtype=np.intp)
    wmean = sum(mu * w for mu, w, _ in entries) / total
    mu_out = float(_snap_mean(np.array([wmean]), means, owners, width)[0])
    block = _move_bins(
        np.array([conv for _, _, conv in entries]),
        (mu_out - means) / width,
        weights / total,
        owners,
        1,
        half_bins,
    )
    return QuantizedDistribution(
        mu_out, half_bins, width, tuple((block[0] * total).tolist())
    )


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
