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
(vertices x values) block per layer, and makes a layer only when a read
first reaches it: a join reads two layers, one per state, so a cut or
symbol near one end leaves the rest of the walk unswept.  Everything
that can fail runs in the sweep call itself: the checks, the lattice
and its shifts, the bin width, and in quantized mode the flows.  The
quantized flows and their exponents are the rows of the real order-0
moment sweep in the sweep's direction (``moments._numerators``): the
trellis's kept sweep there serves them, else one order-0 sweep, which
the trellis keeps.  Where some flow underflowed under one exponent per
layer, that sweep keeps an exponent per row instead (``moments._held``),
and a merge or a join brings its rows' weights to the largest exponent
among them by one ``ldexp``.  What waits for a read is the exact
layers and the quantized means and bins, which have the same bits in
any read order.

In exact mode ``_lattice`` finds the step and each edge's integer
lattice shift once per sweep, as it does for ``lattice_step`` and the
joins, with the same bits in either walk's order.  Where paths
merge (``WalkPlan.merges``) an exact layer is one gather, one lambda
scale and one scatter onto a lattice window shared by the layer; a
quantized one merges and snaps the means in ``_merge_moves`` and moves
the bins in ``_move_bins``, reading each row's target bins from a table
built once per pair of bin counts.  A chain layer, where each vertex has
one edge, stores no block: an exact row is its neighbour's scaled by
lambda, at the neighbour's column offset plus the shift, and a quantized
vertex adds g to its neighbour's mean and keeps its bins.  A state so
keeps the blocks of merge layers only, about a third of the bytes on a
split convolutional trellis, and builds a chain row, bit for bit as the
sweep would have stored it, and a vertex's ``ExactDistribution``,
``QuantizedDistribution`` or flow only when read.  The exact sweep
scales each layer's masses by a power of two under the moment sweeps'
rule (``moments._Scale``), and a chain layer whose masses a rescale
moves keeps its block.

The whole-trellis and symbol distributions are one join, ``_join``:
forward (x) edge (x) backward summed over the edges of one section, as
BCJR joins its state and branch posteriors.  A symbol distribution joins
the section's edges that carry the c-label; a cut at depth d is a
section of identity edges, each vertex of layer d to itself with g 0
and lambda 1.  Exact rows scatter on the edges' lattice shifts plus both
rows' column offsets, as in the sweep; quantized rows merge as one
owner's rows in the sweep's merge.  Both states, and the symbol join's
trellis and g, must hold the lambda and g bits of one sweep input, else
SemiringError.  The join keeps the masses scaled and adds both layers'
exponents (per joined edge, the largest sum, where quantized flows keep
one per row).  ``trellis_distribution``, ``symbol_distribution`` and vertex
reads apply the exponent, so their raw masses underflow where the flow
does; the CLI's normalized column and the figures normalize the scaled
masses, which stay finite.
"""

from __future__ import annotations

import math
import numbers
import threading
from collections.abc import Callable, Generator, Mapping, Sequence
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Optional, Union

import numpy as np

from .errors import LatticeError, SemiringError, ZeroFlowError
from .moments import (
    _DEAD, _LayerRows, _align, _exponents_at, _held, _numerators, _quiet, _require_flow,
    _require_swept_over, _Scale, _same_topology, _scaled_row, _section, _unscaled,
    backward_numerators, forward_numerators, symbol_moments, trellis_moments,
)
from .semirings import REAL
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
    raised here.  ``bin_width=None`` sizes the bins from the order-2
    forward moments so that the 2N+1 bins span four standard deviations
    on each side of the mean.  The trellis keeps the moment sweep that
    gives them (see ``moments.forward_numerators``), so the two sweeps of
    a pair, given the same params and g, size the same width from one
    sweep.
    """

    half_bins: int = 32
    bin_width: Optional[float] = None

    def __post_init__(self):
        _check_half_bins(self.half_bins)


@dataclass
class DistributionState:
    """Per-vertex forward or backward distributions of one sweep.

    The sweep call makes every check and, in quantized mode, reads every
    flow and exponent; a layer's masses (and quantized means) are made
    when a read first reaches that layer, and a read makes every layer
    before it, so that reads in any order, from any thread, get the same
    bits.  The state
    keeps the lambda and g it was swept with, and a join refuses a
    partner swept with other bits.

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
    for relative edge weights, which are ``flows * 2^k``, the order-0
    rows and exponents of the moment sweep the trellis keeps in this
    direction (k is one int per layer, or an int array with one per row
    where the layer's flows span more than a double holds); ``flows``
    maps over those rows and hands out that product.  Merge layers store
    their masses; a chain layer's are rebuilt from the last stored block
    when read, unless rescaled, and exact offsets and lengths are made
    from each layer's column offsets when read.  The other mode's
    mappings are None.
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


class _Layers(Sequence):
    """One sweep's arrays, read per layer as a tuple whose index 2 holds the
    layer's (rows x values) block; ``len`` is the walk's layer count.

    The sweep call makes layer 0 and hands over ``steps``, a generator
    that makes the next layer (``keep``) each time it is sent this
    ``_Layers``.  Every read of a layer's block or extent (``masses``,
    ``__getitem__``, ``_ExactRows`` and ``_join``) first runs it up to
    that layer (``reach``), under a lock and with float errors silent, so
    reads in any order, from any thread, get a front-to-back sweep's bits.
    The generator drops the ``_Layers`` before it waits, so no reference
    cycle leaves a dropped state to the cyclic garbage collector.
    ``swept`` is the lambda and g arrays, in ``Trellis.edges`` order, that
    the sweep ran with.

    ``fields(k)`` gives layer k's other arrays (and its exponent), which
    the block joins after the first two, once layer k is made;
    ``exponents[k]`` is the power of two that scales its masses (exact)
    or flows (quantized, the moment sweep's, one per row where that sweep
    keeps one per row).  A layer where
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

    __slots__ = (
        "fields", "exponents", "swept", "_plan", "_lam", "_signed", "_blocks",
        "_steps", "_made", "_lock",
    )

    def __init__(
        self,
        plan: WalkPlan,
        block: np.ndarray,
        fields: Callable[[int], tuple],
        swept: tuple[np.ndarray, np.ndarray],
        steps: Generator[None, "_Layers", None],
        lam: Optional[np.ndarray] = None,
        exponents: Optional[list[int]] = None,
    ):
        self.fields, self.swept, self._plan, self._lam = fields, swept, plan, lam
        self._signed = lam is not None and bool(np.signbit(lam).any())
        self._blocks: list[Optional[np.ndarray]] = [block]
        self.exponents = [0] if exponents is None else exponents
        next(steps)
        self._steps, self._made, self._lock = steps, 1, threading.Lock()

    def reach(self, k: int) -> None:
        """Make layers up to layer k (0 <= k < len) that are not made yet."""
        if k >= self._made:
            with self._lock, np.errstate(all="ignore"):
                while self._made <= k:
                    self._steps.send(self)
                    self._made += 1
                if self._made == len(self):
                    self._steps = None

    def keep(
        self, block: Optional[np.ndarray], rule: Optional[_Scale] = None, rescale: bool = False
    ) -> None:
        """Append the next layer, keeping ``block``, or a chain layer (None);
        with ``rule``, at its exponent, and with ``rescale`` its masses,
        chain or not, as ``rule`` rescales them, where that moves them."""
        self._blocks.append(block)
        if rescale:
            block = self._rows(len(self._blocks) - 1)
            scaled = rule.rescale(block, block)
            if scaled is not block:
                self._blocks[-1] = scaled
        if rule is not None:
            self.exponents.append(rule.exponent)

    def masses(self, k: int, rows=None) -> np.ndarray:
        """Layer k's block (k >= 0), or a copy of its rows ``rows`` (an
        integer array), or of its row ``rows`` (an integer); a chain
        layer's built from its base."""
        self.reach(k)
        return self._rows(k, rows)

    def _rows(self, k: int, rows=None) -> np.ndarray:
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
        self.reach(k)
        fields = self.fields(k)
        return (*fields[:2], self._rows(k), *fields[2:])

    def __len__(self) -> int:
        return len(self._plan.layers)


class _ExactRows(_LayerRows):
    """The exact sweep's rows, read as vertex -> ExactDistribution.

    It adds only each vertex's extent, its own lattice points: the columns
    lo..hi-1 of its layer that its edges reach, the least lo and greatest
    hi of its neighbours each moved by the edge's shift.  A read finds
    them up to its layer, as one (lo, -hi) int array per layer, under the
    layers' lock.  Row r of layer k starts at column ``starts[k] +
    ats[k][r]``, at ``fields(k)``'s offset.
    """

    __slots__ = ("_shifts", "_step", "_starts", "_ats", "_extents")

    def __init__(self, plan: WalkPlan, layers: _Layers, shifts, step: float, starts, ats):
        super().__init__(plan, layers, None)
        self._shifts, self._step = shifts, step
        self._starts, self._ats, self._extents = starts, ats, [np.array([[0, -1]])]

    @_quiet
    def __getitem__(self, v: int) -> ExactDistribution:
        plan, (k, r), extents = self._plan, self._where[v], self._extents
        row = self._layers.masses(k, r)  # makes layer k first
        if len(extents) <= k:
            with self._layers._lock:
                for j in range(len(extents), k + 1):
                    # (lo, -hi) per vertex, so that one minimum finds both.
                    edges = slice(plan.bounds[j - 1], plan.bounds[j])
                    moved = extents[-1][plan.rows[edges]] + self._shifts[edges, None] * [1, -1]
                    extents.append(np.minimum.reduceat(moved, plan.firsts[j]))
        lo, neg_hi = extents[k][r].tolist()
        hi, start = -neg_hi, self._starts[k] + int(self._ats[k][r])
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
    mass = layers.masses(k, r)  # makes layer k, and its means, first
    mean = layers.fields(k)[0][r]
    return QuantizedDistribution(float(mean), half_bins, width, tuple(mass.tolist()))


def _mean_variance(normalized: Sequence[float]) -> tuple[float, float]:
    """Mean and variance from normalized moments (1, E[f], E[f^2]), floored at
    0: on a point mass E[f^2] - E[f]^2 cancels to a residue of either sign."""
    _, mean, second = normalized
    return mean, max(second - mean * mean, 0.0)


def _resolve_bin_width(
    trellis: Trellis, g: DepthFunctionTable, params: QuantizationParams
) -> float:
    """The bin width ``params`` gives, or else the one sized from the
    order-2 forward sweep, which the trellis keeps.  A width, given or
    sized, that is not a finite positive number raises SemiringError."""
    width = params.bin_width
    if width is None:
        moments = trellis_moments(forward_numerators(trellis, g, 2))
        if moments.normalized is None:
            raise ZeroFlowError(None, "cannot size bins: total flow is zero")
        sigma = math.sqrt(_mean_variance(moments.normalized)[1])
        width = 4.0 * sigma / params.half_bins if sigma != 0.0 else 1.0
    if not 0 < width < math.inf:
        raise SemiringError(f"bin width must be a finite positive number, got {width}")
    return float(width)


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
    step: Optional[float] = None,
) -> _ExactRows:
    """Every vertex's exact distribution, over lattice windows per layer.

    Column c of row r of layer k holds ``origins[k] + (starts[k] + ats[k][r]
    + c)*step``; ``origins[k]`` adds up the smallest g of each section
    walked so far, and an edge's shift q = (g - its section's smallest g) /
    step moves its neighbour's row q columns up.  The call finds the
    shifts, and with no ``step`` the step too, in this walk's order (the
    spreads, and so the step, do not depend on it), which raises
    LatticeError as ``_lattice`` says; the layers are ``_exact_layers``',
    made when read.
    """
    plan = trellis.plan(direction)
    lam = plan.lam(trellis)
    values = _edge_values(trellis, g)
    step, lows, shifts = _lattice(values[plan.edges], plan.bounds, step)
    # starts, ats and block width per layer.
    starts, ats, widths = [0], [np.zeros(1, dtype=np.intp)], [1]
    origins = np.cumsum(np.append(0.0, lows))
    fields = partial(_exact_fields, origins, starts, ats, widths, step)
    steps = _exact_layers(plan, lam, shifts, starts, ats, widths)
    layers = _Layers(plan, np.ones((1, 1)), fields, (trellis._lam, values), steps, lam)
    return _ExactRows(plan, layers, shifts, step, starts, ats)


def _exact_layers(
    plan: WalkPlan, lam: np.ndarray, shifts: np.ndarray, starts: list, ats: list, widths: list
) -> Generator[None, _Layers, None]:
    """The layer loop of ``_exact_sweep``: each ``send`` of its ``_Layers``
    makes the next layer and appends its start, ``ats`` and width.

    A chain layer only adds q to its rows' ``ats``, and ``_Layers`` builds
    its rows when read; where paths merge, the rows scatter onto one
    window, with ``ats`` 0, that keeps its nonzero columns.  Layer k's
    masses are scaled by 2^``exponents[k]`` of ``_Layers``, as the
    ``_Scale`` rule sets it.
    """
    rule = _Scale(lam, plan.bounds)
    growth = np.maximum.reduceat(shifts, plan.bounds[:-1]).tolist()
    cols = np.arange(sum(growth) + 1)
    sizes = [len(layer) for layer in plan.layers]
    zeros = np.zeros(max(sizes), dtype=np.intp)
    # Every ats of the last layer is at most top.
    top = 0
    layers = yield
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
        del layers  # held only while a layer is made
        layers = yield


def _merge_moves(
    means: np.ndarray,
    weights: np.ndarray,
    owners: np.ndarray,
    flow: np.ndarray,
    width: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """How bin rows merge into 2N+1 unit-mass bins per owner.

    Row r holds bins around ``means[r]`` and carries flow ``weights[r]``;
    ``flow`` is each owner's total weight, all positive.  An owner's
    mean is its rows' weighted mean, snapped by ``_snap_mean``, and each
    row moves onto it scaled by its share of the flow.  Returns the
    owners' means, and each row's shift and scale for ``_move_bins``.
    """
    wmean = np.bincount(owners, weights * means, minlength=len(flow)) / flow
    merged = _snap_mean(wmean, means, owners, width)
    return merged, (merged[owners] - means) / width, weights / flow[owners]


@_quiet
def _quantized_sweep(
    trellis: Trellis,
    g: DepthFunctionTable,
    direction: str,
    half_bins: int,
    width: float,
) -> tuple[_LayerRows, _LayerRows]:
    """Every vertex's quantized distribution and flow, over (means, flows,
    masses, k) per layer.  The flows, ``flows * 2^k``, are the rows of the
    real order-0 moment sweep (``moments._numerators``), which a sweep
    the trellis keeps in this direction serves; a merge reads only their
    ratios, which a rescale leaves as they are.  The call checks the
    labels and the flows (``moments._held``, which sweeps again with an
    exponent per row where some flow underflowed), and raises
    ZeroFlowError at the first dead vertex in walk order; the means and
    bins, ``_bin_layers``', wait for a read.
    """
    plan = trellis.plan(direction)
    lam = plan.lam(trellis, nonnegative_for="quantized mode")
    state = _numerators(trellis, g, 0, REAL, direction)
    _require_flow(plan, _held(state, positive=True).rows[:, 0])
    flows = state.table._layers
    values = g.values_for(trellis)
    means = [np.zeros(1)]
    start = QuantizedDistribution.dirac(half_bins, width)
    steps = _bin_layers(plan, lam, values[plan.edges], flows, means, width, half_bins)
    layers = _Layers(
        plan, np.asarray([start.mass]), lambda k: (means[k], flows[k][0][:, 0], flows[k][1]),
        (trellis._lam, values), steps, exponents=[exponent for _, exponent in flows],
    )
    return (
        _LayerRows(plan, layers, partial(_quantized_row, half_bins, width)),
        _LayerRows(plan, flows, lambda blocks, k, r: _scaled_row(blocks, k, r)[0]),
    )


def _bin_layers(
    plan: WalkPlan, lam: np.ndarray, gval: np.ndarray, flows: list, means: list,
    width: float, half_bins: int,
) -> Generator[None, _Layers, None]:
    """The layer loop of ``_quantized_sweep``: each ``send`` of its
    ``_Layers`` makes the next layer and appends its means.

    A vertex's incoming means are its neighbours' plus the edges' g.  On
    a chain layer that is its mean, and it takes its neighbour's bins as
    they are: a merge of one row would snap to that mean, move by 0 and
    scale by 1 (unless the bin width is below the spacing of doubles at
    the mean, where its weighted mean could round a bin away), so the
    layer keeps no block.  Where paths merge, an edge weighs lambda times
    its neighbour's scaled flow, brought to the largest exponent of the
    vertex's edges where the flows keep one per row, and the rows merge as
    ``_merge_moves`` says and move by ``_move_bins``.
    """
    layers = yield
    for k, edges in plan.layer_edges():
        rows, block = plan.rows[edges], None
        mean = means[-1][rows] + gval[edges]
        if plan.merges[k]:
            owners, n = plan.owners[edges], len(plan.layers[k])
            block, exponent = flows[k - 1]
            weights = lam[edges] * block[rows, 0]
            if type(exponent) is not int:  # bring each vertex's weights to one exponent
                shift, _ = _align(exponent[rows], lam[edges] != 0.0, plan.firsts[k], owners)
                weights = np.ldexp(weights, shift)
            flow = np.bincount(owners, weights, minlength=n)
            mean, shifts, scales = _merge_moves(mean, weights, owners, flow, width)
            block = _move_bins(layers.masses(k - 1, rows), shifts, scales, owners, n, half_bins)
        means.append(mean)
        layers.keep(block)
        del layers  # held only while a layer is made
        layers = yield


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
    """Mirror of forward_distributions, propagating from the sink.  In
    quantized mode without a bin width it sizes the bins as the forward
    sweep does, from the order-2 forward moments, so with the same params
    it has the forward sweep's width (see ``QuantizationParams``)."""
    return _distributions(trellis, g, "backward", mode, params)


def _distributions(trellis, g, direction, mode, params) -> DistributionState:
    require_valid(trellis)
    if mode not in ("exact", "quantized", "auto"):
        raise SemiringError(f"unknown distribution mode {mode!r}")
    # g is read once, for the hard-decision test and the exact sweep.
    values = g.values_for(trellis)
    hard = bool(np.all(np.abs(values) == 1.0))
    if mode != "quantized":
        try:
            exact = _exact_sweep(trellis, values, direction)
        except LatticeError:
            if mode == "exact":
                raise
        else:
            return DistributionState(
                direction, "exact", trellis.rank, hard, trellis.layers, exact=exact,
                step=exact._step,
            )
    params = params or QuantizationParams()
    width = _resolve_bin_width(trellis, g, params)
    dists, flows = _quantized_sweep(trellis, g, direction, params.half_bins, width)
    return DistributionState(
        direction, "quantized", trellis.rank, hard, trellis.layers, quantized=dists,
        flows=flows, half_bins=params.half_bins, bin_width=width,
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
    if not all(map(_same_bits, rows._layers.swept, other._layers.swept)):
        raise SemiringError("forward and backward states were swept with different lambda or g")


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float arrays of one shape hold the same bits."""
    return a is b or a.tobytes() == b.tobytes()


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
    sum of both layers' powers of two, which scales them back; where the
    flows keep one per row, the largest such sum over the joined edges,
    to which every edge's weight is brought.  With no
    edges, or no flow in quantized mode, the result has zero mass.
    """
    _check_pair(forward, backward)
    f_layers, b_layers = ((s.exact or s.quantized)._layers for s in (forward, backward))
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
        swept = (trellis._lam, g.values_for(trellis))
        if not all(map(_same_bits, swept, f_layers.swept)):
            raise SemiringError("the states were not swept with this trellis's lambda and g")
        groups, f_k, b_k = trellis.symbol_groups(), depth - 1, forward.rank - depth
        members = groups.find(depth, constraint[1]) or slice(0, 0)
        init_rows, fin_rows = groups.init_rows[members], groups.fin_rows[members]
        positions = groups.positions[members]
        lam, g = (a[positions] for a in swept)
    f_layers.reach(f_k)
    b_layers.reach(b_k)
    f_at, f_size = f_layers.fields(f_k)[:2]
    b_at, b_size = b_layers.fields(b_k)[:2]
    exponent = (
        _exponents_at(f_layers.exponents[f_k], init_rows)
        + _exponents_at(b_layers.exponents[b_k], fin_rows)
    )
    exact = forward.mode == "exact"
    half_bins, width = forward.half_bins, forward.bin_width
    if exact and not len(init_rows):
        # Zero mass; with bipolar g, at a point of the padded domain.
        at = -float(forward.rank) if forward.hard_decision else 0.0
        return _pad_hard(forward, ExactDistribution(at, forward.step, (0.0,))), exponent
    if not exact:
        owners = np.zeros(len(init_rows), dtype=np.intp)
        weights = f_size[init_rows] * lam * b_size[fin_rows]
        if type(exponent) is not int:  # an exponent per row: bring the weights to the largest
            exponent = np.where(lam != 0.0, exponent, _DEAD)
            top = int(exponent.max(initial=_DEAD))
            weights, exponent = np.ldexp(weights, exponent - top), top
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
    means, shifts, scales = _merge_moves(at, weights, owners, flow, width)
    block = _move_bins(rows, shifts, scales, owners, 1, half_bins)
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
    read from the order-2 forward sweep, which the trellis keeps, under a
    constraint joined with the backward one; the Gaussian's
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
    sweep = forward_numerators(trellis, g, 2)
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
