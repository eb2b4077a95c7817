"""Brute-force reference implementations for testing the engines.

Everything here works by explicit path or codeword enumeration and
deliberately shares no code with the recursion engines; enumeration is
capped (default 2^14 paths, overridable through the TRELLIS_PATH_CAP
environment variable) so accidental use on large instances fails loudly
instead of hanging.  All randomized helpers are deterministic functions
of their seed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import PathCountError, TrelliskitError
from .trellis import (
    DepthFunctionTable,
    Edge,
    Trellis,
    enumerate_paths,
    path_label,
)

DEFAULT_ORACLE_CAP = 2**14

# Absolute grouping tolerance for binning realized function values.
VALUE_GROUP_TOL = 1e-12


def oracle_cap() -> int:
    """Current enumeration cap (env TRELLIS_PATH_CAP overrides)."""
    raw = os.environ.get("TRELLIS_PATH_CAP")
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise TrelliskitError(
            f"TRELLIS_PATH_CAP must be an integer, got {raw!r}"
        ) from None
    if cap < 1:
        raise TrelliskitError(f"TRELLIS_PATH_CAP must be >= 1, got {cap}")
    return cap


def _paths(
    trellis: Trellis,
    u: Optional[int],
    v: Optional[int],
    constraint: Optional[tuple[int, float]] = None,
) -> list[tuple[Edge, ...]]:
    paths = list(enumerate_paths(trellis, u, v, cap=oracle_cap()))
    if constraint is None:
        return paths
    depth, symbol = constraint
    keep = []
    for path in paths:
        for e in path:
            if trellis.depth_of(e.init) + 1 == depth:
                if e.clabel == symbol:
                    keep.append(path)
                break
    return keep


def oracle_flow(
    trellis: Trellis, u: Optional[int] = None, v: Optional[int] = None
) -> float:
    """Sum of path label products between two vertices."""
    return float(sum(path_label(p) for p in _paths(trellis, u, v)))


def oracle_moment(
    trellis: Trellis,
    g: DepthFunctionTable,
    order: int,
    constraint: Optional[tuple[int, float]] = None,
) -> float:
    """Sum over source-to-sink paths of f(P)^order times the path label.

    ``constraint=(depth, symbol)`` keeps only paths whose section-depth
    edge carries the given c-label.
    """
    total = 0.0
    for path in _paths(trellis, None, None, constraint):
        total += g.path_value(path) ** order * path_label(path)
    return float(total)


def oracle_forward_numerator(
    trellis: Trellis, g: DepthFunctionTable, order: int, v: int
) -> float:
    """Sum over source-to-v paths of f^order times the label."""
    total = 0.0
    for path in _paths(trellis, trellis.source, v):
        total += g.path_value(path) ** order * path_label(path)
    return float(total)


def oracle_backward_numerator(
    trellis: Trellis, g: DepthFunctionTable, order: int, v: int
) -> float:
    """Sum over v-to-sink paths of the tail value raised to ``order``."""
    total = 0.0
    for path in _paths(trellis, v, trellis.sink):
        total += g.path_value(path) ** order * path_label(path)
    return float(total)


def oracle_joint_moment(
    trellis: Trellis,
    g_y: DepthFunctionTable,
    g_z: DepthFunctionTable,
    order_y: int,
    order_z: int,
    v: Optional[int] = None,
) -> float:
    """Sum over source-to-v paths of f_y^k * f_z^m * label."""
    total = 0.0
    for path in _paths(trellis, trellis.source, v):
        total += (
            g_y.path_value(path) ** order_y
            * g_z.path_value(path) ** order_z
            * path_label(path)
        )
    return float(total)


def oracle_min_path_metric(trellis: Trellis) -> float:
    """Exhaustive minimum over paths of the sum of edge labels."""
    best = math.inf
    for path in _paths(trellis, None, None):
        best = min(best, sum(e.lam for e in path))
    return float(best)


def oracle_numerator_profile(
    trellis: Trellis,
    g: DepthFunctionTable,
    max_order: int,
    v: int,
    direction: str = "forward",
) -> tuple[float, ...]:
    """All orders 0..max_order at one vertex from a single enumeration."""
    if direction == "forward":
        endpoints = (trellis.source, v)
    else:
        endpoints = (v, trellis.sink)
    sums = [0.0] * (max_order + 1)
    for path in _paths(trellis, *endpoints):
        label = path_label(path)
        value = g.path_value(path)
        term = label
        for m in range(max_order + 1):
            sums[m] += term
            term *= value
    return tuple(sums)


@dataclass(frozen=True)
class OracleDistribution:
    """Realized function values and their accumulated path weights."""

    points: tuple[tuple[float, float], ...]  # sorted (value, mass)

    def as_dict(self) -> dict[float, float]:
        return dict(self.points)

    def total(self) -> float:
        return float(sum(w for _, w in self.points))

    def moment(self, m: int) -> float:
        return float(sum(w * v**m for v, w in self.points))


def oracle_distribution(
    trellis: Trellis,
    g: DepthFunctionTable,
    constraint: Optional[tuple[int, float]] = None,
) -> OracleDistribution:
    """Histogram of f over enumerated paths, weighted by path labels.

    Realized values closer than VALUE_GROUP_TOL are grouped into one
    point (exact hashing is impossible for soft-decision g values).
    """
    realized: list[tuple[float, float]] = []
    for path in _paths(trellis, None, None, constraint):
        realized.append((g.path_value(path), path_label(path)))
    realized.sort()
    points: list[list[float]] = []
    for value, weight in realized:
        if points and abs(value - points[-1][0]) <= VALUE_GROUP_TOL:
            points[-1][1] += weight
        else:
            points.append([value, weight])
    return OracleDistribution(tuple((v, w) for v, w in points))


# -- codeword-level references ----------------------------------------------------


def trellis_codewords(trellis: Trellis) -> list[tuple[float, ...]]:
    """c-label sequence of every source-to-sink path."""
    return [
        tuple(e.clabel for e in path) for path in _paths(trellis, None, None)
    ]


def _likelihood(kind: str, param: float, received: float, symbol: float) -> float:
    # Channel formulas are inlined on purpose: the oracle must not share
    # code with the application layer it cross-checks.
    if kind == "bsc":
        return 1.0 - param if received == symbol else param
    if kind == "awgn":
        return math.exp(-((received - symbol) ** 2) / (2.0 * param)) / math.sqrt(
            2.0 * math.pi * param
        )
    raise TrelliskitError(f"unknown channel kind {kind!r}")


def word_likelihood(
    kind: str, param: float, received: Sequence[float], word: Sequence[float]
) -> float:
    """Memoryless channel likelihood of ``received`` given ``word``."""
    if len(received) != len(word):
        raise TrelliskitError("received word and codeword lengths differ")
    out = 1.0
    for r, c in zip(received, word):
        out *= _likelihood(kind, param, r, c)
    return out


def oracle_posterior_entropy(
    codewords: Sequence[Sequence[float]],
    kind: str,
    param: float,
    received: Sequence[float],
    constraint: Optional[tuple[int, float]] = None,
) -> float:
    """Mean posterior uncertainty of a code or subcode, in bits.

    The per-codeword uncertainty is -log2 of the full-code posterior;
    with a constraint the averaging weights are renormalized over the
    matching subcode, so for the full code this is exactly the Shannon
    entropy of the posterior.
    """
    if len(codewords) > oracle_cap():
        raise PathCountError(
            f"{len(codewords)} codewords exceed the oracle cap {oracle_cap()}"
        )
    likes = [word_likelihood(kind, param, received, c) for c in codewords]
    total = sum(likes)
    if total <= 0.0:
        raise TrelliskitError("all codeword likelihoods are zero")
    posterior = [l / total for l in likes]
    if constraint is None:
        weights = posterior
        subset = range(len(codewords))
    else:
        depth, symbol = constraint
        subset = [
            i for i, c in enumerate(codewords) if c[depth - 1] == symbol
        ]
        sub_total = sum(posterior[i] for i in subset)
        if sub_total <= 0.0:
            raise TrelliskitError("constrained subcode has zero posterior mass")
        weights = {i: posterior[i] / sub_total for i in subset}
    entropy = 0.0
    for i in subset:
        w = weights[i]
        if w > 0.0:
            entropy += w * (-math.log2(posterior[i]))
    return float(entropy)


def oracle_correlation_moment(
    codewords: Sequence[Sequence[float]],
    kind: str,
    param: float,
    received: Sequence[float],
    word: Sequence[float],
    order: int,
    constraint: Optional[tuple[int, float]] = None,
) -> float:
    """Direct codeword sum of (c . w)^order under the posterior.

    With a constraint the posterior is renormalized over the subcode, so
    the result is the conditional expectation given both the received
    word and the constrained code bit.
    """
    indices = range(len(codewords))
    if constraint is not None:
        depth, symbol = constraint
        indices = [
            i for i in indices if codewords[i][depth - 1] == symbol
        ]
    likes = {
        i: word_likelihood(kind, param, received, codewords[i]) for i in indices
    }
    total = sum(likes.values())
    if total <= 0.0:
        raise TrelliskitError("constrained likelihood sum is zero")
    out = 0.0
    for i in indices:
        corr = sum(ci * wi for ci, wi in zip(codewords[i], word))
        out += corr**order * likes[i] / total
    return float(out)


def conv_encode(
    generators: Sequence[int],
    info_bits: Sequence[int],
    terminate: bool = True,
) -> tuple[float, ...]:
    """Direct shift-register convolutional encoder (bipolar output).

    Generators are tap masks whose most significant bit weights the
    current input; ``terminate`` appends enough zero inputs to flush the
    register.  Independent of the trellis builders by construction.
    """
    memory = max(g.bit_length() for g in generators) - 1
    register = [0] * memory
    bits = list(info_bits) + ([0] * memory if terminate else [])
    out: list[float] = []
    for u in bits:
        window = [int(u)] + register
        for gen in generators:
            acc = 0
            for k, w in enumerate(window):
                if gen >> (memory - k) & 1:
                    acc ^= w
            out.append(1.0 - 2.0 * acc)
        register = [int(u)] + register[:-1]
    return tuple(out)


# -- randomized instances -----------------------------------------------------------


def random_trellis(
    seed: int,
    max_rank: int = 8,
    max_width: int = 3,
    path_cap: int = 1024,
    extra_edge_prob: float = 0.35,
    parallel_edge_prob: float = 0.15,
) -> Trellis:
    """Seeded random trellis with every vertex on a source-sink path.

    Layer widths, extra edges, parallel edges, labels in (0, 1] and
    bipolar c-labels are all drawn from the seed; instances whose path
    count exceeds ``path_cap`` are resampled with a derived seed.
    """
    rng = np.random.default_rng(seed)
    for _ in range(64):
        rank = int(rng.integers(2, max_rank + 1))
        widths = [1] + [int(rng.integers(1, max_width + 1)) for _ in range(rank - 1)] + [1]
        vertex_depths: dict[int, int] = {}
        layers: list[list[int]] = []
        vid = 0
        for depth, width in enumerate(widths):
            layer = []
            for _ in range(width):
                vertex_depths[vid] = depth
                layer.append(vid)
                vid += 1
            layers.append(layer)

        pairs: list[tuple[int, int]] = []
        for depth in range(1, rank + 1):
            left, right = layers[depth - 1], layers[depth]
            covered = set()
            for u in left:
                w = right[int(rng.integers(0, len(right)))]
                pairs.append((u, w))
                covered.add(w)
            for w in right:
                if w not in covered:
                    u = left[int(rng.integers(0, len(left)))]
                    pairs.append((u, w))
            for u in left:
                for w in right:
                    if rng.random() < extra_edge_prob:
                        pairs.append((u, w))
            if rng.random() < parallel_edge_prob:
                u, w = pairs[-1]
                pairs.append((u, w))

        edges = [
            Edge(
                eid,
                u,
                w,
                float(1.0 - rng.random()),
                float(rng.choice((-1.0, 1.0))),
            )
            for eid, (u, w) in enumerate(pairs)
        ]
        trellis = Trellis(rank, vertex_depths, edges)
        try:
            n_paths = sum(1 for _ in enumerate_paths(trellis, cap=path_cap))
        except PathCountError:
            continue
        if n_paths >= 1:
            return trellis
    raise TrelliskitError(f"could not draw a random trellis for seed {seed}")


def random_g_table(
    trellis: Trellis, seed: int, low: float = -2.0, high: float = 2.0
) -> DepthFunctionTable:
    """Seeded per-edge g values drawn uniformly from [low, high]."""
    rng = np.random.default_rng(seed)
    return DepthFunctionTable(
        {e.id: float(rng.uniform(low, high)) for e in trellis.edges}
    )
