import math
from itertools import chain
from operator import attrgetter

import numpy as np
import pytest

from trelliskit import (
    DepthFunctionTable,
    Edge,
    SemiringError,
    Trellis,
    TrellisFormatError,
    TrellisStructureError,
    build_spc_trellis,
    moments,
)
from trelliskit.codes import MAX_CONV_MEMORY
from trelliskit.semirings import _PASCAL


def rel_err(a: float, b: float) -> float:
    """Relative error with a unit floor, symmetric in both arguments."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def assert_close(a, b, tol=1e-9, msg=""):
    assert rel_err(a, b) <= tol, f"{msg} {a} vs {b} (rel err {rel_err(a, b):.3e})"


def dist_as_dict(dist) -> dict:
    """Value -> mass mapping of an exact or quantized distribution."""
    return {
        v: w for v, w in zip(dist.values(), dist.mass) if w != 0.0
    }


def assert_same_mass(actual: dict, expected: dict, tol=1e-9, value_tol=1e-9):
    """Compare two value->mass mappings up to small value drift."""
    remaining = dict(actual)
    for value, weight in expected.items():
        hit = None
        for v in remaining:
            if abs(v - value) <= value_tol * max(1.0, abs(value)):
                hit = v
                break
        assert hit is not None, f"no mass near {value} (have {sorted(remaining)})"
        assert rel_err(remaining.pop(hit), weight) <= tol, (
            f"mass at {value}: {actual.get(hit)} vs {weight}"
        )
    leftover = sum(abs(w) for w in remaining.values())
    assert leftover <= tol, f"unexpected extra mass {remaining}"


@pytest.fixture(scope="session")
def spc4():
    return build_spc_trellis(4)


@pytest.fixture(scope="session")
def spc4_clabel_g(spc4):
    return DepthFunctionTable.from_clabels(spc4)


def reference_walk(trellis, direction):
    """The order in which a sweep in ``direction`` visits the vertices,
    as ``Edge`` objects: the walk that ``Trellis.plan`` holds as arrays.

    Returns ``(start, steps, neighbor)``.  A forward sweep starts at the
    source and a backward one at the sink; ``steps`` yields one group per
    layer, layer by layer away from ``start``, holding every vertex of
    that layer with its local edges (in-edges going forward, out-edges
    going backward); ``neighbor(e)`` is the end of a local edge that the
    sweep has already visited, which lies in the group before.
    """
    if direction == "forward":
        start, layers, local = trellis.source, trellis.layers[1:], trellis.in_edges
        neighbor = attrgetter("init")
    elif direction == "backward":
        start, layers, local = trellis.sink, trellis.layers[-2::-1], trellis.out_edges
        neighbor = attrgetter("fin")
    else:
        raise SemiringError(f"unknown direction {direction!r}")
    steps = (tuple((v, local(v)) for v in layer) for layer in layers)
    return start, steps, neighbor


def entropy_bits(probabilities) -> float:
    return -sum(p * math.log2(p) for p in probabilities if p > 0)


# -- per-edge references of the array builders, splitter, parser and walker ----
#
# Each makes one ``Edge`` object per edge and hands them to ``Trellis``; the
# library computes the same trellises as arrays.


def reference_build_spc_trellis(n: int) -> Trellis:
    if n < 2:
        raise TrellisStructureError(f"SPC block length must be >= 2, got {n}")
    edges: list[Edge] = []
    for depth in range(1, n + 1):
        for parity in (0,) if depth == 1 else (0, 1):
            for symbol in (1.0, -1.0):
                # A -1 flips the parity, and the sink takes even parity.
                nxt = parity ^ (symbol < 0)
                if depth < n or nxt == 0:
                    init = max(2 * depth - 3 + parity, 0)
                    fin = 2 * depth - 1 + nxt
                    edges.append(Edge(len(edges), init, fin, 1.0, symbol))
    return Trellis(n, {v: (v + 1) // 2 for v in range(2 * n)}, edges)


def reference_build_conv_trellis(generators, info_len: int) -> Trellis:
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

    def step(state: int, u: int) -> int:
        return 0 if memory == 0 else (u << (memory - 1)) | (state >> 1)

    # Vertices are numbered layer by layer, states in increasing order.
    layer, vid_of = [0], {(0, 0): 0}
    edges: list[Edge] = []
    symbols: dict[int, tuple[float, ...]] = {}
    for t in range(1, sections + 1):
        inputs = (0, 1) if t <= info_len else (0,)
        prev = layer
        layer = sorted({step(s, u) for s in prev for u in inputs})
        for s in layer:
            vid_of[(t, s)] = len(vid_of)
        for s in prev:
            for u in inputs:
                window = (u << memory) | s
                symbols[len(edges)] = tuple(
                    1.0 - 2.0 * (bin(gen & window).count("1") & 1) for gen in gens
                )
                edges.append(
                    Edge(len(edges), vid_of[(t - 1, s)], vid_of[(t, step(s, u))], 1.0, 0.0)
                )
    vertex_depths = {vid: depth for (depth, _), vid in vid_of.items()}
    raw = Trellis(sections, vertex_depths, edges)
    return reference_split_multi_symbol_edges(raw, len(gens), symbols)


def reference_split_multi_symbol_edges(trellis, symbols_per_edge, symbol_table) -> Trellis:
    c = int(symbols_per_edge)
    if c < 1:
        raise TrellisStructureError(f"symbols_per_edge must be >= 1, got {c}")
    for e in trellis.edges:
        if e.id not in symbol_table:
            raise TrellisStructureError(f"no symbols for edge {e.id}")
        if len(symbol_table[e.id]) != c:
            raise TrellisStructureError(
                f"edge {e.id} carries {len(symbol_table[e.id])} symbols, "
                f"expected {c}"
            )

    vmap = {v: i for i, v in enumerate(chain.from_iterable(trellis.layers))}
    depths = {vmap[v]: c * d for d, layer in enumerate(trellis.layers) for v in layer}
    edges: list[Edge] = []
    # The edges of every section, section by section, in edge order.
    sections = trellis.edge_arrays.section
    inside = np.flatnonzero(sections < trellis.rank)
    order = inside[np.argsort(sections[inside], kind="stable")]
    for i, section in zip(order.tolist(), sections[order].tolist()):
        e = trellis.edges[i]
        prev = vmap[e.init]
        for k in range(c):
            if k == c - 1:
                nxt = vmap[e.fin]
            else:
                nxt = len(depths)
                depths[nxt] = c * section + k + 1
            lam = e.lam if k == 0 else 1.0
            edges.append(Edge(len(edges), prev, nxt, lam, float(symbol_table[e.id][k])))
            prev = nxt
    return Trellis(c * trellis.rank, depths, edges)


def reference_loads_trellis(text: str) -> Trellis:
    def keyed(field: str, key: str) -> str:
        prefix = key + "="
        if not field.startswith(prefix):
            raise ValueError(f"expected {prefix}<value>, got {field!r}")
        return field[len(prefix):]

    rank = None
    vertex_depths: dict[int, int] = {}
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            if fields[0] == "trellis":
                rank = int(keyed(fields[1], "rank"))
            elif fields[0] == "v":
                vid = int(fields[1])
                if vid in vertex_depths:
                    raise ValueError(f"duplicate vertex id {vid}")
                vertex_depths[vid] = int(keyed(fields[2], "depth"))
            elif fields[0] == "e":
                edges.append(
                    Edge(
                        int(fields[1]),
                        int(fields[2]),
                        int(fields[3]),
                        float(keyed(fields[4], "lambda")),
                        float(keyed(fields[5], "clabel")),
                    )
                )
            else:
                raise ValueError(f"unknown record type {fields[0]!r}")
        except (IndexError, ValueError) as exc:
            raise TrellisFormatError(f"line {lineno}: {exc}") from None
    if rank is None:
        raise TrellisFormatError("missing 'trellis rank=<n>' header")
    try:
        return Trellis(rank, vertex_depths, edges)
    except TrellisStructureError as exc:
        raise TrellisFormatError(str(exc)) from None


def reference_random_codeword(trellis, rng) -> list[float]:
    """c-labels along a random source-to-sink walk, one ``out_edges``
    draw per vertex."""
    word = []
    v = trellis.source
    while v != trellis.sink:
        edges = trellis.out_edges(v)
        e = edges[int(rng.integers(0, len(edges)))]
        word.append(e.clabel)
        v = e.fin
    return word


# -- the moment layer step before runs of prebuilt weights ----------------------
#
# Each layer gathered and scaled its edges' binomial weights anew, edge by
# edge, and joined them per vertex with ``reduceat`` on every layer.  The
# library's step must give the same blocks and exponents.


def reference_advance(semiring, index, lift, prev, firsts, live=None):
    """One layer: ``lift`` is (edges, orders), ``prev`` (edges, orders)."""
    coefficients, power, lower = index
    terms = semiring.scale(coefficients, lift[:, power])
    semiring.mul(terms, prev[:, None, :], out=terms)
    terms = semiring.add.reduce(terms, axis=2, where=lower, initial=semiring.zero)
    if live is not None:
        terms[~live] = semiring.zero
    return semiring.add.reduceat(terms, firsts, axis=0)


def reference_index(orders):
    """C(m, j) (0 above the diagonal), the power m - j and the mask j <= m,
    for one order or the flattened joint grid of several."""
    coefficients, power = np.ones((1, 1)), np.zeros((1, 1), dtype=np.intp)
    lower = np.ones((1, 1), dtype=bool)
    for order in orders:
        m, j = np.indices((order + 1, order + 1))
        below = j <= m
        pascal = [_PASCAL[k] + [0] * (order - k) for k in range(order + 1)]
        coefficients = np.kron(coefficients, np.array(pascal, dtype=float))
        lower = np.kron(lower, below)
        power = np.kron(power * (order + 1), np.ones_like(m)) + np.kron(
            np.ones_like(power), np.where(below, m - j, 0)
        )
    return coefficients, power, lower


def reference_sweep(semiring, plan, lift, orders):
    """``moments._sweep`` with ``lift`` as (edges, orders) in walk order:
    the transpose of ``_lift_rows``' rows, as the sweep was handed it."""
    index = reference_index(orders)
    block = np.full((1, lift.shape[1]), semiring.zero)
    block[0, 0], exponent = semiring.one, 0
    layers = [(block, exponent)]
    scaled = semiring.mul is np.multiply
    if scaled:
        growth = np.add.reduceat(np.abs(lift[:, 0]), plan.bounds[:-1]).tolist()
        bound = math.inf
    for k, edges in plan.layer_edges():
        prev = block[plan.rows[edges]]
        # An edge whose label is the semiring zero adds the semiring zero.
        live = lift[edges, 0] != semiring.zero
        block = reference_advance(semiring, index, lift[edges], prev, plan.firsts[k], live)
        if scaled:
            bound *= growth[k - 1]
            if bound > moments._HIGH or abs(block.item(0)) < moments._LOW:
                block, bound, shift = moments._rescale(block, block[:, 0])
                exponent += shift
        layers.append((block, exponent))
    return layers
