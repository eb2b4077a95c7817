"""Depth-layered trellis graphs with dual edge labels.

A trellis of rank n is a DAG whose vertices carry a depth in 0..n, with a
single source A at depth 0 and a single sink B at depth n.  Every edge
joins consecutive depths; parallel edges between the same vertex pair are
allowed.  Each edge carries two labels:

* ``lam``    — the multiplicative branch label (channel likelihood,
  branch metric, ...).  Stored as a plain real; recursion engines coerce
  it into the chosen semiring carrier.
* ``clabel`` — the secondary symbol label (bipolar +/-1 code symbol in the
  coding application).  Always a plain real.

A trellis keeps its edges as arrays, checked and indexed once by the one
array constructor that the code builders, the edge splitter and the
parser all end in; an :class:`Edge` is a read-side view of one edge.

The module also provides the line-oriented text format used by the CLI,
exhaustive path enumeration (the substrate for all brute-force oracles)
and the edge-splitting transform that turns a multi-symbol-per-edge
trellis into an equivalent one-symbol-per-edge trellis.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    GTableError,
    PathCountError,
    SemiringError,
    TrellisFormatError,
    TrellisStructureError,
    UnknownVertexError,
)

# Guard for exhaustive enumeration; oracles use a tighter cap of their own.
DEFAULT_PATH_CAP = 2**20


@dataclass(frozen=True)
class Edge:
    """Directed edge from ``init`` (depth i-1) to ``fin`` (depth i)."""

    id: int
    init: int
    fin: int
    lam: float = 1.0
    clabel: float = 0.0


@dataclass(frozen=True, eq=False)
class EdgeArrays:
    """One topology's edges as read-only arrays in ``Trellis.edges`` order.

    Per edge: its id, ``init`` and ``fin`` vertex and c-label, its
    ``section`` (the depth of ``init``, the rule of ``edges_at``), the
    depth of ``fin``, and the rows of ``init`` and ``fin`` in their
    layers.  The constructor builds them once, and every ``relabeled``
    copy shares them.
    """

    ids: np.ndarray
    init: np.ndarray
    fin: np.ndarray
    clabel: np.ndarray
    section: np.ndarray
    fin_depth: np.ndarray
    init_row: np.ndarray
    fin_row: np.ndarray


class _Lookup(NamedTuple):
    """Edges by id, per vertex and per section, built on first read."""

    by_id: dict[int, Edge]
    into: dict[int, tuple[Edge, ...]]
    out: dict[int, tuple[Edge, ...]]
    sections: tuple[tuple[Edge, ...], ...]


class Trellis:
    """Immutable depth-layered graph; safe to share between readers.

    Construction accepts structurally questionable graphs (isolated
    vertices, depth-skipping edges, several vertices at depth 0) so that
    :func:`validate` can report every violation; only graphs that cannot
    be represented at all (unknown endpoints, duplicate ids, depths
    outside 0..rank) are rejected outright.

    The edges are kept as arrays, the topology's :class:`EdgeArrays` and
    one label array, which one array core checks and indexes for every
    way of making a trellis.  A trellis made from ``Edge`` objects keeps
    them; any other builds them when a caller first reads them, and any
    trellis builds its per-vertex and per-section edge tuples then too.
    """

    def __init__(
        self,
        rank: int,
        vertex_depths: Mapping[int, int] | Iterable[tuple[int, int]],
        edges: Iterable[Edge],
    ):
        if isinstance(vertex_depths, Mapping):
            vertex_depths = vertex_depths.items()
        vertices = np.array(list(vertex_depths), dtype=np.intp).reshape(-1, 2).T
        edges = tuple(edges)
        ends = np.array([(e.id, e.init, e.fin) for e in edges], dtype=np.intp)
        labels = np.array([(e.lam, e.clabel) for e in edges], dtype=float)
        self._build(rank, *vertices, *ends.reshape(-1, 3).T, *labels.reshape(-1, 2).T, edges)

    @classmethod
    def _from_arrays(cls, *arrays: Any) -> "Trellis":
        """``_build`` on a new trellis, which makes no ``Edge`` objects."""
        trellis = object.__new__(cls)
        trellis._build(*arrays, None)
        return trellis

    def _build(self, rank, vertex_ids, vertex_depths, ids, init, fin, lam, clabel, edges):
        """Check and index a trellis given as arrays.  TrellisStructureError
        names a rank below 1, else the first vertex with a repeated id or a
        depth outside 0..rank, else the first edge with a repeated id, an
        unknown init or fin vertex or a non-finite label, in that order."""
        if rank < 1:
            raise TrellisStructureError(f"rank must be >= 1, got {rank}")
        repeated = _repeats(vertex_ids)
        bad = repeated | (vertex_depths < 0) | (vertex_depths > rank)
        if bad.any():
            i = int(np.argmax(bad))
            v, d = int(vertex_ids[i]), int(vertex_depths[i])
            if repeated[i]:
                raise TrellisStructureError(f"duplicate vertex id {v}")
            raise TrellisStructureError(f"vertex {v} depth {d} outside 0..{rank}")
        # Vertices layer by layer, each layer in increasing id order.
        by_layer = np.lexsort((vertex_ids, vertex_depths))
        vertices, depth = vertex_ids[by_layer], vertex_depths[by_layer]
        sizes = np.bincount(depth, minlength=rank + 1)
        first = np.cumsum(sizes) - sizes
        flat, ends = vertices.tolist(), np.cumsum(sizes).tolist()
        layers = tuple(tuple(flat[a:b]) for a, b in zip(first.tolist(), ends))
        row = np.arange(len(vertices)) - first[depth]
        by_vertex = np.argsort(vertices)
        init_at, init_known = _find(vertices[by_vertex], init)
        fin_at, fin_known = _find(vertices[by_vertex], fin)
        _check_edges(
            ids, lam, clabel,
            (_repeats(ids), lambda i: f"duplicate edge id {ids[i]}"),
            (~init_known, lambda i: f"edge {ids[i]} init vertex {init[i]} unknown"),
            (~fin_known, lambda i: f"edge {ids[i]} fin vertex {fin[i]} unknown"),
        )
        init_v, fin_v = by_vertex[init_at], by_vertex[fin_at]
        arrays = EdgeArrays(
            ids, init, fin, clabel, depth[init_v], depth[fin_v], row[init_v], row[fin_v]
        )
        for a in (*vars(arrays).values(), lam):
            a.flags.writeable = False
        depths = dict(zip(vertex_ids.tolist(), vertex_depths.tolist()))
        self._index(rank, depths, layers, lam, edges, {"edges": arrays})

    def _index(
        self,
        rank: int,
        depth: dict[int, int],
        layers: tuple[tuple[int, ...], ...],
        lam: np.ndarray,
        edges: tuple[Edge, ...] | None,
        plans: dict[str, Any],
    ) -> None:
        """Set every attribute; the constructor and ``relabeled`` both end
        here.  ``edges`` is None for a copy, which builds them from its
        labels and the edge arrays on first read."""
        self.rank = rank
        self._depth = depth
        self.layers = layers
        # Every edge's lambda in edge order, read-only.
        self._lam = lam
        self._edges = edges
        self._lookup: _Lookup | None = None
        # The edge arrays, and the validation report, the walk plans by
        # direction, the symbol groups and their joins' term orders, built on
        # first use.  relabeled() copies share this dict with their parent,
        # so a topology builds each once.
        self._plans = plans

    # -- structural queries -------------------------------------------------

    @property
    def edge_arrays(self) -> EdgeArrays:
        """The topology's edges as arrays, in ``edges`` order."""
        return self._plans["edges"]

    @property
    def edges(self) -> tuple[Edge, ...]:
        if self._edges is None:
            a = self.edge_arrays
            self._edges = tuple(
                map(
                    Edge,
                    a.ids.tolist(),
                    a.init.tolist(),
                    a.fin.tolist(),
                    self._lam.tolist(),
                    a.clabel.tolist(),
                )
            )
        return self._edges

    def _edge_lookup(self) -> _Lookup:
        if self._lookup is None:
            into: dict[int, list[Edge]] = {v: [] for v in self._depth}
            out: dict[int, list[Edge]] = {v: [] for v in self._depth}
            sections: list[list[Edge]] = [[] for _ in range(self.rank + 1)]
            for e, section in zip(self.edges, self.edge_arrays.section.tolist()):
                out[e.init].append(e)
                into[e.fin].append(e)
                sections[section].append(e)
            self._lookup = _Lookup(
                {e.id: e for e in self.edges},
                {v: tuple(es) for v, es in into.items()},
                {v: tuple(es) for v, es in out.items()},
                # Edges leaving the final layer belong to no section.
                tuple(tuple(es) for es in sections[: self.rank]),
            )
        return self._lookup

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(self._depth)

    def depth_of(self, v: int) -> int:
        try:
            return self._depth[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v}") from None

    @property
    def source(self) -> int:
        if len(self.layers[0]) != 1:
            raise TrellisStructureError(
                f"expected exactly one vertex at depth 0, found {len(self.layers[0])}"
            )
        return self.layers[0][0]

    @property
    def sink(self) -> int:
        if len(self.layers[-1]) != 1:
            raise TrellisStructureError(
                f"expected exactly one vertex at depth {self.rank}, "
                f"found {len(self.layers[-1])}"
            )
        return self.layers[-1][0]

    def in_edges(self, v: int) -> tuple[Edge, ...]:
        try:
            return self._edge_lookup().into[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v}") from None

    def out_edges(self, v: int) -> tuple[Edge, ...]:
        try:
            return self._edge_lookup().out[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v}") from None

    def edge(self, edge_id: int) -> Edge:
        try:
            return self._edge_lookup().by_id[edge_id]
        except KeyError:
            raise TrellisStructureError(f"unknown edge {edge_id}") from None

    def edges_at(self, depth: int) -> tuple[Edge, ...]:
        """Edges of the section entering layer ``depth`` (1-based)."""
        if not 1 <= depth <= self.rank:
            raise TrellisStructureError(
                f"section depth {depth} outside 1..{self.rank}"
            )
        return self._edge_lookup().sections[depth - 1]

    def plan(self, direction: str) -> "WalkPlan":
        """The walk in ``direction`` as index arrays (see :class:`WalkPlan`).

        Needs a valid trellis; built on first use and shared with every
        ``relabeled`` copy.
        """
        if direction not in ("forward", "backward"):
            raise SemiringError(f"unknown direction {direction!r}")
        plan = self._plans.get(direction)
        if plan is None:
            require_valid(self)
            plan = self._plans[direction] = _walk_plan(self, direction)
        return plan

    def symbol_groups(self) -> "SymbolGroups":
        """Each section's edges grouped by c-label (see
        :class:`SymbolGroups`).  Needs a valid trellis; built once and
        shared with every ``relabeled`` copy."""
        require_valid(self)
        return self._symbol_groups()

    def _symbol_groups(self) -> "SymbolGroups":
        groups = self._plans.get("symbols")
        if groups is None:
            groups = self._plans["symbols"] = _group_symbols(self)
        return groups

    def relabeled(
        self, labels: Callable[[Edge], float] | Sequence[float] | np.ndarray
    ) -> "Trellis":
        """Copy with new lambda-labels: ``labels(e)`` for each edge, or
        ``labels`` listed in ``edges`` order.

        The structure is unchanged, so the copy shares this trellis's
        depths, layers, validation report, edge arrays, walk plans and
        symbol groups, and stores only its label array.  A non-finite
        label raises TrellisStructureError naming the first such edge.
        """
        if callable(labels):
            labels = [float(labels(e)) for e in self.edges]
        lam = np.array(labels, dtype=float)
        if lam.shape != self._lam.shape:
            raise TrellisStructureError(
                f"expected {len(self._lam)} labels, got shape {lam.shape}"
            )
        _check_edges(self.edge_arrays.ids, lam, self.edge_arrays.clabel)
        lam.flags.writeable = False
        copy = object.__new__(Trellis)
        copy._index(
            self.rank, self._depth, self.layers, lam, None, self._plans
        )
        return copy

    def __repr__(self) -> str:
        return (
            f"Trellis(rank={self.rank}, vertices={len(self._depth)}, "
            f"edges={len(self._lam)})"
        )


def _check_edges(
    ids: np.ndarray,
    lam: np.ndarray,
    clabel: np.ndarray,
    *faults: tuple[np.ndarray, Callable[[int], str]],
) -> None:
    """TrellisStructureError naming the first edge that has one of
    ``faults`` or a non-finite label.  A fault is a (mask, message) pair:
    the mask marks the edges that have it, and ``message(i)`` describes
    edge i's.  An edge with several reports the first, the label last."""
    bad = ~(np.isfinite(lam) & np.isfinite(clabel))
    for mask, _ in faults:
        bad |= mask
    if bad.any():
        i = int(np.argmax(bad))
        for mask, message in faults:
            if mask[i]:
                raise TrellisStructureError(message(i))
        raise TrellisStructureError(
            f"edge {ids[i]} has a non-finite label "
            f"(lambda={float(lam[i])!r}, clabel={float(clabel[i])!r})"
        )


def _find(known: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's index in the sorted array ``known`` (0 where absent),
    and whether it is there."""
    at = np.searchsorted(known, values)
    found = at < len(known)
    found[found] = known[at[found]] == values[found]
    return np.where(found, at, 0), found


def _repeats(values: np.ndarray) -> np.ndarray:
    """Whether each value occurred earlier in ``values``."""
    repeated = np.ones(len(values), dtype=bool)
    repeated[np.unique(values, return_index=True)[1]] = False
    return repeated


class SymbolGroups:
    """Each section's edges grouped by c-label, as flat arrays.

    Groups are sorted by ``(depth, clabel)``, and group k's edges, in
    section order, are entries ``offsets[k]:offsets[k+1]`` of three
    arrays: ``positions`` (in ``Trellis.edges``) and
    ``init_rows``/``fin_rows`` (the rows of the init and fin vertices in
    their layers, as in either walk plan).  ``find(depth, clabel)`` gives
    that slice.
    """

    def __init__(self, positions, init_rows, fin_rows, offsets, depths, clabels):
        self.positions = positions
        self.init_rows = init_rows
        self.fin_rows = fin_rows
        self.offsets = offsets
        self.depths = depths
        self.clabels = clabels
        # For find(): the first group of every depth, and the keys, as
        # Python numbers.
        self._first = np.searchsorted(depths, np.arange(depths.max(initial=0) + 2)).tolist()
        self._labels = clabels.tolist()
        self._bounds = offsets.tolist()

    def find(self, depth: int, clabel: float) -> slice | None:
        """The entries of the section-``depth`` edges with ``clabel``, or
        None when there are none."""
        if not 0 < depth < len(self._first) - 1:
            return None
        for k in range(self._first[depth], self._first[depth + 1]):
            if self._labels[k] == clabel:
                return slice(self._bounds[k], self._bounds[k + 1])
        return None


def _group_symbols(trellis: Trellis) -> SymbolGroups:
    a = trellis.edge_arrays
    inside = np.flatnonzero(a.section < trellis.rank)
    section, clabel = a.section[inside], a.clabel[inside]
    # lexsort is stable, so each group keeps section order.
    order = np.lexsort((clabel, section))
    section, clabel = section[order], clabel[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (section[1:] != section[:-1]) | (clabel[1:] != clabel[:-1])
    firsts = np.flatnonzero(starts)
    positions = inside[order]
    fields = (
        positions,
        a.init_row[positions],
        a.fin_row[positions],
        np.append(firsts, len(order)),
        section[firsts] + 1,
        clabel[firsts],
    )
    for field in fields:
        field.flags.writeable = False
    return SymbolGroups(*fields)


@dataclass(frozen=True, eq=False)
class WalkPlan:
    """One direction's walk as index arrays.

    A forward walk starts at the source and a backward one at the sink,
    and visits the vertices layer by layer away from it; a vertex's
    local edges are its in-edges going forward and its out-edges going
    backward.  ``layers[0]`` is the start vertex alone; ``layers[k]``
    (k >= 1) is the k-th layer of the walk, and its local edges are
    entries ``bounds[k-1]:bounds[k]`` of the per-edge arrays, grouped by
    owning vertex in layer order.  Per edge: ``edges`` is its position in
    ``Trellis.edges``, ``owners`` the owning vertex's row in its layer and
    ``rows`` the neighbour's row in the layer before.  ``firsts[k]`` holds
    the offset of each vertex's first local edge within its layer's
    edges, and ``where`` maps every vertex to its ``(layer, row)``, in
    walk order.  ``topology`` is the :class:`EdgeArrays` walked.
    ``merges[k]`` is whether paths merge in layer k: the one chain-layer flag.
    """

    layers: tuple[tuple[int, ...], ...]
    edges: np.ndarray
    owners: np.ndarray
    rows: np.ndarray
    bounds: tuple[int, ...]
    firsts: tuple[np.ndarray, ...]
    where: dict[int, tuple[int, int]]
    topology: EdgeArrays
    merges: tuple[bool, ...]

    def layer_edges(self) -> Iterator[tuple[int, slice]]:
        """Each layer after the start, with the slice of its local edges."""
        for k in range(1, len(self.layers)):
            yield k, slice(self.bounds[k - 1], self.bounds[k])

    def lam(self, trellis: Trellis, nonnegative_for: str | None = None) -> np.ndarray:
        """Lambda of every local edge of ``trellis``, in walk order.

        With ``nonnegative_for`` set, a negative label raises
        SemiringError naming the first such edge of ``trellis.edges``.
        """
        lam = trellis._lam
        if nonnegative_for is not None and (lam < 0).any():
            i = int(np.argmax(lam < 0))
            raise SemiringError(
                f"{nonnegative_for} needs nonnegative labels; edge "
                f"{int(trellis.edge_arrays.ids[i])} has {float(lam[i])}"
            )
        return lam[self.edges]


def _walk_plan(trellis: Trellis, direction: str) -> WalkPlan:
    # In a valid trellis every edge joins consecutive depths, so a stable
    # sort of the edges by the walk layer and row of the vertex that owns
    # them lists each vertex's local edges in edge order, vertex by vertex
    # in walk order, each in the order of in_edges or out_edges.
    a = trellis.edge_arrays
    if direction == "forward":
        start, layers = trellis.source, trellis.layers[1:]
        step, owners, rows = a.section + 1, a.fin_row, a.init_row
    else:
        start, layers = trellis.sink, trellis.layers[-2::-1]
        step, owners, rows = trellis.rank - a.section, a.init_row, a.fin_row
    edges = np.lexsort((owners, step))
    owners, rows = owners[edges], rows[edges]
    bounds = (0, *np.cumsum(np.bincount(step, minlength=trellis.rank + 1)[1:]).tolist())
    where = {start: (0, 0)}
    firsts, merges = [np.zeros(0, dtype=np.intp)], [False]
    for k, layer in enumerate(layers, start=1):
        for i, v in enumerate(layer):
            where[v] = (k, i)
        local = owners[bounds[k - 1] : bounds[k]]
        firsts.append(np.searchsorted(local, np.arange(len(layer))))
        merges.append(len(local) > len(layer))
    plan = ((start,), *layers), edges, owners, rows, bounds, tuple(firsts), where, a
    return WalkPlan(*plan, tuple(merges))


# -- validation --------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


def validate(trellis: Trellis) -> list[Violation]:
    """Report every structural invariant violation; empty list == valid.

    Checked invariants: unique source at depth 0 and sink at the final
    depth, no empty layer, every edge joins consecutive depths, and every
    vertex lies on at least one source-to-sink path.
    """
    report: list[Violation] = []

    for depth, name in ((0, "source"), (trellis.rank, "sink")):
        layer = trellis.layers[depth]
        if len(layer) == 0:
            report.append(
                Violation(f"missing-{name}", f"no vertex at depth {depth}")
            )
        elif len(layer) > 1:
            report.append(
                Violation(
                    f"multiple-{name}s",
                    f"vertices {list(layer)} all at depth {depth}",
                )
            )

    for depth in range(1, trellis.rank):
        if not trellis.layers[depth]:
            report.append(
                Violation("empty-layer", f"no vertex at depth {depth}")
            )

    a = trellis.edge_arrays
    skips = np.flatnonzero(a.fin_depth != a.section + 1)
    for edge_id, di, df in zip(
        a.ids[skips].tolist(), a.section[skips].tolist(), a.fin_depth[skips].tolist()
    ):
        report.append(
            Violation("depth-skip", f"edge {edge_id} joins depth {di} to depth {df}")
        )

    # Reachability from the depth-0 layer and co-reachability from the
    # final layer along edges between consecutive depths: one pass over
    # these edges in section order in each direction, since such an edge
    # only reaches the next layer.  Vertices are numbered layer by layer.
    sizes = [len(layer) for layer in trellis.layers]
    first = np.cumsum(sizes) - sizes
    steps = np.flatnonzero(a.fin_depth == a.section + 1)
    steps = steps[np.argsort(a.section[steps], kind="stable")]
    tails = (first[a.section[steps]] + a.init_row[steps]).tolist()
    heads = (first[a.fin_depth[steps]] + a.fin_row[steps]).tolist()
    n = sum(sizes)
    fwd = [True] * sizes[0] + [False] * (n - sizes[0])
    for tail, head in zip(tails, heads):
        if fwd[tail]:
            fwd[head] = True
    bwd = [False] * (n - sizes[-1]) + [True] * sizes[-1]
    for tail, head in zip(reversed(tails), reversed(heads)):
        if bwd[head]:
            bwd[tail] = True
    reach = dict(zip(chain.from_iterable(trellis.layers), zip(fwd, bwd)))
    for v in trellis.vertices:
        ahead, behind = reach[v]
        if not ahead:
            report.append(
                Violation("unreachable-vertex", f"no path from source to vertex {v}")
            )
        if not behind:
            report.append(
                Violation("dead-end-vertex", f"no path from vertex {v} to sink")
            )
    return report


def require_valid(trellis: Trellis) -> None:
    """Raise TrellisStructureError when validate() reports anything.

    Validity depends on the structure only, so the report is computed on
    the first call for a topology and kept, for later calls and for every
    ``relabeled`` copy, made before or after.
    """
    report = trellis._plans.get("report")
    if report is None:
        report = trellis._plans["report"] = tuple(validate(trellis))
    if report:
        lines = "; ".join(f"{v.code}: {v.message}" for v in report[:8])
        more = "" if len(report) <= 8 else f" (+{len(report) - 8} more)"
        raise TrellisStructureError(f"invalid trellis: {lines}{more}")


def degrees(trellis: Trellis, v: int) -> tuple[int, int]:
    """(in-degree, out-degree) of vertex ``v``."""
    return len(trellis.in_edges(v)), len(trellis.out_edges(v))


# -- path enumeration ---------------------------------------------------------


def enumerate_paths(
    trellis: Trellis,
    u: int | None = None,
    v: int | None = None,
    cap: int = DEFAULT_PATH_CAP,
) -> Iterator[tuple[Edge, ...]]:
    """Yield every path from ``u`` to ``v`` exactly once.

    Defaults to source -> sink.  A path from a vertex to itself is the
    single empty path.  Intended for small instances; enumeration aborts
    with PathCountError beyond ``cap`` yielded paths.
    """
    u = trellis.source if u is None else u
    v = trellis.sink if v is None else v
    du, dv = trellis.depth_of(u), trellis.depth_of(v)
    if du > dv:
        raise TrellisStructureError(
            f"start vertex depth {du} exceeds end vertex depth {dv}"
        )
    count = 0
    stack: list[Edge] = []

    def walk(w: int) -> Iterator[tuple[Edge, ...]]:
        nonlocal count
        if w == v and trellis.depth_of(w) == dv:
            count += 1
            if count > cap:
                raise PathCountError(
                    f"more than {cap} paths from {u} to {v}; raise the cap "
                    "to enumerate anyway"
                )
            yield tuple(stack)
            return
        if trellis.depth_of(w) >= dv:
            return
        for e in trellis.out_edges(w):
            stack.append(e)
            yield from walk(e.fin)
            stack.pop()

    return walk(u)


def path_label(path: Sequence[Edge]) -> float:
    """Product of the edges' lambda-labels; 1.0 for the empty path."""
    out = 1.0
    for e in path:
        out *= e.lam
    return out


# -- separable path functions --------------------------------------------------


class DepthFunctionTable:
    """Materialized per-edge additive contributions g_i(e).

    A separable path function is the sum of one table entry per traversed
    edge; the table is precomputed so that recursion cost accounting never
    includes the cost of evaluating g itself.  The values are one
    read-only array over edge ids.  A table made for a trellis
    (``from_values``, ``from_clabels``, ``from_edges``, ``constant``)
    shares that topology's id array, so ``values_for`` hands its array
    out as it is, for the trellis and every ``relabeled`` copy.
    """

    def __init__(self, values: Mapping[int, float]):
        self._set(
            np.fromiter(map(int, values.keys()), np.intp, len(values)),
            np.fromiter(map(float, values.values()), float, len(values)),
        )

    def _set(self, ids: np.ndarray, values: np.ndarray) -> None:
        bad = ~np.isfinite(values)
        if bad.any():
            i = int(np.argmax(bad))
            raise GTableError(
                f"edge {int(ids[i])} has a non-finite g value {float(values[i])!r}"
            )
        values.flags.writeable = False
        self._ids = ids
        self._values = values
        # id -> value, built for the first per-edge read.
        self._by_id: dict[int, float] | None = None

    @classmethod
    def from_values(cls, trellis: Trellis, values: np.ndarray) -> "DepthFunctionTable":
        """g given as an array in ``trellis.edges`` order."""
        values = np.asarray(values, dtype=float)
        if values.shape != trellis._lam.shape:
            raise GTableError(
                f"expected {len(trellis._lam)} g values, got shape {values.shape}"
            )
        if values.flags.writeable:
            values = values.copy()
        table = object.__new__(cls)
        table._set(trellis.edge_arrays.ids, values)
        return table

    @classmethod
    def from_clabels(cls, trellis: Trellis) -> "DepthFunctionTable":
        """g equals the edge's own c-label."""
        return cls.from_values(trellis, trellis.edge_arrays.clabel)

    @classmethod
    def from_edges(
        cls, trellis: Trellis, func: Callable[[int, Edge], float]
    ) -> "DepthFunctionTable":
        """Evaluate ``func(section_depth, edge)`` once per edge."""
        sections = trellis.edge_arrays.section.tolist()
        values = [float(func(s + 1, e)) for s, e in zip(sections, trellis.edges)]
        return cls.from_values(trellis, np.array(values, dtype=float))

    @classmethod
    def constant(cls, trellis: Trellis, value: float) -> "DepthFunctionTable":
        return cls.from_values(trellis, np.full(len(trellis._lam), float(value)))

    def values_for(self, trellis: Trellis) -> np.ndarray:
        """The g value of every edge of ``trellis``, in ``trellis.edges``
        order; GTableError names the first edge without one."""
        a = trellis.edge_arrays
        if a.ids is self._ids:
            return self._values
        by_id = np.argsort(self._ids)
        at, found = _find(self._ids[by_id], a.ids)
        if not found.all():
            i = int(np.argmax(~found))
            raise GTableError(
                f"no g value for edge {int(a.ids[i])} ({int(a.init[i])}->{int(a.fin[i])})"
            )
        return self._values[by_id[at]]

    def _lookup(self) -> dict[int, float]:
        if self._by_id is None:
            self._by_id = dict(zip(self._ids.tolist(), self._values.tolist()))
        return self._by_id

    def value(self, edge: Edge) -> float:
        try:
            return self._lookup()[edge.id]
        except KeyError:
            raise GTableError(
                f"no g value for edge {edge.id} ({edge.init}->{edge.fin})"
            ) from None

    def path_value(self, path: Sequence[Edge]) -> float:
        return sum(self.value(e) for e in path)

    def items(self):
        return self._lookup().items()

    def __len__(self) -> int:
        return len(self._ids)


# -- edge splitting -------------------------------------------------------------


def split_multi_symbol_edges(
    trellis: Trellis,
    symbols_per_edge: int,
    symbol_table: Mapping[int, Sequence[float]],
) -> Trellis:
    """Replace each edge by a chain of ``symbols_per_edge`` edges.

    Each original edge must come with exactly ``symbols_per_edge`` symbols
    in ``symbol_table``; the chain's first edge inherits the original
    lambda-label, the rest get 1.0 (the multiplicative identity), and
    each chain edge carries one symbol as its c-label.  The result has
    rank ``symbols_per_edge * rank`` and dense integer ids.
    """
    c = int(symbols_per_edge)
    if c < 1:
        raise TrellisStructureError(f"symbols_per_edge must be >= 1, got {c}")
    a = trellis.edge_arrays
    ids = a.ids.tolist()
    for edge_id in ids:
        if edge_id not in symbol_table:
            raise TrellisStructureError(f"no symbols for edge {edge_id}")
        if len(symbol_table[edge_id]) != c:
            raise TrellisStructureError(
                f"edge {edge_id} carries {len(symbol_table[edge_id])} symbols, "
                f"expected {c}"
            )
    symbols = np.array([symbol_table[i] for i in ids], dtype=float).reshape(-1, c)
    # The original vertices, renumbered layer by layer, and the edges of
    # every section, section by section in edge order.
    sizes = np.array([len(layer) for layer in trellis.layers])
    first = np.cumsum(sizes) - sizes
    inside = np.flatnonzero(a.section < trellis.rank)
    e = inside[np.argsort(a.section[inside], kind="stable")]
    init, fin = first[a.section[e]] + a.init_row[e], first[a.fin_depth[e]] + a.fin_row[e]
    return _chained(trellis.rank, sizes, init, fin, a.section[e], trellis._lam[e], symbols[e])


def _chained(rank, sizes, init, fin, section, lam, symbols) -> Trellis:
    """The trellis of rank c*``rank`` made of ``sizes[d]`` vertices at each
    depth c*d, numbered layer by layer, and a chain of c =
    ``symbols.shape[1]`` edges for each edge p from vertex ``init[p]`` in
    section ``section[p]`` to ``fin[p]``: ids p*c..p*c+c-1, c-labels
    ``symbols[p]``, lambda ``lam[p]`` on the first edge and 1.0 on the
    rest.  The chains' inner vertices follow the layers, edge by edge."""
    n, c = symbols.shape
    inner = sizes.sum() + np.arange(n * (c - 1)).reshape(n, c - 1)
    inner_depths = c * section[:, None] + np.arange(1, c)
    depths = np.concatenate((c * np.repeat(np.arange(len(sizes)), sizes), inner_depths.ravel()))
    lams = np.column_stack((lam, np.ones((n, c - 1))))
    tails, heads = np.column_stack((init, inner)), np.column_stack((inner, fin))
    return Trellis._from_arrays(
        c * rank, np.arange(len(depths)), depths, np.arange(n * c),
        tails.ravel(), heads.ravel(), lams.ravel(), symbols.ravel(),
    )


# -- text format -----------------------------------------------------------------


def dumps_trellis(trellis: Trellis) -> str:
    """Serialize to the line-oriented text format (bit-exact floats)."""
    lines = [f"trellis rank={trellis.rank}"]
    for depth in range(trellis.rank + 1):
        for v in trellis.layers[depth]:
            lines.append(f"v {v} depth={depth}")
    a = trellis.edge_arrays
    fields = (a.ids, a.init, a.fin, trellis._lam, a.clabel)
    for i, u, w, lam, clabel in zip(*(f.tolist() for f in fields)):
        lines.append(f"e {i} {u} {w} lambda={lam!r} clabel={clabel!r}")
    return "\n".join(lines) + "\n"


def loads_trellis(text: str) -> Trellis:
    """Parse the line-oriented text format produced by dumps_trellis."""
    rank = None
    vertex_depths: dict[int, int] = {}
    ends: list[int] = []  # id, init and fin of every edge
    labels: list[float] = []  # lambda and c-label of every edge
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            if fields[0] == "trellis":
                rank = int(_keyed(fields[1], "rank"))
            elif fields[0] == "v":
                vid = int(fields[1])
                if vid in vertex_depths:
                    raise ValueError(f"duplicate vertex id {vid}")
                vertex_depths[vid] = int(_keyed(fields[2], "depth"))
            elif fields[0] == "e":
                ends += (int(fields[1]), int(fields[2]), int(fields[3]))
                labels += (float(_keyed(fields[4], "lambda")), float(_keyed(fields[5], "clabel")))
            else:
                raise ValueError(f"unknown record type {fields[0]!r}")
        except (IndexError, ValueError) as exc:
            raise TrellisFormatError(f"line {lineno}: {exc}") from None
    if rank is None:
        raise TrellisFormatError("missing 'trellis rank=<n>' header")
    vertices = np.array(list(vertex_depths.items()), dtype=np.intp).reshape(-1, 2).T
    ends = np.array(ends, dtype=np.intp).reshape(-1, 3).T
    labels = np.array(labels, dtype=float).reshape(-1, 2).T
    try:
        return Trellis._from_arrays(rank, *vertices, *ends, *labels)
    except TrellisStructureError as exc:
        raise TrellisFormatError(str(exc)) from None


def _keyed(field: str, key: str) -> str:
    prefix = key + "="
    if not field.startswith(prefix):
        raise ValueError(f"expected {prefix}<value>, got {field!r}")
    return field[len(prefix):]


def read_trellis(path) -> Trellis:
    with open(path, "r", encoding="ascii") as fh:
        return loads_trellis(fh.read())


def write_trellis(path, trellis: Trellis) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_trellis(trellis))


def read_g_table(path, trellis: Trellis) -> DepthFunctionTable:
    """Parse per-edge g values: lines of the form ``g <edge-id> <value>``."""
    values: dict[int, float] = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 3 or fields[0] != "g":
                raise TrellisFormatError(
                    f"line {lineno}: expected 'g <edge-id> <value>'"
                )
            try:
                edge_id, value = int(fields[1]), float(fields[2])
            except ValueError as exc:
                raise TrellisFormatError(f"line {lineno}: {exc}") from None
            if not math.isfinite(value):
                raise TrellisFormatError(f"line {lineno}: non-finite g value {value!r}")
            if edge_id in values:
                raise TrellisFormatError(
                    f"line {lineno}: duplicate g value for edge {edge_id}"
                )
            values[edge_id] = value
    for edge_id in trellis.edge_arrays.ids.tolist():
        if edge_id not in values:
            raise GTableError(f"g table is missing edge {edge_id}")
    return DepthFunctionTable(values)


def write_g_table(path, table: DepthFunctionTable) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for edge_id, value in sorted(table.items()):
            fh.write(f"g {edge_id} {value!r}\n")


def read_received(path) -> list[float]:
    """Parse a received word: one real per line."""
    values: list[float] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                values.append(float(line))
            except ValueError as exc:
                raise TrellisFormatError(f"line {lineno}: {exc}") from None
    return values


def write_received(path, values: Sequence[float]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for value in values:
            fh.write(f"{float(value)!r}\n")


def is_bipolar(x: float) -> bool:
    return x == 1.0 or x == -1.0
