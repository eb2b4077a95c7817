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

The module also provides the line-oriented text format used by the CLI,
exhaustive path enumeration (the substrate for all brute-force oracles)
and the edge-splitting transform that turns a multi-symbol-per-edge
trellis into an equivalent one-symbol-per-edge trellis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

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


class Trellis:
    """Immutable depth-layered graph; safe to share between readers.

    Construction accepts structurally questionable graphs (isolated
    vertices, depth-skipping edges, several vertices at depth 0) so that
    :func:`validate` can report every violation; only graphs that cannot
    be represented at all (unknown endpoints, duplicate ids, depths
    outside 0..rank) are rejected outright.
    """

    def __init__(
        self,
        rank: int,
        vertex_depths: Mapping[int, int] | Iterable[tuple[int, int]],
        edges: Iterable[Edge],
    ):
        if rank < 1:
            raise TrellisStructureError(f"rank must be >= 1, got {rank}")
        if isinstance(vertex_depths, Mapping):
            vertex_depths = vertex_depths.items()
        depths: dict[int, int] = {}
        by_depth: list[list[int]] = [[] for _ in range(rank + 1)]
        for vid, depth in vertex_depths:
            vid = int(vid)
            if vid in depths:
                raise TrellisStructureError(f"duplicate vertex id {vid}")
            if not 0 <= depth <= rank:
                raise TrellisStructureError(
                    f"vertex {vid} depth {depth} outside 0..{rank}"
                )
            depths[vid] = int(depth)
            by_depth[int(depth)].append(vid)
        layers = tuple(tuple(sorted(layer)) for layer in by_depth)
        self._index(rank, depths, layers, tuple(edges), None, {})

    def _index(
        self,
        rank: int,
        depth: dict[int, int],
        layers: tuple[tuple[int, ...], ...],
        edges: tuple[Edge, ...],
        report: tuple[Violation, ...] | None,
        plans: dict[str, Any],
    ) -> None:
        """Set every attribute: the structure, the edges, their labels
        and indexes, the validation report and the walk plans.  The
        constructor and ``relabeled`` both end here."""
        self.rank = rank
        self._depth = depth
        self.layers = layers
        # One pass indexes every edge: by id, per vertex, and per section
        # (bucketed by the depth of ``init``, the rule of edges_at).
        self.edges = edges
        into: dict[int, list[Edge]] = {v: [] for v in depth}
        out: dict[int, list[Edge]] = {v: [] for v in depth}
        sections: list[list[Edge]] = [[] for _ in range(rank + 1)]
        self._edge_by_id: dict[int, Edge] = {}
        for e in edges:
            if e.id in self._edge_by_id:
                raise TrellisStructureError(f"duplicate edge id {e.id}")
            self._edge_by_id[e.id] = e
            if e.init not in depth:
                raise TrellisStructureError(f"edge {e.id} init vertex {e.init} unknown")
            if e.fin not in depth:
                raise TrellisStructureError(f"edge {e.id} fin vertex {e.fin} unknown")
            if not (math.isfinite(e.lam) and math.isfinite(e.clabel)):
                raise TrellisStructureError(
                    f"edge {e.id} has a non-finite label "
                    f"(lambda={e.lam!r}, clabel={e.clabel!r})"
                )
            out[e.init].append(e)
            into[e.fin].append(e)
            sections[depth[e.init]].append(e)
        # Every edge's lambda in edge order, for the array sweeps.
        self._lam = np.array([e.lam for e in edges], dtype=float)
        self._lam.flags.writeable = False
        self._in = {v: tuple(es) for v, es in into.items()}
        self._out = {v: tuple(es) for v, es in out.items()}
        # Edges leaving the final layer belong to no section.
        self._sections = tuple(tuple(es) for es in sections[:rank])
        # validate() report, computed by the first require_valid().
        self._report = report
        # Walk plans by direction and the symbol groups, built on first
        # use.  relabeled() copies share this dict with their parent, so a
        # topology builds each once.
        self._plans = plans

    # -- structural queries -------------------------------------------------

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
            return self._in[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v}") from None

    def out_edges(self, v: int) -> tuple[Edge, ...]:
        try:
            return self._out[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v}") from None

    def edge(self, edge_id: int) -> Edge:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise TrellisStructureError(f"unknown edge {edge_id}") from None

    def edges_at(self, depth: int) -> tuple[Edge, ...]:
        """Edges of the section entering layer ``depth`` (1-based)."""
        if not 1 <= depth <= self.rank:
            raise TrellisStructureError(
                f"section depth {depth} outside 1..{self.rank}"
            )
        return self._sections[depth - 1]

    def walk(
        self, direction: str
    ) -> tuple[
        int,
        Iterator[tuple[tuple[int, tuple[Edge, ...]], ...]],
        Callable[[Edge], int],
    ]:
        """The order in which a sweep in ``direction`` visits the vertices.

        Returns ``(start, steps, neighbor)``.  A forward sweep starts at the
        source and a backward one at the sink; ``steps`` yields one group
        per layer, layer by layer away from ``start``, holding every vertex
        of that layer with its local edges (in-edges going forward,
        out-edges going backward); ``neighbor(e)`` is the end of a local
        edge that the sweep has already visited, which lies in the group
        before.
        """
        if direction == "forward":
            start, layers, local = self.source, self.layers[1:], self._in
            neighbor = attrgetter("init")
        elif direction == "backward":
            start, layers, local = self.sink, self.layers[-2::-1], self._out
            neighbor = attrgetter("fin")
        else:
            raise SemiringError(f"unknown direction {direction!r}")
        steps = (tuple((v, local[v]) for v in layer) for layer in layers)
        return start, steps, neighbor

    def plan(self, direction: str) -> "WalkPlan":
        """The walk in ``direction`` as index arrays (see :class:`WalkPlan`).

        Needs a valid trellis; built on first use and shared with every
        ``relabeled`` copy.
        """
        plan = self._plans.get(direction)
        if plan is None:
            require_valid(self)
            plan = self._plans[direction] = _walk_plan(self, direction)
        return plan

    def symbol_groups(self) -> dict[tuple[int, float], tuple]:
        """Each section's edges grouped by c-label, keyed by ``(depth,
        clabel)``: their positions in ``edges_at(depth)`` (a tuple) and in
        ``edges``, and the rows of their init and fin vertices in their
        layers, as in either walk plan.  Needs a valid trellis; built
        once and shared with every ``relabeled`` copy."""
        groups = self._plans.get("symbols")
        if groups is None:
            require_valid(self)
            row = {v: i for layer in self.layers for i, v in enumerate(layer)}
            position = {e.id: i for i, e in enumerate(self.edges)}
            members: dict[tuple[int, float], list] = {}
            for depth, section in enumerate(self._sections, start=1):
                for i, e in enumerate(section):
                    entry = (i, position[e.id], row[e.init], row[e.fin])
                    members.setdefault((depth, e.clabel), []).append(entry)
            groups = self._plans["symbols"] = {}
            for key, entries in members.items():
                local, *arrays = zip(*entries)
                groups[key] = (local, *(np.array(c, dtype=np.intp) for c in arrays))
        return groups

    def relabeled(self, lam_of: Callable[[Edge], float]) -> "Trellis":
        """Copy with each edge's lambda-label replaced by ``lam_of(e)``.

        The structure is unchanged, so the copy keeps this trellis's
        depths, layers, validation report, walk plans and symbol groups,
        and only the new edges, their label array and their per-vertex and
        per-section tuples are built.
        """
        edges = tuple(
            Edge(e.id, e.init, e.fin, float(lam_of(e)), e.clabel) for e in self.edges
        )
        copy = object.__new__(Trellis)
        copy._index(self.rank, self._depth, self.layers, edges, self._report, self._plans)
        return copy

    def __repr__(self) -> str:
        return (
            f"Trellis(rank={self.rank}, vertices={len(self._depth)}, "
            f"edges={len(self.edges)})"
        )


@dataclass(frozen=True, eq=False)
class WalkPlan:
    """One direction's walk (``Trellis.walk``) as index arrays.

    ``layers[0]`` is the start vertex alone; ``layers[k]`` (k >= 1) is
    the k-th group of the walk, and its local edges are entries
    ``bounds[k-1]:bounds[k]`` of the per-edge arrays, grouped by owning
    vertex in layer order.  Per edge: ``edges`` is its position in
    ``Trellis.edges``, ``owners`` the owning vertex's row in its layer and
    ``rows`` the neighbour's row in the layer before.  ``firsts[k]`` holds
    the offset of each vertex's first local edge within its layer's
    edges, and ``where`` maps every vertex to its ``(layer, row)``, in
    walk order.
    """

    layers: tuple[tuple[int, ...], ...]
    edges: np.ndarray
    owners: np.ndarray
    rows: np.ndarray
    bounds: tuple[int, ...]
    firsts: tuple[np.ndarray, ...]
    where: dict[int, tuple[int, int]]

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
            e = trellis.edges[int(np.argmax(lam < 0))]
            raise SemiringError(
                f"{nonnegative_for} needs nonnegative labels; edge {e.id} has {e.lam}"
            )
        return lam[self.edges]


def _walk_plan(trellis: Trellis, direction: str) -> WalkPlan:
    start, steps, neighbor = trellis.walk(direction)
    position = {e.id: i for i, e in enumerate(trellis.edges)}
    layers: list[tuple[int, ...]] = [(start,)]
    where = {start: (0, 0)}
    edges: list[int] = []
    owners: list[int] = []
    rows: list[int] = []
    bounds = [0]
    firsts = [np.zeros(0, dtype=np.intp)]
    for k, group in enumerate(steps, start=1):
        first = []
        for i, (v, local) in enumerate(group):
            where[v] = (k, i)
            first.append(len(edges) - bounds[-1])
            for e in local:
                edges.append(position[e.id])
                owners.append(i)
                rows.append(where[neighbor(e)][1])
        layers.append(tuple(v for v, _ in group))
        bounds.append(len(edges))
        firsts.append(np.array(first, dtype=np.intp))
    return WalkPlan(
        tuple(layers),
        np.array(edges, dtype=np.intp),
        np.array(owners, dtype=np.intp),
        np.array(rows, dtype=np.intp),
        tuple(bounds),
        tuple(firsts),
        where,
    )


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

    depth = trellis._depth
    for e in trellis.edges:
        di, df = depth[e.init], depth[e.fin]
        if df != di + 1:
            report.append(
                Violation(
                    "depth-skip",
                    f"edge {e.id} joins depth {di} to depth {df}",
                )
            )

    # Reachability from the depth-0 layer and co-reachability from the
    # final layer along edges between consecutive depths: one pass over
    # the sections in each direction, since such an edge only reaches
    # the next layer.
    fwd = set(trellis.layers[0])
    for d in range(1, trellis.rank + 1):
        for e in trellis.edges_at(d):
            if e.init in fwd and depth[e.fin] == d:
                fwd.add(e.fin)
    bwd = set(trellis.layers[-1])
    for d in range(trellis.rank, 0, -1):
        for e in trellis.edges_at(d):
            if e.fin in bwd and depth[e.fin] == d:
                bwd.add(e.init)
    for v in trellis.vertices:
        if v not in fwd:
            report.append(
                Violation("unreachable-vertex", f"no path from source to vertex {v}")
            )
        if v not in bwd:
            report.append(
                Violation("dead-end-vertex", f"no path from vertex {v} to sink")
            )
    return report


def require_valid(trellis: Trellis) -> None:
    """Raise TrellisStructureError when validate() reports anything.

    The trellis is immutable, so its report is computed on the first
    call and kept for every later one.
    """
    if trellis._report is None:
        trellis._report = tuple(validate(trellis))
    report = trellis._report
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
    includes the cost of evaluating g itself.
    """

    def __init__(self, values: Mapping[int, float]):
        self._values = {int(k): float(v) for k, v in values.items()}
        for edge_id, value in self._values.items():
            if not math.isfinite(value):
                raise GTableError(f"edge {edge_id} has a non-finite g value {value!r}")

    @classmethod
    def from_clabels(cls, trellis: Trellis) -> "DepthFunctionTable":
        """g equals the edge's own c-label."""
        return cls({e.id: e.clabel for e in trellis.edges})

    @classmethod
    def from_edges(
        cls, trellis: Trellis, func: Callable[[int, Edge], float]
    ) -> "DepthFunctionTable":
        """Evaluate ``func(section_depth, edge)`` once per edge."""
        return cls(
            {
                e.id: func(trellis.depth_of(e.init) + 1, e)
                for e in trellis.edges
            }
        )

    @classmethod
    def constant(cls, trellis: Trellis, value: float) -> "DepthFunctionTable":
        return cls({e.id: value for e in trellis.edges})

    def value(self, edge: Edge) -> float:
        try:
            return self._values[edge.id]
        except KeyError:
            raise GTableError(
                f"no g value for edge {edge.id} ({edge.init}->{edge.fin})"
            ) from None

    def values_of(self, edges: Sequence[Edge]) -> np.ndarray:
        """The g value of every edge in ``edges``, in that order."""
        try:
            return np.array([self._values[e.id] for e in edges], dtype=float)
        except KeyError:
            for e in edges:
                self.value(e)  # raises GTableError for the first one missing
            raise

    def path_value(self, path: Sequence[Edge]) -> float:
        return sum(self.value(e) for e in path)

    def items(self):
        return self._values.items()

    def __len__(self) -> int:
        return len(self._values)


# -- edge splitting -------------------------------------------------------------


def split_multi_symbol_edges(
    trellis: Trellis,
    symbols_per_edge: int,
    symbol_table: Mapping[int, Sequence[float]],
    unit_label: float = 1.0,
) -> Trellis:
    """Replace each edge by a chain of ``symbols_per_edge`` edges.

    Each original edge must come with exactly ``symbols_per_edge`` symbols
    in ``symbol_table``; the chain's first edge inherits the original
    lambda-label, the rest get ``unit_label`` (the multiplicative
    identity), and each chain edge carries one symbol as its c-label.  The
    result has rank ``symbols_per_edge * rank`` and dense integer ids.
    """
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

    vmap: dict[int, int] = {}
    depths: dict[int, int] = {}
    next_vid = 0
    for depth in range(trellis.rank + 1):
        for v in trellis.layers[depth]:
            vmap[v] = next_vid
            depths[next_vid] = c * depth
            next_vid += 1

    edges: list[Edge] = []
    next_eid = 0
    for depth in range(1, trellis.rank + 1):
        for e in trellis.edges_at(depth):
            symbols = symbol_table[e.id]
            prev = vmap[e.init]
            for k in range(c):
                last = k == c - 1
                if last:
                    nxt = vmap[e.fin]
                else:
                    nxt = next_vid
                    depths[next_vid] = c * (depth - 1) + k + 1
                    next_vid += 1
                edges.append(
                    Edge(
                        next_eid,
                        prev,
                        nxt,
                        e.lam if k == 0 else unit_label,
                        float(symbols[k]),
                    )
                )
                next_eid += 1
                prev = nxt

    return Trellis(c * trellis.rank, depths, edges)


# -- text format -----------------------------------------------------------------


def dumps_trellis(trellis: Trellis) -> str:
    """Serialize to the line-oriented text format (bit-exact floats)."""
    lines = [f"trellis rank={trellis.rank}"]
    for depth in range(trellis.rank + 1):
        for v in trellis.layers[depth]:
            lines.append(f"v {v} depth={depth}")
    for e in trellis.edges:
        lines.append(
            f"e {e.id} {e.init} {e.fin} lambda={e.lam!r} clabel={e.clabel!r}"
        )
    return "\n".join(lines) + "\n"


def loads_trellis(text: str) -> Trellis:
    """Parse the line-oriented text format produced by dumps_trellis."""
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
                rank = int(_keyed(fields[1], "rank"))
            elif fields[0] == "v":
                vertex_depths[int(fields[1])] = int(_keyed(fields[2], "depth"))
            elif fields[0] == "e":
                edges.append(
                    Edge(
                        int(fields[1]),
                        int(fields[2]),
                        int(fields[3]),
                        float(_keyed(fields[4], "lambda")),
                        float(_keyed(fields[5], "clabel")),
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
            values[edge_id] = value
    for e in trellis.edges:
        if e.id not in values:
            raise GTableError(f"g table is missing edge {e.id}")
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
