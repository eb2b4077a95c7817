"""The indexed trellis core against full-scan references.

``reference_validate`` is the fixed-point validation the linear
``validate`` replaced: it repeats a pass over all edges until
reachability stops changing.  The structural indexes (``layers``,
``edges_at``, ``in_edges``/``out_edges``) are compared with plain scans
of the vertex and edge lists, on random trellises and on copies damaged
in the ways ``validate`` must report.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trelliskit import (
    Bsc,
    Edge,
    Trellis,
    TrellisStructureError,
    backward_distributions,
    backward_numerators,
    build_conv_trellis,
    channel_lambda_labels,
    correlation_g_table,
    dumps_trellis,
    forward_distributions,
    forward_numerators,
    loads_trellis,
    make_received,
    normalized_states,
    require_valid,
    symbol_distribution,
    symbol_moments,
    validate,
)
from trelliskit import distributions, trellis as trellis_module
from trelliskit.oracles import random_trellis
from trelliskit.trellis import Violation

PROPERTY_SETTINGS = settings(
    max_examples=300, deadline=None, derandomize=True, database=None
)


def reference_validate(trellis: Trellis) -> list[Violation]:
    """Fixed-point validation: O(rank * |E|), kept as the reference."""
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

    for e in trellis.edges:
        di, df = trellis.depth_of(e.init), trellis.depth_of(e.fin)
        if df != di + 1:
            report.append(
                Violation(
                    "depth-skip",
                    f"edge {e.id} joins depth {di} to depth {df}",
                )
            )

    ok_edges = [
        e
        for e in trellis.edges
        if trellis.depth_of(e.fin) == trellis.depth_of(e.init) + 1
    ]
    fwd = set(trellis.layers[0])
    changed = True
    while changed:
        changed = False
        for e in ok_edges:
            if e.init in fwd and e.fin not in fwd:
                fwd.add(e.fin)
                changed = True
    bwd = set(trellis.layers[-1])
    changed = True
    while changed:
        changed = False
        for e in ok_edges:
            if e.fin in bwd and e.init not in bwd:
                bwd.add(e.init)
                changed = True
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


def scanned_structure(trellis: Trellis) -> dict:
    """layers, sections and per-vertex edges, each by a full scan."""
    depth = {v: trellis.depth_of(v) for v in trellis.vertices}
    return {
        "layers": tuple(
            tuple(sorted(v for v in depth if depth[v] == d))
            for d in range(trellis.rank + 1)
        ),
        "sections": tuple(
            tuple(e for e in trellis.edges if depth[e.init] == d - 1)
            for d in range(1, trellis.rank + 1)
        ),
        "in": {v: tuple(e for e in trellis.edges if e.fin == v) for v in depth},
        "out": {v: tuple(e for e in trellis.edges if e.init == v) for v in depth},
    }


def indexed_structure(trellis: Trellis) -> dict:
    return {
        "layers": trellis.layers,
        "sections": tuple(
            trellis.edges_at(d) for d in range(1, trellis.rank + 1)
        ),
        "in": {v: trellis.in_edges(v) for v in trellis.vertices},
        "out": {v: trellis.out_edges(v) for v in trellis.vertices},
    }


# -- damage ------------------------------------------------------------------------
# Each takes (rank, vertex depths, edges, rng) and edits depths and edges
# in place.


def _new_edge(edges, u, w, clabel):
    edges.append(Edge(max((e.id for e in edges), default=0) + 1, u, w, 0.5, clabel))


def _new_vertex(depths, depth):
    vid = max(depths, default=0) + 1
    depths[vid] = depth
    return vid


def _remove_edge(rank, depths, edges, rng):
    if edges:
        edges.pop(rng.randrange(len(edges)))


def _add_skip_edge(rank, depths, edges, rng):
    vertices = list(depths)
    u = rng.choice(vertices)
    targets = [w for w in vertices if depths[w] != depths[u] + 1]
    _new_edge(edges, u, rng.choice(targets), 1.0)


def _add_source(rank, depths, edges, rng):
    vid = _new_vertex(depths, 0)
    layer1 = [v for v in depths if depths[v] == 1]
    if layer1 and rng.random() < 0.5:
        _new_edge(edges, vid, rng.choice(layer1), -1.0)


def _add_isolated(rank, depths, edges, rng):
    _new_vertex(depths, rng.randrange(rank + 1))


def _empty_layer(rank, depths, edges, rng):
    d = rng.randrange(rank + 1)
    gone = {v for v in depths if depths[v] == d}
    for v in gone:
        del depths[v]
    edges[:] = [e for e in edges if e.init not in gone and e.fin not in gone]


DAMAGES = {
    "remove-edge": _remove_edge,
    "add-skip-edge": _add_skip_edge,
    "add-source": _add_source,
    "add-isolated-vertex": _add_isolated,
    "empty-layer": _empty_layer,
}


def damaged(seed: int, damages) -> Trellis:
    t = random_trellis(seed)
    depths = {v: t.depth_of(v) for v in t.vertices}
    edges = list(t.edges)
    for name, pick in damages:
        DAMAGES[name](t.rank, depths, edges, random.Random(pick))
    # Permute the vertex ids, so that they are not sorted by depth.
    ids = list(depths)
    new = dict(zip(ids, random.Random(seed).sample(ids, len(ids))))
    return Trellis(
        t.rank,
        {new[v]: d for v, d in depths.items()},
        [Edge(e.id, new[e.init], new[e.fin], e.lam, e.clabel) for e in edges],
    )


trellises = st.builds(
    damaged,
    st.integers(0, 10_000),
    st.lists(
        st.tuples(st.sampled_from(sorted(DAMAGES)), st.integers(0, 2**32)),
        max_size=3,
    ),
)


class TestAgainstFullScan:
    @PROPERTY_SETTINGS
    @given(trellises)
    def test_validate_matches_fixed_point(self, t):
        assert validate(t) == reference_validate(t)

    @PROPERTY_SETTINGS
    @given(trellises)
    def test_indexes_match_scan(self, t):
        assert indexed_structure(t) == scanned_structure(t)

    @PROPERTY_SETTINGS
    @given(trellises)
    def test_text_round_trip_keeps_structure(self, t):
        back = loads_trellis(dumps_trellis(t))
        assert indexed_structure(back) == indexed_structure(t)
        # The file lists vertices layer by layer, so the per-vertex
        # violations may come back in another order.
        assert sorted(validate(back), key=repr) == sorted(
            reference_validate(t), key=repr
        )

    @PROPERTY_SETTINGS
    @given(trellises, st.integers(0, 2**32))
    def test_relabeled_copy_equals_fresh_trellis(self, t, seed):
        rng = random.Random(seed)
        copy = t.relabeled(lambda e: rng.choice([0.0, 0.25, e.lam, 3.0]))
        fresh = Trellis(t.rank, {v: t.depth_of(v) for v in t.vertices}, copy.edges)
        assert vars(copy).keys() == vars(fresh).keys()
        assert copy.edges == fresh.edges
        assert copy.vertices == fresh.vertices
        assert indexed_structure(copy) == indexed_structure(fresh)
        assert all(copy.edge(e.id) is e for e in copy.edges)
        assert {v: copy.depth_of(v) for v in copy.vertices} == {
            v: fresh.depth_of(v) for v in fresh.vertices
        }
        assert validate(copy) == validate(fresh)
        assert repr(copy) == repr(fresh)

    def test_damage_kinds_are_reported(self):
        # Each damage kind produces the violation it stands for on some
        # seed, so the properties above do reach the malformed cases.
        expected = {
            "remove-edge": "dead-end-vertex",
            "add-skip-edge": "depth-skip",
            "add-source": "multiple-sources",
            "add-isolated-vertex": "unreachable-vertex",
            "empty-layer": "empty-layer",
        }
        for name, code in expected.items():
            seen = set()
            for seed in range(20):
                seen |= {v.code for v in validate(damaged(seed, [(name, seed)]))}
            assert code in seen, name


# -- validate once -------------------------------------------------------------------


@pytest.fixture
def calls(monkeypatch):
    """Counts of validate and lattice_step runs made through the engines."""
    counts = {"validate": 0, "lattice_step": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        trellis_module, "validate", counted("validate", trellis_module.validate)
    )
    monkeypatch.setattr(
        distributions,
        "lattice_step",
        counted("lattice_step", distributions.lattice_step),
    )
    return counts


def _conv75_word(info_len=12, seed=3):
    code = build_conv_trellis((7, 5), info_len)
    channel = Bsc(0.1)
    _, received = make_received(code, channel, seed)
    return code, channel, received


def test_engines_validate_once(calls):
    code, channel, received = _conv75_word()
    lab = channel_lambda_labels(code, channel, received)
    g = correlation_g_table(lab, received)

    fwd = forward_numerators(lab, g, 2)
    bwd = backward_numerators(lab, g, 2)
    for depth in range(1, lab.rank + 1):
        for symbol in (1.0, -1.0):
            symbol_moments(lab, g, fwd, bwd, depth, symbol)
    fd = forward_distributions(lab, g, mode="auto")
    assert fd.mode == "exact"
    assert calls["lattice_step"] == 1
    bd = backward_distributions(lab, g)
    assert calls["lattice_step"] == 2
    symbol_distribution(lab, g, fd, bd, 3, 1.0)
    assert calls == {"validate": 1, "lattice_step": 2}


def test_relabeled_copy_keeps_report(calls):
    code, channel, received = _conv75_word()
    require_valid(code)
    lab = channel_lambda_labels(code, channel, received)
    forward_numerators(lab, correlation_g_table(lab, received), 1)
    assert calls["validate"] == 1


def test_invalid_report_is_kept():
    t = Trellis(2, {0: 0, 1: 1, 2: 2, 3: 1}, [Edge(0, 0, 1), Edge(1, 1, 2)])
    for _ in range(2):
        with pytest.raises(TrellisStructureError, match="dead-end-vertex"):
            require_valid(t)
    # The public report is a fresh list every time.
    first = validate(t)
    first.clear()
    assert validate(t) == reference_validate(t) != []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_relabeled_rejects_non_finite_labels(bad):
    t = random_trellis(4)
    last = t.edges[-1].id
    with pytest.raises(TrellisStructureError, match="non-finite label"):
        t.relabeled(lambda e: bad if e.id == last else e.lam)


# -- one walk plan per topology -------------------------------------------------------


def test_walk_plan_built_once_per_topology(monkeypatch):
    builds = []
    build = trellis_module._walk_plan

    def counted(trellis, direction):
        builds.append(direction)
        return build(trellis, direction)

    monkeypatch.setattr(trellis_module, "_walk_plan", counted)
    code, channel, received = _conv75_word()
    first = channel_lambda_labels(code, channel, received)
    second = channel_lambda_labels(code, Bsc(0.2), received)
    g = correlation_g_table(first, received)

    forward_numerators(first, g, 2)
    backward_numerators(second, g, 2)
    normalized_states(first, g, 2, "backward")
    normalized_states(second, g, 2, "forward")
    forward_distributions(second, g, mode="exact")
    backward_distributions(first, g, mode="quantized")
    forward_numerators(code, g, 1)
    assert sorted(builds) == ["backward", "forward"]


def test_labels_array_and_symbol_groups_per_topology():
    """Each trellis keeps its labels as one read-only array in edge order;
    a relabeled copy builds its own and shares the parent's symbol
    groups, which match a fresh trellis's."""
    code, channel, received = _conv75_word()
    labeled = channel_lambda_labels(code, channel, received)
    assert labeled._lam.tolist() == [e.lam for e in labeled.edges]
    assert not labeled._lam.flags.writeable
    assert labeled.symbol_groups() is code.symbol_groups()
    depths = {v: code.depth_of(v) for v in code.vertices}
    fresh = Trellis(code.rank, depths, labeled.edges).symbol_groups()
    shared = labeled.symbol_groups()
    for name in ("positions", "init_rows", "fin_rows", "offsets", "depths", "clabels"):
        assert np.array_equal(getattr(shared, name), getattr(fresh, name)), name
    a = code.edge_arrays
    for depth, symbol in zip(shared.depths.tolist(), shared.clabels.tolist()):
        positions = shared.positions[shared.find(depth, symbol)]
        assert len(positions) > 0
        assert (a.clabel[positions] == symbol).all()
        assert (a.section[positions] == depth - 1).all()
