"""Labels and g as arrays against per-edge references.

A trellis keeps its edges as arrays and builds ``Edge`` objects only when
a caller reads them; ``channel_lambda_labels`` computes one likelihood per
(section, c-label) group and scatters it, and the g tables built for a
trellis are arrays in its edge order.  The references here are the
per-edge forms these replaced: ``edge_likelihood`` called once per edge,
g tables built from dicts keyed by edge id, and the constructor's checks
run edge by edge.  Labels and g values must agree bit for bit, and every
error must keep its type and text.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trelliskit import (
    Awgn,
    Bsc,
    ChannelError,
    DepthFunctionTable,
    Edge,
    GTableError,
    Trellis,
    TrellisStructureError,
    build_conv_trellis,
    channel_lambda_labels,
    correlation_g_table,
    require_valid,
)
from trelliskit import trellis as trellis_module
from trelliskit.codes import edge_likelihood
from trelliskit.oracles import random_trellis

PROPERTY_SETTINGS = settings(
    max_examples=150, deadline=None, derandomize=True, database=None
)

CLABELS = (1.0, -1.0, 0.5, 0.0, -0.0)


def reshuffled(seed: int, clabels=(1.0, -1.0)) -> Trellis:
    """A random trellis rebuilt with its edges in random order and c-labels
    drawn from ``clabels``, so that edge order is not section order."""
    t = random_trellis(seed, parallel_edge_prob=0.3)
    rng = random.Random(seed)
    edges = [Edge(e.id, e.init, e.fin, e.lam, rng.choice(clabels)) for e in t.edges]
    rng.shuffle(edges)
    return Trellis(t.rank, {v: t.depth_of(v) for v in t.vertices}, edges)


def reference_labels(trellis: Trellis, channel, received) -> list[float]:
    """One ``edge_likelihood`` call per edge, in edge order."""
    return [
        edge_likelihood(channel, received[trellis.depth_of(e.init)], e.clabel)
        for e in trellis.edges
    ]


def outcome(fn, *args):
    """The result, or the type and text of the error raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)


def bits(values) -> list[str]:
    return [float(x).hex() for x in values]


@st.composite
def words(draw):
    """A reshuffled trellis, a channel and a received word for it."""
    t = reshuffled(draw(st.integers(0, 10**6)), CLABELS)
    kind = draw(st.sampled_from(["bsc", "awgn"]))
    if kind == "bsc":
        channel = Bsc(draw(st.sampled_from([0.01, 0.1, 0.35])))
        symbol = st.sampled_from([1.0, -1.0])
    else:
        channel = Awgn(draw(st.sampled_from([0.05, 0.5, 2.0])))
        symbol = st.floats(-4.0, 4.0)
    word = draw(st.lists(symbol, min_size=t.rank, max_size=t.rank))
    return t, channel, word


# -- labelling ---------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(words())
def test_labels_equal_per_edge_reference(case):
    t, channel, word = case
    lab = channel_lambda_labels(t, channel, word)
    assert bits(e.lam for e in lab.edges) == bits(reference_labels(t, channel, word))
    assert bits(lab._lam) == bits(e.lam for e in lab.edges)


@pytest.mark.parametrize("generators, info_len", [((7, 5), 20), ((0o171, 0o133), 6)])
@pytest.mark.parametrize("channel", [Bsc(0.1), Awgn(0.7)], ids=["bsc", "awgn"])
def test_code_labels_equal_per_edge_reference(generators, info_len, channel):
    code = build_conv_trellis(generators, info_len)
    rng = np.random.default_rng(info_len)
    for _ in range(5):
        if isinstance(channel, Bsc):
            word = [float(x) for x in rng.choice([-1.0, 1.0], size=code.rank)]
        else:
            word = [float(x) for x in rng.normal(size=code.rank)]
        lab = channel_lambda_labels(code, channel, word)
        assert bits(e.lam for e in lab.edges) == bits(reference_labels(code, channel, word))


@PROPERTY_SETTINGS
@given(st.integers(0, 10**6), st.data())
def test_bad_received_values_raise_the_reference_error(seed, data):
    """A non-bipolar BSC symbol, or a NaN or infinite AWGN value, fails or
    passes as the per-edge pass did, naming the first edge that meets it."""
    t = reshuffled(seed)
    bad = st.sampled_from([0.5, 0.0, math.nan, math.inf, -math.inf])
    word = data.draw(
        st.lists(st.one_of(st.sampled_from([1.0, -1.0]), bad), min_size=t.rank, max_size=t.rank)
    )
    channel = data.draw(st.sampled_from([Bsc(0.2), Awgn(1.0)]))

    def reference(t, channel, word):
        return t.relabeled(lambda e: edge_likelihood(channel, word[t.depth_of(e.init)], e.clabel))

    got = outcome(channel_lambda_labels, t, channel, word)
    want = outcome(reference, t, channel, word)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert bits(got._lam) == bits(want._lam)


def test_error_texts_are_unchanged():
    t = build_conv_trellis((7, 5), 2)  # rank 8, edges in section order
    with pytest.raises(
        ChannelError, match=r"^received word length 2 does not match trellis rank 8$"
    ):
        channel_lambda_labels(t, Bsc(0.1), [1.0, 1.0])
    word = [1.0, 1.0, 0.25, -1.0, 3.0, 1.0, 1.0, 1.0]
    with pytest.raises(ChannelError, match=r"^BSC received symbols must be \+/-1, got 0\.25$"):
        channel_lambda_labels(t, Bsc(0.1), word)
    word[2] = math.nan
    first = t.edges_at(3)[0]
    with pytest.raises(TrellisStructureError) as err:
        channel_lambda_labels(t, Awgn(1.0), word)
    assert str(err.value) == (
        f"edge {first.id} has a non-finite label (lambda=nan, clabel={first.clabel!r})"
    )
    # exp(-inf) is 0: an infinite AWGN value labels its section with 0.
    word[2] = math.inf
    lab = channel_lambda_labels(t, Awgn(1.0), word)
    assert {e.lam for e in lab.edges_at(3)} == {0.0}


def test_edge_leaving_the_final_layer_is_a_structure_error():
    t = Trellis(2, {0: 0, 1: 1, 2: 2, 3: 1}, [Edge(0, 0, 1), Edge(1, 1, 2), Edge(2, 2, 3)])
    with pytest.raises(TrellisStructureError, match="edge 2 leaves the final layer"):
        channel_lambda_labels(t, Bsc(0.1), [1.0, 1.0])


# -- lazily built edges ----------------------------------------------------------------


def eager(t: Trellis, lam) -> Trellis:
    """The same trellis built through the constructor, with labels ``lam``."""
    edges = [Edge(e.id, e.init, e.fin, float(x), e.clabel) for e, x in zip(t.edges, lam)]
    return Trellis(t.rank, {v: t.depth_of(v) for v in t.vertices}, edges)


@PROPERTY_SETTINGS
@given(st.integers(0, 10**6))
def test_lazy_edges_equal_eager_construction(seed):
    t = reshuffled(seed, CLABELS)
    lam = np.random.default_rng(seed).random(len(t.edges))
    copy = t.relabeled(lam)
    fresh = eager(t, lam)
    assert vars(copy).keys() == vars(fresh).keys()
    assert copy.edges == fresh.edges
    assert copy.edges is copy.edges
    assert all(copy.edge(e.id) is e for e in copy.edges)
    for v in t.vertices:
        assert copy.in_edges(v) == fresh.in_edges(v)
        assert copy.out_edges(v) == fresh.out_edges(v)
    for depth in range(1, t.rank + 1):
        assert copy.edges_at(depth) == fresh.edges_at(depth)
    # A copy of a copy, and the callable form, take the same single path.
    again = copy.relabeled(lambda e: e.lam)
    assert again.edges == fresh.edges
    assert bits(again._lam) == bits(lam)
    for name in ("ids", "init", "fin", "clabel", "section", "fin_depth", "init_row", "fin_row"):
        assert (getattr(copy.edge_arrays, name) == getattr(fresh.edge_arrays, name)).all()


def test_labels_given_as_an_array_are_copied_and_checked():
    t = random_trellis(3)
    lam = np.linspace(0.1, 1.0, len(t.edges))
    copy = t.relabeled(lam)
    lam[0] = 5.0
    assert copy.edges[0].lam == pytest.approx(0.1)
    assert not copy._lam.flags.writeable
    with pytest.raises(TrellisStructureError, match=f"expected {len(t.edges)} labels"):
        t.relabeled(lam[:-1])
    lam[-1] = math.nan
    last = t.edges[-1]
    with pytest.raises(TrellisStructureError) as err:
        t.relabeled(lam)
    assert str(err.value) == (
        f"edge {last.id} has a non-finite label (lambda=nan, clabel={last.clabel!r})"
    )


def reference_constructor_error(vertices, edges):
    """The constructor's checks, edge by edge, as they ran before the
    edges became arrays; None when the edges are accepted."""
    seen = set()
    for e in edges:
        if e.id in seen:
            return f"duplicate edge id {e.id}"
        seen.add(e.id)
        if e.init not in vertices:
            return f"edge {e.id} init vertex {e.init} unknown"
        if e.fin not in vertices:
            return f"edge {e.id} fin vertex {e.fin} unknown"
        if not (math.isfinite(e.lam) and math.isfinite(e.clabel)):
            return (
                f"edge {e.id} has a non-finite label "
                f"(lambda={e.lam!r}, clabel={e.clabel!r})"
            )
    return None


@PROPERTY_SETTINGS
@given(
    st.lists(
        st.tuples(
            st.integers(0, 6),
            st.integers(-1, 5),
            st.integers(-1, 5),
            st.sampled_from([0.5, 1.0, math.nan, math.inf]),
            st.sampled_from([1.0, -1.0, math.nan, -math.inf]),
        ),
        max_size=8,
    )
)
def test_constructor_names_the_reference_edge(fields):
    vertices = {0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3}
    edges = [Edge(*f) for f in fields]
    want = reference_constructor_error(vertices, edges)
    if want is None:
        t = Trellis(3, vertices, edges)
        assert t.edges == tuple(edges)
    else:
        with pytest.raises(TrellisStructureError) as err:
            Trellis(3, vertices, edges)
        assert str(err.value) == want


# -- g tables as arrays ----------------------------------------------------------------


@PROPERTY_SETTINGS
@given(st.integers(0, 10**6))
def test_array_g_tables_equal_dict_built_references(seed):
    t = reshuffled(seed, CLABELS)
    rng = np.random.default_rng(seed)
    word = [float(x) for x in rng.normal(size=t.rank)]
    depth = {e.id: t.depth_of(e.init) for e in t.edges}
    cases = [
        (correlation_g_table(t, word), {e.id: e.clabel * word[depth[e.id]] for e in t.edges}),
        (DepthFunctionTable.constant(t, 0.25), {e.id: 0.25 for e in t.edges}),
        (DepthFunctionTable.from_clabels(t), {e.id: e.clabel for e in t.edges}),
    ]
    copy = t.relabeled(rng.random(len(t.edges)))
    fresh = eager(t, copy._lam)
    for table, values in cases:
        reference = DepthFunctionTable(values)
        want = bits(reference.values_for(t))
        assert want == bits(values[e.id] for e in t.edges)
        # The table's own topology, a relabeled copy and a trellis built
        # anew from the same edges all read the same values.
        for target in (t, copy, fresh):
            assert bits(table.values_for(target)) == want
        assert table.values_for(copy) is table.values_for(t)
        assert bits(table.value(e) for e in t.edges) == want
        assert dict(table.items()) == dict(reference.items())
        assert len(table) == len(reference)


def test_g_table_errors_keep_their_text():
    t = build_conv_trellis((7, 5), 2)
    first = t.edges[0]
    with pytest.raises(GTableError, match=rf"^edge {first.id} has a non-finite g value nan$"):
        DepthFunctionTable.constant(t, math.nan)
    word = [1.0] * t.rank
    word[3] = math.inf
    e = t.edges_at(4)[0]
    with pytest.raises(GTableError, match=rf"^edge {e.id} has a non-finite g value (inf|-inf)$"):
        correlation_g_table(t, word)
    partial = DepthFunctionTable({x.id: 1.0 for x in t.edges if x.id != e.id})
    with pytest.raises(GTableError, match=rf"^no g value for edge {e.id} \({e.init}->{e.fin}\)$"):
        partial.values_for(t)
    with pytest.raises(GTableError, match=rf"^no g value for edge {e.id} \({e.init}->{e.fin}\)$"):
        partial.value(e)
    with pytest.raises(GTableError, match="expected"):
        DepthFunctionTable.from_values(t, np.zeros(3))


def test_report_is_shared_by_copies_made_before_validation(monkeypatch):
    """Validity depends on the structure only: copies made before the
    first validation share its report with their parent and each other."""
    runs = []
    validate = trellis_module.validate

    def counted(t):
        runs.append(t)
        return validate(t)

    monkeypatch.setattr(trellis_module, "validate", counted)
    code = build_conv_trellis((7, 5), 6)
    first = channel_lambda_labels(code, Bsc(0.1), [1.0] * code.rank)
    second = first.relabeled(np.full(len(first.edges), 0.5))
    require_valid(second)
    require_valid(first)
    require_valid(code)
    assert len(runs) == 1
