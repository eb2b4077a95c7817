"""Trellises built as arrays against the per-edge references.

The code builders, the edge splitter and the parser compute a trellis's
edges as arrays and hand them to one checking core; the writer and the
codeword walker read those arrays.  The references in ``conftest.py`` are
the per-edge forms they replaced.  The text written, the layers and the
vertex order must be identical, every error must keep its type and text,
and no ``Edge`` object is made until a caller reads ``Trellis.edges``.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trelliskit import (
    DepthFunctionTable,
    Edge,
    SemiringError,
    Trellis,
    TrellisFormatError,
    TrellisStructureError,
    backward_numerators,
    build_conv_trellis,
    build_spc_trellis,
    dumps_trellis,
    forward_numerators,
    loads_trellis,
    read_g_table,
    read_received,
    read_trellis,
    split_multi_symbol_edges,
    symbol_moments,
    write_g_table,
)
from trelliskit.codes import random_codeword
from trelliskit.distributions import (
    backward_distributions,
    forward_distributions,
    symbol_distribution,
    trellis_distribution,
)
from trelliskit.oracles import random_trellis

from conftest import (
    reference_build_conv_trellis,
    reference_build_spc_trellis,
    reference_loads_trellis,
    reference_random_codeword,
    reference_split_multi_symbol_edges,
)

PROPERTY_SETTINGS = settings(
    max_examples=150, deadline=None, derandomize=True, database=None
)

# Octal generator sets: memory 2, 6 and 4, a memoryless code, c = 3 and a
# code whose first generator is shorter than its memory.
GENERATOR_SETS = [(0o7, 0o5), (0o171, 0o133), (0o23, 0o35), (0o1,), (0o5, 0o7, 0o3), (0o3, 0o1)]


def fingerprint(t: Trellis):
    """Everything a trellis shows of its build: the written text, the
    layers, the vertices in insertion order and the rank."""
    return dumps_trellis(t), t.layers, t.vertices, t.rank


def outcome(build, *args):
    """The trellis's fingerprint, or the type and text of the error."""
    try:
        return fingerprint(build(*args))
    except Exception as exc:  # compared as data below
        return type(exc), str(exc)


@st.composite
def loose_trellises(draw):
    """Any trellis the constructor accepts: arbitrary vertex and edge ids,
    depths and endpoints (depth skips, backward edges and edges leaving the
    final layer included), edges in any order and any finite labels."""
    rank = draw(st.integers(1, 4))
    vids = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=9, unique=True))
    depths = [draw(st.integers(0, rank)) for _ in vids]
    finite = st.floats(allow_nan=False, allow_infinity=False)
    eids = draw(st.lists(st.integers(-10**6, 10**6), max_size=10, unique=True))
    edges = [
        Edge(i, draw(st.sampled_from(vids)), draw(st.sampled_from(vids)), draw(finite), draw(finite))
        for i in eids
    ]
    return Trellis(rank, list(zip(vids, depths)), edges)


# -- builders ---------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 14))
def test_spc_trellis_equals_reference(n):
    assert outcome(build_spc_trellis, n) == outcome(reference_build_spc_trellis, n)


@pytest.mark.parametrize("generators", GENERATOR_SETS)
@pytest.mark.parametrize("info_len", [0, 1, 2, 5, 30])
def test_conv_trellis_equals_reference(generators, info_len):
    want = outcome(reference_build_conv_trellis, generators, info_len)
    assert outcome(build_conv_trellis, generators, info_len) == want


@pytest.mark.parametrize(
    "generators, info_len",
    [((), 3), ((7, 0), 3), ((7, -5), 3), ((7, 5), -1), ((1 << 17, 1), 2), ((1,), 0)],
)
def test_builder_errors_equal_reference(generators, info_len):
    want = outcome(reference_build_conv_trellis, generators, info_len)
    assert want[0] is TrellisStructureError
    assert outcome(build_conv_trellis, generators, info_len) == want


# -- splitter ---------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(loose_trellises(), st.integers(1, 3), st.integers(0, 2**32))
def test_split_equals_reference(t, c, seed):
    rng = random.Random(seed)
    table = {e.id: [rng.choice([1.0, -1.0, rng.uniform(-3, 3)]) for _ in range(c)] for e in t.edges}
    want = outcome(reference_split_multi_symbol_edges, t, c, table)
    assert outcome(split_multi_symbol_edges, t, c, table) == want


@pytest.mark.parametrize("seed", range(20))
def test_split_of_random_trellis_equals_reference(seed):
    t = random_trellis(seed)
    c = 1 + seed % 3
    rng = np.random.default_rng(seed)
    table = {e.id: rng.choice([1.0, -1.0], size=c).tolist() for e in t.edges}
    want = outcome(reference_split_multi_symbol_edges, t, c, table)
    assert outcome(split_multi_symbol_edges, t, c, table) == want


def test_splitter_errors_equal_reference():
    t = build_spc_trellis(3)
    table = {e.id: (e.clabel, 1.0) for e in t.edges}
    short = dict(table)
    short[t.edges[2].id] = (1.0,)
    missing = dict(table)
    del missing[t.edges[1].id]
    for c, symbols in ((0, table), (-1, table), (2, short), (2, missing), (1, table)):
        want = outcome(reference_split_multi_symbol_edges, t, c, symbols)
        assert want[0] is TrellisStructureError
        assert outcome(split_multi_symbol_edges, t, c, symbols) == want


# -- parser and writer ------------------------------------------------------------


@PROPERTY_SETTINGS
@given(loose_trellises())
def test_text_round_trip_is_byte_identical(t):
    text = dumps_trellis(t)
    back = loads_trellis(text)
    assert dumps_trellis(back) == text
    assert fingerprint(back) == fingerprint(reference_loads_trellis(text))
    assert back.layers == t.layers


@pytest.mark.parametrize(
    "text",
    [
        "v 0 depth=0\n",
        "trellis\n",
        "trellis rank=x\n",
        "trellis size=2\n",
        "trellis rank=1\nv 0 depth=zero\n",
        "trellis rank=1\nv 0\n",
        "trellis rank=1\nv 0 depth=0\nv 0 depth=1\n",
        "trellis rank=1\nv 0 depth=0\nv 1 depth=1\nbogus\n",
        "trellis rank=1\nv 0 depth=0\nv 1 depth=1\ne 0 0 1 lambda=1.0\n",
        "trellis rank=1\nv 0 depth=0\nv 1 depth=1\ne 0 0 x lambda=1.0 clabel=1.0\n",
        "trellis rank=1\nv 0 depth=0\nv 1 depth=1\ne 0 0 1 lam=1.0 clabel=1.0\n",
        "trellis rank=1\nv 0 depth=0\nv 1 depth=1\ne 0 0 1 lambda=one clabel=1.0\n",
        # Structure errors, raised by the constructor's checks.
        "trellis rank=0\nv 0 depth=0\n",
        "trellis rank=1\nv 0 depth=0\nv 1 depth=2\n",
        "trellis rank=1\nv 0 depth=0\nv 1 depth=-1\n",
        "trellis rank=1\nv 0 depth=0\nv 1 depth=1\ne 0 0 1 lambda=1.0 clabel=1.0\ne 0 0 1 lambda=1.0 clabel=1.0\n",
        "trellis rank=1\nv 0 depth=0\nv 1 depth=1\ne 0 5 1 lambda=1.0 clabel=1.0\n",
        "trellis rank=1\nv 0 depth=0\nv 1 depth=1\ne 0 0 5 lambda=1.0 clabel=1.0\n",
        "trellis rank=1\nv 0 depth=0\nv 1 depth=1\ne 0 0 1 lambda=nan clabel=1.0\n",
        "trellis rank=1\nv 0 depth=0\nv 1 depth=1\ne 0 0 1 lambda=1.0 clabel=-inf\n",
    ],
)
def test_parser_errors_equal_reference(text):
    want = outcome(reference_loads_trellis, text)
    assert isinstance(want[0], type) and want[0].__name__ == "TrellisFormatError"
    assert outcome(loads_trellis, text) == want


@pytest.mark.parametrize(
    "record",
    [
        "e 9223372036854775808 0 1 lambda=1.0 clabel=1.0",
        "e 99999999999999999999 0 1 lambda=1.0 clabel=1.0",
        "e 0 -9223372036854775809 1 lambda=1.0 clabel=1.0",
        "v 99999999999999999999 depth=1",
        "v 2 depth=99999999999999999999",
    ],
)
def test_an_integer_beyond_int64_is_a_format_error(record):
    """Ids and depths must fit the trellis's integer arrays; one that does
    not names its line instead of escaping as an OverflowError."""
    text = f"trellis rank=1\n# e 99999999999999999999\nv 0 depth=0\nv 1 depth=1\n{record}\n"
    with pytest.raises(TrellisFormatError, match=r"^line 5: integer -?\d+ outside "):
        loads_trellis(text)


def _reader_texts():
    """(reader, valid text) of every file reader, on [7,5] K=2."""
    t = build_conv_trellis((7, 5), 2)
    return [
        (read_trellis, dumps_trellis(t)),
        (lambda path: read_g_table(path, t), "".join(f"g {i} 0.5\n" for i in t.edge_arrays.ids.tolist())),
        (read_received, "1.0\n-1.0\n0.25\n"),
    ]


@pytest.mark.parametrize("which", range(3), ids=["trellis", "g table", "received word"])
def test_a_byte_that_is_not_ascii_is_a_format_error(tmp_path, which):
    """A non-ASCII byte names its line instead of escaping as a
    UnicodeDecodeError; CRLF line ends read as a text-mode read splits
    them."""
    reader, text = _reader_texts()[which]
    path = tmp_path / "file.txt"
    path.write_bytes(text.replace("\n", "\r\n").encode("ascii"))
    crlf = reader(path)
    path.write_bytes(text.encode("ascii"))
    plain = reader(path)
    if which == 0:
        crlf, plain = dumps_trellis(crlf), dumps_trellis(plain)
    elif which == 1:
        crlf, plain = sorted(crlf.items()), sorted(plain.items())
    assert crlf == plain
    lines = text.encode("ascii").split(b"\n")
    lines[1] += b" \xc3\xa9"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(TrellisFormatError, match=r"^line 2: byte 0xc3 is not ASCII$"):
        reader(path)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
def test_a_received_value_that_is_not_finite_is_a_format_error(tmp_path, value):
    path = tmp_path / "r.txt"
    path.write_text(f"1.0\n# a comment\n{value}\n-1.0\n")
    with pytest.raises(TrellisFormatError, match=r"^line 3: non-finite received value -?(inf|nan)$"):
        read_received(path)


# -- the constructor's checks -----------------------------------------------------


CONSTRUCTOR_ERRORS = [
    (0, {0: 0}, [], "rank must be >= 1, got 0"),
    (1, [(0, 0), (1, 1), (0, 1)], [], "duplicate vertex id 0"),
    (1, {0: 0, 1: 2}, [], "vertex 1 depth 2 outside 0..1"),
    (1, {0: -1, 1: 1}, [], "vertex 0 depth -1 outside 0..1"),
    # The first offending vertex wins, whichever check it fails.
    (1, [(0, 0), (1, 1), (1, 5), (2, 9)], [], "duplicate vertex id 1"),
    (1, [(0, 0), (1, 5), (1, 1)], [], "vertex 1 depth 5 outside 0..1"),
    (1, {0: 0, 1: 1}, [Edge(3, 0, 1), Edge(3, 0, 1)], "duplicate edge id 3"),
    (1, {0: 0, 1: 1}, [Edge(3, 7, 1)], "edge 3 init vertex 7 unknown"),
    (1, {0: 0, 1: 1}, [Edge(3, 0, 7)], "edge 3 fin vertex 7 unknown"),
    (
        1,
        {0: 0, 1: 1},
        [Edge(3, 0, 1, math.nan, 1.0)],
        "edge 3 has a non-finite label (lambda=nan, clabel=1.0)",
    ),
    # Vertices are checked before edges, and the first offending edge wins.
    (1, {0: 0, 1: 3}, [Edge(3, 7, 1)], "vertex 1 depth 3 outside 0..1"),
    (
        1,
        {0: 0, 1: 1},
        [Edge(3, 0, 1, math.inf), Edge(4, 7, 1), Edge(4, 0, 1)],
        "edge 3 has a non-finite label (lambda=inf, clabel=0.0)",
    ),
    (1, {0: 0, 1: 1}, [Edge(4, 0, 9), Edge(4, 8, 1)], "edge 4 fin vertex 9 unknown"),
]


@pytest.mark.parametrize("rank, vertices, edges, text", CONSTRUCTOR_ERRORS)
def test_constructor_and_array_core_raise_the_same_error(rank, vertices, edges, text):
    with pytest.raises(TrellisStructureError) as err:
        Trellis(rank, vertices, edges)
    assert str(err.value) == text
    pairs = list(vertices.items() if isinstance(vertices, dict) else vertices)
    arrays = [np.array([v for v, _ in pairs]), np.array([d for _, d in pairs])]
    for name, kind in (("id", int), ("init", int), ("fin", int), ("lam", float), ("clabel", float)):
        arrays.append(np.array([getattr(e, name) for e in edges], dtype=kind))
    with pytest.raises(TrellisStructureError) as err:
        Trellis._from_arrays(rank, *arrays)
    assert str(err.value) == text


# -- no Edge objects on the build and I/O paths -------------------------------------


@pytest.fixture
def edges_made(monkeypatch):
    """A list that grows by one for every ``Edge`` constructed."""
    made = []
    init = Edge.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Edge, "__init__", counting)
    return made


def test_built_split_and_loaded_trellises_make_no_edges(edges_made, tmp_path):
    spc = build_spc_trellis(6)
    conv = build_conv_trellis((0o171, 0o133), 8)
    table = {i: (1.0, -1.0) for i in spc.edge_arrays.ids.tolist()}
    split = split_multi_symbol_edges(spc, 2, table)
    text = dumps_trellis(conv)
    loaded = loads_trellis(text)
    assert dumps_trellis(loaded) == text
    random_codeword(loaded, np.random.default_rng(1))
    path = tmp_path / "g.table"
    write_g_table(path, DepthFunctionTable.from_clabels(loaded))
    read_g_table(path, loaded)
    assert edges_made == []
    for t in (spc, conv, split, loaded):
        assert t._edges is None
        assert len(t.edges) == len(t.edge_arrays.ids)
    assert len(edges_made) == sum(len(t.edges) for t in (spc, conv, split, loaded))


def test_constructor_keeps_the_given_edges():
    edges = [Edge(0, 0, 1, 0.5, 1.0), Edge(1, 0, 1, 0.25, -1.0)]
    t = Trellis(1, {0: 0, 1: 1}, edges)
    assert all(a is b for a, b in zip(t.edges, edges))


def test_g_table_missing_edge_keeps_its_text(tmp_path):
    t = build_conv_trellis((7, 5), 2)
    path = tmp_path / "g.table"
    ids = t.edge_arrays.ids.tolist()
    path.write_text("".join(f"g {i} 1.0\n" for i in ids if i not in (ids[3], ids[5])))
    with pytest.raises(Exception, match=rf"^g table is missing edge {ids[3]}$"):
        read_g_table(path, t)


# -- the codeword walker -----------------------------------------------------------


def walker_cases():
    yield loads_trellis(dumps_trellis(build_conv_trellis((7, 5), 30)))
    yield build_conv_trellis((0o5, 0o7, 0o3), 4)
    yield build_spc_trellis(7)
    for seed in range(6):
        yield random_trellis(seed, parallel_edge_prob=0.5)


@pytest.mark.parametrize("case", range(9))
def test_random_codeword_equals_reference(case):
    t = list(walker_cases())[case]
    for seed in range(10):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert random_codeword(t, ours) == reference_random_codeword(t, theirs)
        # The same draws were made, so both generators are in one state.
        assert ours.integers(0, 2**62) == theirs.integers(0, 2**62)


# -- joins check the topology by its edges --------------------------------------------


def same_layers_other_edges():
    """Rank-2 trellises with equal vertex layers but different edges."""
    vertices = {0: 0, 1: 1, 2: 1, 3: 2}
    a = Trellis(2, vertices, [Edge(0, 0, 1), Edge(1, 0, 2), Edge(2, 1, 3), Edge(3, 2, 3)])
    b = Trellis(
        2,
        vertices,
        [Edge(0, 0, 1), Edge(1, 0, 2), Edge(2, 1, 3), Edge(3, 1, 3), Edge(4, 2, 3, 3.0)],
    )
    return a, b, DepthFunctionTable.constant(a, 1.0), DepthFunctionTable.constant(b, 1.0)


def test_symbol_moments_reject_a_backward_state_of_other_edges():
    a, b, ga, gb = same_layers_other_edges()
    fwd = forward_numerators(a, ga, 1)
    assert symbol_moments(a, ga, fwd, backward_numerators(a, ga, 1), 1, 0.0).numerators == (2.0, 4.0)
    with pytest.raises(SemiringError, match="the states were not swept over this trellis"):
        symbol_moments(a, ga, fwd, backward_numerators(b, gb, 1), 1, 0.0)


def test_trellis_distribution_rejects_a_backward_state_of_other_edges():
    a, b, ga, gb = same_layers_other_edges()
    fwd = forward_distributions(a, ga)
    assert trellis_distribution(fwd, backward_distributions(a, ga)).total() == 2.0
    with pytest.raises(SemiringError, match="come from different trellises"):
        trellis_distribution(fwd, backward_distributions(b, gb))


def test_symbol_distribution_rejects_a_backward_state_of_other_edges():
    a, b, ga, gb = same_layers_other_edges()
    fwd = forward_distributions(a, ga)
    assert symbol_distribution(a, ga, fwd, backward_distributions(a, ga), 1, 0.0).total() == 2.0
    with pytest.raises(SemiringError, match="come from different trellises"):
        symbol_distribution(a, ga, fwd, backward_distributions(b, gb), 1, 0.0)
