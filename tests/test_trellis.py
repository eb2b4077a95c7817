import numpy as np
import pytest

from trelliskit import (
    DepthFunctionTable,
    Edge,
    PathCountError,
    Trellis,
    TrellisFormatError,
    TrellisStructureError,
    UnknownVertexError,
    build_spc_trellis,
    degrees,
    dumps_trellis,
    enumerate_paths,
    loads_trellis,
    path_label,
    split_multi_symbol_edges,
    validate,
)
from trelliskit.data import bundled_trellis
from trelliskit.oracles import random_trellis

from conftest import assert_close


def edge_ids(paths):
    return sorted(tuple(e.id for e in p) for p in paths)


class TestStructure:
    def test_spc4_reference_structure(self, spc4):
        assert spc4.rank == 4
        assert len(spc4.vertices) == 8
        assert len(spc4.edges) == 12
        assert validate(spc4) == []
        assert sum(1 for _ in enumerate_paths(spc4)) == 8

    def test_degrees(self, spc4):
        assert degrees(spc4, 1) == (1, 2)
        assert degrees(spc4, spc4.source) == (0, 2)
        assert degrees(spc4, spc4.sink) == (2, 0)

    def test_degrees_unknown_vertex(self, spc4):
        with pytest.raises(UnknownVertexError):
            degrees(spc4, 99)

    def test_rank_must_be_positive(self):
        with pytest.raises(TrellisStructureError):
            Trellis(0, {0: 0}, [])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(TrellisStructureError):
            Trellis(1, [(0, 0), (0, 1)], [])
        with pytest.raises(TrellisStructureError):
            Trellis(
                1,
                {0: 0, 1: 1},
                [Edge(0, 0, 1), Edge(0, 0, 1)],
            )


class TestValidate:
    """The five canonical corruptions of a valid trellis must be caught."""

    def _base(self):
        return build_spc_trellis(4)

    def test_extra_source(self):
        t = self._base()
        depths = {v: t.depth_of(v) for v in t.vertices}
        depths[50] = 0
        report = validate(Trellis(4, depths, t.edges))
        assert any(v.code == "multiple-sources" for v in report)

    def test_sink_at_wrong_depth(self):
        t = self._base()
        depths = {v: t.depth_of(v) for v in t.vertices}
        depths[t.sink] = 3  # leaves depth 4 empty
        edges = [e for e in t.edges]
        report = validate(Trellis(4, depths, edges))
        assert any(v.code == "missing-sink" for v in report)

    def test_dangling_vertex(self):
        t = self._base()
        depths = {v: t.depth_of(v) for v in t.vertices}
        depths[50] = 2
        report = validate(Trellis(4, depths, t.edges))
        codes = {v.code for v in report}
        assert "unreachable-vertex" in codes
        assert "dead-end-vertex" in codes

    def test_depth_skip_edge(self):
        t = self._base()
        depths = {v: t.depth_of(v) for v in t.vertices}
        edges = list(t.edges) + [Edge(99, 1, 5)]  # depth 1 -> depth 3
        report = validate(Trellis(4, depths, edges))
        assert any(v.code == "depth-skip" for v in report)

    def test_empty_layer(self):
        depths = {0: 0, 1: 1, 2: 3, 3: 4}
        edges = [Edge(0, 0, 1), Edge(1, 2, 3)]
        report = validate(Trellis(4, depths, edges))
        assert any(v.code == "empty-layer" for v in report)

    def test_bundled_trellises_are_valid(self):
        for name in ("spc4", "conv75_k2"):
            assert validate(bundled_trellis(name)) == []

    def test_bundled_files_match_builders(self):
        from trelliskit import build_conv_trellis

        assert dumps_trellis(bundled_trellis("spc4")) == dumps_trellis(
            build_spc_trellis(4)
        )
        assert dumps_trellis(bundled_trellis("conv75_k2")) == dumps_trellis(
            build_conv_trellis((7, 5), 2)
        )

    def test_each_edge_in_exactly_one_section(self):
        for seed in range(5):
            t = random_trellis(seed)
            sections = [t.edges_at(d) for d in range(1, t.rank + 1)]
            ids = [e.id for sec in sections for e in sec]
            assert sorted(ids) == sorted(e.id for e in t.edges)
            assert len(ids) == len(set(ids))


class TestEnumeration:
    def test_empty_path_from_vertex_to_itself(self, spc4):
        paths = list(enumerate_paths(spc4, 3, 3))
        assert paths == [()]
        assert path_label(()) == 1.0

    def test_paths_to_inner_vertex(self, spc4):
        # Two routes reach the even-parity vertex at depth 2.
        assert len(list(enumerate_paths(spc4, spc4.source, 3))) == 2

    def test_cap_guard(self, spc4):
        with pytest.raises(PathCountError):
            list(enumerate_paths(spc4, cap=7))
        assert len(list(enumerate_paths(spc4, cap=8))) == 8

    def test_wrong_direction_rejected(self, spc4):
        with pytest.raises(TrellisStructureError):
            enumerate_paths(spc4, spc4.sink, spc4.source)

    def test_parallel_edges_enumerated_separately(self):
        t = Trellis(
            2,
            {0: 0, 1: 1, 2: 2},
            [
                Edge(0, 0, 1, 0.5, 1.0),
                Edge(1, 0, 1, 0.25, -1.0),  # parallel to edge 0
                Edge(2, 1, 2, 1.0, 1.0),
            ],
        )
        assert validate(t) == []
        paths = list(enumerate_paths(t))
        assert len(paths) == 2
        assert sorted(path_label(p) for p in paths) == [0.25, 0.5]


class TestSplit:
    def _two_section(self):
        # Two sections, two symbols per edge, includes a parallel pair.
        t = Trellis(
            2,
            {0: 0, 1: 1, 2: 1, 3: 2},
            [
                Edge(0, 0, 1, 0.3),
                Edge(1, 0, 2, 0.7),
                Edge(2, 1, 3, 0.4),
                Edge(3, 2, 3, 0.6),
                Edge(4, 2, 3, 0.9),
            ],
        )
        symbols = {
            0: (1.0, -1.0),
            1: (-1.0, -1.0),
            2: (1.0, 1.0),
            3: (-1.0, 1.0),
            4: (1.0, -1.0),
        }
        return t, symbols

    def test_identity_when_one_symbol(self, spc4):
        symbols = {e.id: (e.clabel,) for e in spc4.edges}
        out = split_multi_symbol_edges(spc4, 1, symbols)
        assert out.rank == spc4.rank
        assert len(out.edges) == len(spc4.edges)
        assert len(out.vertices) == len(spc4.vertices)
        assert edge_ids(enumerate_paths(out)) == edge_ids(enumerate_paths(spc4))

    def test_structure_after_split(self):
        t, symbols = self._two_section()
        out = split_multi_symbol_edges(t, 2, symbols)
        assert out.rank == 4
        assert len(out.edges) == 2 * len(t.edges)
        assert len(out.vertices) == len(t.vertices) + len(t.edges)
        assert validate(out) == []
        assert len(list(enumerate_paths(out))) == len(list(enumerate_paths(t)))

    def test_label_and_symbol_multiset_preserved(self):
        t, symbols = self._two_section()
        out = split_multi_symbol_edges(t, 2, symbols)
        before = sorted(
            (path_label(p), tuple(s for e in p for s in symbols[e.id]))
            for p in enumerate_paths(t)
        )
        after = sorted(
            (path_label(p), tuple(e.clabel for e in p))
            for p in enumerate_paths(out)
        )
        assert len(before) == len(after)
        for (lb, sb), (la, sa) in zip(before, after):
            assert_close(lb, la, 1e-12)
            assert sb == sa

    def test_flow_invariant(self):
        t, symbols = self._two_section()
        out = split_multi_symbol_edges(t, 2, symbols)
        flow_before = sum(path_label(p) for p in enumerate_paths(t))
        flow_after = sum(path_label(p) for p in enumerate_paths(out))
        assert_close(flow_before, flow_after, 1e-12)

    def test_symbol_count_mismatch_rejected(self):
        t, symbols = self._two_section()
        symbols[3] = (1.0,)
        with pytest.raises(TrellisStructureError):
            split_multi_symbol_edges(t, 2, symbols)


class TestTextFormat:
    def test_round_trip_bit_exact(self, spc4):
        rng = np.random.default_rng(42)
        t = spc4.relabeled(lambda e: float(rng.random()) or 0.5)
        text = dumps_trellis(t)
        back = loads_trellis(text)
        assert dumps_trellis(back) == text
        assert [(e.id, e.init, e.fin, e.lam, e.clabel) for e in back.edges] == [
            (e.id, e.init, e.fin, e.lam, e.clabel) for e in t.edges
        ]

    def test_random_instances_round_trip(self):
        for seed in range(5):
            t = random_trellis(seed)
            assert dumps_trellis(loads_trellis(dumps_trellis(t))) == dumps_trellis(t)

    def test_parse_errors(self):
        with pytest.raises(TrellisFormatError):
            loads_trellis("v 0 depth=0\n")  # no header
        with pytest.raises(TrellisFormatError):
            loads_trellis("trellis rank=1\nv 0 depth=0\nv 1 depth=1\nbogus\n")
        with pytest.raises(TrellisFormatError):
            loads_trellis("trellis rank=1\nv 0 depth=zero\n")

    def test_repeated_vertex_names_line(self):
        text = "trellis rank=2\nv 0 depth=0\nv 1 depth=1\nv 1 depth=2\nv 2 depth=2\n"
        with pytest.raises(TrellisFormatError, match="line 4: duplicate vertex id 1"):
            loads_trellis(text)

    def test_non_finite_labels_rejected(self):
        head = "trellis rank=1\nv 0 depth=0\nv 1 depth=1\n"
        for fields in ("lambda=nan clabel=1.0", "lambda=0.5 clabel=-inf"):
            with pytest.raises(TrellisFormatError, match="non-finite"):
                loads_trellis(head + f"e 0 0 1 {fields}\n")
        with pytest.raises(TrellisStructureError, match="non-finite"):
            Trellis(1, {0: 0, 1: 1}, [Edge(0, 0, 1, float("inf"), 1.0)])

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# a comment\ntrellis rank=1\n\nv 0 depth=0\nv 1 depth=1\n"
            "e 0 0 1 lambda=0.5 clabel=-1.0\n"
        )
        t = loads_trellis(text)
        assert t.rank == 1 and t.edges[0].lam == 0.5


class TestDepthFunctionTable:
    def test_from_clabels(self, spc4, spc4_clabel_g):
        for e in spc4.edges:
            assert spc4_clabel_g.value(e) == e.clabel

    def test_missing_edge_reported(self, spc4):
        table = DepthFunctionTable({e.id: 0.0 for e in spc4.edges[:-1]})
        from trelliskit import GTableError

        with pytest.raises(GTableError):
            table.value(spc4.edges[-1])

    def test_path_value_is_sum(self, spc4, spc4_clabel_g):
        for path in enumerate_paths(spc4):
            assert spc4_clabel_g.path_value(path) == sum(e.clabel for e in path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_rejected(self, spc4, bad):
        from trelliskit import GTableError

        values = {e.id: 1.0 for e in spc4.edges}
        values[spc4.edges[-1].id] = bad
        with pytest.raises(GTableError, match="non-finite"):
            DepthFunctionTable(values)

    def test_non_finite_file_value_names_line(self, spc4, tmp_path):
        from trelliskit import read_g_table

        path = tmp_path / "g.table"
        path.write_text("# g table\n" + "".join(f"g {e.id} nan\n" for e in spc4.edges))
        with pytest.raises(TrellisFormatError, match="line 2: non-finite"):
            read_g_table(path, spc4)

    def test_repeated_file_value_names_line(self, spc4, tmp_path):
        from trelliskit import read_g_table

        first = spc4.edges[0].id
        lines = [f"g {e.id} 1.0\n" for e in spc4.edges] + [f"g {first} 2.0\n"]
        path = tmp_path / "g.table"
        path.write_text("".join(lines))
        with pytest.raises(
            TrellisFormatError, match=f"line {len(lines)}: duplicate g value for edge {first}"
        ):
            read_g_table(path, spc4)


BAD_FILES = [
    pytest.param(
        "g_table", "g 0 1.0\ng 1\n", r"^line 2: expected 'g <edge-id> <value>'$",
        id="g line with two fields",
    ),
    pytest.param(
        "g_table", "# header\nh 0 1.0\n", r"^line 2: expected 'g <edge-id> <value>'$",
        id="line not tagged g",
    ),
    pytest.param(
        "g_table", "g x 1.0\n", r"^line 1: invalid literal for int\(\)",
        id="edge id not an integer",
    ),
    pytest.param(
        "g_table", "\ng 0 one\n", r"^line 2: could not convert string to float: 'one'$",
        id="g value not a number",
    ),
    pytest.param(
        "received", "1.0\n-1.0 1.0\n", r"^line 2: could not convert string to float",
        id="received value not a number",
    ),
]


@pytest.mark.parametrize("reader, text, match", BAD_FILES)
def test_bad_lines_name_their_line(spc4, tmp_path, reader, text, match):
    from trelliskit import read_g_table, read_received

    path = tmp_path / "input.txt"
    path.write_text(text)
    with pytest.raises(TrellisFormatError, match=match):
        read_g_table(path, spc4) if reader == "g_table" else read_received(path)
