import json
import os
import subprocess
import sys

import numpy as np
import pytest

from trelliskit import (
    TrelliskitError, build_spc_trellis, codes, distributions, moments, read_trellis,
    trellis as tgraph, write_g_table,
)
from trelliskit.cli import main
from trelliskit.trellis import DepthFunctionTable, read_g_table, write_trellis

from conftest import assert_close


@pytest.fixture()
def spc4_file(tmp_path):
    path = tmp_path / "spc4.trellis"
    assert main(["build-code", "--spc", "4", "--out", str(path)]) == 0
    return str(path)


def order2_forward_sweeps(monkeypatch):
    """Watch the CLI's trellis reads and ``moments._sweep`` runs; the
    returned function counts the runs so far on the forward walk of the
    trellis read, at order 2.  A call served from a kept sweep runs none."""
    graphs, runs = [], []
    read, sweep = tgraph.read_trellis, moments._sweep

    def reading(*args):
        graphs.append(read(*args))
        return graphs[-1]

    def sweeping(semiring, plan, lift, orders):
        runs.append((plan, orders[0]))
        return sweep(semiring, plan, lift, orders)

    monkeypatch.setattr(tgraph, "read_trellis", reading)
    monkeypatch.setattr(moments, "_sweep", sweeping)

    def count():
        (graph,) = graphs
        return sum(plan is graph.plan("forward") and order == 2 for plan, order in runs)

    return count


def strict_json(text):
    """Parse ``text`` as strict JSON, which has no NaN or Infinity."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, strict_json(captured.out) if captured.out.strip() else None


def test_start_up_leaves_the_oracles_unimported():
    """Only ``--oracle`` uses the path-enumeration oracles, so importing
    the CLI must not import them."""
    import trelliskit

    src = os.path.dirname(os.path.dirname(trelliskit.__file__))
    probe = "import sys, trelliskit.cli; sys.exit('trelliskit.oracles' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


# The trelliskit modules a process holds after each subcommand, besides
# the package and the CLI: each loads only the engines it runs.
FOOTPRINTS = [
    pytest.param(None, {"errors"}, id="import trelliskit"),
    pytest.param(["build-code", "--spc", "3", "--out", "{tmp}/b.trellis"],
                 {"errors", "semirings", "trellis", "codes"}, id="build-code"),
    pytest.param(["label", "--trellis", "{spc4}", "--channel", "bsc:0.2", "--received",
                  "seed:1", "--received-out", "{tmp}/r1.txt", "--out", "{tmp}/l1.trellis"],
                 {"errors", "semirings", "trellis", "codes"}, id="label"),
    pytest.param(["validate", "--trellis", "{spc4}", "--out", "{tmp}/v.json"],
                 {"errors", "semirings", "trellis"}, id="validate"),
    pytest.param(["entropy", "--trellis", "{labeled}", "--channel", "bsc:0.2", "--received",
                  "{received}", "--out", "{tmp}/h.json"],
                 {"errors", "semirings", "trellis", "codes", "moments"}, id="entropy"),
    pytest.param(["moments", "--trellis", "{labeled}", "--g", "clabel", "--max-order", "2",
                  "--out", "{tmp}/m.json"],
                 {"errors", "semirings", "trellis", "moments"}, id="moments"),
    pytest.param(["distribution", "--trellis", "{labeled}", "--g", "clabel", "--out",
                  "{tmp}/d.csv"],
                 {"errors", "semirings", "trellis", "moments", "distributions"},
                 id="distribution"),
    pytest.param(["figures", "--which", "3", "--seed", "1", "--info-len", "4", "--out",
                  "{tmp}/figs"],
                 {"errors", "semirings", "trellis", "codes", "moments", "distributions"},
                 id="figures"),
]


@pytest.mark.parametrize("argv, modules", FOOTPRINTS)
def test_each_subcommand_imports_only_its_engines(spc4_file, tmp_path, argv, modules):
    import trelliskit

    received = tmp_path / "r.txt"
    labeled = tmp_path / "l.trellis"
    assert main(["label", "--trellis", spc4_file, "--channel", "bsc:0.2", "--received",
                 "seed:3", "--received-out", str(received), "--out", str(labeled)]) == 0
    paths = {"tmp": tmp_path, "spc4": spc4_file, "labeled": labeled, "received": received}
    run = "" if argv is None else "import trelliskit.cli; trelliskit.cli.main(sys.argv[1:]); "
    probe = (
        "import json, sys, trelliskit; " + run
        + "print(json.dumps([m for m in sys.modules if m.startswith('trelliskit.')]))"
    )
    src = os.path.dirname(os.path.dirname(trelliskit.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", probe, *(a.format(**paths) for a in argv or ())],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    loaded = set(json.loads(proc.stdout.splitlines()[-1])) - {"trelliskit.cli"}
    assert loaded == {f"trelliskit.{m}" for m in modules}


class TestBuildAndValidate:
    def test_round_trip(self, spc4_file, tmp_path):
        t = read_trellis(spc4_file)
        assert t.rank == 4 and len(t.edges) == 12
        again = tmp_path / "again.trellis"
        write_trellis(again, t)
        assert open(again).read() == open(spc4_file).read()

    def test_validate_ok(self, spc4_file, capsys):
        code, payload = run_json(capsys, ["validate", "--trellis", spc4_file])
        assert code == 0 and payload["valid"] is True

    def test_validate_reports_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.trellis"
        bad.write_text(
            "trellis rank=2\nv 0 depth=0\nv 1 depth=1\nv 2 depth=2\n"
            "v 3 depth=1\ne 0 0 1 lambda=1.0 clabel=1.0\n"
            "e 1 1 2 lambda=1.0 clabel=1.0\n"
        )
        code, payload = run_json(capsys, ["validate", "--trellis", str(bad)])
        assert code == 1 and payload["valid"] is False
        assert any(v["code"] == "unreachable-vertex" for v in payload["violations"])

    def test_build_conv(self, tmp_path):
        out = tmp_path / "conv.trellis"
        assert (
            main(
                [
                    "build-code",
                    "--conv",
                    "7,5",
                    "--info-len",
                    "2",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert read_trellis(out).rank == 8

    def test_conv_requires_info_len(self, tmp_path, capsys):
        code = main(
            ["build-code", "--conv", "7,5", "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "info-len" in capsys.readouterr().err

    def test_missing_file_is_domain_error(self, capsys):
        assert main(["validate", "--trellis", "/nonexistent/x.trellis"]) == 1
        assert "error:" in capsys.readouterr().err


class TestMoments:
    def test_reference_values(self, spc4_file, capsys):
        code, payload = run_json(
            capsys,
            [
                "moments",
                "--trellis",
                spc4_file,
                "--g",
                "clabel",
                "--max-order",
                "2",
                "--semiring",
                "real",
            ],
        )
        assert code == 0
        assert payload["numerators"] == [8.0, 0.0, 32.0]
        assert payload["normalized"] == [1.0, 0.0, 4.0]

    def test_tropical_viterbi_metric(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        t = build_spc_trellis(5).relabeled(lambda e: float(rng.uniform(0, 9)))
        path = tmp_path / "metrics.trellis"
        write_trellis(path, t)
        code, payload = run_json(
            capsys,
            [
                "moments",
                "--trellis",
                str(path),
                "--g",
                "clabel",
                "--max-order",
                "0",
                "--semiring",
                "tropical",
            ],
        )
        assert code == 0
        from trelliskit.oracles import oracle_min_path_metric

        assert payload["numerators"][0] == oracle_min_path_metric(t)

    def test_symbol_moments_and_ops(self, spc4_file, capsys):
        code, payload = run_json(
            capsys,
            [
                "moments",
                "--trellis",
                spc4_file,
                "--g",
                "clabel",
                "--max-order",
                "1",
                "--symbol-depth",
                "1",
                "--symbol-value",
                "1",
                "--count-ops",
            ],
        )
        assert code == 0
        assert payload["symbol"] == {"depth": 1, "value": 1.0}
        assert payload["numerators"][0] == 4.0
        assert payload["op_counts"]["multiplications"] == 5 * 12

    @pytest.mark.parametrize(
        "constraint",
        [
            [],
            ["--symbol-depth", "2", "--symbol-value", "1"],
            ["--symbol-depth", "2", "--symbol-value", "7"],
        ],
        ids=["trellis", "symbol", "missing-symbol"],
    )
    def test_boolean_prints_json_booleans(self, spc4_file, capsys, constraint):
        """Array results leave the engines as Python values: a boolean
        numerator prints as JSON true/false, never as a numpy bool."""
        code, payload = run_json(
            capsys,
            ["moments", "--trellis", spc4_file, "--g", "clabel", "--max-order", "1",
             "--semiring", "boolean", *constraint],
        )
        assert code == 0
        reachable = constraint[-1:] != ["7"]
        assert payload["numerators"] == [reachable, reachable]
        assert all(type(x) is bool for x in payload["numerators"])
        assert payload["normalized"] is None

    def test_tropical_symbol_prints_floats(self, spc4_file, capsys):
        code, payload = run_json(
            capsys,
            ["moments", "--trellis", spc4_file, "--g", "clabel", "--max-order", "2",
             "--semiring", "tropical", "--symbol-depth", "1", "--symbol-value", "-1"],
        )
        assert code == 0
        # Min-plus: min over paths with c1 = -1 of (sum of the four unit
        # labels) + m * (min c-label on the path), which is -1.
        assert payload["numerators"] == [4.0, 3.0, 2.0]
        assert all(type(x) is float for x in payload["numerators"])

    def test_non_finite_numerators_print_as_strings(self, tmp_path, capsys):
        """No path has c-label 5 at depth 1, so every min-plus numerator
        is the semiring zero, inf, written as the string "inf"."""
        path = tmp_path / "conv.trellis"
        assert main(["build-code", "--conv", "7,5", "--info-len", "3", "--out", str(path)]) == 0
        code, payload = run_json(
            capsys,
            ["moments", "--trellis", str(path), "--g", "clabel", "--max-order", "1",
             "--semiring", "tropical", "--symbol-depth", "1", "--symbol-value", "5"],
        )
        assert code == 0
        assert payload["numerators"] == ["inf", "inf"]

    def test_g_table_file(self, spc4_file, tmp_path, capsys):
        t = read_trellis(spc4_file)
        gpath = tmp_path / "g.table"
        write_g_table(gpath, DepthFunctionTable({e.id: 1.0 for e in t.edges}))
        code, payload = run_json(
            capsys,
            [
                "moments",
                "--trellis",
                spc4_file,
                "--g",
                str(gpath),
                "--max-order",
                "1",
            ],
        )
        assert code == 0
        assert payload["numerators"] == [8.0, 32.0]  # f(P) = 4 on every path

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_g_table_is_domain_error(self, spc4_file, tmp_path, capsys, bad):
        t = read_trellis(spc4_file)
        gpath = tmp_path / "g.table"
        lines = [f"g {e.id} 1.0\n" for e in t.edges]
        lines[0] = f"g {t.edges[0].id} {bad}\n"
        gpath.write_text("".join(lines))
        code = main(
            ["moments", "--trellis", spc4_file, "--g", str(gpath), "--max-order", "2"]
        )
        assert code == 1
        assert "line 1" in capsys.readouterr().err

    def test_oracle_flag(self, spc4_file, capsys):
        code, payload = run_json(
            capsys,
            [
                "moments",
                "--trellis",
                spc4_file,
                "--g",
                "clabel",
                "--max-order",
                "3",
                "--oracle",
            ],
        )
        assert code == 0
        assert payload["oracle"]["max_relative_error"] <= 1e-9

    def test_oracle_cap_env(self, spc4_file, capsys, monkeypatch):
        monkeypatch.setenv("TRELLIS_PATH_CAP", "2")
        code = main(
            [
                "moments",
                "--trellis",
                spc4_file,
                "--g",
                "clabel",
                "--max-order",
                "0",
                "--oracle",
            ]
        )
        assert code == 1
        assert "paths" in capsys.readouterr().err

    def test_usage_error_exit_2(self, spc4_file):
        with pytest.raises(SystemExit) as err:
            main(["moments", "--trellis", spc4_file])
        assert err.value.code == 2


class TestDistribution:
    def test_exact_csv(self, spc4_file, tmp_path, capsys):
        out = tmp_path / "dist.csv"
        code = main(
            [
                "distribution",
                "--trellis",
                spc4_file,
                "--g",
                "clabel",
                "--mode",
                "exact",
                "--cut",
                "2",
                "--out",
                str(out),
                "--oracle",
            ]
        )
        assert code == 0
        summary = strict_json(capsys.readouterr().out)
        assert summary["mode"] == "exact"
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "domain_value,mass,normalized_mass,gaussian_approx"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[0]) for r in rows] == [-4.0, -2.0, 0.0, 2.0, 4.0]
        assert [float(r[1]) for r in rows] == [1.0, 0.0, 6.0, 0.0, 1.0]
        assert_close(sum(float(r[2]) for r in rows), 1.0, 1e-12)

    def test_gaussian_matches_engine_moments(self, spc4_file, tmp_path):
        out = tmp_path / "dist.csv"
        main(
            [
                "distribution",
                "--trellis",
                spc4_file,
                "--g",
                "clabel",
                "--mode",
                "exact",
                "--out",
                str(out),
            ]
        )
        rows = [
            line.split(",")
            for line in out.read_text().strip().splitlines()[1:]
        ]
        values = np.array([float(r[0]) for r in rows])
        gauss = np.array([float(r[3]) for r in rows])
        # matched Gaussian has mean 0 and variance 4 here
        assert_close(float((values * gauss).sum()), 0.0, 1e-9)

    @pytest.mark.parametrize("mode", ["exact", "quantized"])
    def test_overflowing_mass_prints_as_a_string(self, spc4_file, tmp_path, capsys, mode):
        """Labels of 1e300 overflow the total mass to inf, which the
        summary writes as the string "inf"."""
        path = tmp_path / "big.trellis"
        write_trellis(path, read_trellis(spc4_file).relabeled(lambda e: 1e300))
        argv = ["distribution", "--trellis", str(path), "--g", "clabel",
                "--mode", mode, "--out", str(tmp_path / "d.csv")]
        code, summary = run_json(capsys, argv)
        assert code == 0
        assert summary["total_mass"] == "inf"

    def test_exact_forbids_quantization_flags(self, spc4_file, tmp_path, capsys):
        code = main(
            [
                "distribution",
                "--trellis",
                spc4_file,
                "--g",
                "clabel",
                "--mode",
                "exact",
                "--bins",
                "8",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("cut", ["0", "2", "99"])
    def test_cut_with_a_symbol_is_a_usage_error(self, spc4_file, tmp_path, capsys, cut):
        """A symbol distribution has no cut: --cut beside a constraint,
        in range or not, is refused rather than ignored."""
        argv = ["distribution", "--trellis", spc4_file, "--g", "clabel", "--cut", cut,
                "--symbol-depth", "2", "--symbol-value", "1", "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "usage error: --cut applies to the whole-trellis distribution only\n"
        )

    def test_cut_out_of_range_is_reported(self, spc4_file, tmp_path, capsys):
        argv = ["distribution", "--trellis", spc4_file, "--g", "clabel", "--cut", "99",
                "--out", str(tmp_path / "c.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: cut depth 99 outside 0..4\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("width", ["nan", "inf", "0"])
    def test_quantized_width_must_be_finite_and_positive(self, spc4_file, tmp_path, capsys, width):
        argv = ["distribution", "--trellis", spc4_file, "--g", "clabel", "--mode", "quantized"]
        code = main(argv + ["--width", width, "--out", str(tmp_path / "q.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: bin width must be a finite positive number, got {float(width)}" in err

    def test_quantized_mode(self, spc4_file, tmp_path):
        out = tmp_path / "q.csv"
        code = main(
            [
                "distribution",
                "--trellis",
                spc4_file,
                "--g",
                "clabel",
                "--mode",
                "quantized",
                "--bins",
                "4",
                "--width",
                "2.0",
                "--cut",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = [
            line.split(",")
            for line in out.read_text().strip().splitlines()[1:]
        ]
        masses = {float(r[0]): float(r[1]) for r in rows if float(r[1]) != 0.0}
        assert masses == {-4.0: 1.0, 0.0: 6.0, 4.0: 1.0}

    @pytest.mark.parametrize("bins", [[], ["--bins", "8"]])
    def test_quantized_pair_sizes_bins_once(
        self, spc4_file, tmp_path, capsys, monkeypatch, bins
    ):
        """Without --width both sweeps size the bins from one order-2
        forward sweep, which the trellis keeps, and get one width."""
        sweeps = order2_forward_sweeps(monkeypatch)
        widths = []
        resolve = distributions._resolve_bin_width

        def sized(*args):
            widths.append(resolve(*args))
            return widths[-1]

        monkeypatch.setattr(distributions, "_resolve_bin_width", sized)
        code = main(
            [
                "distribution",
                "--trellis",
                spc4_file,
                "--g",
                "clabel",
                "--mode",
                "quantized",
                *bins,
                "--out",
                str(tmp_path / "q.csv"),
            ]
        )
        assert code == 0
        summary = strict_json(capsys.readouterr().out)
        assert summary["mode"] == "quantized"
        assert sweeps() == 1
        assert [w.hex() for w in widths] == [summary["bin_width"].hex()] * 2

    def test_auto_mode_reports_quantized_for_soft_g(
        self, spc4_file, tmp_path, capsys
    ):
        t = read_trellis(spc4_file)
        rng = np.random.default_rng(17)
        gpath = tmp_path / "soft.table"
        write_g_table(
            gpath,
            DepthFunctionTable(
                {e.id: float(rng.uniform(-2, 2)) for e in t.edges}
            ),
        )
        out = tmp_path / "q.csv"
        code = main(
            [
                "distribution",
                "--trellis",
                spc4_file,
                "--g",
                str(gpath),
                "--mode",
                "auto",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        summary = strict_json(capsys.readouterr().out)
        assert summary["mode"] == "quantized"
        assert summary["half_bins"] == 32

    @pytest.mark.parametrize(
        "flags",
        [
            ["--mode", "quantized"],
            ["--mode", "quantized", "--bins", "8"],
            ["--mode", "quantized", "--width", "0.5"],
            ["--mode", "auto"],
            ["--mode", "exact"],
        ],
    )
    @pytest.mark.parametrize(
        "symbol", [[], ["--symbol-depth", "2", "--symbol-value", "-1"]]
    )
    def test_one_order2_forward_sweep(
        self, spc4_file, tmp_path, capsys, monkeypatch, flags, symbol
    ):
        """The bin sizings and the Gaussian reference read one order-2
        forward sweep, which the trellis keeps, so a run makes one such
        sweep in all."""
        sweeps = order2_forward_sweeps(monkeypatch)
        argv = ["distribution", "--trellis", spc4_file, "--g", "clabel"]
        code = main([*argv, *flags, *symbol, "--out", str(tmp_path / "d.csv")])
        assert code == 0
        capsys.readouterr()
        assert sweeps() == 1

    def test_symbol_distribution_csv(self, spc4_file, tmp_path):
        out = tmp_path / "sym.csv"
        code = main(
            [
                "distribution",
                "--trellis",
                spc4_file,
                "--g",
                "clabel",
                "--mode",
                "exact",
                "--symbol-depth",
                "1",
                "--symbol-value",
                "1",
                "--out",
                str(out),
                "--oracle",
            ]
        )
        assert code == 0


class TestLabelAndEntropy:
    def test_label_with_file(self, spc4_file, tmp_path):
        r = tmp_path / "r.txt"
        r.write_text("1.0\n-1.0\n1.0\n1.0\n")
        out = tmp_path / "labeled.trellis"
        code = main(
            [
                "label",
                "--trellis",
                spc4_file,
                "--channel",
                "bsc:0.35",
                "--received",
                str(r),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        t = read_trellis(out)
        assert {e.lam for e in t.edges} == {0.35, 0.65}

    def test_label_seeded_writes_received(self, spc4_file, tmp_path):
        out = tmp_path / "labeled.trellis"
        rout = tmp_path / "r.txt"
        code = main(
            [
                "label",
                "--trellis",
                spc4_file,
                "--channel",
                "bsc:0.35",
                "--received",
                "seed:11",
                "--received-out",
                str(rout),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        values = [float(x) for x in rout.read_text().split()]
        assert len(values) == 4 and all(v in (-1.0, 1.0) for v in values)

    def test_label_seeded_requires_received_out(self, spc4_file, tmp_path, capsys):
        code = main(
            [
                "label",
                "--trellis",
                spc4_file,
                "--channel",
                "bsc:0.35",
                "--received",
                "seed:11",
                "--out",
                str(tmp_path / "x.trellis"),
            ]
        )
        assert code == 1

    def test_entropy_against_oracle(self, spc4_file, tmp_path, capsys):
        r = tmp_path / "r.txt"
        r.write_text("1.0\n-1.0\n1.0\n-1.0\n")
        code, payload = run_json(
            capsys,
            [
                "entropy",
                "--trellis",
                spc4_file,
                "--channel",
                "bsc:0.35",
                "--received",
                str(r),
            ],
        )
        assert code == 0
        from trelliskit.oracles import oracle_posterior_entropy, trellis_codewords

        words = trellis_codewords(read_trellis(spc4_file))
        direct = oracle_posterior_entropy(
            words, "bsc", 0.35, [1.0, -1.0, 1.0, -1.0]
        )
        assert_close(payload["entropy_bits"], direct, 1e-9)

    def test_degenerate_channel_domain_error(self, spc4_file, tmp_path, capsys):
        r = tmp_path / "r.txt"
        r.write_text("1.0\n1.0\n1.0\n1.0\n")
        code = main(
            [
                "entropy",
                "--trellis",
                spc4_file,
                "--channel",
                "bsc:0.5",
                "--received",
                str(r),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestFigures:
    def test_figure_one_artifacts(self, tmp_path):
        out = tmp_path / "figs"
        code = main(
            [
                "figures",
                "--which",
                "1",
                "--seed",
                "7",
                "--info-len",
                "8",
                "--symbol-depth",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        meta = strict_json((out / "fig1_meta.json").read_text())
        assert meta["seed"] == 7
        assert_close(meta["prob_plus"] + meta["prob_minus"], 1.0, 1e-9)

    def test_figure_three_gaussian_columns(self, tmp_path):
        out = tmp_path / "figs"
        code = main(
            [
                "figures",
                "--which",
                "3",
                "--seed",
                "7",
                "--info-len",
                "8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "fig3.csv").read_text().strip().splitlines()
        assert lines[0] == "domain_value,mass,normalized_mass,gaussian_approx"

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert (
                main(
                    [
                        "figures",
                        "--which",
                        "3",
                        "--seed",
                        "13",
                        "--info-len",
                        "6",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
        assert (a / "fig3.csv").read_bytes() == (b / "fig3.csv").read_bytes()
        assert (a / "fig3_meta.json").read_bytes() == (
            b / "fig3_meta.json"
        ).read_bytes()


BOUNDARY_ERRORS = [
    pytest.param(
        ["moments", "--g", "clabel", "--max-order", "1", "--symbol-depth", "1"],
        "--symbol-depth and --symbol-value must be given together",
        id="symbol depth without a value",
    ),
    pytest.param(
        ["label", "--channel", "bsc:0.1", "--received", "seed:x", "--received-out", "{tmp}/r.txt",
         "--out", "{tmp}/l.trellis"],
        "bad seed in 'seed:x'",
        id="seed that is not a number",
    ),
    pytest.param(
        ["moments", "--g", "clabel", "--max-order", "1", "--semiring", "tropical", "--count-ops"],
        "--count-ops supports the real semiring only",
        id="op counts in the tropical semiring",
    ),
    pytest.param(
        ["moments", "--g", "clabel", "--max-order", "1", "--semiring", "tropical", "--oracle"],
        "--oracle supports the real semiring only",
        id="oracle in the tropical semiring",
    ),
    pytest.param(
        ["distribution", "--g", "clabel", "--mode", "quantized", "--oracle", "--out", "{tmp}/d.csv"],
        "oracle verification compares lattice points and needs the exact mode",
        id="oracle on quantized bins",
    ),
]


@pytest.mark.parametrize("argv, message", BOUNDARY_ERRORS)
def test_boundary_errors(spc4_file, tmp_path, capsys, argv, message):
    """Domain errors exit 1 and name the problem on stderr."""
    command, *rest = argv
    assert main([command, "--trellis", spc4_file, *(a.format(tmp=tmp_path) for a in rest)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_received_word_that_is_not_finite_is_a_boundary_error(tmp_path, capsys):
    """``label`` over AWGN reads the received word at the boundary: an
    inf value exits 1 with an ``error:`` line naming its line, and no
    labelled trellis (it used to write lambda=0.0 on that section)."""
    code, received, out = tmp_path / "code.trellis", tmp_path / "r.txt", tmp_path / "l.trellis"
    assert main(["build-code", "--conv", "7,5", "--info-len", "3", "--out", str(code)]) == 0
    rank = read_trellis(code).rank
    received.write_text("1.0\n" * (rank - 1) + "inf\n")
    capsys.readouterr()
    argv = ["label", "--trellis", str(code), "--channel", "awgn:0.5", "--received", str(received)]
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: line {rank}: non-finite received value inf\n"
    assert "Traceback" not in err and not out.exists()


def _awgn75_sweep(half_bins):
    """A quantized forward sweep with ``half_bins`` of [7,5] K=4 labelled
    over AWGN sigma2=0.5 from seed 1, with g = c.r."""
    code = codes.build_conv_trellis((7, 5), 4)
    _, received = codes.make_received(code, codes.Awgn(0.5), 1)
    labeled = codes.channel_lambda_labels(code, codes.Awgn(0.5), received)
    g = codes.correlation_g_table(labeled, received)
    params = distributions.QuantizationParams(half_bins=half_bins)
    return distributions.forward_distributions(labeled, g, "quantized", params)


_QUANTIZED = ["distribution", "--trellis", "{labeled}", "--g", "clabel", "--mode", "quantized",
              "--out", "{tmp}/d.csv"]
BELOW_RANGE = [
    pytest.param(lambda: _awgn75_sweep(0), [*_QUANTIZED, "--bins", "0"], id="zero bins"),
    pytest.param(lambda: distributions.QuantizationParams(-1),
                 [*_QUANTIZED, "--bins", "-1"], id="negative bins"),
    pytest.param(lambda: distributions.QuantizationParams(-3, 0.5),
                 [*_QUANTIZED, "--bins", "-3", "--width", "0.5"], id="negative bins with a width"),
    pytest.param(lambda: distributions.QuantizedDistribution.dirac(-3, 0.5), None,
                 id="point mass with negative bins"),
    pytest.param(lambda: distributions.QuantizationParams(2.5), None, id="fractional bins"),
    pytest.param(lambda: codes.make_received(codes.build_conv_trellis((7, 5), 4),
                                             codes.Awgn(0.5), -5),
                 ["label", "--trellis", "{code}", "--channel", "awgn:0.5", "--received",
                  "seed:-5", "--received-out", "{tmp}/r.txt", "--out", "{tmp}/l.trellis"],
                 id="negative seed"),
    pytest.param(lambda: codes.correlation_symbol_curves((5, 7), 4, 0.1, 2, -1),
                 ["figures", "--which", "1", "--info-len", "4", "--seed", "-1",
                  "--out", "{tmp}/figs"], id="negative figure seed"),
]


@pytest.mark.parametrize("call, argv", BELOW_RANGE)
def test_bin_counts_and_seeds_below_range_are_typed_errors(tmp_path, capsys, call, argv):
    """A bin count below 1 or not whole, and a negative seed, raise a
    TrelliskitError in the library, and the CLI reports them on stderr
    with exit 1 instead of a traceback."""
    with pytest.raises(TrelliskitError):
        call()
    if argv is None:
        return
    paths = {"tmp": tmp_path, "code": tmp_path / "code.trellis", "labeled": tmp_path / "l.trellis"}
    assert main(["build-code", "--conv", "7,5", "--info-len", "4", "--out", str(paths["code"])]) == 0
    assert main(["label", "--trellis", str(paths["code"]), "--channel", "awgn:0.5", "--received",
                 "seed:1", "--received-out", str(tmp_path / "r.txt"),
                 "--out", str(paths["labeled"])]) == 0
    capsys.readouterr()
    assert main([a.format(**paths) for a in argv]) == 1
    assert capsys.readouterr().err.startswith("error:")


def _csv_rows(path):
    return [list(map(float, line.split(","))) for line in path.read_text().splitlines()[1:]]


def test_entropy_of_a_subcode_matches_the_library(spc4_file, tmp_path, capsys):
    """entropy --symbol-depth/--symbol-value prints the subcode's entropy
    and first moment bit for bit as conditional_entropy_detail gives
    them, and the constraint under "symbol"."""
    received = [1.0, -1.0, 1.0, -1.0]
    (tmp_path / "r.txt").write_text("".join(f"{x!r}\n" for x in received))
    code, payload = run_json(capsys, [
        "entropy", "--trellis", spc4_file, "--channel", "bsc:0.35", "--received",
        str(tmp_path / "r.txt"), "--symbol-depth", "2", "--symbol-value", "-1",
    ])
    assert code == 0
    channel = codes.parse_channel("bsc:0.35")
    labeled = codes.channel_lambda_labels(read_trellis(spc4_file), channel, received)
    detail = codes.conditional_entropy_detail(labeled, channel, received, (2, -1.0))
    assert payload["symbol"] == {"depth": 2, "value": -1.0}
    assert payload["entropy_bits"] == detail.entropy_bits
    assert payload["first_moment"] == detail.first_moment


@pytest.mark.parametrize("mode", ["auto", "quantized"])
def test_symbol_no_edge_carries_has_zero_columns(spc4_file, tmp_path, mode):
    """No section-2 edge of SPC(4) carries c-label 3, so the subcode has
    no flow: every mass and the whole Gaussian column are 0."""
    out = tmp_path / "d.csv"
    assert main(["distribution", "--trellis", spc4_file, "--g", "clabel", "--mode", mode,
                 "--symbol-depth", "2", "--symbol-value", "3", "--out", str(out)]) == 0
    rows = _csv_rows(out)
    assert rows and all(row[1:] == [0.0, 0.0, 0.0] for row in rows)


@pytest.mark.parametrize("symbol", [[], ["--symbol-depth", "3", "--symbol-value", "1"]])
def test_negative_flow_has_a_zero_gaussian(spc4_file, tmp_path, symbol):
    """With the section-1 labels negated every path label, and so the
    flow, is negative: the Gaussian reference is all 0."""
    path, out = tmp_path / "neg.trellis", tmp_path / "d.csv"
    t = read_trellis(spc4_file)
    write_trellis(path, t.relabeled(lambda e: -1.0 if e.init == t.source else 1.0))
    assert main(["distribution", "--trellis", str(path), "--g", "clabel", *symbol,
                 "--out", str(out)]) == 0
    rows = _csv_rows(out)
    assert any(row[1] < 0 for row in rows)
    assert all(row[3] == 0.0 for row in rows)


@pytest.mark.parametrize("flags", [
    pytest.param(["--g", "clabel", "--mode", "exact"], id="exact"),
    pytest.param(["--g", "{g}", "--mode", "quantized"], id="quantized, sized bins"),
    pytest.param(["--g", "{g}", "--mode", "quantized", "--width", "0.5"],
                 id="quantized, given width"),
])
def test_constrained_gaussian_is_the_symbol_moments_pair(tmp_path, capsys, flags):
    """Under a constraint the Gaussian column is gaussian_lattice_mass of
    the order-2 forward/backward pair's symbol moments, bit for bit, as
    `moments --symbol-depth` gives them; [7,5] K=6 over AWGN
    sigma2=0.5, seed 3, with g the c-labels or c.r."""
    code = codes.build_conv_trellis((7, 5), 6)
    _, received = codes.make_received(code, codes.Awgn(0.5), 3)
    labeled = codes.channel_lambda_labels(code, codes.Awgn(0.5), received)
    paths = {"t": tmp_path / "l.trellis", "g": tmp_path / "g.table", "out": tmp_path / "d.csv"}
    write_trellis(paths["t"], labeled)
    write_g_table(paths["g"], codes.correlation_g_table(labeled, received))
    argv = ["distribution", "--trellis", str(paths["t"]), *(f.format(**paths) for f in flags),
            "--symbol-depth", "5", "--symbol-value", "-1", "--out", str(paths["out"])]
    assert main(argv) == 0
    summary = strict_json(capsys.readouterr().out)
    t = read_trellis(paths["t"])
    g = DepthFunctionTable.from_clabels(t) if "clabel" in flags else read_g_table(paths["g"], t)
    pair = [sweep(t, g, 2) for sweep in (moments.forward_numerators, moments.backward_numerators)]
    _, mean, second = moments.symbol_moments(t, g, *pair, 5, -1.0).normalized
    if summary["mode"] == "exact":
        step = distributions.lattice_step(t, g)
    else:
        step = summary["bin_width"]
    rows = _csv_rows(paths["out"])
    want = distributions.gaussian_lattice_mass([r[0] for r in rows], step, mean, second - mean**2)
    assert [r[3] for r in rows] == want
    assert 0.5 < sum(want) <= 1.0 + 1e-9


@pytest.mark.parametrize("argv", [
    pytest.param(["--which", "1", "--seed", "-1"], id="negative seed"),
    pytest.param(["--which", "1", "--seed", "1", "--symbol-depth", "500"],
                 id="depth past the last section"),
    pytest.param(["--which", "3", "--seed", "1", "--cut", "500"], id="cut past the sink"),
])
def test_failed_figures_leave_no_out_directory(tmp_path, capsys, argv):
    """The dataset is built before --out is made, so a run that fails
    exits 1 and leaves no directory behind."""
    out = tmp_path / "figs"
    assert main(["figures", "--info-len", "4", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["figures", "--which", "1", "--seed", "1", "--cut", "3", "--out", "{tmp}/figs"],
                 id="cut on figure 1"),
    pytest.param(["figures", "--which", "3", "--seed", "1", "--symbol-depth", "5",
                  "--out", "{tmp}/figs"], id="symbol depth on figure 3"),
    pytest.param(["label", "--trellis", "{code}", "--channel", "bsc:0.1",
                  "--received", "{tmp}/r.txt", "--received-out", "{tmp}/x.txt",
                  "--out", "{tmp}/l.trellis"],
                 id="received-out beside a received-word file"),
])
def test_flags_that_do_not_apply_are_usage_errors(spc4_file, tmp_path, capsys, argv):
    """A flag the run would ignore exits 2 with a usage error, and the
    run writes nothing."""
    (tmp_path / "r.txt").write_text("1.0\n-1.0\n1.0\n-1.0\n")
    before = set(tmp_path.iterdir())
    assert main([a.format(tmp=tmp_path, code=spc4_file) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("usage error:")
    assert set(tmp_path.iterdir()) == before


def test_figure_one_depth_defaults_to_10(tmp_path):
    assert main(["figures", "--which", "1", "--seed", "1", "--out", str(tmp_path)]) == 0
    assert strict_json((tmp_path / "fig1_meta.json").read_text())["symbol_depth"] == 10


@pytest.mark.parametrize("out", [True, False], ids=["--out", "stdout"])
def test_moments_oracle_mismatch_exits_1_and_still_writes_json(
    spc4_file, tmp_path, capsys, monkeypatch, out
):
    from trelliskit import oracles

    oracle_moment = oracles.oracle_moment
    monkeypatch.setattr(oracles, "oracle_moment", lambda *args: 1.5 * oracle_moment(*args))
    path = tmp_path / "m.json"
    argv = ["moments", "--trellis", spc4_file, "--g", "clabel", "--max-order", "2", "--oracle"]
    assert main([*argv, *(["--out", str(path)] if out else [])]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: oracle cross-check failed: relative error ")
    payload = strict_json(path.read_text() if out else captured.out)
    assert payload["oracle"]["max_relative_error"] == pytest.approx(1 / 3)


@pytest.mark.parametrize("corrupt, message", [
    pytest.param(lambda points: [(0.5, 1.0), *points], "no mass near 0.5", id="missing point"),
    pytest.param(lambda points: [(v, 2.0 * w) for v, w in points], "relative error 5.000e-01",
                 id="mass mismatch"),
    pytest.param(lambda points: points[1:], "unmatched mass", id="unmatched mass"),
])
def test_distribution_oracle_mismatch_exits_1(
    spc4_file, tmp_path, capsys, monkeypatch, corrupt, message
):
    from trelliskit import oracles

    oracle_distribution = oracles.oracle_distribution
    monkeypatch.setattr(oracles, "oracle_distribution", lambda *args: oracles.OracleDistribution(
        tuple(corrupt(list(oracle_distribution(*args).points)))))
    argv = ["distribution", "--trellis", spc4_file, "--g", "clabel", "--mode", "exact"]
    assert main([*argv, "--oracle", "--out", str(tmp_path / "d.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: oracle cross-check failed: ") and message in err
