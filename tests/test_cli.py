import json
import os
import subprocess
import sys

import numpy as np
import pytest

from trelliskit import build_spc_trellis, distributions, moments, read_trellis, write_g_table
from trelliskit.cli import main
from trelliskit.trellis import DepthFunctionTable, write_trellis

from conftest import assert_close


@pytest.fixture()
def spc4_file(tmp_path):
    path = tmp_path / "spc4.trellis"
    assert main(["build-code", "--spc", "4", "--out", str(path)]) == 0
    return str(path)


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
        """Without --width the forward sweep sizes the bins with one
        order-2 sweep, and the backward sweep reuses its width."""
        sizing = []
        numerators = distributions.forward_numerators

        def counted(trellis, g, max_order, *args):
            if max_order == 2:
                sizing.append(max_order)
            return numerators(trellis, g, max_order, *args)

        monkeypatch.setattr(distributions, "forward_numerators", counted)
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
        assert len(sizing) == 1

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
        """The Gaussian reference reuses the order-2 forward sweep that
        sized the bins, so a run makes one such sweep in all, counted
        across the moments and distributions modules."""
        sweeps = []
        for module in (moments, distributions):
            numerators = module.forward_numerators

            def counted(trellis, g, max_order, *args, numerators=numerators):
                if max_order == 2:
                    sweeps.append(max_order)
                return numerators(trellis, g, max_order, *args)

            monkeypatch.setattr(module, "forward_numerators", counted)
        argv = ["distribution", "--trellis", spc4_file, "--g", "clabel"]
        code = main([*argv, *flags, *symbol, "--out", str(tmp_path / "d.csv")])
        assert code == 0
        capsys.readouterr()
        assert len(sweeps) == 1

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
