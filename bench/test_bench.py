"""Tests of the benchmark itself: op code at tiny sizes against the
brute-force oracles, determinism, the metric names and the checkout guard.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import workloads as W  # noqa: E402
from trelliskit import build_conv_trellis, trellis as tg  # noqa: E402
from trelliskit.codes import Awgn, Bsc  # noqa: E402
from trelliskit.data import bundled_trellis  # noqa: E402
from trelliskit.oracles import (  # noqa: E402
    oracle_correlation_moment,
    oracle_distribution,
    oracle_flow,
    oracle_posterior_entropy,
    trellis_codewords,
    word_likelihood,
)

TOL = 1e-9


def close(a, b, tol=TOL):
    """Relative agreement with a unit floor, for values of order one or more."""
    return W.rel_err(a, b) <= tol


def same_mass(dist, oracle):
    """An exact distribution equals the oracle histogram point by point."""
    engine = {v: w for v, w in zip(dist.values(), dist.mass) if w != 0.0}
    expected = oracle.as_dict()
    assert len(engine) == len(expected)
    for value, weight in expected.items():
        hit = min(engine, key=lambda v: abs(v - value))
        assert abs(hit - value) <= 1e-9 and W.same_flow(engine[hit], weight), (value, weight)


def tiny_word(code, kind, param, seed):
    """A noisy copy of a seeded codeword of ``code`` and that codeword list."""
    words = trellis_codewords(code)
    rng = np.random.default_rng(seed)
    c = np.array(words[int(rng.integers(len(words)))])
    if kind == "bsc":
        return [float(x) for x in np.where(rng.random(c.size) < param, -c, c)], words
    return [float(x) for x in c + rng.normal(0.0, math.sqrt(param), c.size)], words


TINY = [
    ("conv75_k4", lambda: build_conv_trellis((0o7, 0o5), 4), 4, 10),
    ("spc4", lambda: bundled_trellis("spc4"), 3, 2),
]


@pytest.mark.parametrize("name,make,info_bits,depth", TINY)
@pytest.mark.parametrize("p", [0.05, 0.3])
def test_bsc_op_matches_oracles(name, make, info_bits, depth, p):
    code = make()
    word, words = tiny_word(code, "bsc", p, seed=len(name))
    r = W.op_bsc(code, Bsc(p), word, depth, W.plain_call)
    W.check_bsc(r, info_bits, depth)

    lab = r["labeled"]
    assert close(r["entropy"], oracle_posterior_entropy(words, "bsc", p, word))
    for m in range(3):
        assert close(r["correlation"][m], oracle_correlation_moment(words, "bsc", p, word, word, m))
    flow = oracle_flow(lab)
    assert W.same_flow(r["flow"], flow)
    for d in range(1, lab.rank + 1):
        for s in (1.0, -1.0):
            expected = sum(_likelihoods(words, "bsc", p, word, d, s))
            assert abs(r["posteriors"][(d, s)] / r["flow"] - expected / flow) <= TOL
    same_mass(r["cut"], oracle_distribution(lab, r["g"]))
    same_mass(r["symbol"], oracle_distribution(lab, r["g"], (depth, 1.0)))


def _likelihoods(words, kind, param, word, depth, symbol):
    """Likelihoods of the codewords whose symbol at ``depth`` is ``symbol``."""
    return [word_likelihood(kind, param, word, c) for c in words if c[depth - 1] == symbol]


@pytest.mark.parametrize("name,make,info_bits,depth", TINY)
@pytest.mark.parametrize("sigma2", [0.5, 1.0])
def test_awgn_op_matches_oracles(name, make, info_bits, depth, sigma2):
    code = make()
    word, words = tiny_word(code, "awgn", sigma2, seed=len(name))
    r = W.op_awgn(code, Awgn(sigma2), word, depth, W.plain_call)
    W.check_awgn(r, info_bits, depth)

    assert close(
        r["entropy"],
        oracle_posterior_entropy(words, "awgn", sigma2, word, (depth, 1.0)),
    )
    for m in range(5):
        assert close(r["correlation"][m], oracle_correlation_moment(words, "awgn", sigma2, word, word, m))
        assert close(
            r["correlation_minus"][m],
            oracle_correlation_moment(words, "awgn", sigma2, word, word, m, (depth, -1.0)),
        )
    flow = oracle_flow(r["labeled"])
    assert W.same_flow(math.exp(r["log_flow"]), flow)
    assert W.same_flow(r["cut"].total(), flow)
    assert W.same_flow(r["symbol"].total(), sum(_likelihoods(words, "awgn", sigma2, word, depth, 1.0)))


def test_constrained_entropy_can_exceed_info_bits():
    """Why check_awgn bounds the constrained entropy by K - 1 - log2 P."""
    code = build_conv_trellis((0o7, 0o5), 4)
    words = trellis_codewords(code)
    word = [float(c) for c in words[0]]
    unlikely = -words[0][0]
    h = oracle_posterior_entropy(words, "awgn", 0.1, word, (1, unlikely))
    assert h > 4


def tiny_cli(work, seed):
    """The CLI workload's set-up and one op cycle at K=4, checked."""
    wl = dataclasses.replace(W.CLI_PAPER, info_len=4)
    work.mkdir()
    src = str(ROOT / "src")
    for _, argv in wl.setup_steps(seed):
        wl.run_cli(argv, str(work), src)
    outputs = {}
    for kind, argv in wl.ops(seed):
        outputs[kind] = wl.check(kind, wl.run_cli(argv, str(work), src), str(work))
    return wl, work, outputs


def test_cli_ops_match_oracles(tmp_path):
    wl, work, out = tiny_cli(tmp_path / "cli", seed=3)
    code = tg.read_trellis(work / "code.trellis")
    lab = tg.read_trellis(work / "labeled.trellis")
    received = tg.read_received(work / "r.txt")
    words = trellis_codewords(code)
    depth = wl.symbol_depth

    assert close(out["entropy"]["entropy_bits"], oracle_posterior_entropy(words, "bsc", 0.35, received))
    assert close(
        out["entropy_symbol"]["entropy_bits"],
        oracle_posterior_entropy(words, "bsc", 0.35, received, (depth, 1.0)),
    )
    g = tg.DepthFunctionTable.from_clabels(lab)
    total = oracle_distribution(lab, g, (depth, 1.0)).total()
    assert W.same_flow(out["moments"]["numerators"][0], total)
    csv = out["distribution"]["csv"]
    oracle = oracle_distribution(lab, g).as_dict()
    assert sum(w != 0.0 for w in csv["mass"]) == len(oracle)
    for value, weight in zip(csv["domain_value"], csv["mass"]):
        if weight != 0.0:
            assert W.same_flow(weight, oracle[value])


def test_same_seed_same_inputs_and_outputs(tmp_path):
    for wl in (W.WORDS_BSC75, W.WORDS_AWGN171):
        tiny = dataclasses.replace(wl, info_len=4, pool=4)
        code = tiny.build()
        first, again, other = tiny.inputs(5), tiny.inputs(5), tiny.inputs(6)
        assert [w for _, w in first] == [w for _, w in again]
        assert [w for _, w in first] != [w for _, w in other]
        for inp in first:
            a, b = tiny.op(code, inp), tiny.op(code, inp)
            for key in ("entropy", "correlation", "mode"):
                assert a[key] == b[key]
            assert a["cut"] == b["cut"] and a["symbol"] == b["symbol"]
            assert tg.dumps_trellis(a["labeled"]) == tg.dumps_trellis(b["labeled"])

    _, one, _ = tiny_cli(tmp_path / "one", seed=9)
    _, two, _ = tiny_cli(tmp_path / "two", seed=9)
    files = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
    assert files
    for f in files:
        assert (one / f).read_bytes() == (two / f).read_bytes(), f


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


def test_tail_has_ten_samples_beyond_it():
    xs = [float(i) for i in range(1, 101)]
    assert harness.tail(xs) == (90.0, 90)
    assert harness.tail(xs[:20]) == (10.0, 50)
    assert harness.tail(xs[:5]) == (5.0, 100)


def test_times_are_scaled_by_the_kernel_around_them():
    ref = harness.hostspeed.REFERENCE_S
    run = harness.Run(trace=False)
    # Iteration 0 on a host at reference speed, iteration 1 at half speed.
    run.kernel_s = [ref, ref, 3 * ref]
    run.setup = [(0, 0.1), (1, 0.2)]
    run.latencies, run.untraced_ops = [1.0, 2.0], [0, 1]
    run.iteration_s = [1.5, 3.0]
    metrics, wall = harness.end_to_end(run, cli=False)
    assert harness.speed_factors(run) == [1.0, 0.5]
    assert metrics["op_p50_s"] == 1.0 and metrics["setup_s"] == pytest.approx(0.1)
    assert metrics["ops_per_s"] == pytest.approx(2 / 3.0)
    assert wall["op_p50_s"] == 1.5 and wall["ops_per_s"] == pytest.approx(2 / 4.5)


def test_reference_kernel_does_not_use_the_library():
    source = (BENCH / "hostspeed.py").read_text()
    assert "import trelliskit" not in source and "from trelliskit" not in source


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "words-bsc75", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_one_short_run_prints_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "words-awgn171", "--seed", "2", "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = harness.PER_LAYER if trace else harness.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
