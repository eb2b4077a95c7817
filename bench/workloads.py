"""The benchmark's workloads: seeded inputs, one op each, and its checks.

An op is one closed-loop request: the next op starts only after the
previous one returns.  Every call an op makes into the library goes
through ``call(name, fn, *args)``, so the same op code runs untraced
(``plain_call``) and traced (``spans.Tracer.call``).  Checks run after an
op returns and compare results that different engines produce, so a
check does not depend on the engine being timed agreeing with itself.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from trelliskit import codes, distributions, moments, trellis as tg
from trelliskit.errors import LatticeError, TrelliskitError
from trelliskit.oracles import conv_encode

# Absolute and relative tolerance of every check.
TOL = 1e-9


class CheckFailed(Exception):
    """An op returned a result that breaks an identity it must satisfy."""


def plain_call(name: str, fn: Callable, *args, **kwargs):
    """Untraced call into the library."""
    return fn(*args, **kwargs)


def rel_err(a: float, b: float) -> float:
    """Relative error with a unit floor, for moments that may be near 0."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def same_flow(a: float, b: float) -> bool:
    """Purely relative agreement, for flows and masses far below 1."""
    return abs(a - b) <= TOL * max(abs(a), abs(b))


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def trellis_shape(t: tg.Trellis) -> dict:
    """|V|, |E|, rank and the largest section width (edges per section)."""
    width = [0] * (t.rank + 1)
    for e in t.edges:
        width[t.depth_of(e.init) + 1] += 1
    return {
        "vertices": len(t.vertices),
        "edges": len(t.edges),
        "rank": t.rank,
        "max_section_edges": max(width),
    }


def draw_word(
    rng: np.random.Generator,
    generators: Sequence[int],
    info_len: int,
    kind: str,
    param: float,
) -> list[float]:
    """Channel output for a uniformly drawn codeword of the terminated code."""
    bits = rng.integers(0, 2, size=info_len).tolist()
    c = np.array(conv_encode(generators, bits))
    if kind == "bsc":
        return [float(x) for x in np.where(rng.random(c.size) < param, -c, c)]
    return [float(x) for x in c + rng.normal(0.0, math.sqrt(param), c.size)]


def _own_label(e: tg.Edge) -> float:
    return e.lam


def _edges_at_all(t: tg.Trellis) -> None:
    for depth in range(1, t.rank + 1):
        t.edges_at(depth)


def trellis_probes(lab: tg.Trellis, g: tg.DepthFunctionTable, call) -> None:
    """Stage probes on one labelled trellis: parse, construct, validate,
    section scans and lattice detection, each timed by its own span."""
    call("trellis.validate", tg.validate, lab)
    call("trellis.relabeled", lab.relabeled, _own_label)
    text = tg.dumps_trellis(lab)
    call("trellis.loads_trellis", tg.loads_trellis, text)
    call("trellis.edges_at_all", _edges_at_all, lab)
    try:
        call("distributions.lattice_step", distributions.lattice_step, lab, g)
    except LatticeError:
        pass  # soft decisions have no lattice; the span still times the scan


# -- library workloads -------------------------------------------------------


def op_bsc(code: tg.Trellis, channel, word, depth: int, call) -> dict:
    """Hard-decision analysis of one word: entropy, moments, all symbol
    posteriors and the exact distribution of c.r."""
    lab = call("codes.channel_lambda_labels", codes.channel_lambda_labels, code, channel, word)
    entropy = call("codes.conditional_entropy", codes.conditional_entropy, lab, channel, word)
    corr = call("codes.correlation_moments", codes.correlation_moments, lab, word, 2)
    zero = call("trellis.DepthFunctionTable.constant", tg.DepthFunctionTable.constant, lab, 0.0)
    fwd = call("moments.forward_numerators", moments.forward_numerators, lab, zero, 0)
    bwd = call("moments.backward_numerators", moments.backward_numerators, lab, zero, 0)
    posteriors = {
        (d, s): call(
            "moments.symbol_moments", moments.symbol_moments, lab, zero, fwd, bwd, d, s
        ).numerators[0]
        for d in range(1, lab.rank + 1)
        for s in (1.0, -1.0)
    }
    g = call("codes.correlation_g_table", codes.correlation_g_table, lab, word)
    fd = call("distributions.forward_distributions", distributions.forward_distributions, lab, g, mode="exact")
    bd = call("distributions.backward_distributions", distributions.backward_distributions, lab, g, mode="exact")
    cut = call("distributions.trellis_distribution", distributions.trellis_distribution, fd, bd, lab.rank // 2)
    sym = call("distributions.symbol_distribution", distributions.symbol_distribution, lab, g, fd, bd, depth, 1.0)
    return {
        "labeled": lab,
        "g": g,
        "entropy": entropy,
        "correlation": corr,
        "flow": fwd.table[lab.sink][0],
        "posteriors": posteriors,
        "mode": fd.mode,
        "cut": cut,
        "symbol": sym,
    }


def check_bsc(r: dict, info_len: int, depth: int) -> None:
    flow = r["flow"]
    post = r["posteriors"]
    rank = r["labeled"].rank
    for d in range(1, rank + 1):
        total = (post[(d, 1.0)] + post[(d, -1.0)]) / flow
        require(abs(total - 1.0) <= TOL, f"P(+)+P(-) = {total!r} at depth {d}")
    cut = r["cut"]
    require(same_flow(cut.total(), flow), f"distribution mass {cut.total()!r} != flow {flow!r}")
    mean = cut.moment(1) / cut.total()
    require(
        rel_err(mean, r["correlation"][1]) <= TOL,
        f"distribution mean {mean!r} != first correlation moment {r['correlation'][1]!r}",
    )
    sym_mass = r["symbol"].total()
    require(
        same_flow(sym_mass, post[(depth, 1.0)]),
        f"symbol distribution mass {sym_mass!r} != symbol flow {post[(depth, 1.0)]!r}",
    )
    require(-TOL <= r["entropy"] <= info_len + TOL, f"entropy {r['entropy']!r} outside [0, {info_len}]")


def op_awgn(code: tg.Trellis, channel, word, depth: int, call) -> dict:
    """Soft-decision analysis of one word at order 4: constrained entropy,
    moments, a normalized sweep and quantized distributions of c.r."""
    lab = call("codes.channel_lambda_labels", codes.channel_lambda_labels, code, channel, word)
    entropy = call(
        "codes.conditional_entropy", codes.conditional_entropy, lab, channel, word, (depth, 1.0)
    )
    corr = call("codes.correlation_moments", codes.correlation_moments, lab, word, 4)
    corr_minus = call(
        "codes.correlation_moments", codes.correlation_moments, lab, word, 4, (depth, -1.0)
    )
    g = call("codes.correlation_g_table", codes.correlation_g_table, lab, word)
    norm = call("moments.normalized_states", moments.normalized_states, lab, g, 4, "backward")
    fd = call("distributions.forward_distributions", distributions.forward_distributions, lab, g, mode="auto")
    bd = call("distributions.backward_distributions", distributions.backward_distributions, lab, g, mode=fd.mode)
    cut = call("distributions.trellis_distribution", distributions.trellis_distribution, fd, bd, lab.rank // 2)
    sym = call("distributions.symbol_distribution", distributions.symbol_distribution, lab, g, fd, bd, depth, 1.0)
    return {
        "labeled": lab,
        "g": g,
        "entropy": entropy,
        "correlation": corr,
        "correlation_minus": corr_minus,
        "normalized_source": norm.normalized[lab.source],
        "log_flow": norm.log_flow[lab.source],
        "mode": fd.mode,
        "cut": cut,
        "symbol": sym,
    }


def check_awgn(r: dict, info_len: int, depth: int) -> None:
    for m, (a, b) in enumerate(zip(r["normalized_source"], r["correlation"])):
        require(rel_err(a, b) <= TOL, f"normalized moment {m}: {a!r} != {b!r}")
    require(r["mode"] == "quantized", f"distribution mode {r['mode']!r}, expected quantized")
    flow = math.exp(r["log_flow"])
    mass = r["cut"].total()
    require(same_flow(mass, flow), f"quantized mass {mass!r} != flow {flow!r}")
    # The constrained entropy averages the full-code uncertainty over the
    # 2^(K-1) codewords with c_depth = +1, so it is at most
    # K - 1 - log2 P(c_depth = +1 | r); the plain bound K can fail when
    # the received word makes that symbol unlikely.
    p_plus = r["symbol"].total() / mass
    bound = info_len - 1 - math.log2(p_plus)
    require(-TOL <= r["entropy"] <= bound + TOL, f"entropy {r['entropy']!r} outside [0, {bound}]")


@dataclass(frozen=True)
class WordsWorkload:
    """Analyse pre-generated received words of one convolutional code."""

    name: str
    why: str
    generators: tuple[int, ...]
    info_len: int
    channel: str  # "bsc" | "awgn"
    params: tuple[float, ...]  # channel parameter, cycled op by op
    order: int  # highest moment order an op computes
    symbol_depth: int
    op_fn: Callable = field(repr=False)
    check_fn: Callable = field(repr=False)
    pool: int = 64

    def build(self) -> tg.Trellis:
        """The set-up: build the code trellis and validate it once."""
        code = codes.build_conv_trellis(self.generators, self.info_len)
        report = tg.validate(code)
        require(not report, f"code trellis invalid: {report[:3]}")
        return code

    def inputs(self, seed: int) -> list[tuple]:
        rng = np.random.default_rng(seed)
        out = []
        for i in range(self.pool):
            param = self.params[i % len(self.params)]
            channel = codes.Bsc(param) if self.channel == "bsc" else codes.Awgn(param)
            out.append((channel, draw_word(rng, self.generators, self.info_len, self.channel, param)))
        return out

    def op(self, code, inp, call=plain_call) -> dict:
        channel, word = inp
        return self.op_fn(code, channel, word, self.symbol_depth, call)

    def check(self, result: dict) -> None:
        self.check_fn(result, self.info_len, self.symbol_depth)


WORDS_BSC75 = WordsWorkload(
    name="words-bsc75",
    why="long narrow [7,5] code (K=200, hard decisions, exact mode): costs that grow with the rank, validate and edges_at scans, dominate",
    generators=(0o7, 0o5),
    info_len=200,
    channel="bsc",
    params=(0.02, 0.05, 0.10),
    order=2,
    symbol_depth=10,
    op_fn=op_bsc,
    check_fn=check_bsc,
)

WORDS_AWGN171 = WordsWorkload(
    name="words-awgn171",
    why="short wide 64-state [171,133] code (K=24, soft decisions, order 4, quantized mode): per-edge moment and distribution work dominates",
    generators=(0o171, 0o133),
    info_len=24,
    channel="awgn",
    params=(0.5, 1.0),
    order=4,
    symbol_depth=9,
    op_fn=op_awgn,
    check_fn=check_awgn,
)


# -- CLI workload ----------------------------------------------------------------


class CliFailed(TrelliskitError):
    """The CLI reported a domain error (exit status 1, ``error:`` on stderr),
    which counts as a failed op like a TrelliskitError raised in process."""


def _parse_csv(path: str) -> dict[str, list[float]]:
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(x) for x in line.split(",")] for line in fh if line.strip()]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _check_unit_sum(values: Sequence[float], what: str) -> None:
    total = math.fsum(values)
    require(abs(total - 1.0) <= TOL, f"{what} sums to {total!r}")


@dataclass(frozen=True)
class CliWorkload:
    """The paper's pipeline as sequential ``python -m trelliskit.cli``
    processes: [7,5] code, K=98, BSC p=0.35 (the README setting)."""

    name: str = "cli-paper"
    why: str = "paper pipeline through sequential CLI processes ([7,5], K=98, BSC p=0.35): startup, parsing and the text format, which only this workload exercises"
    generators: str = "7,5"
    info_len: int = 98
    channel: str = "bsc:0.35"
    symbol_depth: int = 10
    order: int = 2

    def env(self, src: str) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = src
        return env

    def run_cli(self, argv: Sequence[str], workdir: str, src: str) -> str:
        """Run one CLI process to completion; return its standard output."""
        proc = subprocess.run(
            [sys.executable, "-m", "trelliskit.cli", *argv],
            cwd=workdir,
            env=self.env(src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode == 1 and proc.stderr.startswith("error:"):
            raise CliFailed(proc.stderr.strip())
        require(
            proc.returncode == 0,
            f"{argv[0]} exited with {proc.returncode}: {proc.stderr.strip()[-400:]}",
        )
        return proc.stdout

    def startup(self, workdir: str, src: str) -> None:
        """Interpreter start plus ``import trelliskit.cli`` and nothing else."""
        subprocess.run(
            [sys.executable, "-c", "import trelliskit.cli"],
            cwd=workdir,
            env=self.env(src),
            check=True,
            capture_output=True,
            timeout=120,
        )

    def setup_steps(self, seed: int) -> list[tuple[str, list[str]]]:
        return [
            ("build-code", ["build-code", "--conv", self.generators, "--info-len", str(self.info_len), "--out", "code.trellis"]),
            ("label", ["label", "--trellis", "code.trellis", "--channel", self.channel, "--received", f"seed:{seed}", "--received-out", "r.txt", "--out", "labeled.trellis"]),
        ]

    def ops(self, seed: int) -> list[tuple[str, list[str]]]:
        """The fixed op cycle: (span name, argv).

        Seven ops, an odd number, so that the median op latency falls
        inside one op kind instead of on the jump between two kinds.
        """
        depth = ["--symbol-depth", str(self.symbol_depth), "--symbol-value", "1"]
        entropy = ["entropy", "--trellis", "code.trellis", "--channel", self.channel, "--received", "r.txt"]
        return [
            ("validate", ["validate", "--trellis", "labeled.trellis"]),
            ("entropy", entropy),
            ("entropy_symbol", [*entropy, *depth]),
            ("moments", ["moments", "--trellis", "labeled.trellis", "--g", "clabel", "--max-order", str(self.order), *depth]),
            ("distribution", ["distribution", "--trellis", "labeled.trellis", "--g", "clabel", "--mode", "auto", "--out", "dist.csv"]),
            ("figures_1", ["figures", "--which", "1", "--seed", str(seed), "--info-len", str(self.info_len), "--symbol-depth", str(self.symbol_depth), "--out", "fig"]),
            ("figures_3", ["figures", "--which", "3", "--seed", str(seed), "--info-len", str(self.info_len), "--out", "fig"]),
        ]

    def check(self, kind: str, stdout: str, workdir: str) -> dict:
        """Check one op's outputs; return what was read from them."""
        if kind == "validate":
            out = json.loads(stdout)
            require(out["valid"] is True, f"validate reported {out['violations'][:3]}")
        elif kind == "entropy":
            out = json.loads(stdout)
            h = out["entropy_bits"]
            require(-TOL <= h <= self.info_len + TOL, f"entropy {h!r} outside [0, {self.info_len}]")
        elif kind == "entropy_symbol":
            out = json.loads(stdout)
            h = out["entropy_bits"]
            require(math.isfinite(h) and h >= -TOL, f"subcode entropy {h!r} is negative")
        elif kind == "moments":
            out = json.loads(stdout)
            require(out["normalized"][0] == 1.0, f"normalized[0] = {out['normalized'][0]!r}")
        elif kind == "distribution":
            out = json.loads(stdout)
            # BSC hard decisions put c.r on a lattice, so auto mode is exact.
            require(out["mode"] == "exact", f"distribution mode {out['mode']!r}, expected exact")
            out["csv"] = _parse_csv(os.path.join(workdir, "dist.csv"))
            _check_unit_sum(out["csv"]["normalized_mass"], "distribution normalized mass")
        elif kind == "figures_1":
            with open(os.path.join(workdir, "fig", "fig1_meta.json"), encoding="ascii") as fh:
                out = json.load(fh)
            _check_unit_sum([out["prob_plus"], out["prob_minus"]], "fig1 symbol probabilities")
        else:
            out = _parse_csv(os.path.join(workdir, "fig", "fig3.csv"))
            _check_unit_sum(out["normalized_mass"], "fig3 normalized mass")
        return out


CLI_PAPER = CliWorkload()

WORKLOADS = {w.name: w for w in (WORDS_BSC75, WORDS_AWGN171, CLI_PAPER)}
