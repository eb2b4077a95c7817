"""Measurement of one workload run: timing loop, spans, metrics, report.

Imported by ``run.py`` once it has put the checkout's ``src/`` first on
the module path.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy

import hostspeed
import spans as S
import workloads as W
from trelliskit import moments, trellis as tg
from trelliskit.errors import TrelliskitError

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

# Ops between two set-up repetitions in the timed loop; set-up time is
# the median of the repetitions.
SETUP_EVERY = {"words": 1, "cli": 7}
STARTUP_PROBES = 3
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Spans the ops put around calls into the library, and the stage probes.
FUNCTION_SPANS = (
    "trellis.DepthFunctionTable.constant",
    "codes.channel_lambda_labels",
    "codes.conditional_entropy",
    "codes.correlation_moments",
    "codes.correlation_g_table",
    "moments.forward_numerators",
    "moments.backward_numerators",
    "moments.normalized_states",
    "moments.symbol_moments",
    "distributions.forward_distributions",
    "distributions.backward_distributions",
    "distributions.trellis_distribution",
    "distributions.symbol_distribution",
)
TRELLIS_PROBES = (
    "trellis.validate",
    "trellis.relabeled",
    "trellis.loads_trellis",
    "trellis.edges_at_all",
)
CLI_SPANS = (
    "cli.validate",
    "cli.entropy",
    "cli.entropy_symbol",
    "cli.moments",
    "cli.distribution",
    "cli.figures_1",
    "cli.figures_3",
    "cli.build-code",
    "cli.label",
)

PER_LAYER = {
    **{f"{p}{suffix}": unit for p in TRELLIS_PROBES for suffix, unit in ((".s", "s"), (".ns_per_edge", "ns"))},
    **{f"{f}.s": "s" for f in FUNCTION_SPANS},
    "moments.symbol_moments.calls": "count",
    "moments.counted_run.mul_per_edge": "count",
    "moments.counted_run.add_per_edge": "count",
    "distributions.lattice_step.s": "s",
    "distributions.points": "count",
    "distributions.edge_bin_mass_ratio": "ratio",
    **{f"{c}.s": "s" for c in CLI_SPANS},
    "cli.startup_s": "s",
    "bench.self_s": "s",
    "bench.tracing_overhead": "ratio",
}

# Calls into the trellis layer that the library makes inside one op, read
# off the call structure of the library at the commit that introduced
# this benchmark: (validate runs, edges_at scans).  Only used for the
# estimated trellis share in the traced report.
SEED_TRELLIS_CALLS = {"words-bsc75": (6, 1617), "words-awgn171": (10, 63)}

STAGES = {
    "parse": ("trellis.loads_trellis",),
    "construct": ("trellis.relabeled",),
    "validate": ("trellis.validate",),
    "label": (
        "codes.channel_lambda_labels",
        "codes.correlation_g_table",
        "trellis.DepthFunctionTable.constant",
    ),
    "forward": ("moments.forward_numerators",),
    "backward": ("moments.backward_numerators", "moments.normalized_states"),
    "symbol/cut combine": (
        "moments.symbol_moments",
        "distributions.trellis_distribution",
        "distributions.symbol_distribution",
    ),
    "distribution merge": (
        "distributions.forward_distributions",
        "distributions.backward_distributions",
    ),
}


def median(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


def tail(latencies: list[float]) -> tuple[float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it, and
    that percentile; with too few samples, the maximum (percentile 100)."""
    xs = sorted(latencies)
    k = len(xs) - TAIL_BEYOND - 1
    if k < 0:
        return xs[-1], 100
    return xs[k], (100 * (k + 1)) // len(xs)


def closed_loop(run: Run, seconds: float, step, setup, every: int) -> None:
    """Call step(0), step(1), ... back to back for ``seconds``, with
    ``setup()`` before every ``every``-th step and the reference kernel
    before the first iteration and after each one.

    Records the set-up times, each iteration's wall time less its set-up,
    and the kernel times, from which ``speed_factors`` scales each
    iteration.  Set-ups spread over the whole loop see the same drift in
    the host's speed as the ops do.
    """
    run.kernel_s.append(hostspeed.timed_kernel())
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds:
        begin = perf_counter()
        in_setup = 0.0
        if i % every == 0:
            setup()
            in_setup = perf_counter() - begin
            run.setup.append((i, in_setup))
        step(i)
        run.iteration_s.append(perf_counter() - begin - in_setup)
        run.kernel_s.append(hostspeed.timed_kernel())
        i += 1


def speed_factors(run: Run) -> list[float]:
    """Per iteration: ``hostspeed.REFERENCE_S`` over the mean kernel time
    just before and just after it.  Wall time times this factor is the
    time on a host where the kernel takes ``REFERENCE_S``."""
    k = run.kernel_s
    return [2.0 * hostspeed.REFERENCE_S / (a + b) for a, b in zip(k, k[1:])]


class Run:
    """What one run measured, before it is turned into metrics."""

    def __init__(self, trace: bool):
        self.tracer = S.Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.setup: list[tuple[int, float]] = []  # (iteration, wall time) of in-loop set-ups
        self.latencies: list[float] = []  # untraced ops
        self.untraced_ops: list[int] = []  # op index of each untraced latency
        self.iteration_s: list[float] = []  # wall time of each iteration less its set-up
        self.kernel_s: list[float] = []  # reference kernel before the loop and after each iteration
        self.traced: dict[int, float] = {}  # op index -> traced latency
        self.points: list[int] = []
        self.edge_ratio: list[float] = []
        self.startup: list[float] = []
        self.counted = None
        self.props: dict = {}

    def timed(self, fn, traced: bool, op: int):
        """Run one op untraced or under an "op" root span; record its latency.

        A full collection first gives every op the same heap to start from,
        so the collections an op triggers depend on its own allocations
        only, not on what the ops before it left behind.
        """
        self.attempted += 1
        gc.collect()
        start = perf_counter()
        try:
            if traced:
                with self.tracer.root("op", op):
                    result = fn(self.tracer.call)
            else:
                result = fn(W.plain_call)
        except TrelliskitError:
            self.failed += 1
            return None
        elapsed = perf_counter() - start
        if traced:
            self.traced[op] = elapsed
        else:
            self.latencies.append(elapsed)
            self.untraced_ops.append(op)
        return result

    def order(self, i: int):
        """Untraced only, or both with the first of the pair alternating."""
        if self.tracer is None:
            return (False,)
        return (False, True) if i % 2 == 0 else (True, False)


def measure_words(wl, seed: int, seconds: float, trace: bool) -> Run:
    run = Run(trace)
    code = wl.build()
    inputs = wl.inputs(seed)
    run.props = {**W.trellis_shape(code), "order": wl.order}
    last = {}

    def step(i: int) -> None:
        inp = inputs[i % len(inputs)]
        for traced in run.order(i):
            r = run.timed(lambda call: wl.op(code, inp, call), traced, i)
            if r is None:
                continue
            wl.check(r)
            cut = r["cut"]
            run.points.append(len(cut.mass))
            run.edge_ratio.append(
                (cut.mass[0] + cut.mass[-1]) / cut.total() if r["mode"] == "quantized" else 0.0
            )
            run.props["mode"] = r["mode"]
            if trace:
                last.update(r)
        if trace and last:
            with run.tracer.root("probe", i):
                W.trellis_probes(last["labeled"], last["g"], run.tracer.call)

    closed_loop(run, seconds, step, wl.build, SETUP_EVERY["words"])
    if trace and last:
        _, run.counted = moments.counted_run(last["labeled"], last["g"], wl.order)
    return run


def startup_probes(cli, workdir: str, src: str) -> list[float]:
    times = []
    for _ in range(STARTUP_PROBES):
        start = perf_counter()
        cli.startup(workdir, src)
        times.append(perf_counter() - start)
    return times


def measure_cli(wl, seed: int, seconds: float, trace: bool) -> Run:
    run = Run(trace)
    work = OUT / f"{wl.name}-{os.getpid()}"
    # Set-ups in the timed loop write here, so they leave the ops' files alone.
    (work / "setup").mkdir(parents=True)
    src = str(SRC)
    call = run.tracer.call if trace else W.plain_call

    def setup(workdir) -> None:
        with run.tracer.root("setup") if trace else nullcontext():
            for kind, argv in wl.setup_steps(seed):
                call(f"cli.{kind}", wl.run_cli, argv, str(workdir), src)

    try:
        # Warm-up: the first process writes the bytecode caches.
        wl.startup(str(work), src)
        setup(work)
        labeled = tg.read_trellis(work / "labeled.trellis")
        clabel_g = tg.DepthFunctionTable.from_clabels(labeled)
        run.props = {**W.trellis_shape(labeled), "order": wl.order}
        ops = wl.ops(seed)

        def step(i: int) -> None:
            kind, argv = ops[i % len(ops)]
            for traced in run.order(i):
                r = run.timed(
                    lambda call: call(f"cli.{kind}", wl.run_cli, argv, str(work), src), traced, i
                )
                if r is None:
                    continue
                out = wl.check(kind, r, str(work))
                if kind == "distribution":
                    run.points.append(out["points"])
                    run.edge_ratio.append(0.0)  # the check requires the exact mode
                    run.props["mode"] = out["mode"]
            if trace:
                with run.tracer.root("probe", i):
                    W.trellis_probes(labeled, clabel_g, run.tracer.call)

        closed_loop(run, seconds, step, lambda: setup(work / "setup"), SETUP_EVERY["cli"])
        if trace:
            _, run.counted = moments.counted_run(labeled, clabel_g, wl.order)
            run.startup = startup_probes(wl, str(work), src)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return run


def end_to_end(run: Run, cli: bool) -> tuple[dict, dict]:
    """The end-to-end metrics, their times scaled by the speed factors;
    and the same figures in plain wall time, for the report."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    f = speed_factors(run)
    latencies = [t * f[i] for i, t in zip(run.untraced_ops, run.latencies)]
    tail_s, pct = tail(latencies)
    run.props["tail_percentile"] = pct
    run.props["tail_samples"] = len(latencies)
    metrics = {
        "setup_s": median(t * f[i] for i, t in run.setup),
        "op_p50_s": median(latencies),
        "op_tail_s": tail_s,
        "ops_per_s": len(latencies) / sum(t * x for t, x in zip(run.iteration_s, f)),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }
    wall = {
        "setup_s": median(t for _, t in run.setup),
        "op_p50_s": median(run.latencies),
        "op_tail_s": tail(run.latencies)[0],
        "ops_per_s": len(run.latencies) / sum(run.iteration_s),
        "speed_factor_p50": median(f),
    }
    return metrics, wall


def per_layer(run: Run) -> tuple[dict, dict]:
    """Per-layer metrics, plus the layer and stage tables for the report."""
    spans = run.tracer.spans
    ops = S.child_totals(spans, "op")
    probes = S.child_totals(spans, "probe")
    n_edges = run.props["edges"]
    out = {}
    for p in TRELLIS_PROBES:
        out[f"{p}.s"] = S.median_of(probes, p)
        out[f"{p}.ns_per_edge"] = out[f"{p}.s"] / n_edges * 1e9
    for f in FUNCTION_SPANS:
        out[f"{f}.s"] = S.median_of(ops, f)
    out["moments.symbol_moments.calls"] = S.median_of(ops, "moments.symbol_moments", 1)
    counted = run.counted
    out["moments.counted_run.mul_per_edge"] = counted.multiplications / n_edges
    out["moments.counted_run.add_per_edge"] = counted.additions / n_edges
    out["distributions.lattice_step.s"] = S.median_of(probes, "distributions.lattice_step")
    out["distributions.points"] = median(run.points)
    out["distributions.edge_bin_mass_ratio"] = median(run.edge_ratio)
    for c in CLI_SPANS:
        out[f"{c}.s"] = median(s.duration for s in spans if s.name == c)
    out["cli.startup_s"] = median(run.startup)
    out["bench.self_s"] = median(S.self_times(spans, "op"))
    # Paired by op: both runs of an op see the same input and nearly the
    # same machine state, which a ratio of two medians would not ensure.
    out["bench.tracing_overhead"] = median(
        run.traced[op] / lat - 1.0
        for op, lat in zip(run.untraced_ops, run.latencies)
        if op in run.traced
    )

    layers: dict[str, float] = {}
    for children in ops.values():
        for name, (secs, _) in children.items():
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + secs
    traced_total = sum(r.duration for r in S.roots(spans, "op").values())
    report = {
        "traced_op_p50_s": median(run.traced.values()),
        "untraced_op_p50_s": median(run.latencies),
        "layer_share_of_traced_op": {
            layer: secs / traced_total for layer, secs in sorted(layers.items())
        },
        "stages_s": {
            stage: sum(out.get(f"{n}.s", 0.0) for n in names) for stage, names in STAGES.items()
        },
        "counted_run": counted.as_dict(),
    }
    return out, report


def trellis_share(workload: str, layer: dict, rank: int, untraced_p50: float):
    """Estimated share of an untraced op spent in validate and edges_at."""
    calls = SEED_TRELLIS_CALLS.get(workload)
    if calls is None:
        return None
    validations, scans = calls
    est = validations * layer["trellis.validate.s"] + scans / rank * layer["trellis.edges_at_all.s"]
    return est / untraced_p50


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {units[name]}")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    wl = W.WORKLOADS[workload]
    cli = workload == W.CLI_PAPER.name
    # One CPU for the reference kernel, the ops and the CLI children (they
    # inherit it), so the kernel measures the speed of the CPU the ops ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    origin = perf_counter()
    try:
        run = (measure_cli if cli else measure_words)(wl, seed, seconds, trace)
    except W.CheckFailed as exc:
        print(f"correctness check failed on {workload}: {exc}", file=sys.stderr)
        return 1
    if not run.latencies:
        print(f"no op of {workload} completed", file=sys.stderr)
        return 1

    if trace:
        metrics, report = per_layer(run)
        units = PER_LAYER
        report["estimated_trellis_share"] = trellis_share(
            workload, metrics, run.props["rank"], report["untraced_op_p50_s"]
        )
        stem = OUT / f"{workload}-seed{seed}-trace1"
        run.tracer.write(f"{stem}-spans.jsonl", origin)
    else:
        metrics, wall = end_to_end(run, cli)
        units = END_TO_END
        report = {
            "wall": wall,
            "op_latencies_s": run.latencies,
            "setup_s": run.setup,
            "kernel_s": run.kernel_s,
        }
        stem = OUT / f"{workload}-seed{seed}-trace0"
    props = {**run.props, **environment(seed), "workload": workload, "why": wl.why}
    props["fail_ratio"] = run.failed / run.attempted

    result = {
        "correct": True,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(f"{stem}.json", "w", encoding="ascii") as fh:
        json.dump({"properties": props, "report": report, "result": result}, fh, indent=2)

    print(f"workload {workload} ({wl.why})")
    print("  " + " ".join(f"{k}={v}" for k, v in props.items() if k not in ("workload", "why")))
    if not trace:
        print(
            f"  op_tail_s is p{props['tail_percentile']} of {props['tail_samples']} ops; "
            f"fail_ratio {run.failed}/{run.attempted}"
        )
        print("  wall time, unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in wall.items()))
    print_metrics(metrics, units)
    if trace:
        share = report["estimated_trellis_share"]
        print("  layer share of traced op: " + ", ".join(
            f"{k} {v:.1%}" for k, v in report["layer_share_of_traced_op"].items()
        ))
        if share is not None:
            print(f"  estimated trellis share of untraced op (validate + edges_at): {share:.1%}")
        print("  stages (s per op): " + ", ".join(f"{k} {v:.4g}" for k, v in report["stages_s"].items()))
    print(json.dumps(result))
    return 0


