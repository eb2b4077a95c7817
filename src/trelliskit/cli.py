"""Command-line front end.

Subcommands: ``validate``, ``build-code``, ``label``, ``moments``,
``distribution``, ``entropy``, ``figures``.  Scalar results are emitted
as JSON, distributions and figure datasets as CSV.  Exit status: 0 on
success, 1 on domain errors (bad trellis, degenerate channel, ...), 2 on
usage errors.  Every stochastic subcommand takes an explicit seed, so
identical invocations produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import codes, distributions, moments, oracles, semirings, trellis as tgraph
from .errors import TrelliskitError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trelliskit",
        description="Trellis flows, moments, distributions and code entropies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check trellis structural invariants")
    p.add_argument("--trellis", required=True)
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("build-code", help="build an SPC or convolutional code trellis")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--spc", type=int, metavar="N", help="single parity check, block length N")
    group.add_argument("--conv", metavar="GENS", help='octal generators, e.g. "7,5"')
    p.add_argument("--info-len", type=int, help="information length (convolutional)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("label", help="set lambda-labels to channel likelihoods")
    p.add_argument("--trellis", required=True)
    p.add_argument("--channel", required=True, help="bsc:<p> or awgn:<sigma2>")
    p.add_argument(
        "--received",
        required=True,
        help="received-word file (one real per line) or seed:<int> to draw "
        "a codeword and channel noise from a seed",
    )
    p.add_argument(
        "--received-out",
        help="where to store the drawn received word (required with seed:)",
    )
    p.add_argument("--out", required=True)

    p = sub.add_parser("moments", help="trellis or symbol moments")
    p.add_argument("--trellis", required=True)
    p.add_argument("--g", required=True, help='g-table file or "clabel"')
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--semiring", default="real", choices=semirings.SEMIRING_IDS)
    p.add_argument("--symbol-depth", type=int)
    p.add_argument("--symbol-value", type=float)
    p.add_argument("--count-ops", action="store_true")
    p.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--out")

    p = sub.add_parser("distribution", help="exact or quantized value distribution")
    p.add_argument("--trellis", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--mode", default="auto", choices=("exact", "quantized", "auto"))
    p.add_argument("--bins", type=int, help="half bin count N (quantized)")
    p.add_argument("--width", type=float, help="bin width (quantized)")
    p.add_argument("--cut", type=int, default=0, help="combining depth")
    p.add_argument("--symbol-depth", type=int)
    p.add_argument("--symbol-value", type=float)
    p.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--out", required=True)

    p = sub.add_parser("entropy", help="conditional entropy of a code or subcode")
    p.add_argument("--trellis", required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--received", required=True, help="received-word file")
    p.add_argument("--symbol-depth", type=int)
    p.add_argument("--symbol-value", type=float)
    p.add_argument("--out")

    p = sub.add_parser("figures", help="emit figure CSV datasets")
    p.add_argument("--which", type=int, required=True, choices=(1, 3))
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--p", type=float, default=0.35)
    p.add_argument("--generators", default=None, help="octal, default 5,7 / 7,5")
    p.add_argument("--info-len", type=int, default=98)
    p.add_argument("--symbol-depth", type=int, default=10)
    p.add_argument("--cut", type=int, default=None)

    return parser


# -- helpers -----------------------------------------------------------------------


def _emit_json(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _emit_csv(path: str, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _constraint(args) -> Optional[tuple[int, float]]:
    if (args.symbol_depth is None) != (args.symbol_value is None):
        raise TrelliskitError(
            "--symbol-depth and --symbol-value must be given together"
        )
    if args.symbol_depth is None:
        return None
    return args.symbol_depth, args.symbol_value


def _load_g(args, graph: tgraph.Trellis) -> tgraph.DepthFunctionTable:
    if args.g == "clabel":
        return tgraph.DepthFunctionTable.from_clabels(graph)
    return tgraph.read_g_table(args.g, graph)


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


# -- subcommand bodies ----------------------------------------------------------------


def _cmd_validate(args) -> int:
    graph = tgraph.read_trellis(args.trellis)
    report = tgraph.validate(graph)
    _emit_json(
        {
            "valid": not report,
            "violations": [
                {"code": v.code, "message": v.message} for v in report
            ],
        },
        args.out,
    )
    return 0 if not report else 1


def _cmd_build_code(args) -> int:
    if args.spc is not None:
        graph = codes.build_spc_trellis(args.spc)
    else:
        if args.info_len is None:
            raise TrelliskitError("--conv requires --info-len")
        graph = codes.build_conv_trellis(
            codes.parse_generators(args.conv), args.info_len
        )
    tgraph.write_trellis(args.out, graph)
    return 0


def _cmd_label(args) -> int:
    graph = tgraph.read_trellis(args.trellis)
    channel = codes.parse_channel(args.channel)
    if args.received.startswith("seed:"):
        try:
            seed = int(args.received[5:])
        except ValueError:
            raise TrelliskitError(f"bad seed in {args.received!r}") from None
        if not args.received_out:
            raise TrelliskitError(
                "--received-out is required when drawing a seeded received word"
            )
        _, received = codes.make_received(graph, channel, seed)
        tgraph.write_received(args.received_out, received)
    else:
        received = tgraph.read_received(args.received)
    labeled = codes.channel_lambda_labels(graph, channel, received)
    tgraph.write_trellis(args.out, labeled)
    return 0


def _cmd_moments(args) -> int:
    graph = tgraph.read_trellis(args.trellis)
    g = _load_g(args, graph)
    semiring = semirings.get_semiring(args.semiring)
    constraint = _constraint(args)

    payload: dict = {
        "semiring": semiring.name,
        "max_order": args.max_order,
    }
    forward = moments.forward_numerators(graph, g, args.max_order, semiring)
    if constraint is None:
        result = moments.trellis_moments(forward)
    else:
        backward = moments.backward_numerators(graph, g, args.max_order, semiring)
        result = moments.symbol_moments(graph, g, forward, backward, *constraint)
        payload["symbol"] = {"depth": result.depth, "value": result.symbol}
    payload["numerators"] = list(result.numerators)
    normalized = result.normalized
    payload["normalized"] = None if normalized is None else list(normalized)

    if args.count_ops:
        if semiring.name != "real":
            raise TrelliskitError("--count-ops supports the real semiring only")
        _, counter = moments.counted_run(graph, g, args.max_order)
        payload["op_counts"] = counter.as_dict()

    if args.oracle:
        if semiring.name != "real":
            raise TrelliskitError("--oracle supports the real semiring only")
        oracle_values = [
            oracles.oracle_moment(graph, g, m, constraint)
            for m in range(args.max_order + 1)
        ]
        worst = max(
            _rel_err(a, b)
            for a, b in zip(payload["numerators"], oracle_values)
        )
        payload["oracle"] = {
            "numerators": oracle_values,
            "max_relative_error": worst,
        }
        if worst > 1e-9:
            _emit_json(payload, args.out)
            raise TrelliskitError(
                f"oracle cross-check failed: relative error {worst:.3e}"
            )

    _emit_json(payload, args.out)
    return 0


def _cmd_distribution(args) -> int:
    graph = tgraph.read_trellis(args.trellis)
    g = _load_g(args, graph)
    constraint = _constraint(args)
    if args.mode == "exact" and (args.bins is not None or args.width is not None):
        raise _UsageError("--bins/--width apply to the quantized mode only")
    params = None
    if args.bins is not None or args.width is not None:
        params = distributions.QuantizationParams(
            half_bins=args.bins if args.bins is not None else 32,
            bin_width=args.width,
        )

    fwd = distributions.forward_distributions(graph, g, args.mode, params)
    if fwd.mode == "quantized":
        # The backward sweep reuses the bins the forward one sized.
        params = distributions.QuantizationParams(fwd.half_bins, fwd.bin_width)
    bwd = distributions.backward_distributions(graph, g, fwd.mode, params)
    if constraint is None:
        dist = distributions.trellis_distribution(fwd, bwd, args.cut)
    else:
        dist = distributions.symbol_distribution(graph, g, fwd, bwd, *constraint)

    # Gaussian reference matched to the first two normalized moments of
    # the corresponding moment-engine result, from the order-2 sweep that
    # sized the bins if one did.
    forward_m = fwd.sizing or moments.forward_numerators(graph, g, 2)
    if constraint is None:
        matched = moments.trellis_moments(forward_m).normalized
    else:
        backward_m = moments.backward_numerators(graph, g, 2)
        matched = moments.symbol_moments(
            graph, g, forward_m, backward_m, *constraint
        ).normalized

    values, mass = list(dist.values()), list(dist.mass)
    if isinstance(dist, distributions.ExactDistribution):
        step = dist.step if dist.step > 0 else 1.0
    else:
        step = dist.bin_width
    total = sum(mass)
    normalized = [w / total for w in mass] if total > 0 else [0.0] * len(mass)
    if matched is not None:
        mean = matched[1]
        variance = matched[2] - mean * mean
        gauss = distributions.gaussian_lattice_mass(values, step, mean, variance)
    else:
        gauss = [0.0] * len(values)
    _emit_csv(
        args.out,
        ("domain_value", "mass", "normalized_mass", "gaussian_approx"),
        (values, mass, normalized, gauss),
    )
    summary = {"mode": fwd.mode, "points": len(values), "total_mass": total}
    if fwd.mode == "quantized":
        summary["half_bins"] = fwd.half_bins
        summary["bin_width"] = fwd.bin_width
    sys.stdout.write(json.dumps(summary) + "\n")

    if args.oracle:
        if fwd.mode != "exact":
            raise TrelliskitError(
                "oracle verification compares lattice points and needs the "
                "exact mode"
            )
        oracle = oracles.oracle_distribution(graph, g, constraint)
        engine = {v: w for v, w in zip(values, mass) if w != 0.0}
        worst = 0.0
        for value, weight in oracle.points:
            nearest = min(engine, key=lambda v: abs(v - value), default=None)
            if nearest is None or abs(nearest - value) > 1e-9:
                raise TrelliskitError(
                    f"oracle cross-check failed: no mass near {value}"
                )
            worst = max(worst, _rel_err(engine.pop(nearest), weight))
        leftover = sum(abs(w) for w in engine.values())
        if worst > 1e-9 or leftover > 1e-9:
            raise TrelliskitError(
                f"oracle cross-check failed: relative error {worst:.3e}, "
                f"unmatched mass {leftover:.3e}"
            )
        sys.stderr.write(
            f"oracle cross-check passed over {len(oracle.points)} lattice "
            f"points (max relative error {worst:.3e})\n"
        )
    return 0


def _cmd_entropy(args) -> int:
    graph = tgraph.read_trellis(args.trellis)
    channel = codes.parse_channel(args.channel)
    received = tgraph.read_received(args.received)
    labeled = codes.channel_lambda_labels(graph, channel, received)
    constraint = _constraint(args)
    detail = codes.conditional_entropy_detail(labeled, channel, received, constraint)
    payload = {
        "entropy_bits": detail.entropy_bits,
        "first_moment": detail.first_moment,
        "k1a": detail.constants.k1a,
        "k1b": detail.constants.k1b,
        "k2": detail.constants.k2,
    }
    if constraint is not None:
        payload["symbol"] = {"depth": constraint[0], "value": constraint[1]}
    _emit_json(payload, args.out)
    return 0


def _cmd_figures(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    if args.which == 1:
        generators = codes.parse_generators(args.generators or "5,7")
        data = codes.correlation_symbol_curves(
            generators, args.info_len, args.p, args.symbol_depth, args.seed
        )
        _emit_csv(
            os.path.join(args.out, "fig1.csv"),
            ("domain_value", "mass_plus", "mass_minus"),
            (data["domain"], data["mass_plus"], data["mass_minus"]),
        )
        _emit_json(data["meta"], os.path.join(args.out, "fig1_meta.json"))
    else:
        generators = codes.parse_generators(args.generators or "7,5")
        data = codes.correlation_distribution_with_gaussian(
            generators, args.info_len, args.p, args.seed, args.cut
        )
        _emit_csv(
            os.path.join(args.out, "fig3.csv"),
            ("domain_value", "mass", "normalized_mass", "gaussian_approx"),
            (
                data["domain"],
                data["mass"],
                data["normalized_mass"],
                data["gaussian_approx"],
            ),
        )
        _emit_json(data["meta"], os.path.join(args.out, "fig3_meta.json"))
    return 0


class _UsageError(Exception):
    pass


_COMMANDS = {
    "validate": _cmd_validate,
    "build-code": _cmd_build_code,
    "label": _cmd_label,
    "moments": _cmd_moments,
    "distribution": _cmd_distribution,
    "entropy": _cmd_entropy,
    "figures": _cmd_figures,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except (TrelliskitError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
