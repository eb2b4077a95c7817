"""The package surface: every public name is reachable from ``trelliskit``
however it is asked for, though the engines load on first use."""

import os
import subprocess
import sys

import pytest

import trelliskit

# Written out rather than read from the package, so that the test checks
# the package's own table against the surface it has always exported.
PUBLIC_NAMES = (
    # errors
    "ChannelError", "GTableError", "LatticeError", "PathCountError", "SemiringError",
    "TrellisFormatError", "TrellisStructureError", "TrelliskitError", "UnknownVertexError",
    "ZeroFlowError",
    # semirings
    "BOOLEAN", "LOGREAL", "MAXPROD", "MAX_ORDER", "REAL", "SEMIRING_IDS", "TROPICAL",
    "SemiringSpec", "binomial", "get_semiring", "nat_scale", "power", "semiring_binomial",
    # trellis
    "DEFAULT_PATH_CAP", "DepthFunctionTable", "Edge", "Trellis", "Violation", "degrees",
    "dumps_trellis", "enumerate_paths", "loads_trellis", "path_label", "read_g_table",
    "read_received", "read_trellis", "require_valid", "split_multi_symbol_edges", "validate",
    "write_g_table", "write_received", "write_trellis",
    # moments
    "JointMomentState", "MomentState", "NormalizedMomentState", "OpCounter", "SymbolMoments",
    "TrellisMoments", "backward_numerators", "counted_run", "counted_symbol_pass",
    "forward_numerators", "joint_forward_numerators", "joint_trellis_moments",
    "normalized_states", "symbol_moments", "trellis_moments",
    # distributions
    "DistributionState", "ExactDistribution", "QuantizationParams", "QuantizedDistribution",
    "backward_distributions", "convolve", "forward_distributions", "gaussian_lattice_mass",
    "lattice_step", "redistribute", "shift", "symbol_distribution", "trellis_distribution",
    # codes
    "Awgn", "Bsc", "ChannelModel", "EntropyResult", "UncertaintyConstants",
    "build_conv_trellis", "build_spc_trellis", "channel_lambda_labels", "conditional_entropy",
    "conditional_entropy_detail", "correlation_distribution_with_gaussian",
    "correlation_g_table", "correlation_moments", "correlation_symbol_curves",
    "edge_likelihood", "make_received", "parse_channel", "parse_generators",
    "random_codeword", "symbol_probability", "transmit", "uncertainty_constants",
)

ENGINES = ("codes", "distributions", "moments", "semirings", "trellis")


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_every_public_name_is_reachable(name):
    namespace = {}
    exec(f"from trelliskit import {name}", namespace)
    assert namespace[name] is getattr(trelliskit, name)
    assert name in dir(trelliskit) and name in trelliskit.__all__


def test_star_import_binds_every_public_name_and_engine():
    namespace = {}
    exec("from trelliskit import *", namespace)
    assert set(PUBLIC_NAMES) | set(ENGINES) <= set(namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(trelliskit, name)


def test_an_unknown_name_raises():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        trelliskit.no_such_name
    with pytest.raises(ImportError):
        exec("from trelliskit import no_such_name", {})


def test_the_engines_are_attributes_after_a_bare_import():
    probe = (
        "import sys, trelliskit; "
        f"sys.exit(not all(getattr(trelliskit, m) is sys.modules['trelliskit.' + m] "
        f"for m in {ENGINES!r}))"
    )
    src = os.path.dirname(os.path.dirname(trelliskit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0
