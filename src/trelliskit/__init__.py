"""Trellis computations: flows, moments and distributions of separable
path functions over commutative semirings, with BSC/AWGN coding
applications (correlation moments, symbol probabilities, conditional
entropies).

``import trelliskit`` loads only the exception classes.  Every other
public name, and the submodules ``codes``, ``distributions``,
``moments``, ``semirings`` and ``trellis``, is imported on first access
(PEP 562), so a process pays only for the engines it uses.
"""

# Each public name, by the submodule that defines it.  The table is the
# one list of the package surface: ``__all__``, ``dir()`` and
# ``__getattr__`` all read it.
_EXPORTS = {
    "errors": (
        "ChannelError",
        "GTableError",
        "LatticeError",
        "PathCountError",
        "SemiringError",
        "TrellisFormatError",
        "TrellisStructureError",
        "TrelliskitError",
        "UnknownVertexError",
        "ZeroFlowError",
    ),
    "semirings": (
        "BOOLEAN",
        "LOGREAL",
        "MAXPROD",
        "MAX_ORDER",
        "REAL",
        "SEMIRING_IDS",
        "TROPICAL",
        "SemiringSpec",
        "binomial",
        "get_semiring",
        "nat_scale",
        "power",
        "semiring_binomial",
    ),
    "trellis": (
        "DEFAULT_PATH_CAP",
        "DepthFunctionTable",
        "Edge",
        "Trellis",
        "Violation",
        "degrees",
        "dumps_trellis",
        "enumerate_paths",
        "loads_trellis",
        "path_label",
        "read_g_table",
        "read_received",
        "read_trellis",
        "require_valid",
        "split_multi_symbol_edges",
        "validate",
        "write_g_table",
        "write_received",
        "write_trellis",
    ),
    "moments": (
        "JointMomentState",
        "MomentState",
        "NormalizedMomentState",
        "OpCounter",
        "SymbolMoments",
        "TrellisMoments",
        "backward_numerators",
        "counted_run",
        "counted_symbol_pass",
        "forward_numerators",
        "joint_forward_numerators",
        "joint_trellis_moments",
        "normalized_states",
        "symbol_moments",
        "trellis_moments",
    ),
    "distributions": (
        "DistributionState",
        "ExactDistribution",
        "QuantizationParams",
        "QuantizedDistribution",
        "backward_distributions",
        "convolve",
        "forward_distributions",
        "gaussian_lattice_mass",
        "lattice_step",
        "redistribute",
        "shift",
        "symbol_distribution",
        "trellis_distribution",
    ),
    "codes": (
        "Awgn",
        "Bsc",
        "ChannelModel",
        "EntropyResult",
        "UncertaintyConstants",
        "build_conv_trellis",
        "build_spc_trellis",
        "channel_lambda_labels",
        "conditional_entropy",
        "conditional_entropy_detail",
        "correlation_distribution_with_gaussian",
        "correlation_g_table",
        "correlation_moments",
        "correlation_symbol_curves",
        "edge_likelihood",
        "make_received",
        "parse_channel",
        "parse_generators",
        "random_codeword",
        "symbol_probability",
        "transmit",
        "uncertainty_constants",
    ),
}

# A submodule is also a public name, and resolves to itself.
_HOME = {module: module for module in _EXPORTS}
_HOME.update((name, module) for module, names in _EXPORTS.items() for name in names)

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import binds the submodule here; unlike importlib.import_module,
    # __import__ also shows in the -X importtime log.
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


# The exceptions are cheap and every module raises them: bind them now.
for _name in _EXPORTS["errors"]:
    __getattr__(_name)
del _name
