import math
from operator import attrgetter

import pytest

from trelliskit import DepthFunctionTable, SemiringError, build_spc_trellis


def rel_err(a: float, b: float) -> float:
    """Relative error with a unit floor, symmetric in both arguments."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def assert_close(a, b, tol=1e-9, msg=""):
    assert rel_err(a, b) <= tol, f"{msg} {a} vs {b} (rel err {rel_err(a, b):.3e})"


def dist_as_dict(dist) -> dict:
    """Value -> mass mapping of an exact or quantized distribution."""
    return {
        v: w for v, w in zip(dist.values(), dist.mass) if w != 0.0
    }


def assert_same_mass(actual: dict, expected: dict, tol=1e-9, value_tol=1e-9):
    """Compare two value->mass mappings up to small value drift."""
    remaining = dict(actual)
    for value, weight in expected.items():
        hit = None
        for v in remaining:
            if abs(v - value) <= value_tol * max(1.0, abs(value)):
                hit = v
                break
        assert hit is not None, f"no mass near {value} (have {sorted(remaining)})"
        assert rel_err(remaining.pop(hit), weight) <= tol, (
            f"mass at {value}: {actual.get(hit)} vs {weight}"
        )
    leftover = sum(abs(w) for w in remaining.values())
    assert leftover <= tol, f"unexpected extra mass {remaining}"


@pytest.fixture(scope="session")
def spc4():
    return build_spc_trellis(4)


@pytest.fixture(scope="session")
def spc4_clabel_g(spc4):
    return DepthFunctionTable.from_clabels(spc4)


def reference_walk(trellis, direction):
    """The order in which a sweep in ``direction`` visits the vertices,
    as ``Edge`` objects: the walk that ``Trellis.plan`` holds as arrays.

    Returns ``(start, steps, neighbor)``.  A forward sweep starts at the
    source and a backward one at the sink; ``steps`` yields one group per
    layer, layer by layer away from ``start``, holding every vertex of
    that layer with its local edges (in-edges going forward, out-edges
    going backward); ``neighbor(e)`` is the end of a local edge that the
    sweep has already visited, which lies in the group before.
    """
    if direction == "forward":
        start, layers, local = trellis.source, trellis.layers[1:], trellis.in_edges
        neighbor = attrgetter("init")
    elif direction == "backward":
        start, layers, local = trellis.sink, trellis.layers[-2::-1], trellis.out_edges
        neighbor = attrgetter("fin")
    else:
        raise SemiringError(f"unknown direction {direction!r}")
    steps = (tuple((v, local(v)) for v in layer) for layer in layers)
    return start, steps, neighbor


def entropy_bits(probabilities) -> float:
    return -sum(p * math.log2(p) for p in probabilities if p > 0)
