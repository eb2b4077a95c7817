"""A fixed reference kernel that tracks the host's speed.

On a shared virtual machine the host drifts between faster and slower
states for seconds to minutes at a time, and a run's median latency
follows that drift.  The harness times this kernel between ops and
scales each op's wall time by ``REFERENCE_S / kernel time`` measured
around it, which turns it into seconds on a host where the kernel takes
``REFERENCE_S``.  The kernel is pure Python and uses nothing from
trelliskit, so a change to the library moves the op times and not the
kernel's.
"""

from __future__ import annotations

from time import perf_counter

# About the wall time of one ``kernel()`` call on the 2-vCPU Intel Xeon VM
# the baseline was measured on, in its faster state (Python 3.11; 25-28 ms
# there, 35-40 ms in its slower state).  Only a scale: every scaled
# figure is proportional to it, so it must not change between commits.
REFERENCE_S = 0.025


class _Node:
    __slots__ = ("key", "weight", "next")

    def __init__(self, key: int, weight: float, nxt):
        self.key = key
        self.weight = weight
        self.next = nxt


_NODES = []
for _i in range(1024):
    _NODES.append(_Node(_i, 1.0 + (_i % 7) * 0.125, None))
for _i, _n in enumerate(_NODES):
    _n.next = _NODES[(_i * 31 + 7) % len(_NODES)]


def _sweep(table: dict, node: _Node, steps: int) -> float:
    acc = 0.0
    for _ in range(steps):
        key = node.key & 255
        table[key] = table.get(key, 0.0) * 0.5 + node.weight
        acc += node.weight * 1.0000001
        node = node.next
    return acc


def kernel() -> float:
    """The reference work: pointer chasing, attribute reads, dict updates
    and float arithmetic, the mix of the library's trellis sweeps.  It
    allocates nothing that outlives the call."""
    table: dict = {}
    return sum(_sweep(table, _NODES[r], 8000) for r in range(24))


def timed_kernel() -> float:
    """Wall time of one ``kernel()`` call."""
    start = perf_counter()
    kernel()
    return perf_counter() - start
