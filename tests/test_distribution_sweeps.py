"""The layer-batched distribution sweeps against per-vertex references.

``reference_exact_sweep``, ``reference_quantized_sweep`` and
``reference_move_bins`` (with the per-vertex merge and mean snap they
call) are the sweeps the batched ones replaced: they visit one vertex
at a time and move one bin vector at a time.  The batched exact sweep
adds the same numbers in the same order, so its states must be
bit-identical; the quantized one scales each moved row in another
order, so its masses may differ in the last bits.

``reference_move_bins_scatter`` is the batched bin move that the lookup
in ``distributions._bin_targets`` replaced: it clips every (row, bin)
target on each call.  Both hand bincount the same index and weights in
the same order, so every bin, and every quantized state and join built
from them, must be bit-identical.

``reference_trellis_distribution`` and ``reference_symbol_distribution``
are the per-vertex cut and per-edge symbol combines that the one
section join replaced.  The join adds g = 0 and multiplies by lambda = 1
on a cut, both exact, and sums in the same order, so every result must
be bit-identical.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trelliskit import (
    Awgn,
    Bsc,
    DepthFunctionTable,
    Edge,
    LatticeError,
    SemiringError,
    Trellis,
    ZeroFlowError,
    backward_distributions,
    build_conv_trellis,
    channel_lambda_labels,
    correlation_g_table,
    forward_distributions,
    forward_numerators,
    lattice_step,
    make_received,
    symbol_distribution,
    trellis_distribution,
    trellis_moments,
)
from trelliskit import distributions
from trelliskit.distributions import ExactDistribution, QuantizedDistribution
from trelliskit.oracles import random_trellis

from conftest import reference_walk

PROPERTY_SETTINGS = settings(
    max_examples=150, deadline=None, derandomize=True, database=None
)

QUANTIZED_RTOL = 1e-12
_ALIGN_TOL = 1e-9


# -- per-vertex references ------------------------------------------------------


def reference_move_bins(
    mass: np.ndarray, n_in: int, shift_bins: float, n_out: int
) -> np.ndarray:
    """Move one bin vector by ``-shift_bins`` with linear interpolation."""
    s = math.floor(shift_bins)
    eps = shift_bins - s
    j = np.arange(-n_in, n_in + 1)
    hi = np.clip(j - s, -n_out, n_out) + n_out
    lo = np.clip(j - s - 1, -n_out, n_out) + n_out
    out = np.zeros(2 * n_out + 1)
    np.add.at(out, hi, (1.0 - eps) * mass)
    if eps != 0.0:
        np.add.at(out, lo, eps * mass)
    return out


def reference_move_bins_scatter(rows, shifts, scales, owners, n_owners, n_out):
    """``distributions._move_bins`` as it was before the target table: the
    clipped target of every (row, bin) pair built on each call."""
    n_rows, n_bins = rows.shape
    n_in = n_bins // 2
    bins = 2 * n_out + 1
    s = np.floor(shifts)
    eps = shifts - s
    split = np.flatnonzero(eps)
    reach = n_in + n_out + 1
    s = np.clip(s, -reach, reach).astype(np.intp)
    base = (owners * bins + n_out)[:, None]
    target = np.arange(-n_in, n_in + 1) - s[:, None]
    index = np.empty((n_rows + len(split), n_bins), dtype=np.intp)
    weights = np.empty(index.shape)
    whole, part = index[:n_rows], index[n_rows:]
    np.clip(target, -n_out, n_out, out=whole)
    whole += base
    np.subtract(target[split], 1, out=part)
    np.clip(part, -n_out, n_out, out=part)
    part += base[split]
    np.multiply(((1.0 - eps) * scales)[:, None], rows, out=weights[:n_rows])
    np.multiply((eps * scales)[split, None], rows[split], out=weights[n_rows:])
    block = np.bincount(index.ravel(), weights.ravel(), minlength=n_owners * bins)
    return block.reshape(n_owners, bins)


def reference_snap_mean(weighted_mean, means, width):
    base = means[0]
    for mu in means[1:]:
        t = (mu - base) / width
        if abs(t - round(t)) > _ALIGN_TOL * max(1.0, abs(t)):
            return weighted_mean
    t = (weighted_mean - base) / width
    lo = math.floor(t)
    frac = t - lo
    if frac > 0.5:
        lo += 1
    elif frac == 0.5:
        below = base + lo * width
        above = below + width
        if (abs(above), above) < (abs(below), below):
            lo += 1
    return base + lo * width


def reference_merge_exact(parts, step):
    if step == 0.0:
        offset = parts[0][0]
        total = 0.0
        for off, mass in parts:
            if abs(off - offset) > _ALIGN_TOL * max(1.0, abs(offset)):
                raise LatticeError(
                    f"point masses at {offset} and {off} cannot merge "
                    "without a lattice"
                )
            total += float(mass.sum())
        return ExactDistribution(offset, 0.0, (total,))
    base = min(off for off, _ in parts)
    hi = 0
    anchored = []
    for off, mass in parts:
        t = (off - base) / step
        k0 = round(t)
        if abs(t - k0) > 1e-6:
            raise LatticeError(
                f"offsets {base} and {off} are not congruent modulo {step}"
            )
        anchored.append((k0, mass))
        hi = max(hi, k0 + len(mass))
    out = np.zeros(hi)
    for k0, mass in anchored:
        out[k0 : k0 + len(mass)] += mass
    return ExactDistribution(base, step, tuple(out.tolist()))


def reference_exact_sweep(trellis, g, direction, step):
    start, steps, neighbor = reference_walk(trellis, direction)
    dists = {start: ExactDistribution(0.0, step, (1.0,))}
    for group in steps:
        for v, edges in group:
            parts = []
            for e in edges:
                d = dists[neighbor(e)]
                parts.append((d.offset + g.value(e), np.asarray(d.mass) * e.lam))
            dists[v] = reference_merge_exact(parts, step)
    return dists


def reference_quantized_sweep(trellis, g, direction, half_bins, width):
    for e in trellis.edges:
        if e.lam < 0:
            raise SemiringError(
                f"quantized mode needs nonnegative labels; edge {e.id} "
                f"has {e.lam}"
            )
    start, steps, neighbor = reference_walk(trellis, direction)
    dists = {start: QuantizedDistribution.dirac(half_bins, width)}
    flows = {start: 1.0}
    for group in steps:
        for v, edges in group:
            weights = [e.lam * flows[neighbor(e)] for e in edges]
            wsum = sum(weights)
            if wsum <= 0.0:
                raise ZeroFlowError(
                    v, f"zero incoming weight normalizer at vertex {v}"
                )
            means = [dists[neighbor(e)].mean + g.value(e) for e in edges]
            wmean = sum(w * mu for w, mu in zip(weights, means)) / wsum
            mu = reference_snap_mean(wmean, means, width)
            acc = np.zeros(2 * half_bins + 1)
            for e, w, mu_in in zip(edges, weights, means):
                if w == 0.0:
                    continue
                acc += (w / wsum) * reference_move_bins(
                    np.asarray(dists[neighbor(e)].mass),
                    half_bins,
                    (mu - mu_in) / width,
                    half_bins,
                )
            dists[v] = QuantizedDistribution(
                mu, half_bins, width, tuple(acc.tolist())
            )
            flows[v] = wsum
    return dists, flows


def reference_row(view, v):
    """Vertex ``v``'s entries in its layer's arrays; a quantized layer's
    flow comes scaled by its power of two."""
    layer, r = view._where[v]
    arrays = view._layers[layer]
    if len(arrays) == 4:
        means, flows, masses, exponent = arrays
        return means[r], math.ldexp(flows[r], exponent), masses[r]
    return tuple(a[r] for a in arrays)


def reference_pad_hard(dist, rank):
    if len(dist.mass) == 1 and dist.step == 0.0:
        dist = ExactDistribution(dist.offset, 2.0, dist.mass)
    return dist.padded(-float(rank), rank + 1)


def reference_merge_quantized(entries, half_bins, width):
    """Weighted merge of (mean, weight, convolved bins) entries."""
    total = sum(w for _, w, _ in entries)
    if total <= 0.0:
        return QuantizedDistribution(
            0.0, half_bins, width, (0.0,) * (2 * half_bins + 1)
        )
    means = np.array([mu for mu, _, _ in entries], dtype=float)
    weights = np.array([w for _, w, _ in entries], dtype=float)
    owners = np.zeros(len(entries), dtype=np.intp)
    wmean = sum(mu * w for mu, w, _ in entries) / total
    mu_out = float(distributions._snap_mean(np.array([wmean]), means, owners, width)[0])
    block = distributions._move_bins(
        np.array([conv for _, _, conv in entries]),
        (mu_out - means) / width,
        weights / total,
        owners,
        1,
        half_bins,
    )
    return QuantizedDistribution(
        mu_out, half_bins, width, tuple((block[0] * total).tolist())
    )


def reference_trellis_distribution(forward, backward, depth):
    layer = forward.layers[depth]
    if forward.mode == "exact":
        parts = []
        for v in layer:
            f_offset, f_len, f_mass = reference_row(forward.exact, v)
            b_offset, b_len, b_mass = reference_row(backward.exact, v)
            parts.append(
                (f_offset + b_offset, np.convolve(f_mass[:f_len], b_mass[:b_len]))
            )
        merged = reference_merge_exact(parts, forward.step).trimmed()
        if forward.hard_decision:
            merged = reference_pad_hard(merged, forward.rank)
        return merged

    entries = []
    for v in layer:
        f_mean, f_flow, f_mass = reference_row(forward.quantized, v)
        b_mean, b_flow, b_mass = reference_row(backward.quantized, v)
        entries.append((f_mean + b_mean, f_flow * b_flow, np.convolve(f_mass, b_mass)))
    return reference_merge_quantized(entries, forward.half_bins, forward.bin_width)


def reference_symbol_distribution(trellis, g, forward, backward, depth, symbol):
    groups = trellis.symbol_groups()
    members = groups.find(depth, symbol) or slice(0, 0)
    positions = groups.positions[members]
    # Per edge of the group: the rows of its ends, g and lambda.
    edges = zip(
        groups.init_rows[members].tolist(),
        groups.fin_rows[members].tolist(),
        g.values_for(trellis)[positions],
        trellis._lam[positions],
    )

    if forward.mode == "exact":
        step = forward.step
        if not len(positions):
            # Zero mass; with bipolar g, at a point of the padded domain.
            at = -float(forward.rank) if forward.hard_decision else 0.0
            merged = ExactDistribution(at, step, (0.0,))
        else:
            f_offsets, f_lengths, f_masses = forward.exact._layers[depth - 1]
            b_offsets, b_lengths, b_masses = backward.exact._layers[forward.rank - depth]
            parts = []
            for i, j, gval, lam in edges:
                conv = np.convolve(f_masses[i, : f_lengths[i]], b_masses[j, : b_lengths[j]])
                parts.append((f_offsets[i] + gval + b_offsets[j], conv * lam))
            merged = reference_merge_exact(parts, step).trimmed()
        if forward.hard_decision:
            merged = reference_pad_hard(merged, forward.rank)
        return merged

    f_means, f_flows, f_masses, f_exponent = forward.quantized._layers[depth - 1]
    b_means, b_flows, b_masses, b_exponent = backward.quantized._layers[forward.rank - depth]
    f_flows, b_flows = np.ldexp(f_flows, f_exponent), np.ldexp(b_flows, b_exponent)
    entries = [
        (
            f_means[i] + gval + b_means[j],
            f_flows[i] * lam * b_flows[j],
            np.convolve(f_masses[i], b_masses[j]),
        )
        for i, j, gval, lam in edges
    ]
    return reference_merge_quantized(entries, forward.half_bins, forward.bin_width)


# -- helpers ----------------------------------------------------------------------


def bits(x: float) -> str:
    """Exact identity of a float, telling 0.0 from -0.0."""
    return float(x).hex()


def exact_fields(d: ExactDistribution):
    return bits(d.offset), bits(d.step), tuple(bits(w) for w in d.mass)


def dist_fields(d):
    if isinstance(d, ExactDistribution):
        return exact_fields(d)
    return bits(d.mean), d.half_bins, bits(d.bin_width), tuple(bits(w) for w in d.mass)


def assert_rel(a: float, b: float, floor: float = 0.0) -> None:
    assert abs(a - b) <= QUANTIZED_RTOL * max(floor, abs(a), abs(b)), (a, b)


def outcome(fn, *args):
    """("ok", result) or (error type, vertex or None) of one call."""
    try:
        return "ok", fn(*args)
    except ZeroFlowError as err:
        return ZeroFlowError, err.vertex
    except LatticeError:
        return LatticeError, None


def joined(fn, *args):
    """("ok", the result's fields) or (error type, vertex or None)."""
    kind, result = outcome(fn, *args)
    return kind, dist_fields(result) if kind == "ok" else result


@st.composite
def instances(draw):
    """A random trellis (parallel edges, up to 3 vertices per layer) with
    some labels set to zero, a direction and a seed for its g values."""
    seed = draw(st.integers(0, 10**6))
    t = random_trellis(
        seed, max_rank=7, max_width=3, parallel_edge_prob=0.3, extra_edge_prob=0.5
    )
    zero = draw(
        st.sets(st.sampled_from([e.id for e in t.edges]), max_size=len(t.edges) // 3)
    )
    t = t.relabeled(lambda e: 0.0 if e.id in zero else e.lam)
    direction = draw(st.sampled_from(["forward", "backward"]))
    return t, direction, seed


def lattice_g(t: Trellis, seed: int, kind: str) -> DepthFunctionTable:
    rng = np.random.default_rng(seed)
    if kind == "bipolar":
        return DepthFunctionTable({e.id: float(rng.choice([-1.0, 1.0])) for e in t.edges})
    if kind == "halves":
        return DepthFunctionTable(
            {e.id: 0.5 * float(rng.integers(-3, 4)) for e in t.edges}
        )
    # One value per section: every path value is a single point (step 0).
    per_depth = {}
    return DepthFunctionTable(
        {
            e.id: per_depth.setdefault(
                t.depth_of(e.init), float(rng.integers(-2, 3))
            )
            for e in t.edges
        }
    )


# -- properties -------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(
    instances(),
    st.sampled_from(["bipolar", "halves", "constant"]),
    st.sampled_from(["lattice", "double", "half", "zero", "odd"]),
)
def test_exact_sweep_matches_reference(instance, kind, which):
    t, direction, seed = instance
    g = lattice_g(t, seed, kind)
    true_step = lattice_step(t, g)
    step = {
        "lattice": true_step,
        "double": 2.0 * true_step,
        "half": 0.5 * true_step,
        "zero": 0.0,
        "odd": 0.75,
    }[which]
    got = outcome(distributions._exact_sweep, t, g, direction, step)
    want = outcome(reference_exact_sweep, t, g, direction, step)
    assert got[0] == want[0]
    if got[0] != "ok":
        return
    assert list(got[1]) == list(want[1])
    for v in want[1]:
        assert exact_fields(got[1][v]) == exact_fields(want[1][v])


@PROPERTY_SETTINGS
@given(
    instances(),
    st.sampled_from([1, 2, 4, 8]),
    st.sampled_from([0.25, 0.5, 0.37, 1.3, 2.0]),
    st.booleans(),
    st.booleans(),
)
def test_quantized_sweep_matches_reference(instance, half_bins, width, soft, flat):
    t, direction, seed = instance
    if flat:
        # Equal weights put bipolar means on exact half-bin ties.
        t = t.relabeled(lambda e: 0.5 if e.lam else 0.0)
    rng = np.random.default_rng(seed)
    if soft:
        g = DepthFunctionTable({e.id: float(rng.normal()) for e in t.edges})
    else:
        g = lattice_g(t, seed, "bipolar")
    got = outcome(distributions._quantized_sweep, t, g, direction, half_bins, width)
    want = outcome(reference_quantized_sweep, t, g, direction, half_bins, width)
    assert got[:1] == want[:1]
    if got[0] != "ok":
        assert got[1] == want[1]  # the first vertex in walk order
        return
    (dists, flows), (ref_dists, ref_flows) = got[1], want[1]
    assert list(dists) == list(ref_dists) and list(flows) == list(ref_flows)
    for v, ref in ref_dists.items():
        d = dists[v]
        assert (d.half_bins, d.bin_width) == (ref.half_bins, ref.bin_width)
        assert_rel(d.mean, ref.mean, floor=width)
        assert_rel(flows[v], ref_flows[v])
        for a, b in zip(d.mass, ref.mass):
            assert_rel(a, b)


@PROPERTY_SETTINGS
@given(
    st.lists(
        st.tuples(
            st.integers(-4, 4),
            st.lists(st.integers(-6, 6), min_size=1, max_size=4),
            st.integers(-9, 9),
            st.booleans(),
        ),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from([0.5, 1.0, 2.0, 0.3]),
)
def test_snap_mean_matches_reference(groups, width):
    """Each group is one owner: a base, lattice steps of its incoming
    means, a weighted mean on a half-bin point (ties included) and
    whether one incoming mean is knocked off the lattice."""
    means, owners, weighted = [], [], []
    for owner, (base, steps, half, off) in enumerate(groups):
        group = [base + k * width for k in steps]
        if off:
            group[-1] += 0.1 * width
        means += group
        owners += [owner] * len(group)
        weighted.append(base + 0.5 * half * width)
    got = distributions._snap_mean(
        np.array(weighted), np.array(means), np.array(owners, dtype=np.intp), width
    )
    for owner, wmean in enumerate(weighted):
        group = [mu for mu, o in zip(means, owners) if o == owner]
        assert bits(got[owner]) == bits(reference_snap_mean(wmean, group, width))


def test_snap_mean_keeps_weighted_means_when_no_owner_aligns():
    """Soft g leaves no owner's incoming means on one lattice, so the
    snap hands back the weighted means themselves.  Put one owner's
    means on a lattice and that owner alone snaps."""
    width = 0.25
    means = np.array([0.1, 0.33, -0.2, 0.07, 1.0, 1.3])
    owners = np.array([0, 0, 1, 1, 2, 2], dtype=np.intp)
    weighted = np.array([0.2, -0.1, 1.1])
    got = distributions._snap_mean(weighted, means, owners, width)
    assert got is weighted
    means[5] = 1.0 + 2 * width
    got = distributions._snap_mean(weighted, means, owners, width)
    assert [bits(x) for x in got] == [bits(0.2), bits(-0.1), bits(1.0)]


@PROPERTY_SETTINGS
@given(
    instances(),
    st.sampled_from(
        [("exact", kind) for kind in ("bipolar", "halves", "constant")]
        + [("quantized", kind) for kind in ("bipolar", "halves", "constant", "soft")]
    ),
    st.sampled_from([None, (1, 0.5), (4, 0.37), (8, 2.0)]),
)
def test_joins_match_reference(instance, mode_kind, bins):
    """Every cut, and every section at c-labels +1, -1 and the absent
    0.5, in both modes; quantized bins sized from the moments or given."""
    t, _, seed = instance
    mode, kind = mode_kind
    if kind == "soft":
        rng = np.random.default_rng(seed)
        g = DepthFunctionTable({e.id: float(rng.normal()) for e in t.edges})
    else:
        g = lattice_g(t, seed, kind)
    params = None if bins is None else distributions.QuantizationParams(*bins)
    try:
        fd = forward_distributions(t, g, mode, params)
        bd = backward_distributions(t, g, mode, params)
    except ZeroFlowError:
        return  # zeroed labels cut every path through some vertex
    for depth in range(t.rank + 1):
        got = joined(trellis_distribution, fd, bd, depth)
        assert got == joined(reference_trellis_distribution, fd, bd, depth)
    for depth in range(1, t.rank + 1):
        for symbol in (1.0, -1.0, 0.5):
            got = joined(symbol_distribution, t, g, fd, bd, depth, symbol)
            want = joined(reference_symbol_distribution, t, g, fd, bd, depth, symbol)
            assert got == want


def test_quantized_zero_flow_hits_the_same_vertex():
    t = random_trellis(5, max_rank=6, max_width=3)
    g = DepthFunctionTable({e.id: 1.0 for e in t.edges})
    # Cut every edge into the last vertex of the widest inner layer.
    depth = max(range(1, t.rank), key=lambda d: len(t.layers[d]))
    dead = t.layers[depth][-1]
    cut = t.relabeled(lambda e: 0.0 if e.fin == dead else e.lam)
    with pytest.raises(ZeroFlowError) as got:
        distributions._quantized_sweep(cut, g, "forward", 4, 0.5)
    with pytest.raises(ZeroFlowError) as want:
        reference_quantized_sweep(cut, g, "forward", 4, 0.5)
    assert got.value.vertex == want.value.vertex == dead


@pytest.mark.parametrize("soft", [True, False])
@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("generators, info_len", [((7, 5), 5), ((0o171, 0o133), 3)])
def test_chain_layers_only_shift_means(generators, info_len, direction, soft):
    """On a layer of a split trellis where every vertex has one local
    edge, the sweep merges nothing: each vertex keeps its neighbour's
    bins, and adds the edge's g to its mean and lambda to its flow."""
    code = build_conv_trellis(generators, info_len)
    _, received = make_received(code, Awgn(0.5), 3)
    t = channel_lambda_labels(code, Awgn(0.5), received)
    g = correlation_g_table(t, received) if soft else DepthFunctionTable.from_clabels(t)
    sweep = forward_distributions if direction == "forward" else backward_distributions
    state = sweep(t, g, "quantized")
    dists, flows = state.quantized, state.flows
    local = t.in_edges if direction == "forward" else t.out_edges
    chains = 0
    for layer in t.layers:
        edges = [local(v) for v in layer]
        if any(len(e) != 1 for e in edges):
            continue
        chains += 1
        for v, (e,) in zip(layer, edges):
            u = e.init if direction == "forward" else e.fin
            assert bits(dists[v].mean) == bits(dists[u].mean + g.value(e))
            assert [bits(w) for w in dists[v].mass] == [bits(w) for w in dists[u].mass]
            assert bits(flows[v]) == bits(e.lam * flows[u])
    # Splitting a rate-1/2 section leaves one layer of its two a chain,
    # and the walk's growth out of its start vertex adds more.
    assert chains > t.rank // 2


@PROPERTY_SETTINGS
@given(
    st.integers(1, 6),
    st.integers(0, 3),
    st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=6),
    st.integers(0, 10**6),
)
def test_move_bins_matches_reference(n_out, extra, shifts, seed):
    """Batched moves equal per-row ones: bit for bit one row at a time,
    within rounding when scaled rows share an owner."""
    n_in = n_out + extra
    rng = np.random.default_rng(seed)
    rows = rng.random((len(shifts), 2 * n_in + 1))
    shifts = np.array(shifts)
    shifts[::2] = np.round(shifts[::2])  # whole-bin moves too
    one = np.ones(1)
    first = np.zeros(1, dtype=np.intp)
    for r in range(len(shifts)):
        got = distributions._move_bins(rows[r : r + 1], shifts[r : r + 1], one, first, 1, n_out)
        want = reference_move_bins(rows[r], n_in, shifts[r], n_out)
        assert [bits(x) for x in got[0]] == [bits(x) for x in want]

    owners = np.sort(rng.integers(0, 2, size=len(shifts)))
    owners -= owners[0]
    n_owners = int(owners[-1]) + 1
    scales = rng.random(len(shifts))
    got = distributions._move_bins(rows, shifts, scales, owners, n_owners, n_out)
    want = np.zeros((n_owners, 2 * n_out + 1))
    for r in range(len(shifts)):
        want[owners[r]] += scales[r] * reference_move_bins(rows[r], n_in, shifts[r], n_out)
    for a, b in zip(got.ravel(), want.ravel()):
        assert abs(a - b) <= QUANTIZED_RTOL * max(abs(a), abs(b))


def test_move_bins_sends_extreme_shifts_to_a_boundary_bin():
    """Whole shifts of n_in + n_out + 1 or more leave no bin in range, so
    each row lands whole in one boundary bin.  The integer part of a
    shift is clipped before it is cast to an index, so 1e300 makes no
    cast warning, which a test run turns into an error."""
    for n_out, extra in ((1, 0), (3, 2), (32, 0)):
        n_in = n_out + extra
        reach = n_in + n_out + 1
        shifts = np.array([reach, reach + 1, reach + 1.5, 1e300])
        shifts = np.append(shifts, -shifts)
        rows = np.random.default_rng(n_out).random((len(shifts), 2 * n_in + 1))
        one, first = np.ones(1), np.zeros(1, dtype=np.intp)
        for row, shift in zip(rows, shifts):
            got = distributions._move_bins(row[None], np.array([shift]), one, first, 1, n_out)[0]
            edge = 0 if shift > 0 else 2 * n_out
            assert bits(got[edge]) == bits(sum(row.tolist())), shift
            assert not np.delete(got, edge).any(), shift
            if abs(shift) < 1e300:
                want = reference_move_bins(row, n_in, shift, n_out)
                assert [bits(x) for x in got] == [bits(x) for x in want], shift
        owners = np.repeat([0, 1], len(shifts) // 2)
        block = distributions._move_bins(rows, shifts, np.ones(len(shifts)), owners, 2, n_out)
        assert abs(block.sum() - rows.sum()) <= QUANTIZED_RTOL * rows.sum()
        assert block[0, 0] + block[1, -1] == block.sum()


@st.composite
def bin_moves(draw):
    """Arguments of one ``_move_bins`` call: 1-4 owners with 1-3 rows
    each; whole and fractional shifts, among them the edges of the target
    table (+-reach, +-(reach +- 0.5), +-(reach + 1)) and +-1e300; scales
    of 0, 1e-300 and random ones."""
    n_out = draw(st.integers(1, 8))
    n_in = draw(st.sampled_from([n_out, n_out + 3, 2 * n_out]))
    reach = n_in + n_out + 1
    edges = [reach, reach - 0.5, reach + 0.5, reach + 1, 1e300]
    shift = st.one_of(
        st.sampled_from(edges + [-x for x in edges]),
        st.integers(-reach - 2, reach + 2).map(float),
        st.floats(-reach - 2.0, reach + 2.0),
    )
    scale = st.one_of(st.sampled_from([0.0, 1e-300]), st.floats(0.0, 4.0))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    n = sum(sizes)
    shifts = draw(st.lists(shift, min_size=n, max_size=n))
    scales = draw(st.lists(scale, min_size=n, max_size=n))
    rows = np.random.default_rng(draw(st.integers(0, 10**6))).random((n, 2 * n_in + 1))
    owners = np.repeat(np.arange(len(sizes)), sizes)
    return rows, np.array(shifts), np.array(scales), owners, len(sizes), n_out


@PROPERTY_SETTINGS
@given(bin_moves())
def test_move_bins_matches_the_scatter_reference(move):
    """Targets looked up in the table equal the ones clipped per call,
    and bincount adds the same weights in the same order: every bin has
    the same bits."""
    got = distributions._move_bins(*move)
    want = reference_move_bins_scatter(*move)
    assert [bits(x) for x in got.ravel()] == [bits(x) for x in want.ravel()]


def test_bin_targets_are_read_only_and_built_once():
    table = distributions._bin_targets(32, 32)
    assert table.shape == (2 * 65 + 2, 65) and not table.flags.writeable
    assert distributions._bin_targets(32, 32) is table
    assert table[0].tolist() == [32] * 65 and table[-1].tolist() == [-32] * 65


def reference_lattice_step(trellis, g):
    """The per-section loop ``lattice_step`` replaced."""
    diffs = []
    span = 0.0
    for depth in range(1, trellis.rank + 1):
        vals = sorted({g.value(e) for e in trellis.edges_at(depth)})
        span += vals[-1] - vals[0]
        for a, b in zip(vals, vals[1:]):
            diffs.append(b - a)
    if not diffs:
        return 0.0
    step = distributions._float_gcd(diffs)
    if step < distributions.MIN_LATTICE_STEP:
        raise LatticeError("g values share no usable lattice; use the quantized mode")
    for d in diffs:
        t = d / step
        if abs(t - round(t)) > _ALIGN_TOL * max(1.0, abs(t)):
            raise LatticeError(
                "g values share no usable lattice; use the quantized mode"
            )
    if span / step + 1 > distributions.MAX_EXACT_BINS:
        raise LatticeError(
            f"exact mode would need more than {distributions.MAX_EXACT_BINS} "
            "lattice points; use the quantized mode"
        )
    return step


def step_outcome(fn, *args):
    """("ok", bits of the step) or (LatticeError, its message)."""
    try:
        return "ok", bits(fn(*args))
    except LatticeError as err:
        return LatticeError, str(err)


@PROPERTY_SETTINGS
@given(instances(), st.sampled_from(["bipolar", "halves", "constant", "soft", "wide"]))
def test_lattice_step_matches_reference(instance, kind):
    """Soft g has no usable lattice; wide integer g has one too long for
    the exact mode."""
    t, _, seed = instance
    rng = np.random.default_rng(seed)
    if kind == "soft":
        g = DepthFunctionTable({e.id: float(rng.normal()) for e in t.edges})
    elif kind == "wide":
        g = DepthFunctionTable(
            {e.id: float(rng.integers(-40000, 40001)) for e in t.edges}
        )
    else:
        g = lattice_g(t, seed, kind)
    want = step_outcome(reference_lattice_step, t, g)
    assert step_outcome(lattice_step, t, g) == want
    assert step_outcome(lattice_step, t, g.values_for(t)) == want


def section_shifts(t: Trellis, g: DepthFunctionTable, step: float) -> list[list[int]]:
    """rint((g - the section's smallest g) / step) for every edge, by section."""
    out = []
    for depth in range(1, t.rank + 1):
        vals = [g.value(e) for e in t.edges_at(depth)]
        low = min(vals)
        out.append([int(np.rint((v - low) / step)) if step else 0 for v in vals])
    return out


@PROPERTY_SETTINGS
@given(
    instances(),
    st.sampled_from([0.1, 1 / 3]),
    st.sampled_from([3, 30, 400]),
    st.booleans(),
)
def test_lattice_step_off_the_dyadic_lattice(instance, unit, reach, jitter):
    """g = 0.1*k or k/3 with |k| <= reach: no double holds the step, and
    the gcd of the spreads' gaps may land some ulp from the reference's
    gcd of per-section differences.  Both give every edge the same
    integer shift, the true one, (k - the section's smallest k) / the gcd
    of those spreads of k, so the masses do not depend on which gcd ran.
    Up to |k| = 30 both find the lattice, or both fail alike when a 1e-7
    jitter on some g leaves none; at |k| = 400 the float gcds can miss a
    lattice, each on instances where the other finds it, and a step
    found lies within twice the alignment tolerance of the true one."""
    t, _, seed = instance
    rng = np.random.default_rng(seed)
    k = rng.integers(-reach, reach + 1, size=len(t.edges))
    values = 0.1 * k if unit == 0.1 else k / 3
    if jitter:
        values = values + 1e-7 * (rng.random(len(t.edges)) < 0.3)
    g = DepthFunctionTable({e.id: float(v) for e, v in zip(t.edges, values)})
    got, want = (step_outcome(fn, t, g) for fn in (lattice_step, reference_lattice_step))
    if reach <= 30 or got[0] is want[0] is LatticeError:
        assert got[0] == want[0] and (got[0] == "ok" or got == want)
    if got[0] != "ok":
        return
    step = float.fromhex(got[1])
    if want[0] == "ok":
        assert section_shifts(t, g, step) == section_shifts(t, g, float.fromhex(want[1]))
    if not jitter:
        # The true lattice: the gcd of the spreads of k, and the shifts the
        # sweeps and joins place rows by, in walk order.
        plan = t.plan("forward")
        walked = k[plan.edges]
        spread = walked - np.repeat(np.minimum.reduceat(walked, plan.bounds[:-1]), np.diff(plan.bounds))
        gcd = math.gcd(*spread.tolist())
        _, _, shifts = distributions._lattice(values[plan.edges], plan.bounds)
        assert shifts.tolist() == (spread // gcd if gcd else spread).tolist()
        _, _, shifts = distributions._lattice(values[plan.edges], plan.bounds, unit)
        assert shifts.tolist() == spread.tolist()
        tol = 1e-12 if reach <= 30 else 2 * _ALIGN_TOL
        assert abs(step - unit * gcd) <= tol * unit * gcd


# -- codes of realistic size --------------------------------------------------


@pytest.fixture(scope="module")
def bsc_words():
    """(labeled trellis, g) for hard-decision words over a BSC with
    p = 0.2: [7,5] K=30 (rank 64) and [171,133] K=6 (64 states), each
    also with a third of its labels set to 0, which leaves zero columns
    inside some vertices' own lattice points."""
    out = []
    for generators, info_len in (((7, 5), 30), ((0o171, 0o133), 6)):
        code = build_conv_trellis(generators, info_len)
        _, received = make_received(code, Bsc(0.2), 5)
        labeled = channel_lambda_labels(code, Bsc(0.2), received)
        g = correlation_g_table(labeled, received)
        zero = np.random.default_rng(5).random(len(labeled.edges)) < 1 / 3
        out.append((labeled, g))
        out.append((labeled.relabeled(np.where(zero, 0.0, labeled._lam)), g))
    return out


def tenths_g(t: Trellis) -> DepthFunctionTable:
    """g = 0.1*k, k in -3..3: a lattice whose step no double holds."""
    rng = np.random.default_rng(7)
    return DepthFunctionTable({e.id: 0.1 * float(rng.integers(-3, 4)) for e in t.edges})


def quantized_answers(t, g):
    """Every layer array of both quantized sweeps (means, flows, bins,
    exponent), then every cut and symbol join, as bit strings."""
    fd = forward_distributions(t, g, "auto")
    params = distributions.QuantizationParams(fd.half_bins, fd.bin_width)
    bd = backward_distributions(t, g, "auto", params)
    assert fd.mode == bd.mode == "quantized"
    out = [
        [np.asarray(part).tobytes() for part in layer]
        for state in (fd, bd)
        for layer in state.quantized._layers
    ]
    out += [dist_fields(trellis_distribution(fd, bd, d)) for d in range(t.rank + 1)]
    out += [
        dist_fields(symbol_distribution(t, g, fd, bd, d, c))
        for d in range(1, t.rank + 1)
        for c in (1.0, -1.0)
    ]
    return out


@pytest.mark.parametrize("seed", [3, 4])
def test_quantized_answers_match_the_scatter_moves(seed, monkeypatch):
    """[171,133] K=24 over AWGN sigma2=0.5: both sweeps, every cut and
    every symbol join are bit-identical with the per-call scatter moves."""
    code = build_conv_trellis((0o171, 0o133), 24)
    _, received = make_received(code, Awgn(0.5), seed)
    t = channel_lambda_labels(code, Awgn(0.5), received)
    g = correlation_g_table(t, received)
    got = quantized_answers(t, g)
    monkeypatch.setattr(distributions, "_move_bins", reference_move_bins_scatter)
    assert got == quantized_answers(t, g)


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_exact_sweep_matches_reference_on_codes(bsc_words, direction):
    for t, g in bsc_words:
        step = lattice_step(t, g)
        got = distributions._exact_sweep(t, g, direction, step)
        want = reference_exact_sweep(t, g, direction, step)
        assert list(got) == list(want)
        for v in want:
            assert exact_fields(got[v]) == exact_fields(want[v]), v


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_exact_sweep_on_a_non_dyadic_lattice(bsc_words, direction):
    """Offsets are sums of tenths, which the window adds in another
    order than the per-vertex minimum does; the masses add the same
    products in the same order."""
    for t, _ in bsc_words:
        g = tenths_g(t)
        step = lattice_step(t, g)
        got = distributions._exact_sweep(t, g, direction, step)
        want = reference_exact_sweep(t, g, direction, step)
        for v in want:
            a, b = got[v], want[v]
            assert [bits(w) for w in a.mass] == [bits(w) for w in b.mass], v
            assert abs(a.offset - b.offset) <= 1e-12 * max(abs(a.offset), abs(b.offset), step)


def merge_layers(t: Trellis, direction: str) -> int:
    """Layers of the walk where some vertex has more than one local edge."""
    plan = t.plan(direction)
    return sum(e.stop - e.start > len(plan.layers[k]) for k, e in plan.layer_edges())


def assert_joined(got, want, dyadic: bool) -> None:
    """Equal joins; off a dyadic lattice the offsets may differ in the
    last bits, since the references add the same tenths in another order."""
    if not dyadic:
        assert abs(float.fromhex(got[1][0]) - float.fromhex(want[1][0])) <= 1e-12 * max(
            abs(float.fromhex(want[1][0])), 1.0
        )
        got, want = (got[0], got[1][1:]), (want[0], want[1][1:])
    assert got == want


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("generators, info_len", [((7, 5), 5), ((0o171, 0o133), 3)])
def test_exact_chain_layers_only_gather(generators, info_len, direction, monkeypatch):
    """A chain layer gathers and scales its neighbours' rows, each at its
    neighbour's column plus the edge's shift, and scatters nothing: the
    sweep counts one bincount per merge layer.  Every vertex, cut and
    symbol join, on chain and merge layers alike, matches the per-vertex
    references, signed zeros included: with negative labels a chain row
    holds 0 times a negative lambda, which the references sum as +0.0."""
    code = build_conv_trellis(generators, info_len)
    _, received = make_received(code, Bsc(0.2), 4)
    t = channel_lambda_labels(code, Bsc(0.2), received)
    signs = np.random.default_rng(4).choice([-1.0, 0.0, 1.0], len(t.edges), p=[0.3, 0.2, 0.5])
    calls, bincount = [], np.bincount

    def counted(*args, **kwargs):
        calls.append(None)
        return bincount(*args, **kwargs)

    for lab in (t, t.relabeled(t._lam * signs)):
        for g, dyadic in ((correlation_g_table(lab, received), True), (tenths_g(lab), False)):
            step = lattice_step(lab, g)
            lab.plan(direction)  # built before bincount is counted
            with monkeypatch.context() as patch:
                patch.setattr(np, "bincount", counted)
                calls.clear()
                got = distributions._exact_sweep(lab, g, direction, step)
            assert len(calls) == merge_layers(lab, direction)
            want = reference_exact_sweep(lab, g, direction, step)
            for v in want:
                a, b = got[v], want[v]
                assert [bits(w) for w in a.mass] == [bits(w) for w in b.mass], v
                if dyadic:
                    assert bits(a.offset) == bits(b.offset), v
                else:  # sums of tenths, added in another order
                    assert abs(a.offset - b.offset) <= 1e-12 * max(abs(b.offset), step)
            fd, bd = forward_distributions(lab, g, "exact"), backward_distributions(lab, g, "exact")
            for depth in range(lab.rank + 1):
                got = joined(trellis_distribution, fd, bd, depth)
                assert_joined(got, joined(reference_trellis_distribution, fd, bd, depth), dyadic)
            for depth in range(1, lab.rank + 1):
                for symbol in (1.0, -1.0):
                    got = joined(symbol_distribution, lab, g, fd, bd, depth, symbol)
                    want = joined(reference_symbol_distribution, lab, g, fd, bd, depth, symbol)
                    assert_joined(got, want, dyadic)


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_exact_windows_stay_within_the_lattice_bound(bsc_words, direction):
    """A layer's window spans at most the sections walked so far: one
    point plus each section's g span in steps.  Over all sections that
    is the length ``lattice_step`` holds to MAX_EXACT_BINS."""
    for t, g in [*bsc_words, *((t, tenths_g(t)) for t, _ in bsc_words)]:
        step = lattice_step(t, g)
        spans = [0.0] * (t.rank + 1)
        for depth in range(1, t.rank + 1):
            values = [g.value(e) for e in t.edges_at(depth)]
            spans[depth] = (max(values) - min(values)) / step
        if direction == "backward":
            spans[1:] = spans[:0:-1]
        state = distributions._exact_sweep(t, g, direction, step)
        widths = [masses.shape[1] for _, _, masses in state._layers]
        bounds = np.cumsum(spans) + 1
        assert all(w <= round(b) for w, b in zip(widths, bounds)), (widths, bounds)
        assert bounds[-1] <= distributions.MAX_EXACT_BINS


def test_reading_vertices_leaves_joins_unchanged(bsc_words):
    for t, g in bsc_words:
        fd, bd = forward_distributions(t, g, "exact"), backward_distributions(t, g, "exact")

        def joins():
            cuts = [trellis_distribution(fd, bd, d) for d in range(0, t.rank + 1, 7)]
            symbols = [
                symbol_distribution(t, g, fd, bd, d, s)
                for d in range(1, t.rank + 1, 7)
                for s in (1.0, -1.0)
            ]
            return [exact_fields(d) for d in cuts + symbols]

        before = joins()
        for state in (fd, bd):
            assert len([state.exact[v] for v in state.exact]) == len(t.vertices)
        assert joins() == before


def test_quantized_sweeps_stay_finite_on_a_long_code():
    """[7,5] K=300 (n=604) over AWGN sigma2=2.0: the flow falls to about
    2^-1400, so unscaled flows underflow and the sweep would find a
    vertex with no flow.  Scaled, every vertex's bins are finite and sum
    to 1."""
    code = build_conv_trellis((7, 5), 300)
    _, received = make_received(code, Awgn(2.0), 3)
    t = channel_lambda_labels(code, Awgn(2.0), received)
    g = correlation_g_table(t, received)
    for sweep in (forward_distributions, backward_distributions):
        state = sweep(t, g, "quantized")
        assert state.quantized._layers[-1][3] < -1000
        for v in state.quantized:
            mass = np.array(state.quantized[v].mass)
            assert np.isfinite(mass).all(), v
            assert abs(mass.sum() - 1.0) <= 1e-12, v


def test_quantized_joins_take_both_scales():
    """Sections 1-3 carry labels near 1e-200 and sections 4-6 near 1e200:
    the forward flows fall below the smallest double and the backward
    ones pass the largest, while every path's label is about 1.  The
    joins weigh by the scaled flows and take both powers of two at the
    end, so their masses are the path sums."""
    edges = []
    for depth in range(6):
        scale = 1e-200 if depth < 3 else 1e200
        for k, (lam, c) in enumerate(((1.0, 1.0), (3.0, -1.0))):
            edges.append(Edge(2 * depth + k, depth, depth + 1, lam * scale, c))
    t = Trellis(6, {v: v for v in range(7)}, edges)
    g = DepthFunctionTable({e.id: 0.1 * e.id - 0.3 for e in edges})
    params = distributions.QuantizationParams(8, 0.25)
    fd = forward_distributions(t, g, "quantized", params)
    bd = backward_distributions(t, g, "quantized", params)
    assert fd.quantized._layers[3][3] < -1900 and bd.quantized._layers[3][3] > 1900
    for depth in range(7):
        assert_rel(trellis_distribution(fd, bd, depth).total(), 4.0**6)
    for depth in range(1, 7):
        assert_rel(symbol_distribution(t, g, fd, bd, depth, 1.0).total(), 4.0**5)
        assert_rel(symbol_distribution(t, g, fd, bd, depth, -1.0).total(), 3 * 4.0**5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_to_inf_is_silent():
    """[7,5] K=3 with every label 1e300: the flows pass the largest double.
    The exact sweep's lambda scale, the moment rows and the quantized
    join and flows, rebuilt from their powers of two, overflow to inf
    without a RuntimeWarning, as plain float arithmetic does."""
    t = build_conv_trellis((7, 5), 3).relabeled(lambda e: 1e300)
    g = DepthFunctionTable.from_clabels(t)
    fd, bd = forward_distributions(t, g, "exact"), backward_distributions(t, g, "exact")
    assert max(fd.exact[t.sink].mass) == math.inf
    trellis_distribution(fd, bd, t.rank // 2)
    state = forward_numerators(t, g, 2)
    assert trellis_moments(state).numerators[0] == state.table[t.sink][0] == math.inf
    fd = forward_distributions(t, g, "quantized")
    params = distributions.QuantizationParams(fd.half_bins, fd.bin_width)
    bd = backward_distributions(t, g, "quantized", params)
    assert trellis_distribution(fd, bd, t.rank // 2).total() == math.inf
    assert fd.flows[t.sink] == math.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_quantized_overflow_is_silent():
    """[7,5] K=3 over AWGN sigma2=0.5 with g = 1e308*clabel and 32 bins of
    width 1: the means pass the largest double, and every shift of the
    merges is nan.  The sweeps run without a RuntimeWarning; at the sink
    the mean is nan and the nan weights land in both boundary bins."""
    code = build_conv_trellis((7, 5), 3)
    _, received = make_received(code, Awgn(0.5), 1)
    t = channel_lambda_labels(code, Awgn(0.5), received)
    g = DepthFunctionTable({e.id: 1e308 * e.clabel for e in t.edges})
    params = distributions.QuantizationParams(32, 1.0)
    fd = forward_distributions(t, g, "quantized", params)
    sink = fd.quantized[t.sink]
    assert math.isnan(sink.mean)
    assert np.flatnonzero(np.isnan(sink.mass)).tolist() == [0, 64]
    bd = backward_distributions(t, g, "quantized", params)
    assert math.isnan(trellis_distribution(fd, bd, t.rank // 2).mean)
