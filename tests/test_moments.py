import math
import threading

import numpy as np
import pytest

from trelliskit import (
    DepthFunctionTable,
    Edge,
    LOGREAL,
    REAL,
    SemiringError,
    TROPICAL,
    Trellis,
    ZeroFlowError,
    backward_numerators,
    build_spc_trellis,
    counted_run,
    counted_symbol_pass,
    dumps_trellis,
    forward_numerators,
    get_semiring,
    joint_forward_numerators,
    joint_trellis_moments,
    loads_trellis,
    normalized_states,
    symbol_moments,
    trellis_moments,
)
from trelliskit import moments
from trelliskit.data import bundled_trellis
from trelliskit.oracles import (
    oracle_backward_numerator,
    oracle_forward_numerator,
    oracle_joint_moment,
    oracle_min_path_metric,
    oracle_moment,
    random_g_table,
    random_trellis,
)

from conftest import assert_close


def relabeled_random(trellis, seed):
    rng = np.random.default_rng(seed)
    return trellis.relabeled(lambda e: float(1.0 - rng.random()))


class TestForwardBackward:
    def test_spc4_reference_moments(self, spc4, spc4_clabel_g):
        fwd = forward_numerators(spc4, spc4_clabel_g, 2)
        m = trellis_moments(fwd)
        assert m.numerators == (8.0, 0.0, 32.0)
        assert m.normalized == (1.0, 0.0, 4.0)

    def test_order_zero_is_flow(self):
        for seed in (0, 1, 2):
            t = random_trellis(seed)
            g = random_g_table(t, seed + 100)
            fwd = forward_numerators(t, g, 0)
            for v in t.vertices:
                assert_close(
                    fwd.table[v][0],
                    oracle_forward_numerator(t, g, 0, v),
                    1e-10,
                )

    def test_forward_matches_oracle_at_every_vertex(self):
        t = random_trellis(7)
        g = random_g_table(t, 70)
        fwd = forward_numerators(t, g, 3)
        for v in t.vertices:
            for m in range(4):
                assert_close(
                    fwd.table[v][m],
                    oracle_forward_numerator(t, g, m, v),
                    1e-9,
                    f"forward v={v} m={m}",
                )

    def test_backward_matches_oracle_at_every_vertex(self):
        t = random_trellis(8)
        g = random_g_table(t, 80)
        bwd = backward_numerators(t, g, 3)
        for v in t.vertices:
            for m in range(4):
                assert_close(
                    bwd.table[v][m],
                    oracle_backward_numerator(t, g, m, v),
                    1e-9,
                    f"backward v={v} m={m}",
                )

    def test_duality_sink_equals_source(self):
        for seed in range(5):
            t = random_trellis(seed)
            g = random_g_table(t, seed + 50)
            fwd = forward_numerators(t, g, 4)
            bwd = backward_numerators(t, g, 4)
            for m in range(5):
                assert_close(
                    fwd.table[t.sink][m], bwd.table[t.source][m], 1e-12
                )

    def test_trellis_moments_accepts_both_directions(self, spc4, spc4_clabel_g):
        fwd = trellis_moments(forward_numerators(spc4, spc4_clabel_g, 2))
        bwd = trellis_moments(backward_numerators(spc4, spc4_clabel_g, 2))
        assert fwd.numerators == bwd.numerators

    def test_single_path_moments_are_powers(self):
        t = Trellis(
            3,
            {0: 0, 1: 1, 2: 2, 3: 3},
            [Edge(0, 0, 1, 0.5), Edge(1, 1, 2, 0.5), Edge(2, 2, 3, 0.5)],
        )
        g = DepthFunctionTable({0: 1.5, 1: -0.5, 2: 2.0})
        m = trellis_moments(forward_numerators(t, g, 4))
        for k in range(5):
            assert_close(m.normalized[k], 3.0**k, 1e-12)

    def test_variance_nonnegative(self):
        for seed in range(10):
            t = random_trellis(seed)
            g = random_g_table(t, seed)
            m = trellis_moments(forward_numerators(t, g, 2))
            var = m.normalized[2] - m.normalized[1] ** 2
            assert var >= -1e-12

    def test_zero_flow_flagged_not_nan(self):
        t = Trellis(
            2,
            {0: 0, 1: 1, 2: 2},
            [Edge(0, 0, 1, 0.0), Edge(1, 1, 2, 1.0)],
        )
        g = DepthFunctionTable.constant(t, 1.0)
        m = trellis_moments(forward_numerators(t, g, 2))
        assert m.numerators == (0.0, 0.0, 0.0)
        assert m.normalized is None

    def test_order_cap(self, spc4, spc4_clabel_g):
        with pytest.raises(SemiringError):
            forward_numerators(spc4, spc4_clabel_g, 65)

    def test_invalid_trellis_rejected(self):
        from trelliskit import TrellisStructureError

        t = Trellis(2, {0: 0, 1: 1, 2: 2, 9: 1}, [Edge(0, 0, 1), Edge(1, 1, 2)])
        with pytest.raises(TrellisStructureError):
            forward_numerators(t, DepthFunctionTable.constant(t, 0.0), 0)


class TestSemiringGeneric:
    def test_tropical_flow_is_viterbi_metric(self):
        for seed in range(5):
            t = random_trellis(seed)
            rng = np.random.default_rng(seed + 11)
            t = t.relabeled(lambda e: float(rng.uniform(0.0, 10.0)))
            g = DepthFunctionTable.constant(t, 0.0)
            fwd = forward_numerators(t, g, 0, TROPICAL)
            assert fwd.table[t.sink][0] == oracle_min_path_metric(t)

    def test_logreal_matches_real_for_positive_inputs(self):
        t = random_trellis(6)
        g = random_g_table(t, 66, low=0.1, high=2.0)
        real = forward_numerators(t, g, 3, REAL)
        logd = forward_numerators(t, g, 3, LOGREAL)
        for v in t.vertices:
            for m in range(4):
                # in the log semiring the separable function combines by
                # log-sum-exp, i.e. the carrier image of the real-domain sum
                assert_close(
                    math.exp(logd.table[v][m]), real.table[v][m], 1e-9
                )

    def test_logreal_normalized_reported_in_real_domain(self):
        t = random_trellis(6)
        g = random_g_table(t, 66, low=0.1, high=2.0)
        real = trellis_moments(forward_numerators(t, g, 2, REAL))
        logd = trellis_moments(forward_numerators(t, g, 2, LOGREAL))
        for a, b in zip(real.normalized, logd.normalized):
            assert_close(a, b, 1e-9)

    def test_logreal_symbol_moments_match_real(self):
        t = random_trellis(6)
        g = random_g_table(t, 66, low=0.1, high=2.0)
        real_f = forward_numerators(t, g, 2, REAL)
        real_b = backward_numerators(t, g, 2, REAL)
        log_f = forward_numerators(t, g, 2, LOGREAL)
        log_b = backward_numerators(t, g, 2, LOGREAL)
        for x in (-1.0, 1.0):
            want = symbol_moments(t, g, real_f, real_b, 1, x)
            got = symbol_moments(t, g, log_f, log_b, 1, x)
            for m in range(3):
                assert_close(math.exp(got.numerators[m]), want.numerators[m], 1e-9)

    def test_maxprod_flow_is_best_path_product(self):
        from trelliskit import MAXPROD, enumerate_paths, path_label

        t = random_trellis(18)
        g = DepthFunctionTable.constant(t, 0.0)
        fwd = forward_numerators(t, g, 0, MAXPROD)
        best = max(path_label(p) for p in enumerate_paths(t))
        assert_close(fwd.table[t.sink][0], best, 1e-12)

    def test_boolean_flow_is_reachability(self):
        from trelliskit import BOOLEAN

        t = random_trellis(19)
        g = DepthFunctionTable.constant(t, 1.0)
        fwd = forward_numerators(t, g, 0, BOOLEAN)
        assert fwd.table[t.sink][0] is True
        dead = t.relabeled(lambda e: 0.0)
        fwd = forward_numerators(dead, g, 0, BOOLEAN)
        assert fwd.table[t.sink][0] is False

    def test_tropical_moments_match_enumeration(self):
        # min-plus numerators: min over paths of (label sum + m * min g).
        from trelliskit import enumerate_paths

        t = random_trellis(2)
        g = random_g_table(t, 22, low=0.0, high=3.0)
        fwd = forward_numerators(t, g, 2, TROPICAL)
        for m in range(3):
            best = math.inf
            for path in enumerate_paths(t):
                label = sum(e.lam for e in path)
                fval = min(g.value(e) for e in path)
                best = min(best, label + m * fval)
            assert_close(fwd.table[t.sink][m], best, 1e-12)


# g tables each semiring accepts: max-product and boolean only at order 0.
SEMIRING_CASES = {
    "real": (-2.0, 2.0, 3),
    "logreal": (0.1, 2.0, 3),
    "tropical": (-2.0, 2.0, 3),
    "maxprod": (0.0, 0.0, 0),
    "boolean": (0.0, 0.0, 0),
}


class TestBothDirections:
    @pytest.mark.parametrize("name", sorted(SEMIRING_CASES))
    @pytest.mark.parametrize("seed", range(6))
    def test_backward_source_equals_forward_sink(self, name, seed):
        semiring = get_semiring(name)
        low, high, max_order = SEMIRING_CASES[name]
        # Power-of-two labels keep every path product exact in floating
        # point, so max-product can be compared exactly.
        rng = np.random.default_rng(seed)
        t = random_trellis(seed + 40).relabeled(
            lambda e: 2.0 ** -int(rng.integers(0, 6))
        )
        g = random_g_table(t, seed + 400, low=low, high=high)
        fwd = forward_numerators(t, g, max_order, semiring).table[t.sink]
        bwd = backward_numerators(t, g, max_order, semiring).table[t.source]
        if name in ("maxprod", "boolean"):
            assert bwd == fwd
        else:
            for m in range(max_order + 1):
                assert_close(bwd[m], fwd[m], 1e-12, f"{name} m={m}")

    def test_unknown_direction_rejected(self, spc4, spc4_clabel_g):
        with pytest.raises(SemiringError, match="sideways"):
            normalized_states(spc4, spc4_clabel_g, 1, direction="sideways")


class TestSymbolMoments:
    def test_cut_consistency_order_zero(self):
        for seed in range(5):
            t = random_trellis(seed)
            g = random_g_table(t, seed + 5)
            fwd = forward_numerators(t, g, 2)
            bwd = backward_numerators(t, g, 2)
            theta0 = fwd.table[t.sink][0]
            for depth in range(1, t.rank + 1):
                total = sum(
                    symbol_moments(t, g, fwd, bwd, depth, x).numerators[0]
                    for x in (-1.0, 1.0)
                )
                assert_close(total, theta0, 1e-10, f"depth {depth}")

    def test_matches_constrained_oracle(self):
        t = random_trellis(13)
        g = random_g_table(t, 130)
        fwd = forward_numerators(t, g, 3)
        bwd = backward_numerators(t, g, 3)
        for depth in range(1, t.rank + 1):
            for x in (-1.0, 1.0):
                sym = symbol_moments(t, g, fwd, bwd, depth, x)
                for m in range(4):
                    assert_close(
                        sym.numerators[m],
                        oracle_moment(t, g, m, (depth, x)),
                        1e-9,
                        f"depth {depth} x {x} m {m}",
                    )

    def test_missing_symbol_gives_zero_and_flag(self, spc4, spc4_clabel_g):
        fwd = forward_numerators(spc4, spc4_clabel_g, 2)
        bwd = backward_numerators(spc4, spc4_clabel_g, 2)
        sym = symbol_moments(spc4, spc4_clabel_g, fwd, bwd, 2, 7.0)
        assert sym.numerators == (0.0, 0.0, 0.0)
        assert sym.normalized is None

    def test_direction_check(self, spc4, spc4_clabel_g):
        fwd = forward_numerators(spc4, spc4_clabel_g, 1)
        with pytest.raises(SemiringError):
            symbol_moments(spc4, spc4_clabel_g, fwd, fwd, 1, 1.0)

    def test_states_of_another_trellis_raise(self, spc4, spc4_clabel_g):
        spc6 = build_spc_trellis(6)
        g6 = DepthFunctionTable.from_clabels(spc6)
        fwd = forward_numerators(spc4, spc4_clabel_g, 2)
        bwd = backward_numerators(spc4, spc4_clabel_g, 2)
        bwd6 = backward_numerators(spc6, g6, 2)
        with pytest.raises(SemiringError, match="not swept over this trellis"):
            symbol_moments(spc4, spc4_clabel_g, fwd, bwd6, 2, 1.0)
        with pytest.raises(SemiringError, match="not swept over this trellis"):
            symbol_moments(spc6, g6, fwd, bwd, 2, 1.0)

    def test_states_of_a_copy_or_a_reload_are_accepted(self, spc4, spc4_clabel_g):
        fwd = forward_numerators(spc4, spc4_clabel_g, 2)
        bwd = backward_numerators(spc4, spc4_clabel_g, 2)
        want = symbol_moments(spc4, spc4_clabel_g, fwd, bwd, 2, 1.0)
        copy = spc4.relabeled(lambda e: e.lam)
        reloaded = loads_trellis(dumps_trellis(spc4))
        assert reloaded.plan("forward").where is not spc4.plan("forward").where
        for t in (copy, reloaded):
            assert symbol_moments(t, spc4_clabel_g, fwd, bwd, 2, 1.0) == want


class TestJointMoments:
    def test_degenerate_second_function(self):
        t = random_trellis(3)
        gy = random_g_table(t, 31)
        gz = DepthFunctionTable.constant(t, 0.0)
        joint = joint_forward_numerators(t, gy, gz, 3, 2)
        plain = forward_numerators(t, gy, 3)
        for v in t.vertices:
            for k in range(4):
                assert_close(
                    joint.table[v][k][0], plain.table[v][k], 1e-12
                )

    def test_order_zero_is_flow(self):
        t = random_trellis(4)
        gy = random_g_table(t, 41)
        gz = random_g_table(t, 42)
        joint = joint_forward_numerators(t, gy, gz, 2, 2)
        plain = forward_numerators(t, gy, 0)
        for v in t.vertices:
            assert_close(joint.table[v][0][0], plain.table[v][0], 1e-12)

    def test_matches_oracle(self):
        t = random_trellis(15)
        gy = random_g_table(t, 151)
        gz = random_g_table(t, 152)
        joint = joint_forward_numerators(t, gy, gz, 2, 2)
        for v in t.vertices:
            for k in range(3):
                for m in range(3):
                    assert_close(
                        joint.table[v][k][m],
                        oracle_joint_moment(t, gy, gz, k, m, v),
                        1e-9,
                        f"joint v={v} ({k},{m})",
                    )

    def test_depth_weighted_cross_moment(self, spc4):
        gy = DepthFunctionTable.from_clabels(spc4)
        gz = DepthFunctionTable.from_edges(
            spc4, lambda depth, e: depth * e.clabel
        )
        joint = joint_forward_numerators(spc4, gy, gz, 1, 1)
        grid, normalized = joint_trellis_moments(joint)
        assert_close(
            grid[1][1], oracle_joint_moment(spc4, gy, gz, 1, 1), 1e-12
        )
        assert_close(normalized[0][0], 1.0, 1e-12)

    def test_semiring_restriction(self, spc4, spc4_clabel_g):
        with pytest.raises(SemiringError):
            joint_forward_numerators(
                spc4, spc4_clabel_g, spc4_clabel_g, 1, 1, TROPICAL
            )


class TestNormalizedStates:
    def test_single_edge_normalization_removes_label(self):
        t = Trellis(1, {0: 0, 1: 1}, [Edge(0, 0, 1, 0.001, 1.0)])
        g = DepthFunctionTable({0: 2.5})
        state = normalized_states(t, g, 2)
        assert_close(state.normalized[1][1], 2.5, 1e-12)
        assert_close(state.normalized[1][2], 6.25, 1e-12)

    def test_reconstruction_matches_plain_run(self):
        for seed in range(5):
            t = random_trellis(seed)
            g = random_g_table(t, seed + 7)
            state = normalized_states(t, g, 3)
            plain = forward_numerators(t, g, 3)
            for v in t.vertices:
                rebuilt = state.reconstruct(v)
                for m in range(4):
                    assert_close(
                        rebuilt[m], plain.table[v][m], 1e-9, f"v={v} m={m}"
                    )

    def test_backward_direction(self):
        t = random_trellis(9)
        g = random_g_table(t, 97)
        state = normalized_states(t, g, 2, direction="backward")
        plain = backward_numerators(t, g, 2)
        for v in t.vertices:
            rebuilt = state.reconstruct(v)
            for m in range(3):
                assert_close(rebuilt[m], plain.table[v][m], 1e-9)

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_order_zero_is_exactly_one(self, direction):
        for seed in range(5):
            t = relabeled_random(random_trellis(seed), seed)
            state = normalized_states(t, random_g_table(t, seed), 2, direction)
            assert all(row[0] == 1.0 for row in state.normalized.values())

    def test_survives_underflow_scale(self):
        # rank-10 chain with labels 1e-300 per depth underflows the plain
        # run (flow 1e-3000) but the normalized recursion is unaffected.
        n = 10
        depths = {i: i for i in range(n + 1)}
        edges = [Edge(i, i, i + 1, 1e-300, 1.0) for i in range(n)]
        t = Trellis(n, depths, edges)
        g = DepthFunctionTable.from_clabels(t)
        plain = forward_numerators(t, g, 1)
        assert plain.table[t.sink][0] == 0.0  # underflowed
        state = normalized_states(t, g, 1)
        assert_close(state.normalized[t.sink][1], float(n), 1e-12)
        assert_close(state.log_flow[t.sink], n * math.log(1e-300), 1e-12)

    def test_zero_flow_names_vertex(self):
        t = Trellis(
            2,
            {0: 0, 1: 1, 2: 2},
            [Edge(0, 0, 1, 0.0), Edge(1, 1, 2, 1.0)],
        )
        g = DepthFunctionTable.constant(t, 1.0)
        with pytest.raises(ZeroFlowError) as err:
            normalized_states(t, g, 1)
        assert err.value.vertex == 1


class TestCountedRun:
    @pytest.mark.parametrize("name", ["spc4", "conv75_k2"])
    @pytest.mark.parametrize("max_order", range(5))
    def test_exact_schedule_counts(self, name, max_order):
        t = bundled_trellis(name)
        g = DepthFunctionTable.from_clabels(t)
        _, counter = counted_run(t, g, max_order)
        n_edges = len(t.edges)
        n_vertices = len(t.vertices)
        M = max_order
        assert counter.multiplications == (M * M + 3 * M + 1) * n_edges
        # (M+1)(M+2)/2 per edge minus one bulk correction per vertex/order
        assert counter.additions == (M + 1) * (M + 2) // 2 * n_edges - (
            M + 1
        ) * (n_vertices - 1)
        assert counter.power_multiplications == max(M - 1, 0) * n_edges

    @pytest.mark.parametrize("name", ["spc4", "conv75_k2"])
    @pytest.mark.parametrize("max_order", range(5))
    def test_totals_within_complexity_bracket(self, name, max_order):
        t = bundled_trellis(name)
        g = DepthFunctionTable.from_clabels(t)
        _, counter = counted_run(t, g, max_order)
        M, E = max_order, len(t.edges)
        lower = (1.5 * M * M + 3.5 * M + 1) * E
        upper = (1.5 * M * M + 4.5 * M + 2) * E
        assert lower <= counter.total <= upper

    def test_m0_closed_forms(self, spc4, spc4_clabel_g):
        _, counter = counted_run(spc4, spc4_clabel_g, 0)
        assert counter.multiplications == len(spc4.edges)
        assert counter.additions == len(spc4.edges) - (len(spc4.vertices) - 1)
        assert counter.power_multiplications == 0

    def test_moments_agree_with_plain_engine(self):
        t = random_trellis(21)
        g = random_g_table(t, 212)
        counted, _ = counted_run(t, g, 3)
        plain = trellis_moments(forward_numerators(t, g, 3))
        for a, b in zip(counted.numerators, plain.numerators):
            assert_close(a, b, 1e-12)

    def test_combined_multiplication_bound(self, spc4, spc4_clabel_g):
        for M in range(5):
            _, counter = counted_run(spc4, spc4_clabel_g, M)
            bound = (M * M + 3 * M + 1) * len(spc4.edges) + max(M - 1, 0) * len(
                spc4.edges
            )
            assert (
                counter.multiplications + counter.power_multiplications
                <= bound
            )


class TestCountedSymbolPass:
    @pytest.mark.parametrize("name", ["spc4", "conv75_k2"])
    @pytest.mark.parametrize("order", range(4))
    def test_multiplication_bound(self, name, order):
        t = bundled_trellis(name)
        g = DepthFunctionTable.from_clabels(t)
        fwd = forward_numerators(t, g, order)
        bwd = backward_numerators(t, g, order)
        _, counter = counted_symbol_pass(t, g, fwd, bwd, order)
        M, E = order, len(t.edges)
        assert counter.multiplications <= (M * M + 3 * M + 2) * E

    def test_values_match_symbol_moments(self, spc4, spc4_clabel_g):
        fwd = forward_numerators(spc4, spc4_clabel_g, 2)
        bwd = backward_numerators(spc4, spc4_clabel_g, 2)
        values, _ = counted_symbol_pass(spc4, spc4_clabel_g, fwd, bwd, 2)
        for (depth, x), numerator in values.items():
            sym = symbol_moments(spc4, spc4_clabel_g, fwd, bwd, depth, x)
            assert_close(numerator, sym.numerators[2], 1e-12)

    def test_counter_merge_is_associative(self, spc4, spc4_clabel_g):
        from trelliskit import OpCounter

        _, a = counted_run(spc4, spc4_clabel_g, 1)
        _, b = counted_run(spc4, spc4_clabel_g, 2)
        _, c = counted_run(spc4, spc4_clabel_g, 3)
        assert (a + b) + c == a + (b + c)
        merged = a + b
        assert merged.total == a.total + b.total
        assert merged.power_multiplications == (
            a.power_multiplications + b.power_multiplications
        )


def test_engines_restore_each_threads_error_state(monkeypatch):
    """Thread A waits inside an engine while the main thread runs one to
    the end; A must leave the engine with its own error state back.  One
    errstate instance shared by all calls keeps the saved state on
    itself under numpy 1.x, and hands A the main thread's."""
    t = build_spc_trellis(4)
    g = DepthFunctionTable.from_clabels(t)
    inside, release = threading.Event(), threading.Event()
    require_valid = moments.require_valid

    def waiting(trellis):
        if threading.current_thread().name == "A":
            inside.set()
            assert release.wait(10)
        return require_valid(trellis)

    monkeypatch.setattr(moments, "require_valid", waiting)
    seen = {}

    def thread_a():
        with np.errstate(over="raise"):
            forward_numerators(t, g, 2)
            seen["over"] = np.geterr()["over"]

    a = threading.Thread(target=thread_a, name="A")
    a.start()
    try:
        assert inside.wait(10)
        with np.errstate(over="warn"):
            forward_numerators(t, g, 2)
    finally:
        release.set()
        a.join(10)
    assert not a.is_alive()
    assert seen == {"over": "raise"}


def _pair(t, g, order, forward=REAL, backward=REAL):
    return forward_numerators(t, g, order, forward), backward_numerators(t, g, order, backward)


BOUNDARY_ERRORS = [
    pytest.param(
        lambda t, g: symbol_moments(t, g, *_pair(t, g, 1, REAL, TROPICAL), 1, 1.0),
        "forward and backward states use different semirings",
        id="symbol moments over two semirings",
    ),
    pytest.param(
        lambda t, g: counted_symbol_pass(t, g, *_pair(t, g, 1, TROPICAL, TROPICAL), 1),
        "counted runs support the real semiring only",
        id="counted pass over a non-real semiring",
    ),
    pytest.param(
        lambda t, g: counted_symbol_pass(t, g, *_pair(t, g, 2), 3),
        "states were not computed to the requested order",
        id="counted pass past the states' order",
    ),
]


@pytest.mark.parametrize("call, match", BOUNDARY_ERRORS)
def test_boundary_errors(spc4, spc4_clabel_g, call, match):
    with pytest.raises(SemiringError, match=match):
        call(spc4, spc4_clabel_g)
