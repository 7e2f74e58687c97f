"""Tests for the shared local-search engine layer.

Covers the engine primitives (DistView, DontLookQueue, OpStats), the
operator registry and pipelines, cross-operator invariants over a shared
candidate set, and the telemetry threading through ChainedLK, EANode and
the simulator.
"""

import numpy as np
import pytest

from repro.construct import quick_boruvka
from repro.core import solve
from repro.localsearch import (
    ChainedLK,
    DistView,
    DontLookQueue,
    LKConfig,
    LinKernighan,
    OpStats,
    get_operator,
    lin_kernighan,
    operator_names,
    or_opt,
    run_pipeline,
    two_opt,
)
from repro.tsp import generators, get_candidate_set
from repro.tsp.distances import EDGE_WEIGHT_TYPES
from repro.tsp.instance import TSPInstance
from repro.tsp.tour import Tour, random_tour
from repro.utils.rng import ensure_rng
from repro.utils.work import WorkMeter


DENSE_LIMIT_ATTR = "repro.tsp.instance._DENSE_LIMIT"


def _matrix_free_twin(inst, monkeypatch):
    """``inst``'s coordinates as a second, matrix-free instance.

    ``inst`` is materialized first, so it keeps its dense matrix after
    the dense limit drops below ``n``.
    """
    inst.materialize()
    monkeypatch.setattr(DENSE_LIMIT_ATTR, inst.n - 1)
    twin = TSPInstance(coords=inst.coords,
                       edge_weight_type=inst.edge_weight_type)
    assert DistView(twin).matrix is None
    return twin


class TestDistView:
    def test_coordinate_rows_match_instance_dist(self, monkeypatch):
        # Without a dense matrix the view serves coordinate rows; every
        # metric (GEO included, and the i == j diagonal) must read
        # exactly what instance.dist computes.
        monkeypatch.setattr(DENSE_LIMIT_ATTR, 10)
        coords = ensure_rng(3).uniform(-80.0, 80.0, size=(30, 2))
        for ewt in EDGE_WEIGHT_TYPES:
            if ewt == "EXPLICIT":
                # EXPLICIT instances are their matrix: always dense rows.
                inst = generators.random_matrix(12, rng=3)
                view = DistView(inst)
                assert view.rows is inst.matrix_row_lists()
            else:
                inst = TSPInstance(coords=coords, edge_weight_type=ewt)
                view = DistView(inst)
                assert view.matrix is None
            n = inst.n
            for i in range(n):
                for j in range(n):
                    assert view.rows[i][j] == inst.dist(i, j), (ewt, i, j)
                    assert view.dist(i, j) == inst.dist(i, j)
        # A matrix-free operator run keeps its rows on the view: the
        # instance's shared row cache stays empty.
        inst = TSPInstance(coords=coords)
        two_opt(random_tour(inst, ensure_rng(1)))
        assert inst.matrix_row_lists() is None
        assert inst._matrix_rows is None

    def test_rows_shared_across_views(self, small_instance):
        a = DistView(small_instance)
        b = DistView(small_instance)
        assert a.rows is b.rows  # one cached copy per instance

    def test_distview_gather_matches_scalar(self, monkeypatch):
        # divide/repair.py's input: int64 from the matrix or from
        # coordinate math alike.
        inst = generators.uniform(40, rng=8)
        dense = DistView(inst)
        sparse = DistView(_matrix_free_twin(inst, monkeypatch))
        js = np.array([1, 5, 9, 20], dtype=np.intp)
        for view in (dense, sparse):
            got = view.gather(3, js)
            assert got.dtype == np.int64
            assert got.tolist() == [inst.dist(3, int(j)) for j in js]


class TestDontLookQueue:
    def test_fifo_no_duplicates(self):
        q = DontLookQueue(5)
        q.seed([3, 1, 4])
        q.push(3)  # already queued: no-op
        assert len(q) == 3
        assert [q.pop(), q.pop(), q.pop()] == [3, 1, 4]
        assert not q

    def test_wakeups_count_only_reactivations(self):
        q = DontLookQueue(6)
        q.seed(range(4))
        assert q.wakeups == 0
        q.push(0)  # in queue: not a wakeup
        assert q.wakeups == 0
        q.pop()
        q.push(0)  # re-activation
        assert q.wakeups == 1
        q.seed([4, 5])  # seeding is not a wakeup
        assert q.wakeups == 1
        assert len(q) == 6

    def test_seed_skips_already_queued(self):
        q = DontLookQueue(4)
        q.seed([2, 2, 3])
        assert len(q) == 2
        assert q.pop() == 2

    def test_clear(self):
        q = DontLookQueue(3)
        q.fill(range(3))
        q.clear()
        assert not q
        q.push(1)
        assert len(q) == 1


class TestOpStats:
    def test_merge_and_subtract(self):
        a = OpStats(calls=1, candidate_scans=10, gain=5)
        b = OpStats(calls=2, candidate_scans=3, moves=4)
        a0 = a.copy()
        a.merge(b)
        assert a.calls == 3 and a.candidate_scans == 13 and a.moves == 4
        # Subtraction windows a span of work back out of a running total.
        assert a - b == a0

    def test_json_roundtrip(self):
        s = OpStats(calls=2, flips_applied=7, segment_swaps=11, gain=99)
        assert OpStats.from_json(s.to_json()) == s

    def test_from_json_tolerates_old_files(self):
        assert OpStats.from_json(None) == OpStats()
        assert OpStats.from_json({}) == OpStats()
        partial = OpStats.from_json({"calls": 3})
        assert partial.calls == 3 and partial.gain == 0

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError, match="unknown"):
            OpStats(not_a_counter=1)

    def test_copy_is_independent(self):
        a = OpStats(moves=1)
        b = a.copy()
        b.moves = 9
        assert a.moves == 1


class TestRegistry:
    def test_known_operators(self):
        assert set(operator_names()) >= {"two_opt", "or_opt", "three_opt", "lk"}
        assert get_operator("two_opt") is two_opt
        assert get_operator("or_opt") is or_opt

    def test_unknown_operator_raises(self):
        with pytest.raises(ValueError, match="unknown operator"):
            get_operator("five_opt")

    def test_run_pipeline(self, small_instance, rng):
        t = random_tour(small_instance, rng)
        before = t.length
        stats = OpStats()
        gain = run_pipeline(t, ("lk", "or_opt"), stats=stats)
        assert t.is_valid()
        assert t.length == t.recompute_length() == before - gain
        assert stats.calls >= 2  # every stage flushed into the shared sink

    def test_pipeline_shares_candidates(self, small_instance, rng):
        provider = get_candidate_set("knn", k=6)
        t = random_tour(small_instance, rng)
        run_pipeline(t, ("two_opt", "or_opt"), candidates=provider)
        assert t.is_valid()


class TestStatsTelemetry:
    def test_lk_counts_are_consistent(self, small_instance, rng):
        engine = LinKernighan(small_instance)
        t = random_tour(small_instance, rng)
        engine.optimize(t)
        s = engine.stats
        assert s.calls == 1
        assert s.candidate_scans > 0
        assert s.flips_applied >= s.flips_undone
        assert s.segment_swaps > 0
        assert s.gain > 0
        # Net flips kept across the whole call produced the final tour.
        assert s.moves > 0

    def test_stats_deterministic(self, small_instance):
        runs = []
        for _ in range(2):
            engine = LinKernighan(small_instance)
            t = random_tour(small_instance, ensure_rng(99))
            engine.optimize(t)
            runs.append((engine.stats.copy(), t.length))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_two_opt_external_sink(self, small_instance, rng):
        t = random_tour(small_instance, rng)
        stats = OpStats()
        gain = two_opt(t, stats=stats)
        assert stats.calls == 1
        assert stats.gain == gain
        assert stats.candidate_scans > 0

    def test_wrapper_merges_stats(self, small_instance, rng):
        t = random_tour(small_instance, rng)
        sink = OpStats(calls=5)  # pre-existing counts are preserved
        lin_kernighan(t, stats=sink)
        assert sink.calls == 6

    def test_chained_lk_windows_per_run(self, small_instance):
        solver = ChainedLK(small_instance, rng=3)
        r1 = solver.run(max_kicks=4)
        r2 = solver.run(max_kicks=4, initial=r1.tour)
        # Per-run windows, not lifetime cumulative: they sum to the total.
        lifetime = solver.stats
        merged = r1.op_stats.copy().merge(r2.op_stats)
        assert merged == lifetime
        assert r1.op_stats.calls > 0

    def test_chained_lk_polish(self, small_instance):
        plain = ChainedLK(small_instance, rng=5).run(max_kicks=4)
        polished = ChainedLK(
            small_instance, rng=5, polish=("or_opt", "two_opt")
        ).run(max_kicks=4)
        assert polished.tour.is_valid()
        assert polished.length <= plain.length
        assert polished.tour.length == polished.tour.recompute_length()

    def test_node_and_simulator_totals(self):
        inst = generators.uniform(40, rng=60)
        res = solve(inst, budget_vsec_per_node=0.3, n_nodes=2,
                    topology="ring", rng=8)
        assert set(res.op_stats) == {0, 1}
        total = res.total_op_stats()
        assert total.calls == sum(s.calls for s in res.op_stats.values())
        assert total.candidate_scans > 0


class TestCrossOperatorInvariant:
    def test_lk_result_is_two_opt_optimal_same_candidates(self):
        # LK flips subsume 2-opt moves, so over the *same* candidate set
        # the LK fixed point must leave nothing for 2-opt.
        for seed in range(4):
            inst = generators.uniform(80, rng=seed + 100)
            provider = get_candidate_set("knn", k=8)
            t = random_tour(inst, ensure_rng(seed))
            lin_kernighan(t, LKConfig(neighbor_k=8), candidates=provider)
            residual = two_opt(t, candidates=provider)
            assert residual == 0, seed

    @pytest.mark.parametrize("op_name", ["two_opt", "or_opt", "three_opt", "lk"])
    def test_deterministic_across_views(self, rng, op_name, monkeypatch):
        # Dense rows and coordinate rows (the path on instances without
        # a dense matrix) must take the same moves in the same order:
        # identical tours, stats and meter charges (virtual time must
        # not depend on the distance path).
        op = get_operator(op_name)
        inst = generators.uniform(120, rng=9)
        start = random_tour(inst, rng).order
        results = []
        for view_inst in (inst, _matrix_free_twin(inst, monkeypatch)):
            t = Tour(view_inst, start.copy())
            stats = OpStats()
            meter = WorkMeter()
            op(t, stats=stats, meter=meter, kernel="row")
            results.append((t.order.tolist(), stats, meter.ops))
        assert results[0][1].moves > 0
        assert results[0] == results[1]


class TestBaselineCandidateWiring:
    def test_neighbors_setter_routes_rows(self, small_instance, rng):
        # Historically `lk.neighbors = array` silently left the engine on
        # its old rows; the setter must swap both forms together.
        engine = LinKernighan(small_instance)
        sub = quick_boruvka(small_instance)
        from repro.baselines.tour_merging import union_candidate_lists
        union = union_candidate_lists(small_instance, [sub])
        engine.neighbors = union
        assert engine.neighbors.shape == union.shape
        assert engine._neighbor_rows[3] == list(engine.neighbors[3])
        t = random_tour(small_instance, rng)
        engine.optimize(t)
        assert t.is_valid()
