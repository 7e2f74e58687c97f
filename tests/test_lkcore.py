"""Compiled LK core: bit-identical parity with the row tier, build cache.

The ``"compiled"`` tier runs whole :meth:`LinKernighan.optimize` calls in
C (:mod:`repro.localsearch.lkcore`).  Its contract is the row tier's:
the same final order and length, every OpStats field and the same
WorkMeter charge, under every provider, breadth/depth setting, budget,
dirty seed and fixed set — and end to end through CLK, DistCLK, divide
and the service.  The build/cache tests run cold builds in temporary
cache directories and with a deliberately broken compiler.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import solve
from repro.core.session import SolveSession
from repro.divide import DivideConfig, divide_and_optimize
from repro.localsearch import LKConfig, lkcore
from repro.localsearch.chained_lk import ChainedLK
from repro.localsearch.engine import KERNELS, OpStats, resolve_kernel
from repro.localsearch.lin_kernighan import LinKernighan
from repro.tsp import generators, get_candidate_set
from repro.tsp.candidates import CandidateSet, ExplicitCandidates
from repro.tsp.instance import TSPInstance
from repro.tsp.tour import random_tour
from repro.utils.rng import ensure_rng
from repro.utils.sanitize import check_tour
from repro.utils.work import WorkMeter

needs_core = pytest.mark.skipif(
    not lkcore.available(),
    reason=f"compiled LK core unavailable: {lkcore.unavailable_reason()}",
)

SRC = Path(__file__).resolve().parents[1] / "src"


class UnevenCandidates(CandidateSet):
    """k-NN rows truncated to widths 2..7 (uneven, still sorted)."""

    name = "uneven"

    def build(self, instance):
        return instance.neighbor_lists(self.k)

    def row_lists(self, instance):
        key = ("cand-rows",) + self.cache_key()
        cached = instance._neighbor_cache.get(key)
        if cached is None:
            cached = [row.tolist()[: 2 + i % 6]
                      for i, row in enumerate(self.lists(instance))]
            instance._neighbor_cache[key] = cached
        return cached


def _snapshot(tour, stats, meter):
    return (tour.order.tolist(), tour.length, stats.to_json(), meter.ops)


def _run_both(inst, start, provider=None, config=None, budget=None,
              dirty=None, fixed=None):
    """Optimize copies of ``start`` on the row and compiled tiers."""
    out = {}
    for kern in ("row", "compiled"):
        lk = LinKernighan(inst, config, candidates=provider, kernel=kern)
        assert lk.kernel == kern
        tour = start.copy()
        meter = WorkMeter(budget_ops=budget)
        lk.optimize(tour, meter, dirty=dirty, fixed=fixed)
        assert tour.length == tour.recompute_length()
        out[kern] = _snapshot(tour, lk.stats, meter)
    return out


@needs_core
class TestOptimizeParity:
    @pytest.mark.parametrize("provider_name", ["knn", "quadrant", "uneven"])
    def test_random_seeds_across_providers(self, provider_name):
        inst = generators.uniform(220, rng=5).materialize()
        if provider_name == "uneven":
            provider = UnevenCandidates(k=8)
            assert len({len(r) for r in provider.row_lists(inst)}) > 1
        else:
            provider = get_candidate_set(provider_name, k=8)
        for seed in range(4):
            start = random_tour(inst, ensure_rng(seed))
            out = _run_both(inst, start, provider)
            assert out["row"] == out["compiled"], (provider_name, seed)

    def test_explicit_matrix_and_resorted_explicit_rows(self, rng):
        inst = generators.random_matrix(90, rng=4)
        arr = np.stack([
            rng.choice([c for c in range(inst.n) if c != i], size=7,
                       replace=False)
            for i in range(inst.n)
        ])
        provider = ExplicitCandidates(arr, assume_sorted=False)
        for seed in (1, 2):
            start = random_tour(inst, ensure_rng(seed))
            out = _run_both(inst, start, provider)
            assert out["row"] == out["compiled"]

    @pytest.mark.parametrize("breadth,max_depth", [
        ((5, 3, 1), 50), ((1,), 50), ((3, 2, 2, 1), 6), ((8, 8), 3),
        ((4,), 1), ((2, 5, 2), 12),
    ])
    def test_breadth_and_depth_configs(self, breadth, max_depth):
        inst = generators.clustered(180, rng=9).materialize()
        config = LKConfig(breadth=breadth, max_depth=max_depth,
                          neighbor_k=10)
        for seed in (3, 4):
            start = random_tour(inst, ensure_rng(seed))
            out = _run_both(inst, start, config=config)
            assert out["row"] == out["compiled"], (breadth, max_depth, seed)

    def test_budgets_stopping_mid_chain(self):
        inst = generators.uniform(200, rng=31).materialize()
        start = random_tour(inst, ensure_rng(9))
        budgets = [1, 40, 150, 1200, 9000, 33333.5]
        budgets += ensure_rng(2).integers(100, 60000, size=12).tolist()
        for budget in budgets:
            out = _run_both(inst, start, budget=budget)
            assert out["row"] == out["compiled"], budget
            assert out["row"][3] >= budget  # the budget really ran out

    def test_dirty_seeds_in_iteration_order(self):
        inst = generators.uniform(200, rng=12).materialize()
        # Start from a local optimum, kick it, re-optimize the dirty cities.
        base = random_tour(inst, ensure_rng(1))
        LinKernighan(inst, kernel="row").optimize(base)
        for seed in range(3):
            r = ensure_rng(seed)
            start = base.copy()
            cuts = sorted(r.choice(np.arange(1, inst.n), 3, replace=False))
            start.double_bridge(cuts)
            ends = [int(start.order[c]) for c in cuts]
            dirty_list = ends + [int(start.order[c - 1]) for c in cuts]
            strided = np.repeat(np.array(dirty_list), 2)[::2]
            assert not strided.flags.c_contiguous
            for dirty in (dirty_list, set(dirty_list),
                          np.array(dirty_list[::-1]), strided,
                          dirty_list + dirty_list[:3], []):
                out = _run_both(inst, start, dirty=dirty)
                assert out["row"] == out["compiled"], (seed, dirty)

    def test_fixed_edges_both_and_one_orientation(self):
        inst = generators.uniform(160, rng=21).materialize()
        start = random_tour(inst, ensure_rng(4))
        base = start.copy()
        LinKernighan(inst, kernel="row").optimize(base)
        order = base.order.tolist()
        edges = [(order[i], order[i + 1]) for i in range(0, inst.n - 1, 3)]
        both = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}
        one_way = {(a, b) for a, b in edges}
        for fixed in (both, one_way, set()):
            for tour in (start, base):
                out = _run_both(inst, tour, fixed=fixed)
                assert out["row"] == out["compiled"], len(fixed)

    def test_near_int32_max_weights(self, rng):
        n = 40
        w = rng.integers(2**30, 2**31 + 2**29, size=(n, n), dtype=np.int64)
        m = np.triu(w, 1)
        m = m + m.T
        inst = TSPInstance(matrix=m, edge_weight_type="EXPLICIT",
                           name="huge40")
        out = _run_both(inst, random_tour(inst, ensure_rng(13)))
        assert out["row"] == out["compiled"]

    def test_stats_accumulate_across_calls_like_row(self):
        inst = generators.uniform(150, rng=3).materialize()
        outs = {}
        for kern in ("row", "compiled"):
            lk = LinKernighan(inst, kernel=kern)
            meter = WorkMeter()
            tours = [random_tour(inst, ensure_rng(s)) for s in range(3)]
            gains = [lk.optimize(t, meter) for t in tours]
            outs[kern] = (gains, [t.order.tolist() for t in tours],
                          lk.stats.to_json(), meter.ops)
        assert outs["row"] == outs["compiled"]


@needs_core
class TestWakeOrder:
    def test_set_emulation_matches_cpython(self):
        lib = lkcore.load()
        r = ensure_rng(7)
        for _ in range(500):
            size = int(r.integers(2, 400))
            keys = r.integers(0, 100_000, size=size).tolist()
            expected = set()
            for k in keys:
                expected.add(k)
            assert lkcore._set_order(lib, keys, 100_000) == list(expected)

    def test_crafted_set_order_differs_from_insertion(self):
        lib = lkcore.load()
        # 13 and 10 collide in the 8-slot table and land in probe slots
        # 3 and 0.  (Built by add(), like LK's touched set: a constant
        # set literal is a frozenset merge and may order differently.)
        keys = [5, 2, 13, 10]
        touched = set()
        for k in keys:
            touched.add(k)
        assert list(touched) == [10, 2, 13, 5]
        assert lkcore._set_order(lib, keys, 20) == [10, 2, 13, 5]

    def test_lk_run_where_wake_order_is_not_insertion_order(self):
        # Record, for each improving chain of a row-tier run, the
        # insertion order of its touched cities; at least one chain must
        # wake its cities in a different (set) order, so the parity
        # asserted below would fail with an insertion-ordered queue.
        inst = generators.uniform(200, rng=8).materialize()
        start = random_tour(inst, ensure_rng(5))
        lk = LinKernighan(inst, kernel="row")
        record: list = []
        stack: list = []
        differing = []
        apply_flip = lk._apply_flip
        search_chain = lk._search_chain

        def flip(tour, t1, u, v, w, meter):
            if stack and stack[-1] == (t1, w, v, u):
                stack.pop()  # an undo flip: touches nothing
            else:
                stack.append((t1, u, v, w))
                record.extend((u, v, w))
            return apply_flip(tour, t1, u, v, w, meter)

        def chain(tour, t1, u0, meter, fixed=None):
            record[:] = [t1, u0]
            stack.clear()
            gain, touched = search_chain(tour, t1, u0, meter, fixed)
            if gain > 0:
                inserted = list(dict.fromkeys(record))
                assert sorted(inserted) == sorted(touched)
                differing.append(inserted != list(touched))
            return gain, touched

        lk._apply_flip = flip
        lk._search_chain = chain
        tour = start.copy()
        meter = WorkMeter()
        lk.optimize(tour, meter)
        assert any(differing)
        out = _run_both(inst, start)
        assert out["row"] == out["compiled"]
        assert out["row"][:2] == (tour.order.tolist(), tour.length)


class TestKernelSelection:
    def test_resolve_kernel_defaults_and_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        # The C core is the default wherever it loads; row otherwise.
        default = "compiled" if lkcore.available() else "row"
        assert resolve_kernel(None) == default
        assert resolve_kernel("row") == "row"
        monkeypatch.setenv("REPRO_KERNEL", "row")
        assert resolve_kernel(None) == "row"
        if lkcore.available():
            assert resolve_kernel("compiled") == "compiled"  # beats env
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("simd")

    @pytest.mark.parametrize("name", ["vector", "scalar"])
    def test_removed_tiers_rejected(self, monkeypatch, name):
        # The deleted NumPy tier and the old scalar knob must fail loudly,
        # as an argument or via the environment, never fall back.
        known = r"known: \('row', 'compiled'\)"
        inst = generators.uniform(30, rng=1).materialize()
        with pytest.raises(ValueError, match=known):
            resolve_kernel(name)
        with pytest.raises(ValueError, match=known):
            LinKernighan(inst, kernel=name)
        monkeypatch.setenv("REPRO_KERNEL", name)
        with pytest.raises(ValueError, match=known):
            resolve_kernel(None)
        with pytest.raises(ValueError, match=known):
            LinKernighan(inst)
        # The CLI offers only the two tiers.
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["clk", "fl150", "--kernel", name])
        args = build_parser().parse_args(["clk", "fl150", "--kernel", "row"])
        assert args.kernel == "row"

    def test_lkconfig_rejects_unknown_kernel(self):
        for name in ("turbo", "vector", "scalar"):
            with pytest.raises(ValueError, match="unknown kernel"):
                LKConfig(kernel=name)
        assert LKConfig(kernel="row").kernel in KERNELS

    @needs_core
    def test_run_pipeline_threads_kernel_and_shares_view(self):
        from repro.localsearch.engine import run_pipeline
        from repro.obs import Tracer, use_tracer

        inst = generators.uniform(70, rng=21).materialize()
        tours = {}
        for kern in KERNELS:
            tracer = Tracer(enabled=True)
            tour = random_tour(inst, ensure_rng(5))
            with use_tracer(tracer):
                run_pipeline(tour, ("two_opt", "or_opt", "lk"),
                             candidates="knn", kernel=kern)
            tours[kern] = (tour.order.tolist(), tour.length)
            for op_name in ("two_opt", "or_opt", "lk"):
                assert tracer.metrics.counter_value(
                    "engine.kernel_calls", op=op_name, kernel=kern
                ) == 1
        assert tours["row"] == tours["compiled"]

    @needs_core
    def test_driver_solve_kernel_override(self):
        inst = generators.uniform(60, rng=9).materialize()
        results = [
            solve(inst, budget_vsec_per_node=0.05, n_nodes=2,
                  kernel=kern, rng=1)
            for kern in KERNELS
        ]
        assert results[0].best_length == results[1].best_length
        assert (results[0].best_tour.order.tolist()
                == results[1].best_tour.order.tolist())

    @needs_core
    def test_default_is_compiled_when_core_loads(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert resolve_kernel(None) == "compiled"
        inst = generators.uniform(50, rng=1).materialize()
        assert LinKernighan(inst).kernel == "compiled"
        monkeypatch.setenv("REPRO_KERNEL", "row")
        assert LinKernighan(inst).kernel == "row"

    @needs_core
    def test_matrix_free_instance_runs_row_loops(self, monkeypatch):
        monkeypatch.setattr("repro.tsp.instance._DENSE_LIMIT", 30)
        inst = generators.uniform(40, rng=2)
        lk = LinKernighan(inst, kernel="compiled")
        assert lk.kernel == "row" and lk._core is None
        tour = random_tour(inst, ensure_rng(1))
        lk.optimize(tour)
        check_tour(tour, "matrix-free")

    @needs_core
    def test_other_operators_treat_compiled_as_row(self):
        from repro.localsearch.engine import run_pipeline

        inst = generators.uniform(90, rng=6).materialize()
        tours = {}
        for kern in ("row", "compiled"):
            tour = random_tour(inst, ensure_rng(2))
            stats = OpStats()
            meter = WorkMeter()
            run_pipeline(tour, ("two_opt", "or_opt", "three_opt"),
                         candidates="knn", stats=stats, meter=meter,
                         kernel=kern)
            tours[kern] = _snapshot(tour, stats, meter)
        assert tours["row"] == tours["compiled"]


# -- build, cache and fallback ------------------------------------------------


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """A fresh, empty build cache and an untried loader."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(lkcore, "_state",
                        {"lib": None, "error": None, "tried": False})
    return tmp_path / "cache" / "repro"


class TestBuildAndFallback:
    @pytest.mark.parametrize("compiler", ["false", "/nonexistent/cc"])
    def test_failing_compiler_falls_back_to_row(self, cold_cache,
                                                monkeypatch, compiler):
        monkeypatch.setattr(lkcore, "COMPILER", compiler)
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert not lkcore.available()
        assert resolve_kernel(None) == "row"
        inst = generators.uniform(40, rng=3).materialize()
        assert LinKernighan(inst).kernel == "row"
        with pytest.raises(lkcore.CompiledKernelUnavailable,
                           match="kernel 'compiled' is unavailable"):
            resolve_kernel("compiled")
        with pytest.raises(lkcore.CompiledKernelUnavailable):
            LinKernighan(inst, kernel="compiled")
        monkeypatch.setenv("REPRO_KERNEL", "compiled")
        with pytest.raises(lkcore.CompiledKernelUnavailable):
            resolve_kernel(None)

    @needs_core
    def test_cold_build_is_private_and_atomic(self, cold_cache):
        assert lkcore.available()
        assert cold_cache.stat().st_mode & 0o777 == 0o700
        files = sorted(p.name for p in cold_cache.iterdir())
        assert files == [lkcore.library_path().name]

    def test_shared_cache_directory_is_refused(self, cold_cache):
        cold_cache.mkdir(parents=True)
        cold_cache.chmod(0o777)
        assert not lkcore.available()
        assert "not private" in lkcore.unavailable_reason()

    @needs_core
    def test_two_processes_racing_a_cold_build_both_load(self, tmp_path):
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "race"),
               "PYTHONPATH": str(SRC)}
        env.pop("REPRO_KERNEL", None)
        code = ("from repro.localsearch import lkcore; "
                "print(lkcore.available(), lkcore.unavailable_reason())")
        procs = [subprocess.Popen([sys.executable, "-c", code], env=env,
                                  stdout=subprocess.PIPE, text=True)
                 for _ in range(2)]
        outs = [p.communicate(timeout=300)[0].strip() for p in procs]
        assert outs == ["True None", "True None"]
        cache = tmp_path / "race" / "repro"
        assert len(list(cache.iterdir())) == 1  # no temp files left


# -- end to end: default (compiled) vs REPRO_KERNEL=row -------------------------


def _both_kernels(monkeypatch, fn):
    monkeypatch.setenv("REPRO_KERNEL", "row")
    row = fn()
    monkeypatch.delenv("REPRO_KERNEL")
    assert resolve_kernel(None) == "compiled"
    return row, fn()


@needs_core
class TestEndToEnd:
    def test_chained_lk_clustered1k(self, monkeypatch):
        inst = generators.clustered(1000, rng=7).materialize()

        def run():
            solver = ChainedLK(inst, kick="random_walk", rng=3,
                               batch_width=1, batch_backend="inline")
            res = solver.run(budget_vsec=10.0, free_init=True)
            check_tour(res.tour, "clk")
            return (res.tour.order.tolist(), res.length, res.kicks,
                    res.work_vsec, res.op_stats.to_json(), solver.lk.kernel)

        row, compiled = _both_kernels(monkeypatch, run)
        assert (row[-1], compiled[-1]) == ("row", "compiled")
        assert row[:-1] == compiled[:-1]

    def test_distclk_session_fl300(self, monkeypatch):
        from repro.tsp import registry

        inst = registry.get_instance("fl300")

        def run():
            res = SolveSession(inst, 0.5, n_nodes=8, topology="hypercube",
                               c_v=8, free_init=True, kick_batch_width=1,
                               kick_batch_backend="inline", rng=2).run()
            return (res.best_tour.order.tolist(), res.best_length,
                    res.clocks, {k: v.to_json()
                                 for k, v in res.op_stats.items()},
                    res.network_stats.messages)

        row, compiled = _both_kernels(monkeypatch, run)
        assert row == compiled

    def test_divide_sim(self, monkeypatch):
        inst = generators.uniform(1200, rng=4)

        def run():
            res = divide_and_optimize(
                inst, DivideConfig(region_size=300, backend="sim"),
                budget_vsec_per_node=0.2, n_nodes_per_region=1,
                kick="random_walk", rng=5)
            return (res.tour.order.tolist(), res.length, res.naive_length,
                    res.stitched_length, res.regions_vsec, res.repair_vsec)

        row, compiled = _both_kernels(monkeypatch, run)
        assert row == compiled

    def test_service_job(self, monkeypatch):
        import asyncio

        from repro.service import SolverService

        inst = generators.uniform(80, rng=6)
        params = dict(budget_vsec_per_node=0.3, n_nodes=2, topology="ring",
                      kick_batch_width=1, kick_batch_backend="inline")

        async def main():
            async with SolverService(backend="sim") as svc:
                job_id = svc.submit(inst, seed=4, **params)
                return await svc.result(job_id, timeout=120)

        def run():
            res = asyncio.run(main())
            return (res.best_tour.order.tolist(), res.best_length,
                    res.total_op_stats().to_json())

        row, compiled = _both_kernels(monkeypatch, run)
        assert row == compiled
        direct = solve(inst, rng=4, **params)
        assert compiled[:2] == (direct.best_tour.order.tolist(),
                                direct.best_length)
