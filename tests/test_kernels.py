"""Vectorized kernel tier: bit-identical parity with the row tier.

The engine's hard contract (docs/ALGORITHMS.md, "Scan-kernel tiers") is
that ``kernel="vector"`` selects the *same move sequence* as the row
reference — identical tours, identical OpStats counters, identical
WorkMeter charges — under every provider, threshold configuration, and
budget.  These tests pin the hybrid dispatch constants to 0 so the
NumPy batch paths run on every scan (the shipped thresholds route most
scans to the reference loop, which would make parity vacuous), and also
run once at the shipped defaults.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core import solve
from repro.localsearch import LKConfig, kernels, lkcore
from repro.localsearch.engine import (
    DistView,
    KERNELS,
    OpStats,
    resolve_kernel,
    run_pipeline,
)
from repro.localsearch.lin_kernighan import lin_kernighan
from repro.localsearch.or_opt import or_opt
from repro.localsearch.two_opt import two_opt
from repro.tsp import generators, get_candidate_set
from repro.tsp.candidates import ExplicitCandidates
from repro.tsp.instance import TSPInstance
from repro.tsp.tour import random_tour
from repro.utils.rng import ensure_rng
from repro.utils.sanitize import set_sanitize
from repro.utils.work import WorkMeter


@pytest.fixture
def force_vector_paths(monkeypatch):
    """Pin all hybrid dispatch thresholds to 0: every scan vectorizes."""
    monkeypatch.setattr(kernels, "SMALL_WINDOW", 0)
    monkeypatch.setattr(kernels, "PREFIX", 0)
    monkeypatch.setattr(kernels, "OR_MIN_WIDTH", 0)
    monkeypatch.setattr(kernels, "LK_MIN_WINDOW", 0)


def _run_op(op, inst, provider, seed, budget=None, prefer_rows=True, **kw):
    """Run ``op`` under both kernels from the same start tour; return
    {kernel: (order, length, OpStats, meter.ops)} snapshots."""
    start = random_tour(inst, ensure_rng(seed))
    view = DistView(inst, prefer_rows=prefer_rows)
    out = {}
    for kern in ("row", "vector"):
        tour = start.copy()
        stats = OpStats()
        meter = WorkMeter(budget_ops=budget) if budget else WorkMeter()
        op(tour, candidates=provider, meter=meter, stats=stats, view=view,
           kernel=kern, **kw)
        out[kern] = (tour.order.tolist(), tour.length, stats, meter.ops)
    return out


class TestMoveParity:
    @pytest.mark.parametrize("provider_name,k", [
        ("knn", 6), ("knn", 16), ("quadrant", 8), ("alpha", 5),
    ])
    def test_two_opt_and_or_opt_across_providers(
        self, force_vector_paths, provider_name, k
    ):
        inst = generators.uniform(140, rng=98 + k).materialize()
        provider = get_candidate_set(provider_name, k=k)
        for op, kw in ((two_opt, {}), (or_opt, {"max_seg": 3})):
            for seed in (1, 5):
                out = _run_op(op, inst, provider, seed, **kw)
                assert out["row"] == out["vector"], (
                    f"{op.__name__} diverged: {provider_name} k={k} "
                    f"seed={seed}"
                )

    def test_uneven_row_widths(self, force_vector_paths, rng):
        # Explicit provider re-sorted by distance, then quadrant rows
        # (naturally uneven widths) — the padded-matrix mask path.
        inst = generators.uniform(90, rng=17).materialize()
        arr = np.stack([
            rng.choice(
                [c for c in range(inst.n) if c != i], size=7, replace=False
            )
            for i in range(inst.n)
        ])
        provider = ExplicitCandidates(arr, assume_sorted=False)
        out = _run_op(two_opt, inst, provider, seed=3)
        assert out["row"] == out["vector"]
        quad = get_candidate_set("quadrant", k=10)
        widths = {len(r) for r in quad.row_lists(inst)}
        out = _run_op(or_opt, inst, quad, seed=3, max_seg=3)
        assert out["row"] == out["vector"]
        assert len(widths) >= 1  # uneven or not, parity held above

    @pytest.mark.parametrize("budget", [150, 1200, 9000])
    def test_meter_interruption_parity(self, force_vector_paths, budget):
        # An exhausted meter must stop both tiers at the same move with
        # the same total charge.
        inst = generators.uniform(160, rng=31).materialize()
        provider = get_candidate_set("knn", k=10)
        for op in (two_opt, or_opt):
            out = _run_op(op, inst, provider, seed=9, budget=budget)
            assert out["row"] == out["vector"]

    def test_matrix_free_gather_fallback(self, force_vector_paths):
        # prefer_rows=False leaves DistView.matrix None: the kernels
        # must fall back to gather()/gather_pairs() coordinate math.
        inst = generators.uniform(80, rng=23)
        provider = get_candidate_set("knn", k=8)
        for op in (two_opt, or_opt):
            out = _run_op(op, inst, provider, seed=2, prefer_rows=False)
            assert out["row"] == out["vector"]

    def test_shipped_thresholds_also_bit_identical(self):
        # No monkeypatching: the production hybrid dispatch.
        assert kernels.SMALL_WINDOW > 0  # make vacuity visible
        inst = generators.uniform(200, rng=77).materialize()
        provider = get_candidate_set("knn", k=12)
        for op in (two_opt, or_opt):
            out = _run_op(op, inst, provider, seed=4)
            assert out["row"] == out["vector"]

    def test_lin_kernighan_sweep_parity(self, force_vector_paths):
        inst = generators.uniform(120, rng=55).materialize()
        for pname, budget in itertools.product(
            ("knn", "quadrant"), (None, 4000)
        ):
            provider = get_candidate_set(pname, k=8)
            outs = {}
            for kern in ("row", "vector"):
                tour = random_tour(inst, ensure_rng(6))
                meter = (
                    WorkMeter(budget_ops=budget) if budget else WorkMeter()
                )
                stats = OpStats()
                lin_kernighan(tour, candidates=provider, meter=meter,
                              stats=stats, kernel=kern)
                outs[kern] = (tour.order.tolist(), tour.length, stats,
                              meter.ops)
            assert outs["row"] == outs["vector"], (pname, budget)


class TestInt64GainArithmetic:
    def test_gains_beyond_int32_stay_exact(self, force_vector_paths, rng):
        # Weights near INT32_MAX: a two-edge gain expression overflows
        # int32 arithmetic; the kernels must compute it in int64 and
        # still match the (pure-Python int) reference bit for bit.
        n = 40
        w = rng.integers(2**30, 2**31 + 2**29, size=(n, n), dtype=np.int64)
        m = np.triu(w, 1)
        m = m + m.T
        inst = TSPInstance(matrix=m, edge_weight_type="EXPLICIT",
                           name="huge40")
        assert int(m.max()) > 2**31 - 1
        provider = get_candidate_set("knn", k=8)
        for op in (two_opt, or_opt):
            out = _run_op(op, inst, provider, seed=13)
            assert out["row"] == out["vector"]
        cd, _lists, _valid = kernels._candidate_distances(
            inst, provider, DistView(inst)
        )
        assert cd.dtype == np.int64

    def test_candidate_distances_are_int64_on_geometric(self):
        inst = generators.uniform(50, rng=3).materialize()
        provider = get_candidate_set("knn", k=6)
        cd, _lists, _valid = kernels._candidate_distances(
            inst, provider, DistView(inst)
        )
        assert cd.dtype == np.int64


class TestSanitizedVectorRuns:
    def test_vector_kernels_pass_runtime_sanitizer(self, force_vector_paths):
        set_sanitize(True)
        try:
            inst = generators.uniform(100, rng=44).materialize()
            provider = get_candidate_set("knn", k=8)
            for op in (two_opt, or_opt):
                out = _run_op(op, inst, provider, seed=8)
                assert out["row"] == out["vector"]
        finally:
            set_sanitize(None)


class TestKernelSelection:
    def test_resolve_kernel_defaults_and_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        # The C core is the default wherever it loads; row otherwise.
        default = "compiled" if lkcore.available() else "row"
        assert resolve_kernel(None) == default
        assert resolve_kernel("vector") == "vector"
        monkeypatch.setenv("REPRO_KERNEL", "vector")
        assert resolve_kernel(None) == "vector"
        assert resolve_kernel("scalar") == "scalar"  # explicit beats env
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("simd")

    def test_lkconfig_rejects_unknown_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            LKConfig(kernel="turbo")
        assert LKConfig(kernel="vector").kernel in KERNELS

    def test_run_pipeline_threads_kernel_and_shares_view(self):
        from repro.obs import Tracer, use_tracer

        inst = generators.uniform(70, rng=21).materialize()
        tours = {}
        for kern in ("row", "vector"):
            tracer = Tracer(enabled=True)
            tour = random_tour(inst, ensure_rng(5))
            with use_tracer(tracer):
                run_pipeline(tour, ("two_opt", "or_opt"), candidates="knn",
                             kernel=kern)
            tours[kern] = (tour.order.tolist(), tour.length)
            for op_name in ("two_opt", "or_opt"):
                assert tracer.metrics.counter_value(
                    "engine.kernel_calls", op=op_name, kernel=kern
                ) == 1
        assert tours["row"] == tours["vector"]

    def test_driver_solve_kernel_override(self):
        inst = generators.uniform(60, rng=9).materialize()
        results = [
            solve(inst, budget_vsec_per_node=0.05, n_nodes=2,
                  kernel=kern, rng=1)
            for kern in ("row", "vector")
        ]
        assert results[0].best_length == results[1].best_length
        assert (results[0].best_tour.order.tolist()
                == results[1].best_tour.order.tolist())


class TestCandidateMatrixForm:
    def test_matrix_agrees_with_row_lists_and_pads(self):
        inst = generators.uniform(60, rng=12).materialize()
        provider = get_candidate_set("quadrant", k=10)
        rows = provider.row_lists(inst)
        cmat, mask = provider.matrix(inst)
        assert cmat.shape == mask.shape
        assert cmat.shape[1] == max(len(r) for r in rows)
        for i, row in enumerate(rows):
            assert cmat[i, : len(row)].tolist() == row
            assert mask[i, : len(row)].all()
            assert not mask[i, len(row):].any()
        assert not cmat.flags.writeable
        assert not mask.flags.writeable

    def test_distview_gather_matches_scalar(self):
        inst = generators.uniform(40, rng=8)
        dense = DistView(inst)
        sparse = DistView(inst, prefer_rows=False)  # matrix is None
        js = np.array([1, 5, 9, 20], dtype=np.intp)
        for view in (dense, sparse):
            got = view.gather(3, js)
            assert got.dtype == np.int64
            assert got.tolist() == [inst.dist(3, int(j)) for j in js]
            pairs = view.gather_pairs(np.array([2, 7]), np.array([11, 0]))
            assert pairs.tolist() == [inst.dist(2, 11), inst.dist(7, 0)]
