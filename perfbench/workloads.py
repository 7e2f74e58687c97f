"""The benchmark's workloads.

Each workload is a closed loop of solve requests against one public
``repro`` entry point.  ``setup`` builds the inputs from the workload
seed and pays every cache before timing starts; ``measure`` runs
requests until the time budget is spent (or replays a fixed plan, for
the traced pass) and checks every output outside the timed section.

Reference and target lengths are recorded here once, never recomputed
per run (see README.md for their provenance).
"""

from __future__ import annotations

import asyncio
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.driver import solve
from repro.core.session import SolveSession
from repro.divide import DivideConfig, divide_and_optimize
from repro.localsearch.chained_lk import ChainedLK
from repro.localsearch.lin_kernighan import LKConfig
from repro.service import JobError, SolverService
from repro.tsp import generators, registry
from repro.tsp.instance import TSPInstance
from repro.utils.sanitize import SanitizeError, check_tour

#: Held-Karp bound of ``clustered(1000, rng=7)`` (held_karp_bound:
#: 146844.46 after 200 iterations; ~60 s, so never computed per run).
CLUSTERED1K_HK = 146844
#: Asymptotic optimal tour length of n uniform points in a square of
#: area A (Beardwood-Halton-Hammersley): 0.7124 * sqrt(n * A).
BHH_CONSTANT = 0.7124
_SQUARE_SIDE = 10_000.0


@dataclass
class Request:
    """One finished solve request, already checked."""

    wall: float
    vsec: float
    length: int
    reference: float
    lk_calls: int | None = None
    #: Wall seconds until the incumbent first reached the target.
    to_target: float | None = None
    failures: list = field(default_factory=list)
    #: Workload-specific counters (``DivideResult`` fields).
    extra: dict = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        return self.length / self.reference


@dataclass
class Batch:
    """Everything one ``measure`` call produced."""

    requests: list
    #: Wall seconds of the timed sections (the whole loop for service).
    wall: float
    #: Replaying this reproduces the same requests (traced pass).
    plan: object = None
    extra: dict = field(default_factory=dict)


def request_seed(seed: int, *index: int) -> int:
    """Deterministic per-request solver seed."""
    return int(np.random.SeedSequence((seed, *index)).generate_state(1)[0])


def _check(tour, what: str, failures: list) -> None:
    try:
        check_tour(tour, what)
    except SanitizeError as exc:
        failures.append(str(exc))


def _testbed(name: str):
    """A fresh registry instance (``get_instance`` caches its instances,
    so a repeated set-up would find every cache already warm)."""
    return next(e for e in registry.TESTBED if e.name == name).make()


def _warm(instance) -> None:
    """Dense matrix, its row lists and the LK candidate lists."""
    instance.materialize()
    instance.matrix_row_lists()
    LKConfig().make_candidates().row_lists(instance)


class SingleClient:
    """A closed loop of one client calling a solver back to back."""

    name = ""
    why = ""
    target: float | None = None

    def setup(self, seed: int):
        raise NotImplementedError

    def request(self, state, rseed: int) -> Request:
        raise NotImplementedError

    def measure(self, state, seed: int, seconds: float | None = None,
                plan: int | None = None, tag=None) -> Batch:
        """``tag(i)`` is called before request ``i`` (span run ids)."""
        requests: list[Request] = []
        start = time.perf_counter()
        while True:
            if plan is not None:
                if len(requests) >= plan:
                    break
            elif requests:
                # Start another request only if it is likely to end in time.
                typical = statistics.median(r.wall for r in requests)
                if time.perf_counter() - start + typical > seconds:
                    break
            if tag is not None:
                tag(len(requests))
            requests.append(
                self.request(state, request_seed(seed, len(requests))))
        return Batch(requests, sum(r.wall for r in requests),
                     plan=len(requests))

    def _target_watch(self, hits: list):
        """Callback stamping the wall clock whenever length <= target."""
        def seen(length: int) -> None:
            if length <= self.target:
                hits.append(time.perf_counter())
        return seen


class ClkClustered1k(SingleClient):
    """Sequential CLK, the instance behind the ROADMAP's own numbers."""

    name = "clk_clustered1k"
    why = ("sequential CLK on clustered(1000, rng=7): ~98% of wall in LK, "
           "so LK speed-ups show here and other layers idle")
    n = 1000
    budget_vsec = 10.0
    reference = CLUSTERED1K_HK
    #: 2.6% above the Held-Karp bound: reached after a few kicks.
    target = 150661

    def setup(self, seed: int):
        instance = generators.clustered(self.n, rng=7)
        _warm(instance)
        # Solver construction is set-up too; each request builds its own
        # solver from the warm caches, outside the timed section.
        ChainedLK(instance, batch_backend="inline")
        return instance

    def request(self, instance, rseed: int) -> Request:
        solver = ChainedLK(instance, kick="random_walk", rng=rseed,
                           batch_width=1, batch_backend="inline")
        hits: list = []
        seen = self._target_watch(hits)
        start = time.perf_counter()
        result = solver.run(budget_vsec=self.budget_vsec, free_init=True,
                            on_improvement=lambda vsec, length: seen(length))
        wall = time.perf_counter() - start
        failures: list = []
        _check(result.tour, self.name, failures)
        if not hits:
            failures.append(f"target {self.target} not reached "
                            f"(final {result.length})")
        return Request(wall, result.work_vsec, result.length,
                       self.reference, result.op_stats.calls,
                       hits[0] - start if hits else None, failures)


class DistclkFl300(SingleClient):
    """8-node DistCLK on the fl3795 analogue, the paper's headline case."""

    name = "distclk_fl300"
    why = ("8-node DistCLK (sim, hypercube) on fl300, the fl3795 analogue: "
           "adds construction, select, broadcast and message traffic to LK")
    budget_vsec = 1.0
    n_nodes = 8
    c_v = 8

    def __init__(self):
        self.reference = registry.best_known("fl300")
        #: 3% above best known: reached by the network's first tours.
        self.target = int(self.reference * 1.03)

    def _session(self, instance, rseed: int, on_incumbent=None):
        return SolveSession(
            instance, self.budget_vsec, n_nodes=self.n_nodes,
            topology="hypercube", c_v=self.c_v, free_init=True,
            kick_batch_width=1, kick_batch_backend="inline", rng=rseed,
            on_incumbent=on_incumbent)

    def setup(self, seed: int):
        instance = _testbed("fl300")
        _warm(instance)
        self._session(instance, seed)
        return instance

    def request(self, instance, rseed: int) -> Request:
        hits: list = []
        seen = self._target_watch(hits)
        session = self._session(instance, rseed,
                                lambda vsec, length, node: seen(length))
        start = time.perf_counter()
        result = session.run()
        wall = time.perf_counter() - start
        failures: list = []
        _check(result.best_tour, self.name, failures)
        if not hits:
            failures.append(f"target {self.target} not reached "
                            f"(final {result.best_length})")
        return Request(wall, float(sum(result.clocks.values())),
                       result.best_length, self.reference,
                       result.total_op_stats().calls,
                       hits[0] - start if hits else None, failures)


class DivideUniform10k(SingleClient):
    """Divide-and-optimize above the dense-matrix limit."""

    name = "divide_uniform10k"
    why = ("divide_and_optimize (sim) on uniform(10000): above the dense "
           "limit; region caches, construction, partition and scalar "
           "repair take over a third of wall")
    n = 10_000
    region_size = 800
    budget_vsec = 1.0

    def setup(self, seed: int):
        instance = generators.uniform(self.n, rng=request_seed(seed))
        # Above the dense limit: no matrix; the partition's k-NN lists
        # are the parent's only cache.
        instance.neighbor_lists(DivideConfig().boundary_k)
        return instance

    def request(self, instance, rseed: int) -> Request:
        config = DivideConfig(region_size=self.region_size, backend="sim")
        start = time.perf_counter()
        result = divide_and_optimize(
            instance, config, budget_vsec_per_node=self.budget_vsec,
            n_nodes_per_region=1, kick="random_walk", rng=rseed)
        wall = time.perf_counter() - start
        failures: list = []
        _check(result.tour, self.name, failures)
        if not (result.naive_length >= result.stitched_length
                >= result.length):
            failures.append("merge made the tour longer")
        reference = BHH_CONSTANT * (self.n * _SQUARE_SIDE ** 2) ** 0.5
        return Request(wall, result.work_vsec, result.length, reference,
                       failures=failures, extra={
                           "regions": result.n_regions,
                           "boundary_edges":
                               int(result.partition.boundary_edges.shape[0]),
                           "naive": result.naive_length,
                           "stitched": result.stitched_length,
                           "repair_gain": result.repair_gain,
                       })


class ServiceMixed:
    """Two closed-loop clients over an in-process ``SolverService``."""

    name = "service_mixed"
    why = ("2 closed-loop clients over SolverService(sim): half the jobs "
           "hit warm pooled instances, half are store misses that pay caches")
    clients = 2
    pool_names = ("C100", "E100", "fl150")
    budget_vsec = 0.5
    n_nodes = 2
    params = {"kick_batch_width": 1, "kick_batch_backend": "inline"}

    def setup(self, seed: int):
        pool = [_testbed(name) for name in self.pool_names]
        for instance in pool:
            _warm(instance)
        return pool

    def _job(self, pool: list, seed: int, client: int, index: int):
        """The instance, reference and solver seed of one job.

        Even jobs resubmit a pooled instance (store hit, warm caches);
        odd jobs submit a city-permuted copy of one (new digest, so a
        store miss with cold caches, but the same optimal length).
        """
        rng = np.random.default_rng(request_seed(seed, client, index))
        k = int(rng.integers(len(pool)))
        base = pool[k]
        reference = registry.best_known(self.pool_names[k])
        if index % 2 == 0:
            instance = base
        else:
            perm = rng.permutation(base.n)
            instance = TSPInstance.from_payload({
                **base.to_payload(), "coords": base.coords[perm],
                "name": f"{base.name}-p{client}.{index}"})
        return instance, reference, int(rng.integers(2**31 - 1))

    def measure(self, pool, seed: int, seconds: float | None = None,
                plan: tuple | None = None, tag=None) -> Batch:
        """Jobs interleave on one event loop, so ``tag`` is unused: the
        spans of the whole loop share one run id."""
        return asyncio.run(self._measure(pool, seed, seconds, plan))

    async def _measure(self, pool, seed, seconds, plan) -> Batch:
        async with SolverService(backend="sim") as svc:
            for instance in pool:
                svc.store.intern(instance)
            store0 = svc.stats()["store"]
            done: list[list] = [[] for _ in range(self.clients)]
            start = time.perf_counter()
            deadline = start + (seconds or 0.0)

            async def client(c: int) -> None:
                while True:
                    i = len(done[c])
                    if plan is not None:
                        if i >= plan[c]:
                            return
                    elif i and time.perf_counter() >= deadline:
                        return
                    instance, reference, job_seed = self._job(
                        pool, seed, c, i)
                    t0 = time.perf_counter()
                    job_id = svc.submit(
                        instance, tenant=f"client{c}", seed=job_seed,
                        budget_vsec_per_node=self.budget_vsec,
                        n_nodes=self.n_nodes, **self.params)
                    try:
                        result = await svc.result(job_id, timeout=120.0)
                        error = None
                    except (JobError, asyncio.TimeoutError) as exc:
                        result, error = None, str(exc)
                    done[c].append((time.perf_counter() - t0, instance,
                                    reference, job_seed, result, error))

            tasks = [asyncio.create_task(client(c))
                     for c in range(self.clients)]
            for task in tasks:
                await task
            wall = time.perf_counter() - start
            store1 = svc.stats()["store"]

        requests = []
        for jobs in done:
            for latency, instance, reference, _, result, error in jobs:
                if result is None:
                    requests.append(Request(latency, 0.0, 0, reference,
                                            failures=[error]))
                    continue
                failures: list = []
                _check(result.best_tour, self.name, failures)
                requests.append(Request(
                    latency, float(sum(result.clocks.values())),
                    result.best_length, reference,
                    result.total_op_stats().calls, failures=failures))
        batch = Batch(requests, wall, plan=tuple(len(j) for j in done),
                      extra={
                          "store_hits": store1["hits"] - store0["hits"],
                          "store_misses": store1["misses"] - store0["misses"],
                          "latency_s": sum(r.wall for r in requests),
                      })
        if plan is None:
            self._check_sampled(done, seed, requests)
        return batch

    def _check_sampled(self, done: list, seed: int, requests: list) -> None:
        """One seeded job must equal a direct ``solve(rng=S)`` bit for bit."""
        flat = [job for jobs in done for job in jobs]
        k = int(np.random.default_rng(seed).integers(len(flat)))
        _, instance, _, job_seed, result, _ = flat[k]
        if result is None:
            return  # already counted as failed
        direct = solve(instance, self.budget_vsec, n_nodes=self.n_nodes,
                       rng=job_seed, **self.params)
        if not (direct.best_length == result.best_length
                and np.array_equal(direct.best_tour.order,
                                   result.best_tour.order)):
            requests[k].failures.append(
                f"job {k} differs from solve(rng={job_seed}): "
                f"{result.best_length} vs {direct.best_length}")


WORKLOADS = {w.name: w for w in (ClkClustered1k, DistclkFl300,
                                 DivideUniform10k, ServiceMixed)}
