"""Which ``repro`` entry points the traced run wraps, and the per-layer
metrics derived from their spans and counters.

Metric names are ``<module>.<metric>``; every traced run reports every
metric, so a layer a workload leaves idle reads 0.  Counts and seconds
are totals over the traced pass, set-up included.  Seconds are self
time (duration minus wrapped child calls) unless the name says
otherwise: ``lk.s``, ``node.compute_s`` and ``divide.regions_s`` are
inclusive, with ``node.compute_self_s`` and ``divide.scheduler_self_s``
as their self-time counterparts.
"""

from __future__ import annotations

#: name -> unit, in report order.
PER_LAYER = {
    "lk.calls": "count",
    "lk.s": "s",
    "lk.share": "ratio",
    "lk.candidate_scans": "count",
    "lk.flips_applied": "count",
    "lk.flips_undone": "count",
    "lk.undo_ratio": "ratio",
    "lk.segment_swaps": "count",
    "lk.queue_wakeups": "count",
    "lk.ops_per_s": "1/s",
    "kick.count": "count",
    "kick.self_s": "s",
    "kick.accept_ratio": "ratio",
    "kick.improve_ratio": "ratio",
    "construct.calls": "count",
    "construct.s": "s",
    "tsp.materialize_s": "s",
    "tsp.row_lists_s": "s",
    "tsp.candidates_s": "s",
    "tsp.dense_mb_computed": "MB",
    "node.iterations": "count",
    "node.compute_s": "s",
    "node.compute_self_s": "s",
    "node.select_s": "s",
    "node.restarts": "count",
    "sim.steps": "count",
    "sim.self_s": "s",
    "net.messages": "count",
    "net.bytes_computed": "bytes",
    "net.dropped": "count",
    "divide.partition_s": "s",
    "divide.regions_s": "s",
    "divide.scheduler_self_s": "s",
    "divide.stitch_s": "s",
    "divide.repair_s": "s",
    "divide.regions": "count",
    "divide.boundary_edges": "count",
    "divide.stitch_gain_pct": "%",
    "divide.repair_gain_pct": "%",
    "svc.submit_s": "s",
    "svc.run_s": "s",
    "svc.wait_frac": "ratio",
    "svc.slices": "count",
    "svc.store_hits": "count",
    "svc.store_misses": "count",
    "svc.store_hit_ratio": "ratio",
    "trace.overhead_pct": "%",
}

_LK_FIELDS = ("calls", "candidate_scans", "flips_applied", "flips_undone",
              "segment_swaps", "queue_wakeups")

#: Bytes per city of a tour payload (``tour_payload`` ships int32 orders).
_PAYLOAD_BYTES_PER_CITY = 4


def install(rec) -> None:
    """Wrap the public entry points of every layer on ``rec``."""
    import importlib

    from repro.core.events import EventKind
    from repro.core.node import EANode
    from repro.core.session import SolveSession
    from repro.distributed.simulator import Simulator
    from repro.divide.scheduler import RegionScheduler
    from repro.localsearch.chained_lk import ChainedLK
    from repro.localsearch.lin_kernighan import LinKernighan
    from repro.service.service import SolverService
    from repro.service.store import InstanceStore
    from repro.tsp.candidates import CandidateSet
    from repro.tsp.instance import TSPInstance

    # By module path: the packages re-export same-named functions.
    clk_module = importlib.import_module("repro.localsearch.chained_lk")
    pipeline = importlib.import_module("repro.divide.pipeline")

    def lk_probe(lk, *args, **kwargs):
        before = lk.stats.copy()

        def finish(_):
            delta = lk.stats - before
            for field in _LK_FIELDS:
                rec.count("lk." + field, getattr(delta, field))
        return finish

    def kick_probe(solver, best, *args, **kwargs):
        best_length = best.length

        def finish(cand):
            rec.count("kick.accepted", cand.length <= best_length)
            rec.count("kick.improved", cand.length < best_length)
        return finish

    def materialize_probe(instance):
        # Read-only look at the cache slot: was a dense matrix built?
        cold = instance._matrix_cache is None

        def finish(_):
            if cold and instance._matrix_cache is not None:
                rec.count("tsp.dense_bytes", instance._matrix_cache.nbytes)
        return finish

    def compute_probe(node, *args, **kwargs):
        before = len(node.events.of_kind(EventKind.RESTART))

        def finish(_):
            rec.count("node.restarts",
                      len(node.events.of_kind(EventKind.RESTART)) - before)
        return finish

    def step_probe(sim):
        stats = sim.network.stats
        messages, dropped = stats.messages, stats.dropped

        def finish(node):
            if node is None:
                return
            rec.count("sim.steps")
            sent = stats.messages - messages
            rec.count("net.messages", sent)
            rec.count("net.bytes_computed",
                      sent * sim.instance.n * _PAYLOAD_BYTES_PER_CITY)
            rec.count("net.dropped", stats.dropped - dropped)
        return finish

    rec.wrap(LinKernighan, "optimize", "lk", lk_probe)
    rec.wrap(ChainedLK, "step", "kick", kick_probe)
    rec.wrap(ChainedLK, "initial_tour", "clk.initial_tour")
    rec.wrap(clk_module, "quick_boruvka", "construct")
    rec.wrap(TSPInstance, "materialize", "tsp.materialize", materialize_probe)
    rec.wrap(TSPInstance, "matrix_row_lists", "tsp.row_lists")
    for cls in _with_own(CandidateSet, "row_lists"):
        rec.wrap(cls, "row_lists", "tsp.candidates")
    rec.wrap(EANode, "compute", "node.compute", compute_probe)
    rec.wrap(EANode, "select", "node.select")
    rec.wrap(Simulator, "step", "sim.step", step_probe)
    rec.wrap(SolveSession, "run_steps", "session.run_steps")
    rec.wrap(pipeline, "partition_instance", "divide.partition")
    rec.wrap(pipeline, "stitch_tours", "divide.stitch")
    rec.wrap(pipeline, "boundary_repair", "divide.repair")
    rec.wrap(RegionScheduler, "run", "divide.regions")
    rec.wrap(SolverService, "submit", "svc.submit")
    rec.wrap(InstanceStore, "intern", "svc.intern")


def _with_own(base, attr: str) -> list:
    """``base`` and every subclass that defines ``attr`` itself."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in vars(cls):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(rec, solve_wall: float, untraced_wall: float,
           service: dict | None = None, divide: dict | None = None) -> dict:
    """Per-layer metrics from a finished traced pass.

    ``solve_wall`` is the traced pass's timed solve section and
    ``untraced_wall`` the same requests' wall time without wrappers.
    ``service`` carries store hit/miss deltas and the summed job latency;
    ``divide`` the summed :class:`DivideResult` counters.
    """
    spans = rec.totals()
    c = rec.counters

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    lk_s = total("lk")
    kicks = calls("kick")
    svc_run = total("session.run_steps") if service else 0.0
    service = service or {}
    divide = divide or {}
    lookups = service.get("store_hits", 0) + service.get("store_misses", 0)
    values = {
        "lk.calls": c["lk.calls"],
        "lk.s": lk_s,
        "lk.share": _ratio(lk_s, solve_wall),
        "lk.candidate_scans": c["lk.candidate_scans"],
        "lk.flips_applied": c["lk.flips_applied"],
        "lk.flips_undone": c["lk.flips_undone"],
        "lk.undo_ratio": _ratio(c["lk.flips_undone"], c["lk.flips_applied"]),
        "lk.segment_swaps": c["lk.segment_swaps"],
        "lk.queue_wakeups": c["lk.queue_wakeups"],
        "lk.ops_per_s": _ratio(
            c["lk.candidate_scans"] + c["lk.segment_swaps"], lk_s),
        "kick.count": kicks,
        "kick.self_s": self_s("kick"),
        "kick.accept_ratio": _ratio(c["kick.accepted"], kicks),
        "kick.improve_ratio": _ratio(c["kick.improved"], kicks),
        "construct.calls": calls("construct"),
        "construct.s": total("construct"),
        "tsp.materialize_s": self_s("tsp.materialize"),
        "tsp.row_lists_s": self_s("tsp.row_lists"),
        "tsp.candidates_s": self_s("tsp.candidates"),
        "tsp.dense_mb_computed": c["tsp.dense_bytes"] / 1e6,
        "node.iterations": calls("node.compute"),
        "node.compute_s": total("node.compute"),
        "node.compute_self_s": self_s("node.compute"),
        "node.select_s": total("node.select"),
        "node.restarts": c["node.restarts"],
        "sim.steps": c["sim.steps"],
        "sim.self_s": self_s("sim.step"),
        "net.messages": c["net.messages"],
        "net.bytes_computed": c["net.bytes_computed"],
        "net.dropped": c["net.dropped"],
        "divide.partition_s": total("divide.partition"),
        "divide.regions_s": total("divide.regions"),
        "divide.scheduler_self_s": self_s("divide.regions"),
        "divide.stitch_s": total("divide.stitch"),
        "divide.repair_s": total("divide.repair"),
        "divide.regions": divide.get("regions", 0),
        "divide.boundary_edges": divide.get("boundary_edges", 0),
        "divide.stitch_gain_pct": 100.0 * _ratio(
            divide.get("naive", 0) - divide.get("stitched", 0),
            divide.get("naive", 0)),
        "divide.repair_gain_pct": 100.0 * _ratio(
            divide.get("repair_gain", 0), divide.get("stitched", 0)),
        "svc.submit_s": total("svc.submit"),
        "svc.run_s": svc_run,
        "svc.wait_frac": (1.0 - _ratio(svc_run, service["latency_s"])
                          if service else 0.0),
        "svc.slices": calls("session.run_steps") if service else 0,
        "svc.store_hits": service.get("store_hits", 0),
        "svc.store_misses": service.get("store_misses", 0),
        "svc.store_hit_ratio": _ratio(service.get("store_hits", 0), lookups),
        "trace.overhead_pct": 100.0 * _ratio(solve_wall - untraced_wall,
                                             untraced_wall),
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER.items()}
