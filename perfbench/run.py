"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload clk_clustered1k --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root; ``repro`` is imported from ``src/``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
the lines above it also print the workload-specific ones.  With
``--trace 1`` the run first measures untraced, then replays the same
requests with every layer wrapped, prints the per-layer metrics and
writes the spans to ``perfbench/out/<workload>-seed<n>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Where traced runs write their span JSONL.
OUT_DIR = HERE / "out"

#: End-to-end metrics (BENCHMARK.json), name -> unit.
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "wall_per_vsec": "s/vsec",
    "length_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: Set-up is repeated at least this often and for at least this long;
#: setup_s is the median.
_SETUP_MIN_REPEATS = 3
_SETUP_MIN_S = 1.0

#: Share of ``--seconds`` the traced mode spends on its untraced pass;
#: the traced replay of the same requests takes a little longer.
_BASELINE_SHARE = 0.4


def leaks() -> list:
    """Child processes and non-main threads still alive."""
    found = [f"child process {p.pid} ({p.name})"
             for p in multiprocessing.active_children()]
    found += [f"thread {t.name}" for t in threading.enumerate()
              if t is not threading.main_thread() and t.is_alive()]
    return found


def reap(timeout: float = 5.0) -> None:
    """Terminate, then kill, every child process; wait for each."""
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(timeout)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def tail_percentile(n: int) -> int | None:
    """Highest percentile, in steps of 5, with >= 10 samples beyond it."""
    for p in range(95, 45, -5):
        if n * (100 - p) / 100 >= 10:
            return p
    return None


def nearest_rank(values: list, p: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _failures(requests: list) -> list:
    return [msg for r in requests for msg in r.failures]


def end_to_end(wl, setups: list, batch) -> tuple[dict, dict]:
    """(gated metrics, workload-specific metrics) of an untraced run."""
    reqs = batch.requests
    solved = [r for r in reqs if r.length]
    ratio = statistics.median(r.ratio for r in solved)
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(r.wall for r in reqs),
        "wall_per_vsec": batch.wall / sum(r.vsec for r in solved),
        "length_ratio": ratio,
        "peak_rss_mb": _peak_rss_mb(),
    }
    extra = {"excess_pct": (100.0 * (ratio - 1.0), "%")}
    calls = [r.lk_calls for r in solved if r.lk_calls is not None]
    if calls:
        extra["lk_calls_per_s"] = (sum(calls) / batch.wall, "1/s")
    hits = [r.to_target for r in reqs if r.to_target is not None]
    if hits:
        extra["time_to_target_s"] = (statistics.median(hits), "s")
    if wl.name == "service_mixed":
        latencies = [r.wall for r in reqs]
        extra["job_latency_p50_s"] = (metrics["solve_s"], "s")
        extra["jobs_per_s"] = (len(reqs) / batch.wall, "1/s")
        p = tail_percentile(len(latencies))
        if p is not None:
            extra["job_latency_tail_s"] = (
                nearest_rank(latencies, p),
                f"s (p{p} of {len(latencies)} jobs)")
    extra["failed_frac"] = (
        sum(1 for r in reqs if r.failures) / len(reqs), "")
    return ({k: _metric(v, END_TO_END[k]) for k, v in metrics.items()},
            extra)


def run_untraced(wl, seed: int, seconds: float) -> tuple:
    setups, state = [], None
    while len(setups) < _SETUP_MIN_REPEATS or sum(setups) < _SETUP_MIN_S:
        state = None  # drop the previous set-up before timing the next
        start = time.perf_counter()
        state = wl.setup(seed)
        setups.append(time.perf_counter() - start)
    batch = wl.measure(state, seed, seconds=seconds)
    metrics, extra = end_to_end(wl, setups, batch)
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    for name, (value, unit) in extra.items():
        print(f"{name} = {value:.6g} {unit}".rstrip())
    reqs = batch.requests
    return metrics, len(reqs), sum(1 for r in reqs if r.failures), \
        _failures(reqs)


def run_traced(wl, seed: int, seconds: float) -> tuple:
    from layers import derive, install
    from spans import SpanRecorder

    base = wl.measure(wl.setup(seed), seed,
                      seconds=seconds * _BASELINE_SHARE)
    rec = SpanRecorder(run_id=f"{wl.name}:{seed}:setup")
    install(rec)

    def tag(i: int) -> None:
        rec.run_id = f"{wl.name}:{seed}:{i}"

    try:
        state = wl.setup(seed)
        rec.run_id = f"{wl.name}:{seed}"
        traced = wl.measure(state, seed, plan=base.plan, tag=tag)
    finally:
        rec.restore()
    out = OUT_DIR / f"{wl.name}-seed{seed}.jsonl"
    rec.write_jsonl(out)

    problems = _failures(base.requests) + _failures(traced.requests)
    base_lengths = [r.length for r in base.requests]
    traced_lengths = [r.length for r in traced.requests]
    mismatched = sum(a != b for a, b in zip(base_lengths, traced_lengths))
    mismatched += abs(len(base_lengths) - len(traced_lengths))
    if mismatched:
        problems.append(f"traced tour lengths {traced_lengths} differ from "
                        f"untraced {base_lengths}")
    divide = {}
    for r in traced.requests:
        for key, value in r.extra.items():
            divide[key] = divide.get(key, 0) + value
    metrics = derive(rec, traced.wall, base.wall,
                     service=traced.extra or None, divide=divide or None)
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"spans: {len(rec.spans)} written to {out}")
    requests = base.requests + traced.requests
    failed = sum(1 for r in requests if r.failures) + mismatched
    return metrics, len(requests), failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # Measure this checkout's code, never an installed copy.
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    runner = run_traced if args.trace else run_untraced
    metrics, attempted, failed, problems = runner(wl, args.seed,
                                                  args.seconds)
    for msg in problems:
        print(f"FAILED: {msg}")
    leaked = leaks()
    for what in leaked:
        print(f"FAILED: left running at exit: {what}")
    reap()
    print(json.dumps({
        "correct": failed == 0 and not problems and not leaked,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if leaked else 0


if __name__ == "__main__":
    sys.exit(main())
