"""Compare a bench-smoke result against the committed baseline.

    python scripts/check_bench_regression.py BASELINE CURRENT \
        [--max-slowdown 0.15]

Both files are ``BENCH_ci.json`` documents from
``scripts/run_bench_smoke.py``.  Each gated metric carries a
``direction``: for ``higher`` (rates) the current value must not fall
more than ``--max-slowdown`` below the baseline; for ``lower``
(durations) it must not rise more than that above it.  A metric present
in the baseline but missing from the current run fails too — silently
dropping a measurement must not pass the gate.  ``check`` values (tour
lengths, message counts) must equal the baseline exactly: they are
functions of seeds and virtual time only, so any drift — including a
check missing from the current run — is a determinism break and fails.
Exit status 1 on any regression or drift, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _load(path) -> dict:
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != 1:
        raise SystemExit(f"error: {path}: unsupported format "
                         f"{doc.get('format')!r}")
    return doc


def compare(baseline: dict, current: dict, max_slowdown: float) -> list:
    """Return a list of ``(name, base, cur, change, regressed)`` rows."""
    rows = []
    base_metrics = baseline.get("metrics") or {}
    cur_metrics = current.get("metrics") or {}
    for name, base in sorted(base_metrics.items()):
        cur = cur_metrics.get(name)
        if cur is None:
            rows.append((name, base["value"], None, "missing", True))
            continue
        b, c = float(base["value"]), float(cur["value"])
        direction = base.get("direction", "lower")
        if b == 0:
            change = 0.0
        elif direction == "higher":
            change = (b - c) / b  # fractional slowdown
        else:
            change = (c - b) / b
        rows.append((name, b, c, change, change > max_slowdown))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--max-slowdown", type=float, default=0.15,
                        help="fractional slowdown tolerance (default 0.15)")
    args = parser.parse_args(argv)

    baseline = _load(args.baseline)
    current = _load(args.current)
    rows = compare(baseline, current, args.max_slowdown)
    if not rows:
        print("error: baseline has no gated metrics")
        return 1

    failed = False
    print(f"bench regression gate (max slowdown "
          f"{args.max_slowdown * 100:.0f}%):")
    for name, base, cur, change, regressed in rows:
        if cur is None:
            print(f"  FAIL {name}: in baseline ({base}) but missing "
                  "from current run")
            failed = True
            continue
        verdict = "FAIL" if regressed else "ok"
        print(f"  {verdict:4s} {name}: {base:g} -> {cur:g} "
              f"({change * 100:+.1f}% slowdown)")
        failed = failed or regressed

    base_checks = baseline.get("checks") or {}
    cur_checks = current.get("checks") or {}
    drifted = False
    for name, base in sorted(base_checks.items()):
        cur = cur_checks.get(name)
        if cur != base:
            print(f"  FAIL {name}: {base} -> {cur} (determinism drift)")
            drifted = True

    if failed:
        print("REGRESSION: at least one metric exceeded the slowdown gate")
    if drifted:
        print("DRIFT: at least one check differs from the baseline")
    if failed or drifted:
        return 1
    print("all gated metrics within tolerance, all checks equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
