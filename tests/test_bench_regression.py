"""Tests for the CI bench-regression gate (scripts/check_bench_regression.py).

The comparator must pass on an identical re-measurement and demonstrably
fail when handed a synthetically 2x-slowed result — that is the ISSUE's
acceptance criterion for the gate.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "scripts"))

from check_bench_regression import compare, main  # noqa: E402

BASELINE = {
    "format": 1,
    "machine_factor": 1.0,
    "metrics": {
        "engine.two_opt_knn_ops_per_ref_sec": {
            "value": 40000.0, "direction": "higher",
        },
        "clk.fl150_wall_ref_sec": {
            "value": 150.0, "direction": "lower",
        },
    },
    "checks": {"clk_fl150_length": 81314},
}


def _slowed(doc, factor=2.0):
    slow = json.loads(json.dumps(doc))
    for m in slow["metrics"].values():
        if m["direction"] == "higher":
            m["value"] /= factor
        else:
            m["value"] *= factor
    return slow


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestCompare:
    def test_equal_inputs_pass(self):
        rows = compare(BASELINE, BASELINE, max_slowdown=0.15)
        assert rows and not any(r[-1] for r in rows)

    def test_two_x_slowdown_fails_both_directions(self):
        rows = compare(BASELINE, _slowed(BASELINE), max_slowdown=0.15)
        assert all(r[-1] for r in rows)
        by_name = {r[0]: r for r in rows}
        # higher-direction: 40000 -> 20000 is a 50% slowdown
        assert by_name["engine.two_opt_knn_ops_per_ref_sec"][3] == \
            pytest.approx(0.5)
        # lower-direction: 150 -> 300 is a 100% slowdown
        assert by_name["clk.fl150_wall_ref_sec"][3] == pytest.approx(1.0)

    def test_within_tolerance_passes(self):
        rows = compare(BASELINE, _slowed(BASELINE, 1.10), max_slowdown=0.15)
        assert not any(r[-1] for r in rows)

    def test_speedup_never_fails(self):
        rows = compare(_slowed(BASELINE), BASELINE, max_slowdown=0.15)
        assert not any(r[-1] for r in rows)

    def test_missing_metric_fails(self):
        current = json.loads(json.dumps(BASELINE))
        del current["metrics"]["clk.fl150_wall_ref_sec"]
        rows = compare(BASELINE, current, max_slowdown=0.15)
        assert any(r[0] == "clk.fl150_wall_ref_sec" and r[-1] for r in rows)


class TestMainExitCodes:
    def test_identical_exits_zero(self, tmp_path, capsys):
        a = _write(tmp_path, "a.json", BASELINE)
        assert main([a, a]) == 0
        assert "all gated metrics within tolerance" in capsys.readouterr().out

    def test_slowed_exits_one(self, tmp_path, capsys):
        a = _write(tmp_path, "a.json", BASELINE)
        b = _write(tmp_path, "b.json", _slowed(BASELINE))
        assert main([a, b]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "REGRESSION" in out

    def test_check_drift_fails(self, tmp_path, capsys):
        # Checks are exact: a changed or missing value fails even when
        # every timing metric is within tolerance.
        a = _write(tmp_path, "a.json", BASELINE)
        drifted = json.loads(json.dumps(BASELINE))
        drifted["checks"]["clk_fl150_length"] = 99999
        missing = json.loads(json.dumps(BASELINE))
        del missing["checks"]["clk_fl150_length"]
        for i, doc in enumerate((drifted, missing)):
            b = _write(tmp_path, f"b{i}.json", doc)
            assert main([a, b]) == 1
            out = capsys.readouterr().out
            assert "FAIL clk_fl150_length" in out and "DRIFT" in out

    def test_unsupported_format_rejected(self, tmp_path):
        bad = _write(tmp_path, "bad.json", {"format": 99, "metrics": {}})
        good = _write(tmp_path, "good.json", BASELINE)
        with pytest.raises(SystemExit, match="unsupported format"):
            main([bad, good])

    def test_empty_baseline_fails(self, tmp_path, capsys):
        empty = _write(tmp_path, "e.json",
                       {"format": 1, "metrics": {}, "checks": {}})
        assert main([empty, empty]) == 1
        assert "no gated metrics" in capsys.readouterr().out


def test_committed_baseline_is_wellformed():
    """The baseline the CI gate compares against must stay loadable."""
    path = (Path(__file__).parent.parent / "benchmarks" / "baselines"
            / "BENCH_ci_baseline.json")
    doc = json.loads(path.read_text())
    assert doc["format"] == 1
    assert doc["metrics"], "baseline has no gated metrics"
    for name, metric in doc["metrics"].items():
        assert metric["direction"] in ("higher", "lower"), name
        assert metric["value"] > 0, name
