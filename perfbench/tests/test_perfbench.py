"""Tests of the benchmark itself (not of ``repro``).

    PYTHONPATH=src python -m pytest perfbench/tests -q

The smoke runs use tiny variants of every workload, so the whole file
takes well under a minute.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class TinyClk(workloads.ClkClustered1k):
    n = 200
    budget_vsec = 0.2
    target = 10**9


class TinyDistclk(workloads.DistclkFl300):
    budget_vsec = 0.05
    n_nodes = 2


class TinyDivide(workloads.DivideUniform10k):
    n = 1500
    region_size = 400
    budget_vsec = 0.05


class TinyService(workloads.ServiceMixed):
    budget_vsec = 0.05


TINY = {
    "clk_clustered1k": TinyClk,
    "distclk_fl300": TinyDistclk,
    "divide_uniform10k": TinyDivide,
    "service_mixed": TinyService,
}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _main(capsys, *argv) -> tuple[int, dict]:
    code = run.main(list(argv))
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, cls in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, cls)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return tmp_path


def test_names_match_benchmark_json():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert spec["paths"] == ["perfbench"]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_untraced_run(tiny, capsys, name):
    code, out = _main(capsys, "--workload", name, "--seed", "3",
                      "--seconds", "0.5", "--trace", "0")
    assert code == 0
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in out["metrics"].values())
    assert not run.leaks()


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_traced_run(tiny, capsys, name):
    code, out = _main(capsys, "--workload", name, "--seed", "3",
                      "--seconds", "0.5", "--trace", "1")
    assert code == 0
    assert out["correct"] and out["failed"] == 0
    assert set(out["metrics"]) == set(layers.PER_LAYER)
    assert out["metrics"]["lk.calls"]["value"] > 0
    spans = [json.loads(line) for line in
             (tiny / f"{name}-seed3.jsonl").read_text().splitlines()]
    assert spans and all(s["end"] >= s["start"] for s in spans)
    assert {"name", "start", "end", "parent", "run"} <= set(spans[0])
    assert not run.leaks()


def test_traced_run_restores_every_wrapper(tiny, capsys):
    from repro.localsearch.lin_kernighan import LinKernighan

    before = LinKernighan.optimize
    _main(capsys, "--workload", "clk_clustered1k", "--seed", "1",
          "--seconds", "0.1", "--trace", "1")
    assert LinKernighan.optimize is before


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(50) == 80
    assert run.tail_percentile(1000) == 95


def test_leak_check_fires_on_child_process_and_thread():
    child = multiprocessing.get_context("spawn").Process(
        target=time.sleep, args=(60,))
    child.start()
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        found = run.leaks()
        assert any("child process" in what for what in found)
        assert any("thread" in what for what in found)
    finally:
        release.set()
        thread.join(10)
        run.reap()
    assert not child.is_alive() and not thread.is_alive()
    assert not run.leaks()


class LeakyClk(TinyClk):
    def request(self, instance, rseed):
        multiprocessing.get_context("spawn").Process(
            target=time.sleep, args=(60,)).start()
        return super().request(instance, rseed)


def test_run_with_leaked_child_fails(tiny, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "clk_clustered1k", LeakyClk)
    code, out = _main(capsys, "--workload", "clk_clustered1k", "--seed", "1",
                      "--seconds", "0.1", "--trace", "0")
    assert code == 1 and out["correct"] is False
    assert not multiprocessing.active_children()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clk_clustered1k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
