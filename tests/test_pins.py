"""Golden pins: engine results checked against a committed record.

Each configuration runs one local-search operator (or a small
divide-and-optimize) from a fixed seed and compares the order hash,
tour length, :class:`~repro.localsearch.engine.OpStats` and meter
operations with ``tests/pins/engine.json``.  Unlike
``test_determinism.py``, which compares two runs in one process, these
pins catch any change in move order across commits.

Every operator runs twice: on the dense instance and on the same
coordinates made matrix-free (``_DENSE_LIMIT`` lowered below ``n``), so
both distance paths of :class:`~repro.localsearch.engine.DistView` are
pinned.  The kernel tier is left to ``REPRO_KERNEL``: the tiers are
bit-identical, so the same record holds under each.

A re-pin is a deliberate act with a stated reason in CHANGES.md.  To
regenerate the record::

    PYTHONPATH=src python tests/test_pins.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.divide import DivideConfig, divide_and_optimize
from repro.localsearch import OpStats, get_operator
from repro.tsp import generators
from repro.tsp.tour import random_tour
from repro.utils.rng import ensure_rng
from repro.utils.work import WorkMeter

PIN_FILE = Path(__file__).parent / "pins" / "engine.json"

OPERATORS = ("two_opt", "or_opt", "three_opt", "lk")
#: Operator pins: ``uniform(OP_N)``; matrix-free below ``OP_N``.
OP_N = 300
OP_FREE_LIMIT = 200
#: Divide pin: dense regions, matrix-free parent (boundary repair reads
#: coordinates, as on the 10k benchmark instance).
DIVIDE_N = 1500
DIVIDE_FREE_LIMIT = 1000

DENSE_LIMIT_ATTR = "repro.tsp.instance._DENSE_LIMIT"


def _order_sha(order) -> str:
    data = np.asarray(order, dtype=np.int32).tobytes()
    return hashlib.sha256(data).hexdigest()


def run_operator(name: str) -> dict:
    inst = generators.uniform(OP_N, rng=21)
    tour = random_tour(inst, ensure_rng(4))
    stats = OpStats()
    meter = WorkMeter()
    gain = get_operator(name)(tour, stats=stats, meter=meter)
    return {
        "matrix_free": inst.dense_matrix() is None,
        "order_sha256": _order_sha(tour.order),
        "length": int(tour.length),
        "gain": int(gain),
        "stats": {k: int(v) for k, v in stats.to_json().items()},
        "meter_ops": int(meter.ops),
    }


def run_divide() -> dict:
    inst = generators.uniform(DIVIDE_N, rng=5)
    result = divide_and_optimize(
        inst, DivideConfig(region_size=300, backend="sim"),
        budget_vsec_per_node=0.2, rng=3,
    )
    return {
        "matrix_free": inst.dense_matrix() is None,
        "order_sha256": _order_sha(result.tour.order),
        "length": int(result.tour.length),
        "naive_length": int(result.naive_length),
        "stitched_length": int(result.stitched_length),
        "repair_gain": int(result.repair_gain),
        "repair_vsec": float(result.repair_vsec),
        "regions": len(result.region_results),
    }


def _pins() -> dict:
    return json.loads(PIN_FILE.read_text())


@pytest.mark.parametrize("matrix_free", [False, True],
                         ids=["dense", "matrix_free"])
@pytest.mark.parametrize("name", OPERATORS)
def test_operator_pin(name, matrix_free, monkeypatch):
    if matrix_free:
        monkeypatch.setattr(DENSE_LIMIT_ATTR, OP_FREE_LIMIT)
    key = f"{name}.{'matrix_free' if matrix_free else 'dense'}"
    got = run_operator(name)
    assert got["matrix_free"] is matrix_free
    assert got["stats"]["moves"] > 0
    assert got == _pins()[key]


def test_divide_pin(monkeypatch):
    monkeypatch.setattr(DENSE_LIMIT_ATTR, DIVIDE_FREE_LIMIT)
    got = run_divide()
    assert got["matrix_free"] is True
    assert got["repair_gain"] > 0  # the repair pass did real work
    assert got == _pins()["divide.matrix_free"]


def _record() -> dict:
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in OPERATORS:
            mp.undo()
            out[f"{name}.dense"] = run_operator(name)
            mp.setattr(DENSE_LIMIT_ATTR, OP_FREE_LIMIT)
            out[f"{name}.matrix_free"] = run_operator(name)
        mp.setattr(DENSE_LIMIT_ATTR, DIVIDE_FREE_LIMIT)
        out["divide.matrix_free"] = run_divide()
    return out


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_pins.py --write")
    PIN_FILE.parent.mkdir(exist_ok=True)
    PIN_FILE.write_text(json.dumps(_record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {PIN_FILE}")
