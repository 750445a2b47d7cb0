"""Self-time arithmetic and metric list of the benchmark's tracing.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402


def _spans(rows):
    """rows: (name, parent index, start, end) -> (names, arrays)."""
    names = sorted({r[0] for r in rows})
    arrs = {
        "name_id": np.array([names.index(r[0]) for r in rows], dtype=np.int32),
        "parent": np.array([r[1] for r in rows], dtype=np.int32),
        "start": np.array([r[2] for r in rows], dtype=float),
        "end": np.array([r[3] for r in rows], dtype=float),
    }
    return names, arrs


# A sweep that integrates twice, each integration running two sibling
# energy calls, next to a check at the top level.
ROWS = [
    ("harness.run_scenario", -1, 0.0, 10.0),  # 0
    ("analysis.epsilon_sweep_decay_error", 0, 1.0, 7.0),  # 1
    ("evolution.integrate.hyperbolic", 1, 1.5, 3.5),  # 2
    ("energies.phi", 2, 2.0, 2.25),  # 3
    ("energies.phi", 2, 3.0, 3.5),  # 4
    ("evolution.integrate.parabolic", 1, 4.0, 5.0),  # 5
    ("analysis.check_energy_monotone", 0, 8.0, 9.5),  # 6
]


def test_self_time_subtracts_direct_children_only():
    _, arrs = _spans(ROWS)
    own = tracing.self_times(arrs["parent"], arrs["start"], arrs["end"])
    # run_scenario: 10 - (6 + 1.5); grandchildren are not subtracted again.
    assert own[0] == pytest.approx(2.5)
    # sweep: 6 - (2 + 1) for its two integrate children.
    assert own[1] == pytest.approx(3.0)
    # integrate: 2 - (0.25 + 0.5) for two sibling children.
    assert own[2] == pytest.approx(1.25)
    assert own[3] == pytest.approx(0.25)
    assert own[5] == pytest.approx(1.0)
    assert own[6] == pytest.approx(1.5)


def test_self_times_partition_the_root():
    _, arrs = _spans(ROWS)
    own = tracing.self_times(arrs["parent"], arrs["start"], arrs["end"])
    assert own.sum() == pytest.approx(10.0)


def test_layer_table_and_nested_counts():
    names, arrs = _spans(ROWS)
    table = tracing.layer_table(names, arrs)
    assert table["energies.phi"] == {"calls": 2, "total_s": 0.75, "self_s": 0.75}
    sweep = "analysis.epsilon_sweep_decay_error"
    assert tracing.calls_within(names, arrs, "evolution.integrate.hyperbolic", sweep) == 1
    assert tracing.calls_within(names, arrs, "evolution.integrate.parabolic", sweep) == 1
    assert tracing.calls_within(names, arrs, "energies.phi", "analysis.check_energy_monotone") == 0


def test_per_layer_metrics_from_spans():
    names, arrs = _spans(ROWS)
    counts = {"evolution.steps_accepted": 9, "evolution.steps_rejected": 1}
    from collections import Counter

    got = tracing.per_layer_metrics(names, arrs, Counter(counts), 123)
    assert got["analysis.sweep_integrate_calls"] == 2
    assert got["analysis.sweep_self_s"] == pytest.approx(3.0)
    assert got["evolution.integrate_hyperbolic_s"] == pytest.approx(1.25)
    assert got["energies.calls"] == 2
    assert got["analysis.checks_s"] == pytest.approx(1.5)
    assert got["harness.self_s"] == pytest.approx(2.5)
    assert got["evolution.step_accept_ratio"] == pytest.approx(0.9)
    assert got["harness.bytes_written"] == 123


def test_recorder_nests_by_call_stack():
    rec = tracing.Recorder()
    outer = rec.open(rec.name_index("a"))
    inner = rec.open(rec.name_index("b"))
    rec.close(inner)
    sibling = rec.open(rec.name_index("b"))
    rec.close(sibling)
    rec.close(outer)
    arrs = rec.arrays()
    assert list(arrs["parent"]) == [-1, 0, 0]
    assert np.all(arrs["end"] >= arrs["start"])


def test_metric_list_matches_benchmark_json():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert declared == list(tracing.PER_LAYER)
