"""The benchmark's traced counters, on seed 0 of each workload: each makes one solve.

``perfbench/worker.py`` in ``trace`` mode wraps ``klab._rk.solve_to_grid``,
counts every right-hand-side call through it and adds the accepted and
rejected steps of the ``stats`` it returns.  On ``stiff_k64`` (one eps) and
``lemmas`` (lemma33's one solve) those counts must be the one solve's own
statistics as ``runs.json`` records them, and the worker must report every
per-layer metric that ``BENCHMARK.json`` names.  ``checks_k4`` runs two steps
on one config in one process, and the second takes the first one's eps
sweep: one solve, whose accepted steps each step's ``runs.json`` records.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
BENCH = REPO / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def _solve_entries(node):
    """Every ``StepStats`` entry of a ``runs.json`` ``integrator`` block."""
    if isinstance(node, dict):
        if "rhs_evals" in node:
            yield node
        else:
            for value in node.values():
                yield from _solve_entries(value)


def _traced(tmp_path, workload):
    """Seed 0 of ``workload`` through the worker in trace mode: its spec and result."""
    spec = workloads.make(workload, 0)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(spec["config"]), encoding="utf-8")
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "config": str(config), "steps": spec["steps"], "out": str(tmp_path / "out"),
        "mode": "trace", "spans": str(tmp_path / "spans.npz"),
    }), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(job)],
                         capture_output=True, text=True, env=env, cwd=REPO)
    assert res.returncode == 0, res.stderr
    return spec, json.loads(res.stdout.splitlines()[-1])


def _manifest(tmp_path, step):
    return json.loads(
        (tmp_path / "out" / step["scenario"] / "runs.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", ["stiff_k64", "lemmas"])
def test_the_traced_counts_are_the_one_solve_of_runs_json(tmp_path, workload):
    spec, result = _traced(tmp_path, workload)
    counts = result["counts"]

    (step,) = spec["steps"]
    (solve,) = _solve_entries(_manifest(tmp_path, step)["integrator"])
    assert counts["evolution.solve_calls"] == 1
    assert counts["evolution.steps_accepted"] == solve["accepted"]
    assert counts["evolution.steps_rejected"] == solve["rejected"]
    assert counts["evolution.rhs_evals"] == solve["rhs_evals"]

    declared = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert {m["name"] for m in declared} <= set(result["per_layer"])


def test_two_steps_on_one_physics_make_one_solve(tmp_path):
    # checks_k4 runs decay then decay_error on one config in one process:
    # the second step takes the first one's eps sweep
    spec, result = _traced(tmp_path, "checks_k4")
    counts = result["counts"]
    assert counts["evolution.solve_calls"] == 1
    for step in spec["steps"]:
        sweep = _manifest(tmp_path, step)["integrator"]["hyperbolic"]
        assert len(sweep) == 3
        assert counts["evolution.steps_accepted"] == sum(e["accepted"] for e in sweep.values())
