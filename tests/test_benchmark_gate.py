"""Seed 0 of every benchmark workload, and ``lemmas`` seed 3, through the
benchmark's correctness gate.

The benchmark (``perfbench/run.py``) rejects a change whose outputs its gate
refuses; this runs the same gate in tier-1, so such a change fails here
first.  Each workload's CLI steps run in-process into ``tmp_path``, and their
outputs must pass ``gate.check_repetition`` (exit codes, check counts and
verdicts), ``gate.check_parabolic`` (the limit flow against a scipy oracle)
and ``gate.compare`` against ``perfbench/reference/<workload>/seed<n>.json``.
``lemmas`` seed 3 holds a lemma33 instance (87) whose hypothesis check fails
on a sound instance, so a change that flips a lemma33 verdict fails here.
"""

import json
import sys
from pathlib import Path

import pytest

from klab.cli import main as cli_main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "workload,seed",
    [(workload, 0) for workload in workloads.WORKLOADS] + [("lemmas", 3)],
    ids=lambda value: value if isinstance(value, str) else f"seed{value}",
)
def test_the_workload_passes_the_gate(tmp_path, workload, seed):
    spec = workloads.make(workload, seed)
    reference = json.loads(
        (BENCH / "reference" / workload / f"seed{seed}.json").read_text("utf-8")
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps(spec["config"]), encoding="utf-8")
    codes = [
        cli_main([step["command"], "--config", str(config), "--out",
                  str(tmp_path / step["scenario"]), "--override", f"scenario={step['scenario']}"])
        for step in spec["steps"]
    ]
    problems, _ = gate.check_repetition(spec, {"exit_codes": codes}, tmp_path, reference)
    for step in spec["steps"]:
        step_dir = tmp_path / step["scenario"]
        if (step_dir / "parabolic.csv").is_file():
            problems += gate.check_parabolic(spec["config"], step_dir / "parabolic.csv")
        problems += gate.compare(gate.summarize(step_dir), reference["steps"][step["scenario"]])
    assert problems == []
