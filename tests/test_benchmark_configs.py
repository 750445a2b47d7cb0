"""Every config the benchmark and the reference tests run passes ``config_from_dict``.

``config_from_dict`` refuses a run whose scales double precision or the
explicit solver cannot carry.  A bound that refused a benchmark workload
(``perfbench/workloads.py``, seeds 0-11, under each of its steps' scenarios)
or a ``tests/reference`` config (under every scenario) would make that run
exit 2, so each of them must be admitted.
"""

import json
import sys
from pathlib import Path

import pytest

from klab.harness import SCENARIOS, config_from_dict

TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS.parent / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_the_scale_guard_admits_every_workload_config(workload):
    for seed in range(12):
        spec = workloads.make(workload, seed)
        for step in spec["steps"]:
            cfg = config_from_dict(dict(spec["config"], scenario=step["scenario"]))
            assert cfg.scenario == step["scenario"]


@pytest.mark.parametrize("case", ["a", "b"])
def test_the_scale_guard_admits_the_reference_configs(case):
    config = json.loads((TESTS / "reference" / f"config_{case}.json").read_text("utf-8"))
    for scenario in SCENARIOS:
        assert config_from_dict(dict(config, scenario=scenario)).scenario == scenario
