"""Stored reference outputs: two small configs re-run and compared number by number.

Each case is a config under ``tests/reference/`` plus the scenarios run on it.
The stored ``<case>.json`` holds, per scenario, the exit code, the whole
``report.json`` and every ``ROW_STRIDE``-th row (and the last) of each CSV.
Numbers must agree to ``|a-b| <= RTOL max(|a|,|b|) + ATOL``; keys, check
names, verdicts, file names and columns must be identical.

Regenerate the references (only when an output change is intended) with

    PYTHONPATH=src python tests/test_reference.py --write
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from klab.harness import config_from_dict, run_scenario

REFERENCE = Path(__file__).resolve().parent / "reference"
CASES = {
    "a": ("decay", "decay_error", "optimality", "hypotheses"),
    "b": ("decay", "optimality", "open_problem"),
}
ROW_STRIDE = 8
RTOL = 1e-10
ATOL = 1e-12


def _config(case: str) -> dict:
    return json.loads((REFERENCE / f"config_{case}.json").read_text(encoding="utf-8"))


def _csv_rows(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = lines[1:]
    keep = sorted(set(range(0, len(rows), ROW_STRIDE)) | {len(rows) - 1})
    return {
        "columns": lines[0].split(","),
        "rows": [[float(x) for x in rows[i].split(",")] for i in keep],
    }


def run_case(case: str, out_root: Path) -> dict:
    """Run every scenario of ``case`` and summarize what it wrote."""
    summary = {}
    for scenario in CASES[case]:
        out = out_root / case / scenario
        code = run_scenario(config_from_dict(dict(_config(case), scenario=scenario)), out)
        summary[scenario] = {
            "exit": code,
            "report": json.loads((out / "report.json").read_text(encoding="utf-8")),
            "csv": {path.name: _csv_rows(path) for path in sorted(out.glob("*.csv"))},
        }
    return summary


def _leaves(node, path: str, out: dict) -> None:
    if isinstance(node, dict):
        out[path + "{}"] = sorted(node)
        for key in node:
            _leaves(node[key], f"{path}/{key}", out)
    elif isinstance(node, list):
        out[path + "[]"] = len(node)
        for i, value in enumerate(node):
            _leaves(value, f"{path}/{i}", out)
    else:
        out[path] = node


def _close(a, b) -> bool:
    numbers = (int, float)
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if not (isinstance(a, numbers) and isinstance(b, numbers)):
        return a == b
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def differences(got: dict, want: dict) -> list[str]:
    """Leaves of ``got`` that disagree with ``want``, as ``path: got != want``."""
    flat_got, flat_want = {}, {}
    _leaves(got, "", flat_got)
    _leaves(want, "", flat_want)
    return [
        f"{key}: {flat_got.get(key)!r} != {flat_want.get(key)!r}"
        for key in sorted(set(flat_got) | set(flat_want))
        if key not in flat_got or key not in flat_want or not _close(flat_got[key], flat_want[key])
    ]


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_reference(case, tmp_path):
    want = json.loads((REFERENCE / f"{case}.json").read_text(encoding="utf-8"))
    got = run_case(case, tmp_path)
    problems = differences(got, want)
    assert not problems, "\n".join(problems[:20])


def test_tolerance_rejects_a_real_change():
    assert _close(1.0, 1.0 + 5e-11)
    assert not _close(1.0, 1.0 + 1e-9)
    assert not _close(True, 1.0)
    assert differences({"x": [1.0, 2.0]}, {"x": [1.0]})


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_reference.py --write")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            doc = run_case(name, Path(tmp))
            text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
            (REFERENCE / f"{name}.json").write_text(text + "\n", encoding="utf-8")
