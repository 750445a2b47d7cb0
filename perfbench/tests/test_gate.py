"""The correctness gate's oracle and tolerances.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import workloads  # noqa: E402


def test_oracle_matches_constant_mass_closed_form():
    cfg = workloads.make("checks_k4", 5)["config"]
    cfg["mass"] = {"affine": {"base": 1.5, "coeff": 0.0}}
    t = np.linspace(0.0, 16.0, 65)
    got = gate.parabolic_oracle(cfg, t)
    lam = np.arange(1, 5, dtype=float) ** 2
    u0 = np.asarray(cfg["initial"]["u0"])
    phase = 1.5 * ((1.0 + t) ** 1.5 - 1.0) / 1.5
    u_sq = u0**2 * np.exp(-2.0 * np.outer(phase, lam))
    want = u_sq @ (1.0 + lam + lam**2) + 1.5**2 * (u_sq @ lam**2)
    assert np.allclose(got["c_trace"], 1.5, rtol=0, atol=0)
    assert np.all(np.abs(got["gamma"] - want) <= 1e-10 * want)


def test_compare_tolerances():
    ref = {"report": {"/x": 1.0, "/tiny": 2e-40, "/ok": True}, "csv": {"a.csv": {"g": [1e-40, 1.0]}}}
    same = {"report": {"/x": 1.0 + 5e-5, "/tiny": 3e-40, "/ok": True}, "csv": {"a.csv": {"g": [1.00001e-40, 1.0]}}}
    assert gate.compare(same, ref) == []
    off = {"report": {"/x": 1.001, "/tiny": 2e-40, "/ok": False}, "csv": {"a.csv": {"g": [1.1e-40, 1.0]}}}
    problems = gate.compare(off, ref)
    assert len(problems) == 3
    assert any("/x" in p for p in problems) and any("/ok" in p for p in problems)


def test_workloads_are_seeded_and_scaled():
    a, b = workloads.make("stiff_k64", 7), workloads.make("stiff_k64", 7)
    assert a == b
    assert a["digest"] != workloads.make("stiff_k64", 8)["digest"]
    lam = np.arange(1, 65, dtype=float) ** 2
    for key in ("u0", "u1"):
        u = np.asarray(a["config"]["initial"][key])
        assert abs(float(lam @ (u * u)) - 1.0) < 1e-12
    assert workloads.make("lemmas", 11)["config"]["seed"] == 11


def _report(tmp_path, checks):
    step = tmp_path / "lemmas"
    step.mkdir()
    doc = {"checks": checks, "fits": [], "measured_constants": {}}
    (step / "report.json").write_text(json.dumps(doc))


def _check(passed, kind=None):
    params = {"failure_kind": kind} if kind else {}
    return {"name": "comparison_lemma33", "params": params, "passed": passed}


SPEC = {"steps": [{"command": "verify", "scenario": "lemmas", "checks": 2}]}


def test_known_false_failure_is_counted_not_hidden(tmp_path):
    _report(tmp_path, [_check(True), _check(False, "hypothesis")])
    assert gate.check_repetition(SPEC, {"exit_codes": [1]}, tmp_path, None) == ([], 1)
    # the exit code must still report the failed check
    problems, _ = gate.check_repetition(SPEC, {"exit_codes": [0]}, tmp_path, None)
    assert problems


def test_conclusion_failure_and_verdict_drift_are_wrong(tmp_path):
    _report(tmp_path, [_check(True), _check(False, "conclusion")])
    problems, known = gate.check_repetition(SPEC, {"exit_codes": [1]}, tmp_path, None)
    assert known == 0 and any("checks failed" in p for p in problems)
    ref = {"steps": {"lemmas": {"exit": 1, "verdicts": [False, False]}}}
    problems, _ = gate.check_repetition(SPEC, {"exit_codes": [1]}, tmp_path, ref)
    assert any("verdicts differ" in p for p in problems)
