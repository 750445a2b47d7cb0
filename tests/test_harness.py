"""Config loading, file emission, scenarios and the CLI contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from klab import IntegratorConfig, RateFit
from klab.harness import (
    ConfigError,
    apply_override,
    config_from_dict,
    emit_report,
    emit_timeseries,
    load_config,
    render_report,
    run_scenario,
)

REPO = Path(__file__).resolve().parents[1]


def base_config(**extra):
    doc = {
        "p": 0.5,
        "epsilon": [0.05],
        "operator": {"eigenvalues": [1.0], "nu": 1.0},
        "mass": {"constant": 1.0},
        "initial": {"u0": [1.0], "u1": [0.0]},
        "beta": 1.0,
        "t_end": 6.0,
        "samples": 200,
        "scenario": "decay",
    }
    doc.update(extra)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "klab", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

class TestConfig:
    def test_minimal_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        assert cfg.p == 0.5
        assert cfg.epsilon == (0.05,)
        assert cfg.t_end == 6.0
        assert cfg.samples == 200
        assert cfg.scenario == "decay"
        assert cfg.beta == 1.0

    def test_defaults(self, tmp_path):
        doc = base_config()
        del doc["t_end"], doc["samples"], doc["scenario"]
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.samples == 4096
        assert cfg.scenario == "simulate"
        assert cfg.t_end > 1.0
        assert cfg.integrator == IntegratorConfig()

    def test_epsilon_sorted_downward(self, tmp_path):
        doc = base_config(epsilon=[0.01, 0.04, 0.02])
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.epsilon == (0.04, 0.02, 0.01)

    def test_missing_velocity_field_is_named(self, tmp_path):
        doc = base_config()
        del doc["initial"]["u1"]
        with pytest.raises(ConfigError, match="initial.u1"):
            load_config(write_config(tmp_path, doc))

    def test_flat_dissipation_caps_beta(self):
        doc = base_config(p=0.0, beta=5.0)
        with pytest.raises(ConfigError, match=r"beta < 2\*mu\*nu"):
            config_from_dict(doc)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="verbosity"):
            config_from_dict(base_config(verbosity=3))

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="scenario"):
            config_from_dict(base_config(scenario="everything"))

    def test_operator_families(self):
        doc = base_config(operator={"family": "power", "nu": 1.0, "K": 3, "exponent": 2.0},
                          initial={"preset": "lowest_mode"})
        cfg = config_from_dict(doc)
        np.testing.assert_allclose(cfg.operator.eigenvalues, [1.0, 4.0, 9.0])
        doc = base_config(operator={"family": "arithmetic", "nu": 2.0, "K": 3, "gap": 0.5},
                          initial={"preset": "lowest_mode"})
        cfg = config_from_dict(doc)
        np.testing.assert_allclose(cfg.operator.eigenvalues, [2.0, 2.5, 3.0])

    def test_presets(self):
        for preset, u1 in (("lowest_mode", 0.0), ("boundary_layer", 1.0),
                           ("well_prepared", -2.0)):
            doc = base_config(mass={"affine": {"base": 1.0, "coeff": 1.0}},
                              initial={"preset": preset})
            cfg = config_from_dict(doc)
            np.testing.assert_allclose(cfg.u0, [1.0])
            # well_prepared zeroes the corrector: u1 = -m(|A^1/2 u0|^2) A u0
            np.testing.assert_allclose(cfg.u1, [u1])

    def test_tolerance_block(self):
        doc = base_config(tolerances={"rel_tol": 1e-8, "max_step": 0.5})
        cfg = config_from_dict(doc)
        assert cfg.integrator.rel_tol == 1e-8
        assert cfg.integrator.max_step == 0.5
        with pytest.raises(ConfigError, match="tolerances.step_cap"):
            config_from_dict(base_config(tolerances={"step_cap": 0.5}))


class TestOverrides:
    def test_json_fragment(self):
        doc = base_config()
        apply_override(doc, "epsilon=[0.04, 0.02]")
        assert doc["epsilon"] == [0.04, 0.02]

    def test_dotted_path(self):
        doc = base_config()
        apply_override(doc, "tolerances.rel_tol=1e-8")
        assert doc["tolerances"] == {"rel_tol": 1e-8}

    def test_bare_string_value(self):
        doc = base_config()
        apply_override(doc, "scenario=lemmas")
        assert doc["scenario"] == "lemmas"

    def test_malformed_override(self):
        with pytest.raises(ConfigError):
            apply_override(base_config(), "no_equals_sign")


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

class TestEmission:
    def test_timeseries_shape_and_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        t = np.linspace(0.0, 1.0, 4096)
        v = rng.standard_normal(4096) * np.pi
        path = tmp_path / "series.csv"
        emit_timeseries(path, {"t": t, "value": v})
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").splitlines()
        assert len(lines) == 4097
        assert lines[0] == "t,value"
        # shortest round-trip decimals reparse to the exact binary values
        back = np.array([float(line.split(",")[1]) for line in lines[1:]])
        np.testing.assert_array_equal(back, v)

    def test_empty_report(self, tmp_path):
        path = tmp_path / "report.json"
        emit_report([], [], path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc == {"checks": [], "fits": [], "measured_constants": {}}

    def test_report_entries(self, tmp_path):
        fit = RateFit(slope=-2.0, intercept=0.1, r_squared=0.999,
                      window=(1.0, 4.0), abscissa="t")
        path = tmp_path / "report.json"
        emit_report([], [("toy", fit)], path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["fits"][0]["name"] == "toy"
        assert doc["fits"][0]["slope"] == -2.0
        assert doc["fits"][0]["abscissa"] == "t"


# ---------------------------------------------------------------------------
# scenarios end to end
# ---------------------------------------------------------------------------

class TestRunScenario:
    def test_decay_scenario_passes_and_writes_files(self, tmp_path):
        cfg = config_from_dict(base_config())
        out = tmp_path / "out"
        code = run_scenario(cfg, out)
        assert code == 0
        assert (out / "parabolic.csv").is_file()
        assert (out / "hyperbolic_eps0.05.csv").is_file()
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["checks"]
        assert all(c["passed"] for c in report["checks"])
        names = {c["name"] for c in report["checks"]}
        assert "energy_monotone" in names
        assert "lyapunov_decay_F" in names
        manifest = json.loads((out / "runs.json").read_text(encoding="utf-8"))
        assert manifest["config"]["p"] == 0.5
        assert manifest["files"]["parabolic"] == "parabolic.csv"

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = config_from_dict(base_config())
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert run_scenario(cfg, d) == 0
        for name in ("report.json", "runs.json", "parabolic.csv",
                     "hyperbolic_eps0.05.csv"):
            a = (dirs[0] / name).read_bytes()
            b = (dirs[1] / name).read_bytes()
            assert a == b, name

    def test_failing_check_returns_one(self, tmp_path):
        cfg = config_from_dict(base_config(epsilon=[2.0]))
        out = tmp_path / "out"
        assert run_scenario(cfg, out) == 1
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        failed = [c for c in report["checks"] if not c["passed"]]
        assert any(c["name"] == "sandwich_F" for c in failed)

    def test_render_report_reproduces_fits(self, tmp_path):
        cfg = config_from_dict(base_config())
        out = tmp_path / "out"
        run_scenario(cfg, out)
        before = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert render_report(out) == 0
        after = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert after["fits"] == before["fits"]
        assert after["checks"] == before["checks"]

    def test_render_report_needs_manifest(self, tmp_path):
        with pytest.raises(ConfigError):
            render_report(tmp_path / "never_ran")

    @pytest.mark.parametrize("tolerances", [{}, {"max_step": 0.5}])
    def test_manifest_config_reloads_to_the_same_run(self, tmp_path, tolerances):
        cfg = config_from_dict(base_config(tolerances=tolerances))
        assert run_scenario(cfg, tmp_path / "a") == 0
        echo = json.loads((tmp_path / "a" / "runs.json").read_text(encoding="utf-8"))["config"]
        assert run_scenario(config_from_dict(echo), tmp_path / "b") == 0
        for name in ("runs.json", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize(
        "scenario,extra,solves",
        [
            # one limit flow and three second-order flows; the sweep reuses them
            ("decay_error", {"epsilon": [0.04, 0.02, 0.01]}, 4),
            # the probe reads the scenario's own two second-order runs
            ("open_problem", {"p": 0.0, "epsilon": [0.1, 0.05]}, 2),
        ],
    )
    def test_each_flow_is_integrated_once(self, tmp_path, monkeypatch, scenario, extra, solves):
        import klab.evolution

        calls = []
        solve = klab.evolution.solve_to_grid

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(klab.evolution, "solve_to_grid", counting)
        cfg = config_from_dict(base_config(scenario=scenario, **extra))
        assert run_scenario(cfg, tmp_path / "out") in (0, 1)
        assert len(calls) == solves


# ---------------------------------------------------------------------------
# the CLI proper
# ---------------------------------------------------------------------------

class TestCli:
    def test_verify_pass_exit_zero(self, tmp_path):
        cfgp = write_config(tmp_path, base_config())
        res = run_cli("verify", "--config", str(cfgp), "--out", str(tmp_path / "out"))
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "out" / "report.json").is_file()

    def test_failed_check_exit_one(self, tmp_path):
        cfgp = write_config(tmp_path, base_config(epsilon=[2.0]))
        res = run_cli("verify", "--config", str(cfgp), "--out", str(tmp_path / "out"))
        assert res.returncode == 1

    def test_malformed_config_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json", encoding="utf-8")
        res = run_cli("verify", "--config", str(bad), "--out", str(tmp_path / "out"))
        assert res.returncode == 2
        assert "error:" in res.stderr

    def test_unwritable_out_exit_two(self, tmp_path):
        cfgp = write_config(tmp_path, base_config())
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        res = run_cli("verify", "--config", str(cfgp), "--out", str(blocker))
        assert res.returncode == 2

    def test_simulate_ignores_configured_scenario(self, tmp_path):
        cfgp = write_config(tmp_path, base_config(scenario="decay"))
        out = tmp_path / "out"
        res = run_cli("simulate", "--config", str(cfgp), "--out", str(out))
        assert res.returncode == 0, res.stderr
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["checks"] == []
        assert (out / "parabolic.csv").is_file()

    def test_sweep_override_changes_the_run(self, tmp_path):
        cfgp = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        res = run_cli("sweep", "--config", str(cfgp), "--out", str(out),
                      "--override", "epsilon=[0.04]")
        assert res.returncode == 0, res.stderr
        manifest = json.loads((out / "runs.json").read_text(encoding="utf-8"))
        assert manifest["config"]["epsilon"] == [0.04]
        assert (out / "hyperbolic_eps0.04.csv").is_file()

    def test_report_subcommand_round_trips(self, tmp_path):
        cfgp = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert run_cli("verify", "--config", str(cfgp), "--out", str(out)).returncode == 0
        before = (out / "report.json").read_bytes()
        res = run_cli("report", "--out", str(out))
        assert res.returncode == 0
        assert (out / "report.json").read_bytes() == before

    def test_report_on_missing_csv_exit_two(self, tmp_path):
        cfgp = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert run_cli("verify", "--config", str(cfgp), "--out", str(out)).returncode == 0
        (out / "parabolic.csv").unlink()
        res = run_cli("report", "--out", str(out))
        assert res.returncode == 2
        assert res.stderr.count("\n") == 1
        assert "parabolic.csv" in res.stderr

    def test_report_on_malformed_manifest_exit_two(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "runs.json").write_text("{ not json", encoding="utf-8")
        res = run_cli("report", "--out", str(out))
        assert res.returncode == 2
        assert res.stderr.count("\n") == 1
        assert "runs.json" in res.stderr

    def test_thread_env_does_not_change_bytes(self, tmp_path):
        cfgp = write_config(tmp_path, base_config(epsilon=[0.05, 0.04]))
        outs = [tmp_path / "serial", tmp_path / "threaded"]
        r1 = run_cli("verify", "--config", str(cfgp), "--out", str(outs[0]),
                     env_extra={"KLAB_THREADS": "1"})
        r2 = run_cli("verify", "--config", str(cfgp), "--out", str(outs[1]),
                     env_extra={"KLAB_THREADS": "2"})
        assert r1.returncode == 0 and r2.returncode == 0
        for name in ("report.json", "hyperbolic_eps0.05.csv", "hyperbolic_eps0.04.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
