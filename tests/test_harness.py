"""Config loading, file emission, scenarios and the CLI contract."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import klab._rk
from klab import IntegratorConfig
from klab.cli import main as cli_main
from klab.harness import (
    SCENARIOS,
    ConfigError,
    apply_override,
    config_from_dict,
    emit_timeseries,
    load_config,
    render_report,
    run_scenario,
)

REPO = Path(__file__).resolve().parents[1]
STEP_FIELDS = ("accepted", "rejected", "rhs_evals", "h_min", "h_max")
RETIREMENT_FIELDS = ("retired_modes", "last_retirement_t")


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


# the single-mode amplitude-law run: oscillatory well before 0.4 t_end
WKB = {
    "p": 0.5,
    "epsilon": [0.1, 0.05],
    "operator": {"family": "uniform", "nu": 1.0, "K": 1},
    "t_end": 40.0,
    "samples": 1024,
    "scenario": "wkb",
}
# per scenario, a small config on which it runs and fits every flow it can
SCENARIO_CONFIGS = {
    "simulate": {},
    "decay": {
        "epsilon": [0.04, 0.02],
        "operator": {"family": "power", "nu": 1.0, "K": 2},
        "mass": {"affine": {"base": 1.0, "coeff": 1.0}},
        "initial": {"preset": "well_prepared"},
        "t_end": 8.0,
        "samples": 256,
    },
    "decay_error": {"epsilon": [0.04, 0.02, 0.01]},
    "optimality": {},
    "lemmas": {},
    "hypotheses": {},
    "wkb": WKB,
    "open_problem": {"p": 0.0, "epsilon": [0.1, 0.05]},
    "all": {
        "epsilon": [0.04, 0.02, 0.01],
        "operator": {"family": "power", "nu": 1.0, "K": 2},
        "initial": {"preset": "well_prepared"},
        "samples": 256,
    },
}


def scenario_config(scenario):
    return base_config(**dict(SCENARIO_CONFIGS[scenario], scenario=scenario))


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

    @pytest.mark.parametrize(
        "initial,field",
        [({"u0": "ab", "u1": [0.0]}, "initial.u0"), ({"u0": [1.0], "u1": [{}]}, "initial.u1"),
         ({"u0": [[1.0], [2.0, 3.0]], "u1": [0.0]}, "initial.u0")],
        ids=["string", "object", "ragged"],
    )
    def test_non_numeric_initial_data_is_named(self, initial, field):
        with pytest.raises(ConfigError, match=field):
            config_from_dict(base_config(initial=initial))

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
        doc = base_config(tolerances={"rel_tol": 1e-8, "abs_tol": 1e-200})
        cfg = config_from_dict(doc)
        assert cfg.integrator.rel_tol == 1e-8
        assert cfg.integrator.abs_tol == 1e-200
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
        # a manifest that lists no flow and no prior report: nothing to carry or fit
        (tmp_path / "runs.json").write_text(json.dumps({"files": {}}), encoding="utf-8")
        assert render_report(tmp_path) == 0
        doc = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert doc == {"checks": [], "fits": [], "measured_constants": {}}

    def test_report_entries(self, tmp_path):
        cfg = config_from_dict(base_config(epsilon=[], scenario="simulate"))
        assert run_scenario(cfg, tmp_path) == 0
        doc = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert doc["checks"] == [] and doc["measured_constants"] == {}
        (fit,) = doc["fits"]
        assert set(fit) == {"name", "slope", "r_squared", "window", "abscissa"}
        assert fit["name"] == "parabolic_gamma"
        assert fit["abscissa"] == "parabolic"
        assert fit["window"] == pytest.approx([2.4, 6.0])
        assert fit["slope"] < 0.0


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

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_render_report_reproduces_fits(self, tmp_path, scenario):
        cfg = config_from_dict(scenario_config(scenario))
        out = tmp_path / "out"
        code = run_scenario(cfg, out)
        before = (out / "report.json").read_bytes()
        assert render_report(out) == code
        assert (out / "report.json").read_bytes() == before

    def test_decay_error_needs_a_halving_sweep(self, tmp_path):
        cfg = config_from_dict(base_config(scenario="decay_error", epsilon=[0.04, 0.03, 0.01]))
        with pytest.raises(ConfigError, match="halve"):
            run_scenario(cfg, tmp_path / "out")

    def test_render_report_needs_manifest(self, tmp_path):
        with pytest.raises(ConfigError):
            render_report(tmp_path / "never_ran")

    @pytest.mark.parametrize(
        "tolerances,mass",
        [
            ({}, {"constant": 1.0}),
            ({"abs_tol": 1e-200}, {"constant": 1.0}),
            ({}, {"affine": {"base": 1.0, "coeff": 0.0}}),
            ({}, {"affine": {"base": 1.0, "coeff": 1.0}}),
            ({}, {"rational": {"base": 0.5, "coeff": 1.0}}),
        ],
        ids=["tolerances0", "tolerances1", "affine_coeff0", "affine_coeff1", "rational"],
    )
    def test_manifest_config_reloads_to_the_same_run(self, tmp_path, tolerances, mass):
        cfg = config_from_dict(base_config(tolerances=tolerances, mass=mass))
        assert run_scenario(cfg, tmp_path / "a") == 0
        echo = json.loads((tmp_path / "a" / "runs.json").read_text(encoding="utf-8"))["config"]
        assert run_scenario(config_from_dict(echo), tmp_path / "b") == 0
        for name in ("runs.json", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_lists_step_counts_of_every_flow(self, tmp_path):
        cfg = config_from_dict(base_config(scenario="decay_error", epsilon=[0.04, 0.02, 0.01]))
        assert run_scenario(cfg, tmp_path / "out") in (0, 1)
        steps = json.loads((tmp_path / "out" / "runs.json").read_text(encoding="utf-8"))[
            "integrator"
        ]
        assert sorted(steps["hyperbolic"]) == ["0.01", "0.02", "0.04"]
        assert steps["lemmas"] == {}
        assert sorted(steps["parabolic"]) == sorted(STEP_FIELDS)
        for counts in steps["hyperbolic"].values():
            assert sorted(counts) == sorted(STEP_FIELDS + RETIREMENT_FIELDS)
            # a single mode always carries all the energy
            assert counts["retired_modes"] == 0 and counts["last_retirement_t"] is None
        for counts in [steps["parabolic"], *steps["hyperbolic"].values()]:
            assert counts["accepted"] > 0
            assert counts["rhs_evals"] == 1 + 6 * (counts["accepted"] + counts["rejected"])
            assert 0.0 < counts["h_min"] <= counts["h_max"]

    def test_manifest_records_retired_modes(self, tmp_path):
        # K = 64 at eps 0.01: the step cap binds, and the upper modes decay
        # far below the norm within t = 3
        cfg = config_from_dict(base_config(
            scenario="simulate", epsilon=[0.01], t_end=3.0, samples=31,
            operator={"family": "power", "nu": 1.0, "K": 64, "exponent": 2.0},
            initial={"u0": [0.01 / k**2 for k in range(1, 65)], "u1": [0.0] * 64},
        ))
        for out in ("a", "b"):
            assert run_scenario(cfg, tmp_path / out) == 0
        manifest = (tmp_path / "a" / "runs.json").read_bytes()
        assert manifest == (tmp_path / "b" / "runs.json").read_bytes()
        counts = json.loads(manifest)["integrator"]["hyperbolic"]["0.01"]
        assert 0 < counts["retired_modes"] < 64
        assert 0.0 < counts["last_retirement_t"] < 3.0

    def test_a_failing_flow_check_names_its_integrator_entry(self, tmp_path, monkeypatch):
        import dataclasses

        import klab.analysis

        failed = set()

        def failing(check):
            def run(*args, **kwargs):
                rep = check(*args, **kwargs)
                failed.add(rep.name)
                return dataclasses.replace(rep, passed=False, worst_slack=-1e3)

            return run

        # one check of each second-order flow and the limit flow's pointwise check
        for name in ("check_energy_monotone", "check_parabolic_pointwise"):
            monkeypatch.setattr(klab.analysis, name, failing(getattr(klab.analysis, name)))
        cfg = config_from_dict(base_config(scenario="decay", epsilon=[0.04, 0.02]))
        assert run_scenario(cfg, tmp_path / "out") == 1
        out = tmp_path / "out"
        checks = json.loads((out / "report.json").read_text(encoding="utf-8"))["checks"]
        manifest = json.loads((out / "runs.json").read_text(encoding="utf-8"))["integrator"]
        named = [c["params"]["integrator"] for c in checks if c["name"] in failed]
        assert named == ["hyperbolic/0.04", "hyperbolic/0.02", "parabolic"]
        for key in named:
            kind, _, eps = key.partition("/")
            entry = manifest[kind][eps] if eps else manifest[kind]
            assert entry["accepted"] > 0
        # passing checks carry no such key
        assert all("integrator" not in c["params"] for c in checks if c["passed"])

    def test_manifest_lists_the_batched_solve_of_every_lemma_kind(self, tmp_path):
        cfg = config_from_dict(base_config(scenario="lemmas"))
        for out in ("a", "b"):
            run_scenario(cfg, tmp_path / out)
        manifest = json.loads((tmp_path / "a" / "runs.json").read_text(encoding="utf-8"))
        steps = manifest["integrator"]
        assert steps["parabolic"] is None and steps["hyperbolic"] == {}
        assert sorted(steps["lemmas"]) == ["lemma32", "lemma33", "lemma34"]
        # the linear kinds march the 600-sample grid by variation of constants
        for kind in ("lemma32", "lemma34"):
            assert steps["lemmas"][kind] == {"intervals": 599, "nodes": 8}
        counts = steps["lemmas"]["lemma33"]
        assert sorted(counts) == sorted(STEP_FIELDS)
        assert counts["accepted"] > 0
        # FSAL pair: one evaluation to start, six per attempted step
        assert counts["rhs_evals"] == 1 + 6 * (counts["accepted"] + counts["rejected"])
        for path in sorted((tmp_path / "a").iterdir()):
            assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes(), path.name

    def test_all_builds_the_series_of_each_flow_once(self, tmp_path, monkeypatch):
        import klab.analysis
        import klab.energies

        per_flow = {
            # the series: gamma, E, and F (which evaluates E again); then the
            # sandwich's comparison weight, E at c = 1
            "decay": {"hyperbolic_series": 1, "energy_E": 3, "energy_F": 1, "gamma_eps": 1},
            # decay_error adds the remainder's F (with its E) and gamma_c on (rho, r')
            "all": {"hyperbolic_series": 1, "energy_E": 4, "energy_F": 2, "gamma_eps": 2},
        }
        calls = {}

        def counting(name, fn):
            def count(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return count

        for name in per_flow["all"]:
            module = klab.analysis if name == "hyperbolic_series" else klab.energies
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        for scenario, counts in per_flow.items():
            calls.update(dict.fromkeys(counts, 0))
            cfg = config_from_dict(dict(scenario_config("all"), scenario=scenario))
            assert run_scenario(cfg, tmp_path / scenario) in (0, 1)
            # three second-order flows, each with one CSV; the checks read its series
            assert calls == {name: 3 * count for name, count in counts.items()}, scenario

    @pytest.mark.parametrize(
        "scenario,extra,members",
        [
            # the limit flow, then the three second-order flows as one solve;
            # the sweep reuses them
            ("decay_error", {"epsilon": [0.04, 0.02, 0.01]}, [1, 3]),
            # the probe reads the scenario's own two second-order runs
            ("open_problem", {"p": 0.0, "epsilon": [0.1, 0.05]}, [2]),
            # 300 synthetic instances; only lemma33's, which is not linear,
            # take a batched solve
            ("lemmas", {}, [100]),
        ],
        ids=["decay_error", "open_problem", "lemmas"],
    )
    def test_each_flow_is_integrated_once(self, tmp_path, monkeypatch, scenario, extra, members):
        import klab.analysis
        import klab.evolution

        calls = []
        solve = klab.evolution.solve_to_grid

        def counting(f, y0, *args, **kwargs):
            # the members of one solve: the rows of a batch, or one system
            calls.append(1 if np.ndim(y0) == 1 else len(y0))
            return solve(f, y0, *args, **kwargs)

        for module in (klab.evolution, klab.analysis):
            monkeypatch.setattr(module, "solve_to_grid", counting)
        cfg = config_from_dict(base_config(scenario=scenario, **extra))
        assert run_scenario(cfg, tmp_path / "out") in (0, 1)
        assert calls == members


class TestWkbScenario:
    def test_all_skips_wkb_on_a_short_horizon(self, tmp_path):
        # K 1, p 0.5, eps 0.05, t_end 6: the fit window cannot open before 0.9 t_end
        out = tmp_path / "out"
        cfgp = write_config(tmp_path, base_config(scenario="all"))
        res = run_cli("verify", "--config", str(cfgp), "--out", str(out))
        assert res.returncode in (0, 1), res.stderr
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        names = {c["name"] for c in report["checks"]}
        assert "wkb_amplitude_law" not in names and "energy_monotone" in names
        cfgp = write_config(tmp_path, base_config(scenario="wkb"), name="wkb.json")
        res = run_cli("verify", "--config", str(cfgp), "--out", str(tmp_path / "wkb"))
        assert res.returncode == 2 and "too short" in res.stderr

    def test_fitted_amplitude_slopes_match_the_law(self, tmp_path):
        out = tmp_path / "out"
        assert run_scenario(config_from_dict(base_config(**WKB)), out) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        checks = [c for c in report["checks"] if c["name"] == "wkb_amplitude_law"]
        assert [c["params"]["eps"] for c in checks] == [0.1, 0.05]
        for check in checks:
            params = check["params"]
            assert check["passed"]
            # -1/(eps (1-p)): -20 and -40
            assert params["fitted_slope"] == pytest.approx(params["predicted_slope"], rel=0.01)

    @pytest.mark.parametrize(
        "extra,message",
        [
            ({"operator": {"family": "uniform", "nu": 1.0, "K": 2},
              "initial": {"preset": "lowest_mode"}}, "single mode"),
            ({"p": 0.0}, "strictly between 0 and 1"),
            ({"t_end": 5.0}, "too short"),
        ],
        ids=["two_modes", "p_zero", "short_horizon"],
    )
    def test_rejected_configs(self, tmp_path, extra, message):
        cfg = config_from_dict(base_config(**dict(WKB, **extra)))
        with pytest.raises(ConfigError, match=message):
            run_scenario(cfg, tmp_path / "out")


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
        res = run_cli("verify", "--config", str(cfgp), "--out", str(out),
                      "--override", "epsilon=[0.04]")
        assert res.returncode == 0, res.stderr
        manifest = json.loads((out / "runs.json").read_text(encoding="utf-8"))
        assert manifest["config"]["epsilon"] == [0.04]
        assert (out / "hyperbolic_eps0.04.csv").is_file()

    # the two scenarios that write fits of both flows or an amplitude-law check
    @pytest.mark.parametrize("scenario", ["decay", "wkb"])
    def test_report_subcommand_round_trips(self, tmp_path, scenario):
        cfgp = write_config(tmp_path, scenario_config(scenario))
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

    @pytest.mark.parametrize(
        "manifest,field",
        [
            ({"files": [], "config": {"p": 0.5}}, "runs.json files: expected dict"),
            ({"files": {}, "config": []}, "runs.json config: expected dict"),
            ({"files": {}, "config": {"p": "a"}}, "p: expected a number"),
            ({"files": {"parabolic": 3}}, "runs.json files parabolic: expected str"),
            ({"files": {"hyperbolic": {"0.1": ["x"]}}}, "runs.json files 0.1: expected str"),
            ({"files": {"hyperbolic": {"small": "x.csv"}}}, "runs.json files.hyperbolic"),
        ],
        ids=["files_list", "config_list", "p_string", "name_number", "name_list", "eps_key"],
    )
    def test_report_on_misshapen_manifest_exit_two(self, tmp_path, manifest, field):
        out = tmp_path / "out"
        out.mkdir()
        (out / "runs.json").write_text(json.dumps(manifest), encoding="utf-8")
        res = run_cli("report", "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert res.stderr.count("\n") == 1
        assert field in res.stderr

    @pytest.mark.parametrize(
        "name,text",
        [
            ("runs.json", '{"config": {"p": 0.5}, "files": {"parabolic": "runs.json"}}'),
            ("bad.csv", "t,gamma\n0.0,1.0\n1.0,abc\n"),
            ("bad.csv", "t,phi\n0.0,1.0\n1.0,0.5\n"),
            ("bad.csv", "t,gamma\n"),
            ("bad.csv", "t,gamma,phi\n0.0,1.0\n"),
        ],
        ids=["manifest_as_csv", "non_numeric_cell", "no_gamma_column", "no_rows", "short_rows"],
    )
    def test_report_on_a_file_that_is_not_a_klab_csv_exit_two(self, tmp_path, name, text):
        out = tmp_path / "out"
        out.mkdir()
        (out / "runs.json").write_text(
            json.dumps({"config": {"p": 0.5}, "files": {"parabolic": name}}), encoding="utf-8")
        if name != "runs.json":
            (out / name).write_text(text, encoding="utf-8")
        res = run_cli("report", "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert res.stderr.count("\n") == 1
        assert f"timeseries file {out / name}" in res.stderr

    @staticmethod
    def verify_in_process(tmp_path, capsys, text, *extra):
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        code = cli_main(["verify", "--config", str(path), "--out", str(tmp_path / "o"), *extra])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "path,field",
        [
            (("p",), "p: integer out of float range"),
            (("epsilon", 0), "epsilon[0]: integer out of float range"),
            (("mass", "constant"), "mass: int too large"),
            (("operator", "exponent"), "operator: int too large"),
            (("tolerances", "rel_tol"), "tolerances.rel_tol: integer out of float range"),
            (("initial", "u0", 0), "initial.u0: int too large"),
            (("samples",), "samples: expected an integer from 2 to"),
        ],
        ids=["p", "epsilon", "mass.constant", "operator.exponent", "tolerances.rel_tol",
             "initial.u0", "samples"],
    )
    def test_an_integer_past_float_range_exit_two(self, tmp_path, capsys, path, field):
        doc = base_config(operator={"family": "power", "nu": 1.0, "K": 1, "exponent": 2.0},
                          tolerances={"rel_tol": 1e-10})
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = 10**400
        code, err = self.verify_in_process(tmp_path, capsys, json.dumps(doc))
        assert code == 2, err
        assert field in err

    @pytest.mark.parametrize("where", ["file", "override"])
    def test_an_integer_past_the_digit_limit_exit_two(self, tmp_path, capsys, where):
        digits = "1" + "0" * 5000  # past Python's integer string-conversion limit
        text = json.dumps(base_config())
        if where == "file":
            code, err = self.verify_in_process(tmp_path, capsys, text.replace("0.5", digits, 1))
            assert f"config file {tmp_path / 'config.json'}: Exceeds the limit" in err
        else:
            code, err = self.verify_in_process(tmp_path, capsys, text, "--override", f"p={digits}")
            assert "override p: Exceeds the limit" in err
        assert code == 2, err

    def test_a_mass_without_a_variant_key_exit_two(self, tmp_path, capsys):
        doc = base_config(mass={"variant": "affine", "base": 1.0, "coeff": 1.0})
        code, err = self.verify_in_process(tmp_path, capsys, json.dumps(doc))
        assert code == 2, err
        assert err == "error: mass: needs one of 'constant', 'affine' or 'rational'\n"

    @pytest.mark.parametrize("value", ["1e-8", True, [1e-8]], ids=["string", "bool", "list"])
    def test_a_tolerance_that_is_not_a_number_exit_two(self, tmp_path, capsys, value):
        doc = base_config(tolerances={"rel_tol": value})
        code, err = self.verify_in_process(tmp_path, capsys, json.dumps(doc))
        assert code == 2, err
        assert err == f"error: tolerances.rel_tol: expected a number, got {value!r}\n"

    @pytest.mark.parametrize(
        "key,value,message",
        [("rel_tol", 0.5, "must be <= 1e-3, got 0.5"),
         ("rel_tol", 0.0, "must be positive, got 0.0"),
         ("abs_tol", 0.01, "must be <= 1e-3, got 0.01"),
         ("abs_tol", -1e-300, "must be positive, got -1e-300")],
    )
    def test_an_out_of_range_tolerance_names_its_field(self, tmp_path, capsys, key, value, message):
        doc = base_config(tolerances={key: value})
        code, err = self.verify_in_process(tmp_path, capsys, json.dumps(doc))
        assert code == 2, err
        assert err == f"error: tolerances.{key}: {message}\n"

    @pytest.mark.parametrize("key", ["max_step", "oscillation_safety"])
    def test_a_dropped_tolerance_key_exit_two(self, tmp_path, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(tolerances={key: 0.5})), encoding="utf-8")
        res = run_cli("verify", "--config", str(path), "--out", str(tmp_path / "o"))
        assert res.returncode == 2, res.stderr
        assert res.stderr == f"error: tolerances.{key}: unknown field\n"

    @pytest.mark.parametrize(
        "operator",
        [{"family": "uniform", "nu": 1.0, "modes": 1},
         {"family": "power", "nu": 1.0, "K": 1, "parameter": 2.0},
         {"family": "arithmetic", "nu": 1.0, "K": 1, "parameter": 0.5}],
        ids=["modes", "parameter_as_exponent", "parameter_as_gap"],
    )
    def test_an_operator_alias_is_an_unknown_field(self, tmp_path, capsys, operator):
        alias = "modes" if "modes" in operator else "parameter"
        code, err = self.verify_in_process(tmp_path, capsys, json.dumps(base_config(operator=operator)))
        assert code == 2, err
        assert err == f"error: operator.{alias}: unknown field\n"

    def test_import_loads_no_scipy(self):
        # a fresh interpreter: the test process itself has scipy loaded
        code = "import sys, klab.cli; print([m for m in sys.modules if m.startswith('scipy')])"
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# properties over arbitrary documents
# ---------------------------------------------------------------------------

# any JSON value; lists and integers stay small, so no document asks for a giant K
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-64, 64)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=8) | st.dictionaries(st.text(max_size=8), inner,
                                                                  max_size=8),
    max_leaves=16,
)
VALID = base_config(
    operator={"eigenvalues": [1.0, 4.0], "nu": 1.0},
    mass={"affine": {"base": 1.0, "coeff": 0.5}},
    initial={"u0": [1.0, 0.5], "u1": [0.0, -1.0]},
    tolerances={"rel_tol": 1e-9, "abs_tol": 1e-300},
    seed=3,
)


def _paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


def _field(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, value):
    """A copy of ``doc`` with the field at ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    _field(doc, path[:-1])[path[-1]] = value
    return doc


FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])
# each example may integrate a flow, so fewer of them
CLI_FUZZ = settings(FUZZ, max_examples=40)
# VALID on a shorter, coarser grid with one field replaced: by any JSON value,
# or a number by a number
CLI_VALID = dict(VALID, t_end=2.0, samples=32)
_CLI_PATHS = sorted(_paths(CLI_VALID))
_CLI_NUMBER_PATHS = [
    path for path in _CLI_PATHS if isinstance(_field(CLI_VALID, path), (int, float))
]
CLI_DOCUMENTS = JSON | st.builds(
    lambda path, value: _replaced(CLI_VALID, path, value), st.sampled_from(_CLI_PATHS), JSON)
CLI_NEAR_VALID = st.builds(
    lambda path, value: _replaced(CLI_VALID, path, value),
    st.sampled_from(_CLI_NUMBER_PATHS), st.floats(0.0, 64.0) | st.integers(0, 64),
)
# the lowest mode of a single-mode operator under constant mass, scenario all
LOWEST_MODE_RUN = {
    "operator": {"family": "power", "nu": 1.0, "K": 1},
    "mass": {"constant": 1.0},
    "initial": {"preset": "lowest_mode"},
    "beta": 1.0,
    "scenario": "all",
}
# an override key: the text before its first "=", dotted or not
OVERRIDE_KEYS = st.lists(
    st.text(st.characters(blacklist_characters="="), max_size=6), min_size=1, max_size=3
).map(".".join)


class TestProperties:
    @FUZZ
    @given(path=st.sampled_from(sorted(_paths(VALID))), value=JSON)
    def test_config_from_dict_accepts_or_names_the_error(self, path, value):
        doc = _replaced(VALID, path, value)
        try:
            cfg = config_from_dict(doc)
        except ConfigError:
            return
        assert cfg.u0.shape == cfg.u1.shape == (cfg.operator.dim,)

    @FUZZ
    @given(
        manifest=JSON | st.fixed_dictionaries({}, optional={
            "config": JSON | st.fixed_dictionaries({}, optional={"p": JSON}),
            "files": JSON | st.fixed_dictionaries({}, optional={
                "parabolic": JSON,
                "hyperbolic": JSON | st.dictionaries(st.text(max_size=8), JSON, max_size=4),
            }),
        }),
        report=st.none() | JSON | st.fixed_dictionaries({}, optional={
            "checks": JSON | st.lists(JSON, max_size=4),
            "measured_constants": JSON,
        }),
    )
    def test_render_report_returns_a_verdict_or_names_the_error(self, manifest, report):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            (out / "runs.json").write_text(json.dumps(manifest), encoding="utf-8")
            if report is not None:
                (out / "report.json").write_text(json.dumps(report), encoding="utf-8")
            try:
                assert render_report(out) in (0, 1)
            except ConfigError:
                pass

    @settings(FUZZ, max_examples=100)
    @given(key=OVERRIDE_KEYS, fragment=JSON.map(json.dumps) | st.text(max_size=12))
    def test_apply_override_sets_the_field_or_names_the_error(self, key, fragment):
        doc = json.loads(json.dumps(VALID))
        try:
            apply_override(doc, f"{key}={fragment}")
        except ConfigError:
            return
        try:
            want = json.loads(fragment)
        except ValueError:
            want = fragment
        *parents, last = key.strip().split(".")
        target = doc
        for part in parents:
            target = target[part]
        assert json.dumps(target[last]) == json.dumps(want)

    @staticmethod
    def check_cli_exit(doc):
        """``klab verify`` on ``doc``: exit 2 with one ``error:`` line when the
        config is invalid, else 0 or 1 silently or 2 or 3 with one line."""
        try:
            config_from_dict(json.loads(json.dumps(doc)))
            valid = True
        except ConfigError:
            valid = False
        with (tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp,
              contextlib.redirect_stderr(io.StringIO()) as err):
            # a run that would take long fails fast (exit 3)
            mp.setattr(klab._rk, "_MAX_STEPS", 2000)
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            code = cli_main(["verify", "--config", str(path), "--out", str(Path(tmp) / "out")])
        text = err.getvalue()
        assert "Traceback" not in text
        if not valid:
            assert code == 2 and text.startswith("error: ") and text.count("\n") == 1, text
        elif code in (0, 1):
            assert text == ""
        else:
            # a runtime failure of a valid config is a bug; only the solver may fail
            assert code in (2, 3) and text.count("\n") == 1, text
            assert code == 2 or text.startswith("integration failure: "), text

    @pytest.mark.parametrize(
        "doc",
        [
            # p = 0, eps below 1/(2 mu nu): the flow outpaces exp(-2 mu nu t)
            dict(LOWEST_MODE_RUN, p=0.0, epsilon=[0.1], t_end=8.0, samples=400),
            # p = 0 with no rate to fit: zero data, and three samples
            dict(LOWEST_MODE_RUN, p=0.0, epsilon=[0.1], t_end=8.0, scenario="optimality",
                 initial={"u0": [0.0], "u1": [0.0]}),
            dict(LOWEST_MODE_RUN, p=0.0, epsilon=[0.1], t_end=8.0, samples=3,
                 scenario="optimality"),
            # the default horizon 200, where psi falls to exp(-3800) = 0
            dict(LOWEST_MODE_RUN, p=0.5, epsilon=[0.05], samples=2000, scenario="optimality"),
            # p = 1: the hyperbolic fit abscissa (1+t)^(1-p) - 1 is identically 0
            dict(SCENARIO_CONFIGS["decay"], p=1.0, epsilon=[0.05], t_end=8.0, samples=512,
                 beta=1.0, scenario="simulate"),
            # wkb with no rate to fit: the window [5, 8] holds two envelope
            # maxima, zero data have none, and two samples have no envelope
            dict(LOWEST_MODE_RUN, p=0.5, epsilon=[0.1], t_end=8.0, scenario="wkb"),
            dict(LOWEST_MODE_RUN, p=0.5, epsilon=[0.1], t_end=8.0, scenario="wkb",
                 initial={"u0": [0.0], "u1": [0.0]}),
            dict(LOWEST_MODE_RUN, p=0.5, epsilon=[0.1], t_end=8.0, samples=2),
            # zero data under constant mass: the pointwise bound's constant is 0
            dict(LOWEST_MODE_RUN, p=0.5, epsilon=[0.1], t_end=8.0, scenario="decay",
                 initial={"u0": [0.0], "u1": [0.0]}),
        ],
        ids=["p0_fast_flow", "p0_zero_data", "p0_three_samples", "psi_underflow", "p1_fit",
             "wkb_two_maxima", "wkb_zero_data", "all_two_samples", "decay_zero_data"],
    )
    def test_a_valid_config_exits_0_or_1_silently(self, tmp_path, capfd, doc):
        path = write_config(tmp_path, doc)
        code = cli_main(["verify", "--config", str(path), "--out", str(tmp_path / "out")])
        out, err = capfd.readouterr()
        assert code in (0, 1) and out == "" and err == "", (code, out, err)
        if doc["p"] == 1.0:
            report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
            slopes = {fit["name"]: fit["slope"] for fit in report["fits"]}
            assert np.isfinite(slopes["gamma_envelope_eps0.05"])

    @CLI_FUZZ
    @given(doc=CLI_DOCUMENTS)
    def test_cli_on_any_document_exits_with_a_code(self, doc):
        self.check_cli_exit(doc)

    @CLI_FUZZ
    @given(doc=CLI_NEAR_VALID)
    def test_cli_on_a_document_with_one_number_changed_exits_with_a_code(self, doc):
        self.check_cli_exit(doc)
