"""Config loading, file emission, scenarios and the CLI contract."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import klab._rk
import klab.harness
from klab import IntegratorConfig, arithmetic_spectrum, epsilon_sweep_decay_error
from klab.cli import main as cli_main
from klab.harness import (
    SCENARIOS,
    ConfigError,
    apply_override,
    config_from_dict,
    emit_timeseries,
    render_report,
    run_scenario,
)

REPO = Path(__file__).resolve().parents[1]
# a child interpreter imports klab from this checkout, installed or not
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
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
# the K = 4 physics of the checks_k4 benchmark workload, with fixed data
K4_RUN = {
    "p": 0.5,
    "epsilon": [0.04, 0.02, 0.01],
    "operator": {"family": "power", "nu": 1.0, "K": 4, "exponent": 2.0},
    "mass": {"affine": {"base": 1.0, "coeff": 1.0}},
    "initial": {"u0": [0.54, 0.32, 0.058, -0.13], "u1": [0.94, 0.12, -0.062, 0.038]},
    "beta": 1.0,
    "t_end": 16.0,
    "samples": 4096,
    "tolerances": {"rel_tol": 1e-10},
    "scenario": "decay",
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


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "klab", *args],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        cwd=REPO,
    )


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

class TestConfig:
    def test_minimal_round_trip(self):
        cfg = config_from_dict(base_config())
        assert cfg.p == 0.5
        assert cfg.epsilon == (0.05,)
        assert cfg.t_end == 6.0
        assert cfg.samples == 200
        assert cfg.scenario == "decay"
        assert cfg.beta == 1.0

    def test_defaults(self):
        doc = base_config()
        del doc["t_end"], doc["samples"], doc["scenario"]
        cfg = config_from_dict(doc)
        assert cfg.samples == 4096
        assert cfg.scenario == "simulate"
        assert cfg.t_end > 1.0
        assert cfg.integrator == IntegratorConfig()

    def test_default_horizon_counts_p_near_one_as_one(self):
        # below DEGENERATE_P from 1, as in weight_integral: log(1+t), not the power form
        horizons = []
        for p in (1.0 - 1e-13, 1.0):
            doc = base_config(p=p, beta=30.0)
            del doc["t_end"]
            horizons.append(config_from_dict(doc).t_end)
        assert horizons == [math.expm1(30.0 * math.log(10.0) / 30.0)] * 2

    def test_uniform_family_is_arithmetic_with_gap_zero(self):
        want = arithmetic_spectrum(0.7, 3, 0.0)
        for extra in ({}, {"gap": 3.0}):  # a gap is ignored for this family
            op = config_from_dict(base_config(
                operator={"family": "uniform", "nu": 0.7, "K": 3, **extra},
                initial={"preset": "lowest_mode"})).operator
            np.testing.assert_array_equal(op.eigenvalues, want.eigenvalues)
            assert op.nu == want.nu == 0.7

    def test_epsilon_sorted_downward(self):
        doc = base_config(epsilon=[0.01, 0.04, 0.02])
        cfg = config_from_dict(doc)
        assert cfg.epsilon == (0.04, 0.02, 0.01)

    def test_missing_velocity_field_is_named(self):
        doc = base_config()
        del doc["initial"]["u1"]
        with pytest.raises(ConfigError, match="initial.u1"):
            config_from_dict(doc)

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
        doc = base_config(tolerances={"rel_tol": 1e-8})
        cfg = config_from_dict(doc)
        assert cfg.integrator == IntegratorConfig(rel_tol=1e-8)
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

    def test_edge_values_keep_the_per_element_bytes(self, tmp_path):
        edge = [-0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, np.inf, -np.inf, np.nan]
        # 41 copies, so that the rows span several blocks of the writer
        values = np.tile(edge, 41)
        columns = {"a": values, "b": values[::-1].copy(), "c": np.arange(values.size, dtype=float)}
        path = tmp_path / "edge.csv"
        emit_timeseries(path, columns)
        # the bytes of repr(float(column[i])) for every element, row by row
        arrays = list(columns.values())
        rows = [",".join(repr(float(a[i])) for a in arrays) for i in range(values.size)]
        want = "\n".join(["a,b,c", *rows]) + "\n"
        assert path.read_bytes() == want.encode("utf-8")
        assert "-0.0,nan,0.0" in want and "5e-324" in want and "1e+16" in want
        assert values.size > klab.harness._EMIT_ROWS

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
            klab.harness._SWEEPS.clear()  # each run solves
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

    @pytest.mark.parametrize("offset", [0.5e-9, -0.5e-9, 2e-9, -2e-9])
    def test_decay_error_takes_the_sweeps_its_check_takes(self, tmp_path, monkeypatch, offset):
        # the scenario refuses a sweep before integrating exactly when the
        # check it runs would refuse it afterwards
        eps = [0.04, 0.02, 0.02 / (2.0 + offset)]
        halving = abs(offset) < 1e-9
        times = np.linspace(0.0, 4.0, 100)
        ones = {e: np.ones(100) for e in eps}
        if halving:
            epsilon_sweep_decay_error(times, ones, 1.0, 0.5, 1.0, 1.0)
        else:
            with pytest.raises(ValueError, match="halving"):
                epsilon_sweep_decay_error(times, ones, 1.0, 0.5, 1.0, 1.0)

        class Integrating(Exception):
            pass

        def integrating(ctx):
            raise Integrating

        monkeypatch.setattr(klab.harness._Context, "parabolic", integrating)
        cfg = config_from_dict(base_config(scenario="decay_error", epsilon=eps))
        with pytest.raises(Integrating if halving else ConfigError):
            run_scenario(cfg, tmp_path / "out")

    def test_render_report_needs_manifest(self, tmp_path):
        with pytest.raises(ConfigError):
            render_report(tmp_path / "never_ran")

    @pytest.mark.parametrize(
        "tolerances,mass",
        [
            ({}, {"constant": 1.0}),
            ({"rel_tol": 1e-8}, {"constant": 1.0}),
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
        klab.harness._SWEEPS.clear()  # the reloaded run solves
        assert run_scenario(config_from_dict(echo), tmp_path / "b") == 0
        for name in ("runs.json", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_lists_step_counts_of_every_flow(self, tmp_path):
        cfg = config_from_dict(base_config(scenario="decay_error", epsilon=[0.04, 0.02, 0.01],
                                           mass={"affine": {"base": 1.0, "coeff": 1.0}}))
        assert run_scenario(cfg, tmp_path / "out") in (0, 1)
        steps = json.loads((tmp_path / "out" / "runs.json").read_text(encoding="utf-8"))[
            "integrator"
        ]
        assert sorted(steps["hyperbolic"]) == ["0.01", "0.02", "0.04"]
        assert steps["lemmas"] == {}
        # the limit flow's phase quadrature
        assert sorted(steps["parabolic"]) == ["nodes", "panels"]
        assert steps["parabolic"]["nodes"] == 8 and steps["parabolic"]["panels"] > 0
        for counts in steps["hyperbolic"].values():
            assert sorted(counts) == sorted(STEP_FIELDS + RETIREMENT_FIELDS)
            # a single mode always carries all the energy
            assert counts["retired_modes"] == 0 and counts["last_retirement_t"] is None
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
            klab.harness._SWEEPS.clear()  # each run solves
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
            # a second-order solve's steps, the limit flow's quadrature
            assert entry["accepted"] > 0 if eps else entry["nodes"] == 8
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
        "scenario,extra,shapes",
        [
            # the three second-order flows, rows (u, u') of K = 1, as one
            # solve (the limit flow takes none); the sweep reuses them
            ("decay_error", {"epsilon": [0.04, 0.02, 0.01]}, [(3, 2)]),
            # the probe reads the scenario's own two second-order runs
            ("open_problem", {"p": 0.0, "epsilon": [0.1, 0.05]}, [(2, 2)]),
            # 300 synthetic instances; only lemma33's, which is not linear,
            # take a solve, as one row of 100 components
            ("lemmas", {}, [(1, 100)]),
        ],
        ids=["decay_error", "open_problem", "lemmas"],
    )
    def test_each_flow_is_integrated_once(self, tmp_path, monkeypatch, scenario, extra, shapes):
        import klab.analysis
        import klab.evolution

        calls = []
        solve = klab.evolution.solve_to_grid

        def counting(f, y0, *args, **kwargs):
            # the members of one solve by their components
            calls.append(np.shape(y0))
            return solve(f, y0, *args, **kwargs)

        for module in (klab.evolution, klab.analysis):
            monkeypatch.setattr(module, "solve_to_grid", counting)
        cfg = config_from_dict(base_config(scenario=scenario, **extra))
        assert run_scenario(cfg, tmp_path / "out") in (0, 1)
        assert calls == shapes


# two modes under affine mass, a two-eps sweep on a short grid
SWEEP_RUN = base_config(
    epsilon=[0.04, 0.02],
    operator={"eigenvalues": [1.0, 4.0], "nu": 1.0},
    mass={"affine": {"base": 1.0, "coeff": 0.5}},
    initial={"u0": [1.0, 0.5], "u1": [0.0, -1.0]},
    tolerances={"rel_tol": 1e-9},
    t_end=2.0,
    samples=32,
    scenario="simulate",
)


class TestKeptSweep:
    """The process keeps its last eps sweep and reuses it for the same physics."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """The second-order solves the test makes, counted."""
        import klab.evolution

        calls = []
        solve = klab.evolution.solve_to_grid

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(klab.evolution, "solve_to_grid", counting)
        return calls

    @staticmethod
    def run(tmp_path, doc, name):
        assert run_scenario(config_from_dict(doc), tmp_path / name) in (0, 1)
        return {path.name: path.read_bytes() for path in sorted((tmp_path / name).iterdir())}

    def test_decay_then_decay_error_take_one_solve(self, tmp_path, solves):
        doc = dict(SWEEP_RUN, epsilon=[0.04, 0.02, 0.01])
        kept = [self.run(tmp_path, dict(doc, scenario=s), f"kept_{s}")
                for s in ("decay", "decay_error")]
        assert len(solves) == 1
        fresh = []
        for s in ("decay", "decay_error"):
            klab.harness._SWEEPS.clear()
            fresh.append(self.run(tmp_path, dict(doc, scenario=s), f"fresh_{s}"))
        assert len(solves) == 3
        assert kept == fresh

    @pytest.mark.parametrize(
        "path,before,after",
        [
            (("initial", "u0", 0), 1.0, math.nextafter(1.0, 2.0)),
            (("initial", "u1", 1), -1.0, -0.5),
            (("t_end",), 2.0, 2.5),
            (("samples",), 32, 33),
            (("tolerances", "rel_tol"), 1e-9, 1e-8),
            (("operator", "eigenvalues", 1), 4.0, 4.5),
            (("operator", "nu"), 1.0, 0.5),
            (("mass",), {"affine": {"base": 1.0, "coeff": 0.5}},
             {"rational": {"base": 1.0, "coeff": 0.5}}),
            (("mass", "affine", "base"), 1.0, 1.5),
            (("mass", "affine", "coeff"), 0.5, 0.25),
            (("mass", "affine", "coeff"), 0.0, -0.0),
            (("p",), 0.5, 0.25),
            (("epsilon",), [0.04, 0.02], [0.04, 0.01]),
        ],
        ids=["u0_ulp", "u1", "t_end", "samples", "rel_tol", "eigenvalue", "nu", "variant",
             "base", "coeff", "coeff_signed_zero", "p", "epsilon"],
    )
    def test_other_physics_takes_a_fresh_solve(self, tmp_path, solves, path, before, after):
        first = self.run(tmp_path, _replaced(SWEEP_RUN, path, before), "before")
        assert len(solves) == 1
        assert self.run(tmp_path, _replaced(SWEEP_RUN, path, after), "after") != first
        assert len(solves) == 2

    @pytest.mark.parametrize(
        "path,value",
        [(("beta",), 0.5), (("scenario",), "decay"), (("seed",), 7)],
        ids=["beta", "scenario", "seed"],
    )
    def test_what_the_sweep_does_not_read_reuses_it(self, tmp_path, solves, path, value):
        self.run(tmp_path, SWEEP_RUN, "first")
        changed = _replaced(SWEEP_RUN, path, value)
        kept = self.run(tmp_path, changed, "kept")
        assert len(solves) == 1
        klab.harness._SWEEPS.clear()
        assert self.run(tmp_path, changed, "fresh") == kept
        assert len(solves) == 2

    def test_a_failed_sweep_is_not_kept(self, tmp_path, solves, monkeypatch):
        self.run(tmp_path, SWEEP_RUN, "first")
        failing = _replaced(SWEEP_RUN, ("t_end",), 4.0)
        with monkeypatch.context() as mp:
            mp.setattr(klab._rk, "_MAX_STEPS", 10)
            with pytest.raises(klab._rk.IntegrationError, match="step budget 10 exceeded"):
                run_scenario(config_from_dict(failing), tmp_path / "failed")
        assert klab.harness._SWEEPS == {}
        assert len(solves) == 2
        self.run(tmp_path, failing, "again")
        assert len(solves) == 3

    def test_the_process_keeps_one_sweep(self, tmp_path, solves):
        docs = [SWEEP_RUN, _replaced(SWEEP_RUN, ("p",), 0.25), _replaced(SWEEP_RUN, ("t_end",), 3.0)]
        for i, doc in enumerate(docs + docs[:1]):
            self.run(tmp_path, doc, f"run{i}")
            assert len(klab.harness._SWEEPS) == 1
        # the first physics was dropped for the second, so it is solved again
        assert len(solves) == 4


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
            (("mass", "constant"), "mass.constant: integer out of float range"),
            (("operator", "exponent"), "operator.exponent: integer out of float range"),
            (("tolerances", "rel_tol"), "tolerances.rel_tol: integer out of float range"),
            (("initial", "u0", 0), "initial.u0[0]: integer out of float range"),
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

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("mass", {"affine": {"base": 1, "coeff": 1}, "constant": 2.0},
             "mass: takes one variant, got 'constant' and 'affine'"),
            ("mass", {"constant": 1.0, "coeff": 0.5}, "mass.coeff: unknown field"),
            ("mass", {"rational": {"base": "3", "coeff": False, "extra": 1}},
             "mass.rational.extra: unknown field"),
            ("mass", {"rational": {"base": "3", "coeff": 1.0}},
             "mass.rational.base: expected a number, got '3'"),
            ("mass", {"affine": {"base": 1.0, "coeff": False}},
             "mass.affine.coeff: expected a number, got False"),
            ("mass", {"affine": {"base": 1.0}}, "mass.affine.coeff: required field is missing"),
            ("mass", {"affine": [1.0, 1.0]}, "mass.affine: expected an object"),
            ("mass", {"constant": True}, "mass.constant: expected a number, got True"),
            ("operator", {"family": "power", "nu": 1.0, "K": 1, "exponent": True},
             "operator.exponent: expected a number, got True"),
            ("operator", {"family": "power", "nu": 1.0, "K": 1, "exponent": "2"},
             "operator.exponent: expected a number, got '2'"),
            ("operator", {"family": "arithmetic", "nu": 1.0, "K": 1, "gap": "1"},
             "operator.gap: expected a number, got '1'"),
            ("operator", {"eigenvalues": ["1"], "nu": 1.0},
             "operator.eigenvalues[0]: expected a number, got '1'"),
            ("operator", {"eigenvalues": 1.0, "nu": 1.0},
             "operator.eigenvalues: expected a list of numbers, got 1.0"),
            ("initial", {"u0": ["1"], "u1": [0.0]}, "initial.u0[0]: expected a number, got '1'"),
            ("initial", {"u0": [1.0], "u1": [True]}, "initial.u1[0]: expected a number, got True"),
            ("initial", {"u0": [float("nan")], "u1": [0.0]},
             "initial.u0[0]: expected a finite number, got nan"),
            ("t_end", float("nan"), "t_end: expected a finite number, got nan"),
            ("t_end", float("inf"), "t_end: expected a finite number, got inf"),
            ("beta", float("nan"), "beta: expected a finite number, got nan"),
            ("epsilon", [float("nan")], "epsilon[0]: expected a finite number, got nan"),
        ],
        ids=["two_variants", "extra_key", "extra_body_key", "string_base", "bool_coeff",
             "missing_coeff", "body_list", "bool_constant", "bool_exponent", "string_exponent",
             "string_gap", "string_eigenvalue", "scalar_eigenvalues", "string_u0", "bool_u1",
             "nan_u0", "nan_t_end", "infinite_t_end", "nan_beta", "nan_epsilon"],
    )
    def test_a_malformed_number_exit_two(
        self, tmp_path, capsys, field, value, message
    ):
        doc = base_config(**{field: value})
        code, err = self.verify_in_process(tmp_path, capsys, json.dumps(doc))
        assert code == 2, err
        assert err == f"error: {message}\n"

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
         ("rel_tol", 1e-13, "must be >= 1e-12, got 1e-13")],
    )
    def test_an_out_of_range_tolerance_names_its_field(self, tmp_path, capsys, key, value, message):
        doc = base_config(tolerances={key: value})
        code, err = self.verify_in_process(tmp_path, capsys, json.dumps(doc))
        assert code == 2, err
        assert err == f"error: tolerances.{key}: {message}\n"

    @pytest.mark.parametrize("key", ["max_step", "oscillation_safety", "abs_tol"])
    def test_a_dropped_tolerance_key_exit_two(self, tmp_path, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(tolerances={key: 0.5})), encoding="utf-8")
        res = run_cli("verify", "--config", str(path), "--out", str(tmp_path / "o"))
        assert res.returncode == 2, res.stderr
        assert res.stderr == f"error: tolerances.{key}: unknown field\n"

    def test_an_overflowing_spectrum_exit_two_with_one_line(self, tmp_path):
        # nu k^1000 overflows from k = 2 on: the finiteness check alone speaks
        doc = base_config(
            scenario="simulate",
            operator={"family": "power", "nu": 1, "K": 4, "exponent": 1000.0},
            initial={"u0": [1.0, 0.0, 0.0, 0.0], "u1": [0.0] * 4},
        )
        res = run_cli("simulate", "--config", str(write_config(tmp_path, doc)),
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 2, res.stderr
        assert res.stderr == "error: operator: eigenvalues must all be finite\n"

    def test_an_eps_the_explicit_solver_cannot_finish_exit_two_at_once(self, tmp_path, capsys):
        # W(6) / (6.6 eps) = 4.99e7 steps at p 0.5, past the 1e7 budget: refused before a step
        doc = base_config(epsilon=[0.05, 1e-8])
        start = time.perf_counter()
        code, err = self.verify_in_process(tmp_path, capsys, json.dumps(doc))
        assert time.perf_counter() - start < 1.0
        assert code == 2, err
        assert err == ("error: epsilon: 1e-08 needs at least 4.99e+07 steps of the explicit "
                       "solver, past its budget of 10000000\n")
        # zero data take only the grid's steps, so nothing is refused
        doc = base_config(epsilon=[1e-8], initial={"u0": [0.0], "u1": [0.0]}, samples=8)
        assert self.verify_in_process(tmp_path, capsys, json.dumps(doc))[0] in (0, 1)

    @pytest.mark.parametrize(
        "command,extra,t_end,samples",
        [
            # a spacing of 1.6e-15, far below any step the solver takes
            ("verify", {}, 1e-13, 64),
            ("verify", {"initial": {"u0": [0.0] * 4, "u1": [0.0] * 4}}, 1e-13, 64),
            ("verify", {}, 3e-11, 4096),
            # no second-order flow to refuse it, but the limit flow's fit on
            # this grid writes numpy warnings and LAPACK errors to stderr
            ("simulate", {"epsilon": []}, 1e-200, 4096),
        ],
        ids=["decay", "decay_zero_data", "decay_4096", "simulate_no_eps"],
    )
    def test_samples_closer_than_the_shortest_step_exit_two(
        self, tmp_path, capfd, command, extra, t_end, samples
    ):
        doc = dict(K4_RUN, **extra, t_end=t_end, samples=samples)
        code = cli_main([command, "--config", str(write_config(tmp_path, doc)),
                         "--out", str(tmp_path / "o")])
        out, err = capfd.readouterr()
        assert code == 2 and out == "", (code, out, err)
        assert err == (f"error: t_end: {t_end!r} over {samples} samples spaces them closer "
                       "than the solver's shortest step, 1e-14 max(1, t)\n")

    @pytest.mark.parametrize(
        "t_end,runs",
        # 6.3e-13 over 64 samples spaces them 1e-14 apart, but the rounded
        # grid puts the sample after t = 2e-14 less than 1e-14 further on
        [(6.3e-13, False), (6.31e-13, True), (1e-12, True)],
    )
    def test_the_shortest_step_bounds_the_sample_spacing(self, tmp_path, capfd, t_end, runs):
        for initial in (K4_RUN["initial"], {"u0": [0.0] * 4, "u1": [0.0] * 4}):
            doc = dict(K4_RUN, initial=initial, t_end=t_end, samples=64)
            if not runs:
                with pytest.raises(ConfigError, match="t_end: 6.3e-13 over 64 samples"):
                    config_from_dict(doc)
                continue
            # zero data take their first step at rest, which must not fall
            # below the shortest step either
            code = cli_main(["verify", "--config", str(write_config(tmp_path, doc)),
                             "--out", str(tmp_path / "o")])
            out, err = capfd.readouterr()
            assert code in (0, 1) and out == err == "", (code, out, err)

    @pytest.mark.parametrize(
        "command,scenario,mass,scale",
        [
            # without the data bound each broke the exit-code contract: exit 3
            # with "worst_slack must be finite" after 18 numpy warning lines
            ("verify", "decay", {"constant": 1.0}, 1e154),
            # exit 0 with 16 warning lines
            ("simulate", "simulate", {"constant": 1.0}, 1e160),
            # exit 3 with an IndexError from the limit flow's phase
            ("simulate", "simulate", {"affine": {"base": 1.0, "coeff": 1.0}}, 1e160),
            # exit 3 with two warning lines before "integration failure:"
            ("verify", "decay", {"affine": {"base": 1.0, "coeff": 1.0}}, 1e140),
            # exit 1 with two warning lines from m'
            ("verify", "all", {"rational": {"base": 1.0, "coeff": 1.0}}, 1e120),
        ],
        ids=["constant_decay", "constant_simulate", "affine_simulate", "affine_decay",
             "rational_all"],
    )
    def test_data_whose_energy_squares_overflow_exit_two(
        self, tmp_path, capfd, command, scenario, mass, scale
    ):
        doc = dict(K4_RUN, mass=mass, samples=64, scenario=scenario,
                   initial={"u0": [scale, 0.0, 0.0, 0.0], "u1": [0.0] * 4})
        code = cli_main([command, "--config", str(write_config(tmp_path, doc)),
                         "--out", str(tmp_path / "o")])
        out, err = capfd.readouterr()
        assert code == 2 and out == "", (code, out, err)
        assert err.startswith("error: initial: gamma(0) = ") and err.count("\n") == 1, err
        if scale == 1e120:
            assert err == ("error: initial: gamma(0) = 3e+240 is not below sqrt(max double) "
                           "= 1.34e+154\n")

    def test_the_data_bound_is_gamma_at_the_largest_eps(self, tmp_path, capfd):
        # gamma(0) = 3 s^2 for u0 = (s, 0, 0, 0) at lambda_1 = 1, and adds
        # (1 + eps) s^2 for u1 = (s, 0, 0, 0), at eps 0.04 and not 0.01
        bound = math.sqrt(sys.float_info.max)
        for u0, u1, factor in ((1.0, 0.0, 3.0), (0.0, 1.0, 1.04), (1.0, 1.0, 4.04)):
            for side in (1.0 - 1e-6, 1.0 + 1e-6):
                s = math.sqrt(bound / factor) * side
                doc = dict(K4_RUN, mass={"constant": 1.0}, samples=64,
                           initial={"u0": [s * u0, 0.0, 0.0, 0.0], "u1": [s * u1, 0.0, 0.0, 0.0]})
                if side > 1.0:
                    with pytest.raises(ConfigError, match=r"^initial: gamma\(0\) = "):
                        config_from_dict(doc)
                else:
                    config_from_dict(doc)
                    below = doc
        # just below the bound a run is silent
        code = cli_main(["verify", "--config", str(write_config(tmp_path, below)),
                         "--out", str(tmp_path / "o")])
        out, err = capfd.readouterr()
        assert code in (0, 1) and out == err == "", (code, out, err)

    @staticmethod
    def verify_cli_valid(tmp_path, capfd, override):
        """``klab verify`` in process on ``CLI_VALID``'s decay run with one override."""
        path = write_config(tmp_path, dict(CLI_VALID, scenario="decay"))
        code = cli_main(["verify", "--config", str(path), "--out", str(tmp_path / "o"),
                         "--override", override])
        out, err = capfd.readouterr()
        assert out == "", out
        return code, err

    @pytest.mark.parametrize(
        "override,message",
        [
            # each exited 3 with three lines: "worst_slack must be finite"
            # after inf - inf in energy_F, or "step size underflow" after an
            # overflow in the solver's norm
            ("mass.affine.base=5e-324",
             "inf m = 4.94e-324 is not at least 1/sqrt(max double) = 7.46e-155"),
            ("mass.affine.base=2.4e157",
             "m(sigma(0)) lambda_max = 9.6e+157 is not below sqrt(max double) = 1.34e+154"),
            ("mass.affine.coeff=1e300",
             "m(sigma(0)) lambda_max = 8e+300 is not below sqrt(max double) = 1.34e+154"),
        ],
        ids=["subnormal_base", "huge_base", "huge_coeff"],
    )
    def test_a_mass_the_run_cannot_square_exit_two(self, tmp_path, capfd, override, message):
        code, err = self.verify_cli_valid(tmp_path, capfd, override)
        assert code == 2 and err == f"error: mass: {message}\n", (code, err)

    def test_the_mass_bound_admits_a_mass_just_inside_it(self, tmp_path, capfd):
        for override in ("mass.affine.base=8e-155", "mass.affine.base=1e-100"):
            code, err = self.verify_cli_valid(tmp_path, capfd, override)
            assert code in (0, 1) and err == "", (override, code, err)

    def test_a_large_beta_writes_no_warning(self, tmp_path, capfd):
        # -beta w F overflowed before the monitor's onset T, where it reads nothing
        code, err = self.verify_cli_valid(tmp_path, capfd, "beta=6.1e283")
        assert code in (0, 1) and err == "", (code, err)

    def test_a_constant_mass_bound_past_exp_range_exit_cleanly(self, tmp_path):
        # g = 2 mu nu / (1+p) = 1000: e^g overflows, the bound 1.05 lhs(0) psi(g) does not.
        # One mode keeps a constant slack, so rounding sets worst_t: it is not pinned.
        doc = base_config(p=0, epsilon=[0.01], t_end=2, samples=256,
                          operator={"family": "power", "nu": 500, "K": 2, "exponent": 2},
                          initial={"preset": "lowest_mode"})
        res = run_cli("verify", "--config", str(write_config(tmp_path, doc)),
                      "--out", str(tmp_path / "o"))
        assert res.returncode in (0, 1), res.stderr
        assert len(res.stderr.splitlines()) <= 1
        checks = json.loads((tmp_path / "o" / "report.json").read_text())["checks"]
        (bound,) = [c for c in checks if c["name"] == "parabolic_pointwise_bound"]
        assert bound["params"]["C"] == "inf" and bound["params"]["gamma"] == 1000.0

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
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             cwd=REPO, env=CHILD_ENV)
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
    tolerances={"rel_tol": 1e-9},
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
# a JSON value of each type, as an --override gives it; Python's JSON reader
# also takes NaN and the infinities as numbers
JSON_OF_EACH_TYPE = {
    "null": st.none(),
    "boolean": st.booleans(),
    "integer": st.integers(-64, 64),
    "number": st.floats(),
    "string": st.text(max_size=8),
    "array": st.lists(JSON, max_size=4),
    "object": st.dictionaries(st.text(max_size=8), JSON, max_size=4),
}
# the lowest mode of a single-mode operator under constant mass, scenario all
LOWEST_MODE_RUN = {
    "operator": {"family": "power", "nu": 1.0, "K": 1},
    "mass": {"constant": 1.0},
    "initial": {"preset": "lowest_mode"},
    "beta": 1.0,
    "scenario": "all",
}


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def cheap_runs(draw, scenario):
    """A valid-looking config in a space capped so that each run is cheap:
    K <= 8, samples <= 64, t_end <= 8, eps >= 0.02, rel_tol >= 1e-10.
    ``t_end`` is drawn on [0.05, 8] or log-uniformly down to 1e-300; eps is
    a halving sweep of up to three values, as ``decay_error`` takes."""
    K = draw(st.integers(1, 8))
    data = st.lists(st.floats(-2.0, 2.0), min_size=K, max_size=K)
    eps = draw(st.floats(0.08, 1.0))
    return {
        "p": draw(st.just(0.0) | st.floats(0.0, 1.0)),
        "epsilon": [eps / 2**i for i in range(draw(st.integers(0, 3)))],
        "operator": {
            "family": draw(st.sampled_from(["uniform", "power", "arithmetic"])),
            "nu": draw(st.floats(0.1, 2.0)),
            "K": K,
            "exponent": draw(st.floats(0.5, 2.0)),
        },
        "mass": draw(
            st.builds(lambda c: {"constant": c}, st.floats(0.1, 2.0))
            | st.builds(lambda v, b, c: {v: {"base": b, "coeff": c}},
                        st.sampled_from(["affine", "rational"]), st.floats(0.1, 2.0),
                        st.floats(0.0, 2.0))
        ),
        "initial": draw(
            st.sampled_from(klab.harness._PRESETS).map(lambda preset: {"preset": preset})
            | st.fixed_dictionaries({"u0": data, "u1": data})
        ),
        "beta": draw(st.floats(0.1, 2.0)),
        "t_end": draw(st.floats(0.05, 8.0) | _log_uniform(1e-300, 8.0)),
        "samples": draw(st.integers(2, 64)),
        "tolerances": {"rel_tol": draw(_log_uniform(1e-10, 1e-6))},
        "scenario": scenario,
        "seed": draw(st.integers(0, 3)),
    }


# an override key: the text before its first "=", dotted or not
OVERRIDE_KEYS = st.lists(
    st.text(st.characters(blacklist_characters="="), max_size=6), min_size=1, max_size=3
).map(".".join)


# a span written over a stored output: raw bytes, or a token a CSV or JSON
# reader may take for a number, a separator or a structure
_PATCHES = st.binary(min_size=1, max_size=8) | st.sampled_from(
    ["nan", "inf", "-inf", "1e999", "-0", ",", "\n", "t", "gamma", "{", "]", '"x"', "null"]
).map(str.encode)


@st.composite
def damaged_outputs(draw, files):
    """``files`` (name -> bytes) with one or two of them gone, cut short, or
    with a span near their start or anywhere overwritten (``None`` for gone)."""
    files = dict(files)
    for name in draw(st.lists(st.sampled_from(sorted(files)), min_size=1, max_size=2,
                              unique=True)):
        data = files[name]
        kind = draw(st.sampled_from(["missing", "truncated", "corrupted"]))
        start = draw(st.integers(0, min(64, len(data) - 1)) | st.integers(0, len(data) - 1))
        if kind == "missing":
            files[name] = None
        elif kind == "truncated":
            files[name] = data[:start]
        else:
            end = draw(st.integers(start, min(len(data), start + 16)))
            files[name] = data[:start] + draw(_PATCHES) + data[end:]
    return files


@pytest.fixture(scope="module")
def cheap_outputs(tmp_path_factory):
    """Every file of one cheap ``verify`` run of scenario ``all``, by name."""
    out = tmp_path_factory.mktemp("cheap") / "out"
    run_scenario(config_from_dict(scenario_config("all")), out)
    return {path.name: path.read_bytes() for path in out.iterdir()}


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

    @settings(FUZZ, max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_report_on_damaged_outputs_keeps_the_exit_code_contract(
        self, capfd, cheap_outputs, data
    ):
        # klab report on a run's outputs with files gone, cut short or
        # overwritten: exit 0 or 1 silently, or 2 with one error line
        files = data.draw(damaged_outputs(cheap_outputs))
        capfd.readouterr()
        with tempfile.TemporaryDirectory() as tmp:
            for name, content in files.items():
                if content is not None:
                    (Path(tmp) / name).write_bytes(content)
            code = cli_main(["report", "--out", tmp])
        stdout, stderr = capfd.readouterr()
        assert code in (0, 1, 2) and stdout == "", (code, stdout, stderr)
        if code == 2:
            assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
        else:
            assert stderr == "", stderr

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
    def check_cli_exit(doc, overrides=()):
        """``klab verify`` on ``doc`` with each of ``overrides`` as an
        ``--override``: exit 2 with one ``error:`` line when the config is
        invalid, else 0 or 1 silently or 2 or 3 with one line."""
        try:
            raw = json.loads(json.dumps(doc))
            for override in overrides:
                apply_override(raw, override)
            config_from_dict(raw)
            valid = True
        except ConfigError:
            valid = False
        with (tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp,
              contextlib.redirect_stderr(io.StringIO()) as err):
            # a run that would take long fails fast (exit 3)
            mp.setattr(klab._rk, "_MAX_STEPS", 2000)
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            code = cli_main(["verify", "--config", str(path), "--out", str(Path(tmp) / "out"),
                             *(f"--override={override}" for override in overrides)])
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
            # p near 0: the monitors' onset T and the oscillation onset pass
            # double range (an OverflowError), or 1/(2p) is inf and so is T
            dict(LOWEST_MODE_RUN, p=1e-300, epsilon=[0.1], t_end=8.0, samples=64),
            dict(LOWEST_MODE_RUN, p=5e-324, epsilon=[0.1], t_end=8.0, samples=64),
        ],
        ids=["p0_fast_flow", "p0_zero_data", "p0_three_samples", "psi_underflow", "p1_fit",
             "wkb_two_maxima", "wkb_zero_data", "all_two_samples", "decay_zero_data",
             "p_overflowing_onset", "p_subnormal"],
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

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @settings(FUZZ, max_examples=6,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_a_cheap_run_keeps_the_exit_code_contract(self, capfd, scenario, data):
        # exit 0 or 1 silently with a runs.json that reloads to the same
        # config, or 2 with one line; a valid config never exits 3
        doc = data.draw(cheap_runs(scenario))
        capfd.readouterr()
        command = "simulate" if scenario == "simulate" else "verify"
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            code = cli_main([command, "--config", str(write_config(Path(tmp), doc)),
                             "--out", str(out)])
            stdout, stderr = capfd.readouterr()
            assert code in (0, 1, 2) and stdout == "", (code, stdout, stderr)
            if code == 2:
                assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
                return
            assert stderr == ""
            echo = json.loads((out / "runs.json").read_text(encoding="utf-8"))["config"]
        want = json.loads(json.dumps(klab.harness._config_echo(config_from_dict(doc))))
        assert echo == want
        assert json.loads(json.dumps(klab.harness._config_echo(config_from_dict(echo)))) == echo

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @settings(FUZZ, max_examples=6,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_data_of_any_magnitude_keep_the_exit_code_contract(self, capfd, scenario, data):
        # a cheap run whose data are drawn log-uniformly on [1e-300, 1e300]:
        # exit 0 or 1 silently, 2 with one error line, or 3 with one line
        # from the solver; never a runtime failure
        doc = data.draw(cheap_runs(scenario))
        K = doc["operator"]["K"]
        scale = data.draw(_log_uniform(1e-300, 1e300))
        mode_data = st.lists(st.floats(-2.0, 2.0), min_size=K, max_size=K)
        doc["initial"] = {key: [scale * x for x in data.draw(mode_data)] for key in ("u0", "u1")}
        capfd.readouterr()
        command = "simulate" if scenario == "simulate" else "verify"
        with tempfile.TemporaryDirectory() as tmp:
            code = cli_main([command, "--config", str(write_config(Path(tmp), doc)),
                             "--out", str(Path(tmp) / "out")])
        stdout, stderr = capfd.readouterr()
        assert stdout == "", stdout
        if code in (0, 1):
            assert stderr == "", stderr
        else:
            first = {2: "error: ", 3: "integration failure: "}[code]
            assert stderr.startswith(first) and stderr.count("\n") == 1, stderr

    @CLI_FUZZ
    @given(doc=CLI_DOCUMENTS)
    def test_cli_on_any_document_exits_with_a_code(self, doc):
        self.check_cli_exit(doc)

    @CLI_FUZZ
    @given(doc=CLI_NEAR_VALID)
    def test_cli_on_a_document_with_one_number_changed_exits_with_a_code(self, doc):
        self.check_cli_exit(doc)

    @pytest.mark.parametrize("kind", sorted(JSON_OF_EACH_TYPE))
    @settings(CLI_FUZZ, max_examples=3)
    @given(data=st.data())
    def test_cli_with_an_override_of_any_json_type_exits_with_a_code(self, kind, data):
        key = data.draw(st.sampled_from(_CLI_PATHS).map(".".join))
        self.check_cli_exit(CLI_VALID, [f"{key}={json.dumps(data.draw(JSON_OF_EACH_TYPE[kind]))}"])
