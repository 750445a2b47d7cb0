"""Experiment harness: JSON config, scenario orchestration, CSV/JSON emission.

A run is described by a single JSON document (see ``load_config``), executed
into an output directory, and leaves three kinds of artifacts: one timeseries
CSV per integrated trajectory, a ``report.json`` with checks, rate fits and
measured constants, and a ``runs.json`` manifest recording the resolved
configuration and the emitted files so reports can be re-rendered later
without re-integrating.

Everything is deterministic: identical configs produce byte-identical files.
Per-epsilon runs may execute in parallel (KLAB_THREADS), but results are
aggregated in sorted order (largest epsilon first) regardless.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from . import analysis as an
from . import energies as en
from .evolution import (
    IntegratorConfig,
    Trajectory,
    corrector_series,
    integrate,
    remainders,
    theta0,
)
from .spectral import (
    MassFunction,
    SpectralOperator,
    arithmetic_spectrum,
    mass_inf,
    power_spectrum,
    sobolev_norm_sq,
    uniform_spectrum,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "SCENARIOS",
    "load_config",
    "config_from_dict",
    "apply_override",
    "run_scenario",
    "render_report",
    "emit_timeseries",
    "emit_report",
]

SCENARIOS = (
    "simulate",
    "decay",
    "decay_error",
    "optimality",
    "lemmas",
    "hypotheses",
    "wkb",
    "open_problem",
    "all",
)

_PRESETS = ("lowest_mode", "well_prepared", "boundary_layer")


class ConfigError(ValueError):
    """Invalid configuration or environment; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run description (all defaults filled, all checks done)."""

    p: float
    epsilon: tuple[float, ...]
    operator: SpectralOperator
    mass: MassFunction
    u0: np.ndarray
    u1: np.ndarray
    t_end: float
    samples: int
    beta: float
    integrator: IntegratorConfig
    scenario: str
    seed: int


def _fail(field: str, message: str) -> None:
    raise ConfigError(f"{field}: {message}")


def _number(raw: dict, field: str, default=None, required=False) -> float:
    if field not in raw:
        if required:
            _fail(field, "required field is missing")
        return default
    value = raw[field]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(field, f"expected a number, got {value!r}")
    return float(value)


def _parse_operator(raw: Any) -> SpectralOperator:
    if not isinstance(raw, dict):
        _fail("operator", "expected an object")
    if "eigenvalues" in raw:
        known = {"eigenvalues", "nu"}
        for key in raw:
            if key not in known:
                _fail(f"operator.{key}", "unknown field for an explicit operator")
        nu = _number(raw, "nu", required=True)
        try:
            return SpectralOperator(np.asarray(raw["eigenvalues"], dtype=float), nu)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"operator: {exc}") from exc
    if "family" not in raw:
        _fail("operator", "needs either 'eigenvalues' or 'family'")
    family = raw["family"]
    nu = _number(raw, "nu", required=True)
    modes_raw = raw.get("K", raw.get("modes"))
    if not isinstance(modes_raw, int) or isinstance(modes_raw, bool) or modes_raw < 1:
        _fail("operator.K", "expected a positive integer mode count")
    known = {"family", "nu", "K", "modes", "exponent", "gap", "parameter"}
    for key in raw:
        if key not in known:
            _fail(f"operator.{key}", "unknown field")
    try:
        if family == "uniform":
            return uniform_spectrum(nu, modes_raw)
        if family == "power":
            exponent = raw.get("exponent", raw.get("parameter", 2.0))
            return power_spectrum(nu, modes_raw, float(exponent))
        if family == "arithmetic":
            gap = raw.get("gap", raw.get("parameter", nu))
            return arithmetic_spectrum(nu, modes_raw, float(gap))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"operator: {exc}") from exc
    _fail("operator.family", f"unknown family {family!r}")


def _parse_mass(raw: Any) -> MassFunction:
    if not isinstance(raw, dict):
        _fail("mass", "expected an object")
    try:
        if "constant" in raw:
            return MassFunction.constant(float(raw["constant"]))
        if "affine" in raw:
            spec = raw["affine"]
            return MassFunction.affine(float(spec["base"]), float(spec["coeff"]))
        if "rational" in raw:
            spec = raw["rational"]
            return MassFunction.rational(float(spec["base"]), float(spec["coeff"]))
        if "variant" in raw:
            variant = raw["variant"]
            base = float(raw.get("base", 1.0))
            coeff = float(raw.get("coeff", 0.0))
            if variant == "constant":
                return MassFunction.constant(base)
            if variant == "affine":
                return MassFunction.affine(base, coeff)
            if variant == "rational":
                return MassFunction.rational(base, coeff)
            _fail("mass.variant", f"unknown variant {variant!r}")
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"mass: {exc}") from exc
    _fail("mass", "needs one of 'constant', 'affine', 'rational' or 'variant'")


def _parse_initial(
    raw: Any, op: SpectralOperator, m: MassFunction
) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(raw, dict):
        _fail("initial", "expected an object")
    if "preset" in raw:
        preset = raw["preset"]
        if preset not in _PRESETS:
            _fail("initial.preset", f"unknown preset {preset!r} (expected {_PRESETS})")
        u0 = np.zeros(op.dim)
        u0[0] = 1.0
        if preset == "lowest_mode":
            u1 = np.zeros(op.dim)
        elif preset == "well_prepared":
            sigma = float((op.eigenvalues * u0 * u0).sum())
            from .spectral import m_eval

            u1 = -m_eval(m, sigma) * op.eigenvalues * u0
        else:  # boundary_layer
            u1 = u0.copy()
        return u0, u1
    if "u0" not in raw:
        _fail("initial.u0", "required field is missing")
    if "u1" not in raw:
        _fail("initial.u1", "required field is missing")
    u0 = np.asarray(raw["u0"], dtype=float)
    u1 = np.asarray(raw["u1"], dtype=float)
    if u0.ndim != 1 or u0.size != op.dim:
        _fail("initial.u0", f"length must match the operator's {op.dim} modes")
    if u1.ndim != 1 or u1.size != op.dim:
        _fail("initial.u1", f"length must match the operator's {op.dim} modes")
    if not (np.all(np.isfinite(u0)) and np.all(np.isfinite(u1))):
        _fail("initial", "coefficients must be finite")
    return u0, u1


def _default_t_end(beta: float, p: float) -> float:
    """Horizon at which the decay profile reaches the double-precision guard 1e-30."""
    w = 30.0 * math.log(10.0) / beta
    if p >= 1.0:
        t = math.expm1(w)
    else:
        t = (1.0 + (1.0 - p) * w) ** (1.0 / (1.0 - p)) - 1.0
    return min(max(t, 1.0), 200.0)


_TOP_FIELDS = {
    "p",
    "epsilon",
    "operator",
    "mass",
    "initial",
    "t_end",
    "samples",
    "beta",
    "tolerances",
    "scenario",
    "seed",
}


def config_from_dict(raw: dict) -> RunConfig:
    """Validate a decoded config document and fill defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for key in raw:
        if key not in _TOP_FIELDS:
            _fail(key, "unknown config field")
    p = _number(raw, "p", required=True)
    if not 0.0 <= p <= 1.0:
        _fail("p", f"must lie in [0, 1], got {p}")
    eps_raw = raw.get("epsilon", [])
    if not isinstance(eps_raw, list):
        _fail("epsilon", "expected a list of positive numbers")
    epsilon = []
    for i, e in enumerate(eps_raw):
        if isinstance(e, bool) or not isinstance(e, (int, float)) or e <= 0:
            _fail(f"epsilon[{i}]", f"expected a positive number, got {e!r}")
        epsilon.append(float(e))
    epsilon = tuple(sorted(set(epsilon), reverse=True))
    if "operator" not in raw:
        _fail("operator", "required field is missing")
    op = _parse_operator(raw["operator"])
    if "mass" not in raw:
        _fail("mass", "required field is missing")
    m = _parse_mass(raw["mass"])
    if "initial" not in raw:
        _fail("initial", "required field is missing")
    u0, u1 = _parse_initial(raw["initial"], op, m)
    beta = _number(raw, "beta", required=True)
    if beta <= 0:
        _fail("beta", "must be positive")
    if p == 0.0 and beta >= 2.0 * mass_inf(m) * op.nu:
        raise ConfigError(
            "p=0 requires beta < 2*mu*nu "
            f"(beta={beta}, 2*mu*nu={2.0 * mass_inf(m) * op.nu})"
        )
    t_end = _number(raw, "t_end", default=None)
    if t_end is None:
        t_end = _default_t_end(beta, p)
    elif t_end <= 0:
        _fail("t_end", "must be positive")
    samples_raw = raw.get("samples", 4096)
    if not isinstance(samples_raw, int) or isinstance(samples_raw, bool) or samples_raw < 2:
        _fail("samples", f"expected an integer >= 2, got {samples_raw!r}")
    tol_raw = raw.get("tolerances", {})
    if not isinstance(tol_raw, dict):
        _fail("tolerances", "expected an object")
    known_tols = {"rel_tol", "abs_tol", "max_step", "oscillation_safety"}
    for key in tol_raw:
        if key not in known_tols:
            _fail(f"tolerances.{key}", "unknown field")
    try:
        icfg = IntegratorConfig(**{k: float(v) for k, v in tol_raw.items()})
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"tolerances: {exc}") from exc
    scenario = raw.get("scenario", "simulate")
    if scenario not in SCENARIOS:
        _fail("scenario", f"unknown scenario {scenario!r} (expected one of {SCENARIOS})")
    seed_raw = raw.get("seed", 0)
    if not isinstance(seed_raw, int) or isinstance(seed_raw, bool) or seed_raw < 0:
        _fail("seed", f"expected a nonnegative integer, got {seed_raw!r}")
    return RunConfig(
        p=p,
        epsilon=epsilon,
        operator=op,
        mass=m,
        u0=u0,
        u1=u1,
        t_end=float(t_end),
        samples=samples_raw,
        beta=beta,
        integrator=icfg,
        scenario=scenario,
        seed=seed_raw,
    )


def _read_json(path: Path, what: str) -> Any:
    """Decode a JSON file; a missing or malformed file is a ConfigError naming it."""
    if not path.is_file():
        raise ConfigError(f"{what} not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{what} {path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def load_config(path: str | Path) -> RunConfig:
    """Read, decode and validate a JSON run configuration."""
    return config_from_dict(_read_json(Path(path), "config file"))


def apply_override(raw: dict, spec: str) -> None:
    """Apply one ``--override key=value`` to a decoded config document.

    The key may be dotted for nested fields (``tolerances.rel_tol=1e-8``);
    the value is parsed as a JSON fragment, falling back to a bare string.
    """
    if "=" not in spec:
        raise ConfigError(f"override must look like key=value, got {spec!r}")
    key, _, text = spec.partition("=")
    key = key.strip()
    if not key:
        raise ConfigError(f"override has an empty key: {spec!r}")
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    target = raw
    parts = key.split(".")
    for part in parts[:-1]:
        node = target.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {key!r} crosses a non-object field")
        target = node
    target[parts[-1]] = value


# ---------------------------------------------------------------------------
# emission


def _sanitize(obj: Any) -> Any:
    """JSON-safe copy: numpy scalars to Python, non-finite floats to strings."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def emit_timeseries(path: str | Path, columns: dict[str, np.ndarray]) -> None:
    """Write aligned series as CSV: header row, shortest round-trip decimals, LF."""
    names = list(columns)
    if not names:
        raise ValueError("need at least one column")
    arrays = [np.asarray(columns[k], dtype=float) for k in names]
    n = arrays[0].size
    for name, arr in zip(names, arrays):
        if arr.ndim != 1 or arr.size != n:
            raise ValueError(f"column {name!r} is not aligned")
    lines = [",".join(names)]
    for i in range(n):
        lines.append(",".join(repr(float(a[i])) for a in arrays))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _fit_entry(name: str, fit: an.RateFit) -> dict[str, Any]:
    return {
        "name": name,
        "slope": fit.slope,
        "r_squared": fit.r_squared,
        "window": [fit.window[0], fit.window[1]],
        "abscissa": fit.abscissa,
    }


def _check_entry(rep: an.CheckReport) -> dict[str, Any]:
    return {
        "name": rep.name,
        "passed": rep.passed,
        "worst_slack": rep.worst_slack,
        "worst_t": rep.worst_t,
        "params": rep.params,
    }


def _write_report(
    path: Path,
    checks: list[dict],
    fits: list[dict],
    constants: dict[str, Any],
) -> None:
    doc = _sanitize({"checks": checks, "fits": fits, "measured_constants": constants})
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8", newline="\n")


def emit_report(
    reports: list[an.CheckReport],
    fits: list[tuple[str, an.RateFit]],
    path: str | Path,
) -> None:
    """Write the report JSON: checks, fits, measured constants; sorted keys."""
    _write_report(
        Path(path),
        [_check_entry(r) for r in reports],
        [_fit_entry(n, f) for n, f in fits],
        {},
    )


# ---------------------------------------------------------------------------
# scenario orchestration


def _thread_count() -> int:
    raw = os.environ.get("KLAB_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"KLAB_THREADS: expected a positive integer, got {raw!r}") from exc
    if value < 1:
        raise ConfigError("KLAB_THREADS: expected a positive integer")
    return value


class _Context:
    """Shared state of one scenario execution: caches, accumulators, file plan."""

    def __init__(self, cfg: RunConfig, out_dir: Path) -> None:
        self.cfg = cfg
        self.out = out_dir
        self.mu = mass_inf(cfg.mass)
        self.gamma = en.gamma_rate(self.mu, cfg.operator.nu, cfg.p)
        self.checks: list[an.CheckReport] = []
        self.fits: dict[str, an.RateFit] = {}
        self.constants: dict[str, Any] = {}
        self.csvs: dict[str, dict[str, np.ndarray]] = {}
        self.file_map: dict[str, Any] = {"parabolic": None, "hyperbolic": {}, "lemmas": []}
        self._par: Trajectory | None = None
        self._hyp: dict[float, Trajectory] = {}

    def parabolic(self) -> Trajectory:
        if self._par is None:
            c = self.cfg
            self._par = integrate(
                "parabolic", c.u0, c.t_end, c.samples, c.integrator, c.operator, c.mass, c.p
            )
        return self._par

    def hyperbolic(self, eps: float) -> Trajectory:
        if eps not in self._hyp:
            c = self.cfg
            self._hyp[eps] = integrate(
                "hyperbolic",
                (c.u0, c.u1),
                c.t_end,
                c.samples,
                c.integrator,
                c.operator,
                c.mass,
                c.p,
                eps=eps,
            )
        return self._hyp[eps]

    def hyperbolic_sweep(self) -> list[Trajectory]:
        eps_desc = list(self.cfg.epsilon)
        missing = [e for e in eps_desc if e not in self._hyp]
        workers = _thread_count()
        if workers > 1 and len(missing) > 1:
            # each worker fills the cache entry of its own, distinct eps
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(self.hyperbolic, missing))
        return [self.hyperbolic(e) for e in eps_desc]

    def add_check(self, rep: an.CheckReport) -> None:
        self.checks.append(rep)

    def add_fit(self, name: str, fit: an.RateFit) -> None:
        self.fits.setdefault(name, fit)

    def decay_lp(self) -> en.LyapunovParams:
        c = self.cfg
        return en.decay_params(c.beta, c.p, self.mu, c.operator.nu)

    def require_epsilon(self, scenario: str, count: int = 1) -> None:
        if len(self.cfg.epsilon) < count:
            raise ConfigError(
                f"scenario {scenario!r} needs at least {count} epsilon value(s)"
            )


def _profile_columns(ctx: _Context, times: np.ndarray) -> dict[str, np.ndarray]:
    c = ctx.cfg
    phi_vals = np.array([en.phi(c.beta, c.p, float(s)) for s in times])
    psi_vals = np.array([en.psi(ctx.gamma, c.p, float(s)) for s in times])
    return {"phi": phi_vals, "psi": psi_vals}


def _register_hyperbolic_csv(
    ctx: _Context,
    eps: float,
    traj: Trajectory,
    extra: dict[str, np.ndarray] | None = None,
) -> None:
    c = ctx.cfg
    series = an.hyperbolic_series(traj, eps, c.operator, ctx.decay_lp())
    prof = _profile_columns(ctx, traj.times)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio_phi = series["gamma"] / prof["phi"]
        ratio_psi = series["gamma"] / prof["psi"]
    cols: dict[str, np.ndarray] = {
        "t": traj.times,
        "gamma": series["gamma"],
        "E": series["E"],
        "F": series["F"],
        "G": series["G"],
    }
    if extra:
        cols.update(extra)
    cols.update(
        {
            "phi": prof["phi"],
            "psi": prof["psi"],
            "ratio_gamma_phi": ratio_phi,
            "ratio_gamma_psi": ratio_psi,
            "c_trace": traj.c_trace,
        }
    )
    name = f"hyperbolic_eps{eps!r}.csv"
    current = ctx.csvs.get(name)
    if current is None or len(cols) > len(current):
        ctx.csvs[name] = cols
    ctx.file_map["hyperbolic"][repr(eps)] = name
    try:
        t_env, v_env = an.envelope(traj.times, series["gamma"])
        fit = an.fit_decay_exponent(
            t_env, v_env, c.p, "hyperbolic", an.default_fit_window(c.t_end, eps)
        )
        ctx.add_fit(f"gamma_envelope_eps{eps!r}", fit)
    except ValueError:
        pass


def _register_parabolic_csv(ctx: _Context) -> None:
    c = ctx.cfg
    traj = ctx.parabolic()
    gamma = an.parabolic_gamma_series(traj, c.operator)
    prof = _profile_columns(ctx, traj.times)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio_phi = gamma / prof["phi"]
        ratio_psi = gamma / prof["psi"]
    ctx.csvs["parabolic.csv"] = {
        "t": traj.times,
        "gamma": gamma,
        "phi": prof["phi"],
        "psi": prof["psi"],
        "ratio_gamma_phi": ratio_phi,
        "ratio_gamma_psi": ratio_psi,
        "c_trace": traj.c_trace,
    }
    ctx.file_map["parabolic"] = "parabolic.csv"
    try:
        fit = an.fit_decay_exponent(
            traj.times, gamma, c.p, "parabolic", an.default_fit_window(c.t_end)
        )
        ctx.add_fit("parabolic_gamma", fit)
    except ValueError:
        pass


def _scn_simulate(ctx: _Context) -> None:
    _register_parabolic_csv(ctx)
    for traj, eps in zip(ctx.hyperbolic_sweep(), ctx.cfg.epsilon):
        _register_hyperbolic_csv(ctx, eps, traj)


def _scn_decay(ctx: _Context) -> None:
    ctx.require_epsilon("decay")
    c = ctx.cfg
    _register_parabolic_csv(ctx)
    lp = ctx.decay_lp()
    trajs = ctx.hyperbolic_sweep()
    for traj, eps in zip(trajs, c.epsilon):
        _register_hyperbolic_csv(ctx, eps, traj)
        ctx.add_check(an.check_energy_monotone(traj, eps, c.operator))
        for rep in an.check_energy_sandwich(traj, eps, c.operator, lp):
            ctx.add_check(rep)
        ctx.add_check(an.check_lyapunov_decay(traj, eps, c.operator, lp, "F"))
    uniform = an.check_uniform_decay_weights(trajs, ctx.parabolic())
    ctx.add_check(uniform)
    ctx.constants["C_2_4"] = uniform.params["C_2_4"]
    if "C_2_2" in uniform.params:
        ctx.constants["C_2_2"] = uniform.params["C_2_2"]
    if c.mass.is_constant:
        ctx.add_check(an.check_parabolic_pointwise(ctx.parabolic(), c.operator))


def _scn_decay_error(ctx: _Context) -> None:
    ctx.require_epsilon("decay_error", 3)
    c = ctx.cfg
    _register_parabolic_csv(ctx)
    traj_par = ctx.parabolic()
    th0 = theta0(c.u0, c.u1, c.operator, c.mass)
    lp_pert = en.perturbation_params(c.beta, c.p, ctx.mu, c.operator.nu)
    g_sq: dict[float, np.ndarray] = {}
    gamma_r: dict[float, np.ndarray] = {}
    for traj, eps in zip(ctx.hyperbolic_sweep(), c.epsilon):
        theta, theta_pr = corrector_series(th0, eps, c.p, traj.times)
        rho, _, rprime = remainders(traj, traj_par, theta, theta_pr)
        g = an.residual_series(traj, traj_par, eps)
        g_sq[eps] = sobolev_norm_sq(c.operator, g, 0.0)
        gamma_r[eps] = en.gamma_r(rho, rprime, eps, c.operator)
        # the stronger remainder energy is the full energy of (rho, r')
        gamma_c = en.gamma_eps(rho, rprime, eps, c.operator)
        _register_hyperbolic_csv(
            ctx, eps, traj, extra={"gamma_r": gamma_r[eps], "gamma_c": gamma_c}
        )
        psi3 = an.assemble_psi3(traj, rho, theta_pr, g, lp_pert, eps, c.operator)
        ctx.add_check(
            an.check_lyapunov_decay(
                traj, eps, c.operator, lp_pert, "script_F", psi3, rho, rprime
            )
        )
    ctx.add_check(
        an.check_residual_bounds(
            traj_par.times, g_sq, c.beta, c.p, ctx.mu, c.operator.nu
        )
    )
    sweep = an.epsilon_sweep_decay_error(
        traj_par.times, gamma_r, c.beta, c.p, ctx.mu, c.operator.nu
    )
    ctx.add_check(sweep)
    ctx.constants["S_eps"] = sweep.params["S_eps"]


def _scn_optimality(ctx: _Context) -> None:
    ctx.require_epsilon("optimality")
    c = ctx.cfg
    if c.p > 0.0:
        phi_spec: dict[str, Any] = {"form": "psi"}
    else:
        phi_spec = {"form": "exp", "beta": 2.0 * ctx.mu * c.operator.nu}
    for traj, eps in zip(ctx.hyperbolic_sweep(), c.epsilon):
        _register_hyperbolic_csv(ctx, eps, traj)
        ctx.add_check(an.check_optimality(traj, eps, c.operator, phi_spec))


def _scn_lemmas(ctx: _Context, instances: int = 100) -> None:
    rng = np.random.default_rng(ctx.cfg.seed)
    for kind in ("lemma32", "lemma33", "lemma34"):
        last_inputs = None
        for i in range(instances):
            inputs = an.synthetic_lemma_instance(kind, rng)
            rep = an.check_comparison_lemma(kind, inputs)
            rep.params["instance"] = i
            ctx.add_check(rep)
            last_inputs = inputs
        series_key = {"lemma32": "G", "lemma33": "E", "lemma34": "F"}[kind]
        t = last_inputs["times"]
        series = np.asarray(last_inputs[series_key], dtype=float)
        beta = float(last_inputs.get("beta", ctx.cfg.beta))
        p = float(last_inputs.get("p", ctx.cfg.p))
        phi_vals = np.array([en.phi(beta, p, float(s)) for s in t])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = series / phi_vals
        name = f"{kind}_instance.csv"
        ctx.csvs[name] = {
            "t": t,
            "gamma": series,
            "phi": phi_vals,
            "ratio_gamma_phi": ratio,
        }
        ctx.file_map["lemmas"].append(name)


def _scn_hypotheses(ctx: _Context) -> None:
    ctx.require_epsilon("hypotheses")
    c = ctx.cfg
    _register_parabolic_csv(ctx)
    trajs = ctx.hyperbolic_sweep()
    for traj, eps in zip(trajs, c.epsilon):
        _register_hyperbolic_csv(ctx, eps, traj)
    rep = an.check_hypotheses(trajs, ctx.parabolic())
    ctx.add_check(rep)
    ctx.constants["M1"] = rep.params["M1"]
    ctx.constants["M2"] = rep.params["M2"]
    for key in ("M3", "M4", "M5"):
        values = list(rep.params[key].values())
        ctx.constants[key] = max(values) if values else 0.0


def _scn_wkb(ctx: _Context) -> None:
    ctx.require_epsilon("wkb")
    c = ctx.cfg
    if c.operator.dim != 1:
        raise ConfigError("scenario 'wkb': the operator must have a single mode")
    if not 0.0 < c.p < 1.0:
        raise ConfigError("scenario 'wkb': p must lie strictly between 0 and 1")
    mu_nu = ctx.mu * c.operator.nu
    for eps in c.epsilon:
        onset = an.oscillation_onset(eps, c.p, mu_nu)
        if max(0.4 * c.t_end, 50.0 * eps, onset) >= 0.9 * c.t_end:
            raise ConfigError(
                f"scenario 'wkb': t_end={c.t_end} too short for eps={eps}; "
                f"the oscillatory regime starts near t={onset:.3g}"
            )
    for traj, eps in zip(ctx.hyperbolic_sweep(), c.epsilon):
        _register_hyperbolic_csv(ctx, eps, traj)
        rep = an.wkb_compare(traj, eps, c.p, mu_nu)
        ctx.add_check(rep)
        try:
            t_env, v_env = an.envelope(traj.times, np.abs(traj.u[:, 0]))
            window = (rep.params["window"][0], rep.params["window"][1])
            fit = an.fit_decay_exponent(t_env, v_env, c.p, "hyperbolic", window)
            ctx.add_fit(f"wkb_amplitude_eps{eps!r}", fit)
        except ValueError:
            pass


def _scn_open_problem(ctx: _Context) -> None:
    ctx.require_epsilon("open_problem")
    c = ctx.cfg
    if c.p != 0.0:
        raise ConfigError("scenario 'open_problem': p must be 0")
    if not c.mass.is_constant:
        raise ConfigError("scenario 'open_problem': the mass function must be constant")
    trajs = ctx.hyperbolic_sweep()
    for traj, eps in zip(trajs, c.epsilon):
        _register_hyperbolic_csv(ctx, eps, traj)
    ctx.constants["open_problem"] = an.probe_open_problem(trajs)


def _scn_all(ctx: _Context) -> None:
    c = ctx.cfg
    _scn_decay(ctx)
    halving = len(c.epsilon) >= 3 and all(
        abs(a / b - 2.0) < 1e-9 for a, b in zip(c.epsilon, c.epsilon[1:])
    )
    if halving:
        _scn_decay_error(ctx)
    _scn_optimality(ctx)
    _scn_hypotheses(ctx)
    if c.operator.dim == 1 and 0.0 < c.p < 1.0:
        _scn_wkb(ctx)
    if c.p == 0.0 and c.mass.is_constant:
        _scn_open_problem(ctx)
    _scn_lemmas(ctx)


_SCENARIO_RUNNERS = {
    "simulate": _scn_simulate,
    "decay": _scn_decay,
    "decay_error": _scn_decay_error,
    "optimality": _scn_optimality,
    "lemmas": _scn_lemmas,
    "hypotheses": _scn_hypotheses,
    "wkb": _scn_wkb,
    "open_problem": _scn_open_problem,
    "all": _scn_all,
}


def _config_echo(cfg: RunConfig) -> dict[str, Any]:
    """The resolved config as a document ``config_from_dict`` reads back to the same run."""
    tolerances = {
        "rel_tol": cfg.integrator.rel_tol,
        "abs_tol": cfg.integrator.abs_tol,
        "oscillation_safety": cfg.integrator.oscillation_safety,
    }
    if not math.isinf(cfg.integrator.max_step):
        tolerances["max_step"] = cfg.integrator.max_step
    return {
        "p": cfg.p,
        "epsilon": list(cfg.epsilon),
        "operator": {
            "eigenvalues": [float(v) for v in cfg.operator.eigenvalues],
            "nu": cfg.operator.nu,
        },
        "mass": {
            "variant": cfg.mass.variant,
            "base": cfg.mass.base,
            "coeff": cfg.mass.coeff,
        },
        "initial": {
            "u0": [float(v) for v in cfg.u0],
            "u1": [float(v) for v in cfg.u1],
        },
        "t_end": cfg.t_end,
        "samples": cfg.samples,
        "beta": cfg.beta,
        "tolerances": tolerances,
        "scenario": cfg.scenario,
        "seed": cfg.seed,
    }


def _ensure_writable(out_dir: Path) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory not writable: {out_dir} ({exc})") from exc


def run_scenario(cfg: RunConfig, out_dir: str | Path) -> int:
    """Execute the configured scenario into ``out_dir``.

    Returns 0 when every check passed, 1 when at least one failed.  Raises
    ConfigError for invalid configuration/environment (exit 2 at the CLI) and
    lets integration failures propagate (exit 3).
    """
    out = Path(out_dir)
    _ensure_writable(out)
    ctx = _Context(cfg, out)
    _SCENARIO_RUNNERS[cfg.scenario](ctx)
    for name in sorted(ctx.csvs):
        emit_timeseries(out / name, ctx.csvs[name])
    fits = [(name, ctx.fits[name]) for name in sorted(ctx.fits)]
    _write_report(
        out / "report.json",
        [_check_entry(r) for r in ctx.checks],
        [_fit_entry(n, f) for n, f in fits],
        ctx.constants,
    )
    manifest = {
        "format": "klab-run-manifest-1",
        "config": _config_echo(cfg),
        "files": ctx.file_map,
    }
    text = json.dumps(_sanitize(manifest), sort_keys=True, indent=2, allow_nan=False)
    (out / "runs.json").write_text(text + "\n", encoding="utf-8", newline="\n")
    return 0 if all(r.passed for r in ctx.checks) else 1


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    if not path.is_file():
        raise ConfigError(f"timeseries file not found: {path}")
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def render_report(out_dir: str | Path) -> int:
    """Re-render ``report.json`` from the stored CSVs and manifest.

    Rate fits are recomputed from the CSV columns (bit-identical to the
    original, since the CSV stores shortest round-trip decimals); checks and
    measured constants are carried over from the existing report when
    present.  Returns 1 when a carried-over check failed, else 0.
    """
    out = Path(out_dir)
    manifest = _read_json(out / "runs.json", "run manifest")
    if not isinstance(manifest, dict):
        raise ConfigError(f"run manifest {out / 'runs.json'}: expected a JSON object")
    cfg_doc = manifest.get("config", {})
    p = float(cfg_doc.get("p", 0.0))
    files = manifest.get("files", {})
    fits: list[tuple[str, an.RateFit]] = []
    par_name = files.get("parabolic")
    if par_name:
        cols = _read_csv(out / par_name)
        t = cols["t"]
        try:
            fit = an.fit_decay_exponent(
                t, cols["gamma"], p, "parabolic", an.default_fit_window(float(t[-1]))
            )
            fits.append(("parabolic_gamma", fit))
        except ValueError:
            pass
    for key in sorted(files.get("hyperbolic", {}), key=float, reverse=True):
        name = files["hyperbolic"][key]
        eps = float(key)
        cols = _read_csv(out / name)
        t = cols["t"]
        try:
            t_env, v_env = an.envelope(t, cols["gamma"])
            fit = an.fit_decay_exponent(
                t_env,
                v_env,
                p,
                "hyperbolic",
                an.default_fit_window(float(t[-1]), eps),
            )
            fits.append((f"gamma_envelope_eps{key}", fit))
        except ValueError:
            pass
    checks_doc: list[dict] = []
    constants: dict[str, Any] = {}
    report_path = out / "report.json"
    if report_path.is_file():
        prior = _read_json(report_path, "report")
        checks_doc = prior.get("checks", [])
        constants = prior.get("measured_constants", {})
    _write_report(report_path, checks_doc, [_fit_entry(n, f) for n, f in fits], constants)
    failed = any(not entry.get("passed", True) for entry in checks_doc)
    return 1 if failed else 0
