"""Experiment harness: JSON config, scenario orchestration, CSV/JSON emission.

A run is described by a single JSON document (see ``config_from_dict``),
executed into an output directory, and leaves three kinds of artifacts: one
timeseries CSV per integrated trajectory, a ``report.json`` with checks, rate
fits and measured constants, and a ``runs.json`` manifest recording the
resolved configuration, the emitted files and the solver statistics of each
flow and of each lemma kind's instances, so reports can be re-rendered later
without re-integrating.

Scenario runners only integrate flows (each once, through ``_Context``, the
eps sweep as one solve) and add checks and constants; a failing check of one
flow names that flow's ``runs.json`` ``integrator`` entry.  After the
runner, each integrated flow gets one
CSV, and the rate fits are derived from those CSV columns by ``_fits``,
the same function ``render_report`` applies to the CSVs it reads back.

Everything is deterministic: identical configs produce byte-identical files.
The process keeps the last eps sweep it integrated (``_SWEEPS``, one entry,
until the process ends or a sweep of other physics replaces it).  A later run
whose ``u0``, ``u1``, ``t_end``, ``samples``, tolerance, operator, mass, ``p``
and eps have the same bits (``_sweep_key``) takes it without a solve, so
``verify decay`` then ``verify decay_error`` on one config in one process
integrate the second-order flow once.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import analysis as an
from . import energies as en
from ._rk import _MAX_STEPS, _MIN_STEP
from .evolution import (
    IntegratorConfig,
    Trajectory,
    _step_floor,
    corrector_velocity,
    integrate,
    remainders,
    theta0,
)
from .spectral import (
    MassFunction,
    SpectralOperator,
    arithmetic_spectrum,
    m_eval,
    mass_inf,
    power_spectrum,
    sobolev_norm_sq,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "SCENARIOS",
    "config_from_dict",
    "apply_override",
    "run_scenario",
    "render_report",
    "emit_timeseries",
]

_PRESETS = ("lowest_mode", "well_prepared", "boundary_layer")
# the longest float64 array numpy can describe: the sample grid must be one
_MAX_SAMPLES = np.iinfo(np.intp).max // 8
_MAX_GAMMA0 = math.sqrt(np.finfo(float).max)


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


def _float(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(field, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        _fail(field, "integer out of float range")
    # JSON's NaN and Infinity extensions decode to floats that no field takes
    if not math.isfinite(number):
        _fail(field, f"expected a finite number, got {value!r}")
    return number


def _number(raw: dict, field: str, default=None, required=False) -> float:
    if field not in raw:
        if required:
            _fail(field, "required field is missing")
        return default
    return _float(raw[field], field)


def _floats(value: Any, field: str) -> np.ndarray:
    """A list of numbers, each read by ``_float`` and named by its index."""
    if not isinstance(value, list):
        _fail(field, f"expected a list of numbers, got {value!r}")
    return np.array([_float(x, f"{field}[{i}]") for i, x in enumerate(value)], dtype=float)


def _only(raw: dict, known, field: str) -> None:
    """Refuse any key of the object ``field`` outside ``known``."""
    for key in raw:
        if key not in known:
            _fail(f"{field}.{key}", "unknown field")


def _parse_operator(raw: Any) -> SpectralOperator:
    if not isinstance(raw, dict):
        _fail("operator", "expected an object")
    if "eigenvalues" in raw:
        _only(raw, ("eigenvalues", "nu"), "operator")
        nu = _number(raw, "nu", required=True)
        eigenvalues = _floats(raw["eigenvalues"], "operator.eigenvalues")
        try:
            return SpectralOperator(eigenvalues, nu)
        except ValueError as exc:
            raise ConfigError(f"operator: {exc}") from exc
    if "family" not in raw:
        _fail("operator", "needs either 'eigenvalues' or 'family'")
    _only(raw, ("family", "nu", "K", "exponent", "gap"), "operator")
    family = raw["family"]
    nu = _number(raw, "nu", required=True)
    modes_raw = raw.get("K")
    if not isinstance(modes_raw, int) or isinstance(modes_raw, bool) or modes_raw < 1:
        _fail("operator.K", "expected a positive integer mode count")
    exponent = _float(raw.get("exponent", 2.0), "operator.exponent")
    gap = _float(raw.get("gap", nu), "operator.gap")
    try:
        if family == "uniform":  # every eigenvalue nu; a gap is ignored
            return arithmetic_spectrum(nu, modes_raw, 0.0)
        if family == "power":
            return power_spectrum(nu, modes_raw, exponent)
        if family == "arithmetic":
            return arithmetic_spectrum(nu, modes_raw, gap)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"operator: {exc}") from exc
    _fail("operator.family", f"unknown family {family!r}")


def _parse_mass(raw: Any) -> MassFunction:
    if not isinstance(raw, dict):
        _fail("mass", "expected an object")
    # {"constant": c} or {"affine" | "rational": {"base", "coeff"}}, nothing else
    variants = [v for v in MassFunction._VARIANTS if v in raw]
    if not variants:
        _fail("mass", "needs one of 'constant', 'affine' or 'rational'")
    if len(variants) > 1:
        _fail("mass", f"takes one variant, got {' and '.join(map(repr, variants))}")
    variant = variants[0]
    _only(raw, variants, "mass")
    if variant == "constant":
        base, coeff = _float(raw["constant"], "mass.constant"), 0.0
    else:
        body, field = raw[variant], f"mass.{variant}"
        if not isinstance(body, dict):
            _fail(field, "expected an object")
        _only(body, ("base", "coeff"), field)
        for key in ("base", "coeff"):
            if key not in body:
                _fail(f"{field}.{key}", "required field is missing")
        base, coeff = (_float(body[key], f"{field}.{key}") for key in ("base", "coeff"))
    try:
        return MassFunction(variant, base, coeff)
    except ValueError as exc:
        raise ConfigError(f"mass: {exc}") from exc


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
        elif preset == "well_prepared":  # the corrector vanishes
            u1 = -theta0(u0, np.zeros(op.dim), op, m)
        else:  # boundary_layer
            u1 = u0.copy()
        return u0, u1
    vectors = []
    for key in ("u0", "u1"):
        if key not in raw:
            _fail(f"initial.{key}", "required field is missing")
        vec = _floats(raw[key], f"initial.{key}")
        if vec.size != op.dim:
            _fail(f"initial.{key}", f"length must match the operator's {op.dim} modes")
        vectors.append(vec)
    return vectors[0], vectors[1]


def _default_t_end(beta: float, p: float) -> float:
    """Horizon at which the decay profile reaches the double-precision guard 1e-30."""
    w = 30.0 * math.log(10.0) / beta
    if 1.0 - p < en.DEGENERATE_P:
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
        value = _float(e, f"epsilon[{i}]")
        if value <= 0:
            _fail(f"epsilon[{i}]", f"expected a positive number, got {e!r}")
        epsilon.append(value)
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
    # The run squares its energies (and sigma, in m'), so gamma(0) at the
    # largest eps must stay below sqrt(max double).  Each term squares finite
    # factors, so zero data meet no inf.
    lam, root = op.eigenvalues, np.sqrt(op.eigenvalues)
    with np.errstate(over="ignore"):
        rows = (u0, root * u0, lam * u0, u1, math.sqrt(max(epsilon, default=0.0)) * (root * u1))
        gamma0 = sum(float(x @ x) for x in rows)
    if not gamma0 < _MAX_GAMMA0:
        _fail("initial", f"gamma(0) = {gamma0:.3g} is not below sqrt(max double) = "
                         f"{_MAX_GAMMA0:.3g}")
    # The run squares the mass and m A u too (in E and F, and in the solver's
    # norm), so inf m may not fall below 1/sqrt(max double), nor the largest
    # rate m(sigma(0)) lambda_max reach sqrt(max double).
    mu = mass_inf(m)
    if not mu >= 1.0 / _MAX_GAMMA0:
        _fail("mass", f"inf m = {mu:.3g} is not at least 1/sqrt(max double) = "
                      f"{1.0 / _MAX_GAMMA0:.3g}")
    rate = m_eval(m, float(rows[1] @ rows[1])) * float(lam[-1])
    if not rate < _MAX_GAMMA0:
        _fail("mass", f"m(sigma(0)) lambda_max = {rate:.3g} is not below sqrt(max double) = "
                      f"{_MAX_GAMMA0:.3g}")
    beta = _number(raw, "beta", required=True)
    if beta <= 0:
        _fail("beta", "must be positive")
    try:
        en.require_admissible_beta(beta, p, mu, op.nu)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    t_end = _number(raw, "t_end", default=None)
    if t_end is None:
        t_end = _default_t_end(beta, p)
    elif t_end <= 0:
        _fail("t_end", "must be positive")
    samples_raw = raw.get("samples", 4096)
    if (
        not isinstance(samples_raw, int)
        or isinstance(samples_raw, bool)
        or not 2 <= samples_raw <= _MAX_SAMPLES
    ):
        _fail("samples", f"expected an integer from 2 to {_MAX_SAMPLES}, got {samples_raw!r}")
    # linspace rounds each spacing by up to 2 samples + 1 half-ulps
    spacing = t_end / (samples_raw - 1) * (1.0 - (2 * samples_raw + 1) * 2.0**-53)
    if not spacing >= _MIN_STEP * max(1.0, t_end):
        _fail("t_end", f"{t_end!r} over {samples_raw} samples spaces them closer than the "
                       f"solver's shortest step, {_MIN_STEP:g} max(1, t)")
    tol_raw = raw.get("tolerances", {})
    if not isinstance(tol_raw, dict):
        _fail("tolerances", "expected an object")
    _only(tol_raw, [f.name for f in fields(IntegratorConfig)], "tolerances")
    tols = {key: _float(value, f"tolerances.{key}") for key, value in tol_raw.items()}
    try:
        icfg = IntegratorConfig(**tols)
    except ValueError as exc:
        raise ConfigError(f"tolerances.{exc}") from exc
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
    except ValueError as exc:  # not UTF-8, or an integer past the digit limit
        raise ConfigError(f"{what} {path}: {exc}") from exc


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
    except ValueError as exc:  # an integer past the digit limit
        raise ConfigError(f"override {key}: {exc}") from exc
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


# Rows go through tolist() this many at a time.  Against formatting each
# element, checks_k4's peak RSS read 0.1 MB higher at 128 rows, 0.4 MB at
# 512 and 3 MB with all rows at once; one tolist() per column, zipped into
# rows, read 1 MB higher at any block size.
_EMIT_ROWS = 128


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
    for first in range(0, n, _EMIT_ROWS):
        block = np.column_stack([a[first : first + _EMIT_ROWS] for a in arrays])
        lines.extend(",".join(map(repr, row)) for row in block.tolist())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _fit_entry(name: str, fit: an.RateFit) -> dict[str, Any]:
    return {
        "name": name,
        "slope": fit.slope,
        "r_squared": fit.r_squared,
        "window": [fit.window[0], fit.window[1]],
        "abscissa": fit.abscissa,
    }


def _write_json(path: Path, doc: dict[str, Any]) -> None:
    """Write ``doc`` as klab writes every JSON file: sanitized, sorted keys, LF."""
    text = json.dumps(_sanitize(doc), sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8", newline="\n")


def _write_report(
    path: Path,
    checks: list[dict],
    fits: list[dict],
    constants: dict[str, Any],
) -> None:
    _write_json(path, {"checks": checks, "fits": fits, "measured_constants": constants})


# ---------------------------------------------------------------------------
# scenario orchestration


# The last eps sweep this process integrated, by ``_sweep_key``: at most one
# entry, replaced by the next sweep of other physics, and kept until the
# process ends.  Its trajectories are read-only and nothing writes their steps.
_SWEEPS: dict[tuple, list[Trajectory]] = {}


def _sweep_key(c: RunConfig) -> tuple:
    """Every value ``integrate("hyperbolic")`` reads or its trajectories carry,
    each float by its bits (so ``-0.0`` and ``0.0`` differ); not ``beta``,
    ``scenario`` or ``seed``, which the sweep does not read."""
    floats = (c.t_end, c.operator.nu, c.mass.base, c.mass.coeff, c.p, *astuple(c.integrator))
    return (
        c.u0.tobytes(),
        c.u1.tobytes(),
        c.operator.eigenvalues.tobytes(),
        c.samples,
        c.mass.variant,
        # a fixed count of floats, then the eps sweep
        np.array([*floats, *c.epsilon]).tobytes(),
    )


class _Context:
    """Shared state of one scenario execution: its flows, checks and constants."""

    def __init__(self, cfg: RunConfig) -> None:
        self.cfg = cfg
        self.mu = mass_inf(cfg.mass)
        self.gamma = en.gamma_rate(self.mu, cfg.operator.nu, cfg.p)
        self.checks: list[an.CheckReport] = []
        self.constants: dict[str, Any] = {}
        self._par: Trajectory | None = None
        self._hyp: dict[float, Trajectory] = {}
        # the energy columns of each integrated flow, by eps (None for the limit
        # flow); taken right after its integration, before any later flow
        # exists, so their (n, K) temporaries stay off the run's memory peak
        self.energies: dict[float | None, dict[str, np.ndarray]] = {}
        # the last synthetic instance of each lemma kind (its series and solve)
        self.lemmas: dict[str, dict[str, Any]] = {}

    def parabolic(self) -> Trajectory:
        if self._par is None:
            c = self.cfg
            self._par = integrate(
                "parabolic", c.u0, c.t_end, c.samples, c.integrator, c.operator, c.mass, c.p
            )
            self.energies[None] = {"gamma": an.parabolic_gamma_series(self._par)}
        return self._par

    def hyperbolic_sweep(self) -> list[Trajectory]:
        """The second-order flow at every eps of the config, integrated as one
        solve, or taken from ``_SWEEPS`` when the process's last sweep had the
        same ``_sweep_key``.  A sweep that fails is not kept."""
        c = self.cfg
        if c.epsilon and not self._hyp:
            # the smallest eps needs the most steps; zero data only the grid's,
            # whatever the eps (a state at rest has no oscillation to resolve)
            floor = _step_floor(c.epsilon[-1], c.p, c.t_end)
            if floor > _MAX_STEPS and (np.any(c.u0) or np.any(c.u1)):
                raise ConfigError(f"epsilon: {c.epsilon[-1]!r} needs at least {floor:.3g} steps "
                                  f"of the explicit solver, past its budget of {_MAX_STEPS}")
            key = _sweep_key(c)
            trajs = _SWEEPS.get(key)
            if trajs is None:
                # the old sweep goes first, so that two are never held at once
                _SWEEPS.clear()
                trajs = integrate(
                    "hyperbolic",
                    (c.u0, c.u1),
                    c.t_end,
                    c.samples,
                    c.integrator,
                    c.operator,
                    c.mass,
                    c.p,
                    eps=c.epsilon,
                )
                _SWEEPS[key] = trajs
            # the energy columns one flow at a time, so that only one flow's
            # (n, K) temporaries are alive at once
            for eps, traj in zip(c.epsilon, trajs):
                self._hyp[eps] = traj
                self.energies[eps] = an.hyperbolic_series(traj, self.decay_lp())
        return [self._hyp[eps] for eps in c.epsilon]

    def step_counts(self) -> dict[str, Any]:
        """Each integrated flow's and lemma kind's ``runs.json`` entry, as its
        solver built it (a trajectory's ``steps``, an instance's ``"steps"``)."""
        return {
            "parabolic": None if self._par is None else self._par.steps,
            "hyperbolic": {repr(eps): traj.steps for eps, traj in self._hyp.items()},
            "lemmas": {kind: inst["steps"] for kind, inst in self.lemmas.items()},
        }

    def add_check(self, rep: an.CheckReport, flow: Trajectory | None = None) -> None:
        """Record a check; a failing check of one ``flow`` names that flow's
        entry of the manifest's ``integrator`` under ``params["integrator"]``."""
        if flow is not None and not rep.passed:
            rep.params["integrator"] = (
                "parabolic" if flow.kind == "parabolic" else f"hyperbolic/{flow.eps!r}"
            )
        self.checks.append(rep)

    def decay_lp(self) -> en.LyapunovParams:
        c = self.cfg
        return en.decay_params(c.beta, c.p, self.mu, c.operator.nu)

    def require_epsilon(self, scenario: str, count: int = 1) -> None:
        if len(self.cfg.epsilon) < count:
            raise ConfigError(
                f"scenario {scenario!r} needs at least {count} epsilon value(s)"
            )


def _flow_csv(
    ctx: _Context, traj: Trajectory, energies: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """A flow's CSV columns: its energies, the two profiles and the ratios to them."""
    c = ctx.cfg
    gamma = energies["gamma"]
    phi = en.phi(c.beta, c.p, traj.times)
    psi = en.psi(ctx.gamma, c.p, traj.times)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio_phi = gamma / phi
        ratio_psi = gamma / psi
    return {
        "t": traj.times,
        **energies,
        "phi": phi,
        "psi": psi,
        "ratio_gamma_phi": ratio_phi,
        "ratio_gamma_psi": ratio_psi,
        "c_trace": traj.c_trace,
    }


def _lemma_csv(ctx: _Context, kind: str, inst: dict[str, Any]) -> dict[str, np.ndarray]:
    """The series a synthetic lemma instance bounds, written as ``gamma``, and its
    ratio to ``phi``."""
    series = np.asarray(inst[an.LEMMA_SERIES[kind]], dtype=float)
    beta = float(inst.get("beta", ctx.cfg.beta))
    p = float(inst.get("p", ctx.cfg.p))
    phi = en.phi(beta, p, inst["times"])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = series / phi
    return {"t": inst["times"], "gamma": series, "phi": phi, "ratio_gamma_phi": ratio}


def _timeseries(ctx: _Context) -> tuple[dict[str, dict[str, np.ndarray]], dict[str, Any]]:
    """One CSV per flow the run integrated and per lemma kind, with the file map."""
    csvs: dict[str, dict[str, np.ndarray]] = {}
    files: dict[str, Any] = {"parabolic": None, "hyperbolic": {}, "lemmas": []}
    if ctx._par is not None:
        csvs["parabolic.csv"] = _flow_csv(ctx, ctx._par, ctx.energies[None])
        files["parabolic"] = "parabolic.csv"
    for eps, traj in ctx._hyp.items():
        name = f"hyperbolic_eps{eps!r}.csv"
        csvs[name] = _flow_csv(ctx, traj, ctx.energies[eps])
        files["hyperbolic"][repr(eps)] = name
    for kind, inst in ctx.lemmas.items():
        name = f"{kind}_instance.csv"
        csvs[name] = _lemma_csv(ctx, kind, inst)
        files["lemmas"].append(name)
    return csvs, files


def _fits(
    files: dict[str, Any], columns: Callable[[str], dict[str, np.ndarray]], p: float
) -> list[dict[str, Any]]:
    """Rate fits of the flows in ``files``, from their CSV columns, sorted by name.

    ``columns(name)`` gives the columns of the CSV called ``name``.  The limit
    flow's ``gamma`` is fit as it stands and each second-order flow's through
    its envelope, over the default window of the run's horizon ``t[-1]``.  A
    series that admits no fit gets none.
    """
    flows = [("parabolic_gamma", files.get("parabolic"), None)]
    flows += [
        (f"gamma_envelope_eps{key}", name, float(key))
        for key, name in files.get("hyperbolic", {}).items()
    ]
    fits = []
    for fit_name, csv_name, eps in flows:
        if not csv_name:
            continue
        cols = columns(csv_name)
        t, values = cols["t"], cols["gamma"]
        window = an.default_fit_window(float(t[-1]), eps)
        try:
            if eps is None:
                fit = an.fit_decay_exponent(t, values, p, "parabolic", window)
            else:
                t_env, v_env = an.envelope(t, values)
                fit = an.fit_decay_exponent(t_env, v_env, p, "hyperbolic", window)
        except ValueError:
            continue
        fits.append(_fit_entry(fit_name, fit))
    return sorted(fits, key=lambda entry: entry["name"])


def _scn_simulate(ctx: _Context) -> None:
    ctx.parabolic()
    ctx.hyperbolic_sweep()


def _scn_decay(ctx: _Context) -> None:
    ctx.require_epsilon("decay")
    c = ctx.cfg
    lp = ctx.decay_lp()
    trajs = ctx.hyperbolic_sweep()
    for traj in trajs:
        series = ctx.energies[traj.eps]
        ctx.add_check(an.check_energy_monotone(traj, series["E"]), traj)
        for rep in an.check_energy_sandwich(traj, series["E"], series["F"], lp):
            ctx.add_check(rep, traj)
        ctx.add_check(an.check_lyapunov_decay(traj, lp, series["F"]), traj)
    uniform = an.check_uniform_decay_weights(trajs, ctx.parabolic())
    ctx.add_check(uniform)
    ctx.constants["C_2_4"] = uniform.params["C_2_4"]
    ctx.constants["C_2_2"] = uniform.params["C_2_2"]
    if c.mass.is_constant:
        ctx.add_check(an.check_parabolic_pointwise(ctx.parabolic()), ctx.parabolic())


def _scn_decay_error(ctx: _Context) -> None:
    ctx.require_epsilon("decay_error", 3)
    c = ctx.cfg
    if not an._halving_sweep(c.epsilon):
        raise ConfigError("scenario 'decay_error': epsilon must halve from value to value")
    traj_par = ctx.parabolic()
    th0 = theta0(c.u0, c.u1, c.operator, c.mass)
    lp_pert = en.perturbation_params(c.beta, c.p, ctx.mu, c.operator.nu)
    g_sq: dict[float, np.ndarray] = {}
    gamma_r: dict[float, np.ndarray] = {}
    for traj in ctx.hyperbolic_sweep():
        eps = traj.eps
        theta_pr = corrector_velocity(th0, eps, c.p, traj.times)
        rho, rprime = remainders(traj, traj_par, theta_pr)
        g = an.residual_series(traj, traj_par)
        g_sq[eps] = sobolev_norm_sq(c.operator, g, 0.0)
        gamma_r[eps] = en.gamma_r(rho, rprime, eps, c.operator)
        # the stronger remainder energy is the full energy of (rho, r')
        ctx.energies[eps]["gamma_r"] = gamma_r[eps]
        ctx.energies[eps]["gamma_c"] = en.gamma_eps(rho, rprime, eps, c.operator)
        F_r = en.energy_F(rho, rprime, traj.times, eps, traj.c_trace, c.operator, lp_pert)
        psi3 = an.assemble_psi3(traj, rho, theta_pr, g, lp_pert)
        ctx.add_check(an.check_lyapunov_decay(traj, lp_pert, F_r, psi3), traj)
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
    for traj in ctx.hyperbolic_sweep():
        series = ctx.energies[traj.eps]
        ctx.add_check(an.check_optimality(traj, series["E"], series["gamma"]), traj)


def _scn_lemmas(ctx: _Context) -> None:
    rng = np.random.default_rng(ctx.cfg.seed)
    for kind in an.LEMMA_SERIES:
        instances = an.synthetic_lemma_instances(kind, rng, 100)
        for i, rep in enumerate(an.check_comparison_lemma(kind, instances)):
            rep.params["instance"] = i
            ctx.add_check(rep)
        ctx.lemmas[kind] = instances[-1]
        # one kind's instances at a time: the next kind is made before the
        # name is bound again
        del instances


def _scn_hypotheses(ctx: _Context) -> None:
    ctx.require_epsilon("hypotheses")
    rep = an.check_hypotheses(ctx.hyperbolic_sweep(), ctx.parabolic())
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
        try:
            an.wkb_window_start(eps, c.p, mu_nu, c.t_end)
        except ValueError as exc:
            raise ConfigError(f"scenario 'wkb': eps={eps}: {exc}") from None
    for traj in ctx.hyperbolic_sweep():
        ctx.add_check(an.wkb_compare(traj), traj)


def _scn_open_problem(ctx: _Context) -> None:
    ctx.require_epsilon("open_problem")
    c = ctx.cfg
    if c.p != 0.0:
        raise ConfigError("scenario 'open_problem': p must be 0")
    if not c.mass.is_constant:
        raise ConfigError("scenario 'open_problem': the mass function must be constant")
    trajs = ctx.hyperbolic_sweep()
    gamma = {traj.eps: ctx.energies[traj.eps]["gamma"] for traj in trajs}
    ctx.constants["open_problem"] = an.probe_open_problem(trajs, gamma)


def _if_applicable(scenario: Callable[[_Context], None], ctx: _Context) -> None:
    """Run ``scenario`` unless it rejects the config, which each scenario does
    with ConfigError before it integrates or checks anything."""
    try:
        scenario(ctx)
    except ConfigError:
        pass


def _scn_all(ctx: _Context) -> None:
    _scn_decay(ctx)
    _if_applicable(_scn_decay_error, ctx)
    _scn_optimality(ctx)
    _scn_hypotheses(ctx)
    _if_applicable(_scn_wkb, ctx)
    _if_applicable(_scn_open_problem, ctx)
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
SCENARIOS = tuple(_SCENARIO_RUNNERS)


def _config_echo(cfg: RunConfig) -> dict[str, Any]:
    """The resolved config as a document ``config_from_dict`` reads back to the same run."""
    return {
        "p": cfg.p,
        "epsilon": list(cfg.epsilon),
        "operator": {
            "eigenvalues": [float(v) for v in cfg.operator.eigenvalues],
            "nu": cfg.operator.nu,
        },
        "mass": (
            {"constant": cfg.mass.base}
            if cfg.mass.variant == "constant"
            else {cfg.mass.variant: {"base": cfg.mass.base, "coeff": cfg.mass.coeff}}
        ),
        "initial": {
            "u0": [float(v) for v in cfg.u0],
            "u1": [float(v) for v in cfg.u1],
        },
        "t_end": cfg.t_end,
        "samples": cfg.samples,
        "beta": cfg.beta,
        "tolerances": asdict(cfg.integrator),
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
    ctx = _Context(cfg)
    _SCENARIO_RUNNERS[cfg.scenario](ctx)
    csvs, files = _timeseries(ctx)
    for name in sorted(csvs):
        emit_timeseries(out / name, csvs[name])
    # a check's entry is its report's fields: a CheckReport has no other
    # attribute, and vars() costs a hundredth of dataclasses.asdict's copy
    _write_report(
        out / "report.json",
        [vars(r) for r in ctx.checks],
        _fits(files, csvs.__getitem__, cfg.p),
        ctx.constants,
    )
    _write_json(out / "runs.json", {
        "format": "klab-run-manifest-1",
        "config": _config_echo(cfg),
        "files": files,
        "integrator": ctx.step_counts(),
    })
    return 0 if all(r.passed for r in ctx.checks) else 1


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    """The columns of a klab CSV; any other file is a ConfigError naming it."""
    if not path.is_file():
        raise ConfigError(f"timeseries file not found: {path}")
    try:
        with path.open("r", encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # "input contained no data": rejected below
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"timeseries file {path}: not a klab CSV ({exc})") from exc
    rows, cols = data.shape
    if not {"t", "gamma"} <= set(header) or cols != len(header) or rows == 0:
        raise ConfigError(
            f"timeseries file {path}: not a klab CSV (needs a header naming t and gamma "
            "over rows of one number per name)"
        )
    # contiguous columns, laid out like the arrays the run wrote them from
    return dict(zip(header, np.ascontiguousarray(data.T)))


def _expect(value: Any, kind: type, field: str) -> Any:
    if not isinstance(value, kind):
        _fail(field, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def render_report(out_dir: str | Path) -> int:
    """Re-render ``report.json`` from the stored CSVs and manifest.

    Rate fits are recomputed from the CSV columns by the function the run
    used (the CSVs store shortest round-trip decimals, so the fits are
    bit-identical); checks and measured constants are carried over from the
    existing report when present.  The rewritten report therefore equals
    the run's.  Returns 1 when a carried-over check failed, else 0; a
    misshapen manifest or report raises ConfigError naming the field.
    """
    out = Path(out_dir)
    manifest = _expect(_read_json(out / "runs.json", "run manifest"), dict, "runs.json")
    config = _expect(manifest.get("config", {}), dict, "runs.json config")
    p = _number(config, "p", default=0.0)
    files = _expect(manifest.get("files", {}), dict, "runs.json files")
    hyperbolic = _expect(files.get("hyperbolic", {}), dict, "runs.json files.hyperbolic")
    # a falsy name means no file, as in ``_fits``
    for key, name in [("parabolic", files.get("parabolic")), *hyperbolic.items()]:
        _expect(name or "", str, f"runs.json files {key}")
    try:
        [float(key) for key in hyperbolic]
    except ValueError:
        _fail("runs.json files.hyperbolic", "every key must be an eps value")
    fits = _fits(files, lambda name: _read_csv(out / name), p)
    report_path = out / "report.json"
    prior = _read_json(report_path, "report") if report_path.is_file() else {}
    _expect(prior, dict, "report.json")
    checks_doc = _expect(prior.get("checks", []), list, "report.json checks")
    for entry in checks_doc:
        _expect(entry, dict, "report.json checks[]")
    constants = _expect(prior.get("measured_constants", {}), dict, "report.json measured_constants")
    _write_report(report_path, checks_doc, fits, constants)
    failed = any(not entry.get("passed", True) for entry in checks_doc)
    return 1 if failed else 0
