"""Verification layer: rate regression, inequality monitors, sweeps, probes.

Differential inequalities are checked on the sample grid by forward
differences: the slope ``(X[i+1]-X[i])/dt`` is compared against
``max(rhs(t_i), rhs(t_{i+1}))`` (the mean-value point lies between the
endpoints) plus ``tol`` per unit of the local scale ``1+|X|``, with ``tol``
ten times the integrator's relative tolerance.  Slacks are reported
normalized by that local scale, so a report's ``worst_slack`` is comparable
across runs whose magnitudes differ by hundreds of decades.

Rate fits regress ``log(value)`` against one of four abscissas; the two
weighted abscissas are kept unnormalized (``(1+t)^(1-p)-1`` and
``(1+t)^(1+p)-1``) so that fitted slopes read directly as ``-1/(eps(1-p))``
in the oscillatory regime and ``-gamma``-like constants in the overdamped
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.integrate import quad

from . import energies as en
from .evolution import Trajectory, coefficient_derivative, residual_g
from .spectral import SpectralOperator, mass_inf, sobolev_norm_sq
from ._rk import solve_to_grid

__all__ = [
    "CheckReport",
    "RateFit",
    "envelope",
    "abscissa_values",
    "default_fit_window",
    "fit_decay_exponent",
    "assemble_psi3",
    "residual_series",
    "check_energy_monotone",
    "check_energy_sandwich",
    "check_lyapunov_decay",
    "check_comparison_lemma",
    "synthetic_lemma_instance",
    "check_hypotheses",
    "check_residual_bounds",
    "corrector_phi_integral",
    "check_optimality",
    "oscillation_onset",
    "wkb_compare",
    "epsilon_sweep_decay_error",
    "check_uniform_decay_weights",
    "check_parabolic_pointwise",
    "probe_open_problem",
    "ratio_horizon",
    "hyperbolic_series",
    "parabolic_gamma_series",
]

_TINY = 1e-300


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification: pass flag plus the most adverse margin.

    ``worst_slack`` uses the convention that nonnegative means satisfied;
    values are normalized by the check's local scale.  ``passed`` is
    equivalent to ``worst_slack >= -tolerance`` with the tolerance stored in
    ``params["tolerance"]``.
    """

    name: str
    passed: bool
    worst_slack: float
    worst_t: float
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not math.isfinite(self.worst_slack):
            raise ValueError("worst_slack must be finite")
        if not math.isfinite(self.worst_t):
            raise ValueError("worst_t must be finite")
        tol = float(self.params.get("tolerance", 0.0))
        if self.passed != (self.worst_slack >= -tol):
            raise ValueError("passed flag inconsistent with worst_slack and tolerance")


@dataclass(frozen=True)
class RateFit:
    """Least-squares line of ``log(value)`` against a decay abscissa."""

    slope: float
    intercept: float
    r_squared: float
    window: tuple[float, float]
    abscissa: str

    def __post_init__(self) -> None:
        lo, hi = self.window
        if not lo < hi:
            raise ValueError("window must satisfy t_lo < t_hi")
        if not -1e-12 <= self.r_squared <= 1.0 + 1e-12:
            raise ValueError("r_squared must lie in [0, 1]")


def _report(name, slack, worst_t, tol, params) -> CheckReport:
    params = dict(params)
    params["tolerance"] = tol
    slack = float(np.clip(slack, -1e300, 1e300))
    return CheckReport(name, slack >= -tol, slack, float(worst_t), params)


def envelope(times, values) -> tuple[np.ndarray, np.ndarray]:
    """Strip oscillation: keep strict interior local maxima plus maximal endpoints.

    Monotone input comes back unchanged; a constant series reduces to its
    endpoints.  Fewer than three points is a degenerate input.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("times and values must be aligned 1-d arrays")
    if t.size < 3:
        raise ValueError("envelope needs at least 3 points")
    if np.any(v < 0):
        raise ValueError("envelope expects nonnegative values")
    d = np.diff(v)
    if np.all(d == 0.0):
        return t[[0, -1]].copy(), v[[0, -1]].copy()
    if np.all(d <= 0.0) or np.all(d >= 0.0):
        return t.copy(), v.copy()
    keep = np.zeros(t.size, dtype=bool)
    interior = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
    keep[1:-1] = interior
    keep[0] = v[0] >= v[1]
    keep[-1] = v[-1] >= v[-2]
    return t[keep], v[keep]


_ABSCISSAS = ("t", "hyperbolic", "log1p", "parabolic")


def abscissa_values(abscissa: str, p: float, times) -> np.ndarray:
    """Map sample times onto the regression abscissa.

    ``"t"``: the raw time; ``"hyperbolic"``: ``(1+t)^(1-p)-1``;
    ``"log1p"``: ``log(1+t)`` (the p = 1 weight); ``"parabolic"``:
    ``(1+t)^(1+p)-1``.
    """
    t = np.asarray(times, dtype=float)
    if abscissa == "t":
        return t.copy()
    if abscissa == "hyperbolic":
        return np.expm1((1.0 - p) * np.log1p(t))
    if abscissa == "log1p":
        return np.log1p(t)
    if abscissa == "parabolic":
        return np.expm1((1.0 + p) * np.log1p(t))
    raise ValueError(f"unknown abscissa {abscissa!r} (expected one of {_ABSCISSAS})")


def default_fit_window(t_end: float, eps: float | None = None) -> tuple[float, float]:
    """Last 60% of the range, pushed past the boundary layer when ``eps`` is known."""
    lo = 0.4 * t_end
    if eps is not None:
        lo = max(lo, 50.0 * eps)
    if lo >= t_end:
        lo = 0.4 * t_end
    return (lo, t_end)


def fit_decay_exponent(
    times, values, p: float, abscissa: str, window: tuple[float, float] | None = None
) -> RateFit:
    """Fit ``log(value)`` linearly in the chosen abscissa over ``window``.

    The series must be strictly positive inside the window and leave at least
    three points there.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("times and values must be aligned 1-d arrays")
    if window is None:
        window = default_fit_window(float(t[-1]))
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must satisfy t_lo < t_hi")
    mask = (t >= lo) & (t <= hi)
    if int(mask.sum()) < 3:
        raise ValueError("fit window must contain at least 3 samples")
    if np.any(v[mask] <= 0.0):
        raise ValueError("values must be positive inside the fit window")
    x = abscissa_values(abscissa, p, t[mask])
    y = np.log(v[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r2 = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return RateFit(float(slope), float(intercept), r2, (lo, hi), abscissa)


def _slope_check(
    name: str,
    times: np.ndarray,
    values: np.ndarray,
    rhs: np.ndarray,
    tol: float,
    params: dict[str, Any],
    t_start: float = 0.0,
) -> CheckReport:
    """Forward-difference transcription of ``X' <= rhs`` for ``t >= t_start``."""
    t = np.asarray(times, dtype=float)
    x = np.asarray(values, dtype=float)
    r = np.asarray(rhs, dtype=float)
    start = int(np.searchsorted(t, t_start - 1e-12 * max(1.0, t_start)))
    if start >= t.size - 1:
        params = dict(params, intervals=0)
        return _report(name, 0.0, float(t[-1]), tol, params)
    dt = np.diff(t[start:])
    slopes = np.diff(x[start:]) / dt
    rhs_max = np.maximum(r[start:-1], r[start + 1 :])
    scale = 1.0 + np.abs(x[start:-1])
    slack = (rhs_max - slopes) / scale
    worst = int(np.argmin(slack))
    params = dict(params, intervals=int(slack.size))
    return _report(name, float(slack[worst]), float(t[start + worst]), tol, params)


def hyperbolic_series(
    traj: Trajectory,
    eps: float,
    op: SpectralOperator,
    lp: en.LyapunovParams | None = None,
) -> dict[str, np.ndarray]:
    """Pointwise energy columns of a second-order run (``F`` only with ``lp``)."""
    u, v, c = traj.u, traj.v, traj.c_trace
    out = {
        "gamma": en.gamma_eps(u, v, eps, op),
        "E": en.energy_E(u, v, eps, c, op),
        "G": en.energy_G(v),
    }
    if lp is not None:
        out["F"] = en.energy_F(u, v, traj.times, eps, c, op, lp)
    return out


def _h2_norm_sq(op: SpectralOperator, u: np.ndarray) -> np.ndarray:
    """``|u|^2 + |A^(1/2)u|^2 + |Au|^2`` per row."""
    return sobolev_norm_sq(op, u, 0.0) + sobolev_norm_sq(op, u, 0.5) + sobolev_norm_sq(op, u, 1.0)


def parabolic_gamma_series(traj: Trajectory, op: SpectralOperator) -> np.ndarray:
    """First-order-run energy ``|u|^2+|A^(1/2)u|^2+|Au|^2+(1+t)^(-2p)|u'|^2``."""
    w = (1.0 + traj.times) ** (-2.0 * traj.meta["p"])
    return _h2_norm_sq(op, traj.u) + w * sobolev_norm_sq(op, traj.velocity(op), 0.0)


def check_energy_monotone(traj: Trajectory, eps: float, op: SpectralOperator) -> CheckReport:
    """Monitor ``E' <= 0`` discretely along a second-order run."""
    if traj.kind != "hyperbolic":
        raise ValueError("energy monotonicity applies to hyperbolic runs")
    tol = 10.0 * float(traj.meta.get("rel_tol", 1e-10))
    E = en.energy_E(traj.u, traj.v, eps, traj.c_trace, op)
    rhs = np.zeros_like(E)
    return _slope_check(
        "energy_monotone",
        traj.times,
        E,
        rhs,
        tol,
        {"eps": eps, "p": traj.meta.get("p")},
    )


def check_energy_sandwich(
    traj: Trajectory,
    eps: float,
    op: SpectralOperator,
    lp: en.LyapunovParams | None = None,
) -> list[CheckReport]:
    """Two-sided equivalence for ``E`` and (with ``lp``) the lower bound for ``F``.

    The comparison weight is ``eps|u'|^2 + |A^(1/2)u|^2``; constants come from
    the run's measured coefficient supremum (with 1% headroom) and the mass
    infimum.  The ``F`` lower bound is expected to fail for large ``eps`` and
    is reported, never raised.
    """
    if traj.kind != "hyperbolic":
        raise ValueError("sandwich checks apply to hyperbolic runs")
    m = traj.meta["mass"]
    mu = mass_inf(m)
    c_sup = 1.01 * float(np.max(traj.c_trace))
    k_lo, k_hi, k_lo_F = en.equivalence_constants(mu, c_sup)
    base = en.energy_E(traj.u, traj.v, eps, 1.0, op)
    E = en.energy_E(traj.u, traj.v, eps, traj.c_trace, op)
    scale = 1.0 + base
    tol = 10.0 * float(traj.meta.get("rel_tol", 1e-10))
    lo_slack = (E - k_lo * base) / scale
    hi_slack = (k_hi * base - E) / scale
    slack = np.minimum(lo_slack, hi_slack)
    worst = int(np.argmin(slack))
    reports = [
        _report(
            "sandwich_E",
            float(slack[worst]),
            float(traj.times[worst]),
            tol,
            {"eps": eps, "k_lower": k_lo, "k_upper": k_hi, "c_sup": c_sup},
        )
    ]
    if lp is not None:
        F = en.energy_F(traj.u, traj.v, traj.times, eps, traj.c_trace, op, lp)
        f_slack = (F - k_lo_F * base) / scale
        worst = int(np.argmin(f_slack))
        reports.append(
            _report(
                "sandwich_F",
                float(f_slack[worst]),
                float(traj.times[worst]),
                tol,
                {"eps": eps, "k_lower": k_lo_F, "c_sup": c_sup, "delta": lp.delta},
            )
        )
    return reports


def assemble_psi3(
    traj: Trajectory,
    rho: np.ndarray,
    theta_prime: np.ndarray,
    g: np.ndarray,
    lp: en.LyapunovParams,
    eps: float,
    op: SpectralOperator,
) -> np.ndarray:
    """Forcing term of the remainder Lyapunov inequality, from measured series.

    Sum of the explicit coefficient forms: corrector kinetic leak
    ``(eps delta/2) c (1+t)^(-p) |theta'|^2``, the two cross terms
    ``2 |A^(1/2)rho| |A^(1/2)theta'|`` and
    ``delta (1+t)^(-2p) nu^(-1/2) |A^(1/2)rho| |theta'|``, and the residual
    load ``(2/c + delta/(2 sigma)) (1+t)^p |g|^2``.
    """
    if lp.sigma is None:
        raise ValueError("psi3 needs perturbation-case parameters (sigma present)")
    c = traj.c_trace
    w = (1.0 + traj.times) ** (-lp.p)
    inv_sqrt_nu = 1.0 / math.sqrt(op.nu)
    tp_norm_sq = sobolev_norm_sq(op, theta_prime, 0.0)
    tp_half = np.sqrt(sobolev_norm_sq(op, theta_prime, 0.5))
    rho_half = np.sqrt(sobolev_norm_sq(op, rho, 0.5))
    g_sq = sobolev_norm_sq(op, g, 0.0)
    return (
        0.5 * eps * lp.delta * c * w * tp_norm_sq
        + 2.0 * rho_half * tp_half
        + lp.delta * w * w * inv_sqrt_nu * rho_half * np.sqrt(tp_norm_sq)
        + (2.0 / c + lp.delta / (2.0 * lp.sigma)) / w * g_sq
    )


def residual_series(
    traj_eps: Trajectory, traj_parabolic: Trajectory, eps: float
) -> np.ndarray:
    """Residual ``g`` sampled on the shared grid, rows per sample time."""
    if not np.array_equal(traj_eps.times, traj_parabolic.times):
        raise ValueError("trajectories must share the sample grid")
    meta = traj_parabolic.meta
    return residual_g(
        traj_parabolic.times,
        traj_parabolic.u,
        traj_eps.c_trace,
        meta["operator"],
        meta["mass"],
        meta["p"],
        eps,
    )


def check_lyapunov_decay(
    traj: Trajectory,
    eps: float,
    op: SpectralOperator,
    lp: en.LyapunovParams,
    which: str = "F",
    psi3: np.ndarray | None = None,
    rho: np.ndarray | None = None,
    rprime: np.ndarray | None = None,
) -> CheckReport:
    """Discrete monitor of the Lyapunov decay inequality for ``t >= lp.T``.

    ``which="F"`` checks ``F' <= -beta (1+t)^(-p) F`` along the run;
    ``which="script_F"`` checks the remainder version with forcing ``psi3``
    and needs the ``rho``/``rprime`` series of the decomposition.
    """
    if traj.kind != "hyperbolic":
        raise ValueError("Lyapunov monitors apply to hyperbolic runs")
    t = traj.times
    tol = 10.0 * float(traj.meta.get("rel_tol", 1e-10))
    w = (1.0 + t) ** (-lp.p)
    if which == "F":
        u, v, name = traj.u, traj.v, "lyapunov_decay_F"
    elif which == "script_F":
        if lp.sigma is None:
            raise ValueError("script_F needs perturbation-case parameters")
        if psi3 is None or rho is None or rprime is None:
            raise ValueError("script_F needs psi3, rho and rprime series")
        u, v, name = rho, rprime, "lyapunov_decay_script_F"
    else:
        raise ValueError("which must be 'F' or 'script_F'")
    F = en.energy_F(u, v, t, eps, traj.c_trace, op, lp)
    rhs = -lp.beta * w * F
    if which == "script_F":
        rhs = rhs + np.asarray(psi3, dtype=float)
    return _slope_check(
        name,
        t,
        F,
        rhs,
        tol,
        {"eps": eps, "beta": lp.beta, "delta": lp.delta, "T": lp.T, "p": lp.p},
        t_start=lp.T,
    )


# ---------------------------------------------------------------------------
# comparison lemmas


def _grid_integral(t: np.ndarray, y: np.ndarray) -> float:
    return float(np.trapezoid(y, t))


def check_comparison_lemma(kind: str, inputs: dict[str, Any]) -> CheckReport:
    """Verify one comparison lemma's conclusion on sampled inputs.

    ``inputs`` keys by kind (all series aligned with ``times``):

    - ``lemma32``: ``times, G, eps, K, beta, p``; hypothesis
      ``G' <= -G/(eps (1+t)^p) + (K/eps)(1+t)^p Phi`` (needs ``2 eps beta <= 1``),
      conclusion ``G <= (2K + G(0)) (1+t)^(2p) Phi``.
    - ``lemma33``: ``times, E, psi1, psi2`` (optional exact ``K1``, ``K2``);
      hypothesis ``E' <= psi1 sqrt(E) + psi2`` with ``E(0) = 0``, conclusion
      ``E <= K1^2 + 2 K2``.
    - ``lemma34``: ``times, F, psi, T, beta, p`` (optional exact
      ``psi_over_phi_integral``); hypothesis
      ``F' <= -beta (1+t)^(-p) F + psi`` for ``t >= T``, conclusion
      ``F <= (F(T)/Phi(T) + int psi/Phi) Phi``.

    A violated hypothesis yields a failing report with
    ``params["failure_kind"] = "hypothesis"``, distinct from a conclusion
    failure.  ``inputs["tol"]`` (default 1e-8) is the slack tolerance.
    """
    tol = float(inputs.get("tol", 1e-8))
    t = np.asarray(inputs["times"], dtype=float)
    if kind == "lemma32":
        G = np.asarray(inputs["G"], dtype=float)
        eps = float(inputs["eps"])
        K = float(inputs["K"])
        beta = float(inputs["beta"])
        p = float(inputs["p"])
        if eps <= 0 or K < 0:
            raise ValueError("need eps > 0 and K >= 0")
        if 2.0 * eps * beta > 1.0:
            raise ValueError("lemma32 requires 2*eps*beta <= 1")
        phi_vals = np.array([en.phi(beta, p, float(s)) for s in t])
        rhs = -G / (eps * (1.0 + t) ** p) + (K / eps) * (1.0 + t) ** p * phi_vals
        hyp = _slope_check(
            "comparison_lemma32", t, G, rhs, tol, {"eps": eps, "K": K, "beta": beta, "p": p}
        )
        if not hyp.passed:
            params = dict(hyp.params, failure_kind="hypothesis")
            return CheckReport(hyp.name, False, hyp.worst_slack, hyp.worst_t, params)
        bound = (2.0 * K + G[0]) * (1.0 + t) ** (2.0 * p) * phi_vals
        slack = (bound - G) / np.maximum(bound, _TINY)
        worst = int(np.argmin(slack))
        params = {"eps": eps, "K": K, "beta": beta, "p": p, "bound_at_0": float(bound[0])}
        rep = _report("comparison_lemma32", float(slack[worst]), float(t[worst]), tol, params)
        if not rep.passed:
            rep.params["failure_kind"] = "conclusion"
        return rep

    if kind == "lemma33":
        E = np.asarray(inputs["E"], dtype=float)
        psi1 = np.asarray(inputs["psi1"], dtype=float)
        psi2 = np.asarray(inputs["psi2"], dtype=float)
        if np.any(psi1 < 0) or np.any(psi2 < 0):
            raise ValueError("psi1 and psi2 must be nonnegative")
        if abs(E[0]) > tol:
            return _report(
                "comparison_lemma33",
                -abs(float(E[0])),
                float(t[0]),
                tol,
                {"failure_kind": "hypothesis", "reason": "E(0) != 0"},
            )
        rhs = psi1 * np.sqrt(np.maximum(E, 0.0)) + psi2
        hyp = _slope_check("comparison_lemma33", t, E, rhs, tol, {})
        if not hyp.passed:
            params = dict(hyp.params, failure_kind="hypothesis")
            return CheckReport(hyp.name, False, hyp.worst_slack, hyp.worst_t, params)
        K1 = float(inputs.get("K1", _grid_integral(t, psi1)))
        K2 = float(inputs.get("K2", _grid_integral(t, psi2)))
        bound = K1 * K1 + 2.0 * K2
        slack = (bound - E) / max(bound, _TINY)
        worst = int(np.argmin(slack))
        rep = _report(
            "comparison_lemma33",
            float(slack[worst]),
            float(t[worst]),
            tol,
            {"K1": K1, "K2": K2, "bound": bound},
        )
        if not rep.passed:
            rep.params["failure_kind"] = "conclusion"
        return rep

    if kind == "lemma34":
        F = np.asarray(inputs["F"], dtype=float)
        psi_vals = np.asarray(inputs["psi"], dtype=float)
        T = float(inputs["T"])
        beta = float(inputs["beta"])
        p = float(inputs["p"])
        if np.any(psi_vals < 0):
            raise ValueError("psi must be nonnegative")
        phi_vals = np.array([en.phi(beta, p, float(s)) for s in t])
        rhs = -beta * F / (1.0 + t) ** p + psi_vals
        hyp = _slope_check(
            "comparison_lemma34", t, F, rhs, tol, {"beta": beta, "p": p, "T": T}, t_start=T
        )
        if not hyp.passed:
            params = dict(hyp.params, failure_kind="hypothesis")
            return CheckReport(hyp.name, False, hyp.worst_slack, hyp.worst_t, params)
        integral = float(
            inputs.get("psi_over_phi_integral", _grid_integral(t, psi_vals / phi_vals))
        )
        iT = int(np.searchsorted(t, T - 1e-12 * max(1.0, T)))
        const = F[iT] / phi_vals[iT] + integral
        mask = t >= t[iT]
        bound = const * phi_vals[mask]
        slack = (bound - F[mask]) / np.maximum(np.abs(bound), _TINY)
        worst = int(np.argmin(slack))
        rep = _report(
            "comparison_lemma34",
            float(slack[worst]),
            float(t[mask][worst]),
            tol,
            {"beta": beta, "p": p, "T": T, "bound_constant": float(const)},
        )
        if not rep.passed:
            rep.params["failure_kind"] = "conclusion"
        return rep

    raise ValueError(f"unknown lemma kind {kind!r}")


def synthetic_lemma_instance(
    kind: str, rng: np.random.Generator, grid_points: int = 600
) -> dict[str, Any]:
    """Random inputs whose hypotheses hold by construction.

    Each instance integrates the lemma's equality ODE (the extremal
    subsolution) at tight tolerance, optionally shrinks it by a decreasing
    factor (still a subsolution), and for lemma34 may add slack to ``psi``
    (enlarging the admitted forcing keeps the hypothesis true).
    """
    p = float(rng.choice([0.0, 0.3, 0.5, 0.7, 1.0]))
    t_end = float(rng.uniform(4.0, 12.0))
    times = np.linspace(0.0, t_end, grid_points)
    shrink = float(rng.uniform(0.0, 0.4))
    decay = np.exp(-shrink * times)

    if kind == "lemma32":
        beta = float(rng.uniform(0.2, 1.5))
        eps = float(rng.uniform(0.05, 0.5 / beta * 0.9))
        K = float(rng.uniform(0.0, 4.0))
        G0 = float(rng.uniform(0.0, 3.0))

        def f(t: float, y: np.ndarray) -> np.ndarray:
            w = (1.0 + t) ** p
            return np.array(
                [-y[0] / (eps * w) + (K / eps) * w * en.phi(beta, p, t)]
            )

        Y, _, _ = solve_to_grid(
            f, np.array([G0]), times, rel_tol=1e-11, abs_tol=1e-14
        )
        return {
            "times": times,
            "G": Y[:, 0] * decay,
            "eps": eps,
            "K": K,
            "beta": beta,
            "p": p,
        }

    if kind == "lemma33":
        a1, b1 = float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.3, 2.0))
        a2, b2 = float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.3, 2.0))
        k1 = float(rng.uniform(2.0, 4.0))
        psi1 = a1 * np.exp(-b1 * times) + 0.3 / (1.0 + times) ** k1
        psi2 = a2 * np.exp(-b2 * times)

        def f(t: float, y: np.ndarray) -> np.ndarray:
            p1 = a1 * math.exp(-b1 * t) + 0.3 / (1.0 + t) ** k1
            p2 = a2 * math.exp(-b2 * t)
            return np.array([p1 * math.sqrt(max(y[0], 0.0)) + p2])

        Y, _, _ = solve_to_grid(
            f, np.array([0.0]), times, rel_tol=1e-11, abs_tol=1e-14
        )
        return {"times": times, "E": Y[:, 0] * decay, "psi1": psi1, "psi2": psi2}

    if kind == "lemma34":
        beta = float(rng.uniform(0.3, 2.0))
        beta_fast = beta + float(rng.uniform(0.5, 2.0)) + (1.0 if p == 1.0 else 0.0)
        q = float(rng.uniform(0.1, 3.0))
        T = float(rng.uniform(0.0, 1.5))
        FT = float(rng.uniform(0.0, 2.0))
        psi_vals = q * np.array([en.phi(beta_fast, p, float(s)) for s in times])

        def f(t: float, y: np.ndarray) -> np.ndarray:
            return np.array(
                [-beta * y[0] / (1.0 + t) ** p + q * en.phi(beta_fast, p, t)]
            )

        # Integrate from t = 0 with a start value reaching F(T) = FT; the
        # hypothesis is only required for t >= T, so the early part is free.
        Y, _, _ = solve_to_grid(
            f, np.array([FT]), times, rel_tol=1e-11, abs_tol=1e-14
        )
        extra = float(rng.uniform(0.0, 0.5)) * np.array(
            [en.phi(beta_fast, p, float(s)) for s in times]
        )
        return {
            "times": times,
            "F": Y[:, 0] * decay,
            "psi": psi_vals + extra,
            "T": T,
            "beta": beta,
            "p": p,
        }

    raise ValueError(f"unknown lemma kind {kind!r}")


# ---------------------------------------------------------------------------
# hypothesis chain, residual bounds


def _stability_ratio(values: list[float]) -> float:
    """max/min of nonnegative measurements; all-zero families count as stable."""
    vmax = max(values)
    vmin = min(values)
    if vmax == 0.0:
        return 1.0
    if vmin == 0.0:
        return math.inf
    return vmax / vmin


def check_hypotheses(
    trajs_eps: list[Trajectory], traj_parabolic: Trajectory
) -> CheckReport:
    """Measure the coefficient-trace suprema and their stability across the sweep.

    Estimates, per run: ``M1 = sup c`` (limit flow), ``M2 = sup |c'|`` (limit
    flow), ``M3 = sup c_eps``, ``M4 = sup (1+t)^p |c_eps'|`` and
    ``M5 = sup |c_eps - c| / eps``, then asserts that M3, M4 and M5 are each
    stable within 2x across the sweep.
    """
    if not trajs_eps:
        raise ValueError("need at least one hyperbolic run")
    op = traj_parabolic.meta["operator"]
    m = traj_parabolic.meta["mass"]
    p = float(traj_parabolic.meta["p"])
    t = traj_parabolic.times
    c_par = traj_parabolic.c_trace
    M1 = float(np.max(c_par))
    cprime_par = coefficient_derivative(traj_parabolic, op, m)
    M2 = float(np.max(np.abs(cprime_par)))
    M3 = {}
    M4 = {}
    M5 = {}
    worst_t = 0.0
    for traj in trajs_eps:
        eps = float(traj.meta["eps"])
        if not np.array_equal(traj.times, t):
            raise ValueError("sweep runs must share the parabolic sample grid")
        c_eps = traj.c_trace
        M3[eps] = float(np.max(c_eps))
        cprime = coefficient_derivative(traj, op, m)
        weighted = (1.0 + t) ** p * np.abs(cprime)
        M4[eps] = float(np.max(weighted))
        diff = np.abs(c_eps - c_par) / eps
        i5 = int(np.argmax(diff))
        M5[eps] = float(diff[i5])
        worst_t = float(t[i5])
    ratios = {
        "M3": _stability_ratio(list(M3.values())),
        "M4": _stability_ratio(list(M4.values())),
        "M5": _stability_ratio(list(M5.values())),
    }
    slack = min((2.0 - r) / 2.0 if math.isfinite(r) else -1.0 for r in ratios.values())
    params = {
        "M1": M1,
        "M2": M2,
        "M3": {repr(k): v for k, v in M3.items()},
        "M4": {repr(k): v for k, v in M4.items()},
        "M5": {repr(k): v for k, v in M5.items()},
        "stability_ratios": ratios,
        "p": p,
    }
    return _report("hypothesis_chain", slack, worst_t, 0.0, params)


def corrector_phi_integral(eps: float, beta: float, p: float) -> float:
    """Quadrature of ``int_0^inf z_eps / phi`` (finite when ``eps beta < 1``).

    The integrand is ``exp(-(1/eps - beta) W(t))`` with ``W`` the damping
    weight integral; the range splits at the boundary-layer scale.
    """
    if eps <= 0 or beta <= 0:
        raise ValueError("eps and beta must be > 0")
    rate = 1.0 / eps - beta
    if rate <= 0:
        raise ValueError("integral diverges unless eps*beta < 1")
    if p == 0.0:
        return 1.0 / rate

    def kernel(s: float) -> float:
        return math.exp(-rate * en.weight_integral(p, s))

    cut = 80.0 * eps
    total = quad(kernel, 0.0, cut, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
    total += quad(kernel, cut, np.inf, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
    return total


def check_residual_bounds(
    times,
    g_norm_sq_by_eps: dict[float, np.ndarray],
    beta: float,
    p: float,
    mu: float,
    nu: float,
) -> CheckReport:
    """Residual-size laws: weighted integral and sup stability, corrector bound.

    Per ``eps``: ``I(eps) = int (1+t)^p |g|^2 / phi`` (grid quadrature) and
    ``B(eps) = sup |g|^2 / phi``; both, normalized by ``eps^2``, must be
    stable within 4x across the sweep.  The corrector integral
    ``int_0^inf z_eps/phi <= 4 eps`` is asserted exactly for every ``eps``
    with ``2 eps beta <= 1`` and ``4 eps <= 1``.
    """
    if p == 0.0 and beta >= 2.0 * mu * nu:
        raise ValueError("p=0 requires beta < 2*mu*nu")
    t = np.asarray(times, dtype=float)
    phi_vals = np.array([en.phi(beta, p, float(s)) for s in t])
    weight = (1.0 + t) ** p
    I_norm = {}
    B_norm = {}
    z_slacks = []
    z_values = {}
    for eps, g_sq in sorted(g_norm_sq_by_eps.items(), reverse=True):
        g_sq = np.asarray(g_sq, dtype=float)
        I = _grid_integral(t, weight * g_sq / phi_vals)
        B = float(np.max(g_sq / phi_vals))
        I_norm[eps] = I / eps**2
        B_norm[eps] = B / eps**2
        if 2.0 * eps * beta <= 1.0 and 4.0 * eps <= 1.0:
            z_val = corrector_phi_integral(eps, beta, p)
            z_values[eps] = z_val
            z_slacks.append((4.0 * eps - z_val) / (4.0 * eps))
    ratio_I = _stability_ratio(list(I_norm.values()))
    ratio_B = _stability_ratio(list(B_norm.values()))
    slacks = [
        (4.0 - ratio_I) / 4.0 if math.isfinite(ratio_I) else -1.0,
        (4.0 - ratio_B) / 4.0 if math.isfinite(ratio_B) else -1.0,
    ] + z_slacks
    slack = min(slacks)
    params = {
        "beta": beta,
        "p": p,
        "integral_over_eps_sq": {repr(k): v for k, v in I_norm.items()},
        "sup_over_eps_sq": {repr(k): v for k, v in B_norm.items()},
        "corrector_integrals": {repr(k): v for k, v in z_values.items()},
        "stability_ratios": {"integral": ratio_I, "sup": ratio_B},
    }
    return _report("residual_bounds", slack, float(t[-1]), 0.0, params)


# ---------------------------------------------------------------------------
# optimality, WKB, sweeps


def ratio_horizon(
    eps: float,
    p: float,
    mu: float,
    nu: float,
    factor: float = 10.0,
    band_log: float | None = None,
) -> float:
    """Earliest convenient ``t_end`` for the divergence-ratio test.

    Uses the oscillatory amplitude law ``log Gamma ~ -W(t)/eps`` against the
    overdamped envelope exponent ``gamma ((1+t)^(1+p)-1)``: the ratio of the
    two profiles turns around at ``(1+t*)^(2p) = 1/(2 mu nu eps)`` and the
    returned horizon places ``t_end/2`` past the turnaround with enough
    headroom to beat ``factor`` despite oscillation-phase sampling.
    """
    if p <= 0:
        raise ValueError("the profile-ratio horizon applies to p > 0")
    g = en.gamma_rate(mu, nu, p)
    if band_log is None:
        band_log = max(0.0, math.log(max(1.0 / (3.0 * eps), 1.0)))
    margin = math.log(factor) + band_log + 2.0

    def excess(t_end: float) -> float:
        def f(t: float) -> float:
            return -en.weight_integral(p, t) / eps + g * en.growth_integral(p, t)

        return f(t_end) - f(0.5 * t_end) - margin

    t_star = (1.0 / (2.0 * mu * nu * eps)) ** (1.0 / (2.0 * p)) - 1.0
    lo = max(2.0 * (t_star + 1.0), 1.0)
    hi = lo
    while excess(hi) < 0.0:
        hi *= 1.5
        if hi > 1e9:
            raise ValueError("no finite horizon reaches the requested ratio")
    while hi - lo > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def check_optimality(
    traj: Trajectory, eps: float, op: SpectralOperator, phi_spec: dict[str, Any]
) -> CheckReport:
    """Divergence of ``H = E / Phi`` against a faster-decaying profile.

    ``phi_spec["form"]`` is ``"psi"`` (overdamped profile, needs ``p > 0``;
    rate defaults to the limit flow's decay constant) or ``"exp"`` (plain
    ``exp(-beta_hat t)``, needs ``p = 0`` and ``beta_hat`` above the run's
    fitted decay rate).  Asserts ``H`` is eventually increasing with the late
    minimum in the first half of the run, and
    ``H(t_end) / H(t_end/2) >= 10``.
    """
    if traj.kind != "hyperbolic":
        raise ValueError("optimality applies to hyperbolic runs")
    p = float(traj.meta["p"])
    m = traj.meta["mass"]
    t = traj.times
    form = phi_spec.get("form")
    if form == "psi":
        if p <= 0.0:
            raise ValueError("the overdamped profile requires p > 0")
        alpha = float(
            phi_spec.get("alpha", en.gamma_rate(mass_inf(m), op.nu, p))
        )
        profile = np.array([en.psi(alpha, p, float(s)) for s in t])
        profile_desc = {"form": "psi", "alpha": alpha}
    elif form == "exp":
        if p != 0.0:
            raise ValueError("the plain exponential profile requires p = 0")
        beta_hat = float(phi_spec["beta"])
        series = hyperbolic_series(traj, eps, op)["gamma"]
        t_env, v_env = envelope(t, series)
        window = default_fit_window(float(t[-1]), eps)
        inside = int(np.count_nonzero((t_env >= window[0]) & (t_env <= window[1])))
        if inside < 3:
            # overdamped runs have a single hump; fit the raw series instead
            t_env, v_env = t, series
        fit = fit_decay_exponent(t_env, v_env, p, "t", window)
        if beta_hat <= -fit.slope:
            raise ValueError(
                f"beta_hat={beta_hat} does not decay faster than the measured rate "
                f"{-fit.slope:.6g}"
            )
        profile = np.exp(-beta_hat * t)
        profile_desc = {"form": "exp", "beta": beta_hat, "fitted_rate": float(-fit.slope)}
    else:
        raise ValueError("phi_spec['form'] must be 'psi' or 'exp'")

    H = en.optimality_H(traj.u, traj.v, eps, traj.c_trace, profile, op)
    i0 = int(np.argmin(H))
    t_end = float(t[-1])
    tol = 1000.0 * float(traj.meta.get("rel_tol", 1e-10))
    s_half = (0.5 * t_end - float(t[i0])) / (0.5 * t_end)
    # "Eventually increasing" through oscillation: past the global minimum the
    # sequence of local minima of H must be nondecreasing.
    tail = H[i0:]
    interior = np.flatnonzero(
        (tail[1:-1] < tail[:-2]) & (tail[1:-1] < tail[2:])
    )
    if interior.size >= 2:
        mins = tail[interior + 1]
        incr = np.diff(mins) / np.maximum(mins[:-1], _TINY)
        k = int(np.argmin(incr))
        s_tail = float(incr[k])
        worst_tail_t = float(t[i0 + 1 + int(interior[k + 1])])
    else:
        s_tail = 0.0
        worst_tail_t = float(t[i0])
    i_half = int(np.searchsorted(t, 0.5 * t_end))
    ratio = float(H[-1] / max(H[i_half], _TINY))
    s_ratio = ratio / 10.0 - 1.0
    slack = min(s_half, s_tail, s_ratio)
    if slack == s_tail:
        worst_t = worst_tail_t
    elif slack == s_half:
        worst_t = float(t[i0])
    else:
        worst_t = t_end
    params = {
        "eps": eps,
        "p": p,
        "profile": profile_desc,
        "ratio": ratio,
        "minimum_t": float(t[i0]),
    }
    return _report("optimality_H", slack, worst_t, tol, params)


def oscillation_onset(eps: float, p: float, mu_nu: float, level: float = 2.0) -> float:
    """Time at which the damping discriminant ratio ``4 eps mu nu (1+t)^(2p)``
    reaches ``level``.

    Below 1 the flow is locally overdamped (real frozen-coefficient roots);
    the oscillatory amplitude law applies once the ratio is comfortably above
    1, conventionally 2.
    """
    if p <= 0:
        raise ValueError("the onset time applies to p > 0")
    base = level / (4.0 * eps * mu_nu)
    if base <= 1.0:
        return 0.0
    return base ** (1.0 / (2.0 * p)) - 1.0


def wkb_compare(
    traj: Trajectory, eps: float, p: float, mu_nu: float
) -> CheckReport:
    """Oscillatory amplitude law on a single mode: fitted slope vs ``-1/(eps(1-p))``.

    The envelope is fit on ``|u|`` (the squared-amplitude slope is twice the
    fit, dodging underflow on deep decays) over a window starting past both
    the boundary layer and the overdamped-to-oscillatory transition.  Also
    fits the same envelope against the overdamped abscissa and requires it to
    explain the data strictly worse (r-squared drop of at least 0.05 or a
    drifting slope), confirming the two regimes separate.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("the amplitude law applies to p in (0, 1)")
    if traj.kind != "hyperbolic":
        raise ValueError("expected a hyperbolic run")
    op = traj.meta["operator"]
    if op.dim != 1:
        raise ValueError("expected a single-mode run")
    t = traj.times
    t_end = float(t[-1])
    onset = oscillation_onset(eps, p, mu_nu)
    lo = max(0.4 * t_end, 50.0 * eps, onset)
    if lo >= 0.9 * t_end:
        raise ValueError(
            f"horizon too short: the oscillatory regime starts near t={onset:.3g}, "
            f"need t_end well past it (got {t_end:.3g})"
        )
    window = (lo, t_end)
    series = np.abs(traj.u[:, 0])
    t_env, v_env = envelope(t, series)
    fit_h = fit_decay_exponent(t_env, v_env, p, "hyperbolic", window)
    fitted = 2.0 * fit_h.slope
    predicted = -1.0 / (eps * (1.0 - p))
    rel_err = abs(fitted - predicted) / abs(predicted)
    s_fit = (0.15 - rel_err) / 0.15

    fit_p = fit_decay_exponent(t_env, v_env, p, "parabolic", window)
    mid = 0.5 * (lo + t_end)
    first = fit_decay_exponent(t_env, v_env, p, "parabolic", (lo, mid))
    second = fit_decay_exponent(t_env, v_env, p, "parabolic", (mid, t_end))
    drift = abs(first.slope - second.slope) / max(abs(fit_p.slope), _TINY)
    s_r2 = (fit_h.r_squared - fit_p.r_squared - 0.05) / 0.05
    s_drift = (drift - 0.2) / 0.2
    s_spread = max(s_r2, s_drift)
    slack = min(s_fit, s_spread)
    params = {
        "eps": eps,
        "p": p,
        "mu_nu": mu_nu,
        "window": [lo, t_end],
        "fitted_slope": fitted,
        "predicted_slope": predicted,
        "r_squared": fit_h.r_squared,
        "overdamped_r_squared": fit_p.r_squared,
        "overdamped_drift": drift,
    }
    return _report("wkb_amplitude_law", slack, t_end, 0.0, params)


def epsilon_sweep_decay_error(
    times,
    gamma_r_by_eps: dict[float, np.ndarray],
    beta: float,
    p: float,
    mu: float,
    nu: float,
) -> CheckReport:
    """The quadratic error law across a halving sweep.

    Takes, per ``eps``, the remainder energy
    ``|rho|^2 + |A^(1/2)rho|^2 + eps|r'|^2`` sampled on ``times`` (see
    :func:`klab.energies.gamma_r`) and measures ``S(eps) = sup_t`` of its
    ratio to ``eps^2 phi``.  Asserts the sweep is stable within 4x and every
    halving keeps ``S(eps/2)/S(eps)`` in ``[1/2, 2]``.
    """
    eps_sorted = sorted(float(e) for e in gamma_r_by_eps)
    if len(eps_sorted) < 3:
        raise ValueError("the sweep needs at least three eps values")
    for small, large in zip(eps_sorted, eps_sorted[1:]):
        if abs(large / small - 2.0) > 1e-9:
            raise ValueError("eps values must form a halving (ratio-2) sweep")
    if p == 0.0 and beta >= 2.0 * mu * nu:
        raise ValueError("p=0 requires beta < 2*mu*nu")
    eps_desc = eps_sorted[::-1]
    t = np.asarray(times, dtype=float)
    phi_vals = np.array([en.phi(beta, p, float(s)) for s in t])
    sups = [
        float(np.max(np.asarray(gamma_r_by_eps[eps], dtype=float) / (eps**2 * phi_vals)))
        for eps in eps_desc
    ]
    S = dict(zip(eps_desc, sups))
    ratio_sweep = _stability_ratio(sups)
    slacks = [(4.0 - ratio_sweep) / 4.0 if math.isfinite(ratio_sweep) else -1.0]
    halvings = {}
    for large, small in zip(eps_desc, eps_desc[1:]):
        if S[large] == 0.0 and S[small] == 0.0:
            r = 1.0
        elif S[large] == 0.0:
            r = math.inf
        else:
            r = S[small] / S[large]
        halvings[f"{large!r}->{small!r}"] = r
        if math.isfinite(r):
            slacks.append(min((2.0 - r) / 2.0, (r - 0.5) / 0.5))
        else:
            slacks.append(-1.0)
    params = {
        "beta": beta,
        "p": p,
        "S_eps": {repr(k): v for k, v in S.items()},
        "halving_ratios": halvings,
        "sweep_ratio": ratio_sweep,
    }
    return _report("decay_error_eps2_law", min(slacks), float(t[-1]), 0.0, params)


def check_uniform_decay_weights(
    trajs_eps: list[Trajectory], traj_parabolic: Trajectory | None = None
) -> CheckReport:
    """Weighted suprema of the global-existence bounds, stable across the sweep.

    Measures ``sup (1+t)^2 |u'|^2 + (1+t)^(1+p) |A^(1/2)u|^2 +
    (1+t)^(2(1+p)) |Au|^2`` per run; the per-``eps`` values must agree within
    2x.  The limit-flow value (when provided) is reported alongside.
    """
    if not trajs_eps:
        raise ValueError("need at least one run")

    def weighted_sup(traj: Trajectory) -> float:
        op = traj.meta["operator"]
        p = float(traj.meta["p"])
        one_t = 1.0 + traj.times
        total = (
            one_t**2 * sobolev_norm_sq(op, traj.velocity(op), 0.0)
            + one_t ** (1.0 + p) * sobolev_norm_sq(op, traj.u, 0.5)
            + one_t ** (2.0 * (1.0 + p)) * sobolev_norm_sq(op, traj.u, 1.0)
        )
        return float(np.max(total))

    per_eps = {float(tr.meta["eps"]): weighted_sup(tr) for tr in trajs_eps}
    ratio = _stability_ratio(list(per_eps.values()))
    slack = (2.0 - ratio) / 2.0 if math.isfinite(ratio) else -1.0
    params: dict[str, Any] = {
        "C_2_4": max(per_eps.values()),
        "per_eps": {repr(k): v for k, v in per_eps.items()},
        "sweep_ratio": ratio,
    }
    if traj_parabolic is not None:
        params["C_2_2"] = weighted_sup(traj_parabolic)
    worst_t = float(trajs_eps[0].times[-1])
    return _report("uniform_decay_weights", slack, worst_t, 0.0, params)


def check_parabolic_pointwise(traj: Trajectory, op: SpectralOperator) -> CheckReport:
    """Pointwise overdamped bound with the constant measured at ``t = 0``.

    For constant mass the sharp envelope is
    ``C exp(-gamma (1+t)^(1+p))`` with ``gamma = 2 mu nu/(1+p)``; ``C`` is
    calibrated so the bound is met with 5% headroom at ``t = 0`` and must
    then hold at every sample.
    """
    if traj.kind != "parabolic":
        raise ValueError("expected a parabolic run")
    m = traj.meta["mass"]
    if not m.is_constant:
        raise ValueError("the sharp pointwise bound applies to constant mass")
    p = float(traj.meta["p"])
    mu = mass_inf(m)
    t = traj.times
    lhs = _h2_norm_sq(op, traj.u)
    g = en.gamma_rate(mu, op.nu, p)
    C = 1.05 * lhs[0] * math.exp(g)
    bound = np.array(
        [en.parabolic_bound_rhs(float(s), p, mu, op.nu, C) for s in t]
    )
    slack_arr = (bound - lhs) / np.maximum(bound, _TINY)
    worst = int(np.argmin(slack_arr))
    params = {"p": p, "C": C, "gamma": g}
    return _report(
        "parabolic_pointwise_bound",
        float(slack_arr[worst]),
        float(t[worst]),
        0.0,
        params,
    )


def probe_open_problem(trajs_eps: list[Trajectory]) -> dict[str, Any]:
    """Borderline-rate probe at ``p = 0``: is the energy kept in check at the sharp rate?

    For each second-order run (constant mass, ``p = 0``) takes the
    undamped-rate product ``log Gamma + 2 mu nu t`` and reports its running
    maximum over the first and the whole horizon, flagging growth.  Purely
    informational: the answer at the sharp rate is not known, so no
    pass/fail is attached.
    """
    if not trajs_eps:
        raise ValueError("need at least one hyperbolic run")
    results = {}
    for traj in sorted(trajs_eps, key=lambda tr: float(tr.meta["eps"])):
        op = traj.meta["operator"]
        m = traj.meta["mass"]
        eps = float(traj.meta["eps"])
        if not m.is_constant:
            raise ValueError("the probe runs with constant mass")
        if traj.meta["p"] != 0.0:
            raise ValueError("the probe runs at p = 0")
        mu_nu = mass_inf(m) * op.nu
        series = en.gamma_eps(traj.u, traj.v, eps, op)
        t = traj.times
        positive = series > 0.0
        logs = np.full(t.size, -math.inf)
        logs[positive] = np.log(series[positive]) + 2.0 * mu_nu * t[positive]
        half = int(t.size // 2)
        sup_half = float(np.max(logs[:half]))
        sup_full = float(np.max(logs))
        results[repr(eps)] = {
            "sup_log_weighted_half": sup_half,
            "sup_log_weighted": sup_full,
            "grows": bool(sup_full > sup_half + 0.01),
        }
    return {
        "rate": 2.0 * mu_nu,
        "t_end": float(trajs_eps[0].times[-1]),
        "per_eps": results,
        "informational": True,
    }
