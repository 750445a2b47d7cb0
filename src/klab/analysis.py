"""Verification layer: rate regression, inequality monitors, sweeps, probes.

Differential inequalities are checked on the sample grid by forward
differences: the slope ``(X[i+1]-X[i])/dt`` is compared against
``max(rhs(t_i), rhs(t_{i+1}))`` (the mean-value point lies between the
endpoints) plus ``tol`` per unit of the local scale ``1+|X|``, with ``tol``
ten times the integrator's relative tolerance.  Slacks are reported
normalized by that local scale, so a report's ``worst_slack`` is comparable
across runs whose magnitudes differ by hundreds of decades.

Rate fits regress ``log(value)`` against one of three abscissas; the two
weighted abscissas are kept unnormalized (``(1+t)^(1-p)-1`` and
``(1+t)^(1+p)-1``) so that fitted slopes read directly as ``-1/(eps(1-p))``
in the oscillatory regime and ``-gamma``-like constants in the overdamped
one.

The checks take the energy series they test; only ``hyperbolic_series`` and
``parabolic_gamma_series`` evaluate them on a flow's states.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from . import energies as en
from .evolution import _GL_NODES, _GL_POINTS, _GL_WEIGHTS, Trajectory, coefficient_derivative
from .spectral import mass_inf, sobolev_norm_sq
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
    "LEMMA_SERIES",
    "check_comparison_lemma",
    "synthetic_lemma_instances",
    "check_hypotheses",
    "check_residual_bounds",
    "check_optimality",
    "oscillation_onset",
    "wkb_window_start",
    "wkb_compare",
    "epsilon_sweep_decay_error",
    "check_uniform_decay_weights",
    "check_parabolic_pointwise",
    "probe_open_problem",
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
    slack = float(min(max(slack, -1e300), 1e300))
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


_ABSCISSAS = ("t", "hyperbolic", "parabolic")


def abscissa_values(abscissa: str, p: float, times) -> np.ndarray:
    """Map sample times onto the regression abscissa.

    ``"t"``: the raw time; ``"hyperbolic"``: ``(1+t)^(1-p)-1``, which is
    identically 0 at ``p = 1`` and so is routed to its p = 1 weight
    ``log(1+t)`` below ``DEGENERATE_P`` from 1, as ``weight_integral`` is;
    ``"parabolic"``: ``(1+t)^(1+p)-1``.
    """
    t = np.asarray(times, dtype=float)
    if abscissa == "t":
        return t.copy()
    if abscissa == "hyperbolic":
        q = 1.0 - p
        log1p_t = np.log1p(t)
        return log1p_t if q < en.DEGENERATE_P else np.expm1(q * log1p_t)
    if abscissa == "parabolic":
        return en.growth_integral(p, t)
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
    times, values, p: float, abscissa: str, window: tuple[float, float]
) -> RateFit:
    """Fit ``log(value)`` linearly in the chosen abscissa over ``window``.

    The series must be strictly positive inside the window and leave at least
    three points there.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("times and values must be aligned 1-d arrays")
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


def _first_sample(times: np.ndarray, t_start) -> np.ndarray:
    """Per row of ``times``, the index of its first sample at or past ``t_start``
    (one value, or one per row), allowing ``1e-12`` of relative rounding."""
    t_start = np.asarray(t_start, dtype=float)
    # an infinite start (a decay monitor's ``T`` as p -> 0) cuts off every sample
    cut = t_start - 1e-12 * np.clip(t_start, 1.0, np.finfo(float).max)
    return (times < cut[..., None]).sum(axis=-1)


def _argmin_from(slack: np.ndarray, first) -> np.ndarray:
    """Per row of ``slack``, the index of its least value at or after
    ``first`` (one index, or one per row), the first of any tie: the source
    of every slope, sandwich, pointwise and lemma check's worst sample."""
    first = np.reshape(first, (-1, 1))
    later = np.where(np.arange(slack.shape[1]) < first, np.inf, slack)
    # a row's least value is at or after its first index, also when it is +inf
    return np.maximum(np.argmin(later, axis=1), first[:, 0])


def _slope_check(
    name: str,
    times: np.ndarray,
    values: np.ndarray,
    rhs: np.ndarray,
    tol: float,
    params: dict[str, Any] | Sequence[dict[str, Any]],
    t_start: float | np.ndarray = 0.0,
) -> CheckReport | list[CheckReport]:
    """Forward-difference transcription of ``X' <= rhs`` for ``t >= t_start``.

    One series gives one report; ``(members, samples)`` rows give one report
    per row, with ``params`` and ``t_start`` per row, each bit for bit the
    report of its row alone.
    """
    t, x, r = (np.asarray(a, dtype=float) for a in (times, values, rhs))
    if t.ndim == 1:
        return _slope_check(name, t[None], x[None], r[None], tol, [params], t_start)[0]
    start = np.broadcast_to(_first_sample(t, t_start), t.shape[:1])
    intervals = t.shape[1] - 1
    slopes = np.diff(x, axis=1) / np.diff(t, axis=1)
    slack = (np.maximum(r[:, :-1], r[:, 1:]) - slopes) / (1.0 + np.abs(x[:, :-1]))
    worst = _argmin_from(slack, start) if intervals else start
    return [
        _report(name, slack[row, i], t[row, i], tol, dict(p, intervals=int(intervals - first)))
        if first < intervals
        else _report(name, 0.0, t[row, -1], tol, dict(p, intervals=0))
        for row, (first, i, p) in enumerate(zip(start, worst, params))
    ]


def hyperbolic_series(traj: Trajectory, lp: en.LyapunovParams) -> dict[str, np.ndarray]:
    """Pointwise energy columns of a second-order run, in CSV column order."""
    u, v, c, eps, op = traj.u, traj.v, traj.c_trace, traj.eps, traj.op
    return {
        "gamma": en.gamma_eps(u, v, eps, op),
        "E": en.energy_E(u, v, eps, c, op),
        "F": en.energy_F(u, v, traj.times, eps, c, op, lp),
        "G": sobolev_norm_sq(op, v, 0.0),
    }


def parabolic_gamma_series(traj: Trajectory) -> np.ndarray:
    """First-order-run energy ``|u|^2+|A^(1/2)u|^2+|Au|^2+(1+t)^(-2p)|u'|^2``."""
    w = (1.0 + traj.times) ** (-2.0 * traj.p)
    return en._h2_norm_sq(traj.op, traj.u) + w * sobolev_norm_sq(traj.op, traj.velocity(), 0.0)


def _series(traj: Trajectory, **series) -> list[np.ndarray]:
    """The given series as float arrays; ValueError unless each has one value per sample."""
    out = [np.asarray(values, dtype=float) for values in series.values()]
    for name, arr in zip(series, out):
        if arr.shape != traj.times.shape:
            raise ValueError(f"{name} must hold one value per sample, got shape {arr.shape}")
    return out


def check_energy_monotone(traj: Trajectory, E) -> CheckReport:
    """Monitor ``E' <= 0`` discretely along a second-order run's ``E`` series."""
    if traj.kind != "hyperbolic":
        raise ValueError("energy monotonicity applies to hyperbolic runs")
    (E,) = _series(traj, E=E)
    return _slope_check(
        "energy_monotone",
        traj.times,
        E,
        np.zeros_like(E),
        10.0 * traj.rel_tol,
        {"eps": traj.eps, "p": traj.p},
    )


def check_energy_sandwich(traj: Trajectory, E, F, lp: en.LyapunovParams) -> list[CheckReport]:
    """Two-sided equivalence for the run's ``E`` and the lower bound for its ``F``.

    The comparison weight is ``eps|u'|^2 + |A^(1/2)u|^2``; constants come from
    the run's measured coefficient supremum (with 1% headroom) and the mass
    infimum.  The ``F`` lower bound is expected to fail for large ``eps`` and
    is reported, never raised.
    """
    if traj.kind != "hyperbolic":
        raise ValueError("sandwich checks apply to hyperbolic runs")
    E, F = _series(traj, E=E, F=F)
    eps = traj.eps
    c_sup = 1.01 * float(np.max(traj.c_trace))
    k_lo, k_hi, k_lo_F = en.equivalence_constants(mass_inf(traj.mass), c_sup)
    base = en.energy_E(traj.u, traj.v, eps, 1.0, traj.op)
    scale = 1.0 + base
    tol = 10.0 * traj.rel_tol
    lo_slack = (E - k_lo * base) / scale
    hi_slack = (k_hi * base - E) / scale
    slack = np.minimum(lo_slack, hi_slack)
    f_slack = (F - k_lo_F * base) / scale
    worst, worst_F = _argmin_from(np.stack([slack, f_slack]), 0)
    return [
        _report("sandwich_E", slack[worst], traj.times[worst], tol,
                {"eps": eps, "k_lower": k_lo, "k_upper": k_hi, "c_sup": c_sup}),
        _report("sandwich_F", f_slack[worst_F], traj.times[worst_F], tol,
                {"eps": eps, "k_lower": k_lo_F, "c_sup": c_sup, "delta": lp.delta}),
    ]


def assemble_psi3(
    traj: Trajectory,
    rho: np.ndarray,
    theta_prime: np.ndarray,
    g: np.ndarray,
    lp: en.LyapunovParams,
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
    c, eps, op = traj.c_trace, traj.eps, traj.op
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


def residual_series(traj_eps: Trajectory, traj_parabolic: Trajectory) -> np.ndarray:
    """Defect ``g = -(c_eps - c) Au - eps u''`` of the limit solution in the
    second-order equation, one row per sample; ``c_eps`` and ``c`` are the
    runs' coefficient traces, and ``u''`` is chained from the limit equation
    with ``c'`` of ``coefficient_derivative``:
    ``u'' = -p(1+t)^(p-1) c Au - (1+t)^p c' Au + (1+t)^(2p) c^2 A^2 u``.
    """
    if not np.array_equal(traj_eps.times, traj_parabolic.times):
        raise ValueError("trajectories must share the sample grid")
    par = traj_parabolic
    lam, p = par.op.eigenvalues, par.p
    one_t = 1.0 + par.times[:, None]
    c = par.c_trace[:, None]
    au = lam * par.u
    g = -(one_t**p) * coefficient_derivative(par)[:, None] * au
    if p != 0.0:
        g += -p * one_t ** (p - 1.0) * c * au
    g += one_t ** (2.0 * p) * c * c * lam * au
    g *= -traj_eps.eps
    g -= (traj_eps.c_trace[:, None] - c) * au
    return g


def check_lyapunov_decay(
    traj: Trajectory, lp: en.LyapunovParams, F, psi3=None
) -> CheckReport:
    """Discrete monitor of the Lyapunov decay inequality for ``t >= lp.T``.

    Without ``psi3`` it checks ``F' <= -beta (1+t)^(-p) F`` for the run's
    ``F`` series (``lyapunov_decay_F``).  With ``psi3`` it checks the
    remainder version, the same inequality for the ``F`` series of
    ``(rho, r')`` with forcing ``psi3`` (``lyapunov_decay_script_F``), which
    needs perturbation-case ``lp``.
    """
    if traj.kind != "hyperbolic":
        raise ValueError("Lyapunov monitors apply to hyperbolic runs")
    (F,) = _series(traj, F=F)
    t = traj.times
    w = (1.0 + t) ** (-lp.p)
    # the right-hand side where the monitor reads it, from the sample at T on:
    # before T a large beta may overflow it, and nothing reads it there
    first = int(_first_sample(t, lp.T))
    rhs = np.zeros_like(F)
    rhs[first:] = -lp.beta * w[first:] * F[first:]
    name = "lyapunov_decay_F"
    if psi3 is not None:
        if lp.sigma is None:
            raise ValueError("the remainder form needs perturbation-case parameters")
        rhs[first:] += _series(traj, psi3=psi3)[0][first:]
        name = "lyapunov_decay_script_F"
    return _slope_check(
        name,
        t,
        F,
        rhs,
        10.0 * traj.rel_tol,
        {"eps": traj.eps, "beta": lp.beta, "delta": lp.delta, "T": lp.T, "p": lp.p},
        t_start=lp.T,
    )


# ---------------------------------------------------------------------------
# comparison lemmas


def _grid_integral(t: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """Trapezoid rule: a float for one series, an array for ``(members, samples)`` rows."""
    out = np.trapezoid(y, t, axis=-1)
    return float(out) if out.ndim == 0 else out


# The series each comparison lemma bounds, by kind: its hypothesis is a
# differential inequality for that series, and the equality ODE below is the
# extremal case the synthetic instances integrate.
LEMMA_SERIES = {"lemma32": "G", "lemma33": "E", "lemma34": "F"}


def _lemma32_rate(t, G, eps, K_over_eps, p, phi_vals):
    """``G' = -G/(eps (1+t)^p) + (K/eps)(1+t)^p Phi``."""
    w = (1.0 + t) ** p
    return -G / (eps * w) + K_over_eps * w * phi_vals


def _lemma33_rate(E, psi1, psi2):
    """``E' = psi1 sqrt(E) + psi2``."""
    return psi1 * np.sqrt(np.maximum(E, 0.0)) + psi2


def _lemma34_rate(t, F, beta, p, psi_vals):
    """``F' = -beta (1+t)^(-p) F + psi``."""
    return -beta * F / (1.0 + t) ** p + psi_vals


def check_comparison_lemma(
    kind: str, instances: Sequence[Mapping[str, Any]]
) -> list[CheckReport]:
    """Verify one comparison lemma's conclusion on sampled instances of it.

    ``instances`` holds one kind's inputs, all with the same number of
    samples.  Keys by kind (all series aligned with ``times``):

    - ``lemma32``: ``times, G, eps, K, beta, p``; hypothesis
      ``G' <= -G/(eps (1+t)^p) + (K/eps)(1+t)^p Phi`` (needs ``2 eps beta <= 1``),
      conclusion ``G <= (2K + G(0)) (1+t)^(2p) Phi``.
    - ``lemma33``: ``times, E, psi1, psi2``; hypothesis ``E' <= psi1 sqrt(E) +
      psi2`` with ``E(0) = 0``, conclusion ``E <= K1^2 + 2 K2`` with ``K1``,
      ``K2`` the integrals of ``psi1``, ``psi2`` by the trapezoid rule on
      ``times``.
    - ``lemma34``: ``times, F, psi, T, beta, p``; hypothesis
      ``F' <= -beta (1+t)^(-p) F + psi`` for ``t >= T``, conclusion
      ``F <= (F(T)/Phi(T) + int psi/Phi) Phi`` with the integral taken by the
      trapezoid rule on ``times``; ``T`` may not lie past the last sample.

    Returns one report per instance, in order, each bit for bit the report
    of its instance checked alone.  Instances of one ``p`` are checked
    ``_ROW_BLOCK`` at a time as ``(members, samples)`` arrays, so that
    every power of ``1+t`` takes ``p`` as a float: numpy computes ``x ** 0.5``
    and ``x ** 2.0`` by shortcuts that an array of exponents skips.  A
    violated hypothesis yields a failing report with
    ``params["failure_kind"] = "hypothesis"``, distinct from a conclusion
    failure.  The slack tolerance is 1e-8.
    """
    if kind not in LEMMA_SERIES:
        raise ValueError(f"unknown lemma kind {kind!r}")
    if isinstance(instances, Mapping) or not instances:
        raise ValueError("need a sequence of at least one instance")
    size = np.shape(instances[0]["times"])
    groups: dict[Any, list[int]] = {}
    for i, inst in enumerate(instances):
        groups.setdefault(inst.get("p"), []).append(i)
    reports: list[Any] = [None] * len(instances)
    for members in groups.values():
        for first in range(0, len(members), _ROW_BLOCK):
            block = members[first : first + _ROW_BLOCK]
            block_reports = _check_lemma_block(kind, [instances[i] for i in block], size)
            for i, rep in zip(block, block_reports):
                reports[i] = rep
    return reports


# Lemma instances whose series are made or checked in one set of array
# operations.  Each (instances, samples) temporary holds 38 KB at 600
# samples.  Checking 25 at a time raised the lemmas run's peak RSS by
# 0.5 MB and all 100 by 5 MB; making all 100 series at once, by 3.4 MB.
_ROW_BLOCK = 8


def _check_lemma_block(
    kind: str, instances: list[Mapping[str, Any]], size: tuple[int, ...]
) -> list[CheckReport]:
    """``check_comparison_lemma`` on instances of one ``p`` whose series have the shape ``size``."""
    name = f"comparison_{kind}"
    tol = 1e-8

    def rows(key: str) -> np.ndarray:
        out = [np.asarray(inst[key], dtype=float) for inst in instances]
        if any(row.shape != size for row in out):
            raise ValueError(f"every instance's {key} must have the shape {size} of the first times")
        return np.stack(out)

    def scalars(*keys: str) -> list[dict[str, float]]:
        return [{key: float(inst[key]) for key in keys} for inst in instances]

    def column(key: str) -> np.ndarray:
        return np.array([[float(inst[key])] for inst in instances])

    t = rows("times")
    y = rows(LEMMA_SERIES[kind])
    if kind == "lemma32":
        eps, K, beta = column("eps"), column("K"), column("beta")
        p = float(instances[0]["p"])
        if np.any(eps <= 0) or np.any(K < 0):
            raise ValueError("need eps > 0 and K >= 0")
        if np.any(2.0 * eps * beta > 1.0):
            raise ValueError("lemma32 requires 2*eps*beta <= 1")
        phi_vals = en.phi(beta, p, t)
        params = scalars("eps", "K", "beta", "p")
        hyp = _slope_check(name, t, y, _lemma32_rate(t, y, eps, K / eps, p, phi_vals), tol, params)

        def conclusion(ok):
            bound = (2.0 * K[ok] + y[ok, :1]) * (1.0 + t[ok]) ** (2.0 * p) * phi_vals[ok]
            slack = (bound - y[ok]) / np.maximum(bound, _TINY)
            at_0 = bound[:, 0].tolist()
            return slack, 0, [dict(params[i], bound_at_0=b) for i, b in zip(ok, at_0)]

    elif kind == "lemma33":
        psi1, psi2 = rows("psi1"), rows("psi2")
        if np.any(psi1 < 0) or np.any(psi2 < 0):
            raise ValueError("psi1 and psi2 must be nonnegative")
        # only the instances that start at E(0) = 0 get the slope test
        off = np.abs(y[:, 0]) > tol
        on = ~off
        rate = _lemma33_rate(y[on], psi1[on], psi2[on])
        slopes = iter(_slope_check(name, t[on], y[on], rate, tol, [{}] * int(on.sum())))
        hyp = [
            _report(name, -abs(float(y0)), float(t0), tol, {"reason": "E(0) != 0"})
            if y0_off else next(slopes)
            for y0_off, y0, t0 in zip(off, y[:, 0], t[:, 0])
        ]

        def conclusion(ok):
            K1 = _grid_integral(t[ok], psi1[ok])
            K2 = _grid_integral(t[ok], psi2[ok])
            bound = K1 * K1 + 2.0 * K2
            slack = (bound[:, None] - y[ok]) / np.maximum(bound, _TINY)[:, None]
            values = zip(K1.tolist(), K2.tolist(), bound.tolist())
            return slack, 0, [{"K1": k1, "K2": k2, "bound": b} for k1, k2, b in values]

    else:
        psi = rows("psi")
        T, beta = column("T"), column("beta")
        p = float(instances[0]["p"])
        if np.any(psi < 0):
            raise ValueError("psi must be nonnegative")
        start = _first_sample(t, T[:, 0])
        if np.any(start == t.shape[1]):
            raise ValueError("T must not lie past the last sample")
        phi_vals = en.phi(beta, p, t)
        params = scalars("beta", "p", "T")
        rhs = _lemma34_rate(t, y, beta, p, psi)
        hyp = _slope_check(name, t, y, rhs, tol, params, t_start=T[:, 0])

        def conclusion(ok):
            integral = _grid_integral(t[ok], psi[ok] / phi_vals[ok])
            first = start[ok]
            const = y[ok, first] / phi_vals[ok, first] + integral
            bound = const[:, None] * phi_vals[ok]
            slack = (bound - y[ok]) / np.maximum(np.abs(bound), _TINY)
            return slack, first, [dict(params[i], bound_constant=c) for i, c in zip(ok, const.tolist())]

    reports = list(hyp)
    ok = np.array([i for i, rep in enumerate(hyp) if rep.passed], dtype=int)
    if ok.size:
        slack, first, params = conclusion(ok)
        worst = _argmin_from(slack, first)
        for row, (i, j, row_params) in enumerate(zip(ok, worst, params)):
            reports[i] = _report(name, slack[row, j], t[i, j], tol, row_params)
    for rep, hyp_rep in zip(reports, hyp):
        if not rep.passed:
            rep.params["failure_kind"] = "conclusion" if hyp_rep.passed else "hypothesis"
    return reports


def _draw_lemma_params(kind: str, rng: np.random.Generator) -> dict[str, float]:
    """One instance's parameters, drawn in a fixed order; ``y0`` starts the ODE."""
    d = {
        "p": float(rng.choice([0.0, 0.3, 0.5, 0.7, 1.0])),
        "t_end": float(rng.uniform(4.0, 12.0)),
        "shrink": float(rng.uniform(0.0, 0.4)),
    }
    if kind == "lemma32":
        beta = float(rng.uniform(0.2, 1.5))
        d.update(
            beta=beta,
            eps=float(rng.uniform(0.05, 0.5 / beta * 0.9)),
            K=float(rng.uniform(0.0, 4.0)),
            y0=float(rng.uniform(0.0, 3.0)),
        )
    elif kind == "lemma33":
        d.update(
            a1=float(rng.uniform(0.0, 2.0)),
            b1=float(rng.uniform(0.3, 2.0)),
            a2=float(rng.uniform(0.0, 2.0)),
            b2=float(rng.uniform(0.3, 2.0)),
            k1=float(rng.uniform(2.0, 4.0)),
            y0=0.0,
        )
    elif kind == "lemma34":
        beta = float(rng.uniform(0.3, 2.0))
        d.update(
            beta=beta,
            beta_fast=beta + float(rng.uniform(0.5, 2.0)) + (1.0 if d["p"] == 1.0 else 0.0),
            q=float(rng.uniform(0.1, 3.0)),
            T=float(rng.uniform(0.0, 1.5)),
            # Integrate from t = 0 with a start value reaching F(T) = FT; the
            # hypothesis is only required for t >= T, so the early part is free.
            y0=float(rng.uniform(0.0, 2.0)),
            extra=float(rng.uniform(0.0, 0.5)),
        )
    else:
        raise ValueError(f"unknown lemma kind {kind!r}")
    return d


def _lemma33_forcing(a1, b1, a2, b2, k1):
    """``t -> (psi1, psi2)``, lemma33's forcing; ``-b1`` and ``-b2`` are taken once."""
    neg_b1, neg_b2 = -b1, -b2

    def forcing(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return a1 * np.exp(neg_b1 * t) + 0.3 / (1.0 + t) ** k1, a2 * np.exp(neg_b2 * t)

    return forcing


# The sample intervals of a linear lemma instance whose steps are computed together
_MARCH_BLOCK = 8


def _linear_lemma_samples(y0, times, p, rate, coef, growth, decay) -> np.ndarray:
    """``(samples, members)`` values of
    ``y' = -rate (1+t)^(-p) y + coef (1+t)^growth exp(-decay W(t))``, ``W`` the
    weight integral, on each member's row of ``times``.

    With ``A = rate W`` the integral of the decay rate, each interval is the
    exact variation-of-constants step
    ``y_{i+1} = d_i y_i + I_i``, ``d_i = e^{-(A_{i+1} - A_i)}`` and
    ``I_i = int_{t_i}^{t_{i+1}} e^{-(A_{i+1} - A(s))} b(s) ds``;
    the integral is taken by the Gauss-Legendre rule with the two exponents
    in one ``exp``.  The parameters are ``(members, 1)`` columns.  ``d_i``
    and ``I_i`` are computed for ``_MARCH_BLOCK`` intervals at a time, whose
    ``(members, intervals, nodes + 1)`` temporaries hold 58 KB at 100
    members, and the recurrence then takes two operations per interval.
    Every operation is elementwise or sums one interval's nodes, so each
    member's bits depend neither on the others nor on the block size.
    """
    p, rate, coef, growth, decay = (np.asarray(a)[..., None] for a in (p, rate, coef, growth, decay))
    weight = en._weight_fn(p)
    Y = np.empty((times.shape[1], times.shape[0]))
    Y[0] = y0
    W0 = weight(times[:, :1, None])[..., 0]
    for first in range(1, times.shape[1], _MARCH_BLOCK):
        last = min(first + _MARCH_BLOCK, times.shape[1])
        t0, t1 = times[:, first - 1 : last - 1, None], times[:, first:last, None]
        h = t1 - t0
        s = t0 + h * _GL_NODES
        W = weight(np.concatenate((s, t1), axis=2))
        Ws, W1 = W[..., :-1], W[..., -1:]
        integrand = np.exp(growth * np.log1p(s) - decay * Ws - rate * (W1 - Ws))
        forced = (coef * h * (integrand * _GL_WEIGHTS).sum(axis=2, keepdims=True))[..., 0].T
        W1 = W1[..., 0]
        decays = np.exp(-rate[..., 0] * (W1 - np.concatenate((W0, W1[:, :-1]), axis=1))).T
        for k, i in enumerate(range(first, last)):
            np.multiply(decays[k], Y[i - 1], out=Y[i])
            Y[i] += forced[k]
        W0 = W1[:, -1:]
    return Y


def synthetic_lemma_instances(
    kind: str, rng: np.random.Generator, count: int
) -> list[dict[str, Any]]:
    """``count`` random inputs whose hypotheses hold by construction.

    Each instance solves the lemma's equality ODE (the extremal
    subsolution) to near rounding, optionally shrinks it by a decreasing
    factor (still a subsolution), and for lemma34 may add slack to ``psi``
    (enlarging the admitted forcing keeps the hypothesis true).

    Parameters are drawn instance after instance, so a given ``rng`` state
    yields the same instances however ``count`` splits them.  Instance ``i``
    is sampled at ``times = t_end_i * tau`` on the shared grid
    ``tau = linspace(0, 1, 600)``.

    - lemma32 and lemma34 are linear, ``y' = -a(t) y + b(t)`` with ``int a``
      in closed form (``W/eps`` and ``beta W``, ``W`` the weight integral):
      all instances march the grid together by the exact
      variation-of-constants step, with each interval's forcing integral
      taken by 8-point Gauss-Legendre.  ``"steps"`` is
      ``{"intervals": 599, "nodes": 8}``.
    - lemma33, ``E' = psi1 sqrt(E) + psi2``, is not linear: all instances are
      integrated as one system of ``count`` components (one row of
      ``solve_to_grid``'s batch) in normalized time
      ``tau = t/t_end``, as ``dy/dtau = t_end f(tau t_end, y)``.  Its error
      control is normwise over the instances, at ``rel_tol`` 1e-12 and
      ``abs_tol`` 1e-20, which also holds the start ``E(0) = 0``, where the
      ODE is not Lipschitz.  Every sample after the first is within 5.6e-11
      of a DOP853 solve of its instance alone (100 instances, seeds 0-11),
      and a lone instance is within 7.5e-11 of the same instance solved
      among 24 others (seed 99).  Every instance records the solve's
      statistics under ``"steps"``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    draws = [_draw_lemma_params(kind, rng) for _ in range(count)]
    par = {key: np.array([d[key] for d in draws]) for key in draws[0]}
    col = {key: value[:, None] for key, value in par.items()}
    tau = np.linspace(0.0, 1.0, 600)

    if kind == "lemma33":
        t_end = par["t_end"]
        forcing = _lemma33_forcing(par["a1"], par["b1"], par["a2"], par["b2"], par["k1"])

        def f(s: Sequence[float], y: np.ndarray) -> np.ndarray:
            return t_end * _lemma33_rate(y, *forcing(s[0] * t_end))

        Y, _, stats = solve_to_grid(f, par["y0"][None], tau, rel_tol=1e-12, abs_tol=1e-20)
        Y, steps = Y[0], asdict(stats.members[0])
    else:
        times = col["t_end"] * tau
        if kind == "lemma32":
            eps = col["eps"]
            rates = (1.0 / eps, col["K"] / eps, col["p"], col["beta"])
        else:
            rates = (col["beta"], col["q"], 0.0, col["beta_fast"])
        Y = _linear_lemma_samples(par["y0"], times, col["p"], *rates)
        steps = {"intervals": tau.size - 1, "nodes": _GL_POINTS}
    instances = []
    for first in range(0, count, _ROW_BLOCK):
        rows = slice(first, first + _ROW_BLOCK)
        c = {key: value[rows] for key, value in col.items()}
        times = c["t_end"] * tau
        series = Y[:, rows].T * np.exp(-c["shrink"] * times)
        if kind == "lemma32":
            fields = [{key: d[key] for key in ("eps", "K", "beta", "p")} for d in draws[rows]]
        elif kind == "lemma33":
            psi1, psi2 = _lemma33_forcing(c["a1"], c["b1"], c["a2"], c["b2"], c["k1"])(times)
            fields = [{"psi1": a, "psi2": b} for a, b in zip(psi1, psi2)]
        else:
            psi = (c["q"] + c["extra"]) * en.phi(c["beta_fast"], c["p"], times)
            fields = [
                {"psi": row, "T": d["T"], "beta": d["beta"], "p": d["p"]}
                for row, d in zip(psi, draws[rows])
            ]
        instances += [
            {"times": t, "steps": steps, LEMMA_SERIES[kind]: y} | more
            for t, y, more in zip(times, series, fields)
        ]
    return instances


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


def _stability_slack(ratio: float, limit: float) -> float:
    """Margin of a ``_stability_ratio`` under ``limit``, relative to it; -1 when infinite."""
    return (limit - ratio) / limit if math.isfinite(ratio) else -1.0


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
    p = traj_parabolic.p
    t = traj_parabolic.times
    c_par = traj_parabolic.c_trace
    M1 = float(np.max(c_par))
    cprime_par = coefficient_derivative(traj_parabolic)
    M2 = float(np.max(np.abs(cprime_par)))
    M3 = {}
    M4 = {}
    M5 = {}
    worst_t = 0.0
    for traj in trajs_eps:
        eps = traj.eps
        if not np.array_equal(traj.times, t):
            raise ValueError("sweep runs must share the parabolic sample grid")
        c_eps = traj.c_trace
        M3[eps] = float(np.max(c_eps))
        cprime = coefficient_derivative(traj)
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
    slack = min(_stability_slack(r, 2.0) for r in ratios.values())
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
    en.require_admissible_beta(beta, p, mu, nu)
    t = np.asarray(times, dtype=float)
    phi_vals = en.phi(beta, p, t)
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
            # int_0^inf z_eps / phi = int_0^inf exp(-(1/eps - beta) W), W the weight integral
            z_val = en.kernel_integral(1.0 / eps - beta, p)
            z_values[eps] = z_val
            z_slacks.append((4.0 * eps - z_val) / (4.0 * eps))
    ratio_I = _stability_ratio(list(I_norm.values()))
    ratio_B = _stability_ratio(list(B_norm.values()))
    slacks = [_stability_slack(ratio_I, 4.0), _stability_slack(ratio_B, 4.0)] + z_slacks
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


def check_optimality(traj: Trajectory, E, gamma) -> CheckReport:
    """Divergence of ``H = E / profile`` for a profile decaying faster than the run.

    The profile follows from the run: for ``p > 0`` the overdamped envelope
    ``psi`` at the limit flow's rate ``gamma_rate(mu, nu, p)``; for ``p = 0``
    the plain ``exp(-2 mu nu t)``, which must decay faster than the rate
    fitted to the run's ``gamma`` (else, or when no rate can be fitted, the
    report fails with ``params["failure_kind"] = "profile"``).  Asserts ``H``
    is eventually increasing with the late minimum in the first half, and
    ``H(t_end) / H(t_end/2) >= 10``.  ``H`` is taken in log space, ``log E``
    minus the closed-form log profile, so a profile below the smallest double
    still gives a verdict.
    """
    if traj.kind != "hyperbolic":
        raise ValueError("optimality applies to hyperbolic runs")
    E, gamma = _series(traj, E=E, gamma=gamma)
    p, eps = traj.p, traj.eps
    mu, nu = mass_inf(traj.mass), traj.op.nu
    t = traj.times
    t_end = float(t[-1])
    tol = 1000.0 * traj.rel_tol
    params: dict[str, Any] = {"eps": eps, "p": p}
    if p > 0.0:
        alpha = float(en.gamma_rate(mu, nu, p))
        log_profile = -alpha * en.growth_integral(p, t)
        params["profile"] = {"form": "psi", "alpha": alpha}
    else:
        beta_hat = 2.0 * mu * nu
        window = default_fit_window(t_end, eps)
        try:
            t_env, v_env = envelope(t, gamma)
            inside = int(np.count_nonzero((t_env >= window[0]) & (t_env <= window[1])))
            if inside < 3:
                # overdamped runs have a single hump; fit the raw series instead
                t_env, v_env = t, gamma
            fitted_rate = float(-fit_decay_exponent(t_env, v_env, p, "t", window).slope)
        except ValueError:  # under three samples in the window, or gamma reaching 0
            fitted_rate = math.nan
        params["profile"] = {"form": "exp", "beta": beta_hat, "fitted_rate": fitted_rate}
        if not beta_hat > fitted_rate:
            # the run outpaces the profile, or its rate is unknown: H cannot
            # witness optimality
            params.update(failure_kind="profile", beta_hat=beta_hat, fitted_rate=fitted_rate)
            return _report("optimality_H", -1.0, window[0], tol, params)
        log_profile = -beta_hat * t

    with np.errstate(divide="ignore"):  # zero energy: log H = -inf
        log_H = np.log(E) - log_profile
    i0 = int(np.argmin(log_H))
    s_half = (0.5 * t_end - float(t[i0])) / (0.5 * t_end)
    # "Eventually increasing" through oscillation: past the global minimum the
    # sequence of local minima of H must be nondecreasing.
    tail = log_H[i0:]
    interior = np.flatnonzero(
        (tail[1:-1] < tail[:-2]) & (tail[1:-1] < tail[2:])
    )
    if interior.size >= 2:
        mins = tail[interior + 1]
        # relative increase from one local minimum to the next; equal minima
        # (two zeros among them) do not increase
        with np.errstate(invalid="ignore"):
            incr = np.where(mins[1:] == mins[:-1], 0.0, np.expm1(np.diff(mins)))
        k = int(np.argmin(incr))
        s_tail = float(incr[k])
        worst_tail_t = float(t[i0 + 1 + int(interior[k + 1])])
    else:
        s_tail = 0.0
        worst_tail_t = float(t[i0])
    i_half = int(np.searchsorted(t, 0.5 * t_end))
    with np.errstate(over="ignore"):  # a ratio past the largest double is inf
        ratio = float(np.exp(log_H[-1] - max(log_H[i_half], math.log(_TINY))))
    s_ratio = ratio / 10.0 - 1.0
    slack = min(s_half, s_tail, s_ratio)
    if slack == s_tail:
        worst_t = worst_tail_t
    elif slack == s_half:
        worst_t = float(t[i0])
    else:
        worst_t = t_end
    params.update(ratio=ratio, minimum_t=float(t[i0]))
    return _report("optimality_H", slack, worst_t, tol, params)


def oscillation_onset(eps: float, p: float, mu_nu: float) -> float:
    """Time at which the damping discriminant ratio ``4 eps mu nu (1+t)^(2p)``
    reaches 2 (``inf`` past double range, as ``p -> 0``).

    Below 1 the flow is locally overdamped (real frozen-coefficient roots);
    the oscillatory amplitude law applies once the ratio is comfortably above
    1, conventionally 2.
    """
    if p <= 0:
        raise ValueError("the onset time applies to p > 0")
    return en._onset(2.0 / (4.0 * eps * mu_nu), p)


def wkb_window_start(eps: float, p: float, mu_nu: float, t_end: float) -> float:
    """Start of the amplitude-law fit window on ``[0, t_end]``: past the boundary
    layer (``50 eps``), the oscillation onset and ``0.4 t_end``.  ValueError
    when that is not before ``0.9 t_end``."""
    onset = oscillation_onset(eps, p, mu_nu)
    lo = max(0.4 * t_end, 50.0 * eps, onset)
    if lo >= 0.9 * t_end:
        raise ValueError(
            f"horizon too short: the oscillatory regime starts near t={onset:.3g}, "
            f"need t_end well past it (got {t_end:.3g})"
        )
    return lo


def wkb_compare(traj: Trajectory) -> CheckReport:
    """Oscillatory amplitude law on a single mode: fitted slope vs ``-1/(eps(1-p))``.

    The envelope is fit on ``|u|`` (the squared-amplitude slope is twice the
    fit, dodging underflow on deep decays) over a window starting past both
    the boundary layer and the overdamped-to-oscillatory transition.  Also
    fits the same envelope against the overdamped abscissa and requires it to
    explain the data strictly worse (r-squared drop of at least 0.05 or a
    drifting slope), confirming the two regimes separate.  When a window
    holds under three envelope points, or ``|u|`` reaches 0 in one, no rate
    can be fitted: the report fails with ``params["failure_kind"] = "fit"``
    and the ``envelope_points`` in the window.
    """
    if traj.kind != "hyperbolic":
        raise ValueError("expected a hyperbolic run")
    eps, p = traj.eps, traj.p
    if not 0.0 < p < 1.0:
        raise ValueError("the amplitude law applies to p in (0, 1)")
    if traj.op.dim != 1:
        raise ValueError("expected a single-mode run")
    mu_nu = mass_inf(traj.mass) * traj.op.nu
    t = traj.times
    t_end = float(t[-1])
    lo = wkb_window_start(eps, p, mu_nu, t_end)
    window = (lo, t_end)
    mid = 0.5 * (lo + t_end)
    params: dict[str, Any] = {"eps": eps, "p": p, "mu_nu": mu_nu, "window": [lo, t_end]}
    points = 0
    try:
        t_env, v_env = envelope(t, np.abs(traj.u[:, 0]))
        points = int(np.count_nonzero((t_env >= lo) & (t_env <= t_end)))
        fit_h = fit_decay_exponent(t_env, v_env, p, "hyperbolic", window)
        fit_p = fit_decay_exponent(t_env, v_env, p, "parabolic", window)
        first = fit_decay_exponent(t_env, v_env, p, "parabolic", (lo, mid))
        second = fit_decay_exponent(t_env, v_env, p, "parabolic", (mid, t_end))
    except ValueError:  # under three samples or envelope points in a window, or |u| at 0
        params.update(failure_kind="fit", envelope_points=points)
        return _report("wkb_amplitude_law", -1.0, t_end, 0.0, params)
    fitted = 2.0 * fit_h.slope
    predicted = -1.0 / (eps * (1.0 - p))
    rel_err = abs(fitted - predicted) / abs(predicted)
    s_fit = (0.15 - rel_err) / 0.15

    drift = abs(first.slope - second.slope) / max(abs(fit_p.slope), _TINY)
    s_r2 = (fit_h.r_squared - fit_p.r_squared - 0.05) / 0.05
    s_drift = (drift - 0.2) / 0.2
    s_spread = max(s_r2, s_drift)
    slack = min(s_fit, s_spread)
    params.update({
        "fitted_slope": fitted,
        "predicted_slope": predicted,
        "r_squared": fit_h.r_squared,
        "overdamped_r_squared": fit_p.r_squared,
        "overdamped_drift": drift,
    })
    return _report("wkb_amplitude_law", slack, t_end, 0.0, params)


def _halving_sweep(eps) -> bool:
    """Whether each value of ``eps`` is twice the next, to 1e-9 relative."""
    return all(abs(a / b - 2.0) < 1e-9 for a, b in zip(eps, eps[1:]))


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
    eps_desc = sorted((float(e) for e in gamma_r_by_eps), reverse=True)
    if len(eps_desc) < 3:
        raise ValueError("the sweep needs at least three eps values")
    if not _halving_sweep(eps_desc):
        raise ValueError("eps values must form a halving (ratio-2) sweep")
    en.require_admissible_beta(beta, p, mu, nu)
    t = np.asarray(times, dtype=float)
    phi_vals = en.phi(beta, p, t)
    sups = [
        float(np.max(np.asarray(gamma_r_by_eps[eps], dtype=float) / (eps**2 * phi_vals)))
        for eps in eps_desc
    ]
    S = dict(zip(eps_desc, sups))
    ratio_sweep = _stability_ratio(sups)
    slacks = [_stability_slack(ratio_sweep, 4.0)]
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
    trajs_eps: list[Trajectory], traj_parabolic: Trajectory
) -> CheckReport:
    """Weighted suprema of the global-existence bounds, stable across the sweep.

    Measures ``sup (1+t)^2 |u'|^2 + (1+t)^(1+p) |A^(1/2)u|^2 +
    (1+t)^(2(1+p)) |Au|^2`` per run; the per-``eps`` values must agree within
    2x.  The limit-flow value ``C_2_2`` is reported alongside.
    """
    if not trajs_eps:
        raise ValueError("need at least one run")

    def weighted_sup(traj: Trajectory) -> float:
        op, p = traj.op, traj.p
        one_t = 1.0 + traj.times
        total = (
            one_t**2 * sobolev_norm_sq(op, traj.velocity(), 0.0)
            + one_t ** (1.0 + p) * sobolev_norm_sq(op, traj.u, 0.5)
            + one_t ** (2.0 * (1.0 + p)) * sobolev_norm_sq(op, traj.u, 1.0)
        )
        return float(np.max(total))

    per_eps = {tr.eps: weighted_sup(tr) for tr in trajs_eps}
    ratio = _stability_ratio(list(per_eps.values()))
    slack = _stability_slack(ratio, 2.0)
    params = {
        "C_2_4": max(per_eps.values()),
        "per_eps": {repr(k): v for k, v in per_eps.items()},
        "sweep_ratio": ratio,
        "C_2_2": weighted_sup(traj_parabolic),
    }
    worst_t = float(trajs_eps[0].times[-1])
    return _report("uniform_decay_weights", slack, worst_t, 0.0, params)


def check_parabolic_pointwise(traj: Trajectory) -> CheckReport:
    """Pointwise overdamped bound with the constant measured at ``t = 0``.

    For constant mass the sharp envelope is
    ``C exp(-gamma (1+t)^(1+p))`` with ``gamma = 2 mu nu/(1+p)``; ``C`` is
    calibrated so the bound is met with 5% headroom at ``t = 0`` and must
    then hold at every sample.  The bound is taken as ``1.05 lhs(0) psi(gamma,
    p, t)``, which needs no ``e^gamma``: the reported ``C`` reads ``inf``
    where that overflows.  Zero data give ``C = 0``, and the flow, 0
    throughout, meets the zero bound with slack 0.
    """
    if traj.kind != "parabolic":
        raise ValueError("expected a parabolic run")
    if not traj.mass.is_constant:
        raise ValueError("the sharp pointwise bound applies to constant mass")
    p, op = traj.p, traj.op
    mu = mass_inf(traj.mass)
    t = traj.times
    lhs = en._h2_norm_sq(op, traj.u)
    g = en.gamma_rate(mu, op.nu, p)
    bound = 1.05 * lhs[0] * en.psi(g, p, t)
    try:
        C = 1.05 * lhs[0] * math.exp(g)
    except OverflowError:  # e^g is past double range; zero data keep C = 0
        C = math.inf if lhs[0] > 0.0 else 0.0
    slack = (bound - lhs) / np.maximum(bound, _TINY)
    (worst,) = _argmin_from(slack[None], 0)
    return _report("parabolic_pointwise_bound", slack[worst], t[worst], 0.0,
                   {"p": p, "C": C, "gamma": g})


def probe_open_problem(
    trajs_eps: list[Trajectory], gamma_by_eps: dict[float, np.ndarray]
) -> dict[str, Any]:
    """Borderline-rate probe at ``p = 0``: is the energy kept in check at the sharp rate?

    For each second-order run (constant mass, ``p = 0``) takes its ``gamma``
    series from ``gamma_by_eps`` and the undamped-rate product
    ``log gamma + 2 mu nu t``, and reports its running maximum over the first
    and the whole horizon, flagging growth.  Purely informational: the answer
    at the sharp rate is not known, so no pass/fail is attached.
    """
    if not trajs_eps:
        raise ValueError("need at least one hyperbolic run")
    results = {}
    for traj in sorted(trajs_eps, key=lambda tr: tr.eps):
        if not traj.mass.is_constant:
            raise ValueError("the probe runs with constant mass")
        if traj.p != 0.0:
            raise ValueError("the probe runs at p = 0")
        mu_nu = mass_inf(traj.mass) * traj.op.nu
        (series,) = _series(traj, gamma=gamma_by_eps[traj.eps])
        t = traj.times
        positive = series > 0.0
        logs = np.full(t.size, -math.inf)
        logs[positive] = np.log(series[positive]) + 2.0 * mu_nu * t[positive]
        half = int(t.size // 2)
        sup_half = float(np.max(logs[:half]))
        sup_full = float(np.max(logs))
        results[repr(traj.eps)] = {
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
