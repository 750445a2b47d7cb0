"""Time integration of the damped flows plus their closed-form companions.

Two flows are realized in the eigenbasis: the second-order one,

    eps u'' + (1+t)^(-p) u' + m(|A^(1/2)u|^2) A u = 0,

and its first-order limit

    u' = -(1+t)^p m(|A^(1/2)u|^2) A u.

Both decouple mode-by-mode except for the scalar coupling through
``|A^(1/2)u|^2``.  The integrator resolves the fast oscillation of the
second-order flow with a state-dependent step cap; sampled values land on a
uniform grid exactly (no interpolation).  Derivatives of the first-order flow
(``u'``, ``u''``) are always recomputed from the equation, never finite
differenced, since the residual diagnostics are sensitive to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.integrate import quad

from ._rk import IntegrationError, StepStats, solve_to_grid
from .energies import gamma_eps, growth_integral, weight_integral, z_eps
from .spectral import (
    MassFunction,
    SpectralOperator,
    as_states,
    as_vector,
    m_eval,
    m_prime,
    mass_inf,
    sobolev_norm_sq,
)

__all__ = [
    "Trajectory",
    "IntegratorConfig",
    "IntegrationError",
    "hyperbolic_rhs",
    "parabolic_rhs",
    "integrate",
    "parabolic_closed_form",
    "theta0",
    "corrector",
    "corrector_series",
    "coefficient_derivative",
    "parabolic_second_derivative",
    "residual_g",
    "remainders",
    "hyperbolic_log_energy",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-control knobs.

    ``abs_tol`` defaults to 1e-300, which makes the normwise error control
    purely relative in practice: solutions here decay through hundreds of
    decades and any ordinary absolute floor would eventually let phase errors
    grow unchecked once the state dips below it.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-300
    max_step: float = math.inf
    oscillation_safety: float = 0.2

    def __post_init__(self) -> None:
        if not self.rel_tol > 0 or not self.abs_tol > 0:
            raise ValueError("tolerances must be positive")
        if self.rel_tol > 1e-3 or self.abs_tol > 1e-3:
            raise ValueError("tolerances must be <= 1e-3")
        if not self.max_step > 0:
            raise ValueError("max_step must be positive")
        if not self.oscillation_safety > 0:
            raise ValueError("oscillation_safety must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Sampled run of one flow: state arrays, coefficient trace, provenance.

    ``u`` (and ``v`` for the second-order flow) have one row per sample time;
    ``c_trace[i] = m(|A^(1/2)u(t_i)|^2)`` is recomputed at the samples, never
    interpolated.  ``meta`` records p, eps (second-order only), the operator,
    the mass function, and the integrator tolerances that produced the run.
    """

    kind: str  # "hyperbolic" | "parabolic"
    times: np.ndarray
    u: np.ndarray
    v: np.ndarray | None
    c_trace: np.ndarray
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("hyperbolic", "parabolic"):
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        times = np.asarray(self.times, dtype=float)
        u = np.asarray(self.u, dtype=float)
        c = np.asarray(self.c_trace, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("times must hold at least two samples")
        if times[0] != 0.0:
            raise ValueError("sample grid must start at 0")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if u.ndim != 2 or u.shape[0] != times.size:
            raise ValueError("u must be a (samples, modes) array")
        if c.shape != times.shape:
            raise ValueError("c_trace must align with times")
        if self.kind == "hyperbolic":
            if self.v is None:
                raise ValueError("hyperbolic trajectories carry v = u'")
            v = np.asarray(self.v, dtype=float)
            if v.shape != u.shape:
                raise ValueError("v must align with u")
            object.__setattr__(self, "v", v)
        elif self.v is not None:
            raise ValueError("parabolic trajectories carry no v")
        mass = self.meta.get("mass")
        if isinstance(mass, MassFunction) and c.size and float(np.min(c)) < mass_inf(mass):
            raise ValueError("coefficient trace dips below the mass infimum")
        for arr in (times, u, c):
            arr.setflags(write=False)
        if self.kind == "hyperbolic":
            self.v.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "c_trace", c)

    @property
    def n_samples(self) -> int:
        return int(self.times.size)

    def velocity(self, op: SpectralOperator) -> np.ndarray:
        """``u'`` at every sample: stored for the second-order flow, recomputed
        from the first-order equation (with the coefficient trace) otherwise."""
        if self.kind == "hyperbolic":
            return self.v
        return _parabolic_velocity(
            self.times[:, None], self.u, self.c_trace[:, None], op.eigenvalues, self.meta["p"]
        )


def _at_sigma(fn, m: MassFunction, lam: np.ndarray, u: np.ndarray):
    """``fn(m, |A^(1/2)u|^2)`` of one state, or an ``(n,)`` array over the rows of ``u``.

    ``fn`` is ``m_eval`` or ``m_prime``; they stay scalar functions, so rows
    go through a comprehension over the ``sigma`` array.
    """
    sigma = (u * u) @ lam
    if u.ndim == 1:
        return fn(m, float(sigma))
    return np.array([fn(m, s) for s in sigma.tolist()])


def _column(x, u: np.ndarray):
    """A scalar as is, an ``(n,)`` series as an ``(n, 1)`` column against the rows of ``u``."""
    x = np.asarray(x, dtype=float)
    return x[:, None] if x.ndim == 1 and u.ndim == 2 else x


def _parabolic_velocity(t, u, c, lam: np.ndarray, p: float):
    """First-order flow ``u' = -(1+t)^p c A u``; ``t`` and ``c`` scalars or ``(n, 1)`` columns."""
    return -((1.0 + t) ** p) * c * lam * u


def _hyperbolic_acceleration(t, u, v, c, lam: np.ndarray, eps: float, p: float):
    """Second-order flow ``u'' = -((1+t)^(-p) u' + c A u)/eps``, row-wise like ``_parabolic_velocity``."""
    w = (1.0 + t) ** (-p)
    return -(w * v + c * lam * u) / eps


def _parabolic_acceleration(t, u: np.ndarray, m: MassFunction, lam: np.ndarray, p: float):
    """``(c, u'')`` of first-order states by analytic chaining; one state or ``(n, K)`` rows.

    ``u'' = -p(1+t)^(p-1) c Au - (1+t)^p c' Au + (1+t)^(2p) c^2 A^2 u`` with
    ``c = m(|A^(1/2)u|^2)`` and ``c' = 2 m'(|A^(1/2)u|^2) <Au, u'>``.
    """
    t = _column(t, u)
    c = _column(_at_sigma(m_eval, m, lam, u), u)
    dm = _column(_at_sigma(m_prime, m, lam, u), u)
    au = lam * u
    uprime = _parabolic_velocity(t, u, c, lam, p)
    c_prime = 2.0 * dm * (au * uprime).sum(axis=-1, keepdims=True)
    one_t = 1.0 + t
    first = -p * one_t ** (p - 1.0) * c * au if p != 0.0 else np.zeros_like(au)
    second = -(one_t**p) * c_prime * au
    third = one_t ** (2.0 * p) * c * c * lam * au
    return c, first + second + third


def _require_finite(x: np.ndarray, t) -> None:
    bad = ~np.isfinite(x).all(axis=-1)
    if np.any(bad):
        t_bad = np.broadcast_to(np.asarray(t, dtype=float), bad.shape)[bad]
        raise IntegrationError(f"nonfinite right-hand side at t={float(t_bad[0]):.6g}")


def hyperbolic_rhs(
    t,
    u,
    v,
    eps: float,
    p: float,
    op: SpectralOperator,
    m: MassFunction,
) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side of the second-order flow as a first-order system.

    ``du = v`` and ``dv_k = -[(1+t)^(-p) v_k + m(|A^(1/2)u|^2) lambda_k u_k]/eps``
    for one state or for ``(n, K)`` rows with ``(n,)`` times.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    u = as_states(u, op)
    v = as_states(v, op)
    if u.shape != v.shape:
        raise ValueError("u and v must have the same shape")
    lam = op.eigenvalues
    c = _column(_at_sigma(m_eval, m, lam, u), u)
    dv = _hyperbolic_acceleration(_column(t, u), u, v, c, lam, eps, p)
    _require_finite(dv, t)
    return v.copy(), dv


def parabolic_rhs(t, u, p: float, op: SpectralOperator, m: MassFunction) -> np.ndarray:
    """First-order flow: ``du_k = -(1+t)^p m(|A^(1/2)u|^2) lambda_k u_k`` (any p >= 0).

    One state, or ``(n, K)`` rows with ``(n,)`` times.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    u = as_states(u, op)
    lam = op.eigenvalues
    c = _column(_at_sigma(m_eval, m, lam, u), u)
    du = _parabolic_velocity(_column(t, u), u, c, lam, p)
    _require_finite(du, t)
    return du


def _hyperbolic_cap(
    op: SpectralOperator, m: MassFunction, eps: float, safety: float
):
    """Step ceiling resolving the fastest oscillation, with a running coefficient max.

    The fastest mode oscillates at ``sqrt(lambda_K c / eps)``; the cap keeps
    ``safety`` of a period per step and tightens monotonically as the running
    max of ``c`` grows.
    """
    lam = op.eigenvalues
    lam_max = op.lambda_max
    state = {"c_sup": mass_inf(m)}

    def cap(t: float, y: np.ndarray) -> float:
        c = _at_sigma(m_eval, m, lam, y[: lam.size])
        if c > state["c_sup"]:
            state["c_sup"] = c
        return safety * 2.0 * math.pi * math.sqrt(eps / (lam_max * state["c_sup"]))

    return cap


def integrate(
    problem: str,
    y0,
    t_end: float,
    sample_count: int,
    cfg: IntegratorConfig,
    op: SpectralOperator,
    m: MassFunction,
    p: float,
    eps: float | None = None,
) -> Trajectory:
    """Run one flow on the uniform grid ``linspace(0, t_end, sample_count)``.

    ``problem`` is ``"hyperbolic"`` (pass ``eps``; ``y0 = (u0, u1)``) or
    ``"parabolic"`` (``y0 = u0``).  Raises :class:`IntegrationError` when step
    control cannot continue; contract violations raise ``ValueError``.
    """
    if t_end <= 0:
        raise ValueError("t_end must be > 0")
    if sample_count < 2:
        raise ValueError("sample_count must be >= 2")
    times = np.linspace(0.0, float(t_end), int(sample_count))
    K = op.dim

    if problem == "hyperbolic":
        if eps is None or eps <= 0:
            raise ValueError("hyperbolic runs need eps > 0")
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        u0, u1 = y0
        flat0 = np.concatenate([as_vector(u0, op), as_vector(u1, op)])
        lam = op.eigenvalues

        def f(t: float, y: np.ndarray) -> np.ndarray:
            u = y[:K]
            v = y[K:]
            c = _at_sigma(m_eval, m, lam, u)
            return np.concatenate([v, _hyperbolic_acceleration(t, u, v, c, lam, eps, p)])

        Y, _, _ = solve_to_grid(
            f,
            flat0,
            times,
            rel_tol=cfg.rel_tol,
            abs_tol=cfg.abs_tol,
            max_step=cfg.max_step,
            step_cap_fn=_hyperbolic_cap(op, m, eps, cfg.oscillation_safety),
        )
        u = Y[:, :K]
        v = Y[:, K:]
        c_trace = _at_sigma(m_eval, m, lam, u)
        meta = {
            "p": p,
            "eps": eps,
            "operator": op,
            "mass": m,
            "rel_tol": cfg.rel_tol,
            "abs_tol": cfg.abs_tol,
        }
        return Trajectory("hyperbolic", times, u, v, c_trace, meta)

    if problem == "parabolic":
        if p < 0:
            raise ValueError("p must be >= 0")
        flat0 = as_vector(y0, op)
        lam = op.eigenvalues

        def f(t: float, y: np.ndarray) -> np.ndarray:
            return _parabolic_velocity(t, y, _at_sigma(m_eval, m, lam, y), lam, p)

        Y, _, _ = solve_to_grid(
            f,
            flat0,
            times,
            rel_tol=cfg.rel_tol,
            abs_tol=cfg.abs_tol,
            max_step=cfg.max_step,
        )
        c_trace = _at_sigma(m_eval, m, lam, Y)
        meta = {
            "p": p,
            "operator": op,
            "mass": m,
            "rel_tol": cfg.rel_tol,
            "abs_tol": cfg.abs_tol,
        }
        return Trajectory("parabolic", times, Y, None, c_trace, meta)

    raise ValueError(f"unknown problem kind {problem!r}")


def parabolic_closed_form(
    op: SpectralOperator, u0, p: float, mu_bar: float, t: float
) -> np.ndarray:
    """Exact first-order flow for constant mass ``mu_bar``.

    ``u_k(t) = u_k(0) exp(-lambda_k mu_bar ((1+t)^(1+p) - 1)/(1+p))``.
    """
    if mu_bar <= 0:
        raise ValueError("mu_bar must be > 0")
    if t < 0:
        raise ValueError("t must be >= 0")
    u0 = as_vector(u0, op)
    g = growth_integral(p, t) / (1.0 + p)
    return u0 * np.exp(-op.eigenvalues * mu_bar * g)


def theta0(u0, u1, op: SpectralOperator, m: MassFunction) -> np.ndarray:
    """Initial-velocity mismatch ``u1 + m(|A^(1/2)u0|^2) A u0`` absorbed by the corrector."""
    u0 = as_vector(u0, op)
    u1 = as_vector(u1, op)
    c0 = m_eval(m, sobolev_norm_sq(op, u0, 0.5))
    return u1 + c0 * op.eigenvalues * u0


def _z_integral(eps: float, p: float, a: float, b: float) -> float:
    """``int_a^b z_eps`` by adaptive quadrature, split at the layer scale.

    The kernel's mass sits in a boundary layer of width O(eps); splitting the
    range there keeps the quadrature from missing it on long intervals.
    """
    if b <= a:
        return 0.0

    def kernel(s: float) -> float:
        return z_eps(eps, p, s)

    cut = min(b, max(a, 80.0 * eps))
    total = 0.0
    if cut > a:
        total += quad(kernel, a, cut, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
    if b > cut:
        total += quad(kernel, cut, b, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
    return total


def corrector(
    theta0_vec, eps: float, p: float, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Boundary-layer corrector ``(theta(t), theta'(t))``.

    ``theta'(t) = theta0 z_eps(t)`` and ``theta(t) = theta0 int_0^t z_eps``;
    the time integral uses the p = 0 closed form ``eps (1 - exp(-t/eps))`` and
    adaptive quadrature (absolute tolerance 1e-12) otherwise.  At ``t = 0``:
    ``theta = 0``, ``theta' = theta0``.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if t < 0:
        raise ValueError("t must be >= 0")
    th0 = as_vector(theta0_vec)
    zt = z_eps(eps, p, t)
    if p == 0.0:
        integral = eps * -math.expm1(-t / eps)
    else:
        integral = _z_integral(eps, p, 0.0, t)
    return th0 * integral, th0 * zt


def corrector_series(
    theta0_vec, eps: float, p: float, times
) -> tuple[np.ndarray, np.ndarray]:
    """``(theta, theta')`` sampled along a grid; the integral accumulates per interval."""
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    th0 = as_vector(theta0_vec)
    times = np.asarray(times, dtype=float)
    z_vals = np.array([z_eps(eps, p, float(t)) for t in times])
    if p == 0.0:
        integrals = eps * -np.expm1(-times / eps)
    else:
        integrals = np.empty_like(times)
        integrals[0] = _z_integral(eps, p, 0.0, float(times[0]))
        for i in range(1, times.size):
            integrals[i] = integrals[i - 1] + _z_integral(
                eps, p, float(times[i - 1]), float(times[i])
            )
    theta = integrals[:, None] * th0[None, :]
    theta_prime = z_vals[:, None] * th0[None, :]
    return theta, theta_prime


def coefficient_derivative(
    traj: Trajectory, op: SpectralOperator, m: MassFunction
) -> np.ndarray:
    """``c'(t_i) = 2 m'(|A^(1/2)u|^2) <Au, u'>`` at every sample, as an ``(n,)`` series.

    For parabolic trajectories ``u'`` is recomputed from the flow equation.
    """
    lam = op.eigenvalues
    dm = _at_sigma(m_prime, m, lam, traj.u)
    return 2.0 * dm * ((traj.u * traj.velocity(op)) @ lam)


def parabolic_second_derivative(
    t, u, p: float, op: SpectralOperator, m: MassFunction
) -> np.ndarray:
    """``u''`` of the first-order flow by analytic chaining (no differencing).

    ``u'' = -p(1+t)^(p-1) c Au - (1+t)^p c' Au + (1+t)^(2p) c^2 A^2 u`` with
    ``c'`` evaluated through ``u'`` from the flow equation.  One state, or
    ``(n, K)`` rows with ``(n,)`` times.
    """
    return _parabolic_acceleration(t, as_states(u, op), m, op.eigenvalues, p)[1]


def residual_g(
    t,
    u,
    c_eps,
    op: SpectralOperator,
    m: MassFunction,
    p: float,
    eps: float,
) -> np.ndarray:
    """Defect of the limit solution in the second-order equation.

    ``g(t) = -(c_eps(t) - c(t)) Au(t) - eps u''(t)`` for the limit state
    ``u`` at ``t``; ``c_eps`` comes from the second-order run's coefficient
    trace.  One state, or ``(n, K)`` rows with ``(n,)`` times and ``c_eps``.
    """
    u = as_states(u, op)
    lam = op.eigenvalues
    c, upp = _parabolic_acceleration(t, u, m, lam, p)
    return -(_column(c_eps, u) - c) * (lam * u) - eps * upp


def remainders(
    u_eps_traj: Trajectory,
    u_traj: Trajectory,
    theta: np.ndarray,
    theta_prime: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Series ``(rho, r, r')`` of the singular-perturbation decomposition.

    ``rho = u_eps - u``; ``r = rho - theta``; ``r' = u_eps' - u' - theta'``
    with ``u'`` recomputed from the first-order flow and ``(theta, theta')``
    the corrector series on the shared sample grid (see
    :func:`corrector_series`).  By construction ``u_eps = u + theta + r``
    holds to round-off at every sample.
    """
    if u_eps_traj.kind != "hyperbolic" or u_traj.kind != "parabolic":
        raise ValueError("expected a hyperbolic and a parabolic trajectory")
    if u_eps_traj.times.shape != u_traj.times.shape or not np.array_equal(
        u_eps_traj.times, u_traj.times
    ):
        raise ValueError("trajectories must share the sample grid")
    if np.shape(theta) != u_traj.u.shape or np.shape(theta_prime) != u_traj.u.shape:
        raise ValueError("the corrector series must align with the trajectories")
    rho = u_eps_traj.u - u_traj.u
    r = rho - theta
    r_prime = u_eps_traj.v - u_traj.velocity(u_traj.meta["operator"]) - theta_prime
    return rho, r, r_prime


def hyperbolic_log_energy(
    op: SpectralOperator,
    m: MassFunction,
    eps: float,
    p: float,
    u0,
    u1,
    t_end: float,
    sample_count: int,
    cfg: IntegratorConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Log of the full energy along a constant-mass run, renormalization-safe.

    Returns ``(times, log_gamma)`` where ``log_gamma[i]`` is the natural log
    of ``|u|^2+|A^(1/2)u|^2+|Au|^2+|u'|^2+eps|A^(1/2)u'|^2`` at ``times[i]``.
    Only valid for constant mass: the flow is then linear, so the integrator
    may rescale the state by exact powers of two and the run reaches depths
    (log gamma of order -10^3 and beyond) that plain doubles cannot represent.
    """
    if not m.is_constant:
        raise ValueError("log-energy runs require a constant mass function")
    if eps is None or eps <= 0:
        raise ValueError("eps must be > 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    u0 = as_vector(u0, op)
    u1 = as_vector(u1, op)
    if not (np.any(u0) or np.any(u1)):
        raise ValueError("log-energy runs need nontrivial initial data")
    K = op.dim
    lam = op.eigenvalues
    c = m_eval(m, 0.0)
    times = np.linspace(0.0, float(t_end), int(sample_count))

    def f(t: float, y: np.ndarray) -> np.ndarray:
        u = y[:K]
        v = y[K:]
        return np.concatenate([v, _hyperbolic_acceleration(t, u, v, c, lam, eps, p)])

    cap_value = cfg.oscillation_safety * 2.0 * math.pi * math.sqrt(
        eps / (op.lambda_max * c)
    )
    Y, log_scale, _ = solve_to_grid(
        f,
        np.concatenate([u0, u1]),
        times,
        rel_tol=cfg.rel_tol,
        abs_tol=cfg.abs_tol,
        max_step=min(cfg.max_step, cap_value),
        renormalize=True,
    )
    value = gamma_eps(Y[:, :K], Y[:, K:], eps, op)
    if np.any(value <= 0.0):
        t_bad = float(times[np.argmax(value <= 0.0)])
        raise IntegrationError(f"energy vanished at t={t_bad:.6g} despite renormalization")
    return times, np.log(value) - 2.0 * log_scale
