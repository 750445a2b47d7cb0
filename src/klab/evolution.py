"""Time integration of the damped flows plus their closed-form companions.

Two flows are realized in the eigenbasis: the second-order one,

    eps u'' + (1+t)^(-p) u' + m(|A^(1/2)u|^2) A u = 0,

and its first-order limit

    u' = -(1+t)^p m(|A^(1/2)u|^2) A u.

Both decouple mode-by-mode except for the scalar coupling through
``|A^(1/2)u|^2``.  The integrator resolves the fast oscillation of the
second-order flow with a state-dependent step cap, which follows the fastest
mode that still carries energy: a mode whose share has fallen far below
round-off is set to exactly 0, a fixed point of its linear equation.  The
second-order flow's steps land on the uniform sample grid exactly.  An eps
sweep is one solve: its members share the grid and the array operations of
every step, but each keeps its own clock, step cap and retired modes, so
each reproduces its single-eps run bit for bit and reports the same step
statistics (the ``runs.json`` manifest is unchanged by the batching).

The first-order flow is solved through its scalar phase: with
``Lambda' = (1+t)^p m(sum_k lambda_k u_k(0)^2 exp(-2 lambda_k Lambda))`` and
``Lambda(0) = 0`` it is exactly ``u_k(t) = u_k(0) exp(-lambda_k Lambda(t))``.
One scalar ODE replaces the K-mode system, whose explicit solve goes stiff as
``lambda_max`` grows and controls the decayed modes only in norm; the phase
form gets every mode to relative accuracy.  Its steps follow the error
control, and the samples between them come from the quintic Hermite
interpolant of ``Lambda``, ``Lambda'`` and ``Lambda''`` at the step ends, all
three exact there: the phase's second derivative has a closed form, and the
integrator's own continuous extension is only a quartic, too coarse for the
phase's tolerance.  Derivatives of the first-order
flow (``u'``, ``u''``) are always recomputed from the equation, never finite
differenced, since the residual diagnostics are sensitive to them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._rk import BatchStats, IntegrationError, StepStats, solve_to_grid
from .energies import growth_integral, z_eps
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
    "integrate",
    "parabolic_closed_form",
    "theta0",
    "corrector_velocity",
    "coefficient_derivative",
    "residual_g",
    "remainders",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """The integrator's tolerances.

    ``abs_tol`` defaults to 1e-300, which makes the normwise error control
    purely relative in practice: solutions here decay through hundreds of
    decades and any ordinary absolute floor would eventually let phase errors
    grow unchecked once the state dips below it.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-300

    def __post_init__(self) -> None:
        for name, value in (("rel_tol", self.rel_tol), ("abs_tol", self.abs_tol)):
            if not value > 0:
                raise ValueError(f"{name}: must be positive, got {value}")
            if value > 1e-3:
                raise ValueError(f"{name}: must be <= 1e-3, got {value}")


@dataclass(frozen=True)
class Trajectory:
    """Sampled run of one flow, carrying the flow itself.

    ``u`` (and ``v = u'`` for the second-order flow) have one row per sample
    time; ``c_trace[i] = m(|A^(1/2)u(t_i)|^2)`` is recomputed at the samples,
    never interpolated.  ``p``, ``op``, ``mass`` and ``eps`` (``None`` for
    the first-order flow) define the flow, so every reader takes them from
    here rather than as arguments; ``rel_tol`` is the tolerance the run was
    integrated to and ``steps`` the solver's ``StepStats`` (steps accepted
    and rejected, right-hand-side calls, step range).
    ``retired_modes`` counts the modes the second-order solve set to 0 once
    they no longer carried energy, and ``last_retirement_t`` is the time of
    the last of them (``None`` when none was).
    """

    kind: str  # "hyperbolic" | "parabolic"
    times: np.ndarray
    u: np.ndarray
    v: np.ndarray | None
    c_trace: np.ndarray
    p: float
    op: SpectralOperator
    mass: MassFunction
    eps: float | None
    rel_tol: float
    steps: StepStats
    retired_modes: int = 0
    last_retirement_t: float | None = None

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
        if u.shape[1] != self.op.dim:
            raise ValueError("u must have one column per mode of the operator")
        if c.shape != times.shape:
            raise ValueError("c_trace must align with times")
        if self.kind == "hyperbolic":
            if self.v is None:
                raise ValueError("hyperbolic trajectories carry v = u'")
            if self.eps is None or not self.eps > 0:
                raise ValueError("hyperbolic trajectories carry eps > 0")
            v = np.asarray(self.v, dtype=float)
            if v.shape != u.shape:
                raise ValueError("v must align with u")
            object.__setattr__(self, "v", v)
        elif self.v is not None or self.eps is not None:
            raise ValueError("parabolic trajectories carry no v and no eps")
        if float(np.min(c)) < mass_inf(self.mass):
            raise ValueError("coefficient trace dips below the mass infimum")
        for arr in (times, u, c):
            arr.setflags(write=False)
        if self.kind == "hyperbolic":
            self.v.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "c_trace", c)

    def velocity(self) -> np.ndarray:
        """``u'`` at every sample: stored for the second-order flow, recomputed
        from the first-order equation (with the coefficient trace) otherwise."""
        if self.kind == "hyperbolic":
            return self.v
        return _parabolic_velocity(
            self.times[:, None], self.u, self.c_trace[:, None], self.op.eigenvalues, self.p
        )


def _at_sigma(fn, m: MassFunction, lam: np.ndarray, u: np.ndarray):
    """``fn(m, |A^(1/2)u|^2)`` of one state, or an ``(n,)`` array over the rows of ``u``.

    ``fn`` is ``m_eval`` or ``m_prime``.
    """
    sigma = (u * u) @ lam
    return fn(m, float(sigma) if u.ndim == 1 else sigma)


def _column(x, u: np.ndarray):
    """A scalar as is, an ``(n,)`` series as an ``(n, 1)`` column against the rows of ``u``."""
    x = np.asarray(x, dtype=float)
    return x[:, None] if x.ndim == 1 and u.ndim == 2 else x


def _parabolic_velocity(t, u, c, lam: np.ndarray, p: float):
    """First-order flow ``u' = -(1+t)^p c A u``; ``t`` and ``c`` scalars or ``(n, 1)`` columns."""
    return -((1.0 + t) ** p) * c * lam * u


def _hyperbolic_acceleration(w, u, v, c, lam: np.ndarray, eps):
    """Second-order flow ``u'' = -(w u' + c A u)/eps`` with the damping ``w = (1+t)^(-p)``;
    ``w``, ``c`` and ``eps`` scalars or ``(n, 1)`` columns against the rows of ``u``."""
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


# A mode retires (is set to exactly 0) once two things hold, and its share
# of ``gamma`` then stays below _RETIRE_SHARE:
# - Its share is negligible.  ``gamma`` is the strongest norm any output
#   uses: it weights ``u_k`` by ``1 + lambda_k + lambda_k^2``, up to
#   ``lambda_max^2`` more than the weakest (``|u|``, ``c``).  So a retired
#   mode holds less than ``lambda_max^2 * 1e-40`` of any output norm, below
#   double round-off (1.1e-16) for ``lambda_max`` up to 1e12, and 24 decades
#   below it in ``gamma`` itself, which leaves room for the remainder
#   energies, smaller than ``gamma`` by about ``eps^2``.  The error control
#   is normwise, so a decayed mode's computed state is accurate only to about
#   its own size (mode 64 of K = 64 at eps 0.01 was off by 1.7 times its
#   amplitude): the computed share must be _RETIRE_MARGIN times below the
#   threshold.
# - Its ``lambda_k`` is above that of every live mode whose share is not
#   negligible.  A mode's slowest solution decays at
#   ``(b - sqrt(b^2 - 4 eps c lambda))/(2 eps)`` while it is overdamped and
#   at ``b/(2 eps)`` once it is not (``b = (1+t)^(-p)``), a rate that never
#   falls as ``lambda`` grows, at any time and for any ``c``.  So a retired
#   mode decays at least as fast as every mode that holds the energy, and
#   its share does not grow (these are frozen-coefficient rates; the margin
#   leaves room for their drift), unless that energy sits on an overdamped mode's
#   fast branch alone, which no check here separates out.  A tiny slow mode
#   under a dominant fast one therefore stays live: it takes over later.
#   Retiring a mode below a live one would not lift the cap either, which
#   follows the fastest live mode.
# A mode that is exactly 0 (both ``u_k`` and ``u_k'``) is a fixed point and
# carries no energy at all: it leaves the cap without counting as retired.
_RETIRE_SHARE = 1e-40
_RETIRE_MARGIN = 100.0
# The share of the fastest live mode's period a step may span.
_OSCILLATION_SAFETY = 0.2


class _OscillationCap:
    """Step ceiling of the second-order flow, for ``solve_to_grid``'s ``step_cap_fn``.

    The cap resolves the fastest live oscillation: mode ``k`` turns at
    ``sqrt(lambda_k c / eps)``, so a step keeps ``_OSCILLATION_SAFETY`` of
    the period of the fastest mode not yet retired, with ``c`` the running
    max of the coefficient.  At the start and after every step the cap
    itself limited, the modes that no longer carry energy (see
    ``_RETIRE_SHARE``) are set to exactly 0 (``retired`` counts them,
    ``last_retirement_t`` is the time of the last).  Their equation is
    linear in their own ``(u_k, u_k')`` given ``c``, so they stay 0.  Whether
    a run retires modes, and when, therefore depends on where the cap binds,
    and so on the sample grid too.  The share is bounded over an
    oscillation: with ``H_k = c lambda_k u_k^2 + eps u_k'^2``, mode ``k``'s
    part of ``gamma`` is at most ``weight_k H_k`` at any phase.
    """

    def __init__(self, op: SpectralOperator, m: MassFunction, eps: float):
        self.lam = op.eigenvalues
        self.m = m
        self.eps = eps
        self.c_sup = mass_inf(m)
        self.live = np.ones(op.dim, dtype=bool)
        self.lam_live = op.lambda_max
        self.retired = 0
        self.last_retirement_t: float | None = None
        self._gamma_u = 1.0 + self.lam + self.lam * self.lam
        self._gamma_v = 1.0 + eps * self.lam
        self._t = -math.inf
        self._cap = math.inf

    def __call__(self, t: float, y: np.ndarray) -> tuple[float, np.ndarray]:
        K = self.lam.size
        c = _at_sigma(m_eval, self.m, self.lam, y[:K])
        if c > self.c_sup:
            self.c_sup = c
        # only a step the cap limited can be lengthened by retiring modes
        # (the first call, at the start, always checks)
        if t - self._t >= (1.0 - 1e-9) * self._cap:
            y = self._retire(t, y, c)
        self._t = t
        self._cap = (_OSCILLATION_SAFETY * 2.0 * math.pi
                     * math.sqrt(self.eps / (self.lam_live * self.c_sup)))
        return self._cap, y

    def _retire(self, t: float, y: np.ndarray, c: float) -> np.ndarray:
        K = self.lam.size
        self.live &= (y[:K] != 0.0) | (y[K:] != 0.0)
        if not np.any(self.live):
            return y
        # scaled by a power of two so that no square underflows
        _, exponent = math.frexp(float(np.max(np.abs(y))))
        u = np.ldexp(y[:K], -exponent)
        v = np.ldexp(y[K:], -exponent)
        gamma = float(self._gamma_u @ (u * u) + self._gamma_v @ (v * v))
        weight = np.maximum(self._gamma_u / (c * self.lam), self._gamma_v / self.eps)
        bound = weight * (c * self.lam * u * u + self.eps * v * v)
        negligible = _RETIRE_MARGIN * bound < _RETIRE_SHARE * gamma
        holding = self.live & ~negligible
        dead = self.live & negligible & (self.lam > np.max(self.lam[holding]))
        if np.any(dead):
            self.live &= ~dead
            self.retired += int(np.count_nonzero(dead))
            self.last_retirement_t = t
            y = y.copy()
            y[:K][dead] = 0.0
            y[K:][dead] = 0.0
        self.lam_live = float(np.max(self.lam[self.live]))
        return y


def _hyperbolic_system(op: SpectralOperator, m: MassFunction, eps, p: float):
    """``(f, cap)``: the second-order flow as the system ``y' = f(t, y)``, ``y = (u, u')``,
    and its :class:`_OscillationCap` for ``solve_to_grid``.

    A sequence ``eps`` gives the flows of an own-clock batch instead: ``f``
    of a ``(B, 2K)`` state with the members' times as a list, and one cap
    per member.  Each member's row is computed with the arithmetic of its
    single system, bit for bit (see ``klab._rk``): the damping weights are
    Python float powers and ``sigma`` the stacked matmul.
    """
    K = op.dim
    lam = op.eigenvalues

    # Two right-hand sides on purpose: the same bits come out of a single eps
    # run as an own-clock batch of one, but that took 1.9-2.0 s against
    # 0.9-1.1 s for the K = 64 single-eps solve (1.8-2x), the per-member lists
    # and stacked matmuls costing more than the one row saves.
    if np.ndim(eps) == 0:

        def f(t: float, y: np.ndarray) -> np.ndarray:
            u = y[:K]
            v = y[K:]
            c = m_eval(m, float((u * u) @ lam))
            dy = np.empty_like(y)
            dy[:K] = v
            dy[K:] = _hyperbolic_acceleration((1.0 + t) ** (-p), u, v, c, lam, eps)
            return dy

        return f, _OscillationCap(op, m, eps)

    # eps as full rows: they divide faster than a broadcast column
    eps_rows = np.repeat(np.array(eps, dtype=float)[:, None], K, axis=1)
    lam_col = lam[:, None]

    def f_batch(t: list[float], y: np.ndarray) -> np.ndarray:
        u = y[:, :K]
        v = y[:, K:]
        c = m_eval(m, np.matmul((u * u)[:, None, :], lam_col)[:, 0, 0])
        w = np.array([(1.0 + s) ** (-p) for s in t])
        dy = np.empty_like(y)
        dy[:, :K] = v
        dy[:, K:] = _hyperbolic_acceleration(w[:, None], u, v, c[:, None], lam, eps_rows)
        return dy

    return f_batch, [_OscillationCap(op, m, e) for e in eps]


# The limit flow's phase tolerances.  Mode k's relative error is lambda_k
# times the phase's absolute error, and a mode underflows once its log-decay
# lambda_k Lambda passes 745 (exp(-745) is below the smallest double).  So
# every mode still represented keeps rel_tol while the phase's error stays
# under rel_tol * max(Lambda / 745, 1 / lambda_max): a relative tolerance
# rel_tol / 745 and an absolute one rel_tol / lambda_max (or abs_tol, if
# larger), each divided by _PHASE_TOL_SAFETY for the local errors that
# accumulate into the global one and for the interpolant between step ends.
# Against a long-double oracle of the phase on the benchmark's affine-mass
# configs (K 4 and 64, 24 initial data, 256 to 4096 samples, rel_tol 1e-10),
# the worst component came to 2.4 rel_tol at 20 (the step ends alone within
# 0.16 rel_tol), 0.89 at 40 and 0.69 at 60.
_PHASE_LOG_DECAY = 745.0
_PHASE_TOL_SAFETY = 60.0


def _quintic_hermite(nodes: np.ndarray, y, dy, ddy, t: np.ndarray) -> np.ndarray:
    """At the times ``t``, the piecewise quintic that takes the values ``y``
    and the first and second derivatives ``dy`` and ``ddy`` at ``nodes``.

    ``nodes`` increase from ``t[0]`` through ``t[-1]``.  A sample on a node
    takes that node's value; the last one is the end of the last interval.
    """
    i = np.minimum(np.searchsorted(nodes, t, side="right") - 1, nodes.size - 2)
    h = nodes[i + 1] - nodes[i]
    s = (t - nodes[i]) / h
    rise = y[i + 1] - y[i]
    dy0, dy1 = h * dy[i], h * dy[i + 1]
    ddy0, ddy1 = h * h * ddy[i], h * h * ddy[i + 1]
    c3 = 10.0 * rise - 6.0 * dy0 - 4.0 * dy1 - 1.5 * ddy0 + 0.5 * ddy1
    c4 = -15.0 * rise + 8.0 * dy0 + 7.0 * dy1 + 1.5 * ddy0 - ddy1
    c5 = 6.0 * rise - 3.0 * (dy0 + dy1) - 0.5 * (ddy0 - ddy1)
    return y[i] + s * (dy0 + s * (0.5 * ddy0 + s * (c3 + s * (c4 + s * c5))))


def _hyperbolic_runs(
    flat0: np.ndarray,
    times: np.ndarray,
    cfg: IntegratorConfig,
    op: SpectralOperator,
    m: MassFunction,
    p: float,
    eps: list[float],
) -> list[Trajectory]:
    """One second-order trajectory per ``eps``, all from ``flat0 = (u0, u1)``.

    A single ``eps`` is one system; several are one own-clock batch, in which
    each member takes the steps and the bits of its single-system solve.
    """
    K = op.dim
    batch = len(eps) > 1
    f, caps = _hyperbolic_system(op, m, eps if batch else eps[0], p)
    try:
        Y, _, stats = solve_to_grid(
            f,
            np.tile(flat0, (len(eps), 1)) if batch else flat0,
            times,
            rel_tol=cfg.rel_tol,
            abs_tol=cfg.abs_tol,
            step_cap_fn=caps,
            own_clocks=batch,
        )
    except IntegrationError as exc:
        raise IntegrationError(f"eps={eps[exc.member or 0]!r}: {exc}") from exc
    if not batch:
        Y, stats, caps = Y[None], BatchStats((stats,)), [caps]
    trajs = []
    for Y_i, steps, cap, eps_i in zip(Y, stats.members, caps, eps):
        u = Y_i[:, :K]
        c_trace = _at_sigma(m_eval, m, op.eigenvalues, u)
        trajs.append(Trajectory(
            "hyperbolic", times, u, Y_i[:, K:], c_trace, p, op, m, eps_i, cfg.rel_tol, steps,
            cap.retired, cap.last_retirement_t,
        ))
    return trajs


def integrate(
    problem: str,
    y0,
    t_end: float,
    sample_count: int,
    cfg: IntegratorConfig,
    op: SpectralOperator,
    m: MassFunction,
    p: float,
    eps: float | Sequence[float] | None = None,
) -> Trajectory | list[Trajectory]:
    """Run one flow on the uniform grid ``linspace(0, t_end, sample_count)``.

    ``problem`` is ``"hyperbolic"`` (pass ``eps``; ``y0 = (u0, u1)``) or
    ``"parabolic"`` (``y0 = u0``; integrated through its scalar phase, see
    the module docstring).  The returned :class:`Trajectory` carries ``p``,
    ``op``, ``m``, ``eps``, ``cfg.rel_tol`` and the solver's statistics.
    A sequence ``eps`` integrates the whole sweep as one solve and returns
    one trajectory per value, in order, each bit for bit the one a single
    ``eps`` gives.
    Raises :class:`IntegrationError` when step control cannot continue (for a
    second-order run, naming its ``eps``); contract violations raise
    ``ValueError``.
    """
    if t_end <= 0:
        raise ValueError("t_end must be > 0")
    if sample_count < 2:
        raise ValueError("sample_count must be >= 2")
    times = np.linspace(0.0, float(t_end), int(sample_count))
    lam = op.eigenvalues

    if problem == "hyperbolic":
        sweep = eps is not None and np.ndim(eps) == 1
        members = [float(e) for e in eps] if sweep else [eps]
        if not members or any(e is None or not e > 0 for e in members):
            raise ValueError("hyperbolic runs need eps > 0")
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        u0, u1 = y0
        flat0 = np.concatenate([as_vector(u0, op), as_vector(u1, op)])
        trajs = _hyperbolic_runs(flat0, times, cfg, op, m, p, members)
        return trajs if sweep else trajs[0]

    if problem == "parabolic":
        if p < 0:
            raise ValueError("p must be >= 0")
        u0 = as_vector(y0, op)
        weights = lam * u0 * u0
        decay = -2.0 * lam

        def f(t: float, y: np.ndarray) -> np.ndarray:
            sigma = float(weights @ np.exp(decay * y[0]))
            return np.array([(1.0 + t) ** p * m_eval(m, sigma)])

        phase, ends, stats = solve_to_grid(
            f,
            np.zeros(1),
            times,
            rel_tol=cfg.rel_tol / (_PHASE_TOL_SAFETY * _PHASE_LOG_DECAY),
            abs_tol=max(cfg.abs_tol, cfg.rel_tol / (_PHASE_TOL_SAFETY * op.lambda_max)),
            land_on_samples=False,
        )
        # Lambda' = (1+t)^p m(sigma) and, with sigma' = dsigma/dLambda,
        # Lambda'' = (1+t)^p (p m(sigma) / (1+t) + m'(sigma) sigma' Lambda')
        phase = phase[:, 0]
        decayed = np.exp(np.multiply.outer(phase, decay))
        sigma = decayed @ weights
        c = m_eval(m, sigma)
        growth = (1.0 + ends) ** p
        speed = growth * c
        accel = growth * (p * c / (1.0 + ends)
                          + m_prime(m, sigma) * (decayed @ (decay * weights)) * speed)
        u = np.multiply.outer(_quintic_hermite(ends, phase, speed, accel, times), -lam)
        np.exp(u, out=u)
        u *= u0
        c_trace = _at_sigma(m_eval, m, lam, u)
        return Trajectory(
            "parabolic", times, u, None, c_trace, p, op, m, None, cfg.rel_tol, stats
        )

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


def corrector_velocity(theta0_vec, eps: float, p: float, times) -> np.ndarray:
    """The boundary-layer corrector's derivative ``theta'(t) = theta0 z_eps(t)``.

    An ``(n, K)`` array along the time grid, ``theta0`` at ``t = 0``.
    ValueError (from ``z_eps``) unless ``eps > 0``.
    """
    th0 = as_vector(theta0_vec)
    return z_eps(eps, p, np.asarray(times, dtype=float))[:, None] * th0


def coefficient_derivative(traj: Trajectory) -> np.ndarray:
    """``c'(t_i) = 2 m'(|A^(1/2)u|^2) <Au, u'>`` at every sample, as an ``(n,)`` series.

    For parabolic trajectories ``u'`` is recomputed from the flow equation.
    """
    lam = traj.op.eigenvalues
    dm = _at_sigma(m_prime, traj.mass, lam, traj.u)
    return 2.0 * dm * ((traj.u * traj.velocity()) @ lam)


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
    theta_prime: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Series ``(rho, r')`` of the singular-perturbation decomposition.

    ``rho = u_eps - u`` and ``r' = u_eps' - u' - theta'``, with ``u'``
    recomputed from the first-order flow and ``theta'`` the corrector's
    derivative on the shared sample grid (see :func:`corrector_velocity`).
    The remainder itself is ``r = rho - theta``, so ``u_eps = u + theta + r``.
    """
    if u_eps_traj.kind != "hyperbolic" or u_traj.kind != "parabolic":
        raise ValueError("expected a hyperbolic and a parabolic trajectory")
    if u_eps_traj.times.shape != u_traj.times.shape or not np.array_equal(
        u_eps_traj.times, u_traj.times
    ):
        raise ValueError("trajectories must share the sample grid")
    if np.shape(theta_prime) != u_traj.u.shape:
        raise ValueError("the corrector series must align with the trajectories")
    rho = u_eps_traj.u - u_traj.u
    r_prime = u_eps_traj.v - u_traj.velocity() - theta_prime
    return rho, r_prime

