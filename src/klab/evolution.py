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
The phase separates,
``Phi(Lambda) = int_0^Lambda dL / m(sigma(L)) = ((1+t)^(1+p) - 1)/(1+p)``, so
no ODE is solved: not the K-mode system, whose explicit solve goes stiff as
``lambda_max`` grows and controls the decayed modes only in norm, nor the
phase.  ``Phi`` is summed by Gauss-Legendre quadrature over panels graded in
``Lambda``, and each sample's ``Lambda`` is the quintic Hermite interpolant,
at its ``Phi``, of ``Lambda``, ``dLambda/dPhi = m`` and its derivative at
the panel edges.  A panel is split where its estimated interpolation error
passes a share of ``rel_tol``, as while a large ``m(sigma(0)) / m(0)``
decays, so every live mode is held to ``rel_tol`` of itself.  Once
``m(sigma)`` rounds to ``m(0)``, ``Lambda`` is a line in ``Phi``: the panels
stop there whatever the horizon.  Derivatives of the first-order
flow (``u'``, ``u''``) are always recomputed from the equation, never finite
differenced, since the residual diagnostics are sensitive to them.

The closed-form companions are the boundary-layer corrector, whose kernel is
the decay envelope ``energies.phi`` at rate ``1/eps``, and the
singular-perturbation remainders built from it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from ._rk import IntegrationError, _member_scale, solve_to_grid
from .energies import phi, weight_integral
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
    "theta0",
    "corrector_velocity",
    "coefficient_derivative",
    "residual_g",
    "remainders",
]


# The absolute floor of the second-order flow's error control.  It makes the
# normwise control purely relative in practice: solutions here decay through
# hundreds of decades, and any ordinary absolute floor would eventually let
# phase errors grow unchecked once the state dips below it.
_ABS_TOL = 1e-300


@dataclass(frozen=True)
class IntegratorConfig:
    """The integrator's tolerance, from 1e-12 to 1e-3.  The second-order
    flow's error control is relative to the state, ``rel_tol`` of its norm
    per step (the absolute floor ``_ABS_TOL`` is fixed far below any state a
    run keeps); the limit flow's phase quadrature is graded, and split where
    its error estimate asks, to hold each live mode to ``rel_tol`` of itself.
    Below 1e-12 double precision gives out: the limit flow misses 1e-13 by
    1.6 times, and the second-order solve spends its steps on rounding."""

    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol: must be positive, got {self.rel_tol}")
        if self.rel_tol < 1e-12:
            raise ValueError(f"rel_tol: must be >= 1e-12, got {self.rel_tol}")
        if self.rel_tol > 1e-3:
            raise ValueError(f"rel_tol: must be <= 1e-3, got {self.rel_tol}")


@dataclass(frozen=True)
class Trajectory:
    """Sampled run of one flow, carrying the flow itself.

    ``u`` (and ``v = u'`` for the second-order flow) have one row per sample
    time; ``c_trace[i] = m(|A^(1/2)u(t_i)|^2)`` is recomputed at the samples,
    never interpolated.  ``p``, ``op``, ``mass`` and ``eps`` (``None`` for
    the first-order flow) define the flow, so every reader takes them from
    here rather than as arguments; ``rel_tol`` is the tolerance the run was
    integrated to.  ``steps`` is the flow's ``runs.json`` ``integrator``
    entry, built where the solve runs: for the second-order flow the
    solver's ``StepStats`` fields (steps accepted and rejected,
    right-hand-side calls, step range) with ``retired_modes``, the modes the
    solve set to 0 once they no longer carried energy, and
    ``last_retirement_t``, the time of the last of them (``None`` when none
    was); for the first-order flow the size of its phase quadrature,
    ``{"panels": n, "nodes": 8}``.
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
    steps: dict[str, Any]

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
        scale = _member_scale(y)
        u = scale * y[:K]
        v = scale * y[K:]
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


def _hyperbolic_system(op: SpectralOperator, m: MassFunction, eps: list[float], p: float):
    """``(f, caps)``: the second-order flows of ``eps`` as one system
    ``y' = f(t, y)`` of ``(B, 2K)`` rows ``y = (u, u')``, one per ``eps``, and
    one :class:`_OscillationCap` per row for ``solve_to_grid``.

    Each row is computed with the arithmetic of its eps run alone, bit for
    bit (see ``klab._rk``): the damping weights are Python float powers and
    ``sigma`` a 1-D dot or the stacked matmul.
    """
    K = op.dim
    lam = op.eigenvalues
    caps = [_OscillationCap(op, m, e) for e in eps]

    # Two right-hand sides on purpose, picked by the member count: the batch
    # form gives the same bits, but on stiff_k64's one eps (K = 64) it took a
    # best-of-5 solve of 0.808 s against 0.588 s (1.015 s against 0.884 s in a
    # second pair); checks_k4's three eps take one batch for three solves.
    if len(eps) == 1:
        (eps_1,) = eps

        def f(t: Sequence[float], y: np.ndarray) -> np.ndarray:
            u = y[0, :K]
            v = y[0, K:]
            c = m_eval(m, float((u * u) @ lam))
            dy = np.empty_like(y)
            dy[0, :K] = v
            dy[0, K:] = _hyperbolic_acceleration((1.0 + t[0]) ** (-p), u, v, c, lam, eps_1)
            return dy

        return f, caps

    # eps as full rows: they divide faster than a broadcast column
    eps_rows = np.repeat(np.array(eps, dtype=float)[:, None], K, axis=1)
    lam_col = lam[:, None]

    def f_batch(t: Sequence[float], y: np.ndarray) -> np.ndarray:
        u = y[:, :K]
        v = y[:, K:]
        c = m_eval(m, np.matmul((u * u)[:, None, :], lam_col)[:, 0, 0])
        w = np.array([(1.0 + s) ** (-p) for s in t])
        dy = np.empty_like(y)
        dy[:, :K] = v
        dy[:, K:] = _hyperbolic_acceleration(w[:, None], u, v, c[:, None], lam, eps_rows)
        return dy

    return f_batch, caps


# The Gauss-Legendre rule on [0, 1] of the limit flow's phase quadrature and
# of the linear lemma marches.
_GL_POINTS = 8
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_POINTS)
_GL_NODES, _GL_WEIGHTS = (_GL_NODES + 1.0) / 2.0, _GL_WEIGHTS / 2.0

# The phase quadrature's panels are _PANEL_GRADING times their left edge wide
# at rel_tol 1e-10.  Mode k's relative error is lambda_k times the phase's
# error, at most 745 times its relative error for a mode still represented
# (exp(-745) is below the smallest double), and the interpolant's error is
# of sixth order in the panel width: so the grading goes as rel_tol^(1/6).
_PANEL_GRADING = 0.02

# Where m(sigma(0)) / m(0) is far from 1, m still bends at a Lambda near
# log(m(sigma(0)) / m(0)) / (2 lambda_1) on the scale 1/lambda_1, and that
# grading misses by up to 1e4 rel_tol.  So a panel is split in equal pieces
# until its error estimate is _PANEL_SPLIT rel_tol: for m = b + a exp(-s L),
# with r = (m - b) / m, d6 Lambda / d Phi6 = s^5 m^6 r A5(r) (A5 the fifth
# Eulerian polynomial), the quintic's error is width^6 / 46080 times that
# over m^6, and mode k takes lambda_k times it, up to 745 / Lambda.  With
# s = |sigma''/sigma'| and r = |dm/dLambda| / (s m), the workloads' data
# read at most 0.21 (K 64 seed 9: 0.13, where 0.12 is measured), so their
# panels are not split.
_PANEL_SPLIT = 0.25


def _quintic_hermite(nodes: np.ndarray, y, dy, ddy, t: np.ndarray) -> np.ndarray:
    """At the times ``t``, the piecewise quintic that takes the values ``y``
    and the first and second derivatives ``dy`` and ``ddy`` at ``nodes``.

    ``nodes`` increase from ``t[0]`` through ``t[-1]``.  A sample on a node
    takes that node's value; the last one is the end of the last interval.
    ``nodes`` and ``t`` may be long double: only each sample's offset from
    its node is taken in it, the polynomial in double.
    """
    i = np.minimum(np.searchsorted(nodes, t, side="right") - 1, nodes.size - 2)
    h = nodes[i + 1] - nodes[i]
    s = ((t - nodes[i]) / h).astype(float)
    h = h.astype(float)
    rise = y[i + 1] - y[i]
    dy0, dy1 = h * dy[i], h * dy[i + 1]
    ddy0, ddy1 = h * h * ddy[i], h * h * ddy[i + 1]
    c3 = 10.0 * rise - 6.0 * dy0 - 4.0 * dy1 - 1.5 * ddy0 + 0.5 * ddy1
    c4 = -15.0 * rise + 8.0 * dy0 + 7.0 * dy1 + 1.5 * ddy0 - ddy1
    c5 = 6.0 * rise - 3.0 * (dy0 + dy1) - 0.5 * (ddy0 - ddy1)
    return y[i] + s * (dy0 + s * (0.5 * ddy0 + s * (c3 + s * (c4 + s * c5))))


def _limit_phase(
    u0: np.ndarray, times: np.ndarray, rel_tol: float, op: SpectralOperator, m: MassFunction,
    p: float,
) -> tuple[np.ndarray, int]:
    """``(Lambda, panels)``: the limit flow's phase at ``times`` (see the module
    docstring) and the number of quadrature panels it took.

    The panels are ``g Lambda`` wide, but at least ``g / lambda_max``, with
    ``g = _PANEL_GRADING (rel_tol / 1e-10)^(1/6)``; a panel across which ``m``
    still bends on a shorter scale is split in equal pieces (see
    ``_PANEL_SPLIT``).  Their count grows with the log of
    ``lambda_max / lambda_min`` and of ``m(sigma(0)) / m(0)``, not with the
    horizon.  ``Phi`` at the edges is the running sum of each panel's 8-point
    Gauss-Legendre rule.
    """
    lam = op.eigenvalues
    weights = lam * u0 * u0
    decay = -2.0 * lam
    grading = _PANEL_GRADING * (rel_tol / 1e-10) ** (1.0 / 6.0)
    powers = weights[:, None] * decay[:, None] ** np.arange(3.0)

    def moments(edges):
        # sigma and its first two derivatives in Lambda at the edges
        return (np.exp(np.multiply.outer(edges, decay)) @ powers).T

    # edges out to Lambda = 373 / lambda_min, where exp(-2 lambda_k Lambda) <= exp(-746) is 0
    ramp = math.ceil(1.0 / grading)
    start = ramp * grading / op.lambda_max
    count = math.ceil(math.log(373.0 / (lam[0] * start)) / math.log1p(grading))
    edges = np.concatenate((np.arange(ramp) * (grading / op.lambda_max),
                            start * np.exp(np.arange(count + 1) * math.log1p(grading))))
    sigma, slope, bend = moments(edges)
    # m is monotone in sigma (every variant is) and sigma falls as Lambda grows,
    # so from the first edge where m(sigma) rounds to m(0), the last at the
    # latest, Lambda is a line in Phi: the panels, and the edges read, end there
    rest = m_eval(m, 0.0)
    reached = np.flatnonzero(m_eval(m, sigma) == rest)
    if not reached.size:  # sigma is not finite at any edge
        raise IntegrationError("limit flow: sigma left double range")
    last = reached[0] + 1
    edges, sigma, slope, bend = edges[:last], sigma[:last], slope[:last], bend[:last]
    # each panel's error estimate (see _PANEL_SPLIT), at the larger of its ends
    rate = np.divide(bend, -slope, out=np.zeros_like(bend), where=slope != 0)
    r = np.divide(np.abs(m_prime(m, sigma) * slope) / m_eval(m, sigma), rate,
                  out=np.zeros_like(rate), where=rate != 0)
    sixth = rate**5 * r * (1.0 + r * (26.0 + r * (66.0 + r * (26.0 + r))))
    width = np.diff(edges)
    live = np.minimum(op.lambda_max, 745.0 / edges[1:])
    error = live * width**6 * np.maximum(sixth[:-1], sixth[1:]) / 46080.0
    pieces = np.maximum(np.ceil((error / (_PANEL_SPLIT * rel_tol)) ** (1.0 / 6.0)), 1).astype(np.intp)
    # piece j of panel i starts j / pieces_i of the way across it
    j = np.arange(pieces.sum()) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    edges = np.append(np.repeat(edges[:-1], pieces) + j * np.repeat(width / pieces, pieces), edges[-1])
    sigma, slope, _ = moments(edges)
    speed = m_eval(m, sigma)
    width = np.diff(edges)
    # one node of every panel at a time, so no temporary outgrows an (edges, modes) array
    rule = sum(w / m_eval(m, np.exp(np.multiply.outer(edges[:-1] + x * width, decay)) @ weights)
               for x, w in zip(_GL_NODES, _GL_WEIGHTS))
    # Phi and each sample's Phi in long double, and so their differences: a
    # mode's error is up to lambda_k m Phi times Phi's rounding, 3 rel_tol at
    # 1e-12 where m(0) is 50 times m(sigma(0)) (K 64) with Phi in double, 0.23 here
    phi = np.concatenate(([0.0], np.cumsum(width * rule, dtype=np.longdouble)))
    # d2 Lambda / d Phi2 = m'(sigma) sigma'(Lambda) m(sigma)
    accel = m_prime(m, sigma) * slope * speed
    target = np.expm1((1.0 + p) * np.log1p(times.astype(np.longdouble))) / (1.0 + p)
    curved = np.searchsorted(target, phi[-1])
    phase = edges[-1] + rest * (target - phi[-1]).astype(float)
    phase[:curved] = _quintic_hermite(phi, edges, speed, accel, target[:curved])
    return phase, width.size


def _step_floor(eps: float, p: float, t_end: float) -> float:
    """Fewest steps the explicit driver can take on a second-order flow with data.

    A mode that carries data has an eigenvalue of modulus at least
    ``b / (2 eps)``, ``b = (1+t)^(-p)``, and DOPRI5's stability interval
    reaches about 3.3 (Hairer & Wanner, Solving ODEs II, IV.2), so a step
    spans at most ``6.6 eps / b``: over ``[0, t_end]`` that is at least
    ``weight_integral(p, t_end) / (6.6 eps)`` steps.
    """
    return float(weight_integral(p, t_end)) / (6.6 * eps)


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

    They are one own-clock batch, one member per ``eps``, in which each
    member takes the steps and the bits of its ``eps`` solved alone, and
    whose ``steps`` is its ``runs.json`` entry: ``StepStats`` and retirements.
    """
    K = op.dim
    f, caps = _hyperbolic_system(op, m, eps, p)
    try:
        Y, _, stats = solve_to_grid(
            f,
            np.tile(flat0, (len(eps), 1)),
            times,
            rel_tol=cfg.rel_tol,
            abs_tol=_ABS_TOL,
            step_cap_fn=caps,
        )
    except IntegrationError as exc:
        raise IntegrationError(f"eps={eps[exc.member]!r}: {exc}") from exc
    trajs = []
    for Y_i, steps, cap, eps_i in zip(Y, stats.members, caps, eps):
        u = Y_i[:, :K]
        c_trace = _at_sigma(m_eval, m, op.eigenvalues, u)
        trajs.append(Trajectory(
            "hyperbolic", times, u, Y_i[:, K:], c_trace, p, op, m, eps_i, cfg.rel_tol,
            asdict(steps) | {"retired_modes": cap.retired, "last_retirement_t": cap.last_retirement_t},
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
    the module docstring).  ``cfg.rel_tol`` is the run's only tolerance (see
    :class:`IntegratorConfig`).  The returned :class:`Trajectory` carries
    ``p``, ``op``, ``m``, ``eps``, ``cfg.rel_tol`` and the solver's statistics
    (for the limit flow, its quadrature's size).
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
        with np.errstate(over="ignore", invalid="ignore"):
            phase, panels = _limit_phase(u0, times, cfg.rel_tol, op, m, p)
        if not np.all(np.isfinite(phase)):
            raise IntegrationError("limit flow: the phase left double range")
        u = np.multiply.outer(phase, -lam)
        np.exp(u, out=u)
        u *= u0
        c_trace = _at_sigma(m_eval, m, lam, u)
        return Trajectory(
            "parabolic", times, u, None, c_trace, p, op, m, None, cfg.rel_tol,
            {"panels": panels, "nodes": _GL_POINTS},
        )

    raise ValueError(f"unknown problem kind {problem!r}")


def theta0(u0, u1, op: SpectralOperator, m: MassFunction) -> np.ndarray:
    """Initial-velocity mismatch ``u1 + m(|A^(1/2)u0|^2) A u0`` absorbed by the corrector."""
    u0 = as_vector(u0, op)
    u1 = as_vector(u1, op)
    c0 = m_eval(m, sobolev_norm_sq(op, u0, 0.5))
    return u1 + c0 * op.eigenvalues * u0


def corrector_velocity(theta0_vec, eps: float, p: float, times) -> np.ndarray:
    """The boundary-layer corrector's derivative ``theta'(t) = theta0 z_eps(t)``.

    The kernel ``z_eps`` solves ``eps z' + (1+t)^(-p) z = 0``, ``z(0) = 1``,
    so it is the decay envelope ``phi`` at rate ``1/eps``.  An ``(n, K)``
    array along the time grid, ``theta0`` at ``t = 0``.  ValueError unless
    ``eps > 0``.
    """
    if not eps > 0:
        raise ValueError("eps must be > 0")
    th0 = as_vector(theta0_vec)
    return phi(1.0 / eps, p, np.asarray(times, dtype=float))[:, None] * th0


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

