"""Energy functionals over sampled states and the closed-form decay envelopes.

The functionals take a state as ``(u, u')`` arrays: one ``(K,)`` vector gives
a float, an ``(n, K)`` stack of samples (with ``(n,)`` times and coefficient
values) gives one value per row.  The remainder energies of the paper are the
same functionals applied to ``(rho, r')``.

The decay envelopes ``phi`` and ``psi`` and the corrector kernel integral are
implemented from their closed forms rather than by integrating their defining
ODEs: they serve as reference curves in ratio tests, so quadrature error in
them would contaminate every measurement that divides by them.  Two curves of
the paper are these envelopes at a given rate: the corrector kernel, the
solution of ``eps z' + (1+t)^(-p) z = 0``, is ``phi(1/eps, p, t)``, and the
sharp constant-mass bound ``C exp(-g (1+t)^(1+p))`` is
``C e^(-g) psi(g, p, t)``.  The exponents are evaluated with
``expm1``/``log1p`` so that small-``t`` values stay accurate to a few ulp,
which matters when they feed log-linear regression.  The envelopes broadcast
over their arguments (time grids, batches of parameters) and compute their
exponents through ``weight_integral`` and ``growth_integral``; the kernel
integral takes one rate and one ``p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .spectral import SpectralOperator, as_states, sobolev_norm_sq

__all__ = [
    "DEGENERATE_P",
    "weight_integral",
    "growth_integral",
    "phi",
    "psi",
    "kernel_integral",
    "gamma_rate",
    "LyapunovParams",
    "require_admissible_beta",
    "decay_params",
    "perturbation_params",
    "gamma_eps",
    "gamma_r",
    "energy_E",
    "energy_F",
    "energy_G",
    "equivalence_constants",
]

# Below this distance from p = 1 the exponent ((1+t)^(1-p) - 1)/(1-p) is
# evaluated by its limit log(1+t); the two branches agree to ~1e-6 relative
# at the threshold for t up to 1e3.
DEGENERATE_P = 1e-12


def _weight_fn(p):
    """``t -> weight_integral(p, t)``, with everything that depends on ``p`` alone done once."""
    q = 1.0 - np.asarray(p, dtype=float)
    degenerate = q < DEGENERATE_P
    q = np.where(degenerate, 1.0, q)

    def weight(t):
        t = np.asarray(t, dtype=float)
        if (t < 0).any():
            raise ValueError("t must be >= 0")
        log1p_t = np.log1p(t)
        return np.where(degenerate, log1p_t, np.expm1(q * log1p_t) / q)

    return weight


def weight_integral(p, t):
    """Integral of the damping weight: ``int_0^t (1+s)^(-p) ds``.

    Closed form ``((1+t)^(1-p) - 1)/(1-p)`` for ``p < 1``, continuously
    routed to ``log(1+t)`` when ``1-p`` is below the degeneracy threshold;
    broadcasts.
    """
    return _weight_fn(p)(t)


def growth_integral(p, t):
    """``(1+t)^(1+p) - 1``, the exponent core of the parabolic envelopes; broadcasts."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    return np.expm1((1.0 + np.asarray(p, dtype=float)) * np.log1p(t))


def phi(beta, p, t):
    """Canonical decay envelope: solution of ``P' = -beta (1+t)^(-p) P``, ``P(0) = 1``.

    Closed form ``exp(-beta ((1+t)^(1-p) - 1)/(1-p))`` for ``p < 1`` and
    ``(1+t)^(-beta)`` at ``p = 1``.  Strictly decreasing, ``phi(beta, p, 0) = 1``.
    The arguments broadcast together (a time grid, a batch of parameters).
    """
    beta = np.asarray(beta, dtype=float)
    if np.any(beta <= 0):
        raise ValueError("beta must be > 0")
    return np.exp(-beta * weight_integral(p, t))


def psi(alpha, p, t):
    """Parabolic-regime envelope ``exp(-alpha ((1+t)^(1+p) - 1))``; ``psi(alpha, p, 0) = 1``.

    The arguments broadcast together.
    """
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 0):
        raise ValueError("alpha must be > 0")
    return np.exp(-alpha * growth_integral(p, t))


# 48-point Gauss-Laguerre rule of the fast-rate identity in ``kernel_integral``.
_LAGUERRE = laggauss(48)


def kernel_integral(rate: float, p: float) -> float:
    """``int_0^inf exp(-rate W(s)) ds``, ``W`` the damping weight integral, for ``rate >= 2``.

    ``rate = 1/eps`` integrates the corrector kernel ``phi(1/eps, p, s)``.
    At ``p = 0``: ``1/rate``; below ``DEGENERATE_P`` from ``p = 1``:
    ``1/(rate - 1)``.  Otherwise ``w = rate W(s)`` gives ``L(q/rate)/rate``
    with ``q = 1-p`` and ``L(a) = int_0^inf e^(-w) (1 + a w)^(p/q) dw``, by
    Gauss-Laguerre (the factor beside ``e^(-w)`` stays below ``e^(w/2)``),
    accurate to about 1e-12 relative.
    """
    rate, p = float(rate), float(p)
    if not (rate >= 2.0 and 0.0 <= p <= 1.0):
        raise ValueError("need rate >= 2 and p in [0, 1]")
    if p == 0.0:
        return 1.0 / rate
    q = 1.0 - p
    if q < DEGENERATE_P:
        return 1.0 / (rate - 1.0)
    nodes, weights = _LAGUERRE
    # (1, 48) @ (48,), the shapes the sum has always been taken in
    a = np.array([[q / rate]])
    return float((np.exp(np.array([[p / q]]) * np.log1p(a * nodes)) @ weights)[0] / rate)


def gamma_rate(mu: float, nu: float, p: float) -> float:
    """Decay-rate constant ``2 mu nu / (1+p)`` of the limit problem's sharp bound."""
    if mu <= 0 or nu <= 0:
        raise ValueError("mu and nu must be > 0")
    return 2.0 * mu * nu / (1.0 + p)


@dataclass(frozen=True)
class LyapunovParams:
    """Parameters of the weighted quadratic forms used by the decay monitors.

    ``sigma`` is only meaningful for the perturbation-energy variants and is
    ``None`` for the plain decay case.  Instances are built through
    :func:`decay_params` / :func:`perturbation_params`, which encode the
    admissibility conditions; building by hand is possible but unchecked
    beyond basic positivity.
    """

    beta: float
    p: float
    delta: float
    T: float
    sigma: float | None = None

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ValueError("beta must be > 0")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.delta <= 0:
            raise ValueError("delta must be > 0")
        if self.T < 0:
            raise ValueError("T must be >= 0")
        if self.sigma is not None and self.sigma <= 0:
            raise ValueError("sigma must be > 0 when present")


def require_admissible_beta(beta: float, p: float, mu: float, nu: float) -> None:
    """The decay rate ``beta`` the estimates admit: at ``p = 0`` only ``beta < 2 mu nu``.

    ValueError otherwise; every ``p > 0`` admits every ``beta``.
    """
    if p == 0.0 and beta >= 2.0 * mu * nu:
        raise ValueError(
            f"p=0 requires beta < 2*mu*nu (got beta={beta}, 2*mu*nu={2.0 * mu * nu})"
        )


def _onset(bound: float, p: float) -> float:
    """The smallest ``T >= 0`` with ``(1+T)^(2p) >= bound``, for ``p > 0``; ``inf``
    where that ``T`` passes double range (``p`` near 0)."""
    try:
        return max(0.0, bound ** (1.0 / (2.0 * p)) - 1.0)
    except OverflowError:
        return math.inf


def decay_params(beta: float, p: float, mu: float, nu: float) -> LyapunovParams:
    """Lyapunov parameters for the decay monitors.

    For ``p = 0`` requires ``beta < 2 mu nu`` and uses
    ``delta = 2 (beta+1) nu / (2 mu nu - beta)`` with ``T = 0``; for ``p > 0``
    uses ``delta = (beta+2)/mu`` and the smallest ``T >= 0`` with
    ``(1+T)^(2p) >= delta beta / (2 nu)``.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    require_admissible_beta(beta, p, mu, nu)
    if p == 0.0:
        delta = 2.0 * (beta + 1.0) * nu / (2.0 * mu * nu - beta)
        return LyapunovParams(beta, p, delta, 0.0)
    delta = (beta + 2.0) / mu
    return LyapunovParams(beta, p, delta, _onset(delta * beta / (2.0 * nu), p))


def perturbation_params(beta: float, p: float, mu: float, nu: float) -> LyapunovParams:
    """Lyapunov parameters for the remainder (perturbation) monitors.

    ``p = 0``: ``delta = 4 (beta+1) nu / (2 mu nu - beta)``,
    ``sigma = mu nu - beta/2``, ``T = 0`` (requires ``beta < 2 mu nu``).
    ``p > 0``: ``delta = (beta+2)/mu``, ``sigma = 1`` and the smallest
    ``T >= 0`` with ``(1+T)^(2p) >= delta (beta+sigma) / (2 nu)``.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    require_admissible_beta(beta, p, mu, nu)
    if p == 0.0:
        delta = 4.0 * (beta + 1.0) * nu / (2.0 * mu * nu - beta)
        sigma = mu * nu - beta / 2.0
        return LyapunovParams(beta, p, delta, 0.0, sigma)
    delta = (beta + 2.0) / mu
    sigma = 1.0
    return LyapunovParams(beta, p, delta, _onset(delta * (beta + sigma) / (2.0 * nu), p), sigma)


def _h2_norm_sq(op: SpectralOperator, u):
    """``|u|^2 + |A^(1/2)u|^2 + |Au|^2``, summed left to right; one value per row."""
    return sobolev_norm_sq(op, u, 0.0) + sobolev_norm_sq(op, u, 0.5) + sobolev_norm_sq(op, u, 1.0)


def gamma_eps(u, v, eps: float, op: SpectralOperator):
    """Full second-order energy ``|u|^2 + |A^(1/2)u|^2 + |Au|^2 + |u'|^2 + eps |A^(1/2)u'|^2``."""
    return _h2_norm_sq(op, u) + sobolev_norm_sq(op, v, 0.0) + eps * sobolev_norm_sq(op, v, 0.5)


def gamma_r(rho, rprime, eps: float, op: SpectralOperator):
    """Remainder energy ``|rho|^2 + |A^(1/2)rho|^2 + eps |r'|^2``."""
    return (
        sobolev_norm_sq(op, rho, 0.0)
        + sobolev_norm_sq(op, rho, 0.5)
        + eps * sobolev_norm_sq(op, rprime, 0.0)
    )


def energy_E(u, v, eps: float, c_val, op: SpectralOperator):
    """Coefficient-weighted first energy ``eps |u'|^2 / c + |A^(1/2)u|^2``."""
    return eps * sobolev_norm_sq(op, v, 0.0) / c_val + sobolev_norm_sq(op, u, 0.5)


def energy_F(u, v, t, eps: float, c_val, op: SpectralOperator, lp: LyapunovParams):
    """Lyapunov functional: ``energy_E`` plus the weighted cross and mass terms.

    ``E + eps delta (1+t)^(-p) <u', u> + (delta/2) (1+t)^(-2p) |u|^2``; may go
    negative for large ``eps``, which the sandwich check reports rather than
    forbids.  With the perturbation-case ``lp`` and ``(rho, r')`` it is the
    remainder functional.
    """
    w = (1.0 + np.asarray(t, dtype=float)) ** (-lp.p)
    cross = (as_states(v, op) * as_states(u, op)).sum(axis=-1)
    return (
        energy_E(u, v, eps, c_val, op)
        + eps * lp.delta * w * cross
        + 0.5 * lp.delta * w * w * sobolev_norm_sq(op, u, 0.0)
    )


def energy_G(v):
    """Kinetic term ``|u'|^2``."""
    v = as_states(v)
    return (v * v).sum(axis=-1)


def equivalence_constants(mu: float, c_sup: float) -> tuple[float, float, float]:
    """Sandwich constants tying ``energy_E``/``energy_F`` to ``eps|u'|^2 + |A^(1/2)u|^2``.

    Returns ``(k_lower_E, k_upper_E, k_lower_F)`` with
    ``k_lower_E = min(1/c_sup, 1)``, ``k_upper_E = max(1/mu, 1)`` and
    ``k_lower_F = min(1/(2 c_sup), 1/2)``; ``c_sup`` is the measured supremum
    of the run's coefficient trace (the run is the only witness for it).
    """
    if mu <= 0 or c_sup <= 0:
        raise ValueError("mu and c_sup must be > 0")
    return (
        min(1.0 / c_sup, 1.0),
        max(1.0 / mu, 1.0),
        min(1.0 / (2.0 * c_sup), 0.5),
    )
