"""Reference values computed by routes independent of the package under test.

Everything here is derived from closed forms or direct quadrature: scalar
characteristic roots, explicit peak locations of a damped cosine,
scipy.integrate.quad applied to hand-written integrands, 30-digit mpmath
quadrature, and scipy's DOP853 on the amplitudes and phases of the
second-order flow's modes.  None of these
helpers call the package integrator or its comparison functions, so
agreement between a test and its oracle is meaningful evidence.  The one
exception is ``parabolic_mode_solve``: it runs the package's Dormand-Prince
driver on the K-mode form of the limit flow, a formulation independent of
the phase quadrature that ``integrate`` uses.  ``parabolic_phase_solve``
rests on the same separable form of the phase, but in long double, on its
own panels, and with Newton's method for each sample in place of an
interpolant.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.integrate import quad, solve_ivp

from klab._rk import solve_to_grid


# ---------------------------------------------------------------------------
# Scalar second-order model  eps*u'' + u' + mu_nu*u = 0   (p = 0, constant m)
# ---------------------------------------------------------------------------

def characteristic_roots(eps: float, mu_nu: float) -> tuple[float, float]:
    """Real roots of eps*r^2 + r + mu_nu = 0, slow root first.

    Valid only in the overdamped range 4*eps*mu_nu < 1.
    """
    disc = 1.0 - 4.0 * eps * mu_nu
    if disc <= 0.0:
        raise ValueError("roots are complex for 4*eps*mu_nu >= 1")
    s = math.sqrt(disc)
    slow = (-1.0 + s) / (2.0 * eps)
    fast = (-1.0 - s) / (2.0 * eps)
    return slow, fast


def scalar_solution(eps: float, mu_nu: float, u0: float, u1: float, t):
    """Exact solution of the scalar model, real or complex roots alike."""
    t = np.asarray(t, dtype=float)
    disc = 1.0 - 4.0 * eps * mu_nu
    if disc > 0.0:
        slow, fast = characteristic_roots(eps, mu_nu)
        a = (u1 - fast * u0) / (slow - fast)
        b = (slow * u0 - u1) / (slow - fast)
        return a * np.exp(slow * t) + b * np.exp(fast * t)
    if disc == 0.0:
        r = -1.0 / (2.0 * eps)
        return (u0 + (u1 - r * u0) * t) * np.exp(r * t)
    omega = math.sqrt(-disc) / (2.0 * eps)
    decay = np.exp(-t / (2.0 * eps))
    return decay * (u0 * np.cos(omega * t)
                    + (u1 + u0 / (2.0 * eps)) / omega * np.sin(omega * t))


def scalar_velocity(eps: float, mu_nu: float, u0: float, u1: float, t):
    """Time derivative of scalar_solution, same branch logic."""
    t = np.asarray(t, dtype=float)
    disc = 1.0 - 4.0 * eps * mu_nu
    if disc > 0.0:
        slow, fast = characteristic_roots(eps, mu_nu)
        a = (u1 - fast * u0) / (slow - fast)
        b = (slow * u0 - u1) / (slow - fast)
        return a * slow * np.exp(slow * t) + b * fast * np.exp(fast * t)
    if disc == 0.0:
        r = -1.0 / (2.0 * eps)
        c = u1 - r * u0
        return (c + r * (u0 + c * t)) * np.exp(r * t)
    omega = math.sqrt(-disc) / (2.0 * eps)
    decay = np.exp(-t / (2.0 * eps))
    s = (u1 + u0 / (2.0 * eps)) / omega
    val = decay * (-u0 * omega * np.sin(omega * t) + s * omega * np.cos(omega * t))
    return val - scalar_solution(eps, mu_nu, u0, u1, t) / (2.0 * eps)


def squared_envelope_rate(eps: float, mu_nu: float) -> float:
    """Late-time decay rate of |u|^2: twice the slow root's magnitude."""
    slow, _ = characteristic_roots(eps, mu_nu)
    return -2.0 * slow


# The worked scalar cell used by several tests: eps = 0.1, mu_nu = 1.
SCALAR_EPS = 0.1
SCALAR_SLOW_ROOT = (-1.0 + math.sqrt(0.6)) / 0.2
SCALAR_FAST_ROOT = (-1.0 - math.sqrt(0.6)) / 0.2
SCALAR_SQ_RATE = (1.0 - math.sqrt(0.6)) / 0.1   # = 2.2540333...


# ---------------------------------------------------------------------------
# Damped cosine test signal  |cos(10 t)| e^{-t}
# ---------------------------------------------------------------------------

def damped_cosine_peaks(t_end: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact local-maximum locations and values of |cos(10t)| e^{-t}.

    Setting the derivative of cos(10t)e^{-t} to zero gives
    tan(10t) = -1/10, hence t_k = (k*pi - arctan(0.1)) / 10 with k >= 1,
    and |cos(10 t_k)| = 1/sqrt(1.01).
    """
    shift = math.atan(0.1)
    ks = np.arange(1, int(10.0 * t_end / math.pi) + 1)
    tk = (ks * math.pi - shift) / 10.0
    tk = tk[tk < t_end]
    return tk, np.exp(-tk) / math.sqrt(1.01)


# ---------------------------------------------------------------------------
# Quadrature oracles (hand-written integrands)
# ---------------------------------------------------------------------------

def _weight_primitive(p: float, t: float) -> float:
    if abs(1.0 - p) < 1e-9:
        return math.log1p(t)
    return ((1.0 + t) ** (1.0 - p) - 1.0) / (1.0 - p)


def corrector_over_phi(eps: float, beta: float, p: float) -> float:
    """Integral of z_eps / Phi_{beta,p} over [0, inf) by direct quadrature."""
    rate = 1.0 / eps - beta
    if rate <= 0.0:
        raise ValueError("integral diverges")

    def integrand(t: float) -> float:
        return math.exp(-rate * _weight_primitive(p, t))

    total, err = quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
    if err > 1e-9:
        raise RuntimeError(f"oracle quadrature noisy: err={err}")
    return total


def kernel_integral_mp(rate: float, p: float, t: float) -> float:
    """int_0^t exp(-rate W(s)) ds, W(s) = ((1+s)^(1-p) - 1)/(1-p), at 30 digits.

    mpmath tanh-sinh quadrature, with the range split at the layer scales
    1/rate, 10/rate and 100/rate; ``t`` may be ``inf``.
    """
    with mpmath.workdps(30):
        rate, q = mpmath.mpf(rate), 1 - mpmath.mpf(p)

        def integrand(s):
            w = mpmath.log1p(s) if q == 0 else mpmath.expm1(q * mpmath.log1p(s)) / q
            return mpmath.exp(-rate * w)

        end = mpmath.inf if math.isinf(t) else mpmath.mpf(t)
        cuts = [c / rate for c in (1, 10, 100) if c / rate < end]
        return float(mpmath.quad(integrand, [0, *cuts, end]))


def mode_integral_vs_psi(p: float, mu_bar: float, lam: float, alpha: float,
                         u0: float) -> float:
    """Quadrature of |A u(t)|^2 / Psi_{alpha,p}(t) for one parabolic mode.

    u(t) = u0 * exp(-lam*mu_bar*((1+t)^{1+p}-1)/(1+p)) written out by hand.
    """
    def integrand(t: float) -> float:
        x = ((1.0 + t) ** (1.0 + p) - 1.0)
        # single exponent: the two factors separately over/underflow in the tail
        exponent = (alpha - 2.0 * lam * mu_bar / (1.0 + p)) * x
        return lam * lam * u0 * u0 * math.exp(exponent)

    total, err = quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
    if err > 1e-9:
        raise RuntimeError(f"oracle quadrature noisy: err={err}")
    return total


def mode_bound_vs_psi(mu: float, nu: float, p: float, alpha: float,
                      half_norm_sq: float) -> float:
    """Right side of the single-mode integral inequality."""
    denom = 2.0 * mu - alpha * (1.0 + p) / nu
    if denom <= 0.0:
        raise ValueError("inadmissible alpha")
    return half_norm_sq / denom


# ---------------------------------------------------------------------------
# Linear comparison-lemma ODEs  y' = -a(t) y + b(t),  a = r (1+t)^(-p)
# ---------------------------------------------------------------------------

def _linear_lemma_coefficients(kind: str, d: dict):
    """``(r, b)`` of a draw's equality ODE: decay rate ``r (1+t)^(-p)`` and forcing ``b(t)``."""
    p = d["p"]
    if kind == "lemma32":
        # G' = -G/(eps (1+t)^p) + (K/eps)(1+t)^p Phi_beta
        eps, K, beta = d["eps"], d["K"], d["beta"]
        return 1.0 / eps, lambda s: K / eps * (1.0 + s) ** p * math.exp(
            -beta * _weight_primitive(p, s))
    # F' = -beta (1+t)^(-p) F + q Phi_{beta_fast}
    beta, bf, q = d["beta"], d["beta_fast"], d["q"]
    return beta, lambda s: q * math.exp(-bf * _weight_primitive(p, s))


def linear_lemma_closed_form(kind: str, d: dict, t) -> np.ndarray:
    """The equality ODE's solution from ``y(0) = d["y0"]`` at ``p = 0`` or ``p = 1``.

    With ``a`` integrated in closed form, ``y = y0 e^{-A} + int_0^t e^{A(s)-A(t)} b``
    is elementary; differences of exponentials go through ``expm1``.
    """
    t = np.asarray(t, dtype=float)
    p, y0, beta = d["p"], d["y0"], d["beta"]
    if p not in (0.0, 1.0):
        raise ValueError("closed forms exist at p = 0 and p = 1 only")
    # the exponent's variable: t at p = 0, log(1+t) at p = 1
    x = t if p == 0.0 else np.log1p(t)
    if kind == "lemma32":
        eps, K = d["eps"], d["K"]
        rate = 1.0 / eps
        # the forced term's exponent: -beta x, and at p = 1 also x from
        # (1+t)^p and x from ds = (1+s) dx
        slow = 2.0 * p - beta
        gap = rate + slow
        return y0 * np.exp(-rate * x) - K / eps / gap * np.exp(slow * x) * np.expm1(-gap * x)
    bf, q = d["beta_fast"], d["q"]
    gap = bf - p - beta  # at p = 1, ds = (1+s) dx takes one x off
    return y0 * np.exp(-beta * x) - q / gap * np.exp(-beta * x) * np.expm1(-gap * x)


def linear_lemma_quad(kind: str, d: dict, t) -> np.ndarray:
    """The equality ODE's solution from ``y(0) = d["y0"]`` on the grid ``t``, any ``p``.

    Interval by interval, ``y(t_{i+1}) = e^{-(A(t_{i+1}) - A(t_i))} y(t_i) +
    int_{t_i}^{t_{i+1}} e^{-(A(t_{i+1}) - A(s))} b(s) ds``, exact in exact
    arithmetic, with each integral by ``scipy.integrate.quad``.
    """
    r, b = _linear_lemma_coefficients(kind, d)
    p = d["p"]
    A = [r * _weight_primitive(p, float(s)) for s in t]
    y = [d["y0"]]
    for i in range(1, len(t)):
        A1 = A[i]

        def integrand(s: float) -> float:
            return math.exp(r * _weight_primitive(p, s) - A1) * b(s)

        forced, err = quad(integrand, float(t[i - 1]), float(t[i]), epsabs=0.0, epsrel=1e-13)
        if err > 1e-13 * abs(forced):
            raise RuntimeError(f"oracle quadrature noisy: err={err}")
        y.append(math.exp(A[i - 1] - A1) * y[-1] + forced)
    return np.array(y)


def lemma33_solve(d: dict, t, rtol: float = 2.3e-14, atol: float = 1e-22) -> np.ndarray:
    """A lemma33 draw's equality ODE ``E' = psi1 sqrt(E) + psi2`` from
    ``E(0) = 0`` on the grid ``t``, by DOP853 on the instance alone.

    ``psi1 = a1 e^{-b1 t} + 0.3 (1+t)^{-k1}`` and ``psi2 = a2 e^{-b2 t}``.
    The default ``rtol`` is the smallest scipy takes without a warning.
    """
    a1, b1, a2, b2, k1 = (d[key] for key in ("a1", "b1", "a2", "b2", "k1"))

    def f(s: float, E: np.ndarray) -> np.ndarray:
        psi1 = a1 * math.exp(-b1 * s) + 0.3 / (1.0 + s) ** k1
        return psi1 * np.sqrt(np.maximum(E, 0.0)) + a2 * math.exp(-b2 * s)

    t = np.asarray(t, dtype=float)
    sol = solve_ivp(f, (t[0], t[-1]), [0.0], method="DOP853", rtol=rtol, atol=atol, t_eval=t)
    if sol.status != 0:
        raise RuntimeError(sol.message)
    return sol.y[0]


# ---------------------------------------------------------------------------
# Amplitude-law slopes for the oscillatory regime
# ---------------------------------------------------------------------------

def amplitude_law_slope(eps: float, p: float) -> float:
    """Predicted slope of log|u|^2 against x = (1+t)^{1-p} - 1."""
    return -1.0 / (eps * (1.0 - p))


# ---------------------------------------------------------------------------
# The limit flow as a K-mode system
# ---------------------------------------------------------------------------

def parabolic_closed_form(op, u0, p: float, mu_bar: float, t: float) -> np.ndarray:
    """Exact limit flow at constant mass ``mu_bar``:
    ``u_k(t) = u_k(0) exp(-lambda_k mu_bar ((1+t)^(1+p) - 1)/(1+p))``."""
    g = np.expm1((1.0 + p) * np.log1p(float(t))) / (1.0 + p)
    return np.asarray(u0, dtype=float) * np.exp(-op.eigenvalues * mu_bar * g)


def parabolic_mode_solve(lam, mass, u0, p: float, times, rel_tol: float = 1e-10,
                         abs_tol: float = 1e-300) -> np.ndarray:
    """Samples of u' = -(1+t)^p mass(|A^(1/2)u|^2) A u, all K modes stepped at once.

    ``mass`` maps sigma = sum_k lambda_k u_k^2 to the coefficient.  Error
    control is normwise, so modes far below the norm carry only absolute
    accuracy; compare norms and coefficients, not decayed components.
    """
    lam = np.asarray(lam, dtype=float)

    def f(t, u: np.ndarray) -> np.ndarray:
        return -((1.0 + t[0]) ** p) * mass(float(lam @ (u[0] * u[0]))) * lam * u

    u, _, _ = solve_to_grid(f, np.asarray(u0, dtype=float)[None], times,
                            rel_tol=rel_tol, abs_tol=abs_tol)
    return u[0]


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] in long double: numpy's
    double nodes polished by Newton steps on the three-term recurrence."""
    x = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
    for _ in range(3):
        p_prev, p_cur = np.ones_like(x), x
        for k in range(2, n + 1):
            p_prev, p_cur = p_cur, ((2 * k - 1) * x * p_cur - (k - 1) * p_prev) / k
        slope = n * (x * p_cur - p_prev) / (x * x - 1)
        x = x - p_cur / slope
    return x, 2 / ((1 - x * x) * slope * slope)


def parabolic_phase_solve(lam, mass, u0, p: float, times, grading: float = 0.1,
                          nodes: int = 8) -> np.ndarray:
    """Samples of the limit flow ``u_k = u0_k exp(-lambda_k Lambda(t))``, in long double.

    ``Lambda' = (1+t)^p m(sigma(Lambda))`` with
    ``sigma(L) = sum_k lambda_k u0_k^2 exp(-2 lambda_k L)`` separates:
    ``Phi(Lambda) = int_0^Lambda dL / m(sigma(L)) = ((1+t)^(1+p) - 1)/(1+p)``.
    ``Phi`` is summed by ``nodes``-point Gauss-Legendre over panels of width
    ``grading * L`` (at least ``grading / lambda_max`` and at most 1), so
    every exponential is resolved where it still counts, and each sample is
    found by Newton's method on ``Phi``, whose derivative is ``1/m``.
    ``mass`` maps a long double ``sigma`` array to ``m``.
    """
    ld = np.longdouble
    lam = np.asarray(lam, dtype=ld)
    rate = -2 * lam
    weights = lam * np.asarray(u0, dtype=ld) ** 2
    x, w = _gauss_legendre(nodes)
    x, w = (x + 1) / 2, w / 2  # on [0, 1]

    def inv_mass(L):
        # exponents below -11000 give terms under 1e-4700 (and long double
        # exp takes about four times as long where it underflows)
        e = np.multiply.outer(L, rate)
        np.exp(np.maximum(e, -11000, out=e), out=e)
        return 1 / mass(e @ weights)

    t = np.asarray(times, dtype=ld)
    target = np.expm1((1 + ld(p)) * np.log1p(t)) / (1 + ld(p))
    # panel edges and Phi there, until Phi passes the last sample's target
    edges, phi = [ld(0)], [ld(0)]
    while phi[-1] <= target[-1]:
        width = min(max(grading * edges[-1], grading / lam.max()), ld(1))
        phi.append(phi[-1] + width * (w @ inv_mass(edges[-1] + width * x)))
        edges.append(edges[-1] + width)
    edges, phi = np.array(edges), np.array(phi)
    j = np.searchsorted(phi, target, side="right") - 1
    left, width = edges[j], edges[j + 1] - edges[j]
    L = left + width * (target - phi[j]) / (phi[j + 1] - phi[j])
    for _ in range(12):
        part = L - left
        residual = phi[j] + part * (inv_mass(left[:, None] + np.multiply.outer(part, x)) @ w)
        step = (residual - target) / inv_mass(L)
        L = L - step
        if np.all(np.abs(step) <= 1e-18 * (1 + L)):
            return np.asarray(u0, dtype=ld) * np.exp(-np.multiply.outer(L, lam))
    raise RuntimeError("phase oracle: Newton's method did not converge")


# ---------------------------------------------------------------------------
# The second-order flow, mode by mode
# ---------------------------------------------------------------------------

def hyperbolic_mode_solve(lam, mass, eps, p: float, u0, u1, times,
                          rtol: float = 1e-13) -> tuple[np.ndarray, np.ndarray]:
    """Log-amplitudes and phases of eps u_k'' + (1+t)^(-p) u_k' + c lambda_k u_k = 0.

    ``c = m(sigma)`` with ``sigma = sum_k lambda_k u_k^2``; ``mass`` is a
    constant ``c``, or the pair ``(m, dm)`` of ``m`` and ``m'`` as functions
    of ``sigma``.  Each mode is solved by DOP853 in amplitude-phase form,
    ``u_k = R_k cos(th_k)``, ``u_k' = -w_k R_k sin(th_k)`` with
    ``w_k = sqrt(c lambda_k / eps)``:

        (log R_k)' = -a sin^2 th_k,   th_k' = w_k - a sin th_k cos th_k,

    ``a = b/eps + c'/(2c)``, ``b = (1+t)^(-p)`` and
    ``c' = -2 m'(sigma) sum_k lambda_k w_k R_k^2 sin th_k cos th_k``.
    Neither variable oscillates through zero or underflows, so scipy's
    componentwise relative control holds every mode to ``rtol`` of its own
    size, however far it has decayed.  At constant mass ``c' = 0`` and the
    modes decouple, so ``eps`` may be one value per mode, and one solve hold
    several flows' modes; a coupled mass takes one ``eps``, one flow.
    Returns ``(log_R, th)``, each ``(samples, K)``.
    """
    lam = np.asarray(lam, dtype=float)
    eps = np.asarray(eps, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    coupled = isinstance(mass, tuple)
    m, dm = mass if coupled else (lambda sigma: mass, None)
    if coupled and eps.ndim:
        raise ValueError("a coupled mass holds one flow: pass one eps")
    w = np.sqrt(m(lam @ (u0 * u0)) * lam / eps)
    K = lam.size

    def f(t, y):
        s, co = np.sin(y[K:]), np.cos(y[K:])
        damping, w_t = (1.0 + t) ** (-p) / eps, w
        if coupled:  # c = m(sigma) moves w, and c'/(2c) adds to the damping
            r2 = np.exp(2.0 * y[:K])
            sigma = lam @ (r2 * co * co)
            c = m(sigma)
            w_t = np.sqrt(c * lam / eps)
            damping = damping - dm(sigma) * (lam @ (w_t * r2 * s * co)) / c
        return np.concatenate([-damping * s * s, w_t - damping * s * co])

    y0 = np.concatenate([0.5 * np.log(u0 * u0 + (u1 / w) ** 2), np.arctan2(-u1 / w, u0)])
    # a phase is held to rtol absolutely, so one that starts at 0 sets no
    # vanishing scale; the first step resolves the fastest turn or decay
    atol = np.concatenate([np.full(K, 1e-300), np.full(K, rtol)])
    first = 0.01 / max(float(np.max(w)), 1.0 / float(np.min(eps)))
    sol = solve_ivp(f, (times[0], times[-1]), y0, method="DOP853", rtol=rtol,
                    atol=atol, first_step=first, t_eval=times)
    if sol.status != 0:
        raise RuntimeError(sol.message)
    return sol.y[:K].T, sol.y[K:].T


def hyperbolic_log_gamma(lam, c: float, eps: float, p: float, u0, u1,
                         times) -> tuple[np.ndarray, np.ndarray]:
    """Logs of ``gamma`` and of each mode's part of it along the constant-mass flow.

    ``gamma = |u|^2 + |A^(1/2)u|^2 + |Au|^2 + |u'|^2 + eps |A^(1/2)u'|^2``, so
    mode ``k`` holds ``(1 + lambda_k + lambda_k^2) u_k^2 + (1 + eps lambda_k)
    u_k'^2``.  Both come from ``hyperbolic_mode_solve``'s amplitude-phase form
    in logs, so nothing underflows however many decades the flow decays.
    Returns ``(log_gamma, log_modes)``, of shapes ``(samples,)`` and
    ``(samples, K)``.
    """
    lam = np.asarray(lam, dtype=float)
    log_amp, phase = hyperbolic_mode_solve(lam, c, eps, p, u0, u1, times)
    w2 = c * lam / eps
    log_modes = 2.0 * log_amp + np.log((1.0 + lam + lam**2) * np.cos(phase) ** 2
                                       + (1.0 + eps * lam) * w2 * np.sin(phase) ** 2)
    top = log_modes.max(axis=1)
    log_gamma = top + np.log(np.exp(log_modes - top[:, None]).sum(axis=1))
    return log_gamma, log_modes
