"""Verification layer: envelopes, fits, inequality monitors, lemma harness."""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

import klab
from klab import (
    CheckReport,
    IntegratorConfig,
    MassFunction,
    RateFit,
    SpectralOperator,
    abscissa_values,
    check_comparison_lemma,
    check_energy_monotone,
    check_energy_sandwich,
    check_hypotheses,
    check_lyapunov_decay,
    check_optimality,
    check_parabolic_pointwise,
    check_residual_bounds,
    check_uniform_decay_weights,
    corrector_velocity,
    decay_params,
    default_fit_window,
    envelope,
    epsilon_sweep_decay_error,
    fit_decay_exponent,
    gamma_rate,
    integrate,
    kernel_integral,
    oscillation_onset,
    perturbation_params,
    phi,
    probe_open_problem,
    remainders,
    residual_series,
    synthetic_lemma_instances,
    theta0,
)
from klab.analysis import LEMMA_SERIES, _argmin_from, _report, assemble_psi3, hyperbolic_series
import oracles

OP1 = SpectralOperator(np.array([1.0]), 1.0)
M1 = MassFunction("constant", 1.0)
CFG = IntegratorConfig()


def series(traj, lp=None):
    """The energy columns of a second-order run, as a scenario builds them."""
    return hyperbolic_series(traj, lp or decay_params(1.0, traj.p, 1.0, 1.0))


# ---------------------------------------------------------------------------
# envelope and fitting
# ---------------------------------------------------------------------------

class TestEnvelope:
    def test_monotone_series_unchanged(self):
        t = np.linspace(0.0, 5.0, 200)
        v = np.exp(-t)
        te, ve = envelope(t, v)
        np.testing.assert_array_equal(te, t)
        np.testing.assert_array_equal(ve, v)

    def test_constant_series_reduces_to_endpoints(self):
        t = np.linspace(0.0, 1.0, 50)
        te, ve = envelope(t, np.ones(50))
        np.testing.assert_array_equal(te, [0.0, 1.0])
        np.testing.assert_array_equal(ve, [1.0, 1.0])

    def test_damped_cosine_peaks_against_closed_form(self):
        t = np.linspace(0.0, 4.0, 8001)
        v = np.abs(np.cos(10.0 * t)) * np.exp(-t)
        te, ve = envelope(t, v)
        exact_t, exact_v = oracles.damped_cosine_peaks(4.0)
        # every exact peak has an envelope point within one grid step
        h = t[1] - t[0]
        interior = (te > 0) & (te < 4.0)
        for tk, vk in zip(exact_t, exact_v):
            j = np.argmin(np.abs(te[interior] - tk))
            assert abs(te[interior][j] - tk) <= 2 * h
            assert ve[interior][j] == pytest.approx(vk, rel=1e-3)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            envelope(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            envelope(np.linspace(0, 1, 5), np.array([1.0, -0.5, 1.0, 0.5, 0.2]))


def test_abscissa_values_mappings():
    t = np.array([0.0, 3.0])
    np.testing.assert_allclose(abscissa_values("t", 0.5, t), [0.0, 3.0])
    np.testing.assert_allclose(abscissa_values("hyperbolic", 0.5, t), [0.0, 1.0])
    # at p = 1 the unnormalized weight is identically 0: it takes log(1+t)
    for p in (1.0, 1.0 - 1e-13):
        np.testing.assert_array_equal(abscissa_values("hyperbolic", p, t), np.log1p(t))
    np.testing.assert_allclose(abscissa_values("parabolic", 0.5, t), [0.0, 7.0])
    with pytest.raises(ValueError):
        abscissa_values("quadratic", 0.5, t)


class TestRateFitting:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 6.0, 300)
        fit = fit_decay_exponent(t, np.exp(-3.0 * t), 0.0, "t", (2.4, 6.0))
        assert fit.slope == pytest.approx(-3.0, rel=1e-8)
        assert fit.r_squared >= 1.0 - 1e-10
        assert fit.abscissa == "t"

    def test_exact_power_law(self):
        t = np.linspace(0.0, 20.0, 500)
        fit = fit_decay_exponent(t, (1.0 + t) ** (-2.0), 1.0, "hyperbolic", (8.0, 20.0))
        assert fit.slope == pytest.approx(-2.0, rel=1e-8)
        assert fit.r_squared >= 1.0 - 1e-10

    def test_synthetic_exponentials_random_rates(self):
        rng = np.random.default_rng(17)
        t = np.linspace(0.0, 10.0, 400)
        for _ in range(50):
            rate = float(rng.uniform(0.1, 8.0))
            scale = float(rng.uniform(0.2, 30.0))
            fit = fit_decay_exponent(t, scale * np.exp(-rate * t), 0.0, "t", (4.0, 10.0))
            assert fit.slope == pytest.approx(-rate, rel=1e-8)
            assert fit.r_squared >= 1.0 - 1e-10
            assert fit.intercept == pytest.approx(math.log(scale), rel=1e-6)

    def test_scalar_oracle_rate(self):
        # overdamped flow: |u|^2 decays at twice the slow root
        traj = integrate("hyperbolic", ([1.0], [0.0]), 8.0, 400, CFG, OP1, M1, 0.0, eps=0.1)
        sq = traj.u[:, 0] ** 2
        fit = fit_decay_exponent(traj.times, sq, 0.0, "t", window=(3.2, 8.0))
        assert fit.slope == pytest.approx(-oracles.SCALAR_SQ_RATE, rel=0.02)

    def test_window_and_positivity_errors(self):
        t = np.linspace(0.0, 5.0, 100)
        with pytest.raises(ValueError):
            fit_decay_exponent(t, np.exp(-t) - 0.5, 0.0, "t", (2.0, 5.0))  # sign change
        with pytest.raises(ValueError):
            fit_decay_exponent(t, np.exp(-t), 0.0, "t", window=(4.9, 4.95))  # < 3 points


def test_default_fit_window():
    lo, hi = default_fit_window(10.0)
    assert (lo, hi) == (4.0, 10.0)
    lo, _ = default_fit_window(10.0, eps=0.15)
    assert lo == 7.5   # 50*eps guard
    lo, _ = default_fit_window(10.0, eps=1.0)
    assert lo == 4.0   # guard would leave no window; falls back


def test_report_and_fit_validation():
    with pytest.raises(ValueError):
        RateFit(slope=-1.0, intercept=0.0, r_squared=1.5, window=(0.0, 1.0), abscissa="t")
    with pytest.raises(ValueError):
        RateFit(slope=-1.0, intercept=0.0, r_squared=0.5, window=(1.0, 1.0), abscissa="t")
    with pytest.raises(ValueError):
        CheckReport("x", True, -1.0, 0.0, {"tolerance": 1e-8})   # passed contradicts slack
    rep = CheckReport("x", False, -1.0, 0.0, {"tolerance": 1e-8})
    assert not rep.passed


# ---------------------------------------------------------------------------
# discrete inequality monitors
# ---------------------------------------------------------------------------

class TestEnergyMonotone:
    def test_small_eps_passes(self):
        traj = integrate("hyperbolic", ([1.0], [0.0]), 10.0, 600, CFG, OP1, M1, 0.5, eps=0.01)
        rep = check_energy_monotone(traj, series(traj)["E"])
        assert rep.passed
        assert rep.name == "energy_monotone"

    def test_zero_solution_trivially_passes(self):
        traj = integrate("hyperbolic", ([0.0], [0.0]), 4.0, 60, CFG, OP1, M1, 0.5, eps=0.1)
        rep = check_energy_monotone(traj, series(traj)["E"])
        assert rep.passed
        assert rep.worst_slack == 0.0

    def test_large_eps_failure_is_reported_not_raised(self):
        # steep mass growth against weak damping flips the sign of E'
        aff = MassFunction("affine", 1.0, 5.0)
        traj = integrate("hyperbolic", ([2.0], [-5.0]), 4.0, 400, CFG, OP1, aff, 0.0, eps=0.5)
        rep = check_energy_monotone(traj, series(traj)["E"])
        assert not rep.passed
        assert rep.worst_slack < -1.0
        assert rep.worst_t < 1.0


class TestEnergySandwich:
    def test_constant_mass_upper_bound_tight(self):
        traj = integrate("hyperbolic", ([1.0], [0.0]), 8.0, 400, CFG, OP1, M1, 0.5, eps=0.05)
        lp = decay_params(1.0, 0.5, 1.0, 1.0)
        s = series(traj, lp)
        reps = check_energy_sandwich(traj, s["E"], s["F"], lp)
        by_name = {r.name: r for r in reps}
        assert by_name["sandwich_E"].passed
        assert by_name["sandwich_F"].passed

    def test_large_eps_breaks_the_F_floor(self):
        traj = integrate("hyperbolic", ([1.0], [0.0]), 8.0, 800, CFG, OP1, M1, 0.5, eps=2.0)
        lp = decay_params(1.0, 0.5, 1.0, 1.0)
        s = series(traj, lp)
        reps = check_energy_sandwich(traj, s["E"], s["F"], lp)
        by_name = {r.name: r for r in reps}
        assert by_name["sandwich_E"].passed
        assert not by_name["sandwich_F"].passed


    def test_a_tied_minimum_reports_its_first_sample(self):
        # at constant unit mass E is its comparison weight bit for bit, so the
        # upper slack is exactly 0.0 at all 256 samples: worst_t is the first
        op = klab.power_spectrum(1.0, 4, 2.0)
        data = ([0.54, 0.32, 0.058, -0.13], [0.94, 0.12, -0.062, 0.038])
        traj = integrate("hyperbolic", data, 8.0, 256, CFG, op, M1, 0.5, eps=0.05)
        lp = decay_params(1.0, 0.5, 1.0, 1.0)
        s = series(traj, lp)
        assert np.all(s["E"] == klab.energy_E(traj.u, traj.v, 0.05, 1.0, op))
        rep = check_energy_sandwich(traj, s["E"], s["F"], lp)[0]
        assert rep.name == "sandwich_E" and rep.passed
        assert rep.worst_slack == 0.0 and rep.worst_t == 0.0


def test_argmin_from_takes_the_first_tied_minimum_at_or_after_first():
    slack = np.array([[-1.0, 0.0, -0.5, 0.0, -0.5], [0.0, 0.0, 0.0, 0.0, 0.0]])
    assert _argmin_from(slack, [1, 2]).tolist() == [2, 2]
    assert _argmin_from(slack, 3).tolist() == [4, 3]


class TestLyapunovDecay:
    def test_decay_inequality_small_eps(self):
        lp = decay_params(1.0, 0.5, 1.0, 1.0)
        traj = integrate("hyperbolic", ([1.0], [0.0]), 10.0, 600, CFG, OP1, M1, 0.5, eps=0.01)
        rep = check_lyapunov_decay(traj, lp, series(traj, lp)["F"])
        assert rep.passed
        assert rep.name == "lyapunov_decay_F"

    def test_zero_solution_trivial(self):
        lp = decay_params(1.0, 0.5, 1.0, 1.0)
        traj = integrate("hyperbolic", ([0.0], [0.0]), 4.0, 60, CFG, OP1, M1, 0.5, eps=0.01)
        rep = check_lyapunov_decay(traj, lp, series(traj, lp)["F"])
        assert rep.passed and rep.worst_slack == 0.0

    def test_start_time_past_horizon_checks_nothing(self):
        lp = perturbation_params(8.0, 0.5, 1.0, 1.0)   # T = delta(beta+sigma)/(2nu) - 1, large
        assert lp.T > 4.0
        traj = integrate("hyperbolic", ([1.0], [0.0]), 4.0, 60, CFG, OP1, M1, 0.5, eps=0.01)
        rep = check_lyapunov_decay(traj, lp, series(traj, lp)["F"])
        assert rep.passed
        assert rep.params["intervals"] == 0

    def test_the_remainder_series_select_the_remainder_form(self):
        p, eps = 0.5, 0.02
        hyp = integrate("hyperbolic", ([1.0], [0.0]), 8.0, 400, CFG, OP1, M1, p, eps=eps)
        par = integrate("parabolic", [1.0], 8.0, 400, CFG, OP1, M1, p)
        theta_p = corrector_velocity(theta0([1.0], [0.0], OP1, M1), eps, p, par.times)
        rho, rprime = remainders(hyp, par, theta_p)
        lp = perturbation_params(1.0, p, 1.0, 1.0)
        psi3 = assemble_psi3(hyp, rho, theta_p, residual_series(hyp, par), lp)
        F_r = klab.energy_F(rho, rprime, hyp.times, eps, hyp.c_trace, OP1, lp)
        assert check_lyapunov_decay(hyp, lp, series(hyp, lp)["F"]).name == "lyapunov_decay_F"
        rep = check_lyapunov_decay(hyp, lp, F_r, psi3)
        assert rep.name == "lyapunov_decay_script_F"
        assert rep.passed and rep.params["intervals"] > 0
        # the monitored series are the ones passed, not the run's
        zero = np.zeros(hyp.times.size)
        rep = check_lyapunov_decay(hyp, lp, zero, zero)
        assert rep.name == "lyapunov_decay_script_F" and rep.worst_slack == 0.0
        # the remainder form needs sigma, which decay parameters lack
        with pytest.raises(ValueError, match="perturbation"):
            check_lyapunov_decay(hyp, decay_params(1.0, p, 1.0, 1.0), F_r, psi3)


def test_a_series_of_another_length_is_rejected():
    traj = integrate("hyperbolic", ([1.0], [0.0]), 4.0, 60, CFG, OP1, M1, 0.0, eps=0.05)
    lp = decay_params(1.0, 0.0, 1.0, 1.0)
    good = series(traj, lp)
    short = good["E"][:-1]
    calls = [
        lambda: check_energy_monotone(traj, short),
        lambda: check_energy_sandwich(traj, good["E"], short, lp),
        lambda: check_lyapunov_decay(traj, lp, short),
        lambda: check_lyapunov_decay(traj, perturbation_params(1.0, 0.0, 1.0, 1.0),
                                     good["F"], short),
        lambda: check_optimality(traj, good["E"], good["gamma"][:, None]),
        lambda: probe_open_problem([traj], {0.05: short}),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="one value per sample"):
            call()


def _one_instance_report(kind, inputs):
    """One instance's lemma check in the arithmetic of a single series:
    exponents applied as floats and the start found by ``searchsorted``.
    A batched check must reproduce it bit for bit."""
    name, tol = f"comparison_{kind}", 1e-8
    t = np.asarray(inputs["times"], dtype=float)
    y = np.asarray(inputs[LEMMA_SERIES[kind]], dtype=float)
    T = float(inputs.get("T", 0.0))
    start = int(np.searchsorted(t, T - 1e-12 * max(1.0, T)))
    if kind == "lemma33":
        psi1, psi2 = inputs["psi1"], inputs["psi2"]
        rhs = psi1 * np.sqrt(np.maximum(y, 0.0)) + psi2
        K1, K2 = float(np.trapezoid(psi1, t)), float(np.trapezoid(psi2, t))
        bound = K1 * K1 + 2.0 * K2
        slack = (bound - y) / max(bound, 1e-300)
        params, extra = {}, {"K1": K1, "K2": K2, "bound": bound}
    else:
        beta, p = float(inputs["beta"]), float(inputs["p"])
        phi_vals = phi(beta, p, t)
        w = (1.0 + t) ** p
        if kind == "lemma32":
            eps, K = float(inputs["eps"]), float(inputs["K"])
            rhs = -y / (eps * w) + K / eps * w * phi_vals
            bound = (2.0 * K + y[0]) * (1.0 + t) ** (2.0 * p) * phi_vals
            slack = (bound - y) / np.maximum(bound, 1e-300)
            params, extra = {"eps": eps, "K": K, "beta": beta, "p": p}, {"bound_at_0": float(bound[0])}
        else:
            psi = inputs["psi"]
            rhs = -beta * y / w + psi
            const = y[start] / phi_vals[start] + float(np.trapezoid(psi / phi_vals, t))
            slack = (const * phi_vals - y) / np.maximum(np.abs(const * phi_vals), 1e-300)
            params, extra = {"beta": beta, "p": p, "T": T}, {"bound_constant": float(const)}
    if kind == "lemma33" and abs(y[0]) > tol:
        hyp = _report(name, -abs(float(y[0])), float(t[0]), tol, {"reason": "E(0) != 0"})
    elif start >= t.size - 1:
        hyp = _report(name, 0.0, float(t[-1]), tol, dict(params, intervals=0))
    else:
        slopes = np.diff(y[start:]) / np.diff(t[start:])
        rhs_max = np.maximum(rhs[start:-1], rhs[start + 1 :])
        hyp_slack = (rhs_max - slopes) / (1.0 + np.abs(y[start:-1]))
        i = start + int(np.argmin(hyp_slack))
        params_i = dict(params, intervals=int(hyp_slack.size))
        hyp = _report(name, float(hyp_slack[i - start]), float(t[i]), tol, params_i)
    if not hyp.passed:
        rep = hyp
    else:
        first = start if kind == "lemma34" else 0
        i = first + int(np.argmin(slack[first:]))
        rep = _report(name, float(slack[i]), float(t[i]), tol, dict(params, **extra))
    if not rep.passed:
        rep.params["failure_kind"] = "conclusion" if hyp.passed else "hypothesis"
    return rep


# ---------------------------------------------------------------------------
# comparison lemmas
# ---------------------------------------------------------------------------

class TestComparisonLemmas:
    def test_lemma33_closed_form_case(self):
        t = np.linspace(0.0, 12.0, 1200)
        inputs = {
            "times": t,
            "E": 1.0 - np.exp(-t),
            "psi1": np.zeros_like(t),
            "psi2": np.exp(-t),
        }
        (rep,) = check_comparison_lemma("lemma33", [inputs])
        assert rep.passed
        # K1 = 0 and K2 = int psi2 by the trapezoid rule: 2 within its error
        # and the tail 2 e^(-t_end) past the grid
        assert rep.params["bound"] == 2.0 * np.trapezoid(inputs["psi2"], t)
        h = t[1] - t[0]
        assert abs(rep.params["bound"] - 2.0) <= 2.0 * (t[-1] * h**2 / 12.0 + math.exp(-t[-1]))
        # E climbs to 1, so the worst slack is close to half the bound
        assert rep.worst_slack == pytest.approx(0.5, abs=1e-4)

    def test_lemma32_zero_series(self):
        t = np.linspace(0.0, 6.0, 300)
        (rep,) = check_comparison_lemma(
            "lemma32",
            [{"times": t, "G": np.zeros_like(t), "eps": 0.2, "K": 1.0, "beta": 1.0, "p": 0.5}],
        )
        assert rep.passed

    def test_lemma32_admissibility(self):
        t = np.linspace(0.0, 6.0, 300)
        with pytest.raises(ValueError):
            check_comparison_lemma(
                "lemma32",
                [{"times": t, "G": np.zeros_like(t), "eps": 0.6, "K": 1.0, "beta": 1.0, "p": 0.5}],
            )

    def test_lemma33_nonzero_start_is_hypothesis_failure(self):
        t = np.linspace(0.0, 6.0, 300)
        (rep,) = check_comparison_lemma(
            "lemma33",
            [{"times": t, "E": 0.5 + 0.0 * t, "psi1": np.zeros_like(t), "psi2": np.exp(-t)}],
        )
        assert not rep.passed
        assert rep.params["failure_kind"] == "hypothesis"

    def test_lemma34_growing_series_fails_hypothesis(self):
        t = np.linspace(0.0, 6.0, 400)
        (rep,) = check_comparison_lemma(
            "lemma34",
            [{"times": t, "F": np.exp(0.5 * t), "psi": np.zeros_like(t),
              "T": 0.0, "beta": 1.0, "p": 0.0}],
        )
        assert not rep.passed
        assert rep.params["failure_kind"] == "hypothesis"

    def test_lemma34_on_measured_perturbation_energy(self):
        # a full small pipeline: measured script-F with its measured psi3
        op, m, p, eps = OP1, M1, 0.5, 0.05
        u0 = np.array([1.0])
        u1 = -op.eigenvalues * u0          # well prepared, theta0 = 0
        t_end, n = 10.0, 1000
        par = integrate("parabolic", u0, t_end, n, CFG, op, m, p)
        hyp = integrate("hyperbolic", (u0, u1), t_end, n, CFG, op, m, p, eps=eps)
        th0 = theta0(u0, u1, op, m)
        theta_p = corrector_velocity(th0, eps, p, par.times)
        rho, rp = remainders(hyp, par, theta_p)
        g = residual_series(hyp, par)
        lp = perturbation_params(1.0, p, 1.0, 1.0)
        psi3 = assemble_psi3(hyp, rho, theta_p, g, lp)
        from klab.energies import energy_F
        F = energy_F(rho, rp, par.times, eps, hyp.c_trace, op, lp)
        (rep,) = check_comparison_lemma(
            "lemma34",
            [{"times": par.times, "F": F, "psi": psi3, "T": lp.T, "beta": 1.0, "p": p}],
        )
        assert rep.passed
        # the conclusion constant is F(T)/Phi(T) + the psi/Phi integral;
        # cross-check the integral with an independent quadrature rule
        phi_vals = np.array([phi(1.0, p, float(s)) for s in par.times])
        iT = int(np.searchsorted(par.times, lp.T))
        oracle_const = F[iT] / phi_vals[iT] + simpson(psi3 / phi_vals, x=par.times)
        assert rep.params["bound_constant"] == pytest.approx(oracle_const, rel=1e-3)

    def test_synthetic_instances_never_fail_conclusions(self):
        rng = np.random.default_rng(99)
        for kind in ("lemma32", "lemma33", "lemma34"):
            for _ in range(25):
                inputs = synthetic_lemma_instances(kind, rng, 1)[0]
                (rep,) = check_comparison_lemma(kind, [inputs])
                assert rep.params.get("failure_kind") != "conclusion", (kind, rep.params)
                assert rep.passed, (kind, rep.worst_slack, rep.params)

    @pytest.mark.parametrize("kind", ["lemma32", "lemma33", "lemma34"])
    def test_one_batch_is_the_single_instances(self, kind):
        singles_rng, batch_rng = np.random.default_rng(99), np.random.default_rng(99)
        singles = [synthetic_lemma_instances(kind, singles_rng, 1)[0] for _ in range(25)]
        batch = synthetic_lemma_instances(kind, batch_rng, 25)
        # the same draws, in the same order, leaving the generators in step
        assert singles_rng.random() == batch_rng.random()
        # lemma33's instances are one system under one error norm, so a lone
        # instance takes other steps than the 25; both solve to near rounding
        # (abs_tol 1e-20 holds the start E(0) = 0, where E' = psi1 sqrt(E) +
        # psi2 is not Lipschitz), and on these draws they differ by at most
        # 7.5e-11 (instance 21).  The linear kinds' march does each member's
        # arithmetic apart from the others, so a batch member has its
        # single's bits.
        rtol = 1e-9 if kind == "lemma33" else 0.0
        for one, member in zip(singles, batch):
            assert sorted(one) == sorted(member)
            for key, want in one.items():
                if key == "steps":
                    continue
                if np.ndim(want) == 0:
                    assert member[key] == want, key
                else:
                    np.testing.assert_allclose(member[key], want, rtol=rtol, atol=0.0)
        assert batch[0]["steps"] is batch[-1]["steps"]
        if kind == "lemma33":
            assert batch[0]["steps"]["accepted"] > 0
        else:
            assert batch[0]["steps"] == {"intervals": 599, "nodes": 8}

    @staticmethod
    def _varied_batch(kind):
        """Synthetic instances altered to reach every branch of the check."""
        instances = synthetic_lemma_instances(kind, np.random.default_rng(7), 16)
        if kind == "lemma33":
            instances[2] = dict(instances[2], E=instances[2]["E"] + 0.25)  # E(0) != 0
        else:
            key, inst = LEMMA_SERIES[kind], instances[1]
            instances[1] = dict(inst, **{key: inst[key] * np.exp(0.5 * inst["times"])})
            # the exponents numpy takes by a shortcut: p = 0.5 and 2p = 1, p = 1 and 2p = 2
            assert {0.5, 1.0} <= {inst["p"] for inst in instances}
        if kind == "lemma34":
            last = float(instances[6]["times"][-1])
            for i, T in zip(range(3, 7), (0.0, 0.9, 2.5, last)):
                instances[i] = dict(instances[i], T=T)  # the last leaves no interval
        return instances

    @pytest.mark.parametrize("kind", ["lemma32", "lemma33", "lemma34"])
    def test_a_batch_reports_each_instance_as_alone(self, kind):
        instances = self._varied_batch(kind)
        batch = check_comparison_lemma(kind, instances)
        alone = [_one_instance_report(kind, inst) for inst in instances]
        assert [repr(rep) for rep in batch] == [repr(rep) for rep in alone]
        ones = [check_comparison_lemma(kind, [inst])[0] for inst in instances]
        assert [repr(rep) for rep in batch] == [repr(rep) for rep in ones]
        failed = 2 if kind == "lemma33" else 1
        assert batch[failed].params["failure_kind"] == "hypothesis"
        if kind == "lemma34":
            assert batch[6].worst_t == instances[6]["times"][-1]
        assert any(rep.passed for rep in batch)

    def test_a_batch_rejects_what_one_instance_cannot_be(self):
        instances = synthetic_lemma_instances("lemma34", np.random.default_rng(7), 2)
        shorter = {key: value[:-1] if np.ndim(value) else value for key, value in instances[1].items()}
        with pytest.raises(ValueError, match="shape"):
            check_comparison_lemma("lemma34", [instances[0], shorter])
        past = dict(instances[1], T=float(instances[1]["times"][-1]) + 0.5)
        with pytest.raises(ValueError, match="past the last sample"):
            check_comparison_lemma("lemma34", [instances[0], past])
        with pytest.raises(ValueError, match="sequence"):
            check_comparison_lemma("lemma34", instances[0])
        with pytest.raises(ValueError, match="sequence"):
            check_comparison_lemma("lemma34", [])

    def test_batch_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            synthetic_lemma_instances("lemma32", rng, 0)
        with pytest.raises(ValueError):
            synthetic_lemma_instances("lemma99", rng, 2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            check_comparison_lemma("lemma99", [{"times": [0, 1]}])


# ---------------------------------------------------------------------------
# coefficient hypotheses, residual bounds, corrector integral
# ---------------------------------------------------------------------------

class TestHypothesisChain:
    def test_constant_mass_gives_zero_moduli(self):
        op = SpectralOperator(np.array([1.0, 2.0]), 1.0)
        par = integrate("parabolic", [1.0, 0.5], 6.0, 200, CFG, op, M1, 0.5)
        runs = [integrate("hyperbolic", ([1.0, 0.5], [0.0, 0.0]), 6.0, 200, CFG, op, M1,
                          0.5, eps=e) for e in (0.04, 0.02)]
        rep = check_hypotheses(runs, par)
        assert rep.passed
        assert rep.params["M2"] == 0.0
        for d in (rep.params["M4"], rep.params["M5"]):
            assert all(v == 0.0 for v in d.values())

    def test_affine_sweep_is_stable(self):
        op = SpectralOperator(np.array([1.0, 2.0]), 1.0)
        m = MassFunction("affine", 1.0, 1.0)
        par = integrate("parabolic", [1.0, 0.5], 8.0, 400, CFG, op, m, 0.5)
        runs = [integrate("hyperbolic", ([1.0, 0.5], [0.0, 0.0]), 8.0, 400, CFG, op, m,
                          0.5, eps=e) for e in (0.04, 0.02, 0.01)]
        rep = check_hypotheses(runs, par)
        assert rep.passed
        assert rep.params["M1"] >= 1.0


class TestCorrectorIntegral:
    # int_0^inf z_eps / phi is kernel_integral(1/eps - beta, p), as check_residual_bounds takes it
    def test_p_zero_closed_form(self):
        # 1/(1/eps - beta): the left end of the worked grid
        assert kernel_integral(1.0 / 0.2 - 1.0, 0.0) == pytest.approx(0.25, abs=1e-12)
        assert kernel_integral(1.0 / 0.1 - 0.5, 0.0) == pytest.approx(1.0 / 9.5, abs=1e-12)

    def test_matches_independent_quadrature(self):
        for p in (0.3, 0.5, 1.0):
            ours = kernel_integral(1.0 / 0.1 - 1.0, p)
            theirs = oracles.corrector_over_phi(0.1, 1.0, p)
            assert ours == pytest.approx(theirs, rel=1e-8)

    def test_divergent_combination_rejected(self):
        with pytest.raises(ValueError):
            kernel_integral(1.0 / 0.5 - 2.0, 0.0)


class TestResidualBounds:
    def test_constant_mass_normalization_is_eps_free(self):
        op = SpectralOperator(np.array([1.0, 2.0]), 1.0)
        par = integrate("parabolic", [1.0, -0.3], 8.0, 400, CFG, op, M1, 0.5)
        by_eps = {}
        for eps in (0.04, 0.02, 0.01):
            hyp = integrate("hyperbolic", ([1.0, -0.3], [0.0, 0.0]), 8.0, 400, CFG, op, M1,
                            0.5, eps=eps)
            g = residual_series(hyp, par)
            by_eps[eps] = np.array([float(row @ row) for row in g])
        rep = check_residual_bounds(par.times, by_eps, 1.0, 0.5, 1.0, 1.0)
        assert rep.passed
        # with constant m the residual is exactly -eps*u'', so |g|^2/eps^2
        # is the same series for every eps
        i_vals = list(rep.params["integral_over_eps_sq"].values())
        assert max(i_vals) / min(i_vals) == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# optimality, onset, sweeps, pointwise bounds
# ---------------------------------------------------------------------------

class TestOptimality:
    def test_scalar_profile_ratio(self):
        # exp(-2t) against the underdamped flow at eps 0.75, whose energy
        # decays at 1/eps = 4/3: H grows like e^{2t/3}
        traj = integrate("hyperbolic", ([1.0], [0.0]), 8.0, 400, CFG, OP1, M1, 0.0, eps=0.75)
        s = series(traj)
        rep = check_optimality(traj, s["E"], s["gamma"])
        assert rep.passed
        assert rep.params["profile"]["form"] == "exp" and rep.params["profile"]["beta"] == 2.0
        assert 14.0 <= rep.params["ratio"] <= 18.0
        # the log-space ratio is the plain one where the profile is representable
        H = s["E"] / np.exp(-2.0 * traj.times)
        plain = H[-1] / H[int(np.searchsorted(traj.times, 4.0))]
        assert rep.params["ratio"] == pytest.approx(plain, rel=1e-12)

    def test_envelope_matching_profile_rejected(self):
        # the lowest mode below eps = 1/(2 mu nu) decays faster than exp(-2t):
        # a failing report naming the profile, not an exception
        traj = integrate("hyperbolic", ([1.0], [0.0]), 8.0, 400, CFG, OP1, M1, 0.0, eps=0.1)
        s = series(traj)
        rep = check_optimality(traj, s["E"], s["gamma"])
        assert not rep.passed
        assert rep.params["failure_kind"] == "profile"
        assert rep.params["beta_hat"] == 2.0
        assert rep.params["fitted_rate"] == pytest.approx(oracles.SCALAR_SQ_RATE, rel=1e-3)

    def test_psi_form_requires_positive_p(self):
        # the profile follows from the run: psi at the limit rate for p > 0,
        # the plain exponential at p = 0
        profiles = {}
        for p in (0.5, 0.0):
            traj = integrate("hyperbolic", ([1.0], [0.0]), 4.0, 100, CFG, OP1, M1, p, eps=0.75)
            s = series(traj)
            profiles[p] = check_optimality(traj, s["E"], s["gamma"]).params["profile"]
        assert profiles[0.5] == {"form": "psi", "alpha": gamma_rate(1.0, 1.0, 0.5)}
        assert profiles[0.0]["form"] == "exp" and profiles[0.0]["beta"] == 2.0

    def test_an_underflowing_profile_still_gives_a_verdict(self):
        # psi(4/3, 0.5, t) falls below the smallest double past t = 67, so
        # E / psi is no number there; log space keeps H
        traj = integrate("hyperbolic", ([1.0], [0.0]), 80.0, 800, CFG, OP1, M1, 0.5, eps=0.05)
        assert klab.psi(gamma_rate(1.0, 1.0, 0.5), 0.5, traj.times[-1]) == 0.0
        s = series(traj)
        rep = check_optimality(traj, s["E"], s["gamma"])
        assert rep.passed and math.isfinite(rep.worst_slack)
        assert rep.params["ratio"] > 1e200

    def test_zero_data_give_a_finite_failing_slack(self):
        # log E = -inf everywhere, so H shows no growth; at p = 0 a zero gamma
        # has no rate to fit, so the profile is not known to be faster
        reps = {}
        for p in (0.5, 0.0):
            traj = integrate("hyperbolic", ([0.0], [0.0]), 4.0, 100, CFG, OP1, M1, p, eps=0.75)
            s = series(traj)
            reps[p] = check_optimality(traj, s["E"], s["gamma"])
            assert not reps[p].passed and reps[p].worst_slack == -1.0
        assert reps[0.5].params["ratio"] == 0.0
        assert reps[0.0].params["failure_kind"] == "profile"
        assert math.isnan(reps[0.0].params["fitted_rate"])

    def test_p_zero_ratio_eventually_monotone(self):
        # the divergence profile at 1.2x the fitted rate grows monotonically
        # once the fast mode is gone
        traj = integrate("hyperbolic", ([1.0], [0.0]), 8.0, 800, CFG, OP1, M1, 0.0, eps=0.1)
        gam = series(traj)["gamma"]
        fit = fit_decay_exponent(traj.times, gam, 0.0, "t", window=(3.2, 8.0))
        beta_hat = 1.2 * (-fit.slope)
        ratio = gam * np.exp(beta_hat * traj.times)
        increasing = np.diff(ratio) > 0
        switch = np.flatnonzero(~increasing)
        assert increasing[-1]
        assert switch.size == 0 or traj.times[switch[-1]] <= 4.0


def test_oscillation_onset_values():
    # level 2 coincides with the profile-ratio turnaround
    assert oscillation_onset(0.02, 0.5, 1.0) == pytest.approx(24.0)
    assert oscillation_onset(0.05, 0.3, 1.0) == pytest.approx(10.0 ** (1.0 / 0.6) - 1.0)
    # already past level 2 at t = 0
    assert oscillation_onset(1.0, 0.5, 1.0) == 0.0
    # past double range as p -> 0
    assert oscillation_onset(0.02, 1e-300, 1.0) == math.inf
    with pytest.raises(ValueError):
        oscillation_onset(0.02, 0.0, 1.0)


class TestDecayErrorSweep:
    def test_zero_data_is_trivially_stable(self):
        # zero data leave zero remainder energies on every run of the sweep
        times = np.linspace(0.0, 4.0, 100)
        zero = {eps: np.zeros(100) for eps in (0.04, 0.02, 0.01)}
        rep = epsilon_sweep_decay_error(times, zero, 1.0, 0.5, 1.0, 1.0)
        assert rep.passed
        assert all(v == 0.0 for v in rep.params["S_eps"].values())

    def test_sweep_validation(self):
        times = np.linspace(0.0, 4.0, 100)
        with pytest.raises(ValueError):
            epsilon_sweep_decay_error(times, {e: np.ones(100) for e in (0.04, 0.02)},
                                      1.0, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            epsilon_sweep_decay_error(times, {e: np.ones(100) for e in (0.04, 0.03, 0.02)},
                                      1.0, 0.5, 1.0, 1.0)


def test_uniform_decay_weights_stable_for_constant_mass():
    runs = [integrate("hyperbolic", ([1.0], [0.0]), 10.0, 500, CFG, OP1, M1, 0.5, eps=e)
            for e in (0.04, 0.02)]
    par = integrate("parabolic", [1.0], 10.0, 500, CFG, OP1, M1, 0.5)
    rep = check_uniform_decay_weights(runs, par)
    assert rep.passed
    assert rep.params["C_2_4"] > 0.0
    assert rep.params["C_2_2"] > 0.0


class TestParabolicPointwise:
    def test_headroom_slack_at_start(self):
        traj = integrate("parabolic", [1.0], 6.0, 300, CFG, OP1, M1, 0.5)
        rep = check_parabolic_pointwise(traj)
        assert rep.passed
        # at lambda = nu every norm decays exactly at the theorem rate, so the
        # ratio to the bound is flat and the slack is pure headroom
        assert rep.worst_slack == pytest.approx(1.0 - 1.0 / 1.05, rel=1e-6)

    def test_requires_constant_mass(self):
        aff = MassFunction("affine", 1.0, 1.0)
        traj = integrate("parabolic", [1.0], 6.0, 300, CFG, OP1, aff, 0.5)
        with pytest.raises(ValueError):
            check_parabolic_pointwise(traj)


class TestOpenProblemProbe:
    def test_scalar_rate_beats_threshold(self):
        run = integrate("hyperbolic", ([1.0], [0.0]), 8.0, 400, CFG, OP1, M1, 0.0, eps=0.1)
        out = probe_open_problem([run], {0.1: series(run)["gamma"]})
        assert out["informational"] is True
        assert out["rate"] == pytest.approx(2.0)
        entry = out["per_eps"]["0.1"]
        # scalar slow-root rate 2.254 > 2, so the weighted product peaks early
        assert not entry["grows"]
        assert math.isfinite(entry["sup_log_weighted"])

    def test_zero_data_supremum_is_log_zero(self):
        run = integrate("hyperbolic", ([0.0], [0.0]), 4.0, 100, CFG, OP1, M1, 0.0, eps=0.1)
        out = probe_open_problem([run], {0.1: series(run)["gamma"]})
        assert out["per_eps"]["0.1"]["sup_log_weighted"] == -math.inf

    def test_rejects_varying_mass(self):
        run = integrate("hyperbolic", ([1.0], [0.0]), 4.0, 100, CFG, OP1,
                        MassFunction("affine", 1.0, 1.0), 0.0, eps=0.1)
        with pytest.raises(ValueError):
            probe_open_problem([run], {0.1: series(run)["gamma"]})
