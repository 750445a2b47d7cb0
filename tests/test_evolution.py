"""Time integration, closed forms, corrector, and residual traces."""

import math

import numpy as np
import pytest

from klab import (
    IntegrationError,
    IntegratorConfig,
    MassFunction,
    SpectralOperator,
    Trajectory,
    coefficient_derivative,
    corrector,
    corrector_series,
    hyperbolic_log_energy,
    hyperbolic_rhs,
    integrate,
    parabolic_closed_form,
    parabolic_rhs,
    parabolic_second_derivative,
    remainders,
    residual_g,
    theta0,
    z_eps,
)
import oracles

OP1 = SpectralOperator(np.array([1.0]), 1.0)
M1 = MassFunction("constant", 1.0)
CFG = IntegratorConfig()


class TestRightHandSides:
    def test_hyperbolic_worked_values(self):
        du, dv = hyperbolic_rhs(0.0, np.array([1.0]), np.array([1.0]), 1.0, 0.7, OP1, M1)
        np.testing.assert_allclose(du, [1.0])
        np.testing.assert_allclose(dv, [-2.0])

        du, dv = hyperbolic_rhs(0.0, np.array([0.0]), np.array([0.0]), 0.5, 0.0, OP1, M1)
        np.testing.assert_array_equal(du, [0.0])
        np.testing.assert_array_equal(dv, [0.0])

        _, dv = hyperbolic_rhs(3.0, np.array([0.0]), np.array([1.0]), 0.5, 1.0, OP1, M1)
        np.testing.assert_allclose(dv, [-0.5])

    def test_parabolic_worked_values(self):
        assert parabolic_rhs(0.0, np.array([0.0]), 0.3, OP1, M1) == pytest.approx([0.0])

        op2 = SpectralOperator(np.array([2.0]), 1.0)
        m3 = MassFunction("constant", 3.0)
        du = parabolic_rhs(0.0, np.array([1.0]), 0.9, op2, m3)
        np.testing.assert_allclose(du, [-6.0])

        du = parabolic_rhs(1.0, np.array([1.0]), 1.0, OP1, M1)
        np.testing.assert_allclose(du, [-2.0])


class TestParabolicClosedForm:
    def test_worked_values(self):
        np.testing.assert_allclose(
            parabolic_closed_form(OP1, [1.0], 0.0, 1.0, 1.0), [math.exp(-1.0)], rtol=1e-15)
        np.testing.assert_allclose(
            parabolic_closed_form(OP1, [1.0], 1.0, 1.0, 1.0), [math.exp(-1.5)], rtol=1e-15)
        np.testing.assert_array_equal(
            parabolic_closed_form(OP1, [0.7], 0.5, 2.0, 0.0), [0.7])

    def test_integration_matches_closed_form(self):
        # error control is normwise: every mode sits within 10*rel_tol of the
        # closed form relative to the state norm
        op = SpectralOperator(np.array([1.0, 2.5, 4.0]), 1.0)
        u0 = [1.0, -0.4, 0.2]
        for p in (0.0, 0.5, 1.0):
            traj = integrate("parabolic", u0, 4.0, 160, CFG, op, M1, p)
            for i in (40, 80, 159):
                expected = parabolic_closed_form(op, u0, p, 1.0, float(traj.times[i]))
                gap = np.max(np.abs(traj.u[i] - expected))
                assert gap <= 10 * CFG.rel_tol * np.linalg.norm(expected) + 1e-14

    def test_scalar_example_to_1e8(self):
        traj = integrate("parabolic", [1.0], 1.0, 64, CFG, OP1, M1, 0.0)
        assert traj.u[-1][0] == pytest.approx(math.exp(-1.0), abs=1e-8)


class TestHyperbolicOracle:
    def test_real_root_regime(self):
        traj = integrate("hyperbolic", ([1.0], [0.0]), 10.0, 500, CFG, OP1, M1, 0.0, eps=0.1)
        exact = oracles.scalar_solution(0.1, 1.0, 1.0, 0.0, traj.times)
        err = np.max(np.abs(traj.u[:, 0] - exact))
        assert err <= 10 * CFG.rel_tol

    def test_oscillatory_regime(self):
        # 4 eps mu nu = 1.2 > 1: complex roots, decaying oscillation
        traj = integrate("hyperbolic", ([1.0], [0.5]), 10.0, 800, CFG, OP1, M1, 0.0, eps=0.3)
        exact = oracles.scalar_solution(0.3, 1.0, 1.0, 0.5, traj.times)
        vexact = oracles.scalar_velocity(0.3, 1.0, 1.0, 0.5, traj.times)
        assert np.max(np.abs(traj.u[:, 0] - exact)) <= 10 * CFG.rel_tol
        assert np.max(np.abs(traj.v[:, 0] - vexact)) <= 100 * CFG.rel_tol

    def test_tolerance_halving_improves_error(self):
        errs = []
        for rtol in (1e-6, 5e-7, 2.5e-7):
            cfg = IntegratorConfig(rel_tol=rtol, abs_tol=1e-300)
            traj = integrate("hyperbolic", ([1.0], [0.0]), 8.0, 200, cfg, OP1, M1, 0.0, eps=0.1)
            exact = oracles.scalar_solution(0.1, 1.0, 1.0, 0.0, traj.times)
            errs.append(np.max(np.abs(traj.u[:, 0] - exact)))
        # each halving cuts the error by 2x, up to controller granularity
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= coarse / 2.0 * 1.02

    def test_zero_data_stays_zero(self):
        traj = integrate("hyperbolic", ([0.0], [0.0]), 5.0, 50, CFG, OP1, M1, 0.5, eps=0.05)
        assert np.all(traj.u == 0.0)
        assert np.all(traj.v == 0.0)


class TestCorrector:
    def test_worked_values(self):
        th, thp = corrector([1.0], 0.5, 0.0, 1.0)
        np.testing.assert_allclose(thp, [math.exp(-2.0)], rtol=1e-14)
        np.testing.assert_allclose(th, [0.5 * (1.0 - math.exp(-2.0))], rtol=1e-14)

        _, thp = corrector([1.0], 0.5, 1.0, 1.0)
        np.testing.assert_allclose(thp, [0.25], rtol=1e-14)

        th, thp = corrector([2.0, -1.0], 0.1, 0.3, 0.0)
        np.testing.assert_array_equal(th, [0.0, 0.0])
        np.testing.assert_allclose(thp, [2.0, -1.0])

    def test_ode_residual(self):
        # theta'' from the closed-form derivative of z:
        # eps z' = -(1+t)^{-p} z exactly, so the residual measures quadrature
        # and roundoff only.
        t0 = np.array([1.0, -3.0])
        norm0 = math.sqrt(10.0)
        for eps in (0.05, 0.4):
            for p in (0.0, 0.3, 1.0):
                for t in np.linspace(0.0, 6.0, 13):
                    _, thp = corrector(t0, eps, p, float(t))
                    theta_dd = -((1.0 + t) ** (-p)) * thp / eps
                    resid = eps * theta_dd + (1.0 + t) ** (-p) * thp
                    assert np.max(np.abs(resid)) <= 1e-8 * norm0

    def test_series_consistent_with_quadrature(self):
        times = np.linspace(0.0, 5.0, 2001)
        theta, theta_p = corrector_series([1.0], 0.08, 0.5, times)
        np.testing.assert_allclose(theta_p[:, 0], [z_eps(0.08, 0.5, t) for t in times],
                                   rtol=1e-12)
        # derivative of the accumulated theta matches theta' away from t=0
        d = np.gradient(theta[:, 0], times)
        mid = slice(200, 1800)
        np.testing.assert_allclose(d[mid], theta_p[mid, 0], atol=2e-5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            corrector([1.0], 0.1, 1.5, 1.0)
        with pytest.raises(ValueError):
            corrector([1.0], -0.1, 0.5, 1.0)


def test_theta0_worked_values():
    np.testing.assert_allclose(theta0([1.0], [0.0], OP1, M1), [1.0])
    np.testing.assert_allclose(theta0([0.0], [3.0], OP1, M1), [3.0])
    op2 = SpectralOperator(np.array([2.0]), 1.0)
    aff = MassFunction("affine", 1.0, 1.0)
    np.testing.assert_allclose(theta0([1.0], [1.0], op2, aff), [7.0])


def test_well_prepared_data_kills_theta0():
    op = SpectralOperator(np.array([1.0, 3.0]), 1.0)
    m = MassFunction("rational", 1.0, 2.0)
    u0 = np.array([0.8, -0.1])
    sigma = float(u0 @ (op.eigenvalues * u0))
    u1 = -(1.0 + 2.0 / (1.0 + sigma)) * op.eigenvalues * u0
    np.testing.assert_allclose(theta0(u0, u1, op, m), [0.0, 0.0], atol=1e-15)


class TestCoefficientTraces:
    def test_derivative_worked_values(self):
        aff = MassFunction("affine", 1.0, 1.0)
        traj = Trajectory("hyperbolic", np.array([0.0, 1.0]),
                          np.array([[1.0], [1.0]]), np.array([[-1.0], [-1.0]]),
                          np.array([2.0, 2.0]))
        assert coefficient_derivative(traj, OP1, aff)[0] == pytest.approx(-2.0)
        const_run = Trajectory("hyperbolic", np.array([0.0, 1.0]),
                               np.array([[1.0], [1.0]]), np.array([[-1.0], [-1.0]]),
                               np.array([1.0, 1.0]))
        assert coefficient_derivative(const_run, OP1, M1)[0] == 0.0
        rest = Trajectory("hyperbolic", np.array([0.0, 1.0]),
                          np.zeros((2, 1)), np.zeros((2, 1)), np.array([1.0, 1.0]))
        assert coefficient_derivative(rest, OP1, aff)[0] == 0.0

    def test_parabolic_trace_uses_ode_velocity(self):
        aff = MassFunction("affine", 1.0, 1.0)
        traj = Trajectory("parabolic", np.array([0.0, 1.0]),
                          np.array([[1.0], [0.5]]), None, np.array([2.0, 1.25]),
                          meta={"p": 0.0})
        # at t=0: sigma = 1, c = 2, so u' = -c*lam*u = -2 and c' = 2*1*(1*-2)
        assert coefficient_derivative(traj, OP1, aff)[0] == pytest.approx(-4.0)

    def test_trace_respects_lower_bound(self):
        for m in (MassFunction("affine", 0.5, 2.0), MassFunction("rational", 0.7, 3.0)):
            traj = integrate("hyperbolic", ([1.0, 0.3], [0.0, 0.0]), 8.0, 300, CFG,
                             SpectralOperator(np.array([1.0, 2.0]), 1.0), m, 0.5, eps=0.05)
            mu = 0.5 if m.variant == "affine" else 0.7
            assert np.all(traj.c_trace >= mu - 1e-12)
            assert np.isfinite(traj.c_trace).all()


class TestSecondDerivativeAndResidual:
    def test_parabolic_second_derivative_values(self):
        zero = np.array([0.0])
        np.testing.assert_array_equal(parabolic_second_derivative(0.0, zero, 0.0, OP1, M1), [0.0])

        np.testing.assert_allclose(
            parabolic_second_derivative(2.0, np.array([1.0]), 0.0, OP1, M1), [1.0])

        op2 = SpectralOperator(np.array([2.0]), 1.0)
        np.testing.assert_allclose(parabolic_second_derivative(
            0.0, np.array([1.0]), 0.0, op2, M1), [4.0])

    def test_residual_worked_values(self):
        zero = np.array([0.0])
        np.testing.assert_array_equal(residual_g(0.0, zero, 1.0, OP1, M1, 0.0, 0.1), [0.0])

        np.testing.assert_allclose(
            residual_g(0.0, np.array([1.0]), 1.0, OP1, M1, 0.0, 0.1), [-0.1])

    def test_constant_mass_residual_is_pure_acceleration(self):
        traj = integrate("parabolic", [1.0, -0.2], 3.0, 120, CFG,
                         SpectralOperator(np.array([1.0, 2.0]), 1.0), M1, 0.5)
        op = SpectralOperator(np.array([1.0, 2.0]), 1.0)
        for i in (0, 60, 119):
            t, u = traj.times[i], traj.u[i]
            g = residual_g(t, u, 1.0, op, M1, 0.5, 0.02)
            udd = parabolic_second_derivative(t, u, 0.5, op, M1)
            np.testing.assert_allclose(g, -0.02 * udd, rtol=1e-14)


class TestRemainders:
    def _pair(self, eps, u0, u1, t_end=6.0, n=240):
        op = SpectralOperator(np.array([1.0, 2.0]), 1.0)
        par = integrate("parabolic", u0, t_end, n, CFG, op, M1, 0.5)
        hyp = integrate("hyperbolic", (u0, u1), t_end, n, CFG, op, M1, 0.5, eps=eps)
        return op, par, hyp

    def test_initial_values_vanish(self):
        u0, u1 = [1.0, 0.5], [0.2, -0.3]
        op, par, hyp = self._pair(0.05, u0, u1)
        th0 = theta0(u0, u1, op, M1)
        rho, r, rp = remainders(hyp, par, *corrector_series(th0, 0.05, 0.5, par.times))
        np.testing.assert_allclose(rho[0], [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(r[0], [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(rp[0], [0.0, 0.0], atol=1e-12)

    def test_reconstruction_identity(self):
        u0, u1 = [1.0, 0.5], [0.2, -0.3]
        op, par, hyp = self._pair(0.05, u0, u1)
        th0 = theta0(u0, u1, op, M1)
        theta, theta_p = corrector_series(th0, 0.05, 0.5, par.times)
        rho, r, _ = remainders(hyp, par, theta, theta_p)
        # u_eps = u + theta + r at every sample, to roundoff
        np.testing.assert_allclose(par.u + theta + r, hyp.u, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(rho, hyp.u - par.u, rtol=0.0, atol=0.0)

    def test_identical_runs_give_zero(self):
        # a synthetic second-order run tracing the parabolic flow exactly,
        # with velocities equal to the parabolic ODE velocity
        u0 = [1.0, 0.5]
        op = SpectralOperator(np.array([1.0, 2.0]), 1.0)
        par = integrate("parabolic", u0, 6.0, 240, CFG, op, M1, 0.5)
        from klab import parabolic_rhs
        v = parabolic_rhs(par.times, par.u, 0.5, op, M1)
        twin = Trajectory("hyperbolic", par.times, par.u, v, par.c_trace,
                          meta=dict(par.meta))
        rho, r, rp = remainders(twin, par, *corrector_series(np.zeros(2), 0.05, 0.5, par.times))
        assert not rho.any() and not r.any() and not rp.any()

    def test_grid_mismatch_rejected(self):
        u0, u1 = [1.0, 0.5], [0.2, -0.3]
        op, par, hyp = self._pair(0.05, u0, u1)
        short = integrate("parabolic", u0, 5.0, 240, CFG, op, M1, 0.5)
        with pytest.raises(ValueError):
            remainders(hyp, short, *corrector_series(theta0(u0, u1, op, M1), 0.05, 0.5,
                                                     short.times))


class TestLogEnergyProbe:
    def test_agrees_with_plain_run(self):
        times, logs = hyperbolic_log_energy(OP1, M1, 0.05, 0.5, [1.0], [0.0], 12.0, 300, CFG)
        traj = integrate("hyperbolic", ([1.0], [0.0]), 12.0, 300, CFG, OP1, M1, 0.5, eps=0.05)
        from klab.analysis import hyperbolic_series
        gamma = hyperbolic_series(traj, 0.05, OP1)["gamma"]
        np.testing.assert_allclose(times, traj.times)
        np.testing.assert_allclose(logs, np.log(gamma), atol=1e-6)

    def test_survives_depths_plain_doubles_cannot(self):
        # log Gamma lands below -750 here, past the range exp() can represent
        times, logs = hyperbolic_log_energy(OP1, M1, 0.02, 0.3, [1.0], [0.0], 120.0, 600, CFG)
        assert np.isfinite(logs).all()
        assert logs[-1] < -750.0
        assert logs[-1] < logs[0]


class TestConfigAndFailures:
    def test_integrator_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=1e-2)
        with pytest.raises(ValueError):
            IntegratorConfig(abs_tol=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(max_step=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(oscillation_safety=-1.0)

    def test_overflowing_state_is_typed_failure(self):
        # lam*u/eps overflows double range on the first step
        huge = SpectralOperator(np.array([1e308]), 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError):
                integrate("hyperbolic", ([1e30], [0.0]), 1.0, 16, CFG, huge, M1, 0.0, eps=1e-3)

    def test_bad_problem_arguments(self):
        with pytest.raises(ValueError):
            integrate("hyperbolic", ([1.0], [0.0]), 1.0, 16, CFG, OP1, M1, 0.0)  # eps missing
        with pytest.raises(ValueError):
            integrate("elliptic", [1.0], 1.0, 16, CFG, OP1, M1, 0.0)
        with pytest.raises(ValueError):
            integrate("parabolic", [1.0], -1.0, 16, CFG, OP1, M1, 0.0)


def test_trajectory_validation():
    times = np.array([0.0, 1.0, 0.5])
    u = np.zeros((3, 1))
    with pytest.raises(ValueError):
        Trajectory("parabolic", times, u, None, np.ones(3))
    with pytest.raises(ValueError):
        Trajectory("parabolic", np.array([0.0, 1.0, 2.0]), u, None, np.ones(2))
    with pytest.raises(ValueError):
        Trajectory("sideways", np.array([0.0, 1.0, 2.0]), u, None, np.ones(3))
