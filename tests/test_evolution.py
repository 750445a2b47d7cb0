"""Time integration, closed forms, corrector, and residual traces."""

import dataclasses
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
    corrector_velocity,
    integrate,
    power_spectrum,
    remainders,
    residual_series,
    theta0,
    weight_integral,
)
import klab._rk
import klab.evolution
from klab.energies import gamma_eps
import oracles

OP1 = SpectralOperator(np.array([1.0]), 1.0)
M1 = MassFunction("constant", 1.0)
CFG = IntegratorConfig()
NO_STEPS: dict = {}


def hand_run(kind, u, v, c, mass=M1, eps=None, op=OP1, times=(0.0, 1.0)):
    """A trajectory built by hand, two samples unless `times` says otherwise, at p = 0."""
    return Trajectory(kind, np.array(times), np.array(u), v if v is None else np.array(v),
                      np.array(c), 0.0, op, mass, eps, CFG.rel_tol, NO_STEPS)


class TestRightHandSides:
    def test_hyperbolic_worked_values(self):
        # the system y' = f(t, y), y = (u, u'), that integrate solves, as
        # the one row of a batch
        def rhs(t, u, v, eps, p):
            f, _ = klab.evolution._hyperbolic_system(OP1, M1, [eps], p)
            return f([t], np.array([[u, v]]))[0]

        np.testing.assert_allclose(rhs(0.0, 1.0, 1.0, 1.0, 0.7), [1.0, -2.0])
        np.testing.assert_array_equal(rhs(0.0, 0.0, 0.0, 0.5, 0.0), [0.0, 0.0])
        np.testing.assert_allclose(rhs(3.0, 0.0, 1.0, 0.5, 1.0), [1.0, -0.5])

    def test_parabolic_worked_values(self):
        # u' = -(1+t)^p c A u, recomputed from the coefficient trace at each sample
        assert hand_run("parabolic", [[0.0], [0.0]], None, [1.0, 1.0]).velocity()[0] == 0.0

        op2 = SpectralOperator(np.array([2.0]), 1.0)
        m3 = MassFunction("constant", 3.0)
        run = dataclasses.replace(
            hand_run("parabolic", [[1.0], [1.0]], None, [3.0, 3.0], m3, op=op2), p=0.9)
        np.testing.assert_allclose(run.velocity()[0], [-6.0])

        run = dataclasses.replace(hand_run("parabolic", [[1.0], [1.0]], None, [1.0, 1.0]), p=1.0)
        np.testing.assert_allclose(run.velocity()[1], [-2.0])


class TestParabolicClosedForm:
    def test_worked_values(self):
        np.testing.assert_allclose(
            oracles.parabolic_closed_form(OP1, [1.0], 0.0, 1.0, 1.0), [math.exp(-1.0)], rtol=1e-15)
        np.testing.assert_allclose(
            oracles.parabolic_closed_form(OP1, [1.0], 1.0, 1.0, 1.0), [math.exp(-1.5)], rtol=1e-15)
        np.testing.assert_array_equal(
            oracles.parabolic_closed_form(OP1, [0.7], 0.5, 2.0, 0.0), [0.7])

    def test_integration_matches_closed_form(self):
        # error control is normwise: every mode sits within 10*rel_tol of the
        # closed form relative to the state norm
        op = SpectralOperator(np.array([1.0, 2.5, 4.0]), 1.0)
        u0 = [1.0, -0.4, 0.2]
        for p in (0.0, 0.5, 1.0):
            traj = integrate("parabolic", u0, 4.0, 160, CFG, op, M1, p)
            for i in (40, 80, 159):
                expected = oracles.parabolic_closed_form(op, u0, p, 1.0, float(traj.times[i]))
                gap = np.max(np.abs(traj.u[i] - expected))
                assert gap <= 10 * CFG.rel_tol * np.linalg.norm(expected) + 1e-14

    def test_scalar_example_to_1e8(self):
        traj = integrate("parabolic", [1.0], 1.0, 64, CFG, OP1, M1, 0.0)
        assert traj.u[-1][0] == pytest.approx(math.exp(-1.0), abs=1e-8)

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_every_component_matches_closed_form(self, p):
        # each mode to relative accuracy, down to hundreds of decades below the norm
        # (samples between steps come from the interpolant, so two grids)
        op = power_spectrum(1.0, 16, 2.0)
        k = np.arange(1, 17)
        u0 = (-1.0) ** k / k**2
        for samples in (256, 4096):
            traj = integrate("parabolic", u0, 16.0, samples, CFG, op, M1, p)
            exact = np.array([oracles.parabolic_closed_form(op, u0, p, 1.0, float(t))
                              for t in traj.times])
            live = np.abs(exact) > 1e-250
            assert np.min(np.abs(exact[live])) < 1e-200
            rel = np.abs(traj.u[live] - exact[live]) / np.abs(exact[live])
            assert np.max(rel) <= CFG.rel_tol


class TestParabolicPhaseSolve:
    AFFINE = MassFunction("affine", 1.0, 1.0)

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_matches_k_mode_solve(self, p):
        op = power_spectrum(1.0, 8, 2.0)
        k = np.arange(1, 9)
        u0 = (-1.0) ** k / k**2
        traj = integrate("parabolic", u0, 8.0, 200, CFG, op, self.AFFINE, p)
        lam = op.eigenvalues
        # at rel_tol 1e-10 the K-mode solve's own norm error reaches 8e-10 (p = 1)
        u = oracles.parabolic_mode_solve(lam, lambda s: 1.0 + s, u0, p, traj.times, rel_tol=1e-12)
        c = 1.0 + (u * u) @ lam
        np.testing.assert_allclose(traj.c_trace, c, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(
            np.linalg.norm(traj.u, axis=1), np.linalg.norm(u, axis=1), rtol=1e-9, atol=0.0)

    @staticmethod
    def k64_data():
        op = power_spectrum(1.0, 64, 2.0)
        k = np.arange(1, 65)
        u0 = (-1.0) ** k / k**2
        return op, u0 / math.sqrt(float(op.eigenvalues @ (u0 * u0)))

    @staticmethod
    def assert_meets_the_phase_oracle(traj, u0, times):
        exact = oracles.parabolic_phase_solve(
            traj.op.eigenvalues, lambda s: 1.0 + s, u0, traj.p, times)
        live = np.abs(exact) > 1e-290
        got = traj.u[: times.size]
        assert np.max(np.abs((got[live] - exact[live]) / exact[live])) <= traj.rel_tol

    def test_the_phase_quadrature_meets_the_oracle_at_k64(self, monkeypatch):
        # the explicit K-mode solve is stiff here: 57,503 accepted and 7,303
        # rejected steps; the phase takes no solve at all
        calls = []
        monkeypatch.setattr(klab.evolution, "solve_to_grid", lambda *args, **kw: calls.append(1))
        op, u0 = self.k64_data()
        traj = integrate("parabolic", u0, 16.0, 512, CFG, op, self.AFFINE, 0.5)
        assert calls == []
        assert traj.steps["nodes"] == 8 and 0 < traj.steps["panels"] < 1000
        self.assert_meets_the_phase_oracle(traj, u0, traj.times)

    def test_the_panels_stop_where_every_mode_has_decayed(self):
        # at p 1, m(sigma) rounds to m(0) = 1 from t = 5.07 on; from there
        # Lambda is a line in Phi, so a longer horizon takes no more panels
        op, u0 = self.k64_data()
        runs = [integrate("parabolic", u0, t_end, samples, CFG, op, self.AFFINE, 1.0)
                for t_end, samples in ((6.0, 601), (200.0, 4001), (1e4, 10001))]
        assert runs[0].c_trace[-1] == 1.0
        assert {traj.steps["panels"] for traj in runs} == {runs[0].steps["panels"]}
        for traj in runs[1:]:
            # mode 1 lives to t 37.6 (lambda_1 Lambda = 745), so this holds the
            # line to the oracle from t 5.07 on
            self.assert_meets_the_phase_oracle(traj, u0, traj.times[traj.times <= 40.0])
            # past it every mode is 0, as in the oracle, and m is m(0)
            late = traj.times > 40.0
            assert not np.any(traj.u[late]) and np.all(traj.c_trace[late] == 1.0)

    def test_a_phase_past_double_range_raises(self):
        op, u0 = self.k64_data()
        with pytest.raises(IntegrationError, match="limit flow: the phase left double range"):
            integrate("parabolic", 1e100 * u0, 16.0, 64, CFG, op, self.AFFINE, 0.5)

    def test_the_quintic_hermite_interpolant_reproduces_a_quintic(self):
        # y = t^5 - t^3 + 1 from its values and first two derivatives at
        # uneven nodes, between them and on them
        nodes = np.array([0.0, 0.3, 0.45, 1.1, 1.6, 2.0])
        t = np.linspace(0.0, 2.0, 37)
        got = klab.evolution._quintic_hermite(
            nodes, nodes**5 - nodes**3 + 1.0, 5.0 * nodes**4 - 3.0 * nodes**2,
            20.0 * nodes**3 - 6.0 * nodes, t)
        np.testing.assert_allclose(got, t**5 - t**3 + 1.0, rtol=0.0, atol=1e-13)


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
            cfg = IntegratorConfig(rel_tol=rtol)
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


@pytest.fixture(scope="module")
def retirement_data():
    """K = 64 and data whose upper modes decay fastest: ``(op, u0, u1)``."""
    op = power_spectrum(1.0, 64, 2.0)
    k = np.arange(1, 65)
    u0, u1 = (-1.0) ** k / k**2, 1.0 / k**2
    u0, u1 = (u / math.sqrt(float(op.eigenvalues @ (u * u))) for u in (u0, u1))
    return op, u0, u1


class TestModeRetirement:
    """Constant mass decouples the modes, so a per-mode DOP853 solve is an oracle."""

    T_END = 3.0

    @pytest.fixture(scope="class")
    def runs(self, retirement_data):
        # K = 64, eps 0.01, p 0.5: the step cap binds, and the upper modes
        # fall more than 40 decades below the energy within t = 3
        op, u0, u1 = retirement_data
        run = lambda: integrate(  # noqa: E731
            "hyperbolic", (u0, u1), self.T_END, 301, CFG, op, M1, 0.5, eps=0.01)
        traj = run()
        with pytest.MonkeyPatch.context() as mp:
            # a threshold no share falls below: the solve as it was without retirement
            mp.setattr(klab.evolution, "_RETIRE_SHARE", 0.0)
            unretired = run()
        log_amp, phase = oracles.hyperbolic_mode_solve(
            op.eigenvalues, 1.0, 0.01, 0.5, u0, u1, traj.times)
        w = np.sqrt(op.eigenvalues / 0.01)
        amp = np.exp(log_amp)
        exact = np.hstack([amp * np.cos(phase), -w * amp * np.sin(phase)])
        log_gamma, log_modes = oracles.hyperbolic_log_gamma(
            op.eigenvalues, 1.0, 0.01, 0.5, u0, u1, traj.times)
        return op, traj, unretired, exact, log_modes - log_gamma[:, None]

    def test_retired_modes_stay_below_the_threshold(self, runs):
        op, traj, unretired, _, log_share = runs
        lam, K = op.eigenvalues, op.dim
        assert unretired.steps["retired_modes"] == 0
        zero = (traj.u == 0.0) & (traj.v == 0.0)
        retired = zero[-1]
        assert 0 < traj.steps["retired_modes"] == np.count_nonzero(retired) < K
        assert 0.0 < traj.steps["last_retirement_t"] < self.T_END
        # the cap follows the fastest live mode, so the steps grew past the
        # cap of the fastest mode, and no further (unit mass)
        def cap(lam_top):
            return klab.evolution._OSCILLATION_SAFETY * 2.0 * math.pi * math.sqrt(0.01 / lam_top)

        assert unretired.steps["h_max"] <= cap(lam[-1]) * (1.0 + 1e-12)
        assert cap(lam[-1]) < traj.steps["h_max"] <= cap(lam[~retired][-1]) * (1.0 + 1e-12)
        for k in np.flatnonzero(retired):
            first = int(np.argmax(zero[:, k]))
            assert np.all(zero[first:, k])  # zero is a fixed point
            assert np.max(log_share[first:, k]) < math.log(klab.evolution._RETIRE_SHARE)

    def test_live_modes_match_the_oracle_as_without_retirement(self, runs):
        op, traj, unretired, exact, _ = runs
        norm = np.linalg.norm(exact, axis=1)
        live = np.tile(traj.u[-1] != 0.0, 2)

        def errors(run):
            return np.abs(np.hstack([run.u, run.v]) - exact) / norm[:, None]

        # error control is normwise: each component measured against the norm
        normwise = lambda run: np.max(np.linalg.norm(errors(run), axis=1))  # noqa: E731
        assert normwise(traj) <= normwise(unretired) * 1.01
        assert np.max(errors(traj)[:, live]) <= max(np.max(errors(unretired)), CFG.rel_tol)

    @pytest.fixture(scope="class")
    def buried(self):
        # mode 1 at 1e-20 under mode 64 (the others 0): 2e-47 of gamma at
        # the start, but overdamped at eps 0.01, p 0, so it decays about like
        # e^(-t) against mode 64's e^(-50t) and carries gamma from about t = 1
        op = power_spectrum(1.0, 64, 2.0)
        u0, u1 = np.zeros(64), np.zeros(64)
        u0[0], u0[-1] = 1e-20, 1.0
        times = np.linspace(0.0, 4.0, 41)
        log_gamma, log_modes = oracles.hyperbolic_log_gamma(
            op.eigenvalues[[0, -1]], 1.0, 0.01, 0.0, u0[[0, -1]], u1[[0, -1]], times)
        return op, u0, u1, times, log_gamma, log_modes

    def test_a_buried_slow_mode_stays_live(self, buried):
        op, u0, u1, times, oracle_log_gamma, log_modes = buried
        traj = integrate("hyperbolic", (u0, u1), times[-1], times.size, CFG, op, M1, 0.0,
                         eps=0.01)
        # mode 64 retires once mode 1 holds gamma; the 62 modes that start
        # at 0 leave the cap uncounted
        assert traj.steps["retired_modes"] == 1 and np.all(traj.u[-1, 1:] == 0.0)
        assert np.all(traj.u[:, 0] != 0.0)
        log_gamma = np.log(gamma_eps(traj.u, traj.v, 0.01, op))
        np.testing.assert_allclose(log_gamma, oracle_log_gamma, rtol=0.0, atol=1e-6)
        after = traj.times > traj.steps["last_retirement_t"]
        assert np.all(log_modes[after, 1] - oracle_log_gamma[after] < math.log(
            klab.evolution._RETIRE_SHARE))

    def test_a_single_mode_retires_nothing(self):
        # the only mode is all of gamma, however far it decays
        traj = integrate("hyperbolic", ([1.0], [0.0]), 16.0, 9, CFG, OP1, M1, 0.5, eps=0.01)
        assert traj.steps["retired_modes"] == 0 and traj.steps["last_retirement_t"] is None
        assert np.all(traj.u != 0.0)

    def test_zero_data_take_the_same_steps_at_any_eps(self):
        # a state at rest has no oscillation to resolve, so no step cap: the
        # solve takes only the grid's steps, and the eps does not matter
        op = power_spectrum(1.0, 4, 2.0)
        z = np.zeros(4)
        aff = MassFunction("affine", 1.0, 1.0)
        small, tiny = (integrate("hyperbolic", (z, z), 6.0, 8, CFG, op, aff, 0.5, eps=eps)
                       for eps in (0.01, 1e-8))
        assert small.steps == tiny.steps
        assert tiny.steps["accepted"] < 2 * 8 and tiny.steps["rejected"] == 0
        assert np.all(tiny.u == 0.0) and np.all(tiny.v == 0.0)


def all_mode_data(seed, op):
    """``u0``, ``u1`` drawn N(0,1)/k^2 on every mode, scaled to ``|A^(1/2)u| = 1``."""
    rng = np.random.default_rng(seed)
    k2 = np.arange(1, op.dim + 1, dtype=float) ** 2
    data = []
    for _ in range(2):
        u = rng.standard_normal(op.dim) / k2
        data.append(u / math.sqrt(float(k2 @ (u * u))))
    return tuple(data)


def assert_same_run(batch, solo):
    assert batch.eps == solo.eps
    np.testing.assert_array_equal(batch.u, solo.u)
    np.testing.assert_array_equal(batch.v, solo.v)
    np.testing.assert_array_equal(batch.c_trace, solo.c_trace)
    # the runs.json entry: step statistics and mode retirements
    assert batch.steps == solo.steps


class TestSweepBatch:
    """A sequence of eps is one solve whose members are their single runs, bit for bit."""

    def test_a_k4_sweep_is_three_single_runs(self):
        # the sweep of the verify benchmark's decay scenarios (seed 1): K 4,
        # affine mass, p 0.5, 4096 samples to t = 16
        op = power_spectrum(1.0, 4, 2.0)
        args = (all_mode_data(1, op), 16.0, 4096, CFG, op, MassFunction("affine", 1.0, 1.0), 0.5)
        sweep = [0.04, 0.02, 0.01]
        trajs = integrate("hyperbolic", *args, eps=sweep)
        assert [t.eps for t in trajs] == sweep
        for traj in trajs:
            assert_same_run(traj, integrate("hyperbolic", *args, eps=traj.eps))

    def test_members_retire_modes_at_their_own_times(self, retirement_data):
        # the data of TestModeRetirement: eps 0.02 retires no mode by t = 3,
        # eps 0.01 retires 37 (the last at t = 1.22), eps 0.005 42 (t = 0.54)
        op, u0, u1 = retirement_data
        args = ((u0, u1), TestModeRetirement.T_END, 301, CFG, op, M1, 0.5)
        trajs = integrate("hyperbolic", *args, eps=[0.02, 0.01, 0.005])
        assert [t.steps["retired_modes"] for t in trajs] == [0, 37, 42]
        assert trajs[2].steps["last_retirement_t"] < 0.6 < 1.2 < trajs[1].steps["last_retirement_t"]
        for traj in trajs:
            assert_same_run(traj, integrate("hyperbolic", *args, eps=traj.eps))

    def test_a_single_eps_in_a_sequence_is_the_single_run(self):
        args = (([1.0], [0.0]), 4.0, 50, CFG, OP1, M1, 0.5)
        (traj,) = integrate("hyperbolic", *args, eps=[0.1])
        assert_same_run(traj, integrate("hyperbolic", *args, eps=0.1))

    def test_an_underflow_names_the_members_eps(self):
        # eps 1e-30 caps the step near 1e-15 at once
        with pytest.raises(IntegrationError, match=r"eps=1e-30: step size underflow at t=0"):
            integrate("hyperbolic", ([1.0], [0.0]), 1.0, 4, CFG, OP1, M1, 0.0, eps=[0.1, 1e-30])

    def test_the_budget_names_the_members_eps(self, monkeypatch):
        # to t = 1 at two samples, eps 1 takes 29 steps and eps 0.1 takes 121
        monkeypatch.setattr(klab._rk, "_MAX_STEPS", 50)
        message = r"eps=0.1: step budget 50 exceeded at t=0\."
        with pytest.raises(IntegrationError, match=message) as err:
            integrate("hyperbolic", ([1.0], [0.0]), 1.0, 2, CFG, OP1, M1, 0.0, eps=[1.0, 0.1])
        assert err.value.__cause__.member == 1

    def test_every_eps_must_be_positive(self):
        for eps in ([0.1, 0.0], [0.1, -1.0], []):
            with pytest.raises(ValueError, match="eps > 0"):
                integrate("hyperbolic", ([1.0], [0.0]), 1.0, 4, CFG, OP1, M1, 0.0, eps=eps)


class TestCorrector:
    def test_worked_values(self):
        thp = corrector_velocity([1.0], 0.5, 0.0, [0.0, 1.0])
        np.testing.assert_allclose(thp[1], [math.exp(-2.0)], rtol=1e-14)

        thp = corrector_velocity([1.0], 0.5, 1.0, [0.0, 1.0])
        np.testing.assert_allclose(thp[1], [0.25], rtol=1e-14)

        thp = corrector_velocity(np.array([2.0, -1.0]), 0.1, 0.3, [0.0])
        np.testing.assert_allclose(thp, [[2.0, -1.0]])

    def test_ode_residual(self):
        # theta'' from the closed-form derivative of z:
        # eps z' = -(1+t)^{-p} z exactly, so the residual measures roundoff only.
        t0 = np.array([1.0, -3.0])
        norm0 = math.sqrt(10.0)
        times = np.linspace(0.0, 6.0, 13)
        for eps in (0.05, 0.4):
            for p in (0.0, 0.3, 1.0):
                thp = corrector_velocity(t0, eps, p, times)
                weight = (1.0 + times[:, None]) ** (-p)
                theta_dd = -weight * thp / eps
                resid = eps * theta_dd + weight * thp
                assert np.max(np.abs(resid)) <= 1e-8 * norm0

    def test_series_consistent_with_quadrature(self):
        times = np.linspace(0.0, 5.0, 2001)
        theta_p = corrector_velocity([1.0], 0.08, 0.5, times)
        # z_eps = exp(-W/eps), W the damping weight integral
        np.testing.assert_allclose(theta_p[:, 0], np.exp(-weight_integral(0.5, times) / 0.08),
                                   rtol=1e-12)

    def test_domain_errors(self):
        for eps in (-0.1, 0.0):
            with pytest.raises(ValueError, match="eps must be > 0"):
                corrector_velocity([1.0], eps, 0.5, [1.0])


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
        traj = hand_run("hyperbolic", [[1.0], [1.0]], [[-1.0], [-1.0]], [2.0, 2.0], aff, 0.1)
        assert coefficient_derivative(traj)[0] == pytest.approx(-2.0)
        const_run = hand_run("hyperbolic", [[1.0], [1.0]], [[-1.0], [-1.0]], [1.0, 1.0],
                             M1, 0.1)
        assert coefficient_derivative(const_run)[0] == 0.0
        rest = hand_run("hyperbolic", np.zeros((2, 1)), np.zeros((2, 1)), [1.0, 1.0], aff, 0.1)
        assert coefficient_derivative(rest)[0] == 0.0

    def test_parabolic_trace_uses_ode_velocity(self):
        aff = MassFunction("affine", 1.0, 1.0)
        traj = hand_run("parabolic", [[1.0], [0.5]], None, [2.0, 1.25], aff)
        # at t=0: sigma = 1, c = 2, so u' = -c*lam*u = -2 and c' = 2*1*(1*-2)
        assert coefficient_derivative(traj)[0] == pytest.approx(-4.0)

    def test_trace_respects_lower_bound(self):
        for m in (MassFunction("affine", 0.5, 2.0), MassFunction("rational", 0.7, 3.0)):
            traj = integrate("hyperbolic", ([1.0, 0.3], [0.0, 0.0]), 8.0, 300, CFG,
                             SpectralOperator(np.array([1.0, 2.0]), 1.0), m, 0.5, eps=0.05)
            mu = 0.5 if m.variant == "affine" else 0.7
            assert np.all(traj.c_trace >= mu - 1e-12)
            assert np.isfinite(traj.c_trace).all()


def limit_residual(u, c, eps, c_eps=None, mass=M1, op=OP1, times=(0.0, 1.0), p=0.0):
    """``residual_series`` of a hand-built limit run through the states ``u``
    with coefficient trace ``c``, against a second-order run whose trace is
    ``c_eps`` (default ``c``)."""
    par = dataclasses.replace(hand_run("parabolic", u, None, c, mass, op=op, times=times), p=p)
    hyp = hand_run("hyperbolic", u, np.zeros_like(u), c if c_eps is None else c_eps, mass,
                   eps, op, times)
    return residual_series(hyp, par)


class TestSecondDerivativeAndResidual:
    def test_parabolic_second_derivative_values(self):
        # with c_eps = c the residual is -eps u'', u'' of the limit flow
        ones = [1.0, 1.0]
        np.testing.assert_array_equal(limit_residual([[0.0], [1.0]], ones, 0.5)[0] / -0.5, [0.0])
        udd = limit_residual([[1.0], [1.0]], ones, 0.5, times=(0.0, 2.0))[1] / -0.5
        np.testing.assert_allclose(udd, [1.0])
        op2 = SpectralOperator(np.array([2.0]), 1.0)
        np.testing.assert_allclose(limit_residual([[1.0], [1.0]], ones, 0.5, op=op2)[0] / -0.5,
                                   [4.0])
        # affine mass 1 + sigma at u = 1: c = 2, u' = -2 and c' = 2 <Au, u'> = -4,
        # so u'' = -c' u - c u' = 8
        aff = MassFunction("affine", 1.0, 1.0)
        udd = limit_residual([[1.0], [0.5]], [2.0, 1.25], 0.5, mass=aff)[0] / -0.5
        np.testing.assert_allclose(udd, [8.0])

    def test_residual_worked_values(self):
        g = limit_residual([[0.0], [1.0]], [1.0, 1.0], 0.1)
        np.testing.assert_array_equal(g[0], [0.0])
        np.testing.assert_allclose(g[1], [-0.1])
        # the coefficient gap: -(c_eps - c) Au - eps u'' = -(2 - 1) - 0.1
        g = limit_residual([[1.0], [1.0]], [1.0, 1.0], 0.1, c_eps=[2.0, 2.0])
        np.testing.assert_allclose(g[0], [-1.1])

    def test_constant_mass_residual_is_pure_acceleration(self):
        op = SpectralOperator(np.array([1.0, 2.0]), 1.0)
        traj = integrate("parabolic", [1.0, -0.2], 3.0, 120, CFG, op, M1, 0.5)
        g = limit_residual(traj.u, traj.c_trace, 0.02, op=op, times=traj.times, p=0.5)
        lam = op.eigenvalues
        for i in (0, 60, 119):
            t, u = traj.times[i], traj.u[i]
            # u' = -(1+t)^p A u at unit mass, so u'' = ((1+t)^(2p) A^2 - p (1+t)^(p-1) A) u
            udd = ((1.0 + t) * lam**2 - 0.5 * (1.0 + t) ** -0.5 * lam) * u
            np.testing.assert_allclose(g[i], -0.02 * udd, rtol=1e-14)


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
        theta_p = corrector_velocity(th0, 0.05, 0.5, par.times)
        rho, rp = remainders(hyp, par, theta_p)
        np.testing.assert_allclose(rho[0], [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(rp[0], [0.0, 0.0], atol=1e-12)

    def test_reconstruction_identity(self):
        u0, u1 = [1.0, 0.5], [0.2, -0.3]
        op, par, hyp = self._pair(0.05, u0, u1)
        th0 = theta0(u0, u1, op, M1)
        theta_p = corrector_velocity(th0, 0.05, 0.5, par.times)
        rho, _ = remainders(hyp, par, theta_p)
        # u_eps = u + rho at every sample, exactly
        np.testing.assert_allclose(rho, hyp.u - par.u, rtol=0.0, atol=0.0)

    def test_identical_runs_give_zero(self):
        # a synthetic second-order run tracing the parabolic flow exactly,
        # with velocities equal to the parabolic ODE velocity
        u0 = [1.0, 0.5]
        op = SpectralOperator(np.array([1.0, 2.0]), 1.0)
        par = integrate("parabolic", u0, 6.0, 240, CFG, op, M1, 0.5)
        twin = dataclasses.replace(par, kind="hyperbolic", v=par.velocity(), eps=0.05)
        theta_p = corrector_velocity(np.zeros(2), 0.05, 0.5, par.times)
        rho, rp = remainders(twin, par, theta_p)
        assert not rho.any() and not rp.any()

    def test_grid_mismatch_rejected(self):
        u0, u1 = [1.0, 0.5], [0.2, -0.3]
        op, par, hyp = self._pair(0.05, u0, u1)
        short = integrate("parabolic", u0, 5.0, 240, CFG, op, M1, 0.5)
        with pytest.raises(ValueError):
            remainders(hyp, short, corrector_velocity(theta0(u0, u1, op, M1), 0.05, 0.5,
                                                      short.times))


class TestLogEnergyProbe:
    def test_agrees_with_plain_run(self):
        # the log-gamma oracle the deep acceptance cells read, against integrate
        traj = integrate("hyperbolic", ([1.0], [0.0]), 12.0, 300, CFG, OP1, M1, 0.5, eps=0.05)
        logs, _ = oracles.hyperbolic_log_gamma([1.0], 1.0, 0.05, 0.5, [1.0], [0.0], traj.times)
        from klab.analysis import hyperbolic_series
        gamma = hyperbolic_series(traj, klab.decay_params(1.0, 0.5, 1.0, 1.0))["gamma"]
        np.testing.assert_allclose(logs, np.log(gamma), rtol=0.0, atol=1e-6)


class TestStepFloor:
    # accepted steps of the checks_k4 seed-1 physics (K 4, p 0.5, t_end 16), one eps a solve
    MEASURED = {0.01: 4878, 0.0025: 9581, 0.000625: 19525, 1.5625e-4: 43127, 3.90625e-5: 101537}

    def test_is_below_the_measured_steps(self):
        for eps, accepted in self.MEASURED.items():
            assert klab.evolution._step_floor(eps, 0.5, 16.0) < accepted

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_is_below_a_solve(self, p):
        traj = integrate("hyperbolic", ([1.0], [0.0]), 8.0, 16, CFG, OP1, M1, p, eps=0.002)
        assert klab.evolution._step_floor(0.002, p, 8.0) < traj.steps["accepted"]


class TestConfigAndFailures:
    def test_integrator_config_validation(self):
        with pytest.raises(ValueError, match=r"^rel_tol: must be <= 1e-3, got 0.01$"):
            IntegratorConfig(rel_tol=1e-2)
        with pytest.raises(ValueError, match=r"^rel_tol: must be positive, got 0.0$"):
            IntegratorConfig(rel_tol=0.0)
        with pytest.raises(ValueError, match=r"^rel_tol: must be >= 1e-12, got 1e-13$"):
            IntegratorConfig(rel_tol=1e-13)

    def test_overflowing_state_is_typed_failure(self):
        # lam*u/eps overflows double range on the first step
        huge = SpectralOperator(np.array([1e308]), 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError):
                integrate("hyperbolic", ([1e30], [0.0]), 1.0, 16, CFG, huge, M1, 0.0, eps=1e-3)

    def test_a_limit_flow_whose_sigma_overflows_is_typed_failure(self):
        # lambda u0^2 = 1e320 is inf, so sigma is nan at every edge of the
        # phase quadrature and m(sigma) never reaches m(0)
        op = power_spectrum(1.0, 4, 2.0)
        with pytest.raises(IntegrationError, match="^limit flow: sigma left double range$"):
            integrate("parabolic", [1e160, 0.0, 0.0, 0.0], 16.0, 64, CFG, op,
                      MassFunction("affine", 1.0, 1.0), 0.5)

    def test_bad_problem_arguments(self):
        with pytest.raises(ValueError):
            integrate("hyperbolic", ([1.0], [0.0]), 1.0, 16, CFG, OP1, M1, 0.0)  # eps missing
        with pytest.raises(ValueError):
            integrate("elliptic", [1.0], 1.0, 16, CFG, OP1, M1, 0.0)
        with pytest.raises(ValueError):
            integrate("parabolic", [1.0], -1.0, 16, CFG, OP1, M1, 0.0)


def test_trajectory_validation():
    u = np.zeros((3, 1))
    with pytest.raises(ValueError):
        hand_run("parabolic", u, None, np.ones(3), times=(0.0, 1.0, 0.5))
    with pytest.raises(ValueError):
        hand_run("parabolic", u, None, np.ones(2), times=(0.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        hand_run("sideways", u, None, np.ones(3), times=(0.0, 1.0, 2.0))


@pytest.mark.parametrize(
    "kind,eps,op,mass,message",
    [
        ("parabolic", None, SpectralOperator(np.array([1.0, 2.0]), 1.0), M1,
         "one column per mode"),
        ("parabolic", 0.1, OP1, M1, "no v and no eps"),
        ("hyperbolic", None, OP1, M1, "eps > 0"),
        ("hyperbolic", 0.0, OP1, M1, "eps > 0"),
        ("hyperbolic", -0.1, OP1, M1, "eps > 0"),
        # a hand-built run is held to its mass's infimum like an integrated one
        ("parabolic", None, OP1, MassFunction("constant", 2.0), "mass infimum"),
    ],
    ids=["mode_count", "parabolic_eps", "hyperbolic_no_eps", "hyperbolic_zero_eps",
         "hyperbolic_negative_eps", "below_mass_infimum"],
)
def test_trajectory_rejects_a_flow_that_does_not_fit(kind, eps, op, mass, message):
    v = [[0.0], [0.0]] if kind == "hyperbolic" else None
    with pytest.raises(ValueError, match=message):
        hand_run(kind, [[1.0], [0.5]], v, [1.0, 1.0], mass, eps, op)
    # the same arrays with the flow that fits are accepted
    hand_run(kind, [[1.0], [0.5]], v, [1.0, 1.0], M1, 0.1 if v else None)
