"""Pointwise functionals, comparison functions, and theorem-level constants."""

import math

import numpy as np
import pytest

import klab
from klab import energies
from klab import (
    LyapunovParams,
    SpectralOperator,
    decay_params,
    energy_E,
    energy_F,
    energy_G,
    equivalence_constants,
    gamma_eps,
    gamma_r,
    gamma_rate,
    growth_integral,
    kernel_integral,
    perturbation_params,
    phi,
    psi,
    weight_integral,
)
import oracles


OP1 = SpectralOperator(np.array([1.0]), 1.0)
OP2 = SpectralOperator(np.array([2.0]), 1.0)


class TestGammaFamily:
    def test_gamma_eps_values(self):
        assert gamma_eps(np.array([1.0]), np.array([1.0]), 1.0, OP1) == pytest.approx(5.0)

        assert gamma_eps(np.array([0.0]), np.array([0.0]), 0.3, OP1) == 0.0

        assert gamma_eps(np.array([1.0]), np.array([0.0]), 0.123, OP2) == pytest.approx(7.0)

    def test_gamma_r_and_c_values(self):
        # the stronger remainder energy gamma_c is gamma_eps of (rho, r')
        z = np.array([0.0])
        assert gamma_r(z, z, 0.5, OP1) == 0.0
        assert gamma_eps(z, z, 0.5, OP1) == 0.0

        rho, rp = np.array([1.0]), np.array([0.0])
        assert gamma_r(rho, rp, 0.5, OP1) == pytest.approx(2.0)
        assert gamma_eps(rho, rp, 0.5, OP1) == pytest.approx(3.0)

        rho, rp = np.array([0.0]), np.array([1.0])
        assert gamma_r(rho, rp, 0.5, OP1) == pytest.approx(0.5)
        assert gamma_eps(rho, rp, 0.5, OP1) == pytest.approx(1.5)


class TestProofEnergies:
    def test_zero_state(self):
        u, v = np.array([0.0]), np.array([0.0])
        lp = decay_params(1.0, 0.0, 1.0, 1.0)
        assert energy_E(u, v, 1.0, 1.0, OP1) == 0.0
        assert energy_F(u, v, 0.0, 1.0, 1.0, OP1, lp) == 0.0
        assert energy_G(v) == 0.0

    def test_substitution_case(self):
        # delta = 2(beta+1)nu/(2 mu nu - beta) = 4 at beta=1, mu=nu=1
        lp = decay_params(1.0, 0.0, 1.0, 1.0)
        assert lp.delta == pytest.approx(4.0)
        u, v = np.array([1.0]), np.array([1.0])
        assert energy_E(u, v, 1.0, 1.0, OP1) == pytest.approx(2.0)
        assert energy_F(u, v, 0.0, 1.0, 1.0, OP1, lp) == pytest.approx(8.0)
        assert energy_G(v) == pytest.approx(1.0)

    def test_kinetic_term_divided_by_coefficient(self):
        assert energy_E(np.array([0.0]), np.array([2.0]), 1.0, 2.0, OP1) == pytest.approx(2.0)

    def test_script_variants(self):
        # the remainder functionals are E, F and G applied to (rho, r')
        lp = perturbation_params(1.0, 0.5, 1.0, 1.0)
        z = np.array([0.0])
        assert energy_E(z, z, 0.1, 1.0, OP1) == 0.0
        assert energy_F(z, z, 0.0, 0.1, 1.0, OP1, lp) == 0.0
        assert energy_G(z) == 0.0

        assert energy_E(np.array([1.0]), z, 0.1, 1.0, OP1) == pytest.approx(1.0)
        assert energy_E(z, np.array([1.0]), 0.25, 1.0, OP1) == pytest.approx(0.25)
        assert energy_G(np.array([1.0])) == pytest.approx(1.0)


OP3 = SpectralOperator(np.array([1.0, 4.0, 9.0]), 1.0)
_LP = LyapunovParams(beta=1.0, p=0.5, delta=3.0, T=0.0)
_MASS = klab.MassFunction("rational", 1.0, 2.0)
# (name, functional of one row: (t, u, v, c) -> value)
_ROW_FUNCTIONALS = [
    ("gamma_eps", lambda t, u, v, c: gamma_eps(u, v, 0.03, OP3)),
    ("gamma_r", lambda t, u, v, c: gamma_r(u, v, 0.03, OP3)),
    ("energy_E", lambda t, u, v, c: energy_E(u, v, 0.03, c, OP3)),
    ("energy_F", lambda t, u, v, c: energy_F(u, v, t, 0.03, c, OP3, _LP)),
    ("energy_G", lambda t, u, v, c: energy_G(v)),
    ("sobolev_norm_sq", lambda t, u, v, c: klab.sobolev_norm_sq(OP3, u, 0.75)),
    ("residual_g", lambda t, u, v, c: klab.residual_g(t, u, c, OP3, _MASS, 0.5, 0.03)),
]


@pytest.mark.parametrize("name,fn", _ROW_FUNCTIONALS, ids=[n for n, _ in _ROW_FUNCTIONALS])
def test_functional_on_a_stack_equals_its_rows(name, fn):
    rng = np.random.default_rng(3)
    n = 17
    t = np.linspace(0.0, 4.0, n)
    u = rng.standard_normal((n, 3)) * np.array([1.0, 1e-3, 1e-8])
    v = rng.standard_normal((n, 3))
    c = rng.uniform(1.0, 3.0, n)
    stacked = fn(t, u, v, c)
    rows = [fn(float(t[i]), u[i], v[i], float(c[i])) for i in range(n)]
    assert stacked.shape == np.shape(rows)
    np.testing.assert_allclose(stacked, rows, rtol=1e-14, atol=0.0)


class TestComparisonFunctions:
    def test_phi_closed_forms(self):
        assert phi(1.0, 0.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert phi(2.0, 1.0, 1.0) == pytest.approx(0.25, rel=1e-15)
        assert phi(1.0, 0.5, 3.0) == pytest.approx(math.exp(-2.0), rel=1e-14)
        assert phi(3.7, 0.4, 0.0) == 1.0

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.7, 1.0, 1.0 - 1e-13])
    def test_phi_array_is_the_scalar_phi(self, p):
        # phi on a grid against the scalar closed form exp(-beta W(p, t)); the
        # last p sits below DEGENERATE_P from 1: both forms take log1p(t)
        def scalar_phi(beta, p, s):
            return math.exp(-beta * weight_integral(p, s))

        t = np.linspace(0.0, 12.0, 600)
        for beta in (0.5, 1.0):
            want = [scalar_phi(beta, p, float(s)) for s in t]
            np.testing.assert_allclose(phi(beta, p, t), want, rtol=1e-14, atol=0.0)
        # broadcasting: one (beta, p) per row of a batch
        got = phi(np.array([[0.5], [1.0]]), np.array([[p], [0.5]]), t)
        np.testing.assert_allclose(got[1], [scalar_phi(1.0, 0.5, float(s)) for s in t], rtol=1e-14)

        # and bit for bit the closed form as one expression, however the
        # arguments broadcast
        def one_call_phi(beta, p, t):
            t = np.asarray(t, dtype=float)
            q = 1.0 - np.asarray(p, dtype=float)
            degenerate = q < energies.DEGENERATE_P
            q = np.where(degenerate, 1.0, q)
            log1p_t = np.log1p(t)
            w = np.where(degenerate, log1p_t, np.expm1(q * log1p_t) / q)
            return np.exp(-np.asarray(beta, dtype=float) * w)

        betas = np.array([0.2, 0.7, 1.5, 3.0])
        ps = np.array([p, 0.5, 1.0, p])
        cases = [
            (1.3, p, 4.7),  # scalars
            (1.3, p, t),  # one (beta, p) over a time grid
            (betas, ps, 2.5),  # one (beta, p) per member at a shared time
            (betas, ps, np.array([0.0, 1.0, 7.5, 11.0])),  # and at each member's time
        ]
        for beta, pp, tt in cases:
            got, want = phi(beta, pp, tt), one_call_phi(beta, pp, tt)
            assert np.array_equal(got, want)
            assert np.shape(got) == np.shape(want)

    def test_phi_array_validates(self):
        with pytest.raises(ValueError, match="beta"):
            phi(np.array([1.0, 0.0]), 0.5, 1.0)
        with pytest.raises(ValueError, match="beta"):
            phi(-1.0, 0.5, 1.0)
        with pytest.raises(ValueError, match="t must be"):
            phi(1.0, 0.5, np.array([-1.0, 1.0]))
        with pytest.raises(ValueError, match="t must be"):
            phi(1.0, np.array([0.5, 1.0]), np.array([1.0, -1e-300]))
        with pytest.raises(ValueError, match="t must be"):
            phi(1.0, 0.5, -1.0)

    def test_psi_closed_forms(self):
        assert psi(1.0, 0.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert psi(1.0, 1.0, 1.0) == pytest.approx(math.exp(-3.0), rel=1e-14)
        assert psi(0.6, 0.3, 0.0) == 1.0

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_psi_and_bound_on_a_grid_are_their_scalar_forms(self, p):
        # exp amplifies an ulp of the exponent (up to 38 here) into the result
        t = np.linspace(0.0, 6.0, 300)
        want = [math.exp(-0.8 * growth_integral(p, float(s))) for s in t]
        np.testing.assert_allclose(psi(0.8, p, t), want, rtol=1e-13, atol=0.0)
        # the sharp bound C exp(-g (1+t)^(1+p)) is C e^(-g) psi(g, p, t)
        g = gamma_rate(1.0, 1.0, p)
        want = [2.0 * math.exp(-g * (1.0 + s) ** (1.0 + p)) for s in t]
        np.testing.assert_allclose(2.0 * math.exp(-g) * psi(g, p, t), want, rtol=1e-13)
        with pytest.raises(ValueError):
            psi(0.8, p, np.array([-1.0, 1.0]))

    def test_phi_satisfies_its_ode(self):
        # closed-form derivative: phi' = -beta (1+t)^{-p} phi, checked on a
        # log-spaced grid with a central difference
        for beta, p in ((1.0, 0.0), (0.5, 0.3), (2.0, 0.7), (1.5, 1.0)):
            for t in np.geomspace(1e-3, 1e3, 25):
                h = 1e-6 * (1.0 + t)
                deriv = (phi(beta, p, t + h) - phi(beta, p, t - h)) / (2.0 * h)
                target = -beta * (1.0 + t) ** (-p) * phi(beta, p, t)
                assert deriv == pytest.approx(target, rel=1e-7)

    def test_psi_multiplicative_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            a, b = rng.uniform(0.05, 3.0, size=2)
            p = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
            t = float(rng.uniform(0.0, 20.0))
            left = psi(a + b, p, t)
            right = psi(a, p, t) * psi(b, p, t)
            assert left == pytest.approx(right, rel=1e-13)

    def test_strict_monotone_decrease(self):
        # t capped so the fastest case (psi at p=1) stays in normal range
        grid = np.linspace(0.0, 10.0, 400)
        for p in (0.0, 0.5, 1.0):
            for series in (
                [phi(0.8, p, t) for t in grid],
                [psi(0.8, p, t) for t in grid],
                [phi(10.0, p, t) for t in grid],  # the corrector kernel at eps 0.1
            ):
                assert all(a > b for a, b in zip(series, series[1:]))

    def test_continuity_in_p_near_one(self):
        for t in (0.1, 1.0, 37.0, 1e3):
            reference = phi(1.3, 1.0, t)
            assert abs(phi(1.3, 1.0 - 1e-10, t) - reference) <= 1e-6 * reference

    def test_weight_and_growth_integrals(self):
        assert weight_integral(0.0, 5.0) == pytest.approx(5.0)
        assert weight_integral(1.0, 5.0) == pytest.approx(math.log(6.0))
        assert weight_integral(0.5, 3.0) == pytest.approx(2.0)
        assert growth_integral(0.5, 3.0) == pytest.approx(7.0)
        assert growth_integral(0.0, 5.0) == pytest.approx(5.0)


class TestKernelIntegral:
    # rate = 1/eps >= 2, the corrector integral's domain
    P = (0.0, 0.3, 0.7, 0.999, 1.0)

    def test_infinite_range(self):
        for eps in (0.5, 0.1, 0.01, 0.001):
            for p in self.P:
                want = oracles.kernel_integral_mp(1.0 / eps, p, math.inf)
                assert kernel_integral(1.0 / eps, p) == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_closed_forms(self):
        assert kernel_integral(2.0, 0.0) == 0.5
        assert kernel_integral(3.0, 1.0) == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize(
        "rate,p",
        [(0.0, 0.5), (2.0, 1.5), (1.5, 0.5), (2.0, -0.5)],
        ids=["rate", "p", "slow_rate_infinite_range", "negative_p"],
    )
    def test_domain_errors(self, rate, p):
        with pytest.raises(ValueError):
            kernel_integral(rate, p)


class TestConstants:
    def test_gamma_rate_values(self):
        assert gamma_rate(1.0, 1.0, 0.0) == pytest.approx(2.0)
        assert gamma_rate(1.0, 1.0, 1.0) == pytest.approx(1.0)
        assert gamma_rate(2.0, 3.0, 0.5) == pytest.approx(8.0)

    def test_decay_params_worked_values(self):
        lp = decay_params(1.0, 0.0, 1.0, 1.0)
        assert (lp.delta, lp.T) == (pytest.approx(4.0), 0.0)

        lp = decay_params(2.0, 0.5, 1.0, 1.0)
        assert lp.delta == pytest.approx(4.0)
        # (1+T)^{2p} >= delta*beta/(2 nu) = 4 with equality at T = 3
        assert lp.T == pytest.approx(3.0)
        assert (1.0 + lp.T) ** (2 * lp.p) >= lp.delta * lp.beta / 2.0 - 1e-12

    def test_perturbation_params_worked_values(self):
        lp = perturbation_params(1.0, 0.0, 1.0, 1.0)
        assert lp.delta == pytest.approx(8.0)
        assert lp.sigma == pytest.approx(0.5)
        assert lp.T == 0.0

        lp = perturbation_params(1.0, 0.5, 1.0, 1.0)
        assert lp.delta == pytest.approx(3.0)
        assert lp.sigma == 1.0
        assert lp.T == pytest.approx(2.0)

    @pytest.mark.parametrize("p", [1e-300, 5e-324])
    def test_an_onset_past_double_range_is_inf(self, p):
        # 4^(1/(2p)) overflows (1e-300) or 1/(2p) is inf (the least subnormal)
        for params in (decay_params, perturbation_params):
            assert params(2.0, p, 1.0, 1.0).T == math.inf

    def test_p_zero_admissibility(self):
        with pytest.raises(ValueError):
            decay_params(2.0, 0.0, 1.0, 1.0)     # beta = 2 mu nu
        with pytest.raises(ValueError):
            perturbation_params(5.0, 0.0, 1.0, 1.0)

    def test_equivalence_constants(self):
        k2, k3, k4 = equivalence_constants(1.0, 2.0)
        assert (k2, k3, k4) == (pytest.approx(0.5), pytest.approx(1.0), pytest.approx(0.25))
        k2, k3, k4 = equivalence_constants(2.0, 0.5)
        assert (k2, k3, k4) == (pytest.approx(1.0), pytest.approx(1.0), pytest.approx(0.5))
