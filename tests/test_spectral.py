"""Operator model, norms, and mass-function behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from klab import (
    MassFunction,
    SpectralOperator,
    arithmetic_spectrum,
    as_vector,
    m_eval,
    m_prime,
    mass_inf,
    power_spectrum,
    sobolev_norm_sq,
)


def test_norm_matches_worked_values():
    op = SpectralOperator(np.array([2.0]), 1.0)
    assert sobolev_norm_sq(op, [0.0], 0.5) == 0.0
    assert sobolev_norm_sq(op, [1.0], 0.5) == pytest.approx(2.0, abs=0.0)
    assert sobolev_norm_sq(op, [1.0], 1.0) == pytest.approx(4.0, abs=0.0)


def test_norm_power_consistency():
    rng = np.random.default_rng(11)
    for _ in range(200):
        dim = int(rng.integers(1, 9))
        lam = np.sort(rng.uniform(0.5, 8.0, size=dim))
        op = SpectralOperator(lam, float(lam[0]))
        flat = arithmetic_spectrum(1.0, dim, 0.0)
        v = rng.standard_normal(dim)
        s = float(rng.uniform(0.0, 2.0))
        direct = sobolev_norm_sq(op, v, s)
        via_power = sobolev_norm_sq(flat, lam**s * v, 0.0)
        assert direct == pytest.approx(via_power, rel=1e-12)


def test_coercivity_for_random_vectors():
    rng = np.random.default_rng(7)
    for _ in range(200):
        dim = int(rng.integers(1, 7))
        nu = float(rng.uniform(0.1, 3.0))
        op = arithmetic_spectrum(nu, dim, float(rng.uniform(0.0, 2.0)))
        v = rng.standard_normal(dim) * float(rng.uniform(0.1, 50.0))
        assert sobolev_norm_sq(op, v, 0.5) >= nu * sobolev_norm_sq(op, v, 0.0) * (1 - 1e-12)


def test_spectrum_families():
    op = power_spectrum(1.0, 4, 2.0)
    np.testing.assert_allclose(op.eigenvalues, [1.0, 4.0, 9.0, 16.0])
    op = arithmetic_spectrum(2.0, 3, 0.5)
    np.testing.assert_allclose(op.eigenvalues, [2.0, 2.5, 3.0])
    op = arithmetic_spectrum(0.7, 3, 0.0)
    np.testing.assert_array_equal(op.eigenvalues, [0.7, 0.7, 0.7])


def test_operator_validation():
    with pytest.raises(ValueError):
        SpectralOperator(np.array([]), 1.0)
    with pytest.raises(ValueError):
        SpectralOperator(np.array([2.0, 1.0]), 1.0)      # not ascending
    with pytest.raises(ValueError):
        SpectralOperator(np.array([0.5, 1.0]), 1.0)      # lambda_1 < nu
    with pytest.raises(ValueError):
        SpectralOperator(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        SpectralOperator(np.array([1.0, np.inf]), 1.0)


def test_vector_validation():
    op = SpectralOperator(np.array([1.0, 2.0]), 1.0)
    with pytest.raises(ValueError):
        sobolev_norm_sq(op, [1.0], 0.0)
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan], op)
    with pytest.raises(ValueError):
        sobolev_norm_sq(op, [1.0, 2.0, 3.0], 1.0)


def test_mass_worked_values():
    assert m_eval(MassFunction("constant", 1.0), 7.0) == 1.0
    assert m_prime(MassFunction("constant", 1.0), 7.0) == 0.0

    aff = MassFunction("affine", 1.0, 2.0)
    assert m_eval(aff, 3.0) == pytest.approx(7.0)
    assert m_prime(aff, 3.0) == pytest.approx(2.0)

    rat = MassFunction("rational", 1.0, 1.0)
    assert m_eval(rat, 1.0) == pytest.approx(1.5)
    assert m_prime(rat, 1.0) == pytest.approx(-0.25)


def test_mass_validation():
    with pytest.raises(ValueError):
        MassFunction("constant", 0.0)
    with pytest.raises(ValueError):
        MassFunction("affine", 1.0, -0.5)
    with pytest.raises(ValueError):
        MassFunction("cubic", 1.0)
    with pytest.raises(ValueError):
        m_eval(MassFunction("constant", 1.0), -1e-9)


def test_mass_lower_bound_is_analytic_infimum():
    rng = np.random.default_rng(23)
    variants = [
        MassFunction("constant", 2.5),
        MassFunction("affine", 0.3, 1.7),
        MassFunction("rational", 0.9, 4.0),
    ]
    for m in variants:
        mu = mass_inf(m)
        sigmas = rng.uniform(0.0, 1e6, size=10_000)
        vals = np.array([m_eval(m, s) for s in sigmas])
        assert np.all(vals >= mu * (1 - 1e-12))
    # the rational variant actually approaches its infimum from above
    rat = MassFunction("rational", 0.9, 4.0)
    assert m_eval(rat, 1e12) == pytest.approx(0.9, rel=1e-9)
    assert mass_inf(rat) == 0.9


@pytest.mark.parametrize("variant", ["constant", "affine", "rational"])
def test_mass_on_an_array_is_the_mass_of_each_entry(variant):
    # the array form is the scalar form entry by entry, bit for bit
    m = MassFunction(variant, 0.9, 4.0)
    sigma = np.random.default_rng(7).uniform(0.0, 1e3, size=1_000)
    for fn in (m_eval, m_prime):
        values = fn(m, sigma)
        assert values.shape == sigma.shape
        np.testing.assert_array_equal(values, [fn(m, s) for s in sigma.tolist()])
        assert isinstance(fn(m, 2.0), float)
    with pytest.raises(ValueError, match="sigma"):
        m_eval(m, np.array([1.0, -1e-9]))
    with pytest.raises(ValueError, match="sigma"):
        m_prime(m, np.array([-1.0]))


def test_rational_mass_derivative_squares_exactly():
    # the square of 1 + sigma is the correctly rounded product, as numpy's
    # array square is; glibc's pow(x, 2) misses it in the last bit for about
    # 0.05% of arguments, among them 1 + sigma = 1.7304368023068515
    m = MassFunction("rational", 1.0, 1.0)
    x = 1.7304368023068515
    assert m_prime(m, x - 1.0) == -1.0 / (x * x) == -1.0 / 2.9944115267779616


def test_mass_derivative_against_central_difference():
    rng = np.random.default_rng(5)
    h = 1e-4
    for m in (MassFunction("constant", 1.2),
              MassFunction("affine", 1.0, 0.8),
              MassFunction("rational", 1.0, 2.0)):
        for _ in range(50):
            s = float(rng.uniform(h, 40.0))
            fd = (m_eval(m, s + h) - m_eval(m, s - h)) / (2.0 * h)
            scale = max(1.0, abs(m_eval(m, s)))
            assert abs(m_prime(m, s) - fd) <= 10.0 * h * h * scale


@given(
    scale=st.floats(min_value=1e-3, max_value=1e3),
    sigma=st.floats(min_value=0.0, max_value=1e9),
    exponent=st.floats(min_value=0.0, max_value=2.0),
)
def test_norm_homogeneity_and_mass_floor(scale, sigma, exponent):
    op = SpectralOperator(np.array([1.0, 3.0, 7.0]), 1.0)
    v = np.array([0.4, -1.1, 2.3])
    base = sobolev_norm_sq(op, v, exponent)
    scaled = sobolev_norm_sq(op, scale * v, exponent)
    assert scaled == pytest.approx(scale * scale * base, rel=1e-12)
    m = MassFunction("rational", 0.7, 2.0)
    assert m_eval(m, sigma) >= mass_inf(m)
