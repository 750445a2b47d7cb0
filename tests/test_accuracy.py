"""Accuracy fence: klab's numbers against independent oracles, sample by sample.

The limit flow at affine mass is held per component to its ``rel_tol``
against ``oracles.parabolic_phase_solve``, a long-double quadrature of its
phase, on the two benchmark configs that miss it most when the samples
between steps come from a fourth-order interpolant (7.2e-10 and 1.8e-9).

The synthetic lemma32 and lemma34 instances solve linear ODEs
``y' = -a(t) y + b(t)``; each sample is held to ``LINEAR_LEMMA_RTOL`` of the
oracle's value.  The oracles are closed forms at ``p = 0`` and ``p = 1`` and,
between, ``scipy.integrate.quad`` of the variation-of-constants integral.
An adaptive Runge-Kutta solve is no oracle here: DOP853 at rtol 1e-13 misses
seed 7, lemma32 instance 77 by 4.2e-10.
"""

import numpy as np
import pytest

from klab.analysis import LEMMA_SERIES, _draw_lemma_params, synthetic_lemma_instances
from klab.evolution import IntegratorConfig, integrate
from klab.spectral import MassFunction, power_spectrum

import oracles

# The worst sample measured is 5.3e-14 (seed 1, lemma32, p = 0); the batched
# DP5 solve these instances once took was off by up to 1.9e-10.
LINEAR_LEMMA_RTOL = 1e-12

LINEAR_KINDS = ["lemma32", "lemma34"]


def _instances(kind: str, seed: int, count: int) -> list[tuple[dict, dict]]:
    """``count`` instances of a seed, each with the draw behind it: the draws
    are replayed from a second generator on the same seed."""
    rng = np.random.default_rng(seed)
    draws = [_draw_lemma_params(kind, rng) for _ in range(count)]
    return list(zip(draws, synthetic_lemma_instances(kind, np.random.default_rng(seed), count)))


def _assert_samples_match(kind: str, draw: dict, inst: dict, y: np.ndarray) -> None:
    want = y * np.exp(-draw["shrink"] * inst["times"])
    np.testing.assert_allclose(inst[LEMMA_SERIES[kind]], want, rtol=LINEAR_LEMMA_RTOL, atol=0.0)


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("kind", LINEAR_KINDS)
def test_linear_lemma_instances_match_the_closed_forms(kind, seed):
    cases = [(d, inst) for d, inst in _instances(kind, seed, 100) if d["p"] in (0.0, 1.0)]
    assert {d["p"] for d, _ in cases} == {0.0, 1.0}
    for draw, inst in cases:
        y = oracles.linear_lemma_closed_form(kind, draw, inst["times"])
        _assert_samples_match(kind, draw, inst, y)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("kind", LINEAR_KINDS)
def test_linear_lemma_instances_match_quadrature(kind, p):
    cases = [(d, inst) for d, inst in _instances(kind, 1, 100) if d["p"] == p][:2]
    assert len(cases) == 2
    for draw, inst in cases:
        y = oracles.linear_lemma_quad(kind, draw, inst["times"])
        _assert_samples_match(kind, draw, inst, y)


def _limit_flow_case(modes: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The benchmark workloads' limit-flow data (p 0.5, spectrum k^2, affine
    mass (1, 1), t_end 16): ``(lambda, u0)`` with ``u0`` drawn N(0,1)/k^2 and
    scaled to ``|A^(1/2)u0| = 1``."""
    k2 = np.arange(1, modes + 1, dtype=float) ** 2
    u0 = np.random.default_rng(seed).standard_normal(modes) / k2
    return k2, u0 / np.sqrt(k2 @ (u0 * u0))


def _affine_phase_oracle(lam, u0, times, **refinement):
    return oracles.parabolic_phase_solve(lam, lambda s: 1 + s, u0, 0.5, times, **refinement)


@pytest.mark.parametrize("modes,seed", [(4, 4), (64, 9)], ids=["checks_k4-seed4", "stiff_k64-seed9"])
def test_limit_flow_components_at_affine_mass(modes, seed):
    lam, u0 = _limit_flow_case(modes, seed)
    cfg = IntegratorConfig(rel_tol=1e-10)
    traj = integrate("parabolic", u0, 16.0, 4096, cfg, power_spectrum(1.0, modes, 2.0),
                     MassFunction("affine", 1.0, 1.0), 0.5)
    exact = _affine_phase_oracle(lam, u0, traj.times)
    live = np.abs(exact) > 1e-290
    rel = np.abs((traj.u[live] - exact[live]) / exact[live])
    assert np.max(rel) <= cfg.rel_tol


def test_the_phase_oracle_is_converged():
    # halving the panels or doubling the nodes moves no live component by 1e-13
    lam, u0 = _limit_flow_case(64, 9)
    times = np.linspace(0.0, 16.0, 512)
    exact = _affine_phase_oracle(lam, u0, times)
    live = np.abs(exact) > 1e-290
    for refinement in ({"grading": 0.05}, {"nodes": 16}):
        finer = _affine_phase_oracle(lam, u0, times, **refinement)
        assert np.max(np.abs((finer[live] - exact[live]) / exact[live])) <= 1e-13
