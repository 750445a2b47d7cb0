"""Accuracy fence: klab's numbers against independent oracles, sample by sample.

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
