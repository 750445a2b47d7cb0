"""The Dormand-Prince integrator's batch axis: per-member error control and clocks."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import klab._rk
from klab._rk import (
    IntegrationError,
    _error_ratios,
    _member_ratios,
    _norm,
    solve_to_grid,
)

REL_TOL = 1e-10


class TestBatchAxis:
    def test_each_member_meets_its_own_tolerance(self):
        # rates over three decades; the last member starts 200 decades below
        # the others, so only its own norm can control its error
        rates = np.array([0.01, 0.1, 1.0, 10.0, 3.0])
        y0 = np.array([[1.0, -1.0], [1.0, 0.5], [2.0, 1.0], [1.0, 1.0], [1e-200, -2e-200]])
        times = np.linspace(0.0, 4.0, 81)
        Y, _, stats = solve_to_grid(
            lambda t, y: -rates[:, None] * y, y0, times, rel_tol=REL_TOL, abs_tol=0.0
        )
        assert Y.shape == (y0.shape[0], times.size, y0.shape[1])
        exact = y0[:, None, :] * np.exp(-np.multiply.outer(rates, times))[:, :, None]
        np.testing.assert_allclose(Y, exact, rtol=10.0 * REL_TOL, atol=0.0)
        assert all(s.accepted > 0 for s in stats.members)

    @pytest.mark.parametrize("y0", [np.ones(3), np.ones((2, 2, 1)), np.ones((0, 3))])
    def test_state_shape_is_validated(self, y0):
        with pytest.raises(ValueError, match="shape"):
            solve_to_grid(lambda t, y: -y, y0, [0.0, 1.0], rel_tol=REL_TOL, abs_tol=0.0)


def _step_rows(magnitudes, d=3, seed=0):
    """``(err_vec, y, y_new)`` of a ``(B, d)`` batch whose member ``i`` has
    norm about ``magnitudes[i]``, ``y_new`` within 1e-3 of ``y`` and an error
    1e-9 to 1e-3 of ``|y|``."""
    rng = np.random.default_rng(seed)
    scale = np.asarray(magnitudes, dtype=float)[:, None]
    y = scale * rng.uniform(0.5, 1.0, (scale.size, d)) * rng.choice([-1.0, 1.0], (scale.size, d))
    y_new = y * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, y.shape))
    err = y * 10.0 ** rng.uniform(-9.0, -3.0, y.shape)
    return err, y, y_new


def _scaled_ratios(err, y, y_new, rel_tol, abs_tol):
    """Each member's ratio from its power-of-two scaled norms, ``inf`` when
    not finite."""
    ratios = _member_ratios(err, y, y_new, rel_tol, abs_tol).tolist()
    return [r if math.isfinite(r) else math.inf for r in ratios]


def _ratios(err, y, y_new, rel_tol, abs_tol):
    """Each member's ratio as a batch takes it, after checking that the
    member's own row alone (as a batch of one takes it) gives the same."""
    ratios = _error_ratios(err, y, y_new, rel_tol, abs_tol)
    for i, ratio in enumerate(ratios):
        row = slice(i, i + 1)
        assert _error_ratios(err[row], y[row], y_new[row], rel_tol, abs_tol) == [ratio], i
    return ratios


class TestRowNorm:
    @pytest.mark.parametrize("d", [1, 8, 100, 128, 1000, 4096])
    def test_a_row_norm_is_the_1d_dot_bit_for_bit(self, d):
        # a single system's state is stepped as the one row of a batch, so
        # its norms must be those of the 1-D dot (the sizes span lemma33's
        # 100 components and the hyperbolic states of K = 4 and 64)
        rng = np.random.default_rng(d)
        for x in rng.standard_normal((20, d)) * 10.0 ** rng.uniform(-5.0, 5.0, (20, 1)):
            assert _norm(x[None])[0] == math.sqrt(x @ x)


class TestErrorRatio:
    """A member, alone or in a batch, takes its norms unscaled when it lies
    in the safe window, and the result is the scaled one, bit for bit."""

    def test_inside_the_window_the_norms_are_not_scaled(self, monkeypatch):
        err, y, y_new = _step_rows([1.0, 3e-50, 2e-99, 5e99, 1e-5])
        want = _scaled_ratios(err, y, y_new, REL_TOL, 1e-300)

        def refuse(*args):
            raise AssertionError("scaled norms taken inside the window")

        monkeypatch.setattr(klab._rk, "_member_ratios", refuse)
        assert _ratios(err, y, y_new, REL_TOL, 1e-300) == want

    @pytest.mark.parametrize("outside", [0.0, 1e-160, 1e120], ids=["zero", "1e-160", "1e120"])
    def test_outside_the_window_the_norms_are_scaled(self, outside):
        err, y, y_new = _step_rows([1.0, outside, 3e-50, 5e99])
        for abs_tol in (1e-300, 1e-14):
            got = _ratios(err, y, y_new, REL_TOL, abs_tol)
            assert got == _scaled_ratios(err, y, y_new, REL_TOL, abs_tol)
            assert all(map(math.isfinite, got))

    @pytest.mark.parametrize("mags", [[1.0, 1e-5], [1.0, 1e120]], ids=["inside", "outside"])
    def test_a_non_finite_y_new_gives_inf(self, mags):
        err, y, y_new = _step_rows(mags)
        nan_new = y_new.copy()
        nan_new[1, 0] = np.nan
        assert _ratios(err, y, nan_new, REL_TOL, 1e-300)[1] == math.inf
        # an overflowed step: the error estimate, made from f(y_new), overflows too
        inf_new, inf_err = y_new.copy(), err.copy()
        inf_new[1, 2] = inf_err[1, 2] = np.inf
        assert _ratios(inf_err, y, inf_new, REL_TOL, 1e-300)[1] == math.inf
        assert _scaled_ratios(inf_err, y, inf_new, REL_TOL, 1e-300)[1] == math.inf

    @pytest.mark.parametrize("mags", [[1.0, 1e-5], [1.0, 1e120]], ids=["inside", "outside"])
    def test_an_infinite_y_new_with_a_finite_error_gives_inf(self, mags):
        # the infinite norm of y_new would otherwise make the tolerance
        # infinite and the ratio 0
        err, y, y_new = _step_rows(mags)
        y_new[1, 2] = np.inf
        assert np.all(np.isfinite(err))
        assert _ratios(err, y, y_new, REL_TOL, 1e-300)[1] == math.inf

    def test_an_overflowed_norm_of_a_finite_y_new_is_not_rejected(self):
        # components near 1e200 square to inf, but the state is finite
        err, y, y_new = _step_rows([1.0, 1e200])
        with np.errstate(over="ignore"):
            assert not math.isfinite(float(y_new[1] @ y_new[1]))
            want = _scaled_ratios(err, y, y_new, REL_TOL, 1e-300)
            assert math.isfinite(want[1])
            assert _ratios(err, y, y_new, REL_TOL, 1e-300) == want

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(
        # half inside the window, half anywhere a double reaches
        exponents=st.lists(st.integers(-99, 99) | st.integers(-320, 307), min_size=1, max_size=6),
        d=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        abs_tol=st.sampled_from([1e-300, 1e-14]),
        rel_tol=st.sampled_from([1e-12, 1e-10, 1e-6]),
    )
    def test_any_magnitudes_give_the_scaled_ratio(self, exponents, d, seed, abs_tol, rel_tol):
        err, y, y_new = _step_rows([10.0**e for e in exponents], d, seed)
        assert _ratios(err, y, y_new, rel_tol, abs_tol) == _scaled_ratios(
            err, y, y_new, rel_tol, abs_tol
        )


class TestStepStats:
    def test_counts_and_step_range(self):
        times = np.linspace(0.0, 2.0, 11)
        _, _, batch = solve_to_grid(lambda t, y: -y, [[1.0]], times, rel_tol=REL_TOL, abs_tol=0.0)
        (stats,) = batch.members
        # FSAL: one evaluation to start, six per attempted step
        assert stats.rhs_evals == 1 + 6 * (stats.accepted + stats.rejected)
        assert 0.0 < stats.h_min <= stats.h_max <= 0.2 + 1e-15

    @pytest.mark.parametrize("span", [1e-14, 1.5e-14, 1e-9])
    def test_a_start_at_rest_reaches_a_close_sample(self, span):
        # the first step at rest is 1e-6 of the span but not below the
        # shortest step, 1e-14; a step that would leave less than that
        # before the sample takes the rest whole
        _, _, batch = solve_to_grid(lambda t, y: np.zeros_like(y), np.zeros((1, 2)),
                                    [0.0, span], rel_tol=REL_TOL, abs_tol=1e-300)
        (stats,) = batch.members
        assert stats.rejected == 0 and stats.h_min >= 1e-14
        if span < 2e-14:
            assert stats.accepted == 1 and stats.h_max == span


class TestTinyStates:
    def test_a_state_below_1e_154_keeps_its_error_control(self):
        # y' = -y from 1e-160: the squares in its norms underflow unless the
        # state is scaled by its power of two first
        def solve(y0):
            Y, _, stats = solve_to_grid(
                lambda t, y: -y, y0[None], [0.0, 1.0], rel_tol=REL_TOL, abs_tol=1e-300
            )
            return Y[0], stats.members[0]

        unit, unit_stats = solve(np.ones(2))
        tiny, tiny_stats = solve(np.full(2, 1e-160))
        np.testing.assert_allclose(tiny[-1], np.full(2, 1e-160 * np.exp(-1.0)), rtol=10 * REL_TOL)
        assert tiny_stats.accepted == unit_stats.accepted
        # from a power of two the run is the unit run scaled, bit for bit
        scaled, scaled_stats = solve(np.full(2, 2.0**-531))
        np.testing.assert_array_equal(scaled, 2.0**-531 * unit)
        assert scaled_stats == unit_stats


def _oscillator(stiffness):
    """A nonlinear damped oscillator, row by row; ``stiffness`` is an
    ``(B, 2)`` array of mode stiffnesses, one row per member."""

    def f(t, y):
        t = np.array(t)[:, None]
        u, v = y[..., :2], y[..., 2:]
        c = 1.0 + np.sum(u * u, axis=-1, keepdims=True)
        return np.concatenate([v, -v / (1.0 + t) - c * stiffness * u], axis=-1)

    return f


class TestOwnClocks:
    STIFFNESS = np.array([[1.0, 100.0], [1.0, 2.0], [1.0, 5.0]])
    Y0 = np.array([[1.0, -0.5, 0.3, 0.0], [0.5, 0.5, 0.0, 1.0], [1e-200, 0.0, 0.0, -1e-200]])
    TIMES = np.linspace(0.0, 5.0, 64)

    def solo(self, i, cap=None):
        """Member ``i`` solved as a batch of one: its samples and ``StepStats``."""
        Y, _, stats = solve_to_grid(
            _oscillator(self.STIFFNESS[i : i + 1]), self.Y0[i : i + 1], self.TIMES,
            rel_tol=REL_TOL, abs_tol=1e-300, step_cap_fn=None if cap is None else [cap],
        )
        return Y[0], stats.members[0]

    def batch(self, **kwargs):
        return solve_to_grid(
            _oscillator(self.STIFFNESS), self.Y0, self.TIMES,
            rel_tol=REL_TOL, abs_tol=1e-300, **kwargs,
        )

    def test_each_member_is_its_solo_solve(self):
        # member 0 rejects steps while members 1 and 2 accept theirs; member 2
        # lies 200 decades down, where its error norms are taken scaled
        Y, _, stats = self.batch()
        assert Y.shape == (3, self.TIMES.size, 4)
        for i in range(3):
            solo, solo_stats = self.solo(i)
            np.testing.assert_array_equal(Y[i], solo)
            assert stats.members[i] == solo_stats
        assert stats.members[0].rejected > 0
        assert stats.members[1].rejected == stats.members[2].rejected == 0
        assert stats.members[0].accepted != stats.members[1].accepted

    def test_each_member_has_its_own_step_cap(self):
        caps = [lambda t, y: (0.01, y), lambda t, y: (math.inf, y), lambda t, y: (0.05, y)]
        Y, _, stats = self.batch(step_cap_fn=caps)
        for i, cap in enumerate(caps):
            solo, solo_stats = self.solo(i, cap)
            np.testing.assert_array_equal(Y[i], solo)
            assert stats.members[i] == solo_stats
        assert stats.members[0].h_max <= 0.01 and stats.members[2].h_max <= 0.05

    def test_a_replaced_state_is_counted_for_its_member(self):
        # member 1 is set to 0 once, at the start; the others go on as they are
        def zeroing(t, y):
            return (math.inf, np.zeros_like(y) if t == 0.0 else y)

        caps = [lambda t, y: (math.inf, y), zeroing, lambda t, y: (math.inf, y)]
        Y, _, stats = self.batch(step_cap_fn=caps)
        assert not np.any(Y[1, 1:])
        assert stats.members[1].rhs_evals == 1 + 6 * stats.members[1].accepted + 1
        for i in (0, 2):
            solo, solo_stats = self.solo(i)
            np.testing.assert_array_equal(Y[i], solo)
            assert stats.members[i] == solo_stats

    def test_the_budget_names_the_member_that_ran_out(self, monkeypatch):
        # member 2 needs the most steps
        steps = [self.solo(i)[1].accepted + self.solo(i)[1].rejected for i in range(3)]
        monkeypatch.setattr(klab._rk, "_MAX_STEPS", sorted(steps)[1] + 1)
        with pytest.raises(IntegrationError, match="step budget") as err:
            self.batch()
        assert err.value.member == int(np.argmax(steps))

    def test_an_underflow_names_the_member(self):
        caps = [lambda t, y: (math.inf, y), lambda t, y: (1e-20, y), lambda t, y: (math.inf, y)]
        with pytest.raises(IntegrationError, match="underflow at t=0") as err:
            self.batch(step_cap_fn=caps)
        assert err.value.member == 1

    @pytest.mark.parametrize("y0", [np.ones((1, 2)), np.ones((3, 2))], ids=["one_row", "own"])
    def test_step_totals_are_integers_for_every_layout(self, y0):
        _, _, stats = solve_to_grid(
            lambda t, y: -y, y0, np.linspace(0.0, 1.0, 5), rel_tol=REL_TOL, abs_tol=0.0
        )
        assert type(stats.accepted) is int and type(stats.rejected) is int
        assert stats.accepted >= 4
        assert stats.accepted == sum(s.accepted for s in stats.members)
        assert stats.rejected == sum(s.rejected for s in stats.members)

    def test_own_clocks_are_validated(self):
        with pytest.raises(ValueError, match="per member"):
            solve_to_grid(lambda t, y: -y, np.ones((2, 1)), [0.0, 1.0], rel_tol=REL_TOL,
                          abs_tol=0.0, step_cap_fn=[lambda t, y: (1.0, y)])
