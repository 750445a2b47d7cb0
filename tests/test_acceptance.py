"""The ten headline claims, one verdict line each.

Every test prints ``[criterion NN] label: PASS/FAIL (measured ...)`` so a
plain ``pytest -s tests/test_acceptance.py`` reads as a checklist.  Shared
runs are cached at module level; the whole suite stays within the stated
runtime budgets on a laptop-class machine.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from klab import (
    IntegratorConfig,
    MassFunction,
    SpectralOperator,
    abscissa_values,
    check_comparison_lemma,
    check_energy_monotone,
    check_hypotheses,
    check_lyapunov_decay,
    corrector_velocity,
    decay_params,
    energy_F,
    envelope,
    epsilon_sweep_decay_error,
    fit_decay_exponent,
    gamma_r,
    gamma_rate,
    integrate,
    kernel_integral,
    perturbation_params,
    psi,
    remainders,
    residual_series,
    synthetic_lemma_instances,
    theta0,
)
from klab.analysis import assemble_psi3, hyperbolic_series
import oracles

OP1 = SpectralOperator(np.array([1.0]), 1.0)
M1 = MassFunction("constant", 1.0)
CFG = IntegratorConfig()
REPO = Path(__file__).resolve().parents[1]

# rate-spread cells: horizon and fit window for the five cells shallow enough
# to fit in plain double precision, chosen past the overdamped onset
SHALLOW_CELLS = {
    (0.3, 0.05): (80.0, (32.0, 80.0)),
    (0.5, 0.05): (24.0, (9.6, 24.0)),
    (0.7, 0.05): (24.0, (9.6, 24.0)),
    (0.5, 0.02): (40.0, (16.0, 40.0)),
    (0.7, 0.02): (20.0, (8.0, 20.0)),
}
# the remaining cell decays through ~500 decades, past what doubles hold;
# it reads the log-gamma oracle
DEEP_CELL = (0.3, 0.02)
DEEP_HORIZON = 430.0
DEEP_WINDOW = (250.0, 430.0)
# horizons for the profile-ratio sub-check, past twice the oscillation onset
RATIO_HORIZONS = {
    (0.3, 0.05): 96.0,
    (0.5, 0.05): 22.0,
    (0.7, 0.05): 12.0,
    (0.3, 0.02): 430.0,
    (0.5, 0.02): 52.0,
    (0.7, 0.02): 22.0,
}

_cache: dict = {}


def _verdict(idx: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {idx:02d}] {label}: {status} ({detail})", flush=True)
    assert ok, f"criterion {idx} failed: {detail}"


def shallow_run(cell):
    key = ("shallow", cell)
    if key not in _cache:
        p, eps = cell
        t_end, _ = SHALLOW_CELLS[cell]
        _cache[key] = integrate(
            "hyperbolic", ([1.0], [0.0]), t_end, 3000, CFG, OP1, M1, p, eps=eps
        )
    return _cache[key]


def probe_run(cell, t_end, samples):
    """``(times, log gamma)`` of the unit-mode constant-mass run, from the mode oracle."""
    key = ("probe", cell, t_end)
    if key not in _cache:
        p, eps = cell
        times = np.linspace(0.0, t_end, samples)
        log_gamma, _ = oracles.hyperbolic_log_gamma([1.0], 1.0, eps, p, [1.0], [0.0], times)
        _cache[key] = times, log_gamma
    return _cache[key]


def sweep_run(eps):
    key = ("sweep", eps)
    if key not in _cache:
        u0, u1 = [1.0], [-1.0]   # well prepared for m = 1, lambda = 1
        _cache[key] = integrate(
            "hyperbolic", (u0, u1), 16.0, 1600, CFG, OP1, M1, 0.5, eps=eps
        )
    return _cache[key]


# ---------------------------------------------------------------------------


def test_criterion_01_parabolic_exact():
    worst = 0.0
    budget_ok = True
    for p in (0.0, 0.5, 1.0):
        start = time.perf_counter()
        traj = integrate("parabolic", [1.0], 5.0, 500, CFG, OP1, M1, p)
        elapsed = time.perf_counter() - start
        budget_ok = budget_ok and elapsed < 1.0
        half_sq = traj.u[:, 0] ** 2   # lambda = 1, so |A^1/2 u|^2 = u^2
        exact = np.array(
            [
                float(oracles.parabolic_closed_form(OP1, [1.0], p, 1.0, float(s))[0]) ** 2
                for s in traj.times
            ]
        )
        worst = max(worst, float(np.max(np.abs(half_sq - exact) / exact)))
    _verdict(
        1,
        "parabolic decay, exact",
        worst <= 1e-6 and budget_ok,
        f"max rel err {worst:.2e}, each case under 1 s: {budget_ok}",
    )


def test_criterion_02_scalar_rate():
    start = time.perf_counter()
    traj = integrate("hyperbolic", ([1.0], [0.0]), 8.0, 800, CFG, OP1, M1, 0.0, eps=0.1)
    sq = traj.u[:, 0] ** 2
    t_env, v_env = envelope(traj.times, sq)
    fit = fit_decay_exponent(t_env, v_env, 0.0, "t", window=(3.2, 8.0))
    elapsed = time.perf_counter() - start
    target = oracles.SCALAR_SQ_RATE
    rel = abs(-fit.slope - target) / target
    _verdict(
        2,
        "hyperbolic rate, scalar oracle",
        rel <= 0.02 and -fit.slope > 2.0 and elapsed < 1.0,
        f"slope {-fit.slope:.6f} vs {target:.6f}, rel {rel:.2e}, {elapsed:.2f} s",
    )


def test_criterion_03_rate_spread():
    worst_rel = 0.0
    worst_r2 = 1.0
    min_excess = math.inf
    budget_ok = True
    for cell in list(SHALLOW_CELLS) + [DEEP_CELL]:
        p, eps = cell
        start = time.perf_counter()
        predicted = oracles.amplitude_law_slope(eps, p)
        if cell in SHALLOW_CELLS:
            _, window = SHALLOW_CELLS[cell]
            traj = shallow_run(cell)
            gam = hyperbolic_series(traj, decay_params(1.0, p, 1.0, 1.0))["gamma"]
            t_env, v_env = envelope(traj.times, gam)
            fit = fit_decay_exponent(t_env, v_env, p, "hyperbolic", window)
            slope, r2 = fit.slope, fit.r_squared
        else:
            times, logs = probe_run(cell, DEEP_HORIZON, 6000)
            peaks = (
                np.flatnonzero((logs[1:-1] > logs[:-2]) & (logs[1:-1] > logs[2:])) + 1
            )
            tp, lp_ = times[peaks], logs[peaks]
            inside = (tp >= DEEP_WINDOW[0]) & (tp <= DEEP_WINDOW[1])
            x = abscissa_values("hyperbolic", p, tp[inside])
            y = lp_[inside]
            slope, intercept = np.polyfit(x, y, 1)
            resid = y - (slope * x + intercept)
            r2 = 1.0 - float(resid @ resid) / float(((y - y.mean()) ** 2).sum())
        worst_rel = max(worst_rel, abs(slope - predicted) / abs(predicted))
        worst_r2 = min(worst_r2, r2)

        # profile-ratio sub-check on the log-gamma oracle
        horizon = RATIO_HORIZONS[cell]
        times, logs = probe_run(cell, horizon, 6000 if cell == DEEP_CELL else 2000)
        alpha = gamma_rate(1.0, 1.0, p)
        log_psi = -alpha * np.expm1((1.0 + p) * np.log1p(times))
        i_half = int(np.searchsorted(times, horizon / 2.0))
        excess = (logs[-1] - log_psi[-1]) - (logs[i_half] - log_psi[i_half])
        min_excess = min(min_excess, excess)
        budget_ok = budget_ok and (time.perf_counter() - start) < 30.0
    _verdict(
        3,
        "hyperbolic rate spread, six cells",
        worst_rel <= 0.15 and worst_r2 >= 0.99 and min_excess >= math.log(10.0)
        and budget_ok,
        f"worst slope rel {worst_rel:.4f}, worst r2 {worst_r2:.6f}, "
        f"min ratio excess {min_excess / math.log(10.0):.1f} decades, "
        f"under 30 s per cell: {budget_ok}",
    )


def test_criterion_04_decay_error_law():
    start = time.perf_counter()
    par = integrate("parabolic", [1.0], 16.0, 1600, CFG, OP1, M1, 0.5)
    th0 = theta0([1.0], [-1.0], OP1, M1)
    gamma_r_by_eps = {}
    for eps in (0.04, 0.02, 0.01):
        rho, rprime = remainders(sweep_run(eps), par, corrector_velocity(th0, eps, 0.5, par.times))
        gamma_r_by_eps[eps] = gamma_r(rho, rprime, eps, OP1)
    rep = epsilon_sweep_decay_error(par.times, gamma_r_by_eps, 1.0, 0.5, 1.0, 1.0)
    elapsed = time.perf_counter() - start
    ratios = rep.params["halving_ratios"]
    _verdict(
        4,
        "decay-error eps^2 law",
        rep.passed and elapsed < 120.0,
        f"normalized halving ratios {ratios}, {elapsed:.1f} s",
    )


def test_criterion_05_lyapunov_suite():
    runs = []
    for cell in SHALLOW_CELLS:
        p, eps = cell
        runs.append((p, eps, shallow_run(cell)))
    # the deep cell re-run at a horizon plain doubles can hold
    p, eps = DEEP_CELL
    runs.append(
        (p, eps, integrate("hyperbolic", ([1.0], [0.0]), 24.0, 2400, CFG, OP1, M1, p,
                           eps=eps))
    )
    for eps in (0.04, 0.02, 0.01):
        runs.append((0.5, eps, sweep_run(eps)))

    failed = []
    total = 0
    for p, eps, hyp in runs:
        assert eps <= 0.05
        t_end = float(hyp.times[-1])
        n = hyp.times.size
        u0, u1 = hyp.u[0], hyp.v[0]
        lp_decay = decay_params(1.0, p, 1.0, 1.0)
        energies = hyperbolic_series(hyp, lp_decay)
        reports = [
            check_energy_monotone(hyp, energies["E"]),
            check_lyapunov_decay(hyp, lp_decay, energies["F"]),
        ]
        par = integrate("parabolic", u0, t_end, n, CFG, OP1, M1, p)
        th0 = theta0(u0, u1, OP1, M1)
        theta_p = corrector_velocity(th0, eps, p, par.times)
        rho, rprime = remainders(hyp, par, theta_p)
        g = residual_series(hyp, par)
        lp_pert = perturbation_params(1.0, p, 1.0, 1.0)
        psi3 = assemble_psi3(hyp, rho, theta_p, g, lp_pert)
        F_r = energy_F(rho, rprime, hyp.times, eps, hyp.c_trace, OP1, lp_pert)
        reports.append(check_lyapunov_decay(hyp, lp_pert, F_r, psi3))
        total += len(reports)
        for rep in reports:
            if not rep.passed:
                failed.append((p, eps, rep.name, rep.worst_slack))
    _verdict(
        5,
        "Lyapunov inequality suite",
        not failed,
        f"{total} checks over {len(runs)} runs (eps <= 0.05), failures: {failed or 'none'}",
    )


def test_criterion_06_comparison_lemmas():
    rng = np.random.default_rng(2024)
    conclusion_failures = 0
    checked = 0
    for kind in ("lemma32", "lemma33", "lemma34"):
        for rep in check_comparison_lemma(kind, synthetic_lemma_instances(kind, rng, 100)):
            checked += 1
            if rep.params.get("failure_kind") == "conclusion" or not rep.passed:
                conclusion_failures += 1

    # closed-form cases: lemma33's bound is 2 up to the trapezoid rule's
    # error and the tail 2 e^(-t_end) past the grid
    t = np.linspace(0.0, 14.0, 1400)
    psi2 = np.exp(-t)
    (rep33,) = check_comparison_lemma(
        "lemma33",
        [{"times": t, "E": 1.0 - psi2, "psi1": np.zeros_like(t), "psi2": psi2}],
    )
    h = t[1] - t[0]
    closed_ok = (
        rep33.passed
        and rep33.params["bound"] == 2.0 * np.trapezoid(psi2, t)
        and abs(rep33.params["bound"] - 2.0) <= 2.0 * (t[-1] * h**2 / 12.0 + math.exp(-t[-1]))
    )
    (rep32,) = check_comparison_lemma(
        "lemma32",
        [{"times": t, "G": np.zeros_like(t), "eps": 0.2, "K": 1.0, "beta": 1.0,
          "p": 0.5}],
    )
    closed_ok = closed_ok and rep32.passed and rep32.worst_slack >= 0.0

    # measured remainder energy against its own forcing, constant cross-checked
    hyp = sweep_run(0.02)
    par = integrate("parabolic", [1.0], 16.0, 1600, CFG, OP1, M1, 0.5)
    th0 = theta0([1.0], [-1.0], OP1, M1)
    theta_p = corrector_velocity(th0, 0.02, 0.5, par.times)
    rho, rprime = remainders(hyp, par, theta_p)
    g = residual_series(hyp, par)
    lp = perturbation_params(1.0, 0.5, 1.0, 1.0)
    psi3 = assemble_psi3(hyp, rho, theta_p, g, lp)
    from klab.energies import energy_F
    from klab import phi

    F = energy_F(rho, rprime, par.times, 0.02, hyp.c_trace, OP1, lp)
    (rep34,) = check_comparison_lemma(
        "lemma34",
        [{"times": par.times, "F": F, "psi": psi3, "T": lp.T, "beta": 1.0, "p": 0.5}],
    )
    phi_vals = np.array([phi(1.0, 0.5, float(s)) for s in par.times])
    iT = int(np.searchsorted(par.times, lp.T))
    oracle_const = F[iT] / phi_vals[iT] + simpson(psi3 / phi_vals, x=par.times)
    measured_ok = rep34.passed and (
        abs(rep34.params["bound_constant"] - oracle_const) <= 1e-3 * abs(oracle_const)
    )
    _verdict(
        6,
        "comparison-lemma property suite",
        conclusion_failures == 0 and closed_ok and measured_ok,
        f"{checked} synthetic instances, {conclusion_failures} conclusion failures; "
        f"closed forms exact: {closed_ok}; measured case: {measured_ok}",
    )


def test_criterion_07_corrector_bound():
    worst_margin = math.inf
    worst_exact = 0.0
    cells = 0
    for eps in (0.05, 0.1, 0.2):
        for beta in (0.5, 1.0):
            assert 2.0 * eps * beta <= 1.0 and 4.0 * eps <= 1.0
            for p in (0.0, 0.5, 1.0):
                val = kernel_integral(1.0 / eps - beta, p)  # int_0^inf z_eps / phi
                worst_margin = min(worst_margin, 4.0 * eps - val)
                if p == 0.0:
                    exact = 1.0 / (1.0 / eps - beta)
                    worst_exact = max(worst_exact, abs(val - exact))
                cells += 1
    _verdict(
        7,
        "corrector integral bound",
        worst_margin >= 0.0 and worst_exact <= 1e-8,
        f"{cells} cells, min margin to 4*eps {worst_margin:.4f}, "
        f"worst p=0 deviation {worst_exact:.2e}",
    )


def test_criterion_08_hypothesis_chain():
    op = SpectralOperator(np.array([1.0, 2.0]), 1.0)
    m = MassFunction("affine", 1.0, 1.0)
    par = integrate("parabolic", [1.0, 0.5], 8.0, 800, CFG, op, m, 0.5)
    runs = [
        integrate("hyperbolic", ([1.0, 0.5], [0.0, 0.0]), 8.0, 800, CFG, op, m, 0.5,
                  eps=e)
        for e in (0.04, 0.02, 0.01)
    ]
    rep = check_hypotheses(runs, par)
    ratios = rep.params["stability_ratios"]
    _verdict(
        8,
        "coefficient hypothesis chain",
        rep.passed and ratios["M4"] <= 2.0 and ratios["M5"] <= 2.0,
        f"stability ratios M4 {ratios['M4']:.3f}, M5 {ratios['M5']:.3f}, "
        f"M2 {rep.params['M2']:.3f}",
    )


def test_criterion_09_weighted_mode_integral():
    worst_dev = 0.0
    ok = True
    ratios = {}
    for p in (0.0, 1.0):
        alpha = gamma_rate(1.0, 1.0, p) / 2.0
        lam = 1.0

        def integrand(t, p=p, alpha=alpha, lam=lam):
            den = psi(alpha, p, t)
            if den == 0.0:
                # both factors have underflowed; the true ratio decays to 0
                return 0.0
            u = float(oracles.parabolic_closed_form(OP1, [1.0], p, 1.0, t)[0])
            return (lam * u) ** 2 / den

        val = quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=300)[0]
        bound = oracles.mode_bound_vs_psi(1.0, 1.0, p, alpha, half_norm_sq=lam * 1.0)
        oracle = oracles.mode_integral_vs_psi(p, 1.0, lam, alpha, 1.0)
        worst_dev = max(worst_dev, abs(val - oracle))
        ok = ok and val <= bound + 1e-8
        ratios[p] = val / bound
    _verdict(
        9,
        "weighted mode integral vs bound",
        ok and worst_dev <= 1e-8,
        f"value/bound ratios p=0: {ratios[0.0]:.6f}, p=1: {ratios[1.0]:.6f}; "
        f"oracle deviation {worst_dev:.2e}",
    )


def test_criterion_10_determinism_and_exit_codes(tmp_path):
    # the child imports klab from this checkout, installed or not
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "klab", *args],
            capture_output=True, text=True, cwd=REPO, env=env,
        )

    doc = {
        "p": 0.5, "epsilon": [0.05], "operator": {"eigenvalues": [1.0], "nu": 1.0},
        "mass": {"constant": 1.0}, "initial": {"u0": [1.0], "u1": [0.0]},
        "beta": 1.0, "t_end": 6.0, "samples": 200, "scenario": "decay",
    }
    cfg_pass = tmp_path / "pass.json"
    cfg_pass.write_text(json.dumps(doc), encoding="utf-8")
    outs = [tmp_path / "a", tmp_path / "b"]
    codes = [cli("verify", "--config", str(cfg_pass), "--out", str(d)).returncode
             for d in outs]
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("report.json", "runs.json", "parabolic.csv",
                     "hyperbolic_eps0.05.csv")
    )

    doc_fail = dict(doc, epsilon=[2.0])
    cfg_fail = tmp_path / "fail.json"
    cfg_fail.write_text(json.dumps(doc_fail), encoding="utf-8")
    code_fail = cli("verify", "--config", str(cfg_fail),
                    "--out", str(tmp_path / "f")).returncode

    cfg_bad = tmp_path / "bad.json"
    cfg_bad.write_text("{ broken", encoding="utf-8")
    code_bad = cli("verify", "--config", str(cfg_bad),
                   "--out", str(tmp_path / "g")).returncode

    _verdict(
        10,
        "determinism and exit codes",
        codes == [0, 0] and identical and code_fail == 1 and code_bad == 2,
        f"pass runs exited {codes}, byte-identical: {identical}, "
        f"forced failure exit {code_fail}, malformed config exit {code_bad}",
    )
