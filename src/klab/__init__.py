"""klab: a spectral simulation and verification laboratory.

Finite diagonal spectral models of damped second-order flows with weakly
decaying dissipation, their first-order limits, boundary-layer correctors,
energy functionals, and a verification layer that measures decay rates and
monitors the differential inequalities the theory predicts.
"""

from .spectral import (
    MassFunction,
    SpectralOperator,
    apply_power,
    arithmetic_spectrum,
    as_states,
    as_vector,
    m_eval,
    m_prime,
    mass_inf,
    power_spectrum,
    sobolev_norm_sq,
    uniform_spectrum,
)
from .energies import (
    DEGENERATE_P,
    LyapunovParams,
    decay_params,
    energy_E,
    energy_F,
    energy_G,
    equivalence_constants,
    gamma_eps,
    gamma_r,
    gamma_rate,
    growth_integral,
    optimality_H,
    parabolic_bound_rhs,
    perturbation_params,
    phi,
    psi,
    weight_integral,
    z_eps,
)
from .evolution import (
    IntegrationError,
    IntegratorConfig,
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
)
from .analysis import (
    CheckReport,
    RateFit,
    abscissa_values,
    assemble_psi3,
    check_comparison_lemma,
    check_energy_monotone,
    check_energy_sandwich,
    check_hypotheses,
    check_lyapunov_decay,
    check_optimality,
    check_parabolic_pointwise,
    check_residual_bounds,
    check_uniform_decay_weights,
    corrector_phi_integral,
    default_fit_window,
    envelope,
    epsilon_sweep_decay_error,
    fit_decay_exponent,
    oscillation_onset,
    probe_open_problem,
    ratio_horizon,
    residual_series,
    synthetic_lemma_instance,
    wkb_compare,
)
from .harness import (
    ConfigError,
    RunConfig,
    SCENARIOS,
    apply_override,
    config_from_dict,
    emit_report,
    emit_timeseries,
    load_config,
    render_report,
    run_scenario,
)

__version__ = "0.1.0"
