"""Learning Black-Scholes-type Kolmogorov PDE solutions with random feature networks."""

from .network import (
    FeatureMatrix,
    HiddenWeights,
    RandomFeatureNet,
    WeightDistributionSpec,
    design_matrix,
    load_model,
    pi_b,
    pi_w,
    predict,
    sample_hidden_weights,
    save_model,
    subnetwork,
)
from .rng import derive_seed, substream
from .levy import (
    CompoundPoissonSpec,
    LevyTriplet,
    Payoff,
    bs_call_price,
    bs_put_price,
    equal_correlation_sigma,
    levy_symbol,
    payoff_eval,
    payoff_log_eval,
    price_mc,
    risk_neutral_gamma,
    simulate_levy_increment,
    verify_nondegeneracy,
)
from .data import (
    Dataset,
    LognormalSpec,
    gen_basket_put_dataset,
    gen_pde_dataset,
    load_dataset,
    sample_lognormal,
    save_dataset,
)
from .train import (
    FitDiagnostics,
    TrainConfig,
    empirical_risk,
    fit,
    fit_constrained,
    fit_ols,
    fit_sgd,
    project_ball,
)
from .fourier import (
    FourierProfile,
    alpha,
    construct_oracle_weights,
    gaussian_profile,
    oracle_weight_envelope,
    reference_convolution,
    sup_error_on_grid,
)
from .config import ExperimentSpec, payoff_from_dict, payoff_to_dict
from .experiments import (
    ExperimentReport,
    fit_log_slope,
    run_basket_put,
    run_experiment,
    run_oracle_convergence,
    run_rate_curve,
    run_sgd_vs_ols,
    write_report,
)

__version__ = "0.1.0"
