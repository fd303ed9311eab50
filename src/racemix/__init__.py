"""Bayesian mixed-effects modelling of cross-country race times.

Log finish time (or log pace) is regressed on fixed distance, windspeed
and rainfall effects plus random athlete, course and season effects.
Fitting is a custom Gibbs-within-slice MCMC sampler; the package also
provides convergence diagnostics, posterior predictive checks, synthetic
data simulation for parameter-recovery testing, and a command line
front end.
"""
__version__ = "0.1.0"

from .ingest import (
    DataError,
    DesignMatrixView,
    RaceContext,
    RaceObservation,
    build_design,
    parse_races,
    parse_rainfall,
    parse_results,
)
from .model import (
    ConfigError,
    McmcSchedule,
    ModelConfig,
    ParameterState,
    PriorConfig,
    log_likelihood,
    log_posterior,
    log_prior,
)
from .sampler import (
    ChainOutput,
    SamplerError,
    load_chain,
    run_chain,
    run_chains,
    save_chain,
)
from .diagnostics import (
    ChainMoments,
    DegenerateChainWarning,
    ParameterSummary,
    autocorrelation,
    chain_moments,
    effective_sample_size,
    split_rhat,
    summarize,
)
from .predictive import (
    PpcRaceReport,
    SimulatedData,
    SyntheticSpec,
    effect_on_time,
    posterior_predictive_race,
    ppc_report,
    simulate_dataset,
)

__all__ = [
    "__version__",
    "ConfigError", "DataError", "SamplerError", "DegenerateChainWarning",
    "RaceObservation", "RaceContext", "DesignMatrixView",
    "parse_results", "parse_races", "parse_rainfall", "build_design",
    "PriorConfig", "McmcSchedule", "ModelConfig", "ParameterState",
    "log_likelihood", "log_prior", "log_posterior",
    "ChainOutput", "run_chain", "run_chains", "save_chain", "load_chain",
    "ParameterSummary", "autocorrelation", "effective_sample_size",
    "summarize", "ChainMoments", "chain_moments", "split_rhat",
    "SyntheticSpec", "SimulatedData", "simulate_dataset",
    "posterior_predictive_race", "PpcRaceReport", "ppc_report",
    "effect_on_time",
]
