"""Dynamic Bayesian synthesis of quantile forecasts.

Agent quantile models, univariate and factor Gibbs synthesizers, forecast
scoring, predictive-density reconstruction, and an expanding-window backtest
pipeline with a command-line front end.

Submodule attributes are loaded lazily so that importing the bare package
(for worker bootstrap or ``--help``) does not pull in the numerical stack.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    # distributions
    "mixture_constants": ".distributions",
    "MixtureConstants": ".distributions",
    "sample_gig_half": ".distributions",
    # dlm engine
    "DiscountConfig": ".dlm",
    "NormalGammaPrior": ".dlm",
    "ffbs_conjugate": ".dlm",
    "ffbs_known_variance": ".dlm",
    "gbrw_filter_sample": ".dlm",
    "psd_sqrt": ".dlm",
    # agents
    "AgentForecast": ".agents",
    "AgentForecastSet": ".agents",
    "DQLMFit": ".agents",
    "DQLMSpec": ".agents",
    "fit_dqlm": ".agents",
    "forecast_dqlm": ".agents",
    "predictive_cloud": ".agents",
    # univariate synthesis
    "DRQSConfig": ".drqs",
    "DRQSDraws": ".drqs",
    "QuantileForecast": ".drqs",
    "default_synthesis_prior": ".drqs",
    "forecast_drqs": ".drqs",
    "gibbs_drqs": ".drqs",
    # factor synthesis
    "FDRQSConfig": ".fdrqs",
    "FDRQSDraws": ".fdrqs",
    "FactorForecast": ".fdrqs",
    "forecast_fdrqs": ".fdrqs",
    "gibbs_fdrqs": ".fdrqs",
    # evaluation
    "QuantileGrid": ".evaluation",
    "ReconstructedPredictive": ".evaluation",
    "ScorePanel": ".evaluation",
    "crps_quantile_weighted": ".evaluation",
    "pit": ".evaluation",
    "quantile_weights": ".evaluation",
    "reconstruct_predictive": ".evaluation",
    # configuration and pipeline
    "RunConfig": ".config",
    "load_config": ".config",
    "BacktestPlan": ".pipeline",
    "RunManifest": ".pipeline",
    "SeriesPanel": ".pipeline",
    "audit_lookahead": ".pipeline",
    "emit_plots_data": ".pipeline",
    "ingest": ".pipeline",
    "make_plan": ".pipeline",
    "run_backtest": ".pipeline",
    # time index
    "format_time": ".quarters",
    "int_to_quarter": ".quarters",
    "parse_time": ".quarters",
    "quarter_to_int": ".quarters",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name):
    if name in _EXPORTS:
        module = importlib.import_module(_EXPORTS[name], __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
