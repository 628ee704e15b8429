"""Dynamic Bayesian synthesis of quantile forecasts.

Agent quantile models, univariate and factor Gibbs synthesizers, forecast
scoring, predictive-density reconstruction, and an expanding-window backtest
pipeline with a command-line front end.

Import names from their submodules (``from quantsynth.pipeline import
run_backtest``); the bare package loads no submodule, so importing it (for
worker bootstrap or ``--help``) does not pull in the numerical stack.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
