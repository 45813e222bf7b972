"""Growth-curve analysis of scaled social complexity panels.

The package turns a regional panel of complexity scores into a single
relative-time growth picture: scores are min-max scaled globally, a
pooled density estimate locates the bimodal gap between low- and
high-complexity regimes, each region is anchored at its first crossing
of that gap, and a four-parameter logistic is fitted to the pooled
aligned points. Bootstrap resampling over regions then bounds the
plateaus and yields the characteristic growth duration.

Importing the package loads no submodule, and so not numpy: each name
of the library API loads its submodule on first use. That lets
``spcgrowth.cli`` choose how numpy loads when the command line starts
the process (README "Start-up").
"""

import importlib

__version__ = "0.1.0"

# The documented library API (README "Library"), name -> its submodule;
# everything else is imported from its own submodule.
_SUBMODULE = {
    "PipelineConfig": "pipeline",
    "run_pipeline": "pipeline",
    "SyntheticSpec": "dataset",
    "generate_synthetic": "dataset",
    "load_dataset": "dataset",
    "minmax_scale": "dataset",
    "gaussian_kde": "density",
    "find_bimodal_threshold": "density",
    "shift_to_reltime": "align",
    "fit_logistic": "logistic",
    "out_of_sample_validation": "inference",
    "bootstrap_fits": "inference",
    "plateau_thresholds": "inference",
    "characteristic_timescale": "inference",
    "empirical_durations": "inference",
    "ContinuityMode": "align",
    "continuity_comparison": "inference",
    "benchmark_check": "pipeline",
    "SpcGrowthError": "errors",
    "DataError": "errors",
    "RowParseError": "errors",
    "ParameterError": "errors",
    "NumericalError": "errors",
}
__all__ = list(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
