"""Growth-curve analysis of scaled social complexity panels.

The package turns a regional panel of complexity scores into a single
relative-time growth picture: scores are min-max scaled globally, a
pooled density estimate locates the bimodal gap between low- and
high-complexity regimes, each region is anchored at its first crossing
of that gap, and a four-parameter logistic is fitted to the pooled
aligned points. Bootstrap resampling over regions then bounds the
plateaus and yields the characteristic growth duration.
"""

from .align import ContinuityMode, shift_to_reltime
from .dataset import SyntheticSpec, generate_synthetic, load_dataset, minmax_scale
from .density import find_bimodal_threshold, gaussian_kde
from .errors import DataError, NumericalError, ParameterError, RowParseError, SpcGrowthError
from .inference import (
    bootstrap_fits,
    characteristic_timescale,
    continuity_comparison,
    empirical_durations,
    out_of_sample_validation,
    plateau_thresholds,
)
from .logistic import fit_logistic
from .pipeline import PipelineConfig, benchmark_check, run_pipeline

__version__ = "0.1.0"

# The documented library API (README "Library"); everything else is
# imported from its own submodule.
__all__ = [
    "PipelineConfig",
    "run_pipeline",
    "SyntheticSpec",
    "generate_synthetic",
    "load_dataset",
    "minmax_scale",
    "gaussian_kde",
    "find_bimodal_threshold",
    "shift_to_reltime",
    "fit_logistic",
    "out_of_sample_validation",
    "bootstrap_fits",
    "plateau_thresholds",
    "characteristic_timescale",
    "empirical_durations",
    "ContinuityMode",
    "continuity_comparison",
    "benchmark_check",
    "SpcGrowthError",
    "DataError",
    "RowParseError",
    "ParameterError",
    "NumericalError",
]
