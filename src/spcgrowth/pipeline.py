"""End-to-end orchestration: panel file in, report bundle and artifacts out.

The pipeline runs parse -> scale -> density threshold -> align -> fit ->
validate -> bootstrap -> timescales -> empirical durations -> continuity
comparisons. With an output directory, every file is written into one
hidden staging directory, made in the output directory or its nearest
existing ancestor right after the fit stage (``report.FitStageWriter``).
The files that need only the fit stage (``report.fit_stage_files``) are
written there by a forked child while the refits run; where ``os.fork``
does not exist or fails, or the child exits nonzero, they are written
after the last stage. After the last stage the other files are written
there too, and then every staged file is renamed into place,
``report.json`` last. A failure before the first rename leaves the
output directory as it was, and the staging directory is removed on
every path.

``benchmark_check`` scores held-out series against a fit-stage bundle and
returns them as the plain ``{"check": {...}}`` dict that ``check`` prints
(``report.render_check_text``).

Reproducibility contract: identical input bytes and configuration give a
byte-identical report. The provenance block records the seed, a digest
of the configuration, and the SHA-256 of the input file. The digest is
taken over every field of ``PipelineConfig`` but the two paths, plus
``K_SIGMAS`` and ``CONTINUITY_MODES``, so it is machine independent and a
setting added later is digested with the rest.
"""

from __future__ import annotations

import hashlib
import json
import logging
import operator
from dataclasses import dataclass, fields, replace

import numpy as np

from .align import AlignedDataset, ContinuityMode, shift_to_reltime
from .dataset import Dataset, load_dataset, minmax_scale
from .density import AUTO_BANDWIDTH, BimodalThreshold, DensityEstimate, gaussian_kde, find_bimodal_threshold
from .errors import ParameterError
from .inference import (
    BootstrapEnsemble,
    ContinuityComparison,
    EmpiricalDurations,
    TimescaleEstimate,
    ValidationReport,
    bootstrap_fits,
    characteristic_timescale,
    continuity_comparison,
    empirical_durations,
    out_of_sample_validation,
    plateau_thresholds,
)
from .logistic import FitResult, fit_logistic

logger = logging.getLogger(__name__)

# Substream indices for deriving per-stage seeds from the config seed, so
# validation and bootstrap never consume the same random stream.
_VALIDATION_STREAM = 0
_BOOTSTRAP_STREAM = 1

# Every run estimates the growth window at both plateau widths and refits
# on both kinds of central segment, in this order.
K_SIGMAS = (1, 3)
CONTINUITY_MODES = (ContinuityMode.CULTURAL, ContinuityMode.INSTITUTIONAL)


def _integer(name: str, value) -> int:
    """``value`` as an int: a numpy integer or a bool gives the equal int,
    so it runs and is digested as that int; a float or a string raises
    ``ParameterError`` naming the setting."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run needs; validated on construction."""

    input_path: str
    seed: int = 0
    n_bootstrap: int = 1000
    n_validation: int = 100
    bandwidth: float | str = AUTO_BANDWIDTH
    output_dir: str | None = None

    def __post_init__(self):
        for name in ("seed", "n_bootstrap", "n_validation"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.n_bootstrap < 1:
            raise ParameterError(f"n_bootstrap must be >= 1, got {self.n_bootstrap}")
        if self.n_validation < 1:
            raise ParameterError(f"n_validation must be >= 1, got {self.n_validation}")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != AUTO_BANDWIDTH:
                raise ParameterError(f"bandwidth must be {AUTO_BANDWIDTH!r} or a positive number, got {self.bandwidth!r}")
        elif not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ParameterError(f"bandwidth must be finite and positive, got {self.bandwidth}")
        else:
            object.__setattr__(self, "bandwidth", float(self.bandwidth))


@dataclass(frozen=True)
class ReportBundle:
    """All results of a run. Inference fields are None or empty until their
    stage has run; ``complete`` tells whether every stage has."""

    config: PipelineConfig
    dataset: Dataset  # scaled, carries the extrema
    density: DensityEstimate
    threshold: BimodalThreshold
    aligned: AlignedDataset
    full_fit: FitResult
    config_sha256: str
    input_sha256: str
    validation: ValidationReport | None = None
    ensemble: BootstrapEnsemble | None = None
    timescales: tuple[TimescaleEstimate, ...] = ()
    durations: EmpiricalDurations | None = None
    continuity: tuple[ContinuityComparison, ...] = ()

    def timescale(self, k_sigma: int) -> TimescaleEstimate:
        for ts in self.timescales:
            if ts.k_sigma == k_sigma:
                return ts
        raise KeyError(k_sigma)

    @property
    def complete(self) -> bool:
        return (
            self.validation is not None
            and self.ensemble is not None
            and self.durations is not None
            and tuple(ts.k_sigma for ts in self.timescales) == K_SIGMAS
            and tuple(c.mode for c in self.continuity) == CONTINUITY_MODES
        )


def _file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _config_sha256(config: PipelineConfig) -> str:
    """Digest of the run configuration: every field but the two paths, and
    the fixed ``K_SIGMAS`` and ``CONTINUITY_MODES``, so the digest only
    changes when the analysis itself would. A float is written as its
    ``repr``."""
    payload = {
        "k_sigma_list": list(K_SIGMAS),
        "continuity_modes": [mode.value for mode in CONTINUITY_MODES],
    }
    for field in fields(config):
        if field.name not in ("input_path", "output_dir"):
            value = getattr(config, field.name)
            payload[field.name] = repr(value) if isinstance(value, float) else value
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _derived_seed(seed: int, stream: int) -> int:
    child = np.random.SeedSequence(seed, spawn_key=(stream,))
    return int(child.generate_state(1)[0])


def run_fit_stage(config: PipelineConfig) -> ReportBundle:
    """Parse, scale, derive the threshold, align, and fit the full curve."""
    raw = load_dataset(config.input_path)
    scaled = minmax_scale(raw)
    density = gaussian_kde(scaled.all_scaled(), bandwidth=config.bandwidth)
    threshold = find_bimodal_threshold(density)
    logger.info("bimodal threshold: %.6g (bandwidth %.6g)", threshold.spc1_0, density.bandwidth)
    aligned = shift_to_reltime(scaled, threshold.spc1_0)
    t, y = aligned.pooled()
    full_fit = fit_logistic(t, y)
    logger.info(
        "full fit: rmse=%.6g over %d points (%d iterations)",
        full_fit.rmse,
        full_fit.n_points,
        full_fit.iterations,
    )
    return ReportBundle(
        config=config,
        dataset=scaled,
        density=density,
        threshold=threshold,
        aligned=aligned,
        full_fit=full_fit,
        config_sha256=_config_sha256(config),
        input_sha256=_file_sha256(config.input_path),
    )


def add_validation(bundle: ReportBundle) -> ReportBundle:
    validation = out_of_sample_validation(
        bundle.aligned,
        bundle.full_fit,
        n_repeats=bundle.config.n_validation,
        seed=_derived_seed(bundle.config.seed, _VALIDATION_STREAM),
    )
    logger.info(
        "validation: mean rho2=%.4f +/- %.4f over %d repeats",
        validation.mean_rho2,
        validation.stderr_rho2,
        len(validation.rho2_values),
    )
    return replace(bundle, validation=validation)


def add_bootstrap(bundle: ReportBundle) -> ReportBundle:
    """Bootstrap the fit, derive plateau thresholds and timescales for
    each k of ``K_SIGMAS``, and the observed per-region durations (k=3)."""
    ensemble = bootstrap_fits(
        bundle.aligned,
        bundle.full_fit,
        n_iter=bundle.config.n_bootstrap,
        seed=_derived_seed(bundle.config.seed, _BOOTSTRAP_STREAM),
    )
    timescales = []
    durations = None
    for k in K_SIGMAS:
        th1, th2 = plateau_thresholds(ensemble, k)
        estimate = characteristic_timescale(ensemble, th1, th2, k)
        timescales.append(estimate)
        logger.info(
            "k=%d: thresholds (%.4f, %.4f), duration %.0f yr over %d curves",
            k,
            th1,
            th2,
            estimate.duration_mean,
            estimate.n_crossing_curves,
        )
        if k == 3:
            durations = empirical_durations(bundle.aligned, th1, th2)
    return replace(
        bundle, ensemble=ensemble, timescales=tuple(timescales), durations=durations
    )


def add_continuity(bundle: ReportBundle) -> ReportBundle:
    comparisons = tuple(
        continuity_comparison(bundle.aligned, bundle.full_fit, mode)
        for mode in CONTINUITY_MODES
    )
    return replace(bundle, continuity=comparisons)


def run_pipeline(config: PipelineConfig) -> ReportBundle:
    """Run every stage; write the report and plot artifacts when the
    configuration names an output directory."""
    bundle = run_fit_stage(config)
    if config.output_dir is None:
        return add_continuity(add_bootstrap(add_validation(bundle)))
    from . import report

    with report.FitStageWriter(config.output_dir, bundle) as staged:
        bundle = add_continuity(add_bootstrap(add_validation(bundle)))
        written = report.write_outputs(bundle, staged)
    logger.info("wrote %d file(s) to %s", len(written), config.output_dir)
    return bundle


def benchmark_check(bundle: ReportBundle, new_series_path) -> dict:
    """Score held-out series against a finished run.

    Each new region is scaled with the bundle's stored extrema and
    aligned against its threshold by ``shift_to_reltime``, as the panel's
    regions are. Its residuals against the full fitted curve are those
    ``report.region_residuals`` gives, as for ``residuals.csv``. A region
    that never crosses the threshold comes back as a not-anchorable row,
    its anchor year None and its scores NaN, rather than an error.

    Returns ``{"check": {...}}``, the one list of the check's fields, as
    ``report.bundle_to_dict`` is the report's; ``report.render_check_text``
    walks it.
    """
    from .report import region_residuals

    if bundle.dataset.scale_min is None:
        raise ParameterError("bundle dataset carries no scaling extrema")
    raw = load_dataset(new_series_path)
    scaled = minmax_scale(
        raw, extrema=(bundle.dataset.scale_min, bundle.dataset.scale_max)
    )
    aligned = shift_to_reltime(scaled, bundle.threshold.spc1_0)
    # retained regions and anchors are both in name order
    walk = region_residuals(aligned, bundle.full_fit.params)
    n_points = {series.nga: len(series) for series in scaled.regions}
    reference_rmse = bundle.full_fit.rmse
    series = []
    for anchor in aligned.anchor_results:
        rmse = max_abs = beyond = float("nan")
        if anchor.crossed:
            _, _, residuals = next(walk)
            rmse = float(np.sqrt(np.mean(residuals**2)))
            max_abs = float(np.max(np.abs(residuals)))
            beyond = float(np.mean(np.abs(residuals) > 2.0 * reference_rmse))
        series.append(
            {
                "nga": anchor.nga,
                "anchored": anchor.crossed,
                "anchor_year": anchor.anchor_year,
                "n_points": n_points[anchor.nga],
                "rmse": rmse,
                "max_abs_residual": max_abs,
                "frac_beyond": beyond,  # share of |residuals| above 2x the reference RMSE
            }
        )
    return {
        "check": {
            "reference_rmse": reference_rmse,
            "spc1_0": bundle.threshold.spc1_0,
            "n_series": len(series),
            "n_anchored": sum(s["anchored"] for s in series),
            "series": series,
        }
    }
