import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

from helpers import aligned_from_synthetic  # noqa: E402

from spcgrowth import (  # noqa: E402
    PipelineConfig,
    SyntheticSpec,
    fit_logistic,
    generate_synthetic,
    run_pipeline,
)
from spcgrowth.dataset import serialize_dataset
from spcgrowth.pipeline import run_fit_stage


@pytest.fixture(scope="session")
def noisy_panel_path(tmp_path_factory):
    """12-region noisy synthetic panel written to disk."""
    ds = generate_synthetic(SyntheticSpec(12, noise_sigma=0.05), seed=7)
    path = tmp_path_factory.mktemp("panel") / "panel.csv"
    path.write_text(serialize_dataset(ds), encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def fit_bundle(noisy_panel_path):
    """Fit-stage bundle (threshold, alignment, full fit) for the noisy panel."""
    return run_fit_stage(PipelineConfig(input_path=str(noisy_panel_path)))


@pytest.fixture(scope="session")
def full_bundle(noisy_panel_path):
    """Complete bundle with shrunk replicate counts to keep the suite fast."""
    config = PipelineConfig(
        input_path=str(noisy_panel_path), seed=0, n_bootstrap=150, n_validation=25
    )
    return run_pipeline(config)


@pytest.fixture(scope="session")
def aligned_noisy():
    """(aligned panel, full fit) in the generator frame, for inference tests."""
    ds = generate_synthetic(SyntheticSpec(12, noise_sigma=0.05), seed=21)
    aligned = aligned_from_synthetic(ds)
    full = fit_logistic(*aligned.pooled())
    return aligned, full
