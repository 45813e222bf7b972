"""The column-at-a-time output layer against per-row references, the
text report against its JSON sidecar, the memory that writing the outputs
takes, and what a failed write leaves."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    ReferenceFrame,
    chart_texts,
    joined,
    plot_files,
    json_leaves,
    raising_after_first_chunk,
    reference_chart_files,
    reference_csv,
    reference_plot_data,
    reference_serialize,
    text_leaves,
)

from spcgrowth import (
    PipelineConfig,
    SyntheticSpec,
    charts,
    generate_synthetic,
    report,
    run_pipeline,
)
from spcgrowth.charts import _Frame
from spcgrowth.dataset import HEADER, csv_field, load_dataset, serialize_dataset
from spcgrowth.report import report_files, write_outputs

# names csv.writer quotes (comma, double quote), a non-ASCII one, two that
# share a slug, a percent sign, which a row template must not read, and the
# "; " and " = " that separate items and values in report.txt lines
AWKWARD_NAMES = [
    "Latium, Rome", 'The "Old" Town', "Zürich", "Rome", "rome", "100% Land", "Nile; Delta = Low"
]


@pytest.fixture(scope="module")
def awkward_bundle(tmp_path_factory):
    """Complete bundle for a panel with awkward names, parsed from a file
    written by the per-row reference."""
    ds = generate_synthetic(SyntheticSpec(len(AWKWARD_NAMES), noise_sigma=0.05), seed=7)
    renamed = [
        replace(s, nga=name, pol_id=(f"{name}, P1",) * len(s))
        for s, name in zip(ds.regions, AWKWARD_NAMES)
    ]
    pol_ids = ('P"1', "P,2", "P3")
    renamed[0] = replace(renamed[0], pol_id=tuple(pol_ids[i % 3] for i in range(len(renamed[0]))))
    path = tmp_path_factory.mktemp("awkward") / "panel.csv"
    path.write_text(reference_serialize(replace(ds, regions=tuple(renamed))), encoding="utf-8")
    bundle = run_pipeline(PipelineConfig(input_path=str(path), n_bootstrap=50, n_validation=5))
    assert sorted(r.nga for r in bundle.aligned.regions) == sorted(AWKWARD_NAMES)
    return bundle, path


def test_csv_field_quotes_like_csv_writer():
    for text in ["", "a", " a ", "a,b", 'a"b', '"', "a\nb", "a\tb", "Ω", "a'b", "%d"]:
        assert csv_field(text) + ",x\n" == reference_csv([text, "x"], []), repr(text)


def test_panel_serialises_like_the_per_row_writer(awkward_bundle):
    _, path = awkward_bundle
    parsed = load_dataset(path)
    assert serialize_dataset(parsed) == reference_serialize(parsed)
    scaled = awkward_bundle[0].dataset
    assert serialize_dataset(scaled) == reference_serialize(scaled)
    assert serialize_dataset(replace(scaled, regions=())) == ",".join(HEADER) + ",SPC1.scaled\n"


def test_plot_data_matches_the_per_row_reference(awkward_bundle):
    bundle, _ = awkward_bundle
    files = joined((p, c) for p, c in plot_files(bundle) if p.endswith(".csv"))
    fixed, series = reference_plot_data(bundle)
    assert {k: v for k, v in files.items() if not k.startswith("series/")} == fixed
    assert [v for k, v in files.items() if k.startswith("series/")] == series


def test_charts_match_the_per_point_reference(awkward_bundle):
    bundle, _ = awkward_bundle
    texts = chart_texts(bundle)
    assert len(texts) == 5
    assert texts == reference_chart_files(bundle)


@pytest.mark.parametrize("name", ["full_bundle", "fit_bundle", "awkward_bundle"])
def test_the_text_report_holds_every_json_leaf_and_nothing_else(name, request):
    bundle = request.getfixturevalue(name)
    if name == "awkward_bundle":
        bundle, _ = bundle
    files = joined(report_files(bundle))
    text, data = text_leaves(files["report.txt"]), json.loads(files["report.json"])
    assert text == json_leaves(data)
    # a section appears once its stage has run, in the JSON and the text alike
    sections = {"provenance", "scaling", "threshold", "alignment", "fit"}
    if name == "fit_bundle":
        assert set(data) == sections
    else:
        assert set(data) == sections | {
            "validation", "bootstrap", "timescales", "durations", "continuity"
        }
    assert "threshold.threshold_density" in text
    assert text["alignment.anchors.0.crossed"] == "true"
    assert ("Nile; Delta = Low" in text.values()) == (name == "awkward_bundle")


def test_array_pixels_have_the_bits_of_scalar_pixels():
    rng = np.random.default_rng(3)
    values = np.concatenate([rng.normal(0.0, 1e3, 4000), rng.uniform(-1.0, 2.0, 4000)])
    frames = [
        ((60, 40, 740, 440), (-4500.0, 5100.0), (-0.05, 1.05)),
        ((10, 52, 160, 160), (-1234.5, 987.25), (-0.3, 0.7)),
        ((0, 0, 100, 100), (0.0, 1.0), (0.0, 1.0)),
    ]
    for box, x_range, y_range in frames:
        frame = _Frame(box, x_range, y_range)
        scalar = ReferenceFrame(box, x_range, y_range)
        assert frame.x(values).tolist() == [scalar.x(v) for v in values.tolist()]
        assert frame.y(values).tolist() == [scalar.y(v) for v in values.tolist()]


def test_polyline_and_dots_format_like_f_strings_including_negative_zero():
    # pixels just left of and below the box edge at 0 print as -0.00
    box, x_range, y_range = (0, 0, 100, 100), (0.0, 1.0), (0.0, 1.0)
    frame = _Frame(box, x_range, y_range)
    scalar = ReferenceFrame(box, x_range, y_range)
    xs = np.array([-1e-6, 0.0, 0.5, 0.123456, 1.0 + 1e-9] * 500)
    ys = np.array([1.0 + 1e-6, 1.0, 0.25, -3e-5, 0.987654] * 500)
    line = frame.polyline(xs, ys, "#000", 2.0, "4 3")
    assert "-0.00,-0.00" in line
    assert line == scalar.polyline(xs, ys, "#000", 2.0, "4 3")
    assert "\n".join(frame.circles(xs, ys)) == "\n".join(scalar.circles(xs, ys))


def test_writing_holds_less_than_the_bytes_it_writes(tmp_path):
    # Every file streams to disk a chunk at a time, so the tracemalloc peak
    # of writing the outputs (above the finished bundle) grows far slower
    # than the bytes written: from 60 to 240 regions the bytes grow 3.8x
    # (1.9 to 7.1 MB) and the peak 1.7x (0.24 to 0.41 MB). Holding one
    # group's text at a time, the peak grew with the bytes (1.5 to 5.8 MB).
    peaks, totals, largest = {}, {}, {}
    for n in (60, 240):
        ds = generate_synthetic(SyntheticSpec(n, noise_sigma=0.05), seed=7)
        path = tmp_path / f"panel{n}.csv"
        path.write_text(serialize_dataset(ds), encoding="utf-8")
        config = PipelineConfig(input_path=str(path), n_bootstrap=20, n_validation=5)
        bundle = run_pipeline(config)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            written = write_outputs(bundle, tmp_path / f"out{n}")
            peaks[n] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        sizes = [p.stat().st_size for p in written]
        totals[n], largest[n] = sum(sizes), max(sizes)
        assert peaks[n] < totals[n], f"{n} regions: peak {peaks[n]} for {totals[n]} bytes"
    assert totals[60] > 1_500_000
    assert totals[240] > 3.5 * totals[60]
    assert peaks[240] < 2 * peaks[60], f"peaks {peaks}"
    assert peaks[240] < largest[240], f"peak {peaks[240]}, largest file {largest[240]}"


@pytest.mark.parametrize(
    "module, name, path",
    [(report, "_residuals_csv", "residuals.csv"), (charts, "residuals_chart", "residuals.svg")],
    ids=["csv", "svg"],
)
def test_a_file_whose_renderer_raises_is_not_left_behind(
    module, name, path, awkward_bundle, tmp_path, monkeypatch
):
    bundle, _ = awkward_bundle
    render = raising_after_first_chunk(getattr(module, name), RuntimeError("renderer failed"))
    monkeypatch.setattr(module, name, render)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="renderer failed"):
        write_outputs(bundle, out)
    assert not (out / path).exists()
    assert (out / "report.json").is_file()
