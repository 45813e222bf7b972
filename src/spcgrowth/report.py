"""Report and plot-artifact rendering.

Two renderings of the same results: a line-oriented ``key = value`` text
report for humans and a JSON sidecar with identical content for machines.
Every number printed here is read from a result object; nothing is
recomputed at render time. Floats are written with ``repr`` so two runs
that computed the same values produce the same bytes.

``plot_data_files`` holds the quantitative content of each figure as CSV
(the SVG renderings in ``charts`` are overlays on top of these, never the
source of truth). The long CSVs are formatted a column at a time: each
region's or curve's columns are taken out with ``tolist()`` once, and
every row fills one ``%d``/``%r`` template, with names quoted by
``dataset.csv_field``. ``write_files`` is the one place output files are
written; ``write_outputs`` renders and writes one group at a time (the
reports, the plot data, the charts), so only one group's text is held
at once.
"""

from __future__ import annotations

import json
import logging
from dataclasses import replace
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .dataset import Dataset, csv_field, serialize_dataset
from .errors import ParameterError
from .logistic import logistic_eval

if TYPE_CHECKING:
    from .inference import ContinuityComparison
    from .pipeline import CheckReport, ReportBundle

logger = logging.getLogger(__name__)

CURVE_SAMPLES = 513


def _f(value) -> str:
    return repr(float(value))


def _b(value) -> str:
    return "true" if value else "false"


def _slug(name: str) -> str:
    slug = "".join(ch.lower() if ch.isalnum() else "-" for ch in name)
    while "--" in slug:
        slug = slug.replace("--", "-")
    return slug.strip("-") or "region"


def _csv_text(header: list[str], rows: list[list]) -> str:
    return "".join(",".join(map(csv_field, row)) + "\n" for row in [header, *rows])


def _template_rows(template: str, *columns) -> list[str]:
    """One ``template`` line per row of the columns (``tolist()`` lists, or
    ``repeat`` for a field that is the same on every row)."""
    return [template % row for row in zip(*columns)]


def bundle_to_dict(bundle: ReportBundle) -> dict:
    """The report as plain Python data, ready for ``json.dumps``."""
    dataset = bundle.dataset
    data: dict = {
        "provenance": {
            "seed": bundle.provenance.seed,
            "config_sha256": bundle.provenance.config_sha256,
            "input_sha256": bundle.provenance.input_sha256,
        },
        "scaling": {
            "scale_min": float(dataset.scale_min),
            "scale_max": float(dataset.scale_max),
            "n_regions": len(dataset.regions),
            "n_points": dataset.n_points(),
        },
        "threshold": {
            "spc1_0": float(bundle.threshold.spc1_0),
            "left_peak": float(bundle.threshold.left_peak),
            "right_peak": float(bundle.threshold.right_peak),
            "threshold_density": float(bundle.threshold.threshold_density),
            "bandwidth": float(bundle.density.bandwidth),
            "grid_size": int(bundle.density.grid.size),
            "n_samples": int(bundle.density.n_samples),
        },
        "alignment": {
            "n_retained": len(bundle.aligned.regions),
            "n_discarded": len(bundle.aligned.discarded),
            "discarded": list(bundle.aligned.discarded),
            "anchors": [
                {
                    "nga": a.nga,
                    "anchor_year": a.anchor_year,
                    "crossed": a.crossed,
                    "ties": a.threshold_ties,
                }
                for a in bundle.aligned.anchor_results
            ],
        },
        "fit": _fit_to_dict(bundle.full_fit),
    }
    if bundle.validation is not None:
        v = bundle.validation
        data["validation"] = {
            "n_repeats": len(v.rho2_values),
            "n_failed": v.n_failed,
            "rho2_mean": float(v.mean_rho2),
            "rho2_stderr": float(v.stderr_rho2),
            "rho2_std": float(v.std_rho2),
            "seed": v.seed,
        }
    if bundle.ensemble is not None:
        e = bundle.ensemble
        data["bootstrap"] = {
            "n_iter": e.n_iter,
            "n_failed": e.failed_fits,
            "n_fits": len(e.params),
            "seed": e.seed,
        }
    if bundle.timescales:
        data["timescales"] = [
            {
                "k_sigma": ts.k_sigma,
                "th1": float(ts.th1),
                "th2": float(ts.th2),
                "t1_mean": float(ts.t1_mean),
                "t2_mean": float(ts.t2_mean),
                "duration_mean": float(ts.duration_mean),
                "n_crossing_curves": ts.n_crossing_curves,
                "n_excluded_curves": ts.n_excluded_curves,
            }
            for ts in bundle.timescales
        ]
    if bundle.durations is not None:
        d = bundle.durations
        data["durations"] = {
            "n_regions": len(d.per_nga),
            "excluded": list(d.excluded),
            "mean": float(d.mean_duration),
            "median": float(d.median_duration),
            "per_nga": [
                {
                    "nga": entry.nga,
                    "tau1": float(entry.tau1),
                    "tau2": float(entry.tau2),
                    "duration": float(entry.duration),
                }
                for entry in d.per_nga
            ],
        }
    if bundle.continuity:
        data["continuity"] = [
            {
                "mode": comparison.mode.value,
                "fit": _fit_to_dict(comparison.fit),
                "upper_plateau": float(
                    comparison.fit.params.a + comparison.fit.params.b
                ),
                "n_segments": len(comparison.segments),
                "mean_length": float(comparison.mean_length),
                "skipped": list(comparison.skipped),
                "lengths": [
                    {"nga": nga, "length": length}
                    for nga, length in comparison.length_ranking()
                ],
            }
            for comparison in bundle.continuity
        ]
    return data


def _fit_to_dict(fit) -> dict:
    return {
        "a": float(fit.params.a),
        "b": float(fit.params.b),
        "c": float(fit.params.c),
        "d": float(fit.params.d),
        "rmse": float(fit.rmse),
        "n_points": fit.n_points,
        "iterations": fit.iterations,
        "converged": fit.converged,
    }


def render_report_json(bundle: ReportBundle) -> str:
    return json.dumps(bundle_to_dict(bundle), sort_keys=True, indent=2) + "\n"


def render_report_text(bundle: ReportBundle) -> str:
    """Human-readable report; sections appear once their stage has run."""
    lines = ["social complexity growth report", ""]

    lines += ["[provenance]"]
    lines += [f"seed = {bundle.provenance.seed}"]
    lines += [f"config.sha256 = {bundle.provenance.config_sha256}"]
    lines += [f"input.sha256 = {bundle.provenance.input_sha256}", ""]

    dataset = bundle.dataset
    lines += ["[scaling]"]
    lines += [f"scale.min = {_f(dataset.scale_min)}"]
    lines += [f"scale.max = {_f(dataset.scale_max)}"]
    lines += [f"n.regions = {len(dataset.regions)}"]
    lines += [f"n.points = {dataset.n_points()}", ""]

    lines += ["[threshold]"]
    lines += [f"spc1_0 = {_f(bundle.threshold.spc1_0)}"]
    lines += [f"left.peak = {_f(bundle.threshold.left_peak)}"]
    lines += [f"right.peak = {_f(bundle.threshold.right_peak)}"]
    lines += [f"bandwidth = {_f(bundle.density.bandwidth)}"]
    lines += [f"grid.size = {bundle.density.grid.size}"]
    lines += [f"n.samples = {bundle.density.n_samples}", ""]

    aligned = bundle.aligned
    lines += ["[alignment]"]
    lines += [f"n.retained = {len(aligned.regions)}"]
    lines += [f"n.discarded = {len(aligned.discarded)}"]
    lines += [f"discarded = {'; '.join(aligned.discarded)}"]
    for anchor in aligned.anchor_results:
        year = "none" if anchor.anchor_year is None else str(anchor.anchor_year)
        lines += [f"anchor {anchor.nga} = {year}"]
        if anchor.threshold_ties:
            lines += [f"ties {anchor.nga} = {anchor.threshold_ties}"]
    lines += [""]

    lines += ["[fit]"]
    lines += _fit_lines(bundle.full_fit)
    lines += [""]

    if bundle.validation is not None:
        v = bundle.validation
        lines += ["[validation]"]
        lines += [f"n.repeats = {len(v.rho2_values)}"]
        lines += [f"n.failed = {v.n_failed}"]
        lines += [f"rho2.mean = {_f(v.mean_rho2)}"]
        lines += [f"rho2.stderr = {_f(v.stderr_rho2)}"]
        lines += [f"rho2.std = {_f(v.std_rho2)}"]
        lines += [f"seed = {v.seed}", ""]

    if bundle.ensemble is not None:
        e = bundle.ensemble
        lines += ["[bootstrap]"]
        lines += [f"n.iter = {e.n_iter}"]
        lines += [f"n.failed = {e.failed_fits}"]
        lines += [f"n.fits = {len(e.params)}"]
        lines += [f"seed = {e.seed}", ""]

    for ts in bundle.timescales:
        lines += [f"[timescale k={ts.k_sigma}]"]
        lines += [f"th1 = {_f(ts.th1)}"]
        lines += [f"th2 = {_f(ts.th2)}"]
        lines += [f"t1.mean = {_f(ts.t1_mean)}"]
        lines += [f"t2.mean = {_f(ts.t2_mean)}"]
        lines += [f"duration.mean = {_f(ts.duration_mean)}"]
        lines += [f"n.crossing = {ts.n_crossing_curves}"]
        lines += [f"n.excluded = {ts.n_excluded_curves}", ""]

    if bundle.durations is not None:
        d = bundle.durations
        lines += ["[durations]"]
        lines += [f"n.regions = {len(d.per_nga)}"]
        lines += [f"excluded = {'; '.join(d.excluded)}"]
        lines += [f"mean = {_f(d.mean_duration)}"]
        lines += [f"median = {_f(d.median_duration)}"]
        for entry in d.per_nga:
            lines += [
                f"duration {entry.nga} = "
                f"{_f(entry.tau1)} {_f(entry.tau2)} {_f(entry.duration)}"
            ]
        lines += [""]

    for comparison in bundle.continuity:
        lines += [f"[continuity {comparison.mode.value}]"]
        lines += _fit_lines(comparison.fit)
        params = comparison.fit.params
        lines += [f"upper.plateau = {_f(params.a + params.b)}"]
        lines += [f"n.segments = {len(comparison.segments)}"]
        lines += [f"mean.length = {_f(comparison.mean_length)}"]
        lines += [f"skipped = {'; '.join(comparison.skipped)}"]
        for nga, length in comparison.length_ranking():
            lines += [f"length {nga} = {length}"]
        lines += [""]

    return "\n".join(lines)


def _fit_lines(fit) -> list[str]:
    return [
        f"a = {_f(fit.params.a)}",
        f"b = {_f(fit.params.b)}",
        f"c = {_f(fit.params.c)}",
        f"d = {_f(fit.params.d)}",
        f"rmse = {_f(fit.rmse)}",
        f"n.points = {fit.n_points}",
        f"iterations = {fit.iterations}",
        f"converged = {_b(fit.converged)}",
    ]


def render_check_text(check: CheckReport) -> str:
    lines = ["benchmark check against fitted curve", ""]
    lines += [f"reference.rmse = {_f(check.reference_rmse)}"]
    lines += [f"spc1_0 = {_f(check.spc1_0)}"]
    lines += [f"n.series = {len(check.series)}"]
    lines += [f"n.anchored = {check.n_anchored}", ""]
    for s in check.series:
        lines += [f"[series {s.nga}]"]
        lines += [f"anchored = {_b(s.anchored)}"]
        lines += [f"n.points = {s.n_points}"]
        if s.anchored:
            lines += [f"anchor.year = {s.anchor_year}"]
            lines += [f"rmse = {_f(s.rmse)}"]
            lines += [f"max.abs.residual = {_f(s.max_abs_residual)}"]
            lines += [f"frac.beyond.2rmse = {_f(s.frac_beyond)}"]
        lines += [""]
    return "\n".join(lines)


def _curves_csv(bundle: ReportBundle) -> str:
    t, _ = bundle.aligned.pooled()
    grid = np.linspace(float(t.min()), float(t.max()), CURVE_SAMPLES)
    parts = ["curve,rel_time,value\n"]
    curves = [("full", bundle.full_fit)] + [
        (c.mode.value, c.fit) for c in bundle.continuity
    ]
    for name, fit in curves:
        values = logistic_eval(fit.params, grid)
        parts += _template_rows(
            "%s,%r,%r\n", repeat(csv_field(name)), grid.tolist(), values.tolist()
        )
    return "".join(parts)


def _kde_csv(bundle: ReportBundle) -> str:
    density = bundle.density
    rows = _template_rows("%r,%r\n", density.grid.tolist(), density.density.tolist())
    return "".join(["grid,density\n", *rows])


def _residuals_csv(bundle: ReportBundle) -> str:
    parts = ["nga,rel_time,scaled,predicted,residual\n"]
    for region in bundle.aligned.regions:
        predicted = logistic_eval(bundle.full_fit.params, region.rel_time.astype(float))
        parts += _template_rows(
            "%s,%d,%r,%r,%r\n",
            repeat(csv_field(region.nga)),
            region.rel_time.tolist(),
            region.scaled.tolist(),
            predicted.tolist(),
            (predicted - region.scaled).tolist(),
        )
    return "".join(parts)


def _growth_window_csv(bundle: ReportBundle) -> str:
    # Each bound row pairs the mean crossing time with the threshold the
    # crossings were taken at, so rel_time and curve_value correspond
    # exactly by construction.
    rows = []
    for ts in bundle.timescales:
        rows.append([str(ts.k_sigma), "lower", _f(ts.t1_mean), _f(ts.th1)])
        rows.append([str(ts.k_sigma), "upper", _f(ts.t2_mean), _f(ts.th2)])
    return _csv_text(["k_sigma", "bound", "rel_time", "curve_value"], rows)


def _durations_csv(bundle: ReportBundle) -> str:
    rows = [
        [entry.nga, _f(entry.tau1), _f(entry.tau2), _f(entry.duration)]
        for entry in bundle.durations.per_nga
    ]
    return _csv_text(["nga", "tau1", "tau2", "duration"], rows)


def _lengths_csv(comparison: ContinuityComparison) -> str:
    rows = [
        [str(rank), nga, str(length)]
        for rank, (nga, length) in enumerate(comparison.length_ranking(), start=1)
    ]
    return _csv_text(["rank", "nga", "length"], rows)


def _series_csv(bundle: ReportBundle, region) -> str:
    # One-region dataset with RelTime filled from the alignment.
    series = replace(
        region.series,
        rel_time_recorded=region.rel_time,
        rel_time_present=np.ones(region.rel_time.size, dtype=bool),
    )
    single = Dataset(
        (series,), scale_min=bundle.dataset.scale_min, scale_max=bundle.dataset.scale_max
    )
    return serialize_dataset(single)


def plot_data_files(bundle: ReportBundle) -> dict[str, str]:
    """Relative path -> CSV content for every figure's quantitative data."""
    files: dict[str, str] = {
        "curves.csv": _curves_csv(bundle),
        "kde.csv": _kde_csv(bundle),
        "residuals.csv": _residuals_csv(bundle),
    }
    if bundle.timescales:
        files["growth_window.csv"] = _growth_window_csv(bundle)
    if bundle.durations is not None:
        files["durations.csv"] = _durations_csv(bundle)
    for comparison in bundle.continuity:
        files[f"lengths_{comparison.mode.value}.csv"] = _lengths_csv(comparison)
    for region in bundle.aligned.regions:
        # names such as "Rome" and "rome" share a slug: the later one in
        # name order gets "-2", the next "-3", ...
        path, n = f"series/{_slug(region.nga)}.csv", 1
        while path in files:
            n += 1
            path = f"series/{_slug(region.nga)}-{n}.csv"
        files[path] = _series_csv(bundle, region)
    return files


def report_files(bundle: ReportBundle) -> dict[str, str]:
    """File name -> content for the text report and its JSON sidecar."""
    return {
        "report.txt": render_report_text(bundle),
        "report.json": render_report_json(bundle),
    }


def write_files(files: dict[str, str], out_dir) -> list[Path]:
    """Write relative path -> text as UTF-8 under ``out_dir``, creating
    directories as needed; returns the written paths in sorted order."""
    root = Path(out_dir)
    written = []
    for rel_path in sorted(files):
        target = root / rel_path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(files[rel_path].encode("utf-8"))
        written.append(target)
    return written


def write_outputs(bundle: ReportBundle, output_dir) -> list[Path]:
    """Write the text report, the JSON sidecar, and all plot artifacts."""
    if not bundle.complete:
        raise ParameterError("bundle is incomplete; run the remaining stages first")
    from .charts import chart_files

    # each group is written, and its text freed, before the next renders
    root = Path(output_dir)
    written = []
    for render in (report_files, plot_data_files, chart_files):
        written += write_files(render(bundle), root)
    return sorted(written, key=lambda path: path.relative_to(root).as_posix())
