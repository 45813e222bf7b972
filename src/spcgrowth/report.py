"""Report and plot-artifact rendering.

``bundle_to_dict`` is the one list of the report's fields. The JSON
sidecar ``report.json`` serialises it, and ``report.txt`` walks it: one
``[section]`` per top-level key and one ``path = value`` line per leaf, so
the text holds every value of the JSON. ``check``'s text is walked alike.
Every number printed here is read from a result object; nothing is
recomputed at render time. Floats are written with ``repr`` so two runs
that computed the same values produce the same bytes.

``plot_data_files`` holds the quantitative content of each figure as CSV
(the SVG renderings in ``charts`` are overlays on top of these, never the
source of truth). The long CSVs are formatted a column at a time: each
region's or curve's columns are taken out with ``tolist()`` once, and
every row fills one ``%d``/``%r`` template, with names quoted by
``dataset.csv_field``. ``region_residuals`` gives ``residuals.csv``, the
residuals chart and ``check`` the same residuals, a region at a time.

``report_files``, ``plot_data_files``, ``fit_stage_files`` and
``charts.chart_files`` are streams of ``(relative path, text chunks)``: a
file is rendered while it is written, a chunk at a time (a region of
``residuals.csv``, a line of an SVG, a region's dots), so the output
layer holds one chunk, not one file or group. Nothing of a file renders
before its chunks are taken, so a stream's paths cost nothing.
``write_files`` is the one place output files are written.

``fit_stage_files`` holds the files that need nothing past the fit stage
(``kde.csv``, ``residuals.csv``, ``series/*.csv``, ``regions.svg``,
``density.svg``, ``residuals.svg``). ``FitStageWriter`` forks a child that
writes them while the refits run, into a hidden staging directory
(``.spcgrowth-staging-*``); the child reports by its exit status alone.
``write_outputs`` writes the other files and moves the staged ones in.
Where ``os.fork`` does not exist or fails, or the child exits nonzero, it
writes the fit-stage stream itself, so an error in it is raised with its
own type and message. A run killed outright (``kill -9``) can leave the
staging directory behind.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import signal
import tempfile
import warnings
from itertools import islice, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from .dataset import Dataset, csv_field, serialize_dataset
from .errors import ParameterError
from .logistic import LogisticParams, logistic_eval

if TYPE_CHECKING:
    from .align import AlignedDataset
    from .inference import ContinuityComparison
    from .pipeline import CheckReport, ReportBundle

logger = logging.getLogger(__name__)

CURVE_SAMPLES = 513
_JSON_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)


def _slug(name: str) -> str:
    slug = "".join(ch.lower() if ch.isalnum() else "-" for ch in name)
    while "--" in slug:
        slug = slug.replace("--", "-")
    return slug.strip("-") or "region"


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
    # the encoder makes the text in many small pieces, some 60 a region
    return _joined(_JSON_ENCODER.iterencode(bundle_to_dict(bundle))) + "\n"


def render_report_text(bundle: ReportBundle) -> str:
    """Every field of ``bundle_to_dict``, and so of ``report.json``, as
    ``[section]`` and ``path = value`` lines (see ``_leaf_lines``)."""
    return _walked_text("social complexity growth report", bundle_to_dict(bundle))


def render_check_text(check: CheckReport) -> str:
    """The ``check`` result as text, laid out like ``report.txt``."""
    data = {
        "check": {
            "reference_rmse": check.reference_rmse,
            "spc1_0": check.spc1_0,
            "n_series": len(check.series),
            "n_anchored": check.n_anchored,
            "series": [
                {
                    "nga": s.nga,
                    "anchored": s.anchored,
                    "anchor_year": s.anchor_year,
                    "n_points": s.n_points,
                    "rmse": s.rmse,
                    "max_abs_residual": s.max_abs_residual,
                    "frac_beyond": s.frac_beyond,
                }
                for s in check.series
            ],
        }
    }
    return _walked_text("benchmark check against fitted curve", data)


def _walked_text(title: str, data: dict) -> str:
    """``title``, then for each top-level key of ``data`` (a non-empty dict
    or list) a blank line, a ``[key]`` line and the lines of its leaves."""

    def pieces():
        yield title + "\n"
        for section, value in data.items():
            yield f"\n[{section}]\n"
            yield from _leaf_lines("", value)

    return _joined(pieces())


def _leaf_lines(prefix: str, value) -> Iterator[str]:
    """One ``path = value`` line per leaf of ``value``, the path its dict
    keys and list indexes joined by dots (``anchors.3.crossed``). A string
    is written bare, any other leaf (an empty list or dict too) as
    ``json.dumps`` spells it. Paths hold keys and indexes only, so the
    first `` = `` of a line ends its path, whatever a region name holds."""
    if isinstance(value, (dict, list)) and value:
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from _leaf_lines(f"{prefix}{key}.", item)
    else:
        text = value if isinstance(value, str) else json.dumps(value)
        yield f"{prefix[:-1]} = {text}\n"


def _joined(pieces: Iterator[str]) -> str:
    """The pieces joined a block of 1,024 at a time, so that only one
    block of the many small pieces is held at once."""
    blocks = []
    while block := "".join(islice(pieces, 1024)):
        blocks.append(block)
    return "".join(blocks)


def _curves_csv(bundle: ReportBundle) -> str:
    times, _ = bundle.aligned.time_rows
    grid = np.linspace(times[0], times[-1], CURVE_SAMPLES)
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


def region_residuals(aligned: AlignedDataset, params: LogisticParams) -> Iterator[tuple]:
    """Each aligned region in turn, with the ``repr`` text of the curve
    ``params`` at its times and its residuals (curve minus scaled score),
    so only one region's residuals are held at a time. This is the one
    place a fitted curve meets aligned points: ``residuals.csv``,
    ``residuals.svg`` and ``check`` all read it.

    The curve is evaluated, and its text formatted, once per distinct time
    of ``aligned.time_rows``; a region's points read theirs by row, so each
    residual has the bits of ``logistic_eval(params, t) - y`` at its point.
    """
    times, rows = aligned.time_rows
    values = logistic_eval(params, times)
    text = np.array([repr(value) for value in values.tolist()], dtype=object)
    ends = np.cumsum([region.rel_time.size for region in aligned.regions])
    for region, at in zip(aligned.regions, np.split(rows, ends[:-1])):
        yield region, text[at], values[at] - region.scaled


def _residuals_csv(bundle: ReportBundle) -> Iterator[str]:
    """The header, then one chunk per region."""
    yield "nga,rel_time,scaled,predicted,residual\n"
    for region, predicted, residuals in region_residuals(bundle.aligned, bundle.full_fit.params):
        rows = _template_rows(
            "%s,%d,%r,%s,%r\n",
            repeat(csv_field(region.nga)),
            region.rel_time.tolist(),
            region.scaled.tolist(),
            predicted.tolist(),
            residuals.tolist(),
        )
        yield "".join(rows)


def _growth_window_csv(bundle: ReportBundle) -> str:
    # Each bound row pairs the mean crossing time with the threshold the
    # crossings were taken at, so rel_time and curve_value correspond
    # exactly by construction.
    timescales = bundle.timescales
    k_sigma = [ts.k_sigma for ts in timescales]
    rows = _template_rows(
        "%d,lower,%r,%r\n%d,upper,%r,%r\n",
        k_sigma,
        [float(ts.t1_mean) for ts in timescales],
        [float(ts.th1) for ts in timescales],
        k_sigma,
        [float(ts.t2_mean) for ts in timescales],
        [float(ts.th2) for ts in timescales],
    )
    return "".join(["k_sigma,bound,rel_time,curve_value\n", *rows])


def _durations_csv(bundle: ReportBundle) -> str:
    per_nga = bundle.durations.per_nga
    rows = _template_rows(
        "%s,%r,%r,%r\n",
        [csv_field(entry.nga) for entry in per_nga],
        [float(entry.tau1) for entry in per_nga],
        [float(entry.tau2) for entry in per_nga],
        [float(entry.duration) for entry in per_nga],
    )
    return "".join(["nga,tau1,tau2,duration\n", *rows])


def _lengths_csv(comparison: ContinuityComparison) -> str:
    ranking = comparison.length_ranking()
    names = [csv_field(nga) for nga, _ in ranking]
    rows = _template_rows("%d,%s,%d\n", range(1, len(names) + 1), names, [n for _, n in ranking])
    return "".join(["rank,nga,length\n", *rows])


def _later(render: Callable[..., str], *args) -> Iterator[str]:
    """``render(*args)`` as one chunk, rendered when it is taken."""
    yield render(*args)


def plot_data_files(bundle: ReportBundle) -> Iterator[tuple[str, Iterable[str]]]:
    """(Relative path, CSV chunks) for the quantitative data of the figures
    that need the refits, each file rendered when its chunks are taken."""
    yield "curves.csv", _later(_curves_csv, bundle)
    if bundle.timescales:
        yield "growth_window.csv", _later(_growth_window_csv, bundle)
    if bundle.durations is not None:
        yield "durations.csv", _later(_durations_csv, bundle)
    for comparison in bundle.continuity:
        yield f"lengths_{comparison.mode.value}.csv", _later(_lengths_csv, comparison)


def fit_stage_files(bundle: ReportBundle) -> Iterator[tuple[str, Iterable[str]]]:
    """(Relative path, text chunks) for the files whose content needs
    nothing past the fit stage (the density, the threshold, the alignment
    and the full fit), each file rendered when its chunks are taken."""
    from .charts import density_chart, residuals_chart, small_multiples_chart

    yield "kde.csv", _later(_kde_csv, bundle)
    yield "residuals.csv", _residuals_csv(bundle)
    series_paths = set()
    for region in bundle.aligned.regions:
        # names such as "Rome" and "rome" share a slug: the later one in
        # name order gets "-2", the next "-3", ...
        path, n = f"series/{_slug(region.nga)}.csv", 1
        while path in series_paths:
            n += 1
            path = f"series/{_slug(region.nga)}-{n}.csv"
        series_paths.add(path)
        single = Dataset((region,), bundle.dataset.scale_min, bundle.dataset.scale_max)
        yield path, _later(serialize_dataset, single)
    yield "regions.svg", small_multiples_chart(bundle)
    yield "density.svg", density_chart(bundle)
    yield "residuals.svg", residuals_chart(bundle)


def report_files(bundle: ReportBundle) -> Iterator[tuple[str, Iterable[str]]]:
    """(File name, text chunks) for the text report and its JSON sidecar."""
    yield "report.txt", [render_report_text(bundle)]
    yield "report.json", [render_report_json(bundle)]


def write_files(files: Iterable[tuple[str, Iterable[str]]], out_dir) -> list[Path]:
    """Write each ``(relative path, text chunks)`` of ``files`` as UTF-8
    under ``out_dir``, creating directories as needed; returns the written
    paths in the order written.

    Each file is opened once and its chunks are written as they arrive, so
    no file's text is held whole. When a chunk's renderer or a write
    raises, the file is removed before the error propagates, so no
    truncated file is left behind.
    """
    root = Path(out_dir)
    written = []
    for rel_path, chunks in files:
        target = root / rel_path
        target.parent.mkdir(parents=True, exist_ok=True)
        handle = open(target, "w", encoding="utf-8", newline="")
        try:
            with handle:
                handle.writelines(chunks)
        except BaseException:
            target.unlink(missing_ok=True)
            raise
        written.append(target)
    return written


def write_outputs(
    bundle: ReportBundle, output_dir, staged: FitStageWriter | None = None
) -> list[Path]:
    """Write the text report, the JSON sidecar, and all plot artifacts.

    With ``staged``, the writer of this bundle's fit-stage files, those
    files are moved in from its staging directory; without it, or when
    its child failed, they are written here.
    """
    if not bundle.complete:
        raise ParameterError("bundle is incomplete; run the remaining stages first")
    from .charts import chart_files

    root = Path(output_dir)
    written = []
    for render in (report_files, plot_data_files, chart_files):
        written += write_files(render(bundle), root)
    moved = staged.move_in() if staged is not None else None
    written += moved if moved is not None else write_files(fit_stage_files(bundle), root)
    return sorted(written, key=lambda path: path.relative_to(root).as_posix())


def _write_in_child(bundle: ReportBundle, staging: Path):
    """The forked child: write the fit-stage files under ``staging`` and
    leave through ``os._exit`` whatever happens, 0 when every file was
    written and 1 otherwise, so that none of the parent's code runs twice.
    It never logs or prints."""
    code = 1
    try:
        write_files(fit_stage_files(bundle), staging)
        code = 0
    finally:
        os._exit(code)


class FitStageWriter:
    """A bundle's fit-stage files, written by a forked child into a new
    hidden staging directory while the caller goes on.

    The directory is made in ``output_dir``, or in its nearest existing
    ancestor (a directory that does not exist cannot be a mount point, so
    the files can be renamed into place). Entering the ``with`` block
    makes it and forks the child, and gives the writer, or None where
    ``os.fork`` does not exist or the directory or the fork fails with
    ``OSError``. ``move_in`` waits for the child and moves its files in.
    Leaving the block kills and reaps a child that still runs and removes
    the staging directory.
    """

    def __init__(self, bundle: ReportBundle, output_dir):
        self._bundle = bundle
        self.root = Path(output_dir)
        self._staging = None
        self._pid = None

    def __enter__(self) -> FitStageWriter | None:
        if not hasattr(os, "fork"):
            return None
        # both processes render charts: loaded once here, the child does
        # not compile and run the module again
        from . import charts  # noqa: F401

        try:
            near = next(path for path in (self.root, *self.root.parents) if path.exists())
            self._staging = Path(tempfile.mkdtemp(prefix=".spcgrowth-staging-", dir=near))
            # SIGINT waits until the child's pid is kept, so that ``close``
            # always reaps it; the child keeps it blocked and is killed by
            # the parent instead
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns on fork() in a process with
                    # threads. The command line loads numpy with one BLAS
                    # thread, but a library caller's process may have
                    # more; the child only renders and writes files
                    warnings.simplefilter("ignore", DeprecationWarning)
                    self._pid = os.fork()
                if self._pid == 0:
                    _write_in_child(self._bundle, self._staging)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        except OSError:  # write every file after the refits instead
            self.close()
            return None
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def move_in(self) -> list[Path] | None:
        """Wait for the child and move the fit-stage files it wrote into
        the output directory; returns their paths there, or None when it
        exited nonzero."""
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        if status != 0:
            logger.warning(
                "the fit-stage writer ended (%d); writing its files after the refits",
                os.waitstatus_to_exitcode(status),
            )
            return None
        moved = []
        for rel_path, _ in fit_stage_files(self._bundle):
            target = self.root / rel_path
            if not moved or target.parent != moved[-1].parent:
                target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(self._staging / rel_path, target)
            moved.append(target)
        return moved

    def close(self) -> None:
        if self._pid:  # None before the fork and once reaped
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        if self._staging is not None:
            shutil.rmtree(self._staging, ignore_errors=True)
            self._staging = None
