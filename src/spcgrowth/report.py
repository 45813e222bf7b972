"""Report and plot-artifact rendering.

``bundle_to_dict`` is the one list of the report's fields. The JSON
sidecar ``report.json`` serialises it, and ``report.txt`` walks it: one
``[section]`` per top-level key and one ``path = value`` line per leaf, so
the text holds every value of the JSON. ``render_check_text`` walks the
``{"check": {...}}`` dict of ``pipeline.benchmark_check`` alike.
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
``charts.chart_files`` are streams of ``(relative path, text chunks)``,
and a stream renders each file when it reaches it, just before the file
is opened. A long file is rendered while it is written, a chunk at a
time (a region of ``residuals.csv``, a line of an SVG, a region's dots),
and a short one is a list of one chunk, so no group of files is ever held
whole.

Every file of every command reaches its output directory one way.
``FitStageWriter`` owns a hidden staging directory
(``.spcgrowth-staging-*``); ``write_files`` writes only there, and
``FitStageWriter.move_in`` renames every staged file into place,
``report.json`` last, after checking that no target is a directory and
making each target's directory. Until the first rename the output
directory is untouched; only an I/O error between renames can leave it
mixed. The staging directory is removed on every path, but a run killed
outright (``kill -9``) can leave it behind.

``fit_stage_files`` holds the files that need nothing past the fit stage
(``kde.csv``, ``residuals.csv``, ``series/*.csv``, ``regions.svg``,
``density.svg``, ``residuals.svg``). For ``report``, ``FitStageWriter``
forks a child that writes them into the staging directory while the
refits run; the child reports by its exit status alone. Where
``os.fork`` does not exist or fails, or the child exits nonzero,
``move_in`` writes them itself, so an error in them is raised with its
own type and message. ``write_outputs`` stages the other files and
moves them all in.
"""

from __future__ import annotations

import contextlib
import errno
import json
import logging
import os
import shutil
import signal
import tempfile
import warnings
from itertools import chain, islice, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .dataset import Dataset, csv_field, serialize_dataset
from .errors import ParameterError
from .logistic import LogisticParams, logistic_eval

if TYPE_CHECKING:
    from .align import AlignedDataset
    from .inference import ContinuityComparison
    from .pipeline import ReportBundle

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
            "seed": bundle.config.seed,
            "config_sha256": bundle.config_sha256,
            "input_sha256": bundle.input_sha256,
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
                "n_segments": len(comparison.lengths),
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


def render_check_text(check: dict) -> str:
    """``benchmark_check``'s ``{"check": {...}}`` as text, laid out like
    ``report.txt``."""
    return _walked_text("benchmark check against fitted curve", check)


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


def curve_grid(aligned: AlignedDataset, n: int) -> np.ndarray:
    """``n`` times evenly spaced from the first aligned time to the last:
    where ``curves.csv`` and the charts evaluate a fitted curve."""
    times, _ = aligned.time_rows
    return np.linspace(times[0], times[-1], n)


def _curves_csv(bundle: ReportBundle) -> str:
    grid = curve_grid(bundle.aligned, CURVE_SAMPLES)
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


def plot_data_files(bundle: ReportBundle) -> Iterator[tuple[str, Iterable[str]]]:
    """(Relative path, CSV chunks) for the quantitative data of the figures
    that need the refits, each file rendered when the stream reaches it."""
    yield "curves.csv", [_curves_csv(bundle)]
    if bundle.timescales:
        yield "growth_window.csv", [_growth_window_csv(bundle)]
    if bundle.durations is not None:
        yield "durations.csv", [_durations_csv(bundle)]
    for comparison in bundle.continuity:
        yield f"lengths_{comparison.mode.value}.csv", [_lengths_csv(comparison)]


def fit_stage_files(bundle: ReportBundle) -> Iterator[tuple[str, Iterable[str]]]:
    """(Relative path, text chunks) for the files whose content needs
    nothing past the fit stage (the density, the threshold, the alignment
    and the full fit), each file rendered when the stream reaches it."""
    from .charts import density_chart, residuals_chart, small_multiples_chart

    yield "kde.csv", [_kde_csv(bundle)]
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
        yield path, [serialize_dataset(single)]
    yield "regions.svg", small_multiples_chart(bundle)
    yield "density.svg", density_chart(bundle)
    yield "residuals.svg", residuals_chart(bundle)


def report_files(bundle: ReportBundle) -> Iterator[tuple[str, Iterable[str]]]:
    """(File name, text chunks) for the text report and its JSON sidecar."""
    yield "report.txt", [render_report_text(bundle)]
    yield "report.json", [render_report_json(bundle)]


def write_files(files: Iterable[tuple[str, Iterable[str]]], staging: Path) -> None:
    """Write each ``(relative path, text chunks)`` of ``files`` as UTF-8
    under ``staging``, creating directories as needed.

    Each file is opened once and its chunks are written as they arrive, so
    no file's text is held whole. ``staging`` is always a
    ``FitStageWriter``'s staging directory, so a file left truncated by a
    renderer or a write that raises is removed with it.
    """
    for rel_path, chunks in files:
        target = staging / rel_path
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)


def write_outputs(bundle: ReportBundle, staged: FitStageWriter) -> list[Path]:
    """Write the text report, the JSON sidecar, and all plot artifacts
    through ``staged``, the writer of ``bundle``'s output directory, and
    move them in; returns their paths there (see ``move_in``)."""
    if not bundle.complete:
        raise ParameterError("bundle is incomplete; run the remaining stages first")
    from .charts import chart_files

    files = chain(report_files(bundle), plot_data_files(bundle), chart_files(bundle))
    return staged.move_in(files, bundle)


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


@contextlib.contextmanager
def _sigint_held():
    """SIGINT waits until the block ends, where the platform can hold it."""
    held = hasattr(signal, "pthread_sigmask")
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT}) if held else None
    try:
        yield
    finally:
        if held:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)


class FitStageWriter:
    """The one way files reach an output directory: each is written into
    a new hidden staging directory, and ``move_in`` renames them all into
    place together.

    The directory is made in ``output_dir``, or in its nearest existing
    ancestor (a directory that does not exist cannot be a mount point, so
    the files can be renamed into place); entering the ``with`` block
    makes it, and an ``OSError`` there leaves nothing behind. Given a
    ``bundle``, entering also forks a child that writes its fit-stage
    files there while the caller goes on, where ``os.fork`` exists and
    does not fail. Leaving the block kills and reaps a child that still
    runs and removes the staging directory, whatever happened.
    """

    def __init__(self, output_dir, bundle: ReportBundle | None = None):
        self._bundle = bundle
        self.root = Path(output_dir)
        self._staging = None
        self._pid = None

    def __enter__(self) -> FitStageWriter:
        near = next(path for path in (self.root, *self.root.parents) if path.exists())
        self._staging = Path(tempfile.mkdtemp(prefix=".spcgrowth-staging-", dir=near))
        if self._bundle is None or not hasattr(os, "fork"):
            return self
        # both processes render charts: loaded once here, the child does
        # not compile and run the module again
        from . import charts  # noqa: F401

        try:
            # SIGINT waits until the child's pid is kept, so that ``close``
            # always reaps it; the child keeps it blocked and is killed by
            # the parent instead
            with _sigint_held():
                with warnings.catch_warnings():
                    # Python 3.12+ warns on fork() in a process with
                    # threads. The command line loads numpy with one BLAS
                    # thread, but a library caller's process may have
                    # more; the child only renders and writes files
                    warnings.simplefilter("ignore", DeprecationWarning)
                    self._pid = os.fork()
                if self._pid == 0:
                    _write_in_child(self._bundle, self._staging)
        except OSError:  # ``move_in`` writes the fit-stage files instead
            pass
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _child_wrote(self) -> bool:
        """Wait for the child, if one was forked; whether it wrote every
        fit-stage file."""
        if self._pid is None:
            return False
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        if status != 0:
            logger.warning(
                "the fit-stage writer ended (%d); writing its files after the refits",
                os.waitstatus_to_exitcode(status),
            )
        return status == 0

    def move_in(self, files: Iterable[tuple[str, Iterable[str]]], bundle=None) -> list[Path]:
        """Write ``files`` into the staging directory, and ``bundle``'s
        fit-stage files when no child wrote them; then rename every staged
        file into the output directory, ``report.json`` last. Returns the
        paths there in the order renamed.

        Nothing in the output directory changes before the first rename:
        a target that is a directory raises ``IsADirectoryError``, and
        each target's directory is made, first. SIGINT waits until the
        last rename, where the platform can hold it.
        """
        write_files(files, self._staging)
        if not self._child_wrote() and bundle is not None:
            write_files(fit_stage_files(bundle), self._staging)
        names = sorted(
            os.path.relpath(os.path.join(top, name), self._staging)
            for top, _, found in os.walk(self._staging)
            for name in found
        )
        names.sort(key="report.json".__eq__)
        targets = [self.root / name for name in names]
        for target in targets:
            if target.is_dir() and not target.is_symlink():
                raise IsADirectoryError(errno.EISDIR, "an output file's name is a directory", str(target))
        for parent in dict.fromkeys(target.parent for target in targets):
            parent.mkdir(parents=True, exist_ok=True)
        with _sigint_held():
            for name, target in zip(names, targets):
                os.replace(self._staging / name, target)
        return targets

    def close(self) -> None:
        if self._pid:  # None before the fork and once reaped
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        if self._staging is not None:
            shutil.rmtree(self._staging, ignore_errors=True)
            self._staging = None
