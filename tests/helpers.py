"""Shared builders and lookups for the test suite, the per-point reference
fitter and scorer, the dense KDE reference, the per-row panel parser, the
per-row output renderers and the benchmark's modules."""

import csv
import importlib.util
import io
import json
import math
import os
import re
import sys
from dataclasses import fields, replace
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

import spcgrowth
from spcgrowth import (
    DataError,
    NumericalError,
    ParameterError,
    RowParseError,
    charts,
    logistic,
    report,
)
from spcgrowth.align import AlignedDataset
from spcgrowth.dataset import (
    CULTURAL_CONTINUITY,
    HEADER,
    INSTITUTIONAL_CONTINUITY,
    MAX_ABS_YEAR,
    OUTSIDE_CENTRAL,
    SCALED_COLUMN,
    Dataset,
    RegionSeries,
)
from spcgrowth.logistic import DEFAULT_INIT_PARAMS, FitResult, LogisticParams, logistic_eval
from spcgrowth.report import CURVE_SAMPLES

CULT = CULTURAL_CONTINUITY
INST = INSTITUTIONAL_CONTINUITY
OUT = OUTSIDE_CENTRAL

PANEL_HEADER = "NGA,PolID,AbsTime,RelTime,SPC1,Culture.Sequence,Institutions.Sequence"
BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
# the directory that holds the imported package, so a child interpreter
# finds the same copy whether it comes from src/ or from an install
PACKAGE_ROOT = Path(spcgrowth.__file__).resolve().parent.parent


def bench_module(stem: str):
    """``perfbench/<stem>.py``, loaded once from its file (perfbench is not
    a package) as the module ``bench_<stem>``."""
    name = f"bench_{stem}"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{stem}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[name]


def joined(files) -> dict[str, str]:
    """Relative path -> whole text of a ``(path, text chunks)`` stream such
    as ``report.plot_data_files``; fails on a repeated path, and on chunks
    that are a bare ``str``, whose characters would pass for chunks."""
    texts = {}
    for path, chunks in files:
        assert not isinstance(chunks, str), f"{path}: chunks are a bare str"
        assert path not in texts, f"{path} streamed twice"
        texts[path] = "".join(chunks)
    return texts


def child_env() -> dict:
    """This environment, with the package under test first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")]))
    return env


def child_pids() -> set[int]:
    """This process's child processes, running or exited but not yet
    reaped, as Linux lists them in ``/proc/self/task/*/children`` (empty
    elsewhere). Only reads, so it reaps nothing."""
    pids = set()
    for path in Path("/proc/self/task").glob("*/children"):
        try:
            pids.update(int(pid) for pid in path.read_text().split())
        except OSError:  # the thread ended
            pass
    return pids


def open_fds() -> set[str]:
    """This process's open file descriptors, as Linux lists them in
    ``/proc/self/fd`` (empty elsewhere)."""
    fd_dir = Path("/proc/self/fd")
    return set(os.listdir(fd_dir)) if fd_dir.is_dir() else set()


def raising_after_first_chunk(render, error: BaseException):
    """``render``, a renderer of one file's text chunks, made to raise
    ``error`` after its first chunk."""

    def broken(*args):
        yield next(iter(render(*args)))
        raise error

    return broken


def text_leaves(text: str) -> dict[str, str]:
    """``"section.path" -> value text`` for the lines of ``report.txt`` (or
    of ``check``'s text) below its title; fails on a line outside a
    section, a line without `` = `` and a repeated path."""
    title, *lines = text.split("\n")
    assert title and lines.pop() == "", "the text ends with one newline"
    leaves, section = {}, None
    for line in lines:
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
        elif line:
            path, sep, value = line.partition(" = ")
            key = f"{section}.{path}"
            assert section and sep and key not in leaves, line
            leaves[key] = value
    return leaves


def json_leaves(value, prefix: str = "") -> dict[str, str]:
    """``"key.key.index" -> value text`` for every leaf of parsed JSON:
    strings as they are, anything else, an empty list or object included,
    as ``json.dumps`` writes it."""
    if isinstance(value, (dict, list)) and value:
        items = value.items() if isinstance(value, dict) else enumerate(value)
        leaves = {}
        for key, item in items:
            leaves.update(json_leaves(item, f"{prefix}{key}."))
        return leaves
    return {prefix[:-1]: value if isinstance(value, str) else json.dumps(value)}


def build_dataset(regions: Sequence[RegionSeries]) -> Dataset:
    """Assemble a Dataset from prebuilt regions."""
    names = [r.nga for r in regions]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ParameterError(f"duplicate region name(s): {', '.join(dupes)}")
    return Dataset(tuple(regions))


def make_region(nga, values, start=-1000, step=100, culture=None, institution=None):
    """Century-sampled region from raw values; labels default to continuous."""
    n = len(values)
    culture = culture if culture is not None else [CULT] * n
    institution = institution if institution is not None else [INST] * n
    return RegionSeries(
        nga=nga,
        pol_id=(f"{nga}-P1",) * n,
        abs_times=start + step * np.arange(n, dtype=np.int64),
        raw=np.asarray(values, dtype=float),
        rel_time=np.zeros(n, dtype=np.int64),
        rel_time_present=np.zeros(n, dtype=bool),
        cultural=np.array([label == CULT for label in culture], dtype=bool),
        institutional=np.array([label == INST for label in institution], dtype=bool),
    )


def region_named(collection, nga):
    """The region called ``nga`` in a Dataset or an AlignedDataset."""
    for region in collection.regions:
        if region.nga == nga:
            return region
    raise KeyError(nga)


def series_fields(series: RegionSeries) -> dict:
    """Every field of a RegionSeries, arrays as lists, for equality tests."""
    values = {f.name: getattr(series, f.name) for f in fields(series)}
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}


def recorded_rel_times(series: RegionSeries) -> np.ndarray:
    """RelTime column values; raises if any are missing."""
    if not series.rel_time_present.all():
        raise ParameterError(f"region {series.nga!r} has rows without RelTime")
    return series.rel_time


def minmax_unscale(scaled, scale_min: float, scale_max: float) -> np.ndarray:
    """Inverse of the scaling map, using stored extrema."""
    return np.asarray(scaled, dtype=float) * (scale_max - scale_min) + scale_min


def kde_mass(estimate) -> float:
    """Trapezoidal mass under a density estimate (about 1 when uncropped)."""
    return float(np.trapezoid(estimate.density, estimate.grid))


def scaled_region(nga, values, start=-1000, culture=None, institution=None):
    """Region whose values are taken as already scaled (raw == scaled)."""
    series = make_region(nga, values, start=start, culture=culture, institution=institution)
    return replace(series, spc1_scaled=np.asarray(values, dtype=float))


def aligned_region(series, anchor_year):
    """A scaled series anchored at the given calendar year, as
    ``shift_to_reltime`` retains it."""
    return replace(
        series,
        rel_time=series.abs_times - int(anchor_year),
        rel_time_present=np.ones(len(series), dtype=bool),
    )


def aligned_from_synthetic(ds: Dataset) -> AlignedDataset:
    """Aligned view of a synthetic panel in the generator's own time frame.

    Generator values are treated as already scaled and the recorded RelTime
    column as the relative-time axis, so inference results can be compared
    against the generating parameters without rescaling effects.
    """
    for s in ds.regions:
        recorded_rel_times(s)  # every row must carry its RelTime
    return AlignedDataset(tuple(replace(s, spc1_scaled=s.raw.copy()) for s in ds.regions))


def normal_pdf(x, mu, sd):
    return np.exp(-0.5 * ((np.asarray(x, dtype=float) - mu) / sd) ** 2) / (
        sd * np.sqrt(2.0 * np.pi)
    )


def dense_kde_reference(samples, bandwidth, grid):
    """The Gaussian-kernel sum over the whole grid x sample matrix at once:
    the differential reference for the blocked ``gaussian_kde``."""
    samples = np.asarray(samples, dtype=float)
    z = (grid[:, None] - samples[None, :]) / bandwidth
    return np.exp(-0.5 * z * z).sum(axis=1) / (samples.size * bandwidth * math.sqrt(2.0 * math.pi))


def _reference_gradient_norm(jac, res):
    rnorm = float(np.linalg.norm(res))
    if rnorm == 0.0:
        return 0.0
    g = jac.T @ res
    col = np.linalg.norm(jac, axis=0)
    col[col == 0.0] = np.inf
    return float(np.max(np.abs(g) / (col * rnorm)))


def reference_fit(t, y, init=None) -> FitResult:
    """Levenberg-Marquardt over every point: the differential reference.

    The same damping, stopping and convergence tests as ``fit_logistic``,
    on the same ``logistic`` constants, evaluated point by point instead of
    over the per-time table.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    init = init if init is not None else LogisticParams(*DEFAULT_INIT_PARAMS)

    def residuals(theta):
        return logistic_eval(LogisticParams(*theta), t) - y

    theta = init.canonical().as_array()
    res = residuals(theta)
    objective = float(res @ res)
    if not math.isfinite(objective):
        raise NumericalError("objective not finite at initial parameters")
    lam = 1e-3
    iterations = 0
    for _ in range(logistic.MAX_ITER):
        jac = logistic._jacobians(theta[None, :], t)[0]
        jtj = jac.T @ jac
        g = jac.T @ res
        if not (np.all(np.isfinite(jtj)) and np.all(np.isfinite(g))):
            raise NumericalError("Jacobian degenerate (non-finite entries)")
        step_taken = False
        for _ in range(60):
            damp = jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-12))
            try:
                delta = np.linalg.solve(damp, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if not np.all(np.isfinite(delta)):
                lam *= 10.0
                continue
            trial = theta + delta
            trial_res = residuals(trial)
            trial_obj = float(trial_res @ trial_res)
            if math.isfinite(trial_obj) and trial_obj <= objective:
                theta, res = trial, trial_res
                rel_decrease = (objective - trial_obj) / max(objective, 1e-300)
                objective = trial_obj
                lam = max(lam / 10.0, 1e-12)
                iterations += 1
                step_taken = True
                break
            lam *= 10.0
            if lam > 1e15:
                break
        if not step_taken:
            break
        if rel_decrease < logistic.TOL:
            break

    final = LogisticParams(*theta).canonical()
    res = residuals(final.as_array())
    rnorm = float(np.linalg.norm(res))
    exact = rnorm <= 1e-12 * max(1.0, float(np.linalg.norm(y)))
    jac = logistic._jacobians(final.as_array()[None, :], t)[0]
    converged = exact or _reference_gradient_norm(jac, res) <= logistic.GTOL
    return FitResult(
        params=final,
        rmse=float(np.sqrt(np.mean(res**2))),
        max_abs_residual=float(np.max(np.abs(res))),
        n_points=t.size,
        converged=converged,
        iterations=iterations,
    )


def table_row(table, r: int = 0) -> FitResult:
    """Row ``r`` of ``(fits, weights)``, a ``logistic.fit_tables`` result
    ``(params, converged, iterations, errors)`` and the (R, U) weights it
    fitted, as a FitResult for ``assert_same_fit``; a failed row raises its
    NumericalError. ``n_points`` is the sum of the row's weights. A table
    holds no per-point residuals, so ``rmse`` and ``max_abs_residual`` are
    NaN."""
    (params, converged, iterations, errors), weights = table
    if errors[r] is not None:
        raise NumericalError(errors[r])
    return FitResult(
        params=LogisticParams(*params[r]),
        rmse=math.nan,
        max_abs_residual=math.nan,
        n_points=int(np.rint(np.sum(weights[r]))),
        converged=bool(converged[r]),
        iterations=int(iterations[r]),
    )


def coefficient_of_prediction(predicted, actual) -> float:
    """1 - SSE / SST over the points: 1 for exact prediction, 0 for
    mean-level accuracy, negative when the prediction is worse than always
    using the mean. The per-point oracle of validation's table scorer."""
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predicted.shape != actual.shape or predicted.size == 0:
        raise ParameterError("predicted and actual must have equal nonzero length")
    sst = float(np.sum((actual.mean() - actual) ** 2))
    if sst == 0.0:
        raise NumericalError("actual values have zero variance")
    sse = float(np.sum((predicted - actual) ** 2))
    return 1.0 - sse / sst


def assert_same_fit(got: FitResult, want: FitResult, rel: float = 1e-12) -> None:
    """Parameters within ``rel`` relative; identical iterations and
    convergence."""
    g = got.params.as_array()
    w = want.params.as_array()
    drift = np.abs(g - w) / np.abs(w)
    assert np.all(drift <= rel), f"relative drift {drift} (got {g}, want {w})"
    assert got.iterations == want.iterations
    assert got.converged == want.converged


def _reference_ascii(text: str, line: int, column: str) -> None:
    text = text.strip()
    if "_" in text or any(ord(char) > 127 for char in text):
        raise RowParseError(
            line, f"{column} value {text!r} holds a digit separator or a non-ASCII character"
        )


def _reference_year(text: str, line: int, column: str) -> int:
    _reference_ascii(text, line, column)
    text = text.strip()
    try:
        year = int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            raise RowParseError(line, f"{column} value {text!r} is not a number") from None
        if not value.is_integer():
            raise RowParseError(line, f"{column} value {text!r} is not an integer year")
        year = int(value)
    if abs(year) > MAX_ABS_YEAR:
        raise RowParseError(line, f"{column} value {text!r} is outside +/-{MAX_ABS_YEAR:.0e}")
    return year


def _reference_label(text: str, allowed: set, line: int, column: str) -> str:
    text = text.strip()
    if not text:
        return OUT
    if text not in allowed:
        raise RowParseError(line, f"{column} label {text!r} not one of {sorted(allowed)}")
    return text


def _reference_name_key(name: str):
    parts = re.split(r"(\d+)", name)
    return [int(p) if i % 2 else p for i, p in enumerate(parts)], name


def reference_parse(text: str) -> Dataset:
    """``parse_dataset`` one row at a time: every check runs on each row as
    it is read, and a row's line is the physical line its record starts
    on."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("input is empty; expected a header row") from None
    except csv.Error as exc:
        raise RowParseError(reader.line_num, f"malformed CSV: {exc}") from None
    if header and header[0].startswith("﻿"):
        header = [header[0].lstrip("﻿"), *header[1:]]
    header = [h.strip() for h in header]
    expected = list(HEADER)
    if header[: len(expected)] != expected:
        missing = [name for name in expected if name not in header]
        if missing:
            raise DataError(f"header is missing column(s): {', '.join(missing)}")
        raise DataError(f"header columns out of order; expected {','.join(expected)}")
    extras = header[len(expected) :]
    if extras and extras != [SCALED_COLUMN]:
        raise DataError(f"unexpected extra column(s): {', '.join(extras)}")

    rows: dict[str, list[tuple]] = {}
    line = reader.line_num + 1
    while True:
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            raise RowParseError(reader.line_num, f"malformed CSV: {exc}") from None
        line, first = reader.line_num + 1, line
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < len(expected):
            raise RowParseError(first, f"expected {len(expected)} fields, got {len(row)}")
        nga = row[0].strip()
        if not nga:
            raise RowParseError(first, "empty NGA name")
        abs_time = _reference_year(row[2], first, "AbsTime")
        rel_text = row[3].strip()
        rel_time = _reference_year(rel_text, first, "RelTime") if rel_text else 0
        _reference_ascii(row[4], first, "SPC1")
        try:
            spc1 = float(row[4])
        except ValueError:
            raise RowParseError(first, f"SPC1 value {row[4]!r} is not a number") from None
        if not math.isfinite(spc1):
            raise RowParseError(first, f"SPC1 value {row[4]!r} is not finite")
        culture = _reference_label(row[5], {CULT, OUT}, first, "Culture.Sequence")
        institution = _reference_label(row[6], {INST, OUT}, first, "Institutions.Sequence")
        if nga not in rows:
            if re.search(r"[\x00-\x1f\x7f-\x9f]", nga):
                raise RowParseError(first, f"NGA name {nga!r} contains a control character")
            rows[nga] = []
        rows[nga].append(
            (abs_time, first, row[1].strip(), spc1, rel_time, bool(rel_text),
             culture == CULT, institution == INST)
        )

    regions = []
    for nga in sorted(rows, key=_reference_name_key):
        entries = sorted(rows[nga], key=lambda entry: entry[0])
        years, lines, pol_ids, raw, rel, present, cultural, institutional = zip(*entries)
        for i in range(1, len(years)):
            if years[i] == years[i - 1]:
                raise DataError(f"region {nga!r}: duplicate AbsTime {years[i]} (line {lines[i]})")
            if (years[i] - years[i - 1]) % 100:
                raise DataError(
                    f"region {nga!r}: AbsTime step {years[i - 1]} -> {years[i]} "
                    f"is not a century multiple (line {lines[i]})"
                )
        regions.append(
            RegionSeries(
                nga,
                pol_ids,
                np.array(years, dtype=np.int64),
                np.array(raw, dtype=float),
                np.array(rel, dtype=np.int64),
                np.array(present, dtype=bool),
                np.array(cultural, dtype=bool),
                np.array(institutional, dtype=bool),
            )
        )
    return Dataset(tuple(regions))


def reference_csv(header: list[str], rows) -> str:
    """CSV text as ``csv.writer`` writes it, one row at a time."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _repr(value) -> str:
    return repr(float(value))


def reference_series_rows(series: RegionSeries) -> list[list[str]]:
    """A region's panel rows, one cell at a time."""
    rows = []
    for i in range(len(series)):
        rel = str(int(series.rel_time[i])) if series.rel_time_present[i] else ""
        row = [
            series.nga,
            series.pol_id[i],
            str(int(series.abs_times[i])),
            rel,
            _repr(series.raw[i]),
            CULT if series.cultural[i] else OUT,
            INST if series.institutional[i] else OUT,
        ]
        if series.spc1_scaled is not None:
            row.append(_repr(series.spc1_scaled[i]))
        rows.append(row)
    return rows


def reference_serialize(dataset: Dataset) -> str:
    """``serialize_dataset`` row by row through ``csv.writer``."""
    header = list(HEADER) + ([SCALED_COLUMN] if dataset.is_scaled else [])
    return reference_csv(header, [row for s in dataset.regions for row in reference_series_rows(s)])


def reference_plot_data(bundle) -> tuple[dict[str, str], list[str]]:
    """Every plot-data CSV rendered row by row through ``csv.writer`` with
    ``repr`` per number: the fixed files by name, and the series files in
    region order."""
    t, _ = bundle.aligned.pooled()
    grid = np.linspace(float(t.min()), float(t.max()), CURVE_SAMPLES)
    curves = [("full", bundle.full_fit)] + [(c.mode.value, c.fit) for c in bundle.continuity]
    residual_rows = []
    for region in bundle.aligned.regions:
        predicted = logistic_eval(bundle.full_fit.params, region.rel_time.astype(float))
        for rel, y, p in zip(region.rel_time, region.scaled, predicted):
            residual_rows.append([region.nga, str(int(rel)), _repr(y), _repr(p), _repr(p - y)])
    files = {
        "curves.csv": reference_csv(
            ["curve", "rel_time", "value"],
            [
                [name, _repr(x), _repr(y)]
                for name, fit in curves
                for x, y in zip(grid, logistic_eval(fit.params, grid))
            ],
        ),
        "kde.csv": reference_csv(
            ["grid", "density"],
            [[_repr(x), _repr(y)] for x, y in zip(bundle.density.grid, bundle.density.density)],
        ),
        "residuals.csv": reference_csv(
            ["nga", "rel_time", "scaled", "predicted", "residual"], residual_rows
        ),
        "growth_window.csv": reference_csv(
            ["k_sigma", "bound", "rel_time", "curve_value"],
            [
                row
                for ts in bundle.timescales
                for row in (
                    [str(ts.k_sigma), "lower", _repr(ts.t1_mean), _repr(ts.th1)],
                    [str(ts.k_sigma), "upper", _repr(ts.t2_mean), _repr(ts.th2)],
                )
            ],
        ),
        "durations.csv": reference_csv(
            ["nga", "tau1", "tau2", "duration"],
            [
                [e.nga, _repr(e.tau1), _repr(e.tau2), _repr(e.duration)]
                for e in bundle.durations.per_nga
            ],
        ),
    }
    for comparison in bundle.continuity:
        files[f"lengths_{comparison.mode.value}.csv"] = reference_csv(
            ["rank", "nga", "length"],
            [
                [str(rank), nga, str(length)]
                for rank, (nga, length) in enumerate(comparison.length_ranking(), start=1)
            ],
        )
    header = list(HEADER) + [SCALED_COLUMN]
    series = [
        reference_csv(header, reference_series_rows(r))
        for r in bundle.aligned.regions
    ]
    return files, series


class ReferenceFrame(charts._Frame):
    """``charts._Frame`` mapping and formatting one point at a time: each
    coordinate through scalar ``x``/``y`` and ``f"{v:.2f}"``."""

    def x(self, value: float) -> float:
        frac = (value - self.x_lo) / (self.x_hi - self.x_lo)
        return self.left + frac * (self.right - self.left)

    def y(self, value: float) -> float:
        frac = (value - self.y_lo) / (self.y_hi - self.y_lo)
        return self.bottom - frac * (self.bottom - self.top)

    def polyline(self, xs, ys, color: str, width: float) -> str:
        points = " ".join(
            f"{self.x(float(a)):.2f},{self.y(float(b)):.2f}" for a, b in zip(xs, ys)
        )
        return (
            f'<polyline fill="none" stroke="{color}" stroke-width="{width}" points="{points}"/>'
        )

    def circles(self, xs, ys) -> list[str]:
        return [
            f'<circle cx="{self.x(float(a)):.2f}" cy="{self.y(float(b)):.2f}" '
            'r="2" fill="#1f77b4" fill-opacity="0.6"/>'
            for a, b in zip(xs, ys)
        ]


def plot_files(bundle):
    """Every plot file of a complete bundle as one ``(path, text chunks)``
    stream: ``report.plot_data_files``, ``report.fit_stage_files`` (which
    holds CSVs and charts) and ``charts.chart_files``, each looked up when
    called."""
    return chain(
        report.plot_data_files(bundle), report.fit_stage_files(bundle), charts.chart_files(bundle)
    )


def chart_texts(bundle) -> dict[str, str]:
    """Every chart of ``plot_files``, joined; the CSVs are skipped (a short
    one is still rendered when its stream reaches it)."""
    return joined((path, chunks) for path, chunks in plot_files(bundle) if path.endswith(".svg"))


def reference_chart_files(bundle) -> dict[str, str]:
    """``chart_texts`` with every frame a ``ReferenceFrame`` (the charts are
    drained while the frame is swapped in)."""
    original = charts._Frame
    charts._Frame = ReferenceFrame
    try:
        return chart_texts(bundle)
    finally:
        charts._Frame = original
