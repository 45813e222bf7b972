"""Panel time-series data: parsing, validation, scaling, synthesis.

File format
-----------
Comma-separated UTF-8 with exactly this header:

    NGA,PolID,AbsTime,RelTime,SPC1,Culture.Sequence,Institutions.Sequence

- NGA: region name; rows are grouped per region. A name holding a
  control character (Unicode category Cc) is rejected.
- PolID: polity identifier for the row.
- AbsTime: calendar year, integer, negative = BCE. Within one region the
  years are strictly increasing and spaced in multiples of 100; violating
  rows are rejected rather than resampled.
- RelTime: optional integer year offset as present in the source file
  (empty for rows outside the central sequence).
- Both year columns are rejected beyond +/-MAX_ABS_YEAR (10**15).
- SPC1: raw social-complexity score (not yet min-max scaled).
- Culture.Sequence: 'cultural.continuity' or 'outside.central'.
- Institutions.Sequence: 'institutional.continuity' or 'outside.central'.

Empty continuity cells are read as 'outside.central'. Serialised output
uses the same columns, plus 'SPC1.scaled' once scaling has been applied.

In memory the panel is columnar: a Dataset holds one RegionSeries per
region, and a RegionSeries holds one array per column (years as int64,
scores as float64, a presence mask beside the RelTime values, and one
boolean "continuous" mask per continuity column), never one object per
row. Parsing streams the rows and builds these arrays per region;
serialising writes them back byte for byte.

Datasets are not modified after construction; scaling returns a new
Dataset.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import re
from dataclasses import dataclass, replace
from itertools import repeat
from operator import itemgetter
from typing import Iterable

import numpy as np

from .errors import DataError, ParameterError, RowParseError
from .logistic import LogisticParams, logistic_eval, logistic_inverse

logger = logging.getLogger(__name__)

HEADER = (
    "NGA",
    "PolID",
    "AbsTime",
    "RelTime",
    "SPC1",
    "Culture.Sequence",
    "Institutions.Sequence",
)
SCALED_COLUMN = "SPC1.scaled"

CULTURAL_CONTINUITY = "cultural.continuity"
INSTITUTIONAL_CONTINUITY = "institutional.continuity"
OUTSIDE_CENTRAL = "outside.central"

# Largest |AbsTime| or |RelTime| accepted. Years and their differences then
# fit int64, and every year is exact as a float64 (below 2**53).
MAX_ABS_YEAR = 10**15

# Unicode category Cc: C0 controls, DEL and C1 controls
_CONTROL_CHAR = re.compile(r"[\x00-\x1f\x7f-\x9f]")

_CULTURE_LABELS = {CULTURAL_CONTINUITY, OUTSIDE_CENTRAL}
_INSTITUTION_LABELS = {INSTITUTIONAL_CONTINUITY, OUTSIDE_CENTRAL}


@dataclass(frozen=True, eq=False)
class RegionSeries:
    """One region's rows as parallel columns, ordered by calendar year.

    Every array has one entry per row. ``rel_time_recorded`` holds the
    RelTime column where ``rel_time_present`` is set (0 elsewhere);
    ``cultural`` and ``institutional`` mark the rows labelled continuous
    in Culture.Sequence and Institutions.Sequence. ``spc1_scaled`` is None
    until min-max scaling fills it.
    """

    nga: str
    pol_id: tuple[str, ...]
    abs_times: np.ndarray  # int64
    raw: np.ndarray  # float64
    rel_time_recorded: np.ndarray  # int64
    rel_time_present: np.ndarray  # bool
    cultural: np.ndarray  # bool
    institutional: np.ndarray  # bool
    spc1_scaled: np.ndarray | None = None

    def __len__(self) -> int:
        return self.abs_times.size

    @property
    def scaled(self) -> np.ndarray:
        if self.spc1_scaled is None:
            raise ParameterError(f"region {self.nga!r} has not been scaled")
        return self.spc1_scaled


@dataclass(frozen=True)
class Dataset:
    """All regions plus the global raw extrema used for scaling."""

    regions: tuple[RegionSeries, ...]
    scale_min: float | None = None
    scale_max: float | None = None

    @property
    def is_scaled(self) -> bool:
        return self.scale_min is not None

    def all_raw(self) -> np.ndarray:
        if not self.regions:
            return np.empty(0)
        return np.concatenate([s.raw for s in self.regions])

    def all_scaled(self) -> np.ndarray:
        return np.concatenate([s.scaled for s in self.regions])

    def n_points(self) -> int:
        return sum(len(s) for s in self.regions)


def _parse_int(text: str, line: int, column: str) -> int:
    """Integer parse that tolerates integral floats like '1200.0'."""
    text = text.strip()
    try:
        year = int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            raise RowParseError(line, f"{column} value {text!r} is not a number") from None
        if not value.is_integer():  # also rejects nan and inf
            raise RowParseError(line, f"{column} value {text!r} is not an integer year")
        year = int(value)
    if abs(year) > MAX_ABS_YEAR:
        raise RowParseError(
            line, f"{column} value {text!r} is outside +/-{MAX_ABS_YEAR:.0e}"
        )
    return year


def _parse_label(text: str, allowed: set[str], line: int, column: str) -> str:
    text = text.strip()
    if not text:
        return OUTSIDE_CENTRAL
    if text not in allowed:
        raise RowParseError(
            line, f"{column} label {text!r} not one of {sorted(allowed)}"
        )
    return text


def _name_key(name: str):
    """Region order: digit runs compare as numbers, so 'SYN-9' comes before
    'SYN-10'; the name itself breaks ties such as 'SYN-01' and 'SYN-1'."""
    parts = re.split(r"(\d+)", name)
    return [int(p) if i % 2 else p for i, p in enumerate(parts)], name


def parse_dataset(source: str | Iterable[str]) -> Dataset:
    """Parse panel CSV text into a Dataset (unscaled).

    Rows are grouped by region, regions are ordered by name (numbers in a
    name in numeric order), and rows are sorted by AbsTime within each
    region, so the order of rows in the file never matters. Duplicate
    (region, year) pairs and non-century spacing are rejected.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)

    try:
        header = next(reader)
    except StopIteration:
        raise DataError("input is empty; expected a header row") from None
    if header and header[0].startswith("﻿"):
        header = [header[0].lstrip("﻿"), *header[1:]]
    header = [h.strip() for h in header]
    expected = list(HEADER)
    if header[: len(expected)] != expected:
        missing = [name for name in expected if name not in header]
        if missing:
            raise DataError(f"header is missing column(s): {', '.join(missing)}")
        raise DataError(
            f"header columns out of order; expected {','.join(expected)}"
        )
    extras = header[len(expected) :]
    if extras and extras != [SCALED_COLUMN]:
        raise DataError(f"unexpected extra column(s): {', '.join(extras)}")

    # region -> one tuple per row; the year leads, so sorting orders by it
    rows: dict[str, list[tuple]] = {}
    # one string per distinct PolID, not one per row
    interned: dict[str, str] = {}
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < len(expected):
            raise RowParseError(line_no, f"expected {len(expected)} fields, got {len(row)}")
        nga = row[0].strip()
        if not nga:
            raise RowParseError(line_no, "empty NGA name")
        pol_id = row[1].strip()
        pol_id = interned.setdefault(pol_id, pol_id)
        abs_time = _parse_int(row[2], line_no, "AbsTime")
        rel_text = row[3].strip()
        rel_time = _parse_int(rel_text, line_no, "RelTime") if rel_text else 0
        try:
            spc1 = float(row[4])
        except ValueError:
            raise RowParseError(line_no, f"SPC1 value {row[4]!r} is not a number") from None
        if not math.isfinite(spc1):
            raise RowParseError(line_no, f"SPC1 value {row[4]!r} is not finite")
        culture = _parse_label(row[5], _CULTURE_LABELS, line_no, "Culture.Sequence")
        institution = _parse_label(
            row[6], _INSTITUTION_LABELS, line_no, "Institutions.Sequence"
        )
        region = rows.get(nga)
        if region is None:
            # names reach the SVG charts and the line-oriented text report
            if _CONTROL_CHAR.search(nga):
                raise RowParseError(line_no, f"NGA name {nga!r} contains a control character")
            region = rows[nga] = []
        region.append(
            (
                abs_time,
                line_no,
                pol_id,
                spc1,
                rel_time,
                bool(rel_text),
                culture == CULTURAL_CONTINUITY,
                institution == INSTITUTIONAL_CONTINUITY,
            )
        )

    regions = []
    for nga in sorted(rows, key=_name_key):
        entries = sorted(rows.pop(nga), key=itemgetter(0))
        years, lines, pol_ids, raw, rel, present, cultural, institutional = zip(*entries)
        abs_times = np.array(years, dtype=np.int64)
        gaps = np.diff(abs_times)
        bad = np.flatnonzero((gaps == 0) | (gaps % 100 != 0))
        if bad.size:
            i = int(bad[0]) + 1
            if gaps[i - 1] == 0:
                raise DataError(
                    f"region {nga!r}: duplicate AbsTime {years[i]} (line {lines[i]})"
                )
            raise DataError(
                f"region {nga!r}: AbsTime step {years[i - 1]} -> {years[i]} "
                f"is not a century multiple (line {lines[i]})"
            )
        regions.append(
            RegionSeries(
                nga,
                pol_ids,
                abs_times,
                np.array(raw, dtype=float),
                np.array(rel, dtype=np.int64),
                np.array(present, dtype=bool),
                np.array(cultural, dtype=bool),
                np.array(institutional, dtype=bool),
            )
        )
    return Dataset(tuple(regions))


def load_dataset(path) -> Dataset:
    with open(path, encoding="utf-8", newline="") as handle:
        try:
            return parse_dataset(handle)
        except UnicodeDecodeError as exc:
            raise DataError(f"not UTF-8 text ({exc.reason})") from None


def csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted the way ``csv.writer`` quotes it
    with "\\n" line ends: in double quotes, with each quote doubled, when
    it holds a comma, a double quote or a newline."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def serialize_dataset(dataset: Dataset) -> str:
    """Render a Dataset back to CSV; scaled datasets gain SPC1.scaled.

    Each region is formatted a column at a time: its name and each
    distinct PolID are quoted once, and every row fills one template.
    """
    columns = list(HEADER) + ([SCALED_COLUMN] if dataset.is_scaled else [])
    parts = [",".join(columns) + "\n"]
    for s in dataset.regions:
        quoted = {p: csv_field(p) for p in set(s.pol_id)}
        cells = [
            repeat(csv_field(s.nga)),
            [quoted[p] for p in s.pol_id],
            s.abs_times.tolist(),
            np.where(s.rel_time_present, s.rel_time_recorded.astype(str), "").tolist(),
            s.raw.tolist(),
            np.where(s.cultural, CULTURAL_CONTINUITY, OUTSIDE_CENTRAL).tolist(),
            np.where(s.institutional, INSTITUTIONAL_CONTINUITY, OUTSIDE_CENTRAL).tolist(),
        ]
        template = "%s,%s,%d,%s,%r,%s,%s"
        if dataset.is_scaled:
            cells.append(s.scaled.tolist())
            template += ",%r"
        template += "\n"
        parts += [template % row for row in zip(*cells)]
    return "".join(parts)


def minmax_scale(dataset: Dataset, extrema: tuple[float, float] | None = None) -> Dataset:
    """Scale every raw value to (raw - min) / (max - min), globally.

    The extrema are taken over all regions in the input (so regions that
    never reach high raw scores never reach high scaled scores), unless an
    explicit ``extrema`` pair overrides them, e.g. to scale held-out data
    with a previously stored range.
    """
    values = dataset.all_raw()
    if extrema is not None:
        lo, hi = float(extrema[0]), float(extrema[1])
        if not lo < hi:
            raise ParameterError(f"extrema must satisfy min < max, got ({lo}, {hi})")
    else:
        if values.size < 2 or np.unique(values).size < 2:
            raise DataError(
                "need at least 2 distinct raw values to derive a scale"
            )
        lo, hi = float(values.min()), float(values.max())
    span = hi - lo
    if not math.isfinite(span):
        raise DataError(f"raw values from {lo!r} to {hi!r} span more than the float range")
    regions = tuple(
        replace(series, spc1_scaled=(series.raw - lo) / span)
        for series in dataset.regions
    )
    return Dataset(regions, scale_min=lo, scale_max=hi)


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator parameters for synthetic panels.

    Each region samples the same logistic curve on a century grid that
    covers the transition (where the curve is within 1/1000 of either
    asymptote) plus ``plateau_points`` genuine plateau samples on each
    side, then is shifted into calendar time by its anchor offset and
    perturbed with iid Gaussian noise of sd ``noise_sigma``.
    """

    n_regions: int
    params: LogisticParams = LogisticParams(*(1.0, 0.0, 0.002, 0.0))
    noise_sigma: float = 0.0
    anchor_offsets: tuple[int, ...] | None = None  # calendar years per region
    plateau_points: tuple[int, int] = (10, 10)


def generate_synthetic(spec: SyntheticSpec, seed: int) -> Dataset:
    """Draw a synthetic panel; bit-identical for a fixed (spec, seed)."""
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    if spec.n_regions < 1:
        raise ParameterError("n_regions must be >= 1")
    if not (math.isfinite(spec.noise_sigma) and spec.noise_sigma >= 0):
        raise ParameterError(f"noise_sigma must be finite and >= 0, got {spec.noise_sigma}")
    if spec.params.c <= 0 or spec.params.a <= 0:
        raise ParameterError("generator requires a growth curve (a > 0, c > 0)")
    if spec.anchor_offsets is not None and len(spec.anchor_offsets) != spec.n_regions:
        raise ParameterError("anchor_offsets length must equal n_regions")

    rng = np.random.default_rng(seed)
    if spec.anchor_offsets is not None:
        offsets = [int(v) for v in spec.anchor_offsets]
    else:
        offsets = [int(v) * 100 for v in rng.integers(-25, 26, size=spec.n_regions)]

    p = spec.params
    # Transition half-width: |t - d| beyond which f is within a/1000 of an
    # asymptote, rounded up to whole centuries.
    edge = logistic_inverse(p, p.upper - p.a / 1000.0) - p.d
    half_steps = int(np.ceil(edge / 100.0))
    lo_steps = half_steps + int(spec.plateau_points[0])
    hi_steps = half_steps + int(spec.plateau_points[1])
    # Century grid in the curve's own time frame, centred near the midpoint
    # so that fitting (RelTime, SPC1) recovers d itself.
    mid = int(round(p.d / 100.0)) * 100
    time_grid = mid + np.arange(-lo_steps, hi_steps + 1) * 100

    regions = []
    curve = np.asarray(logistic_eval(p, time_grid))
    n = time_grid.size
    continuous = np.ones(n, dtype=bool)
    for r in range(spec.n_regions):
        noise = rng.normal(0.0, spec.noise_sigma, size=n)
        regions.append(
            RegionSeries(
                nga=f"SYN-{r:02d}",
                pol_id=(f"SYN-{r:02d}-P1",) * n,
                abs_times=time_grid + offsets[r],
                raw=curve + noise,
                rel_time_recorded=time_grid,
                rel_time_present=continuous,
                cultural=continuous,
                institutional=continuous,
            )
        )
    return Dataset(tuple(regions))

