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
row. An aligned region is a RegionSeries too: the alignment sets its
RelTime to the years relative to its anchor, present on every row.
Each column has one rule, a function that converts one cell or rejects
it with the message of the error. Parsing reads the rows in blocks of a
few hundred and converts each block a column at a time through these
rules; a block that a rule rejects is converted again one row at a time,
through the same rules, to name its first bad row. Serialising writes
the arrays back byte for byte. A line number in an error is the physical
line of the text, so a quoted field that spans lines counts each of them.

Datasets are not modified after construction; scaling returns a new
Dataset.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import re
from collections import defaultdict
from dataclasses import dataclass, replace
from itertools import islice, repeat
from typing import Iterable, Iterator, Sequence

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

# Rows parsed at once: a block's rows are held as Python lists until its
# columns are converted, so this bounds the parse's memory above the panel.
_BLOCK_ROWS = 512


@dataclass(frozen=True, eq=False)
class RegionSeries:
    """One region's rows as parallel columns, ordered by calendar year.

    Every array has one entry per row. ``rel_time`` holds the RelTime
    column where ``rel_time_present`` is set (0 elsewhere): as read from
    the file, or, for a region of an alignment, its years relative to its
    anchor, all present. ``cultural`` and ``institutional`` mark the rows
    labelled continuous in Culture.Sequence and Institutions.Sequence.
    ``spc1_scaled`` is None until min-max scaling fills it.
    """

    nga: str
    pol_id: tuple[str, ...]
    abs_times: np.ndarray  # int64
    raw: np.ndarray  # float64
    rel_time: np.ndarray  # int64
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


class _Rejected(ValueError):
    """A cell broke its column's rule; the message says how."""


def _nga_name(cell: str) -> str:
    name = cell.strip()
    if not name:
        raise _Rejected("empty NGA name")
    return name


def _number(column: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise _Rejected(f"{column} value {text!r} is not a number") from None


def _year(column: str):
    """The rule of a year column: an integer, or an integral float like
    '1200.0', within +/-MAX_ABS_YEAR."""

    def rule(cell: str) -> int:
        text = cell.strip()
        try:
            year = int(text)
        except ValueError:
            value = _number(column, text)
            if not value.is_integer():  # also rejects nan and inf
                raise _Rejected(f"{column} value {text!r} is not an integer year")
            year = int(value)
        if abs(year) > MAX_ABS_YEAR:
            raise _Rejected(f"{column} value {text!r} is outside +/-{MAX_ABS_YEAR:.0e}")
        return year

    return rule


def _spc1(cell: str) -> float:
    value = _number("SPC1", cell)
    if not math.isfinite(value):
        raise _Rejected(f"SPC1 value {cell!r} is not finite")
    return value


def _label(column: str, continuous: str):
    """The rule of a continuity column: True for ``continuous``, False for
    'outside.central' or a blank cell."""
    flags = {"": False, OUTSIDE_CENTRAL: False, continuous: True}

    def rule(cell: str) -> bool:
        text = cell.strip()
        if text not in flags:
            raise _Rejected(f"{column} label {text!r} not one of {sorted(filter(None, flags))}")
        return flags[text]

    return rule


_ABS_TIME = _year("AbsTime")
_REL_TIME = _year("RelTime")
_CULTURE = _label("Culture.Sequence", CULTURAL_CONTINUITY)
_INSTITUTIONS = _label("Institutions.Sequence", INSTITUTIONAL_CONTINUITY)


def _name_key(name: str):
    """Region order: digit runs compare as numbers, so 'SYN-9' comes before
    'SYN-10'; the name itself breaks ties such as 'SYN-01' and 'SYN-1'."""
    parts = re.split(r"(\d+)", name)
    return [int(p) if i % 2 else p for i, p in enumerate(parts)], name


def _read_blocks(reader) -> Iterator[tuple[list[list[str]], list[int]]]:
    """The non-blank rows of ``reader`` with the physical line each starts
    on, in blocks of at most ``_BLOCK_ROWS``. Malformed CSV is a
    RowParseError naming the line it was seen on; the rows read before it
    come first, so a bad row among them is named first."""
    rows: list[list[str]] = []
    lines: list[int] = []
    try:
        first = reader.line_num + 1
        for row in reader:
            if row and (row[0].strip() or "".join(row).strip()):
                rows.append(row)
                lines.append(first)
                if len(rows) == _BLOCK_ROWS:
                    yield rows, lines
                    rows, lines = [], []
            first = reader.line_num + 1
    except (csv.Error, UnicodeDecodeError) as exc:
        line = reader.line_num
        if rows:
            yield rows, lines
        if isinstance(exc, UnicodeDecodeError):
            raise
        raise RowParseError(line, f"malformed CSV: {exc}") from None
    if rows:
        yield rows, lines


def _lookup(cells: Sequence[str], table: dict, rule) -> list:
    """``table[cell]`` for every cell, first filling ``table`` with
    ``rule(cell)`` for each distinct new cell."""
    for cell in set(cells).difference(table):
        table[cell] = rule(cell)
    return list(map(table.__getitem__, cells))


class _Columns:
    """The panel's columns, filled one block of rows at a time.

    A block is converted a column at a time, each column through its one
    rule: SPC1 once per cell, and every other column once per distinct
    cell, with the results kept for the blocks that follow, so a name is
    stripped and checked once however many rows repeat it. A block that
    a rule rejects is converted again one row at a time, by the same
    method, to name its first bad row.
    """

    def __init__(self):
        self.names: dict[str, int] = {}  # region name -> code
        self.pol_ids: dict[str, int] = {}  # distinct PolID -> code
        self._cells: defaultdict = defaultdict(dict)  # rule -> {cell: its result}
        self.blocks: list[tuple[np.ndarray, ...]] = []

    def _column(self, cells: Sequence[str], rule) -> list:
        return _lookup(cells, self._cells[rule], rule)

    def _pol_code(self, cell: str) -> int:
        return self.pol_ids.setdefault(cell.strip(), len(self.pol_ids))

    def _name_code(self, name: str) -> int:
        # names reach the SVG charts and the line-oriented text report
        if _CONTROL_CHAR.search(name):
            raise _Rejected(f"NGA name {name!r} contains a control character")
        return len(self.names)

    def _convert(self, rows: list[list[str]], lines: list[int]) -> tuple[np.ndarray, ...]:
        """The block's columns, or _Rejected from the first rule that fails.
        The rules run in the order that names a row's first bad cell: field
        count, empty NGA, AbsTime, RelTime, SPC1, Culture.Sequence,
        Institutions.Sequence, then the NGA's control characters."""
        fields = min(map(len, rows))
        if fields < len(HEADER):
            raise _Rejected(f"expected {len(HEADER)} fields, got {fields}")
        nga, pol, abs_time, rel_time, spc1, culture, institution = islice(
            zip(*rows), len(HEADER)
        )
        names = self._column(nga, _nga_name)
        years = self._column(abs_time, _ABS_TIME)
        rel_text = tuple(map(str.strip, rel_time))
        rel_values = self._column(tuple(filter(None, rel_text)), _REL_TIME)
        raw = np.array(list(map(_spc1, spc1)), dtype=np.float64)
        cultural = self._column(culture, _CULTURE)
        institutional = self._column(institution, _INSTITUTIONS)
        region = _lookup(names, self.names, self._name_code)
        present = np.array(list(map(bool, rel_text)), dtype=bool)
        rel = np.zeros(len(rows), dtype=np.int64)
        rel[present] = rel_values
        return (
            np.array(region, dtype=np.int64),
            np.array(self._column(pol, self._pol_code), dtype=np.int64),
            np.array(years, dtype=np.int64),
            rel,
            present,
            raw,
            np.array(cultural, dtype=bool),
            np.array(institutional, dtype=bool),
            np.array(lines, dtype=np.int64),
        )

    def add(self, rows: list[list[str]], lines: list[int]) -> None:
        """Append a block; RowParseError at its first bad row."""
        try:
            self.blocks.append(self._convert(rows, lines))
        except _Rejected:
            for row, line in zip(rows, lines):
                try:
                    self._convert([row], [line])
                except _Rejected as exc:
                    raise RowParseError(line, str(exc)) from None
            raise AssertionError(f"lines {lines[0]}-{lines[-1]} failed a rule, but no row did")

    def dataset(self) -> Dataset:
        """Group the rows by region, regions in name order and rows by year;
        reject duplicate years and non-century steps."""
        if not self.blocks:
            return Dataset(())
        columns = [np.concatenate(column) for column in zip(*self.blocks)]
        self.blocks.clear()
        ordered = sorted(self.names, key=_name_key)
        rank = np.empty(len(ordered), dtype=np.int64)
        rank[[self.names[nga] for nga in ordered]] = np.arange(len(ordered))
        region = rank[columns[0]]
        # stable, so equal years keep their file order
        order = np.lexsort((columns[2], region))
        pol_ids = np.array(list(self.pol_ids), dtype=object)
        pol_code, years, rel, present, raw, cultural, institutional, lines = (
            column[order] for column in columns[1:]
        )
        bounds = np.cumsum(np.bincount(region, minlength=len(ordered))).tolist()
        regions = []
        for nga, start, stop in zip(ordered, [0, *bounds], bounds):
            abs_times = years[start:stop]
            gaps = np.diff(abs_times)
            bad = np.flatnonzero((gaps == 0) | (gaps % 100 != 0))
            if bad.size:
                i = start + int(bad[0]) + 1
                if gaps[i - start - 1] == 0:
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
                    tuple(pol_ids[pol_code[start:stop]].tolist()),
                    abs_times,
                    raw[start:stop],
                    rel[start:stop],
                    present[start:stop],
                    cultural[start:stop],
                    institutional[start:stop],
                )
            )
        return Dataset(tuple(regions))


def parse_dataset(source: str | Iterable[str]) -> Dataset:
    """Parse panel CSV text into a Dataset (unscaled).

    Rows are grouped by region, regions are ordered by name (numbers in a
    name in numeric order), and rows are sorted by AbsTime within each
    region, so the order of rows in the file never matters. Duplicate
    (region, year) pairs and non-century spacing are rejected.

    The rows are read in blocks of at most ``_BLOCK_ROWS`` and converted a
    column at a time; a block that fails is converted again one row at a
    time, to name its first bad row. Line numbers are physical lines of
    the text, so a quoted field holding a newline counts every line it
    spans.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)

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
        raise DataError(
            f"header columns out of order; expected {','.join(expected)}"
        )
    extras = header[len(expected) :]
    if extras and extras != [SCALED_COLUMN]:
        raise DataError(f"unexpected extra column(s): {', '.join(extras)}")

    columns = _Columns()
    for rows, lines in _read_blocks(reader):
        columns.add(rows, lines)
    return columns.dataset()


def load_dataset(path) -> Dataset:
    with open(path, encoding="utf-8", newline="") as handle:
        try:
            return parse_dataset(handle)
        except UnicodeDecodeError as exc:
            raise DataError(f"not UTF-8 text ({exc.reason})") from None


def csv_field(text: str) -> str:
    """``text`` as one CSV field: in double quotes, with each quote doubled,
    when it holds a comma, a double quote, a newline or a carriage return.
    This is how ``csv.writer`` quotes with "\\n" line ends, except that it
    leaves a bare "\\r" unquoted, which does not parse again."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
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
            np.where(s.rel_time_present, s.rel_time.astype(str), "").tolist(),
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
        need_two = "need at least 2 distinct raw values to derive a scale"
        if values.size < 2:
            raise DataError(need_two)
        lo, hi = float(values.min()), float(values.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):  # min and max keep a NaN
            raise DataError(f"raw values must be finite, got values from {lo!r} to {hi!r}")
        if not lo < hi:
            raise DataError(need_two)
    span = hi - lo
    if not math.isfinite(span):
        raise DataError(f"raw values from {lo!r} to {hi!r} span more than the float range")
    regions = tuple(
        replace(series, spc1_scaled=(series.raw - lo) / span)
        for series in dataset.regions
    )
    return Dataset(regions, scale_min=lo, scale_max=hi)


# Genuine plateau samples beyond the transition, on each side.
_PLATEAU_POINTS = 10


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator parameters for synthetic panels; the defaults are
    ``spcgrowth synth``'s.

    Each region samples the same logistic curve on a century grid that
    covers the transition (where the curve is within 1/1000 of either
    asymptote) plus _PLATEAU_POINTS genuine plateau samples on each
    side, then is shifted into calendar time by a drawn anchor offset (a
    whole number of centuries within +-2,500 years) and perturbed with
    iid Gaussian noise of sd ``noise_sigma``.
    """

    n_regions: int = 8
    params: LogisticParams = LogisticParams(*(1.0, 0.0, 0.002, 0.0))
    noise_sigma: float = 0.05


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

    rng = np.random.default_rng(seed)
    offsets = [int(v) * 100 for v in rng.integers(-25, 26, size=spec.n_regions)]

    p = spec.params
    # Transition half-width: |t - d| beyond which f is within a/1000 of an
    # asymptote, rounded up to whole centuries.
    edge = logistic_inverse(p, p.upper - p.a / 1000.0) - p.d
    steps = int(np.ceil(edge / 100.0)) + _PLATEAU_POINTS
    # Century grid in the curve's own time frame, centred near the midpoint
    # so that fitting (RelTime, SPC1) recovers d itself.
    mid = int(round(p.d / 100.0)) * 100
    time_grid = mid + np.arange(-steps, steps + 1) * 100

    regions = []
    curve = np.asarray(logistic_eval(p, time_grid))
    n = time_grid.size
    continuous = np.ones(n, dtype=bool)
    for r in range(spec.n_regions):
        raw = curve + rng.normal(0.0, spec.noise_sigma, size=n)
        if not np.all(np.isfinite(raw)):
            raise ParameterError(
                f"noise_sigma {spec.noise_sigma:g} draws scores beyond the float range"
            )
        regions.append(
            RegionSeries(
                nga=f"SYN-{r:02d}",
                pol_id=(f"SYN-{r:02d}-P1",) * n,
                abs_times=time_grid + offsets[r],
                raw=raw,
                rel_time=time_grid,
                rel_time_present=continuous,
                cultural=continuous,
                institutional=continuous,
            )
        )
    return Dataset(tuple(regions))

