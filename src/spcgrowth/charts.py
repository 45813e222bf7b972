"""Static SVG renderings of the pipeline's figures.

No plotting framework: each chart is assembled from SVG primitives with
fixed pixel formatting, so identical inputs give identical bytes. The
charts are overlays for quick inspection; the CSV artifacts hold the
same data in full precision.

A chart's points are handled a column at a time: ``_Frame`` maps a whole
array of data values to pixels with one expression, and a polyline or a
set of dots is formatted with one ``%`` per block of up to 1,024 points
(``"%.2f"`` gives the same text as ``f"{x:.2f}"``, ``-0.00`` included).

Each repeated shape has one writer. ``_line`` writes every line element:
the axes and their ticks, the comparison legend, and the reference rules
that ``_Frame.hline`` (a level across the box: overview's th1 and th2,
residuals' zero and 2x RMSE band) and ``_Frame.vline`` (a position down
it: density's threshold and peaks) draw. ``_Frame.plot`` holds the margins
of the four full-size charts; the small multiples place their own boxes.
The curves are evaluated on ``report.curve_grid``, the grid that
``curves.csv`` uses too, at 257 times (129 for the small multiples).

A chart is a generator of text chunks: nothing of it is computed until
its first chunk is taken. ``_document`` yields the head, each body line
in turn and the tail, and the long bodies (one polyline per region, one
dot per point) are generated as they are written.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .logistic import logistic_eval
from .report import curve_grid, region_residuals

if TYPE_CHECKING:
    from .pipeline import ReportBundle

SERIES_COLORS = [
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
]
FULL_CURVE_COLOR = "#111111"
MODE_COLORS = {"cultural": "#d62728", "institutional": "#2ca02c"}
WINDOW_FILL = "#f5c46a"
# points formatted by one ``%``; bounds its format string and coordinate tuple
_BLOCK_POINTS = 1024


def _line(x1, y1, x2, y2, stroke: str, width=1, dash: str = "") -> str:
    """An SVG line element; each coordinate and the width are written as
    given, so a caller passes a mapped pixel already formatted."""
    dasharray = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" '
        f'stroke-width="{width}"{dasharray}/>'
    )


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


class _Frame:
    """Maps data coordinates into a pixel box.

    ``x`` and ``y`` take a number or a whole array: numpy applies the same
    operations in the same order to every element, so an array maps to
    the same bits as its values one at a time.
    """

    def __init__(self, box, x_range, y_range):
        self.left, self.top, self.right, self.bottom = box
        x_lo, x_hi = x_range
        y_lo, y_hi = y_range
        if x_hi <= x_lo:
            x_lo, x_hi = x_lo - 1.0, x_lo + 1.0
        if y_hi <= y_lo:
            y_lo, y_hi = y_lo - 1.0, y_lo + 1.0
        self.x_lo, self.x_hi = float(x_lo), float(x_hi)
        self.y_lo, self.y_hi = float(y_lo), float(y_hi)

    @classmethod
    def plot(cls, width: int, height: int, x_range, y_range) -> _Frame:
        """The frame of a full-size chart: 60 pixels of margin on the left,
        40 above and below, and 20 on the right."""
        return cls((60, 40, width - 20, height - 40), x_range, y_range)

    def x(self, value):
        span = self.right - self.left
        return self.left + (value - self.x_lo) / (self.x_hi - self.x_lo) * span

    def y(self, value):
        span = self.bottom - self.top
        return self.bottom - (value - self.y_lo) / (self.y_hi - self.y_lo) * span

    def _pixels(self, template: str, sep: str, xs, ys) -> Iterator[str]:
        """``template``, whose two ``%.2f`` fields take a point's pixel x and
        y, filled for every point and joined by ``sep``: one string per
        block of ``_BLOCK_POINTS`` points, formatted as it is taken, so the
        format string, the tuple of coordinates for one ``%`` and the text
        held at once stay small."""
        pairs = np.column_stack(
            (self.x(np.asarray(xs, dtype=float)), self.y(np.asarray(ys, dtype=float)))
        )
        return (
            sep.join([template] * len(block)) % tuple(block.ravel().tolist())
            for block in np.split(pairs, range(_BLOCK_POINTS, len(pairs), _BLOCK_POINTS))
        )

    def polyline(self, xs, ys, color: str, width: float) -> str:
        points = " ".join(self._pixels("%.2f,%.2f", " ", xs, ys))
        return (
            f'<polyline fill="none" stroke="{color}" stroke-width="{width}" points="{points}"/>'
        )

    def circles(self, xs, ys) -> Iterator[str]:
        """One dot per point, a line each, as body lines of a document."""
        return self._pixels(
            '<circle cx="%.2f" cy="%.2f" r="2" fill="#1f77b4" fill-opacity="0.6"/>', "\n", xs, ys
        )

    def hline(self, value, stroke: str, dash: str = "") -> str:
        """A rule across the box at data height ``value``."""
        py = f"{self.y(value):.2f}"
        return _line(self.left, py, self.right, py, stroke, 1, dash)

    def vline(self, value, stroke: str, width, dash: str) -> str:
        """A rule down the box at data position ``value``."""
        px = f"{self.x(value):.2f}"
        return _line(px, self.top, px, self.bottom, stroke, width, dash)

    def axes(self) -> list[str]:
        parts = [
            _line(self.left, self.bottom, self.right, self.bottom, "#000"),
            _line(self.left, self.top, self.left, self.bottom, "#000"),
        ]
        for value in np.linspace(self.x_lo, self.x_hi, 5):
            px = f"{self.x(value):.2f}"
            parts.append(_line(px, self.bottom, px, self.bottom + 5, "#000"))
            parts.append(
                f'<text x="{px}" y="{self.bottom + 18}" text-anchor="middle" '
                f'font-size="11" font-family="sans-serif">{value:g}</text>'
            )
        for value in np.linspace(self.y_lo, self.y_hi, 5):
            py = self.y(value)
            parts.append(_line(self.left - 5, f"{py:.2f}", self.left, f"{py:.2f}", "#000"))
            parts.append(
                f'<text x="{self.left - 8}" y="{py + 4:.2f}" text-anchor="end" '
                f'font-size="11" font-family="sans-serif">{value:.3g}</text>'
            )
        return parts


def _document(width: int, height: int, title: str, body: Iterable[str]) -> Iterator[str]:
    """The SVG's text in chunks: its head, each line of ``body`` as it is
    taken, and its tail."""
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{_escape(title)}</text>',
    ]
    yield "\n".join(head) + "\n"
    for line in body:
        yield line + "\n"
    yield "</svg>\n"


def _y_span(ys) -> tuple[float, float]:
    lo = min(float(np.min(y)) for y in ys)
    hi = max(float(np.max(y)) for y in ys)
    pad = 0.05 * (hi - lo or 1.0)
    return lo - pad, hi + pad


def overview_chart(bundle: ReportBundle) -> Iterator[str]:
    """All aligned series, the fitted curve, and the growth window."""
    width, height = 760, 480
    grid = curve_grid(bundle.aligned, 257)
    curve = logistic_eval(bundle.full_fit.params, grid)
    spans = [r.scaled for r in bundle.aligned.regions] + [curve]
    frame = _Frame.plot(width, height, (grid[0], grid[-1]), _y_span(spans))

    def body():
        ts = bundle.timescales[-1] if bundle.timescales else None
        if ts is not None:
            x1, x2 = frame.x(ts.t1_mean), frame.x(ts.t2_mean)
            yield (
                f'<rect x="{x1:.2f}" y="{frame.top}" width="{x2 - x1:.2f}" '
                f'height="{frame.bottom - frame.top}" fill="{WINDOW_FILL}" '
                'fill-opacity="0.4"/>'
            )
            for th in (ts.th1, ts.th2):
                yield frame.hline(th, "#b8860b", "4 3")
        for i, region in enumerate(bundle.aligned.regions):
            color = SERIES_COLORS[i % len(SERIES_COLORS)]
            yield frame.polyline(region.rel_time, region.scaled, color, 1.0)
        yield frame.polyline(grid, curve, FULL_CURVE_COLOR, 2.5)
        yield from frame.axes()

    yield from _document(width, height, "aligned series and fitted growth curve", body())


def comparison_chart(bundle: ReportBundle) -> Iterator[str]:
    """Full-data curve against the continuity-restricted refits."""
    width, height = 760, 480
    grid = curve_grid(bundle.aligned, 257)
    curves = [("full", bundle.full_fit, FULL_CURVE_COLOR)]
    for comparison in bundle.continuity:
        curves.append(
            (
                comparison.mode.value,
                comparison.fit,
                MODE_COLORS.get(comparison.mode.value, "#555555"),
            )
        )
    values = [logistic_eval(fit.params, grid) for _, fit, _ in curves]
    frame = _Frame.plot(width, height, (grid[0], grid[-1]), _y_span(values))
    body = []
    for (name, _, color), ys in zip(curves, values):
        body.append(frame.polyline(grid, ys, color, 2.0))
    body += frame.axes()
    for i, (name, _, color) in enumerate(curves):
        ly = 50 + i * 18
        body.append(_line(frame.left + 12, ly, frame.left + 38, ly, color, 2))
        body.append(
            f'<text x="{frame.left + 44}" y="{ly + 4}" font-size="12" '
            f'font-family="sans-serif">{_escape(name)}</text>'
        )
    yield from _document(width, height, "full fit vs continuity-restricted fits", body)


def small_multiples_chart(bundle: ReportBundle) -> Iterator[str]:
    """One small panel per retained region with the shared fitted curve."""
    columns = 5
    cell_w, cell_h, pad = 150, 120, 10
    rows = (len(bundle.aligned.regions) + columns - 1) // columns
    width = columns * (cell_w + pad) + pad
    height = rows * (cell_h + pad) + pad + 30
    grid = curve_grid(bundle.aligned, 129)
    curve = logistic_eval(bundle.full_fit.params, grid)
    y_range = _y_span([r.scaled for r in bundle.aligned.regions] + [curve])

    def body():
        for i, region in enumerate(bundle.aligned.regions):
            col, row = i % columns, i // columns
            left = pad + col * (cell_w + pad)
            top = 30 + pad + row * (cell_h + pad)
            frame = _Frame(
                (left, top + 12, left + cell_w, top + cell_h),
                (grid[0], grid[-1]),
                y_range,
            )
            yield (
                f'<rect x="{left}" y="{top}" width="{cell_w}" height="{cell_h + 12}" '
                'fill="none" stroke="#cccccc" stroke-width="1"/>'
            )
            yield (
                f'<text x="{left + 4}" y="{top + 11}" font-size="9" '
                f'font-family="sans-serif">{_escape(region.nga)}</text>'
            )
            yield frame.polyline(grid, curve, "#bbbbbb", 1.0)
            yield frame.polyline(region.rel_time, region.scaled, "#1f77b4", 1.2)

    yield from _document(width, height, "per-region aligned series", body())


def density_chart(bundle: ReportBundle) -> Iterator[str]:
    """Pooled score density with the bimodal threshold marked."""
    width, height = 640, 420
    density = bundle.density
    x_range = (float(density.grid[0]), float(density.grid[-1]))
    frame = _Frame.plot(width, height, x_range, (0.0, float(density.density.max()) * 1.08))
    body = [
        frame.polyline(density.grid, density.density, "#1f77b4", 2.0),
        frame.vline(bundle.threshold.spc1_0, "#d62728", 1.5, "5 3"),
        frame.vline(bundle.threshold.left_peak, "#999999", 1, "2 4"),
        frame.vline(bundle.threshold.right_peak, "#999999", 1, "2 4"),
        *frame.axes(),
    ]
    yield from _document(width, height, "scaled score density and threshold", body)


def residuals_chart(bundle: ReportBundle) -> Iterator[str]:
    """Pooled residuals around the fitted curve with the 2x RMSE band,
    scaled to the fit's largest residual; the residuals are walked once,
    for the dots, a region at a time."""
    width, height = 760, 420
    fit, times = bundle.full_fit, bundle.aligned.time_rows[0]
    band = 2.0 * fit.rmse
    y_hi = max(fit.max_abs_residual, band) * 1.1
    frame = _Frame.plot(width, height, (times[0], times[-1]), (-y_hi, y_hi))
    body = [
        frame.hline(0.0, "#888888"),
        frame.hline(band, "#d62728", "4 3"),
        frame.hline(-band, "#d62728", "4 3"),
    ]
    walk = region_residuals(bundle.aligned, fit.params)
    dots = (frame.circles(r.rel_time, res) for r, _, res in walk)
    body = chain(body, chain.from_iterable(dots), frame.axes())
    yield from _document(width, height, "residuals against the fitted curve", body)


def chart_files(bundle: ReportBundle) -> Iterator[tuple[str, Iterable[str]]]:
    """(Relative path, SVG chunks) for the figures that need the refits,
    each chart rendered when its chunks are taken. The other three charts
    are in ``report.fit_stage_files``."""
    yield "overview.svg", overview_chart(bundle)
    yield "comparison.svg", comparison_chart(bundle)
