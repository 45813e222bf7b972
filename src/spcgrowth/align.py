"""Anchor detection, relative-time alignment, and continuity segments.

Each region is anchored at the first observation whose scaled score
strictly exceeds the low/high threshold (``first_above``, the crossing
rule that the empirical durations apply to th1 and th2 too); shifting
calendar years by the anchor puts every retained region's crossing at
relative year 0 so their growth phases overlap. A retained region is its
scaled ``RegionSeries`` with every RelTime set to its aligned year
(``rel_time``, all present).
Regions that never cross are discarded from the alignment (they carry
little information about growth duration).

A region's central segment for a continuity mode is the maximal
contiguous run of observations labelled continuous for that mode that
contains the anchor observation: the run of set entries in the mode's
mask of the region (``RegionSeries.cultural`` or ``.institutional``)
around the anchor index. It is returned as a ``slice`` of the region's
rows, so no segment copies the region's arrays.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .dataset import OUTSIDE_CENTRAL, Dataset, RegionSeries
from .errors import NumericalError, ParameterError

logger = logging.getLogger(__name__)


class ContinuityMode(enum.Enum):
    CULTURAL = "cultural"
    INSTITUTIONAL = "institutional"

    def continuous(self, series: RegionSeries) -> np.ndarray:
        """The mask of ``series`` rows labelled continuous for this mode."""
        if self is ContinuityMode.CULTURAL:
            return series.cultural
        return series.institutional


@dataclass(frozen=True)
class AnchorResult:
    nga: str
    anchor_year: int | None
    crossed: bool
    threshold_ties: int = 0  # observations exactly at the threshold


@dataclass(frozen=True)
class AlignedDataset:
    regions: tuple[RegionSeries, ...]  # rel_time holds the aligned years
    # Per-region anchoring outcomes, retained and discarded alike,
    # alphabetical by region name.
    anchor_results: tuple[AnchorResult, ...] = ()

    @property
    def discarded(self) -> tuple[str, ...]:
        """The regions that never cross the threshold, alphabetically."""
        return tuple(a.nga for a in self.anchor_results if not a.crossed)

    def pooled(self) -> tuple[np.ndarray, np.ndarray]:
        """All (rel_time, scaled) points concatenated across regions."""
        t = np.concatenate([r.rel_time for r in self.regions])
        y = np.concatenate([r.scaled for r in self.regions])
        return t.astype(float), y

    @cached_property
    def time_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``pooled()``'s distinct times, ascending, and the row among them
        of each pooled point; empty arrays when no region is retained."""
        if not self.regions:
            return np.empty(0), np.empty(0, dtype=np.intp)
        return np.unique(self.pooled()[0], return_inverse=True)


def first_above(values: np.ndarray, level: float) -> int | None:
    """The crossing rule: the index of the first value strictly above
    ``level``, or None when no value is."""
    above = np.flatnonzero(values > level)
    return int(above[0]) if above.size else None


def anchor_time(series: RegionSeries, threshold: float) -> AnchorResult:
    """First calendar year at which the scaled score strictly exceeds
    ``threshold``; ``crossed=False`` when the region never does."""
    if not 0.0 < threshold < 1.0:
        raise ParameterError(f"threshold must be in (0, 1), got {threshold}")
    if series.spc1_scaled is None:
        raise ParameterError(f"region {series.nga!r} must be scaled before anchoring")
    scaled = series.scaled
    ties = int(np.sum(scaled == threshold))
    if ties:
        logger.warning(
            "region %s: %d observation(s) exactly at threshold %.6g are not "
            "counted as crossings",
            series.nga,
            ties,
            threshold,
        )
    row = first_above(scaled, threshold)
    if row is None:
        return AnchorResult(series.nga, None, False, ties)
    return AnchorResult(series.nga, int(series.abs_times[row]), True, ties)


def shift_to_reltime(dataset: Dataset, threshold: float) -> AlignedDataset:
    """Anchor every region and shift the retained ones to relative years.

    Regions are processed independently and merged alphabetically, so the
    result does not depend on input order.
    """
    retained = []
    anchors = []
    for series in sorted(dataset.regions, key=lambda s: s.nga):
        anchor = anchor_time(series, threshold)
        anchors.append(anchor)
        if anchor.crossed:
            retained.append(
                replace(
                    series,
                    rel_time=series.abs_times - anchor.anchor_year,
                    rel_time_present=np.ones(len(series), dtype=bool),
                )
            )
    logger.info(
        "alignment: %d region(s) retained, %d discarded",
        len(retained),
        len(anchors) - len(retained),
    )
    return AlignedDataset(tuple(retained), tuple(anchors))


def extract_central_sequence(region: RegionSeries, mode: ContinuityMode) -> slice:
    """Maximal contiguous continuity-labelled run containing rel_time 0, as
    the slice of ``region``'s rows it spans.

    Raises NumericalError when no row has a present RelTime of 0, or when
    the anchor observation itself is labelled outside the central
    sequence; such regions are excluded from continuity fits but stay in
    full-data fits.
    """
    idx = np.nonzero(region.rel_time_present & (region.rel_time == 0))[0]
    if idx.size == 0:
        raise NumericalError(
            f"region {region.nga!r} has no rel_time=0 observation"
        )
    anchor_idx = int(idx[0])
    continuous = mode.continuous(region)
    if not continuous[anchor_idx]:
        raise NumericalError(
            f"region {region.nga!r}: anchor observation is labelled "
            f"{OUTSIDE_CENTRAL!r} for mode {mode.value}"
        )
    # the run ends at the nearest rows outside the sequence on either side
    breaks = np.flatnonzero(~continuous)
    k = int(np.searchsorted(breaks, anchor_idx))
    start = int(breaks[k - 1]) + 1 if k > 0 else 0
    stop = int(breaks[k]) if k < breaks.size else continuous.size
    return slice(start, stop)


def central_segments(
    aligned: AlignedDataset, mode: ContinuityMode
) -> tuple[list[tuple[RegionSeries, slice]], list[str]]:
    """``(region, central segment)`` for every retained region that has
    one, in region order; regions without one are returned in the skipped
    list (and logged)."""
    segments = []
    skipped = []
    for region in aligned.regions:
        try:
            segments.append((region, extract_central_sequence(region, mode)))
        except NumericalError as exc:
            logger.warning("continuity %s: %s", mode.value, exc)
            skipped.append(region.nga)
    return segments, skipped
