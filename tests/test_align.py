"""Threshold anchoring, relative-time shifting, and continuity segments."""

from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    CULT,
    INST,
    OUT,
    PANEL_HEADER,
    aligned_region,
    build_dataset,
    make_region,
    region_named,
    scaled_region,
)

from spcgrowth import (
    ContinuityMode,
    NumericalError,
    ParameterError,
    minmax_scale,
    shift_to_reltime,
)
from spcgrowth.align import (
    AlignedDataset,
    anchor_time,
    central_segments,
    extract_central_sequence,
    first_above,
)
from spcgrowth.dataset import parse_dataset


def test_the_crossing_rule_takes_the_first_value_strictly_above_the_level():
    assert first_above(np.array([0.1, 0.5, 0.5, 0.7, 0.9]), 0.5) == 3
    assert first_above(np.array([0.6, 0.1]), 0.5) == 0
    assert first_above(np.array([0.1, 0.5, 0.2]), 0.5) is None
    assert first_above(np.empty(0), 0.5) is None


class TestAnchor:
    def test_first_strict_crossing_year(self):
        series = scaled_region("A", [0.1, 0.2, 0.3, 0.4, 0.9], start=-1000)
        result = anchor_time(series, 0.5)
        assert result.crossed
        assert result.anchor_year == -600  # the fifth century point

    def test_value_exactly_at_threshold_does_not_count(self):
        series = scaled_region("A", [0.3, 0.5, 0.7])
        result = anchor_time(series, 0.5)
        assert result.anchor_year == -800  # the 0.7 point, not the tie
        assert result.threshold_ties == 1

    def test_first_point_already_above(self):
        series = scaled_region("A", [0.8, 0.9], start=-1200)
        result = anchor_time(series, 0.5)
        assert result.anchor_year == -1200

    def test_never_crossing(self):
        series = scaled_region("A", [0.1, 0.2, 0.1])
        result = anchor_time(series, 0.5)
        assert not result.crossed
        assert result.anchor_year is None

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_threshold_must_be_interior(self, bad):
        with pytest.raises(ParameterError):
            anchor_time(scaled_region("A", [0.1, 0.9]), bad)

    def test_unscaled_series_rejected(self):
        with pytest.raises(ParameterError, match="must be scaled before anchoring"):
            anchor_time(make_region("A", [0.1, 0.9]), 0.5)


class TestShift:
    def test_crossing_point_lands_at_rel_zero(self):
        # crossing at the fifth century point puts the first point at -400
        ds = build_dataset([make_region("A", [0.1, 0.2, 0.3, 0.4, 0.9], start=-1000)])
        aligned = shift_to_reltime(minmax_scale(ds), 0.5)
        region = region_named(aligned, "A")
        assert list(region.rel_time) == [-400, -300, -200, -100, 0]
        assert region.scaled[region.rel_time == 0][0] > 0.5

    def test_non_crossing_regions_are_discarded_but_reported(self):
        ds = build_dataset(
            [
                make_region("Grows", [0.1, 0.4, 0.9]),
                make_region("Flat", [0.1, 0.15, 0.2]),
            ]
        )
        aligned = shift_to_reltime(minmax_scale(ds), 0.6)
        assert len(aligned.regions) == 1
        assert aligned.discarded == ("Flat",)
        assert [a.nga for a in aligned.anchor_results] == ["Flat", "Grows"]
        flat = aligned.anchor_results[0]
        assert not flat.crossed and flat.anchor_year is None

    def test_merge_order_is_alphabetical_whatever_the_input_order(self):
        ds = build_dataset(
            [
                make_region("Zag", [0.1, 0.9]),
                make_region("Alp", [0.2, 0.8]),
                make_region("Mid", [0.3, 0.7]),
            ]
        )
        aligned = shift_to_reltime(minmax_scale(ds), 0.5)
        assert [r.nga for r in aligned.regions] == ["Alp", "Mid", "Zag"]

    def test_shifting_preserves_pairwise_gaps(self):
        ds = build_dataset([make_region("A", [0.1, 0.2, 0.5, 0.9], start=-2300)])
        scaled = minmax_scale(ds)
        aligned = shift_to_reltime(scaled, 0.5)
        rel = region_named(aligned, "A").rel_time
        assert list(np.diff(rel)) == list(np.diff(region_named(scaled, "A").abs_times))

    def test_no_retained_point_above_threshold_before_rel_zero(self):
        from spcgrowth import SyntheticSpec, generate_synthetic

        ds = minmax_scale(generate_synthetic(SyntheticSpec(6, noise_sigma=0.05), seed=3))
        aligned = shift_to_reltime(ds, 0.5)
        for region in aligned.regions:
            before = region.scaled[region.rel_time < 0]
            assert np.all(before <= 0.5)
            assert region.scaled[region.rel_time == 0][0] > 0.5

    def test_reanchoring_a_shifted_region_gives_year_zero(self):
        ds = build_dataset([make_region("A", [0.1, 0.4, 0.9], start=-1000)])
        aligned = shift_to_reltime(minmax_scale(ds), 0.5)
        region = region_named(aligned, "A")
        replayed = scaled_region("A2", list(region.scaled), start=int(region.rel_time[0]))
        assert anchor_time(replayed, 0.5).anchor_year == 0

    def test_retained_plus_discarded_covers_the_input(self):
        ds = build_dataset(
            [
                make_region("A", [0.1, 0.9]),
                make_region("B", [0.1, 0.2]),
                make_region("C", [0.3, 0.8]),
            ]
        )
        aligned = shift_to_reltime(minmax_scale(ds), 0.5)
        assert len(aligned.regions) + len(aligned.discarded) == 3
        assert len(aligned.anchor_results) == 3

    def test_pooled_concatenates_all_retained_points(self):
        ds = build_dataset(
            [make_region("A", [0.1, 0.9]), make_region("B", [0.2, 0.8])]
        )
        aligned = shift_to_reltime(minmax_scale(ds), 0.5)
        t, y = aligned.pooled()
        assert t.size == y.size == 4

    def test_time_rows_are_the_distinct_pooled_times_and_each_points_row(self):
        ds = build_dataset(
            [make_region("A", [0.1, 0.3, 0.9], start=-700), make_region("B", [0.2, 0.8])]
        )
        aligned = shift_to_reltime(minmax_scale(ds), 0.5)
        t, _ = aligned.pooled()
        times, rows = aligned.time_rows
        assert times.tolist() == [-200.0, -100.0, 0.0] and times.dtype == float
        assert np.array_equal(times[rows], t)
        assert aligned.time_rows is aligned.time_rows  # computed once
        times, rows = AlignedDataset(()).time_rows  # no region retained
        assert times.size == rows.size == 0


def labelled_aligned(culture, institution=None, values=None, anchor=-600):
    n = len(culture)
    values = values or list(np.linspace(0.1, 0.9, n))
    series = scaled_region("R", values, start=-1000, culture=culture, institution=institution)
    return aligned_region(series, anchor)


class TestCentralSegments:
    def test_fully_continuous_region_keeps_every_point(self):
        region = labelled_aligned([CULT] * 5)
        seg = extract_central_sequence(region, ContinuityMode.CULTURAL)
        assert seg == slice(0, 5)
        assert list(region.rel_time[seg]) == list(region.rel_time)
        assert list(region.scaled[seg]) == list(region.scaled)

    def test_run_is_clipped_at_the_nearest_breaks(self):
        labels = [OUT, CULT, CULT, CULT, CULT, OUT, CULT]
        region = labelled_aligned(labels, anchor=-700)  # anchor at index 3
        seg = extract_central_sequence(region, ContinuityMode.CULTURAL)
        assert seg == slice(1, 5)
        assert list(region.rel_time[seg] - 700) == [-900, -800, -700, -600]
        assert list(region.rel_time[seg]) == [-200, -100, 0, 100]
        assert list(region.scaled[seg]) == list(region.scaled[1:5])

    def test_anchor_outside_the_sequence_is_an_error(self):
        labels = [CULT, CULT, OUT, CULT, CULT]
        region = labelled_aligned(labels, anchor=-800)  # anchor at the OUT point
        with pytest.raises(NumericalError, match="anchor observation is labelled 'outside"):
            extract_central_sequence(region, ContinuityMode.CULTURAL)

    @pytest.mark.parametrize(
        "rel_time, present",
        [([-200, -100, 100], [True] * 3), ([-100, 0, 100], [True, False, True])],
        ids=["no-zero", "zero-not-present"],
    )
    def test_a_region_without_a_rel_time_zero_is_an_error(self, rel_time, present):
        region = replace(
            scaled_region("Gapped", [0.2, 0.4, 0.8]),
            rel_time=np.array(rel_time, dtype=np.int64),
            rel_time_present=np.array(present),
        )
        with pytest.raises(NumericalError, match="region 'Gapped' has no rel_time=0 observation"):
            extract_central_sequence(region, ContinuityMode.CULTURAL)

    def test_modes_read_their_own_label_column(self):
        culture = [CULT] * 5
        institution = [OUT, OUT, INST, INST, OUT]
        region = labelled_aligned(culture, institution, anchor=-800)  # anchor index 2
        cult = extract_central_sequence(region, ContinuityMode.CULTURAL)
        inst = extract_central_sequence(region, ContinuityMode.INSTITUTIONAL)
        assert cult == slice(0, 5)
        assert inst == slice(2, 4)
        assert list(region.rel_time[inst] - 800) == [-800, -700]
        assert list(region.scaled[inst]) == list(region.scaled[2:4])

    def test_skipped_regions_are_named(self):
        good = labelled_aligned([CULT] * 4, anchor=-800)
        bad_series = scaled_region(
            "S", [0.2, 0.4, 0.6, 0.8], culture=[CULT, OUT, CULT, CULT]
        )
        bad = aligned_region(bad_series, -900)  # anchor lands on the OUT label
        from spcgrowth.align import AlignedDataset

        aligned = AlignedDataset((good, bad))
        segments, skipped = central_segments(aligned, ContinuityMode.CULTURAL)
        assert segments == [(good, slice(0, 4))]
        assert skipped == ["S"]

    def test_mode_labels(self):
        text = "\n".join(
            [
                PANEL_HEADER,
                "R,P,-600,,0.1,cultural.continuity,outside.central",
                "R,P,-500,,0.2,outside.central,institutional.continuity",
            ]
        )
        (series,) = parse_dataset(text).regions
        assert list(ContinuityMode.CULTURAL.continuous(series)) == [True, False]
        assert list(ContinuityMode.INSTITUTIONAL.continuous(series)) == [False, True]
