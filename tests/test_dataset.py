"""Panel parsing, global scaling, serialization, and synthetic generation."""

import hashlib
import math
import random

import numpy as np
import pytest
from helpers import (
    CULT,
    INST,
    OUT,
    PANEL_HEADER,
    bench_module,
    build_dataset,
    make_region,
    minmax_unscale,
    recorded_rel_times,
    reference_parse,
    region_named,
    series_fields,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from spcgrowth import (
    DataError,
    ParameterError,
    RowParseError,
    SyntheticSpec,
    fit_logistic,
    generate_synthetic,
    minmax_scale,
)
from spcgrowth.dataset import MAX_ABS_YEAR, load_dataset, parse_dataset, serialize_dataset
from spcgrowth.logistic import LogisticParams, logistic_eval


def panel_text(rows):
    return "\n".join([PANEL_HEADER, *rows]) + "\n"


LATIUM_ROWS = [
    "Latium,ItRomP,-600,-100,0.31,cultural.continuity,institutional.continuity",
    "Latium,ItRomP,-500,0,0.55,cultural.continuity,institutional.continuity",
    "Latium,ItRomP,-400,100,0.62,cultural.continuity,institutional.continuity",
]


class TestParse:
    def test_recorded_reltime_zero_names_the_anchor_year(self):
        ds = parse_dataset(panel_text(LATIUM_ROWS))
        assert len(ds.regions) == 1
        series = region_named(ds, "Latium")
        zero = series.rel_time_present & (series.rel_time == 0)
        assert list(series.abs_times[zero]) == [-500]

    def test_rows_are_sorted_by_year_within_a_region(self):
        shuffled = [LATIUM_ROWS[2], LATIUM_ROWS[0], LATIUM_ROWS[1]]
        ds = parse_dataset(panel_text(shuffled))
        assert list(region_named(ds, "Latium").abs_times) == [-600, -500, -400]

    def test_regions_are_ordered_by_name(self):
        rows = [
            "Zulu,Z-P,-500,,0.2,,",
            "Site-10,S-P,-500,,0.5,,",
            "Alpha,A-P,-500,,0.4,,",
            "Site-010,S-P,-500,,0.5,,",
            "Zulu,Z-P,-400,,0.3,,",
            "Site-9,S-P,-500,,0.5,,",
        ]
        ds = parse_dataset(panel_text(rows))
        # numbers in a name in numeric order, ties broken by the name itself
        assert [r.nga for r in ds.regions] == ["Alpha", "Site-9", "Site-010", "Site-10", "Zulu"]

    def test_equal_pol_ids_parse_to_one_string(self):
        rows = [
            "Zulu,Shared-P,-500,,0.2,,",
            "Alpha, Shared-P,-500,,0.4,,",
            "Zulu,Shared-P,-400,,0.3,,",
            "Alpha,Own-P,-400,,0.5,,",
            "Zulu,Shared-P ,-300,,0.3,,",
        ]
        ds = parse_dataset(panel_text(rows))
        pol_ids = [p for r in ds.regions for p in r.pol_id]
        assert pol_ids == ["Shared-P", "Own-P", "Shared-P", "Shared-P", "Shared-P"]
        assert len({id(p) for p in pol_ids}) == 2

    def test_header_only_input_is_an_empty_panel(self):
        ds = parse_dataset(PANEL_HEADER + "\n")
        assert len(ds.regions) == 0
        assert ds.n_points() == 0

    @pytest.mark.parametrize("score", ["abc", "nan", "inf", "-inf", "1e400"])
    def test_bad_score_reports_its_line_number(self, score):
        rows = [f"Latium,ItRomP,-600,,{score},,"]
        with pytest.raises(RowParseError) as err:
            parse_dataset(panel_text(rows))
        assert err.value.line == 2
        assert repr(score) in str(err.value)

    def test_missing_column_is_named(self):
        bad = PANEL_HEADER.replace(",Culture.Sequence", "")
        with pytest.raises(DataError, match="header is missing column") as err:
            parse_dataset(bad + "\nLatium,P,-600,,0.3,,\n")
        assert "Culture.Sequence" in str(err.value)

    def test_empty_input_rejected(self):
        with pytest.raises(DataError, match="input is empty"):
            parse_dataset("")

    def test_duplicate_year_rejected(self):
        rows = [
            "Latium,ItRomP,-600,,0.3,,",
            "Latium,ItRomP,-600,,0.4,,",
        ]
        with pytest.raises(DataError, match="duplicate AbsTime -600"):
            parse_dataset(panel_text(rows))

    def test_off_century_spacing_rejected(self):
        rows = [
            "Latium,ItRomP,-600,,0.3,,",
            "Latium,ItRomP,-450,,0.4,,",
        ]
        with pytest.raises(DataError, match="not a century multiple"):
            parse_dataset(panel_text(rows))

    def test_unknown_continuity_label_rejected(self):
        rows = ["Latium,ItRomP,-600,,0.3,sometimes,"]
        with pytest.raises(RowParseError):
            parse_dataset(panel_text(rows))

    def test_blank_labels_mean_outside_the_central_sequence(self):
        rows = ["Latium,ItRomP,-600,,0.3,,"]
        ds = parse_dataset(panel_text(rows))
        series = region_named(ds, "Latium")
        assert not series.cultural[0] and not series.institutional[0]

    @pytest.mark.parametrize(
        "abs_time, rel_time",
        [("-600.5", ""), ("nan", ""), ("inf", ""), ("-600", "nan")],
        ids=["AbsTime=-600.5", "AbsTime=nan", "AbsTime=inf", "RelTime=nan"],
    )
    def test_non_integer_year_rejected(self, abs_time, rel_time):
        rows = [f"Latium,ItRomP,{abs_time},{rel_time},0.3,,"]
        with pytest.raises(RowParseError) as err:
            parse_dataset(panel_text(rows))
        assert err.value.line == 2

    @pytest.mark.parametrize("year", [MAX_ABS_YEAR, -MAX_ABS_YEAR])
    def test_years_up_to_the_bound_are_accepted(self, year):
        ds = parse_dataset(panel_text([f"Latium,ItRomP,{year},{year},0.3,,"]))
        series = ds.regions[0]
        assert series.rel_time_present[0]
        assert series.abs_times[0] == series.rel_time[0] == year

    @pytest.mark.parametrize(
        "abs_time, rel_time, column",
        [
            (MAX_ABS_YEAR + 100, "", "AbsTime"),
            (-MAX_ABS_YEAR - 100, "", "AbsTime"),
            ("-1e20", "", "AbsTime"),
            (-600, MAX_ABS_YEAR + 1, "RelTime"),
            (-600, "-1e16", "RelTime"),
        ],
    )
    def test_years_beyond_the_bound_rejected(self, abs_time, rel_time, column):
        rows = [f"Latium,ItRomP,{abs_time},{rel_time},0.3,,"]
        with pytest.raises(RowParseError, match=f"{column} value .* is outside") as err:
            parse_dataset(panel_text(rows))
        assert err.value.line == 2

    def test_lines_are_physical_lines_after_a_multi_line_record(self):
        rows = ['Latium,"Ital\nRome",-600,,0.3,,', "Latium,P,-500,,0.4,,", "", "Latium,P,x,,0.5,,"]
        with pytest.raises(RowParseError, match="line 6: AbsTime value 'x'") as err:
            parse_dataset(panel_text(rows))
        assert err.value.line == 6

    @pytest.mark.parametrize(
        "year, message",
        [("-500", "duplicate AbsTime -500"), ("-450", "step -500 -> -450 is not a century")],
    )
    def test_region_errors_name_physical_lines_after_a_multi_line_record(self, year, message):
        rows = ['Latium,"Ital\nRome",-600,,0.3,,', "Latium,P,-500,,0.4,,"]
        rows.append(f"Latium,P,{year},,0.5,,")
        with pytest.raises(DataError, match=f"{message}.*\\(line 5\\)"):
            parse_dataset(panel_text(rows))

    def test_malformed_csv_names_its_line(self):
        rows = ["Latium,P,-600,,0.3,,", "Latium," + "x" * 131_073 + ",-500,,0.4,,"]
        with pytest.raises(RowParseError, match="line 3: malformed CSV: field larger than"):
            parse_dataset(panel_text(rows))

    def test_a_bad_row_before_malformed_csv_is_named_first(self):
        rows = ["Latium,P,-600,,abc,,", "Latium,P,-500,,0.4,,", 'Latium,P,-400,,0.5,a\rb,']
        with pytest.raises(RowParseError, match="line 2: SPC1 value 'abc'"):
            parse_dataset(panel_text(rows))

    def test_a_pol_id_with_a_carriage_return_round_trips(self, tmp_path):
        ds = parse_dataset(panel_text(['A,"P\rQ",-600,,0.3,,']))
        text = serialize_dataset(ds)
        path = tmp_path / "panel.csv"
        path.write_text(text, encoding="utf-8", newline="")
        for again in (parse_dataset(text), load_dataset(path)):
            assert again.regions[0].pol_id == ("P\rQ",)
            assert serialize_dataset(again) == text

    def test_round_trip_preserves_every_field(self):
        ds = generate_synthetic(SyntheticSpec(3, noise_sigma=0.02), seed=1)
        again = parse_dataset(serialize_dataset(ds))
        assert [series_fields(s) for s in again.regions] == [
            series_fields(s) for s in ds.regions
        ]

    def test_scaled_serialization_gains_a_column_and_still_parses(self):
        ds = minmax_scale(generate_synthetic(SyntheticSpec(2, noise_sigma=0.02), seed=1))
        text = serialize_dataset(ds)
        assert text.splitlines()[0].endswith(",SPC1.scaled")
        again = parse_dataset(text)  # scaled column is ignored on ingest
        unscaled = {**series_fields(ds.regions[0]), "spc1_scaled": None}
        assert series_fields(again.regions[0]) == unscaled


# Cells a mutation writes, unquoted, into the columns it names: numbers
# that are not integral years or not finite scores, names with control
# characters or none, labels, and cells the CSV reader rejects in any
# column (a bare carriage return, one over its 131,072-character limit).
YEARS = ("1.5", "-550.5", "1e3", "-600.0", " 700 ", "1_000", "nan", "inf", "", "abc", "0x10",
         "1e20", str(MAX_ABS_YEAR), str(-MAX_ABS_YEAR - 100), "99999999999999999999999")
MUTANT_CELLS = {
    (2, 3): YEARS,
    (4,): ("nan", "inf", "-inf", "1e400", "abc", "", " 0.5 ", "1_0.5"),
    (0,): ("", " ", "Alpha\x01Beta", "Del\x7f", "Next\x85Line", '"Line\nBreak"', " R0 ", "R0\t"),
    (5, 6): (CULT, INST, " outside.central ", "sometimes", ""),
    (0, 1, 2, 3, 4, 5, 6): ("a\rb", '"unclosed', "x" * 131_073),
}
MUTATIONS = (*MUTANT_CELLS, "short row", "duplicate year", "off-century year")


@st.composite
def panel_texts(draw):
    """CSV text of a panel: valid rows from a seeded generator, either a few
    or more than one parse block of them, in region order or shuffled, with
    quoted multi-line PolIDs, blank lines and up to three mutations. In a
    long panel each mutation lands just before or just after a block
    boundary."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.one_of(st.integers(1, 40), st.integers(513, 1100)))
    n_regions = draw(st.integers(1, 5))
    rows = []
    for r in range(n_regions):
        start = rng.randrange(-30, 30) * 100
        for i in range(n_rows // n_regions + (r < n_rows % n_regions)):
            rows.append([
                rng.choice([f"R{r}", f"R{r}", f" R{r} "]),
                rng.choice([f"R{r}-P", f"R{r}-Q", f'"R{r}\nP"', f'"R{r} ""Q"""', " shared "]),
                rng.choice(["{}", "{}", "{}.0", " {} "]).format(start + 100 * i),
                rng.choice(["", str(100 * i)]),
                rng.choice([repr(rng.random()), " 0.25 ", "1e-3"]),
                rng.choice([CULT, OUT, "", " outside.central "]),
                rng.choice([INST, OUT, ""]),
                *([] if rng.random() < 0.9 else ["0.5"]),
            ])
    if draw(st.booleans()):
        rng.shuffle(rows)
    for _ in range(draw(st.integers(0, 3))):
        near = st.sampled_from([510, 511, 512, 513])
        at = draw(near if len(rows) > 513 else st.integers(0, len(rows) - 1))
        row = rows[at]
        kind = draw(st.sampled_from(MUTATIONS))
        if kind in MUTANT_CELLS:
            col = draw(st.sampled_from(kind))
            if col < len(row):
                row[col] = draw(st.sampled_from(MUTANT_CELLS[kind]))
        elif kind == "short row":
            del row[draw(st.integers(1, 6)) :]
        elif kind == "duplicate year":
            rows.insert(at, list(row))
        elif len(row) > 2:
            row[2] = row[2].replace("00", "50", 1)
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        blank = draw(st.sampled_from(["", " , ,", ",,,,,,"]))
        lines.insert(draw(st.integers(0, len(lines))), blank)
    return "\n".join([PANEL_HEADER, *lines]) + "\n"


def parse_outcome(parse, text):
    """Every column of every region with its dtype, or the error's class,
    message and line."""
    try:
        dataset = parse(text)
    except DataError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return [
        {k: (v.dtype, v.tolist()) if isinstance(v, np.ndarray) else v for k, v in vars(s).items()}
        for s in dataset.regions
    ]


class TestBlockParse:
    """``parse_dataset`` converts a block of rows a column at a time and a
    failing block again one row at a time; ``helpers.reference_parse``
    checks every row as it reads it."""

    @settings(max_examples=150)
    @given(panel_texts())
    def test_blocks_parse_like_the_per_row_reference(self, text):
        assert parse_outcome(parse_dataset, text) == parse_outcome(reference_parse, text)

    @pytest.mark.parametrize("at", [511, 512])
    @pytest.mark.parametrize(
        "bad_row, message",
        [("R,P,1.5,,0.5,,", "AbsTime value '1.5' is not an integer year"),
         ("R\x01,P,0,,0.5,,", "NGA name 'R\\x01' contains a control character"),
         ("R,P,-100,,-inf,,", "SPC1 value '-inf' is not finite"),
         ("R,P,-100,,0.5x,,", "SPC1 value '0.5x' is not a number")],
        ids=["year", "name", "SPC1 not finite", "SPC1 not a number"],
    )
    def test_a_bad_row_on_either_side_of_a_block_boundary(self, at, bad_row, message):
        rows = ['R,"P\nQ",0,,0.5,,'] + [f"R,P,{100 * i},,0.5,," for i in range(1, 1000)]
        rows[at] = bad_row
        text = panel_text(rows)
        with pytest.raises(RowParseError) as err:
            parse_dataset(text)
        # row 0 spans two lines after the header
        assert (err.value.line, str(err.value)) == (at + 3, f"line {at + 3}: {message}")
        assert parse_outcome(reference_parse, text) == (RowParseError, str(err.value), at + 3)

    # a row with two bad cells is named by the check that runs first:
    # field count, empty name, AbsTime, RelTime, SPC1, the two labels, and
    # the name's control characters last
    @pytest.mark.parametrize("at", [0, 511, 512])
    @pytest.mark.parametrize(
        "bad_row, message",
        [("R\x01,P,0,,0.5,sometimes,",
          "Culture.Sequence label 'sometimes' not one of ['cultural.continuity', "
          "'outside.central']"),
         (",P,1.5,,0.5,,", "empty NGA name"),
         ("R,P,1.5,,abc,,", "AbsTime value '1.5' is not an integer year"),
         ("R,P,1.5", "expected 7 fields, got 3")],
        ids=["label before control character", "empty name before year",
             "year before SPC1", "field count before year"],
    )
    def test_the_first_check_names_a_row_with_two_bad_cells(self, at, bad_row, message):
        rows = [f"R,P,{100 * i},,0.5,," for i in range(1000)]
        rows[at] = bad_row
        text = panel_text(rows)
        outcome = (RowParseError, f"line {at + 2}: {message}", at + 2)
        assert parse_outcome(parse_dataset, text) == outcome
        assert parse_outcome(reference_parse, text) == outcome


class TestScaling:
    def test_three_point_map(self):
        ds = build_dataset(
            [make_region("A", [2.0, 4.0]), make_region("B", [6.0])]
        )
        scaled = minmax_scale(ds)
        assert list(region_named(scaled, "A").scaled) == [0.0, 0.5]
        assert list(region_named(scaled, "B").scaled) == [1.0]
        assert (scaled.scale_min, scaled.scale_max) == (2.0, 6.0)

    def test_unit_range_data_is_unchanged(self):
        ds = build_dataset([make_region("A", [0.0, 0.25, 1.0])])
        scaled = minmax_scale(ds)
        assert np.allclose(region_named(scaled, "A").scaled, [0.0, 0.25, 1.0], atol=0)

    def test_scaling_is_global_not_per_region(self):
        ds = build_dataset(
            [make_region("Low", [1.0, 2.0]), make_region("High", [1.0, 10.0])]
        )
        scaled = minmax_scale(ds)
        assert region_named(scaled, "Low").scaled.max() < 0.2

    def test_identical_values_rejected(self):
        ds = build_dataset([make_region("A", [0.7, 0.7, 0.7])])
        with pytest.raises(DataError, match="distinct raw values"):
            minmax_scale(ds)

    @pytest.mark.parametrize("values", [[0.7, 0.7, 0.7], [0.7]], ids=["constant", "one value"])
    def test_too_few_distinct_values_keep_their_message(self, values):
        ds = build_dataset([make_region("A", values)])
        message = "need at least 2 distinct raw values to derive a scale"
        with pytest.raises(DataError, match=f"^{message}$"):
            minmax_scale(ds)

    # the parser refuses such cells, but a Dataset built in code can hold them
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected_by_name(self, bad):
        ds = build_dataset([make_region("A", [0.1, bad, 0.5])])
        with pytest.raises(DataError, match="raw values must be finite"):
            minmax_scale(ds)

    def test_range_wider_than_a_float_rejected(self):
        ds = build_dataset([make_region("A", [-1.7e308, 0.0, 1.7e308])])
        with pytest.raises(DataError, match="span more than the float range"):
            minmax_scale(ds)

    def test_explicit_extrema_override(self):
        ds = build_dataset([make_region("A", [2.0, 4.0])])
        scaled = minmax_scale(ds, extrema=(0.0, 8.0))
        assert list(region_named(scaled, "A").scaled) == [0.25, 0.5]

    def test_inverted_extrema_rejected(self):
        ds = build_dataset([make_region("A", [2.0, 4.0])])
        with pytest.raises(ParameterError):
            minmax_scale(ds, extrema=(5.0, 5.0))

    # integer-derived values keep adjacent gaps far above float resolution,
    # where strict order preservation genuinely holds
    @given(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=30, unique=True))
    def test_order_preserving(self, values):
        values = [v / 8.0 for v in values]
        ds = build_dataset([make_region("A", values)])
        scaled = region_named(minmax_scale(ds), "A").scaled
        order = np.argsort(np.asarray(values))
        assert np.all(np.diff(scaled[order]) > 0)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30, unique=True))
    def test_unscale_round_trips(self, values):
        ds = minmax_scale(build_dataset([make_region("A", values)]))
        back = minmax_unscale(region_named(ds, "A").scaled, ds.scale_min, ds.scale_max)
        raw = region_named(ds, "A").raw
        span = ds.scale_max - ds.scale_min
        assert np.all(np.abs(back - raw) <= 1e-12 * max(1.0, span))


class TestSynthetic:
    def test_noiseless_points_lie_exactly_on_the_curve(self):
        params = LogisticParams(1.0, 0.0, 0.002, 0.0)
        ds = generate_synthetic(SyntheticSpec(1, params=params, noise_sigma=0.0), seed=0)
        series = ds.regions[0]
        rel = recorded_rel_times(series)
        want = np.asarray(logistic_eval(params, rel.astype(float)))
        assert np.max(np.abs(series.raw - want)) == 0.0

    def test_same_seed_is_bit_identical(self):
        spec = SyntheticSpec(4, noise_sigma=0.05)
        a = serialize_dataset(generate_synthetic(spec, seed=42))
        b = serialize_dataset(generate_synthetic(spec, seed=42))
        assert a == b

    def test_different_seeds_differ(self):
        spec = SyntheticSpec(4, noise_sigma=0.05)
        a = serialize_dataset(generate_synthetic(spec, seed=1))
        b = serialize_dataset(generate_synthetic(spec, seed=2))
        assert a != b

    def test_noisy_fit_recovers_the_generator(self):
        true = LogisticParams(0.85, 0.15, 0.002, 800.0)
        ds = generate_synthetic(SyntheticSpec(23, params=true, noise_sigma=0.05), seed=0)
        t = np.concatenate([recorded_rel_times(s) for s in ds.regions]).astype(float)
        y = np.concatenate([s.raw for s in ds.regions])
        fit = fit_logistic(t, y)
        for name in "abcd":
            got, want = getattr(fit.params, name), getattr(true, name)
            assert abs(got - want) <= 0.05 * abs(want)

    def test_century_spacing_and_offsets(self):
        # each region is shifted by one drawn offset: whole centuries
        # within +-2,500 years
        offsets = set()
        for series in generate_synthetic(SyntheticSpec(40), seed=0).regions:
            assert np.all(np.diff(series.abs_times) == 100)
            (offset,) = set((series.abs_times - series.rel_time).tolist())
            assert offset % 100 == 0 and abs(offset) <= 2500
            offsets.add(offset)
        assert len(offsets) > 1

    def test_bad_region_count_rejected(self):
        with pytest.raises(ParameterError):
            generate_synthetic(SyntheticSpec(0), seed=0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ParameterError):
            generate_synthetic(SyntheticSpec(1, noise_sigma=-0.1), seed=0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_noise_rejected(self, sigma):
        with pytest.raises(ParameterError):
            generate_synthetic(SyntheticSpec(1, noise_sigma=sigma), seed=0)

    def test_decay_curve_rejected(self):
        spec = SyntheticSpec(1, params=LogisticParams(-1.0, 1.0, 0.002, 0.0))
        with pytest.raises(ParameterError):
            generate_synthetic(spec, seed=0)

    def test_a_draw_beyond_the_float_range_is_rejected(self):
        with pytest.raises(ParameterError, match="noise_sigma"):
            generate_synthetic(SyntheticSpec(2, noise_sigma=1e308), seed=1)

    def test_duplicate_region_names_rejected(self):
        with pytest.raises(ParameterError):
            build_dataset([make_region("A", [0.1]), make_region("A", [0.2])])


class TestBenchmarkPanels:
    """The panels the benchmark runs are pinned by SHA-256 in
    ``perfbench/reference.json``; a change to the generator or the
    serialiser that moves one byte fails here."""

    @pytest.mark.parametrize("name, seed", [("paper", 0), ("paper", 1), ("wide", 0)])
    def test_panel_bytes_match_the_reference(self, name, seed):
        workloads = bench_module("workloads")
        reference = workloads.load_reference(workloads.REFERENCE_PATH)
        workload = workloads.WORKLOADS[name]
        entry = workloads.panel_entry(reference, workload, seed)
        spec = SyntheticSpec(n_regions=workload.regions, noise_sigma=workload.noise)
        text = serialize_dataset(generate_synthetic(spec, seed=entry["generator_seed"]))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == entry["sha256"]
        assert serialize_dataset(parse_dataset(text)) == text
