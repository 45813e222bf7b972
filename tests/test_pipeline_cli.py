"""Pipeline orchestration, artifact writing, the command line, and the
package source carrying no unused names."""

import ast
import csv
import errno
import hashlib
import importlib
import inspect
import json
import logging
import os
import pkgutil
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import warnings
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    BENCH_DIR,
    CULT,
    OUT,
    PANEL_HEADER,
    bench_module,
    build_dataset,
    child_pids,
    joined,
    json_leaves,
    make_region,
    open_fds,
    plot_files,
    raising_after_first_chunk,
    text_leaves,
)

import spcgrowth
from spcgrowth import (
    ContinuityMode,
    ParameterError,
    PipelineConfig,
    RowParseError,
    SyntheticSpec,
    benchmark_check,
    generate_synthetic,
    load_dataset,
    run_pipeline,
)
from spcgrowth.cli import main
from spcgrowth.dataset import serialize_dataset
from spcgrowth.logistic import logistic_inverse
from spcgrowth.pipeline import (
    _config_sha256,
    _derived_seed,
    add_bootstrap,
    add_validation,
    run_fit_stage,
)
from spcgrowth.report import (
    bundle_to_dict,
    fit_stage_files,
    plot_data_files,
    render_report_json,
    render_report_text,
    write_outputs,
)


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
# the directory that holds the imported package, so a child interpreter
# finds the same copy whether it comes from src/ or from an install
PACKAGE_ROOT = Path(spcgrowth.__file__).resolve().parent.parent
SUBCOMMANDS = ("fit", "bootstrap", "continuity", "report", "check", "synth")
# what a generated console script does with a ``module:function`` target;
# the target is argv[1] and the remaining arguments go to the function
CONSOLE_SCRIPT = """
import importlib, sys
module, _, attr = sys.argv.pop(1).partition(":")
func = getattr(importlib.import_module(module), attr)
sys.argv[0] = "spcgrowth"
sys.exit(func())
"""


def child_env() -> dict:
    """This environment, with the package under test first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")]))
    return env


def assert_lists_subcommands(help_text: str) -> None:
    # each subcommand must head its own line of the listing; a bare
    # substring test would let "fit" pass on the word "fitted"
    for name in SUBCOMMANDS:
        assert re.search(rf"^\s+{name}\s", help_text, re.MULTILINE), name


def write_panel(path: Path, regions) -> Path:
    path.write_text(serialize_dataset(build_dataset(regions)), encoding="utf-8")
    return path


def tree_bytes(root: Path) -> dict[str, bytes | None]:
    """Every entry under ``root``, hidden ones included: relative path ->
    the file's bytes, or None for a directory."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
        for p in root.rglob("*")
    }


def flat_panel(path: Path) -> Path:
    # hovers around one level; never crosses any interior threshold
    values = [0.30, 0.31, 0.29, 0.30, 0.32, 0.31]
    return write_panel(path, [make_region("Flatland", values)])


class TestPipelineConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"n_bootstrap": 0},
            {"n_validation": 0},
            {"k_sigma_list": (2,)},
            {"bandwidth": -1.0},
            {"bandwidth": "wide"},
            {"continuity_modes": ("cultural",)},
            {"bandwidth": float("inf")},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            PipelineConfig(input_path="panel.csv", **kwargs)

    def test_k_sigma_list_is_deduplicated_and_sorted(self):
        config = PipelineConfig(input_path="panel.csv", k_sigma_list=(3, 1, 3))
        assert config.k_sigma_list == (1, 3)

    def test_modes_are_deduplicated_and_ordered(self):
        config = PipelineConfig(
            input_path="panel.csv",
            continuity_modes=(
                ContinuityMode.INSTITUTIONAL,
                ContinuityMode.CULTURAL,
                ContinuityMode.INSTITUTIONAL,
            ),
        )
        assert config.continuity_modes == (
            ContinuityMode.CULTURAL,
            ContinuityMode.INSTITUTIONAL,
        )

    def test_config_digest_ignores_paths_but_not_settings(self):
        base = PipelineConfig(input_path="a.csv", seed=1)
        moved = PipelineConfig(input_path="b.csv", seed=1, output_dir="out")
        reseeded = PipelineConfig(input_path="a.csv", seed=2)
        assert _config_sha256(base) == _config_sha256(moved)
        assert _config_sha256(base) != _config_sha256(reseeded)

    @pytest.mark.parametrize(
        "seed, stream, expected",
        [(0, 0, 3757552657), (0, 1, 673228719), (7, 0, 1201125462), (7, 1, 3618983171)],
    )
    def test_derived_stage_seeds_are_pinned(self, seed, stream, expected):
        # the validation and bootstrap seeds printed in every report
        assert _derived_seed(seed, stream) == expected


class TestFitStage:
    def test_bundle_is_incomplete_without_inference(self, fit_bundle, tmp_path):
        assert not fit_bundle.complete
        with pytest.raises(ParameterError, match="bundle is incomplete"):
            write_outputs(fit_bundle, tmp_path / "out")

    def test_input_digest_matches_the_file_bytes(self, fit_bundle, noisy_panel_path):
        digest = hashlib.sha256(Path(noisy_panel_path).read_bytes()).hexdigest()
        assert fit_bundle.provenance.input_sha256 == digest

    def test_all_regions_of_the_synthetic_panel_anchor(self, fit_bundle):
        assert len(fit_bundle.aligned.regions) == 12
        assert fit_bundle.aligned.discarded == ()


class TestFullPipeline:
    def test_bundle_is_complete(self, full_bundle):
        assert full_bundle.complete
        assert full_bundle.validation is not None
        assert full_bundle.ensemble is not None
        assert full_bundle.durations is not None
        assert {ts.k_sigma for ts in full_bundle.timescales} == {1, 3}
        assert {c.mode for c in full_bundle.continuity} == set(ContinuityMode)

    def test_stage_seeds_are_distinct_streams(self, full_bundle):
        assert full_bundle.validation.seed != full_bundle.ensemble.seed

    def test_timescale_lookup(self, full_bundle):
        assert full_bundle.timescale(3).k_sigma == 3
        assert full_bundle.timescale(1).k_sigma == 1
        with pytest.raises(KeyError):
            full_bundle.timescale(5)

    def test_bootstrap_does_not_depend_on_the_validation_stage(
        self, full_bundle, noisy_panel_path
    ):
        config = PipelineConfig(
            input_path=str(noisy_panel_path), seed=0, n_bootstrap=150, n_validation=25
        )
        direct = add_bootstrap(run_fit_stage(config))
        for field in fields(direct.ensemble):
            got, want = (getattr(e, field.name) for e in (direct.ensemble, full_bundle.ensemble))
            assert np.array_equal(got, want), field.name

    def test_rerun_writes_byte_identical_outputs(self, noisy_panel_path, tmp_path):
        outputs = []
        for name in ("one", "two"):
            config = PipelineConfig(
                input_path=str(noisy_panel_path),
                seed=3,
                n_bootstrap=25,
                n_validation=5,
                output_dir=str(tmp_path / name),
            )
            run_pipeline(config)
            outputs.append(tmp_path / name)
        first = sorted(p.relative_to(outputs[0]) for p in outputs[0].rglob("*") if p.is_file())
        second = sorted(p.relative_to(outputs[1]) for p in outputs[1].rglob("*") if p.is_file())
        assert first == second
        for rel in first:
            assert (outputs[0] / rel).read_bytes() == (outputs[1] / rel).read_bytes()

    def test_report_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # OpenBLAS splits a dot product over more than 10,000 elements
        # between its threads, so the panel has more points than that
        ds = generate_synthetic(SyntheticSpec(120, noise_sigma=0.05), seed=0)
        assert ds.n_points() > 10_000
        panel = tmp_path / "panel.csv"
        panel.write_text(serialize_dataset(ds), encoding="utf-8")
        outputs = []
        # the command line loads numpy with one thread unless a count is
        # set, so both counts are set
        for threads in ("1", "2"):
            env = child_env()
            env.pop("OMP_NUM_THREADS", None)
            env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"threads-{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "spcgrowth.cli", "report", "--input", str(panel),
                 "--out", str(out), "--bootstrap", "20", "--validation", "5"],
                capture_output=True,
                text=True,
                timeout=120,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            files = [p for p in out.rglob("*") if p.is_file()]
            outputs.append({p.relative_to(out): p.read_bytes() for p in files})
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("reorder", ["shuffled rows", "reversed regions"])
    def test_row_order_does_not_change_the_report(self, reorder, tmp_path):
        # on this panel the threshold's last bits depend on the order in
        # which the KDE sums the regions' scores
        ds = generate_synthetic(SyntheticSpec(30, noise_sigma=0.05), seed=3)
        header, *rows = serialize_dataset(ds).splitlines()
        if reorder == "shuffled rows":
            moved = [rows[i] for i in np.random.default_rng(3).permutation(len(rows))]
        else:
            # a stable sort keeps each region's rows in their order
            moved = sorted(rows, key=lambda row: row.split(",")[0], reverse=True)
        reports = []
        for name, body in (("given.csv", rows), ("moved.csv", moved)):
            path = tmp_path / name
            path.write_text("\n".join([header, *body]) + "\n", encoding="utf-8")
            config = PipelineConfig(input_path=str(path), n_bootstrap=20, n_validation=5)
            reports.append(json.loads(render_report_json(run_pipeline(config))))
        digests = [report["provenance"].pop("input_sha256") for report in reports]
        assert digests[0] != digests[1]
        assert reports[0] == reports[1]

    def test_shifting_one_region_in_calendar_time_moves_only_its_anchor(self, tmp_path):
        # alignment is by each region's own threshold crossing, so 700 years
        # later is the same region in relative time
        ds = generate_synthetic(SyntheticSpec(6, noise_sigma=0.05), seed=3)
        header, *rows = serialize_dataset(ds).splitlines()
        cells = [row.split(",") for row in rows]
        moved = ds.regions[2].nga
        for cell in cells:
            if cell[0] == moved:
                cell[2] = str(int(cell[2]) + 700)
        leaves = []
        for name, body in (("given.csv", rows), ("moved.csv", [",".join(c) for c in cells])):
            path = tmp_path / name
            path.write_text("\n".join([header, *body]) + "\n", encoding="utf-8")
            config = PipelineConfig(input_path=str(path), n_bootstrap=20, n_validation=5)
            leaves.append(json_leaves(bundle_to_dict(run_pipeline(config))))
        given, shifted = leaves
        (nga,) = [k for k, v in given.items() if k.startswith("alignment.") and v == moved]
        anchor = nga.replace(".nga", ".anchor_year")
        assert given.keys() == shifted.keys()
        assert {k for k in given if given[k] != shifted[k]} == {"provenance.input_sha256", anchor}
        assert int(shifted[anchor]) == int(given[anchor]) + 700


def blas_is_openblas() -> bool:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        return False
    return "openblas" in config["Build Dependencies"]["blas"]["name"].lower()


def fresh_import(code: str, **settings: str) -> dict:
    """Run ``code`` in a new interpreter with no BLAS thread count set but
    ``settings``, and load the JSON it prints last."""
    env = child_env()
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(name, None)
    env.update(settings)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# imports spcgrowth.cli after ``{first}`` and prints the OS threads and
# whether os.environ came through unchanged
CLI_IMPORT = """
import json, os
{first}
before = dict(os.environ)
import spcgrowth.cli
print(json.dumps({{"threads": len(os.listdir("/proc/self/task")),
                  "environ_kept": dict(os.environ) == before}}))
"""


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or not blas_is_openblas(),
    reason="counts OpenBLAS's threads in /proc/self/task",
)
class TestBlasThreads:
    def test_the_cli_loads_numpy_with_one_thread(self):
        probe = fresh_import(CLI_IMPORT.format(first=""))
        assert probe == {"threads": 1, "environ_kept": True}

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS caps threads at the CPUs")
    @pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_a_thread_count_the_user_sets_wins(self, name):
        probe = fresh_import(CLI_IMPORT.format(first=""), **{name: "2"})
        assert probe["threads"] > 1 and probe["environ_kept"]

    def test_numpy_loaded_first_keeps_its_environment(self):
        probe = fresh_import(CLI_IMPORT.format(first="import numpy"))
        assert probe["environ_kept"]


# imports spcgrowth.cli after ``{first}``, then runs the exit handlers, and
# prints the collector's state after the import and what it still tracks
GC_PROBE = """
import atexit, gc, json, sys
{first}
try:
    import spcgrowth.cli
    imported = True
except ImportError:
    imported = False
enabled, frozen = gc.isenabled(), gc.get_freeze_count()
atexit._run_exitfuncs()
print(json.dumps({{"imported": imported, "enabled": enabled, "frozen": frozen,
                  "tracked": len(gc.get_objects())}}))
"""


class TestCollector:
    @pytest.fixture(scope="class")
    def cli_first(self):
        return fresh_import(GC_PROBE.format(first=""))

    def test_the_cli_freezes_its_imports_and_leaves_the_collector_on(self, cli_first):
        assert cli_first["imported"] and cli_first["enabled"]
        assert cli_first["frozen"] > 10_000

    @pytest.mark.parametrize("first", ["import numpy", "import gc; gc.disable()"])
    def test_a_process_that_loaded_numpy_or_stopped_the_collector_keeps_it(
        self, cli_first, first
    ):
        probe = fresh_import(GC_PROBE.format(first=first))
        assert cli_first["frozen"] > 0
        assert probe["frozen"] == 0 and probe["tracked"] > 10_000
        assert probe["enabled"] == (first == "import numpy")

    def test_a_failed_import_still_freezes_and_restarts_the_collector(self):
        probe = fresh_import(GC_PROBE.format(first="sys.modules['spcgrowth.report'] = None"))
        assert not probe["imported"]
        assert probe["enabled"] and probe["frozen"] > 0

    def test_the_exit_freeze_leaves_the_final_collections_nothing(self, cli_first):
        assert cli_first["tracked"] < 100


# runs ``report`` through the command line in this interpreter and prints
# the modules it loaded and whether OpenSSL's library is mapped
CLI_REPORT = """
import json, sys
from spcgrowth.cli import main
code = main(["report", "--input", {panel!r}, "--out", {out!r},
             "--bootstrap", "20", "--validation", "5"])
print(json.dumps({{"code": code, "modules": sorted(sys.modules),
                  "libcrypto": "libcrypto" in open("/proc/self/maps").read()}}))
"""
# what ``import numpy`` alone loads: numpy 1.x loads numpy.ma (and through
# numpy.random, OpenSSL) on import, so only the rest is asserted on
NUMPY_IMPORT = """
import json, sys
import numpy
print(json.dumps({"modules": sorted(sys.modules),
                  "libcrypto": "libcrypto" in open("/proc/self/maps").read()}))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="reads /proc/self/maps")
class TestStartUp:
    @pytest.fixture(scope="class")
    def fresh_report(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fresh-report")
        panel = root / "panel.csv"
        ds = generate_synthetic(SyntheticSpec(6, noise_sigma=0.05), seed=5)
        panel.write_text(serialize_dataset(ds), encoding="utf-8")
        probe = fresh_import(CLI_REPORT.format(panel=str(panel), out=str(root / "out")))
        assert probe["code"] == 0
        return panel, root / "out", probe

    def test_a_report_loads_neither_openssl_nor_numpy_ma(self, fresh_report):
        _, _, probe = fresh_report
        numpy_alone = fresh_import(NUMPY_IMPORT)
        for name in ("numpy.ma", "_hashlib"):
            if name not in numpy_alone["modules"]:
                assert name not in probe["modules"], name
        if not numpy_alone["libcrypto"]:
            assert not probe["libcrypto"]

    def test_the_built_in_digests_are_openssls(self, fresh_report):
        panel, out, _ = fresh_report
        provenance = json.loads((out / "report.json").read_text())["provenance"]
        # this process's hashlib loaded as usual, with OpenSSL where it exists
        assert provenance["input_sha256"] == hashlib.sha256(panel.read_bytes()).hexdigest()
        config = PipelineConfig(input_path=str(panel), n_bootstrap=20, n_validation=5)
        assert provenance["config_sha256"] == _config_sha256(config)

    @pytest.mark.parametrize("first", ["import hashlib", "import hmac", "import spcgrowth.pipeline"])
    def test_hashlib_loaded_first_keeps_its_backend(self, first):
        probe = fresh_import(
            f"""
import json, sys
{first}
import hashlib
import spcgrowth.cli
print(json.dumps({{"sha256": hashlib.sha256.__name__,
                  "openssl": sys.modules.get("_hashlib") is not None}}))
"""
        )
        assert probe == {
            "sha256": hashlib.sha256.__name__,
            "openssl": sys.modules.get("_hashlib") is not None,
        }


def test_the_package_loads_its_names_on_first_use():
    probe = fresh_import(
        """
import json, sys
import spcgrowth
numpy_loaded = "numpy" in sys.modules
resolved = all(hasattr(spcgrowth, name) for name in spcgrowth.__all__)
starred = {}
exec("from spcgrowth import *", starred)
try:
    spcgrowth.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
print(json.dumps({"numpy_loaded": numpy_loaded, "resolved": resolved, "unknown": unknown,
                  "starred": sorted(set(starred) - {"__builtins__"}),
                  "all": sorted(spcgrowth.__all__),
                  "in_dir": set(spcgrowth.__all__) <= set(dir(spcgrowth))}))
"""
    )
    assert not probe["numpy_loaded"]
    assert probe["resolved"] and probe["in_dir"]
    assert probe["unknown"] == "AttributeError"
    assert probe["starred"] == probe["all"] and len(probe["all"]) == 23


class TestBenchmarkCheck:
    def test_series_sampled_from_the_fitted_curve_has_zero_divergence(
        self, full_bundle, tmp_path
    ):
        from spcgrowth.logistic import logistic_eval

        params = full_bundle.full_fit.params
        # the construction below re-anchors consistently only when the
        # fitted curve crosses the threshold within one century before 0
        tstar = logistic_inverse(params, full_bundle.threshold.spc1_0)
        assert -100 <= tstar < 0

        anchor = -300
        offsets = np.arange(-30, 41) * 100
        scaled = logistic_eval(params, offsets.astype(float))
        lo, hi = full_bundle.dataset.scale_min, full_bundle.dataset.scale_max
        raw = scaled * (hi - lo) + lo
        path = write_panel(
            tmp_path / "curve.csv",
            [make_region("Curveton", list(raw), start=int(anchor + offsets[0]))],
        )

        check = benchmark_check(full_bundle, path)
        assert check.reference_rmse == full_bundle.full_fit.rmse
        assert check.n_anchored == 1
        series = check.series[0]
        assert series.anchored and series.anchor_year == anchor
        assert series.max_abs_residual < 1e-9
        assert series.frac_beyond == 0.0

    def test_non_crossing_series_is_reported_not_rejected(self, full_bundle, tmp_path):
        lo, hi = full_bundle.dataset.scale_min, full_bundle.dataset.scale_max
        # raw values pinned near the lower plateau
        raw = [lo + 0.05 * (hi - lo) + 0.001 * i for i in range(6)]
        path = write_panel(tmp_path / "flat.csv", [make_region("Flatland", raw)])
        check = benchmark_check(full_bundle, path)
        assert check.n_anchored == 0
        series = check.series[0]
        assert not series.anchored
        assert series.anchor_year is None
        assert np.isnan(series.rmse) and np.isnan(series.frac_beyond)

    def test_held_out_region_stays_close_to_the_fit(self, noisy_panel_path, tmp_path):
        ds = load_dataset(noisy_panel_path)
        kept, held = ds.regions[:-1], ds.regions[-1]
        train = write_panel(tmp_path / "train.csv", list(kept))
        held_path = write_panel(tmp_path / "held.csv", [held])
        bundle = run_fit_stage(PipelineConfig(input_path=str(train)))
        check = benchmark_check(bundle, held_path)
        series = check.series[0]
        assert series.anchored
        assert series.rmse < 3 * check.reference_rmse
        assert series.frac_beyond < 0.5


class TestPlotData:
    def test_file_inventory(self, full_bundle):
        files = joined(plot_files(full_bundle))
        fixed = {
            "curves.csv",
            "kde.csv",
            "residuals.csv",
            "growth_window.csv",
            "durations.csv",
            "lengths_cultural.csv",
            "lengths_institutional.csv",
            "overview.svg",
            "comparison.svg",
            "regions.svg",
            "density.svg",
            "residuals.svg",
        }
        series = {k for k in files if k.startswith("series/")}
        assert set(files) == fixed | series
        assert len(series) == len(full_bundle.aligned.regions)

    def test_the_fit_stage_files_need_nothing_past_the_fit_stage(self, fit_bundle, full_bundle):
        assert joined(fit_stage_files(fit_bundle)) == joined(fit_stage_files(full_bundle))

    def test_regions_whose_names_share_a_slug_get_one_file_each(self, tmp_path):
        names = ["Rome", "rome", "A B", "A-B", "Ostia", "Veii"]
        ds = generate_synthetic(SyntheticSpec(len(names), noise_sigma=0.05), seed=7)
        renamed = [replace(s, nga=name) for s, name in zip(ds.regions, names)]
        path = write_panel(tmp_path / "panel.csv", renamed)
        config = PipelineConfig(input_path=str(path), n_bootstrap=50, n_validation=5)
        bundle = run_pipeline(config)
        assert len(bundle.aligned.regions) == len(names)
        series = {
            k: v for k, v in joined(fit_stage_files(bundle)).items() if k.startswith("series/")
        }
        assert sorted(series) == [
            "series/a-b-2.csv",
            "series/a-b.csv",
            "series/ostia.csv",
            "series/rome-2.csv",
            "series/rome.csv",
            "series/veii.csv",
        ]
        # each file holds the rows of its own region
        owners = {k: {row[0] for row in csv.reader(v.splitlines()[1:])} for k, v in series.items()}
        assert sorted(name for (name,) in owners.values()) == sorted(names)
        assert owners["series/rome.csv"] == {"Rome"}

    def test_residual_rows_cover_every_pooled_point(self, full_bundle):
        t, _ = full_bundle.aligned.pooled()
        text = joined(fit_stage_files(full_bundle))["residuals.csv"]
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["nga", "rel_time", "scaled", "predicted", "residual"]
        assert len(rows) - 1 == t.size

    def test_growth_window_rows_pair_crossing_times_with_thresholds(self, full_bundle):
        rows = list(
            csv.reader(joined(plot_data_files(full_bundle))["growth_window.csv"].splitlines())
        )[1:]
        assert len(rows) == 2 * len(full_bundle.timescales)
        for ts in full_bundle.timescales:
            lower = next(r for r in rows if r[0] == str(ts.k_sigma) and r[1] == "lower")
            upper = next(r for r in rows if r[0] == str(ts.k_sigma) and r[1] == "upper")
            assert float(lower[2]) == pytest.approx(ts.t1_mean, abs=1e-6)
            assert float(lower[3]) == pytest.approx(ts.th1, abs=1e-6)
            assert float(upper[2]) == pytest.approx(ts.t2_mean, abs=1e-6)
            assert float(upper[3]) == pytest.approx(ts.th2, abs=1e-6)

    def test_curve_csv_samples_full_and_continuity_fits(self, full_bundle):
        text = joined(plot_data_files(full_bundle))["curves.csv"]
        rows = list(csv.reader(text.splitlines()))[1:]
        names = {r[0] for r in rows}
        assert names == {"full", "cultural", "institutional"}
        assert len(rows) == 3 * 513

    def test_write_outputs_places_reports_next_to_plot_data(self, full_bundle, tmp_path):
        out = tmp_path / "artifacts"
        written = write_outputs(full_bundle, out)
        names = {p.relative_to(out).as_posix() for p in written}
        assert "report.txt" in names and "report.json" in names
        assert "curves.csv" in names and "overview.svg" in names
        text = (out / "report.txt").read_text(encoding="utf-8")
        assert text == render_report_text(full_bundle)
        parsed = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert parsed["provenance"]["seed"] == 0
        assert (out / "report.json").read_text(encoding="utf-8") == render_report_json(
            full_bundle
        )


@pytest.fixture(autouse=True)
def _clean_cli_state(monkeypatch):
    """Isolate CLI tests from ambient environment and logging handlers."""
    for key in (
        "INPUT", "SEED", "BOOTSTRAP", "VALIDATION", "BANDWIDTH",
        "K_SIGMA", "MODES", "OUT", "REGIONS", "NOISE",
    ):
        monkeypatch.delenv("SPCGROWTH_" + key, raising=False)
    root = logging.getLogger()
    before = list(root.handlers)
    yield
    for handler in root.handlers[:]:
        if handler not in before:
            root.removeHandler(handler)


class TestCli:
    def test_fit_prints_the_report_sections(self, noisy_panel_path, capsys):
        code = main(
            ["fit", "--input", str(noisy_panel_path), "--validation", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("social complexity growth report")
        assert "[fit]" in out and "[validation]" in out
        assert "[bootstrap]" not in out

    def test_report_writes_every_artifact(self, noisy_panel_path, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = main(
            [
                "report",
                "--input", str(noisy_panel_path),
                "--out", str(out_dir),
                "--bootstrap", "25",
                "--validation", "5",
            ]
        )
        assert code == 0
        assert f"report written to {out_dir}" in capsys.readouterr().out
        for name in ("report.txt", "report.json", "curves.csv", "growth_window.csv"):
            assert (out_dir / name).is_file()
        assert any((out_dir / "series").iterdir())

    def test_fit_out_writes_exactly_the_two_reports(self, noisy_panel_path, tmp_path, capsys):
        out_dir = tmp_path / "fit"
        code = main(
            ["fit", "--input", str(noisy_panel_path), "--validation", "5", "--out", str(out_dir)]
        )
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["report.json", "report.txt"]
        config = PipelineConfig(input_path=str(noisy_panel_path), n_validation=5)
        bundle = add_validation(run_fit_stage(config))
        text = (out_dir / "report.txt").read_text(encoding="utf-8")
        assert text == render_report_text(bundle)
        assert capsys.readouterr().out == text
        assert (out_dir / "report.json").read_text(encoding="utf-8") == render_report_json(
            bundle
        )

    def test_no_flags_and_no_environment_give_the_config_defaults(
        self, noisy_panel_path, tmp_path, monkeypatch
    ):
        seen = []
        monkeypatch.setattr("spcgrowth.cli.run_pipeline", seen.append)
        out_dir = str(tmp_path / "run")
        assert main(["report", "--input", str(noisy_panel_path), "--out", out_dir]) == 0
        expected = PipelineConfig(input_path=str(noisy_panel_path), output_dir=out_dir)
        assert seen == [expected]
        assert _config_sha256(seen[0]) == _config_sha256(expected)

        drawn = []

        def generate(spec, seed):
            drawn.append((spec, seed))
            return generate_synthetic(spec, seed=seed)

        monkeypatch.setattr("spcgrowth.cli.generate_synthetic", generate)
        assert main(["synth", "--out", str(tmp_path / "synth")]) == 0
        assert drawn == [(SyntheticSpec(), PipelineConfig.seed)]

    def test_report_help_shows_the_config_defaults(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "200")  # one line per option
        run_defaults = [
            ("--seed", str(PipelineConfig.seed)),
            ("--bootstrap", str(PipelineConfig.n_bootstrap)),
            ("--validation", str(PipelineConfig.n_validation)),
            ("--bandwidth", PipelineConfig.bandwidth),
            ("--k-sigma", ",".join(map(str, PipelineConfig.k_sigma_list))),
            ("--modes", ",".join(m.value for m in PipelineConfig.continuity_modes)),
        ]
        synth_defaults = [
            ("--regions", str(SyntheticSpec().n_regions)),
            ("--noise", str(SyntheticSpec().noise_sigma)),
            ("--seed", str(PipelineConfig.seed)),
        ]
        for command, defaults in [("report", run_defaults), ("synth", synth_defaults)]:
            with pytest.raises(SystemExit) as done:
                main([command, "--help"])
            assert done.value.code == 0
            help_text = capsys.readouterr().out
            for flag, default in defaults:
                line = rf"^\s+{flag} \S+\s+.*\(default {re.escape(default)}\)$"
                assert re.search(line, help_text, re.MULTILINE), (command, flag)

    def test_report_requires_an_output_directory(self, noisy_panel_path, capsys):
        assert main(["report", "--input", str(noisy_panel_path)]) == 2

    def test_check_reports_unanchorable_series(self, noisy_panel_path, tmp_path, capsys):
        held = flat_panel(tmp_path / "flat.csv")
        code = main(["check", "--input", str(noisy_panel_path), str(held)])
        out = capsys.readouterr().out
        assert code == 0
        assert "anchored = false" in out
        assert "n_anchored = 0" in out

    def test_check_prints_every_series_field(self, noisy_panel_path, tmp_path, capsys):
        crossing = load_dataset(noisy_panel_path).regions[0]
        flat = load_dataset(flat_panel(tmp_path / "flat.csv")).regions[0]
        held = write_panel(tmp_path / "held.csv", [crossing, flat])
        assert main(["check", "--input", str(noisy_panel_path), str(held)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("benchmark check against fitted curve\n")
        config = PipelineConfig(input_path=str(noisy_panel_path))
        check = benchmark_check(run_fit_stage(config), held)
        anchored = {s.nga: s.anchored for s in check.series}
        assert anchored == {crossing.nga: True, flat.nga: False}
        expected = {
            "check.reference_rmse": repr(check.reference_rmse),
            "check.spc1_0": repr(check.spc1_0),
            "check.n_series": "2",
            "check.n_anchored": "1",
        }
        for i, series in enumerate(check.series):
            for field in fields(series):
                value = getattr(series, field.name)
                expected[f"check.series.{i}.{field.name}"] = (
                    value if isinstance(value, str) else json.dumps(value)
                )
        assert text_leaves(out) == expected
        # the unanchored series prints its empty fields too
        i = list(anchored).index(flat.nga)
        assert expected[f"check.series.{i}.anchor_year"] == "null"
        assert expected[f"check.series.{i}.rmse"] == "NaN"

    def test_check_takes_no_output_directory(self, noisy_panel_path, tmp_path, capsys):
        out_dir = tmp_path / "check"
        with pytest.raises(SystemExit) as done:
            main(["check", "--input", str(noisy_panel_path), "--out", str(out_dir),
                  str(noisy_panel_path)])
        assert done.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_input_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out_dir = tmp_path / "should-not-exist"
        code = main(
            ["fit", "--input", str(tmp_path / "absent.csv"), "--out", str(out_dir)]
        )
        assert code == 2
        assert not out_dir.exists()

    def test_a_failed_write_exits_2_and_leaves_no_truncated_file(
        self, noisy_panel_path, tmp_path, monkeypatch
    ):
        report = spcgrowth.report
        error = OSError("No space left on device")
        monkeypatch.setattr(
            report, "_residuals_csv", raising_after_first_chunk(report._residuals_csv, error)
        )
        out_dir = tmp_path / "run"
        argv = ["report", "--input", str(noisy_panel_path), "--out", str(out_dir)]
        assert main(argv + ["--bootstrap", "20", "--validation", "5"]) == 2
        assert not (out_dir / "residuals.csv").exists()
        assert (out_dir / "curves.csv").is_file()

    def test_a_stage_failing_after_the_fork_leaves_out_as_it_was(
        self, noisy_panel_path, tmp_path, caplog
    ):
        out_dir = tmp_path / "run"
        argv = ["--out", str(out_dir), "--bootstrap", "20", "--validation", "5"]
        assert main(["report", "--input", str(noisy_panel_path), *argv]) == 0
        before = tree_bytes(out_dir)
        # the full fit takes these 8 points, validation needs 10
        regions = [make_region(f"R{i}", [0.1, 0.2, 0.8, 0.9]) for i in range(2)]
        panel = write_panel(tmp_path / "panel.csv", regions)
        assert main(["report", "--input", str(panel), *argv]) == 3
        assert "need at least 10 pooled points, got 8" in caplog.text
        assert tree_bytes(out_dir) == before
        assert child_pids() == set()

    def test_an_interrupt_during_the_refits_leaves_no_child_and_no_output(
        self, noisy_panel_path, tmp_path, monkeypatch
    ):
        def interrupted(bundle):
            raise KeyboardInterrupt

        monkeypatch.setattr(spcgrowth.pipeline, "add_bootstrap", interrupted)
        out_dir = tmp_path / "new" / "run"
        config = PipelineConfig(
            input_path=str(noisy_panel_path), n_validation=5, output_dir=str(out_dir)
        )
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(config)
        assert child_pids() == set()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "error",
        [RuntimeError("residuals chart failed"), RowParseError(1, "residuals chart failed")],
        ids=["RuntimeError", "RowParseError"],
    )
    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "in-process"])
    def test_a_fit_stage_renderer_error_reaches_the_caller_with_its_type_and_message(
        self, fork, error, noisy_panel_path, tmp_path, monkeypatch
    ):
        # RowParseError takes two arguments, so it cannot be rebuilt from
        # its message alone; a forked run raises it from its own re-render
        if not fork:
            monkeypatch.delattr(os, "fork")
        charts = spcgrowth.charts
        monkeypatch.setattr(
            charts, "residuals_chart", raising_after_first_chunk(charts.residuals_chart, error)
        )
        out_dir = tmp_path / "run"
        config = PipelineConfig(
            input_path=str(noisy_panel_path),
            n_bootstrap=20,
            n_validation=5,
            output_dir=str(out_dir),
        )
        with pytest.raises(type(error)) as raised:
            run_pipeline(config)
        assert raised.type is type(error)
        assert str(raised.value) == str(error)
        assert not (out_dir / "residuals.svg").exists()
        assert list(tmp_path.rglob(".*")) == []

    @pytest.mark.parametrize(
        "ending, code",
        [(lambda: os._exit(9), 9), (lambda: os.kill(os.getpid(), signal.SIGKILL), -9)],
        ids=["exit-9", "killed"],
    )
    def test_a_failed_writer_leaves_the_parent_writing_its_files(
        self, ending, code, noisy_panel_path, tmp_path, monkeypatch, caplog
    ):
        argv = ["report", "--input", str(noisy_panel_path), "--bootstrap", "20",
                "--validation", "5", "--out"]
        assert main(argv + [str(tmp_path / "forked")]) == 0
        monkeypatch.setattr(spcgrowth.report, "_write_in_child", lambda *args: ending())
        caplog.clear()
        assert main(argv + [str(tmp_path / "failed")]) == 0
        warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warned == [
            f"the fit-stage writer ended ({code}); writing its files after the refits"
        ]
        assert tree_bytes(tmp_path / "failed") == tree_bytes(tmp_path / "forked")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["failed", "forked"]

    def test_without_fork_report_writes_the_same_bytes(
        self, noisy_panel_path, tmp_path, monkeypatch
    ):
        argv = ["report", "--input", str(noisy_panel_path), "--bootstrap", "20",
                "--validation", "5", "--out"]
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        # a forked run renders no fit-stage file in this process
        kde_calls = []
        kde_csv = spcgrowth.report._kde_csv

        def counted_kde_csv(bundle):
            kde_calls.append(None)
            return kde_csv(bundle)

        monkeypatch.setattr(spcgrowth.report, "_kde_csv", counted_kde_csv)
        # without fork every file renders from the complete bundle, so this
        # also checks that the staged files need nothing past the fit stage
        assert main(argv + [str(tmp_path / "forked")]) == 0
        assert len(forks) == 1
        assert kde_calls == []
        monkeypatch.delattr(os, "fork")
        assert main(argv + [str(tmp_path / "in-process")]) == 0
        assert len(kde_calls) == 1
        forked = tree_bytes(tmp_path / "forked")
        assert "series" in forked and len(forked) > 20
        assert tree_bytes(tmp_path / "in-process") == forked

    def test_the_writer_forks_a_process_with_one_thread(
        self, noisy_panel_path, tmp_path, monkeypatch
    ):
        # the KDE's worker thread is joined before the fit stage ends
        threads = []
        fork = os.fork

        def counted_fork():
            threads.append(threading.active_count())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        argv = ["report", "--input", str(noisy_panel_path), "--bootstrap", "20",
                "--validation", "5", "--out", str(tmp_path / "run")]
        assert main(argv) == 0
        assert threads == [1]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_a_report_pinned_to_one_cpu_writes_the_same_bytes(self, noisy_panel_path, tmp_path):
        cpu = min(os.sched_getaffinity(0))
        trees = []
        for name, pin in (("pinned", lambda: os.sched_setaffinity(0, {cpu})), ("free", None)):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "spcgrowth.cli", "report", "--input",
                 str(noisy_panel_path), "--out", str(out), "--bootstrap", "20",
                 "--validation", "5"],
                capture_output=True,
                text=True,
                timeout=120,
                env=child_env(),
                preexec_fn=pin,
            )
            assert proc.returncode == 0, proc.stderr
            trees.append(tree_bytes(out))
        assert "kde.csv" in trees[0] and trees[0] == trees[1]

    @pytest.mark.parametrize(
        "module, failing", [(tempfile, "mkdtemp"), (os, "fork")], ids=["mkdtemp", "fork"]
    )
    def test_a_writer_that_cannot_start_leaves_the_run_writing_every_file_itself(
        self, module, failing, noisy_panel_path, tmp_path, monkeypatch
    ):
        argv = ["report", "--input", str(noisy_panel_path), "--bootstrap", "20",
                "--validation", "5", "--out"]
        assert main(argv + [str(tmp_path / "forked")]) == 0

        def unavailable(*args, **kwargs):
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(module, failing, unavailable)
        fds = open_fds()
        assert main(argv + [str(tmp_path / "unforked")]) == 0
        assert open_fds() == fds
        assert tree_bytes(tmp_path / "unforked") == tree_bytes(tmp_path / "forked")

    def test_the_fork_warning_of_a_threaded_process_is_not_shown(
        self, noisy_panel_path, tmp_path, monkeypatch
    ):
        # Python 3.12+ warns so on fork() while OpenBLAS's thread runs
        fork = os.fork

        def warning_fork():
            warnings.warn(
                "This process is multi-threaded, use of fork() may lead to deadlocks "
                "in the child.",
                DeprecationWarning,
                stacklevel=2,
            )
            return fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        argv = ["report", "--input", str(noisy_panel_path), "--bootstrap", "20",
                "--validation", "5", "--out", str(tmp_path / "run")]
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            assert main(argv) == 0
        assert [str(w.message) for w in shown] == []

    @pytest.mark.parametrize("command", ["fit", "check"])
    def test_non_utf8_input_exits_2_naming_the_file(
        self, command, noisy_panel_path, tmp_path, caplog, capsys
    ):
        bad = tmp_path / "utf16.csv"
        bad.write_bytes(b"\xff\xfe" + PANEL_HEADER.encode("utf-16-le"))  # UTF-16 with its BOM
        if command == "fit":
            argv = ["fit", "--input", str(bad)]
        else:
            argv = ["check", "--input", str(noisy_panel_path), str(bad)]
        assert main(argv) == 2
        assert f"{bad}: not UTF-8 text" in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    def test_unsupported_k_sigma_exits_2(self, noisy_panel_path):
        code = main(
            ["bootstrap", "--input", str(noisy_panel_path), "--k-sigma", "2"]
        )
        assert code == 2

    @pytest.mark.parametrize("year", ["nan", "inf"])
    def test_non_finite_year_exits_2_with_its_line(self, tmp_path, year, caplog, capsys):
        panel = tmp_path / "panel.csv"
        rows = [PANEL_HEADER, "Latium,P,-600,,0.3,,", f"Latium,P,{year},,0.5,,"]
        panel.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["fit", "--input", str(panel)]) == 2
        assert "line 3" in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name",
        ['"Alpha\x01Beta"', '"Line\nBreak"', '"Tab\tStop"', '"Del\x7f"', '"Next\x85Line"'],
        ids=["SOH", "newline", "tab", "DEL", "NEL"],
    )
    def test_control_character_in_a_region_name_exits_2_with_its_line(
        self, tmp_path, name, caplog, capsys
    ):
        # such a name would reach regions.svg (not well-formed XML) and the
        # line-oriented report.txt
        panel = tmp_path / "panel.csv"
        rows = [PANEL_HEADER, "Latium,P,-600,,0.3,,", f"{name},P,-500,,0.5,,"]
        panel.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["report", "--input", str(panel), "--out", str(out)]) == 2
        assert "line 3" in caplog.text and "control character" in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "row",
        ["Latium,P,-500000000000000000000000,,0.5,,", "Latium,P,-500,1e20,0.5,,"],
        ids=["AbsTime", "RelTime"],
    )
    def test_out_of_range_year_exits_2_with_its_line(self, tmp_path, row, caplog, capsys):
        panel = tmp_path / "panel.csv"
        rows = [PANEL_HEADER, "Latium,P,-600,,0.3,,", row]
        panel.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["fit", "--input", str(panel)]) == 2
        assert "line 3" in caplog.text and "outside +/-1e+15" in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    def test_too_small_bandwidth_exits_3_without_a_warning(
        self, noisy_panel_path, caplog, capsys
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["fit", "--input", str(noisy_panel_path), "--bandwidth", "1e-300"])
        assert code == 3
        assert "bandwidth 1e-300 is too small for the grid" in caplog.text
        assert "try a smaller bandwidth" not in caplog.text
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1e-4", "1e-6"])
    def test_a_bandwidth_below_the_kde_grid_step_exits_3(self, noisy_panel_path, value, caplog):
        # the density is a row of spikes there, and its lowest point
        # between the two highest is no threshold
        code = main(["fit", "--input", str(noisy_panel_path), "--bandwidth", value])
        assert code == 3
        assert f"bandwidth {float(value):g} is too small for the grid" in caplog.text
        assert "below the grid step 0.00097" in caplog.text

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_unusable_bandwidth_exits_2(self, noisy_panel_path, value, caplog):
        code = main(["fit", "--input", str(noisy_panel_path), "--bandwidth", value])
        assert code == 2
        assert "bandwidth must be finite and positive" in caplog.text

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-inf", "-0.1"])
    @pytest.mark.parametrize("source", ["flag", "environment"])
    def test_bad_synth_noise_exits_2(self, value, source, monkeypatch, capsys):
        argv = ["synth", "--regions", "2", "--seed", "1"]
        if source == "flag":
            argv.append(f"--noise={value}")  # "=" keeps "-inf" a value
        else:
            monkeypatch.setenv("SPCGROWTH_NOISE", value)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("source", ["flag", "environment"])
    def test_negative_synth_seed_exits_2(self, source, tmp_path, monkeypatch, caplog, capsys):
        argv = ["synth", "--regions", "2", "--out", str(tmp_path / "synth")]
        if source == "flag":
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv("SPCGROWTH_SEED", "-1")
        assert main(argv) == 2
        assert "seed must be >= 0, got -1" in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "synth").exists()

    # an empty list would drop the growth-period or continuity sections
    @pytest.mark.parametrize(
        "flag, field", [("--k-sigma", "k_sigma_list"), ("--modes", "continuity_modes")]
    )
    @pytest.mark.parametrize("source", ["flag", "environment"])
    def test_empty_list_option_exits_2_naming_the_field(
        self, flag, field, source, noisy_panel_path, tmp_path, monkeypatch, caplog, capsys
    ):
        out_dir = tmp_path / "report"
        argv = ["report", "--input", str(noisy_panel_path), "--out", str(out_dir)]
        if source == "flag":
            argv += [flag, ","]
        else:
            monkeypatch.setenv("SPCGROWTH_" + flag[2:].upper().replace("-", "_"), "")
        assert main(argv) == 2
        assert field in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [(["fit", "--seed", "x"], "--seed expects an integer, got 'x'"),
         (["fit", "--bootstrap", "1.5"], "--bootstrap expects an integer, got '1.5'"),
         (["fit", "--bandwidth", "abc"], "--bandwidth expects a number or 'auto', got 'abc'"),
         (["fit", "--k-sigma", "1,x"], "--k-sigma expects an integer, got 'x'"),
         (["fit", "--modes", "cultural,foo"],
          "--modes expects values from {cultural, institutional}, got 'foo'"),
         (["synth", "--noise", "abc"], "--noise expects a number, got 'abc'"),
         (["synth", "--regions", "2.5"], "--regions expects an integer, got '2.5'")],
        ids=lambda value: " ".join(value) if isinstance(value, list) else "",
    )
    @pytest.mark.parametrize("source", ["flag", "environment"])
    def test_a_value_that_does_not_parse_exits_2_naming_its_flag(
        self, argv, message, source, noisy_panel_path, monkeypatch, caplog, capsys
    ):
        command, flag, value = argv
        argv = [command] + (["--input", str(noisy_panel_path)] if command == "fit" else [])
        if source == "flag":
            argv += [flag, value]
        else:
            monkeypatch.setenv("SPCGROWTH_" + flag[2:].upper().replace("-", "_"), value)
        assert main(argv) == 2
        assert caplog.record_tuples == [("spcgrowth.cli", logging.ERROR, message)]
        assert capsys.readouterr().out == ""

    # an empty path would name the working directory
    @pytest.mark.parametrize(
        "command, flag",
        [("report", "--input"), ("report", "--out"), ("fit", "--input"), ("fit", "--out"),
         ("synth", "--out")],
    )
    @pytest.mark.parametrize("source", ["flag", "environment"])
    def test_an_empty_path_exits_2_and_writes_nothing(
        self, command, flag, source, noisy_panel_path, tmp_path, monkeypatch, caplog, capsys
    ):
        monkeypatch.chdir(tmp_path)
        argv, paths = [command], {"--out": "run"}
        if command != "synth":  # small counts keep a run that goes ahead short
            argv += ["--bootstrap", "20", "--validation", "5"]
            paths = {"--input": str(noisy_panel_path), **paths}
        paths[flag] = ""
        for name, value in paths.items():
            if name == flag and source == "environment":
                monkeypatch.setenv("SPCGROWTH_" + name[2:].upper(), value)
            else:
                argv += [name, value]
        assert main(argv) == 2
        assert caplog.record_tuples == [
            ("spcgrowth.cli", logging.ERROR, f"{flag} expects a path, got ''")
        ]
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    # too few points is a numerical failure at every stage
    def test_too_few_points_for_the_full_fit_exits_3(self, tmp_path, caplog):
        regions = [make_region(f"R{i}", [0.1, 0.9]) for i in range(2)]
        panel = write_panel(tmp_path / "panel.csv", regions)
        assert main(["fit", "--input", str(panel)]) == 3
        assert "need at least 5 points, got 4" in caplog.text

    def test_too_few_points_for_validation_exits_3(self, tmp_path, caplog):
        regions = [make_region(f"R{i}", [0.1, 0.2, 0.8, 0.9]) for i in range(2)]
        panel = write_panel(tmp_path / "panel.csv", regions)
        assert main(["fit", "--input", str(panel)]) == 3
        assert "need at least 10 pooled points, got 8" in caplog.text

    def test_too_few_points_for_a_continuity_mode_exits_3(self, tmp_path, caplog):
        culture = [OUT, CULT, CULT, OUT]
        regions = [make_region(f"R{i}", [0.1, 0.2, 0.8, 0.9], culture=culture) for i in range(2)]
        panel = write_panel(tmp_path / "panel.csv", regions)
        assert main(["continuity", "--input", str(panel)]) == 3
        assert "continuity mode cultural: only 4 pooled point(s)" in caplog.text

    def test_unimodal_panel_exits_3(self, tmp_path):
        rng = np.random.default_rng(0)
        regions = [
            make_region(f"Mono-{i}", list(rng.normal(0.5, 0.05, 8))) for i in range(3)
        ]
        panel = write_panel(tmp_path / "mono.csv", regions)
        assert main(["fit", "--input", str(panel), "--validation", "2"]) == 3

    def test_environment_supplies_defaults_but_flags_win(
        self, noisy_panel_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("SPCGROWTH_SEED", "9")
        monkeypatch.setenv("SPCGROWTH_VALIDATION", "2")
        main(["fit", "--input", str(noisy_panel_path)])
        assert "seed = 9" in capsys.readouterr().out
        main(["fit", "--input", str(noisy_panel_path), "--seed", "3"])
        assert "seed = 3" in capsys.readouterr().out

    def test_synth_is_deterministic_for_a_seed(self, capsys):
        argv = ["synth", "--regions", "3", "--noise", "0.05", "--seed", "5"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second
        assert first.startswith("NGA,PolID,AbsTime,RelTime,SPC1")

    def test_synth_noise_beyond_the_float_range_exits_2_and_writes_nothing(
        self, tmp_path, caplog, capsys
    ):
        out = tmp_path / "synth"
        argv = ["synth", "--regions", "2", "--noise", "1e308", "--seed", "1", "--out", str(out)]
        assert main(argv) == 2
        assert "noise_sigma" in caplog.text
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_synth_writes_a_loadable_panel(self, tmp_path, capsys):
        code = main(
            ["synth", "--regions", "2", "--seed", "1", "--out", str(tmp_path)]
        )
        assert code == 0
        target = tmp_path / "synthetic.csv"
        assert target.is_file()
        assert len(load_dataset(target).regions) == 2

    def test_synth_out_writes_the_bytes_of_serialize_dataset(self, tmp_path, capsys):
        argv = ["synth", "--regions", "3", "--noise", "0.05", "--seed", "5", "--out", str(tmp_path)]
        assert main(argv) == 0
        panel = generate_synthetic(SyntheticSpec(3, noise_sigma=0.05), seed=5)
        expected = serialize_dataset(panel).encode("utf-8")
        assert (tmp_path / "synthetic.csv").read_bytes() == expected

    def test_console_script_responds_to_help(self):
        """The declared ``[project.scripts]`` entry point answers ``--help``.

        The target is read from ``pyproject.toml`` and called in a child
        interpreter the way a generated console script calls it, so the
        check holds from a source checkout as well as from an install.
        """
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["spcgrowth"]
        proc = subprocess.run(
            [sys.executable, "-c", CONSOLE_SCRIPT, target, "--help"],
            capture_output=True,
            text=True,
            timeout=60,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert_lists_subcommands(proc.stdout)

    def test_benchmark_tracer_spans_every_stage(self, noisy_panel_path, tmp_path):
        """``perfbench/traced.py`` rebinds stage functions by name; each one
        it names must still exist and still be called, and the continuity
        refits must still reach its fit counter. The tracer rebinds names
        for its whole process, so it runs in a child interpreter."""
        spanned = bench_module("traced").SPANNED
        spans_path = tmp_path / "spans.json"
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "traced.py"), str(spans_path), "--",
             "report", "--input", str(noisy_panel_path), "--out", str(tmp_path / "out"),
             "--bootstrap", "20", "--validation", "5"],
            capture_output=True,
            text=True,
            timeout=120,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        record = json.loads(spans_path.read_text(encoding="utf-8"))
        assert record["exit"] == 0
        names = [span["name"] for span in record["spans"]]
        assert set(spanned.values()) <= set(names)
        continuity = [span for span in record["spans"] if span["name"] == "inference.continuity"]
        assert any(span.get("fits", {}).get("attempted", 0) > 0 for span in continuity)

    @pytest.mark.skipif(
        shutil.which("spcgrowth") is None,
        reason="spcgrowth console script not on PATH",
    )
    def test_installed_console_script_responds_to_help(self):
        proc = subprocess.run(
            [shutil.which("spcgrowth"), "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert_lists_subcommands(proc.stdout)


def used_identifiers(sources) -> set[str]:
    """Every identifier the sources use: names and attributes that are
    read, imported names, and string constants that are whole identifiers
    (the keys of ``__init__._SUBMODULE``, the fields the CLI's option
    tables name)."""
    used = set()
    for node in (node for source in sources for node in ast.walk(ast.parse(source))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                used.add(node.value)
    return used


def unused_names(package: Path) -> list[str]:
    """Functions, classes, methods and module-level constants (dunder names
    left out) that no identifier in the package's source uses, and
    dataclass fields that no ``.field`` expression in it reads."""
    sources = [path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))]
    definitions, attributes, reads = set(), [], set()
    for node in (node for source in sources for node in ast.walk(ast.parse(source))):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
            definitions.add(node.name)
        if isinstance(node, ast.Module):
            for item in node.body:
                if isinstance(item, ast.Assign):
                    targets = item.targets
                else:
                    targets = [item.target] if isinstance(item, ast.AnnAssign) else []
                definitions.update(
                    target.id
                    for target in targets
                    if isinstance(target, ast.Name) and not target.id.startswith("__")
                )
        if isinstance(node, ast.ClassDef) and any(
            "dataclass" in ast.unparse(d) for d in node.decorator_list
        ):
            attributes += [
                (node.name, item.target.id)
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
    used = used_identifiers(sources)
    unused = sorted(definitions - used)
    return unused + [f"{cls}.{name}" for cls, name in attributes if name not in reads]


# ``ReportBundle.timescale`` is called only by the benchmark
# (perfbench/workloads.py), which is not part of the package.
READ_BY_THE_BENCHMARK = ["timescale"]


def test_the_package_defines_no_unused_names():
    assert unused_names(Path(spcgrowth.__file__).parent) == READ_BY_THE_BENCHMARK
    bench = [path.read_text(encoding="utf-8") for path in sorted(BENCH_DIR.glob("*.py"))]
    assert set(READ_BY_THE_BENCHMARK) <= used_identifiers(bench)


def test_no_library_function_defaults_a_run_setting():
    """PipelineConfig holds the run defaults; the stage functions take
    them from the caller and repeat none."""
    settings = {"n_repeats", "n_iter", "seed", "k_sigma"}
    taken, defaulted = set(), []
    for name in spcgrowth.__all__:
        function = getattr(spcgrowth, name)
        if not inspect.isfunction(function):
            continue
        for parameter in inspect.signature(function).parameters.values():
            if parameter.name in settings:
                taken.add(parameter.name)
                if parameter.default is not parameter.empty:
                    defaulted.append(f"{name}({parameter.name}={parameter.default!r})")
    assert taken == settings
    assert defaulted == []


def dataclass_field_reads(monkeypatch) -> tuple[set, set]:
    """Every (class, field) pair of the package's dataclasses, and the pairs
    that code in the package reads while this test runs. A read counts only
    when the calling frame's file is in the package, which leaves out
    ``dataclasses.replace``, the generated ``__eq__`` and the tests."""
    package = os.path.dirname(spcgrowth.__file__) + os.sep
    modules = [
        importlib.import_module(f"spcgrowth.{info.name}")
        for info in pkgutil.iter_modules(spcgrowth.__path__)
    ]
    classes = {
        cls
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type) and is_dataclass(cls) and cls.__module__ == module.__name__
    }
    declared, reads = set(), set()
    for cls in classes:
        names = {f.name for f in fields(cls)}
        declared.update((cls.__name__, name) for name in names)

        def getattribute(self, name, cls=cls, names=names, get=cls.__getattribute__):
            if name in names and sys._getframe(1).f_code.co_filename.startswith(package):
                reads.add((cls.__name__, name))
            return get(self, name)

        monkeypatch.setattr(cls, "__getattribute__", getattribute)
    return declared, reads


def test_every_dataclass_field_is_read_by_the_package(tmp_path, monkeypatch, capsys):
    """Each field of each dataclass is read somewhere in the package while
    every subcommand runs, so a field that is only written fails here even
    when another class reads a field of the same name."""
    declared, reads = dataclass_field_reads(monkeypatch)
    # without fork the fit-stage files render in this process
    monkeypatch.delattr(os, "fork")
    assert main(["synth", "--regions", "12", "--noise", "0.05", "--seed", "7",
                 "--out", str(tmp_path)]) == 0
    panel = str(tmp_path / "synthetic.csv")
    runs = ["--input", panel, "--bootstrap", "20", "--validation", "5"]
    assert main(["report", *runs, "--out", str(tmp_path / "run")]) == 0
    for command in ("fit", "bootstrap", "continuity"):
        assert main([command, *runs]) == 0
    assert main(["check", *runs, panel]) == 0
    capsys.readouterr()
    assert sorted(f"{cls}.{name}" for cls, name in declared - reads) == []
