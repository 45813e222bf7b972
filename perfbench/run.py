"""spcgrowth benchmark: ``report`` end to end on synthetic panels.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 7 --seconds 50 --trace 0

Workloads (see ``workloads.py``): ``paper`` (30 regions, sigma 0.05, the
paper's scale) and ``wide`` (300 regions, the same curve with 10x the
points).

One run, with ``--trace 0``:

1. writes the workload's panel under ``.perfbench/`` and checks its
   SHA-256 against ``reference.json``;
2. times ``import spcgrowth.cli`` in fresh children (``setup_s``), three
   times before the first report, once before every report and three
   times after the last;
3. runs ``python -m spcgrowth.cli report --input PANEL --out DIR`` as a
   child, one at a time, until ``--seconds`` is used (at least two runs),
   taking wall time, CPU time and peak RSS from ``os.wait4``. It reports
   the fastest run's wall and CPU time and the median peak RSS;
4. checks each child's outputs: exit code 0, the full file set, a
   ``report.json`` byte-identical across the runs and naming the panel's
   SHA-256, and full-fit parameters within 1e-12 relative of
   ``reference.json``.

With ``--trace 1`` each untraced child is followed by a traced in-process
run (``traced.py``); the result carries the per-layer metrics, the
tracing overhead and the refit convergence counts.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
same metrics for people, with the environment they were measured in.
Children run with the caller's environment minus ``SPCGROWTH_*`` settings
(so the CLI defaults apply) and with ``src`` on ``PYTHONPATH``; nothing
pins BLAS threads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from workloads import (
    DEFAULT_SEED,
    REFERENCE_PATH,
    WORKLOADS,
    load_reference,
    panel_bytes,
    panel_entry,
    param_drift,
    sha256,
)

HERE = Path(__file__).resolve().parent
MIN_RUNS = 2
# setup samples before the first report and after the last; one more
# precedes every report
SETUP_EDGE = 3
MB = 1024 * 1024
SETUP_SNIPPET = "import spcgrowth.cli, time; print(repr(time.monotonic()))"
FIXED_FILES = frozenset(
    {
        "report.txt",
        "report.json",
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
)

# name -> unit, in print order
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "dataset.parse_s": "s",
    "dataset.scale_s": "s",
    "dataset.rows": "count",
    "density.kde_s": "s",
    "density.threshold_s": "s",
    "density.kde_cells": "count",
    "density.kde_temp_mb": "MB",
    "density.rss_delta_mb": "MB",
    "align.shift_s": "s",
    "align.points": "count",
    "align.unique_times": "count",
    "align.retained": "count",
    "logistic.full_fit_s": "s",
    "logistic.full_fit_iters": "count",
    "inference.validation_s": "s",
    "inference.bootstrap_s": "s",
    "inference.timescales_s": "s",
    "inference.continuity_s": "s",
    "inference.fits": "count",
    "inference.lm_iters": "count",
    "inference.points_fitted": "count",
    "inference.unconverged": "count",
    "inference.dropped": "count",
    "inference.iters_per_fit": "iters/fit",
    "inference.ms_per_fit": "ms",
    "inference.us_per_lm_iter": "us",
    "report.render_s": "s",
    "report.plot_data_s": "s",
    "charts.render_s": "s",
    "report.write_s": "s",
    "report.files": "count",
    "report.bytes": "bytes",
    "pipeline.self_s": "s",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
    "unconverged_frac": "ratio",
    "fail_frac": "ratio",
}
# span-name prefix -> per-layer self-time metric; every span maps to one
SELF_TIME = {
    "dataset.parse": "dataset.parse_s",
    "dataset.scale": "dataset.scale_s",
    "density.kde": "density.kde_s",
    "density.threshold": "density.threshold_s",
    "align.shift": "align.shift_s",
    "logistic.full_fit": "logistic.full_fit_s",
    "inference.validation": "inference.validation_s",
    "inference.bootstrap": "inference.bootstrap_s",
    "inference.timescales": "inference.timescales_s",
    "inference.continuity": "inference.continuity_s",
    "report.render": "report.render_s",
    "report.plot_data": "report.plot_data_s",
    "charts.render": "charts.render_s",
    "report.write": "report.write_s",
    "pipeline": "pipeline.self_s",
}
# counts that must repeat exactly across traced runs
EXACT_COUNTS = (
    "inference.fits",
    "inference.lm_iters",
    "inference.unconverged",
    "inference.dropped",
    "align.points",
    "align.unique_times",
    "report.files",
)


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Panel:
    generator_seed: int
    path: Path
    sha256: str
    reference_fit: dict
    out_dir: Path
    report_json: bytes | None = None
    traces: list[dict] = field(default_factory=list)


@dataclass
class Child:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


class Tally:
    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.problems)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.problems.append(f"{label}: " + "; ".join(problems))


def child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPCGROWTH_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str], env: dict, log: Path) -> Child:
    with open(log, "wb") as handle:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=handle, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss * 1024 / MB,
    )


def measure_setup(env: dict) -> float:
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET], env=env, capture_output=True, text=True
    )
    if done.returncode != 0:
        raise SetupError(f"import spcgrowth.cli failed:\n{done.stderr}")
    return float(done.stdout) - start


def check_outputs(panel: Panel, out_dir: Path) -> list[str]:
    """Problems with one run's output directory."""
    files = {
        p.relative_to(out_dir).as_posix(): p for p in out_dir.rglob("*") if p.is_file()
    }
    problems = []
    missing = sorted(FIXED_FILES - files.keys())
    if missing:
        problems.append("missing " + ", ".join(missing))
    if "report.json" not in files:
        return problems
    data = files["report.json"].read_bytes()
    report = json.loads(data)
    series = [n for n in files if n.startswith("series/") and n.endswith(".csv")]
    if len(series) != report["alignment"]["n_retained"]:
        problems.append(
            f"{len(series)} series CSVs for {report['alignment']['n_retained']} retained regions"
        )
    extra = sorted(set(files) - FIXED_FILES - set(series))
    if extra:
        problems.append("unexpected " + ", ".join(extra))
    empty = sorted(n for n, p in files.items() if p.stat().st_size == 0)
    if empty:
        problems.append("empty " + ", ".join(empty))
    if report["provenance"]["input_sha256"] != panel.sha256:
        problems.append("report.json names another input")
    drift = param_drift(report["fit"], panel.reference_fit)
    if drift:
        problems.append("full fit drifted: " + ", ".join(drift))
    if panel.report_json is None:
        panel.report_json = data
    elif data != panel.report_json:
        problems.append("report.json differs from the first run's")
    return problems


def prepare_panel(workload, seed: int, root: Path, reference: dict) -> Panel:
    entry = panel_entry(reference, workload, seed)
    data = panel_bytes(workload, entry["generator_seed"])
    digest = sha256(data)
    if digest != entry["sha256"]:
        raise SetupError(
            f"{workload.name} panel (generator seed {entry['generator_seed']}) has "
            f"sha256 {digest}, reference.json pins {entry['sha256']}: the workload changed"
        )
    path = root / "panel.csv"
    path.write_bytes(data)
    return Panel(
        generator_seed=entry["generator_seed"],
        path=path,
        sha256=digest,
        reference_fit=entry["full_fit"],
        out_dir=root / "out",
    )


def report_cmd(panel: Panel, out_dir: Path, replicates: list[str]) -> list[str]:
    return ["report", "--input", str(panel.path), "--out", str(out_dir), *replicates]


def run_untraced(panel: Panel, env, replicates, tally: Tally, children: list[Child]) -> None:
    shutil.rmtree(panel.out_dir, ignore_errors=True)
    cmd = [sys.executable, "-m", "spcgrowth.cli", *report_cmd(panel, panel.out_dir, replicates)]
    child = spawn(cmd, env, panel.out_dir.with_suffix(".log"))
    problems = [] if child.exit_code == 0 else [f"exit code {child.exit_code}"]
    if child.exit_code == 0:
        problems += check_outputs(panel, panel.out_dir)
    tally.record(f"report run {len(children) + 1}", problems)
    children.append(child)


def run_traced(panel: Panel, env, replicates, tally: Tally) -> None:
    out_dir = panel.out_dir.with_name(panel.out_dir.name + "-traced")
    shutil.rmtree(out_dir, ignore_errors=True)
    spans_path = out_dir.with_name(f"trace-{len(panel.traces)}.json")
    cmd = [sys.executable, str(HERE / "traced.py"), str(spans_path), "--",
           *report_cmd(panel, out_dir, replicates)]
    child = spawn(cmd, env, out_dir.with_suffix(".log"))
    problems = [] if child.exit_code == 0 else [f"exit code {child.exit_code}"]
    if child.exit_code == 0:
        problems += check_outputs(panel, out_dir)
        trace = layer_metrics(json.loads(spans_path.read_text(encoding="utf-8")), out_dir)
        if panel.traces:
            changed = [k for k in EXACT_COUNTS if trace[k] != panel.traces[0][k]]
            if changed:
                problems.append("counts changed between traced runs: " + ", ".join(changed))
        panel.traces.append(trace)
    tally.record(f"traced run {len(panel.traces) + 1}", problems)


def layer_metrics(record: dict, out_dir: Path) -> dict:
    """Per-layer metrics of one traced run: self times, counts and ratios."""
    spans = record["spans"]
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    metrics = {name: 0.0 for name in SELF_TIME.values()}
    fits = {"attempted": 0, "seconds": 0.0, "lm_iters": 0, "points": 0, "unconverged": 0,
            "raised": 0}
    for s in spans:
        layer = s["name"] if s["name"] in SELF_TIME else s["name"].split(".")[0]
        metrics[SELF_TIME[layer]] += s["end"] - s["start"] - child_time[s["id"]]
        for key in fits:
            fits[key] += s.get("fits", {}).get(key, 0)
    root = next(s for s in spans if s["parent"] is None)
    kde = next(s for s in spans if s["name"] == "density.kde")
    counts = record["counts"]
    files = [p for p in out_dir.rglob("*") if p.is_file()]
    n = max(fits["attempted"], 1)
    metrics.update(
        {
            "dataset.rows": counts["rows"],
            "density.kde_cells": counts["kde_cells"],
            "density.kde_temp_mb": counts["kde_temp_bytes"] / MB,
            "density.rss_delta_mb": (kde["maxrss_kb_after"] - kde["maxrss_kb_before"]) * 1024 / MB,
            "align.points": counts["points"],
            "align.unique_times": counts["unique_times"],
            "align.retained": counts["retained"],
            "logistic.full_fit_iters": counts["full_fit_iters"],
            "inference.fits": fits["attempted"],
            "inference.lm_iters": fits["lm_iters"],
            "inference.points_fitted": fits["points"],
            "inference.unconverged": fits["unconverged"],
            "inference.dropped": counts["dropped"],
            "inference.iters_per_fit": fits["lm_iters"] / n,
            "inference.ms_per_fit": fits["seconds"] / n * 1e3,
            "inference.us_per_lm_iter": fits["seconds"] / max(fits["lm_iters"], 1) * 1e6,
            "report.files": len(files),
            "report.bytes": sum(p.stat().st_size for p in files),
            "trace.total_s": root["end"] - root["start"],
            # a refit that raised has no convergence flag, so each counts once
            "unconverged_frac": (fits["unconverged"] + fits["raised"]) / n,
        }
    )
    return metrics


def environment(root: Path) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads_env": {
            k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "commit": commit_sha(root),
    }


def commit_sha(root: Path) -> str:
    """HEAD of the checkout. The ceiling keeps git from searching above it."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def predictions(workload: str, layer: dict, peak_rss_mb: float) -> list[str]:
    """The README's predictions about this workload, each marked holds or FAILS."""
    lines = []
    if workload == "paper":
        shares = {k: v for k, v in layer.items() if k in SELF_TIME.values()}
        top = max(shares, key=shares.get)
        lines.append(
            f"inference.bootstrap_s is the largest self time: {'holds' if top == 'inference.bootstrap_s' else 'FAILS'} (largest: {top})"
        )
    if workload == "wide":
        share = layer["density.rss_delta_mb"] / peak_rss_mb
        lines.append(
            f"density.rss_delta_mb sets most of peak_rss_mb: {'holds' if share > 0.5 else 'FAILS'} ({share:.0%})"
        )
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=REFERENCE_PATH,
                        help="reference file (the self-test passes a corrupted copy)")
    parser.add_argument("--replicates", metavar="BOOTSTRAP,VALIDATION",
                        help="replicate counts passed to report; the default is the CLI's "
                        "(the self-test uses tiny counts)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "spcgrowth" / "cli.py").is_file():
        print("perfbench: no src/spcgrowth here; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    replicates = []
    if args.replicates:
        bootstrap, validation = args.replicates.split(",")
        replicates = ["--bootstrap", bootstrap, "--validation", validation]

    workload = WORKLOADS[args.workload]
    run_dir = root / ".perfbench" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env(src)
    tally = Tally()
    children: list[Child] = []
    try:
        panel = prepare_panel(workload, args.seed, run_dir, load_reference(args.reference))
        measure_setup(env)  # warm-up: compiles bytecode in a fresh checkout
        setup = [measure_setup(env) for _ in range(SETUP_EDGE)]
        deadline = time.monotonic() + args.seconds
        while True:
            start = time.monotonic()
            setup.append(measure_setup(env))
            run_untraced(panel, env, replicates, tally, children)
            if args.trace:
                run_traced(panel, env, replicates, tally)
                if len(panel.traces) == 1:  # a second run checks the exact counts
                    run_traced(panel, env, replicates, tally)
            now = time.monotonic()
            if (len(children) >= MIN_RUNS or args.trace) and now + (now - start) / 2 > deadline:
                break
        setup += [measure_setup(env) for _ in range(SETUP_EDGE)]
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    setup_s = statistics.median(setup)
    walls = [c.wall_s for c in children]
    e2e = {
        # Other tenants of a shared machine slow every run they overlap,
        # for seconds to minutes at a time; the fastest run is the one
        # they disturbed least.
        "wall_s": min(walls),
        "cpu_s": min(c.cpu_s for c in children),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in children),
        "setup_s": setup_s,
    }
    fail_frac = tally.failed / tally.attempted
    layer = {}
    if args.trace and panel.traces:
        layer = {name: statistics.median(t[name] for t in panel.traces) for name in PER_LAYER
                 if name not in ("trace.overhead_s", "fail_frac")}
        layer["trace.overhead_s"] = layer["trace.total_s"] - (statistics.median(walls) - setup_s)
        layer["fail_frac"] = fail_frac
    correct = tally.failed == 0 and (not args.trace or bool(layer))

    env_info = environment(root)
    print(f"# perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# environment: " + json.dumps(env_info, sort_keys=True))
    print(f"# panel: generator seed {panel.generator_seed}")
    print(f"# {len(children)} report runs; wall_s and cpu_s are the fastest run's, "
          f"peak_rss_mb the median; setup_s is the median of {len(setup)} runs")
    for name, unit in END_TO_END.items():
        print(f"{name:28s} {e2e[name]:12.6g} {unit}")
    print(f"{'fail_frac':28s} {fail_frac:12.6g} ratio ({tally.failed}/{tally.attempted} runs)")
    print(f"# wall time of the median run {statistics.median(walls):.6g} s, "
          f"of the slowest {max(walls):.6g} s")
    if layer:
        layer_sum = sum(layer[name] for name in SELF_TIME.values())
        print(f"# layer self times sum to {layer_sum:.6g} s of trace.total_s "
              f"{layer['trace.total_s']:.6g} s; with setup_s, {layer_sum + setup_s:.6g} s")
        print(f"# per layer: median of {len(panel.traces)} traced runs")
        for name, unit in PER_LAYER.items():
            if name != "fail_frac":
                print(f"{name:28s} {layer[name]:12.6g} {unit}")
        for line in predictions(workload.name, layer, e2e["peak_rss_mb"]):
            print("# prediction: " + line)
    for problem in tally.problems:
        print("# FAILED " + problem)

    units = PER_LAYER if args.trace else END_TO_END
    values = layer if args.trace else e2e
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values},
    }
    (run_dir / "result.json").write_text(
        json.dumps({**result, "environment": env_info, "end_to_end": e2e,
                    "setup_samples": setup, "children": [asdict(c) for c in children]}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
