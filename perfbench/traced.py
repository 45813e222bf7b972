"""One traced ``report`` run, in process.

    python3 perfbench/traced.py SPANS_JSON -- report --input PANEL --out DIR

Runs ``spcgrowth.cli.main`` on the arguments after ``--`` with the stage
functions that ``spcgrowth.cli``, ``spcgrowth.pipeline``, ``spcgrowth.report``
and ``spcgrowth.charts`` look up at call time rebound, in this process only,
to timing wrappers. Each wrapper records a span (name, start, end, parent,
and the process's peak RSS before and after). ``fit_logistic`` as called
from ``spcgrowth.inference`` is counted rather than spanned: calls, time,
LM iterations, points, unconverged results and fits that raised (the refits
the stage then drops) accumulate on the enclosing span, so the per-fit
cost is measured where the fits run without 1,100 spans. The spans stay
in memory and are written to SPANS_JSON at the end, together with counts
read from the returned bundle.

Nothing under ``src/`` is changed; the program sees the same arguments as
the untraced child.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time

import numpy as np

# (module, attribute) -> span name. The span name's prefix is the layer.
SPANNED = {
    ("spcgrowth.cli", "run_pipeline"): "pipeline.run_pipeline",
    ("spcgrowth.pipeline", "run_fit_stage"): "pipeline.run_fit_stage",
    ("spcgrowth.pipeline", "add_validation"): "pipeline.add_validation",
    ("spcgrowth.pipeline", "add_bootstrap"): "pipeline.add_bootstrap",
    ("spcgrowth.pipeline", "add_continuity"): "pipeline.add_continuity",
    ("spcgrowth.pipeline", "load_dataset"): "dataset.parse",
    ("spcgrowth.pipeline", "minmax_scale"): "dataset.scale",
    ("spcgrowth.pipeline", "gaussian_kde"): "density.kde",
    ("spcgrowth.pipeline", "find_bimodal_threshold"): "density.threshold",
    ("spcgrowth.pipeline", "shift_to_reltime"): "align.shift",
    ("spcgrowth.pipeline", "fit_logistic"): "logistic.full_fit",
    ("spcgrowth.pipeline", "out_of_sample_validation"): "inference.validation",
    ("spcgrowth.pipeline", "bootstrap_fits"): "inference.bootstrap",
    ("spcgrowth.pipeline", "plateau_thresholds"): "inference.timescales",
    ("spcgrowth.pipeline", "characteristic_timescale"): "inference.timescales",
    ("spcgrowth.pipeline", "empirical_durations"): "inference.timescales",
    ("spcgrowth.pipeline", "continuity_comparison"): "inference.continuity",
    ("spcgrowth.report", "write_outputs"): "report.write",
    ("spcgrowth.report", "render_report_text"): "report.render",
    ("spcgrowth.report", "render_report_json"): "report.render",
    ("spcgrowth.report", "plot_data_files"): "report.plot_data",
    ("spcgrowth.charts", "chart_files"): "charts.render",
}
COUNTED = ("spcgrowth.inference", "fit_logistic")
ROOT = "pipeline.run_pipeline"


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self.root_result = None

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = {
                "name": name,
                "parent": self._open[-1]["id"] if self._open else None,
                "id": len(self.spans),
                "maxrss_kb_before": _maxrss_kb(),
            }
            self.spans.append(record)
            self._open.append(record)
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                record["maxrss_kb_after"] = _maxrss_kb()
                self._open.pop()
            if name == ROOT:
                self.root_result = result
            return result

        return traced

    def count_fits(self, fn):
        @functools.wraps(fn)
        def counted(t, y, *args, **kwargs):
            fits = self._open[-1].setdefault(
                "fits",
                {"attempted": 0, "seconds": 0.0, "lm_iters": 0, "points": 0,
                 "unconverged": 0, "raised": 0},
            )
            fits["attempted"] += 1
            fits["points"] += int(np.size(t))
            start = time.perf_counter()
            try:
                result = fn(t, y, *args, **kwargs)
            except Exception:
                fits["raised"] += 1
                raise
            finally:
                fits["seconds"] += time.perf_counter() - start
            fits["lm_iters"] += result.iterations
            fits["unconverged"] += not result.converged
            return result

        return counted

    def install(self) -> None:
        for (module_name, attr), name in SPANNED.items():
            module = sys.modules[module_name]
            setattr(module, attr, self.span(name, getattr(module, attr)))
        module = sys.modules[COUNTED[0]]
        setattr(module, COUNTED[1], self.count_fits(getattr(module, COUNTED[1])))


def bundle_counts(bundle) -> dict:
    t, _ = bundle.aligned.pooled()
    density = bundle.density
    return {
        "rows": bundle.dataset.n_points(),
        "points": int(t.size),
        "unique_times": int(np.unique(t).size),
        "retained": len(bundle.aligned.regions),
        "kde_cells": int(density.grid.size) * int(density.n_samples),
        # one dense grid x samples float64 temporary, computed, not measured
        "kde_temp_bytes": int(density.grid.size) * int(density.n_samples) * 8,
        "full_fit_iters": bundle.full_fit.iterations,
        # refits the stages dropped, whether the fit raised or its score did
        "dropped": bundle.validation.n_failed + bundle.ensemble.failed_fits,
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    import spcgrowth.charts  # noqa: F401  (imported lazily by report; bind it now)
    import spcgrowth.cli

    tracer = Tracer()
    tracer.install()
    code = spcgrowth.cli.main(cli_args)
    record = {"exit": code, "spans": tracer.spans}
    if code == 0:
        record["counts"] = bundle_counts(tracer.root_result)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
