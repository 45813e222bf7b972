"""Benchmark workloads, their synthetic panels, and the stored reference.

Each workload draws its panels with the program's own generator
(``spcgrowth.dataset.generate_synthetic``, serialised with
``serialize_dataset``). The program only ever sees the CSV file.

A workload's panels come from a pool of generator seeds stored in
``reference.json``. The pool holds the first seeds, counting from 0, on
which ``report`` completes at the CLI defaults, with every region
retained and k = 3 plateau thresholds at least ``MIN_GAP`` apart. Small,
noisy panels can end with inverted k = 3 thresholds (exit code 3; the
first eight-region, sigma-0.25 one is generator seed 180). The program
reports that correctly, but a benchmark workload must not fail. The gap
keeps a small, legitimate change in the bootstrap from turning a pool
panel into such a failure.
Workload seed ``s`` takes pool entry ``s``, wrapping at the end of the
pool.

For every pool entry, ``reference.json`` also pins the panel's SHA-256
and the full-fit parameters (a, b, c, d). The SHA-256 means a change to
the generator or the serialiser cannot silently change a workload. Every
run must reproduce the parameters within ``REL_TOL`` relative. Rewrite
the file from the repository root with

    python3 perfbench/workloads.py

(optionally naming workloads) only when the workload definitions
themselves change. It takes several minutes.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
DEFAULT_SEED = 7
# The ROADMAP's bound on parameter drift for a change that keeps the method.
REL_TOL = 1e-12
MIN_GAP = 0.05
# Validated generator seeds kept per workload, one per workload seed: any
# ten consecutive seeds (a spread check) draw distinct panels; larger
# seeds wrap.
POOL = 10
PARAMS = ("a", "b", "c", "d")


@dataclass(frozen=True)
class Workload:
    name: str
    regions: int
    noise: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper", regions=30, noise=0.05),
        Workload("wide", regions=300, noise=0.05),
    )
}


def panel_entry(reference: dict, workload: Workload, seed: int) -> dict:
    """The pool entry (generator seed, SHA-256, full fit) for ``seed``."""
    pool = reference["workloads"][workload.name]
    return pool[seed % len(pool)]


def panel_bytes(workload: Workload, generator_seed: int) -> bytes:
    from spcgrowth.dataset import SyntheticSpec, generate_synthetic, serialize_dataset

    spec = SyntheticSpec(n_regions=workload.regions, noise_sigma=workload.noise)
    return serialize_dataset(generate_synthetic(spec, seed=generator_seed)).encode("utf-8")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def param_drift(fit: dict, expected: dict) -> list[str]:
    """Parameters of ``fit`` further than REL_TOL (relative) from ``expected``."""
    return [
        f"{k}={fit[k]!r} vs reference {expected[k]!r}"
        for k in PARAMS
        if not abs(fit[k] - expected[k]) <= REL_TOL * abs(expected[k])
    ]


def validate(workload: Workload, path: Path):
    """The full fit of ``report`` on the panel at ``path``, or the reason the
    panel cannot be in the pool."""
    from spcgrowth.errors import SpcGrowthError
    from spcgrowth.pipeline import PipelineConfig, run_pipeline

    try:
        bundle = run_pipeline(PipelineConfig(input_path=str(path)))
    except SpcGrowthError as exc:
        return None, f"{type(exc).__name__}: {exc}"
    if len(bundle.aligned.regions) != workload.regions:
        return None, f"{len(bundle.aligned.regions)} of {workload.regions} regions retained"
    k3 = bundle.timescale(3)
    if k3.th2 - k3.th1 < MIN_GAP:
        return None, f"k=3 thresholds {k3.th2 - k3.th1:.4f} apart"
    return bundle.full_fit.params, None


def build_pool(workload: Workload, work_dir: Path) -> list[dict]:
    pool = []
    generator_seed = 0
    while len(pool) < POOL:
        data = panel_bytes(workload, generator_seed)
        path = work_dir / f"{workload.name}.csv"
        path.write_bytes(data)
        params, reason = validate(workload, path)
        if params is None:
            print(f"{workload.name}: generator seed {generator_seed} left out: {reason}")
        else:
            pool.append(
                {
                    "generator_seed": generator_seed,
                    "sha256": sha256(data),
                    "full_fit": {k: getattr(params, k) for k in PARAMS},
                }
            )
        generator_seed += 1
    return pool


def dump_reference(reference: dict) -> str:
    """JSON with one pool entry per line."""
    lines = ["{"]
    lines.append(f' "rel_tol": {reference["rel_tol"]!r},')
    lines.append(f' "min_gap": {reference["min_gap"]!r},')
    lines.append(' "workloads": {')
    names = list(reference["workloads"])
    for n, name in enumerate(names):
        entries = [json.dumps(e) for e in reference["workloads"][name]]
        lines.append(f"  {json.dumps(name)}: [")
        lines.append(",\n".join("   " + e for e in entries))
        lines.append("  ]" + ("," if n < len(names) - 1 else ""))
    lines.append(" }")
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    work_dir = Path.cwd() / ".perfbench" / "reference-panels"
    work_dir.mkdir(parents=True, exist_ok=True)
    names = sys.argv[1:] or list(WORKLOADS)
    reference = (
        load_reference(REFERENCE_PATH)
        if REFERENCE_PATH.is_file()
        else {"rel_tol": REL_TOL, "min_gap": MIN_GAP, "workloads": {}}
    )
    for name in names:
        reference["workloads"][name] = build_pool(WORKLOADS[name], work_dir)
        REFERENCE_PATH.write_text(dump_reference(reference), encoding="utf-8")
        print(f"wrote {len(reference['workloads'][name])} {name} panels to {REFERENCE_PATH}")
