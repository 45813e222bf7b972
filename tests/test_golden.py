"""The bytes of one small ``report`` tree, pinned.

``tests/golden/`` holds the 6-region panel that CI's console-script step
draws (``spcgrowth synth --regions 6 --noise 0.05 --seed 5``), the
``report.json`` of its ``report --bootstrap 20 --validation 5`` tree, and
``manifest.json``: the numpy version the tree was made with and the
SHA-256 of every file of the tree.

The test runs that ``report`` in a child process with numpy's SIMD
dispatch held to its baseline (``NPY_DISABLE_CPU_FEATURES`` set to numpy's
own ``__cpu_dispatch__`` list) and OpenBLAS held to one kernel
(``OPENBLAS_CORETYPE=Haswell``). Unpinned, ``curves.csv`` and ``kde.csv``
take the last bits of whatever the host's CPU dispatches to; pinned, two
runs give the same bytes. Both settings act on the child alone.

With the recorded numpy version, on x86-64, with OpenBLAS, every file's
bytes must match. Elsewhere the byte check is skipped, naming why, and
``report.json``'s leaves must match within ``REL_TOL`` relative, the
bound the project allows for drift; other OpenBLAS kernels move them by
at most 6.7e-16 here.

Regenerating the golden case is a contract change: run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root,
and state in CHANGES.md which leaves moved.
"""

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import child_env, json_leaves

GOLDEN = Path(__file__).resolve().parent / "golden"
REPORT_ARGS = ["--bootstrap", "20", "--validation", "5"]
REL_TOL = 1e-12


def cpu_dispatch() -> list[str]:
    """The CPU features numpy dispatches to above its baseline."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return list(__cpu_dispatch__)


def pinned_report(panel: Path, out: Path) -> None:
    """``report`` on ``panel`` into ``out`` in a child process, with the
    SIMD dispatch and the BLAS kernel pinned and no ``SPCGROWTH_*``
    setting of this environment."""
    env = {k: v for k, v in child_env().items() if not k.startswith("SPCGROWTH_")}
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(cpu_dispatch())
    env["OPENBLAS_CORETYPE"] = "Haswell"
    proc = subprocess.run(
        [sys.executable, "-m", "spcgrowth.cli", "report", "--input", str(panel),
         "--out", str(out), *REPORT_ARGS],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


def file_digests(root: Path) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def byte_check_skipped(recorded_numpy: str) -> str | None:
    """Why this host cannot reproduce the golden bytes, or None."""
    if np.__version__ != recorded_numpy:
        return f"numpy {np.__version__}; the golden bytes were made with {recorded_numpy}"
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"{platform.machine()} is not x86-64"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas.lower():
        return f"numpy's BLAS is {blas}, not OpenBLAS"
    return None


def close(got: str, want: str) -> bool:
    try:
        return math.isclose(float(got), float(want), rel_tol=REL_TOL)
    except ValueError:  # not a number: it must match exactly
        return False


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def pinned_tree(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("golden") / "out"
    pinned_report(GOLDEN / "panel.csv", out)
    return out


def test_the_golden_case_agrees_with_itself(manifest):
    panel_digest = hashlib.sha256((GOLDEN / "panel.csv").read_bytes()).hexdigest()
    golden_json = (GOLDEN / "report.json").read_bytes()
    assert json.loads(golden_json)["provenance"]["input_sha256"] == panel_digest
    assert hashlib.sha256(golden_json).hexdigest() == manifest["sha256"]["report.json"]


def test_report_json_leaves_match_the_golden_case(pinned_tree):
    got = json_leaves(json.loads((pinned_tree / "report.json").read_text(encoding="utf-8")))
    want = json_leaves(json.loads((GOLDEN / "report.json").read_text(encoding="utf-8")))
    assert got.keys() == want.keys()
    moved = {k: (got[k], want[k]) for k in want if got[k] != want[k] and not close(got[k], want[k])}
    assert moved == {}


def test_every_file_matches_the_golden_bytes(pinned_tree, manifest):
    reason = byte_check_skipped(manifest["numpy"])
    if reason is not None:
        pytest.skip(f"byte check skipped: {reason}")
    assert file_digests(pinned_tree) == manifest["sha256"]


def regenerate() -> None:
    """Rewrite ``tests/golden/`` from ``spcgrowth synth`` and a pinned
    ``report`` run with the numpy of this interpreter."""
    import tempfile

    from spcgrowth.cli import main

    GOLDEN.mkdir(exist_ok=True)
    assert main(["synth", "--regions", "6", "--noise", "0.05", "--seed", "5",
                 "--out", str(GOLDEN)]) == 0
    os.replace(GOLDEN / "synthetic.csv", GOLDEN / "panel.csv")
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "out"
        pinned_report(GOLDEN / "panel.csv", out)
        (GOLDEN / "report.json").write_bytes((out / "report.json").read_bytes())
        manifest = {"numpy": np.__version__, "sha256": file_digests(out)}
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    (GOLDEN / "manifest.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
