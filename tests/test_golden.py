"""The bytes of one small ``report`` tree, and of every command's stdout,
pinned.

``tests/golden/`` holds the 6-region panel that CI's console-script step
draws (``spcgrowth synth --regions 6 --noise 0.05 --seed 5``), the
``report.json`` of its ``report --bootstrap 20 --validation 5`` tree, and
``manifest.json``: the numpy version the tree was made with and the
SHA-256 of every file of the tree. It also holds the stdout of ``fit``,
``bootstrap`` and ``continuity`` with the same options (``fit.txt``,
``bootstrap.txt``, ``continuity.txt``), and of ``check`` against
``heldout.csv``, a 2-region held-out panel with one region that anchors and
one that never crosses the threshold (``check.txt``); ``manifest.json``
records their SHA-256 under ``stdout_sha256``.

The test runs each command in a child process with numpy's SIMD
dispatch held to its baseline (``NPY_DISABLE_CPU_FEATURES`` set to numpy's
own ``__cpu_dispatch__`` list) and OpenBLAS held to one kernel
(``OPENBLAS_CORETYPE=Haswell``). Unpinned, ``curves.csv`` and ``kde.csv``
take the last bits of whatever the host's CPU dispatches to; pinned, two
runs give the same bytes. Both settings act on the child alone.

With the recorded numpy version, on x86-64, with OpenBLAS, every file's
and every stdout's bytes must match. Elsewhere the byte check is skipped,
naming why, and the leaves of ``report.json`` and of each stdout's
``path = value`` lines must match within ``REL_TOL`` relative, the bound
the project allows for drift; other OpenBLAS kernels move them by at most
6.7e-16 on an x86-64 host with numpy 2.4.6.

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
from helpers import build_dataset, child_env, json_leaves, make_region, text_leaves

GOLDEN = Path(__file__).resolve().parent / "golden"
REPORT_ARGS = ["--bootstrap", "20", "--validation", "5"]
REL_TOL = 1e-12
HELD_OUT = GOLDEN / "heldout.csv"
# command -> its arguments after ``--input PANEL`` and ``REPORT_ARGS``; its
# stdout is pinned in ``<command>.txt``
STDOUT_RUNS = {"fit": [], "bootstrap": [], "continuity": [], "check": [str(HELD_OUT)]}


def cpu_dispatch() -> list[str]:
    """The CPU features numpy dispatches to above its baseline."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return list(__cpu_dispatch__)


def pinned_run(command: str, panel: Path, *args: str) -> bytes:
    """The stdout of ``command --input panel`` with ``REPORT_ARGS`` and
    ``args``, run in a child process with the SIMD dispatch and the BLAS
    kernel pinned and no ``SPCGROWTH_*`` setting of this environment."""
    env = {k: v for k, v in child_env().items() if not k.startswith("SPCGROWTH_")}
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(cpu_dispatch())
    env["OPENBLAS_CORETYPE"] = "Haswell"
    proc = subprocess.run(
        [sys.executable, "-m", "spcgrowth.cli", command, "--input", str(panel),
         *REPORT_ARGS, *args],
        capture_output=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def pinned_report(panel: Path, out: Path) -> None:
    """``report`` on ``panel`` into ``out``, pinned as ``pinned_run``."""
    pinned_run("report", panel, "--out", str(out))


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


def close(got: str | None, want: str | None) -> bool:
    try:
        return math.isclose(float(got), float(want), rel_tol=REL_TOL)
    except (TypeError, ValueError):  # absent or not a number: it must match exactly
        return False


def moved(got: dict[str, str], want: dict[str, str]) -> dict:
    """The leaves, path -> value text, that differ between ``got`` and
    ``want`` by more than ``REL_TOL`` relative, as ``path -> (got, want)``;
    a leaf that is not a number, or is on one side only, must match exactly."""
    return {
        path: (got.get(path), want.get(path))
        for path in sorted(got.keys() | want.keys())
        if got.get(path) != want.get(path) and not close(got.get(path), want.get(path))
    }


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def pinned_tree(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("golden") / "out"
    pinned_report(GOLDEN / "panel.csv", out)
    return out


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_the_golden_case_agrees_with_itself(manifest):
    panel_digest = digest((GOLDEN / "panel.csv").read_bytes())
    golden_json = (GOLDEN / "report.json").read_bytes()
    assert json.loads(golden_json)["provenance"]["input_sha256"] == panel_digest
    assert digest(golden_json) == manifest["sha256"]["report.json"]
    stdout = {command: (GOLDEN / f"{command}.txt").read_bytes() for command in STDOUT_RUNS}
    assert {command: digest(text) for command, text in stdout.items()} == manifest["stdout_sha256"]
    # the held-out panel covers both of check's branches
    check = text_leaves(stdout["check"].decode())
    assert (check["check.n_series"], check["check.n_anchored"]) == ("2", "1")
    assert {check[f"check.series.{i}.anchored"] for i in (0, 1)} == {"true", "false"}
    unanchored = next(i for i in (0, 1) if check[f"check.series.{i}.anchored"] == "false")
    assert check[f"check.series.{unanchored}.anchor_year"] == "null"
    assert check[f"check.series.{unanchored}.rmse"] == "NaN"


def test_report_json_leaves_match_the_golden_case(pinned_tree):
    got = json_leaves(json.loads((pinned_tree / "report.json").read_text(encoding="utf-8")))
    want = json_leaves(json.loads((GOLDEN / "report.json").read_text(encoding="utf-8")))
    assert got.keys() == want.keys()
    assert moved(got, want) == {}


def test_every_file_matches_the_golden_bytes(pinned_tree, manifest):
    reason = byte_check_skipped(manifest["numpy"])
    if reason is not None:
        pytest.skip(f"byte check skipped: {reason}")
    assert file_digests(pinned_tree) == manifest["sha256"]


@pytest.mark.parametrize("command", list(STDOUT_RUNS))
def test_every_command_prints_the_golden_stdout(command, manifest):
    got = pinned_run(command, GOLDEN / "panel.csv", *STDOUT_RUNS[command])
    if byte_check_skipped(manifest["numpy"]) is None:
        assert digest(got) == manifest["stdout_sha256"][command]
    else:
        want = (GOLDEN / f"{command}.txt").read_text(encoding="utf-8")
        assert moved(text_leaves(got.decode()), text_leaves(want)) == {}


def test_another_numpy_skips_the_byte_check_and_says_why():
    assert byte_check_skipped("1.0.0") == (
        f"numpy {np.__version__}; the golden bytes were made with 1.0.0"
    )


def test_the_leaf_comparison_allows_drift_within_rel_tol_and_no_more():
    want = {"fit.a": repr(0.7123), "fit.converged": "true", "anchors.0.nga": "SYN-00"}

    def with_leaf(path, value):
        return {**want, path: value}

    assert moved(dict(want), want) == {}
    assert moved(with_leaf("fit.a", repr(0.7123 * (1 + 1e-13))), want) == {}
    drifted = repr(0.7123 * (1 + 1e-11))
    assert moved(with_leaf("fit.a", drifted), want) == {"fit.a": (drifted, repr(0.7123))}
    assert moved(with_leaf("anchors.0.nga", "SYN-01"), want) == {
        "anchors.0.nga": ("SYN-01", "SYN-00")
    }
    assert moved(with_leaf("fit.converged", "false"), want) == {
        "fit.converged": ("false", "true")
    }
    assert moved({**want, "fit.b": "0.1"}, want) == {"fit.b": ("0.1", None)}


def held_out_panel() -> str:
    """Two regions for ``check``: one drawn as the panel's are (seed 11),
    which anchors, and one that hovers below the threshold."""
    from spcgrowth.dataset import SyntheticSpec, generate_synthetic, serialize_dataset

    (drawn,) = generate_synthetic(SyntheticSpec(n_regions=1), seed=11).regions
    rising = make_region("HELD-RISING", list(drawn.raw), start=int(drawn.abs_times[0]))
    flat = make_region("HELD-FLAT", [0.30, 0.31, 0.29, 0.30, 0.32, 0.31])
    return serialize_dataset(build_dataset([rising, flat]))


def regenerate() -> None:
    """Rewrite ``tests/golden/`` from ``spcgrowth synth`` and pinned runs of
    ``report`` and of every command in ``STDOUT_RUNS``, with the numpy of
    this interpreter."""
    import tempfile

    from spcgrowth.cli import main

    GOLDEN.mkdir(exist_ok=True)
    assert main(["synth", "--regions", "6", "--noise", "0.05", "--seed", "5",
                 "--out", str(GOLDEN)]) == 0
    os.replace(GOLDEN / "synthetic.csv", GOLDEN / "panel.csv")
    HELD_OUT.write_text(held_out_panel(), encoding="utf-8")
    stdout = {}
    for command, args in STDOUT_RUNS.items():
        text = pinned_run(command, GOLDEN / "panel.csv", *args)
        (GOLDEN / f"{command}.txt").write_bytes(text)
        stdout[command] = digest(text)
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "out"
        pinned_report(GOLDEN / "panel.csv", out)
        (GOLDEN / "report.json").write_bytes((out / "report.json").read_bytes())
        manifest = {"numpy": np.__version__, "sha256": file_digests(out), "stdout_sha256": stdout}
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    (GOLDEN / "manifest.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
