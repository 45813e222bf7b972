"""Self-test of the benchmark, with tiny replicate counts (under a minute).

    python3 perfbench/selftest.py

Run from the repository root. Checks that:

- an untraced and a traced run print every metric named in BENCHMARK.json,
  with its unit, as the last line of standard output, and pass;
- a reference file with the full-fit rate c moved by 1e-9 relative is
  reported as a failure (``correct`` false, ``failed`` > 0), not passed;
- a reference file with a wrong panel SHA-256 stops the run with a
  non-zero exit code and no result line;
- in a directory holding only BENCHMARK.json and perfbench/, the run exits
  non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK_DIR = ROOT / ".perfbench" / "selftest"
TINY = ["--workload", "paper", "--seed", "7", "--seconds", "1", "--replicates", "20,5"]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", *args], cwd=cwd, capture_output=True, text=True
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit code {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    expected = {m["name"]: m["unit"] for m in declared}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == expected, f"printed {printed}, declared {expected}"
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), (name, metric)


def corrupt(reference: dict, path: Path, edit) -> Path:
    copy = json.loads(json.dumps(reference))
    for entry in copy["workloads"]["paper"]:
        edit(entry)
    path.write_text(json.dumps(copy), encoding="utf-8")
    return path


def bump_fit(entry: dict) -> None:
    entry["full_fit"]["c"] *= 1 + 1e-9


def wrong_sha(entry: dict) -> None:
    entry["sha256"] = "0" * 64


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir(parents=True)

    check_metrics(result_of(bench(*TINY, "--trace", "0")), declared["end_to_end"])
    print("ok: untraced run prints every end_to_end metric with its unit")
    check_metrics(result_of(bench(*TINY, "--trace", "1")), declared["per_layer"])
    print("ok: traced run prints every per_layer metric with its unit")

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    bad_fit = corrupt(reference, WORK_DIR / "bad-fit.json", bump_fit)
    done = bench(*TINY, "--trace", "0", "--reference", str(bad_fit))
    result = result_of(done)
    assert not result["correct"] and result["failed"] > 0, result
    assert "full fit drifted: c=" in done.stdout, done.stdout
    print("ok: a corrupted reference fit is reported as a failure")

    bad_sha = corrupt(reference, WORK_DIR / "bad-sha.json", wrong_sha)
    done = bench(*TINY, "--trace", "0", "--reference", str(bad_sha))
    assert done.returncode != 0 and not done.stdout.strip(), done
    print("ok: a changed panel stops the run without a result")

    bare = WORK_DIR / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(*TINY, "--trace", "0", cwd=bare)
    assert done.returncode != 0 and not done.stdout.strip(), done
    print("ok: without the program the run exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
