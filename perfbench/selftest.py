"""The benchmark's own test: every workload at a tiny size.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that each workload prints, as its last line, exactly the metrics
``BENCHMARK.json`` names with their units (end-to-end untraced, per-layer
traced); that two traced runs with one seed give identical ``clocks.*`` and
``detect.*`` counts; that runs leave no work directory behind; and that the
command fails without a result line where the repository's sources are
missing.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path.cwd()
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "ratio")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(done: subprocess.CompletedProcess) -> Dict[str, object]:
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    return result


def check_names(result: Dict[str, object], declared: List[Dict[str, object]]) -> None:
    metrics: Dict[str, Dict[str, object]] = result["metrics"]  # type: ignore[assignment]
    expected = {metric["name"]: metric["unit"] for metric in declared}
    printed = {name: metric["unit"] for name, metric in metrics.items()}
    assert printed == expected, sorted(set(printed.items()) ^ set(expected.items()))


def exact_counts(result: Dict[str, object]) -> Dict[str, object]:
    metrics: Dict[str, Dict[str, object]] = result["metrics"]  # type: ignore[assignment]
    return {
        name: metric["value"]
        for name, metric in metrics.items()
        if name.split(".")[0] in ("clocks", "detect") and metric["unit"] in COUNT_UNITS
    }


def check_bare_directory() -> None:
    """Without the repository's sources the command fails and prints no result."""
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = run(BENCHMARK["workloads"][0]["name"], 1, 0, cwd=bare)
        assert done.returncode != 0, "ran without src/"
        assert not done.stdout.strip(), done.stdout
    finally:
        shutil.rmtree(bare)
        try:
            bare.parent.rmdir()
        except OSError:
            pass


def main() -> int:
    for workload in (entry["name"] for entry in BENCHMARK["workloads"]):
        check_names(result_of(run(workload, 7, 0)), BENCHMARK["end_to_end"])
        first = result_of(run(workload, 7, 1))
        check_names(first, BENCHMARK["per_layer"])
        second = result_of(run(workload, 7, 1))
        assert exact_counts(first) == exact_counts(second), workload
        assert exact_counts(first), workload
        assert not (ROOT / ".perfbench_work").exists(), "work directory left behind"
        print(f"ok {workload}")
    check_bare_directory()
    print("ok bare directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
