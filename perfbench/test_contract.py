"""BENCHMARK.json and the metrics the runner prints name the same things.

Fast checks, run with ``python3 -m pytest perfbench -q`` from the root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from workloads import WORKLOADS, Rep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_the_runners_workloads_and_metrics() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    printed = run.end_to_end([Rep(scenario=0, wall_s=2.0, work=10)], setup_s=1.0)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: m["unit"] for name, m in printed.items()
    }
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_wall_s_is_the_mean_of_each_scenarios_median_repetition() -> None:
    reps = [
        Rep(scenario=0, wall_s=3.0, work=10),
        Rep(scenario=1, wall_s=5.0, work=10),
        Rep(scenario=0, wall_s=2.0, work=10),
        Rep(scenario=1, wall_s=9.0, work=10),
        Rep(scenario=0, wall_s=8.0, work=10),
    ]
    assert run.end_to_end(reps, setup_s=1.0)["wall_s"]["value"] == 5.0


def test_setup_s_has_the_largest_bound() -> None:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_fails_without_the_program_source(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "7",
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
