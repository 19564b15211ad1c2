"""Shared fixtures for the benchmark harness.

Every bench reads the paper's run from one place: a single session call
to :func:`run_experiment_pipeline` on the ``paper-baseline`` scenario,
the same call ``ddoshield experiment`` makes.  The training capture, the
trained models, the detection capture and the detection reports are
views of that one result, so the numbers a bench reports cannot depend
on which benches ran or in what order.  Each bench times its own piece
with ``pytest-benchmark`` and writes the regenerated table/figure rows to
``benchmarks/results/`` so the paper-vs-measured comparison survives the
run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.pipeline import PipelineResult, run_experiment_pipeline
from repro.testbed import ExperimentResult, Scenario
from repro.testbed.catalog import get_scenario

RESULTS_DIR = Path(__file__).parent / "results"

#: The standard scaled-down analogue of the paper's runs: the paper used
#: a 10-minute dataset run and a 5-minute detection run at hardware
#: packet rates; we keep the 2:1 ratio at simulator scale.
TRAIN_DURATION = 60.0
DETECT_DURATION = 30.0


def write_result(name: str, lines: list[str]) -> None:
    """Persist a bench's regenerated table so it outlives the run."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text("\n".join(lines) + "\n")
    # Also echo to stdout for interactive runs with -s.
    print("\n".join(lines))


@pytest.fixture(scope="session")
def scenario() -> Scenario:
    return get_scenario("paper-baseline")


@pytest.fixture(scope="session")
def paper_run(scenario) -> tuple[ExperimentResult, PipelineResult]:
    return run_experiment_pipeline(scenario, TRAIN_DURATION, DETECT_DURATION)


@pytest.fixture(scope="session")
def experiment(paper_run) -> ExperimentResult:
    return paper_run[0]


@pytest.fixture(scope="session")
def train_capture(paper_run):
    return paper_run[1].value("capture-train").dataset


@pytest.fixture(scope="session")
def detect_capture(paper_run):
    return paper_run[1].value("capture-detect").dataset


@pytest.fixture(scope="session")
def trained_models(experiment):
    return experiment.trained


@pytest.fixture(scope="session")
def detection_reports(experiment):
    return experiment.detection
