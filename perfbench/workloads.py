"""The benchmark's workloads: set-up, one timed repetition, and its checks.

Every workload runs closed-loop in the calling process (no threads, no
workers): each step starts when the previous one has returned.  Set-up
is whatever must exist before the timed part starts (the constructor).
A workload holds :data:`SCENARIOS` scenarios drawn from the run's seed;
``rep(i)`` runs the timed part once on scenario ``i`` and returns a
:class:`Rep`.  :meth:`check` turns a repetition's outputs into named
pass/fail checks; :meth:`identity` is what every repetition of one
scenario, traced or not, must reproduce exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.capture import TrafficDataset
from repro.pipeline import run_experiment_pipeline
from repro.testbed import Testbed
from repro.testbed.catalog import get_scenario

# Repetitions are kept to a few seconds each, so that a run holds several
# of each scenario and reports their median rather than one long one.

#: The paper run's pipeline (paper-baseline, 6 Devs) with 5 s captures
#: instead of the north star's 60 s / 30 s.
PAPER_TRAIN_S = 5.0
PAPER_DETECT_S = 5.0
#: urban-dataset: 16 devices in segments of 4, one 5 s labelled capture.
URBAN_DEVICES = 16
URBAN_CAPTURE_S = 5.0
#: Scenarios per run.  How many bots a seed's infection yields moves a
#: 6-device run's cost by a fifth, so one run times several seeds.
SCENARIOS = 3


def scenario_seeds(seed: int) -> list[int]:
    """The scenario seeds of the run with ``--seed seed``; the first is ``seed``."""
    return [seed + 1000 * i for i in range(SCENARIOS)]


@dataclass
class Rep:
    """One timed repetition: its scenario, wall time and what it produced."""

    scenario: int
    wall_s: float
    work: int  # records captured
    outputs: dict = field(default_factory=dict)


class Paper:
    """``run_experiment_pipeline`` on ``paper-baseline``, 5 s training, 5 s detection."""

    name = "paper"

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.scenarios = [get_scenario("paper-baseline", seed=s) for s in scenario_seeds(seed)]

    def rep(self, i: int) -> Rep:
        started = time.perf_counter()
        result, _ = run_experiment_pipeline(
            self.scenarios[i], train_duration=PAPER_TRAIN_S, detect_duration=PAPER_DETECT_S
        )
        wall_s = time.perf_counter() - started
        return Rep(
            i,
            wall_s,
            result.train_summary.total + result.detect_summary.total,
            {
                "fingerprint": result.fingerprint(),
                "table1": dict(result.table1()),
                "windows": {
                    r.model_name: [w.window_index for w in r.windows] for r in result.detection
                },
                "scored": {
                    r.model_name: sum(w.n_packets for w in r.windows) for r in result.detection
                },
                "detect_records": result.detect_summary.total,
                "classifier_errors": _classifier_errors(result.detection),
                "model_size_kb": {t.name: t.size_kb for t in result.trained},
            },
        )

    def identity(self, rep: Rep) -> str:
        return rep.outputs["fingerprint"]

    def check(self, rep: Rep) -> dict[str, bool]:
        # The report ends at the window of the last live record, so how
        # many of the windows the capture touches get a verdict depends on
        # the seed's traffic; that every live record is scored does not.
        windows = list(rep.outputs["windows"].values())
        first = windows[0]
        return {
            "consecutive windows, the same for every model": len(windows) == 3
            and 0 < len(first) <= int(PAPER_DETECT_S) + 1
            and first == list(range(first[0], first[0] + len(first)))
            and all(w == first for w in windows),
            "every live record scored once per model": all(
                n == rep.outputs["detect_records"] for n in rep.outputs["scored"].values()
            ),
            "no classifier errors": rep.outputs["classifier_errors"] == 0,
        }


class UrbanDataset:
    """The ``ddoshield dataset`` flow on the batch plane, 16 urban devices, 5 s."""

    name = "urban-dataset"

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.scenarios = [
            get_scenario("urban-smoke", n_devices=URBAN_DEVICES, seed=s)
            for s in scenario_seeds(seed)
        ]
        self.csv_paths = [work_dir / f"urban-dataset-{s}.csv" for s in scenario_seeds(seed)]

    def rep(self, i: int) -> Rep:
        scenario = self.scenarios[i]
        started = time.perf_counter()
        testbed = Testbed(scenario).build()
        testbed.infect_all()
        capture = testbed.capture(URBAN_CAPTURE_S, scenario.training_schedule(URBAN_CAPTURE_S))
        capture.to_csv(self.csv_paths[i])
        wall_s = time.perf_counter() - started
        return Rep(i, wall_s, len(capture), {"summary": capture.summary()})

    def check(self, rep: Rep) -> dict[str, bool]:
        csv_path = self.csv_paths[rep.scenario]
        read_back = TrafficDataset.from_csv(csv_path).summary()
        csv_path.unlink()
        return {"CSV read back has the capture's summary": read_back == rep.outputs["summary"]}

    def identity(self, rep: Rep) -> object:
        return rep.outputs["summary"]


WORKLOADS = {cls.name: cls for cls in (Paper, UrbanDataset)}


def _classifier_errors(reports: list) -> int:
    """Windows with packets scored degraded in a run that declared no faults.

    Such a window can only come from the IDS catching a classifier error
    (an empty window is an outage, also degraded, but has no packets).
    """
    return sum(
        w.status != "healthy" and w.n_packets > 0 for r in reports for w in r.windows
    )
