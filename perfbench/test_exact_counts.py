"""The traced run's exact counts repeat for a fixed seed and move with it.

Later performance claims lean on these counts (kernel events, captured
records, random-forest nodes, IDS windows): a count that drifts between
two runs of one seed cannot back a claim, and one that ignores the seed
cannot be re-checked on a seed the change was not written against.

Run from the repository root (each workload runs three times, about half
a minute in all)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

from pathlib import Path

import pytest
from tracer import Tracer, instrumented
from workloads import WORKLOADS

EXACT = ("sim.events", "capture.records", "ml.rf_nodes", "ids.windows")
#: IDS windows per workload: none on urban-dataset.  On paper the report
#: ends at the last live record's window, so the count moves with the
#: seed, up to the 6 windows a 5 s capture touches, for each of 3 models.
WINDOWS = {"urban-dataset": range(0, 1), "paper": range(3, 3 * 6 + 1)}


def exact_counts(name: str, seed: int, work_dir: Path) -> dict[str, int]:
    """Set up and run one traced repetition; return its exact counts."""
    tracer = Tracer()
    with instrumented(tracer):
        WORKLOADS[name](seed, work_dir).rep(0)
    return {key: tracer.counts[key] for key in EXACT}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_counts_repeat_per_seed_and_move_with_it(name: str, tmp_path: Path) -> None:
    first = exact_counts(name, 7, tmp_path)
    again = exact_counts(name, 7, tmp_path)
    other = exact_counts(name, 11, tmp_path)

    assert again == first
    assert first["sim.events"] > 0 and first["capture.records"] > 0
    assert other["sim.events"] != first["sim.events"]
    assert other["capture.records"] != first["capture.records"]
    if name != "urban-dataset":
        assert first["ml.rf_nodes"] > 0
        assert other["ml.rf_nodes"] != first["ml.rf_nodes"]
    assert first["ids.windows"] in WINDOWS[name] and other["ids.windows"] in WINDOWS[name]
