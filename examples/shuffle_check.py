"""Bucket-shuffle equivalence check: the runtime event-order race detector.

The event kernel claims equal-``(time, priority)`` bucket mates commute;
``ddoshield check-parity`` (rule ORD002) reasons about that claim
statically, and the shuffle sanitizer tests it dynamically:
``REPRO_SHUFFLE=<seed>`` makes the kernel deterministically permute
every same-bucket drain, so any hidden order dependence changes
observable results.

This script

1. proves the detector is armed — a deliberately order-dependent toy
   workload *must* diverge under shuffling (a vacuous detector would be
   worse than none);
2. runs one small full experiment under several shuffle seeds and
   asserts the result fingerprint (dataset summaries + every per-model
   window verdict) is bit-identical throughout;
3. runs a small ``urban-smoke`` capture (segmented topology, batch
   flood and benign planes) under the same seeds and asserts the capture
   summary and the kernel's executed-event count never move.

    PYTHONPATH=src python examples/shuffle_check.py [seeds...]
"""

import sys

from repro.sim import Simulator
from repro.testbed import Scenario, Testbed, run_full_experiment
from repro.testbed.catalog import get_scenario

#: The batch-plane check: the catalog's urban-smoke recipe, 3 s of its
#: training schedule.
URBAN_CAPTURE_S = 3.0


def prove_detector_is_armed() -> None:
    """A last-writer-wins race must be visible under some shuffle seed."""

    def last_writer(shuffle_buckets):
        sim = Simulator(shuffle_buckets=shuffle_buckets)
        state = {"winner": None}
        for tag in range(8):
            sim.schedule(1.0, state.__setitem__, "winner", tag)
        sim.run()
        return state["winner"]

    unshuffled = last_writer(None)
    winners = {seed: last_writer(seed) for seed in range(1, 6)}
    assert set(winners.values()) != {unshuffled}, (
        "shuffle sanitizer is vacuous: an order-dependent workload was "
        "not perturbed by any seed"
    )
    print(f"self-test: order-dependent toy diverges under shuffle "
          f"(unshuffled winner={unshuffled}, shuffled={winners})")


def urban_capture(shuffle_buckets: int | None) -> tuple[str, int]:
    """Summary and executed-event count of one urban-smoke capture."""
    scenario = get_scenario("urban-smoke", seed=7)
    testbed = Testbed(scenario, shuffle_buckets=shuffle_buckets).build()
    testbed.infect_all()
    capture = testbed.capture(
        URBAN_CAPTURE_S, scenario.training_schedule(URBAN_CAPTURE_S)
    )
    return str(capture.summary()), testbed.sim.events_executed


def check_urban_smoke(seeds: list[int]) -> None:
    """The segmented batch plane must commute under every shuffle seed."""
    summary, events = urban_capture(None)
    print(f"\nurban-smoke unshuffled: {events} events\n{summary}")
    for seed in seeds:
        shuffled = urban_capture(seed)
        status = "OK" if shuffled == (summary, events) else "DIVERGED"
        print(f"urban-smoke shuffle seed {seed:>3}: {shuffled[1]} events {status}")
        assert shuffled == (summary, events), (
            f"shuffle seed {seed} changed the urban-smoke capture: "
            f"{shuffled} != {(summary, events)}"
        )


def main() -> None:
    seeds = [int(arg, 0) for arg in sys.argv[1:]] or [1, 2, 3]
    prove_detector_is_armed()

    scenario = Scenario(n_devices=3, seed=11)
    baseline = run_full_experiment(
        scenario, train_duration=20.0, detect_duration=10.0
    )
    reference = baseline.fingerprint()
    print(f"\nunshuffled fingerprint: {reference}")
    for name, accuracy in baseline.table1():
        print(f"  {name:<10} window accuracy {accuracy:6.2f}%")

    for seed in seeds:
        result = run_full_experiment(
            scenario,
            train_duration=20.0,
            detect_duration=10.0,
            shuffle_buckets=seed,
        )
        fingerprint = result.fingerprint()
        status = "OK" if fingerprint == reference else "DIVERGED"
        print(f"shuffle seed {seed:>3}: {fingerprint} {status}")
        assert fingerprint == reference, (
            f"shuffle seed {seed} changed observable results: "
            f"{fingerprint} != {reference} — a same-bucket event race "
            "(see ORD002 in `ddoshield check-parity`)"
        )
    check_urban_smoke(seeds)
    print(f"\nall {len(seeds)} shuffle seeds bit-identical to the "
          "unshuffled runs; same-bucket events commute")


if __name__ == "__main__":
    main()
