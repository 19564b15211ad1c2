"""Golden pins for the batch plane's labelled captures.

A small ``urban-smoke`` capture (8 devices on segments of 4, 2 s of the
training schedule) exercises the segmented topology, the benign batch
plane and the SYN/ACK flood trains end to end.  Its CSV export is pinned
byte for byte per seed, so any speed-up of the packet plane, the TCP
demultiplexer, the event kernel, the probe or the CSV writer must
reproduce every record exactly.  One seed is also pinned at the shape
the benchmark's ``urban-dataset`` workload captures: 16 devices, 5 s.
"""

import hashlib

import pytest

from repro.testbed import Testbed
from repro.testbed.catalog import get_scenario

CAPTURE_S = 2.0

#: sha256 of ``TrafficDataset.to_csv`` bytes per scenario seed.
CSV_DIGESTS = {
    7: "687de48a7cf4264fd191b332391a0b389c6da43b2ba08e3c8de309d11e09caff",
    11: "f7b3c9b707c974a1d40b8e0d6604efd4757466faabb672fe9e77e75fe955794a",
    1007: "9820c45d4cdb455d121708dee30a61f3ecc627a8b28ab1767d60f0190747d780",
}

#: The same digest for 16 devices and 5 s, the benchmark's capture shape.
BENCH_SHAPE_DIGESTS = {
    7: "92da4a7a3e0e0d05870d087f35bfb6b89adafed738e3be932aeab396277bb426",
}


def capture_digest(devices: int, capture_s: float, seed: int, tmp_path) -> str:
    scenario = get_scenario("urban-smoke", n_devices=devices, seed=seed)
    testbed = Testbed(scenario).build()
    testbed.infect_all()
    capture = testbed.capture(capture_s, scenario.training_schedule(capture_s))
    path = tmp_path / "capture.csv"
    capture.to_csv(path)
    summary = capture.summary()
    assert summary.by_attack.get("syn_flood", 0) > 0
    assert summary.by_attack.get("ack_flood", 0) > 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", sorted(CSV_DIGESTS))
def test_urban_smoke_csv_is_pinned(seed, tmp_path):
    assert capture_digest(8, CAPTURE_S, seed, tmp_path) == CSV_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(BENCH_SHAPE_DIGESTS))
def test_benchmark_shape_csv_is_pinned(seed, tmp_path):
    assert capture_digest(16, 5.0, seed, tmp_path) == BENCH_SHAPE_DIGESTS[seed]
