"""Deferred train capture in :class:`PacketProbe` yields the eager rows.

With no live sink, the probe keeps a delivered train's columns and only
builds :class:`PacketRecord` rows when :attr:`PacketProbe.records` is
read.  The oracle here builds every row the moment a frame or train is
observed, column by column, which is how the probe captured trains
before rows were deferred.  Any interleaving of scalar frames, TCP
trains (with and without a ``seq`` column), UDP trains, mid-stream
reads, a sink subscribed mid-capture and ``clear()`` must give equal
rows, of equal Python types, in equal order.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sim.address import MacAddress
from repro.sim.packet import (
    BENIGN,
    PROTO_TCP,
    Packet,
    PacketBatch,
    Provenance,
    TcpFlags,
)
from repro.sim.tracing import PacketProbe, PacketRecord

MAC_A = MacAddress(1)
MAC_B = MacAddress(2)
PROVENANCES = (
    BENIGN,
    Provenance(origin="bot", malicious=True, attack="syn_flood"),
    Provenance(origin="bot", malicious=True, attack="udp_flood"),
)
FLAGS = (TcpFlags(0), TcpFlags.SYN, TcpFlags.ACK, TcpFlags.SYN | TcpFlags.ACK)


class EagerProbe:
    """Oracle: every row is built as its frame or train is observed."""

    def __init__(self, keep_records: bool) -> None:
        self.records: list[PacketRecord] = []
        self.keep_records = keep_records
        self.sinks: list = []
        self.count = 0

    def __call__(self, packet: Packet, timestamp: float) -> None:
        if packet.ip is None:
            return
        record = PacketRecord.from_packet(packet, timestamp)
        self.count += 1
        if self.keep_records:
            self.records.append(record)
        for sink in self.sinks:
            sink(record)

    def observe_batch(self, batch: PacketBatch, times: list[float]) -> None:
        n = len(batch)
        if n == 0:
            return
        self.count += n
        tcp = batch.protocol == PROTO_TCP
        flags = int(batch.flags) if tcp else 0
        seqs = batch.seq.tolist() if (tcp and batch.seq is not None) else [0] * n
        label = 1 if batch.provenance.malicious else 0
        records = [
            PacketRecord(
                ts, src, dst, batch.protocol, sport, dport, size, flags, seq,
                label, batch.provenance.attack,
            )
            for ts, src, dst, sport, dport, size, seq in zip(
                times,
                batch.src_ip.tolist(),
                batch.dst_ip.tolist(),
                batch.src_port.tolist(),
                batch.dst_port.tolist(),
                batch.sizes.tolist(),
                seqs,
            )
        ]
        if self.keep_records:
            self.records.extend(records)
        for sink in self.sinks:
            for record in records:
                sink(record)

    def subscribe(self, sink) -> None:
        self.sinks.append(sink)

    def clear(self) -> None:
        self.records.clear()


@st.composite
def trains(draw) -> PacketBatch:
    n = draw(st.integers(0, 4))
    ints = st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n)
    ports = st.lists(st.integers(0, 65535), min_size=n, max_size=n)
    common = dict(
        src_ip=np.array(draw(ints), dtype=np.int64),
        dst_ip=np.array(draw(ints), dtype=np.int64),
        src_port=np.array(draw(ports), dtype=np.int64),
        dst_port=np.array(draw(ports), dtype=np.int64),
        payload_len=np.array(draw(ports), dtype=np.int64),
        provenance=draw(st.sampled_from(PROVENANCES)),
    )
    kind = draw(st.sampled_from(("tcp", "tcp-no-seq", "udp")))
    if kind == "udp":
        batch = PacketBatch.udp_batch(n, **common)
    elif kind == "tcp":
        batch = PacketBatch.tcp_batch(
            n, seq=np.array(draw(ints), dtype=np.int64),
            flags=draw(st.sampled_from(FLAGS)), **common,
        )
    else:
        batch = PacketBatch(
            protocol=PROTO_TCP, seq=None, ack=None,
            flags=draw(st.sampled_from(FLAGS)), **common,
        )
    if draw(st.booleans()):
        batch = batch.with_macs(MAC_A, MAC_B)
    return batch


def delivery_times(n: int):
    """Sorted instants, a list as the channel hands them on."""
    return st.lists(
        st.floats(0.0, 1e4, allow_nan=False), min_size=n, max_size=n
    ).map(sorted)


@st.composite
def operations(draw) -> list[tuple]:
    ops = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(
            st.sampled_from(("train", "train", "train", "scalar", "no-ip",
                             "read", "subscribe", "clear"))
        )
        if kind == "train":
            batch = draw(trains())
            ops.append(("train", batch, draw(delivery_times(len(batch)))))
        elif kind == "scalar":
            batch = draw(trains().filter(len))
            row = draw(st.integers(0, len(batch) - 1))
            timestamp = draw(st.floats(0.0, 1e4, allow_nan=False))
            ops.append(("scalar", batch.packet(row), timestamp))
        elif kind == "no-ip":
            ops.append(("scalar", Packet(ip=None), 1.0))
        else:
            ops.append((kind,))
    return ops


def assert_same_rows(got: list, want: list) -> None:
    assert got == want
    for row in got:
        assert type(row) is PacketRecord
        assert type(row.timestamp) is float
        assert all(type(v) is int for v in row[1:10])
        assert row.attack is None or type(row.attack) is str


@settings(max_examples=200, deadline=None)
@given(ops=operations(), keep_records=st.booleans())
def test_deferred_probe_matches_eager_rows(ops, keep_records):
    probe = PacketProbe(keep_records=keep_records)
    oracle = EagerProbe(keep_records=keep_records)
    got_sink: list = []
    want_sink: list = []
    for op in ops:
        if op[0] == "train":
            probe.observe_batch(op[1], op[2])
            oracle.observe_batch(op[1], op[2])
        elif op[0] == "scalar":
            probe(op[1], op[2])
            oracle(op[1], op[2])
        elif op[0] == "read":
            assert_same_rows(list(probe.records), oracle.records)
        elif op[0] == "subscribe":
            probe.subscribe(got_sink.append)
            oracle.subscribe(want_sink.append)
        else:
            probe.clear()
            oracle.clear()
    assert_same_rows(list(probe.records), oracle.records)
    assert_same_rows(got_sink, want_sink)
    assert probe.count == oracle.count


def test_records_list_is_kept_across_reads_and_clear():
    probe = PacketProbe()
    batch = PacketBatch.udp_batch(2, src_ip=1, dst_ip=2, src_port=3, dst_port=4)
    records = probe.records
    probe.observe_batch(batch, [0.5, 0.75])
    assert probe.records is records and len(records) == 2
    probe.clear()
    probe.observe_batch(batch, [1.0, 1.25])
    assert probe.records is records
    assert [r.timestamp for r in records] == [1.0, 1.25]


def test_trains_past_the_hold_bound_match_eager_rows():
    """More trains than ``HOLD_TRAINS`` between reads, UDP and TCP mixed."""
    rng = np.random.default_rng(3)
    probe = PacketProbe()
    oracle = EagerProbe(keep_records=True)
    for i in range(3 * PacketProbe.HOLD_TRAINS + 5):
        n = int(rng.integers(1, 4))
        columns = dict(
            src_ip=rng.integers(0, 2**32, n), dst_ip=rng.integers(0, 2**32, n),
            src_port=rng.integers(0, 65536, n), dst_port=rng.integers(0, 65536, n),
            provenance=PROVENANCES[i % len(PROVENANCES)],
        )
        if i % 2:
            batch = PacketBatch.udp_batch(n, **columns)
        else:
            batch = PacketBatch.tcp_batch(n, seq=rng.integers(0, 2**32, n), **columns)
        times = sorted(rng.random(n).tolist())
        probe.observe_batch(batch, times)
        oracle.observe_batch(batch, times)
        if i == PacketProbe.HOLD_TRAINS + 7:
            assert_same_rows(list(probe.records), oracle.records)
    assert_same_rows(list(probe.records), oracle.records)
