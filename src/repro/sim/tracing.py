"""Traffic capture: in-memory packet records and libpcap-format files.

The IDS container in the paper sniffs the simulated network and feeds the
capture to its feature pipeline.  Here a :class:`PacketProbe` registered
on a channel produces :class:`PacketRecord` rows — the flat per-packet
facts the feature extractor consumes — and can simultaneously stream the
raw frames to a :class:`PcapWriter`, which emits genuine libpcap files
readable by Wireshark/tcpdump (DDoSim's external-analysis workflow).
"""

from __future__ import annotations

import struct
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from repro.sim.packet import PROTO_TCP, PROTO_UDP, Packet, PacketBatch, TcpFlags

PCAP_MAGIC = 0xA1B2C3D2  # nanosecond-resolution variant
PCAP_LINKTYPE_ETHERNET = 1


class PacketRecord(NamedTuple):
    """One captured packet, flattened for feature extraction.

    ``label`` is ground truth taken from packet provenance (which process
    emitted it) — never from anything the wire carries — and is used only
    for training labels and accuracy scoring.

    A named tuple rather than a dataclass: captures materialise millions
    of rows per run, and tuple construction is the difference between
    the probe dominating a batched run's profile and disappearing from
    it.  Field access, keyword construction, and equality are unchanged.
    """

    timestamp: float
    src_ip: int
    dst_ip: int
    protocol: int
    src_port: int
    dst_port: int
    size: int
    tcp_flags: int
    seq: int
    label: int  # 1 = malicious, 0 = benign
    attack: str | None = None

    @classmethod
    def from_packet(cls, packet: Packet, timestamp: float) -> "PacketRecord":
        if packet.ip is None:
            raise ValueError("cannot record a packet without an IPv4 header")
        src_port = dst_port = 0
        tcp_flags = seq = 0
        if packet.tcp is not None:
            src_port = packet.tcp.src_port
            dst_port = packet.tcp.dst_port
            tcp_flags = int(packet.tcp.flags)
            seq = packet.tcp.seq
        elif packet.udp is not None:
            src_port = packet.udp.src_port
            dst_port = packet.udp.dst_port
        return cls(
            timestamp=timestamp,
            src_ip=packet.ip.src.value,
            dst_ip=packet.ip.dst.value,
            protocol=packet.ip.protocol,
            src_port=src_port,
            dst_port=dst_port,
            size=packet.size,
            tcp_flags=tcp_flags,
            seq=seq,
            label=1 if packet.provenance.malicious else 0,
            attack=packet.provenance.attack,
        )

    @property
    def is_tcp(self) -> bool:
        return self.protocol == PROTO_TCP

    @property
    def is_udp(self) -> bool:
        return self.protocol == PROTO_UDP

    @property
    def is_syn(self) -> bool:
        return bool(self.tcp_flags & TcpFlags.SYN) and not bool(
            self.tcp_flags & TcpFlags.ACK
        )

    @property
    def is_ack(self) -> bool:
        return bool(self.tcp_flags & TcpFlags.ACK)

    @property
    def is_fin(self) -> bool:
        return bool(self.tcp_flags & TcpFlags.FIN)

    @property
    def flow_key(self) -> tuple[int, int, int, int, int]:
        """The connection 5-tuple this packet belongs to."""
        return (self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.protocol)


class PacketProbe:
    """Promiscuous channel tap collecting :class:`PacketRecord` rows.

    Optional ``sink`` callbacks receive each record as it is captured —
    this is how the real-time IDS subscribes to live traffic.

    Train captures are **deferred**: with no live sink, ``observe_batch``
    keeps references to the train's columns (delivery instants, addresses,
    ports, payload lengths, ``seq``) and its shared protocol, flags,
    label and attack, and the rows are built when :attr:`records` is
    read or :attr:`HOLD_TRAINS` trains are held: one concatenate and one
    ``tolist`` per column over every held train.  The batch itself is
    not kept (its payload tuples would be), and the columns are never
    written in place after a train is built, so holding them is safe.
    Row order is exactly scalar-equivalent: a scalar capture, or a train
    observed while a sink listens, builds the held trains' rows first.
    Sinks and the pcap writer are served as each frame or train arrives.
    """

    #: Held trains are turned into rows once this many wait.  A 2-3 row
    #: train's column arrays take more memory than its rows, and freeing
    #: thousands of them at once fragments the heap: unbounded, the
    #: ``urban-dataset`` benchmark's peak RSS rose 0.7 MB.
    HOLD_TRAINS = 256

    def __init__(
        self,
        pcap: "PcapWriter | None" = None,
        keep_records: bool = True,
    ) -> None:
        self._records: list[PacketRecord] = []
        self._pending: list[tuple] = []
        self.pcap = pcap
        self.keep_records = keep_records
        self.sinks: list[Callable[[PacketRecord], None]] = []
        self.count = 0

    @property
    def records(self) -> list[PacketRecord]:
        """Captured rows, building any held trains' rows first."""
        if self._pending:
            self._flush_pending()
        return self._records

    @staticmethod
    def _rows(trains: list[tuple]) -> list[PacketRecord]:
        """The rows of held trains (see :meth:`_hold`), in order, built
        with one concatenate and one ``tolist`` per column."""
        (times, srcs, dsts, sports, dports, payload_lens, seqs, headers,
         protocols, flags, labels, attacks) = zip(*trains)
        lengths = [len(t) for t in times]

        def flat(columns: tuple) -> list:
            return np.concatenate(columns).tolist()

        def per_train(values: tuple) -> list:
            return np.repeat(values, lengths).tolist()

        sizes = np.concatenate(payload_lens) + np.repeat(headers, lengths)
        seq_columns = [
            np.zeros(k, dtype=np.int64) if seq is None else seq
            for seq, k in zip(seqs, lengths)
        ]
        attack_column = np.repeat(np.array(attacks, dtype=object), lengths)
        return list(
            map(
                tuple.__new__,
                repeat(PacketRecord),
                zip(
                    list(chain.from_iterable(times)),
                    flat(srcs),
                    flat(dsts),
                    per_train(protocols),
                    flat(sports),
                    flat(dports),
                    sizes.tolist(),
                    per_train(flags),
                    flat(seq_columns),
                    per_train(labels),
                    attack_column.tolist(),
                ),
            )
        )

    @staticmethod
    def _hold(batch: PacketBatch, times: list[float]) -> tuple:
        """What a train's rows are built from; columns by reference.

        ``times`` is a list of Python floats, one per row.
        """
        tcp = batch.protocol == PROTO_TCP
        return (
            times,
            batch.src_ip,
            batch.dst_ip,
            batch.src_port,
            batch.dst_port,
            batch.payload_len,
            batch.seq if tcp else None,
            batch.header_size,
            batch.protocol,
            int(batch.flags) if tcp else 0,
            1 if batch.provenance.malicious else 0,
            batch.provenance.attack,
        )

    def _flush_pending(self) -> None:
        pending, self._pending = self._pending, []
        self._records.extend(self._rows(pending))

    def __call__(self, packet: Packet, timestamp: float) -> None:
        if packet.ip is None:
            return
        record = PacketRecord.from_packet(packet, timestamp)
        self.count += 1
        if self.keep_records:
            if self._pending:
                self._flush_pending()
            self._records.append(record)
        if self.pcap is not None:
            self.pcap.write(packet, timestamp)
        for sink in self.sinks:
            sink(record)

    def observe_batch(self, batch: PacketBatch, times: list[float]) -> None:
        """Record a delivered train using its exact per-frame instants.

        Produces the same :class:`PacketRecord` rows, in the same order,
        as ``n`` scalar calls would, from the batch's columns without
        materialising packets (unless a pcap writer needs the wire
        bytes).  With no live sink the rows wait until :attr:`records`
        is read.  ``times`` is the channel's list of delivery instants.
        """
        n = len(batch)
        if n == 0:
            return
        self.count += n
        if self.keep_records or self.sinks:
            held = self._hold(batch, times)
            if self.sinks:
                records = self._rows([held])
                if self.keep_records:
                    if self._pending:
                        self._flush_pending()
                    self._records.extend(records)
                for sink in self.sinks:
                    for record in records:
                        sink(record)
            else:
                self._pending.append(held)
                if len(self._pending) >= self.HOLD_TRAINS:
                    self._flush_pending()
        if self.pcap is not None:
            for i in range(n):
                self.pcap.write(batch.packet(i), times[i])

    def subscribe(self, sink: Callable[[PacketRecord], None]) -> None:
        self.sinks.append(sink)

    def clear(self) -> None:
        self._records.clear()
        self._pending.clear()


class PcapWriter:
    """Writes frames to a libpcap file (nanosecond timestamps, Ethernet).

    Designed to survive an experiment dying mid-capture: each record
    (header + frame bytes) is written in one ``write()`` call so a crash
    cannot leave a record header without its data, :meth:`flush` pushes
    buffered records to the OS so readers see everything captured so
    far, and :meth:`close` is idempotent.  Use as a context manager —
    the file is flushed and closed even when the body raises.
    """

    def __init__(self, path: str | Path, snaplen: int = 65535) -> None:
        self.path = Path(path)
        self.snaplen = snaplen
        self._fh = open(self.path, "wb")
        self._fh.write(
            struct.pack(
                "<IHHiIII",
                PCAP_MAGIC,
                2,
                4,
                0,
                0,
                snaplen,
                PCAP_LINKTYPE_ETHERNET,
            )
        )
        self.packets_written = 0

    @property
    def closed(self) -> bool:
        return self._fh.closed

    def write(self, packet: Packet, timestamp: float) -> None:
        if self._fh.closed:
            raise ValueError(f"write() on closed pcap {self.path}")
        data = packet.to_bytes()[: self.snaplen]
        seconds = int(timestamp)
        nanos = int(round((timestamp - seconds) * 1e9))
        record = (
            struct.pack("<IIII", seconds, nanos, len(data), packet.size) + data
        )
        self._fh.write(record)
        self.packets_written += 1

    def flush(self) -> None:
        """Push buffered records to the OS (a readable capture prefix)."""
        if not self._fh.closed:
            self._fh.flush()

    def close(self) -> None:
        """Flush and close (idempotent)."""
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class PcapReader:
    """Reads frames back from a libpcap file written by :class:`PcapWriter`."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def __iter__(self) -> Iterator[tuple[float, Packet]]:
        with open(self.path, "rb") as fh:
            header = fh.read(24)
            if len(header) < 24:
                raise ValueError(f"{self.path} is not a pcap file")
            (magic,) = struct.unpack("<I", header[:4])
            if magic not in (PCAP_MAGIC, 0xA1B2C3D4):
                raise ValueError(f"{self.path}: unknown pcap magic {magic:#x}")
            nanos_resolution = magic == PCAP_MAGIC
            while True:
                record_header = fh.read(16)
                if len(record_header) < 16:
                    return
                seconds, frac, caplen, _origlen = struct.unpack("<IIII", record_header)
                data = fh.read(caplen)
                if len(data) < caplen:
                    # Truncated trailing record (writer died mid-flush):
                    # every complete record before it is still valid.
                    return
                scale = 1e-9 if nanos_resolution else 1e-6
                yield seconds + frac * scale, Packet.from_bytes(data)
