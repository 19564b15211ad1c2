"""Labelled traffic datasets.

A :class:`TrafficDataset` wraps an ordered list of
:class:`~repro.sim.tracing.PacketRecord` rows with the operations the
evaluation needs: class balance summaries (the paper's §IV-D dataset
composition), chronological and stratified splits, per-attack breakdowns,
and CSV round-trips for offline analysis.
"""

from __future__ import annotations

import csv
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.features.columnar import RecordBatch
from repro.sim.tracing import PacketRecord

#: CSV columns: exactly the :class:`PacketRecord` fields, in order, so a
#: record is written as it stands (``csv`` writes floats by ``repr`` and
#: ``None`` as an empty field).
_CSV_FIELDS = PacketRecord._fields


@dataclass(frozen=True)
class DatasetSummary:
    """Class-balance summary (the paper's dataset-composition numbers)."""

    total: int
    malicious: int
    benign: int
    by_attack: dict[str, int]
    duration: float

    @property
    def malicious_fraction(self) -> float:
        return self.malicious / self.total if self.total else 0.0

    def __str__(self) -> str:
        lines = [
            f"packets: {self.total} over {self.duration:.1f}s",
            f"  malicious: {self.malicious} ({100 * self.malicious_fraction:.1f}%)",
            f"  benign:    {self.benign} ({100 * (1 - self.malicious_fraction):.1f}%)",
        ]
        for attack, count in sorted(self.by_attack.items()):
            lines.append(f"    {attack}: {count}")
        return "\n".join(lines)


class TrafficDataset:
    """An ordered, labelled packet capture."""

    def __init__(self, records: Sequence[PacketRecord]) -> None:
        self.records = list(records)
        self._batch: RecordBatch | None = None

    def to_batch(self) -> RecordBatch:
        """The capture as a columnar :class:`RecordBatch` (cached).

        This is what the feature pipeline consumes; building it once per
        capture amortises the row→column conversion across every model's
        extraction pass.
        """
        if self._batch is None or len(self._batch) != len(self.records):
            self._batch = RecordBatch.from_records(self.records)
        return self._batch

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[PacketRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> PacketRecord:
        return self.records[index]

    @property
    def labels(self) -> list[int]:
        return [r.label for r in self.records]

    @property
    def duration(self) -> float:
        if not self.records:
            return 0.0
        return self.records[-1].timestamp - self.records[0].timestamp

    def summary(self) -> DatasetSummary:
        """Compute the class-balance summary."""
        malicious = sum(r.label for r in self.records)
        by_attack = Counter(r.attack for r in self.records if r.label == 1)
        return DatasetSummary(
            total=len(self.records),
            malicious=malicious,
            benign=len(self.records) - malicious,
            by_attack=dict(by_attack),
            duration=self.duration,
        )

    # ------------------------------------------------------------------
    # Splits

    def chronological_split(self, train_fraction: float = 0.7) -> tuple["TrafficDataset", "TrafficDataset"]:
        """Split by capture time: train on the past, test on the future."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
        cut = int(len(self.records) * train_fraction)
        return TrafficDataset(self.records[:cut]), TrafficDataset(self.records[cut:])

    def stratified_split(
        self, train_fraction: float = 0.7, seed: int = 0
    ) -> tuple["TrafficDataset", "TrafficDataset"]:
        """Random split preserving the malicious/benign ratio."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
        rng = random.Random(seed)
        train: list[PacketRecord] = []
        test: list[PacketRecord] = []
        for label in (0, 1):
            group = [r for r in self.records if r.label == label]
            rng.shuffle(group)
            cut = int(len(group) * train_fraction)
            train.extend(group[:cut])
            test.extend(group[cut:])
        train.sort(key=lambda r: r.timestamp)
        test.sort(key=lambda r: r.timestamp)
        return TrafficDataset(train), TrafficDataset(test)

    def filter(self, predicate) -> "TrafficDataset":
        """A new dataset with only records where ``predicate(record)``."""
        return TrafficDataset([r for r in self.records if predicate(r)])

    def time_slice(self, start: float, end: float) -> "TrafficDataset":
        """Records with ``start <= timestamp < end``."""
        return TrafficDataset(
            [r for r in self.records if start <= r.timestamp < end]
        )

    # ------------------------------------------------------------------
    # Persistence

    def to_csv(self, path: str | Path) -> None:
        """Write the capture as CSV (one row per packet)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_FIELDS)
            writer.writerows(self.records)

    @classmethod
    def from_csv(cls, path: str | Path) -> "TrafficDataset":
        """Read a capture previously written by :meth:`to_csv`."""
        records = []
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                records.append(
                    PacketRecord(
                        timestamp=float(row["timestamp"]),
                        src_ip=int(row["src_ip"]),
                        dst_ip=int(row["dst_ip"]),
                        protocol=int(row["protocol"]),
                        src_port=int(row["src_port"]),
                        dst_port=int(row["dst_port"]),
                        size=int(row["size"]),
                        tcp_flags=int(row["tcp_flags"]),
                        seq=int(row["seq"]),
                        label=int(row["label"]),
                        attack=row["attack"] or None,
                    )
                )
        return cls(records)

    def save(self, path: str | Path) -> Path:
        """Persist the capture as a pipeline artifact (lossless CSV).

        This is the canonical on-disk format for capture-stage artifacts:
        timestamps are written via ``repr`` so the float round-trips
        bit-exactly and a reloaded capture produces byte-identical
        feature matrices.  Returns the written path.
        """
        path = Path(path)
        self.to_csv(path)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "TrafficDataset":
        """Reload a capture written by :meth:`save`."""
        return cls.from_csv(path)

    @classmethod
    def merge(cls, datasets: Iterable["TrafficDataset"]) -> "TrafficDataset":
        """Concatenate captures and re-sort chronologically."""
        records: list[PacketRecord] = []
        for dataset in datasets:
            records.extend(dataset.records)
        records.sort(key=lambda r: r.timestamp)
        return cls(records)
