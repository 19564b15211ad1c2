"""Span tracer that instruments the program's layer boundaries from outside.

The benchmark edits no program code: :func:`instrumented` replaces the
public callables at each layer boundary with timing wrappers for the
duration of a ``with`` block and restores the originals on exit.  Every
call opens a span (name, start, end, parent); a span's *self time* is its
duration minus the time its child spans cover, so the self times of all
spans add up to the time covered by the outermost ones.

Spans are kept in memory and written out once the run ends.  Calls made
once per record (``WindowAggregator.add``) are aggregated but not stored
one by one, which would cost more memory than the run itself.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Model class name -> the model name the paper's tables use.
MODEL_NAMES = {
    "RandomForestClassifier": "RF",
    "KMeansDetector": "K-Means",
    "CnnClassifier": "CNN",
}


class Tracer:
    """In-memory spans plus per-name self and total time, calls and exact counts."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        # Open spans: [span id, name, start, time covered by children].
        self._stack: list[list] = []
        self._next_id = 0

    def enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, keep: bool = True) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed out of order")
        span_id, name, start, children = frame
        duration = end - start
        self.self_s[name] += duration - children
        self.total_s[name] += duration
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if keep:
            self.spans.append((name, start, end, parent[0] if parent else -1))

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def _wrap(
    tracer: Tracer,
    func: Callable,
    name: str | Callable[[tuple], str],
    before: Callable[[tuple], Any] | None = None,
    after: Callable[[tuple, Any, Any], None] | None = None,
    keep: bool = True,
) -> Callable:
    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        state = before(args) if before is not None else None
        frame = tracer.enter(name(args) if callable(name) else name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.exit(frame, keep)
        if after is not None:
            after(args, result, state)
        return result

    return wrapper


def wrapper_cost_s(calls: int = 200_000) -> float:
    """Seconds a span wrapper adds to one call, timed on a no-op.

    Times the wrapped and the bare no-op ``calls`` times each and takes the
    difference.  Multiplied by a run's wrapped calls, it estimates the
    tracing overhead without the run-to-run noise that comparing two
    whole runs carries.
    """

    def noop() -> None:
        pass

    wrapped = _wrap(Tracer(), noop, "noop", keep=False)
    started = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, (time.perf_counter() - started - bare) / calls)


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer boundary's public callables while the block runs."""
    from repro.capture import TrafficDataset
    from repro.features.columnar import RecordBatch
    from repro.features.pipeline import FeatureExtractor
    from repro.features.window import WindowAggregator
    from repro.ids.engine import RealTimeIds
    from repro.ml import CnnClassifier, KMeansDetector, RandomForestClassifier
    from repro.pipeline import stages
    from repro.testbed.builder import Testbed

    counts = tracer.counts

    def before_capture(args: tuple) -> tuple[int, float]:
        sim = args[0].sim
        return sim.events_executed, sim.now

    def after_capture(args: tuple, dataset: Any, state: tuple[int, float]) -> None:
        sim = args[0].sim
        counts["sim.events"] += sim.events_executed - state[0]
        counts["sim.simulated_s"] += sim.now - state[1]
        counts["capture.records"] += len(dataset)
        counts["capture.malicious"] += sum(r.label for r in dataset.records)

    def after_infect(args: tuple, result: Any, state: Any) -> None:
        counts["botnet.bots"] += args[0].bot_count

    def after_rf_fit(args: tuple, result: Any, state: Any) -> None:
        counts["ml.rf_nodes"] += args[0].total_nodes_

    def before_replay(args: tuple) -> list[float]:
        ids = args[0]
        stamps = [time.perf_counter()]
        ids.add_window_listener(lambda *_: stamps.append(time.perf_counter()))
        return stamps

    def after_replay(args: tuple, report: Any, stamps: list[float]) -> None:
        ids = args[0]
        counts["ids.windows"] += report.n_windows
        counts["ids.classifier_errors"] += ids.classifier_errors
        counts["ids.records_dropped_late"] += ids.records_dropped_late
        counts[f"ids.cpu_pct.{ids.model_name}"] += report.sustainability.cpu_percent
        tracer.samples["ids.window_s"].extend(
            later - earlier for earlier, later in zip(stamps, stamps[1:])
        )

    def model_name(args: tuple) -> str:
        return MODEL_NAMES[type(args[0]).__name__]

    plan: list[tuple[type, str, dict]] = [
        (Testbed, "build", {"name": "testbed.build_s"}),
        (Testbed, "infect_all", {"name": "botnet.infect_s", "after": after_infect}),
        (
            Testbed,
            "capture",
            {"name": "sim.capture_s", "before": before_capture, "after": after_capture},
        ),
        (TrafficDataset, "to_batch", {"name": "capture.to_batch_s"}),
        (TrafficDataset, "to_csv", {"name": "capture.to_csv_s"}),
        (FeatureExtractor, "transform", {"name": "features.transform_s"}),
        (FeatureExtractor, "transform_window", {"name": "features.transform_window_s"}),
        (RecordBatch, "from_records", {"name": "features.from_records_s"}),
        (WindowAggregator, "add", {"name": "features.aggregate_s", "keep": False}),
        (
            RealTimeIds,
            "process",
            {
                "name": lambda args: f"ids.replay_s.{args[0].model_name}",
                "before": before_replay,
                "after": after_replay,
            },
        ),
    ]
    for cls in (RandomForestClassifier, KMeansDetector, CnnClassifier):
        fit_after = after_rf_fit if cls is RandomForestClassifier else None
        plan.append(
            (cls, "fit", {"name": lambda a: f"ml.fit_s.{model_name(a)}", "after": fit_after})
        )
        plan.append((cls, "predict", {"name": lambda a: f"ml.predict_s.{model_name(a)}"}))
    for cls in vars(stages).values():
        if isinstance(cls, type) and issubclass(cls, stages.Stage) and "run" in vars(cls):
            plan.append((cls, "run", {"name": lambda a: f"pipeline.stage_s.{a[0].name}"}))

    originals: list[tuple[type, str, Any]] = []
    try:
        for cls, attr, options in plan:
            original = vars(cls)[attr]
            originals.append((cls, attr, original))
            if isinstance(original, classmethod):
                setattr(cls, attr, classmethod(_wrap(tracer, original.__func__, **options)))
            else:
                setattr(cls, attr, _wrap(tracer, original, **options))
        yield tracer
    finally:
        for cls, attr, original in reversed(originals):
            setattr(cls, attr, original)
