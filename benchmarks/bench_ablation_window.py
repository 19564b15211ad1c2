"""Ablation — statistical-window period vs CPU cost (§IV-E claim).

The paper: "A strategic approach to mitigate this high CPU usage
involves adjusting the frequency at which statistical features are
computed.  By extending the period for computing these features, a
reduction in CPU utilization can be achieved."

The bench sweeps the window period over {0.5, 1, 2, 5} seconds and
re-runs the K-Means IDS on the same live capture, measuring the metered
CPU percentage for each period as the best of three runs after a
warm-up pass per period, so allocator and numpy cache effects of a fresh
model don't masquerade as a trend.

Reproduction verdict (recorded in EXPERIMENTS.md): each window pays a
fixed cost — the numpy call overhead of feature extraction, scaling and
inference — on top of its per-packet work, so longer windows amortise it
and CPU falls with the period, as the paper predicts.  The bench asserts
that direction: no longer window costs more CPU than the shortest one,
and the longest costs less.
"""

from repro.ids import RealTimeIds
from repro.ml import KMeansDetector, StandardScaler, train_test_split
from repro.testbed import ModelSpec

from conftest import write_result

PERIODS = (0.5, 1.0, 2.0, 5.0)
REPEATS = 3


def sweep(train_capture, detect_capture, seed):
    rows = []
    spec = ModelSpec(
        "K-Means",
        lambda n, s=seed: KMeansDetector(n_clusters=40, auto_k=False, random_state=s),
        stat_set="normalized",
        include_details=True,
        include_timestamp=False,
        scale=True,
    )
    for period in PERIODS:
        extractor = spec.make_extractor(period)
        X, y, _ = extractor.transform(train_capture.records)
        X_train, X_test, y_train, _ = train_test_split(X, y, seed=seed)
        scaler = StandardScaler().fit(X_train)
        model = spec.factory(X.shape[1])
        model.fit(scaler.transform(X_train), y_train)

        def run_ids():
            ids = RealTimeIds(
                model, f"K-Means@{period}s", extractor=extractor, scaler=scaler,
                window_seconds=period,
            )
            return ids.process(detect_capture.records)

        run_ids()  # warm-up: populate numpy/alloc caches for this model
        # A run meters only tens of CPU milliseconds; best-of-N filters
        # scheduler and GC noise out of so small a figure.
        reports = [run_ids() for _ in range(REPEATS)]
        cpu = min(report.sustainability.cpu_percent for report in reports)
        rows.append((period, cpu, reports[0].mean_accuracy))
    return rows


def test_ablation_window_period_vs_cpu(benchmark, train_capture, detect_capture, scenario):
    rows = benchmark.pedantic(
        sweep, args=(train_capture, detect_capture, scenario.seed), rounds=1, iterations=1
    )
    lines = [
        "Ablation: statistical-window period vs IDS CPU (paper §IV-E)",
        f"{'window (s)':>11}{'CPU (%)':>10}{'accuracy':>10}",
    ]
    for period, cpu, accuracy in rows:
        lines.append(f"{period:>11.1f}{cpu:>10.2f}{accuracy:>10.3f}")
    cpus = [cpu for _, cpu, _ in rows]
    direction = "falls" if cpus[-1] < cpus[0] * 0.8 else "is roughly flat"
    lines.append(
        f"verdict: CPU per traffic-second {direction} with longer windows "
        "(the paper predicts a fall; see EXPERIMENTS.md)"
    )
    write_result("ablation_window", lines)

    # CPU does not rise with the window (§IV-E): no longer window costs
    # more than the shortest one, so long windows never blow up, and the
    # longest window is cheaper than the shortest.
    assert max(cpus[1:]) <= cpus[0]
    assert cpus[-1] < cpus[0]
    # accuracy stays usable across periods
    assert all(acc > 0.7 for _, _, acc in rows)
