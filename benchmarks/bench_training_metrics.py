"""§IV-D training-phase metrics: accuracy / precision / recall / F1.

The paper reports that after training "all models have attained
[high] values across these evaluation metrics, with a small amount of
false positives and false negatives".  The bench times model training on
the generated dataset, checks the retrained models score exactly as the
paper run's own, and regenerates the per-model metric rows on the
held-out split.
"""

from repro.testbed import train_models

from conftest import write_result


def test_training_metrics(benchmark, experiment, train_capture, scenario):
    trained = benchmark.pedantic(
        train_models,
        args=(train_capture,),
        kwargs={"window_seconds": scenario.window_seconds, "seed": scenario.seed},
        rounds=1,
        iterations=1,
    )
    lines = [
        "Training-phase evaluation (held-out 30% split)",
        f"{'Model':<10}{'Accuracy':>10}{'Precision':>11}{'Recall':>9}{'F1':>8}{'fit (s)':>9}",
    ]
    for item in trained:
        r = item.train_report
        lines.append(
            f"{item.name:<10}{r.accuracy:>10.4f}{r.precision:>11.4f}"
            f"{r.recall:>9.4f}{r.f1:>8.4f}{item.fit_seconds:>9.2f}"
        )
    write_result("training_metrics", lines)

    # Training is a pure function of the capture and the seed.
    assert [
        (t.name, t.train_report.accuracy, t.train_report.precision,
         t.train_report.recall, t.train_report.f1)
        for t in trained
    ] == experiment.training_metrics()

    for item in trained:
        r = item.train_report
        assert r.accuracy > 0.95, f"{item.name} training accuracy too low"
        assert r.precision > 0.9
        assert r.recall > 0.9
        assert r.f1 > 0.9
        # "a small amount of false positives and false negatives"
        tn, fp, fn, tp = r.confusion.ravel()
        assert fp + fn < 0.05 * (tn + fp + fn + tp)
