"""Table I — real-time detection accuracy per model.

Paper (DSN'24, Table I):

    Model     Accuracy (%)
    RF        61.22
    K-Means   94.82
    CNN       95.47

The rows are the paper run's own ``ExperimentResult.table1()``: each
trained model's real-time IDS streams the live detection capture window
by window and reports the mean per-window accuracy.  The bench times a
re-run of that detection stage and checks it reproduces the rows
exactly.  We assert the *shape*: RF collapses far below the
scale-robust models, K-Means and CNN land in the 90s with CNN >= K-Means.
"""

from repro.testbed import run_realtime_detection

from conftest import write_result


def test_table1_realtime_accuracy(
    benchmark, experiment, detect_capture, trained_models, scenario
):
    reports = benchmark.pedantic(
        run_realtime_detection,
        args=(detect_capture, trained_models),
        kwargs={"window_seconds": scenario.window_seconds},
        rounds=1,
        iterations=1,
    )
    by_name = dict(experiment.table1())
    # Detection is a pure function of the captures and models.
    assert {r.model_name: 100.0 * r.mean_accuracy for r in reports} == by_name
    lines = ["Table I: ML models performance in real-time detection",
             f"{'Model':<10}{'Accuracy (%)':>14}{'Paper (%)':>12}"]
    paper = {"RF": 61.22, "K-Means": 94.82, "CNN": 95.47}
    for name in ("RF", "K-Means", "CNN"):
        lines.append(f"{name:<10}{by_name[name]:>14.2f}{paper[name]:>12.2f}")
    write_result("table1_realtime_accuracy", lines)

    # Shape assertions: who wins, by roughly what factor.
    assert by_name["RF"] < 80.0, "RF must collapse under live rate shift"
    assert by_name["K-Means"] > 88.0
    assert by_name["CNN"] > 90.0
    assert by_name["CNN"] >= by_name["K-Means"] - 1.0
    assert min(by_name["K-Means"], by_name["CNN"]) - by_name["RF"] > 15.0
