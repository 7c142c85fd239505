"""Fast tests of the benchmark's own arithmetic and checks; no workload runs.

    python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys

import pytest

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))


def span(name, parent, start, end, attrs=None):
    return [name, parent, start, end, attrs]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("train.run_cross_validation", -1, 0.0, 10.0),
        span("graph.build_multigraph", 0, 1.0, 4.0),
        span("graph.pairwise_distances", 1, 1.5, 3.5),
        span("model.joint_forward", 0, 5.0, 9.0),
    ]
    assert tracing.self_times(spans) == [3.0, 1.0, 2.0, 4.0]
    layers = tracing.layer_self_times(spans)
    assert layers == {"ingest": 0.0, "graph": 3.0, "model": 4.0,
                      "autodiff": 0.0, "train": 3.0}
    # self times partition the top-level span
    assert sum(layers.values()) == 10.0


def test_recorder_nests_spans_and_keeps_results():
    rec = tracing.Recorder()
    inner = rec.wrap("graph.inner", lambda x: x + 1,
                     probe=lambda a, k, r: {"arg": a[0], "result": r})
    outer = rec.wrap("train.outer", lambda x: inner(x) * 2)
    assert outer(3) == 8
    outer_span, inner_span = rec.spans
    assert outer_span[:2] == ["train.outer", -1]
    assert inner_span[:2] == ["graph.inner", 0]
    assert outer_span[2] <= inner_span[2] <= inner_span[3] <= outer_span[3]
    assert inner_span[4] == {"arg": 3, "result": 4}


def test_recorder_closes_span_when_call_raises():
    rec = tracing.Recorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("ingest.boom", boom)()
    assert rec.spans[0][3] is not None
    assert rec.wrap("ingest.ok", lambda: 1)() == 1
    assert rec.spans[1][1] == -1  # the failed span no longer counts as open


@pytest.mark.parametrize("values, q, expected", [
    ([1.0, 2.0, 3.0, 4.0], 50, 2.5),
    ([4.0, 1.0, 3.0, 2.0], 90, 3.7),
    ([1.0, 2.0, 3.0, 4.0], 0, 1.0),
    ([1.0, 2.0, 3.0, 4.0], 100, 4.0),
    ([5.0], 90, 5.0),
    ([], 50, 0.0),
])
def test_percentile_interpolates_linearly(values, q, expected):
    assert tracing.percentile(values, q) == pytest.approx(expected)


def test_per_layer_metrics_counts_only_unsupervised_backward():
    spans = [
        span("train.train_unsupervised", -1, 0.0, 1.0),
        span("model.init_model_params", 0, 0.0, 0.1),
        span("model.joint_forward", 0, 0.1, 0.3, {"gemm_flop": 2e9}),
        span("autodiff.Tape.backward", 0, 0.3, 0.6, {"ops": 248}),
        span("autodiff.Adam.step", 0, 0.6, 0.7),
        span("train.train_classifier", -1, 1.0, 1.5),
        span("autodiff.Tape.backward", 5, 1.1, 1.2, {"ops": 5}),
    ]
    command = {"spans": spans, "startup_s": 0.2, "wall_s": 2.0}
    m = tracing.per_layer_metrics([[command]], [0.7, 0.5, -0.1])
    assert m["autodiff.backward_ms"][0] == pytest.approx(300.0)
    assert m["autodiff.tape_ops"][0] == 248
    assert m["train.epoch_ms"][0] == pytest.approx(900.0)  # minus the init
    assert m["model.gemm_gflop_per_epoch"][0] == pytest.approx(2.0)
    assert m["trace.overhead_s"][0] == pytest.approx(0.5)
    assert m["ingest.parse_s"][0] == 0.0  # a stage never entered


def test_benchmark_json_matches_workloads_and_metrics():
    from workloads import WORKLOADS

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    command = {"spans": [], "startup_s": 0.1, "wall_s": 1.0}
    produced = tracing.per_layer_metrics([[command]], [0.0])
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (name, unit) for name, (_, unit) in produced.items()]
    assert [m["name"] for m in doc["end_to_end"]] == ["wall_s", "setup_s",
                                                      "peak_rss_mb"]


def _write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _metrics_doc(rows, auc):
    return json.dumps({"rows": [{"fold": i} for i in range(rows)],
                       "aggregate": {"auc": {"mean": auc}}})


def test_check_metrics_rejects_wrong_row_count(tmp_path):
    path = str(tmp_path / "metrics.json")
    _write(path, _metrics_doc(10, 1.0))
    assert checks.check_metrics(path, rows=10, auc_floor=0.9) == []
    assert checks.check_metrics(path, rows=5, auc_floor=0.9)
    _write(path, _metrics_doc(10, 0.5))
    assert checks.check_metrics(path, rows=10, auc_floor=0.9)


def test_diff_outputs_ignores_only_config_json(tmp_path):
    ref, cand = str(tmp_path / "ref"), str(tmp_path / "cand")
    for root, out_dir in ((ref, "/a"), (cand, "/b")):
        _write(os.path.join(root, "config.json"), out_dir)
        _write(os.path.join(root, "embed", "config.json"), out_dir)
        _write(os.path.join(root, "embed", "embeddings.tsv"), "s0\t1.0\n")
    assert checks.diff_outputs(ref, cand) == []

    _write(os.path.join(ref, "config.json.bak"), "/a")
    _write(os.path.join(cand, "config.json.bak"), "/b")
    assert checks.diff_outputs(ref, cand) == ["config.json.bak differs from the "
                                              "first iteration"]
    os.remove(os.path.join(ref, "config.json.bak"))
    os.remove(os.path.join(cand, "config.json.bak"))

    _write(os.path.join(cand, "embed", "embeddings.tsv"), "s0\t1.5\n")
    _write(os.path.join(cand, "extra.tsv"), "")
    assert checks.diff_outputs(ref, cand) == [
        "unexpected extra.tsv",
        os.path.join("embed", "embeddings.tsv") + " differs from the first iteration"]
    assert checks.diff_outputs(cand, ref)[0] == "missing extra.tsv"


def test_worker_traces_names_imported_into_other_modules(tmp_path):
    """synth reaches serialize_abundance_table through the name cli
    imported, so its span proves the rebinding outside the defining module."""
    src = os.path.join(os.path.dirname(HERE), "src")
    env = dict(os.environ, PYTHONPATH=src)
    spans_path = str(tmp_path / "spans.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), spans_path, "0",
         "synth", "--n-per-class", "3", "--n-features", "4",
         "--out-dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(spans_path, encoding="utf-8") as fh:
        names = {s[0] for s in json.load(fh)["spans"]}
    assert {"ingest.synth_cohort", "ingest.serialize_abundance_table",
            "train.atomic_write_text", "train.atomic_write_bytes"} <= names
