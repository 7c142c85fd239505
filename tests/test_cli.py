"""End-to-end tests that drive the CLI through main(argv)."""

import argparse
import csv
import dataclasses
import io
import json
import os
import stat
import struct
from pathlib import Path

import numpy as np
import pytest

from gutgraph import cli
from gutgraph.cli import main
from gutgraph.ingest import AbundanceTable, serialize_abundance_table, serialize_labels
from gutgraph.train import TrainConfig

FAST = ["--embed-dim", "5", "--gcn-layers", "2", "--bins", "3",
        "--heads", "2", "--epochs", "3", "--classifier-steps", "20",
        "--folds", "2", "--eval-seeds", "1", "--seed", "0"]


@pytest.fixture()
def cohort(tmp_path):
    out = tmp_path / "data"
    code = main(["synth", "--n-per-class", "8", "--n-features", "10",
                 "--separation", "2.0", "--seed", "3", "--out-dir", str(out)])
    assert code == 0
    return str(out / "abundance.tsv"), str(out / "labels.tsv")


def test_main_pins_the_allocator_before_parsing(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "pin_allocator", lambda: calls.append("pin"))
    build_parser = cli.build_parser

    def parser():
        calls.append("parse")
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", parser)
    with pytest.raises(SystemExit):
        main(["synth", "--no-such-flag"])
    assert calls == ["pin", "parse"]


def test_synth_is_byte_deterministic(tmp_path):
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for d in dirs:
        assert main(["synth", "--n-per-class", "5", "--n-features", "7",
                     "--seed", "11", "--out-dir", d]) == 0
    for name in ("abundance.tsv", "labels.tsv"):
        blobs = [Path(d, name).read_bytes() for d in dirs]
        assert blobs[0] == blobs[1]


def test_outputs_get_the_umask_mode(tmp_path):
    # every output is written through a temp file; each must still get
    # 0o666 less the umask, as open(path, "w") gives, not mkstemp's 0o600
    data, run = tmp_path / "data", tmp_path / "run"
    previous = os.umask(0o022)
    try:
        assert main(["synth", "--n-per-class", "4", "--n-features", "6",
                     "--out-dir", str(data)]) == 0
        assert main(["train", "--table", str(data / "abundance.tsv"), *FAST,
                     "--out-dir", str(run)]) == 0
    finally:
        os.umask(previous)
    outputs = sorted(p.name for p in (*data.iterdir(), *run.iterdir()))
    assert {"abundance.tsv", "labels.tsv", "model.ckpt", "loss_trace.tsv"} <= set(outputs)
    assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in (*data.iterdir(), *run.iterdir())} \
        == {name: 0o644 for name in outputs}


def test_synth_echoes_resolved_config(tmp_path):
    out = tmp_path / "run"
    assert main(["synth", "--n-per-class", "4", "--out-dir", str(out)]) == 0
    doc = json.loads((out / "config.json").read_text())
    assert doc["command"] == "synth"
    assert doc["out_dir"] == str(out)
    assert doc["n_per_class"] == 4
    # defaults are materialized, not left implicit
    assert doc["n_features"] == 60
    assert doc["separation"] == 2.0
    assert doc["seed"] == 0


def test_synth_label_balance(cohort):
    _, labels_path = cohort
    lines = Path(labels_path).read_text().splitlines()
    values = [int(line.split("\t")[1]) for line in lines]
    assert values.count(0) == 8 and values.count(1) == 8


def test_outdir_env_var_honored(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("GUTGRAPH_OUTDIR", str(target))
    assert main(["synth", "--n-per-class", "4"]) == 0
    assert (target / "abundance.tsv").exists()
    doc = json.loads((target / "config.json").read_text())
    assert doc["out_dir"] == str(target)


def test_preprocess_reports_removed_features(tmp_path):
    table = tmp_path / "t.tsv"
    table.write_text(
        "feature_id\ts1\ts2\ts3\n"
        "f_keep\t0.5\t0.6\t0.7\n"
        "f_drop\t0.001\t0.002\t0.9\n")
    out = tmp_path / "out"
    assert main(["preprocess", "--table", str(table), "--out-dir", str(out),
                 "--host-count-threshold", "2"]) == 0
    removed = (out / "removed_features.tsv").read_text()
    assert removed == "f_drop\t2\n"
    filtered = (out / "filtered.tsv").read_text()
    assert "f_drop" not in filtered
    assert "f_keep" in filtered


def _tsv_rows(path):
    return list(csv.reader(io.StringIO(path.read_text()), delimiter="\t"))


# a feature and a sample whose names hold the delimiter, quoted on input
_TAB_NAMES_TABLE = ('feature_id\t"s\t1"\ts2\ts3\n'
                    'f_keep\t0.5\t0.6\t0.7\n'
                    '"f\tdrop"\t0.001\t0.002\t0.003\n')


def test_preprocess_quotes_removed_names_holding_the_delimiter(tmp_path):
    table = tmp_path / "t.tsv"
    table.write_text(_TAB_NAMES_TABLE)
    out = tmp_path / "out"
    assert main(["preprocess", "--table", str(table), "--out-dir", str(out),
                 "--host-count-threshold", "3"]) == 0
    assert _tsv_rows(out / "removed_features.tsv") == [["f\tdrop", "3"]]


def test_embed_quotes_sample_ids_holding_the_delimiter(tmp_path):
    table = tmp_path / "t.tsv"
    table.write_text(_TAB_NAMES_TABLE)
    out = tmp_path / "out"
    assert main(["embed", "--table", str(table), "--out-dir", str(out),
                 "--embed-dim", "3", "--gcn-layers", "1", "--bins", "3",
                 "--heads", "1", "--epochs", "1"]) == 0
    rows = _tsv_rows(out / "embeddings.tsv")
    assert [row[0] for row in rows] == ["s\t1", "s2", "s3"]
    assert all(len(row) == 1 + 3 for row in rows)


def test_quoted_line_breaks_in_names_survive_reading(tmp_path):
    # csv needs newline="" to read a quoted \r or \r\n back as itself;
    # without it, "a\rb" and "a\nb" would also read as one duplicate id
    ids = ["s\r1", "s\r\n2", "a\rb", "a\nb", "s5", "s6"]
    table = AbundanceTable(ids, ["tax\rA", "taxB"],
                           [[0.1 * (i + 1), 0.5] for i in range(6)])
    table_path, labels_path = tmp_path / "t.tsv", tmp_path / "labels.tsv"
    table_path.write_bytes(serialize_abundance_table(table).encode())
    labels_path.write_bytes(
        serialize_labels(ids, np.array([0, 1, 0, 1, 0, 1])).encode())
    out = tmp_path / "out"
    assert main(["preprocess", "--table", str(table_path),
                 "--out-dir", str(out)]) == 0
    assert (out / "filtered.tsv").read_bytes() == table_path.read_bytes()
    assert main(["embed", "--table", str(table_path), "--out-dir", str(out),
                 "--embed-dim", "3", "--gcn-layers", "1", "--bins", "3",
                 "--heads", "1", "--epochs", "1"]) == 0
    with open(out / "embeddings.tsv", encoding="utf-8", newline="") as fh:
        assert [row[0] for row in csv.reader(fh, delimiter="\t")] == ids
    assert main(["evaluate", "--table", str(table_path),
                 "--labels", str(labels_path), "--out-dir", str(out)] + FAST) == 0
    rows = json.loads((out / "metrics.json").read_text())["rows"]
    assert sum(row["n_test"] for row in rows) == len(ids)


def test_preprocess_no_removals_copies_table(tmp_path, cohort):
    table_path, _ = cohort
    out = tmp_path / "out"
    # default policy needs 120 low hosts; 16 samples can never trip it
    assert main(["preprocess", "--table", table_path,
                 "--out-dir", str(out)]) == 0
    assert (out / "removed_features.tsv").read_text() == ""
    assert Path(table_path).read_bytes() == (out / "filtered.tsv").read_bytes()


def test_preprocess_is_idempotent(tmp_path):
    table = tmp_path / "t.tsv"
    table.write_text(
        "feature_id\ts1\ts2\ts3\n"
        "f_keep\t0.5\t0.6\t0.7\n"
        "f_mid\t0.02\t0.03\t0.04\n"
        "f_drop\t0.001\t0.002\t0.9\n")
    first = tmp_path / "first"
    second = tmp_path / "second"
    args = ["--host-count-threshold", "2"]
    assert main(["preprocess", "--table", str(table),
                 "--out-dir", str(first)] + args) == 0
    assert main(["preprocess", "--table", str(first / "filtered.tsv"),
                 "--out-dir", str(second)] + args) == 0
    assert (first / "filtered.tsv").read_bytes() \
        == (second / "filtered.tsv").read_bytes()
    assert (second / "removed_features.tsv").read_text() == ""


def test_preprocess_missing_file_exits_nonzero(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["preprocess", "--table", str(tmp_path / "absent.tsv"),
                 "--out-dir", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_preprocess_malformed_table_leaves_no_outputs(tmp_path, capsys):
    table = tmp_path / "bad.tsv"
    table.write_text("feature_id\ts1\ts2\nf1\t0.5\n")  # short row
    out = tmp_path / "out"
    code = main(["preprocess", "--table", str(table), "--out-dir", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (out / "filtered.tsv").exists()
    assert not (out / "removed_features.tsv").exists()
    # the config echo happens before parsing, by design
    assert (out / "config.json").exists()


def test_build_graphs_writes_edges_and_sidecars(tmp_path, cohort):
    table_path, _ = cohort
    out = tmp_path / "graphs"
    assert main(["build-graphs", "--table", table_path,
                 "--out-dir", str(out)] + FAST) == 0
    for kind in ("bray_curtis", "euclidean", "canberra"):
        edges = (out / f"edges_{kind}.tsv").read_text()
        sidecar = json.loads((out / f"edges_{kind}.json").read_text())
        n_lines = len(edges.splitlines())
        assert sidecar["n_edges"] == n_lines
        assert sidecar["relation"] == kind
        assert sidecar["n_nodes"] == 16
        assert sidecar["threshold"] == 0.6


def test_build_graphs_two_all_zero_samples_fail_in_one_line(tmp_path, capsys):
    table = tmp_path / "t.tsv"
    table.write_text(
        "feature_id\ts1\ts2\ts3\ts4\n"
        "f1\t0.5\t0\t0.1\t0\n"
        "f2\t0.5\t0\t0.9\t0\n")
    out = tmp_path / "graphs"
    assert main(["build-graphs", "--table", str(table), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: samples 1 and 3 are both all-zero")
    assert not list(out.glob("edges_*"))


def test_build_graphs_one_all_zero_sample_is_isolated_in_bray_curtis(tmp_path):
    table = tmp_path / "t.tsv"
    table.write_text(
        "feature_id\ts1\ts2\ts3\ts4\n"
        "f1\t0.5\t0\t0.1\t0.4\n"
        "f2\t0.3\t0\t0.1\t0.4\n"
        "f3\t0.2\t0\t0.8\t0.2\n")
    out = tmp_path / "graphs"
    assert main(["build-graphs", "--table", str(table), "--out-dir", str(out)]) == 0
    # s2 sits at the maximum Bray-Curtis distance 1.0 from every sample
    edges = (out / "edges_bray_curtis.tsv").read_text().splitlines()
    assert edges
    assert all("1" not in line.split("\t") for line in edges)


@pytest.mark.parametrize("command", ["build-graphs", "train"])
def test_build_graphs_and_train_echo_the_resolved_config(tmp_path, cohort, command):
    table_path, _ = cohort
    out = tmp_path / "run"
    assert main([command, "--table", table_path, "--out-dir", str(out)] + FAST) == 0
    doc = json.loads((out / "config.json").read_text())
    assert set(doc) == {"command", "out_dir", "table", "delimiter", "config"}
    assert doc["command"] == command
    assert doc["out_dir"] == str(out)
    assert doc["table"] == os.path.abspath(table_path)
    assert doc["delimiter"] == "\t"
    assert set(doc["config"]) == {f.name for f in dataclasses.fields(TrainConfig)}


def test_train_writes_checkpoint_and_trace(tmp_path, cohort):
    table_path, _ = cohort
    out = tmp_path / "run"
    assert main(["train", "--table", table_path,
                 "--out-dir", str(out)] + FAST) == 0
    assert (out / "model.ckpt").exists()
    trace_lines = (out / "loss_trace.tsv").read_text().splitlines()
    assert len(trace_lines) == 3
    doc = json.loads((out / "config.json").read_text())
    assert doc["config"]["epochs"] == 3
    assert doc["config"]["embed_dim"] == 5


def test_train_rerun_is_byte_identical(tmp_path, cohort):
    table_path, _ = cohort
    outs = [str(tmp_path / "r1"), str(tmp_path / "r2")]
    for out in outs:
        assert main(["train", "--table", table_path, "--out-dir", out] + FAST) == 0
    for name in ("model.ckpt", "loss_trace.tsv"):
        blobs = [Path(out, name).read_bytes() for out in outs]
        assert blobs[0] == blobs[1]


def test_evaluate_end_to_end_and_rerun_identical(tmp_path, cohort):
    table_path, labels_path = cohort
    outs = [str(tmp_path / "e1"), str(tmp_path / "e2")]
    for out in outs:
        assert main(["evaluate", "--table", table_path, "--labels", labels_path,
                     "--out-dir", out] + FAST) == 0
    for name in ("metrics.json", "metrics.txt"):
        blobs = [Path(out, name).read_bytes() for out in outs]
        assert blobs[0] == blobs[1]
    doc = json.loads(Path(outs[0], "metrics.json").read_text())
    assert len(doc["rows"]) == 2  # folds * eval_seeds
    assert set(doc["aggregate"]) == {"accuracy", "precision", "recall",
                                     "f1", "auc"}


def test_leave_one_out_metrics_are_strict_json(tmp_path, capsys):
    # one sample per test fold: no fold defines an AUC, so its aggregate
    # is undefined and must be written as null, not as a bare NaN
    data = tmp_path / "data"
    assert main(["synth", "--n-per-class", "4", "--n-features", "10",
                 "--seed", "3", "--out-dir", str(data)]) == 0
    out = tmp_path / "loo"
    with pytest.warns(RuntimeWarning, match="single-class test fold"):
        assert main(["evaluate", "--table", str(data / "abundance.tsv"),
                     "--labels", str(data / "labels.tsv"),
                     "--out-dir", str(out)] + FAST + ["--folds", "8"]) == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads((out / "metrics.json").read_text(), parse_constant=refuse)
    assert doc["aggregate"]["auc"] == {"count": 0, "mean": None, "std": None}
    assert [row["auc"] for row in doc["rows"]] == [None] * 8
    assert "      auc: - +/- - (n=0)\n" in (out / "metrics.txt").read_text()
    assert "auc - +/- - (8 rows)" in capsys.readouterr().out


def test_evaluate_from_checkpoint_matches_end_to_end(tmp_path, cohort):
    table_path, labels_path = cohort
    train_out = tmp_path / "train"
    assert main(["train", "--table", table_path,
                 "--out-dir", str(train_out)] + FAST) == 0
    direct = tmp_path / "direct"
    assert main(["evaluate", "--table", table_path, "--labels", labels_path,
                 "--out-dir", str(direct)] + FAST) == 0
    via_ckpt = tmp_path / "ckpt"
    assert main(["evaluate", "--table", table_path, "--labels", labels_path,
                 "--out-dir", str(via_ckpt),
                 "--checkpoint", str(train_out / "model.ckpt")]) == 0
    assert (direct / "metrics.json").read_bytes() \
        == (via_ckpt / "metrics.json").read_bytes()


@pytest.mark.parametrize("case", ["folds", "one-class", "jobs", "checkpoint"])
def test_evaluate_refuses_an_unusable_split_before_training(tmp_path, cohort,
                                                            capsys, monkeypatch, case):
    # a split depends only on the cohort's size, folds and the seed, so
    # both evaluate paths refuse it before building a graph or training
    table_path, labels_path = cohort
    extra, want = ["--folds", "17"], "error: k=17 exceeds n_samples=16"
    if case == "one-class":
        one_class = tmp_path / "one_class.tsv"
        one_class.write_text("".join(f"sample{i:04d}\t0\n" for i in range(16)))
        labels_path = str(one_class)
        extra, want = [], "error: training fold contains a single class"
    elif case == "jobs":
        extra += ["--eval-seeds", "3", "--jobs", "2"]
    elif case == "checkpoint":
        train_out = tmp_path / "train"
        assert main(["train", "--table", table_path,
                     "--out-dir", str(train_out)] + FAST + extra) == 0
        extra = ["--checkpoint", str(train_out / "model.ckpt")]

    def never(*args, **kwargs):
        raise AssertionError("evaluate trained before checking its split")

    monkeypatch.setattr("gutgraph.train.build_multigraph", never)
    monkeypatch.setattr("gutgraph.train.train_unsupervised", never)
    out = tmp_path / "out"
    args = ["evaluate", "--table", table_path, "--labels", labels_path,
            "--out-dir", str(out)]
    if case != "checkpoint":
        args += FAST
    capsys.readouterr()
    assert main(args + extra) == 1
    assert capsys.readouterr().err.splitlines() == [want]
    assert not (out / "metrics.json").exists()


_TABLE_COMMANDS = ["preprocess", "build-graphs", "train", "evaluate", "embed"]


@pytest.mark.parametrize("delimiter", ["", ",,"])
@pytest.mark.parametrize("command", _TABLE_COMMANDS)
def test_delimiter_must_be_one_character(tmp_path, cohort, capsys, command, delimiter):
    table_path, labels_path = cohort
    out = tmp_path / "out"
    args = [command, "--table", table_path, "--out-dir", str(out),
            "--delimiter", delimiter]
    if command == "evaluate":
        args += ["--labels", labels_path]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].endswith(
        f"error: argument --delimiter: must be one character, got {delimiter!r}")
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-1", "two"])
@pytest.mark.parametrize("checkpoint", [False, True])
def test_jobs_must_be_a_positive_integer(tmp_path, cohort, capsys, jobs, checkpoint):
    table_path, labels_path = cohort
    out = tmp_path / "out"
    args = ["evaluate", "--table", table_path, "--labels", labels_path,
            "--out-dir", str(out), "--jobs", jobs]
    if checkpoint:
        args += ["--checkpoint", str(tmp_path / "model.ckpt")]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].endswith(
        f"error: argument --jobs: must be a positive integer, got {jobs!r}")
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "4"])
def test_evaluate_checkpoint_refuses_jobs(tmp_path, cohort, capsys, jobs):
    # a checkpoint is evaluated in process, so --jobs would be echoed
    # into config.json and ignored; it is refused before anything is written
    table_path, labels_path = cohort
    train_out = tmp_path / "train"
    assert main(["train", "--table", table_path,
                 "--out-dir", str(train_out)] + FAST) == 0
    out = tmp_path / "out"
    capsys.readouterr()
    code = main(["evaluate", "--table", table_path, "--labels", labels_path,
                 "--out-dir", str(out), "--checkpoint", str(train_out / "model.ckpt"),
                 "--jobs", jobs])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: --jobs spreads training seeds over workers and --checkpoint "
        "trains none; drop --jobs or evaluate without --checkpoint"]
    assert not out.exists()


def test_evaluate_checkpoint_rejects_config_flags(tmp_path, cohort, capsys):
    table_path, labels_path = cohort
    train_out = tmp_path / "train"
    assert main(["train", "--table", table_path,
                 "--out-dir", str(train_out)] + FAST) == 0
    code = main(["evaluate", "--table", table_path, "--labels", labels_path,
                 "--out-dir", str(tmp_path / "bad"),
                 "--checkpoint", str(train_out / "model.ckpt"),
                 "--epochs", "9"])
    assert code == 1
    assert "checkpoint" in capsys.readouterr().err


def test_embed_shape_and_checkpoint_equivalence(tmp_path, cohort):
    table_path, _ = cohort
    direct = tmp_path / "direct"
    assert main(["embed", "--table", table_path,
                 "--out-dir", str(direct)] + FAST) == 0
    lines = (direct / "embeddings.tsv").read_text().splitlines()
    assert len(lines) == 16
    first = lines[0].split("\t")
    assert first[0] == "sample0000"
    assert len(first) == 1 + 5  # id column plus embed_dim values
    train_out = tmp_path / "train"
    assert main(["train", "--table", table_path,
                 "--out-dir", str(train_out)] + FAST) == 0
    via_ckpt = tmp_path / "ckpt"
    assert main(["embed", "--table", table_path, "--out-dir", str(via_ckpt),
                 "--checkpoint", str(train_out / "model.ckpt")]) == 0
    assert (direct / "embeddings.tsv").read_bytes() \
        == (via_ckpt / "embeddings.tsv").read_bytes()


@pytest.mark.parametrize("command", ["evaluate", "embed"])
def test_checkpoint_refuses_reordered_table(tmp_path, cohort, capsys, command):
    table_path, labels_path = cohort
    train_out = tmp_path / "train"
    assert main(["train", "--table", table_path,
                 "--out-dir", str(train_out)] + FAST) == 0
    # same features, same count, two of them swapped
    header, first, second, *rest = Path(table_path).read_text().splitlines()
    reordered = tmp_path / "reordered.tsv"
    reordered.write_text("\n".join([header, second, first] + rest) + "\n")
    out = tmp_path / "out"
    args = [command, "--table", str(reordered), "--out-dir", str(out),
            "--checkpoint", str(train_out / "model.ckpt")]
    if command == "evaluate":
        args += ["--labels", labels_path]
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: table feature 0 is 'taxon0001', "
                          "the checkpoint was trained with 'taxon0000'")
    assert [p.name for p in out.iterdir()] == ["config.json"]


def test_checkpoint_with_reshaped_tensor_exits_in_one_line(tmp_path, cohort, capsys):
    table_path, labels_path = cohort
    train_out = tmp_path / "train"
    assert main(["train", "--table", table_path,
                 "--out-dir", str(train_out)] + FAST) == 0
    # store the discriminator weight transposed: same byte count, wrong shape
    blob = bytearray((train_out / "model.ckpt").read_bytes())
    name = b"discriminator/bray_curtis/weight"
    at = blob.index(name) + len(name)
    rows, cols = struct.unpack("<II", blob[at:at + 8])
    blob[at:at + 8] = struct.pack("<II", cols, rows)
    reshaped = tmp_path / "reshaped.ckpt"
    reshaped.write_bytes(bytes(blob))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["evaluate", "--table", table_path, "--labels", labels_path,
                 "--out-dir", str(out), "--checkpoint", str(reshaped)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0] == (f"error: checkpoint tensor {name.decode()!r} has shape "
                      f"{(cols, rows)}, its config needs {(rows, cols)}")
    assert not (out / "metrics.json").exists()


def test_stray_quote_in_table_exits_in_one_line(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--n-per-class", "200", "--n-features", "40",
                 "--out-dir", str(data)]) == 0
    lines = (data / "abundance.tsv").read_text().splitlines(keepends=True)
    lines[5] = '"' + lines[5]
    table = tmp_path / "quoted.tsv"
    table.write_text("".join(lines))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["preprocess", "--table", str(table), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: line 6: field larger than field limit (131072)"]
    assert not (out / "filtered.tsv").exists()


def test_every_scalar_config_field_has_a_flag(tmp_path, cohort):
    table_path, _ = cohort
    defaults = TrainConfig()
    given = {}
    for f in dataclasses.fields(TrainConfig):
        default = getattr(defaults, f.name)
        if f.type == "int":
            given[f.name] = default + 1
        elif f.type == "float":
            given[f.name] = default / 2
        elif f.type == "str":
            given[f.name] = "count" if default != "count" else "magnitude"
        else:
            assert f.type == "bool"  # switches: see test_ablation_flags_land_in_config
    flags = [a for name, value in given.items()
             for a in ("--" + name.replace("_", "-"), str(value))]
    out = tmp_path / "run"
    assert main(["build-graphs", "--table", table_path,
                 "--out-dir", str(out)] + flags) == 0
    config = json.loads((out / "config.json").read_text())["config"]
    assert {name: config[name] for name in given} == given


def test_config_file_and_flag_precedence(tmp_path, cohort):
    table_path, _ = cohort
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"epochs": 7, "embed_dim": 4,
                                    "gcn_layers": 2, "bins": 3, "heads": 2,
                                    "folds": 2, "classifier_steps": 5}))
    out = tmp_path / "run"
    assert main(["train", "--table", table_path, "--out-dir", str(out),
                 "--config", str(cfg_file), "--epochs", "2"]) == 0
    doc = json.loads((out / "config.json").read_text())
    assert doc["config"]["epochs"] == 2      # flag beats file
    assert doc["config"]["embed_dim"] == 4   # file beats default
    assert doc["config"]["learning_rate"] == 0.001  # default materialized
    assert len((out / "loss_trace.tsv").read_text().splitlines()) == 2


def test_config_file_unknown_key_exits_nonzero(tmp_path, cohort, capsys):
    table_path, _ = cohort
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"epoch": 7}))
    code = main(["train", "--table", table_path,
                 "--out-dir", str(tmp_path / "out"),
                 "--config", str(cfg_file)])
    assert code == 1
    assert "epoch" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    {"gcn_layers": 2.5},
    {"epochs": "3"},
    {"threshold": "0.5"},
    [1, 2],
    {"use_attention": "no"},
], ids=["float-int", "str-int", "str-float", "non-object", "str-bool"])
def test_config_file_wrong_type_exits_in_one_line(tmp_path, cohort, capsys, payload):
    table_path, _ = cohort
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(payload))
    out = tmp_path / "out"
    # the fast flags, less any that would override the field under test
    flags = [a for pair in zip(FAST[::2], FAST[1::2])
             if pair[0][2:].replace("-", "_") not in payload for a in pair]
    code = main(["train", "--table", table_path, "--out-dir", str(out),
                 "--config", str(cfg_file)] + flags)
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (out / "model.ckpt").exists()


@pytest.mark.parametrize("field, value", [
    ("clip_norm", "nan"), ("clip_norm", "inf"), ("learning_rate", "nan")])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_non_finite_setting_exits_before_anything_is_written(
        tmp_path, cohort, capsys, source, field, value):
    # float() reads "nan" and "inf" from a flag, and JSON's NaN and
    # Infinity from a config file
    table_path, labels_path = cohort
    if source == "flag":
        given = ["--" + field.replace("_", "-"), value]
    else:
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({field: float(value)}))
        given = ["--config", str(cfg_file)]
    out = tmp_path / "out"
    code = main(["evaluate", "--table", table_path, "--labels", labels_path,
                 "--out-dir", str(out)] + FAST + given)
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {field} must be a finite number, got {float(value)!r}"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "embed"])
@pytest.mark.parametrize("damage", ["config", "tensor"])
def test_checkpoint_with_a_non_finite_value_exits_in_one_line(
        tmp_path, cohort, capsys, damage, command):
    table_path, labels_path = cohort
    train_out = tmp_path / "train"
    assert main(["train", "--table", table_path,
                 "--out-dir", str(train_out)] + FAST) == 0
    blob = (train_out / "model.ckpt").read_bytes()
    if damage == "config":
        # the config JSON follows the magic and version, after its length
        (n,) = struct.unpack("<I", blob[8:12])
        text = blob[12:12 + n].replace(b'"clip_norm":5.0', b'"clip_norm":Infinity')
        blob = blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + n:]
        want = "invalid checkpoint config: clip_norm must be a finite number, got inf"
    else:
        name = "attention/head0/bray_curtis/query"
        at = blob.index(name.encode()) + len(name) + 8  # past its shape
        blob = blob[:at] + struct.pack("<d", float("nan")) + blob[at + 8:]
        want = f"checkpoint tensor {name!r} holds a non-finite value"
    damaged = tmp_path / "damaged.ckpt"
    damaged.write_bytes(blob)
    out = tmp_path / "out"
    args = [command, "--table", table_path, "--out-dir", str(out),
            "--checkpoint", str(damaged)]
    if command == "evaluate":
        args += ["--labels", labels_path]
    capsys.readouterr()
    assert main(args) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {want}"]
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_preprocess_refuses_a_non_finite_abundance_threshold(
        tmp_path, cohort, capsys, value):
    table_path, _ = cohort
    out = tmp_path / "out"
    assert main(["preprocess", "--table", table_path, "--out-dir", str(out),
                 "--abundance-threshold", value]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: abundance_threshold must be a positive finite number, "
        f"got {float(value)!r}"]
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_refuses_a_non_finite_separation(tmp_path, capsys, value):
    out = tmp_path / "out"
    assert main(["synth", "--n-per-class", "4", "--separation", value,
                 "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: separation must be a finite number >= 0, got {value}"]
    assert not out.exists()


@pytest.mark.parametrize("argv, want", [
    (["synth", "--n-per-class", "1"], "n_per_class must be >= 2, got 1"),
    (["synth", "--n-per-class", "4", "--n-features", "1"],
     "n_features must be >= 2, got 1"),
    (["synth", "--n-per-class", "4", "--seed", "-2"], "seed must be >= 0, got -2"),
    (["gradcheck", "--seed", "-1"], "seed must be >= 0, got -1"),
])
def test_synth_and_gradcheck_check_their_arguments_before_writing(
        tmp_path, capsys, argv, want):
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {want}"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "gradcheck", "train"])
def test_a_refused_command_leaves_no_output_directory(tmp_path, cohort, command):
    # settings are checked before the first write, and only a write
    # creates the output directory
    argv = {"synth": ["synth", "--n-per-class", "1"],
            "gradcheck": ["gradcheck", "--seed", "-1"],
            "train": ["train", "--table", cohort[0], "--epochs", "-1"]}[command]
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 1
    assert not out.exists()


def test_ablation_flags_land_in_config(tmp_path, cohort):
    table_path, _ = cohort
    out = tmp_path / "run"
    assert main(["train", "--table", table_path, "--out-dir", str(out),
                 "--no-attention", "--no-two-stage-summary",
                 "--no-adversarial", "--static-corruption"] + FAST) == 0
    doc = json.loads((out / "config.json").read_text())
    assert doc["config"]["use_attention"] is False
    assert doc["config"]["two_stage_summary"] is False
    assert doc["config"]["use_adversarial"] is False
    assert doc["config"]["fresh_corruption"] is False


def test_gradcheck_passes_and_lists_groups(tmp_path, capsys):
    assert main(["gradcheck", "--out-dir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "config.json").read_text())["seed"] == 0
    out = capsys.readouterr().out
    for group in ("encoder", "queries", "discriminator", "eta", "classifier"):
        assert group in out
    assert "FAIL" not in out


def test_synth_output_feeds_preprocess_cleanly(tmp_path, cohort):
    # high separation keeps profiles concentrated; the default policy
    # must pass the generated table through untouched
    table_path, _ = cohort
    out = tmp_path / "pp"
    assert main(["preprocess", "--table", table_path,
                 "--out-dir", str(out)]) == 0
    assert (out / "removed_features.tsv").read_text() == ""


def test_same_bytes_harness_runs_every_subcommand_and_switch():
    # .github/same-bytes.sh is the one list of commands compared byte for
    # byte across hash seeds, BLAS threads and a parent tree: a subcommand
    # or switch missing from it would go uncompared
    script = Path(__file__).resolve().parents[1] / ".github" / "same-bytes.sh"
    text = script.read_text().replace("\\\n", " ")
    run = [line.split() for line in text.splitlines()
           if line.split()[:1] == ["gutgraph"]]
    (subparsers,) = [a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) <= {words[1] for words in run}
    flags = {word for words in run for word in words}
    assert {flag for flag, _ in cli._ABLATION_FLAGS} <= flags
