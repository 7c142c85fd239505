"""End-to-end tests that drive the CLI through main(argv)."""

import csv
import dataclasses
import io
import json
import struct
from pathlib import Path

import pytest

from gutgraph.cli import main
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


def test_synth_is_byte_deterministic(tmp_path):
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for d in dirs:
        assert main(["synth", "--n-per-class", "5", "--n-features", "7",
                     "--seed", "11", "--out-dir", d]) == 0
    for name in ("abundance.tsv", "labels.tsv"):
        blobs = [Path(d, name).read_bytes() for d in dirs]
        assert blobs[0] == blobs[1]


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
