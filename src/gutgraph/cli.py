"""Command line entry point.

Subcommands: preprocess, build-graphs, train, evaluate, embed, synth,
gradcheck. Every subcommand checks its settings before it writes
anything, and writes its fully resolved configuration to the output
directory before it reads an input or trains. Every output file is
written atomically (temp file plus rename), so a failed run never
leaves a partial artifact behind.

Configuration precedence: command-line flags > --config JSON file >
built-in defaults. The default output directory comes from the
GUTGRAPH_OUTDIR environment variable when set, else the current
directory; the resolved path is always echoed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

# train, model, graph and gradcheck are imported by the commands that run
# them, so synth and preprocess start without compiling the model stack
from .ingest import (FilterPolicy, filter_low_abundance, parse_abundance_table,
                     quote_field, read_labels, removal_report,
                     serialize_abundance_table, serialize_labels, synth_cohort)
from .runtime import (TrainConfig, TrainingDivergedError, atomic_write_text,
                      pin_allocator)

OUTDIR_ENV = "GUTGRAPH_OUTDIR"

# every TrainConfig field that is not a switch, set by --field-name
_SCALAR_FIELDS = [(f.name, {"int": int, "float": float, "str": str}[f.type])
                  for f in dataclasses.fields(TrainConfig) if f.type != "bool"]
# (flag, TrainConfig switch) for the switches, each turning a feature off
_ABLATION_FLAGS = [
    ("--static-corruption", "fresh_corruption"),
    ("--no-attention", "use_attention"),
    ("--no-two-stage-summary", "two_stage_summary"),
    ("--no-adversarial", "use_adversarial"),
]


def _delimiter(text: str) -> str:
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"must be one character, got {text!r}")
    return text


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _add_config_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE",
                   help="JSON file with training config fields")
    # a config flag that is not given leaves no attribute behind
    for dest, typ in _SCALAR_FIELDS:
        p.add_argument("--" + dest.replace("_", "-"), dest=dest, type=typ,
                       default=argparse.SUPPRESS)
    for flag, dest in _ABLATION_FLAGS:
        p.add_argument(flag, dest=dest, action="store_false",
                       default=argparse.SUPPRESS)


def _add_common(p: argparse.ArgumentParser, table: bool = True,
                labels: bool = False) -> None:
    p.add_argument("--out-dir", default=None,
                   help=f"output directory (default: ${OUTDIR_ENV} or .)")
    if table:
        p.add_argument("--table", required=True,
                       help="feature-major abundance table")
        p.add_argument("--delimiter", type=_delimiter, default="\t")
    if labels:
        p.add_argument("--labels", required=True,
                       help="two-column sample id / 0-1 label file")


def _resolve_out_dir(args) -> str:
    # the first write creates the directory, so a refused command leaves none
    return args.out_dir or os.environ.get(OUTDIR_ENV) or "."


def _config_flags(args) -> dict:
    """The TrainConfig fields set on the command line."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(TrainConfig)
            if hasattr(args, f.name)}


def _resolve_config(args) -> TrainConfig:
    data = TrainConfig().as_dict()
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"{args.config}: config must be a JSON object, "
                             f"got {type(loaded).__name__}")
        data.update(loaded)
    data.update(_config_flags(args))
    return TrainConfig.from_dict(data)


def _echo_config(out_dir: str, command: str, payload: dict) -> None:
    doc = {"command": command, "out_dir": os.path.abspath(out_dir)}
    doc.update(payload)
    atomic_write_text(os.path.join(out_dir, "config.json"),
                      json.dumps(doc, sort_keys=True, indent=2) + "\n")


# newline="" hands quoted line breaks to the csv reader unchanged
def _read_table(args):
    with open(args.table, encoding="utf-8", newline="") as fh:
        return parse_abundance_table(fh, args.delimiter)


def _read_labels(args, table):
    with open(args.labels, encoding="utf-8", newline="") as fh:
        return read_labels(fh, table.sample_ids, args.delimiter)


# ---------------------------------------------------------------------------
# subcommands


def cmd_preprocess(args) -> int:
    out_dir = _resolve_out_dir(args)
    policy = FilterPolicy(args.abundance_threshold, args.host_count_threshold)
    _echo_config(out_dir, "preprocess", {
        "table": os.path.abspath(args.table),
        "delimiter": args.delimiter,
        "abundance_threshold": policy.abundance_threshold,
        "host_count_threshold": policy.host_count_threshold,
    })
    table = _read_table(args)
    removed = removal_report(table, policy)
    filtered = filter_low_abundance(table, policy)
    d = args.delimiter
    atomic_write_text(os.path.join(out_dir, "filtered.tsv"),
                      serialize_abundance_table(filtered, d))
    report = "".join(f"{quote_field(name, d)}{d}{count}\n"
                     for name, count in removed)
    atomic_write_text(os.path.join(out_dir, "removed_features.tsv"), report)
    print(f"kept {filtered.n_features} of {table.n_features} features "
          f"({len(removed)} removed)")
    return 0


def cmd_build_graphs(args) -> int:
    from .graph import build_multigraph, edge_list_lines
    out_dir = _resolve_out_dir(args)
    cfg, _, table = _model_and_table(args, out_dir, "build-graphs", {})
    # every relation is built before any file is written
    graphs = build_multigraph(table.values, cfg.threshold).graphs
    for kind, graph in graphs.items():
        lines = edge_list_lines(graph)
        body = "\n".join(lines) + "\n" if lines else ""
        atomic_write_text(
            os.path.join(out_dir, f"edges_{kind.value}.tsv"), body)
        sidecar = {"relation": kind.value, "threshold": cfg.threshold,
                   "n_nodes": graph.n_nodes, "n_edges": graph.n_edges}
        atomic_write_text(
            os.path.join(out_dir, f"edges_{kind.value}.json"),
            json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
        print(f"{kind.value}: {graph.n_edges} edges over {graph.n_nodes} nodes")
    return 0


def cmd_train(args) -> int:
    from . import train as tr
    from .graph import build_multigraph
    out_dir = _resolve_out_dir(args)
    cfg, _, table = _model_and_table(args, out_dir, "train", {})
    mg = build_multigraph(table.values, cfg.threshold)
    params, trace = tr.train_unsupervised(mg, cfg)
    tr.save_checkpoint(os.path.join(out_dir, "model.ckpt"), params, cfg, trace,
                       table.feature_names)
    body = "".join(f"{i}\t{v!r}\n" for i, v in enumerate(trace))
    atomic_write_text(os.path.join(out_dir, "loss_trace.tsv"), body)
    if trace:
        print(f"trained {len(trace)} epochs, loss {trace[0]!r} -> {trace[-1]!r}")
    else:
        print("trained 0 epochs")
    return 0


def _model_and_table(args, out_dir: str, command: str, echo: dict):
    """(config, trained params or None, table) for a command that reads
    a table under config flags or, for evaluate and embed, a
    --checkpoint. Echoes the resolved config before reading the table,
    which must have the checkpoint's features in the checkpoint's
    order."""
    echo = {"table": os.path.abspath(args.table),
            "delimiter": args.delimiter, **echo}
    ckpt = params = None
    if args.checkpoint:
        if args.config or _config_flags(args):
            raise ValueError(
                "--checkpoint carries its own configuration; drop the "
                f"config flags or {command} end-to-end without --checkpoint")
        from . import train as tr
        ckpt = tr.load_checkpoint(args.checkpoint)
        params, cfg = tr.params_from_checkpoint(ckpt)
        echo["checkpoint"] = os.path.abspath(args.checkpoint)
    else:
        cfg = _resolve_config(args)
    echo["config"] = cfg.as_dict()
    _echo_config(out_dir, command, echo)
    table = _read_table(args)
    if ckpt is not None:
        tr.check_feature_names(ckpt, table.feature_names)
    return cfg, params, table


def cmd_evaluate(args) -> int:
    from . import train as tr
    if args.checkpoint and args.jobs is not None:
        raise ValueError("--jobs spreads training seeds over workers and "
                         "--checkpoint trains none; drop --jobs or evaluate "
                         "without --checkpoint")
    jobs = args.jobs or 1
    out_dir = _resolve_out_dir(args)
    cfg, params, table = _model_and_table(args, out_dir, "evaluate", {
        "labels": os.path.abspath(args.labels), "jobs": jobs})
    labels = _read_labels(args, table)
    report = tr.run_cross_validation(table.values, labels, cfg, jobs=jobs,
                                     params=params)
    tr.save_report(out_dir, report)
    acc = report.aggregate["accuracy"]
    auc = report.aggregate["auc"]
    fmt = tr.format_metric
    print(f"accuracy {fmt(acc['mean'])} +/- {fmt(acc['std'])}, "
          f"auc {fmt(auc['mean'])} +/- {fmt(auc['std'])} "
          f"({len(report.rows)} rows)")
    return 0


def cmd_embed(args) -> int:
    from . import model
    from . import train as tr
    from .graph import build_multigraph
    out_dir = _resolve_out_dir(args)
    cfg, params, table = _model_and_table(args, out_dir, "embed", {})
    mg = build_multigraph(table.values, cfg.threshold)
    if params is None:
        params, _ = tr.train_unsupervised(mg, cfg)
    emb = model.encode(mg.features, mg.normalized, params, cfg)
    d = args.delimiter
    body = "".join(
        quote_field(sid, d) + d + d.join(repr(v) for v in row) + "\n"
        for sid, row in zip(table.sample_ids, emb.tolist()))
    atomic_write_text(os.path.join(out_dir, "embeddings.tsv"), body)
    print(f"wrote {emb.shape[0]} x {emb.shape[1]} embedding matrix")
    return 0


def cmd_synth(args) -> int:
    out_dir = _resolve_out_dir(args)
    # synth_cohort checks every argument, so it runs before the echo
    table, labels = synth_cohort(args.n_per_class, args.n_features,
                                 args.separation, args.seed)
    _echo_config(out_dir, "synth", {
        "n_per_class": args.n_per_class,
        "n_features": args.n_features,
        "separation": args.separation,
        "seed": args.seed,
    })
    atomic_write_text(os.path.join(out_dir, "abundance.tsv"),
                      serialize_abundance_table(table))
    atomic_write_text(os.path.join(out_dir, "labels.tsv"),
                      serialize_labels(table.sample_ids, labels))
    print(f"wrote {table.n_samples} samples x {table.n_features} features")
    return 0


def cmd_gradcheck(args) -> int:
    from .gradcheck import DEFAULT_TOLERANCE, gradient_check
    out_dir = _resolve_out_dir(args)
    if args.seed < 0:
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    _echo_config(out_dir, "gradcheck", {
        "seed": args.seed,
        "tolerance": DEFAULT_TOLERANCE,
    })
    errors = gradient_check(seed=args.seed)
    failing = []
    for group in sorted(errors):
        status = "ok" if errors[group] < DEFAULT_TOLERANCE else "FAIL"
        print(f"{group}\t{errors[group]:.3e}\t{status}")
        if errors[group] >= DEFAULT_TOLERANCE:
            failing.append(group)
    if failing:
        print(f"gradient check failed for: {', '.join(failing)}",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gutgraph",
        description="Multi-graph embedding pipeline for abundance tables")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="drop low-abundance features")
    _add_common(p)
    p.add_argument("--abundance-threshold", type=float,
                   default=FilterPolicy.abundance_threshold)
    p.add_argument("--host-count-threshold", type=int,
                   default=FilterPolicy.host_count_threshold)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("build-graphs", help="export relation edge lists")
    _add_common(p)
    _add_config_options(p)
    p.set_defaults(func=cmd_build_graphs, checkpoint=None)

    p = sub.add_parser("train", help="unsupervised training, no labels read")
    _add_common(p)
    _add_config_options(p)
    p.set_defaults(func=cmd_train, checkpoint=None)

    p = sub.add_parser("evaluate", help="repeated k-fold evaluation")
    _add_common(p, labels=True)
    _add_config_options(p)
    p.add_argument("--checkpoint", help="evaluate a saved model instead of "
                   "training per seed")
    p.add_argument("--jobs", type=_positive_int,
                   help="parallel seed workers, 1 if omitted (results "
                   "independent of this); not with --checkpoint")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("embed", help="write the merged embedding matrix")
    _add_common(p)
    _add_config_options(p)
    p.add_argument("--checkpoint", help="reuse a saved model")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("synth", help="generate a synthetic two-class cohort")
    _add_common(p, table=False)
    p.add_argument("--n-per-class", type=int, required=True)
    p.add_argument("--n-features", type=int, default=60)
    p.add_argument("--separation", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    _add_common(p, table=False)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    pin_allocator()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TrainingDivergedError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
