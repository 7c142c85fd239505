"""Run one gutgraph command in-process with spans around its layers.

    python3 perfbench/worker.py SPANS_JSON SPAWN_TIME CLI_ARG...

SPAWN_TIME is the ``time.monotonic()`` reading taken by the parent just
before it started this process, so start-up is measured the way a user
pays it. The worker imports ``gutgraph.cli``, wraps the layer-boundary
functions listed in ``TARGETS`` wherever a gutgraph module holds a
reference to them, calls ``gutgraph.cli.main`` with CLI_ARG..., writes the
spans to SPANS_JSON and exits with main's return code. No file of the
program is changed.

Functions called once per distance pair (``bray_curtis`` and friends) or
once per tape operation (``autodiff.matmul`` and the other primitives) are
deliberately not wrapped: a span each would cost more than the work.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import gutgraph.cli

from tracing import Recorder

STARTED = time.monotonic()


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _gcn_gemm_flop(args, kwargs, result):
    """Forward GEMM work of the GCN stacks in one joint_forward call,
    computed from the shapes: per relation, view and layer, A @ H costs
    2*N*N*d_in and (A H) @ W costs 2*N*d_in*d_out."""
    x = _arg(args, kwargs, 0, "x")
    params = _arg(args, kwargs, 3, "params")
    n, features = x.shape
    flop = 0
    for stack in params.layers.values():
        d_in = features
        for weight, _ in stack:
            d_out = weight.data.shape[1]
            flop += 2 * (2 * n * n * d_in + 2 * n * d_in * d_out)  # two views
            d_in = d_out
    return {"gemm_flop": flop}


def _edge_density(args, kwargs, result):
    n = result.n_nodes
    return {"density": result.n_edges / (n * (n - 1) // 2)}


# layer.function -> probe for span attributes, or None
TARGETS = {
    "ingest.parse_abundance_table": lambda a, k, r: {"cells": int(r.values.size)},
    "ingest.serialize_abundance_table": None,
    "ingest.read_labels": None,
    "ingest.serialize_labels": None,
    "ingest.filter_low_abundance": None,
    "ingest.removal_report": None,
    "ingest.kfold_split": None,
    "ingest.synth_cohort": None,
    "graph.pairwise_distances": lambda a, k, r: {
        "kind": _arg(a, k, 1, "kind").value, "n": int(r.shape[0])},
    "graph.build_relation_graph": _edge_density,
    "graph.normalize_adjacency": None,
    "graph.shuffle_features": None,
    "graph.build_multigraph": None,
    "graph.edge_list_lines": None,
    "model.init_model_params": None,
    "model.joint_forward": _gcn_gemm_flop,
    "model.encode": None,
    "model.classifier_logits": None,
    "model.predict_proba": None,
    "autodiff.Tape.backward": lambda a, k, r: {"ops": len(a[0])},
    "autodiff.gather_grads": None,
    "autodiff.clip_global_norm": None,
    "autodiff.Adam.step": None,
    "train.train_unsupervised": None,
    "train.embeddings_for": None,
    "train.normalized_adjacencies": None,
    "train.train_classifier": None,
    "train.head_scores": None,
    "train.threshold_metrics": None,
    "train.auc_score": None,
    "train.aggregate_rows": None,
    "train.run_cross_validation": None,
    "train.evaluate_with_params": None,
    "train.report_to_json": None,
    "train.report_to_text": None,
    "train.checkpoint_bytes": None,
    "train.save_checkpoint": None,
    "train.load_checkpoint": None,
    "train.params_from_checkpoint": None,
    "train.atomic_write_bytes": lambda a, k, r: {
        "bytes": len(_arg(a, k, 1, "blob"))},
    "train.atomic_write_text": None,
}


def install(recorder: Recorder, targets=TARGETS) -> list[str]:
    """Wrap every target in its defining module or class and in every
    loaded gutgraph module that imported it by name. Returns the targets
    this version of the program does not have."""
    missing = []
    modules = [m for name, m in sys.modules.items()
               if name == "gutgraph" or name.startswith("gutgraph.")]
    for qualname, probe in targets.items():
        layer, *path = qualname.split(".")
        owner = importlib.import_module(f"gutgraph.{layer}")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, path[-1], None)
        if original is None:
            missing.append(qualname)
            continue
        wrapped = recorder.wrap(qualname, original, probe)
        setattr(owner, path[-1], wrapped)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
    return missing


def main() -> int:
    spans_path, spawned = sys.argv[1], float(sys.argv[2])
    startup_s = STARTED - spawned
    recorder = Recorder()
    missing = install(recorder)
    if missing:
        print(f"perfbench: not in this program, not traced: {', '.join(missing)}",
              file=sys.stderr)
    code = gutgraph.cli.main(sys.argv[3:])
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"startup_s": startup_s, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
