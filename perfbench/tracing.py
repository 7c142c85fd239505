"""Spans around calls into gutgraph, and the per-layer numbers made from them.

A span is one call into a wrapped gutgraph function, stored as the list
``[name, parent, start, end, attrs]``: ``name`` is ``layer.function``
(``autodiff.Tape.backward``), ``parent`` is the index of the span that was
open when the call began (-1 at top level), ``start`` and ``end`` come from
``time.perf_counter`` and ``attrs`` holds sizes or counts taken from the
call. Spans stay in memory until the traced command ends.

This module needs only the standard library, so ``run.py`` can import it
without loading numpy.
"""

from __future__ import annotations

import functools
import math
import statistics
import time

LAYERS = ("ingest", "graph", "model", "autodiff", "train")


class Recorder:
    """Collects the spans of one process; single-threaded by design."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, probe=None):
        """Return ``fn`` recording one span per call. ``probe(args, kwargs,
        result)`` may return a dict of attributes for the span; it runs
        after the span is closed, so its cost is not charged to ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._open[-1] if self._open else -1,
                    time.perf_counter(), None, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if probe is not None:
                try:
                    span[4] = probe(args, kwargs, result)
                except Exception as exc:  # a probe must never break the program
                    span[4] = {"probe_error": repr(exc)}
            return result

        return traced


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= s[3] - s[2]
    return out


def layer_self_times(spans: list[list]) -> dict[str, float]:
    """Self time summed per layer, the layer being the span name's prefix."""
    totals = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        layer = span[0].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def percentile(values, q: float) -> float:
    """Linearly interpolated q-th percentile (0 <= q <= 100), the rule
    numpy uses by default; 0.0 for an empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _under(spans: list[list], ancestor: str) -> list[bool]:
    """For each span, whether some enclosing span is named ``ancestor``.
    Parents always precede their children in ``spans``."""
    flags: list[bool] = []
    for s in spans:
        p = s[1]
        flags.append(p >= 0 and (spans[p][0] == ancestor or flags[p]))
    return flags


def per_layer_metrics(traced: list[list[dict]], overheads: list[float]
                      ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from traced iterations.

    ``traced`` holds one list per iteration of command records, each a
    dict with ``spans``, ``startup_s`` (process start to ``main``) and
    ``wall_s`` (spawn to exit, as ``run.py`` measured it). Totals are per
    iteration; ``_ms`` metrics are per call. A stage the workload never
    enters reads 0. ``overheads`` holds, for each traced iteration that
    directly followed an untraced one, its wall time minus that untraced
    iteration's; the tracing overhead is their median.
    """
    k = len(traced)
    commands = [c for iteration in traced for c in iteration]
    calls: dict[str, list[tuple[float, dict, bool]]] = {}
    epoch_s, epochs = 0.0, 0
    layer_self = {layer: 0.0 for layer in LAYERS}
    for command in commands:
        spans = command["spans"]
        in_training = _under(spans, "train.train_unsupervised")
        for i, s in enumerate(spans):
            calls.setdefault(s[0], []).append((s[3] - s[2], s[4] or {}, in_training[i]))
            if s[0] == "train.train_unsupervised":
                # epoch loop = the call minus its set-up children
                epoch_s += s[3] - s[2]
            elif s[1] >= 0 and spans[s[1]][0] == "train.train_unsupervised":
                if s[0] in ("model.init_model_params", "train.normalized_adjacencies"):
                    epoch_s -= s[3] - s[2]
                elif s[0] == "model.joint_forward":
                    epochs += 1
        for layer, own in layer_self_times(spans).items():
            layer_self[layer] = layer_self.get(layer, 0.0) + own

    def durations(name, training_only=False):
        return [d for d, _, t in calls.get(name, []) if t or not training_only]

    def per_iteration(*names):
        return sum(sum(durations(n)) for n in names) / k

    def attr(name, key):
        return [a[key] for _, a, _ in calls.get(name, []) if key in a]

    parse_s = sum(durations("ingest.parse_abundance_table"))
    distance = calls.get("graph.pairwise_distances", [])
    distance_s = sum(d for d, _, _ in distance)
    pairs = sum(a["n"] * (a["n"] - 1) // 2 for _, a, _ in distance)
    forward = durations("model.joint_forward")
    backward = durations("autodiff.Tape.backward", training_only=True)
    steps = durations("autodiff.Adam.step", training_only=True)
    optimizer = sum(steps) + sum(durations("autodiff.clip_global_norm", True))
    densities = attr("graph.build_relation_graph", "density")
    flop = attr("model.joint_forward", "gemm_flop")
    ops = [a["ops"] for _, a, t in calls.get("autodiff.Tape.backward", [])
           if t and "ops" in a]
    wall = sum(c["wall_s"] for c in commands)
    m = {
        "ingest.parse_s": (parse_s / k, "s"),
        "ingest.parse_cells_per_s": (
            sum(attr("ingest.parse_abundance_table", "cells")) / parse_s
            if parse_s else 0.0, "1/s"),
    }
    for kind in ("bray_curtis", "euclidean", "canberra"):
        m[f"graph.distance_s.{kind}"] = (
            sum(d for d, a, _ in distance if a.get("kind") == kind) / k, "s")
    m.update({
        "graph.pairs_per_s": (pairs / distance_s if distance_s else 0.0, "1/s"),
        "graph.threshold_s": (per_iteration("graph.build_relation_graph"), "s"),
        "graph.normalize_s": (per_iteration("graph.normalize_adjacency"), "s"),
        "graph.edge_density": (statistics.fmean(densities) if densities else 0.0,
                               "ratio"),
        "model.forward_ms": (1e3 * percentile(forward, 50), "ms"),
        "model.forward_ms_p90": (1e3 * percentile(forward, 90), "ms"),
        "model.gemm_gflop_per_epoch": (flop[0] / 1e9 if flop else 0.0,
                                       "GFLOP-computed"),
        "model.encode_s": (per_iteration("model.encode"), "s"),
        "autodiff.backward_ms": (1e3 * percentile(backward, 50), "ms"),
        "autodiff.backward_ms_p90": (1e3 * percentile(backward, 90), "ms"),
        "autodiff.tape_ops": (percentile(ops, 50), "count"),
        "autodiff.optimizer_ms": (1e3 * optimizer / len(steps) if steps else 0.0,
                                  "ms"),
        "train.epoch_ms": (1e3 * epoch_s / epochs if epochs else 0.0, "ms"),
        "train.classifier_ms": (
            1e3 * percentile(durations("train.train_classifier"), 50), "ms"),
        "train.metrics_ms": (1e3 * per_iteration(
            "train.threshold_metrics", "train.auc_score", "train.aggregate_rows"),
            "ms"),
        "train.write_s": (per_iteration("train.atomic_write_bytes"), "s"),
        "train.write_bytes": (sum(attr("train.atomic_write_bytes", "bytes")) / k, "B"),
        "cli.startup_s": (percentile([c["startup_s"] for c in commands], 50), "s"),
    })
    for layer in LAYERS:
        m[f"share.{layer}"] = (layer_self[layer] / wall, "ratio")
    m["trace.overhead_s"] = (percentile(overheads, 50), "s")
    return m
