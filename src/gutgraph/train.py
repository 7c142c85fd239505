"""Training loops, evaluation metrics, cross-validation, checkpoints.

Two stages: the unsupervised stage fits the encoder/attention/
discriminator parameters against the joint loss and never sees labels
(they are not even a parameter); the supervised stage freezes the
encoder and fits a small softmax head on the merged embeddings. The
head is plain numpy with its closed-form gradient (``head_gradients``),
so the tape serves only the unsupervised objective.

The corruption permutation of the Shuffled-Graph belongs to training:
``train_unsupervised`` draws it from the run's seed, so one
``MultiGraph`` serves every cross-validation seed.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import json
import os
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import model
from .graph import MultiGraph, build_multigraph, shuffle_features
from .ingest import kfold_split
from .runtime import (TrainConfig, TrainingDivergedError, atomic_write_bytes,
                      atomic_write_text, pin_allocator)


def train_unsupervised(mg: MultiGraph, cfg: TrainConfig
                       ) -> tuple[model.ModelParams, list[float]]:
    """Fit the unsupervised objective; returns params and the per-epoch
    loss trace (recorded before each update). Labels play no part here.

    Corruption permutations come from their own stream of the run's
    seed. By default a fresh one is drawn every epoch; with
    ``fresh_corruption=False`` the first epoch's is reused throughout,
    so both runs start from the same loss.
    """
    root = np.random.SeedSequence(cfg.seed)
    init_ss, corrupt_ss = root.spawn(2)
    params = model.init_model_params(mg.features.shape[1], cfg,
                                     np.random.default_rng(init_ss))
    tensors = list(params.named_tensors().values())
    optimizer = ad.Adam([t.data for t in tensors], lr=cfg.learning_rate)
    corrupt_rng = np.random.default_rng(corrupt_ss)
    trace: list[float] = []
    for epoch in range(cfg.epochs):
        if epoch == 0 or cfg.fresh_corruption:
            x_shuffled, _ = shuffle_features(mg.features, corrupt_rng)
        with ad.Tape() as tape:
            result = model.joint_forward(mg.features, x_shuffled, mg.normalized,
                                         params, cfg)
            value = result.loss.item()
            if not np.isfinite(value):
                raise TrainingDivergedError(epoch + 1, trace)
            trace.append(value)
            grads = tape.backward(result.loss, tensors)
        # the step works in place: clip scales these arrays, and Adam,
        # through its one scratch buffer, turns them into its update
        try:
            ad.clip_global_norm(grads, cfg.clip_norm, optimizer.scratch)
        except FloatingPointError:
            raise TrainingDivergedError(epoch + 1, trace, "gradient norm") from None
        optimizer.step(grads)
        grads = None  # spent: the next forward pass runs without them
    return params, trace


# ---------------------------------------------------------------------------
# supervised head


@dataclass
class ClassifierHead:
    """Softmax head plus the train-fold standardization it was fit
    under. Embedding scales drift freely during the unsupervised stage,
    so the head normalizes its inputs with statistics computed on the
    training fold only (label-free)."""

    weight: np.ndarray
    bias: np.ndarray
    mean: np.ndarray
    scale: np.ndarray


_HEAD_LEARNING_RATE = 0.05


def head_gradients(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                   y: np.ndarray) -> list[np.ndarray]:
    """[dL/dw, dL/db] of the mean softmax cross-entropy L of the linear
    head ``x @ w + b`` against integer labels ``y``, in closed form:
    the logit gradient is (softmax - onehot) / n. The softmax subtracts
    the row max and exponentiates the log-softmax, so the gradient keeps
    its bits whatever the logit scale. With two classes, the row max and
    row sum are one elementwise operation on the two columns (the bits of
    the axis-1 reductions, at a fraction of their cost), and the logits are
    worked in place."""
    n = x.shape[0]
    z = x @ w
    z += b
    z -= np.maximum(z[:, :1], z[:, 1:])
    e = np.exp(z)
    s = e[:, :1] + e[:, 1:]
    z -= np.log(s, out=s)
    g = np.exp(z, out=z)
    # minus the one-hot labels: y in column 1, 1 - y in column 0
    g[:, 1] -= y
    g[:, 0] -= y == 0
    g /= n
    return [x.T @ g, g.sum(axis=0, keepdims=True)]


def train_classifier(embeddings: np.ndarray, labels: np.ndarray,
                     train_idx: np.ndarray, cfg: TrainConfig,
                     seed) -> ClassifierHead:
    """Fit the softmax head, its weights drawn from ``seed``, on frozen
    embeddings with full-batch Adam on the closed-form
    ``head_gradients``. A zero-step budget returns the freshly
    initialized head."""
    train_idx = np.asarray(train_idx)
    y = _training_labels(labels, train_idx)
    x_train = embeddings[train_idx]
    mean = x_train.mean(axis=0)
    scale = x_train.std(axis=0)
    scale = np.where(scale == 0.0, 1.0, scale)
    d = embeddings.shape[1]
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(d)
    w = rng.uniform(-bound, bound, size=(d, 2))
    b = np.zeros((1, 2))
    x = (x_train - mean) / scale
    optimizer = ad.Adam([w, b], lr=_HEAD_LEARNING_RATE)
    for _ in range(cfg.classifier_steps):
        optimizer.step(head_gradients(x, w, b, y))
    return ClassifierHead(w, b, mean, scale)


def _training_labels(labels: np.ndarray, train_idx: np.ndarray) -> np.ndarray:
    """``labels[train_idx]``, refused unless they hold both classes, 0
    and 1, and nothing else."""
    if train_idx.size == 0:
        raise ValueError("empty training fold")
    y = np.asarray(labels)[train_idx]
    bad = sorted(set(y.tolist()) - {0, 1})
    if bad:
        raise ValueError(f"labels must be 0 or 1, found {bad}")
    if np.unique(y).size < 2:
        raise ValueError("training fold contains a single class")
    return y


def head_scores(head: ClassifierHead, embeddings: np.ndarray) -> np.ndarray:
    """P(class 1) per row under the head's own standardization."""
    return model.predict_proba((embeddings - head.mean) / head.scale,
                               head.weight, head.bias)


# ---------------------------------------------------------------------------
# metrics


@dataclass
class MetricsRow:
    seed_index: int
    fold: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float | None
    n_test: int


def threshold_metrics(scores: np.ndarray, labels: np.ndarray) -> dict[str, float]:
    """Confusion-matrix metrics with predicted positive iff score > 0.5.
    Zero predicted positives define precision (and then f1) as 0 rather
    than dividing by zero."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pred = scores > 0.5
    actual = labels == 1
    tp = int(np.sum(pred & actual))
    fp = int(np.sum(pred & ~actual))
    fn = int(np.sum(~pred & actual))
    tn = int(np.sum(~pred & ~actual))
    total = tp + fp + fn + tn
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if (precision + recall) > 0 else 0.0)
    return {"accuracy": accuracy, "precision": precision,
            "recall": recall, "f1": f1}


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing the average of their positions:
    a group of equal scores at sorted positions start .. end ranks
    (start + end) / 2. NaN scores tie with each other."""
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    end = np.cumsum(counts)
    return ((end - counts + 1 + end) / 2.0)[group]


def auc_score(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-statistic AUC; a tied positive/negative pair counts 1/2.
    Needs both classes present."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    ranks = _average_ranks(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


# ---------------------------------------------------------------------------
# cross-validation


@dataclass
class MetricsReport:
    rows: list[MetricsRow]
    aggregate: dict[str, dict[str, float | None]]
    config: dict
    # each seed's loss trace, empty where the encoder was given
    traces: list[list[float]] = field(repr=False)


_METRIC_NAMES = ("accuracy", "precision", "recall", "f1", "auc")


def aggregate_rows(rows: list[MetricsRow]) -> dict[str, dict[str, float | None]]:
    """Mean and (population) std per metric; AUC aggregates only over
    rows where it is defined, and with no such row its mean and std
    are None."""
    out: dict[str, dict[str, float | None]] = {}
    for name in _METRIC_NAMES:
        vals = [getattr(r, name) for r in rows if getattr(r, name) is not None]
        if vals:
            arr = np.asarray(vals, dtype=np.float64)
            out[name] = {"mean": float(arr.mean()), "std": float(arr.std()),
                         "count": len(vals)}
        else:
            out[name] = {"mean": None, "std": None, "count": 0}
    return out


def _draw_split(labels: np.ndarray, cfg: TrainConfig, seed_index: int) -> np.ndarray:
    """The fold of each sample under the split drawn at seed ``cfg.seed +
    seed_index``. A split depends on nothing the encoder learns, so it is
    drawn, and a training fold the head could not fit on is refused,
    before any graph is built or any encoder trained."""
    fold_of_sample = kfold_split(labels.size, cfg.folds, seed=cfg.seed + seed_index)
    for fold in range(cfg.folds):
        _training_labels(labels, np.flatnonzero(fold_of_sample != fold))
    return fold_of_sample


def _fold_rows(embeddings: np.ndarray, labels: np.ndarray, cfg: TrainConfig,
               seed_index: int, fold_of_sample: np.ndarray) -> list[MetricsRow]:
    """One head per fold of ``fold_of_sample``, seed index
    ``seed_index``'s split (``_draw_split``), each scored on its held-out
    fold."""
    run_seed = cfg.seed + seed_index
    rows: list[MetricsRow] = []
    for fold in range(cfg.folds):
        train_idx = np.flatnonzero(fold_of_sample != fold)
        test_idx = np.flatnonzero(fold_of_sample == fold)
        head = train_classifier(embeddings, labels, train_idx, cfg,
                                seed=(run_seed, fold))
        scores = head_scores(head, embeddings[test_idx])
        y_test = labels[test_idx]
        metrics = threshold_metrics(scores, y_test)
        if np.unique(y_test).size < 2:
            warnings.warn(
                f"seed {seed_index} fold {fold}: single-class test fold, "
                "AUC excluded", RuntimeWarning)
            auc = None
        else:
            auc = auc_score(scores, y_test)
        rows.append(MetricsRow(seed_index=seed_index, fold=fold, auc=auc,
                               n_test=int(test_idx.size), **metrics))
    return rows


def _evaluate_single_seed(mg: MultiGraph, labels: np.ndarray,
                          cfg: TrainConfig, seed_index: int,
                          fold_of_sample: np.ndarray,
                          params: model.ModelParams | None = None
                          ) -> tuple[list[MetricsRow], list[float]]:
    """Seed index ``seed_index``'s fold rows and loss trace; an encoder
    given as ``params`` is scored as it is, with an empty trace."""
    trace: list[float] = []
    if params is None:
        run_cfg = dataclasses.replace(cfg, seed=cfg.seed + seed_index)
        params, trace = train_unsupervised(mg, run_cfg)
    embeddings = model.encode(mg.features, mg.normalized, params, cfg)
    return _fold_rows(embeddings, labels, cfg, seed_index, fold_of_sample), trace


def run_cross_validation(values: np.ndarray, labels: np.ndarray,
                         cfg: TrainConfig, jobs: int = 1,
                         params: model.ModelParams | None = None
                         ) -> MetricsReport:
    """Repeated k-fold evaluation: one unsupervised run per seed (the
    stage is label-free, so refitting it per fold would reproduce the
    same parameters), then one classifier per fold. The graphs use ALL
    samples and no seed, so they are built once and shared by every
    seed and every worker; the split only gates which labels the
    classifier sees, and every seed's split is drawn (``_draw_split``)
    before the graphs are built. Rows come in (seed, fold) order
    whatever ``jobs`` is.

    With an already-trained encoder ``params`` (the checkpoint path),
    nothing is trained and only seed index 0's folds are scored,
    whatever ``cfg.eval_seeds`` is."""
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.shape != (values.shape[0],):
        raise ValueError(
            f"labels shape {labels.shape} does not match {values.shape[0]} samples")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    indices = range(cfg.eval_seeds if params is None else 1)
    splits = [_draw_split(labels, cfg, i) for i in indices]
    mg = build_multigraph(values, cfg.threshold)
    if jobs == 1 or len(indices) == 1:
        results = [_evaluate_single_seed(mg, labels, cfg, i, splits[i], params)
                   for i in indices]
    else:
        # imported here: the pool pulls in multiprocessing, socket and
        # logging, which no other command needs
        from concurrent.futures import ProcessPoolExecutor
        n = len(indices)
        # a worker started by spawn or forkserver does not inherit the
        # parent's allocator thresholds
        with ProcessPoolExecutor(max_workers=min(jobs, n),
                                 initializer=pin_allocator) as pool:
            results = list(pool.map(_evaluate_single_seed, [mg] * n,
                                    [labels] * n, [cfg] * n, indices, splits))
    rows = [row for seed_rows, _ in results for row in seed_rows]
    traces = [trace for _, trace in results]
    return MetricsReport(rows=rows, aggregate=aggregate_rows(rows),
                         config=cfg.as_dict(), traces=traces)


# ---------------------------------------------------------------------------
# report serialization


def report_to_json(report: MetricsReport) -> str:
    payload = {
        "rows": [dataclasses.asdict(r) for r in report.rows],
        "aggregate": report.aggregate,
        "config": report.config,
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def format_metric(value: float | None) -> str:
    """Four decimals, or ``-`` for an undefined value."""
    return "-" if value is None else f"{value:.4f}"


def report_to_text(report: MetricsReport) -> str:
    lines = [f"{'seed':>4} {'fold':>4} {'acc':>8} {'prec':>8} {'rec':>8} "
             f"{'f1':>8} {'auc':>8} {'n':>4}"]
    for r in report.rows:
        lines.append(f"{r.seed_index:>4} {r.fold:>4} {r.accuracy:8.4f} "
                     f"{r.precision:8.4f} {r.recall:8.4f} {r.f1:8.4f} "
                     f"{format_metric(r.auc):>8} {r.n_test:>4}")
    lines.append("")
    for name in _METRIC_NAMES:
        agg = report.aggregate[name]
        lines.append(f"{name:>9}: {format_metric(agg['mean'])} +/- "
                     f"{format_metric(agg['std'])} "
                     f"(n={agg['count']})")
    return "\n".join(lines) + "\n"


def save_report(out_dir: str, report: MetricsReport) -> None:
    """Write the report as ``metrics.json`` and ``metrics.txt`` in ``out_dir``."""
    atomic_write_text(os.path.join(out_dir, "metrics.json"), report_to_json(report))
    atomic_write_text(os.path.join(out_dir, "metrics.txt"), report_to_text(report))


# ---------------------------------------------------------------------------
# checkpoints


class CheckpointError(ValueError):
    """Corrupt, truncated, or version-mismatched checkpoint file, or one
    trained on other features than the table it is applied to."""


_MAGIC = b"GGCK"
_VERSION = 2


@dataclass
class Checkpoint:
    config: dict
    feature_names: list[str]
    tensors: dict[str, np.ndarray]
    trace: list[float]


def _put_text(buf: io.BytesIO, text: str) -> None:
    encoded = text.encode("utf-8")
    buf.write(struct.pack("<I", len(encoded)))
    buf.write(encoded)


def checkpoint_bytes(params: model.ModelParams, cfg: TrainConfig,
                     trace: list[float], feature_names: list[str]) -> bytes:
    """Version 2 layout, little-endian: magic, version, config JSON, the
    training table's feature names in column order, loss trace, named
    tensors. Every string is a u32 byte count plus UTF-8."""
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<I", _VERSION))
    _put_text(buf, json.dumps(cfg.as_dict(), sort_keys=True, separators=(",", ":")))
    buf.write(struct.pack("<I", len(feature_names)))
    for name in feature_names:
        _put_text(buf, name)
    buf.write(struct.pack("<I", len(trace)))
    buf.write(np.asarray(trace, dtype="<f8").tobytes())
    named = params.named_tensors()
    buf.write(struct.pack("<I", len(named)))
    for name, tensor in named.items():
        _put_text(buf, name)
        rows, cols = tensor.data.shape
        buf.write(struct.pack("<II", rows, cols))
        buf.write(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())
    return buf.getvalue()


def save_checkpoint(path: str, params: model.ModelParams, cfg: TrainConfig,
                    trace: list[float], feature_names: list[str]) -> None:
    atomic_write_bytes(path, checkpoint_bytes(params, cfg, trace, feature_names))


class _Reader:
    def __init__(self, blob: bytes):
        self._blob = blob
        self._pos = 0

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._blob):
            raise CheckpointError(
                f"truncated checkpoint: wanted {n} bytes at offset {self._pos}, "
                f"file has {len(self._blob)}")
        out = self._blob[self._pos:self._pos + n]
        self._pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self) -> str:
        start = self._pos
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"corrupt string at offset {start}") from None

    def done(self) -> bool:
        return self._pos == len(self._blob)


def parse_checkpoint(blob: bytes) -> Checkpoint:
    """Inverse of ``checkpoint_bytes``; any damage raises CheckpointError.
    Training raises ``TrainingDivergedError`` before it could save a
    non-finite value, so a non-finite tensor entry or trace value marks a
    damaged file and is refused too."""
    r = _Reader(blob)
    if r.take(4) != _MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    version = r.u32()
    if version != _VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version}, expected {_VERSION}; "
            "retrain the model with `gutgraph train`")
    try:
        config = json.loads(r.text())
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt config JSON: {exc}") from None
    feature_names = [r.text() for _ in range(r.u32())]
    n_trace = r.u32()
    trace = np.frombuffer(r.take(8 * n_trace), dtype="<f8")
    if not np.isfinite(trace).all():
        raise CheckpointError("checkpoint loss trace holds a non-finite value")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(r.u32()):
        name = r.text()
        rows, cols = struct.unpack("<II", r.take(8))
        data = np.frombuffer(r.take(8 * rows * cols), dtype="<f8")
        if not np.isfinite(data).all():
            raise CheckpointError(
                f"checkpoint tensor {name!r} holds a non-finite value")
        tensors[name] = data.reshape(rows, cols).copy()
    if not r.done():
        raise CheckpointError("trailing bytes after checkpoint payload")
    return Checkpoint(config=config, feature_names=feature_names,
                      tensors=tensors, trace=trace.tolist())


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        return parse_checkpoint(fh.read())


def check_feature_names(ckpt: Checkpoint, feature_names: list[str]) -> None:
    """Refuse a table whose features differ from the training table's,
    in name or in order: the encoder reads features by column."""
    for i, (want, got) in enumerate(itertools.zip_longest(ckpt.feature_names,
                                                          feature_names)):
        if want != got:
            raise CheckpointError(
                f"table feature {i} is {'missing' if got is None else repr(got)}, "
                f"the checkpoint was trained with "
                f"{'none' if want is None else repr(want)} there")


def params_from_checkpoint(ckpt: Checkpoint) -> tuple[model.ModelParams, TrainConfig]:
    """The parameters the checkpoint's config describes, filled with its
    tensors by name; a missing, extra or wrong-shaped tensor is refused."""
    try:
        cfg = TrainConfig.from_dict(ckpt.config)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid checkpoint config: {exc}") from None
    if not ckpt.feature_names:
        raise CheckpointError("checkpoint names no features")
    # every initial value is overwritten below; the draw only sets shapes
    params = model.init_model_params(len(ckpt.feature_names), cfg,
                                     np.random.default_rng(0))
    named = params.named_tensors()
    for name, tensor in named.items():
        stored = ckpt.tensors.get(name)
        if stored is None:
            raise CheckpointError(f"checkpoint is missing tensor {name!r}")
        if stored.shape != tensor.data.shape:
            raise CheckpointError(
                f"checkpoint tensor {name!r} has shape {stored.shape}, "
                f"its config needs {tensor.data.shape}")
        tensor.data[...] = stored
    extra = sorted(set(ckpt.tensors) - set(named))
    if extra:
        raise CheckpointError(f"unexpected tensors in checkpoint: {extra[:3]}")
    return params, cfg
