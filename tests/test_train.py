"""Tests for the training loops, metrics, cross-validation and the
checkpoint format."""

import concurrent.futures
import dataclasses
import os
import platform
import stat
import struct
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gutgraph.autodiff as ad
import gutgraph.graph as gg
import gutgraph.model as gm
import gutgraph.train as gt
from gutgraph.graph import build_multigraph, shuffle_features
from gutgraph.ingest import synth_cohort


def small_cfg(**overrides) -> gt.TrainConfig:
    base = dict(embed_dim=6, gcn_layers=2, bins=4, heads=2, epochs=5,
                learning_rate=1e-3, seed=0, folds=3, eval_seeds=1,
                classifier_steps=40)
    base.update(overrides)
    return gt.TrainConfig(**base)


def fresh_params(mg, cfg) -> gm.ModelParams:
    """The initial draw ``train_unsupervised`` starts from under ``cfg``."""
    init_ss = np.random.SeedSequence(cfg.seed).spawn(2)[0]
    return gm.init_model_params(mg.features.shape[1], cfg,
                                np.random.default_rng(init_ss))


def small_problem(n_per_class=6, n_features=10, separation=2.0, seed=3):
    table, labels = synth_cohort(n_per_class, n_features, separation, seed)
    return table.values, labels


# ---------------------------------------------------------------------------
# config


def test_config_defaults_valid():
    cfg = gt.TrainConfig()
    assert cfg.embed_dim == 256
    assert cfg.threshold == 0.6
    assert cfg.histogram_weighting == "magnitude"


_BAD_CONFIGS = [
    ({"embed_dim": 0}, "embed_dim must be >= 1, got 0"),
    ({"gcn_layers": 0}, "gcn_layers must be >= 1, got 0"),
    ({"bins": 0}, "bins must be >= 1, got 0"),
    ({"heads": 0}, "heads must be >= 1, got 0"),
    ({"threshold": 0.0}, "threshold must lie in (0, 1), got 0.0"),
    ({"threshold": 1.0}, "threshold must lie in (0, 1), got 1.0"),
    ({"epochs": -1}, "epochs must be >= 0, got -1"),
    ({"classifier_steps": -1}, "classifier_steps must be >= 0, got -1"),
    ({"learning_rate": -0.1}, "learning_rate must be >= 0, got -0.1"),
    ({"clip_norm": 0.0}, "clip_norm must be positive, got 0.0"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"folds": 1}, "folds must be >= 2, got 1"),
    ({"eval_seeds": 0}, "eval_seeds must be >= 1, got 0"),
    ({"histogram_weighting": "median"}, "unknown histogram_weighting 'median'"),
    ({"learning_rate": float("nan")}, "learning_rate must be a finite number, got nan"),
    ({"learning_rate": float("inf")}, "learning_rate must be a finite number, got inf"),
    ({"clip_norm": float("nan")}, "clip_norm must be a finite number, got nan"),
    ({"clip_norm": float("inf")}, "clip_norm must be a finite number, got inf"),
    # an int no float can hold
    ({"clip_norm": 10**400}, f"clip_norm must be a finite number, got {10**400}"),
]


# index ids: the messages hold spaces, commas and parentheses
@pytest.mark.parametrize("kwargs, message", _BAD_CONFIGS,
                         ids=[f"kwargs{i}" for i in range(len(_BAD_CONFIGS))])
def test_config_rejects_bad_values(kwargs, message):
    with pytest.raises(ValueError) as exc:
        gt.TrainConfig(**kwargs)
    assert str(exc.value) == message


def test_config_dict_round_trip():
    cfg = small_cfg(use_attention=False, histogram_weighting="count")
    assert gt.TrainConfig.from_dict(cfg.as_dict()) == cfg


@pytest.mark.parametrize("name, value", [
    ("gcn_layers", 2.5),
    ("epochs", "3"),
    ("threshold", "0.5"),
    ("use_attention", "no"),
    ("embed_dim", True),
    ("seed", 1.0),
    ("learning_rate", False),
    ("fresh_corruption", 0),
    ("histogram_weighting", 1),
])
def test_config_from_dict_rejects_wrong_types(name, value):
    data = gt.TrainConfig().as_dict()
    data[name] = value
    with pytest.raises(ValueError, match=name):
        gt.TrainConfig.from_dict(data)


def test_config_from_dict_accepts_int_for_float():
    cfg = gt.TrainConfig.from_dict({"clip_norm": 2, "learning_rate": 0})
    assert cfg.clip_norm == 2 and cfg.learning_rate == 0


def test_config_from_dict_rejects_unknown_keys():
    data = gt.TrainConfig().as_dict()
    data["momentum"] = 0.9
    with pytest.raises(ValueError, match="momentum"):
        gt.TrainConfig.from_dict(data)


# ---------------------------------------------------------------------------
# unsupervised loop


def test_zero_learning_rate_keeps_params():
    values, _ = small_problem()
    cfg = small_cfg(learning_rate=0.0, epochs=3)
    mg = build_multigraph(values, cfg.threshold)
    params, trace = gt.train_unsupervised(mg, cfg)
    fresh = fresh_params(mg, cfg)
    for name, tensor in params.named_tensors().items():
        assert tensor.data.tobytes() == fresh.named_tensors()[name].data.tobytes()
    assert len(trace) == 3


@pytest.mark.parametrize("clip_norm", [1e-3, 1e6])
def test_last_steps_gradients_are_gone_when_the_next_forward_starts(monkeypatch,
                                                                   clip_norm):
    # a step's gradients are spent once Adam has stepped: the arrays
    # backward returned, which clip scales and Adam consumes in place, do
    # not outlive their step into the next forward pass, whether clipping
    # fires or not
    values, _ = small_problem()
    cfg = small_cfg(epochs=3, clip_norm=clip_norm)
    mg = build_multigraph(values, cfg.threshold)
    handed = []
    alive_at_start = []
    forward, backward = gm.joint_forward, ad.Tape.backward

    def watched_forward(*args, **kwargs):
        alive_at_start.append(sum(ref() is not None for ref in handed))
        return forward(*args, **kwargs)

    def watched_backward(tape, loss, wrt):
        grads = backward(tape, loss, wrt)
        handed.extend(weakref.ref(g) for g in grads)
        return grads

    monkeypatch.setattr(gm, "joint_forward", watched_forward)
    monkeypatch.setattr(ad.Tape, "backward", watched_backward)
    gt.train_unsupervised(mg, cfg)
    assert len(handed) == 3 * len(fresh_params(mg, cfg).named_tensors())
    assert alive_at_start == [0, 0, 0]


def test_one_epoch_moves_every_parameter():
    # Adam updates the tensors' own arrays; a tensor whose data were
    # rebound would silently stop training. Under each switch the model
    # holds no tensor its objective leaves untrained: no queries without
    # attention, no discriminators without the adversarial loss.
    values, _ = small_problem()
    mg = build_multigraph(values, 0.6)
    dropped = {"use_attention": "attention/", "use_adversarial": "discriminator/"}
    for switch in (None, "fresh_corruption", "use_attention",
                   "two_stage_summary", "use_adversarial"):
        cfg = small_cfg(epochs=1, **({} if switch is None else {switch: False}))
        params, _ = gt.train_unsupervised(mg, cfg)
        fresh = fresh_params(mg, cfg).named_tensors()
        trained = params.named_tensors()
        assert trained.keys() == fresh.keys()
        assert not any(name.startswith(dropped.get(switch, "-")) for name in trained)
        for name, tensor in trained.items():
            assert tensor.data.tobytes() != fresh[name].data.tobytes(), (switch, name)


def test_adversarial_ablation_leaves_discriminators_untouched():
    # without the adversarial loss the model carries no discriminators at
    # all, so none can drift; the encoder must still train
    values, _ = small_problem()
    cfg = small_cfg(use_adversarial=False, epochs=4)
    mg = build_multigraph(values, cfg.threshold)
    params, _ = gt.train_unsupervised(mg, cfg)
    trained = params.named_tensors()
    fresh = fresh_params(mg, cfg).named_tensors()
    assert trained.keys() == fresh.keys()
    assert not any(name.startswith("discriminator/") for name in trained)
    enc = "encoder/bray_curtis/layer0/weight"
    assert trained[enc].data.tobytes() != fresh[enc].data.tobytes()


def test_attention_ablation_leaves_queries_untouched():
    # without attention the model carries no queries at all, so none can
    # drift; the encoder must still train
    values, _ = small_problem()
    cfg = small_cfg(use_attention=False, epochs=4)
    mg = build_multigraph(values, cfg.threshold)
    params, _ = gt.train_unsupervised(mg, cfg)
    trained = params.named_tensors()
    fresh = fresh_params(mg, cfg).named_tensors()
    assert trained.keys() == fresh.keys()
    assert not any(name.startswith("attention/") for name in trained)
    enc = "encoder/bray_curtis/layer0/weight"
    assert trained[enc].data.tobytes() != fresh[enc].data.tobytes()


def test_loss_decreases_on_small_fixture():
    values, _ = small_problem()
    cfg = small_cfg(epochs=30, learning_rate=5e-3)
    mg = build_multigraph(values, cfg.threshold)
    _, trace = gt.train_unsupervised(mg, cfg)
    assert len(trace) == 30
    assert trace[-1] < trace[0]


def test_training_is_bit_deterministic():
    values, _ = small_problem()
    cfg = small_cfg(epochs=4)
    runs = []
    for _ in range(2):
        mg = build_multigraph(values, cfg.threshold)
        params, trace = gt.train_unsupervised(mg, cfg)
        blob = b"".join(t.data.tobytes() for t in params.named_tensors().values())
        runs.append((blob, np.asarray(trace).tobytes()))
    assert runs[0] == runs[1]


def test_static_corruption_differs_from_fresh():
    values, _ = small_problem()
    mg = build_multigraph(values, 0.6)
    _, trace_fresh = gt.train_unsupervised(mg, small_cfg(epochs=4))
    _, trace_static = gt.train_unsupervised(
        mg, small_cfg(epochs=4, fresh_corruption=False))
    # both draw the first permutation from the corruption stream, not from
    # the seed the fold split also uses; the static run then keeps it
    assert trace_static[0] == trace_fresh[0]
    assert trace_fresh != trace_static


def test_divergence_raises_with_trace():
    import warnings
    values, _ = small_problem()
    # an absurd step size overflows the embeddings on the second epoch
    cfg = small_cfg(epochs=50, learning_rate=1e100, clip_norm=1e30)
    mg = build_multigraph(values, cfg.threshold)
    with pytest.raises(gt.TrainingDivergedError) as exc_info:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            gt.train_unsupervised(mg, cfg)
    err = exc_info.value
    assert err.epoch >= 1
    assert len(err.trace) == err.epoch - 1
    assert all(np.isfinite(v) for v in err.trace)


def test_non_finite_gradient_norm_stops_training(monkeypatch):
    # a NaN gradient on the last epoch's step: the loss check would only
    # see the poisoned parameters at an epoch that never comes
    values, _ = small_problem()
    cfg = small_cfg(epochs=2)
    mg = build_multigraph(values, cfg.threshold)
    backward = ad.Tape.backward
    sweeps = []

    def poisoned_backward(tape, loss, wrt):
        grads = backward(tape, loss, wrt)
        sweeps.append(None)
        if len(sweeps) == 2:
            grads[0][0, 0] = np.nan
        return grads

    monkeypatch.setattr(ad.Tape, "backward", poisoned_backward)
    with pytest.raises(gt.TrainingDivergedError,
                       match="non-finite gradient norm at epoch 2") as exc_info:
        gt.train_unsupervised(mg, cfg)
    err = exc_info.value
    assert err.epoch == 2
    assert len(err.trace) == 2 and all(np.isfinite(v) for v in err.trace)


# ---------------------------------------------------------------------------
# allocator policy


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
def test_pin_allocator_applies_under_glibc():
    assert gt.pin_allocator() is True


class _FakeLibc:
    """A loaded C library whose ``mallopt`` records its calls and returns
    ``result``; like a ctypes function, it takes attributes."""

    def __init__(self, result):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return result

        self.mallopt = mallopt


def test_pin_allocator_sets_both_thresholds(monkeypatch):
    libc = _FakeLibc(1)
    monkeypatch.setattr(gt.ctypes, "CDLL", lambda name: libc)
    assert gt.pin_allocator() is True
    # glibc's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD
    assert libc.calls == [(-3, 8 << 20), (-1, 64 << 20)]
    refused = _FakeLibc(0)
    monkeypatch.setattr(gt.ctypes, "CDLL", lambda name: refused)
    assert gt.pin_allocator() is False


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("loader", [lambda name: object(), _no_c_library],
                         ids=["no-mallopt", "no-library"])
def test_pin_allocator_is_a_silent_no_op_without_mallopt(monkeypatch, loader):
    # macOS and Windows C libraries have no mallopt
    monkeypatch.setattr(gt.ctypes, "CDLL", loader)
    assert gt.pin_allocator() is False


# ---------------------------------------------------------------------------
# classifier head


def test_classifier_fits_separable_embeddings():
    rng = np.random.default_rng(0)
    n = 40
    emb = rng.normal(size=(n, 5))
    emb[: n // 2, 0] -= 4.0
    emb[n // 2:, 0] += 4.0
    labels = np.array([0] * (n // 2) + [1] * (n // 2))
    cfg = small_cfg(classifier_steps=300)
    head = gt.train_classifier(emb, labels, np.arange(n), cfg, seed=1)
    scores = gt.head_scores(head, emb)
    metrics = gt.threshold_metrics(scores, labels)
    assert metrics["accuracy"] == 1.0


def test_classifier_zero_steps_returns_init():
    rng = np.random.default_rng(2)
    emb = rng.normal(size=(10, 4))
    labels = np.array([0, 1] * 5)
    cfg = small_cfg(classifier_steps=0)
    head = gt.train_classifier(emb, labels, np.arange(10), cfg, seed=9)
    ref = np.random.default_rng(9)
    bound = 1.0 / np.sqrt(4)
    expected_w = ref.uniform(-bound, bound, size=(4, 2))
    assert head.weight.tobytes() == expected_w.tobytes()
    assert np.all(head.bias == 0.0)
    assert head.mean.tobytes() == emb.mean(axis=0).tobytes()
    assert head.scale.tobytes() == emb.std(axis=0).tobytes()


def test_head_standardization_is_scale_invariant():
    rng = np.random.default_rng(5)
    emb = rng.normal(size=(20, 4))
    emb[:10, 1] -= 3.0
    emb[10:, 1] += 3.0
    labels = np.array([0] * 10 + [1] * 10)
    cfg = small_cfg(classifier_steps=200)
    head_a = gt.train_classifier(emb, labels, np.arange(20), cfg, seed=2)
    head_b = gt.train_classifier(emb * 1e6, labels, np.arange(20), cfg, seed=2)
    s_a = gt.head_scores(head_a, emb)
    s_b = gt.head_scores(head_b, emb * 1e6)
    assert np.allclose(s_a, s_b, atol=1e-9)


def test_classifier_rejects_single_class_fold():
    emb = np.ones((6, 3))
    labels = np.array([0, 0, 0, 1, 1, 1])
    cfg = small_cfg()
    with pytest.raises(ValueError, match="single class"):
        gt.train_classifier(emb, labels, np.array([0, 1, 2]), cfg, seed=0)


def test_classifier_rejects_empty_fold():
    cfg = small_cfg()
    with pytest.raises(ValueError, match="empty"):
        gt.train_classifier(np.ones((4, 2)), np.array([0, 1, 0, 1]),
                            np.array([], dtype=int), cfg, seed=0)


def test_classifier_rejects_labels_outside_zero_one():
    cfg = small_cfg()
    with pytest.raises(ValueError, match=r"0 or 1, found \[2\]"):
        gt.train_classifier(np.ones((4, 2)), np.array([0, 1, 2, 1]),
                            np.arange(4), cfg, seed=0)


def test_classifier_records_nothing_on_a_tape(monkeypatch):
    def no_tape(*args, **kwargs):
        raise AssertionError("the head must not open a tape")

    monkeypatch.setattr(ad, "Tape", no_tape)
    emb = np.random.default_rng(4).normal(size=(12, 3))
    gt.train_classifier(emb, np.array([0, 1] * 6), np.arange(12),
                        small_cfg(classifier_steps=5), seed=1)


def _head_cross_entropy(x, w, b, y):
    """Mean softmax cross-entropy through a log-sum-exp, independent of
    the code under test."""
    z = x @ w + b
    top = z.max(axis=1, keepdims=True)
    lse = (top + np.log(np.exp(z - top).sum(axis=1, keepdims=True)))[:, 0]
    return float(np.mean(lse - z[np.arange(len(y)), y]))


def test_head_gradients_at_zero_weights():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(5, 3))
    y = np.array([0, 1, 0, 1, 0])
    w, b = np.zeros((3, 2)), np.zeros((1, 2))
    assert np.all(gm.predict_proba(x, w, b) == 0.5)
    assert _head_cross_entropy(x, w, b, y) == pytest.approx(np.log(2.0), abs=1e-15)
    onehot = np.eye(2)[y]
    gw, gb = gt.head_gradients(x, w, b, y)
    assert gw.tobytes() == (x.T @ ((0.5 - onehot) / 5)).tobytes()
    assert gb.tobytes() == ((0.5 - onehot) / 5).sum(axis=0, keepdims=True).tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 30), d=st.integers(1, 8), scale=st.floats(0.1, 3.0),
       seed=st.integers(0, 2**32 - 1))
@example(n=2, d=7, scale=2.25, seed=2280834176)
def test_head_gradients_match_finite_differences(n, d, scale, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    w = scale * rng.normal(size=(d, 2))
    b = scale * rng.normal(size=(1, 2))
    y = rng.permutation(np.arange(n) % 2)  # both classes present
    gw, gb = gt.head_gradients(x, w, b, y)
    # five-point central stencil at step 1e-3: the three-point one at step
    # 1e-6 reads 1.0096e-6 on the pinned example, from rounding noise
    step = 1e-3
    for analytic, param in ((gw, w), (gb, b)):
        fd = np.zeros_like(param)
        for idx in np.ndindex(param.shape):
            keep = param[idx]

            def at(offset):
                param[idx] = keep + offset
                return _head_cross_entropy(x, w, b, y)

            fd[idx] = (8.0 * (at(step) - at(-step))
                       - (at(2 * step) - at(-2 * step))) / (12.0 * step)
            param[idx] = keep
        err = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-3)
        assert err < 1e-6


def _head_gradients_by_reductions(x, w, b, y):
    """The head gradient with the softmax's row max and row sum as axis-1
    reductions and the labels subtracted by fancy indexing: the general
    form that ``head_gradients`` specializes to two columns."""
    n = x.shape[0]
    z = x @ w + b
    z = z - z.max(axis=1, keepdims=True)
    g = np.exp(z - np.log(np.exp(z).sum(axis=1, keepdims=True)))
    g[np.arange(n), y] -= 1.0
    g /= n
    return [x.T @ g, g.sum(axis=0, keepdims=True)]


@pytest.mark.parametrize("n, d, scale", [(1, 3, 1.0), (2, 1, 0.1), (9, 4, 30.0),
                                         (96, 16, 1.0), (768, 8, 300.0)])
def test_head_gradients_keep_the_bits_of_the_reductions(n, d, scale):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, d))
    w = scale * rng.normal(size=(d, 2))
    b = scale * rng.normal(size=(1, 2))
    y = rng.integers(0, 2, size=n)
    want = _head_gradients_by_reductions(x, w, b, y)
    got = gt.head_gradients(x, w, b, y)
    assert [g.tobytes() for g in got] == [g.tobytes() for g in want]
    # a NaN logit row spreads NaN through the weight gradient and the
    # bias gradient alike under both forms
    x[n // 2, 0] = np.nan
    want = _head_gradients_by_reductions(x, w, b, y)
    got = gt.head_gradients(x, w, b, y)
    assert np.isnan(got[1]).all()
    assert [g.tobytes() for g in got] == [g.tobytes() for g in want]


# ---------------------------------------------------------------------------
# metrics


def test_threshold_metrics_hand_case():
    scores = np.array([0.9, 0.8, 0.4, 0.3, 0.6, 0.2])
    labels = np.array([1, 1, 1, 0, 0, 0])
    m = gt.threshold_metrics(scores, labels)
    # pred = [1, 1, 0, 0, 1, 0]: tp=2 fp=1 fn=1 tn=2
    assert m["accuracy"] == pytest.approx(4 / 6)
    assert m["precision"] == pytest.approx(2 / 3)
    assert m["recall"] == pytest.approx(2 / 3)
    assert m["f1"] == pytest.approx(2 / 3)


def test_threshold_is_strictly_greater():
    m = gt.threshold_metrics(np.array([0.5, 0.5]), np.array([1, 0]))
    # exactly 0.5 predicts negative
    assert m["recall"] == 0.0
    assert m["accuracy"] == 0.5


def test_precision_zero_when_nothing_predicted_positive():
    m = gt.threshold_metrics(np.array([0.1, 0.2]), np.array([1, 0]))
    assert m["precision"] == 0.0
    assert m["f1"] == 0.0


def test_auc_two_sample_cases():
    assert gt.auc_score(np.array([0.9, 0.1]), np.array([1, 0])) == 1.0
    assert gt.auc_score(np.array([0.1, 0.9]), np.array([1, 0])) == 0.0
    assert gt.auc_score(np.array([0.5, 0.5]), np.array([1, 0])) == 0.5


def test_auc_requires_both_classes():
    with pytest.raises(ValueError):
        gt.auc_score(np.array([0.5, 0.6]), np.array([1, 1]))


def auc_pair_count(scores, labels):
    """O(n^2) reference: fraction of (pos, neg) pairs ranked correctly,
    ties worth one half."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_auc_matches_pair_count_oracle_exactly():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(3, 30))
        # coarse grid forces plenty of ties
        scores = rng.integers(0, 5, size=n) / 4.0
        labels = rng.integers(0, 2, size=n)
        if np.unique(labels).size < 2:
            labels[0] = 0
            labels[1] = 1
        # both are exact multiples of 0.5 over the same denominator so
        # equality is exact, not approximate
        assert gt.auc_score(scores, labels) == auc_pair_count(scores, labels)


def test_aggregate_rows_population_std():
    rows = [
        gt.MetricsRow(0, 0, accuracy=0.8, precision=1.0, recall=0.5,
                      f1=0.6, auc=0.9, n_test=4),
        gt.MetricsRow(0, 1, accuracy=0.6, precision=0.5, recall=0.5,
                      f1=0.5, auc=None, n_test=4),
    ]
    agg = gt.aggregate_rows(rows)
    assert agg["accuracy"]["mean"] == pytest.approx(0.7)
    assert agg["accuracy"]["std"] == pytest.approx(0.1)
    assert agg["accuracy"]["count"] == 2
    # the undefined AUC row is excluded, not coerced to a number
    assert agg["auc"]["mean"] == pytest.approx(0.9)
    assert agg["auc"]["count"] == 1


# ---------------------------------------------------------------------------
# cross-validation


def test_cross_validation_shape_and_determinism():
    values, labels = small_problem(n_per_class=9, n_features=8)
    cfg = small_cfg(eval_seeds=2, epochs=4, classifier_steps=30)
    r1 = gt.run_cross_validation(values, labels, cfg)
    r2 = gt.run_cross_validation(values, labels, cfg)
    assert len(r1.rows) == cfg.folds * cfg.eval_seeds
    assert [(-1 if r.auc is None else r.auc) for r in r1.rows] \
        == [(-1 if r.auc is None else r.auc) for r in r2.rows]
    assert gt.report_to_json(r1) == gt.report_to_json(r2)
    assert sum(r.n_test for r in r1.rows) == cfg.eval_seeds * values.shape[0]


def test_cross_validation_rejects_mismatched_labels():
    values, labels = small_problem()
    cfg = small_cfg()
    with pytest.raises(ValueError, match="labels shape"):
        gt.run_cross_validation(values, labels[:-1], cfg)


@pytest.mark.parametrize("n_labels", [13, 19])
def test_checkpoint_evaluation_rejects_mismatched_labels(monkeypatch, n_labels):
    # 16 samples: extra labels were scored against the first 16, too few
    # raised IndexError; both are refused before any graph is built
    values, labels = small_problem(n_per_class=8, n_features=8)
    cfg = small_cfg(epochs=1)
    params, _ = gt.train_unsupervised(build_multigraph(values, cfg.threshold), cfg)
    wrong = np.resize(labels, n_labels)
    monkeypatch.setattr(gt, "build_multigraph", None)
    with pytest.raises(ValueError, match="labels shape"):
        gt.run_cross_validation(values, wrong, cfg, params=params)
    with pytest.raises(ValueError, match="labels shape"):
        gt.run_cross_validation(values, wrong, cfg)


def test_parallel_jobs_match_serial():
    values, labels = small_problem(n_per_class=8, n_features=8)
    cfg = small_cfg(eval_seeds=2, epochs=3, classifier_steps=20)
    serial = gt.run_cross_validation(values, labels, cfg, jobs=1)
    parallel = gt.run_cross_validation(values, labels, cfg, jobs=2)
    assert gt.report_to_json(serial) == gt.report_to_json(parallel)


def test_pool_workers_start_under_the_allocator_policy(monkeypatch):
    # a worker started by spawn or forkserver inherits no mallopt setting,
    # so each one runs the policy itself
    initializers = []

    class Recorder:
        def __init__(self, max_workers=None, initializer=None):
            initializers.append(initializer)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    values, labels = small_problem(n_per_class=8, n_features=8)
    cfg = small_cfg(eval_seeds=2, epochs=1, classifier_steps=5)
    gt.run_cross_validation(values, labels, cfg, jobs=2)
    assert initializers == [gt.pin_allocator]


def test_checkpoint_evaluation_matches_first_seed(monkeypatch):
    values, labels = small_problem(n_per_class=8, n_features=8)
    cfg = small_cfg(eval_seeds=1, epochs=4, classifier_steps=30)
    full = gt.run_cross_validation(values, labels, cfg)
    mg = build_multigraph(values, cfg.threshold)
    params, _ = gt.train_unsupervised(mg, cfg)
    from_params = gt.run_cross_validation(values, labels, cfg, params=params)
    assert gt.report_to_json(from_params) == gt.report_to_json(full)

    # CV seed index 1 under static corruption is training alone at
    # seed + 1: same static permutation, trace, embeddings and folds
    cfg = small_cfg(eval_seeds=2, epochs=4, classifier_steps=30,
                    fresh_corruption=False)
    encoded = []
    encode = gm.encode

    def recording_encode(*args, **kwargs):
        encoded.append(encode(*args, **kwargs))
        return encoded[-1]

    monkeypatch.setattr(gm, "encode", recording_encode)
    full = gt.run_cross_validation(values, labels, cfg)
    monkeypatch.undo()
    alone_cfg = dataclasses.replace(cfg, seed=cfg.seed + 1)
    params, trace = gt.train_unsupervised(mg, alone_cfg)
    assert np.asarray(full.traces[1]).tobytes() == np.asarray(trace).tobytes()
    embeddings = gm.encode(mg.features, mg.normalized, params, cfg)
    assert len(encoded) == 2
    assert encoded[1].tobytes() == embeddings.tobytes()
    alone = gt.run_cross_validation(values, labels, alone_cfg, params=params)
    assert ([dataclasses.replace(r, seed_index=1) for r in alone.rows]
            == full.rows[cfg.folds:])
    # the static permutation is the first draw of the run's corruption stream
    fresh = fresh_params(mg, alone_cfg)
    corrupt_ss = np.random.SeedSequence(alone_cfg.seed).spawn(2)[1]
    shuffled, _ = shuffle_features(mg.features, np.random.default_rng(corrupt_ss))
    first = gm.joint_forward(mg.features, shuffled, mg.normalized, fresh,
                             cfg).loss.item()
    assert trace[0] == first


def test_graph_is_built_once_per_cross_validation(monkeypatch):
    values, labels = small_problem(n_per_class=12, n_features=8)
    calls = {"relation_distances": 0, "build_relation_graph": 0,
             "normalize_adjacency": 0}
    for name in calls:
        original = getattr(gg, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(gg, name, counted)
    gt.run_cross_validation(values, labels,
                            small_cfg(eval_seeds=3, epochs=2, classifier_steps=5))
    # one distance pass for all relations and one graph per relation, not
    # one per relation and seed. The shared buffer is refilled whenever it
    # holds another kind: per seed 3 + 2 in the first epoch (the sweep
    # starts on the relation the forward pass ended on), 2 + 2 in the
    # second (the sweep ended on the first relation, which the forward
    # pass starts on) and 2 in encode
    assert calls == {"relation_distances": 1, "build_relation_graph": 3,
                     "normalize_adjacency": 3 * (5 + 4 + 2)}


def test_report_text_renders_every_row():
    values, labels = small_problem()
    cfg = small_cfg(epochs=2, classifier_steps=10)
    report = gt.run_cross_validation(values, labels, cfg)
    text = gt.report_to_text(report)
    assert text.count("\n") >= len(report.rows) + len(gt._METRIC_NAMES)
    assert "accuracy" in text


# ---------------------------------------------------------------------------
# checkpoints


NAMES = [f"taxon{j:04d}" for j in range(8)]


def trained_fixture():
    values, labels = small_problem(n_per_class=6, n_features=8)
    cfg = small_cfg(epochs=3)
    mg = build_multigraph(values, cfg.threshold)
    params, trace = gt.train_unsupervised(mg, cfg)
    return values, labels, cfg, params, trace


def test_checkpoint_round_trip_bytes(tmp_path):
    _, _, cfg, params, trace = trained_fixture()
    path = str(tmp_path / "model.ckpt")
    gt.save_checkpoint(path, params, cfg, trace, NAMES)
    ckpt = gt.load_checkpoint(path)
    assert ckpt.config == cfg.as_dict()
    assert ckpt.feature_names == NAMES
    assert np.asarray(ckpt.trace).tobytes() == np.asarray(trace).tobytes()
    restored, restored_cfg = gt.params_from_checkpoint(ckpt)
    assert restored_cfg == cfg
    assert not any(name.startswith("classifier/") for name in ckpt.tensors)
    rebuilt = gt.checkpoint_bytes(restored, restored_cfg, ckpt.trace,
                                  ckpt.feature_names)
    with open(path, "rb") as fh:
        assert rebuilt == fh.read()


def test_checkpoint_refuses_other_features():
    _, _, cfg, params, trace = trained_fixture()
    ckpt = gt.parse_checkpoint(gt.checkpoint_bytes(params, cfg, trace, NAMES))
    gt.check_feature_names(ckpt, list(NAMES))
    swapped = NAMES[:2] + [NAMES[3], NAMES[2]] + NAMES[4:]
    with pytest.raises(gt.CheckpointError, match="feature 2 is 'taxon0003'"):
        gt.check_feature_names(ckpt, swapped)
    with pytest.raises(gt.CheckpointError, match="feature 7 is missing"):
        gt.check_feature_names(ckpt, NAMES[:-1])
    with pytest.raises(gt.CheckpointError, match="feature 8 is 'extra'"):
        gt.check_feature_names(ckpt, NAMES + ["extra"])


def test_checkpoint_restored_params_embed_identically():
    values, _, cfg, params, trace = trained_fixture()
    blob = gt.checkpoint_bytes(params, cfg, trace, NAMES)
    import io
    import tempfile
    import os
    fd, path = tempfile.mkstemp()
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        restored, rcfg = gt.params_from_checkpoint(gt.load_checkpoint(path))
    finally:
        os.unlink(path)
    mg = build_multigraph(values, cfg.threshold)
    e1 = gm.encode(mg.features, mg.normalized, params, cfg)
    e2 = gm.encode(mg.features, mg.normalized, restored, rcfg)
    assert e1.tobytes() == e2.tobytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(gt.CheckpointError, match="magic"):
        gt.load_checkpoint(str(path))


def test_checkpoint_bad_version(tmp_path):
    _, _, cfg, params, trace = trained_fixture()
    blob = bytearray(gt.checkpoint_bytes(params, cfg, trace, NAMES))
    blob[4:8] = struct.pack("<I", 99)
    path = tmp_path / "v99.ckpt"
    path.write_bytes(bytes(blob))
    with pytest.raises(gt.CheckpointError, match="version 99"):
        gt.load_checkpoint(str(path))
    # version 1 files (untrained classifier, no feature names) are not read
    blob[4:8] = struct.pack("<I", 1)
    with pytest.raises(gt.CheckpointError, match="version 1, .*retrain"):
        gt.parse_checkpoint(bytes(blob))


def test_checkpoint_damage_raises_only_checkpoint_error():
    values, _ = small_problem(n_per_class=3, n_features=3)
    cfg = small_cfg(embed_dim=2, gcn_layers=1, bins=2, heads=1, epochs=2)
    params, trace = gt.train_unsupervised(build_multigraph(values, cfg.threshold),
                                          cfg)
    blob = gt.checkpoint_bytes(params, cfg, trace, ["f0", "f1", "f2"])

    def load(damaged: bytes) -> None:
        try:
            gt.params_from_checkpoint(gt.parse_checkpoint(damaged))
        except gt.CheckpointError:
            pass

    for cut in range(len(blob)):
        with pytest.raises(gt.CheckpointError):
            gt.parse_checkpoint(blob[:cut])
    for bit in range(8 * len(blob)):
        damaged = bytearray(blob)
        damaged[bit // 8] ^= 1 << (bit % 8)
        load(bytes(damaged))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_checkpoint_refuses_a_non_finite_value(value):
    # training never saves one, so one marks a damaged file
    _, _, cfg, params, trace = trained_fixture()
    blob = gt.checkpoint_bytes(params, cfg, trace, NAMES)
    name = "attention/head0/bray_curtis/query"
    at = blob.index(name.encode()) + len(name) + 8  # past its shape
    damaged = blob[:at] + struct.pack("<d", value) + blob[at + 8:]
    with pytest.raises(gt.CheckpointError,
                       match=f"checkpoint tensor '{name}' holds a non-finite value"):
        gt.parse_checkpoint(damaged)
    at = blob.index(np.asarray(trace, dtype="<f8").tobytes()) + 8
    damaged = blob[:at] + struct.pack("<d", value) + blob[at + 8:]
    with pytest.raises(gt.CheckpointError,
                       match="checkpoint loss trace holds a non-finite value"):
        gt.parse_checkpoint(damaged)


def test_checkpoint_truncation(tmp_path):
    _, _, cfg, params, trace = trained_fixture()
    blob = gt.checkpoint_bytes(params, cfg, trace, NAMES)
    path = tmp_path / "cut.ckpt"
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(gt.CheckpointError, match="truncated"):
        gt.load_checkpoint(str(path))


def test_checkpoint_trailing_bytes(tmp_path):
    _, _, cfg, params, trace = trained_fixture()
    blob = gt.checkpoint_bytes(params, cfg, trace, NAMES)
    path = tmp_path / "extra.ckpt"
    path.write_bytes(blob + b"\x00")
    with pytest.raises(gt.CheckpointError, match="trailing"):
        gt.load_checkpoint(str(path))


def test_checkpoint_missing_tensor(tmp_path):
    _, _, cfg, params, trace = trained_fixture()
    blob = gt.checkpoint_bytes(params, cfg, trace, NAMES)
    ckpt_path = tmp_path / "full.ckpt"
    ckpt_path.write_bytes(blob)
    ckpt = gt.load_checkpoint(str(ckpt_path))
    del ckpt.tensors["eta_raw"]
    with pytest.raises(gt.CheckpointError, match="eta_raw"):
        gt.params_from_checkpoint(ckpt)
    # a model over fewer relations is refused too: every model has all three
    ckpt = gt.load_checkpoint(str(ckpt_path))
    ckpt.tensors = {k: v for k, v in ckpt.tensors.items() if "/canberra/" not in k}
    with pytest.raises(gt.CheckpointError, match="missing tensor 'encoder/canberra/"):
        gt.params_from_checkpoint(ckpt)


def test_checkpoint_with_untrained_ablation_tensors_is_refused():
    # an ablation checkpoint written when the model still carried the
    # discriminators (or queries) its run never trained
    _, _, cfg, params, trace = trained_fixture()
    for switch, prefix in (("use_adversarial", "discriminator/"),
                           ("use_attention", "attention/")):
        ablated = dataclasses.replace(cfg, **{switch: False})
        ckpt = gt.parse_checkpoint(gt.checkpoint_bytes(params, ablated, trace, NAMES))
        with pytest.raises(gt.CheckpointError, match=f"unexpected tensors.*{prefix}"):
            gt.params_from_checkpoint(ckpt)


def test_atomic_write_replaces_existing(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    gt.atomic_write_text(str(target), "new")
    assert target.read_text() == "new"
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=lambda m: f"{m:03o}")
def test_atomic_write_gives_the_mode_open_would(tmp_path, umask):
    # 0o666 less the umask, as open(path, "w") gives a new file, for a
    # new path and for one written over
    written, replaced, opened = (tmp_path / name for name in ("a", "b", "c"))
    replaced.write_text("old")
    previous = os.umask(umask)
    try:
        gt.atomic_write_text(str(written), "new")
        gt.atomic_write_bytes(str(replaced), b"new")
        opened.write_text("open")
    finally:
        os.umask(previous)
    modes = {stat.S_IMODE(p.stat().st_mode) for p in (written, replaced, opened)}
    assert modes == {0o666 & ~umask}
