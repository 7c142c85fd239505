"""End-to-end gradient verification on a small fixed instance.

Central finite differences against the tape's analytic gradients, one
relative error per parameter group. The graph-level histogram readout
is computed off the tape and held fixed, so perturbed evaluations
reuse the base-point histograms; differencing across histogram
re-binning would measure a derivative the model does not define.

The classifier group checks the closed-form ``train.head_gradients``
of the head ``train.train_classifier`` fits (standardized embeddings,
freshly drawn weights) against central differences of the
cross-entropy of ``model.predict_proba``, the function that scores the
test folds: the gradient the head trains with must be the gradient of
the scores it is judged on. The head sees only ``model.encode``'s
embeddings, which the switches change only through ``use_attention``,
so it is checked once per encoder: attention on and off.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from . import autodiff as ad
from . import model
from .graph import build_multigraph, shuffle_features
from .runtime import TrainConfig
from .train import head_gradients, train_classifier

DEFAULT_TOLERANCE = 1e-4

# the checked instance: a 6-node, 5-feature, 3-relation graph under a
# small model, checked on every distinct model its switches make;
# its zero-step budget makes the classifier head the freshly drawn one
_CFG = TrainConfig(embed_dim=4, bins=3, gcn_layers=3, heads=4, classifier_steps=0)
_SWITCHES = ("use_attention", "two_stage_summary", "use_adversarial")
_N_NODES = 6
_N_FEATURES = 5
_STEP = 1e-5

# parameter group of each first component of a named_tensors() name
_GROUPS = {"encoder": "encoder", "attention": "queries",
           "discriminator": "discriminator", "eta_raw": "eta"}

Sides = dict[str, list[tuple[np.ndarray, np.ndarray]]]


def _fd_grad(loss_fn, params: list[np.ndarray]) -> np.ndarray:
    """Central differences of ``loss_fn`` in each entry of ``params``,
    flattened in order; each entry is perturbed in place and restored."""
    out = []
    for param in params:
        for idx in np.ndindex(param.shape):
            keep = param[idx]
            param[idx] = keep + _STEP
            fp = loss_fn()
            param[idx] = keep - _STEP
            fm = loss_fn()
            param[idx] = keep
            out.append((fp - fm) / (2.0 * _STEP))
    return np.array(out)


def gradient_sides(seed: int) -> Sides:
    """Per parameter group, one flattened (analytic, central difference)
    pair per model that holds it, over the distinct models the
    ``_SWITCHES`` of ``_CFG`` make (six of the eight combinations), on
    the instance ``_N_NODES`` and ``_N_FEATURES`` describe, drawn from
    ``seed``; the classifier gets one pair per encoder."""
    root = np.random.SeedSequence(seed)
    data_rng = np.random.default_rng(root.spawn(1)[0])
    x = data_rng.random((_N_NODES, _N_FEATURES)) + 0.05
    adjs = build_multigraph(x, _CFG.threshold).normalized
    x_shuffled, _ = shuffle_features(x, seed=seed + 1)
    init_ss = root.spawn(2)[1]

    sides: Sides = {}
    for switches in itertools.product((True, False), repeat=len(_SWITCHES)):
        cfg = dataclasses.replace(_CFG, **dict(zip(_SWITCHES, switches)))
        # without the discriminator nothing reads the histogram, so the
        # plain summary makes the same model as the two-stage one
        if not (cfg.use_adversarial or cfg.two_stage_summary):
            continue
        params = model.init_model_params(_N_FEATURES, cfg,
                                         np.random.default_rng(init_ss))
        for group, pair in _model_sides(x, x_shuffled, adjs, params, cfg).items():
            sides.setdefault(group, []).append(pair)
        # init draws the encoders and queries before the discriminators,
        # so every model with this use_attention gives the same embeddings
        if cfg.two_stage_summary and cfg.use_adversarial:
            sides.setdefault("classifier", []).append(
                _head_sides(x, adjs, params, cfg, seed))
    return sides


def worst_errors(sides: Sides) -> dict[str, float]:
    """Worst relative error per group over its pairs."""
    errors: dict[str, float] = {}
    for group, pairs in sides.items():
        rel = [np.linalg.norm(a - f)
               / max(np.linalg.norm(a), np.linalg.norm(f), 1e-12) for a, f in pairs]
        # np.max keeps a NaN error, which the builtin max can drop
        errors[group] = float(np.max(rel))
    return errors


def gradient_check(seed: int) -> dict[str, float]:
    """Worst relative error per parameter group of ``gradient_sides``."""
    return worst_errors(gradient_sides(seed))


def _model_sides(x, x_shuffled, adjs, params: model.ModelParams,
                 cfg: TrainConfig) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Both sides of the unsupervised objective's gradient per group
    that ``params`` holds."""
    named = params.named_tensors()
    with ad.Tape() as tape:
        result = model.joint_forward(x, x_shuffled, adjs, params, cfg)
        grads = tape.backward(result.loss, list(named.values()))
    histograms = dict(result.histograms)

    def loss() -> float:
        return model.joint_forward(x, x_shuffled, adjs, params, cfg,
                                   histograms).loss.item()

    members: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
    for (name, tensor), grad in zip(named.items(), grads):
        members.setdefault(_GROUPS[name.split("/")[0]], []).append((grad, tensor.data))
    return {group: (np.concatenate([g.ravel() for g, _ in pairs]),
                    _fd_grad(loss, [p for _, p in pairs]))
            for group, pairs in members.items()}


def _head_sides(x, adjs, params: model.ModelParams, cfg: TrainConfig,
                seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the gradient of the classifier head's cross-entropy
    in its weight and bias, on the frozen embeddings of ``params``."""
    embeddings = model.encode(x, adjs, params, cfg)
    labels = np.arange(_N_NODES) % 2
    head = train_classifier(embeddings, labels, np.arange(_N_NODES), cfg, seed=seed)
    head_x = (embeddings - head.mean) / head.scale
    analytic = head_gradients(head_x, head.weight, head.bias, labels)

    def cross_entropy() -> float:
        # cross-entropy of the scores the test folds are judged on
        p1 = model.predict_proba(head_x, head.weight, head.bias)
        return float(-np.mean(np.log(np.where(labels == 1, p1, 1.0 - p1))))

    return (np.concatenate([g.ravel() for g in analytic]),
            _fd_grad(cross_entropy, [head.weight, head.bias]))
