"""End-to-end gradient verification on a small fixed instance.

Central finite differences against the tape's analytic gradients, one
relative error per parameter group. The graph-level histogram readout
is a constant under autodiff (stop-gradient), so perturbed evaluations
reuse the base-point histograms; differencing across histogram
re-binning would measure a derivative the model does not define.

The classifier group checks the closed-form ``train.head_gradients``
of the head ``train.train_classifier`` fits (standardized embeddings,
freshly drawn weights) against central differences of the
cross-entropy of ``model.predict_proba``, the function that scores the
test folds: the gradient the head trains with must be the gradient of
the scores it is judged on.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from . import autodiff as ad
from . import model
from .graph import build_multigraph, shuffle_features
from .train import TrainConfig, head_gradients, train_classifier

DEFAULT_TOLERANCE = 1e-4

# the checked instance: a 6-node, 5-feature, 3-relation graph under a
# small model, checked with its model switches in every combination;
# its zero-step budget makes the classifier head the freshly drawn one
_CFG = TrainConfig(embed_dim=4, bins=3, gcn_layers=3, heads=4, classifier_steps=0)
_SWITCHES = ("use_attention", "two_stage_summary", "use_adversarial")
_N_NODES = 6
_N_FEATURES = 5
_STEP = 1e-5

_GROUP_PREFIXES = {
    "encoder": "encoder/",
    "queries": "attention/",
    "discriminator": "discriminator/",
    "eta": "eta_raw",
    "classifier": "classifier/",
}


def _group_of(name: str) -> str:
    for group, prefix in _GROUP_PREFIXES.items():
        if name.startswith(prefix):
            return group
    raise KeyError(name)


def _fd_grad(loss_fn, param: np.ndarray, step: float) -> np.ndarray:
    """Central differences of ``loss_fn`` in each entry of ``param``,
    which is perturbed in place and restored."""
    out = np.zeros_like(param)
    it = np.nditer(param, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        keep = param[idx]
        param[idx] = keep + step
        fp = loss_fn()
        param[idx] = keep - step
        fm = loss_fn()
        param[idx] = keep
        out[idx] = (fp - fm) / (2.0 * step)
    return out


def gradient_check(seed: int = 0, *,
                   corrupt_group: str | None = None) -> dict[str, float]:
    """Worst relative error per parameter group over the models that the
    ``_SWITCHES`` of ``_CFG`` make in every combination, on the instance
    ``_N_NODES`` and ``_N_FEATURES`` describe, drawn from ``seed``, with
    central differences of step ``_STEP``. A group counts only in the
    models that hold its tensors. ``corrupt_group`` deliberately damages
    that group's analytic gradient first (negative control for the
    harness itself).
    """
    if corrupt_group is not None and corrupt_group not in _GROUP_PREFIXES:
        raise KeyError(f"unknown group {corrupt_group!r}")
    root = np.random.SeedSequence(seed)
    data_rng = np.random.default_rng(root.spawn(1)[0])
    x = data_rng.random((_N_NODES, _N_FEATURES)) + 0.05
    adjs = build_multigraph(x, threshold=0.6).norm_adjs
    x_shuffled, _ = shuffle_features(x, seed=seed + 1)
    init_ss = root.spawn(2)[1]

    per_group: dict[str, list[float]] = {}
    for switches in itertools.product((True, False), repeat=len(_SWITCHES)):
        cfg = dataclasses.replace(_CFG, **dict(zip(_SWITCHES, switches)))
        params = model.init_model_params(_N_FEATURES, cfg,
                                         np.random.default_rng(init_ss))
        errors = _model_errors(x, x_shuffled, adjs, params, cfg, seed, corrupt_group)
        for group, error in errors.items():
            per_group.setdefault(group, []).append(error)
    # np.max keeps a NaN error, which the builtin max can drop
    return {group: float(np.max(e)) for group, e in per_group.items()}


def _model_errors(x, x_shuffled, adjs, params: model.ModelParams,
                  cfg: TrainConfig, seed: int,
                  corrupt_group: str | None) -> dict[str, float]:
    """Relative error per parameter group that ``params`` holds."""
    named = params.named_tensors()

    # analytic pass for the unsupervised objective
    with ad.Tape() as tape:
        result = model.joint_forward(x, x_shuffled, adjs, params, cfg)
        grads = tape.backward(result.loss, list(named.values()))
    histograms = dict(result.histograms)
    analytic = dict(zip(named, grads))
    arrays = {name: t.data for name, t in named.items()}

    # closed-form gradient of the classifier head on frozen embeddings:
    # the standardized input and freshly drawn weights of train_classifier
    embeddings = model.encode(x, adjs, params, cfg)
    labels = np.arange(_N_NODES) % 2
    head = train_classifier(embeddings, labels, np.arange(_N_NODES), cfg, seed=seed)
    head_x = (embeddings - head.mean) / head.scale
    arrays.update({"classifier/weight": head.weight, "classifier/bias": head.bias})
    analytic["classifier/weight"], analytic["classifier/bias"] = head_gradients(
        head_x, head.weight, head.bias, labels)

    def classifier_ce() -> float:
        # cross-entropy of the scores the test folds are judged on
        p1 = model.predict_proba(head_x, head.weight, head.bias)
        return float(-np.mean(np.log(np.where(labels == 1, p1, 1.0 - p1))))

    for name, g in analytic.items():
        if _group_of(name) == corrupt_group:
            analytic[name] = g * 1.5 + 0.01

    def unsupervised_loss() -> float:
        return model.joint_forward(x, x_shuffled, adjs, params, cfg,
                                   histograms).loss.item()

    groups_a: dict[str, list[np.ndarray]] = {}
    groups_f: dict[str, list[np.ndarray]] = {}
    for name, param in arrays.items():
        group = _group_of(name)
        loss_fn = classifier_ce if group == "classifier" else unsupervised_loss
        fd = _fd_grad(loss_fn, param, _STEP)
        groups_a.setdefault(group, []).append(analytic[name].ravel())
        groups_f.setdefault(group, []).append(fd.ravel())

    errors: dict[str, float] = {}
    for group, parts in groups_a.items():
        a = np.concatenate(parts)
        f = np.concatenate(groups_f[group])
        denom = max(np.linalg.norm(a), np.linalg.norm(f), 1e-12)
        errors[group] = float(np.linalg.norm(a - f) / denom)
    return errors
