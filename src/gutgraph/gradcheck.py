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

import numpy as np

from . import autodiff as ad
from . import model
from .graph import ALL_KINDS, build_multigraph, shuffle_features
from .train import TrainConfig, head_gradients, train_classifier

DEFAULT_TOLERANCE = 1e-4

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


def _fd_grad(loss_fn, tensor: ad.Tensor, step: float) -> np.ndarray:
    out = np.zeros_like(tensor.data)
    it = np.nditer(tensor.data, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        keep = tensor.data[idx]
        tensor.data[idx] = keep + step
        fp = loss_fn()
        tensor.data[idx] = keep - step
        fm = loss_fn()
        tensor.data[idx] = keep
        out[idx] = (fp - fm) / (2.0 * step)
    return out


def gradient_check(seed: int = 0, *, n_nodes: int = 6, n_features: int = 5,
                   embed_dim: int = 4, bins: int = 3, gcn_layers: int = 3,
                   heads: int = 4, step: float = 1e-5,
                   corrupt_group: str | None = None) -> dict[str, float]:
    """Relative error per parameter group on a 6-node, 3-relation
    instance. ``corrupt_group`` deliberately damages that group's
    analytic gradient first (negative control for the harness itself).
    """
    root = np.random.SeedSequence(seed)
    data_rng = np.random.default_rng(root.spawn(1)[0])
    x = data_rng.random((n_nodes, n_features)) + 0.05
    adjs = build_multigraph(x, threshold=0.6).norm_adjs
    x_shuffled, _ = shuffle_features(x, seed=seed + 1)

    init_rng = np.random.default_rng(root.spawn(2)[1])
    params = model.init_model_params(ALL_KINDS, n_features, embed_dim,
                                     gcn_layers, bins, heads, True, init_rng)
    named = params.named_tensors()

    # analytic pass for the unsupervised objective
    with ad.Tape() as tape:
        result = model.joint_forward(x, x_shuffled, adjs, params, bins=bins)
        tape.backward(result.loss)
    histograms = dict(result.histograms)
    analytic = {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for name, t in named.items()}

    # closed-form gradient of the classifier head on frozen embeddings:
    # the standardized input and freshly drawn weights of train_classifier
    embeddings = model.encode(x, adjs, params)
    labels = np.arange(n_nodes) % 2
    head = train_classifier(embeddings, labels, np.arange(n_nodes),
                            TrainConfig(classifier_steps=0), seed=seed)
    head_x = (embeddings - head.mean) / head.scale
    head_w = ad.Tensor(head.weight)
    head_b = ad.Tensor(head.bias)
    named.update({"classifier/weight": head_w, "classifier/bias": head_b})
    analytic["classifier/weight"], analytic["classifier/bias"] = head_gradients(
        head_x, head_w.data, head_b.data, labels)

    def classifier_ce() -> float:
        # cross-entropy of the scores the test folds are judged on
        p1 = model.predict_proba(head_x, head_w.data, head_b.data)
        return float(-np.mean(np.log(np.where(labels == 1, p1, 1.0 - p1))))

    if corrupt_group is not None:
        if corrupt_group not in _GROUP_PREFIXES:
            raise KeyError(f"unknown group {corrupt_group!r}")
        for name, g in analytic.items():
            if _group_of(name) == corrupt_group:
                analytic[name] = g * 1.5 + 0.01

    def unsupervised_loss() -> float:
        return model.joint_forward(x, x_shuffled, adjs, params, bins=bins,
                                   frozen_histograms=histograms).loss.item()

    groups_a: dict[str, list[np.ndarray]] = {g: [] for g in _GROUP_PREFIXES}
    groups_f: dict[str, list[np.ndarray]] = {g: [] for g in _GROUP_PREFIXES}
    for name, tensor in named.items():
        group = _group_of(name)
        loss_fn = classifier_ce if group == "classifier" else unsupervised_loss
        fd = _fd_grad(loss_fn, tensor, step)
        groups_a[group].append(analytic[name].ravel())
        groups_f[group].append(fd.ravel())

    errors: dict[str, float] = {}
    for group in _GROUP_PREFIXES:
        a = np.concatenate(groups_a[group])
        f = np.concatenate(groups_f[group])
        denom = max(np.linalg.norm(a), np.linalg.norm(f), 1e-12)
        errors[group] = float(np.linalg.norm(a - f) / denom)
    return errors
