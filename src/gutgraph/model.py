"""Multi-relation GCN encoder with adversarial and attention objectives.

One GCN stack per relation type embeds every sample twice (original and
feature-shuffled views). A two-stage readout summarizes each relation
graph; a bilinear discriminator scores node/summary pairs; per-head
attention merges the relation-specific embeddings into one matrix. The
joint loss couples the discriminator objective with an attention
alignment term through a trainable, softplus-positive weight.

Training stacks the two views row-wise (2N rows) and runs them through
the fused tape kernels of ``autodiff``: one record per relation's GCN
stack, one record for the attention merge over every head, one for
the hybrid loss. The other per-view consumers read their N rows as
views of the stacked products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import ALL_KINDS, DistanceKind

if TYPE_CHECKING:
    from .train import TrainConfig


# ---------------------------------------------------------------------------
# parameters


@dataclass
class ModelParams:
    """The tensors a run trains, keyed the way checkpoints store them,
    one per relation in ``ALL_KINDS`` order. ``queries`` is empty when
    the run merges without attention and ``discriminators`` when it
    trains without the adversarial loss."""

    layers: dict[DistanceKind, list[tuple[Tensor, Tensor]]]
    queries: list[dict[DistanceKind, Tensor]]
    discriminators: dict[DistanceKind, Tensor]
    eta_raw: Tensor

    def named_tensors(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for kind, stack in self.layers.items():
            for i, (w, b) in enumerate(stack):
                out[f"encoder/{kind.value}/layer{i}/weight"] = w
                out[f"encoder/{kind.value}/layer{i}/bias"] = b
        for h, per_kind in enumerate(self.queries):
            for kind, q in per_kind.items():
                out[f"attention/head{h}/{kind.value}/query"] = q
        for kind, w in self.discriminators.items():
            out[f"discriminator/{kind.value}/weight"] = w
        out["eta_raw"] = self.eta_raw
        return out


def _uniform_init(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(rows)  # fan-in is the input-side dimension
    return rng.uniform(-bound, bound, size=(rows, cols))


def init_model_params(n_features: int, cfg: TrainConfig,
                      rng: np.random.Generator) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases,
    zero loss-weight raw scalar, shaped by ``cfg``'s ``embed_dim``,
    ``gcn_layers``, ``bins`` and ``heads``. Queries are drawn only under
    ``use_attention`` and discriminator weights only under
    ``use_adversarial``. Draw order is fixed (encoders, queries,
    discriminators, each over ``ALL_KINDS`` in order) so a seed pins
    every tensor."""
    d = cfg.embed_dim
    summary_dim = d + cfg.bins if cfg.two_stage_summary else d
    layers: dict[DistanceKind, list[tuple[Tensor, Tensor]]] = {}
    for kind in ALL_KINDS:
        stack = []
        in_dim = n_features
        for _ in range(cfg.gcn_layers):
            w = Tensor(_uniform_init(rng, in_dim, d), requires_grad=True)
            b = Tensor(np.zeros((1, d)), requires_grad=True)
            stack.append((w, b))
            in_dim = d
        layers[kind] = stack
    queries = [{kind: Tensor(_uniform_init(rng, d, 1), requires_grad=True)
                for kind in ALL_KINDS}
               for _ in range(cfg.heads if cfg.use_attention else 0)]
    discriminators = {kind: Tensor(_uniform_init(rng, summary_dim, d),
                                   requires_grad=True)
                      for kind in ALL_KINDS} if cfg.use_adversarial else {}
    return ModelParams(
        layers=layers,
        queries=queries,
        discriminators=discriminators,
        eta_raw=Tensor(np.zeros((1, 1)), requires_grad=True),
    )


# ---------------------------------------------------------------------------
# encoder and readout


def node_summary(h: Tensor) -> Tensor:
    """Node-level readout: sigmoid of the column means, 1 x D,
    differentiable."""
    return ad.sigmoid(ad.mean_rows(h))


def value_histogram(values: np.ndarray, bins: int, weighting: str) -> np.ndarray:
    """Graph-level readout: histogram of all embedding values, 1 x K.

    Bins split [min, max] uniformly with the top edge closed; the bin
    range is recomputed from the values on every call. Each value
    contributes its magnitude |x| ("magnitude") or one count ("count");
    masses are normalized to sum to one. Degenerate inputs: if all
    magnitudes are zero the histogram is uniform; if all values are
    equal (nonzero) the whole mass lands in bin 0, where
    (x - min) / range reads as zero.

    Accumulation runs over sorted values so the result is bit-identical
    under any reordering of the input.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if weighting not in ("magnitude", "count"):
        raise ValueError(f"unknown weighting {weighting!r}")
    flat = np.sort(np.asarray(values, dtype=np.float64).ravel())
    if flat.size == 0:
        raise ValueError("empty value set")
    mags = np.abs(flat)
    if mags.sum() == 0.0:
        return np.full((1, bins), 1.0 / bins)
    lo, hi = flat[0], flat[-1]
    weights = mags if weighting == "magnitude" else np.ones_like(flat)
    if lo == hi:
        out = np.zeros((1, bins))
        out[0, 0] = 1.0
        return out
    width = (hi - lo) / bins
    idx = np.clip(np.floor((flat - lo) / width).astype(np.int64), 0, bins - 1)
    mass = np.bincount(idx, weights=weights, minlength=bins)
    return (mass / mass.sum()).reshape(1, bins)


def graph_summary(h: Tensor, bins: int, weighting: str,
                  frozen_histogram: np.ndarray | None = None) -> tuple[Tensor, Tensor, np.ndarray]:
    """Two-stage readout: (summary 1x(D+K), node-level part 1xD,
    histogram array). The histogram enters as a constant, so gradients
    flow only through the node-level part."""
    p = node_summary(h)
    q = frozen_histogram if frozen_histogram is not None \
        else value_histogram(h.data, bins, weighting)
    summary = ad.concat_cols(p, ad.constant(q))
    return summary, p, np.asarray(q)


# ---------------------------------------------------------------------------
# merging


def average_merge(embeddings: list[Tensor]) -> Tensor:
    """Unweighted mean over relation types (attention ablation); a new
    tensor even for a single relation."""
    out = embeddings[0]
    for h_t in embeddings[1:]:
        out = ad.add(out, h_t)
    return ad.mul_scalar(out, 1.0 / len(embeddings))


# ---------------------------------------------------------------------------
# discriminator and losses


def _discriminator_logits(summary: Tensor, h: Tensor, weight: Tensor) -> Tensor:
    # u = g W (1 x D), then one logit per node: H u^T.
    u = ad.matmul(summary, weight)
    return ad.matmul(h, ad.transpose(u))


def discriminator_loss(summary: Tensor, positive: Tensor, negative: Tensor,
                       weight: Tensor) -> Tensor:
    """Summed binary cross-entropy of one relation's discriminator over
    its 2 * N (summary, node) pairs: positives score toward 1, shuffled
    negatives toward 0. Computed through softplus on the logits, so
    extreme scores stay finite. Always >= 0."""
    lp = _discriminator_logits(summary, positive, weight)
    ln = _discriminator_logits(summary, negative, weight)
    # -log sigmoid(x) = softplus(-x); -log(1 - sigmoid(x)) = softplus(x)
    return ad.add(ad.sum_all(ad.softplus(ad.mul_scalar(lp, -1.0))),
                  ad.sum_all(ad.softplus(ln)))


def joint_loss(l_adv: Tensor | None, l_hybrid: Tensor, eta_raw: Tensor) -> Tensor:
    """l_adv + softplus(eta_raw) * l_hybrid; the softplus keeps the
    trainable weight positive (softplus(0) = ln 2 at init)."""
    weighted = ad.mul(ad.softplus(eta_raw), l_hybrid)
    return weighted if l_adv is None else ad.add(l_adv, weighted)


# ---------------------------------------------------------------------------
# classifier head


def predict_proba(embeddings: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """P(class 1) per row from the linear head, via stable softmax."""
    z = embeddings @ w + b
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e[:, 1] / e.sum(axis=1)


# ---------------------------------------------------------------------------
# one full pass


@dataclass
class ForwardResult:
    loss: Tensor
    adversarial: float
    hybrid: float
    histograms: dict[DistanceKind, np.ndarray] = field(default_factory=dict)


def joint_forward(x: np.ndarray, x_shuffled: np.ndarray,
                  adjacency: Callable[[DistanceKind], np.ndarray],
                  params: ModelParams, cfg: TrainConfig,
                  frozen_histograms: dict[DistanceKind, np.ndarray] | None = None
                  ) -> ForwardResult:
    """One training pass over every relation type: encode both views,
    summarize, score the discriminator, merge, and combine the losses.
    ``cfg`` supplies ``bins``, ``histogram_weighting`` and the switches
    ``use_attention``, ``two_stage_summary`` and ``use_adversarial``;
    ``params`` must hold the tensors those switches train.
    ``adjacency(kind)`` returns ``kind``'s normalized adjacency
    (``MultiGraph.normalized``); each GCN stack calls it in its forward
    pass and again in its VJP, so the matrix need only stay valid until
    the next call for another kind, and no record keeps it.

    The two views run stacked, original rows [0, N) over shuffled rows
    [N, 2N), through one GCN-stack record per relation. One pass per
    relation encodes, reads out the original rows (a view of the stack)
    and adds that relation's discriminator term, which alone reads the
    shuffled rows; the summed term is scaled once after the loop. Then
    one attention record merges the stacks and the hybrid loss
    (``autodiff.hybrid_loss``, one record) takes the stacked merge. So
    each relation's node adjoints fold into its stack as soon as its
    discriminator records are swept, and the attention merge's VJP
    defers each relation's 2N x D adjoint until the sweep reaches that
    relation's records: the sweep holds one relation's adjoint at a
    time and peaks in the first GCN-stack VJP it meets.
    The graph-level readout is built only for the discriminator (under
    ``two_stage_summary`` and ``use_adversarial``), else ``histograms``
    is empty.
    ``frozen_histograms`` substitutes stored graph-level readouts (they
    are constants under autodiff, so this changes no gradient and lets
    finite-difference harnesses hold them fixed)."""
    n = x.shape[0]
    stacked = ad.constant(np.concatenate([x, x_shuffled]))
    embeddings, node_parts = [], []
    histograms: dict[DistanceKind, np.ndarray] = {}
    l_adv = None
    for kind in ALL_KINDS:
        h = ad.gcn_stack(partial(adjacency, kind), stacked, params.layers[kind])
        h_pos = ad.slice_rows(h, 0, n)
        if cfg.two_stage_summary and cfg.use_adversarial:
            frozen = None if frozen_histograms is None else frozen_histograms[kind]
            summary, p, histograms[kind] = graph_summary(
                h_pos, cfg.bins, cfg.histogram_weighting, frozen)
        else:
            summary = p = node_summary(h_pos)
        embeddings.append(h)
        node_parts.append(p)
        if cfg.use_adversarial:
            term = discriminator_loss(summary, h_pos, ad.slice_rows(h, n, 2 * n),
                                      params.discriminators[kind])
            l_adv = term if l_adv is None else ad.add(l_adv, term)
    if l_adv is not None:
        # the mean over all 2 * N * |T| (summary, node) pairs
        l_adv = ad.mul_scalar(l_adv, 1.0 / (2 * n * len(ALL_KINDS)))

    l_hybrid = ad.hybrid_loss(node_parts, _merge(embeddings, params, cfg))
    loss = joint_loss(l_adv, l_hybrid, params.eta_raw)
    return ForwardResult(
        loss=loss,
        adversarial=0.0 if l_adv is None else l_adv.item(),
        hybrid=l_hybrid.item(),
        histograms=histograms,
    )


def _merge(embeddings: list[Tensor], params: ModelParams,
           cfg: TrainConfig) -> Tensor:
    """The attention merge of ``embeddings`` (one per relation in
    ``ALL_KINDS`` order) over every head's queries, one fused record, or
    their mean without ``use_attention``."""
    if cfg.use_attention:
        merged, _ = ad.relation_attention(
            embeddings, [[queries[kind] for queries in params.queries]
                         for kind in ALL_KINDS])
        return merged
    return average_merge(embeddings)


def encode(x: np.ndarray, adjacency: Callable[[DistanceKind], np.ndarray],
           params: ModelParams, cfg: TrainConfig) -> np.ndarray:
    """N x D merged embedding of the original view (no tape, no grads),
    through the same fused kernels as ``joint_forward``, with the
    normalized adjacencies ``adjacency(kind)``; ``cfg``'s
    ``use_attention`` picks the merge."""
    xt = ad.constant(x)
    embeddings = [ad.gcn_stack(partial(adjacency, kind), xt, params.layers[kind])
                  for kind in ALL_KINDS]
    return _merge(embeddings, params, cfg).data
