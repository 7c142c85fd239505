"""Multi-relation GCN encoder with adversarial and attention objectives.

One GCN stack per relation type embeds every sample twice (original and
feature-shuffled views). A two-stage readout summarizes each relation
graph; a bilinear discriminator scores node/summary pairs; per-head
attention merges the relation-specific embeddings into one matrix. The
joint loss couples the discriminator objective with an attention
alignment term through a trainable, softplus-positive weight.

Training stacks the two views row-wise (2N rows) and runs them through
the fused tape kernels of ``autodiff``: one record per GCN layer and
relation, one record for the attention merge over every head. The
per-view consumers read their N rows as views of the stacked products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

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
    """The tensors a run trains, keyed the way checkpoints store them.
    ``queries`` is empty when the run merges without attention and
    ``discriminators`` when it trains without the adversarial loss."""

    layers: dict[DistanceKind, list[tuple[Tensor, Tensor]]]
    queries: list[dict[DistanceKind, Tensor]]
    discriminators: dict[DistanceKind, Tensor]
    eta_raw: Tensor

    @property
    def kinds(self) -> tuple[DistanceKind, ...]:
        return tuple(k for k in ALL_KINDS if k in self.layers)

    @property
    def embed_dim(self) -> int:
        return self.layers[self.kinds[0]][-1][0].data.shape[1]

    def named_tensors(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for kind in self.kinds:
            for i, (w, b) in enumerate(self.layers[kind]):
                out[f"encoder/{kind.value}/layer{i}/weight"] = w
                out[f"encoder/{kind.value}/layer{i}/bias"] = b
        for h, per_kind in enumerate(self.queries):
            for kind in self.kinds:
                out[f"attention/head{h}/{kind.value}/query"] = per_kind[kind]
        for kind, w in self.discriminators.items():
            out[f"discriminator/{kind.value}/weight"] = w
        out["eta_raw"] = self.eta_raw
        return out


def _uniform_init(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(rows)  # fan-in is the input-side dimension
    return rng.uniform(-bound, bound, size=(rows, cols))


def init_model_params(kinds, n_features: int, cfg: TrainConfig,
                      rng: np.random.Generator) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases,
    zero loss-weight raw scalar, shaped by ``cfg``'s ``embed_dim``,
    ``gcn_layers``, ``bins`` and ``heads``. Queries are drawn only under
    ``use_attention`` and discriminator weights only under
    ``use_adversarial``. Draw order is fixed (encoder, queries,
    discriminators) so a seed pins every tensor."""
    kinds = tuple(kinds)
    d = cfg.embed_dim
    summary_dim = d + cfg.bins if cfg.two_stage_summary else d
    layers: dict[DistanceKind, list[tuple[Tensor, Tensor]]] = {}
    for kind in kinds:
        stack = []
        in_dim = n_features
        for _ in range(cfg.gcn_layers):
            w = Tensor(_uniform_init(rng, in_dim, d), requires_grad=True)
            b = Tensor(np.zeros((1, d)), requires_grad=True)
            stack.append((w, b))
            in_dim = d
        layers[kind] = stack
    queries = [{kind: Tensor(_uniform_init(rng, d, 1), requires_grad=True)
                for kind in kinds}
               for _ in range(cfg.heads if cfg.use_attention else 0)]
    discriminators = {kind: Tensor(_uniform_init(rng, summary_dim, d),
                                   requires_grad=True)
                      for kind in kinds} if cfg.use_adversarial else {}
    return ModelParams(
        layers=layers,
        queries=queries,
        discriminators=discriminators,
        eta_raw=Tensor(np.zeros((1, 1)), requires_grad=True),
    )


# ---------------------------------------------------------------------------
# encoder and readout


def gcn_forward(norm_adj: np.ndarray, x: Tensor,
                layers: list[tuple[Tensor, Tensor]]) -> Tensor:
    """relu(A_norm @ H @ W + b) stacked, one fused record per layer;
    the normalized adjacency is applied at every layer and the last
    layer keeps its relu. ``x`` may stack several views of the nodes
    row-wise; each is propagated over the same graph."""
    h = x
    for w, b in layers:
        h = ad.gcn_layer(norm_adj, h, w, b)
    return h


def node_summary(h: Tensor) -> Tensor:
    """Node-level readout: sigmoid of the column means, 1 x D,
    differentiable."""
    return ad.sigmoid(ad.mean_rows(h))


def value_histogram(values: np.ndarray, bins: int,
                    weighting: str = "magnitude") -> np.ndarray:
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


def graph_summary(h: Tensor, bins: int, weighting: str = "magnitude",
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


def attention_merge(embeddings: list[Tensor],
                    queries_per_head: list[dict[DistanceKind, Tensor]],
                    kinds: tuple[DistanceKind, ...],
                    return_weights: bool = False):
    """Per head, per node: softmax over relation types of query . H_i,
    then the weighted sum of the relation embeddings; heads are
    averaged. One fused record (``autodiff.relation_attention``) covers
    every head. A single relation type merges to itself exactly
    (weights forced to 1). ``return_weights`` adds one N x T weight
    matrix per head."""
    if len(embeddings) != len(kinds) or not embeddings:
        raise ValueError(f"{len(embeddings)} embeddings for {len(kinds)} kinds")
    n = embeddings[0].data.shape[0]
    if len(embeddings) == 1:
        weights = [np.ones((n, 1))] * len(queries_per_head)
        return (embeddings[0], weights) if return_weights else embeddings[0]
    out, w = ad.relation_attention(
        embeddings, [[queries[kind] for queries in queries_per_head] for kind in kinds])
    if not return_weights:
        return out
    return out, [w[:, :, h].T.copy() for h in range(w.shape[2])]


def average_merge(embeddings: list[Tensor]) -> Tensor:
    """Unweighted mean over relation types (attention ablation)."""
    if not embeddings:
        raise ValueError("nothing to merge")
    if len(embeddings) == 1:
        return embeddings[0]
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


def adversarial_loss(summaries: list[Tensor], positives: list[Tensor],
                     negatives: list[Tensor], weights: list[Tensor]) -> Tensor:
    """Mean binary cross-entropy of the discriminator over all
    2 * N * |T| (summary, node) pairs: positives score toward 1,
    shuffled negatives toward 0. Computed through softplus on the
    logits, so extreme scores stay finite. Always >= 0."""
    n = positives[0].data.shape[0]
    count = 2 * n * len(summaries)
    total = None
    for g, pos, neg, w in zip(summaries, positives, negatives, weights):
        lp = _discriminator_logits(g, pos, w)
        ln = _discriminator_logits(g, neg, w)
        # -log sigmoid(x) = softplus(-x); -log(1 - sigmoid(x)) = softplus(x)
        term = ad.add(ad.sum_all(ad.softplus(ad.mul_scalar(lp, -1.0))),
                      ad.sum_all(ad.softplus(ln)))
        total = term if total is None else ad.add(total, term)
    return ad.mul_scalar(total, 1.0 / count)


def global_target(node_parts: list[Tensor], n_rows: int) -> Tensor:
    """Average of the node-level summaries, broadcast to one row per
    node. Built with a ones-matrix product so gradients flow back into
    the summaries (this is not a stop-gradient)."""
    avg = node_parts[0]
    for p in node_parts[1:]:
        avg = ad.add(avg, p)
    avg = ad.mul_scalar(avg, 1.0 / len(node_parts))
    ones = ad.constant(np.ones((n_rows, 1)))
    return ad.matmul(ones, avg)


def hybrid_attention_loss(target: Tensor, merged_pos: Tensor,
                          merged_neg: Tensor) -> Tensor:
    """sum((P - X)^2) - sum((P - X_shuffled)^2); may be negative."""
    pos = ad.sum_all(ad.square(ad.sub(target, merged_pos)))
    neg = ad.sum_all(ad.square(ad.sub(target, merged_neg)))
    return ad.sub(pos, neg)


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
                  norm_adjs: dict[DistanceKind, np.ndarray],
                  params: ModelParams, cfg: TrainConfig,
                  frozen_histograms: dict[DistanceKind, np.ndarray] | None = None
                  ) -> ForwardResult:
    """One training pass over every relation type: encode both views,
    summarize, score the discriminator, merge, and combine the losses.
    ``cfg`` supplies ``bins``, ``histogram_weighting`` and the switches
    ``use_attention``, ``two_stage_summary`` and ``use_adversarial``;
    ``params`` must hold the tensors those switches train.

    The two views run stacked, original rows [0, N) over shuffled rows
    [N, 2N), through one GCN record per layer and relation and one
    attention record; the summary, discriminator and hybrid loss read
    each view's rows as a view of the stacked result.
    ``frozen_histograms`` substitutes stored graph-level readouts (they
    are constants under autodiff, so this changes no gradient and lets
    finite-difference harnesses hold them fixed)."""
    kinds = params.kinds
    n = x.shape[0]
    stacked = ad.constant(np.concatenate([x, x_shuffled]))
    embeddings = [gcn_forward(norm_adjs[kind], stacked, params.layers[kind])
                  for kind in kinds]
    positives, negatives, summaries, node_parts = [], [], [], []
    histograms: dict[DistanceKind, np.ndarray] = {}
    for kind, h in zip(kinds, embeddings):
        h_pos = ad.slice_rows(h, 0, n)
        positives.append(h_pos)
        negatives.append(ad.slice_rows(h, n, 2 * n))
        if cfg.two_stage_summary:
            frozen = None if frozen_histograms is None else frozen_histograms[kind]
            summary, p, q = graph_summary(h_pos, cfg.bins, cfg.histogram_weighting,
                                          frozen)
            histograms[kind] = q
            summaries.append(summary)
            node_parts.append(p)
        else:
            summary = ad.mean_rows(h_pos)
            summaries.append(summary)
            node_parts.append(summary)

    l_adv = None
    if cfg.use_adversarial:
        discs = [params.discriminators[kind] for kind in kinds]
        l_adv = adversarial_loss(summaries, positives, negatives, discs)

    merged = _merge(embeddings, params, cfg)
    target = global_target(node_parts, n)
    l_hybrid = hybrid_attention_loss(target, ad.slice_rows(merged, 0, n),
                                     ad.slice_rows(merged, n, 2 * n))
    loss = joint_loss(l_adv, l_hybrid, params.eta_raw)
    return ForwardResult(
        loss=loss,
        adversarial=0.0 if l_adv is None else l_adv.item(),
        hybrid=l_hybrid.item(),
        histograms=histograms,
    )


def _merge(embeddings: list[Tensor], params: ModelParams,
           cfg: TrainConfig) -> Tensor:
    if cfg.use_attention:
        return attention_merge(embeddings, params.queries, params.kinds)
    return average_merge(embeddings)


def encode(x: np.ndarray, norm_adjs: dict[DistanceKind, np.ndarray],
           params: ModelParams, cfg: TrainConfig) -> np.ndarray:
    """N x D merged embedding of the original view (no tape, no grads),
    through the same fused kernels as ``joint_forward``; ``cfg``'s
    ``use_attention`` picks the merge."""
    xt = ad.constant(x)
    embeddings = [gcn_forward(norm_adjs[kind], xt, params.layers[kind])
                  for kind in params.kinds]
    return _merge(embeddings, params, cfg).data.copy()
