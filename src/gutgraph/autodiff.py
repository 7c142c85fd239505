"""Minimal reverse-mode automatic differentiation on 2-D float64 tensors.

Everything is a (rows, cols) matrix; scalars are 1x1. Operations record
onto the innermost active ``Tape`` (define-by-run, rebuilt every
iteration) and ``Tape.backward`` replays the record in reverse,
propagating vector-Jacobian products. Gradients land on leaves only
(parameters and inputs, never recorded intermediates), in
``Tensor.grad``; each intermediate's adjoint is freed as soon as the
sweep has passed the record that produced it.

Besides elementwise and matrix primitives there are two fused kernels,
``gcn_layer`` and ``relation_attention``: each is one record with a
hand-written VJP for a whole model stage (a GCN layer over every
stacked view; the attention merge over every head), so the tape holds
a handful of stacked products per epoch instead of one output per
small op. ``slice_rows`` hands out views of a stacked result without
copying it.

The tape serves the unsupervised objective only; the supervised
softmax head trains on its closed-form gradient
(``train.head_gradients``) without recording anything.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform."""


class Tensor:
    """A 2-D float64 array plus gradient bookkeeping.

    ``grad`` is ``None`` until a backward pass deposits something;
    repeated backward passes without ``zero_grad`` accumulate.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D, got ndim={arr.ndim}")
        if arr.size == 0:
            raise ShapeError(f"zero-size tensor with shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


# A record is (output, inputs, vjp) where vjp maps the output adjoint to
# one adjoint per input (None for inputs that do not need one).
_Record = tuple[Tensor, tuple[Tensor, ...], Callable[[np.ndarray], tuple]]

_ACTIVE_TAPES: list["Tape"] = []


class Tape:
    """Ordered record of executed operations for one backward pass.

    ``backward`` writes ``grad`` on leaf tensors only and frees each
    intermediate adjoint once the sweep has passed it, so a pass holds
    at most the adjoints still waiting for their producing record.
    """

    def __init__(self):
        self._records: list[_Record] = []

    def __enter__(self) -> "Tape":
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE_TAPES.pop()

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into ``grad`` of every leaf that
        requires gradients. ``loss`` must be 1x1.

        A leaf is a tensor this tape did not record as an output: a
        parameter or an input. Recorded intermediates never receive
        ``grad``. Each intermediate's adjoint is complete once the sweep
        reaches the record that produced it, and is freed there.
        """
        if loss.data.shape != (1, 1):
            raise ShapeError(f"backward needs a scalar loss, got {loss.data.shape}")
        # Adjoints for THIS pass live in a local map so earlier passes
        # (accumulated in .grad) never feed back into the sweep.
        pending: dict[int, tuple[Tensor, np.ndarray]] = {
            id(loss): (loss, np.ones((1, 1)))}
        for out, inputs, vjp in reversed(self._records):
            entry = pending.pop(id(out), None)
            if entry is None:
                continue
            for inp, contrib in zip(inputs, vjp(entry[1])):
                if contrib is None or not inp.requires_grad:
                    continue
                prev = pending.get(id(inp))
                pending[id(inp)] = (inp, contrib if prev is None else prev[1] + contrib)
        # A deposited adjoint may be shared (``add`` hands one array to
        # both inputs) and is never written in place; ``gather_grads``
        # makes the one copy the optimizer may scale.
        for t, g in pending.values():
            if t.requires_grad:
                t.grad = g if t.grad is None else t.grad + g


def _current_tape() -> Tape | None:
    return _ACTIVE_TAPES[-1] if _ACTIVE_TAPES else None


def _make(data: np.ndarray, inputs: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs))
    tape = _current_tape()
    if tape is not None and out.requires_grad:
        tape._records.append((out, inputs, vjp))
    return out


def constant(data) -> Tensor:
    """Tensor that never receives gradients (stop-gradient wrapper)."""
    return Tensor(data, requires_grad=False)


# ---------------------------------------------------------------------------
# primitive operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data

    def vjp(g):
        # A constant operand needs no adjoint. For the N x N normalized
        # adjacency that skipped GEMM is the largest one in the pass.
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _make(out, (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: {a.data.shape} vs {b.data.shape}")
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub: {a.data.shape} vs {b.data.shape}")
    return _make(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: {a.data.shape} vs {b.data.shape}")
    out = a.data * b.data

    def vjp(g):
        return g * b.data, g * a.data

    return _make(out, (a, b), vjp)


def mul_scalar(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make(x.data * c, (x,), lambda g: (g * c,))


def square(x: Tensor) -> Tensor:
    return _make(x.data * x.data, (x,), lambda g: (2.0 * x.data * g,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Piecewise form avoids exp overflow for large |x|.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)
    return _make(s, (x,), lambda g: (g * s * (1.0 - s),))


def softplus(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))
    return _make(out, (x,), lambda g: (g * _sigmoid(x.data),))


def transpose(x: Tensor) -> Tensor:
    return _make(x.data.T.copy(), (x,), lambda g: (g.T,))


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[0] != b.data.shape[0]:
        raise ShapeError(f"concat_cols: {a.data.shape} vs {b.data.shape}")
    out = np.concatenate([a.data, b.data], axis=1)
    ca = a.data.shape[1]

    def vjp(g):
        return g[:, :ca], g[:, ca:]

    return _make(out, (a, b), vjp)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows [start, stop) of x as a view of its data, not a copy."""
    if not (0 <= start < stop <= x.data.shape[0]):
        raise ShapeError(f"slice_rows [{start}:{stop}] of {x.data.shape}")

    def vjp(g):
        full = np.zeros_like(x.data)
        full[start:stop] = g
        return (full,)

    return _make(x.data[start:stop], (x,), vjp)


def mean_rows(x: Tensor) -> Tensor:
    """Column means as a 1xC row.

    Values are summed in per-column sorted order so the result is
    bit-identical under any row permutation of the input.
    """
    n = x.data.shape[0]
    out = np.sum(np.sort(x.data, axis=0), axis=0, keepdims=True) / n
    return _make(out, (x,), lambda g: (np.repeat(g / n, n, axis=0),))


def sum_all(x: Tensor) -> Tensor:
    out = np.array([[x.data.sum()]])
    return _make(out, (x,), lambda g: (np.full_like(x.data, g[0, 0]),))


# ---------------------------------------------------------------------------
# fused kernels: one record, one hand-written VJP, for an operation the
# model runs over every relation and both views each epoch


def gcn_layer(adj: np.ndarray, h: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """relu(A @ H_v @ W + b) for every view H_v of the N nodes stacked
    row-wise in ``h`` (V*N rows). ``adj`` is the constant N x N
    normalized adjacency; the relu's subgradient at exactly 0 is 0.

    The record keeps A @ H for the weight gradient, which is one GEMM
    over all V*N rows; the relu mask is read back from the output. No
    adjoint is formed for a constant ``h`` (the feature matrix).
    """
    n = adj.shape[0]
    rows, d_in = h.data.shape
    if adj.shape != (n, n) or rows % n or w.data.shape[0] != d_in \
            or b.data.shape != (1, w.data.shape[1]):
        raise ShapeError(f"gcn_layer: adjacency {adj.shape}, input {h.data.shape}, "
                         f"weight {w.data.shape}, bias {b.data.shape}")
    views = rows // n
    ah = np.matmul(adj, h.data.reshape(views, n, d_in)).reshape(rows, d_in)
    pre = ah @ w.data
    pre += b.data
    out = np.where(pre > 0, pre, 0.0)

    def vjp(g):
        gz = g * (out > 0)
        gh = None
        if h.requires_grad:
            gah = (gz @ w.data.T).reshape(views, n, d_in)
            gh = np.matmul(adj.T, gah).reshape(rows, d_in)
        return (gh,
                ah.T @ gz if w.requires_grad else None,
                gz.sum(axis=0, keepdims=True) if b.requires_grad else None)

    return _make(out, (h, w, b), vjp)


def relation_attention(embeddings: Sequence[Tensor],
                       queries: Sequence[Sequence[Tensor]]
                       ) -> tuple[Tensor, np.ndarray]:
    """Attention merge of T relation embeddings E_t (M x D each) under
    H heads; ``queries[t][h]`` is the D x 1 query of head h for
    relation t. Per row and head, softmax over t of E_t @ q_{h,t};
    the merge is sum_t (mean_h w_{h,t}) * E_t.

    Returns the merged M x D tensor and the T x M x H softmax weights,
    which are all the record keeps for its VJP.
    """
    if len(embeddings) != len(queries) or not embeddings:
        raise ShapeError(f"{len(embeddings)} embeddings for {len(queries)} query sets")
    m, d = embeddings[0].data.shape
    heads = len(queries[0])
    q = [np.concatenate([qh.data for qh in per_t], axis=1) for per_t in queries]
    for e, qt in zip(embeddings, q):
        if e.data.shape != (m, d) or qt.shape != (d, heads):
            raise ShapeError(f"relation_attention: embedding {e.data.shape} with "
                             f"queries {qt.shape}, expected ({m}, {d}) and ({d}, {heads})")
    scores = np.stack([e.data @ qt for e, qt in zip(embeddings, q)])  # T x M x H
    weights = np.exp(scores - scores.max(axis=0))
    weights /= weights.sum(axis=0)
    per_row = weights.mean(axis=2)  # T x M
    out = per_row[0][:, None] * embeddings[0].data
    for e, c in zip(embeddings[1:], per_row[1:]):
        out += c[:, None] * e.data

    def vjp(g):
        g_row = np.stack([np.einsum("ij,ij->i", g, e.data) for e in embeddings]) / heads
        g_scores = weights * (g_row[:, :, None]
                              - (weights * g_row[:, :, None]).sum(axis=0))
        g_emb, g_q = [], []
        for e, qt, c, gs, per_t in zip(embeddings, q, per_row, g_scores, queries):
            g_emb.append(c[:, None] * g + gs @ qt.T if e.requires_grad else None)
            gq = e.data.T @ gs
            g_q.extend(gq[:, i:i + 1] if qh.requires_grad else None
                       for i, qh in enumerate(per_t))
        return (*g_emb, *g_q)

    inputs = (*embeddings, *(qh for per_t in queries for qh in per_t))
    return _make(out, inputs, vjp), weights


# ---------------------------------------------------------------------------
# optimization


def clip_global_norm(grads: Sequence[np.ndarray], max_norm: float) -> None:
    """Scale all gradients in place so their joint L2 norm is <= max_norm."""
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    total = 0.0
    for g in grads:
        total += float((g * g).sum())
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads:
            g *= scale


class Adam:
    """Adam with bias correction over a fixed ordered parameter list."""

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr < 0:
            raise ValueError(f"lr must be >= 0, got {lr}")
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self, grads: Sequence[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ValueError(f"got {len(grads)} grads for {len(self.params)} params")
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            if g.shape != p.data.shape:
                raise ShapeError(f"grad shape {g.shape} for param {p.data.shape}")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def gather_grads(params: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradients aligned with ``params``; unreached parameters get zeros.
    Each is a fresh array, so ``clip_global_norm`` may scale it in place
    even where leaves share one ``.grad`` array."""
    return [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
            for p in params]
