"""Minimal reverse-mode automatic differentiation on 2-D float64 tensors.

Everything is a (rows, cols) matrix; scalars are 1x1. Operations record
onto the innermost active ``Tape`` (define-by-run, rebuilt every
iteration) and ``Tape.backward`` sweeps the record once in reverse,
propagating vector-Jacobian products. Gradients are return values:
``backward`` hands back one array per requested leaf, ``clip_global_norm``
returns scaled arrays, and ``Adam`` updates parameter arrays in place.
No tensor keeps gradient state between passes.

A tape is single-use. Each record keeps its output and a VJP closure
over what the VJP reads; the sweep releases every record once it has
passed it, so the forward pass's memory falls while the backward pass
runs, and a second ``backward`` on the same tape raises.

Besides elementwise and matrix primitives there are two fused kernels,
``gcn_layer`` and ``relation_attention``: each is one record with a
hand-written VJP for a whole model stage (a GCN layer over every
stacked view; the attention merge over every head), so the tape holds
a handful of stacked products per epoch instead of one output per
small op. ``gcn_layer`` picks its product order by multiply-add count,
A (H W) or (A H) W, and only the latter keeps A H on the tape.
``slice_rows`` hands out views of a stacked result without copying it,
and its adjoint is added into the stacked adjoint's rows in place.

The tape serves the unsupervised objective only; the supervised
softmax head trains on its closed-form gradient
(``train.head_gradients``) without recording anything.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform."""


class Tensor:
    """A 2-D float64 array and whether gradients flow to it."""

    __slots__ = ("data", "requires_grad")

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

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


# A record is (output, inputs, vjp) where vjp maps the output adjoint to
# one adjoint per input: an array, a _RowAdjoint, or None for inputs that
# do not need one.
_Record = tuple[Tensor, tuple[Tensor, ...], Callable[[np.ndarray], tuple]]

_ACTIVE_TAPES: list["Tape"] = []


class _RowAdjoint(NamedTuple):
    """Adjoint ``g`` of rows [start, stop) of an input, zero elsewhere."""

    start: int
    stop: int
    g: np.ndarray


class Tape:
    """Ordered record of executed operations, swept once.

    Each record keeps its output and a VJP closure over what that VJP
    reads: its inputs and whatever the kernel saved (``gcn_layer``'s
    docstring says what a GCN record saves). ``backward`` releases each
    record, output and closure, once the sweep has passed it, and frees
    each intermediate adjoint once its producing record has consumed it,
    so memory falls as the sweep proceeds. A swept tape holds nothing
    and cannot be swept again; ``len`` still counts the operations it
    recorded.
    """

    def __init__(self):
        self._records: list[_Record] | None = []
        self._ops = 0

    def __enter__(self) -> "Tape":
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE_TAPES.pop()

    def __len__(self) -> int:
        return self._ops

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], vjp) -> None:
        if self._records is None:
            raise ValueError("cannot record onto a tape that backward has swept")
        self._records.append((out, inputs, vjp))
        self._ops += 1

    def backward(self, loss: Tensor, wrt: Sequence[Tensor]) -> list[np.ndarray]:
        """d(loss)/d(t) for each tensor t of ``wrt``, in order, with zeros
        where the loss does not reach t. ``loss`` must be 1x1.

        Every tensor of ``wrt`` must be a leaf, a tensor this tape did not
        record as an output (a parameter or an input): an intermediate's
        adjoint is freed once the sweep reaches the record that produced
        it. The sweep consumes the tape: a second call raises
        ``ValueError``. The returned arrays may share memory (``add``
        hands one adjoint to both inputs); read them, do not write them.

        Adjoints are summed in arrays the sweep allocated itself, never in
        one a VJP returned; a row slice's adjoint is added into the rows
        it came from, without a zero-padded copy of the whole input.
        """
        if self._records is None:
            raise ValueError("backward: this tape has already been swept")
        if loss.data.shape != (1, 1):
            raise ShapeError(f"backward needs a scalar loss, got {loss.data.shape}")
        records = self._records
        recorded = {id(out) for out, _, _ in records}
        if any(id(t) in recorded for t in wrt):
            raise ValueError("backward: wrt holds an output this tape recorded")
        self._records = None
        pending: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
        owned: set[int] = set()  # keys whose pending array the sweep allocated
        while records:
            out, inputs, vjp = records.pop()
            g = pending.pop(id(out), None)
            if g is None:
                continue
            for inp, contrib in zip(inputs, vjp(g)):
                if contrib is None or not inp.requires_grad:
                    continue
                key = id(inp)
                prev = pending.get(key)
                if isinstance(contrib, _RowAdjoint):
                    if key not in owned:
                        pending[key] = (np.zeros_like(inp.data) if prev is None
                                        else prev.copy())
                        owned.add(key)
                    pending[key][contrib.start:contrib.stop] += contrib.g
                elif prev is None:
                    pending[key] = contrib
                elif key in owned:
                    prev += contrib
                else:
                    pending[key] = prev + contrib
                    owned.add(key)
        return [pending[id(t)] if id(t) in pending else np.zeros_like(t.data)
                for t in wrt]


def _current_tape() -> Tape | None:
    return _ACTIVE_TAPES[-1] if _ACTIVE_TAPES else None


def _make(data: np.ndarray, inputs: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs))
    tape = _current_tape()
    if tape is not None and out.requires_grad:
        tape._record(out, inputs, vjp)
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
    """Rows [start, stop) of x as a view of its data, not a copy. Its
    adjoint goes back as those rows only; ``Tape.backward`` adds it into
    x's adjoint in place."""
    if not (0 <= start < stop <= x.data.shape[0]):
        raise ShapeError(f"slice_rows [{start}:{stop}] of {x.data.shape}")
    return _make(x.data[start:stop], (x,), lambda g: (_RowAdjoint(start, stop, g),))


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

    The layer takes whichever product order costs fewer multiply-adds
    for the forward pass and the VJP together, A (H W) on a tie. The
    H W-sized GEMMs cost the same in both orders, so per row A (H W)
    pays A and A^T over d_out columns, and (A H) W pays A over d_in
    columns, plus A^T over d_in more when H needs an adjoint:

    - A (H W): the record keeps only its output; the VJP is
      q = A^T gz, dW = H^T q, dH = q W^T.
    - (A H) W: the record also keeps A H for the weight gradient.

    So a square layer on a trainable input runs A (H W), and a layer
    that widens a constant input (the feature matrix) runs (A H) W.
    Each A product is one GEMM per view; the relu mask is read back
    from the output. No adjoint is formed for a constant ``h``.
    """
    n = adj.shape[0]
    rows, d_in = h.data.shape
    d_out = w.data.shape[1]
    if adj.shape != (n, n) or rows % n or w.data.shape[0] != d_in \
            or b.data.shape != (1, d_out):
        raise ShapeError(f"gcn_layer: adjacency {adj.shape}, input {h.data.shape}, "
                         f"weight {w.data.shape}, bias {b.data.shape}")
    views = rows // n

    def per_view(a: np.ndarray, m: np.ndarray) -> np.ndarray:
        return np.matmul(a, m.reshape(views, n, -1)).reshape(rows, -1)

    weight_first = 2 * d_out <= d_in * (2 if h.requires_grad else 1)
    ah = None if weight_first else per_view(adj, h.data)
    pre = per_view(adj, h.data @ w.data) if weight_first else ah @ w.data
    pre += b.data
    out = np.where(pre > 0, pre, 0.0)

    def vjp(g):
        gz = g * (out > 0)
        gb = gz.sum(axis=0, keepdims=True) if b.requires_grad else None
        if weight_first:
            q = per_view(adj.T, gz)
            return (q @ w.data.T if h.requires_grad else None,
                    h.data.T @ q if w.requires_grad else None, gb)
        return (per_view(adj.T, gz @ w.data.T) if h.requires_grad else None,
                ah.T @ gz if w.requires_grad else None, gb)

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


def clip_global_norm(grads: Sequence[np.ndarray],
                     max_norm: float) -> list[np.ndarray]:
    """``grads`` scaled by one factor so their joint L2 norm is <= max_norm,
    as new arrays; the inputs themselves when no clip is needed. Never
    writes its inputs, so gradients that share memory are safe."""
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    total = 0.0
    for g in grads:
        total += float((g * g).sum())
    norm = np.sqrt(total)
    if norm <= max_norm:
        return list(grads)
    scale = max_norm / norm
    return [g * scale for g in grads]


class Adam:
    """Adam with bias correction over a fixed ordered list of parameter
    arrays, which ``step`` updates in place: pass each tensor's ``data``
    and never rebind it, or the optimizer updates a stale array."""

    def __init__(self, params: Sequence[np.ndarray], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr < 0:
            raise ValueError(f"lr must be >= 0, got {lr}")
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.t = 0

    def step(self, grads: Sequence[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ValueError(f"got {len(grads)} grads for {len(self.params)} params")
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            if g.shape != p.shape:
                raise ShapeError(f"grad shape {g.shape} for param {p.shape}")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)

