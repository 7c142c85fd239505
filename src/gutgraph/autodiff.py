"""Minimal reverse-mode automatic differentiation on 2-D float64 tensors.

Everything is a (rows, cols) matrix; scalars are 1x1. Operations record
onto the innermost active ``Tape`` (define-by-run, rebuilt every
iteration) and ``Tape.backward`` sweeps the record once in reverse,
propagating vector-Jacobian products. Gradients are return values:
``backward`` hands back one array per requested leaf, the caller's own.
The optimizer step then works in place: ``clip_global_norm`` scales
those arrays where they lie, and ``Adam.step`` updates the parameter
arrays and consumes the gradients, forming its update in them through
one scratch buffer. No tensor keeps gradient state between passes.

A tape is single-use. Each record keeps its output and a VJP closure
over what the VJP reads; the sweep releases every record once it has
passed it, so the forward pass's memory falls while the backward pass
runs, and a second ``backward`` on the same tape raises.

Adjoint ownership is one rule, the VJP contract: a VJP owns the ``g``
it is handed and may write it, and it returns only arrays nothing else
references, each at most once: ``g`` itself or new arrays, never a view
of an input or of an array it keeps. So every adjoint the sweep holds
is its own: it sums into it in place, hands it to the next VJP, and
finally to the caller.

A VJP may also return a deferred adjoint, ``_Deferred(make)``: the
sweep keeps it unformed until it first needs that input's adjoint, and
``make()`` must then return a new array. A deferred adjoint may read
the VJP's ``g``, so such a VJP does not return its ``g`` and no code
writes that ``g`` after the VJP returns. ``relation_attention`` returns
one per embedding, so each relation's adjoint comes into being only
when the sweep reaches that relation's records.

Besides elementwise and matrix primitives there are three fused
kernels, ``gcn_stack``, ``relation_attention`` and ``hybrid_loss``:
each is one record with a hand-written VJP for a whole model stage (a
relation's GCN layers over every stacked view; the attention merge
over every head; the hybrid attention loss), so the tape holds a
handful of stacked products per epoch instead of one output per small
op. ``gcn_stack`` picks each layer's product order by multiply-add
count, A (H W) or (A H) W; only the latter keeps A H on the tape, and
then the layer's output only when it is the stack's last, since the
VJP can recompute it from A H. ``slice_rows`` hands out views of a
stacked result without copying it, and its adjoint is added into the
stacked adjoint's rows in place.

The tape serves the unsupervised objective only; the supervised
softmax head trains on its closed-form gradient
(``train.head_gradients``) without recording anything.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform."""


class Tensor:
    """A 2-D float64 array and whether gradients flow to it."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
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
# one adjoint per input: an array, a _RowAdjoint, a _Deferred, or None for
# inputs that do not need one.
_Record = tuple[Tensor, tuple[Tensor, ...], Callable[[np.ndarray], tuple]]

_ACTIVE_TAPES: list["Tape"] = []


class _RowAdjoint(NamedTuple):
    """Adjoint ``g`` of rows [start, stop) of an input, zero elsewhere."""

    start: int
    stop: int
    g: np.ndarray


class _Deferred(NamedTuple):
    """An adjoint not yet formed: ``make()`` returns it as a new array.
    ``Tape.backward`` calls it when it first needs the input's adjoint."""

    make: Callable[[], np.ndarray]


class Tape:
    """Ordered record of executed operations, swept once.

    Each record keeps its output and a VJP closure over what that VJP
    reads: its inputs and whatever the kernel saved (``gcn_stack``'s
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
        record as an output (a parameter or an input), and appear in it
        once: an intermediate's adjoint is freed once the sweep reaches
        the record that produced it, and a repeated leaf would get one
        array twice. The sweep consumes the tape: a second call raises
        ``ValueError``.

        Under the VJP contract (see the module docstring) every adjoint
        the sweep holds is its own. Adjoints meeting at one input are
        summed in place into the one that arrived first (float addition
        commutes, so the bits are those of ``prev + contrib``). A row
        slice's adjoint is added into the rows it came from, without a
        zero-padded copy of the whole input.

        A deferred adjoint stays unformed in ``pending`` until the sweep
        needs that input's adjoint: when another adjoint arrives for it
        (the deferred one is formed first, then the sum runs as above),
        when its own record is popped, or when it is returned for
        ``wrt``.

        Each returned array is writeable and the caller's alone.
        """
        if self._records is None:
            raise ValueError("backward: this tape has already been swept")
        if loss.data.shape != (1, 1):
            raise ShapeError(f"backward needs a scalar loss, got {loss.data.shape}")
        records = self._records
        recorded = {id(out) for out, _, _ in records}
        if any(id(t) in recorded for t in wrt):
            raise ValueError("backward: wrt holds an output this tape recorded")
        if len({id(t) for t in wrt}) != len(wrt):
            raise ValueError("backward: wrt repeats a tensor")
        self._records = None
        pending: dict[int, np.ndarray | _Deferred] = {id(loss): np.ones((1, 1))}
        while records:
            out, inputs, vjp = records.pop()
            g = pending.pop(id(out), None)
            if g is None:
                continue
            if isinstance(g, _Deferred):
                g = g.make()
            _accumulate(pending, inputs, vjp(g))
        return [_formed(pending, id(t)) if id(t) in pending else np.zeros_like(t.data)
                for t in wrt]


def _formed(pending: dict[int, np.ndarray | _Deferred], key: int) -> np.ndarray:
    """``pending[key]``, formed first if it is a deferred adjoint."""
    prev = pending[key]
    if isinstance(prev, _Deferred):
        prev = pending[key] = prev.make()
    return prev


def _accumulate(pending: dict[int, np.ndarray | _Deferred],
                inputs: tuple[Tensor, ...], contribs: tuple) -> None:
    """Add one VJP's adjoints into ``pending``: an adjoint for a key
    with nothing pending is kept as it is (a deferred one unformed, a
    row slice's in a zero array of the input's shape), any other is
    added into the pending one in place."""
    for inp, contrib in zip(inputs, contribs):
        if contrib is None or not inp.requires_grad:
            continue
        key = id(inp)
        if key not in pending:
            if not isinstance(contrib, _RowAdjoint):
                pending[key] = contrib
                continue
            pending[key] = np.zeros_like(inp.data)
        if isinstance(contrib, _Deferred):
            contrib = contrib.make()
        prev = _formed(pending, key)
        if isinstance(contrib, _RowAdjoint):
            prev[contrib.start:contrib.stop] += contrib.g
        else:
            prev += contrib


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
        # A constant operand needs no adjoint; its GEMM is skipped.
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _make(out, (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: {a.data.shape} vs {b.data.shape}")
    return _make(a.data + b.data, (a, b), lambda g: (g, g.copy()))


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
    return _make(x.data.T.copy(), (x,), lambda g: (g.T.copy(),))


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[0] != b.data.shape[0]:
        raise ShapeError(f"concat_cols: {a.data.shape} vs {b.data.shape}")
    out = np.concatenate([a.data, b.data], axis=1)
    ca = a.data.shape[1]

    def vjp(g):
        return g[:, :ca].copy(), g[:, ca:].copy()

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
    return _make(out, (x,), lambda g: (np.broadcast_to(g / n, x.data.shape).copy(),))


def sum_all(x: Tensor) -> Tensor:
    out = np.array([[x.data.sum()]])
    return _make(out, (x,), lambda g: (np.broadcast_to(g, x.data.shape).copy(),))


# ---------------------------------------------------------------------------
# fused kernels: one record, one hand-written VJP, for an operation the
# model runs over every relation and both views each epoch


def gcn_stack(adj: Callable[[], np.ndarray], x: Tensor,
              layers: Sequence[tuple[Tensor, Tensor]]) -> Tensor:
    """A GCN stack, H_{k+1} = relu(A @ H_k @ W_k + b_k) for each
    (W_k, b_k) of ``layers`` from H_0 = x, applied to every view of the
    N nodes stacked row-wise in ``x`` (V*N rows), as one record.
    ``adj()`` returns the constant N x N normalized adjacency, which
    must be symmetric: the VJP multiplies by A itself where the
    adjoint reads A^T (``graph.normalize_adjacency`` is bitwise
    symmetric, and a C-ordered A runs faster than its transposed
    view). The forward pass calls ``adj`` once and the VJP once more,
    so the record keeps no N x N matrix and ``adj`` may hand out a
    shared buffer it refills in between (``MultiGraph``). The relu's
    subgradient at exactly 0 is 0.

    Each layer takes whichever product order costs fewer multiply-adds
    for its forward pass and VJP together, A (H W) on a tie. The H
    W-sized GEMMs cost the same in both orders, so per row A (H W) pays
    A and A^T over d_out columns, and (A H) W pays A over d_in columns,
    plus A^T over d_in more when H needs an adjoint:

    - A (H W): the record keeps the layer's output; the VJP is
      q = A^T gz, dW = H^T q, dH = q W^T.
    - (A H) W: the record keeps A H for the weight gradient, and the
      layer's output only when it is the stack's last: the VJP
      recomputes relu(A H W + b) from A H when it needs it.

    So a square layer on a trainable input runs A (H W), and a layer
    that widens a constant input (the feature matrix) runs (A H) W.
    Each A product is one GEMM per view; the relu mask is read back
    from the output. Fusing the layers changes no operation and no
    order, so outputs and adjoints have the bytes of the layers
    recorded one at a time.

    The VJP sweeps the layers once, last to first, and runs once. It
    masks the adjoint it is handed in place and writes a square A (H W)
    layer's dH into that same buffer. It recomputes a dropped output
    into the buffer of the output above it once that one's relu mask
    has been read (a new array when that is the record's output or
    another shape), lets go of each kept array once past it, and forms
    every relu mask (as 1.0 and 0.0) and every A^T gz of the stack in
    one buffer. No adjoint is formed for inputs that need none.
    """
    a_norm = adj()
    n = a_norm.shape[0]
    rows, d_in = x.data.shape
    shapes_ok = a_norm.shape == (n, n) and rows % n == 0 and len(layers) > 0
    for w, b in layers:
        shapes_ok = shapes_ok and w.data.shape[0] == d_in \
            and b.data.shape == (1, w.data.shape[1])
        d_in = w.data.shape[1]
    if not shapes_ok:
        raise ShapeError(f"gcn_stack: adjacency {a_norm.shape}, input {x.data.shape}, "
                         f"layers {[(w.data.shape, b.data.shape) for w, b in layers]}")
    views = rows // n

    def per_view(a: np.ndarray, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.matmul(a, m.reshape(views, n, -1),
                         out=None if out is None else out.reshape(views, n, -1)
                         ).reshape(rows, -1)

    last = len(layers) - 1
    # per layer: its product order, whether its input needs an adjoint,
    # its A H (None under A (H W)), and its output (None when dropped)
    weight_first, input_grad, ahs, outs = [], [], [], []
    h, h_grad = x.data, x.requires_grad
    for k, (w, b) in enumerate(layers):
        w_first = 2 * w.data.shape[1] <= h.shape[1] * (2 if h_grad else 1)
        ah = None if w_first else per_view(a_norm, h)
        h = _bias_relu(per_view(a_norm, h @ w.data) if w_first else ah @ w.data, b.data)
        weight_first.append(w_first)
        input_grad.append(h_grad)
        ahs.append(ah)
        outs.append(h if w_first or k == last else None)
        h_grad = h_grad or w.requires_grad or b.requires_grad

    def vjp(g):
        a_t = adj()  # A^T, since A is symmetric
        grads: list[np.ndarray | None] = [None] * (2 * len(layers))
        q = gh = None
        for k in range(last, -1, -1):
            w, b = layers[k]
            if q is None or q.shape != g.shape:
                q = np.empty_like(g)
            # the relu mask, as 1.0 and 0.0 in q (free until A^T gz goes
            # there), goes into g in place
            gz = np.multiply(g, np.greater(outs[k], 0.0, out=q), out=g)
            if k and outs[k - 1] is None:
                # layer k - 1 kept A H, not its output: recompute that into
                # this layer's output, read no more and private unless last
                w_below, b_below = layers[k - 1]
                into = outs[k] if k < last and outs[k].shape[1] == w_below.data.shape[1] else None
                outs[k - 1] = _bias_relu(np.matmul(ahs[k - 1], w_below.data, out=into),
                                         b_below.data)
            outs[k] = None
            h = outs[k - 1] if k else x.data
            if b.requires_grad:
                grads[2 * k + 1] = gz.sum(axis=0, keepdims=True)
            if weight_first[k]:
                per_view(a_t, gz, out=q)
                if w.requires_grad:
                    grads[2 * k] = h.T @ q
                # a square layer's dH = q W^T fits gz's buffer, no longer read
                gh = np.matmul(q, w.data.T, out=gz if gz.shape == h.shape else None) \
                    if input_grad[k] else None
            else:
                gh = per_view(a_t, gz @ w.data.T) if input_grad[k] else None
                if w.requires_grad:
                    grads[2 * k] = ahs[k].T @ gz
                ahs[k] = None
            if gh is None:
                break
            g = gh
        return (gh, *grads)

    return _make(outs[last], (x, *(t for layer in layers for t in layer)), vjp)


def _bias_relu(pre: np.ndarray, b: np.ndarray) -> np.ndarray:
    """relu(pre + b), in ``pre``'s buffer."""
    pre += b
    return _relu_in_place(pre)


def _relu_in_place(pre: np.ndarray) -> np.ndarray:
    """``pre`` with relu applied in place, the bytes of
    ``np.where(pre > 0, pre, 0.0)`` in one pass: fmax maps NaN to 0, and
    adding +0.0 turns its -0.0 into +0.0."""
    np.fmax(pre, 0.0, out=pre)
    pre += 0.0
    return pre


# rows per block of relation_attention's VJP: each block's merge term is
# a temporary of this many rows instead of one of all M
_ROW_BLOCK = 64


def relation_attention(embeddings: Sequence[Tensor],
                       queries: Sequence[Sequence[Tensor]]
                       ) -> tuple[Tensor, np.ndarray]:
    """Attention merge of T relation embeddings E_t (M x D each) under
    H heads; ``queries[t][h]`` is the D x 1 query of head h for
    relation t. Per row and head, softmax over t of E_t @ q_{h,t};
    the merge is sum_t (mean_h w_{h,t}) * E_t.

    Returns the merged M x D tensor and the T x M x H softmax weights,
    which are all the record keeps for its VJP. The VJP forms the query
    adjoints at once, each a D x 1 column copy of its own, and returns
    each trainable embedding's adjoint deferred (``_Deferred``), holding
    only ``g`` and the small score adjoints until the sweep needs it.
    Its ``make()`` returns one new M x D array: the score term
    ``gs @ q_t^T`` is formed into it and the merge term ``c_t * g`` is
    added in blocks of ``_ROW_BLOCK`` rows (float addition commutes, so
    the bits are those of ``c_t * g + gs @ q_t^T``).
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
            g_emb.append(_Deferred(partial(_embedding_adjoint, g, gs, qt, c))
                         if e.requires_grad else None)
            gq = e.data.T @ gs
            # each query's adjoint a column copy of its own
            g_q.extend(gq[:, i:i + 1].copy() if qh.requires_grad else None
                       for i, qh in enumerate(per_t))
        return (*g_emb, *g_q)

    inputs = (*embeddings, *(qh for per_t in queries for qh in per_t))
    return _make(out, inputs, vjp), weights


def _embedding_adjoint(g: np.ndarray, gs: np.ndarray, qt: np.ndarray,
                       c: np.ndarray) -> np.ndarray:
    """One relation's M x D adjoint ``c * g + gs @ qt^T`` in a new array,
    the merge term added ``_ROW_BLOCK`` rows at a time."""
    ge = gs @ qt.T
    for r in range(0, len(ge), _ROW_BLOCK):
        rows = slice(r, r + _ROW_BLOCK)
        ge[rows] += c[rows, None] * g[rows]
    return ge


def hybrid_loss(node_parts: Sequence[Tensor], merged: Tensor) -> Tensor:
    """sum((P - X)^2) - sum((P - X_shuffled)^2), 1 x 1; may be negative.

    ``merged`` stacks X (rows [0, N)) over X_shuffled (rows [N, 2N)),
    and P is the mean of the T 1 x D ``node_parts`` on every one of the
    N rows, so gradients flow back into the node parts. The record keeps
    only P; the VJP recomputes the differences, and the node parts'
    adjoint sums the target's adjoint over rows with one ones-column
    GEMM; each part receives its own scaled copy of that sum.
    """
    rows, d = merged.data.shape
    n = rows // 2
    if rows % 2 or not node_parts \
            or any(p.data.shape != (1, d) for p in node_parts):
        raise ShapeError(f"hybrid_loss: merged {merged.data.shape} with node parts "
                         f"{[p.data.shape for p in node_parts]}")
    scale = 1.0 / len(node_parts)
    avg = node_parts[0].data
    for p in node_parts[1:]:
        avg = avg + p.data
    avg = avg * scale

    def sum_sq(view: np.ndarray) -> float:
        diff = avg - view
        diff *= diff
        return diff.sum()

    out = np.array([[sum_sq(merged.data[:n])]]) - np.array([[sum_sq(merged.data[n:])]])

    def vjp(g):
        # d/dP and d/dX of (P - X)^2 are 2 (P - X) and its negative;
        # the shuffled half carries -g. gm holds 2 (P - X) g per half,
        # then the merged adjoint, 0 - that, in place.
        gm = np.subtract(avg, merged.data)
        gm *= 2.0
        gm[:n] *= g
        gm[n:] *= -g
        g_parts = (None,) * len(node_parts)
        if any(p.requires_grad for p in node_parts):
            g_avg = np.ones((n, 1)).T @ (gm[n:] + gm[:n])
            g_parts = tuple(g_avg * scale for _ in node_parts)
        if not merged.requires_grad:
            return (*g_parts, None)
        return (*g_parts, np.subtract(0.0, gm, out=gm))

    return _make(out, (*node_parts, merged), vjp)


# ---------------------------------------------------------------------------
# optimization


def clip_global_norm(grads: Sequence[np.ndarray], max_norm: float,
                     scratch: np.ndarray) -> float:
    """Scale ``grads`` by one factor so their joint L2 norm is <=
    max_norm; returns the joint norm measured before scaling.

    Each gradient is scaled in place (``g *= scale``, the bits of
    ``g * scale``), so each must be the caller's own writeable C-ordered
    array, as ``Tape.backward`` returns them. With no clip needed they
    are left untouched.

    The norm squares each gradient into ``scratch``, a 1-D float64
    buffer at least as large as the largest gradient, so it has the bits
    of ``sqrt`` of summing ``(g * g).sum()`` over ``grads``. A non-finite
    norm (an overflowing square, a NaN or an inf) raises
    ``FloatingPointError`` rather than zeroing or poisoning the step.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    total = 0.0
    with np.errstate(over="ignore"):
        for g in grads:
            sq = np.multiply(g, g, out=scratch[:g.size].reshape(g.shape))
            total += float(sq.sum())
    norm = np.sqrt(total)
    if not np.isfinite(norm):
        raise FloatingPointError(f"non-finite gradient norm {norm}")
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return float(norm)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction over a fixed ordered list of parameter
    arrays, which ``step`` updates in place: pass each tensor's ``data``
    and never rebind it, or the optimizer updates a stale array.

    ``scratch`` is one 1-D buffer the size of the largest parameter,
    allocated here, so a step allocates nothing; ``clip_global_norm``
    may borrow it between steps.
    """
    def __init__(self, params: Sequence[np.ndarray], lr: float):
        if lr < 0:
            raise ValueError(f"lr must be >= 0, got {lr}")
        self.params = list(params)
        self.lr = float(lr)
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.scratch = np.empty(max((p.size for p in self.params), default=0))
        self.t = 0

    def step(self, grads: Sequence[np.ndarray]) -> None:
        """One update from ``grads``, which it consumes: each must be the
        caller's own writeable array, as ``Tape.backward`` returns them,
        and ends the step holding the update ``lr * m_hat / (sqrt(v_hat)
        + eps)``. Runs the elementwise operations of ``m = b1 m + (1 -
        b1) g``, ``v = b2 v + (1 - b2) g^2`` and ``p -= lr * (m / b1t) /
        (sqrt(v / b2t) + eps)`` in that order through ``g`` and
        ``scratch``, so every output has the bits of the out-of-place
        expressions."""
        if len(grads) != len(self.params):
            raise ValueError(f"got {len(grads)} grads for {len(self.params)} params")
        for p, g in zip(self.params, grads):
            if g.shape != p.shape:
                raise ShapeError(f"grad shape {g.shape} for param {p.shape}")
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            s = self.scratch[:g.size].reshape(g.shape)
            np.multiply(g, 1.0 - ADAM_BETA1, out=s)
            m *= ADAM_BETA1
            m += s
            np.multiply(g, g, out=s)
            s *= 1.0 - ADAM_BETA2
            v *= ADAM_BETA2
            v += s
            np.divide(m, b1t, out=g)
            g *= self.lr
            np.divide(v, b2t, out=s)
            np.sqrt(s, out=s)
            s += ADAM_EPS
            g /= s
            p -= g
