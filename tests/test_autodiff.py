import math
import re
import tracemalloc
import weakref
import zlib
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gutgraph import autodiff as ad
from gutgraph.model import init_model_params
from gutgraph.train import TrainConfig, head_gradients


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    return np.linalg.norm(a - b) / max(na, nb, 1e-12)


def _square(x: ad.Tensor) -> ad.Tensor:
    return ad.mul(x, x)


def _sub(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    return ad.add(a, ad.mul_scalar(b, -1.0))


def numeric_grad(f, arr: np.ndarray, h: float = 1e-5, order: int = 2) -> np.ndarray:
    """Central differences of scalar-valued f() that reads arr in place:
    the three-point stencil (error O(h^2)) or, with ``order=4``, the
    five-point one (error O(h^4)), which reaches a tighter bound at a
    step large enough to keep rounding noise small."""
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        keep = arr[idx]

        def at(step):
            arr[idx] = keep + step
            return f()

        if order == 2:
            g[idx] = (at(h) - at(-h)) / (2.0 * h)
        else:
            g[idx] = (8.0 * (at(h) - at(-h)) - (at(2 * h) - at(-2 * h))) / (12.0 * h)
        arr[idx] = keep
    return g


# ---------------------------------------------------------------------------
# hand-checked forward examples


def test_matmul_example():
    a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = ad.Tensor([[5.0], [6.0]])
    out = ad.matmul(a, b)
    assert np.array_equal(out.data, [[17.0], [39.0]])


def test_shape_mismatch_messages():
    a = ad.Tensor(np.ones((2, 3)))
    b = ad.Tensor(np.ones((2, 3)))
    with pytest.raises(ad.ShapeError, match=r"\(2, 3\)"):
        ad.matmul(a, b)
    with pytest.raises(ad.ShapeError):
        ad.add(a, ad.Tensor(np.ones((3, 2))))
    with pytest.raises(ad.ShapeError):
        ad.Tensor(np.zeros((0, 3)))
    with pytest.raises(ad.ShapeError):
        ad.Tensor(np.zeros((2, 2, 2)))


@pytest.mark.parametrize("data", [2.0, np.float64(2.0), [1.0, 2.0], np.ones(3)])
def test_tensor_refuses_0d_and_1d_input(data):
    # every tensor is 2-D: a scalar or a vector is not reshaped into one
    with pytest.raises(ad.ShapeError, match="2-D"):
        ad.Tensor(data)


def test_backward_of_sum_is_ones():
    x = ad.Tensor(np.arange(6.0).reshape(2, 3))
    with ad.Tape() as tape:
        loss = ad.sum_all(x)
        (gx,) = tape.backward(loss, [x])
    assert np.array_equal(gx, np.ones((2, 3)))


def test_backward_rejects_non_scalar_loss():
    x = ad.Tensor(np.ones((2, 2)))
    with ad.Tape() as tape:
        y = _square(x)
        with pytest.raises(ad.ShapeError):
            tape.backward(y, [x])


def test_relu_subgradient_zero_at_zero():
    # one node with a self-loop, input 1, zero bias: the GCN layer is
    # relu of its weight row
    w = ad.Tensor([[0.0, -1.0, 2.0]])
    b = ad.Tensor(np.zeros((1, 3)))
    with ad.Tape() as tape:
        loss = ad.sum_all(ad.gcn_stack(lambda: np.ones((1, 1)), np.ones((1, 1)), [(w, b)]))
        (gw,) = tape.backward(loss, [w])
    assert np.array_equal(gw, [[0.0, 0.0, 1.0]])


def test_sigmoid_softplus_values_and_extremes():
    x = ad.Tensor([[0.0, 800.0, -800.0]])
    s = ad.sigmoid(x)
    assert s.data[0, 0] == 0.5
    assert 0.0 < s.data[0, 2] < 1e-300 or s.data[0, 2] == 0.0
    assert s.data[0, 1] == 1.0
    sp = ad.softplus(x)
    assert sp.data[0, 0] == pytest.approx(math.log(2.0), abs=1e-15)
    assert sp.data[0, 1] == pytest.approx(800.0)
    assert sp.data[0, 2] == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(sp.data))


def test_cross_entropy_uniform_logits():
    # Two-class softmax cross-entropy is softplus(z_other - z_true); at
    # uniform logits it is ln 2 and its tape gradient is the head's
    # closed-form one.
    rng = np.random.default_rng(12)
    x = rng.normal(size=(4, 3))
    y = np.array([0, 1, 0, 1])
    w = ad.Tensor(np.zeros((3, 2)))
    b = ad.Tensor(np.zeros((1, 2)))
    sign = np.where(y == 0, 1.0, -1.0)[:, None]
    with ad.Tape() as tape:
        logits = ad.add(ad.matmul(ad.Tensor(x), w),
                        ad.matmul(ad.Tensor(np.ones((4, 1))), b))
        margin = ad.mul(ad.matmul(logits, ad.Tensor([[-1.0], [1.0]])),
                        ad.Tensor(sign))
        loss = ad.mul_scalar(ad.sum_all(ad.softplus(margin)), 1.0 / 4)
        tape_w, tape_b = tape.backward(loss, [w, b])
    assert loss.item() == pytest.approx(math.log(2.0), abs=1e-15)
    gw, gb = head_gradients(x, w.data, b.data, y)
    assert np.allclose(tape_w, gw, rtol=1e-12, atol=1e-15)
    assert np.allclose(tape_b, gb, rtol=1e-12, atol=1e-15)


def test_mean_rows_bit_invariant_under_row_permutation():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(17, 5))
    perm = rng.permutation(17)
    a = ad.mean_rows(ad.Tensor(x)).data
    b = ad.mean_rows(ad.Tensor(x[perm])).data
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# finite-difference checks, one per primitive (20 random instances each)


OP_CASES = {}


def op_case(name):
    def deco(fn):
        OP_CASES[name] = fn
        return fn
    return deco


@op_case("matmul")
def _case_matmul(rng):
    n, m, p = rng.integers(1, 6, size=3)
    a = rng.normal(size=(n, m))
    b = rng.normal(size=(m, p))
    return [a, b], lambda ta, tb: ad.sum_all(_square(ad.matmul(ta, tb)))


@op_case("add")
def _case_add(rng):
    shape = tuple(rng.integers(1, 6, size=2))
    return ([rng.normal(size=shape), rng.normal(size=shape)],
            lambda a, b: ad.sum_all(_square(ad.add(a, b))))


@op_case("mul")
def _case_mul(rng):
    shape = tuple(rng.integers(1, 6, size=2))
    return ([rng.normal(size=shape), rng.normal(size=shape)],
            lambda a, b: ad.sum_all(_square(ad.mul(a, b))))


@op_case("mul_scalar")
def _case_mul_scalar(rng):
    shape = tuple(rng.integers(1, 6, size=2))
    c = float(rng.normal())
    return ([rng.normal(size=shape)],
            lambda x: ad.sum_all(_square(ad.mul_scalar(x, c))))


@op_case("sigmoid")
def _case_sigmoid(rng):
    shape = tuple(rng.integers(1, 6, size=2))
    return ([rng.normal(size=shape)],
            lambda x: ad.sum_all(_square(ad.sigmoid(x))))


@op_case("softplus")
def _case_softplus(rng):
    shape = tuple(rng.integers(1, 6, size=2))
    return ([rng.normal(size=shape)],
            lambda x: ad.sum_all(_square(ad.softplus(x))))


@op_case("transpose")
def _case_transpose(rng):
    shape = tuple(rng.integers(1, 6, size=2))
    w = rng.normal(size=shape)
    return ([rng.normal(size=shape)],
            lambda x: ad.sum_all(_square(ad.matmul(ad.transpose(x), ad.Tensor(w)))))


@op_case("concat_cols")
def _case_concat(rng):
    n = int(rng.integers(1, 6))
    ca, cb = rng.integers(1, 5, size=2)
    return ([rng.normal(size=(n, ca)), rng.normal(size=(n, cb))],
            lambda a, b: ad.sum_all(_square(ad.concat_cols(a, b))))


@op_case("slice_rows")
def _case_slice(rng):
    n = int(rng.integers(2, 7))
    c = int(rng.integers(1, 6))
    i0 = int(rng.integers(0, n - 1))
    i1 = int(rng.integers(i0 + 1, n + 1))
    return ([rng.normal(size=(n, c))],
            lambda x: ad.sum_all(_square(ad.slice_rows(x, i0, i1))))


@op_case("mean_rows")
def _case_mean_rows(rng):
    shape = tuple(rng.integers(1, 6, size=2))
    return ([rng.normal(size=shape)],
            lambda x: ad.sum_all(_square(ad.mean_rows(x))))


@op_case("sum_all")
def _case_sum_all(rng):
    shape = tuple(rng.integers(1, 6, size=2))
    return ([rng.normal(size=shape)],
            lambda x: _square(ad.sum_all(x)))


@op_case("hybrid_loss")
def _case_hybrid_loss(rng):
    n, d, parts = (int(k) for k in rng.integers(1, 5, size=3))
    return ([rng.normal(size=(1, d)) for _ in range(parts)] + [rng.normal(size=(2 * n, d))],
            lambda *t: ad.hybrid_loss(t[:-1], t[-1]))


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_finite_differences(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(20):
        arrays, build = OP_CASES[name](rng)
        tensors = [ad.Tensor(a.copy()) for a in arrays]
        with ad.Tape() as tape:
            loss = build(*tensors)
            grads = tape.backward(loss, tensors)
        for t, g in zip(tensors, grads):
            def f(t=t):
                fresh = [ad.Tensor(u.data) for u in tensors]
                fresh[tensors.index(t)] = ad.Tensor(t.data)
                return build(*fresh).item()
            fd = numeric_grad(f, t.data)
            assert rel_error(g, fd) < 1e-4, f"{name}: rel err too high"


def test_composed_gcn_style_layer_fd():
    # One propagation layer on a 5-node graph: relu((A @ X) @ W + b).
    rng = np.random.default_rng(11)
    a = rng.random((5, 5))
    a = ((a + a.T) > 1.0).astype(float) + np.eye(5)
    d = 1.0 / np.sqrt(a.sum(axis=1))
    a_norm = a * d[:, None] * d[None, :]
    x = rng.normal(size=(5, 4))
    w = ad.Tensor(rng.normal(size=(4, 3)))
    b = ad.Tensor(rng.normal(size=(1, 3)))

    def build(wt, bt):
        return ad.sum_all(_square(ad.gcn_stack(lambda: a_norm, x, [(wt, bt)])))

    with ad.Tape() as tape:
        loss = build(w, b)
        gw, gb = tape.backward(loss, [w, b])
    pre = (a_norm @ x) @ w.data + b.data
    assert np.min(np.abs(pre)) > 1e-3  # keep FD away from the relu kink

    fd_w = numeric_grad(lambda: build(ad.Tensor(w.data), ad.Tensor(b.data)).item(), w.data)
    fd_b = numeric_grad(lambda: build(ad.Tensor(w.data), ad.Tensor(b.data)).item(), b.data)
    assert rel_error(gw, fd_w) < 1e-4
    assert rel_error(gb, fd_b) < 1e-4


# ---------------------------------------------------------------------------
# fused kernels, against per-view / per-head numpy oracles and central
# finite differences


def _gcn_oracle(adj, views, w, b):
    # one view at a time, the way the model ran before the views were stacked
    return np.concatenate([np.maximum(adj @ h @ w + b, 0.0) for h in views])


def _gcn_layer_record(adj, h, w, b):
    """One GCN layer as its own tape record, with the operations and
    product-order rule the model ran layer by layer before a stack became
    one record: the byte oracle ``gcn_stack`` must match. ``h`` is the
    constant input array or a tensor, which alone gets an adjoint. Like
    ``gcn_stack``, its VJP multiplies by the symmetric A for A^T."""
    a_norm = adj()
    n = a_norm.shape[0]
    trained = isinstance(h, ad.Tensor)
    h_data = h.data if trained else h
    rows, d_in = h_data.shape
    d_out = w.data.shape[1]
    views = rows // n

    def per_view(a, m):
        return np.matmul(a, m.reshape(views, n, -1)).reshape(rows, -1)

    weight_first = 2 * d_out <= d_in * (2 if trained else 1)
    ah = None if weight_first else per_view(a_norm, h_data)
    pre = per_view(a_norm, h_data @ w.data) if weight_first else ah @ w.data
    pre += b.data
    out = ad._relu_in_place(pre)

    def vjp(g):
        gz = np.multiply(g, out > 0, out=g)
        gb = gz.sum(axis=0, keepdims=True)
        if weight_first:
            q = per_view(adj(), gz)
            gw = h_data.T @ q
            gh = np.matmul(q, w.data.T, out=gz if d_in == d_out else None) \
                if trained else None
        else:
            gh = per_view(adj(), gz @ w.data.T) if trained else None
            gw = ah.T @ gz
        return (gw, gb, gh) if trained else (gw, gb)

    return ad._make(out, (w, b, h) if trained else (w, b), vjp)


def _attention_oracle(embeddings, queries):
    # per head: softmax over relations of E_t q_{h,t}, weighted sum; heads averaged
    heads = len(queries[0])
    merged = np.zeros_like(embeddings[0])
    for h in range(heads):
        scores = np.concatenate([e @ q[h] for e, q in zip(embeddings, queries)], axis=1)
        e_s = np.exp(scores - scores.max(axis=1, keepdims=True))
        w = e_s / e_s.sum(axis=1, keepdims=True)
        merged += sum(w[:, t:t + 1] * e for t, e in enumerate(embeddings))
    return merged / heads


def _max_rel(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


# the adjacency is any N x N matrix here, not a symmetric one, so a
# missing transpose in a VJP shows
gcn_shapes = dict(n=st.integers(2, 20), d=st.integers(1, 8),
                  views=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1))
attention_shapes = dict(gcn_shapes, heads=st.integers(1, 4),
                        relations=st.integers(1, 3))
# the encoder's shape: ``depth`` layers, an F x D layer 0 under D x D
# ones. Layer 0 runs A (X W) when 2D <= F, (A X) W otherwise; every layer
# above runs A (H W). Under ``summed`` the loss is the plain sum of the
# output, whose adjoint reaches the stack as sum_all's broadcast. The
# examples pin each order at layer 0, a dropped layer-0 output recomputed
# into the buffer of the output above and into a new array (layer 1 is
# the last), and a plain sum.
gcn_stack_shapes = dict(n=st.integers(2, 20), f=st.integers(1, 8), d=st.integers(1, 8),
                        depth=st.integers(1, 3), views=st.sampled_from([1, 2]),
                        summed=st.booleans(), seed=st.integers(0, 2**32 - 1))
gcn_stack_orders = [example(**dict(zip(
    ("n", "f", "d", "depth", "views", "summed", "seed"), args)))
    for args in [(5, 3, 4, 3, 2, False, 1),
                 (5, 4, 2, 2, 2, False, 2),
                 (5, 3, 4, 1, 2, False, 5),
                 (5, 2, 6, 2, 2, False, 6),
                 (5, 3, 4, 3, 2, True, 8)]]


def _with_examples(examples):
    def decorate(test):
        for ex in reversed(examples):
            test = ex(test)
        return test
    return decorate


def _symmetric_adjacency(rng, n):
    """A random N x N matrix equal to its transpose bit for bit."""
    a = rng.random((n, n))
    return (a + a.T) / 2


def _stack_inputs(n, f, d, depth, views, summed, seed):
    """An adjacency, a V*N x F input array, ``depth`` layers (W, b) of
    output width D, the layer tensors in record order and the loss of an
    output. The adjacency is symmetric, as ``gcn_stack`` requires."""
    rng = np.random.default_rng(seed)
    adj = _symmetric_adjacency(rng, n)
    x = rng.normal(size=(views * n, f))
    layers = [(ad.Tensor(rng.normal(size=(d if k else f, d))),
               ad.Tensor(rng.normal(size=(1, d)))) for k in range(depth)]
    readout = ad.Tensor(rng.normal(size=(views * n, d)))
    wrt = [t for layer in layers for t in layer]
    return adj, x, layers, wrt, lambda h: ad.sum_all(h if summed else ad.mul(h, readout))


@settings(max_examples=80, deadline=None)
@given(**gcn_stack_shapes)
@_with_examples(gcn_stack_orders)
def test_gcn_stack_has_the_bytes_of_per_layer_records(n, f, d, depth, views, summed,
                                                      seed):
    adj, x, layers, wrt, loss = _stack_inputs(n, f, d, depth, views, summed, seed)

    def per_layer():
        h = x
        for w, b in layers:
            h = _gcn_layer_record(lambda: adj, h, w, b)
        return h

    results = []
    for stack in (lambda: ad.gcn_stack(lambda: adj, x, layers), per_layer):
        with ad.Tape() as tape:
            h = stack()
            grads = tape.backward(loss(h), wrt)
        results.append([h.data.tobytes()] + [g.tobytes() for g in grads])
    assert results[0] == results[1]
    want = np.split(x, views)
    for w, b in layers:
        want = np.split(_gcn_oracle(adj, want, w.data, b.data), views)
    assert _max_rel(h.data, np.concatenate(want)) <= 1e-12


def test_gcn_stack_recomputes_into_the_buffer_above_and_lets_go():
    # layer 0 widens a constant input and runs (A X) W: the record keeps x
    # and layer 0's A X whole but not layer 0's output, which the VJP
    # recomputes, with the forward pass's bytes, into layer 1's private
    # buffer once layer 1's mask has been read; then it lets go of every
    # array the record kept
    rng = np.random.default_rng(8)
    n, f, d = 6, 5, 4
    adj = _symmetric_adjacency(rng, n)
    x = rng.normal(size=(2 * n, f))
    layers = [(ad.Tensor(rng.normal(size=(f if k == 0 else d, d))),
               ad.Tensor(rng.normal(size=(1, d)))) for k in range(3)]
    h0 = ad.gcn_stack(lambda: adj, x, layers[:1]).data
    with ad.Tape() as tape:
        ad.gcn_stack(lambda: adj, x, layers)
    ((_, _, vjp),) = tape._records

    def cells():
        return dict(zip(vjp.__code__.co_freevars, (c.cell_contents for c in vjp.__closure__)))

    arrays = {name: c for name, c in cells().items() if isinstance(c, np.ndarray)}
    assert arrays.keys() == {"x", "ax"} and arrays["x"] is x
    assert arrays["ax"].shape == (2 * n, f)
    outs = cells()["outs"]
    assert outs[0] is None
    layer1 = outs[1]
    vjp(np.ones((2 * n, d)))
    assert layer1.tobytes() == h0.tobytes()
    assert cells()["ax"] is None and outs == [None] * 3


def test_gcn_stack_takes_the_encoder_shape_only():
    # every stack init_model_params builds, an F x D layer 0 under D x D
    # layers with F on either side of 2D, runs; a layer above 0 that is
    # not D x D, or a bias that is not 1 x D, is refused by a message
    # naming the shapes
    rng = np.random.default_rng(21)
    n, d = 4, 3
    adj = _symmetric_adjacency(rng, n)
    for f in (2 * d - 1, 2 * d):
        x = rng.normal(size=(2 * n, f))
        for depth in (1, 2, 3):
            params = init_model_params(f, TrainConfig(embed_dim=d, gcn_layers=depth), rng)
            for layers in params.layers.values():
                assert ad.gcn_stack(lambda: adj, x, layers).data.shape == (2 * n, d)
    x = rng.normal(size=(2 * n, 4))
    narrowing = [(ad.Tensor(rng.normal(size=(4, 5))), ad.Tensor(np.zeros((1, 5)))),
                 (ad.Tensor(rng.normal(size=(5, 3))), ad.Tensor(np.zeros((1, 3))))]
    with pytest.raises(ad.ShapeError, match=re.escape("((5, 3), (1, 3))")):
        ad.gcn_stack(lambda: adj, x, narrowing)
    wide_bias = [(ad.Tensor(rng.normal(size=(4, 3))), ad.Tensor(np.zeros((1, 3)))),
                 (ad.Tensor(rng.normal(size=(3, 3))), ad.Tensor(np.zeros((1, 4))))]
    with pytest.raises(ad.ShapeError, match=re.escape("((3, 3), (1, 4))")):
        ad.gcn_stack(lambda: adj, x, wide_bias)


relu_specials = st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                                  5e-324, -5e-324, 2.2e-308, -2.2e-308])


@settings(max_examples=100, deadline=None)
@given(pre=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=9),
                      elements=relu_specials | st.floats(allow_subnormal=True)))
def test_relu_in_place_has_the_bytes_of_where(pre):
    want = np.where(pre > 0, pre, 0.0)
    got = ad._relu_in_place(pre)
    assert np.shares_memory(got, pre)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(**attention_shapes)
def test_relation_attention_matches_per_head_oracle(n, d, heads, relations, views, seed):
    rng = np.random.default_rng(seed)
    m = views * n
    embeddings = [rng.normal(size=(m, d)) for _ in range(relations)]
    queries = [[rng.normal(size=(d, 1)) for _ in range(heads)] for _ in range(relations)]
    merged, weights = ad.relation_attention(
        [ad.Tensor(e) for e in embeddings],
        [[ad.Tensor(q) for q in per_t] for per_t in queries])
    assert weights.shape == (relations, m, heads)
    assert np.abs(weights.sum(axis=0) - 1.0).max() <= 1e-12
    assert _max_rel(merged.data, _attention_oracle(embeddings, queries)) <= 1e-12


def _check_vjp_against_fd(build, tensors, step=1e-6, order=2):
    """Central differences of the scalar ``build()`` for every entry of
    every tensor, against one backward pass."""
    with ad.Tape() as tape:
        grads = tape.backward(build(), tensors)
    for t, g in zip(tensors, grads):
        fd = numeric_grad(lambda: build().item(), t.data, h=step, order=order)
        assert rel_error(g, fd) < 1e-6


def _pre_activations(adj, x, layers, views):
    """Every layer's A H W + b, one view at a time."""
    pres, h = [], x
    for w, b in layers:
        pres.append(np.concatenate([adj @ v for v in np.split(h, views)]) @ w + b)
        h = np.maximum(pres[-1], 0.0)
    return pres


# Within one relu pattern the loss is linear in each single weight, so
# the three-point stencil is exact but for rounding, whose share falls as
# the step grows: at step 1e-6 it read 1.18e-6 on the last example below
# (loss -7412.46), and 1.1e-7 at this step. The kink margin is 200 steps,
# ten times as far as one step moves a pre-activation in the median draw.
_GCN_FD_STEP = 1e-5
_KINK_MARGIN = 200 * _GCN_FD_STEP


@settings(max_examples=40, deadline=None)
@given(**gcn_stack_shapes)
@_with_examples(gcn_stack_orders)
# a single layer running A (X W), then (A X) W recomputing layer 0's
# output into layer 1's buffer
@example(n=2, f=2, d=1, depth=1, views=1, summed=False, seed=2)
@example(n=20, f=3, d=5, depth=3, views=1, summed=False, seed=99)
def test_gcn_stack_vjp_matches_finite_differences(n, f, d, depth, views, summed, seed):
    adj, x, layers, wrt, loss = _stack_inputs(n, f, d, depth, views, summed, seed)
    pres = _pre_activations(adj, x, [(w.data, b.data) for w, b in layers], views)
    assume(min(np.abs(p).min() for p in pres) > _KINK_MARGIN)  # away from the relu kinks
    _check_vjp_against_fd(lambda: loss(ad.gcn_stack(lambda: adj, x, layers)), wrt,
                          step=_GCN_FD_STEP)


@settings(max_examples=40, deadline=None)
@given(**attention_shapes)
@example(n=13, d=1, views=2, seed=4, heads=4, relations=2)
def test_relation_attention_vjp_matches_finite_differences(n, d, heads, relations,
                                                           views, seed):
    rng = np.random.default_rng(seed)
    m = views * n
    embeddings = [ad.Tensor(rng.normal(size=(m, d))) for _ in range(relations)]
    queries = [[ad.Tensor(rng.normal(size=(d, 1))) for _ in range(heads)]
               for _ in range(relations)]
    readout = ad.Tensor(rng.normal(size=(m, d)))

    def build():
        merged, _ = ad.relation_attention(embeddings, queries)
        return ad.sum_all(ad.mul(merged, readout))

    # the five-point stencil: the three-point one at step 1e-6 reads 1.09e-6
    # on the pinned example, rounding noise on a 1x1 query gradient of 0.0017
    _check_vjp_against_fd(build, embeddings + [q for per_t in queries for q in per_t],
                          step=1e-3, order=4)


def _attention_record(m, d, heads, relations, rng):
    """(embedding tensors, query arrays per relation, the VJP) of one
    ``relation_attention`` record over M x D embeddings."""
    embeddings = [ad.Tensor(rng.normal(size=(m, d))) for _ in range(relations)]
    queries = [[ad.Tensor(rng.normal(size=(d, 1))) for _ in range(heads)]
               for _ in range(relations)]
    with ad.Tape() as tape:
        _, weights = ad.relation_attention(embeddings, queries)
    (_, _, vjp), = tape._records
    q = [np.concatenate([qh.data for qh in per_t], axis=1) for per_t in queries]
    return embeddings, q, weights, vjp


@settings(max_examples=40, deadline=None)
@given(**dict(attention_shapes, n=st.integers(2, 150)))
# row counts one block and a bit, and exactly two blocks
@example(n=ad._ROW_BLOCK + 5, d=3, views=1, seed=1, heads=4, relations=3)
@example(n=ad._ROW_BLOCK, d=2, views=2, seed=2, heads=2, relations=2)
def test_relation_attention_vjp_has_the_bits_of_the_direct_formula(
        n, d, heads, relations, views, seed):
    # each embedding adjoint is c_t * g + gs_t @ q_t^T, with c_t the head
    # mean of the softmax weights and gs_t the score adjoint, whatever the
    # VJP's row blocks
    rng = np.random.default_rng(seed)
    m = views * n
    embeddings, q, weights, vjp = _attention_record(m, d, heads, relations, rng)
    g = rng.normal(size=(m, d))
    g_in = g.copy()
    deferred = vjp(g_in)[:relations]
    assert all(isinstance(a, ad._Deferred) for a in deferred)
    got = [a.make() for a in deferred]
    # forming an adjoint reads g and never writes it
    assert g_in.tobytes() == g.tobytes()
    for t in range(relations):
        assert got[t].tobytes() == _attention_adjoint(g, embeddings, q, weights, t).tobytes()


def _attention_adjoint(g, embeddings, q, weights, t):
    """Relation t's embedding adjoint by the direct formula c_t * g +
    gs_t @ q_t^T, c_t the head mean of the softmax weights and gs_t the
    score adjoint."""
    heads = weights.shape[2]
    g_row = np.stack([np.einsum("ij,ij->i", g, e.data) for e in embeddings]) / heads
    gs = weights * (g_row[:, :, None] - (weights * g_row[:, :, None]).sum(axis=0))
    return weights.mean(axis=2)[t][:, None] * g + gs[t] @ q[t].T


def test_relation_attention_vjp_allocates_one_stack_per_relation():
    # three relations: the VJP itself forms no M x D array, only the
    # M x H score arrays (about 0.34 M x D stacks; 3.35 when it formed
    # every adjoint at once). Over the VJP and the three make() calls,
    # the three M x D adjoints, one block of the merge term and the
    # score arrays come to about 3.34 stacks; forming c_t * g whole and
    # adding gs_t @ q_t^T as a second M x D temporary took about 4.1
    m, d = 10 * ad._ROW_BLOCK - 40, 128
    _, _, _, vjp = _attention_record(m, d, 4, 3, np.random.default_rng(5))
    g = np.random.default_rng(6).normal(size=(m, d))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        adjoints = vjp(g)
        vjp_peak = tracemalloc.get_traced_memory()[1] - base
        formed = [a.make() for a in adjoints[:3]]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(adjoints) == 3 + 3 * 4
    assert all(a.shape == (m, d) for a in formed)
    assert vjp_peak / (m * d * 8) < 0.5
    assert peak / (m * d * 8) < 3.5


def test_relation_attention_extreme_scores_stay_finite():
    e1 = ad.Tensor(np.array([[700.0], [-700.0]]))
    e2 = ad.Tensor(np.array([[-700.0], [-700.0]]))
    one = ad.Tensor(np.ones((1, 1)))
    merged, weights = ad.relation_attention([e1, e2], [[one], [one]])
    assert np.all(np.isfinite(weights)) and np.all(np.isfinite(merged.data))
    assert np.abs(weights.sum(axis=0) - 1.0).max() <= 1e-12
    assert weights[:, 1, 0].tolist() == [0.5, 0.5]


def test_kernels_skip_adjoints_of_constant_operands():
    # a GCN stack's input array is no record input: its VJP returns one
    # adjoint per layer tensor and forms none for the features
    rng = np.random.default_rng(13)
    adj = _symmetric_adjacency(rng, 4)
    x = rng.normal(size=(8, 3))
    layers = [(ad.Tensor(rng.normal(size=(3, 2))), ad.Tensor(rng.normal(size=(1, 2)))),
              (ad.Tensor(rng.normal(size=(2, 2))), ad.Tensor(rng.normal(size=(1, 2))))]
    with ad.Tape() as tape:
        ad.gcn_stack(lambda: adj, x, layers)
    ((_, inputs, vjp),) = tape._records
    assert inputs == tuple(t for layer in layers for t in layer)
    grads = vjp(np.ones((8, 2)))
    assert [g.shape for g in grads] == [t.data.shape for t in inputs]


def test_slice_rows_is_a_view():
    x = ad.Tensor(np.arange(12.0).reshape(4, 3))
    with ad.Tape() as tape:
        top = ad.slice_rows(x, 0, 2)
        (gx,) = tape.backward(ad.sum_all(top), [x])
    assert np.shares_memory(top.data, x.data)
    assert np.array_equal(gx, [[1.0] * 3, [1.0] * 3, [0.0] * 3, [0.0] * 3])
    with pytest.raises(ad.ShapeError):
        ad.slice_rows(x, 2, 2)


def test_row_slice_adjoint_leaves_a_shared_adjoint_alone():
    # add hands x and z an adjoint each; the slice's rows must land in
    # x's alone, not in the array z received
    rng = np.random.default_rng(5)
    x = ad.Tensor(rng.normal(size=(4, 3)))
    z = ad.Tensor(rng.normal(size=(4, 3)))
    c, c_top, c_bottom = (rng.normal(size=(k, 3)) for k in (4, 2, 2))
    with ad.Tape() as tape:
        top, bottom = ad.slice_rows(x, 0, 2), ad.slice_rows(x, 2, 4)
        loss = ad.add(ad.sum_all(ad.mul(ad.add(x, z), ad.Tensor(c))),
                      ad.add(ad.sum_all(ad.mul(top, ad.Tensor(c_top))),
                             ad.sum_all(ad.mul(bottom, ad.Tensor(c_bottom)))))
        gx, gz = tape.backward(loss, [x, z])
    assert gz.tobytes() == c.tobytes()
    assert gx.tobytes() == (c + np.concatenate([c_top, c_bottom])).tobytes()


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 150), d=st.integers(1, 4), heads=st.integers(1, 3),
       seed=st.integers(0, 2**16), data=st.data())
# a leaf at two slots of one record, then a row view and a second record
@example(m=ad._ROW_BLOCK + 5, d=2, heads=2, seed=3, data=None)
def test_deferred_adjoints_sum_in_the_eager_order(m, d, heads, seed, data):
    # a leaf x gets deferred adjoints from two or more attention records
    # (at one or two slots each) and row-view adjoints; its gradient must
    # have the bytes of every contribution formed at once and summed in
    # the order the sweep meets them: the ops in reverse, each record's
    # slots in input order, a row view added into the sum so far
    if data is None:
        ops = [("attention", (0, 2)), ("rows", (3, 40)), ("attention", (1,))]
    else:
        slots = st.lists(st.integers(0, 2), min_size=1, max_size=2, unique=True)
        rows = st.integers(0, m - 1).flatmap(
            lambda a: st.tuples(st.just(a), st.integers(a + 1, m)))
        ops = data.draw(st.lists(st.one_of(st.tuples(st.just("attention"), slots),
                                           st.tuples(st.just("rows"), rows)),
                                 min_size=2, max_size=6))
        assume(sum(kind == "attention" for kind, _ in ops) >= 2)
    rng = np.random.default_rng(seed)
    x = ad.Tensor(rng.normal(size=(m, d)))
    contribs, loss = [], None
    with ad.Tape() as tape:
        for kind, arg in ops:
            if kind == "rows":
                start, stop = arg
                c = rng.normal(size=(stop - start, d))
                term = ad.sum_all(ad.mul(ad.slice_rows(x, start, stop), ad.Tensor(c)))
                contribs.append([(arg, c)])
            else:
                embeddings = [x if t in arg else ad.Tensor(rng.normal(size=(m, d)))
                              for t in range(3)]
                q = [rng.normal(size=(d, heads)) for _ in range(3)]
                queries = [[ad.Tensor(qt[:, h:h + 1]) for h in range(heads)] for qt in q]
                c = rng.normal(size=(m, d))
                merged, weights = ad.relation_attention(embeddings, queries)
                term = ad.sum_all(ad.mul(merged, ad.Tensor(c)))
                contribs.append([(None, _attention_adjoint(c, embeddings, q, weights, t))
                                 for t in sorted(arg)])
            loss = term if loss is None else ad.add(loss, term)
        (gx,) = tape.backward(loss, [x])
    want = None
    for per_op in reversed(contribs):
        for rows, c in per_op:
            if rows is None:
                want = c if want is None else want + c
            else:
                want = np.zeros((m, d)) if want is None else want.copy()
                want[rows[0]:rows[1]] += c
    assert gx.tobytes() == want.tobytes()


def _unfused_hybrid(parts, merged):
    # the hybrid loss as the model composed it from primitives before it
    # became one record: the target as a ones-column product, two row
    # views, and each one's summed squared difference from the target
    n = merged.data.shape[0] // 2
    avg = parts[0]
    for p in parts[1:]:
        avg = ad.add(avg, p)
    target = ad.matmul(ad.Tensor(np.ones((n, 1))), ad.mul_scalar(avg, 1.0 / len(parts)))
    pos = ad.sum_all(_square(_sub(target, ad.slice_rows(merged, 0, n))))
    neg = ad.sum_all(_square(_sub(target, ad.slice_rows(merged, n, 2 * n))))
    return _sub(pos, neg)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 20), d=st.integers(1, 8), parts=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_hybrid_loss_has_the_bits_of_the_unfused_composition(n, d, parts, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.random((1, d)) for _ in range(parts)] + [rng.random((2 * n, d))]
    scale = ad.Tensor(rng.normal(size=(1, 1)))
    # rows 0 and n equal to the target: exact zero differences in each half
    avg = arrays[0]
    for a in arrays[1:-1]:
        avg = avg + a
    arrays[-1][[0, n]] = avg * (1.0 / parts)
    results = []
    for loss_fn in (ad.hybrid_loss, _unfused_hybrid):
        tensors = [ad.Tensor(a.copy()) for a in arrays]
        with ad.Tape() as tape:
            loss = loss_fn(tensors[:-1], tensors[-1])
            grads = tape.backward(ad.mul(loss, scale), tensors)
        results.append([loss.data.tobytes()] + [g.tobytes() for g in grads])
    assert results[0] == results[1]


def _read_only_leaves(*arrays):
    tensors = []
    for a in arrays:
        a = a.copy()
        a.flags.writeable = False
        tensors.append(ad.Tensor(a))
    return tensors


def test_ownership_sums_a_twice_used_input_into_a_new_array():
    # add hands its adjoint to one input and a copy to the other; the
    # sweep sums the copy into the first, an array of its own, not into
    # the leaf's read-only data or the other factor
    rng = np.random.default_rng(21)
    c = rng.normal(size=(3, 4))
    (x,) = _read_only_leaves(rng.normal(size=(3, 4)))
    with ad.Tape() as tape:
        (gx,) = tape.backward(ad.sum_all(ad.mul(ad.add(x, x), ad.Tensor(c))), [x])
    want = c * np.ones((3, 4))
    assert gx.tobytes() == (want + want).tobytes()
    assert gx.flags.writeable and not np.shares_memory(gx, c)


def test_ownership_adds_row_slices_into_the_owned_whole_adjoint():
    # x is used through two row views and then whole; the sweep meets the
    # whole use first, owns the new array mul's VJP returns, and adds the
    # rows of both views into that array in place, not into a copy
    rng = np.random.default_rng(22)
    c, c_top, c_bottom = (rng.normal(size=(k, 3)) for k in (5, 2, 3))
    (x,) = _read_only_leaves(rng.normal(size=(5, 3)))
    with ad.Tape() as tape:
        rows = ad.add(ad.sum_all(ad.mul(ad.slice_rows(x, 0, 2), ad.Tensor(c_top))),
                      ad.sum_all(ad.mul(ad.slice_rows(x, 2, 5), ad.Tensor(c_bottom))))
        whole = ad.mul(x, ad.Tensor(c))
        out, inputs, vjp = tape._records[-1]
        returned = []
        tape._records[-1] = (out, inputs, lambda g: returned.extend(vjp(g)) or returned)
        (gx,) = tape.backward(ad.add(ad.sum_all(whole), rows), [x])
    want = c * np.ones((5, 3))
    want[0:2] += c_top * np.ones((2, 3))
    want[2:5] += c_bottom * np.ones((3, 3))
    assert gx.tobytes() == want.tobytes()
    assert gx is returned[0]


def test_add_gives_each_gcn_stack_an_adjoint_of_its_own():
    # add hands each GCN layer an adjoint array of its own; each layer's
    # VJP masks the adjoint it is handed in place, so with one array
    # shared the first layer swept would mask the other's adjoint with
    # its own mask
    rng = np.random.default_rng(24)
    adj = _symmetric_adjacency(rng, 4)
    x = rng.normal(size=(4, 3))
    # the first layer's relu passes everything, the second's only a part
    layers = [_read_only_leaves(rng.normal(size=(3, 2)), np.full((1, 2), bias))
              for bias in (9.0, 0.0)]
    c = ad.Tensor(rng.normal(size=(4, 2)))
    with ad.Tape() as tape:
        h1, h2 = (ad.gcn_stack(lambda: adj, x, [layer]) for layer in layers)
        assert np.all(h1.data > 0) and 0 < np.count_nonzero(h2.data) < h2.data.size
        grads = tape.backward(ad.sum_all(ad.mul(ad.add(h1, h2), c)),
                              [t for layer in layers for t in layer])
    for (w, b), got in zip(layers, (grads[:2], grads[2:])):
        with ad.Tape() as tape:
            alone = tape.backward(ad.sum_all(ad.mul(ad.gcn_stack(lambda: adj, x, [(w, b)]), c)),
                                  [w, b])
        assert [g.tobytes() for g in got] == [g.tobytes() for g in alone]


def _leaf(rng, rows, cols):
    return ad.Tensor(rng.normal(size=(rows, cols)))


def _twice_added(rng):
    x = _leaf(rng, 4, 3)
    return ad.add(x, x)


def _gcn_stack_case(rng, d_in, widths):
    adj = _symmetric_adjacency(rng, 4)
    layers, fan_in = [], d_in
    for width in widths:
        layers.append((_leaf(rng, fan_in, width), _leaf(rng, 1, width)))
        fan_in = width
    return ad.gcn_stack(lambda: adj, rng.normal(size=(8, d_in)), layers)


# one record per case. The narrowing stack runs A (X W) at layer 0, then
# A (H W) on a square layer, writing dH into the adjoint it is handed; the
# widening one runs (A X) W at layer 0, recomputing its output, then A (H W).
_VJP_CASES = {
    "matmul": lambda rng: ad.matmul(_leaf(rng, 4, 3), _leaf(rng, 3, 2)),
    "add": lambda rng: ad.add(_leaf(rng, 4, 3), _leaf(rng, 4, 3)),
    "add(x, x)": _twice_added,
    "mul": lambda rng: ad.mul(_leaf(rng, 4, 3), _leaf(rng, 4, 3)),
    "mul_scalar": lambda rng: ad.mul_scalar(_leaf(rng, 4, 3), -1.5),
    "sigmoid": lambda rng: ad.sigmoid(_leaf(rng, 4, 3)),
    "softplus": lambda rng: ad.softplus(_leaf(rng, 4, 3)),
    "transpose": lambda rng: ad.transpose(_leaf(rng, 4, 3)),
    "concat_cols": lambda rng: ad.concat_cols(_leaf(rng, 4, 3), _leaf(rng, 4, 2)),
    "slice_rows": lambda rng: ad.slice_rows(_leaf(rng, 5, 3), 1, 4),
    "mean_rows": lambda rng: ad.mean_rows(_leaf(rng, 4, 3)),
    "sum_all": lambda rng: ad.sum_all(_leaf(rng, 4, 3)),
    "gcn_stack A (H W)": partial(_gcn_stack_case, d_in=6, widths=[3, 3]),
    "gcn_stack (A H) W": partial(_gcn_stack_case, d_in=2, widths=[5, 5]),
    "relation_attention": lambda rng: ad.relation_attention(
        [_leaf(rng, 8, 3) for _ in range(2)],
        [[_leaf(rng, 3, 1) for _ in range(2)] for _ in range(2)]),
    "hybrid_loss": lambda rng: ad.hybrid_loss([_leaf(rng, 1, 3) for _ in range(2)],
                                              _leaf(rng, 8, 3)),
}


@pytest.mark.parametrize("name", sorted(_VJP_CASES))
def test_every_vjp_returns_arrays_it_owns(name):
    # the VJP contract: a VJP may write the g it is handed, and returns g
    # itself or new arrays, each at most once, never a view of an input
    # or of the record's output; a deferred adjoint's make() returns a
    # new array, not g, which the other deferred adjoints still read. The
    # sweep sums into what a VJP returns, and the optimizer scales and
    # consumes the gradients, all in place
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    with ad.Tape() as tape:
        _VJP_CASES[name](rng)
    ((out, inputs, vjp),) = tape._records
    g = rng.normal(size=out.data.shape)
    returned, deferred = [], []
    for a in vjp(g):
        deferred.append(isinstance(a, ad._Deferred))
        returned.append(a.make() if deferred[-1]
                        else a.g if isinstance(a, ad._RowAdjoint) else a)
    assert len(returned) == len(inputs) and all(a is not None for a in returned)
    kept = [out.data, *(t.data for t in inputs)]
    for i, a in enumerate(returned):
        assert a.flags.writeable
        assert not any(np.shares_memory(a, b) for b in returned[i + 1:] + kept)
        assert (a is g and not deferred[i]) or not np.shares_memory(a, g)


# ---------------------------------------------------------------------------
# tape semantics


def test_second_backward_raises_and_len_counts_the_records():
    # the sweep releases every record, so a swept tape has nothing to replay
    x = ad.Tensor(np.ones((2, 2)))
    w = ad.Tensor(np.arange(4.0).reshape(2, 2))
    with ad.Tape() as tape:
        loss = ad.sum_all(_square(ad.add(ad.matmul(x, w), x)))
        intermediates = [weakref.ref(out.data) for out, _, _ in tape._records[:-1]]
        assert len(intermediates) == 3 and all(r() is not None for r in intermediates)
        tape.backward(loss, [x, w])
        assert all(r() is None for r in intermediates)
        with pytest.raises(ValueError, match="already been swept"):
            tape.backward(loss, [x, w])
    assert len(tape) == 4


def test_backward_refuses_a_recorded_output():
    x = ad.Tensor(np.ones((2, 2)))
    with ad.Tape() as tape:
        y = _square(x)
        loss = ad.sum_all(y)
        with pytest.raises(ValueError, match="recorded"):
            tape.backward(loss, [x, y])
        with pytest.raises(ValueError, match="recorded"):
            tape.backward(loss, [loss])


def test_backward_refuses_a_repeated_tensor():
    # each returned gradient is the caller's to scale and consume in
    # place: one array handed out twice would be clipped twice
    w = ad.Tensor([[3.0, 3.0]])
    with ad.Tape() as tape:
        loss = ad.sum_all(_square(w))
        with pytest.raises(ValueError, match="repeats"):
            tape.backward(loss, [w, w])
        # refused before any sweep, so the tape is still whole
        (gw,) = tape.backward(loss, [w])
    assert gw.tolist() == [[6.0, 6.0]]


def test_unreached_parameter_has_zero_grad():
    x = ad.Tensor(np.ones((2, 2)))
    other = ad.Tensor(np.ones((3, 3)))
    with ad.Tape() as tape:
        loss = ad.sum_all(x)
        grads = tape.backward(loss, [x, other])
    assert np.array_equal(grads[0], np.ones((2, 2)))
    assert np.array_equal(grads[1], np.zeros((3, 3)))


def test_identical_tapes_give_bit_identical_grads():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(4, 4))

    def run():
        x = ad.Tensor(data.copy())
        with ad.Tape() as tape:
            loss = ad.sum_all(_square(ad.sigmoid(ad.matmul(x, x))))
            (gx,) = tape.backward(loss, [x])
        return gx

    assert run().tobytes() == run().tobytes()


def test_reused_tensor_receives_summed_adjoints():
    x = ad.Tensor([[2.0]])
    with ad.Tape() as tape:
        y = ad.mul(x, x)  # d/dx = 2x
        loss = ad.add(y, x)  # d/dx = 2x + 1 = 5
        (gx,) = tape.backward(loss, [x])
    assert gx[0, 0] == pytest.approx(5.0, abs=1e-12)


def test_backward_reaches_parameter_leaves_only():
    # wrt alone decides which leaves get a gradient: the features get
    # theirs once named there, and no recorded output may be named
    rng = np.random.default_rng(11)
    adj = ad.Tensor(rng.random((4, 4)))
    feats = ad.Tensor(rng.normal(size=(4, 3)))
    ones = ad.Tensor(np.ones((4, 1)))
    w = ad.Tensor(rng.normal(size=(3, 2)))
    b = ad.Tensor(rng.normal(size=(1, 2)))
    with ad.Tape() as tape:
        h = ad.sigmoid(ad.add(ad.matmul(adj, ad.matmul(feats, w)),
                              ad.matmul(ones, b)))
        loss = ad.sum_all(_square(h))
        # refused before any sweep, so the tape is still whole
        intermediates = [out for out, _, _ in tape._records]
        assert len(intermediates) == 7
        for t in intermediates:
            with pytest.raises(ValueError, match="recorded"):
                tape.backward(loss, [t])
        gw, gb, g_feats = tape.backward(loss, [w, b, feats])
    gz = 2.0 * h.data * h.data * (1.0 - h.data)
    assert np.allclose(g_feats, adj.data.T @ gz @ w.data.T, rtol=1e-12, atol=1e-15)
    assert gw.any() and gb.any()


# ---------------------------------------------------------------------------
# optimizer


def test_adam_zero_gradient_leaves_params_unchanged():
    p = np.full((2, 2), 3.0)
    before = p.tobytes()
    opt = ad.Adam([p], lr=0.1)
    opt.step([np.zeros((2, 2))])
    assert p.tobytes() == before


def test_adam_first_step_magnitude_close_to_lr():
    p = np.array([[5.0, -2.0]])
    before = p.copy()
    opt = ad.Adam([p], lr=1e-3)
    g = np.array([[4.0, -3.0]])
    sign = np.sign(g)  # the step consumes g
    opt.step([g])
    delta = p - before
    assert np.allclose(delta, -1e-3 * sign, atol=1e-8)


def test_adam_lr_zero_is_bit_identity():
    rng = np.random.default_rng(0)
    p = rng.normal(size=(3, 3))
    before = p.tobytes()
    opt = ad.Adam([p], lr=0.0)
    for _ in range(5):
        opt.step([rng.normal(size=(3, 3))])
    assert p.tobytes() == before


def test_adam_rejects_misaligned_grads():
    p = np.ones((2, 2))
    opt = ad.Adam([p], lr=1e-3)
    with pytest.raises(ValueError):
        opt.step([])


def test_clip_global_norm():
    scratch = np.empty(2)
    g1 = np.array([[3.0, 0.0]])
    g2 = np.array([[0.0, 4.0]])
    ad.clip_global_norm([g1, g2], 5.0, scratch)  # joint norm exactly 5: untouched
    assert g1[0, 0] == 3.0 and g2[0, 1] == 4.0
    g1 = np.array([[6.0, 0.0]])
    g2 = np.array([[0.0, 8.0]])
    want = (g1 * 0.5).tobytes() + (g2 * 0.5).tobytes()
    ad.clip_global_norm([g1, g2], 5.0, scratch)  # joint norm 10 -> scaled by 0.5
    total = np.sqrt((g1 ** 2).sum() + (g2 ** 2).sum())
    assert total == pytest.approx(5.0, abs=1e-12)
    # scaled in place: the arrays hold g * scale
    assert g1.tobytes() + g2.tobytes() == want
    small = np.array([[0.1]])
    before = small.tobytes()
    ad.clip_global_norm([small], 5.0, scratch)
    assert small.tobytes() == before
    with pytest.raises(ValueError):
        ad.clip_global_norm([small], 0.0, scratch)


@pytest.mark.parametrize("max_norm", [1e-3, 1e9])
def test_clip_returns_the_joint_norm_it_measured(max_norm):
    # the norm before scaling, with the bits of sqrt of the summed
    # (g * g).sum(), whether clipping fires (1e-3) or not (1e9)
    rng = np.random.default_rng(12)
    grads = [rng.normal(size=shape) for shape in [(7, 5), (1, 5), (5, 1), (3, 3)]]
    total = 0.0
    for g in grads:
        total += float((g * g).sum())
    want = np.sqrt(total)
    norm = ad.clip_global_norm(grads, max_norm, np.empty(35))
    assert np.float64(norm).tobytes() == want.tobytes()
    clipped = np.sqrt(sum(float((g * g).sum()) for g in grads))
    assert clipped == pytest.approx(min(want, max_norm), rel=1e-12)


@pytest.mark.parametrize("bad", [1e200, np.nan, np.inf, -np.inf])
def test_clip_rejects_a_non_finite_norm(bad):
    # 1e200 squared overflows to inf: the old scale 5 / inf zeroed the
    # whole step, and a NaN or inf turned every parameter into NaN
    grads = [np.ones((2, 2)), np.array([[bad, 1.0]])]
    before = [g.tobytes() for g in grads]
    with pytest.raises(FloatingPointError, match="gradient norm"):
        ad.clip_global_norm(grads, 5.0, np.empty(4))
    assert [g.tobytes() for g in grads] == before


def _clip_reference(grads, max_norm):
    """The out-of-place clip: a scaled copy of every gradient."""
    total = 0.0
    for g in grads:
        total += float((g * g).sum())
    norm = np.sqrt(total)
    if norm <= max_norm:
        return list(grads)
    scale = max_norm / norm
    return [g * scale for g in grads]


class _AdamReference:
    """The out-of-place Adam step, one temporary per operation."""

    def __init__(self, params, lr):
        self.params, self.lr, self.t = params, lr, 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads):
        self.t += 1
        b1t = 1.0 - ad.ADAM_BETA1 ** self.t
        b2t = 1.0 - ad.ADAM_BETA2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= ad.ADAM_BETA1
            m += (1.0 - ad.ADAM_BETA1) * g
            v *= ad.ADAM_BETA2
            v += (1.0 - ad.ADAM_BETA2) * (g * g)
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + ad.ADAM_EPS)


# signed zeros, the smallest subnormal and magnitudes whose squares still
# sum to a finite norm over a 272 x 256 tensor
_ODD_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e150, -1e150, 1e-160, 1.0, -2.5)
_odd_floats = st.one_of(st.sampled_from(_ODD_VALUES),
                        st.floats(-1e150, 1e150, allow_nan=False))


@st.composite
def _odd_array(draw, shape):
    """Small arrays drawn whole; a large one a seeded normal draw at a
    drawn scale with up to 16 entries drawn from the odd values."""
    if shape[0] * shape[1] <= 16:
        return draw(hnp.arrays(np.float64, shape, elements=_odd_floats))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.normal(size=shape) * draw(st.sampled_from([0.0, 1e-160, 1.0, 1e149]))
    for _ in range(draw(st.integers(0, 16))):
        a[draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))] = \
            draw(_odd_floats)
    return a


@st.composite
def _optimizer_steps(draw):
    """Parameters of shapes 1 x 1, D x 1 and 272 x 256, and the gradient
    sets of one to four steps."""
    shapes = [(1, 1), (draw(st.integers(1, 16)), 1), (272, 256)]
    params = [draw(_odd_array(shape)) for shape in shapes]
    steps = [[draw(_odd_array(shape)) for shape in shapes]
             for _ in range(draw(st.integers(1, 4)))]
    return params, steps


@pytest.mark.parametrize("max_norm, lr", [
    (1e-3, 1e-3),   # clipping fires unless a step's gradients are all zero
    (1e160, 1e-3),  # it never fires
    (1e-3, 0.0),
    (1e160, 0.5),
])
@settings(max_examples=25, deadline=None)
@given(case=_optimizer_steps())
def test_in_place_clip_and_adam_keep_the_bytes_of_the_out_of_place_step(
        max_norm, lr, case):
    params, steps = case
    mine = [p.copy() for p in params]
    opt = ad.Adam(mine, lr=lr)
    reference = _AdamReference([p.copy() for p in params], lr)
    for grads in steps:
        want = _clip_reference([g.copy() for g in grads], max_norm)
        clipped = [g.copy() for g in grads]
        ad.clip_global_norm(clipped, max_norm, opt.scratch)
        assert [g.tobytes() for g in clipped] == [g.tobytes() for g in want]
        opt.step(clipped)
        reference.step(want)
        for ours, theirs in (
                (opt.params, reference.params), (opt.m, reference.m),
                (opt.v, reference.v)):
            assert [a.tobytes() for a in ours] == [a.tobytes() for a in theirs]


@pytest.mark.parametrize("max_norm", [1.0, 1e9])
def test_clip_and_adam_step_allocate_nothing_per_step(max_norm):
    # the model's tensors at the default sizes: after the first step, a
    # clip plus Adam step works in the gradients and the optimizer's one
    # scratch buffer, whether clipping fires (1.0) or not (1e9)
    cfg = TrainConfig()
    rng = np.random.default_rng(0)
    arrays = [t.data for t in init_model_params(60, cfg, rng).named_tensors().values()]
    opt = ad.Adam(arrays, lr=cfg.learning_rate)
    first = [rng.normal(size=a.shape) for a in arrays]
    ad.clip_global_norm(first, max_norm, opt.scratch)
    opt.step(first)
    grads = [rng.normal(size=a.shape) for a in arrays]
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ad.clip_global_norm(grads, max_norm, opt.scratch)
        opt.step(grads)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert sum(a.size for a in arrays) > 600_000
    assert peak < 64 * 1024

