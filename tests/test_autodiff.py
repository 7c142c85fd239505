import math
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gutgraph import autodiff as ad
from gutgraph.train import head_gradients


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    return np.linalg.norm(a - b) / max(na, nb, 1e-12)


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


def test_backward_of_sum_is_ones():
    x = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.sum_all(x)
        (gx,) = tape.backward(loss, [x])
    assert np.array_equal(gx, np.ones((2, 3)))


def test_backward_rejects_non_scalar_loss():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with ad.Tape() as tape:
        y = ad.square(x)
        with pytest.raises(ad.ShapeError):
            tape.backward(y, [x])


def test_relu_subgradient_zero_at_zero():
    # one node with a self-loop, identity weight, zero bias: the GCN
    # layer is relu of its input
    x = ad.Tensor([[0.0, -1.0, 2.0]], requires_grad=True)
    w = ad.constant(np.eye(3))
    b = ad.constant(np.zeros((1, 3)))
    with ad.Tape() as tape:
        loss = ad.sum_all(ad.gcn_layer(np.ones((1, 1)), x, w, b))
        (gx,) = tape.backward(loss, [x])
    assert np.array_equal(gx, [[0.0, 0.0, 1.0]])


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
    w = ad.Tensor(np.zeros((3, 2)), requires_grad=True)
    b = ad.Tensor(np.zeros((1, 2)), requires_grad=True)
    sign = np.where(y == 0, 1.0, -1.0)[:, None]
    with ad.Tape() as tape:
        logits = ad.add(ad.matmul(ad.constant(x), w),
                        ad.matmul(ad.constant(np.ones((4, 1))), b))
        margin = ad.mul(ad.matmul(logits, ad.constant([[-1.0], [1.0]])),
                        ad.constant(sign))
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
    return [a, b], lambda ta, tb: ad.sum_all(ad.square(ad.matmul(ta, tb)))


@op_case("add")
def _case_add(rng):
    shape = tuple(rng.integers(1, 6, size=2))
    return ([rng.normal(size=shape), rng.normal(size=shape)],
            lambda a, b: ad.sum_all(ad.square(ad.add(a, b))))


@op_case("sub")
def _case_sub(rng):
    shape = tuple(rng.integers(1, 6, size=2))
    return ([rng.normal(size=shape), rng.normal(size=shape)],
            lambda a, b: ad.sum_all(ad.square(ad.sub(a, b))))


@op_case("mul")
def _case_mul(rng):
    shape = tuple(rng.integers(1, 6, size=2))
    return ([rng.normal(size=shape), rng.normal(size=shape)],
            lambda a, b: ad.sum_all(ad.square(ad.mul(a, b))))


@op_case("mul_scalar")
def _case_mul_scalar(rng):
    shape = tuple(rng.integers(1, 6, size=2))
    c = float(rng.normal())
    return ([rng.normal(size=shape)],
            lambda x: ad.sum_all(ad.square(ad.mul_scalar(x, c))))


@op_case("square")
def _case_square(rng):
    shape = tuple(rng.integers(1, 6, size=2))
    return ([rng.normal(size=shape)],
            lambda x: ad.sum_all(ad.square(ad.square(x))))


@op_case("sigmoid")
def _case_sigmoid(rng):
    shape = tuple(rng.integers(1, 6, size=2))
    return ([rng.normal(size=shape)],
            lambda x: ad.sum_all(ad.square(ad.sigmoid(x))))


@op_case("softplus")
def _case_softplus(rng):
    shape = tuple(rng.integers(1, 6, size=2))
    return ([rng.normal(size=shape)],
            lambda x: ad.sum_all(ad.square(ad.softplus(x))))


@op_case("transpose")
def _case_transpose(rng):
    shape = tuple(rng.integers(1, 6, size=2))
    w = rng.normal(size=shape)
    return ([rng.normal(size=shape)],
            lambda x: ad.sum_all(ad.square(ad.matmul(ad.transpose(x), ad.constant(w)))))


@op_case("concat_cols")
def _case_concat(rng):
    n = int(rng.integers(1, 6))
    ca, cb = rng.integers(1, 5, size=2)
    return ([rng.normal(size=(n, ca)), rng.normal(size=(n, cb))],
            lambda a, b: ad.sum_all(ad.square(ad.concat_cols(a, b))))


@op_case("slice_rows")
def _case_slice(rng):
    n = int(rng.integers(2, 7))
    c = int(rng.integers(1, 6))
    i0 = int(rng.integers(0, n - 1))
    i1 = int(rng.integers(i0 + 1, n + 1))
    return ([rng.normal(size=(n, c))],
            lambda x: ad.sum_all(ad.square(ad.slice_rows(x, i0, i1))))


@op_case("mean_rows")
def _case_mean_rows(rng):
    shape = tuple(rng.integers(1, 6, size=2))
    return ([rng.normal(size=shape)],
            lambda x: ad.sum_all(ad.square(ad.mean_rows(x))))


@op_case("sum_all")
def _case_sum_all(rng):
    shape = tuple(rng.integers(1, 6, size=2))
    return ([rng.normal(size=shape)],
            lambda x: ad.square(ad.sum_all(x)))


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_finite_differences(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(20):
        arrays, build = OP_CASES[name](rng)
        tensors = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
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
    x = ad.constant(rng.normal(size=(5, 4)))
    w = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(1, 3)), requires_grad=True)

    def build(wt, bt):
        return ad.sum_all(ad.square(ad.gcn_layer(a_norm, x, wt, bt)))

    with ad.Tape() as tape:
        loss = build(w, b)
        gw, gb = tape.backward(loss, [w, b])
    pre = (a_norm @ x.data) @ w.data + b.data
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
# gcn_layer runs A (H W) when 2 d <= d_in on a constant input and when
# d <= d_in on a trainable one, (A H) W otherwise; the examples pin each
# order with each kind of input
gcn_layer_shapes = dict(gcn_shapes, d_in=st.integers(1, 8), trainable=st.booleans())
gcn_layer_orders = [
    example(n=5, d=4, d_in=3, views=2, trainable=False, seed=1),  # (A H) W
    example(n=5, d=2, d_in=4, views=2, trainable=False, seed=2),  # A (H W), tie
    example(n=5, d=5, d_in=3, views=2, trainable=True, seed=3),   # (A H) W
    example(n=5, d=3, d_in=3, views=2, trainable=True, seed=4),   # A (H W), tie
]


def _with_examples(examples):
    def decorate(test):
        for ex in reversed(examples):
            test = ex(test)
        return test
    return decorate


@settings(max_examples=60, deadline=None)
@given(**gcn_layer_shapes)
@_with_examples(gcn_layer_orders)
def test_gcn_layer_matches_per_view_oracle(n, d, d_in, views, trainable, seed):
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n))
    xs = [rng.normal(size=(n, d_in)) for _ in range(views)]
    w, b = rng.normal(size=(d_in, d)), rng.normal(size=(1, d))
    h = ad.Tensor(np.concatenate(xs), requires_grad=trainable)
    got = ad.gcn_layer(adj, h, ad.constant(w), ad.constant(b)).data
    want = _gcn_oracle(adj, xs, w, b)
    assert got.shape == (views * n, d)
    assert _max_rel(got, want) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(**attention_shapes)
def test_relation_attention_matches_per_head_oracle(n, d, heads, relations, views, seed):
    rng = np.random.default_rng(seed)
    m = views * n
    embeddings = [rng.normal(size=(m, d)) for _ in range(relations)]
    queries = [[rng.normal(size=(d, 1)) for _ in range(heads)] for _ in range(relations)]
    merged, weights = ad.relation_attention(
        [ad.constant(e) for e in embeddings],
        [[ad.constant(q) for q in per_t] for per_t in queries])
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


@settings(max_examples=40, deadline=None)
@given(**gcn_layer_shapes)
@_with_examples(gcn_layer_orders)
def test_gcn_layer_vjp_matches_finite_differences(n, d, d_in, views, trainable, seed):
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n))
    h = ad.Tensor(rng.normal(size=(views * n, d_in)), requires_grad=trainable)
    w = ad.Tensor(rng.normal(size=(d_in, d)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(1, d)), requires_grad=True)
    pre = np.concatenate([adj @ v for v in np.split(h.data, views)]) @ w.data + b.data
    assume(np.abs(pre).min() > 1e-4)  # away from the relu kink
    readout = ad.constant(rng.normal(size=(views * n, d)))
    _check_vjp_against_fd(
        lambda: ad.sum_all(ad.mul(ad.gcn_layer(adj, h, w, b), readout)),
        [h, w, b] if trainable else [w, b])


@settings(max_examples=40, deadline=None)
@given(**attention_shapes)
@example(n=13, d=1, views=2, seed=4, heads=4, relations=2)
def test_relation_attention_vjp_matches_finite_differences(n, d, heads, relations,
                                                           views, seed):
    rng = np.random.default_rng(seed)
    m = views * n
    embeddings = [ad.Tensor(rng.normal(size=(m, d)), requires_grad=True)
                  for _ in range(relations)]
    queries = [[ad.Tensor(rng.normal(size=(d, 1)), requires_grad=True)
                for _ in range(heads)] for _ in range(relations)]
    readout = ad.constant(rng.normal(size=(m, d)))

    def build():
        merged, _ = ad.relation_attention(embeddings, queries)
        return ad.sum_all(ad.mul(merged, readout))

    # the five-point stencil: the three-point one at step 1e-6 reads 1.09e-6
    # on the pinned example, rounding noise on a 1x1 query gradient of 0.0017
    _check_vjp_against_fd(build, embeddings + [q for per_t in queries for q in per_t],
                          step=1e-3, order=4)


def test_relation_attention_extreme_scores_stay_finite():
    e1 = ad.constant(np.array([[700.0], [-700.0]]))
    e2 = ad.constant(np.array([[-700.0], [-700.0]]))
    one = ad.constant(np.ones((1, 1)))
    merged, weights = ad.relation_attention([e1, e2], [[one], [one]])
    assert np.all(np.isfinite(weights)) and np.all(np.isfinite(merged.data))
    assert np.abs(weights.sum(axis=0) - 1.0).max() <= 1e-12
    assert weights[:, 1, 0].tolist() == [0.5, 0.5]


def test_kernels_skip_adjoints_of_constant_operands():
    rng = np.random.default_rng(13)
    adj = rng.random((4, 4))
    x = ad.constant(rng.normal(size=(8, 3)))
    w = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(1, 2)), requires_grad=True)
    e = ad.constant(rng.normal(size=(8, 2)))
    q = ad.Tensor(rng.normal(size=(2, 1)), requires_grad=True)
    with ad.Tape() as tape:
        h = ad.gcn_layer(adj, x, w, b)
        ad.relation_attention([h, e], [[q], [ad.constant(np.ones((2, 1)))]])
    (_, _, vjp_gcn), (_, _, vjp_att) = tape._records
    g_x, g_w, g_b = vjp_gcn(np.ones((8, 2)))
    assert g_x is None and g_w.shape == (3, 2) and g_b.shape == (1, 2)
    g_h, g_e, g_q, g_const = vjp_att(np.ones((8, 2)))
    assert g_e is None and g_const is None
    assert g_h.shape == (8, 2) and g_q.shape == (2, 1)


def test_slice_rows_is_a_view():
    x = ad.Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    with ad.Tape() as tape:
        top = ad.slice_rows(x, 0, 2)
        (gx,) = tape.backward(ad.sum_all(top), [x])
    assert np.shares_memory(top.data, x.data)
    assert np.array_equal(gx, [[1.0] * 3, [1.0] * 3, [0.0] * 3, [0.0] * 3])
    with pytest.raises(ad.ShapeError):
        ad.slice_rows(x, 2, 2)


def test_row_slice_adjoint_leaves_a_shared_adjoint_alone():
    # add hands one adjoint array to x and z; the slice's rows must land in
    # a copy for x, not in the array z received too
    rng = np.random.default_rng(5)
    x = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    z = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    c, c_top, c_bottom = (rng.normal(size=(k, 3)) for k in (4, 2, 2))
    with ad.Tape() as tape:
        top, bottom = ad.slice_rows(x, 0, 2), ad.slice_rows(x, 2, 4)
        loss = ad.add(ad.sum_all(ad.mul(ad.add(x, z), ad.constant(c))),
                      ad.add(ad.sum_all(ad.mul(top, ad.constant(c_top))),
                             ad.sum_all(ad.mul(bottom, ad.constant(c_bottom)))))
        gx, gz = tape.backward(loss, [x, z])
    assert gz.tobytes() == c.tobytes()
    assert gx.tobytes() == (c + np.concatenate([c_top, c_bottom])).tobytes()


# ---------------------------------------------------------------------------
# tape semantics


def test_second_backward_raises_and_len_counts_the_records():
    # the sweep releases every record, so a swept tape has nothing to replay
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    w = ad.Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.sum_all(ad.square(ad.add(ad.matmul(x, w), x)))
        intermediates = [weakref.ref(out.data) for out, _, _ in tape._records[:-1]]
        assert len(intermediates) == 3 and all(r() is not None for r in intermediates)
        tape.backward(loss, [x, w])
        assert all(r() is None for r in intermediates)
        with pytest.raises(ValueError, match="already been swept"):
            tape.backward(loss, [x, w])
    assert len(tape) == 4


def test_backward_refuses_a_recorded_output():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with ad.Tape() as tape:
        y = ad.square(x)
        loss = ad.sum_all(y)
        with pytest.raises(ValueError, match="recorded"):
            tape.backward(loss, [x, y])
        with pytest.raises(ValueError, match="recorded"):
            tape.backward(loss, [loss])


def test_unreached_parameter_has_zero_grad():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    other = ad.Tensor(np.ones((3, 3)), requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.sum_all(x)
        grads = tape.backward(loss, [x, other])
    assert np.array_equal(grads[0], np.ones((2, 2)))
    assert np.array_equal(grads[1], np.zeros((3, 3)))


def test_identical_tapes_give_bit_identical_grads():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(4, 4))

    def run():
        x = ad.Tensor(data.copy(), requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.square(ad.sigmoid(ad.matmul(x, x))))
            (gx,) = tape.backward(loss, [x])
        return gx

    assert run().tobytes() == run().tobytes()


def test_reused_tensor_receives_summed_adjoints():
    x = ad.Tensor([[2.0]], requires_grad=True)
    with ad.Tape() as tape:
        y = ad.mul(x, x)  # d/dx = 2x
        loss = ad.add(y, x)  # d/dx = 2x + 1 = 5
        (gx,) = tape.backward(loss, [x])
    assert gx[0, 0] == pytest.approx(5.0, abs=1e-12)


def test_backward_reaches_parameter_leaves_only():
    rng = np.random.default_rng(11)
    adj = ad.constant(rng.random((4, 4)))
    feats = ad.constant(rng.normal(size=(4, 3)))
    ones = ad.constant(np.ones((4, 1)))
    w = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(1, 2)), requires_grad=True)
    with ad.Tape() as tape:
        h = ad.sigmoid(ad.add(ad.matmul(adj, ad.matmul(feats, w)),
                              ad.matmul(ones, b)))
        loss = ad.sum_all(ad.square(h))
        # refused before any sweep, so the tape is still whole
        intermediates = [out for out, _, _ in tape._records]
        assert len(intermediates) == 7
        for t in intermediates:
            with pytest.raises(ValueError, match="recorded"):
                tape.backward(loss, [t])
        gw, gb, g_adj, g_feats, g_ones = tape.backward(loss, [w, b, adj, feats, ones])
    assert not g_adj.any() and not g_feats.any() and not g_ones.any()
    assert gw.any() and gb.any()


def test_matmul_vjp_returns_none_for_constant_operand():
    rng = np.random.default_rng(12)
    const = ad.constant(rng.normal(size=(3, 3)))
    w = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    v = ad.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    with ad.Tape() as tape:
        left = ad.matmul(const, w)
        right = ad.matmul(v, const)
    (_, _, vjp_left), (_, _, vjp_right) = tape._records
    g_const, g_w = vjp_left(np.ones(left.shape))
    assert g_const is None
    assert np.array_equal(g_w, const.data.T @ np.ones(left.shape))
    g_v, g_const = vjp_right(np.ones(right.shape))
    assert g_const is None
    assert np.array_equal(g_v, np.ones(right.shape) @ const.data.T)


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
    opt.step([g])
    delta = p - before
    assert np.allclose(delta, -1e-3 * np.sign(g), atol=1e-8)


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
    opt = ad.Adam([p])
    with pytest.raises(ValueError):
        opt.step([])


def test_clip_scales_a_shared_adjoint_once_per_entry():
    # add hands one adjoint array to both leaves; clipping must scale
    # each entry once and leave the shared input's bytes alone
    a = ad.Tensor(np.zeros((3, 2)), requires_grad=True)
    b = ad.Tensor(np.zeros((3, 2)), requires_grad=True)
    with ad.Tape() as tape:
        grads = tape.backward(ad.sum_all(ad.add(a, b)), [a, b])
    clipped = ad.clip_global_norm(grads, 1.0)
    want = np.full((3, 2), 1.0 / np.sqrt(12.0)).tobytes()
    assert clipped[0].tobytes() == want and clipped[1].tobytes() == want
    assert grads[0].tobytes() == grads[1].tobytes() == np.ones((3, 2)).tobytes()


def test_clip_global_norm():
    g1 = np.array([[3.0, 0.0]])
    g2 = np.array([[0.0, 4.0]])
    out = ad.clip_global_norm([g1, g2], 5.0)  # joint norm exactly 5: untouched
    assert out[0] is g1 and out[1] is g2
    assert g1[0, 0] == 3.0 and g2[0, 1] == 4.0
    g1 = np.array([[6.0, 0.0]])
    g2 = np.array([[0.0, 8.0]])
    before = g1.tobytes() + g2.tobytes()
    out = ad.clip_global_norm([g1, g2], 5.0)  # joint norm 10 -> scaled by 0.5
    total = np.sqrt((out[0] ** 2).sum() + (out[1] ** 2).sum())
    assert total == pytest.approx(5.0, abs=1e-12)
    assert g1.tobytes() + g2.tobytes() == before
    small = np.array([[0.1]])
    before = small.tobytes()
    assert ad.clip_global_norm([small], 5.0)[0].tobytes() == before
    with pytest.raises(ValueError):
        ad.clip_global_norm([small], 0.0)
