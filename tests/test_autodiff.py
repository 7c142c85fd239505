import math
import zlib

import numpy as np
import pytest

from gutgraph import autodiff as ad


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    return np.linalg.norm(a - b) / max(na, nb, 1e-12)


def numeric_grad(f, arr: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences of scalar-valued f() that reads arr in place."""
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        keep = arr[idx]
        arr[idx] = keep + h
        fp = f()
        arr[idx] = keep - h
        fm = f()
        arr[idx] = keep
        g[idx] = (fp - fm) / (2.0 * h)
    return g


def analytic_grads(build, arrays):
    for a in arrays:
        if isinstance(a, ad.Tensor):
            a.zero_grad()
    with ad.Tape() as tape:
        loss = build()
        tape.backward(loss)
    return loss


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
        tape.backward(loss)
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_rejects_non_scalar_loss():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with ad.Tape() as tape:
        y = ad.relu(x)
        with pytest.raises(ad.ShapeError):
            tape.backward(y)


def test_relu_subgradient_zero_at_zero():
    x = ad.Tensor([[0.0, -1.0, 2.0]], requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.sum_all(ad.relu(x))
        tape.backward(loss)
    assert np.array_equal(x.grad, [[0.0, 0.0, 1.0]])


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


def test_softmax_rows_sums_to_one_with_extreme_inputs():
    x = ad.Tensor([[700.0, -700.0, 0.0], [-700.0, -700.0, -700.0]])
    s = ad.softmax_rows(x)
    assert np.all(np.abs(s.data.sum(axis=1) - 1.0) < 1e-12)
    assert np.all(np.isfinite(s.data))
    moderate = ad.softmax_rows(ad.Tensor([[-30.0, 0.0, 30.0]]))
    assert np.all(moderate.data > 0)


def test_cross_entropy_uniform_logits():
    logits = ad.Tensor(np.zeros((4, 2)))
    loss = ad.softmax_cross_entropy(logits, np.array([0, 1, 0, 1]))
    assert loss.item() == pytest.approx(math.log(2.0), abs=1e-15)


def test_mean_rows_bit_invariant_under_row_permutation():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(17, 5))
    perm = rng.permutation(17)
    a = ad.mean_rows(ad.Tensor(x)).data
    b = ad.mean_rows(ad.Tensor(x[perm])).data
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# finite-difference checks, one per primitive (20 random instances each)


def _away_from(rng, shape, kink=0.0, margin=0.1):
    x = rng.normal(size=shape)
    x = np.where(np.abs(x - kink) < margin, x + np.sign(x - kink + 1e-12) * margin, x)
    return x


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


@op_case("add_bias")
def _case_add_bias(rng):
    n, c = rng.integers(1, 6, size=2)
    return ([rng.normal(size=(n, c)), rng.normal(size=(1, c))],
            lambda x, b: ad.sum_all(ad.square(ad.add_bias(x, b))))


@op_case("square")
def _case_square(rng):
    shape = tuple(rng.integers(1, 6, size=2))
    return ([rng.normal(size=shape)],
            lambda x: ad.sum_all(ad.square(ad.square(x))))


@op_case("relu")
def _case_relu(rng):
    shape = tuple(rng.integers(1, 6, size=2))
    return ([_away_from(rng, shape)],
            lambda x: ad.sum_all(ad.square(ad.relu(x))))


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


@op_case("slice_cols")
def _case_slice(rng):
    n = int(rng.integers(1, 6))
    c = int(rng.integers(2, 7))
    j0 = int(rng.integers(0, c - 1))
    j1 = int(rng.integers(j0 + 1, c + 1))
    return ([rng.normal(size=(n, c))],
            lambda x: ad.sum_all(ad.square(ad.slice_cols(x, j0, j1))))


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


@op_case("softmax_rows")
def _case_softmax(rng):
    shape = tuple(rng.integers(1, 6, size=2))
    w = rng.normal(size=shape)
    return ([rng.normal(size=shape)],
            lambda x: ad.sum_all(ad.square(ad.mul(ad.softmax_rows(x), ad.constant(w)))))


@op_case("scale_rows")
def _case_scale_rows(rng):
    n, c = rng.integers(1, 6, size=2)
    return ([rng.normal(size=(n, c)), rng.normal(size=(n, 1))],
            lambda x, w: ad.sum_all(ad.square(ad.scale_rows(x, w))))


@op_case("softmax_cross_entropy")
def _case_ce(rng):
    n = int(rng.integers(1, 6))
    c = int(rng.integers(2, 5))
    y = rng.integers(0, c, size=n)
    return ([rng.normal(size=(n, c))],
            lambda x: ad.softmax_cross_entropy(x, y))


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_finite_differences(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(20):
        arrays, build = OP_CASES[name](rng)
        tensors = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
        with ad.Tape() as tape:
            loss = build(*tensors)
            tape.backward(loss)
        for t in tensors:
            def f(t=t):
                fresh = [ad.Tensor(u.data) for u in tensors]
                fresh[tensors.index(t)] = ad.Tensor(t.data)
                return build(*fresh).item()
            fd = numeric_grad(f, t.data)
            assert t.grad is not None
            assert rel_error(t.grad, fd) < 1e-4, f"{name}: rel err too high"


def test_composed_gcn_style_layer_fd():
    # One propagation layer on a 5-node graph: relu((A @ X) @ W + b).
    rng = np.random.default_rng(11)
    a = rng.random((5, 5))
    a = ((a + a.T) > 1.0).astype(float) + np.eye(5)
    d = 1.0 / np.sqrt(a.sum(axis=1))
    a_norm = ad.constant(a * d[:, None] * d[None, :])
    x = ad.constant(rng.normal(size=(5, 4)))
    w = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(1, 3)), requires_grad=True)

    def build(wt, bt):
        h = ad.relu(ad.add_bias(ad.matmul(ad.matmul(a_norm, x), wt), bt))
        return ad.sum_all(ad.square(h))

    with ad.Tape() as tape:
        loss = build(w, b)
        tape.backward(loss)
    pre = (a_norm.data @ x.data) @ w.data + b.data
    assert np.min(np.abs(pre)) > 1e-3  # keep FD away from the relu kink

    fd_w = numeric_grad(lambda: build(ad.Tensor(w.data), ad.Tensor(b.data)).item(), w.data)
    fd_b = numeric_grad(lambda: build(ad.Tensor(w.data), ad.Tensor(b.data)).item(), b.data)
    assert rel_error(w.grad, fd_w) < 1e-4
    assert rel_error(b.grad, fd_b) < 1e-4


# ---------------------------------------------------------------------------
# tape semantics


def test_grad_accumulates_across_backward_calls():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.sum_all(ad.square(x))
        tape.backward(loss)
        first = x.grad.copy()
        tape.backward(loss)
    assert np.array_equal(x.grad, 2.0 * first)
    x.zero_grad()
    assert x.grad is None


def test_unreached_parameter_has_zero_grad():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    other = ad.Tensor(np.ones((3, 3)), requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.sum_all(x)
        tape.backward(loss)
    grads = ad.gather_grads([x, other])
    assert np.array_equal(grads[0], np.ones((2, 2)))
    assert np.array_equal(grads[1], np.zeros((3, 3)))


def test_identical_tapes_give_bit_identical_grads():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(4, 4))

    def run():
        x = ad.Tensor(data.copy(), requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.square(ad.sigmoid(ad.matmul(x, x))))
            tape.backward(loss)
        return x.grad

    assert run().tobytes() == run().tobytes()


def test_reused_tensor_receives_summed_adjoints():
    x = ad.Tensor([[2.0]], requires_grad=True)
    with ad.Tape() as tape:
        y = ad.mul(x, x)  # d/dx = 2x
        loss = ad.add(y, x)  # d/dx = 2x + 1 = 5
        tape.backward(loss)
    assert x.grad[0, 0] == pytest.approx(5.0, abs=1e-12)


def test_backward_deposits_grad_on_leaves_only_and_leaves_accumulate():
    rng = np.random.default_rng(11)
    adj = ad.constant(rng.random((4, 4)))
    feats = ad.constant(rng.normal(size=(4, 3)))
    w = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(1, 2)), requires_grad=True)
    with ad.Tape() as tape:
        h = ad.relu(ad.add_bias(ad.matmul(adj, ad.matmul(feats, w)), b))
        loss = ad.sum_all(ad.square(h))
        tape.backward(loss)
        first = {"w": w.grad.copy(), "b": b.grad.copy()}
        tape.backward(loss)
    intermediates = [out for out, _, _ in tape._records]
    assert len(intermediates) == 6
    assert all(t.grad is None for t in intermediates)
    assert adj.grad is None and feats.grad is None
    assert np.array_equal(w.grad, 2.0 * first["w"])
    assert np.array_equal(b.grad, 2.0 * first["b"])


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
    p = ad.Tensor(np.full((2, 2), 3.0), requires_grad=True)
    before = p.data.tobytes()
    opt = ad.Adam([p], lr=0.1)
    opt.step([np.zeros((2, 2))])
    assert p.data.tobytes() == before


def test_adam_first_step_magnitude_close_to_lr():
    p = ad.Tensor(np.array([[5.0, -2.0]]), requires_grad=True)
    before = p.data.copy()
    opt = ad.Adam([p], lr=1e-3)
    g = np.array([[4.0, -3.0]])
    opt.step([g])
    delta = p.data - before
    assert np.allclose(delta, -1e-3 * np.sign(g), atol=1e-8)


def test_adam_lr_zero_is_bit_identity():
    rng = np.random.default_rng(0)
    p = ad.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    before = p.data.tobytes()
    opt = ad.Adam([p], lr=0.0)
    for _ in range(5):
        opt.step([rng.normal(size=(3, 3))])
    assert p.data.tobytes() == before


def test_adam_rejects_misaligned_grads():
    p = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    opt = ad.Adam([p])
    with pytest.raises(ValueError):
        opt.step([])


def test_clip_global_norm():
    g1 = np.array([[3.0, 0.0]])
    g2 = np.array([[0.0, 4.0]])
    ad.clip_global_norm([g1, g2], 5.0)  # joint norm exactly 5: untouched
    assert g1[0, 0] == 3.0 and g2[0, 1] == 4.0
    g1 = np.array([[6.0, 0.0]])
    g2 = np.array([[0.0, 8.0]])
    ad.clip_global_norm([g1, g2], 5.0)  # joint norm 10 -> scaled by 0.5
    total = np.sqrt((g1 ** 2).sum() + (g2 ** 2).sum())
    assert total == pytest.approx(5.0, abs=1e-12)
    small = np.array([[0.1]])
    before = small.tobytes()
    ad.clip_global_norm([small], 5.0)
    assert small.tobytes() == before
    with pytest.raises(ValueError):
        ad.clip_global_norm([small], 0.0)
