import gc
import inspect
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from gutgraph import autodiff as ad
from gutgraph import graph as gg
from gutgraph import model
from gutgraph.gradcheck import DEFAULT_TOLERANCE, gradient_check
from gutgraph.train import TrainConfig


def tiny_cfg(**overrides) -> TrainConfig:
    return TrainConfig(**{"embed_dim": 3, "gcn_layers": 2, "bins": 3, "heads": 2,
                          **overrides})


def tiny_params(kinds=gg.ALL_KINDS, n_features=4, cfg=None, seed=0):
    rng = np.random.default_rng(seed)
    return model.init_model_params(kinds, n_features, cfg or tiny_cfg(), rng)


def tiny_problem(n=8, f=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((n, f)) + 0.01
    adjs = gg.build_multigraph(x, threshold=0.6).norm_adjs
    x_shuffled, _ = gg.shuffle_features(x, seed)
    return x, x_shuffled, adjs


# ---------------------------------------------------------------------------
# initialization


def test_init_bounds_zero_biases_and_determinism():
    p = tiny_params()
    names = list(p.named_tensors())
    assert names[0] == "encoder/bray_curtis/layer0/weight"
    assert "eta_raw" in names
    assert not any(name.startswith("classifier/") for name in names)
    for name, t in p.named_tensors().items():
        if name.endswith("/bias"):
            assert np.all(t.data == 0.0)
        elif name.endswith("weight") or name.endswith("query"):
            bound = 1.0 / np.sqrt(t.data.shape[0])
            assert np.all(np.abs(t.data) < bound)
    assert p.eta_raw.data[0, 0] == 0.0
    assert p.embed_dim == 3
    q = tiny_params()
    r = tiny_params(seed=1)
    for a, b in zip(p.named_tensors().values(), q.named_tensors().values()):
        assert a.data.tobytes() == b.data.tobytes()
    assert any(a.data.tobytes() != c.data.tobytes()
               for a, c in zip(p.named_tensors().values(), r.named_tensors().values()))


def test_init_discriminator_dim_follows_summary_flag():
    with_hist = tiny_params(cfg=tiny_cfg(two_stage_summary=True))
    without = tiny_params(cfg=tiny_cfg(two_stage_summary=False))
    assert with_hist.discriminators[gg.DistanceKind.EUCLIDEAN].data.shape == (3 + 3, 3)
    assert without.discriminators[gg.DistanceKind.EUCLIDEAN].data.shape == (3, 3)


# ---------------------------------------------------------------------------
# GCN encoder


def test_gcn_zero_weights_give_zero_embedding():
    p = tiny_params()
    for w, b in p.layers[gg.DistanceKind.EUCLIDEAN]:
        w.data[:] = 0.0
        b.data[:] = 0.0
    x = ad.constant(np.random.default_rng(0).random((5, 4)))
    h = model.gcn_forward(np.eye(5), x, p.layers[gg.DistanceKind.EUCLIDEAN])
    assert np.all(h.data == 0.0)


def test_gcn_hand_case_one_layer():
    # two connected nodes: A_norm is all 0.5; relu clips the first column
    adj = np.full((2, 2), 0.5)
    x = ad.constant(np.array([[2.0, 0.0], [0.0, 4.0]]))
    w = ad.Tensor(np.eye(2))
    b = ad.Tensor(np.array([[-1.5, 0.0]]))
    h = model.gcn_forward(adj, x, [(w, b)])
    assert np.allclose(h.data, [[0.0, 2.0], [0.0, 2.0]], atol=1e-15)


def test_gcn_row_permutation_equivariance():
    x, _, adjs = tiny_problem(n=7)
    p = tiny_params(n_features=4, cfg=tiny_cfg(gcn_layers=3))
    kind = gg.DistanceKind.BRAY_CURTIS
    perm = np.random.default_rng(1).permutation(7)
    h = model.gcn_forward(adjs[kind], ad.constant(x), p.layers[kind]).data
    a_perm = adjs[kind][perm][:, perm]
    h_perm = model.gcn_forward(a_perm, ad.constant(x[perm]), p.layers[kind]).data
    assert np.max(np.abs(h_perm - h[perm])) < 1e-9


def test_gcn_final_layer_keeps_relu():
    p = tiny_params()
    kind = gg.DistanceKind.EUCLIDEAN
    x = ad.constant(np.random.default_rng(2).normal(size=(6, 4)) * 10)
    h = model.gcn_forward(np.eye(6), x, p.layers[kind])
    assert np.all(h.data >= 0.0)


# ---------------------------------------------------------------------------
# readout


def test_node_summary_of_zero_embedding_is_half():
    h = ad.constant(np.zeros((6, 4)))
    p = model.node_summary(h)
    assert np.all(p.data == 0.5)
    assert p.data.shape == (1, 4)


def test_node_summary_bit_invariant_under_row_permutation():
    rng = np.random.default_rng(3)
    h = rng.normal(size=(11, 5))
    perm = rng.permutation(11)
    a = model.node_summary(ad.constant(h)).data
    b = model.node_summary(ad.constant(h[perm])).data
    assert a.tobytes() == b.tobytes()


def test_value_histogram_hand_cases():
    q = model.value_histogram(np.array([1.0, 1.0, 3.0]), bins=2)
    assert np.allclose(q, [[0.4, 0.6]], atol=1e-15)
    q = model.value_histogram(np.array([1.0, 1.0, 3.0]), bins=2, weighting="count")
    assert np.allclose(q, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)
    # top edge closed: the max value belongs to the last bin
    q = model.value_histogram(np.array([1.0, 3.0]), bins=2)
    assert np.allclose(q, [[0.25, 0.75]], atol=1e-15)
    # negative values weight by magnitude
    q = model.value_histogram(np.array([-3.0, 1.0]), bins=2)
    assert np.allclose(q, [[0.75, 0.25]], atol=1e-15)


def test_value_histogram_degenerate_cases():
    q = model.value_histogram(np.zeros((4, 3)), bins=5)
    assert np.allclose(q, np.full((1, 5), 0.2), atol=1e-16)
    q = model.value_histogram(np.full((2, 2), 7.0), bins=4)
    assert q.tolist() == [[1.0, 0.0, 0.0, 0.0]]


def test_value_histogram_sums_to_one_and_is_permutation_stable():
    rng = np.random.default_rng(4)
    for _ in range(100):
        h = rng.normal(size=(int(rng.integers(2, 12)), int(rng.integers(1, 8))))
        q = model.value_histogram(h, bins=16)
        assert abs(q.sum() - 1.0) < 1e-12
        assert np.all(q >= 0)
        flat = h.ravel()
        q2 = model.value_histogram(flat[rng.permutation(flat.size)].reshape(h.shape),
                                   bins=16)
        assert q.tobytes() == q2.tobytes()


def test_value_histogram_range_follows_the_values():
    # the bin range is recomputed per call, not cached
    a = model.value_histogram(np.array([0.0, 1.0, 2.0]), bins=2)
    b = model.value_histogram(np.array([0.0, 10.0, 20.0]), bins=2)
    assert np.allclose(a, b, atol=1e-15)  # same shape of mass, scaled support
    c = model.value_histogram(np.array([0.0, 1.0, 20.0]), bins=2)
    assert not np.allclose(a, c, atol=1e-3)


def test_value_histogram_validation():
    with pytest.raises(ValueError):
        model.value_histogram(np.ones(3), bins=0)
    with pytest.raises(ValueError):
        model.value_histogram(np.ones(3), bins=4, weighting="nope")


def test_graph_summary_histogram_is_stop_gradient():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(6, 4))
    h1 = ad.Tensor(data.copy(), requires_grad=True)
    with ad.Tape() as tape:
        summary, _, _ = model.graph_summary(h1, bins=3)
        (g1,) = tape.backward(ad.sum_all(summary), [h1])
    h2 = ad.Tensor(data.copy(), requires_grad=True)
    with ad.Tape() as tape:
        p = model.node_summary(h2)
        (g2,) = tape.backward(ad.sum_all(p), [h2])
    # gradients flow only through the node-level stage
    assert g1.tobytes() == g2.tobytes()


def test_graph_summary_shape_and_frozen_override():
    h = ad.constant(np.random.default_rng(6).normal(size=(5, 4)))
    s, p, q = model.graph_summary(h, bins=3)
    assert s.data.shape == (1, 7)
    assert np.array_equal(s.data[:, :4], p.data)
    assert np.array_equal(s.data[:, 4:], q)
    frozen = np.full((1, 3), 1.0 / 3.0)
    s2, _, q2 = model.graph_summary(h, bins=3, frozen_histogram=frozen)
    assert np.array_equal(s2.data[:, 4:], frozen)
    assert np.array_equal(q2, frozen)


# ---------------------------------------------------------------------------
# merging


def test_attention_single_relation_is_identity():
    p = tiny_params(kinds=(gg.DistanceKind.EUCLIDEAN,))
    h = ad.constant(np.random.default_rng(7).normal(size=(5, 3)))
    merged, weights = model.attention_merge([h], p.queries,
                                            (gg.DistanceKind.EUCLIDEAN,),
                                            return_weights=True)
    assert merged is h
    assert all(np.all(w == 1.0) for w in weights)


def test_attention_weights_sum_to_one():
    p = tiny_params(cfg=tiny_cfg(heads=4))
    x, xs, adjs = tiny_problem()
    hs = [ad.constant(np.random.default_rng(i).normal(size=(8, 3))) for i in range(3)]
    merged, weights = model.attention_merge(hs, p.queries, gg.ALL_KINDS,
                                            return_weights=True)
    assert len(weights) == 4
    for w in weights:
        assert w.shape == (8, 3)
        assert np.all(np.abs(w.sum(axis=1) - 1.0) < 1e-12)
    assert merged.data.shape == (8, 3)


def test_zero_queries_match_average_merge():
    p = tiny_params()
    for per_kind in p.queries:
        for q in per_kind.values():
            q.data[:] = 0.0
    hs = [ad.constant(np.random.default_rng(i).normal(size=(6, 3))) for i in range(3)]
    att = model.attention_merge(hs, p.queries, gg.ALL_KINDS)
    avg = model.average_merge(hs)
    assert np.max(np.abs(att.data - avg.data)) < 1e-12


def test_attention_two_relation_hand_case():
    # one head, query picks the first coordinate: scores are 1 vs 2
    h1 = ad.constant(np.ones((3, 2)))
    h2 = ad.constant(2.0 * np.ones((3, 2)))
    q = {gg.DistanceKind.BRAY_CURTIS: ad.Tensor([[1.0], [0.0]]),
         gg.DistanceKind.EUCLIDEAN: ad.Tensor([[1.0], [0.0]])}
    kinds = (gg.DistanceKind.BRAY_CURTIS, gg.DistanceKind.EUCLIDEAN)
    merged = model.attention_merge([h1, h2], [q], kinds)
    w2 = math.exp(2.0) / (math.exp(1.0) + math.exp(2.0))
    want = (1.0 - w2) * 1.0 + w2 * 2.0
    assert np.allclose(merged.data, want, atol=1e-12)


def test_average_merge():
    a = ad.constant(np.ones((2, 2)))
    b = ad.constant(-np.ones((2, 2)))
    c = ad.constant(3.0 * np.ones((2, 2)))
    out = model.average_merge([a, b, c])
    assert np.allclose(out.data, 1.0, atol=1e-15)
    assert model.average_merge([a]) is a
    with pytest.raises(ValueError):
        model.average_merge([])


# ---------------------------------------------------------------------------
# discriminator and losses


def test_discriminator_matches_direct_formula():
    # one relation: mean BCE of sigmoid(g W h^T) over positive and
    # shuffled nodes, written out directly
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        g = rng.normal(size=(1, 6))
        pos = rng.normal(size=(n, 4))
        neg = rng.normal(size=(n, 4))
        w = rng.normal(size=(6, 4))
        got = model.adversarial_loss([ad.constant(g)], [ad.constant(pos)],
                                     [ad.constant(neg)], [ad.constant(w)]).item()
        def score(h):
            return 1.0 / (1.0 + np.exp(-(g @ w @ h.T)[0]))

        want = -(np.log(score(pos)).sum() + np.log(1.0 - score(neg)).sum()) / (2 * n)
        assert got == pytest.approx(want, rel=1e-12)


def test_adversarial_loss_zero_weights_is_ln2():
    rng = np.random.default_rng(11)
    summaries = [ad.constant(rng.normal(size=(1, 5))) for _ in range(3)]
    pos = [ad.constant(rng.normal(size=(4, 3))) for _ in range(3)]
    neg = [ad.constant(rng.normal(size=(4, 3))) for _ in range(3)]
    ws = [ad.constant(np.zeros((5, 3))) for _ in range(3)]
    loss = model.adversarial_loss(summaries, pos, neg, ws)
    assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_adversarial_loss_separation_and_swap():
    g = [ad.constant([[1.0]])]
    pos = [ad.constant(np.ones((3, 1)))]
    neg = [ad.constant(-np.ones((3, 1)))]
    w = [ad.constant([[40.0]])]
    good = model.adversarial_loss(g, pos, neg, w).item()
    swapped = model.adversarial_loss(g, neg, pos, w).item()
    assert good < 1e-8
    assert swapped > good
    assert swapped == pytest.approx(40.0, rel=1e-6)


def test_adversarial_loss_nonnegative_on_random_instances():
    rng = np.random.default_rng(12)
    for _ in range(20):
        t = int(rng.integers(1, 4))
        n = int(rng.integers(1, 6))
        s, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        loss = model.adversarial_loss(
            [ad.constant(rng.normal(size=(1, s))) for _ in range(t)],
            [ad.constant(rng.normal(size=(n, d))) for _ in range(t)],
            [ad.constant(rng.normal(size=(n, d))) for _ in range(t)],
            [ad.constant(rng.normal(size=(s, d))) for _ in range(t)])
        assert loss.item() >= 0.0


def test_global_target_broadcast_and_gradient():
    p1 = ad.Tensor([[0.0, 1.0]], requires_grad=True)
    p2 = ad.Tensor([[1.0, 0.0]], requires_grad=True)
    with ad.Tape() as tape:
        target = model.global_target([p1, p2], n_rows=3)
        assert np.allclose(target.data, np.full((3, 2), 0.5), atol=1e-15)
        g1, g2 = tape.backward(ad.sum_all(target), [p1, p2])
    # d sum(P) / d p = N / T for every coordinate: gradient flows, no stop-grad
    assert np.allclose(g1, np.full((1, 2), 1.5), atol=1e-15)
    assert np.allclose(g2, np.full((1, 2), 1.5), atol=1e-15)


def test_hybrid_attention_loss_hand_case_and_sign():
    target = ad.constant(np.zeros((2, 2)))
    xp = ad.constant(np.ones((2, 2)))
    xn = ad.constant(2.0 * np.ones((2, 2)))
    loss = model.hybrid_attention_loss(target, xp, xn)
    assert loss.item() == pytest.approx(4.0 - 16.0, abs=1e-12)
    same = model.hybrid_attention_loss(target, xp, xp)
    assert same.item() == 0.0


def test_joint_loss_combination_and_eta_gradient():
    l_adv = ad.constant([[2.0]])
    l_h = ad.constant([[3.0]])
    eta = ad.Tensor([[0.0]], requires_grad=True)
    with ad.Tape() as tape:
        loss = model.joint_loss(l_adv, l_h, eta)
        assert loss.item() == pytest.approx(2.0 + math.log(2.0) * 3.0, abs=1e-12)
        (g_eta,) = tape.backward(loss, [eta])
    # d/d eta = sigmoid(eta) * l_h = 0.5 * 3
    assert g_eta[0, 0] == pytest.approx(1.5, abs=1e-12)
    only_h = model.joint_loss(None, l_h, ad.constant([[0.0]]))
    assert only_h.item() == pytest.approx(math.log(2.0) * 3.0, abs=1e-12)


def test_classifier_uniform_at_zero_init():
    x = np.random.default_rng(13).normal(size=(5, 3))
    probs = model.predict_proba(x, np.zeros((3, 2)), np.zeros((1, 2)))
    assert np.all(probs == 0.5)
    y = np.array([0, 1, 0, 1, 0])
    ce = -np.mean(np.log(np.where(y == 1, probs, 1.0 - probs)))
    assert ce == pytest.approx(math.log(2.0), abs=1e-12)


def test_predict_proba_matches_softmax_oracle():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(6, 3))
    w = rng.normal(size=(3, 2))
    b = rng.normal(size=(1, 2))
    got = model.predict_proba(x, w, b)
    z = x @ w + b
    want = np.exp(z[:, 1]) / (np.exp(z[:, 0]) + np.exp(z[:, 1]))
    assert np.allclose(got, want, rtol=1e-12)


# ---------------------------------------------------------------------------
# full pass


def test_joint_forward_smoke_and_parts():
    x, xs, adjs = tiny_problem()
    p = tiny_params()
    res = model.joint_forward(x, xs, adjs, p, tiny_cfg())
    assert res.loss.data.shape == (1, 1)
    assert np.isfinite(res.loss.item())
    assert res.adversarial >= 0.0
    assert set(res.histograms) == set(gg.ALL_KINDS)
    assert res.loss.item() == pytest.approx(
        res.adversarial + math.log(2.0) * res.hybrid, abs=1e-9)


def test_joint_forward_without_adversarial_gives_zero_disc_grads():
    x, xs, adjs = tiny_problem()
    p = tiny_params()
    cfg = tiny_cfg(use_adversarial=False)
    with ad.Tape() as tape:
        res = model.joint_forward(x, xs, adjs, p, cfg)
        grads = tape.backward(res.loss, list(p.discriminators.values()))
    assert res.adversarial == 0.0
    for g in grads:
        assert not g.any()
    assert res.loss.item() == pytest.approx(math.log(2.0) * res.hybrid, abs=1e-12)


def test_joint_forward_attention_off_matches_zeroed_queries():
    x, xs, adjs = tiny_problem()
    p = tiny_params()
    for per_kind in p.queries:
        for q in per_kind.values():
            q.data[:] = 0.0
    with_attention = model.joint_forward(x, xs, adjs, p, tiny_cfg())
    without = model.joint_forward(x, xs, adjs, p, tiny_cfg(use_attention=False))
    assert with_attention.loss.item() == pytest.approx(without.loss.item(), abs=1e-9)


def test_init_builds_only_the_tensors_the_config_trains():
    def names(**switches):
        return set(tiny_params(cfg=tiny_cfg(**switches)).named_tensors())

    full = names()
    queries = {n for n in full if n.startswith("attention/")}
    discriminators = {n for n in full if n.startswith("discriminator/")}
    assert len(queries) == 2 * 3 and len(discriminators) == 3
    assert names(use_attention=False) == full - queries
    assert names(use_adversarial=False) == full - discriminators
    assert names(use_attention=False, use_adversarial=False) == \
        full - queries - discriminators
    assert names(two_stage_summary=False) == names(fresh_corruption=False) == full
    # the queries are drawn before the discriminators: dropping the last
    # draws keeps every other tensor's bytes
    kept = tiny_params(cfg=tiny_cfg(use_adversarial=False)).named_tensors()
    for name, t in tiny_params().named_tensors().items():
        if name in kept:
            assert t.data.tobytes() == kept[name].data.tobytes(), name


def test_joint_forward_plain_summary_mode():
    x, xs, adjs = tiny_problem()
    cfg = tiny_cfg(two_stage_summary=False)
    p = tiny_params(cfg=cfg)
    res = model.joint_forward(x, xs, adjs, p, cfg)
    assert np.isfinite(res.loss.item())
    assert res.histograms == {}


def test_joint_forward_frozen_histograms_change_nothing_at_base_point():
    x, xs, adjs = tiny_problem()

    def run(frozen):
        p = tiny_params(seed=21)
        with ad.Tape() as tape:
            res = model.joint_forward(x, xs, adjs, p, tiny_cfg(),
                                      frozen_histograms=frozen)
            named = p.named_tensors()
            grads = dict(zip(named, tape.backward(res.loss, list(named.values()))))
        return res, grads

    base, base_grads = run(None)
    frozen, frozen_grads = run(dict(base.histograms))
    assert base.loss.item() == frozen.loss.item()
    assert base_grads.keys() == frozen_grads.keys()
    for k in base_grads:
        assert base_grads[k].tobytes() == frozen_grads[k].tobytes()


def test_joint_forward_tape_is_fused():
    # default shape: 3 relations, 3 GCN layers, 4 heads; both views run
    # stacked through 9 GCN records and 1 attention record. The other 70:
    # 8 row views, 9 summary, 39 adversarial, 4 target, 7 hybrid, 3 joint.
    n, d = 64, 32
    x, xs, adjs = tiny_problem(n=n, f=8)
    cfg = tiny_cfg(embed_dim=d, gcn_layers=3, bins=16, heads=4)
    p = tiny_params(n_features=8, cfg=cfg)
    with ad.Tape() as tape:
        model.joint_forward(x, xs, adjs, p, cfg)
    assert len(tape) == 80
    # distinct buffers of the recorded outputs (a row view holds none of its
    # own): the ten stacked 2N x D products, five N x D loss temporaries and
    # the small rest
    buffers = {}
    for out, _, _ in tape._records:
        base = out.data if out.data.base is None else out.data.base
        buffers[id(base)] = base.nbytes
    stacked, per_view = 2 * n * d * 8, n * d * 8
    assert sum(buffers.values()) <= 10 * stacked + 5 * per_view + 16 * 1024


def _tape_bytes_in_stacks(n=64, d=32):
    """(bytes the tape holds after ``joint_forward``, backward's peak above
    that), traced by tracemalloc, in 2N x D stacks, at the fused test's
    shape."""
    x, xs, adjs = tiny_problem(n=n, f=8)
    cfg = tiny_cfg(embed_dim=d, gcn_layers=3, bins=16, heads=4)
    p = tiny_params(n_features=8, cfg=cfg)
    wrt = list(p.named_tensors().values())
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with ad.Tape() as tape:
            res = model.joint_forward(x, xs, adjs, p, cfg)
            held = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            tape.backward(res.loss, wrt)
            peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    stack = 2 * n * d * 8
    return held / stack, (peak - held) / stack


def test_joint_forward_tape_holds_outputs_not_square_layer_inputs():
    # ten stacked outputs, five N x D loss temporaries, layer 0's A X and
    # the small rest come to about 16 stacks; keeping A H for the square
    # layers 1-2 as well, as (A H) W does, came to about 22
    held, _ = _tape_bytes_in_stacks()
    assert held < 19.0


def test_backward_peak_stays_small_above_the_tape():
    # released records and in-place row-slice adjoints: about 4.3 stacks
    # above what the forward pass left; a sweep that keeps every record
    # and pads each row view's adjoint to 2N x D took about 10
    _, increment = _tape_bytes_in_stacks()
    assert increment < 7.0


def test_gradcheck_instance_product_orders():
    # gradcheck's shape: 5 features, D = 4, 3 layers. Layer 0 widens the
    # constant input (2 * 4 > 5) and runs (A H) W, keeping A H beside its
    # output; layers 1-2 are square on a trainable input and run A (H W),
    # keeping only their output (and the adjacency).
    n, f, d = 6, 5, 4
    x, xs, adjs = tiny_problem(n=n, f=f)
    cfg = tiny_cfg(embed_dim=d, gcn_layers=3, heads=4)
    p = tiny_params(n_features=f, cfg=cfg)
    with ad.Tape() as tape:
        model.joint_forward(x, xs, adjs, p, cfg)
    kept = [sorted(c.cell_contents.shape for c in vjp.__closure__
                   if isinstance(c.cell_contents, np.ndarray))
            for _, _, vjp in tape._records if vjp.__qualname__.startswith("gcn_layer.")]
    layer0 = sorted([(n, n), (2 * n, d), (2 * n, f)])
    square = sorted([(n, n), (2 * n, d)])
    assert kept == [layer0, square, square] * len(gg.ALL_KINDS)


def test_encode_shape_and_determinism():
    x, xs, adjs = tiny_problem()
    p = tiny_params()
    e1 = model.encode(x, adjs, p, tiny_cfg())
    e2 = model.encode(x, adjs, p, tiny_cfg())
    assert e1.shape == (8, 3)
    assert e1.tobytes() == e2.tobytes()
    avg = model.encode(x, adjs, p, tiny_cfg(use_attention=False))
    assert avg.shape == (8, 3)


def test_gradcheck_negative_control_fails_only_the_corrupted_group():
    errors = gradient_check(corrupt_group="classifier")
    assert errors["classifier"] >= DEFAULT_TOLERANCE
    assert all(e < DEFAULT_TOLERANCE for g, e in errors.items() if g != "classifier")


def test_model_does_not_load_train_at_import():
    # the config reaches the model as an annotation only
    code = ("import sys, gutgraph.model; "
            "sys.exit('gutgraph.train' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=120).returncode == 0


def test_joint_forward_keeps_x_and_params_at_their_positions():
    # the benchmark's FLOP probe reads arguments 0 and 3 by position
    names = list(inspect.signature(model.joint_forward).parameters)
    assert names[0] == "x" and names[3] == "params"
