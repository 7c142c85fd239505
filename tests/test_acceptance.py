"""Acceptance suite: one test per shipping criterion, each printing a
single PASS/FAIL line with the measured numbers (run with -s to see
them). Every numeric gate is checked against an oracle computed by an
independent route inside this file."""

import os
import time

import numpy as np
import pytest

import gutgraph.autodiff as ad
import gutgraph.model as gm
import gutgraph.train as gt
from gutgraph.gradcheck import DEFAULT_TOLERANCE, gradient_check
from gutgraph.graph import (ALL_KINDS, DistanceKind, build_multigraph,
                            pairwise_distances, shuffle_features)
from gutgraph.ingest import (FilterPolicy, filter_low_abundance,
                             parse_abundance_table, read_labels, synth_cohort)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def fixture_cohort():
    table, labels = synth_cohort(60, 60, 2.0, 7)
    return table.values, labels


# ---------------------------------------------------------------------------
# 1. gradient fidelity


def test_criterion_1_gradient_fidelity():
    t0 = time.perf_counter()
    errors = gradient_check(seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(errors.values())
    groups = {"encoder", "queries", "discriminator", "eta", "classifier"}
    ok = (set(errors) == groups
          and all(e < DEFAULT_TOLERANCE for e in errors.values())
          and elapsed < 60.0)
    _report(1, ok, f"max rel err {worst:.3e} over {sorted(errors)} "
            f"in {elapsed:.2f}s (tolerance {DEFAULT_TOLERANCE:g}, budget 60s)")


# ---------------------------------------------------------------------------
# 2. metric oracles


def _oracle_distance_matrix(x: np.ndarray, kind: DistanceKind) -> np.ndarray:
    """Vectorized broadcasting formulas, independent of the per-pair
    loop in the implementation."""
    a = x[:, None, :]
    b = x[None, :, :]
    if kind is DistanceKind.BRAY_CURTIS:
        out = np.abs(a - b).sum(axis=2) / (a + b).sum(axis=2)
    elif kind is DistanceKind.EUCLIDEAN:
        out = np.sqrt(((a - b) ** 2).sum(axis=2))
    else:
        num = np.abs(a - b)
        den = np.abs(a) + np.abs(b)
        with np.errstate(invalid="ignore", divide="ignore"):
            terms = np.where(den == 0.0, 0.0, num / den)
        out = terms.sum(axis=2)
    np.fill_diagonal(out, 0.0)
    return out


def _oracle_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_criterion_2_metric_oracles():
    rng = np.random.default_rng(202)
    worst_dist = 0.0
    for trial in range(50):
        n = int(rng.integers(3, 16))
        f = int(rng.integers(2, 25))
        x = rng.uniform(0.0, 1.0, size=(n, f))
        if trial % 3 == 0:
            x[rng.uniform(size=x.shape) < 0.3] = 0.0
            x[:, 0] += 0.01  # keep every row nonzero somewhere
        for kind in ALL_KINDS:
            got = pairwise_distances(x, kind)
            want = _oracle_distance_matrix(x, kind)
            worst_dist = max(worst_dist, float(np.abs(got - want).max()))
    dist_ok = worst_dist <= 1e-12

    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(3, 30))
        scores = rng.integers(0, 5, size=n) / 4.0  # coarse grid forces ties
        labels = rng.integers(0, 2, size=n)
        if np.unique(labels).size < 2:
            labels[0], labels[1] = 0, 1
        if gt.auc_score(scores, labels) != _oracle_auc(scores, labels):
            mismatches += 1
    auc_ok = mismatches == 0

    _report(2, dist_ok and auc_ok,
            f"pairwise max |diff| {worst_dist:.2e} over 150 matrices "
            f"(gate 1e-12); AUC exact-equality mismatches {mismatches}/100")


# ---------------------------------------------------------------------------
# 3. two-stage readout invariants


def test_criterion_3_readout_invariants():
    rng = np.random.default_rng(303)
    worst_sum = 0.0
    bit_failures = 0
    for _ in range(100):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 16))
        k = int(rng.integers(1, 20))
        weighting = "magnitude" if rng.integers(2) else "count"
        h = rng.normal(size=(n, d))
        q = gm.value_histogram(h, k, weighting)
        worst_sum = max(worst_sum, abs(float(q.sum()) - 1.0))
        perm = rng.permutation(n)
        h_t = ad.constant(h)
        hp_t = ad.constant(h[perm])
        if gm.node_summary(h_t).data.tobytes() \
                != gm.node_summary(hp_t).data.tobytes():
            bit_failures += 1
        if q.tobytes() != gm.value_histogram(h[perm], k, weighting).tobytes():
            bit_failures += 1
    sums_ok = worst_sum <= 1e-12
    bits_ok = bit_failures == 0

    k = 7
    uniform = gm.value_histogram(np.zeros((5, 3)), k)
    one_hot = gm.value_histogram(np.full((4, 2), 2.5), k)
    degen_ok = (uniform.tobytes() == np.full((1, k), 1.0 / k).tobytes()
                and one_hot[0, 0] == 1.0 and one_hot[0, 1:].sum() == 0.0)

    _report(3, sums_ok and bits_ok and degen_ok,
            f"histogram sum max |dev| {worst_sum:.2e} (gate 1e-12); "
            f"permutation bit failures {bit_failures}/200; "
            f"degenerates uniform={uniform[0, 0]:.6f} one_hot_bin0={one_hot[0, 0]}")


# ---------------------------------------------------------------------------
# 4. corruption contract


def test_criterion_4_corruption_contract():
    rng = np.random.default_rng(404)
    multiset_failures = 0
    adjacency_failures = 0
    identity_count = 0
    trials = 0
    while trials < 50:
        n = int(rng.integers(4, 24))
        f = int(rng.integers(3, 15))
        values = rng.uniform(0.01, 1.0, size=(n, f))
        mg = build_multigraph(values, 0.6)
        before = {k: g.adjacency.tobytes() for k, g in mg.relations.items()}
        shuffled, perm = shuffle_features(mg.features, rng)
        if np.array_equal(perm, np.arange(n)):
            identity_count += 1
        rows = sorted(map(tuple, mg.features.tolist()))
        rows_shuffled = sorted(map(tuple, shuffled.tolist()))
        if rows != rows_shuffled:
            multiset_failures += 1
        after = {k: g.adjacency.tobytes() for k, g in mg.relations.items()}
        if before != after:
            adjacency_failures += 1
        trials += 1
    ok = multiset_failures == 0 and adjacency_failures == 0 and identity_count == 0
    _report(4, ok, f"row-multiset failures {multiset_failures}/50, "
            f"adjacency changes {adjacency_failures}/50, "
            f"identity permutations {identity_count}/50")


# ---------------------------------------------------------------------------
# 5. attention contract


def test_criterion_5_attention_contract():
    rng = np.random.default_rng(505)
    worst_sum = 0.0
    worst_avg_gap = 0.0
    identity_ok = True
    for _ in range(30):
        n = int(rng.integers(2, 20))
        d = int(rng.integers(1, 8))
        heads = int(rng.integers(1, 5))
        kinds = ALL_KINDS
        embeddings = [ad.constant(rng.normal(size=(n, d))) for _ in kinds]
        queries = [{k: ad.Tensor(rng.normal(size=(d, 1))) for k in kinds}
                   for _ in range(heads)]
        _, weights = gm.attention_merge(embeddings, queries, kinds,
                                        return_weights=True)
        for w in weights:
            worst_sum = max(worst_sum,
                            float(np.abs(w.sum(axis=1) - 1.0).max()))
        zero_queries = [{k: ad.Tensor(np.zeros((d, 1))) for k in kinds}
                        for _ in range(heads)]
        merged_zero = gm.attention_merge(embeddings, zero_queries, kinds)
        averaged = gm.average_merge(embeddings)
        worst_avg_gap = max(worst_avg_gap,
                            float(np.abs(merged_zero.data - averaged.data).max()))
        single = gm.attention_merge(
            [embeddings[0]],
            [{kinds[0]: q[kinds[0]]} for q in queries],
            (kinds[0],))
        if single.data.tobytes() != embeddings[0].data.tobytes():
            identity_ok = False
    ok = worst_sum <= 1e-12 and worst_avg_gap <= 1e-12 and identity_ok
    _report(5, ok, f"weight-sum max |dev| {worst_sum:.2e}, zero-query vs "
            f"average max |diff| {worst_avg_gap:.2e} (gates 1e-12), "
            f"single-relation identity {'exact' if identity_ok else 'BROKEN'}")


# ---------------------------------------------------------------------------
# 6. learning works at desk scale


def test_criterion_6_desk_scale_learning(fixture_cohort):
    values, labels = fixture_cohort
    t0 = time.perf_counter()
    cfg = gt.TrainConfig(epochs=200, folds=5, eval_seeds=1, seed=7)
    report = gt.run_cross_validation(values, labels, cfg)
    elapsed = time.perf_counter() - t0
    acc = report.aggregate["accuracy"]["mean"]
    auc = report.aggregate["auc"]["mean"]
    trace = report.traces[0]
    loss_drops = trace[-1] < trace[0]
    ok = acc >= 0.90 and auc >= 0.92 and loss_drops and elapsed < 300.0
    _report(6, ok, f"acc {acc:.4f} (gate 0.90), auc {auc:.4f} (gate 0.92), "
            f"loss {trace[0]:.4f} -> {trace[-1]:.4f} "
            f"({'drops' if loss_drops else 'DOES NOT DROP'}), "
            f"{elapsed:.1f}s (budget 300s)")


# ---------------------------------------------------------------------------
# 7. null control


def test_criterion_7_null_control(fixture_cohort):
    values, labels = fixture_cohort
    cfg = gt.TrainConfig(epochs=200, folds=5, eval_seeds=1, seed=7)
    accs = []
    for perm_seed in (0, 1):
        permuted = np.random.default_rng(perm_seed).permutation(labels)
        report = gt.run_cross_validation(values, permuted, cfg)
        accs.append(report.aggregate["accuracy"]["mean"])
    ok = all(0.38 <= a <= 0.62 for a in accs)
    listed = ", ".join(f"{a:.4f}" for a in accs)
    _report(7, ok, f"permuted-label accuracies {listed} "
            f"{'all within' if ok else 'outside'} [0.38, 0.62]")


# ---------------------------------------------------------------------------
# 8. determinism


def test_criterion_8_determinism(fixture_cohort, tmp_path):
    values, labels = fixture_cohort
    cfg = gt.TrainConfig(embed_dim=64, epochs=30, folds=5, eval_seeds=1, seed=7)

    reports = [gt.run_cross_validation(values, labels, cfg) for _ in range(2)]
    reports_ok = gt.report_to_json(reports[0]) == gt.report_to_json(reports[1])
    traces_ok = (np.asarray(reports[0].traces[0]).tobytes()
                 == np.asarray(reports[1].traces[0]).tobytes())

    mg = build_multigraph(values, cfg.threshold)
    names = [f"taxon{j:04d}" for j in range(values.shape[1])]
    blobs = []
    for _ in range(2):
        params, trace = gt.train_unsupervised(mg, cfg)
        blobs.append(gt.checkpoint_bytes(params, cfg, trace, names))
    ckpt_ok = blobs[0] == blobs[1]

    path = str(tmp_path / "model.ckpt")
    params, trace = gt.train_unsupervised(mg, cfg)
    gt.save_checkpoint(path, params, cfg, trace, names)
    restored, rcfg = gt.params_from_checkpoint(gt.load_checkpoint(path))
    direct = gt.evaluate_with_params(values, labels, params, cfg)
    reloaded = gt.evaluate_with_params(values, labels, restored, rcfg)
    roundtrip_ok = gt.report_to_json(direct) == gt.report_to_json(reloaded)

    ok = reports_ok and traces_ok and ckpt_ok and roundtrip_ok
    _report(8, ok, f"reports byte-identical: {reports_ok}, traces: {traces_ok}, "
            f"checkpoints: {ckpt_ok}, save/load/evaluate bit-exact: {roundtrip_ok}")


# ---------------------------------------------------------------------------
# 9. ablation ordering


def test_criterion_9_ablation_ordering(fixture_cohort):
    values, labels = fixture_cohort
    variants = {
        "full": {},
        "no_attention": {"use_attention": False},
        "no_two_stage_summary": {"two_stage_summary": False},
        "no_adversarial": {"use_adversarial": False},
    }
    accs = {}
    for name, overrides in variants.items():
        cfg = gt.TrainConfig(embed_dim=64, epochs=120, folds=5, eval_seeds=5,
                             seed=7, **overrides)
        report = gt.run_cross_validation(values, labels, cfg)
        accs[name] = report.aggregate["accuracy"]["mean"]
    full = accs.pop("full")
    ok = all(full >= acc - 0.02 for acc in accs.values())
    detail = ", ".join(f"{k} {v:.4f}" for k, v in accs.items())
    _report(9, ok, f"full {full:.4f} vs {detail} over 5 seeds "
            f"(gate: full >= each - 0.02)")


# ---------------------------------------------------------------------------
# 10. optional external-cohort gate


_TABLE_ENV = "GUTGRAPH_CIRRHOSIS_TABLE"
_LABELS_ENV = "GUTGRAPH_CIRRHOSIS_LABELS"


@pytest.mark.skipif(
    not (os.environ.get(_TABLE_ENV) and os.environ.get(_LABELS_ENV)),
    reason=f"external cohort not supplied; set {_TABLE_ENV} and {_LABELS_ENV} "
           "to run this informational gate")
def test_criterion_10_external_cohort_gate():
    with open(os.environ[_TABLE_ENV], encoding="utf-8") as fh:
        table = parse_abundance_table(fh)
    with open(os.environ[_LABELS_ENV], encoding="utf-8") as fh:
        labels = read_labels(fh, table.sample_ids)
    filtered = filter_low_abundance(table, FilterPolicy())
    cfg = gt.TrainConfig()  # full protocol: 5 folds x 5 seeds
    report = gt.run_cross_validation(filtered.values, labels, cfg)
    acc = report.aggregate["accuracy"]["mean"]
    auc = report.aggregate["auc"]["mean"]
    # the pipeline completing without error is the binding part; the
    # accuracy level is informational only
    _report(10, True, f"external cohort completed: acc {acc:.4f}, "
            f"auc {auc:.4f} (informational gate 0.75: "
            f"{'met' if acc >= 0.75 else 'not met'})")
