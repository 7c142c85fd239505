import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gutgraph import graph as gg


# ---------------------------------------------------------------------------
# distances, hand-checked values


def _bray_curtis(m, n):
    return np.abs(m - n).sum(axis=-1) / np.add(m, n).sum(axis=-1)


def _euclidean(m, n):
    d = m - n
    return np.sqrt((d * d).sum(axis=-1))


def _canberra(m, n):
    num = np.abs(m - n)
    den = np.abs(m) + np.abs(n)
    terms = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return terms.sum(axis=-1)


# one formula per metric, each over one pair of profiles: the per-pair
# oracle whose bits every entry of the one-pass matrices must have
PAIR_FORMULAS = {
    gg.DistanceKind.BRAY_CURTIS: _bray_curtis,
    gg.DistanceKind.EUCLIDEAN: _euclidean,
    gg.DistanceKind.CANBERRA: _canberra,
}


def pair_distances(m, n) -> dict:
    """Each metric's distance between profiles ``m`` and ``n``, read off
    ``relation_distances`` over the two-sample table."""
    d = gg.relation_distances(np.array([m, n], dtype=np.float64))
    return {kind: d[kind][0, 1] for kind in gg.ALL_KINDS}


def test_bray_curtis_values():
    def bray_curtis(m, n):
        return pair_distances(m, n)[gg.DistanceKind.BRAY_CURTIS]

    assert bray_curtis([1.0, 2.0], [3.0, 4.0]) == pytest.approx(0.4)
    assert bray_curtis([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert bray_curtis([0.2, 0.8], [0.2, 0.8]) == 0.0
    # disjoint profiles: summing m and n apart rounded the denominator
    # below the numerator, giving 1.0000000000000002
    m, n = [15.0, 0.0, 49.72136905], [0.0, 1.40319754, 0.0]
    assert bray_curtis(m, n) == bray_curtis(n, m) == 1.0


def test_bray_curtis_two_zero_profiles_error():
    with pytest.raises(gg.GraphBuildError, match="all-zero"):
        gg.relation_distances(np.zeros((2, 3)))


def test_euclidean_values():
    assert pair_distances([0.0, 0.0], [3.0, 4.0])[gg.DistanceKind.EUCLIDEAN] == 5.0
    assert pair_distances([0.0], [2.0])[gg.DistanceKind.EUCLIDEAN] == 2.0


def test_canberra_values():
    assert pair_distances([1.0, 0.0], [0.0, 1.0])[gg.DistanceKind.CANBERRA] == 2.0
    # 0/0 terms drop out instead of poisoning the sum
    assert pair_distances([0.0, 1.0], [0.0, 3.0])[gg.DistanceKind.CANBERRA] == 0.5
    assert pair_distances([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])[gg.DistanceKind.CANBERRA] == 0.0


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_canberra_has_the_bits_of_the_old_formula(data):
    # |m - n| / (|m| + |n|) with 0/0 terms 0, over tables with exact
    # zeros, -0.0 and the smallest subnormal, where Canberra's
    # denominator m + n and its 0/0 terms must keep the bits of the
    # formula written with absolute values
    f = data.draw(st.integers(1, 12))
    rows = data.draw(st.integers(2, 6))
    elems = st.sampled_from([0.0, -0.0, 5e-324]) | st.floats(0, 50)
    x = data.draw(hnp.arrays(np.float64, (rows, f), elements=elems))
    assume(np.count_nonzero(~x.any(axis=1)) < 2)  # Bray-Curtis needs it
    d = gg.relation_distances(x)[gg.DistanceKind.CANBERRA]
    for i in range(rows):
        for j in range(i + 1, rows):
            assert d[i, j].tobytes() == _canberra(x[i], x[j]).tobytes(), (i, j)


nonneg_vectors = hnp.arrays(
    np.float64, st.integers(1, 12),
    elements=st.floats(0, 50, allow_nan=False, allow_infinity=False))


@given(x=nonneg_vectors)
@settings(max_examples=50, deadline=None)
def test_metric_self_distance_zero(x):
    assume(x.sum() > 0)  # Bray-Curtis refuses two all-zero profiles
    assert list(pair_distances(x, x).values()) == [0.0, 0.0, 0.0]


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_metric_symmetry_and_bounds(data):
    n = data.draw(st.integers(1, 10))
    elems = st.floats(0, 50, allow_nan=False, allow_infinity=False)
    x = data.draw(hnp.arrays(np.float64, n, elements=elems))
    y = data.draw(hnp.arrays(np.float64, n, elements=elems))
    assume(x.sum() + y.sum() > 0)
    forward, backward = pair_distances(x, y), pair_distances(y, x)
    assert forward == backward
    assert 0.0 <= forward[gg.DistanceKind.CANBERRA] <= n
    assert 0.0 <= forward[gg.DistanceKind.BRAY_CURTIS] <= 1.0


def _oracle_distance(a: np.ndarray, b: np.ndarray, kind: gg.DistanceKind) -> float:
    # Deliberately different formulation from the implementation.
    if kind is gg.DistanceKind.EUCLIDEAN:
        return float(np.linalg.norm(a - b))
    if kind is gg.DistanceKind.BRAY_CURTIS:
        return float(np.linalg.norm(a - b, ord=1) / (a.sum() + b.sum()))
    total = 0.0
    for u, v in zip(a.tolist(), b.tolist()):
        den = abs(u) + abs(v)
        if den > 0:
            total += abs(u - v) / den
    return total


@pytest.mark.parametrize("kind", list(gg.DistanceKind))
def test_pairwise_matches_independent_oracle(kind):
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        f = int(rng.integers(2, 15))
        x = rng.random((n, f)) + 0.01
        d = gg.relation_distances(x)[kind]
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)
        for i in range(n):
            for j in range(i + 1, n):
                want = _oracle_distance(x[i], x[j], kind)
                rel = abs(d[i, j] - want) / max(abs(want), 1e-300)
                assert rel < 1e-12


@st.composite
def abundance_tables(draw):
    """Non-negative N x F tables: zero-inflated, up to 2000 features wide,
    with at most one all-zero sample (two make Bray-Curtis undefined)."""
    n = draw(st.integers(2, 9))
    f = draw(st.sampled_from([1, 2, 7, 60, 513, 2000]))
    zero_fraction = draw(st.sampled_from([0.0, 0.5, 0.7, 0.95]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.lognormal(sigma=2.0, size=(n, f))
    x[rng.random((n, f)) < zero_fraction] = 0.0
    x[np.arange(n), rng.integers(0, f, size=n)] += rng.random(n) + 1e-3
    if draw(st.booleans()):
        x[draw(st.integers(0, n - 1))] = 0.0
    return x


@given(x=abundance_tables())
@settings(max_examples=40, deadline=None)
def test_pairwise_entries_are_bit_identical_to_pair_kernel(x):
    # the one pass shares m - n and m + n between the metrics; every
    # entry, both triangles and the zero diagonal, has the bits of its
    # metric's formula over that one pair
    n = x.shape[0]
    distances = gg.relation_distances(x)
    assert tuple(distances) == gg.ALL_KINDS
    for kind, formula in PAIR_FORMULAS.items():
        d = distances[kind]
        assert d.shape == (n, n) and d.dtype == np.float64
        assert d.diagonal().tobytes() == np.zeros(n).tobytes()
        for i in range(n):
            for j in range(i + 1, n):
                want = np.float64(formula(x[i], x[j])).tobytes()
                assert d[i, j].tobytes() == want, (kind, i, j)
                assert d[j, i].tobytes() == want, (kind, j, i)


@given(x=abundance_tables(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_pairwise_bit_invariant_under_sample_permutation(x, data):
    p = np.array(data.draw(st.permutations(range(x.shape[0]))))
    permuted, original = gg.relation_distances(x[p]), gg.relation_distances(x)
    for kind in gg.ALL_KINDS:
        assert permuted[kind].tobytes() == original[kind][np.ix_(p, p)].tobytes()


def test_two_all_zero_profiles_name_both_samples():
    # the first pair, as the Bray-Curtis row loop met it: samples 1 and 3
    x = np.array([[0.2, 0.8], [0.0, 0.0], [0.5, 0.5], [0.0, -0.0], [0.0, 0.0]])
    want = ("samples 1 and 3 are both all-zero profiles; "
            "bray-curtis distance is undefined between them")
    for build in (gg.relation_distances, lambda v: gg.build_multigraph(v, 0.6)):
        with pytest.raises(gg.GraphBuildError) as exc:
            build(x)
        assert str(exc.value) == want


def test_one_all_zero_profile_is_at_bray_curtis_distance_one():
    x = np.array([[0.2, 0.8], [0.0, 0.0], [0.5, 0.3]])
    d = gg.relation_distances(x)[gg.DistanceKind.BRAY_CURTIS]
    assert d[1].tolist() == [1.0, 0.0, 1.0]
    assert d[:, 1].tolist() == [1.0, 0.0, 1.0]


def test_pairwise_needs_two_samples():
    with pytest.raises(gg.GraphBuildError, match="at least 2 samples"):
        gg.relation_distances(np.ones((1, 3)))


@pytest.mark.parametrize("bad", [-1e-300, -2.0, np.nan, np.inf, -np.inf])
def test_relation_distances_refuse_a_negative_or_non_finite_value(bad):
    # the one pass takes |m| + |n| as m + n, which holds on finite
    # non-negative values only
    x = np.random.default_rng(6).random((4, 3)) + 0.01
    x[2, 1] = bad
    want = f"sample 2 has value {float(bad)!r} at feature 1"
    with pytest.raises(gg.GraphBuildError, match=re.escape(want)):
        gg.relation_distances(x)
    with pytest.raises(gg.GraphBuildError, match=re.escape(want)):
        gg.build_multigraph(x, 0.6)


# ---------------------------------------------------------------------------
# relation graph construction


HAND_DISTANCES = np.array([
    [0.0, 1.0, 2.0, 3.0],
    [1.0, 0.0, 4.0, 5.0],
    [2.0, 4.0, 0.0, 6.0],
    [3.0, 5.0, 6.0, 0.0],
])


def test_build_relation_graph_hand_case():
    # off-diagonal min 1, max 6; rescaled (d-1)/5.
    # (1,2) rescales to exactly 0.6 and must be excluded (strict <).
    g = gg.build_relation_graph(HAND_DISTANCES, gg.DistanceKind.EUCLIDEAN, 0.6)
    want = np.zeros((4, 4), dtype=bool)
    for i, j in [(0, 1), (0, 2), (0, 3)]:
        want[i, j] = want[j, i] = True
    assert np.array_equal(g.adjacency, want)
    assert g.n_edges == 3


def _thresholded_by_formula(d: np.ndarray, threshold: float) -> np.ndarray:
    off = ~np.eye(d.shape[0], dtype=bool)
    off_diagonal = d[off]
    lo, hi = off_diagonal.min(), off_diagonal.max()
    return ((d - lo) / (hi - lo) < threshold) & off


@st.composite
def distance_matrices(draw):
    """(d, levels): d is symmetric with a zero diagonal, and its
    off-diagonal entries span [0, levels]. They are either the integers
    0..levels, whose rescaled values k / levels tie a threshold of
    j / levels exactly, or uniform floats."""
    n = draw(st.integers(3, 2 * gg._ROW_BLOCK + 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(2, 6))
    if draw(st.booleans()):
        d = rng.integers(0, levels + 1, size=(n, n)).astype(np.float64)
    else:
        d = rng.random((n, n)) * levels
    d = np.triu(d, k=1)
    d[0, 1], d[0, 2] = 0.0, levels
    return d + d.T, levels


@settings(max_examples=80, deadline=None)
@given(d_levels=distance_matrices(), data=st.data())
def test_build_relation_graph_has_the_bytes_of_the_whole_matrix_formula(d_levels, data):
    # the extremes over the off-diagonal mask and the row-blocked rescale
    # give the edges of rescaling the whole matrix at once, ties included
    d, levels = d_levels
    threshold = data.draw(st.integers(1, levels - 1)) / levels
    got = gg.build_relation_graph(d, gg.DistanceKind.BRAY_CURTIS, threshold)
    assert got.adjacency.tobytes() == _thresholded_by_formula(d, threshold).tobytes()


def test_build_relation_graph_allocates_no_float_matrix():
    # beyond its input: the off-diagonal mask, the boolean result (N^2
    # bytes each) and one 64-row float64 block, about 0.32 N x N float64
    # at N=960; copying the off-diagonal entries and rescaling the whole
    # matrix took 2.38
    n = 960
    d = gg.relation_distances(
        np.random.default_rng(5).random((n, 4)))[gg.DistanceKind.EUCLIDEAN]
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        gg.build_relation_graph(d, gg.DistanceKind.EUCLIDEAN, 0.6)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak / d.nbytes < 0.4


def test_threshold_extremes():
    rng = np.random.default_rng(3)
    x = rng.random((8, 5))
    d = gg.relation_distances(x)[gg.DistanceKind.EUCLIDEAN]
    near_one = gg.build_relation_graph(d, gg.DistanceKind.EUCLIDEAN, 1.0 - 1e-9)
    # everything except the single farthest pair
    assert near_one.n_edges == 8 * 7 // 2 - 1
    off = d[~np.eye(8, dtype=bool)]
    i, j = np.unravel_index(np.argmax(d), d.shape)
    assert not near_one.adjacency[i, j]
    near_zero = gg.build_relation_graph(d, gg.DistanceKind.EUCLIDEAN, 1e-9)
    # only the closest pair rescales to exactly zero
    assert near_zero.n_edges == 1
    k, l = np.unravel_index(np.argmin(np.where(np.eye(8, dtype=bool), np.inf, d)), d.shape)
    assert near_zero.adjacency[k, l]


def test_rescale_invariant_under_positive_affine_maps():
    rng = np.random.default_rng(4)
    # dyadic distances keep the affine arithmetic exact
    raw = np.round(rng.random((6, 6)) * 64) / 16.0
    d = np.triu(raw, k=1)
    d = d + d.T + np.eye(6)  # strictly positive off-diagonal
    d[np.diag_indices(6)] = 0.0
    base = gg.build_relation_graph(d, gg.DistanceKind.CANBERRA, 0.55)
    scaled = gg.build_relation_graph(d * 4.0, gg.DistanceKind.CANBERRA, 0.55)
    shifted = gg.build_relation_graph(d + 8.0 - 8.0 * np.eye(6), gg.DistanceKind.CANBERRA, 0.55)
    assert base.adjacency.tobytes() == scaled.adjacency.tobytes()
    assert base.adjacency.tobytes() == shifted.adjacency.tobytes()


def test_equal_distances_rejected():
    # distinct one-hot profiles are pairwise equidistant for all metrics
    for kind, d in gg.relation_distances(np.eye(4)).items():
        with pytest.raises(gg.GraphBuildError, match="no scale"):
            gg.build_relation_graph(d, kind, 0.6)


def test_threshold_domain():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(gg.GraphBuildError, match="threshold"):
            gg.build_relation_graph(HAND_DISTANCES, gg.DistanceKind.EUCLIDEAN, bad)


def test_relation_graph_validation():
    asym = np.zeros((3, 3), dtype=bool)
    asym[0, 1] = True
    with pytest.raises(gg.GraphBuildError, match="symmetric"):
        gg.RelationGraph(asym)
    loops = np.eye(3, dtype=bool)
    with pytest.raises(gg.GraphBuildError, match="diagonal"):
        gg.RelationGraph(loops)


# ---------------------------------------------------------------------------
# normalization


def normalized(graph: gg.RelationGraph) -> np.ndarray:
    """``graph``'s normalized adjacency in a new array."""
    return gg.normalize_adjacency(graph, np.empty(graph.adjacency.shape))


def test_normalize_two_node_edge():
    g = gg.RelationGraph(np.array([[False, True], [True, False]]))
    m = normalized(g)
    assert np.array_equal(m, np.full((2, 2), 0.5))


def test_normalize_edgeless_is_identity():
    g = gg.RelationGraph(np.zeros((3, 3), dtype=bool))
    m = normalized(g)
    assert np.array_equal(m, np.eye(3))


def test_normalize_spectral_radius_at_most_one():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        a = rng.random((n, n)) < 0.4
        a = np.triu(a, k=1)
        a = a | a.T
        g = gg.RelationGraph(a)
        m = normalized(g)
        assert np.array_equal(m, m.T)
        eig = np.linalg.eigvalsh(m)
        assert np.max(np.abs(eig)) <= 1.0 + 1e-9


def test_normalize_entry_formula():
    a = np.array([
        [0, 1, 1, 0],
        [1, 0, 0, 0],
        [1, 0, 0, 1],
        [0, 0, 1, 0],
    ], dtype=bool)
    g = gg.RelationGraph(a)
    m = normalized(g)
    deg = a.sum(axis=1) + 1.0
    assert m[0, 1] == pytest.approx(1.0 / np.sqrt(deg[0] * deg[1]), abs=1e-15)
    assert m[1, 1] == pytest.approx(1.0 / deg[1], abs=1e-15)
    assert m[3, 1] == 0.0


def _normalized_by_formula(a: np.ndarray) -> np.ndarray:
    a_hat = a.astype(np.float64) + np.eye(a.shape[0])
    deg = a_hat.sum(axis=1)
    return a_hat / np.sqrt(np.outer(deg, deg))


@st.composite
def symmetric_adjacencies(draw):
    n = draw(st.integers(1, 3 * gg._ROW_BLOCK + 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.triu(rng.random((n, n)) < draw(st.floats(0.0, 1.0)), k=1)
    return a | a.T


@settings(max_examples=60, deadline=None)
@given(a=symmetric_adjacencies())
def test_normalize_has_the_bytes_of_the_outer_product_formula(a):
    g = gg.RelationGraph(a)
    assert normalized(g).tobytes() == _normalized_by_formula(a).tobytes()


@settings(max_examples=60, deadline=None)
@given(a=symmetric_adjacencies())
def test_normalize_is_bitwise_symmetric(a):
    # gcn_stack's VJP multiplies by A where it means A^T: entry (i, j)
    # divides by sqrt(deg_i * deg_j), and that product commutes
    m = normalized(gg.RelationGraph(a))
    assert m.tobytes() == np.ascontiguousarray(m.T).tobytes()


def test_normalize_allocates_about_one_matrix():
    # the result and one row block of sqrt(deg_i deg_j): about 1.09 N x N
    # float64 arrays at N=960 (1.15 when each block was a new array, so
    # two were alive at once); astype, the + eye temporary, np.outer and
    # its sqrt took 3.0
    n = 960
    rng = np.random.default_rng(3)
    a = np.triu(rng.random((n, n)) < 0.3, k=1)
    g = gg.RelationGraph(a | a.T)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        m = normalized(g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak / m.nbytes < 1.1


# ---------------------------------------------------------------------------
# corruption


def test_shuffle_preserves_row_multiset_and_inverts():
    rng = np.random.default_rng(0)
    x = rng.random((9, 4))
    shuffled, perm = gg.shuffle_features(x, seed=5)
    assert np.array_equal(np.sort(shuffled, axis=0), np.sort(x, axis=0))
    assert np.array_equal(shuffled[np.argsort(perm)], x)
    assert not np.array_equal(perm, np.arange(9))


def test_shuffle_never_identity_for_small_n():
    for seed in range(50):
        _, perm = gg.shuffle_features(np.arange(4.0).reshape(2, 2), seed)
        assert not np.array_equal(perm, np.arange(2))


def test_shuffle_single_row_is_identity():
    x = np.array([[1.0, 2.0]])
    shuffled, perm = gg.shuffle_features(x, seed=0)
    assert np.array_equal(shuffled, x)
    assert perm.tolist() == [0]


def test_shuffle_deterministic():
    x = np.random.default_rng(1).random((6, 3))
    _, p1 = gg.shuffle_features(x, seed=42)
    _, p2 = gg.shuffle_features(x, seed=42)
    assert np.array_equal(p1, p2)


# ---------------------------------------------------------------------------
# multigraph


def test_build_multigraph():
    rng = np.random.default_rng(2)
    x = rng.random((10, 6)) + 0.01
    mg = gg.build_multigraph(x, threshold=0.6)
    assert tuple(mg.graphs) == gg.ALL_KINDS
    for kind, d in gg.relation_distances(x).items():
        graph = gg.build_relation_graph(d, kind, 0.6)
        assert graph.adjacency.shape == (10, 10)
        # the same bits as normalizing the relation graph built on its own
        assert (mg.normalized(kind).tobytes()
                == normalized(graph).tobytes())


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 2 * gg._ROW_BLOCK + 5), seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(gg.ALL_KINDS), max_size=8))
def test_normalized_has_the_bytes_of_normalize_adjacency(n, seed, kinds):
    # whatever the buffer held before, each call returns the bytes of
    # normalizing that relation on its own, read-only
    mg = gg.build_multigraph(np.random.default_rng(seed).random((n, 5)) + 0.01, 0.6)
    for kind in kinds:
        m = mg.normalized(kind)
        assert m.tobytes() == normalized(mg.graphs[kind]).tobytes()
        assert not m.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 2.0


def test_multigraph_holds_one_normalized_matrix():
    # the features, the three boolean graphs (N^2 bytes each) and one
    # shared float64 N x N buffer, however many kinds were normalized;
    # three float64 normalized adjacencies took 24 N^2 bytes
    n = 300
    x = np.random.default_rng(3).random((n, 5)) + 0.01
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mg = gg.build_multigraph(x, 0.6)
        for kind in gg.ALL_KINDS:
            mg.normalized(kind)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert set(vars(mg)) == {"features", "graphs", "_buffer", "_held"}
    assert all(g.adjacency.dtype == bool for g in mg.graphs.values())
    assert held <= 8 * n * n + 3 * n * n + mg.features.nbytes + 64 * 1024


def test_corruption_leaves_multigraph_unchanged():
    x = np.random.default_rng(9).random((7, 4)) + 0.01
    mg = gg.build_multigraph(x, 0.6)
    # adjacency is a function of the ORIGINAL features only
    before = ({k: mg.normalized(k).tobytes() for k in gg.ALL_KINDS},
              mg.features.tobytes())
    shuffled, _ = gg.shuffle_features(mg.features, 1)
    shuffled[:] = 0.0
    after = ({k: mg.normalized(k).tobytes() for k in gg.ALL_KINDS},
             mg.features.tobytes())
    assert before == after


def test_multigraph_validation():
    x = np.random.default_rng(9).random((5, 3)) + 0.01
    mg = gg.build_multigraph(x, 0.6)
    with pytest.raises(gg.GraphBuildError, match="5 nodes for 4 samples"):
        gg.MultiGraph(x[:4], mg.graphs)


def test_multigraph_refuses_a_missing_or_extra_relation():
    x = np.random.default_rng(9).random((5, 3)) + 0.01
    graphs = gg.build_multigraph(x, 0.6).graphs
    missing = {k: g for k, g in graphs.items() if k is not gg.DistanceKind.CANBERRA}
    with pytest.raises(gg.GraphBuildError, match="relations"):
        gg.MultiGraph(x, missing)
    with pytest.raises(gg.GraphBuildError, match="relations"):
        gg.MultiGraph(x, {})


def test_multigraph_refuses_graphs_of_different_sizes():
    # one relation over fewer nodes than the others and the features
    x = np.random.default_rng(9).random((5, 3)) + 0.01
    graphs = dict(gg.build_multigraph(x, 0.6).graphs)
    graphs[gg.DistanceKind.EUCLIDEAN] = gg.build_relation_graph(
        gg.relation_distances(x[:4])[gg.DistanceKind.EUCLIDEAN],
        gg.DistanceKind.EUCLIDEAN, 0.6)
    with pytest.raises(gg.GraphBuildError, match="euclidean graph has 4 nodes for 5"):
        gg.MultiGraph(x, graphs)


def test_edge_list_export():
    g = gg.build_relation_graph(HAND_DISTANCES, gg.DistanceKind.BRAY_CURTIS, 0.6)
    lines = gg.edge_list_lines(g)
    assert lines == ["0\t1", "0\t2", "0\t3"]
