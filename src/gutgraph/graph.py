"""Sample-similarity graphs from abundance profiles.

One relation graph per distance metric, named by its key in
``MultiGraph.graphs``: pairwise distances are min-max rescaled to [0, 1]
over the off-diagonal entries and an undirected edge is drawn wherever
the rescaled distance falls strictly below a threshold. Self-loops
enter only later, inside the symmetric degree normalization (A + I).

``relation_distances`` computes all three metrics in one pass over the
samples, one row of sample pairs per step, from temporaries the metrics
share. It holds the three dense N x N float64 matrices at once: 21 MiB
at N=960. It takes finite non-negative values only, as
``ingest.AbundanceTable`` does, and raises ``GraphBuildError`` on any
other.

All-zero profiles (``preprocess`` can leave them): Bray-Curtis between
two all-zero profiles is 0/0, so ``relation_distances`` raises
``GraphBuildError`` naming both sample indices. One all-zero profile
against a non-zero one has Bray-Curtis distance 1.0, and the other two
metrics are defined for any pair.

A ``MultiGraph`` depends on the table and the threshold only, so one
build serves every training seed. The corruption permutation of the
Shuffled-Graph belongs to training (``train.train_unsupervised`` draws
it with ``shuffle_features``); the graph layer holds no seed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class GraphBuildError(ValueError):
    """Raised when a relation graph cannot be constructed."""


class DistanceKind(enum.Enum):
    BRAY_CURTIS = "bray_curtis"
    EUCLIDEAN = "euclidean"
    CANBERRA = "canberra"


# Every multigraph's relation types, in the order all loops over them follow.
ALL_KINDS: tuple[DistanceKind, ...] = (
    DistanceKind.BRAY_CURTIS, DistanceKind.EUCLIDEAN, DistanceKind.CANBERRA)


def relation_distances(values: np.ndarray) -> dict[DistanceKind, np.ndarray]:
    """Dense symmetric Bray-Curtis, Euclidean and Canberra distance
    matrices, each with an exactly-zero diagonal, keyed in ``ALL_KINDS``
    order, from one pass over the samples of a finite non-negative table.

    Row i takes sample m = i against the block n of samples i+1..N-1 and
    shares two temporaries between the metrics: t = m - n, which
    Euclidean squares and whose |t| is the numerator of Bray-Curtis and
    Canberra, and s = m + n, the Bray-Curtis denominator and, on
    non-negative values, also Canberra's |m| + |n|. Canberra's 0/0
    terms are 0 (there s is 0, so |t| is 0 too and is left as it is).
    Bray-Curtis sums |t| and s in one order, so it cannot round above 1.
    Each row lands in the upper triangle of each matrix and is copied
    into the column below the diagonal, so no N x N temporary is formed.

    Bray-Curtis is 0/0 between two all-zero profiles, so the first such
    pair (i, j) raises ``GraphBuildError`` naming both samples. One
    all-zero profile against a non-zero one has Bray-Curtis distance 1.0.
    """
    # C order makes each row's reduction run in the same order as over
    # that row alone, so every entry has the bits of its pair alone
    values = np.ascontiguousarray(values, dtype=np.float64)
    n, f = values.shape
    if n < 2:
        raise GraphBuildError(f"need at least 2 samples, got {n}")
    bad = np.argwhere(~(np.isfinite(values) & (values >= 0)))
    if bad.size:
        i, j = bad[0]
        raise GraphBuildError(
            f"sample {i} has value {float(values[i, j])!r} at feature {j}; relation "
            "distances need finite non-negative values")
    # on non-negative values sum(m + n) is 0 exactly when both profiles are
    # all zero, so the first pair with a zero denominator is the first two
    zero = np.flatnonzero(~values.any(axis=1))
    if zero.size > 1:
        raise GraphBuildError(
            f"samples {zero[0]} and {zero[1]} are both all-zero profiles; "
            "bray-curtis distance is undefined between them")
    out = {kind: np.zeros((n, n)) for kind in ALL_KINDS}
    bray_curtis, euclidean, canberra = (out[kind] for kind in ALL_KINDS)
    t_block, s_block = np.empty((n - 1, f)), np.empty((n - 1, f))
    positive = np.empty((n - 1, f), dtype=bool)
    total = np.add.reduce  # ndarray.sum's reduction, minus its dispatch
    for i in range(n - 1):
        m, rest, cols = values[i], values[i + 1:], slice(i + 1, n)
        t = np.subtract(m, rest, out=t_block[:len(rest)])
        s = np.multiply(t, t, out=s_block[:len(rest)])
        np.sqrt(total(s, axis=-1), out=euclidean[i, cols])
        np.abs(t, out=t)
        numerator = total(t, axis=-1)
        np.add(m, rest, out=s)
        np.divide(numerator, total(s, axis=-1), out=bray_curtis[i, cols])
        np.divide(t, s, out=t, where=np.greater(s, 0.0, out=positive[:len(rest)]))
        total(t, axis=-1, out=canberra[i, cols])
        for d in out.values():
            d[cols, i] = d[i, cols]
    return out


# rows per block of build_relation_graph's rescale and of
# normalize_adjacency's division: each block is a temporary of this many
# rows instead of N
_ROW_BLOCK = 64


@dataclass
class RelationGraph:
    """One undirected relation type: binary adjacency, no self-loops.
    A graph is named by its ``MultiGraph.graphs`` key, and its threshold
    is the run's ``TrainConfig.threshold``; it stores neither."""

    adjacency: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=bool)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise GraphBuildError(f"adjacency must be square, got {a.shape}")
        if not np.array_equal(a, a.T):
            raise GraphBuildError("adjacency must be symmetric")
        if np.any(np.diag(a)):
            raise GraphBuildError("adjacency must have an empty diagonal")
        self.adjacency = a

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def n_edges(self) -> int:
        return int(self.adjacency.sum()) // 2


def build_relation_graph(distances: np.ndarray, kind: DistanceKind,
                         threshold: float) -> RelationGraph:
    """Threshold min-max rescaled distances into a relation graph.

    The rescale uses only off-diagonal entries; an edge (i, j), i != j,
    exists iff (d_ij - min) / (max - min) < threshold, strictly. A
    degenerate matrix whose off-diagonal distances are all equal has no
    usable scale and is rejected, naming ``kind``. ``distances`` comes
    from ``relation_distances``, which builds it symmetric with a zero
    diagonal, so neither is checked again here.

    The extremes are reduced under an off-diagonal mask and the
    rescale runs ``_ROW_BLOCK`` rows at a time through one block
    buffer, so no N x N float temporary is formed; the bits are those
    of ``((d - lo) / (hi - lo) < threshold) & off``.
    """
    d = np.asarray(distances, dtype=np.float64)
    n = d.shape[0]
    if d.ndim != 2 or d.shape[1] != n or n < 2:
        raise GraphBuildError(f"distances must be square with n >= 2, got {d.shape}")
    if not (0.0 < threshold < 1.0):
        raise GraphBuildError(f"threshold must lie in (0, 1), got {threshold}")
    lo, hi = _off_diagonal_range(d)
    if lo == hi:
        raise GraphBuildError(
            f"all off-diagonal {kind.value} distances equal {lo}; "
            "no scale to threshold against")
    scale = hi - lo
    adjacency = np.empty((n, n), dtype=bool)
    block = np.empty((min(_ROW_BLOCK, n), n))
    for r in range(0, n, _ROW_BLOCK):
        rows = slice(r, r + _ROW_BLOCK)
        rescaled = np.subtract(d[rows], lo, out=block[:n - r])
        rescaled /= scale
        np.less(rescaled, threshold, out=adjacency[rows])
    np.fill_diagonal(adjacency, False)
    return RelationGraph(adjacency)


def _off_diagonal_range(d: np.ndarray) -> tuple[float, float]:
    """(min, max) over the off-diagonal entries of square ``d``, reduced
    under a mask instead of over a copy of them."""
    off = ~np.eye(d.shape[0], dtype=bool)
    return d.min(where=off, initial=np.inf), d.max(where=off, initial=-np.inf)


def normalize_adjacency(graph: RelationGraph, out: np.ndarray) -> np.ndarray:
    """Symmetric degree-normalized adjacency with self-loops folded in:
    D^(-1/2) (A + I) D^(-1/2), written into ``out`` (an N x N float64
    array), which it returns.

    Built in ``out`` alone: the diagonal is empty, so setting it to 1
    adds I exactly, and each entry (i, j) is divided in place by
    sqrt(deg_i * deg_j), ``_ROW_BLOCK`` rows at a time; the bits are
    those of ``(A + I) / np.sqrt(np.outer(deg, deg))``."""
    out[...] = graph.adjacency
    np.fill_diagonal(out, 1.0)
    deg = out.sum(axis=1)
    n = len(deg)
    block = np.empty((min(_ROW_BLOCK, n), n))
    for r in range(0, n, _ROW_BLOCK):
        rows = slice(r, r + _ROW_BLOCK)
        scale = np.outer(deg[rows], deg, out=block[:n - r])
        out[rows] /= np.sqrt(scale, out=scale)
    return out


def shuffle_features(values: np.ndarray, seed) -> tuple[np.ndarray, np.ndarray]:
    """Corruption step: permute feature rows across nodes.

    Returns (shuffled, permutation) with shuffled[i] = values[perm[i]].
    The identity permutation is resampled away whenever N >= 2, so the
    corrupted view never equals the original pairing.
    """
    values = np.asarray(values)
    n = values.shape[0]
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    while n >= 2 and np.array_equal(perm, np.arange(n)):
        perm = rng.permutation(n)
    return values[perm], perm


@dataclass
class MultiGraph:
    """Shared node features plus one boolean relation graph per distance
    kind in ``ALL_KINDS``, which is all that training and encoding read.

    ``normalized(kind)`` writes that relation's normalized adjacency
    into one float64 N x N buffer the multigraph shares between its
    relations, allocated on first use, and returns it as a read-only
    view. The buffer is refilled only when it holds another kind, so
    the view stays valid until the next call for another kind, and a
    caller that needs the matrix later calls again instead of keeping
    it. The buffer makes a multigraph single-threaded.
    """

    features: np.ndarray
    graphs: dict[DistanceKind, RelationGraph]
    _buffer: np.ndarray | None = field(default=None, init=False, repr=False)
    _held: DistanceKind | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        n = self.features.shape[0]
        if set(self.graphs) != set(ALL_KINDS):
            raise GraphBuildError(
                f"relations {sorted(k.value for k in self.graphs)} are not "
                f"{sorted(k.value for k in ALL_KINDS)}")
        for kind, graph in self.graphs.items():
            if graph.n_nodes != n:
                raise GraphBuildError(
                    f"{kind.value} graph has {graph.n_nodes} nodes for {n} samples")

    def normalized(self, kind: DistanceKind) -> np.ndarray:
        """``normalize_adjacency(self.graphs[kind])`` in the shared
        buffer, read-only; valid until the next call for another kind."""
        if self._held is not kind:
            if self._buffer is None:
                n = self.features.shape[0]
                self._buffer = np.empty((n, n))
            self._held = None  # a failed refill leaves no kind held
            normalize_adjacency(self.graphs[kind], out=self._buffer)
            self._held = kind
        view = self._buffer.view()
        view.flags.writeable = False
        return view


def build_multigraph(values: np.ndarray, threshold: float) -> MultiGraph:
    """One relation graph per distance kind in ``ALL_KINDS``, in that
    order, over a private float64 copy of ``values``."""
    values = np.asarray(values, dtype=np.float64)
    graphs = {kind: build_relation_graph(d, kind, threshold)
              for kind, d in relation_distances(values).items()}
    return MultiGraph(values.copy(), graphs)


def edge_list_lines(graph: RelationGraph) -> list[str]:
    """Tab-separated `i<TAB>j` lines, i < j, sorted."""
    i_idx, j_idx = np.nonzero(np.triu(graph.adjacency, k=1))
    return [f"{i}\t{j}" for i, j in zip(i_idx.tolist(), j_idx.tolist())]
