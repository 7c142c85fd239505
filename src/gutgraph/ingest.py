"""Abundance-table ingestion, filtering, fold assignment, synthetic cohorts.

Input files are feature-major (one row per taxon, one column per sample)
delimited text, the layout used by public metagenomic abundance dumps.
In memory everything is sample-major float64.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


class TableFormatError(ValueError):
    """Structural or value problem in a delimited input file."""


@dataclass
class AbundanceTable:
    """Sample-major relative abundance matrix with row/column names.

    Values must be finite and non-negative. Values above 1 are allowed:
    some public tables are percentages, and nothing downstream assumes
    rows sum to one.
    """

    sample_ids: list[str]
    feature_names: list[str]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise TableFormatError(f"values must be 2-D, got ndim={self.values.ndim}")
        n, f = self.values.shape
        if n != len(self.sample_ids) or f != len(self.feature_names):
            raise TableFormatError(
                f"values shape {self.values.shape} does not match "
                f"{len(self.sample_ids)} samples x {len(self.feature_names)} features")
        if len(set(self.sample_ids)) != n:
            raise TableFormatError("duplicate sample ids")
        if len(set(self.feature_names)) != f:
            raise TableFormatError("duplicate feature names")
        if not np.all(np.isfinite(self.values)):
            raise TableFormatError("non-finite abundance values")
        if np.any(self.values < 0):
            raise TableFormatError("negative abundance values")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class FilterPolicy:
    """Drop a feature when at least ``host_count_threshold`` samples sit
    below ``abundance_threshold`` (strictly below)."""

    abundance_threshold: float = 0.01
    host_count_threshold: int = 120

    def __post_init__(self):
        if not 0 < self.abundance_threshold < math.inf:
            raise ValueError(f"abundance_threshold must be a positive finite "
                             f"number, got {self.abundance_threshold!r}")
        if self.host_count_threshold < 1:
            raise ValueError("host_count_threshold must be >= 1")


def _records(stream, delimiter: str):
    """(1-based record number, fields) of every non-blank record. A
    record csv cannot split, such as one a stray quote runs past the
    field size limit, raises TableFormatError naming its first line."""
    reader = csv.reader(stream, delimiter=delimiter)
    line = 1
    try:
        for rownum, row in enumerate(reader, start=1):
            line = reader.line_num + 1
            if row:
                yield rownum, row
    except csv.Error as exc:
        raise TableFormatError(f"line {line}: {exc}") from None


def quote_field(cell: str, delimiter: str) -> str:
    """``cell`` as the csv module's minimal quoting writes it: quoted,
    with quotes doubled, only if it holds the delimiter, a quote or a
    line break."""
    if delimiter in cell or '"' in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def parse_abundance_table(stream, delimiter: str) -> AbundanceTable:
    """Parse a feature-major delimited table into a sample-major one.

    Row 1 is the header: its first cell is ignored, the rest are sample
    ids. Every later row is one feature: name, then one value per
    sample. Names and ids are kept verbatim, whitespace at either end
    included, so ``serialize_abundance_table`` writes them back as read;
    one made only of whitespace is refused as blank. Errors carry 1-based
    row (and column) positions.
    """
    rows = list(_records(stream, delimiter))
    if not rows:
        raise TableFormatError("empty input: no header row")
    _, header = rows[0]
    if len(header) < 2:
        raise TableFormatError("header must name at least one sample")
    sample_ids = header[1:]
    if any(not s.strip() for s in sample_ids):
        raise TableFormatError("blank sample id in header")
    if len(set(sample_ids)) != len(sample_ids):
        dup = next(s for s in sample_ids if sample_ids.count(s) > 1)
        raise TableFormatError(f"duplicate sample id {dup!r}")
    if len(rows) == 1:
        raise TableFormatError("no feature rows")

    feature_names: list[str] = []
    matrix = np.empty((len(rows) - 1, len(sample_ids)))
    seen: set[str] = set()
    for out_row, (rownum, row) in enumerate(rows[1:]):
        if len(row) != len(header):
            raise TableFormatError(
                f"row {rownum}: expected {len(header)} fields, found {len(row)}")
        name = row[0]
        if not name.strip():
            raise TableFormatError(f"row {rownum}: blank feature name")
        if name in seen:
            raise TableFormatError(f"row {rownum}: duplicate feature {name!r}")
        seen.add(name)
        feature_names.append(name)
        for col, cell in enumerate(row[1:], start=2):
            try:
                v = float(cell)
            except ValueError:
                raise TableFormatError(
                    f"row {rownum}, column {col}: cannot parse {cell!r}") from None
            if not math.isfinite(v):
                raise TableFormatError(
                    f"row {rownum}, column {col}: non-finite value {cell!r}")
            if v < 0:
                raise TableFormatError(
                    f"row {rownum}, column {col}: negative abundance {cell!r}")
            matrix[out_row, col - 2] = v
    return AbundanceTable(sample_ids, feature_names, matrix.T.copy())


def serialize_abundance_table(table: AbundanceTable, delimiter: str = "\t") -> str:
    """Feature-major text form; parse(serialize(t)) reproduces t exactly.
    Names and ids are quoted only where csv needs it; values never are."""
    lines = [delimiter.join(quote_field(c, delimiter)
                            for c in ["feature_id"] + table.sample_ids)]
    for name, row in zip(table.feature_names, table.values.T.tolist()):
        lines.append(delimiter.join([quote_field(name, delimiter), *map(repr, row)]))
    return "\n".join(lines) + "\n"


def filter_low_abundance(table: AbundanceTable, policy: FilterPolicy) -> AbundanceTable:
    """Drop features that are rare in too many samples. Never rescales
    the surviving columns, so the operation is idempotent."""
    below = (table.values < policy.abundance_threshold).sum(axis=0)
    keep = below < policy.host_count_threshold
    if not np.any(keep):
        raise ValueError(
            f"filter removed all {table.n_features} features "
            f"(threshold {policy.abundance_threshold}, "
            f"host count {policy.host_count_threshold})")
    names = [n for n, k in zip(table.feature_names, keep) if k]
    return AbundanceTable(list(table.sample_ids), names, table.values[:, keep].copy())


def removal_report(table: AbundanceTable, policy: FilterPolicy
                   ) -> list[tuple[str, int]]:
    """(feature name, samples strictly below threshold) for each feature
    the policy would drop, in table column order."""
    below = (table.values < policy.abundance_threshold).sum(axis=0)
    return [(name, int(count))
            for name, count in zip(table.feature_names, below)
            if count >= policy.host_count_threshold]


def kfold_split(n_samples: int, k: int, seed: int) -> np.ndarray:
    """Random partition into k folds, as the int64 fold of each sample;
    the first n % k folds get the extra sample, so sizes differ by at
    most one."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > n_samples:
        raise ValueError(f"k={k} exceeds n_samples={n_samples}")
    perm = np.random.default_rng(seed).permutation(n_samples)
    fold_of_sample = np.empty(n_samples, dtype=np.int64)
    base, extra = divmod(n_samples, k)
    start = 0
    for fold in range(k):
        size = base + (1 if fold < extra else 0)
        fold_of_sample[perm[start:start + size]] = fold
        start += size
    return fold_of_sample


def read_labels(stream, sample_ids: list[str], delimiter: str) -> np.ndarray:
    """Two-column id/label file, as int64 0/1 disease labels (1 =
    diseased) reordered to match ``sample_ids``. Ids are matched
    verbatim, as ``parse_abundance_table`` reads them."""
    mapping: dict[str, int] = {}
    for rownum, row in _records(stream, delimiter):
        if len(row) != 2:
            raise TableFormatError(
                f"row {rownum}: expected 2 fields, found {len(row)}")
        sid, raw = row[0], row[1].strip()
        if sid in mapping:
            raise TableFormatError(f"row {rownum}: duplicate sample id {sid!r}")
        if raw not in ("0", "1"):
            raise TableFormatError(f"row {rownum}: label must be 0 or 1, got {raw!r}")
        mapping[sid] = int(raw)
    missing = [s for s in sample_ids if s not in mapping]
    if missing:
        raise TableFormatError(f"no label for sample id {missing[0]!r}")
    known = set(sample_ids)
    unknown = [s for s in mapping if s not in known]
    if unknown:
        raise TableFormatError(f"label for unknown sample id {unknown[0]!r}")
    return np.array([mapping[s] for s in sample_ids], dtype=np.int64)


def serialize_labels(sample_ids: list[str], labels: np.ndarray,
                     delimiter: str = "\t") -> str:
    lines = [f"{quote_field(sid, delimiter)}{delimiter}{int(y)}"
             for sid, y in zip(sample_ids, labels)]
    return "\n".join(lines) + "\n"


_WITHIN_CLASS_NOISE = 0.5
_PROFILE_SPREAD = 0.2


def synth_cohort(n_per_class: int, n_features: int, separation: float,
                 seed: int) -> tuple[AbundanceTable, np.ndarray]:
    """Two-class synthetic cohort with a tunable class gap.

    Each class has a log-space profile; the profiles sit ``separation``
    apart (Euclidean, log space) along a random direction. Per-sample
    noise is scaled so its total log-space magnitude stays near
    ``_WITHIN_CLASS_NOISE`` whatever the feature count, which makes
    ``separation`` directly control the ratio of between- to
    within-class distances: at 2.0 the classes form two clear clusters
    under any of the pairwise metrics. Rows are pushed through a
    softmax, so every sample is a valid composition (sums to 1).
    ``separation=0`` collapses both classes onto one profile, making
    the labels pure noise.
    """
    if n_per_class < 2:
        raise ValueError(f"n_per_class must be >= 2, got {n_per_class}")
    if n_features < 2:
        raise ValueError(f"n_features must be >= 2, got {n_features}")
    if not 0 <= separation < math.inf:
        raise ValueError(f"separation must be a finite number >= 0, got {separation}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    base = _PROFILE_SPREAD * rng.normal(size=n_features)
    direction = rng.normal(size=n_features)
    direction /= np.linalg.norm(direction)
    noise_scale = _WITHIN_CLASS_NOISE / np.sqrt(n_features)
    blocks = []
    for sign in (-1.0, 1.0):
        profile = base + sign * (separation / 2.0) * direction
        logits = profile + noise_scale * rng.normal(size=(n_per_class, n_features))
        z = np.exp(logits - logits.max(axis=1, keepdims=True))
        rows = z / z.sum(axis=1, keepdims=True)
        rows /= rows.sum(axis=1, keepdims=True)
        blocks.append(rows)
    values = np.vstack(blocks)
    n = 2 * n_per_class
    sample_ids = [f"sample{i:04d}" for i in range(n)]
    feature_names = [f"taxon{j:04d}" for j in range(n_features)]
    labels = np.repeat(np.array([0, 1], dtype=np.int64), n_per_class)
    return AbundanceTable(sample_ids, feature_names, values), labels
