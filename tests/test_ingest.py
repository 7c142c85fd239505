import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gutgraph import ingest


def parse_table(text: str, delimiter: str = "\t") -> ingest.AbundanceTable:
    return ingest.parse_abundance_table(io.StringIO(text), delimiter)


def parse_labels(text: str, sample_ids: list[str], delimiter: str = "\t") -> np.ndarray:
    return ingest.read_labels(io.StringIO(text), sample_ids, delimiter)


SMALL_TABLE = (
    "id\tS1\tS2\tS3\n"
    "taxonA\t0.1\t0.2\t0.3\n"
    "taxonB\t0.9\t0.8\t0.7\n"
)


def test_parse_small_table():
    t = parse_table(SMALL_TABLE)
    assert t.sample_ids == ["S1", "S2", "S3"]
    assert t.feature_names == ["taxonA", "taxonB"]
    assert np.allclose(t.values, [[0.1, 0.9], [0.2, 0.8], [0.3, 0.7]])
    assert t.values.shape == (3, 2)


def test_parse_comma_delimiter():
    t = parse_table("x,A,B\nf,1.5,2.5\n", delimiter=",")
    assert t.values.tolist() == [[1.5], [2.5]]


def test_parse_ragged_row_reports_row_number():
    text = "id\tS1\tS2\nfA\t0.1\t0.2\nfB\t0.3\n"
    with pytest.raises(ingest.TableFormatError, match="row 3"):
        parse_table(text)


def test_parse_bad_cell_reports_row_and_column():
    text = "id\tS1\tS2\nfA\t0.1\toops\n"
    with pytest.raises(ingest.TableFormatError, match="row 2, column 3"):
        parse_table(text)


def test_parse_rejects_negative_and_nan():
    with pytest.raises(ingest.TableFormatError, match="negative"):
        parse_table("id\tS1\nfA\t-0.1\n")
    with pytest.raises(ingest.TableFormatError, match="non-finite"):
        parse_table("id\tS1\nfA\tnan\n")


def test_parse_accepts_percent_scale_values():
    # Some public abundance tables are percentages; >1 is legal.
    t = parse_table("id\tS1\nfA\t87.5\n")
    assert t.values[0, 0] == 87.5


def test_parse_duplicate_ids_rejected():
    with pytest.raises(ingest.TableFormatError, match="duplicate sample id"):
        parse_table("id\tS1\tS1\nfA\t0.1\t0.2\n")
    with pytest.raises(ingest.TableFormatError, match="duplicate feature"):
        parse_table("id\tS1\nfA\t0.1\nfA\t0.2\n")


def test_parse_empty_and_headerless():
    with pytest.raises(ingest.TableFormatError, match="empty"):
        parse_table("")
    with pytest.raises(ingest.TableFormatError, match="no feature rows"):
        parse_table("id\tS1\n")


def test_serialize_parse_round_trip_is_exact():
    rng = np.random.default_rng(5)
    t = ingest.AbundanceTable(
        [f"s{i}" for i in range(4)],
        [f"f{j}" for j in range(6)],
        rng.random((4, 6)) * 3.0,
    )
    text = ingest.serialize_abundance_table(t)
    back = parse_table(text)
    assert back.sample_ids == t.sample_ids
    assert back.feature_names == t.feature_names
    assert back.values.tobytes() == t.values.tobytes()


def _serialize_per_cell(table, delimiter="\t"):
    # the writer as it was before it formatted whole rows from tolist()
    lines = [delimiter.join(ingest.quote_field(c, delimiter)
                            for c in ["feature_id"] + table.sample_ids)]
    for j, name in enumerate(table.feature_names):
        cells = [ingest.quote_field(name, delimiter)]
        cells += [repr(float(v)) for v in table.values[:, j]]
        lines.append(delimiter.join(cells))
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(delimiter=st.sampled_from(["\t", ","]), data=st.data())
def test_serialize_has_the_bytes_of_the_per_cell_writer(delimiter, data):
    n = data.draw(st.integers(1, 5))
    f = data.draw(st.integers(1, 5))
    cells = st.sampled_from([0.0, 0.1, 1e-05, 5e-324, 1.0, 1e16, 123.456]) \
        | st.floats(0, 1e300)
    values = np.array(data.draw(st.lists(cells, min_size=n * f, max_size=n * f)),
                      dtype=np.float64).reshape(n, f)
    t = ingest.AbundanceTable([f"s{i}" for i in range(n)],
                              ["a,b" if j == 0 else f"f{j}" for j in range(f)], values)
    assert ingest.serialize_abundance_table(t, delimiter) == _serialize_per_cell(t, delimiter)


def _csv_safe_names(alphabet):
    """Distinct non-blank names that ``.strip()`` leaves unchanged."""
    return st.lists(st.text(alphabet, min_size=1, max_size=6)
                    .filter(lambda s: s.strip() == s),
                    min_size=1, max_size=5, unique=True)


@settings(max_examples=80, deadline=None)
@given(delimiter=st.sampled_from(["\t", ","]), data=st.data())
def test_round_trip_names_with_quotes_and_delimiters(delimiter, data):
    alphabet = 'ab" ,\t'
    ids = data.draw(_csv_safe_names(alphabet))
    names = data.draw(_csv_safe_names(alphabet))
    values = np.arange(len(ids) * len(names), dtype=np.float64).reshape(
        len(ids), len(names))
    t = ingest.AbundanceTable(ids, names, values)
    back = parse_table(
        ingest.serialize_abundance_table(t, delimiter), delimiter)
    assert back.sample_ids == ids
    assert back.feature_names == names
    assert back.values.tobytes() == values.tobytes()
    labels = np.arange(len(ids)) % 2
    again = parse_labels(ingest.serialize_labels(ids, labels, delimiter),
                               ids, delimiter)
    assert again.tolist() == labels.tolist()


def test_plain_names_are_not_quoted():
    t = parse_table(SMALL_TABLE)
    assert ingest.serialize_abundance_table(t) == (
        "feature_id\tS1\tS2\tS3\n"
        "taxonA\t0.1\t0.2\t0.3\n"
        "taxonB\t0.9\t0.8\t0.7\n")


def test_unsplittable_record_names_its_line():
    # a stray quote opens a field that runs past csv's field size limit
    table = "id\tS1\n" + "taxon0\t0.5\n" + '"taxon1\t0.5\n' \
        + "".join(f"taxon{i}\t0.5\n" for i in range(2, 20000))
    with pytest.raises(ingest.TableFormatError, match="^line 3: field larger"):
        parse_table(table)
    labels = '"s0\t0\n' + "".join(f"s{i}\t1\n" for i in range(1, 20000))
    with pytest.raises(ingest.TableFormatError, match="^line 1: field larger"):
        parse_labels(labels, ["s0"])


def test_filter_threshold_is_strict():
    # Feature is dropped when #(samples strictly below 0.01) >= 2.
    t = ingest.AbundanceTable(
        ["a", "b", "c"],
        ["keep_exact", "keep_one_low", "drop"],
        np.array([
            [0.01, 0.005, 0.001],
            [0.01, 0.500, 0.002],
            [0.50, 0.600, 0.900],
        ]),
    )
    policy = ingest.FilterPolicy(abundance_threshold=0.01, host_count_threshold=2)
    out = ingest.filter_low_abundance(t, policy)
    assert out.feature_names == ["keep_exact", "keep_one_low"]
    # columns survive untouched: no renormalization
    assert np.array_equal(out.values, t.values[:, :2])


def test_filter_idempotent():
    table, _ = ingest.synth_cohort(10, 30, 1.0, seed=2)
    policy = ingest.FilterPolicy(abundance_threshold=0.01, host_count_threshold=15)
    once = ingest.filter_low_abundance(table, policy)
    twice = ingest.filter_low_abundance(once, policy)
    assert once.feature_names == twice.feature_names
    assert once.values.tobytes() == twice.values.tobytes()


def test_filter_all_removed_errors():
    t = ingest.AbundanceTable(["a", "b"], ["f1"], np.array([[0.001], [0.002]]))
    with pytest.raises(ValueError, match="removed all"):
        ingest.filter_low_abundance(t, ingest.FilterPolicy(0.01, 2))


def test_removal_report_names_and_counts():
    t = ingest.AbundanceTable(
        ["a", "b", "c"],
        ["keep_exact", "keep_one_low", "drop"],
        np.array([
            [0.01, 0.005, 0.001],
            [0.01, 0.500, 0.002],
            [0.50, 0.600, 0.900],
        ]),
    )
    policy = ingest.FilterPolicy(abundance_threshold=0.01, host_count_threshold=2)
    assert ingest.removal_report(t, policy) == [("drop", 2)]
    kept = ingest.filter_low_abundance(t, policy)
    assert len(ingest.removal_report(t, policy)) \
        == t.n_features - kept.n_features


def test_kfold_sizes():
    assert np.bincount(ingest.kfold_split(10, 5, seed=0)).tolist() == [2] * 5
    assert np.bincount(ingest.kfold_split(11, 5, seed=0)).tolist() == [3, 2, 2, 2, 2]
    assert np.bincount(ingest.kfold_split(5, 5, seed=0)).tolist() == [1] * 5


def test_kfold_validation():
    with pytest.raises(ValueError):
        ingest.kfold_split(10, 1, seed=0)
    with pytest.raises(ValueError):
        ingest.kfold_split(3, 4, seed=0)


def test_kfold_deterministic_and_seed_sensitive():
    a = ingest.kfold_split(20, 4, seed=9)
    b = ingest.kfold_split(20, 4, seed=9)
    c = ingest.kfold_split(20, 4, seed=10)
    assert a.dtype == np.int64
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@given(n=st.integers(2, 60), k=st.integers(2, 10), seed=st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_kfold_is_a_partition(n, k, seed):
    if k > n:
        k = n
    fold_of_sample = ingest.kfold_split(n, k, seed)
    assert fold_of_sample.shape == (n,)
    assert set(fold_of_sample.tolist()) == set(range(k))
    sizes = np.bincount(fold_of_sample, minlength=k)
    assert sizes.max() - sizes.min() <= 1


def test_labels_round_trip_and_alignment():
    text = "s2\t1\ns0\t0\ns1\t1\n"
    labels = parse_labels(text, ["s0", "s1", "s2"])
    assert labels.dtype == np.int64
    assert labels.tolist() == [0, 1, 1]
    out = ingest.serialize_labels(["s0", "s1", "s2"], labels)
    again = parse_labels(out, ["s0", "s1", "s2"])
    assert np.array_equal(again, labels)


def test_labels_errors():
    with pytest.raises(ingest.TableFormatError, match="no label for"):
        parse_labels("s0\t0\n", ["s0", "s1"])
    with pytest.raises(ingest.TableFormatError, match="unknown sample id"):
        parse_labels("s0\t0\nsX\t1\n", ["s0"])
    with pytest.raises(ingest.TableFormatError, match="must be 0 or 1"):
        parse_labels("s0\t2\n", ["s0"])
    with pytest.raises(ingest.TableFormatError, match="duplicate"):
        parse_labels("s0\t0\ns0\t1\n", ["s0"])
    with pytest.raises(ingest.TableFormatError, match="expected 2 fields"):
        parse_labels("s0\t0\textra\n", ["s0"])


def test_synth_cohort_shapes_and_composition():
    table, labels = ingest.synth_cohort(6, 20, 2.0, seed=7)
    assert table.values.shape == (12, 20)
    assert labels.dtype == np.int64
    assert labels.tolist() == [0] * 6 + [1] * 6
    sums = table.values.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) < 1e-12)
    assert np.all(table.values > 0)


def test_synth_cohort_deterministic():
    a, _ = ingest.synth_cohort(5, 10, 1.5, seed=3)
    b, _ = ingest.synth_cohort(5, 10, 1.5, seed=3)
    c, _ = ingest.synth_cohort(5, 10, 1.5, seed=4)
    assert a.values.tobytes() == b.values.tobytes()
    assert a.values.tobytes() != c.values.tobytes()


def test_synth_separation_zero_shares_one_profile():
    table, labels = ingest.synth_cohort(200, 12, 0.0, seed=1)
    m0 = table.values[labels == 0].mean(axis=0)
    m1 = table.values[labels == 1].mean(axis=0)
    gap_null = np.abs(m0 - m1).max()
    table2, labels2 = ingest.synth_cohort(200, 12, 2.0, seed=1)
    s0 = table2.values[labels2 == 0].mean(axis=0)
    s1 = table2.values[labels2 == 1].mean(axis=0)
    gap_sep = np.abs(s0 - s1).max()
    assert gap_null < 0.01
    assert gap_sep > 5 * gap_null


def test_synth_cohort_validation():
    with pytest.raises(ValueError):
        ingest.synth_cohort(1, 10, 1.0, seed=0)
    with pytest.raises(ValueError):
        ingest.synth_cohort(5, 1, 1.0, seed=0)
    with pytest.raises(ValueError):
        ingest.synth_cohort(5, 10, -0.5, seed=0)
