from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mbclust import ContingencyTable, contingency, misclassified, purity, run


def test_contingency_counts():
    partition = ((0, 1), (2, 3, 4),)
    labels = ["x", "x", "x", "y", "y"]
    table = contingency(partition, labels)
    assert table.label_names == ("x", "y")
    assert table.counts.shape == (2, len(partition))  # one column per cluster, in partition order
    assert np.array_equal(table.counts, [[2, 1], [0, 2]])
    assert table.n == 5
    assert list(table.counts.sum(axis=1)) == [3, 2]
    assert list(table.counts.sum(axis=0)) == [2, 3]
    assert table.counts[table.label_names.index("x"), 1] == 1  # column 1 is the partition's second cluster


def test_contingency_label_order_is_first_appearance():
    table = contingency(((0,), (1,), (2,)), ["late", "early", "late"])
    assert table.label_names == ("late", "early")


def test_contingency_coverage_validation():
    labels = ["x", "y", "y"]
    with pytest.raises(ValueError, match="more than one"):
        contingency(((0, 1), (1, 2)), labels)
    with pytest.raises(ValueError, match="misses"):
        contingency(((0, 1),), labels)
    with pytest.raises(ValueError, match="outside"):
        contingency(((0, 1, 2, 3),), labels)
    with pytest.raises(ValueError, match="must be integers"):  # a cast would count 0.5 as object 0
        contingency(((0.5, 1), (2,)), labels)
    with pytest.raises(ValueError, match=f"object index {2**63} outside"):  # numpy types it float64 among ints
        contingency(((0, 1, 2), (2**63,)), labels)


@st.composite
def labelled_partitions(draw):
    """Labels drawn with repeats and a partition of their objects, listed in
    a random order, into clusters of which some may be empty."""
    labels = draw(st.lists(st.sampled_from(["x", "y", "x y", "", "10"]), max_size=30))
    n_clusters = draw(st.integers(0 if not labels else 1, 6))
    cluster_of = draw(st.lists(st.integers(0, max(n_clusters - 1, 0)), min_size=len(labels), max_size=len(labels)))
    partition = [[] for _ in range(n_clusters)]
    for m in draw(st.permutations(range(len(labels)))):
        partition[cluster_of[m]].append(m)
    return tuple(map(tuple, partition)), labels


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=labelled_partitions())
@example(case=((), []))
def test_contingency_equals_a_brute_force_count(case):
    partition, labels = case
    names = []
    for label in labels:
        if label not in names:
            names.append(label)
    count = Counter((labels[m], col) for col, members in enumerate(partition) for m in members)
    table = contingency(partition, labels)
    assert table.label_names == tuple(names)
    assert table.counts.shape == (len(names), len(partition))
    assert table.counts.tolist() == [[count[name, col] for col in range(len(partition))] for name in names]
    assert not table.counts.flags.writeable
    assert table.n == len(labels)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=labelled_partitions(), fault=st.sampled_from(["outside", "more than one", "misses"]), data=st.data())
def test_contingency_rejects_a_partition_that_does_not_cover_each_object_once(case, fault, data):
    partition, labels = case
    n = len(labels)
    assume(n or fault == "outside")
    clusters = [list(members) for members in partition] or [[]]
    target = data.draw(st.sampled_from(clusters))
    if fault == "outside":
        target.append(data.draw(st.integers(n, n + 3) | st.integers(-3, -1) | st.just(2**70)))
    elif fault == "more than one":
        target.append(data.draw(st.integers(0, n - 1)))
    else:
        owner = data.draw(st.sampled_from([members for members in clusters if members]))
        owner.remove(data.draw(st.sampled_from(owner)))
    with pytest.raises(ValueError, match=fault):
        contingency(tuple(map(tuple, clusters)), labels)


def test_purity_and_misclassified():
    table = contingency(((0, 1), (2, 3, 4)), ["x", "x", "x", "y", "y"])
    assert purity(table) == pytest.approx(4 / 5)
    assert misclassified(table) == 1


def test_purity_empty_table_rejected():
    empty = ContingencyTable(label_names=(), counts=np.zeros((0, 0), dtype=np.int64))
    with pytest.raises(ValueError):
        purity(empty)


def test_clustering_recovers_label_groups(dataset_a_labeled):
    result = run(dataset_a_labeled)
    table = contingency(result.partition, dataset_a_labeled.labels)
    assert purity(table) == 1.0
    assert misclassified(table) == 0
