import numpy as np
import pytest

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
