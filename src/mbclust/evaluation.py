"""External evaluation of a partition against known class labels."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import _labels_of


@dataclass(frozen=True, eq=False)
class ContingencyTable:
    """Cluster-by-class count table.

    Rows follow ``label_names`` (first-appearance order of the given
    labels); columns follow the partition's order. ``counts[r, c]`` is the
    number of objects of class ``r`` in cluster ``c``.
    """

    label_names: tuple[str, ...]
    counts: np.ndarray

    @property
    def n(self) -> int:
        """Total number of objects."""
        return int(self.counts.sum())


def contingency(partition: Sequence[Sequence[int]], labels: Sequence[str]) -> ContingencyTable:
    """Cross-tabulate a partition against per-object labels.

    ``partition`` must cover object indices ``0..len(labels)-1`` exactly
    once, the check :class:`~mbclust.core.ClusteringState` makes of its
    entities; anything else raises ``ValueError``.
    """
    labels = [str(x) for x in labels]
    cluster = _labels_of(partition, len(labels))
    row_of = {name: row for row, name in enumerate(dict.fromkeys(labels))}
    row = np.fromiter(map(row_of.__getitem__, labels), dtype=np.int64, count=len(labels))
    shape = (len(row_of), len(partition))
    counts = np.bincount(row * shape[1] + cluster, minlength=shape[0] * shape[1]).reshape(shape)
    counts.setflags(write=False)
    return ContingencyTable(label_names=tuple(row_of), counts=counts)


def purity(table: ContingencyTable) -> float:
    """Fraction of objects in their cluster's majority class."""
    if table.n == 0:
        raise ValueError("empty contingency table")
    return float(table.counts.max(axis=0).sum()) / table.n


def misclassified(table: ContingencyTable) -> int:
    """Objects outside their cluster's majority class."""
    return int(table.n - table.counts.max(axis=0).sum())
