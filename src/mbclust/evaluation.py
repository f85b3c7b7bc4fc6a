"""External evaluation of a partition against known class labels."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


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
    once; anything else raises ``ValueError``.
    """
    labels = [str(x) for x in labels]
    n = len(labels)
    seen: set[int] = set()
    total = 0
    for members in partition:
        for m in members:
            m = int(m)
            if not 0 <= m < n:
                raise ValueError(f"object index {m} outside 0..{n - 1}")
            if m in seen:
                raise ValueError(f"object {m} appears in more than one cluster")
            seen.add(m)
            total += 1
    if total != n:
        missing = sorted(set(range(n)) - seen)
        raise ValueError(f"partition misses objects {missing[:10]}{'...' if len(missing) > 10 else ''}")

    label_names: list[str] = []
    label_row: dict[str, int] = {}
    for lab in labels:
        if lab not in label_row:
            label_row[lab] = len(label_names)
            label_names.append(lab)

    counts = np.zeros((len(label_names), len(partition)), dtype=np.int64)
    for col, members in enumerate(partition):
        for m in members:
            counts[label_row[labels[int(m)]], col] += 1
    counts.setflags(write=False)
    return ContingencyTable(label_names=tuple(label_names), counts=counts)


def purity(table: ContingencyTable) -> float:
    """Fraction of objects in their cluster's majority class."""
    if table.n == 0:
        raise ValueError("empty contingency table")
    return float(table.counts.max(axis=0).sum()) / table.n


def misclassified(table: ContingencyTable) -> int:
    """Objects outside their cluster's majority class."""
    return int(table.n - table.counts.max(axis=0).sum())
