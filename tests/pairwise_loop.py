"""Reference implementation of the square similarity matrix, one pair at a time.

This is ``pairwise_matrix`` as it stood before the library built every
matrix from per-feature lookup tables: ``goodall`` and ``lin`` are
scored by the single-pair functions for every pair ``i <= j``. It is
kept verbatim, with only its imports adapted, so that property tests
can check the library's matrices against it bit for bit.
"""

from __future__ import annotations

import numpy as np

from mbclust.similarity import goodall, lin


def pairwise_matrix(data, measure: str) -> np.ndarray:
    """Full square similarity matrix of a dataset under a named measure.

    ``measure`` is one of ``cm`` (integer match counts), ``overlap``,
    ``goodall`` or ``lin``. Intended for inspection and export; the
    clustering itself consumes :class:`SimilarityMatrix`.
    """
    n = data.n
    codes = data.codes_matrix
    if measure == "cm":
        out = np.zeros((n, n), dtype=np.int64)
        for col in range(data.m):
            column = codes[:, col]
            out += column[:, None] == column[None, :]
        return out
    if measure == "overlap":
        cm = pairwise_matrix(data, "cm")
        return cm / data.m
    if measure not in ("goodall", "lin"):
        raise ValueError(f"unknown measure {measure!r}")
    fn = goodall if measure == "goodall" else lin
    out = np.zeros((n, n), dtype=np.float64)
    rows = [tuple(int(c) for c in codes[i]) for i in range(n)]
    for i in range(n):
        out[i, i] = fn(rows[i], rows[i], data)
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = fn(rows[i], rows[j], data)
    return out
