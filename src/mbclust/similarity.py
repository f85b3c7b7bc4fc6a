"""Similarity measures for categorical objects and the integer match matrix.

Pairwise similarity is kept in two forms:

* :class:`SimilarityMatrix` stores raw match counts (the number of
  features on which two entities agree) in a condensed upper triangle of
  ``int64``, pairs in ``np.triu_indices`` order. The paper's pgp2 scores
  feature drops on these counts (see ``tests/pgp2_matrix.py``); the
  clustering loop's tie-break gets them from
  :func:`~mbclust.importance.pgp2_kept_counts` without the matrix, and
  the tests check it against this matrix.
* :func:`overlap`, :func:`goodall` and :func:`lin` score a single pair of
  objects in ``[0, 1]``, weighting matches uniformly, by rarity, or by
  information content respectively.

:func:`pairwise_blocks` scores every pair of a dataset under any of these
measures, or as raw match counts, one block of rows at a time; each
feature in order adds its terms to the block's sums, gathered from small
tables indexed by category frequency, and a block holds about
``_BLOCK_CELLS`` cells whatever n is. Its values equal, bit for bit,
those of the single-pair functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dataset import as_codes, column_indices
from .errors import DegenerateDataError


def _feature_list(x: Sequence[int], y: Sequence[int], features) -> list[int]:
    if len(x) != len(y):
        raise ValueError(f"objects disagree on length: {len(x)} vs {len(y)}")
    feats = column_indices(range(len(x)) if features is None else features, len(x))
    if not feats:
        raise ValueError("empty feature set")
    return feats


def count_matches(x: Sequence[int], y: Sequence[int], features: Iterable[int] | None = None) -> int:
    """Number of features on which two code tuples agree."""
    feats = _feature_list(x, y, features)
    return sum(1 for f in feats if x[f] == y[f])


def overlap(x: Sequence[int], y: Sequence[int], features: Iterable[int] | None = None) -> float:
    """Fraction of features on which two objects agree."""
    feats = _feature_list(x, y, features)
    return count_matches(x, y, feats) / len(feats)


def goodall(x: Sequence[int], y: Sequence[int], data, features: Iterable[int] | None = None) -> float:
    """Rarity-weighted match score.

    A match on a category held by few objects counts for more: each
    matching feature contributes ``1 - f(c)(f(c)-1) / (n(n-1))`` where
    ``f(c)`` is how many objects carry the shared category. Mismatches
    contribute nothing. The sum is averaged over the scored features.
    """
    feats = _feature_list(x, y, features)
    n = data.n
    if n < 2:
        raise ValueError("goodall needs at least two objects for category frequencies")
    total = 0.0
    for f in feats:
        if x[f] == y[f]:
            fc = data.frequency(f, x[f])
            total += 1.0 - (fc * (fc - 1)) / (n * (n - 1))
    return total / len(feats)


def lin(x: Sequence[int], y: Sequence[int], data, features: Iterable[int] | None = None) -> float:
    """Information-theoretic similarity of two objects.

    Per feature, a match on a category of frequency ``f`` scores
    ``2 log(f/n)`` and a mismatch scores ``2 log(f_x/n + f_y/n)``; the
    total is normalized by ``sum_i (log(f_x_i/n) + log(f_y_i/n))``. Both
    parts are negative, the ratio lies in ``[0, 1]``, and identical
    objects score exactly 1.
    """
    feats = _feature_list(x, y, features)
    n = data.n
    num = 0.0
    den = 0.0
    for f in feats:
        px = data.frequency(f, x[f]) / n
        py = data.frequency(f, y[f]) / n
        if x[f] == y[f]:
            num += 2.0 * math.log(px)
        else:
            num += 2.0 * math.log(px + py)
        den += math.log(px) + math.log(py)
    if den == 0.0:
        raise DegenerateDataError("every scored category is held by all objects; similarity is undefined")
    return num / den


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Condensed integer match-count matrix over ``size`` entities.

    ``values`` holds the number of features on which entities ``i < j``
    agree, pairs in the order ``(0,1), (0,2), .., (0,size-1), (1,2), ..``
    of ``np.triu_indices(size, 1)``; ``theta`` is the number of features
    counted (the ceiling of every entry).
    """

    size: int
    values: np.ndarray
    theta: int

    def __post_init__(self):
        expected = self.size * (self.size - 1) // 2
        if self.values.shape != (expected,):
            raise ValueError(f"expected {expected} condensed values for size {self.size}, got {self.values.shape}")


def build_sm(profiles) -> SimilarityMatrix:
    """Match-count matrix over entity profiles.

    ``profiles`` is an (e, f) code matrix (or an object exposing one),
    and the matrix's ``theta`` is ``f``. The condensed triangle is
    written row by row, so no (e, e) array is ever held. The clustering
    loop does not call it: its pgp2 tie-break uses
    :func:`~mbclust.importance.pgp2_kept_counts`, which the tests check
    against this matrix.
    """
    codes = as_codes(profiles)
    e, f = codes.shape
    if f == 0:
        raise ValueError("profiles carry no features")
    # Feature-major copy: each row block then sums f long vectors.
    columns = np.ascontiguousarray(codes.T)
    values = np.empty(e * (e - 1) // 2, dtype=np.int64)
    stop = 0
    for i in range(e - 1):
        start, stop = stop, stop + e - 1 - i
        np.sum(columns[:, i + 1:] == columns[:, i, None], axis=0, out=values[start:stop])
    values.setflags(write=False)
    return SimilarityMatrix(size=e, values=values, theta=f)


def update_sm_after_drop(sm: SimilarityMatrix, profiles, dropped: Iterable[int]) -> SimilarityMatrix:
    """Match-count matrix after removing feature columns.

    Subtracts, per pair, the match counts of the dropped columns of
    ``profiles`` (the profile matrix the ``sm`` was built from) and
    lowers ``theta`` accordingly. Rebuilding from the kept columns gives
    the same matrix.
    """
    codes = as_codes(profiles)
    e, f = codes.shape
    if sm.size != e:
        raise ValueError(f"matrix covers {sm.size} entities but profiles have {e}")
    if sm.theta != f:
        raise ValueError(f"matrix counts {sm.theta} features but profiles have {f}")
    drop = sorted(set(column_indices(dropped, f, "dropped column")))
    if len(drop) >= f:
        raise ValueError("must drop a proper subset of the feature columns")
    values = sm.values - (build_sm(codes[:, drop]).values if drop else 0)
    values.setflags(write=False)
    return SimilarityMatrix(size=sm.size, values=values, theta=sm.theta - len(drop))


# Cells of one block of rows of a pairwise matrix: the unit in which
# pairwise_blocks computes and the similarity command formats and writes.
_BLOCK_CELLS = 1 << 17

MEASURES = ("cm", "overlap", "goodall", "lin")


class _Feature:
    """One feature's terms of every pair, from tables indexed by category frequency.

    Terms depend on the categories only through their frequencies, so
    each ``table`` holds one term per pair of distinct frequencies, built
    with ``math.log`` and the float expressions of :func:`goodall` and
    :func:`lin`; sums of the terms are bit-identical to their sums. With
    ``g = group[category]``, the term of objects ``i`` and ``j`` is
    ``table[g[i], g[j]]``, or ``match[g[i]]`` where their categories
    agree, when ``match`` is given. Lin has two ``(table, match)``
    sources, numerator and denominator; the other measures have one,
    where a mismatch scores 0; :meth:`add_terms` adds each to its sum.
    Nothing held grows with the square of n or of the category count.
    """

    def __init__(self, column: np.ndarray, counts: np.ndarray, n: int, measure: str):
        categories, self.category = np.unique(column, return_inverse=True)
        freqs, self.group = np.unique(counts[categories], return_inverse=True)  # each category's frequency group
        if measure != "lin":
            if measure == "goodall":
                weight = np.array([1.0 - (fc * (fc - 1)) / (n * (n - 1)) for fc in freqs.tolist()])
            else:
                weight = np.ones(len(freqs), dtype=np.int64)
            self.sources = [(np.zeros((len(freqs), len(freqs)), dtype=weight.dtype), weight)]
            return
        p = [fc / n for fc in freqs.tolist()]
        log_p = np.array([math.log(q) for q in p])
        mismatch = np.empty((len(p), len(p)))
        for u in range(len(p)):
            for v in range(u, len(p)):
                mismatch[u, v] = mismatch[v, u] = 2.0 * math.log(p[u] + p[v])
        self.sources = [(mismatch, 2.0 * log_p), (log_p[:, None] + log_p[None, :], None)]

    def add_terms(self, sums: list[np.ndarray], a: int, b: int) -> None:
        """Add the terms of rows ``a <= i < b`` against every ``j`` to ``sums``, one sum per source.

        The u categories held in those rows are grouped once. Each source
        gives them their terms against every category (match terms where
        the two agree), then against every object, and each row takes the
        row of its category. As u is at most ``b - a``, nothing larger than
        one block is built, whatever the number of categories.
        """
        present, row_of = np.unique(self.category[a:b], return_inverse=True)
        groups = self.group[present]
        for total, (table, match) in zip(sums, self.sources):
            by_category = table[np.ix_(groups, self.group)]
            if match is not None:
                by_category[np.arange(len(present)), present] = match[groups]
            total += np.take(by_category, self.category, axis=1)[row_of]


def pairwise_blocks(data, measure: str):
    """The rows of the full square similarity matrix of a dataset, one new array per block, top to bottom.

    ``measure`` is one of ``cm`` (integer match counts), ``overlap``,
    ``goodall`` or ``lin``; entry ``(i, j)`` equals the single-pair score
    of rows ``i`` and ``j`` bit for bit. Each block scores rows ``a..b``
    against all n objects, about ``_BLOCK_CELLS`` cells (at least one
    row), in one sum per term source to which each feature in order adds
    its terms, so only one block and its temporaries are held. Every error
    of the measure is raised by this call, before the first block is computed.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    n, m = data.n, data.m
    if measure == "goodall" and n < 2:
        raise ValueError("goodall needs at least two objects for category frequencies")
    if measure == "lin" and all(data.frequencies_for(f).max() == n for f in range(m)):
        # then, and only then, every log is 0.0 and lin's denominator is zero for every pair
        raise DegenerateDataError("every scored category is held by all objects; similarity is undefined")
    codes = data.codes_matrix
    features = [_Feature(codes[:, f], data.frequencies_for(f), n, measure) for f in range(m)]

    def blocks():
        step = max(1, _BLOCK_CELLS // n)
        for a in range(0, n, step):
            b = min(n, a + step)
            sums = [np.zeros((b - a, n), dtype=table.dtype) for table, _ in features[0].sources]
            for feature in features:
                feature.add_terms(sums, a, b)
            if measure == "lin":
                sums[0] /= sums[1]
            yield sums[0] / m if measure in ("overlap", "goodall") else sums[0]

    return blocks()

