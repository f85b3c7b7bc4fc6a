"""Similarity measures for categorical objects and the integer match matrix.

Pairwise similarity is kept in two forms:

* :class:`SimilarityMatrix` stores raw match counts (the number of
  features on which two entities agree) in a condensed upper triangle of
  ``int64``. Clustering works directly on these counts.
* :func:`overlap`, :func:`goodall` and :func:`lin` score a single pair of
  objects in ``[0, 1]``, weighting matches uniformly, by rarity, or by
  information content respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateDataError


def _as_codes(profiles) -> np.ndarray:
    """Accept either a code matrix or anything exposing ``codes_matrix``."""
    codes = getattr(profiles, "codes_matrix", profiles)
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 2:
        raise ValueError("profiles must form a 2-D code matrix")
    return codes


def _feature_list(x: Sequence[int], y: Sequence[int], features) -> list[int]:
    if len(x) != len(y):
        raise ValueError(f"objects disagree on length: {len(x)} vs {len(y)}")
    feats = list(range(len(x))) if features is None else [int(f) for f in features]
    if not feats:
        raise ValueError("empty feature set")
    for f in feats:
        if not 0 <= f < len(x):
            raise IndexError(f"feature index {f} out of range 0..{len(x) - 1}")
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


def condensed_index(size: int, i, j):
    """Position of pair ``(i, j)``, ``i < j``, in a condensed upper triangle.

    Rows are laid out in order ``(0,1), (0,2), .., (0,size-1), (1,2), ..``.
    Accepts scalars or equally shaped arrays.
    """
    return i * (2 * size - i - 3) // 2 + j - 1


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Condensed integer match-count matrix over ``size`` entities.

    ``values[condensed_index(size, i, j)]`` is the number of features on
    which entities ``i`` and ``j`` agree; ``theta`` is the number of
    features counted (the ceiling of every entry).
    """

    size: int
    values: np.ndarray
    theta: int

    def __post_init__(self):
        expected = self.size * (self.size - 1) // 2
        if self.values.shape != (expected,):
            raise ValueError(f"expected {expected} condensed values for size {self.size}, got {self.values.shape}")

    def value_at(self, i: int, j: int) -> int:
        """Match count of one pair; order of ``i`` and ``j`` is irrelevant."""
        if i == j:
            raise ValueError("no stored similarity of an entity with itself")
        if i > j:
            i, j = j, i
        if i < 0 or j >= self.size:
            raise IndexError(f"pair ({i}, {j}) out of range for size {self.size}")
        return int(self.values[condensed_index(self.size, i, j)])

    def to_square(self) -> np.ndarray:
        """Full symmetric matrix with zeros on the diagonal."""
        square = np.zeros((self.size, self.size), dtype=np.int64)
        ii, jj = np.triu_indices(self.size, k=1)
        square[ii, jj] = self.values
        square[jj, ii] = self.values
        return square


def build_sm(profiles, theta: int | None = None) -> SimilarityMatrix:
    """Match-count matrix over entity profiles.

    ``profiles`` is an (e, f) code matrix (or an object exposing one).
    ``theta`` defaults to the number of profile columns; pass it
    explicitly only when the caller tracks features separately.
    """
    codes = _as_codes(profiles)
    e, f = codes.shape
    if f == 0:
        raise ValueError("profiles carry no features")
    if theta is None:
        theta = f
    if e < 2:
        values = np.zeros(0, dtype=np.int64)
        values.setflags(write=False)
        return SimilarityMatrix(size=e, values=values, theta=theta)
    square = np.zeros((e, e), dtype=np.int64)
    for col in range(f):
        column = codes[:, col]
        square += column[:, None] == column[None, :]
    ii, jj = np.triu_indices(e, k=1)
    values = square[ii, jj]
    values.setflags(write=False)
    return SimilarityMatrix(size=e, values=values, theta=theta)


def update_sm_after_drop(sm: SimilarityMatrix, profiles, dropped: Iterable[int]) -> SimilarityMatrix:
    """Match-count matrix after removing feature columns.

    Subtracts, per pair, the matches contributed by the dropped columns
    of ``profiles`` (the profile matrix the ``sm`` was built from) and
    lowers ``theta`` accordingly. Rebuilding from the kept columns gives
    the same matrix; this route just avoids touching the kept ones.
    """
    codes = _as_codes(profiles)
    e, f = codes.shape
    if sm.size != e:
        raise ValueError(f"matrix covers {sm.size} entities but profiles have {e}")
    if sm.theta != f:
        raise ValueError(f"matrix counts {sm.theta} features but profiles have {f}")
    drop = sorted({int(d) for d in dropped})
    if not drop:
        values = sm.values.copy()
        values.setflags(write=False)
        return SimilarityMatrix(size=sm.size, values=values, theta=sm.theta)
    if drop[0] < 0 or drop[-1] >= f:
        raise IndexError(f"dropped column out of range 0..{f - 1}")
    if len(drop) >= f:
        raise ValueError("must drop a proper subset of the feature columns")
    values = sm.values.copy()
    if e >= 2:
        ii, jj = np.triu_indices(e, k=1)
        for col in drop:
            column = codes[:, col]
            values -= column[ii] == column[jj]
    values.setflags(write=False)
    return SimilarityMatrix(size=sm.size, values=values, theta=sm.theta - len(drop))


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
