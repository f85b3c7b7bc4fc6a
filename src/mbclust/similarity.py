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

:func:`pairwise_matrix` scores every pair of a dataset at once under any
of these measures, or as raw match counts. It makes one pass over the
features, looking each feature's terms up in small tables indexed by
category or category frequency, and gives the same values, bit for
bit, as the single-pair functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dataset import as_codes
from .errors import DegenerateDataError


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
    drop = sorted({int(d) for d in dropped})
    if not drop:
        values = sm.values.copy()
        values.setflags(write=False)
        return SimilarityMatrix(size=sm.size, values=values, theta=sm.theta)
    if drop[0] < 0 or drop[-1] >= f:
        raise IndexError(f"dropped column out of range 0..{f - 1}")
    if len(drop) >= f:
        raise ValueError("must drop a proper subset of the feature columns")
    values = sm.values - build_sm(codes[:, drop]).values
    values.setflags(write=False)
    return SimilarityMatrix(size=sm.size, values=values, theta=sm.theta - len(drop))


def _lin_numerator(column: np.ndarray, counts: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """Write one feature's :func:`lin` numerator terms of every pair into ``out``.

    Returns the log relative frequency of each object's category. The
    terms use ``math.log`` and the same float expressions as :func:`lin`,
    so sums of them are bit-identical to its sums. A mismatch term
    depends on the two categories only through their frequencies, so
    its log is taken once per pair of distinct frequencies and gathered
    per object pair; the match term is then written where the codes
    agree. An ID-like feature, every object its own category, takes two
    logs.
    """
    freqs, group = np.unique(counts[column], return_inverse=True)
    p = [fc / n for fc in freqs.tolist()]
    log_p = np.array([math.log(q) for q in p])
    mismatch = np.empty((len(p), len(p)))
    for u in range(len(p)):
        for v in range(u, len(p)):
            mismatch[u, v] = mismatch[v, u] = 2.0 * math.log(p[u] + p[v])
    np.take(mismatch[group], group, axis=1, out=out, mode="clip")  # in range; "clip" skips a buffer
    log_p = log_p[group]
    np.copyto(out, (2.0 * log_p)[:, None], where=column[:, None] == column[None, :])
    return log_p


def pairwise_matrix(data, measure: str) -> np.ndarray:
    """Full square similarity matrix of a dataset under a named measure.

    ``measure`` is one of ``cm`` (integer match counts), ``overlap``,
    ``goodall`` or ``lin``. Intended for inspection and export, as by
    the ``similarity`` command; the clustering loop needs neither this
    matrix nor :class:`SimilarityMatrix`.

    One pass over the features: each feature's term for every pair is
    looked up in a small table built from the feature's category
    frequencies (by category code for goodall, by category frequency
    for lin), and added into the result in feature order. The tables
    use the float expressions of :func:`goodall` and :func:`lin`, so
    entry ``(i, j)`` equals the single-pair score of rows ``i`` and
    ``j`` bit for bit, and the same errors are raised. Besides the
    result, only lin's denominator, one temporary of the same size and
    one boolean mask are held.
    """
    if measure not in ("cm", "overlap", "goodall", "lin"):
        raise ValueError(f"unknown measure {measure!r}")
    n, m = data.n, data.m
    if measure == "goodall" and n < 2:
        raise ValueError("goodall needs at least two objects for category frequencies")
    out = np.zeros((n, n), dtype=np.float64 if measure in ("goodall", "lin") else np.int64)
    if measure == "lin":
        den = np.zeros((n, n))
        terms = np.empty((n, n))
    codes = data.codes_matrix
    for f in range(m):
        column = codes[:, f]
        if measure in ("cm", "overlap"):
            out += column[:, None] == column[None, :]
        elif measure == "goodall":
            # a match on a category held by fc objects; mismatches add nothing
            weight = np.array([1.0 - (fc * (fc - 1)) / (n * (n - 1)) for fc in data.frequencies_for(f).tolist()])
            np.add(out, weight[column][:, None], out=out, where=column[:, None] == column[None, :])
        else:
            log_p = _lin_numerator(column, data.frequencies_for(f), n, out=terms)
            out += terms
            np.add(log_p[:, None], log_p[None, :], out=terms)
            den += terms
    if measure == "overlap":
        return out / m
    if measure == "lin":
        if not den.all():
            raise DegenerateDataError("every scored category is held by all objects; similarity is undefined")
        out /= den
    elif measure == "goodall":
        out /= m
    return out
