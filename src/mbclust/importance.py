"""Feature importance for categorical data, kept in exact rationals.

Three rankings are provided:

* ``pgp``: a feature's share of the within-feature matching pairs. High
  for features whose categories recur, i.e. features that pull objects
  together.
* ``ppp``: the complementary share built from mismatching pairs. High
  for features that tell objects apart.
* ``pgp2``: a second-stage score used to break ties. It asks how much of
  the pairwise similarity structure survives when a candidate feature
  is removed, as a ratio of pairs whose match count exceeds a threshold.
  :func:`pgp2_kept_counts` scores many single-feature candidates in one
  pass over cell-budgeted blocks of entity pairs, without a match-count
  matrix; the clustering loop's tie-break and ``importance`` use it.

The clustering loop decides ties and termination on integer pair
counts, never on floats. Shares are exact :class:`fractions.Fraction`
values where reported: the trace, ``importance``, :func:`pgp`, :func:`ppp`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .dataset import as_codes, column_indices
from .errors import DegenerateDataError

# Cells (pairs of rows) per block of the pgp2_kept_counts sweep; bounds
# its two block buffers to this many entries, or one row of entities.
_SWEEP_CELLS = 1 << 18


def match_pair_counts(codes) -> np.ndarray:
    """Per-column count of ordered matching pairs, ``sum_c f(c)(f(c)-1)``.

    ``codes`` is an (e, f) integer matrix. Every unordered pair of equal
    cells is counted twice; the doubling is shared by all columns and
    cancels wherever these counts are normalized. Codes in ``0..e-1``,
    as a :class:`~mbclust.dataset.Dataset` holds them, are counted with
    ``bincount``; any other codes by sorting, since ``bincount`` sizes
    its output by the largest code.
    """
    codes = as_codes(codes)
    e, f = codes.shape
    dense = codes.min(initial=0) >= 0 and codes.max(initial=-1) < e
    out = np.zeros(f, dtype=np.int64)
    for col in range(f):
        counts = np.bincount(codes[:, col]) if dense else np.unique(codes[:, col], return_counts=True)[1]
        out[col] = int((counts * (counts - 1)).sum())
    return out


def _shares(counts) -> tuple[Fraction, ...] | None:
    """Each count over their sum, or ``None`` when the sum is zero."""
    total = sum(counts)
    return tuple(Fraction(v, total) for v in counts) if total else None


@dataclass(frozen=True)
class ImportanceReport:
    """Per-feature pair counts over one entity population.

    ``match_pairs[l]`` is the ordered matching-pair count of feature
    ``l`` and ``mismatch_pairs[l]`` its complement to ``e(e-1)``; the
    clustering loop reads only these. ``mismatch_pairs`` and the exact
    shares ``pgp`` and ``ppp`` are built on each read; a share is
    ``None`` when its counts sum to zero (no information to rank on).
    """

    feature_names: tuple[str, ...]
    n_entities: int
    match_pairs: tuple[int, ...]
    mismatch_pairs = property(lambda self: tuple(self.n_entities * (self.n_entities - 1) - v
                                                 for v in self.match_pairs))
    pgp = property(lambda self: _shares(self.match_pairs))
    ppp = property(lambda self: _shares(self.mismatch_pairs))


def importance_report(data, feature_names: Sequence[str] | None = None) -> ImportanceReport:
    """Count matching pairs per feature over a dataset or code matrix."""
    codes = as_codes(data)
    e, f = codes.shape
    if feature_names is None:
        feature_names = getattr(data, "feature_names", None) or tuple(f"f{i}" for i in range(f))
    feature_names = tuple(feature_names)
    if len(feature_names) != f:
        raise ValueError(f"expected {f} feature names, got {len(feature_names)}")
    return ImportanceReport(feature_names, e, tuple(match_pair_counts(codes).tolist()))


def pgp(data) -> tuple[Fraction, ...]:
    """Matching-pair share per feature; the shares sum to 1.

    Raises :class:`DegenerateDataError` when no feature has a repeated
    category (nothing matches, so the shares are undefined).
    """
    shares = importance_report(data).pgp
    if shares is None:
        raise DegenerateDataError("no matching pairs in any feature; matching-pair shares are undefined")
    return shares


def ppp(data) -> tuple[Fraction, ...]:
    """Mismatching-pair share per feature; the shares sum to 1.

    Raises :class:`DegenerateDataError` when every feature is constant
    (nothing mismatches, so the shares are undefined).
    """
    shares = importance_report(data).ppp
    if shares is None:
        raise DegenerateDataError("no mismatching pairs in any feature; mismatching-pair shares are undefined")
    return shares


def finite_alpha(alpha) -> float:
    """``alpha`` as a float; ``ValueError`` unless a finite real number."""
    from numbers import Real

    if isinstance(alpha, bool) or not isinstance(alpha, Real) or not math.isfinite(alpha):
        raise ValueError(f"alpha must be a finite real number, got {alpha!r}")
    return float(alpha)


def pgp2_kept_counts(data, candidates: Iterable[int], alpha: float = 0.0) -> tuple[tuple[int, ...], int]:
    """Marked pairs kept when each candidate column alone is dropped.

    Returns ``(kept, marked)``: ``marked`` counts the pairs whose match
    count exceeds ``alpha``, and ``kept[k]`` how many of them still
    exceed it once column ``candidates[k]`` is dropped.

    With ``t`` the smallest marked count, dropping column ``c`` unmarks
    exactly the pairs that match on ``t`` columns, ``c`` among them. One
    sweep over blocks of at most ``_SWEEP_CELLS`` row pairs (or one row)
    adds each column's equality into two reused block buffers, and only
    a block with a pair at exactly ``t`` computes a candidate's equality
    again to count its losses. Dropping the only column keeps no pair.
    """
    alpha = finite_alpha(alpha)
    codes = as_codes(data)
    e, f = codes.shape
    if f == 0:
        raise ValueError("profiles carry no features")
    drop = column_indices(candidates, f, "candidate column")
    # Every pair is marked below this range and none above it.
    t = min(max(math.floor(alpha) + 1, 0), f + 1)
    # Renumbering each column densely keeps equal codes equal and lets its
    # comparisons run on a narrow dtype, one column in flight at a time.
    columns = []
    for col in codes.T:
        distinct, inverse = np.unique(col, return_inverse=True)
        columns.append(inverse.astype(np.min_scalar_type(len(distinct))))
    rows = max(1, _SWEEP_CELLS // max(e, 1))
    count_buf = np.empty(min(rows, e) * e, dtype=np.min_scalar_type(f + 1))
    eq_buf = np.empty(len(count_buf), dtype=bool)
    marked, lost = 0, dict.fromkeys(set(drop) if 0 < t <= f else (), 0)
    for a in range(0, e, rows):
        # Rows a..b-1 against a..e-1. Of the symmetric left h x h corner, the
        # diagonal (self-pairs, match on all f) and lower half are no pairs.
        b = min(a + rows, e)
        h = b - a
        counts, eq = count_buf[:h * (e - a)].reshape(h, -1), eq_buf[:h * (e - a)].reshape(h, -1)

        def pairs(mask, diagonal):
            return int(np.count_nonzero(mask)) - (int(np.count_nonzero(mask[:, :h])) + h * diagonal) // 2

        counts.fill(0)
        for col in columns:
            counts += np.equal(col[a:b, None], col[None, a:], out=eq).view(np.uint8)
        marked += pairs(np.greater_equal(counts, t, out=eq), f >= t)
        if lost and pairs(np.equal(counts, t, out=eq), f == t):
            # eq marks the pairs at t; the spent counts take each candidate's equality.
            cand = count_buf.view(bool)[:h * (e - a)].reshape(h, -1)
            for c in lost:
                np.equal(columns[c][a:b, None], columns[c][None, a:], out=cand)
                lost[c] += pairs(np.logical_and(cand, eq, out=cand), f == t)
    if f == 1:
        return (0,) * len(drop), marked
    return tuple(marked - lost.get(c, 0) for c in drop), marked
