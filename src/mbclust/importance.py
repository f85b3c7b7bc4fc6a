"""Feature importance for categorical data, kept in exact rationals.

Three rankings are provided:

* ``pgp``: a feature's share of the within-feature matching pairs. High
  for features whose categories recur, i.e. features that pull objects
  together.
* ``ppp``: the complementary share built from mismatching pairs. High
  for features that tell objects apart.
* ``pgp2``: a second-stage score used to break ties. It asks how much of
  the pairwise similarity structure survives when a candidate feature
  set is removed, as a ratio of pairs whose match count exceeds a threshold.

All scores are :class:`fractions.Fraction` so that equality of
importances is decidable exactly; ties drive the clustering loop's
termination and must not depend on float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .dataset import as_codes
from .errors import DegenerateDataError
from .similarity import SimilarityMatrix, build_sm, update_sm_after_drop


def match_pair_counts(codes) -> np.ndarray:
    """Per-column count of ordered matching pairs, ``sum_c f(c)(f(c)-1)``.

    ``codes`` is an (e, f) integer matrix. Every unordered pair of equal
    cells is counted twice; the doubling is shared by all columns and
    cancels wherever these counts are normalized.
    """
    codes = as_codes(codes)
    out = np.zeros(codes.shape[1], dtype=np.int64)
    for col in range(codes.shape[1]):
        counts = np.bincount(codes[:, col])
        out[col] = int((counts * (counts - 1)).sum())
    return out


@dataclass(frozen=True)
class ImportanceReport:
    """Per-feature importance numbers over one entity population.

    ``match_pairs[l]`` is the ordered matching-pair count of feature
    ``l`` and ``mismatch_pairs[l]`` its complement to ``e(e-1)``.
    ``pgp`` and ``ppp`` are the normalized shares, or ``None`` when the
    corresponding denominator is zero (no information to rank on).
    """

    feature_names: tuple[str, ...]
    n_entities: int
    match_pairs: tuple[int, ...]
    mismatch_pairs: tuple[int, ...]
    pgp: tuple[Fraction, ...] | None
    ppp: tuple[Fraction, ...] | None


def importance_report(data, feature_names: Sequence[str] | None = None) -> ImportanceReport:
    """Compute both importance rankings over a dataset or code matrix."""
    codes = as_codes(data)
    e, f = codes.shape
    if feature_names is None:
        feature_names = getattr(data, "feature_names", None) or tuple(f"f{i}" for i in range(f))
    feature_names = tuple(feature_names)
    if len(feature_names) != f:
        raise ValueError(f"expected {f} feature names, got {len(feature_names)}")

    match = match_pair_counts(codes)
    mismatch = e * (e - 1) - match
    match_total = int(match.sum())
    mismatch_total = int(mismatch.sum())
    pgp_vals = tuple(Fraction(int(v), match_total) for v in match) if match_total else None
    ppp_vals = tuple(Fraction(int(v), mismatch_total) for v in mismatch) if mismatch_total else None
    return ImportanceReport(
        feature_names=feature_names,
        n_entities=e,
        match_pairs=tuple(int(v) for v in match),
        mismatch_pairs=tuple(int(v) for v in mismatch),
        pgp=pgp_vals,
        ppp=ppp_vals,
    )


def pgp(data) -> tuple[Fraction, ...]:
    """Matching-pair share per feature; the shares sum to 1.

    Raises :class:`DegenerateDataError` when no feature has a repeated
    category (nothing matches, so the shares are undefined).
    """
    report = importance_report(data)
    if report.pgp is None:
        raise DegenerateDataError("no matching pairs in any feature; matching-pair shares are undefined")
    return report.pgp


def ppp(data) -> tuple[Fraction, ...]:
    """Mismatching-pair share per feature; the shares sum to 1.

    Raises :class:`DegenerateDataError` when every feature is constant
    (nothing mismatches, so the shares are undefined).
    """
    report = importance_report(data)
    if report.ppp is None:
        raise DegenerateDataError("no mismatching pairs in any feature; mismatching-pair shares are undefined")
    return report.ppp


def pgp2_counts(data, sm: SimilarityMatrix, candidates: Iterable[int], alpha: float = 0.0) -> tuple[int, int]:
    """Marked-pair counts (after drop, before drop) behind :func:`pgp2`."""
    codes = as_codes(data)
    gim = int((sm.values > alpha).sum())
    drop = sorted({int(c) for c in candidates})
    if not drop:
        return gim, gim
    if len(drop) >= codes.shape[1]:
        # Dropping everything leaves no matches at all.
        return 0, gim
    reduced = update_sm_after_drop(sm, codes, drop)
    pim = int((reduced.values > alpha).sum())
    return pim, gim


def pgp2(data, sm: SimilarityMatrix | None = None, candidates: Iterable[int] = (), alpha: float = 0.0) -> Fraction:
    """Fraction of marked similarity pairs surviving a candidate feature drop.

    ``sm`` defaults to a fresh match-count matrix over ``data``. A pair
    is marked when its match count exceeds ``alpha``. An empty candidate
    set scores exactly 1. Raises :class:`DegenerateDataError` when no
    pair is marked even before the drop.
    """
    if sm is None:
        sm = build_sm(data)
    pim, gim = pgp2_counts(data, sm, candidates, alpha)
    if gim == 0:
        raise DegenerateDataError("no pair exceeds the influence threshold; the ratio is undefined")
    return Fraction(pim, gim)
