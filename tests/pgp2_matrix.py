"""Reference implementation of the pgp2 score on a match-count matrix.

These are ``pgp2`` and ``pgp2_counts`` as they stood before the library
scored tie-break candidates in one sweep without a match-count matrix:
the marked pairs are counted on ``build_sm`` before and after an
``update_sm_after_drop``. They are kept verbatim, with only their imports
adapted, so that tests can check ``pgp2_kept_counts`` and the pgp2
tie-break against them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from mbclust import DegenerateDataError, SimilarityMatrix, build_sm, update_sm_after_drop
from mbclust.dataset import as_codes


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
