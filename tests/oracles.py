"""Expected values for the bundled example datasets.

Everything here was computed by hand from the raw CSV rows (and
cross-checked with throwaway brute-force scripts) before the library
was written, so these constants are independent of the code under test.
:func:`labels_of_levels` turns hand-written levels into the labels that
a ``Dendrogram`` stores.
"""

from fractions import Fraction

import numpy as np

# Condensed upper triangle of match counts over the 10-object example,
# all five features, pair order (0,1), (0,2), .., (0,9), (1,2), ..
SM_A_FULL = np.array([
    5, 4, 4, 0, 0, 1, 0, 0, 1,
    4, 4, 0, 0, 1, 0, 0, 1,
    4, 0, 0, 0, 1, 0, 0,
    0, 1, 0, 0, 0, 0,
    2, 4, 2, 3, 4,
    2, 4, 2, 2,
    2, 2, 5,
    2, 2,
    2,
], dtype=np.int64)

# Match counts over the 8 entities left after the first merge round
# ({0,1} and {6,9} fused), features A..D only. Entity order by smallest
# member: {0,1}, {2}, {3}, {4}, {5}, {6,9}, {7}, {8}.
SM_A_AFTER_FIRST_DROP = np.array([
    4, 4, 0, 0, 0, 0, 0,
    4, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0,
    2, 4, 2, 2,
    2, 4, 2,
    2, 2,
    2,
], dtype=np.int64)

# Match counts over the 4 entities after the second merge round,
# features A and B only: {0,1,2,3}, {4,6,9}, {5,7}, {8}.
SM_A_AFTER_SECOND_DROP = np.array([0, 0, 0, 2, 2, 2], dtype=np.int64)

# The same matrix after the matrix-based containment rule (the reference
# loop in matrix_loop.py) fires on the {4,6,9}/{5,7} collision: every
# full-agreement entry touching them is severed.
SM_A_SEVERED = np.zeros(6, dtype=np.int64)

# Matching-pair counts per feature over the 10 objects:
# A: 4*3 + 6*5 = 42, B likewise, C: 4*3 + 3*2 + 2*1 = 20, D likewise,
# E: 3*2 + 2*1 + 2*1 + ... = 18. Total 142.
MATCH_PAIRS_A = (42, 42, 20, 20, 18)
PGP_A = tuple(Fraction(v, 142) for v in MATCH_PAIRS_A)  # == (21,21,10,10,9)/71
PGP_A_2DP = ("0.30", "0.30", "0.14", "0.14", "0.13")

# Mismatching-pair complements to 10*9 = 90 per feature; total 308.
MISMATCH_PAIRS_A = (48, 48, 70, 70, 72)
PPP_A = tuple(Fraction(v, 308) for v in MISMATCH_PAIRS_A)

# Matching-pair counts over the 8 entities on features A..D:
# A: 3*2 + 5*4 = 26, B likewise, C: 3*2 + 2*1 + 2*1 = 10, D likewise.
MATCH_PAIRS_A_ITER1 = (26, 26, 10, 10)

# Pairs with a positive match count in SM_A_FULL.
POSITIVE_PAIRS_A = 27
# Pairs still positive once feature E's contributions are removed.
POSITIVE_PAIRS_A_WITHOUT_E = 21

# Final clustering of the 10-object example, default settings.
PARTITION_A = ((0, 1, 2, 3), (4, 6, 9), (5, 7), (8,))

# Merge structure with the containment rule off: levels shrink
# 10 -> 8 -> 4 -> 2 and the two surviving trees cover 0-3 and 4-9.
LEVEL_SIZES_A_NO_CONTAINMENT = (10, 8, 4, 2)
NEWICK_A = "(((0,1),2,3),((4,(6,9)),(5,7),8));"

# 4-object, 2-feature example: every feature value occurs twice, so all
# measures agree pair-by-pair. Condensed order (0,1), (0,2), (0,3),
# (1,2), (1,3), (2,3); tuples are (overlap, lin, goodall).
GOODALL_HALF = Fraction(5, 12)
PAIR_MEASURES_D42 = (
    (0.0, 0.0, 0.0),
    (0.5, 0.5, float(GOODALL_HALF)),
    (0.5, 0.5, float(GOODALL_HALF)),
    (0.5, 0.5, float(GOODALL_HALF)),
    (0.5, 0.5, float(GOODALL_HALF)),
    (0.0, 0.0, 0.0),
)
PPP_D42 = (Fraction(1, 2), Fraction(1, 2))

# Hand-built dendrograms whose levels repeat the level before, with their
# merges as (iteration, parent, children, members) and their Newick text.
# A level that repeats its predecessor merges nothing. Repeated after a
# merge level, on 4 objects:
REPEAT_AFTER_MERGE = (
    ((0,), (1,), (2,), (3,)),
    ((0, 2), (1,), (3,)),
    ((0, 2), (1,), (3,)),
    ((0, 1, 2), (3,)),
)
REPEAT_AFTER_MERGE_EVENTS = ((0, 4, (0, 2), (0, 2)), (2, 5, (4, 1), (0, 1, 2)))
REPEAT_AFTER_MERGE_NEWICK = "(((0,2),1),3);"
# Two repeats in a row, then a merge, then one more repeat, on 5 objects:
REPEAT_TWICE = (
    ((0,), (1,), (2,), (3,), (4,)),
    ((0, 3), (1,), (2,), (4,)),
    ((0, 3), (1,), (2,), (4,)),
    ((0, 3), (1,), (2,), (4,)),
    ((0, 3), (1, 2, 4)),
    ((0, 3), (1, 2, 4)),
)
REPEAT_TWICE_EVENTS = ((0, 5, (0, 3), (0, 3)), (3, 6, (1, 2, 4), (1, 2, 4)))
REPEAT_TWICE_NEWICK = "((0,3),(1,2,4));"


def labels_of_levels(levels, n_leaves: int) -> np.ndarray:
    """Entity index of each object at each level, from each level's member
    tuples in entity order; every level must hold every object once."""
    labels = np.full((len(levels), n_leaves), -1, dtype=np.intp)
    for row, level in zip(labels, levels):
        for idx, members in enumerate(level):
            row[list(members)] = idx
    covered = sum(len(members) for level in levels for members in level)
    assert (labels >= 0).all() and covered == labels.size, "a level does not cover every object once"
    return labels
