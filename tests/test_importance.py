from fractions import Fraction

import numpy as np
import pytest

from mbclust import (
    Dataset,
    DegenerateDataError,
    build_sm,
    importance_report,
    match_pair_counts,
    pgp,
    ppp,
)
from oracles import (
    MATCH_PAIRS_A,
    MISMATCH_PAIRS_A,
    PGP_A,
    PGP_A_2DP,
    POSITIVE_PAIRS_A,
    POSITIVE_PAIRS_A_WITHOUT_E,
    PPP_A,
    PPP_D42,
)
from pgp2_matrix import pgp2, pgp2_counts


def test_match_pair_counts(dataset_a):
    assert tuple(match_pair_counts(dataset_a.codes_matrix)) == MATCH_PAIRS_A
    assert tuple(match_pair_counts(dataset_a)) == MATCH_PAIRS_A
    assert match_pair_counts(np.zeros((0, 2), int)).tolist() == [0, 0]
    assert match_pair_counts(np.zeros((3, 0), int)).tolist() == []


# No code lies between about 1e8 and 1e12, where a count sized by the
# largest code would allocate gigabytes instead of failing.
@pytest.mark.parametrize("codes", [
    [[2**63 - 1], [2**63 - 1], [0]],
    [[2**62], [2**62], [1]],
    [[-3], [-3], [0]],
    [[-2**63, 2**62, 0], [-2**63, -1, 0], [5, 2**62, 2**63 - 1], [5, -1, 0]],
])
def test_match_pair_counts_of_raw_codes(codes):
    compact = Dataset.from_codes(codes).codes_matrix
    assert tuple(match_pair_counts(codes)) == tuple(match_pair_counts(compact))


def test_pgp_exact(dataset_a):
    values = pgp(dataset_a)
    assert values == PGP_A
    assert sum(values) == Fraction(1)
    assert values[0] == Fraction(21, 71)
    assert tuple(f"{float(v):.2f}" for v in values) == PGP_A_2DP


def test_ppp_exact(dataset_a, d42):
    values = ppp(dataset_a)
    assert values == PPP_A
    assert sum(values) == Fraction(1)
    assert ppp(d42) == PPP_D42


def test_report_fields(dataset_a):
    report = importance_report(dataset_a)
    assert report.feature_names == ("A", "B", "C", "D", "E")
    assert report.n_entities == 10
    assert report.match_pairs == MATCH_PAIRS_A
    assert report.mismatch_pairs == MISMATCH_PAIRS_A
    assert report.pgp == PGP_A and report.ppp == PPP_A


def test_report_names_for_raw_codes():
    report = importance_report(np.array([[0, 1], [0, 0]]))
    assert report.feature_names == ("f0", "f1")
    assert report.match_pairs == (2, 0)
    with pytest.raises(ValueError, match="expected 2 feature names, got 1"):
        importance_report(np.array([[0, 1], [0, 0]]), feature_names=["a"])


def test_degenerate_measures():
    constant = Dataset.from_codes([[0, 0], [0, 0]])
    with pytest.raises(DegenerateDataError):
        ppp(constant)
    assert pgp(constant) == (Fraction(1, 2), Fraction(1, 2))

    all_distinct = Dataset.from_codes([[0, 0], [1, 1], [2, 2]])
    with pytest.raises(DegenerateDataError):
        pgp(all_distinct)
    assert sum(ppp(all_distinct)) == Fraction(1)

    report = importance_report(all_distinct)
    assert report.pgp is None and report.ppp is not None


def test_pgp2_on_example(dataset_a):
    # dropping the least regular feature keeps 21 of the 27 linked pairs
    assert pgp2(dataset_a, candidates=(4,)) == Fraction(
        POSITIVE_PAIRS_A_WITHOUT_E, POSITIVE_PAIRS_A
    )
    assert pgp2(dataset_a) == Fraction(1)
    assert pgp2(dataset_a, candidates=range(5)) == Fraction(0)


def test_pgp2_counts_and_threshold(dataset_a):
    sm = build_sm(dataset_a.codes_matrix)
    pim, gim = pgp2_counts(dataset_a, sm, (4,))
    assert (pim, gim) == (POSITIVE_PAIRS_A_WITHOUT_E, POSITIVE_PAIRS_A)
    pim_hi, gim_hi = pgp2_counts(dataset_a, sm, (4,), alpha=4.0)
    assert gim_hi == 2 and pim_hi <= gim_hi
    with pytest.raises(DegenerateDataError):
        pgp2(dataset_a, sm=sm, candidates=(4,), alpha=5.0)


def test_pgp2_counts_thresholds(dataset_a):
    sm = build_sm(dataset_a.codes_matrix)
    assert pgp2_counts(dataset_a, sm, ()) == (POSITIVE_PAIRS_A, POSITIVE_PAIRS_A)
    # only the two exact-profile pairs exceed 4 matches
    assert pgp2_counts(dataset_a, sm, (), alpha=4.0) == (2, 2)
    assert pgp2_counts(dataset_a, sm, (), alpha=5.0) == (0, 0)


def test_pgp2_matches_direct_recount():
    rng = np.random.default_rng(7)
    for _ in range(20):
        codes = rng.integers(0, 3, size=(12, 4))
        kept = codes[:, 1:]
        direct = int((build_sm(kept).values > 0).sum())
        total = int((build_sm(codes).values > 0).sum())
        if total == 0:
            continue
        assert pgp2(codes, candidates=(0,)) == Fraction(direct, total)
