"""Invariance properties of ``run()``.

Which integers name a category does not matter, only which cells share
one; and the order of the rows does not matter beyond naming the
objects. Both are checked under every configuration. Under the
drop-all policy the order of the columns does not matter beyond naming
the features, and every dendrogram level places each object exactly
once.

Each case also names a population that the features of every iteration
are ranked over. ``entities`` is the run's own trace report.
``original`` is ``importance_report`` over all objects restricted to
that iteration's remaining features; it takes the raw, possibly
negative codes, and must obey the same invariances.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mbclust import MbcConfig, importance_report, run
from test_equivalence import _observed, code_matrices

SETTINGS = settings(max_examples=20, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

GRID = list(itertools.product(("pgp", "ppp"), ("drop-all", "pgp2-single"), (True, False),
                              ("entities", "original")))


def _config(measure, ties, anti_merge, k, alpha):
    return MbcConfig(importance_measure=measure, tie_policy=ties, anti_merge=anti_merge, k=k, alpha=alpha)


def _columns(record):
    """Column indices of the features remaining in ``record``; column ``j`` of a code matrix is ``f{j}``."""
    return [int(name[1:]) for name in record.feature_names]


def _population_reports(codes, result, population):
    """Per iteration, feature name -> (match pairs, pgp, ppp) over ``population``."""
    reports = []
    for record in result.trace:
        report = record.report
        if population == "original":
            report = importance_report(codes[:, _columns(record)], feature_names=record.feature_names)
        # pgp or ppp is None where its denominator is zero.
        absent = (None,) * len(record.feature_names)
        reports.append(dict(zip(record.feature_names,
                                zip(report.match_pairs, report.pgp or absent, report.ppp or absent))))
    return reports


@pytest.mark.parametrize("measure, ties, anti_merge, population", GRID)
@SETTINGS
@given(codes=code_matrices(), k=st.sampled_from([None, 1, 2, 3, 5]), alpha=st.sampled_from([0.0, 1.0, 2.5]),
       data=st.data())
def test_category_relabelling_changes_nothing(measure, ties, anti_merge, population, codes, k, alpha, data):
    relabelled = np.empty_like(codes)
    for col in range(codes.shape[1]):
        values = np.unique(codes[:, col])
        names = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=len(values), max_size=len(values),
                                   unique=True))
        relabelled[:, col] = np.array(names)[np.searchsorted(values, codes[:, col])]
    config = _config(measure, ties, anti_merge, k, alpha)
    result = run(codes, config)
    assert _observed(run(relabelled, config)) == _observed(result)
    assert _population_reports(relabelled, result, population) == _population_reports(codes, result, population)


@pytest.mark.parametrize("measure, ties, anti_merge, population", GRID)
@SETTINGS
@given(codes=code_matrices(), k=st.sampled_from([None, 1, 2, 3, 5]), alpha=st.sampled_from([0.0, 1.0, 2.5]),
       data=st.data())
def test_row_permutation_maps_the_partition(measure, ties, anti_merge, population, codes, k, alpha, data):
    perm = data.draw(st.permutations(range(len(codes))))
    config = _config(measure, ties, anti_merge, k, alpha)
    permuted = run(codes[perm], config)
    original = run(codes, config)
    # Row r of the permuted matrix is object perm[r] of the original.
    mapped = {frozenset(perm[r] for r in members) for members in permuted.partition}
    assert mapped == {frozenset(members) for members in original.partition}
    assert [r.to_dict() for r in permuted.trace] == [r.to_dict() for r in original.trace]
    assert permuted.stop_reason == original.stop_reason
    assert (_population_reports(codes[perm], permuted, population)
            == _population_reports(codes, original, population))


@pytest.mark.parametrize("measure, ties, anti_merge, population", [cell for cell in GRID if cell[1] == "drop-all"])
@SETTINGS
@given(codes=code_matrices(), k=st.sampled_from([None, 1, 2, 3, 5]), alpha=st.sampled_from([0.0, 1.0, 2.5]),
       data=st.data())
def test_column_permutation_renames_the_features(measure, ties, anti_merge, population, codes, k, alpha, data):
    perm = data.draw(st.permutations(range(codes.shape[1])))
    config = _config(measure, ties, anti_merge, k, alpha)
    permuted = run(codes[:, perm], config)
    original = run(codes, config)
    assert permuted.partition == original.partition
    assert permuted.dendrogram.to_dict() == original.dendrogram.to_dict()
    assert permuted.stop_reason == original.stop_reason
    # Column j of the permuted matrix is feature perm[j] of the original.
    rename = {f"f{j}": f"f{perm[j]}" for j in range(len(perm))}
    assert [{rename[name] for name in r.dropped} for r in permuted.trace] == [set(r.dropped) for r in original.trace]
    renamed = [{rename[name]: values for name, values in report.items()}
               for report in _population_reports(codes[:, perm], permuted, population)]
    assert renamed == _population_reports(codes, original, population)


@pytest.mark.parametrize("measure, ties, anti_merge, population", GRID)
@SETTINGS
@given(codes=code_matrices(), k=st.sampled_from([None, 1, 2, 3, 5]), alpha=st.sampled_from([0.0, 1.0, 2.5]))
def test_every_level_holds_each_object_once(measure, ties, anti_merge, population, codes, k, alpha):
    result = run(codes, _config(measure, ties, anti_merge, k, alpha))
    for level in result.dendrogram.levels:
        assert sorted(obj for members in level for obj in members) == list(range(len(codes)))
    if population == "original":
        # The objects of a cluster agree on every feature ranked in the
        # round that formed it, so over those features the objects are
        # the cluster profiles, each repeated once per member.
        for record, level in zip(result.trace, result.dendrogram.levels[1:]):
            rows = codes[:, _columns(record)]
            assert all((rows[list(members)] == rows[members[0]]).all() for members in level)
