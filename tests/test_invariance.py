"""Invariance properties of ``run()``.

Which integers name a category does not matter, only which cells share
one; and the order of the rows does not matter beyond naming the
objects. Both are checked under every configuration. Under the
drop-all policy the order of the columns does not matter beyond naming
the features, and every dendrogram level places each object exactly
once.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mbclust import MbcConfig, run
from test_equivalence import GRID, _observed, code_matrices

SETTINGS = settings(max_examples=20, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _config(measure, ties, anti_merge, population, k, alpha):
    return MbcConfig(importance_measure=measure, tie_policy=ties, anti_merge=anti_merge,
                     k=k, importance_population=population, alpha=alpha)


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
    config = _config(measure, ties, anti_merge, population, k, alpha)
    assert _observed(run(relabelled, config)) == _observed(run(codes, config))


@pytest.mark.parametrize("measure, ties, anti_merge, population", GRID)
@SETTINGS
@given(codes=code_matrices(), k=st.sampled_from([None, 1, 2, 3, 5]), alpha=st.sampled_from([0.0, 1.0, 2.5]),
       data=st.data())
def test_row_permutation_maps_the_partition(measure, ties, anti_merge, population, codes, k, alpha, data):
    perm = data.draw(st.permutations(range(len(codes))))
    config = _config(measure, ties, anti_merge, population, k, alpha)
    permuted = run(codes[perm], config)
    original = run(codes, config)
    # Row r of the permuted matrix is object perm[r] of the original.
    mapped = {frozenset(perm[r] for r in members) for members in permuted.partition}
    assert mapped == {frozenset(members) for members in original.partition}
    assert [r.to_dict() for r in permuted.trace] == [r.to_dict() for r in original.trace]
    assert permuted.stop_reason == original.stop_reason


@pytest.mark.parametrize("measure, ties, anti_merge, population", [cell for cell in GRID if cell[1] == "drop-all"])
@SETTINGS
@given(codes=code_matrices(), k=st.sampled_from([None, 1, 2, 3, 5]), alpha=st.sampled_from([0.0, 1.0, 2.5]),
       data=st.data())
def test_column_permutation_renames_the_features(measure, ties, anti_merge, population, codes, k, alpha, data):
    perm = data.draw(st.permutations(range(codes.shape[1])))
    config = _config(measure, ties, anti_merge, population, k, alpha)
    permuted = run(codes[:, perm], config)
    original = run(codes, config)
    assert permuted.partition == original.partition
    assert permuted.dendrogram.to_dict() == original.dendrogram.to_dict()
    assert permuted.stop_reason == original.stop_reason
    # Column j of the permuted matrix is feature perm[j] of the original.
    rename = {f"f{j}": f"f{perm[j]}" for j in range(len(perm))}
    assert [{rename[name] for name in r.dropped} for r in permuted.trace] == [set(r.dropped) for r in original.trace]


@pytest.mark.parametrize("measure, ties, anti_merge, population", GRID)
@SETTINGS
@given(codes=code_matrices(), k=st.sampled_from([None, 1, 2, 3, 5]), alpha=st.sampled_from([0.0, 1.0, 2.5]))
def test_every_level_holds_each_object_once(measure, ties, anti_merge, population, codes, k, alpha):
    result = run(codes, _config(measure, ties, anti_merge, population, k, alpha))
    for level in result.dendrogram.levels:
        assert sorted(obj for members in level for obj in members) == list(range(len(codes)))
