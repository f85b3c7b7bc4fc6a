"""``Dendrogram.to_json`` against its oracle, ``json.dumps(to_dict(), indent=2)``.

The writer renders each shared member tuple once and joins the levels
and merges with fixed separators, so its text must equal the generic
encoder's byte for byte on every run configuration and on hand-built
dendrograms that :func:`run` never produces.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mbclust import Dendrogram, MbcConfig, MergeEvent, run
from test_equivalence import GRID, code_matrices


def assert_oracle_text(dendrogram):
    assert dendrogram.to_json() == json.dumps(dendrogram.to_dict(), indent=2)


@pytest.mark.parametrize("measure, ties, anti_merge", GRID)
@settings(max_examples=20, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(codes=code_matrices(), k=st.sampled_from([None, 1, 2, 3, 5]), alpha=st.sampled_from([0.0, 1.0, 2.5]))
def test_to_json_equals_indented_dump_of_to_dict(measure, ties, anti_merge, codes, k, alpha):
    config = MbcConfig(importance_measure=measure, tie_policy=ties, anti_merge=anti_merge, k=k, alpha=alpha)
    assert_oracle_text(run(codes, config).dendrogram)


@pytest.mark.parametrize("dendrogram", [
    Dendrogram(n_leaves=0, levels=(), merge_events=()),
    Dendrogram(n_leaves=0, levels=((),), merge_events=()),
    Dendrogram(n_leaves=1, levels=(((0,),),), merge_events=()),
    Dendrogram(n_leaves=3, levels=(((0,), (1,), (2,)),) * 2, merge_events=()),
    Dendrogram(n_leaves=3, levels=(((0,), (1,), (2,)),), merge_events=(), anti_merge_used=True),
    # members equal to, but not the same object as, the level entry
    Dendrogram(
        n_leaves=3,
        levels=(((0,), (1,), (2,)), ((0, 1), (2,)), ((0, 1, 2),)),
        merge_events=(MergeEvent(0, 3, (0, 1), tuple(range(2))), MergeEvent(1, 4, (3, 2), tuple(range(3)))),
        anti_merge_used=True,
    ),
], ids=["empty", "empty-level", "single-object", "no-merges", "censored-no-merges", "unshared-members"])
def test_to_json_of_hand_built_dendrograms(dendrogram):
    assert_oracle_text(dendrogram)
