"""``Dendrogram.to_json`` against its oracle, ``json.dumps(to_dict(), indent=2)``.

The writer renders each object number once and joins the levels and
merges straight from the level labels with fixed separators, so its text
must equal the generic encoder's byte for byte on every run
configuration and on hand-built dendrograms that :func:`run` never
produces.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mbclust import Dendrogram, MbcConfig, run
from oracles import labels_of_levels
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


SINGLETONS = ((0,), (1,), (2,))


@pytest.mark.parametrize("levels, n_leaves, anti_merge_used", [
    ((), 0, False),
    (((),), 0, False),
    ((((0,),),), 1, False),
    ((SINGLETONS,) * 2, 3, False),
    ((SINGLETONS,), 3, True),
    ((SINGLETONS, ((0, 1), (2,)), ((0, 1, 2),)), 3, True),
    ((((0,), (1,), (2,), (3,)), ((0, 2, 3), (1,)), ((0, 1, 2, 3),)), 4, False),
], ids=["empty", "empty-level", "single-object", "no-merges", "censored-no-merges", "censored-two-merges",
        "three-way-merge"])
def test_to_json_of_hand_built_dendrograms(levels, n_leaves, anti_merge_used):
    dendrogram = Dendrogram(n_leaves=n_leaves, labels=labels_of_levels(levels, n_leaves),
                            anti_merge_used=anti_merge_used)
    assert dendrogram.levels == levels
    assert_oracle_text(dendrogram)


def test_merges_derived_from_hand_built_levels():
    levels = (((0,), (1,), (2,), (3,)), ((0, 2, 3), (1,)), ((0, 1, 2, 3),))
    dendrogram = Dendrogram(n_leaves=4, labels=labels_of_levels(levels, 4))
    assert [(ev.iteration, ev.parent, ev.children, ev.members) for ev in dendrogram.merge_events] == [
        (0, 4, (0, 2, 3), (0, 2, 3)),
        (1, 5, (4, 1), (0, 1, 2, 3)),
    ]
    assert dendrogram.level_sizes == (4, 2, 1)
    assert dendrogram.to_newick() == "((0,2,3),1);"
