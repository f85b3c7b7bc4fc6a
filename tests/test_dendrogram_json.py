"""``writers.dendrogram_json`` against its oracle, ``json.dumps(to_dict(), indent=2)``.

The writer renders each object number once and joins the levels and
merges straight from the level labels with fixed separators, so its text
must equal the generic encoder's byte for byte on every run
configuration and on hand-built dendrograms that :func:`run` never
produces. Written to a file, it holds one level's text at a time.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mbclust import Dendrogram, MbcConfig, run, writers
from mbclust.cli import _write
import oracles
from oracles import labels_of_levels
from test_equivalence import GRID, code_matrices


def to_json(dendrogram) -> str:
    return "".join(writers.dendrogram_json(dendrogram))


def assert_oracle_text(dendrogram):
    assert to_json(dendrogram) == json.dumps(dendrogram.to_dict(), indent=2)


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


def test_to_json_of_merges_numbered_past_8_bits():
    # Level 1 merges 598 into entity 255 and 599 into entity 256, numbers
    # past 8 bits: grouping must not narrow the labels below their range.
    level = np.arange(600)
    level[598:] = 255, 256
    dendrogram = Dendrogram(n_leaves=600, labels=[np.arange(600), level])
    assert_oracle_text(dendrogram)
    assert json.loads(to_json(dendrogram))["merges"] == [
        {"iteration": 0, "parent": 600, "children": [255, 598], "members": [255, 598]},
        {"iteration": 0, "parent": 601, "children": [256, 599], "members": [256, 599]},
    ]


def test_merges_derived_from_hand_built_levels():
    levels = (((0,), (1,), (2,), (3,)), ((0, 2, 3), (1,)), ((0, 1, 2, 3),))
    dendrogram = Dendrogram(n_leaves=4, labels=labels_of_levels(levels, 4))
    assert [(ev.iteration, ev.parent, ev.children, ev.members) for ev in dendrogram.merge_events] == [
        (0, 4, (0, 2, 3), (0, 2, 3)),
        (1, 5, (4, 1), (0, 1, 2, 3)),
    ]
    assert dendrogram.level_sizes == (4, 2, 1)
    assert dendrogram.to_newick() == "((0,2,3),1);"


REPEATED = [
    pytest.param(oracles.REPEAT_AFTER_MERGE, oracles.REPEAT_AFTER_MERGE_EVENTS, oracles.REPEAT_AFTER_MERGE_NEWICK,
                 id="repeat-after-merge"),
    pytest.param(oracles.REPEAT_TWICE, oracles.REPEAT_TWICE_EVENTS, oracles.REPEAT_TWICE_NEWICK, id="two-repeats"),
]


@pytest.mark.parametrize("levels, events, newick", REPEATED)
def test_repeated_levels_are_derived_once(levels, events, newick):
    n_leaves = len(levels[0])
    dendrogram = Dendrogram(n_leaves=n_leaves, labels=labels_of_levels(levels, n_leaves))
    assert_oracle_text(dendrogram)
    assert dendrogram.levels == levels
    assert [(ev.iteration, ev.parent, ev.children, ev.members) for ev in dendrogram.merge_events] == list(events)
    assert dendrogram.to_newick() == newick
    assert dendrogram.level_sizes == tuple(map(len, levels))


@pytest.mark.parametrize("levels, events, newick", REPEATED)
def test_to_dict_shares_no_list_between_levels(levels, events, newick):
    n_leaves = len(levels[0])
    payload = Dendrogram(n_leaves=n_leaves, labels=labels_of_levels(levels, n_leaves)).to_dict()
    lists = [*payload["levels"], *(members for level in payload["levels"] for members in level),
             *(merge[key] for merge in payload["merges"] for key in ("children", "members"))]
    assert len(set(map(id, lists))) == len(lists)
    # Mutating a level leaves the level that repeats it as it was.
    payload["levels"][1][0].append(99)
    payload["levels"][1].append([98])
    assert payload["levels"][2] == [list(members) for members in levels[2]]


def test_streamed_dendrogram_holds_one_level_at_a_time(tmp_path):
    # Level p puts objects 0..p in one entity and leaves the rest alone, so
    # every level's text is about as long and the merges stay short.
    n, depth = 20000, 30
    dendrogram = Dendrogram(n_leaves=n, labels=np.maximum(np.arange(n) - np.arange(depth)[:, None], 0))
    path = tmp_path / "dendrogram.json"
    tracemalloc.start()
    try:
        _write((str(path), writers.dendrogram_json(dendrogram)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2, (peak, path.stat().st_size)
