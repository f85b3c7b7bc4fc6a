import numpy as np
import pytest

import mbclust.core
import mbclust.importance
from mbclust import (
    ClusteringState,
    Dendrogram,
    MbcConfig,
    MbcError,
    STOP_ALL_CLUSTERED,
    STOP_TIED_IMPORTANCE,
    anti_merge_update,
    build_sm,
    cut_at_k,
    group_matching,
    importance_report,
    initial_state,
    run,
    select_drop,
    update_sm_after_drop,
)
from oracles import (
    LEVEL_SIZES_A_NO_CONTAINMENT,
    MATCH_PAIRS_A_ITER1,
    NEWICK_A,
    PARTITION_A,
    SM_A_AFTER_FIRST_DROP,
    SM_A_AFTER_SECOND_DROP,
)


def drop_features(state: ClusteringState, original_ids) -> ClusteringState:
    """Rebuild a state without the given original feature columns."""
    drop = set(original_ids)
    kept = [pos for pos, f in enumerate(state.remaining_features) if f not in drop]
    profiles = state.profiles[:, kept].copy()
    return ClusteringState(
        entities=state.entities,
        profiles=profiles,
        remaining_features=tuple(state.remaining_features[p] for p in kept),
        iteration=state.iteration + 1,
    )


# -- configuration ------------------------------------------------------


def test_config_defaults_and_alias():
    config = MbcConfig().validated()
    assert config.importance_measure == "pgp"
    assert config.tie_policy == "drop-all"
    assert config.anti_merge is True
    assert MbcConfig(tie_policy="pgp2").validated().tie_policy == "pgp2-single"


def test_config_validation_errors():
    with pytest.raises(ValueError):
        MbcConfig(importance_measure="gini").validated()
    with pytest.raises(ValueError):
        MbcConfig(tie_policy="first").validated()
    with pytest.raises(ValueError):
        MbcConfig(importance_population="rows").validated()
    with pytest.raises(ValueError):
        MbcConfig(k=0).validated()


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="alpha"):
        MbcConfig(alpha=alpha).validated()
    with pytest.raises(ValueError, match="alpha"):
        run([[0, 1], [0, 2], [1, 2]], MbcConfig(tie_policy="pgp2", alpha=alpha))


def test_config_k_disables_containment():
    config = MbcConfig(k=3, anti_merge=True).validated()
    assert config.anti_merge is False and config.k == 3


# -- state and grouping --------------------------------------------------


def test_initial_state(dataset_a):
    state = initial_state(dataset_a)
    assert state.entities == tuple((i,) for i in range(10))
    assert state.theta == 5
    assert state.remaining_features == (0, 1, 2, 3, 4)
    assert np.array_equal(state.profiles, dataset_a.codes_matrix)
    assert state.frozen == frozenset()


def test_state_validation(dataset_a):
    state = initial_state(dataset_a)
    with pytest.raises(ValueError):
        ClusteringState(
            entities=state.entities,
            profiles=state.profiles[:, :4],
            remaining_features=state.remaining_features,
        )
    with pytest.raises(ValueError):
        ClusteringState(
            entities=state.entities[:9],
            profiles=state.profiles,
            remaining_features=state.remaining_features,
        )
    with pytest.raises(ValueError):
        ClusteringState(
            entities=state.entities,
            profiles=state.profiles,
            remaining_features=state.remaining_features,
            frozen=frozenset({10}),
        )


def test_first_merge_round(dataset_a):
    grouped = group_matching(initial_state(dataset_a))
    assert len(grouped.entities) == 8
    assert grouped.entities[0] == (0, 1)
    assert grouped.entities[5] == (6, 9)
    assert all(len(e) == 1 for i, e in enumerate(grouped.entities) if i not in (0, 5))
    # merged entities keep the shared profile
    assert tuple(grouped.profiles[0]) == dataset_a.row(0)
    assert grouped.theta == 5


def test_group_matching_no_hits_returns_same_state(dataset_a):
    once = group_matching(initial_state(dataset_a))
    # every full-agreement pair is already fused, so nothing happens
    assert group_matching(once) is once


def test_full_replay_of_example_iterations(dataset_a):
    state0 = initial_state(dataset_a)
    grouped0 = group_matching(state0)

    # removing the least regular feature, by rebuild and incrementally
    state1 = drop_features(grouped0, {4})
    incremental = update_sm_after_drop(build_sm(grouped0.profiles), grouped0.profiles, [4])
    assert np.array_equal(build_sm(state1.profiles).values, SM_A_AFTER_FIRST_DROP)
    assert np.array_equal(incremental.values, SM_A_AFTER_FIRST_DROP)

    grouped1 = group_matching(state1)
    assert grouped1.entities == ((0, 1, 2, 3), (4, 6, 9), (5, 7), (8,))

    state2 = drop_features(grouped1, {2, 3})
    assert np.array_equal(build_sm(state2.profiles).values, SM_A_AFTER_SECOND_DROP)

    frozen = anti_merge_update(state2)
    assert frozen.frozen == {1, 2}
    # with both colliding clusters frozen, nothing merges any more
    assert group_matching(frozen) is frozen


def test_anti_merge_needs_colliding_clusters(dataset_a):
    state = initial_state(dataset_a)
    # all entities are singletons: full-agreement pairs exist but none collide
    assert anti_merge_update(state) is state


def test_anti_merge_severs_singleton_links():
    # two 2-member clusters and two singletons, all in full agreement
    state = ClusteringState(
        entities=((0, 1), (2, 3), (4,), (5,)),
        profiles=np.zeros((4, 2), dtype=np.int64),
        remaining_features=(0, 1),
    )
    frozen = anti_merge_update(state)
    assert frozen.frozen == {0, 1}
    assert anti_merge_update(frozen) is frozen
    # the frozen clusters absorb no singleton; the singletons still merge
    grouped = group_matching(frozen)
    assert grouped.entities == ((0, 1), (2, 3), (4, 5))
    assert grouped.frozen == frozenset()


def test_anti_merge_leaves_other_pairs_alone():
    profiles = np.array([[0, 0], [0, 0], [1, 0], [1, 0], [2, 0], [2, 0]])
    state = ClusteringState(
        entities=((0, 1), (2, 3), (4, 5), (6,), (7,), (8, 9)),
        profiles=profiles,
        remaining_features=(0, 1),
    )
    frozen = anti_merge_update(state)
    # only the (cluster, cluster) collision freezes; a cluster alone in its
    # profile group, and a partial match, leave the others free to merge
    assert frozen.frozen == {0, 1}
    grouped = group_matching(frozen)
    assert grouped.entities == ((0, 1), (2, 3), (4, 5, 6), (7, 8, 9))


# -- drop selection -------------------------------------------------------


def test_select_drop_single_minimum(dataset_a):
    state = initial_state(dataset_a)
    report = importance_report(state.profiles, feature_names=dataset_a.feature_names)
    assert select_drop(state, report, MbcConfig().validated()) == (4,)


def test_select_drop_tie_policies(dataset_a):
    grouped = drop_features(group_matching(initial_state(dataset_a)), {4})
    report = importance_report(grouped.profiles, feature_names=("A", "B", "C", "D"))
    assert report.match_pairs == MATCH_PAIRS_A_ITER1
    assert select_drop(grouped, report, MbcConfig().validated()) == (2, 3)
    single = select_drop(grouped, report, MbcConfig(tie_policy="pgp2").validated())
    assert single == (2,)


def test_select_drop_termination_cases():
    profiles = np.array([[0, 1], [0, 1], [1, 0]])
    state = ClusteringState(
        entities=((0,), (1,), (2,)),
        profiles=profiles,
        remaining_features=(0, 1),
    )
    report = importance_report(profiles)
    # both features carry the same pair counts: nothing to drop
    assert select_drop(state, report, MbcConfig().validated()) == ()
    assert select_drop(state, report, MbcConfig(tie_policy="pgp2").validated()) == ()


def test_select_drop_ppp_measure(dataset_a):
    state = initial_state(dataset_a)
    report = importance_report(state.profiles, feature_names=dataset_a.feature_names)
    # E has the most mismatching pairs, so under ppp the least important
    # features are A and B
    config = MbcConfig(importance_measure="ppp").validated()
    assert select_drop(state, report, config) == (0, 1)


def test_select_drop_report_mismatch(dataset_a):
    state = initial_state(dataset_a)
    report = importance_report(state.profiles[:, :4])
    with pytest.raises(ValueError):
        select_drop(state, report, MbcConfig().validated())


# -- the full loop --------------------------------------------------------


def test_run_default_partition(dataset_a):
    result = run(dataset_a)
    assert result.partition == PARTITION_A
    assert result.stop_reason == STOP_TIED_IMPORTANCE
    assert [rec.theta for rec in result.trace] == [5, 4, 2]
    assert [rec.dropped for rec in result.trace] == [("E",), ("C", "D"), ()]
    assert result.dendrogram.anti_merge_used is True
    assert list(result.assignments) == [1, 1, 1, 1, 2, 3, 2, 3, 4, 2]


def test_run_trace_reports(dataset_a):
    result = run(dataset_a)
    first = result.trace[0]
    assert first.feature_names == ("A", "B", "C", "D", "E")
    assert first.report.match_pairs == (42, 42, 20, 20, 18)
    second = result.trace[1]
    assert second.feature_names == ("A", "B", "C", "D")
    assert second.report.match_pairs == MATCH_PAIRS_A_ITER1
    payload = first.to_dict()
    assert payload["iteration"] == 0 and payload["theta"] == 5
    assert payload["dropped"] == ["E"]
    assert payload["pgp"][0] == "21/71"


def test_run_without_containment(dataset_a):
    result = run(dataset_a, MbcConfig(anti_merge=False))
    assert result.stop_reason == STOP_ALL_CLUSTERED
    assert result.dendrogram.anti_merge_used is False
    assert result.dendrogram.level_sizes == LEVEL_SIZES_A_NO_CONTAINMENT
    assert result.partition == ((0, 1, 2, 3), (4, 5, 6, 7, 8, 9))


def test_run_single_tie_policy(dataset_a):
    result = run(dataset_a, MbcConfig(tie_policy="pgp2"))
    assert [rec.theta for rec in result.trace] == [5, 4, 3, 2]
    assert [rec.dropped for rec in result.trace] == [("E",), ("C",), ("D",), ()]
    assert result.partition == PARTITION_A


def test_run_merge_events(dataset_a):
    dendro = run(dataset_a, MbcConfig(anti_merge=False)).dendrogram
    events = dendro.merge_events
    assert [ev.parent for ev in events] == [10, 11, 12, 13, 14, 15]
    assert events[0].members == (0, 1) and events[0].children == (0, 1)
    assert events[1].members == (6, 9) and events[1].children == (6, 9)
    assert events[2].children == (10, 2, 3)
    assert events[3].children == (4, 11)
    assert events[5].children == (13, 14, 8)
    assert [ev.iteration for ev in events] == [0, 0, 1, 1, 1, 2]
    assert dendro.to_newick() == NEWICK_A


def test_dendrogram_dict_roundtrip(dataset_a):
    dendro = run(dataset_a, MbcConfig(anti_merge=False)).dendrogram
    payload = dendro.to_dict()
    assert payload["n_leaves"] == 10
    assert [len(level) for level in payload["levels"]] == [10, 8, 4, 2]
    assert payload["merges"][0] == {"iteration": 0, "parent": 10, "children": [0, 1], "members": [0, 1]}
    assert payload["anti_merge_used"] is False


def test_run_with_k(dataset_a):
    assert run(dataset_a, MbcConfig(k=2)).partition == ((0, 1, 2, 3), (4, 5, 6, 7, 8, 9))
    # equally close levels resolve to the coarser one
    assert len(run(dataset_a, MbcConfig(k=3)).partition) == 2
    assert len(run(dataset_a, MbcConfig(k=10)).partition) == 10
    assert len(run(dataset_a, MbcConfig(k=6)).partition) == 4


def test_cut_at_k_validation(dataset_a):
    censored = run(dataset_a).dendrogram
    with pytest.raises(MbcError):
        cut_at_k(censored, 2)
    open_dendro = run(dataset_a, MbcConfig(anti_merge=False)).dendrogram
    with pytest.raises(ValueError):
        cut_at_k(open_dendro, 0)
    empty = Dendrogram(n_leaves=0, levels=(), merge_events=())
    with pytest.raises(ValueError):
        cut_at_k(empty, 1)


def test_levels_are_coarsenings(dataset_a):
    for config in (MbcConfig(), MbcConfig(anti_merge=False)):
        levels = run(dataset_a, config).dendrogram.levels
        assert levels[0] == tuple((i,) for i in range(10))
        for fine, coarse in zip(levels, levels[1:]):
            for members in fine:
                assert any(set(members) <= set(c) for c in coarse)


def test_population_switch_changes_reports_not_outcome(dataset_a):
    entity_run = run(dataset_a)
    object_run = run(dataset_a, MbcConfig(importance_population="original"))
    assert object_run.partition == entity_run.partition
    # second-iteration counts come from 10 objects instead of 8 entities
    assert object_run.trace[1].report.match_pairs == (42, 42, 20, 20)
    assert entity_run.trace[1].report.match_pairs == MATCH_PAIRS_A_ITER1


def test_run_accepts_raw_codes():
    result = run(np.array([[0, 0], [0, 0], [1, 1]]))
    assert result.partition == ((0, 1), (2,))
    assert result.trace[0].feature_names == ("f0", "f1")


def test_run_tiny_inputs():
    lonely = run(np.array([[0, 1]]))
    assert lonely.partition == ((0,),)
    assert lonely.stop_reason == STOP_TIED_IMPORTANCE

    single_feature = run(np.array([[0], [0], [1]]))
    assert single_feature.partition == ((0, 1), (2,))
    assert single_feature.stop_reason == STOP_TIED_IMPORTANCE


def test_run_all_identical_rows():
    result = run(np.zeros((3, 2), dtype=int))
    assert result.partition == ((0, 1, 2),)
    assert result.stop_reason == STOP_ALL_CLUSTERED
    assert result.dendrogram.to_newick() == "(0,1,2);"


@pytest.mark.parametrize("anti_merge", [True, False])
def test_run_builds_no_match_matrix_under_drop_all(dataset_a, monkeypatch, anti_merge):
    def refuse(*args, **kwargs):
        raise AssertionError("build_sm called")

    monkeypatch.setattr(mbclust.core, "build_sm", refuse)
    monkeypatch.setattr(mbclust.importance, "build_sm", refuse)
    result = run(dataset_a, MbcConfig(anti_merge=anti_merge))
    assert result.dendrogram.anti_merge_used is anti_merge
    assert len(result.partition) == (4 if anti_merge else 2)


def test_theta_strictly_decreasing(dataset_a):
    for config in (MbcConfig(), MbcConfig(tie_policy="pgp2"), MbcConfig(anti_merge=False)):
        thetas = [rec.theta for rec in run(dataset_a, config).trace]
        assert all(a > b for a, b in zip(thetas, thetas[1:]))
