import dataclasses
import re

import numpy as np
import pytest

import mbclust.core
import mbclust.importance
import mbclust.similarity
from mbclust import (
    ClusteringState,
    Dendrogram,
    MbcConfig,
    STOP_ALL_CLUSTERED,
    STOP_TIED_IMPORTANCE,
    anti_merge_update,
    build_sm,
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
    )


# -- configuration ------------------------------------------------------


def test_config_defaults_and_alias():
    config = MbcConfig()
    assert config.importance_measure == "pgp"
    assert config.tie_policy == "drop-all"
    assert config.anti_merge is True
    assert MbcConfig(tie_policy="pgp2").tie_policy == "pgp2-single"


def test_config_validation_errors():
    with pytest.raises(ValueError):
        MbcConfig(importance_measure="gini")
    with pytest.raises(ValueError):
        MbcConfig(tie_policy="first")
    with pytest.raises(ValueError):
        MbcConfig(k=0)
    with pytest.raises(ValueError, match="k"):
        MbcConfig(k=2.7)
    assert MbcConfig(k=np.int64(2)).k == 2


@pytest.mark.parametrize("k", [True, False, np.True_, np.False_])
def test_config_rejects_bool_k(k):
    """``operator.index(True)`` is 1, which would also turn the containment rule off."""
    with pytest.raises(ValueError, match=re.escape(f"k must be an integer, got {k!r}")):
        MbcConfig(k=k)
    with pytest.raises(ValueError, match=re.escape(f"k must be an integer, got {k!r}")):
        run([[0, 1], [0, 2], [1, 2]], MbcConfig(k=k))


@pytest.mark.parametrize("field", ["importance_measure", "tie_policy"])
@pytest.mark.parametrize("value", [None, 3, b"pgp"])
def test_config_rejects_non_str_names(field, value):
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        MbcConfig(**{field: value})


@pytest.mark.parametrize("alpha", ["2.5", True, False, np.True_, None, 1j])
def test_config_rejects_non_real_alpha(alpha):
    with pytest.raises(ValueError, match=re.escape(repr(alpha))):
        MbcConfig(alpha=alpha)


@pytest.mark.parametrize("alpha", [2, 2.5, np.float32(2.5), np.int64(2)])
def test_config_accepts_real_alpha(alpha):
    assert MbcConfig(alpha=alpha).alpha == float(alpha)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="alpha"):
        MbcConfig(alpha=alpha)
    with pytest.raises(ValueError, match="alpha"):
        run([[0, 1], [0, 2], [1, 2]], MbcConfig(tie_policy="pgp2", alpha=alpha))


@pytest.mark.parametrize("anti_merge", ["false", "", 0.5, 0, 1, None, np.int64(1)])
def test_config_rejects_non_bool_anti_merge(anti_merge):
    with pytest.raises(ValueError, match=re.escape(f"anti_merge must be a bool, got {anti_merge!r}")):
        MbcConfig(anti_merge=anti_merge)
    with pytest.raises(ValueError, match="anti_merge"):
        run([[0, 1], [0, 2], [1, 2]], MbcConfig(anti_merge=anti_merge))


@pytest.mark.parametrize("anti_merge", [True, False, np.bool_(True), np.bool_(False)])
def test_config_accepts_bool_anti_merge(anti_merge):
    config = MbcConfig(anti_merge=anti_merge)
    assert config.anti_merge is bool(anti_merge)
    assert MbcConfig(**dataclasses.asdict(config)) == config


def test_config_k_disables_containment():
    config = MbcConfig(k=3, anti_merge=True)
    assert config.anti_merge is False and config.k == 3


def test_config_is_normalised_from_construction():
    assert MbcConfig(tie_policy="pgp2") == MbcConfig(tie_policy="pgp2-single") == MbcConfig(tie_policy="PGP2")
    assert MbcConfig(importance_measure="PPP") == MbcConfig(importance_measure="ppp")
    assert MbcConfig(k=np.int64(2)) == MbcConfig(k=2, anti_merge=False)
    assert not hasattr(MbcConfig, "validated")
    with pytest.raises(ValueError, match="k must be at least 1"):
        dataclasses.replace(MbcConfig(k=2), k=0)


def test_result_holds_only_dendrogram_trace_and_config():
    assert [field.name for field in dataclasses.fields(mbclust.core.MbcResult)] == ["dendrogram", "trace", "config"]
    with pytest.raises(TypeError):
        ClusteringState(labels=np.arange(2), profiles=np.zeros((2, 1), dtype=np.int64), remaining_features=(0,),
                        iteration=0)


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


def test_state_checks_its_profiles_as_codes():
    state = ClusteringState(labels=[0, 1], profiles=[[0], [1]], remaining_features=(0,))
    assert state.profiles.dtype == np.int64 and state.profiles.tolist() == [[0], [1]]
    with pytest.raises(ValueError, match="not an integer code"):
        ClusteringState(labels=[0, 1], profiles=np.array([[0.5], [1.0]]), remaining_features=(0,))
    with pytest.raises(ValueError, match="not an integer code"):
        ClusteringState(labels=[0, 1], profiles=np.array([["a"], ["b"]]), remaining_features=(0,))


def test_state_from_labels_equals_state_from_entities(dataset_a):
    entities = ((0, 1, 5), (2,), (3, 4, 9), (6, 7, 8))
    profiles = dataset_a.codes_matrix[[0, 2, 3, 6]]
    by_entities = ClusteringState(entities=entities, profiles=profiles, remaining_features=(0, 1, 2, 3, 4))
    assert by_entities.labels.tolist() == [0, 0, 1, 2, 2, 0, 3, 3, 3, 2]
    assert by_entities.sizes.tolist() == [3, 1, 3, 3]
    by_labels = ClusteringState(labels=by_entities.labels, profiles=profiles, remaining_features=(0, 1, 2, 3, 4))
    assert by_labels.entities == entities
    with pytest.raises(ValueError, match="exactly one"):
        ClusteringState(entities=entities, profiles=profiles, remaining_features=(0, 1, 2, 3, 4),
                        labels=by_entities.labels)
    with pytest.raises(ValueError, match="exactly once"):
        ClusteringState(entities=((0, 1), (1,)), profiles=profiles[:2], remaining_features=(0, 1, 2, 3, 4))
    with pytest.raises(ValueError, match="must be integers"):  # a cast would make 0.9 object 0
        ClusteringState(entities=((0.9,), (1,)), profiles=profiles[:2], remaining_features=(0, 1, 2, 3, 4))
    with pytest.raises(ValueError, match="1-d integer array"):
        ClusteringState(labels=np.array([0.0, 1.0]), profiles=profiles[:2], remaining_features=(0, 1, 2, 3, 4))
    with pytest.raises(ValueError, match="labels outside"):
        ClusteringState(labels=np.array([0, 4]), profiles=profiles[:2], remaining_features=(0, 1, 2, 3, 4))
    with pytest.raises(ValueError, match="no member"):
        ClusteringState(labels=np.array([0, 0]), profiles=profiles[:2], remaining_features=(0, 1, 2, 3, 4))


@pytest.mark.parametrize("frozen", [{-1}, {4}, {0, 4}, {np.int64(-2), 3}, {0.5}, {1, 2.0}])
def test_state_rejects_frozen_outside_entities(frozen):
    message = f"frozen entity indices {sorted(frozen)} outside 0..3"
    with pytest.raises(ValueError, match=re.escape(message)):
        ClusteringState(labels=np.arange(4), profiles=np.zeros((4, 2), dtype=np.int64), remaining_features=(0, 1),
                        frozen=frozen)


@pytest.mark.parametrize("frozen", [set(), {0}, {3}, {0, 1, 2, 3}, {np.int64(2)}])
def test_state_accepts_frozen_entities(frozen):
    state = ClusteringState(labels=np.arange(4), profiles=np.zeros((4, 2), dtype=np.int64),
                            remaining_features=(0, 1), frozen=frozen)
    assert state.frozen == frozenset(frozen)


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
    # no entity, one singleton, one cluster: nothing to merge or to freeze
    for entities in ((), ((0,),), ((0, 1, 2),)):
        state = ClusteringState(entities, profiles=np.zeros((len(entities), 2), dtype=np.int64),
                                remaining_features=(0, 1))
        assert group_matching(state) is state and anti_merge_update(state) is state


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
    assert select_drop(state, report, MbcConfig()) == (4,)


def test_select_drop_tie_policies(dataset_a):
    grouped = drop_features(group_matching(initial_state(dataset_a)), {4})
    report = importance_report(grouped.profiles, feature_names=("A", "B", "C", "D"))
    assert report.match_pairs == MATCH_PAIRS_A_ITER1
    assert select_drop(grouped, report, MbcConfig()) == (2, 3)
    single = select_drop(grouped, report, MbcConfig(tie_policy="pgp2"))
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
    assert select_drop(state, report, MbcConfig()) == ()
    assert select_drop(state, report, MbcConfig(tie_policy="pgp2")) == ()


def test_select_drop_ppp_measure(dataset_a):
    state = initial_state(dataset_a)
    report = importance_report(state.profiles, feature_names=dataset_a.feature_names)
    # E has the most mismatching pairs, so under ppp the least important
    # features are A and B
    config = MbcConfig(importance_measure="ppp")
    assert select_drop(state, report, config) == (0, 1)


# Upper-case names once reached select_drop unnormalised: "PPP" fell through to pgp and dropped (0, 2).
MIXED_CASE_CODES = [[0, 0, 1], [0, 1, 1], [1, 1, 0], [1, 0, 0], [0, 1, 2], [2, 1, 0]]


def test_select_drop_reads_an_upper_case_measure_as_lower_case():
    state, report = initial_state(MIXED_CASE_CODES), importance_report(MIXED_CASE_CODES)
    assert report.match_pairs == (8, 14, 8)
    assert select_drop(state, report, MbcConfig(importance_measure="PPP")) == (1,)
    assert select_drop(state, report, MbcConfig(importance_measure="ppp")) == (1,)
    assert select_drop(state, report, MbcConfig(importance_measure="pgp")) == (0, 2)


@pytest.mark.parametrize("spellings", [
    [{"importance_measure": "PPP"}, {"importance_measure": "ppp"}],
    [{"tie_policy": "PGP2"}, {"tie_policy": "pgp2"}, {"tie_policy": "pgp2-single"}],
    [{"importance_measure": "Ppp", "tie_policy": "Pgp2"}, {"importance_measure": "ppp", "tie_policy": "pgp2-single"}],
], ids=["ppp", "pgp2", "both"])
def test_spellings_of_a_setting_give_one_result(dataset_a, spellings):
    grouped = drop_features(group_matching(initial_state(dataset_a)), {4})
    report = importance_report(grouped.profiles, feature_names=("A", "B", "C", "D"))
    drops = {select_drop(grouped, report, MbcConfig(**kwargs)) for kwargs in spellings}
    assert len(drops) == 1
    results = [run(dataset_a, MbcConfig(**kwargs)) for kwargs in spellings]
    observed = [(r.partition, r.stop_reason, [rec.to_dict() for rec in r.trace], r.config) for r in results]
    assert all(seen == observed[0] for seen in observed)


def test_select_drop_report_mismatch(dataset_a):
    state = initial_state(dataset_a)
    report = importance_report(state.profiles[:, :4])
    with pytest.raises(ValueError):
        select_drop(state, report, MbcConfig())


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


# The pgp and ppp strings of each trace record on dataset_a, recorded when
# every importance report held its shares as Fractions.
TRACE_SHARES_A = {
    ("pgp", "drop-all"): [
        ("21/71 21/71 10/71 10/71 9/71", "12/77 12/77 5/22 5/22 18/77"),
        ("13/36 13/36 5/36 5/36", "15/76 15/76 23/76 23/76"),
        ("1/2 1/2", "1/2 1/2"),
    ],
    ("pgp", "pgp2"): [
        ("21/71 21/71 10/71 10/71 9/71", "12/77 12/77 5/22 5/22 18/77"),
        ("13/36 13/36 5/36 5/36", "15/76 15/76 23/76 23/76"),
        ("1/2 1/2 0", "1/4 1/4 1/2"),
        ("1/2 1/2", "1/2 1/2"),
    ],
    ("ppp", "drop-all"): [
        ("21/71 21/71 10/71 10/71 9/71", "12/77 12/77 5/22 5/22 18/77"),
        ("5/14 5/14 2/7", "23/70 23/70 12/35"),
        ("1", "1"),
    ],
    ("ppp", "pgp2"): [
        ("21/71 21/71 10/71 10/71 9/71", "12/77 12/77 5/22 5/22 18/77"),
        ("13/27 5/27 5/27 4/27", "3/17 23/85 23/85 24/85"),
        ("5/14 5/14 2/7", "23/70 23/70 12/35"),
        ("5/9 4/9", "23/47 24/47"),
        ("1", "1"),
    ],
}


@pytest.mark.parametrize("measure, ties", sorted(TRACE_SHARES_A))
def test_run_builds_no_fraction(dataset_a, monkeypatch, measure, ties):
    """The loop decides on integer pair counts; shares are built only when read."""
    def no_fraction(*args):
        raise AssertionError("run() built a Fraction")

    monkeypatch.setattr(mbclust.importance, "Fraction", no_fraction)
    trace = run(dataset_a, MbcConfig(importance_measure=measure, tie_policy=ties)).trace
    monkeypatch.undo()
    shares = [(" ".join(d["pgp"]), " ".join(d["ppp"])) for d in (rec.to_dict() for rec in trace)]
    assert shares == TRACE_SHARES_A[measure, ties]


def test_trace_share_of_a_zero_sum_is_null():
    payload = run([[0, 0], [0, 0]]).trace[0].to_dict()
    assert payload["pgp"] == ["1/2", "1/2"] and payload["ppp"] is None


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
    payload["merges"][0]["children"].append(99)
    payload["levels"][1][0].append(99)
    assert dendro.to_dict()["merges"][0] == {"iteration": 0, "parent": 10, "children": [0, 1], "members": [0, 1]}
    assert dendro.to_newick() == NEWICK_A


def test_run_with_k(dataset_a):
    assert run(dataset_a, MbcConfig(k=2)).partition == ((0, 1, 2, 3), (4, 5, 6, 7, 8, 9))
    # equally close levels resolve to the coarser one
    assert len(run(dataset_a, MbcConfig(k=3)).partition) == 2
    assert len(run(dataset_a, MbcConfig(k=10)).partition) == 10
    assert len(run(dataset_a, MbcConfig(k=6)).partition) == 4


@pytest.mark.parametrize("k", [True, 2.5, np.float64(2.0), "2"])
def test_cut_at_k_follows_the_config_k_rule(dataset_a, k):
    message = re.escape(f"k must be an integer, got {k!r}")
    with pytest.raises(ValueError, match=message):
        MbcConfig(k=k)
    with pytest.raises(ValueError, match=message):
        run(dataset_a, MbcConfig(k=k))
    by_int64, by_int = run(dataset_a, MbcConfig(k=np.int64(2))), run(dataset_a, MbcConfig(k=2))
    assert (by_int64.level, by_int64.partition) == (by_int.level, by_int.partition)


def test_cut_at_k_builds_one_level(dataset_a, monkeypatch):
    built = []
    member_tuples = mbclust.core._member_tuples

    def counting(labels):
        built.append(labels)
        return member_tuples(labels)

    monkeypatch.setattr(mbclust.core, "_member_tuples", counting)
    result = run(dataset_a, MbcConfig(k=3))
    dendro = result.dendrogram
    assert result.partition == ((0, 1, 2, 3), (4, 5, 6, 7, 8, 9))
    assert len(built) == 1 and np.array_equal(built[0], dendro.labels[3])  # sizes 10, 8, 4, 2; ties go coarser
    assert "levels" not in vars(dendro) and "merge_events" not in vars(dendro)


def test_dendrogram_checks_its_labels():
    with pytest.raises(ValueError, match="singleton"):
        Dendrogram(n_leaves=2, labels=[[0, 0]])
    with pytest.raises(ValueError):
        Dendrogram(n_leaves=3, labels=[[0, 1]])
    for label, held in ((0.7, "holds 0.7"), ("1", "holds a <U21 value")):  # a cast would store 0 and 1
        with pytest.raises(ValueError, match=held):
            Dendrogram(n_leaves=2, labels=[[0, 1], [0, label]])
    labels = np.array([[0, 1], [0, 0]])
    dendro = Dendrogram(n_leaves=2, labels=labels)
    labels[1, 1] = 1
    assert dendro.level_sizes == (2, 1) and not dendro.labels.flags.writeable
    # Level 2 splits {0, 2} of level 1, so level 2 is no coarsening.
    with pytest.raises(ValueError, match="coarsen"):
        Dendrogram(n_leaves=3, labels=[[0, 1, 2], [0, 1, 0], [0, 0, 1]])
    # Entity 1 is empty; entities out of smallest-member order; a negative label.
    for level in ([0, 2, 2], [1, 0, 0], [0, -1, 1]):
        with pytest.raises(ValueError, match="order of smallest member"):
            Dendrogram(n_leaves=3, labels=[[0, 1, 2], level])
    repeated = Dendrogram(n_leaves=3, labels=[[0, 1, 2], [0, 0, 1], [0, 0, 1], [0, 0, 0]])
    assert repeated.level_sizes == (3, 2, 2, 1) and repeated.to_newick() == "((0,1),2);"
    assert [(m.iteration, m.parent, m.children) for m in repeated.merge_events] == [(0, 3, (0, 1)), (2, 4, (3, 2))]
    assert Dendrogram(n_leaves=0, labels=[[]]).level_sizes == (0,)
    assert Dendrogram(n_leaves=3, labels=np.zeros((0, 3), int)).level_sizes == ()


def test_levels_are_coarsenings(dataset_a):
    for config in (MbcConfig(), MbcConfig(anti_merge=False)):
        levels = run(dataset_a, config).dendrogram.levels
        assert levels[0] == tuple((i,) for i in range(10))
        for fine, coarse in zip(levels, levels[1:]):
            for members in fine:
                assert any(set(members) <= set(c) for c in coarse)


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

    for module in (mbclust.similarity, mbclust.importance, mbclust.core):
        if hasattr(module, "build_sm"):
            monkeypatch.setattr(module, "build_sm", refuse)
    result = run(dataset_a, MbcConfig(anti_merge=anti_merge))
    assert result.dendrogram.anti_merge_used is anti_merge
    assert len(result.partition) == (4 if anti_merge else 2)


def planted(n, m, seed):
    """``n`` copies of 20 seeded prototypes over ``m`` three-valued features,
    with 15 % of each column's cells moved to another value."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 3, size=(20, m))[rng.permutation(np.arange(n) % 20)]
    for column in codes.T:
        rows = rng.choice(n, size=round(0.15 * n), replace=False)
        column[rows] = (column[rows] + rng.integers(1, 3, size=len(rows))) % 3
    return codes


@pytest.mark.parametrize("anti_merge", [True, False])
def test_run_sorts_no_profile_rows(dataset_a, monkeypatch, anti_merge):
    """No grouping falls back to sorting whole rows: on these inputs no two
    distinct profiles share a key."""
    unique = np.unique

    def refuse_axis(*args, **kwargs):
        if kwargs.get("axis") is not None or len(args) > 4 and args[4] is not None:
            raise AssertionError("np.unique called with axis=")
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", refuse_axis)
    for data in (dataset_a, np.random.default_rng(7).integers(0, 3, size=(200, 8)), planted(2500, 20, 0),
                 planted(300, 120, 1)):
        result = run(data, MbcConfig(anti_merge=anti_merge))
        assert len(result.dendrogram.levels) > 2


def test_run_groups_each_profile_matrix_once(dataset_a, monkeypatch):
    grouped = []
    profile_groups = mbclust.core._profile_groups

    def counting(state):
        assert state.profiles.flags.f_contiguous  # run() keeps the profiles feature-major
        grouped.append(state.profiles)
        return profile_groups(state)

    monkeypatch.setattr(mbclust.core, "_profile_groups", counting)
    for data in (dataset_a, np.random.default_rng(7).integers(0, 3, size=(200, 8))):
        grouped.clear()
        result = run(data)
        assert result.dendrogram.anti_merge_used
        # anti_merge_update and the group_matching after it share one grouping
        assert len({id(profiles) for profiles in grouped}) == len(grouped) == len(result.trace)


def test_group_matching_sorts_nothing_once_grouped(monkeypatch):
    profiles = np.asfortranarray(np.random.default_rng(11).integers(0, 2, size=(60, 4)))
    states = [ClusteringState(labels=np.arange(60), profiles=profiles, remaining_features=tuple(range(4)),
                              frozen=frozen) for frozen in (frozenset(), {0, 5, 17, 59})]
    for state in states:
        state._groups  # compute and cache the grouping; the rest of group_matching must not sort
    for name in ("unique", "argsort", "sort", "lexsort"):
        monkeypatch.setattr(np, name, lambda *args, name=name, **kwargs: pytest.fail(f"group_matching called np.{name}"))
    for state in states:
        grouped = group_matching(state)
        assert len(grouped.profiles) < 60 and grouped.profiles.flags.f_contiguous


def test_theta_strictly_decreasing(dataset_a):
    for config in (MbcConfig(), MbcConfig(tie_policy="pgp2"), MbcConfig(anti_merge=False)):
        thetas = [rec.theta for rec in run(dataset_a, config).trace]
        assert all(a > b for a, b in zip(thetas, thetas[1:]))
